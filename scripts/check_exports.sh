#!/bin/sh
# Exported-surface check: every value a library interface exports
# (`val name` in lib/*/*.mli) must be referenced outside its own module,
# in lib, bin, bench, examples, perfbench or test.  A reference is
# `.name` (a qualified use such as `Count.count_bset`), or a bare `name`
# in a file that opens the module (`open Notation`, as
# lib/maestro/maestro_zoo.ml does).  Operators such as `val ( + )` are
# not checked.  Prints each offender as `path: name` and exits 1 if
# there is any.  Run from anywhere; it scans the repository it sits in.
set -eu

cd "$(dirname "$0")/.."

sources=$(find lib bin bench examples perfbench test \
  \( -name '*.ml' -o -name '*.mli' \) -not -path '*/_build/*' | sort)
offenders=0
for mli in lib/*/*.mli; do
  own_ml=${mli%.mli}.ml
  base=$(basename "$mli" .mli)
  module=$(printf '%s' "$base" | cut -c1 | tr '[:lower:]' '[:upper:]')$(
    printf '%s' "$base" | cut -c2-)
  others=$(printf '%s\n' "$sources" | grep -v -x -e "$mli" -e "$own_ml")
  # shellcheck disable=SC2086  # the file lists hold no spaces
  openers=$(grep -l -E \
    "(^|[^A-Za-z0-9_.])open!? +([A-Z][A-Za-z0-9_]*\.)*$module([^A-Za-z0-9_]|\$)" \
    $others || true)
  for name in $(sed -n \
      "s/^ *val \([a-z_][A-Za-z0-9_']*\) *:.*/\1/p; s/^ *val \([a-z_][A-Za-z0-9_']*\) *\$/\1/p" \
      "$mli"); do
    # shellcheck disable=SC2086
    if grep -q -E "\.$name([^A-Za-z0-9_']|\$)" $others; then continue; fi
    # shellcheck disable=SC2086
    if [ -n "$openers" ] && grep -q -w -e "$name" $openers; then continue; fi
    echo "$mli: $name"
    offenders=$((offenders + 1))
  done
done
if [ "$offenders" -gt 0 ]; then
  echo "$offenders exported values have no caller outside their own module"
  exit 1
fi
echo "exported surface: every val has a caller outside its own module"
