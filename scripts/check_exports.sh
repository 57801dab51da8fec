#!/bin/sh
# Exported-surface check: every value a library interface exports
# (`val name` in lib/*/*.mli) must be referenced outside its own module,
# in lib, bin, bench, examples, perfbench or test.  A reference is code,
# never a comment or a string literal, and it names the module:
#   - qualified by the module, `Count.count_bset` (also behind a path,
#     `Isl.Count.count_bset`);
#   - qualified by an alias of the module that the same file makes,
#     `module C = Tenet_model.Concrete` and then `C.analyze`;
#   - bare, `name`, in a file that opens the module (`open Notation`, as
#     lib/maestro/maestro_zoo.ml does, or a local `Aff.( ... )`).
# A val inside `module X : sig ... end` is qualified by `X`.  So another
# module's value of the same name (`Request.of_json` for
# `Metrics.of_json`) is no caller.  Operators such as `val ( + )` are
# not checked.  Prints each offender as `path: name` and exits 1 if
# there is any.  Run from anywhere; it scans the repository it sits in.
set -eu

cd "$(dirname "$0")/.."

stripped=$(mktemp -d)
trap 'rm -rf "$stripped"' EXIT

sources=$(find lib bin bench examples perfbench test \
  \( -name '*.ml' -o -name '*.mli' \) -not -path '*/_build/*' | sort)

# Prints a source without its comments and the contents of its string
# literals, line for line: nested (* *) comments, with the strings and
# character literals inside them; "..." strings; {|...|} and {id|...|id}
# quoted strings; character literals such as '"'.
strip='
BEGIN {
  depth = 0; str = 0; quote = ""; q = "\047"
  esc = "[^0-9xo]|[0-9][0-9][0-9]|x[0-9a-fA-F][0-9a-fA-F]|o[0-7][0-7][0-7]"
  charlit = "^" q "([^\\\\" q "]|\\\\(" esc "))" q
}
{
  line = $0; out = ""; n = length(line); i = 1
  while (i <= n) {
    c = substr(line, i, 1); rest = substr(line, i)
    if (quote != "") {
      if (substr(line, i, length(quote)) == quote) {
        i += length(quote); quote = ""
        if (depth == 0) out = out "\"\""
      } else i++
    } else if (str) {
      if (c == "\\") i += 2
      else {
        if (c == "\"") { str = 0; if (depth == 0) out = out "\"\"" }
        i++
      }
    } else if (c == q && match(rest, charlit)) {
      if (depth == 0) out = out q q
      i += RLENGTH
    } else if (substr(line, i, 2) == "(*") { depth++; i += 2 }
    else if (depth > 0 && substr(line, i, 2) == "*)") { depth--; i += 2 }
    else if (c == "\"") { str = 1; i++ }
    else if (c == "{" && match(rest, /^[{][a-z_]*[|]/)) {
      quote = "|" substr(rest, 2, RLENGTH - 2) "}"; i += RLENGTH
    } else {
      if (depth == 0) out = out c
      i++
    }
  }
  print out
}'
for f in $sources; do
  mkdir -p "$stripped/$(dirname "$f")"
  awk "$strip" "$f" >"$stripped/$f"
done

cd "$stripped"
: >offenders
id="A-Za-z0-9_'"
for mli in lib/*/*.mli; do
  own_ml=${mli%.mli}.ml
  base=$(basename "$mli" .mli)
  module=$(printf '%s' "$base" | cut -c1 | tr '[:lower:]' '[:upper:]')$(
    printf '%s' "$base" | cut -c2-)
  others=$(printf '%s\n' "$sources" | grep -v -x -e "$mli" -e "$own_ml")
  # `Qualifier name` per val: the module, or the submodule whose
  # `module X ... : sig ... end` holds the val (a functor's result is
  # reached through the modules it makes: `module M = Memo.Make (K)`)
  vals=$(awk -v top="$module" '
    /^ *module +[A-Z][A-Za-z0-9_'"'"']*.*: *sig *$/ {
      match($0, /module +[A-Z][A-Za-z0-9_'"'"']*/)
      split(substr($0, RSTART, RLENGTH), w, " +"); stack[++n] = w[2]; next
    }
    /^ *end *$/ { if (n > 0) n--; next }
    /^ *val +[a-z_][A-Za-z0-9_'"'"']*( *:|$)/ {
      match($0, /val +[a-z_][A-Za-z0-9_'"'"']*/)
      split(substr($0, RSTART, RLENGTH), w, " +")
      print (n > 0 ? stack[n] : top) " " w[2]
    }' "$mli")
  qual=""
  printf '%s\n' "$vals" | {
    while read -r q name; do
      [ -n "$name" ] || continue
      if [ "$q" != "$qual" ]; then
        qual=$q
        # shellcheck disable=SC2086  # the file lists hold no spaces
        openers=$(grep -l -E -e \
          "(^|[^$id.])open!? +([A-Z][$id]*\.)*$qual([^$id.]|\$)" -e \
          "(^|[^$id])$qual\.[([]" $others || true)
        # `file:Alias` for each `module Alias = ...Qualifier` a file makes
        # shellcheck disable=SC2086
        aliases=$(grep -o -E \
          "(^|[^$id.])module +[A-Z][$id]* *= *([A-Z][$id]*\.)*$qual([^$id.]|\$)" \
          $others | sed -E "s/^([^:]*):.*module +([A-Z][$id]*) *=.*/\1:\2/" \
          || true)
      fi
      # shellcheck disable=SC2086
      if grep -q -E "(^|[^$id])$qual\.$name([^$id]|\$)" $others; then
        continue
      fi
      aliased=0
      for pair in $aliases; do
        if grep -q -E "(^|[^$id.])${pair#*:}\.$name([^$id]|\$)" \
            "${pair%%:*}"; then
          aliased=1
          break
        fi
      done
      if [ "$aliased" -eq 1 ]; then continue; fi
      # shellcheck disable=SC2086
      if [ -n "$openers" ] && grep -q -w -e "$name" $openers; then continue; fi
      echo "$mli: $name"
    done
  } >>offenders
done
count=$(wc -l <offenders)
if [ "$count" -gt 0 ]; then
  cat offenders
  echo "$count exported values have no caller outside their own module"
  exit 1
fi
echo "exported surface: every val has a caller outside its own module"
