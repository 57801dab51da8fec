#!/bin/sh
# Tier-1 verification: format check (when ocamlformat is available),
# full build, full test suite.  Run from the repository root.
set -eu

cd "$(dirname "$0")/.."

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune fmt =="
  dune build @fmt
else
  echo "== dune fmt == (skipped: ocamlformat not installed)"
fi

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

tmp_root=$(mktemp -d)
trap 'rm -rf "$tmp_root"' EXIT

echo "== model checker sweep (tenet check --all) =="
# Every Table III dataflow on every matching-rank repository
# architecture must check clean; the command exits nonzero on any
# error-severity diagnostic, and --json keeps the output greppable.
dune exec -- tenet check --all --json \
  | grep -q '"failing": 0' || { echo "check sweep failed"; exit 1; }

echo "== capacity sweep (tenet check --all --capacities) =="
# The same sweep with generous resource capacities annotated onto every
# architecture: the zoo must also be resource-feasible (TN014-TN018),
# not just structurally valid.
dune exec -- tenet check --all --capacities --json \
  | grep -q '"failing": 0' || { echo "capacity sweep failed"; exit 1; }

echo "== checker work (tenet check --all --stats) =="
# The sweep's work counters are deterministic.  Each of the 75 checks
# decides TN003 once: the injectivity certificate settles 71 subjects
# without counting, and the Eyeriss and MAERI stamps (4 subjects) are
# counted.  With the per-architecture memo, the whole sweep makes at
# most 286 basic-set queries (5,742 before the memo and the
# certificate).
check_work() {
  awk '
    /"analysis\.checks":/ { checks = $2 + 0 }
    /"analysis\.conflicts_certified":/ { certified = $2 + 0 }
    /"analysis\.conflicts_counted":/ { counted = $2 + 0 }
    /"count\.bset_calls":/ { bset = $2 + 0 }
    END {
      if (checks != 75 || certified != 71 || counted != 4) {
        printf "checker work: %d checks, %d certified, %d counted \
(want 75, 71, 4)\n", checks, certified, counted
        exit 1
      }
      if (bset > 286) {
        printf "checker work: %d basic-set queries (want at most 286)\n", bset
        exit 1
      }
      printf "checker work: %d checks, %d certified, %d counted, %d \
basic-set queries\n", checks, certified, counted, bset
    }' "$1"
}
dune exec -- tenet check --all --json --stats "$tmp_root/check_stats.json" \
  >/dev/null
check_work "$tmp_root/check_stats.json"

echo "== serve protocol golden (tenet batch --jobs 4, 10 runs) =="
# 50+ mixed requests (analyze/volumes/dse/check, duplicates for the
# result cache, one malformed line, one unknown field, one bad
# expression, one 1 ms deadline) must reproduce the committed responses
# byte for byte; see docs/serving.md for the protocol.  Ten runs,
# because a race between pool domains (such as two first uses of a
# process-wide value) shows up only in some of them.
run=1
while [ "$run" -le 10 ]; do
  TENET_SERVE_CACHE_MB=64 dune exec -- tenet batch \
      test/golden/serve_requests.jsonl --jobs 4 \
    | diff - test/golden/serve_responses.golden.jsonl \
    || { echo "serve golden mismatch (run $run of 10)"; exit 1; }
  run=$((run + 1))
done

echo "== serve golden across the worker fleet (tenet batch --workers 3, 5 runs) =="
# The same transcript fanned out over pre-forked worker processes: the
# responses, printed in input order, must reproduce the committed bytes
# exactly.  Five runs, like the --jobs 4 loop: the workers run side by
# side and the front end collects their responses in a different
# interleaving each run, so a fault that depends on it shows up only
# in some of them.
run=1
while [ "$run" -le 5 ]; do
  TENET_SERVE_CACHE_MB=64 dune exec -- tenet batch \
      test/golden/serve_requests.jsonl --workers 3 \
    | diff - test/golden/serve_responses.golden.jsonl \
    || { echo "fleet golden mismatch (run $run of 5)"; exit 1; }
  run=$((run + 1))
done

echo "== serve observability (live scrape, prometheus lint) =="
# A live `tenet serve` session over the golden batch, with the access
# log on: scrape stats before and after the batch, assert the request
# counter is monotonic and the latency histogram has nonzero quantiles,
# then lint the Prometheus exposition (HELP/TYPE coverage, cumulative
# bucket monotonicity, +Inf == _count) from a third scrape.
obs_dir="$tmp_root/obs"
mkdir -p "$obs_dir"
mkfifo "$obs_dir/in"
dune exec -- tenet serve --access-log "$obs_dir/access.jsonl" \
  <"$obs_dir/in" >"$obs_dir/out" &
serve_pid=$!
exec 9>"$obs_dir/in"
printf '{"cmd":"stats","id":"scrape1"}\n' >&9
cat test/golden/serve_requests.jsonl >&9
# Wait until every batch request has been answered (stats is answered
# inline, so scrape1's response is already there: golden count + 1).
want=$(($(wc -l <test/golden/serve_responses.golden.jsonl) + 1))
tries=0
while [ "$(wc -l <"$obs_dir/out")" -lt "$want" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 600 ]; then
    echo "serve session stalled waiting for $want responses"
    kill "$serve_pid" 2>/dev/null || true
    exit 1
  fi
  sleep 0.1
done
printf '{"cmd":"stats","id":"scrape2"}\n' >&9
printf '{"cmd":"stats","id":"scrape3","format":"prometheus"}\n' >&9
exec 9>&-
wait "$serve_pid"

r1=$(grep '"id":"scrape1"' "$obs_dir/out" \
  | sed -n 's/.*"serve\.requests":\([0-9][0-9]*\).*/\1/p')
r2=$(grep '"id":"scrape2"' "$obs_dir/out" \
  | sed -n 's/.*"serve\.requests":\([0-9][0-9]*\).*/\1/p')
[ -n "$r1" ] && [ -n "$r2" ] && [ "$r2" -gt "$r1" ] \
  || { echo "serve.requests not monotonic ('$r1' -> '$r2')"; exit 1; }
echo "serve.requests monotonic: $r1 -> $r2"
grep '"id":"scrape2"' "$obs_dir/out" | grep -q '"window":{' \
  || { echo "second JSON scrape is missing the window section"; exit 1; }
grep '"id":"scrape2"' "$obs_dir/out" | grep -q '"serve\.queue_wait"' \
  || { echo "stats is missing the serve.queue_wait histogram"; exit 1; }
grep '"id":"scrape2"' "$obs_dir/out" | awk '{
  if (!match($0, /"serve\.request_latency":\{[^}]*/)) {
    print "stats is missing the serve.request_latency histogram"; exit 1 }
  s = substr($0, RSTART, RLENGTH)
  p50 = 0; p99 = 0
  if (match(s, /"p50":[0-9.eE+-]+/)) p50 = substr(s, RSTART + 6, RLENGTH - 6) + 0
  if (match(s, /"p99":[0-9.eE+-]+/)) p99 = substr(s, RSTART + 6, RLENGTH - 6) + 0
  if (p50 > 0 && p99 >= p50) {
    printf "latency quantiles: p50 %gs p99 %gs\n", p50, p99; exit 0 }
  printf "latency quantiles not positive (p50 %g p99 %g)\n", p50, p99
  exit 1
}'

grep '"id":"scrape3"' "$obs_dir/out" | awk '{
  if (!match($0, /"exposition":"/)) exit 1
  s = substr($0, RSTART + RLENGTH)
  sub(/"[^"]*$/, "", s)
  gsub(/\\n/, "\n", s)
  gsub(/\\"/, "\"", s)
  gsub(/\\\\/, "\\", s)
  print s
}' >"$obs_dir/exposition.txt"
[ -s "$obs_dir/exposition.txt" ] \
  || { echo "no prometheus exposition in scrape3"; exit 1; }
awk -v floor="$r2" '
  /^# HELP / { help[$3] = 1; next }
  /^# TYPE / { type[$3] = $4; next }
  /^$/ || /^#/ { next }
  {
    name = $1; sub(/\{.*/, "", name)
    fam = name
    if (fam ~ /_(bucket|sum|count)$/) {
      base = fam; sub(/_(bucket|sum|count)$/, "", base)
      if (type[base] == "histogram") fam = base
    }
    if (!(fam in help) || !(fam in type)) {
      printf "missing HELP/TYPE for %s\n", fam; bad = 1 }
    if (type[fam] == "histogram") {
      if (name == fam "_bucket") {
        v = $2 + 0
        if (fam in last_bucket && v < last_bucket[fam]) {
          printf "non-monotonic buckets for %s\n", fam; bad = 1 }
        last_bucket[fam] = v
        if ($0 ~ /le="\+Inf"/) inf[fam] = v
      }
      if (name == fam "_count" && (!(fam in inf) || inf[fam] != $2 + 0)) {
        printf "+Inf bucket != _count for %s\n", fam; bad = 1 }
    }
    if (name == "serve_request_latency_count" && $2 + 0 > 0) latency_ok = 1
    if (name == "serve_requests_total" && $2 + 0 >= floor) counter_ok = 1
    samples++
  }
  END {
    if (samples == 0) { print "empty exposition"; exit 1 }
    if (!latency_ok) {
      print "serve_request_latency histogram missing or empty"; exit 1 }
    if (!counter_ok) {
      printf "serve_requests_total below the JSON scrape (%d)\n", floor
      exit 1 }
    if (bad) exit 1
    printf "prometheus lint OK (%d samples)\n", samples
  }' "$obs_dir/exposition.txt"
[ "$(wc -l <"$obs_dir/access.jsonl")" -ge 50 ] \
  || { echo "access log is unexpectedly short"; exit 1; }
grep -q '"queue_wait_ms"' "$obs_dir/access.jsonl" \
  || { echo "access log has no queue_wait_ms field"; exit 1; }
echo "access log OK ($(wc -l <"$obs_dir/access.jsonl") lines)"

echo "== persistent cache: cold restart replays the golden batch =="
# First run populates the on-disk tier; a fresh process with cold memory
# must replay the batch byte-identically from it, mostly as cache hits.
cache_dir="$tmp_root/cache"
TENET_SERVE_CACHE_MB=64 dune exec -- tenet batch \
    test/golden/serve_requests.jsonl --jobs 4 --cache-dir "$cache_dir" \
  | diff - test/golden/serve_responses.golden.jsonl \
  || { echo "cache-dir warm-up run mismatched"; exit 1; }
[ -s "$cache_dir/results-v1.jsonl" ] \
  || { echo "no persistent cache written"; exit 1; }
TENET_SERVE_CACHE_MB=64 dune exec -- tenet batch \
    test/golden/serve_requests.jsonl --jobs 4 --cache-dir "$cache_dir" \
    --stats "$tmp_root/warm_stats.json" \
  | diff - test/golden/serve_responses.golden.jsonl \
  || { echo "cold restart with warm disk cache mismatched"; exit 1; }
hits=$(sed -n 's/.*"serve\.cache_hits": *\([0-9][0-9]*\).*/\1/p' \
  "$tmp_root/warm_stats.json")
[ -n "$hits" ] && [ "$hits" -ge 40 ] \
  || { echo "warm restart served only '${hits:-0}' cache hits (want >= 40)"
       exit 1; }
echo "cold restart byte-identical ($hits cache hits from \
$(($(wc -l <"$cache_dir/results-v1.jsonl") - 1)) persisted entries)"

echo "== admission control smoke (graduated shedding under overload) =="
# A burst far past the queue bound, mixed low/normal priority, against a
# single-domain pool with a tiny queue: some requests must shed, and the
# shed-tier counters must agree exactly with the overloaded responses
# the client saw (every shed is a response, every overload is counted).
shed_dir="$tmp_root/shed"
mkdir -p "$shed_dir"
mkfifo "$shed_dir/in"
TENET_JOBS=1 dune exec -- tenet serve --queue 2 --shed-low 1 \
  <"$shed_dir/in" >"$shed_dir/out" &
shed_pid=$!
exec 8>"$shed_dir/in"
i=0
while [ "$i" -lt 24 ]; do
  if [ $((i % 2)) -eq 0 ]; then prio=low; else prio=normal; fi
  printf '{"cmd":"analyze","id":"ov%d","sizes":[%d,24,24],"priority":"%s"}\n' \
    "$i" $((24 + i)) "$prio"
  i=$((i + 1))
done >&8
tries=0
while [ "$(wc -l <"$shed_dir/out")" -lt 24 ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 600 ]; then
    echo "overload burst stalled"
    kill "$shed_pid" 2>/dev/null || true
    exit 1
  fi
  sleep 0.1
done
printf '{"cmd":"stats","id":"shed-scrape"}\n' >&8
exec 8>&-
wait "$shed_pid"
tiers=$(grep '"id":"shed-scrape"' "$shed_dir/out" | sed -n \
  's/.*"shed":{"hard":\([0-9]*\),"normal":\([0-9]*\),"low":\([0-9]*\),"expired":\([0-9]*\)}.*/\1 \2 \3 \4/p')
[ -n "$tiers" ] || { echo "stats has no shed section"; exit 1; }
set -- $tiers
shed_total=$(($1 + $2 + $3 + $4))
overloaded=$(grep -v shed-scrape "$shed_dir/out" \
  | grep -c '"kind":"overloaded"' || true)
[ "$shed_total" -ge 1 ] || { echo "overload burst shed nothing"; exit 1; }
[ "$overloaded" -eq "$shed_total" ] \
  || { echo "shed counters ($shed_total) disagree with overloaded \
responses ($overloaded)"; exit 1; }
echo "graduated shedding consistent: $overloaded overloaded responses \
(hard $1, normal $2, low $3, expired $4)"

echo "== counting sanitizer shard (TENET_COUNT_VERIFY=1) =="
# One oracle-test shard re-runs with every symbolic count cross-checked
# against enumeration; any disagreement raises Count.Verify_mismatch.
TENET_COUNT_VERIFY=1 dune exec test/test_count_oracle.exe >/dev/null

echo "== capacity sanitizer shard (TENET_CHECK_VERIFY=1) =="
# The capacity checker's peak enumeration is cross-checked against the
# cycle-level simulator's observed peaks on the full zoo sweep; the two
# implement the same attribution from independent code paths.
TENET_CHECK_VERIFY=1 dune exec test/test_check_verify.exe >/dev/null

echo "== engine CLI contract (tenet analyze/simulate on invalid dataflows) =="
# A dataflow whose space stamp has the wrong rank for the PE array, that
# leaves the array, or that puts two instances on one PE in one stamp
# must fail up front with the analyze path's "invalid dataflow:" text:
# never an index error, and never a result from aliased PEs.  So must a
# time-stamp or tensor-element code space or an instance count past the
# int range, in both engines: such codes and counts used to wrap into a
# wrong answer or a crash.
engine_rejects() {
  cmd=$1
  shift
  if dune exec -- tenet "$cmd" "$@" \
      >"$tmp_root/engine.out" 2>"$tmp_root/engine.err"; then
    echo "tenet $cmd $* accepted an invalid dataflow"
    exit 1
  fi
  if grep -q -e 'index out of bounds' -e 'Array.make' "$tmp_root/engine.err" \
      || ! grep -q 'invalid dataflow:' "$tmp_root/engine.err"; then
    cat "$tmp_root/engine.err"
    echo "tenet $cmd $*: expected an invalid dataflow error"
    exit 1
  fi
  echo "rejected: $(cat "$tmp_root/engine.err")"
}
engine_rejects simulate --space 'i%8' --time 'i/8,j,k'
engine_rejects simulate --sizes 16,8,8 --space 'i%16,j%8' --time 'i/16,j/8,k'
engine_rejects simulate --arch systolic-64x1 --space 'i%8,j%8' --time 'i/8,j/8,k'
engine_rejects simulate --sizes 8,8,8 --space 'i%8,j%8' --time 'j'
engine_rejects simulate --sizes 1073741824,1073741824,8 --space 'i%8,j%8' \
  --time 'i/8,j/8,k'
engine_rejects analyze --kernel conv --sizes 8192,8192,8192,8192,128,128 \
  --space 'k%8,c%8' --time 'k/8,c/8,ox,oy,rx,ry'
wide_time="2147483648*k,2147483648*i,2147483648*j"
cat >"$tmp_root/wide_element.c" <<'EOF_C'
for (i = 0; i < 4; i++)
  for (j = 0; j < 4; j++)
    for (k = 0; k < 4; k++)
      Y[2147483648*i + j][2147483648*j + i] += A[i][k] * B[k][j];
EOF_C
for cmd in analyze simulate; do
  engine_rejects "$cmd" --sizes 4,4,4 --space 'i,j' --time "$wide_time"
  engine_rejects "$cmd" --c-file "$tmp_root/wide_element.c" --space 'i,j' \
    --time 'k'
done

echo "== benchmark digests (perfbench/run.py, seed 1) =="
# The committed seed-1 digests pin the output bytes of every benchmark
# op, so a changed byte fails here before it fails the benchmark.
if command -v python3 >/dev/null 2>&1; then
  for w in serve_mix sim_groundtruth dse_mapper; do
    out="$tmp_root/perfbench_$w"
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 \
        --trace 0 >"$out.out" 2>"$out.err" \
      || { cat "$out.err"; echo "perfbench $w failed"; exit 1; }
    tail -n 1 "$out.out" | grep -q '"correct":true' \
      || { echo "perfbench $w: seed-1 digest mismatch"; exit 1; }
    echo "$w: digests correct"
  done
else
  echo "(skipped: python3 not installed)"
fi

echo "== release build =="
dune build --profile release

echo "== bench smoke (serve_mp+fig6+fig8+dse+serve+table3, release, vs BENCH_seed.json) =="
bench_dir="$tmp_root/bench"
mkdir -p "$bench_dir"
# serve_mp must come first on the command line: it forks server
# processes, and the OCaml runtime cannot fork once any later section
# has spawned pool domains.
TENET_BENCH_TIMINGS="$bench_dir" \
  dune exec --profile release bench/main.exe -- \
    serve_mp fig6 fig8 dse serve table3 \
  >/dev/null
# Points-only: the enumerated-point counters are deterministic, so this
# cannot flake on a loaded runner the way wall-clock comparison would.
# The dse ceiling is the mapper's speedup guarantee: the pruned search
# must stay at least ~3x under the exhaustive seed measurement.  Its
# actual margin is >10x, so the gate has ample headroom.  The table3
# ceiling encodes the parametric path: the section (validity tables
# plus a template compile + O(1) re-instantiation) must stay at least
# 10x under the seed's analyze-everything measurement.
scripts/bench_compare.sh --points-only --sections fig6,fig8,dse,table3 \
  --ceiling dse=0.35 --ceiling table3=0.1 \
  "$bench_dir/summary.json" BENCH_seed.json

echo "== parametric template re-instantiation (table3, zero points) =="
# The table3 section compiles the GEMM workload into a metric template
# and re-instantiates it at a size never analyzed before; the second
# size must be answered by pure substitution — zero enumerated points.
awk '
  /"section": *"table3"/ { in_t3 = 1 }
  in_t3 && /"table3_reinstantiation_points"/ { found = 1; pts = $2 + 0 }
  END {
    if (!found) { print "table3_reinstantiation_points missing"; exit 1 }
    if (pts != 0) {
      printf "template re-instantiation enumerated %d points (want 0)\n", pts
      exit 1
    }
    print "table3 re-instantiation: 0 points enumerated (pure substitution)"
  }' "$bench_dir/summary.json"

echo "== dse size-sweep template reuse =="
# The dse section re-scores the top candidates at two more problem
# sizes through per-candidate metric templates; at least one
# candidate-size score must come from template instantiation.
awk '
  /"section": *"dse"/ { in_dse = 1 }
  in_dse && /"dse_template_reuse"/ { found = 1; reuse = $2 + 0 }
  END {
    if (!found) { print "dse_template_reuse missing"; exit 1 }
    if (reuse < 1) { print "dse size sweep reused no templates"; exit 1 }
    printf "dse size sweep: %d scores via template instantiation\n", reuse
  }' "$bench_dir/summary.json"

echo "== dse mapper pruning (deterministic, from summary extras) =="
# The pruned search's work accounting is deterministic: candidate
# generation is fixed, so the evaluated/generated ratio and the tier
# partition must hold exactly on any machine.  On both capacity reruns
# the capacity tier settles each candidate that passed the precheck
# exactly once (bounded, counted or resisted), and on the generous one
# its count-free bounds settle every candidate.
awk '
  /"section": *"dse"/ { in_dse = 1 }
  in_dse && /"dse_generated"/   { gen  = $2 + 0 }
  in_dse && /"dse_evaluated"/   { eval = $2 + 0 }
  in_dse && /"dse_pruned_precheck"/  { pc  = $2 + 0 }
  in_dse && /"dse_pruned_symmetry"/  { sym = $2 + 0 }
  in_dse && /"dse_pruned_capacity"/  { cap = $2 + 0 }
  in_dse && /"dse_pruned_dominated"/ { dom = $2 + 0 }
  in_dse && /"dse_cap_generated"/        { cgen  = $2 + 0 }
  in_dse && /"dse_cap_pruned_capacity"/  { ccap  = $2 + 0 }
  in_dse && /"dse_cap_evaluated"/        { ceval = $2 + 0 }
  in_dse && /"dse_(cap|gen)_(generated|pruned_precheck|feasible_[a-z]*)"/ {
    key = $1; gsub(/[":]/, "", key); v[key] = $2 + 0; seen[key] = 1
  }
  END {
    n_keys = 0
    for (k in seen) n_keys++
    if (n_keys != 10) {
      printf "dse capacity-run verdict extras missing (%d of 10)\n", n_keys
      exit 1
    }
    split("cap gen", runs, " ")
    for (i = 1; i <= 2; i++) {
      r = "dse_" runs[i] "_"
      tested = v[r "generated"] - v[r "pruned_precheck"]
      settled = v[r "feasible_bounded"] + v[r "feasible_counted"] \
        + v[r "feasible_resisted"]
      if (settled != tested) {
        printf "%s: capacity tier settled %d of %d candidates\n", \
          runs[i], settled, tested
        exit 1
      }
    }
    if (v["dse_gen_feasible_counted"] + v["dse_gen_feasible_resisted"] != 0) {
      printf "generous run counted %d and resisted %d (want 0 and 0)\n", \
        v["dse_gen_feasible_counted"], v["dse_gen_feasible_resisted"]
      exit 1
    }
    if (gen == 0) { print "dse summary extras missing"; exit 1 }
    if (pc + sym + cap + dom + eval != gen) {
      printf "dse prune partition broken: %d+%d+%d+%d+%d != %d\n", \
        pc, sym, cap, dom, eval, gen
      exit 1
    }
    if (eval * 4 > gen) {
      printf "dse evaluated %d of %d candidates (> 25%%)\n", eval, gen
      exit 1
    }
    if (cgen == 0) { print "dse capacity-run extras missing"; exit 1 }
    if (ccap < 1) {
      print "capacity tier pruned nothing on the tight-scratchpad run"
      exit 1
    }
    if (ccap + ceval > cgen) {
      printf "dse capacity run overcounts: %d+%d > %d\n", ccap, ceval, cgen
      exit 1
    }
    printf "dse mapper: %d/%d evaluated (precheck %d, symmetry %d, \
capacity %d, dominated %d); capacity run: %d/%d pruned; tier verdicts \
(bounded/counted/resisted) %d/%d/%d tight, %d/%d/%d generous\n", \
      eval, gen, pc, sym, cap, dom, ccap, cgen, \
      v["dse_cap_feasible_bounded"], v["dse_cap_feasible_counted"], \
      v["dse_cap_feasible_resisted"], v["dse_gen_feasible_bounded"], \
      v["dse_gen_feasible_counted"], v["dse_gen_feasible_resisted"]
  }' "$bench_dir/summary.json"

echo "== serve cache speedup (warm vs cold batch) =="
# The serve section replays a duplicate-heavy batch cold and warm; the
# warm pass must be at least 3x faster through the result cache.  The
# margin is enormous in practice (warm requests are pure cache lookups),
# so the 3x floor does not flake on a loaded runner.
awk -F': *' '/"serve_speedup"/ { s = $2 + 0 }
  END { if (s >= 3) { printf "serve speedup %.1fx (>= 3x)\n", s; exit 0 }
        printf "serve speedup %.1fx is below the 3x floor\n", s; exit 1 }' \
  "$bench_dir/summary.json"

echo "== scale-out serving throughput (serve_mp load generator) =="
# The serve_mp section drove the real socket server with a synthetic
# load generator, single-process then pre-forked fleet.  The extras
# must be present and sane everywhere; the >= 2x multi-worker speedup
# is gated only on machines with >= 4 cores (a fleet cannot beat one
# process on a single-core container).
awk -F': *' '
  /"serve_mp_cores"/ { cores = $2 + 0; seen++ }
  /"serve_mp_workers"/ { workers = $2 + 0; seen++ }
  /"serve_mp_throughput_rps"/ { rps = $2 + 0; seen++ }
  /"serve_mp_p99_ms"/ { p99 = $2 + 0; seen++ }
  /"serve_mp_speedup"/ { sp = $2 + 0; seen++ }
  END {
    if (seen < 5) { print "serve_mp extras missing from summary"; exit 1 }
    if (rps <= 0 || p99 <= 0) {
      printf "serve_mp degenerate: %.0f req/s, p99 %.3f ms\n", rps, p99
      exit 1
    }
    if (cores >= 4 && sp < 2) {
      printf "serve_mp speedup %.2fx with %d workers on %d cores \
(want >= 2x)\n", sp, workers, cores
      exit 1
    }
    printf "serve_mp: %.0f req/s, p99 %.1f ms, %.2fx with %d workers \
on %d cores%s\n", rps, p99, sp, workers, cores, \
      (cores >= 4 ? "" : " (speedup gate skipped: < 4 cores)")
  }' "$bench_dir/summary.json"

echo "CI OK"
