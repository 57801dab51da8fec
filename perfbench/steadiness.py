#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steadiness.py [--out FILE]

Runs every workload of BENCHMARK.json once on each of the seeds 1-10
through run.py (untraced, at the file's run_seconds) and reports, for
every end-to-end metric, the median and quartiles of the per-seed
values and the quartile spread as a share of the median -- the figure
the benchmark's bounds in BENCHMARK.json are set against.  It also
keeps each workload's measured input shares and percentile evidence.
With --out the record is written as JSON; run it from the root of a
checkout.
"""

import json
import os
import statistics
import subprocess
import sys


def main(argv):
    opts = dict(zip(argv[::2], argv[1::2]))
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(1, 11))
    seconds = str(bench["run_seconds"])
    record = {}
    worst = (0.0, None)
    for w in (w["name"] for w in bench["workloads"]):
        values, info, rounds = {}, None, []
        for seed in seeds:
            out = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
            res = json.loads(out[-1])
            if not res["correct"]:
                sys.exit(f"{w} seed {seed}: {res['failed']} of {res['attempted']} ops failed")
            info = info or json.loads(next(l for l in out if l.startswith("info: "))[6:])
            rounds.append([l for l in out if l.startswith("round ")])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": vs}
            worst = max(worst, (spread / bounds[name], f"{w} {name}"))
            print(f"{w:16s} {name:14s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {100 * spread:6.2f}%  bound {100 * bounds[name]:5.1f}%")
        record[w] = {"seeds": seeds, "metrics": rows, "info": info, "rounds": rounds}
    print(f"largest spread / bound: {worst[0]:.3f} ({worst[1]})")
    if "--out" in opts:
        with open(opts["--out"], "w") as f:
            json.dump({"run_seconds": int(seconds), "workloads": record}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
