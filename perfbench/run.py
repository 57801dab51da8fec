#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of a checkout.  It builds the benchmark from the
checkout's sources with dune (build chatter goes to stderr), then runs one
workload in one process; the last line of stdout is the JSON result.  It
exits non-zero, without a result, when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["serve_mix", "sim_groundtruth", "dse_mapper"]
BUILD_TIMEOUT_S = 690  # a first run builds: build and run stay within 900 s
RUN_TIMEOUT_S = 170


def clean_env():
    # The library reads TENET_* (e.g. TENET_JOBS) and the runtime reads
    # OCAMLRUNPARAM: the benchmark measures the defaults.  Dune's shared
    # cache would write outside the checkout.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TENET_") and k != "OCAMLRUNPARAM"}
    env["DUNE_CACHE"] = "disabled"
    return env


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("run.py: dune not found")


def run_child(cmd, timeout, stdout):
    """Run cmd and wait for it.  On timeout, stop it with SIGTERM (dune
    then stops its compiler processes), or SIGKILL 10 s later, and wait
    again.  Returns (exit code, stdout), or None on timeout."""
    p = subprocess.Popen(cmd, stdout=stdout, env=clean_env(), text=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        p.terminate()
        try:
            p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
        return None
    return p.returncode, out


def build():
    if not os.path.isfile(os.path.join("perfbench", "dune")):
        sys.exit("run.py: run me from the root of a checkout")
    r = run_child(dune() + ["build", "--root", ".", "./perfbench/bench.exe"],
                  BUILD_TIMEOUT_S, sys.stderr)
    if r is None:
        sys.exit("run.py: build timed out")
    if r[0] != 0 or not os.path.isfile(EXE):
        sys.exit("run.py: build failed")


def bench(args):
    """Run bench.exe to completion; returns (exit code, stdout)."""
    r = run_child([EXE] + args, RUN_TIMEOUT_S, subprocess.PIPE)
    if r is None:
        sys.exit("run.py: benchmark timed out")
    return r


def self_test():
    """The benchmark's own tests: statistics helpers, seeded inputs, and
    exact metrics repeating across processes."""
    import json

    code, out = bench(["--self-test"])
    sys.stdout.write(out)
    failures = 0 if code == 0 else 1

    def fail(msg):
        nonlocal failures
        failures += 1
        print("FAIL " + msg)

    exact_e2e = ["alloc_mb", "model_err_pct"]
    for w in WORKLOADS:
        a = bench(["--inputs", w, "--seed", "7"])[1]
        b = bench(["--inputs", w, "--seed", "7"])[1]
        c = bench(["--inputs", w, "--seed", "8"])[1]
        if not a or a != b:
            fail(f"{w}: seed 7 does not give byte-identical inputs")
        if a == c:
            fail(f"{w}: seeds 7 and 8 give the same inputs")
        for trace in ("0", "1"):
            runs = []
            for _ in range(2):
                code, out = bench(["--workload", w, "--seed", "7", "--seconds", "1",
                                   "--trace", trace])
                res = json.loads(out.strip().splitlines()[-1])
                if code != 0 or not res["correct"]:
                    fail(f"{w} --trace {trace}: run failed")
                runs.append(res["metrics"])
            exact = exact_e2e if trace == "0" else [
                n for n, m in runs[0].items() if m["unit"] in ("count", "MB", "ratio")]
            for n in exact:
                if runs[0][n]["value"] != runs[1][n]["value"]:
                    fail(f"{w}: {n} differs between two runs of one seed: "
                         f"{runs[0][n]['value']} vs {runs[1][n]['value']}")
        print(f"{w}: checked")
    print("self-test: " + ("ok" if failures == 0 else f"{failures} failure(s)"))
    return 0 if failures == 0 else 1


def main(argv):
    build()
    if "--self-test" in argv:
        return self_test()
    code, out = bench(argv)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
