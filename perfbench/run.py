#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload triage --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --self-test

Builds `sulong` and the `perfbench` executable with dune, runs it,
and checks its result against BENCHMARK.json: with `--trace 0` the
metrics must be exactly the end-to-end ones, with `--trace 1` exactly the
per-layer ones.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics` (value and unit per
metric).  Exits non-zero, printing no result, if the build, the run or
the check fails.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join("_build", "default")
PERFBENCH = os.path.join(BUILD, "perfbench", "perfbench.exe")
SULONG = os.path.join(BUILD, "bin", "sulong.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet",
           "perfbench/perfbench.exe", "bin/sulong.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed")


def run_perfbench(args):
    cmd = [PERFBENCH, "--sulong", SULONG] + args
    # Own process group, so a timeout stops its children too.
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("perfbench timed out")
    lines = out.decode().splitlines()
    if p.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("perfbench exited with %d" % p.returncode)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def check(result, declared):
    """Attach units; the metric names must be exactly the declared ones."""
    got = result["metrics"]
    names = [m["name"] for m in declared]
    if sorted(got) != sorted(names):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(names) - set(got)), sorted(set(got) - set(names))))
    metrics = {}
    for m in declared:
        v = got[m["name"]]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail("metric %s is not a finite number: %r" % (m["name"], v))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        fail("nothing attempted")
    return {"correct": bool(result["correct"]),
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def table(out):
    for name, m in out["metrics"].items():
        print("  %-38s %16.6f %s" % (name, m["value"], m["unit"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    os.chdir(ROOT)
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if a.seconds is None:
        a.seconds = bench["run_seconds"]
    build()
    if a.self_test:
        r = subprocess.run([PERFBENCH, "--sulong", SULONG, "--self-test"],
                           cwd=ROOT, timeout=RUN_TIMEOUT_S)
        sys.exit(r.returncode)
    declared = bench["per_layer"] if a.trace else bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    chosen = workloads if a.workload == "all" else [a.workload]
    if not set(chosen) <= set(workloads):
        fail("unknown workload %r" % a.workload)
    outs = {}
    for w in chosen:
        print("%s (seed %d, %d s, trace %d)" % (w, a.seed, a.seconds, a.trace))
        outs[w] = check(run_perfbench(["--workload", w, "--seed", str(a.seed),
                                    "--seconds", str(a.seconds),
                                    "--trace", str(a.trace)]), declared)
        table(outs[w])
    if len(chosen) == 1:
        out = outs[chosen[0]]
    else:
        out = {"correct": all(o["correct"] for o in outs.values()),
               "attempted": sum(o["attempted"] for o in outs.values()),
               "failed": sum(o["failed"] for o in outs.values()),
               "metrics": {w + "." + k: m for w, o in outs.items()
                           for k, m in o["metrics"].items()}}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
