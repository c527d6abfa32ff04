"""colorplex benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in a fresh worker
process; the last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or with
``--trace 1`` the per-layer ones.  Without ``--workload`` every workload runs
in turn and the last line sums them.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import timing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
WORKLOADS = ("cli_small", "homology_ladder", "forced_coloring", "circle_gamma_gem")
# set-up is timed this many times per run (fresh processes) and the median kept
SETUPS = 5
TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def start_worker(name, seed, seconds, trace, setup_only):
    """Start one worker; returns (scaled set-up seconds, its other output)."""
    cmd = [sys.executable, WORKER, name, str(seed), str(seconds), "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    factor = timing.reference()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {name} exited with {proc.returncode}")
    return (ready - start) * factor, rest


def run_workload(name, seed, seconds, trace) -> dict:
    setups = []
    for i in range(1 if trace else SETUPS):
        seconds_s, output = start_worker(name, seed, seconds, trace,
                                         setup_only=i < SETUPS - 1 and not trace)
        setups.append(seconds_s)
    lines = output.splitlines()
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "colorplex", "__init__.py")):
        print("run from the root of a colorplex checkout (src/colorplex is missing)",
              file=sys.stderr)
        return 2
    try:
        if args.workload:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for name in WORKLOADS:
                one = run_workload(name, args.seed, args.seconds, args.trace)
                print(name, json.dumps(one), flush=True)
                result["correct"] &= one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                for metric, value in one["metrics"].items():
                    result["metrics"][f"{name}/{metric}"] = value
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
