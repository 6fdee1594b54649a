"""Benchmark of the iharazeta command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-k50 --seed 1 --seconds 25 --trace 0

Each workload runs in fresh single-threaded worker processes (worker.py).
With --trace 0, three workers set up (import plus warm-up pass); the first two
stop there and the third measures for --seconds; the result holds the
end-to-end metrics.  With --trace 1 one worker alternates untraced and traced
passes and the result holds the per-layer metrics.  The last stdout line is
one JSON object: correct, attempted, failed, metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUPS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # the functional-equation sample points stay at the program's default seed
    env.pop("IHARA_SEED", None)
    return env


def run_worker(args, seconds: float, deadline: float) -> dict:
    kernel_before = speed.kernel_median()
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace),
           "--spawned-at", repr(spawned_at), "--kernel-before", repr(kernel_before),
           "--out-dir", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchmarkError(f"worker did not finish by the deadline: {exc}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42,
                        help="shuffles the order of the workload's graphs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "iharazeta" / "cli.py").is_file():
        print(f"error: no iharazeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the metrics printed are exactly those BENCHMARK.json declares
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            workers = [run_worker(args, args.seconds, deadline)]
        else:
            workers = [run_worker(args, 0.0, deadline) for _ in range(SETUPS - 1)]
            workers.append(run_worker(args, args.seconds, deadline))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    measured = workers[-1]
    if "pass_s" not in measured:
        print("error: no timed pass completed", file=sys.stderr)
        return 1
    if args.trace:
        values = measured["per_layer"]
    else:
        values = dict(measured, setup_s=statistics.median(w["setup_s"] for w in workers))
        print("raw wall times: pass {pass_raw_s:.4f} s, largest {largest_raw_s:.4f} s, "
              "setup {:.4f} s".format(statistics.median(w["setup_raw_s"] for w in workers),
                                      **measured), file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    problems = [p for w in workers for p in w["problems"]]
    failures = [f for w in workers for f in w["failures"]]
    for line in problems + failures:
        print(line, file=sys.stderr)
    print(json.dumps({"correct": not problems,
                      "attempted": sum(w["attempted"] for w in workers),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
