#!/usr/bin/env python3
"""Run `ihara check` over a fixed 24-graph ladder, or over the graphs
given, and tabulate the outcomes.

The ladder spans seven generator families, from petersen to n = 200; a
graph given is a generator string or an edge-list file, so a multigraph
can be tabulated too.  For each horizon and graph the table gives the exit
code (0 Ramanujan, 1 refuted, 2 bad input, 3 internal fault), the spectral
verdict (whether every nontrivial |lam| <= 2 sqrt(q)), the h_k verdict's
witness (the first k with h_k < 0, or None), k_pinned (the leading orders
where the h_k budget pins the census N_k), max_residual (the largest
deviation of a float h_k route from the census's, as a fraction of that
budget), the check's wall time in seconds and the first line the command
wrote to stderr, past the cost note of a costly census (cli.COSTLY_WORK).
The verdicts, k_pinned and max_residual read "-" when the check wrote no
report.  Each check runs in this process through iharazeta.cli.main.

Usage: python scripts/check_ladder.py [graph ...] [--k 50 150 200]
"""

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

# the checkout's own sources come first, so the script runs without PYTHONPATH
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from iharazeta.cli import main as ihara  # noqa: E402

LADDER = (
    "petersen", "cycle:7",
    "complete:6", "complete:10", "complete:16", "complete:30", "complete:60",
    "kmm:6", "kmm:10", "kmm:30",
    "hypercube:4", "hypercube:5", "hypercube:6", "hypercube:7",
    "prism:16", "prism:20", "prism:24", "prism:50", "prism:100",
    "circulant:12:1,3", "circulant:20:1,3,5", "circulant:30:1,4",
    "circulant:101:1,7,19", "circulant:200:1,5,17",
)


def check(spec: str, k: int) -> tuple[int, str, str, str, str, str]:
    """Exit code, spectral verdict, h_k witness, k_pinned, max_residual and
    first stderr line (other than the cost note) of `ihara check spec --k k
    --no-timings`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ihara(["check", spec, "--k", str(k), "--no-timings"])
    spectral = witness = pinned = residual = "-"
    if out.getvalue():
        payload = json.loads(out.getvalue())
        spectral = str(payload["verdicts"]["spectral"]["is_ramanujan"])
        witness = str(payload["verdicts"]["hk"]["witness"])
        pinned = str(payload["zeta_census_check"]["k_pinned"])
        residual = f"{payload['zeta_census_check']['max_residual']:.1e}"
    lines = [line for line in err.getvalue().splitlines()
             if not line.startswith("note: ")]
    return code, spectral, witness, pinned, residual, lines[0] if lines else ""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, nargs="+", default=[50, 150, 200])
    parser.add_argument("graphs", nargs="*", default=LADDER,
                        help="generator strings or edge-list files")
    args = parser.parse_args()

    print(f"{'K':>4} {'graph':<22} {'exit':>4} {'spectral':>8} {'witness':>7} "
          f"{'k_pinned':>8} {'max_residual':>12} {'wall_s':>7}  stderr")
    for k in args.k:
        for spec in args.graphs:
            t0 = time.perf_counter()
            code, spectral, witness, pinned, residual, line = check(spec, k)
            wall = time.perf_counter() - t0
            print(f"{k:>4} {spec:<22} {code:>4} {spectral:>8} {witness:>7} "
                  f"{pinned:>8} {residual:>12} {wall:>7.3f}  {line}")


if __name__ == "__main__":
    main()
