#!/usr/bin/env python3
"""Scan the prism family for the first negative even h_k.

A prism (circular ladder) on an even ring of m vertices is 3-regular and
bipartite; its largest nontrivial eigenvalue 2cos(2pi/m) + 1 crosses the
2*sqrt(2) threshold as the ring grows, so the family walks from Ramanujan to
non-Ramanujan and the sign scan shows exactly where the coefficient
criterion notices.  Each row reads report.analyze, so every cross-check
runs too; each sign is decided exactly from the census (ramanujan_hk).

Usage: python scripts/hk_sign_scan.py [--max-ring 30] [--k 80]
"""

import argparse
import math
import sys
from pathlib import Path

# the checkout's own sources come first, so the script runs without PYTHONPATH
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from iharazeta.graphs import generate  # noqa: E402
from iharazeta.report import analyze  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-ring", type=int, default=30)
    parser.add_argument("--k", type=int, default=80)
    args = parser.parse_args()

    print(f"{'ring':>5} {'n':>4} {'max|lam*|':>10} {'2sqrt(q)':>9} "
          f"{'ramanujan':>10} {'first h_k<0':>12}")
    for m in range(3, args.max_ring + 1):
        report = analyze(generate("prism", [m]), f"prism:{m}", args.k,
                         include_timings=False)
        graph, verdicts = report["graph"], report["verdicts"]
        spectral = verdicts["spectral"]
        print(f"{m:>5} {graph['n']:>4} {spectral['max_nontrivial_abs']:>10.6f} "
              f"{2 * math.sqrt(graph['q']):>9.6f} {str(spectral['is_ramanujan']):>10} "
              f"{str(verdicts['hk']['witness']):>12}")


if __name__ == "__main__":
    main()
