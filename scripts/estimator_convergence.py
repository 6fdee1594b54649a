#!/usr/bin/env python3
"""Convergence of the tail-ratio eigenvalue estimator on a non-Ramanujan
prism.

Prints, for each adjacent pair of negative even h_k, the running estimate of
q^(-1/2) * max|lam| against the closed-form value 2cos(2pi/m) + 1, for a
ring of m vertices, scaled by 1/sqrt(2); the error decays geometrically in
k.  The h_k are the spectral route of report.analyze, so every
cross-check runs too, and each estimate is analysis.estimate_max_eigenvalue
on the h_k up to the pair's second entry.

Usage: python scripts/estimator_convergence.py [--ring 24] [--k 100]
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

# the checkout's own sources come first, so the script runs without PYTHONPATH
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from iharazeta.analysis import estimate_max_eigenvalue  # noqa: E402
from iharazeta.graphs import generate  # noqa: E402
from iharazeta.report import analyze  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ring", type=int, default=24)
    parser.add_argument("--k", type=int, default=100)
    args = parser.parse_args()

    report = analyze(generate("prism", [args.ring]), f"prism:{args.ring}",
                     args.k, include_timings=False)
    n, q = report["graph"]["n"], report["graph"]["q"]
    seq = np.asarray(report["h"]["spectral"])

    target = (2 * math.cos(2 * math.pi / args.ring) + 1) / math.sqrt(q)
    print(f"prism({args.ring}): n={n}, target q^-1/2 max|lam| = {target:.10f}")
    print(f"{'k':>4} {'h_k':>16} {'estimate':>14} {'error':>12}")
    for k in range(2, args.k - 1, 2):
        a, b = seq[k - 1], seq[k + 1]
        if a < 0 and b < 0:
            # the deepest pair of the prefix h_1..h_(k+2) is (h_k, h_(k+2))
            est = estimate_max_eigenvalue(seq[:k + 2], q)["estimate"]
            print(f"{k:>4} {a:>16.6g} {est:>14.10f} {abs(est - target):>12.3e}")


if __name__ == "__main__":
    main()
