"""Dense symmetric eigenvalues and nontrivial-spectrum extraction.

Eigenvalues come from LAPACK through numpy.linalg.eigvalsh.  Inputs are
small integer adjacency matrices, and the full multiset of eigenvalues (no
clustering, no multiplicity inference) is what downstream formulas consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import GraphProfile

TRIVIAL_MATCH_TOL = 1e-6


class NonSymmetricError(ValueError):
    pass


class TrivialEigenvalueMissing(ValueError):
    """The expected eigenvalue q+1 (or -(q+1) for bipartite graphs) is not
    present: the input was not a connected regular graph."""


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues of a symmetric matrix, sorted descending, with
    multiplicity."""

    values: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.array(self.values)


@dataclass(frozen=True)
class NontrivialSpectrum:
    """Eigenvalue multiset with the trivial eigenvalues removed.

    Size is n-1 for a nonbipartite graph (q+1 removed) and n-2 for a
    bipartite one (both q+1 and -(q+1) removed).
    """

    values: tuple[float, ...]
    q: int

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.array(self.values)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values else 0.0


def eigenvalues_symmetric(m: np.ndarray) -> Spectrum:
    """All eigenvalues of a symmetric matrix, by LAPACK (eigvalsh).

    Symmetry is required exactly (inputs are integer matrices).
    """
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSymmetricError(f"expected a square matrix, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise NonSymmetricError("matrix is not symmetric")
    vals = np.linalg.eigvalsh(a.astype(np.float64))[::-1]
    return Spectrum(tuple(float(v) for v in vals))


def nontrivial_spectrum(s: Spectrum, p: GraphProfile,
                        match_tol: float = TRIVIAL_MATCH_TOL) -> NontrivialSpectrum:
    """Remove the trivial eigenvalues from a full spectrum.

    Removes exactly one occurrence nearest q+1 and, for bipartite graphs,
    one nearest -(q+1).  A nearest candidate deviating by more than
    match_tol * (q+1) signals a non-connected or non-regular input that
    slipped through validation.
    """
    targets = [p.q + 1.0]
    if p.bipartite:
        targets.append(-(p.q + 1.0))
    remaining = list(s.values)
    for t in targets:
        idx = min(range(len(remaining)), key=lambda i: abs(remaining[i] - t))
        if abs(remaining[idx] - t) > match_tol * (p.q + 1.0):
            raise TrivialEigenvalueMissing(
                f"no eigenvalue within {match_tol:.1e}*(q+1) of {t:g}; "
                f"nearest is {remaining[idx]:.12g}")
        remaining.pop(idx)
    return NontrivialSpectrum(values=tuple(remaining), q=p.q)


def scaled_spectrum(ns: NontrivialSpectrum) -> np.ndarray:
    """The nontrivial eigenvalues divided by sqrt(q), order preserved."""
    return ns.as_array() / math.sqrt(ns.q)
