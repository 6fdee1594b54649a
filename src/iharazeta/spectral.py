"""Dense symmetric eigenvalues and nontrivial-spectrum extraction.

Eigenvalues come from LAPACK through numpy.linalg.eigvalsh, or, for a
bipartite graph, as +/-sigma from the singular values sigma of its
biadjacency block (numpy.linalg.svd), a matrix of half the size.  Inputs
are small integer adjacency matrices, and the full multiset of eigenvalues
(no clustering, no multiplicity inference) is what downstream formulas
consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import GraphProfile


class NonSymmetricError(ValueError):
    pass


class TrivialEigenvalueMissing(ValueError):
    """The expected eigenvalue q+1 (or -(q+1) for bipartite graphs) is not
    present: the input was not a connected regular graph."""


@dataclass(frozen=True, eq=False)
class NontrivialSpectrum:
    """Eigenvalue multiset with the trivial eigenvalues removed, as a slice
    of the descending float64 spectrum.

    Size is n-1 for a nonbipartite graph (q+1 removed) and n-2 for a
    bipartite one (both q+1 and -(q+1) removed).  A bipartite one is exactly
    paired, the nontrivial sigma descending and then their negatives in
    reverse order, so its first half is the nontrivial sigma.
    """

    values: np.ndarray
    q: int
    bipartite: bool = False

    def __len__(self) -> int:
        return len(self.values)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if len(self.values) else 0.0


def eigenvalues_symmetric(
        m: np.ndarray,
        bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None = None) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, by LAPACK: a float64 array,
    descending, with multiplicity.

    Symmetry is required exactly (inputs are integer matrices).  Without a
    bipartition the values are eigvalsh's.  Given the two parts of a
    bipartite graph, m = [[0, B], [B^T, 0]] has the eigenvalues +/-sigma,
    sigma the singular values of the square biadjacency block B; they are
    returned as sigma followed by 0.0 - sigma reversed, so the spectrum is
    exactly paired and descending and an exact zero stays +0.0.  Parts of
    unequal size, or a nonzero entry inside a part, raise ValueError.
    """
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSymmetricError(f"expected a square matrix, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise NonSymmetricError("matrix is not symmetric")
    if bipartition is None:
        return np.linalg.eigvalsh(a.astype(np.float64))[::-1].copy()
    half, order = len(bipartition[0]), [*bipartition[0], *bipartition[1]]
    if 2 * half != len(a) or sorted(order) != list(range(len(a))):
        raise ValueError("a bipartition splits the vertices into two equal parts")
    a = a[order][:, order]
    if a[:half, :half].any() or a[half:, half:].any():
        raise ValueError("the bipartition has an edge inside a part")
    sigma = np.linalg.svd(a[:half, half:].astype(np.float64), compute_uv=False)
    return np.concatenate((sigma, 0.0 - sigma[::-1]))


def eigenvalue_error(n: int, q: int) -> float:
    """A-priori bound n eps ||A||_2 = n eps (q+1), eps = 2^-52, on the error
    of each eigenvalue eigenvalues_symmetric gives for a (q+1)-regular graph
    on n vertices: LAPACK is backward stable, and so is the SVD of a
    bipartite graph's block B, ||B||_2 = ||A||_2, whose exact negation
    0.0 - sigma adds nothing."""
    return n * float(np.finfo(np.float64).eps) * (q + 1)


def nontrivial_spectrum(s: np.ndarray, p: GraphProfile) -> NontrivialSpectrum:
    """Remove the trivial eigenvalues from a descending spectrum.

    A connected (q+1)-regular graph has q+1 as its largest eigenvalue, and
    -(q+1) as its smallest when it is bipartite; so s[0] goes, and s[-1]
    too for a bipartite graph.  A dropped value farther from its target than
    eigenvalue_error(len(s), q), the bound on every computed eigenvalue,
    signals a non-connected or non-regular input that slipped through
    validation.
    """
    top, bound = p.q + 1.0, eigenvalue_error(len(s), p.q)
    for i, target in ((0, top), (-1, -top)) if p.bipartite else ((0, top),):
        if abs(s[i] - target) > bound:
            raise TrivialEigenvalueMissing(
                f"no eigenvalue within {bound:.3g} of {target:g}; the "
                f"spectrum ends at {s[i]:.17g}")
    return NontrivialSpectrum(values=s[1:-1] if p.bipartite else s[1:],
                              q=p.q, bipartite=p.bipartite)


def scaled_spectrum(ns: NontrivialSpectrum) -> np.ndarray:
    """The nontrivial eigenvalues divided by sqrt(q), order preserved."""
    return ns.values / math.sqrt(ns.q)
