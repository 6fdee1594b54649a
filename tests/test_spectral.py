"""spectral: LAPACK eigenvalues, trivial-eigenvalue removal, scaling."""

import math

import numpy as np
import pytest

from iharazeta.graphs import GraphProfile, adjacency_matrix
from iharazeta.spectral import (NonSymmetricError, TrivialEigenvalueMissing,
                                eigenvalue_error, eigenvalues_symmetric,
                                nontrivial_spectrum, scaled_spectrum)

from conftest import (ALL_FIXTURES, BIPARTITE_GRAPHS, get_graph, get_nontrivial,
                      get_profile, get_spectrum)


def test_k4_spectrum():
    vals = get_spectrum("k4")
    assert np.allclose(vals, [3, -1, -1, -1], atol=1e-10)


def test_petersen_spectrum():
    vals = get_spectrum("petersen")
    assert np.allclose(vals, [3] + [1] * 5 + [-2] * 4, atol=1e-10)


def test_cycle4_spectrum():
    vals = get_spectrum("cycle4")
    assert np.allclose(vals, [2, 0, 0, -2], atol=1e-10)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_jacobi_matches_lapack(name):
    """eigenvalues_symmetric equals LAPACK's eigvalsh sorted descending (no
    Jacobi solver is involved, whatever the name says)."""
    a = adjacency_matrix(get_graph(name))
    ours = get_spectrum(name)
    ref = np.sort(np.linalg.eigvalsh(a.astype(float)))[::-1]
    assert np.max(np.abs(ours - ref)) < 1e-9


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_power_sums_match_exact_traces(name):
    g = get_graph(name)
    a = adjacency_matrix(g).astype(object)
    vals = get_spectrum(name)
    m = np.eye(g.n, dtype=object)
    for k in range(1, 11):
        m = np.dot(m, a)
        exact = sum(int(x) for x in np.diagonal(m))
        approx = float(np.sum(vals ** k))
        assert abs(approx - exact) <= 1e-8 * max(1.0, abs(exact))


def _inverse_iteration(a: np.ndarray, lam: float, iters: int = 3) -> np.ndarray:
    rng = np.random.default_rng(7)
    v = rng.normal(size=a.shape[0])
    v /= np.linalg.norm(v)
    m = a - (lam + 1e-9 * (1.0 + abs(lam))) * np.eye(a.shape[0])
    for _ in range(iters):
        v = np.linalg.solve(m, v)
        v /= np.linalg.norm(v)
    return v


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_eigenpair_residuals_via_inverse_iteration(name):
    a = adjacency_matrix(get_graph(name)).astype(float)
    norm = max(abs(v) for v in get_spectrum(name))
    for lam in set(round(v, 12) for v in get_spectrum(name)):
        v = _inverse_iteration(a, lam)
        assert np.linalg.norm(a @ v - lam * v) <= 1e-8 * norm


def test_nonsymmetric_rejected():
    with pytest.raises(NonSymmetricError):
        eigenvalues_symmetric(np.array([[0, 1], [0, 0]]))
    with pytest.raises(NonSymmetricError):
        eigenvalues_symmetric(np.zeros((2, 3)))


def test_descending_order():
    for name in ALL_FIXTURES:
        vals = get_spectrum(name)
        assert isinstance(vals, np.ndarray) and vals.dtype == np.float64
        assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))


def test_nontrivial_sizes():
    # n-1 entries for nonbipartite, n-2 for bipartite
    assert len(get_nontrivial("petersen")) == 9
    assert len(get_nontrivial("kmm3")) == 4
    assert len(get_nontrivial("cycle4")) == 2


def test_nontrivial_petersen_values():
    vals = sorted(get_nontrivial("petersen").values, reverse=True)
    assert np.allclose(vals, [1] * 5 + [-2] * 4, atol=1e-10)


def test_nontrivial_kmm3_zeros():
    assert np.allclose(get_nontrivial("kmm3").values, 0.0, atol=1e-10)


@pytest.mark.parametrize("name", ["kmm3", "cycle4", "cycle6", "hypercube3",
                                  "prism6", "prism24"])
def test_bipartite_spectrum_symmetric(name):
    vals = np.sort(np.array(get_nontrivial(name).values))
    assert np.allclose(vals + vals[::-1], 0.0, atol=1e-9)


@pytest.mark.parametrize("name", BIPARTITE_GRAPHS)
def test_bipartite_spectrum_is_exactly_paired(name):
    """+/-sigma from the SVD of the biadjacency block: values[i] is
    -values[n-1-i] exactly, and within 1e-9 of eigvalsh of the whole
    matrix; the nontrivial spectrum drops exactly the two ends."""
    a = adjacency_matrix(get_graph(name))
    assert get_profile(name).bipartite
    vals = get_spectrum(name)
    n = len(vals)
    assert all(vals[i] == -vals[n - 1 - i] for i in range(n))
    ref = np.linalg.eigvalsh(a.astype(float))[::-1]
    assert np.max(np.abs(vals - ref)) < 1e-9
    ns = get_nontrivial(name)
    assert ns.bipartite and np.array_equal(ns.values, vals[1:-1])


def test_paired_spectrum_keeps_zero_positive():
    # a zero block: every singular value is an exact 0.0, and so is its pair
    vals = eigenvalues_symmetric(np.zeros((4, 4), dtype=int),
                                 ((0, 1), (2, 3)))
    assert vals.dtype == np.float64 and np.array_equal(vals, [0.0, 0.0, 0.0, 0.0])
    assert all(math.copysign(1.0, v) == 1.0 for v in vals)


def test_bad_bipartition_is_rejected():
    k4 = np.ones((4, 4), dtype=int) - np.eye(4, dtype=int)
    with pytest.raises(ValueError, match="inside a part"):
        eigenvalues_symmetric(k4, ((0, 1), (2, 3)))
    looped = np.array([[2, 1], [1, 2]])
    with pytest.raises(ValueError, match="inside a part"):
        eigenvalues_symmetric(looped, ((0,), (1,)))
    path = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    for parts in (((0, 2), (1,)), ((0,), (1,)), ((0, 0), (1, 2))):
        with pytest.raises(ValueError, match="two equal parts"):
            eigenvalues_symmetric(path, parts)


def test_trivial_eigenvalue_missing():
    fake = np.array([1.0, 0.5, 0.1])
    prof = GraphProfile(q=2, bipartite=False)
    with pytest.raises(TrivialEigenvalueMissing):
        nontrivial_spectrum(fake, prof)
    # a bipartite spectrum must end at -(q+1) as well
    ends_high = np.array([3.0, 1.0, -1.0, -2.0])
    with pytest.raises(TrivialEigenvalueMissing):
        nontrivial_spectrum(ends_high, GraphProfile(q=2, bipartite=True))


@pytest.mark.parametrize("bipartite", [False, True])
def test_trivial_eigenvalue_matched_within_the_eigenvalue_error(bipartite):
    # q+1 (and -(q+1)) are matched within eigenvalue_error(n, q), the bound
    # on every computed eigenvalue: half of it passes, twice it does not
    prof = GraphProfile(q=2, bipartite=bipartite)
    bound = eigenvalue_error(4, 2)
    assert bound == 4 * 2.0 ** -52 * 3
    for end in (0, -1) if bipartite else (0,):
        for off, fits in ((0.5 * bound, True), (-0.5 * bound, True),
                          (2 * bound, False), (-2 * bound, False)):
            s = np.array([3.0, 1.0, -1.0, -3.0])
            s[end] += off
            if fits:
                assert nontrivial_spectrum(s, prof).values.tolist() == (
                    [1.0, -1.0] if bipartite else [1.0, -1.0, -3.0])
            else:
                with pytest.raises(TrivialEigenvalueMissing, match="no eigenvalue within"):
                    nontrivial_spectrum(s, prof)


def test_scaled_spectrum_petersen():
    scaled = np.sort(scaled_spectrum(get_nontrivial("petersen")))[::-1]
    expected = [1 / math.sqrt(2)] * 5 + [-math.sqrt(2)] * 4
    assert np.allclose(scaled, expected, atol=1e-10)


def test_scaled_spectrum_q1_identity():
    ns = get_nontrivial("cycle5")
    assert np.allclose(scaled_spectrum(ns), ns.values)


def test_scaled_spectrum_zeros_fixed():
    assert np.allclose(scaled_spectrum(get_nontrivial("kmm3")), 0.0, atol=1e-10)
