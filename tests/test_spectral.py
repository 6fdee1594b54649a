"""spectral: LAPACK eigenvalues, trivial-eigenvalue removal, scaling."""

import math

import numpy as np
import pytest

from iharazeta.graphs import GraphProfile, adjacency_matrix
from iharazeta.spectral import (NonSymmetricError, Spectrum,
                                TrivialEigenvalueMissing,
                                eigenvalues_symmetric, nontrivial_spectrum,
                                scaled_spectrum)

from conftest import ALL_FIXTURES, get_graph, get_nontrivial, get_spectrum


def test_k4_spectrum():
    vals = get_spectrum("k4").values
    assert np.allclose(vals, [3, -1, -1, -1], atol=1e-10)


def test_petersen_spectrum():
    vals = get_spectrum("petersen").values
    assert np.allclose(vals, [3] + [1] * 5 + [-2] * 4, atol=1e-10)


def test_cycle4_spectrum():
    vals = get_spectrum("cycle4").values
    assert np.allclose(vals, [2, 0, 0, -2], atol=1e-10)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_jacobi_matches_lapack(name):
    a = adjacency_matrix(get_graph(name))
    ours = np.array(get_spectrum(name).values)
    ref = np.sort(np.linalg.eigvalsh(a.astype(float)))[::-1]
    assert np.max(np.abs(ours - ref)) < 1e-9


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_power_sums_match_exact_traces(name):
    g = get_graph(name)
    a = adjacency_matrix(g).astype(object)
    vals = np.array(get_spectrum(name).values)
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
    norm = max(abs(v) for v in get_spectrum(name).values)
    for lam in set(round(v, 12) for v in get_spectrum(name).values):
        v = _inverse_iteration(a, lam)
        assert np.linalg.norm(a @ v - lam * v) <= 1e-8 * norm


def test_nonsymmetric_rejected():
    with pytest.raises(NonSymmetricError):
        eigenvalues_symmetric(np.array([[0, 1], [0, 0]]))
    with pytest.raises(NonSymmetricError):
        eigenvalues_symmetric(np.zeros((2, 3)))


def test_descending_order():
    for name in ALL_FIXTURES:
        vals = get_spectrum(name).values
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


def test_trivial_eigenvalue_missing():
    fake = Spectrum((1.0, 0.5, 0.1))
    prof = GraphProfile(q=2, bipartite=False, connected=True)
    with pytest.raises(TrivialEigenvalueMissing):
        nontrivial_spectrum(fake, prof)


def test_scaled_spectrum_petersen():
    scaled = np.sort(scaled_spectrum(get_nontrivial("petersen")))[::-1]
    expected = [1 / math.sqrt(2)] * 5 + [-math.sqrt(2)] * 4
    assert np.allclose(scaled, expected, atol=1e-10)


def test_scaled_spectrum_q1_identity():
    ns = get_nontrivial("cycle5")
    assert np.allclose(scaled_spectrum(ns), ns.as_array())


def test_scaled_spectrum_zeros_fixed():
    assert np.allclose(scaled_spectrum(get_nontrivial("kmm3")), 0.0, atol=1e-10)
