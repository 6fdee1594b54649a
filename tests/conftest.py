"""Shared fixture graphs and cached pipeline pieces for the test suite."""

from __future__ import annotations

import runpy
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

from iharazeta.census import CycleCensus, build_census
from iharazeta.graphs import (GraphProfile, Multigraph, adjacency_matrix,
                              build_graph, generate, parse_generator,
                              profile)
from iharazeta.hk import hk_excess, hk_from_ck, hk_spectral, hk_spectral_budget
from iharazeta.spectral import (NontrivialSpectrum, eigenvalues_symmetric,
                                nontrivial_spectrum, scaled_spectrum)
from iharazeta.zetaxi import hk_series, xi_rational, zeta_inverse

# the eight fixtures the acceptance criteria run on
ACCEPTANCE_FIXTURES = ["k4", "cycle5", "cycle6", "petersen", "kmm3",
                       "hypercube3", "prism6", "prism24"]
# everything with at most 12 vertices, for brute-force oracle comparisons
SMALL_FIXTURES = ["k4", "cycle4", "cycle5", "cycle6", "petersen", "kmm3",
                  "hypercube3", "prism6", "double_triangle", "looped_cycle4"]
RAMANUJAN_FIXTURES = ["k4", "cycle5", "cycle6", "petersen", "kmm3",
                      "hypercube3", "prism6"]
NON_RAMANUJAN_FIXTURES = ["prism24", "prism30"]
ALL_FIXTURES = sorted(set(ACCEPTANCE_FIXTURES + SMALL_FIXTURES
                          + NON_RAMANUJAN_FIXTURES))
# the 24-graph ladder of scripts/check_ladder.py, generator strings
LADDER = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts"
                            / "check_ladder.py"))["LADDER"]
# every bipartite fixture, then every bipartite graph of scripts/check_ladder.py
# by its generator string (get_graph takes both)
BIPARTITE_GRAPHS = ["cycle4", "cycle6", "kmm3", "hypercube3", "prism6",
                    "prism24", "prism30", "doubled_cycle4",
                    "kmm:6", "kmm:10", "kmm:30", "hypercube:4", "hypercube:5",
                    "hypercube:6", "hypercube:7", "prism:16", "prism:20",
                    "prism:24", "prism:50", "prism:100", "circulant:12:1,3",
                    "circulant:20:1,3,5", "circulant:200:1,5,17"]


def _double_triangle() -> Multigraph:
    # triangle with every edge doubled: 4-regular multigraph on 3 vertices
    return build_graph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])


def _looped_cycle4() -> Multigraph:
    # 4-cycle with one loop per vertex: 4-regular, nonbipartite
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3),
                           (0, 0), (1, 1), (2, 2), (3, 3)])


def _doubled_cycle4() -> Multigraph:
    # 4-cycle with two opposite edges doubled: 3-regular and bipartite
    return build_graph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (0, 3)])


_BUILDERS = {
    "k4": lambda: generate("complete", [4]),
    "cycle4": lambda: generate("cycle", [4]),
    "cycle5": lambda: generate("cycle", [5]),
    "cycle6": lambda: generate("cycle", [6]),
    "petersen": lambda: generate("petersen"),
    "kmm3": lambda: generate("complete_bipartite", [3]),
    "hypercube3": lambda: generate("hypercube", [3]),
    "prism6": lambda: generate("prism", [6]),
    "prism24": lambda: generate("prism", [24]),
    "prism30": lambda: generate("prism", [30]),
    "double_triangle": _double_triangle,
    "looped_cycle4": _looped_cycle4,
    "doubled_cycle4": _doubled_cycle4,
}


@lru_cache(maxsize=None)
def get_graph(name: str) -> Multigraph:
    """A fixture by name, or else the graph of a generator string."""
    return _BUILDERS[name]() if name in _BUILDERS else parse_generator(name)


@lru_cache(maxsize=None)
def get_profile(name: str) -> GraphProfile:
    return profile(get_graph(name))


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only: the cached arrays are shared between tests."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def get_spectrum(name: str) -> np.ndarray:
    """The descending spectrum, read-only."""
    return _read_only(eigenvalues_symmetric(adjacency_matrix(get_graph(name)),
                                            get_profile(name).bipartition))


@lru_cache(maxsize=None)
def get_nontrivial(name: str) -> NontrivialSpectrum:
    return nontrivial_spectrum(get_spectrum(name), get_profile(name))


@lru_cache(maxsize=None)
def get_census(name: str, K: int) -> CycleCensus:
    return build_census(get_graph(name), get_profile(name).q, K)


@lru_cache(maxsize=None)
def get_excess(name: str, K: int) -> MappingProxyType:
    """hk_excess of the census to horizon K, read-only: the (a_k, side)
    pairs by k."""
    prof = get_profile(name)
    return MappingProxyType(hk_excess(get_census(name, K).nk, prof.q,
                                      get_graph(name).n, prof.bipartite))


@lru_cache(maxsize=None)
def get_hk_routes(name: str, K: int) -> MappingProxyType:
    """The three h_k routes at horizon K as read-only arrays, h_k at index
    k-1, keyed by route name: spectral, from_ck (exact integer provenance)
    and series."""
    g = get_graph(name)
    prof = get_profile(name)
    q, n = prof.q, g.n
    ns = get_nontrivial(name)
    return MappingProxyType({route: _read_only(h) for route, h in (
        ("spectral", hk_spectral(scaled_spectrum(ns), K, prof.bipartite)),
        ("from_ck", hk_from_ck(get_excess(name, K), q, n, prof.bipartite, K)),
        ("series", hk_series(xi_rational(zeta_inverse(ns), q), K)),
    )})


def spectral_nk(name: str, K: int) -> list[int]:
    """N_1..N_K as the spectral h_k route pins them: N_k = t_k + q^(k/2)
    (2|Spec*| - h_k) + n(q-1)[k even], where t_k = q^k + 1 is the trivial
    eigenvalues' share (doubled at even k, and 0 at odd k, for a bipartite
    graph).  Each float part must lie within q^(k/2) hk_spectral_budget of
    an integer, and that below 1/2."""
    g, prof, ns = get_graph(name), get_profile(name), get_nontrivial(name)
    q, n = prof.q, g.n
    h = get_hk_routes(name, K)["spectral"]
    budget = hk_spectral_budget(ns.values, q, n, h, prof.bipartite)
    out = []
    for k in range(1, K + 1):
        scale = q ** (k / 2)
        value = scale * (2 * len(ns) - float(h[k - 1]))
        nearest = round(value)
        assert scale * budget[k - 1] < 0.5, (name, k)
        assert abs(value - nearest) <= scale * budget[k - 1], (name, k, value)
        trivial = (q ** k + 1) * (1 + (-1) ** k if prof.bipartite else 1)
        out.append(trivial + nearest + (0 if k % 2 else n * (q - 1)))
    return out


def rel_dev(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


@pytest.fixture
def petersen() -> Multigraph:
    return get_graph("petersen")


@pytest.fixture
def kmm3() -> Multigraph:
    return get_graph("kmm3")
