"""Shared fixture graphs and cached pipeline pieces for the test suite."""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

import pytest

from iharazeta.census import CycleCensus, build_census
from iharazeta.graphs import (GraphProfile, Multigraph, adjacency_matrix,
                              build_graph, generate, profile)
from iharazeta.hk import HkSequence, hk_from_ck, hk_spectral
from iharazeta.spectral import (NontrivialSpectrum, Spectrum,
                                eigenvalues_symmetric, nontrivial_spectrum,
                                scaled_spectrum)
from iharazeta.zetaxi import hk_series, xi_rational

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


def _double_triangle() -> Multigraph:
    # triangle with every edge doubled: 4-regular multigraph on 3 vertices
    return build_graph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])


def _looped_cycle4() -> Multigraph:
    # 4-cycle with one loop per vertex: 4-regular, nonbipartite
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3),
                           (0, 0), (1, 1), (2, 2), (3, 3)])


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
}


@lru_cache(maxsize=None)
def get_graph(name: str) -> Multigraph:
    return _BUILDERS[name]()


@lru_cache(maxsize=None)
def get_profile(name: str) -> GraphProfile:
    return profile(get_graph(name))


@lru_cache(maxsize=None)
def get_spectrum(name: str) -> Spectrum:
    return eigenvalues_symmetric(adjacency_matrix(get_graph(name)))


@lru_cache(maxsize=None)
def get_nontrivial(name: str) -> NontrivialSpectrum:
    return nontrivial_spectrum(get_spectrum(name), get_profile(name))


@lru_cache(maxsize=None)
def get_census(name: str, K: int) -> CycleCensus:
    return build_census(get_graph(name), get_profile(name).q, K)


@lru_cache(maxsize=None)
def get_hk_routes(name: str, K: int) -> MappingProxyType:
    """The three h_k routes at horizon K, read-only and keyed by route name:
    spectral, from_ck (exact integer provenance) and series."""
    g = get_graph(name)
    prof = get_profile(name)
    q, n = prof.q, g.n
    census = get_census(name, K)
    scaled = scaled_spectrum(get_nontrivial(name))
    series = HkSequence(values=hk_series(xi_rational(get_nontrivial(name), q), q, K),
                        route="series", q=q, n=n, bipartite=prof.bipartite)
    return MappingProxyType({seq.route: seq for seq in (
        hk_spectral(scaled, K, q, n, prof.bipartite),
        hk_from_ck(census.c, q, n, prof.bipartite, K),
        series,
    )})


def rel_dev(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


@pytest.fixture
def petersen() -> Multigraph:
    return get_graph("petersen")


@pytest.fixture
def kmm3() -> Multigraph:
    return get_graph("kmm3")
