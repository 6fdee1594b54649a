"""graph-core: construction, validation, generators, edge-list format."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iharazeta.census import closed_walk_counts, nonbacktracking_successors
from iharazeta.graphs import (MAX_VERTICES, EdgeListFormatError, GraphError,
                              NotConnectedError, NotRegularError,
                              adjacency_matrix, build_graph, generate,
                              parse_generator, profile, read_edge_list,
                              write_edge_list)

from conftest import ALL_FIXTURES, get_graph, get_profile


def test_build_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.n == 3 and g.edge_count == 3
    assert profile(g).q == 1


def test_build_k4():
    g = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert profile(g).q == 2


def test_build_rejects_small_n():
    with pytest.raises(GraphError):
        build_graph(2, [(0, 1)])


def test_build_rejects_out_of_range():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])


def test_duplicate_pairs_accumulate():
    g = build_graph(3, [(0, 1), (1, 0), (1, 2), (2, 0)])
    a = adjacency_matrix(g)
    assert a[0, 1] == a[1, 0] == 2


def test_nonbacktracking_successors_involution():
    # edge i = (u, v) owns oriented edges 2i (u -> v) and 2i + 1 (v -> u),
    # and e ^ 1, never a successor of e, runs e's ends reversed
    for name in ("looped_cycle4", "double_triangle", "petersen"):
        g, q = get_graph(name), get_profile(name).q
        ends = [end for u, v in g.edges for end in ((u, v), (v, u))]
        succ = nonbacktracking_successors(g)
        assert len(succ) == 2 * g.edge_count, name
        for e, followers in enumerate(succ):
            assert ends[e ^ 1] == ends[e][::-1], (name, e)
            assert e ^ 1 not in followers, (name, e)
            assert all(ends[f][0] == ends[e][1] for f in followers), (name, e)
            assert len(followers) == q, (name, e)


def test_profile_petersen():
    p = get_profile("petersen")
    assert p.q == 2 and not p.bipartite


def test_profile_kmm3_bipartition():
    p = get_profile("kmm3")
    assert p.bipartite
    assert p.bipartition == ((0, 1, 2), (3, 4, 5))


def test_bipartition_is_one_cached_colouring():
    # profile and the census read the same cached property
    g = get_graph("prism6")
    assert get_profile("prism6").bipartition is g.bipartition
    assert g.bipartition == ((0, 2, 4, 7, 9, 11), (1, 3, 5, 6, 8, 10))
    assert get_graph("petersen").bipartition is None
    assert get_graph("looped_cycle4").bipartition is None
    # two disjoint 4-cycles: both bipartite, but vertex 0 reaches only one
    two_squares = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                                  (4, 5), (5, 6), (6, 7), (7, 4)])
    assert two_squares.colouring == ((0, 1, 0, 1, -1, -1, -1, -1), False)
    assert two_squares.bipartition is None


def test_profile_loop_breaks_regularity():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0), (0, 0)])
    with pytest.raises(NotRegularError):
        profile(g)  # the loop adds 2 to one valency


def test_profile_disconnected():
    g = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(NotConnectedError):
        profile(g)


def test_profile_refuses_too_few_edges_before_any_per_vertex_work():
    # a connected graph on n vertices has at least n - 1 edges, so a
    # triangle named as a graph on MAX_VERTICES vertices fails at once,
    # before the colouring and any n x n array
    g = build_graph(MAX_VERTICES, [(0, 1), (1, 2), (2, 0)])
    tracemalloc.start()
    try:
        with pytest.raises(NotConnectedError,
                           match=f"^3 edges cannot connect {MAX_VERTICES} vertices"):
            profile(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert "colouring" not in vars(g) and "adjacency" not in vars(g)


def _unread_edges():
    raise AssertionError("an edge was read")
    yield


def test_build_graph_bounds_the_vertex_count_before_any_edge():
    with pytest.raises(GraphError, match=f"^{2 ** 40} vertices exceed the limit"):
        build_graph(2 ** 40, _unread_edges())


def test_generate_refuses_more_vertices_than_the_limit():
    # a cycle on MAX_VERTICES vertices passes; one more fails before its
    # first edge forms (test_cli covers every family's oversized member)
    assert profile(generate("cycle", [MAX_VERTICES])).q == 1
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match=f"^{MAX_VERTICES + 1} vertices exceed"):
            generate("cycle", [MAX_VERTICES + 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_adjacency_k4():
    a = adjacency_matrix(get_graph("k4"))
    assert np.array_equal(a, np.ones((4, 4), dtype=np.int64) - np.eye(4, dtype=np.int64))


def test_adjacency_built_once_and_read_only():
    # the spectrum, the census and the operator check share one matrix
    g = parse_generator("prism:6")
    a = adjacency_matrix(g)
    assert adjacency_matrix(g) is a and not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 1
    assert adjacency_matrix(parse_generator("prism:6")) is not a


def test_adjacency_loop_counts_twice():
    g = get_graph("looped_cycle4")
    a = adjacency_matrix(g)
    assert all(a[x, x] == 2 for x in range(4))
    assert tuple(a.sum(axis=1)) == g.valencies


def test_adjacency_double_edge():
    a = adjacency_matrix(get_graph("double_triangle"))
    assert a[0, 1] == 2 and a[1, 0] == 2 and a[0, 0] == 0


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_adjacency_symmetric_and_valency_sum(name):
    g = get_graph(name)
    a = adjacency_matrix(g)
    assert np.array_equal(a, a.T)
    assert sum(g.valencies) == 2 * g.edge_count
    assert int(np.trace(a)) == 2 * g.loop_count


def test_generate_complete4():
    g = generate("complete", [4])
    assert g.n == 4 and get_profile("k4").q == 2


def test_generate_prism24_bipartite():
    g = generate("prism", [24])
    p = profile(g)
    assert g.n == 48 and p.q == 2 and p.bipartite


def test_generate_prism_odd_ring_nonbipartite():
    assert not profile(generate("prism", [5])).bipartite


def test_petersen_girth_five():
    # exhaustive search: no closed non-backtracking cycle shorter than 5
    from iharazeta.census import geodesic_cycles_bruteforce

    g = get_graph("petersen")
    assert [geodesic_cycles_bruteforce(g, k) for k in range(1, 6)] == [0, 0, 0, 0, 120]


def test_generate_hypercube():
    g = generate("hypercube", [3])
    assert g.n == 8 and profile(g).q == 2 and profile(g).bipartite


def test_generate_circulant():
    g = generate("circulant", [12, 1, 3])
    p = profile(g)
    assert g.n == 12 and p.q == 3  # 4-regular


def test_generate_circulant_half_offset():
    g = generate("circulant", [6, 1, 3])
    assert profile(g).q == 2  # offset n/2 contributes valency 1


def test_generate_unknown():
    with pytest.raises(GraphError):
        generate("moebius", [5])


def test_generate_too_small():
    with pytest.raises(GraphError):
        generate("cycle", [2])


@pytest.mark.parametrize("spec,n,q", [
    ("petersen", 10, 2),
    ("complete:4", 4, 2),
    ("cycle:7", 7, 1),
    ("kmm:3", 6, 2),
    ("hypercube:3", 8, 2),
    ("prism:24", 48, 2),
    ("circulant:12:1,3", 12, 3),
])
def test_parse_generator(spec, n, q):
    g = parse_generator(spec)
    assert g.n == n and profile(g).q == q


@pytest.mark.parametrize("m", [2, 3, 4])
def test_complete_bipartite_always_bipartite(m):
    assert profile(generate("complete_bipartite", [m])).bipartite


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_bipartite_agrees_with_odd_walk_search(name):
    # brute-force check: bipartite iff no closed walk of odd length <= n
    g = get_graph(name)
    c = closed_walk_counts(g, g.n)
    no_odd_walk = all(c[k] == 0 for k in range(1, g.n + 1, 2))
    assert no_odd_walk == get_profile(name).bipartite


def test_edge_list_round_trip():
    g = get_graph("petersen")
    assert read_edge_list(write_edge_list(g)).edges == g.edges


def test_edge_list_loops_comments_header():
    text = "# fixture\nn 4\n0 1\n1 2\n2 3\n3 0\n0 0\n0 0\n"
    g = read_edge_list(text)
    assert g.n == 4 and g.loop_count == 2


def test_edge_list_infers_n():
    assert read_edge_list("0 1\n1 2\n2 0\n").n == 3


def test_edge_list_duplicate_lines_multiply():
    g = read_edge_list("0 1\n0 1\n1 2\n2 0\n")
    assert adjacency_matrix(g)[0, 1] == 2


@pytest.mark.parametrize("text,line", [
    ("0 1 2\n", 1),
    ("0 1\nx 2\n", 2),
    ("n 3\n0 5\n", 2),
    ("0 1\nn 3\n", 2),
])
def test_edge_list_errors_name_the_line(text, line):
    with pytest.raises(EdgeListFormatError) as err:
        read_edge_list(text)
    assert err.value.line == line


@given(st.integers(5, 20),
       st.sets(st.integers(1, 9), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_circulant_valency_property(n, offsets):
    # every circulant is regular with degree 2|S|, minus one per offset n/2
    offsets = {s for s in offsets if s % n != 0}
    assume(offsets)
    norm = {min(s % n, n - s % n) for s in offsets}
    assume(len(norm) == len(offsets))
    assume(math.gcd(n, *norm) == 1)  # connected
    g = generate("circulant", [n] + sorted(offsets))
    expected = 2 * len(offsets) - sum(1 for s in norm if 2 * s == n)
    assert profile(g).q == expected - 1
