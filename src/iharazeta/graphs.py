"""Finite connected regular multigraphs with an oriented-edge view.

A multigraph is a vertex count plus a multiset of unordered vertex pairs;
loops (u == u) and repeated pairs are allowed.  Every undirected edge carries
two oriented edges, one per direction; a loop carries two distinct oriented
edges that happen to share origin and terminus.  All census and zeta
machinery downstream works on the oriented-edge view.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

# the most vertices profile admits: a nonbipartite census holds at least
# five dense n x n arrays of 8-byte entries (the adjacency, its float64 copy,
# three power arrays per prime), 40 n^2 bytes: 640 MiB here, 1 GiB at 5181
MAX_VERTICES = 2 ** 12


class GraphError(ValueError):
    """Base class for graph construction and validation failures."""


class NotRegularError(GraphError):
    pass


class NotConnectedError(GraphError):
    pass


class EdgeListFormatError(GraphError):
    """Malformed edge-list text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class OrientedEdge(NamedTuple):
    id: int
    origin: int
    terminus: int
    inverse_id: int


@dataclass(frozen=True)
class Multigraph:
    """Immutable multigraph on vertices 0..n-1.

    ``edges`` is a sorted tuple of (u, v) pairs with u <= v; sorting makes
    iteration order (and thus oriented-edge ids) deterministic.  Edge i owns
    oriented edges 2i (low -> high endpoint) and 2i+1 (the inverse), so the
    inverse of oriented edge e is always e ^ 1.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def valencies(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1  # a loop contributes 2 to its vertex
        return tuple(deg)

    @cached_property
    def loop_count(self) -> int:
        return sum(1 for u, v in self.edges if u == v)

    @cached_property
    def colouring(self) -> tuple[tuple[int, ...], bool]:
        """Breadth-first 2-colouring from vertex 0: each vertex's colour, 0
        or 1, or -1 where vertex 0 does not reach it; and whether a loop or
        an edge joins two vertices of one colour, that is, whether the
        component of vertex 0 has an odd cycle.  Parallel edges never affect
        the colouring."""
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        colour = [-1] * self.n
        colour[0] = 0
        queue = deque([0])
        odd_cycle = self.loop_count > 0
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if colour[y] == -1:
                    colour[y] = colour[x] ^ 1
                    queue.append(y)
                elif colour[y] == colour[x]:
                    odd_cycle = True
        return tuple(colour), odd_cycle

    @cached_property
    def bipartition(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """The two colour classes of a connected bipartite graph, vertex 0 in
        the first; None when the graph is not connected or not bipartite.
        profile and the census both read it, so the colouring runs once."""
        colour, odd_cycle = self.colouring
        if odd_cycle or -1 in colour:
            return None
        return (tuple(x for x in range(self.n) if colour[x] == 0),
                tuple(x for x in range(self.n) if colour[x] == 1))

    @cached_property
    def adjacency(self) -> np.ndarray:
        """The read-only adjacency matrix (adjacency_matrix)."""
        u, v = np.fromiter(itertools.chain.from_iterable(self.edges), dtype=np.int64,
                           count=2 * len(self.edges)).reshape(-1, 2).T
        cells = np.concatenate([u * self.n + v, v * self.n + u])
        a = np.bincount(cells, minlength=self.n * self.n).reshape(self.n, self.n)
        a.flags.writeable = False
        return a

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def oriented_edge_count(self) -> int:
        return 2 * len(self.edges)

    def oriented_edges(self) -> list[OrientedEdge]:
        out = []
        for i, (u, v) in enumerate(self.edges):
            out.append(OrientedEdge(2 * i, u, v, 2 * i + 1))
            out.append(OrientedEdge(2 * i + 1, v, u, 2 * i))
        return out


@dataclass(frozen=True)
class GraphProfile:
    """Validated shape of a connected regular multigraph.

    The graph is (q+1)-regular; ``bipartition`` holds the two colour classes
    (vertex 0 in the first) when the graph is bipartite, else None.
    """

    q: int
    bipartite: bool
    connected: bool
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def build_graph(n: int, edge_list: Sequence[tuple[int, int]]) -> Multigraph:
    """Build a multigraph from a vertex count and a list of vertex pairs.

    Duplicate pairs accumulate multiplicity; (u, u) is a loop.  Requires
    n >= 3 and all endpoints in range.
    """
    if n < 3:
        raise GraphError(f"need at least 3 vertices, got n={n}")
    normalized = []
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        normalized.append((min(u, v), max(u, v)))
    normalized.sort()
    return Multigraph(n=n, edges=tuple(normalized))


def profile(g: Multigraph) -> GraphProfile:
    """Validate regularity and connectivity; classify bipartiteness.

    Raises NotRegularError / NotConnectedError when the standing assumptions
    fail; a graph of more vertices than edges + 1 (a connected graph on n
    vertices has at least n - 1 edges), or than MAX_VERTICES, fails before
    any per-vertex work.  Bipartiteness is read from the graph's cached
    2-colouring (Multigraph.colouring); any loop counts as an odd cycle.
    """
    if g.n > g.edge_count + 1:
        raise NotConnectedError(f"{g.edge_count} edges cannot connect {g.n} vertices")
    if g.n > MAX_VERTICES:
        raise GraphError(f"{g.n} vertices exceed the limit of {MAX_VERTICES}")
    degs = g.valencies
    if min(degs) != max(degs):
        lo, hi = min(degs), max(degs)
        raise NotRegularError(f"valencies differ: min {lo}, max {hi}")

    seen = g.n - g.colouring[0].count(-1)
    if seen != g.n:
        raise NotConnectedError(f"reached {seen} of {g.n} vertices")

    bipartition = g.bipartition
    return GraphProfile(q=degs[0] - 1, bipartite=bipartition is not None,
                        connected=True, bipartition=bipartition)


def adjacency_matrix(g: Multigraph) -> np.ndarray:
    """Integer adjacency matrix: entry (x, y) counts oriented edges x -> y;
    each loop adds 2 to its diagonal entry, so row sums equal valencies.
    Built once per graph (Multigraph.adjacency) and read-only."""
    return g.adjacency


# ---------------------------------------------------------------------------
# generators

_PETERSEN_EDGES = [
    # outer 5-cycle, inner pentagram, spokes
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
]


# each family's parameter names, in generator-string order; "..." lets
# circulant take more offsets s; kmm is complete_bipartite
_PARAMETERS = {"complete": ("n",), "cycle": ("n",), "complete_bipartite": ("m",),
               "kmm": ("m",), "petersen": (), "hypercube": ("d",), "prism": ("m",),
               "circulant": ("n", "s", "...")}


def generate(name: str, params: Sequence[int] = ()) -> Multigraph:
    """Build a named graph: complete, cycle, complete_bipartite or kmm
    (K_{m,m}), petersen, hypercube, prism (circular ladder), or circulant."""
    if name not in _PARAMETERS:
        raise GraphError(f"unknown generator {name!r}")
    names = _PARAMETERS[name]
    fixed = len(names) - names.count("...")
    if len(params) < fixed or len(params) > fixed and "..." not in names:
        raise GraphError(f"{name} takes parameters ({', '.join(names)}), "
                         f"got {len(params)}")
    if name == "complete":
        (n,) = params
        return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if name == "cycle":
        (n,) = params
        return build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if name in ("complete_bipartite", "kmm"):
        (m,) = params
        if m < 2:
            raise GraphError(f"{name} needs m >= 2")
        return build_graph(2 * m, [(i, m + j) for i in range(m) for j in range(m)])
    if name == "petersen":
        return build_graph(10, _PETERSEN_EDGES)
    if name == "hypercube":
        (d,) = params
        if d < 2:
            raise GraphError("hypercube needs dimension >= 2")
        n = 1 << d
        edges = [(x, x ^ (1 << b)) for x in range(n) for b in range(d) if x < x ^ (1 << b)]
        return build_graph(n, edges)
    if name == "prism":
        (m,) = params
        if m < 3:
            raise GraphError("prism needs ring length >= 3")
        edges = []
        for i in range(m):
            j = (i + 1) % m
            edges.append((i, j))            # outer ring
            edges.append((m + i, m + j))    # inner ring
            edges.append((i, m + i))        # rung
        return build_graph(2 * m, edges)
    n, *offsets = params  # circulant
    edges = []
    for s in offsets:
        s %= n
        if s == 0:
            raise GraphError("circulant offset must be nonzero mod n")
        s = min(s, n - s)
        if 2 * s == n:
            edges.extend((i, i + s) for i in range(s))
        else:
            edges.extend((i, (i + s) % n) for i in range(n))
    return build_graph(n, edges)


def parse_generator(spec: str) -> Multigraph:
    """Parse a generator DSL string such as "petersen", "complete:4",
    "kmm:3", "prism:24" or "circulant:12:1,3"."""
    parts = spec.strip().split(":")
    name = parts[0].strip().lower()
    params: list[int] = []
    try:
        for chunk in parts[1:]:
            params.extend(int(tok) for tok in chunk.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise GraphError(f"bad generator parameters in {spec!r}") from exc
    return generate(name, params)


# ---------------------------------------------------------------------------
# edge-list text format

def read_edge_list(text: str) -> Multigraph:
    """Parse edge-list text: optional "n <count>" header, then "u v" lines.

    Lines starting with '#' are comments; duplicate lines raise edge
    multiplicity; "u u" is a loop.  Without a header, n is one more than the
    largest vertex index seen.
    """
    n: int | None = None
    pairs: list[tuple[int, int]] = []
    saw_data = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if toks[0] == "n":
            if saw_data or n is not None:
                raise EdgeListFormatError("header must come first", lineno)
            if len(toks) != 2:
                raise EdgeListFormatError("header must be 'n <count>'", lineno)
            try:
                n = int(toks[1])
            except ValueError:
                raise EdgeListFormatError(f"bad vertex count {toks[1]!r}", lineno) from None
            continue
        if len(toks) != 2:
            raise EdgeListFormatError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise EdgeListFormatError(f"non-integer endpoint in {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise EdgeListFormatError("vertex indices must be >= 0", lineno)
        if n is not None and (u >= n or v >= n):
            raise EdgeListFormatError(f"vertex out of range for n={n}", lineno)
        saw_data = True
        pairs.append((u, v))
    if n is None:
        n = 1 + max((max(u, v) for u, v in pairs), default=-1)
    return build_graph(n, pairs)


def write_edge_list(g: Multigraph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
