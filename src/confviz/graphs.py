"""Finite simple graphs: families, products, covers, and structure reports.

Vertices are 0..order-1 throughout. Families emit deterministic labels so
derived artifacts stay byte-stable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterator

from .errors import ParameterError


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph. Edges are normalized to sorted (u, v) with u < v."""

    order: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.order < 0:
            raise ParameterError("graph order must be non-negative")
        seen = set()
        for e in self.edges:
            u, v = int(e[0]), int(e[1])
            if u == v:
                raise ParameterError(f"loop at vertex {u}")
            if not (0 <= u < self.order and 0 <= v < self.order):
                raise ParameterError(f"edge ({u},{v}) outside vertex range")
            seen.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != self.order:
                raise ParameterError("label count must match order")
            object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbr: list[list[int]] = [[] for _ in range(self.order)]
        for u, v in self.edges:
            nbr[u].append(v)
            nbr[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbr)

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(a) for a in self.adjacency)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbor_sets[u]


@dataclass(frozen=True)
class Bipartition:
    """Side assignment (0 or 1 per vertex) with every edge crossing sides."""

    sides: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sides", tuple(int(s) for s in self.sides))
        if any(s not in (0, 1) for s in self.sides):
            raise ParameterError("bipartition sides must be 0 or 1")

    def is_valid_for(self, g: Graph) -> bool:
        if len(self.sides) != g.order:
            return False
        return all(self.sides[u] != self.sides[v] for u, v in g.edges)

    def classes(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        zero = tuple(v for v, s in enumerate(self.sides) if s == 0)
        one = tuple(v for v, s in enumerate(self.sides) if s == 1)
        return zero, one


@dataclass(frozen=True)
class VertexMap:
    """Vertex image table, used for isomorphism and automorphism witnesses."""

    image: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "image", tuple(int(x) for x in self.image))

    def __call__(self, v: int) -> int:
        return self.image[v]

    def is_bijection(self) -> bool:
        return sorted(self.image) == list(range(len(self.image)))

    def is_isomorphism(self, g: Graph, h: Graph) -> bool:
        if g.order != h.order or g.size != h.size or len(self.image) != g.order:
            return False
        if not self.is_bijection():
            return False
        return all(h.has_edge(self.image[u], self.image[v]) for u, v in g.edges)

    def is_automorphism(self, g: Graph) -> bool:
        return self.is_isomorphism(g, g)

    def inverse(self) -> "VertexMap":
        inv = [0] * len(self.image)
        for v, w in enumerate(self.image):
            inv[w] = v
        return VertexMap(tuple(inv))

    def permutation_order(self) -> int:
        if not self.is_bijection():
            raise ParameterError("permutation order undefined for non-bijections")
        seen = [False] * len(self.image)
        result = 1
        for v in range(len(self.image)):
            if seen[v]:
                continue
            length = 0
            w = v
            while not seen[w]:
                seen[w] = True
                w = self.image[w]
                length += 1
            result = math.lcm(result, length)
        return result


# ---------------------------------------------------------------------------
# families


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ParameterError("cycle needs n >= 3")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)), tuple(str(i) for i in range(n)))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ParameterError("path needs n >= 1")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)), tuple(str(i) for i in range(n)))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ParameterError("complete graph needs n >= 1")
    return Graph(n, tuple(combinations(range(n), 2)), tuple(str(i) for i in range(n)))


def prism_graph(n: int) -> Graph:
    """Two concentric n-cycles joined by rungs; labels record (ring, index)."""
    if n < 3:
        raise ParameterError("prism needs n >= 3")
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((n + i, n + (i + 1) % n))
        edges.append((i, n + i))
    labels = tuple(f"(0,{i})" for i in range(n)) + tuple(f"(1,{i})" for i in range(n))
    return Graph(2 * n, tuple(edges), labels)


def hypercube_graph(d: int) -> Graph:
    """d-cube on bitmask vertices; labels are the d-bit strings."""
    if d < 1:
        raise ParameterError("hypercube needs d >= 1")
    n = 1 << d
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)]
    return Graph(n, tuple(edges), tuple(format(v, f"0{d}b") for v in range(n)))


def _subset_label(s: tuple[int, ...]) -> str:
    return "{" + ",".join(str(x) for x in s) + "}"


def kneser_graph(n: int, k: int) -> Graph:
    """K(n,k): k-subsets of an n-set, adjacent when disjoint."""
    if k < 1 or n < 2 * k:
        raise ParameterError("kneser needs 1 <= k and n >= 2k")
    verts = list(combinations(range(n), k))
    sets = [frozenset(s) for s in verts]
    edges = tuple(
        (i, j) for i, j in combinations(range(len(verts)), 2) if not (sets[i] & sets[j])
    )
    return Graph(len(verts), edges, tuple(_subset_label(s) for s in verts))


def bipartite_kneser_graph(n: int, k: int) -> Graph:
    """H(n,k): k-subsets vs (n-k)-subsets, adjacent under containment."""
    if k < 1 or n <= 2 * k:
        raise ParameterError("bipartite kneser needs 1 <= k and n > 2k")
    small = list(combinations(range(n), k))
    large = list(combinations(range(n), n - k))
    ns = len(small)
    edges = []
    for i, s in enumerate(small):
        ss = frozenset(s)
        for j, t in enumerate(large):
            if ss <= frozenset(t):
                edges.append((i, ns + j))
    labels = tuple(_subset_label(s) for s in small) + tuple(_subset_label(t) for t in large)
    return Graph(ns + len(large), tuple(edges), labels)


def odd_graph(m: int) -> Graph:
    """O_m = K(2m-1, m-1); O_3 is the Petersen graph."""
    if m < 2:
        raise ParameterError("odd graph needs m >= 2")
    return kneser_graph(2 * m - 1, m - 1)


def petersen_graph() -> Graph:
    return kneser_graph(5, 2)


def desargues_graph() -> Graph:
    return bipartite_kneser_graph(5, 2)


def generalized_petersen_graph(n: int, r: int) -> Graph:
    """GP(n,r): outer n-cycle, inner star polygon with step r, spokes."""
    if n < 3 or r < 1 or 2 * r >= n:
        raise ParameterError("generalized petersen needs n >= 3 and 1 <= r < n/2")
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((n + i, n + (i + r) % n))
        edges.append((i, n + i))
    labels = tuple(f"o{i}" for i in range(n)) + tuple(f"i{i}" for i in range(n))
    return Graph(2 * n, tuple(edges), labels)


def dodecahedron_graph() -> Graph:
    """Dodecahedral skeleton, constructed as GP(10,2)."""
    return generalized_petersen_graph(10, 2)


def gen_cuboctahedron_graph(n: int) -> Graph:
    """CO(n): line graph of the n-prism, a 4-regular graph on 3n vertices."""
    if n < 3:
        raise ParameterError("generalized cuboctahedron needs n >= 3")
    return line_graph(prism_graph(n))


def pappus_graph() -> Graph:
    """Levi graph of the (9_3) hexagrammum-mysticum structure.

    The blocks come from the numeric collinearity scan behind
    incidence.pappus_structure(), not from a hand-typed table.
    """
    from .incidence import levi_graph, pappus_structure  # incidence imports this module

    return levi_graph(pappus_structure())[0]


_FAMILIES = {
    "cycle": (cycle_graph, 1, "cycle(n)"),
    "path": (path_graph, 1, "path(n)"),
    "complete": (complete_graph, 1, "complete(n)"),
    "prism": (prism_graph, 1, "prism(n)"),
    "hypercube": (hypercube_graph, 1, "hypercube(d)"),
    "kneser": (kneser_graph, 2, "kneser(n,k)"),
    "bipartite_kneser": (bipartite_kneser_graph, 2, "bipartite_kneser(n,k)"),
    "odd": (odd_graph, 1, "odd(m)"),
    "petersen": (petersen_graph, 0, "petersen"),
    "desargues": (desargues_graph, 0, "desargues"),
    "gen_petersen": (generalized_petersen_graph, 2, "gen_petersen(n,r)"),
    "gen_cuboctahedron": (gen_cuboctahedron_graph, 1, "gen_cuboctahedron(n)"),
    "dodecahedron": (dodecahedron_graph, 0, "dodecahedron"),
    "pappus": (pappus_graph, 0, "pappus"),
}


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def build_family(name: str, *params: int) -> Graph:
    """Construct a named family member; unknown names or bad arity raise."""
    if name not in _FAMILIES:
        raise ParameterError(f"unknown family {name!r}; known: {', '.join(family_names())}")
    fn, arity, signature = _FAMILIES[name]
    if len(params) != arity:
        raise ParameterError(f"family {name} expects {signature}")
    return fn(*(int(p) for p in params))


# ---------------------------------------------------------------------------
# constructions


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product; vertex (a, x) sits at index a * h.order + x."""
    if g.order == 0 or h.order == 0:
        raise ParameterError("product factors must be non-empty")
    edges = []
    for a in range(g.order):
        base = a * h.order
        for x, y in h.edges:
            edges.append((base + x, base + y))
    for a, b in g.edges:
        for x in range(h.order):
            edges.append((a * h.order + x, b * h.order + x))
    labels = tuple(
        f"({g.label(a)},{h.label(x)})" for a in range(g.order) for x in range(h.order)
    )
    return Graph(g.order * h.order, tuple(edges), labels)


def line_graph(g: Graph) -> Graph:
    """L(g): one vertex per edge of g, adjacent when the edges share an endpoint."""
    if g.size == 0:
        raise ParameterError("line graph of an edgeless graph is empty")
    index = {e: i for i, e in enumerate(g.edges)}
    edges = set()
    for v in range(g.order):
        inc = [index[(min(v, w), max(v, w))] for w in g.adjacency[v]]
        for i, j in combinations(sorted(inc), 2):
            edges.add((i, j))
    labels = tuple(f"{g.label(u)}~{g.label(v)}" for u, v in g.edges)
    return Graph(g.size, tuple(sorted(edges)), labels)


def kronecker_cover(g: Graph) -> tuple[Graph, Bipartition]:
    """Canonical double cover: fibers (v,0) -> v and (v,1) -> order + v."""
    n = g.order
    edges = []
    for u, v in g.edges:
        edges.append((u, n + v))
        edges.append((v, n + u))
    labels = tuple(f"({g.label(v)},0)" for v in range(n)) + tuple(
        f"({g.label(v)},1)" for v in range(n)
    )
    cover = Graph(2 * n, tuple(edges), labels)
    return cover, Bipartition((0,) * n + (1,) * n)


def is_admissible(g: Graph) -> tuple[bool, tuple[int, int] | None]:
    """No two vertices may share a neighbourhood; returns the first clash."""
    seen: dict[frozenset[int], int] = {}
    for v, ns in enumerate(g.neighbor_sets):
        if ns in seen:
            return False, (seen[ns], v)
        seen[ns] = v
    return True, None


# ---------------------------------------------------------------------------
# structure report


def bfs_layers(g: Graph, root: int, dist: list[int]) -> Iterator[list[int]]:
    """Breadth-first layers of g from root, nearest first.

    dist[v] < 0 marks v unseen; each vertex's depth is written into dist as
    its layer is built. The next layer is built only when the caller asks
    for it, so a caller that stops early does no further work. Passing one
    dist across several roots walks one component per root.
    """
    dist[root] = 0
    layer = [root]
    while layer:
        yield layer
        nxt = []
        for v in layer:
            d = dist[v] + 1
            for w in g.adjacency[v]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        layer = nxt


@dataclass(frozen=True)
class StructureReport:
    """Structure of a graph; each field is computed when first read."""

    graph: Graph

    @cached_property
    def regular_degree(self) -> int | None:
        degrees = {len(a) for a in self.graph.adjacency}
        return degrees.pop() if len(degrees) == 1 else None

    @cached_property
    def _component_walk(self) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
        # components in order of their least vertex, and every vertex's
        # depth below that vertex
        g = self.graph
        depth = [-1] * g.order
        comps = []
        for root in range(g.order):
            if depth[root] < 0:
                layers = bfs_layers(g, root, depth)
                comps.append(tuple(sorted(v for layer in layers for v in layer)))
        return tuple(comps), depth

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        return self._component_walk[0]

    @cached_property
    def connected(self) -> bool:
        return len(self.components) <= 1

    @cached_property
    def bipartition(self) -> Bipartition | None:
        """Depth parity below each component's least vertex, when every edge crosses it."""
        depth = self._component_walk[1]
        if any(depth[u] % 2 == depth[v] % 2 for u, v in self.graph.edges):
            return None
        return Bipartition(tuple(d % 2 for d in depth))

    @cached_property
    def bipartite(self) -> bool:
        return self.bipartition is not None

    @cached_property
    def girth(self) -> int | float:
        """Shortest cycle length via BFS from every vertex; inf for forests.

        Layer d closes a (2d+1)-cycle at an edge inside it and a 2d-cycle at
        a vertex with two neighbours in layer d-1. Each BFS stops at the
        first layer that can only close cycles no shorter than the best.
        """
        g = self.graph
        best: int | float = math.inf
        for root in range(g.order):
            dist = [-1] * g.order
            for layer in bfs_layers(g, root, dist):
                d = dist[layer[0]]
                if 2 * d >= best:
                    break
                # layer d+1 is not built yet, so a seen neighbour of a
                # layer-d vertex lies in layer d or d-1
                for v in layer:
                    up = 0
                    for w in g.adjacency[v]:
                        dw = dist[w]
                        if dw == d:
                            best = min(best, 2 * d + 1)
                        elif dw >= 0:
                            up += 1
                    if up >= 2:
                        best = min(best, 2 * d)
        return best

    @cached_property
    def has_four_cycle(self) -> bool:
        return has_four_cycle(self.graph)


def has_four_cycle(g: Graph) -> bool:
    """True when some vertex pair has two common neighbours."""
    for u, v in combinations(range(g.order), 2):
        if len(g.neighbor_sets[u] & g.neighbor_sets[v]) >= 2:
            return True
    return False


def structure_report(g: Graph) -> StructureReport:
    """Lazy structure report of g; fields cost nothing until read."""
    return StructureReport(g)


def bipartite_swap_involution(g: Graph, parts: Bipartition) -> VertexMap | None:
    """Order-two automorphism exchanging the two sides of parts, if any.

    The fiber candidate i <-> i + n/2 is tried first since covers are built
    with that layout; otherwise a constrained backtracking search runs.
    """
    from . import iso

    if not parts.is_valid_for(g):
        raise ParameterError("parts is not a valid bipartition of g")
    zero, one = parts.classes()
    if len(zero) != len(one):
        return None
    half = g.order // 2
    if g.order % 2 == 0 and zero == tuple(range(half)):
        candidate = VertexMap(tuple((v + half) % g.order for v in range(g.order)))
        if candidate.is_automorphism(g):
            return candidate
    return iso.find_swap_involution(g, parts.sides)
