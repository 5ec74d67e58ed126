"""Finite simple graphs: families, products, covers, and structure reports.

Vertices are 0..order-1 throughout. Families emit deterministic labels so
derived artifacts stay byte-stable across runs.

The public constructor checks and normalises its edges, for files and
hand-built graphs alike. The named families, line_graph, cartesian_product,
the factors of cartesian_factors, kronecker_cover and incidence.levi_graph
build edges that are canonical already (distinct, in range, u < v, sorted,
Python ints) and set them through Graph._canonical without checking them
again.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, repeat

from .errors import ParameterError


def _integer(x, what: str) -> int:
    """x as an int when it is an integer, numpy integers included; a bool,
    a float or a string is a ParameterError."""
    try:
        if isinstance(x, bool):
            raise TypeError
        return operator.index(x)
    except TypeError:
        raise ParameterError(f"{what} must be an integer, not {type(x).__name__}") from None


def _count(x, what: str) -> int:
    """x as an int when it is a non-negative integer (see _integer)."""
    n = _integer(x, what)
    if n < 0:
        raise ParameterError(f"{what} must be non-negative")
    return n


def _int_rows(rows, what: str, table: str = "table") -> tuple:
    """rows as a tuple, unchanged when every entry is an int; otherwise each
    row as a tuple of _integer entries, so that the first entry that is no
    integer is named. One pass over the entries' types decides. A table that
    is not a sequence, named table, or its first row that is not one, is a
    ParameterError that names it."""
    try:
        rows = tuple(rows)
    except TypeError:
        if isinstance(rows, Iterable):  # an error while iterating is not ours to rename
            raise
        raise ParameterError(f"{table} must be a sequence, not {type(rows).__name__}") from None
    try:
        if {int}.issuperset(map(type, chain.from_iterable(rows))):
            return rows
    except TypeError:
        row = next(row for row in rows if not isinstance(row, Iterable))
        raise ParameterError(f"{what.removesuffix(' entry')} {row!r} is not a sequence") from None
    return tuple(tuple(_integer(x, f"{what} {x!r}") for x in row) for row in rows)


def _int_row(row, what: str) -> tuple:
    """row as a tuple of ints, by the rule of _int_rows."""
    return _int_rows((tuple(row) if isinstance(row, Iterable) else row,), what)[0]


def _real(x, what: str) -> float:
    """x as a float when it is a real number, numpy numbers included; a bool,
    a string, None, a list or an int too large for a float is refused."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ParameterError(f"{what} must be a number, not {type(x).__name__}")
    try:
        return float(x)
    except OverflowError:
        raise ParameterError(f"{what} is too large for a float") from None


def _real_rows(rows, what: str, shape: str):
    """rows unchanged when they are an array of integer or float dtype (told
    by duck typing: graphs imports no numpy) or lists or tuples of floats;
    otherwise each row as a tuple of _real entries, so that the first entry
    that is no real number is named. A table or a row that is not a
    sequence, and rows of unequal length, raise ParameterError(shape)."""
    if getattr(getattr(rows, "dtype", None), "kind", None) in ("i", "u", "f"):
        return rows
    try:
        rows = tuple(rows)
        if not ({list, tuple}.issuperset(map(type, rows)) and {float}.issuperset(map(type, chain.from_iterable(rows)))):
            rows = tuple(tuple(_real(x, f"{what} {x!r}") for x in row) for row in rows)
    except TypeError:  # a table or a row that is not iterable
        raise ParameterError(shape) from None
    if len(set(map(len, rows))) > 1:
        raise ParameterError(shape)
    return rows


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph. Edges are normalized to sorted (u, v) with u < v.

    The constructor refuses non-integer entries, loops, edges outside
    0..order-1 and labels other than a sequence of order strings. The
    library's own builders (see the module docstring) skip it by _canonical.
    """

    order: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "order", _count(self.order, "graph order"))
        seen = set()
        for e in _int_rows(self.edges, "edge entry", "edges"):
            try:
                u, v = e
            except ValueError:
                raise ParameterError(f"edge {tuple(e)} is not a pair of vertices") from None
            if u == v:
                raise ParameterError(f"loop at vertex {u}")
            if not (0 <= u < self.order and 0 <= v < self.order):
                raise ParameterError(f"edge ({u},{v}) outside vertex range")
            seen.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        if self.labels is not None:
            if isinstance(self.labels, str) or not isinstance(self.labels, Sequence):
                raise ParameterError(f"labels must be a sequence, not {type(self.labels).__name__}")
            labels = tuple(self.labels)
            for x in labels:
                if not isinstance(x, str):
                    raise ParameterError(f"label {x!r} must be a string, not {type(x).__name__}")
            if len(labels) != self.order:
                raise ParameterError("label count must match order")
            object.__setattr__(self, "labels", labels)

    @classmethod
    def _canonical(cls, order: int, edges: tuple[tuple[int, int], ...], labels: tuple[str, ...] | None) -> Graph:
        """The graph with these fields, set as given and checked by no one:
        for callers whose edges are distinct pairs u < v of Python ints in
        0..order-1, in increasing order, and whose labels are order strings
        or None, so that the public constructor would return the same graph."""
        g = object.__new__(cls)
        object.__setattr__(g, "order", order)
        object.__setattr__(g, "edges", edges)
        object.__setattr__(g, "labels", labels)
        return g

    @property
    def size(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours in increasing order. The edges are sorted
        with u < v, so v meets its lower neighbours (u, v) in increasing u
        before its higher ones (v, w) in increasing w."""
        nbr: list[list[int]] = [[] for _ in range(self.order)]
        for u, v in self.edges:
            nbr[u].append(v)
            nbr[v].append(u)
        return tuple(map(tuple, nbr))

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
        object.__setattr__(self, "sides", _int_row(self.sides, "bipartition side"))
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
        object.__setattr__(self, "image", _int_row(self.image, "vertex image"))

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

    def cycles(self) -> list[list[int]]:
        """The cycles, each from its least element, in increasing order of it,
        by one walk; a walk that ends anywhere but at its start met a second
        preimage or an image out of range, and raises ParameterError."""
        n = len(self.image)
        seen = [False] * n
        out = []
        for v in range(n):
            if seen[v]:
                continue
            cycle, w = [], v
            while 0 <= w < n and not seen[w]:
                seen[w] = True
                cycle.append(w)
                w = self.image[w]
            if w != v:
                raise ParameterError("vertex map is not a bijection")
            out.append(cycle)
        return out

    def permutation_order(self) -> int:
        return math.lcm(*map(len, self.cycles()))


# ---------------------------------------------------------------------------
# families


def _ring_edges(n: int, r: int, base: int) -> tuple[tuple[int, int], ...]:
    """Sorted edges joining base + i to base + (i + r) % n, for 1 <= r < n/2:
    vertex i's neighbours above it are i + r and, when i < r, i + n - r."""
    return tuple((base + i, base + j) for i in range(n) for j in (i + r, i + n - r) if j < n)


def _spoked_rings(n: int, r: int) -> tuple[tuple[int, int], ...]:
    """Sorted edges of the n-cycle on 0..n-1 and the step-r ring on n..2n-1,
    joined by the spokes (i, n + i)."""
    edges = [(0, 1), (0, n - 1), (0, n)]
    for i in range(1, n - 1):
        edges += ((i, i + 1), (i, n + i))
    edges.append((n - 1, 2 * n - 1))
    return tuple(edges) + _ring_edges(n, r, n)


def cycle_graph(n: int) -> Graph:
    n = _integer(n, "n")
    if n < 3:
        raise ParameterError("cycle needs n >= 3")
    return Graph._canonical(n, _ring_edges(n, 1, 0), tuple(str(i) for i in range(n)))


def path_graph(n: int) -> Graph:
    n = _integer(n, "n")
    if n < 1:
        raise ParameterError("path needs n >= 1")
    return Graph._canonical(n, tuple((i, i + 1) for i in range(n - 1)), tuple(str(i) for i in range(n)))


def complete_graph(n: int) -> Graph:
    n = _integer(n, "n")
    if n < 1:
        raise ParameterError("complete graph needs n >= 1")
    return Graph._canonical(n, tuple(combinations(range(n), 2)), tuple(str(i) for i in range(n)))


def prism_graph(n: int) -> Graph:
    """Two concentric n-cycles joined by rungs; labels record (ring, index)."""
    n = _integer(n, "n")
    if n < 3:
        raise ParameterError("prism needs n >= 3")
    labels = tuple(f"(0,{i})" for i in range(n)) + tuple(f"(1,{i})" for i in range(n))
    return Graph._canonical(2 * n, _spoked_rings(n, 1), labels)


def hypercube_graph(d: int) -> Graph:
    """d-cube on bitmask vertices; labels are the d-bit strings."""
    d = _integer(d, "d")
    if d < 1:
        raise ParameterError("hypercube needs d >= 1")
    n = 1 << d
    edges = tuple((v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b))
    return Graph._canonical(n, edges, tuple(format(v, f"0{d}b") for v in range(n)))


def _subset_label(s: tuple[int, ...]) -> str:
    return "{" + ",".join(str(x) for x in s) + "}"


def kneser_graph(n: int, k: int) -> Graph:
    """K(n,k): k-subsets of an n-set, adjacent when disjoint. A subset's
    neighbours are the k-subsets of its complement, in increasing index, so
    the cost is O(E)."""
    n, k = _integer(n, "n"), _integer(k, "k")
    if k < 1 or n < 2 * k:
        raise ParameterError("kneser needs 1 <= k and n >= 2k")
    verts = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(verts)}
    edges = tuple(
        (i, index[t])
        for i, s in enumerate(verts)
        for t in combinations([x for x in range(n) if x not in s], k)
        if index[t] > i
    )
    return Graph._canonical(len(verts), edges, tuple(_subset_label(s) for s in verts))


def bipartite_kneser_graph(n: int, k: int) -> Graph:
    """H(n,k): k-subsets vs (n-k)-subsets, adjacent under containment.

    The supersets of a k-subset are the complements of the k-subsets of its
    complement, and complementing reverses lexicographic order, so the
    (n-k)-subset large[j] is the complement of small[ns - 1 - j]. Walking
    those k-subsets backwards lists the supersets in increasing index. The
    cost is O(E)."""
    n, k = _integer(n, "n"), _integer(k, "k")
    if k < 1 or n <= 2 * k:
        raise ParameterError("bipartite kneser needs 1 <= k and n > 2k")
    small = list(combinations(range(n), k))
    large = list(combinations(range(n), n - k))
    ns = len(small)
    index = {s: i for i, s in enumerate(small)}
    edges = tuple(
        (i, 2 * ns - 1 - index[u])
        for i, s in enumerate(small)
        for u in reversed(list(combinations([x for x in range(n) if x not in s], k)))
    )
    labels = tuple(_subset_label(s) for s in small) + tuple(_subset_label(t) for t in large)
    return Graph._canonical(ns + len(large), edges, labels)


def odd_graph(m: int) -> Graph:
    """O_m = K(2m-1, m-1); O_3 is the Petersen graph."""
    m = _integer(m, "m")
    if m < 2:
        raise ParameterError("odd graph needs m >= 2")
    return kneser_graph(2 * m - 1, m - 1)


def petersen_graph() -> Graph:
    return kneser_graph(5, 2)


def desargues_graph() -> Graph:
    return bipartite_kneser_graph(5, 2)


def generalized_petersen_graph(n: int, r: int) -> Graph:
    """GP(n,r): outer n-cycle, inner star polygon with step r, spokes."""
    n, r = _integer(n, "n"), _integer(r, "r")
    if n < 3 or r < 1 or 2 * r >= n:
        raise ParameterError("generalized petersen needs n >= 3 and 1 <= r < n/2")
    labels = tuple(f"o{i}" for i in range(n)) + tuple(f"i{i}" for i in range(n))
    return Graph._canonical(2 * n, _spoked_rings(n, r), labels)


def dodecahedron_graph() -> Graph:
    """Dodecahedral skeleton, constructed as GP(10,2)."""
    return generalized_petersen_graph(10, 2)


def gen_cuboctahedron_graph(n: int) -> Graph:
    """CO(n): line graph of the n-prism, a 4-regular graph on 3n vertices."""
    n = _integer(n, "n")
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


# The polytopes whose skeletons spatial.polytope_data builds from coordinates.
# They are named here, away from numpy, so the CLI can offer them at start-up.
POLYTOPE_NAMES = (
    "tetrahedron",
    "cube",
    "octahedron",
    "dodecahedron",
    "icosahedron",
    "cuboctahedron",
)

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
    return fn(*params)


# ---------------------------------------------------------------------------
# constructions


def _upper_neighbours(g: Graph) -> list[list[int]]:
    """Each vertex's neighbours above it, in increasing order."""
    up: list[list[int]] = [[] for _ in range(g.order)]
    for u, v in g.edges:
        up[u].append(v)
    return up


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product; vertex (a, x) sits at index a * h.order + x.

    Above (a, x) lie (a, y) for h's neighbours y above x, then (b, x) for
    g's neighbours b above a, so the edges come out sorted."""
    if g.order == 0 or h.order == 0:
        raise ParameterError("product factors must be non-empty")
    m = h.order
    gu, hu = _upper_neighbours(g), _upper_neighbours(h)
    edges = []
    for a in range(g.order):
        base = a * m
        for x in range(m):
            v = base + x
            edges += [(v, base + y) for y in hu[x]]
            edges += [(v, b * m + x) for b in gu[a]]
    labels = tuple(
        f"({g.label(a)},{h.label(x)})" for a in range(g.order) for x in range(h.order)
    )
    return Graph._canonical(g.order * m, tuple(edges), labels)


def _class_roots(n: int, pairs) -> list[int]:
    """Each of 0..n-1's class, named by its least member, once every pair
    is joined (union-find with path halving)."""
    parent = list(range(n))
    for a, b in pairs:
        while (p := parent[a]) != a:
            parent[a] = a = parent[p]
        while (p := parent[b]) != b:
            parent[b] = b = parent[p]
        if a < b:
            parent[b] = a
        else:
            parent[a] = b
    # parent[i] <= i throughout, so one pass upwards reaches every root
    for i in range(n):
        parent[i] = parent[parent[i]]
    return parent


def cartesian_factors(g: Graph) -> tuple[tuple[Graph, ...], VertexMap]:
    """Cartesian factors of g and a map from g onto their product.

    Edges are related by the delta rule: opposite edges of a chordless
    square, and adjacent edges that do not span exactly one square, or span
    one with a chord. Both hold only within a factor, so the closure (taken
    by union-find) gives one class per factor, or finer classes. Each
    class's layer through vertex 0 is a factor on its vertices in increasing
    order. A vertex's coordinate in that factor is the layer vertex it
    reaches without the class's edges. The map sends a vertex to its index in
    the product of the factors folded left with cartesian_product. It is kept
    only when it is an isomorphism onto that product, which _product_map
    checks on the coordinates, one lookup per edge, without building the
    product. Otherwise, and with one class, g counts as prime and comes back
    alone with the identity map.
    """
    prime = ((g,), VertexMap(tuple(range(g.order))))
    index = {e: i for i, e in enumerate(g.edges)}
    index.update({(v, u): i for (u, v), i in list(index.items())})
    nbrs = g.neighbor_sets

    def related() -> Iterator[tuple[int, int]]:
        for u in range(g.order):
            for v, w in combinations(g.adjacency[u], 2):
                corners = (nbrs[v] & nbrs[w]) - {u}
                chordless = [] if w in nbrs[v] else [x for x in corners if x not in nbrs[u]]
                if len(corners) != 1 or len(chordless) != 1:
                    yield index[u, v], index[u, w]
                # a square is related once, from its least corner
                for x in chordless:
                    if u < v and u < x:
                        yield index[u, v], index[w, x]
                        yield index[u, w], index[v, x]

    edge_roots = _class_roots(g.size, related())
    # classes in the order of their least edge, which is their root
    roots = sorted(set(edge_roots))
    if len(roots) < 2:
        return prime
    cls = {r: c for c, r in enumerate(roots)}
    colour = [cls[r] for r in edge_roots]
    coords = [[0] * len(roots) for _ in range(g.order)]
    factors = []
    for c in range(len(roots)):
        mine = [e for e, k in zip(g.edges, colour) if k == c]
        along = _class_roots(g.order, mine)
        layer = [v for v in range(g.order) if along[v] == 0]
        at = {v: i for i, v in enumerate(layer)}
        # at is increasing, so the layer's edges keep g's order
        edges = tuple((at[u], at[v]) for u, v in mine if u in at)
        factors.append(Graph._canonical(len(layer), edges, tuple(g.label(v) for v in layer)))
        # each component without class-c edges meets the layer once, there
        # at the vertex's coordinate
        across = _class_roots(g.order, (e for e, k in zip(g.edges, colour) if k != c))
        hit = {across[v]: i for i, v in enumerate(layer)}
        if len(hit) < len(layer) or any(r not in hit for r in across):
            return prime
        for xs, r in zip(coords, across):
            xs[c] = hit[r]
    witness = _product_map(g, factors, colour, coords)
    return prime if witness is None else (tuple(factors), witness)


def _product_map(
    g: Graph, factors: list[Graph], colour: list[int], coords: list[list[int]]
) -> VertexMap | None:
    """The map sending each vertex to its index in the product of factors
    (its coordinates in mixed radix, the first factor's highest), when it is
    an isomorphism onto that product; else None. No product is built.

    The product has prod(order_c) vertices and sum(size_c * order / order_c)
    edges, and the map must be a bijection with g's counts. An edge of class
    c lies in one component of the other classes' edges, so with coordinates
    read off those components, as cartesian_factors reads them, its ends
    differ at most in coordinate c: the edge goes to a product edge exactly
    when its two coordinates c are adjacent in factor c. A bijection that
    sends every edge to a product edge, with as many edges as the product,
    is an isomorphism.
    """
    order = math.prod(f.order for f in factors)
    if order != g.order or sum(f.size * (order // f.order) for f in factors) != g.size:
        return None
    image = []
    for xs in coords:
        i = 0
        for f, x in zip(factors, xs):
            i = i * f.order + x
        image.append(i)
    # every index is below order, so distinct indices are all of range(order)
    if len(set(image)) != order:
        return None
    nbrs = [f.neighbor_sets for f in factors]
    if not all(coords[v][c] in nbrs[c][coords[u][c]] for (u, v), c in zip(g.edges, colour)):
        return None
    return VertexMap(tuple(image))


def line_graph(g: Graph) -> Graph:
    """L(g): one vertex per edge of g, adjacent when the edges share an endpoint.

    Two edges of a simple graph share at most one endpoint, so pairing the
    edges at each vertex gives every edge of L(g) once."""
    if g.size == 0:
        raise ParameterError("line graph of an edgeless graph is empty")
    inc: list[list[int]] = [[] for _ in range(g.order)]
    for i, (u, v) in enumerate(g.edges):
        inc[u].append(i)
        inc[v].append(i)
    edges = sorted(chain.from_iterable(map(combinations, inc, repeat(2))))
    labels = tuple(f"{g.label(u)}~{g.label(v)}" for u, v in g.edges)
    return Graph._canonical(g.size, tuple(edges), labels)


def kronecker_cover(g: Graph) -> tuple[Graph, Bipartition]:
    """Canonical double cover: fibers (v,0) -> v and (v,1) -> order + v."""
    n = g.order
    edges = tuple((u, n + v) for u, row in enumerate(g.adjacency) for v in row)
    labels = tuple(f"({g.label(v)},0)" for v in range(n)) + tuple(
        f"({g.label(v)},1)" for v in range(n)
    )
    cover = Graph._canonical(2 * n, edges, labels)
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


def pair_in_two(sets) -> bool:
    """True when some pair of elements lies together in two of the sorted
    tuples of distinct elements; stops at the first set that repeats a pair,
    which is one whose k(k-1)/2 pairs grow the pairs seen by fewer."""
    seen: set[tuple[int, int]] = set()
    for s in sets:
        before = len(seen)
        seen.update(combinations(s, 2))
        k = len(s)
        if len(seen) - before < k * (k - 1) // 2:
            return True
    return False


def has_four_cycle(g: Graph) -> bool:
    """True when some vertex pair has two common neighbours, that is when
    two neighbourhoods share a pair."""
    return pair_in_two(g.adjacency)


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
