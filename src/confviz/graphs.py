"""Finite simple graphs: families, products, covers, and structure reports.

Vertices are 0..order-1 throughout. Families emit deterministic labels so
derived artifacts stay byte-stable across runs.

The public constructor checks and normalises its edges, for files and
hand-built graphs alike. The named families, line_graph, cartesian_product,
the factors of cartesian_factors, kronecker_cover and incidence.levi_graph
build edges that are canonical already (distinct, in range, u < v, sorted,
Python ints) and set them through _unchecked without checking them again.

prism_graph, generalized_petersen_graph and hypercube_graph also record,
through _unchecked, which family member they built: Graph._family. Only
this module reads it, and a graph from the constructor or a file records
nothing. From the record, cartesian_factors forms the factorization of
prism(n) and GP(n,1), n != 4, and of hypercube(d), d >= 2, in closed form
instead of recognizing it. A connected graph factors uniquely into primes
(Sabidussi, Vizing), so the closed form names the factors the recognizer
finds; the tests hold the two equal field for field. _free_turns lists a
GP(n,r)'s free actions for iso when they are its rotations, and _connected
answers for a recorded graph, connected by construction, without a walk.
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

# the most vertices a graph, or points a structure, may have: far above the
# ladder's 1,024, so that a file naming 2**31 of them is refused at once
MAX_ORDER = 1 << 20
# the most edges a family builder makes: far above the ladder's largest,
# hypercube(10) with 5,120, and complete(2048) still builds
_MAX_SIZE = 1 << 21


def _shown(x) -> str:
    """repr(x) for an error message, with an int that has more digits than
    the interpreter writes out (sys.get_int_max_str_digits), alone or in a
    tuple, shown by its bit length instead."""
    if type(x) is tuple:
        return f"({', '.join(map(_shown, x))}{',' * (len(x) == 1)})"
    try:
        return repr(x)
    except ValueError:
        return f"{'-' * (x < 0)}<{x.bit_length()}-bit integer>"


def _integer(x, what: str, shown: bool = False) -> int:
    """x as an int when it is an integer, numpy integers included; a bool,
    a float or a string is a ParameterError, which names x after what when
    shown (the text is formed only then)."""
    try:
        if isinstance(x, bool):
            raise TypeError
        return operator.index(x)
    except TypeError:
        if shown:
            what = f"{what} {_shown(x)}"
        raise ParameterError(f"{what} must be an integer, not {type(x).__name__}") from None


def _count(x, what: str) -> int:
    """x as an int when it is a non-negative integer (see _integer)."""
    n = _integer(x, what)
    if n < 0:
        raise ParameterError(f"{what} must be non-negative")
    return n


def _size(x, what: str) -> int:
    """x as an int when it is a non-negative integer no larger than MAX_ORDER."""
    n = _count(x, what)
    if n > MAX_ORDER:
        raise ParameterError(f"{what} {_shown(n)} is above the limit of {MAX_ORDER}")
    return n


def _bounded(order: int, size: int) -> None:
    """Refuse a family member of more than MAX_ORDER vertices or _MAX_SIZE
    edges, from its closed-form counts, before its builder allocates."""
    _size(order, "graph order")
    if size > _MAX_SIZE:
        raise ParameterError(f"graph size {size} is above the limit of {_MAX_SIZE}")


def _subset_count(n: int, k: int) -> int:
    """C(n, k) for 1 <= k <= n/2, refused before a huge binomial is formed:
    C(n, k) >= n, and C(n, k) >= C(2k, k) >= 2**k."""
    if n > MAX_ORDER or k >= MAX_ORDER.bit_length():
        raise ParameterError(f"graph order at least C({_shown(n)},{_shown(k)}) is above the limit of {MAX_ORDER}")
    return math.comb(n, k)


def _unchecked(cls, **fields):
    """An instance of the dataclass cls with these fields, set as given and
    checked by no one: for the library's builders, whose fields come out as
    the constructor would leave them, so that cls(**fields) would build an
    equal object."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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
        raise ParameterError(f"{what.removesuffix(' entry')} {_shown(row)} is not a sequence") from None
    return tuple(tuple(_integer(x, what, True) for x in row) for row in rows)


def _int_row(row, what: str) -> tuple:
    """row as a tuple of ints, by the rule of _int_rows."""
    return _int_rows((tuple(row) if isinstance(row, Iterable) else row,), what)[0]


def _real(x, what: str, shown: bool = False) -> float:
    """x as a float when it is a real number, numpy numbers included; a bool,
    a string, None, a list or an int too large for a float is refused, with
    x named after what when shown (see _integer)."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        why = f"must be a number, not {type(x).__name__}"
    else:
        try:
            return float(x)
        except OverflowError:
            why = "is too large for a float"
    raise ParameterError(f"{what} {_shown(x)} {why}" if shown else f"{what} {why}")


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
            rows = tuple(tuple(_real(x, what, True) for x in row) for row in rows)
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
    library's own builders (see the module docstring) skip it by _unchecked.
    """

    order: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] | None = None
    # the family member a builder made: ("prism", n), ("gen_petersen", n, r)
    # or ("hypercube", d) (see the module docstring). Only _unchecked sets
    # it; it is no field, so equality, hashing, repr and files never see it.
    _family = None

    def __post_init__(self):
        object.__setattr__(self, "order", _size(self.order, "graph order"))
        seen = set()
        for e in _int_rows(self.edges, "edge entry", "edges"):
            try:
                u, v = e
            except ValueError:
                raise ParameterError(f"edge {_shown(tuple(e))} is not a pair of vertices") from None
            if u == v:
                raise ParameterError(f"loop at vertex {_shown(u)}")
            if not (0 <= u < self.order and 0 <= v < self.order):
                raise ParameterError(f"edge ({_shown(u)},{_shown(v)}) outside vertex range")
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
    _bounded(n, n)
    return _unchecked(Graph, order=n, edges=_ring_edges(n, 1, 0), labels=tuple(str(i) for i in range(n)))


def path_graph(n: int) -> Graph:
    n = _integer(n, "n")
    if n < 1:
        raise ParameterError("path needs n >= 1")
    _bounded(n, n - 1)
    edges = tuple((i, i + 1) for i in range(n - 1))
    return _unchecked(Graph, order=n, edges=edges, labels=tuple(str(i) for i in range(n)))


def complete_graph(n: int) -> Graph:
    n = _integer(n, "n")
    if n < 1:
        raise ParameterError("complete graph needs n >= 1")
    _bounded(n, n * (n - 1) // 2)
    return _unchecked(Graph, order=n, edges=tuple(combinations(range(n), 2)), labels=tuple(str(i) for i in range(n)))


def prism_graph(n: int) -> Graph:
    """Two concentric n-cycles joined by rungs; labels record (ring, index)."""
    n = _integer(n, "n")
    if n < 3:
        raise ParameterError("prism needs n >= 3")
    _bounded(2 * n, 3 * n)
    labels = tuple(f"(0,{i})" for i in range(n)) + tuple(f"(1,{i})" for i in range(n))
    return _unchecked(Graph, order=2 * n, edges=_spoked_rings(n, 1), labels=labels, _family=("prism", n))


def hypercube_graph(d: int) -> Graph:
    """d-cube on bitmask vertices; labels are the d-bit strings."""
    d = _integer(d, "d")
    if d < 1:
        raise ParameterError("hypercube needs d >= 1")
    if d >= MAX_ORDER.bit_length():  # 2**d is past the limit: not worth forming
        raise ParameterError(f"graph order 2**{_shown(d)} is above the limit of {MAX_ORDER}")
    n = 1 << d
    _bounded(n, d * n // 2)
    edges = tuple((v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b))
    labels = tuple(format(v, f"0{d}b") for v in range(n))
    return _unchecked(Graph, order=n, edges=edges, labels=labels, _family=("hypercube", d))


def _subset_label(s: tuple[int, ...]) -> str:
    return "{" + ",".join(str(x) for x in s) + "}"


def kneser_graph(n: int, k: int) -> Graph:
    """K(n,k): k-subsets of an n-set, adjacent when disjoint. A subset's
    neighbours are the k-subsets of its complement, in increasing index, so
    the cost is O(E)."""
    n, k = _integer(n, "n"), _integer(k, "k")
    if k < 1 or n < 2 * k:
        raise ParameterError("kneser needs 1 <= k and n >= 2k")
    order = _subset_count(n, k)
    _bounded(order, order * math.comb(n - k, k) // 2)
    verts = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(verts)}
    edges = tuple(
        (i, index[t])
        for i, s in enumerate(verts)
        for t in combinations([x for x in range(n) if x not in s], k)
        if index[t] > i
    )
    return _unchecked(Graph, order=len(verts), edges=edges, labels=tuple(_subset_label(s) for s in verts))


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
    half = _subset_count(n, k)
    _bounded(2 * half, half * math.comb(n - k, k))
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
    return _unchecked(Graph, order=ns + len(large), edges=edges, labels=labels)


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
    _bounded(2 * n, 3 * n)
    labels = tuple(f"o{i}" for i in range(n)) + tuple(f"i{i}" for i in range(n))
    edges = _spoked_rings(n, r)
    return _unchecked(Graph, order=2 * n, edges=edges, labels=labels, _family=("gen_petersen", n, r))


def dodecahedron_graph() -> Graph:
    """Dodecahedral skeleton, constructed as GP(10,2)."""
    return generalized_petersen_graph(10, 2)


def gen_cuboctahedron_graph(n: int) -> Graph:
    """CO(n): line graph of the n-prism, a 4-regular graph on 3n vertices."""
    n = _integer(n, "n")
    if n < 3:
        raise ParameterError("generalized cuboctahedron needs n >= 3")
    _bounded(3 * n, 6 * n)
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
    return _unchecked(Graph, order=g.order * m, edges=tuple(edges), labels=labels)


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

    A family graph whose factorization is known (see the module docstring)
    gets it in closed form; every other graph is recognized as follows.
    Edges are related by the delta rule: opposite edges of a chordless
    square, and adjacent edges that do not span exactly one square, or span
    one with a chord. Both hold only within a factor, so the closure (taken
    by union-find) gives one class per factor, or finer classes. Each
    class's layer through vertex 0 is a factor on its vertices in increasing
    order. A vertex's coordinate in that factor is the layer vertex it
    reaches without the class's edges. The map sends a vertex to its index
    in the product of the factors folded left with cartesian_product. It is
    kept only when it is an isomorphism onto that product, which
    _product_map checks on the coordinates, one lookup per edge, without
    building the product. Otherwise, and with one class, g counts as prime
    and comes back alone with the identity map.
    """
    match g._family:
        # prism(4) = GP(4,1) is the 3-cube, with three factors
        case ("prism", n) | ("gen_petersen", n, 1) if n != 4:
            return _prism_factors(g, n)
        # the 1-cube is K_2, which is prime
        case ("hypercube", d) if d >= 2:
            return _cube_factors(g, d)
    prime = ((g,), VertexMap(tuple(range(g.order))))
    nbrs = g.neighbor_sets
    # each vertex's edge indices, by neighbour
    index: list[dict[int, int]] = [{} for _ in range(g.order)]
    for i, (u, v) in enumerate(g.edges):
        index[u][v] = index[v][u] = i
    # pairs of related edges, by index
    related: list[tuple[int, int]] = []
    for u, (at_u, around, nu) in enumerate(zip(index, g.adjacency, nbrs)):
        for v, w in combinations(around, 2):
            nv = nbrs[v]
            # u and the other corners of the squares on u, v and w
            corners = nv & nbrs[w]
            if len(corners) == 1 or w in nv:  # no square, or a chord
                related.append((at_u[v], at_u[w]))
                continue
            # u and the corners x that close a chordless square u, v, x, w
            free = corners - nu
            if len(corners) != 2 or len(free) != 2:
                related.append((at_u[v], at_u[w]))
            # a square is related once, from its least corner
            if u < v:
                for x in free:
                    if u < x:
                        related += ((at_u[v], index[w][x]), (at_u[w], index[v][x]))
    parent = _class_roots(g.size, related)
    # classes in the order of their least edge, which is their root
    roots = sorted(set(parent))
    if len(roots) < 2:
        return prime
    cls = {r: c for c, r in enumerate(roots)}
    by_class: list[list[tuple[int, int]]] = [[] for _ in roots]
    for e, r in zip(g.edges, parent):
        by_class[cls[r]].append(e)
    # each factor's coordinate of every vertex
    coords = []
    factors = []
    for c, mine in enumerate(by_class):
        along = _class_roots(g.order, mine)
        layer = [v for v in range(g.order) if along[v] == 0]
        at = {v: i for i, v in enumerate(layer)}
        # at is increasing, so the layer's edges keep g's order
        edges = tuple((at[u], at[v]) for u, v in mine if u in at)
        factors.append(_unchecked(Graph, order=len(layer), edges=edges, labels=tuple(g.label(v) for v in layer)))
        # each component without class-c edges meets the layer once, there
        # at the vertex's coordinate
        across = _class_roots(g.order, chain.from_iterable(by_class[:c] + by_class[c + 1:]))
        hit = {across[v]: i for i, v in enumerate(layer)}
        if len(hit) < len(layer) or len(hit) < len(set(across)):
            return prime
        coords.append([hit[r] for r in across])
    witness = _product_map(g, factors, by_class, coords)
    return prime if witness is None else (tuple(factors), witness)


def _prism_factors(g: Graph, n: int) -> tuple[tuple[Graph, ...], VertexMap]:
    """cartesian_factors of prism(n) or GP(n,1), n != 4, in closed form: the
    n-cycle on the first ring, then K_2 on a rung; vertex v sits at
    (v % n, v // n) of C_n x K_2."""
    labels = g.labels
    cycle = _unchecked(Graph, order=n, edges=_ring_edges(n, 1, 0), labels=labels[:n])
    rung = _unchecked(Graph, order=2, edges=((0, 1),), labels=(labels[0], labels[n]))
    image = tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))
    return (cycle, rung), _unchecked(VertexMap, image=image)


def _cube_factors(g: Graph, d: int) -> tuple[tuple[Graph, ...], VertexMap]:
    """cartesian_factors of hypercube(d), d >= 2, in closed form: one K_2 per
    bit, in bit order; bit b of v is coordinate b, which the product reads
    as bit d - 1 - b of the index, so v goes to its d bits reversed."""
    labels = g.labels
    factors = tuple(
        _unchecked(Graph, order=2, edges=((0, 1),), labels=(labels[0], labels[1 << b])) for b in range(d)
    )
    image = [0]
    for b in range(d):
        # v + 2**b for the v below 2**b: bit b set, so image bit d - 1 - b
        image += [i + (1 << (d - 1 - b)) for i in image]
    return factors, _unchecked(VertexMap, image=tuple(image))


def _product_map(
    g: Graph, factors: list[Graph], by_class: list[list[tuple[int, int]]], coords: list[list[int]]
) -> VertexMap | None:
    """The map sending each vertex to its index in the product of factors
    (its coordinates in mixed radix, the first factor's highest), when it is
    an isomorphism onto that product; else None. No product is built.
    Factor c has the edges by_class[c] and the coordinates coords[c].

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
    image = [0] * order
    for f, xs in zip(factors, coords):
        image = [i * f.order + x for i, x in zip(image, xs)]
    # every index is below order, so distinct indices are all of range(order)
    if len(set(image)) != order:
        return None
    for f, mine, xs in zip(factors, by_class, coords):
        nbrs = f.neighbor_sets
        if not all(xs[v] in nbrs[xs[u]] for u, v in mine):
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
    return _unchecked(Graph, order=g.size, edges=tuple(edges), labels=labels)


def kronecker_cover(g: Graph) -> tuple[Graph, Bipartition]:
    """Canonical double cover: fibers (v,0) -> v and (v,1) -> order + v."""
    n = g.order
    edges = tuple((u, n + v) for u, row in enumerate(g.adjacency) for v in row)
    labels = tuple(f"({g.label(v)},0)" for v in range(n)) + tuple(
        f"({g.label(v)},1)" for v in range(n)
    )
    cover = _unchecked(Graph, order=2 * n, edges=edges, labels=labels)
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


def _connected(g: Graph) -> bool:
    """True when one BFS from vertex 0 reaches every vertex; the empty
    graph, and a family member that records itself, connected by
    construction, count as connected without a walk."""
    return g._family is not None or g.order == 0 or sum(map(len, bfs_layers(g, 0, [-1] * g.order))) == g.order


def _free_turns(g: Graph, k: int) -> Iterator[VertexMap] | None:
    """The free actions of order k of a recorded GP(n,r) when they are its
    rotations, or None. Aut GP(n,r) is the dihedral group of its rings
    unless r*r = +-1 (mod n) or (n, r) = (10, 2) (Frucht, Graver and
    Watkins, Proc. Cambridge Philos. Soc. 70, 1971), so for k >= 3 (k = 2
    adds reflections) those are the turns i -> i + s (mod n) of both rings
    with n / gcd(s, n) = k, listed in increasing s: iso's search order."""
    match g._family:
        case ("gen_petersen", n, r) if k >= 3 and (r * r + 1) % n and (r * r - 1) % n and (n, r) != (10, 2):
            return (
                _unchecked(VertexMap, image=(*range(s, n), *range(s), *range(n + s, 2 * n), *range(n, n + s)))
                for s in range(1, n)
                if n // math.gcd(s, n) == k
            )
    return None


@dataclass(frozen=True)
class StructureReport:
    """Structure of a graph; each field is computed when first read."""

    graph: Graph

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
        return _connected(self.graph)

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

