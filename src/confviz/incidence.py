"""Incidence structures built from graph neighbourhoods.

The key object is the structure N(G) = (V(G), S(G)) whose block v is the
neighbourhood N(v) of an admissible graph. The identity, point v -> (v,0)
and block v -> (v,1), maps its Levi graph onto the canonical double cover
of G, and point v <-> block v is a polarity; verify_kronecker_theorem and
is_self_polar check these maps on the blocks and G's neighbourhoods, so
neither the Levi graph nor the cover is built, and the cover's components
are counted by one breadth-first walk over G. A structure's Levi
components are found once, by one breadth-first walk from points to the
blocks through them and back, and shared by classify and decompose.

The public constructor checks and normalises its blocks, for files and
hand-built structures alike. v_construct and decompose build blocks that
are canonical already (sorted, non-empty, in range and distinct), as
levi_graph builds canonical edges, and all three set their fields through
graphs._unchecked without checking them again.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .errors import AdmissibilityError, ParameterError
from .graphs import (
    Bipartition,
    Graph,
    VertexMap,
    _int_rows,
    _shown,
    _size,
    _unchecked,
    bfs_layers,
    is_admissible,
    pair_in_two,
)


@dataclass(frozen=True)
class IncidenceStructure:
    """Points 0..points-1 plus a tuple of distinct blocks, each sorted.

    Blocks keep the order they are given in, so block j of a V-construction
    is N(j), and provenance is a string. The cached levi_components takes no
    part in equality, hashing, repr or the JSON form.
    """

    points: int
    blocks: tuple[tuple[int, ...], ...]
    provenance: str = ""

    def __post_init__(self):
        object.__setattr__(self, "points", _size(self.points, "point count"))
        if not isinstance(self.provenance, str):
            raise ParameterError(f"provenance must be a string, not {type(self.provenance).__name__}")
        norm = []
        for blk in _int_rows(self.blocks, "block entry", "blocks"):
            b = tuple(sorted(blk))
            if len(b) == 0:
                raise ParameterError("empty block")
            if len(set(b)) != len(b):
                raise ParameterError(f"repeated point in block {_shown(b)}")
            if b[0] < 0 or b[-1] >= self.points:
                raise ParameterError(f"block {_shown(b)} outside point range")
            norm.append(b)
        if len(set(norm)) != len(norm):
            raise ParameterError("blocks must be pairwise distinct as sets")
        object.__setattr__(self, "blocks", tuple(norm))

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def point_degrees(self) -> list[int]:
        deg = [0] * self.points
        for blk in self.blocks:
            for p in blk:
                deg[p] += 1
        return deg

    @cached_property
    def levi_components(self) -> tuple[tuple[int, ...], ...]:
        """Components of the Levi graph, each sorted, in order of least vertex,
        by one breadth-first walk from points to the blocks through them and
        on to those blocks' points; no Levi graph is built. Computed once per
        structure and kept outside the dataclass fields."""
        n, blocks = self.points, self.blocks
        through = _blocks_through(self)
        point_seen = [False] * n
        block_seen = [False] * len(blocks)
        comps = []
        # every block holds a point, so a component's least vertex is a point
        for root in range(n):
            if point_seen[root]:
                continue
            point_seen[root] = True
            pts, blks = [root], []
            for p in pts:
                for j in through[p]:
                    if not block_seen[j]:
                        block_seen[j] = True
                        blks.append(n + j)
                        for q in blocks[j]:
                            if not point_seen[q]:
                                point_seen[q] = True
                                pts.append(q)
            if len(pts) == n:  # every point, so every block
                return (tuple(range(n + len(blocks))),)
            pts.sort()
            blks.sort()
            comps.append(tuple(pts + blks))
        return tuple(comps)


def _blocks_through(c: IncidenceStructure) -> list[list[int]]:
    """For each point, the indices of the blocks holding it, in increasing order."""
    through: list[list[int]] = [[] for _ in range(c.points)]
    for j, blk in enumerate(c.blocks):
        for p in blk:
            through[p].append(j)
    return through


@dataclass(frozen=True)
class ConfigClass:
    """Classification summary of an incidence structure."""

    point_count: int
    block_count: int
    point_degree_range: tuple[int, int]
    block_size_range: tuple[int, int]
    balanced_type: tuple[int, int] | None
    lineal: bool
    connected: bool
    self_polar: bool | None
    pointline_impossible: bool

    def describe(self) -> str:
        if self.balanced_type is not None:
            n, k = self.balanced_type
            parts = [f"({n}_{k})"]
        else:
            parts = [
                f"{self.point_count} points / {self.block_count} blocks, "
                f"degrees {self.point_degree_range[0]}..{self.point_degree_range[1]}, "
                f"sizes {self.block_size_range[0]}..{self.block_size_range[1]}"
            ]
        parts.append("lineal" if self.lineal else "not lineal")
        parts.append("connected" if self.connected else "disconnected")
        if self.self_polar is not None:
            parts.append("self-polar" if self.self_polar else "not self-polar")
        if self.pointline_impossible:
            parts.append("no point-line realization (n <= 17)")
        return ", ".join(parts)


def v_construct(g: Graph, collapse: bool = False) -> IncidenceStructure:
    """Block v is the neighbourhood N(v).

    Without collapse the graph must be admissible so that the block count
    equals the vertex count; with collapse duplicate neighbourhoods are
    merged, each kept where it first occurs, and the result may have fewer
    blocks than points. The blocks are g.adjacency's rows, sorted and
    non-empty, and distinct by admissibility or by the merge, so the
    structure is built without the constructor's checks.
    """
    if any(len(ns) == 0 for ns in g.neighbor_sets):
        raise ParameterError("v_construct needs a graph without isolated vertices")
    if not collapse:
        ok, pair = is_admissible(g)
        if not ok:
            raise AdmissibilityError(
                f"vertices {pair[0]} and {pair[1]} share a neighbourhood; "
                "pass collapse=True to merge duplicate blocks",
                pair=pair,
            )
    blocks = tuple(dict.fromkeys(g.adjacency)) if collapse else g.adjacency
    provenance = f"v_construct(order={g.order}, size={g.size}, collapse={collapse})"
    return _unchecked(IncidenceStructure, points=g.order, blocks=blocks, provenance=provenance)


def levi_graph(c: IncidenceStructure) -> tuple[Graph, Bipartition]:
    """Bipartite incidence graph: points 0..n-1, block j at index n + j.
    Point p's edges (p, n + j) come in increasing j, so they are sorted."""
    n = c.points
    labels = tuple(f"p{i}" for i in range(n)) + tuple(f"b{j}" for j in range(c.block_count))
    edges = tuple((p, n + j) for p, js in enumerate(_blocks_through(c)) for j in js)
    g = _unchecked(Graph, order=n + c.block_count, edges=edges, labels=labels)
    return g, Bipartition((0,) * n + (1,) * c.block_count)


def is_self_polar(c: IncidenceStructure) -> VertexMap | None:
    """Order-two Levi automorphism exchanging points and blocks, or None.

    Unless there are as many points as blocks there is none. Otherwise the
    pairing point i <-> block i is checked on the blocks in O(E): it is a
    Levi automorphism exactly when i lies in block j whenever j lies in
    block i, and then it is returned. Every V-construction and fano_plane()
    pass this check, whether built in process or read from a file. Any other
    structure builds the Levi graph for iso.find_swap_involution.
    """
    from . import iso

    n = c.points
    if n != c.block_count:
        return None
    members = [set(blk) for blk in c.blocks]
    if all(i in members[j] for i, blk in enumerate(c.blocks) for j in blk):
        return VertexMap(tuple(range(n, 2 * n)) + tuple(range(n)))
    g, parts = levi_graph(c)
    return iso.find_swap_involution(g, parts.sides)


def _lineal(c: IncidenceStructure) -> bool:
    """No two points lie together in two blocks (Levi girth at least 6)."""
    return not pair_in_two(c.blocks)


def classify(c: IncidenceStructure, with_self_polar: bool = False) -> ConfigClass:
    """Type, lineality, connectedness and, when asked, self-polarity of c.

    Connectedness comes from c.levi_components and self-polarity from
    is_self_polar, so a V-construction is classified without building its
    Levi graph.
    """
    if c.points == 0 or c.block_count == 0:
        raise ParameterError("classification needs at least one point and block")
    degrees = c.point_degrees()
    sizes = [len(b) for b in c.blocks]
    balanced = None
    if c.points == c.block_count and len(set(degrees)) == 1 and len(set(sizes)) == 1:
        if degrees[0] == sizes[0]:
            balanced = (c.points, degrees[0])
    self_polar = None
    if with_self_polar:
        self_polar = is_self_polar(c) is not None
    impossible = balanced is not None and balanced[1] == 4 and balanced[0] <= 17
    return ConfigClass(
        point_count=c.points,
        block_count=c.block_count,
        point_degree_range=(min(degrees), max(degrees)),
        block_size_range=(min(sizes), max(sizes)),
        balanced_type=balanced,
        lineal=_lineal(c),
        connected=len(c.levi_components) == 1,
        self_polar=self_polar,
        pointline_impossible=impossible,
    )


def decompose(c: IncidenceStructure) -> list[IncidenceStructure]:
    """Connected components of the Levi graph as re-indexed structures.

    The components are c.levi_components, which classify shares; no Levi
    graph is built. Components are ordered by their smallest original point
    index, and each result records the original indices in its provenance
    string. Points are renumbered in increasing order, which keeps every
    block sorted and the blocks distinct, so the parts skip the
    constructor's checks.
    """
    n = c.points
    out = []
    for idx, comp in enumerate(c.levi_components):
        k = bisect_left(comp, n)  # points come before blocks in a sorted component
        pts, blks = list(comp[:k]), [v - n for v in comp[k:]]
        if k == n:  # every point, so every block, in order
            blocks = c.blocks
        else:
            remap = dict(zip(pts, range(k)))
            blocks = tuple(tuple(map(remap.__getitem__, c.blocks[j])) for j in blks)
        provenance = f"{c.provenance} | component {idx}: points {pts}, blocks {blks}"
        out.append(_unchecked(IncidenceStructure, points=k, blocks=blocks, provenance=provenance))
    return out


def _cover_components(g: Graph) -> int:
    """Components of g's Kronecker cover, from one BFS over g.

    A connected graph's cover is connected when the graph has an odd cycle
    and splits in two when it is bipartite (Weichsel), so each component of
    g counts twice unless some edge joins two vertices of one BFS layer.
    While layer d is yielded, only layers up to d are marked, so a marked
    neighbour at depth d lies in the same layer.
    """
    depth = [-1] * g.order
    adjacency = g.adjacency
    count = 0
    for root in range(g.order):
        if depth[root] < 0:
            odd = False
            for d, layer in enumerate(bfs_layers(g, root, depth)):
                odd = odd or any(depth[w] == d for v in layer for w in adjacency[v])
            count += 1 if odd else 2
    return count


@dataclass(frozen=True)
class KroneckerReport:
    """Outcome of checking Levi(N(g)) against the canonical double cover."""

    admissible: bool
    offending_pair: tuple[int, int] | None
    verified: bool
    witness: VertexMap | None
    levi_order: int
    cover_order: int
    cover_components: int
    collapsed_block_count: int | None

    def describe(self) -> str:
        if not self.admissible:
            return (
                f"not admissible: vertices {self.offending_pair[0]} and "
                f"{self.offending_pair[1]} share a neighbourhood; collapsed "
                f"structure keeps {self.collapsed_block_count} blocks, cover has "
                f"{self.cover_components} component(s)"
            )
        status = "verified" if self.verified else "FAILED"
        return (
            f"admissible; Levi graph on {self.levi_order} vertices vs cover on "
            f"{self.cover_order}: isomorphism {status}"
        )


def verify_kronecker_theorem(g: Graph) -> KroneckerReport:
    """Certify Levi(N(g)) == kronecker_cover(g) for admissible g, on g itself.

    The cover has vertices (v,0) -> v and (v,1) -> order + v and an edge
    (u,0)(v,1) for each ordered pair of adjacent u, v. Block v is N(v), so
    the witness is the identity, point i -> (i,0) and block j -> (j,1). It
    is checked in O(E) without building either graph: there must be order
    points and blocks, holding exactly 2 * g.size incidences, and block j
    must lie inside N(j). A bijection that sends every Levi edge onto a
    cover edge, with equal edge counts, is an isomorphism. The cover's
    components are counted on g (_cover_components). N(g) is built once,
    with shared neighbourhoods merged, so for a non-admissible g the report
    instead documents how the collapsed structure falls short of the cover.
    """
    n = g.order
    c = v_construct(g, collapse=True)  # N(g) itself when g is admissible
    admissible, pair = is_admissible(g)
    verified = admissible and (
        c.points == c.block_count == n
        and sum(map(len, c.blocks)) == 2 * g.size
        and all(map(frozenset.issuperset, g.neighbor_sets, c.blocks))
    )
    return KroneckerReport(
        admissible=admissible,
        offending_pair=pair,
        verified=verified,
        witness=VertexMap(tuple(range(2 * n))) if verified else None,
        levi_order=c.points + c.block_count,
        cover_order=2 * n,
        cover_components=_cover_components(g),
        collapsed_block_count=None if admissible else c.block_count,
    )


def fano_plane() -> IncidenceStructure:
    """The (7_3) plane over GF(2): blocks are the triples with a ^ b ^ c == 0."""
    blocks = [
        tuple(x - 1 for x in trip)
        for trip in (
            (a, b, a ^ b) for a in range(1, 8) for b in range(a + 1, 8) if a ^ b > b
        )
    ]
    return IncidenceStructure(points=7, blocks=tuple(sorted(blocks)), provenance="fano")


def pappus_structure() -> IncidenceStructure:
    """The (9_3) structure, read off its numeric construction in confviz.pappus."""
    from .pappus import derive_pappus_structure  # pappus imports this module

    return derive_pappus_structure()
