"""Incidence structures built from graph neighbourhoods.

The key object is the structure N(G) = (V(G), S(G)) whose blocks are the
first neighbourhoods of an admissible graph. Its Levi graph coincides with
the canonical double cover of G, which is what verify_kronecker_theorem
certifies with the isomorphism witness the construction gives. It checks
that witness on G's own neighbourhoods and counts the cover's components
by union-find over its arithmetic edges, so neither the Levi graph nor
the cover is built. A structure's Levi components are found once, by
union-find over its incidences, and shared by classify and decompose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import AdmissibilityError, ParameterError
from .graphs import (
    Bipartition,
    Graph,
    VertexMap,
    _class_roots,
    bipartite_swap_involution,
    is_admissible,
    pair_in_two,
)


@dataclass(frozen=True)
class IncidenceStructure:
    """Points 0..points-1 plus a canonically sorted tuple of distinct blocks.

    polarity, when set, claims that point v <-> block polarity[v] is a
    polarity; is_self_polar checks the claim before it uses it. It takes no
    part in equality, hashing, repr or the JSON form, and neither does the
    cached levi_components.
    """

    points: int
    blocks: tuple[tuple[int, ...], ...]
    provenance: str = ""
    polarity: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.points < 0:
            raise ParameterError("point count must be non-negative")
        norm = []
        for blk in self.blocks:
            b = tuple(sorted(map(int, blk)))
            if len(b) == 0:
                raise ParameterError("empty block")
            if len(set(b)) != len(b):
                raise ParameterError(f"repeated point in block {b}")
            if b[0] < 0 or b[-1] >= self.points:
                raise ParameterError(f"block {b} outside point range")
            norm.append(b)
        if len(set(norm)) != len(norm):
            raise ParameterError("blocks must be pairwise distinct as sets")
        object.__setattr__(self, "blocks", tuple(sorted(norm)))

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
        by union-find over the incidences; no Levi graph is built. Computed
        once per structure and kept outside the dataclass fields."""
        comps: dict[int, list[int]] = {}
        # a class is named by its least member, which comes first in this loop
        for v, root in enumerate(_class_roots(self.points + self.block_count, levi_edges(self))):
            comps.setdefault(root, []).append(v)
        return tuple(map(tuple, comps.values()))


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
    """Blocks are the neighbourhoods N(v), stored sorted.

    Without collapse the graph must be admissible so that the block count
    equals the vertex count; with collapse duplicate neighbourhoods are
    merged and the result may have fewer blocks than points. Whenever no
    block was merged, polarity[v] is the index of block N(v): v <-> N(v)
    is a polarity, since u is in N(v) exactly when v is in N(u).
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
    nbhds = g.adjacency
    blocks = sorted(set(nbhds))
    polarity = None
    if len(blocks) == g.order:
        index = {blk: j for j, blk in enumerate(blocks)}
        polarity = tuple(index[blk] for blk in nbhds)
    return IncidenceStructure(
        points=g.order,
        blocks=tuple(blocks),
        provenance=f"v_construct(order={g.order}, size={g.size}, collapse={collapse})",
        polarity=polarity,
    )


def levi_edges(c: IncidenceStructure) -> list[tuple[int, int]]:
    """Levi graph edges (p, n + j), block by block: point p lies in block j."""
    n = c.points
    return [(p, n + j) for j, blk in enumerate(c.blocks) for p in blk]


def levi_graph(c: IncidenceStructure) -> tuple[Graph, Bipartition]:
    """Bipartite incidence graph: points 0..n-1, block j at index n + j."""
    n = c.points
    labels = tuple(f"p{i}" for i in range(n)) + tuple(f"b{j}" for j in range(c.block_count))
    g = Graph(n + c.block_count, tuple(levi_edges(c)), labels)
    return g, Bipartition((0,) * n + (1,) * c.block_count)


def is_self_polar(c: IncidenceStructure) -> VertexMap | None:
    """Order-two Levi automorphism exchanging points and blocks, or None.

    When c carries a polarity (v_construct output does), it is checked on
    the blocks in O(E): it must be a permutation of the blocks, and with
    owner its inverse, owner[j] must lie in block polarity[p] for every
    point p of every block j. That is the condition for the involution
    point p <-> block polarity[p] to be a Levi automorphism, and then that
    involution is returned. Only a polarity that is missing, malformed or
    wrong builds the Levi graph, for the generic bipartite_swap_involution
    search, which runs for every other structure; it tries point
    i <-> block i first, which succeeds exactly when the incidence matrix is
    symmetric, as for fano_plane().
    """
    n, pol = c.points, c.polarity
    if pol is not None and len(pol) == n == c.block_count and sorted(pol) == list(range(n)):
        owner = [0] * n
        for p, j in enumerate(pol):
            owner[j] = p
        members = [set(blk) for blk in c.blocks]
        if all(owner[j] in members[pol[p]] for j, blk in enumerate(c.blocks) for p in blk):
            return VertexMap(tuple(n + j for j in pol) + tuple(owner))
    return bipartite_swap_involution(*levi_graph(c))


def _lineal(c: IncidenceStructure) -> bool:
    """No two points lie together in two blocks (Levi girth at least 6)."""
    return not pair_in_two(c.blocks)


def classify(c: IncidenceStructure, with_self_polar: bool = False) -> ConfigClass:
    """Type, lineality, connectedness and, when asked, self-polarity of c.

    Connectedness comes from c.levi_components and self-polarity from
    is_self_polar, so a structure that carries a correct polarity is
    classified without building its Levi graph.
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
    graph is built. Components are ordered by
    their smallest original point index, and each result records the
    original indices in its provenance string.
    """
    out = []
    for idx, comp in enumerate(c.levi_components):
        pts = [v for v in comp if v < c.points]
        blks = [v - c.points for v in comp if v >= c.points]
        remap = {p: i for i, p in enumerate(pts)}
        blocks = tuple(tuple(remap[p] for p in c.blocks[j]) for j in blks)
        out.append(
            IncidenceStructure(
                points=len(pts),
                blocks=blocks,
                provenance=(
                    f"{c.provenance} | component {idx}: points {pts}, "
                    f"blocks {sorted(blks)}"
                ),
            )
        )
    return out


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
    (u,0)(v,1) for each ordered pair of adjacent u, v. The witness is the
    map the construction gives, point i -> (i,0) and block N(v) -> (v,1).
    It is checked in O(E) without building either graph: it must be a
    bijection, the blocks must hold exactly 2 * g.size incidences, and
    each block must lie inside the neighbourhood of its vertex. A bijection
    that sends every Levi edge onto a cover edge, with equal edge counts, is
    an isomorphism. The cover's components come from union-find over its
    edges. For non-admissible inputs the report instead documents how the
    collapsed structure falls short of the cover.
    """
    n = g.order
    cover_edges = [(u, n + v) for u, v in g.edges] + [(v, n + u) for u, v in g.edges]
    cover_components = len(set(_class_roots(2 * n, cover_edges)))
    try:
        c = v_construct(g)
    except AdmissibilityError as exc:
        c = v_construct(g, collapse=True)
        return KroneckerReport(
            admissible=False,
            offending_pair=exc.pair,
            verified=False,
            witness=None,
            levi_order=c.points + c.block_count,
            cover_order=2 * n,
            cover_components=cover_components,
            collapsed_block_count=c.block_count,
        )
    owner = sorted(range(n), key=c.polarity.__getitem__)  # owner[j]: the v with N(v) = block j
    witness = VertexMap(tuple(range(n)) + tuple(n + v for v in owner))
    nbrs = g.neighbor_sets
    verified = (
        c.points == c.block_count == n
        and witness.is_bijection()
        and sum(map(len, c.blocks)) == 2 * g.size
        and all(nbrs[v].issuperset(blk) for v, blk in zip(owner, c.blocks))
    )
    return KroneckerReport(
        admissible=True,
        offending_pair=None,
        verified=verified,
        witness=witness if verified else None,
        levi_order=c.points + c.block_count,
        cover_order=2 * n,
        cover_components=cover_components,
        collapsed_block_count=None,
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
