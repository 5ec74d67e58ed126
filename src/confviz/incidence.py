"""Incidence structures built from graph neighbourhoods.

The key object is the structure N(G) = (V(G), S(G)) whose blocks are the
first neighbourhoods of an admissible graph. Its Levi graph coincides with
the canonical double cover of G, which is what verify_kronecker_theorem
certifies with the isomorphism witness the construction gives.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AdmissibilityError, ParameterError
from .graphs import (
    Bipartition,
    Graph,
    VertexMap,
    bipartite_swap_involution,
    is_admissible,
    kronecker_cover,
    structure_report,
)


@dataclass(frozen=True)
class IncidenceStructure:
    """Points 0..points-1 plus a canonically sorted tuple of distinct blocks."""

    points: int
    blocks: tuple[tuple[int, ...], ...]
    provenance: str = ""

    def __post_init__(self):
        if self.points < 0:
            raise ParameterError("point count must be non-negative")
        norm = []
        for blk in self.blocks:
            b = tuple(sorted(int(p) for p in blk))
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
    """Blocks are the neighbourhoods N(v).

    Without collapse the graph must be admissible so that the block count
    equals the vertex count; with collapse duplicate neighbourhoods are
    merged and the result may have fewer blocks than points.
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
    blocks = sorted({tuple(sorted(ns)) for ns in g.neighbor_sets})
    return IncidenceStructure(
        points=g.order,
        blocks=tuple(blocks),
        provenance=f"v_construct(order={g.order}, size={g.size}, collapse={collapse})",
    )


def levi_graph(c: IncidenceStructure) -> tuple[Graph, Bipartition]:
    """Bipartite incidence graph: points 0..n-1, block j at index n + j."""
    n = c.points
    edges = tuple((p, n + j) for j, blk in enumerate(c.blocks) for p in blk)
    labels = tuple(f"p{i}" for i in range(n)) + tuple(f"b{j}" for j in range(c.block_count))
    g = Graph(n + c.block_count, edges, labels)
    return g, Bipartition((0,) * n + (1,) * c.block_count)


def is_self_polar(c: IncidenceStructure) -> VertexMap | None:
    """Order-two Levi automorphism exchanging points and blocks, or None.

    This is bipartite_swap_involution on the Levi graph. Its fiber
    candidate, point i <-> block i, succeeds exactly when the incidence
    matrix is symmetric, as for fano_plane(). It seldom fires on
    v_construct output (complete graphs are an exception): its blocks are
    stored sorted, not as block i = N(i), so those structures take the
    involution search.
    """
    return bipartite_swap_involution(*levi_graph(c))


def classify(c: IncidenceStructure, with_self_polar: bool = False) -> ConfigClass:
    if c.points == 0 or c.block_count == 0:
        raise ParameterError("classification needs at least one point and block")
    degrees = c.point_degrees()
    sizes = [len(b) for b in c.blocks]
    levi, _ = levi_graph(c)
    report = structure_report(levi)
    balanced = None
    if c.points == c.block_count and len(set(degrees)) == 1 and len(set(sizes)) == 1:
        if degrees[0] == sizes[0]:
            balanced = (c.points, degrees[0])
    lineal = report.girth >= 6
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
        lineal=lineal,
        connected=report.connected,
        self_polar=self_polar,
        pointline_impossible=impossible,
    )


def decompose(c: IncidenceStructure) -> list[IncidenceStructure]:
    """Connected components of the Levi graph as re-indexed structures.

    Components are ordered by their smallest original point index, and each
    result records the original indices in its provenance string.
    """
    levi, _ = levi_graph(c)
    comps = structure_report(levi).components
    out = []
    for idx, comp in enumerate(comps):
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
    """Certify Levi(N(g)) == kronecker_cover(g) for admissible g.

    The witness is the map the construction gives, point i -> (i,0) and
    block N(v) -> (v,1), checked edge by edge in O(E); no isomorphism
    search runs. For non-admissible inputs the report instead documents how
    the collapsed structure falls short of the cover.
    """
    cover, _ = kronecker_cover(g)
    cover_components = len(structure_report(cover).components)
    ok, pair = is_admissible(g)
    if not ok:
        c = v_construct(g, collapse=True)
        return KroneckerReport(
            admissible=False,
            offending_pair=pair,
            verified=False,
            witness=None,
            levi_order=c.points + c.block_count,
            cover_order=cover.order,
            cover_components=cover_components,
            collapsed_block_count=c.block_count,
        )
    c = v_construct(g)
    levi, _ = levi_graph(c)
    owner = {tuple(sorted(ns)): v for v, ns in enumerate(g.neighbor_sets)}
    n = g.order
    witness = VertexMap(tuple(range(n)) + tuple(n + owner[blk] for blk in c.blocks))
    verified = witness.is_isomorphism(levi, cover)
    return KroneckerReport(
        admissible=True,
        offending_pair=None,
        verified=verified,
        witness=witness if verified else None,
        levi_order=levi.order,
        cover_order=cover.order,
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
