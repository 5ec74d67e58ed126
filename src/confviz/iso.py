"""Isomorphism testing and constrained automorphism search.

The engine is iterated color refinement (degree and distance-profile seeds,
then neighbour-multiset rounds) with individualisation backtracking on the
first non-singleton class. Candidates are tried in (color, index) order, so
results are deterministic. Graphs above MAX_VERTICES (enough for the
924-vertex Levi graph of odd(6)) and searches past the node budget raise
CapacityError rather than running open-ended. Callers: `confviz iso`
(isomorphic); graphs.bipartite_swap_involution (find_swap_involution),
which incidence.is_self_polar reaches only when point i <-> block i is
not a polarity, as for decompose parts and many hand-built structures;
and the symmetric unit-distance ansatz of
realization.solve_unit_distance (orbits_of, and find_free_cyclic_action,
whose actions are yielded one at a time, so the search goes only as far
as the solve reads). Each orbit step of that search scans one BFS layer,
left by the seed tokens' BFS, for its candidates instead of every vertex.
Block v of a V-construction is N(v), so verify_kronecker_theorem and
is_self_polar check identity maps on it instead, in O(E), in process or
read from a file, with `isomorphic` and find_swap_involution as oracles.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import CapacityError
from .graphs import Graph, VertexMap, _integer, bfs_layers

MAX_VERTICES = 1024
_NODE_BUDGET = 400_000


def _seed_tokens(
    g: Graph, dist: list[list[int]] | None = None, layers: list[list[list[int]]] | None = None
) -> list[tuple]:
    """Degree and the sizes of successive BFS shells, a cheap start invariant.

    Given dist, the BFS from v also leaves its distances in the row dist[v];
    given layers, its shells, nearest first and each in the order the BFS
    found it, in layers[v].
    """
    rows = dist if dist is not None else ([-1] * g.order for _ in range(g.order))
    tokens = []
    for v, row in enumerate(rows):
        shells = list(bfs_layers(g, v, row))
        if layers is not None:
            layers[v] = shells
        tokens.append((len(g.adjacency[v]), tuple(map(len, shells))))
    return tokens


def _assign_ids(tokens_g: list, tokens_h: list) -> tuple[list[int], list[int]] | None:
    """Map arbitrary hashable tokens to joint integer ids; None on mismatch."""
    universe = sorted(set(tokens_g) | set(tokens_h))
    ids = {t: i for i, t in enumerate(universe)}
    cg = [ids[t] for t in tokens_g]
    ch = [ids[t] for t in tokens_h]
    if sorted(cg) != sorted(ch):
        return None
    return cg, ch


def _refine(adj_g, adj_h, cg: list[int], ch: list[int]) -> tuple[list[int], list[int]] | None:
    """Joint 1-WL refinement until stable; None when class sizes diverge."""
    while True:
        tg = [(cg[v], tuple(sorted(cg[w] for w in adj_g[v]))) for v in range(len(cg))]
        th = [(ch[v], tuple(sorted(ch[w] for w in adj_h[v]))) for v in range(len(ch))]
        assigned = _assign_ids(tg, th)
        if assigned is None:
            return None
        ng, nh = assigned
        if ng == cg and nh == ch:
            return cg, ch
        cg, ch = ng, nh


class _Search:
    """Backtracking core shared by isomorphism and swap-involution search."""

    def __init__(self, adj_g, adj_h, cg, ch, pairing: bool):
        self.adj_g = adj_g
        self.adj_h = adj_h
        self.cg0 = cg
        self.ch0 = ch
        self.pairing = pairing  # h is g; assignments come in symmetric pairs
        self.nodes = 0

    def run(self) -> list[int] | None:
        return self._rec(self.cg0, self.ch0)

    def _rec(self, cg, ch) -> list[int] | None:
        self.nodes += 1
        if self.nodes > _NODE_BUDGET:
            raise CapacityError("isomorphism search budget exceeded")
        refined = _refine(self.adj_g, self.adj_h, cg, ch)
        if refined is None:
            return None
        cg, ch = refined
        target = self._first_split_class(cg)
        if target is None:
            return self._extract(cg, ch)
        u = next(v for v in range(len(cg)) if cg[v] == target)
        fresh = max(max(cg), max(ch)) + 1
        for v in range(len(ch)):
            if ch[v] != target:
                continue
            if self.pairing:
                if v == u or ch[u] != cg[v]:
                    continue
                ng, nh = list(cg), list(ch)
                ng[u] = fresh
                nh[v] = fresh
                ng[v] = fresh + 1
                nh[u] = fresh + 1
            else:
                ng, nh = list(cg), list(ch)
                ng[u] = fresh
                nh[v] = fresh
            result = self._rec(ng, nh)
            if result is not None:
                return result
        return None

    @staticmethod
    def _first_split_class(cg) -> int | None:
        counts: dict[int, int] = {}
        for c in cg:
            counts[c] = counts.get(c, 0) + 1
        for c in sorted(counts):
            if counts[c] > 1:
                return c
        return None

    def _extract(self, cg, ch) -> list[int] | None:
        where = {c: v for v, c in enumerate(ch)}
        image = [where[c] for c in cg]
        if sorted(image) != list(range(len(image))):
            return None
        for u in range(len(cg)):
            nu = {image[w] for w in self.adj_g[u]}
            if nu != set(self.adj_h[image[u]]):
                return None
        if self.pairing:
            for u in range(len(image)):
                if image[image[u]] != u:
                    return None
        return image


def isomorphic(g: Graph, h: Graph) -> VertexMap | None:
    """Isomorphism witness from g to h, or None. Deterministic."""
    if g.order > MAX_VERTICES or h.order > MAX_VERTICES:
        raise CapacityError(f"isomorphism limited to {MAX_VERTICES} vertices")
    if g.order != h.order or g.size != h.size:
        return None
    seeded = _assign_ids(_seed_tokens(g), _seed_tokens(h))
    if seeded is None:
        return None
    image = _Search(g.adjacency, h.adjacency, *seeded, pairing=False).run()
    return VertexMap(tuple(image)) if image is not None else None


def find_swap_involution(g: Graph, sides: tuple[int, ...]) -> VertexMap | None:
    """Order-two automorphism of g mapping side 0 onto side 1, or None."""
    if g.order > MAX_VERTICES:
        raise CapacityError(f"involution search limited to {MAX_VERTICES} vertices")
    zero = sum(1 for s in sides if s == 0)
    if 2 * zero != g.order:
        return None
    base = _seed_tokens(g)
    tokens_g = [(base[v], sides[v]) for v in range(g.order)]
    tokens_h = [(base[v], 1 - sides[v]) for v in range(g.order)]
    seeded = _assign_ids(tokens_g, tokens_h)
    if seeded is None:
        return None
    image = _Search(g.adjacency, g.adjacency, *seeded, pairing=True).run()
    return VertexMap(tuple(image)) if image is not None else None


def find_free_cyclic_action(g: Graph, k: int) -> Iterator[VertexMap]:
    """Automorphisms of order k whose cycles all have length exactly k.

    Yields distinct witnesses in a deterministic depth-first order, nothing
    when none exist. The search runs only as far as the caller reads, and
    its node budget covers everything searched so far: a read that would
    pass it raises CapacityError. More than MAX_VERTICES vertices raise
    CapacityError at the call. Used to impose rotational symmetry on
    layouts.

    sigma(v) must lie as far from sigma(x0) as v lies from x0, the first
    vertex mapped, so only that BFS layer of sigma(x0) is scanned, in
    increasing order: the actions, their order and the node count are those
    of a scan over all vertices.
    """
    k = _integer(k, "k")
    if g.order > MAX_VERTICES:
        raise CapacityError(f"automorphism search limited to {MAX_VERTICES} vertices")
    if k < 2 or g.order % k != 0:
        return iter(())
    return _free_cyclic_actions(g, k)


def _free_cyclic_actions(g: Graph, k: int) -> Iterator[VertexMap]:
    dist = [[-1] * g.order for _ in range(g.order)]
    layers: list[list[list[int]]] = [[] for _ in range(g.order)]
    base = _seed_tokens(g, dist, layers)
    ids = {t: i for i, t in enumerate(sorted(set(base)))}
    color = [ids[t] for t in base]
    sigma: list[int] = [-1] * g.order
    assigned: list[int] = []
    nodes = 0

    def consistent(a: int, b: int) -> bool:
        # distance preservation prunes far harder than adjacency alone
        if color[a] != color[b]:
            return False
        da, db = dist[a], dist[b]
        for x in assigned:
            if da[x] != db[sigma[x]]:
                return False
        return True

    def extend():
        nonlocal nodes
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise CapacityError("cyclic action search budget exceeded")
        if len(assigned) == g.order:
            yield VertexMap(tuple(sigma))
            return
        start = next(v for v in range(g.order) if sigma[v] == -1)
        yield from place(start, [start])

    def place(start: int, orbit: list[int]):
        cur = orbit[-1]
        if len(orbit) == k:
            # close the cycle
            if consistent(cur, start):
                sigma[cur] = start
                assigned.append(cur)
                yield from extend()
                assigned.pop()
                sigma[cur] = -1
            return
        # a layer is in BFS order until its first read sorts it in place
        cands = range(g.order)
        if assigned:
            x0 = assigned[0]
            d = dist[cur][x0]
            if d >= 0:
                cands = layers[sigma[x0]][d]
                cands.sort()
        for cand in cands:
            if sigma[cand] != -1 or cand in orbit or cand == start:
                continue
            if not consistent(cur, cand):
                continue
            sigma[cur] = cand
            assigned.append(cur)
            orbit.append(cand)
            yield from place(start, orbit)
            orbit.pop()
            assigned.pop()
            sigma[cur] = -1

    for vm in extend():
        if vm.is_automorphism(g) and vm.permutation_order() == k:
            yield vm


def orbits_of(vm: VertexMap) -> list[list[int]]:
    """Cycles of a permutation, each listed from its smallest element."""
    n = len(vm.image)
    seen = [False] * n
    orbits = []
    for v in range(n):
        if seen[v]:
            continue
        orbit = [v]
        seen[v] = True
        w = vm.image[v]
        while w != v:
            orbit.append(w)
            seen[w] = True
            w = vm.image[w]
        orbits.append(orbit)
    return orbits
