"""Isomorphism and constrained automorphism search: one search for all three.

The paper asks three automorphism questions. Which free cyclic actions of
order k give a symmetric drawing (find_free_cyclic_action, for the
unit-distance ansatz of realization.solve_unit_distance)? Is a structure
self-polar, that is, does its Levi graph have an involution that swaps
points and blocks (find_swap_involution, for incidence.is_self_polar when
point i <-> block i is not a polarity)? Is Levi(N(G)) the Kronecker cover
(isomorphic, for `confviz iso` and as the tests' oracle)? Each answer is a
free order-k action, so one distance-preserving depth-first search,
_free_cyclic_actions, finds them all. A swap involution moves every vertex:
it is a free action of order 2 that maps side s only onto side 1 - s. An
isomorphism f of g onto h, together with its inverse, is such an involution
of the disjoint union of g and h with g on side 0 and h on side 1.

The search runs from an explicit stack, one frame per vertex being placed,
so its depth is bounded by the order, not by Python's recursion limit.
Candidates are tried in increasing order, so results are deterministic.
Graphs above MAX_VERTICES (enough for hypercube(10) and for the 924-vertex
Levi graph of odd(6)) and searches past the node budget raise CapacityError
rather than running open-ended. Where graphs knows a family member's free
actions in closed form (graphs._free_turns: the rotations of a GP(n,r)
whose automorphisms are those of its rings), find_free_cyclic_action lists
them, in the search's order, with no search. Block v of a V-construction
is N(v), so verify_kronecker_theorem and is_self_polar check identity maps
on it instead, in O(E), and the tests hold them to `isomorphic` and
find_swap_involution.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import CapacityError
from .graphs import Graph, VertexMap, _free_turns, _integer, _unchecked, bfs_layers

MAX_VERTICES = 1024
_NODE_BUDGET = 400_000


def _seed_tokens(g: Graph, dist: list[list[int]], layers: list[list[list[int]]]) -> list[tuple]:
    """Degree and the sizes of successive BFS shells, a cheap start invariant.

    The BFS from v also leaves its distances in the row dist[v], and its
    shells, nearest first and each in the order the BFS found it, in
    layers[v].
    """
    tokens = []
    for v, row in enumerate(dist):
        shells = layers[v] = list(bfs_layers(g, v, row))
        tokens.append((len(g.adjacency[v]), tuple(map(len, shells))))
    return tokens


def isomorphic(g: Graph, h: Graph) -> VertexMap | None:
    """Isomorphism witness from g to h, or None. Deterministic.

    The first swap involution of the disjoint union of g and h, read on g.
    """
    if g.order > MAX_VERTICES or h.order > MAX_VERTICES:
        raise CapacityError(f"isomorphism limited to {MAX_VERTICES} vertices")
    n = g.order
    if n != h.order or g.size != h.size:
        return None
    union = _unchecked(Graph, order=2 * n, edges=g.edges + tuple((u + n, v + n) for u, v in h.edges), labels=None)
    swap = next(_free_cyclic_actions(union, 2, (0,) * n + (1,) * n), None)
    return VertexMap(tuple(w - n for w in swap.image[:n])) if swap is not None else None


def find_swap_involution(g: Graph, sides: tuple[int, ...]) -> VertexMap | None:
    """Order-two automorphism of g mapping side 0 onto side 1, or None."""
    if g.order > MAX_VERTICES:
        raise CapacityError(f"involution search limited to {MAX_VERTICES} vertices")
    zero = sum(1 for s in sides if s == 0)
    if 2 * zero != g.order:
        return None
    return next(_free_cyclic_actions(g, 2, sides), None)


def find_free_cyclic_action(g: Graph, k: int) -> Iterator[VertexMap]:
    """Automorphisms of order k whose cycles all have length exactly k.

    Yields distinct witnesses in a deterministic depth-first order, nothing
    when none exist. The search runs only as far as the caller reads, and
    its node budget covers everything searched so far: a read that would
    pass it raises CapacityError. More than MAX_VERTICES vertices raise
    CapacityError at the call. Used to impose rotational symmetry on
    layouts. A family member whose actions graphs._free_turns knows (see
    the module docstring) yields them and spends no search node.
    """
    k = _integer(k, "k")
    if g.order > MAX_VERTICES:
        raise CapacityError(f"automorphism search limited to {MAX_VERTICES} vertices")
    if k < 2 or g.order % k != 0 or not g.order:
        return iter(())
    turns = _free_turns(g, k)
    return _free_cyclic_actions(g, k) if turns is None else turns


def _free_cyclic_actions(g: Graph, k: int, sides: tuple[int, ...] | None = None) -> Iterator[VertexMap]:
    """The free order-k actions of g, depth first; given sides, only those
    that map each vertex onto the other side, so k is 2.

    Orbits open at the least vertex not yet placed and grow one image at a
    time. sigma(v) must lie as far from sigma(x0) as v lies from x0, the
    first vertex mapped, so only that BFS layer of sigma(x0) is scanned, in
    increasing order: the actions, their order and the node count are those
    of a scan over all vertices.

    Every map the search completes is such an action, so none is checked
    again. Each vertex placed keeps its distance to every vertex placed
    before it, so the map preserves all distances, edges among them. Each
    image is a vertex not yet placed, which joins the current orbit, and each
    orbit closes at exactly k vertices: the map is a bijection whose cycles
    all have length k. The empty graph completes the empty map at once.
    """
    n = g.order
    dist = [[-1] * n for _ in range(n)]
    layers: list[list[list[int]]] = [[] for _ in range(n)]
    base = _seed_tokens(g, dist, layers)
    ids: dict[tuple, int] = {}
    if sides is None:
        color = image_color = [ids.setdefault(t, len(ids)) for t in base]
    else:
        # v may map onto w only when (token, side) of v is (token, 1 - side) of w
        keys = list(zip(base, sides))
        image_keys = [(t, 1 - s) for t, s in keys]
        if sorted(keys) != sorted(image_keys):
            return
        color = [ids.setdefault(t, len(ids)) for t in keys]
        image_color = [ids[t] for t in image_keys]
    sigma: list[int] = [-1] * n
    assigned: list[int] = []

    def consistent(a: int, b: int) -> bool:
        # distance preservation prunes far harder than adjacency alone
        if color[a] != image_color[b]:
            return False
        da, db = dist[a], dist[b]
        for x in assigned:
            if da[x] != db[sigma[x]]:
                return False
        return True

    def candidates(orbit: list[int]) -> Iterator[int]:
        cur = orbit[-1]
        if len(orbit) == k:
            # the closing step, tried once
            return iter((orbit[0],) if consistent(cur, orbit[0]) else ())
        # a layer is in BFS order until its first read sorts it in place
        if assigned:
            x0 = assigned[0]
            d = dist[cur][x0]
            if d >= 0:
                layer = layers[sigma[x0]][d]
                layer.sort()
                return iter(layer)
        return iter(range(n))

    # one frame per vertex being placed: its orbit, the orbit's length when
    # the frame opened (the vertex is the last one then), and its candidates
    frames: list[tuple[list[int], int, Iterator[int]]] = []
    nodes = 0
    closed = True  # the search starts, or an orbit has just closed
    while True:
        if closed:
            closed = False
            nodes += 1
            if nodes > _NODE_BUDGET:
                raise CapacityError("cyclic action search budget exceeded")
            if len(assigned) == n:
                yield VertexMap(tuple(sigma))
            else:
                orbit = [sigma.index(-1)]
                frames.append((orbit, 1, candidates(orbit)))
        if not frames:
            return
        orbit, length, cands = frames[-1]
        cur = orbit[length - 1]
        if sigma[cur] != -1:
            # back at this frame: take its last placement back
            sigma[cur] = -1
            assigned.pop()
            del orbit[length:]
        if length == k:
            cand = next(cands, -1)
        else:
            # every vertex in an orbit so far has an image, except cur
            for cand in cands:
                if sigma[cand] == -1 and cand != cur and consistent(cur, cand):
                    break
            else:
                cand = -1
        if cand < 0:
            frames.pop()
            continue
        sigma[cur] = cand
        assigned.append(cur)
        if length == k:
            closed = True
        else:
            orbit.append(cand)
            frames.append((orbit, length + 1, candidates(orbit)))
