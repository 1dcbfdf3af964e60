"""Hypergraph isomorphism via pruned backtracking on an explicit stack.

Finds a vertex bijection mapping C-edges onto C-edges and D-edges onto
D-edges, in both directions. Intended for desk-scale instances; a size guard
refuses anything larger rather than risking an open-ended search.
"""

from __future__ import annotations

from collections import defaultdict

from .model import CapExceeded, MixedHypergraph

__all__ = ["is_isomorphic", "check_isomorphism"]

DEFAULT_MAX_VERTICES = 32


def _signatures(h: MixedHypergraph) -> list:
    """Per-vertex invariant: incident edge-size profile per family, refined
    once by the multiset of co-members' profiles."""
    base = []
    inc_c = [[] for _ in range(h.n)]
    inc_d = [[] for _ in range(h.n)]
    for e in h.c_edges:
        for v in e:
            inc_c[v].append(e)
    for e in h.d_edges:
        for v in e:
            inc_d[v].append(e)
    for v in range(h.n):
        base.append(
            (
                tuple(sorted(len(e) for e in inc_c[v])),
                tuple(sorted(len(e) for e in inc_d[v])),
            )
        )
    refined = []
    for v in range(h.n):
        neigh = sorted(
            base[u] for e in inc_c[v] + inc_d[v] for u in e if u != v
        )
        refined.append((base[v], tuple(neigh)))
    return refined


def check_isomorphism(
    h1: MixedHypergraph, h2: MixedHypergraph, mapping: dict[int, int]
) -> bool:
    """Validate a witness: bijection whose edge images match family by family."""
    if len(mapping) != h1.n or h2.n != h1.n:
        return False
    if sorted(mapping.values()) != list(range(h2.n)):
        return False
    for own, other in ((h1.c_edges, h2.c_edges), (h1.d_edges, h2.d_edges)):
        image = {tuple(sorted(mapping[v] for v in e)) for e in own}
        if image != set(other):
            return False
    return True


def is_isomorphic(
    h1: MixedHypergraph,
    h2: MixedHypergraph,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> dict[int, int] | None:
    """Return a witnessing vertex bijection h1 index -> h2 index, or None.

    Search outline:
    1. Reject quickly on mismatched vertex counts, edge counts, or invariant
       signature multisets.
    2. Group h2 vertices by signature; these are the candidate pools.
    3. Assign h1 vertices most-constrained-first (smallest pool, then index);
       candidates are tried ordered by coordinate multiset then index, which
       keeps the search deterministic.
    4. Whenever an assignment completes an edge of h1, its image must be an
       edge of h2 in the same family.
    The search is one loop on an explicit stack, with no recursion limit, and
    the witness is re-validated before being handed back. `max_vertices` must
    be a positive int (else ValueError); a larger instance raises CapExceeded.
    """
    if type(max_vertices) is not int or max_vertices < 1:  # as EnumerationConfig
        raise ValueError(f"max_vertices must be a positive int, got {max_vertices!r}")
    if h1.n > max_vertices or h2.n > max_vertices:
        raise CapExceeded(
            f"isomorphism guard: {max(h1.n, h2.n)} vertices exceeds cap {max_vertices}",
            stats={"max_vertices": max_vertices},
        )
    if h1.n != h2.n:
        return None
    if len(h1.c_edges) != len(h2.c_edges) or len(h1.d_edges) != len(h2.d_edges):
        return None

    sig1 = _signatures(h1)
    sig2 = _signatures(h2)
    if sorted(sig1) != sorted(sig2):
        return None

    pools: dict = defaultdict(list)
    for v in range(h2.n):
        pools[sig2[v]].append(v)
    for vs in pools.values():
        vs.sort(key=lambda v: (tuple(sorted(h2.vertices[v])), v))

    n = h1.n
    order = sorted(range(n), key=lambda u: (len(pools[sig1[u]]), u))

    c2set = set(h2.c_edges)
    d2set = set(h2.d_edges)
    # edges indexed by their last vertex in assignment order: the full-image
    # check fires exactly once per edge
    pos = {u: i for i, u in enumerate(order)}
    completes: list[list[tuple]] = [[] for _ in range(n)]
    for e, in_c, in_d in zip(*h1.edge_table()):
        completes[max(e, key=pos.__getitem__)].append((e, in_c, in_d))

    image = [0] * n  # image[u]: the h2 vertex u maps to, once u is placed
    used = [False] * n  # used[v]: h2 vertex v is the image of a placed vertex
    tried = [0] * n  # tried[d]: candidates of order[d] tried so far
    d = 0
    while d < n:  # order[:d] is placed
        u = order[d]
        pool = pools[sig1[u]]
        i = tried[d]
        while i < len(pool):
            v = pool[i]
            i += 1
            if used[v]:
                continue
            image[u] = v
            for e, in_c, in_d in completes[u]:
                mapped = tuple(sorted(image[w] for w in e))
                if in_c and mapped not in c2set or in_d and mapped not in d2set:
                    break
            else:
                tried[d] = i
                used[v] = True
                d += 1
                break
        else:  # no candidate left for u: backtrack
            tried[d] = 0
            if d == 0:
                return None
            d -= 1
            used[image[order[d]]] = False
    witness = {u: image[u] for u in order}
    if not check_isomorphism(h1, h2, witness):  # pragma: no cover - safety net
        raise AssertionError("internal error: search returned an invalid witness")
    return witness
