"""Hypergraph isomorphism via pruned backtracking.

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
    The returned witness is re-validated before being handed back.
    """
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

    order = sorted(range(h1.n), key=lambda u: (len(pools[sig1[u]]), u))

    c2set = set(h2.c_edges)
    d2set = set(h2.d_edges)
    # edges indexed by their last vertex in assignment order: the full-image
    # check fires exactly once per edge
    pos = {u: i for i, u in enumerate(order)}
    c1set = set(h1.c_edges)
    d1set = set(h1.d_edges)
    completes: list[list[tuple]] = [[] for _ in range(h1.n)]
    for e in sorted(c1set | d1set):
        last = max(e, key=pos.__getitem__)
        completes[last].append((e, e in c1set, e in d1set))

    mapping: dict[int, int] = {}
    used = [False] * h2.n

    def assign(depth: int) -> bool:
        if depth == h1.n:
            return True
        u = order[depth]
        for v in pools[sig1[u]]:
            if used[v]:
                continue
            mapping[u] = v
            ok = True
            for e, in_c, in_d in completes[u]:
                image = tuple(sorted(mapping[w] for w in e))
                if in_c and image not in c2set:
                    ok = False
                    break
                if in_d and image not in d2set:
                    ok = False
                    break
            if ok:
                used[v] = True
                if assign(depth + 1):
                    return True
                used[v] = False
            del mapping[u]
        return False

    try:
        if not assign(0):
            return None
    finally:
        del assign  # assign refers to itself; breaking that cycle frees the search state now
    witness = dict(mapping)
    if not check_isomorphism(h1, h2, witness):  # pragma: no cover - safety net
        raise AssertionError("internal error: search returned an invalid witness")
    return witness
