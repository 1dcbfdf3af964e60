"""Hypergraph isomorphism via pruned backtracking on an explicit stack.

Finds a vertex bijection mapping C-edges onto C-edges and D-edges onto
D-edges, in both directions. The search reads the families only through
`MixedHypergraph.edge_table()` and no vertex coordinates; pair counts
(`_pair_counts`) pick its candidates and the sorted edges its order.
`check_isomorphism` re-reads the families separately to validate every
witness. Past `MAX_VERTICES` vertices the search raises `CapExceeded`
rather than risk an open-ended search.
"""

from __future__ import annotations

from collections import defaultdict

from .model import CapExceeded, MixedHypergraph

__all__ = ["is_isomorphic", "check_isomorphism"]

MAX_VERTICES = 32


def _families(h: MixedHypergraph) -> dict:
    """`{edge: (in_c, in_d)}` over both families of h, edges in sorted order."""
    edges, in_c, in_d = h.edge_table()
    return dict(zip(edges, zip(in_c, in_d)))


def _pair_counts(n: int, families: dict) -> list[list[int]]:
    """`pc[a][b]` = (C-edges through a and b) * m + (D-edges through both),
    with m = len(families) + 1 so the packing is exact; `pc[a][a]` holds a's
    two degrees."""
    m = len(families) + 1
    pc = [[0] * n for _ in range(n)]
    for e, (in_c, in_d) in families.items():
        weight = in_c * m + in_d
        for a in e:
            for b in e:
                pc[a][b] += weight
    return pc


def check_isomorphism(
    h1: MixedHypergraph, h2: MixedHypergraph, mapping: dict[int, int]
) -> bool:
    """Validate a witness: bijection whose edge images match family by family."""
    if h2.n != h1.n or sorted(mapping) != list(range(h1.n)):
        return False
    if sorted(mapping.values()) != list(range(h2.n)):
        return False
    for own, other in ((h1.c_edges, h2.c_edges), (h1.d_edges, h2.d_edges)):
        image = {tuple(sorted(mapping[v] for v in e)) for e in own}
        if image != set(other):
            return False
    return True


def is_isomorphic(h1: MixedHypergraph, h2: MixedHypergraph) -> dict[int, int] | None:
    """Return a witnessing vertex bijection h1 index -> h2 index, or None.

    Search outline:
    1. Reject quickly on mismatched vertex counts, per-family edge counts, or
       multisets of sorted pair-count rows.
    2. Group h2 vertices by sorted pair-count row into candidate pools.
    3. Assign h1 vertices smallest pool first, then by first appearance in
       the sorted edges, then by index; u may take v only if
       `pc1[u][x] == pc2[v][image[x]]` for u and every placed x.
    4. Whenever an assignment completes an edge of h1, its image must be an
       edge of h2 in exactly the same families.
    The search is one loop on an explicit stack, with no recursion limit, and
    the witness is re-validated before being handed back. An instance with
    more than `MAX_VERTICES` vertices raises CapExceeded.
    """
    if h1.n > MAX_VERTICES or h2.n > MAX_VERTICES:
        raise CapExceeded(
            f"isomorphism guard: {max(h1.n, h2.n)} vertices exceeds cap {MAX_VERTICES}",
            stats={"vertices": max(h1.n, h2.n), "max_vertices": MAX_VERTICES},
        )
    if h1.n != h2.n:
        return None
    fam1, fam2 = _families(h1), _families(h2)
    if sorted(fam1.values()) != sorted(fam2.values()):
        return None

    n = h1.n
    pc1, pc2 = _pair_counts(n, fam1), _pair_counts(n, fam2)
    key1 = [tuple(sorted(row)) for row in pc1]
    key2 = [tuple(sorted(row)) for row in pc2]
    if sorted(key1) != sorted(key2):
        return None

    pools: dict = defaultdict(list)
    for v in range(n):
        pools[key2[v]].append(v)
    pool_of = [pools[k] for k in key1]  # hash each row once, not per visit

    first = {u: i for i, e in reversed(list(enumerate(fam1))) for u in e}  # u -> its first edge
    order = sorted(range(n), key=lambda u: (len(pool_of[u]), first.get(u, len(fam1)), u))

    # edges indexed by their last vertex in assignment order: the full-image
    # check fires exactly once per edge
    pos = {u: i for i, u in enumerate(order)}
    completes: list[list[tuple]] = [[] for _ in range(n)]
    for e, flags in fam1.items():
        completes[max(e, key=pos.__getitem__)].append((e, flags))

    image = [0] * n  # image[u]: the h2 vertex u maps to, once u is placed
    used = [False] * n  # used[v]: h2 vertex v is the image of a placed vertex
    tried = [0] * n  # tried[d]: candidates of order[d] tried so far
    d = 0
    while d < n:  # order[:d] is placed
        u = order[d]
        row1 = pc1[u]
        pool = pool_of[u]
        i = tried[d]
        while i < len(pool):
            v = pool[i]
            i += 1
            if used[v]:
                continue
            image[u] = v
            row2 = pc2[v]
            if any(row1[x] != row2[image[x]] for x in order[:d + 1]):
                continue
            for e, flags in completes[u]:
                if fam2.get(tuple(sorted(image[w] for w in e))) != flags:
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
