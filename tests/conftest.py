"""Shared test oracles, deliberately independent of the package internals.

Everything here recomputes expected values from first principles: edge sets by
exhaustive triple scans, partition families by direct recursion, counts by
classical recurrences.
"""

from __future__ import annotations

import itertools
import random
from math import prod

from bihyper import MixedHypergraph, make_mixed_hypergraph


def oracle_box(dims):
    """All coordinate tuples of the box, ascending."""
    return sorted(itertools.product(*[range(1, n + 1) for n in dims]))


def oracle_triple_ok(a, b, c):
    """Independent statement of the edge rule: two values in every coordinate."""
    for j in range(len(a)):
        values = sorted({a[j], b[j], c[j]})
        if len(values) != 2:
            return False
    return True


def oracle_scan_edges(verts):
    """Exhaustive scan of all vertex triples with the edge rule."""
    verts = sorted(verts)
    return sorted(
        t
        for t in itertools.combinations(range(len(verts)), 3)
        if oracle_triple_ok(verts[t[0]], verts[t[1]], verts[t[2]])
    )


def oracle_two_valued_triples(verts):
    """The edge generator as it was before the builders kept pair masks: index
    triples i < j < k of `verts` with two values in every coordinate, sorted.

    `at[c][a]` masks the vertices whose coordinate c is a. The third members of
    a pair i < j start as every k > j; each coordinate keeps those unlike the
    pair where it agrees, else those equal to one of the pair.
    """
    at = [{} for _ in verts[0]]
    for i, v in enumerate(verts):
        for m, a in zip(at, v):
            m[a] = m.get(a, 0) | 1 << i
    edges = []
    for i, x in enumerate(verts):
        for j in range(i + 1, len(verts)):
            cand = -1 << (j + 1)
            for m, a, b in zip(at, x, verts[j]):
                cand &= ~m[a] if a == b else m[a] | m[b]
            while cand:
                low = cand & -cand
                edges.append((i, j, low.bit_length() - 1))
                cand ^= low
    return edges


def oracle_edge_count(dims):
    """Closed form via inclusion-exclusion over degenerate triples."""
    s = len(dims)
    return prod(n * (n - 1) for n in dims) * (3 ** (s - 1) - 1) // 2


def oracle_partition_labels(n):
    """Every restricted-growth string of length n (all set partitions)."""
    if n == 0:
        return [()]
    out = []

    def rec(prefix, used):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for c in range(used + 1):
            rec(prefix + [c], max(used, c + 1))

    rec([0], 1)
    return out


def oracle_proper(labels, c_edges, d_edges):
    """Properness stated directly on a label assignment."""
    for e in c_edges:
        if len({labels[v] for v in e}) == len(e):
            return False
    for e in d_edges:
        if len({labels[v] for v in e}) == 1:
            return False
    return True


def oracle_spectrum(h: MixedHypergraph) -> dict[int, int]:
    """Spectrum by scanning every partition; only for small vertex counts."""
    counts: dict[int, int] = {}
    for labels in oracle_partition_labels(h.n):
        if oracle_proper(labels, h.c_edges, h.d_edges):
            k = len(set(labels))
            counts[k] = counts.get(k, 0) + 1
    return counts


def stirling2(n, k):
    """Stirling numbers of the second kind by the standard recurrence."""
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def random_mixed_hypergraph(rng: random.Random, max_vertices=9, max_edges=20):
    """Arbitrary small mixed hypergraph with independent C and D families."""
    n = rng.randint(1, max_vertices)
    vertices = [(i + 1,) for i in range(n)]
    pool = []
    if n >= 2:
        for _ in range(rng.randint(0, max_edges)):
            size = rng.randint(2, min(4, n))
            pool.append(tuple(sorted(rng.sample(range(n), size))))
    c_edges = [e for e in pool if rng.random() < 0.7]
    d_edges = [e for e in pool if rng.random() < 0.7]
    return make_mixed_hypergraph(vertices, c_edges, d_edges)


def witness_is_isomorphism(h1: MixedHypergraph, h2: MixedHypergraph, mapping) -> bool:
    """Independent witness validation: bijection, edges onto edges, both ways."""
    if sorted(mapping.keys()) != list(range(h1.n)):
        return False
    if sorted(mapping.values()) != list(range(h2.n)):
        return False
    inverse = {v: u for u, v in mapping.items()}
    for edges_1, edges_2 in ((h1.c_edges, h2.c_edges), (h1.d_edges, h2.d_edges)):
        forward = {tuple(sorted(mapping[v] for v in e)) for e in edges_1}
        backward = {tuple(sorted(inverse[v] for v in e)) for e in edges_2}
        if forward != set(edges_2) or backward != set(edges_1):
            return False
    return True
