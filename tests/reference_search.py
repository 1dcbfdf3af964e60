"""Reference search: the static-order backtracking core the solver used to run.

`_search` below is kept verbatim as a test oracle for the forward-checking
core in `bihyper.solver`. It assigns vertices in a fixed descending-degree
order and checks each edge only at its last-assigned member, so it explores
far more nodes, but it reaches instances of 13-40 vertices that brute force
(12 vertices at most) cannot. `reference_partitions` and `reference_spectrum`
wrap its label strings the way the solver's public functions do.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable

from bihyper import (
    CapExceeded,
    ChromaticSpectrum,
    EnumerationConfig,
    MixedHypergraph,
    Partition,
)

_TIME_CHECK_MASK = 0xFFF  # poll the clock every 4096 search nodes


def _search(
    h: MixedHypergraph, cfg: EnumerationConfig, emit: Callable[[list[int]], None]
) -> None:
    """Depth-first search over restricted-growth assignments, on an explicit stack.

    Vertices are assigned in descending degree order (ties by index). Each
    edge is checked once, at the position of its member assigned last, by a
    unit rule that narrows the classes open there (the used ones plus one
    fresh one):

    * C-edge whose other members got pairwise distinct colors: the last vertex
      must reuse one of them;
    * D-edge whose other members got one common color: the last vertex must
      avoid it.

    Fully-colored edge checks are subsumed by these rules. Calls `emit(labels)`
    once per feasible partition, with `labels` indexed by vertex; the list is
    reused, so a caller that keeps it must copy it.
    """
    if h.n > cfg.max_vertices:
        raise CapExceeded(
            f"hypergraph has {h.n} vertices, enumeration cap is {cfg.max_vertices}",
            stats={"vertices": h.n, "max_vertices": cfg.max_vertices},
        )
    n = h.n
    degree = [0] * n
    for e in h.c_edges + h.d_edges:
        for v in e:
            degree[v] += 1
    order = sorted(range(n), key=lambda v: (-degree[v], v))
    pos = {v: p for p, v in enumerate(order)}
    cset = set(h.c_edges)
    dset = set(h.d_edges)
    fire: list[list[tuple[tuple[int, ...], bool, bool]]] = [[] for _ in range(n)]
    for e in sorted(cset | dset):
        last = max(e, key=pos.__getitem__)
        fire[pos[last]].append((tuple(v for v in e if v != last), e in cset, e in dset))
    deadline = None
    if cfg.time_budget is not None:
        deadline = time.perf_counter() + cfg.time_budget
    labels = [-1] * n
    rest = [0] * (n + 1)  # rest[p]: classes position p has yet to try; rest[n] stays 0
    used = [0] * (n + 1)  # used[p]: classes opened by positions before p
    nodes = found = 0
    p = 0
    while True:
        if p == n:
            found += 1
            emit(labels)
        else:
            allowed = (1 << (used[p] + 1)) - 1
            for others, in_c, in_d in fire[p]:
                got = {labels[u] for u in others}
                if in_c and len(got) == len(others):
                    mask = 0
                    for lab in got:
                        mask |= 1 << lab
                    allowed &= mask
                if in_d and len(got) == 1:
                    allowed &= ~(1 << next(iter(got)))
                if not allowed:
                    break
            rest[p] = allowed
        while not rest[p]:
            if p == 0:
                return
            p -= 1
        low = rest[p] & -rest[p]
        rest[p] ^= low
        color = low.bit_length() - 1
        nodes += 1
        if deadline is not None and nodes & _TIME_CHECK_MASK == 0:
            if time.perf_counter() > deadline:
                raise CapExceeded(
                    "time budget exceeded during enumeration",
                    stats={"nodes": nodes, "found": found},
                )
        labels[order[p]] = color
        used[p + 1] = used[p] + 1 if color == used[p] else used[p]
        p += 1


def reference_partitions(
    h: MixedHypergraph, cfg: EnumerationConfig, max_partitions: int
) -> list[Partition]:
    """Every feasible partition, sorted by restricted-growth label string.

    Raises `CapExceeded` past `max_partitions` partitions or `cfg`'s caps.
    """
    found: list[tuple[int, ...]] = []

    def emit(labels: list[int]) -> None:
        rename: dict[int, int] = {}
        found.append(tuple(rename.setdefault(lab, len(rename)) for lab in labels))
        if len(found) > max_partitions:
            raise CapExceeded(f"more than {max_partitions} partitions")

    _search(h, cfg, emit)
    found.sort()
    return [Partition.from_labels(s) for s in found]


def reference_spectrum(partitions: list[Partition]) -> ChromaticSpectrum:
    return ChromaticSpectrum.from_class_counts(Counter(p.num_classes for p in partitions))
