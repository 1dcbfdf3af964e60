"""Exact enumeration of strict colorings, spectra, and claim verifiers.

Two independent routes compute the same answers:

* `enumerate_feasible_partitions` / `chromatic_spectrum`: one forward-checking
  backtracking loop on an explicit stack, `_search`, hands over
  restricted-growth label strings whose last vertex comes as one class
  bitmask; the first expands, sorts and wraps each in a `Partition` (equal
  classes share one tuple), the second counts each mask. `_search` narrows
  an edge's last free member by unit rules, on one of two paths per run. A
  3-uniform bi-hypergraph whose vertex pairs lie in many edges takes the
  pair path: one mask per vertex pair of the third members of its edges
  (the family builders' masks, or masks made in one pass over the edges,
  kept as one full row per vertex and read at the colored vertices only),
  where set tests on per-class masks decide the vertices left with one
  class. Every other input takes the edge path: per-edge counts of
  uncolored members. It branches on the fewest allowed classes, found by a
  rank-order scan of the narrowed vertices that stops at the first with one
  class, and has no recursion limit;
* `brute_force_spectrum`: an unpruned scan of ALL set partitions filtered by
  the public properness predicate, the trusted oracle for small inputs.

They deliberately share no search code.
"""

from __future__ import annotations

import itertools
import operator
import time
from collections import Counter
from dataclasses import dataclass, replace
from math import comb
from typing import Callable, Iterator

from .constructions import product_bihypergraph, reduced_bihypergraph
from .model import (
    CapExceeded,
    ChromaticSpectrum,
    DimsSpec,
    MixedHypergraph,
    Partition,
    is_proper_coloring,
    _label_classes,
)

__all__ = [
    "EnumerationConfig",
    "MaximalityReport",
    "ReducedEquivalenceReport",
    "enumerate_feasible_partitions",
    "chromatic_spectrum",
    "feasible_set",
    "chromatic_numbers",
    "brute_force_spectrum",
    "predicted_spectrum",
    "verify_edge_maximality",
    "verify_reduced_equivalence",
]

BRUTE_FORCE_MAX_VERTICES = 12
# about 0.14 GB of partitions at the 130-140 B each kept at peak on edgeless 9-11
MAX_COLLECTED_PARTITIONS = 1_000_000
_CLOCK_EVERY = 4096  # work per clock read: class tries plus what they scan, or non-edges
# edges per clock read in each pass of the search's index build; with 4096,
# the 5,760-edge (5,4,3) product would stop in its build, before any node
_INDEX_EVERY = 8192


@dataclass(frozen=True)
class EnumerationConfig:
    """Guard rails for the exact search.

    Exceeding a cap aborts with `CapExceeded` and partial-progress statistics;
    a truncated result is never returned as if it were complete.
    """

    max_vertices: int = 64
    time_budget: float | None = None
    collect_partitions: bool = False  # no effect; kept for callers that still pass it

    def __post_init__(self) -> None:
        # exact types, as for dims: no truncated 2.5, no bool, no string
        if type(self.max_vertices) is not int or self.max_vertices < 1:
            raise ValueError(f"max_vertices must be a positive int, got {self.max_vertices!r}")
        budget = self.time_budget
        if budget is not None and (
            type(budget) is bool or not isinstance(budget, (int, float)) or not budget > 0
        ):  # `not > 0` refuses NaN too
            raise ValueError(f"time_budget must be a positive number, got {budget!r}")

    def check_vertices(self, n: int) -> None:
        """Raise `CapExceeded` if `n` vertices are more than the cap allows."""
        if n > self.max_vertices:
            raise CapExceeded(
                f"hypergraph has {n} vertices, enumeration cap is {self.max_vertices}",
                stats={"vertices": n, "max_vertices": self.max_vertices},
            )


def _time_left(
    cfg: EnumerationConfig, deadline: float | None, stats: dict
) -> EnumerationConfig:
    """`cfg` with what is left of `deadline` as its budget, for one enumeration
    inside a longer check; `CapExceeded` with `stats` when nothing is left."""
    if deadline is None:
        return cfg
    left = deadline - time.perf_counter()
    if left <= 0:
        raise CapExceeded("time budget exceeded before the enumeration", stats=stats)
    return replace(cfg, time_budget=left)


def _pairs_pay(pairs: int, triples: int) -> bool:
    """Whether `_search` narrows through one mask per vertex pair of the third
    members of its 3-element bi-edges, `triples` in all over `pairs` pairs.

    It weighs the nonzero masks in the full rows (two per pair) against the
    incident-list entries the edge path scans (three per edge). Though such
    an input has its full rows made already, the pair path also costs each
    try a read per colored vertex and keeps the one-class sets: on the
    3-uniform bi-hypergraphs whose edges share no vertex pair, which the rule
    turns away, forced onto it the spectrum of AG(2,3) (9 vertices, 12 edges)
    took 20-34% longer and that of the cyclic STS(13) (13, 26) 19-25%
    (in-process, min of 5 calls, three runs)."""
    return 2 * pairs < 3 * triples


def _search(
    h: MixedHypergraph, cfg: EnumerationConfig, leaf: Callable[[list[int], int, int, int], None]
) -> int:
    """Forward-checking depth-first search over restricted-growth assignments.

    Forward checking after Haralick & Elliott (1980), with fewest-choices
    branching and degree tie-breaks as in Brelaz's DSATUR (1979), and 3-element
    bi-edges kept as bitmasks in the style of San Segundo et al. (2011).

    Each vertex v carries one class bitmask `dom[v]`, the classes it may
    still take (-1 at the start: every class, fresh ones too). Once a colored
    vertex leaves an edge with one uncolored member w, a unit rule narrows w:

    * C-edge whose colored members have pairwise distinct colors: w must
      reuse one of them (`dom[w] &= their classes`);
    * D-edge whose colored members share one color: w must avoid it
      (`dom[w] &= ~that class`).

    A run takes one of two paths to the rules:

    * edge path: every edge keeps a count of its uncolored members, and a
      class try at v scans v's incident edges for those left with one;
    * pair path, for an input whose every edge is a 3-element bi-edge, which
      holds when it touches two classes: each vertex pair {v, u} keeps one
      mask of the third members of its edges, bit w for vertex w.
      A try of class c at v reads v's masks at the colored vertices u alone,
      `var[:d]`: a u of class c
      sends every free vertex in its mask off c, and one of class k != c
      narrows every free vertex in its mask to {c, k}. Each free vertex is
      narrowed once per class its edges with v call for.
      This path also keeps `one[c]`, the vertex bits of the vertices whose
      mask is exactly class c, and `single`, their union: a narrowing that
      leaves one class sets them, and its undo clears them. Set tests decide
      those vertices at once: one left with c alone, in a mask that sends it
      off c, or one left with a class other than c and k, in a mask that
      narrows it to {c, k}, is a wipeout; any other keeps its class. Only
      the free vertices outside `single` are narrowed one at a time.

    Such an input takes the pair path when it scans less (`_pairs_pay`):
    when 2 * (the pairs its edges cover) < 3 * (their number), as in
    products and the reduced family. Every other input, and one the rule
    turns away, takes the edge path with all its edges and no masks.

    The masks come as triangular rows, `rows[a][b - a - 1]` for a < b: a
    builder's hypergraph hands over its own (`h.pair_rows`), and its edge
    tuples are neither read nor made unless the rule turns it away; any
    other hypergraph whose every edge is a 3-element bi-edge gets rows of the
    same shape from one pass over its edges. One pass then makes each vertex
    v's full row, `pm[v][u]` for every u, from its own row and the column
    above it, and counts the rule on the full rows (a pair lies in two, an
    edge is a bit in six entries); the edge path drops them. On the pair
    path v's degree is its full row's popcount, and on the edge path twice
    its incident edges, so each edge counts twice. Masks stay in vertex bits,
    so the branching order needs no remapping; `blank` masks the unbranched
    vertices in the same bits.

    A vertex left with no class prunes the branch (a wipeout). A narrowing
    that changes a mask goes on a trail and is undone on backtrack. Every
    edge thus passes the rules before its last member is colored, so a
    finished edge needs no check. The search branches on the free vertex
    with the fewest allowed classes; ties go to the vertex in more edges,
    then to the lower index, so a contradiction among busy vertices is met
    before the idle ones are enumerated. Only the narrowed vertices can
    allow fewer classes than an untouched one, so the pick scans them, kept
    as a mask with bit p for `order[p]`, in order, and stops at the first with one
    class left. No free vertex allows none: unopened classes are kept or
    dropped together, so a mask with no bit among the open classes and the
    fresh one is empty, and an empty mask was already a wipeout. The early
    stop thus picks the vertex the full scan would. A vertex may take a used class or
    the one fresh class `used`, so the labels are restricted-growth strings
    in branching order and each partition is visited once.

    The rules have settled every edge of the last vertex v, so each class in
    its mask `allowed` completes a partition: `leaf(labels, v, allowed, fresh)`
    gets them at once, with `labels[v] == -1` and bit `fresh` opening a class.
    `labels` is reused: copy it to keep it, reset `labels[v]` after writing it.
    Returns `nodes`, the class tries above v. Under a budget the index build
    reads the clock once per `_INDEX_EVERY` edges in its pass over the
    edges, and once per 6 * `_INDEX_EVERY` units in the full-row pass, where
    a vertex costs n plus its row's bits (each edge is a bit in six row
    entries). The search reads it once per `_CLOCK_EVERY` units of work: 1
    per class try plus the incident edges it scans, and on the pair path
    the d colored vertices it reads at depth d.
    """
    cfg.check_vertices(h.n)
    deadline = None if cfg.time_budget is None else time.perf_counter() + cfg.time_budget

    def index_clock() -> None:
        """Under a budget, a clock read between blocks of the index build."""
        if deadline is not None and time.perf_counter() > deadline:
            raise CapExceeded(
                "time budget exceeded while indexing the edges", stats={"nodes": 0, "found": 0}
            )

    def blocks(seq: tuple | list) -> Iterator[tuple[int, tuple | list]]:
        """`(start, block)` over `seq` in blocks of `_INDEX_EVERY`, with
        `index_clock` between blocks."""
        for lo in range(0, len(seq), _INDEX_EVERY):
            if lo:
                index_clock()
            yield lo, seq[lo:lo + _INDEX_EVERY]

    n = h.n
    # rows[a][b - a - 1], a < b: the mask of the pair {a, b}, a builder's or
    # made here when every edge is a 3-element bi-edge; None for other inputs
    rows = h.pair_rows
    edges, in_c, in_d = (), [], []  # a builder's edges are made only if the edge path needs them
    if rows is None:
        edges, in_c, in_d = h.edge_table()
        if all(in_c) and all(in_d) and set(map(len, edges)) == {3}:
            rows = [[0] * (n - a - 1) for a in range(n)]
            for _, block in blocks(edges):
                for a, b, c in block:
                    row = rows[a]
                    row[b - a - 1] |= 1 << c
                    row[c - a - 1] |= 1 << b
                    rows[b][c - b - 1] |= 1 << a
    # pm[v][u]: the mask of the pair {v, u}, 0 for u == v; bits[v]: the
    # popcount of pm[v], two per 3-element bi-edge through v
    pm: list[list[int]] = []
    bits = [0] * n
    pair_path = False
    if rows is not None:
        pairs = work = 0
        for v in range(n):
            # the column above v, then v's own row
            row = [*map(operator.getitem, rows[:v], range(v - 1, -1, -1)), 0, *rows[v]]
            pm.append(row)
            bits[v] = sum(map(int.bit_count, row))
            pairs += n - row.count(0)
            work += n + bits[v]
            if work >= 6 * _INDEX_EVERY:  # each edge is a bit in six row entries
                work = 0
                index_clock()
        del rows
        pair_path = _pairs_pay(pairs // 2, sum(bits) // 6)  # 2 rows per pair, 6 bits per edge
        if pair_path:
            edges, in_c, in_d = (), [], []
        else:
            pm, bits = [], [0] * n
            edges, in_c, in_d = h.edge_table()
    left = [len(e) for e in edges]  # uncolored members per edge-path edge
    incident: list[list[int]] = [[] for _ in range(n)]
    for lo, block in blocks(edges):
        for i, e in enumerate(block, lo):
            for v in e:
                incident[v].append(i)
    # ties go to the vertex in more edges, then to the lower index; degree[v]
    # counts each edge through v twice
    degree = [b + 2 * len(i) for b, i in zip(bits, incident)]
    order = sorted(range(n), key=lambda v: (-degree[v], v))
    bit = [0] * n  # bit[v]: v's place in `order` as a one-bit mask
    for p, v in enumerate(order):
        bit[v] = 1 << p
    cost = [1 + len(i) for i in incident]  # work per class try, and d more on the pair path
    free = (1 << n) - 1  # bit p: order[p] is not yet branched on
    blank = free  # bit v: v is not yet branched on
    labels = [-1] * n
    dom = [-1] * n
    nar = 0  # bit p: order[p]'s mask differs from the start
    trail: list[tuple[int, int]] = []  # (vertex, previous mask) per change
    # kept on the pair path only, in vertex bits: one[c], the vertices whose
    # mask is exactly class c; single, their union. A vertex wiped out of its
    # one class stays in both until that narrowing is undone
    one = [0] * n
    single = 0
    var = [0] * n  # var[d]: the vertex branched on at depth d
    mark = [0] * n  # mark[d]: trail length when var[d] was picked
    rest = [0] * n  # rest[d]: classes var[d] has yet to try, saved on going deeper
    used = [0] * n  # used[d]: classes opened above depth d
    nodes = found = work = 0
    last = n - 1
    d = 0
    while True:
        # pick var[d]: an untouched free vertex allows all used[d] + 1
        # classes and a narrowed one fewer, so only the first free vertex in
        # `order` and the narrowed free vertices compete, scanned in rank
        # order. Every free vertex allows a class here: unopened classes are
        # kept or dropped together, so a mask with no bit in `top` is empty,
        # and an empty mask was a wipeout. The first vertex with one class
        # left thus ends the scan
        v = order[(free & -free).bit_length() - 1]
        allowed = top = (1 << (used[d] + 1)) - 1
        scan = nar & free
        size = used[d] + 1
        while scan:
            r = scan & -scan
            scan ^= r
            w = order[r.bit_length() - 1]
            mask = dom[w] & top
            k = mask.bit_count()
            if k < size:
                v, allowed, size = w, mask, k
                if k == 1:
                    break
        if d == last:
            found += allowed.bit_count()  # no class tries: hand over the mask, back up
            leaf(labels, v, allowed, used[d])
            if d == 0:
                return nodes
            d -= 1
            v = var[d]
            todo = rest[d]
        else:
            var[d] = v
            free ^= bit[v]
            blank ^= 1 << v
            todo = allowed  # rest[d] while the search is at depth d
            mark[d] = len(trail)
            # v stays counted as colored in its edges while it tries its classes
            for i in incident[v]:
                left[i] -= 1
        while True:
            while not todo:
                labels[v] = -1
                free |= bit[v]
                blank |= 1 << v
                for i in incident[v]:
                    left[i] += 1
                if d == 0:
                    return nodes
                d -= 1
                v = var[d]
                todo = rest[d]
            # undo what the previous class here, and anything below it, trailed;
            # `trail and` spares the length call when nothing was ever trailed
            while trail and len(trail) > mark[d]:
                w, prev = trail.pop()
                if pair_path:
                    mask = dom[w]
                    if mask and not mask & (mask - 1):  # left with one class by this change
                        one[mask.bit_length() - 1] ^= 1 << w
                        single ^= 1 << w
                dom[w] = prev
                if prev == -1:
                    nar ^= bit[w]
            low = todo & -todo
            todo ^= low
            color = low.bit_length() - 1
            nodes += 1
            if deadline is not None:
                work += (cost[v] + d) if pair_path else cost[v]
                if work >= _CLOCK_EVERY:
                    work = 0
                    if time.perf_counter() > deadline:
                        raise CapExceeded(
                            "time budget exceeded during enumeration",
                            stats={"nodes": nodes, "found": found},
                        )
            labels[v] = color
            if pair_path:
                # by[k]: the third members of v's 3-element bi-edges with a
                # colored vertex of class k
                row = pm[v]
                by = [0] * (used[d] + 1)
                for u in var[:d]:
                    by[labels[u]] |= row[u]
                wiped = False
                for k, third in enumerate(by):
                    third &= blank
                    if not third:
                        continue
                    # a vertex left with one class keeps it or is wiped out
                    if k == color:
                        wiped = third & one[color]
                        keep = ~low
                    else:
                        wiped = third & single & ~(one[color] | one[k])
                        keep = low | 1 << k
                    if wiped:
                        break
                    third &= ~single
                    while third:
                        r = third & -third
                        third ^= r
                        w = r.bit_length() - 1
                        mask = prev = dom[w]
                        mask &= keep
                        if mask == prev:
                            continue
                        if prev == -1:
                            nar |= bit[w]
                        trail.append((w, prev))
                        dom[w] = mask
                        if not mask & (mask - 1):  # no class or one class left
                            if not mask:
                                wiped = True
                                break
                            one[mask.bit_length() - 1] |= r
                            single |= r
                    if wiped:
                        break
                if wiped:
                    continue  # wipeout: try the next class
            for i in incident[v]:
                if left[i] != 1:
                    continue
                w = -1
                seen = 0
                distinct = True
                for u in edges[i]:
                    lab = labels[u]
                    if lab < 0:
                        w = u
                    elif seen >> lab & 1:
                        distinct = False
                    else:
                        seen |= 1 << lab
                mask = prev = dom[w]
                if in_c[i] and distinct:
                    mask &= seen
                if in_d[i] and not seen & (seen - 1):
                    mask &= ~seen
                if mask == prev:
                    continue
                if prev == -1:
                    nar |= bit[w]
                trail.append((w, prev))
                dom[w] = mask
                if not mask:
                    break  # wipeout: try the next class
            else:
                rest[d] = todo
                used[d + 1] = used[d] + 1 if color == used[d] else used[d]
                d += 1
                break  # pick the next vertex


def enumerate_feasible_partitions(
    h: MixedHypergraph, cfg: EnumerationConfig | None = None
) -> list[Partition]:
    """All partitions of the vertex set that properly color the hypergraph.

    Output is in canonical form and sorted by restricted-growth label string,
    so it is identical across runs. More than `MAX_COLLECTED_PARTITIONS`
    partitions raise `CapExceeded`; `chromatic_spectrum` keeps none and has no
    such cap.
    """
    found: list[tuple[int, ...]] = []
    cap = MAX_COLLECTED_PARTITIONS

    def leaf(labels: list[int], v: int, allowed: int, fresh: int) -> None:
        while allowed:
            labels[v] = (allowed & -allowed).bit_length() - 1
            allowed &= allowed - 1
            # _search opens classes in its branching order; renumber them by vertex order
            rename: dict[int, int] = {}
            found.append(tuple(rename.setdefault(lab, len(rename)) for lab in labels))
            if len(found) > cap:
                raise CapExceeded(
                    f"more than {cap} feasible partitions to collect",
                    stats={"found": len(found), "max_partitions": cap},
                )
        labels[v] = -1

    _search(h, cfg or EnumerationConfig(), leaf)
    # descending, so pop() yields the strings in order and frees each one used
    found.sort(reverse=True)
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # one tuple per distinct class
    partitions = []
    while found:
        classes = [shared.setdefault(c, c) for c in _label_classes(found.pop())]
        partitions.append(Partition(tuple(classes)))
    return partitions


def chromatic_spectrum(
    h: MixedHypergraph, cfg: EnumerationConfig | None = None
) -> ChromaticSpectrum:
    """Count feasible partitions by class count.

    The search streams counts and keeps no partition, so memory stays flat on
    permissive hypergraphs with huge partition families.
    """
    counts = [0] * (h.n + 1)  # counts[k]: partitions with k classes

    def leaf(labels: list[int], v: int, allowed: int, fresh: int) -> None:
        opened = allowed >> fresh  # 1 iff v may open class `fresh`
        counts[fresh + 1] += opened
        counts[fresh] += allowed.bit_count() - opened

    _search(h, cfg or EnumerationConfig(), leaf)
    return ChromaticSpectrum.from_counts(counts[1:])


def feasible_set(h: MixedHypergraph, cfg: EnumerationConfig | None = None) -> frozenset[int]:
    """All class counts k admitting a strict k-coloring."""
    return chromatic_spectrum(h, cfg).feasible_set


def chromatic_numbers(
    h: MixedHypergraph, cfg: EnumerationConfig | None = None
) -> tuple[int, int]:
    """(lower, upper) chromatic number; raises UncolorableError when neither exists."""
    spectrum = chromatic_spectrum(h, cfg)
    return spectrum.lower_chromatic, spectrum.upper_chromatic


def _all_label_strings(n: int) -> Iterator[tuple[int, ...]]:
    """Every restricted-growth string of length n, lexicographically."""
    labels = [0] * n
    while True:
        yield tuple(labels)
        # bump the rightmost label that may grow; labels[i] <= max(labels[:i]) + 1
        i = n - 1
        while i > 0 and labels[i] > max(labels[:i]):
            i -= 1
        if i <= 0:
            return
        labels[i] += 1
        labels[i + 1:] = [0] * (n - 1 - i)


def brute_force_spectrum(h: MixedHypergraph) -> ChromaticSpectrum:
    """Oracle spectrum: scan every set partition, no pruning, no shared code.

    Filters with the public `is_proper_coloring` predicate. Hard-capped at
    12 vertices (about 4.2 million partitions).
    """
    if h.n > BRUTE_FORCE_MAX_VERTICES:
        raise CapExceeded(
            f"brute force is capped at {BRUTE_FORCE_MAX_VERTICES} vertices, got {h.n}",
            stats={"vertices": h.n},
        )
    by_k: Counter[int] = Counter()
    for labels in _all_label_strings(h.n):
        p = Partition.from_labels(labels)
        if is_proper_coloring(h, p):
            by_k[p.num_classes] += 1
    return ChromaticSpectrum.from_class_counts(by_k)


@dataclass(frozen=True)
class MaximalityReport:
    """Outcome of testing that every absent triple would change the spectrum."""

    dims: tuple[int, ...]
    mode: str
    tested_triples: int
    failures: tuple[tuple[int, int, int], ...]
    base_spectrum: ChromaticSpectrum | None = None

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_edge_maximality(
    d: DimsSpec, cfg: EnumerationConfig | None = None, mode: str = "proof"
) -> MaximalityReport:
    """Check that adding any non-edge triple changes the product's spectrum.

    A 3-element bi-edge holds under a partition iff it touches exactly two
    classes, so adding a triple keeps exactly those partitions. Both modes scan
    the non-edges once and report each triple that every one of a list of
    labelings (vertex -> class) puts on two classes.

    proof mode: the labelings are the axis partitions, which color the product
    by construction. A non-edge is constant or three-valued on some coordinate,
    so it destroys that axis partition and the spectrum drops.

    enumerate mode: the labelings are all feasible partitions, enumerated once.
    Exact, but only viable within the enumeration caps.

    `cfg.time_budget` is one deadline for the whole call, set at its start:
    the enumeration runs under what the product build left of it, and the
    scan reads the clock once per block of 4096 triples. Running out raises
    `CapExceeded` with the number of non-edges `tested` so far.
    """
    if mode not in ("proof", "enumerate"):
        raise ValueError(f"mode must be 'proof' or 'enumerate', got {mode!r}")
    cfg = cfg or EnumerationConfig()
    if mode == "enumerate":  # refused before the product is built
        cfg.check_vertices(d.vertex_count)
    deadline = None if cfg.time_budget is None else time.perf_counter() + cfg.time_budget
    h = product_bihypergraph(d)
    edge_set = set(h.bi_edges)
    total = comb(h.n, 3)
    expected = total - len(edge_set)
    failures: list[tuple[int, int, int]] = []
    tested = 0
    base = None
    if mode == "enumerate":
        cfg = _time_left(cfg, deadline, {"tested": 0, "non_edges": expected})
        partitions = enumerate_feasible_partitions(h, cfg)
        base = ChromaticSpectrum.from_class_counts(Counter(p.num_classes for p in partitions))
        labelings = [p.label_map() for p in partitions]
    else:
        labelings = list(zip(*h.vertices))  # one coordinate tuple per axis
    triples = itertools.combinations(range(h.n), 3)
    for _ in range(0, total, _CLOCK_EVERY):
        if deadline is not None and time.perf_counter() > deadline:
            raise CapExceeded(
                "time budget exceeded during the non-edge scan",
                stats={"tested": tested, "non_edges": expected},
            )
        for triple in itertools.islice(triples, _CLOCK_EVERY):
            if triple in edge_set:
                continue
            tested += 1
            if all(len({lab[v] for v in triple}) == 2 for lab in labelings):
                failures.append(triple)
    if tested != expected:  # pragma: no cover - accounting self-check
        raise AssertionError(f"tested {tested} non-edges, expected {expected}")
    return MaximalityReport(
        dims=d.dims,
        mode=mode,
        tested_triples=tested,
        failures=tuple(failures),
        base_spectrum=base,
    )


@dataclass(frozen=True)
class ReducedEquivalenceReport:
    """Spectra of the reduced sub-hypergraph and of the full product, compared.

    `full_source` records whether the full side was enumerated or taken from
    the multiplicity prediction (r_n = number of times n occurs in dims); the
    two are never conflated.
    """

    dims: tuple[int, ...]
    equal: bool
    reduced_spectrum: ChromaticSpectrum
    full_spectrum: ChromaticSpectrum
    full_source: str
    reduced_size: int
    note: str | None = None


def predicted_spectrum(d: DimsSpec) -> ChromaticSpectrum:
    """Spectrum the product family is built to have: r_n = multiplicity of n."""
    return ChromaticSpectrum.from_class_counts(Counter(d.dims))


def verify_reduced_equivalence(
    d: DimsSpec, cfg: EnumerationConfig | None = None
) -> ReducedEquivalenceReport:
    """Compare the reduced sub-hypergraph's spectrum against the product's.

    The reduced side is always enumerated (it must fit the caps). The full
    side is enumerated when the box fits, otherwise the predicted spectrum is
    used and labelled as such. `cfg.time_budget` is one deadline for the whole
    call: each enumeration runs under what the builds and searches before it
    left, and `enumerated` counts the sides done when it runs out.
    """
    cfg = cfg or EnumerationConfig()
    deadline = None if cfg.time_budget is None else time.perf_counter() + cfg.time_budget
    h_star = reduced_bihypergraph(d)
    reduced = chromatic_spectrum(h_star, _time_left(cfg, deadline, {"enumerated": 0}))
    note = None
    if d.vertex_count <= cfg.max_vertices:
        h = product_bihypergraph(d)  # built before the budget left is read
        full = chromatic_spectrum(h, _time_left(cfg, deadline, {"enumerated": 1}))
        source = "enumerated"
    else:
        full = predicted_spectrum(d)
        source = "predicted"
        if len(set(d.dims)) == 1:
            note = (
                "prediction with a single distinct dimension value is outside "
                "the construction's stated hypotheses"
            )
    return ReducedEquivalenceReport(
        dims=d.dims,
        equal=reduced == full,
        reduced_spectrum=reduced,
        full_spectrum=full,
        full_source=source,
        reduced_size=h_star.n,
        note=note,
    )
