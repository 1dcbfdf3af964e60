"""Exact enumeration of strict colorings, spectra, and claim verifiers.

Two independent routes compute the same answers:

* `enumerate_feasible_partitions` / `chromatic_spectrum`: one forward-checking
  backtracking loop on an explicit stack (`_search`: per-edge counts of
  uncolored members, unit-rule narrowing of the last free member, branching on
  the fewest allowed classes, no recursion limit) hands over restricted-growth
  label strings whose last vertex comes as one class bitmask; the first
  expands, sorts and wraps each in a `Partition`, the second counts each mask;
* `brute_force_spectrum`: an unpruned scan of ALL set partitions filtered by
  the public properness predicate, the trusted oracle for small inputs.

They deliberately share no search code.
"""

from __future__ import annotations

import itertools
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
    UncolorableError,
    is_proper_coloring,
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
# about 0.6 GB of partitions at the ~0.6 KB each measured on edgeless 10
MAX_COLLECTED_PARTITIONS = 1_000_000
_CLOCK_EVERY = 4096  # work per clock read: class tries plus edges scanned, or non-edges


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


def _search(
    h: MixedHypergraph, cfg: EnumerationConfig, leaf: Callable[[list[int], int, int, int], None]
) -> None:
    """Forward-checking depth-first search over restricted-growth assignments.

    Forward checking after Haralick & Elliott (1980), with fewest-choices
    branching and degree tie-breaks as in Brelaz's DSATUR (1979).

    Each vertex v carries one class bitmask `dom[v]`, the classes it may
    still take (-1 at the start: every class, fresh ones too). Every edge
    keeps a count of its uncolored members. Once a colored vertex leaves an
    edge with one uncolored member w, a unit rule narrows w:

    * C-edge whose colored members have pairwise distinct colors: w must
      reuse one of them (`dom[w] &= their classes`);
    * D-edge whose colored members share one color: w must avoid it
      (`dom[w] &= ~that class`).

    A vertex left with no class prunes the branch (a wipeout). A narrowing
    that changes a mask goes on a trail and is undone on backtrack. Every
    edge thus passes the rules before its last member is colored, so a
    finished edge needs no check. The search branches on the free vertex
    with the fewest allowed classes; ties go to the vertex in more edges,
    then to the lower index, so a contradiction among busy vertices is met
    before the idle ones are enumerated. A vertex may take a used class or
    the one fresh class `used`, so the labels are restricted-growth strings
    in branching order and each partition is visited once.

    The rules have settled every edge of the last vertex v, so each class in
    its mask `allowed` completes a partition: `leaf(labels, v, allowed, fresh)`
    gets them at once, with `labels[v] == -1` and bit `fresh` opening a class.
    `labels` is reused: copy it to keep it, reset `labels[v]` after writing it.
    `nodes` counts class tries above v and `found` partitions. Under a budget
    the clock is read once per `_CLOCK_EVERY` tries plus edges they scanned.
    """
    if h.n > cfg.max_vertices:
        raise CapExceeded(
            f"hypergraph has {h.n} vertices, enumeration cap is {cfg.max_vertices}",
            stats={"vertices": h.n, "max_vertices": cfg.max_vertices},
        )
    deadline = None if cfg.time_budget is None else time.perf_counter() + cfg.time_budget
    n = h.n
    edges, in_c, in_d = h.edge_table()
    left = [len(e) for e in edges]  # uncolored members per edge
    incident: list[list[int]] = [[] for _ in range(n)]
    for i, e in enumerate(edges):
        for v in e:
            incident[v].append(i)
    # ties go to the vertex in more edges, then to the lower index
    order = sorted(range(n), key=lambda v: (-len(incident[v]), v))
    rank = [0] * n
    for p, v in enumerate(order):
        rank[v] = p
    free = [True] * n  # free[p]: order[p] is not yet branched on
    labels = [-1] * n
    dom = [-1] * n
    # narrowed: vertices whose masks differ from the start, in the order they
    # first changed; trail: (vertex, previous mask) per change
    narrowed: list[int] = []
    trail: list[tuple[int, int]] = []
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
        # `order` and the narrowed vertices compete
        v = order[free.index(True)]
        allowed = top = (1 << (used[d] + 1)) - 1
        if narrowed:
            size = used[d] + 1
            for w in narrowed:
                if labels[w] < 0:
                    mask = dom[w] & top
                    k = mask.bit_count()
                    if k < size or (k == size and rank[w] < rank[v]):
                        v, allowed, size = w, mask, k
        if d == last:
            found += allowed.bit_count()  # no class tries: hand over the mask, back up
            leaf(labels, v, allowed, used[d])
            if d == 0:
                return
            d -= 1
            v = var[d]
            todo = rest[d]
        else:
            var[d] = v
            free[rank[v]] = False
            todo = allowed  # rest[d] while the search is at depth d
            mark[d] = len(trail)
            # v stays counted as colored in its edges while it tries its classes
            for i in incident[v]:
                left[i] -= 1
        while True:
            while not todo:
                labels[v] = -1
                free[rank[v]] = True
                for i in incident[v]:
                    left[i] += 1
                if d == 0:
                    return
                d -= 1
                v = var[d]
                todo = rest[d]
            # undo what the previous class here, and anything below it, trailed;
            # `trail and` spares the length call when nothing was ever trailed
            while trail and len(trail) > mark[d]:
                w, prev = trail.pop()
                dom[w] = prev
                if prev == -1:
                    narrowed.pop()  # undone in reverse order, so w is the last
            low = todo & -todo
            todo ^= low
            color = low.bit_length() - 1
            nodes += 1
            if deadline is not None:
                work += 1 + len(incident[v])
                if work >= _CLOCK_EVERY:
                    work = 0
                    if time.perf_counter() > deadline:
                        raise CapExceeded(
                            "time budget exceeded during enumeration",
                            stats={"nodes": nodes, "found": found},
                        )
            labels[v] = color
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
                    narrowed.append(w)
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
    found.sort()
    return [Partition.from_labels(s) for s in found]


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
    if spectrum.is_empty:
        raise UncolorableError("hypergraph admits no strict coloring")
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
    deadline = None if cfg.time_budget is None else time.perf_counter() + cfg.time_budget
    h = product_bihypergraph(d)
    edge_set = set(h.bi_edges)
    total = comb(h.n, 3)
    expected = total - len(edge_set)
    failures: list[tuple[int, int, int]] = []
    tested = 0
    base = None
    if mode == "enumerate":
        if deadline is not None:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise CapExceeded("time budget exceeded before the enumeration",
                                  stats={"tested": 0, "non_edges": expected})
            cfg = replace(cfg, time_budget=left)
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
    used and labelled as such.
    """
    cfg = cfg or EnumerationConfig()
    d.require_reduced()
    h_star = reduced_bihypergraph(d)
    reduced = chromatic_spectrum(h_star, cfg)
    note = None
    if d.vertex_count <= cfg.max_vertices:
        full = chromatic_spectrum(product_bihypergraph(d), cfg)
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
