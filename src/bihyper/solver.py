"""Exact enumeration of strict colorings, spectra, and claim verifiers.

Two independent routes compute the same answers:

* `enumerate_feasible_partitions` / `chromatic_spectrum`: a backtracking
  search over restricted-growth color assignments with unit-rule pruning on
  edges, fast enough for the 60-vertex product instances;
* `brute_force_spectrum`: an unpruned scan of ALL set partitions filtered by
  the public properness predicate, the trusted oracle for small inputs.

They deliberately share no search code.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass
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
_TIME_CHECK_MASK = 0xFFF  # poll the clock every 4096 search nodes


@dataclass(frozen=True)
class EnumerationConfig:
    """Guard rails for the exact search.

    Exceeding a cap aborts with `CapExceeded` and partial-progress statistics;
    a truncated result is never returned as if it were complete.
    """

    max_vertices: int = 64
    time_budget: float | None = None
    collect_partitions: bool = True

    def __post_init__(self) -> None:
        if self.max_vertices < 1:
            raise ValueError("max_vertices must be positive")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError("time_budget must be positive")


class _SearchSpace:
    """Static data for one hypergraph: assignment order and edge unit rules.

    Vertices are assigned in descending static degree order (ties by index).
    Each edge is attached to the member assigned last, so its constraint fires
    exactly once, when the edge becomes fully colored:

    * C-edge whose other members got pairwise distinct colors: the last vertex
      must reuse one of them;
    * D-edge whose other members got one common color: the last vertex must
      avoid it.

    Fully-colored edge checks are subsumed by these rules.
    """

    def __init__(self, h: MixedHypergraph):
        n = h.n
        degree = [0] * n
        for e in h.c_edges:
            for v in e:
                degree[v] += 1
        for e in h.d_edges:
            for v in e:
                degree[v] += 1
        self.order = sorted(range(n), key=lambda v: (-degree[v], v))
        pos = {v: p for p, v in enumerate(self.order)}
        cset = set(h.c_edges)
        dset = set(h.d_edges)
        self.fire: list[list[tuple[tuple[int, ...], bool, bool]]] = [[] for _ in range(n)]
        for e in sorted(cset | dset):
            last = max(e, key=pos.__getitem__)
            others = tuple(v for v in e if v != last)
            self.fire[last].append((others, e in cset, e in dset))
        self.n = n


def _domain_mask(
    fire_v: list[tuple[tuple[int, ...], bool, bool]], labels: list[int], used: int
) -> int:
    """Bitmask of classes open to a vertex: used classes plus one fresh one,
    narrowed by the unit rules of every edge this vertex completes."""
    allowed = (1 << (used + 1)) - 1
    for others, in_c, in_d in fire_v:
        got = {labels[u] for u in others}
        if in_c and len(got) == len(others):
            mask = 0
            for lab in got:
                mask |= 1 << lab
            allowed &= mask
        if in_d and len(got) == 1:
            allowed &= ~(1 << next(iter(got)))
        if not allowed:
            return 0
    return allowed


def _search(
    h: MixedHypergraph, cfg: EnumerationConfig, emit: Callable[[list[int]], None]
) -> None:
    """Depth-first search over restricted-growth assignments.

    Calls `emit(labels)` once per feasible partition, with `labels` indexed by
    vertex; the list is reused, so a caller that keeps it must copy it.
    """
    if h.n > cfg.max_vertices:
        raise CapExceeded(
            f"hypergraph has {h.n} vertices, enumeration cap is {cfg.max_vertices}",
            stats={"vertices": h.n, "max_vertices": cfg.max_vertices},
        )
    space = _SearchSpace(h)
    order = space.order
    fire = space.fire
    n = space.n
    deadline = None
    if cfg.time_budget is not None:
        deadline = time.perf_counter() + cfg.time_budget
    labels = [-1] * n
    nodes = found = 0

    def rec(p: int, used: int) -> None:
        nonlocal nodes, found
        if p == n:
            found += 1
            emit(labels)
            return
        v = order[p]
        rest = _domain_mask(fire[v], labels, used)
        color = 0
        while rest:
            if rest & 1:
                nodes += 1
                if deadline is not None and nodes & _TIME_CHECK_MASK == 0:
                    if time.perf_counter() > deadline:
                        raise CapExceeded(
                            "time budget exceeded during enumeration",
                            stats={"nodes": nodes, "found": found},
                        )
                labels[v] = color
                rec(p + 1, used + (1 if color == used else 0))
                labels[v] = -1
            rest >>= 1
            color += 1

    try:
        rec(0, 0)
    finally:
        del rec  # rec refers to itself; breaking that cycle frees the search space now


def enumerate_feasible_partitions(
    h: MixedHypergraph, cfg: EnumerationConfig | None = None
) -> list[Partition]:
    """All partitions of the vertex set that properly color the hypergraph.

    Output is in canonical form and sorted by restricted-growth label string,
    so it is identical across runs.
    """
    cfg = cfg or EnumerationConfig()
    found: list[Partition] = []
    _search(h, cfg, lambda labels: found.append(Partition.from_labels(labels)))
    found.sort(key=Partition.as_labels)
    return found


def chromatic_spectrum(
    h: MixedHypergraph, cfg: EnumerationConfig | None = None
) -> ChromaticSpectrum:
    """Count feasible partitions by class count.

    With `collect_partitions` unset the search only streams counts, which
    keeps memory flat on permissive hypergraphs with huge partition families.
    """
    cfg = cfg or EnumerationConfig()
    if cfg.collect_partitions:
        by_k = Counter(p.num_classes for p in enumerate_feasible_partitions(h, cfg))
    else:
        by_k = Counter()

        def count(labels: list[int]) -> None:
            by_k[len(set(labels))] += 1

        _search(h, cfg, count)
    return ChromaticSpectrum.from_class_counts(by_k)


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

    def rec(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(labels)
            return
        for color in range(used + 1):
            labels[i] = color
            yield from rec(i + 1, used + (1 if color == used else 0))

    yield from rec(1, 1)


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

    proof mode: a triple is absent exactly when some coordinate is constant or
    three-valued across it; either way the coloring along that coordinate is
    destroyed (monochromatic edge, respectively rainbow edge), so the spectrum
    drops. The check confirms the coordinate witness exists for every absent
    triple.

    enumerate mode: recompute the full spectrum with the triple added and
    assert it differs; exact but only viable within the enumeration caps.
    """
    if mode not in ("proof", "enumerate"):
        raise ValueError(f"mode must be 'proof' or 'enumerate', got {mode!r}")
    cfg = cfg or EnumerationConfig()
    h = product_bihypergraph(d)
    edge_set = set(h.bi_edges)
    failures: list[tuple[int, int, int]] = []
    tested = 0
    base = chromatic_spectrum(h, cfg) if mode == "enumerate" else None
    for triple in itertools.combinations(range(h.n), 3):
        if triple in edge_set:
            continue
        tested += 1
        if mode == "proof":
            a, b, c = (h.vertices[v] for v in triple)
            if not any(len({x, y, z}) != 2 for x, y, z in zip(a, b, c)):
                failures.append(triple)  # pragma: no cover - cannot happen
        else:
            if chromatic_spectrum(h.with_bi_edge(triple), cfg) == base:
                failures.append(triple)
    expected = comb(h.n, 3) - len(edge_set)
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
