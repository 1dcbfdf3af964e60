"""Enumeration engine, oracle agreement, and the claim verifiers."""

import gc
import itertools
import json
import random
import time
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest
from conftest import oracle_spectrum, random_mixed_hypergraph, stirling2

from bihyper import solver
from bihyper import (
    CapExceeded,
    ChromaticSpectrum,
    DimsSpec,
    EnumerationConfig,
    UncolorableError,
    brute_force_spectrum,
    canonical_coloring,
    chromatic_numbers,
    chromatic_spectrum,
    enumerate_feasible_partitions,
    feasible_set,
    from_json_dict,
    is_isomorphic,
    is_proper_coloring,
    make_mixed_hypergraph,
    product_bihypergraph,
    reduced_bihypergraph,
    to_json_dict,
    verify_edge_maximality,
    verify_reduced_equivalence,
)
from bihyper.cli import run


def edgeless(n):
    return make_mixed_hypergraph([(i + 1,) for i in range(n)], [], [])


def c_edges_only(h):
    return make_mixed_hypergraph(h.vertices, h.c_edges, [], dims=h.dims)


def h33_plus_diagonal():
    h = product_bihypergraph(DimsSpec.of(3, 3))
    index = {v: i for i, v in enumerate(h.vertices)}
    return h.with_bi_edge(index[v] for v in [(1, 1), (2, 2), (3, 3)])


@pytest.fixture
def clock(monkeypatch):
    """A fake clock for the solver: each read returns `now`, then adds `tick` to it."""
    fake = SimpleNamespace(now=0.0, tick=0.0, reads=0)

    def perf_counter():
        fake.reads += 1
        fake.now += fake.tick
        return fake.now - fake.tick

    monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=perf_counter))
    return fake


# --- enumeration -----------------------------------------------------------------


def test_h43_has_exactly_the_axis_partitions():
    d = DimsSpec.of(4, 3)
    found = enumerate_feasible_partitions(product_bihypergraph(d))
    assert set(found) == {canonical_coloring(d, 1), canonical_coloring(d, 2)}
    assert sorted(p.num_classes for p in found) == [3, 4]


def test_h33_has_two_three_class_partitions():
    found = enumerate_feasible_partitions(product_bihypergraph(DimsSpec.of(3, 3)))
    assert len(found) == 2
    assert all(p.num_classes == 3 for p in found)


def test_edgeless_yields_all_partitions():
    found = enumerate_feasible_partitions(edgeless(3))
    assert len(found) == 5  # Bell number
    assert len(set(found)) == 5


def test_duplicate_dims_collapse_axis_partitions():
    # both axes of the square give distinct partitions; nothing else survives
    d = DimsSpec.of(3, 3)
    found = enumerate_feasible_partitions(product_bihypergraph(d))
    assert set(found) == {canonical_coloring(d, 1), canonical_coloring(d, 2)}


@pytest.mark.parametrize(
    "dims",
    [(3, 3), (4, 3), (4, 4), (5, 4), (3, 3, 3), (4, 3, 3), (4, 4, 3), (5, 5, 4), (6, 5, 4)],
)
def test_products_enumerate_to_exactly_the_axis_partitions(dims):
    # (5,5,4) and (6,5,4) have 100 and 120 vertices, past the default cap of 64
    d = DimsSpec(dims)
    h = product_bihypergraph(d)
    cfg = EnumerationConfig(max_vertices=max(64, h.n))
    found = enumerate_feasible_partitions(h, cfg)
    expected = {canonical_coloring(d, axis) for axis in range(1, d.s + 1)}
    assert set(found) == expected
    # r_n is the number of times n occurs in dims
    assert chromatic_spectrum(h, cfg) == ChromaticSpectrum.from_class_counts(Counter(dims))


def test_emitted_partitions_revalidate():
    for h in (
        product_bihypergraph(DimsSpec.of(4, 3)),
        h33_plus_diagonal(),
        edgeless(5),
        random_mixed_hypergraph(random.Random(7)),
    ):
        for p in enumerate_feasible_partitions(h):
            assert is_proper_coloring(h, p)


def test_output_sorted_by_label_string():
    for h in (
        edgeless(4),
        product_bihypergraph(DimsSpec.of(4, 3, 3)),
        # seeded mixed instances on 8 vertices with 2,549 and 1,992 partitions
        random_mixed_hypergraph(random.Random(9), max_edges=6),
        random_mixed_hypergraph(random.Random(12), max_edges=6),
    ):
        labels = [p.as_labels() for p in enumerate_feasible_partitions(h)]
        assert labels == sorted(labels)
        assert len(set(labels)) == len(labels)


def test_enumeration_vertex_cap():
    with pytest.raises(CapExceeded):
        enumerate_feasible_partitions(edgeless(10), EnumerationConfig(max_vertices=9))
    with pytest.raises(CapExceeded):
        enumerate_feasible_partitions(edgeless(65))


def test_collected_partitions_share_class_tuples():
    found = enumerate_feasible_partitions(edgeless(6))
    assert len(found) == 203
    # one tuple per nonempty vertex subset that occurs as a class: 2**6 - 1
    assert len({id(c) for p in found for c in p.classes}) == 63


def test_collecting_edgeless_9_peaks_below_250_bytes_per_partition():
    # about 140 B each with shared classes and a slotted Partition, over 500
    # when every partition built its own classes and kept a __dict__
    h = edgeless(9)
    gc.collect()
    tracemalloc.start()
    try:
        found = enumerate_feasible_partitions(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == 21147
    assert peak / len(found) < 250


def test_spectrum_of_a_built_product_peaks_below_half_a_megabyte():
    # one row of masks per vertex shares the builder's mask objects: about
    # 0.2 MB on (6,5,4), against 1.0 MB with two (vertex, mask) tuples per pair
    h = product_bihypergraph(DimsSpec.of(6, 5, 4))
    cfg = EnumerationConfig(max_vertices=120)
    gc.collect()
    tracemalloc.start()
    try:
        spectrum = chromatic_spectrum(h, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spectrum.counts[3:] == (1, 1, 1)
    assert peak < 500_000


def test_collected_partition_cap(monkeypatch):
    monkeypatch.setattr(solver, "MAX_COLLECTED_PARTITIONS", 100)
    assert len(enumerate_feasible_partitions(edgeless(5))) == 52
    with pytest.raises(CapExceeded) as err:
        enumerate_feasible_partitions(edgeless(6))  # 203 partitions
    assert err.value.stats == {"found": 101, "max_partitions": 100}
    assert chromatic_spectrum(edgeless(6)).total_partitions == 203  # counting keeps none


def test_time_budget_aborts_with_stats():
    cfg = EnumerationConfig(time_budget=0.05)
    with pytest.raises(CapExceeded) as err:
        chromatic_spectrum(edgeless(18), cfg)
    assert "nodes" in err.value.stats


def test_time_budget_polls_the_clock_under_batched_leaves():
    # about 10^10 partitions; leaves come in batches, but the clock is read
    # every 4096 class tries above the last vertex, so the budget still trips
    cfg = EnumerationConfig(time_budget=0.2)
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as err:
        chromatic_spectrum(edgeless(16), cfg)
    assert time.perf_counter() - start < 3.0
    stats = err.value.stats
    # nodes are class tries, not the partitions each leaf's mask holds
    assert 0 < stats["nodes"] < stats["found"]


def test_time_budget_counts_the_edges_each_try_scans(clock):
    # (5,4,3) needs 166 class tries, far fewer than 4096, but a try at depth d
    # reads the tried vertex's masks at its d colored vertices, up to 59: the
    # clock must be read long before the search ends
    h = product_bihypergraph(DimsSpec.of(5, 4, 3))
    clock.tick = 1.0  # every read finds the last one's deadline passed
    with pytest.raises(CapExceeded, match="during enumeration") as err:
        chromatic_spectrum(h, EnumerationConfig(time_budget=0.5))
    assert clock.reads == 2  # the deadline, then the first check
    assert 0 < err.value.stats["nodes"] < 166
    clock.reads = 0
    assert chromatic_spectrum(h).counts[2:] == (1, 1, 1)  # no budget: no clock read
    assert clock.reads == 0


@pytest.mark.parametrize("loaded", [False, True], ids=["builder", "json"])
def test_time_budget_covers_the_index_build(clock, loaded):
    # (6,5,4) has 28,800 edges: the index build reads the clock after every
    # 8,192 of them in a pass over the edges (a JSON input's masks are made
    # so), and after the rows of about as many edges (a builder's masks), so
    # the budget trips before the first node
    h = product_bihypergraph(DimsSpec.of(6, 5, 4))
    if loaded:
        h = from_json_dict(to_json_dict(h))
    clock.tick = 1.0
    with pytest.raises(CapExceeded, match="indexing") as err:
        chromatic_spectrum(h, EnumerationConfig(max_vertices=120, time_budget=0.5))
    assert err.value.stats == {"nodes": 0, "found": 0}
    assert clock.reads == 2  # the deadline, then the first block's end


@pytest.mark.parametrize(("budget", "reads", "where"), [
    (5.5, 7, "indexing"),
    (6.5, 8, "during enumeration"),
])
def test_time_budget_covers_the_incident_pass(clock, budget, reads, where):
    # the (6,5,4) product's 28,800 edges as C-edges alone take the edge path:
    # reads 2-4 end blocks of the pass that makes the rows, reads 5-7 blocks
    # of the pass that lists each vertex's incident edges (the full rows'
    # 14,400 units read no clock), read 8 is the search's first
    h = c_edges_only(product_bihypergraph(DimsSpec.of(6, 5, 4)))
    clock.tick = 1.0
    with pytest.raises(CapExceeded, match=where) as err:
        chromatic_spectrum(h, EnumerationConfig(max_vertices=120, time_budget=budget))
    assert clock.reads == reads
    if where == "indexing":
        assert err.value.stats == {"nodes": 0, "found": 0}


@pytest.mark.parametrize(("build", "pair_path", "nodes"), [
    (lambda: product_bihypergraph(DimsSpec.of(7, 3, 3)), True, 178),
    (lambda: product_bihypergraph(DimsSpec.of(6, 3, 3)), True, 151),
    (lambda: product_bihypergraph(DimsSpec.of(5, 4, 3)), True, 166),
    (lambda: product_bihypergraph(DimsSpec.of(6, 5, 4)), True, 338),
    (lambda: product_bihypergraph(DimsSpec.of(6, 5, 4, 3)), True, 1_365),
    (lambda: reduced_bihypergraph(DimsSpec.of(12, 10, 8, 6, 4)), True, 149),
    (lambda: edgeless(10), False, 26_442),
    (lambda: c_edges_only(product_bihypergraph(DimsSpec.of(4, 3))), False, 2_067),
], ids=["product733", "product633", "product543", "product654", "product6543", "reduced",
        "edgeless10", "c_only43"])
def test_branching_is_pinned(monkeypatch, build, pair_path, nodes):
    # class tries: both paths narrow to the same masks, so these counts pin
    # the branching whichever path an instance takes. Only 3-element bi-edges
    # take the pair path: the (4,3) product's edges as C-edges alone do not
    verdicts = []  # the pair-path rule as the search applied it
    real = solver._pairs_pay

    def spy(pairs, triples):
        verdicts.append(real(pairs, triples))
        return verdicts[-1]

    monkeypatch.setattr(solver, "_pairs_pay", spy)
    cfg = EnumerationConfig(max_vertices=360)
    assert solver._search(build(), cfg, lambda labels, v, allowed, fresh: None) == nodes
    assert verdicts == [pair_path]


@pytest.mark.parametrize(("build", "counts"), [
    (lambda: product_bihypergraph(DimsSpec.of(6, 5, 4)), (7_140, 28_800)),
    (lambda: from_json_dict(to_json_dict(product_bihypergraph(DimsSpec.of(6, 5, 4)))),
     (7_140, 28_800)),
    (lambda: reduced_bihypergraph(DimsSpec.of(12, 10, 8, 6, 4)), (493, 364)),
    (lambda: make_mixed_hypergraph([(i + 1,) for i in range(6)],
                                   [(0, 1, 2), (2, 3, 4), (1, 4, 5), (3, 5)], [(0, 1, 2)]),
     (3, 1)),
], ids=["product654", "product654_json", "reduced", "one_bi_edge"])
def test_pair_rule_gets_the_pairs_and_triples(monkeypatch, build, counts):
    # the verdicts pinned above would survive a wrong divisor on products;
    # the rule's arguments are the covered pairs and the 3-element bi-edges
    seen = []
    real = solver._pairs_pay

    def spy(pairs, triples):
        seen.append((pairs, triples))
        return real(pairs, triples)

    monkeypatch.setattr(solver, "_pairs_pay", spy)
    chromatic_spectrum(build(), EnumerationConfig(max_vertices=120))
    assert seen == [counts]


def test_search_hands_over_the_last_vertex_as_one_mask():
    # one leaf per partition of the first 7 vertices, B(7) = 877, whose masks
    # hold all B(8) = 4,140 partitions of edgeless 8
    masks = []

    def leaf(labels, v, allowed, fresh):
        masks.append(allowed)

    solver._search(edgeless(8), EnumerationConfig(), leaf)
    assert len(masks) == 877
    assert sum(m.bit_count() for m in masks) == 4140


@pytest.mark.parametrize(
    "n, c_edges, d_edges, counts",
    [
        (1, [], [], (1,)),  # a leaf at depth 0
        (2, [], [(0, 1)], (0, 1)),  # D-edge: the last vertex must open a class
        (2, [(0, 1)], [], (1,)),  # C-edge: it must reuse the first one
        (2, [(0, 1)], [(0, 1)], ()),  # both: a wipeout, no leaf
        # coloring 2 narrows 3 by the C-edge to {0, 1}, then by the D-edge to one class
        (4, [(1, 2, 3)], [(0, 1), (2, 3)], (0, 2, 2)),
        # 2 is narrowed to class 0 by a C-edge, and then the D-edge empties it
        (3, [(0, 1), (0, 2)], [(1, 2)], ()),
        # the D-edge {0, 2} and the C-edge {0, 1, 2} leave 2 class 1 only; the
        # C-edge {1, 2} then narrows it to class 1 again, changing no allowed class
        (3, [(0, 1, 2), (1, 2)], [(0, 1), (0, 2)], (0, 1)),
    ],
)
def test_shallow_leaves_match_brute_force(n, c_edges, d_edges, counts):
    h = make_mixed_hypergraph([(i + 1,) for i in range(n)], c_edges, d_edges)
    sp = chromatic_spectrum(h)
    assert sp.counts == counts == brute_force_spectrum(h).counts
    assert sorted(p.num_classes for p in enumerate_feasible_partitions(h)) == [
        k for k, r in enumerate(counts, 1) for _ in range(r)
    ]
    if not counts:
        with pytest.raises(UncolorableError):
            chromatic_numbers(h)


def test_deep_instance_has_no_recursion_limit():
    # a star of C-edges {0, i} on 1,200 vertices forces one class; a recursive
    # search would need a frame per vertex
    n = 1200
    h = make_mixed_hypergraph([(i + 1,) for i in range(n)], [(0, i) for i in range(1, n)], [])
    sp = chromatic_spectrum(h, EnumerationConfig(max_vertices=5000))
    assert sp.counts == (1,)


def test_ties_go_to_vertices_in_more_edges():
    # 13 free vertices, then a 2-element bi-edge no coloring satisfies; taking
    # ties by lowest index alone would first enumerate all Bell(13) = 27.6
    # million partitions of the free vertices
    h = make_mixed_hypergraph([(i + 1,) for i in range(15)], [(13, 14)], [(13, 14)])
    assert chromatic_spectrum(h, EnumerationConfig(time_budget=5.0)).is_empty


@pytest.mark.parametrize(
    "call",
    [
        lambda h: is_isomorphic(h, h),
        chromatic_spectrum,
        enumerate_feasible_partitions,
    ],
    ids=["is_isomorphic", "chromatic_spectrum", "enumerate_feasible_partitions"],
)
def test_calls_leave_no_reference_cycles(call):
    # a search that refers to itself would keep its tables alive until the
    # cyclic collector runs; with it disabled, nothing may be left to collect
    h = product_bihypergraph(DimsSpec.of(4, 3))
    gc.collect()
    gc.disable()
    try:
        call(h)
        leaked = gc.collect()
    finally:
        gc.enable()
    assert leaked == 0


def test_config_validation():
    with pytest.raises(ValueError):
        EnumerationConfig(max_vertices=0)
    with pytest.raises(ValueError):
        EnumerationConfig(time_budget=0)
    with pytest.raises(ValueError):
        EnumerationConfig(time_budget=float("nan"))  # would never trip the deadline
    # exact types: no truncated float, no bool, and ValueError (not TypeError) for a string
    for bad in (2.5, 5.0, True, "5"):
        with pytest.raises(ValueError):
            EnumerationConfig(max_vertices=bad)
    for bad in (True, "5"):
        with pytest.raises(ValueError):
            EnumerationConfig(time_budget=bad)
    assert EnumerationConfig(max_vertices=5, time_budget=2).time_budget == 2


# --- spectra ----------------------------------------------------------------------


def test_h43_spectrum_vector():
    sp = chromatic_spectrum(product_bihypergraph(DimsSpec.of(4, 3)))
    assert sp.counts == (0, 0, 1, 1)


def test_h433_spectrum():
    sp = chromatic_spectrum(product_bihypergraph(DimsSpec.of(4, 3, 3)))
    assert sp.r(3) == 2 and sp.r(4) == 1
    assert sp.total_partitions == 3


def test_blocked_diagonal_empties_the_spectrum():
    sp = chromatic_spectrum(h33_plus_diagonal())
    assert sp.is_empty
    assert feasible_set(h33_plus_diagonal()) == frozenset()
    with pytest.raises(UncolorableError):
        chromatic_numbers(h33_plus_diagonal())


def test_feasible_set_and_numbers():
    h = product_bihypergraph(DimsSpec.of(4, 3))
    assert feasible_set(h) == frozenset({3, 4})
    assert chromatic_numbers(h) == (3, 4)


def test_edgeless_feasible_set_is_everything():
    assert feasible_set(edgeless(5)) == frozenset({1, 2, 3, 4, 5})


@pytest.mark.parametrize("n", range(1, 9))
def test_edgeless_spectrum_is_stirling_row(n):
    sp = chromatic_spectrum(edgeless(n))
    assert sp.counts == tuple(stirling2(n, k) for k in range(1, n + 1))


def test_count_only_mode_matches_collected():
    for h in (
        product_bihypergraph(DimsSpec.of(4, 3)),
        random_mixed_hypergraph(random.Random(27)),  # 8 vertices, 399 partitions
    ):
        collected = Counter(p.num_classes for p in enumerate_feasible_partitions(h))
        assert chromatic_spectrum(h) == ChromaticSpectrum.from_class_counts(collected)


# --- brute-force oracle --------------------------------------------------------------


def test_brute_force_h33():
    sp = brute_force_spectrum(product_bihypergraph(DimsSpec.of(3, 3)))
    assert sp.counts == (0, 0, 2)


def test_brute_force_single_biedge():
    h = make_mixed_hypergraph([(1,), (2,), (3,)], [(0, 1, 2)], [(0, 1, 2)])
    assert brute_force_spectrum(h).counts == (0, 3)


def test_brute_force_edgeless_is_stirling():
    assert brute_force_spectrum(edgeless(4)).counts == (1, 7, 6, 1)


def test_brute_force_cap():
    with pytest.raises(CapExceeded):
        brute_force_spectrum(edgeless(13))


def test_solver_agrees_with_brute_force_on_random_instances():
    rng = random.Random(20250808)
    for _ in range(30):
        h = random_mixed_hypergraph(rng)
        assert chromatic_spectrum(h) == brute_force_spectrum(h)


def test_solver_agrees_with_direct_partition_scan():
    rng = random.Random(99)
    for _ in range(10):
        h = random_mixed_hypergraph(rng, max_vertices=7)
        expected = oracle_spectrum(h)
        got = chromatic_spectrum(h)
        assert {k: got.r(k) for k in expected} == expected
        assert got.total_partitions == sum(expected.values())


def dense_bi_instance(seed):
    """5-9 vertices with n to 3n 3-element bi-edges, drawn from `seed`, and up
    to three 2-edges, each a C-edge or a D-edge."""
    rng = random.Random(seed)
    n = rng.randint(5, 9)
    triples = list(itertools.combinations(range(n), 3))
    bi = rng.sample(triples, rng.randint(n, min(3 * n, len(triples))))
    c_edges, d_edges = list(bi), list(bi)
    for _ in range(rng.randint(0, 3)):
        e = rng.sample(range(n), 2)
        (c_edges if rng.random() < 0.5 else d_edges).append(e)
    return make_mixed_hypergraph([(i + 1,) for i in range(n)], c_edges, d_edges)


def test_pair_path_matches_partition_scan_on_seeded_dense_instances(monkeypatch):
    # a fixed sweep beside the Hypothesis one: the pair path's one-class set
    # tests, their undo and the 2-edges that leave a vertex one class each go
    # wrong on only a few such draws, so 40 random ones can miss a slip
    real = solver._pairs_pay
    verdicts = []

    def spy(pairs, triples):
        verdicts.append(real(pairs, triples))
        return verdicts[-1]

    monkeypatch.setattr(solver, "_pairs_pay", spy)
    for seed in range(200):
        h = dense_bi_instance(seed)
        expected = oracle_spectrum(h)
        got = chromatic_spectrum(h)
        assert {k: got.r(k) for k in expected} == expected, seed
        assert got.total_partitions == sum(expected.values()), seed
    assert len(verdicts) == 200 and sum(verdicts) == 101  # the draws on the pair path


# --- determinism -----------------------------------------------------------------------


def serialized(h):
    return json.dumps([list(p.as_labels()) for p in enumerate_feasible_partitions(h)]).encode()


def test_repeated_runs_identical():
    h = product_bihypergraph(DimsSpec.of(3, 3))
    assert serialized(h) == serialized(h)


# --- monotonicity ------------------------------------------------------------------------


def test_adding_edges_never_adds_partitions():
    h = product_bihypergraph(DimsSpec.of(3, 3))
    base = set(enumerate_feasible_partitions(h))
    edge_set = set(h.bi_edges)
    for triple in itertools.combinations(range(h.n), 3):
        if triple in edge_set:
            continue
        extended = set(enumerate_feasible_partitions(h.with_bi_edge(triple)))
        assert extended <= base


# --- edge maximality -----------------------------------------------------------------------


def test_maximality_enumerate_h33():
    report = verify_edge_maximality(DimsSpec.of(3, 3), mode="enumerate")
    assert report.tested_triples == 48  # C(9,3) - 36
    assert report.failures == ()
    assert report.ok
    assert report.base_spectrum == ChromaticSpectrum.from_class_counts({3: 2})


def test_maximality_proof_h43():
    report = verify_edge_maximality(DimsSpec.of(4, 3), mode="proof")
    assert report.tested_triples == 148  # C(12,3) - 72
    assert report.failures == ()
    assert report.base_spectrum is None


def test_maximality_proof_reports_a_dropped_edge(monkeypatch, capsys):
    # a product builder that loses one edge leaves a non-edge that every axis
    # partition puts on two classes; proof mode must name exactly that triple
    full = solver.product_bihypergraph
    lost = full(DimsSpec.of(4, 3)).bi_edges[5]

    def dropping(d):
        h = full(d)
        kept = [e for e in h.bi_edges if e != lost]
        return make_mixed_hypergraph(h.vertices, kept, kept, dims=h.dims)

    monkeypatch.setattr(solver, "product_bihypergraph", dropping)
    report = verify_edge_maximality(DimsSpec.of(4, 3), mode="proof")
    assert report.failures == (lost,)
    assert report.tested_triples == 149
    assert run(["verify", "thm24", "4", "3"]) == 1
    assert "FAILED: 1 of 149 non-edges" in capsys.readouterr().out


def test_maximality_modes_validate():
    with pytest.raises(ValueError):
        verify_edge_maximality(DimsSpec.of(3, 3), mode="nope")


def test_maximality_enumerate_respects_caps():
    cfg = EnumerationConfig(max_vertices=8)
    with pytest.raises(CapExceeded):
        verify_edge_maximality(DimsSpec.of(3, 3), cfg, mode="enumerate")


def test_maximality_scan_respects_time_budget():
    # the (6,5,4) proof-mode scan of 252,040 non-edges takes well over 0.1 s
    # and enumerates nothing, so only the scan can spend the budget
    cfg = EnumerationConfig(max_vertices=120, time_budget=0.001)
    with pytest.raises(CapExceeded, match="non-edge scan") as err:
        verify_edge_maximality(DimsSpec.of(6, 5, 4), cfg, mode="proof")
    assert 0 <= err.value.stats["tested"] < 252_040


def test_maximality_enumeration_runs_under_what_the_build_left(clock, monkeypatch):
    # one deadline covers the whole call: the enumeration gets what the
    # product build left of it, and none when the build has spent it all
    budgets = []
    build, enumerate_ = solver.product_bihypergraph, solver.enumerate_feasible_partitions

    def slow_build(d):
        clock.now += build_s
        return build(d)

    def spy(h, cfg):
        budgets.append(cfg.time_budget)
        return enumerate_(h, cfg)

    monkeypatch.setattr(solver, "product_bihypergraph", slow_build)
    monkeypatch.setattr(solver, "enumerate_feasible_partitions", spy)
    cfg = EnumerationConfig(time_budget=0.5)
    build_s = 0.3
    assert verify_edge_maximality(DimsSpec.of(3, 3), cfg, mode="enumerate").ok
    assert budgets == [pytest.approx(0.2)]
    build_s = 0.5
    with pytest.raises(CapExceeded, match="before the enumeration") as err:
        verify_edge_maximality(DimsSpec.of(3, 3), cfg, mode="enumerate")
    assert err.value.stats == {"tested": 0, "non_edges": 48}
    assert len(budgets) == 1


def test_maximality_enumerate_refuses_the_cap_before_building(monkeypatch):
    def refuse(d):
        raise AssertionError(f"built the {d.dims} product past the cap")

    monkeypatch.setattr(solver, "product_bihypergraph", refuse)
    with pytest.raises(CapExceeded, match="336 vertices, enumeration cap is 64") as err:
        verify_edge_maximality(DimsSpec.of(8, 7, 6), mode="enumerate")
    assert err.value.stats == {"vertices": 336, "max_vertices": 64}


# --- reduced equivalence ----------------------------------------------------------------------


def test_reduced_equivalence_runs_under_one_deadline(clock, monkeypatch):
    # each search gets what the builds and searches before it left of one
    # deadline, and none when they have spent it all
    budgets = []
    build_reduced, build_product = solver.reduced_bihypergraph, solver.product_bihypergraph
    spectrum = solver.chromatic_spectrum

    def slow_reduced(d):
        clock.now += 0.1
        return build_reduced(d)

    def slow_product(d):
        clock.now += product_s
        return build_product(d)

    def spy(h, cfg):
        budgets.append(cfg.time_budget)
        result = spectrum(h, cfg)
        clock.now += 0.1
        return result

    monkeypatch.setattr(solver, "reduced_bihypergraph", slow_reduced)
    monkeypatch.setattr(solver, "product_bihypergraph", slow_product)
    monkeypatch.setattr(solver, "chromatic_spectrum", spy)
    cfg = EnumerationConfig(time_budget=0.5)
    product_s = 0.2
    assert verify_reduced_equivalence(DimsSpec.of(5, 4), cfg).full_source == "enumerated"
    assert budgets == [pytest.approx(0.4), pytest.approx(0.1)]
    product_s = 0.3
    with pytest.raises(CapExceeded, match="before the enumeration") as err:
        verify_reduced_equivalence(DimsSpec.of(5, 4), cfg)
    assert err.value.stats == {"enumerated": 1}
    assert len(budgets) == 3


def test_reduced_equivalence_54_enumerated_both_sides():
    report = verify_reduced_equivalence(DimsSpec.of(5, 4))
    assert report.equal
    assert report.full_source == "enumerated"
    assert report.reduced_spectrum.as_report()["spectrum"] == {"4": 1, "5": 1}
    assert report.reduced_size == 14
    assert report.note is None


def test_reduced_equivalence_654_predicted_full_side():
    report = verify_reduced_equivalence(DimsSpec.of(6, 5, 4))
    assert report.equal
    assert report.full_source == "predicted"  # 120 vertices exceed the default cap
    assert report.reduced_spectrum.as_report()["spectrum"] == {"4": 1, "5": 1, "6": 1}
    assert report.reduced_size == 18


def test_reduced_equivalence_654_enumerated_with_raised_cap():
    report = verify_reduced_equivalence(DimsSpec.of(6, 5, 4), EnumerationConfig(max_vertices=120))
    assert report.full_source == "enumerated"
    assert report.equal
    assert report.full_spectrum.as_report()["spectrum"] == {"4": 1, "5": 1, "6": 1}


def test_reduced_equivalence_flags_extrapolated_prediction():
    report = verify_reduced_equivalence(DimsSpec.of(9, 9))
    assert report.full_source == "predicted"
    assert report.note is not None
    assert report.equal  # r_9 = 2 on both sides


def test_reduced_equivalence_rejects_bad_dims():
    with pytest.raises(ValueError):
        verify_reduced_equivalence(DimsSpec.of(4, 4, 3))
