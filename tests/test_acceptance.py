"""Acceptance suite: one criterion per test, each at its stated tolerance.

Every test prints a single `ACCEPTANCE <n> PASS/FAIL` line (run pytest with -s
to see them live). Time budgets are asserted, not just reported.
"""

import itertools
import json
import random
from contextlib import contextmanager
from time import perf_counter

from conftest import (
    random_mixed_hypergraph,
    stirling2,
    witness_is_isomorphism,
)

from bihyper import (
    DimsSpec,
    EnumerationConfig,
    brute_force_spectrum,
    chromatic_spectrum,
    derived_subhypergraph,
    enumerate_feasible_partitions,
    is_isomorphic,
    is_proper_coloring,
    make_mixed_hypergraph,
    product_bihypergraph,
    reduced_vertex_set,
    verify_edge_maximality,
    verify_reduced_equivalence,
)


@contextmanager
def criterion(num: int, description: str, budget: float | None = None):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {description}")
        raise
    elapsed = perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"ACCEPTANCE {num} FAIL: {description} [{elapsed:.2f}s over {budget}s]")
        raise AssertionError(f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s")
    print(f"ACCEPTANCE {num} PASS: {description} [{elapsed:.2f}s]")


def spectrum_of(dims, **cfg_kwargs):
    cfg = EnumerationConfig(**cfg_kwargs)
    return chromatic_spectrum(product_bihypergraph(DimsSpec(dims)), cfg)


def blocked_h33():
    h = product_bihypergraph(DimsSpec.of(3, 3))
    index = {v: i for i, v in enumerate(h.vertices)}
    return h.with_bi_edge(index[v] for v in [(1, 1), (2, 2), (3, 3)])


def test_criterion_1_spectrum_12_vertices():
    with criterion(1, "R of the (4,3) product is exactly {3:1,4:1}", budget=1.0):
        sp = spectrum_of((4, 3))
        assert sp.counts == (0, 0, 1, 1)


def test_criterion_2_spectrum_20_vertices():
    with criterion(2, "R of the (5,4) product is exactly {4:1,5:1}", budget=10.0):
        sp = spectrum_of((5, 4))
        assert sp.counts == (0, 0, 0, 1, 1)


def test_criterion_3_spectrum_36_vertices():
    with criterion(3, "R of the (4,3,3) product is exactly {3:2,4:1}", budget=120.0):
        sp = spectrum_of((4, 3, 3))
        assert sp.counts == (0, 0, 2, 1)


def test_criterion_4_spectrum_60_vertices_stretch():
    description = "R of the (5,4,3) product is exactly {3:1,4:1,5:1} (stretch)"
    with criterion(4, description, budget=10.0):
        sp = spectrum_of((5, 4, 3), time_budget=9.0)
        assert sp.counts == (0, 0, 1, 1, 1)


def test_criterion_5_edge_maximality():
    description = (
        "every absent triple changes the spectrum: (3,3) by re-enumeration, "
        "(3,3), (4,3) and (4,3,3) by one enumeration each, and (4,3) and "
        "(4,3,3) by coordinate witnesses"
    )
    with criterion(5, description):
        start = perf_counter()
        report = verify_edge_maximality(DimsSpec.of(3, 3), mode="enumerate")
        assert report.tested_triples == 48
        assert report.failures == ()
        # distribution of the changed spectra: 12 additions block both axis
        # partitions (empty spectrum), the rest leave exactly one
        h = product_bihypergraph(DimsSpec.of(3, 3))
        edges = set(h.bi_edges)
        empties = 0
        for triple in itertools.combinations(range(9), 3):
            if triple in edges:
                continue
            added = chromatic_spectrum(h.with_bi_edge(triple))
            assert added != report.base_spectrum
            if added.is_empty:
                empties += 1
        assert empties == 12
        assert perf_counter() - start < 60.0

        start = perf_counter()
        for dims, expected_tested in (((4, 3), 148), ((4, 3, 3), 5412)):
            for mode in ("proof", "enumerate"):
                report = verify_edge_maximality(DimsSpec(dims), mode=mode)
                assert report.tested_triples == expected_tested
                assert report.failures == ()
        assert perf_counter() - start < 5.0


def test_criterion_6_reduced_equivalence():
    description = (
        "reduced sub-hypergraphs keep the spectrum: (5,4) both sides "
        "enumerated, (6,5,4) against the predicted spectrum"
    )
    with criterion(6, description):
        start = perf_counter()
        report = verify_reduced_equivalence(DimsSpec.of(5, 4))
        assert report.equal
        assert report.full_source == "enumerated"
        assert report.reduced_spectrum.as_report()["spectrum"] == {"4": 1, "5": 1}
        assert report.reduced_size == 14
        assert perf_counter() - start < 30.0

        start = perf_counter()
        report = verify_reduced_equivalence(DimsSpec.of(6, 5, 4))
        assert report.equal
        assert report.full_source == "predicted"
        assert report.reduced_size == 18
        assert report.reduced_spectrum.as_report()["spectrum"] == {
            "4": 1, "5": 1, "6": 1,
        }
        assert perf_counter() - start < 30.0


def test_criterion_7_size_bound_sweep():
    with criterion(7, "|X*| = 2*n1+n2+s-2 for every valid dims, s<=4, n<=9", budget=5.0):
        checked = 0
        for s in (2, 3, 4):
            for dims in itertools.product(range(4, 10), repeat=s):
                if any(dims[i] < dims[i + 1] for i in range(s - 1)):
                    continue
                if any(dims[i] <= dims[i + 1] for i in range(1, s - 1)):
                    continue
                checked += 1
                expected = 2 * dims[0] + dims[1] + s - 2
                assert len(reduced_vertex_set(DimsSpec(dims))) == expected, dims
        assert checked == 91


def test_criterion_8_oracle_equivalence():
    description = "pruned solver equals brute force on small and random instances"
    with criterion(8, description):
        for h in (product_bihypergraph(DimsSpec.of(3, 3)), blocked_h33()):
            assert chromatic_spectrum(h) == brute_force_spectrum(h)
        rng = random.Random(1815)
        for _ in range(50):
            h = random_mixed_hypergraph(rng, max_vertices=9, max_edges=20)
            assert chromatic_spectrum(h) == brute_force_spectrum(h)


def test_criterion_9_structural_properties():
    description = (
        "emitted partitions re-validate, edgeless spectra are Stirling rows, "
        "output is byte-identical across repeated runs"
    )
    with criterion(9, description):
        instances = [
            product_bihypergraph(DimsSpec.of(3, 3)),
            product_bihypergraph(DimsSpec.of(4, 3)),
            product_bihypergraph(DimsSpec.of(5, 4)),
            blocked_h33(),
            make_mixed_hypergraph([(i + 1,) for i in range(6)], [], []),
        ]
        rng = random.Random(92)
        instances += [random_mixed_hypergraph(rng, max_vertices=8) for _ in range(10)]
        for h in instances:
            for p in enumerate_feasible_partitions(h):
                assert is_proper_coloring(h, p)

        for n in range(1, 9):
            edgeless = make_mixed_hypergraph([(i + 1,) for i in range(n)], [], [])
            sp = chromatic_spectrum(edgeless)
            assert sp.counts == tuple(stirling2(n, k) for k in range(1, n + 1))

        for h in (instances[1], instances[4], instances[6]):
            views = [
                json.dumps([list(p.as_labels()) for p in enumerate_feasible_partitions(h)]).encode()
                for _ in range(2)
            ]
            assert views[0] == views[1]


def test_criterion_10_diagonal_isomorphism():
    description = "(4,3,3) product restricted to its diagonal matches the (4,3) product"
    with criterion(10, description, budget=5.0):
        h433 = product_bihypergraph(DimsSpec.of(4, 3, 3))
        diagonal = [i for i, v in enumerate(h433.vertices) if v[1] == v[2]]
        slice_ = derived_subhypergraph(h433, diagonal)
        h43 = product_bihypergraph(DimsSpec.of(4, 3))
        witness = is_isomorphic(slice_, h43)
        assert witness is not None
        assert witness_is_isomorphism(slice_, h43, witness)
