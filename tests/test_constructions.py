"""Family builders: product boxes, axis colorings, reduced vertex sets."""

import itertools

import pytest
from conftest import oracle_box, oracle_edge_count, oracle_scan_edges, oracle_triple_ok

from bihyper import (
    DimsSpec,
    Partition,
    SpectrumTarget,
    canonical_coloring,
    derived_subhypergraph,
    is_strict_k_coloring,
    iter_reduced_dims,
    product_bihypergraph,
    reduced_bihypergraph,
    reduced_vertex_set,
    spectrum_instance,
)

# X* for dims (5,4), instantiated by hand from the block definitions:
# first-position pair for v=5, the 3x3 seed, and the k=4 triple.
REDUCED_54 = {
    (5, 1), (5, 4),
    (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
    (1, 4), (4, 1), (4, 4),
}


# --- product family ------------------------------------------------------------


@pytest.mark.parametrize(
    "dims,expected_edges",
    [((3, 3), 36), ((4, 3), 72), ((5, 4), 240), ((4, 3, 3), 1728), ((3, 3, 3), 864)],
)
def test_product_edge_counts(dims, expected_edges):
    h = product_bihypergraph(DimsSpec(dims))
    assert h.n == len(oracle_box(dims))
    assert len(h.bi_edges) == expected_edges
    assert expected_edges == oracle_edge_count(dims)


@pytest.mark.parametrize("dims", [(3, 3), (4, 3), (5, 4), (3, 3, 3), (4, 3, 3)])
def test_product_matches_exhaustive_scan(dims):
    # the edge generator against the direct triple scan, up to 36 vertices
    h = product_bihypergraph(DimsSpec(dims))
    assert list(h.bi_edges) == oracle_scan_edges(h.vertices)


def test_product_vertices_lexicographic_with_dims():
    h = product_bihypergraph(DimsSpec.of(3, 3))
    assert h.dims == (3, 3)
    assert list(h.vertices) == sorted(h.vertices)
    assert h.vertices[0] == (1, 1) and h.vertices[-1] == (3, 3)


def test_known_edge_membership():
    h = product_bihypergraph(DimsSpec.of(3, 3))
    index = {v: i for i, v in enumerate(h.vertices)}
    triple = tuple(sorted(index[v] for v in [(1, 1), (1, 2), (2, 1)]))
    assert triple in set(h.bi_edges)
    # a rainbow diagonal is not an edge
    diag = tuple(sorted(index[v] for v in [(1, 1), (2, 2), (3, 3)]))
    assert diag not in set(h.bi_edges)


def test_product_rejects_bad_dims():
    with pytest.raises(ValueError):
        product_bihypergraph(DimsSpec.of(3, 4))
    with pytest.raises(ValueError):
        product_bihypergraph(DimsSpec.of(2, 2))


# --- canonical axis colorings ----------------------------------------------------


def test_axis_coloring_shapes():
    d = DimsSpec.of(4, 3)
    h = product_bihypergraph(d)
    rows = canonical_coloring(d, 1)
    cols = canonical_coloring(d, 2)
    assert rows.num_classes == 4 and all(len(c) == 3 for c in rows.classes)
    assert cols.num_classes == 3 and all(len(c) == 4 for c in cols.classes)
    assert is_strict_k_coloring(h, rows, 4)
    assert is_strict_k_coloring(h, cols, 3)


def test_axis_colorings_distinct():
    d = DimsSpec.of(3, 3)
    assert canonical_coloring(d, 1) != canonical_coloring(d, 2)


@pytest.mark.parametrize(
    "dims", [(3, 3), (4, 3), (4, 4), (5, 4), (3, 3, 3), (4, 3, 3), (5, 5, 4)]
)
def test_axis_colorings_strict_everywhere(dims):
    # every axis partition is a strict coloring, instances up to 100 vertices
    d = DimsSpec(dims)
    h = product_bihypergraph(d)
    for axis in range(1, d.s + 1):
        p = canonical_coloring(d, axis)
        assert is_strict_k_coloring(h, p, d.dims[axis - 1])


def test_axis_out_of_range():
    d = DimsSpec.of(3, 3)
    with pytest.raises(ValueError):
        canonical_coloring(d, 0)
    with pytest.raises(ValueError):
        canonical_coloring(d, 3)


# --- spectrum targets --------------------------------------------------------------


def test_spectrum_instance_repeats_dimensions():
    d, h = spectrum_instance(SpectrumTarget.of({4: 1, 3: 2}))
    assert d.dims == (4, 3, 3)
    assert h.n == 36


def test_spectrum_instance_trivial_multiplicities():
    d, h = spectrum_instance(SpectrumTarget.of({4: 1, 3: 1}))
    assert d.dims == (4, 3)
    assert h == product_bihypergraph(DimsSpec.of(4, 3))


def test_spectrum_instance_large():
    d, h = spectrum_instance(SpectrumTarget.of({5: 2, 4: 1}))
    assert d.dims == (5, 5, 4)
    assert h.n == 100
    assert len(h.bi_edges) == oracle_edge_count((5, 5, 4))


def test_spectrum_target_sorts_entries():
    t = SpectrumTarget.of([(3, 2), (5, 1)])
    assert t.entries == ((5, 1), (3, 2))
    assert t.dims.dims == (5, 3, 3)


@pytest.mark.parametrize(
    "pairs",
    [
        {4: 1},  # needs two class counts
        {4: 1, 4: 2},  # dict collapses keys: still one count
        [(4, 1), (4, 2)],  # explicit duplicate counts
        {4: 1, 2: 1},  # class count below 3
        {4: 0, 3: 1},  # multiplicity below 1
        {4.7: 1, 3: 1},  # float class count, not truncated to 4
        {4: 1.5, 3: 1},  # float multiplicity
        {4: True, 3: 1},  # bool multiplicity
    ],
)
def test_spectrum_target_invariants(pairs):
    with pytest.raises(ValueError):
        SpectrumTarget.of(pairs)


# --- reduced vertex sets ---------------------------------------------------------


def test_reduced_set_54_membership():
    xs = reduced_vertex_set(DimsSpec.of(5, 4))
    assert xs == frozenset(REDUCED_54)
    assert len(xs) == 2 * 5 + 4 + 2 - 2


def test_reduced_set_654_size():
    xs = reduced_vertex_set(DimsSpec.of(6, 5, 4))
    assert len(xs) == 2 * 6 + 5 + 3 - 2  # 18


def test_reduced_set_rejects_last_entry_three():
    with pytest.raises(ValueError):
        reduced_vertex_set(DimsSpec.of(4, 4, 3))


def test_reduced_set_equal_leading_dims():
    # first block is empty when n_1 = n_2; the size bound still holds
    xs = reduced_vertex_set(DimsSpec.of(4, 4))
    assert len(xs) == 2 * 4 + 4 + 2 - 2
    assert not any(v[0] > 4 for v in xs)


def test_reduced_size_bound_sweep():
    dims_seen = 0
    for d in iter_reduced_dims(9, 4):
        dims_seen += 1
        n1, n2, s = d.dims[0], d.dims[1], d.s
        assert len(reduced_vertex_set(d)) == 2 * n1 + n2 + s - 2, d.dims
    assert dims_seen == 91


def test_iter_reduced_dims_is_exactly_the_valid_family():
    # independent enumeration of every dims vector passing the reduced rules
    expected = set()
    for s in (2, 3, 4):
        for dims in itertools.product(range(3, 10), repeat=s):
            non_increasing = all(dims[i] >= dims[i + 1] for i in range(s - 1))
            strict_tail = all(dims[i] > dims[i + 1] for i in range(1, s - 1))
            if non_increasing and strict_tail and dims[-1] > 3:
                expected.add(dims)
    assert {d.dims for d in iter_reduced_dims(9, 4)} == expected


# --- reduced bi-hypergraph ---------------------------------------------------------


def test_reduced_bihypergraph_54():
    h = reduced_bihypergraph(DimsSpec.of(5, 4))
    assert h.n == 14
    assert len(h.bi_edges) == 74  # frozen from the exhaustive 364-triple scan
    assert list(h.bi_edges) == oracle_scan_edges(h.vertices)


def test_reduced_contains_seed_edge():
    h = reduced_bihypergraph(DimsSpec.of(5, 4))
    index = {v: i for i, v in enumerate(h.vertices)}
    triple = tuple(sorted(index[v] for v in [(1, 1), (1, 2), (2, 1)]))
    assert triple in set(h.bi_edges)


def test_reduced_bihypergraph_654():
    h = reduced_bihypergraph(DimsSpec.of(6, 5, 4))
    assert h.n == 18
    assert list(h.bi_edges) == oracle_scan_edges(h.vertices)


@pytest.mark.parametrize(
    "dims", [(5, 4), (4, 4), (6, 4), (9, 4), (7, 7), (6, 5, 4), (5, 5, 4)]
)
def test_reduced_equals_derived_from_product(dims):
    # cross-check against the derived-sub-hypergraph route, products <= 200 vertices
    d = DimsSpec(dims)
    full = product_bihypergraph(d)
    members = reduced_vertex_set(d)
    keep = [i for i, v in enumerate(full.vertices) if v in members]
    assert reduced_bihypergraph(d) == derived_subhypergraph(full, keep)


@pytest.mark.parametrize(
    "dims", [(5, 4), (4, 4), (6, 5, 4), (7, 6, 5, 4), (8, 7, 6, 5, 4)]
)
def test_axis_colorings_restrict_strictly_to_reduced(dims):
    # restricting each axis class to the reduced set stays a strict coloring;
    # the reduced edges also match the direct triple scan
    d = DimsSpec(dims)
    h = reduced_bihypergraph(d)
    assert list(h.bi_edges) == oracle_scan_edges(h.vertices)
    index = {v: i for i, v in enumerate(h.vertices)}
    for axis in range(1, d.s + 1):
        classes = [[] for _ in range(d.dims[axis - 1])]
        for v, i in index.items():
            classes[v[axis - 1] - 1].append(i)
        assert all(classes), f"axis {axis} misses a value on the reduced set"
        p = Partition.from_classes(classes)
        assert is_strict_k_coloring(h, p, d.dims[axis - 1])


def test_reduced_vertices_all_satisfy_edge_rule_against_scan():
    # spot-check that membership filtering is what restricts the edges
    d = DimsSpec.of(6, 4)
    h = reduced_bihypergraph(d)
    edges = set(h.bi_edges)
    for t in itertools.combinations(range(h.n), 3):
        expected = oracle_triple_ok(h.vertices[t[0]], h.vertices[t[1]], h.vertices[t[2]])
        assert (t in edges) == expected
