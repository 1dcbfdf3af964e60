"""Core model: construction, predicates, partitions, spectra, JSON format."""

import copy
import dataclasses
import json
import pickle
import re

import pytest
from conftest import (
    oracle_box,
    oracle_partition_labels,
    oracle_proper,
    oracle_scan_edges,
)

import bihyper
from bihyper import constructions, isomorphism, model, solver
from bihyper import (
    ChromaticSpectrum,
    DimsSpec,
    Partition,
    UncolorableError,
    canonical_coloring,
    derived_subhypergraph,
    from_json_dict,
    is_proper_coloring,
    is_strict_k_coloring,
    load_hypergraph,
    make_mixed_hypergraph,
    product_bihypergraph,
    save_hypergraph,
    to_json_dict,
)

H33 = product_bihypergraph(DimsSpec.of(3, 3))
H43 = product_bihypergraph(DimsSpec.of(4, 3))


# --- make_mixed_hypergraph ---------------------------------------------------


def test_bihypergraph_from_explicit_triples():
    verts = oracle_box((3, 3))
    triples = oracle_scan_edges(verts)
    assert len(triples) == 36
    h = make_mixed_hypergraph(verts, triples, triples, dims=(3, 3))
    assert h.is_bihypergraph
    assert h == H33


def test_edgeless_hypergraph_is_valid():
    h = make_mixed_hypergraph([(1,), (2,), (3,)], [], [])
    assert h.c_edges == () and h.d_edges == ()
    assert h.is_bihypergraph


def test_mixed_families_flagged():
    h = make_mixed_hypergraph([(1,), (2,), (3,)], [(0, 1)], [(1, 2)])
    assert not h.is_bihypergraph
    with pytest.raises(ValueError):
        h.bi_edges


def test_duplicate_edges_are_merged():
    h = make_mixed_hypergraph([(1,), (2,), (3,)], [(0, 1), (1, 0)], [])
    assert h.c_edges == ((0, 1),)


def test_edges_canonically_sorted():
    h = make_mixed_hypergraph([(1,), (2,), (3,)], [(2, 0), (1, 0)], [])
    assert h.c_edges == ((0, 1), (0, 2))


BAD_EDGES = [
    ([(3, 3, 5)], "C-edge (3, 3, 5) has a repeated vertex"),
    ([(0,)], "C-edge (0,) has fewer than 2 vertices"),
    ([(0, 99)], "C-edge (0, 99) references invalid vertex index 99"),
    ([(0, -1)], "C-edge (0, -1) references invalid vertex index -1"),
    # indices must be ints, and bool is not an index
    ([("0", 1, 2)], "C-edge ('0', 1, 2) references invalid vertex index '0'"),
    ([(False, True, 2)], "C-edge (False, True, 2) references invalid vertex index False"),
    # True == 1: merging duplicates before the type check would accept this list
    ([(0, 1, 2), (0, True, 2)], "C-edge (0, True, 2) references invalid vertex index True"),
    ([(0, 1.0, 2)], "C-edge (0, 1.0, 2) references invalid vertex index 1.0"),
    # the message names the first bad edge, not a valid one or a later one
    ([(0, 1, 2), (4, 4, 5), (0,)], "C-edge (4, 4, 5) has a repeated vertex"),
    # a bad edge inside an otherwise canonical list (one size, ascending, in order)
    ([(0, 1, 2), (0, True, 3), (1, 2, 3)], "C-edge (0, True, 3) references invalid vertex index True"),
    ([(-1, 1, 2), (0, 1, 2), (1, 2, 3)], "C-edge (-1, 1, 2) references invalid vertex index -1"),
    ([(0, 1, 2), (1, 2, 3), (3, 4, 6)], "C-edge (3, 4, 6) references invalid vertex index 6"),
]


@pytest.mark.parametrize(
    "c_edges, message", BAD_EDGES, ids=[f"c_edges{i}" for i in range(len(BAD_EDGES))]
)
def test_bad_edges_rejected(c_edges, message):
    verts = [(i,) for i in range(1, 7)]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_mixed_hypergraph(verts, c_edges, [])


def test_non_iterable_edge_after_canonical_prefix_raises_type_error():
    # the check of the edges read so far must not swallow the TypeError
    verts = [(i,) for i in range(1, 7)]
    with pytest.raises(TypeError):
        make_mixed_hypergraph(verts, [(0, 1, 2), (1, 2, 3), 5], [])
    with pytest.raises(TypeError):
        make_mixed_hypergraph(verts, (e for e in [(0, 1, 2), (1, 2, 3), None]), [])


def test_bad_d_edge_names_its_family():
    verts = [(i,) for i in range(1, 7)]
    with pytest.raises(ValueError, match=r"^D-edge \(1, 6\) references invalid vertex index 6$"):
        make_mixed_hypergraph(verts, [(0, 1)], [(0, 1), (1, 6)])


def test_bad_vertices_rejected():
    with pytest.raises(ValueError):
        make_mixed_hypergraph([], [], [])
    with pytest.raises(ValueError):
        make_mixed_hypergraph([(1,), (1, 2)], [], [])
    with pytest.raises(ValueError):
        make_mixed_hypergraph([(1,), (1,)], [], [])
    with pytest.raises(ValueError):
        make_mixed_hypergraph([(0,)], [], [])
    with pytest.raises(ValueError):
        make_mixed_hypergraph([(1, 4)], [], [], dims=(3, 3))
    with pytest.raises(ValueError):
        make_mixed_hypergraph([(1, 1)], [], [], dims=(3,))
    # coordinates and dims are refused, not truncated to a different instance
    for verts, dims in [
        ([(1.7,)], None),
        ([(1,), (2.0,)], None),
        ([(True,), (2,)], None),
        ([(1,)], [2.9]),
        ([(1,)], (True,)),
        ([(1,)], ("3",)),
    ]:
        with pytest.raises(ValueError):
            make_mixed_hypergraph(verts, [], [], dims=dims)


# --- DimsSpec ----------------------------------------------------------------


def test_dims_validation():
    with pytest.raises(ValueError):
        DimsSpec.of(4)
    with pytest.raises(ValueError):
        DimsSpec.of(4, 2)
    with pytest.raises(ValueError):
        DimsSpec.of(3, 4)
    # non-int entries are refused, not truncated to a different instance
    for bad in [(4.7, 3.2), (4.0, 3), (4, True), ("4", 3)]:
        with pytest.raises(ValueError):
            DimsSpec(bad)
    d = DimsSpec.of(4, 3, 3)
    assert d.s == 3 and d.vertex_count == 36


def test_reduced_family_validation():
    assert DimsSpec.of(5, 4).is_reduced_family
    assert DimsSpec.of(4, 4).is_reduced_family
    assert DimsSpec.of(6, 5, 4).is_reduced_family
    assert not DimsSpec.of(4, 4, 3).is_reduced_family  # last entry must exceed 3
    assert not DimsSpec.of(5, 4, 4).is_reduced_family  # strict decrease after first
    with pytest.raises(ValueError):
        DimsSpec.of(4, 4, 3).require_reduced()


# --- coloring predicates -------------------------------------------------------


def test_axis_partition_is_proper():
    rows = canonical_coloring(DimsSpec.of(3, 3), 1)
    assert is_proper_coloring(H33, rows)


def test_singletons_violate_common_color():
    p = Partition.from_classes([[i] for i in range(9)])
    assert not is_proper_coloring(H33, p)


def test_single_class_violates_distinct_color():
    p = Partition.from_classes([range(9)])
    assert not is_proper_coloring(H33, p)


def test_partition_universe_mismatch_raises():
    p = Partition.from_classes([[0, 1, 2]])
    with pytest.raises(ValueError):
        is_proper_coloring(H33, p)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_biedge_accepts_exactly_two_classes(n):
    # one 3-element bi-edge: proper iff its vertices span exactly 2 classes
    verts = [(i + 1,) for i in range(n)]
    h = make_mixed_hypergraph(verts, [(0, 1, 2)], [(0, 1, 2)])
    for labels in oracle_partition_labels(n):
        p = Partition.from_labels(labels)
        touched = len({labels[0], labels[1], labels[2]})
        assert is_proper_coloring(h, p) == (touched == 2)


def test_strict_coloring_counts_classes():
    rows = canonical_coloring(DimsSpec.of(4, 3), 1)
    cols = canonical_coloring(DimsSpec.of(4, 3), 2)
    assert is_strict_k_coloring(H43, rows, 4)
    assert not is_strict_k_coloring(H43, rows, 3)
    assert is_strict_k_coloring(H43, cols, 3)
    with pytest.raises(ValueError):
        is_strict_k_coloring(H43, rows, 0)


# --- Partition canonical form --------------------------------------------------


def test_partition_ignores_class_order_and_names():
    a = Partition.from_classes([[3, 4], [0, 1, 2]])
    b = Partition.from_classes([[2, 1, 0], [4, 3]])
    c = Partition.from_labels([7, 7, 7, 5, 5])
    assert a == b == c
    assert a.classes == ((0, 1, 2), (3, 4))


def test_partition_rejects_bad_classes():
    with pytest.raises(ValueError):
        Partition.from_classes([[0, 1], []])
    with pytest.raises(ValueError):
        Partition.from_classes([[0, 1], [1, 2]])
    # a repeated member would compare unequal to the same partition from labels
    for bad in ([[0.9, 1], [2]], [[True], [2]], [["0"], [1]], [[0, 0, 1], [2]]):
        with pytest.raises(ValueError):
            Partition.from_classes(bad)


def test_partition_labels_roundtrip():
    p = Partition.from_labels([2, 0, 2, 1])
    assert p.as_labels() == (0, 1, 0, 2)
    assert Partition.from_labels(p.as_labels()) == p


def test_partition_is_slotted_and_still_frozen():
    p = Partition.from_labels([0, 1, 0, 2])
    assert not hasattr(p, "__dict__")
    assert pickle.loads(pickle.dumps(p)) == p
    assert copy.copy(p) == p and copy.deepcopy(p) == p
    assert hash(p) == hash(Partition(((0, 2), (1,), (3,))))
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.classes = ()


def test_labels_require_contiguous_universe():
    p = Partition.from_classes([[0, 2]])
    with pytest.raises(ValueError):
        p.as_labels()


# --- derived sub-hypergraph ----------------------------------------------------


def test_derived_on_full_set_is_identity():
    assert derived_subhypergraph(H33, range(9)) == H33


def test_derived_keeps_only_inside_edges():
    # two rows of the first coordinate: 6 vertices
    keep = [i for i, v in enumerate(H33.vertices) if v[0] in (1, 2)]
    sub = derived_subhypergraph(H33, keep)
    assert sub.n == 6
    assert len(sub.bi_edges) == 12  # frozen from the exhaustive 20-triple scan
    assert list(sub.bi_edges) == oracle_scan_edges(sub.vertices)
    assert sub.c_edges is sub.d_edges  # filtered and canonicalized once


def test_derived_matches_direct_filter():
    keep = [0, 1, 2, 4, 8]
    sub = derived_subhypergraph(H33, keep)
    remap = {old: new for new, old in enumerate(keep)}
    expected = sorted(
        tuple(remap[v] for v in e) for e in H33.bi_edges if set(e) <= set(keep)
    )
    assert list(sub.c_edges) == expected
    assert sub.vertices == tuple(H33.vertices[v] for v in keep)


def test_derived_invalid_index():
    for bad in ([0, 9], [0.5, 1.9, 2], [False, 1], ["0", 1]):
        with pytest.raises(ValueError):
            derived_subhypergraph(H33, bad)


# --- ChromaticSpectrum ----------------------------------------------------------


def test_spectrum_from_counts_trims_zeros():
    sp = ChromaticSpectrum.from_counts([0, 0, 1, 1, 0])
    assert sp.counts == (0, 0, 1, 1)
    assert sp.feasible_set == frozenset({3, 4})
    assert (sp.lower_chromatic, sp.upper_chromatic) == (3, 4)
    assert sp.r(2) == 0 and sp.r(3) == 1 and sp.r(99) == 0
    assert sp.total_partitions == 2


def test_spectrum_invariants():
    with pytest.raises(ValueError):
        ChromaticSpectrum((1, 0))
    with pytest.raises(ValueError):
        ChromaticSpectrum((-1,))
    with pytest.raises(ValueError):
        ChromaticSpectrum((1,)).r(0)
    for bad in [(1.5, 2.7), (1.0,), (True,), ("1",)]:
        with pytest.raises(ValueError):
            ChromaticSpectrum(bad)


def test_empty_spectrum():
    sp = ChromaticSpectrum.from_counts([])
    assert sp.is_empty
    assert sp.feasible_set == frozenset()
    with pytest.raises(UncolorableError):
        sp.lower_chromatic
    with pytest.raises(UncolorableError):
        sp.upper_chromatic
    assert sp.as_report() == {
        "spectrum": {},
        "feasible_set": [],
        "chi": None,
        "chi_bar": None,
        "partition_count": 0,
    }


def test_spectrum_report_format():
    sp = ChromaticSpectrum.from_class_counts({3: 1, 4: 1})
    assert sp.as_report() == {
        "spectrum": {"3": 1, "4": 1},
        "feasible_set": [3, 4],
        "chi": 3,
        "chi_bar": 4,
        "partition_count": 2,
    }


# --- JSON interchange -----------------------------------------------------------


def test_json_roundtrip_in_memory():
    data = to_json_dict(H43)
    assert data["dims"] == [4, 3]
    assert data["vertices"][0] == [1, 1]
    assert all(e == sorted(e) for e in data["c_edges"])
    assert from_json_dict(data) == H43


def test_json_roundtrip_file(tmp_path):
    path = tmp_path / "h.json"
    save_hypergraph(H43, path)
    assert load_hypergraph(path) == H43
    raw = json.loads(path.read_text())
    assert raw["d_edges"] == raw["c_edges"]


def test_bi_edges_stored_once(tmp_path):
    path = tmp_path / "h.json"
    save_hypergraph(H43, path)
    explicit = make_mixed_hypergraph([(1,), (2,), (3,)], [[0, 1, 2]], [(2, 1, 0)])
    for h in (H43, H43.with_bi_edge((0, 1, 2)), load_hypergraph(path), explicit):
        assert h.is_bihypergraph and h.c_edges is h.d_edges


MIXED = make_mixed_hypergraph([(1,), (2,), (3,), (4,)], [(0, 1, 3)], [(1, 2, 3), (0, 1)])


@pytest.mark.parametrize("h", [H43, MIXED], ids=["H43", "mixed"])
@pytest.mark.parametrize("edge", [(0, 1, 2), (0, 1, 3), (2, 0, 1)], ids=str)
def test_with_bi_edge_equals_append_then_canonicalize(h, edge):
    # (0, 1, 3) is an edge of H43 and of the mixed C family; (2, 0, 1) is unsorted
    appended = make_mixed_hypergraph(h.vertices, h.c_edges + (edge,), h.d_edges + (edge,),
                                     dims=h.dims)
    assert h.with_bi_edge(edge) == appended
    assert h.with_bi_edge(iter(edge)) == appended


def test_with_bi_edge_keeps_a_canonical_list_canonical(monkeypatch):
    passed = []
    monkeypatch.setattr(model, "make_mixed_hypergraph",
                        lambda v, c, d, dims: passed.append((c, d)))
    # (2, 1, 0) is unsorted; (0, 1, 3) is already an edge and goes in no second time
    for edge, added in [((0, 1, 2), 1), ((2, 1, 0), 1), ((0, 1, 3), 0)]:
        H43.with_bi_edge(edge)
        c_edges, d_edges = passed.pop()
        assert c_edges is d_edges  # one list, canonicalized once
        assert all(a < b for a, b in zip(c_edges, c_edges[1:]))
        assert tuple(sorted(edge)) in c_edges
        assert model._ascending_in_range(c_edges, H43.n)  # the bulk check takes it
        assert len(c_edges) == len(H43.c_edges) + added


def test_with_bi_edge_still_validates():
    # (False, 1, 3) and (0.0, 1, 3) compare equal to the edge (0, 1, 3)
    for bad in [(0, 1, 12), (0, 0, 1), (0,), ("a", 1, 2), (None, 1, 2), (True, 1, 2),
                (False, 1, 3), (0.0, 1, 3)]:
        with pytest.raises(ValueError):
            H43.with_bi_edge(bad)


def test_edge_table_merges_the_two_families():
    edges, in_c, in_d = H43.edge_table()
    assert edges is H43.c_edges  # a bi-hypergraph's shared tuple, not a copy
    assert in_c == in_d == [True] * len(edges)
    mixed = make_mixed_hypergraph(
        [(i + 1,) for i in range(4)], [(2, 3), (0, 1), (1, 2)], [(1, 2), (0, 3)]
    )
    edges, in_c, in_d = mixed.edge_table()
    assert edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert [e for e, c in zip(edges, in_c) if c] == list(mixed.c_edges)
    assert [e for e, d in zip(edges, in_d) if d] == list(mixed.d_edges)


def test_json_missing_key():
    with pytest.raises(ValueError):
        from_json_dict({"vertices": [[1]], "c_edges": []})


def test_json_invalid_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ValueError):
        load_hypergraph(path)


def test_generic_hypergraph_without_dims():
    h = make_mixed_hypergraph([(1,), (2,), (3,)], [(0, 1, 2)], [(0, 1, 2)])
    data = to_json_dict(h)
    assert data["dims"] is None
    assert from_json_dict(data) == h


def test_proper_coloring_agrees_with_label_oracle():
    keep = [i for i, v in enumerate(H33.vertices) if v[0] in (1, 2)]
    sub = derived_subhypergraph(H33, keep)
    for labels in oracle_partition_labels(6):
        expected = oracle_proper(labels, sub.c_edges, sub.d_edges)
        assert is_proper_coloring(sub, Partition.from_labels(labels)) == expected


# --- public names -----------------------------------------------------------------


def test_package_exports_every_module_name_once():
    pairs = [(m, name) for m in (constructions, isomorphism, model, solver) for name in m.__all__]
    assert len(bihyper.__all__) == len(set(bihyper.__all__))
    assert sorted(bihyper.__all__) == sorted(name for _, name in pairs)
    for module, name in pairs:
        assert getattr(bihyper, name) is getattr(module, name)


def test_public_names_are_pinned():
    # a dropped or added name must change this pin, and be said so in CHANGES.md
    assert sorted(bihyper.__all__) == [
        "CapExceeded", "ChromaticSpectrum", "DimsSpec", "Edge", "EnumerationConfig",
        "MaximalityReport", "MixedHypergraph", "Partition", "ReducedEquivalenceReport",
        "SpectrumTarget", "UncolorableError", "Vertex", "box_vertices", "brute_force_spectrum",
        "canonical_coloring", "check_isomorphism", "chromatic_numbers", "chromatic_spectrum",
        "derived_subhypergraph", "enumerate_feasible_partitions", "feasible_set",
        "from_json_dict", "is_isomorphic", "is_proper_coloring", "is_strict_k_coloring",
        "iter_reduced_dims", "load_hypergraph", "make_mixed_hypergraph", "predicted_spectrum",
        "product_bihypergraph", "reduced_bihypergraph", "reduced_vertex_set", "save_hypergraph",
        "spectrum_instance", "to_json_dict", "verify_edge_maximality",
        "verify_reduced_equivalence",
    ]
    fields = [f.name for f in dataclasses.fields(bihyper.EnumerationConfig)]
    assert fields == ["max_vertices", "time_budget", "collect_partitions"]
