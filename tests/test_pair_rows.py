"""The builders' pair masks against the edge tuples and the edge route.

A builder hands its hypergraph one mask of third members per vertex pair. The
edge tuples are made from the masks when first read, and the exact search
indexes the masks directly; a hypergraph from JSON has no masks, and the search
makes masks of the same shape from its edges (the edge route). Both must give
what the edge tuples alone give.
"""

import copy
import dataclasses
import hashlib
import itertools
import pickle

import pytest
from conftest import oracle_two_valued_triples

from bihyper import (
    DimsSpec,
    EnumerationConfig,
    chromatic_spectrum,
    derived_subhypergraph,
    enumerate_feasible_partitions,
    from_json_dict,
    is_isomorphic,
    iter_reduced_dims,
    make_mixed_hypergraph,
    product_bihypergraph,
    reduced_bihypergraph,
    reduced_vertex_set,
    save_hypergraph,
    to_json_dict,
)
from bihyper import model, solver
from bihyper.cli import run

# every product and reduced dims the tests build
PRODUCT_DIMS = [(3, 3), (4, 3), (4, 4), (5, 4), (5, 5), (6, 4), (7, 7), (9, 4), (3, 3, 3),
                (4, 3, 3), (5, 3, 3), (6, 3, 3), (7, 3, 3), (4, 4, 3), (5, 4, 3), (5, 4, 4),
                (5, 5, 4), (6, 5, 4)]
REDUCED_DIMS = sorted({d.dims for d in iter_reduced_dims(9, 4)} | {
    (6, 5), (9, 9), (7, 6, 5, 4), (8, 7, 6, 5, 4), (12, 10, 8, 6, 4), (30, 20, 10, 5)})


def oracle_built(h):
    """`h` as the builders made it from edge tuples: the edge route's input."""
    edges = oracle_two_valued_triples(h.vertices)
    return make_mixed_hypergraph(h.vertices, edges, edges, dims=h.dims)


@pytest.mark.parametrize("dims", PRODUCT_DIMS)
def test_product_rows_expand_to_the_oracle_triples(dims):
    h = product_bihypergraph(DimsSpec(dims))
    assert h.pair_rows is not None
    assert list(h.c_edges) == oracle_two_valued_triples(h.vertices)  # order included
    assert h.d_edges is h.c_edges


def test_reduced_rows_expand_to_the_oracle_triples():
    for dims in REDUCED_DIMS:
        h = reduced_bihypergraph(DimsSpec(dims))
        assert h.pair_rows is not None
        assert list(h.c_edges) == oracle_two_valued_triples(h.vertices), dims
        assert h.d_edges is h.c_edges


@pytest.mark.parametrize("family, dims", [
    ("product", (4, 3)), ("product", (4, 3, 3)), ("product", (6, 5, 4)),
    ("reduced", (5, 4)), ("reduced", (6, 5, 4)), ("reduced", (30, 20, 10, 5)),
])
def test_construct_out_is_byte_identical_to_the_oracle_build(tmp_path, capsys, family, dims):
    out = tmp_path / "built.json"
    assert run(["construct", family, *map(str, dims), "--out", str(out)]) == 0
    capsys.readouterr()
    d = DimsSpec(dims)
    verts = sorted(reduced_vertex_set(d)) if family == "reduced" else list(
        itertools.product(*(range(1, n + 1) for n in dims)))
    edges = oracle_two_valued_triples(verts)
    want = tmp_path / "oracle.json"
    save_hypergraph(make_mixed_hypergraph(verts, edges, edges, dims=dims), want)
    assert out.read_bytes() == want.read_bytes()


ROUTE_CASES = [
    ("product43", lambda: product_bihypergraph(DimsSpec.of(4, 3))),
    ("product433", lambda: product_bihypergraph(DimsSpec.of(4, 3, 3))),
    ("product543", lambda: product_bihypergraph(DimsSpec.of(5, 4, 3))),
    ("reduced54", lambda: reduced_bihypergraph(DimsSpec.of(5, 4))),
    ("reduced654", lambda: reduced_bihypergraph(DimsSpec.of(6, 5, 4))),
    ("reduced", lambda: reduced_bihypergraph(DimsSpec.of(12, 10, 8, 6, 4))),
]


def search_trace(h):
    """`_search`'s node count and a digest of every leaf call, in order."""
    digest = hashlib.sha256()

    def leaf(labels, v, allowed, fresh):
        digest.update(repr((labels, v, allowed, fresh)).encode())

    nodes = solver._search(h, EnumerationConfig(max_vertices=120), leaf)
    return nodes, digest.hexdigest()


@pytest.mark.parametrize("build", [b for _, b in ROUTE_CASES], ids=[i for i, _ in ROUTE_CASES])
def test_builder_and_json_round_trip_agree(build):
    h = build()
    assert h.pair_rows is not None and "c_edges" not in vars(h)  # no tuples made yet
    hashed, shown = hash(h), repr(h)  # both make the tuples
    loaded = from_json_dict(to_json_dict(h))
    assert loaded.pair_rows is None  # JSON keeps no masks: the edge route
    assert h == loaded and loaded == h
    assert hashed == hash(loaded) and shown == repr(loaded)
    assert to_json_dict(h) == to_json_dict(loaded)
    assert pickle.loads(pickle.dumps(h)) == h and copy.deepcopy(h) == h
    fresh = build()  # the search reads the masks, not the tuples
    assert search_trace(fresh) == search_trace(loaded)
    assert "c_edges" not in vars(fresh)
    assert chromatic_spectrum(build()) == chromatic_spectrum(loaded)
    assert enumerate_feasible_partitions(build()) == enumerate_feasible_partitions(loaded)


@pytest.mark.parametrize("build", [b for _, b in ROUTE_CASES], ids=[i for i, _ in ROUTE_CASES])
def test_edge_operations_on_a_builder_hypergraph_are_unchanged(build):
    h, oracle = build(), oracle_built(build())
    assert oracle.pair_rows is None
    for edge in [(0, 1, 2), (2, 1, 0), h.c_edges[0], (0, h.n - 1)]:
        assert h.with_bi_edge(edge) == oracle.with_bi_edge(edge)
    half = range(0, h.n, 2)
    assert derived_subhypergraph(build(), half) == derived_subhypergraph(oracle, half)
    if h.n <= 32:  # the isomorphism cap
        assert is_isomorphic(build(), oracle) == is_isomorphic(oracle, oracle)
        bigger = build().with_bi_edge((0, 1, 2))
        assert is_isomorphic(build(), bigger) is None


def test_pair_row_check_refuses_bad_masks():
    verts = [(1, 1), (1, 2), (2, 1), (2, 2)]
    good = ((0b0100, 0b0010, 0), (0b0001, 0), (0,), ())  # the edge {0, 1, 2}
    assert model._from_pair_rows(verts, good).c_edges == ((0, 1, 2),)
    for bad in [
        ((0b10100, 0b0010, 0), (0b0001, 0), (0,), ()),  # bit 4 >= n
        ((0b0101, 0b0010, 0), (0b0001, 0), (0,), ()),  # pair {0, 1} has bit 0
        ((0b0110, 0b0010, 0), (0b0001, 0), (0,), ()),  # pair {0, 1} has bit 1
        ((0b0100, 0b0010, 0), (0b0011, 0), (0,), ()),  # pair {1, 2} has bit 1
        ((-4, 0b0010, 0), (0b0001, 0), (0,), ()),  # a negative mask
        ((0b0100, 0b0010, True), (0b0001, 0), (0,), ()),  # bool is no mask
        ((0b0100, 0), (0b0001, 0), (0,), ()),  # one pair short
        ((0b0100, 0b0010, 0), (0b0001, 0), (0,)),  # one row short
    ]:
        with pytest.raises(ValueError):
            model._from_pair_rows(verts, bad)
    with pytest.raises(ValueError):  # the vertex checks still run
        model._from_pair_rows([(1, 1), (1, 1), (2, 1), (2, 2)], good)
    with pytest.raises(ValueError):
        model._from_pair_rows(verts, good, dims=(1, 2))


def test_pair_rows_are_no_constructor_option():
    h = product_bihypergraph(DimsSpec.of(4, 3))
    with pytest.raises(TypeError):  # only the builders set the masks
        model.MixedHypergraph(h.vertices, h.c_edges, h.d_edges, pair_rows=h.pair_rows)
    fewer = dataclasses.replace(h, c_edges=h.c_edges[1:], d_edges=h.d_edges[1:])
    assert fewer.pair_rows is None  # replace() drops the masks with the edges
    same = make_mixed_hypergraph(h.vertices, h.c_edges[1:], h.c_edges[1:], dims=h.dims)
    assert search_trace(fewer) == search_trace(same)


def test_builder_rows_fall_back_to_the_edge_path(monkeypatch):
    # no builder's output fails the pair-path rule, but an input that did would
    # take the edge path with its tuples, and search as the edge route does
    monkeypatch.setattr(solver, "_pairs_pay", lambda pairs, triples: False)
    for _, build in ROUTE_CASES[:4]:
        h = build()
        assert search_trace(h) == search_trace(from_json_dict(to_json_dict(h)))
