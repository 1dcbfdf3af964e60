"""Isomorphism search: witnesses, rejections, and the size guard."""

import random

import pytest
from conftest import random_mixed_hypergraph, witness_is_isomorphism

from bihyper import (
    CapExceeded,
    DimsSpec,
    check_isomorphism,
    derived_subhypergraph,
    is_isomorphic,
    make_mixed_hypergraph,
    product_bihypergraph,
)

H33 = product_bihypergraph(DimsSpec.of(3, 3))
H43 = product_bihypergraph(DimsSpec.of(4, 3))


def relabeled(h, perm):
    """Apply a vertex permutation: new index perm[i] gets old vertex i's role."""
    vertices = [None] * h.n
    for old, new in enumerate(perm):
        vertices[new] = h.vertices[old]
    remap = lambda e: tuple(perm[v] for v in e)
    return make_mixed_hypergraph(
        vertices, [remap(e) for e in h.c_edges], [remap(e) for e in h.d_edges]
    )


def test_reflexive_on_products():
    for h in (H33, H43):
        witness = is_isomorphic(h, h)
        assert witness is not None
        assert witness_is_isomorphism(h, h, witness)


def test_coordinate_swap_is_isomorphism():
    # transport the square product along coordinate reversal
    new_verts = sorted(v[::-1] for v in H33.vertices)
    index = {v: i for i, v in enumerate(new_verts)}
    perm = [index[v[::-1]] for v in H33.vertices]
    swapped = make_mixed_hypergraph(
        new_verts,
        [tuple(perm[v] for v in e) for e in H33.c_edges],
        [tuple(perm[v] for v in e) for e in H33.d_edges],
        dims=(3, 3),
    )
    assert swapped == H33  # the swap is an automorphism of the square box
    witness = is_isomorphic(H33, swapped)
    assert witness is not None
    assert witness_is_isomorphism(H33, swapped, witness)


def test_different_sizes_not_isomorphic():
    assert is_isomorphic(H43, H33) is None


def test_different_degree_profiles_not_isomorphic():
    verts = [(i + 1,) for i in range(4)]
    path = make_mixed_hypergraph(verts, [(0, 1), (1, 2)], [(0, 1), (1, 2)])
    matching = make_mixed_hypergraph(verts, [(0, 1), (2, 3)], [(0, 1), (2, 3)])
    assert is_isomorphic(path, matching) is None


def test_families_not_interchangeable():
    verts = [(i + 1,) for i in range(3)]
    c_only = make_mixed_hypergraph(verts, [(0, 1)], [])
    d_only = make_mixed_hypergraph(verts, [], [(0, 1)])
    assert is_isomorphic(c_only, d_only) is None


def test_mixed_families_mapped_family_by_family():
    verts = [(i + 1,) for i in range(4)]
    h1 = make_mixed_hypergraph(verts, [(0, 1), (1, 2)], [(2, 3)])
    perm = [2, 0, 3, 1]
    h2 = relabeled(h1, perm)
    witness = is_isomorphic(h1, h2)
    assert witness is not None
    assert witness_is_isomorphism(h1, h2, witness)


def test_symmetric_search():
    perm = list(range(9))
    random.Random(5).shuffle(perm)
    shuffled = relabeled(H33, perm)
    forward = is_isomorphic(H33, shuffled)
    backward = is_isomorphic(shuffled, H33)
    assert forward is not None and backward is not None
    assert witness_is_isomorphism(H33, shuffled, forward)
    assert witness_is_isomorphism(shuffled, H33, backward)


def test_random_relabelings_found():
    rng = random.Random(11)
    for _ in range(20):
        h = random_mixed_hypergraph(rng, max_vertices=7)
        perm = list(range(h.n))
        rng.shuffle(perm)
        other = relabeled(h, perm)
        witness = is_isomorphic(h, other)
        assert witness is not None
        assert witness_is_isomorphism(h, other, witness)


def test_diagonal_slice_matches_smaller_product():
    h433 = product_bihypergraph(DimsSpec.of(4, 3, 3))
    diagonal = [i for i, v in enumerate(h433.vertices) if v[1] == v[2]]
    slice_ = derived_subhypergraph(h433, diagonal)
    assert slice_.n == 12
    witness = is_isomorphic(slice_, H43)
    assert witness is not None
    assert witness_is_isomorphism(slice_, H43, witness)


def test_coordinates_do_not_matter_for_isomorphism():
    # same structure carried by 2-tuple coordinates on one side and bare
    # 1-tuple indices on the other
    perm = list(range(12))
    random.Random(17).shuffle(perm)
    generic = make_mixed_hypergraph(
        [(i + 1,) for i in range(12)],
        [tuple(perm[v] for v in e) for e in H43.c_edges],
        [tuple(perm[v] for v in e) for e in H43.d_edges],
    )
    witness = is_isomorphic(H43, generic)
    assert witness is not None
    assert witness_is_isomorphism(H43, generic, witness)


def test_size_guard_refuses_large_instances():
    big = make_mixed_hypergraph([(i + 1,) for i in range(40)], [], [])
    with pytest.raises(CapExceeded):
        is_isomorphic(big, big)
    witness = is_isomorphic(big, big, max_vertices=40)
    assert witness is not None


def test_max_vertices_must_be_a_positive_int():
    # checked as EnumerationConfig checks it: no bool, no truncated float, and
    # ValueError rather than TypeError for a string
    for bad in (True, 2.5, 40.0, "5", 0, -1):
        with pytest.raises(ValueError):
            is_isomorphic(H33, H33, max_vertices=bad)


def test_isomorphism_has_no_recursion_limit():
    # a 1,200-vertex star assigns one vertex per depth, far past the default
    # recursion limit of 1,000 frames
    n = 1200
    star = make_mixed_hypergraph([(i + 1,) for i in range(n)], [(0, i) for i in range(1, n)], [])
    witness = is_isomorphic(star, star, max_vertices=n)
    assert witness is not None
    assert witness_is_isomorphism(star, star, witness)


def test_check_isomorphism_rejects_bad_witnesses():
    witness = is_isomorphic(H33, H33)
    assert check_isomorphism(H33, H33, witness)
    assert not check_isomorphism(H33, H33, {})
    # swapping vertices 0 and 1 is not an automorphism of the 3x3 product
    # (it turns {(1,1),(1,3),(2,1)} into a rainbow second coordinate), so
    # composing any witness with that transposition must fail validation
    bad = dict(witness)
    bad[0], bad[1] = bad[1], bad[0]
    assert not check_isomorphism(H33, H33, bad)
