"""Property-based checks: the pruned solver against brute force, and friends."""

import itertools
import random
from collections import Counter
from math import comb

import pytest

from conftest import (
    oracle_scan_edges,
    random_mixed_hypergraph,
    witness_is_isomorphism,
)
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from reference_search import reference_partitions, reference_spectrum

from bihyper import solver
from bihyper import (
    CapExceeded,
    DimsSpec,
    EnumerationConfig,
    Partition,
    brute_force_spectrum,
    chromatic_spectrum,
    enumerate_feasible_partitions,
    is_isomorphic,
    is_proper_coloring,
    make_mixed_hypergraph,
    product_bihypergraph,
)


@st.composite
def mixed_hypergraphs(draw, max_vertices=9, max_edges=20):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vertices = [(i + 1,) for i in range(n)]
    pool = []
    if n >= 2:
        edge = st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=2,
            max_size=min(4, n),
            unique=True,
        )
        pool = draw(st.lists(edge, max_size=max_edges))
    flags = draw(st.lists(st.tuples(st.booleans(), st.booleans()),
                          min_size=len(pool), max_size=len(pool)))
    c_edges = [e for e, (in_c, _) in zip(pool, flags) if in_c]
    d_edges = [e for e, (_, in_d) in zip(pool, flags) if in_d]
    return make_mixed_hypergraph(vertices, c_edges, d_edges)


@st.composite
def planted_mixed_hypergraphs(draw):
    """Mixed hypergraphs of 13-40 vertices with few partitions, often a handful.

    A hidden labeling with 2-6 classes decides which families may hold each
    random 2-4 element edge (C only if it repeats a class, D only if it is not
    monochromatic), so the labeling stays feasible. Purely random edges at
    these sizes give either no partition or millions of them.
    """
    n = draw(st.integers(min_value=13, max_value=40))
    k = draw(st.integers(min_value=2, max_value=6))
    per_vertex = draw(st.integers(min_value=4, max_value=12))
    # one seed, not hypothesis' randoms(): hundreds of edges would each be a draw
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    plant = [rng.randrange(k) for _ in range(n)]
    c_edges, d_edges = [], []
    for _ in range(per_vertex * n):
        e = rng.sample(range(n), rng.randint(2, 4))
        classes = len({plant[v] for v in e})
        if classes < len(e) and rng.random() < 0.7:
            c_edges.append(e)
        if classes > 1 and rng.random() < 0.7:
            d_edges.append(e)
    return make_mixed_hypergraph([(i + 1,) for i in range(n)], c_edges, d_edges)


@st.composite
def dense_triple_hypergraphs(draw, bi=True, mixed=True):
    """5-9 vertices whose 3-element edges crowd a core of 5-8 of them: more
    than two for every three core pairs. As bi-edges alone (`mixed=False`)
    they take the search's pair path; with `bi=False` each is a C-edge or a
    D-edge only.

    A mixed draw adds up to three more 3-element edges, each a C-edge or a
    D-edge only, and one to three 2- and 4-element edges anywhere, so it
    takes the edge path with all its edges.
    """
    n = draw(st.integers(min_value=5, max_value=9))
    k = draw(st.integers(min_value=5, max_value=min(n, 8)))
    core = sorted(draw(st.permutations(range(n)))[:k])
    triples = draw(st.lists(st.sampled_from(list(itertools.combinations(core, 3))),
                            min_size=2 * comb(k, 2) // 3 + 1, unique=True))
    one_family = st.sampled_from(["C", "D"])
    side = st.just("CD") if bi else one_family
    placed = [(e, draw(side)) for e in triples]
    if not mixed:
        return families(draw, n, [], placed)
    # distinct from the core's and from each other, so no two make a bi-edge
    rest = sorted(set(itertools.combinations(range(n), 3)) - set(triples))
    extra = draw(st.lists(st.sampled_from(rest), max_size=3, unique=True)) if rest else []
    placed += [(e, draw(one_family)) for e in extra]
    other = st.lists(st.integers(min_value=0, max_value=n - 1), min_size=2, max_size=4,
                     unique=True).filter(lambda e: len(e) != 3)
    return families(draw, n, draw(st.lists(other, min_size=1, max_size=3)), placed)


@st.composite
def sparse_triple_hypergraphs(draw, mixed=True):
    """4-9 vertices whose 3-element edges share no vertex pair, so the
    pair-path rule turns them away. A mixed draw adds one to three 2- and
    4-element edges and puts every edge in C, D or both; otherwise there are
    1-12 triples, all bi-edges."""
    n = draw(st.integers(min_value=4, max_value=9))
    member = st.integers(min_value=0, max_value=n - 1)
    triples, seen = [], set()
    for e in draw(st.lists(st.lists(member, min_size=3, max_size=3, unique=True),
                           min_size=0 if mixed else 1, max_size=12)):
        pairs = set(itertools.combinations(sorted(e), 2))
        if not pairs & seen:
            seen |= pairs
            triples.append(e)
    if not mixed:
        return families(draw, n, [], [(e, "CD") for e in triples])
    other = st.lists(member, min_size=2, max_size=4, unique=True).filter(lambda e: len(e) != 3)
    return families(draw, n, triples + draw(st.lists(other, min_size=1, max_size=3)))


def families(draw, n, edges, placed=()):
    """`edges` on n vertices, each drawn into C only, D only or both, and the
    `(edge, side)` pairs `placed`, side "C", "D" or "CD"."""
    sides = draw(st.lists(st.sampled_from(["C", "D", "CD"]), min_size=len(edges),
                          max_size=len(edges)))
    placed = [*placed, *zip(edges, sides)]
    return make_mixed_hypergraph([(i + 1,) for i in range(n)],
                                 [e for e, f in placed if "C" in f],
                                 [e for e, f in placed if "D" in f])


@pytest.mark.parametrize(("strategy", "rule"),
                         [(dense_triple_hypergraphs(), []),
                          (dense_triple_hypergraphs(mixed=False), [True]),
                          (dense_triple_hypergraphs(bi=False), []),
                          (sparse_triple_hypergraphs(), []),
                          (sparse_triple_hypergraphs(mixed=False), [False])],
                         ids=["dense", "dense_pure", "dense_one_family", "sparse", "sparse_pure"])
def test_both_search_paths_match_brute_force(strategy, rule):
    # only an input whose every edge is a 3-element bi-edge reaches the
    # pair-path rule; a mixed one takes the edge path with all its edges
    real = solver._pairs_pay
    verdicts = []  # the pair-path rule as the search applied it

    def spy(pairs, triples):
        verdicts.append(real(pairs, triples))
        return verdicts[-1]

    @settings(max_examples=40, deadline=None)
    @given(strategy)
    def check(h):
        verdicts.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_pairs_pay", spy)
            spectrum = chromatic_spectrum(h)
        assert verdicts == rule
        assert spectrum == brute_force_spectrum(h)

    check()


def test_solver_matches_reference_search_beyond_brute_force():
    # the static-order search explores far more nodes: draws it cannot finish
    # within the bounds are discarded, and most draws must still be kept
    tally = Counter()
    bound = EnumerationConfig(time_budget=0.2)

    @settings(max_examples=60, deadline=None)
    @given(planted_mixed_hypergraphs())
    def check(h):
        tally["drawn"] += 1
        try:
            expected = reference_partitions(h, bound, max_partitions=5000)
        except CapExceeded:
            reject()
        tally["kept"] += 1
        assert enumerate_feasible_partitions(h) == expected
        assert chromatic_spectrum(h) == reference_spectrum(expected)

    check()
    assert tally["kept"] >= tally["drawn"] / 2, tally


@settings(max_examples=60, deadline=None)
@given(mixed_hypergraphs())
def test_solver_matches_brute_force(h):
    assert chromatic_spectrum(h) == brute_force_spectrum(h)


@settings(max_examples=40, deadline=None)
@given(mixed_hypergraphs(max_vertices=7))
def test_every_emitted_partition_is_proper(h):
    for p in enumerate_feasible_partitions(h):
        assert is_proper_coloring(h, p)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=9),
       st.randoms(use_true_random=False))
def test_partition_canonical_under_relabeling(labels, rng):
    renaming = list(range(6))
    rng.shuffle(renaming)
    p = Partition.from_labels(labels)
    assert p == Partition.from_labels([renaming[lab] for lab in labels])
    # the validating constructor is the oracle for the direct one
    groups = [[v for v, lab in enumerate(labels) if lab == c] for c in set(labels)]
    assert p == Partition.from_classes(groups)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(3, 3), (4, 3), (3, 3, 3)]))
def test_product_builder_matches_triple_scan(dims):
    h = product_bihypergraph(DimsSpec(dims))
    assert list(h.bi_edges) == oracle_scan_edges(h.vertices)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_edges_canonicalized_to_their_sorted_set(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    edge = st.lists(st.integers(min_value=0, max_value=n - 1),
                    min_size=2, max_size=min(4, n), unique=True)
    base = data.draw(st.lists(edge, min_size=1, max_size=10))
    if data.draw(st.booleans()):
        picks = data.draw(st.lists(st.sampled_from(base), max_size=25))  # repeats edges
        # members shuffled; each edge a tuple, a list or a generator
        kinds = st.sampled_from([tuple, list, lambda e: (v for v in e)])
        edges = [data.draw(kinds)(data.draw(st.permutations(e))) for e in picks]
    else:
        # already canonical (one size, ascending, strictly increasing), as the
        # constructions emit it, possibly with one defect planted at edge i
        size = len(base[0])
        picks = sorted({tuple(sorted(e)) for e in base if len(e) == size})
        i = data.draw(st.integers(min_value=0, max_value=len(picks) - 1))
        defect = data.draw(st.sampled_from(["none", "edge order", "duplicate", "member order"]))
        if defect == "edge order" and i + 1 < len(picks):
            picks[i], picks[i + 1] = picks[i + 1], picks[i]
        elif defect == "duplicate":
            picks.insert(i, picks[i])
        elif defect == "member order":
            picks[i] = picks[i][::-1]
        edges = data.draw(st.sampled_from([picks, [list(e) for e in picks]]))
    h = make_mixed_hypergraph([(i + 1,) for i in range(n)], edges, [])
    assert h.c_edges == tuple(sorted({tuple(sorted(e)) for e in picks}))


@settings(max_examples=25, deadline=None)
@given(mixed_hypergraphs(max_vertices=7, max_edges=10),
       st.randoms(use_true_random=False))
def test_relabeled_instances_always_isomorphic(h, rng):
    perm = list(range(h.n))
    rng.shuffle(perm)
    vertices = [None] * h.n
    for old, new in enumerate(perm):
        vertices[new] = h.vertices[old]
    other = make_mixed_hypergraph(
        vertices,
        [tuple(perm[v] for v in e) for e in h.c_edges],
        [tuple(perm[v] for v in e) for e in h.d_edges],
    )
    witness = is_isomorphic(h, other)
    assert witness is not None
    assert witness_is_isomorphism(h, other, witness)


def test_seeded_randoms_do_not_shrink_coverage():
    # a plain seeded sweep alongside hypothesis, for a guaranteed volume
    rng = random.Random(424242)
    for _ in range(25):
        h = random_mixed_hypergraph(rng)
        assert chromatic_spectrum(h) == brute_force_spectrum(h)
