"""Builders for the two 3-uniform bi-hypergraph families.

The product family lives on the full coordinate box [n_1] x ... x [n_s]; its
bi-edges are the vertex triples whose values in EVERY coordinate form exactly
two distinct numbers. Repeating a dimension value inflates the multiplicity of
that class count in the chromatic spectrum, which is how arbitrary spectra are
realized.

The reduced family keeps only a small certifying subset of the box, of size
2*n_1 + n_2 + s - 2, chosen so that the feasible set and spectrum survive the
restriction. It is the product's derived sub-hypergraph on that subset, so
both families come from one generator, `_two_valued_rows`, applied to their
own vertex list. It yields pair masks, not edges: for each vertex pair, one
bitmask of the third members that make a bi-edge with it. It builds them a
coordinate column at a time: a lookup per coordinate and value gives the
third members a pair allows there, and each row is the AND of those lookups
over the coordinate columns of the later vertices. The hypergraph keeps the
masks for the exact search and makes its edge tuples from them only when
they are read.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .model import (
    DimsSpec,
    MixedHypergraph,
    PairRows,
    Partition,
    Vertex,
    _from_pair_rows,
)

__all__ = [
    "SpectrumTarget",
    "box_vertices",
    "product_bihypergraph",
    "canonical_coloring",
    "spectrum_instance",
    "reduced_vertex_set",
    "reduced_bihypergraph",
    "iter_reduced_dims",
]


@dataclass(frozen=True)
class SpectrumTarget:
    """Requested chromatic spectrum: pairs (class count, multiplicity).

    At least two distinct class counts, each >= 3, each with multiplicity >= 1;
    entries are kept sorted by class count descending.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if any(type(v) is not int for pair in self.entries for v in pair):  # bool is no count
            raise ValueError(f"counts and multiplicities must be integers, got {self.entries!r}")
        e = tuple(sorted(((n, m) for n, m in self.entries), reverse=True))
        object.__setattr__(self, "entries", e)
        if len(e) < 2:
            raise ValueError("need at least two distinct class counts")
        counts = [n for n, _ in e]
        if len(set(counts)) != len(counts):
            raise ValueError(f"class counts must be distinct, got {counts}")
        if any(n < 3 for n in counts):
            raise ValueError(f"class counts must be >= 3, got {counts}")
        if any(m < 1 for _, m in e):
            raise ValueError("multiplicities must be >= 1")

    @classmethod
    def of(cls, pairs: Mapping[int, int] | Iterable[tuple[int, int]]) -> "SpectrumTarget":
        items = pairs.items() if isinstance(pairs, Mapping) else pairs
        return cls(tuple(items))

    @property
    def dims(self) -> DimsSpec:
        flat: list[int] = []
        for n, mult in self.entries:
            flat.extend([n] * mult)
        return DimsSpec(tuple(flat))


def box_vertices(d: DimsSpec) -> tuple[Vertex, ...]:
    """All coordinate tuples of the box, in ascending (row-major) order."""
    return tuple(itertools.product(*(range(1, n + 1) for n in d.dims)))


def _two_valued_rows(verts: Sequence[Vertex]) -> PairRows:
    """Pair masks of the triples of distinct `verts` with two values in every
    coordinate: `rows[i][j - i - 1]`, for i < j, has bit k set for every such
    triple {i, j, k}, k on either side of i and j.

    `at[a]` masks the vertices whose coordinate is a. Where a pair agrees in a
    coordinate (a, a), the third members are those unlike it there, `~at[a]`;
    where it differs (a, b), those equal to one of the pair, `at[a] | at[b]`.
    `allow[a][b]` holds that mask per coordinate, so row i is the AND, pair
    by pair, of one lookup per coordinate over the column of values of the
    vertices after i, and of a column dropping i and j themselves, which
    stay in the mask when the pair differs in every coordinate.
    """
    n = len(verts)
    cols = list(zip(*verts))
    allows = []
    for col in cols:
        at: dict[int, int] = {}
        for i, a in enumerate(col):
            at[a] = at.get(a, 0) | 1 << i
        allows.append({a: {b: ~m if a == b else m | at[b] for b in at} for a, m in at.items()})
    drop = [~(1 << j) for j in range(n)]
    rows = []
    for i, x in enumerate(verts):
        row = map(operator.and_, drop[i + 1:], itertools.repeat(drop[i]))
        for col, allow, a in zip(cols, allows, x):
            row = map(operator.and_, row, map(allow[a].__getitem__, col[i + 1:]))
        rows.append(tuple(list(row)))  # a list first: tuple(map(...)) fragments the heap
    return tuple(rows)


def product_bihypergraph(d: DimsSpec) -> MixedHypergraph:
    """Bi-hypergraph on the full box with the exactly-two-values edge rule."""
    verts = box_vertices(d)
    return _from_pair_rows(verts, _two_valued_rows(verts), dims=d.dims)


def canonical_coloring(d: DimsSpec, axis: int) -> Partition:
    """Partition of the box by the value of coordinate `axis` (1-based).

    Yields n_axis classes of equal size; each is a strict coloring of the
    product bi-hypergraph since no edge is constant or three-valued there.
    """
    if not 1 <= axis <= d.s:
        raise ValueError(f"axis must be in 1..{d.s}, got {axis}")
    classes: list[list[int]] = [[] for _ in range(d.dims[axis - 1])]
    for i, v in enumerate(box_vertices(d)):
        classes[v[axis - 1] - 1].append(i)
    return Partition.from_classes(classes)


def spectrum_instance(target: SpectrumTarget) -> tuple[DimsSpec, MixedHypergraph]:
    """Product instance whose spectrum has r_n = multiplicity for each entry."""
    dims = target.dims
    return dims, product_bihypergraph(dims)


def reduced_vertex_set(d: DimsSpec) -> frozenset[Vertex]:
    """The certifying subset of the box, of size 2*n_1 + n_2 + s - 2.

    Requires n_1 >= n_2 > ... > n_s > 3. The subset is a union of blocks, one
    per dimension position:

    * position 1 contributes, for each value v in (n_2, n_1], the pair
      (v, 1, ..., 1) and (v, n_2, n_3, ..., n_s);
    * position i in 2..s-1 contributes, for each v in (n_{i+1}, n_i], the pair
      (v, 1, ..., 1) and (v, ..., v, n_{i+1}, ..., n_s) with v in the first i
      coordinates, plus pin vertices (1, v, ..., v, 1, ..., 1) with v repeated
      in coordinates 2..i for each v in [n_{i+1}, n_i];
    * the last position contributes the 3x3 seed {(a, k, ..., k): a, k in [3]}
      and, for each k in 4..n_s, the triple (1, k, ..., k), (k, 1, ..., 1),
      (k, ..., k).
    """
    d.require_reduced()
    dims = d.dims
    s = d.s

    def n(i: int) -> int:
        return dims[i - 1]

    out: set[Vertex] = set()
    for j in range(1, n(1) - n(2) + 1):
        v = n(2) + j
        out.add((v,) + (1,) * (s - 1))
        out.add((v,) + tuple(n(i) for i in range(2, s + 1)))
    for i in range(2, s):
        for j in range(1, n(i) - n(i + 1) + 1):
            v = n(i + 1) + j
            out.add((v,) + (1,) * (s - 1))
            out.add((v,) * i + tuple(n(k) for k in range(i + 1, s + 1)))
        for j in range(0, n(i) - n(i + 1) + 1):
            v = n(i + 1) + j
            out.add((1,) + (v,) * (i - 1) + (1,) * (s - i))
    for a in range(1, 4):
        for k in range(1, 4):
            out.add((a,) + (k,) * (s - 1))
    for k in range(4, n(s) + 1):
        out.add((1,) + (k,) * (s - 1))
        out.add((k,) + (1,) * (s - 1))
        out.add((k,) * s)
    return frozenset(out)


def iter_reduced_dims(max_entry: int, max_s: int) -> Iterable[DimsSpec]:
    """All dims valid for the reduced family with entries <= max_entry, s <= max_s."""
    for s in range(2, max_s + 1):
        for tail in itertools.combinations(range(max_entry, 3, -1), s - 1):
            # tail is strictly decreasing: n_2 > ... > n_s, all > 3
            for n1 in range(tail[0], max_entry + 1):
                yield DimsSpec((n1,) + tail)


def reduced_bihypergraph(d: DimsSpec) -> MixedHypergraph:
    """Derived sub-hypergraph of the product on the reduced vertex set.

    The product's generator runs on the reduced vertices alone; the full
    product (potentially huge) is never materialized.
    """
    verts = sorted(reduced_vertex_set(d))
    return _from_pair_rows(verts, _two_valued_rows(verts), dims=d.dims)
