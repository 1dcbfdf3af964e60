"""Core domain model: mixed hypergraphs, partitions, and chromatic spectra.

A mixed hypergraph is a vertex set together with two edge families. Under a
coloring, every C-edge must contain two vertices sharing a color and every
D-edge must contain two vertices with distinct colors. A bi-hypergraph is the
special case where the two families coincide; its 3-element edges are exactly
the triples touching two color classes (neither monochromatic nor rainbow).

Vertices carry integer coordinate tuples (a bare index is a 1-tuple), but
edges always reference dense 0-based vertex indices, so the coloring machinery
never looks at coordinates.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, count, islice, repeat
from math import prod
from operator import and_, itemgetter, lt, or_, rshift
from pathlib import Path
from typing import Iterable, Iterator, Mapping

Vertex = tuple[int, ...]
Edge = tuple[int, ...]
# a builder's pair masks: rows[i][j - i - 1], for i < j, has bit k set for
# each 3-element bi-edge {i, j, k}
PairRows = tuple[tuple[int, ...], ...]

__all__ = [
    "Vertex",
    "Edge",
    "CapExceeded",
    "UncolorableError",
    "DimsSpec",
    "MixedHypergraph",
    "Partition",
    "ChromaticSpectrum",
    "make_mixed_hypergraph",
    "is_proper_coloring",
    "is_strict_k_coloring",
    "derived_subhypergraph",
    "to_json_dict",
    "from_json_dict",
    "save_hypergraph",
    "load_hypergraph",
]


class CapExceeded(RuntimeError):
    """A size or time guard was hit; no partial answer is returned.

    `stats` carries partial-progress diagnostics (node counts etc.) so the
    caller can report how far the computation got before aborting.
    """

    def __init__(self, message: str, stats: dict | None = None):
        super().__init__(message)
        self.stats = dict(stats or {})


class UncolorableError(ValueError):
    """Raised when chromatic numbers are requested but no strict coloring exists."""


@dataclass(frozen=True)
class DimsSpec:
    """Ordered dimension vector (n_1, ..., n_s) for the product families.

    Invariants enforced on construction: s >= 2, entries non-increasing, every
    entry >= 3. The reduced family needs the stronger chain
    n_1 >= n_2 > ... > n_s > 3, checked via `require_reduced`.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        d = tuple(self.dims)
        if any(type(v) is not int for v in d):  # no truncation; bool is no dimension
            raise ValueError(f"dimensions must be integers, got {d!r}")
        object.__setattr__(self, "dims", d)
        if len(d) < 2:
            raise ValueError(f"need at least 2 dimensions, got {d!r}")
        if any(v < 3 for v in d):
            raise ValueError(f"every dimension must be >= 3, got {d!r}")
        if any(d[i] < d[i + 1] for i in range(len(d) - 1)):
            raise ValueError(f"dimensions must be non-increasing, got {d!r}")

    @classmethod
    def of(cls, *dims: int) -> "DimsSpec":
        return cls(tuple(dims))

    @property
    def s(self) -> int:
        return len(self.dims)

    @property
    def vertex_count(self) -> int:
        return prod(self.dims)

    @property
    def is_reduced_family(self) -> bool:
        """True when n_1 >= n_2 > ... > n_s > 3 (strict after the first pair)."""
        d = self.dims
        if d[-1] <= 3:
            return False
        return all(d[i] > d[i + 1] for i in range(1, len(d) - 1))

    def require_reduced(self) -> None:
        if not self.is_reduced_family:
            raise ValueError(
                f"dims {self.dims} invalid for the reduced family: "
                "need n_1 >= n_2 > ... > n_s > 3"
            )


@dataclass(frozen=True)
class MixedHypergraph:
    """Immutable mixed hypergraph over indexed vertices.

    Edges are stored deduplicated, each as an ascending index tuple, with the
    edge lists themselves sorted; equality is therefore structural. `dims` is
    optional metadata recording the coordinate box the vertices came from.
    Build instances through `make_mixed_hypergraph`, which validates input.

    The family builders hand over pair masks instead of edges. For each vertex
    pair i < j, `pair_rows[i][j - i - 1]` has bit k set for each 3-element
    bi-edge {i, j, k}, k on either side of the pair; the exact search reads
    these masks as they are. `c_edges` and `d_edges`, one shared tuple, are
    made from them on first access, each mask's bits above j in ascending
    order, and then kept. `pair_rows` takes no part in equality, hashing,
    `repr` or JSON, and is no constructor argument (`dataclasses.replace`
    drops it): a hypergraph from any other source has none, and it equals a
    builder's hypergraph with the same edges.
    """

    vertices: tuple[Vertex, ...]
    c_edges: tuple[Edge, ...]
    d_edges: tuple[Edge, ...]
    dims: tuple[int, ...] | None = None
    pair_rows: PairRows | None = field(default=None, init=False, compare=False, repr=False)

    def __getattr__(self, name: str) -> tuple[Edge, ...]:
        # reached only for an attribute not set: the edge families of a
        # hypergraph made from pair rows, until they are first read
        if name not in ("c_edges", "d_edges") or self.pair_rows is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        state = vars(self)
        edges = state.setdefault("c_edges", _pair_rows_edges(self.pair_rows))
        state.setdefault("d_edges", edges)
        return edges

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def is_bihypergraph(self) -> bool:
        return self.c_edges == self.d_edges

    @property
    def bi_edges(self) -> tuple[Edge, ...]:
        if not self.is_bihypergraph:
            raise ValueError("not a bi-hypergraph: C-edge and D-edge families differ")
        return self.c_edges

    def edge_table(self) -> tuple[tuple[Edge, ...], list[bool], list[bool]]:
        """`(edges, in_c, in_d)`: both families as one sorted edge tuple, flagged
        per edge by family. A bi-hypergraph gives its shared tuple, flagged as both."""
        if self.c_edges is self.d_edges:
            both = [True] * len(self.c_edges)
            return self.c_edges, both, both
        cset, dset = set(self.c_edges), set(self.d_edges)
        edges = tuple(sorted(cset | dset))
        return edges, [e in cset for e in edges], [e in dset for e in edges]

    def with_bi_edge(self, edge: Iterable[int]) -> "MixedHypergraph":
        """Return a copy with `edge` added to both families.

        The edge's members are sorted and it goes in at its sorted place,
        unless the family holds it already, so a canonical edge list stays
        canonical and passes `make_mixed_hypergraph`'s bulk check, which still
        validates every edge."""
        e = tuple(edge)
        ints = all(type(v) is int for v in e)  # type(): bool and 1.0 are no index
        key = tuple(sorted(e)) if ints else e

        def added(edges: tuple[Edge, ...]) -> list[Edge]:
            out = list(edges)
            i = bisect_left(out, key) if ints else len(out)  # validation names a non-int edge
            if i == len(out) or out[i] != key:
                out.insert(i, key)
            return out

        c_edges = added(self.c_edges)
        d_edges = c_edges if self.c_edges is self.d_edges else added(self.d_edges)
        return make_mixed_hypergraph(self.vertices, c_edges, d_edges, dims=self.dims)


def _ascending_in_range(raw: list[Edge], n: int) -> bool:
    """True iff all members are ints (checked before any comparison), all edges
    have one size >= 2 and members ascend strictly within 0..n-1. Column by
    column in C passes: an `itemgetter` per column allocates nothing per edge,
    where `zip(*raw)` would make one iterator per edge."""
    first = raw[0] if raw else ()
    if len(first) < 2 or set(map(type, chain.from_iterable(raw))) != {int}:
        return False
    if not all(map(lt, first, first[1:])) or set(map(len, raw)) != {len(first)}:
        return False
    col = [itemgetter(i) for i in range(len(first))]
    return (all(all(map(lt, map(a, raw), map(b, raw))) for a, b in zip(col, col[1:]))
            and min(map(col[0], raw)) >= 0 and max(map(col[-1], raw)) < n)


def _canonical_edges(edges: Iterable[Iterable[int]], n: int, family: str) -> tuple[Edge, ...]:
    """A list that is already canonical, as the constructions emit it, passes one
    bulk check and is returned as it is; any other list is walked edge by edge,
    to name its first bad edge, and then sorted."""
    raw = list(map(tuple, edges))
    if _ascending_in_range(raw, n) and all(map(lt, raw, islice(raw, 1, None))):
        return tuple(raw)  # strictly increasing: sorted, no duplicate
    for e in raw:
        if len(e) < 2:
            raise ValueError(f"{family}-edge {e!r} has fewer than 2 vertices")
        for v in e:
            if type(v) is not int or not 0 <= v < n:  # type(): bool is not an index
                raise ValueError(f"{family}-edge {e!r} references invalid vertex index {v!r}")
        if len(set(e)) != len(e):
            raise ValueError(f"{family}-edge {e!r} has a repeated vertex")
    return tuple(sorted(dict.fromkeys(map(tuple, map(sorted, raw)))))


def _checked_vertices(
    vertices: Iterable[Vertex], dims: Iterable[int] | None
) -> tuple[tuple[Vertex, ...], tuple[int, ...] | None]:
    """The vertices and `dims` as tuples, after `make_mixed_hypergraph`'s checks."""
    verts = tuple(map(tuple, vertices))
    if not verts:
        raise ValueError("vertex set must be non-empty")
    width = len(verts[0])
    if width < 1 or any(len(v) != width for v in verts):
        raise ValueError("all vertices must have coordinate tuples of equal length >= 1")
    if not all(type(c) is int and c >= 1 for v in verts for c in v):  # bool is no coordinate
        raise ValueError("coordinates must be positive integers")
    if len(set(verts)) != len(verts):
        raise ValueError("duplicate vertex coordinates")
    box = tuple(dims) if dims is not None else None
    if box is not None:
        if not all(type(m) is int and m >= 1 for m in box):
            raise ValueError("dims must be positive integers")
        if len(box) != width:
            raise ValueError(f"dims {box} incompatible with coordinate width {width}")
        for v in verts:
            if any(not 1 <= c <= m for c, m in zip(v, box)):
                raise ValueError(f"vertex {v} outside the box {box}")
    return verts, box


def make_mixed_hypergraph(
    vertices: Iterable[Vertex],
    c_edges: Iterable[Iterable[int]],
    d_edges: Iterable[Iterable[int]],
    dims: Iterable[int] | None = None,
) -> MixedHypergraph:
    """Validate and canonicalize a mixed hypergraph.

    Raises ValueError for an empty vertex set, ragged or duplicated coordinate
    tuples, coordinates or `dims` entries that are not positive ints, edge
    indices that are out of range or not ints, edges with repeated vertices,
    or edges of size < 2. Nothing is coerced: `1.7` and `True` are refused.
    Duplicate edges within a family are silently merged.
    """
    verts, box = _checked_vertices(vertices, dims)
    # a bi-hypergraph keeps one edge tuple for both families; equal input
    # families are also canonicalized only once
    c_canon = _canonical_edges(c_edges, len(verts), "C")
    d_canon = c_canon
    if d_edges is not c_edges and d_edges != c_edges:
        d_canon = _canonical_edges(d_edges, len(verts), "D")
        if d_canon == c_canon:
            d_canon = c_canon
    return MixedHypergraph(vertices=verts, c_edges=c_canon, d_edges=d_canon, dims=box)


def _from_pair_rows(
    vertices: Iterable[Vertex], rows: PairRows, dims: Iterable[int] | None = None
) -> MixedHypergraph:
    """The bi-hypergraph a builder's pair masks give (see `MixedHypergraph`).

    The vertices and `dims` get every check of `make_mixed_hypergraph`. The
    rows get one pass per row, in place of the edges' bulk check: one mask per
    pair, each an int within the vertex range with neither of its own pair's
    bits set. Each edge lies in three masks, which the rows must agree on; the
    builders make them so, and this is not checked."""
    verts, box = _checked_vertices(vertices, dims)
    n = len(verts)
    if len(rows) != n:
        raise ValueError(f"{len(rows)} pair rows for {n} vertices")
    for i, row in enumerate(rows):
        if len(row) != n - i - 1 or set(map(type, row)) - {int} or row and (
            # the OR is negative iff a mask is, and then has a bit >= n iff a mask has
            (held := reduce(or_, row)) < 0 or held >> n
            or held >> i & 1  # no bit i, nor bit j in the mask of i, j
            or any(map(and_, map(rshift, row, count(i + 1)), repeat(1)))
        ):
            raise ValueError(f"pair row {i} is not one mask of third members per pair")
    h = MixedHypergraph.__new__(MixedHypergraph)
    vars(h).update(vertices=verts, dims=box, pair_rows=rows)  # edges made on first read
    return h


def _pair_rows_edges(rows: PairRows) -> tuple[Edge, ...]:
    """The edges (i, j, k) the rows hold, sorted: each mask's bits above j."""
    edges: list[Edge] = []
    append = edges.append
    for i, row in enumerate(rows):
        for j, m in enumerate(row, i + 1):
            k = j
            m >>= j + 1
            while m:
                step = (m & -m).bit_length()  # to the next member
                k += step
                append((i, j, k))
                m >>= step
    return tuple(edges)


def _label_classes(labels: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """The classes of a color assignment indexed by vertex, in canonical order."""
    groups: dict[int, list[int]] = {}
    for v, lab in enumerate(labels):
        groups.setdefault(lab, []).append(v)
    # first-occurrence order with ascending members is already canonical
    return map(tuple, groups.values())


@dataclass(frozen=True, slots=True)
class Partition:
    """A set partition of vertex indices into nonempty classes, in canonical form.

    Canonical form: each class is an ascending index tuple and classes are
    ordered by their smallest member, so equality ignores color names.
    Slotted: no instance `__dict__`, as the solver may keep a million of them.
    """

    classes: tuple[tuple[int, ...], ...]

    @classmethod
    def from_classes(cls, classes: Iterable[Iterable[int]]) -> "Partition":
        norm = []
        seen: set[int] = set()
        for c in classes:
            members = tuple(c)
            if not members:
                raise ValueError("empty class in partition")
            if not all(type(v) is int for v in members):  # bool is no vertex index
                raise ValueError("partition members must be integers")
            if len(set(members)) != len(members):
                raise ValueError("repeated member in a partition class")
            if seen & set(members):
                raise ValueError("classes are not disjoint")
            seen.update(members)
            norm.append(tuple(sorted(members)))
        norm.sort(key=lambda c: c[0])
        return cls(tuple(norm))

    @classmethod
    def from_labels(cls, labels: Iterable[int]) -> "Partition":
        """Build from a color assignment indexed by vertex; labels are arbitrary."""
        return cls(tuple(_label_classes(labels)))

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def universe(self) -> frozenset[int]:
        return frozenset(v for c in self.classes for v in c)

    def label_map(self) -> dict[int, int]:
        return {v: i for i, c in enumerate(self.classes) for v in c}

    def as_labels(self) -> tuple[int, ...]:
        """Restricted-growth labels over the contiguous universe 0..n-1.

        Canonical: class ids appear in order of first occurrence, so this
        string is the partition's sort key.
        """
        lab = self.label_map()
        n = len(lab)
        if self.universe != frozenset(range(n)):
            raise ValueError("labels require a contiguous vertex universe 0..n-1")
        return tuple(lab[v] for v in range(n))


@dataclass(frozen=True)
class ChromaticSpectrum:
    """Vector (r_1, ..., r_max) counting feasible partitions by class count.

    Empty when no strict coloring exists. The trailing entry is positive by
    construction, so equal spectra compare equal componentwise.
    """

    counts: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        c = tuple(self.counts)
        object.__setattr__(self, "counts", c)
        if not all(type(v) is int and v >= 0 for v in c):  # no truncation, no bools
            raise ValueError("spectrum entries must be non-negative integers")
        if c and c[-1] == 0:
            raise ValueError("spectrum must not end in a zero entry (use from_counts)")

    @classmethod
    def from_counts(cls, counts: Iterable[int]) -> "ChromaticSpectrum":
        c = list(counts)
        while c and c[-1] == 0:
            c.pop()
        return cls(tuple(c))

    @classmethod
    def from_class_counts(cls, by_k: Mapping[int, int]) -> "ChromaticSpectrum":
        """Build from a {class count: number of partitions} mapping."""
        return cls.from_counts(by_k.get(k, 0) for k in range(1, max(by_k, default=0) + 1))

    @property
    def is_empty(self) -> bool:
        return not self.counts

    def r(self, k: int) -> int:
        if k < 1:
            raise ValueError("class count must be >= 1")
        return self.counts[k - 1] if k <= len(self.counts) else 0

    @property
    def feasible_set(self) -> frozenset[int]:
        return frozenset(k for k, v in enumerate(self.counts, start=1) if v)

    @property
    def lower_chromatic(self) -> int:
        if self.is_empty:
            raise UncolorableError("no strict coloring exists")
        return min(self.feasible_set)

    @property
    def upper_chromatic(self) -> int:
        if self.is_empty:
            raise UncolorableError("no strict coloring exists")
        return len(self.counts)

    @property
    def total_partitions(self) -> int:
        return sum(self.counts)

    def as_report(self) -> dict:
        """Machine-readable report with feasible set and chromatic numbers."""
        return {
            "spectrum": {str(k): v for k, v in enumerate(self.counts, start=1) if v},
            "feasible_set": sorted(self.feasible_set),
            "chi": None if self.is_empty else self.lower_chromatic,
            "chi_bar": None if self.is_empty else self.upper_chromatic,
            "partition_count": self.total_partitions,
        }


def is_proper_coloring(h: MixedHypergraph, p: Partition) -> bool:
    """True iff every C-edge meets some class twice and no D-edge is monochromatic.

    For a 3-element bi-edge this is exactly "the three vertices touch exactly
    two classes". Raises ValueError if `p` does not cover h's vertex set.
    """
    if p.universe != frozenset(range(h.n)):
        raise ValueError("partition does not cover exactly the hypergraph's vertex set")
    lab = p.label_map()
    for e in h.c_edges:
        if len({lab[v] for v in e}) == len(e):
            return False
    for e in h.d_edges:
        if len({lab[v] for v in e}) == 1:
            return False
    return True


def is_strict_k_coloring(h: MixedHypergraph, p: Partition, k: int) -> bool:
    """True iff `p` is proper for `h` and uses exactly `k` nonempty classes."""
    if k < 1:
        raise ValueError(f"color count must be >= 1, got {k}")
    return p.num_classes == k and is_proper_coloring(h, p)


def derived_subhypergraph(h: MixedHypergraph, subset: Iterable[int]) -> MixedHypergraph:
    """Sub-hypergraph induced on `subset`: keeps exactly the edges inside it.

    Vertices are reindexed densely in ascending original-index order; their
    coordinate tuples (and any box metadata) are retained.
    """
    member = set(subset)
    for v in member:
        if type(v) is not int or not 0 <= v < h.n:  # bool is no vertex index
            raise ValueError(f"invalid vertex index {v!r} for {h.n} vertices")
    keep = sorted(member)
    remap = {old: new for new, old in enumerate(keep)}

    def filtered(edges: tuple[Edge, ...]) -> list[Edge]:
        return [tuple(remap[v] for v in e) for e in edges if member.issuperset(e)]

    c_edges = filtered(h.c_edges)
    d_edges = c_edges if h.is_bihypergraph else filtered(h.d_edges)
    return make_mixed_hypergraph((h.vertices[v] for v in keep), c_edges, d_edges, dims=h.dims)


# --- JSON interchange -------------------------------------------------------
#
# {"dims": [n1,...,ns] | null, "vertices": [[c1,...,cs],...],
#  "c_edges": [[i,j,k],...], "d_edges": [...]}
# with 0-based indices and edges sorted ascending. Files hold one key per line,
# its value on that line: `indent` would turn off json's C encoder.


def _json_fields(h: MixedHypergraph) -> dict:
    """The fields of `to_json_dict(h)`, but with one list under both edge
    keys when `h` keeps one edge tuple for both families."""
    c_edges = [list(e) for e in h.c_edges]
    return {
        "dims": list(h.dims) if h.dims is not None else None,
        "vertices": [list(v) for v in h.vertices],
        "c_edges": c_edges,
        "d_edges": c_edges if h.d_edges is h.c_edges else [list(e) for e in h.d_edges],
    }


def to_json_dict(h: MixedHypergraph) -> dict:
    data = _json_fields(h)
    if data["d_edges"] is data["c_edges"]:  # each key gets lists of its own
        data["d_edges"] = [list(e) for e in h.d_edges]
    return data


def _json_lists(data: Mapping, key: str) -> list:
    """`data[key]` checked to be a list of lists."""
    try:
        value = data[key]
    except KeyError:
        raise ValueError(f"hypergraph JSON is missing key {key!r}") from None
    if not isinstance(value, list) or not all(map(isinstance, value, repeat(list))):
        raise ValueError(f"hypergraph JSON key {key!r} must be a list of lists")
    return value


def from_json_dict(data: Mapping) -> MixedHypergraph:
    """Check the JSON shapes, then build; `make_mixed_hypergraph` checks the
    coordinate, dims and index values."""
    if not isinstance(data, Mapping):
        raise ValueError("hypergraph JSON must be an object")
    vertices = _json_lists(data, "vertices")
    c_edges = _json_lists(data, "c_edges")
    d_edges = _json_lists(data, "d_edges")
    dims = data.get("dims")
    if dims is not None and not isinstance(dims, list):
        raise ValueError("hypergraph JSON key 'dims' must be null or a list")
    return make_mixed_hypergraph(vertices, c_edges, d_edges, dims=dims)


def save_hypergraph(h: MixedHypergraph, path: str | Path) -> None:
    """Write `to_json_dict(h)`, one key per line. A bi-hypergraph's edge list
    is serialized once, and the text written under both edge keys."""
    data = _json_fields(h)
    edges = data["c_edges"]
    edges_text = json.dumps(edges)
    lines = (f"  {json.dumps(k)}: {edges_text if v is edges else json.dumps(v)}"
             for k, v in data.items())
    Path(path).write_text("{\n" + ",\n".join(lines) + "\n}\n")


def load_hypergraph(path: str | Path) -> MixedHypergraph:
    try:
        data = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError) as err:  # too deeply nested
        raise ValueError(f"invalid hypergraph JSON in {path}: {err}") from None
    return from_json_dict(data)

