"""Job lists for the three workloads, each job with an independent answer check.

A job is one call into the public `bihyper` API, or one `bihyper` CLI process,
whose answer the benchmark then checks outside the job's timed span. Every
expectation is computed here without the code under test: product spectra from
the dimension multiplicities, edge counts from the closed form, reduced sizes
from 2*n1 + n2 + s - 2, edgeless spectra from Stirling numbers, and witnesses
and partitions by direct inspection.

Spans name the layer a call enters (`constructions.product`, `solver.count`,
`cli.verify`, ...). Only public names from `bihyper.__all__` and CLI flags the
project keeps are used: no `_`-prefixed internals, no `parallel` option and no
time budget.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from math import comb, prod
from pathlib import Path
from typing import Callable

import bihyper as bh

CLI_TIMEOUT_S = 120
SAMPLE_CHECKS = 25  # collected partitions re-checked per collecting job


class Wrong(Exception):
    """An answer that does not match its independent expectation."""


@dataclass
class Job:
    name: str
    call: Callable  # (tracer) -> answer; the timed part
    check: Callable  # (answer) -> Counter of exact counts; raises Wrong
    mirror: Callable | None = None  # (tracer, answer) -> None; traced runs only


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Wrong(what)


# --- independent expectations ----------------------------------------------


def product_edges(dims) -> int:
    """Closed-form bi-edge count of the product on the box n1 x ... x ns."""
    return prod(n * (n - 1) for n in dims) * (3 ** (len(dims) - 1) - 1) // 2


def reduced_size(dims) -> int:
    return 2 * dims[0] + dims[1] + len(dims) - 2


def multiplicity_spectrum(dims) -> dict[int, int]:
    """The family's spectrum: r_n is the number of times n occurs in dims."""
    return dict(Counter(dims))


def stirling_row(n: int) -> dict[int, int]:
    """Stirling numbers of the second kind S(n, k) for k = 1..n."""
    row = [1]  # S(0, 0)
    for m in range(1, n + 1):
        new = [0] * (m + 1)
        for k in range(1, m + 1):
            new[k] = k * (row[k] if k < len(row) else 0) + row[k - 1]
        row = new
    return {k: row[k] for k in range(1, n + 1)}


def spectrum_dict(sp) -> dict[int, int]:
    return {k: v for k, v in enumerate(sp.counts, start=1) if v}


def check_report(sp, report: dict) -> None:
    expect(report["spectrum"] == {str(k): v for k, v in spectrum_dict(sp).items()},
           "as_report spectrum differs from the spectrum it reports")
    expect(report["partition_count"] == sum(sp.counts), "as_report partition_count")


def is_witness(h1, h2, mapping: dict[int, int]) -> bool:
    """Bijection mapping each edge family of h1 onto the same family of h2."""
    if h1.n != h2.n or sorted(mapping) != list(range(h1.n)):
        return False
    if sorted(mapping.values()) != list(range(h2.n)):
        return False
    for own, other in ((h1.c_edges, h2.c_edges), (h1.d_edges, h2.d_edges)):
        if {tuple(sorted(mapping[v] for v in e)) for e in own} != set(other):
            return False
    return True


# --- in-process jobs ---------------------------------------------------------


def canonicalize_mirror(tracer, h) -> None:
    """Re-canonicalize a built edge list directly, as its own top-level span."""
    with tracer.span("model.canonicalize"):
        bh.make_mixed_hypergraph(h.vertices, h.c_edges, h.d_edges, dims=h.dims)


def spectrum_job(name: str, layer: str, build: Callable, dims: tuple[int, ...],
                 n_vertices: int, n_edges: int | None = None) -> Job:
    """Build a family instance, then compute its spectrum and report."""

    def call(tr):
        with tr.span(layer):
            h = build()
        with tr.span("solver.search"):
            sp = bh.chromatic_spectrum(h)
        with tr.span("model.report"):
            report = sp.as_report()
        return h, sp, report

    def check(answer):
        h, sp, report = answer
        expect(h.n == n_vertices, f"{name}: {h.n} vertices")
        expect(h.is_bihypergraph, f"{name}: C and D families differ")
        expect(n_edges is None or len(h.c_edges) == n_edges, f"{name}: {len(h.c_edges)} edges")
        expect(spectrum_dict(sp) == multiplicity_spectrum(dims), f"{name}: spectrum {sp.counts}")
        check_report(sp, report)
        return Counter(edges=len(h.c_edges), partitions=sum(sp.counts))

    return Job(name, call, check, lambda tr, a: canonicalize_mirror(tr, a[0]))


def product_spectrum_job(n: int) -> Job:
    """Spectrum of the product realizing the target {n:1, 3:2}."""
    target = bh.SpectrumTarget.of({n: 1, 3: 2})
    dims = (n, 3, 3)
    return spectrum_job(f"product{dims}", "constructions.product",
                        lambda: bh.spectrum_instance(target)[1], dims, prod(dims), product_edges(dims))


def reduced_spectrum_job(dims: tuple[int, ...]) -> Job:
    d = bh.DimsSpec(dims)
    return spectrum_job(f"reduced{dims}", "constructions.reduced",
                        lambda: bh.reduced_bihypergraph(d), dims, reduced_size(dims))


def reduced_equivalence_job(dims: tuple[int, ...]) -> Job:
    d = bh.DimsSpec(dims)

    def call(tr):
        with tr.span("solver.verify"):
            return bh.verify_reduced_equivalence(d)

    def check(report):
        want = multiplicity_spectrum(dims)
        expect(report.equal, f"thm32{dims}: reduced and full spectra differ")
        expect(report.full_source == "enumerated", f"thm32{dims}: full side {report.full_source}")
        expect(spectrum_dict(report.reduced_spectrum) == want, f"thm32{dims}: reduced spectrum")
        expect(spectrum_dict(report.full_spectrum) == want, f"thm32{dims}: full spectrum")
        expect(report.reduced_size == reduced_size(dims), f"thm32{dims}: |X*|")
        return Counter(partitions=2 * sum(want.values()))

    return Job(f"thm32{dims}", call, check)


def edge_maximality_job(dims: tuple[int, ...]) -> Job:
    d = bh.DimsSpec(dims)

    def call(tr):
        with tr.span("solver.verify"):
            return bh.verify_edge_maximality(d, mode="enumerate")

    def check(report):
        nonedges = comb(prod(dims), 3) - product_edges(dims)
        expect(report.ok, f"thm24{dims}: {len(report.failures)} failures")
        expect(report.mode == "enumerate", f"thm24{dims}: mode {report.mode}")
        expect(report.tested_triples == nonedges, f"thm24{dims}: {report.tested_triples} tested")
        expect(spectrum_dict(report.base_spectrum) == multiplicity_spectrum(dims),
               f"thm24{dims}: base spectrum")
        return Counter(nonedges=report.tested_triples)

    return Job(f"thm24{dims}", call, check)


def diagonal_isomorphism_job() -> Job:
    """The (4,3,3) product restricted to its diagonal is the (4,3) product."""
    big, small = bh.DimsSpec.of(4, 3, 3), bh.DimsSpec.of(4, 3)

    def call(tr):
        with tr.span("constructions.product"):
            h433 = bh.product_bihypergraph(big)
            h43 = bh.product_bihypergraph(small)
        diagonal = [i for i, v in enumerate(h433.vertices) if v[1] == v[2]]
        slice_ = bh.derived_subhypergraph(h433, diagonal)
        with tr.span("isomorphism.check"):
            witness = bh.is_isomorphic(slice_, h43)
        return h433, h43, slice_, witness

    def check(answer):
        h433, h43, slice_, witness = answer
        expect(witness is not None, "diagonal: no isomorphism found")
        expect(is_witness(slice_, h43, witness), "diagonal: witness is not an isomorphism")
        return Counter(edges=len(h433.c_edges) + len(h43.c_edges))

    return Job("diagonal-iso", call, check)


def counting_pair(label: str, h, expected: dict[int, int] | None, rng: random.Random) -> list[Job]:
    """One instance through the counting path, then through the collecting path.

    With `expected` (edgeless instances) both answers must equal it; otherwise
    the collecting path must agree with the counting path run just before it.
    """
    counted: dict[str, dict[int, int]] = {}
    sample_seed = rng.randrange(2**32)

    def count_call(tr):
        with tr.span("solver.count"):
            return bh.chromatic_spectrum(h, bh.EnumerationConfig(collect_partitions=False))

    def count_check(sp):
        got = spectrum_dict(sp)
        if expected is not None:
            expect(got == expected, f"{label} count: spectrum {sp.counts}")
        counted["spectrum"] = got
        return Counter(partitions=sum(got.values()))

    def collect_call(tr):
        with tr.span("solver.collect"):
            return bh.enumerate_feasible_partitions(h)

    def collect_check(parts):
        got = dict(Counter(p.num_classes for p in parts))
        expect(got == counted.pop("spectrum", None), f"{label}: collecting path differs from counting path")
        if expected is not None:
            expect(got == expected, f"{label} collect: class counts {got}")
        expect(len(set(parts)) == len(parts), f"{label}: a partition is emitted twice")
        for p in random.Random(sample_seed).sample(parts, min(SAMPLE_CHECKS, len(parts))):
            expect(bh.is_proper_coloring(h, p), f"{label}: improper partition {p.classes}")
        return Counter(partitions=len(parts))

    return [Job(f"{label}/count", count_call, count_check),
            Job(f"{label}/collect", collect_call, collect_check)]


def edgeless(n: int):
    return bh.make_mixed_hypergraph([(i + 1,) for i in range(n)], [], [])


def random_mixed(n: int, edges_per_vertex: float, base_seed: str, rng: random.Random):
    """Random mixed hypergraph with independent C and D families of 3-4 edges.

    The edge structure comes from `base_seed`; `rng` (the run's seed) relabels
    the vertices and shuffles edge order. The partition count is then the same
    for every run seed, which keeps the work comparable between seeds, while
    the solver still sees a different input: its vertex order breaks degree
    ties by index. Drawn freely, partition counts vary 30-fold between seeds.
    """
    base = random.Random(base_seed)
    per_family = round(n * edges_per_vertex / 2)
    families = [[base.sample(range(n), base.choice((3, 4))) for _ in range(per_family)]
                for _ in range(2)]
    relabel = list(range(n))
    rng.shuffle(relabel)
    c_edges, d_edges = ([[relabel[v] for v in e] for e in fam] for fam in families)
    rng.shuffle(c_edges)
    rng.shuffle(d_edges)
    return bh.make_mixed_hypergraph([(i + 1,) for i in range(n)], c_edges, d_edges)


# --- CLI jobs ----------------------------------------------------------------


class Cli:
    """Runs `python -m bihyper` against the checkout's sources in a work dir."""

    def __init__(self, src: Path, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def __call__(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "bihyper", *args], cwd=self.workdir, env=self.env,
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )

    def json_line(self, proc, what: str) -> dict:
        expect(proc.returncode == 0, f"{what}: exit code {proc.returncode}: {proc.stderr.strip()}")
        lines = proc.stdout.strip().splitlines()
        expect(bool(lines), f"{what}: no output")
        return json.loads(lines[-1])


def summary_counts(proc, what: str) -> tuple[int, int, int]:
    """Vertices, C-edges and D-edges from a `construct` or `export` summary line."""
    expect(proc.returncode == 0, f"{what}: exit code {proc.returncode}: {proc.stderr.strip()}")
    words = proc.stdout.splitlines()[0].split(": ", 1)[1].replace(",", "").split()
    return int(words[0]), int(words[2]), int(words[4])


def cli_job(cli: Cli, layer: str, args: list[str], check: Callable, mirror=None) -> Job:
    def call(tr):
        with tr.span(layer):
            return cli(args)

    return Job("bihyper " + " ".join(args), call, check, mirror)


def cli_help_job(cli: Cli) -> Job:
    def check(proc):
        expect(proc.returncode == 0, f"--help: exit code {proc.returncode}")
        expect(proc.stdout.startswith("usage: bihyper"), "--help: no usage line")
        return Counter()

    return cli_job(cli, "cli.startup", ["--help"], check)


def cli_construct_job(cli: Cli, family: str, dims: tuple[int, ...], out: str,
                      target: str | None = None) -> Job:
    """`construct ... --out FILE`, checked by vertex and edge counts.

    The traced mirror builds the same instance in-process, re-canonicalizes
    its edges, saves it and loads the CLI's file, so that the layers hidden
    inside the subprocess get spans of their own.
    """
    if family == "reduced":
        args = ["construct", "reduced", *map(str, dims), "--out", out]
        n_vertices, n_edges = reduced_size(dims), None
    else:
        args = (["construct", "spectrum-instance", "--set", target, "--out", out] if target
                else ["construct", "product", *map(str, dims), "--out", out])
        n_vertices, n_edges = prod(dims), product_edges(dims)
    path = cli.workdir / out

    def check(proc):
        vertices, c_edges, d_edges = summary_counts(proc, f"construct {dims}")
        expect(vertices == n_vertices, f"construct {dims}: {vertices} vertices")
        expect(c_edges == d_edges, f"construct {dims}: C and D families differ")
        expect(n_edges is None or c_edges == n_edges, f"construct {dims}: {c_edges} edges")
        data = json.loads(path.read_bytes())
        expect(len(data["vertices"]) == vertices and len(data["c_edges"]) == c_edges,
               f"construct {dims}: file disagrees with the summary")
        return Counter(edges=c_edges, json_bytes=path.stat().st_size)

    def mirror(tr, _proc):
        d = bh.DimsSpec(dims)
        if family == "reduced":
            with tr.span("constructions.reduced"):
                h = bh.reduced_bihypergraph(d)
        else:
            with tr.span("constructions.product"):
                h = bh.product_bihypergraph(d)
        canonicalize_mirror(tr, h)
        with tr.span("model.json_save"):
            bh.save_hypergraph(h, path.with_suffix(".mirror.json"))
        with tr.span("model.json_load"):
            bh.load_hypergraph(path)

    return cli_job(cli, "cli.construct", args, check, mirror)


def cli_export_job(cli: Cli, file: str) -> Job:
    """`export FILE` validates the file and summarizes what it holds."""

    def check(proc):
        vertices, c_edges, d_edges = summary_counts(proc, f"export {file}")
        data = json.loads((cli.workdir / file).read_bytes())
        held = len(data["vertices"]), len(data["c_edges"]), len(data["d_edges"])
        expect((vertices, c_edges, d_edges) == held, f"export {file}: summary disagrees with the file")
        return Counter()

    return cli_job(cli, "cli.export", ["export", file], check)


def cli_spectrum_job(cli: Cli, command: str, file: str, dims: tuple[int, ...]) -> Job:
    want = multiplicity_spectrum(dims)

    def check(proc):
        got = cli.json_line(proc, command)
        if command == "spectrum":
            expect(got["spectrum"] == {str(k): v for k, v in want.items()}, f"spectrum: {got}")
        expect(got["feasible_set"] == sorted(want), f"{command}: feasible set {got['feasible_set']}")
        expect((got["chi"], got["chi_bar"]) == (min(want), max(want)), f"{command}: chi {got}")
        expect(got["partition_count"] == sum(want.values()), f"{command}: partition count")
        return Counter(partitions=got["partition_count"])

    return cli_job(cli, "cli.spectrum", [command, "--json", file], check)


def cli_verify_job(cli: Cli, args: list[str], extra: Callable[[dict], Counter] = lambda r: Counter()) -> Job:
    def check(proc):
        got = cli.json_line(proc, args[0])
        expect(got["verified"] is True, f"verify {args[0]}: not verified")
        return extra(got)

    return cli_job(cli, "cli.verify", ["verify", *args, "--json"], check)


def thm24_counts(report: dict) -> Counter:
    dims = tuple(report["dims"])
    nonedges = comb(prod(dims), 3) - product_edges(dims)
    expect(report["tested_triples"] == nonedges, f"thm24: {report['tested_triples']} tested")
    return Counter(nonedges=nonedges)


def enumerated(report: dict) -> Counter:
    expect(report["full_source"] == "enumerated", f"verify: full side {report['full_source']}")
    return Counter()


def spectrum_match(want: dict[int, int]) -> Callable[[dict], Counter]:
    def check(report: dict) -> Counter:
        expect(report["actual"] == {str(k): v for k, v in want.items()}, f"verify: {report}")
        return Counter(partitions=sum(want.values()))

    return check


# --- workloads ---------------------------------------------------------------
#
# A pass holds 15 or 25 jobs. The median and the p90 of the pooled latencies
# then fall in the middle of one job's samples, not on the edge between two:
# with J jobs per pass the p50 is the ((J+1)/2)-th fastest job and the p90 the
# (0.9 J + 0.5)-th, which needs J odd and J = 5 mod 10.


def search_jobs(seed: int, cli: Cli) -> list[Job]:
    """Spectra dominated by pruning: products, reduced family, claim checks.

    The seed draws the order of the jobs. Every target {n:1, 3:2}, 4 <= n <= 7,
    is in each pass, because their search costs differ enough that drawing
    them would make one seed's figures incomparable with another's.
    """
    rng = random.Random(f"search:{seed}")
    jobs = [product_spectrum_job(n) for n in range(4, 8)]
    jobs += [reduced_spectrum_job(d)
             for d in ((5, 4), (6, 5, 4), (7, 6, 5, 4), (8, 7, 6, 5, 4), (12, 10, 8, 6, 4))]
    jobs += [reduced_equivalence_job(d) for d in ((5, 4), (6, 4), (6, 5))]
    jobs += [edge_maximality_job((3, 3)), edge_maximality_job((4, 3)), diagonal_isomorphism_job()]
    rng.shuffle(jobs)
    return jobs


# (vertices, edges per vertex over both families, base seed) of the random instances
RANDOM_INSTANCES = ((12, 3.0, "a"), (12, 3.0, "b"), (13, 3.5, "a"), (13, 3.5, "b"), (13, 3.5, "c"),
                    (14, 4.0, "a"), (14, 4.0, "b"), (15, 4.0, "a"), (15, 4.0, "b"), (16, 4.5, "a"))


def count_jobs(seed: int, cli: Cli) -> list[Job]:
    """Little pruning, many solutions: edgeless and random mixed hypergraphs.

    The 10-vertex edgeless instance runs through the counting path only: its
    collecting path alone takes over 2 s.
    """
    rng = random.Random(f"count:{seed}")
    jobs = counting_pair("edgeless10", edgeless(10), stirling_row(10), rng)[:1]
    for n in (8, 9):
        jobs += counting_pair(f"edgeless{n}", edgeless(n), stirling_row(n), rng)
    for n, density, base in RANDOM_INSTANCES:
        h = random_mixed(n, density, f"count-base:{n}:{density}:{base}", rng)
        jobs += counting_pair(f"random{n}{base}", h, None, rng)
    return jobs


def cli_jobs(seed: int, cli: Cli) -> list[Job]:
    """Real command-line sessions, one process after another.

    Seventeen of the 25 jobs are small sessions whose latency is mostly
    process start-up, so the p50 lies among them whatever target the seed
    draws. With 15 jobs, the p50 was the seed-drawn `construct
    spectrum-instance`, whose latency grows with n.
    """
    rng = random.Random(f"cli:{seed}")
    n = rng.randint(4, 7)
    target_dims = (n, 3, 3)
    return [
        cli_help_job(cli),
        cli_construct_job(cli, "product", (6, 5, 4), "product.json"),
        cli_export_job(cli, "product.json"),
        cli_construct_job(cli, "reduced", (30, 20, 10, 5), "reduced.json"),
        cli_construct_job(cli, "product", target_dims, "target.json", target=f"{n}:1,3:2"),
        cli_spectrum_job(cli, "spectrum", "target.json", target_dims),
        cli_spectrum_job(cli, "feasible", "target.json", target_dims),
        cli_export_job(cli, "target.json"),
        cli_construct_job(cli, "product", (4, 3), "small.json"),
        cli_export_job(cli, "small.json"),
        cli_spectrum_job(cli, "spectrum", "small.json", (4, 3)),
        cli_spectrum_job(cli, "feasible", "small.json", (4, 3)),
        cli_verify_job(cli, ["lemma21", "5", "4"], spectrum_match({5: 1, 4: 1})),
        cli_verify_job(cli, ["lemma21", "4", "3"], spectrum_match({4: 1, 3: 1})),
        cli_verify_job(cli, ["thm23", "--set", "4:1,3:2"], spectrum_match({4: 1, 3: 2})),
        cli_verify_job(cli, ["thm24", "--mode", "enumerate", "4", "3"], thm24_counts),
        cli_verify_job(cli, ["thm24", "4", "3"], thm24_counts),
        cli_verify_job(cli, ["thm24", "5", "4"], thm24_counts),
        cli_verify_job(cli, ["lemma31", "5", "4"], enumerated),
        cli_verify_job(cli, ["lemma31", "6", "5"], enumerated),
        cli_verify_job(cli, ["thm32", "5", "4"], enumerated),
        cli_verify_job(cli, ["thm32", "6", "5", "4"]),
        cli_verify_job(cli, ["size-bound"]),
        cli_verify_job(cli, ["size-bound", "--max-n", "12", "--max-s", "5"]),
        cli_export_job(cli, "reduced.json"),
    ]


WORKLOADS = {"search": search_jobs, "count": count_jobs, "cli": cli_jobs}


def probe_jobs(cli: Cli) -> list[Job]:
    """One small job per layer, run in traced passes only.

    A layer that a workload's own jobs never enter is reported from these
    spans instead, so every per-layer metric is a measured time on every
    workload.
    """
    rng = random.Random("probe")
    return [
        cli_help_job(cli),
        cli_construct_job(cli, "product", (4, 3, 3), "probe.json"),
        cli_export_job(cli, "probe.json"),
        cli_spectrum_job(cli, "spectrum", "probe.json", (4, 3, 3)),
        cli_verify_job(cli, ["lemma21", "4", "3"], spectrum_match({4: 1, 3: 1})),
        product_spectrum_job(4),
        reduced_spectrum_job((6, 5, 4)),
        reduced_equivalence_job((5, 4)),
        diagonal_isomorphism_job(),
        *counting_pair("edgeless7", edgeless(7), stirling_row(7), rng),
    ]
