"""Benchmark for bihyper: one workload per run, every answer checked.

    python3 perfbench/run.py --workload search --seed 1 --seconds 40 --trace 0

Runs from the root of a checkout and measures the sources under `src/`
there. The load is a closed loop with one client: one process, no threads,
one job at a time. The job list of a workload is fixed by the seed and
repeated in whole passes until `--seconds` have passed, to the nearest
pass, and at least `MIN_JOBS` jobs ran, so that ten samples lie beyond the
p90. Throughput is the median of the passes' rates, so that a burst of host
noise inside a run moves it less than a mean would.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced
and traced passes and reports per-layer self times from spans the benchmark
records around its own calls into the public API; nothing inside `src/` is
instrumented. The last line of standard output is one JSON object with the
result. See README.md for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_JOBS = 100
MAX_LOOP_S = 140  # stop adding passes here whatever MIN_JOBS says
SETUP_REPEATS = 15

END_TO_END_UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s", "job_ms.p50": "ms", "job_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
# per-layer metric -> span whose self time it sums per pass
LAYER_SPANS = {
    "cli.construct_s": "cli.construct",
    "cli.export_s": "cli.export",
    "cli.spectrum_s": "cli.spectrum",
    "cli.verify_s": "cli.verify",
    "constructions.product_s": "constructions.product",
    "constructions.reduced_s": "constructions.reduced",
    "model.canonicalize_s": "model.canonicalize",
    "model.json_save_s": "model.json_save",
    "model.json_load_s": "model.json_load",
    "model.report_s": "model.report",
    "solver.search_s": "solver.search",
    "solver.verify_s": "solver.verify",
    "solver.count_s": "solver.count",
    "solver.collect_s": "solver.collect",
    "isomorphism.check_s": "isomorphism.check",
}
# exact per-pass counts: metric -> (key the job checks return, unit, scale)
COUNT_METRICS = {
    "constructions.edges": ("edges", "count", 1),
    "model.json_mb": ("json_bytes", "MB", 1e-6),
    "solver.partitions": ("partitions", "count", 1),
    "solver.nonedges_tested": ("nonedges", "count", 1),
}


class Tracer:
    """Spans (name, start, end, parent span, job id) kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None, self.job])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def self_times(self, first: int) -> list[tuple[str, float]]:
        """(name, duration minus time covered by child spans) from span `first` on."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans[first:]:
            if parent is not None:
                child[parent] += end - start
        return [(name, end - start - child[i])
                for i, (name, start, end, _, _) in enumerate(self.spans[first:], start=first)]


class NullTracer:
    """Tracing off: spans cost one call."""

    job = None
    _null = nullcontext()

    def span(self, name: str):
        return self._null


class Run:
    """Outcome of the passes of one run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # verified jobs, untraced passes
        self.attempted = 0
        self.failures: list[str] = []
        self.pass_counts: list[tuple] = []
        self.busy = {"untraced": [], "traced": []}  # seconds in verified jobs, per pass
        self.rates: list[float] = []  # verified jobs per second of job time, per untraced pass
        self.layer = defaultdict(list)  # span name -> per-pass self-time sums
        self.probe_layer = defaultdict(list)
        self.startup: list[float] = []
        self.probe_startup: list[float] = []


def run_job(job, tracer, run: Run, counts: Counter) -> float | None:
    """Time one job, then check its answer; the latency of a verified job."""
    run.attempted += 1
    tracer.job = job.name
    try:
        start = time.perf_counter()
        with tracer.span("job"):
            answer = job.call(tracer)
        latency = time.perf_counter() - start
        counts.update(job.check(answer))
        if job.mirror is not None and isinstance(tracer, Tracer):
            job.mirror(tracer, answer)
        return latency
    except Exception as err:  # every failure is counted, none is skipped
        run.failures.append(f"{job.name}: {type(err).__name__}: {err}")
        return None


def one_pass(jobs, probes, tracer, run: Run) -> None:
    traced = isinstance(tracer, Tracer)
    first = len(tracer.spans) if traced else 0
    counts: Counter = Counter()
    latencies = [x for x in (run_job(job, tracer, run, counts) for job in jobs) if x is not None]
    run.busy["traced" if traced else "untraced"].append(sum(latencies))
    if not traced:
        run.latencies += latencies
        if latencies:
            run.rates.append(len(latencies) / sum(latencies))
    run.pass_counts.append(tuple(counts[key] for key, _, _ in COUNT_METRICS.values()))
    if not traced:
        return
    probe_start = len(tracer.spans)
    for job in probes:
        run_job(job, tracer, run, Counter())
    own, probe = defaultdict(float), defaultdict(float)
    for idx, (name, self_s) in enumerate(tracer.self_times(first), start=first):
        (probe if idx >= probe_start else own)[name] += self_s
        if name == "cli.startup":
            (run.probe_startup if idx >= probe_start else run.startup).append(self_s)
    for name in LAYER_SPANS.values():
        run.layer[name].append(own.get(name, 0.0))
        run.probe_layer[name].append(probe.get(name, 0.0))


def measure(jobs, probes, seconds: float, trace: bool) -> tuple[Run, Tracer | None]:
    run = Run()
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    passes, last = 0, 0.0
    while True:
        elapsed = time.perf_counter() - start
        # stop at the pass boundary nearest to `seconds`, not the first one after it
        enough = (elapsed + last / 2 >= seconds
                  and (trace and passes >= 4 or not trace and run.attempted >= MIN_JOBS))
        if enough or elapsed >= MAX_LOOP_S:
            break
        # traced runs alternate, so drift hits both sides of the overhead alike
        one_pass(jobs, probes, tracer if trace and passes % 2 else NullTracer(), run)
        passes += 1
        last = time.perf_counter() - start - elapsed
    return run, tracer


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, q in 1..99, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def import_seconds() -> float:
    """Import time of bihyper in a fresh interpreter, measured inside it."""
    code = "import time; t = time.perf_counter(); import bihyper; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def code_digest() -> str:
    """Digest of the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_counts(run: Run, workload: str, seed: int) -> list[str]:
    """Exact counts must repeat in every pass and in every run of the same seed and code."""
    problems = []
    if len(set(run.pass_counts)) > 1:
        problems.append(f"per-pass counts differ between passes: {sorted(set(run.pass_counts))}")
    counts = list(run.pass_counts[0])
    record = OUT / "counts" / f"{workload}-{seed}-{code_digest()}.json"
    if record.exists():
        before = json.loads(record.read_text())
        if before != counts:
            problems.append(f"counts {counts} differ from an earlier run with this seed: {before}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(counts) + "\n")
    return problems


def layer_metrics(run: Run) -> dict:
    """Median over traced passes of each layer's self time per pass.

    A layer the workload's jobs never enter is read from the probe jobs.
    """
    out = {}
    for metric, name in LAYER_SPANS.items():
        own = run.layer[name]
        values = own if any(own) else run.probe_layer[name]
        out[metric] = (statistics.median(values), "s")
    startup = run.startup or run.probe_startup
    out["cli.startup_ms"] = (statistics.median(startup) * 1e3, "ms")
    for (metric, (_, unit, scale)), count in zip(COUNT_METRICS.items(), run.pass_counts[0]):
        out[metric] = (count * scale, unit)
    untraced, traced = (statistics.median(run.busy[side]) for side in ("untraced", "traced"))
    out["trace.overhead_pct"] = ((traced / untraced - 1) * 100, "%")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("search", "count", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "bihyper" / "__init__.py").is_file():
        print(f"error: no bihyper sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bihyper

    if Path(bihyper.__file__).resolve().parent != SRC / "bihyper":
        print(f"error: imported bihyper from {bihyper.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import jobs as J

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        cli = J.Cli(SRC, workdir)
        setups = []
        for _ in range(SETUP_REPEATS):
            imported = import_seconds()
            start = time.perf_counter()
            jobs = J.WORKLOADS[args.workload](args.seed, cli)
            setups.append(imported + time.perf_counter() - start)
        probes = J.probe_jobs(cli) if args.trace else []

        run, tracer = measure(jobs, probes, args.seconds, bool(args.trace))
        problems = check_counts(run, args.workload, args.seed)
        if tracer is not None:
            with open(OUT / f"spans-{args.workload}-{args.seed}.jsonl", "w") as f:
                for span in tracer.spans:
                    f.write(json.dumps(span) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not run.latencies:  # nothing verified: no figure to report
        print(f"error: every job failed, first: {run.failures[0]}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = layer_metrics(run)
    else:
        lat_ms = [x * 1e3 for x in run.latencies]
        rss_kb = max(resource.getrusage(who).ru_maxrss
                     for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        values = {
            "setup_s": statistics.median(setups),
            "jobs_per_s": statistics.median(run.rates),
            "job_ms.p50": statistics.median(lat_ms),
            "job_ms.p90": percentile(lat_ms, 90),
            "peak_rss_mb": rss_kb / 1024,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}

    failed = len(run.failures)
    print(f"workload {args.workload} seed {args.seed}: {len(run.pass_counts)} passes, "
          f"{run.attempted} jobs, {failed} failed, fail_ratio {failed / run.attempted:.4f}")
    for line in run.failures[:20] + problems:
        print(f"  FAIL {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not run.failures and not problems,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
