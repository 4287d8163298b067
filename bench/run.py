"""cyclekit benchmark: four closed-loop workloads, one client, one thread.

Run from the repository root:

    python3 bench/run.py --workload exact-algebra --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --compare OLD NEW

A run prints one metadata line and, last, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(metadata, raw and calibrated figures) is also written to
``.bench_runs/``.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs the same inputs with span recorders installed and
reports per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")

WORKLOADS = ("exact-algebra", "figures", "metric-solver", "cli")
SETUP_PROBES = 5

# Host speed on shared machines drifts by up to 2x within seconds, and
# every kind of Python work drifts with it.  Each timing window is
# therefore bracketed by a fixed pure-Python kernel and scaled by
# REFERENCE_KERNEL_S / (kernel time beside it): reported times are those
# of a host on which the kernel takes REFERENCE_KERNEL_S, about this
# kernel's median on a 2-vCPU x86-64 virtual machine with Python 3.11.7.
REFERENCE_KERNEL_S = 1.0e-3
WINDOW_S = 0.1


def _kernel() -> None:
    acc = Fraction(0)
    x = 0.0
    parts = []
    for i in range(1, 100):
        acc += Fraction(i, 7) * Fraction(3, i + 2) - Fraction(1, i)
        x = x * 0.5 + i * 1.25
        parts.append("%.12g" % x)
    ",".join(parts)


def kernel_seconds() -> float:
    """Median of five kernel passes."""
    times = []
    for _ in range(5):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


def _scale(before: float, after: float) -> float:
    return REFERENCE_KERNEL_S / ((before + after) / 2.0)


def _percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) by statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[q - 1]


# ---------------------------------------------------------------------------
# workloads


def make_workload(name: str, seed: int, workdir: str):
    import workloads

    if name == "exact-algebra":
        return workloads.ExactAlgebra(seed)
    if name == "metric-solver":
        return workloads.MetricSolver(seed)
    if name == "figures":
        return workloads.Figures(seed, workdir)
    return workloads.Cli(seed, workdir, SRC, BENCH_DIR)


def setup_probe(name: str, seed: int) -> int:
    """Child process: time the import of cyclekit plus input generation."""
    before = kernel_seconds()
    start = perf_counter()
    import cyclekit  # noqa: F401  (timed on purpose)

    if name == "cli":
        import cyclekit.cli  # noqa: F401
    workdir = tempfile.mkdtemp(dir=RUNS)
    try:
        make_workload(name, seed, workdir)
        elapsed = perf_counter() - start
    finally:
        shutil.rmtree(workdir)
    after = kernel_seconds()
    print(json.dumps({"raw_s": elapsed, "scale": _scale(before, after)}))
    return 0


def measure_setup(name: str, seed: int) -> tuple[float, float, int]:
    """Median calibrated and raw set-up seconds over fresh processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", name, "--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for probe in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        if probe:  # the first probe only warms the file and bytecode caches
            samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    calibrated = statistics.median(s["raw_s"] * s["scale"] for s in samples)
    raw = statistics.median(s["raw_s"] for s in samples)
    return calibrated, raw, len(samples)


# ---------------------------------------------------------------------------
# timed loop


class Loop:
    """Closed loop over ``workload.run``; windows bracketed by the kernel."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.busy = 0.0
        self.raw_busy = 0.0
        self.attempted = 0
        self.errors: list[str] = []

    def run_for(self, seconds: float) -> None:
        deadline = perf_counter() + seconds
        before = kernel_seconds()
        while perf_counter() < deadline:
            window, start = [], perf_counter()
            while True:
                t0 = perf_counter()
                self._one()
                t1 = perf_counter()
                window.append(t1 - t0)
                if t1 - start >= WINDOW_S or t1 >= deadline:
                    break
            wall = perf_counter() - start
            after = kernel_seconds()
            scale = _scale(before, after)
            before = after
            self.raw_latencies.extend(window)
            self.latencies.extend(t * scale for t in window)
            self.raw_busy += wall
            self.busy += wall * scale

    def run_batch(self, count: int, tracer=None) -> tuple[float, float]:
        """Run queries 0..count-1 once, traced if a tracer is given.

        Returns the calibrated wall seconds and the scale applied.
        """
        if tracer is not None:
            tracer.install()
        try:
            before = kernel_seconds()
            start = perf_counter()
            for i in range(count):
                if tracer is not None:
                    tracer.request = i
                self._one(i)
            wall = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        scale = _scale(before, kernel_seconds())
        return wall * scale, scale

    def _one(self, index: int | None = None) -> None:
        index = self.attempted if index is None else index
        self.attempted += 1
        try:
            self.workload.run(index)
        except Exception as exc:  # a failed query is counted, and the loop goes on
            self.errors.append(f"query {index}: {type(exc).__name__}: {exc}")


def end_to_end(workload, loop: Loop, seconds: float) -> tuple[dict, dict, dict]:
    loop.run_for(seconds)
    if workload.name == "cli":
        peak_kb = workload.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = len(loop.latencies)
    metrics = {
        "throughput_per_s": (n / loop.busy, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(loop.latencies), "ms"),
        "latency_p90_ms": (1e3 * _percentile(loop.latencies, 90), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    raw = {
        "throughput_per_s": n / loop.raw_busy,
        "latency_p50_ms": 1e3 * statistics.median(loop.raw_latencies),
        "latency_p90_ms": 1e3 * _percentile(loop.raw_latencies, 90),
    }
    samples = {"throughput_per_s": n, "latency_p50_ms": n, "latency_p90_ms": n}
    return metrics, raw, samples


def traced(workload, loop: Loop, seconds: float, spans_path: str, import_ms: float):
    """Alternate untraced and traced passes over the first batch of inputs."""
    import tracing

    tracer = tracing.Tracer()
    batch = workload.trace_batch
    plain, with_trace, snapshots, problems = [], [], [], []
    deadline = perf_counter() + seconds
    while len(snapshots) < 3 or perf_counter() < deadline:
        plain.append(loop.run_batch(batch)[0])
        if workload.name == "cli":  # each request traces itself in its own process
            workload.traced, workload.span_files = True, []
            with_trace.append(loop.run_batch(batch)[0])
            workload.traced = False
            snapshot, import_ms, spans = _merge_children(workload.span_files)
        else:
            tracer.reset()
            wall, scale = loop.run_batch(batch, tracer)
            with_trace.append(wall)
            snapshot = tracer.snapshot(scale)
            spans = tracer.span_record()
        if not snapshots:
            with open(spans_path, "w", encoding="utf-8") as handle:
                json.dump(spans, handle)
        elif tracing.counts_of(snapshot) != tracing.counts_of(snapshots[0]):
            problems.append(f"traced pass {len(snapshots)} counted different calls than pass 0")
        snapshots.append(snapshot)
    per_pass = [tracing.layer_metrics(s) for s in snapshots]
    metrics = {
        name: (statistics.median(p[name] for p in per_pass), unit)
        for name, unit, _ in tracing.PER_LAYER_METRICS
        if name in per_pass[0]
    }
    metrics["cli.import_ms"] = (import_ms, "ms")
    overhead = statistics.median(with_trace) / statistics.median(plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    samples = {"passes": len(snapshots), "queries_per_pass": batch}
    per_call_us = {
        name: statistics.median(1e6 * s["inclusive_s"][name] / s["calls"][name] for s in snapshots)
        for name in sorted(snapshots[0]["calls"])
    }
    return metrics, samples, problems, per_call_us


def _merge_children(paths: list[str]) -> tuple[dict, float, dict]:
    import tracing

    snapshots, imports, spans = [], [], []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            child = json.load(handle)
        snapshots.append(child["snapshot"])
        imports.append(1e3 * child["import_s"] * child["scale"])  # child's own kernel scale
        spans.append(child["spans"])
        os.remove(path)
    return tracing.merge(snapshots), statistics.median(imports), {"processes": spans}


# ---------------------------------------------------------------------------
# result records


def _git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(args) -> int:
    os.makedirs(RUNS, exist_ok=True)
    sys.path.insert(0, SRC)
    before = kernel_seconds()
    start = perf_counter()
    import cyclekit
    import cyclekit.cli  # noqa: F401

    import_ms = 1e3 * (perf_counter() - start) * _scale(before, kernel_seconds())
    if os.path.dirname(os.path.abspath(cyclekit.__file__)) != os.path.join(SRC, "cyclekit"):
        print(f"error: cyclekit imported from {cyclekit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "reference_kernel_s": REFERENCE_KERNEL_S,
    }
    setup = None
    if not args.trace:
        setup = measure_setup(args.workload, args.seed)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS)
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        loop = Loop(workload)
        problems: list[str] = []
        if args.trace:
            spans_path = os.path.join(RUNS, f"spans-{args.workload}-seed{args.seed}.json")
            metrics, samples, problems, meta["per_call_us"] = traced(
                workload, loop, args.seconds, spans_path, import_ms
            )
            meta["spans_file"] = os.path.relpath(spans_path, ROOT)
            raw = {}
        else:
            loop._one()  # warm-up: counted as attempted, not timed
            metrics, raw, samples = end_to_end(workload, loop, args.seconds)
            calibrated, raw_setup, probes = setup
            metrics["setup_s"] = (calibrated, "s")
            raw["setup_s"] = raw_setup
            samples["setup_s"] = probes
        failed_checks, check_errors = workload.verify()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = loop.errors + check_errors + problems
    failed = min(loop.attempted, len(loop.errors) + failed_checks)
    if not args.trace:
        metrics["ok_frac"] = (1.0 - failed / loop.attempted, "frac")
        samples["ok_frac"] = loop.attempted
    meta["samples"] = samples
    meta["raw"] = raw
    meta["failures"] = failures[:20]
    result = {
        "correct": not failures,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    record_path = os.path.join(
        RUNS, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "result": result}, handle, indent=1)
    for line in failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# compare mode


def _load_records(path: str) -> list[dict]:
    paths = [path]
    if os.path.isdir(path):
        paths = sorted(
            os.path.join(path, f) for f in os.listdir(path)
            if f.startswith("result-") and f.endswith(".json")
        )
    records = []
    for p in paths:
        with open(p, encoding="utf-8") as handle:
            records.append(json.load(handle))
    return records


def compare(old_path: str, new_path: str) -> int:
    """Print new/old ratios of each metric's median, per workload; never gates."""
    groups: dict[tuple, dict[str, dict[str, list]]] = {}
    for side, path in (("old", old_path), ("new", new_path)):
        for record in _load_records(path):
            key = (record["meta"]["workload"], record["meta"]["trace"])
            for name, metric in record["result"]["metrics"].items():
                slot = groups.setdefault(key, {}).setdefault(name, {"old": [], "new": []})
                slot[side].append(metric["value"])
                slot["unit"] = metric["unit"]
    print(f"{'workload':<14} {'metric':<44} {'old':>12} {'new':>12} {'new/old':>8}  runs")
    for (workload, trace), metrics in sorted(groups.items()):
        for name, slot in sorted(metrics.items()):
            if not slot["old"] or not slot["new"]:
                continue
            old = statistics.median(slot["old"])
            new = statistics.median(slot["new"])
            ratio = f"{new / old:8.3f}" if old else "     n/a"
            print(
                f"{workload:<14} {name:<44} {old:12.6g} {new:12.6g} {ratio}  "
                f"{len(slot['old'])}/{len(slot['new'])} {slot['unit']}"
            )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="result files or directories of them")
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not os.path.isfile(os.path.join(SRC, "cyclekit", "__init__.py")):
        print(f"error: no cyclekit sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        sys.path.insert(0, SRC)
        return setup_probe(args.setup_probe, args.seed)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
