"""Measuring process of the benchmark: one workload, one seed, one process.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread.  Protocol on
standard output (every other line is human-readable text the launcher
passes through):

* ``@@READY`` — set-up finished; the launcher times process start to this
  line as one ``setup_s`` sample.
* ``@@CANARY <seconds ...>`` — host canary slices timed right after set-up
  (``canary.py``); the launcher scales ``setup_s`` by the mean of every
  slice of the run.
* ``@@RESULT <json>`` — the run's measurements, check outcome and host
  facts, emitted once at the end.

Modes: ``--prepare`` trains the zoo into the benchmark's own cache (a step
outside every timed region), ``--setup-only`` exits right after
``@@READY``, otherwise one warm-up round is discarded and a fixed number of
rounds is timed (``--trace 0``, with canary slices interleaved; each round's
program seconds are scaled by the mean slice of that round) or alternated
untraced/traced (``--trace 1``, without canary slices).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from canary import REFERENCE_SLICE_S, Canary

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
ZOO_DIR = BENCH_DIR / ".cache" / "zoo"
ZOO_MARKER = ZOO_DIR / "PREPARED"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / ".work"
#: Canary slices timed right after set-up, and the least time between two
#: slices interleaved with the rounds (about 8 % of a run's wall time).
SETUP_SLICES = 16
TICK_PERIOD_S = 0.1


# ------------------------------------------------------------------ helpers
def percentile(values: "list[float]", q: float) -> float:
    """Inclusive linear-interpolation percentile (``statistics.quantiles``)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[int(q) - 1]


def blas_threads() -> "int | None":
    """Thread count OpenBLAS reports, or None when it cannot be queried."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def source_digest() -> str:
    """Digest of the program's sources (the checkout need not be a git repo)."""
    digest = hashlib.sha256()
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(REPO_ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> "str | None":
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() or None


def host_facts() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "commit": commit(),
        "source_digest": source_digest(),
    }


def load_zoo(names: "tuple[str, ...]", *, train: bool = False) -> dict:
    """Trained zoo models from the benchmark's own cache (``nn.zoo`` path).

    The dataset and trainer are the fast profile's, so the cache entries
    are exactly the ones the experiment workspace would use.
    """
    from repro.experiments.settings import ExperimentSettings
    from repro.experiments.workspace import ExperimentWorkspace
    from repro.nn import zoo
    from repro.nn.training import SGDTrainer

    settings = ExperimentSettings.fast()
    dataset = ExperimentWorkspace.create(settings).dataset
    trainer = SGDTrainer(epochs=settings.training_epochs, batch_size=settings.training_batch_size)
    models = {}
    for name in names:
        pretrained = zoo.get_pretrained(name, dataset, trainer=trainer, seed=settings.seed, cache_dir=ZOO_DIR)
        if not (train or pretrained.from_cache):
            raise RuntimeError(f"zoo model {name!r} is not prepared; run the benchmark's prepare step")
        models[name] = pretrained.model
    return {"settings": settings, "dataset": dataset, "models": models}


def prepare() -> None:
    """Train every zoo network any workload loads (outside all timings)."""
    import workloads

    networks = tuple(dict.fromkeys(n for w in workloads.WORKLOADS.values() for n in getattr(w, "networks", ())))
    ZOO_DIR.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    load_zoo(networks, train=True)
    ZOO_MARKER.write_text(json.dumps(list(networks)))
    print(f"prepared zoo {', '.join(networks)} in {time.perf_counter() - start:.1f} s", flush=True)


# ------------------------------------------------------------------- rounds
def make_workload(name: str, seed: int, tracer, canary: Canary):
    if name == "service_mix":
        from service_mix import ServiceMix

        return ServiceMix(seed, tracer, canary)
    import workloads

    return workloads.WORKLOADS[name](seed, tracer, canary)


def timed_round(workload, index: int) -> "tuple[float, list[float]]":
    """(program seconds, op seconds) of one round."""
    start = workload.canary.now()
    op_seconds = workload.run_round(index)
    return workload.canary.now() - start, op_seconds


def measure(workload, rounds: int) -> dict:
    """Untraced: ``rounds`` timed rounds after the warm-up round.

    A round's program seconds times ``REFERENCE_SLICE_S`` over the mean of
    the canary slices interleaved with it is its reference-host seconds.
    """
    raw, scaled, op_seconds = [], [], []
    for index in range(1, rounds + 1):
        first = len(workload.canary.slices)
        workload.canary.measure(1)  # every round has a slice
        seconds, ops = timed_round(workload, index)
        raw.append(seconds)
        scaled.append(seconds * REFERENCE_SLICE_S / statistics.fmean(workload.canary.slices[first:]))
        op_seconds.extend(ops)
    return {
        "metrics": {
            "round_p50_s": statistics.median(scaled),
            "ops_per_s": len(op_seconds) / sum(scaled),
            "raw_round_p50_s": statistics.median(raw),
            "raw_ops_per_s": len(op_seconds) / sum(raw),
            "op_p50_ms": 1e3 * statistics.median(op_seconds),
        },
        "rounds": len(raw),
        "ops": len(op_seconds),
        "round_seconds": raw,
        "scaled_round_seconds": scaled,
    }


def measure_traced(workload, tracer, pairs: int, trace_path: Path) -> dict:
    """Alternate untraced and traced rounds; per-layer metrics from the traced."""
    import repro.observability as observability
    from repro.observability.export import write_chrome_trace

    from tracing import layer_metrics

    untraced, traced, ops = [], [], 0
    zoo_load_s = tracer.total_s.get("nn.zoo_load", 0.0)
    tracer.reset()
    observability.reset()
    for index in range(1, pairs + 1):
        seconds, _ = timed_round(workload, index)
        untraced.append(seconds)
        observability.enable()
        tracer.active = True
        try:
            with tracer.span("round", index=index):
                seconds, op_seconds = timed_round(workload, index)
        finally:
            tracer.active = False
            observability.disable()
        traced.append(seconds)
        ops += len(op_seconds)
    snapshot = observability.snapshot()
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(trace_path, snapshot)
    metrics = layer_metrics(tracer, dict(snapshot.metrics.counters))
    metrics["nn.zoo_load_s"] = zoo_load_s
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
    metrics["trace.unattributed_s"] = tracer.self_s.get("round", 0.0)
    metrics.update(workload.layer_metrics())
    return {
        "metrics": metrics,
        "rounds": pairs,
        "ops": ops,
        "round_seconds": traced,
        "untraced_round_seconds": untraced,
        "layer_self_s": {name: round(value, 6) for name, value in sorted(tracer.self_s.items())},
        "calls": dict(tracer.calls),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--prepare", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    if args.prepare:
        prepare()
        return 0

    from tracing import LayerTracer, installed

    # One CPU for the whole run, server and pool included: the canary then
    # times the CPU the work runs on, and service_mix's processes cannot
    # land on different CPUs in one run and on one CPU in the next.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tracer = LayerTracer()
    canary = Canary(None if args.trace else TICK_PERIOD_S)
    workload = make_workload(args.workload, args.seed, tracer, canary)
    with installed(tracer) if args.trace else contextlib.nullcontext():
        # Set-up is traced too, for the zoo-load span (inclusive time) only.
        tracer.active = bool(args.trace)
        try:
            workload.setup()
        finally:
            tracer.active = False
        print("@@READY", flush=True)
        slices = canary.measure(SETUP_SLICES)
        print("@@CANARY " + " ".join(map(repr, slices)), flush=True)
        canary_s = sum(slices)
        try:
            if args.setup_only:
                return 0
            rounds = max(1, round(args.seconds / workload.nominal_round_s))
            workload.run_round(0)  # warm-up, discarded
            if args.trace:
                trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
                measured = measure_traced(workload, tracer, max(2, rounds // 2), trace_path)
            else:
                measured = measure(workload, rounds)
            failures, failed_ops = workload.check()
            measured["metrics"]["host.canary_s"] = canary_s
            if not args.trace:
                measured["metrics"]["peak_rss_mb"] = workload.peak_rss_mb()
                measured["metrics"].update(workload.extra_metrics())
        finally:
            workload.teardown()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": workload.attempted,
        "failed": failed_ops,
        "failures": failures[:20],
        "host": host_facts(),
        "canary_slices": canary.slices,
        "notes": workload.notes(),
        **measured,
    }
    print("@@RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
