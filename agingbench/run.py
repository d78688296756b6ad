#!/usr/bin/env python3
"""Benchmark of the aging-aware flow, one workload per invocation.

Usage (from the repository root)::

    python3 agingbench/run.py --workload alg1_zoo --seed 1 --seconds 15 --trace 0

Workloads, metrics and bounds are declared in ``BENCHMARK.json``; the
rationale is in ``agingbench/README.md``.  This launcher imports nothing
from the program: it starts ``harness.py`` processes with BLAS/OpenMP pinned
to one thread, times each from process start to its ``@@READY`` line (the
``setup_s`` samples), and prints a human-readable table followed, as the
last line of standard output, by one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the median of
three set-ups (set-up-only processes before and after the measuring one,
and the measuring one).  The gated times are in reference-host seconds
(``canary.py``): each round's program seconds are scaled by the host canary
slices interleaved with that round, and ``setup_s`` by the mean of every
slice the run timed; the measured seconds are printed alongside as
``raw_*``.
``--trace 1`` reports the per-layer metrics from a traced run and writes a
Chrome trace to ``agingbench/out/``.

The first run in a fresh checkout trains the zoo into
``agingbench/.cache/`` (a prepare step outside every timed region).
Exit status: 0 when every output check passed, 1 when a check failed or a
process did not finish, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from canary import REFERENCE_SLICE_S

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
ZOO_MARKER = BENCH_DIR / ".cache" / "zoo" / "PREPARED"
OUT_DIR = BENCH_DIR / "out"

#: Wall-clock limits: one run (after the prepare step) and the prepare step.
RUN_LIMIT_S = 170.0
PREPARE_LIMIT_S = 840.0

#: Every measured process runs BLAS/OpenMP on one thread: on a small shared
#: host the default thread pools made fixed work spread far wider.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: Figures printed in the table but not gated: workload-specific ones, and
#: op_p50_ms, whose run-to-run spread on a shared 2-vCPU host came within a
#: few percent of the largest bound a gated metric may have (0.25).
EXTRA_UNITS = {
    "raw_setup_s": "s",
    "raw_round_p50_s": "s",
    "raw_ops_per_s": "1/s",
    "host.speed_factor": "ratio",
    "op_p50_ms": "ms",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "warm_p50_ms": "ms",
    "cold_p50_ms": "ms",
    "host.canary_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    # Anything the program caches by default stays inside the checkout.
    env["REPRO_CACHE_DIR"] = str(BENCH_DIR / ".cache" / "repro")
    return env


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def wait_group_gone(pgid: int, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def run_child(arguments: "list[str]", limit_s: float) -> "tuple[float | None, list[float], dict | None, int]":
    """Run ``harness.py`` in its own process group.

    Returns (seconds from start to ``@@READY``, the ``@@CANARY`` slices, the
    ``@@RESULT`` payload, exit code).  The whole group is killed at ``limit_s`` and, in any case,
    once the harness has exited, so no process outlives the run.
    """
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "harness.py"), *arguments],
        stdout=subprocess.PIPE,
        text=True,
        cwd=REPO_ROOT,
        env=child_env(),
        start_new_session=True,
    )
    timer = threading.Timer(max(limit_s, 1.0), kill_group, (process.pid,))
    timer.start()
    ready_s = result = None
    slices: list[float] = []
    try:
        for line in process.stdout:
            if line.startswith("@@READY"):
                ready_s = time.perf_counter() - start
            elif line.startswith("@@CANARY "):
                slices = [float(value) for value in line.split()[1:]]
            elif line.startswith("@@RESULT "):
                result = json.loads(line[len("@@RESULT "):])
            else:
                print(line, end="", file=sys.stderr)
        code = process.wait()
    finally:
        timer.cancel()
        process.stdout.close()
        kill_group(process.pid)
        wait_group_gone(process.pid)
    return ready_s, slices, result, code


def fail(message: str, code: int = 1) -> int:
    print(f"agingbench: {message}", file=sys.stderr)
    return code


def format_value(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an exception, so run_child's cleanup still
    # kills the process group it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (REPO_ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        return fail(f"program sources or BENCHMARK.json not found under {REPO_ROOT}", 2)
    spec = json.loads(SPEC_PATH.read_text())
    if args.workload not in {workload["name"] for workload in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}", 2)

    if not ZOO_MARKER.is_file():
        _, _, _, code = run_child(["--prepare"], PREPARE_LIMIT_S)
        if code != 0 or not ZOO_MARKER.is_file():
            return fail("preparing the zoo failed")

    deadline = time.monotonic() + RUN_LIMIT_S
    common = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # Each set-up sample: (seconds to ready, the canary slices its process
    # timed after it; the measuring process reports its own in the result).
    setup_samples: "list[tuple[float, list[float]] | None]" = []

    def setup_only() -> None:
        ready_s, slices, _, code = run_child(common + ["--setup-only"], deadline - time.monotonic())
        setup_samples.append((ready_s, slices) if code == 0 and ready_s is not None and slices else None)

    # Set-up-only processes run before and after the measuring one, so the
    # three samples span the whole run rather than one stretch of it.
    if not args.trace:
        setup_only()
    ready_s, _, result, code = run_child(common, deadline - time.monotonic())
    if code != 0 or result is None or ready_s is None:
        return fail(f"the measuring process failed (exit code {code})")
    setup_samples.append((ready_s, []))
    if not args.trace:
        setup_only()
    if None in setup_samples:
        return fail("a set-up-only process failed")

    measured = dict(result["metrics"])
    if args.trace:
        declared = spec["per_layer"]
        # Layers a workload does not touch read 0 (for example the service
        # counters on alg1_zoo); the table marks them.
        absent = {metric["name"] for metric in declared} - set(measured)
        measured.update(dict.fromkeys(absent, 0))
    else:
        declared = spec["end_to_end"]
        # The run's host speed relative to the reference host, from every
        # canary slice of its processes, scales the set-up time (the rounds
        # come scaled per round from the harness).  Scaling each set-up by
        # the few slices its own process timed spread wider.
        slices = [value for _, setup_slices in setup_samples for value in setup_slices]
        factor = REFERENCE_SLICE_S / statistics.fmean(slices + result["canary_slices"])
        measured["host.speed_factor"] = factor
        measured["raw_setup_s"] = statistics.median(ready for ready, _ in setup_samples)
        measured["setup_s"] = measured["raw_setup_s"] * factor
    missing = [metric["name"] for metric in declared if metric["name"] not in measured]
    if missing:
        return fail(f"metrics not measured: {missing}")
    metrics = {
        metric["name"]: {"value": measured[metric["name"]], "unit": metric["unit"]} for metric in declared
    }

    attempted, failed = int(result["attempted"]), int(result["failed"])
    correct = failed == 0 and not result["failures"]
    host = result["host"]
    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}",
        "host: " + "  ".join(f"{key}={value}" for key, value in host.items()),
        f"timed rounds {result['rounds']} (+1 warm-up discarded), ops {result['ops']}, "
        f"setup samples {[round(ready, 4) for ready, _ in setup_samples]}",
        "notes: " + json.dumps(result["notes"]),
    ]
    for name, entry in metrics.items():
        marker = "  (not used by this workload)" if args.trace and entry["value"] == 0 else ""
        lines.append(f"  {name:32s} {format_value(entry['value']):>14s} {entry['unit']}{marker}")
    for name, unit in EXTRA_UNITS.items():
        if name in measured and name not in metrics:
            lines.append(f"  {name:32s} {format_value(measured[name]):>14s} {unit}")
    lines.append(f"  {'fail_ratio':32s} {format_value(failed / max(attempted, 1)):>14s} ({failed}/{attempted})")
    if args.workload == "service_mix" and not args.trace:
        lines.append(f"  {'queries_per_s':32s} {format_value(measured['raw_ops_per_s']):>14s} 1/s")
    if args.trace:
        lines.append("per-layer self time (s): " + json.dumps(result["layer_self_s"]))
    for failure in result["failures"]:
        lines.append(f"CHECK FAILED: {failure}")
    print("\n".join(lines))

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    sidecar = {"setup_samples_s": [ready for ready, _ in setup_samples], **result, "measured": measured, "metrics": metrics}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(sidecar, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    if not correct:
        print(f"agingbench: output checks failed ({failed} of {attempted} ops)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
