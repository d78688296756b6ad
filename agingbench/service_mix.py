"""The ``service_mix`` workload: a closed loop against ``runner serve``.

One load-generator process holds two connections to a ``runner serve
--workers 2`` subprocess and replays a seeded mix in lock-step: every step
sends one query on each connection at once and waits for both answers
before the next step.  A round is 127 steps (254 queries):

* 125 steps of two warm queries: repeats of the preloaded set (fig2,
  table2, fig4a, fig1a); half of the fig2/table2/fig4a repeats carry a
  random ``seed``, which their keys ignore, so they stay warm;
* 1 step of one warm and one cold query;
* 1 step where both connections send the same cold query, which the
  service coalesces into one execution.

A cold query asks for fig1a and scenario_sweep on a mission-profile axis
with fresh ``mission_years`` (a keyed field of fig1a and of every scenario
point).  Its fig1a, two scenario points and aggregate are heavy tasks, so
``run_pipeline`` dispatches them to the server's persistent two-worker
``WorkerPool``: pool dispatch, pickling and result return are on the path.
The harness pins the load generator, and so the server and its pool, to
one CPU (see ``harness.py``), so the two workers share it.

The mix is synthetic: the repository holds no recorded query traffic.  Its
shape follows the service's intended use, mostly warm repeats plus some cold
and coalesced queries, and its counts follow one rule: the warm steps take
about as long in a round as the two cold executions (about 8.5 ms per warm
step and 0.55 s per cold execution on the 2-vCPU host the benchmark was
sized on), so ``round_p50_s`` weighs the warm path (planning, cache load,
JSON, socket) and the cold path (pipeline, pool) about equally.

Every answer is kept; ``check()`` compares answers to identical queries
byte for byte, every seed variant to the answer without the seed, and every
plain warm query plus a seeded sample of seed variants and cold queries to
the JSON text of an offline ``run_pipeline``.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from harness import REPO_ROOT, WORK_DIR, percentile

WARM_SET = ("fig2", "table2", "fig4a", "fig1a")
SEED_FREE = ("fig2", "table2", "fig4a")
STEPS = ("ww",) * 125 + ("wc",) * 1 + ("cc",) * 1
COLD_EXPERIMENTS = ("fig1a", "scenario_sweep")
#: Workers of the server's persistent pool.
WORKERS = 2
#: Seed variants and cold queries compared with an offline run, per run.
VARIANT_SAMPLE = 4
COLD_SAMPLE = 2
#: Server counters reported per traced run (deltas of the ``stats`` op).
STATS_COUNTERS = (
    "pipeline.tasks.executed",
    "pipeline.cache.hits",
    "service.queries.coalesced",
    "service.queries.warm",
)


def covered_seconds(intervals: "list[tuple[float, float]]") -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def canonical(experiments: "tuple[str, ...]", overrides: dict) -> str:
    return json.dumps([list(experiments), overrides], sort_keys=True)


class ServiceMix:
    """Closed-loop query mix over two connections (see the module docstring)."""

    nominal_round_s = 2.0

    def __init__(self, seed: int, tracer, canary) -> None:
        self.seed = seed
        self.tracer = tracer
        #: ``canary.Canary``: ``tick`` runs between steps, when no query is
        #: in flight.
        self.canary = canary
        self.attempted = 0
        self.server: "subprocess.Popen | None" = None
        self.clients: list = []
        self.answers: dict[str, dict] = {}
        self.errors: list[str] = []
        self.queries: list[dict] = []
        self.counts: dict[str, int] = dict.fromkeys(STATS_COUNTERS, 0)
        self.cold_counter = 0
        self.round_index = 0
        self.unattributed_s = 0.0
        # Synthetic span ids, far above the ids the process tracer hands out.
        self.next_span_id = 1 << 30
        self.work: "Path | None" = None
        self.pool = ThreadPoolExecutor(max_workers=2)

    # ------------------------------------------------------------------ setup
    def setup(self) -> None:
        from repro.service.client import ServiceClient

        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="service-", dir=WORK_DIR))
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.runner", "serve", "--port", "0",
             "--workers", str(WORKERS), "--cache-dir", str(self.work / "cache")],
            stdout=subprocess.PIPE,
            text=True,
            cwd=REPO_ROOT,
        )
        line = self.server.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"service did not start: {line!r}")
        host, port = line.strip().rsplit(" ", 1)[1].rsplit(":", 1)
        self.clients = [ServiceClient(host, int(port), timeout=120) for _ in range(2)]
        for client in self.clients:
            client.ping()
        for experiment in WARM_SET:
            self.ask(0, (experiment,), {}, "preload")

    def teardown(self) -> None:
        self.pool.shutdown(wait=True)
        tree = self.descendants
        try:
            if self.clients:
                self.clients[0].shutdown()
            for client in self.clients:
                client.close()
        except OSError:
            pass
        if self.server is not None:
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
        for pid in tree[1:]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)

    # ---------------------------------------------------------------- queries
    def ask(self, connection: int, experiments: "tuple[str, ...]", overrides: dict, kind: str) -> dict:
        """One query on one connection; returns its timing record."""
        from repro.service.client import ServiceError

        events: dict = {"tasks": []}

        def on_event(event: dict) -> None:
            now = time.perf_counter()
            if event.get("event") == "accepted":
                events["accepted"] = now
                events["coalesced"] = event.get("coalesced", False)
            elif event.get("event") == "task":
                events["tasks"].append({**event, "received": now})

        key = canonical(experiments, overrides)
        start = time.perf_counter()
        start_wall = time.time()
        try:
            result = self.clients[connection].query(experiments, overrides, on_event=on_event)
            texts = {name: result["artifacts"][name] for name in experiments}
        except (ServiceError, KeyError) as error:
            self.errors.append(f"{key}: {error!r}")
            texts = None
        end = time.perf_counter()
        executed = [t for t in events["tasks"] if t["action"] == "executed"]
        record = {
            "key": key,
            "kind": kind,
            "latency_s": end - start,
            "accept_s": events.get("accepted", end) - start,
            "deliver_s": end - events.get("accepted", end),
            "coalesced": events.get("coalesced", False),
            "task_s": sum(t["duration_s"] for t in executed),
            "busy_s": covered_seconds([(t["received"] - t["duration_s"], t["received"]) for t in executed]),
            "worker_tasks": sum(1 for t in executed if t["where"] == "worker"),
            "queue_wait_s": sum(t["queue_wait_s"] or 0.0 for t in events["tasks"]),
            "start_wall": start_wall,
            "ok": texts is not None,
            "timed": kind != "preload" and self.round_index > 0,
            "traced": kind != "preload" and self.tracer.active,
        }
        if texts is not None:
            first = self.answers.setdefault(key, texts)
            if first != texts:
                self.errors.append(f"{key}: answer differs from an earlier answer")
                record["ok"] = False
        return record

    def warm_query(self, rng, avoid: "tuple[str, ...]" = ()) -> "tuple[tuple[str, ...], dict]":
        # Two warm queries of one step name different experiments: equal
        # artifact keys would coalesce or not depending on arrival timing,
        # and the server's counts must repeat exactly.
        choices = [name for name in WARM_SET if name not in avoid]
        experiment = choices[int(rng.integers(len(choices)))]
        if experiment in SEED_FREE and rng.random() < 0.5:
            return (experiment,), {"seed": int(rng.integers(1, 1_000_000))}
        return (experiment,), {}

    def cold_query(self) -> "tuple[tuple[str, ...], dict]":
        # Mission lengths are unique within a run, so every cold query is cold.
        self.cold_counter += 1
        offset = round((self.seed % 1000) / 1000 + self.cold_counter / 1e6, 9)
        return COLD_EXPERIMENTS, {"scenario": "mission", "mission_years": [1.0 + offset, 5.0 + offset]}

    def run_round(self, index: int) -> list[float]:
        rng = np.random.default_rng([self.seed, index])
        self.round_index = index
        latencies, records_of_round = [], []
        if self.tracer.active:
            before = self.clients[0].stats()["counters"]
        start = time.perf_counter()
        critical_s = 0.0
        for step in rng.permutation(np.array(STEPS)):
            if step == "ww":
                first = self.warm_query(rng)
                pair = [(*first, "warm"), (*self.warm_query(rng, avoid=first[0]), "warm")]
            elif step == "wc":
                pair = [(*self.warm_query(rng), "warm"), (*self.cold_query(), "cold")]
                if rng.random() < 0.5:
                    pair.reverse()
            else:
                cold = self.cold_query()
                pair = [(*cold, "coalesced"), (*cold, "coalesced")]
            futures = [self.pool.submit(self.ask, n, *query) for n, query in enumerate(pair)]
            records = [future.result() for future in futures]
            critical_s += max(record["latency_s"] for record in records)
            for record in records:
                self.attempted += 1
                latencies.append(record["latency_s"])
            records_of_round.extend(records)
            self.canary.tick()
        self.queries.extend(records_of_round)
        if self.tracer.active:
            # Round time not spent waiting on the slower query of a step.
            self.unattributed_s += time.perf_counter() - start - critical_s
            after = self.clients[0].stats()["counters"]
            for name in STATS_COUNTERS:
                self.counts[name] += int(after.get(name, 0) - before.get(name, 0))
            self.export_spans(records_of_round)
        return latencies

    def export_spans(self, records: "list[dict]") -> None:
        """Client-side query/accept/deliver spans into the Chrome trace.

        The two connections run on threads, and the program's span stack is
        per process, so the spans are built from each query's timestamps
        after the round instead of being opened around the calls.
        """
        import repro.observability as observability
        from repro.observability import ObservabilitySnapshot
        from repro.observability.metrics import MetricsRegistry
        from repro.observability.tracer import Span

        spans, pid = [], os.getpid()
        for record in records:
            span_id = self.next_span_id = self.next_span_id + 3
            start, accept = record["start_wall"], record["accept_s"]
            common = dict(category="bench", pid=pid)
            spans.append(Span(name=f"service.query.{record['kind']}", start_s=start, duration_s=record["latency_s"],
                              span_id=span_id, parent_id=None, args={"key": record["key"]}, **common))
            spans.append(Span(name="service.accept", start_s=start, duration_s=accept,
                              span_id=span_id + 1, parent_id=span_id, **common))
            spans.append(Span(name="service.deliver", start_s=start + accept, duration_s=record["deliver_s"],
                              span_id=span_id + 2, parent_id=span_id, **common))
        observability.merge_snapshot(ObservabilitySnapshot(metrics=MetricsRegistry(), spans=spans))

    # ------------------------------------------------------------------ checks
    def check(self) -> "tuple[list[str], int]":
        from repro.experiments.settings import ExperimentSettings
        from repro.pipeline.scheduler import run_pipeline

        failures = list(self.errors)
        failed = sum(1 for record in self.queries if not record["ok"])
        # The pool must be on the path: every cold execution dispatches work.
        serial = [
            r for r in self.queries if r["kind"] != "warm" and not r["coalesced"] and r["ok"] and r["worker_tasks"] == 0
        ]
        if serial:
            failures.append(f"{len(serial)} cold queries ran no task on the worker pool")
            failed += len(serial)
        rng = np.random.default_rng([self.seed, 1 << 20])

        def sample(keys: "list[str]", size: int) -> "list[str]":
            return [keys[i] for i in sorted(rng.choice(len(keys), size=min(size, len(keys)), replace=False))]

        warm_keys = {r["key"] for r in self.queries if r["kind"] == "warm" and r["ok"]}
        plain = sorted(key for key in warm_keys if not json.loads(key)[1])
        variants = sorted(warm_keys - set(plain))
        bad_keys = set()
        # A seed variant's key ignores the seed: it must repeat the plain
        # answer of its experiment byte for byte.
        for key in variants:
            if self.answers[key] != self.answers.get(canonical(json.loads(key)[0], {})):
                failures.append(f"{key}: differs from the answer without the seed")
                bad_keys.add(key)
        cold_keys = sorted({r["key"] for r in self.queries if r["kind"] != "warm" and r["ok"]})
        offline = self.work / "offline"
        for number, key in enumerate(plain + sample(variants, VARIANT_SAMPLE) + sample(cold_keys, COLD_SAMPLE)):
            experiments, overrides = json.loads(key)
            # JSON has no tuples; the service coerces lists the same way.
            overrides = {name: tuple(value) if isinstance(value, list) else value for name, value in overrides.items()}
            settings = ExperimentSettings.fast(seed=0).with_overrides(**overrides)
            output = offline / "out" / str(number)
            run_pipeline(experiments, settings, cache_dir=offline / "cache", output_dir=output)
            offline_texts = {name: (output / f"{name}.json").read_text() for name in experiments}
            if offline_texts != self.answers[key]:
                failures.append(f"{key}: differs from the offline run_pipeline JSON")
                bad_keys.add(key)
        failed += sum(1 for record in self.queries if record["key"] in bad_keys and record["ok"])
        return failures, failed

    # ----------------------------------------------------------------- metrics
    @property
    def descendants(self) -> list[int]:
        """The server and every process below it."""
        if self.server is None:
            return []
        found, frontier = [], [self.server.pid]
        while frontier:
            pid = frontier.pop()
            found.append(pid)
            for children in Path(f"/proc/{pid}/task").glob("*/children"):
                try:
                    frontier.extend(int(child) for child in children.read_text().split())
                except OSError:
                    pass
        return found

    def peak_rss_mb(self) -> float:
        """Summed peak resident set of the server process tree."""
        total_kb = 0
        for pid in self.descendants:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def extra_metrics(self) -> dict:
        timed = [r for r in self.queries if r["timed"]]
        latencies = [r["latency_s"] for r in timed]
        return {
            "query_p50_ms": 1e3 * statistics.median(latencies),
            "query_p90_ms": 1e3 * percentile(latencies, 90),
            "warm_p50_ms": 1e3 * statistics.median(r["latency_s"] for r in timed if r["kind"] == "warm"),
            "cold_p50_ms": 1e3 * statistics.median(r["latency_s"] for r in timed if r["kind"] != "warm"),
        }

    def layer_metrics(self) -> dict:
        """Per-layer figures over the traced rounds, from client timestamps
        and the server's task events and counters."""
        traced = [r for r in self.queries if r["traced"]]
        warm = [r for r in traced if r["kind"] == "warm"]
        # Coalesced joiners replay the initiator's task events; count once.
        executing = [r for r in traced if not r["coalesced"]]
        cold = [r for r in traced if r["kind"] != "warm"]
        cold_executing = [r for r in cold if not r["coalesced"]]
        return {
            "service.accept_ms": 1e3 * statistics.median(r["accept_s"] for r in traced),
            "service.deliver_ms": 1e3 * statistics.median(r["deliver_s"] for r in warm),
            "service.warm_p50_ms": 1e3 * statistics.median(r["latency_s"] for r in warm),
            "service.cold_p50_ms": 1e3 * statistics.median(r["latency_s"] for r in cold),
            "pipeline.task_s": sum(r["task_s"] for r in executing),
            "pipeline.queue_wait_s": sum(r["queue_wait_s"] for r in executing),
            # Cold time after acceptance in which no task body ran: pool
            # dispatch, pickling, result return and the service's own hop.
            "parallel.overhead_ms": 1e3 * statistics.median(
                r["latency_s"] - r["accept_s"] - r["busy_s"] for r in cold_executing
            ),
            "trace.unattributed_s": self.unattributed_s,
            **self.counts,
        }

    def notes(self) -> dict:
        return {
            "op": "one query (closed loop, 2 connections, lock-step)",
            "round": f"{len(STEPS)} steps: " + ", ".join(f"{STEPS.count(kind)} {kind}" for kind in ("ww", "wc", "cc")),
            "cold_query": [list(COLD_EXPERIMENTS), "scenario=mission, fresh mission_years"],
            "workers": WORKERS,
        }
