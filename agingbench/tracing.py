"""Per-layer tracing for the benchmark's traced run.

The benchmark wraps the public entry points of each ``repro`` layer in
spans that live in this file, so the program under test is never edited.
Every span is recorded twice:

* through :func:`repro.observability.span` (category ``"bench"``), so the
  Chrome trace written by :func:`repro.observability.export.write_chrome_trace`
  shows the layers alongside the program's own sweep/shard spans;
* in :class:`LayerTracer`'s own stack, which computes each layer's *self*
  time (its duration minus the time its bench child spans cover).  The
  tracer keeps its own parent links because the program merges worker
  snapshots whose span ids restart at 1, so observability parent ids are not
  unique within a process.

Wrappers are installed only in the traced run; untraced rounds of that run
pass straight through (``LayerTracer.active`` is false and observability is
disabled), and runs with ``--trace 0`` never install them.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable

import repro.observability as observability


class LayerTracer:
    """Self time, inclusive time and call counts over nested bench spans."""

    def __init__(self) -> None:
        self.active = False
        self.self_s: "defaultdict[str, float]" = defaultdict(float)
        self.total_s: "defaultdict[str, float]" = defaultdict(float)
        self.calls: "Counter[str]" = Counter()
        self.counts: "Counter[str]" = Counter()
        self._children: list[float] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        self.counts.clear()

    @contextmanager
    def span(self, name: str, **args: Any):
        if not self.active:
            yield
            return
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            with observability.span(name, "bench", **args):
                yield
        finally:
            duration = time.perf_counter() - start
            child = self._children.pop()
            self.self_s[name] += duration - child
            self.total_s[name] += duration
            self.calls[name] += 1
            if self._children:
                self._children[-1] += duration

    def count(self, name: str, amount: int) -> None:
        if self.active:
            self.counts[name] += amount


def _wrap(owner: Any, attribute: str, name_of: Callable[..., "str | None"], tracer: LayerTracer):
    """Replace ``owner.attribute`` by a spanning wrapper; returns an undo."""
    original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    is_classmethod = isinstance(original, classmethod)
    function = original.__func__ if is_classmethod else original

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        name = name_of(*args, **kwargs) if tracer.active else None
        if name is None:
            return function(*args, **kwargs)
        with tracer.span(name):
            return function(*args, **kwargs)

    setattr(owner, attribute, classmethod(wrapper) if is_classmethod else wrapper)
    return lambda: setattr(owner, attribute, original)


@contextmanager
def installed(tracer: LayerTracer):
    """Wrap every layer entry point the per-layer metrics name."""
    from repro.core.pipeline import DeviceToSystemPipeline
    from repro.core.timing_analysis import CompressionTimingAnalyzer
    from repro.nn import quantized, zoo
    from repro.nn.faults import MsbBitFlipInjector
    from repro.nn.layers import Conv2D
    from repro.nn.model import Model
    from repro.npu import scenario_map
    from repro.timing import error_model

    def qinfer(self, x, *args, **kwargs):
        tracer.count("nn.qinfer_images", int(x.shape[0]))
        return "nn.fault_infer" if self.fault_injector is not None else "nn.qinfer"

    def build(cls, model, method, *args, **kwargs):
        tracer.count("quantization.builds", 1)
        return f"quantization.build.{method.key}"

    def run_phase(name):
        # Calibration-phase calls are part of the enclosing build or
        # record_calibration span; only integer-path calls get their own.
        return lambda self, layer, *args, **kwargs: None if self.is_calibrating else name

    def conv(self, x, context):
        return None if context.is_calibrating else "nn.conv_unfold"

    def sweep(*args, arrival_model="event", **kwargs):
        return f"timing.sweep.{arrival_model}"

    def fixed(name):
        return lambda *args, **kwargs: name

    wraps = [
        (quantized.QuantizedModel, "predict_logits", qinfer),
        (quantized.QuantizedModel, "build", build),
        (quantized.QuantizationContext, "linear", run_phase("nn.qlinear")),
        (Conv2D, "forward_quantized", conv),
        (Model, "accuracy", fixed("nn.fp32")),
        (MsbBitFlipInjector, "accumulation_deltas", fixed("nn.fault_deltas")),
        (zoo, "get_pretrained", fixed("nn.zoo_load")),
        (quantized, "record_calibration", fixed("nn.calibration")),
        (CompressionTimingAnalyzer, "select_timing", fixed("core.select_timing")),
        (DeviceToSystemPipeline, "plan_level", fixed("core.plan")),
        (DeviceToSystemPipeline, "guardband", fixed("core.guardband")),
        (DeviceToSystemPipeline, "energy_study", fixed("power.energy_study")),
        (error_model, "sweep_timing_errors", sweep),
        (scenario_map, "array_scenario_map", fixed("npu.array_map")),
    ]
    undo = [_wrap(owner, attribute, name_of, tracer) for owner, attribute, name_of in wraps]
    try:
        yield
    finally:
        for restore in reversed(undo):
            restore()


#: Program counters (recorded by ``repro`` itself when observability is on)
#: that the per-layer table reports.
PROGRAM_COUNTERS = ("sta.levelized_passes", "sim.lanes", "sim.events.popped", "sweep.samples")


def layer_metrics(tracer: LayerTracer, counters: "dict[str, float]") -> dict[str, float]:
    """Per-layer metric values from one traced run's accounting."""
    s = tracer.self_s
    builds = {key: value for key, value in s.items() if key.startswith("quantization.build.")}
    sweep_s = {model: s.get(f"timing.sweep.{model}", 0.0) for model in ("transition", "settle", "event")}
    lanes = int(counters.get("sim.lanes", 0))
    total_sweep = sum(sweep_s.values())
    metrics: dict[str, float] = {
        "nn.qinfer_s": s.get("nn.qinfer", 0.0),
        "nn.qlinear_s": s.get("nn.qlinear", 0.0),
        "nn.conv_unfold_s": s.get("nn.conv_unfold", 0.0),
        "nn.fp32_s": s.get("nn.fp32", 0.0),
        "nn.fault_infer_s": s.get("nn.fault_infer", 0.0),
        "nn.fault_deltas_s": s.get("nn.fault_deltas", 0.0),
        "nn.calibration_s": s.get("nn.calibration", 0.0),
        "nn.qinfer_images": tracer.counts["nn.qinfer_images"],
        "quantization.build_s": sum(builds.values()),
        "quantization.builds": tracer.counts["quantization.builds"],
        "core.select_timing_s": s.get("core.select_timing", 0.0),
        "core.plan_s": s.get("core.plan", 0.0),
        "core.guardband_s": s.get("core.guardband", 0.0),
        "timing.lanes_per_s": lanes / total_sweep if total_sweep > 0 else 0.0,
        "power.energy_study_s": s.get("power.energy_study", 0.0),
        "npu.array_map_s": s.get("npu.array_map", 0.0),
        "aging.library_s": s.get("aging.library", 0.0),
    }
    for key in ("M1", "M2", "M3", "M4", "M5"):
        metrics[f"quantization.build_s.{key}"] = s.get(f"quantization.build.{key}", 0.0)
    for model, seconds in sweep_s.items():
        metrics[f"timing.sweep_s.{model}"] = seconds
    for name in PROGRAM_COUNTERS:
        metrics[name] = int(counters.get(name, 0))
    return metrics
