"""The offline workloads: Algorithm 1 on the zoo, fault injection, device flow.

Each workload drives ``repro`` only through public functions of its layers.
``setup()`` builds what a user of the flow builds once (imports, dataset,
zoo loaded from the benchmark's prepared cache, netlists); ``run_round(i)``
performs one fixed unit of work and returns the seconds of each op in it;
``check()`` verifies the outputs outside every timed region.

Every round rebuilds its per-round objects (``DeviceToSystemPipeline``,
quantized models, library sets), so each round repeats the same STA and
calibration work.  Process-wide memos stay warm after the warm-up round:
``repro.circuits.backends.lane.levelized_graph`` (keyed by the netlists
built once in ``setup``) and the cell-library delay memo.
"""

from __future__ import annotations

import resource

import numpy as np

from harness import load_zoo


def timing_key(timing) -> tuple:
    """The comparable part of a ``CompressionTiming`` (not its scenario object)."""
    return (timing.choice, timing.delay_ps, timing.target_period_ps)


class OfflineWorkload:
    """Common bookkeeping: op count, notes and the default hooks."""

    #: Seconds one timed round is sized to take on the reference host; the
    #: timed round count is ``round(seconds / nominal_round_s)``, a pure
    #: function of ``--seconds`` so both commits do identical work.
    nominal_round_s = 2.0

    def __init__(self, seed: int, tracer, canary) -> None:
        self.seed = seed
        self.tracer = tracer
        #: ``canary.Canary``: ops are timed on its clock, and ``tick`` is
        #: called between steps of every round.
        self.canary = canary
        self.attempted = 0

    def teardown(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def extra_metrics(self) -> dict:
        return {}

    def layer_metrics(self) -> dict:
        return {}

    def test_subset(self, dataset, size: int):
        """A seeded subset of the test split: the inputs this seed selects."""
        rng = np.random.default_rng(self.seed)
        index = np.sort(rng.choice(dataset.x_test.shape[0], size=size, replace=False))
        return dataset.x_test[index], dataset.y_test[index]


class Alg1Zoo(OfflineWorkload):
    """Algorithm 1 (plan + build + accuracy for M1..M5) on three networks.

    Round ``i`` runs every network at aged level ``levels[i % 5]``; one op
    is one (network, level, method) evaluation: ``QuantizedModel.build``
    followed by ``QuantizedModel.accuracy``.
    """

    networks = ("resnet50", "squeezenet", "vgg16")
    images = 40
    nominal_round_s = 2.4

    def setup(self) -> None:
        from repro.aging.cell_library import AgingAwareLibrarySet
        from repro.circuits.mac import build_mac
        from repro.quantization.registry import available_methods

        zoo = load_zoo(self.networks)
        self.settings = zoo["settings"]
        self.models = zoo["models"]
        self.calibration = zoo["dataset"].calibration_split(self.settings.calibration_samples, seed=0)
        self.x, self.y = self.test_subset(zoo["dataset"], self.images)
        self.methods = available_methods()
        self.mac = build_mac()
        self.library_set = AgingAwareLibrarySet.generate(self.settings.aging_levels_mv)
        self.levels = self.settings.aged_levels_mv
        self.results: dict = {}
        self.mismatches: list[str] = []

    def new_pipeline(self):
        from repro.aging.bti import AgingTimeline
        from repro.core.pipeline import DeviceToSystemPipeline

        return DeviceToSystemPipeline(
            mac=self.mac,
            library_set=self.library_set,
            timeline=AgingTimeline(levels_mv=self.settings.aging_levels_mv),
            max_alpha=self.settings.max_alpha,
            max_beta=self.settings.max_beta,
        )

    def run_round(self, index: int) -> list[float]:
        from repro.nn.quantized import QuantizedModel

        level = self.levels[index % len(self.levels)]
        plan = self.new_pipeline().plan_level(level)
        self.canary.tick()
        choice = plan.compression
        bits = dict(
            activation_bits=choice.activation_bits(8),
            weight_bits=choice.weight_bits(8),
            bias_bits=choice.bias_bits(8),
        )
        op_seconds = []
        for network in self.networks:
            model = self.models[network]
            fp32 = model.accuracy(self.x, self.y)
            self.canary.tick()
            accuracies = {}
            for method in self.methods:
                start = self.canary.now()
                quantized = QuantizedModel.build(model, method, calibration_data=self.calibration, **bits)
                self.canary.tick()
                accuracies[method.key] = quantized.accuracy(self.x, self.y)
                op_seconds.append(self.canary.now() - start)
                self.canary.tick()
                self.attempted += 1
            record = {"fp32": fp32, "accuracies": accuracies, "timing": timing_key(plan.timing)}
            previous = self.results.setdefault((network, level), record)
            if previous != record:
                self.mismatches.append(f"{network}@{level} mV differs between rounds")
        return op_seconds

    def check(self) -> "tuple[list[str], int]":
        failures = list(self.mismatches)
        failed = len(self.methods) * len(self.mismatches)
        fresh_period = self.new_pipeline().timing_analyzer.fresh_period_ps()
        reference_network = "squeezenet"
        reference = self.new_pipeline().evaluate_network(
            self.models[reference_network], self.calibration, self.x, self.y, levels_mv=self.levels
        )
        by_level = {result.delta_vth_mv: result for result in reference}
        for (network, level), record in sorted(self.results.items()):
            problems = []
            choice, delay_ps, target_ps = record["timing"]
            if not (delay_ps <= target_ps == fresh_period):
                problems.append(f"compression {choice.label()} misses the fresh clock")
            losses = {key: record["fp32"] - value for key, value in record["accuracies"].items()}
            selected = min(losses, key=losses.get)
            if network == reference_network:
                result = by_level[level]
                measured = {key: evaluation.quantized_accuracy for key, evaluation in result.per_method.items()}
                if measured != record["accuracies"] or timing_key(result.timing) != record["timing"]:
                    problems.append("differs from DeviceToSystemPipeline.evaluate_network")
                best = min(result.per_method, key=lambda key: result.per_method[key].accuracy_loss_percent)
                if result.selected_method != best or best != selected:
                    problems.append(f"selected {result.selected_method}, minimum-loss is {best}/{selected}")
            if problems:
                failures.append(f"{network}@{level} mV: " + "; ".join(problems))
                failed += len(self.methods)
        return failures, min(failed, self.attempted)

    def notes(self) -> dict:
        return {
            "op": "one (network, level, method) evaluation: QuantizedModel.build + accuracy",
            "networks": list(self.networks),
            "images": self.images,
            "levels_mv": list(self.levels),
        }


class FaultSweep(OfflineWorkload):
    """Fig. 1b: M2 at 8/8 bits under MSB flips, one repetition per round.

    Each round records one shared ``CalibrationRecording`` per network,
    builds the 8-bit model from it and evaluates every flip probability;
    one op is one fault-injected accuracy evaluation.
    """

    networks = ("resnet20", "resnet32", "resnet44")
    images = 32
    nominal_round_s = 1.7

    def setup(self) -> None:
        from repro.quantization.registry import get_method

        zoo = load_zoo(self.networks)
        self.settings = zoo["settings"]
        self.models = zoo["models"]
        self.calibration = zoo["dataset"].calibration_split(self.settings.calibration_samples, seed=0)
        self.x, self.y = self.test_subset(zoo["dataset"], self.images)
        self.method = get_method("M2")
        self.probabilities = self.settings.flip_probabilities
        self.accuracies: dict = {}

    def build(self, network: str, recording=None):
        from repro.nn.quantized import QuantizedModel

        return QuantizedModel.build(
            self.models[network],
            self.method,
            activation_bits=8,
            weight_bits=8,
            calibration_data=self.calibration,
            calibration_recording=recording,
        )

    def injector(self, probability: float, *key: int):
        from repro.nn.faults import MsbBitFlipInjector

        return MsbBitFlipInjector(probability=probability, rng=np.random.default_rng([self.seed, *key]))

    def run_round(self, index: int) -> list[float]:
        from repro.nn import quantized as quantized_module

        op_seconds = []
        for n, network in enumerate(self.networks):
            recording = quantized_module.record_calibration(self.models[network], self.calibration)
            self.canary.tick()
            model = self.build(network, recording)
            self.canary.tick()
            for k, probability in enumerate(self.probabilities):
                model.set_fault_injector(self.injector(probability, index, n, k))
                start = self.canary.now()
                self.accuracies[(index, network, probability)] = model.accuracy(self.x, self.y)
                op_seconds.append(self.canary.now() - start)
                self.canary.tick()
                self.attempted += 1
                model.set_fault_injector(None)
        return op_seconds

    def check(self) -> "tuple[list[str], int]":
        failures, failed = [], 0
        for n, network in enumerate(self.networks):
            model = self.build(network)
            clean_logits = model.predict_logits(self.x)
            clean = model.accuracy(self.x, self.y)
            model.set_fault_injector(self.injector(0.0, 0, n, 0))
            if not (np.array_equal(model.predict_logits(self.x), clean_logits) and model.accuracy(self.x, self.y) == clean):
                failures.append(f"{network}: p = 0 differs from the injector-free model")
                failed += len(self.probabilities)
            # One faulted op again, same injector seed: it must repeat exactly.
            k = len(self.probabilities) - 1
            model.set_fault_injector(self.injector(self.probabilities[k], 1, n, k))
            if model.accuracy(self.x, self.y) != self.accuracies[(1, network, self.probabilities[k])]:
                failures.append(f"{network}: a seeded faulted evaluation does not repeat")
                failed += 1
        bad = [key for key, value in self.accuracies.items() if not 0.0 <= value <= 1.0]
        failures.extend(f"{key}: accuracy out of range" for key in bad)
        return failures, min(failed + len(bad), self.attempted)

    def notes(self) -> dict:
        return {
            "op": "one fault-injected accuracy evaluation (M2, 8/8 bits)",
            "networks": list(self.networks),
            "images": self.images,
            "flip_probabilities": list(self.probabilities),
        }


class DeviceFlow(OfflineWorkload):
    """The gate-level flow, level by level; ``nn``/``quantization`` stay idle.

    A round generates the aging-aware library set, builds a fresh
    ``DeviceToSystemPipeline`` and takes its guardband, then carries every
    aging level (one op each) through: timing-error sweeps of the 8-bit
    multiplier (transition and settle on the lane engine, event on the time
    wheel), ``DeviceToSystemPipeline.plan``, ``energy_study`` with event
    activity, and ``array_scenario_map`` on a small array.  Every round does
    the same work: aged levels cost more (more events), so rounds that took
    different levels made ``round_p50_s`` jump between level groups.
    """

    levels = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)
    lane_samples = 4096
    event_samples = 64
    energy_transitions = 4
    array_side = 8
    array_transitions = 48
    nominal_round_s = 3.0

    def setup(self) -> None:
        from repro.circuits.mac import build_mac, build_multiplier
        from repro.experiments.settings import ExperimentSettings

        self.max_compression = ExperimentSettings.fast().max_alpha
        self.mac = build_mac()
        self.multiplier = build_multiplier(8, "array")
        self.new_library_set()
        self.records: list = []

    def new_library_set(self):
        from repro.aging.cell_library import AgingAwareLibrarySet

        with self.tracer.span("aging.library"):
            library_set = AgingAwareLibrarySet.generate(self.levels)
            library_set.library(self.levels[1])
        return library_set

    def sweep(self, library_set, level, rng, arrival_model, samples, batch_size, backend="auto"):
        from repro.timing import error_model

        return error_model.sweep_timing_errors(
            self.multiplier,
            library_set,
            levels_mv=(level,),
            num_samples=samples,
            rng=rng,
            arrival_model=arrival_model,
            backend=backend,
            batch_size=batch_size,
        )

    def run_round(self, index: int) -> list[float]:
        from repro.aging.bti import AgingTimeline
        from repro.core.pipeline import DeviceToSystemPipeline
        from repro.npu import scenario_map
        from repro.npu.systolic import SystolicArray

        library_set = self.new_library_set()
        pipeline = DeviceToSystemPipeline(
            mac=self.mac,
            library_set=library_set,
            timeline=AgingTimeline(levels_mv=self.levels),
            max_alpha=self.max_compression,
            max_beta=self.max_compression,
        )
        self.canary.tick()
        pipeline.guardband()
        self.canary.tick()
        op_seconds = []
        for k, level in enumerate(self.levels):
            rng = self.seed * 1000 + index * 10 + k
            start = self.canary.now()
            errors = []
            for arrival_model, samples in (
                ("transition", self.lane_samples),
                ("settle", self.lane_samples),
                ("event", self.event_samples),
            ):
                errors.append(self.sweep(library_set, level, rng, arrival_model, samples, samples)[0])
                self.canary.tick()
            plan = pipeline.plan((level,))[0]
            self.canary.tick()
            energy = pipeline.energy_study(levels_mv=(level,), num_transitions=self.energy_transitions, rng=rng)[0]
            self.canary.tick()
            array = scenario_map.array_scenario_map(
                SystolicArray(self.array_side, self.array_side),
                nominal_mv=level,
                seed=self.seed,
                mac=self.mac,
                library=library_set.fresh,
                num_transitions=self.array_transitions,
                rng=rng,
            )
            op_seconds.append(self.canary.now() - start)
            self.canary.tick()
            self.attempted += 1
            self.records.append((index, level, errors, plan, energy, array))
        return op_seconds

    def check(self) -> "tuple[list[str], int]":
        failures, failed = [], 0
        # The engines "auto" picks at the rounds' batch widths, against the
        # scalar oracle on a sample subset.
        library_set = self.new_library_set()
        level = self.levels[1 + self.seed % (len(self.levels) - 1)]
        for arrival_model, samples, width in (
            ("transition", 96, self.lane_samples),
            ("settle", 96, self.lane_samples),
            ("event", 160, self.event_samples),
        ):
            fast = self.sweep(library_set, level, self.seed, arrival_model, samples, width)
            oracle = self.sweep(library_set, level, self.seed, arrival_model, samples, width, backend="scalar")
            if fast != oracle:
                failures.append(f"{arrival_model} @ {level} mV: auto backend differs from the scalar oracle")
                failed = self.attempted
        for index, level, errors, plan, energy, array in self.records:
            problems = []
            if energy.baseline.energy_per_operation_fj <= 0 or energy.compressed.energy_per_operation_fj <= 0:
                problems.append("non-positive MAC energy")
            if not (array.energy_grid_fj() > 0).all():
                problems.append("non-positive PE energy")
            if not plan.timing.meets_timing:
                problems.append("planned compression misses the fresh clock")
            if any(not 0.0 <= stat.error_rate <= 1.0 for stat in errors):
                problems.append("error rate out of range")
            if problems:
                failures.append(f"round {index} @ {level} mV: " + "; ".join(problems))
                failed += 1
        return failures, min(failed, self.attempted)

    def notes(self) -> dict:
        return {
            "op": "one aging level carried through sweep, plan, energy and array map",
            "levels_mv": list(self.levels),
            "lane_samples": self.lane_samples,
            "event_samples": self.event_samples,
            "energy_transitions": self.energy_transitions,
            "array": f"{self.array_side}x{self.array_side}",
        }


WORKLOADS = {"alg1_zoo": Alg1Zoo, "fault_sweep": FaultSweep, "device_flow": DeviceFlow}
