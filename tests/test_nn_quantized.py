"""Tests of integer (quantized) model execution and MSB fault injection."""

import warnings

import numpy as np
import pytest

from repro import observability
from repro.nn.blocks import FireModule, ResidualBlock
from repro.nn.evaluate import evaluate_with_fault_injection, quantize_and_evaluate
from repro.nn.faults import MsbBitFlipInjector, gather_products
from repro.nn.functional import im2col, unfold
from repro.nn.layers import Conv2D, Dense, Flatten, GlobalAvgPool2D, MaxPool2D, ReLU
from repro.nn.model import Model
from repro.nn.quantized import QuantizationContext, QuantizedModel, record_calibration
from repro.quantization.base import QuantParams
from repro.quantization.registry import METHOD_KEYS, get_method


class TestQuantizationContext:
    def test_finalize_requires_calibration(self):
        context = QuantizationContext(get_method("M2"), activation_bits=8, weight_bits=8)
        with pytest.raises(RuntimeError):
            context.finalize()

    def test_invalid_bit_widths(self):
        with pytest.raises(ValueError):
            QuantizationContext(get_method("M2"), activation_bits=0, weight_bits=8)
        with pytest.raises(ValueError):
            QuantizationContext(get_method("M2"), activation_bits=8, weight_bits=8, bias_bits=0)

    def test_unquantized_layer_lookup_fails_cleanly(self, tiny_model, tiny_calibration, tiny_dataset):
        quantized = QuantizedModel.build(
            tiny_model, get_method("M2"), 8, 8, calibration_data=tiny_calibration
        )
        # A layer that never went through calibration is rejected explicitly.
        from repro.nn.layers import Dense

        foreign = Dense(4, 2, rng=0)
        foreign.name = "foreign"
        with pytest.raises(KeyError):
            quantized.context.linear(foreign, np.zeros((1, 4)), foreign.weight.value, foreign.bias.value)


class TestQuantizedModel:
    def test_build_requires_finalized_context(self, tiny_model):
        context = QuantizationContext(get_method("M2"), 8, 8)
        with pytest.raises(ValueError):
            QuantizedModel(tiny_model, context)

    def test_eight_bit_quantization_preserves_accuracy(self, tiny_model, tiny_calibration, tiny_dataset):
        fp32 = tiny_model.accuracy(tiny_dataset.x_test, tiny_dataset.y_test)
        quantized = QuantizedModel.build(
            tiny_model, get_method("M2"), 8, 8, calibration_data=tiny_calibration
        )
        accuracy = quantized.accuracy(tiny_dataset.x_test, tiny_dataset.y_test)
        assert abs(fp32 - accuracy) <= 0.05

    @pytest.mark.parametrize("key", METHOD_KEYS)
    def test_all_methods_execute(self, key, tiny_model, tiny_calibration, tiny_dataset):
        quantized = QuantizedModel.build(
            tiny_model, get_method(key), 6, 6, calibration_data=tiny_calibration
        )
        predictions = quantized.predict(tiny_dataset.x_test[:16])
        assert predictions.shape == (16,)

    def test_aggressive_quantization_degrades_more(self, tiny_model, tiny_calibration, tiny_dataset):
        fp32 = tiny_model.accuracy(tiny_dataset.x_test, tiny_dataset.y_test)
        mild = quantize_and_evaluate(
            tiny_model, get_method("M2"), 8, 8, tiny_calibration,
            tiny_dataset.x_test, tiny_dataset.y_test, fp32_accuracy=fp32,
        )
        harsh = quantize_and_evaluate(
            tiny_model, get_method("M2"), 3, 3, tiny_calibration,
            tiny_dataset.x_test, tiny_dataset.y_test, fp32_accuracy=fp32,
        )
        assert harsh.quantized_accuracy <= mild.quantized_accuracy + 0.02
        assert harsh.accuracy_loss_percent >= mild.accuracy_loss_percent - 2.0

    def test_quantized_logits_close_to_fp32_at_8_bits(self, tiny_model, tiny_calibration, tiny_dataset):
        quantized = QuantizedModel.build(
            tiny_model, get_method("M2"), 8, 8, calibration_data=tiny_calibration
        )
        x = tiny_dataset.x_test[:8]
        fp32_logits = tiny_model.predict_logits(x)
        quant_logits = quantized.predict_logits(x)
        scale = np.abs(fp32_logits).max() + 1e-9
        assert np.abs(fp32_logits - quant_logits).max() / scale < 0.15

    def test_evaluation_metadata(self, tiny_model, tiny_calibration, tiny_dataset):
        evaluation = quantize_and_evaluate(
            tiny_model, get_method("M4"), 5, 4, tiny_calibration,
            tiny_dataset.x_test, tiny_dataset.y_test,
        )
        assert evaluation.method_key == "M4"
        assert evaluation.activation_bits == 5
        assert evaluation.weight_bits == 4
        assert evaluation.bias_bits == 9
        assert -100.0 <= evaluation.accuracy_loss_percent <= 100.0


class TestFaultInjection:
    def test_zero_probability_injects_nothing(self):
        injector = MsbBitFlipInjector(probability=0.0, rng=0)
        assert injector.accumulation_deltas(np.ones((4, 4)), np.ones((4, 4))) is None

    def test_deltas_are_msb_magnitudes(self):
        injector = MsbBitFlipInjector(probability=1.0, msb_bits=(15,), rng=0)
        q_a = np.full((2, 3), 1.0)
        q_w = np.full((3, 2), 1.0)
        deltas = injector.accumulation_deltas(q_a, q_w)
        # every product is 1 (bit 15 clear) so every delta is +2^15
        assert deltas.sum() == pytest.approx(2 * 3 * 2 * (1 << 15))

    def test_flip_direction_depends_on_bit_value(self):
        injector = MsbBitFlipInjector(probability=1.0, msb_bits=(15,), rng=0)
        q_a = np.full((1, 1), 255.0)
        q_w = np.full((1, 1), 255.0)  # product 65025 has bit 15 set
        deltas = injector.accumulation_deltas(q_a, q_w)
        assert deltas[0, 0] == -(1 << 15)

    def test_expected_fault_count_scales_with_probability(self):
        injector = MsbBitFlipInjector(probability=0.01, rng=0)
        assert injector.expected_faults(10_000) == pytest.approx(100.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MsbBitFlipInjector(probability=1.5)
        with pytest.raises(ValueError):
            MsbBitFlipInjector(probability=0.1, msb_bits=())
        with pytest.raises(ValueError):
            MsbBitFlipInjector(probability=0.1, msb_bits=(16,), product_bits=16)

    def test_shape_mismatch_rejected(self):
        injector = MsbBitFlipInjector(probability=0.5, rng=0)
        with pytest.raises(ValueError):
            injector.accumulation_deltas(np.ones((2, 3)), np.ones((4, 2)))

    def test_accuracy_degrades_with_flip_probability(self, tiny_model, tiny_calibration, tiny_dataset):
        method = get_method("M2")
        clean, _ = evaluate_with_fault_injection(
            tiny_model, method, tiny_calibration, tiny_dataset.x_test, tiny_dataset.y_test,
            flip_probability=0.0, repetitions=1,
        )
        noisy, _ = evaluate_with_fault_injection(
            tiny_model, method, tiny_calibration, tiny_dataset.x_test, tiny_dataset.y_test,
            flip_probability=0.02, repetitions=2,
        )
        assert noisy < clean

    def test_fault_injection_is_removable(self, tiny_model, tiny_calibration, tiny_dataset):
        quantized = QuantizedModel.build(
            tiny_model, get_method("M2"), 8, 8, calibration_data=tiny_calibration
        )
        baseline = quantized.accuracy(tiny_dataset.x_test, tiny_dataset.y_test)
        quantized.set_fault_injector(MsbBitFlipInjector(probability=0.05, rng=1))
        degraded = quantized.accuracy(tiny_dataset.x_test, tiny_dataset.y_test)
        quantized.set_fault_injector(None)
        restored = quantized.accuracy(tiny_dataset.x_test, tiny_dataset.y_test)
        assert degraded <= baseline
        assert restored == pytest.approx(baseline)

    def test_truncation_is_counted_and_warned(self):
        injector = MsbBitFlipInjector(probability=1.0, rng=0, max_events_per_call=3)
        q_a = np.full((2, 3), 7.0)
        q_w = np.full((3, 2), 9.0)
        with observability.collecting() as snap:
            with pytest.warns(RuntimeWarning, match="dropping 9"):
                deltas = injector.accumulation_deltas(q_a, q_w)
        # probability 1 draws 12 events over the 12 products; the cap keeps 3.
        assert np.count_nonzero(deltas) <= 3
        assert np.abs(deltas).sum() > 0
        assert snap.metrics.counter("nn.faults.truncated") == 9
        assert snap.metrics.counter("nn.faults.events") == 3

    def test_no_warning_at_the_cap(self):
        injector = MsbBitFlipInjector(probability=1.0, rng=0, max_events_per_call=12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            injector.accumulation_deltas(np.ones((2, 3)), np.ones((3, 2)))


class TestFastPathKernels:
    """The code unfold, the flat ``take`` gather and the ``bincount`` scatter."""

    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_zero_point_padded_unfold_equals_quantized_im2col(self, kernel, stride, padding):
        rng = np.random.default_rng(kernel * 10 + stride * 3 + padding)
        x = rng.normal(0.3, 1.0, (2, 3, 7, 6))
        params = QuantParams.from_range(-1.5, 2.0, 6)
        # The zero-point pad is the code of real 0.0 (what padding with 0.0
        # and quantizing afterwards gives).
        zero_code = float(params.quantize(0.0))
        codes = params.quantize(x).astype(np.float64)
        if padding:
            codes = np.pad(
                codes, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                constant_values=zero_code,
            )
        columns, out_h, out_w = unfold(codes, kernel, kernel, stride)
        reference, ref_h, ref_w = im2col(x, kernel, kernel, stride, padding)
        assert (out_h, out_w) == (ref_h, ref_w)
        np.testing.assert_array_equal(columns, params.quantize(reference).astype(np.float64))

    @staticmethod
    def _reference_deltas(injector_seed, probability, q_a, q_w):
        """The injector's draws replayed with 2-D fancy indexing and ``np.add.at``."""
        generator = np.random.default_rng(injector_seed)
        rows, inner = q_a.shape
        cols = q_w.shape[1]
        total = rows * inner * cols
        events = int(generator.binomial(total, probability))
        flat = generator.integers(0, total, size=events)
        i = flat // (inner * cols)
        k = (flat % (inner * cols)) // cols
        j = flat % cols
        products = q_a[i, k].astype(np.int64) * q_w[k, j].astype(np.int64)
        bits = generator.choice(np.array((14, 15)), size=events)
        values = np.where((products >> bits) & 1 == 1, -(1 << bits), 1 << bits)
        deltas = np.zeros((rows, cols))
        np.add.at(deltas, (i, j), values.astype(np.float64))
        return deltas, i, k, j, products

    def test_bincount_scatter_equals_add_at_with_repeated_hits(self):
        rng = np.random.default_rng(5)
        q_a = rng.integers(0, 256, (3, 40)).astype(np.float64)
        q_w = rng.integers(0, 256, (40, 2)).astype(np.float64)
        expected, i, _, j, _ = self._reference_deltas(9, 0.5, q_a, q_w)
        # Only 6 output cells: the 240 products' hits must collide.
        assert np.unique(i * 2 + j).size < i.size
        deltas = MsbBitFlipInjector(probability=0.5, rng=9).accumulation_deltas(q_a, q_w)
        np.testing.assert_array_equal(deltas, expected)

    def test_take_gather_equals_fancy_indexing(self):
        rng = np.random.default_rng(6)
        q_a = rng.integers(0, 256, (5, 7)).astype(np.float64)
        q_w = rng.integers(0, 128, (7, 4)).astype(np.float64)
        _, i, k, j, expected = self._reference_deltas(3, 0.3, q_a, q_w)
        flat = (i * 7 + k) * 4 + j
        products, cells = gather_products(q_a, q_w, flat)
        np.testing.assert_array_equal(products, expected)
        np.testing.assert_array_equal(cells, i * 4 + j)


class _QuantizeAfterUnfold:
    """Reference integer path: quantize the im2col columns, then multiply.

    Reporting ``is_calibrating`` makes every layer hand over its FP32
    operands (im2col columns for a convolution), which this context
    quantizes itself with the finalized context's parameters.
    """

    is_calibrating = True

    def __init__(self, context, injector):
        self.layer_params = context.layer_params
        self.injector = injector

    def linear(self, layer, inputs, weights, bias):
        params = self.layer_params[layer.name]
        q_a = params.activation.quantize(inputs).astype(np.float64)
        q_w = params.quantized_weights.astype(np.float64).T
        raw = q_a @ q_w
        if self.injector is not None:
            deltas = self.injector.accumulation_deltas(q_a, q_w)
            if deltas is not None:
                raw = raw + deltas
        outputs = q_w.shape[1]
        a_zero = float(np.asarray(params.activation.zero_point).reshape(-1)[0])
        a_scale = float(np.asarray(params.activation.scale).reshape(-1)[0])
        w_zero = np.broadcast_to(params.weight_decode.zero_point, (outputs,))
        w_scale = np.broadcast_to(params.weight_decode.scale, (outputs,))
        accumulator = (
            raw
            - q_a.sum(axis=1, keepdims=True) * w_zero[None, :]
            - a_zero * q_w.sum(axis=0)[None, :]
            + q_a.shape[1] * a_zero * w_zero[None, :]
        )
        accumulator = accumulator + params.quantized_bias[None, :]
        return a_scale * w_scale[None, :] * accumulator


def _oracle_models():
    plain = Model(
        [
            Conv2D(3, 6, kernel_size=3, rng=1), ReLU(),
            Conv2D(6, 8, kernel_size=3, stride=2, rng=2), ReLU(),
            GlobalAvgPool2D(), Dense(8, 4, rng=3),
        ],
        name="plain",
    )
    residual = Model(
        [
            Conv2D(3, 4, kernel_size=3, rng=4), ReLU(),
            ResidualBlock(4, 8, stride=2, rng=5),
            GlobalAvgPool2D(), Dense(8, 4, rng=6),
        ],
        name="residual",
    )
    fire = Model(
        [
            Conv2D(3, 8, kernel_size=3, rng=7), ReLU(), MaxPool2D(2),
            FireModule(8, 3, 4, rng=8),
            GlobalAvgPool2D(), Dense(8, 4, rng=9),
        ],
        name="fire",
    )
    dense_head = Model(
        [Conv2D(3, 4, kernel_size=3, rng=10), ReLU(), MaxPool2D(2), Flatten(), Dense(64, 4, rng=11)],
        name="dense_head",
    )
    return {"plain": plain, "residual": residual, "fire": fire, "dense_head": dense_head}


class TestFastPathOracle:
    """The fast integer path is bit-identical to quantize-after-unfold."""

    @pytest.fixture(scope="class")
    def recorded(self):
        images = np.random.default_rng(0).normal(0.2, 1.0, (20, 3, 8, 8))
        models = _oracle_models()
        recordings = {name: record_calibration(model, images[:12]) for name, model in models.items()}
        return models, recordings, images[12:]

    @pytest.mark.parametrize("name", ["plain", "residual", "fire", "dense_head"])
    @pytest.mark.parametrize("key", METHOD_KEYS)
    @pytest.mark.parametrize("bits", [(8, 8), (6, 7), (4, 5)])
    @pytest.mark.parametrize("probability", [0.0, 0.01])
    def test_logits_array_equal(self, recorded, name, key, bits, probability):
        models, recordings, x = recorded
        model = models[name]
        quantized = QuantizedModel.build(
            model, get_method(key), bits[0], bits[1], calibration_data=None,
            calibration_recording=recordings[name],
        )
        injector = MsbBitFlipInjector(probability, rng=17) if probability else None
        quantized.set_fault_injector(injector)
        fast = quantized.forward(x)
        reference_injector = MsbBitFlipInjector(probability, rng=17) if probability else None
        reference = model.forward_quantized(x, _QuantizeAfterUnfold(quantized.context, reference_injector))
        np.testing.assert_array_equal(fast, reference)
        if get_method(key).wants_bias_correction:
            # Bias correction (M4) leaves non-integer weight zero-points.
            zero_points = [
                np.asarray(p.weight_decode.zero_point) for p in quantized.context.layer_params.values()
            ]
            assert any(np.any(z != np.round(z)) for z in zero_points)
