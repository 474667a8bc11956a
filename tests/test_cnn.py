"""Convolutional network tests: shapes, gradients, optimizer, checkpoints."""
import copy

import numpy as np
import pytest

from gafecg import cnn
from gafecg.cnn import (
    CHECKPOINT_MAGIC,
    LOSS_EPS,
    AdamState,
    CnnModel,
    Conv,
    Dense,
    Pool,
    adam_step,
    backward,
    classifier_layers,
    forward,
    layer_output_shapes,
    load_checkpoint,
    loss,
    model_init,
    num_params,
    predict,
    reduced_layers,
    save_checkpoint,
)
from gafecg.errors import CheckpointError, NumericalError, ShapeError

TABLE_SHAPES = [
    (128, 128, 16),
    (64, 64, 16),
    (63, 63, 32),
    (31, 31, 32),
    (30, 30, 64),
    (15, 15, 64),
    (14, 14, 128),
    (7, 7, 128),
    (100,),
    (2,),
]


class TestArchitecture:
    def test_layer_output_shapes(self):
        assert layer_output_shapes(classifier_layers(), (128, 128)) == TABLE_SHAPES

    def test_flatten_feeds_6272_units(self):
        model = model_init(seed=0)
        dense1_weight = model.params[8]
        assert dense1_weight.shape == (7 * 7 * 128, 100)
        assert dense1_weight.shape[0] == 6272

    def test_parameter_count(self):
        assert num_params(model_init(seed=0)) == 670894

    def test_reduced_net_parameter_count(self):
        model = model_init(seed=0, layers=reduced_layers(), input_shape=(16, 16))
        assert num_params(model) == 175

    def test_impossible_stack_rejected(self):
        with pytest.raises(ShapeError):
            layer_output_shapes((Conv(4, 3, "valid"),), (2, 2))
        with pytest.raises(ShapeError):
            layer_output_shapes((Dense(4, "relu"), Conv(4, 3, "same")), (8, 8))

    @pytest.mark.parametrize(
        "pool", [Pool(2, 1), Pool(3, 2), Pool(0, 0), Pool(17, 17)]
    )
    def test_pool_needs_non_overlapping_windows(self, pool):
        layers = (Conv(2, 3, "same"), pool, Dense(2, "sigmoid"))
        with pytest.raises(ShapeError, match="stride == size"):
            model_init(seed=0, layers=layers, input_shape=(16, 16))


class TestInit:
    def test_seed_reproducibility(self):
        a = model_init(seed=7)
        b = model_init(seed=7)
        for pa, pb in zip(a.params, b.params):
            np.testing.assert_array_equal(pa, pb)

    def test_seeds_differ(self):
        a = model_init(seed=7)
        b = model_init(seed=8)
        assert any(
            not np.array_equal(pa, pb) for pa, pb in zip(a.params, b.params)
        )

    def test_biases_zero_weights_bounded(self):
        model = model_init(seed=3)
        conv1 = model.params[0]
        limit = np.sqrt(6.0 / (3 * 3 * 1))
        assert np.all(np.abs(conv1) < limit)
        for bias_index in (1, 3, 5, 7, 9, 11):
            np.testing.assert_array_equal(
                model.params[bias_index], np.zeros_like(model.params[bias_index])
            )

    def test_head_uses_fan_in_plus_fan_out_bound(self):
        model = model_init(seed=3)
        head = model.params[10]
        limit = np.sqrt(6.0 / (100 + 2))
        assert np.all(np.abs(head) < limit)
        assert np.max(np.abs(head)) > 0.5 * limit

    def test_default_dtype_float32(self):
        model = model_init(seed=0)
        assert model.dtype == np.float32
        assert all(p.dtype == np.float32 for p in model.params)


def _small_model(seed=0, dtype=np.float64):
    return model_init(
        seed=seed, layers=reduced_layers(), input_shape=(16, 16), dtype=dtype
    )


class TestForward:
    def test_probability_shape_and_range(self, rng):
        model = _small_model()
        images = rng.integers(0, 256, size=(5, 16, 16), dtype=np.uint8)
        probs, _ = forward(model, images)
        assert probs.shape == (5, 2)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_single_image_equals_batch_of_one(self, rng):
        model = _small_model()
        image = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        single, _ = forward(model, image)
        batch, _ = forward(model, image[None])
        np.testing.assert_array_equal(single, batch)

    def test_uint8_scaled_like_unit_floats(self, rng):
        model = _small_model()
        image = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        as_float = image.astype(np.float64) / 255.0
        a, _ = forward(model, image)
        b, _ = forward(model, as_float)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_wrong_shape_rejected(self, rng):
        model = _small_model()
        with pytest.raises(ShapeError, match="16"):
            forward(model, np.zeros((17, 17)))

    def test_deterministic(self, rng):
        model = _small_model(seed=5)
        images = rng.integers(0, 256, size=(3, 16, 16), dtype=np.uint8)
        a, _ = forward(model, images)
        b, _ = forward(model, images.copy())
        np.testing.assert_array_equal(a, b)

    def test_prediction_tie_takes_first_class(self):
        model = _small_model()
        for p in model.params:
            p[...] = 0.0
        pred = predict(model, np.zeros((16, 16), dtype=np.uint8))
        np.testing.assert_allclose(pred.probabilities, [0.5, 0.5])
        assert pred.label == 0


class TestPoolingTies:
    def _pool_cache(self, window):
        model = model_init(
            seed=0, layers=(Pool(), Dense(1, "sigmoid")), input_shape=(2, 2)
        )
        _, caches = forward(model, np.asarray(window, dtype=np.float64), True)
        kind, _, arg = caches[0][:3]
        assert kind == "pool"
        return int(arg[0, 0, 0, 0])

    def test_all_equal_routes_to_first(self):
        assert self._pool_cache([[1.0, 1.0], [1.0, 1.0]]) == 0

    def test_tie_between_later_cells_takes_earliest(self):
        # Window flattens row-major: [[1,5],[5,5]] -> [1, 5, 5, 5].
        assert self._pool_cache([[1.0, 5.0], [5.0, 5.0]]) == 1

    def test_unique_maximum_found(self):
        assert self._pool_cache([[1.0, 2.0], [9.0, 3.0]]) == 2


def _reference_forward(model, images):
    """Forward pass with np.pad, a window-gather im2col, mask ReLU before
    argmax pooling, as before the strided-slice and fused kernels; returns
    probabilities and backward caches."""
    x = np.asarray(images)
    x = x[None] if x.ndim == 2 else x
    if x.dtype == np.uint8:
        x = x.astype(model.dtype) / np.asarray(255.0, dtype=model.dtype)
    a, caches, p = x.astype(model.dtype)[..., None], [], 0
    zero = np.asarray(0.0, dtype=model.dtype)
    for layer in model.layers:
        if isinstance(layer, Pool):
            s, (bsz, h, w, c) = layer.size, a.shape
            ho, wo = h // s, w // s
            windows = (
                a[:, : ho * s, : wo * s].reshape(bsz, ho, s, wo, s, c)
                .transpose(0, 1, 3, 2, 4, 5).reshape(bsz, ho, wo, s * s, c)
            )
            arg = np.argmax(windows, axis=3)[:, :, :, None]
            caches.append((layer, arg, a.shape))
            a = np.take_along_axis(windows, arg, axis=3)[:, :, :, 0]
            continue
        weight, bias = model.params[p], model.params[p + 1]
        p += 2
        if isinstance(layer, Conv):
            k = layer.kernel
            pad = ((k - 1) // 2, k // 2) if layer.padding == "same" else (0, 0)
            xp = np.pad(a, ((0, 0), pad, pad, (0, 0)))
            windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
            cols = windows.transpose(0, 1, 2, 4, 5, 3)
            flat = cols.reshape(-1, cols[0, 0, 0].size)
            z = flat @ weight.reshape(-1, weight.shape[-1]) + bias
            z = z.reshape(*cols.shape[:3], -1)
            caches.append((layer, flat, xp.shape, pad, z > 0))
            a = np.where(z > 0, z, zero)
        elif layer.activation == "relu":
            spatial, a = a.shape, a.reshape(len(a), -1)
            z = a @ weight + bias
            caches.append((layer, a, spatial, z > 0))
            a = np.where(z > 0, z, zero)
        else:
            spatial, a = a.shape, a.reshape(len(a), -1)
            caches.append((layer, a, spatial, None))
            a = cnn._sigmoid(a @ weight + bias)
    return a, caches


def _reference_backward(model, caches, probs, labels):
    """Backward pass with put_along_axis pooling and the 6-D col2im scatter."""
    grads = [None] * len(model.params)
    delta = cnn._loss_grad_z(probs, labels).astype(model.dtype)
    p = len(model.params)
    for layer, *rest in reversed(caches):
        if isinstance(layer, Pool):
            arg, in_shape = rest
            s, (bsz, h, w, c) = layer.size, in_shape
            ho, wo = delta.shape[1:3]
            windows = np.zeros((bsz, ho, wo, s * s, c), dtype=delta.dtype)
            np.put_along_axis(windows, arg, delta[:, :, :, None], axis=3)
            delta = np.zeros(in_shape, dtype=delta.dtype)
            delta[:, : ho * s, : wo * s] = (
                windows.reshape(bsz, ho, wo, s, s, c)
                .transpose(0, 1, 3, 2, 4, 5).reshape(bsz, ho * s, wo * s, c)
            )
            continue
        p -= 2
        weight = model.params[p]
        if isinstance(layer, Dense):
            a_in, spatial, mask = rest
            delta = delta * mask if mask is not None else delta
            grads[p], grads[p + 1] = a_in.T @ delta, delta.sum(axis=0)
            delta = (delta @ weight.T).reshape(spatial)
            continue
        flat, xp_shape, (top, bottom), mask = rest
        delta = delta * mask
        bsz, ho, wo, cout = delta.shape
        dflat = delta.reshape(-1, cout)
        grads[p] = (flat.T @ dflat).reshape(weight.shape)
        grads[p + 1] = dflat.sum(axis=0)
        k = layer.kernel
        dcols = (dflat @ weight.reshape(-1, cout).T).reshape(bsz, ho, wo, k, k, -1)
        dxp = np.zeros(xp_shape, dtype=delta.dtype)
        for i in range(k):
            for j in range(k):
                dxp[:, i : i + ho, j : j + wo] += dcols[:, :, :, i, j]
        delta = dxp[:, top : xp_shape[1] - bottom, top : xp_shape[2] - bottom]
    return grads


def _reference_adam(model, grads, lr=0.001):
    """The textbook Adam update, out of place: one fresh array per
    operation."""
    state = model.adam
    state.step += 1
    bc1 = 1.0 - cnn.ADAM_BETA1**state.step
    bc2 = 1.0 - cnn.ADAM_BETA2**state.step
    for i, g in enumerate(grads):
        g = g.astype(model.dtype, copy=False)
        state.m[i] = cnn.ADAM_BETA1 * state.m[i] + (1.0 - cnn.ADAM_BETA1) * g
        state.v[i] = cnn.ADAM_BETA2 * state.v[i] + (1.0 - cnn.ADAM_BETA2) * (g * g)
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        model.params[i] = model.params[i] - (
            lr * m_hat / (np.sqrt(v_hat) + cnn.ADAM_EPS)
        ).astype(model.dtype)


# The bias gradient of the one-channel conv sums a single column. No conv
# sits above it: that conv's per-offset input-gradient GEMMs would have one
# output column, which OpenBLAS rounds differently in float64 from the
# reference's single GEMM.
ONE_CHANNEL_LAYERS = (
    Conv(2, 3, "same"),
    Pool(),
    Conv(1, 2, "valid"),
    Pool(),
    Dense(4, "relu"),
    Dense(2, "sigmoid"),
)


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestKernelOracle:
    """The offset-copy im2col, strided-slice pooling fused with the conv
    ReLU, fmax ReLU, per-offset conv backward, einsum bias gradients and
    in-place Adam reproduce the gather, mask-then-argmax, put_along_axis,
    col2im, sum and out-of-place kernels bit for bit."""

    def _compare_step(self, model, ref, images, labels):
        """One forward and backward of both; returns both gradient lists."""
        probs, caches = forward(model, images, with_caches=True)
        ref_probs, ref_caches = _reference_forward(ref, images)
        assert _same_bytes(probs, ref_probs)
        pools = [c for c in caches if c[0] == "pool"]
        ref_pools = [c for c in ref_caches if isinstance(c[0], Pool)]
        assert len(pools) == len(ref_pools)
        for pool, (_, ref_arg, _) in zip(pools, ref_pools):
            np.testing.assert_array_equal(pool[2], ref_arg[:, :, :, 0])
        grads = backward(model, caches, labels)
        ref_grads = _reference_backward(ref, ref_caches, ref_probs, labels)
        assert all(_same_bytes(g, r) for g, r in zip(grads, ref_grads))
        return grads, ref_grads

    def _train_both(self, model, images, labels, steps=3):
        ref = copy.deepcopy(model)
        for _ in range(steps):
            grads, ref_grads = self._compare_step(model, ref, images, labels)
            adam_step(model, grads)
            _reference_adam(ref, ref_grads)
        for group, ref_group in (
            (model.params, ref.params),
            (model.adam.m, ref.adam.m),
            (model.adam.v, ref.adam.v),
        ):
            assert all(_same_bytes(t, r) for t, r in zip(group, ref_group))

    def test_production_net_on_tie_heavy_batch(self, rng):
        images = rng.integers(0, 4, size=(8, 128, 128), dtype=np.uint8) * np.uint8(85)
        images[:, :48, :48] = 0
        images[:, 80:, 80:] = 255
        images[0] = rng.integers(0, 256, size=(128, 128), dtype=np.uint8)
        self._train_both(model_init(seed=1), images, np.array([0, 1] * 4))

    def test_production_net_batch_of_one(self, rng):
        model = model_init(seed=2)
        image = rng.integers(0, 256, size=(128, 128), dtype=np.uint8)
        expected, _ = _reference_forward(model, image)
        assert _same_bytes(forward(model, image)[0], expected)
        assert _same_bytes(predict(model, image).probabilities, expected[0])

    def test_reduced_net_float64(self, rng):
        images = rng.random((4, 16, 16))
        images[0, :8] = 0.0
        self._train_both(_small_model(seed=3), images, np.array([0, 1, 1, 0]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_channel_convs(self, rng, dtype):
        images = rng.integers(0, 256, size=(6, 32, 32), dtype=np.uint8)
        images[:3, :12] = 0
        model = model_init(
            seed=4, layers=ONE_CHANNEL_LAYERS, input_shape=(32, 32), dtype=dtype
        )
        self._train_both(model, images, np.array([0, 1, 1, 0, 1, 0]), steps=4)

    # A fused pool that took np.maximum would let a NaN cell win its window.
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("net", ["reduced-float64", "production"])
    def test_non_finite_pixels(self, rng, net, special):
        if net == "production":
            model, shape = model_init(seed=5), (2, 128, 128)
        else:
            model, shape = _small_model(seed=5), (4, 16, 16)
        images = rng.random(shape).astype(model.dtype)
        images[rng.random(shape) < 0.02] = special
        images[:, 4:6, 4:7] = special
        labels = np.arange(shape[0]) % 2
        # No Adam step: the gradients may be non-finite.
        self._compare_step(model, copy.deepcopy(model), images, labels)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_matches_mask_form_on_special_values(self, dtype):
        tiny = np.finfo(dtype).smallest_subnormal
        special = [np.nan, -0.0, 0.0, np.inf, -np.inf, tiny, -tiny, 1.5, -2.0]
        # Short arrays and odd tails take fmax's scalar loop, longer ones SIMD.
        for n in (1, 7, 9, 16, 33, 70):
            for offset in range(len(special)):
                z = np.resize(np.roll(np.asarray(special, dtype=dtype), offset), n)
                expected = np.where(z > 0, z, np.asarray(0.0, dtype=dtype))
                assert _same_bytes(cnn._relu(z.copy()), expected), (n, offset)


class TestColumnSums:
    """The conv bias gradient equals ``a.sum(axis=0)`` byte for byte."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("columns", [1, 2, 3, 16, 32, 128])
    def test_matches_sum_on_fuzzed_arrays(self, rng, dtype, columns):
        sizes = (1, 2, 7, 8, 9, 127, 128, 129, 1000, 8197, 131072, 140001)
        for n in (n for n in sizes if n * columns <= 2_300_000):
            scale = 10.0 ** rng.uniform(-30.0, 30.0, size=(n, 1))
            a = (rng.standard_normal((n, columns)) * scale).astype(dtype)
            a[rng.random(a.shape) < 0.3] = 0.0
            a[rng.random(a.shape) < 0.2] = -0.0
            for signed_zero_column in (None, 0.0, -0.0):
                if signed_zero_column is not None:
                    a[:, 0] = signed_zero_column
                got, expected = cnn._column_sums(a), a.sum(axis=0)
                assert _same_bytes(got, expected), (n, signed_zero_column)


class TestLoss:
    def test_uninformative_prediction_is_log2(self):
        assert np.isclose(loss(np.array([[0.5, 0.5]]), [0]), np.log(2.0), atol=1e-15)

    def test_two_unit_oracle(self):
        # -(log 0.9 + log 0.8) / 2 for y = (1, 0), p = (0.9, 0.2)
        value = loss(np.array([[0.9, 0.2]]), [0])
        assert np.isclose(value, 0.16425203348146168, atol=1e-12)

    def test_perfect_prediction_is_clip_limited(self):
        value = loss(np.array([[1.0, 0.0]]), [0])
        assert 0.0 < value < 2.0 * LOSS_EPS

    def test_worst_prediction_is_finite(self):
        value = loss(np.array([[0.0, 1.0]]), [0])
        assert np.isclose(value, -np.log(LOSS_EPS), rtol=1e-6)

    def test_int_labels_match_onehot(self, rng):
        probs = rng.uniform(0.01, 0.99, size=(6, 2))
        labels = np.array([0, 1, 1, 0, 1, 0])
        onehot = np.zeros((6, 2))
        onehot[np.arange(6), labels] = 1.0
        assert loss(probs, labels) == loss(probs, onehot)

    def test_batch_mean(self, rng):
        probs = rng.uniform(0.01, 0.99, size=(4, 2))
        labels = np.array([0, 1, 0, 1])
        per_row = [loss(probs[i : i + 1], labels[i : i + 1]) for i in range(4)]
        assert np.isclose(loss(probs, labels), np.mean(per_row), atol=1e-12)


class TestGradients:
    def test_finite_difference_all_parameters(self, rng):
        # ReLU kinks and pooling ties make the loss non-differentiable on a
        # measure-zero set; this seed/data combination stays clear of it.
        model = _small_model(seed=3)
        images = rng.random((3, 16, 16))
        labels = np.array([0, 1, 0])
        probs, caches = forward(model, images, with_caches=True)
        grads = backward(model, caches, labels)
        eps = 1e-4
        worst = 0.0
        for tensor, grad in zip(model.params, grads):
            flat = tensor.reshape(-1)
            gflat = grad.reshape(-1)
            for j in range(flat.size):
                keep = flat[j]
                flat[j] = keep + eps
                up = loss(forward(model, images)[0], labels)
                flat[j] = keep - eps
                down = loss(forward(model, images)[0], labels)
                flat[j] = keep
                numeric = (up - down) / (2.0 * eps)
                scale = max(abs(numeric), abs(gflat[j]), 1e-8)
                worst = max(worst, abs(numeric - gflat[j]) / scale)
        assert worst < 1e-4, worst

    def test_backward_requires_caches(self, rng):
        model = _small_model()
        with pytest.raises(ShapeError, match="caches"):
            backward(model, [], np.array([0]))


class TestAdam:
    def _scalar_model(self):
        model = model_init(
            seed=0, layers=(Dense(1, "sigmoid"),), input_shape=(1, 1), dtype=np.float64
        )
        model.params[0][...] = 0.5
        model.params[1][...] = 0.0
        return model

    def test_first_step_oracle(self):
        model = self._scalar_model()
        grads = [np.ones((1, 1)), np.zeros(1)]
        adam_step(model, grads, lr=0.001)
        # Bias correction makes m_hat = g and v_hat = g^2 on step one, so the
        # update is lr * g / (|g| + eps).
        expected = 0.5 - 0.001 / (1.0 + 1e-8)
        assert np.isclose(model.params[0][0, 0], expected, atol=1e-15)
        assert model.adam.step == 1

    def test_update_is_in_place(self):
        model = self._scalar_model()
        returned = adam_step(model, [np.ones((1, 1)), np.ones(1)])
        assert returned is model

    def test_state_arrays_keep_their_identity(self, rng):
        model = _small_model(seed=2)
        tensors = [*model.params, *model.adam.m, *model.adam.v]
        grads = [rng.standard_normal(p.shape) for p in model.params]
        adam_step(model, grads)
        after = [*model.params, *model.adam.m, *model.adam.v]
        assert all(a is b for a, b in zip(tensors, after))

    def test_sign_symmetry(self):
        up = self._scalar_model()
        down = self._scalar_model()
        adam_step(up, [np.full((1, 1), 3.0), np.zeros(1)])
        adam_step(down, [np.full((1, 1), -3.0), np.zeros(1)])
        assert np.isclose(
            up.params[0][0, 0] - 0.5, -(down.params[0][0, 0] - 0.5), atol=1e-15
        )

    def test_moments_accumulate(self):
        model = self._scalar_model()
        adam_step(model, [np.ones((1, 1)), np.zeros(1)])
        assert np.isclose(model.adam.m[0][0, 0], 0.1)
        assert np.isclose(model.adam.v[0][0, 0], 0.001)

    def test_non_finite_gradient_rejected(self):
        model = self._scalar_model()
        with pytest.raises(NumericalError, match="finite"):
            adam_step(model, [np.full((1, 1), np.nan), np.zeros(1)])

    def test_gradient_count_mismatch_rejected(self):
        model = self._scalar_model()
        with pytest.raises(ShapeError, match="gradients"):
            adam_step(model, [np.ones((1, 1))])


def _trained_small(rng, steps=2):
    model = _small_model(seed=4)
    images = rng.uniform(0.0, 1.0, size=(4, 16, 16))
    labels = np.array([0, 1, 0, 1])
    for _ in range(steps):
        probs, caches = forward(model, images, with_caches=True)
        adam_step(model, backward(model, caches, labels))
    return model


class TestCheckpoints:
    def test_bitwise_round_trip(self, rng, tmp_path):
        model = _trained_small(rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        assert restored.layers == model.layers
        assert restored.input_shape == model.input_shape
        assert restored.seed == model.seed
        assert restored.dtype == model.dtype
        assert restored.adam.step == model.adam.step
        for a, b in zip(model.params, restored.params):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(model.adam.m, restored.adam.m):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(model.adam.v, restored.adam.v):
            np.testing.assert_array_equal(a, b)

    def test_restored_model_predicts_identically(self, rng, tmp_path):
        model = _trained_small(rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        images = rng.uniform(0.0, 1.0, size=(3, 16, 16))
        np.testing.assert_array_equal(
            forward(model, images)[0], forward(restored, images)[0]
        )

    def test_restored_model_takes_the_same_adam_steps(self, rng, tmp_path):
        model = _trained_small(rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        for _ in range(2):
            grads = [rng.standard_normal(p.shape) for p in model.params]
            adam_step(model, grads)
            adam_step(restored, grads)
        for group, restored_group in (
            (model.params, restored.params),
            (model.adam.m, restored.adam.m),
            (model.adam.v, restored.adam.v),
        ):
            assert all(_same_bytes(a, b) for a, b in zip(group, restored_group))

    def test_float32_round_trip(self, tmp_path):
        model = model_init(
            seed=1, layers=reduced_layers(), input_shape=(16, 16), dtype=np.float32
        )
        path = tmp_path / "f32.ckpt"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        assert restored.dtype == np.float32
        for a, b in zip(model.params, restored.params):
            np.testing.assert_array_equal(a, b)

    def test_truncated_file_rejected(self, rng, tmp_path):
        model = _trained_small(rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 9])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        model = _trained_small(rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, rng, tmp_path):
        model = _trained_small(rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_corrupt_descriptor_rejected(self, rng, tmp_path):
        model = _trained_small(rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        data = bytearray(path.read_bytes())
        # descriptor starts after magic(8) + version(4) + width(1) + len(4)
        data[17] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(path)

    def test_architecture_guard(self, rng, tmp_path):
        model = _trained_small(rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match="different layer stack"):
            load_checkpoint(path, expected_layers=classifier_layers())
        with pytest.raises(CheckpointError, match="input shape"):
            load_checkpoint(path, expected_input_shape=(128, 128))
        restored = load_checkpoint(
            path,
            expected_layers=reduced_layers(),
            expected_input_shape=(16, 16),
        )
        assert restored.layers == reduced_layers()

    def test_magic_is_stable(self, rng, tmp_path):
        model = _trained_small(rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        assert path.read_bytes().startswith(CHECKPOINT_MAGIC)


class TestTrainingStep:
    def test_loss_decreases_on_fixed_batch(self, rng):
        model = _small_model(seed=6)
        images = rng.uniform(0.0, 1.0, size=(8, 16, 16))
        labels = np.array([0, 1] * 4)
        first = loss(forward(model, images)[0], labels)
        for _ in range(30):
            probs, caches = forward(model, images, with_caches=True)
            adam_step(model, backward(model, caches, labels), lr=0.01)
        last = loss(forward(model, images)[0], labels)
        assert last < first

    def test_training_is_deterministic(self, rng):
        images = rng.uniform(0.0, 1.0, size=(4, 16, 16))
        labels = np.array([0, 1, 1, 0])

        def run():
            model = _small_model(seed=9)
            for _ in range(5):
                probs, caches = forward(model, images, with_caches=True)
                adam_step(model, backward(model, caches, labels))
            return forward(model, images)[0]

        np.testing.assert_array_equal(run(), run())
