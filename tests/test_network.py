"""Network tests: shape contracts, mask semantics, analytic gradients against
central finite differences, and conv against a direct nested-loop oracle."""

import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import nmfprune.network as network
from nmfprune.masking import sparsity_report
from nmfprune.network import (
    LAYER_KINDS,
    Conv2d,
    Flatten,
    FlopsEstimate,
    Linear,
    ReLU,
    col2im,
    convert_to_masked,
    count_zero_weights,
    flops_estimate,
    im2col,
    init_network,
    input_shape,
    output_shapes,
    softmax_cross_entropy,
)
from nmfprune.trainer import TrainConfig, masked_train_step, momentum_buffers


def direct_conv(x, weights_2d, bias, spec):
    """Independent convolution: explicit loops over every output position."""
    n, c, h, w = x.shape
    kh, kw, s, p = spec.kernel_h, spec.kernel_w, spec.stride, spec.padding
    out_h = (h + 2 * p - kh) // s + 1
    out_w = (w + 2 * p - kw) // s + 1
    padded = np.zeros((n, c, h + 2 * p, w + 2 * p))
    padded[:, :, p : p + h, p : p + w] = x
    kernels = weights_2d.reshape(spec.out_channels, c, kh, kw)
    out = np.zeros((n, spec.out_channels, out_h, out_w))
    for b in range(n):
        for oc in range(spec.out_channels):
            for i in range(out_h):
                for j in range(out_w):
                    patch = padded[b, :, i * s : i * s + kh, j * s : j * s + kw]
                    out[b, oc, i, j] = np.sum(patch * kernels[oc]) + bias[oc]
    return out


def im2col_oracle(x, kh, kw, stride, padding):
    """Independent unfolding: one patch row per output position, in
    (sample, out_row, out_col) order, each flattened as (channel, kh, kw)."""
    n, c, h, w = x.shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    padded[:, :, padding : padding + h, padding : padding + w] = x
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    rows = []
    for b in range(n):
        for i in range(out_h):
            for j in range(out_w):
                patch = padded[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                rows.append(patch.ravel())
    return np.array(rows)


# Channels, kernel (kh, kw), stride, padding; inputs are 5x7 (non-square).
# Stride 4 exceeds every kernel, and padding 3 reaches past every kernel, so
# some kernel offsets read padding only.
GEOMETRIES = list(
    itertools.product((1, 3), ((1, 1), (2, 3), (3, 3)), (1, 2, 3, 4), (0, 1, 2, 3))
)


def padded_im2col(x, kh, kw, stride, padding):
    """Reference unfolding through a padded copy and a window view: the
    earlier implementation, which the copy-per-offset one must match bit for bit."""
    n, c = x.shape[:2]
    img = x.transpose(1, 2, 3, 0)
    if padding:
        img = np.pad(img, [(0, 0), (padding, padding), (padding, padding), (0, 0)])
    windows = sliding_window_view(img, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    out_h, out_w = windows.shape[1:3]
    return windows.transpose(0, 4, 5, 1, 2, 3).reshape(c * kh * kw, out_h * out_w * n)


def padded_col2im(cols, x_shape, kh, kw, stride, padding):
    """Reference fold into a padded image, cropped at the end: the earlier
    implementation, which the unpadded one must match bit for bit."""
    n, c, h, w = x_shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    planes = cols.reshape(c, kh, kw, out_h, out_w, n)
    img = np.zeros((c, h + 2 * padding, w + 2 * padding, n))
    for i in range(kh):
        for j in range(kw):
            img[:, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += (
                planes[:, i, j]
            )
    return img[:, padding : padding + h, padding : padding + w].transpose(3, 0, 1, 2)


def signed_zeros(rng, shape):
    """Normal values with about a tenth of them -0.0, whose sign a copy keeps."""
    x = rng.normal(size=shape)
    x[rng.random(shape) < 0.1] = -0.0
    return x


def numeric_grad(net, x, y, param, index, h=1e-5):
    """Central finite difference of the batch loss w.r.t. one parameter."""
    original = param[index]
    param[index] = original + h
    loss_plus, _ = softmax_cross_entropy(net.forward(x), y)
    param[index] = original - h
    loss_minus, _ = softmax_cross_entropy(net.forward(x), y)
    param[index] = original
    return (loss_plus - loss_minus) / (2 * h)


def mlp_specs():
    return [Linear(4, 6), ReLU(), Linear(6, 3)]


def patch_rows(cols, n):
    """im2col's (C*kh*kw, out_h*out_w*N) matrix as the oracle's rows: one per
    output position, in (sample, out_row, out_col) order."""
    return cols.reshape(cols.shape[0], -1, n).transpose(2, 1, 0).reshape(-1, cols.shape[0])


def batch_innermost(x):
    """``x`` as an (N, C, H, W) view of (C, H, W, N) memory, the layout a conv
    layer's output has."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def conv_spec(c, kh, kw, stride, padding):
    """The Conv2d im2col and col2im read a geometry from; its output channels
    play no part in either."""
    return Conv2d(c, 1, kh, kw, stride=stride, padding=padding)


class TestIm2col:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(40)
        for c, (kh, kw), stride, padding in GEOMETRIES:
            x = rng.normal(size=(2, c, 5, 7))
            expected = im2col_oracle(x, kh, kw, stride, padding)
            for layout in (x, batch_innermost(x)):
                got = im2col(layout, conv_spec(c, kh, kw, stride, padding))
                assert np.array_equal(patch_rows(got, 2), expected), (
                    c, kh, kw, stride, padding,
                )

    def test_bit_identical_to_the_padded_unfolding_in_both_layouts(self):
        rng = np.random.default_rng(59)
        for c, (kh, kw), stride, padding in GEOMETRIES:
            x = signed_zeros(rng, (3, c, 5, 7))
            for layout in (x, batch_innermost(x)):
                got = im2col(layout, conv_spec(c, kh, kw, stride, padding))
                want = padded_im2col(layout, kh, kw, stride, padding)
                assert got.shape == want.shape and got.flags.c_contiguous
                assert got.tobytes() == want.tobytes(), (c, kh, kw, stride, padding)

    def test_col2im_bit_identical_to_the_padded_fold(self):
        # Every input element receives the same adds, in the same order.
        rng = np.random.default_rng(60)
        for c, (kh, kw), stride, padding in GEOMETRIES:
            x_shape = (3, c, 5, 7)
            rows = padded_im2col(np.zeros(x_shape), kh, kw, stride, padding).shape
            cols = signed_zeros(rng, rows)
            got = col2im(cols, x_shape, conv_spec(c, kh, kw, stride, padding))
            want = padded_col2im(cols, x_shape, kh, kw, stride, padding)
            assert got.shape == want.shape == x_shape
            assert got.transpose(1, 2, 3, 0).flags.c_contiguous  # unpadded (C, H, W, N)
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes(), (
                c, kh, kw, stride, padding,
            )

    def test_unfold_and_fold_allocate_no_padded_copy(self):
        # im2col allocates its patch matrix, plus one (C, H, W, N) copy of an
        # input in another layout; col2im its unpadded image, plus NumPy's
        # ufunc buffers for the strided adds (three operands of bufsize
        # elements). A padded copy of the 14x14 image would add 31%.
        rng = np.random.default_rng(61)
        x = rng.normal(size=(64, 8, 14, 14))
        stored = batch_innermost(x)
        spec = conv_spec(8, 3, 3, 2, 1)
        cols = im2col(x, spec)
        buffers = 3 * np.getbufsize() * x.itemsize
        for name, call, bound in [
            ("im2col", lambda: im2col(stored, spec), cols.nbytes),
            ("im2col N-first", lambda: im2col(x, spec), cols.nbytes + x.nbytes),
            ("col2im", lambda: col2im(cols, x.shape, spec), x.nbytes + buffers),
        ]:
            call()  # a first call's one-off allocations are not counted
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                call()
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= bound + 4096, (name, peak, bound)

    def test_col2im_is_adjoint_of_im2col(self):
        # <im2col(x), cols> == <x, col2im(cols)> for every geometry.
        rng = np.random.default_rng(41)
        for c, (kh, kw), stride, padding in GEOMETRIES:
            x = rng.normal(size=(2, c, 5, 7))
            spec = conv_spec(c, kh, kw, stride, padding)
            unfolded = im2col(x, spec)
            cols = rng.normal(size=unfolded.shape)
            folded = col2im(cols, x.shape, spec)
            assert folded.shape == x.shape
            lhs = np.sum(unfolded * cols)
            rhs = np.sum(x * folded)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0), (c, kh, kw, stride, padding)


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="a Python call hands its arguments over to the callee only from 3.11 on",
)
class TestActivationLifetimes:
    """Network hands each layer its input as the one reference it holds, and
    each layer frees that input at its last use, so a training step never
    holds an activation that nothing will read again."""

    SPECS = [
        Conv2d(1, 8, 3, 3, padding=1), ReLU(), Conv2d(8, 16, 3, 3, stride=2, padding=1), ReLU(),
        Flatten(), Linear(16 * 14 * 14, 10),
    ]
    FIRST = 64 * 8 * 28 * 28 * 8  # bytes of a first-conv activation: the second conv's input
    SECOND = 64 * 16 * 14 * 14 * 8  # a second-conv activation, or its output gradient
    SLACK = 16 * 1024  # logits, the loss's temporaries, a bias gradient

    def step_peaks(self, net, x, y):
        """Traced bytes above entry at the peak of a training forward, at
        its end (the caches it leaves), and at the peak of its backward."""
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            net.forward(x)
            cached, forward_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            net.backward(y)
            backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return forward_peak - entry, cached - entry, backward_peak - cached

    def test_training_step_frees_each_activation_at_its_last_use(self):
        rng = np.random.default_rng(64)
        x = rng.normal(size=(64, 1, 28, 28))
        y = rng.integers(0, 10, 64)
        net = init_network(self.SPECS, seed=65)
        net.forward(x)  # the first step allocates the gradient buffers
        net.backward(y)
        forward, cached, backward = self.step_peaks(net, x, y)
        # Forward peaks at the second ReLU: beside the caches, only its input
        # is alive, not also the second conv's input, which is freed once
        # unfolded.
        assert forward <= cached + self.SECOND + self.SLACK, (forward, cached)
        # Backward peaks at the second conv's fold. By then the second ReLU's
        # mask and the linear layer's cached input are released, and the
        # patch gradient has replaced the patches; the output gradient is
        # freed before the fold's image (NumPy's ufunc buffers beside it) is
        # made.
        buffers = 3 * np.getbufsize() * x.itemsize
        released = self.SECOND + self.SECOND // 8
        assert backward <= self.FIRST + buffers - released + self.SLACK, backward

    def test_a_batch_the_caller_holds_stays_unchanged_and_usable(self):
        rng = np.random.default_rng(66)
        x = rng.normal(size=(8, 1, 28, 28))
        kept = x.copy()
        net = init_network(self.SPECS, seed=67)
        logits = net.forward(x).copy()
        net.backward(rng.integers(0, 10, 8))
        assert np.array_equal(x, kept)
        assert np.array_equal(net.forward(x), logits)
        assert np.array_equal(net.forward(x, cache=False), logits)


class TestInitNetwork:
    def test_same_seed_bit_identical(self):
        a = init_network(mlp_specs(), seed=5)
        b = init_network(mlp_specs(), seed=5)
        for la, lb in zip(a.weighted_layers, b.weighted_layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)

    def test_different_seed_differs(self):
        a = init_network(mlp_specs(), seed=5)
        b = init_network(mlp_specs(), seed=6)
        assert not np.array_equal(a.weighted_layers[0].weights, b.weighted_layers[0].weights)

    def test_linear_shape_contract(self):
        net = init_network([Linear(4, 3)], seed=0)
        layer = net.weighted_layers[0]
        assert layer.weights.shape == (3, 4)
        assert layer.bias.shape == (3,)
        assert np.all(layer.bias == 0.0)

    def test_conv_flattened_weight_view(self):
        net = init_network([Conv2d(2, 5, 3, 3), Flatten(), Linear(20, 2)], seed=0)
        assert net.weighted_layers[0].weights.shape == (5, 18)

    def test_final_classifier_not_prunable_by_default(self):
        net = init_network(mlp_specs(), seed=0)
        assert [l.prunable for l in net.weighted_layers] == [True, False]

    def test_explicit_prunable_overrides_default(self):
        net = init_network([Linear(4, 6), Linear(6, 3, prunable=True)], seed=0)
        assert [l.prunable for l in net.weighted_layers] == [True, True]
        net = init_network([Linear(4, 6, prunable=False), Linear(6, 3)], seed=0)
        assert [l.prunable for l in net.weighted_layers] == [False, False]

    def test_incompatible_linear_pair_rejected(self):
        with pytest.raises(ValueError, match="incompatible layer pair"):
            init_network([Linear(4, 3), Linear(5, 2)], seed=0)

    def test_conv_into_linear_without_flatten_rejected(self):
        with pytest.raises(ValueError, match="incompatible layer pair"):
            init_network([Conv2d(1, 4, 3, 3), Linear(16, 2)], seed=0)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="incompatible layer pair"):
            init_network([Conv2d(1, 4, 3, 3), Conv2d(3, 2, 3, 3), Flatten(), Linear(8, 2)], seed=0)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Linear(0, 3)
        with pytest.raises(ValueError):
            Conv2d(1, 1, 0, 3)


class TestForward:
    def test_zero_weights_uniform_softmax(self):
        net = init_network([Linear(2, 3)], seed=0)
        net.weighted_layers[0].weights[:] = 0.0
        logits = net.forward(np.array([[1.0, -2.0]]))
        assert np.array_equal(logits, np.zeros((1, 3)))
        _, dlogits = softmax_cross_entropy(logits, np.array([0]))
        probs = dlogits.copy()
        probs[0, 0] += 1.0
        assert np.allclose(probs, np.full((1, 3), 1.0 / 3.0))

    def test_identity_linear(self):
        net = init_network([Linear(2, 2)], seed=0)
        net.weighted_layers[0].weights[:] = np.eye(2)
        logits = net.forward(np.array([[3.0, 5.0]]))
        assert np.array_equal(logits, [[3.0, 5.0]])

    def test_mask_zero_equals_hand_zero(self):
        specs = [Linear(4, 6), ReLU(), Linear(6, 3)]
        x = np.random.default_rng(1).normal(size=(5, 4))

        net_a = init_network(specs, seed=2)
        bits = np.ones((6, 4), dtype=bool)
        bits[2, 1] = False
        masks = {"layer0_linear": bits}
        convert_to_masked(net_a, masks)

        net_b = init_network(specs, seed=2)
        net_b.weighted_layers[0].weights[2, 1] = 0.0
        assert np.array_equal(net_a.forward(x), net_b.forward(x))

    def test_conv_matches_direct_oracle(self):
        spec = Conv2d(2, 3, 3, 3, stride=2, padding=1)
        net = init_network([spec, Flatten(), Linear(12, 2)], seed=3)
        conv = net.weighted_layers[0]
        x = np.random.default_rng(4).normal(size=(2, 2, 5, 5))
        got = conv.forward(x)
        want = direct_conv(x, conv.weights, conv.bias, spec)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_conv_various_geometries_against_oracle(self):
        rng = np.random.default_rng(5)
        for spec, hw in [
            (Conv2d(1, 2, 2, 2), 4),
            (Conv2d(3, 4, 3, 3, stride=1, padding=1), 6),
            (Conv2d(2, 2, 1, 1), 3),
            (Conv2d(1, 3, 3, 2, stride=2), 7),
        ]:
            net = init_network([spec], seed=6)
            conv = net.weighted_layers[0]
            x = rng.normal(size=(2, spec.in_channels, hw, hw))
            want = direct_conv(x, conv.weights, conv.bias, spec)
            assert np.max(np.abs(conv.forward(x) - want)) <= 1e-10

    def test_conv_forward_and_gradients_against_oracle_in_both_layouts(self):
        # The trainer passes the first conv a C-contiguous batch; every later
        # conv gets the previous conv's (N, C, H, W) view of batch-innermost memory.
        specs = [Conv2d(2, 3, 3, 3, padding=1), Conv2d(3, 2, 2, 3, stride=2, padding=1)]
        first, second = init_network(specs, seed=56).weighted_layers
        first.first = False  # so each caches its patches and folds an input gradient
        rng = np.random.default_rng(57)
        x = rng.normal(size=(2, 2, 5, 6))
        first_out = first.forward(x, cache=False)
        assert not first_out.flags.c_contiguous
        for layer, spec, inp in [(first, specs[0], x), (second, specs[1], first_out)]:
            layer.bias[:] = rng.normal(size=layer.bias.shape)
            out = layer.forward(inp)
            assert np.max(np.abs(out - direct_conv(inp, layer.weights, layer.bias, spec))) <= 1e-10
            dout = rng.normal(size=out.shape)
            assert layer.backward(dout).shape == inp.shape
            # The output is linear in the weights: d<out, dout>/dW[i] is the
            # oracle's output for a unit weight at i, weighed by dout.
            want = np.zeros_like(layer.weights)
            for index in np.ndindex(*want.shape):
                unit = np.zeros_like(layer.weights)
                unit[index] = 1.0
                want[index] = np.sum(direct_conv(inp, unit, np.zeros_like(layer.bias), spec) * dout)
            assert np.max(np.abs(layer.grad_weights - want)) <= 1e-10
            assert np.max(np.abs(layer.grad_bias - dout.sum(axis=(0, 2, 3)))) <= 1e-12

    def test_shape_mismatch_rejected(self):
        net = init_network(mlp_specs(), seed=0)
        with pytest.raises(ValueError, match="features"):
            net.forward(np.ones((2, 7)))

    def test_deterministic(self):
        net = init_network(mlp_specs(), seed=7)
        x = np.random.default_rng(8).normal(size=(3, 4))
        assert np.array_equal(net.forward(x), net.forward(x))


class TestBackward:
    def test_finite_difference_mlp(self):
        net = init_network([Linear(4, 6), ReLU(), Linear(6, 3)], seed=9)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, 8)
        net.forward(x)
        net.backward(y)
        for layer in net.weighted_layers:
            analytic = layer.grad_weights.copy()
            flat = [(i, j) for i in range(analytic.shape[0]) for j in range(analytic.shape[1])]
            for index in [flat[k] for k in rng.choice(len(flat), 5, replace=False)]:
                numeric = numeric_grad(net, x, y, layer.weights, index)
                denom = max(abs(numeric), abs(analytic[index]), 1e-8)
                assert abs(analytic[index] - numeric) / denom <= 1e-4

    def test_finite_difference_conv_and_bias(self):
        net = init_network(
            [Conv2d(1, 3, 3, 3, padding=1), ReLU(), Flatten(), Linear(48, 2)], seed=11
        )
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 1, 4, 4))
        y = rng.integers(0, 2, 4)
        net.forward(x)
        net.backward(y)
        conv = net.weighted_layers[0]
        analytic_w = conv.grad_weights.copy()
        analytic_b = conv.grad_bias.copy()
        for index in [(0, 0), (1, 4), (2, 8)]:
            numeric = numeric_grad(net, x, y, conv.weights, index)
            denom = max(abs(numeric), abs(analytic_w[index]), 1e-8)
            assert abs(analytic_w[index] - numeric) / denom <= 1e-4
        numeric = numeric_grad(net, x, y, conv.bias, (1,))
        denom = max(abs(numeric), abs(analytic_b[1]), 1e-8)
        assert abs(analytic_b[1] - numeric) / denom <= 1e-4

    def test_saturated_prediction_near_zero_gradient(self):
        net = init_network([Linear(2, 2)], seed=13)
        net.weighted_layers[0].weights[:] = [[40.0, 0.0], [-40.0, 0.0]]
        x = np.array([[1.0, 0.0]])
        net.forward(x)
        net.backward(np.array([0]))
        grad_norm = np.sqrt(np.sum(net.weighted_layers[0].grad_weights ** 2))
        assert grad_norm < 1e-6

    def test_duplicated_batch_same_mean_gradient(self):
        net = init_network(mlp_specs(), seed=14)
        rng = np.random.default_rng(15)
        x = rng.normal(size=(6, 4))
        y = rng.integers(0, 3, 6)
        net.forward(x)
        net.backward(y)
        single = [l.grad_weights.copy() for l in net.weighted_layers]
        net.forward(np.vstack([x, x]))
        net.backward(np.concatenate([y, y]))
        doubled = [l.grad_weights.copy() for l in net.weighted_layers]
        for a, b in zip(single, doubled):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_finite_difference_two_conv(self):
        # The second conv's input gradient (col2im) feeds the first conv's.
        net = init_network(
            [Conv2d(2, 3, 3, 3, padding=1), ReLU(), Conv2d(3, 4, 2, 3, stride=2, padding=1),
             ReLU(), Flatten(), Linear(48, 2)],
            seed=42,
        )
        rng = np.random.default_rng(43)
        x = rng.normal(size=(3, 2, 5, 7))
        y = rng.integers(0, 2, 3)
        net.forward(x)
        net.backward(y)
        first = net.weighted_layers[0]
        analytic = first.grad_weights.copy()
        for index in [(0, 0), (1, 7), (2, 17), (0, 13)]:
            numeric = numeric_grad(net, x, y, first.weights, index)
            denom = max(abs(numeric), abs(analytic[index]), 1e-8)
            assert abs(analytic[index] - numeric) / denom <= 1e-4

    def test_unfold_fold_and_backward_calls_of_one_training_step(self, monkeypatch):
        # The contract a tracer wrapping the module's im2col and col2im and
        # each layer's instance backward relies on: the first conv unfolds
        # its batch in forward and again in backward, a later conv unfolds
        # once and folds its input gradient once, and backward runs once per
        # layer from the first weighted layer on.
        calls = []
        for name in ("im2col", "col2im"):
            def counting(*args, name=name, original=getattr(network, name)):
                # The spec, and the shape of the input it unfolds or folds onto.
                shape = args[0].shape if name == "im2col" else args[1]
                calls.append((name, args[-1], shape))
                return original(*args)

            monkeypatch.setattr(network, name, counting)
        specs = [ReLU(), Conv2d(1, 2, 3, 3, padding=1), ReLU(),
                 Conv2d(2, 3, 3, 3, stride=2, padding=1), ReLU(), Flatten(), Linear(48, 2)]
        net = init_network(specs, seed=64)
        backward_calls = []
        for layer in net.layers:
            def backward(dout, layer=layer, original=layer.backward):
                backward_calls.append(layer.layer_id)
                return original(dout)

            layer.backward = backward
        rng = np.random.default_rng(65)
        cfg = TrainConfig(epochs=1, lr=0.1)
        masked_train_step(net, rng.normal(size=(2, 1, 8, 8)), np.array([0, 1]),
                          momentum_buffers(net), 0.1, cfg)
        first, second = specs[1], specs[3]
        # Only the second conv folds a gradient back, onto the first's output.
        assert calls == [("im2col", first, (2, 1, 8, 8)), ("im2col", second, (2, 2, 8, 8)),
                         ("col2im", second, (2, 2, 8, 8)), ("im2col", first, (2, 1, 8, 8))]
        assert all(spec is want for (_, spec, _), want in zip(calls, [first, second, second, first]))
        assert backward_calls == [l.layer_id for l in reversed(net.layers[1:])]

    def test_first_layer_computes_no_input_gradient(self):
        # In backward a linear layer reads its weights for the input gradient only.
        calls = []

        class CountedWeights:
            __array_ufunc__ = None  # numpy hands `dout @ weights` to __rmatmul__

            def __init__(self, layer):
                self.layer_id, self.array = layer.layer_id, layer.weights

            def __rmatmul__(self, dout):
                calls.append(self.layer_id)
                return dout @ self.array

        net = init_network([Linear(4, 6), ReLU(), Linear(6, 5), ReLU(), Linear(5, 3)], seed=46)
        net.forward(np.random.default_rng(47).normal(size=(3, 4)))
        for layer in net.weighted_layers:
            layer.weights = CountedWeights(layer)
        net.backward(np.array([0, 1, 2]))
        assert calls == ["layer4_linear", "layer2_linear"]
        assert all(l.grad_weights is not None for l in net.weighted_layers)

    def test_weight_gradient_is_written_into_one_buffer(self):
        # A lone linear layer's weight gradient is dout.T @ x, with dout the
        # loss gradient of the logits.
        net = init_network([Linear(5, 3)], seed=48)
        layer = net.weighted_layers[0]
        rng = np.random.default_rng(49)
        buffers = []
        for _ in range(2):
            x, y = rng.normal(size=(4, 5)), rng.integers(0, 3, 4)
            _, dout = softmax_cross_entropy(net.forward(x), y)
            net.backward(y)
            buffers.append(layer.grad_weights)
        assert buffers[0] is buffers[1]
        assert layer.grad_weights.tobytes() == (dout.T @ x).tobytes()

    def test_second_backward_matches_a_fresh_network_bit_for_bit(self):
        # Conv and linear layers reuse their buffers; every ReLU multiplies
        # into the gradient it is handed, the one after the Flatten too.
        specs = [Conv2d(1, 2, 3, 3, padding=1), ReLU(), Conv2d(2, 3, 3, 3, stride=2, padding=1),
                 ReLU(), Flatten(), ReLU(), Linear(48, 2)]
        net = init_network(specs, seed=50)
        rng = np.random.default_rng(51)
        batches = [(rng.normal(size=(3, 1, 8, 8)), rng.integers(0, 2, 3)) for _ in range(2)]
        net.forward(batches[0][0])
        net.backward(batches[0][1])
        first = [l.grad_weights for l in net.weighted_layers]
        net.forward(batches[1][0])
        net.backward(batches[1][1])
        fresh = init_network(specs, seed=50)
        fresh.forward(batches[1][0])
        fresh.backward(batches[1][1])
        for layer, buffer, ref in zip(net.weighted_layers, first, fresh.weighted_layers):
            assert layer.grad_weights is buffer, layer.layer_id
            assert layer.grad_weights.tobytes() == ref.grad_weights.tobytes(), layer.layer_id

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_relu_backward_writes_over_a_gradient_in_its_layout(self, order):
        relu = network._ReLULayer("layer0_relu")
        rng = np.random.default_rng(52)
        x = np.asarray(rng.normal(size=(4, 6)), order=order)
        dout = np.asarray(rng.normal(size=(4, 6)), order=order)  # as the next layer hands it
        expected = dout * (x > 0)
        relu.forward(x)
        grad = relu.backward(dout)
        assert grad is dout
        assert grad.tobytes() == expected.tobytes()
        assert grad.flags.f_contiguous == (order == "F")

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_linear_backward_returns_the_input_gradient_in_its_input_layout(self, order):
        layer = init_network([Linear(6, 3)], seed=53).weighted_layers[0]
        layer.first = False  # a lone layer is its network's first
        rng = np.random.default_rng(54)
        x = np.asarray(rng.normal(size=(4, 6)), order=order)
        dout = rng.normal(size=(4, 3))
        layer.forward(x)
        grad = layer.backward(dout)
        assert grad.flags.c_contiguous == (order == "C")
        assert grad.flags.f_contiguous == (order == "F")
        np.testing.assert_allclose(grad, dout @ layer.weights, rtol=1e-12, atol=1e-15)

    def test_every_relu_is_handed_its_gradient_in_its_forward_layout(self):
        # A linear layer after a Flatten of conv activations hands back a
        # column-major gradient, which the Flatten reshapes into the ReLU's
        # (C, H, W, N) layout, so every ReLU multiplies in place.
        rng = np.random.default_rng(55)
        for specs, shape in [
            ([Linear(5, 7), ReLU(), Linear(7, 6), ReLU(), Linear(6, 3)], (4, 5)),
            ([Conv2d(1, 2, 3, 3, padding=1), ReLU(), Conv2d(2, 3, 3, 3, stride=2, padding=1),
              ReLU(), Flatten(), ReLU(), Linear(48, 3)], (4, 1, 8, 8)),
        ]:
            net = init_network(specs, seed=56)
            handed = []
            for layer in net.layers:
                if isinstance(layer, network._ReLULayer):

                    def backward(dout, layer=layer, original=layer.backward):
                        active = layer._active
                        expected = dout * active
                        grad = original(dout)
                        assert grad.tobytes() == expected.tobytes()
                        handed.append((
                            grad is dout, dout.strides == tuple(8 * a for a in active.strides)
                        ))
                        return grad

                    layer.backward = backward
            net.forward(rng.normal(size=shape))
            net.backward(rng.integers(0, 3, shape[0]))
            relus = sum(isinstance(s, ReLU) for s in specs)
            assert handed == [(True, True)] * relus, specs

    def test_relu_first_network_leaves_input_unchanged(self):
        rng = np.random.default_rng(48)
        for specs, shape in [
            ([ReLU(), Linear(4, 3)], (5, 4)),
            ([ReLU(), Conv2d(1, 2, 3, 3), Flatten(), Linear(8, 2)], (5, 1, 4, 4)),
        ]:
            net = init_network(specs, seed=49)
            data = rng.normal(size=(10, *shape[1:]))
            before = data.copy()
            batch = data[2:7]  # a slice, as the trainer and evaluate pass it
            net.forward(batch)
            net.backward(rng.integers(0, 2, 5))
            assert np.array_equal(data, before)

    def test_backward_without_forward_rejected(self):
        net = init_network(mlp_specs(), seed=16)
        with pytest.raises(RuntimeError, match="stale"):
            net.backward(np.array([0]))

    def test_label_batch_mismatch_rejected(self):
        net = init_network(mlp_specs(), seed=17)
        net.forward(np.ones((3, 4)))
        with pytest.raises(ValueError, match="labels"):
            net.backward(np.array([0, 1]))

    def test_label_count_mismatch_keeps_the_cache(self):
        # The count is checked against the cached logits before they are released.
        x, y = np.ones((3, 4)), np.array([0, 1, 2])
        net = init_network(mlp_specs(), seed=17)
        net.forward(x)
        with pytest.raises(ValueError, match=r"^labels length 2 does not match cached batch of 3$"):
            net.backward(y[:2])
        fresh = init_network(mlp_specs(), seed=17)
        fresh.forward(x)
        assert net.backward(y) == fresh.backward(y)


def cached(net):
    """Layer ids that still hold a forward cache."""
    return [
        l.layer_id for l in net.layers
        if getattr(l, "_cols", None) is not None or getattr(l, "_active", None) is not None
    ]


class TestActivationCache:
    SPECS = [Conv2d(1, 2, 3, 3, padding=1), ReLU(), Flatten(), Linear(32, 3)]

    def test_backward_releases_every_cache(self):
        net = init_network(self.SPECS, seed=50)
        x = np.random.default_rng(51).normal(size=(6, 1, 4, 4))
        net.forward(x)
        assert cached(net) == ["layer0_conv", "layer1_relu", "layer3_linear"]
        net.backward(np.arange(6) % 3)
        assert cached(net) == []
        assert net._logits is None
        with pytest.raises(RuntimeError, match="stale"):
            net.backward(np.arange(6) % 3)

    def test_cache_free_forward_matches_and_leaves_cache_stale(self):
        net = init_network(self.SPECS, seed=52)
        x = np.random.default_rng(53).normal(size=(6, 1, 4, 4))
        logits = net.forward(x).copy()
        assert np.array_equal(net.forward(x, cache=False), logits)
        assert cached(net) == []  # the earlier training forward's cache went too
        with pytest.raises(RuntimeError, match="stale"):
            net.backward(np.arange(6) % 3)

    def test_first_conv_caches_its_batch_and_unfolds_it_again(self):
        # The first weighted layer keeps the batch itself, uncopied, not its
        # kh*kw times larger patch matrix; later convs keep patches.
        # im2col is a pure copy, so every gradient has the bits it has when
        # the first conv caches patches too.
        specs = [
            Conv2d(2, 3, 3, 3, padding=1), ReLU(), Conv2d(3, 4, 2, 3, stride=2, padding=1),
            ReLU(), Flatten(), Linear(48, 2),
        ]
        rng = np.random.default_rng(62)
        x = rng.normal(size=(5, 2, 5, 7))
        y = rng.integers(0, 2, 5)
        net, reference = init_network(specs, seed=63), init_network(specs, seed=63)
        reference.layers[0].first = False  # caches patches and folds an input gradient
        net.forward(x)
        reference.forward(x)
        first, second = net.layers[0], net.layers[2]
        assert first._cols is x and first._cols.nbytes <= x.nbytes
        assert reference.layers[0]._cols.nbytes == 9 * x.nbytes
        assert not second.first and second._cols.shape == (3 * 2 * 3, 4 * 3 * 5)
        assert net.backward(y) == reference.backward(y)
        for layer, ref in zip(net.weighted_layers, reference.weighted_layers, strict=True):
            assert layer.grad_weights.tobytes() == ref.grad_weights.tobytes(), layer.layer_id
            assert layer.grad_bias.tobytes() == ref.grad_bias.tobytes(), layer.layer_id
        assert cached(net) == []

    def test_layers_before_the_first_weighted_layer_cache_nothing(self):
        net = init_network([ReLU(), Linear(4, 3), ReLU(), Linear(3, 2)], seed=54)
        net.forward(np.random.default_rng(55).normal(size=(5, 4)))
        assert cached(net) == ["layer1_linear", "layer2_relu", "layer3_linear"]


class TestConvertToMasked:
    def test_all_ones_masks_identity_forward(self):
        specs = mlp_specs()
        x = np.random.default_rng(18).normal(size=(4, 4))
        net_a = init_network(specs, seed=19)
        baseline = net_a.forward(x).copy()
        masks = {l.layer_id: np.ones_like(l.weights, dtype=bool) for l in net_a.prunable_layers}
        convert_to_masked(net_a, masks)
        assert np.array_equal(net_a.forward(x), baseline)

    def test_masked_positions_exactly_zero(self):
        net = init_network(mlp_specs(), seed=20)
        rng = np.random.default_rng(21)
        masks = {l.layer_id: rng.random(l.weights.shape) < 0.6 for l in net.prunable_layers}
        convert_to_masked(net, masks)
        for layer in net.masked_layers:
            assert np.all(layer.weights * (1.0 - layer.mask) == 0.0)
            # +0.0, not the -0.0 a multiply by the mask leaves at negative weights.
            assert not np.any(np.signbit(layer.weights[layer.mask == 0.0]))

    def test_non_bool_mask_rejected(self):
        # Even a mask of only 0.0 and 1.0: that encoding is the checkpoint's.
        net = init_network(mlp_specs(), seed=28)
        bits = np.ones((6, 4), dtype=bool)
        bits[1, 1] = False
        for dtype in (np.float64, np.int64, np.uint8):
            with pytest.raises(ValueError, match=f"^mask of 'layer0_linear' is {dtype.__name__}"):
                convert_to_masked(net, {"layer0_linear": bits.astype(dtype)})
        assert net.layers[0].mask is None
        assert np.count_nonzero(net.layers[0].weights) == bits.size

    def test_sparsity_matches_mask_report(self):
        net = init_network([Linear(8, 16), ReLU(), Linear(16, 4)], seed=22)
        rng = np.random.default_rng(23)
        masks = {l.layer_id: rng.random(l.weights.shape) < 0.5 for l in net.prunable_layers}
        mask_report = sparsity_report(masks)
        convert_to_masked(net, masks)
        weight_report = count_zero_weights(net)
        assert weight_report.global_zeros == mask_report.global_zeros
        assert weight_report.global_sparsity == mask_report.global_sparsity

    def test_mask_buffer_immutable(self):
        net = init_network(mlp_specs(), seed=24)
        masks = {l.layer_id: np.ones_like(l.weights, dtype=bool) for l in net.prunable_layers}
        convert_to_masked(net, masks)
        with pytest.raises(ValueError):
            net.masked_layers[0].mask[0, 0] = 0.0

    @pytest.mark.parametrize("keep", [0.0, 0.3, 1.0])
    def test_mask_is_a_read_only_bool_array_built_in_little_memory(self, keep):
        net = init_network([Linear(784, 300), ReLU(), Linear(300, 10)], seed=40)
        layer = net.prunable_layers[0]
        bits = np.random.default_rng(41).random(layer.weights.shape) < keep
        # Zeros of both signs, at kept and at pruned positions.
        layer.weights[:, :50] = 0.0
        layer.weights[:, 50:100] = -0.0
        expected_live = int(np.count_nonzero(layer.weights[~bits]))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            live = layer.attach_mask(bits)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert live == expected_live
        assert layer.mask.dtype == bool
        assert not layer.mask.flags.writeable
        assert np.array_equal(layer.mask, bits)
        assert np.array_equal(layer.kept, np.flatnonzero(bits))
        pruned = layer.weights[~layer.mask]
        assert np.all(pruned == 0.0) and not np.any(np.signbit(pruned))
        # The mask itself, its kept indices and one bool temporary at a time.
        assert peak <= 3 * bits.size + 8 * layer.kept.size

    def test_missing_mask_rejected(self):
        net = init_network(mlp_specs(), seed=25)
        with pytest.raises(ValueError, match="missing masks"):
            convert_to_masked(net, {})

    def test_misshapen_mask_rejected(self):
        net = init_network(mlp_specs(), seed=26)
        with pytest.raises(ValueError, match="shape"):
            convert_to_masked(
                net, {"layer0_linear": np.ones((2, 2), dtype=bool)}
            )

    def test_unknown_mask_rejected(self):
        net = init_network(mlp_specs(), seed=27)
        masks = {l.layer_id: np.ones_like(l.weights, dtype=bool) for l in net.prunable_layers}
        masks["ghost"] = np.ones((1, 1), dtype=bool)
        with pytest.raises(ValueError, match="non-prunable or unknown"):
            convert_to_masked(net, masks)


IMAGE_MODEL = [ReLU(), Conv2d(1, 2, 3, 3), Flatten(), Linear(6, 2)]


@pytest.mark.parametrize(
    "specs, data_shape, expected",
    [
        ([ReLU(), Linear(15, 2)], (15,), (15,)),
        ([ReLU(), Linear(15, 2)], (1, 3, 5), (15,)),
        (IMAGE_MODEL, (15,), (15,)),
        (IMAGE_MODEL, (1, 3, 5), (1, 3, 5)),
        ([ReLU(), Linear(15, 2)], None, (15,)),
        (IMAGE_MODEL, None, (1, None, None)),
        ([ReLU(), Flatten()], (1, 3, 5), ValueError),
        ([ReLU(), Flatten()], None, ValueError),
    ],
    ids=[
        "linear-on-rows", "linear-on-images", "conv-on-rows", "conv-on-images",
        "linear-no-data", "conv-no-data", "unweighted-on-images", "unweighted-no-data",
    ],
)
def test_input_shape(specs, data_shape, expected):
    # A conv-first model reads a sample's image as it is, any other its flat features.
    if expected is ValueError:
        with pytest.raises(ValueError, match="^network needs at least one weighted layer$"):
            input_shape(specs, data_shape)
    else:
        assert input_shape(specs, data_shape) == expected


class TestOutputShapes:
    def test_walk_matches_forward_for_every_kind(self):
        # Each chain is walked from a sample shape and run layer by layer on a
        # batch; together the chains cover every layer kind and every conv
        # geometry in GEOMETRIES on a 5x7 input.
        chains = [([ReLU(), Linear(4, 6), ReLU(), Linear(6, 3)], (4,))]
        for c, (kh, kw), stride, padding in GEOMETRIES:
            chains.append(([Conv2d(c, 2, kh, kw, stride, padding), ReLU(), Flatten()], (c, 5, 7)))
        rng = np.random.default_rng(58)
        for specs, sample in chains:
            walked = output_shapes(specs, sample)
            out = rng.normal(size=(2, *sample))
            for layer, shape in zip(init_network(specs, seed=0).layers, walked, strict=True):
                out = layer.forward(out)
                assert out.shape == (2, *shape), (specs, layer.layer_id)
            # The walk from the shape the specs imply agrees wherever it knows a size.
            for implied, known in zip(output_shapes(specs), walked, strict=True):
                assert len(implied) == len(known), specs
                assert all(i in (None, k) for i, k in zip(implied, known)), specs
        covered = {type(spec) for specs, _ in chains for spec in specs}
        assert covered == set(LAYER_KINDS.values())

    def test_first_misfit_is_named(self):
        specs = [Conv2d(1, 2, 3, 3), ReLU(), Conv2d(2, 2, 3, 3), Flatten(), Linear(2, 2)]
        with pytest.raises(ValueError, match=r"^layer2_conv: kernel does not fit a 2x2 input$"):
            output_shapes(specs, (1, 4, 4))
        with pytest.raises(ValueError, match=r"^layer4_linear: input shape \(8,\) does not fit"):
            output_shapes(specs, (1, 6, 6))


class TestFlopsEstimate:
    def test_linear_mac_convention(self):
        net = init_network([Linear(4, 3)], seed=0)
        est = flops_estimate(net, (4,))
        assert est.dense == 24  # 2 * 3 * 4

    def test_half_density_mask_halves_sparse_flops(self):
        net = init_network([Linear(4, 3, prunable=True)], seed=0)
        bits = np.zeros((3, 4), dtype=bool)
        bits.ravel()[:6] = True
        convert_to_masked(net, {"layer0_linear": bits})
        est = flops_estimate(net, (4,))
        assert est.dense == 24
        assert est.sparse == 12

    def test_multi_layer_sum_matches_per_layer(self):
        net = init_network(
            [Conv2d(1, 4, 3, 3, padding=1), ReLU(), Flatten(), Linear(64, 5)], seed=1
        )
        est = flops_estimate(net, (1, 4, 4))
        conv_flops = 2 * (4 * 9) * 16  # kernel MACs at each of 4x4 positions
        linear_flops = 2 * 64 * 5
        assert est.dense == conv_flops + linear_flops
        assert est.sparse == est.dense  # no masks attached

    def test_bad_input_shape_rejected(self):
        net = init_network([Linear(4, 3)], seed=0)
        with pytest.raises(ValueError, match="does not fit"):
            flops_estimate(net, (5,))

    def test_convention_is_fixed_by_the_counting_rule(self):
        est = flops_estimate(init_network([Linear(4, 3)], seed=0), (4,))
        assert est.convention == "2 ops per multiply-accumulate, forward pass, one sample"
        with pytest.raises(TypeError):
            FlopsEstimate(24, 24, convention="1 op per MAC")
