"""Network tests: shape contracts, mask semantics, analytic gradients against
central finite differences, and conv against a direct nested-loop oracle."""

import itertools

import numpy as np
import pytest

import nmfprune.network as network
from nmfprune.masking import Mask
from nmfprune.network import (
    Conv2d,
    Flatten,
    Linear,
    ReLU,
    col2im,
    convert_to_masked,
    count_zero_weights,
    flops_estimate,
    im2col,
    init_network,
    softmax_cross_entropy,
)


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
GEOMETRIES = list(itertools.product((1, 3), ((1, 1), (2, 3), (3, 3)), (1, 2, 3), (0, 1, 2)))


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


class TestIm2col:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(40)
        for c, (kh, kw), stride, padding in GEOMETRIES:
            x = rng.normal(size=(2, c, 5, 7))
            expected = im2col_oracle(x, kh, kw, stride, padding)
            for layout in (x, batch_innermost(x)):
                got = im2col(layout, kh, kw, stride, padding)
                assert np.array_equal(patch_rows(got, 2), expected), (
                    c, kh, kw, stride, padding,
                )

    def test_col2im_is_adjoint_of_im2col(self):
        # <im2col(x), cols> == <x, col2im(cols)> for every geometry.
        rng = np.random.default_rng(41)
        for c, (kh, kw), stride, padding in GEOMETRIES:
            x = rng.normal(size=(2, c, 5, 7))
            unfolded = im2col(x, kh, kw, stride, padding)
            cols = rng.normal(size=unfolded.shape)
            folded = col2im(cols, x.shape, kh, kw, stride, padding)
            assert folded.shape == x.shape
            lhs = np.sum(unfolded * cols)
            rhs = np.sum(x * folded)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0), (c, kh, kw, stride, padding)


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
        bits = np.ones((6, 4))
        bits[2, 1] = 0.0
        masks = {"layer0_linear": Mask("layer0_linear", bits)}
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
        rng = np.random.default_rng(57)
        x = rng.normal(size=(2, 2, 5, 6))
        first_out = first.forward(x, cache=False)
        assert not first_out.flags.c_contiguous
        for layer, spec, inp in [(first, specs[0], x), (second, specs[1], first_out)]:
            layer.bias[:] = rng.normal(size=layer.bias.shape)
            out = layer.forward(inp)
            assert np.max(np.abs(out - direct_conv(inp, layer.weights, layer.bias, spec))) <= 1e-10
            dout = rng.normal(size=out.shape)
            layer.backward(dout, input_grad=False)
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

    def test_col2im_once_per_backward_on_two_conv_network(self, monkeypatch):
        calls = []

        def counting_col2im(*args):
            calls.append(args[1])
            return col2im(*args)

        monkeypatch.setattr(network, "col2im", counting_col2im)
        net = init_network(
            [Conv2d(1, 2, 3, 3, padding=1), ReLU(), Conv2d(2, 3, 3, 3, stride=2, padding=1),
             ReLU(), Flatten(), Linear(48, 2)],
            seed=44,
        )
        rng = np.random.default_rng(45)
        net.forward(rng.normal(size=(2, 1, 8, 8)))
        net.backward(np.array([0, 1]))
        # Only the second conv folds a gradient back, onto the first's output.
        assert calls == [(2, 2, 8, 8)]

    def test_first_layer_computes_no_input_gradient(self, monkeypatch):
        calls = []
        original = network._LinearLayer.input_grad

        def counting(self, dout):
            calls.append(self.layer_id)
            return original(self, dout)

        monkeypatch.setattr(network._LinearLayer, "input_grad", counting)
        net = init_network([Linear(4, 6), ReLU(), Linear(6, 5), ReLU(), Linear(5, 3)], seed=46)
        net.forward(np.random.default_rng(47).normal(size=(3, 4)))
        net.backward(np.array([0, 1, 2]))
        assert calls == ["layer4_linear", "layer2_linear"]
        assert all(l.grad_weights is not None for l in net.weighted_layers)

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
        masks = {
            l.layer_id: Mask(l.layer_id, np.ones_like(l.weights)) for l in net_a.prunable_layers
        }
        convert_to_masked(net_a, masks)
        assert np.array_equal(net_a.forward(x), baseline)

    def test_masked_positions_exactly_zero(self):
        net = init_network(mlp_specs(), seed=20)
        rng = np.random.default_rng(21)
        masks = {
            l.layer_id: Mask(l.layer_id, (rng.random(l.weights.shape) < 0.6).astype(float))
            for l in net.prunable_layers
        }
        convert_to_masked(net, masks)
        for layer in net.masked_layers:
            assert np.all(layer.weights * (1.0 - layer.mask) == 0.0)
            # +0.0, not the -0.0 a multiply by the mask leaves at negative weights.
            assert not np.any(np.signbit(layer.weights[layer.mask == 0.0]))

    def test_non_binary_mask_rejected(self):
        net = init_network(mlp_specs(), seed=28)
        bits = np.ones((6, 4))
        bits[1, 1] = 0.5
        with pytest.raises(ValueError, match="other than 0.0 and 1.0"):
            convert_to_masked(net, {"layer0_linear": Mask("layer0_linear", bits)})

    def test_sparsity_matches_mask_report(self):
        from nmfprune.masking import global_sparsity

        net = init_network([Linear(8, 16), ReLU(), Linear(16, 4)], seed=22)
        rng = np.random.default_rng(23)
        masks = {
            l.layer_id: Mask(l.layer_id, (rng.random(l.weights.shape) < 0.5).astype(float))
            for l in net.prunable_layers
        }
        mask_report = global_sparsity(masks)
        convert_to_masked(net, masks)
        weight_report = count_zero_weights(net)
        assert weight_report.global_zeros == mask_report.global_zeros
        assert weight_report.global_sparsity == mask_report.global_sparsity

    def test_mask_buffer_immutable(self):
        net = init_network(mlp_specs(), seed=24)
        masks = {
            l.layer_id: Mask(l.layer_id, np.ones_like(l.weights)) for l in net.prunable_layers
        }
        convert_to_masked(net, masks)
        with pytest.raises(ValueError):
            net.masked_layers[0].mask[0, 0] = 0.0

    def test_missing_mask_rejected(self):
        net = init_network(mlp_specs(), seed=25)
        with pytest.raises(ValueError, match="missing masks"):
            convert_to_masked(net, {})

    def test_misshapen_mask_rejected(self):
        net = init_network(mlp_specs(), seed=26)
        with pytest.raises(ValueError, match="shape"):
            convert_to_masked(
                net, {"layer0_linear": Mask("layer0_linear", np.ones((2, 2)))}
            )

    def test_unknown_mask_rejected(self):
        net = init_network(mlp_specs(), seed=27)
        masks = {
            l.layer_id: Mask(l.layer_id, np.ones_like(l.weights)) for l in net.prunable_layers
        }
        masks["ghost"] = Mask("ghost", np.ones((1, 1)))
        with pytest.raises(ValueError, match="non-prunable or unknown"):
            convert_to_masked(net, masks)


class TestFlopsEstimate:
    def test_linear_mac_convention(self):
        net = init_network([Linear(4, 3)], seed=0)
        est = flops_estimate(net, (4,))
        assert est.dense_flops == 24  # 2 * 3 * 4

    def test_half_density_mask_halves_sparse_flops(self):
        net = init_network([Linear(4, 3, prunable=True)], seed=0)
        bits = np.zeros((3, 4))
        bits.ravel()[:6] = 1.0
        convert_to_masked(net, {"layer0_linear": Mask("layer0_linear", bits)})
        est = flops_estimate(net, (4,))
        assert est.dense_flops == 24
        assert est.sparse_flops == 12

    def test_multi_layer_sum_matches_per_layer(self):
        net = init_network(
            [Conv2d(1, 4, 3, 3, padding=1), ReLU(), Flatten(), Linear(64, 5)], seed=1
        )
        est = flops_estimate(net, (1, 4, 4))
        conv_flops = 2 * (4 * 9) * 16  # kernel MACs at each of 4x4 positions
        linear_flops = 2 * 64 * 5
        assert est.dense_flops == conv_flops + linear_flops
        assert est.sparse_flops == est.dense_flops  # no masks attached

    def test_bad_input_shape_rejected(self):
        net = init_network([Linear(4, 3)], seed=0)
        with pytest.raises(ValueError, match="does not fit"):
            flops_estimate(net, (5,))
