"""Optimizer, masked-step, schedule, and training-loop tests."""

import tracemalloc

import numpy as np
import pytest

from nmfprune.datasets import Dataset
from nmfprune.masking import Mask
from nmfprune.network import Conv2d, Flatten, Linear, ReLU, convert_to_masked, init_network
from nmfprune.trainer import (
    OptimizerState,
    SparsityViolationError,
    TrainConfig,
    evaluate,
    lr_at,
    masked_train_step,
    run_training,
    sgd_step,
)


def small_dataset(seed=0, n=200, features=4, classes=3):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-4.0, 4.0, (classes, features))
    y = rng.integers(0, classes, n)
    x = centers[y] + rng.normal(0.0, 0.5, (n, features))
    split = int(n * 0.8)
    return Dataset(
        train_x=x[:split], train_y=y[:split],
        test_x=x[split:], test_y=y[split:],
        n_classes=classes,
    )


def make_net(seed=0):
    return init_network([Linear(4, 8), ReLU(), Linear(8, 3)], seed=seed)


def set_grads(net, value):
    for layer in net.weighted_layers:
        layer.grad_weights = np.full_like(layer.weights, value)
        layer.grad_bias = np.full_like(layer.bias, value)


def random_masks(net, keep=0.2, seed=0):
    rng = np.random.default_rng(seed)
    return {
        l.layer_id: Mask(l.layer_id, (rng.random(l.weights.shape) < keep).astype(float))
        for l in net.prunable_layers
    }


class TestSgdStep:
    def test_vanilla_step(self):
        net = make_net()
        cfg = TrainConfig(epochs=1, lr=0.5, momentum=0.0, weight_decay=0.0)
        before = net.weighted_layers[0].weights.copy()
        set_grads(net, 2.0)
        sgd_step(net, OptimizerState.for_network(net), 0.5, cfg)
        assert np.allclose(net.weighted_layers[0].weights, before - 0.5 * 2.0, atol=1e-15)

    def test_momentum_buildup(self):
        net = make_net()
        cfg = TrainConfig(epochs=1, lr=0.1, momentum=0.5, weight_decay=0.0)
        state = OptimizerState.for_network(net)
        w = net.weighted_layers[0].weights
        before = w.copy()
        set_grads(net, 1.0)
        sgd_step(net, state, 0.1, cfg)
        after_first = w.copy()
        set_grads(net, 1.0)
        sgd_step(net, state, 0.1, cfg)
        first_delta = before - after_first
        second_delta = after_first - w
        assert np.allclose(first_delta, 0.1 * 1.0, atol=1e-15)
        assert np.allclose(second_delta, 0.1 * 1.0 * 1.5, atol=1e-15)

    def test_decay_only_shrinks_weight(self):
        net = make_net()
        cfg = TrainConfig(epochs=1, lr=0.1, momentum=0.0, weight_decay=0.01)
        w = net.weighted_layers[0].weights
        before = w.copy()
        set_grads(net, 0.0)
        sgd_step(net, OptimizerState.for_network(net), 0.1, cfg)
        assert np.allclose(w, before - 0.1 * 0.01 * before, atol=1e-15)

    def test_nan_gradient_aborts(self):
        net = make_net()
        cfg = TrainConfig(epochs=1, lr=0.1)
        set_grads(net, 1.0)
        net.weighted_layers[0].grad_weights[0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite gradient"):
            sgd_step(net, OptimizerState.for_network(net), 0.1, cfg)

    def test_inf_gradient_reports_count_and_first_index(self):
        net = make_net()
        cfg = TrainConfig(epochs=1, lr=0.1)
        set_grads(net, 1.0)
        grad = net.weighted_layers[0].grad_weights
        grad[0, 3] = np.inf
        grad[2, 1] = -np.inf
        with pytest.raises(
            FloatingPointError,
            match=r"non-finite gradient in layer0_linear.weight: 2 entries, first at flat index 3$",
        ):
            sgd_step(net, OptimizerState.for_network(net), 0.1, cfg)

    def test_masked_step_never_writes_pruned_weights(self):
        net = make_net(seed=36)
        convert_to_masked(net, random_masks(net, keep=0.4, seed=37))
        cfg = TrainConfig(epochs=1, lr=0.1, momentum=0.9, weight_decay=5e-4)
        state = OptimizerState.for_network(net)
        for _ in range(3):
            set_grads(net, 1.0)  # non-zero at the pruned positions too
            sgd_step(net, state, 0.1, cfg)
        layer = net.masked_layers[0]
        pruned = layer.weights[layer.mask == 0.0]
        assert pruned.size and np.all(pruned == 0.0) and not np.any(np.signbit(pruned))
        assert np.all(layer.weights[layer.mask == 1.0] != 0.0)

    def test_masked_buffer_holds_kept_entries_only(self):
        net = make_net(seed=38)
        convert_to_masked(net, random_masks(net, keep=0.4, seed=39))
        state = OptimizerState.for_network(net)
        for layer in net.weighted_layers:
            buf = state.buffers[f"{layer.layer_id}.weight"]
            expected = layer.weights.shape if layer.kept is None else (layer.kept.size,)
            assert buf.shape == expected
            assert state.buffers[f"{layer.layer_id}.bias"].shape == layer.bias.shape

    def test_state_built_before_masks_rejected(self):
        net = make_net(seed=40)
        state = OptimizerState.for_network(net)
        convert_to_masked(net, random_masks(net, keep=0.5, seed=41))
        set_grads(net, 1.0)
        before = [l.weights.copy() for l in net.weighted_layers]
        with pytest.raises(
            RuntimeError, match=r"momentum buffer of layer0_linear.weight has 32 entries"
        ):
            sgd_step(net, state, 0.1, TrainConfig(epochs=1, lr=0.1))
        assert all(np.array_equal(l.weights, w) for l, w in zip(net.weighted_layers, before))

    def test_missing_gradients_rejected(self):
        net = make_net()
        cfg = TrainConfig(epochs=1, lr=0.1)
        with pytest.raises(RuntimeError, match="no gradients"):
            sgd_step(net, OptimizerState.for_network(net), 0.1, cfg)


class TestMaskedTrainStep:
    def test_fully_masked_layer_stays_zero(self):
        net = make_net()
        masks = {
            l.layer_id: Mask(l.layer_id, np.zeros_like(l.weights)) for l in net.prunable_layers
        }
        convert_to_masked(net, masks)
        cfg = TrainConfig(epochs=1, lr=0.1)
        state = OptimizerState.for_network(net)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(size=(16, 4))
            y = rng.integers(0, 3, 16)
            masked_train_step(net, x, y, state, 0.1, cfg)
            assert np.all(net.masked_layers[0].weights == 0.0)

    def test_all_ones_mask_bitwise_identical_to_unmasked(self):
        cfg = TrainConfig(epochs=1, lr=0.1, momentum=0.9, weight_decay=5e-4)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, 8)

        net_plain = make_net(seed=3)
        state_plain = OptimizerState.for_network(net_plain)
        net_plain.forward(x)
        net_plain.backward(y)
        sgd_step(net_plain, state_plain, 0.1, cfg)

        net_masked = make_net(seed=3)
        masks = {
            l.layer_id: Mask(l.layer_id, np.ones_like(l.weights))
            for l in net_masked.prunable_layers
        }
        convert_to_masked(net_masked, masks)
        state_masked = OptimizerState.for_network(net_masked)
        masked_train_step(net_masked, x, y, state_masked, 0.1, cfg)

        for a, b in zip(net_plain.weighted_layers, net_masked.weighted_layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

    def test_zero_count_constant_over_200_steps(self):
        net = make_net(seed=4)
        convert_to_masked(net, random_masks(net, keep=0.2, seed=5))
        cfg = TrainConfig(epochs=1, lr=0.1, momentum=0.9, weight_decay=5e-4)
        state = OptimizerState.for_network(net)
        initial = sum(
            int(np.count_nonzero(l.weights == 0.0)) for l in net.prunable_layers
        )
        rng = np.random.default_rng(6)
        for _ in range(200):
            x = rng.normal(size=(16, 4))
            y = rng.integers(0, 3, 16)
            masked_train_step(net, x, y, state, 0.1, cfg)
            count = sum(
                int(np.count_nonzero(l.weights == 0.0)) for l in net.prunable_layers
            )
            assert count == initial

    def test_masked_gradients_exactly_zero(self):
        net = make_net(seed=7)
        convert_to_masked(net, random_masks(net, keep=0.3, seed=8))
        cfg = TrainConfig(epochs=1, lr=0.1)
        state = OptimizerState.for_network(net)
        rng = np.random.default_rng(9)
        masked_train_step(net, rng.normal(size=(8, 4)), rng.integers(0, 3, 8), state, 0.1, cfg)
        for layer in net.masked_layers:
            assert np.max(np.abs(layer.grad_weights * (1.0 - layer.mask))) == 0.0

    def test_violation_raises_with_layer_and_indices(self):
        net = make_net(seed=10)
        convert_to_masked(net, random_masks(net, keep=0.5, seed=11))
        layer = net.masked_layers[0]
        # The step never writes pruned weights, so a live one stays live.
        state = OptimizerState.for_network(net)
        masked_index = tuple(np.argwhere(layer.mask == 0.0)[0])
        layer.weights[masked_index] = 123.0
        cfg = TrainConfig(epochs=1, lr=0.1, momentum=0.9)
        rng = np.random.default_rng(12)
        with pytest.raises(SparsityViolationError) as err:
            masked_train_step(net, rng.normal(size=(4, 4)), rng.integers(0, 3, 4), state, 0.1, cfg)
        assert err.value.layer_id == layer.layer_id
        assert err.value.indices.tolist() == [np.ravel_multi_index(masked_index, layer.mask.shape)]

    @pytest.mark.parametrize("keep", [0.0, 0.3, 0.9, 1.0])
    def test_kept_index_update_matches_dense_update_bitwise(self, keep):
        specs = [Linear(4, 8), ReLU(), Linear(8, 6), ReLU(), Linear(6, 3)]
        cfg = TrainConfig(epochs=1, lr=0.1, momentum=0.9, weight_decay=5e-4)
        net = init_network(specs, seed=42)
        masks = random_masks(net, keep=keep, seed=43)
        convert_to_masked(net, masks)
        state = OptimizerState.for_network(net)
        # Reference: the dense update over every entry, with masked gradients
        # and weights re-masked before each step.
        ref = init_network(specs, seed=42)
        bits = {lid: m.bits for lid, m in masks.items()}
        for layer in ref.prunable_layers:
            layer.weights[bits[layer.layer_id] == 0.0] = 0.0
        params = [(l, name) for l in ref.weighted_layers for name in ("weights", "bias")]
        bufs = [np.zeros_like(getattr(l, name)) for l, name in params]
        rng = np.random.default_rng(44)
        for _ in range(50):
            x, y = rng.normal(size=(8, 4)), rng.integers(0, 3, 8)
            masked_train_step(net, x, y, state, 0.1, cfg)
            ref.forward(x)
            ref.backward(y)
            for layer in ref.prunable_layers:
                layer.grad_weights *= bits[layer.layer_id]
                layer.weights *= bits[layer.layer_id]
            for (layer, name), buf in zip(params, bufs):
                param = getattr(layer, name)
                grad = layer.grad_weights if name == "weights" else layer.grad_bias
                buf *= cfg.momentum
                buf += grad + cfg.weight_decay * param
                param -= 0.1 * buf
            for a, b in zip(net.weighted_layers, ref.weighted_layers):
                assert a.weights.tobytes() == b.weights.tobytes()
                assert a.bias.tobytes() == b.bias.tobytes()

    def test_non_finite_gradient_at_pruned_position_raises(self):
        net = make_net(seed=30)
        convert_to_masked(net, random_masks(net, keep=0.5, seed=31))
        layer = net.masked_layers[0]
        pruned = int(np.flatnonzero(layer.mask == 0.0)[0])
        backward = net.backward

        def backward_with_inf(y):
            loss = backward(y)
            layer.grad_weights.flat[pruned] = np.inf
            return loss

        net.backward = backward_with_inf
        rng = np.random.default_rng(32)
        with np.errstate(invalid="ignore"), pytest.raises(
            FloatingPointError, match=rf"1 entries, first at flat index {pruned}$"
        ):
            masked_train_step(
                net, rng.normal(size=(4, 4)), rng.integers(0, 3, 4),
                OptimizerState.for_network(net), 0.1, TrainConfig(epochs=1, lr=0.1),
            )

    def test_masked_weights_stay_positive_zero(self):
        net = make_net(seed=33)
        convert_to_masked(net, random_masks(net, keep=0.4, seed=34))
        cfg = TrainConfig(epochs=1, lr=0.1, momentum=0.9, weight_decay=5e-4)
        state = OptimizerState.for_network(net)
        rng = np.random.default_rng(35)
        for _ in range(20):
            masked_train_step(net, rng.normal(size=(8, 4)), rng.integers(0, 3, 8), state, 0.1, cfg)
            for layer in net.masked_layers:
                pruned = layer.weights[layer.mask == 0.0]
                assert np.all(pruned == 0.0) and not np.any(np.signbit(pruned))


class TestLrSchedule:
    def test_paper_structure(self):
        cfg = TrainConfig(epochs=160, lr=0.1, lr_milestones=(80, 120), lr_gamma=0.1)
        assert lr_at(0, cfg) == 0.1
        assert lr_at(79, cfg) == 0.1
        assert lr_at(80, cfg) == pytest.approx(0.01, rel=1e-12)
        assert lr_at(119, cfg) == pytest.approx(0.01, rel=1e-12)
        assert lr_at(120, cfg) == pytest.approx(0.001, rel=1e-12)
        assert lr_at(159, cfg) == pytest.approx(0.001, rel=1e-12)

    def test_no_milestones_constant(self):
        cfg = TrainConfig(epochs=10, lr=0.05)
        assert all(lr_at(e, cfg) == 0.05 for e in range(10))

    def test_epoch_out_of_range_rejected(self):
        cfg = TrainConfig(epochs=10, lr=0.1)
        with pytest.raises(ValueError):
            lr_at(10, cfg)
        with pytest.raises(ValueError):
            lr_at(-1, cfg)

    def test_milestone_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TrainConfig(epochs=10, lr=0.1, lr_milestones=(5, 5))
        with pytest.raises(ValueError, match="< epochs"):
            TrainConfig(epochs=10, lr=0.1, lr_milestones=(5, 10))


class TestRunTraining:
    def test_zero_epochs_empty_metrics(self):
        net = make_net(seed=13)
        before = [l.weights.copy() for l in net.weighted_layers]
        metrics = run_training(net, small_dataset(), TrainConfig(epochs=0, lr=0.1))
        assert metrics == []
        for layer, w in zip(net.weighted_layers, before):
            assert np.array_equal(layer.weights, w)

    def test_deterministic_replay(self):
        cfg = TrainConfig(epochs=3, lr=0.1, batch_size=32, seed=14)
        runs = []
        for _ in range(2):
            net = make_net(seed=15)
            convert_to_masked(net, random_masks(net, keep=0.5, seed=16))
            runs.append(run_training(net, small_dataset(seed=17), cfg))
        assert runs[0] == runs[1]

    def test_sparsity_constant_across_epochs(self):
        net = make_net(seed=18)
        convert_to_masked(net, random_masks(net, keep=0.3, seed=19))
        metrics = run_training(
            net, small_dataset(seed=20), TrainConfig(epochs=4, lr=0.1, batch_size=32, seed=21)
        )
        counts = {m.zero_count for m in metrics}
        assert len(counts) == 1
        sparsities = {m.achieved_sparsity for m in metrics}
        assert len(sparsities) == 1

    def test_all_ones_masks_reproduce_unmasked_run(self):
        cfg = TrainConfig(epochs=3, lr=0.1, momentum=0.9, weight_decay=5e-4, batch_size=32, seed=22)
        data = small_dataset(seed=23)

        net_plain = make_net(seed=24)
        plain = run_training(net_plain, data, cfg)

        net_masked = make_net(seed=24)
        masks = {
            l.layer_id: Mask(l.layer_id, np.ones_like(l.weights))
            for l in net_masked.prunable_layers
        }
        convert_to_masked(net_masked, masks)
        masked = run_training(net_masked, data, cfg)

        assert [m.train_loss for m in plain] == [m.train_loss for m in masked]
        for a, b in zip(net_plain.weighted_layers, net_masked.weighted_layers):
            assert np.array_equal(a.weights, b.weights)

    def test_loss_decreases_on_separable_task(self):
        for keep in (1.0, 0.5, 0.1):
            net = make_net(seed=25)
            convert_to_masked(net, random_masks(net, keep=keep, seed=26))
            metrics = run_training(
                net, small_dataset(seed=27), TrainConfig(epochs=5, lr=0.1, batch_size=32, seed=28)
            )
            assert metrics[-1].train_loss < metrics[0].train_loss


def conv_relu_net(seed):
    """conv, relu, conv (stride 2), relu, flatten, linear on 1x6x6 images."""
    return init_network([
        Conv2d(1, 3, 3, 3, padding=1), ReLU(), Conv2d(3, 4, 3, 3, stride=2, padding=1), ReLU(),
        Flatten(), Linear(4 * 3 * 3, 3),
    ], seed=seed)


def all_ones_masked(net):
    masks = {l.layer_id: Mask(l.layer_id, np.ones_like(l.weights)) for l in net.prunable_layers}
    return convert_to_masked(net, masks)


class TestAllOnesConvMasks:
    """Training a conv net with all-ones masks is bit-identical to training
    it unmasked."""

    def test_masked_step_matches_plain_step(self):
        cfg = TrainConfig(epochs=1, lr=0.1, momentum=0.9, weight_decay=5e-4)
        rng = np.random.default_rng(60)
        x = rng.normal(size=(8, 1, 6, 6))
        y = rng.integers(0, 3, 8)

        net_plain = conv_relu_net(seed=61)
        net_plain.forward(x)
        net_plain.backward(y)
        sgd_step(net_plain, OptimizerState.for_network(net_plain), 0.1, cfg)

        net_masked = all_ones_masked(conv_relu_net(seed=61))
        masked_train_step(net_masked, x, y, OptimizerState.for_network(net_masked), 0.1, cfg)

        for a, b in zip(net_plain.weighted_layers, net_masked.weighted_layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

    def test_two_epoch_run_matches_unmasked_run(self):
        rng = np.random.default_rng(62)
        x = rng.normal(size=(60, 36))
        y = rng.integers(0, 3, 60)
        data = Dataset(
            train_x=x[:48], train_y=y[:48], test_x=x[48:], test_y=y[48:],
            n_classes=3, image_shape=(1, 6, 6),
        )
        cfg = TrainConfig(
            epochs=2, lr=0.05, momentum=0.9, weight_decay=5e-4, batch_size=16, seed=63
        )
        net_plain = conv_relu_net(seed=64)
        plain = run_training(net_plain, data, cfg)
        net_masked = all_ones_masked(conv_relu_net(seed=64))
        masked = run_training(net_masked, data, cfg)

        assert plain == masked
        for a, b in zip(net_plain.weighted_layers, net_masked.weighted_layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)


def small_conv_net(seed):
    return init_network([
        Conv2d(1, 8, 3, 3, padding=1), ReLU(), Conv2d(8, 16, 3, 3, stride=2, padding=1), ReLU(),
        Flatten(), Linear(16 * 7 * 7, 10),
    ], seed=seed)


class TestEvaluate:
    def test_accuracy_independent_of_batch_size(self):
        net = small_conv_net(seed=29)
        rng = np.random.default_rng(30)
        x = rng.normal(size=(70, 1, 14, 14))
        y = rng.integers(0, 10, 70)
        expected = np.mean(net.forward(x).argmax(axis=1) == y)
        assert 0.0 < expected < 1.0
        for batch_size in (1, 7, 64):
            assert evaluate(net, x, y, batch_size) == expected
        with pytest.raises(RuntimeError, match="stale"):
            net.backward(y[-6:])  # evaluation left no cache behind

    def test_peak_memory_within_one_training_step(self):
        batch = 32
        net = small_conv_net(seed=31)
        rng = np.random.default_rng(32)
        x = rng.normal(size=(200, 1, 14, 14))
        y = rng.integers(0, 10, 200)
        cfg = TrainConfig(epochs=1, lr=0.01, batch_size=batch)
        state = OptimizerState.for_network(net)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]

            def peak(fn):
                tracemalloc.reset_peak()
                fn()
                return tracemalloc.get_traced_memory()[1] - base

            # The first step also allocates the gradient buffers; measure the second.
            masked_train_step(net, x[:batch], y[:batch], state, 0.01, cfg)
            step = peak(lambda: masked_train_step(net, x[:batch], y[:batch], state, 0.01, cfg))
            evaluation = peak(lambda: evaluate(net, x, y, batch))
        finally:
            tracemalloc.stop()
        assert evaluation <= step
