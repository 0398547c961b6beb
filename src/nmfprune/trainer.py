"""SGD with momentum and weight decay, plus the sparsity-preserving loop.

Every training step runs forward, backward, then the optimizer step. For a
masked weight the step gathers only the kept entries (``layer.kept``) of the
weight and of its gradient, updates them and scatters them back, so the
pruned weights are never written and their gradients never enter an update:
this kept-index step is the paper's gradient masking. Pruned weights enter
training as +0.0 (see ``network.convert_to_masked``) and stay +0.0. A masked
weight's momentum buffer holds its kept entries only. A post-step check
enforces the zero count with no tolerance: the one bool compare
``(weights != 0.0) > mask`` against the layer's read-only bool mask.

A step frees what it will not read again. The update consumes the
gradients: it drops each layer's ``grad_weights`` and ``grad_bias`` once it
has applied them, so a gradient lives from its backward to its update, and
a second update without a backward between raises. The step drops its batch
once the forward has run, and ``run_training`` keeps no reference to it, so
the first weighted layer's cache holds it last and that layer's backward
frees it, before the update.

The loop and ``evaluate`` read their batches through the dataset's
``standardized`` method, so a split stored as integers (IDX pixels) is
standardized one batch at a time and never held as a float64 copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Network, count_zero_weights, input_shape
from .seeds import derive_seed


@dataclass(frozen=True)
class TrainConfig:
    """SGD settings: epochs, batch size, the learning rate and its step
    schedule, momentum and weight decay."""

    epochs: int
    lr: float
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 128
    lr_milestones: tuple[int, ...] = ()
    lr_gamma: float = 0.1

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not self.lr_gamma > 0:
            raise ValueError(f"lr_gamma must be > 0, got {self.lr_gamma}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        ms = tuple(self.lr_milestones)
        object.__setattr__(self, "lr_milestones", ms)
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError(f"lr_milestones must be strictly increasing, got {ms}")
        if ms and ms[0] < 0:
            raise ValueError(f"lr_milestones must be >= 0, got {ms}")
        if ms and ms[-1] >= self.epochs:
            raise ValueError(f"lr_milestones must be < epochs={self.epochs}, got {ms}")


def momentum_buffers(net: Network) -> dict[str, np.ndarray]:
    """Zeroed momentum buffers keyed ``<layer id>.weight`` and ``<layer
    id>.bias``. A masked weight's buffer is flat and holds its kept entries,
    in the order of the layer's ``kept`` indices; every other buffer has its
    parameter's shape."""
    buffers = {}
    for layer in net.weighted_layers:
        buffers[f"{layer.layer_id}.weight"] = (
            np.zeros_like(layer.weights) if layer.kept is None else np.zeros(layer.kept.size)
        )
        buffers[f"{layer.layer_id}.bias"] = np.zeros_like(layer.bias)
    return buffers


@dataclass
class EpochMetrics:
    """One epoch's mean training loss, its accuracies, and the sparsity
    recounted from the weights at its end."""

    epoch: int
    train_loss: float
    train_accuracy: float
    test_accuracy: float
    achieved_sparsity: float  # recomputed from actual weights, not masks
    zero_count: int


@dataclass
class StepResult:
    """One step's mean batch loss, and how many of its ``count`` samples
    the forward classified correctly."""

    loss: float
    correct: int
    count: int


class SparsityViolationError(RuntimeError):
    """A masked weight position became non-zero after an optimizer step."""

    def __init__(self, layer_id: str, indices: np.ndarray):
        self.layer_id = layer_id
        self.indices = indices
        shown = indices[:8].tolist()
        super().__init__(
            f"masked weights became non-zero in layer {layer_id!r} at flat "
            f"indices {shown}{'...' if len(indices) > 8 else ''}"
        )


def sgd_step(net: Network, buffers: dict[str, np.ndarray], lr: float, cfg: TrainConfig) -> None:
    """Momentum SGD over every trainable parameter, biases included, with
    the buffers ``momentum_buffers`` made:

        buf <- momentum * buf + (grad + weight_decay * param)
        param <- param - lr * buf

    A masked weight is updated at its kept indices only; its pruned entries
    are not read or written, and their gradients enter only the check that
    every gradient entry is finite, two reductions with no bool copy.

    The update consumes the gradients: each layer's ``grad_weights`` and
    ``grad_bias`` are None once it is updated, so the next backward makes
    fresh ones, and a second call before it raises.
    """
    for layer in net.weighted_layers:
        if layer.grad_weights is None or layer.grad_bias is None:
            raise RuntimeError(f"no gradients for layer {layer.layer_id!r}: run backward first")
        for key, param, grad, kept in (
            (f"{layer.layer_id}.weight", layer.weights, layer.grad_weights, layer.kept),
            (f"{layer.layer_id}.bias", layer.bias, layer.grad_bias, None),
        ):
            if not (np.isfinite(grad.min()) and np.isfinite(grad.max())):
                bad = np.flatnonzero(~np.isfinite(grad))
                raise FloatingPointError(f"non-finite gradient in {key}: {bad.size} entries, "
                                         f"first at flat index {bad[0]}")
            buf = buffers[key]
            size = param.size if kept is None else kept.size
            if buf.size != size:
                raise RuntimeError(
                    f"momentum buffer of {key} has {buf.size} entries but the parameter "
                    f"updates {size}: build the momentum buffers after attaching masks"
                )
            if kept is None:
                p, g = param, grad
            else:
                flat = param.reshape(-1)  # the kept entries are written back through it
                if not np.shares_memory(flat, param):
                    raise RuntimeError(f"{key} is not contiguous: its update would land in a copy")
                p, g = np.take(flat, kept), np.take(grad, kept)
            buf *= cfg.momentum
            buf += g + cfg.weight_decay * p
            p -= lr * buf
            if kept is not None:
                flat[kept] = p
        layer.grad_weights = layer.grad_bias = None
    net.invalidate_cache()


def masked_train_step(
    net: Network,
    x: np.ndarray,
    y: np.ndarray,
    buffers: dict[str, np.ndarray],
    lr: float,
    cfg: TrainConfig,
) -> StepResult:
    """One training step with strict mask enforcement.

    Order is fixed: forward, backward, then the optimizer step, which updates
    each masked weight at its kept indices only, from the gradient at those
    indices. A non-finite gradient anywhere, at a pruned position too, fails
    the step. Afterwards
    every masked position must hold exactly 0.0 or the step fails hard.

    The step drops ``x`` once the forward has run: a caller that hands the
    batch over without keeping it lets the first weighted layer's backward
    free it.
    """
    logits = net.forward(x)
    del x
    loss = net.backward(y)
    sgd_step(net, buffers, lr, cfg)
    for layer in net.masked_layers:
        violations = np.flatnonzero((layer.weights != 0.0) > layer.mask)
        if violations.size:
            raise SparsityViolationError(layer.layer_id, violations)
    correct = int((logits.argmax(axis=1) == np.asarray(y)).sum())
    return StepResult(loss=loss, correct=correct, count=len(y))


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Learning rate for an epoch: base lr decayed by lr_gamma at each
    milestone already reached."""
    if not 0 <= epoch < cfg.epochs:
        raise ValueError(f"epoch {epoch} outside [0, {cfg.epochs})")
    decays = sum(1 for m in cfg.lr_milestones if m <= epoch)
    return cfg.lr * cfg.lr_gamma**decays


def evaluate(net: Network, dataset, batch_size: int) -> float:
    """Top-1 accuracy on the dataset's test split, read in batches through
    ``dataset.standardized``. The forward keeps no activation cache, and
    callers pass the training batch size, so evaluation never needs more
    memory than one training step."""
    shape = input_shape(net.specs, dataset.sample_shape)
    x, y = dataset.test_x, dataset.test_y
    correct = 0
    for start in range(0, len(x), batch_size):
        batch = dataset.standardized(x[start : start + batch_size]).reshape(-1, *shape)
        logits = net.forward(batch, cache=False)
        correct += int((logits.argmax(axis=1) == y[start : start + batch_size]).sum())
    return correct / len(x)


def run_training(
    net: Network, dataset, cfg: TrainConfig, *, seed: int, on_epoch_end=None
) -> list[EpochMetrics]:
    """Train for cfg.epochs, shuffling each epoch with a stream derived from
    ``seed`` as ``shuffle/<epoch>``.

    Each batch is read through ``dataset.standardized`` and reshaped to the
    model's input shape (``network.input_shape``). Returns one metrics
    record per epoch; the sparsity figures are recounted from the live
    weights every epoch, so any drift would show up here even if the
    per-step assertion were disabled. ``on_epoch_end(epoch, net, metrics)``,
    when given, runs after each epoch (log appending, periodic checkpoints).
    """
    buffers = momentum_buffers(net)
    shape = input_shape(net.specs, dataset.sample_shape)
    n = len(dataset.train_x)
    metrics: list[EpochMetrics] = []
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        rng = np.random.default_rng(derive_seed(seed, "shuffle", epoch))
        perm = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            # The batch is handed over unbound, so the step holds its last reference.
            result = masked_train_step(
                net, dataset.standardized(dataset.train_x[idx]).reshape(-1, *shape),
                dataset.train_y[idx], buffers, lr, cfg,
            )
            loss_sum += result.loss * result.count
            correct += result.correct
        report = count_zero_weights(net)
        epoch_metrics = EpochMetrics(
            epoch=epoch,
            train_loss=loss_sum / n,
            train_accuracy=correct / n,
            test_accuracy=evaluate(net, dataset, cfg.batch_size),
            achieved_sparsity=report.global_sparsity,
            zero_count=report.global_zeros,
        )
        metrics.append(epoch_metrics)
        if on_epoch_end is not None:
            on_epoch_end(epoch, net, epoch_metrics)
    return metrics
