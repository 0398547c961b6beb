"""Small feedforward networks with maskable linear and conv layers.

Backpropagation is written out by hand. Linear and conv layers multiply by
one 2D weight view (out x fan_in), the same array used for scoring and
masking. The first weighted layer computes no input gradient. Losses are
softmax cross-entropy with mean reduction over the batch.

A linear layer computes x @ W.T on (N, features) rows. Conv activations are
stored batch-innermost, as (C, H, W, N) memory, and handed on as (N, C, H, W)
views of it. A conv layer unfolds its input into a (C*kh*kw, out_h*out_w*N)
patch matrix and computes W @ patches, so the unfolding, both gradient GEMMs,
the bias gradient (a sum along contiguous rows) and the fold of the input
gradient all run over N-long contiguous runs. ReLU keeps its input's layout,
and Flatten's (N, C*H*W) reshape of it is a view too (C, H and W stay
adjacent), so a linear layer after a conv reads its input column-major.

A training forward caches what backward needs (im2col patches, ReLU masks,
logits) and backward releases each cache as it uses it; an evaluation forward
caches nothing. A Network instance is single-writer: forward/backward mutate
per-layer caches and gradient buffers, so one instance must not be driven from
two threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .masking import Mask, SparsityReport, sparsity_report
from .seeds import derive_seed


@dataclass(frozen=True)
class Linear:
    in_features: int
    out_features: int
    # None resolves to True unless this is the network's last weighted layer
    # (the final classifier stays dense by default).
    prunable: bool | None = None

    def __post_init__(self):
        if self.in_features < 1 or self.out_features < 1:
            raise ValueError(f"Linear dimensions must be positive, got {self}")


@dataclass(frozen=True)
class Conv2d:
    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: int = 0
    prunable: bool | None = None

    def __post_init__(self):
        if min(self.in_channels, self.out_channels, self.kernel_h, self.kernel_w) < 1:
            raise ValueError(f"Conv2d dimensions must be positive, got {self}")
        if self.stride < 1 or self.padding < 0:
            raise ValueError(f"Conv2d stride/padding invalid: {self}")


@dataclass(frozen=True)
class ReLU:
    pass


@dataclass(frozen=True)
class Flatten:
    pass


LayerSpec = Union[Linear, Conv2d, ReLU, Flatten]

# The layer kinds by the names config files and checkpoints give them. A
# spec's fields without a default are its required arguments.
LAYER_KINDS: dict[str, type] = {
    "linear": Linear, "conv2d": Conv2d, "relu": ReLU, "flatten": Flatten,
}


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Unfold an (N, C, H, W) batch, in any memory layout, into a contiguous
    (C*kh*kw, out_h*out_w*N) patch matrix: rows in (channel, kernel row,
    kernel column) order, columns in (output row, output column, sample)
    order. The sample is the innermost axis, so the copy runs along N-long
    rows, and a batch already stored as (C, H, W, N) is read in order."""
    n, c = x.shape[:2]
    img = x.transpose(1, 2, 3, 0)
    if padding:
        img = np.pad(img, [(0, 0), (padding, padding), (padding, padding), (0, 0)])
    windows = sliding_window_view(img, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    out_h, out_w = windows.shape[1:3]
    return windows.transpose(0, 4, 5, 1, 2, 3).reshape(c * kh * kw, out_h * out_w * n)


def col2im(
    cols: np.ndarray, x_shape: tuple, kh: int, kw: int, stride: int, padding: int
) -> np.ndarray:
    """Fold patch gradients in im2col's layout (C*kh*kw, out_h*out_w*N) back
    onto the (N, C, H, W) input, accumulating where patches overlap. The
    image is built as (C, H, W, N), so each of the kh*kw strided adds runs
    over N-long rows; the result is an (N, C, H, W) view of it."""
    n, c, h, w = x_shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    planes = cols.reshape(c, kh, kw, out_h, out_w, n)
    img = np.zeros((c, h + 2 * padding, w + 2 * padding, n))
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            img[:, i:i_max:stride, j:j_max:stride] += planes[:, i, j]
    return img[:, padding : padding + h, padding : padding + w].transpose(3, 0, 1, 2)


class _WeightedLayer:
    """Weights (out x fan_in) and a bias, their gradient buffers, and the
    mask that linear and conv layers share."""

    def __init__(self, layer_id, spec, prunable: bool, rng, fan_in: int, fan_out: int):
        self.layer_id = layer_id
        self.spec = spec
        self.prunable = prunable
        bound = np.sqrt(6.0 / fan_in)  # Kaiming uniform
        self.weights = rng.uniform(-bound, bound, (fan_out, fan_in))
        self.bias = np.zeros(fan_out)
        self.grad_weights: np.ndarray | None = None
        self.grad_bias: np.ndarray | None = None
        self.mask: np.ndarray | None = None
        self.kept: np.ndarray | None = None  # flat indices of the mask's 1.0 entries
        self._cols: np.ndarray | None = None  # the input rows (or patches) backward reads

    def attach_mask(self, bits: np.ndarray) -> int:
        """Freeze a copy of ``bits`` as this layer's mask, and its kept flat
        indices as ``kept``, and write +0.0 at its pruned positions. Returns
        how many of those weights were non-zero before."""
        if bits.shape != self.weights.shape:
            raise ValueError(
                f"mask shape {bits.shape} does not match weights "
                f"{self.weights.shape} for layer {self.layer_id!r}"
            )
        mask = np.array(bits, dtype=np.float64)
        pruned = mask == 0.0
        if not np.all(pruned | (mask == 1.0)):
            raise ValueError(f"mask of {self.layer_id!r} holds values other than 0.0 and 1.0")
        kept = np.flatnonzero(mask)
        mask.flags.writeable = False
        kept.flags.writeable = False
        self.mask = mask
        self.kept = kept
        live = int(np.count_nonzero(self.weights[pruned]))
        self.weights[pruned] = 0.0
        return live


class _LinearLayer(_WeightedLayer):
    kind = "linear"

    def __init__(self, layer_id: str, spec: Linear, prunable: bool, rng: np.random.Generator):
        super().__init__(layer_id, spec, prunable, rng, spec.in_features, spec.out_features)

    def output_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        n = self.spec.in_features
        if shape != (n,):
            raise ValueError(f"{self.layer_id}: input shape {shape} does not fit {n} features")
        return (self.spec.out_features,)

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        self.output_shape(x.shape[1:])  # raises on an input that does not fit
        self._cols = x if cache else None
        out = x @ self.weights.T
        out += self.bias
        return out

    def backward(self, dout: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Fill the parameter gradients and release the forward cache; return
        the input gradient unless ``input_grad`` is false (the first weighted
        layer has no use for it)."""
        self.grad_weights = dout.T @ self._cols
        self._cols = None
        self.grad_bias = dout.sum(axis=0)
        return self.input_grad(dout) if input_grad else None

    def input_grad(self, dout: np.ndarray) -> np.ndarray:
        return dout @ self.weights


class _ConvLayer(_WeightedLayer):
    kind = "conv"

    def __init__(self, layer_id: str, spec: Conv2d, prunable: bool, rng: np.random.Generator):
        fan_in = spec.in_channels * spec.kernel_h * spec.kernel_w
        super().__init__(layer_id, spec, prunable, rng, fan_in, spec.out_channels)
        self._x_shape: tuple | None = None

    def output_hw(self, h: int, w: int) -> tuple[int, int]:
        s = self.spec
        out_h = (h + 2 * s.padding - s.kernel_h) // s.stride + 1
        out_w = (w + 2 * s.padding - s.kernel_w) // s.stride + 1
        if out_h < 1 or out_w < 1:
            raise ValueError(f"{self.layer_id}: kernel does not fit a {h}x{w} input")
        return out_h, out_w

    def output_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(shape) != 3 or shape[0] != self.spec.in_channels:
            raise ValueError(f"{self.layer_id}: input shape {shape} does not fit")
        return (self.spec.out_channels, *self.output_hw(shape[1], shape[2]))

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """Return an (N, C_out, out_h, out_w) view of (C_out, out_h, out_w, N)
        memory: the layout the next conv's im2col reads in order."""
        s = self.spec
        _, out_h, out_w = self.output_shape(x.shape[1:])
        self._x_shape = x.shape
        cols = im2col(x, s.kernel_h, s.kernel_w, s.stride, s.padding)
        self._cols = cols if cache else None
        out = self.weights @ cols
        out += self.bias[:, None]
        return out.reshape(s.out_channels, out_h, out_w, x.shape[0]).transpose(3, 0, 1, 2)

    def backward(self, dout: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """As the linear layer's, over (C_out, out_h*out_w*N) gradient rows.
        ``dout`` arrives in this layer's output layout (ReLU backward keeps
        its forward input's layout), so flattening it is a view."""
        s = self.spec
        dout_t = dout.transpose(1, 2, 3, 0).reshape(s.out_channels, -1)
        self.grad_weights = dout_t @ self._cols.T
        self._cols = None
        self.grad_bias = dout_t.sum(axis=1)
        if not input_grad:
            return None
        cols = self.weights.T @ dout_t
        return col2im(cols, self._x_shape, s.kernel_h, s.kernel_w, s.stride, s.padding)


class _ReLULayer:
    kind = "relu"
    prunable = False

    def __init__(self, layer_id: str):
        self.layer_id = layer_id
        self._active: np.ndarray | None = None

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        # Out of place: x may be a slice of the caller's array.
        self._active = x > 0 if cache else None
        return np.maximum(x, 0.0)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        # In the forward input's memory layout: the multiply then runs over
        # matching layouts, and a conv before this layer flattens it for free.
        active, self._active = self._active, None
        grad = np.empty_like(active, dtype=np.float64)
        np.copyto(grad, dout)
        grad *= active
        return grad

    def output_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        return shape


class _FlattenLayer:
    kind = "flatten"
    prunable = False

    def __init__(self, layer_id: str):
        self.layer_id = layer_id
        self._x_shape: tuple | None = None

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout.reshape(self._x_shape)

    def output_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        return (math.prod(shape),)


_LAYER_CLASSES = {
    Linear: _LinearLayer, Conv2d: _ConvLayer, ReLU: _ReLULayer, Flatten: _FlattenLayer,
}


def _validate_chain(specs: list[LayerSpec]) -> None:
    """Reject statically detectable shape breaks between consecutive layers.

    Tracks whether the data flowing between layers is a feature vector or an
    image stack; ReLU preserves either, Flatten turns images into vectors.
    Spatial sizes depend on the input and are checked at forward time.
    """
    state: tuple[str, int | None] | None = None  # ("vec", features) or ("img", channels)
    prev: LayerSpec | None = None
    for spec in specs:
        if isinstance(spec, (Linear, Conv2d)):
            kind, unit, n_in, n_out = (
                ("vec", "features", spec.in_features, spec.out_features)
                if isinstance(spec, Linear)
                else ("img", "channels", spec.in_channels, spec.out_channels)
            )
            if state is not None and state[0] != kind:
                hint = " (flatten first)" if kind == "vec" else ""
                raise ValueError(f"incompatible layer pair: {prev} -> {spec}{hint}")
            if state is not None and state[1] not in (None, n_in):
                raise ValueError(
                    f"incompatible layer pair: {prev} -> {spec} "
                    f"({state[1]} {unit} flow into in_{unit}={n_in})"
                )
            state = (kind, n_out)
        elif isinstance(spec, Flatten) and (state is None or state[0] == "img"):
            state = ("vec", None)
        # ReLU preserves whatever state holds.
        prev = spec


class Network:
    """Ordered layer stack with cached activations for one backward pass."""

    def __init__(self, layers: list, specs: list[LayerSpec], seed: int):
        self.layers = layers
        self.specs = specs
        self.seed = seed
        # Backward stops at the first weighted layer; nothing before it caches.
        self._first = next(i for i, l in enumerate(layers) if isinstance(l, _WeightedLayer))
        self._logits: np.ndarray | None = None
        self._batch_size: int | None = None
        self._cache_fresh = False

    @property
    def input_kind(self) -> str:
        """"image" when the first weighted layer is a conv, else "vector"."""
        return "image" if isinstance(self.weighted_layers[0], _ConvLayer) else "vector"

    @property
    def weighted_layers(self) -> list:
        return [l for l in self.layers if isinstance(l, _WeightedLayer)]

    @property
    def prunable_layers(self) -> list:
        return [l for l in self.weighted_layers if l.prunable]

    @property
    def masked_layers(self) -> list:
        return [l for l in self.weighted_layers if l.mask is not None]

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """Run the batch through every layer and return the logits.

        With ``cache`` (a training forward) each layer from the first weighted
        one on keeps what backward needs, until backward releases it. With
        ``cache=False`` (evaluation) no layer keeps anything and the cache is
        stale, so a backward after it raises.
        """
        x = np.asarray(x, dtype=np.float64)
        out = x
        for i, layer in enumerate(self.layers):
            out = layer.forward(out, cache=cache and i >= self._first)
        if out.ndim != 2:
            raise ValueError(f"network output must be 2D logits, got shape {out.shape}")
        self._logits = out if cache else None
        self._batch_size = x.shape[0]
        self._cache_fresh = cache
        return out

    def backward(self, labels: np.ndarray) -> float:
        """Backprop mean softmax cross-entropy; fills every layer's gradient
        buffers and returns the batch loss. The first weighted layer computes
        no input gradient, and the layers before it run no backward. Each
        cache is released as it is used, so the cache is stale afterwards."""
        if not self._cache_fresh:
            raise RuntimeError("stale forward cache: call forward() after any weight update")
        labels = np.asarray(labels)
        if labels.shape[0] != self._batch_size:
            raise ValueError(
                f"labels length {labels.shape[0]} does not match cached batch "
                f"of {self._batch_size}"
            )
        logits, self._logits = self._logits, None
        self._cache_fresh = False
        loss, grad = softmax_cross_entropy(logits, labels)
        for layer in reversed(self.layers[self._first + 1 :]):
            grad = layer.backward(grad)
        self.layers[self._first].backward(grad, input_grad=False)
        return loss

    def invalidate_cache(self) -> None:
        self._cache_fresh = False


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits."""
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = float(-log_probs[np.arange(n), labels].mean())
    dlogits = np.exp(log_probs)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits


def init_network(specs: list[LayerSpec], seed: int) -> Network:
    """Build a network from layer specs with seeded fan-in-scaled uniform
    weights and zero biases.

    The last weighted layer defaults to non-prunable (it is the classifier);
    pass an explicit ``prunable=`` on the spec to override either direction.
    """
    specs = list(specs)
    weighted_positions = [i for i, s in enumerate(specs) if isinstance(s, (Linear, Conv2d))]
    if not weighted_positions:
        raise ValueError("network needs at least one weighted layer")
    _validate_chain(specs)

    last_weighted = weighted_positions[-1]
    rng = np.random.default_rng(derive_seed(seed, "init"))
    layers: list = []
    for i, spec in enumerate(specs):
        cls = _LAYER_CLASSES.get(type(spec))
        if cls is None:
            raise ValueError(f"unknown layer spec {spec!r}")
        layer_id = f"layer{i}_{cls.kind}"
        if issubclass(cls, _WeightedLayer):
            prunable = spec.prunable if spec.prunable is not None else i != last_weighted
            layers.append(cls(layer_id, spec, prunable, rng))
        else:
            layers.append(cls(layer_id))
    return Network(layers, specs, seed)


def convert_to_masked(net: Network, masks: dict[str, Mask]) -> Network:
    """Attach immutable masks to every prunable layer and write +0.0 at the
    pruned weights (in place). Returns ``net``.

    Every prunable layer must have a shape-matching mask; masks naming
    non-prunable or unknown layers are rejected.
    """
    prunable_ids = {l.layer_id for l in net.prunable_layers}
    unknown = set(masks) - prunable_ids
    if unknown:
        raise ValueError(f"masks for non-prunable or unknown layers: {sorted(unknown)}")
    missing = prunable_ids - set(masks)
    if missing:
        raise ValueError(f"missing masks for prunable layers: {sorted(missing)}")
    for layer in net.prunable_layers:
        layer.attach_mask(masks[layer.layer_id].bits)
    net.invalidate_cache()
    return net


def count_zero_weights(net: Network) -> SparsityReport:
    """Sparsity recomputed from the actual weight values of prunable layers
    (not from masks)."""
    prunable = net.prunable_layers
    if not prunable:
        raise ValueError("network has no prunable layers")
    return sparsity_report({layer.layer_id: layer.weights for layer in prunable})


@dataclass(frozen=True)
class FlopsEstimate:
    dense_flops: int
    sparse_flops: int


def flops_estimate(net: Network, input_shape: tuple[int, ...]) -> FlopsEstimate:
    """Forward-pass FLOPs for one sample at 2 ops per multiply-accumulate.

    ``input_shape`` excludes the batch dimension: (features,) for vector
    input, (channels, height, width) for images. The sparse figure counts
    only multiply-accumulates whose weight survives the layer's mask, so a
    layer without a mask contributes its dense cost. Bias additions and
    activations are not counted.
    """
    shape = tuple(int(d) for d in input_shape)
    dense = 0
    sparse = 0
    for layer in net.layers:
        out = layer.output_shape(shape)
        if isinstance(layer, _WeightedLayer):
            positions = math.prod(out[1:])  # output pixels of a conv, 1 for a linear layer
            kept = layer.weights.size if layer.kept is None else layer.kept.size
            dense += 2 * layer.weights.size * positions
            sparse += 2 * kept * positions
        shape = out
    return FlopsEstimate(dense_flops=dense, sparse_flops=sparse)
