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
adjacent), so a linear layer after a conv reads its input column-major; it
hands its input gradient back column-major too, so every gradient reaches
its ReLU in the ReLU's forward layout.

A masked layer holds its mask as a read-only bool array (1 byte per weight,
``writeable`` off) with the flat indices of its kept weights beside it.

im2col copies each kernel offset's window straight into the one patch
matrix, and col2im adds each offset's in-bounds window into an unpadded image,
so neither holds a padded copy.

A training forward caches what backward needs (layer inputs, im2col patches,
ReLU masks, logits) and backward releases each cache as it uses it; an
evaluation forward caches nothing. A conv caches its patches, except the
network's first weighted layer: it caches its input, the batch, which costs
no copy, and backward unfolds it again. A training step hands the batch over
and keeps no reference, so that cache is its last holder. Every other
array is freed at its last use: Network hands each layer its input as the
only reference it holds, and a layer drops its own reference once it has
read it, so an activation or gradient dies inside the call that last reads
it (from CPython 3.11 on, where a call hands its arguments over to the
callee). A Network instance is single-writer: forward/backward mutate
per-layer caches and gradient buffers, so one instance must not be driven
from two threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .masking import SparsityReport, sparsity_report
from .seeds import derive_seed


@dataclass(frozen=True)
class Linear:
    """A fully connected layer, ``x @ W.T + b`` with W of shape
    (out_features, in_features)."""

    in_features: int
    out_features: int
    # None resolves to True unless this is the network's last weighted layer
    # (the final classifier stays dense by default).
    prunable: bool | None = None

    def __post_init__(self):
        if self.in_features < 1 or self.out_features < 1:
            raise ValueError(f"Linear dimensions must be positive, got {self}")

    @property
    def weight_shape(self) -> tuple[int, int]:
        return (self.out_features, self.in_features)

    def output_shape(self, shape: tuple) -> tuple:
        if shape not in ((self.in_features,), (None,)):
            raise ValueError(f"input shape {shape} does not fit {self.in_features} features")
        return (self.out_features,)


@dataclass(frozen=True)
class Conv2d:
    """A 2D convolution, its stride and zero padding the same along both
    axes; its weights are one (out_channels, in_channels*kernel_h*kernel_w)
    matrix."""

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

    @property
    def weight_shape(self) -> tuple[int, int]:
        return (self.out_channels, self.in_channels * self.kernel_h * self.kernel_w)

    def output_shape(self, shape: tuple) -> tuple:
        if len(shape) != 3 or shape[0] != self.in_channels:
            raise ValueError(f"input shape {shape} does not fit {self.in_channels}-channel images")
        _, h, w = shape
        if h is None:
            return (self.out_channels, None, None)
        out_h = (h + 2 * self.padding - self.kernel_h) // self.stride + 1
        out_w = (w + 2 * self.padding - self.kernel_w) // self.stride + 1
        if out_h < 1 or out_w < 1:
            raise ValueError(f"kernel does not fit a {h}x{w} input")
        return (self.out_channels, out_h, out_w)


@dataclass(frozen=True)
class ReLU:
    """An elementwise ``max(x, 0)``."""

    def output_shape(self, shape: tuple) -> tuple:
        return shape


@dataclass(frozen=True)
class Flatten:
    """Each sample's (C, H, W) values as one row of C*H*W features."""

    def output_shape(self, shape: tuple) -> tuple:
        return (None,) if None in shape else (math.prod(shape),)


# A spec's output_shape maps one sample's shape to its output's; see output_shapes.
LayerSpec = Union[Linear, Conv2d, ReLU, Flatten]

# The layer kinds by the names config files and checkpoints give them. A
# spec's fields without a default are its required arguments.
LAYER_KINDS: dict[str, type] = {
    "linear": Linear, "conv2d": Conv2d, "relu": ReLU, "flatten": Flatten,
}


def _in_bounds(k: int, size: int, out: int, stride: int, padding: int) -> tuple[slice, slice]:
    """Along one axis, for kernel offset ``k``: the outputs ``o`` whose input
    index ``o*stride + k - padding`` lies inside ``[0, size)``, as a slice of
    the outputs and the matching strided slice of the input. Both are empty
    when the offset reads padding only."""
    lo = max(0, -((k - padding) // stride))  # ceil((padding - k) / stride)
    hi = max(lo, min(out, (size - 1 + padding - k) // stride + 1))
    first = lo * stride + k - padding
    return slice(lo, hi), slice(first, first + (hi - lo) * stride, stride)


def im2col(x: np.ndarray, spec: Conv2d) -> np.ndarray:
    """Unfold an (N, C, H, W) batch, in any memory layout, into the conv
    ``spec``'s contiguous (C*kh*kw, out_h*out_w*N) patch matrix: rows in
    (channel, kernel row, kernel column) order, columns in (output row,
    output column, sample) order. Each kernel offset's strided window of the
    input is copied straight into its rows of the one output buffer, and
    only the border strips that fall in the padding are zero-filled: no
    padded copy of the input is made. The sample is the innermost axis, so
    the copies run along N-long rows. A batch already stored as
    (C, H, W, N), as a conv's output is, is read in place; any other layout
    is first copied to it once, which is faster than gathering each window
    across the layout."""
    n, c, h, w = x.shape
    kh, kw, stride, padding = spec.kernel_h, spec.kernel_w, spec.stride, spec.padding
    _, out_h, out_w = spec.output_shape((c, h, w))
    img = np.ascontiguousarray(x.transpose(1, 2, 3, 0))
    cols = np.empty((c, kh, kw, out_h, out_w, n), dtype=x.dtype)
    for i in range(kh):
        rows_out, rows_in = _in_bounds(i, h, out_h, stride, padding)
        for j in range(kw):
            cols_out, cols_in = _in_bounds(j, w, out_w, stride, padding)
            plane = cols[:, i, j]
            plane[:, : rows_out.start] = 0.0
            plane[:, rows_out.stop :] = 0.0
            plane[:, rows_out, : cols_out.start] = 0.0
            plane[:, rows_out, cols_out.stop :] = 0.0
            plane[:, rows_out, cols_out] = img[:, rows_in, cols_in]
    return cols.reshape(c * kh * kw, out_h * out_w * n)


def col2im(cols: np.ndarray, x_shape: tuple, spec: Conv2d) -> np.ndarray:
    """Fold patch gradients in im2col's layout (C*kh*kw, out_h*out_w*N) back
    onto the conv ``spec``'s (N, C, H, W) input, accumulating where patches
    overlap. The image is built unpadded as (C, H, W, N): each of the kh*kw
    kernel offsets adds its in-bounds window, in (kernel row, kernel column)
    order, so every element receives its adds in that order, and each
    strided add runs over N-long rows. The result is an (N, C, H, W) view
    of it."""
    n, c, h, w = x_shape
    kh, kw, stride, padding = spec.kernel_h, spec.kernel_w, spec.stride, spec.padding
    _, out_h, out_w = spec.output_shape((c, h, w))
    planes = cols.reshape(c, kh, kw, out_h, out_w, n)
    img = np.zeros((c, h, w, n))
    for i in range(kh):
        rows_out, rows_in = _in_bounds(i, h, out_h, stride, padding)
        for j in range(kw):
            cols_out, cols_in = _in_bounds(j, w, out_w, stride, padding)
            img[:, rows_in, cols_in] += planes[:, i, j, rows_out, cols_out]
    return img.transpose(3, 0, 1, 2)


class _WeightedLayer:
    """The weights (its spec's ``weight_shape``) and bias it is handed, their
    gradient buffers, and the mask that linear and conv layers share."""

    def __init__(self, layer_id: str, spec, prunable: bool, weights: np.ndarray,
                 bias: np.ndarray):
        self.layer_id = layer_id
        self.spec = spec
        self.prunable = prunable
        self.weights = weights
        self.bias = bias
        self.grad_weights: np.ndarray | None = None
        self.grad_bias: np.ndarray | None = None
        self.mask: np.ndarray | None = None  # read-only bool, True where kept
        self.kept: np.ndarray | None = None  # flat indices of the mask's True entries
        # Set by Network on its first weighted layer, whose input gradient
        # nothing reads and whose input, the batch, it caches uncopied.
        self.first = False
        self._cols: np.ndarray | None = None  # the input (or a conv's patches) backward reads

    def attach_mask(self, bits: np.ndarray) -> int:
        """Freeze ``bits``, a bool array that is True where a weight is kept,
        as this layer's mask (a read-only copy) and its kept flat indices as
        ``kept``, and write +0.0 at its pruned positions. Any other dtype is
        rejected. Returns how many of the pruned weights were non-zero before."""
        if bits.dtype != np.bool_:
            raise ValueError(f"mask of {self.layer_id!r} is {bits.dtype}, not a bool array")
        if bits.shape != self.weights.shape:
            raise ValueError(
                f"mask shape {bits.shape} does not match weights "
                f"{self.weights.shape} for layer {self.layer_id!r}"
            )
        mask = bits.copy()
        kept = np.flatnonzero(mask)
        mask.flags.writeable = False
        kept.flags.writeable = False
        self.mask = mask
        self.kept = kept
        # (weights != 0.0) > mask, in one bool buffer freed before the ~mask one.
        pruned_live = self.weights != 0.0
        np.greater(pruned_live, mask, out=pruned_live)
        live = int(np.count_nonzero(pruned_live))
        del pruned_live
        np.copyto(self.weights, 0.0, where=~mask)
        return live


class _LinearLayer(_WeightedLayer):
    kind = "linear"

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        self.spec.output_shape(x.shape[1:])  # raises on an input that does not fit
        self._cols = x if cache else None
        out = x @ self.weights.T
        out += self.bias
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray | None:
        """Fill the parameter gradients and release the forward cache; return
        the input gradient, unless this is the first weighted layer, in its
        input's layout: column-major after a Flatten of conv activations, so
        the ReLU before it multiplies in place."""
        x, self._cols = self._cols, None
        self.grad_weights = np.matmul(dout.T, x, out=self.grad_weights)
        self.grad_bias = dout.sum(axis=0)
        if self.first:
            return None
        row_major = x.flags.c_contiguous
        del x  # freed before the input gradient is made
        return dout @ self.weights if row_major else (self.weights.T @ dout.T).T


class _ConvLayer(_WeightedLayer):
    kind = "conv"

    def output_hw(self, h: int, w: int) -> tuple[int, int]:
        return self.spec.output_shape((self.spec.in_channels, h, w))[1:]

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """Return an (N, C_out, out_h, out_w) view of (C_out, out_h, out_w, N)
        memory: the layout the next conv's im2col reads in order. A training
        forward caches the patches, or, in the first weighted layer, the
        input itself, not its kh*kw times larger patch matrix; the caller
        must not write that input before backward."""
        s = self.spec
        _, out_h, out_w = s.output_shape(x.shape[1:])
        self._x_shape = x.shape
        cols = im2col(x, s)
        self._cols = (x if self.first else cols) if cache else None
        del x  # freed once unfolded, unless cached above
        out = self.weights @ cols
        out += self.bias[:, None]
        return out.reshape(s.out_channels, out_h, out_w, -1).transpose(3, 0, 1, 2)

    def backward(self, dout: np.ndarray) -> np.ndarray | None:
        """As the linear layer's, over (C_out, out_h*out_w*N) gradient rows.
        ``dout`` arrives in this layer's output layout (ReLU backward keeps
        its forward input's layout), so flattening it is a view. The first
        weighted layer unfolds its cached input again: im2col is a pure
        copy, so the weight gradient has the bits cached patches give."""
        s = self.spec
        dout_t = dout.transpose(1, 2, 3, 0).reshape(s.out_channels, -1)
        del dout  # dout_t is a view of it
        cols = im2col(self._cols, s) if self.first else self._cols
        self._cols = None
        self.grad_weights = np.matmul(dout_t, cols.T, out=self.grad_weights)
        del cols  # released before the patch gradient is made
        self.grad_bias = dout_t.sum(axis=1)
        if self.first:
            return None
        dcols = self.weights.T @ dout_t
        del dout_t  # freed before col2im allocates the image
        return col2im(dcols, self._x_shape, s)


class _ReLULayer:
    kind = "relu"

    def __init__(self, layer_id: str):
        self.layer_id = layer_id
        self._active: np.ndarray | None = None

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        # Out of place: x may be a slice of the caller's array.
        self._active = x > 0 if cache else None
        return np.maximum(x, 0.0)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        # Into dout, which every layer after this hands back in the forward
        # input's layout (a multiply across two layouts is slow).
        active, self._active = self._active, None
        return np.multiply(dout, active, out=dout)


class _FlattenLayer:
    kind = "flatten"

    def __init__(self, layer_id: str):
        self.layer_id = layer_id
        self._x_shape: tuple | None = None

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout.reshape(self._x_shape)


_LAYER_CLASSES = {
    Linear: _LinearLayer, Conv2d: _ConvLayer, ReLU: _ReLULayer, Flatten: _FlattenLayer,
}


def input_shape(specs: list[LayerSpec], data_shape: tuple | None = None) -> tuple:
    """The shape (no batch axis) a model of ``specs`` reads one sample in: a
    conv-first model reads a (channels, height, width) ``data_shape`` as it
    is, any other model its flat features. Without data, the shape the first
    weighted layer implies: (in_features,), or (in_channels, None, None) for
    a conv, where None is a size not yet known."""
    first = next((s for s in specs if isinstance(s, (Linear, Conv2d))), None)
    if first is None:
        raise ValueError("network needs at least one weighted layer")
    conv = isinstance(first, Conv2d)
    if data_shape is None:
        return (first.in_channels, None, None) if conv else (first.in_features,)
    if conv and len(data_shape) == 3:
        return tuple(data_shape)
    return (math.prod(data_shape),)


def output_shapes(specs: list[LayerSpec], sample_shape: tuple | None = None) -> list[tuple]:
    """Each layer's output shape for one sample of ``sample_shape`` (no batch
    axis), by default ``input_shape(specs)``. Raises a ValueError naming the
    first layer, as ``layer<i>_<kind>``, whose input does not fit."""
    shapes = []
    shape = input_shape(specs) if sample_shape is None else tuple(sample_shape)
    for i, spec in enumerate(specs):
        try:
            shape = spec.output_shape(shape)
        except ValueError as exc:
            raise ValueError(f"layer{i}_{_LAYER_CLASSES[type(spec)].kind}: {exc}") from None
        shapes.append(shape)
    return shapes


class Network:
    """Ordered layer stack with cached activations for one backward pass."""

    def __init__(self, specs: list[LayerSpec], seed: int, params):
        """The layers of ``specs``, checked to fit one another, with ids
        ``layer<i>_<kind>``. Each weighted layer holds the ``(prunable,
        weights, bias)`` that ``params(layer_id, spec, prunable)`` returns,
        called in layer order; the ``prunable`` it is handed is the spec's
        flag, or, where that is None, True for every weighted layer but the
        last (the classifier stays dense)."""
        self.specs = list(specs)
        self.seed = seed
        weighted = [i for i, s in enumerate(self.specs) if isinstance(s, (Linear, Conv2d))]
        if not weighted:
            raise ValueError("network needs at least one weighted layer")
        try:
            output_shapes(self.specs)
        except ValueError as exc:
            raise ValueError(f"incompatible layer pair: {exc}") from None
        self.layers: list = []
        for i, spec in enumerate(self.specs):
            cls = _LAYER_CLASSES[type(spec)]
            layer_id = f"layer{i}_{cls.kind}"
            if i in weighted:
                prunable = i != weighted[-1] if spec.prunable is None else spec.prunable
                self.layers.append(cls(layer_id, spec, *params(layer_id, spec, prunable)))
            else:
                self.layers.append(cls(layer_id))
        # Backward stops at the first weighted layer; nothing before it caches.
        self._first = weighted[0]
        self.layers[self._first].first = True
        # The last training forward's logits; None once they are stale.
        self._logits: np.ndarray | None = None

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
        # The list is the network's one reference to the next layer's input,
        # and pop hands it over, so the layer frees it at its last use.
        held = [np.asarray(x, dtype=np.float64)]
        for i, layer in enumerate(self.layers):
            held.append(layer.forward(held.pop(), cache=cache and i >= self._first))
        out = held.pop()
        if out.ndim != 2:
            raise ValueError(f"network output must be 2D logits, got shape {out.shape}")
        self._logits = out if cache else None
        return out

    def backward(self, labels: np.ndarray) -> float:
        """Backprop mean softmax cross-entropy; fills every layer's gradient
        buffers and returns the batch loss. The first weighted layer computes
        no input gradient, and the layers before it run no backward. Each
        cache is released as it is used, so the cache is stale afterwards."""
        if self._logits is None:
            raise RuntimeError("stale forward cache: call forward() after any weight update")
        labels = np.asarray(labels)
        if labels.shape[0] != self._logits.shape[0]:
            raise ValueError(
                f"labels length {labels.shape[0]} does not match cached batch "
                f"of {self._logits.shape[0]}"
            )
        loss, grad = softmax_cross_entropy(self._logits, labels)
        self._logits = None
        held = [grad]  # handed over as in forward
        del grad
        for layer in reversed(self.layers[self._first :]):
            held.append(layer.backward(held.pop()))
        return loss

    def invalidate_cache(self) -> None:
        self._logits = None


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
    (Kaiming) weights, drawn layer by layer from one stream, and zero biases.

    The last weighted layer defaults to non-prunable (it is the classifier);
    pass an explicit ``prunable=`` on the spec to override either direction.
    """
    rng = np.random.default_rng(derive_seed(seed, "init"))

    def kaiming_uniform(layer_id: str, spec, prunable: bool) -> tuple:
        out, fan_in = spec.weight_shape
        bound = np.sqrt(6.0 / fan_in)
        return prunable, rng.uniform(-bound, bound, (out, fan_in)), np.zeros(out)

    return Network(specs, seed, kaiming_uniform)


def convert_to_masked(net: Network, masks: dict[str, np.ndarray]) -> Network:
    """Attach every prunable layer's bool mask (True where kept, by layer id)
    as a read-only copy and write +0.0 at the pruned weights (in place).
    Returns ``net``.

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
        layer.attach_mask(masks[layer.layer_id])
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
    """Forward-pass FLOPs for one sample, of the dense network and with
    its pruned weights skipped."""

    # Field order is the key order of report.json's "flops" block.
    dense: int
    sparse: int
    convention: str = field(
        default="2 ops per multiply-accumulate, forward pass, one sample", init=False
    )


def flops_estimate(net: Network, sample_shape: tuple[int, ...]) -> FlopsEstimate:
    """Forward-pass FLOPs for one sample at 2 ops per multiply-accumulate.

    ``sample_shape`` excludes the batch dimension: (features,) for vector
    input, (channels, height, width) for images. The sparse figure counts
    only multiply-accumulates whose weight survives the layer's mask, so a
    layer without a mask contributes its dense cost. Bias additions and
    activations are not counted.
    """
    dense = 0
    sparse = 0
    for layer, out in zip(net.layers, output_shapes(net.specs, sample_shape)):
        if isinstance(layer, _WeightedLayer):
            positions = math.prod(out[1:])  # output pixels of a conv, 1 for a linear layer
            kept = layer.weights.size if layer.kept is None else layer.kept.size
            dense += 2 * layer.weights.size * positions
            sparse += 2 * kept * positions
    return FlopsEstimate(dense=dense, sparse=sparse)
