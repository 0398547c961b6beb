"""Spans around the calls into each nmfprune module, for the traced run.

The tracer replaces functions under the names the program looks them up by
(module globals such as ``pipeline.score_layer`` or ``trainer.sgd_step``) and
wraps ``forward``/``backward`` on the layer instances that
``pipeline.init_network`` returns. Nothing in the program changes; the
patches are installed for a traced pass and removed after it.

Each span records its name, an optional label (a layer id), start, end, the
span that was open when it began, and the pass id. Spans stay in memory until
the run ends. A span's module is the first part of its name, and its self
time is its duration minus the time of its child spans.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import nmfprune.cli as cli
import nmfprune.network as network
import nmfprune.pipeline as pipeline
import nmfprune.trainer as trainer
from nmfprune.datasets import IdxSource

STEP = "trainer.masked_train_step"
# Spans timed per training step only; evaluation forwards are excluded.
STEP_ONLY = ("network.forward", "network.backward", "network.im2col", "network.col2im")
MODULES = (
    "cli", "runconfig", "datasets", "nmf", "masking", "network", "trainer", "checkpoint",
    "pipeline",
)

# (module, attribute looked up at call time, span name)
PATCHES = (
    (cli, "main", "cli.main"),
    (cli, "load_config", "runconfig.load_config"),
    (cli, "run_pipeline", "pipeline.run_pipeline"),
    (cli, "init_network", "network.init_network"),
    (cli, "compute_scores", "pipeline.compute_scores"),
    (cli, "tune_gamma", "masking.tune_gamma"),
    (pipeline, "load_dataset", "datasets.load_dataset"),
    (pipeline, "init_network", "network.init_network"),
    (pipeline, "compute_scores", "pipeline.compute_scores"),
    (pipeline, "score_layer", "nmf.score_layer"),
    (pipeline, "score_magnitude", "pipeline.score_magnitude"),
    (pipeline, "tune_gamma", "masking.tune_gamma"),
    (pipeline, "generate_all_masks", "masking.generate_all_masks"),
    (pipeline, "convert_to_masked", "network.convert_to_masked"),
    (pipeline, "run_training", "trainer.run_training"),
    (pipeline, "flops_estimate", "network.flops_estimate"),
    (pipeline, "count_zero_weights", "network.count_zero_weights"),
    (pipeline, "save_checkpoint", "checkpoint.save_checkpoint"),
    (trainer, "masked_train_step", STEP),
    (trainer, "sgd_step", "trainer.sgd_step"),
    (trainer, "evaluate", "trainer.evaluate"),
    (trainer, "count_zero_weights", "network.count_zero_weights"),
    (network, "im2col", "network.im2col"),
    (network, "col2im", "network.col2im"),
)


def nmf_ops_per_iter(m: int, p: int, k: int) -> int:
    """Computed floating-point operations of one multiplicative-update
    iteration on an m x p matrix at rank k, counting 2 per multiply-add, as
    the reference updates are written:

        F <- F * (W Gt) / ((F G) Gt + eps)      4mpk + 3mk
        G <- G * (Ft W) / ((Ft F) G + eps)      2mpk + 2mk^2 + 2k^2p + 3kp
        objective |W - F G|^2                   2mpk + 3mp
    """
    return 8 * m * p * k + 3 * m * k + 2 * m * k * k + 2 * k * k * p + 3 * k * p + 3 * m * p


def layer_flops(net, input_shape: tuple[int, ...]) -> dict[str, tuple[int, int]]:
    """Computed dense and sparse forward FLOPs per weighted layer for one
    sample, at 2 per multiply-accumulate; sparse counts unmasked weights."""
    shape = tuple(input_shape)
    flops = {}
    for layer in net.layers:
        if layer.kind in ("linear", "conv"):
            positions = 1
            if layer.kind == "conv":
                out_h, out_w = layer.output_hw(shape[1], shape[2])
                positions = out_h * out_w
                shape = (layer.spec.out_channels, out_h, out_w)
            else:
                shape = (layer.spec.out_features,)
            kept = layer.weights.size if layer.mask is None else int((layer.mask != 0).sum())
            flops[layer.layer_id] = (2 * layer.weights.size * positions, 2 * kept * positions)
        elif layer.kind == "flatten":
            shape = (math.prod(shape),)
    return flops


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        # [name, label, start, end, parent span id, pass id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.nmf_ops_per_iter: dict[str, int] = {}
        self.net = None  # the last network a traced pass built
        self.passes = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, label=None, observe=None):
        """``fn`` timed as a span. ``label`` is a string or a function of the
        call's arguments; ``observe(args, result)`` records counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            tag = label(args) if callable(label) else label
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, tag, 0.0, 0.0, parent, self.passes - 1])
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid][2:4] = start, end
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- observers: counts made where the work happens ------------------------

    def _scored(self, args, result) -> None:
        w, cfg, layer_id = args[0], args[1], args[2]
        m, p = w.shape
        ops = nmf_ops_per_iter(m, p, min(cfg.k, m, p))
        self.nmf_ops_per_iter[layer_id] = ops
        self.counts["nmf.iters"] += cfg.n_iter
        self.counts["nmf.ops"] += ops * cfg.n_iter

    def _tuned(self, args, result) -> None:
        self.counts["masking.probes"] += len(result.trace)
        self.counts["masking.searches"] += 1
        self.counts["masking.hits"] += int(result.hit_target)

    def _loaded(self, args, result) -> None:
        spec = args[0]
        if isinstance(spec, IdxSource):
            self.counts["datasets.idx_bytes_in"] += (
                os.path.getsize(spec.images_path) + os.path.getsize(spec.labels_path)
            )

    def _saved_checkpoint(self, args, result) -> None:
        self.counts["checkpoint.bytes_written"] += os.path.getsize(args[1])

    def _built(self, args, net) -> None:
        self.net = net
        for layer in net.layers:
            layer.forward = self.wrap("network.forward", layer.forward, layer.layer_id)
            layer.backward = self.wrap("network.backward", layer.backward, layer.layer_id)
        net.forward = self.wrap("network.Network.forward", net.forward)
        net.backward = self.wrap("network.Network.backward", net.backward)

    # -- installing the patches for one pass ----------------------------------

    @contextmanager
    def active(self):
        """Install every patch for one traced pass, and remove them after."""
        observers = {
            "nmf.score_layer": self._scored,
            "masking.tune_gamma": self._tuned,
            "datasets.load_dataset": self._loaded,
            "checkpoint.save_checkpoint": self._saved_checkpoint,
            "network.init_network": self._built,
        }
        labels = {"nmf.score_layer": lambda args: args[2]}
        self.passes += 1
        saved = []
        for module, attr, name in PATCHES:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(
                module, attr,
                self.wrap(name, original, labels.get(name), observers.get(name)),
            )
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- results ---------------------------------------------------------------

    def metrics(self, input_shape: tuple[int, ...]) -> dict[str, float]:
        """Per-layer metrics: times in ms per call, counts per pass."""
        n = max(self.passes, 1)
        child = [0.0] * len(self.spans)
        in_step = [False] * len(self.spans)
        total: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        step_self = 0.0
        for i, (name, label, start, end, parent, _) in enumerate(self.spans):
            if parent is not None:
                child[parent] += end - start
                in_step[i] = in_step[parent]
            in_step[i] = in_step[i] or name == STEP
        for i, (name, label, start, end, parent, _) in enumerate(self.spans):
            duration = end - start
            self_s[name.split(".")[0]] += duration - child[i]
            if name == STEP:
                step_self += duration - child[i]
            if name in STEP_ONLY and not in_step[i]:
                continue
            keys = [(name, None)] if label is None else [(name, None), (name, label)]
            for key in keys:
                total[key] += duration
                calls[key] += 1

        def ms(name: str, label: str | None = None) -> float:
            key = (name, label)
            return 1000.0 * total[key] / calls[key] if calls[key] else 0.0

        c = self.counts
        out: dict[str, float] = {}
        for lid, ops in self.nmf_ops_per_iter.items():
            out[f"nmf.score_layer_ms.{lid}"] = ms("nmf.score_layer", lid)
            out[f"nmf.mflop_per_iter.{lid}"] = ops / 1e6
        out["nmf.iters"] = c["nmf.iters"] / n
        score_s = total[("nmf.score_layer", None)]
        out["nmf.gflops_per_s"] = c["nmf.ops"] / score_s / 1e9 if score_s else 0.0

        probes, searches = c["masking.probes"], c["masking.searches"]
        out["masking.tune_gamma_ms"] = ms("masking.tune_gamma")
        out["masking.probes"] = probes / n
        tune_s = total[("masking.tune_gamma", None)]
        out["masking.probe_ms"] = 1000.0 * tune_s / probes if probes else 0.0
        out["masking.hit_ratio"] = c["masking.hits"] / searches if searches else 0.0
        out["masking.generate_masks_ms"] = ms("masking.generate_all_masks")

        if self.net is not None:
            for lid in (layer.layer_id for layer in self.net.layers):
                out[f"network.forward_ms.{lid}"] = ms("network.forward", lid)
                out[f"network.backward_ms.{lid}"] = ms("network.backward", lid)
            for lid, (dense, sparse) in layer_flops(self.net, input_shape).items():
                out[f"network.dense_mflop.{lid}"] = dense / 1e6
                out[f"network.sparse_mflop.{lid}"] = sparse / 1e6
        out["network.im2col_ms"] = ms("network.im2col")
        out["network.col2im_ms"] = ms("network.col2im")

        steps = calls[(STEP, None)]
        out["trainer.steps"] = steps / n
        out["trainer.step_ms"] = ms(STEP)
        out["trainer.sgd_step_ms"] = ms("trainer.sgd_step")
        out["trainer.mask_check_ms"] = 1000.0 * step_self / steps if steps else 0.0
        out["trainer.evaluate_ms"] = ms("trainer.evaluate")

        out["datasets.load_dataset_ms"] = ms("datasets.load_dataset")
        out["datasets.idx_bytes_in"] = c["datasets.idx_bytes_in"] / n
        out["runconfig.load_config_ms"] = ms("runconfig.load_config")
        out["checkpoint.save_ms"] = ms("checkpoint.save_checkpoint")
        out["checkpoint.bytes_written"] = c["checkpoint.bytes_written"] / n
        for module in MODULES:
            out[f"self_ms.{module}"] = 1000.0 * self_s[module] / n
        out["trace.spans_per_pass"] = len(self.spans) / n
        return out

    def write_spans(self, path) -> None:
        """Write every span as one JSON line, times in seconds from the
        tracer's creation."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, label, start, end, parent, pass_id) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "label": label, "start": start - self.origin,
                    "end": end - self.origin, "parent": parent, "pass": pass_id,
                }) + "\n")
