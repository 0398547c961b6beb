"""End-to-end orchestration: score, tune, prune, train, report.

The stages run in ``STAGES`` order, except that the data stage (load, split,
standardize) runs beside the score stage as a task on a one-worker executor:
scores come from the initial weights alone, the two share no state, and NumPy
releases the interpreter lock in their heavy work, so they overlap on two
cores. After both finish, the mask stage fixes the threshold scale gamma
(searched against a sparsity target, or taken from the config), generates the
final masks, and prunes. The train stage checks that the model's layers fit
the dataset's samples and that the model has an output per class, masks each
step's weight gradients and updates only the kept weights, so pruned weights
stay exactly zero; the report stage counts, evaluates and saves. Each stage
is timed on the thread that runs it, so ``wall_times["data"]`` is the
loader's own elapsed time and the five stage times can sum to more than the
run. Artifacts land in the run's output directory:

    report.json        full run report
    gamma_search.jsonl one line per search probe
    epochs.jsonl       one line per training epoch, appended as epochs finish
    checkpoint.bin     final model (weights, biases, masks, specs, seed)
    checkpoint_epochNNNN.bin  periodic, when checkpoint_every is configured
    status.json        "complete", or the failed stage and error
"""

from __future__ import annotations

import dataclasses
import json
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import save_checkpoint, write_atomic
from .datasets import load_dataset
from .masking import GammaTraceEntry, SparsityReport, generate_all_masks, tune_gamma
from .network import Network, convert_to_masked, count_zero_weights, flops_estimate, init_network
from .nmf import ScoreMatrix, score_layer
from .runconfig import ConfigError, MagnitudeScorer, RunConfig, ScorerSpec
from .seeds import derive_seed
from .trainer import EpochMetrics, evaluate, model_input, run_training

STAGES = ("data", "score", "mask", "train", "report")


class StageError(RuntimeError):
    """A pipeline stage failed; the original exception is chained as cause."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        super().__init__(f"stage {stage!r} failed: {cause}")


@dataclass
class RunReport:
    gamma_star: float
    sparsity_report: SparsityReport
    gamma_trace: list[GammaTraceEntry]
    epoch_metrics: list[EpochMetrics]
    flops_dense: int
    flops_sparse: int
    final_test_accuracy: float
    # target, achieved, hit_target and iterations of the search; None for a fixed gamma
    gamma_search: dict | None = None
    wall_times: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "gamma_star": self.gamma_star,
            "gamma_search": self.gamma_search,
            "sparsity": {
                "global_zeros": self.sparsity_report.global_zeros,
                "global_total": self.sparsity_report.global_total,
                "global_sparsity": self.sparsity_report.global_sparsity,
                "per_layer": {
                    lid: {"zeros": ls.zeros, "total": ls.total, "sparsity": ls.sparsity}
                    for lid, ls in self.sparsity_report.per_layer.items()
                },
            },
            "gamma_trace": [dataclasses.asdict(t) for t in self.gamma_trace],
            "epoch_metrics": [dataclasses.asdict(m) for m in self.epoch_metrics],
            "flops": {
                "dense": self.flops_dense,
                "sparse": self.flops_sparse,
                "convention": "2 ops per multiply-accumulate, forward pass, one sample",
            },
            "final_test_accuracy": self.final_test_accuracy,
            "wall_times": self.wall_times,
        }


def score_magnitude(w: np.ndarray, layer_id: str = "layer") -> ScoreMatrix:
    """Baseline scores: importance is the absolute weight value."""
    return ScoreMatrix(layer_id=layer_id, scores=np.abs(w))


def compute_scores(net: Network, scorer: ScorerSpec, root_seed: int) -> dict[str, ScoreMatrix]:
    """Score every prunable layer. Factorization seeds derive per layer from
    the root seed, so layers are independent but the whole set is
    reproducible."""
    scores: dict[str, ScoreMatrix] = {}
    for layer in net.prunable_layers:
        if isinstance(scorer, MagnitudeScorer):
            scores[layer.layer_id] = score_magnitude(layer.weights, layer.layer_id)
        else:
            cfg = dataclasses.replace(
                scorer, seed=derive_seed(root_seed, "nmf", layer.layer_id)
            )
            scores[layer.layer_id] = score_layer(layer.weights, cfg, layer.layer_id)
    return scores


def write_gamma_trace(out: Path, trace: list[GammaTraceEntry]) -> None:
    """Write ``gamma_search.jsonl`` in ``out`` atomically, one line per probe."""
    lines = "".join(json.dumps(dataclasses.asdict(t)) + "\n" for t in trace)
    write_atomic(out / "gamma_search.jsonl", [lines.encode()])


@contextmanager
def _stage(name: str, wall: dict[str, float]):
    """Time the block into ``wall[name]``; its failure is a StageError naming
    the stage, with the original exception chained."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc
    wall[name] = time.perf_counter() - t0


def run_pipeline(cfg: RunConfig) -> RunReport:
    """Execute all stages of a run; see the module docstring for outputs.

    Any stage failure writes an incomplete-status marker and raises a
    StageError naming the stage, with the original exception chained. When
    the data and score stages both fail, the data stage is the one named, as
    it comes first.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        report = _run_stages(cfg, out)
    except StageError as err:
        status = {"status": "incomplete", "stage": err.stage, "error": str(err.__cause__)}
        write_atomic(out / "status.json", [(json.dumps(status) + "\n").encode()])
        raise
    write_atomic(out / "report.json", [(json.dumps(report.to_dict(), indent=2) + "\n").encode()])
    write_atomic(out / "status.json", [(json.dumps({"status": "complete"}) + "\n").encode()])
    return report


def _run_stages(cfg: RunConfig, out: Path) -> RunReport:
    """The stages of ``run_pipeline``; a failure is a StageError."""
    # Every key exists up front, so the loader thread only replaces a value.
    wall = dict.fromkeys(STAGES, 0.0)

    def load():
        with _stage("data", wall):
            return load_dataset(cfg.dataset, split_seed=derive_seed(cfg.seed, "data"))

    # Leaving the block joins the loader, whatever the score stage raised.
    with ThreadPoolExecutor(1, thread_name_prefix="nmfprune-data") as pool:
        loading = pool.submit(load)
        try:
            with _stage("score", wall):
                net = init_network(cfg.model, cfg.seed)
                scores = compute_scores(net, cfg.scorer, cfg.seed)
        except StageError:
            loading.result()  # a data failure comes first in stage order
            raise
        dataset = loading.result()

    with _stage("mask", wall):
        trace: list[GammaTraceEntry] = []
        search = None
        if cfg.gamma_search is not None:
            result = tune_gamma(scores, cfg.threshold.t_type, cfg.gamma_search)
            gamma_star = result.gamma_star
            trace = result.trace
            search = {
                "target": cfg.gamma_search.s_target,
                "achieved": result.achieved,
                "hit_target": result.hit_target,
                "iterations": result.iterations,
            }
            write_gamma_trace(out, trace)
        else:
            gamma_star = cfg.threshold.gamma
        masks = generate_all_masks(scores, cfg.threshold.t_type, gamma_star)
        net = convert_to_masked(net, masks)

    with _stage("train", wall):
        sample_shape = model_input(net, dataset, dataset.train_x[:1]).shape[1:]
        shape = sample_shape
        try:
            for layer in net.layers:
                shape = layer.output_shape(shape)
        except ValueError as exc:
            raise ConfigError(f"{exc}; the dataset's samples have shape {sample_shape}") from None
        if shape[0] < dataset.n_classes:
            raise ConfigError(
                f"the model has {shape[0]} outputs but the dataset has "
                f"{dataset.n_classes} classes"
            )
        train_cfg = dataclasses.replace(cfg.train, seed=derive_seed(cfg.seed, "train"))
        with open(out / "epochs.jsonl", "w", encoding="utf-8") as epoch_log:

            def on_epoch_end(epoch, network, epoch_metrics):
                epoch_log.write(json.dumps(dataclasses.asdict(epoch_metrics)) + "\n")
                epoch_log.flush()
                if cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0:
                    save_checkpoint(network, out / f"checkpoint_epoch{epoch:04d}.bin")

            metrics = run_training(net, dataset, train_cfg, on_epoch_end=on_epoch_end)

    with _stage("report", wall):
        flops = flops_estimate(net, sample_shape)
        if metrics:
            final_acc = metrics[-1].test_accuracy
        else:
            test_x = model_input(net, dataset, dataset.test_x)
            final_acc = evaluate(net, test_x, dataset.test_y, cfg.train.batch_size)
        report = RunReport(
            gamma_star=gamma_star,
            sparsity_report=count_zero_weights(net),
            gamma_trace=trace,
            epoch_metrics=metrics,
            flops_dense=flops.dense_flops,
            flops_sparse=flops.sparse_flops,
            final_test_accuracy=final_acc,
            gamma_search=search,
        )
        save_checkpoint(net, out / "checkpoint.bin")

    report.wall_times = wall
    return report
