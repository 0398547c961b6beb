"""End-to-end orchestration: score, tune, prune, train, report.

The stages run in ``STAGES`` order, with two exceptions. First, the train
stage's check that the model's layers fit the dataset's samples and end in
one score per class runs before anything else, on the sample shape the
dataset declares (its spec, IDX headers or first CSV row) as the model reads
it (``network.input_shape``), so a model that cannot read its data fails as
that stage before any scoring; only the class count waits for the loaded
data. Second, the data stage (load, split, and the training split's
statistics; see ``datasets``) runs beside the score stage as a task on a
one-worker executor: scores come from the initial weights alone, the two
share no state, and NumPy releases the interpreter lock in their heavy work,
so they overlap on two cores; scoring writes |W| over the weights of a
network built for it. After both finish, the mask stage fixes the threshold
scale gamma (searched against a sparsity target, or taken from the config),
generates the final bool masks, and prunes a network built from the same
seed; the layers keep the only copy of the masks. The train stage updates
only the kept weights, from their own gradients (the paper's gradient
masking), so pruned weights stay exactly zero; the report stage counts,
evaluates and saves. Training and evaluation, the zero-epoch evaluation too,
read standardized rows a batch at a time through ``Dataset.standardized``.
Each stage is timed on the thread that runs it, so ``wall_times["data"]`` is
the header read plus the loader's own elapsed time, and the five stage times
can sum to more than the run.
Artifacts land in the run's output directory:

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
from .datasets import declared_shape, load_dataset
from .masking import (
    GammaTraceEntry, SparsityReport, generate_all_masks, layer_thresholds, tune_gamma,
)
from .network import (
    FlopsEstimate, Network, convert_to_masked, count_zero_weights, flops_estimate, init_network,
    input_shape, output_shapes,
)
from .nmf import MagnitudeScorer, score_layer, score_magnitude
from .runconfig import ConfigError, RunConfig, ScorerSpec
from .seeds import derive_seed
from .trainer import EpochMetrics, evaluate, run_training

STAGES = ("data", "score", "mask", "train", "report")


class StageError(RuntimeError):
    """A pipeline stage failed; the original exception is chained as cause."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        super().__init__(f"stage {stage!r} failed: {cause}")


@dataclass
class RunReport:
    """The record a run writes as report.json."""

    # report.json is dataclasses.asdict of this record: field order is its key order.
    gamma_star: float
    # target, achieved, hit_target and iterations of the search; None for a fixed gamma
    gamma_search: dict | None
    sparsity: SparsityReport
    gamma_trace: list[GammaTraceEntry]
    epoch_metrics: list[EpochMetrics]
    flops: FlopsEstimate
    final_test_accuracy: float
    wall_times: dict[str, float] = field(default_factory=dict)


def compute_scores(net: Network, scorer: ScorerSpec, root_seed: int) -> dict[str, np.ndarray]:
    """Score every prunable layer: one float64 array per layer id, shaped
    like its weights. Factorization seeds derive per layer from the root
    seed, so layers are independent but the whole set is reproducible.

    Each prunable layer's weights buffer is overwritten with |W|, so score
    a network built for scoring: magnitude scores are that buffer, and NMF
    factorizes it instead of a copy.
    """
    if not net.prunable_layers:
        raise ConfigError("the model has no prunable layer; set prunable=true on one")
    scores: dict[str, np.ndarray] = {}
    for layer in net.prunable_layers:
        lid = layer.layer_id
        if isinstance(scorer, MagnitudeScorer):
            scores[lid] = score_magnitude(layer.weights)
        else:
            seed = derive_seed(root_seed, "nmf", lid)
            scores[lid] = score_layer(layer.weights, scorer, lid, seed=seed)
    return scores


def write_gamma_trace(out: Path, trace: list[GammaTraceEntry]) -> None:
    """Write ``gamma_search.jsonl`` in ``out`` atomically, one line per probe.
    A probe is a flat record, so its field dict (``vars``) is its JSON object,
    key for key as ``dataclasses.asdict`` gives it, without a deep copy."""
    lines = "".join(json.dumps(vars(t)) + "\n" for t in trace)
    write_atomic(out / "gamma_search.jsonl", [lines.encode()])


def make_output_dir(path) -> Path:
    """Create the output directory ``path`` and its parents if missing. A
    path that cannot be made (a file in its way, a name too long, no
    permission) is a ConfigError naming it."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"output directory {out} cannot be made: a file is in its way") from None
    except OSError as exc:
        raise ConfigError(f"output directory {out} cannot be made: {exc.strerror}") from None
    return out


@contextmanager
def _stage(name: str, wall: dict[str, float]):
    """Add the block's time to ``wall[name]``; its failure is a StageError
    naming the stage, with the original exception chained."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc
    wall[name] += time.perf_counter() - t0


def run_pipeline(cfg: RunConfig) -> RunReport:
    """Execute all stages of a run; see the module docstring for outputs.

    An output directory that cannot be made is a ConfigError before any
    stage runs (``make_output_dir``). Any stage failure writes an incomplete-status marker and raises a
    StageError naming the stage, with the original exception chained. When
    the data and score stages both fail, the data stage is the one named, as
    it comes first.
    """
    out = make_output_dir(cfg.output_dir)
    try:
        report = _run_stages(cfg, out)
    except StageError as err:
        status = {"status": "incomplete", "stage": err.stage, "error": str(err.__cause__)}
        _write_json(out / "status.json", status)
        raise
    _write_json(out / "report.json", dataclasses.asdict(report), indent=2)
    _write_json(out / "status.json", {"status": "complete"})
    return report


def _write_json(path: Path, doc: dict, indent: int | None = None) -> None:
    """Write ``doc`` to ``path`` atomically as one JSON document and a newline."""
    write_atomic(path, [(json.dumps(doc, indent=indent) + "\n").encode()])


def _run_stages(cfg: RunConfig, out: Path) -> RunReport:
    """The stages of ``run_pipeline``; a failure is a StageError."""
    # Every key exists up front, so the loader thread only adds to a value.
    wall = dict.fromkeys(STAGES, 0.0)

    # The train stage's shape check runs first, on the sample shape the
    # dataset declares, so a model that cannot read its data fails before
    # any scoring.
    with _stage("data", wall):
        declared = declared_shape(cfg.dataset)
    with _stage("train", wall):
        shape = input_shape(cfg.model, declared)
        try:
            logits = output_shapes(cfg.model, shape)[-1]
        except ValueError as exc:
            raise ConfigError(f"{exc}; the dataset's samples have shape {shape}") from None
        if len(logits) != 1:
            raise ConfigError(f"the model ends in shape {logits}, not one score per class")

    def load():
        with _stage("data", wall):
            return load_dataset(cfg.dataset, split_seed=derive_seed(cfg.seed, "data"))

    # Leaving the block joins the loader, whatever the score stage raised.
    with ThreadPoolExecutor(1, thread_name_prefix="nmfprune-data") as pool:
        loading = pool.submit(load)
        try:
            with _stage("score", wall):
                scores = compute_scores(init_network(cfg.model, cfg.seed), cfg.scorer, cfg.seed)
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
            thresholds = result.thresholds
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
            thresholds = layer_thresholds(scores, cfg.threshold.t_type, gamma_star)
        # The layers keep their own copies of the masks: the scores and
        # masks are not held past this stage.
        net = init_network(cfg.model, cfg.seed)  # scoring spent its network
        net = convert_to_masked(net, generate_all_masks(scores, thresholds))
        del scores

    with _stage("train", wall):
        if logits[0] < dataset.n_classes:
            raise ConfigError(
                f"the model has {logits[0]} outputs but the dataset has "
                f"{dataset.n_classes} classes"
            )
        seed = derive_seed(cfg.seed, "train")
        with open(out / "epochs.jsonl", "w", encoding="utf-8") as epoch_log:

            def on_epoch_end(epoch, network, epoch_metrics):
                epoch_log.write(json.dumps(vars(epoch_metrics)) + "\n")  # a flat record
                epoch_log.flush()
                if cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0:
                    save_checkpoint(network, out / f"checkpoint_epoch{epoch:04d}.bin")

            metrics = run_training(net, dataset, cfg.train, seed=seed, on_epoch_end=on_epoch_end)

    with _stage("report", wall):
        if metrics:
            final_acc = metrics[-1].test_accuracy
        else:
            final_acc = evaluate(net, dataset, cfg.train.batch_size)
        report = RunReport(
            gamma_star=gamma_star,
            gamma_search=search,
            sparsity=count_zero_weights(net),
            gamma_trace=trace,
            epoch_metrics=metrics,
            flops=flops_estimate(net, shape),
            final_test_accuracy=final_acc,
        )
        save_checkpoint(net, out / "checkpoint.bin")

    report.wall_times = wall
    return report
