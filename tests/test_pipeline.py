"""End-to-end pipeline tests on the synthetic-blobs task."""

import dataclasses
import json
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from nmfprune.checkpoint import load_checkpoint
from nmfprune.datasets import DatasetError, SyntheticBlobs
from nmfprune.masking import GammaSearchConfig, ThresholdConfig
from nmfprune.network import Linear, ReLU, count_zero_weights, init_network
from nmfprune.nmf import MagnitudeScorer, NmfConfig, score_layer, score_magnitude
from nmfprune import masking, pipeline
from nmfprune.pipeline import STAGES, StageError, compute_scores, run_pipeline
from nmfprune.runconfig import RunConfig
from nmfprune.seeds import derive_seed
from nmfprune.trainer import TrainConfig


def base_config(tmp_path, **overrides) -> RunConfig:
    defaults = dict(
        model=[Linear(16, 32), ReLU(), Linear(32, 16), ReLU(), Linear(16, 2)],
        dataset=SyntheticBlobs(600, 16, 2, seed=5),
        scorer=NmfConfig(k=4),
        threshold=ThresholdConfig("std", 1.0),
        gamma_search=GammaSearchConfig(s_target=0.8),
        train=TrainConfig(epochs=6, lr=0.1, batch_size=64),
        output_dir=tmp_path / "run",
        seed=11,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestRunPipeline:
    def test_targets_sparsity_and_holds_it(self, tmp_path):
        report = run_pipeline(base_config(tmp_path))
        assert abs(report.sparsity.global_sparsity - 0.8) <= 0.005
        assert len({m.zero_count for m in report.epoch_metrics}) == 1
        assert report.epoch_metrics[0].achieved_sparsity == report.sparsity.global_sparsity

    def test_report_matches_checkpoint_recount(self, tmp_path):
        cfg = base_config(tmp_path)
        report = run_pipeline(cfg)
        reloaded = count_zero_weights(load_checkpoint(cfg.output_dir / "checkpoint.bin"))
        assert report.sparsity.global_zeros == reloaded.global_zeros
        assert report.sparsity.global_sparsity == reloaded.global_sparsity
        for lid, ls in report.sparsity.per_layer.items():
            assert ls.zeros == reloaded.per_layer[lid].zeros

    def test_deterministic_reruns(self, tmp_path):
        a = run_pipeline(base_config(tmp_path, output_dir=tmp_path / "a"))
        b = run_pipeline(base_config(tmp_path, output_dir=tmp_path / "b"))
        assert a.gamma_star == b.gamma_star
        assert a.epoch_metrics == b.epoch_metrics
        assert a.final_test_accuracy == b.final_test_accuracy
        assert a.flops.sparse == b.flops.sparse

    def test_magnitude_full_prune_stays_dead(self, tmp_path):
        # A fixed threshold gamma far above any score prunes every prunable
        # weight; training must leave them at zero.
        cfg = base_config(
            tmp_path,
            scorer=MagnitudeScorer(),
            gamma_search=None,
            threshold=ThresholdConfig("std", 1e9),
            train=TrainConfig(epochs=2, lr=0.1, batch_size=64),
        )
        report = run_pipeline(cfg)
        assert report.sparsity.global_sparsity == 1.0
        assert all(m.achieved_sparsity == 1.0 for m in report.epoch_metrics)
        # Fixed-gamma mode never invokes the search.
        assert report.gamma_star == 1e9
        assert report.gamma_trace == []
        assert not (cfg.output_dir / "gamma_search.jsonl").exists()

    def test_fixed_gamma_all_ones_masks_equal_dense_run(self, tmp_path):
        # Constant scores make every threshold collapse onto the score value,
        # and the >= rule keeps everything: fixed-gamma masking degenerates to
        # all-ones masks. Such a run must match a dense control exactly.
        from nmfprune.datasets import load_dataset
        from nmfprune.masking import generate_all_masks, layer_thresholds
        from nmfprune.network import convert_to_masked, init_network
        from nmfprune.seeds import derive_seed
        from nmfprune.trainer import run_training

        specs = [Linear(16, 8), ReLU(), Linear(8, 2)]
        seed = 11
        dataset = load_dataset(SyntheticBlobs(600, 16, 2, seed=5), derive_seed(seed, "data"))
        train_cfg = TrainConfig(epochs=3, lr=0.1, batch_size=64)
        train_seed = derive_seed(seed, "train")

        masked_net = init_network(specs, seed)
        constant_scores = {
            l.layer_id: np.full_like(l.weights, 0.5) for l in masked_net.prunable_layers
        }
        masks = generate_all_masks(
            constant_scores, layer_thresholds(constant_scores, "std", gamma=1.5)
        )
        assert all(np.all(m) for m in masks.values())
        convert_to_masked(masked_net, masks)
        masked_metrics = run_training(masked_net, dataset, train_cfg, seed=train_seed)

        dense_net = init_network(specs, seed)
        dense_metrics = run_training(dense_net, dataset, train_cfg, seed=train_seed)

        assert masked_metrics[-1].test_accuracy == dense_metrics[-1].test_accuracy
        assert [m.train_loss for m in masked_metrics] == [m.train_loss for m in dense_metrics]

    def test_stage_error_names_stage_and_marks_incomplete(self, tmp_path, monkeypatch):
        # One function the pipeline calls in each stage, made to fail.
        calls = {
            "data": "load_dataset",
            "score": "compute_scores",
            "mask": "generate_all_masks",
            "train": "run_training",
            "report": "save_checkpoint",
        }
        assert tuple(calls) == STAGES

        def fail(*args, **kwargs):
            raise RuntimeError("injected failure")

        for stage, name in calls.items():
            cfg = base_config(
                tmp_path, output_dir=tmp_path / stage,
                train=TrainConfig(epochs=1, lr=0.1, batch_size=64),
            )
            with monkeypatch.context() as patch:
                patch.setattr(pipeline, name, fail)
                with pytest.raises(StageError) as err:
                    run_pipeline(cfg)
            assert err.value.stage == stage
            assert isinstance(err.value.__cause__, RuntimeError)
            status = json.loads((cfg.output_dir / "status.json").read_text())
            assert status == {"status": "incomplete", "stage": stage, "error": "injected failure"}
            assert not (cfg.output_dir / "report.json").exists()

    def test_data_stage_runs_beside_score_stage(self, tmp_path, monkeypatch):
        # The loader waits for the score stage to start, which only a
        # concurrent data stage can see.
        scoring = threading.Event()
        load, compute = pipeline.load_dataset, pipeline.compute_scores

        def load_once_scoring(*args, **kwargs):
            if not scoring.wait(timeout=5):
                raise TimeoutError("the score stage did not start during the data stage")
            return load(*args, **kwargs)

        def compute_and_signal(*args, **kwargs):
            scoring.set()
            time.sleep(0.5)  # the loader finishes meanwhile
            return compute(*args, **kwargs)

        monkeypatch.setattr(pipeline, "load_dataset", load_once_scoring)
        monkeypatch.setattr(pipeline, "compute_scores", compute_and_signal)
        cfg = base_config(tmp_path, train=TrainConfig(epochs=1, lr=0.1, batch_size=64))
        report = run_pipeline(cfg)
        assert abs(report.sparsity.global_sparsity - 0.8) <= 0.005
        assert tuple(report.wall_times) == STAGES
        assert all(t > 0 for t in report.wall_times.values())
        # The data stage is timed on the loader's thread, not until the join.
        assert report.wall_times["data"] < 0.5 <= report.wall_times["score"]

    @pytest.mark.parametrize("score_fails", [False, True])
    def test_data_failure_is_reported_after_the_score_stage(
        self, tmp_path, monkeypatch, score_fails
    ):
        # The loader fails only once the score stage has ended, failed or not.
        scored = threading.Event()
        compute = pipeline.compute_scores

        def late_failing_load(*args, **kwargs):
            scored.wait(timeout=5)
            raise DatasetError("injected data failure")

        def compute_then_signal(*args, **kwargs):
            try:
                if score_fails:
                    raise RuntimeError("injected score failure")
                return compute(*args, **kwargs)
            finally:
                scored.set()

        monkeypatch.setattr(pipeline, "load_dataset", late_failing_load)
        monkeypatch.setattr(pipeline, "compute_scores", compute_then_signal)
        cfg = base_config(tmp_path, train=TrainConfig(epochs=1, lr=0.1, batch_size=64))
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "data"
        assert isinstance(err.value.__cause__, DatasetError)
        out = cfg.output_dir
        status = json.loads((out / "status.json").read_text())
        assert status == {"status": "incomplete", "stage": "data", "error": "injected data failure"}
        assert sorted(p.name for p in out.iterdir()) == ["status.json"]

    def test_failed_score_stage_leaves_no_loader_running(self, tmp_path, monkeypatch):
        loaders = []
        load = pipeline.load_dataset

        def slow_load(*args, **kwargs):
            loaders.append(threading.current_thread())
            time.sleep(0.3)
            return load(*args, **kwargs)

        def fail(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(pipeline, "load_dataset", slow_load)
        monkeypatch.setattr(pipeline, "compute_scores", fail)
        cfg = base_config(tmp_path)
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "score"
        assert len(loaders) == 1
        assert loaders[0] is not threading.current_thread()
        assert not loaders[0].is_alive()

    def test_train_stage_starts_without_scores_or_mask_copies(self, tmp_path, monkeypatch):
        # The layers hold their own masks, so the score arrays (1 MB
        # here) and the generated bool masks must be gone when training
        # starts; anything that keeps them sits beside the dataset for the
        # whole train stage.
        compute, generate, train = (
            pipeline.compute_scores, pipeline.generate_all_masks, pipeline.run_training
        )
        made = []
        at_train = {}

        def compute_and_track(*args, **kwargs):
            scores = compute(*args, **kwargs)
            made.extend(weakref.ref(s) for s in scores.values())
            return scores

        def generate_and_track(*args, **kwargs):
            masks = generate(*args, **kwargs)
            made.extend(weakref.ref(m) for m in masks.values())
            return masks

        def measure_then_train(net, dataset, *args, **kwargs):
            at_train["alive"] = [ref() is not None for ref in made]
            at_train["traced"] = tracemalloc.get_traced_memory()[0]
            arrays = [dataset.train_x, dataset.train_y, dataset.test_x, dataset.test_y]
            for layer in net.weighted_layers:
                arrays += [v for v in vars(layer).values() if isinstance(v, np.ndarray)]
            at_train["needed"] = sum(a.nbytes for a in arrays)
            return train(net, dataset, *args, **kwargs)

        monkeypatch.setattr(pipeline, "compute_scores", compute_and_track)
        monkeypatch.setattr(pipeline, "generate_all_masks", generate_and_track)
        monkeypatch.setattr(pipeline, "run_training", measure_then_train)
        cfg = base_config(
            tmp_path,
            model=[Linear(256, 512), ReLU(), Linear(512, 2)],
            dataset=SyntheticBlobs(200, 256, 2, seed=5),
            scorer=NmfConfig(k=4, n_iter=20),
            train=TrainConfig(epochs=1, lr=0.1, batch_size=64),
        )
        run_pipeline(cfg)  # the modules NumPy imports on first use are not counted
        made.clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_pipeline(cfg)
        finally:
            tracemalloc.stop()
        assert at_train["alive"] == [False, False]  # layer0's scores, then its mask
        assert at_train["traced"] - base <= at_train["needed"] + 256 * 1024

    def test_report_records_the_search_outcome(self, tmp_path):
        searched = base_config(tmp_path)
        run_pipeline(searched)
        report = json.loads((searched.output_dir / "report.json").read_text())
        assert report["gamma_search"] == {
            "target": 0.8,
            "achieved": report["sparsity"]["global_sparsity"],
            "hit_target": True,
            "iterations": len(report["gamma_trace"]) - 1,
        }
        fixed = base_config(
            tmp_path, gamma_search=None, output_dir=tmp_path / "fixed",
            train=TrainConfig(epochs=1, lr=0.1, batch_size=64),
        )
        run_pipeline(fixed)
        assert json.loads((fixed.output_dir / "report.json").read_text())["gamma_search"] is None

    def test_report_layout_keeps_its_key_order(self, tmp_path):
        top = [
            "gamma_star", "gamma_search", "sparsity", "gamma_trace", "epoch_metrics", "flops",
            "final_test_accuracy", "wall_times",
        ]
        searched = base_config(tmp_path, train=TrainConfig(epochs=1, lr=0.1, batch_size=64))
        run_pipeline(searched)
        text = (searched.output_dir / "report.json").read_text()
        report = json.loads(text)
        assert text == json.dumps(report, indent=2) + "\n"
        assert list(report) == top
        assert list(report["sparsity"]) == [
            "global_zeros", "global_total", "global_sparsity", "per_layer",
        ]
        assert list(report["sparsity"]["per_layer"]["layer0_linear"]) == ["zeros", "total", "sparsity"]
        assert list(report["flops"]) == ["dense", "sparse", "convention"]
        assert report["flops"]["convention"] == "2 ops per multiply-accumulate, forward pass, one sample"
        assert list(report["gamma_search"]) == ["target", "achieved", "hit_target", "iterations"]
        assert list(report["gamma_trace"][0]) == [
            "iteration", "gamma", "achieved", "gamma_low", "gamma_high",
        ]
        assert list(report["epoch_metrics"][0]) == [
            "epoch", "train_loss", "train_accuracy", "test_accuracy", "achieved_sparsity",
            "zero_count",
        ]
        assert list(report["wall_times"]) == list(STAGES)

        fixed = base_config(
            tmp_path, gamma_search=None, output_dir=tmp_path / "fixed",
            train=TrainConfig(epochs=0, lr=0.1, batch_size=64),
        )
        run_pipeline(fixed)
        report = json.loads((fixed.output_dir / "report.json").read_text())
        assert list(report) == top
        assert report["gamma_search"] is None
        assert report["gamma_trace"] == report["epoch_metrics"] == []

    def test_outputs_written(self, tmp_path):
        cfg = base_config(tmp_path)
        run_pipeline(cfg)
        out = cfg.output_dir
        assert (out / "report.json").exists()
        assert (out / "checkpoint.bin").exists()
        assert (out / "epochs.jsonl").exists()
        assert (out / "gamma_search.jsonl").exists()
        assert not list(out.glob(".*.tmp"))  # atomic writes leave no temp files
        status = json.loads((out / "status.json").read_text())
        assert status == {"status": "complete"}
        report = json.loads((out / "report.json").read_text())
        epochs = [json.loads(line) for line in (out / "epochs.jsonl").read_text().splitlines()]
        assert len(epochs) == 6
        assert report["sparsity"]["global_sparsity"] == pytest.approx(0.8, abs=0.005)
        assert report["flops"]["dense"] > report["flops"]["sparse"]

    def test_periodic_checkpoints(self, tmp_path):
        cfg = base_config(tmp_path, checkpoint_every=2)
        run_pipeline(cfg)
        out = cfg.output_dir
        assert (out / "checkpoint_epoch0001.bin").exists()
        assert (out / "checkpoint_epoch0003.bin").exists()
        assert (out / "checkpoint_epoch0005.bin").exists()
        assert not (out / "checkpoint_epoch0000.bin").exists()
        mid = load_checkpoint(out / "checkpoint_epoch0001.bin")
        assert count_zero_weights(mid).global_sparsity == pytest.approx(0.8, abs=0.005)

    def test_conv_model_on_idx_images(self, tmp_path):
        import struct

        from nmfprune.datasets import IdxSource
        from nmfprune.network import Conv2d, Flatten

        rng = np.random.default_rng(3)
        # Two 6x6 "digit" classes distinguished by which half is bright.
        n = 300
        labels = rng.integers(0, 2, n, dtype=np.uint8)
        images = rng.integers(0, 40, (n, 6, 6), dtype=np.uint8)
        for i, y in enumerate(labels):
            if y == 0:
                images[i, :3, :] += 180
            else:
                images[i, 3:, :] += 180
        (tmp_path / "imgs").write_bytes(
            struct.pack(">iiii", 0x00000803, n, 6, 6) + images.tobytes()
        )
        (tmp_path / "lbls").write_bytes(struct.pack(">ii", 0x00000801, n) + labels.tobytes())

        cfg = base_config(
            tmp_path,
            model=[
                Conv2d(1, 8, 3, 3, stride=1, padding=1),
                ReLU(),
                Flatten(),
                # Both layers prunable so the sparsity granularity (1/648)
                # stays below the targeting tolerance.
                Linear(288, 2, prunable=True),
            ],
            dataset=IdxSource(str(tmp_path / "imgs"), str(tmp_path / "lbls")),
            # The 2x288 classifier is full-rank for any k >= 2, which turns
            # its reconstruction-error scores into numerical noise; magnitude
            # scores keep the targeting meaningful on this tiny model.
            scorer=MagnitudeScorer(),
            gamma_search=GammaSearchConfig(s_target=0.7),
            train=TrainConfig(epochs=5, lr=0.05, batch_size=32),
        )
        report = run_pipeline(cfg)
        assert abs(report.sparsity.global_sparsity - 0.7) <= 0.005
        assert report.final_test_accuracy >= 0.9
        # Conv: 2 * (8*9 MACs) * 36 positions, then the 288x2 classifier.
        assert report.flops.dense == 2 * 72 * 36 + 2 * 288 * 2
        reloaded = count_zero_weights(load_checkpoint(cfg.output_dir / "checkpoint.bin"))
        assert reloaded.global_zeros == report.sparsity.global_zeros

    def test_gamma_trace_is_loggable(self, tmp_path):
        cfg = base_config(tmp_path)
        run_pipeline(cfg)
        lines = (cfg.output_dir / "gamma_search.jsonl").read_text().splitlines()
        probes = [json.loads(line) for line in lines]
        assert probes[0]["iteration"] == 0
        assert all(
            set(p) == {"iteration", "gamma", "achieved", "gamma_low", "gamma_high"}
            for p in probes
        )

    def test_trace_rows_are_the_bytes_of_asdict(self, tmp_path):
        # Each line is written from the flat record's field dict, byte for
        # byte what the recursive dataclasses.asdict gives.
        cfg = base_config(tmp_path)
        report = run_pipeline(cfg)
        for name, rows in [
            ("gamma_search.jsonl", report.gamma_trace), ("epochs.jsonl", report.epoch_metrics),
        ]:
            expected = "".join(json.dumps(dataclasses.asdict(r)) + "\n" for r in rows)
            assert len(rows) > 1 and (cfg.output_dir / name).read_text() == expected, name


@pytest.mark.parametrize("search", [True, False], ids=["search", "fixed"])
@pytest.mark.parametrize("t_type", ["std", "mad"])
def test_mask_stage_reads_each_layers_statistics_once(tmp_path, monkeypatch, t_type, search):
    # The search hands its thresholds to the masks, and a fixed gamma makes
    # them in one pass: each prunable layer's center and spread are computed
    # exactly once per run, under both rules. Each call's array is held, so
    # no two calls' arrays can share an id.
    calls = []
    for name in ("_mean_std", "_median_mad"):
        def counting_stats(a, stats=getattr(masking, name)):
            calls.append(a)
            return stats(a)

        monkeypatch.setattr(masking, name, counting_stats)
    cfg = base_config(
        tmp_path,
        scorer=MagnitudeScorer(),
        threshold=ThresholdConfig(t_type, 1.0),
        gamma_search=GammaSearchConfig(s_target=0.8) if search else None,
        train=TrainConfig(epochs=1, lr=0.1, batch_size=64),
    )
    report = run_pipeline(cfg)
    assert (len(report.gamma_trace) > 1) == search
    assert len(calls) == len({id(a) for a in calls}) == len(report.sparsity.per_layer) == 2


class TestScoreMagnitude:
    def test_absolute_values(self):
        scores = score_magnitude(np.array([[-2.0, 1.0]]))
        assert scores.dtype == np.float64 and np.array_equal(scores, [[2.0, 1.0]])

    def test_order_matches_magnitude_order(self):
        w = np.random.default_rng(0).normal(size=(5, 5))
        scores = score_magnitude(w.copy())
        assert np.array_equal(np.argsort(scores.ravel()), np.argsort(np.abs(w).ravel()))

    def test_out_is_the_score_array(self):
        w = np.array([[-2.0, 1.0]])
        scores = score_magnitude(w)
        assert scores is w and np.array_equal(w, [[2.0, 1.0]])

    def test_tuned_target_keeps_top_magnitudes(self):
        from nmfprune.masking import generate_all_masks, tune_gamma

        rng = np.random.default_rng(1)
        w = rng.normal(size=(64, 64))
        scores = {"l": score_magnitude(w.copy())}
        result = tune_gamma(scores, "std", GammaSearchConfig(s_target=0.8))
        assert result.hit_target
        masks = generate_all_masks(scores, result.thresholds)
        kept = int(np.count_nonzero(masks["l"]))
        # Sort-based oracle: the kept set must be exactly the top-|kept| by
        # magnitude (no ties in continuous draws).
        order = np.argsort(np.abs(w).ravel())[::-1]
        top = np.zeros(w.size, dtype=bool)
        top[order[:kept]] = True
        assert np.array_equal(masks["l"].ravel(), top)


@pytest.mark.parametrize("scorer", [MagnitudeScorer(), NmfConfig(k=3)], ids=["magnitude", "nmf"])
class TestComputeScoresInPlace:
    MODEL = [Linear(12, 20), ReLU(), Linear(20, 8, prunable=True), ReLU(), Linear(8, 2)]

    def test_default_leaves_the_weights_untouched(self, scorer):
        # Scoring writes only over the prunable weights it scores: biases and
        # the other layers keep their values, and a network built afterwards
        # from the same seed (the one a run trains) has the original weights.
        scored = init_network(self.MODEL, 4)
        before = [(l.weights.copy(), l.bias.copy()) for l in scored.weighted_layers]
        compute_scores(scored, scorer, 4)
        for layer, (w, b) in zip(scored.weighted_layers, before):
            assert np.array_equal(layer.bias, b)
            if not layer.prunable:
                assert np.array_equal(layer.weights, w)
        trained = init_network(self.MODEL, 4)
        for layer, (w, b) in zip(trained.weighted_layers, before):
            assert np.array_equal(layer.weights, w) and np.array_equal(layer.bias, b)

    def test_prunable_weights_overwritten_with_their_magnitudes(self, scorer):
        net = init_network(self.MODEL, 4)
        before = [layer.weights.copy() for layer in net.weighted_layers]
        compute_scores(net, scorer, 4)
        for layer, w in zip(net.weighted_layers, before):
            assert np.array_equal(layer.weights, np.abs(w) if layer.prunable else w)

    def test_same_scores_written_into_the_weights(self, scorer):
        net = init_network(self.MODEL, 4)
        abs_weights = [np.abs(layer.weights) for layer in net.prunable_layers]
        expected = {}
        for layer, w_abs in zip(net.prunable_layers, abs_weights):
            lid = layer.layer_id
            if isinstance(scorer, MagnitudeScorer):
                expected[lid] = w_abs
            else:  # scored from a copy, with the layer's derived seed
                seed = derive_seed(4, "nmf", lid)
                expected[lid] = score_layer(w_abs.copy(), scorer, lid, seed=seed)
        scores = compute_scores(net, scorer, 4)
        assert list(scores) == list(expected)
        for layer, w_abs in zip(net.prunable_layers, abs_weights):
            s = scores[layer.layer_id]
            assert isinstance(s, np.ndarray) and s.dtype == np.float64
            assert np.array_equal(s, expected[layer.layer_id])
            assert np.array_equal(layer.weights, w_abs)
            if isinstance(scorer, MagnitudeScorer):
                assert s is layer.weights
            else:  # NMF scores are a new array; the weights buffer held |W|
                assert not np.shares_memory(s, layer.weights)


def test_nmf_scoring_peaks_at_the_weights_and_two_buffers_of_the_largest_layer():
    # |W| is factorized in the weights' own buffer: beside the weights, a
    # layer holds its scores (or F @ G before them) and the earlier layers'
    # scores, all within two buffers of the largest layer here.
    model = [Linear(256, 256), ReLU(), Linear(256, 64), ReLU(), Linear(64, 10)]
    scorer = NmfConfig(k=4, n_iter=5)
    compute_scores(init_network(model, 7), scorer, 7)  # first-use allocations
    tracemalloc.start()
    try:
        net = init_network(model, 7)
        weights = sum(l.weights.nbytes + l.bias.nbytes for l in net.weighted_layers)
        largest = max(l.weights.nbytes for l in net.prunable_layers)
        compute_scores(net, scorer, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= weights + 2 * largest


def test_run_trains_a_network_built_after_scoring(tmp_path, monkeypatch):
    # Scoring writes |W| over the weights it scores, so the run scores one
    # network and trains another built from the same seed, the last it builds.
    build, compute, train = pipeline.init_network, pipeline.compute_scores, pipeline.run_training
    built, scored, trained = [], [], []

    def record_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def record_compute(net, *args, **kwargs):
        scored.append((net, len(built)))
        return compute(net, *args, **kwargs)

    def record_train(net, *args, **kwargs):
        trained.append((net, [l.weights.copy() for l in net.weighted_layers]))
        return train(net, *args, **kwargs)

    monkeypatch.setattr(pipeline, "init_network", record_build)
    monkeypatch.setattr(pipeline, "compute_scores", record_compute)
    monkeypatch.setattr(pipeline, "run_training", record_train)
    cfg = base_config(tmp_path, train=TrainConfig(epochs=1, lr=0.1, batch_size=64))
    run_pipeline(cfg)
    assert len(built) == 2 and scored == [(built[0], 1)]
    [(net, start)] = trained
    assert net is built[1]
    fresh = init_network(cfg.model, cfg.seed)
    for layer, weights, new in zip(net.weighted_layers, start, fresh.weighted_layers):
        kept = np.ones(new.weights.shape, bool) if layer.mask is None else layer.mask
        assert np.array_equal(weights, np.where(kept, new.weights, 0.0))
    for layer, new in zip(built[0].prunable_layers, fresh.prunable_layers):
        assert np.array_equal(layer.weights, np.abs(new.weights))
