"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is calibrated at run time.
"""

import math
import time

import numpy as np

from nmfprune.checkpoint import load_checkpoint, save_checkpoint
from nmfprune.datasets import SyntheticBlobs, load_dataset
from nmfprune.masking import (
    GammaSearchConfig,
    ThresholdConfig,
    generate_all_masks,
    layer_thresholds,
    sparsity_report,
    tune_gamma,
)
from nmfprune.network import (
    Conv2d,
    Flatten,
    Linear,
    ReLU,
    convert_to_masked,
    count_zero_weights,
    init_network,
    softmax_cross_entropy,
)
from nmfprune.nmf import NmfConfig, factorize, score_magnitude
from nmfprune.pipeline import compute_scores, run_pipeline
from nmfprune.runconfig import RunConfig
from nmfprune.seeds import derive_seed
from nmfprune.trainer import (
    OptimizerState,
    TrainConfig,
    lr_at,
    masked_train_step,
    run_training,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def mlp_scores(seed: int) -> dict[str, np.ndarray]:
    """Continuous random weights of a 3-layer MLP, widths >= 64, scored by
    magnitude so every global sparsity in (0, 1) is reachable."""
    net = init_network(
        [Linear(128, 256), ReLU(), Linear(256, 256), ReLU(), Linear(256, 128)], seed=seed
    )
    return {l.layer_id: score_magnitude(l.weights) for l in net.weighted_layers}


def oracle_counts(all_scores, t_type, gamma):
    """Sort-based per-layer threshold oracle, independent of the library's
    statistics and counting code paths."""
    zeros = total = 0
    for scores in all_scores.values():
        xs = sorted(scores.ravel().tolist())
        n = len(xs)
        mean = math.fsum(xs) / n
        std = math.sqrt(math.fsum((x - mean) ** 2 for x in xs) / n)
        median = xs[(n - 1) // 2]
        mad = sorted(abs(x - median) for x in xs)[(n - 1) // 2]
        tau = mean + gamma * std if t_type == "std" else median + gamma * mad
        zeros += sum(1 for x in xs if x < tau)
        total += n
    return zeros, total


def blobs_run_config(tmp_path, target=0.8, epochs=40) -> RunConfig:
    milestones = (20, 30) if epochs > 30 else ()
    return RunConfig(
        model=[Linear(16, 64), ReLU(), Linear(64, 32), ReLU(), Linear(32, 2)],
        dataset=SyntheticBlobs(1000, 16, 2, seed=7),
        scorer=NmfConfig(k=6),
        threshold=ThresholdConfig("std", 1.0),
        gamma_search=GammaSearchConfig(s_target=target),
        train=TrainConfig(
            epochs=epochs, lr=0.1, momentum=0.9, weight_decay=5e-4,
            batch_size=128, lr_milestones=milestones, lr_gamma=0.1,
        ),
        output_dir=tmp_path / "run",
        seed=11,
    )


def test_criterion_1_sparsity_targeting():
    scores = mlp_scores(seed=42)
    worst = 0.0
    for t_type in ("std", "mad"):
        for target in (0.50, 0.80, 0.90, 0.95):
            start = time.perf_counter()
            result = tune_gamma(scores, t_type, GammaSearchConfig(s_target=target))
            elapsed = time.perf_counter() - start
            gap = abs(result.achieved - target)
            worst = max(worst, gap)
            # The exact-count search takes 13-23 iterations on these scores.
            assert result.iterations <= 25, f"{t_type}/{target}: {result.iterations} iterations"
            assert gap <= 0.005, f"{t_type}/{target}: achieved {result.achieved:.4f}"
            assert elapsed < 5.0, f"{t_type}/{target}: took {elapsed:.2f}s"
    report(
        "criterion 1: gamma tuner hits targets {0.5, 0.8, 0.9, 0.95} for std and mad",
        True,
        f"worst |achieved - target| = {worst:.4f}",
    )


def test_criterion_2_quantile_oracle_equivalence():
    scores = mlp_scores(seed=42)
    for t_type in ("std", "mad"):
        result = tune_gamma(scores, t_type, GammaSearchConfig(s_target=0.8))
        zeros, total = oracle_counts(scores, t_type, result.gamma_star)
        assert result.achieved == zeros / total, f"{t_type}: oracle count mismatch"
        masks = generate_all_masks(scores, result.thresholds)
        assert sparsity_report(masks).global_zeros == zeros

    sweep = []
    for gamma in np.linspace(0.01, 10.0, 50):
        masks = generate_all_masks(scores, layer_thresholds(scores, "std", float(gamma)))
        sweep.append(sparsity_report(masks).global_sparsity)
    monotone = all(b >= a for a, b in zip(sweep, sweep[1:]))
    assert monotone
    report(
        "criterion 2: achieved sparsity matches the sort-based oracle exactly; "
        "gamma sweep is non-decreasing",
        True,
        f"sweep {sweep[0]:.3f} -> {sweep[-1]:.3f} over 50 points",
    )


def test_criterion_3_strict_sparsity_preservation(tmp_path):
    start = time.perf_counter()
    cfg = blobs_run_config(tmp_path)
    dataset = load_dataset(cfg.dataset, split_seed=derive_seed(cfg.seed, "data"))
    net = init_network(cfg.model, cfg.seed)
    scores = compute_scores(net, cfg.scorer, cfg.seed)
    result = tune_gamma(scores, "std", GammaSearchConfig(s_target=0.8))
    convert_to_masked(net, generate_all_masks(scores, result.thresholds))

    baseline = count_zero_weights(net).global_zeros
    train_cfg = TrainConfig(epochs=1, lr=0.1, momentum=0.9, weight_decay=5e-4, batch_size=128)
    state = OptimizerState.for_network(net)
    rng = np.random.default_rng(0)
    n = len(dataset.train_x)
    steps = 2000
    for step in range(steps):
        idx = rng.integers(0, n, 128)
        masked_train_step(net, dataset.train_x[idx], dataset.train_y[idx], state, 0.1, train_cfg)
        count = count_zero_weights(net).global_zeros
        assert count == baseline, f"step {step}: zero count {count} != {baseline}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(
        "criterion 3: zero count identical at every one of 2000 steps "
        "(momentum 0.9, weight decay 5e-4)",
        True,
        f"{baseline} zeros held for {steps} steps in {elapsed:.1f}s",
    )


def test_criterion_4_masking_identity():
    specs = [Linear(16, 32), ReLU(), Linear(32, 16), ReLU(), Linear(16, 2)]
    train_cfg = TrainConfig(epochs=1, lr=0.05, momentum=0.9, weight_decay=5e-4, batch_size=64)

    def run(masked: bool) -> list[float]:
        net = init_network(specs, seed=21)
        if masked:
            masks = {l.layer_id: np.ones_like(l.weights, dtype=bool) for l in net.prunable_layers}
            convert_to_masked(net, masks)
        state = OptimizerState.for_network(net)
        rng = np.random.default_rng(5)
        losses = []
        for _ in range(500):
            x = rng.normal(size=(64, 16))
            y = rng.integers(0, 2, 64)
            losses.append(masked_train_step(net, x, y, state, 0.05, train_cfg).loss)
        return losses

    masked_losses = run(masked=True)
    plain_losses = run(masked=False)
    identical = masked_losses == plain_losses
    assert identical
    report(
        "criterion 4: all-ones masked loop reproduces the unmasked loss "
        "trajectory bit-for-bit over 500 steps",
        True,
        f"final loss {masked_losses[-1]:.6f}",
    )


def test_criterion_5_nmf_correctness():
    # (a) monotone objective on 20 random non-negative matrices
    for i in range(20):
        rng = np.random.default_rng(300 + i)
        w = rng.random((rng.integers(4, 20), rng.integers(4, 20)))
        trace = factorize(w, NmfConfig(k=3, seed=i)).objective_trace
        assert len(trace) == 201
        assert np.all(trace[1:] <= trace[:-1] + 1e-9), f"matrix {i} trace increased"

    # (b) rank-1 inputs reach relative residual <= 1e-6 with k=1
    rng = np.random.default_rng(77)
    worst_resid = 0.0
    for _ in range(5):
        w = rng.uniform(0.1, 1.0, (40, 1)) @ rng.uniform(0.1, 1.0, (1, 25))
        result = factorize(w, NmfConfig(k=1, seed=1))
        resid = result.objective_trace[-1] / float(np.sum(w * w))
        worst_resid = max(worst_resid, resid)
        assert resid <= 1e-6

    # (c) bit-exact determinism under a fixed seed
    w = np.random.default_rng(78).random((12, 9))
    a = factorize(w, NmfConfig(k=4, seed=9))
    b = factorize(w, NmfConfig(k=4, seed=9))
    assert a.f.tobytes() == b.f.tobytes()
    assert a.g.tobytes() == b.g.tobytes()
    assert a.objective_trace.tobytes() == b.objective_trace.tobytes()
    report(
        "criterion 5: factorization monotone on 20 matrices, rank-1 residual "
        "<= 1e-6, bit-exact determinism",
        True,
        f"worst rank-1 relative residual {worst_resid:.2e}",
    )


def test_criterion_6_gradient_correctness():
    net = init_network(
        [Conv2d(2, 4, 3, 3, padding=1), ReLU(), Flatten(), Linear(64, 8), ReLU(), Linear(8, 3)],
        seed=31,
    )
    rng = np.random.default_rng(32)
    x = rng.normal(size=(6, 2, 4, 4))
    y = rng.integers(0, 3, 6)
    net.forward(x)
    net.backward(y)

    h = 1e-5
    worst = 0.0
    for layer in net.weighted_layers:
        analytic = layer.grad_weights.copy()
        n_rows, n_cols = analytic.shape
        for _ in range(5):
            index = (int(rng.integers(0, n_rows)), int(rng.integers(0, n_cols)))
            original = layer.weights[index]
            layer.weights[index] = original + h
            loss_plus, _ = softmax_cross_entropy(net.forward(x), y)
            layer.weights[index] = original - h
            loss_minus, _ = softmax_cross_entropy(net.forward(x), y)
            layer.weights[index] = original
            numeric = (loss_plus - loss_minus) / (2 * h)
            rel = abs(analytic[index] - numeric) / max(abs(numeric), abs(analytic[index]), 1e-8)
            worst = max(worst, rel)
            assert rel <= 1e-4, f"{layer.layer_id}{index}: rel err {rel:.2e}"
    report(
        "criterion 6: analytic gradients match central finite differences "
        "(linear and conv) at rel err <= 1e-4",
        True,
        f"worst rel err {worst:.2e}",
    )


def test_criterion_7_learning_under_sparsity(tmp_path):
    cfg = blobs_run_config(tmp_path, target=0.8, epochs=40)
    sparse_report = run_pipeline(cfg)
    assert abs(sparse_report.sparsity.global_sparsity - 0.8) <= 0.005

    dense_net = init_network(cfg.model, cfg.seed)
    dataset = load_dataset(cfg.dataset, split_seed=derive_seed(cfg.seed, "data"))
    train_cfg = TrainConfig(
        epochs=40, lr=0.1, momentum=0.9, weight_decay=5e-4, batch_size=128,
        lr_milestones=(20, 30), lr_gamma=0.1, seed=derive_seed(cfg.seed, "train"),
    )
    dense_metrics = run_training(dense_net, dataset, train_cfg)

    sparse_acc = sparse_report.final_test_accuracy
    dense_acc = dense_metrics[-1].test_accuracy
    assert sparse_acc >= 0.90, f"sparse accuracy {sparse_acc:.3f} < 0.90"
    assert dense_acc >= 0.95, f"dense accuracy {dense_acc:.3f} < 0.95"
    report(
        "criterion 7: 80%-sparse model >= 90% test accuracy in 40 epochs, "
        "dense control >= 95%",
        True,
        f"sparse {sparse_acc:.3f}, dense {dense_acc:.3f}",
    )


def test_criterion_8_round_trip_and_reporting_integrity(tmp_path):
    cfg = blobs_run_config(tmp_path, epochs=4)
    run_report = run_pipeline(cfg)
    path = cfg.output_dir / "checkpoint.bin"

    loaded = load_checkpoint(path)
    resaved = cfg.output_dir / "resaved.bin"
    save_checkpoint(loaded, resaved)
    assert path.read_bytes() == resaved.read_bytes(), "save/load/save is not bit-exact"

    recount = count_zero_weights(loaded)
    assert run_report.sparsity.global_zeros == recount.global_zeros
    assert run_report.sparsity.global_sparsity == recount.global_sparsity
    for lid, ls in run_report.sparsity.per_layer.items():
        assert ls.zeros == recount.per_layer[lid].zeros
    assert run_report.epoch_metrics[-1].zero_count == recount.global_zeros
    report(
        "criterion 8: checkpoint round-trip bit-exact; every reported sparsity "
        "equals an independent recount",
        True,
        f"{recount.global_zeros}/{recount.global_total} zeros",
    )


def test_criterion_9_lr_schedule():
    cfg = TrainConfig(epochs=160, lr=0.1, lr_milestones=(80, 120), lr_gamma=0.1)
    checks = [
        (0, 0.1), (40, 0.1), (79, 0.1),
        (80, 0.01), (100, 0.01), (119, 0.01),
        (120, 0.001), (159, 0.001),
    ]
    for epoch, expected in checks:
        got = lr_at(epoch, cfg)
        assert math.isclose(got, expected, rel_tol=1e-12), f"epoch {epoch}: {got}"
    report(
        "criterion 9: schedule reproduces 0.1 -> 0.01 -> 0.001 at milestones (80, 120)",
        True,
    )
