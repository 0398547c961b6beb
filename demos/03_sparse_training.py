#!/usr/bin/env python3
"""Train a pruned model without losing a single zero.

After one-shot pruning, every optimizer step updates a pruned layer at its
kept indices only: a pruned weight is never read or written, so neither its
gradient nor momentum nor weight decay can resurrect it. The zero count is
therefore constant for the entire run, which this script verifies the hard
way.
"""

import numpy as np

from nmfprune import (
    GammaSearchConfig,
    Linear,
    NmfConfig,
    ReLU,
    SyntheticBlobs,
    TrainConfig,
    compute_scores,
    convert_to_masked,
    count_zero_weights,
    generate_all_masks,
    init_network,
    load_dataset,
    masked_train_step,
    momentum_buffers,
    run_training,
    tune_gamma,
)

dataset = load_dataset(SyntheticBlobs(1000, 16, 2, seed=7), split_seed=1)
MODEL = [Linear(16, 64), ReLU(), Linear(64, 32), ReLU(), Linear(32, 2)]

# One-shot pruning at 80% global sparsity. Scoring writes |W| over the
# weights it scores, so it gets a network of its own, and the one that
# trains is built from the same seed.
scores = compute_scores(init_network(MODEL, seed=9), NmfConfig(k=6), root_seed=9)
result = tune_gamma(scores, "std", GammaSearchConfig(s_target=0.8))
net = init_network(MODEL, seed=9)
convert_to_masked(net, generate_all_masks(scores, result.thresholds))
start = count_zero_weights(net)
print(f"pruned to {start.global_sparsity:.2%} ({start.global_zeros} zeros), gamma* = {result.gamma_star:.4f}")

# Drive individual steps and recount the zeros after each one. Momentum and
# weight decay are on, the classic ways pruned weights come back to life.
cfg = TrainConfig(epochs=1, lr=0.1, momentum=0.9, weight_decay=5e-4, batch_size=128)
buffers = momentum_buffers(net)
rng = np.random.default_rng(0)
drift = 0
for step in range(300):
    idx = rng.integers(0, len(dataset.train_x), 128)
    # standardized() returns float64 rows (blobs, CSV) as stored and
    # standardizes uint8 rows (IDX pixels) as they are read.
    x = dataset.standardized(dataset.train_x[idx])
    masked_train_step(net, x, dataset.train_y[idx], buffers, 0.1, cfg)
    if count_zero_weights(net).global_zeros != start.global_zeros:
        drift += 1
print(f"steps with any zero-count drift: {drift} / 300 (must be 0)")

# The epoch-level loop reports the same thing per epoch; train a fresh copy
# of the pruned model from scratch so the loss curve is visible.
net = init_network(MODEL, seed=9)
convert_to_masked(net, generate_all_masks(scores, result.thresholds))
metrics = run_training(net, dataset, TrainConfig(epochs=10, lr=0.1, batch_size=128), seed=4)
print("\nepoch  loss      train acc  test acc  zeros")
for m in metrics:
    print(
        f"{m.epoch:5d}  {m.train_loss:8.4f}  {m.train_accuracy:9.3f}  "
        f"{m.test_accuracy:8.3f}  {m.zero_count}"
    )
print(f"\nsparsity never moved: {len({m.zero_count for m in metrics}) == 1}")
