#!/usr/bin/env python3
"""Walk through reconstruction-error weight scoring on a single layer.

A layer's absolute weights are factorized into a low-rank non-negative
product F @ G. Weights the product reconstructs poorly get high scores:
they carry structure the dominant components miss, so they are kept.
"""

import numpy as np

from nmfprune import NmfConfig, Linear, ReLU, factorize, init_network, score_layer

# A small MLP; the last linear layer is the classifier and stays dense.
net = init_network([Linear(32, 64), ReLU(), Linear(64, 10)], seed=0)
layer = net.prunable_layers[0]
print(f"scoring {layer.layer_id}: weight matrix {layer.weights.shape}")

# Step 1: factorize |W| with rank 6 and watch the objective fall. The seed
# is an argument of each call; a run derives one per layer from its own.
cfg = NmfConfig(k=6, n_iter=200)
result = factorize(np.abs(layer.weights), cfg, seed=1)
trace = result.objective_trace
print(f"rank used: {result.k_eff}")
print(f"objective: {trace[0]:.4f} -> {trace[-1]:.4f} over {len(trace) - 1} updates")
drops = np.diff(trace)
print(f"largest single-update increase (should be <= 0): {drops.max():.2e}")

# Step 2: the score of each weight is its absolute reconstruction error.
# score_layer writes |W| over the array it is handed, so score a copy.
scores = score_layer(layer.weights.copy(), cfg, layer.layer_id, seed=1)
print(f"score range: [{scores.min():.2e}, {scores.max():.2e}]")
print(f"score mean:  {scores.mean():.4f}")

# Scores depend on |W| only: flipping every sign changes nothing.
flipped = score_layer(-layer.weights, cfg, layer.layer_id, seed=1)
print(f"sign-flip invariant: {np.array_equal(scores, flipped)}")

# A rank-1 weight matrix is perfectly explained by a rank-1 factorization,
# so its scores collapse to ~zero: nothing stands out, nothing is special.
u = np.random.default_rng(2).uniform(0.5, 1.0, (64, 1))
v = np.random.default_rng(3).uniform(0.5, 1.0, (1, 32))
rank1_scores = score_layer(u @ v, NmfConfig(k=1), seed=4)
print(f"rank-1 layer max score: {rank1_scores.max():.2e} (everything is redundant)")
