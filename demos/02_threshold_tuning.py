#!/usr/bin/env python3
"""From scores to masks: statistical thresholds and the gamma search.

Each layer prunes below its own threshold, mean + gamma*std or
median + gamma*mad. One shared gamma controls all layers; a bisection search
finds the gamma whose masks prune exactly the requested share of weights.
"""

from nmfprune import (
    GammaSearchConfig,
    Linear,
    NmfConfig,
    ReLU,
    compute_scores,
    generate_all_masks,
    init_network,
    layer_thresholds,
    sparsity_report,
    tune_gamma,
)

net = init_network([Linear(64, 128), ReLU(), Linear(128, 64), ReLU(), Linear(64, 10)], seed=3)
scores = compute_scores(net, NmfConfig(k=6), root_seed=3)
total = sum(s.size for s in scores.values())
print(f"scored {len(scores)} prunable layers, {total} weights\n")

# Sparsity grows monotonically with gamma: higher gamma, higher thresholds,
# fewer survivors. Sweep it to see the response curve.
print("gamma     sparsity   per-layer thresholds")
for gamma in (0.1, 0.5, 1.0, 1.5, 2.0, 3.0):
    thresholds = layer_thresholds(scores, "std", gamma)
    sp = sparsity_report(generate_all_masks(scores, thresholds)).global_sparsity
    taus = "  ".join(f"{t.tau:.4f}" for t in thresholds.values())
    print(f"{gamma:5.2f}    {sp:8.4f}   {taus}")

# The search automates that: ask for 80% and it probes gamma = 0, then
# bisects between 0 and the gamma that lifts every threshold to its layer's
# largest score, until exactly round(0.8 * total) weights are pruned.
print(f"\nsearching for 80% global sparsity, {round(0.8 * total)} weights (std thresholds):")
result = tune_gamma(scores, "std", GammaSearchConfig(s_target=0.80))
for probe in result.trace:
    tag = "gamma 0" if probe.iteration == 0 else f"it {probe.iteration:2d}"
    print(
        f"  {tag}: gamma={probe.gamma:.5f} achieved={probe.achieved:.4f} "
        f"bracket=[{probe.gamma_low:.4f}, {probe.gamma_high:.4f}]"
    )
print(
    f"gamma* = {result.gamma_star:.5f}, achieved = {result.achieved:.4f}, "
    f"pruned = {round(result.achieved * total)}, within tolerance = {result.hit_target}"
)

# The same gamma* applies to every layer; each layer's own statistics set
# its threshold, so layers prune by different amounts. The search hands
# those thresholds to the masks.
masks = generate_all_masks(scores, result.thresholds)
report = sparsity_report(masks)
for lid, ls in report.per_layer.items():
    print(f"  {lid}: {ls.zeros}/{ls.total} pruned ({ls.sparsity:.1%})")
print(f"  global: {report.global_sparsity:.1%}")

# MAD thresholds are the robust alternative; same mechanics.
result_mad = tune_gamma(scores, "mad", GammaSearchConfig(s_target=0.80))
print(f"\nmad mode: gamma* = {result_mad.gamma_star:.5f}, achieved = {result_mad.achieved:.4f}")
