#!/usr/bin/env python3
"""The whole pipeline from a config file, as the CLI runs it.

Writes a config, executes score -> tune -> prune -> train, then shows the
report and verifies it against the emitted checkpoint. The equivalent shell
commands are printed at the end; the working directory is removed on exit.
"""

import json
import tempfile
from pathlib import Path

from nmfprune import count_zero_weights, load_checkpoint, load_config, run_pipeline

CONFIG = """\
[run]
seed = 42
output = {out}
checkpoint_every = 10

[model]
layer = linear 16 64
layer = relu
layer = linear 64 32
layer = relu
layer = linear 32 2

[dataset]
kind = synthetic-blobs
n_samples = 1000
n_features = 16
n_classes = 2
seed = 7

[scorer]
kind = nmf
k = 6

[gamma_search]
s_target = 0.8

[threshold]
type = std

[train]
epochs = 30
lr = 0.1
momentum = 0.9
weight_decay = 5e-4
batch_size = 128
milestones = 15 25
"""

with tempfile.TemporaryDirectory(prefix="nmfprune-demo-") as tmp:
    workdir = Path(tmp)
    config_path = workdir / "run.cfg"
    config_path.write_text(CONFIG.format(out=workdir / "out"))
    print(f"config written to {config_path}\n")

    cfg = load_config(config_path)
    report = run_pipeline(cfg)

    print(f"gamma*            : {report.gamma_star:.5f}")
    print(f"achieved sparsity : {report.sparsity.global_sparsity:.4f}")
    print(f"final test acc    : {report.final_test_accuracy:.4f}")
    print(f"flops dense/sparse: {report.flops.dense} / {report.flops.sparse}")
    walls = ", ".join(f"{k} {v:.2f}s" for k, v in report.wall_times.items())
    print(f"wall times        : {walls}")

    # Everything in the report is recomputable from the emitted artifacts.
    out = cfg.output_dir
    reloaded = count_zero_weights(load_checkpoint(out / "checkpoint.bin"))
    print(f"\ncheckpoint recount matches report: "
          f"{reloaded.global_zeros == report.sparsity.global_zeros}")

    status = json.loads((out / "status.json").read_text())
    print(f"status: {status['status']}")
    print("artifacts:", ", ".join(sorted(p.name for p in out.iterdir())))

    print(f"""
same thing from the shell:
  nmfprune run     --config {config_path}
  nmfprune score   --config {config_path}
  nmfprune tune    --config {config_path} --target-sparsity 0.9
  nmfprune sweep   --config {config_path} --targets 0.5,0.8,0.9 --ks 4,6
  nmfprune inspect {out / 'checkpoint.bin'}
""")
