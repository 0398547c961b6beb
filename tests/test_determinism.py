"""The determinism contract across BLAS thread counts.

One MLP run is made in two subprocesses, with ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` at 1 and then at 2. The masks, the zero counts, the gamma
search and ``epochs.jsonl`` must be equal. The trained weights may differ in
their last bits, because a multithreaded GEMM may sum in another order: on
a 2-vCPU host with OpenBLAS 0.3.31, 646 of this run's weights differed, by
at most 5.6e-17, so the checkpoints' bytes differed. The weights must agree
within ``WEIGHT_ATOL``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from nmfprune.checkpoint import load_checkpoint
from nmfprune.network import count_zero_weights

SRC = Path(__file__).resolve().parents[1] / "src"
WEIGHT_ATOL = 1e-12

CONFIG = """\
[run]
seed = 5

[model]
layer = linear 784 64
layer = relu
layer = linear 64 32
layer = relu
layer = linear 32 10

[dataset]
kind = synthetic-blobs
n_samples = 200
n_features = 784
n_classes = 10
seed = 1

[scorer]
kind = nmf
k = 4
n_iter = 20

[gamma_search]
s_target = 0.9

[threshold]
type = std

[train]
epochs = 2
lr = 0.05
batch_size = 64
"""


def _run(tmp_path, threads: int) -> Path:
    out = tmp_path / f"threads{threads}"
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(threads),
        "OMP_NUM_THREADS": str(threads),
        "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
    }
    subprocess.run(
        [sys.executable, "-m", "nmfprune.cli", "run", "--config", str(tmp_path / "run.ini"),
         "--output", str(out), "--quiet"],
        env=env, check=True, capture_output=True, text=True,
    )
    return out


def test_one_and_two_blas_threads_give_the_same_masks_and_metrics(tmp_path):
    (tmp_path / "run.ini").write_text(CONFIG)
    one, two = _run(tmp_path, 1), _run(tmp_path, 2)
    for name in ("epochs.jsonl", "gamma_search.jsonl"):
        assert (one / name).read_bytes() == (two / name).read_bytes(), name
    a, b = load_checkpoint(one / "checkpoint.bin"), load_checkpoint(two / "checkpoint.bin")
    assert count_zero_weights(a) == count_zero_weights(b)
    for la, lb in zip(a.weighted_layers, b.weighted_layers, strict=True):
        assert (la.mask is None) == (lb.mask is None), la.layer_id
        assert la.mask is None or np.array_equal(la.mask, lb.mask), la.layer_id
        np.testing.assert_allclose(la.weights, lb.weights, rtol=0, atol=WEIGHT_ATOL)
        np.testing.assert_allclose(la.bias, lb.bias, rtol=0, atol=WEIGHT_ATOL)
