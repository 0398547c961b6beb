"""The benchmark's three workloads: their inputs, one pass each, and the
checks that every pass's outputs are correct.

Every input is generated from the workload seed, so the same seed gives the
same config files, IDX images and weights. The program sees only the files
written here and the command lines a user would type.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import struct
from pathlib import Path

import numpy as np

from nmfprune import cli
from nmfprune.checkpoint import load_checkpoint
from nmfprune.network import init_network
from nmfprune.runconfig import load_config

# Sparsity tolerance of the paper's invariant: achieved within +-0.005 of the target.
SPARSITY_TOL = 0.005
TUNE_TARGETS = (0.5, 0.7, 0.8, 0.9, 0.95, 0.98)
CONV_IMAGES = 2000


class CheckFailed(RuntimeError):
    """A pass finished but one of its outputs is wrong."""


def derive(seed: int, label: str) -> int:
    """An independent 31-bit seed for one input stream of the workload."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def _mlp_config(seed: int) -> str:
    return f"""[run]
seed = {derive(seed, "run")}

[model]
layer = linear 784 300
layer = relu
layer = linear 300 100
layer = relu
layer = linear 100 10

[dataset]
kind = synthetic-blobs
n_samples = 5000
n_features = 784
n_classes = 10
seed = {derive(seed, "blobs")}

[scorer]
kind = nmf
k = 10
n_iter = 200

[gamma_search]
s_target = 0.9

[threshold]
type = std

[train]
epochs = 2
lr = 0.05
batch_size = 128
"""


def _conv_config(seed: int, images: Path, labels: Path) -> str:
    return f"""[run]
seed = {derive(seed, "run")}

[model]
layer = conv2d 1 8 3 3 padding=1
layer = relu
layer = conv2d 8 16 3 3 stride=2 padding=1
layer = relu
layer = flatten
layer = linear 3136 10

[dataset]
kind = idx
images = {images}
labels = {labels}

[scorer]
kind = magnitude

[gamma_search]
s_target = 0.6

[threshold]
type = mad

[train]
epochs = 2
lr = 0.05
batch_size = 64
"""


def _tune_config(seed: int) -> str:
    # tune loads no data and trains nothing, but the config format requires
    # both sections.
    return f"""[run]
seed = {derive(seed, "run")}

[model]
layer = linear 784 1000
layer = relu
layer = linear 1000 1000
layer = relu
layer = linear 1000 10

[dataset]
kind = synthetic-blobs
n_samples = 100
n_features = 784
n_classes = 10

[scorer]
kind = magnitude

[gamma_search]
s_target = 0.9

[threshold]
type = mad

[train]
epochs = 1
lr = 0.1
"""


def write_idx_pair(directory: Path, seed: int, n: int) -> tuple[Path, Path]:
    """Write n synthetic 28x28 uint8 images of 10 classes as an IDX pair.

    Each class is a blocky 7x7 prototype scaled up to 28x28; an image is its
    class prototype plus Gaussian pixel noise, clipped to [0, 255].
    """
    rng = np.random.default_rng(seed)
    prototypes = np.kron(rng.uniform(0.0, 255.0, (10, 7, 7)), np.ones((4, 4)))
    labels = rng.integers(0, 10, n)
    noise = rng.normal(0.0, 60.0, (n, 28, 28))
    images = np.clip(0.6 * prototypes[labels] + noise, 0, 255).astype(np.uint8)
    images_path = directory / "images.idx"
    labels_path = directory / "labels.idx"
    images_path.write_bytes(struct.pack(">iiii", 0x803, n, 28, 28) + images.tobytes())
    labels_path.write_bytes(struct.pack(">ii", 0x801, n) + labels.astype(np.uint8).tobytes())
    return images_path, labels_path


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class RunWorkload:
    """`nmfprune run` on one config; one pass is one run."""

    def __init__(
        self, workdir: Path, config_text: str, n_samples: int, input_shape: tuple[int, ...],
        accuracy_floor: float,
    ):
        self.input_shape = input_shape
        self.workdir = workdir
        self.config = workdir / "run.cfg"
        self.config.write_text(config_text)
        self.out = workdir / "out"
        self.accuracy_floor = accuracy_floor
        cfg = load_config(self.config)
        self.target = cfg.gamma_search.s_target
        self.epochs = cfg.train.epochs
        # The program trains on the first 80% of a seeded permutation.
        self.n_train = int(n_samples * 0.8)

    def run_pass(self) -> None:
        rc = cli.main(["run", "--config", str(self.config), "--output", str(self.out), "--quiet"])
        _check(rc == 0, f"nmfprune run exited with {rc}")

    def check(self) -> dict:
        """Check the pass's outputs; return the figures the metrics need."""
        status = json.loads((self.out / "status.json").read_text())
        _check(status == {"status": "complete"}, f"status.json says {status}")
        report = json.loads((self.out / "report.json").read_text())
        sparsity = report["sparsity"]
        _check(
            abs(sparsity["global_sparsity"] - self.target) <= SPARSITY_TOL,
            f"achieved sparsity {sparsity['global_sparsity']} misses target {self.target}",
        )
        # tune_gamma hits its target exactly when one probe lands within tolerance.
        _check(
            any(abs(p["achieved"] - self.target) <= SPARSITY_TOL for p in report["gamma_trace"]),
            "gamma search did not hit its target",
        )

        epochs = [json.loads(line) for line in (self.out / "epochs.jsonl").read_text().splitlines()]
        _check(len(epochs) == self.epochs, f"{len(epochs)} epoch lines, expected {self.epochs}")
        zero_counts = {e["zero_count"] for e in epochs}
        _check(
            zero_counts == {sparsity["global_zeros"]},
            f"zero counts {sorted(zero_counts)} vs report {sparsity['global_zeros']}",
        )

        net = load_checkpoint(self.out / "checkpoint.bin")
        masked_zeros = 0
        total = 0
        for layer in net.prunable_layers:
            _check(layer.mask is not None, f"{layer.layer_id} has no mask in the checkpoint")
            pruned = layer.mask == 0.0
            live = int(np.count_nonzero(layer.weights[pruned]))
            _check(live == 0, f"{live} masked weights of {layer.layer_id} are not 0.0")
            masked_zeros += int(np.count_nonzero(pruned))
            total += layer.mask.size
        _check(
            abs(masked_zeros / total - self.target) <= SPARSITY_TOL,
            f"checkpoint mask sparsity {masked_zeros / total} misses target {self.target}",
        )

        accuracy = report["final_test_accuracy"]
        _check(accuracy >= self.accuracy_floor, f"test accuracy {accuracy} < {self.accuracy_floor}")
        return {
            "wall_times": report["wall_times"],
            "train_samples": self.epochs * self.n_train,
        }


class TuneWorkload:
    """Six `nmfprune tune` calls, one per target; one pass is all six."""

    input_shape = (784,)

    def __init__(self, workdir: Path, config_text: str):
        self.workdir = workdir
        self.config = workdir / "tune.cfg"
        self.config.write_text(config_text)
        self.outputs: dict[float, str] = {}
        # Oracle for the checks: the magnitude scores are |W| of the initial
        # network, so each layer's sorted scores, lower median and unscaled
        # MAD are fixed for the whole run.
        cfg = load_config(self.config)
        self.oracle = []
        for layer in init_network(cfg.model, cfg.seed).prunable_layers:
            scores = np.sort(np.abs(layer.weights).ravel())
            mid = (scores.size - 1) // 2
            median = scores[mid]
            mad = np.sort(np.abs(scores - median))[mid]
            self.oracle.append((scores, median, mad))
        self.total = sum(s.size for s, _, _ in self.oracle)

    def _out(self, target: float) -> Path:
        return self.workdir / f"out_t{target:g}"

    def run_pass(self) -> None:
        for target in TUNE_TARGETS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main([
                    "tune", "--config", str(self.config), "--target-sparsity", str(target),
                    "--output", str(self._out(target)),
                ])
            _check(rc == 0, f"nmfprune tune at target {target} exited with {rc}")
            self.outputs[target] = buf.getvalue()

    def check(self) -> dict:
        for target in TUNE_TARGETS:
            text = self.outputs[target]
            _check("within tolerance = True" in text, f"tune missed target {target}: {text!r}")
            probes = [
                json.loads(line)
                for line in (self._out(target) / "gamma_search.jsonl").read_text().splitlines()
            ]
            gamma_star = float(re.search(r"gamma\* = (\S+)", text).group(1))
            last = probes[-1]
            _check(
                f"{last['gamma']:.6g}" == f"{gamma_star:.6g}",
                f"printed gamma* {gamma_star} is not the last probe {last['gamma']}",
            )
            # Recount the sparsity at gamma* from the oracle's sorted scores.
            zeros = sum(
                int(np.searchsorted(scores, median + last["gamma"] * mad, "left"))
                for scores, median, mad in self.oracle
            )
            achieved = zeros / self.total
            _check(
                achieved == last["achieved"],
                f"recounted sparsity {achieved} differs from reported {last['achieved']}",
            )
            _check(
                abs(achieved - target) <= SPARSITY_TOL,
                f"sparsity {achieved} misses target {target}",
            )
        return {}


def make_workload(name: str, seed: int, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "mlp_nmf":
        return RunWorkload(workdir, _mlp_config(seed), 5000, (784,), accuracy_floor=0.9)
    if name == "conv_idx":
        images, labels = write_idx_pair(workdir, derive(seed, "idx"), CONV_IMAGES)
        config = _conv_config(seed, images, labels)
        return RunWorkload(workdir, config, CONV_IMAGES, (1, 28, 28), accuracy_floor=0.8)
    if name == "tune_wide":
        return TuneWorkload(workdir, _tune_config(seed))
    raise ValueError(f"unknown workload {name!r}")


def environment(seed: int) -> dict:
    """Versions, BLAS, thread settings and CPU of this run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = {"name": None, "version": None}
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "seed": seed,
    }
