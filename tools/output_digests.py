"""Print sha256 digests of the benchmark workloads' outputs as one JSON map.

Run from the repository root, once on each tree to compare:

    python3 tools/output_digests.py --seeds 1 2 3 > digests.json

For each workload and seed, ``perfbench.workloads.make_workload`` writes the
inputs into a fresh temporary directory and one pass runs, with one BLAS
thread as in the benchmark. The map's keys are ``<workload>/<seed>/<path>``,
where ``<path>`` is an output file relative to the workload's directory, or
``stdout_t<target>`` for what ``tune`` printed at that target. Covered:
``checkpoint.bin``, ``epochs.jsonl``, ``gamma_search.jsonl``, ``status.json``,
``report.json`` without its ``wall_times``, and the ``tune`` stdouts. Each
``checkpoint.bin`` is also loaded back, and ``<path>:loaded`` digests the
network ``load_checkpoint`` returns: every weighted layer's weight, bias and
mask bytes, in layer order. The generated inputs are not hashed:
``conv_idx``'s config holds its own absolute path. Two trees that print the
same map wrote, and read back, the same bytes.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from nmfprune.checkpoint import load_checkpoint  # noqa: E402
from perfbench.workloads import make_workload  # noqa: E402

WORKLOADS = ("mlp_nmf", "conv_idx", "tune_wide")
OUTPUTS = ("checkpoint.bin", "epochs.jsonl", "gamma_search.jsonl", "status.json")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _loaded_digest(path: Path) -> str:
    """Digest of the weights, biases and masks of the network at ``path``."""
    h = hashlib.sha256()
    for layer in load_checkpoint(path).weighted_layers:
        for array in (layer.weights, layer.bias, layer.mask):
            if array is not None:
                h.update(array.tobytes())
    return h.hexdigest()


def workload_digests(name: str, seed: int) -> dict[str, str]:
    """Digests of one pass of workload ``name`` at ``seed``, by relative path."""
    with tempfile.TemporaryDirectory(prefix=f"digests-{name}-") as tmp:
        workdir = Path(tmp)
        workload = make_workload(name, seed, workdir)
        workload.run_pass()
        digests = {}
        for path in sorted(workdir.rglob("*")):
            key = path.relative_to(workdir).as_posix()
            if path.name in OUTPUTS:
                digests[key] = _sha256(path.read_bytes())
            elif path.name == "report.json":
                report = json.loads(path.read_text())
                del report["wall_times"]
                digests[key] = _sha256(json.dumps(report).encode())
            if path.name == "checkpoint.bin":
                digests[f"{key}:loaded"] = _loaded_digest(path)
        for target, text in getattr(workload, "outputs", {}).items():
            digests[f"stdout_t{target:g}"] = _sha256(text.encode())
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    digests = {
        f"{name}/{seed}/{key}": digest
        for name in WORKLOADS
        for seed in args.seeds
        for key, digest in workload_digests(name, seed).items()
    }
    print(json.dumps(digests, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
