"""Print per-layer forward and backward memory peaks, and the gamma search's, over one pass.

Run from the repository root:

    python3 tools/layer_peaks.py --workload conv_idx --seed 1

``perfbench.workloads.make_workload`` writes the workload's inputs into a
fresh temporary directory, and one pass runs under tracemalloc with one BLAS
thread, as in the benchmark. Every layer of the network the pass builds
(``pipeline.init_network``) has its ``forward`` and ``backward`` wrapped on
the instance: a call notes the traced bytes at entry and the peak they reach
before it returns. One row per layer and phase (``train`` forward, ``eval``
forward, ``backward``) gives the number of calls, the highest peak of any of
them, the bytes resident at entry to that call, and the difference, which is
what the call itself allocates on top. The gamma search is one more row,
``tune_gamma`` in phase ``search``: ``pipeline.tune_gamma`` (``run``) and
``cli.tune_gamma`` (``tune``) are wrapped the same way, so the search's peak
sits beside training's. Figures are MiB of traced allocations, NumPy's
arrays included. ``tune_wide`` trains nothing, so it prints the search row
alone.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import nmfprune.cli as cli  # noqa: E402
import nmfprune.pipeline as pipeline  # noqa: E402
from perfbench.workloads import make_workload  # noqa: E402

WORKLOADS = ("mlp_nmf", "conv_idx", "tune_wide")
MIB = 2**20


def _traced(fn, phase_of, record):
    """``fn`` wrapped to pass ``record(phase, entry_bytes, peak_bytes)`` the
    traced bytes at its entry and the peak it reached."""

    def wrapper(*args, **kwargs):
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            record(phase_of(kwargs), entry, tracemalloc.get_traced_memory()[1])

    return wrapper


def layer_peaks(name: str, seed: int) -> dict[tuple[str, str], dict]:
    """Per (layer id, phase): ``calls``, and the ``peak`` and ``entry`` bytes
    of the call with the highest peak, over one pass of workload ``name``.
    The gamma search's calls are the row ``("tune_gamma", "search")``."""
    rows: dict[tuple[str, str], dict] = {}

    def recorder(layer_id):
        def record(phase, entry, peak):
            row = rows.setdefault((layer_id, phase), {"calls": 0, "peak": -1, "entry": 0})
            row["calls"] += 1
            if peak > row["peak"]:
                row["peak"], row["entry"] = peak, entry

        return record

    build = pipeline.init_network

    def instrumented(*args, **kwargs):
        net = build(*args, **kwargs)
        for layer in net.layers:
            record = recorder(layer.layer_id)
            layer.forward = _traced(
                layer.forward, lambda kw: "train" if kw.get("cache", True) else "eval", record
            )
            layer.backward = _traced(layer.backward, lambda kw: "backward", record)
        return net

    search = recorder("tune_gamma")
    patches = {
        (pipeline, "init_network"): instrumented,
        (pipeline, "tune_gamma"): _traced(pipeline.tune_gamma, lambda kw: "search", search),
        (cli, "tune_gamma"): _traced(cli.tune_gamma, lambda kw: "search", search),
    }
    originals = {key: getattr(*key) for key in patches}
    with tempfile.TemporaryDirectory(prefix=f"layer-peaks-{name}-") as tmp:
        workload = make_workload(name, seed, Path(tmp))
        for (module, attr), fn in patches.items():
            setattr(module, attr, fn)
        tracemalloc.start()
        try:
            workload.run_pass()
        finally:
            tracemalloc.stop()
            for (module, attr), fn in originals.items():
                setattr(module, attr, fn)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rows = layer_peaks(args.workload, args.seed)
    print(
        f"{'layer':<16} {'phase':<9} {'calls':>6} {'peak MiB':>9} {'entry MiB':>10} "
        f"{'own MiB':>8}"
    )
    for (layer_id, phase), row in rows.items():
        peak, entry = row["peak"] / MIB, row["entry"] / MIB
        print(
            f"{layer_id:<16} {phase:<9} {row['calls']:>6} {peak:>9.3f} {entry:>10.3f} "
            f"{peak - entry:>8.3f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
