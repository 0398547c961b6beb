"""Print per-layer and per-stage memory peaks, and the pass peak, over one benchmark pass.

Run from the repository root:

    python3 tools/layer_peaks.py --workload conv_idx --seed 1

``perfbench.workloads.make_workload`` writes the workload's inputs into a
fresh temporary directory, and one pass runs under tracemalloc with one BLAS
thread, as in the benchmark. As there, ``numpy.random`` has drawn once before
tracing starts, so the pass does not count that module's first import. Every
layer of each network the pass builds (``pipeline.init_network``) has its
``forward`` and ``backward`` wrapped on the instance: a call notes the traced
bytes at entry and the peak they reach before it returns. The wrappers keep
no reference to a layer's input, so each activation is freed where an
unwrapped pass frees it. One row per layer and phase (``train`` forward,
``eval`` forward, ``backward``) gives the number of calls, the highest peak
of any of them, the bytes resident at entry to that call, and the difference,
which is what the call itself allocates on top. Three stages are rows of
their own, wrapped the same way under the names ``run`` and ``tune`` look
them up by: ``load_dataset`` in phase ``data`` (``pipeline.load_dataset``),
``compute_scores`` in phase ``score`` (``pipeline.compute_scores`` and
``cli.compute_scores``) and ``tune_gamma`` in phase ``search``
(``pipeline.tune_gamma`` and ``cli.tune_gamma``). ``run`` loads the data on a
second thread while it scores, so each of those two rows' peaks counts the
other's allocations while both run. The last line gives the pass peak, the
quantity ``perfbench/run.py`` reports as ``pass_alloc_mb``, and the row that
was open when it was reached, or ``between rows``. Figures are MiB of traced
allocations, NumPy's arrays included. ``tune_wide`` trains nothing, so it
prints the score and search rows alone.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
import tempfile
import tracemalloc
import weakref
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import nmfprune.cli as cli  # noqa: E402
import nmfprune.pipeline as pipeline  # noqa: E402
from perfbench.workloads import make_workload  # noqa: E402

WORKLOADS = ("mlp_nmf", "conv_idx", "tune_wide")
MIB = 2**20


class _Peaks:
    """Rows of per-call peaks, by (name, phase), and the pass peak with the
    row that set it. ``tracemalloc.reset_peak`` is global, so every entry to
    a wrapped call first folds the peak reached since the last reset into
    the pass peak: a peak reached while no row was open is set between rows."""

    def __init__(self):
        self.rows: dict[tuple[str, str], dict] = {}
        self.open: list[tuple[str, str]] = []
        self.peak, self.row = 0, None

    def note(self, peak: int, row) -> None:
        if peak > self.peak:
            self.peak, self.row = peak, row

    def fold(self) -> None:
        """Fold the peak since the last reset into the pass peak."""
        self.note(tracemalloc.get_traced_memory()[1], self.open[-1] if self.open else None)

    @contextmanager
    def recording(self, key: tuple[str, str]):
        """Record, in row ``key``, the traced bytes at entry to the block and
        the peak they reach before it ends."""
        self.fold()
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        self.open.append(key)
        try:
            yield
        finally:
            self.open.remove(key)
            peak = tracemalloc.get_traced_memory()[1]
            row = self.rows.setdefault(key, {"calls": 0, "peak": -1, "entry": 0})
            row["calls"] += 1
            if peak > row["peak"]:
                row["peak"], row["entry"] = peak, entry
            self.note(peak, key)

    def traced(self, fn, key: tuple[str, str]):
        """``fn`` wrapped to record its calls in row ``key``."""

        def wrapper(*args, **kwargs):
            with self.recording(key):
                return fn(*args, **kwargs)

        return wrapper

    def wrap_layer(self, layer) -> None:
        """Wrap ``layer``'s ``forward`` and ``backward`` on the instance, in
        rows ``(layer id, "train" | "eval" | "backward")``. A wrapper reaches
        the layer through a weak reference, so it makes no reference cycle: a
        network the run drops, the one it scored, is freed then. And it hands
        its array on without keeping it (``pop`` leaves the layer the only
        reference), so a layer frees its input at its last use. Both are as
        in an unwrapped run."""
        ref, lid = weakref.ref(layer), layer.layer_id
        forward, backward = type(layer).forward, type(layer).backward

        def traced_forward(x, cache=True):
            held = [x]
            del x
            with self.recording((lid, "train" if cache else "eval")):
                return forward(ref(), held.pop(), cache=cache)

        def traced_backward(dout):
            held = [dout]
            del dout
            with self.recording((lid, "backward")):
                return backward(ref(), held.pop())

        layer.forward, layer.backward = traced_forward, traced_backward


def layer_peaks(name: str, seed: int) -> _Peaks:
    """Per (layer id, phase): ``calls``, and the ``peak`` and ``entry`` bytes
    of the call with the highest peak, over one pass of workload ``name``;
    and the pass peak with the row that set it. The data, score and search
    stages are the rows ``("load_dataset", "data")``, ``("compute_scores",
    "score")`` and ``("tune_gamma", "search")``."""
    peaks = _Peaks()
    build = pipeline.init_network

    def instrumented(*args, **kwargs):
        net = build(*args, **kwargs)
        for layer in net.layers:
            peaks.wrap_layer(layer)
        return net

    phases = {"load_dataset": "data", "compute_scores": "score", "tune_gamma": "search"}
    patches = {(pipeline, "init_network"): instrumented}
    for module, attr in (
        (pipeline, "load_dataset"), (pipeline, "compute_scores"), (cli, "compute_scores"),
        (pipeline, "tune_gamma"), (cli, "tune_gamma"),
    ):
        patches[module, attr] = peaks.traced(getattr(module, attr), (attr, phases[attr]))
    originals = {key: getattr(*key) for key in patches}
    with tempfile.TemporaryDirectory(prefix=f"layer-peaks-{name}-") as tmp:
        workload = make_workload(name, seed, Path(tmp))
        for (module, attr), fn in patches.items():
            setattr(module, attr, fn)
        np.random.default_rng(0).random()  # as perfbench/run.py's SpeedReference does
        tracemalloc.start()
        try:
            workload.run_pass()
            peaks.fold()
        finally:
            tracemalloc.stop()
            for (module, attr), fn in originals.items():
                setattr(module, attr, fn)
    return peaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    peaks = layer_peaks(args.workload, args.seed)
    print(
        f"{'layer':<16} {'phase':<9} {'calls':>6} {'peak MiB':>9} {'entry MiB':>10} "
        f"{'own MiB':>8}"
    )
    for (layer_id, phase), row in peaks.rows.items():
        peak, entry = row["peak"] / MIB, row["entry"] / MIB
        print(
            f"{layer_id:<16} {phase:<9} {row['calls']:>6} {peak:>9.3f} {entry:>10.3f} "
            f"{peak - entry:>8.3f}"
        )
    where = "between rows" if peaks.row is None else "in " + " ".join(peaks.row)
    print(f"pass peak {peaks.peak / MIB:.3f} MiB, set {where}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
