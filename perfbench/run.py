"""Benchmark of the nmfprune score -> mask -> train pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload mlp_nmf --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Workloads (see BENCHMARK.json and workloads.py): mlp_nmf, conv_idx, tune_wide.

A run is a closed loop with one client in one process: each pass calls
``nmfprune.cli.main`` with the arguments a user would type, and the next pass
starts when the previous one has ended. One untimed warm-up pass comes first.
Every pass's outputs are checked; a failed check counts as a failed pass and
the run goes on. Passes repeat until ``--seconds`` have passed.

``run_s`` and ``setup_s`` are medians of times scaled to a reference machine
speed (see SpeedReference); the raw wall-clock medians are printed beside
them as ``run_wall_s`` and ``setup_wall_s``.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` passes alternate between untraced
and traced, and the object holds the per-layer metrics, including the
traced-minus-untraced pass time as ``trace.overhead_s``. The lines before it
give every metric by name and unit, the environment, and the sample counts.
A copy of the result, and the spans of a traced run, are written under
``.perfbench/results/``.

``--workload all`` runs every workload in its own process, one after another.
"""

import os

# One BLAS thread, pinned before numpy is imported by this process or its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# At least this many set-up samples per run; one is taken after every pass,
# so that they span the run as the passes do.
SETUP_MIN = 7
# The reference kernel's time at the speed timings are scaled to, about its
# time on a 2-vCPU Xeon host at 2.1 GHz in an uncontended phase.
REFERENCE_S = 0.010
IMPORT_READY = (
    "import sys; sys.path.insert(0, sys.argv[1]); import nmfprune.cli; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


class SpeedReference:
    """A fixed NumPy and Python kernel timed around every measurement.

    On a shared host the machine's speed moves in phases of seconds to
    minutes, by about 30%, and a pass slows with it. The kernel slows by the
    same factor, so a time multiplied by REFERENCE_S / (kernel time) reads
    the same in every phase: it is the time at the reference speed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.random((300, 300))
        self.b = rng.random((300, 300))
        self.x = rng.random(200_000)

    def seconds(self) -> float:
        start = time.perf_counter()
        for _ in range(4):
            self.a @ self.b
        np.sort(self.x)
        for _ in range(5):
            np.exp(self.x) * 1.5 + self.x
        total = 0
        for i in range(100_000):
            total += i
        return time.perf_counter() - start

    def scale(self, before: float) -> float:
        """The factor for a measurement made after a kernel run that took
        ``before`` seconds: the kernel runs again, and the two are averaged."""
        return REFERENCE_S / ((before + self.seconds()) / 2)


def setup_seconds() -> float:
    """Seconds from starting a fresh interpreter until nmfprune.cli is
    imported and ready."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", IMPORT_READY, str(SRC)], stdout=subprocess.PIPE, cwd=ROOT
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"importing nmfprune.cli failed (exit {proc.returncode})")
    return elapsed


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile above the median with at least ten samples
    beyond it, as (percentile, value); None when there are too few samples."""
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank <= len(ordered) / 2:
        return None
    return 100 * rank // len(ordered), ordered[rank - 1]


def run_passes(wl, seconds: float, tracer, reference: SpeedReference) -> dict:
    """The closed loop. Returns the timed passes that succeeded, the set-up
    samples as (seconds, scale), the peak bytes the warm-up pass allocated,
    and the number of passes attempted and failed (the warm-up included)."""
    passes: list[dict] = []
    setup: list[tuple[float, float]] = []
    allocated: list[int] = []
    attempted = failed = 0

    def one(traced: bool, timed: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        try:
            before = reference.seconds()
            with tracer.active() if traced else nullcontext():
                start = time.perf_counter()
                wl.run_pass()
                elapsed = time.perf_counter() - start
            if tracemalloc.is_tracing():
                allocated.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            scale = reference.scale(before)
            figures = wl.check()
        except Exception:  # a failed pass is counted and reported; the run goes on
            failed += 1
            print(f"pass {attempted} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return
        if timed:
            passes.append({"traced": traced, "seconds": elapsed, "scale": scale, **figures})

    def sample_setup() -> None:
        before = reference.seconds()
        elapsed = setup_seconds()
        setup.append((elapsed, reference.scale(before)))

    # The warm-up pass, untimed, measures the memory a pass allocates. Peak RSS
    # is no steady measure of that: it moved by 15% between runs of the same
    # workload, with the state of the allocator and the page cache.
    tracemalloc.start()
    try:
        one(traced=False, timed=False)
    finally:
        tracemalloc.stop()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or (tracer is not None and i < 2):
        one(traced=tracer is not None and i % 2 == 1, timed=True)
        sample_setup()
        i += 1
    while len(setup) < SETUP_MIN:
        sample_setup()
    return {
        "passes": passes, "setup": setup, "allocated": allocated,
        "attempted": attempted, "failed": failed,
    }


def end_to_end(
    passes: list[dict], setup: list[tuple[float, float]], allocated: int
) -> tuple[dict, dict]:
    """End-to-end metrics from untraced passes, plus the figures that are
    printed but are not bounded metrics, as (value, unit). Times are scaled
    to the reference speed; the raw wall-clock medians are printed too."""
    wall = [p["seconds"] for p in passes]
    times = [p["seconds"] * p["scale"] for p in passes]
    if "wall_times" in passes[0]:
        prune = [p["wall_times"]["score"] + p["wall_times"]["mask"] for p in passes]
    else:  # a tune pass is all scoring and masking
        prune = wall
    metrics = {
        "setup_s": statistics.median(seconds * scale for seconds, scale in setup),
        "run_s": statistics.median(times),
        "pass_alloc_mb": allocated / 2**20,
    }
    extra = {
        "passes": (len(times), "count"),
        "setup_repeats": (len(setup), "count"),
        "run_wall_s": (statistics.median(wall), "s"),
        "setup_wall_s": (statistics.median(seconds for seconds, _ in setup), "s"),
        "speed_vs_reference": (statistics.median(p["scale"] for p in passes), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    high = tail(times)
    if high is not None:
        extra[f"run_s_p{high[0]}"] = (high[1], "s")
    extra["prune_s"] = (statistics.median(prune), "s")
    if "wall_times" in passes[0]:
        extra["train_samples_per_s"] = (pipeline_figures(passes)["trainer.samples_per_s"], "1/s")
    return metrics, extra


def pipeline_figures(passes: list[dict]) -> dict:
    """Per-stage seconds and training throughput from the program's own
    timings in report.json, medians over untraced passes (0 when the
    workload runs no pipeline)."""
    out = {}
    for stage in ("data", "score", "mask", "train", "report"):
        values = [p["wall_times"][stage] for p in passes if "wall_times" in p]
        out[f"pipeline.{stage}_s"] = statistics.median(values) if values else 0.0
    rates = [p["train_samples"] / p["wall_times"]["train"] for p in passes if "wall_times" in p]
    out["trainer.samples_per_s"] = statistics.median(rates) if rates else 0.0
    return out


def declared(bench: dict, kind: str, values: dict) -> dict:
    """The metrics BENCHMARK.json declares, each with its unit. A declared
    per-layer metric the workload never reached (a layer it does not have)
    reads 0."""
    out = {}
    for spec in bench[kind]:
        name = spec["name"]
        if kind == "end_to_end" and name not in values:
            raise KeyError(f"end-to-end metric {name} was not measured")
        out[name] = {"value": values.get(name, 0.0), "unit": spec["unit"]}
    return out


def run_one(args, bench: dict) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from tracer import Tracer
    from workloads import environment, make_workload

    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        wl = make_workload(args.workload, args.seed, work)
        loop = run_passes(wl, args.seconds, tracer, SpeedReference())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes, attempted, failed = loop["passes"], loop["attempted"], loop["failed"]
    untraced = [p for p in passes if not p["traced"]]
    if not untraced or not loop["allocated"]:
        print("error: the warm-up or every timed pass failed, nothing to report", file=sys.stderr)
        return 1
    metrics, extra = end_to_end(untraced, loop["setup"], loop["allocated"][0])
    values = dict(metrics)
    if tracer is not None:
        traced = [p["seconds"] for p in passes if p["traced"]]
        values.update(tracer.metrics(wl.input_shape))
        values.update(pipeline_figures(untraced))
        if traced:
            values["trace.overhead_s"] = statistics.median(traced) - extra["run_wall_s"][0]
        extra["traced_passes"] = (len(traced), "count")
    extra["error_rate"] = (failed / attempted, "ratio")

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    env = environment(args.seed)
    print(f"workload {args.workload}: closed loop, 1 client, {len(untraced)} untraced passes")
    print("env " + json.dumps(env))
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": declared(bench, kind, values),
    }

    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "values": values, "extra": extra, "passes": passes}
    (results / f"{stem}.json").write_text(json.dumps({**record, "result": result}, indent=1))
    if tracer is not None:
        tracer.write_spans(results / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


def run_all(args, names: list[str]) -> int:
    """Each workload in its own process; their results merged, metric names
    prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "nmfprune" / "cli.py").is_file() or not bench_file.is_file():
        print(f"error: {ROOT} holds no nmfprune source tree to benchmark", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
