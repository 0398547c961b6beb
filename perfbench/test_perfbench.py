"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``.

They check that BENCHMARK.json declares every metric the runs produce, that
the counts the traced run reports repeat exactly between runs, and that the
per-pass checks catch wrong outputs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CheckFailed, make_workload  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]
# Counts that depend only on the inputs, never on timing.
EXACT_PREFIXES = (
    "masking.probes", "trainer.steps", "nmf.iters", "nmf.mflop_per_iter.",
    "network.dense_mflop.", "network.sparse_mflop.", "datasets.idx_bytes_in",
    "checkpoint.bytes_written", "trace.spans_per_pass",
)


def traced_pass(name: str, seed: int, workdir: Path) -> dict:
    wl = make_workload(name, seed, workdir)
    tracer = Tracer()
    with tracer.active():
        wl.run_pass()
    wl.check()
    return tracer.metrics(wl.input_shape)


def test_benchmark_json_matches_the_runner():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert NAMES == ["mlp_nmf", "conv_idx", "tune_wide"]
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly_between_runs(name, tmp_path):
    first = traced_pass(name, 7, tmp_path / "a")
    second = traced_pass(name, 7, tmp_path / "b")
    declared = {m["name"] for m in BENCH["per_layer"]}
    assert set(first) <= declared
    exact = {k: v for k, v in first.items() if k.startswith(EXACT_PREFIXES)}
    assert exact == {k: second[k] for k in exact}
    assert first["masking.probes"] > 0
    assert (first["nmf.iters"] > 0) == (name == "mlp_nmf")
    assert (first["trainer.steps"] > 0) == (name != "tune_wide")
    assert (first["network.im2col_ms"] > 0) == (name == "conv_idx")


def test_run_checks_catch_a_changed_zero_count(tmp_path):
    wl = make_workload("conv_idx", 3, tmp_path)
    wl.run_pass()
    wl.check()
    log = wl.out / "epochs.jsonl"
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    lines[-1]["zero_count"] += 1
    log.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(CheckFailed, match="zero counts"):
        wl.check()


def test_tune_checks_recount_the_reported_sparsity(tmp_path):
    wl = make_workload("tune_wide", 3, tmp_path)
    wl.run_pass()
    wl.check()
    trace = wl.workdir / "out_t0.9" / "gamma_search.jsonl"
    probes = [json.loads(line) for line in trace.read_text().splitlines()]
    probes[-1]["achieved"] += 1e-6
    trace.write_text("".join(json.dumps(p) + "\n" for p in probes))
    with pytest.raises(CheckFailed, match="recounted sparsity"):
        wl.check()


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 20) is None
    assert run.tail([float(i) for i in range(1, 101)]) == (90, 90.0)


def test_fails_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
