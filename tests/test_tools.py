"""Smoke tests of the tools: output_digests.py and layer_peaks.py at one seed."""

import functools
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import TUNE_TARGETS, make_workload  # noqa: E402

RUN_OUTPUTS = (
    "checkpoint.bin", "epochs.jsonl", "gamma_search.jsonl", "report.json", "status.json"
)


def test_output_digests_hash_what_each_workload_writes_and_prints(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digests.py"), "--seeds", "1"],
        capture_output=True, text=True, check=True,
    )
    digests = json.loads(done.stdout)

    tune = make_workload("tune_wide", 1, tmp_path / "tune")
    tune.run_pass()
    expected = {}
    for target in TUNE_TARGETS:
        trace = (tmp_path / "tune" / f"out_t{target:g}" / "gamma_search.jsonl").read_bytes()
        expected[f"tune_wide/1/out_t{target:g}/gamma_search.jsonl"] = trace
        expected[f"tune_wide/1/stdout_t{target:g}"] = tune.outputs[target].encode()
    for key, data in expected.items():
        assert digests[key] == hashlib.sha256(data).hexdigest(), key

    # Trained weights depend on the BLAS thread count, which the script sets
    # to one and this process does not, so the runs are checked by key only.
    run_keys = {
        f"{name}/1/out/{file}"
        for name in ("mlp_nmf", "conv_idx")
        for file in (*RUN_OUTPUTS, "checkpoint.bin:loaded")
    }
    assert set(digests) == run_keys | set(expected)


@functools.cache
def layer_peak_rows(workload):
    """The rows ``layer_peaks.py`` prints for one pass of ``workload``, by
    (layer id, phase): calls, peak, entry and own figures; and its last
    line's pass peak with the row it names, or None for "between rows"."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "layer_peaks.py"), "--workload", workload],
        capture_output=True, text=True, check=True,
    )
    header, *lines, last = done.stdout.splitlines()
    assert header.split() == [
        "layer", "phase", "calls", "peak", "MiB", "entry", "MiB", "own", "MiB",
    ]
    rows = {}
    for line in lines:
        layer_id, phase, calls, peak, entry, own = line.split()
        rows[layer_id, phase] = int(calls), float(peak), float(entry), float(own)
    for calls, peak, entry, own in rows.values():
        assert 0 <= entry <= peak
        assert own == pytest.approx(peak - entry, abs=2e-3)
    words = last.split()
    assert words[:2] == ["pass", "peak"] and words[3:5] == ["MiB,", "set"]
    pass_peak = float(words[2])
    assert pass_peak >= max(peak for _, peak, _, _ in rows.values())
    if words[5:] == ["between", "rows"]:
        return rows, pass_peak, None
    assert words[5] == "in"
    row = tuple(words[6:])
    assert rows[row][1] == pass_peak
    return rows, pass_peak, row


def test_layer_peaks_prints_every_layer_of_one_training_pass():
    rows, _, peak_row = layer_peak_rows("conv_idx")
    layers = ["layer0_conv", "layer1_relu", "layer2_conv", "layer3_relu", "layer4_flatten",
              "layer5_linear"]
    stages = {("load_dataset", "data"), ("compute_scores", "score"), ("tune_gamma", "search")}
    assert set(rows) == {(l, p) for l in layers for p in ("train", "eval", "backward")} | stages
    # 1,600 training images in batches of 64 for two epochs: 50 steps.
    assert {rows[l, p][0] for l in layers for p in ("train", "backward")} == {50}
    assert {rows[stage][0] for stage in stages} == {1}  # run loads, scores and searches once
    # The second conv's backward, which folds its patch gradient into an
    # image, sets the peak. The second ReLU's forward comes about 0.2 MiB
    # below it: no update leaves the classifier's gradient alive through it.
    assert peak_row == ("layer2_conv", "backward")


def test_layer_peaks_puts_the_mlp_peak_in_the_first_layer_backward():
    # The first layer's weight gradient (1.79 MiB) is made while the batch
    # it cached and its output gradient are live. No gradient survives an
    # update, so every training forward peaks over 1.5 MiB lower.
    rows, pass_peak, peak_row = layer_peak_rows("mlp_nmf")
    assert peak_row == ("layer0_linear", "backward")
    forwards = [peak for (_, phase), (_, peak, _, _) in rows.items() if phase == "train"]
    assert max(forwards) < pass_peak - 1.5


@pytest.mark.parametrize("workload", ["conv_idx", "mlp_nmf"])
def test_layer_peaks_pass_peak_matches_an_uninstrumented_pass(workload):
    # The wrappers keep no layer's input alive, and numpy.random has drawn
    # before tracing starts in both, so the instrumented pass reaches the
    # peak of the benchmark's warm-up pass (pass_alloc_mb).
    _, pass_peak, _ = layer_peak_rows(workload)
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.01", "--trace", "0"],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    assert pass_peak == pytest.approx(metrics["pass_alloc_mb"]["value"], abs=0.01)


def test_layer_peaks_prints_the_search_of_each_tune_call():
    # tune_wide trains nothing: its six tune calls are one score row and one
    # search row, and the search holds the magnitude scores (the prunable
    # weights) at entry.
    rows, _, _ = layer_peak_rows("tune_wide")
    assert list(rows) == [("compute_scores", "score"), ("tune_gamma", "search")]
    assert {calls for calls, _, _, _ in rows.values()} == {len(TUNE_TARGETS)}
    calls, peak, entry, own = rows["tune_gamma", "search"]
    assert entry >= (784 * 1000 + 1000 * 1000) * 8 / 2**20
