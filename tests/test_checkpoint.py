"""Container format round-trip and corruption rejection tests."""

import json
import re
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

import nmfprune.checkpoint as checkpoint
from nmfprune.checkpoint import (
    CheckpointError,
    load_checkpoint,
    read_container,
    save_checkpoint,
    write_container,
)
from nmfprune.cli import main
from nmfprune.network import Conv2d, Flatten, Linear, ReLU, convert_to_masked, init_network
from nmfprune.trainer import (
    SparsityViolationError,
    TrainConfig,
    masked_train_step,
    momentum_buffers,
)


def trained_masked_net(seed=0):
    net = init_network([Linear(6, 10), ReLU(), Linear(10, 3)], seed=seed)
    rng = np.random.default_rng(seed + 1)
    masks = {l.layer_id: rng.random(l.weights.shape) < 0.4 for l in net.prunable_layers}
    convert_to_masked(net, masks)
    cfg = TrainConfig(epochs=1, lr=0.1)
    buffers = momentum_buffers(net)
    for _ in range(5):
        masked_train_step(net, rng.normal(size=(8, 6)), rng.integers(0, 3, 8), buffers, 0.1, cfg)
    return net


def masked_conv_net(seed=0):
    net = init_network(
        [Conv2d(1, 2, 3, 3, padding=1), ReLU(), Flatten(), Linear(18, 3)], seed=seed
    )
    rng = np.random.default_rng(seed + 1)
    convert_to_masked(net, {l.layer_id: rng.random(l.weights.shape) < 0.4
                            for l in net.prunable_layers})
    return net


class TestContainer:
    def test_round_trip_meta_and_tensors(self, tmp_path):
        path = tmp_path / "c.bin"
        rng = np.random.default_rng(0)
        tensors = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(1, 7))}
        write_container(path, {"kind": "scores", "note": 7}, tensors)
        meta, loaded = read_container(path)
        assert meta == {"kind": "scores", "note": 7}
        for name in tensors:
            assert np.array_equal(loaded[name], tensors[name])
            assert loaded[name].tobytes() == tensors[name].tobytes()

    def test_bool_tensor_written_as_its_float64_bytes(self, tmp_path):
        bits = np.random.default_rng(1).random((5, 7)) < 0.4
        write_container(tmp_path / "bool.bin", {}, {"m": bits})
        write_container(tmp_path / "float.bin", {}, {"m": bits.astype(np.float64)})
        assert (tmp_path / "bool.bin").read_bytes() == (tmp_path / "float.bin").read_bytes()

    @pytest.mark.parametrize("size", [
        checkpoint._WRITE_BLOCK - 1, checkpoint._WRITE_BLOCK, 2 * checkpoint._WRITE_BLOCK + 3,
    ])
    def test_tensors_across_write_blocks_keep_their_float64_bytes(self, tmp_path, size):
        rng = np.random.default_rng(size)
        bits = rng.random(size) < 0.4
        weights = rng.normal(size=(3, size)).T  # not C-contiguous
        write_container(tmp_path / "c.bin", {}, {"m": bits, "w": weights})
        write_container(tmp_path / "f.bin", {}, {"m": bits.astype(np.float64), "w": weights.copy()})
        assert (tmp_path / "c.bin").read_bytes() == (tmp_path / "f.bin").read_bytes()
        _, loaded = read_container(tmp_path / "c.bin")
        assert loaded["m"].tobytes() == bits.astype("<f8").tobytes()
        assert loaded["w"].tobytes() == np.ascontiguousarray(weights).tobytes()

    def test_magic_begins_file(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, {}, {})
        assert path.read_bytes()[:4] == b"ONGC"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: .*bad magic"):
            read_container(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, {}, {})
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: .*version 99"):
            read_container(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, {"k": 1}, {"t": np.ones((4, 4))})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 9])
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: "):
            read_container(path)

    @pytest.mark.parametrize("body, message", [
        (struct.pack("<Q", 20) + b"{}", "truncated container"),  # 20 metadata bytes promised
        (struct.pack("<Q", 2) + b"{}" + struct.pack("<QI", 1, 1) + b"t"
         + struct.pack("<QQd", 2, 2, 0.0), "truncated container"),  # 4 values promised
        (struct.pack("<Q", 2) + b"{}" + struct.pack("<Q", 0) + b"xyz", "3 trailing bytes"),
    ], ids=["metadata", "tensor", "trailing"])
    def test_body_unlike_its_headers_rejected(self, tmp_path, body, message):
        path = tmp_path / "c.bin"
        crc = struct.pack("<I", zlib.crc32(body))
        path.write_bytes(b"ONGC" + struct.pack("<I", 1) + body + crc)
        with pytest.raises(CheckpointError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_container(path)

    def test_corruption_fails_checksum(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, {"k": 1}, {"t": np.ones((4, 4))})
        raw = bytearray(path.read_bytes())
        raw[30] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: checksum"):
            read_container(path)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = trained_masked_net()
        path = tmp_path / "ck.bin"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.seed == net.seed
        assert loaded.specs == net.specs
        for a, b in zip(net.weighted_layers, loaded.weighted_layers):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()
            assert a.prunable == b.prunable
            if a.mask is None:
                assert b.mask is None
            else:
                assert a.mask.tobytes() == b.mask.tobytes()

    def test_loaded_net_passes_masked_nullity(self, tmp_path):
        net = trained_masked_net(seed=3)
        path = tmp_path / "ck.bin"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        for layer in loaded.masked_layers:
            assert np.all(layer.weights * (1.0 - layer.mask) == 0.0)

    def test_zero_recount_matches_original(self, tmp_path):
        from nmfprune.network import count_zero_weights

        net = trained_masked_net(seed=4)
        path = tmp_path / "ck.bin"
        save_checkpoint(net, path)
        original = count_zero_weights(net)
        reloaded = count_zero_weights(load_checkpoint(path))
        assert original.global_zeros == reloaded.global_zeros
        assert original.global_sparsity == reloaded.global_sparsity

    def test_truncated_checkpoint_returns_nothing(self, tmp_path):
        net = trained_masked_net(seed=5)
        path = tmp_path / "ck.bin"
        save_checkpoint(net, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_conv_checkpoint_round_trip(self, tmp_path):
        net = init_network(
            [Conv2d(1, 4, 3, 3, padding=1), ReLU(), Flatten(), Linear(36, 2)], seed=6
        )
        net.forward(np.random.default_rng(7).normal(size=(2, 1, 3, 3)))
        path = tmp_path / "conv.bin"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.specs == net.specs
        for a, b in zip(net.weighted_layers, loaded.weighted_layers):
            assert a.weights.tobytes() == b.weights.tobytes()

    def test_forward_identical_after_reload(self, tmp_path):
        net = trained_masked_net(seed=8)
        path = tmp_path / "ck.bin"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        x = np.random.default_rng(9).normal(size=(5, 6))
        assert np.array_equal(net.forward(x), loaded.forward(x))

    def test_scores_container_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "scores.bin"
        write_container(path, {"kind": "scores"}, {"l": np.ones((2, 2))})
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)


class TestLoadedMasks:
    def test_loaded_network_trains_like_the_original(self, tmp_path):
        net = trained_masked_net(seed=10)
        path = tmp_path / "ck.bin"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        cfg = TrainConfig(epochs=1, lr=0.1)
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=(8, 6)), rng.integers(0, 3, 8)
        for model in (net, loaded):
            masked_train_step(model, x, y, momentum_buffers(model), 0.1, cfg)
        for a, b in zip(net.weighted_layers, loaded.weighted_layers):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()
        for layer in loaded.masked_layers:
            assert not np.any(np.signbit(layer.weights[layer.mask == 0.0]))

    def test_loaded_network_reports_violations_at_their_flat_indices(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(trained_masked_net(seed=12), path)
        net = load_checkpoint(path)
        layer = net.masked_layers[0]
        injected = np.flatnonzero(layer.mask == 0.0)[[1, 4]]
        # The step never writes pruned weights, so these stay live through it.
        layer.weights.flat[injected] = 5.0
        rng = np.random.default_rng(13)
        with pytest.raises(SparsityViolationError) as err:
            masked_train_step(
                net, rng.normal(size=(4, 6)), rng.integers(0, 3, 4),
                momentum_buffers(net), 0.1,
                TrainConfig(epochs=1, lr=0.1),
            )
        assert err.value.layer_id == layer.layer_id
        assert err.value.indices.tolist() == injected.tolist()

    def test_negative_zero_mask_rejected(self, tmp_path):
        # The layer keeps a bool mask, which saves back as +0.0, not -0.0.
        path = tmp_path / "ck.bin"
        save_checkpoint(trained_masked_net(seed=14), path)
        meta, tensors = read_container(path)
        mask = tensors["layer0_linear.mask"]
        mask.flat[np.flatnonzero(mask == 0.0)[0]] = -0.0
        write_container(path, meta, tensors)
        with pytest.raises(CheckpointError, match="holds values other than 0.0 and 1.0"):
            load_checkpoint(path)


class TestAtomicWrites:
    def test_failed_checkpoint_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(trained_masked_net(seed=14), path)
        before = path.read_bytes()
        open_path = Path.open

        class TornFile:
            """Writes the first 100 bytes it is given, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(bytes(data)[:100])
                raise OSError("disk full")

        monkeypatch.setattr(Path, "open", lambda self, *a, **k: TornFile(open_path(self, *a, **k)))
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(trained_masked_net(seed=15), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.bin"]

    def test_checkpoint_bytes_match_the_documented_layout(self, tmp_path):
        net = trained_masked_net(seed=16)
        path = tmp_path / "ck.bin"
        save_checkpoint(net, path)
        meta, tensors = read_container(path)
        body = struct.pack("<Q", len(json.dumps(meta, sort_keys=True)))
        body += json.dumps(meta, sort_keys=True).encode() + struct.pack("<Q", len(tensors))
        for name, arr in tensors.items():
            body += struct.pack("<I", len(name)) + name.encode() + struct.pack("<QQ", *arr.shape)
            body += arr.astype("<f8").tobytes()
        expected = b"ONGC" + struct.pack("<I", 1) + body + struct.pack("<I", zlib.crc32(body))
        assert path.read_bytes() == expected

    def test_save_peak_memory_below_one_and_a_half_tensor_copies(self, tmp_path):
        net = init_network([Linear(784, 300), ReLU(), Linear(300, 10)], seed=17)
        rng = np.random.default_rng(18)
        convert_to_masked(net, {
            l.layer_id: rng.random(l.weights.shape) < 0.1
            for l in net.prunable_layers
        })
        tensor_bytes = sum(
            a.nbytes for l in net.weighted_layers for a in (l.weights, l.bias, l.mask)
            if a is not None
        )
        tracemalloc.start()
        try:
            save_checkpoint(net, tmp_path / "ck.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * tensor_bytes

    def test_save_converts_a_bool_mask_one_block_at_a_time(self, tmp_path):
        net = init_network([Linear(784, 300), ReLU(), Linear(300, 10)], seed=17)
        rng = np.random.default_rng(18)
        convert_to_masked(net, {
            l.layer_id: rng.random(l.weights.shape) < 0.1
            for l in net.prunable_layers
        })
        # The chunk being written and the next one are alive together.
        bound = 2 * 8 * checkpoint._WRITE_BLOCK + 64 * 1024
        assert 8 * net.layers[0].mask.size > bound  # a whole float64 copy would not fit
        tracemalloc.start()
        try:
            save_checkpoint(net, tmp_path / "ck.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "report.json"
        checkpoint.write_atomic(path, [b"old"])

        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(checkpoint.os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            checkpoint.write_atomic(path, [b"new"])
        assert path.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


def _set(table, key, value):
    table[key] = value


# Edits to a valid checkpoint's metadata and tensors that load_checkpoint must
# reject; the container stays CRC-valid. The checkpoint is trained_masked_net's,
# or masked_conv_net's for the cases in ON_CONV.
BAD_CHECKPOINTS = {
    "missing-prunable-entry": lambda meta, t: meta["prunable"].pop("layer0_linear"),
    "missing-seed": lambda meta, t: meta.pop("seed"),
    "spec-without-out-features": lambda meta, t: meta["specs"][0].pop("out_features"),
    "null-spec-field": lambda meta, t: _set(meta["specs"][0], "in_features", None),
    "unknown-spec-field": lambda meta, t: _set(meta["specs"][0], "dilation", 2),
    "fractional-mask": lambda meta, t: _set(t["layer0_linear.mask"], (0, 0), 0.5),
    "negative-zero-mask": lambda meta, t: _set(
        t["layer0_linear.mask"], t["layer0_linear.mask"] == 0.0, -0.0
    ),
    "nan-mask": lambda meta, t: _set(t["layer0_linear.mask"], (0, 0), np.nan),
    "inf-mask": lambda meta, t: _set(t["layer0_linear.mask"], (0, 0), np.inf),
    "two-mask": lambda meta, t: _set(t["layer0_linear.mask"], (0, 0), 2.0),
    "bias-size-mismatch": lambda meta, t: _set(t, "layer0_linear.bias", np.zeros(3)),
    "weight-shape-mismatch": lambda meta, t: _set(t, "layer0_linear.weight", np.zeros((3, 3))),
    "missing-bias": lambda meta, t: t.pop("layer0_linear.bias"),
    "mask-shape-mismatch": lambda meta, t: _set(t, "layer0_linear.mask", np.ones((6, 10))),
    "live-pruned-weight": lambda meta, t: _set(
        t["layer0_linear.weight"], t["layer0_linear.mask"] == 0.0, 1.0
    ),
    "tensor-of-no-layer": lambda meta, t: _set(t, "layer9_linear.weight", np.ones((2, 2))),
    "kind-object": lambda meta, t: _set(meta["specs"][0], "kind", {"name": "linear"}),
    "kind-list": lambda meta, t: _set(meta["specs"][0], "kind", ["linear"]),
    "prunable-int": lambda meta, t: _set(meta["specs"][0], "prunable", 1),
    "extra-meta-key": lambda meta, t: _set(meta, "extra", 1),
    "stride-true": lambda meta, t: _set(meta["specs"][0], "stride", True),
    "float-spec-field": lambda meta, t: _set(meta["specs"][0], "in_channels", 1.0),
    "no-prunable-layer": lambda meta, t: _set(meta["prunable"], "layer0_linear", False),
}
ON_CONV = {"stride-true", "float-spec-field"}


@pytest.mark.parametrize("name", BAD_CHECKPOINTS)
def test_bad_checkpoint_metadata_rejected(tmp_path, capsys, name):
    path = tmp_path / "ck.bin"
    save_checkpoint(masked_conv_net() if name in ON_CONV else trained_masked_net(), path)
    meta, tensors = read_container(path)
    BAD_CHECKPOINTS[name](meta, tensors)
    write_container(path, meta, tensors)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")
    capsys.readouterr()
    assert main(["inspect", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("name, shape", [
    ("layer0_linear.weight", (3, 3)), ("layer2_linear.bias", (1, 2)), ("layer0_linear.mask", (6, 10)),
])
def test_every_tensor_shape_checked_by_one_rule(tmp_path, name, shape):
    path = tmp_path / "ck.bin"
    save_checkpoint(trained_masked_net(), path)
    meta, tensors = read_container(path)
    message = f"{path}: tensor {name!r} has shape {shape}, expected {tensors[name].shape}"
    tensors[name] = np.zeros(shape)
    write_container(path, meta, tensors)
    with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
        load_checkpoint(path)


@pytest.mark.parametrize("make", [trained_masked_net, masked_conv_net])
def test_load_draws_no_random_weights(tmp_path, monkeypatch, make):
    # The layers are built from the stored tensors, not drawn and overwritten.
    net = make()
    path = tmp_path / "ck.bin"
    save_checkpoint(net, path)

    def no_generator(*args, **kwargs):
        raise AssertionError("load_checkpoint made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    loaded = load_checkpoint(path)
    for a, b in zip(net.weighted_layers, loaded.weighted_layers):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()


# A weighted spec and its (out, fan_in) weight shape, written out by hand.
WEIGHT_SHAPES = [
    (Linear(6, 10), (10, 6)),
    (Conv2d(2, 4, 3, 3), (4, 18)),
    (Conv2d(2, 4, 1, 1), (4, 2)),
    (Conv2d(2, 4, 2, 3, stride=2), (4, 12)),
    (Conv2d(2, 4, 3, 1, padding=2), (4, 6)),
    (Conv2d(3, 5, 3, 2, stride=3, padding=1), (5, 18)),
]


@pytest.mark.parametrize("spec, shape", WEIGHT_SHAPES)
def test_built_and_loaded_layers_hold_their_spec_weight_shape(tmp_path, spec, shape):
    net = init_network([spec, Flatten(), Linear(shape[0], 2)], seed=0)
    path = tmp_path / "ck.bin"
    save_checkpoint(net, path)
    assert spec.weight_shape == shape
    for built in (net, load_checkpoint(path)):
        layer = built.weighted_layers[0]
        assert layer.weights.shape == shape and layer.bias.shape == (shape[0],)


@pytest.mark.parametrize("stored", [(4, 17), (18, 4), (2, 36), (8, 9)])
def test_stored_weight_of_another_shape_rejected(tmp_path, stored):
    path = tmp_path / "ck.bin"
    save_checkpoint(init_network([Conv2d(2, 4, 3, 3), Flatten(), Linear(4, 2)], seed=0), path)
    meta, tensors = read_container(path)
    tensors["layer0_conv.weight"] = np.zeros(stored)
    write_container(path, meta, tensors)
    message = f"{path}: tensor 'layer0_conv.weight' has shape {stored}, expected (4, 18)"
    with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
        load_checkpoint(path)


@pytest.mark.parametrize("tensor", ["layer0_linear.weight", "layer2_linear.bias"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_tensor_rejected(tmp_path, capsys, tensor, value):
    path = tmp_path / "ck.bin"
    save_checkpoint(trained_masked_net(), path)
    meta, tensors = read_container(path)
    tensors[tensor][0, -1] = value
    write_container(path, meta, tensors)
    message = f"{path}: tensor {tensor!r} contains NaN or Inf"
    with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
        load_checkpoint(path)
    capsys.readouterr()
    assert main(["inspect", "--quiet", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _container_bytes(meta: bytes, name: bytes, rows: int = 1, cols: int = 1) -> bytes:
    """A CRC-valid container holding ``meta`` as its metadata and one
    all-zero tensor called ``name`` of ``rows`` x ``cols``, all written as
    given."""
    body = struct.pack("<Q", len(meta)) + meta + struct.pack("<Q", 1)
    body += struct.pack("<I", len(name)) + name + struct.pack("<QQ", rows, cols)
    body += bytes(8 * rows * cols)
    return b"ONGC" + struct.pack("<I", 1) + body + struct.pack("<I", zlib.crc32(body))


UNDECODABLE = {
    "metadata-not-json": (b"{kind: checkpoint", b"w"),
    "metadata-not-utf8": (b'{"kind": "\xff"}', b"w"),
    "tensor-name-not-utf8": (b'{"kind": "checkpoint"}', b"\xffw"),
    "metadata-nested-too-deep": (b"[" * 100_000 + b"]" * 100_000, b"w"),
    "dimension-too-large": (b'{"kind": "checkpoint"}', b"w", 0, 2**63),
}


@pytest.mark.parametrize("fields", UNDECODABLE.values(), ids=UNDECODABLE.keys())
def test_undecodable_container_names_the_file(tmp_path, capsys, fields):
    path = tmp_path / "ck.bin"
    path.write_bytes(_container_bytes(*fields))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")
    capsys.readouterr()
    assert main(["inspect", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_checkpoint_with_no_prunable_layer_names_the_file(tmp_path, capsys):
    # A valid container that run never writes: inspect has no layer to report.
    path = tmp_path / "ck.bin"
    save_checkpoint(init_network([Linear(4, 3, prunable=False)], seed=0), path)
    message = f"{path}: network has no prunable layers"
    with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
        load_checkpoint(path)
    capsys.readouterr()
    assert main(["inspect", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_load_peak_memory_at_most_two_point_one_files(tmp_path):
    # The file's bytes, and one copy of each tensor read out of them.
    net = init_network([Linear(784, 300), ReLU(), Linear(300, 100), ReLU(), Linear(100, 10)],
                       seed=1)
    rng = np.random.default_rng(1)
    convert_to_masked(net, {l.layer_id: rng.random(l.weights.shape) < 0.1
                            for l in net.prunable_layers})
    path = tmp_path / "ck.bin"
    save_checkpoint(net, path)
    tracemalloc.start()
    try:
        load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * path.stat().st_size


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_checkpoint_path_names_it(tmp_path, capsys, kind):
    path = tmp_path / "ck.bin"
    if kind == "directory":
        path.mkdir()
    message = f"{path}: checkpoint file not found"
    with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
        load_checkpoint(path)
    capsys.readouterr()
    assert main(["inspect", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_repeated_tensor_name_rejected(tmp_path, capsys):
    # A CRC-valid checkpoint whose body ends in a second, all-zero copy of
    # layer0_linear.weight.
    path = tmp_path / "ck.bin"
    net = trained_masked_net()
    save_checkpoint(net, path)
    raw = path.read_bytes()
    body = bytearray(raw[8:-4])
    (meta_len,) = struct.unpack_from("<Q", body, 0)
    (count,) = struct.unpack_from("<Q", body, 8 + meta_len)
    struct.pack_into("<Q", body, 8 + meta_len, count + 1)
    name = b"layer0_linear.weight"
    rows, cols = net.prunable_layers[0].weights.shape
    body += struct.pack("<I", len(name)) + name + struct.pack("<QQ", rows, cols)
    body += bytes(8 * rows * cols)
    path.write_bytes(raw[:8] + body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: tensor 'layer0_linear.weight' is stored twice"
    capsys.readouterr()
    assert main(["inspect", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
