"""Seeded fuzzing of outside inputs: checkpoint metadata.

Each mutation edits one node of a valid checkpoint's JSON metadata (a type
swap, a deleted or added key, a value nested one level deeper) and rewrites
the container with a valid CRC. Loading it must either return a network whose
pruned weights are exactly 0.0 and whose spec fields have their declared
types, or raise a CheckpointError that begins with the path; ``inspect`` must
exit 0 or 2 with at most one stderr line that names no exception type.
"""

import copy
import dataclasses
import random
import re
from typing import get_args, get_type_hints

import numpy as np

from nmfprune.checkpoint import (
    CheckpointError,
    load_checkpoint,
    read_container,
    save_checkpoint,
    write_container,
)
from nmfprune.cli import main
from nmfprune.network import Conv2d, Flatten, Linear, ReLU, convert_to_masked, init_network

# Values a mutation puts in place of a node or under a new key. The integers
# stay small, or far beyond what an array can hold, so no network the fuzz
# builds allocates more than a few weights.
VALUES = [
    None, True, False, 0, 1, 2, 3, -1, 2**63, 1.0, 0.5, "", "linear", "conv2d", "relu",
    "checkpoint", [], {}, [1], {"kind": "relu"},
]
KEYS = ["extra", "kind", "seed", "stride", "dilation", "prunable", "layer9_linear"]
EXCEPTION_NAME = re.compile(r"\b[A-Z]\w*(Error|Exception)\b")


def _masked(specs, seed):
    net = init_network(specs, seed=seed)
    rng = np.random.default_rng(seed)
    convert_to_masked(net, {l.layer_id: rng.random(l.weights.shape) < 0.5
                            for l in net.prunable_layers})
    return net


def _nodes(value, parent=None, key=None):
    """Every (container, key) pair under ``value``, the root as (None, None)."""
    yield parent, key
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for k, child in children:
        yield from _nodes(child, value, k)


def _mutate(meta: dict, rng: random.Random):
    """A copy of ``meta`` with one node swapped, deleted, given a key or nested."""
    holder = {"meta": copy.deepcopy(meta)}
    parent, key = rng.choice(list(_nodes(holder))[1:])  # any node, the metadata's root too
    op = rng.choice(["swap", "delete", "add", "nest"])
    if op == "swap" or (op == "delete" and parent is holder):
        parent[key] = rng.choice(VALUES)
    elif op == "delete":
        del parent[key]
    elif op == "add" and isinstance(parent[key], dict):
        parent[key][rng.choice(KEYS)] = rng.choice(VALUES)
    else:  # nest, or add to a value that is no dict
        parent[key] = rng.choice([[parent[key]], {"value": parent[key]}])
    return holder["meta"]


def _check_loaded(net) -> None:
    for layer in net.masked_layers:
        assert np.all(layer.weights[~layer.mask] == 0.0)
    for spec in net.specs:
        hints = get_type_hints(type(spec))
        for field in dataclasses.fields(spec):
            value = getattr(spec, field.name)
            assert type(value) in (get_args(hints[field.name]) or (hints[field.name],))


def test_mutated_checkpoint_metadata_loads_or_names_the_file(tmp_path, capsys):
    bases = []
    for i, specs in enumerate([
        [Linear(6, 10), ReLU(), Linear(10, 3)],
        [Conv2d(1, 2, 3, 3, padding=1), ReLU(), Flatten(), Linear(18, 3)],
    ]):
        path = tmp_path / f"base{i}.bin"
        save_checkpoint(_masked(specs, seed=i), path)
        bases.append(read_container(path))
    rng = random.Random(0)
    path = tmp_path / "ck.bin"
    outcomes = {"loaded": 0, "rejected": 0}
    for _ in range(500):
        meta, tensors = rng.choice(bases)
        write_container(path, _mutate(meta, rng), tensors)
        try:
            net = load_checkpoint(path)
        except CheckpointError as exc:
            assert str(exc).startswith(f"{path}: "), exc
            outcomes["rejected"] += 1
            codes = {2}
        else:
            _check_loaded(net)
            outcomes["loaded"] += 1
            codes = {0, 2}  # 2: inspect reports nothing of a network with no prunable layer
        capsys.readouterr()
        assert main(["inspect", "--quiet", str(path)]) in codes
        err = capsys.readouterr().err
        assert err.count("\n") <= 1 and not EXCEPTION_NAME.search(err), err
        if codes == {2}:
            assert err.startswith(f"error: {path}: "), err
    # Both outcomes are exercised.
    assert min(outcomes.values()) > 0, outcomes
