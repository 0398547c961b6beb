"""Command-line interface.

Subcommands:
    run      full pipeline from a config file
    score    scoring stage only; dumps score tensors
    tune     threshold search only; prints gamma* and achieved sparsity
    sweep    grid of runs over sparsity targets and/or factorization ranks
    inspect  print a checkpoint's sparsity report

Exit codes: 0 success, 1 config or dataset error, 2 any other error, 3
sparsity-invariant violation; a failed pipeline stage counts as its cause.
Failures are one line on stderr, never a traceback. The library warns
through ``warnings`` (a factorization at full rank, a missed sparsity
target); every warning shown during a command, NumPy's included, is one
``warning: <message>`` line on stderr, even with ``--quiet``.

``score`` and ``tune`` never open the dataset, so they accept a model that
cannot read its data; ``run`` and ``sweep`` reject it with exit 1 before any
scoring, from the sample shape the dataset declares. Every command scores a
network built for scoring: ``compute_scores`` writes |W| over its weights
and the network is dropped, so the process holds one copy of the model (the
only weight buffers left alive are magnitude scores themselves). The score
dump holds the scores and nothing else. ``tune`` drops the scores after the
search, so it has ``tune_gamma`` sort each layer's scores in their own
buffers and holds the scores and O(1)
statistics per layer; under the ``std`` rule ``np.std``'s temporary of one
layer comes on top.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

from .checkpoint import load_checkpoint, write_container
from .datasets import DatasetError
from .masking import GammaSearchConfig, tune_gamma
from .network import count_zero_weights, init_network
from .nmf import NmfConfig
from .pipeline import (
    StageError, compute_scores, make_output_dir, run_pipeline, write_gamma_trace,
)
from .runconfig import ConfigError, RunConfig, load_config
from .trainer import SparsityViolationError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    # argparse prints its usage block and exits with 2 on usage errors; print
    # the one error line and exit with the config-error code instead.
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@functools.cache  # built on the first call, not at import, and reused
def _build_parser() -> _Parser:
    parser = _Parser(prog="nmfprune", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to a run config file")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--output", help="override the output directory")
        p.add_argument(
            "--target-sparsity", type=float, dest="target_sparsity",
            help="override or set the global sparsity target",
        )
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    for name, desc in (
        ("run", "run the full pipeline"),
        ("score", "compute and dump weight scores"),
        ("tune", "search the threshold scale for a sparsity target"),
        ("sweep", "grid of runs over targets and ranks"),
    ):
        add_common(sub.add_parser(name, help=desc))

    sweep = sub.choices["sweep"]
    sweep.add_argument("--targets", help="comma-separated sparsity targets")
    sweep.add_argument("--ks", help="comma-separated factorization ranks")

    inspect = sub.add_parser("inspect", help="print a checkpoint's sparsity report")
    inspect.add_argument("checkpoint", help="path to a checkpoint file")
    inspect.add_argument("--quiet", action="store_true")
    return parser


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.output is not None:
        cfg.output_dir = Path(args.output)
    if args.target_sparsity is not None:
        with _flag("--target-sparsity"):
            cfg.gamma_search = GammaSearchConfig(s_target=args.target_sparsity)
    return cfg


@contextmanager
def _flag(name: str):
    """Report a bad flag value as a ConfigError (exit 1), as in a config file."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _distinct(values: list) -> list:
    """``values``, or a ValueError naming the first one given twice: two runs
    of one grid point would write into one output directory."""
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ValueError(f"{repeated[0]!r} is given more than once")
    return values


def _say(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message)


def _cmd_run(args) -> int:
    cfg = _load(args)
    report = run_pipeline(cfg)
    _say(args, f"gamma* = {report.gamma_star:.6g}")
    _say(
        args,
        f"achieved sparsity = {report.sparsity.global_sparsity:.4f} "
        f"({report.sparsity.global_zeros}/{report.sparsity.global_total})",
    )
    _say(args, f"final test accuracy = {report.final_test_accuracy:.4f}")
    _say(args, f"flops dense/sparse = {report.flops.dense}/{report.flops.sparse}")
    _say(args, f"outputs in {cfg.output_dir}")
    return EXIT_OK


def _scores_of(cfg: RunConfig) -> tuple[Path, dict]:
    """Make the output directory, then score a network built for scoring."""
    out = make_output_dir(cfg.output_dir)
    return out, compute_scores(init_network(cfg.model, cfg.seed), cfg.scorer, cfg.seed)


def _cmd_score(args) -> int:
    cfg = _load(args)
    out, scores = _scores_of(cfg)
    path = out / "scores.bin"
    write_container(path, {"kind": "scores", "seed": cfg.seed}, scores)
    for lid, s in scores.items():
        _say(args, f"{lid}: shape {s.shape[0]}x{s.shape[1]} min {s.min():.3e} max {s.max():.3e}")
    _say(args, f"scores written to {path}")
    return EXIT_OK


def _cmd_tune(args) -> int:
    cfg = _load(args)
    if cfg.gamma_search is None:
        raise ConfigError("tune needs a [gamma_search] section or --target-sparsity")
    out, scores = _scores_of(cfg)
    result = tune_gamma(scores, cfg.threshold.t_type, cfg.gamma_search, in_place=True)
    write_gamma_trace(out, result.trace)
    _say(args, f"gamma* = {result.gamma_star:.6g}")
    _say(args, f"achieved sparsity = {result.achieved:.4f} (target {cfg.gamma_search.s_target})")
    _say(args, f"iterations = {result.iterations}, within tolerance = {result.hit_target}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.targets is not None and args.target_sparsity is not None:
        raise ConfigError("--targets and --target-sparsity cannot be given together")
    cfg = _load(args)
    if args.targets is None and cfg.gamma_search is None:
        raise ConfigError("sweep needs --targets, --target-sparsity or a [gamma_search] section")
    if args.ks is not None and not isinstance(cfg.scorer, NmfConfig):
        raise ConfigError("--ks sets the factorization rank and needs [scorer] kind = nmf")
    # Every flag value is checked before the first run starts.
    with _flag("--targets"):
        targets = _distinct(
            [float(t) for t in args.targets.split(",")] if args.targets is not None
            else [cfg.gamma_search.s_target]
        )
        searches = [GammaSearchConfig(s_target=t) for t in targets]
    with _flag("--ks"):
        ks = _distinct([int(k) for k in args.ks.split(",")] if args.ks is not None else [None])
        scorers = [cfg.scorer if k is None else dataclasses.replace(cfg.scorer, k=k) for k in ks]
    base_out = Path(cfg.output_dir)
    for target, search in zip(targets, searches):
        for k, scorer in zip(ks, scorers):
            # repr gives distinct floats distinct names.
            sub = dataclasses.replace(
                cfg, gamma_search=search, scorer=scorer,
                output_dir=base_out / (f"t{target!r}" + (f"_k{k}" if k is not None else "")),
            )
            report = run_pipeline(sub)
            _say(
                args,
                f"target {target!r}" + (f" k={k}" if k is not None else "") +
                f": achieved {report.sparsity.global_sparsity:.4f}, "
                f"accuracy {report.final_test_accuracy:.4f}",
            )
    return EXIT_OK


def _cmd_inspect(args) -> int:
    net = load_checkpoint(args.checkpoint)
    report = count_zero_weights(net)
    for lid, ls in report.per_layer.items():
        _say(args, f"{lid}: {ls.zeros}/{ls.total} zeros (sparsity {ls.sparsity:.4f})")
    _say(
        args,
        f"global: {report.global_zeros}/{report.global_total} zeros "
        f"(sparsity {report.global_sparsity:.4f})",
    )
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {
        "run": _cmd_run,
        "score": _cmd_score,
        "tune": _cmd_tune,
        "sweep": _cmd_sweep,
        "inspect": _cmd_inspect,
    }
    try:
        with warnings.catch_warnings():
            # Each warning shown is one line on this call's stderr. The
            # library's own show each time they are issued (a sweep scores the
            # same layers at every grid point); every other warning, NumPy's
            # raised in library code included, keeps the filters in force.
            warnings.filterwarnings("always", category=UserWarning, module="nmfprune")
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return commands[args.command](args)
    except Exception as exc:  # one line on stderr, never a traceback
        cause = exc.__cause__ if isinstance(exc, StageError) else exc
        if isinstance(cause, SparsityViolationError):
            print(f"invariant violation: {exc}", file=sys.stderr)
            return EXIT_INVARIANT
        message = str(exc)
        # Any other type is a defect; FloatingPointError is a diverged
        # sgd_step, and MemoryError an input too large for this host.
        ordinary = (ValueError, RuntimeError, OSError, FloatingPointError, MemoryError)
        if not isinstance(cause, ordinary):
            message = f"{type(cause).__name__}: {message}"
        print(f"error: {message}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(cause, (ConfigError, DatasetError)) else EXIT_RUNTIME


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
