"""Command-line interface.

Subcommands:
    run      full pipeline from a config file
    score    scoring stage only; dumps score tensors
    tune     threshold search only; prints gamma* and achieved sparsity
    sweep    grid of runs over sparsity targets and/or factorization ranks
    inspect  print a checkpoint's sparsity report

Exit codes: 0 success, 1 config or dataset error, 2 any other error, 3
sparsity-invariant violation; a failed pipeline stage counts as its cause.
Failures are one line on stderr, never a traceback. Library warnings (a
factorization at full rank, a missed sparsity target) are printed as
``warning:`` lines on stderr, even with ``--quiet``.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from contextlib import contextmanager
from pathlib import Path

from .checkpoint import load_checkpoint, write_container
from .datasets import DatasetError
from .masking import GammaSearchConfig, tune_gamma
from .network import count_zero_weights, init_network
from .nmf import NmfConfig
from .pipeline import StageError, compute_scores, run_pipeline, write_gamma_trace
from .runconfig import ConfigError, RunConfig, load_config
from .trainer import SparsityViolationError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; remap to the config-error code.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


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
            base = cfg.gamma_search or GammaSearchConfig(s_target=args.target_sparsity)
            cfg.gamma_search = dataclasses.replace(base, s_target=args.target_sparsity)
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
        f"achieved sparsity = {report.sparsity_report.global_sparsity:.4f} "
        f"({report.sparsity_report.global_zeros}/{report.sparsity_report.global_total})",
    )
    _say(args, f"final test accuracy = {report.final_test_accuracy:.4f}")
    _say(args, f"flops dense/sparse = {report.flops_dense}/{report.flops_sparse}")
    _say(args, f"outputs in {cfg.output_dir}")
    return EXIT_OK


def _cmd_score(args) -> int:
    cfg = _load(args)
    net = init_network(cfg.model, cfg.seed)
    scores = compute_scores(net, cfg.scorer, cfg.seed)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "scores.bin"
    write_container(
        path, {"kind": "scores", "seed": cfg.seed},
        {lid: sm.scores for lid, sm in scores.items()},
    )
    for lid, sm in scores.items():
        _say(
            args,
            f"{lid}: shape {sm.scores.shape[0]}x{sm.scores.shape[1]} "
            f"min {sm.scores.min():.3e} max {sm.scores.max():.3e}",
        )
    _say(args, f"scores written to {path}")
    return EXIT_OK


def _cmd_tune(args) -> int:
    cfg = _load(args)
    if cfg.gamma_search is None:
        raise ConfigError("tune needs a [gamma_search] section or --target-sparsity")
    net = init_network(cfg.model, cfg.seed)
    scores = compute_scores(net, cfg.scorer, cfg.seed)
    result = tune_gamma(scores, cfg.threshold.t_type, cfg.gamma_search)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_gamma_trace(out, result.trace)
    _say(args, f"gamma* = {result.gamma_star:.6g}")
    _say(args, f"achieved sparsity = {result.achieved:.4f} (target {cfg.gamma_search.s_target})")
    _say(args, f"iterations = {result.iterations}, within tolerance = {result.hit_target}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    if args.ks and not isinstance(cfg.scorer, NmfConfig):
        raise ConfigError("--ks sets the factorization rank and needs [scorer] kind = nmf")
    # Every flag value is checked before the first run starts.
    with _flag("--targets"):
        targets = _distinct(
            [float(t) for t in args.targets.split(",")] if args.targets
            else [cfg.gamma_search.s_target if cfg.gamma_search else 0.8]
        )
        searches = [
            dataclasses.replace(cfg.gamma_search or GammaSearchConfig(s_target=t), s_target=t)
            for t in targets
        ]
    with _flag("--ks"):
        ks = _distinct([int(k) for k in args.ks.split(",")] if args.ks else [None])
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
                f": achieved {report.sparsity_report.global_sparsity:.4f}, "
                f"accuracy {report.final_test_accuracy:.4f}",
            )
    return EXIT_OK


def _cmd_inspect(args) -> int:
    net = load_checkpoint(args.checkpoint)
    report = count_zero_weights(net)
    for lid, ls in report.per_layer.items():
        print(f"{lid}: {ls.zeros}/{ls.total} zeros (sparsity {ls.sparsity:.4f})")
    print(
        f"global: {report.global_zeros}/{report.global_total} zeros "
        f"(sparsity {report.global_sparsity:.4f})"
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
    # Library warnings go to this call's stderr, one line each.
    warning_lines = logging.StreamHandler(sys.stderr)
    warning_lines.setFormatter(logging.Formatter("warning: %(message)s"))
    warning_lines.setLevel(logging.WARNING)
    library_log = logging.getLogger("nmfprune")
    library_log.addHandler(warning_lines)
    try:
        return commands[args.command](args)
    except Exception as exc:  # one line on stderr, never a traceback
        cause = exc.__cause__ if isinstance(exc, StageError) else exc
        if isinstance(cause, SparsityViolationError):
            print(f"invariant violation: {exc}", file=sys.stderr)
            return EXIT_INVARIANT
        message = str(exc)
        if not isinstance(exc, (ValueError, RuntimeError, OSError)):  # a defect
            message = f"{type(exc).__name__}: {message}"
        print(f"error: {message}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(cause, (ConfigError, DatasetError)) else EXIT_RUNTIME
    finally:
        library_log.removeHandler(warning_lines)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
