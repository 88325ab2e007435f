"""Command-line interface.

Subcommands: ``train`` (config-driven run into an output directory),
``eval`` (next-frame metrics of a checkpoint on a sequence file),
``sample`` (generate a sequence from a checkpoint), ``inspect`` (dump a
checkpoint header).  Exit codes: 0 success, 1 usage or configuration
problem, 2 unreadable data or checkpoint, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .checkpoint import describe
from .config import parse_config
from .errors import (CheckpointError, DataFormatError, DimensionError,
                     GrowRbmError, NumericError)
from .harness import run_eval, run_sample, run_training


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growrbm",
        description="Self-structuring RBMs for sequence data")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run training from a config file")
    p_train.add_argument("--config", required=True, help="key = value config file")
    p_train.add_argument("--out", help="output directory (overrides config)")
    p_train.add_argument("--seed", type=int, help="seed override")
    p_train.add_argument("--dataset", help="training data override")

    p_eval = sub.add_parser("eval", help="next-frame metrics on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", required=True)

    p_sample = sub.add_parser("sample", help="generate a sequence")
    p_sample.add_argument("--checkpoint", required=True)
    p_sample.add_argument("--length", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", default="sample.jsonl")

    p_inspect = sub.add_parser("inspect", help="describe a checkpoint")
    p_inspect.add_argument("--checkpoint", required=True)
    return parser


# the package's own finiteness checks turn an overflow into exit 3 with
# one message; numpy's warnings about it would only repeat that message
@np.errstate(over="ignore", invalid="ignore")
def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help; everything else is a usage error
        return 0 if exc.code in (0, None) else 1

    try:
        if args.command == "train":
            overrides = {"seed": args.seed, "train": args.dataset}
            cfg = parse_config(args.config, {
                key: value for key, value in overrides.items()
                if value is not None})
            out_dir = args.out if args.out is not None else cfg.out
            summary = run_training(cfg, out_dir)
            print(f"run complete: {out_dir}")
            for key in ("model", "n_hidden", "n_layers", "train_error"):
                print(f"{key} = {summary[key]}")
        elif args.command == "eval":
            error, ratio = run_eval(args.checkpoint, args.dataset)
            print(f"error = {error:.6f}")
            print(f"correct_ratio = {ratio:.6f}")
        elif args.command == "sample":
            frames = run_sample(args.checkpoint, args.length, args.seed,
                                args.out)
            print(f"wrote {frames.shape[0]} frames to {args.out}")
        elif args.command == "inspect":
            sys.stdout.write(describe(args.checkpoint))
    except (DataFormatError, CheckpointError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except GrowRbmError as exc:  # a configuration or usage problem
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
