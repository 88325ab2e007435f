"""Experiment orchestration behind the command-line interface.

A training run owns one output directory containing exactly four files:
the verbatim config copy, the per-epoch CSV log, the final model
checkpoint, and a short human-readable summary.  For the single-layer
kinds (rbm, rnn-rbm) the checkpoint is rewritten atomically at every
epoch boundary, so an interrupted run keeps its latest complete epoch;
stacks (dbn, rnn-dbn) write it once, when training ends.
"""
from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, model_kind, save_checkpoint
from .config import RunConfig
from .data import load_jsonl, write_jsonl
from .dbn import train_adaptive_dbn, train_adaptive_rbm
from .errors import ConfigError, DimensionError
from .log import TrainLog
from .numerics import RngStream
from .rnn_dbn import (RnnDbn, _pool_predictions, sample_sequence_deep,
                      train_adaptive_rnn_dbn)
from .rnn_rbm import RnnRbm, train_adaptive_rnn_rbm

RUN_FILES = ("config.cfg", "log.csv", "model.ckpt", "summary.txt")


def _flatten_frames(sequences) -> np.ndarray:
    return np.vstack([np.asarray(s, dtype=np.float64) for s in sequences])


# the model types served by the recurrent read path (eval, sample and
# the held-out score of a training run)
_RECURRENT = (RnnRbm, RnnDbn)


def _recurrent_stack(model) -> RnnDbn:
    """The model as a recurrent stack (a recurrent RBM as one layer)."""
    if not isinstance(model, _RECURRENT):
        raise ConfigError("needs a recurrent model (rnn-rbm or rnn-dbn), got "
                          f"kind {model_kind(model)!r}")
    return model if isinstance(model, RnnDbn) else RnnDbn(layers=[model])


def evaluate_model(model, sequences):
    """Pooled next-frame metrics ``(error, correct_ratio)`` over frames 2..T."""
    pool = _pool_predictions(_recurrent_stack(model), sequences)
    if pool.empty:
        raise DimensionError("no sequence in the dataset has two frames")
    return pool.cross_entropy(), pool.correct_ratio()


def run_training(cfg: RunConfig, out_dir) -> dict:
    """Execute one training run into ``out_dir``; returns a summary dict."""
    t0 = time.monotonic()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.cfg").write_text(cfg.raw_text)

    dataset = load_jsonl(cfg.train)
    test_seqs = load_jsonl(cfg.test).train if cfg.test else []
    master = RngStream(cfg.seed)
    adapt = cfg.adapt if cfg.adaptive else None
    forget = cfg.forget if cfg.adaptive else None
    ckpt_path = out / "model.ckpt"

    def keep_latest(state):
        save_checkpoint(ckpt_path, state.model, seed=cfg.seed)

    log = TrainLog()
    if cfg.model == "rbm":
        data = _flatten_frames(dataset.train)
        model, _, log = train_adaptive_rbm(
            data, cfg.n_hidden, cfg.cd, cfg.epochs, master.split(1),
            adapt=adapt, forget=forget, log=log, epoch_callback=keep_latest)
    elif cfg.model == "dbn":
        data = _flatten_frames(dataset.train)
        model, log = train_adaptive_dbn(
            data, cfg.n_hidden, cfg.cd, cfg.epochs, master, cfg.layers,
            adapt=adapt, forget=forget, gate_layers=cfg.adaptive, log=log)
    elif cfg.model == "rnn-rbm":
        model, _, log = train_adaptive_rnn_rbm(
            dataset.train, cfg.n_hidden, cfg.cd, cfg.epochs, master.split(1),
            adapt=adapt, forget=forget, u_dim=cfg.u_dim, log=log,
            epoch_callback=keep_latest)
    elif cfg.model == "rnn-dbn":
        model, log = train_adaptive_rnn_dbn(
            dataset.train, cfg.n_hidden, cfg.cd, cfg.epochs, master,
            cfg.layers, adapt=adapt, forget=forget, u_dim=cfg.u_dim,
            gate_layers=cfg.adaptive, log=log)
    else:
        raise ConfigError(f"unknown model kind {cfg.model!r}")

    save_checkpoint(ckpt_path, model, seed=cfg.seed)
    log.to_csv(out / "log.csv")

    last = log.rows[-1]
    summary = {
        "model": cfg.model, "seed": cfg.seed, "epochs": cfg.epochs,
        "adaptive": cfg.adaptive, "n_hidden": last.n_hidden,
        "n_layers": last.n_layers, "train_error": last.error,
        "train_energy": last.energy,
        "wall_seconds": time.monotonic() - t0,
    }
    if test_seqs and isinstance(model, _RECURRENT):
        err, ratio = evaluate_model(model, test_seqs)
        summary["test_error"] = err
        summary["test_correct_ratio"] = ratio

    lines = [f"{k}: {v}" for k, v in summary.items()]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    return summary


def run_eval(checkpoint_path, dataset_path) -> tuple[float, float]:
    """Next-frame metrics of a recurrent checkpoint on a sequence file."""
    stack = _recurrent_stack(load_checkpoint(checkpoint_path)[0])
    return evaluate_model(stack, load_jsonl(dataset_path).train)


def run_sample(checkpoint_path, length: int, seed: int, out_path) -> np.ndarray:
    """Generate one sequence from a recurrent checkpoint and write it."""
    if length < 0:
        raise ConfigError("length must be >= 0")
    stack = _recurrent_stack(load_checkpoint(checkpoint_path)[0])
    frames = sample_sequence_deep(stack, length, RngStream(seed))
    write_jsonl(out_path, [frames] if length > 0 else [],
                ids=["sample"] if length > 0 else None)
    return frames
