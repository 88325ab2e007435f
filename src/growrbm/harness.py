"""Experiment orchestration behind the command-line interface.

A training run owns one output directory containing exactly four files:
the verbatim config copy, the per-epoch CSV log, the final model
checkpoint, and a short human-readable summary.  The config copy
records the ``--seed`` and ``--dataset`` overrides, so retraining from
it reproduces the run.  Every kind trains as a stack; a single-layer
kind (rbm, rnn-rbm) is a stack capped at one layer, whose checkpoint is
that layer, rewritten atomically at every epoch boundary, so an
interrupted run keeps its latest complete epoch and the last epoch's
write is the final checkpoint.  Stacks (dbn, rnn-dbn) write it once,
when training ends.  A run file that cannot be written, at any point of
the run, is a :class:`~growrbm.errors.ConfigError` naming it.  A run
that fails after writing ``config.cfg`` (exit 1 or 3) keeps the files
written before, in the order config, checkpoint, log, summary: a
failure in training leaves ``config.cfg`` and, for rbm and rnn-rbm
only, the last complete epoch's ``model.ckpt``.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, model_kind, save_checkpoint
from .config import MODEL_KINDS, RunConfig
from .data import load_jsonl, write_jsonl
from .dbn import train_adaptive_dbn
from .errors import ConfigError, DimensionError
from .numerics import RngStream
from .rnn_dbn import (RnnDbn, _pool_predictions, sample_sequence_deep,
                      train_adaptive_rnn_dbn)
from .rnn_rbm import RnnRbm

RUN_FILES = ("config.cfg", "log.csv", "model.ckpt", "summary.txt")


def _flatten_frames(sequences) -> np.ndarray:
    return np.vstack([np.asarray(s, dtype=np.float64) for s in sequences])


def _recurrent_stack(model) -> RnnDbn:
    """The model as a recurrent stack (a recurrent RBM as one layer), as
    eval, sample and a run's held-out score read it."""
    if not isinstance(model, (RnnRbm, RnnDbn)):
        raise ConfigError("needs a recurrent model (rnn-rbm or rnn-dbn), got "
                          f"kind {model_kind(model)!r}")
    return model if isinstance(model, RnnDbn) else RnnDbn(layers=[model])


def _check_heldout(sequences, n_visible: int):
    """Raise :class:`DimensionError` unless a recurrent model with
    ``n_visible`` inputs can score ``sequences``: every sequence is
    ``(frames, dim)``, every frame has that size and some sequence has
    two frames."""
    shapes = [np.shape(seq) for seq in sequences]
    for shape in shapes:
        if len(shape) != 2:
            raise DimensionError(
                f"sequence must be (frames, dim), got {shape}")
        if shape[1] != n_visible:
            raise DimensionError(
                f"dataset dimension {shape[1]} does not match model "
                f"visible size {n_visible}")
    if all(shape[0] < 2 for shape in shapes):
        raise DimensionError("no sequence in the dataset has two frames")


def evaluate_model(model, sequences):
    """Pooled next-frame metrics ``(error, correct_ratio)`` over frames 2..T."""
    stack = _recurrent_stack(model)
    _check_heldout(sequences, stack.n_visible)
    pool = _pool_predictions(stack, sequences)
    return pool.cross_entropy(), pool.correct_ratio()


def _check_writable(path: Path):
    """Raise :class:`ConfigError` if ``path`` is a directory or its
    parent is not one."""
    if path.is_dir():
        raise ConfigError(f"cannot write {path}: it is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"cannot write {path}: no directory {path.parent}")


@contextmanager
def _writing(path):
    """Turn an ``OSError`` from writing ``path`` into :class:`ConfigError`."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def run_training(cfg: RunConfig, out_dir) -> dict:
    """Execute one training run into ``out_dir``; returns a summary dict."""
    t0 = time.monotonic()
    if cfg.model not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {cfg.model!r}")
    recurrent = cfg.model in ("rnn-rbm", "rnn-dbn")
    single = cfg.model in ("rbm", "rnn-rbm")
    dataset = load_jsonl(cfg.train)
    test_seqs = load_jsonl(cfg.test).train if cfg.test else []
    if test_seqs and recurrent:
        # a held-out set the model could not score fails before training
        _check_heldout(test_seqs, dataset.dim)
    # inputs that fail their checks leave no output directory behind
    out = Path(out_dir)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    for name in RUN_FILES:  # checked before any of them is written
        _check_writable(out / name)
    with _writing(out / "config.cfg"):
        (out / "config.cfg").write_text(cfg.raw_text, encoding="utf-8")
    ckpt_path = out / "model.ckpt"

    def keep_latest(state):
        with _writing(ckpt_path):
            save_checkpoint(ckpt_path, state.model, seed=cfg.seed)

    train = train_adaptive_rnn_dbn if recurrent else train_adaptive_dbn
    data = dataset.train if recurrent else _flatten_frames(dataset.train)
    extra = {"u_dim": cfg.u_dim} if recurrent else {}
    stack, log = train(
        data, cfg.n_hidden, cfg.cd, cfg.epochs, RngStream(cfg.seed),
        replace(cfg.layers, max_layers=1) if single else cfg.layers,
        adapt=cfg.adapt if cfg.adaptive else None,
        forget=cfg.forget if cfg.adaptive else None,
        epoch_callback=keep_latest if single else None, **extra)
    if not single:  # a single layer's last epoch has written it already
        with _writing(ckpt_path):
            save_checkpoint(ckpt_path, stack, seed=cfg.seed)
    with _writing(out / "log.csv"):
        log.to_csv(out / "log.csv")

    last = log.rows[-1]
    summary = {
        "model": cfg.model, "seed": cfg.seed, "epochs": cfg.epochs,
        "adaptive": cfg.adaptive, "n_hidden": last.n_hidden,
        "n_layers": last.n_layers, "train_error": last.error,
        "train_energy": last.energy,
        "wall_seconds": time.monotonic() - t0,
    }
    if test_seqs and recurrent:
        err, ratio = evaluate_model(stack, test_seqs)
        summary["test_error"] = err
        summary["test_correct_ratio"] = ratio

    lines = [f"{k}: {v}" for k, v in summary.items()]
    with _writing(out / "summary.txt"):
        (out / "summary.txt").write_text("\n".join(lines) + "\n",
                                         encoding="utf-8")
    return summary


def run_eval(checkpoint_path, dataset_path) -> tuple[float, float]:
    """Next-frame metrics of a recurrent checkpoint on a sequence file."""
    model = load_checkpoint(checkpoint_path)[0]
    return evaluate_model(model, load_jsonl(dataset_path).train)


def run_sample(checkpoint_path, length: int, seed: int, out_path) -> np.ndarray:
    """Generate one sequence from a recurrent checkpoint and write it."""
    if length < 0:
        raise ConfigError("length must be >= 0")
    stack = _recurrent_stack(load_checkpoint(checkpoint_path)[0])
    _check_writable(Path(out_path))  # before the frames are drawn
    try:
        frames = sample_sequence_deep(stack, length, RngStream(seed))
    except (MemoryError, ValueError) as exc:  # numpy refuses too large a shape
        raise ConfigError(f"cannot sample {length} frames: "
                          "they do not fit in memory") from exc
    with _writing(out_path):
        write_jsonl(out_path, [frames] if length > 0 else [],
                    ids=["sample"] if length > 0 else None)
    return frames
