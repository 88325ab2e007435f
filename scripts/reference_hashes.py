"""Train the reference configs and print their output hashes.

A refactor that must leave every output byte unchanged runs this on the
parent commit and on the change and compares the two printouts.  Each
line gives a model kind, the first 16 hex digits of the sha256 of its
``log.csv`` and ``model.ckpt``, and the number of growth, pruning and
layer events in the log.  The two recurrent adaptive kinds also gate the
read path: a second line gives the ``run_eval`` scores (``repr``) of the
trained checkpoint on a fixed held-out set of mixed sequence lengths,
with the sha256 prefix of the float64 bytes of the predictions they
pool (:func:`evaluated`; the scores alone can hold while the grouped
predictions move), and the sha256 prefixes of the file one
``run_sample`` call of ``SAMPLE_LENGTH`` frames writes and of the
float64 bytes of the marginals each of its frames is drawn from, which
the script records by wrapping the sampler's draw (:func:`sampled`), so
a change to the marginals shows even where it flips no draw.  Every
sample below gives both prefixes.  The trained stacks have small
weights, which can hide a rounding change, so a ``deep stack`` line gates the
read path on the shape the ``deep_serve`` benchmark serves: a 3-layer
8->10->8->6 stack of ``RnnRbm.random`` layers (``u_dim`` 8, weight sd
0.5), built as that workload builds it.  The line gives its samples at
two seeds, its ``run_eval`` scores on the held-out set with their
predictions prefix, and the sha256 prefix of the float64 bytes of
``predict_next_deep`` on every prefix (lengths ``0..T``) of every
held-out sequence, in file order.  A
``saturated stack`` line gates the guarded reruns of the two
frame-by-frame recursions on the same stack with the arrays of
``SATURATED_SCALES`` scaled up, so that pre-activations pass 36.74
(where ``expit`` rounds to 1) but stay finite: the sampler's first range
test fails at frame 2 (seed 11) and 3 (seed 12), and its marginals
move if it does not rerun or does not restore the states before a
rerun.  It gives the samples at the two seeds, the sha256 prefix of
the float64 bytes of the states every layer gets on each sample from
one call of the package's lift (``rnn_dbn._lift``), and the
``run_eval`` scores on the held-out set with their predictions prefix:
that eval's grouped unrolls rerun too, and its scores alone do not move
where only its states do.  The
single-layer adaptive kinds also gate resume: a ``resume`` line trains
the config through the library, saves the train state after
``epochs // 2`` epochs, loads it back and resumes, and gives the hashes
of the joined log and the final checkpoint, which must equal the kind's
first line.  A ``ragged rnn-rbm`` line trains the ``rnn-rbm`` config on
training sequences cut to mixed lengths, in a count that leaves a short
last batch, so a ragged batch reaches the trainer end to end.  Its
``resume`` line cuts the run after the first epoch that logs ``ann(``,
so the resumed run continues from a pruned layer read back from disk;
it must equal the ``ragged rnn-rbm`` line.  The
hashes depend on the host's BLAS rounding and on numpy's SIMD dispatch,
so compare printouts made on the same machine.  The script prints one
``host`` line to stderr, outside the compared lines: the Python, numpy
and scipy versions, numpy's baseline CPU features and the dispatch
targets this CPU supports.

Run from the repository root::

    PYTHONPATH=src python scripts/reference_hashes.py [--keep DIR]
    PYTHONPATH=src python scripts/reference_hashes.py --base REV

``--base REV`` exports commit ``REV`` with ``git archive`` into a
temporary directory, runs that tree's copy of this script on its own
``src`` and this copy on this tree's ``src``, prints every line that
differs between the two printouts, and exits 1 if any line differs and 0
otherwise; 2 if ``git`` or either run fails.  Its report starts with the
``host`` line.

Uses the standard library, ``git``, ``growrbm`` and, for the ``host``
line, numpy and scipy only.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np
import scipy

from growrbm import rnn_dbn
from growrbm.checkpoint import (load_train_state, save_checkpoint,
                                save_train_state)
from growrbm.config import parse_config_text
from growrbm.data import load_jsonl, synth_cycle, write_jsonl
from growrbm.dbn import train_adaptive_rbm
from growrbm.harness import (_flatten_frames, run_eval, run_sample,
                             run_training)
from growrbm.log import TrainLog
from growrbm.numerics import RngStream
from growrbm.rnn_dbn import RnnDbn, predict_next_deep
from growrbm.rnn_rbm import RnnRbm, train_adaptive_rnn_rbm

# name -> (model, adaptive, epochs, learning rate, cd k)
CONFIGS = {
    "rbm": ("rbm", True, 20, 0.1, 1),
    "dbn": ("dbn", True, 16, 0.1, 1),
    "rnn-rbm": ("rnn-rbm", True, 40, 0.5, 2),
    "rnn-dbn": ("rnn-dbn", True, 40, 0.5, 2),
    "fixed dbn": ("dbn", False, 6, 0.1, 1),
    "fixed rnn-dbn": ("rnn-dbn", False, 5, 0.5, 1),
}
# the kinds whose checkpoint is also evaluated and sampled
READ_PATH = ("rnn-rbm", "rnn-dbn")
# the adaptive runs also trained in two parts through a saved train state:
# cut after ``epochs // 2`` epochs (None), or after the first epoch whose
# log event holds this text
RESUME = {"rbm": None, "rnn-rbm": None, "ragged rnn-rbm": "ann("}
# held-out sequence lengths, interleaved so that groups form out of order
HELDOUT_LENGTHS = (25, 9, 25, 2, 9, 25, 1)
# the ragged run: training sequences cut to these lengths in turn, and
# a sequence count that is no multiple of the batch size (8)
RAGGED_LENGTHS = (25, 9, 2, 1, 17)
RAGGED_COUNT = 13
SAMPLE_LENGTH = 32
SAMPLE_SEED = 11
# the random deep stack: layer widths, state size, weight sd, the seed it
# is built from and the seeds it is sampled at
DEEP_WIDTHS = (8, 10, 8, 6)
DEEP_U_DIM = 8
DEEP_WEIGHT_SD = 0.5
DEEP_SEED = 7
DEEP_SAMPLE_SEEDS = (11, 12)
# the saturated stack: the deep stack with these arrays scaled in every
# layer, so that its states and activations saturate and steer its
# marginals
SATURATED_SCALES = {"w_vu": 12.0, "w_uv": 5.0, "w_uh": 5.0, "W": 5.0}


def config_text(model: str, adaptive: bool, epochs: int, lr: float, k: int,
                train: Path) -> str:
    lines = [
        f"model = {model}", f"adaptive = {str(adaptive).lower()}",
        f"epochs = {epochs}", "seed = 7", f"train = {train}",
        "n_hidden = 4", f"cd.k = {k}", f"cd.learning_rate = {lr}",
        "cd.batch_size = 8", "adapt.max_hidden = 10", "adapt.min_hidden = 2",
        "adapt.gen_threshold = 5e-9", "adapt.ann_threshold = 0.47",
        f"adapt.generation_phase_epochs = {int(0.4 * epochs)}",
        "forget.forgetting_epochs = 4", "forget.selective_epochs = 2",
        "forget.decay_strength = 0.008", "forget.clarify_strength = 0.008",
        "forget.selective_strength = 0.008", "layers.max_layers = 3",
        "layers.wd_threshold = 1e-12", "layers.energy_threshold = 1e-12",
    ]
    if model.startswith("rnn"):
        lines.append("u_dim = 12")
    return "\n".join(lines) + "\n"


def host() -> str:
    """The ``host`` line: what the hashes depend on besides the code and
    BLAS."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    return (f"host python {platform.python_version()} numpy {np.__version__} "
            f"scipy {scipy.__version__} baseline {' '.join(simd['baseline'])} "
            f"dispatch {' '.join(simd['found'])}")


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def event_counts(log_csv: Path) -> tuple[int, int, int]:
    with open(log_csv, newline="") as fh:
        events = "|".join(row["event"] for row in csv.DictReader(fh))
    return events.count("gen("), events.count("ann("), events.count("layer(")


def deep_stack() -> RnnDbn:
    """Layer ``i`` draws from ``RngStream(DEEP_SEED).split(10 + i)``."""
    stream = RngStream(DEEP_SEED)
    return RnnDbn(layers=[
        RnnRbm.random(n_v, n_h, stream.split(10 + i), u_dim=DEEP_U_DIM,
                      weight_sd=DEEP_WEIGHT_SD)
        for i, (n_v, n_h) in enumerate(zip(DEEP_WIDTHS, DEEP_WIDTHS[1:]))])


def sampled(ckpt: Path, seed: int, out: Path):
    """``run_sample`` of ``SAMPLE_LENGTH`` frames into ``out``: the frames,
    and the hash prefixes of the file and of the float64 bytes of every
    marginal the sampler's draw, wrapped meanwhile, draws from."""
    digest, draw = hashlib.sha256(), rnn_dbn._draw

    def recording(p, rng):
        digest.update(p.tobytes())
        return draw(p, rng)

    rnn_dbn._draw = recording
    try:
        frames = run_sample(ckpt, SAMPLE_LENGTH, seed, out)
    finally:
        rnn_dbn._draw = draw
    return frames, f"{sha(out)} marginals {digest.hexdigest()[:16]}"


def evaluated(ckpt: Path, heldout: Path) -> str:
    """``run_eval`` of ``ckpt`` on ``heldout``: the scores (``repr``) and
    the hash prefix of the float64 bytes of every length group's
    predictions, which the script records by wrapping the predictor
    meanwhile, so a change to them shows even where the scores hold."""
    digest, predict = hashlib.sha256(), rnn_dbn.next_frame_predictions_deep

    def recording(stack, seqs):
        preds = predict(stack, seqs)
        digest.update(preds.tobytes())
        return preds

    rnn_dbn.next_frame_predictions_deep = recording
    try:
        scores = run_eval(ckpt, heldout)
    finally:
        rnn_dbn.next_frame_predictions_deep = predict
    return f"{scores!r} predictions {digest.hexdigest()[:16]}"


def sample_runs(stack: RnnDbn, root: Path, name: str):
    """``run_sample`` of ``stack`` saved as ``root/name.ckpt``, at each of
    ``DEEP_SAMPLE_SEEDS``: the seeds with their hashes, and the frames."""
    ckpt = root / f"{name}.ckpt"
    save_checkpoint(ckpt, stack)
    hashes, samples = [], []
    for seed in DEEP_SAMPLE_SEEDS:
        frames, digest = sampled(ckpt, seed, root / f"{name}{seed}.jsonl")
        samples.append(frames)
        hashes.append(f"{seed} {digest}")
    return " ".join(hashes), samples


def first_epoch_with(log_csv: Path, text: str) -> int:
    """The ``epoch`` of the first row of ``log_csv`` whose event holds
    ``text``."""
    with open(log_csv, newline="") as fh:
        return next(int(row["epoch"]) for row in csv.DictReader(fh)
                    if text in row["event"])


def resumed_run(cfg, out: Path, half: int):
    """Train ``cfg`` as ``run_training`` does, but through the library:
    save the train state after ``half`` epochs, load it and resume.
    Writes the first ``half`` log rows and the resumed rows as
    ``log.csv``, and the resumed model as ``model.ckpt``."""
    out.mkdir(parents=True, exist_ok=True)
    sequences = load_jsonl(cfg.train).train
    if cfg.model == "rbm":
        train, data, extra = train_adaptive_rbm, _flatten_frames(sequences), {}
    else:
        train, data, extra = (train_adaptive_rnn_rbm, sequences,
                              {"u_dim": cfg.u_dim})
    state_path = out / "state.ckpt"

    def keep_half(state):
        if state.epoch_done + 1 == half:
            save_train_state(state_path, state, seed=cfg.seed)

    args = (data, cfg.n_hidden, cfg.cd, cfg.epochs)
    kwargs = dict(adapt=cfg.adapt, forget=cfg.forget, **extra)
    _, _, first = train(*args, RngStream(cfg.seed).split(1),
                        epoch_callback=keep_half, **kwargs)
    state, _ = load_train_state(state_path)
    model, _, rest = train(*args, RngStream(cfg.seed).split(1),
                           resume=state, **kwargs)
    TrainLog(first.rows[:half] + rest.rows).to_csv(out / "log.csv")
    save_checkpoint(out / "model.ckpt", model, seed=cfg.seed)


def printout(tree: Path) -> list[str]:
    """The lines ``tree``'s copy of this script prints on ``tree/src``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    run = subprocess.run(
        [sys.executable, str(tree / "scripts" / "reference_hashes.py")],
        cwd=tree, env=env, capture_output=True, check=True)
    return run.stdout.decode().splitlines()


def compare_with(rev: str) -> int:
    """Print the lines that differ between ``rev``'s printout and this
    tree's; 1 if any line differs, else 0."""
    here = Path(__file__).resolve().parents[1]
    try:
        archive = subprocess.run(["git", "archive", "--format=tar", rev],
                                 cwd=here, capture_output=True, check=True)
        with tempfile.TemporaryDirectory() as tmp:
            with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
                tar.extractall(tmp, filter="data")
            base = printout(Path(tmp))
        ours = printout(here)
    except subprocess.CalledProcessError as exc:
        print(f"{' '.join(exc.cmd)} failed:\n"
              f"{exc.stderr.decode(errors='replace')}", file=sys.stderr)
        return 2
    differ = 0
    for old, new in itertools.zip_longest(base, ours):
        if old != new:
            differ += 1
            print(f"- {old}" if old is not None else "- (no line)")
            print(f"+ {new}" if new is not None else "+ (no line)")
    print(f"{differ} of {max(len(base), len(ours))} lines differ from {rev}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--keep", help="write the runs here instead of a "
                       "temporary directory")
    group.add_argument("--base", metavar="REV", help="compare this tree's "
                       "printout with that of commit REV")
    args = parser.parse_args(argv)
    if args.base:
        print(host())
        return compare_with(args.base)
    print(host(), file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(args.keep or tmp)
        root.mkdir(parents=True, exist_ok=True)
        train = root / "train.jsonl"
        ds = synth_cycle(4, 8, 25, 16, 0.05, RngStream(101))
        write_jsonl(train, ds.train)
        heldout = root / "heldout.jsonl"
        write_jsonl(heldout, [ds.test[n % len(ds.test)][:t]
                              for n, t in enumerate(HELDOUT_LENGTHS)])
        ragged = root / "ragged.jsonl"
        cut = RAGGED_LENGTHS
        write_jsonl(ragged, [ds.train[n % len(ds.train)][:cut[n % len(cut)]]
                             for n in range(RAGGED_COUNT)])
        runs = [(name, spec, train) for name, spec in CONFIGS.items()]
        runs.append(("ragged rnn-rbm", CONFIGS["rnn-rbm"], ragged))
        for name, spec, data in runs:
            out = root / name.replace(" ", "-")
            cfg = parse_config_text(config_text(*spec, data))
            run_training(cfg, out)
            gen, ann, layer = event_counts(out / "log.csv")
            print(f"{name:14s} log {sha(out / 'log.csv')} "
                  f"ckpt {sha(out / 'model.ckpt')} "
                  f"gen {gen} ann {ann} layer {layer}")
            if name in READ_PATH:
                scores = evaluated(out / "model.ckpt", heldout)
                _, digest = sampled(out / "model.ckpt", SAMPLE_SEED,
                                    out / "sample.jsonl")
                print(f"{name:14s} eval {scores} sample {digest}")
            if name in RESUME:
                resumed = root / f"{name.replace(' ', '-')}-resumed"
                event = RESUME[name]
                resumed_run(cfg, resumed, cfg.epochs // 2 if event is None
                            else first_epoch_with(out / "log.csv", event))
                print(f"{name:14s} resume log {sha(resumed / 'log.csv')} "
                      f"ckpt {sha(resumed / 'model.ckpt')}")
        stack = deep_stack()
        hashes, _ = sample_runs(stack, root, "deep")
        prefixes = hashlib.sha256()
        for seq in load_jsonl(heldout).train:
            for t in range(len(seq) + 1):
                prefixes.update(predict_next_deep(stack, seq[:t]).tobytes())
        print(f"{'deep stack':14s} sample {hashes}"
              f" eval {evaluated(root / 'deep.ckpt', heldout)}"
              f" prefixes {prefixes.hexdigest()[:16]}")
        for layer, (name, scale) in itertools.product(
                stack.layers, SATURATED_SCALES.items()):
            getattr(layer, name)[...] *= scale
        hashes, samples = sample_runs(stack, root, "saturated")
        states = hashlib.sha256()
        for seq in samples:
            for U in rnn_dbn._lift(stack.layers, seq)[1]:
                states.update(U.tobytes())
        print(f"{'saturated stack':14s} sample {hashes}"
              f" unroll {states.hexdigest()[:16]}"
              f" eval {evaluated(root / 'saturated.ckpt', heldout)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
