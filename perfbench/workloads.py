"""The three benchmark workloads: their inputs, one timed unit of work
each, and the checks on every output.

``rnn_grow`` and ``static_stack`` are training workloads: a unit of work
is one ``growrbm train`` run (``parse_config`` then ``run_training``)
into a fresh directory.  ``deep_serve`` is a serving workload: a unit of
work is one ``run_eval`` over a held-out set followed by one
``run_sample``, against a checkpoint built during preparation.  Every
input is generated from the workload seed; the package only ever sees
the JSONL, config and checkpoint files written here.
"""
from __future__ import annotations

import csv
import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from growrbm import checkpoint, config, data, harness, numerics
from growrbm import rnn_dbn, rnn_rbm
from growrbm.errors import GrowRbmError

RUN_FILES = ("config.cfg", "log.csv", "model.ckpt", "summary.txt")
LOG_COLUMNS = ["epoch", "layer", "energy", "error", "wd_c", "wd_w",
               "n_hidden", "n_layers", "event"]

# rnn_grow trains exactly the acceptance criterion-5 data (stream 101)
# with its training seed 7, shortened to 60 epochs; the workload seed
# draws the held-out set.  Whether a run grows and prunes depends on the
# data and the training seed: with patterns drawn from the workload seed
# the growth rule never fired on 3 of 8 seeds, and with the training seed
# drawn from it pruning never fired on 7 of 39, so those runs would skip
# a structure phase.
RNN_GROW_DATA_SEED = 101
RNN_GROW_TRAIN_SEED = 7

SCALES = {
    "full": {
        "rnn_grow": {"n_sequences": 40, "epochs": 60},
        "static_stack": {"n_sequences": 200, "epochs": 60},
        "deep_serve": {"n_sequences": 10, "sample_length": 32},
    },
    # small enough for the self-test; outputs are still checked
    "tiny": {
        "rnn_grow": {"n_sequences": 10, "epochs": 6},
        "static_stack": {"n_sequences": 20, "epochs": 8},
        "deep_serve": {"n_sequences": 2, "sample_length": 6},
    },
}


@dataclass
class Sample:
    """One timed unit of work."""

    start: float
    seconds: float
    frames: int
    operations: int
    failed: int = 0
    errors: list = field(default_factory=list)
    parts: dict = field(default_factory=dict)   # call -> (seconds, frames)
    speed: float = 1.0                          # host-speed scale applied


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _guarded(errors, what, fn, *args):
    """Call ``fn``; a raised package or OS error becomes a failure."""
    try:
        return fn(*args)
    except (GrowRbmError, OSError, ValueError, FloatingPointError) as exc:
        errors.append(f"{what}: {type(exc).__name__}: {exc}")
        return None


def _read_summary(path) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def _rnn_grow_config(seed, epochs, root):
    # criterion-5/6 settings; the structure schedule scales with epochs
    return f"""\
model = rnn-rbm
epochs = {epochs}
seed = {seed}
train = {root}/train.jsonl
test = {root}/test.jsonl
n_hidden = 4
u_dim = 12
cd.k = 1
cd.learning_rate = 0.5
cd.batch_size = 8
adapt.generation_phase_epochs = {int(0.4 * epochs)}
adapt.max_hidden = 8
adapt.min_hidden = 3
adapt.gen_threshold = 5e-9
adapt.ann_threshold = 0.47
forget.decay_strength = 0.008
forget.clarify_strength = 0.008
forget.selective_strength = 0.008
forget.selective_cutoff = 0.1
forget.forgetting_epochs = {epochs // 5}
forget.selective_epochs = {epochs // 10}
"""


def _static_stack_config(seed, epochs, root):
    # layers fill up to max_hidden and rarely prune, so every seed trains
    # stacks of nearly the same size; with ann_threshold 0.47 the final
    # sizes ranged from 3 to 17 units and run time by seed spread 16%
    return f"""\
model = dbn
epochs = {epochs}
seed = {seed}
train = {root}/train.jsonl
n_hidden = 8
cd.k = 1
cd.learning_rate = 0.1
cd.batch_size = 32
adapt.generation_phase_epochs = {int(0.4 * epochs)}
adapt.max_hidden = 24
adapt.min_hidden = 3
adapt.gen_threshold = 5e-9
adapt.ann_threshold = 0.1
forget.forgetting_epochs = {epochs // 5}
forget.selective_epochs = {epochs // 10}
layers.max_layers = 3
layers.wd_threshold = 1e-12
layers.energy_threshold = 1e-12
"""


class TrainingWorkload:
    """Closed loop of identical ``growrbm train`` runs."""

    warmup = 0

    def __init__(self, name, seed, workdir: Path, scale="full"):
        self.name = name
        self.workdir = workdir
        size = SCALES[scale][name]
        self.epochs = size["epochs"]
        stream = numerics.RngStream(seed)
        if name == "rnn_grow":
            train = data.synth_cycle(4, 8, 25, size["n_sequences"], 0.05,
                                     numerics.RngStream(RNN_GROW_DATA_SEED))
            patterns = data.random_patterns(
                4, 8, numerics.RngStream(RNN_GROW_DATA_SEED))
            held = data.synth_cycle(4, 8, 25, 8, 0.05, stream.split(1),
                                    patterns=patterns)
            data.write_jsonl(workdir / "train.jsonl", train.train)
            data.write_jsonl(workdir / "test.jsonl", held.train + held.test)
            text = _rnn_grow_config(RNN_GROW_TRAIN_SEED, self.epochs, workdir)
            self.n_layers = 1
            self.train_frames = sum(len(s) for s in train.train)
        else:
            ds = data.synth_cycle(8, 16, 25, size["n_sequences"], 0.05,
                                  stream.split(1))
            data.write_jsonl(workdir / "train.jsonl", ds.train)
            text = _static_stack_config(seed, self.epochs, workdir)
            self.n_layers = 3
            self.train_frames = sum(len(s) for s in ds.train)
        self.cfg_path = workdir / "run.cfg"
        self.cfg_path.write_text(text)
        self.frames_per_job = self.epochs * self.train_frames * self.n_layers
        self.hashes = None
        self.quality = {}

    def setup_code(self) -> str:
        """Statements a fresh interpreter runs before its first job."""
        loads = [f"data.load_jsonl({str(self.workdir / 'train.jsonl')!r})"]
        if self.name == "rnn_grow":
            loads.append(f"data.load_jsonl({str(self.workdir / 'test.jsonl')!r})")
        return ("import growrbm.cli\nfrom growrbm import config, data\n"
                f"config.parse_config({str(self.cfg_path)!r})\n"
                + "\n".join(loads) + "\n")

    def run_once(self, index, tracer=None) -> Sample:
        out = self.workdir / f"job{index:03d}"
        shutil.rmtree(out, ignore_errors=True)
        errors = []
        if tracer is not None:
            tracer.run_id = index
            tracer.install()
        try:
            t0 = time.perf_counter()
            cfg = _guarded(errors, "parse_config", config.parse_config,
                           self.cfg_path)
            if cfg is not None:
                _guarded(errors, "run_training", harness.run_training, cfg, out)
            seconds = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        if not errors:
            errors = self.check(out)
        return Sample(t0, seconds, self.frames_per_job, 1, int(bool(errors)),
                      errors, {"train": (seconds, self.frames_per_job)})

    def check(self, out: Path) -> list:
        """Everything a correct run leaves behind, checked."""
        errors = []
        files = sorted(p.name for p in out.iterdir())
        if files != sorted(RUN_FILES):
            return [f"run directory holds {files}, expected {list(RUN_FILES)}"]
        with open(out / "log.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != LOG_COLUMNS:
                return [f"log.csv header {reader.fieldnames}"]
            rows = list(reader)
        expected = [(e, l) for l in range(1, self.n_layers + 1)
                    for e in range(1, self.epochs + 1)]
        if [(int(r["epoch"]), int(r["layer"])) for r in rows] != expected:
            errors.append(f"log.csv has {len(rows)} rows, expected one per "
                          f"epoch per layer ({len(expected)})")
            return errors
        events = "|".join(r["event"] for r in rows)
        gens, anns = events.count("gen("), events.count("ann(")
        layers = events.count("layer(")
        if gens < 1:
            errors.append("no growth event")
        if self.name == "rnn_grow" and anns < 1:
            errors.append("no pruning event")
        if self.name == "static_stack" and layers != 2:
            errors.append(f"{layers} layer events, expected 2")

        loaded = _guarded(errors, "load model.ckpt", checkpoint.load_checkpoint,
                          out / "model.ckpt")
        last = rows[-1]
        if loaded is not None:
            model, header = loaded
            top = model.layers[-1] if hasattr(model, "layers") else model
            kind = "rnn-rbm" if self.name == "rnn_grow" else "dbn"
            if header["kind"] != kind or top.n_hidden != int(last["n_hidden"]):
                errors.append(f"model.ckpt holds a {header['kind']} with "
                              f"{top.n_hidden} top hidden units; log says "
                              f"{kind} with {last['n_hidden']}")
            if getattr(model, "n_layers", 1) != self.n_layers:
                errors.append(f"model.ckpt has {model.n_layers} layers")

        summary = _read_summary(out / "summary.txt")
        if float(summary.get("train_error", "nan")) != float(last["error"]):
            errors.append("summary train_error differs from the last log row")
        quality = {"final_train_error": float(last["error"]),
                   "units_grown": gens, "units_pruned": anns}
        if self.name == "rnn_grow":
            test_xent = float(summary.get("test_error", "nan"))
            quality["test_xent"] = test_xent
            if not test_xent < math.log(2.0):
                errors.append(f"test_xent {test_xent} is not below ln 2")
            # same checkpoint through the eval entry point; the reloaded
            # weights are C-ordered, so agreement is to rounding only
            # (see NOTES.md)
            res = _guarded(errors, "run_eval", harness.run_eval,
                           out / "model.ckpt", self.workdir / "test.jsonl")
            if res is not None and not abs(res[0] - test_xent) <= 1e-12:
                errors.append(f"eval of model.ckpt gives {res[0]}, "
                              f"summary says {test_xent}")
        hashes = {"log.csv": sha256(out / "log.csv"),
                  "model.ckpt": sha256(out / "model.ckpt")}
        if self.hashes is None:
            self.hashes = hashes
            self.quality = quality
        elif hashes != self.hashes:
            errors.append("outputs differ from the first run of this "
                          f"invocation: {hashes} vs {self.hashes}")
        return errors

    def record(self) -> dict:
        return {"sha256": self.hashes, "quality": self.quality}


class ServeWorkload:
    """Closed loop of one caller alternating eval and sample calls."""

    warmup = 2
    HIDDEN = (10, 8, 6)
    U_DIM = 8
    WEIGHT_SD = 0.5
    SAMPLE_SEEDS = 4

    def __init__(self, name, seed, workdir: Path, scale="full"):
        self.workdir = workdir
        size = SCALES[scale][name]
        self.sample_length = size["sample_length"]
        stream = numerics.RngStream(seed)
        # fixed shapes, public constructors only: what is served cannot
        # depend on the trainer
        layers, n_visible = [], 8
        for i, n_hidden in enumerate(self.HIDDEN):
            layers.append(rnn_rbm.RnnRbm.random(
                n_visible, n_hidden, stream.split(10 + i), u_dim=self.U_DIM,
                weight_sd=self.WEIGHT_SD))
            n_visible = n_hidden
        self.ckpt_path = workdir / "stack.ckpt"
        checkpoint.save_checkpoint(self.ckpt_path, rnn_dbn.RnnDbn(layers=layers),
                                   seed=seed)
        held = data.synth_cycle(4, 8, 25, size["n_sequences"], 0.05,
                                stream.split(1))
        self.heldout = held.train + held.test
        self.heldout_path = workdir / "heldout.jsonl"
        data.write_jsonl(self.heldout_path, self.heldout)
        self.eval_frames = sum(len(s) - 1 for s in self.heldout)
        self.frames_per_job = self.eval_frames + self.sample_length
        self.sample_seeds = [int(stream.split(20 + j).key)
                             for j in range(self.SAMPLE_SEEDS)]
        self.samples = {}
        self.first_eval = None
        self.quality = {}
        self.reference = None

    def setup_code(self) -> str:
        return ("import growrbm.cli\nfrom growrbm import checkpoint, data\n"
                f"checkpoint.load_checkpoint({str(self.ckpt_path)!r})\n"
                f"data.load_jsonl({str(self.heldout_path)!r})\n")

    def reference_check(self) -> list:
        """Per-prefix ``predict_next_deep`` on the *loaded* checkpoint
        against the vectorised path, and the reference eval scores."""
        errors = []
        model, _ = checkpoint.load_checkpoint(self.ckpt_path)
        preds, targets = [], []
        for i, seq in enumerate(self.heldout):
            ref = np.array([rnn_dbn.predict_next_deep(model, seq[:t])
                            for t in range(1, len(seq))])
            if i < 2:
                fast = rnn_dbn.next_frame_predictions_deep(model, seq)
                gap = float(np.max(np.abs(fast - ref)))
                if not gap <= 1e-12:
                    errors.append(f"sequence {i}: vectorised predictions "
                                  f"differ from per-prefix ones by {gap}")
            preds.append(ref.ravel())
            targets.append(seq[1:].ravel())
        p, v = np.concatenate(preds), np.concatenate(targets)
        xent = float(np.mean(-(v * np.log(p) + (1.0 - v) * np.log1p(-p))))
        ratio = float(np.mean((p > 0.5) == (v > 0.5)))
        self.reference = (xent, ratio)
        return errors

    def run_once(self, index, tracer=None) -> Sample:
        eval_errors, sample_errors = [], []
        seed = self.sample_seeds[index % self.SAMPLE_SEEDS]
        out = self.workdir / f"sample{index % self.SAMPLE_SEEDS}.jsonl"
        if tracer is not None:
            tracer.run_id = index
            tracer.install()
        try:
            t0 = time.perf_counter()
            scores = _guarded(eval_errors, "run_eval", harness.run_eval,
                              self.ckpt_path, self.heldout_path)
            t1 = time.perf_counter()
            frames = _guarded(sample_errors, "run_sample", harness.run_sample,
                              self.ckpt_path, self.sample_length, seed, out)
            t2 = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        if scores is not None:
            eval_errors += self.check_eval(scores)
        if frames is not None:
            sample_errors += self.check_sample(frames, seed, out)
        return Sample(t0, t2 - t0, self.frames_per_job, 2,
                      bool(eval_errors) + bool(sample_errors),
                      eval_errors + sample_errors,
                      {"eval": (t1 - t0, self.eval_frames),
                       "sample": (t2 - t1, self.sample_length)})

    def check_eval(self, scores) -> list:
        if self.first_eval is None:
            self.first_eval = scores
            self.quality = {"test_xent": scores[0]}
            gaps = [abs(a - b) for a, b in zip(scores, self.reference)]
            if not max(gaps) <= 1e-12:
                return [f"eval scores {scores} differ from the per-prefix "
                        f"reference {self.reference}"]
        elif tuple(scores) != tuple(self.first_eval):
            return [f"eval scores {scores} differ from the first call's "
                    f"{self.first_eval}"]
        return []

    def check_sample(self, frames, seed, out) -> list:
        errors = []
        frames = np.asarray(frames)
        if frames.shape != (self.sample_length, 8):
            return [f"sample has shape {frames.shape}"]
        if not np.all((frames == 0.0) | (frames == 1.0)):
            errors.append("sample holds values other than 0 and 1")
        first = self.samples.setdefault(seed, frames.copy())
        if not np.array_equal(first, frames):
            errors.append(f"sample for seed {seed} differs between calls")
        written = _guarded(errors, "reload sample", data.load_jsonl, out)
        if written is not None and not np.array_equal(written.train[0], frames):
            errors.append("written sample differs from the returned frames")
        return errors

    def record(self) -> dict:
        return {"eval": self.first_eval, "reference": self.reference}


WORKLOADS = {"rnn_grow": TrainingWorkload, "static_stack": TrainingWorkload,
             "deep_serve": ServeWorkload}
