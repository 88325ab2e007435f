"""Structure-aware fuzzing of the three readers: config text, JSONL lines
and checkpoint headers, train-state meta included.

Each input is a valid file with a few edits that keep its structure
(a config line's key or value, a node of a JSON line or header).  A
library call on it must succeed or raise a documented
:class:`~growrbm.errors.GrowRbmError`.  Through ``cli.main`` it must
give a documented exit code, one stderr line when that code is not 0,
and no output after an exit 1 or 2.
"""
import copy
import json
import struct
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from growrbm.adapt import TrainState
from growrbm.checkpoint import (describe, load_checkpoint, load_train_state,
                                save_checkpoint, save_train_state)
from growrbm.cli import main
from growrbm.config import parse_config_text
from growrbm.data import load_jsonl, synth_cycle, write_jsonl
from growrbm.dbn import LayerTotals
from growrbm.errors import GrowRbmError
from growrbm.harness import RUN_FILES
from growrbm.numerics import RngStream
from growrbm.rnn_dbn import RnnDbn
from growrbm.rnn_rbm import RnnRbm

EXIT_CODES = (0, 1, 2, 3)

BASE_CONFIG = """\
model = rnn-rbm
epochs = 2
seed = 3
train = {train}
n_hidden = 3
u_dim = 2
cd.batch_size = 4
cd.learning_rate = 0.1
adapt.generation_phase_epochs = 1
adapt.max_hidden = 5
layers.max_layers = 2
"""
# keys of every kind (top level, each section, unknown, misspelt); the
# values stay small so that a config that parses trains in milliseconds
CONFIG_KEYS = ("model", "adaptive", "epochs", "seed", "train", "test",
               "n_hidden", "u_dim", "cd.k", "cd.batch_size",
               "cd.learning_rate", "adapt.max_hidden", "adapt.min_hidden",
               "adapt.gen_threshold", "adapt.ann_threshold",
               "forget.forgetting_epochs", "forget.decay_strength",
               "layers.max_layers",
               "layers.wd_threshold", "cd.", "Model", "epoch", "x.y")
CONFIG_VALUES = ("", "0", "1", "2", "3", "-1", "0.5", "0.01", "1e-300",
                 "1e308", "nan", "inf", "-inf", "abc", "true", "no", "rbm",
                 "dbn", "rnn-dbn", "2.5", "0x10", "=", "missing.jsonl", ".",
                 "é")
CONFIG_EDITS = ("value", "key", "drop", "duplicate", "raw", "insert")

# JSON values put into a data line or a checkpoint header
JSON_VALUES = (0, 1, 2, -1, 0.5, -0.0, 1e300, float("inf"), True, False,
               None, "x", "", "0", [], {}, [[]], [0], [[0, 1, 0]],
               [[0, 1], [1, 0]], {"seq": [[1, 0, 1]]}, 2 ** 70, "layer0/W",
               "rnn-rbm", "dbn-train", [3, 2], {"stall": 0})
JSON_EDITS = ("replace", "delete", "wrap", "rename", "duplicate")


def edits(kinds, values):
    """Up to four edits: what to do, where (taken modulo the places), and
    which value to use."""
    return st.lists(st.tuples(st.sampled_from(kinds), st.integers(0, 999),
                              st.sampled_from(values)), max_size=4)


def edit_config(text: str, changes) -> str:
    lines = text.splitlines()
    for kind, where, value in changes:
        i = where % max(1, len(lines))
        key = CONFIG_KEYS[where % len(CONFIG_KEYS)]
        if kind == "insert" or not lines:
            lines.insert(i, f"{key} = {value}")
        elif kind == "value":
            lines[i] = f"{lines[i].partition('=')[0]}= {value}"
        elif kind == "key":
            lines[i] = f"{key} ={lines[i].partition('=')[2]}"
        elif kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = value
    return "\n".join(lines) + "\n"


def _places(node, path=()):
    """The path of every value inside ``node``, ``node`` itself first."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _places(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _places(value, path + (i,))


def edit_json(obj, changes):
    """``obj`` with each change made at one of its values."""
    obj = copy.deepcopy(obj)
    for kind, where, value in changes:
        places = list(_places(obj))
        path = places[where % len(places)]
        if not path:
            obj = copy.deepcopy(value) if kind == "replace" else [obj]
            continue
        parent = obj
        for step in path[:-1]:
            parent = parent[step]
        last = path[-1]
        if kind == "replace":
            parent[last] = copy.deepcopy(value)
        elif kind == "delete":
            del parent[last]
        elif kind == "wrap":
            parent[last] = [parent[last]]
        elif isinstance(parent, dict):  # rename or duplicate a key
            parent[f"{last}{value}" if kind == "rename"
                   else f"{last}_"] = parent.pop(last)
        elif kind == "duplicate":
            parent.insert(last, copy.deepcopy(parent[last]))
        else:
            parent.reverse()
    return obj


def run_cli(argv):
    """Exit code and stderr lines of ``main(argv)``; a warning counts as a
    stderr line, since outside the test runner it prints there."""
    err = StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stderr(err), redirect_stdout(StringIO()):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue().splitlines() + [
        f"warning: {w.message}" for w in caught]


def assert_documented(code, err):
    assert code in EXIT_CODES, code
    assert len(err) == (code != 0), err
    if code:
        assert err[0].startswith(("error: ", "numeric failure: ")), err


def library_error(func, *args):
    """The documented error ``func(*args)`` raises, or None; any other
    exception fails the test."""
    try:
        func(*args)
    except GrowRbmError as exc:
        return exc
    return None


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A training file, a held-out file, checkpoints of a recurrent layer
    and of a recurrent stack, and a train state, all valid."""
    root = tmp_path_factory.mktemp("fuzz")
    ds = synth_cycle(3, 3, 6, 4, 0.0, RngStream(5))
    write_jsonl(root / "train.jsonl", ds.train)
    write_jsonl(root / "heldout.jsonl", ds.test)
    model = RnnRbm.random(3, 2, RngStream(6), u_dim=2)
    save_checkpoint(root / "rnn.ckpt", model)
    stack = RnnDbn(layers=[model, RnnRbm.random(2, 2, RngStream(7))],
                   totals=[LayerTotals(0.1, 0.2), LayerTotals(0.3, 0.4)])
    save_checkpoint(root / "stack.ckpt", stack)
    state = TrainState.fresh(model)
    state.epoch_done = 1
    save_train_state(root / "state.ckpt", state)
    return root


class TestConfigText:
    @settings(max_examples=40, deadline=None)
    @given(changes=edits(CONFIG_EDITS, CONFIG_VALUES))
    def test_edited_config(self, files, changes):
        text = edit_config(BASE_CONFIG.format(train=files / "train.jsonl"),
                           changes)
        rejected = library_error(parse_config_text, text)
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "run"
            cfg.write_text(text)
            code, err = run_cli(["train", "--config", str(cfg),
                                 "--out", str(out)])
            assert_documented(code, err)
            if rejected:
                assert code == 1
            if code in (1, 2):
                assert not out.exists()
            elif code == 0:
                assert sorted(p.name for p in out.iterdir()) == sorted(
                    RUN_FILES)


class TestJsonlLines:
    @settings(max_examples=80, deadline=None)
    @given(line=st.integers(0, 99), changes=edits(JSON_EDITS, JSON_VALUES),
           raw=st.sampled_from(("", "cut", "blank", "garbage", "bytes")))
    def test_edited_line(self, files, line, changes, raw):
        lines = (files / "heldout.jsonl").read_text().splitlines()
        i = line % len(lines)
        lines[i] = json.dumps(edit_json(json.loads(lines[i]), changes))
        if raw == "cut":
            lines[i] = lines[i][:len(lines[i]) // 2]
        elif raw == "blank":
            lines.insert(i, "   ")
        elif raw == "garbage":
            lines[i] += "]"
        data = ("\n".join(lines) + "\n").encode()
        if raw == "bytes":
            data = b"\xff" + data
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.jsonl"
            path.write_bytes(data)
            rejected = library_error(load_jsonl, path)
            before = sorted(Path(tmp).iterdir())
            code, err = run_cli(["eval", "--checkpoint",
                                 str(files / "rnn.ckpt"),
                                 "--dataset", str(path)])
            assert_documented(code, err)
            if rejected:
                assert code == 2
            assert sorted(Path(tmp).iterdir()) == before


def edit_header(raw: bytes, edit) -> bytes:
    """The checkpoint bytes ``raw`` with ``edit`` applied to the header."""
    hlen = struct.unpack("<Q", raw[8:16])[0]
    header = edit(json.loads(raw[16:16 + hlen]))
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen:]


class TestCheckpointHeaders:
    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(("rnn.ckpt", "stack.ckpt", "state.ckpt")),
           changes=edits(JSON_EDITS, JSON_VALUES),
           meta_only=st.booleans())
    def test_edited_header(self, files, name, changes, meta_only):
        def edit(header):
            if meta_only and isinstance(header.get("meta"), dict):
                header["meta"] = edit_json(header["meta"], changes)
                return header
            return edit_json(header, changes)

        data = edit_header((files / name).read_bytes(), edit)
        with tempfile.TemporaryDirectory() as tmp:
            path, gen = Path(tmp) / "m.ckpt", Path(tmp) / "gen.jsonl"
            path.write_bytes(data)
            library_error(load_train_state, path)
            rejected = {"inspect": library_error(describe, path)}
            rejected["eval"] = rejected["sample"] = library_error(
                load_checkpoint, path)
            for argv in (["inspect"],
                         ["eval", "--dataset", str(files / "heldout.jsonl")],
                         ["sample", "--length", "3", "--out", str(gen)]):
                code, err = run_cli([argv[0], "--checkpoint", str(path),
                                     *argv[1:]])
                assert_documented(code, err)
                if rejected[argv[0]]:
                    assert code == 2
                if code in (1, 2):
                    assert not gen.exists()
