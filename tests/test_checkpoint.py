"""Checkpoint container: round trips, byte stability, corruption handling."""
import struct

import numpy as np
import numpy.testing as npt
import pytest

from growrbm.adapt import AdaptConfig, GradientStats, TrainState
from growrbm.checkpoint import (FORMAT_VERSION, MAGIC, describe,
                                load_checkpoint, load_train_state,
                                save_checkpoint, save_train_state)
from growrbm.dbn import Dbn, LayerTotals, train_adaptive_rbm
from growrbm.errors import (CheckpointDimensionError, CheckpointError,
                            CheckpointTruncatedError, CheckpointVersionError)
from growrbm.numerics import RngStream
from growrbm.rbm import CdConfig, Rbm
from growrbm.rnn_dbn import RnnDbn
from growrbm.rnn_rbm import RnnRbm, train_adaptive_rnn_rbm


def rbm_model(seed=1):
    rng = RngStream(seed)
    return Rbm(b=rng.normal(size=3), c=rng.normal(size=2),
               W=rng.normal(size=(3, 2)))


def rnn_model(seed=2):
    return RnnRbm.random(3, 2, RngStream(seed), u_dim=4)


def dbn_model():
    return Dbn(layers=[rbm_model(3), Rbm.random(2, 4, RngStream(4))],
               totals=[LayerTotals(0.1, 0.2), LayerTotals(0.3, 0.4)])


def save_one_layer_dbn(path):
    save_checkpoint(path, Dbn(layers=[rbm_model()],
                              totals=[LayerTotals(0.1, 0.2)]))


def save_state(path, stats=None):
    """A resume point of ``rbm_model`` with ``stats`` or sound statistics."""
    state = TestTrainStateRoundTrip().make_state()
    if stats is not None:
        state.stats = stats
    save_train_state(path, state)


def rnn_dbn_model():
    l1 = RnnRbm.random(3, 2, RngStream(5))
    l2 = RnnRbm.random(2, 2, RngStream(6))
    return RnnDbn(layers=[l1, l2], totals=[LayerTotals(1.0, 2.0),
                                           LayerTotals(3.0, 4.0)])


class TestRoundTrips:
    def assert_same_arrays(self, a: dict, b: dict):
        assert a.keys() == b.keys()
        for k in a:
            npt.assert_array_equal(a[k], b[k], err_msg=k)

    def test_rbm(self, tmp_path):
        m = rbm_model()
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, m, seed=7)
        loaded, header = load_checkpoint(p)
        assert isinstance(loaded, Rbm)
        assert header["kind"] == "rbm"
        assert header["seed"] == 7
        self.assert_same_arrays({"b": m.b, "c": m.c, "W": m.W},
                                {"b": loaded.b, "c": loaded.c, "W": loaded.W})

    def test_rnn_rbm(self, tmp_path):
        m = rnn_model()
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, m)
        loaded, header = load_checkpoint(p)
        assert isinstance(loaded, RnnRbm)
        assert header["kind"] == "rnn-rbm"
        assert header["meta"]["u_dim"] == 4
        self.assert_same_arrays(m.arrays(), loaded.arrays())

    def test_dbn(self, tmp_path):
        m = dbn_model()
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, m)
        loaded, header = load_checkpoint(p)
        assert isinstance(loaded, Dbn)
        assert loaded.n_layers == 2
        assert [(t.wd, t.energy) for t in loaded.totals] == \
            [(0.1, 0.2), (0.3, 0.4)]
        for mine, theirs in zip(m.layers, loaded.layers):
            npt.assert_array_equal(mine.W, theirs.W)

    def test_rnn_dbn(self, tmp_path):
        m = rnn_dbn_model()
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, m)
        loaded, _ = load_checkpoint(p)
        assert isinstance(loaded, RnnDbn)
        assert loaded.n_layers == 2
        for mine, theirs in zip(m.layers, loaded.layers):
            self.assert_same_arrays(mine.arrays(), theirs.arrays())

    def test_byte_identical_resave(self, tmp_path):
        for model in (rbm_model(), rnn_model(), dbn_model(),
                      rnn_dbn_model()):
            p1 = tmp_path / "a.ckpt"
            p2 = tmp_path / "b.ckpt"
            save_checkpoint(p1, model, seed=3)
            loaded, _ = load_checkpoint(p1)
            save_checkpoint(p2, loaded, seed=3)
            assert p1.read_bytes() == p2.read_bytes(), type(model).__name__

    def test_unsupported_object(self, tmp_path):
        with pytest.raises(TypeError):
            save_checkpoint(tmp_path / "x.ckpt", object())


class TestTrainStateRoundTrip:
    def make_state(self):
        stats = GradientStats.zeros(3, 2, decay=0.8)
        rng = RngStream(9)
        for _ in range(5):
            stats.update(rng.normal(size=2), rng.normal(size=(3, 2)))
        controller = {"generation_done": False, "stall": 1}
        return TrainState(epoch_done=4, model=rbm_model(), stats=stats,
                          controller=controller)

    def grown_state(self, recurrent):
        """The state ``epoch_callback`` receives after a growth epoch."""
        rng = RngStream(12)
        seqs = [(rng.uniform(size=(6, 3)) < 0.5).astype(float)
                for _ in range(6)]
        cd = CdConfig(k=1, learning_rate=0.1, batch_size=3)
        adapt = AdaptConfig(generation_phase_epochs=2, max_hidden=6,
                            gen_threshold=1e-12)
        states = []
        if recurrent:
            train_adaptive_rnn_rbm(seqs, 2, cd, 1, RngStream(13), adapt=adapt,
                                   u_dim=3, epoch_callback=states.append)
        else:
            train_adaptive_rbm(np.vstack(seqs), 2, cd, 1, RngStream(13),
                               adapt=adapt, epoch_callback=states.append)
        assert states[0].model.n_hidden > 2  # the epoch split units
        return states[0]

    def assert_round_trip(self, tmp_path, state, kind):
        p = tmp_path / "s.ckpt"
        save_train_state(p, state, seed=11)
        loaded, header = load_train_state(p)
        assert header["kind"] == kind
        assert isinstance(loaded, TrainState)
        assert loaded.epoch_done == state.epoch_done
        assert loaded.controller == state.controller
        assert loaded.stats.decay == state.stats.decay
        assert loaded.stats.count == state.stats.count
        for name in ("mean_c", "sq_c", "mean_w", "sq_w"):
            npt.assert_array_equal(getattr(loaded.stats, name),
                                   getattr(state.stats, name), err_msg=name)
        for name, arr in state.model.arrays().items():
            npt.assert_array_equal(loaded.model.arrays()[name], arr,
                                   err_msg=name)

    def test_static_state(self, tmp_path):
        for state in (self.make_state(), self.grown_state(recurrent=False)):
            self.assert_round_trip(tmp_path, state, "rbm-train")

    def test_recurrent_state(self, tmp_path):
        stats = GradientStats.zeros(3, 2)
        state = TrainState(epoch_done=2, model=rnn_model(), stats=stats,
                           controller={"generation_done": True, "stall": 0})
        for state in (state, self.grown_state(recurrent=True)):
            self.assert_round_trip(tmp_path, state, "rnn-rbm-train")

    def test_loaders_reject_wrong_family(self, tmp_path):
        plain = tmp_path / "plain.ckpt"
        save_checkpoint(plain, rbm_model())
        with pytest.raises(CheckpointError, match="not a training-state"):
            load_train_state(plain)

        trainish = tmp_path / "train.ckpt"
        save_train_state(trainish, self.make_state())
        with pytest.raises(CheckpointError, match="use load_train_state"):
            load_checkpoint(trainish)

    def test_rejects_non_state(self, tmp_path):
        with pytest.raises(TypeError):
            save_train_state(tmp_path / "x.ckpt", rbm_model())


class TestCorruption:
    def saved(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, rbm_model())
        return p

    def test_bad_magic(self, tmp_path):
        p = self.saved(tmp_path)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"NOPE"
        p.write_bytes(raw)
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(p)

    def test_future_version(self, tmp_path):
        p = self.saved(tmp_path)
        raw = bytearray(p.read_bytes())
        raw[4:8] = struct.pack("<I", FORMAT_VERSION + 1)
        p.write_bytes(raw)
        with pytest.raises(CheckpointVersionError, match="version"):
            load_checkpoint(p)

    def test_too_short_for_preamble(self, tmp_path):
        p = tmp_path / "m.ckpt"
        p.write_bytes(MAGIC + b"\x01")
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(p)

    def test_truncated_header(self, tmp_path):
        p = self.saved(tmp_path)
        p.write_bytes(p.read_bytes()[:20])
        with pytest.raises(CheckpointTruncatedError, match="header"):
            load_checkpoint(p)

    def test_truncated_arrays(self, tmp_path):
        p = self.saved(tmp_path)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(CheckpointTruncatedError, match="ends inside"):
            load_checkpoint(p)

    def test_trailing_garbage(self, tmp_path):
        p = self.saved(tmp_path)
        p.write_bytes(p.read_bytes() + b"extra")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(p)

    def test_unreadable_header_json(self, tmp_path):
        p = self.saved(tmp_path)
        raw = bytearray(p.read_bytes())
        raw[16] = ord("!")  # first header byte, breaks the JSON object
        p.write_bytes(raw)
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(p)

    def test_non_finite_payload(self, tmp_path):
        p = self.saved(tmp_path)
        raw = bytearray(p.read_bytes())
        # overwrite the last float with NaN
        raw[-8:] = struct.pack("<d", float("nan"))
        p.write_bytes(raw)
        with pytest.raises(CheckpointDimensionError):
            load_checkpoint(p)

    def test_broken_layer_chain(self, tmp_path):
        # stitch a dbn whose second layer does not fit the first
        bad = Dbn(layers=[Rbm.zeros(3, 2), Rbm.zeros(4, 2)],
                  totals=[LayerTotals(0, 0), LayerTotals(0, 0)])
        p = tmp_path / "bad.ckpt"
        save_checkpoint(p, bad)
        with pytest.raises(CheckpointDimensionError):
            load_checkpoint(p)

    @staticmethod
    def edit_header(path, edit):
        import json
        raw = path.read_bytes()
        hlen = struct.unpack("<Q", raw[8:16])[0]
        header = json.loads(raw[16:16 + hlen].decode())
        edit(header)
        blob = json.dumps(header, sort_keys=True,
                          separators=(",", ":")).encode()
        path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob
                         + raw[16 + hlen:])

    @pytest.mark.parametrize("save, load, edit, match", [
        (lambda p: save_checkpoint(p, rbm_model()), load_checkpoint,
         lambda h: h.pop("kind"), "missing 'kind'"),
        (lambda p: save_checkpoint(p, dbn_model()), load_checkpoint,
         lambda h: h["meta"].pop("n_layers"), "missing 'meta.n_layers'"),
        (lambda p: save_checkpoint(p, dbn_model()), load_checkpoint,
         lambda h: h["meta"].pop("totals"), "missing 'meta.totals'"),
        (lambda p: save_checkpoint(p, rbm_model()), describe,
         lambda h: h["arrays"][0].pop("name"), "bad array entry"),
        (save_one_layer_dbn, load_checkpoint,
         lambda h: h["meta"].update(totals=[[0.1, 0.2]] * 3),
         "3 layer totals for 1 layers"),
    ] + [(save_one_layer_dbn, describe,
          lambda h, totals=totals: h["meta"].update(totals=totals), match)
         for totals, match in (([["x", 1]], "malformed layer totals"),
                               (5, "bad 'meta.totals'"),
                               ([[1.0]], "malformed layer totals"))
    ] + [(save_one_layer_dbn, load,
          lambda h: h["meta"].update(n_layers=0, totals=[]),
          "stack of 0 layers") for load in (load_checkpoint, describe)
    ] + [(save_state, load_train_state,
          lambda h, key=key: h["meta"].pop(key), f"missing 'meta.{key}'")
         for key in ("stats_decay", "stats_count", "epoch_done",
                     "controller")
    ] + [(save_state, load_train_state,
          lambda h, meta=meta: h["meta"].update(meta), match)
         for meta, match in (
             ({"controller": {}},
              "missing 'meta.controller.generation_done'"),
             ({"controller": {"generation_done": "yes", "stall": "x"}},
              "bad 'meta.controller.generation_done'"),
             ({"controller": {"generation_done": 1, "stall": 0}},
              "bad 'meta.controller.generation_done'"),
             ({"controller": {"generation_done": True, "stall": "x"}},
              "bad 'meta.controller.stall'"),
             ({"controller": {"generation_done": False, "stall": -1}},
              "out of range"),
             ({"epoch_done": -2}, "out of range"),
             ({"stats_count": -3}, "out of range"),
             ({"stats_decay": 5.0}, "out of range"),
             ({"stats_decay": 0}, "out of range"))
    ] + [(lambda p, i=i, j=j: save_state(p, GradientStats.zeros(i, j)),
          load_train_state, lambda h: None, "stats/")
         for i, j in ((3, 3), (2, 2))],
        ids=["kind", "dbn-n_layers", "dbn-totals", "manifest-name",
             "surplus-totals", "describe-string-totals",
             "describe-scalar-totals", "describe-short-totals",
             "zero-layers", "describe-zero-layers", "state-stats_decay",
             "state-stats_count", "state-epoch_done", "state-controller",
             "state-empty-controller", "state-string-controller",
             "state-int-generation_done", "state-string-stall",
             "state-negative-stall", "state-negative-epoch_done",
             "state-negative-stats_count", "state-stats_decay-above-1",
             "state-zero-stats_decay",
             "state-stats-more-hidden", "state-stats-fewer-visible"])
    def test_missing_header_key(self, tmp_path, save, load, edit, match):
        p = tmp_path / "m.ckpt"
        save(p)
        self.edit_header(p, edit)
        with pytest.raises(CheckpointError, match=match):
            load(p)

    def test_malformed_header_exits_2_in_cli(self, tmp_path, capsys):
        from growrbm.cli import main
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, dbn_model())
        self.edit_header(p, lambda h: h["meta"].pop("n_layers"))
        data = tmp_path / "d.jsonl"
        data.write_text('{"seq": [[0, 1, 0]]}\n')
        assert main(["eval", "--checkpoint", str(p),
                     "--dataset", str(data)]) == 2
        assert "meta.n_layers" in capsys.readouterr().err

    def test_malformed_totals_exit_2_in_inspect(self, tmp_path, capsys):
        from growrbm.cli import main
        p = tmp_path / "m.ckpt"
        save_one_layer_dbn(p)
        self.edit_header(p, lambda h: h["meta"].update(totals=[["x", 1]]))
        assert main(["inspect", "--checkpoint", str(p)]) == 2
        assert "malformed layer totals" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "sample"])
    def test_zero_layer_stack_exits_2_in_cli(self, tmp_path, capsys,
                                             command):
        from growrbm.cli import main
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, RnnDbn(layers=[rnn_model()]))
        self.edit_header(p, lambda h: h["meta"].update(n_layers=0))
        data = tmp_path / "d.jsonl"
        data.write_text('{"seq": [[0, 1, 0], [1, 0, 1]]}\n')
        args = (["--dataset", str(data)] if command == "eval" else
                ["--length", "3", "--out", str(tmp_path / "s.jsonl")])
        assert main([command, "--checkpoint", str(p)] + args) == 2
        assert "stack of 0 layers" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["b", "c", "u_bias"])
    def test_zero_dimensional_size_array(self, tmp_path, capsys, name):
        # the layer sizes are read from these arrays' first axis
        from growrbm.checkpoint import _collect, _write
        from growrbm.cli import main
        kind, arrays, meta = _collect(rnn_model())
        arrays[name] = np.array(0.5)
        p = tmp_path / "m.ckpt"
        _write(p, kind, arrays, meta, seed=0)
        with pytest.raises(CheckpointDimensionError,
                           match=f"{name} has shape \\(\\)"):
            load_checkpoint(p)
        data = tmp_path / "d.jsonl"
        data.write_text('{"seq": [[0, 1, 0], [1, 0, 1]]}\n')
        assert main(["eval", "--checkpoint", str(p),
                     "--dataset", str(data)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{name} has shape ()" in err[0]

    @pytest.mark.parametrize("cls", [Dbn, RnnDbn])
    def test_empty_stack_not_written(self, tmp_path, cls):
        p = tmp_path / "m.ckpt"
        with pytest.raises(ValueError, match="no layers"):
            save_checkpoint(p, cls(layers=[]))
        assert list(tmp_path.iterdir()) == []


class TestDescribe:
    def test_mentions_kind_and_arrays(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, rnn_dbn_model(), seed=5)
        text = describe(p)
        assert "kind: rnn-dbn" in text
        assert "seed: 5" in text
        assert "layer0/W" in text
        assert "layer0 totals" in text
