"""Checkpoint container: round trips, byte stability, corruption handling."""
import struct
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from growrbm.adapt import (AdaptConfig, ForgettingConfig, GradientStats,
                           TrainState)
from growrbm.checkpoint import (FORMAT_VERSION, MAGIC, _collect, _read,
                                _write, describe, load_checkpoint,
                                load_train_state, save_checkpoint,
                                save_train_state)
from growrbm.data import synth_cycle
from growrbm.dbn import Dbn, LayerTotals, train_adaptive_rbm
from growrbm.errors import (CheckpointDimensionError, CheckpointError,
                            CheckpointTruncatedError, CheckpointVersionError)
from growrbm.log import TrainLog
from growrbm.numerics import RngStream
from growrbm.rbm import CdConfig, Rbm, RbmGradient
from growrbm.rnn_dbn import RnnDbn
from growrbm.rnn_rbm import RnnRbm, train_adaptive_rnn_rbm
from test_adapt import assert_packed


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

    def test_failed_cleanup_keeps_the_write_error(self, tmp_path,
                                                  monkeypatch):
        # the object weights fail to convert halfway through the write,
        # and the temporary file cannot be removed either: the write's
        # own error comes out, and the previous file stays
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, rbm_model())
        before = p.read_bytes()

        def refuse(path, missing_ok=False):
            raise PermissionError(f"cannot remove {path}")

        monkeypatch.setattr(Path, "unlink", refuse)
        bad = Rbm(np.zeros(4), np.zeros(3),
                  np.array([[object()] * 3] * 4, dtype=object))
        with pytest.raises(TypeError):
            save_checkpoint(p, bad)
        assert p.read_bytes() == before


def layers_of(model):
    return getattr(model, "layers", [model])


class TestLoadedLayout:
    """A loaded layer is packed from the file's bytes with one copy."""

    MODELS = [rbm_model, rnn_model, dbn_model, rnn_dbn_model]
    IDS = ["rbm", "rnn-rbm", "dbn", "rnn-dbn"]

    @pytest.mark.parametrize("model", MODELS, ids=IDS)
    def test_every_loaded_layer_tiles_one_buffer(self, tmp_path, model):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, model())
        for layer in layers_of(load_checkpoint(p)[0]):
            assert_packed(layer)
            assert layer.buffer.flags.writeable

    @pytest.mark.parametrize("model", MODELS, ids=IDS)
    def test_manifest_out_of_field_order_loads_the_same_model(self, tmp_path,
                                                              model):
        kind, arrays, meta = _collect(model())
        p, q = tmp_path / "fields.ckpt", tmp_path / "reversed.ckpt"
        _write(p, kind, arrays, meta, 0)
        _write(q, kind, dict(reversed(arrays.items())), meta, 0)
        want, got = load_checkpoint(p)[0], load_checkpoint(q)[0]
        for a, b in zip(layers_of(want), layers_of(got), strict=True):
            assert_packed(b)
            assert a.buffer.tobytes() == b.buffer.tobytes()
            assert [x.shape for x in vars(a).values()] == \
                [x.shape for x in vars(b).values()]
        save_checkpoint(q, got)
        assert q.read_bytes() == p.read_bytes()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("names", [["w_uu"], ["w_uv", "w_uu"], ["u0"],
                                       ["b", "u0"]])
    def test_names_the_first_non_finite_array(self, tmp_path, names, bad):
        m = rnn_model()
        for name in names:
            getattr(m, name).flat[-1] = bad
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, m)
        with pytest.raises(CheckpointDimensionError,
                           match=f"non-finite values in {names[0]}$"):
            load_checkpoint(p)


class TestTrainStateRoundTrip:
    def make_state(self):
        stats = GradientStats.zeros(3, 2)
        rng = RngStream(9)
        for _ in range(5):
            stats.update(RbmGradient(np.zeros(3), rng.normal(size=2),
                                     rng.normal(size=(3, 2))), 0.8)
        return TrainState(epoch_done=4, model=rbm_model(), stats=stats,
                          stall=1)

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
        assert loaded.stall == state.stall
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
                           stall=0)
        for state in (state, self.grown_state(recurrent=True)):
            self.assert_round_trip(tmp_path, state, "rnn-rbm-train")

    def test_fresh_state_round_trips(self, tmp_path):
        self.assert_round_trip(tmp_path, TrainState.fresh(rbm_model()),
                               "rbm-train")

    @pytest.mark.parametrize("recurrent", [False, True],
                             ids=["static", "recurrent"])
    def test_state_with_stats_count_resumes_exactly(self, tmp_path,
                                                    recurrent):
        """Train-state files laid out as earlier builds wrote them load to
        the saved moments and resume to the ``log.csv`` and ``model.ckpt``
        bytes of an uninterrupted run: one whose meta also carries
        ``stats_count``, one that also carries ``stats_decay`` and
        ``controller.generation_done``, and one whose manifest lists the
        moments as ``mean_c, sq_c, mean_w, sq_w``."""
        rng = RngStream(55)
        seqs = [(rng.uniform(size=(6, 4)) < 0.5).astype(float)
                for _ in range(8)]
        train, data = ((train_adaptive_rnn_rbm, seqs) if recurrent
                       else (train_adaptive_rbm, np.vstack(seqs)))
        cd = CdConfig(k=1, learning_rate=0.2, batch_size=4)
        adapt = AdaptConfig(generation_phase_epochs=2, max_hidden=6,
                            gen_threshold=1e-12)
        state_path, kept = tmp_path / "state.ckpt", []

        def persist(state):
            if state.epoch_done == 2:
                save_train_state(state_path, state, seed=9)
                kept.append(state.stats.copy())

        def with_stats_count(path):
            TestCorruption.edit_header(
                path, lambda h: h["meta"].update(stats_count=12))

        def with_decay_and_flag(path):
            def edit(header):
                header["meta"].update(stats_decay=0.9)
                header["meta"]["controller"].update(generation_done=True)
            TestCorruption.edit_header(path, edit)

        def with_moments_in_earlier_order(path):
            header, arrays = _read(path)
            moments = {f"stats/{name}": arrays.pop(f"stats/{name}")
                       for name in ("mean_c", "sq_c", "mean_w", "sq_w")}
            _write(path, header["kind"], {**arrays, **moments},
                   header["meta"], header["seed"])

        full, _, full_log = train(data, 3, cd, 6, RngStream(9), adapt=adapt,
                                  epoch_callback=persist)
        save_checkpoint(tmp_path / "full.ckpt", full, seed=9)
        saved = state_path.read_bytes()
        for older in (with_stats_count, with_decay_and_flag,
                      with_moments_in_earlier_order):
            state_path.write_bytes(saved)
            older(state_path)
            assert state_path.read_bytes() != saved
            state, _ = load_train_state(state_path)
            assert state.stats.buffer.tobytes() == kept[0].buffer.tobytes()
            resumed, _, tail = train(data, 3, cd, 6, RngStream(9),
                                     adapt=adapt, resume=state)
            assert (TrainLog(full_log.rows[:3] + tail.rows).csv_text()
                    == full_log.csv_text())
            save_checkpoint(tmp_path / "resumed.ckpt", resumed, seed=9)
            assert ((tmp_path / "full.ckpt").read_bytes()
                    == (tmp_path / "resumed.ckpt").read_bytes())

    @pytest.mark.parametrize("recurrent", [False, True],
                             ids=["static", "recurrent"])
    def test_resume_inside_growth_keeps_stall(self, tmp_path, recurrent):
        """With no room to split, growth stalls out after five epochs; a
        run resumed through a file after three of them prunes from the
        same epoch as an uninterrupted run."""
        rng = RngStream(56)
        seqs = [(rng.uniform(size=(6, 4)) < 0.5).astype(float)
                for _ in range(8)]
        train, data = ((train_adaptive_rnn_rbm, seqs) if recurrent
                       else (train_adaptive_rbm, np.vstack(seqs)))
        cd = CdConfig(k=1, learning_rate=0.2, batch_size=4)
        adapt = AdaptConfig(generation_phase_epochs=9, max_hidden=3,
                            gen_threshold=1e-12, ann_threshold=0.9)
        state_path = tmp_path / "state.ckpt"

        def persist(state):
            if state.epoch_done == 2:
                save_train_state(state_path, state)

        _, _, full_log = train(data, 3, cd, 10, RngStream(9), adapt=adapt,
                               epoch_callback=persist)
        assert [i for i, row in enumerate(full_log.rows)
                if "ann(" in row.event][0] == 5
        state, _ = load_train_state(state_path)
        assert state.stall == 3
        _, _, tail = train(data, 3, cd, 10, RngStream(9), adapt=adapt,
                           resume=state)
        assert (TrainLog(full_log.rows[:3] + tail.rows).csv_text()
                == full_log.csv_text())

    def test_resume_after_the_first_prune_is_exact(self, tmp_path):
        """A run resumed through a file after the first epoch that prunes
        equals the uninterrupted run by ``==``, on every log row and every
        array: the pruned layer goes on in the layout the file gives it.
        The ragged recurrent reference config: 13 sequences cut to
        lengths 25, 9, 2, 1 and 17, so the last batch is short."""
        cut = (25, 9, 2, 1, 17)
        train = synth_cycle(4, 8, 25, 16, 0.05, RngStream(101)).train
        seqs = [train[n % len(train)][:cut[n % len(cut)]] for n in range(13)]
        cd = CdConfig(k=2, learning_rate=0.5, batch_size=8)
        kwargs = dict(adapt=AdaptConfig(
            generation_phase_epochs=16, max_hidden=10, min_hidden=2,
            gen_threshold=5e-9, ann_threshold=0.47), forget=ForgettingConfig(
                forgetting_epochs=4, selective_epochs=2, decay_strength=0.008,
                clarify_strength=0.008, selective_strength=0.008), u_dim=12)
        states = {}
        full, full_stats, full_log = train_adaptive_rnn_rbm(
            seqs, 4, cd, 40, RngStream(7).split(1),
            epoch_callback=lambda s: states.setdefault(s.epoch_done, s),
            **kwargs)
        first = next(i for i, row in enumerate(full_log.rows)
                     if "ann(" in row.event)
        assert first < 39  # epochs follow the prune
        save_train_state(tmp_path / "state.ckpt", states[first])
        state, _ = load_train_state(tmp_path / "state.ckpt")
        resumed, stats, tail = train_adaptive_rnn_rbm(
            seqs, 4, cd, 40, RngStream(7).split(1), resume=state, **kwargs)
        assert full_log.rows[first + 1:] == tail.rows
        for name, arr in full.arrays().items():
            assert (resumed.arrays()[name] == arr).all(), name
        for name, arr in vars(full_stats).items():
            assert (getattr(stats, name) == arr).all(), name

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

    @pytest.mark.parametrize("stack", [dbn_model, rnn_dbn_model],
                             ids=["dbn", "rnn-dbn"])
    def test_rejects_stack_state(self, tmp_path, stack):
        # moments of any shape: a stack state was saved without a check
        state = TrainState(0, stack(), GradientStats.zeros(7, 5), 0)
        with pytest.raises(TypeError, match="one layer"):
            save_train_state(tmp_path / "x.ckpt", state)
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("recurrent", [False, True],
                             ids=["dbn-train", "rnn-dbn-train"])
    def test_loader_rejects_stack_state(self, tmp_path, recurrent):
        """A 1-layer stack's train state, laid out as a save that accepted
        stacks wrote it: the layer's arrays under ``layer0/``."""
        model = rnn_model() if recurrent else rbm_model()
        p = tmp_path / "s.ckpt"
        save_train_state(p, TrainState.fresh(model))
        kind = ("rnn-dbn" if recurrent else "dbn") + "-train"

        def as_stack(header):
            header["kind"] = kind
            for entry in header["arrays"]:
                if not entry["name"].startswith("stats/"):
                    entry["name"] = "layer0/" + entry["name"]
            header["meta"].update(n_layers=1, totals=[[0.1, 0.2]],
                                  dims=[[model.n_visible, model.n_hidden]])

        TestCorruption.edit_header(p, as_stack)
        assert describe(p).startswith(f"kind: {kind}\n")  # a sound file
        with pytest.raises(CheckpointError, match="one layer"):
            load_train_state(p)


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
                               ([[1.0]], "malformed layer totals"),
                               ([[True, 1.0]], "malformed layer totals"))
    ] + [(save_one_layer_dbn, load,
          lambda h: h["meta"].update(n_layers=0, totals=[]),
          "stack of 0 layers") for load in (load_checkpoint, describe)
    ] + [(save_state, load_train_state,
          lambda h, key=key: h["meta"].pop(key), f"missing 'meta.{key}'")
         for key in ("epoch_done", "controller")
    ] + [(save_state, load_train_state,
          lambda h, meta=meta: h["meta"].update(meta), match)
         for meta, match in (
             ({"controller": {}}, "missing 'meta.controller.stall'"),
             ({"controller": {"generation_done": "yes", "stall": "x"}},
              "bad 'meta.controller.stall'"),
             ({"controller": {"stall": "x"}},
              "bad 'meta.controller.stall'"),
             ({"controller": {"stall": -1}}, "out of range"),
             ({"epoch_done": -2}, "out of range"))
    ] + [(lambda p, i=i, j=j: save_state(p, GradientStats.zeros(i, j)),
          load_train_state, lambda h: None, "stats/")
         for i, j in ((3, 3), (2, 2))],
        ids=["kind", "dbn-n_layers", "dbn-totals", "manifest-name",
             "surplus-totals", "describe-string-totals",
             "describe-scalar-totals", "describe-short-totals",
             "describe-bool-totals",
             "zero-layers", "describe-zero-layers",
             "state-epoch_done", "state-controller",
             "state-empty-controller", "state-string-controller",
             "state-string-stall",
             "state-negative-stall", "state-negative-epoch_done",
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

    @pytest.mark.parametrize("command", ["inspect", "eval"])
    def test_unknown_kind_exits_2_in_cli(self, tmp_path, capsys, command):
        from growrbm.cli import main
        p = self.saved(tmp_path)
        self.edit_header(p, lambda h: h.update(kind="transformer"))
        data = tmp_path / "d.jsonl"
        data.write_text('{"seq": [[0, 1, 0], [1, 0, 1]]}\n')
        args = ["--dataset", str(data)] if command == "eval" else []
        assert main([command, "--checkpoint", str(p)] + args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "unknown checkpoint kind 'transformer'" in err[0]

    def test_stack_missing_upper_layer_array_exits_2_in_eval(self, tmp_path,
                                                             capsys):
        from growrbm.checkpoint import _collect, _write
        from growrbm.cli import main
        kind, arrays, meta = _collect(rnn_dbn_model())
        del arrays["layer1/W"]
        p = tmp_path / "m.ckpt"
        _write(p, kind, arrays, meta, seed=0)
        data = tmp_path / "d.jsonl"
        data.write_text('{"seq": [[0, 1, 0], [1, 0, 1]]}\n')
        assert main(["eval", "--checkpoint", str(p),
                     "--dataset", str(data)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "missing array 'layer1/W'" in err[0]

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

    @pytest.mark.parametrize("shape,error,match", [
        # 2**32 * 2**32 entries wrap an int64 product to 0 bytes
        ([2 ** 32, 2 ** 32], CheckpointTruncatedError, "ends inside array"),
        ([True], CheckpointError, "bad array entry"),
    ], ids=["past-int64", "bool"])
    def test_bad_shape_exits_2_in_inspect(self, tmp_path, capsys, shape,
                                          error, match):
        from growrbm.cli import main
        p = self.saved(tmp_path)
        self.edit_header(p, lambda h: h["arrays"][0].update(shape=shape))
        with pytest.raises(error, match=match):
            load_checkpoint(p)
        assert main(["inspect", "--checkpoint", str(p)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and match in err[0]

    @staticmethod
    def add_arrays(path, names):
        """List ``names`` after the manifest's arrays, each a 2-vector of
        ones appended to the payload."""
        def edit(header):
            header["arrays"] += [{"name": n, "shape": [2]} for n in names]

        TestCorruption.edit_header(path, edit)
        with open(path, "ab") as fh:
            fh.write(np.ones(2 * len(names), dtype="<f8").tobytes())

    @pytest.mark.parametrize("save, load, names, match", [
        (lambda p: save_checkpoint(p, rbm_model()), load_checkpoint,
         ["b", "junk"], "array 'b' listed twice"),
        (lambda p: save_checkpoint(p, rbm_model()), load_checkpoint,
         ["junk"], "rbm checkpoint has no array 'junk'"),
        (lambda p: save_checkpoint(p, rbm_model()), describe,
         ["c"], "array 'c' listed twice"),
        (lambda p: save_checkpoint(p, rbm_model()), describe,
         ["layer0/b"], "has no array 'layer0/b'"),
        (lambda p: save_checkpoint(p, rbm_model()), load_checkpoint,
         ["stats/mean_c"], "has no array 'stats/mean_c'"),
        (lambda p: save_checkpoint(p, rnn_dbn_model()), load_checkpoint,
         ["layer2/W"], "rnn-dbn checkpoint has no array 'layer2/W'"),
        (lambda p: save_checkpoint(p, rnn_dbn_model()), describe,
         ["layer1/u0"], "array 'layer1/u0' listed twice"),
        (lambda p: save_checkpoint(p, rnn_dbn_model()), load_checkpoint,
         ["W"], "has no array 'W'"),
        (save_state, load_train_state, ["stats/junk"],
         "rbm-train checkpoint has no array 'stats/junk'"),
        (save_state, load_train_state, ["stats/sq_w"],
         "array 'stats/sq_w' listed twice"),
    ], ids=["rbm-twice-and-unknown", "rbm-unknown", "describe-twice",
            "describe-layer-name", "stats-in-model", "stack-past-top",
            "describe-stack-twice", "stack-flat-name", "state-unknown",
            "state-twice"])
    def test_manifest_holds_only_what_the_kind_reads(self, tmp_path, save,
                                                     load, names, match):
        """A file the codec never writes does not read: at one time an
        ``rbm`` with ``b`` listed twice loaded the second ``b``, and
        saving it back gave other bytes."""
        p = tmp_path / "m.ckpt"
        save(p)
        self.add_arrays(p, names)
        with pytest.raises(CheckpointError, match=match):
            load(p)

    @pytest.mark.parametrize("command", ["inspect", "eval", "sample"])
    def test_unread_array_exits_2_in_cli(self, tmp_path, capsys, command):
        from growrbm.cli import main
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, rnn_model())
        self.add_arrays(p, ["u0", "junk"])
        data = tmp_path / "d.jsonl"
        data.write_text('{"seq": [[0, 1, 0], [1, 0, 1]]}\n')
        out = tmp_path / "s.jsonl"
        args = {"inspect": [], "eval": ["--dataset", str(data)],
                "sample": ["--length", "3", "--out", str(out)]}[command]
        assert main([command, "--checkpoint", str(p)] + args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "array 'u0' listed twice" in err[0]
        assert not out.exists()

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
