"""End-to-end runs: output directory contract, reruns, CLI exit codes."""
import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from growrbm import harness
from growrbm.checkpoint import (load_checkpoint, load_train_state,
                                save_checkpoint, save_train_state)
from growrbm.cli import main
from growrbm.config import parse_config_text
from growrbm.data import load_jsonl, synth_cycle, write_jsonl
from growrbm.dbn import Dbn, train_adaptive_rbm
from growrbm.errors import ConfigError, DimensionError
from growrbm.harness import (RUN_FILES, evaluate_model, run_eval, run_sample,
                             run_training)
from growrbm.numerics import RngStream
from growrbm.rbm import CdConfig, Rbm
from growrbm.rnn_dbn import RnnDbn
from growrbm.rnn_rbm import RnnRbm, train_adaptive_rnn_rbm


@pytest.fixture
def data_file(tmp_path):
    ds = synth_cycle(3, 4, 6, 10, 0.0, RngStream(55))
    p = tmp_path / "train.jsonl"
    write_jsonl(p, ds.train)
    return p


def config_for(data_file, out, model="rnn-rbm", extra=""):
    return parse_config_text(
        f"model = {model}\n"
        f"train = {data_file}\n"
        f"out = {out}\n"
        "epochs = 2\n"
        "n_hidden = 3\n"
        "cd.batch_size = 4\n"
        "cd.learning_rate = 0.1\n"
        + extra)


class TestRunTraining:
    @pytest.mark.parametrize("model", ["rbm", "dbn", "rnn-rbm", "rnn-dbn"])
    def test_exactly_four_files(self, tmp_path, data_file, model):
        out = tmp_path / "run"
        extra = "layers.max_layers = 2\n" if model.endswith("dbn") else ""
        cfg = config_for(data_file, out, model=model, extra=extra)
        summary = run_training(cfg, out)
        assert sorted(p.name for p in out.iterdir()) == sorted(RUN_FILES)
        assert summary["model"] == model
        assert np.isfinite(summary["train_error"])
        assert (out / "config.cfg").read_text() == cfg.raw_text
        text = (out / "summary.txt").read_text()
        assert f"model: {model}" in text
        assert "wall_seconds:" in text

    @pytest.mark.parametrize("model,kind", [
        ("rbm", Rbm), ("dbn", Dbn), ("rnn-rbm", RnnRbm), ("rnn-dbn", RnnDbn)])
    def test_checkpoint_writes(self, tmp_path, data_file, monkeypatch, model,
                               kind):
        """A single-layer kind saves its one layer after every epoch, and
        the last of those saves is the final checkpoint; a stack saves the
        whole stack once, at the end."""
        saved, plain = [], harness.save_checkpoint

        def recording(path, obj, **kwargs):
            plain(path, obj, **kwargs)
            saved.append((obj, path.read_bytes()))

        monkeypatch.setattr(harness, "save_checkpoint", recording)
        out = tmp_path / "run"
        cfg = config_for(data_file, out, model=model,
                         extra="layers.max_layers = 2\nadaptive = false\n")
        run_training(cfg, out)
        assert all(type(obj) is kind for obj, _ in saved)
        if model.endswith("dbn"):
            assert len(saved) == 1
            assert saved[0][0].n_layers == 2
        else:
            assert len(saved) == cfg.epochs
        assert (out / "model.ckpt").read_bytes() == saved[-1][1]

    def test_unknown_kind_leaves_nothing(self, tmp_path, data_file):
        out = tmp_path / "run"
        cfg = dataclasses.replace(config_for(data_file, out), model="foo")
        with pytest.raises(ConfigError, match="unknown model kind 'foo'"):
            run_training(cfg, out)
        assert not out.exists()

    def test_rerun_is_byte_identical(self, tmp_path, data_file):
        cfg = config_for(data_file, tmp_path / "a")
        run_training(cfg, tmp_path / "a")
        run_training(cfg, tmp_path / "b")
        assert (tmp_path / "a/log.csv").read_bytes() == \
            (tmp_path / "b/log.csv").read_bytes()
        assert (tmp_path / "a/model.ckpt").read_bytes() == \
            (tmp_path / "b/model.ckpt").read_bytes()

    def test_failed_checkpoint_write_keeps_previous(self, tmp_path, data_file):
        out = tmp_path / "run"
        run_training(config_for(data_file, out), out)
        before = (out / "model.ckpt").read_bytes()
        # the header and the bias arrays are written before the object
        # weights fail to convert, so the write breaks off halfway
        bad = Rbm(np.zeros(4), np.zeros(3),
                  np.array([[object()] * 3] * 4, dtype=object))
        with pytest.raises(TypeError):
            save_checkpoint(out / "model.ckpt", bad)
        assert (out / "model.ckpt").read_bytes() == before
        model, _ = load_checkpoint(out / "model.ckpt")
        assert isinstance(model, RnnRbm)
        assert sorted(p.name for p in out.iterdir()) == sorted(RUN_FILES)

    def test_checkpoint_kind_follows_model(self, tmp_path, data_file):
        out = tmp_path / "run"
        cfg = config_for(data_file, out, model="rnn-dbn",
                         extra="layers.max_layers = 2\nadaptive = false\n")
        run_training(cfg, out)
        model, header = load_checkpoint(out / "model.ckpt")
        assert isinstance(model, RnnDbn)
        assert model.n_layers == 2
        assert header["kind"] == "rnn-dbn"

    def test_static_run_flattens_frames(self, tmp_path, data_file):
        out = tmp_path / "run"
        cfg = config_for(data_file, out, model="rbm")
        run_training(cfg, out)
        model, _ = load_checkpoint(out / "model.ckpt")
        assert isinstance(model, Rbm)
        assert model.n_visible == 4

    def test_test_metrics_reported_for_recurrent(self, tmp_path, data_file):
        ds = synth_cycle(3, 4, 6, 5, 0.0, RngStream(56))
        test_p = tmp_path / "test.jsonl"
        write_jsonl(test_p, ds.train)
        out = tmp_path / "run"
        cfg = config_for(data_file, out, extra=f"test = {test_p}\n")
        summary = run_training(cfg, out)
        assert "test_error" in summary
        assert "test_correct_ratio" in summary
        assert 0.0 <= summary["test_correct_ratio"] <= 1.0
        assert "test_error:" in (out / "summary.txt").read_text()


class TestEvaluateModel:
    def test_dimension_mismatch(self):
        model = RnnRbm.zeros(3, 2)
        with pytest.raises(DimensionError, match="dimension 5"):
            evaluate_model(model, [np.zeros((4, 5))])

    @pytest.mark.parametrize("seq", [np.zeros(3), [], np.zeros((2, 4, 3))],
                             ids=["1-d", "empty", "3-d"])
    def test_sequence_of_another_rank(self, seq):
        model = RnnRbm.zeros(3, 2)
        with pytest.raises(DimensionError,
                           match=r"^sequence must be \(frames, dim\)"):
            evaluate_model(model, [np.ones((4, 3)), seq])

    def test_all_sequences_too_short(self):
        model = RnnRbm.zeros(3, 2)
        with pytest.raises(DimensionError, match="two frames"):
            evaluate_model(model, [np.zeros((1, 3))])

    def test_zero_model_scores_ln2(self):
        model = RnnRbm.zeros(3, 2)
        err, ratio = evaluate_model(model, [np.ones((4, 3))])
        assert err == pytest.approx(np.log(2))
        # the 1/2 prediction thresholds to 0 against all-ones targets
        assert ratio == 0.0


class TestEvalAndSample:
    @pytest.fixture
    def trained(self, tmp_path, data_file):
        out = tmp_path / "run"
        run_training(config_for(data_file, out), out)
        return out / "model.ckpt"

    def test_eval_matches_library_call(self, trained, data_file):
        err, ratio = run_eval(trained, data_file)
        model, _ = load_checkpoint(trained)
        err2, ratio2 = evaluate_model(model, load_jsonl(data_file).train)
        assert (err, ratio) == (err2, ratio2)

    def test_eval_rejects_static_checkpoint(self, tmp_path, data_file):
        out = tmp_path / "static"
        run_training(config_for(data_file, out, model="rbm"), out)
        with pytest.raises(ConfigError, match="recurrent"):
            run_eval(out / "model.ckpt", data_file)

    @pytest.mark.parametrize("kind, model", [
        ("rbm", Rbm.zeros(4, 3)), ("dbn", Dbn(layers=[Rbm.zeros(4, 3)]))])
    @pytest.mark.parametrize("command", ["eval", "sample"])
    def test_static_checkpoint_error_names_kind(self, tmp_path, data_file,
                                                kind, model, command):
        ckpt = tmp_path / "static.ckpt"
        save_checkpoint(ckpt, model)
        with pytest.raises(ConfigError, match=f"kind '{kind}'"):
            if command == "eval":
                run_eval(ckpt, data_file)
            else:
                run_sample(ckpt, 3, 0, tmp_path / "gen.jsonl")

    def test_sample_round_trips(self, trained, tmp_path):
        out_path = tmp_path / "gen.jsonl"
        frames = run_sample(trained, 5, 3, out_path)
        assert frames.shape == (5, 4)
        loaded = load_jsonl(out_path)
        npt.assert_array_equal(loaded.train[0], frames)

    def test_sample_zero_length_writes_empty_file(self, trained, tmp_path):
        out_path = tmp_path / "gen.jsonl"
        frames = run_sample(trained, 0, 3, out_path)
        assert frames.shape == (0, 4)
        assert out_path.read_text() == ""

    def test_sample_seed_changes_output(self, trained, tmp_path):
        a = run_sample(trained, 12, 1, tmp_path / "a.jsonl")
        b = run_sample(trained, 12, 2, tmp_path / "b.jsonl")
        c = run_sample(trained, 12, 1, tmp_path / "c.jsonl")
        npt.assert_array_equal(a, c)
        assert not np.array_equal(a, b)


class TestFileResume:
    def test_resume_through_checkpoint_file(self, tmp_path):
        rng = RngStream(77)
        data = (rng.uniform(size=(40, 4)) < 0.6).astype(float)
        cd = CdConfig(k=1, learning_rate=0.1, batch_size=10)
        state_path = tmp_path / "state.ckpt"

        def persist(state):
            if state.epoch_done == 2:
                save_train_state(state_path, state, seed=5)

        full, _, _ = train_adaptive_rbm(data, 3, cd, 6, RngStream(5),
                                        epoch_callback=persist)
        state, header = load_train_state(state_path)
        assert header["seed"] == 5
        resumed, _, _ = train_adaptive_rbm(data, 3, cd, 6, RngStream(5),
                                           resume=state)
        npt.assert_array_equal(full.W, resumed.W)
        npt.assert_array_equal(full.b, resumed.b)
        npt.assert_array_equal(full.c, resumed.c)

    def test_recurrent_resume_through_file(self, tmp_path):
        seqs = [np.tile(np.eye(3), (2, 1)) for _ in range(6)]
        cd = CdConfig(k=1, learning_rate=0.1, batch_size=3)
        state_path = tmp_path / "state.ckpt"

        def persist(state):
            if state.epoch_done == 1:
                save_train_state(state_path, state)

        full, _, _ = train_adaptive_rnn_rbm(seqs, 3, cd, 4, RngStream(6),
                                            epoch_callback=persist)
        state, _ = load_train_state(state_path)
        resumed, _, _ = train_adaptive_rnn_rbm(seqs, 3, cd, 4, RngStream(6),
                                               resume=state)
        for name, arr in full.arrays().items():
            npt.assert_array_equal(arr, resumed.arrays()[name], err_msg=name)


class TestCli:
    @staticmethod
    def stderr_lines(argv, capsys):
        """Exit code and stderr lines of ``main(argv)``.  A warning counts
        as a stderr line, since outside the test runner it prints there."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        err = capsys.readouterr().err.splitlines()
        return code, err + [f"warning: {w.message}" for w in caught]

    def write_config(self, tmp_path, data_file, out, extra=""):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"train = {data_file}\nout = {out}\nepochs = 2\nn_hidden = 3\n"
            "cd.batch_size = 4\ncd.learning_rate = 0.1\n" + extra)
        return cfg

    def test_train_eval_sample_inspect(self, tmp_path, data_file, capsys):
        out = tmp_path / "run"
        cfg = self.write_config(tmp_path, data_file, out)
        assert main(["train", "--config", str(cfg)]) == 0
        stdout = capsys.readouterr().out
        assert "run complete" in stdout
        assert "train_error = " in stdout
        assert sorted(p.name for p in out.iterdir()) == sorted(RUN_FILES)

        ckpt = str(out / "model.ckpt")
        assert main(["eval", "--checkpoint", ckpt,
                     "--dataset", str(data_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("error = ")
        assert lines[1].startswith("correct_ratio = ")
        float(lines[0].split("=")[1])

        gen = tmp_path / "gen.jsonl"
        assert main(["sample", "--checkpoint", ckpt, "--length", "4",
                     "--out", str(gen)]) == 0
        assert "wrote 4 frames" in capsys.readouterr().out
        assert len(load_jsonl(gen).train[0]) == 4

        assert main(["inspect", "--checkpoint", ckpt]) == 0
        assert "kind: rnn-rbm" in capsys.readouterr().out

    def test_seed_and_out_overrides(self, tmp_path, data_file, capsys):
        cfg = self.write_config(tmp_path, data_file, tmp_path / "ignored")
        other = tmp_path / "elsewhere"
        assert main(["train", "--config", str(cfg), "--out", str(other),
                     "--seed", "42"]) == 0
        capsys.readouterr()
        assert other.is_dir()
        assert not (tmp_path / "ignored").exists()
        _, header = load_checkpoint(other / "model.ckpt")
        assert header["seed"] == 42

    def test_config_error_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model = transformer\ntrain = x.jsonl\n")
        assert main(["train", "--config", str(bad)]) == 1
        assert "unknown model kind" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "cd.learning_rate = nan", "adapt.gen_threshold = nan",
        "layers.wd_threshold = nan", "forget.selective_cutoff = inf"])
    def test_non_finite_config_value_exits_1(self, tmp_path, data_file,
                                             capsys, line):
        out = tmp_path / "run"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = rnn-dbn\ntrain = {data_file}\nout = {out}\n"
                       f"epochs = 2\nn_hidden = 3\n{line}\n")
        code, err = self.stderr_lines(["train", "--config", str(cfg)], capsys)
        assert code == 1
        assert len(err) == 1, err
        assert "run.cfg:6: bad value" in err[0]
        assert "not a finite number" in err[0]
        assert not out.exists()

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, tmp_path / "absent.jsonl",
                                tmp_path / "run")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "cannot read" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_corrupt_checkpoint_exits_2(self, tmp_path, data_file, capsys):
        fake = tmp_path / "fake.ckpt"
        fake.write_bytes(b"not a checkpoint at all")
        assert main(["eval", "--checkpoint", str(fake),
                     "--dataset", str(data_file)]) == 2
        capsys.readouterr()

    def test_wrong_kind_for_eval_exits_1(self, tmp_path, data_file, capsys):
        out = tmp_path / "static"
        cfg = self.write_config(tmp_path, data_file, out,
                                extra="model = rbm\n")
        assert main(["train", "--config", str(cfg)]) == 0
        assert main(["eval", "--checkpoint", str(out / "model.ckpt"),
                     "--dataset", str(data_file)]) == 1
        capsys.readouterr()

    def test_numeric_failure_exits_3(self, tmp_path, data_file, capsys):
        # a step size this large drives the parameters out of range
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = rnn-rbm\ntrain = {data_file}\n"
                       f"out = {tmp_path / 'run'}\nepochs = 2\n"
                       "n_hidden = 3\ncd.batch_size = 4\n"
                       "cd.learning_rate = 1e300\n")
        code, err = self.stderr_lines(["train", "--config", str(cfg)], capsys)
        assert code == 3
        assert len(err) == 1, err
        assert err[0].startswith("numeric failure: non-finite values in")

    def test_numeric_failure_in_eval_exits_3(self, tmp_path, data_file,
                                             capsys):
        # finite weights whose state pre-activations overflow: the
        # checkpoint loads, and the state recursion must refuse it
        model = RnnRbm.zeros(4, 3)
        model.w_vu[:] = 1e308
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(ckpt, model)
        code, err = self.stderr_lines(["eval", "--checkpoint", str(ckpt),
                                       "--dataset", str(data_file)], capsys)
        assert code == 3
        assert err == ["numeric failure: sigmoid: non-finite input"]

    @pytest.mark.parametrize("command", ["eval", "sample"])
    def test_numeric_failure_in_mean_field_exits_3(self, tmp_path, data_file,
                                                   capsys, command):
        # finite weights whose mean-field pre-activations overflow: the
        # state recursion does not read W, the top layer's passes do
        model = RnnRbm.random(4, 3, RngStream(56), u_dim=2)
        model.W[:] = 1e308
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(ckpt, model)
        args = (["--dataset", str(data_file)] if command == "eval" else
                ["--length", "5", "--out", str(tmp_path / "gen.jsonl")])
        code, err = self.stderr_lines(
            [command, "--checkpoint", str(ckpt)] + args, capsys)
        assert code == 3
        assert err == ["numeric failure: sigmoid: non-finite input"]

    @pytest.mark.parametrize("where", ["down pass", "last state update"])
    def test_numeric_failure_in_sampling_exits_3(self, tmp_path, capsys,
                                                 where):
        # finite weights that overflow only where the sampler checks late:
        # a lower layer's pass down from the top layer's marginals (1/2
        # each, from a zero top layer), or the state update after the one
        # frame drawn, which only the check after the last frame sees
        if where == "down pass":
            lower = RnnRbm.zeros(4, 4, u_dim=2)
            lower.W[:] = 1e308
            stack = RnnDbn(layers=[lower, RnnRbm.zeros(4, 3, u_dim=2)])
        else:
            stack = RnnRbm.zeros(4, 3, u_dim=4)
            stack.w_uu[:] = 1e308
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(ckpt, stack)
        out = tmp_path / "gen.jsonl"
        code, err = self.stderr_lines(
            ["sample", "--checkpoint", str(ckpt), "--length", "1", "--out",
             str(out)], capsys)
        assert code == 3
        assert err == ["numeric failure: sigmoid: non-finite input"]
        assert not out.exists()

    def test_numeric_failure_in_grouped_unroll_exits_3(self, tmp_path,
                                                        data_file, capsys,
                                                        monkeypatch):
        # all training sequences share one length, so the first batch is
        # unrolled as one group; finite initial weights overflow there
        fresh = RnnRbm.random

        def huge(*args, **kwargs):
            model = fresh(*args, **kwargs)
            model.w_vu[:] = 1e308
            return model

        monkeypatch.setattr(RnnRbm, "random", staticmethod(huge))
        assert len({len(s) for s in load_jsonl(data_file).train}) == 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = rnn-rbm\ntrain = {data_file}\n"
                       f"out = {tmp_path / 'run'}\nepochs = 1\n"
                       "n_hidden = 3\ncd.batch_size = 4\n")
        code, err = self.stderr_lines(["train", "--config", str(cfg)], capsys)
        assert code == 3
        assert err == ["numeric failure: sigmoid: non-finite input"]

    @pytest.mark.parametrize("model", ["rbm", "dbn"])
    def test_numeric_failure_in_static_cd_exits_3(self, tmp_path, data_file,
                                                  capsys, monkeypatch, model):
        # finite initial weights whose pre-activations overflow in the
        # first batch's CD chain: the guarded sigmoid must refuse them
        fresh = Rbm.random

        def huge(*args, **kwargs):
            layer = fresh(*args, **kwargs)
            layer.W[:] = 1e308
            return layer

        monkeypatch.setattr(Rbm, "random", staticmethod(huge))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = {model}\ntrain = {data_file}\n"
                       f"out = {tmp_path / 'run'}\nepochs = 1\n"
                       "n_hidden = 3\ncd.batch_size = 4\n")
        code, err = self.stderr_lines(["train", "--config", str(cfg)], capsys)
        assert code == 3
        assert err == ["numeric failure: sigmoid: non-finite input"]

    @pytest.mark.parametrize("model", ["rnn-rbm", "rnn-dbn"])
    @pytest.mark.parametrize("held_out,message", [
        ([np.ones((1, 4)), np.zeros((1, 4))], "two frames"),
        ([np.ones((3, 5))], "dimension 5"),
    ], ids=["one-frame", "frame-size"])
    def test_unscorable_test_set_exits_2_before_training(
            self, tmp_path, data_file, capsys, monkeypatch, model, held_out,
            message):
        trained = []
        for name in ("train_adaptive_dbn", "train_adaptive_rnn_dbn"):
            monkeypatch.setattr(harness, name,
                                lambda *a, **k: trained.append(a))
        test_p = tmp_path / "test.jsonl"
        write_jsonl(test_p, held_out)
        out = tmp_path / "run"
        cfg = self.write_config(tmp_path, data_file, out,
                                extra=f"model = {model}\ntest = {test_p}\n")
        code, err = self.stderr_lines(["train", "--config", str(cfg)], capsys)
        assert code == 2
        assert len(err) == 1 and message in err[0], err
        assert trained == []
        assert not out.exists()

    @staticmethod
    def saved_model(tmp_path):
        """A recurrent checkpoint over the 4-bit frames of ``data_file``."""
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, RnnRbm.random(4, 3, RngStream(0), u_dim=2))
        return ckpt

    @pytest.mark.parametrize("target", ["missing", "directory"])
    @pytest.mark.parametrize("command", ["inspect", "eval", "sample"])
    def test_unreadable_checkpoint_exits_2(self, tmp_path, data_file, capsys,
                                           command, target):
        ckpt = tmp_path / "m.ckpt"
        if target == "directory":
            ckpt.mkdir()
        gen = tmp_path / "gen.jsonl"
        args = {"inspect": [], "eval": ["--dataset", str(data_file)],
                "sample": ["--length", "3", "--out", str(gen)]}[command]
        code, err = self.stderr_lines(
            [command, "--checkpoint", str(ckpt), *args], capsys)
        assert code == 2
        assert len(err) == 1, err
        assert err[0].startswith(f"error: cannot read {ckpt}: ")
        assert not gen.exists()

    @pytest.mark.parametrize("command, out", [
        ("train", "taken"), ("train", "taken/run"),
        ("sample", "folder"), ("sample", "absent/gen.jsonl"),
    ], ids=["train-out-is-file", "train-out-under-file",
            "sample-out-is-dir", "sample-out-under-missing-dir"])
    def test_unwritable_output_exits_1(self, tmp_path, data_file, capsys,
                                       command, out):
        (tmp_path / "taken").write_text("kept\n")
        (tmp_path / "folder").mkdir()
        cfg = self.write_config(tmp_path, data_file, tmp_path / "unused")
        ckpt = self.saved_model(tmp_path)
        out = tmp_path / out
        before = sorted(tmp_path.rglob("*"))
        argv = (["train", "--config", str(cfg)] if command == "train" else
                ["sample", "--checkpoint", str(ckpt), "--length", "3"])
        code, err = self.stderr_lines(argv + ["--out", str(out)], capsys)
        assert code == 1
        assert len(err) == 1, err
        assert err[0].startswith(f"error: cannot write {out}: ")
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "taken").read_text() == "kept\n"

    @pytest.mark.parametrize("name", RUN_FILES)
    @pytest.mark.parametrize("model", ["rbm", "rnn-rbm"])
    def test_run_file_taken_by_directory_exits_1(self, tmp_path, data_file,
                                                 capsys, model, name):
        out = tmp_path / "run"
        (out / name).mkdir(parents=True)
        cfg = self.write_config(tmp_path, data_file, out,
                                extra=f"model = {model}\n")
        before = sorted(tmp_path.rglob("*"))
        code, err = self.stderr_lines(["train", "--config", str(cfg)],
                                      capsys)
        assert code == 1
        assert len(err) == 1, err
        assert err[0].startswith(f"error: cannot write {out / name}: ")
        assert sorted(tmp_path.rglob("*")) == before

    def test_checkpoint_temp_taken_by_directory_exits_1(
            self, tmp_path, data_file, capsys):
        # the first epoch's save cannot open its temporary file, and
        # cannot remove it either
        out = tmp_path / "run"
        (out / "model.ckpt.tmp").mkdir(parents=True)
        cfg = self.write_config(tmp_path, data_file, out)
        code, err = self.stderr_lines(["train", "--config", str(cfg)],
                                      capsys)
        assert code == 1
        assert len(err) == 1, err
        assert err[0].startswith(f"error: cannot write {out / 'model.ckpt'}: ")
        assert not (out / "model.ckpt").exists()

    @pytest.mark.parametrize("name", ["model.ckpt", "log.csv", "summary.txt"])
    def test_run_file_taken_mid_run_exits_1(self, tmp_path, data_file,
                                            capsys, monkeypatch, name):
        """A directory that takes a run file's place after the first
        epoch's save fails that file's write with one error line, and
        the last whole checkpoint stays."""
        out, saved, plain = tmp_path / "run", [], harness.save_checkpoint
        # a checkpoint save writes its temporary file first
        taken = out / (name + ".tmp" if name == "model.ckpt" else name)

        def taking(path, obj, **kwargs):
            plain(path, obj, **kwargs)
            saved.append(path.read_bytes())
            taken.mkdir(exist_ok=True)

        monkeypatch.setattr(harness, "save_checkpoint", taking)
        cfg = self.write_config(tmp_path, data_file, out)
        code, err = self.stderr_lines(["train", "--config", str(cfg)],
                                      capsys)
        assert code == 1
        assert len(err) == 1, err
        assert err[0].startswith(f"error: cannot write {out / name}: ")
        assert len(saved) == (1 if name == "model.ckpt" else 2)
        assert (out / "model.ckpt").read_bytes() == saved[-1]

    @pytest.mark.parametrize("model", ["rbm", "rnn-rbm", "dbn", "rnn-dbn"])
    def test_numeric_failure_mid_run_exits_3(self, tmp_path, data_file,
                                             capsys, monkeypatch, model):
        """A layer whose range check fails in the second epoch exits 3 and
        leaves the run directory as it was: ``config.cfg`` and, for a
        single layer, the first epoch's ``model.ckpt``; no log and no
        summary."""
        out, saved, plain = tmp_path / "run", [], harness.save_checkpoint
        checks, validate = [], Rbm.validate

        def saving(path, obj, **kwargs):
            plain(path, obj, **kwargs)
            saved.append(path.read_bytes())

        def failing(layer):  # the epoch's check, once per epoch
            checks.append(layer)
            if len(checks) == 2:
                raise FloatingPointError("non-finite values in W")
            validate(layer)

        monkeypatch.setattr(harness, "save_checkpoint", saving)
        monkeypatch.setattr(Rbm, "validate", failing)
        cfg = self.write_config(tmp_path, data_file, out,
                                extra=f"model = {model}\n")
        code, err = self.stderr_lines(["train", "--config", str(cfg)],
                                      capsys)
        assert code == 3
        assert err == ["numeric failure: non-finite values in W"]
        single = model in ("rbm", "rnn-rbm")
        assert sorted(p.name for p in out.iterdir()) == (
            ["config.cfg", "model.ckpt"] if single else ["config.cfg"])
        assert len(saved) == single
        if single:
            assert (out / "model.ckpt").read_bytes() == saved[0]

    @pytest.mark.parametrize("out", ["folder", "absent/gen.jsonl"])
    def test_unwritable_sample_out_found_before_sampling(
            self, tmp_path, capsys, monkeypatch, out):
        def never(*args):
            raise AssertionError("sampled before checking --out")

        monkeypatch.setattr(harness, "sample_sequence_deep", never)
        (tmp_path / "folder").mkdir()
        code, err = self.stderr_lines(
            ["sample", "--checkpoint", str(self.saved_model(tmp_path)),
             "--length", "20000", "--out", str(tmp_path / out)], capsys)
        assert code == 1
        assert len(err) == 1, err
        assert err[0].startswith(f"error: cannot write {tmp_path / out}: ")

    def test_negative_sample_length_exits_1(self, tmp_path, capsys):
        gen = tmp_path / "gen.jsonl"
        code, err = self.stderr_lines(
            ["sample", "--checkpoint", str(self.saved_model(tmp_path)),
             "--length", "-1", "--out", str(gen)], capsys)
        assert code == 1
        assert err == ["error: length must be >= 0"]
        assert not gen.exists()

    # numpy refuses both shapes before it allocates anything
    @pytest.mark.parametrize("length", [2 ** 62, 10 ** 23],
                             ids=["too-big", "past-max-dimension"])
    def test_unholdable_sample_length_exits_1(self, tmp_path, capsys,
                                              length):
        gen = tmp_path / "gen.jsonl"
        code, err = self.stderr_lines(
            ["sample", "--checkpoint", str(self.saved_model(tmp_path)),
             "--length", str(length), "--out", str(gen)], capsys)
        assert code == 1
        assert err == [f"error: cannot sample {length} frames: they do not "
                       "fit in memory"]
        assert not gen.exists()

    def test_sample_out_of_memory_exits_1(self, tmp_path, capsys,
                                          monkeypatch):
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 64.0 GiB")

        monkeypatch.setattr(harness, "sample_sequence_deep", out_of_memory)
        gen = tmp_path / "gen.jsonl"
        code, err = self.stderr_lines(
            ["sample", "--checkpoint", str(self.saved_model(tmp_path)),
             "--length", "1000000000", "--out", str(gen)], capsys)
        assert code == 1
        assert err == ["error: cannot sample 1000000000 frames: they do not "
                       "fit in memory"]
        assert not gen.exists()

    def test_dataset_override_trains_on_named_file(self, tmp_path, data_file,
                                                   capsys):
        cfg = self.write_config(tmp_path, data_file, tmp_path / "named")
        assert main(["train", "--config", str(cfg)]) == 0
        # the config's own train file does not exist, so reading it fails
        cfg = self.write_config(tmp_path, tmp_path / "absent.jsonl",
                                tmp_path / "override")
        assert main(["train", "--config", str(cfg),
                     "--dataset", str(data_file)]) == 0
        capsys.readouterr()
        for name in ("log.csv", "model.ckpt"):
            assert ((tmp_path / "override" / name).read_bytes()
                    == (tmp_path / "named" / name).read_bytes())

    def test_run_config_reproduces_overridden_run(self, tmp_path, data_file,
                                                  capsys):
        # the config names another seed and a file that does not exist;
        # the run's config.cfg records both overrides
        cfg = self.write_config(tmp_path, tmp_path / "absent.jsonl",
                                tmp_path / "first", extra="seed = 7\n")
        assert main(["train", "--config", str(cfg), "--seed", "5",
                     "--dataset", str(data_file)]) == 0
        first = tmp_path / "first"
        assert main(["train", "--config", str(first / "config.cfg"),
                     "--out", str(tmp_path / "again")]) == 0
        capsys.readouterr()
        for name in ("log.csv", "model.ckpt"):
            assert ((tmp_path / "again" / name).read_bytes()
                    == (first / name).read_bytes())
        _, header = load_checkpoint(first / "model.ckpt")
        assert header["seed"] == 5

    def test_usage_error_exits_1(self, capsys):
        assert main(["train"]) == 1  # --config is required
        capsys.readouterr()
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_commands_name_utf8_for_every_text_file(self, tmp_path,
                                                    data_file):
        """Each command runs with a locale-encoding read or write made an
        error, so every text file it touches names UTF-8."""
        out, gen = tmp_path / "run", tmp_path / "gen.jsonl"
        cfg = self.write_config(tmp_path, data_file, out)
        ckpt = str(out / "model.ckpt")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(harness.__file__).parents[1]))
        for argv in (["train", "--config", str(cfg)],
                     ["eval", "--checkpoint", ckpt, "--dataset",
                      str(data_file)],
                     ["sample", "--checkpoint", ckpt, "--length", "4",
                      "--out", str(gen)],
                     ["inspect", "--checkpoint", ckpt]):
            run = subprocess.run(
                [sys.executable, "-X", "warn_default_encoding",
                 "-W", "error::EncodingWarning", "-m", "growrbm.cli", *argv],
                env=env, capture_output=True, text=True)
            assert run.returncode == 0, (argv[0], run.stderr)
