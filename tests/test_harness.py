"""End-to-end runs: output directory contract, reruns, CLI exit codes."""
import numpy as np
import numpy.testing as npt
import pytest

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

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, tmp_path / "absent.jsonl",
                                tmp_path / "run")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "cannot read" in capsys.readouterr().err

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
        assert main(["train", "--config", str(cfg)]) == 3
        assert "numeric failure: non-finite values in" in \
            capsys.readouterr().err

    def test_numeric_failure_in_eval_exits_3(self, tmp_path, data_file,
                                             capsys):
        # finite weights whose state pre-activations overflow: the
        # checkpoint loads, and the state recursion must refuse it
        model = RnnRbm.zeros(4, 3)
        model.w_vu[:] = 1e308
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(ckpt, model)
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--dataset", str(data_file)]) == 3
        assert "numeric failure: sigmoid: non-finite input" in \
            capsys.readouterr().err

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
        assert main(["train", "--config", str(cfg)]) == 3
        assert "numeric failure: sigmoid: non-finite input" in \
            capsys.readouterr().err

    def test_usage_error_exits_1(self, capsys):
        assert main(["train"]) == 1  # --config is required
        capsys.readouterr()
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
