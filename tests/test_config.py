"""Strict config parsing: defaults, derivations, and pointed errors."""
import re
from dataclasses import fields
from pathlib import Path

import pytest

from growrbm import adapt, config
from growrbm.config import parse_config, parse_config_text
from growrbm.errors import ConfigError

MINIMAL = "train = data.jsonl\n"
FLOAT_FIELDS = [f"{prefix}.{f.name}" for prefix, cls in config._SECTIONS.items()
                for f in fields(cls) if f.type == "float"]


class TestParsing:
    def test_minimal_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.model == "rnn-rbm"
        assert cfg.adaptive is True
        assert cfg.epochs == 10
        assert cfg.seed == 0
        assert cfg.train == "data.jsonl"
        assert cfg.test is None
        assert cfg.out == "run"
        assert cfg.n_hidden == 10
        assert cfg.u_dim is None
        assert cfg.cd.k == 1
        assert cfg.cd.learning_rate == 0.01
        assert cfg.cd.batch_size == 100
        assert cfg.adapt.gen_threshold == 0.001
        assert cfg.adapt.ann_threshold == 0.1
        assert cfg.adapt.generation_phase_epochs == 5
        assert cfg.adapt.min_hidden == 1
        assert cfg.adapt.max_hidden == 40
        assert adapt.SPLIT_NOISE_SD == 0.01  # a constant, not a key
        assert cfg.forget.decay_strength == 0.001
        assert cfg.forget.clarify_strength == 0.001
        assert cfg.forget.selective_strength == 0.001
        assert cfg.forget.selective_cutoff == 0.1
        assert cfg.forget.forgetting_epochs == 0
        assert cfg.forget.selective_epochs == 0
        assert cfg.layers.wd_threshold == 0.01
        assert cfg.layers.energy_threshold == 0.01
        assert cfg.layers.max_layers == 4
        for value in (cfg.epochs, cfg.n_hidden, cfg.cd.k, cfg.cd.batch_size,
                      cfg.adapt.min_hidden, cfg.adapt.max_hidden,
                      cfg.adapt.generation_phase_epochs,
                      cfg.forget.forgetting_epochs, cfg.layers.max_layers):
            assert type(value) is int

    def test_derived_generation_phase(self):
        cfg = parse_config_text(MINIMAL + "epochs = 9\n")
        assert cfg.adapt.generation_phase_epochs == 4
        cfg = parse_config_text(MINIMAL + "epochs = 1\n")
        assert cfg.adapt.generation_phase_epochs == 1
        cfg = parse_config_text(
            MINIMAL + "epochs = 9\nadapt.generation_phase_epochs = 7\n")
        assert cfg.adapt.generation_phase_epochs == 7

    def test_derived_max_hidden(self):
        assert parse_config_text(MINIMAL).adapt.max_hidden == 40
        cfg = parse_config_text(MINIMAL + "n_hidden = 1\n")
        assert cfg.adapt.max_hidden == 9
        cfg = parse_config_text(MINIMAL + "adapt.max_hidden = 12\n")
        assert cfg.adapt.max_hidden == 12

    def test_full_file(self):
        text = """
        # sequence run
        model = rnn-dbn
        adaptive = false
        epochs = 20
        seed = 3
        train = train.jsonl
        test = test.jsonl          # held out
        out = results
        n_hidden = 8
        u_dim = 16
        cd.k = 3
        cd.learning_rate = 0.05
        cd.batch_size = 16
        adapt.gen_threshold = 0.002
        adapt.ann_threshold = 0.05
        adapt.min_hidden = 2
        forget.forgetting_epochs = 4
        forget.selective_epochs = 2
        layers.max_layers = 3
        layers.wd_threshold = 0.5
        """
        cfg = parse_config_text(text)
        assert cfg.model == "rnn-dbn"
        assert cfg.adaptive is False
        assert cfg.test == "test.jsonl"
        assert cfg.u_dim == 16
        assert cfg.cd.k == 3
        assert cfg.adapt.gen_threshold == 0.002
        assert cfg.forget.forgetting_epochs == 4
        assert cfg.layers.max_layers == 3
        assert cfg.layers.wd_threshold == 0.5
        assert cfg.raw_text == text

    def test_boolean_spellings(self):
        for raw, expected in [("true", True), ("Yes", True), ("1", True),
                              ("false", False), ("NO", False), ("0", False)]:
            cfg = parse_config_text(MINIMAL + f"adaptive = {raw}\n")
            assert cfg.adaptive is expected


class TestReadme:
    """The README's example config is the reference list of keys."""

    @staticmethod
    def readme_block():
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        assert len(blocks) == 1
        return blocks[0]

    def test_parser_accepts_block(self):
        cfg = parse_config_text(self.readme_block(), where="README.md")
        assert cfg.model == "rnn-rbm"
        assert cfg.layers.max_layers == 4

    def test_block_names_every_accepted_key(self):
        keys = {line.split("#", 1)[0].partition("=")[0].strip()
                for line in self.readme_block().splitlines()}
        keys.discard("")
        assert keys == set(config._SCHEMA)
        assert len(keys) == 26


class TestErrors:
    def test_unknown_key_names_line(self):
        # the gains and the moment decay are not keys: naming one is a typo
        for key in ("learning", "adapt.c_gain", "adapt.w_gain",
                    "adapt.stats_decay", "layers.wd_gain",
                    "layers.energy_gain"):
            with pytest.raises(ConfigError,
                               match=rf":2: unknown key '{re.escape(key)}'"):
                parse_config_text(MINIMAL + f"{key} = 0.1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key 'epochs'"):
            parse_config_text(MINIMAL + "epochs = 2\nepochs = 3\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match=r":2: bad value for 'epochs'"):
            parse_config_text(MINIMAL + "epochs = soon\n")

    def test_bad_boolean(self):
        with pytest.raises(ConfigError, match="bad value for 'adaptive'"):
            parse_config_text(MINIMAL + "adaptive = maybe\n")

    def test_line_without_equals(self):
        with pytest.raises(ConfigError, match=r":1: expected 'key = value'"):
            parse_config_text("just some words\n" + MINIMAL)

    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="unknown model kind 'gru'"):
            parse_config_text(MINIMAL + "model = gru\n")

    def test_missing_train(self):
        with pytest.raises(ConfigError, match="'train' path is required"):
            parse_config_text("epochs = 2\n")

    def test_nonpositive_epochs(self):
        with pytest.raises(ConfigError, match="epochs must be >= 1"):
            parse_config_text(MINIMAL + "epochs = 0\n")

    @pytest.mark.parametrize("line", ["n_hidden = 0", "n_hidden = -2",
                                      "u_dim = 0"])
    def test_nonpositive_layer_sizes(self, line):
        key = line.split()[0]
        with pytest.raises(ConfigError, match=f"^run.cfg: {key} must be"):
            parse_config_text(MINIMAL + line + "\n", where="run.cfg")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN",
                                       "Infinity"])
    @pytest.mark.parametrize("key", FLOAT_FIELDS)
    def test_non_finite_float_names_line(self, key, value):
        with pytest.raises(ConfigError, match=(
                rf"^run\.cfg:2: bad value for '{re.escape(key)}': "
                rf"not a finite number: '{value}'$")):
            parse_config_text(MINIMAL + f"{key} = {value}\n", where="run.cfg")

    def test_subconfig_validation_wrapped(self):
        with pytest.raises(ConfigError, match="gen_threshold"):
            parse_config_text(MINIMAL + "adapt.gen_threshold = -1\n")
        with pytest.raises(ConfigError, match="learning rate"):
            parse_config_text(MINIMAL + "cd.learning_rate = 0\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "absent.cfg")

    def test_file_errors_name_the_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("nonsense = 1\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:1"):
            parse_config(p)


class TestOverrides:
    """Overrides are written into the config text, which is then parsed."""

    def parse(self, tmp_path, text, overrides):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        return parse_config(p, overrides)

    def test_replaces_the_key_line_in_place(self, tmp_path):
        text = "seed = 7  # the usual\ntrain = a.jsonl\nepochs = 3\n"
        cfg = self.parse(tmp_path, text, {"seed": 5, "train": "b.jsonl"})
        assert cfg.raw_text == "seed = 5\ntrain = b.jsonl\nepochs = 3\n"
        assert (cfg.seed, cfg.train, cfg.epochs) == (5, "b.jsonl", 3)

    @pytest.mark.parametrize("text", ["train = a.jsonl\n", "train = a.jsonl"])
    def test_adds_a_missing_key_at_the_end(self, tmp_path, text):
        cfg = self.parse(tmp_path, text, {"seed": 5})
        assert cfg.raw_text == "train = a.jsonl\nseed = 5\n"
        assert cfg.seed == 5

    def test_without_overrides_the_text_is_verbatim(self, tmp_path):
        text = "# a run\ntrain = a.jsonl  # data\nseed=3"
        assert self.parse(tmp_path, text, None).raw_text == text
        assert self.parse(tmp_path, text, {}).raw_text == text

    def test_duplicate_key_stays_an_error(self, tmp_path):
        text = "seed = 1\ntrain = a.jsonl\nseed = 2\n"
        with pytest.raises(ConfigError, match=r"run\.cfg:3: duplicate key"):
            self.parse(tmp_path, text, {"seed": 5})

    @pytest.mark.parametrize("value", ["a#b.jsonl", "a\nseed = 1",
                                       "a\rb.jsonl"])
    def test_value_that_is_not_one_line_is_refused(self, tmp_path, value):
        with pytest.raises(ConfigError, match="as a config line"):
            self.parse(tmp_path, MINIMAL, {"train": value})
