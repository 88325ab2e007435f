"""Run configuration: a strict flat ``key = value`` format.

Dotted prefixes group the keys (``cd.``, ``adapt.``, ``forget.``,
``layers.``); everything else is a top-level run setting.  Unknown keys
and duplicate keys are hard errors so a misspelled hyperparameter can
never silently fall back to its default.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .adapt import AdaptConfig, ForgettingConfig
from .dbn import LayerGenConfig
from .errors import ConfigError
from .rbm import CdConfig

MODEL_KINDS = ("rbm", "dbn", "rnn-rbm", "rnn-dbn")


def _to_bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


# key -> (python type, default); None default means "must be set to be used"
_SCHEMA = {
    "model": (str, "rnn-rbm"),
    "adaptive": (_to_bool, True),
    "epochs": (int, 10),
    "seed": (int, 0),
    "train": (str, None),
    "test": (str, None),
    "out": (str, None),
    "n_hidden": (int, 10),
    "u_dim": (int, None),
    "cd.k": (int, 1),
    "cd.learning_rate": (float, 0.01),
    "cd.batch_size": (int, 100),
    "adapt.c_gain": (float, 1.0),
    "adapt.w_gain": (float, 1.0),
    "adapt.gen_threshold": (float, 0.001),
    "adapt.ann_threshold": (float, 0.1),
    "adapt.generation_phase_epochs": (int, None),
    "adapt.min_hidden": (int, 1),
    "adapt.max_hidden": (int, None),
    "adapt.split_noise_sd": (float, 0.01),
    "adapt.stats_decay": (float, 0.9),
    "forget.decay_strength": (float, 0.001),
    "forget.clarify_strength": (float, 0.001),
    "forget.selective_strength": (float, 0.001),
    "forget.selective_cutoff": (float, 0.1),
    "forget.forgetting_epochs": (int, 0),
    "forget.selective_epochs": (int, 0),
    "layers.wd_gain": (float, 1.0),
    "layers.energy_gain": (float, 1.0),
    "layers.wd_threshold": (float, 0.01),
    "layers.energy_threshold": (float, 0.01),
    "layers.max_layers": (int, 4),
}


@dataclass
class RunConfig:
    """Everything a training run needs, resolved and validated."""

    model: str
    adaptive: bool
    epochs: int
    seed: int
    train: str
    test: str | None
    out: str
    n_hidden: int
    u_dim: int | None
    cd: CdConfig
    adapt: AdaptConfig
    forget: ForgettingConfig
    layers: LayerGenConfig
    raw_text: str = field(default="", repr=False)


def parse_config_text(text: str, where: str = "<config>") -> RunConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{where}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{where}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{where}:{lineno}: duplicate key {key!r}")
        conv = _SCHEMA[key][0]
        try:
            values[key] = conv(raw)
        except ValueError as exc:
            raise ConfigError(f"{where}:{lineno}: bad value for {key!r}: {exc}")

    def get(key):
        if key in values:
            return values[key]
        return _SCHEMA[key][1]

    model = get("model")
    if model not in MODEL_KINDS:
        raise ConfigError(
            f"{where}: unknown model kind {model!r}; expected one of "
            f"{', '.join(MODEL_KINDS)}")
    for key in ("epochs", "n_hidden", "u_dim"):
        if get(key) is not None and get(key) < 1:
            raise ConfigError(f"{where}: {key} must be >= 1")
    epochs = get("epochs")
    if get("train") is None:
        raise ConfigError(f"{where}: 'train' path is required")
    n_hidden = get("n_hidden")

    gen_epochs = get("adapt.generation_phase_epochs")
    if gen_epochs is None:
        gen_epochs = max(1, epochs // 2)
    max_hidden = get("adapt.max_hidden")
    if max_hidden is None:
        max_hidden = max(4 * n_hidden, n_hidden + 8)

    try:
        cd = CdConfig(k=get("cd.k"), learning_rate=get("cd.learning_rate"),
                      batch_size=get("cd.batch_size"))
        adapt = AdaptConfig(
            generation_phase_epochs=gen_epochs, max_hidden=max_hidden,
            c_gain=get("adapt.c_gain"), w_gain=get("adapt.w_gain"),
            gen_threshold=get("adapt.gen_threshold"),
            ann_threshold=get("adapt.ann_threshold"),
            min_hidden=get("adapt.min_hidden"),
            split_noise_sd=get("adapt.split_noise_sd"),
            stats_decay=get("adapt.stats_decay"))
        forget = ForgettingConfig(
            decay_strength=get("forget.decay_strength"),
            clarify_strength=get("forget.clarify_strength"),
            selective_strength=get("forget.selective_strength"),
            selective_cutoff=get("forget.selective_cutoff"),
            forgetting_epochs=get("forget.forgetting_epochs"),
            selective_epochs=get("forget.selective_epochs"))
        layers = LayerGenConfig(
            max_layers=get("layers.max_layers"),
            wd_gain=get("layers.wd_gain"),
            energy_gain=get("layers.energy_gain"),
            wd_threshold=get("layers.wd_threshold"),
            energy_threshold=get("layers.energy_threshold"))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc

    return RunConfig(
        model=model, adaptive=get("adaptive"), epochs=epochs,
        seed=get("seed"), train=get("train"), test=get("test"),
        out=get("out") or "run", n_hidden=n_hidden, u_dim=get("u_dim"),
        cd=cd, adapt=adapt, forget=forget, layers=layers, raw_text=text)


def parse_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, where=str(path))
