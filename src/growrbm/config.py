"""Run configuration: a strict flat ``key = value`` format.

Dotted prefixes group the keys (``cd.``, ``adapt.``, ``forget.``,
``layers.``); everything else is a top-level run setting.  A dotted key
is a field of the section class its prefix maps to (``CdConfig``,
``AdaptConfig``, ``ForgettingConfig``, ``LayerGenConfig``): the field's
annotation is the key's type, its default is the key's default, and the
class checks the value.  Unknown keys and duplicate keys are hard errors
so a misspelled hyperparameter can never silently fall back to its
default.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
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


_SECTIONS = {"cd": CdConfig, "adapt": AdaptConfig,
             "forget": ForgettingConfig, "layers": LayerGenConfig}

# key -> (python type, default); None default means "must be set to be used".
# The top-level settings are listed here; each section field adds one key.
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
}
# section fields are ints and floats; their modules postpone annotations,
# so a field's ``type`` is the name of its type
_FIELD_TYPES = {"int": int, "float": float}
_SCHEMA.update(
    (f"{prefix}.{f.name}",
     (_FIELD_TYPES[f.type], None if f.default is MISSING else f.default))
    for prefix, cls in _SECTIONS.items() for f in fields(cls))


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

    # the two section fields without a default are worked out from the run
    values.setdefault("adapt.generation_phase_epochs", max(1, epochs // 2))
    values.setdefault("adapt.max_hidden", max(4 * n_hidden, n_hidden + 8))

    try:
        sections = {prefix: cls(**{f.name: get(f"{prefix}.{f.name}")
                                   for f in fields(cls)})
                    for prefix, cls in _SECTIONS.items()}
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc

    return RunConfig(
        model=model, adaptive=get("adaptive"), epochs=epochs,
        seed=get("seed"), train=get("train"), test=get("test"),
        out=get("out") or "run", n_hidden=n_hidden, u_dim=get("u_dim"),
        **sections, raw_text=text)


def parse_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, where=str(path))
