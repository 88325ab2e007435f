"""Self-describing binary checkpoints.

Layout: 4-byte magic, little-endian u32 format version, little-endian
u64 header length, canonical JSON header (sorted keys, no whitespace),
then the raw float64 array bytes in the order the header's manifest
lists them.  Canonical JSON plus fixed array order makes save -> load ->
save reproduce the file byte for byte, which the tests rely on.

All four model kinds share one codec path, driven by the ``_KINDS``
table; every reader, :func:`describe` included, rejects with
CheckpointError a header that lacks what its kind needs, or that lists
an array twice or one its kind does not hold.  A layer's arrays are
the fields of its class, written and read in field order.

A save writes a temporary file beside the target and renames it over
the target, so a process killed mid-write leaves the previous file
intact.
"""
from __future__ import annotations

import json
import math
import os
import struct
from contextlib import suppress
from dataclasses import fields
from pathlib import Path

import numpy as np

from .adapt import GradientStats, TrainState
from .dbn import Dbn, LayerTotals
from .errors import (CheckpointDimensionError, CheckpointError,
                     CheckpointTruncatedError, CheckpointVersionError,
                     DimensionError, NumericError)
from .rbm import Rbm
from .rnn_dbn import RnnDbn
from .rnn_rbm import RnnRbm

MAGIC = b"GRBM"
FORMAT_VERSION = 1
RNG_ALGO = "philox4x64"

_DIMS = ("n_visible", "n_hidden")
_RNN_DIMS = _DIMS + ("u_dim",)
# kind -> (model class, layer class, per-layer header dims); a stack
# stores layer ``i``'s arrays as ``layer{i}/<name>``
_KINDS = {"rbm": (Rbm, Rbm, _DIMS), "rnn-rbm": (RnnRbm, RnnRbm, _RNN_DIMS),
          "dbn": (Dbn, Rbm, _DIMS), "rnn-dbn": (RnnDbn, RnnRbm, _RNN_DIMS)}


def model_kind(model) -> str:
    """Checkpoint kind of a model object (its type name if it has none)."""
    return next((k for k, spec in _KINDS.items() if type(model) is spec[0]),
                type(model).__name__)


def _collect(model) -> tuple[str, dict, dict]:
    """(kind, named arrays, meta) for any supported model object."""
    kind = model_kind(model)
    if kind not in _KINDS:
        raise TypeError(f"cannot checkpoint object of type {kind}")
    dims = _KINDS[kind][2]
    if not isinstance(model, Dbn):
        return kind, model.arrays(), {d: getattr(model, d) for d in dims}
    if not model.layers:
        raise ValueError("cannot checkpoint a stack with no layers")
    arrays = {f"layer{i}/{name}": arr for i, layer in enumerate(model.layers)
              for name, arr in layer.arrays().items()}
    meta = {"n_layers": model.n_layers,
            "dims": [[getattr(layer, d) for d in dims]
                     for layer in model.layers],
            "totals": [[t.wd, t.energy] for t in model.totals]}
    return kind, arrays, meta


def _write(path, kind: str, arrays: dict, meta: dict, seed: int):
    manifest = [{"name": name, "shape": list(arr.shape)}
                for name, arr in arrays.items()]
    header = {"kind": kind, "seed": int(seed), "rng": RNG_ALGO,
              "arrays": manifest, "meta": meta}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for name, arr in arrays.items():
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):  # keep the error that failed the write
            tmp.unlink(missing_ok=True)
        raise


def _read(path) -> tuple[dict, dict]:
    """(header, named arrays); raises the checkpoint error family."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise CheckpointVersionError(f"{path}: not a recognised checkpoint")
    version = struct.unpack("<I", raw[4:8])[0]
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version}, this build reads "
            f"{FORMAT_VERSION}")
    hlen = struct.unpack("<Q", raw[8:16])[0]
    if len(raw) < 16 + hlen:
        raise CheckpointTruncatedError(f"{path}: header cut short")
    try:
        header = json.loads(raw[16:16 + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    for key, types in (("kind", str), ("seed", int), ("arrays", list),
                       ("meta", dict)):
        _field(header, key, types, path)
    _check_meta(header["kind"], header["meta"], path)

    arrays = {}
    offset = 16 + hlen
    for entry in header["arrays"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(n) is int and n >= 0  # a bool is no size
                        for n in entry["shape"])):
            raise CheckpointError(f"{path}: bad array entry {entry!r}")
        if entry["name"] in arrays:
            raise CheckpointError(
                f"{path}: array '{entry['name']}' listed twice")
        shape = tuple(entry["shape"])
        nbytes = 8 * math.prod(shape)  # exact: no int64 wrap to 0
        if offset + nbytes > len(raw):
            raise CheckpointTruncatedError(
                f"{path}: file ends inside array '{entry['name']}'")
        arrays[entry["name"]] = np.frombuffer(  # read-only, not copied
            raw, "<f8", nbytes // 8, offset).reshape(shape)
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")
    kind = header["kind"]
    cls, layer_cls, _ = _KINDS[kind.removesuffix("-train")]
    held = {f.name for f in fields(layer_cls)}
    if issubclass(cls, Dbn):  # n_layers may be huge; later layers lack arrays
        held = {f"layer{i}/{name}" for name in held for i in range(
            min(header["meta"]["n_layers"], len(arrays)))}
    if kind.endswith("-train"):
        held |= {f"stats/{f.name}" for f in fields(GradientStats)}
    unread = sorted(arrays.keys() - held)
    if unread:
        raise CheckpointError(f"{path}: a {kind} checkpoint has no array "
                              f"'{unread[0]}'")
    return header, arrays


def _need(arrays: dict, name: str, path):
    if name not in arrays:
        raise CheckpointDimensionError(f"{path}: missing array '{name}'")
    return arrays[name]


def _field(fields: dict, key: str, types, path, where: str = ""):
    """``fields[key]``, which must exist and be of ``types``, and not a
    bool (which Python counts as an int)."""
    if key not in fields:
        raise CheckpointError(f"{path}: header missing '{where}{key}'")
    value = fields[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise CheckpointError(f"{path}: bad '{where}{key}': {value!r}")
    return value


def _check_meta(kind: str, meta: dict, path):
    """Reject unknown kinds and stacks without layers or sound totals."""
    base = kind.removesuffix("-train")
    if base not in _KINDS:
        raise CheckpointError(f"{path}: unknown checkpoint kind {base!r}")
    if issubclass(_KINDS[base][0], Dbn):
        n_layers = _field(meta, "n_layers", int, path, "meta.")
        totals = _field(meta, "totals", list, path, "meta.")
        if n_layers < 1:
            raise CheckpointError(f"{path}: stack of {n_layers} layers")
        if len(totals) not in (0, n_layers):
            raise CheckpointError(
                f"{path}: {len(totals)} layer totals for {n_layers} layers")
        if not all(isinstance(t, list) and len(t) == 2 and all(
                type(x) in (int, float)  # a bool is no total
                for x in t) for t in totals):
            raise CheckpointError(f"{path}: malformed layer totals")


def _rebuild(kind: str, arrays: dict, meta: dict, path):
    cls, layer_cls, _ = _KINDS[kind]

    def layer(prefix=""):  # one copy of the arrays, in field order
        parts = [_need(arrays, prefix + f.name, path)
                 for f in fields(layer_cls)]
        return layer_cls(*parts)

    if cls is layer_cls:
        model = layer()
    else:
        model = cls(layers=[layer(f"layer{i}/")
                            for i in range(meta["n_layers"])],
                    totals=[LayerTotals(wd=t[0], energy=t[1])
                            for t in meta["totals"]])

    try:
        model.validate()
    except (DimensionError, FloatingPointError, NumericError) as exc:
        raise CheckpointDimensionError(f"{path}: {exc}") from exc
    return model


def save_checkpoint(path, model, seed: int = 0):
    kind, arrays, meta = _collect(model)
    _write(path, kind, arrays, meta, seed)


def load_checkpoint(path):
    """Returns ``(model, header)``; model type follows the stored kind."""
    header, arrays = _read(path)
    kind = header["kind"]
    if kind.endswith("-train"):
        raise CheckpointError(
            f"{path}: training-state checkpoint; use load_train_state")
    model = _rebuild(kind, arrays, header["meta"], path)
    return model, header


def save_train_state(path, state, seed: int = 0):
    """Persist a mid-run resume point of one layer: the model and moments
    as arrays in field order, ``meta.epoch_done`` and
    ``meta.controller = {"stall": n}``.
    A stack is no layer, and raises ``TypeError``."""
    if not isinstance(state, TrainState):
        raise TypeError(f"not a training state: {type(state).__name__}")
    if isinstance(state.model, Dbn):
        raise TypeError("a training state holds one layer, not a "
                        f"{model_kind(state.model)} stack")
    kind, arrays, meta = _collect(state.model)
    arrays.update({f"stats/{name}": arr
                   for name, arr in vars(state.stats).items()})
    meta.update(epoch_done=state.epoch_done, controller={"stall": state.stall})
    _write(path, kind + "-train", arrays, meta, seed)


def load_train_state(path):
    """Returns ``(state, header)`` matching :func:`save_train_state`; meta
    keys it does not read, such as the update count, ``stats_decay`` and
    ``controller.generation_done`` of earlier files, are ignored, and the
    moments are read by name, in whatever order a file lists them.  A
    stack kind (``dbn-train``, ``rnn-dbn-train``) is rejected."""
    header, arrays = _read(path)
    kind = header["kind"]
    if not kind.endswith("-train"):
        raise CheckpointError(f"{path}: not a training-state checkpoint")
    kind = kind[:-len("-train")]
    if issubclass(_KINDS[kind][0], Dbn):
        raise CheckpointError(
            f"{path}: a training state holds one layer, not a {kind} stack")
    meta = header["meta"]
    model = _rebuild(kind, arrays, meta, path)
    epoch_done = _field(meta, "epoch_done", int, path, "meta.")
    stall = _field(_field(meta, "controller", dict, path, "meta."), "stall",
                   int, path, "meta.controller.")
    if epoch_done < -1 or stall < 0:  # -1: a fresh state, before epoch 0
        raise CheckpointError(f"{path}: resume point out of range: epoch_done "
                              "must be >= -1 and controller stall >= 0")
    expected = vars(GradientStats.zeros(model.n_visible, model.n_hidden))
    stats = GradientStats(
        *(_need(arrays, f"stats/{name}", path) for name in expected))
    for name, zeros in expected.items():
        if getattr(stats, name).shape != zeros.shape:
            raise CheckpointDimensionError(
                f"{path}: stats/{name} has shape "
                f"{getattr(stats, name).shape}, expected {zeros.shape}")
    return TrainState(epoch_done, model, stats, stall), header


def describe(path) -> str:
    """Human-readable one-screen summary used by the CLI inspect command."""
    header, arrays = _read(path)
    lines = [f"kind: {header['kind']}", f"seed: {header['seed']}",
             f"rng: {header.get('rng', '?')}"]
    meta = header["meta"]
    for key in sorted(k for k in meta if k not in ("totals",)):
        lines.append(f"{key}: {meta[key]}")
    if "totals" in meta:
        for i, t in enumerate(meta["totals"]):
            lines.append(f"layer{i} totals: wd={t[0]:.6g} energy={t[1]:.6g}")
    lines.append("arrays:")
    for name, arr in arrays.items():
        lines.append(f"  {name} shape={arr.shape}" + (
            f" min={arr.min():.6g} max={arr.max():.6g}" if arr.size else ""))
    return "\n".join(lines) + "\n"
