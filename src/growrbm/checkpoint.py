"""Self-describing binary checkpoints.

Layout: 4-byte magic, little-endian u32 format version, little-endian
u64 header length, canonical JSON header (sorted keys, no whitespace),
then the raw float64 array bytes in the order the header's manifest
lists them.  Canonical JSON plus fixed array order makes save -> load ->
save reproduce the file byte for byte, which the tests rely on.

A save writes a temporary file beside the target and renames it over
the target, so a process killed mid-write leaves the previous file
intact.
"""
from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .adapt import GradientStats
from .dbn import Dbn, LayerTotals, RbmTrainState
from .errors import (CheckpointDimensionError, CheckpointError,
                     CheckpointTruncatedError, CheckpointVersionError,
                     DimensionError, NumericError)
from .rbm import Rbm
from .rnn_dbn import RnnDbn
from .rnn_rbm import RnnRbm, RnnTrainState

MAGIC = b"GRBM"
FORMAT_VERSION = 1
RNG_ALGO = "philox4x64"

_RBM_ARRAYS = ("b", "c", "W")
_RNN_ARRAYS = ("b", "c", "W", "u_bias", "w_uv", "w_uh", "w_vu", "w_uu", "u0")
_STATS_ARRAYS = ("stats/mean_c", "stats/sq_c", "stats/mean_w", "stats/sq_w")


def _collect(model) -> tuple[str, dict, dict]:
    """(kind, named arrays, meta) for any supported model object."""
    if isinstance(model, Rbm):
        arrays = {"b": model.b, "c": model.c, "W": model.W}
        meta = {"n_visible": model.n_visible, "n_hidden": model.n_hidden}
        return "rbm", arrays, meta
    if isinstance(model, RnnRbm):
        meta = {"n_visible": model.n_visible, "n_hidden": model.n_hidden,
                "u_dim": model.u_dim}
        return "rnn-rbm", dict(model.arrays()), meta
    if isinstance(model, Dbn):
        arrays = {}
        dims = []
        for i, layer in enumerate(model.layers):
            for name in _RBM_ARRAYS:
                arrays[f"layer{i}/{name}"] = getattr(layer, name)
            dims.append([layer.n_visible, layer.n_hidden])
        meta = {"n_layers": model.n_layers, "dims": dims,
                "totals": [[t.wd, t.energy] for t in model.totals]}
        return "dbn", arrays, meta
    if isinstance(model, RnnDbn):
        arrays = {}
        dims = []
        for i, layer in enumerate(model.layers):
            for name, arr in layer.arrays().items():
                arrays[f"layer{i}/{name}"] = arr
            dims.append([layer.n_visible, layer.n_hidden, layer.u_dim])
        meta = {"n_layers": model.n_layers, "dims": dims,
                "totals": [[t.wd, t.energy] for t in model.totals]}
        return "rnn-dbn", arrays, meta
    raise TypeError(f"cannot checkpoint object of type {type(model).__name__}")


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
        tmp.unlink(missing_ok=True)
        raise


def _read(path) -> tuple[dict, dict]:
    """(header, named arrays); raises the checkpoint error family."""
    raw = Path(path).read_bytes()
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
    for key in ("kind", "seed", "arrays", "meta"):
        if key not in header:
            raise CheckpointError(f"{path}: header missing '{key}'")

    arrays = {}
    offset = 16 + hlen
    for entry in header["arrays"]:
        shape = tuple(int(s) for s in entry["shape"])
        nbytes = 8 * int(np.prod(shape, dtype=np.int64))
        if offset + nbytes > len(raw):
            raise CheckpointTruncatedError(
                f"{path}: file ends inside array '{entry['name']}'")
        flat = np.frombuffer(raw[offset:offset + nbytes], dtype="<f8")
        arrays[entry["name"]] = flat.reshape(shape).copy()
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")
    return header, arrays


def _need(arrays: dict, name: str, path):
    if name not in arrays:
        raise CheckpointDimensionError(f"{path}: missing array '{name}'")
    return arrays[name]


def _rebuild(kind: str, arrays: dict, meta: dict, path):
    if kind == "rbm":
        model = Rbm(_need(arrays, "b", path), _need(arrays, "c", path),
                    _need(arrays, "W", path))
    elif kind == "rnn-rbm":
        model = RnnRbm(
            rbm=Rbm(_need(arrays, "b", path), _need(arrays, "c", path),
                    _need(arrays, "W", path)),
            u_bias=_need(arrays, "u_bias", path),
            w_uv=_need(arrays, "w_uv", path), w_uh=_need(arrays, "w_uh", path),
            w_vu=_need(arrays, "w_vu", path), w_uu=_need(arrays, "w_uu", path),
            u0=_need(arrays, "u0", path))
    elif kind == "dbn":
        layers = []
        for i in range(int(meta["n_layers"])):
            layers.append(Rbm(_need(arrays, f"layer{i}/b", path),
                              _need(arrays, f"layer{i}/c", path),
                              _need(arrays, f"layer{i}/W", path)))
        totals = [LayerTotals(wd=t[0], energy=t[1]) for t in meta["totals"]]
        model = Dbn(layers=layers, totals=totals)
    elif kind == "rnn-dbn":
        layers = []
        for i in range(int(meta["n_layers"])):
            layers.append(RnnRbm(
                rbm=Rbm(_need(arrays, f"layer{i}/b", path),
                        _need(arrays, f"layer{i}/c", path),
                        _need(arrays, f"layer{i}/W", path)),
                u_bias=_need(arrays, f"layer{i}/u_bias", path),
                w_uv=_need(arrays, f"layer{i}/w_uv", path),
                w_uh=_need(arrays, f"layer{i}/w_uh", path),
                w_vu=_need(arrays, f"layer{i}/w_vu", path),
                w_uu=_need(arrays, f"layer{i}/w_uu", path),
                u0=_need(arrays, f"layer{i}/u0", path)))
        totals = [LayerTotals(wd=t[0], energy=t[1]) for t in meta["totals"]]
        model = RnnDbn(layers=layers, totals=totals)
    else:
        raise CheckpointError(f"{path}: unknown checkpoint kind {kind!r}")

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
    """Persist a mid-run resume point (model, statistics, schedule)."""
    if not isinstance(state, (RbmTrainState, RnnTrainState)):
        raise TypeError(f"not a training state: {type(state).__name__}")
    kind, arrays, meta = _collect(state.model)
    arrays = dict(arrays)
    arrays["stats/mean_c"] = state.stats.mean_c
    arrays["stats/sq_c"] = state.stats.sq_c
    arrays["stats/mean_w"] = state.stats.mean_w
    arrays["stats/sq_w"] = state.stats.sq_w
    meta = dict(meta)
    meta["epoch_done"] = state.epoch_done
    meta["controller"] = state.controller
    meta["stats_decay"] = state.stats.decay
    meta["stats_count"] = state.stats.count
    _write(path, kind + "-train", arrays, meta, seed)


def load_train_state(path):
    """Returns ``(state, header)`` matching :func:`save_train_state`."""
    header, arrays = _read(path)
    kind = header["kind"]
    if not kind.endswith("-train"):
        raise CheckpointError(f"{path}: not a training-state checkpoint")
    meta = header["meta"]
    model = _rebuild(kind[:-len("-train")], arrays, meta, path)
    stats = GradientStats(
        mean_c=_need(arrays, "stats/mean_c", path),
        sq_c=_need(arrays, "stats/sq_c", path),
        mean_w=_need(arrays, "stats/mean_w", path),
        sq_w=_need(arrays, "stats/sq_w", path),
        decay=float(meta["stats_decay"]), count=int(meta["stats_count"]))
    cls = RbmTrainState if kind == "rbm-train" else RnnTrainState
    state = cls(epoch_done=int(meta["epoch_done"]), model=model, stats=stats,
                controller=dict(meta["controller"]))
    return state, header


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
    for entry in header["arrays"]:
        arr = arrays[entry["name"]]
        lines.append(f"  {entry['name']} shape={tuple(arr.shape)} "
                     f"min={arr.min():.6g} max={arr.max():.6g}"
                     if arr.size else f"  {entry['name']} shape={tuple(arr.shape)}")
    return "\n".join(lines) + "\n"
