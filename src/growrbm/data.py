"""Sequence datasets: JSONL loading and synthetic generators.

The on-disk format is one sequence per line, a non-empty list of
equal-width 0/1 frames, in any of three JSON forms:

* a bare list of frames, ``[[0, 1], [1, 0]]``;
* an object with a ``frames`` field and an optional ``id``;
* an object with a ``seq`` field and an optional ``id``, which is what
  :func:`write_jsonl` writes.

All loaders validate eagerly and point at the offending line, because a
silent shape mismatch surfaces as a confusing matmul error much later.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .numerics import RngStream


@dataclass
class SequenceDataset:
    """Binary sequences of frame width ``dim`` with a train/test split."""

    dim: int
    train: list = field(default_factory=list)
    test: list = field(default_factory=list)


_FORMS = "a list of frames or an object with a 'seq' or 'frames' field"


def _frame_list(obj, where: str):
    """The frames of one line in any accepted form, not yet validated."""
    if isinstance(obj, list):
        if obj and not isinstance(obj[0], list):
            raise DataFormatError(f"{where}: expected {_FORMS}")
        return obj
    if not isinstance(obj, dict):
        raise DataFormatError(f"{where}: expected {_FORMS}")
    if "seq" in obj and "frames" in obj:
        raise DataFormatError(f"{where}: give either 'seq' or 'frames', not both")
    return obj.get("seq", obj.get("frames"))


def _parse_sequence(seq, where: str, text: str) -> np.ndarray:
    if not isinstance(seq, list) or len(seq) == 0:
        raise DataFormatError(
            f"{where}: a sequence ('seq' or 'frames') must be a non-empty "
            "list of frames")
    # a line without JSON booleans (1 and 0 once loaded) tries numpy first
    if "true" not in text and "false" not in text:
        try:
            arr = np.array(seq)
        except ValueError:  # ragged frames
            arr = np.empty(0)
        if arr.ndim == 2 and arr.size and ((arr == 0) | (arr == 1)).all():
            return arr.astype(np.float64, copy=False)
    width = None
    for frame in seq:
        if not isinstance(frame, list):
            raise DataFormatError(f"{where}: frames must be lists of 0/1")
        if width is None:
            width = len(frame)
            if width == 0:
                raise DataFormatError(f"{where}: frames must be non-empty")
        elif len(frame) != width:
            raise DataFormatError(
                f"{where}: frame width {len(frame)} does not match first "
                f"frame width {width}")
        for x in frame:
            # JSON true/false load as bools, which equal 1 and 0
            if x not in (0, 1) or isinstance(x, bool):
                raise DataFormatError(f"{where}: frame values must be 0 or 1")
    return np.asarray(seq, dtype=np.float64)


def load_jsonl(path) -> SequenceDataset:
    """Read a JSONL sequence file, one sequence per line in any of the
    forms above; every sequence lands in ``train``.

    Raises :class:`DataFormatError` naming the file for one that cannot
    be read or holds no sequence, and naming the line for an unparsable
    line or inconsistent widths.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc

    sequences = []
    dim = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{where}: invalid JSON ({exc.msg})") from exc
        arr = _parse_sequence(_frame_list(obj, where), where, line)
        if dim is None:
            dim = arr.shape[1]
        elif arr.shape[1] != dim:
            raise DataFormatError(
                f"{where}: frame width {arr.shape[1]} does not match "
                f"dataset width {dim}")
        sequences.append(arr)

    if not sequences:
        raise DataFormatError(f"{path}: no sequences found")
    return SequenceDataset(dim=dim, train=sequences)


def write_jsonl(path, sequences, ids=None):
    """Write 0/1 sequences in the loadable format; round-trips exactly.

    Raises ``ValueError`` naming the sequence for one that is not a
    non-empty ``(frames, width)`` array or holds a value other than 0 or
    1 (NaN included), before the file is written.
    """
    path = Path(path)
    lines = []
    for i, seq in enumerate(sequences):
        arr = np.asarray(seq)
        if arr.ndim != 2 or not ((arr == 0) | (arr == 1)).all():
            raise ValueError(f"sequence {i}: must be (frames, width) of 0/1")
        if arr.size == 0:  # no frames, or frames of width 0
            raise ValueError(f"sequence {i}: empty, shape {arr.shape}")
        obj = {}
        if ids is not None:
            obj["id"] = ids[i]
        obj["seq"] = arr.astype(np.int64).tolist()
        lines.append(json.dumps(obj, separators=(",", ":")))
    path.write_text("\n".join(lines) + ("\n" if lines else ""),
                    encoding="utf-8")


def random_patterns(n_patterns: int, dim: int, rng: RngStream) -> list:
    """Distinct random binary patterns, drawn by rejection."""
    if n_patterns > 2 ** dim:
        raise ValueError(f"cannot draw {n_patterns} distinct patterns of {dim} bits")
    seen = set()
    patterns = []
    while len(patterns) < n_patterns:
        p = (rng.uniform(size=dim) < 0.5).astype(np.float64)
        key = tuple(int(x) for x in p)
        if key not in seen:
            seen.add(key)
            patterns.append(p)
    return patterns


def synth_cycle(n_patterns: int, dim: int, length: int, n_sequences: int,
                noise_flip_prob: float, rng: RngStream,
                patterns: list | None = None) -> SequenceDataset:
    """Sequences cycling through a fixed pattern list with bit-flip noise.

    Each sequence starts at a random phase of the cycle; each bit of each
    frame is flipped independently with the given probability.  An 80/20
    train/test split is made by sequence (at least one sequence stays in
    train).  Passing ``patterns`` pins the cycle for tests.
    """
    if n_patterns < 1 or length < 1 or n_sequences < 1:
        raise ValueError("counts must be >= 1")
    if not 0.0 <= noise_flip_prob < 0.5:
        raise ValueError("noise_flip_prob must lie in [0, 0.5)")
    if patterns is None:
        patterns = random_patterns(n_patterns, dim, rng)
    else:
        patterns = [np.asarray(p, dtype=np.float64) for p in patterns]
        if len(patterns) != n_patterns:
            raise ValueError("pattern list length does not match n_patterns")
        for p in patterns:
            if p.shape != (dim,):
                raise ValueError("patterns must match the requested dimension")

    sequences = []
    for _ in range(n_sequences):
        phase = rng.integers(n_patterns)
        frames = np.stack([patterns[(phase + t) % n_patterns]
                           for t in range(length)])
        if noise_flip_prob > 0.0:
            flips = rng.uniform(size=frames.shape) < noise_flip_prob
            frames = np.abs(frames - flips.astype(np.float64))
        sequences.append(frames)

    order = rng.permutation(n_sequences)
    n_train = max(1, int(round(0.8 * n_sequences)))
    train = [sequences[i] for i in order[:n_train]]
    test = [sequences[i] for i in order[n_train:]]
    return SequenceDataset(dim=dim, train=train, test=test)
