"""Per-epoch training log with a stable CSV rendering."""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

CSV_COLUMNS = ("epoch", "layer", "energy", "error", "wd_c", "wd_w",
               "n_hidden", "n_layers", "event")


@dataclass
class LogRow:
    epoch: int
    layer: int
    energy: float
    error: float
    wd_c: float
    wd_w: float
    n_hidden: int
    n_layers: int
    event: str = ""


@dataclass
class TrainLog:
    rows: list = field(default_factory=list)

    def append(self, row: LogRow):
        self.rows.append(row)

    def csv_text(self) -> str:
        # repr() floats round-trip exactly, so identical runs give
        # identical files
        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            lines.append(",".join([
                str(r.epoch), str(r.layer), repr(float(r.energy)),
                repr(float(r.error)), repr(float(r.wd_c)), repr(float(r.wd_w)),
                str(r.n_hidden), str(r.n_layers), r.event,
            ]))
        return "\n".join(lines) + "\n"

    def to_csv(self, path):
        Path(path).write_text(self.csv_text(), encoding="utf-8")


def format_generation_event(j: int, score: float) -> str:
    return f"gen(j={j};score={score:.6g})"


def format_annihilation_event(j: int, activation: float) -> str:
    return f"ann(j={j};act={activation:.6g})"


def format_layer_event(layer: int) -> str:
    return f"layer(l={layer})"


def join_events(events) -> str:
    return "|".join(events)
