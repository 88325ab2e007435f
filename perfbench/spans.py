"""In-memory span tracing of the growrbm modules, from outside the package.

A :class:`Tracer` replaces every public function and public method of
the package modules with a thin wrapper that records one span per call:
name, start, end, parent span and run id.  Names bound at import time
(``from .numerics import sigmoid`` in ``rbm``, say) are found by
identity in every module namespace and replaced there too, otherwise
their calls would go uncounted.  Spans live in flat arrays while the run
lasts and are written out once at the end.  Nothing under ``src/``
changes; :meth:`Tracer.uninstall` puts every original object back.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# span name -> phase, for spans that open a phase.  Outer phases
# claim all their descendants; inner phases claim descendants only until
# a nested inner phase opens.  See phase_self_times().
OUTER_PHASES = {
    "rnn_rbm.prediction_error": "epoch_metrics",
    "rnn_rbm.mean_sequence_energy": "epoch_metrics",
    "rnn_rbm.mean_hidden_activation": "epoch_metrics",
    "dbn.mean_field_energy": "epoch_metrics",
    "dbn.reconstruction_error": "epoch_metrics",
    "adapt.GradientStats.update": "structure",
    "adapt.generation_scores": "structure",
    "adapt.maybe_generate": "structure",
    "adapt.mask_from_activations": "structure",
    "adapt.apply_annihilation": "structure",
    "adapt.forgetting_gradient": "structure",
    "rnn_rbm.grow_hidden": "structure",
    "rnn_rbm.shrink_hidden": "structure",
    "checkpoint.save_checkpoint": "checkpoint",
    "checkpoint.load_checkpoint": "checkpoint",
}
INNER_PHASES = {
    "rnn_rbm.unroll": "unroll",
    "rbm.cd_step": "cd",
    "rnn_rbm.bptt_gradients": "bptt_chain",
}
# private methods traced as well: stream construction is a hot spot
EXTRA_SPANS = {"numerics.RngStream.__init__"}
PHASES = ("unroll", "cd", "bptt_chain", "structure", "epoch_metrics",
          "checkpoint")


def _rows(args, kwargs, key, pos):
    batch = kwargs.get(key, args[pos] if len(args) > pos else None)
    return int(np.atleast_2d(np.asarray(batch)).shape[0])


def _file_size(args, kwargs, result):
    return Path(kwargs.get("path", args[0])).stat().st_size


def _grown(args, kwargs, result):
    return len(result[2])


def _pruned(args, kwargs, result):
    return int(np.count_nonzero(kwargs.get("mask", args[2])))


# span name -> (counter name, function of (args, kwargs, result))
COUNTERS = {
    "rbm.cd_step": ("rows", lambda a, k, r: _rows(a, k, "batch", 1)),
    "rnn_rbm.unroll": ("frames", lambda a, k, r: _rows(a, k, "seq", 1)),
    "rnn_dbn.deterministic_hidden_sequence":
        ("frames", lambda a, k, r: _rows(a, k, "seq", 1)),
    "checkpoint.save_checkpoint": ("bytes", _file_size),
    "adapt.maybe_generate": ("units", _grown),
    "adapt.apply_annihilation": ("units", _pruned),
}


def _public_callables(module):
    """(owner, attribute, object, span name) for what the tracer wraps."""
    short = module.__name__.rsplit(".", 1)[-1]
    out = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((module, attr, obj, f"{short}.{attr}"))
        elif inspect.isclass(obj):
            for m_attr, m_obj in vars(obj).items():
                name = f"{short}.{obj.__name__}.{m_attr}"
                func = getattr(m_obj, "__func__", m_obj)
                if (not m_attr.startswith("_") or name in EXTRA_SPANS) \
                        and inspect.isfunction(func):
                    out.append((obj, m_attr, m_obj, name))
    return out


class Tracer:
    """Records spans of every public growrbm call while installed."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("q")
        self.run_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.counters: dict[tuple[str, str], float] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, func, name):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        stack = self._stack
        name_col, parent_col, run_col = self.name_col, self.parent_col, self.run_col
        start_col, end_col = self.start_col, self.end_col
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_col)
            name_col.append(nid)
            parent_col.append(stack[-1] if stack else -1)
            run_col.append(self.run_id)
            start_col.append(0.0)
            end_col.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start_col[idx] = t0
                end_col[idx] = t1
            if counter is not None:
                key = (name, counter[0])
                self.counters[key] = self.counters.get(key, 0) + counter[1](
                    args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == self.package or n.startswith(self.package + ".")]
        replaced = {}
        for module in modules:
            for owner, attr, obj, name in _public_callables(module):
                if isinstance(obj, staticmethod):
                    new = staticmethod(self._wrap(obj.__func__, name))
                elif isinstance(obj, classmethod):
                    new = classmethod(self._wrap(obj.__func__, name))
                else:
                    new = self._wrap(obj, name)
                    replaced[id(obj)] = (obj, new)
                self._restore.append((owner, attr, obj))
                setattr(owner, attr, new)
        # names bound by ``from .x import f`` in other modules
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        return self

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---- analysis --------------------------------------------------------

    def table(self):
        """Column arrays of all spans recorded so far."""
        name = np.frombuffer(self.name_col, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent_col, dtype=np.int64).copy()
        start = np.frombuffer(self.start_col, dtype=np.float64).copy()
        end = np.frombuffer(self.end_col, dtype=np.float64).copy()
        run = np.frombuffer(self.run_col, dtype=np.int32).copy()
        return name, parent, start, end, run

    def write(self, path):
        name, parent, start, end, run = self.table()
        np.savez_compressed(path, name=name, parent=parent, start=start,
                            end=end, run=run,
                            names=np.array(json.dumps(self.names)))

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        name, parent, start, end, _ = self.table()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.shape[0])
        self_time = dur - child
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        incl = np.bincount(name, weights=dur, minlength=n)
        excl = np.bincount(name, weights=self_time, minlength=n)
        stats = {self.names[i]: {"calls": int(calls[i]), "s": float(incl[i]),
                                 "self_s": float(excl[i])}
                 for i in range(n)}
        return stats, self_time

    def phase_self_times(self, self_time):
        """Self time summed by phase.

        A span inside an outer phase (epoch metrics, structure sweep,
        checkpoint I/O) belongs to the outermost such phase; otherwise to
        the nearest enclosing inner phase (unroll, CD, BPTT chaining).
        Spans in neither count toward no phase.
        """
        name, parent, _, _, _ = self.table()
        outer_of = [OUTER_PHASES.get(n) for n in self.names]
        inner_of = [INNER_PHASES.get(n) for n in self.names]
        phase = [None] * name.shape[0]
        totals = dict.fromkeys(PHASES, 0.0)
        for i, (nid, p) in enumerate(zip(name.tolist(), parent.tolist())):
            up = phase[p] if p >= 0 else None
            if up is not None and up[0]:
                mine = up
            elif outer_of[nid] is not None:
                mine = (True, outer_of[nid])
            elif inner_of[nid] is not None:
                mine = (False, inner_of[nid])
            else:
                mine = up
            phase[i] = mine
            if mine is not None:
                totals[mine[1]] += self_time[i]
        return totals

    def child_durations(self, parent_name, child_name):
        """Durations of ``child_name`` spans grouped by their
        ``parent_name`` parent span, each group in call order."""
        name, parent, start, end, _ = self.table()
        pid = self._name_ids.get(parent_name)
        cid = self._name_ids.get(child_name)
        groups: dict[int, list[float]] = {}
        if pid is None or cid is None:
            return []
        for i in np.flatnonzero(name == cid):
            p = int(parent[i])
            if p >= 0 and name[p] == pid:
                groups.setdefault(p, []).append(float(end[i] - start[i]))
        return [groups[k] for k in sorted(groups)]

    def epoch_intervals(self, trainer_name):
        """Milliseconds between successive ``TrainLog.append`` calls made
        directly by ``trainer_name``; the first epoch of each trainer call
        is measured from the trainer's own start."""
        name, parent, start, _, _ = self.table()
        tid = self._name_ids.get(trainer_name)
        aid = self._name_ids.get("log.TrainLog.append")
        if tid is None or aid is None:
            return []
        last: dict[int, float] = {}
        out = []
        for i in np.flatnonzero(name == aid):
            p = int(parent[i])
            if p < 0 or name[p] != tid:
                continue
            prev = last.get(p, float(start[p]))
            out.append(1000.0 * (float(start[i]) - prev))
            last[p] = float(start[i])
        return out
