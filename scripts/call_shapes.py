"""Count the calls one package function gets in a benchmark workload,
grouped by the leading shapes of its array arguments.

The script builds one workload of ``perfbench/workloads.py`` in a
temporary directory, as the benchmark does (seed ``SEED``), and runs
``--units`` of its timed units of work.  Meanwhile the named function is
replaced, in its owner and in every package module that bound it by
name, by a counter that records one key per call: the shape of each
array argument without its last axis, in argument order.  Before the
units, a workload that checks itself against a reference (``deep_serve``)
runs that untimed check, and its calls are counted apart.  Every failed
check is printed; the counts stand either way.

Run from the repository root::

    PYTHONPATH=src python scripts/call_shapes.py --workload deep_serve \\
        --function rnn_rbm._mean_field_marginals [--units 2] [--scale full]

``--function`` names a module of the package and an attribute path in
it, such as ``rbm.cd_step`` or ``rnn_rbm.LengthGroups.hidden_passes``.
Exits 2 if it names nothing callable.

Uses the standard library, ``numpy`` and ``growrbm`` only.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 51


def _resolve(name: str):
    """``(owner, attribute, function)`` for ``MODULE.PATH``."""
    module, *path = name.split(".")
    if not path:
        raise LookupError(f"{name!r} is not MODULE.NAME")
    try:
        owner = importlib.import_module(f"growrbm.{module}")
    except ModuleNotFoundError:
        raise LookupError(f"no package module {module!r}") from None
    for attr in path[:-1]:
        owner = getattr(owner, attr, None)
    func = getattr(owner, path[-1], None)
    if not callable(func):
        raise LookupError(f"{name!r} names nothing callable")
    return owner, path[-1], func


def _leading_shapes(args, kwargs) -> str:
    return " ".join(str(np.shape(a)[:-1]) for a in (*args, *kwargs.values())
                    if isinstance(a, np.ndarray))


class CallCounter:
    """Counts the calls of one function by the leading shapes of its array
    arguments while installed; :meth:`uninstall` puts the original back."""

    def __init__(self, name: str):
        self.owner, self.attr, self.func = _resolve(name)
        self.counts = Counter()

        @functools.wraps(self.func)
        def counted(*args, **kwargs):
            self.counts[_leading_shapes(args, kwargs)] += 1
            return self.func(*args, **kwargs)

        self.counted = counted
        self._restore = []

    def install(self):
        targets = [(self.owner, self.attr)] + [
            (module, attr)
            for name, module in sorted(sys.modules.items())
            if name.startswith("growrbm.") and module is not self.owner
            for attr, obj in vars(module).items() if obj is self.func]
        for owner, attr in targets:
            self._restore.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, self.counted)

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def take(self) -> Counter:
        """The counts so far, which then start again from zero."""
        counts, self.counts = self.counts, Counter()
        return counts


def _report(title: str, counts: Counter):
    print(f"{title}: {sum(counts.values())} calls")
    for shapes, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {n:8d}  {shapes}")


def main(argv=None) -> int:
    sys.path.insert(0, str(PERFBENCH))
    from workloads import SCALES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--function", required=True, metavar="MODULE.NAME")
    parser.add_argument("--units", type=int, default=2)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)
    if args.units < 1:
        parser.error("--units must be positive")
    try:
        counter = CallCounter(args.function)
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"{args.function} in {args.workload} (seed {SEED}, "
          f"{args.scale} scale)")
    with tempfile.TemporaryDirectory() as tmp:
        workload = WORKLOADS[args.workload](args.workload, SEED, Path(tmp),
                                            args.scale)
        errors = []
        counter.install()
        try:
            if hasattr(workload, "reference_check"):
                errors += workload.reference_check()
                _report("untimed reference check", counter.take())
            for i in range(args.units):
                errors += [f"unit {i}: {err}"
                           for err in workload.run_once(i).errors]
            _report(f"{args.units} timed units", counter.take())
        finally:
            counter.uninstall()
    for err in errors:
        print(f"check failed: {err}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
