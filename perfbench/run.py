"""growrbm benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload rnn_grow --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there.  One caller issues one unit of work at a time (a
training run, or an eval plus a sample call) until ``--seconds`` have
passed, in a single process with BLAS pinned to one thread.  Times are
scaled to a reference host speed (see hostspeed.py).  Every output is
checked.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` the same untraced loop runs,
followed by a traced unit of work whose spans give the per-module
metrics.  The exit code is 0 only if every check passed.
See NOTES.md for the workloads and the metric definitions.
"""
from __future__ import annotations

import os

# pinned before numpy is imported, here and in the set-up interpreters
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"

SETUP_REPEATS = 7
MIN_JOBS = {"rnn_grow": 2, "static_stack": 3, "deep_serve": 100}
TRACED_JOBS = {"rnn_grow": 1, "static_stack": 1, "deep_serve": 10}

END_TO_END = [
    ("frames_per_s", "1/s"),
    ("call_ms.p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("numerics.sigmoid.calls", "count"),
    ("numerics.sigmoid.self_s", "s"),
    ("numerics.RngStream.split.calls", "count"),
    ("numerics.RngStream.split.self_s", "s"),
    ("numerics.sample_bernoulli.self_s", "s"),
    ("numerics.streams_per_frame", "ratio"),
    ("rbm.cd_step.calls", "count"),
    ("rbm.cd_step.self_s", "s"),
    ("rbm.cd_step.rows_per_call", "ratio"),
    ("rbm.hidden_conditional.self_s", "s"),
    ("rbm.visible_conditional.self_s", "s"),
    ("rnn_rbm.unroll.calls", "count"),
    ("rnn_rbm.unroll.self_s", "s"),
    ("rnn_rbm.unroll.frames_per_frame", "ratio"),
    ("rnn_rbm.bptt_gradients.self_s", "s"),
    ("rnn_rbm.prediction_error.s", "s"),
    ("rnn_rbm.mean_sequence_energy.s", "s"),
    ("rnn_rbm.mean_hidden_activation.calls", "count"),
    ("rnn_rbm.mean_hidden_activation.s", "s"),
    ("rnn_rbm.grow_hidden.s", "s"),
    ("rnn_rbm.shrink_hidden.s", "s"),
    ("rnn_rbm.next_frame_predictions.s", "s"),
    ("rnn_rbm.epoch_ms.p50", "ms"),
    ("rnn_rbm.epoch_ms.p80", "ms"),
    ("adapt.GradientStats.update.self_s", "s"),
    ("adapt.maybe_generate.calls", "count"),
    ("adapt.generation_scores.s", "s"),
    ("adapt.mask_from_activations.s", "s"),
    ("adapt.forgetting_gradient.calls", "count"),
    ("adapt.forgetting_gradient.self_s", "s"),
    ("adapt.units_grown", "count"),
    ("adapt.units_pruned", "count"),
    ("adapt.grown_per_sweep", "ratio"),
    ("adapt.pruned_per_sweep", "ratio"),
    ("dbn.layer1.s", "s"),
    ("dbn.layer2.s", "s"),
    ("dbn.layer3.s", "s"),
    ("dbn.mean_field_energy.s", "s"),
    ("dbn.reconstruction_error.s", "s"),
    ("dbn.epoch_ms.p50", "ms"),
    ("dbn.epoch_ms.p90", "ms"),
    ("rnn_dbn.next_frame_predictions_deep.self_s", "s"),
    ("rnn_dbn.predict_next_deep.calls", "count"),
    ("rnn_dbn.predict_next_deep.self_s", "s"),
    ("rnn_dbn.deterministic_hidden_sequence.calls", "count"),
    ("rnn_dbn.deterministic_hidden_sequence.frames", "count"),
    ("rnn_dbn.deterministic_hidden_sequence.self_s", "s"),
    ("rnn_dbn.sample_sequence_deep.s", "s"),
    ("checkpoint.save_checkpoint.calls", "count"),
    ("checkpoint.save_checkpoint.self_s", "s"),
    ("checkpoint.save_checkpoint.bytes", "B"),
    ("checkpoint.load_checkpoint.calls", "count"),
    ("checkpoint.load_checkpoint.self_s", "s"),
    ("data.load_jsonl.s", "s"),
    ("data.write_jsonl.s", "s"),
    ("config.parse_config.s", "s"),
    ("log.TrainLog.to_csv.s", "s"),
    ("metrics.PooledMetrics.add.self_s", "s"),
    ("harness.run_training.s", "s"),
    ("harness.run_eval.s", "s"),
    ("harness.run_sample.s", "s"),
    ("harness.evaluate_model.s", "s"),
    ("harness.eval_frames_per_s", "1/s"),
    ("harness.eval_call_ms.p50", "ms"),
    ("harness.eval_call_ms.p90", "ms"),
    ("harness.sample_frames_per_s", "1/s"),
    ("harness.sample_call_ms.p50", "ms"),
    ("harness.sample_call_ms.p90", "ms"),
    ("quality.final_train_error", "nats/bit"),
    ("quality.test_xent", "nats/bit"),
    ("phase.unroll_s", "s"),
    ("phase.cd_s", "s"),
    ("phase.bptt_chain_s", "s"),
    ("phase.structure_s", "s"),
    ("phase.epoch_metrics_s", "s"),
    ("phase.checkpoint_s", "s"),
    ("trace_overhead_frac", "ratio"),
    ("host.probe_ms", "ms"),
]


def percentile(values, q):
    """Linear-interpolated ``q``-th percentile (0..100); 0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def provenance(seed) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        vendor = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"commit": git_commit(), "src_sha256": digest.hexdigest(),
            "seed": seed, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "blas": vendor,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload, probe) -> list:
    """Seconds a fresh interpreter needs to import the CLI and load the
    workload's config, data and checkpoint, one entry per repeat, scaled
    by probe bursts taken just before and after each interpreter."""
    code = ("import sys, time\nt0 = time.perf_counter()\n"
            + workload.setup_code()
            + "print(time.perf_counter() - t0)\n")
    env = dict(os.environ, **BLAS_ENV, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        probe.burst()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        end = time.perf_counter()
        probe.burst()
        seconds = float(proc.stdout.strip().splitlines()[-1])
        times.append(seconds * probe.factor(start, end))
    return times


def closed_loop(workload, seconds, first_index, min_jobs):
    """Units of work back to back until ``seconds`` have passed.

    A unit that would mostly run past the deadline is not started, so a
    run lasts about ``seconds`` whatever the unit size."""
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(workload.run_once(first_index + len(samples)))
        elapsed = time.perf_counter() - start
        if len(samples) < min_jobs:
            continue
        last = samples[-1].seconds
        if elapsed + 0.5 * last >= seconds:
            return samples


def normalise(samples, probe):
    """Scale each unit's times to the probe's nominal host speed."""
    for s in samples:
        f = probe.factor(s.start, s.start + s.seconds)
        s.speed = f
        s.seconds *= f
        s.parts = {k: (t * f, n) for k, (t, n) in s.parts.items()}


def end_to_end(samples, setup_times) -> dict:
    rates = [s.frames / s.seconds for s in samples]
    return {
        "frames_per_s": statistics.median(rates),
        "call_ms.p50": 1000.0 * statistics.median(s.seconds for s in samples),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def part_metrics(samples, part) -> dict:
    times = [s.parts[part][0] for s in samples if part in s.parts]
    frames = [s.parts[part][1] for s in samples if part in s.parts]
    rates = [f / t for f, t in zip(frames, times)]
    ms = [1000.0 * t for t in times]
    return {f"harness.{part}_frames_per_s": statistics.median(rates) if rates else 0.0,
            f"harness.{part}_call_ms.p50": percentile(ms, 50),
            f"harness.{part}_call_ms.p90": percentile(ms, 90)}


def per_layer(tracer, traced, untraced, workload) -> dict:
    stats, self_time = tracer.summary()
    counters = tracer.counters
    frames = sum(s.frames for s in traced)

    def get(span, field):
        return float(stats.get(span, {}).get(field, 0))

    def count(span, what):
        return float(counters.get((span, what), 0))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s"):
            m[name] = get(span, field)
    m["numerics.streams_per_frame"] = ratio(
        get("numerics.RngStream.__init__", "calls"), frames)
    m["rbm.cd_step.rows_per_call"] = ratio(count("rbm.cd_step", "rows"),
                                           get("rbm.cd_step", "calls"))
    m["rnn_rbm.unroll.frames_per_frame"] = ratio(
        count("rnn_rbm.unroll", "frames"), frames)
    m["rnn_dbn.deterministic_hidden_sequence.frames"] = count(
        "rnn_dbn.deterministic_hidden_sequence", "frames")
    m["checkpoint.save_checkpoint.bytes"] = count("checkpoint.save_checkpoint",
                                                  "bytes")
    grown = count("adapt.maybe_generate", "units")
    pruned = count("adapt.apply_annihilation", "units")
    m["adapt.units_grown"] = grown
    m["adapt.units_pruned"] = pruned
    m["adapt.grown_per_sweep"] = ratio(grown, get("adapt.maybe_generate", "calls"))
    m["adapt.pruned_per_sweep"] = ratio(
        pruned, get("adapt.mask_from_activations", "calls"))
    rnn_epochs = tracer.epoch_intervals("rnn_rbm.train_adaptive_rnn_rbm")
    dbn_epochs = tracer.epoch_intervals("dbn.train_adaptive_rbm")
    m["rnn_rbm.epoch_ms.p50"] = percentile(rnn_epochs, 50)
    m["rnn_rbm.epoch_ms.p80"] = percentile(rnn_epochs, 80)
    m["dbn.epoch_ms.p50"] = percentile(dbn_epochs, 50)
    m["dbn.epoch_ms.p90"] = percentile(dbn_epochs, 90)
    layers = tracer.child_durations("dbn.train_adaptive_dbn",
                                    "dbn.train_adaptive_rbm")
    for i in range(3):
        m[f"dbn.layer{i + 1}.s"] = float(sum(g[i] for g in layers if len(g) > i))
    for phase, secs in tracer.phase_self_times(self_time).items():
        m[f"phase.{phase}_s"] = secs
    m.update(part_metrics(untraced, "eval"))
    m.update(part_metrics(untraced, "sample"))
    m["quality.final_train_error"] = workload.quality.get("final_train_error", 0.0)
    m["quality.test_xent"] = workload.quality.get("test_xent", 0.0)
    m["trace_overhead_frac"] = (
        statistics.median(s.seconds for s in traced)
        / statistics.median(s.seconds for s in untraced) - 1.0)
    return m


def run(name, seed, seconds, trace, scale="full") -> dict:
    """One benchmark run; returns the full result record."""
    from hostspeed import HostProbe
    from spans import Tracer
    from workloads import WORKLOADS

    workdir = RUNS / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](name, seed, workdir, scale)
    errors, attempted, failed = [], 0, 0
    if hasattr(workload, "reference_check"):
        ref_errors = workload.reference_check()
        attempted += 1
        failed += bool(ref_errors)
        errors += ref_errors
    probe = HostProbe()
    setup_times = measure_setup(workload, probe) if not trace else []
    traced, tracer = [], Tracer("growrbm") if trace else None
    with probe:
        samples = [workload.run_once(i) for i in range(workload.warmup)]
        untraced = closed_loop(workload, seconds, len(samples), MIN_JOBS[name])
        samples += untraced
        if trace:
            traced = [workload.run_once(len(samples) + i, tracer)
                      for i in range(TRACED_JOBS[name])]
            samples += traced
    raw_seconds = [s.seconds for s in untraced]
    normalise(untraced + traced, probe)
    if trace:
        tracer.write(workdir / "spans.npz")
        metrics = per_layer(tracer, traced, untraced, workload)
        metrics["host.probe_ms"] = probe.median_ms()
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(untraced, setup_times)
        units = dict(END_TO_END)
    for s in samples:
        attempted += s.operations
        failed += s.failed
        errors += s.errors
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "units_of_work": len(untraced), "traced_units": len(traced),
        "unit_seconds": raw_seconds,
        "unit_speed_factor": [s.speed for s in untraced],
        "provenance": provenance(seed), "outputs": workload.record(),
        "errors": errors,
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed,
                   "metrics": {k: {"value": metrics[k], "unit": units[k]}
                               for k in units}},
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(MIN_JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "growrbm" / "__init__.py").is_file():
        print(f"error: no growrbm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import growrbm

    if Path(growrbm.__file__).resolve().parent != SRC / "growrbm":
        print(f"error: imported growrbm from {growrbm.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    record = run(args.workload, args.seed, args.seconds, args.trace)
    result = record["result"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"units of work {record['units_of_work']} untraced"
          + (f", {record['traced_units']} traced" if args.trace else ""))
    for key, m in result["metrics"].items():
        print(f"  {key:46s} {m['value']:>16.6g} {m['unit']}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print("outputs " + json.dumps(record["outputs"], sort_keys=True))
    for err in record["errors"]:
        print(f"FAILED CHECK: {err}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
