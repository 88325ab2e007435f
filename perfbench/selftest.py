"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted, with its
unit, by every workload in both modes, and that corrupted outputs (a
truncated ``model.ckpt``, a sample holding a value other than 0/1) are
counted as failed operations rather than successes.  Exits 0 when all
checks hold.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def check_metric_names(spec) -> list:
    problems = []
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            record = run.run(workload["name"], 1, 0.01, trace, scale="tiny")
            got = {k: v["unit"] for k, v in record["result"]["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            if got != want:
                missing = sorted(set(want.items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(want.items()))
                problems.append(f"{workload['name']} --trace {trace}: "
                                f"missing {missing}, unexpected {extra}")
    return problems


def run_with_fault(workload, entry, fault) -> dict:
    """One tiny run with ``harness.<entry>`` replaced by a faulty copy."""
    from growrbm import harness

    original = getattr(harness, entry)

    def faulty(*args):
        return fault(original(*args), *args)

    setattr(harness, entry, faulty)
    try:
        return run.run(workload, 1, 0.01, 0, scale="tiny")
    finally:
        setattr(harness, entry, original)


def truncate_checkpoint(summary, cfg, out):
    path = Path(out) / "model.ckpt"
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    return summary


def spoil_sample(frames, *args):
    frames = frames.copy()
    if frames.size:
        frames[0, 0] = 2.0
    return frames


def check_faults_counted() -> list:
    problems = []
    clean = run.run("static_stack", 1, 0.01, 0, scale="tiny")["result"]
    if not clean["correct"]:
        problems.append("tiny static_stack run fails without a fault")
    cases = [("static_stack", "run_training", truncate_checkpoint,
              lambda r: r["failed"] == r["attempted"]),
             ("deep_serve", "run_sample", spoil_sample,
              lambda r: 2 * r["failed"] >= r["attempted"] - 1)]
    for workload, entry, fault, all_counted in cases:
        result = run_with_fault(workload, entry, fault)["result"]
        if result["correct"] or not all_counted(result):
            problems.append(f"{workload} with faulty {entry}: {result['failed']} "
                            f"of {result['attempted']} counted as failed")
    return problems


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = check_metric_names(spec) + check_faults_counted()
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
