"""Smoke test of the benchmark's span attribution at its tiny size.

The benchmark traces the package from outside by rebinding every public
function in the module namespaces.  A trainer that called an operation
captured elsewhere before the tracer was installed (in a table, a
default argument or a closure) would leave its spans unrecorded and
per-layer metrics at zero without any check failing; this test runs
each workload once, traced, and asserts that the attribution still
reaches the training and serving code.
"""
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

NON_ZERO = {
    "rnn_grow": ["rnn_rbm.epoch_ms.p50", "phase.bptt_chain_s",
                 "rnn_rbm.mean_hidden_activation.calls", "phase.unroll_s",
                 "phase.epoch_metrics_s"],
    "static_stack": ["dbn.epoch_ms.p50", "dbn.layer1.s", "dbn.layer2.s",
                     "rbm.cd_step.calls"],
    "deep_serve": ["rnn_dbn.sample_sequence_deep.s",
                   "rnn_dbn.next_frame_predictions_deep.self_s"],
}
# at the tiny size rnn_grow never prunes, so its own checks fail there
MUST_BE_CORRECT = {"static_stack", "deep_serve"}


@pytest.fixture
def bench_run(tmp_path, monkeypatch):
    # run.py pins BLAS threads in the environment when first imported
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(key, "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    monkeypatch.setattr(run, "RUNS", tmp_path)
    return run


@pytest.mark.parametrize("workload", sorted(NON_ZERO))
def test_traced_tiny_run_attributes_spans(bench_run, workload):
    record = bench_run.run(workload, 1, 0.01, 1, scale="tiny")
    metrics = {k: m["value"] for k, m in record["result"]["metrics"].items()}
    for name in NON_ZERO[workload]:
        assert metrics[name] > 0, name
    if workload in MUST_BE_CORRECT:
        assert record["result"]["correct"], record["errors"]
