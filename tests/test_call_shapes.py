"""Smoke test of ``scripts/call_shapes.py`` at the benchmark's tiny size."""
import sys
from pathlib import Path

from growrbm import rnn_dbn, rnn_rbm

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_counts_mean_field_calls_of_tiny_deep_serve(monkeypatch, capsys):
    # the script puts perfbench/ on the path; the test takes it off again
    monkeypatch.setattr(sys, "path", sys.path[:])
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import call_shapes

    original = rnn_rbm._mean_field_marginals
    code = call_shapes.main(["--workload", "deep_serve", "--function",
                             "rnn_rbm._mean_field_marginals", "--units", "1",
                             "--scale", "tiny"])
    # two held-out sequences of 25 frames: the reference predicts each
    # prefix on its own and checks each sequence's vectorised path, and
    # an eval predicts the one length group at once
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "rnn_rbm._mean_field_marginals in deep_serve (seed 51, tiny scale)",
        "untimed reference check: 50 calls",
        "        48  (8,) () ()",
        "         2  (8,) (1, 24) (1, 24)",
        "1 timed units: 1 calls",
        "         1  (8,) (2, 1, 24) (2, 1, 24)",
    ]
    assert rnn_rbm._mean_field_marginals is original
    assert rnn_dbn._mean_field_marginals is original
