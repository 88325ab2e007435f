"""Acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL verdict line (run with ``pytest -s``)
and then asserts it, so the suite doubles as a readable report.  The
slower checks are directional desk-scale experiments with pinned seeds;
every quantity they compare is deterministic on a given platform.
"""
import time

import numpy as np

from growrbm.adapt import (AdaptConfig, ForgettingConfig, GradientStats,
                           generation_scores, mask_from_activations,
                           maybe_generate)
from growrbm.checkpoint import load_train_state, save_train_state
from growrbm.config import parse_config_text
from growrbm.data import random_patterns, synth_cycle, write_jsonl
from growrbm.dbn import (Dbn, LayerGenConfig, LayerTotals,
                         should_generate_layer, train_adaptive_rbm)
from growrbm.harness import evaluate_model, run_training
from growrbm.numerics import RngStream
from growrbm.rbm import CdConfig, Rbm, hidden_conditional
from growrbm.rnn_dbn import train_adaptive_rnn_dbn
from growrbm.rnn_rbm import prediction_error, train_adaptive_rnn_rbm
from oracles import (all_states, energy, log_likelihood_exact,
                     log_likelihood_gradient_exact, log_partition_exact,
                     prob_exact, sequence_cost_exact,
                     sequence_cost_gradient_exact, visible_conditional)
from references import augment_parity

from test_rnn_rbm import GRAD_PAIRS, small_model


def verdict(n: int, ok: bool, detail: str):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def rel_err(fd: np.ndarray, g: np.ndarray) -> float:
    return float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12))


# --- 1. exact static gradient vs central finite differences ----------------

def test_criterion_01_exact_gradient_matches_finite_differences():
    t0 = time.time()
    rng = RngStream(1234)
    step = 1e-5
    worst = 0.0
    for t in range(20):
        i, j = 1 + t % 4, 1 + t % 3
        r = rng.split(t)
        m = Rbm(b=r.split(0).normal(sd=0.5, size=i),
                c=r.split(1).normal(sd=0.5, size=j),
                W=r.split(2).normal(sd=0.5, size=(i, j)))
        batch = (r.split(3).uniform(size=(4, i)) < 0.5).astype(np.float64)
        g = log_likelihood_gradient_exact(m, batch)
        exact = np.concatenate([g.db, g.dc, g.dW.ravel()])
        fd = np.empty_like(exact)
        pos = 0
        for arr in (m.b, m.c, m.W):
            flat = arr.reshape(-1)
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + step
                hi = log_likelihood_exact(m, batch)
                flat[k] = keep - step
                lo = log_likelihood_exact(m, batch)
                flat[k] = keep
                fd[pos] = (hi - lo) / (2 * step)
                pos += 1
        worst = max(worst, rel_err(fd, exact))
    took = time.time() - t0
    verdict(1, worst < 1e-6 and took < 10,
            f"worst relative error {worst:.2e} over 20 models ({took:.1f}s)")


# --- 2. exact distribution sums to one, conditionals match enumeration -----

def test_criterion_02_distribution_and_conditionals_exact():
    t0 = time.time()
    rng = RngStream(77)
    worst_sum = 0.0
    worst_cond = 0.0
    n_models = 0
    for i in range(1, 12):
        for j in range(1, 13 - i):
            r = rng.split(16 * i + j)
            m = Rbm(b=r.split(0).normal(sd=0.7, size=i),
                    c=r.split(1).normal(sd=0.7, size=j),
                    W=r.split(2).normal(sd=0.7, size=(i, j)))
            vs, hs = all_states(i), all_states(j)
            pairs_v = np.repeat(vs, hs.shape[0], axis=0)
            pairs_h = np.tile(hs, (vs.shape[0], 1))
            log_z = log_partition_exact(m)
            joint = np.exp(-energy(m, pairs_v, pairs_h) - log_z)
            joint = joint.reshape(vs.shape[0], hs.shape[0])
            worst_sum = max(worst_sum, abs(float(joint.sum()) - 1.0))

            # brute-force conditionals from the joint table
            p_v = joint.sum(axis=1)
            h_marg = (joint @ hs) / p_v[:, None]
            worst_cond = max(worst_cond, float(
                np.max(np.abs(h_marg - hidden_conditional(m, vs)))))
            p_h = joint.sum(axis=0)
            v_marg = (joint.T @ vs) / p_h[:, None]
            worst_cond = max(worst_cond, float(
                np.max(np.abs(v_marg - visible_conditional(m, hs)))))

            # the scalar joint accessor agrees with the table
            k_v, k_h = i // 2, j // 2
            worst_cond = max(worst_cond, abs(
                prob_exact(m, vs[k_v], hs[k_h]) - joint[k_v, k_h]))
            n_models += 1
    took = time.time() - t0
    verdict(2, worst_sum <= 1e-12 and worst_cond <= 1e-10,
            f"sum-to-one off by {worst_sum:.1e}, conditionals off by "
            f"{worst_cond:.1e} over {n_models} sizes ({took:.1f}s)")


# --- 3. recurrent gradient vs finite differences, every parameter group ----

def test_criterion_03_sequence_gradient_matches_finite_differences():
    t0 = time.time()
    step = 1e-5
    worst = 0.0
    for t in range(10):
        m = small_model(200 + t, 2 + t % 2, 2, 2, sd=0.3)
        t_len = 2 + t % 2
        seq = (RngStream(300 + t).uniform(size=(t_len, m.n_visible))
               < 0.5).astype(np.float64)
        g = sequence_cost_gradient_exact(m, seq)
        for g_name, a_name in GRAD_PAIRS:
            arr = m.arrays()[a_name]
            flat = arr.reshape(-1)
            fd = np.empty(flat.size)
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + step
                hi = sequence_cost_exact(m, seq)
                flat[k] = keep - step
                lo = sequence_cost_exact(m, seq)
                flat[k] = keep
                fd[k] = (hi - lo) / (2 * step)
            worst = max(worst, rel_err(fd, getattr(g, g_name).reshape(-1)))
    took = time.time() - t0
    verdict(3, worst < 1e-4 and took < 30,
            f"worst relative error {worst:.2e} over 10 models x "
            f"{len(GRAD_PAIRS)} parameter groups ({took:.1f}s)")


# --- 4. growth, pruning, and stacking rules on hand-built decision tables --

def test_criterion_04_trigger_rules_match_decision_tables():
    ok = True
    notes = []

    # growth scores with default threshold 0.001; boundary stays put
    adapt = AdaptConfig(generation_phase_epochs=1, max_hidden=8)
    stats = GradientStats.zeros(2, 3)
    stats.sq_c[:] = [0.001, 0.002, 0.0]
    stats.sq_w[:] = [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]
    scores = generation_scores(stats)
    ok &= np.array_equal(scores, [0.001, 0.002, 0.0])
    grown, _, parents = maybe_generate(
        Rbm.zeros(2, 3), stats, adapt, RngStream(0))
    ok &= parents == [1] and grown.n_hidden == 4
    notes.append(f"growth parents {parents}")

    # pruning with default threshold 0.1: strict inequality, floor keeps
    # the most active marked units, ties keep the lower index
    prune = AdaptConfig(generation_phase_epochs=1, max_hidden=8)
    m1 = mask_from_activations(np.array([0.0999, 0.1, 0.11, 0.05]), prune)
    ok &= m1.tolist() == [True, False, False, True]
    floor = AdaptConfig(generation_phase_epochs=1, max_hidden=8, min_hidden=2)
    m2 = mask_from_activations(np.array([0.01, 0.02, 0.03]), floor)
    ok &= m2.tolist() == [True, False, False]
    m3 = mask_from_activations(np.array([0.05, 0.05, 0.2]), floor)
    ok &= m3.tolist() == [False, True, False]
    notes.append(f"pruning masks {m1.tolist()} {m2.tolist()} {m3.tolist()}")

    # stacking gate with default thresholds 0.01: both sums must clear
    # their threshold strictly, totals accumulate, the cap blocks
    gate = LayerGenConfig(max_layers=5)
    def stack_with(totals):
        return Dbn(layers=[Rbm.zeros(2, 2)] * len(totals), totals=totals)
    ok &= not should_generate_layer(
        stack_with([LayerTotals(wd=0.01, energy=5.0)]), gate)
    ok &= not should_generate_layer(
        stack_with([LayerTotals(wd=5.0, energy=0.01)]), gate)
    ok &= should_generate_layer(
        stack_with([LayerTotals(wd=0.02, energy=0.02)]), gate)
    ok &= should_generate_layer(
        stack_with([LayerTotals(wd=0.006, energy=0.006),
                    LayerTotals(wd=0.006, energy=0.006)]), gate)
    ok &= not should_generate_layer(
        stack_with([LayerTotals(wd=5.0, energy=5.0)]),
        LayerGenConfig(max_layers=1))
    notes.append("stacking gate boundary/accumulate/cap")

    verdict(4, bool(ok), "; ".join(notes))


# --- 5. structure dynamics on the noisy cycle task -------------------------

def test_criterion_05_grows_then_shrinks_and_halves_error():
    t0 = time.time()
    ds = synth_cycle(4, 8, 25, 40, 0.05, RngStream(101))
    cd = CdConfig(k=1, learning_rate=0.5, batch_size=8)
    adapt = AdaptConfig(generation_phase_epochs=40, max_hidden=8,
                        gen_threshold=5e-9, ann_threshold=0.47, min_hidden=3)
    forget = ForgettingConfig(decay_strength=0.008, clarify_strength=0.008,
                              selective_strength=0.008, selective_cutoff=0.1,
                              forgetting_epochs=20, selective_epochs=10)
    peak = {"j": 0}
    def track(state):
        peak["j"] = max(peak["j"], state.model.n_hidden)
    model, _, log = train_adaptive_rnn_rbm(
        ds.train, 4, cd, 100, RngStream(7), adapt=adapt, forget=forget,
        u_dim=12, epoch_callback=track)
    gens = sum(r.event.count("gen(") for r in log.rows)
    first, last = log.rows[0].error, log.rows[-1].error
    took = time.time() - t0
    ok = (gens >= 1 and model.n_hidden < peak["j"]
          and last <= 0.5 * first and took < 120)
    verdict(5, ok,
            f"{gens} growth events, units peak {peak['j']} -> final "
            f"{model.n_hidden}, error {first:.3f} -> {last:.3f} ({took:.0f}s)")


# --- 6. adaptive beats a fixed net of the same starting size ---------------

def test_criterion_06_adaptive_median_beats_fixed():
    t0 = time.time()
    ds = synth_cycle(4, 8, 25, 50, 0.05, RngStream(101))
    cd = CdConfig(k=1, learning_rate=0.5, batch_size=8)
    adapt = AdaptConfig(generation_phase_epochs=40, max_hidden=8,
                        gen_threshold=5e-9, ann_threshold=0.47, min_hidden=2)
    forget = ForgettingConfig(decay_strength=0.008, clarify_strength=0.008,
                              selective_strength=0.008, selective_cutoff=0.1,
                              forgetting_epochs=20, selective_epochs=10)
    grown, fixed = [], []
    for seed in (1, 2, 3, 4, 5):
        ma, _, _ = train_adaptive_rnn_rbm(ds.train, 3, cd, 100,
                                          RngStream(seed), adapt=adapt,
                                          forget=forget, u_dim=12)
        mf, _, _ = train_adaptive_rnn_rbm(ds.train, 3, cd, 100,
                                          RngStream(seed), u_dim=12)
        grown.append(evaluate_model(ma, ds.test)[0])
        fixed.append(evaluate_model(mf, ds.test)[0])
    med_a, med_f = float(np.median(grown)), float(np.median(fixed))
    took = time.time() - t0
    verdict(6, med_a <= med_f and took < 600,
            f"median test cross-entropy {med_a:.4f} (adaptive) vs "
            f"{med_f:.4f} (fixed) over 5 seeds ({took:.0f}s)")


# --- 7. a second layer helps on the parity-augmented task ------------------

def test_criterion_07_depth_beats_first_layer_on_parity_task():
    t0 = time.time()
    ds = augment_parity(synth_cycle(4, 8, 25, 40, 0.0, RngStream(303)))
    cd = CdConfig(k=1, learning_rate=0.5, batch_size=8)
    adapt = AdaptConfig(generation_phase_epochs=30, max_hidden=10,
                        gen_threshold=5e-9, ann_threshold=0.47, min_hidden=3)
    layer_cfg = LayerGenConfig(max_layers=2, wd_threshold=1e-12,
                               energy_threshold=1e-12)
    stack, _ = train_adaptive_rnn_dbn(ds.train, 6, cd, 60, RngStream(7),
                                      layer_cfg, adapt=adapt, u_dim=2)
    deep = evaluate_model(stack, ds.test)[0]
    flat = prediction_error(stack.layers[0], ds.test)
    took = time.time() - t0
    ok = stack.n_layers > 1 and deep <= flat and took < 600
    verdict(7, ok,
            f"{stack.n_layers} layers, deep test cross-entropy {deep:.4f} "
            f"vs first layer alone {flat:.4f} ({took:.0f}s)")


# --- 8. the forgetting schedule sparsifies without wrecking likelihood -----

def test_criterion_08_forgetting_sparsifies_and_binarizes():
    data = np.repeat(random_patterns(4, 6, RngStream(11).split(99)), 10,
                     axis=0)
    cd = CdConfig(k=1, learning_rate=0.2, batch_size=8)
    forget = ForgettingConfig(decay_strength=0.005, clarify_strength=0.01,
                              selective_strength=0.002, selective_cutoff=0.01,
                              forgetting_epochs=100, selective_epochs=0)
    snap = {}
    def grab(state):
        if state.epoch_done == 200:
            m = state.model
            snap["m"] = Rbm(b=m.b.copy(), c=m.c.copy(), W=m.W.copy())
    model, _, _ = train_adaptive_rbm(data, 8, cd, 300, RngStream(8),
                                     forget=forget, epoch_callback=grab)

    def profile(m):
        h = hidden_conditional(m, data)
        return (float(np.mean(np.abs(m.W) < 0.01)),
                float(np.mean(np.minimum(h, 1.0 - h))),
                log_likelihood_exact(m, data))
    frac0, amb0, ll0 = profile(snap["m"])
    frac1, amb1, ll1 = profile(model)
    drop = (ll0 - ll1) / abs(ll0)
    ok = frac1 > frac0 and amb1 < amb0 and drop < 0.10
    verdict(8, ok,
            f"small-weight fraction {frac0:.3f} -> {frac1:.3f}, hidden "
            f"ambiguity {amb0:.4f} -> {amb1:.4f}, log-likelihood change "
            f"{drop * 100:+.1f}%")


# --- 9. byte-identical reruns; resume equals the uninterrupted run ---------

def test_criterion_09_reruns_and_resume_are_exact(tmp_path):
    ds = synth_cycle(3, 4, 6, 10, 0.0, RngStream(55))
    train_path = tmp_path / "train.jsonl"
    write_jsonl(train_path, ds.train)
    text = (f"model = rnn-rbm\ntrain = {train_path}\nepochs = 4\n"
            "n_hidden = 3\nseed = 9\ncd.batch_size = 4\n"
            "cd.learning_rate = 0.2\nout = ")
    run_training(parse_config_text(text + str(tmp_path / "a")),
                 tmp_path / "a")
    run_training(parse_config_text(text + str(tmp_path / "b")),
                 tmp_path / "b")
    same_log = ((tmp_path / "a/log.csv").read_bytes()
                == (tmp_path / "b/log.csv").read_bytes())
    same_ckpt = ((tmp_path / "a/model.ckpt").read_bytes()
                 == (tmp_path / "b/model.ckpt").read_bytes())

    cd = CdConfig(k=1, learning_rate=0.2, batch_size=4)
    state_path = tmp_path / "state.ckpt"
    def persist(state):
        if state.epoch_done == 2:
            save_train_state(state_path, state, seed=9)
    full, _, _ = train_adaptive_rnn_rbm(ds.train, 3, cd, 6, RngStream(9),
                                        epoch_callback=persist)
    state, _ = load_train_state(state_path)
    resumed, _, _ = train_adaptive_rnn_rbm(ds.train, 3, cd, 6, RngStream(9),
                                           resume=state)
    same_resume = all(np.array_equal(arr, resumed.arrays()[name])
                      for name, arr in full.arrays().items())
    verdict(9, same_log and same_ckpt and same_resume,
            f"rerun log bytes equal: {same_log}, checkpoint bytes equal: "
            f"{same_ckpt}, resumed parameters equal: {same_resume}")


# --- 10. inert adaptation reproduces the plain training path ---------------

def test_criterion_10_inert_adaptation_is_bit_identical():
    # thresholds no score or activation can reach, so no trigger fires
    inert = AdaptConfig(generation_phase_epochs=3, max_hidden=16,
                        gen_threshold=1e9, ann_threshold=1e-12)
    cd = CdConfig(k=1, learning_rate=0.3, batch_size=4)

    seqs = synth_cycle(3, 4, 6, 8, 0.0, RngStream(21)).train
    ra, _, log_a = train_adaptive_rnn_rbm(seqs, 3, cd, 5, RngStream(2),
                                          adapt=inert, u_dim=3)
    rp, _, log_p = train_adaptive_rnn_rbm(seqs, 3, cd, 5, RngStream(2),
                                          u_dim=3)
    rec_same = all(np.array_equal(arr, rp.arrays()[name])
                   for name, arr in ra.arrays().items())

    data = (RngStream(31).uniform(size=(24, 5)) < 0.5).astype(np.float64)
    sa, _, _ = train_adaptive_rbm(data, 3, cd, 5, RngStream(3), adapt=inert)
    sp, _, _ = train_adaptive_rbm(data, 3, cd, 5, RngStream(3))
    static_same = all(np.array_equal(getattr(sa, n), getattr(sp, n))
                      for n in ("b", "c", "W"))
    logs_same = log_a.csv_text() == log_p.csv_text()
    verdict(10, rec_same and static_same and logs_same,
            f"recurrent parameters equal: {rec_same}, static parameters "
            f"equal: {static_same}, logs equal: {logs_same}")
