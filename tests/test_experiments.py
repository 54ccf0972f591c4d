import math
import tracemalloc

import numpy as np
import pytest

from dlbounds import experiments
from dlbounds.bounds import (
    BoundInputs,
    L1_VARIANTS,
    ksparse_generalization_bound,
    optimize_fast_params,
)
from dlbounds.cli import main
from dlbounds.coders import ERR_TOL, l1_solve_batch
from dlbounds.coherence import babel
from dlbounds.core import (
    Dictionary,
    HardK,
    InapplicableError,
    L1Ball,
    SearchFailureError,
    Signal,
    me_norm,
    substream,
    uniform_sphere_matrix,
)
from dlbounds.experiments import (
    CSV_HEADER,
    DELTA_GRID,
    FAST_K_GRID,
    GapPoint,
    McBabelResult,
    TrialRecord,
    _on_delta_grid,
    babel_tail_bound,
    gap_trend_nonincreasing,
    gengap_run,
    lipschitz_probe,
    mc_babel,
    nonlipschitz_demo,
    perturbed_pair,
    records_to_csv,
)
from dlbounds.learn import (
    LearnerConfig,
    dictionary_source,
    near_orthogonal_dictionary,
    sphere_source,
    synth_sample,
)


# ------------------------------------------------------------------ records


def test_trial_record_finiteness():
    TrialRecord(trial=0, seed=1, n=2, p=3, k=1, stat=0.5)
    with pytest.raises(ValueError):
        TrialRecord(trial=0, seed=1, n=2, p=3, k=1, stat=float("nan"))
    with pytest.raises(ValueError):
        TrialRecord(trial=0, seed=1, n=2, p=3, k=1, stat=0.5, bound=float("inf"))
    # stats and bounds are errors and bounds on them, never negative
    with pytest.raises(ValueError, match="stat must be >= 0 and finite"):
        TrialRecord(trial=0, seed=1, n=2, p=3, k=1, stat=-0.5)


def test_records_csv_formatting():
    records = [
        TrialRecord(trial=0, seed=7, n=2, p=3, k=2, stat=0.25, bound=None,
                    applicable=False),
        TrialRecord(trial=1, seed=7, n=2, p=3, k=1.5, stat=1 / 3, m=100,
                    bound=0.1, applicable=True),
    ]
    text = records_to_csv(records)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER == "trial,seed,n,p,k,m,stat,bound,applicable"
    assert lines[1] == "0,7,2,3,2,,0.25,,false"
    assert lines[2] == f"1,7,2,3,1.5,100,{1 / 3!r},0.1,true"


# --------------------------------------------------------------- tail bound


def test_babel_tail_bound_frozen_values():
    assert babel_tail_bound(5000, 10, 1) == pytest.approx(8.054197523811536e-05, rel=1e-12)
    assert babel_tail_bound(5000, 10, 2) == pytest.approx(0.10464528572543154, rel=1e-12)


def test_babel_tail_bound_clamps():
    assert babel_tail_bound(2, 10, 1) == 1.0  # exponent 0: vacuous
    assert babel_tail_bound(1, 10, 1) == 1.0  # negative exponent clamps too
    tiny = babel_tail_bound(375000, 10, 1)  # exponent ~707: expm1 would overflow
    assert 0.0 < tiny < 1e-300
    assert babel_tail_bound(10**9, 10, 1) == 0.0  # underflows cleanly, no error


def test_babel_tail_bound_validation():
    with pytest.raises(ValueError):
        babel_tail_bound(100, 1, 1)
    with pytest.raises(ValueError):
        babel_tail_bound(100, 10, 10)


# ---------------------------------------------------------------- mc babel


def test_mc_babel_basic_run():
    result = mc_babel(50, 6, 2, trials=20, seed=3)
    assert isinstance(result, McBabelResult)
    assert 0.0 <= result.empirical <= 1.0
    assert len(result.records) == 20
    assert all(r.bound == result.bound for r in result.records)
    assert all(r.k == 2 and r.n == 50 for r in result.records)


def test_mc_babel_threshold_k_never_exceeded():
    result = mc_babel(8, 5, 2, trials=50, threshold=2.0, seed=4)
    assert result.empirical == 0.0


def test_mc_babel_bound_applies_only_at_threshold_one_half():
    # the tail bound is on P(mu_k > 1/2); beside P(mu_k > 0.3) it would be
    # mislabeled, so that run reports none and marks its records inapplicable
    default, half = mc_babel(20, 6, 2, trials=10, seed=7), mc_babel(20, 6, 2, trials=10, threshold=0.5, seed=7)
    assert default.bound == babel_tail_bound(20, 6, 2)
    assert all(r.bound == default.bound and r.applicable for r in default.records)
    assert records_to_csv(default.records) == records_to_csv(half.records)
    low = mc_babel(20, 6, 2, trials=10, threshold=0.3, seed=7)
    assert low.bound is None and low.empirical >= default.empirical
    assert all(r.bound is None and not r.applicable for r in low.records)
    assert [r.stat for r in low.records] == [r.stat for r in default.records]
    assert records_to_csv(low.records).splitlines()[1].endswith(f",{low.records[0].stat!r},,false")
    with pytest.raises(ValueError):  # k is checked at every threshold
        mc_babel(10, 5, 5, trials=5, threshold=0.3)


def test_mc_babel_deterministic_and_thread_invariant():
    a = mc_babel(30, 6, 2, trials=16, seed=5)
    b = mc_babel(30, 6, 2, trials=16, seed=5)
    c = mc_babel(30, 6, 2, trials=16, seed=5, threads=4)
    assert records_to_csv(a.records) == records_to_csv(b.records) == records_to_csv(c.records)


def test_mc_babel_shares_dictionaries_across_k():
    low = mc_babel(20, 6, 1, trials=25, seed=6)
    high = mc_babel(20, 6, 3, trials=25, seed=6)
    for r1, r3 in zip(low.records, high.records):
        assert r3.stat >= r1.stat - 1e-12  # same trial dictionary, larger k


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n, p, k", [(5000, 10, 1), (5000, 10, 2), (6, 12, 1), (6, 12, 2)])
def test_mc_babel_stat_is_the_babel_of_the_trial_dictionary(n, p, k, threads):
    # trials read Babel off their atoms' Gram without building a Dictionary;
    # that must move no bit of babel(Dictionary(atoms), k)
    records = mc_babel(n, p, k, trials=4, seed=9, threads=threads).records
    for i, record in enumerate(records):
        atoms = uniform_sphere_matrix(n, p, substream(9, i))
        assert record.stat.hex() == babel(Dictionary(atoms), k).value.hex()


def test_sphere_sampler_and_mc_babel_trials_hold_one_n_by_p_array():
    # the sampler fills its output a column at a time from one length-n
    # buffer, and a trial keeps no copy of the atoms: two n x p arrays live
    # at once would make glibc hand the heap top back and fault it in again
    # every trial
    n, p = 5000, 10
    bound = n * p * 8 + n * 8 + 16 * 1024
    mc_babel(n, p, 1, trials=1, seed=12)
    tracemalloc.start()
    try:
        uniform_sphere_matrix(n, p, substream(12, 0))
        sampler_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        mc_babel(n, p, 1, trials=3, seed=12)
        trials_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sampler_peak <= bound
    assert trials_peak <= bound


def test_mc_babel_validation():
    with pytest.raises(ValueError):
        mc_babel(10, 5, 5, trials=5)
    with pytest.raises(ValueError):
        mc_babel(10, 5, 2, trials=0)


# ---------------------------------------------------------- lipschitz probe


def test_lipschitz_probe_degenerate_pair():
    d = Dictionary(uniform_sphere_matrix(5, 7, substream(0, 0)))
    x = uniform_sphere_matrix(5, 10, substream(0, 1))
    with pytest.raises(ValueError, match="degenerate"):
        lipschitz_probe(d, d, x, L1Ball(1.0))


def test_lipschitz_probe_requires_normalized():
    d = Dictionary(uniform_sphere_matrix(5, 7, substream(1, 0)))
    bad = Dictionary(d.atoms * 1.5, gamma=2.0)
    with pytest.raises(ValueError, match="normalized"):
        lipschitz_probe(d, bad, uniform_sphere_matrix(5, 4, substream(1, 1)), L1Ball(1.0))


def test_lipschitz_probe_refuses_a_shape_mismatch():
    d = Dictionary(uniform_sphere_matrix(5, 7, substream(1, 0)))
    fewer = Dictionary(d.atoms[:, :6])
    with pytest.raises(ValueError, match=r"^shape mismatch: \(5, 7\) vs \(5, 6\)$"):
        lipschitz_probe(d, fewer, uniform_sphere_matrix(5, 4, substream(1, 1)), L1Ball(1.0))


@pytest.mark.parametrize("constraint", [HardK(2), L1Ball(1.0)], ids=["ksparse", "l1"])
def test_lipschitz_probe_rejects_wrong_dimension(constraint):
    # the coders' signal check makes it, on the first dictionary
    d, d_prime = perturbed_pair(Dictionary(uniform_sphere_matrix(5, 7, substream(1, 0))), 0.1,
                                substream(1, 2))
    with pytest.raises(ValueError, match=r"^signals must have dimension 5, got shape \(4, 3\)$"):
        lipschitz_probe(d, d_prime, uniform_sphere_matrix(4, 3, substream(1, 1)), constraint)


def test_lipschitz_probe_l1_within_lambda():
    lam = 2.0
    for i in range(10):
        d, d2 = perturbed_pair(
            Dictionary(uniform_sphere_matrix(6, 8, substream(2, i))), 1e-3, substream(3, i))
        signals = uniform_sphere_matrix(6, 50, substream(4, i))
        ratio = lipschitz_probe(d, d2, signals, L1Ball(lam))
        assert ratio <= lam + 1e-6


def test_lipschitz_probe_l1_warm_start_matches_cold():
    # the probe's ratio is the one from coding D and D' directly
    lam = 2.0
    d, d2 = perturbed_pair(Dictionary(uniform_sphere_matrix(6, 8, substream(51, 485))), 1e-3,
                           substream(52, 485))
    signals = uniform_sphere_matrix(6, 50, substream(53, 485))
    denom = me_norm(d.atoms - d2.atoms)
    cold = np.abs(l1_solve_batch(d, signals, lam)[1] - l1_solve_batch(d2, signals, lam)[1]).max() / denom
    assert lipschitz_probe(d, d2, signals, L1Ball(lam)) == pytest.approx(cold, abs=1e-10 / denom)


def _capture_calls(monkeypatch, module, attr):
    # the benchmark's wrappers take (d, signals, *rest); so does this one
    calls = []
    original = getattr(module, attr)

    def wrapped(d, signals, *rest):
        result = original(d, signals, *rest)
        calls.append((d, rest, result))
        return result

    monkeypatch.setattr(module, attr, wrapped)
    return calls


def test_lipschitz_probe_l1_guesses_with_the_codes_under_d(monkeypatch):
    lam = 2.0
    calls = _capture_calls(monkeypatch, experiments, "l1_solve_batch")
    for i in (0, 1, 314, 485):
        d, d2 = perturbed_pair(Dictionary(uniform_sphere_matrix(6, 8, substream(51, i))), 1e-3,
                               substream(52, i))
        signals = uniform_sphere_matrix(6, 50, substream(53, i))
        del calls[:]
        ratio = lipschitz_probe(d, d2, signals, L1Ball(lam))
        assert calls[0][0] is d and calls[1][0] is d2
        assert calls[0][1] in ((lam,), (lam, None)) and calls[1][1][1] is calls[0][2][0]
        denom = me_norm(d.atoms - d2.atoms)
        cold = np.abs(l1_solve_batch(d, signals, lam)[1] - l1_solve_batch(d2, signals, lam)[1]).max()
        assert abs(ratio - cold / denom) <= 2 * ERR_TOL / denom


def test_lipschitz_probe_ksparse_within_bound():
    k = 2
    for i in range(10):
        base = near_orthogonal_dictionary(8, 10, substream(5, i))
        d, d2 = perturbed_pair(base, 1e-3, substream(6, i))
        delta = max(babel(d, k - 1).value, babel(d2, k - 1).value)
        assert delta < 1.0
        signals = uniform_sphere_matrix(8, 50, substream(7, i))
        ratio = lipschitz_probe(d, d2, signals, HardK(k))
        assert ratio <= k / (1.0 - delta) + 1e-6


def test_perturbed_pair_scale():
    d = Dictionary(uniform_sphere_matrix(5, 6, substream(8, 0)))
    _, d2 = perturbed_pair(d, 1e-3, substream(8, 1))
    assert 1e-4 < me_norm(d.atoms - d2.atoms) < 5e-3
    with pytest.raises(ValueError):
        perturbed_pair(d, 0.0, substream(8, 2))


# ------------------------------------------------------------ non-lipschitz


def test_nonlipschitz_demo_example():
    demo = nonlipschitz_demo(8, 8, 2, 1e-4, seed=0)
    assert demo.ratio >= 100.0
    assert demo.h_perturbed <= 1e-10
    assert demo.distance <= 1e-4 + 1e-12
    assert abs(demo.q.norm() - 1.0) < 1e-9
    assert abs(demo.q.values[0]) < 1e-9
    assert demo.h_value >= 0.05


def test_nonlipschitz_ratio_grows_like_inverse_eps():
    first = nonlipschitz_demo(6, 6, 2, 1e-2, seed=1)
    q = first.q
    ratios = [first.ratio]
    for eps in (1e-3, 1e-4):
        ratios.append(nonlipschitz_demo(6, 6, 2, eps, seed=1, q=q).ratio)
    assert ratios[1] >= 5.0 * ratios[0]
    assert ratios[2] >= 5.0 * ratios[1]


def test_nonlipschitz_demo_validation():
    with pytest.raises(ValueError):
        nonlipschitz_demo(8, 8, 1, 1e-3)  # k = 1 has no atom pair to cancel
    with pytest.raises(ValueError):
        nonlipschitz_demo(3, 8, 4, 1e-3)
    with pytest.raises(ValueError):
        nonlipschitz_demo(8, 1, 2, 1e-3)
    with pytest.raises(ValueError):
        nonlipschitz_demo(8, 8, 2, 1.5)
    with pytest.raises(ValueError):
        nonlipschitz_demo(8, 8, 2, 1e-3, q=np.ones(8) / math.sqrt(8.0))  # not orthogonal


def test_nonlipschitz_search_failure_carries_best():
    with pytest.raises(SearchFailureError) as exc_info:
        nonlipschitz_demo(8, 8, 2, 1e-3, seed=2, search_samples=64, target=0.999)
    assert 0.0 < exc_info.value.best < 0.999


# ------------------------------------------------------------------- gengap


def small_gengap(constraint, variants, seed=11, m_grid=(64, 128), test_size=400):
    d_true = Dictionary(uniform_sphere_matrix(6, 8, substream(seed, 0)))
    source = dictionary_source(d_true, k_true=2, sigma=0.0, seed=seed)
    config = LearnerConfig(p=8, constraint=constraint, iterations=6, seed=seed)
    return gengap_run(source, config, m_grid, test_size, variants=variants)


def test_gengap_ksparse_records_and_bounds():
    records, points = small_gengap(HardK(2), ("maurer", "slow"))
    assert len(records) == 2 * 2 and len(points) == 2
    for point in points:
        assert point.delta is not None and 0.0 <= point.delta
        for ev in point.evals:
            if not ev.applicable:
                assert ev.bound_value is None and ev.note
                continue
            assert ev.bound_value == pytest.approx(
                ev.report.multiplier * ev.train_stat + ev.report.additive, rel=1e-12)
            if ev.report.loss_scale == "squared":
                assert ev.train_stat == pytest.approx(point.train_sq_mean)
                assert ev.test_stat == pytest.approx(point.test_sq_mean)
            else:
                assert ev.train_stat == pytest.approx(point.train_mean)
    csv_text = records_to_csv(records)
    lines = csv_text.splitlines()
    assert lines[0] == CSV_HEADER
    # ksparse runs print k as a bare integer
    assert lines[1].split(",")[4] == "2"


def test_gengap_ksparse_bounds_take_delta_from_the_grid_at_x_plus_log_j():
    # the measured delta is chosen after seeing the sample: the bound rounds it
    # up to the fixed grid and pays ln|DELTA_GRID| = ln 20 in x
    _, (point,) = small_gengap(HardK(2), L1_VARIANTS, m_grid=(64,))
    step = DELTA_GRID[1]
    used = min(d for d in DELTA_GRID if d >= point.delta)
    assert used - step < point.delta <= used and point.delta != used  # 0.894 -> 0.9
    inputs = BoundInputs(n=6, p=8, m=64, x=2.0 + math.log(20), k=2, delta=used)
    for ev in point.evals:
        assert ev.applicable
        if ev.variant == "fast":
            _, expected = optimize_fast_params(inputs, FAST_K_GRID, "ksparse",
                                               empirical=point.train_mean)
            assert ev.report.parts["confidence"] == pytest.approx(
                (11.0 * (2.0 + math.log(20) + math.log(6)) + 5.0 * ev.k_fast) / 64, rel=1e-12)
        else:
            expected = ksparse_generalization_bound(inputs, ev.variant)
            assert ev.report.parts["confidence"] == pytest.approx(
                math.sqrt((2.0 + math.log(20)) / 128), rel=1e-12)
        assert ev.report == expected


def test_delta_grid_rounds_up_and_is_inapplicable_above_its_top():
    assert len(DELTA_GRID) == 20 and DELTA_GRID[-1] == 0.95
    for measured, used in [(0.0, 0.0), (0.45, 0.45), (0.4501, 0.5), (0.93, 0.95), (0.95, 0.95)]:
        inputs = _on_delta_grid(BoundInputs(n=6, p=8, m=64, x=2.0, k=2, delta=measured))
        assert (inputs.delta, inputs.x) == (used, 2.0 + math.log(20))
    with pytest.raises(InapplicableError, match="above the delta grid's top value 0.95"):
        _on_delta_grid(BoundInputs(n=6, p=8, m=64, x=2.0, k=2, delta=0.9501))


def test_gengap_babel_at_least_one_records_every_variant_inapplicable():
    # nine atoms in R^3 have mu_2 >= 1, so no k-sparse calculator applies;
    # each variant still gets a record: the plain test mean and no bound
    config = LearnerConfig(p=9, constraint=HardK(3), iterations=3, seed=0)
    records, (point,) = gengap_run(sphere_source(3, seed=0), config, (20,), 200)
    assert point.delta >= 1.0
    assert [ev.variant for ev in point.evals] == ["maurer", "slow", "fast"]
    for ev, record in zip(point.evals, records):
        assert not ev.applicable and ev.bound_value is None and ev.note
        assert (ev.train_stat, ev.test_stat) == (point.train_mean, point.test_mean)
        assert (record.stat, record.bound, record.applicable) == (point.test_mean, None, False)


def test_gengap_l1_uses_lambda_column():
    records, points = small_gengap(L1Ball(1.5), ("slow",))
    assert records_to_csv(records).splitlines()[1].split(",")[4] == "1.5"
    for point in points:
        assert point.delta is None


def test_gengap_l1_codes_its_train_set_from_the_learners_last_codes(monkeypatch):
    results = []
    learn_dictionary = experiments.learn_dictionary
    monkeypatch.setattr(experiments, "learn_dictionary",
                        lambda *args: results.append(learn_dictionary(*args)) or results[-1])
    calls = _capture_calls(monkeypatch, experiments, "l1_solve_batch")
    _records, points = small_gengap(L1Ball(1.5), ("slow",))
    assert len(results) == 2 and len(calls) == 4
    for result, point, train, test in zip(results, points, calls[::2], calls[1::2]):
        assert train[0] is result.dictionary and test[0] is result.dictionary
        assert train[1][0] == 1.5 and train[1][1] is result.coeffs
        assert test[1] in ((1.5,), (1.5, None))
        assert point.train_mean == float(np.mean(train[2][1]))


def test_gengap_deterministic_and_thread_invariant():
    r1, _ = small_gengap(HardK(2), ("slow",), seed=12)
    r2, _ = small_gengap(HardK(2), ("slow",), seed=12)
    assert records_to_csv(r1) == records_to_csv(r2)
    d_true = Dictionary(uniform_sphere_matrix(6, 8, substream(12, 0)))
    source = dictionary_source(d_true, k_true=2, sigma=0.0, seed=12)
    config = LearnerConfig(p=8, constraint=HardK(2), iterations=6, seed=12)
    r3, _ = gengap_run(source, config, (64, 128), 400, variants=("slow",), threads=3)
    assert records_to_csv(r1) == records_to_csv(r3)


def test_gengap_realizable_case_has_small_gap():
    _, points = small_gengap(HardK(2), ("slow",), seed=13, m_grid=(256,), test_size=2000)
    point = points[0]
    assert point.train_mean <= 0.5
    assert abs(point.gap) <= 0.05


def test_gengap_fast_variant_records_chosen_params():
    records, points = small_gengap(L1Ball(1.0), ("fast",))
    for point in points:
        ev = point.evals[0]
        if ev.applicable:
            assert ev.k_fast in FAST_K_GRID and 0.0 < ev.report.alpha < point.m


def test_gengap_at_m_up_to_16_keeps_fast_records_applicable():
    # a fixed alpha of 16 or more would raise "need m/alpha > 1" at these m
    d_true = Dictionary(uniform_sphere_matrix(6, 8, substream(11, 0)))
    source = dictionary_source(d_true, k_true=2, sigma=0.0, seed=11)
    config = LearnerConfig(p=8, constraint=L1Ball(1.0), iterations=6, seed=11)
    records, points = gengap_run(source, config, (8, 16), 100)  # the default variants
    assert [ev.variant for ev in points[0].evals] == list(L1_VARIANTS)
    for point in points:
        fast = point.evals[L1_VARIANTS.index("fast")]
        assert fast.applicable and 0.0 < fast.report.alpha < point.m
        assert fast.test_stat <= fast.bound_value
    assert len(records) == 2 * len(L1_VARIANTS)


def test_sampled_signals_are_never_wrapped_one_by_one(monkeypatch, tmp_path, capsys):
    # the sampler checks its n x m block once; a Signal per drawn column would
    # copy and norm-check every signal again (10,600 per gengap-ksparse run)
    built = []
    check = Signal.__post_init__
    monkeypatch.setattr(Signal, "__post_init__", lambda self: (built.append(1), check(self)))
    for constraint in (HardK(2), L1Ball(1.5)):
        small_gengap(constraint, ("slow",), m_grid=(24, 32), test_size=50)
    for synth in ("dict:n=6,ptrue=8,ktrue=2,sigma=0.1,m=40", "sphere:n=6,m=40"):
        assert main(["learn", "--synth", synth, "--p", "8", "--k", "2", "--iters", "2",
                     "--out", str(tmp_path / "d.csv")]) == 0
    assert built == []
    Signal(np.ones(2))
    assert built == [1]  # the count sees a Signal when one is built


def test_gengap_validation():
    d_true = Dictionary(uniform_sphere_matrix(6, 8, substream(14, 0)))
    source = dictionary_source(d_true, k_true=2, sigma=0.0, seed=14)
    config = LearnerConfig(p=8, constraint=HardK(2), iterations=2, seed=14)
    with pytest.raises(ValueError):
        gengap_run(source, config, (), 100)
    with pytest.raises(ValueError):
        gengap_run(source, config, (64,), 0)
    with pytest.raises(ValueError):
        gengap_run(source, config, (64,), 100, variants=("nope",))
    # non-integral counts raise instead of being truncated
    with pytest.raises(ValueError, match="m_grid entry must be an integer"):
        gengap_run(source, config, (64, 96.5), 100)
    with pytest.raises(ValueError, match="test_size must be an integer"):
        gengap_run(source, config, (64,), 100.5)
    for call, name in ((lambda: mc_babel(6.5, 4.9, 1, trials=3, seed=1), "n"),
                       (lambda: mc_babel(6, 4.9, 1, trials=3, seed=1), "p"),
                       (lambda: babel_tail_bound(6, 4, 1.7), "k"),
                       (lambda: nonlipschitz_demo(8, 8.5, 2, 1e-3), "p")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call()


# --------------------------------------------------------------- gap trend


def fake_point(m, gap, se=0.01):
    return GapPoint(m=m, train_mean=0.1, test_mean=0.1 + gap, train_sq_mean=0.0,
                    test_sq_mean=0.0, train_se=0.0, test_se=se, delta=None, evals=())


def test_gap_trend_nonincreasing():
    down = [fake_point(100, 0.20), fake_point(200, 0.10), fake_point(400, 0.05)]
    assert gap_trend_nonincreasing(down) is True
    up = [fake_point(100, 0.05), fake_point(200, 0.50)]
    assert gap_trend_nonincreasing(up) is False
    # small wiggles within the stderr budget are tolerated
    wiggle = [fake_point(100, 0.10), fake_point(200, 0.11)]
    assert gap_trend_nonincreasing(wiggle) is True
    # unordered input is sorted by m before checking
    assert gap_trend_nonincreasing(list(reversed(down))) is True
