import math

import numpy as np
import pytest

from dlbounds.coders import l1_solve_batch
from dlbounds.coherence import babel
from dlbounds.core import (
    Dictionary,
    HardK,
    L1Ball,
    SearchFailureError,
    me_norm,
    substream,
    uniform_sphere_matrix,
)
from dlbounds.experiments import (
    CSV_HEADER,
    FAST_ALPHA_GRID,
    FAST_K_GRID,
    GapPoint,
    McBabelResult,
    TrialRecord,
    babel_tail_bound,
    gap_trend_nonincreasing,
    gengap_run,
    lipschitz_probe,
    mc_babel,
    nonlipschitz_demo,
    perturbed_pair,
    records_to_csv,
    save_records,
)
from dlbounds.learn import (
    LearnerConfig,
    dictionary_source,
    near_orthogonal_dictionary,
    synth_sample,
)


# ------------------------------------------------------------------ records


def test_trial_record_finiteness():
    TrialRecord(trial=0, seed=1, n=2, p=3, k=1, stat=0.5)
    with pytest.raises(ValueError):
        TrialRecord(trial=0, seed=1, n=2, p=3, k=1, stat=float("nan"))
    with pytest.raises(ValueError):
        TrialRecord(trial=0, seed=1, n=2, p=3, k=1, stat=0.5, bound=float("inf"))


def test_records_csv_formatting(tmp_path):
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
    path = tmp_path / "records.csv"
    save_records(records, path)
    assert path.read_text() == text


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


def test_lipschitz_probe_l1_within_lambda():
    lam = 2.0
    for i in range(10):
        d, d2 = perturbed_pair(
            Dictionary(uniform_sphere_matrix(6, 8, substream(2, i))), 1e-3, substream(3, i))
        signals = uniform_sphere_matrix(6, 50, substream(4, i))
        ratio = lipschitz_probe(d, d2, signals, L1Ball(lam))
        assert ratio <= lam + 1e-6


def test_lipschitz_probe_l1_warm_start_matches_cold():
    # the probe codes D' from D's solution; coding both from zero gives the same ratio
    lam = 2.0
    d, d2 = perturbed_pair(Dictionary(uniform_sphere_matrix(6, 8, substream(51, 485))), 1e-3,
                           substream(52, 485))
    signals = uniform_sphere_matrix(6, 50, substream(53, 485))
    denom = me_norm(d.atoms - d2.atoms)
    cold = np.abs(l1_solve_batch(d, signals, lam)[1] - l1_solve_batch(d2, signals, lam)[1]).max() / denom
    assert lipschitz_probe(d, d2, signals, L1Ball(lam)) == pytest.approx(cold, abs=1e-10 / denom)


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


def test_gengap_l1_uses_lambda_column():
    records, points = small_gengap(L1Ball(1.5), ("slow",))
    assert records_to_csv(records).splitlines()[1].split(",")[4] == "1.5"
    for point in points:
        assert point.delta is None


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
            assert ev.k_fast in FAST_K_GRID and ev.alpha_fast in FAST_ALPHA_GRID


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
