import math
from dataclasses import replace

import pytest

from dlbounds.bounds import (
    BoundInputs,
    BoundReport,
    L1_VARIANTS,
    fast_rate_generic,
    ksparse_generalization_bound,
    l1_generalization_bound,
    lambert_w,
    log_cover_ksparse,
    log_cover_l1,
    log_integral_check,
    optimize_fast_params,
    slow_rate_generic,
)
from dlbounds.core import InapplicableError

M_GRID = [10**e for e in range(2, 9)]


def l1_inputs(**kw):
    base = dict(n=2, p=2, m=10**4, x=2.0, lam=1.0)
    base.update(kw)
    return BoundInputs(**base)


# --------------------------------------------------------------- log covers


def test_log_cover_l1_value():
    assert log_cover_l1(2, 3, 1.0, 1.0) == pytest.approx(8.317766166719343, abs=1e-12)


def test_log_cover_l1_clamps_at_single_ball():
    assert log_cover_l1(2, 3, 1.0, 4.0) == 0.0
    assert log_cover_l1(2, 3, 1.0, 9.0) == 0.0


def test_log_cover_l1_eps_doubling():
    a = log_cover_l1(3, 4, 2.0, 0.1)
    b = log_cover_l1(3, 4, 2.0, 0.2)
    assert a - b == pytest.approx(12 * math.log(2), abs=1e-12)


def test_log_cover_l1_rejects_bad_args():
    with pytest.raises(ValueError):
        log_cover_l1(2, 2, 0.0, 1.0)
    with pytest.raises(ValueError):
        log_cover_l1(2, 2, 1.0, 0.0)


def test_log_cover_ksparse_value():
    assert log_cover_ksparse(2, 2, 2, 0.5, 1.0) == pytest.approx(11.090354888959125, abs=1e-12)


def test_log_cover_ksparse_reduces_to_l1():
    assert log_cover_ksparse(3, 5, 1, 0.0, 0.7) == log_cover_l1(3, 5, 1.0, 0.7)


def test_log_cover_ksparse_monotone_in_delta():
    values = [log_cover_ksparse(2, 3, 2, d, 0.5) for d in (0.0, 0.3, 0.6, 0.9, 0.99)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_log_cover_ksparse_delta_errors():
    with pytest.raises(InapplicableError):
        log_cover_ksparse(2, 2, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        log_cover_ksparse(2, 2, 2, -0.1, 1.0)


# ------------------------------------------------------------- generic slow


def test_slow_rate_generic_hand_value():
    report = slow_rate_generic(B=1.0, C=4.0, d=4.0, m=10**4, x=2.0)
    assert report.parts["cover"] == pytest.approx(0.034616367652045704, abs=1e-15)
    assert report.parts["confidence"] == pytest.approx(0.01, abs=1e-15)
    assert report.parts["discretization"] == pytest.approx(0.02, abs=1e-15)
    assert report.additive == pytest.approx(0.0646163676520457, abs=1e-15)
    assert report.multiplier == 1.0
    assert not report.vacuous


def test_slow_rate_generic_decreasing_in_m():
    a = slow_rate_generic(1.0, 4.0, 4.0, 10**4, 2.0).additive
    b = slow_rate_generic(1.0, 4.0, 4.0, 10**6, 2.0).additive
    assert b < a


def test_slow_rate_generic_confidence_vanishes():
    report = slow_rate_generic(1.0, 4.0, 4.0, 10**4, 1e-300)
    assert report.parts["confidence"] < 1e-140


def test_slow_rate_generic_precondition():
    # cover of size (C sqrt(m))^d must exceed e / B^2
    with pytest.raises(InapplicableError):
        slow_rate_generic(B=1.0, C=0.5, d=1.0, m=1, x=1.0)
    # and be at least 1: for B > sqrt(e), e / B^2 < 1 admits a negative log cover
    with pytest.raises(InapplicableError, match="is below 1"):
        slow_rate_generic(B=2.0, C=0.9, d=1.0, m=1, x=1.0)
    # a one-element cover stays applicable, with no cover term
    assert slow_rate_generic(B=2.0, C=0.5, d=1.0, m=4, x=1.0).parts["cover"] == 0.0


# ------------------------------------------------------------- generic fast


def test_fast_rate_generic_hand_value():
    report = fast_rate_generic(C=4.0, d=4.0, m=10**4, x=2.0, K=2.0, alpha=1.0)
    assert report.branch == "entropy"
    assert report.multiplier == pytest.approx(2.0)
    assert report.parts["localization"] == pytest.approx(12 * 1061.0312108516562, rel=1e-12)
    assert report.additive == pytest.approx(12732.377730219872, rel=1e-12)
    assert report.vacuous  # desk-scale constants make the bound huge


def test_fast_rate_generic_rejects_small_C():
    with pytest.raises(InapplicableError):
        fast_rate_generic(C=2.0, d=4.0, m=10**4, x=2.0, K=2.0, alpha=1.0)


def test_fast_rate_generic_K_validation():
    with pytest.raises(ValueError):
        fast_rate_generic(C=4.0, d=4.0, m=10**4, x=2.0, K=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        fast_rate_generic(C=4.0, d=4.0, m=10**4, x=2.0, K=2.0, alpha=0.0)


def test_fast_rate_generic_decreasing_in_m():
    values = [fast_rate_generic(4.0, 4.0, m, 2.0, 2.0, 1.0).additive for m in M_GRID]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_lambert_w_matches_scipy():
    from scipy.special import lambertw

    for e in range(-300, 301):
        z = 10.0 ** e
        reference = float(lambertw(z).real)
        assert abs(lambert_w(z) - reference) <= 4.5e-16 * reference, z


def _scan_additive(C, d, m, alphas):
    return [fast_rate_generic(C, d, m, 2.0, 2.0, a).additive for a in alphas]


@pytest.mark.parametrize("C, d, m, branch", [
    (2.1, 1.0, 10, "logm"),        # the alpha-free branch dominates every alpha
    (4.0, 4.0, 10**4, None),       # the alpha and entropy branches meet at alpha*
    (4.0, 96.0, 10**9, None),      # gengap-l1's class (n = 8, p = 12, lam = 1)
])
def test_fast_alpha_star_beats_a_dense_scan(C, d, m, branch):
    star = fast_rate_generic(C, d, m, 2.0, 2.0)
    assert (star.branch == "logm") == (branch == "logm")
    assert 0.0 < star.alpha < m
    z = C * C * m / (2.0 * 480.0 ** 2 * (d + 1.0))
    assert star.alpha == pytest.approx(m * lambert_w(z) / z, rel=1e-14)
    scan = [m * 10.0 ** (-t / 500.0) for t in range(1, 6001)]  # m e-12 .. m (1 - 0.5%)
    scan += [m * (1.0 - 10.0 ** -e) for e in range(3, 13)]     # up against m
    assert min(_scan_additive(C, d, m, scan)) >= star.additive * (1.0 - 1e-12)


def test_fast_alpha_star_at_m_one_and_huge_d():
    # z = cm underflows towards 0: W(z) = z to rounding and alpha* = m
    for d in (1e6, 1e12, 1e300):
        report = fast_rate_generic(C=4.0, d=d, m=1, x=2.0, K=2.0)
        assert 0.0 < report.alpha <= 1.0
        assert report.branch == "logm" and report.additive == pytest.approx(6 * 2 * 20.0 + 11 * 2 + 5 * 2)
    report = fast_rate_generic(C=400.0, d=1e300, m=1, x=2.0, K=2.0)
    assert report.branch in ("alpha", "entropy")
    assert report.parts["localization"] == pytest.approx(12 * 400.0 ** 2 / 2, rel=1e-12)


# ---------------------------------------------------------------- l1 bounds


def test_l1_maurer_hand_value():
    report = l1_generalization_bound(BoundInputs(p=2, m=10**4, x=2.0, lam=1.0), "maurer")
    assert report.additive == pytest.approx(0.3246163676520457, abs=1e-15)
    assert report.loss_scale == "squared"
    assert report.multiplier == 1.0


def test_l1_maurer_needs_enough_mass():
    with pytest.raises(InapplicableError):
        l1_generalization_bound(BoundInputs(p=2, m=10, x=2.0, lam=1e-3), "maurer")


def test_l1_slow_matches_generic():
    via_l1 = l1_generalization_bound(l1_inputs(), "slow")
    direct = slow_rate_generic(B=1.0, C=4.0, d=4.0, m=10**4, x=2.0)
    assert via_l1.parts == direct.parts
    assert via_l1.additive == pytest.approx(0.0646163676520457, abs=1e-15)


def test_l1_fast_matches_generic():
    via_l1 = l1_generalization_bound(l1_inputs(K=2.0, alpha=1.0), "fast")
    direct = fast_rate_generic(C=4.0, d=4.0, m=10**4, x=2.0, K=2.0, alpha=1.0)
    assert via_l1.parts == direct.parts and via_l1.branch == direct.branch


def test_l1_fast_refuses_small_lambda():
    with pytest.raises(InapplicableError):
        l1_generalization_bound(l1_inputs(lam=0.5, K=2.0, alpha=1.0), "fast")


def test_l1_slow_lambda_growth_is_logarithmic():
    lo = l1_generalization_bound(l1_inputs(), "slow").additive
    hi = l1_generalization_bound(l1_inputs(lam=1e6), "slow").additive
    n, p, m = 2, 2, 10**4
    assert hi - lo <= math.sqrt(n * p * math.log(1e6) / (2 * m)) + 1e-12


def test_l1_variant_and_field_validation():
    with pytest.raises(ValueError):
        l1_generalization_bound(l1_inputs(), "nope")
    with pytest.raises(ValueError):
        l1_generalization_bound(l1_inputs(lam=-1.0), "slow")
    with pytest.raises(ValueError):
        l1_generalization_bound(BoundInputs(m=100, x=1.0, lam=1.0), "slow")  # n, p missing


# ----------------------------------------------------------- ksparse bounds


def test_ksparse_slow_hand_value():
    report = ksparse_generalization_bound(
        BoundInputs(n=2, p=2, m=10**4, x=2.0, k=2, delta=0.5), "slow")
    assert report.additive == pytest.approx(0.06841291165279684, abs=1e-15)


def test_ksparse_substitution_identity():
    for variant in ("maurer", "slow"):
        ks = ksparse_generalization_bound(
            BoundInputs(n=3, p=5, m=10**5, x=1.5, k=3, delta=0.25), variant)
        l1 = l1_generalization_bound(
            BoundInputs(n=3, p=5, m=10**5, x=1.5, lam=3 / 0.75), variant)
        assert ks.parts == l1.parts and ks.loss_scale == l1.loss_scale
    ks = ksparse_generalization_bound(
        BoundInputs(n=3, p=5, m=10**5, x=1.5, k=3, delta=0.25, K=2.0, alpha=1.0), "fast")
    l1 = l1_generalization_bound(
        BoundInputs(n=3, p=5, m=10**5, x=1.5, lam=4.0, K=2.0, alpha=1.0), "fast")
    assert ks.parts == l1.parts


def test_ksparse_delta_zero_k_one_is_l1_lambda_one():
    ks = ksparse_generalization_bound(
        BoundInputs(n=2, p=4, m=10**4, x=2.0, k=1, delta=0.0), "slow")
    l1 = l1_generalization_bound(BoundInputs(n=2, p=4, m=10**4, x=2.0, lam=1.0), "slow")
    assert ks.parts == l1.parts


def test_ksparse_delta_at_least_one_inapplicable():
    with pytest.raises(InapplicableError):
        ksparse_generalization_bound(
            BoundInputs(n=2, p=2, m=10**4, x=2.0, k=2, delta=1.0), "slow")


def test_ksparse_maurer_is_squared_scale():
    report = ksparse_generalization_bound(
        BoundInputs(p=4, m=10**4, x=2.0, k=2, delta=0.5), "maurer")
    assert report.loss_scale == "squared"


# ------------------------------------------------------------- monotonicity


def variant_calls():
    yield "l1-maurer", lambda **kw: l1_generalization_bound(
        l1_inputs(**kw.get("inp", {})), "maurer")
    yield "l1-slow", lambda **kw: l1_generalization_bound(
        l1_inputs(**kw.get("inp", {})), "slow")
    yield "l1-fast", lambda **kw: l1_generalization_bound(
        l1_inputs(K=2.0, alpha=1.0, **kw.get("inp", {})), "fast")


@pytest.mark.parametrize("name,call", list(variant_calls()))
def test_additive_nonincreasing_in_m(name, call):
    values = [call(inp=dict(m=m)).additive for m in M_GRID]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("name,call", list(variant_calls()))
def test_additive_nondecreasing_in_x_and_lam(name, call):
    xs = [call(inp=dict(x=x)).additive for x in (0.5, 1.0, 2.0, 5.0)]
    assert all(b >= a - 1e-15 for a, b in zip(xs, xs[1:]))
    lams = [call(inp=dict(lam=lam)).additive for lam in (1.0, 2.0, 5.0, 20.0)]
    assert all(b >= a - 1e-15 for a, b in zip(lams, lams[1:]))


def test_ksparse_additive_nondecreasing_in_k_and_delta():
    def ks(**kw):
        base = dict(n=2, p=2, m=10**4, x=2.0, k=2, delta=0.5)
        base.update(kw)
        return ksparse_generalization_bound(BoundInputs(**base), "slow").additive

    ks_values = [ks(k=k) for k in (1, 2, 4, 8)]
    assert all(b >= a - 1e-15 for a, b in zip(ks_values, ks_values[1:]))
    deltas = [ks(delta=d) for d in (0.0, 0.25, 0.5, 0.9)]
    assert all(b >= a - 1e-15 for a, b in zip(deltas, deltas[1:]))


def test_slow_additive_nondecreasing_in_n_p():
    def slow(n, p):
        return l1_generalization_bound(
            BoundInputs(n=n, p=p, m=10**4, x=2.0, lam=1.0), "slow").additive

    assert slow(2, 2) <= slow(4, 2) <= slow(4, 6) <= slow(8, 6)


# ------------------------------------------------------------- report shape


def test_report_parts_sum_and_dict():
    report = slow_rate_generic(1.0, 4.0, 4.0, 10**4, 2.0)
    as_dict = report.to_dict()
    assert as_dict["additive"] == pytest.approx(sum(as_dict["parts"].values()), abs=1e-12)
    assert set(as_dict) == {"multiplier", "additive", "parts", "vacuous", "loss_scale", "branch",
                            "alpha"}
    assert isinstance(report, BoundReport)


# ----------------------------------------------------------- fast-param opt


def test_optimize_single_point_grid():
    k, report = optimize_fast_params(l1_inputs(alpha=2.0), [3.0], "l1")
    assert (k, report.alpha) == (3.0, 2.0)
    direct = l1_generalization_bound(l1_inputs(K=3.0, alpha=2.0), "fast")
    assert report.parts == direct.parts


def test_optimize_refuses_an_unknown_family():
    with pytest.raises(ValueError, match=r"^family must be 'l1' or 'ksparse', got 'kernel'$"):
        optimize_fast_params(l1_inputs(), [2.0], "kernel")


def test_optimize_zero_proxy_minimizes_additive():
    ks = [1.25, 1.5, 2.0, 3.0]
    k, report = optimize_fast_params(l1_inputs(), ks, "l1")
    best = min(l1_generalization_bound(l1_inputs(K=kv), "fast").additive for kv in ks)
    assert report.additive == pytest.approx(best, rel=1e-12)


def test_optimize_refined_grid_dominates():
    coarse = optimize_fast_params(l1_inputs(), [2.0], "l1", empirical=0.3)
    fine = optimize_fast_params(l1_inputs(), [1.25, 1.5, 2.0, 3.0, 5.0], "l1", empirical=0.3)

    def objective(result):
        _, report = result
        return report.multiplier * 0.3 + report.additive

    assert objective(fine) <= objective(coarse) + 1e-12


def test_optimize_keeps_a_given_alpha_and_otherwise_uses_alpha_star():
    ks = (1.25, 1.5, 2.0, 3.0, 5.0, 10.0)
    k, report = optimize_fast_params(l1_inputs(alpha=0.25), ks, "l1")
    assert report.alpha == 0.25
    assert report.parts == l1_generalization_bound(l1_inputs(K=k, alpha=0.25), "fast").parts
    k, report = optimize_fast_params(l1_inputs(), ks, "l1")
    assert report.alpha == l1_generalization_bound(l1_inputs(K=k), "fast").alpha


def test_optimize_confidence_carries_log_grid_size_with_empirical():
    # a K chosen from the sample pays the union bound over the six-point grid
    ks = (1.25, 1.5, 2.0, 3.0, 5.0, 10.0)
    inputs = l1_inputs(n=8, p=12, m=10**6)
    k, report = optimize_fast_params(inputs, ks, "l1", empirical=0.1)
    expected = (11.0 * (2.0 + math.log(6)) + 5.0 * k) / 10**6
    assert report.parts["confidence"] == pytest.approx(expected, rel=1e-12)
    k, report = optimize_fast_params(inputs, ks, "l1")
    assert report.parts["confidence"] == pytest.approx((11.0 * 2.0 + 5.0 * k) / 10**6, rel=1e-12)


@pytest.mark.parametrize("empirical", [None, 0.2])
def test_optimize_reports_every_small_m(empirical):
    # alpha* < m at every m, where a fixed alpha of 16 would raise "need m/alpha > 1"
    for m in range(1, 17):
        inputs = BoundInputs(n=8, p=12, m=m, x=2.0, lam=1.0)
        k, report = optimize_fast_params(inputs, (1.25, 2.0, 10.0), "l1", empirical=empirical)
        assert 0.0 < report.alpha < m and math.isfinite(report.additive)
        ks_inputs = BoundInputs(n=8, p=12, m=m, x=2.0, k=2, delta=0.3)
        _, report = optimize_fast_params(ks_inputs, (1.25, 2.0), "ksparse", empirical=empirical)
        assert report.alpha < m


@pytest.mark.parametrize("inputs,family", [
    (l1_inputs(), "l1"), (l1_inputs(alpha=0.25), "l1"), (l1_inputs(n=8, p=12, m=10**9), "l1"),
    (BoundInputs(n=8, p=12, m=5, x=2.0, lam=1.0), "l1"),
    (BoundInputs(n=4, p=6, m=10**5, x=2.0, k=2, delta=0.5), "ksparse")])
def test_optimize_without_empirical_picks_the_smallest_k(inputs, family):
    # 6 K max(branches) and 5 K / m both grow with K, and nothing else in the
    # additive term depends on it
    ks = (10.0, 1.5, 3.0, 1.25, 2.0, 5.0)
    assert optimize_fast_params(inputs, ks, family)[0] == 1.25
    calc = l1_generalization_bound if family == "l1" else ksparse_generalization_bound
    additives = [calc(replace(inputs, K=kv), "fast").additive for kv in sorted(ks)]
    assert all(a < b for a, b in zip(additives, additives[1:]))


@pytest.mark.parametrize("variant", L1_VARIANTS)
@pytest.mark.parametrize("family", ["l1", "ksparse"])
def test_euclidean_bounds_refuse_gamma_other_than_one(family, variant):
    # the l1 and k-sparse bounds are for unit atoms; a norm cap they would
    # not read is refused, and the same inputs at gamma = 1 are applicable
    calc = l1_generalization_bound if family == "l1" else ksparse_generalization_bound
    inputs = BoundInputs(n=3, p=5, m=10**4, x=2.0, lam=1.5, k=2, delta=0.2, K=2.0, gamma=2.0)
    with pytest.raises(InapplicableError, match=r"need unit atoms \(gamma = 1\), got gamma = 2"):
        calc(inputs, variant)
    if variant == "fast":
        with pytest.raises(InapplicableError, match="need unit atoms"):
            optimize_fast_params(inputs, [1.5, 2.0], family)
        optimize_fast_params(replace(inputs, gamma=1.0), [1.5, 2.0], family)
    calc(replace(inputs, gamma=1.0), variant)


def test_optimize_all_inapplicable():
    with pytest.raises(InapplicableError):
        optimize_fast_params(l1_inputs(lam=0.4), [2.0], "l1")


def test_variants_tuple_exposed():
    assert set(L1_VARIANTS) == {"maurer", "slow", "fast"}


# -------------------------------------------------------- entropy integral


def test_log_integral_boundary_gamma():
    assert log_integral_check(math.sqrt(math.e), [1.0]) <= 1e-8


def test_log_integral_gamma_ten_sweep():
    import numpy as np

    grid = np.linspace(0.01, 1.0, 100)
    assert log_integral_check(10.0, grid) <= 1e-8


def test_log_integral_closed_form_matches_quadrature():
    # the closed-form violation against adaptive quadrature of the left side,
    # on criterion 7's grid
    import numpy as np
    from scipy.integrate import quad

    worst = 0.0
    for gamma in np.linspace(math.sqrt(math.e), 10.0, 20):
        for x in np.linspace(0.01, 1.0, 100):
            lhs = quad(lambda e: math.sqrt(math.log(gamma / e)), 0.0, x, epsabs=1e-10, limit=200)[0]
            oracle = lhs - 2.0 * x * math.sqrt(math.log(gamma / x))
            worst = max(worst, abs(log_integral_check(gamma, [x]) - oracle))
    assert worst <= 1e-9


def test_log_integral_rejects_small_gamma():
    with pytest.raises(InapplicableError):
        log_integral_check(1.0, [0.5])
    with pytest.raises(ValueError):
        log_integral_check(10.0, [0.0])
    with pytest.raises(ValueError):
        log_integral_check(10.0, [1.5])
