"""Acceptance gate: one test per shipped guarantee, each at its stated
tolerance and scale, printing one PASS line when it holds (run with -v for
per-criterion pass/fail lines).  Budgeted to finish in well under ten
minutes total on a laptop."""

import math
import time

import numpy as np
import pytest
from scipy.stats import binom

from dlbounds.bounds import (
    BoundInputs,
    coeff_l1_bound,
    ksparse_generalization_bound,
    l1_generalization_bound,
    log_integral_check,
)
from dlbounds.cli import RunManifest, argv_from_manifest, main
from dlbounds.coders import exact_ksparse, greedy_ksparse
from dlbounds.coherence import babel, babel_bruteforce
from dlbounds.core import (
    Dictionary,
    HardK,
    L1Ball,
    sample_uniform_sphere,
    substream,
    uniform_sphere_matrix,
)
from dlbounds.experiments import (
    babel_tail_bound,
    gap_trend_nonincreasing,
    gengap_run,
    lipschitz_probe,
    mc_babel,
    nonlipschitz_demo,
    perturbed_pair,
)
from dlbounds.kernels import (
    KernelDictionary,
    feature_babel,
    gaussian_kernel,
    holder_feature_check,
    kernel_greedy_ksparse,
    kernel_repr_error,
    linear_kernel,
    polynomial_kernel,
)
from dlbounds.learn import (
    LearnerConfig,
    dictionary_source,
    learn_dictionary,
    near_orthogonal_dictionary,
)


def test_criterion_01_babel_oracle_equivalence():
    # fast Babel == guarded brute force to 1e-12 on 200 random dictionaries
    for i in range(200):
        rng = substream(11, i)
        n = int(rng.integers(2, 7))
        p = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(4, p - 1) + 1))
        d = Dictionary(uniform_sphere_matrix(n, p, rng))
        assert abs(babel(d, k).value - babel_bruteforce(d, k).value) <= 1e-12
    for k in range(1, 5):
        assert babel(Dictionary(np.eye(5)), k).value == 0.0
    repeated = Dictionary(np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    assert babel(repeated, 2).value == 2.0
    print("ACCEPTANCE 1 babel-oracle-equivalence: PASS")


def test_criterion_02_coefficient_l1_bound():
    # exact coder's minimizer obeys ||a||_1 <= gamma*k/(1 - mu_{k-1}) + 1e-9
    # on 1000 dictionaries with measured mu_{k-1} <= 0.6 (n=8, p=10, k=2,3)
    violations = 0
    for i in range(1000):
        d = near_orthogonal_dictionary(8, 10, substream(41, i))
        assert babel(d, 2).value <= 0.6
        x = sample_uniform_sphere(8, substream(42, i)).values
        for k in (2, 3):
            res = exact_ksparse(d, x, k)
            if res.coeffs.l1 > coeff_l1_bound(d, k) + 1e-9:
                violations += 1
    assert violations == 0
    print("ACCEPTANCE 2 coefficient-l1-bound: PASS")


def test_criterion_03_lipschitz_suites():
    lam = 2.0
    for i in range(500):
        d, d2 = perturbed_pair(
            Dictionary(uniform_sphere_matrix(6, 8, substream(51, i))), 1e-3, substream(52, i))
        signals = uniform_sphere_matrix(6, 50, substream(53, i))
        assert lipschitz_probe(d, d2, signals, L1Ball(lam)) <= lam + 1e-6
    k = 2
    for i in range(500):
        base = near_orthogonal_dictionary(8, 8, substream(54, i))
        d, d2 = perturbed_pair(base, 1e-3, substream(55, i))
        delta = max(babel(d, k - 1).value, babel(d2, k - 1).value)
        signals = uniform_sphere_matrix(8, 50, substream(56, i))
        assert lipschitz_probe(d, d2, signals, HardK(k)) <= k / (1.0 - delta) + 1e-6
    demo = nonlipschitz_demo(8, 8, 2, 1e-4, seed=0)
    assert demo.ratio >= 100.0 and demo.h_value >= 0.05
    print("ACCEPTANCE 3 lipschitz-suites: PASS")


def test_criterion_04_closed_form_reproduction():
    slow_l1 = l1_generalization_bound(
        BoundInputs(n=2, p=2, m=10_000, x=2.0, lam=1.0), "slow").additive
    assert abs(slow_l1 - 0.064617) <= 1e-6

    # the documented 5-dp target figure 0.32462 is the rounding of the exact
    # closed form 0.3246163676520457 (which the window is applied to)
    maurer_l1 = l1_generalization_bound(
        BoundInputs(n=2, p=2, m=10_000, x=2.0, lam=1.0), "maurer").additive
    assert abs(maurer_l1 - 0.3246163676520457) <= 1e-6
    assert round(maurer_l1, 5) == 0.32462

    slow_ks = ksparse_generalization_bound(
        BoundInputs(n=2, p=2, m=10_000, x=2.0, k=2, delta=0.5), "slow").additive
    assert abs(slow_ks - 0.068413) <= 1e-6

    # documented figure 8.055e-5; exact closed form at (5000, 10, 1)
    assert abs(babel_tail_bound(5000, 10, 1) - 8.054197523811536e-05) <= 1e-9

    # k-sparse calculators are the l1 ones at lambda = k/(1 - delta), exactly
    for k, delta in ((2, 0.5), (3, 0.2)):
        ks_inputs = BoundInputs(n=3, p=5, m=10_000, x=2.0, k=k, delta=delta,
                                K=2.0, alpha=1.0)
        l1_inputs = BoundInputs(n=3, p=5, m=10_000, x=2.0, lam=k / (1.0 - delta),
                                K=2.0, alpha=1.0)
        for variant in ("maurer", "slow", "fast"):
            a = ksparse_generalization_bound(ks_inputs, variant)
            b = l1_generalization_bound(l1_inputs, variant)
            assert a.parts == b.parts and a.multiplier == b.multiplier
    print("ACCEPTANCE 4 closed-form-reproduction: PASS")


def _additive(family, variant, **kw):
    calc = l1_generalization_bound if family == "l1" else ksparse_generalization_bound
    base = dict(n=4, p=6, m=10_000, x=2.0)
    if family == "l1":
        base["lam"] = 1.0
    else:
        base.update(k=2, delta=0.5)
    if variant == "fast":
        base.update(K=2.0, alpha=1.0)
    base.update(kw)
    return calc(BoundInputs(**base), variant).additive


def test_criterion_05_monotonicity_suite():
    cases = [(f, v) for f in ("l1", "ksparse") for v in ("maurer", "slow", "fast")]
    for family, variant in cases:
        m_values = [_additive(family, variant, m=10**j) for j in range(2, 9)]
        assert all(b <= a for a, b in zip(m_values, m_values[1:]))
        x_values = [_additive(family, variant, x=x) for x in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(b >= a for a, b in zip(x_values, x_values[1:]))
        if family == "l1":
            # lambda sweep starts at 1: the fast variant needs 4*lambda > 2
            sweep = [_additive(family, variant, lam=v) for v in (1.0, 2.0, 4.0, 8.0, 16.0)]
            assert all(b >= a for a, b in zip(sweep, sweep[1:]))
        else:
            sweep = [_additive(family, variant, k=k) for k in (1, 2, 3, 4)]
            assert all(b >= a for a, b in zip(sweep, sweep[1:]))
            sweep = [_additive(family, variant, delta=d) for d in (0.0, 0.2, 0.4, 0.6, 0.8)]
            assert all(b >= a for a, b in zip(sweep, sweep[1:]))
    # lambda-dependence of the slow l1 additive is logarithmic: positive
    # growth with nonincreasing increments over decade steps in lambda
    values = [_additive("l1", "slow", m=10**6, lam=10.0**j) for j in range(7)]
    diffs = [b - a for a, b in zip(values, values[1:])]
    assert all(d > 0.0 for d in diffs)
    assert all(b <= a + 1e-15 for a, b in zip(diffs, diffs[1:]))
    print("ACCEPTANCE 5 monotonicity-suite: PASS")


def test_criterion_06_babel_tail_monte_carlo():
    start = time.monotonic()
    for k, expect_zero in ((1, True), (2, False)):
        result = mc_babel(5000, 10, k, trials=1000, seed=0)
        if expect_zero:
            assert result.empirical == 0.0
        # one-sided exact binomial test at 99% confidence: the observed
        # exceedance count must not be implausibly large under the bound
        observed = round(result.empirical * 1000)
        assert binom.sf(observed - 1, 1000, min(result.bound, 1.0)) >= 0.01
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0
    print(f"ACCEPTANCE 6 babel-tail-monte-carlo: PASS ({elapsed:.1f}s)")


def test_criterion_07_entropy_integral_quadrature():
    x_grid = np.linspace(0.01, 1.0, 100)
    worst = max(log_integral_check(g, x_grid)
                for g in np.linspace(math.sqrt(math.e), 10.0, 20))
    assert worst <= 1e-8
    print("ACCEPTANCE 7 entropy-integral-quadrature: PASS")


def test_criterion_08_kernel_reduction():
    # linear kernel reduces every kernel operation to its Euclidean
    # counterpart; instances keep k <= n-2 and coherence <= 0.45 so the
    # residual stays away from the sqrt cancellation floor
    worst = 0.0
    for i in range(100):
        rng = substream(81, i)
        n = int(rng.integers(5, 9))
        p = int(rng.integers(2, 9))
        d = near_orthogonal_dictionary(n, p, rng, babel_order=1, babel_cap=0.45)
        k = int(rng.integers(1, min(n - 2, p) + 1))
        kf = linear_kernel()
        kd = KernelDictionary.build(d.atoms.T, kf)
        x = sample_uniform_sphere(n, substream(82, i)).values
        kres = kernel_greedy_ksparse(x, kd, kf, k)
        eres = greedy_ksparse(d, x, k)
        worst = max(worst,
                    abs(kres.error - eres.error),
                    float(np.abs(kres.coeffs.values - eres.coeffs.values).max()),
                    abs(kernel_repr_error(x, eres.coeffs, kd, kf) - eres.error),
                    abs(feature_babel(kd, min(k, p - 1)).value
                        - babel(d, min(k, p - 1)).value))
    assert worst <= 1e-10

    points = substream(83).standard_normal((40, 6))
    kd = KernelDictionary.build(points, gaussian_kernel(1.5))
    assert np.abs(np.diag(kd.gram) - 1.0).max() <= 1e-12

    rng = substream(84)
    pairs = [(sample_uniform_sphere(5, rng).values * rng.uniform(0.0, 1.0),
              sample_uniform_sphere(5, rng).values * rng.uniform(0.0, 1.0))
             for _ in range(500)]
    for kf in (linear_kernel(), gaussian_kernel(0.8), polynomial_kernel(3)):
        assert holder_feature_check(kf, pairs) <= 1e-8
    print("ACCEPTANCE 8 kernel-reduction: PASS")


def test_criterion_09_generalization_gap_harness():
    truth = Dictionary(uniform_sphere_matrix(8, 12, substream(99, 0)))
    source = dictionary_source(truth, k_true=2, sigma=0.0, seed=99)
    config = LearnerConfig(p=12, constraint=HardK(2), iterations=20, seed=1)
    m_grid = [2**j for j in range(7, 14)]
    records, points = gengap_run(source, config, m_grid, 20_000,
                                 variants=("maurer", "slow", "fast"))
    assert gap_trend_nonincreasing(points)  # within 2 standard errors
    applicable = 0
    for point in points:
        for ev in point.evals:
            if not ev.applicable:
                continue
            applicable += 1
            assert ev.test_stat <= ev.report.multiplier * ev.train_stat + ev.report.additive
            if ev.report.additive >= 1.0:
                assert ev.report.vacuous
    assert applicable > 0
    assert len(records) == len(m_grid) * 3
    print("ACCEPTANCE 9 generalization-gap-harness: PASS")


def _rerun_from_manifest(manifest_path, out_dir, threads):
    manifest = RunManifest.from_json(manifest_path.read_text())
    params = dict(manifest.params, out=str(out_dir), threads=threads)
    rerun = RunManifest(subcommand=manifest.subcommand, params=params, seed=manifest.seed)
    assert main(argv_from_manifest(rerun)) == 0


def test_criterion_10_manifest_reproducibility(tmp_path, capsys):
    a, b = tmp_path / "mc_a", tmp_path / "mc_b"
    assert main(["mc-babel", "--n", "40", "--p", "6", "--k", "2", "--trials", "25",
                 "--seed", "7", "--out", str(a)]) == 0
    _rerun_from_manifest(a / "mc_babel_manifest.json", b, threads=4)
    assert (a / "mc_babel.csv").read_bytes() == (b / "mc_babel.csv").read_bytes()

    a, b = tmp_path / "gg_a", tmp_path / "gg_b"
    assert main(["gengap", "--synth", "dict:n=5,ptrue=6,ktrue=1,sigma=0", "--p", "6",
                 "--k", "1", "--mgrid", "32,64", "--test-size", "300", "--iters", "3",
                 "--variants", "maurer,slow", "--seed", "2", "--out", str(a)]) == 0
    _rerun_from_manifest(a / "gengap_manifest.json", b, threads=3)
    assert (a / "gengap.csv").read_bytes() == (b / "gengap.csv").read_bytes()

    a, b = tmp_path / "ln_a", tmp_path / "ln_b"
    assert main(["learn", "--synth", "dict:n=6,ptrue=4,ktrue=1,sigma=0,m=50", "--p", "4",
                 "--k", "1", "--iters", "3", "--seed", "5", "--out", str(a / "d.csv")]) == 0
    _rerun_from_manifest(a / "learn_manifest.json", b / "d.csv", threads=2)
    assert (a / "d.csv").read_bytes() == (b / "d.csv").read_bytes()
    capsys.readouterr()
    print("ACCEPTANCE 10 manifest-reproducibility: PASS")
