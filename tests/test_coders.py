import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dlbounds import coders
from dlbounds.coders import (
    ERR_TOL,
    EXACT_GUARD,
    CodingResult,
    coeff_l1_bound,
    exact_ksparse,
    exact_ksparse_batch,
    greedy_ksparse,
    greedy_ksparse_batch,
    l1_solve,
    l1_solve_batch,
    project_l1,
    repr_error,
    _ls_fit,
)
from dlbounds.core import (
    Dictionary,
    GuardExceededError,
    HardK,
    InapplicableError,
    L1Ball,
    me_norm,
    sample_uniform_sphere,
    substream,
    uniform_sphere_matrix,
)
from dlbounds.coherence import babel
from dlbounds.experiments import perturbed_pair
from dlbounds.learn import near_orthogonal_dictionary

ROOT2 = math.sqrt(2.0)


def check_result(d, x, res):
    # structural invariant shared by every coder
    recomputed = float(np.linalg.norm(d.atoms @ res.coeffs.values - np.asarray(x)))
    assert res.error == pytest.approx(recomputed, abs=1e-10)
    assert 0.0 <= res.error <= np.linalg.norm(x) + 1e-12


# ------------------------------------------------------------------- greedy


def test_greedy_picks_higher_correlation():
    res = greedy_ksparse(Dictionary(np.eye(2)), np.array([0.8, 0.6]), 1)
    assert res.coeffs.values == pytest.approx([0.8, 0.0])
    assert res.error == pytest.approx(0.6)
    assert res.method == "greedy"
    check_result(Dictionary(np.eye(2)), np.array([0.8, 0.6]), res)


def test_greedy_recovers_atom():
    d = Dictionary(uniform_sphere_matrix(5, 7, substream(0, 1)))
    for k in (1, 3):
        res = greedy_ksparse(d, d.atoms[:, 4], k)
        assert res.error == pytest.approx(0.0, abs=1e-12)


def test_greedy_error_nonincreasing_per_round():
    d = Dictionary(uniform_sphere_matrix(6, 9, substream(0, 2)))
    x = sample_uniform_sphere(6, substream(0, 3)).values
    errs = [greedy_ksparse(d, x, k).error for k in range(1, 7)]
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


def test_greedy_k_range():
    d = Dictionary(np.eye(3))
    with pytest.raises(ValueError):
        greedy_ksparse(d, np.ones(3), 0)
    with pytest.raises(ValueError):
        greedy_ksparse(d, np.ones(3), 4)
    with pytest.raises(ValueError):
        greedy_ksparse(d, np.ones(2), 1)  # dimension mismatch


def _qr_greedy_reference(d, x, k):
    """Greedy pursuit on the residual vector, refit through the exact
    coder's QR least squares: (support in pick order, coeffs, ridge_used)."""
    support, coef, ridge_used = [], np.zeros(0), False
    residual = x.copy()
    for _ in range(k):
        corr = np.abs(d.atoms.T @ residual)
        corr[support] = -1.0
        i = int(np.argmax(corr))
        if corr[i] <= 0.0:
            break
        support.append(i)
        coef, ridge_used = _ls_fit(d.atoms[:, support], x)
        residual = x - d.atoms[:, support] @ coef
    dense = np.zeros(d.p)
    dense[support] = coef
    return support, dense, ridge_used


def test_greedy_matches_qr_reference():
    # the Gram-form engine against an independent residual-vector loop
    for i in range(30):
        d = Dictionary(uniform_sphere_matrix(8, 12, substream(2, i)))
        x = sample_uniform_sphere(8, substream(3, i)).values
        for k in range(1, 9):
            res = greedy_ksparse(d, x, k)
            support, dense, ridge_used = _qr_greedy_reference(d, x, k)
            assert res.coeffs.support == tuple(sorted(support))
            assert res.ridge_used == ridge_used
            assert res.error == pytest.approx(np.linalg.norm(d.atoms @ dense - x), abs=1e-12)
            assert res.coeffs.values == pytest.approx(dense, abs=1e-10)


def test_greedy_batch_matches_single():
    cases = [  # (atoms, k)
        (uniform_sphere_matrix(6, 9, substream(6, 0)), 3),
        (_repeated_atom(5, 8, 6), 4),
        (np.eye(4)[:, [0, 1, 2, 3, 0]], 3),  # the e1 and e2 columns stop after one round
    ]
    for atoms, k in cases:
        d = Dictionary(atoms)
        signals = uniform_sphere_matrix(d.n, 6, substream(6, 1))
        signals[:, :2] = np.eye(d.n)[:, :2]
        coeffs, errors = greedy_ksparse_batch(d, signals, k)
        for j in range(6):
            single = greedy_ksparse(d, signals[:, j], k)
            assert tuple(np.flatnonzero(coeffs[:, j])) == single.coeffs.support
            assert errors[j] == pytest.approx(single.error, abs=1e-12)
            assert coeffs[:, j] == pytest.approx(single.coeffs.values, abs=1e-10)
    assert greedy_ksparse(Dictionary(np.eye(4)), np.eye(4)[:, 0], 3).coeffs.support == (0,)
    with pytest.raises(ValueError):
        greedy_ksparse_batch(Dictionary(np.eye(3)), np.eye(3), 4)


def test_greedy_repeated_atom_takes_ridge():
    # atom 2 repeats atom 0, so a full support is singular; the Gram-form
    # rank test must catch it instead of handing the solver a singular G_SS
    atoms = uniform_sphere_matrix(4, 3, substream(904, 3))
    atoms[:, 2] = atoms[:, 0]
    x = 0.6 * atoms[:, 0] + 0.3 * atoms[:, 1] + 0.2 * atoms[:, 2]
    res = greedy_ksparse(Dictionary(atoms), x, 3)
    assert res.error <= 1e-10
    assert res.ridge_used == (len(res.coeffs.support) == 3)
    check_result(Dictionary(atoms), x, res)


def test_greedy_stops_after_exact_fit():
    # atom 7 repeats atom 0 and x lies in the span of atoms 0 and 1.  Once a
    # column is fitted exactly its residual correlations are rounding noise;
    # picking an atom by that noise can pick the repeat and force the ridge.
    spanned = 0
    for i in range(200):
        rng = substream(77, i)
        atoms = uniform_sphere_matrix(6, 8, rng)
        atoms[:, 7] = atoms[:, 0]
        x = atoms[:, :2] @ rng.standard_normal(2)
        res = greedy_ksparse(Dictionary(atoms), x, 4)
        assert not res.ridge_used
        support = set(res.coeffs.support)
        if 1 in support and support & {0, 7}:
            spanned += 1
            assert res.error <= 1e-14
    assert spanned >= 150


# -------------------------------------------------------------------- exact


def test_exact_two_case_comparison():
    atoms = np.array([[1.0, 1 / ROOT2], [0.0, 1 / ROOT2]])
    res = exact_ksparse(Dictionary(atoms), np.array([0.0, 1.0]), 1)
    assert res.coeffs.support == (1,)
    assert res.error == pytest.approx(math.sqrt(0.5))


def test_exact_full_support_square():
    d = Dictionary(uniform_sphere_matrix(4, 4, substream(1, 0)))
    x = sample_uniform_sphere(4, substream(1, 1)).values
    assert exact_ksparse(d, x, 4).error == pytest.approx(0.0, abs=1e-9)


def test_exact_dominates_greedy():
    for i in range(30):
        d = Dictionary(uniform_sphere_matrix(8, 12, substream(2, i)))
        x = sample_uniform_sphere(8, substream(3, i)).values
        g = greedy_ksparse(d, x, 3)
        e = exact_ksparse(d, x, 3)
        assert g.error >= e.error - 1e-10
        check_result(d, x, g)
        check_result(d, x, e)


def test_exact_guard():
    d = Dictionary(uniform_sphere_matrix(4, 40, substream(4, 0)))
    with pytest.raises(GuardExceededError):
        exact_ksparse(d, np.ones(4), 15)
    assert math.comb(40, 15) > EXACT_GUARD


def _repeated_atom(n, p, seed):
    atoms = uniform_sphere_matrix(n, p, substream(seed, 0))
    atoms[:, p - 1] = atoms[:, 0]
    return atoms


def test_exact_batch_matches_single():
    cases = [  # (atoms, k)
        (uniform_sphere_matrix(5, 8, substream(5, 0)), 2),
        (_repeated_atom(5, 8, 5), 2),
    ]
    for atoms, k in cases:
        d = Dictionary(atoms)
        signals = uniform_sphere_matrix(d.n, 6, substream(5, 1))
        coeffs, errors = exact_ksparse_batch(d, signals, k)
        for j in range(6):
            single = exact_ksparse(d, signals[:, j], k)
            assert errors[j] == pytest.approx(single.error, abs=1e-12)
            assert coeffs[:, j] == pytest.approx(single.coeffs.values, abs=1e-10)
            assert not single.ridge_used
    # k >= rank(D): every support spanning col(D) ties, so both coders take
    # the projection on the first basis, padded with the lowest other atoms
    rng = np.random.default_rng(0)
    wide = Dictionary(uniform_sphere_matrix(3, 5, rng))
    cases = [  # (dictionary, k, signals, the first basis)
        (wide, 4, rng.standard_normal((3, 4)), [0, 1, 2]),  # k > n
        (Dictionary(uniform_sphere_matrix(3, 5, substream(5, 4))), 4,
         uniform_sphere_matrix(3, 6, substream(5, 1)), [0, 1, 2]),
        # k = p = n, atom 3 repeats atom 0: rank 3, so no fit needs the ridge
        (Dictionary(_repeated_atom(4, 4, 5)), 4, uniform_sphere_matrix(4, 6, substream(5, 1)),
         [0, 1, 2]),
    ]
    for d, k, signals, basis in cases:
        coeffs, errors = exact_ksparse_batch(d, signals, k)
        for j in range(signals.shape[1]):
            x = signals[:, j]
            single = exact_ksparse(d, x, k)
            projection = np.linalg.norm(x - d.atoms[:, basis] @ np.linalg.lstsq(d.atoms[:, basis], x)[0])
            assert coeffs[:, j] == pytest.approx(single.coeffs.values, abs=1e-14)
            # rounding level; the old ridge fits of wide supports left ~5e-12
            assert errors[j] == pytest.approx(projection, abs=1e-13)
            assert single.error == pytest.approx(projection, abs=1e-13)
            assert single.coeffs.support == (0, 1, 2, 3) and not single.ridge_used
    # exact tie between atoms 0 and 2: both coders keep the smaller support
    d = Dictionary(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    x = np.array([1.0, 0.0])
    assert exact_ksparse(d, x, 1).coeffs.support == (0,)
    assert np.array_equal(exact_ksparse_batch(d, x[:, None], 1)[0][:, 0], [1.0, 0.0, 0.0])


@pytest.mark.parametrize("batch_coder", [
    lambda d, signals: exact_ksparse_batch(d, signals, 2),
    lambda d, signals: l1_solve_batch(d, signals, 1.0),
    lambda d, signals: greedy_ksparse_batch(d, signals, 2),
], ids=["exact", "l1", "greedy"])
def test_batch_coders_reject_nonfinite(batch_coder):
    d = Dictionary(uniform_sphere_matrix(4, 6, substream(5, 2)))
    signals = uniform_sphere_matrix(4, 3, substream(5, 3))
    for bad in (np.nan, np.inf):
        signals[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            batch_coder(d, signals)


def test_greedy_and_exact_recover_under_tropp_condition():
    # Tropp (2004): mu_{k-1} + mu_k < 1 makes greedy pursuit recover every
    # exactly k-sparse signal, and the k-sparse representation is unique
    k, kept = 2, 0
    for i in range(20):
        d = near_orthogonal_dictionary(8, 10, substream(19, i))
        if babel(d, k - 1).value + babel(d, k).value >= 1.0:
            continue
        kept += 1
        rng = substream(20, i)
        for _ in range(10):
            support = tuple(sorted(rng.choice(d.p, size=k, replace=False)))
            coef = rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.5, 2.0, size=k)
            x = d.atoms[:, list(support)] @ coef
            g, e = greedy_ksparse(d, x, k), exact_ksparse(d, x, k)
            assert g.error <= 1e-10 and e.error <= 1e-10
            assert g.coeffs.support == e.coeffs.support == support
    assert kept >= 10


# ----------------------------------------------------------------------- l1


def test_l1_lambda_zero():
    x = sample_uniform_sphere(4, substream(6, 0)).values
    res = l1_solve(Dictionary(uniform_sphere_matrix(4, 6, substream(6, 1))), x, 0.0)
    assert res.error == pytest.approx(1.0)
    assert res.coeffs.l0 == 0


def test_l1_diagonal_projection():
    x = np.array([1 / ROOT2, 1 / ROOT2])
    res = l1_solve(Dictionary(np.eye(2)), x, 1 / ROOT2)
    assert res.coeffs.values == pytest.approx([1 / (2 * ROOT2), 1 / (2 * ROOT2)], abs=1e-7)
    assert res.error == pytest.approx(0.5, abs=1e-7)


def test_l1_loose_budget_reaches_lsq():
    d = Dictionary(uniform_sphere_matrix(5, 5, substream(7, 0)))
    x = sample_uniform_sphere(5, substream(7, 1)).values
    a_star = np.linalg.solve(d.atoms, x)
    res = l1_solve(d, x, np.abs(a_star).sum() * 1.001)
    assert res.error == pytest.approx(0.0, abs=1e-6)


def test_l1_feasibility_and_monotonicity():
    d = Dictionary(uniform_sphere_matrix(6, 9, substream(8, 0)))
    x = sample_uniform_sphere(6, substream(8, 1)).values
    errs = []
    for lam in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0):
        res = l1_solve(d, x, lam)
        assert res.coeffs.l1 <= lam + 1e-9
        errs.append(res.error)
        check_result(d, x, res)
    assert all(b <= a + 2 * ERR_TOL for a, b in zip(errs, errs[1:]))


def _exact_residual_reference(atoms, a, x):
    """D a - x for one column, computed in rationals and rounded once per entry."""
    return np.array([float(sum((Fraction(float(dij)) * Fraction(float(aj)) for dij, aj in zip(row, a)),
                               -Fraction(float(xi)))) for row, xi in zip(atoms, x)])


def _l1_slack_reference(atoms, coeffs, signals, lam, exact=False):
    """Per column, h - sqrt(h^2 - 2 gap): how far ||D a - x|| can be above the
    l1-constrained optimum, from the Frank-Wolfe duality gap a.g + lam ||g||_inf
    with g = D^T (D a - x).  exact=True takes D a - x from
    _exact_residual_reference, so the only rounding is relative to it."""
    slacks = []
    for a, x in zip(coeffs.T, signals.T):
        resid = _exact_residual_reference(atoms, a, x) if exact else atoms @ a - x
        g = atoms.T @ resid
        gap = float(a @ g) + lam * float(np.max(np.abs(g)))
        h = float(np.linalg.norm(resid))
        slacks.append(h - math.sqrt(max(h * h - 2.0 * gap, 0.0)))
    return np.array(slacks)


def test_l1_batch_shapes_and_errors():
    d = Dictionary(uniform_sphere_matrix(4, 7, substream(9, 0)))
    signals = uniform_sphere_matrix(4, 5, substream(9, 1))
    coeffs, errors, iters, residual = l1_solve_batch(d, signals, 1.5)
    assert coeffs.shape == (7, 5) and errors.shape == (5,)
    assert _l1_slack_reference(d.atoms, coeffs, signals, 1.5).max() <= ERR_TOL and iters >= 1
    recomputed = np.linalg.norm(d.atoms @ coeffs - signals, axis=0)
    assert errors == pytest.approx(recomputed, abs=1e-12)


def _criterion3_pair(i):
    # the dictionaries and signals of acceptance criterion 3's l1 pair i
    d, d2 = perturbed_pair(Dictionary(uniform_sphere_matrix(6, 8, substream(51, i))), 1e-3,
                           substream(52, i))
    return d, d2, uniform_sphere_matrix(6, 50, substream(53, i))


def test_l1_certificate_holds():
    cases = [  # (dictionary, lam, signals)
        (Dictionary(uniform_sphere_matrix(6, 8, substream(30, 0))), lam,
         uniform_sphere_matrix(6, 40, substream(30, 1))) for lam in (0.25, 1.0, 2.0, 4.0, 50.0)]
    cases.append((Dictionary(_repeated_atom(6, 8, 31)), 1.0, uniform_sphere_matrix(6, 40, substream(31, 1))))
    cases.append((Dictionary(uniform_sphere_matrix(8, 5, substream(32, 0))), 1.0,  # p < n
                  uniform_sphere_matrix(8, 40, substream(32, 1))))
    # criterion 3's pair 314: D' has an optimum on 6 atoms that the iterates
    # approach through a support of 7 dependent atoms in R^6
    d, d2, signals = _criterion3_pair(314)
    cases += [(d, 2.0, signals), (d2, 2.0, signals)]
    # 3-sparse signals of l1 norm 1 coded at lam = 1 - 1e-4: errors ~5e-5,
    # where the polish's 1e-12 ridge alone would leave the slack near 1e-9
    d = Dictionary(uniform_sphere_matrix(8, 12, substream(36, 0)))
    rng = substream(36, 1)
    coeffs = np.zeros((12, 40))
    for j in range(40):
        coeffs[rng.choice(12, size=3, replace=False), j] = rng.standard_normal(3)
    cases.append((d, 1.0 - 1e-4, d.atoms @ (coeffs / np.abs(coeffs).sum(axis=0))))
    for d, lam, signals in cases:
        coeffs, errors, _iters, residual = l1_solve_batch(d, signals, lam)
        assert _l1_slack_reference(d.atoms, coeffs, signals, lam).max() <= 1e-10
        assert np.abs(coeffs).sum(axis=0).max() <= lam * (1 + 1e-12)
        assert errors == pytest.approx(np.linalg.norm(d.atoms @ coeffs - signals, axis=0), abs=1e-15)
        assert residual <= 1e-9
        res = l1_solve(d, signals[:, 0], lam)
        r = d.atoms @ res.coeffs.values - signals[:, 0]
        g = d.atoms.T @ r
        assert res.gap == pytest.approx(res.coeffs.values @ g + lam * np.abs(g).max(), abs=1e-15)


def test_l1_batch_matches_single():
    cases = [(Dictionary(uniform_sphere_matrix(6, 8, substream(34, 0))), 1.5,
              uniform_sphere_matrix(6, 20, substream(34, 1)))]
    d, d2, signals = _criterion3_pair(485)
    # column 15: the old fixed-point stop left D' 5.6e-6 above the optimum,
    # and its single and batch errors 1e-7 apart on D
    cases += [(d, 2.0, signals), (d2, 2.0, signals)]
    for d, lam, signals in cases:
        _coeffs, errors, _iters, _residual = l1_solve_batch(d, signals, lam)
        for j in range(signals.shape[1]):
            assert abs(l1_solve(d, signals[:, j], lam).error - errors[j]) <= 1e-10


def test_l1_warm_start_at_optimum_retires_at_once():
    d, d2, signals = _criterion3_pair(485)
    cases = [(d, 2.0, signals), (d2, 2.0, signals),
             (Dictionary(_repeated_atom(6, 8, 31)), 1.0, uniform_sphere_matrix(6, 40, substream(31, 1)))]
    for d, lam, signals in cases:
        coeffs, errors, iters, _residual = l1_solve_batch(d, signals, lam)
        assert iters > 0
        warm, warm_errors, warm_iters, _residual = l1_solve_batch(d, signals, lam, coeffs)
        assert warm_iters == 0
        assert warm_errors == pytest.approx(errors, abs=1e-15)
        assert _l1_slack_reference(d.atoms, warm, signals, lam).max() <= ERR_TOL


def test_l1_warm_start_matches_cold():
    # D' codes from D's solution and D from D''s: both certified, so warm and
    # cold errors agree to within the certificate
    d, d2, signals = _criterion3_pair(485)
    cold, cold_errors, _iters, _residual = l1_solve_batch(d, signals, 2.0)
    cold2, cold2_errors, _iters, _residual = l1_solve_batch(d2, signals, 2.0)
    for dd, init, expected in ((d2, cold, cold2_errors), (d, cold2, cold_errors)):
        warm, errors, _iters, _residual = l1_solve_batch(dd, signals, 2.0, init)
        assert np.abs(errors - expected).max() <= 1e-10
        assert _l1_slack_reference(dd.atoms, warm, signals, 2.0).max() <= ERR_TOL


def test_l1_warm_start_outside_ball_is_scaled_in():
    d = Dictionary(uniform_sphere_matrix(6, 8, substream(37, 0)))
    signals = uniform_sphere_matrix(6, 20, substream(37, 1))
    init = 10.0 * substream(37, 2).standard_normal((8, 20))
    for lam in (0.5, 2.0):
        coeffs, errors, _iters, _residual = l1_solve_batch(d, signals, lam, init)
        assert np.abs(coeffs).sum(axis=0).max() <= lam * (1 + 1e-12)
        assert _l1_slack_reference(d.atoms, coeffs, signals, lam).max() <= ERR_TOL
        assert errors == pytest.approx(l1_solve_batch(d, signals, lam)[1], abs=2 * ERR_TOL)


def test_l1_warm_start_rejects_bad_init():
    d = Dictionary(uniform_sphere_matrix(4, 6, substream(38, 0)))
    signals = uniform_sphere_matrix(4, 3, substream(38, 1))
    for shape in ((6,), (3, 6), (6, 2)):
        with pytest.raises(ValueError, match="init must be a 6 x 3 matrix"):
            l1_solve_batch(d, signals, 1.0, np.zeros(shape))
    for bad in (np.nan, np.inf):
        init = np.zeros((6, 3))
        init[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            l1_solve_batch(d, signals, 1.0, init)


def test_exact_residual_is_correctly_rounded():
    rng = substream(39, 0)
    atoms, a, x = rng.standard_normal((5, 7)), rng.standard_normal((7, 4)), rng.standard_normal((5, 4))
    x[:, 0] = atoms @ a[:, 0]  # cancellation down to the rounding of D a
    exact = np.stack([_exact_residual_reference(atoms, a[:, j], x[:, j]) for j in range(4)], axis=1)
    assert np.array_equal(coders._exact_residual(atoms, a, x), exact)


def test_l1_precision_floor_recentres_and_warns():
    # 3-sparse signals of l1 norm 1 coded at lam = 1 - 1e-6: the optima lie on
    # the sphere with errors ~5e-7, where the residual's rounding hides gaps
    # below ~2 lam eps ||x||, i.e. slacks below ~5e-10.  They used to run all
    # MAX_ITERS steps, and some stopped at a slack of 1.1e-10 that the double
    # precision gap put below ERR_TOL.  Ten unit signals with errors ~0.1 ride
    # along.
    d = Dictionary(uniform_sphere_matrix(8, 12, substream(1, 0)))
    rng = np.random.default_rng(1)
    coeffs = np.zeros((12, 40))
    for j in range(40):
        coeffs[rng.choice(12, 3, replace=False), j] = rng.uniform(-1, 1, 3)
    signals = np.hstack([d.atoms @ (coeffs / np.abs(coeffs).sum(axis=0)),
                         uniform_sphere_matrix(8, 10, substream(1, 1))])
    lam = 1 - 1e-6
    with pytest.warns(RuntimeWarning, match=r"^l1_solve_batch left \d+ of 50 columns \[") as record:
        coeffs, _errors, iters, _residual = l1_solve_batch(d, signals, lam)
    assert len(record) == 1
    assert iters <= coders.MAX_ITERS // 10
    named = [int(j) for j in re.search(r"\[([\d, ]+)\]", str(record[0].message))[1].split(",")]
    assert 0 < len(named) < 40 and max(named) < 40
    slack = _l1_slack_reference(d.atoms, coeffs, signals, lam, exact=True)
    assert np.delete(slack, named).max() <= ERR_TOL
    assert np.abs(coeffs).sum(axis=0).max() <= lam * (1 + 1e-12)


def test_l1_polish_restarts_cannot_cycle():
    # five atoms of a dictionary the learner reached in gengap-l1 at seed 26:
    # the polish on support {2, 3, 4} beat the iterate 5 steps on from it at
    # every check, so the iterate was reset to it until MAX_ITERS, and the
    # column stopped with an error slack of ~1e-3
    atoms = np.array([
        [-0.613469707981519, 0.37973862568639893, 0.47074658890703464, 0.5091037953638742, 0.4204113909620282],
        [0.30463808094858863, 0.24060809752213969, -0.42270276483851366, -0.4392405926234303, -0.21643391302597023],
        [-0.10259618541146992, 0.7023653540793959, 0.05627939114612397, 0.06120646962841649, -0.1050092390306862],
        [-0.5333693527322194, 0.08496190441405449, 0.4235314151362518, 0.3191909561291293, 0.17281884079655246],
        [-0.3039769783974879, 0.30887318023363086, 0.34469731531191117, 0.33370840169473753, 0.46037193705461704],
        [-0.19939423456537544, 0.22648240832188987, 0.3007999114760427, 0.37160254304977086, 0.4882132986474117],
        [0.08863002604064818, -0.2886940364365457, -0.16547577833411997, -0.2428401977995478, -0.24356416557133356],
        [0.3095583428701528, 0.25947935242500053, -0.42484671707882626, -0.36582894897599016, -0.4752886317507547],
    ])
    x = np.array([0.4911937238705737, -0.4310658007347276, 0.059086019950023744, 0.37455314844194093,
                  0.340207324586163, 0.3369975940878471, -0.2041501489373952, -0.39767335449027574])
    d = Dictionary(atoms)
    coeffs, _errors, iters, _residual = l1_solve_batch(d, x[:, None], 1.0)
    assert iters <= 100
    assert _l1_slack_reference(d.atoms, coeffs, x[:, None], 1.0, exact=True)[0] <= ERR_TOL
    assert np.flatnonzero(coeffs[:, 0]).tolist() == [2, 3]


def test_l1_iteration_cap_warns(monkeypatch):
    monkeypatch.setattr(coders, "MAX_ITERS", 5)
    d = Dictionary(uniform_sphere_matrix(6, 8, substream(35, 0)))
    signals = uniform_sphere_matrix(6, 10, substream(35, 1))
    with pytest.warns(RuntimeWarning, match=r"MAX_ITERS = 5 steps with \d+ of 10 columns "
                                            r"uncertified \(worst error slack"):
        _coeffs, _errors, iters, _residual = l1_solve_batch(d, signals, 2.0)
    assert iters == 5


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 5.0))
def test_project_l1_is_euclidean_projection(seed, radius):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(6) * 3
    proj = project_l1(v, radius)
    assert np.abs(proj).sum() <= radius + 1e-9
    # no feasible point is closer
    z = rng.standard_normal(6)
    total = np.abs(z).sum()
    z = z * (radius / total) if total > radius else z
    assert np.abs(z).sum() <= radius + 1e-12
    assert np.linalg.norm(v - proj) <= np.linalg.norm(v - z) + 1e-9


def test_project_l1_inside_ball_untouched():
    v = np.array([0.2, -0.1, 0.05])
    assert np.array_equal(project_l1(v, 1.0), v)


# ----------------------------------------------------------------- dispatch


def test_repr_error_dispatch():
    d = Dictionary(np.eye(2))
    x = np.array([1 / ROOT2, 1 / ROOT2])
    assert repr_error(d, x, HardK(1)).error == pytest.approx(1 / ROOT2)
    assert repr_error(d, x, HardK(1), exact=True).method == "exact"
    assert repr_error(d, x, L1Ball(2.0)).method == "l1-projection"
    single = Dictionary(np.array([[1.0], [0.0]]))
    assert repr_error(single, np.array([0.0, 1.0]), HardK(1)).error == pytest.approx(1.0)


def test_repr_error_x_equal_atom():
    d = Dictionary(uniform_sphere_matrix(6, 8, substream(10, 0)))
    res = repr_error(d, d.atoms[:, 2], HardK(1))
    assert res.error == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------- inequality guarantees


def test_h_one_lipschitz_in_x():
    rng = substream(11, 0)
    d = Dictionary(uniform_sphere_matrix(5, 8, rng))
    for i in range(40):
        x1 = sample_uniform_sphere(5, substream(11, 2 * i + 1)).values
        x2 = sample_uniform_sphere(5, substream(11, 2 * i + 2)).values
        dist = np.linalg.norm(x1 - x2)
        for constraint, tol in ((HardK(2), 1e-10), (L1Ball(1.5), 2 * ERR_TOL)):
            h1 = repr_error(d, x1, constraint, exact=True).error
            h2 = repr_error(d, x2, constraint, exact=True).error
            assert abs(h1 - h2) <= dist + tol


def test_error_monotone_in_k():
    d = Dictionary(uniform_sphere_matrix(6, 9, substream(12, 0)))
    x = sample_uniform_sphere(6, substream(12, 1)).values
    errs = [exact_ksparse(d, x, k).error for k in range(1, 7)]
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


def test_coeff_l1_bound_examples():
    assert coeff_l1_bound(Dictionary(np.eye(4)), 3) == pytest.approx(3.0)
    # two unit atoms at 60 degrees: mu_1 = 0.5
    atoms = np.array([[1.0, 0.5], [0.0, math.sqrt(3) / 2]])
    assert coeff_l1_bound(Dictionary(atoms), 2) == pytest.approx(4.0)


def test_coeff_l1_bound_inapplicable():
    atoms = np.tile(np.array([[1.0], [0.0]]), (1, 3))
    with pytest.raises(InapplicableError):
        coeff_l1_bound(Dictionary(atoms), 2)


def test_coeff_l1_bound_holds_for_exact_coder():
    for i in range(100):
        d = near_orthogonal_dictionary(8, 10, substream(13, i))
        x = sample_uniform_sphere(8, substream(14, i)).values
        for k in (2, 3):
            res = exact_ksparse(d, x, k)
            assert res.coeffs.l1 <= coeff_l1_bound(d, k) + 1e-9


def test_l1_lipschitz_in_dictionary():
    lam = 2.0
    for i in range(50):
        rng = substream(15, i)
        d = Dictionary(uniform_sphere_matrix(6, 8, rng))
        noise = uniform_sphere_matrix(6, 8, rng) * 1e-3
        atoms2 = d.atoms + noise
        atoms2 /= np.linalg.norm(atoms2, axis=0)
        d2 = Dictionary(atoms2)
        x = sample_uniform_sphere(6, substream(16, i)).values
        h1 = l1_solve(d, x, lam).error
        h2 = l1_solve(d2, x, lam).error
        assert abs(h1 - h2) <= lam * me_norm(d.atoms - d2.atoms) + 2 * ERR_TOL


def test_ksparse_lipschitz_in_dictionary():
    k = 2
    for i in range(50):
        rng = substream(17, i)
        d = near_orthogonal_dictionary(8, 10, rng)
        noise = uniform_sphere_matrix(8, 10, rng) * 1e-3
        atoms2 = d.atoms + noise
        atoms2 /= np.linalg.norm(atoms2, axis=0)
        d2 = Dictionary(atoms2)
        delta = max(babel(d, k - 1).value, babel(d2, k - 1).value)
        assert delta < 1.0
        x = sample_uniform_sphere(8, substream(18, i)).values
        h1 = exact_ksparse(d, x, k).error
        h2 = exact_ksparse(d2, x, k).error
        cap = (k / (1.0 - delta)) * me_norm(d.atoms - d2.atoms)
        assert abs(h1 - h2) <= cap + 1e-9
