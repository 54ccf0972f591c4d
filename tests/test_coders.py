import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dlbounds.coders import (
    EXACT_GUARD,
    FP_TOL,
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
    cases = [  # (atoms, k, whether the winning supports need the ridge)
        (uniform_sphere_matrix(5, 8, substream(5, 0)), 2, False),
        (_repeated_atom(5, 8, 5), 2, False),
        (_repeated_atom(4, 4, 5), 4, True),  # the only support repeats an atom
    ]
    for atoms, k, ridge in cases:
        d = Dictionary(atoms)
        signals = uniform_sphere_matrix(d.n, 6, substream(5, 1))
        coeffs, errors = exact_ksparse_batch(d, signals, k)
        for j in range(6):
            single = exact_ksparse(d, signals[:, j], k)
            assert errors[j] == pytest.approx(single.error, abs=1e-12)
            assert coeffs[:, j] == pytest.approx(single.coeffs.values, abs=1e-10)
            assert single.ridge_used == ridge
    # k > n: every support is wide, takes the ridge and fits exactly; the
    # coefficients are not unique, so only the errors are compared
    d = Dictionary(uniform_sphere_matrix(3, 5, substream(5, 4)))
    signals = uniform_sphere_matrix(3, 6, substream(5, 1))
    _coeffs, errors = exact_ksparse_batch(d, signals, 4)
    for j in range(6):
        single = exact_ksparse(d, signals[:, j], 4)
        assert errors[j] == pytest.approx(single.error, abs=1e-12)
        assert single.error <= 1e-10 and single.ridge_used
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
    assert all(b <= a + 2 * FP_TOL for a, b in zip(errs, errs[1:]))


def test_l1_batch_shapes_and_errors():
    d = Dictionary(uniform_sphere_matrix(4, 7, substream(9, 0)))
    signals = uniform_sphere_matrix(4, 5, substream(9, 1))
    coeffs, errors, iters, residual = l1_solve_batch(d, signals, 1.5)
    assert coeffs.shape == (7, 5) and errors.shape == (5,)
    assert residual < FP_TOL and iters >= 1
    recomputed = np.linalg.norm(d.atoms @ coeffs - signals, axis=0)
    assert errors == pytest.approx(recomputed, abs=1e-12)


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
        for constraint, tol in ((HardK(2), 1e-10), (L1Ball(1.5), 2 * FP_TOL)):
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
        assert abs(h1 - h2) <= lam * me_norm(d.atoms - d2.atoms) + 2 * FP_TOL


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
