import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_triangular

from dlbounds import coders
from dlbounds.bounds import coeff_l1_bound
from dlbounds.coders import (
    ERR_TOL,
    EXACT_GUARD,
    CodingResult,
    exact_ksparse,
    exact_ksparse_batch,
    greedy_ksparse,
    greedy_ksparse_batch,
    l1_solve,
    l1_solve_batch,
    repr_error,
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
from dlbounds.kernels import KernelDictionary, kernel_greedy_ksparse, kernel_repr_error, linear_kernel
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


def _ridge_ls_fit(a_sub, rhs):
    """Least squares via QR, with a RIDGE fit where the rank test fails:
    (coeffs, ridge_used)."""
    q, r = np.linalg.qr(a_sub)
    if coders._full_rank(r):
        return solve_triangular(r, q.T @ rhs), False
    gram = a_sub.T @ a_sub + coders.RIDGE * np.eye(a_sub.shape[1])
    return np.linalg.solve(gram, a_sub.T @ rhs), True


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
        coef, ridge_used = _ridge_ls_fit(d.atoms[:, support], x)
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


def test_greedy_near_repeated_atom_refits_with_ridge():
    # atom 1 is atom 0 turned by 1e-9, so eig_min of G_SS on {0, 1} is ~1e-18
    # of eig_max and the refit solves G_SS + RIDGE I.  The ridge is then
    # about as large as eig_min, so the error is held only to the best
    # one-atom fit's.
    e = np.eye(3)
    atoms = np.column_stack([e[0], e[0] + 1e-9 * e[1], e[2]])
    atoms /= np.linalg.norm(atoms, axis=0)
    x = (e[0] + 1e-3 * e[1]) / np.linalg.norm(e[0] + 1e-3 * e[1])
    d = Dictionary(atoms)
    res = greedy_ksparse(d, x, 2)
    kernel = kernel_greedy_ksparse(x, KernelDictionary.build(atoms.T, linear_kernel()), linear_kernel(), 2)
    assert res.ridge_used and kernel.ridge_used
    coeffs, errors = greedy_ksparse_batch(d, x[:, None], 2)
    assert np.array_equal(coeffs[:, 0], res.coeffs.values) and errors[0] == res.error
    assert kernel.error == pytest.approx(res.error, abs=1e-12)
    sup = list(res.coeffs.support)
    g_ss = atoms[:, sup].T @ atoms[:, sup] + coders.RIDGE * np.eye(len(sup))
    assert g_ss @ res.coeffs.values[sup] == pytest.approx(atoms[:, sup].T @ x, abs=1e-12)
    best_one = min(np.linalg.norm(x - (atoms[:, j] @ x) * atoms[:, j]) for j in range(3))
    assert res.error <= best_one + 1e-12
    check_result(d, x, res)


@pytest.mark.parametrize("delta", [1e-7, 5e-8])
def test_greedy_near_twin_kernel_error_stays_accurate(delta):
    # atom 1 is atom 0 turned by delta and x = normalize(e0 + 0.1 e1) lies in
    # their span, with a large component along the twins' difference.  A plain
    # solve of G_SS would give coefficients ~0.1 / delta, and the kernel
    # coder's Gram-form error rounds at about ||a||^2 eps: it would dip below
    # the PSD floor or report noise.  The ridge holds the coefficients down,
    # so the kernel error is its own coefficients' error and the Euclidean one.
    e = np.eye(3)
    atoms = np.column_stack([e[0], e[0] + delta * e[1], e[2]])
    atoms /= np.linalg.norm(atoms, axis=0)
    x = (e[0] + 0.1 * e[1]) / np.linalg.norm(e[0] + 0.1 * e[1])
    res = greedy_ksparse(Dictionary(atoms), x, 2)
    kd = KernelDictionary.build(atoms.T, linear_kernel())
    kernel = kernel_greedy_ksparse(x, kd, linear_kernel(), 2)
    assert res.coeffs.support == kernel.coeffs.support == (0, 1)
    assert res.ridge_used and kernel.ridge_used
    assert kernel.error == pytest.approx(kernel_repr_error(x, kernel.coeffs, kd, linear_kernel()), abs=1e-8)
    assert kernel.error == pytest.approx(res.error, abs=1e-8)


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


def _lstsq_exact_reference(d, x, k):
    """Every k-support fitted by np.linalg.lstsq: (support, error, coeffs on
    the support) of the smallest support whose error is within 1e-15 of the
    minimum.  Supports with equal spans (a repeated atom) tie in exact
    arithmetic, and their computed errors then differ only in rounding."""
    fits = {}
    for support in combinations(range(d.p), k):
        a_sub = d.atoms[:, support]
        coef = np.linalg.lstsq(a_sub, x, rcond=None)[0]
        fits[support] = (np.linalg.norm(x - a_sub @ coef), coef)
    least = min(error for error, _coef in fits.values())
    return next((s, e, c) for s, (e, c) in fits.items() if e <= least + 1e-15)


def test_exact_matches_lstsq_reference():
    cases = [  # (dictionary, k, signals)
        *((Dictionary(uniform_sphere_matrix(8, 12, substream(2, i))), 3,
           sample_uniform_sphere(8, substream(3, i)).values[:, None]) for i in range(30)),
        (Dictionary(_repeated_atom(5, 8, 5)), 2, uniform_sphere_matrix(5, 6, substream(5, 1))),
        # n >> p, where the supports are scored in p span coordinates
        (Dictionary(uniform_sphere_matrix(64, 8, substream(7, 0))), 3,
         uniform_sphere_matrix(64, 20, substream(7, 1))),
    ]
    for d, k, signals in cases:
        coeffs, errors, supports = coders._exact_columns(d, signals, k)
        for j in range(signals.shape[1]):
            x = signals[:, j]
            support, error, coef = _lstsq_exact_reference(d, x, k)
            single = exact_ksparse(d, x, k)
            assert single.coeffs.support == support == tuple(supports[:, j])
            assert single.error == pytest.approx(error, abs=1e-12)
            assert errors[j] == pytest.approx(error, abs=1e-12)
            assert single.coeffs.values[list(support)] == pytest.approx(coef, abs=1e-10)
            assert coeffs[list(support), j] == pytest.approx(coef, abs=1e-10)
            assert not np.delete(coeffs[:, j], list(support)).any()


def test_exact_ties_go_to_the_smallest_support():
    # atom p - 1 copies or negates atom j, so a support holding p - 1 but
    # not j spans what the same support with j in its place spans, and is
    # the larger of the two: it ties exactly and never wins.  With p > 8 the
    # copy and its original (j < 8) sit in different 8-row groups of the
    # padded products
    beds = [(900, (4, 9), (5, 9)), (901, (4, 17), (9, 21))]  # (key, n range, p range)
    for (key, n_range, p_range), sign in product(beds, (1.0, -1.0)):
        for i in range(300):
            rng = substream(key, i)
            n, p = int(rng.integers(*n_range)), int(rng.integers(*p_range))
            j = int(rng.integers(min(p - 1, 8)))
            atoms = uniform_sphere_matrix(n, p, rng)
            signals = uniform_sphere_matrix(n, 20, rng)
            atoms[:, p - 1] = sign * atoms[:, j]
            d = Dictionary(atoms)
            supports = coders._exact_columns(d, signals, 2)[2]
            larger = (supports == p - 1).any(axis=0) & ~(supports == j).any(axis=0)
            assert not larger.any(), (sign, i, supports[:, larger])
            assert p - 1 not in exact_ksparse(d, signals[:, 0], 2).coeffs.support


def test_exact_factors_each_support_once(monkeypatch):
    # the winners are solved from the QRs that scored them: one stacked QR
    # per scoring block, plus the first-basis search, and no QR per winner
    d = Dictionary(uniform_sphere_matrix(6, 9, substream(6, 0)))
    signals = uniform_sphere_matrix(6, 40, substream(6, 1))
    k, calls, qr = 3, [], np.linalg.qr

    def counted_qr(a, *args, **kwargs):
        calls.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    assert coders._first_basis(d.atoms, k, np.linalg.qr(d.atoms, mode="r")) is None
    basis_calls = len(calls)
    # C(9, 3) = 84 supports: one block by default, 9 blocks of 10
    for budget, blocks in ((coders.SCORE_BLOCK, 1), (10 * k * (d.n + signals.shape[1]), 9)):
        monkeypatch.setattr(coders, "SCORE_BLOCK", budget)
        calls.clear()
        _coeffs, _errors, supports = coders._exact_columns(d, signals, k)
        assert len(calls) == basis_calls + blocks
        assert len({tuple(s) for s in supports.T}) > 1  # several distinct winners


def _first_basis_reference(atoms, k):
    """The incremental first-basis search alone: one QR per atom tried."""
    basis = []
    for j in range(atoms.shape[1]):
        if coders._full_rank(np.linalg.qr(atoms[:, basis + [j]])[1]):
            basis.append(j)
            if len(basis) > k:
                return None
    return basis


def test_first_basis_agrees_with_incremental_search(monkeypatch):
    base = uniform_sphere_matrix(5, 8, substream(5, 0))
    repeated, negated = base.copy(), base.copy()
    repeated[:, 1], negated[:, 1] = base[:, 0], -base[:, 0]
    orth = base[:, 2] - (base[:, 2] @ base[:, 0]) * base[:, 0]
    orth /= np.linalg.norm(orth)
    cases = [base, _repeated_atom(5, 8, 5), repeated, negated, np.eye(3)[:, [0, 1, 2, 0, 1]]]
    # atom 1 at distance ~delta from atom 0's span, across RANK_RTOL = 1e-10
    for delta in (3e-11, 9.9999e-11, 1e-10, 3e-10, 1e-9):
        near = base.copy()
        near[:, 1] = (base[:, 0] + delta * orth) / np.linalg.norm(base[:, 0] + delta * orth)
        cases.append(near)
    for atoms in cases:
        r = np.linalg.qr(atoms, mode="r")
        for k in range(1, atoms.shape[1] + 1):  # up to k = p, past k = rank
            assert coders._first_basis(atoms, k, r) == _first_basis_reference(atoms, k)
    # when atoms 0..k are independent, one QR decides
    calls, qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *args, **kwargs: calls.append(1) or qr(*args, **kwargs))
    assert coders._first_basis(base, 3, np.linalg.qr(base, mode="r")) is None and len(calls) == 1


def test_exact_rank_deficient_support_never_wins():
    # atom 7 repeats atom 0.  For x in span{atom 0, atom 1} every support
    # holding atoms 0 and 1 fits x exactly, and so, in rounding, would a
    # ridge fit on {0, 1, 7}; for a generic x, the Q factor of a support
    # holding atoms 0 and 7 has a rounding-noise column that may capture
    # more energy than any true span.  Only full-rank supports may win.
    for i in range(50):
        rng = substream(78, i)
        atoms = uniform_sphere_matrix(6, 8, rng)
        atoms[:, 7] = atoms[:, 0]
        d = Dictionary(atoms)
        signals = np.hstack([atoms[:, :2] @ rng.standard_normal((2, 4)), rng.standard_normal((6, 2))])
        _coeffs, errors, supports = coders._exact_columns(d, signals, 3)
        for j, x in enumerate(signals.T):
            # which exact fit wins is rounding, so single and batch may differ
            single = exact_ksparse(d, x, 3)
            for support in (single.coeffs.support, tuple(supports[:, j])):
                assert np.linalg.matrix_rank(atoms[:, support]) == 3
            if j < 4:
                assert single.error <= 1e-14 and errors[j] <= 1e-14
            else:
                error = _lstsq_exact_reference(d, x, 3)[1]
                assert single.error == pytest.approx(error, abs=1e-12)
                assert errors[j] == pytest.approx(error, abs=1e-12)


def test_exact_block_boundaries_are_invisible(monkeypatch):
    # the output is bit-identical however the supports are split into scoring
    # blocks; atoms 3 and 4 repeat e_1 and e_2, so x = (1/2, 1/4, 1/8) ties
    # exactly on the supports (0, 1), (0, 4), (1, 3) and (3, 4), across blocks
    cases = [  # (atoms, k, signals)
        (_repeated_atom(5, 8, 5), 2, uniform_sphere_matrix(5, 6, substream(5, 1))),
        (uniform_sphere_matrix(6, 9, substream(6, 0)), 3, uniform_sphere_matrix(6, 7, substream(6, 1))),
        (np.eye(3)[:, [0, 1, 2, 0, 1]], 2, np.array([[0.5, 0.25, 0.125], [0.25, 0.125, 0.5]]).T),
    ]
    for atoms, k, signals in cases:
        d = Dictionary(atoms)
        one_block = coders._exact_columns(d, signals, k)
        singles = [exact_ksparse(d, x, k) for x in signals.T]
        for budget in (1, 3 * k * (d.n + signals.shape[1]), 3 * k * (d.n + 1)):
            monkeypatch.setattr(coders, "SCORE_BLOCK", budget)
            for got, want in zip(coders._exact_columns(d, signals, k), one_block):
                assert np.array_equal(got, want)
            for x, want in zip(signals.T, singles):
                got = exact_ksparse(d, x, k)
                assert got.coeffs.support == want.coeffs.support
                assert np.array_equal(got.coeffs.values, want.coeffs.values)
                assert got.error == want.error
        monkeypatch.undo()
    # the tie goes to the smallest support in every split
    assert [tuple(s) for s in one_block[2].T] == [(0, 1), (0, 2)]
    # a seeded fuzz over small shapes with k >= 2, 30% of them with a
    # repeated atom: the same three budgets, the same bits
    rng = substream(46, 0)
    for i in range(100):
        n, p, k, n_sig = (int(v) for v in (rng.integers(2, 13), rng.integers(3, 13), rng.integers(2, 5),
                                           rng.integers(1, 18)))
        k = min(k, p)
        atoms = uniform_sphere_matrix(n, p, substream(46, 2 * i + 1))
        if rng.random() < 0.3:
            atoms[:, p - 1] = atoms[:, rng.integers(p - 1)]
        d, signals = Dictionary(atoms), uniform_sphere_matrix(n, n_sig, substream(46, 2 * i + 2))
        one_block = coders._exact_columns(d, signals, k)
        for budget in (1, 3 * k * (n + n_sig), 3 * k * (n + 1)):
            monkeypatch.setattr(coders, "SCORE_BLOCK", budget)
            for got, want in zip(coders._exact_columns(d, signals, k), one_block):
                assert np.array_equal(got, want), (i, n, p, k, n_sig, budget)
        monkeypatch.undo()


def test_exact_narrow_batches_are_invisible_to_blocking(monkeypatch):
    # N = 1, 2 and 3 signals at k = 3, so that a block's 3s rows of Q^T are
    # rarely a multiple of 8, at every budget from one support per block to
    # all of them in one: the same bits, the single-signal coder's included.
    # Atoms 4 and 5 of the identity case repeat e_1 and e_2, so supports tie
    # exactly
    k = 3
    cases = [  # (atoms, three signals)
        (uniform_sphere_matrix(16, 7, substream(48, 0)), uniform_sphere_matrix(16, 3, substream(48, 1))),
        (_repeated_atom(16, 8, 48), uniform_sphere_matrix(16, 3, substream(48, 2))),
        (_repeated_atom(12, 8, 49), uniform_sphere_matrix(12, 3, substream(49, 1))),
        (np.eye(4)[:, [0, 1, 2, 3, 0, 1]], np.array([[8, 4, 2, 1], [4, 8, 1, 2], [1, 2, 8, 4]]).T / 8.0),
    ]
    for atoms, signals in cases:
        d = Dictionary(atoms)
        n_sub = math.comb(d.p, k)
        for n_sig in (1, 2, 3):
            x = np.ascontiguousarray(signals[:, :n_sig])
            monkeypatch.setattr(coders, "SCORE_BLOCK", n_sub * k * (d.n + n_sig))
            one_block = coders._exact_columns(d, x, k)
            single = exact_ksparse(d, x[:, 0], k)
            for s in range(1, n_sub):
                monkeypatch.setattr(coders, "SCORE_BLOCK", s * k * (d.n + n_sig))
                for got, want in zip(coders._exact_columns(d, x, k), one_block):
                    assert np.array_equal(got, want), (d.n, d.p, n_sig, s)
                monkeypatch.setattr(coders, "SCORE_BLOCK", s * k * (d.n + 1))
                got = exact_ksparse(d, x[:, 0], k)
                assert got.coeffs.support == single.coeffs.support, (d.n, d.p, s)
                assert np.array_equal(got.coeffs.values, single.coeffs.values), (d.n, d.p, s)
                assert got.error == single.error, (d.n, d.p, s)
    # the first signal ties on (0, 1, 2), (0, 2, 5), (1, 2, 4) and (2, 4, 5),
    # the others on two to four supports each: the smallest wins in every split
    assert [tuple(s) for s in one_block[2].T] == [(0, 1, 2), (0, 1, 3), (1, 2, 3)]
    assert list(one_block[1]) == [1 / 8] * 3


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


def test_greedy_approximates_exact_under_tropp_condition():
    # Tropp (2004): mu_k <= 1/3 keeps greedy's k-term error within
    # sqrt(1 + 6k) of the optimum.  Perturbed orthonormal bases, n = p = 16.
    # A two-atom signal whose second part is 1e-4 of the first is fitted
    # exactly at k = 3, and its third round stops on rounding noise; on the
    # unperturbed basis tied correlations go to the lowest index, as in the
    # exact coder
    pair = np.eye(16, dtype=bool) | np.roll(np.eye(16, dtype=bool), 1, axis=1)
    kept = 0
    for i in range(10):
        rng = substream(43, i)
        atoms = np.linalg.qr(rng.standard_normal((16, 16)))[0] + 0.03 * rng.standard_normal((16, 16))
        d = Dictionary(atoms / np.linalg.norm(atoms, axis=0))
        signals = uniform_sphere_matrix(16, 100, substream(44, i))
        for k in (2, 3):
            if babel(d, k).value > 1.0 / 3.0:
                continue
            kept += 1
            greedy, exact = greedy_ksparse_batch(d, signals, k)[1], exact_ksparse_batch(d, signals, k)[1]
            assert np.all(exact <= greedy + 1e-12)
            assert np.all(greedy <= math.sqrt(1 + 6 * k) * exact)
        coeffs, errors = greedy_ksparse_batch(d, d.atoms + 1e-4 * np.roll(d.atoms, 1, axis=1), 3)
        assert np.array_equal(coeffs != 0.0, pair) and errors.max() <= 1e-12
    assert kept >= 15
    tied = np.zeros((16, 2))
    tied[[0, 1, 2], 0] = tied[[3, 5, 9], 1] = 1.0 / math.sqrt(3.0)
    for k in (2, 3):
        greedy = greedy_ksparse_batch(Dictionary(np.eye(16)), tied, k)[0]
        exact = exact_ksparse_batch(Dictionary(np.eye(16)), tied, k)[0]
        assert np.array_equal(greedy != 0.0, exact != 0.0)
        assert [np.flatnonzero(c).tolist() for c in greedy.T] == [[0, 1, 2][:k], [3, 5, 9][:k]]


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
    # criterion 3's pair 1: on D, column 42's coefficient on atom 4 changes
    # sign as lam grows (> 0 at lam = 1.1, < 0 at lam = 2)
    d1, _d2, pair1 = _criterion3_pair(1)
    cases += [(d1, 1.1, pair1), (d1, 2.0, pair1)]
    # atom 7 repeats atom 0 and atom 6 negates it: both tie atom 0's
    # correlation with every residual, lie in its span, and must not join
    # the support (G_AA would be singular)
    atoms = uniform_sphere_matrix(6, 8, substream(33, 0))
    atoms[:, 7], atoms[:, 6] = atoms[:, 0], -atoms[:, 0]
    twins, twin_signals = Dictionary(atoms), uniform_sphere_matrix(6, 40, substream(33, 1))
    cases += [(twins, lam, twin_signals) for lam in (1.0, 2.0)]
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
    assert l1_solve_batch(d1, pair1[:, 42:43], 1.1)[0][4, 0] > 0.0
    assert l1_solve_batch(d1, pair1[:, 42:43], 2.0)[0][4, 0] < 0.0
    # ties go to the lowest index, so atom 0 is the one of the three that codes
    for lam in (1.0, 2.0):
        coeffs = l1_solve_batch(twins, twin_signals, lam)[0]
        assert not coeffs[6:].any() and coeffs[0].any()


def test_l1_near_twin_atoms_certify():
    # atom 7 = normalize(d_0 + delta v), v a unit vector orthogonal to d_0.
    # The twins may be in a support together, and G_SS + RIDGE I is then
    # near singular; the KKT solves must stay accurate while both are in it
    # and after one leaves.  Every column certifies, in eight directions.
    atoms = uniform_sphere_matrix(6, 8, substream(33, 0))
    signals = uniform_sphere_matrix(6, 40, substream(33, 1))
    d0 = atoms[:, 0]
    for i in range(8):
        u = uniform_sphere_matrix(6, 1, substream(33, 2) if i == 0 else substream(45, i))[:, 0]
        v = u - (u @ d0) * d0
        v /= np.linalg.norm(v)
        for delta in (1e-3, 1e-6, 1e-7, 1e-8, 1e-9, 1e-12):
            twin = atoms.copy()
            twin[:, 7] = (d0 + delta * v) / np.linalg.norm(d0 + delta * v)
            d = Dictionary(twin)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                coeffs, _errors, _iters, _residual = l1_solve_batch(d, signals, 2.0)
            assert _l1_slack_reference(d.atoms, coeffs, signals, 2.0).max() <= ERR_TOL


def test_l1_near_twin_at_the_rank_tolerance_certifies():
    # the bed above at delta = 1e-10 = RANK_RTOL: no join test bars the twin
    # from a support, so no column is left short of the certificate by an
    # atom it could not use
    atoms = uniform_sphere_matrix(6, 8, substream(33, 0))
    signals = uniform_sphere_matrix(6, 40, substream(33, 1))
    d0 = atoms[:, 0]
    for i in range(8):
        u = uniform_sphere_matrix(6, 1, substream(33, 2) if i == 0 else substream(45, i))[:, 0]
        v = u - (u @ d0) * d0
        v /= np.linalg.norm(v)
        twin = atoms.copy()
        twin[:, 7] = (d0 + 1e-10 * v) / np.linalg.norm(d0 + 1e-10 * v)
        d = Dictionary(twin)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs, _errors, _iters, _residual = l1_solve_batch(d, signals, 2.0)
        assert _l1_slack_reference(d.atoms, coeffs, signals, 2.0).max() <= ERR_TOL


def test_l1_atom_signals_certify_in_one_round():
    # x = d_j in gengap-l1's regime (n = 8, p = 12, lam = 1): the start, atom
    # j alone inside the ball, is the optimum, and the first round proves it
    for i in range(20):
        d = Dictionary(uniform_sphere_matrix(8, 12, substream(37, i)))
        for signals in (d.atoms, d.atoms[:, [5]]):
            coeffs, errors, iters, _residual = l1_solve_batch(d, signals, 1.0)
            assert iters == 1
            assert _l1_slack_reference(d.atoms, coeffs, signals, 1.0).max() <= ERR_TOL
            assert errors.max() <= 1e-11


def test_l1_memory_at_large_p():
    # n = 32, p = 64, N = 2,000 at lam = 1: the KKT solves pack each support
    # into its first k slots, and no column keeps a p x p matrix between
    # rounds, so one call peaks well under the 142 MiB of per-column p x p
    # inverses
    d = Dictionary(uniform_sphere_matrix(32, 64, substream(47, 0)))
    signals = uniform_sphere_matrix(32, 2000, substream(47, 1))
    tracemalloc.start()
    try:
        coeffs, _errors, _iters, _residual = l1_solve_batch(d, signals, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * 2**20
    assert _l1_slack_reference(d.atoms, coeffs, signals, 1.0).max() <= ERR_TOL


def test_l1_rounds_alone_certify_in_gengap_regime(monkeypatch):
    # gengap-l1's regime: n = 8, p = 12, lam = 1, unit-sphere dictionaries
    # and signals.  The active-set rounds certify every column by themselves,
    # so the Newton finish, which calls _exact_residual once per step, never
    # runs.
    calls = []
    exact_residual = coders._exact_residual
    monkeypatch.setattr(coders, "_exact_residual", lambda *args: calls.append(args) or exact_residual(*args))
    for i in range(10):
        d = Dictionary(uniform_sphere_matrix(8, 12, substream(37, i)))
        signals = uniform_sphere_matrix(8, 200, substream(38, i))
        coeffs, _errors, _iters, _residual = l1_solve_batch(d, signals, 1.0)
        assert _l1_slack_reference(d.atoms, coeffs, signals, 1.0).max() <= ERR_TOL
    assert not calls


def _kkt_reference(gram, s, top, last):
    """Each column's KKT solution on its support S = {j : s_j != 0} and
    signs s, by LU: M = G_SS + RIDGE I solved for top_S where that x has
    s.x <= last, else the bordered system [[M, s_S], [s_S^T, 0]] for
    (top_S, last).  Returns (x as p x N, which columns took the border)."""
    out, bordered = np.zeros(s.shape), np.zeros(s.shape[1], dtype=bool)
    for i in range(s.shape[1]):
        sup = np.flatnonzero(s[:, i])
        if not sup.size:
            continue
        k, b = sup.size, s[sup, i]
        mat = np.zeros((k + 1, k + 1))
        mat[:k, :k] = gram[np.ix_(sup, sup)] + coders.RIDGE * np.eye(k)
        x = np.linalg.solve(mat[:k, :k], top[sup, i])
        if b @ x > last[i]:
            mat[:k, k] = mat[k, :k] = b
            x = np.linalg.solve(mat, np.append(top[sup, i], last[i]))[:k]
            bordered[i] = True
        out[sup, i] = x
    return out, bordered


def _bordered_residual(gram, s, top, last, step, bordered):
    """Each column's residual in its KKT system at x = step, with nu fitted
    by least squares where the system is bordered, relative to max |top_S|."""
    out = np.empty(s.shape[1])
    for i in range(s.shape[1]):
        sup = np.flatnonzero(s[:, i])
        b, x = s[sup, i], step[sup, i]
        r = top[sup, i] - (gram[np.ix_(sup, sup)] + coders.RIDGE * np.eye(sup.size)) @ x
        if bordered[i]:
            r = np.append(r - (b @ r) / (b @ b) * b, b @ x - last[i])
        out[i] = np.abs(r).max() / np.abs(top[sup, i]).max()
    return out


def test_newton_step_matches_bordered_lu():
    # supports of 1-6 atoms in R^8 with random signs s, and last drawn in
    # [-0.1, 0.1], so that the clamp puts some columns on the sphere (the
    # border s) and leaves others inside the ball (nu = 0); top is D^T of a
    # signal, as -D^T r in the finish.  With atom 7 a near-twin of atom 0 at
    # delta = 1e-8 in every support of two or more, cond(G_SS + RIDGE I)
    # reaches ~1e12.  The step agrees with the LU to within eps
    # cond(G_SS + RIDGE I) of the larger of step and top (on the sphere,
    # M^-1 top and nu M^-1 s cancel down to the step), and solves its system
    # to the LU's backward error, about 2e-12 of |top| on the pair, where an
    # explicit inverse's product left 3e-8.  nu is 0 exactly where the LU
    # stays inside
    base = uniform_sphere_matrix(8, 12, substream(41, 0))
    d0 = base[:, 0]
    u = uniform_sphere_matrix(8, 1, substream(41, 2))[:, 0]
    v = u - (u @ d0) * d0
    v /= np.linalg.norm(v)
    twin = base.copy()
    twin[:, 7] = (d0 + 1e-8 * v) / np.linalg.norm(d0 + 1e-8 * v)
    n_sig = 60
    for atoms, pair in ((base, False), (twin, True)):
        rng = substream(41, 1)
        on = np.zeros((12, n_sig), dtype=bool)
        for i in range(n_sig):
            on[rng.choice(12, 1 + i % 6, replace=False), i] = True
            if pair and i % 6:
                on[[0, 7], i] = True
        s = np.where(on, np.sign(rng.standard_normal((12, n_sig))), 0.0)
        top = atoms.T @ rng.standard_normal((8, n_sig))
        last = rng.uniform(-0.1, 0.1, n_sig)
        gram = atoms.T @ atoms
        step, nu = coders._newton_step(coders._kkt_table(gram), s, top, last)
        ref, bordered = _kkt_reference(gram, s, top, last)
        assert 10 <= bordered.sum() <= n_sig - 10
        assert np.array_equal(nu > 0.0, bordered) and not (nu < 0.0).any()
        assert not step[~on].any()
        cond = np.array([np.linalg.cond(gram[np.ix_(sup, sup)] + coders.RIDGE * np.eye(sup.size))
                         for sup in (np.flatnonzero(col) for col in on.T)])
        assert not pair or cond.max() > 1e11
        assert _bordered_residual(gram, s, top, last, step, bordered).max() <= 1e-10
        tol = 4 * np.finfo(float).eps * cond * np.maximum(np.abs(ref), np.abs(top) * on).max(axis=0)
        assert np.all(np.abs(step - ref).max(axis=0) <= tol)
        if not pair:
            assert np.abs(step - ref).max() <= 1e-13 * np.abs(ref).max()


def test_newton_step_mixes_empty_partial_and_full_supports():
    # one batch in R^8 with p = 6: empty supports, full ones (k = p, so no
    # padding slot) and partial ones of 1-5 atoms, the clamp putting some
    # of them on the sphere.  The padded gather solves each column's own
    # system, and a batch of empty supports steps nowhere, with nu = 0
    atoms = uniform_sphere_matrix(8, 6, substream(68, 0))
    gram, table = atoms.T @ atoms, coders._kkt_table(atoms.T @ atoms)
    rng = substream(68, 1)
    n_sig = 30
    on = np.zeros((6, n_sig), dtype=bool)
    for i in range(n_sig):
        on[rng.choice(6, (0, 6, 1 + i % 5)[i % 3], replace=False), i] = True
    s = np.where(on, np.sign(rng.standard_normal((6, n_sig))), 0.0)
    top = atoms.T @ rng.standard_normal((8, n_sig))
    last = rng.uniform(-0.1, 0.1, n_sig)
    step, nu = coders._newton_step(table, s, top, last)
    ref, bordered = _kkt_reference(gram, s, top, last)
    assert sorted(set(on.sum(axis=0))) == [0, 1, 2, 3, 4, 5, 6]
    assert 0 < bordered.sum() < n_sig
    assert np.array_equal(nu > 0.0, bordered)
    assert not step[~on].any()
    assert np.abs(step - ref).max() <= 1e-13 * np.abs(ref).max()
    step, nu = coders._newton_step(table, np.zeros((6, 4)), top[:, :4], np.full(4, -0.1))
    assert not step.any() and not nu.any()


def test_l1_coefficients_are_c_ordered_for_any_input_layout():
    # memory layout is part of the output: C- and F-ordered signals and
    # guesses all give C-ordered coefficients, certified alike
    d, lam, signals = _gengap_regime_bed(69, 40)
    coeffs, errors, _iters, _residual = l1_solve_batch(d, signals, lam)
    assert coeffs.flags.c_contiguous
    for x in (signals, np.asfortranarray(signals)):
        for guess in (None, coeffs, np.asfortranarray(coeffs)):
            got, got_errors, _iters, _residual = l1_solve_batch(d, x, lam, guess)
            assert got.flags.c_contiguous
            assert np.abs(got_errors - errors).max() <= ERR_TOL


def _tropp_bed(d, k, seed, count=40):
    # exactly k-sparse Gaussian codes on random supports, scaled to
    # ||a*||_1 = 1, and their signals D a*
    rng = substream(68, seed)
    truth = np.zeros((d.p, count))
    for j in range(count):
        truth[rng.choice(d.p, k, replace=False), j] = rng.standard_normal(k)
    truth /= np.abs(truth).sum(axis=0)
    return truth, d.atoms @ truth


def test_l1_recovers_under_tropp_condition():
    # Tropp (2004): where babel(D, k - 1) + babel(D, k) < 1, a k-sparse a* is
    # the unique minimizer of ||a||_1 subject to D a = D a*, and greedy
    # pursuit picks its support in k steps; any 2k atoms are independent
    # (babel is subadditive), so it is also the unique exact k-sparse fit.
    # So at lam = ||a*||_1 the l1 coder returns a*, and greedy, exact and
    # the linear-kernel greedy coder return it too.  The problem is
    # homogeneous, so the codes are scaled to ||a*||_1 = 1 and coded at
    # lam = 1 in one batch: each optimum lies on the sphere with nu = 0, on
    # the edge between the KKT solve's two sides.  On sphere dictionaries at
    # n = 64, p = 8, k = 3, 8 of 30 meet the condition.  A certified error
    # h <= ERR_TOL on the true support puts the l1 coefficients within
    # h / sigma_min(D_S) of a*, and sigma_min^2 >= 1 - babel(D, k - 1); the
    # pursuits' least-squares solves on D_S, whose condition number is then
    # at most 2, are within rounding of a*
    n, p, k, kept = 64, 8, 3, 0
    for i in range(30):
        d = Dictionary(uniform_sphere_matrix(n, p, substream(67, i)))
        near = babel(d, k - 1).value
        if near + babel(d, k).value >= 1.0:
            continue
        kept += 1
        truth, signals = _tropp_bed(d, k, i)
        coeffs, errors, _iters, _residual = l1_solve_batch(d, signals, 1.0)
        assert errors.max() <= ERR_TOL
        assert np.array_equal(coeffs != 0.0, truth != 0.0)
        assert np.abs(coeffs - truth).max() <= 2 * ERR_TOL / math.sqrt(1.0 - near)
        kd = KernelDictionary.build(d.atoms.T, linear_kernel())
        kernel = np.stack([kernel_greedy_ksparse(x, kd, linear_kernel(), k).coeffs.values for x in signals.T],
                          axis=1)
        for coeffs in (greedy_ksparse_batch(d, signals, k)[0], exact_ksparse_batch(d, signals, k)[0], kernel):
            assert np.array_equal(coeffs != 0.0, truth != 0.0)
            assert np.abs(coeffs - truth).max() <= 1e-13
    assert kept == 8


def test_tropp_near_twin_control_misses_the_support():
    # the negative control of test_l1_recovers_under_tropp_condition: its
    # first kept dictionary with atom 7 made a near-twin of atom 0 at delta
    # = 1e-2 breaks the condition, and on the same kind of codes greedy
    # pursuit and the l1 coder then miss some supports (the l1 coder with a
    # certified error, at another point of the ball that fits the signal).
    # No 6 atoms are dependent, so the exact coder still returns a*
    n, p, k = 64, 8, 3
    atoms = uniform_sphere_matrix(n, p, substream(67, 5))
    u = uniform_sphere_matrix(n, 1, substream(69, 0))[:, 0]
    v = u - (u @ atoms[:, 0]) * atoms[:, 0]
    atoms[:, 7] = atoms[:, 0] + 1e-2 * v / np.linalg.norm(v)
    d = Dictionary(atoms / np.linalg.norm(atoms, axis=0))
    assert babel(d, k - 1).value + babel(d, k).value >= 1.0
    truth, signals = _tropp_bed(d, k, 5)
    coeffs, errors, _iters, _residual = l1_solve_batch(d, signals, 1.0)
    assert errors.max() <= ERR_TOL
    missed = lambda c: np.any((c != 0.0) != (truth != 0.0), axis=0)
    assert missed(coeffs).sum() >= 5
    assert missed(greedy_ksparse_batch(d, signals, k)[0]).sum() >= 5
    exact = exact_ksparse_batch(d, signals, k)[0]
    assert not missed(exact).any()
    assert np.abs(exact - truth).max() <= 1e-12


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


def test_l1_round_counts_are_pinned():
    # the lockstep round counts of three batches: a cold one of gengap-l1's
    # shape (n = 8, p = 12, lam = 1, N = 2,000), a cold one of criterion 3's
    # (pair 0's D, N = 50, lam = 2), and the first again from its optimum
    # with every coefficient perturbed by 1%, which holds every optimum's
    # support and signs, so one round's KKT solve certifies it.  These pin
    # the moves: a cheaper round must make the same ones.  Every 20th column
    # of the large batches, and every column of the small one, matches its
    # own l1_solve
    d, lam, signals = _gengap_regime_bed(65, 2000)
    coeffs, errors, iters, _residual = l1_solve_batch(d, signals, lam)
    assert iters == 13
    guess = coeffs * (1.0 + 0.01 * substream(66, 0).standard_normal(coeffs.shape))
    _coeffs, warm_errors, warm_iters, _residual = l1_solve_batch(d, signals, lam, guess)
    assert warm_iters == 1
    single = np.array([l1_solve(d, signals[:, j], lam).error for j in range(0, 2000, 20)])
    assert np.abs(single - errors[::20]).max() <= 1e-12
    assert np.abs(single - warm_errors[::20]).max() <= 1e-12
    d, _d2, signals = _criterion3_pair(0)
    _coeffs, errors, iters, _residual = l1_solve_batch(d, signals, 2.0)
    assert iters == 11
    single = np.array([l1_solve(d, x, 2.0).error for x in signals.T])
    assert np.abs(single - errors).max() <= 1e-12


def test_exact_residual_is_correctly_rounded():
    rng = substream(39, 0)
    atoms, a, x = rng.standard_normal((5, 7)), rng.standard_normal((7, 4)), rng.standard_normal((5, 4))
    x[:, 0] = atoms @ a[:, 0]  # cancellation down to the rounding of D a
    exact = np.stack([_exact_residual_reference(atoms, a[:, j], x[:, j]) for j in range(4)], axis=1)
    assert np.array_equal(coders._exact_residual(atoms, a, x), exact)


def test_l1_precision_floor_recentres_and_warns(monkeypatch):
    # 3-sparse signals of l1 norm 1 coded at lam = 1 - 1e-6: the optima lie on
    # the sphere with errors ~5e-7, where the residual's rounding hides gaps
    # below ~2 lam eps ||x||, i.e. slacks below ~5e-10.  Ten unit signals
    # with errors ~0.1 ride along.  The Newton finish from exactly rounded
    # residuals leaves the slacks of the optima spread over 7 atoms near
    # 1e-10: the rounding of their coefficients alone (~eps |a| in D^T r)
    # puts them there, so which side of ERR_TOL each lands on is luck.  The
    # warning names exactly the columns whose exactly rounded slack is above
    # the tolerance; at ERR_TOL / 2, below this floor, some always are.
    d = Dictionary(uniform_sphere_matrix(8, 12, substream(1, 0)))
    rng = np.random.default_rng(1)
    coeffs = np.zeros((12, 40))
    for j in range(40):
        coeffs[rng.choice(12, 3, replace=False), j] = rng.uniform(-1, 1, 3)
    signals = np.hstack([d.atoms @ (coeffs / np.abs(coeffs).sum(axis=0)),
                         uniform_sphere_matrix(8, 10, substream(1, 1))])
    lam = 1 - 1e-6
    for tol in (ERR_TOL, ERR_TOL / 2):
        monkeypatch.setattr(coders, "ERR_TOL", tol)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            coeffs, _errors, iters, _residual = l1_solve_batch(d, signals, lam)
        assert len(record) <= 1
        assert iters <= 20
        named = []
        if record:
            assert record[0].category is RuntimeWarning
            message = str(record[0].message)
            assert re.match(r"l1_solve_batch left \d+ of 50 columns \[", message)
            named = [int(j) for j in re.search(r"\[([\d, ]+)\]", message)[1].split(",")]
        slack = _l1_slack_reference(d.atoms, coeffs, signals, lam, exact=True)
        assert named == np.flatnonzero(slack > tol).tolist()
        assert slack.max() <= 2 * ERR_TOL
        assert np.abs(coeffs).sum(axis=0).max() <= lam * (1 + 1e-12)
    assert named


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
    with pytest.warns(RuntimeWarning, match=r"left \d+ of 10 columns \[[\d, ]+\] uncertified after 3 "
                                            r"Newton steps, \d+ of them cut off at MAX_ITERS = 5 rounds "
                                            r"\(worst error slack"):
        _coeffs, _errors, iters, _residual = l1_solve_batch(d, signals, 2.0)
    assert iters == 5


def test_l1_cut_off_columns_take_the_finish_and_share_one_warning(monkeypatch):
    # the bed of test_l1_precision_floor_recentres_and_warns at ERR_TOL / 2,
    # where some optima stay above the tolerance at the precision floor, with
    # the rounds cut off at 12 of the 17 they need.  The columns still in the
    # rounds take the same Newton finish as the floor columns, and one
    # warning names every column left uncertified, floor and cut-off alike,
    # and counts the cut-off ones: those whose own call takes over 12 rounds
    d = Dictionary(uniform_sphere_matrix(8, 12, substream(1, 0)))
    rng = np.random.default_rng(1)
    coeffs = np.zeros((12, 40))
    for j in range(40):
        coeffs[rng.choice(12, 3, replace=False), j] = rng.uniform(-1, 1, 3)
    signals = np.hstack([d.atoms @ (coeffs / np.abs(coeffs).sum(axis=0)),
                         uniform_sphere_matrix(8, 10, substream(1, 1))])
    lam, tol = 1 - 1e-6, ERR_TOL / 2
    monkeypatch.setattr(coders, "ERR_TOL", tol)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rounds = np.array([l1_solve_batch(d, signals[:, j:j + 1], lam)[2] for j in range(50)])
    cut = np.flatnonzero(rounds > 12)
    assert cut.size
    finished = []
    exact_residual = coders._exact_residual
    monkeypatch.setattr(coders, "_exact_residual",
                        lambda *args: finished.append(args[2]) or exact_residual(*args))
    monkeypatch.setattr(coders, "MAX_ITERS", 12)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        coeffs, _errors, iters, _residual = l1_solve_batch(d, signals, lam)
    assert iters == 12
    for j in cut:
        assert any(np.array_equal(col, signals[:, j]) for col in finished[0].T)
    assert len(record) == 1 and record[0].category is RuntimeWarning
    message = str(record[0].message)
    assert re.match(rf"l1_solve_batch left \d+ of 50 columns \[[\d, ]+\] uncertified after 3 Newton "
                    rf"steps, {cut.size} of them cut off at MAX_ITERS = 12 rounds \(worst", message)
    named = [int(j) for j in re.search(r"\[([\d, ]+)\]", message)[1].split(",")]
    slack = _l1_slack_reference(d.atoms, coeffs, signals, lam, exact=True)
    assert named == np.flatnonzero(slack > tol).tolist()
    assert set(cut) < set(named)


def _gengap_regime_bed(seed, count):
    # gengap-l1's regime: n = 8, p = 12, lam = 1, unit-sphere atoms and signals
    return (Dictionary(uniform_sphere_matrix(8, 12, substream(seed, 0))), 1.0,
            uniform_sphere_matrix(8, count, substream(seed, 1)))


def test_l1_guess_of_its_own_output_certifies_in_one_round():
    # a guess equal to the solver's output holds the optimum's support and
    # signs, so the first round's KKT solve certifies every column: on the
    # sphere (lam <= 1 here), inside the ball (lam = 50, exact fits and,
    # with p < n, least squares), and on criterion 3's pair 314, whose
    # optima at lam = 2 lie on both sides
    d, d2, pair = _criterion3_pair(314)
    cases = [_gengap_regime_bed(60, 40),
             (Dictionary(uniform_sphere_matrix(6, 8, substream(30, 0))), 0.25,
              uniform_sphere_matrix(6, 40, substream(30, 1))),
             (Dictionary(uniform_sphere_matrix(6, 8, substream(30, 0))), 50.0,
              uniform_sphere_matrix(6, 40, substream(30, 1))),
             (Dictionary(uniform_sphere_matrix(8, 5, substream(32, 0))), 50.0,
              uniform_sphere_matrix(8, 40, substream(32, 1))),
             (Dictionary(_repeated_atom(6, 8, 31)), 1.0, uniform_sphere_matrix(6, 40, substream(31, 1))),
             (d, 2.0, pair), (d2, 2.0, pair)]
    for d, lam, signals in cases:
        coeffs, errors, iters, _residual = l1_solve_batch(d, signals, lam)
        assert iters >= 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            guessed, guessed_errors, iters, residual = l1_solve_batch(d, signals, lam, coeffs)
        assert iters == 1
        assert _l1_slack_reference(d.atoms, guessed, signals, lam).max() <= ERR_TOL
        assert np.abs(guessed_errors - errors).max() <= ERR_TOL
        assert np.abs(guessed).sum(axis=0).max() <= lam * (1 + 1e-12)
        assert residual <= 1e-9
    # a sphere point a few eps inside lam, as rounding leaves the solver's,
    # is put back on the sphere by the KKT solve: one round certifies it
    d, lam, signals = cases[0]
    coeffs = l1_solve_batch(d, signals, lam)[0] * (1 - 4 * np.finfo(float).eps)
    assert l1_solve_batch(d, signals, lam, coeffs)[2] == 1


def test_l1_perturbed_optimum_certifies_in_one_round():
    # every coefficient of the optimum scaled by 1 +- 1% (random signs)
    # keeps its support and signs, and a sphere optimum's guess lands inside
    # the ball or beyond it.  The first round's KKT solve picks the ball's
    # side either way, so it certifies every column: on gengap-l1's regime,
    # whose optima lie on the sphere, and on criterion 3's pair 314, whose
    # optima at lam = 2 lie on both sides
    d, _d2, pair = _criterion3_pair(314)
    for i, (d, lam, signals) in enumerate([_gengap_regime_bed(63, 200), (d, 2.0, pair)]):
        coeffs, errors, _iters, _residual = l1_solve_batch(d, signals, lam)
        guess = coeffs * (1.0 + 0.01 * substream(70, i).choice([-1.0, 1.0], coeffs.shape))
        sphere, norm1 = np.abs(coeffs).sum(axis=0) >= lam * (1 - 1e-12), np.abs(guess).sum(axis=0)
        assert (sphere & (norm1 < lam)).sum() >= 10 and (sphere & (norm1 > lam)).sum() >= 10
        assert i == 0 or (~sphere).sum() >= 5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, got_errors, iters, _residual = l1_solve_batch(d, signals, lam, guess)
        assert iters == 1
        assert _l1_slack_reference(d.atoms, got, signals, lam).max() <= ERR_TOL
        assert np.abs(got_errors - errors).max() <= ERR_TOL


def _guess_kinds(d, lam, signals, coeffs):
    """One column's guess of each kind that one round cannot certify, each
    checked on _kkt_reference's solution of its support and signs (from
    zero, the system the solver solves from the guess): a flipped sign; an
    atom added whose KKT solution takes the other sign; a needed atom left
    out, whose KKT solution keeps the signs but is not certified; zero."""
    gram, top = d.atoms.T @ d.atoms, d.atoms.T @ signals

    def kkt(j, guess):
        return _kkt_reference(gram, np.sign(guess)[:, None], top[:, j:j + 1], np.array([lam]))[0][:, 0]

    kinds = {}
    for j in range(signals.shape[1]):
        a, sup = coeffs[:, j], np.flatnonzero(coeffs[:, j])
        if sup.size < 2:
            continue
        if "wrong sign" not in kinds:
            guess = a.copy()
            guess[sup[0]] *= -1.0
            kinds["wrong sign"] = (j, guess)
        for atom in np.flatnonzero(a == 0.0):
            for sign in (1.0, -1.0):
                guess = a.copy()
                guess[atom] = sign * 1e-3
                if "infeasible" not in kinds and np.sign(kkt(j, guess)[atom]) == -sign:
                    kinds["infeasible"] = (j, guess)
        guess = a.copy()
        guess[sup[np.argmin(np.abs(a[sup]))]] = 0.0
        sol = kkt(j, guess)
        if ("uncertified" not in kinds and np.array_equal(np.sign(sol), np.sign(guess))
                and _l1_slack_reference(d.atoms, sol[:, None], signals[:, j:j + 1], lam)[0] > ERR_TOL):
            kinds["uncertified"] = (j, guess)
    kinds["zero"] = (0, np.zeros(d.p))
    return kinds


def test_l1_guesses_that_fail_their_check_take_more_rounds():
    # each of these guesses fails its first round's check; an atom leaves or
    # joins per round, which repairs each guess one change from the optimum,
    # and an all-zero column starts from its most correlated atom.  Each
    # column comes back certified, within ERR_TOL of the unguessed call, in
    # more than one round.
    d, lam, signals = _gengap_regime_bed(61, 30)
    coeffs, errors, _iters, _residual = l1_solve_batch(d, signals, lam)
    kinds = _guess_kinds(d, lam, signals, coeffs)
    assert sorted(kinds) == ["infeasible", "uncertified", "wrong sign", "zero"]
    for kind, (j, guess) in kinds.items():
        # one column per call, so the round count is the column's own
        x = signals[:, j:j + 1]
        got, got_errors, iters, _residual = l1_solve_batch(d, x, lam, guess[:, None])
        assert iters >= 2, kind
        assert abs(got_errors[0] - errors[j]) <= ERR_TOL, kind
        assert _l1_slack_reference(d.atoms, got, x, lam)[0] <= ERR_TOL, kind
    # inside the ball the KKT solve reads the support alone (nu = 0), so a
    # flipped sign still solves to the optimum; the first round's sign test
    # refuses it
    d_in, lam_in = Dictionary(uniform_sphere_matrix(8, 5, substream(32, 0))), 50.0
    x = uniform_sphere_matrix(8, 1, substream(32, 1))
    a = l1_solve_batch(d_in, x, lam_in)[0]
    a[np.flatnonzero(a[:, 0])[0], 0] *= -1.0
    assert l1_solve_batch(d_in, x, lam_in, a)[2] >= 2
    # all four among certified guesses in one batch, and random guesses:
    # every column comes back certified, within ERR_TOL of the unguessed call
    guess = coeffs.copy()
    for col, (j, g) in enumerate(kinds.values()):
        signals[:, col], guess[:, col] = signals[:, j], g
    coeffs, errors, _iters, _residual = l1_solve_batch(d, signals, lam)
    rng = substream(61, 2)
    wild = rng.standard_normal(coeffs.shape) * (rng.random(coeffs.shape) < 0.4)
    for g in (guess, wild):
        got, got_errors, _iters, _residual = l1_solve_batch(d, signals, lam, g)
        assert np.abs(got_errors - errors).max() <= ERR_TOL
        assert _l1_slack_reference(d.atoms, got, signals, lam).max() <= ERR_TOL


def test_l1_sphere_guess_of_an_inside_optimum_moves_inside():
    # p < n at lam = 50: every optimum is least squares, well inside the
    # ball.  Guesses scaled onto the sphere hold the optima's supports and
    # signs; their KKT solutions lie inside the ball, so the ball does not
    # bind (nu = 0), and the first round certifies each least-squares
    # solution
    d = Dictionary(uniform_sphere_matrix(8, 5, substream(32, 0)))
    signals = uniform_sphere_matrix(8, 40, substream(32, 1))
    lam = 50.0
    coeffs, errors, _iters, _residual = l1_solve_batch(d, signals, lam)
    assert np.abs(coeffs).sum(axis=0).max() < lam / 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, got_errors, iters, _residual = l1_solve_batch(d, signals, lam,
                                                           coeffs * (lam / np.abs(coeffs).sum(axis=0)))
    assert iters == 1
    assert np.abs(got_errors - errors).max() <= ERR_TOL
    assert _l1_slack_reference(d.atoms, got, signals, lam).max() <= ERR_TOL


@pytest.mark.parametrize("guess, message", [
    (np.zeros((11, 5)), r"guess must have dimension 12, got shape \(11, 5\)"),
    (np.zeros((12, 4)), r"guess must be p x N = 12 x 5, got shape \(12, 4\)"),
    (np.zeros(12), r"guess must be a nonempty 2-d array, got shape \(12,\)"),
    (np.full((12, 5), np.nan), r"guess must be finite"),
    (np.where(np.eye(12, 5) > 0, np.inf, 0.0), r"guess must be finite"),
])
def test_l1_guess_is_held_to_the_matrix_rule(guess, message):
    d, lam, signals = _gengap_regime_bed(62, 5)
    with pytest.raises(ValueError, match=f"^{message}$"):
        l1_solve_batch(d, signals, lam, guess)


def _uncertified_columns(d, signals, lam, guess=None):
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        coeffs = l1_solve_batch(d, signals, lam, guess)[0]
    named = []
    for r in record:
        assert r.category is RuntimeWarning and "uncertified" in str(r.message)
        named += [int(j) for j in re.search(r"\[([\d, ]+)\]", str(r.message))[1].split(",")]
    return coeffs, named


def test_l1_near_twin_guesses_warn_no_more_than_a_cold_start():
    # the bed of test_l1_near_twin_atoms_certify at delta = 1e-10, where the
    # barred twin's cost can reach ERR_TOL: a guess holding the twin that the
    # unguessed call chose, and one holding both (G_SS + RIDGE I near
    # singular), leave no more columns uncertified than the unguessed call
    atoms = uniform_sphere_matrix(6, 8, substream(33, 0))
    signals = uniform_sphere_matrix(6, 40, substream(33, 1))
    d0 = atoms[:, 0]
    for i in range(8):
        u = uniform_sphere_matrix(6, 1, substream(33, 2) if i == 0 else substream(45, i))[:, 0]
        v = u - (u @ d0) * d0
        v /= np.linalg.norm(v)
        twin = atoms.copy()
        twin[:, 7] = (d0 + 1e-10 * v) / np.linalg.norm(d0 + 1e-10 * v)
        d = Dictionary(twin)
        coeffs, named = _uncertified_columns(d, signals, 2.0)
        both = coeffs.copy()
        one = (coeffs[0] != 0.0) != (coeffs[7] != 0.0)
        both[0, one] = both[7, one] = (coeffs[0, one] + coeffs[7, one]) / 2
        assert one.any()
        for guess in (coeffs, both):
            assert len(_uncertified_columns(d, signals, 2.0, guess)[1]) <= len(named)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 5.0, exclude_min=True))
def test_project_l1_is_euclidean_projection(seed, radius):
    # the fixed-point residual's projection, which takes a radius > 0
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(6) * 3
    proj = coders._project_l1_columns(v[:, None], radius)[:, 0]
    assert np.abs(proj).sum() <= radius + 1e-9
    # no feasible point is closer
    z = rng.standard_normal(6)
    total = np.abs(z).sum()
    z = z * (radius / total) if total > radius else z
    assert np.abs(z).sum() <= radius + 1e-12
    assert np.linalg.norm(v - proj) <= np.linalg.norm(v - z) + 1e-9


def test_project_l1_inside_ball_untouched():
    v = np.array([0.2, -0.1, 0.05])
    assert np.array_equal(coders._project_l1_columns(v[:, None], 1.0)[:, 0], v)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
def test_l1_rejects_bad_radius(lam):
    # NaN passes a plain `radius < 0` test and an infinite radius runs the
    # solver on NaNs, so both are rejected with core._finite's message
    d = Dictionary(uniform_sphere_matrix(4, 6, substream(40, 0)))
    signals = uniform_sphere_matrix(4, 3, substream(40, 1))
    for call in (lambda: l1_solve(d, signals[:, 0], lam), lambda: l1_solve_batch(d, signals, lam)):
        with pytest.raises(ValueError, match="lam must be >= 0 and finite"):
            call()


# ----------------------------------------------------------------- dispatch


def test_repr_error_dispatch():
    d = Dictionary(np.eye(2))
    x = np.array([1 / ROOT2, 1 / ROOT2])
    assert repr_error(d, x, HardK(1)).error == pytest.approx(1 / ROOT2)
    assert repr_error(d, x, HardK(1), exact=True).method == "exact"
    assert repr_error(d, x, L1Ball(2.0)).method == "l1"
    single = Dictionary(np.array([[1.0], [0.0]]))
    assert repr_error(single, np.array([0.0, 1.0]), HardK(1)).error == pytest.approx(1.0)


def test_repr_error_refuses_an_unknown_constraint():
    with pytest.raises(ValueError, match=r"^unknown constraint 'k=1'$"):
        repr_error(Dictionary(np.eye(2)), np.array([1.0, 0.0]), "k=1")


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


def test_coeff_l1_bound_refuses_an_invalid_dictionary():
    atoms = np.diag([1.0, 0.5, 1.0])
    with pytest.raises(ValueError, match=r"^dictionary invalid: column 1: norm 0\.5 below 1$"):
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
