"""Sparse coders and the representation error they induce.

The representation error of a signal x under dictionary D and constraint
set A is

    h(x) = min_{a in A} ||D a - x||_2,

with A either the k-sparse vectors (HardK) or the l1 ball of radius lam
(L1Ball).  `exact_ksparse` and `exact_ksparse_batch` share one exhaustive
engine, the ground truth: it scores each support by the energy its QR
projection captures, refits the winners, and sends ties to the smallest
support in lexicographic order.  `greedy_ksparse` and its batch form are
the fast heuristic, a batch OMP on D^T D and D^T X that the kernel coder
runs on a Gram matrix.  Both take a 1e-12 ridge on rank-deficient supports.
`l1_solve` is accelerated projected gradient, exact up to its tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np
from scipy.linalg import solve_triangular

from .core import (
    CoeffVector,
    Dictionary,
    GuardExceededError,
    HardK,
    InapplicableError,
    L1Ball,
    SparsityConstraint,
    as_vector,
    validate_dictionary,
)

# Exhaustive coding is allowed up to this many supports.
EXACT_GUARD = 10**6

# Least-squares rank test and the ridge applied when it fails.
RANK_RTOL = 1e-10
RIDGE = 1e-12

# l1 solver: stop once the projected-gradient fixed-point residual is
# below FP_TOL, or after MAX_ITERS proximal steps.
FP_TOL = 1e-8
MAX_ITERS = 10_000


@dataclass(frozen=True)
class CodingResult:
    """Coefficients, the achieved error ||D a - x||_2, and how they were found."""

    coeffs: CoeffVector
    error: float
    method: str  # "greedy" | "exact" | "l1-projection"
    iterations: int | None = None
    fp_residual: float | None = None
    ridge_used: bool = False


def _full_rank(r: np.ndarray) -> bool:
    """Rank test on the R factor of a support's atoms (wide blocks fail it)."""
    diag = np.abs(np.diag(r))
    return r.shape[0] == r.shape[1] and diag.max() > 0.0 and diag.min() > RANK_RTOL * diag.max()


def _ls_fit(a_sub: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Least squares via QR; falls back to a 1e-12 ridge on rank deficiency."""
    q, r = np.linalg.qr(a_sub)
    if _full_rank(r):
        return solve_triangular(r, q.T @ rhs), False
    gram = a_sub.T @ a_sub + RIDGE * np.eye(a_sub.shape[1])
    return np.linalg.solve(gram, a_sub.T @ rhs), True


def _check_signal(n: int, x) -> np.ndarray:
    """x as a finite vector of dimension n (the atoms' dimension)."""
    v = as_vector(x)
    if v.shape[0] != n:
        raise ValueError(f"signal has dimension {v.shape[0]}, dictionary expects {n}")
    if not np.all(np.isfinite(v)):
        raise ValueError("signal entries must be finite")
    return v


def _check_signals(d: Dictionary, signals) -> np.ndarray:
    signals = np.asarray(signals, dtype=float)
    if signals.ndim != 2 or signals.shape[0] != d.n:
        raise ValueError(f"signals must be an {d.n} x N matrix, got shape {signals.shape}")
    if not np.all(np.isfinite(signals)):
        raise ValueError("signal entries must be finite")
    return signals


def _result(d: Dictionary, x: np.ndarray, dense: np.ndarray, support, method: str,
            **extra) -> CodingResult:
    coeffs = CoeffVector(dense, tuple(support))
    error = float(np.linalg.norm(d.atoms @ dense - x))
    return CodingResult(coeffs=coeffs, error=error, method=method, **extra)


def _greedy_columns(gram: np.ndarray, corr: np.ndarray, k: int):
    """Batch OMP (Rubinstein, Zibulevsky & Elad, 2008) from the p x p atom
    Gram and the p x N atom-signal inner products.  Each round a column picks
    the unpicked atom with the largest |corr - G_S a_S| (ties to the lowest
    index; a column stops once that is 0) and refits on G_SS, adding RIDGE
    unless eig_min > RANK_RTOL eig_max.  That bounds cond(G_SS), the matrix
    solved; RANK_RTOL^2, the QR test's threshold in Gram terms, is below what
    eigvalsh resolves and passes exactly repeated atoms.  Returns (coeffs
    p x N, supports N x k padded with -1, ridge_used N)."""
    p, n_sig = corr.shape
    supports = np.full((n_sig, k), -1)
    coef = np.zeros((n_sig, k))
    ridge_used = np.zeros(n_sig, dtype=bool)
    live = np.arange(n_sig)
    for t in range(k):
        sup = supports[live, :t]
        # gather the support columns: a full G @ coeffs costs p^2 per column
        score = np.abs(corr[:, live] - np.einsum("pnt,nt->pn", gram[:, sup], coef[live, :t]))
        score[sup.T, np.arange(live.size)] = -1.0
        pick = np.argmax(score, axis=0)
        keep = score[pick, np.arange(live.size)] > 0.0
        live = live[keep]
        if not live.size:
            break
        supports[live, t] = pick[keep]
        sup = supports[live, :t + 1]
        g_ss = gram[sup[:, :, None], sup[:, None, :]]
        eigs = np.linalg.eigvalsh(g_ss)
        ridge = ~(eigs[:, 0] > RANK_RTOL * eigs[:, -1])
        if ridge.any():
            g_ss[ridge] += RIDGE * np.eye(t + 1)
        coef[live, :t + 1] = np.linalg.solve(g_ss, corr[sup, live[:, None]][..., None])[..., 0]
        ridge_used[live] = ridge
    dense = np.zeros((p, n_sig))
    picked = supports >= 0
    dense[supports[picked], np.nonzero(picked)[0]] = coef[picked]
    return dense, supports, ridge_used


def _greedy_signals(d: Dictionary, signals: np.ndarray, k: int):
    k = int(k)
    if not 1 <= k <= min(d.n, d.p):
        raise ValueError(f"k must satisfy 1 <= k <= min(n, p) = {min(d.n, d.p)}, got {k}")
    return _greedy_columns(d.atoms.T @ d.atoms, d.atoms.T @ signals, k)


def greedy_ksparse(d: Dictionary, x, k: int) -> CodingResult:
    """Greedy pursuit: repeatedly pick the atom most correlated with the
    residual (ties break toward the lowest index), then refit by least
    squares on the selected support.  The N=1 case of greedy_ksparse_batch."""
    x = _check_signal(d.n, x)
    dense, supports, ridge_used = _greedy_signals(d, x[:, None], k)
    return _result(d, x, dense[:, 0], supports[0][supports[0] >= 0], "greedy",
                   ridge_used=bool(ridge_used[0]))


def greedy_ksparse_batch(d: Dictionary, signals: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy coder over the columns of an n x N matrix: (coeffs p x N, errors N)."""
    signals = _check_signals(d, signals)
    dense = _greedy_signals(d, signals, k)[0]
    return dense, np.linalg.norm(d.atoms @ dense - signals, axis=0)


def _exact_columns(d: Dictionary, signals: np.ndarray, k: int):
    """Exhaustive k-sparse coding of the columns of an n x N matrix.

    A support scores a column by the energy it captures: ||Q^T x||^2, or
    ||x||^2 - ||x - A_S c||^2 at _ls_fit's ridge fit if the rank test fails.
    Only a strictly higher score wins; each winner is refit once.  Returns
    (coeffs p x N, refit errors N, supports k x N, ridge_used N).
    """
    k = int(k)
    if not 1 <= k <= d.p:
        raise ValueError(f"k must satisfy 1 <= k <= p = {d.p}, got {k}")
    if comb(d.p, k) > EXACT_GUARD:
        raise GuardExceededError(f"C({d.p},{k}) = {comb(d.p, k)} exceeds guard {EXACT_GUARD}")
    atoms, n_sig = d.atoms, signals.shape[1]
    subsets = list(combinations(range(d.p), k))
    best_score = np.full(n_sig, -np.inf)
    best_sub = np.zeros(n_sig, dtype=int)
    for si, subset in enumerate(subsets):
        a_sub = atoms[:, subset]
        q, r = np.linalg.qr(a_sub)
        if _full_rank(r):
            proj = q.T @ signals
            score = np.einsum("ij,ij->j", proj, proj)
        else:
            resid = signals - a_sub @ _ls_fit(a_sub, signals)[0]
            score = np.einsum("ij,ij->j", signals, signals) - np.einsum("ij,ij->j", resid, resid)
        better = score > best_score
        best_score[better] = score[better]
        best_sub[better] = si
    dense = np.zeros((d.p, n_sig))
    errors = np.empty(n_sig)
    supports = np.empty((k, n_sig), dtype=int)
    ridge_used = np.zeros(n_sig, dtype=bool)
    for si in np.unique(best_sub):
        cols = np.flatnonzero(best_sub == si)
        subset = list(subsets[si])
        coef, ridge_used[cols] = _ls_fit(atoms[:, subset], signals[:, cols])
        dense[np.ix_(subset, cols)] = coef
        errors[cols] = np.linalg.norm(signals[:, cols] - atoms[:, subset] @ coef, axis=0)
        supports[:, cols] = np.array(subset)[:, None]
    return dense, errors, supports, ridge_used


def exact_ksparse(d: Dictionary, x, k: int) -> CodingResult:
    """Exhaustive k-sparse coder: the best of every size-k support.

    Ties break toward the lexicographically smallest support.  Refuses
    instances with more than EXACT_GUARD supports.
    """
    x = _check_signal(d.n, x)
    dense, _errors, supports, ridge_used = _exact_columns(d, x[:, None], k)
    return _result(d, x, dense[:, 0], supports[:, 0], "exact", ridge_used=bool(ridge_used[0]))


def exact_ksparse_batch(d: Dictionary, signals: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive coder over a batch: signals as columns of an n x N matrix.

    Returns (coeffs, errors) with coeffs p x N dense and errors length N.
    Same engine as exact_ksparse, run on all columns at once.
    """
    dense, errors, _supports, _ridge = _exact_columns(d, _check_signals(d, signals), k)
    return dense, errors


def project_l1(v, radius: float) -> np.ndarray:
    """Euclidean projection of a vector onto the l1 ball of the given radius."""
    v = as_vector(v)
    return _project_l1_columns(v[:, None], float(radius))[:, 0]


def _project_l1_columns(mat: np.ndarray, radius: float) -> np.ndarray:
    """Column-wise l1-ball projection by the sort-and-threshold rule."""
    if radius < 0.0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if radius == 0.0:
        return np.zeros_like(mat)
    absm = np.abs(mat)
    over = absm.sum(axis=0) > radius
    if not over.any():
        return mat.copy()
    out = mat.copy()
    w = absm[:, over]
    s = -np.sort(-w, axis=0)
    css = np.cumsum(s, axis=0)
    ks = np.arange(1, mat.shape[0] + 1)[:, None]
    # the threshold level is the largest j with s_j > (css_j - radius)/j,
    # rearranged to css_j - j*s_j < radius so a tiny radius cannot be lost
    # to rounding against css
    keep = css - ks * s < radius
    # keep[0] compares 0 < radius, so rho is well defined for radius > 0
    rho = keep.shape[0] - 1 - np.argmax(keep[::-1, :], axis=0)
    theta = (css[rho, np.arange(w.shape[1])] - radius) / (rho + 1)
    out[:, over] = np.sign(mat[:, over]) * np.maximum(absm[:, over] - theta, 0.0)
    return out


def l1_solve_batch(d: Dictionary, signals: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray, int, float]:
    """l1-constrained least squares over a batch of column signals.

    Accelerated projected gradient with gradient-based momentum restarts;
    step 1/L with L the squared spectral norm of the dictionary.  Stops
    when every column's fixed-point residual is below FP_TOL.

    Returns (coeffs p x N, errors N, iterations, final residual).
    """
    signals = _check_signals(d, signals)
    lam = float(lam)
    if not lam >= 0.0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    atoms = d.atoms
    p, n_sig = d.p, signals.shape[1]
    lip = float(np.linalg.norm(atoms, 2)) ** 2
    if lam == 0.0 or lip == 0.0:
        return np.zeros((p, n_sig)), np.linalg.norm(signals, axis=0), 0, 0.0
    step = 1.0 / lip
    a = np.zeros((p, n_sig))
    y = a.copy()
    t = np.ones(n_sig)
    iterations = 0
    residual = np.inf
    for it in range(1, MAX_ITERS + 1):
        grad_y = atoms.T @ (atoms @ y - signals)
        a_new = _project_l1_columns(y - step * grad_y, lam)
        restart = ((y - a_new) * (a_new - a)).sum(axis=0) > 0.0
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        t_new[restart] = 1.0
        beta = (t - 1.0) / t_new
        beta[restart] = 0.0
        y = a_new + beta * (a_new - a)
        a = a_new
        t = t_new
        iterations = it
        if it % 5 == 0 or it == MAX_ITERS:
            grad_a = atoms.T @ (atoms @ a - signals)
            fp = a - _project_l1_columns(a - step * grad_a, lam)
            residual = float(np.sqrt((fp * fp).sum(axis=0)).max())
            if residual < FP_TOL:
                break
    resid_mat = atoms @ a - signals
    errors = np.sqrt((resid_mat * resid_mat).sum(axis=0))
    return a, errors, iterations, residual


def l1_solve(d: Dictionary, x, lam: float) -> CodingResult:
    """Representation under the l1-ball constraint ||a||_1 <= lam.

    lam = 0 returns the zero vector as a valid result.
    """
    x = _check_signal(d.n, x)
    coeffs, _errors, iterations, residual = l1_solve_batch(d, x[:, None], float(lam))
    dense = coeffs[:, 0]
    coeff_vec = CoeffVector.from_dense(dense)
    error = float(np.linalg.norm(d.atoms @ dense - x))
    return CodingResult(coeffs=coeff_vec, error=error, method="l1-projection",
                        iterations=iterations, fp_residual=residual)


def repr_error(d: Dictionary, x, constraint: SparsityConstraint, exact: bool = False) -> CodingResult:
    """Dispatch to the coder matching the constraint.

    HardK uses the greedy coder unless exact=True; L1Ball always uses the
    projected-gradient solver (exact up to its tolerance).
    """
    if isinstance(constraint, HardK):
        if exact:
            return exact_ksparse(d, x, constraint.k)
        return greedy_ksparse(d, x, constraint.k)
    if isinstance(constraint, L1Ball):
        return l1_solve(d, x, constraint.lam)
    raise ValueError(f"unknown constraint {constraint!r}")


def coeff_l1_bound(d: Dictionary, k: int) -> float:
    """Upper bound gamma * k / (1 - mu_{k-1}) on the l1 norm of an optimal
    k-sparse coefficient vector for a unit signal.

    Valid when column norms lie in [1, gamma] and mu_{k-1}(D) < 1; order 0
    is an empty sum, so mu_0 = 0.
    """
    k = int(k)
    if not 1 <= k <= d.p:
        raise ValueError(f"k must satisfy 1 <= k <= p = {d.p}, got {k}")
    problems = validate_dictionary(d)
    if problems:
        raise ValueError("dictionary invalid: " + "; ".join(problems))
    if k == 1:
        mu = 0.0
    else:
        from .coherence import babel

        mu = babel(d, k - 1).value
    if mu >= 1.0:
        raise InapplicableError(f"mu_{k - 1}(D) = {mu:.6g} >= 1; bound does not apply")
    return d.gamma * k / (1.0 - mu)
