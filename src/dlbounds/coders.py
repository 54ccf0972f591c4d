"""Sparse coders and the representation error they induce.

The representation error of a signal x under dictionary D and constraint
set A is

    h(x) = min_{a in A} ||D a - x||_2,

with A either the k-sparse vectors (HardK) or the l1 ball of radius lam
(L1Ball).  `exact_ksparse` and `exact_ksparse_batch` share one exhaustive
engine, the ground truth: stacked QRs score the full-rank supports by the
energy they capture, each winner is solved from the QR that scored it, and
ties go to the smallest support in lexicographic order (for k >= rank(D),
the first basis).
`greedy_ksparse` and its batch form are the fast heuristic, a batch OMP on
D^T D and D^T X that the kernel coder runs on a Gram matrix, with a 1e-12
ridge on rank-deficient supports.  `l1_solve` and `l1_solve_batch` are
certified: accelerated projected gradient, with an exact KKT polish on
each column's support and sign pattern, stops a column only once its
Frank-Wolfe duality gap proves its error within ERR_TOL = 1e-10 of the
optimum.  `l1_solve_batch` takes an optional starting point (`init`, e.g.
the solution for a nearby dictionary) and checks it before the first step,
so a column it already certifies costs no step.  A column whose gap sinks
into the rounding of its residual is re-centred at an exactly rounded
residual; one still uncertified FLOOR_STEPS steps later, or at MAX_ITERS,
raises a RuntimeWarning.
"""

from __future__ import annotations

import math
import warnings
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
# Exhaustive scoring takes supports in blocks holding about this many entries
# of Q and Q^T X, which bounds its memory.
SCORE_BLOCK = 2**18

# l1 solver: a column stops once its duality gap certifies its error to
# within ERR_TOL of the optimum, or after MAX_ITERS proximal steps.
ERR_TOL = 1e-10
MAX_ITERS = 10_000
# A column re-centred at its rounding floor gets this many more steps.
FLOOR_STEPS = 100


@dataclass(frozen=True)
class CodingResult:
    """Coefficients, the achieved error ||D a - x||_2, and how they were found."""

    coeffs: CoeffVector
    error: float
    method: str  # "greedy" | "exact" | "l1-projection"
    iterations: int | None = None
    fp_residual: float | None = None
    ridge_used: bool = False  # greedy only: a RIDGE refit on a rank-deficient support
    gap: float | None = None  # l1 only: the duality gap certifying the error


def _full_rank(r: np.ndarray) -> np.ndarray:
    """Rank test on R factors stacked along the leading axes (wide ones fail)."""
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    top = diag.max(axis=-1)
    return (r.shape[-2] == r.shape[-1]) & (top > 0.0) & (diag.min(axis=-1) > RANK_RTOL * top)


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
    index; a column stops once that is rounding noise, at most p eps times
    its largest initial |corr|, as after an exact fit) and refits on G_SS,
    adding RIDGE unless eig_min > RANK_RTOL eig_max.  That bounds cond(G_SS), the matrix
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
        best = score[pick, np.arange(live.size)]
        if t == 0:
            floor = p * np.finfo(float).eps * best
        keep = best > floor[live]
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


def _first_basis(atoms: np.ndarray, k: int) -> list[int] | None:
    """The lexicographically first basis of the atoms' span (independence by
    _full_rank's test), or None once more than k atoms are independent."""
    basis: list[int] = []
    for j in range(atoms.shape[1]):
        if _full_rank(np.linalg.qr(atoms[:, basis + [j]])[1]):
            basis.append(j)
            if len(basis) > k:
                return None
    return basis


def _exact_columns(d: Dictionary, signals: np.ndarray, k: int):
    """Exhaustive k-sparse coding of the columns of an n x N matrix.

    One stacked QR per block of supports; a support scores a column by the
    energy it captures, ||Q^T x||^2, or -inf if it fails the rank test (a
    full-rank support spans at least as much).  Only a strictly higher score
    wins, so ties go to the lexicographically smallest support.  Each column
    keeps its winner's R and Q^T x, and one stacked solve of R a = Q^T x
    gives every column's coefficients, so each support is factored once.
    For k >= rank(D) every column takes the projection onto span(D) on the
    first basis, padded with the lowest other atoms.  Returns (coeffs p x N,
    errors N, supports k x N).
    """
    k = int(k)
    if not 1 <= k <= d.p:
        raise ValueError(f"k must satisfy 1 <= k <= p = {d.p}, got {k}")
    if comb(d.p, k) > EXACT_GUARD:
        raise GuardExceededError(f"C({d.p},{k}) = {comb(d.p, k)} exceeds guard {EXACT_GUARD}")
    atoms, n_sig = d.atoms, signals.shape[1]
    basis = _first_basis(atoms, k)
    if basis is not None:
        # every support then captures at most the projection, which the
        # basis attains exactly
        pad = [j for j in range(d.p) if j not in basis][:k - len(basis)]
        dense = np.zeros((d.p, n_sig))
        if basis:
            q, r = np.linalg.qr(atoms[:, basis])
            dense[basis] = solve_triangular(r, q.T @ signals)
        supports = np.repeat(np.array(sorted(basis + pad))[:, None], n_sig, axis=1)
    else:
        subsets = np.array(list(combinations(range(d.p), k)))
        best_score = np.full(n_sig, -np.inf)
        best_sub = np.zeros(n_sig, dtype=int)
        best_r = np.zeros((n_sig, k, k))
        best_qtx = np.zeros((n_sig, k))
        block = max(1, SCORE_BLOCK // (k * (d.n + n_sig)))
        for lo in range(0, len(subsets), block):
            q, r = np.linalg.qr(atoms[:, subsets[lo:lo + block]].transpose(1, 0, 2))
            proj = q.transpose(0, 2, 1) @ signals
            score = np.einsum("sij,sij->sj", proj, proj)
            score[~_full_rank(r)] = -np.inf
            top = np.argmax(score, axis=0)
            top_score = score[top, np.arange(n_sig)]
            better = np.flatnonzero(top_score > best_score)
            best_score[better] = top_score[better]
            best_sub[better] = lo + top[better]
            best_r[better] = r[top[better]]
            best_qtx[better] = proj[top[better], :, better]
        # R is exactly upper triangular, so the LU inside solve swaps no rows
        coef = np.linalg.solve(best_r, best_qtx[..., None])[..., 0]
        supports = subsets[best_sub].T
        dense = np.zeros((d.p, n_sig))
        dense[supports, np.arange(n_sig)] = coef.T
    # the errors take one n x N array: the residual, squared in place
    resid = atoms @ dense
    resid -= signals
    resid *= resid
    return dense, np.sqrt(resid.sum(axis=0)), supports


def exact_ksparse(d: Dictionary, x, k: int) -> CodingResult:
    """Exhaustive k-sparse coder: the best of every size-k support.

    Ties break toward the lexicographically smallest support.  Refuses
    instances with more than EXACT_GUARD supports.
    """
    x = _check_signal(d.n, x)
    dense, _errors, supports = _exact_columns(d, x[:, None], k)
    return _result(d, x, dense[:, 0], supports[:, 0], "exact")


def exact_ksparse_batch(d: Dictionary, signals: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive coder over a batch: signals as columns of an n x N matrix.

    Returns (coeffs, errors) with coeffs p x N dense and errors length N.
    Same engine as exact_ksparse, run on all columns at once.
    """
    dense, errors, _supports = _exact_columns(d, _check_signals(d, signals), k)
    return dense, errors


def project_l1(v, radius: float) -> np.ndarray:
    """Euclidean projection of a vector onto the l1 ball of the given radius."""
    v = as_vector(v)
    return _project_l1_columns(v[:, None], float(radius))[:, 0]


def _project_l1_columns(mat: np.ndarray, radius: float) -> np.ndarray:
    """Column-wise l1-ball projection by the sort-and-threshold rule."""
    if not 0.0 <= radius < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {radius}")
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


def _exact_residual(atoms: np.ndarray, a: np.ndarray, signals: np.ndarray) -> np.ndarray:
    """D a - x rounded once per entry: each product split exactly into two
    doubles (Dekker, 1971) and all of them summed by math.fsum.  Costs
    n N Python-level sums; meant for a few columns."""
    prod = atoms[:, :, None] * a[None]
    split = 134217729.0 * atoms[:, :, None]  # 2^27 + 1
    d_hi = split - (split - atoms[:, :, None])
    split = 134217729.0 * a[None]
    a_hi = split - (split - a[None])
    d_lo, a_lo = atoms[:, :, None] - d_hi, a[None] - a_hi
    err = ((d_hi * a_hi - prod) + d_hi * a_lo + d_lo * a_hi) + d_lo * a_lo
    terms = np.concatenate([prod, err, -signals[:, None, :]], axis=1)
    return np.array([[math.fsum(col) for col in row.T] for row in terms])


def _l1_slack(atoms: np.ndarray, a: np.ndarray, lam: float, a0, r0: np.ndarray, margin=0.0):
    """(gap, slack) per column for feasible coefficients a (||a||_1 <= lam),
    from the residual r = D a - x taken as r0 + D (a - a0), r0 its value at
    a0 (a0 = 0 and r0 = -x give it directly).

    gap = a.g + lam ||g||_inf with g = D^T r is the Frank-Wolfe duality gap
    (Jaggi, 2013); it bounds h^2/2 - h*^2/2, so slack = h - sqrt(h^2 - 2 gap)
    bounds h - h*, how far the error h = ||r|| is above the optimum h*.  The
    rounding of r, about eps ||r0||, leaves the computed gap about
    2 lam eps ||r0|| from the true one; the slack is taken at gap + margin
    so that a margin of that size makes it a bound.
    """
    resid = r0 + atoms @ (a - a0)
    g = atoms.T @ resid
    gap = np.einsum("ij,ij->j", a, g) + lam * np.abs(g).max(axis=0)
    h2 = np.einsum("ij,ij->j", resid, resid)
    return gap, np.sqrt(h2) - np.sqrt(np.maximum(h2 - 2.0 * (gap + margin), 0.0))


def _reduce_support(gram: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
    """Sign-preserving null-space steps for a column with more than n nonzeros.

    Its support's atoms are dependent.  Each step moves a along the null
    space of G_SS (so D a is unchanged) in the direction of steepest descent
    of ||a||_1 there, -V V^T s, until a coefficient reaches zero; it repeats
    until at most n remain.  The other coefficients keep their signs and
    ||a||_1 does not grow.
    """
    a = a.copy()
    support = np.flatnonzero(a)
    while support.size > n:
        null = np.linalg.eigh(gram[np.ix_(support, support)])[1][:, :support.size - n]
        s = np.sign(a[support])
        v = -null @ (null.T @ s)
        if not np.abs(v).max() > 1e-8:  # s is orthogonal to the null space
            v = -np.copysign(1.0, s @ null[:, 0]) * null[:, 0]
        ratio = np.full(support.size, np.inf)
        shrink = s * v < 0.0
        ratio[shrink] = -a[support][shrink] / v[shrink]
        j = int(np.argmin(ratio))
        a[support] += ratio[j] * v
        a[support[j]] = 0.0
        support = np.flatnonzero(a)
    return a


def _kkt_solve(gram: np.ndarray, on: np.ndarray, border: np.ndarray, top: np.ndarray,
               last: np.ndarray) -> np.ndarray:
    """Solve each column's bordered system [[G_SS + RIDGE I, b_S], [b_S^T, 0]]
    (S its support `on`, b its border; a zero border means nu = 0) for the
    right-hand side (top_S, last).  Columns are grouped by support size and
    solved in blocks of at most 256, which bounds memory.  Returns p x N
    coefficients, zero off the supports."""
    p, n_sig = on.shape
    block = 256
    out = np.zeros((p, n_sig))
    sizes = on.sum(axis=0)
    for k in np.unique(sizes[sizes > 0]):
        same = np.flatnonzero(sizes == k)
        for lo in range(0, same.size, block):
            cols = same[lo:lo + block]
            sup = np.nonzero(on[:, cols].T)[1].reshape(cols.size, k)
            b = border[sup, cols[:, None]]
            mat = np.empty((cols.size, k + 1, k + 1))
            mat[:, :k, :k] = gram[sup[:, :, None], sup[:, None, :]] + RIDGE * np.eye(k)
            mat[:, :k, k] = b
            mat[:, k, :k] = b
            mat[:, k, k] = ~b.any(axis=1)
            rhs = np.concatenate([top[sup, cols[:, None]], last[cols, None]], axis=1)
            out[sup, cols[:, None]] = np.linalg.solve(mat, rhs[..., None])[:, :k, 0]
    return out


def _l1_polish(atoms: np.ndarray, gram: np.ndarray, corr: np.ndarray, a: np.ndarray,
               lam: float, a0: np.ndarray, r0: np.ndarray,
               margin: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact minimizer on each column's support and sign pattern, with its
    duality gap and error slack (see _l1_slack, which takes a0, r0, margin).

    On the l1 sphere the KKT system is G_SS a_S + nu s = c_S, s.a_S = lam
    (s the signs, c = D^T x); inside the ball nu = 0.  A support of more than
    n atoms is first cut to n by _reduce_support.  Where the solution keeps
    the signs but misses ERR_TOL, one refinement step against the system
    without RIDGE removes the ridge's bias.  The result is scaled back into
    the ball if rounding or a wrong sign left it outside.
    """
    n = atoms.shape[0]
    # the projection lands on the sphere up to rounding
    sphere = np.abs(a).sum(axis=0) >= lam * (1.0 - 1e-12)
    wide = np.flatnonzero((a != 0.0).sum(axis=0) > n)
    if wide.size:
        a = a.copy()
        for j in wide:
            a[:, j] = _reduce_support(gram, a[:, j], n)
    on, signs = a != 0.0, np.sign(a)
    border = signs * sphere
    cand = _into_l1_ball(_kkt_solve(gram, on, border, corr, lam * sphere), lam)
    gap, slack = _l1_slack(atoms, cand, lam, a0, r0, margin)
    redo = np.flatnonzero(~(slack <= ERR_TOL) & (np.sign(cand) == signs).all(axis=0))
    if redo.size:
        fix = _kkt_solve(gram, on[:, redo], border[:, redo], RIDGE * cand[:, redo], np.zeros(redo.size))
        cand[:, redo] = _into_l1_ball(cand[:, redo] + fix, lam)
        gap[redo], slack[redo] = _l1_slack(atoms, cand[:, redo], lam, a0[:, redo], r0[:, redo],
                                           margin[redo])
    return cand, gap, slack


def _into_l1_ball(a: np.ndarray, lam: float) -> np.ndarray:
    norm1 = np.abs(a).sum(axis=0)
    return a * np.where(norm1 > lam, lam / np.maximum(norm1, lam), 1.0)


def l1_solve_batch(d: Dictionary, signals: np.ndarray, lam: float,
                   init: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, int, float]:
    """l1-constrained least squares over a batch of column signals, certified.

    Accelerated projected gradient with gradient-based momentum restarts,
    step 1/L with L the squared spectral norm of the dictionary.  Every 5
    steps each live column is checked: its iterate and the exact KKT polish
    on its support/sign pattern are scored by their duality-gap error slack
    (see _l1_slack), and the column retires with the better of the two once
    that slack is <= ERR_TOL, so its error is within ERR_TOL of the optimum.

    init (p x N, optional) is a starting point, e.g. the solution for a
    nearby dictionary; it is scaled into the ball and checked once before
    the first step, so a column it already certifies retires at iteration
    0.  Without it the solver starts from zero.

    The gap is computed from the residual D a - x, whose rounding (about
    eps ||x||) hides gaps below about 2 lam eps ||x||; where the optimum lies
    on the l1 sphere with error h* <~ 4e-6 lam ||x||, ERR_TOL is then below
    what the slack resolves.  The certificate counts that margin, and a
    column whose gap falls within it is re-centred once: its residual is
    rounded once at the current point (_exact_residual) and later residuals
    and gradients are taken relative to it.  A column still uncertified
    FLOOR_STEPS steps later, or after MAX_ITERS steps, is returned as it is,
    with a RuntimeWarning naming the count (and, at the floor, the columns).

    Returns (coeffs p x N, errors N, iterations, max fixed-point residual
    ||a - P(a - grad/L)|| of the returned coefficients).
    """
    signals = _check_signals(d, signals)
    p, n_sig = d.p, signals.shape[1]
    if init is not None:
        init = np.asarray(init, dtype=float)
        if init.shape != (p, n_sig):
            raise ValueError(f"init must be a {p} x {n_sig} matrix, got shape {init.shape}")
        if not np.all(np.isfinite(init)):
            raise ValueError("init entries must be finite")
    lam = L1Ball(lam).lam
    atoms = d.atoms
    lip = float(np.linalg.norm(atoms, 2)) ** 2
    if lam == 0.0 or lip == 0.0:
        return np.zeros((p, n_sig)), np.linalg.norm(signals, axis=0), 0, 0.0
    step = 1.0 / lip
    gram = atoms.T @ atoms
    out = np.zeros((p, n_sig))
    live = np.arange(n_sig)
    x, corr = signals, atoms.T @ signals
    # each column's residual is r0 + D (a - a0), its gradient g0 + G (a - a0),
    # and its gap is known to within margin (see _l1_slack)
    a0, r0, g0 = np.zeros((p, n_sig)), -x, -corr
    margin = 2.0 * np.finfo(float).eps * lam * np.linalg.norm(signals, axis=0)
    centred = np.full(n_sig, -1)  # the step a column was re-centred at
    adopted = np.full(n_sig, np.inf)  # slack of the polish a column last restarted from
    floored, floor_slack = [], 0.0
    a = np.zeros((p, n_sig)) if init is None else _into_l1_ball(init, lam)
    y = a.copy()
    t = np.ones(n_sig)
    iterations = 0
    for it in range(0 if init is not None else 1, MAX_ITERS + 1):
        if it:
            a_new = _project_l1_columns(y - step * (gram @ (y - a0) + g0), lam)
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
            polished, gap_polished, slack_polished = _l1_polish(atoms, gram, corr, a, lam, a0, r0, margin)
            gap, slack = _l1_slack(atoms, a, lam, a0, r0, margin)
            better = slack_polished < slack
            # the iterate restarts from the polish only if it improves on the
            # last one taken, so that it cannot cycle between one polish and
            # the 5 steps from it
            adopt = better & (slack_polished < adopted)
            adopted = np.where(adopt, slack_polished, adopted)
            best = np.where(better, polished, a)
            gap = np.where(better, gap_polished, gap)
            slack = np.where(better, slack_polished, slack)
            done = slack <= ERR_TOL
            # a gap within its margin is rounding noise: re-centre the column
            # once at an exact residual, which shrinks the margin to eps h, and
            # give it FLOOR_STEPS more steps
            floor = np.flatnonzero(~done & (centred[live] < 0) & (gap <= margin))
            if floor.size:
                a0[:, floor] = best[:, floor]
                r0[:, floor] = _exact_residual(atoms, best[:, floor], x[:, floor])
                g0[:, floor] = atoms.T @ r0[:, floor]
                margin[floor] = 2.0 * np.finfo(float).eps * lam * np.linalg.norm(r0[:, floor], axis=0)
                centred[live[floor]] = it
                slack[floor] = _l1_slack(atoms, best[:, floor], lam, a0[:, floor], r0[:, floor],
                                         margin[floor])[1]
                done[floor] = slack[floor] <= ERR_TOL
            stalled = ~done & (centred[live] >= 0) & (it - centred[live] >= FLOOR_STEPS)
            if stalled.any():
                floored += live[stalled].tolist()
                floor_slack = max(floor_slack, float(slack[stalled].max()))
            out[:, live] = best
            keep = ~(done | stalled)
            if not keep.any():
                break
            live, x, corr = live[keep], x[:, keep], corr[:, keep]
            a0, r0, g0, margin = a0[:, keep], r0[:, keep], g0[:, keep], margin[keep]
            adopt, adopted, slack = adopt[keep], adopted[keep], slack[keep]
            a = np.where(adopt, polished[:, keep], a[:, keep])
            t = np.where(adopt, 1.0, t[keep])
            y = np.where(adopt, a, y[:, keep])
    else:
        warnings.warn(f"l1_solve_batch stopped after MAX_ITERS = {MAX_ITERS} steps with "
                      f"{live.size} of {n_sig} columns uncertified (worst error slack "
                      f"{slack.max():.3g} > ERR_TOL = {ERR_TOL:g})", RuntimeWarning, stacklevel=2)
    if floored:
        warnings.warn(f"l1_solve_batch left {len(floored)} of {n_sig} columns {sorted(floored)} "
                      f"uncertified at their rounding floor (worst error slack "
                      f"{floor_slack:.3g} > ERR_TOL = {ERR_TOL:g})", RuntimeWarning, stacklevel=2)
    resid = atoms @ out - signals
    fp = out - _project_l1_columns(out - step * (atoms.T @ resid), lam)
    residual = float(np.sqrt((fp * fp).sum(axis=0)).max(initial=0.0))
    return out, np.sqrt((resid * resid).sum(axis=0)), iterations, residual


def l1_solve(d: Dictionary, x, lam: float) -> CodingResult:
    """Representation under the l1-ball constraint ||a||_1 <= lam, with its
    duality gap (see l1_solve_batch).

    lam = 0 returns the zero vector as a valid result.
    """
    x = _check_signal(d.n, x)
    lam = float(lam)
    coeffs, _errors, iterations, residual = l1_solve_batch(d, x[:, None], lam)
    dense = coeffs[:, 0]
    error = float(np.linalg.norm(d.atoms @ dense - x))
    gap = float(_l1_slack(d.atoms, coeffs, lam, 0.0, -x[:, None])[0][0])
    return CodingResult(coeffs=CoeffVector.from_dense(dense), error=error, method="l1-projection",
                        iterations=iterations, fp_residual=residual, gap=gap)


def repr_error(d: Dictionary, x, constraint: SparsityConstraint, exact: bool = False) -> CodingResult:
    """Dispatch to the coder matching the constraint.

    HardK uses the greedy coder unless exact=True; L1Ball always uses the
    certified l1 solver (error within ERR_TOL of the optimum, by its duality
    gap).
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
