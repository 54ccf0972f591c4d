"""Sparse coders and the representation error they induce.

The representation error of a signal x under dictionary D and constraint
set A is

    h(x) = min_{a in A} ||D a - x||_2,

with A either the k-sparse vectors (HardK) or the l1 ball of radius lam
(L1Ball).  One engine per minimization codes the columns of an n x N matrix
held to core's array rule, each error ||D a - x||_2 from one chunked residual;
`repr_error` codes one signal as its N=1 case, and `exact_ksparse`,
`greedy_ksparse` and `l1_solve` are its views.  The exhaustive engine is the
ground truth, refused above EXACT_GUARD supports; ties between supports equal
up to a repeated or negated atom go to the lexicographically smallest, since a
copy is never scored, and supports of distinct atoms with one span tie only up
to rounding.  The greedy engine is the fast heuristic, a batch OMP that the
kernel coder runs on a Gram matrix.  The l1 engine, `l1_solve_batch`, is exact
and certified: its duality gap proves each column's error within ERR_TOL of
the optimum, and one RuntimeWarning names every column it leaves uncertified.
Each engine's docstring describes its algorithm.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from .core import (
    CoeffVector,
    Dictionary,
    GuardExceededError,
    HardK,
    L1Ball,
    SparsityConstraint,
    as_count,
    as_matrix,
    as_vector,
)

# Exhaustive coding is allowed up to this many supports.
EXACT_GUARD = 10**6

# Least-squares rank test and the ridge applied when it fails.
RANK_RTOL = 1e-10
RIDGE = 1e-12
# Exhaustive scoring bounds its working memory by this many entries: it draws
# and scores supports in blocks holding about this many entries of Q and Q^T y
# (span coordinates, see _exact_columns), y and every coder's residual taken
# in chunks of columns (_chunks) whose n rows hold at most a quarter of it.
# Only the outputs, y and each column's (score, support, coefficients) record
# grow with the number of signals.
SCORE_BLOCK = 2**18

# l1 solver (see l1_solve_batch): certificate tolerance, cap on rounds, Newton-finish steps.
ERR_TOL = 1e-10
MAX_ITERS = 10_000
NEWTON_STEPS = 3


@dataclass(frozen=True)
class CodingResult:
    """Coefficients, the engine's error ||D a - x||_2 (_errors), and how they were found."""

    coeffs: CoeffVector
    error: float
    method: str  # "greedy" | "exact" | "l1"
    iterations: int | None = None
    ridge_used: bool = False  # greedy only: a RIDGE refit on a rank-deficient support
    gap: float | None = None  # l1 only: the duality gap certifying the error


def _full_rank(r: np.ndarray) -> np.ndarray:
    """Rank test on R factors stacked along the leading axes (wide ones fail)."""
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    top = diag.max(axis=-1)
    return (r.shape[-2] == r.shape[-1]) & (top > 0.0) & (diag.min(axis=-1) > RANK_RTOL * top)


def _greedy_columns(gram: np.ndarray, corr: np.ndarray, k: int):
    """Batch OMP (Rubinstein, Zibulevsky & Elad, 2008) from the p x p atom
    Gram and the p x N atom-signal inner products.  Each round a column picks
    the unpicked atom with the largest |corr - G_S a_S| (ties to the lowest
    index; a column stops once that is rounding noise, at most p eps times
    its largest initial |corr|, as after an exact fit) and refits on G_SS,
    adding RIDGE unless eig_min > RANK_RTOL eig_max.  That bounds cond(G_SS), the matrix
    solved; RANK_RTOL^2, the QR test's threshold in Gram terms, is below what
    eigvalsh resolves and passes exactly repeated atoms.  It holds about
    (k + 3) p + k^2 + 4k floats a column: corr, coefficients, supports and a
    round's score, gather and refit.  Returns (coeffs p x N, supports N x k
    padded with -1, ridge_used N)."""
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
    """The greedy engine: (coeffs p x N, errors N, supports N x k, ridge_used N)."""
    k = as_count(k, "k", min(d.n, d.p), "min(n, p)")
    dense, supports, ridge_used = _greedy_columns(d.atoms.T @ d.atoms, d.atoms.T @ signals, k)
    return dense, _errors(d.atoms, dense, signals), supports, ridge_used


def greedy_ksparse(d: Dictionary, x, k: int) -> CodingResult:
    """Greedy pursuit, greedy_ksparse_batch's N=1 case, its error included:
    pick the atom most correlated with the residual (ties to the lowest
    index), refit by least squares on the support, and repeat."""
    return repr_error(d, x, HardK(k))


def greedy_ksparse_batch(d: Dictionary, signals: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy coder over the columns of an n x N matrix: (coeffs p x N, errors N)."""
    return _greedy_signals(d, as_matrix(signals, "signals", d.n), k)[:2]


def _back_substitute(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve R a = b for R upper triangular with a nonzero diagonal, r as
    (..., k, k) and b as (..., k) broadcast along the leading axes: one
    vectorized step per row, from the last."""
    a = np.empty(np.broadcast_shapes(r.shape[:-1], b.shape))
    for i in range(b.shape[-1] - 1, -1, -1):
        a[..., i] = (b[..., i] - (r[..., i, i + 1:] * a[..., i + 1:]).sum(axis=-1)) / r[..., i, i]
    return a


def _first_basis(atoms: np.ndarray, k: int, r: np.ndarray) -> list[int] | None:
    """The lexicographically first basis of the atoms' span (independence by
    _full_rank's test), or None once more than k atoms are independent.
    Usually atoms 0..k are: each prefix's R is the leading block of r, the R
    of all the atoms, so the caller's one QR answers for the whole
    incremental search."""
    if k < atoms.shape[1] and _full_rank(r[:k + 1, :k + 1]):
        return None
    basis: list[int] = []
    for j in range(atoms.shape[1]):
        if _full_rank(np.linalg.qr(atoms[:, basis + [j]])[1]):
            basis.append(j)
            if len(basis) > k:
                return None
    return basis


def _padded_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b with b's columns zero-padded to a multiple of 8, the product's
    padding columns kept (they are zero where b's are).  BLAS runs other
    kernels on column tails, and numpy a matrix-vector product on one column,
    so each column's bits then depend on that column alone, not on how many
    columns share the product, wherever BLAS runs one thread: some threaded
    kernel sets (Haswell, Nehalem) round a wide product differently."""
    tail = -b.shape[1] % 8
    if tail:
        b = np.concatenate([b, np.zeros((b.shape[0], tail))], axis=1)
    return a @ b


def _chunks(n: int, n_sig: int) -> list[tuple[slice, int]]:
    """(columns, count) of each chunk of N columns: 8 max(1, SCORE_BLOCK //
    32 n) wide, a multiple of 8 so that only the last one is padded, and an
    n x width array then holds at most a quarter of SCORE_BLOCK."""
    width = 8 * max(1, SCORE_BLOCK // (32 * n))
    return [(slice(lo, lo + width), min(width, n_sig - lo)) for lo in range(0, n_sig, width)]


def _errors(atoms: np.ndarray, coeffs: np.ndarray, signals: np.ndarray) -> np.ndarray:
    """||D a - x||_2 of each column, the one place a coder's error is
    computed: the residual of one chunk at a time, by _padded_product and
    squared in place, so each column's bits depend on that column alone."""
    errors = np.empty(signals.shape[1])
    for cols, w in _chunks(*signals.shape):
        resid = _padded_product(atoms, coeffs[:, cols])
        resid[:, :w] -= signals[:, cols]
        resid *= resid
        errors[cols] = np.sqrt(resid.sum(axis=0))[:w]
    return errors


def _exact_columns(d: Dictionary, signals: np.ndarray, k: int):
    """Exhaustive k-sparse coding of the columns of an n x N matrix.

    Only span(D) matters, so D = U R is factored once and supports are scored
    in its coordinates, R and y = U^T X (min(n, p) rows).  Each block of
    supports, drawn as it is scored, takes one stacked QR of its R_S; its Q^T
    rows, zero-padded to a multiple of 8, then score y one chunk of columns
    at a time (_chunks), and _errors sums the residual over the same chunks.
    Every product's columns are padded like its rows (_padded_product), so on
    one BLAS thread every bit is independent of the blocking and the
    chunking.  A support scores a column by the energy it captures,
    ||Q^T y||^2, or -inf if it fails the rank test (a full-rank support spans
    at least as much).  Only a strictly higher score wins, so ties go to the
    lexicographically smallest support.  An atom equal to an earlier one up
    to sign makes R fail the rank test, and then such copies are left out: a
    support holding one spans what the smaller support holding the original
    spans, so those ties hold by construction; supports of distinct atoms
    with one span tie only up to rounding.  A support that wins a column is
    back-substituted there, on its block's R_S and Q^T y, so each support is
    factored once and each column keeps (score, support, coefficients).  For
    k >= rank(D) every column takes the projection onto span(D) on the first
    basis, padded with the lowest other atoms.  SCORE_BLOCK sizes the support
    blocks and the column chunks, so only the outputs, y and each column's
    record grow with N.  Returns (coeffs p x N, errors N, supports k x N).
    """
    k = as_count(k, "k", d.p)
    if comb(d.p, k) > EXACT_GUARD:
        raise GuardExceededError(f"C({d.p},{k}) = {comb(d.p, k)} exceeds guard {EXACT_GUARD}")
    atoms = d.atoms
    u, r = np.linalg.qr(atoms)
    basis = _first_basis(atoms, k, r)
    dim, n_sig = r.shape[0], signals.shape[1]
    chunks = [(cols, w, _padded_product(u.T, signals[:, cols])) for cols, w in _chunks(d.n, n_sig)]
    dense = np.zeros((d.p, n_sig))
    if basis is not None:
        # every support then captures at most the projection, which the
        # basis attains exactly
        pad = [j for j in range(d.p) if j not in basis][:k - len(basis)]
        if basis:
            q, r = np.linalg.qr(r[:, basis])
            for cols, w, y in chunks:
                dense[basis, cols] = _back_substitute(r, (y.T @ q)[:w]).T
        supports = np.repeat(np.array(sorted(basis + pad))[:, None], n_sig, axis=1)
    else:
        distinct = range(d.p)
        if not _full_rank(r):
            # the atoms, each signed by its first nonzero entry, compared bit for bit
            lead = atoms[np.argmax(atoms != 0.0, axis=0), np.arange(d.p)]
            signed = np.ascontiguousarray(np.where(lead < 0.0, -atoms, atoms).T) + 0.0  # no -0.0
            distinct = np.sort(np.unique(signed.view(f"V{8 * d.n}")[:, 0], return_index=True)[1]).tolist()
        todo = combinations(distinct, k)  # over k + 1 or more atoms, as more than k are independent
        best_score = np.full(n_sig, -np.inf)
        best_sup = np.zeros((n_sig, k), dtype=np.intp)
        best_coef = np.zeros((n_sig, k))
        block = max(1, SCORE_BLOCK // (k * (dim + chunks[0][1])))  # the first chunk is the widest
        for _ in range(0, comb(len(distinct), k), block):
            subs = np.fromiter(chain.from_iterable(islice(todo, block)), dtype=np.intp).reshape(-1, k)
            q, rs = np.linalg.qr(r[:, subs].transpose(1, 0, 2))
            qt = np.zeros((len(q) * k + -len(q) * k % 8, dim))
            qt[:len(q) * k].reshape(len(q), k, dim)[:] = q.transpose(0, 2, 1)
            failed = ~_full_rank(rs)
            for cols, w, y in chunks:
                proj = (qt @ y)[:len(q) * k].reshape(len(q), k, -1)
                score = np.einsum("sij,sij->sj", proj, proj)[:, :w]
                score[failed] = -np.inf
                top = np.argmax(score, axis=0)
                top_score = score[top, np.arange(w)]
                better = np.flatnonzero(top_score > best_score[cols])
                best_score[cols][better] = top_score[better]
                best_sup[cols][better] = subs[top[better]]
                best_coef[cols][better] = _back_substitute(rs[top[better]], proj[top[better], :, better])
        dense[best_sup.T, np.arange(n_sig)] = best_coef.T
        supports = best_sup.T
    return dense, _errors(atoms, dense, signals), supports


def exact_ksparse(d: Dictionary, x, k: int) -> CodingResult:
    """Exhaustive k-sparse coder: the best of every size-k support.

    Ties between supports equal up to a repeated or negated atom go to the
    lexicographically smallest, since a copy is never scored; supports of
    distinct atoms with one span tie only up to rounding.  Refuses
    instances with more than EXACT_GUARD supports.  The N=1 case of
    exact_ksparse_batch, to the bit on one BLAS thread, error included.
    """
    return repr_error(d, x, HardK(k), exact=True)


def exact_ksparse_batch(d: Dictionary, signals: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive coder over the columns of an n x N matrix: (coeffs p x N, errors N)."""
    return _exact_columns(d, as_matrix(signals, "signals", d.n), k)[:2]


def _project_l1_columns(mat: np.ndarray, radius: float) -> np.ndarray:
    """Column-wise projection onto the l1 ball of radius > 0 by the
    sort-and-threshold rule."""
    absm = np.abs(mat)
    over = absm.sum(axis=0) > radius
    out = mat.copy()
    if over.any():
        w = absm[:, over]
        s = np.sort(w, axis=0)[::-1]
        css = np.cumsum(s, axis=0)
        # the threshold level is the largest j with s_j > (css_j - radius)/j,
        # rearranged to css_j - j*s_j < radius so a tiny radius cannot be lost
        # to rounding against css
        keep = css - np.arange(1, mat.shape[0] + 1)[:, None] * s < radius
        # keep[0] compares 0 < radius, so rho is well defined
        rho = keep.shape[0] - 1 - np.argmax(keep[::-1], axis=0)
        theta = (css[rho, np.arange(w.shape[1])] - radius) / (rho + 1)
        out[:, over] = np.sign(mat[:, over]) * np.maximum(w - theta, 0.0)
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


def _l1_slack(atoms: np.ndarray, a: np.ndarray, lam: float, resid: np.ndarray, margin=0.0):
    """(gap, slack, g) per column for feasible coefficients a (||a||_1 <=
    lam) and their residual resid = D a - x.

    gap = a.g + lam ||g||_inf with g = D^T r is the Frank-Wolfe duality gap
    (Jaggi, 2013); it bounds h^2/2 - h*^2/2, so slack = h - sqrt(h^2 - 2 gap)
    bounds h - h*, how far the error h = ||r|| is above the optimum h*.  The
    rounding of r, about eps ||x|| for a computed D a - x and eps ||r|| for
    an exactly rounded one, leaves the computed gap about 2 lam times that
    from the true one; the slack is taken at gap + margin so that a margin
    of that size makes it a bound.
    """
    g = atoms.T @ resid
    gap = np.einsum("ij,ij->j", a, g) + lam * np.abs(g).max(axis=0)
    h2 = np.einsum("ij,ij->j", resid, resid)
    return gap, np.sqrt(h2) - np.sqrt(np.maximum(h2 - 2.0 * (gap + margin), 0.0)), g


def _kkt_table(gram: np.ndarray) -> np.ndarray:
    """The 2p x 2p table [[G + RIDGE I, 0], [0, I]] that _newton_step
    gathers every column's padded system from, built once per call."""
    p = gram.shape[0]
    table = np.eye(2 * p)
    table[:p, :p] = gram + RIDGE * table[:p, :p]
    return table


def _newton_step(table: np.ndarray, s: np.ndarray, top: np.ndarray,
                 last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve each column's KKT system for min 1/2 x^T M x - top_S.x subject
    to s.x <= last, M = G_SS + RIDGE I on its support S = {j : s_j != 0}
    and s its signs: the KKT solve of the rounds and of the Newton finish,
    where x is a step from a point a with signs s and last = lam - ||a||_1.
    It has one solution (Osborne, Presnell & Turlach, 2000): the inside one,
    x = M^-1 top with nu = 0, where that x has s.x <= last; else the
    bordered one, x = M^-1 top - nu M^-1 s with s.x = last, whose multiplier
    nu = (s.M^-1 top - last) / s.M^-1 s (by the Schur complement of M) is
    then > 0.  So one formula with nu clamped at 0 picks the side.
    M^-1 [top_S s] is one batched LU solve, since an inverse's product
    leaves ~eps cond(M) |top| of residual.  Every system is padded to k x k,
    k the largest support: a running count of S down each column packs its
    support into the first slots in atom order, and padding slot j points
    at row p + j of table = _kkt_table(G) = [[G + RIDGE I, 0], [0, I]], so
    one fancy index into the table gathers each column's M beside an
    identity block.  (Padding slots sharing one row would repeat it and
    make the block singular.)  Returns (x as p x N, zero off S, and nu)."""
    on = s != 0.0
    p, n_sig = on.shape
    pos = np.cumsum(on, axis=0)
    k = max(int(pos[-1].max()), 1)
    rows, cols = np.nonzero(on)
    slots = pos[rows, cols] - 1
    idx = np.repeat(np.arange(p, p + k)[None], n_sig, axis=0)
    idx[cols, slots] = rows
    mat = table[idx[:, :, None], idx[:, None, :]]
    # a padding slot's top and sign are 0, so its x never reaches nu
    rhs = np.zeros((2, k, n_sig))
    rhs[:, slots, cols] = top[rows, cols], s[rows, cols]
    b = rhs[1]
    x, y = np.linalg.solve(mat, rhs.T).T
    curve = (b * y).sum(axis=0)
    nu = np.divide((b * x).sum(axis=0) - last, curve, out=np.zeros_like(curve), where=curve > 0.0)
    np.maximum(nu, 0.0, out=nu)
    out = np.zeros(on.shape)
    out[rows, cols] = (x - nu * y)[slots, cols]
    return out, nu


def l1_solve_batch(d: Dictionary, signals: np.ndarray, lam: float,
                   guess: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, int, float]:
    """l1-constrained least squares over a batch of column signals, exact and
    certified.

    Each column runs active-set rounds (Osborne, Presnell & Turlach, 2000),
    all columns in lockstep.  A column holds a support S and its signs s.
    A round solves the KKT system of S and s, min ||D_S b_S - x|| subject
    to s.b_S <= lam, by one _newton_step from the current point a:
    G_SS b_S + nu s = D_S^T x with nu = 0 where that b lies in the ball,
    else s.b_S = lam and nu > 0.  The solution b, scaled into the ball, is
    certified by its duality-gap error slack (see _l1_slack) at the margin
    2 eps lam ||x||.  A column whose b has the signs s and a slack within
    ERR_TOL retires.  Any other column makes the first of these moves that
    applies:

    - a sign of b differs from s: the column moves toward b until its first
      coefficient reaches zero, and that atom leaves S;
    - else the atom off S with the largest |g_j|, g = D^T (D b - x), joins S
      with the sign of -g_j, unless its violation |g_j| - nu is within
      2 eps ||x||, the rounding the margin allows in g.  Such a column has
      reached the precision floor and leaves the rounds.

    The live columns' state (point, signs, D^T x, x and their thresholds)
    is compacted once a round, and a column's scaled b and slack are
    written out when it leaves the rounds.

    A column starts from its guess's support and signs.  With no guess, or
    an all-zero guess column, it starts from its most correlated atom (ties
    go to the lowest index), with that correlation's sign; a signal
    uncorrelated with every atom is coded by zero.  guess, a p x N array
    held to the matrix rule like the signals, is a likely solution: warm
    starts in dictionary learning reuse the last codes (Mairal, Bach, Ponce
    & Sapiro, 2010), and strong rules keep a screened set only after a KKT
    check (Tibshirani et al., 2012).

    A column that leaves the rounds uncertified, at its precision floor or
    cut off at MAX_ITERS rounds, takes up to NEWTON_STEPS Newton steps on
    the KKT system of its support and signs, the same _newton_step with
    its side picked the same way, from the point it left with;
    the steps go on from each new point, and the column keeps the point of
    lowest slack.  The first step works from the computed residual D a - x;
    the others, and every certificate after a step, from the exactly
    rounded residual (_exact_residual), whose margin is eps h rather than
    eps ||x||: the gap of an optimum on the sphere with error h* <~ 4e-6 lam
    ||x|| is otherwise lost in the rounding of D a - x.  One RuntimeWarning
    names the columns still uncertified, and counts those cut off.

    Returns (coeffs p x N, errors N, the number of lockstep rounds (0 if no
    column needed one), max fixed-point residual ||a - P(a - grad/L)|| of all
    returned coefficients, L the squared spectral norm of D).
    """
    signals = as_matrix(signals, "signals", d.n)
    n, p, n_sig = d.n, d.p, signals.shape[1]
    lam = L1Ball(lam).lam
    if guess is not None:
        guess = as_matrix(guess, "guess", p)
        if guess.shape[1] != n_sig:
            raise ValueError(f"guess must be p x N = {p} x {n_sig}, got shape {guess.shape}")
    atoms = d.atoms
    lip = float(np.linalg.svd(atoms, compute_uv=False)[0]) ** 2
    if lam == 0.0 or lip == 0.0:
        out = np.zeros((p, n_sig))
        return out, _errors(atoms, out, signals), 0, 0.0
    gram = atoms.T @ atoms
    table = _kkt_table(gram)
    corr = atoms.T @ signals
    eps = np.finfo(float).eps
    norms = np.sqrt((signals * signals).sum(axis=0))
    out = np.zeros((p, n_sig))
    slack = np.zeros(n_sig)
    a = np.zeros((p, n_sig)) if guess is None else guess
    s = np.sign(a)
    cold = np.flatnonzero(~s.any(axis=0))
    first = np.argmax(np.abs(corr[:, cold]), axis=0)
    s[first, cold] = np.sign(corr[first, cold])
    cols = np.flatnonzero(s.any(axis=0))
    # per live column: D^T x, x, the certificate's margin and the floor's
    # threshold, compacted together
    state = np.vstack([corr, signals, 2.0 * eps * lam * norms, 2.0 * eps * norms])[:, cols]
    # a stays in the F order that gathering columns gives, the order its
    # products and sums round in (BLAS and numpy's pairwise sums round each
    # order differently); s is taken C-ordered, like b and g, so that its
    # elementwise work runs along contiguous rows
    a, s = a[:, cols], s.take(cols, axis=1)
    iterations = 0
    while cols.size and iterations < MAX_ITERS:
        iterations += 1
        on = s != 0.0
        step, nu = _newton_step(table, s, state[:p] - gram @ a, lam - np.abs(a).sum(axis=0))
        b = a + step
        flip = on & (np.sign(b) != s)
        fits = ~flip.any(axis=0)
        fit = b * (lam / np.maximum(np.abs(b).sum(axis=0), lam))
        _gap, sl, g = _l1_slack(atoms, fit, lam, atoms @ fit - state[p:p + n], state[p + n])
        done = fits & (sl <= ERR_TOL)
        pull = np.where(on, -np.inf, np.abs(g))
        stay = fits & ~done
        # nu is the ball's multiplier, -g_S = nu s
        floor = stay & (pull.max(axis=0) - nu <= state[p + n + 1])
        grow = np.flatnonzero(stay & ~floor)
        # a column gathered from C-ordered pull is contiguous, as argmax wants
        best = np.argmax(pull[:, grow], axis=0)
        live = ~(done | floor)
        # a column's round is written out as it leaves, and at MAX_ITERS every
        # live column's is, for the finish and the warning's count
        gone = np.flatnonzero(~live) if iterations < MAX_ITERS else np.arange(cols.size)
        left = cols[gone]
        out[:, left], slack[left] = fit[:, gone], sl[gone]
        # b becomes the next point, except where a sign flips: there the
        # column moves toward b by the fraction of the way at which the
        # first flipping coefficient reaches 0, and that one is set to 0
        flips = np.flatnonzero(~fits)
        if flips.size:
            af, bf = a[:, flips], b[:, flips]
            cross = np.where(flip[:, flips], np.divide(af, af - bf, out=np.zeros_like(af), where=af != bf),
                             np.inf)
            b[:, flips] = af + np.minimum(cross.min(axis=0), 1.0) * (bf - af)
            b[np.argmin(cross, axis=0), flips] = 0.0
        s = np.sign(b)
        s[best, grow] = -np.sign(g[best, grow])
        keep = np.flatnonzero(live)
        cols, a, s, state = cols[keep], b[:, keep], s.take(keep, axis=1), state[:, keep]
    fix = np.flatnonzero(~(slack <= ERR_TOL))
    a, resid = out[:, fix], atoms @ out[:, fix] - signals[:, fix]
    for _ in range(NEWTON_STEPS):
        if not fix.size:
            break
        a = a + _newton_step(table, np.sign(a), -(atoms.T @ resid), lam - np.abs(a).sum(axis=0))[0]
        a *= lam / np.maximum(np.abs(a).sum(axis=0), lam)
        resid = _exact_residual(atoms, a, signals[:, fix])
        new = _l1_slack(atoms, a, lam, resid, 2.0 * eps * lam * np.linalg.norm(resid, axis=0))[1]
        # the steps go on from each new point, but a column keeps its best
        better = new < slack[fix]
        out[:, fix[better]] = a[:, better]
        slack[fix[better]] = new[better]
        keep = ~(slack[fix] <= ERR_TOL)
        fix, a, resid = fix[keep], a[:, keep], resid[:, keep]
    if fix.size:
        warnings.warn(f"l1_solve_batch left {fix.size} of {n_sig} columns {fix.tolist()} uncertified "
                      f"after {NEWTON_STEPS} Newton steps, {np.isin(fix, cols).sum()} of them cut off "
                      f"at MAX_ITERS = {MAX_ITERS} rounds (worst error slack {slack[fix].max():.3g} "
                      f"> ERR_TOL = {ERR_TOL:g})", RuntimeWarning, stacklevel=2)
    fp = out - _project_l1_columns(out - (atoms.T @ (atoms @ out - signals)) / lip, lam)
    residual = float(np.sqrt((fp * fp).sum(axis=0)).max(initial=0.0))
    return out, _errors(atoms, out, signals), iterations, residual


def l1_solve(d: Dictionary, x, lam: float) -> CodingResult:
    """Representation under the l1-ball constraint ||a||_1 <= lam: the N=1
    case of l1_solve_batch, with the duality gap that certifies it.  lam = 0
    returns the zero vector as a valid result."""
    return repr_error(d, x, L1Ball(lam))


def repr_error(d: Dictionary, x, constraint: SparsityConstraint, exact: bool = False) -> CodingResult:
    """Code one signal under the constraint: the N=1 case of the matching
    batch engine.

    HardK uses the greedy coder unless exact=True; L1Ball always uses the
    certified l1 solver (error within ERR_TOL of the optimum, by its duality
    gap).  The error is the engine's ||D a - x||_2 (_errors).
    """
    signal = as_vector(x, "signal", d.n)[:, None]
    extra = {}
    if isinstance(constraint, HardK) and exact:
        dense, errors, supports = _exact_columns(d, signal, constraint.k)
        method, support = "exact", supports[:, 0]
    elif isinstance(constraint, HardK):
        dense, errors, supports, ridge_used = _greedy_signals(d, signal, constraint.k)
        method, support = "greedy", supports[0][supports[0] >= 0]
        extra["ridge_used"] = bool(ridge_used[0])
    elif isinstance(constraint, L1Ball):
        dense, errors, iterations, _residual = l1_solve_batch(d, signal, constraint.lam)
        method, support = "l1", np.flatnonzero(dense[:, 0])
        gap = float(_l1_slack(d.atoms, dense, constraint.lam, d.atoms @ dense - signal)[0][0])
        extra.update(iterations=iterations, gap=gap)
    else:
        raise ValueError(f"unknown constraint {constraint!r}")
    return CodingResult(CoeffVector(dense[:, 0], tuple(support)), float(errors[0]), method, **extra)

