"""Kernelized representation error: everything through Gram matrices.

A kernel kappa(x, y) = <phi(x), phi(y)> lets the sparse coders run in
feature space without materializing phi: the squared error of coefficients
a on atoms d_1..d_p is

    ||sum_i a_i phi(d_i) - phi(x)||^2
        = a' G a + kappa(x, x) - 2 sum_i a_i kappa(x, d_i)

with G the atom Gram matrix.  Kernels are pairwise: KernelFn.fn maps an
a x n and a b x n block of points (rows) to the a x b block of values,
and the scalar kappa(x, y) is its 1 x 1 case.  Smoothness metadata
(L, alpha) means kappa is L-Holder of order alpha in each argument on its
stated domain, which makes phi Holder of order alpha/2 with constant
sqrt(2 L); that constant is conservative (not sharp for the Gaussian
kernel) but is what the covering-number bounds consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (CoeffVector, SYMMETRY_TOL, _finite, _norm_report, _read_only,
                   as_count, as_gram, as_matrix, as_vector)
from .coders import CodingResult, _greedy_columns
from .coherence import BabelValue, babel_from_gram
from .bounds import BoundInputs, BoundReport, _ksparse_lam, _log_cover, slow_rate_generic

# The PSD floor of every Gram quadratic form; SYMMETRY_TOL is core's Gram rule.
PSD_QUAD_FLOOR = -1e-8


@dataclass(frozen=True)
class KernelFn:
    """A positive-semidefinite kernel with optional smoothness metadata.

    fn maps points as rows, xs a x n and ys b x n, to the a x b array of
    kernel values; calling the KernelFn on two vectors is the 1 x 1 case.
    smoothness = (L, alpha): kappa is L-Holder of order alpha in each
    argument on the domain the kernel is meant for (the unit ball for the
    shipped kernels).  Feature norms are capped by the atoms, not the kernel:
    KernelDictionary.gamma, and BoundInputs.gamma for the bounds.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str
    smoothness: tuple[float, float] | None = None

    def __call__(self, x, y) -> float:
        return float(_kernel_block(self, as_vector(x, "x")[None], as_vector(y, "y")[None])[0, 0])


def _kernel_block(kf: KernelFn, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """kf's values on the rows of xs and ys, held to the matrix rule: every
    kernel value the module reads comes through here."""
    block = np.asarray(kf.fn(xs, ys), dtype=float)
    if block.shape != (len(xs), len(ys)):
        raise ValueError(f"kernel {kf.name!r} returned shape {block.shape}, "
                         f"expected the pairwise block {(len(xs), len(ys))}")
    return as_matrix(block, f"kernel {kf.name!r} values")


def linear_kernel() -> KernelFn:
    """kappa(x, y) = <x, y>; on the unit ball it is 1-Lipschitz per argument."""
    return KernelFn(fn=lambda xs, ys: xs @ ys.T, name="linear", smoothness=(1.0, 1.0))


def _sq_distances(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of xs (a x n) and ys (b x n): |x|^2 + |y|^2 - 2<x, y>
    by one matrix product, with every entry within its rounding bound (n + 2) eps (|x|^2 + |y|^2)
    of 0 (Higham, Accuracy and Stability, 3.1) recomputed from x - y: equal rows give exactly 0."""
    scale = np.einsum("ij,ij->i", xs, xs)[:, None] + np.einsum("ij,ij->i", ys, ys)
    dist = (-2.0 * xs) @ ys.T
    dist += scale
    scale *= (xs.shape[1] + 2) * np.finfo(float).eps
    rows, cols = np.nonzero(dist <= scale)
    diff = xs.take(rows, 0) - ys.take(cols, 0)
    dist[rows, cols] = np.einsum("ij,ij->i", diff, diff)
    return dist


def gaussian_kernel(sigma: float) -> KernelFn:
    """kappa(x, y) = exp(-||x - y||^2 / (2 sigma^2)).

    The per-argument Lipschitz constant is exp(-1/2)/sigma (the maximum
    of the radial derivative, attained at distance sigma).  Distances come
    from _sq_distances, exactly 0 on equal rows, so kappa(x, x) = 1 exactly.
    """
    sigma = _finite(sigma, "sigma")
    return KernelFn(fn=lambda xs, ys: np.exp(_sq_distances(xs, ys) / (-2.0 * sigma * sigma)),
                    name=f"gaussian:{sigma:g}",
                    smoothness=(math.exp(-0.5) / sigma, 1.0))


def polynomial_kernel(degree: int) -> KernelFn:
    """kappa(x, y) = (1 + <x, y>)^degree on the unit ball.

    There |1 + <x, y>| <= 2, giving Lipschitz constant degree * 2^(degree-1)
    per argument and feature norms at most 2^(degree/2).
    """
    degree = as_count(degree, "degree")
    return KernelFn(fn=lambda xs, ys: (1.0 + xs @ ys.T) ** degree,
                    name=f"poly:{degree}",
                    smoothness=(degree * 2.0 ** (degree - 1), 1.0))


def kernel_from_name(name: str) -> KernelFn:
    """Parse "linear", "gaussian:SIGMA", or "poly:DEGREE"."""
    base, _, arg = str(name).partition(":")
    try:
        if base == "linear" and not arg:
            return linear_kernel()
        if base == "gaussian" and arg:
            return gaussian_kernel(float(arg))
        if base == "poly" and arg:
            # read as a number, so that the degree is held to the count rule
            return polynomial_kernel(float(arg))
    except ValueError as exc:
        raise ValueError(f"bad kernel spec {name!r}: {exc}") from None
    raise ValueError(f"unknown kernel {name!r}; use linear, gaussian:SIGMA, or poly:DEGREE")


def gram_matrix(kf: KernelFn, points: np.ndarray) -> np.ndarray:
    """Gram matrix of kappa over rows of points, filled symmetrically from its upper triangle."""
    pts = as_matrix(points, "points")
    block = _kernel_block(kf, pts, pts)
    return np.triu(block) + np.triu(block, 1).T


def validate_kernel(kf: KernelFn, points: np.ndarray) -> list[str]:
    """Report kernel sanity violations on sample points: asymmetry beyond
    SYMMETRY_TOL, or a Gram minimum eigenvalue (its least unit quadratic
    form) below PSD_QUAD_FLOOR, the floor of every squared feature error."""
    pts = as_matrix(points, "points")
    report: list[str] = []
    g = _kernel_block(kf, pts, pts)
    worst_asym = float(np.abs(g - g.T).max())
    if worst_asym > SYMMETRY_TOL:
        report.append(f"asymmetry {worst_asym:.3g} exceeds {SYMMETRY_TOL:g}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (g + g.T)).min())
    if min_eig < PSD_QUAD_FLOOR:
        report.append(f"Gram min eigenvalue {min_eig:.3g} below {PSD_QUAD_FLOOR:g}")
    return report


@dataclass(frozen=True)
class KernelDictionary:
    """Atom pre-images (rows of points) plus their cached Gram matrix.

    gamma caps the feature norms sqrt(kappa(d_i, d_i)); for bound use the
    Gram diagonal must lie in [1 - NORM_TOL, gamma^2 + NORM_TOL], which
    validate_kernel_dictionary reports on.
    """

    points: np.ndarray
    gram: np.ndarray
    gamma: float = 1.0

    def __post_init__(self):
        pts = as_matrix(self.points, "points")
        g = as_gram(self.gram, "gram", pts.shape[0])
        gamma = _finite(self.gamma, "gamma", 1.0, strict=False)
        object.__setattr__(self, "points", _read_only(pts))
        object.__setattr__(self, "gram", _read_only(g))
        object.__setattr__(self, "gamma", gamma)

    @classmethod
    def build(cls, points: np.ndarray, kf: KernelFn, gamma: float = 1.0) -> "KernelDictionary":
        return cls(points=points, gram=gram_matrix(kf, points), gamma=gamma)

    @property
    def p(self) -> int:
        return self.points.shape[0]


def validate_kernel_dictionary(kd: KernelDictionary) -> list[str]:
    """Report the atoms whose squared feature norm kappa(d_i, d_i), the Gram
    diagonal, lies outside [1 - NORM_TOL, gamma^2 + NORM_TOL]: core's norm
    report (validate_dictionary's), with its tolerance on the squared norm."""
    return _norm_report(np.diag(kd.gram), kd.gamma ** 2, "atom {}: kappa(d,d) =",
                        f"gamma^2 = {kd.gamma ** 2:g}")


def _coeff_support(coeffs, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(support indices, their values) from a CoeffVector or dense array,
    which is held to CoeffVector's rules and must have length p."""
    if not isinstance(coeffs, CoeffVector):
        coeffs = CoeffVector.from_dense(coeffs)
    as_vector(coeffs, "coefficients", p)
    idx = np.asarray(coeffs.support, dtype=int)
    return idx, coeffs.values[idx]


def _feature_error(kxx: float, vals: np.ndarray, g_ss: np.ndarray, kx_s: np.ndarray) -> float:
    """sqrt(kappa(x, x) + a' G_SS a - 2 a' kappa_S(x)), floored at the PSD check."""
    quad_form = kxx + (float(vals @ g_ss @ vals) - 2.0 * float(vals @ kx_s))
    if quad_form < PSD_QUAD_FLOOR:
        raise ValueError(f"squared error {quad_form:.3g} below PSD floor {PSD_QUAD_FLOOR:g}; "
                         "kernel is not positive semidefinite on these points")
    return math.sqrt(max(quad_form, 0.0))


def kernel_repr_error(x, coeffs, kd: KernelDictionary, kf: KernelFn) -> float:
    """sqrt of the feature-space squared error of the given coefficients.

    Works on the support only: O(k^2) Gram lookups plus one kernel block,
    kappa(x, d_i) over the support and kappa(x, x).  Raises if the
    quadratic form dips below the PSD floor -1e-8; small negatives above it
    clamp to 0.
    """
    xv = as_vector(x, "signal", kd.points.shape[1])
    idx, vals = _coeff_support(coeffs, kd.p)
    kx = _kernel_block(kf, xv[None], np.vstack((kd.points[idx], xv)))[0]
    return _feature_error(float(kx[-1]), vals, kd.gram[np.ix_(idx, idx)], kx[:-1])


def kernel_greedy_ksparse(x, kd: KernelDictionary, kf: KernelFn, k: int):
    """Greedy pursuit in feature space, using only kernel values: the
    coders' batch OMP run on the atom Gram matrix and kappa(x, d_i).

    Under the linear kernel this matches greedy_ksparse.
    """
    xv = as_vector(x, "signal", kd.points.shape[1])
    k = as_count(k, "k", kd.p)
    kx = _kernel_block(kf, xv[None], np.vstack((kd.points, xv)))[0]  # last: kappa(x, x)
    dense, supports, ridge_used = _greedy_columns(kd.gram, kx[:-1, None], k)
    idx = supports[0][supports[0] >= 0]
    error = _feature_error(float(kx[-1]), dense[idx, 0], kd.gram[np.ix_(idx, idx)], kx[idx])
    return CodingResult(coeffs=CoeffVector(dense[:, 0], tuple(idx)), error=error,
                        method="greedy", ridge_used=bool(ridge_used[0]))


def feature_babel(kd: KernelDictionary, k: int) -> BabelValue:
    """Babel value of the atoms in feature space, read off the Gram matrix."""
    return babel_from_gram(kd.gram, k)


def holder_feature_check(kf: KernelFn, pairs) -> float:
    """Max violation of the feature-space Holder bound over sample pairs:

        ||phi(x) - phi(y)|| <= sqrt(2 L) ||x - y||^(alpha/2)

    which follows from the kernel being L-Holder of order alpha in each
    argument.  <= 0 means the metadata is consistent on these pairs.  A
    pair's distance is the feature error of phi(y) for phi(x), read off
    one 2 x 2 kernel block.
    """
    if kf.smoothness is None:
        raise ValueError(f"kernel {kf.name!r} carries no smoothness metadata")
    hol_l, hol_a = kf.smoothness
    worst = -math.inf
    count = 0
    for x, y in pairs:
        # finite vectors of one dimension: max() drops a NaN violation
        xv = as_vector(x, "x")
        yv = as_vector(y, "y", xv.size)
        block = _kernel_block(kf, np.stack((xv, yv)), np.stack((xv, yv)))
        feat_dist = _feature_error(block[0, 0], np.ones(1), block[1:, 1:], block[0, 1:])
        bound = math.sqrt(2.0 * hol_l) * float(np.linalg.norm(xv - yv)) ** (hol_a / 2.0)
        worst = max(worst, feat_dist - bound)
        count += 1
    if count == 0:
        raise ValueError("pairs must be nonempty")
    return float(worst)


def _kernel_cover(n, p, cover_c, holder_l, holder_alpha, gamma, lam=None, k=None,
                  delta=None) -> tuple[float, float]:
    """(C, d) of the kernelized class's covering numbers (C / eps)^d:
    (cover_c^alpha lam gamma L, np / alpha) at l1 radius lam, or at
    lam = k gamma / (1 - delta) with (k, delta) set."""
    gamma = _finite(gamma, "gamma", 1.0, strict=False)
    if (lam is None) == (k is None):
        raise ValueError("set exactly one of lam or (k, delta)")
    lam = _finite(lam, "lam") if k is None else _ksparse_lam(k, delta) * gamma
    alpha = _finite(holder_alpha, "holder_alpha")
    c = _finite(cover_c, "cover_c") ** alpha * lam * gamma * _finite(holder_l, "holder_l")
    return c, as_count(n, "n") * as_count(p, "p") / alpha


def kernel_cover_log(n: int, p: int, eps: float, *, cover_c: float, holder_l: float,
                     holder_alpha: float, gamma: float = 1.0, lam: float | None = None,
                     k: int | None = None, delta: float | None = None) -> float:
    """log covering number of the kernelized error-function class, clamped
    at 0.  With lam set: np * log(C (lam gamma L / eps)^(1/alpha)); with
    (k, delta) set: the same at lam gamma = k gamma^2 / (1 - delta)."""
    return _log_cover(*_kernel_cover(n, p, cover_c, holder_l, holder_alpha, gamma, lam, k, delta), eps)


KERNEL_VARIANTS = ("maurer_k", "slow")


def kernel_gen_bound(inputs: BoundInputs, variant: str) -> BoundReport:
    """Generalization bounds for kernelized k-sparse representation.

    maurer_k: squared scale, feature norms capped by 1: the Euclidean
        k-sparse maurer bound, which refuses gamma other than 1;
    slow: plain scale for gamma-capped feature norms,

        E h <= E_m h + gamma (sqrt(np ln(sqrt(m) C^alpha k gamma^2 L /
              (1 - delta)) / (2 alpha m)) + sqrt(x / (2m))) + sqrt(4/m),
        computed as slow_rate_generic(gamma, C^alpha k gamma^2 L / (1 - delta), np / alpha).
    """
    if variant not in KERNEL_VARIANTS:
        raise ValueError(f"variant must be one of {KERNEL_VARIANTS}, got {variant!r}")
    if variant == "maurer_k":
        # looked up on dlbounds.bounds at call time, where tracing wraps it
        from .bounds import ksparse_generalization_bound

        return ksparse_generalization_bound(inputs, "maurer")
    c, d = _kernel_cover(inputs.n, inputs.p, inputs.cover_c, inputs.holder_l,
                         inputs.holder_alpha, inputs.gamma, k=inputs.k, delta=inputs.delta)
    return slow_rate_generic(B=inputs.gamma, C=c, d=d, m=inputs.m, x=inputs.x)
