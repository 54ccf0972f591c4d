"""Sample-complexity bound calculators for dictionary learning.

Every bound here controls the expected representation error E h (or E h^2
for the squared-scale variant) by the empirical average over m samples
plus an additive term, sometimes after inflating the empirical average by
a multiplier:

    E h <= multiplier * E_m h + additive   with probability 1 - exp(-x).

All logarithms are natural.  Signals are assumed on the unit sphere, so
the plain loss lives in [0, 1] and an additive term >= 1 makes a bound
vacuous; reports carry that flag and the loss scale explicitly.

Variants:
  "maurer"  dimension-free second-moment bound, squared-error scale;
  "slow"    covering-number bound decaying like sqrt(log(m)/m);
  "fast"    localized bound decaying like log(m)/m with multiplier K/(K-1),
            at weight alpha* = W(cm)/c; a K picked from data pays ln|K grid|.

The k-sparse family is the l1 family at lam = k / (1 - delta), where
delta bounds the order-(k-1) Babel value of the dictionary; `coeff_l1_bound`
is that radius at one dictionary's delta = mu_{k-1}, times its gamma.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .core import Dictionary, InapplicableError, _finite, as_count, validate_dictionary
from .coherence import babel

L1_VARIANTS = ("maurer", "slow", "fast")


@dataclass(frozen=True)
class BoundInputs:
    """Inputs shared by the bound calculators; unused fields may stay None.

    n, p: signal dimension and dictionary size; m: sample count;
    x: confidence exponent (failure probability exp(-x)); lam: l1 radius;
    k, delta: sparsity level and Babel bound for the k-sparse family;
    K, alpha: fast-rate multiplier parameter (K > 1) and localization
    weight (None: alpha*); gamma: kernel feature-norm cap (must be 1 elsewhere);
    cover_c, holder_l, holder_alpha: kernel covering constants.
    """

    n: int | None = None
    p: int | None = None
    m: int | None = None
    x: float | None = None
    lam: float | None = None
    k: int | None = None
    delta: float | None = None
    K: float | None = None
    alpha: float | None = None
    gamma: float = 1.0
    cover_c: float | None = None
    holder_l: float | None = None
    holder_alpha: float | None = None


@dataclass(frozen=True)
class BoundReport:
    """A bound as multiplier * empirical + sum(parts), with bookkeeping.

    parts is an ordered name -> value breakdown; additive is their exact
    sum.  loss_scale is "plain" for h in [0, 1] and "squared" for h^2.
    branch names the active branch of a max, alpha a fast bound's weight.
    """

    multiplier: float
    parts: dict[str, float]
    loss_scale: str = "plain"
    branch: str | None = None
    alpha: float | None = None

    @property
    def additive(self) -> float:
        return float(sum(self.parts.values()))

    @property
    def vacuous(self) -> bool:
        return self.additive >= 1.0

    def to_dict(self) -> dict:
        return {**asdict(self), "additive": self.additive, "vacuous": self.vacuous}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _check_delta(delta) -> float:
    delta = _finite(delta, "delta", strict=False)
    # a finite delta >= 1 is not a malformed input but a dictionary class
    # the k-sparse machinery cannot cover (the coefficient l1 control fails)
    if delta >= 1.0:
        raise InapplicableError(f"needs delta < 1, got delta = {delta}")
    return delta


def _ksparse_lam(k, delta) -> float:
    """The l1 radius k / (1 - delta) that covers the k-sparse class."""
    return as_count(k, "k") / (1.0 - _check_delta(delta))


def coeff_l1_bound(d: Dictionary, k: int) -> float:
    """Upper bound gamma * k / (1 - mu_{k-1}) on the l1 norm of an optimal
    k-sparse coefficient vector for a unit signal: the k-sparse radius at
    delta = mu_{k-1}, times gamma.  Valid when column norms lie in [1, gamma]
    and mu_{k-1}(D) < 1, else InapplicableError; mu_0 = 0 (an empty sum)."""
    k = as_count(k, "k", d.p)
    problems = validate_dictionary(d)
    if problems:
        raise ValueError("dictionary invalid: " + "; ".join(problems))
    return _ksparse_lam(k, babel(d, k - 1).value if k > 1 else 0.0) * d.gamma


def _l1_cover(n, p, lam) -> tuple[float, int]:
    """(C, d) of the l1 class's covering numbers (C / eps)^d: (4 lam, np)."""
    return 4.0 * _finite(lam, "lam"), as_count(n, "n") * as_count(p, "p")


def _log_cover(c, d, eps) -> float:
    """log of the covering number (C / eps)^d at radius eps, clamped at 0."""
    return max(0.0, d * math.log(c / _finite(eps, "eps")))


def log_cover_l1(n: int, p: int, lam: float, eps: float) -> float:
    """log of the covering number (4 lam / eps)^(np) of the l1-constrained
    error-function class at radius eps, clamped at 0."""
    return _log_cover(*_l1_cover(n, p, lam), eps)


def log_cover_ksparse(n: int, p: int, k: int, delta: float, eps: float) -> float:
    """log of the covering number (4k / (eps (1 - delta)))^(np), clamped at 0:
    the l1 cover at lam = k / (1 - delta)."""
    return log_cover_l1(n, p, _ksparse_lam(k, delta), eps)


def slow_rate_generic(B: float, C: float, d: float, m: int, x: float) -> BoundReport:
    """Covering-number deviation bound for a [0, B]-valued function class
    with covering numbers (C / eps)^d, evaluated at eps = 1 / sqrt(m).

    Applicable when the cover at that radius has at least one element and
    more than e / B^2; otherwise raises InapplicableError.  A formula value
    below one element is outside the range where (C / eps)^d bounds a
    covering number (and its log would enter a square root).
    """
    m, x = as_count(m, "m"), _finite(x, "x", strict=False)
    B, C, d = _finite(B, "B"), _finite(C, "C"), _finite(d, "d", 1.0, strict=False)
    log_cover = d * math.log(C * math.sqrt(m))
    if log_cover < 0.0 or not log_cover > 1.0 - 2.0 * math.log(B):
        raise InapplicableError(
            f"cover size (C sqrt(m))^d = exp({log_cover:.6g}) is below 1 or does not exceed e/B^2")
    parts = {
        "cover": B * math.sqrt(log_cover / (2.0 * m)),
        "confidence": B * math.sqrt(x / (2.0 * m)),
        "discretization": math.sqrt(4.0 / m),
    }
    return BoundReport(multiplier=1.0, parts=parts, loss_scale="plain")


def lambert_w(z: float) -> float:
    """Lambert W at z > 0: the root of w + ln(w/z) = 0 by four Halley steps
    from log1p(z) (Corless et al., Adv. Comput. Math. 1996)."""
    w = math.log1p(_finite(z, "z"))
    for _ in range(4):
        f = w + math.log(w / z)
        w -= f * w / (1.0 + w) / (1.0 + f / (2.0 * (1.0 + w) ** 2))
    return w


def fast_rate_generic(C: float, d: float, m: int, x: float, K: float, alpha: float | None = None) -> BoundReport:
    """Localized bound for a [0, 1]-valued class with covering numbers
    (C / eps)^d, C > 2:

        E f <= K/(K-1) E_m f + 6 K max(branches) + (11 x + 5 K) / m

    with branches alpha C^2 / (2m), 480^2 (d+1) ln(m/alpha) / m, and
    (20 + 22 ln m) / m.  The report records the active branch and alpha;
    alpha None takes alpha* = W(cm)/c, where the first two branches meet.
    """
    m, x = as_count(m, "m"), _finite(x, "x", strict=False)
    C, d = _finite(C, "C"), _finite(d, "d", 1.0, strict=False)
    K = _finite(K, "K", 1.0)
    if not C > 2.0:
        raise InapplicableError(f"fast rate needs a cover constant C > 2, got C = {C:.6g}")
    if alpha is None:  # z = cm, c = C^2 / (2 480^2 (d+1)); ln(m/alpha*) = W(z)
        z = C * C * m / (2.0 * 480.0 ** 2 * (d + 1.0))
        log_ratio = lambert_w(z)
        alpha = m * (log_ratio / z)  # W(z)/c, and <= m after rounding too
    else:
        alpha = _finite(alpha, "alpha")
        _require(m / alpha > 1.0, f"need m/alpha > 1 for ln(m/alpha), got m={m}, alpha={alpha}")
        log_ratio = math.log(m / alpha)
    branches = {
        "alpha": alpha * C * C / (2.0 * m),
        "entropy": 480.0 ** 2 * (d + 1.0) * log_ratio / m,
        "logm": (20.0 + 22.0 * math.log(m)) / m,
    }
    branch = max(branches, key=lambda name: branches[name])
    parts = {
        "localization": 6.0 * K * branches[branch],
        "confidence": (11.0 * x + 5.0 * K) / m,
    }
    return BoundReport(K / (K - 1.0), parts, loss_scale="plain", branch=branch, alpha=alpha)


def l1_generalization_bound(inputs: BoundInputs, variant: str) -> BoundReport:
    """Generalization bound for l1-constrained representation error.

    maurer: squared scale, dimension-free in n,
        E h^2 <= E_m h^2 + sqrt(p^2 (14 lam + sqrt(ln(16 m lam^2))/2)^2 / m)
                 + sqrt(x / (2m));
    slow: slow_rate_generic with B = 1, C = 4 lam, d = n p;
    fast: fast_rate_generic with C = 4 lam, d = n p.
    All three assume unit atoms: gamma != 1 raises InapplicableError.
    """
    if variant not in L1_VARIANTS:
        raise ValueError(f"variant must be one of {L1_VARIANTS}, got {variant!r}")
    gamma = _finite(inputs.gamma, "gamma", 1.0, strict=False)
    if gamma != 1.0:
        raise InapplicableError(f"the Euclidean bounds need unit atoms (gamma = 1), got gamma = {gamma:g}")
    if variant == "maurer":
        lam, p = _finite(inputs.lam, "lam"), as_count(inputs.p, "p")
        m, x = as_count(inputs.m, "m"), _finite(inputs.x, "x", strict=False)
        log_arg = 16.0 * m * lam * lam
        if log_arg < 1.0:
            raise InapplicableError(f"needs 16 m lam^2 >= 1, got {log_arg:.6g}")
        inner = 14.0 * lam + 0.5 * math.sqrt(math.log(log_arg))
        parts = {
            "complexity": math.sqrt(p * p * inner * inner / m),
            "confidence": math.sqrt(x / (2.0 * m)),
        }
        return BoundReport(multiplier=1.0, parts=parts, loss_scale="squared")
    c, d = _l1_cover(inputs.n, inputs.p, inputs.lam)
    if variant == "slow":
        return slow_rate_generic(B=1.0, C=c, d=d, m=inputs.m, x=inputs.x)
    return fast_rate_generic(C=c, d=d, m=inputs.m, x=inputs.x, K=inputs.K, alpha=inputs.alpha)


def ksparse_generalization_bound(inputs: BoundInputs, variant: str) -> BoundReport:
    """k-sparse generalization bound: the l1 bound at lam = k / (1 - delta),
    delta an upper bound on mu_{k-1} of the dictionary class."""
    lam_eff = _ksparse_lam(inputs.k, inputs.delta)
    return l1_generalization_bound(replace(inputs, lam=lam_eff), variant)


def optimize_fast_params(inputs: BoundInputs, K_grid, family: str,
                         empirical: float | None = None) -> tuple[float, BoundReport]:
    """Pick K on a grid minimizing multiplier * empirical + additive; return
    (K, report), report.alpha being inputs.alpha or else alpha* = W(cm)/c.

    A K chosen with an empirical value depends on the sample, so the bound
    is then evaluated at x + ln|K_grid| (the union bound over the grid).
    Without one the pick is always the grid's smallest K: both K-dependent
    parts of the additive term, 6 K max(branches) and 5 K / m, grow with K.
    Ties break toward smaller K.  No precondition depends on K, so an
    inapplicable input raises the bound's own InapplicableError.
    """
    ks = sorted(float(v) for v in K_grid)
    _require(len(ks) > 0, "K_grid must be nonempty")
    weight = 0.0 if empirical is None else _finite(empirical, "empirical", strict=False)
    if empirical is not None:
        inputs = replace(inputs, x=_finite(inputs.x, "x", strict=False) + math.log(len(ks)))
    if family not in ("l1", "ksparse"):
        raise ValueError(f"family must be 'l1' or 'ksparse', got {family!r}")
    calc = l1_generalization_bound if family == "l1" else ksparse_generalization_bound
    reports = [(k_val, calc(replace(inputs, K=k_val), "fast")) for k_val in ks]
    k_val, report = min(reports, key=lambda kr: kr[1].multiplier * weight + kr[1].additive)
    return k_val, report


def log_integral_check(gamma: float, x_grid) -> float:
    """Max violation of the entropy-integral inequality

        int_0^x sqrt(log(gamma / eps)) d(eps) <= 2 x sqrt(log(gamma / x))

    over the given x values in (0, 1], for a finite gamma >= sqrt(e) (one in
    (0, sqrt(e)) raises InapplicableError).  With
    L = log(gamma / x) the left side is x sqrt(L) + gamma (sqrt(pi)/2)
    erfc(sqrt(L)) in closed form, so the violation is
    gamma (sqrt(pi)/2) erfc(sqrt(L)) - x sqrt(L), exact up to rounding; a
    correct inequality keeps the returned maximum <= 0.
    """
    gamma = _finite(gamma, "gamma")
    if gamma < math.sqrt(math.e):
        raise InapplicableError(f"gamma must be >= sqrt(e) = {math.sqrt(math.e):.6f}, got {gamma}")
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    _require(xs.size > 0, "x_grid must be nonempty")
    _require(bool(np.all((xs > 0.0) & (xs <= 1.0))), "x values must lie in (0, 1]")
    worst = -math.inf
    for x in xs.tolist():
        root = math.sqrt(math.log(gamma / x))
        worst = max(worst, gamma * math.sqrt(math.pi) / 2.0 * math.erfc(root) - x * root)
    return worst
