"""Empirical harnesses: Monte Carlo Babel tails, generalization-gap runs,
and the Lipschitz / non-Lipschitz probes for the representation error.

Everything here is deterministic given a master seed: trial i draws from
the counter-derived substream (seed, i), so serial and thread-pool runs
produce identical records, and records serialize to CSV with repr()
floats so reruns are byte-identical.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import (
    Dictionary,
    HardK,
    InapplicableError,
    L1Ball,
    SearchFailureError,
    Signal,
    SparsityConstraint,
    as_count,
    me_norm,
    substream,
    uniform_sphere_matrix,
    validate_dictionary,
)
from .coders import exact_ksparse, exact_ksparse_batch, l1_solve_batch
from .coherence import babel
from .bounds import (
    BoundInputs,
    BoundReport,
    L1_VARIANTS,
    ksparse_generalization_bound,
    l1_generalization_bound,
    optimize_fast_params,
)
from .learn import LearnerConfig, SignalSource, learn_dictionary, signals_to_matrix, synth_sample

CSV_HEADER = "trial,seed,n,p,k,m,stat,bound,applicable"

# Substream layout: gengap trains m-grid point i from stream i+1 and holds
# out one shared test set on a stream no grid can reach.
TEST_STREAM = 2**20

DEGENERATE_TOL = 1e-12

# nonlipschitz_demo codes its candidate signals in blocks of this many.
SEARCH_BATCH = 256

# Fast-rate parameter grids used when a harness has to pick (K, alpha).
FAST_K_GRID = (1.25, 1.5, 2.0, 3.0, 5.0, 10.0)
FAST_ALPHA_GRID = (0.25, 1.0, 4.0, 16.0)


@dataclass(frozen=True)
class TrialRecord:
    """One row of an experiment: parameters, measured statistic, bound.

    k doubles as the l1 radius for l1-constrained runs; m and bound may be
    absent (the Monte Carlo harness has no sample size; inapplicable bound
    evaluations keep their row with an empty bound).
    """

    trial: int
    seed: int
    n: int
    p: int
    k: float
    stat: float
    m: int | None = None
    bound: float | None = None
    applicable: bool = True

    def __post_init__(self):
        if not math.isfinite(self.stat):
            raise ValueError(f"stat must be finite, got {self.stat}")
        if self.bound is not None and not math.isfinite(self.bound):
            raise ValueError(f"bound must be finite or absent, got {self.bound}")


def _format_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def records_to_csv(records: Iterable[TrialRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join(_format_field(v) for v in
                              (r.trial, r.seed, r.n, r.p, r.k, r.m, r.stat, r.bound, r.applicable)))
    return "\n".join(lines) + "\n"


def save_records(records: Iterable[TrialRecord], path) -> None:
    from pathlib import Path

    Path(path).write_text(records_to_csv(records), encoding="ascii")


# ---------------------------------------------------------------------------
# Monte Carlo tail of the Babel function on random dictionaries.
# ---------------------------------------------------------------------------


def babel_tail_bound(n: int, p: int, k: int) -> float:
    """Tail bound P(mu_k(D) > 1/2) <= 1/(e^((n-2)/(10 k ln p)^2) - 1) for a
    dictionary of p uniform sphere atoms, clamped to [0, 1] (the clamp
    only ever loosens: nonpositive exponents report the vacuous 1)."""
    n, p, k = int(n), int(p), int(k)
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if not 1 <= k <= p - 1:
        raise ValueError(f"k must satisfy 1 <= k <= p-1 = {p - 1}, got {k}")
    exponent = (n - 2) / (10.0 * k * math.log(p)) ** 2
    if exponent <= 0.0:
        return 1.0
    if exponent > 700.0:  # expm1 would overflow; 1/(e^x - 1) = e^-x to double precision
        return math.exp(-exponent)
    return min(1.0, 1.0 / math.expm1(exponent))


class McBabelResult(NamedTuple):
    empirical: float
    bound: float
    records: list[TrialRecord]


def mc_babel(n: int, p: int, k: int, trials: int, threshold: float = 0.5,
             seed: int = 0, threads: int = 1) -> McBabelResult:
    """Sample `trials` dictionaries of p uniform sphere atoms and measure
    how often babel(D, k) exceeds threshold.

    The reported bound is the threshold-1/2 tail formula regardless of the
    threshold argument.  Trial i's dictionary depends only on (seed, i) —
    not on k or the thread count — so runs at different orders k share
    dictionaries trial-by-trial and parallel runs match serial ones.
    """
    n, p, k, trials = int(n), int(p), int(k), as_count(trials, "trials")
    if not 1 <= k <= p - 1:
        raise ValueError(f"k must satisfy 1 <= k <= p-1 = {p - 1}, got {k}")
    bound = babel_tail_bound(n, p, k)

    def one(i: int) -> float:
        atoms = uniform_sphere_matrix(n, p, substream(seed, i))
        return babel(Dictionary(atoms), k).value

    if int(threads) > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            values = list(pool.map(one, range(trials)))
    else:
        values = [one(i) for i in range(trials)]
    records = [TrialRecord(trial=i, seed=seed, n=n, p=p, k=k, stat=v, bound=bound)
               for i, v in enumerate(values)]
    empirical = sum(v > threshold for v in values) / trials
    return McBabelResult(empirical=empirical, bound=bound, records=records)


# ---------------------------------------------------------------------------
# Lipschitz behaviour of D -> h_{A,D}(x) in the ME norm.
# ---------------------------------------------------------------------------


def perturbed_pair(d: Dictionary, scale: float, rng: np.random.Generator) -> tuple[Dictionary, Dictionary]:
    """(D, D') with D' a renormalized random perturbation of D; each raw
    perturbation column has norm exactly `scale`, so me_norm(D - D') is of
    that order (renormalization moves it slightly)."""
    if not float(scale) > 0.0:
        raise ValueError(f"scale must be > 0, got {scale}")
    noise = rng.standard_normal(d.atoms.shape)
    noise *= float(scale) / np.linalg.norm(noise, axis=0)
    perturbed = d.atoms + noise
    perturbed /= np.linalg.norm(perturbed, axis=0)
    return d, Dictionary(perturbed)


def _batch_errors(d: Dictionary, x: np.ndarray, constraint: SparsityConstraint) -> np.ndarray:
    if isinstance(constraint, L1Ball):
        return l1_solve_batch(d, x, constraint.lam)[1]
    return exact_ksparse_batch(d, x, constraint.k)[1]


def lipschitz_probe(d: Dictionary, d_prime: Dictionary, signals,
                    constraint: SparsityConstraint) -> float:
    """max over signals of |h_D(x) - h_D'(x)| / me_norm(D - D'), with exact
    or certified l1 coding on both sides (l1 codes D' from D's solution).
    Rejects unnormalized dictionaries and pairs closer than 1e-12 in ME norm
    (the ratio would be noise)."""
    for name, dd in (("first", d), ("second", d_prime)):
        problems = validate_dictionary(dd, normalized=True)
        if problems:
            raise ValueError(f"{name} dictionary not normalized: " + "; ".join(problems))
    if d.atoms.shape != d_prime.atoms.shape:
        raise ValueError(f"shape mismatch: {d.atoms.shape} vs {d_prime.atoms.shape}")
    denom = me_norm(d.atoms - d_prime.atoms)
    if denom < DEGENERATE_TOL:
        raise ValueError(f"degenerate pair: me_norm(D - D') = {denom:.3g} < {DEGENERATE_TOL:g}")
    x = signals_to_matrix(signals)
    if x.shape[0] != d.n:
        raise ValueError(f"signals have dimension {x.shape[0]}, dictionaries {d.n}")
    if isinstance(constraint, L1Ball):
        coeffs, errors, _, _ = l1_solve_batch(d, x, constraint.lam)
        errors_prime = l1_solve_batch(d_prime, x, constraint.lam, coeffs)[1]
    else:
        errors, errors_prime = _batch_errors(d, x, constraint), _batch_errors(d_prime, x, constraint)
    gaps = np.abs(errors - errors_prime)
    return float(gaps.max()) / denom


@dataclass(frozen=True)
class NonLipschitzDemo:
    dictionary: Dictionary
    perturbed: Dictionary
    q: Signal
    ratio: float
    h_value: float        # h_{H_k, D}(q), the error the perturbation erases
    h_perturbed: float    # h_{H_k, D'}(q), ~0 by construction
    distance: float       # me_norm(D - D')


def nonlipschitz_demo(n: int, p: int, k: int, eps: float, *, seed: int = 0,
                      q=None, search_samples: int = 10**5,
                      target: float = 0.05) -> NonLipschitzDemo:
    """Witness pair showing h is not uniformly Lipschitz in the dictionary.

    D has atoms e_1..e_{k-1}, then sqrt(1 - eps^2/4) e_1 + (eps/2) e_k,
    then random sphere atoms.  A unit signal q orthogonal to e_1 with
    h_{H_k,D}(q) >= target is found by sampling; D' replaces the mixed
    atom's e_k component with q, making q exactly representable by two
    atoms while moving the dictionary at most eps in ME norm.  The
    returned ratio |h_D(q) - h_D'(q)| / me_norm(D - D') is then at least
    target/eps, unbounded as eps shrinks.

    Restricting q to the subsphere orthogonal to e_1 keeps the new atom
    exactly unit-norm and the two-atom representation well-conditioned
    (condition number ~2/eps), so h_D'(q) = 0 holds to ~1e-12 even at
    eps = 1e-4.  Search failure raises SearchFailureError carrying the
    best h found.
    """
    n, p, k = int(n), int(p), int(k)
    eps = float(eps)
    if not 2 <= k <= n:
        raise ValueError(f"k must satisfy 2 <= k <= n = {n} (two atoms must cancel), got {k}")
    if not k <= p:
        raise ValueError(f"p must be >= k = {k}, got {p}")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    rng = substream(seed)
    atoms = np.zeros((n, p))
    for j in range(k - 1):
        atoms[j, j] = 1.0
    head = math.sqrt(1.0 - eps * eps / 4.0)
    atoms[0, k - 1] = head
    atoms[k - 1, k - 1] = eps / 2.0
    if p > k:
        atoms[:, k:] = uniform_sphere_matrix(n, p - k, rng)
    d = Dictionary(atoms)

    if q is not None:
        qv = np.asarray(getattr(q, "values", q), dtype=float)
        if qv.shape != (n,):
            raise ValueError(f"q must have shape ({n},), got {qv.shape}")
        if abs(qv[0]) > 1e-9 or abs(np.linalg.norm(qv) - 1.0) > 1e-9:
            raise ValueError("q must be unit norm and orthogonal to e_1")
        h_value = exact_ksparse(d, qv, k).error
    else:
        qv = None
        best = -math.inf
        drawn = 0
        while drawn < int(search_samples):
            width = min(SEARCH_BATCH, int(search_samples) - drawn)
            drawn += width
            cand = rng.standard_normal((n - 1, width))
            cand /= np.linalg.norm(cand, axis=0)
            block = np.vstack([np.zeros(width), cand])
            errors = exact_ksparse_batch(d, block, k)[1]
            hits = np.flatnonzero(errors >= target)
            if hits.size:
                qv = block[:, hits[0]]
                h_value = float(errors[hits[0]])
                break
            best = max(best, float(errors.max()))
        if qv is None:
            raise SearchFailureError(
                f"no q with h >= {target} among {search_samples} samples", best)

    atoms_prime = atoms.copy()
    atoms_prime[:, k - 1] = (eps / 2.0) * qv
    atoms_prime[0, k - 1] += head
    d_prime = Dictionary(atoms_prime)
    distance = me_norm(atoms - atoms_prime)
    h_perturbed = exact_ksparse(d_prime, qv, k).error
    return NonLipschitzDemo(dictionary=d, perturbed=d_prime, q=Signal(qv, unit=True),
                            ratio=abs(h_value - h_perturbed) / distance,
                            h_value=h_value, h_perturbed=h_perturbed, distance=distance)


# ---------------------------------------------------------------------------
# Generalization-gap harness: measured train/test errors vs the calculators.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundEval:
    """One bound variant evaluated at one m-grid point, at its own loss
    scale (train_stat/test_stat are squared means for squared-scale
    bounds, plain means otherwise)."""

    variant: str
    applicable: bool
    train_stat: float
    test_stat: float
    bound_value: float | None
    report: BoundReport | None
    note: str = ""
    k_fast: float | None = None
    alpha_fast: float | None = None


@dataclass(frozen=True)
class GapPoint:
    m: int
    train_mean: float
    test_mean: float
    train_sq_mean: float
    test_sq_mean: float
    train_se: float
    test_se: float
    delta: float | None
    evals: tuple[BoundEval, ...]

    @property
    def gap(self) -> float:
        return self.test_mean - self.train_mean

    @property
    def gap_se(self) -> float:
        return math.hypot(self.train_se, self.test_se)


def _mean_se(values: np.ndarray) -> tuple[float, float, float]:
    """(mean, mean of squares, standard error of the mean)."""
    mean = float(values.mean())
    sq_mean = float((values ** 2).mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return mean, sq_mean, se


def _eval_variant(variant: str, inputs: BoundInputs, family: str,
                  plain: tuple[float, float], squared: tuple[float, float]) -> BoundEval:
    calc = l1_generalization_bound if family == "l1" else ksparse_generalization_bound
    k_fast = alpha_fast = None
    try:
        if variant == "fast":
            k_fast, alpha_fast, report = optimize_fast_params(
                inputs, FAST_K_GRID, FAST_ALPHA_GRID, family=family, empirical=plain[0])
        else:
            report = calc(inputs, variant)
    except InapplicableError as exc:
        return BoundEval(variant=variant, applicable=False, train_stat=plain[0],
                         test_stat=plain[1], bound_value=None, report=None, note=str(exc))
    train_stat, test_stat = squared if report.loss_scale == "squared" else plain
    return BoundEval(variant=variant, applicable=True, train_stat=train_stat,
                     test_stat=test_stat,
                     bound_value=report.multiplier * train_stat + report.additive,
                     report=report, note="", k_fast=k_fast, alpha_fast=alpha_fast)


def gengap_run(source: SignalSource, config: LearnerConfig, m_grid: Sequence[int],
               test_size: int, variants: Sequence[str] = L1_VARIANTS,
               x: float = 2.0, threads: int = 1) -> tuple[list[TrialRecord], list[GapPoint]]:
    """For each m: train on a fresh stream, measure train/test errors of the
    learned dictionary with exact coding, and evaluate the selected bound
    variants with matched parameters.

    k-sparse variants take delta = measured babel(D, k-1) per point; a
    measured value >= 1 (or any other unmet precondition) marks the record
    inapplicable rather than dropping it.  One shared test set serves all
    grid points.  Deterministic given source.seed/config.seed, independent
    of threads.
    """
    m_grid = [as_count(m, "every m_grid entry") for m in m_grid]
    if not m_grid:
        raise ValueError("m_grid must be nonempty")
    test_size = as_count(test_size, "test_size")
    variants = tuple(variants)
    unknown = [v for v in variants if v not in L1_VARIANTS]
    if unknown:
        raise ValueError(f"unknown variants {unknown}; choose from {L1_VARIANTS}")
    constraint = config.constraint
    family = "l1" if isinstance(constraint, L1Ball) else "ksparse"
    k_column = float(constraint.lam) if family == "l1" else constraint.k
    test = signals_to_matrix(synth_sample(source, test_size, stream=TEST_STREAM))

    def one(i: int) -> GapPoint:
        m = m_grid[i]
        train = signals_to_matrix(synth_sample(source, m, stream=i + 1))
        learned = learn_dictionary(train, config).dictionary
        train_mean, train_sq, train_se = _mean_se(_batch_errors(learned, train, constraint))
        test_mean, test_sq, test_se = _mean_se(_batch_errors(learned, test, constraint))
        plain = (train_mean, test_mean)
        squared = (train_sq, test_sq)
        delta = None
        if family == "ksparse":
            delta = 0.0 if constraint.k == 1 else babel(learned, constraint.k - 1).value
        evals = []
        for variant in variants:
            if family == "ksparse":
                if delta >= 1.0:
                    evals.append(BoundEval(variant=variant, applicable=False,
                                           train_stat=train_mean, test_stat=test_mean,
                                           bound_value=None, report=None,
                                           note=f"measured mu_(k-1) = {delta:.6g} >= 1"))
                    continue
                inputs = BoundInputs(n=source.n, p=config.p, m=m, x=x,
                                     k=constraint.k, delta=delta)
            else:
                inputs = BoundInputs(n=source.n, p=config.p, m=m, x=x, lam=constraint.lam)
            evals.append(_eval_variant(variant, inputs, family, plain, squared))
        return GapPoint(m=m, train_mean=train_mean, test_mean=test_mean,
                        train_sq_mean=train_sq, test_sq_mean=test_sq,
                        train_se=train_se, test_se=test_se, delta=delta, evals=tuple(evals))

    if int(threads) > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            points = list(pool.map(one, range(len(m_grid))))
    else:
        points = [one(i) for i in range(len(m_grid))]

    records: list[TrialRecord] = []
    for point in points:
        for ev in point.evals:
            records.append(TrialRecord(
                trial=len(records), seed=source.seed, n=source.n, p=config.p,
                k=k_column, m=point.m, stat=ev.test_stat, bound=ev.bound_value,
                applicable=ev.applicable))
    return records, points


def gap_trend_nonincreasing(points: Sequence[GapPoint], num_se: float = 2.0) -> bool:
    """True when each successive measured gap is no larger than the previous
    one plus num_se combined standard errors."""
    ordered = sorted(points, key=lambda pt: pt.m)
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.gap > prev.gap + num_se * math.hypot(prev.gap_se, cur.gap_se):
            return False
    return True
