"""Synthetic signal sources and a small alternating-minimization learner.

The learner exists to produce plausible dictionaries for the empirical
harness, not to compete with serious dictionary-learning software: it
alternates exact (or greedy) sparse coding with a full least-squares
dictionary update, the classic method-of-optimal-directions scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import (
    Dictionary,
    HardK,
    L1Ball,
    SearchFailureError,
    Signal,
    SparsityConstraint,
    as_count,
    sample_uniform_sphere,
    substream,
    uniform_sphere_matrix,
    validate_dictionary,
)
from .coders import exact_ksparse_batch, greedy_ksparse_batch, l1_solve_batch
from .coherence import babel

SOURCE_KINDS = ("dictionary", "sphere")
INIT_KINDS = ("sample-atoms", "random-sphere")

# Dictionary-update regularizer and the dead-atom threshold.
UPDATE_RIDGE = 1e-9
DEAD_ATOM_TOL = 1e-12
# synth_sample's dictionary branch draws blocks of about this many entries
# of the gathered n x c x k_true atoms (c signals per block).
SAMPLE_BLOCK = 2**18
# near_orthogonal_dictionary clips each Gram off-diagonal to this magnitude.
NEAR_ORTHOGONAL_CORR = 0.27


@dataclass(frozen=True)
class SignalSource:
    """Distribution over unit-norm signals, deterministic given (seed, stream).

    kind "dictionary": x = normalize(D_true a + sigma g) with a supported on
    k_true uniformly chosen atoms, entries uniform on [-1, 1] and then
    normalized to unit l2 before mixing, g standard Gaussian.
    kind "sphere": uniform on the unit sphere.
    """

    kind: str
    n: int
    seed: int = 0
    dictionary: Dictionary | None = None
    k_true: int = 1
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ValueError(f"kind must be one of {SOURCE_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "n", as_count(self.n, "n"))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "k_true", as_count(self.k_true, "k_true"))
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.kind == "dictionary":
            if self.dictionary is None:
                raise ValueError("dictionary kind needs a ground-truth dictionary")
            if self.dictionary.n != self.n:
                raise ValueError(
                    f"ground dictionary has n = {self.dictionary.n}, source says {self.n}")
            if not 1 <= self.k_true <= self.dictionary.p:
                raise ValueError(
                    f"k_true must satisfy 1 <= k_true <= p = {self.dictionary.p}, got {self.k_true}")
        elif self.dictionary is not None:
            raise ValueError("sphere kind takes no dictionary")


def dictionary_source(d_true: Dictionary, k_true: int, sigma: float, seed: int = 0) -> SignalSource:
    return SignalSource(kind="dictionary", n=d_true.n, seed=seed,
                        dictionary=d_true, k_true=k_true, sigma=sigma)


def sphere_source(n: int, seed: int = 0) -> SignalSource:
    return SignalSource(kind="sphere", n=n, seed=seed)


def synth_sample(source: SignalSource, m: int, stream: int = 0) -> list[Signal]:
    """Draw m unit-norm signals; identical streams for identical
    (source.seed, stream), independent streams otherwise.

    A dictionary source draws, per block of signals, every support (the
    first k_true of a random permutation), every coefficient row, then the
    noise only if sigma > 0.  Signals with a coefficient or signal norm
    below DEAD_ATOM_TOL are dropped and replaced from further blocks."""
    m = as_count(m, "m")
    rng = substream(source.seed, stream)
    if source.kind == "sphere":
        return [Signal(c, unit=True) for c in uniform_sphere_matrix(source.n, m, rng).T]
    atoms, k, sigma = source.dictionary.atoms, source.k_true, source.sigma
    n, p = atoms.shape
    out: list[Signal] = []
    while len(out) < m:
        c = min(m - len(out), max(1, SAMPLE_BLOCK // (n * k + p)))
        supports = np.argsort(rng.random((c, p)), axis=1)[:, :k]
        coef = rng.uniform(-1.0, 1.0, (c, k))
        norms = np.linalg.norm(coef, axis=1, keepdims=True)
        live = norms[:, 0] >= DEAD_ATOM_TOL
        x = np.einsum("nck,ck->nc", atoms[:, supports[live]], coef[live] / norms[live])
        if sigma > 0.0:
            x += sigma * rng.standard_normal((n, c))[:, live]
        norms = np.linalg.norm(x, axis=0)
        live = norms >= DEAD_ATOM_TOL
        out.extend(Signal(col, unit=True) for col in (x[:, live] / norms[live]).T)
    return out


def signals_to_matrix(signals) -> np.ndarray:
    """Column-stack a list of Signals (or accept an n x m array as-is)."""
    if isinstance(signals, np.ndarray):
        x = np.asarray(signals, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"expected an n x m matrix, got shape {x.shape}")
        return x
    cols = [np.asarray(getattr(s, "values", s), dtype=float) for s in signals]
    if not cols:
        raise ValueError("need at least one signal")
    if any(c.ndim != 1 or c.shape != cols[0].shape for c in cols):
        raise ValueError("signals must share one dimension")
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class LearnerConfig:
    p: int
    constraint: SparsityConstraint
    iterations: int = 20
    seed: int = 0
    init: str = "sample-atoms"
    # Exhaustive support search vs greedy pursuit for HardK coding steps.
    exact_coder: bool = True

    def __post_init__(self):
        object.__setattr__(self, "p", as_count(self.p, "p"))
        object.__setattr__(self, "iterations", as_count(self.iterations, "iterations"))
        if self.init not in INIT_KINDS:
            raise ValueError(f"init must be one of {INIT_KINDS}, got {self.init!r}")
        if not isinstance(self.constraint, (HardK, L1Ball)):
            raise ValueError(f"constraint must be HardK or L1Ball, got {self.constraint!r}")
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class LearnResult:
    dictionary: Dictionary
    trace: tuple[float, ...]  # mean training error at each coding step


def _code_batch(atoms: np.ndarray, x: np.ndarray, config: LearnerConfig,
                init: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(coefficients p x m, errors m) for the configured coder.  The l1 coder
    starts from init, the previous coding step's coefficients, if given; the
    k-sparse coders search from scratch."""
    d = Dictionary(atoms)
    if isinstance(config.constraint, L1Ball):
        coeffs, errors, _, _ = l1_solve_batch(d, x, config.constraint.lam, init)
        return coeffs, errors
    coder = exact_ksparse_batch if config.exact_coder else greedy_ksparse_batch
    return coder(d, x, config.constraint.k)


def _normalize_columns(atoms: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Unit-normalize columns, replacing dead ones with fresh sphere atoms."""
    atoms = atoms.copy()
    norms = np.linalg.norm(atoms, axis=0)
    for j in np.flatnonzero(norms < DEAD_ATOM_TOL):
        atoms[:, j] = sample_uniform_sphere(atoms.shape[0], rng).values
        norms[j] = 1.0
    return atoms / norms


def learn_dictionary(samples, config: LearnerConfig) -> LearnResult:
    """Alternating minimization: sparse-code, least-squares update, renormalize.

    The update solves min_D ||X - D A||_F^2 with a 1e-9 ridge, i.e.
    D <- X A' (A A' + 1e-9 I)^{-1}, then columns are renormalized (dead
    columns resampled from the sphere).  The trace records the mean
    training error at each coding step.  l1 coding steps after the first
    start from the previous step's coefficients.  Under the exact coder the
    mean *squared* error descends monotonically (renormalization is
    absorbed by coefficient rescaling, so each half-step improves the
    least-squares objective); the unsquared mean inherits that descent
    on typical instances but can tick up when the update concentrates
    error on a few signals (e.g. degenerate inits with duplicate atoms).
    """
    x = signals_to_matrix(samples)
    n, m = x.shape
    rng = substream(config.seed)
    if config.init == "sample-atoms":
        if config.p > m:
            raise ValueError(f"sample-atoms init needs p <= sample count, got p = {config.p} > m = {m}")
        atoms = _normalize_columns(x[:, rng.choice(m, size=config.p, replace=False)], rng)
    else:
        atoms = uniform_sphere_matrix(n, config.p, rng)
    trace: list[float] = []
    coeffs = None
    for _ in range(config.iterations):
        coeffs, errors = _code_batch(atoms, x, config, coeffs)
        trace.append(float(errors.mean()))
        gram = coeffs @ coeffs.T
        gram[np.diag_indices_from(gram)] += UPDATE_RIDGE
        atoms = _normalize_columns(np.linalg.solve(gram, coeffs @ x.T).T, rng)
    learned = Dictionary(atoms)
    problems = validate_dictionary(learned, normalized=True)
    if problems:  # unreachable by construction; loud beats silent
        raise AssertionError("learned dictionary failed validation: " + "; ".join(problems))
    return LearnResult(dictionary=learned, trace=tuple(trace))


def near_orthogonal_dictionary(n: int, p: int, rng: np.random.Generator, *,
                               babel_order: int = 2, babel_cap: float = 0.6,
                               rounds: int = 60, max_tries: int = 50) -> Dictionary:
    """Random dictionary with babel(D, babel_order) <= babel_cap.

    Uniform sphere atoms rarely satisfy small Babel caps once p > n, so
    each candidate is annealed: clip Gram off-diagonals to NEAR_ORTHOGONAL_CORR,
    project back to the rank-n PSD cone, renormalize, repeat.  Candidates
    still over the cap are rejected and redrawn; exhausting max_tries
    raises SearchFailureError carrying the best Babel value reached.
    """
    if not 1 <= babel_order <= p - 1:
        raise ValueError(f"babel_order must satisfy 1 <= order <= p-1 = {p - 1}, got {babel_order}")
    best = math.inf
    for _ in range(max_tries):
        atoms = uniform_sphere_matrix(n, p, rng)
        for _ in range(rounds):
            g = atoms.T @ atoms
            off = g - np.diag(np.diag(g))
            np.clip(off, -NEAR_ORTHOGONAL_CORR, NEAR_ORTHOGONAL_CORR, out=off)
            g = off + np.eye(p)
            w, v = np.linalg.eigh(g)
            # factor G = A^T A with A n x p: top min(n, p) eigenpairs carry
            # the rank; remaining coordinates (when n > p) stay zero
            r = min(n, p)
            w = np.clip(w[-r:], 0.0, None)
            atoms = np.zeros((n, p))
            atoms[:r] = np.sqrt(w)[:, None] * v[:, -r:].T
            atoms = _normalize_columns(atoms, rng)
        value = babel(Dictionary(atoms), babel_order).value
        if value <= babel_cap:
            return Dictionary(atoms)
        best = min(best, value)
    raise SearchFailureError(
        f"no dictionary with babel_{babel_order} <= {babel_cap} in {max_tries} tries", best)
