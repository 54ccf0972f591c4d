"""Synthetic signal sources and a small alternating-minimization learner.

The learner exists to produce plausible dictionaries for the empirical
harness, not to compete with serious dictionary-learning software: it
alternates exact (or greedy) sparse coding with a full least-squares
dictionary update, the classic method-of-optimal-directions scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEAD_ATOM_TOL,
    Dictionary,
    HardK,
    L1Ball,
    SearchFailureError,
    SignalBatch,
    SparsityConstraint,
    _finite,
    _read_only,
    as_count,
    as_matrix,
    as_seed,
    substream,
    uniform_sphere_matrix,
    validate_dictionary,
)
from .coders import exact_ksparse_batch, greedy_ksparse_batch, l1_solve_batch
from .coherence import babel

INIT_KINDS = ("sample-atoms", "random-sphere")

# Dictionary-update regularizer.
UPDATE_RIDGE = 1e-9
# synth_sample's dictionary branch draws blocks of about this many entries
# of the gathered n x c x k_true atoms (c signals per block).
SAMPLE_BLOCK = 2**18
# near_orthogonal_dictionary clips each Gram off-diagonal to this magnitude,
# for at most ROUNDS rounds per candidate and TRIES candidates.
NEAR_ORTHOGONAL_CORR = 0.27
NEAR_ORTHOGONAL_ROUNDS = 60
NEAR_ORTHOGONAL_TRIES = 50


@dataclass(frozen=True)
class SignalSource:
    """Distribution over unit-norm signals, deterministic given (seed, stream).

    With a dictionary: x = normalize(D_true a + sigma g) with a supported on
    k_true uniformly chosen atoms, entries uniform on [-1, 1] and then
    normalized to unit l2 before mixing, g standard Gaussian.
    Without one: uniform on the unit sphere; k_true must be 1 and sigma 0.
    """

    n: int
    seed: int = 0
    dictionary: Dictionary | None = None
    k_true: int = 1
    sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n", as_count(self.n, "n"))
        object.__setattr__(self, "seed", as_seed(self.seed))
        object.__setattr__(self, "sigma", _finite(self.sigma, "sigma", strict=False))
        d = self.dictionary
        if d is not None and d.n != self.n:
            raise ValueError(f"ground dictionary has n = {d.n}, source says {self.n}")
        object.__setattr__(self, "k_true", as_count(self.k_true, "k_true", None if d is None else d.p))
        if d is None and (self.k_true != 1 or self.sigma != 0.0):
            raise ValueError("a source without a dictionary is uniform on the sphere and takes "
                             f"k_true = 1, sigma = 0; got k_true = {self.k_true}, sigma = {self.sigma!r}")


def dictionary_source(d_true: Dictionary, k_true: int, sigma: float, seed: int = 0) -> SignalSource:
    return SignalSource(n=d_true.n, seed=seed, dictionary=d_true, k_true=k_true, sigma=sigma)


def sphere_source(n: int, seed: int = 0) -> SignalSource:
    return SignalSource(n=n, seed=seed)


def synth_sample(source: SignalSource, m: int, stream: int = 0) -> SignalBatch:
    """Draw m unit-norm signals as the columns of one checked n x m
    SignalBatch; identical streams for identical (source.seed, stream),
    independent streams otherwise.

    A dictionary source draws, per block of signals, every support (the
    first k_true of a random permutation), every coefficient row, then the
    noise only if sigma > 0.  Signals with a coefficient or signal norm
    below DEAD_ATOM_TOL are dropped and replaced from further blocks."""
    m = as_count(m, "m")
    rng = substream(source.seed, as_seed(stream, "stream"))
    if source.dictionary is None:
        return SignalBatch(uniform_sphere_matrix(source.n, m, rng))
    atoms, k, sigma = source.dictionary.atoms, source.k_true, source.sigma
    n, p = atoms.shape
    out = np.empty((n, m))
    kept = 0
    while kept < m:
        c = min(m - kept, max(1, SAMPLE_BLOCK // (n * k + p)))
        supports = np.argsort(rng.random((c, p)), axis=1)[:, :k]
        coef = rng.uniform(-1.0, 1.0, (c, k))
        norms = np.linalg.norm(coef, axis=1, keepdims=True)
        live = norms[:, 0] >= DEAD_ATOM_TOL
        x = np.einsum("nck,ck->nc", atoms[:, supports[live]], coef[live] / norms[live])
        if sigma > 0.0:
            x += sigma * rng.standard_normal((n, c))[:, live]
        norms = np.linalg.norm(x, axis=0)
        live = norms >= DEAD_ATOM_TOL
        x = x[:, live] / norms[live]
        out[:, kept:kept + x.shape[1]] = x
        kept += x.shape[1]
    return SignalBatch(out)


def signals_to_matrix(signals) -> np.ndarray:
    """The n x m matrix of a SignalBatch (its own read-only values), an
    n x m array as-is, or a list of Signals column-stacked, held to the
    matrix rule (as_matrix)."""
    if isinstance(signals, SignalBatch):
        return signals.values
    if not isinstance(signals, np.ndarray):
        signals = np.stack([getattr(s, "values", s) for s in signals], axis=1)
    return as_matrix(signals, "signals")


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
        if isinstance(self.constraint, L1Ball) and not self.exact_coder:
            raise ValueError("no greedy l1 coder: exact_coder=False needs a HardK constraint")
        object.__setattr__(self, "seed", as_seed(self.seed))


@dataclass(frozen=True)
class LearnResult:
    """The learned dictionary, the mean training error at each coding step,
    and coeffs, the last coding step's p x m coefficients: the codes of the
    samples under the dictionary before the last update, which l1 coding
    of the same samples under the learned one can take as its guess."""

    dictionary: Dictionary
    trace: tuple[float, ...]
    coeffs: np.ndarray


def _code_batch(atoms: np.ndarray, x: np.ndarray, config: LearnerConfig,
                guess: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """(coefficients p x m, errors m) for the configured coder; the l1 coder
    takes guess, the previous step's coefficients (None at the first)."""
    d = Dictionary(atoms)
    if isinstance(config.constraint, L1Ball):
        coeffs, errors, _, _ = l1_solve_batch(d, x, config.constraint.lam, guess)
        return coeffs, errors
    coder = exact_ksparse_batch if config.exact_coder else greedy_ksparse_batch
    return coder(d, x, config.constraint.k)


def _normalize_columns(atoms: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Unit-normalize columns, replacing dead ones with one block of sphere atoms."""
    atoms = atoms.copy()
    norms = np.linalg.norm(atoms, axis=0)
    dead = np.flatnonzero(norms < DEAD_ATOM_TOL)
    if dead.size:
        atoms[:, dead] = uniform_sphere_matrix(atoms.shape[0], dead.size, rng)
        norms[dead] = 1.0
    return atoms / norms


def learn_dictionary(samples, config: LearnerConfig) -> LearnResult:
    """Alternating minimization: sparse-code, least-squares update, renormalize.

    The update solves min_D ||X - D A||_F^2 with a 1e-9 ridge, i.e.
    D <- X A' (A A' + 1e-9 I)^{-1}, then columns are renormalized (dead
    columns resampled from the sphere).  The trace records the mean
    training error at each coding step.  Under the exact coder the
    mean *squared* error descends monotonically (renormalization is
    absorbed by coefficient rescaling, so each half-step improves the
    least-squares objective); the unsquared mean inherits that descent
    on typical instances but can tick up when the update concentrates
    error on a few signals (e.g. degenerate inits with duplicate atoms).
    l1 coding from the second step on passes the previous step's
    coefficients to l1_solve_batch as its guess: every column is still
    certified at ERR_TOL, though the codes, and so the dictionary, may
    differ from unguessed ones by rounding.  The result's coeffs are the
    last coding step's.
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
    return LearnResult(dictionary=learned, trace=tuple(trace), coeffs=_read_only(coeffs))


def near_orthogonal_dictionary(n: int, p: int, rng: np.random.Generator, *,
                               babel_order: int = 2, babel_cap: float = 0.6) -> Dictionary:
    """Random dictionary with babel(D, babel_order) <= babel_cap.

    Uniform sphere atoms rarely satisfy small Babel caps once p > n, so
    each candidate is annealed: clip Gram off-diagonals to NEAR_ORTHOGONAL_CORR,
    project back to the rank-n PSD cone, renormalize, repeat.  The first
    round that meets the cap is returned; a candidate still over it after
    NEAR_ORTHOGONAL_ROUNDS rounds is redrawn, and exhausting
    NEAR_ORTHOGONAL_TRIES candidates raises SearchFailureError carrying the
    best Babel value reached.
    """
    babel_order = as_count(babel_order, "k", p - 1, "p-1")
    best = math.inf
    for _ in range(NEAR_ORTHOGONAL_TRIES):
        atoms = uniform_sphere_matrix(n, p, rng)
        for _ in range(NEAR_ORTHOGONAL_ROUNDS):
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
            d = Dictionary(atoms)
            value = babel(d, babel_order).value
            if value <= babel_cap:
                return d
            best = min(best, value)
    raise SearchFailureError(
        f"no dictionary with babel_{babel_order} <= {babel_cap} in {NEAR_ORTHOGONAL_TRIES} tries", best)
