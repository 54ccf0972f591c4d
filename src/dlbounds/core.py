"""Core types and small geometric utilities shared by every other module.

Dictionaries are real n x p matrices whose columns ("atoms") are the
building blocks of sparse representations.  Signals live in R^n and are
usually normalized to the unit sphere.  Column norms are allowed in
[1, gamma] with gamma >= 1; gamma = 1 is the normalized case.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np


class InapplicableError(ValueError):
    """A precondition of a formula or bound does not hold for these inputs."""


class GuardExceededError(ValueError):
    """An exhaustive enumeration would exceed its size guard."""


class SearchFailureError(RuntimeError):
    """A randomized search did not reach its target; carries the best value found."""

    def __init__(self, message: str, best: float):
        super().__init__(message)
        self.best = best


# Column norms may undershoot 1 or overshoot gamma by this much before a
# dictionary is reported invalid.
NORM_TOL = 1e-9


def _as_matrix(values) -> np.ndarray:
    m = np.asarray(values, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    return m


def as_vector(x) -> np.ndarray:
    """Coerce a Signal, CoeffVector, or array-like to a 1-d float array."""
    v = np.asarray(getattr(x, "values", x), dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    return v


def as_count(value, name: str) -> int:
    """A positive integer count; a non-integral value raises instead of
    being truncated by int()."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value or count < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return count


def me_norm(matrix) -> float:
    """Maximum Euclidean column norm of a matrix.

    This is the metric used for dictionary perturbations: it upper-bounds
    the induced l1 -> l2 operator norm, so ||M a||_2 <= me_norm(M) ||a||_1.
    """
    m = _as_matrix(matrix)
    if m.size == 0:
        raise ValueError("me_norm of an empty matrix is undefined")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return float(np.sqrt((m * m).sum(axis=0)).max())


@dataclass(frozen=True)
class Dictionary:
    """An n x p matrix of atoms with a declared column-norm cap gamma.

    The constructor enforces only shape and finiteness; norm bounds are
    checked by :func:`validate_dictionary`, which reports violations
    instead of throwing so that deliberately broken inputs can be probed.
    """

    atoms: np.ndarray
    gamma: float = 1.0

    def __post_init__(self):
        atoms = _as_matrix(self.atoms)
        if atoms.shape[0] < 1 or atoms.shape[1] < 1:
            raise ValueError(f"dictionary must be at least 1 x 1, got {atoms.shape}")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("dictionary entries must be finite")
        if not (float(self.gamma) >= 1.0):
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        atoms = atoms.copy()
        atoms.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "gamma", float(self.gamma))

    @property
    def n(self) -> int:
        return self.atoms.shape[0]

    @property
    def p(self) -> int:
        return self.atoms.shape[1]

    def column_norms(self) -> np.ndarray:
        return np.sqrt((self.atoms * self.atoms).sum(axis=0))


@dataclass(frozen=True)
class Signal:
    """A point in R^n; `unit` marks signals that must lie on the sphere."""

    values: np.ndarray
    unit: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError(f"signal must be a nonempty 1-d vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("signal entries must be finite")
        if self.unit and abs(float(np.linalg.norm(v)) - 1.0) > NORM_TOL:
            raise ValueError("signal flagged as unit-sphere has norm != 1")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class CoeffVector:
    """A coefficient vector together with its support.

    Entries off the support are exactly zero; the support is the set of
    atom indices a coder actually used.
    """

    values: np.ndarray
    support: tuple[int, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"coefficients must be 1-d, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("coefficients must be finite")
        support = tuple(sorted(int(i) for i in self.support))
        if len(set(support)) != len(support):
            raise ValueError("support indices must be distinct")
        if support and (support[0] < 0 or support[-1] >= v.size):
            raise ValueError("support index out of range")
        off = np.ones(v.size, dtype=bool)
        off[list(support)] = False
        if np.any(v[off] != 0.0):
            raise ValueError("entries off the support must be exactly zero")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "support", support)

    @classmethod
    def from_dense(cls, values) -> "CoeffVector":
        v = np.asarray(values, dtype=float)
        return cls(v, tuple(int(i) for i in np.flatnonzero(v != 0.0)))

    @property
    def l0(self) -> int:
        return len(self.support)

    @property
    def l1(self) -> float:
        return float(np.abs(self.values).sum())


@dataclass(frozen=True)
class HardK:
    """At most k nonzero coefficients."""

    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", as_count(self.k, "k"))


@dataclass(frozen=True)
class L1Ball:
    """Coefficient l1 norm at most lam (lam = 0 forces the zero vector)."""

    lam: float

    def __post_init__(self):
        if not (float(self.lam) >= 0.0) or not math.isfinite(float(self.lam)):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        object.__setattr__(self, "lam", float(self.lam))


SparsityConstraint = Union[HardK, L1Ball]


def validate_dictionary(d: Dictionary, normalized: bool = False) -> list[str]:
    """Return a list of violated dictionary invariants (empty means valid).

    With normalized=True every column norm must be within NORM_TOL of 1;
    otherwise norms must lie in [1 - NORM_TOL, gamma + NORM_TOL].
    """
    report: list[str] = []
    if not np.all(np.isfinite(d.atoms)):
        report.append("non-finite entries")
    norms = d.column_norms()
    if normalized:
        bad = np.flatnonzero(np.abs(norms - 1.0) > NORM_TOL)
        for i in bad:
            report.append(f"column {i}: norm {norms[i]:.12g} not within {NORM_TOL:g} of 1")
        return report
    low = np.flatnonzero(norms < 1.0 - NORM_TOL)
    high = np.flatnonzero(norms > d.gamma + NORM_TOL)
    for i in low:
        report.append(f"column {i}: norm {norms[i]:.12g} below 1")
    for i in high:
        report.append(f"column {i}: norm {norms[i]:.12g} above gamma={d.gamma:g}")
    return report


def sample_uniform_sphere(n: int, rng: np.random.Generator) -> Signal:
    """Draw one point uniformly from the unit sphere in R^n.

    The one-column case of :func:`uniform_sphere_matrix`: it consumes the
    same stream as one step of the per-draw loop described there.
    """
    return Signal(uniform_sphere_matrix(n, 1, rng)[:, 0], unit=True)


def uniform_sphere_matrix(n: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """n x p matrix whose columns are independent uniform unit-sphere draws.

    Each column is a standard Gaussian vector divided by its norm; draws
    with norm below 1e-12 are rejected and redrawn.  The p draws come in
    one block and rejected rows are replaced by further blocks.  The
    Generator fills sequentially, so the output bits and the generator's
    end state equal those of a loop drawing rng.standard_normal(n) until p
    draws are kept.
    """
    p = as_count(p, "column count p")
    n = as_count(n, "dimension n")
    rows = np.empty((p, n))
    kept = 0
    while kept < p:
        rng.standard_normal(out=rows[kept:])
        for row in rows[kept:]:
            # per-row norms: norm(axis=1) sums in a different order
            norm = float(np.linalg.norm(row))
            if norm >= 1e-12:
                np.divide(row, norm, out=rows[kept])
                kept += 1
    return np.ascontiguousarray(rows.T)


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Counter-derived RNG substream: substream(seed, i) is the i-th worker
    stream of a master seed, identical whether trials run serially or in
    parallel."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *[int(k) for k in key]]))


# ---------------------------------------------------------------------------
# File formats: a matrix is n lines of p comma-separated values (no header);
# a signal is a single such line.  An optional JSON sidecar <file>.json may
# carry {"n": ..., "p": ..., "gamma": ..., "normalized": ...}.
# ---------------------------------------------------------------------------


def _format_row(row: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in row)


def save_matrix(path, matrix) -> None:
    m = _as_matrix(matrix)
    lines = [_format_row(row) for row in m]
    Path(path).write_text("\n".join(lines) + "\n")


def load_matrix(path) -> np.ndarray:
    text = Path(path).read_text()
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([float(f) for f in line.split(",")])
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno} is not comma-separated floats") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged rows (expected {width} values per line)")
    return np.asarray(rows, dtype=float)


def save_dictionary(path, d: Dictionary) -> None:
    save_matrix(path, d.atoms)
    meta = {"n": d.n, "p": d.p, "gamma": d.gamma,
            "normalized": bool(np.all(np.abs(d.column_norms() - 1.0) <= NORM_TOL))}
    Path(str(path) + ".json").write_text(json.dumps(meta, sort_keys=True) + "\n")


def load_dictionary(path) -> Dictionary:
    atoms = load_matrix(path)
    meta_path = Path(str(path) + ".json")
    gamma = None
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        if "n" in meta and int(meta["n"]) != atoms.shape[0]:
            raise ValueError(f"{path}: sidecar n={meta['n']} but file has {atoms.shape[0]} rows")
        if "p" in meta and int(meta["p"]) != atoms.shape[1]:
            raise ValueError(f"{path}: sidecar p={meta['p']} but file has {atoms.shape[1]} columns")
        if "gamma" in meta:
            gamma = float(meta["gamma"])
    if gamma is None:
        gamma = max(1.0, float(np.sqrt((atoms * atoms).sum(axis=0)).max()))
    return Dictionary(atoms, gamma=gamma)


def load_signal(path) -> Signal:
    m = load_matrix(path)
    if m.shape[0] != 1:
        raise ValueError(f"{path}: a signal file must hold exactly one line, got {m.shape[0]}")
    return Signal(m[0])


def save_signal(path, x) -> None:
    save_matrix(path, as_vector(x)[None, :])
