"""Core types and small geometric utilities shared by every other module.

Dictionaries are real n x p matrices whose columns ("atoms") are the
building blocks of sparse representations.  Signals live in R^n and are
usually normalized to the unit sphere.  Column norms are allowed in
[1, gamma] with gamma >= 1; gamma = 1 is the normalized case.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np
# numpy loads its random module on first attribute access; every seeded
# run draws from it, so it is loaded with the library, not in the first draw
from numpy.random import SeedSequence, default_rng


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
# A Gram matrix may differ from its transpose by this much.
SYMMETRY_TOL = 1e-12
# A column (a sphere draw, a drawn signal or coefficient row, a learned atom)
# with norm below this is dead: it is redrawn, dropped or resampled.
DEAD_ATOM_TOL = 1e-12


def _as_array(values, name: str, ndim: int, rows: int | None) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.ndim != ndim or a.size == 0:
        raise ValueError(f"{name} must be a nonempty {ndim}-d array, got shape {a.shape}")
    if rows is not None and a.shape[0] != rows:
        raise ValueError(f"{name} must have dimension {rows}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def as_matrix(values, name: str, rows: int | None = None) -> np.ndarray:
    """The rule for every matrix the library is handed: a nonempty 2-d float
    array with finite entries and, when rows is given, that many rows (the
    dimension of its column signals).  Taken by np.asarray, so a float array
    comes back as itself, never copied or re-laid-out; name words the
    ValueError."""
    return _as_array(values, name, 2, rows)


def as_vector(values, name: str, rows: int | None = None) -> np.ndarray:
    """The matrix rule for one vector: a Signal's, a CoeffVector's or an
    array-like's values as a nonempty, finite 1-d float array of length rows
    when given.  It is made contiguous (numpy's products round a strided
    view differently)."""
    v = np.asarray(getattr(values, "values", values), dtype=float, order="C")
    return _as_array(v, name, 1, rows)


def as_gram(values, name: str, rows: int | None = None) -> np.ndarray:
    """The matrix rule for a Gram matrix: as_matrix, then square (rows x rows
    when rows is given) and symmetric to within SYMMETRY_TOL, since a Babel
    value read off its columns would otherwise depend on its orientation."""
    g = as_matrix(values, name, rows)
    if g.shape[1] != g.shape[0]:
        raise ValueError(f"{name} must be square, got shape {g.shape}")
    if np.abs(g - g.T).max() > SYMMETRY_TOL:
        raise ValueError(f"{name} must be symmetric to within {SYMMETRY_TOL:g}")
    return g


def _finite(value, name: str, floor: float = 0.0, strict: bool = True) -> float:
    """value as a float that is finite and above floor (or at it, when not
    strict); None, NaN and infinities raise ValueError."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        v = math.nan
    if not (math.isfinite(v) and (v > floor if strict else v >= floor)):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {floor:g} and finite, got {value!r}")
    return v


def _integer(value, name: str, floor: int) -> int:
    """value as an int >= floor; a non-integral value raises, never truncated by int()."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value or count < floor:
        raise ValueError(f"{name} must be an integer >= {floor}, got {value!r}")
    return count


def as_count(value, name: str, limit: int | None = None, limit_name: str = "p") -> int:
    """A positive integer count, at most limit when limit is given.  The one
    rule for every bounded count: k <= p atoms (min(n, p) for greedy
    pursuit), a Babel order k <= p - 1, a source's k_true <= p.  limit_name
    words the limit in the message, e.g. "k must satisfy 1 <= k <= p = 5,
    got 7"."""
    count = _integer(value, name, 1)
    if limit is not None and count > limit:
        raise ValueError(f"{name} must satisfy 1 <= {name} <= {limit_name} = {limit}, got {count}")
    return count


def as_seed(value, name: str = "seed") -> int:
    """The seed rule: every master seed, and every stream key a caller
    passes on to substream, is an integer >= 0, in as_count's wording."""
    return _integer(value, name, 0)


def _read_only(values) -> np.ndarray:
    """A float, C-contiguous copy of values with its write flag off: the
    array a frozen type holds, so no caller's later write can reach it."""
    a = np.array(values, dtype=float, order="C")
    a.flags.writeable = False
    return a


def me_norm(matrix) -> float:
    """Maximum Euclidean column norm of a matrix.

    This is the metric used for dictionary perturbations: it upper-bounds
    the induced l1 -> l2 operator norm, so ||M a||_2 <= me_norm(M) ||a||_1.
    """
    m = as_matrix(matrix, "matrix")
    return float(np.sqrt((m * m).sum(axis=0)).max())


@dataclass(frozen=True, eq=False)
class Dictionary:
    """An n x p matrix of atoms with a declared column-norm cap gamma.

    The constructor enforces only the matrix rule (as_matrix); norm bounds are
    checked by :func:`validate_dictionary`, which reports violations
    instead of throwing so that deliberately broken inputs can be probed.
    Equality and hashing are by identity.
    """

    atoms: np.ndarray
    gamma: float = 1.0

    def __post_init__(self):
        atoms = _read_only(as_matrix(self.atoms, "dictionary"))
        gamma = _finite(self.gamma, "gamma", 1.0, strict=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "gamma", gamma)

    @property
    def n(self) -> int:
        return self.atoms.shape[0]

    @property
    def p(self) -> int:
        return self.atoms.shape[1]

    def column_norms(self) -> np.ndarray:
        return np.sqrt((self.atoms * self.atoms).sum(axis=0))


@dataclass(frozen=True, eq=False)
class Signal:
    """A point in R^n; `unit` marks signals that must lie on the sphere.
    Equality and hashing are by identity."""

    values: np.ndarray
    unit: bool = False

    def __post_init__(self):
        v = as_vector(self.values, "signal")
        if self.unit and abs(float(np.linalg.norm(v)) - 1.0) > NORM_TOL:
            raise ValueError("signal flagged as unit-sphere has norm != 1")
        object.__setattr__(self, "values", _read_only(v))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True, eq=False)
class SignalBatch(Sequence):
    """m unit-norm signals in R^n, stored as the columns of one read-only
    n x m array (`values`), checked once by the matrix rule (as_matrix) and
    every column by Signal's unit-sphere test.  The array is a C-contiguous
    copy, since numpy's products round a strided matrix differently.  An
    integer index yields a Signal; a slice (or an index array) yields a
    SignalBatch of those columns, which must be nonempty.  Equality and
    hashing are by identity."""

    values: np.ndarray

    def __post_init__(self):
        v = as_matrix(_read_only(self.values), "signal batch")
        # einsum's column norms make no n x m temporary
        if np.any(np.abs(np.sqrt(np.einsum("ij,ij->j", v, v)) - 1.0) > NORM_TOL):
            raise ValueError("signal flagged as unit-sphere has norm != 1")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[1]

    def __getitem__(self, i) -> Union[Signal, "SignalBatch"]:
        cols = self.values[:, i]
        return Signal(cols, unit=True) if cols.ndim == 1 else SignalBatch(cols)


@dataclass(frozen=True, eq=False)
class CoeffVector:
    """A coefficient vector together with its support.

    Entries off the support are exactly zero; the support is the set of
    atom indices a coder actually used.  Equality and hashing are by
    identity.
    """

    values: np.ndarray
    support: tuple[int, ...]

    def __post_init__(self):
        v = as_vector(self.values, "coefficients")
        support = tuple(sorted(self.support))
        if support and (support[0] < 0 or support[-1] >= v.size):
            raise ValueError("support index out of range")
        support = tuple(_integer(i, "support index", 0) for i in support)
        if len(set(support)) != len(support):
            raise ValueError("support indices must be distinct")
        off = np.ones(v.size, dtype=bool)
        off[list(support)] = False
        if np.any(v[off] != 0.0):
            raise ValueError("entries off the support must be exactly zero")
        object.__setattr__(self, "values", _read_only(v))
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
        object.__setattr__(self, "lam", _finite(self.lam, "lam", strict=False))


SparsityConstraint = Union[HardK, L1Ball]


def _norm_report(values: np.ndarray, cap: float, label: str, cap_text: str) -> list[str]:
    """The norm rule: one line per value outside [1 - NORM_TOL, cap +
    NORM_TOL], in index order, "<label i> <value> below 1" or "... above
    <cap_text>"; label is a format string taking the index."""
    bad = np.flatnonzero((values < 1.0 - NORM_TOL) | (values > cap + NORM_TOL))
    return [f"{label.format(i)} {values[i]:.12g} " + ("below 1" if values[i] < 1.0 else f"above {cap_text}")
            for i in bad]


def validate_dictionary(d: Dictionary, normalized: bool = False) -> list[str]:
    """Return a list of violated dictionary invariants (empty means valid):
    one line per column whose norm lies outside [1 - NORM_TOL, gamma +
    NORM_TOL], or outside [1 - NORM_TOL, 1 + NORM_TOL] with normalized=True.
    Kernel dictionaries are held to the same report on their Gram diagonal
    (kernels.validate_kernel_dictionary).
    """
    cap, cap_text = (1.0, "1") if normalized else (d.gamma, f"gamma={d.gamma:g}")
    return _norm_report(d.column_norms(), cap, "column {}: norm", cap_text)


def sample_uniform_sphere(n: int, rng: np.random.Generator) -> Signal:
    """Draw one point uniformly from the unit sphere in R^n.

    The one-column case of :func:`uniform_sphere_matrix`: it consumes the
    same stream as one step of the per-draw loop described there.
    """
    return Signal(uniform_sphere_matrix(n, 1, rng)[:, 0], unit=True)


def uniform_sphere_matrix(n: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """n x p matrix whose columns are independent uniform unit-sphere draws.

    Each column is a standard Gaussian vector divided by its norm; draws
    with norm below DEAD_ATOM_TOL are rejected and redrawn.  Each try draws
    into one length-n buffer, divided into the next column once kept, so the
    output is the one n x p array made.  Its bits and the generator's end
    state are those of a loop of rng.standard_normal(n) until p are kept.
    """
    p, n = as_count(p, "column count p"), as_count(n, "dimension n")
    out, draw = np.empty((n, p)), np.empty(n)
    for column in out.T:
        norm = 0.0
        while norm < DEAD_ATOM_TOL:
            norm = float(np.linalg.norm(rng.standard_normal(out=draw)))
        np.divide(draw, norm, out=column)
    return out


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Counter-derived RNG substream: substream(seed, i) is the i-th worker
    stream of a master seed, identical whether trials run serially or in
    parallel.  The seed is held to as_seed, and SeedSequence refuses a key
    that is not an integer >= 0."""
    return default_rng(SeedSequence([as_seed(master_seed), *key]))


# ---------------------------------------------------------------------------
# File formats: a matrix is n lines of p comma-separated values (no header);
# a signal is a single such line.  An optional JSON sidecar <file>.json may
# carry {"n": ..., "p": ..., "gamma": ..., "normalized": ...}.
# ---------------------------------------------------------------------------


def _format_row(row: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in row)


def save_matrix(path, matrix) -> None:
    m = as_matrix(matrix, "matrix")
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
    save_matrix(path, as_vector(x, "signal")[None, :])
