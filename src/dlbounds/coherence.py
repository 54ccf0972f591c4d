"""Babel functions: cumulative coherence of a dictionary.

The order-k Babel value is the worst total correlation between any single
atom and any k other atoms,

    mu_k(D) = max_{|S| = k} max_{i not in S} sum_{j in S} |<d_j, d_i>|.

Order 1 is the usual coherence.  mu_k < 1 guarantees that every k-atom
subdictionary is close to orthogonal (Gershgorin), which is what makes
k-sparse coefficient norms controllable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .core import Dictionary, GuardExceededError, as_count, as_gram

# Enumerating subsets is allowed up to this many (subset, atom) pairs.
BRUTEFORCE_GUARD = 10**7


@dataclass(frozen=True)
class BabelValue:
    value: float


def babel_from_gram(gram: np.ndarray, k: int) -> BabelValue:
    """Order-k Babel value from a Gram matrix of atom inner products.

    For each atom i the worst subset S is just the k largest |G_ji| over
    j != i, so the exact value is a per-column partial sort, O(p^2 log p),
    instead of a subset enumeration.  Works for any inner product
    (kernelized atoms included) since only the Gram matrix enters.  The
    Gram is held to core's rule (as_gram): square and symmetric.
    """
    g = as_gram(gram, "gram")
    p = g.shape[0]
    k = as_count(k, "k", p - 1, "p-1")
    a = np.abs(g)
    # The diagonal must never enter a top-k selection; off-diagonals are >= 0
    # so -1 can never be picked while k <= p-1.
    np.fill_diagonal(a, -1.0)
    top = np.partition(a, p - k, axis=0)[p - k:, :]
    return BabelValue(float(top.sum(axis=0).max()))


def babel(d: Dictionary, k: int) -> BabelValue:
    """Order-k Babel value of a dictionary (fast partial-sort path)."""
    return babel_from_gram(d.atoms.T @ d.atoms, k)


def babel_bruteforce(d: Dictionary, k: int) -> BabelValue:
    """Reference implementation enumerating every size-k subset.

    Kept deliberately literal as an oracle for the fast path; refuses
    instances where C(p, k) * p exceeds BRUTEFORCE_GUARD.
    """
    p = d.p
    k = as_count(k, "k", p - 1, "p-1")
    if comb(p, k) * p > BRUTEFORCE_GUARD:
        raise GuardExceededError(
            f"C({p},{k}) * {p} = {comb(p, k) * p} exceeds guard {BRUTEFORCE_GUARD}"
        )
    g = np.abs(d.atoms.T @ d.atoms)
    best = 0.0
    for subset in combinations(range(p), k):
        cols = g[list(subset), :].sum(axis=0)
        for i in range(p):
            if i in subset:
                continue
            total = cols[i]
            if total > best:
                best = total
    return BabelValue(float(best))


def coherence(d: Dictionary) -> float:
    """Largest absolute correlation between two distinct atoms (mu_1)."""
    if d.p < 2:
        raise ValueError("coherence needs at least two atoms")
    return babel(d, 1).value
