import math

import numpy as np
import pytest

from dlbounds.coherence import (
    BRUTEFORCE_GUARD,
    babel,
    babel_bruteforce,
    babel_from_gram,
    coherence,
)
from dlbounds.core import Dictionary, GuardExceededError, substream, uniform_sphere_matrix


def random_dicts(count, n_max=6, p_max=8, seed=0):
    for i in range(count):
        rng = substream(seed, i)
        n = int(rng.integers(2, n_max + 1))
        p = int(rng.integers(2, p_max + 1))
        yield Dictionary(uniform_sphere_matrix(n, p, rng))


# ------------------------------------------------------------------ examples


def test_babel_orthonormal_is_zero():
    assert babel(Dictionary(np.eye(3)), 2).value == 0.0


def test_babel_repeated_atom():
    atoms = np.tile(np.array([[1.0], [0.0]]), (1, 3))
    assert babel(Dictionary(atoms), 2).value == pytest.approx(2.0)


def test_babel_mercedes_pair():
    root2 = math.sqrt(2.0)
    atoms = np.array([[1.0, 0.0, 1 / root2], [0.0, 1.0, 1 / root2]])
    d = Dictionary(atoms)
    assert babel(d, 1).value == pytest.approx(1 / root2)
    assert babel(d, 2).value == pytest.approx(root2)


def test_coherence_sixty_degrees():
    atoms = np.array([[1.0, 0.5], [0.0, math.sqrt(3) / 2]])
    assert coherence(Dictionary(atoms)) == pytest.approx(0.5)


def test_coherence_needs_two_atoms():
    with pytest.raises(ValueError, match="^coherence needs at least two atoms$"):
        coherence(Dictionary(np.eye(3)[:, :1]))


def test_babel_order_bounds():
    d = Dictionary(np.eye(3))
    with pytest.raises(ValueError):
        babel(d, 0)
    with pytest.raises(ValueError):
        babel(d, 3)


# ----------------------------------------------------------------- properties


def test_babel_matches_bruteforce_on_random_dicts():
    for d in random_dicts(200):
        for k in range(1, min(4, d.p - 1) + 1):
            fast = babel(d, k).value
            slow = babel_bruteforce(d, k).value
            assert fast == pytest.approx(slow, abs=1e-12)


def test_babel_monotone_in_k():
    for d in random_dicts(50, seed=1):
        values = [babel(d, k).value for k in range(1, d.p)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_babel_at_most_k_times_coherence():
    for d in random_dicts(50, seed=2):
        mu1 = coherence(d)
        for k in range(1, d.p):
            assert babel(d, k).value <= k * mu1 + 1e-12


def test_babel_invariant_to_permutation_and_sign():
    for i, d in enumerate(random_dicts(20, seed=3)):
        rng = substream(4, i)
        perm = rng.permutation(d.p)
        signs = rng.choice([-1.0, 1.0], size=d.p)
        d2 = Dictionary(d.atoms[:, perm] * signs)
        for k in range(1, d.p):
            assert babel(d2, k).value == pytest.approx(babel(d, k).value, abs=1e-12)


def test_babel_from_gram_matches_babel():
    for d in random_dicts(20, seed=5):
        gram = d.atoms.T @ d.atoms
        for k in range(1, d.p):
            assert babel_from_gram(gram, k).value == babel(d, k).value


def test_babel_from_gram_rejects_bad_shapes():
    with pytest.raises(ValueError):
        babel_from_gram(np.ones((2, 3)), 1)
    with pytest.raises(ValueError):
        babel_from_gram(np.ones((1, 1)), 1)


def test_bruteforce_guard():
    d = Dictionary(uniform_sphere_matrix(4, 40, substream(0, 0)))
    with pytest.raises(GuardExceededError):
        babel_bruteforce(d, 15)  # C(40,15)*40 far beyond the cap
    assert math.comb(40, 15) * 40 > BRUTEFORCE_GUARD
