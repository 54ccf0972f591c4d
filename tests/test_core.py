import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dlbounds.core import (
    CoeffVector,
    Dictionary,
    HardK,
    L1Ball,
    NORM_TOL,
    SYMMETRY_TOL,
    Signal,
    SignalBatch,
    as_gram,
    as_vector,
    load_dictionary,
    load_matrix,
    load_signal,
    me_norm,
    sample_uniform_sphere,
    save_dictionary,
    save_matrix,
    save_signal,
    substream,
    uniform_sphere_matrix,
    validate_dictionary,
)


# ---------------------------------------------------------------------- types


def test_dictionary_basic():
    d = Dictionary(np.eye(3))
    assert d.n == 3 and d.p == 3 and d.gamma == 1.0
    assert np.allclose(d.column_norms(), 1.0)


def test_dictionary_immutable():
    d = Dictionary(np.eye(2))
    with pytest.raises(ValueError):
        d.atoms[0, 0] = 5.0


def test_dictionary_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        Dictionary(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        Dictionary(np.ones(4))
    with pytest.raises(ValueError):
        Dictionary(np.array([[np.nan, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Dictionary(np.eye(2), gamma=0.5)


def test_signal_unit_flag():
    Signal(np.array([0.6, 0.8]), unit=True)
    with pytest.raises(ValueError):
        Signal(np.array([0.6, 0.9]), unit=True)
    # non-unit signals are fine when not flagged
    Signal(np.array([3.0, 4.0]))


def test_signal_batch_holds_read_only_columns():
    x = np.asfortranarray(uniform_sphere_matrix(4, 3, substream(7, 0)))
    batch = SignalBatch(x)
    assert len(batch) == 3 and batch.values.flags.c_contiguous
    assert np.array_equal(batch.values, x) and not np.shares_memory(batch.values, x)
    with pytest.raises(ValueError):
        batch.values[0, 0] = 5.0
    assert isinstance(batch[1], Signal) and batch[1].unit
    assert [s.values.tolist() for s in batch] == x.T.tolist()
    assert batch[-1].values.tolist() == x[:, 2].tolist()
    with pytest.raises(IndexError):
        batch[3]
    for part in (batch[1:], batch[::-2], batch[[2, 0]]):
        assert isinstance(part, SignalBatch) and part.values.flags.c_contiguous
    assert batch[1:].values.tolist() == x[:, 1:].tolist()
    assert batch[::-2].values.tolist() == x[:, [2, 0]].tolist()
    assert batch[[2, 0]].values.tolist() == x[:, [2, 0]].tolist()


def test_signal_batch_compares_by_identity():
    batch = SignalBatch(uniform_sphere_matrix(4, 3, substream(7, 2)))
    twin = SignalBatch(batch.values)
    assert batch == batch and batch != twin
    assert len({batch, twin, batch}) == 2
    # the array-holding value types follow the same rule, so == and hash
    # neither raise on their arrays nor compare contents
    for make in (lambda: Signal(np.array([0.6, 0.8])), lambda: Dictionary(np.eye(2)),
                 lambda: CoeffVector(np.array([0.0, 2.0]), (1,))):
        one, other = make(), make()
        assert one == one and one != other
        assert len({one, other, one}) == 2
    signal = batch[1]
    assert signal in [signal] and signal not in batch and batch.count(signal) == 0


@pytest.mark.parametrize("bad, scale, message", [
    (math.nan, 1.0, "{} must be finite"),
    (math.inf, 1.0, "{} must be finite"),
    (None, 1 + 1e-6, "signal flagged as unit-sphere has norm != 1"),
], ids=["nan", "inf", "off-sphere"])
def test_signal_batch_checks_like_signal(bad, scale, message):
    x = uniform_sphere_matrix(4, 3, substream(7, 1))
    x[:, 2] *= scale
    if bad is not None:
        x[1, 2] = bad
    for make, name in ((lambda: SignalBatch(x), "signal batch"),
                       (lambda: Signal(x[:, 2], unit=True), "signal")):
        with pytest.raises(ValueError, match=f"^{message.format(name)}$"):
            make()


@pytest.mark.parametrize("shape", [(3,), (2, 3, 1), (0, 3), (3, 0)])
def test_signal_batch_rejects_shapes(shape):
    with pytest.raises(ValueError, match=r"^signal batch must be a nonempty 2-d array, got shape"):
        SignalBatch(np.ones(shape))


def test_coeff_vector_support_consistency():
    c = CoeffVector(np.array([1.0, 0.0, -2.0]), (0, 2))
    assert c.l0 == 2
    assert c.l1 == pytest.approx(3.0)
    with pytest.raises(ValueError):
        CoeffVector(np.array([1.0, 0.5, 0.0]), (0,))  # nonzero off support


@pytest.mark.parametrize("support, message", [
    ((0, 0), "support indices must be distinct"),
    ((0, 3), "support index out of range"),
    ((-1, 0), "support index out of range"),
])
def test_coeff_vector_refuses_bad_supports(support, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CoeffVector(np.array([1.0, 0.0, 0.0]), support)


def test_coeff_vector_from_dense():
    c = CoeffVector.from_dense([0.0, 1.5, 0.0, -0.5])
    assert c.support == (1, 3)


def test_constraints_validate():
    assert HardK(2).k == 2
    assert L1Ball(0.5).lam == 0.5
    with pytest.raises(ValueError):
        HardK(0)
    with pytest.raises(ValueError):
        L1Ball(-1.0)


# -------------------------------------------------------------------- me_norm


def test_me_norm_examples():
    assert me_norm(np.eye(2)) == 1.0
    m = np.array([[0.6, 1.2], [0.8, 1.6]])
    assert me_norm(m) == pytest.approx(2.0)


def test_me_norm_errors():
    with pytest.raises(ValueError):
        me_norm(np.zeros((2, 0)))
    with pytest.raises(ValueError):
        me_norm(np.array([[np.inf, 0.0]]))


def test_me_norm_matches_per_column_recompute():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 7))
    assert me_norm(m) == pytest.approx(max(np.linalg.norm(m[:, j]) for j in range(7)), abs=1e-14)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_me_norm_dominates_l1_to_l2(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((4, 6)) * rng.uniform(0.1, 10)
    a = rng.standard_normal(6)
    assert np.linalg.norm(m @ a) <= me_norm(m) * np.abs(a).sum() + 1e-12


def test_me_norm_is_a_norm():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b = rng.standard_normal((2, 3, 4))
        c = rng.uniform(-5, 5)
        assert me_norm(a - a) == 0.0
        assert me_norm(a + b) <= me_norm(a) + me_norm(b) + 1e-12
        assert me_norm(c * a) == pytest.approx(abs(c) * me_norm(a), abs=1e-12)


# ------------------------------------------------------------------ validate


def test_gram_rule_requires_square_and_symmetric():
    g = np.eye(3)
    assert as_gram(g, "gram", 3) is g  # never copied
    g[0, 1] = SYMMETRY_TOL / 2  # asymmetry within the tolerance passes
    assert as_gram(g, "gram") is g
    with pytest.raises(ValueError, match=r"^gram must be square, got shape \(3, 2\)$"):
        as_gram(np.ones((3, 2)), "gram")
    with pytest.raises(ValueError, match=r"^gram must have dimension 2, got shape \(3, 3\)$"):
        as_gram(g, "gram", 2)
    g[0, 1] = 2 * SYMMETRY_TOL
    with pytest.raises(ValueError, match="^gram must be symmetric to within 1e-12$"):
        as_gram(g, "gram")


def test_validate_dictionary_reports():
    assert validate_dictionary(Dictionary(np.eye(3)), normalized=True) == []
    atoms = np.eye(3)
    atoms[:, 1] = 0.0  # constructor only checks finiteness, not norms
    report = validate_dictionary(Dictionary(atoms))
    assert any("below" in line for line in report)
    report = validate_dictionary(Dictionary(np.eye(3) * 2.0))
    assert any("above" in line for line in report)


def test_validate_dictionary_tolerance():
    atoms = np.eye(3) * (1.0 + 1e-12)
    assert validate_dictionary(Dictionary(atoms), normalized=True) == []


# ------------------------------------------------------------------- sampling


def test_sphere_n1_is_sign():
    for i in range(10):
        s = sample_uniform_sphere(1, substream(0, i))
        assert abs(s.values[0]) == pytest.approx(1.0, abs=1e-12)


def test_sphere_unit_norm_and_deterministic():
    a = sample_uniform_sphere(3, np.random.default_rng(7))
    b = sample_uniform_sphere(3, np.random.default_rng(7))
    assert np.array_equal(a.values, b.values)
    assert np.linalg.norm(a.values) == pytest.approx(1.0, abs=1e-12)


def test_sphere_coordinate_means_vanish():
    rng = np.random.default_rng(3)
    draws = uniform_sphere_matrix(50, 10**4, rng)
    assert np.abs(draws.mean(axis=1)).max() < 4.0 / math.sqrt(10**4)


def test_uniform_sphere_matrix_columns_unit():
    m = uniform_sphere_matrix(6, 40, np.random.default_rng(2))
    assert np.abs(np.linalg.norm(m, axis=0) - 1.0).max() < 1e-12


def _sphere_loop_reference(n, p, rng):
    """The per-draw sampler: one standard_normal(n) per try, rejecting
    norms below 1e-12, columns stacked at the end."""
    cols = []
    while len(cols) < p:
        g = rng.standard_normal(n)
        norm = float(np.linalg.norm(g))
        if norm >= 1e-12:
            cols.append(g / norm)
    return np.column_stack(cols)


def _assert_same_draws(n, p, make_rng):
    ref_rng, rng = make_rng(), make_rng()
    ref = _sphere_loop_reference(n, p, ref_rng)
    out = uniform_sphere_matrix(n, p, rng)
    assert out.shape == ref.shape and out.flags.c_contiguous
    assert out.tobytes() == ref.tobytes(), (n, p)
    assert rng.standard_normal(n).tobytes() == ref_rng.standard_normal(n).tobytes(), (n, p)


def test_uniform_sphere_matrix_is_the_per_draw_stream():
    cases = np.random.default_rng(2024)
    shapes = [(1, 1, 0), (1, 30, 1), (40, 1, 2), (5000, 10, 3)]
    shapes += [(int(cases.integers(1, 100)), int(cases.integers(1, 40)), int(cases.integers(2**31)))
               for _ in range(96)]
    for n, p, seed in shapes:
        _assert_same_draws(n, p, lambda: np.random.default_rng(seed))
    for seed in range(5):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert sample_uniform_sphere(7, a).values.tobytes() == _sphere_loop_reference(7, 1, b)[:, 0].tobytes()
        assert a.standard_normal() == b.standard_normal()


class _ZeroingRng:
    """A Generator stream whose chosen n-blocks (0-based, counted across
    calls) are zeroed, so the sampler must reject exactly those draws."""

    def __init__(self, seed, n, zero):
        self._rng = np.random.default_rng(seed)
        self._n, self._zero, self._blocks = n, set(zero), 0

    def standard_normal(self, size=None, out=None):
        values = self._rng.standard_normal(size, out=out)
        blocks = values.reshape(-1, self._n)  # a view: zeroing writes through
        for j in range(len(blocks)):
            if self._blocks + j in self._zero:
                blocks[j] = 0.0
        self._blocks += len(blocks)
        return values


@pytest.mark.parametrize("zero", [(0,), (3,), (2, 3), (5,), (5, 6), (0, 1, 2, 3, 4, 5)],
                         ids=["first", "middle", "two-in-a-row", "last", "last-and-redraw", "all"])
def test_uniform_sphere_matrix_rejects_like_the_loop(zero):
    n, p = 4, 6
    rng = _ZeroingRng(11, n, zero)
    assert np.abs(np.linalg.norm(_sphere_loop_reference(n, p, rng), axis=0) - 1.0).max() < 1e-12
    assert rng._blocks == p + len(zero)  # the stub really forced the rejections
    _assert_same_draws(n, p, lambda: _ZeroingRng(11, n, zero))


@pytest.mark.parametrize("n, p, match", [(0, 3, "dimension"), (3, 0, "column"), (0, 0, "column")])
def test_uniform_sphere_matrix_checks_before_drawing(n, p, match):
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=match):
        uniform_sphere_matrix(n, p, rng)
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError, match="dimension"):
        sample_uniform_sphere(0, rng)
    assert rng.bit_generator.state == state


def test_substream_keys_independent_of_order():
    a = substream(5, 3).standard_normal(4)
    b = substream(5, 3).standard_normal(4)
    c = substream(5, 4).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ------------------------------------------------------------------- file IO


def test_matrix_roundtrip_exact(tmp_path):
    m = np.random.default_rng(0).standard_normal((4, 3))
    path = tmp_path / "m.csv"
    save_matrix(path, m)
    assert np.array_equal(load_matrix(path), m)  # repr() round-trips doubles
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")  # a blank line is skipped
    assert np.array_equal(load_matrix(path), m)


def test_matrix_rejects_ragged_and_empty(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError):
        load_matrix(path)
    path.write_text("")
    with pytest.raises(ValueError):
        load_matrix(path)


def test_matrix_refuses_a_line_that_is_not_floats(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n\n3.0,x\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3 is not comma-separated floats$"):
        load_matrix(path)


def test_dictionary_roundtrip_with_sidecar(tmp_path):
    d = Dictionary(uniform_sphere_matrix(4, 6, np.random.default_rng(1)))
    path = tmp_path / "d.csv"
    save_dictionary(path, d)
    loaded = load_dictionary(path)
    assert np.array_equal(loaded.atoms, d.atoms)
    assert loaded.gamma == d.gamma
    assert (tmp_path / "d.csv.json").exists()


@pytest.mark.parametrize("field, value, message", [
    ("n", 5, "sidecar n=5 but file has 4 rows"),
    ("p", 7, "sidecar p=7 but file has 6 columns"),
])
def test_dictionary_refuses_a_sidecar_that_does_not_match(tmp_path, field, value, message):
    path = tmp_path / "d.csv"
    save_dictionary(path, Dictionary(uniform_sphere_matrix(4, 6, np.random.default_rng(1))))
    sidecar = tmp_path / "d.csv.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), field: value}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
        load_dictionary(path)


def test_dictionary_load_without_sidecar(tmp_path):
    path = tmp_path / "d.csv"
    save_matrix(path, np.eye(3) * 1.5)
    loaded = load_dictionary(path)
    assert loaded.gamma == pytest.approx(1.5)


def test_signal_roundtrip(tmp_path):
    x = Signal(np.array([0.6, 0.8]), unit=True)
    path = tmp_path / "x.csv"
    save_signal(path, x)
    assert np.array_equal(load_signal(path).values, x.values)


def test_signal_rejects_multiline(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1.0,0.0\n0.0,1.0\n")
    with pytest.raises(ValueError):
        load_signal(path)


def test_as_vector_coerces():
    assert np.array_equal(as_vector(Signal(np.array([1.0, 2.0])), "x"), [1.0, 2.0])
    with pytest.raises(ValueError):
        as_vector(np.eye(2), "x")
