import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist  # the oracle for _sq_distances

from dlbounds.bounds import BoundInputs, l1_generalization_bound, slow_rate_generic
from dlbounds.coders import greedy_ksparse
from dlbounds.coherence import babel, babel_from_gram
from dlbounds.core import (
    CoeffVector,
    Dictionary,
    InapplicableError,
    substream,
    uniform_sphere_matrix,
)
from dlbounds.kernels import (
    KERNEL_VARIANTS,
    KernelDictionary,
    KernelFn,
    PSD_QUAD_FLOOR,
    _sq_distances,
    feature_babel,
    gaussian_kernel,
    gram_matrix,
    holder_feature_check,
    kernel_cover_log,
    kernel_from_name,
    kernel_gen_bound,
    kernel_greedy_ksparse,
    kernel_repr_error,
    linear_kernel,
    polynomial_kernel,
    validate_kernel,
    validate_kernel_dictionary,
)


def sphere_points(p, n, seed):
    return uniform_sphere_matrix(n, p, substream(seed, 0)).T  # points as rows


# ------------------------------------------------------------------ kernels


def test_linear_kernel_is_dot():
    kf = linear_kernel()
    assert kf([1.0, 2.0], [3.0, -1.0]) == pytest.approx(1.0)
    assert kf.smoothness == (1.0, 1.0)


def distance_tol(xs, ys):
    """3 (n + 2) eps (|x|^2 + |y|^2): _sq_distances' rounding bound, (n + 2) eps
    times that scale, plus cdist's own, at most twice as much since
    |x - y|^2 <= 2 (|x|^2 + |y|^2)."""
    scale = (xs ** 2).sum(1)[:, None] + (ys ** 2).sum(1)
    return 3 * (xs.shape[1] + 2) * np.finfo(float).eps * scale


@pytest.mark.parametrize("n", [1, 2, 16, 64, 1000, 5000])
def test_sq_distances_of_equal_rows_are_exactly_zero(n):
    rng = np.random.default_rng(n)
    xs = np.logspace(-2, 2, 5)[:, None] * rng.standard_normal((5, n))  # row scales 1e-2..1e2
    for i, x in enumerate(xs):
        assert _sq_distances(x[None], x[None]).tolist() == [[0.0]]  # 1 x 1
        assert _sq_distances(x[None], xs)[0, i] == 0.0  # 1 x b
    repeats = xs[[0, 2, 0, 4, 2, 1]]
    for ys in (xs, repeats):  # a x b, each row of xs once, or some twice
        got = _sq_distances(xs, ys)
        assert np.array_equal(got == 0.0, cdist(xs, ys, "sqeuclidean") == 0.0)
        assert np.count_nonzero(got == 0.0) == len(ys)
        assert np.all(np.abs(got - cdist(xs, ys, "sqeuclidean")) <= distance_tol(xs, ys))


@settings(max_examples=80, deadline=None)
@given(a=st.integers(1, 4), b=st.integers(1, 4), n=st.integers(1, 40), exponent=st.integers(-2, 2),
       layout=st.sampled_from(["random", "near", "repeat"]), seed=st.integers(0, 2**32 - 1))
def test_sq_distances_match_cdist(a, b, n, exponent, layout, seed):
    rng = np.random.default_rng(seed)
    xs = 10.0 ** exponent * rng.standard_normal((a, n))
    ys = xs[rng.integers(a, size=b)]  # rows that repeat inside one block
    if layout == "random":
        ys = 10.0 ** exponent * rng.standard_normal((b, n))
    elif layout == "near":  # each y within about 1e-8 times the scale of a row of xs
        ys = ys + 1e-8 * 10.0 ** exponent * rng.standard_normal((b, n))
    got, want = _sq_distances(xs, ys), cdist(xs, ys, "sqeuclidean")
    assert np.all(np.abs(got - want) <= distance_tol(xs, ys))
    assert np.all(got >= 0.0)  # a negative rounding residue is within the bound, so recomputed
    if layout == "repeat":
        assert np.array_equal(got == 0.0, want == 0.0)


def test_gaussian_kernel_values():
    kf = gaussian_kernel(0.5)
    x = np.array([0.3, -0.4])
    assert kf(x, x) == pytest.approx(1.0)
    y = np.array([0.3, 0.6])
    assert kf(x, y) == pytest.approx(math.exp(-1.0 / (2 * 0.25)))
    assert kf.smoothness == (math.exp(-0.5) / 0.5, 1.0)
    with pytest.raises(ValueError):
        gaussian_kernel(0.0)


def test_polynomial_kernel_values():
    kf = polynomial_kernel(3)
    assert kf([1.0, 0.0], [1.0, 0.0]) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        polynomial_kernel(0)


def test_kernel_from_name():
    assert kernel_from_name("linear").name == "linear"
    assert kernel_from_name("gaussian:0.7").name == "gaussian:0.7"
    assert kernel_from_name("poly:3").name == "poly:3"
    for bad in ("gaussian", "poly", "poly:x", "gaussian:-1", "linear:2", "rbf"):
        with pytest.raises(ValueError):
            kernel_from_name(bad)


@pytest.mark.parametrize("kf", [linear_kernel(), gaussian_kernel(1.0), polynomial_kernel(3)],
                         ids=["linear", "gaussian", "poly"])
def test_gram_matrix_matches_pairwise(kf):
    pts = sphere_points(5, 3, seed=0)
    g = gram_matrix(kf, pts)
    assert g.shape == (5, 5)
    assert np.array_equal(g, g.T)
    for i, j in itertools.product(range(5), repeat=2):
        assert g[i, j] == pytest.approx(kf(pts[i], pts[j]), abs=1e-15)
    block = kf.fn(pts[:3], pts)
    assert block.shape == (3, 5)
    for i, j in itertools.product(range(3), range(5)):
        assert block[i, j] == pytest.approx(kf(pts[i], pts[j]), abs=1e-15)


def test_non_pairwise_kernel_is_rejected():
    # a row-wise kernel returns shape (p,), which would broadcast into a
    # constant Gram matrix if the block shape went unchecked
    kf = KernelFn(fn=lambda xs, ys: np.exp(-((xs - ys) ** 2).sum(-1)), name="rowwise")
    pts = sphere_points(4, 3, seed=0)
    with pytest.raises(ValueError, match="pairwise block"):
        gram_matrix(kf, pts)
    with pytest.raises(ValueError, match="pairwise block"):
        validate_kernel(kf, pts)
    kd = KernelDictionary.build(pts, gaussian_kernel(1.0))
    with pytest.raises(ValueError, match="pairwise block"):
        kernel_greedy_ksparse(pts[0], kd, kf, 1)


def test_validate_kernel_accepts_shipped_kernels():
    pts = sphere_points(6, 4, seed=1)
    for kf in (linear_kernel(), gaussian_kernel(0.7), polynomial_kernel(2)):
        assert validate_kernel(kf, pts) == []


def test_validate_kernel_flags_asymmetry():
    kf = KernelFn(fn=lambda xs, ys: xs[:, :1] - 2 * ys[:, :1].T, name="asym")
    report = validate_kernel(kf, sphere_points(3, 2, seed=2))
    assert any("asymmetry" in line for line in report)


def test_validate_kernel_flags_indefinite():
    kf = KernelFn(fn=lambda xs, ys: np.where((xs[:, None] == ys[None]).all(-1), 1.0, -1.0),
                  name="bad")
    report = validate_kernel(kf, sphere_points(3, 2, seed=3))
    assert any("eigenvalue" in line for line in report)


def test_validate_kernel_floor_is_the_psd_floor():
    # the Gram's least eigenvalue is its least unit quadratic form, held to
    # the floor of every squared feature error
    pts = sphere_points(2, 3, seed=4)
    for least, report in ((PSD_QUAD_FLOOR / 2, []),
                          (2 * PSD_QUAD_FLOOR, ["Gram min eigenvalue -2e-08 below -1e-08"])):
        kf = KernelFn(fn=lambda xs, ys, least=least: np.diag([1.0, least]), name="fixed")
        assert validate_kernel(kf, pts) == report


# --------------------------------------------------------------- dictionary


def test_kernel_dictionary_build_and_validate():
    pts = sphere_points(4, 3, seed=4)
    kd = KernelDictionary.build(pts, gaussian_kernel(1.0))
    assert kd.p == 4
    assert np.array_equal(kd.gram, gram_matrix(gaussian_kernel(1.0), pts))
    assert validate_kernel_dictionary(kd) == []
    with pytest.raises(ValueError):
        kd.gram[0, 0] = 2.0  # frozen


def test_kernel_dictionary_diag_outside_range_reported():
    pts = 0.5 * sphere_points(3, 3, seed=5)  # linear kernel diag 0.25
    kd = KernelDictionary.build(pts, linear_kernel())
    assert any("below 1" in line for line in validate_kernel_dictionary(kd))
    kd_big = KernelDictionary.build(sphere_points(3, 3, seed=5), polynomial_kernel(2))
    assert any("above" in line for line in validate_kernel_dictionary(kd_big))
    ok = KernelDictionary.build(sphere_points(3, 3, seed=5), polynomial_kernel(2), gamma=2.0)
    assert validate_kernel_dictionary(ok) == []


def test_kernel_dictionary_shape_and_gamma_errors():
    pts = sphere_points(3, 2, seed=6)
    with pytest.raises(ValueError):
        KernelDictionary(points=pts, gram=np.eye(2))
    with pytest.raises(ValueError):
        KernelDictionary(points=pts, gram=np.eye(3), gamma=0.5)


# --------------------------------------------------------------- repr error


def test_kernel_repr_error_zero_coeffs():
    pts = sphere_points(4, 3, seed=7)
    kd = KernelDictionary.build(pts, gaussian_kernel(1.0))
    x = uniform_sphere_matrix(3, 1, substream(7, 1))[:, 0]
    err = kernel_repr_error(x, np.zeros(4), kd, gaussian_kernel(1.0))
    assert err == pytest.approx(1.0)  # sqrt(kappa(x, x)) = 1 for gaussian


def test_kernel_repr_error_self_representation():
    pts = sphere_points(4, 3, seed=8)
    coeffs = CoeffVector(np.array([0.0, 1.0, 0.0, 0.0]), (1,))
    for kf in (linear_kernel(), gaussian_kernel(0.7), polynomial_kernel(2)):
        kd = KernelDictionary.build(pts, kf, gamma=4.0)
        assert kernel_repr_error(pts[1], coeffs, kd, kf) == pytest.approx(0.0, abs=1e-7)


def test_kernel_repr_error_linear_reduction():
    for i in range(20):
        pts = sphere_points(6, 4, seed=100 + i)
        kd = KernelDictionary.build(pts, linear_kernel())
        x = uniform_sphere_matrix(4, 1, substream(9, i))[:, 0]
        dense = np.zeros(6)
        dense[[0, 3, 5]] = substream(10, i).uniform(-1, 1, 3)
        euclid = np.linalg.norm(pts.T @ dense - x)
        assert kernel_repr_error(x, dense, kd, linear_kernel()) == pytest.approx(
            euclid, abs=1e-10)


def test_kernel_repr_error_psd_floor():
    kf = KernelFn(fn=lambda xs, ys: -(xs @ ys.T), name="neg")
    pts = np.array([[1.0, 0.0]])
    kd = KernelDictionary(points=pts, gram=np.array([[-1.0]]))
    with pytest.raises(ValueError):
        kernel_repr_error(np.array([1.0, 0.0]), np.zeros(1), kd, kf)


def test_kernel_repr_error_rejects_non_finite_coeffs():
    # dense coefficients follow CoeffVector's rule, as a CoeffVector does
    pts = sphere_points(4, 3, seed=11)
    kd = KernelDictionary.build(pts, linear_kernel())
    x = uniform_sphere_matrix(3, 1, substream(11, 1))[:, 0]
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            kernel_repr_error(x, np.array([0.5, bad, 0.0, 0.0]), kd, linear_kernel())


def test_kernel_repr_error_dimension_checks():
    pts = sphere_points(3, 2, seed=11)
    kd = KernelDictionary.build(pts, linear_kernel())
    with pytest.raises(ValueError):
        kernel_repr_error(np.ones(2), np.zeros(5), kd, linear_kernel())


def test_kernel_coders_reject_bad_signals():
    pts = sphere_points(4, 3, seed=11)
    for kf, bad in ((linear_kernel(), [np.nan, 0.2, 0.1]), (gaussian_kernel(1.0), [np.inf, 0.0, 0.0])):
        kd = KernelDictionary.build(pts, kf)
        with pytest.raises(ValueError, match="finite"):
            kernel_repr_error(np.array(bad), np.zeros(4), kd, kf)
        with pytest.raises(ValueError, match="finite"):
            kernel_greedy_ksparse(np.array(bad), kd, kf, 2)
        with pytest.raises(ValueError, match="dimension"):
            kernel_repr_error(np.ones(4), np.zeros(4), kd, kf)
        with pytest.raises(ValueError, match="dimension"):
            kernel_greedy_ksparse(np.ones(2), kd, kf, 2)


# ------------------------------------------------------------------- greedy


def test_kernel_greedy_axis_example():
    kd = KernelDictionary.build(np.eye(2), linear_kernel())
    res = kernel_greedy_ksparse(np.array([0.8, 0.6]), kd, linear_kernel(), 1)
    assert res.coeffs.values == pytest.approx([0.8, 0.0])
    assert res.error == pytest.approx(0.6, abs=1e-12)


def test_kernel_greedy_recovers_dictionary_point():
    pts = sphere_points(5, 4, seed=12)
    for kf in (linear_kernel(), gaussian_kernel(0.8), polynomial_kernel(2)):
        kd = KernelDictionary.build(pts, kf, gamma=2.0)
        res = kernel_greedy_ksparse(pts[2], kd, kf, 1)
        assert res.error == pytest.approx(0.0, abs=1e-7)
        assert res.coeffs.support == (2,)


def test_kernel_greedy_matches_euclidean_greedy():
    for i in range(20):
        pts = sphere_points(7, 5, seed=200 + i)
        kd = KernelDictionary.build(pts, linear_kernel())
        d = Dictionary(pts.T)
        x = uniform_sphere_matrix(5, 1, substream(13, i))[:, 0]
        for k in (1, 3):
            kres = kernel_greedy_ksparse(x, kd, linear_kernel(), k)
            eres = greedy_ksparse(d, x, k)
            assert kres.coeffs.support == eres.coeffs.support
            assert kres.coeffs.values == pytest.approx(eres.coeffs.values, abs=1e-10)
            assert kres.error == pytest.approx(eres.error, abs=1e-10)


def test_kernel_greedy_error_nonincreasing_in_k():
    pts = sphere_points(6, 4, seed=14)
    kf = gaussian_kernel(0.6)
    kd = KernelDictionary.build(pts, kf)
    x = uniform_sphere_matrix(4, 1, substream(14, 1))[:, 0]
    # greedy supports are nested, so the k-sweep reproduces the round trace
    errs = [kernel_greedy_ksparse(x, kd, kf, k).error for k in range(1, 7)]
    assert all(b <= a + 1e-10 for a, b in zip(errs, errs[1:]))


def test_kernel_greedy_k_range():
    kd = KernelDictionary.build(np.eye(2), linear_kernel())
    with pytest.raises(ValueError):
        kernel_greedy_ksparse(np.ones(2), kd, linear_kernel(), 0)
    with pytest.raises(ValueError):
        kernel_greedy_ksparse(np.ones(2), kd, linear_kernel(), 3)


# ------------------------------------------------------------ feature babel


def test_asymmetric_gram_is_rejected_in_either_orientation():
    # Babel values read off an asymmetric Gram's columns depend on its
    # orientation: order 2 would be 0.4 on g and 0.8 on g.T
    g = np.eye(4)
    g[0, 1:] = 0.4
    for gram in (g, g.T):
        with pytest.raises(ValueError, match="^gram must be symmetric"):
            KernelDictionary(np.eye(4), gram)
        with pytest.raises(ValueError, match="^gram must be symmetric"):
            babel_from_gram(gram, 2)


def test_feature_babel_linear_matches_euclidean():
    pts = sphere_points(6, 4, seed=15)
    kd = KernelDictionary.build(pts, linear_kernel())
    d = Dictionary(pts.T)
    for k in range(1, 6):
        assert feature_babel(kd, k).value == pytest.approx(babel(d, k).value, abs=1e-12)


def test_feature_babel_distant_gaussians_vanish():
    pts = np.array([[0.0, 0.0], [1000.0, 0.0]])
    kd = KernelDictionary.build(pts, gaussian_kernel(1.0))
    assert feature_babel(kd, 1).value < 1e-300


def test_feature_babel_gaussian_range_and_monotone():
    pts = sphere_points(6, 3, seed=16)
    kd = KernelDictionary.build(pts, gaussian_kernel(0.9))
    values = [feature_babel(kd, k).value for k in range(1, 6)]
    for k, v in zip(range(1, 6), values):
        assert 0.0 <= v <= k
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_feature_babel_matches_subset_enumeration():
    pts = sphere_points(5, 3, seed=17)
    kd = KernelDictionary.build(pts, gaussian_kernel(0.8))
    g = np.abs(kd.gram)
    best = 0.0
    for subset in itertools.combinations(range(5), 2):
        for i in range(5):
            if i in subset:
                continue
            best = max(best, sum(g[j, i] for j in subset))
    assert feature_babel(kd, 2).value == pytest.approx(best, abs=1e-12)


# ------------------------------------------------------------ holder checks


def test_holder_identical_pair_is_tight_zero():
    x = np.array([0.3, 0.4])
    assert holder_feature_check(gaussian_kernel(1.0), [(x, x)]) == 0.0


@pytest.mark.parametrize("kf", [linear_kernel(), gaussian_kernel(0.7), polynomial_kernel(3)])
def test_holder_shipped_kernels_on_unit_ball(kf):
    rng = substream(18, 0)
    pairs = []
    for _ in range(500):
        x = rng.standard_normal(4)
        x *= rng.uniform(0, 1) / np.linalg.norm(x)
        y = rng.standard_normal(4)
        y *= rng.uniform(0, 1) / np.linalg.norm(y)
        pairs.append((x, y))
    assert holder_feature_check(kf, pairs) <= 1e-8


def test_holder_rejects_non_finite_pairs():
    # a NaN violation would be dropped by max() and read as "consistent"
    x = np.array([0.3, 0.4])
    for pair in ((x, np.array([np.nan, 0.0])), (np.array([0.1, np.inf]), x)):
        with pytest.raises(ValueError, match="finite"):
            holder_feature_check(gaussian_kernel(1.0), [(x, x), pair])
    with pytest.raises(ValueError, match="dimension"):
        holder_feature_check(gaussian_kernel(1.0), [(x, np.zeros(3))])


def test_holder_requires_metadata():
    bare = KernelFn(fn=lambda xs, ys: xs @ ys.T, name="bare")
    with pytest.raises(ValueError):
        holder_feature_check(bare, [(np.zeros(2), np.ones(2))])
    with pytest.raises(ValueError):
        holder_feature_check(linear_kernel(), [])


def test_holder_check_takes_one_kernel_block_per_pair():
    # a pair's feature distance comes from one 2 x 2 block, and agrees with
    # the one read off three scalar kernel calls
    gauss = gaussian_kernel(0.8)
    shapes = []
    kf = KernelFn(fn=lambda xs, ys: shapes.append((xs.shape, ys.shape)) or gauss.fn(xs, ys),
                  name="counted", smoothness=gauss.smoothness)
    rng = substream(18, 1)
    pairs = [(rng.standard_normal(4) / 3, rng.standard_normal(4) / 3) for _ in range(7)]
    worst = holder_feature_check(kf, pairs)
    assert shapes == [((2, 4), (2, 4))] * 7
    hol_l, hol_a = gauss.smoothness
    scalar = max(math.sqrt(gauss(x, x) - 2 * gauss(x, y) + gauss(y, y))
                 - math.sqrt(2 * hol_l) * np.linalg.norm(x - y) ** (hol_a / 2) for x, y in pairs)
    assert worst == pytest.approx(scalar, abs=1e-12)


def test_holder_check_holds_pairs_to_the_psd_floor():
    # the floor and message of kernel_repr_error's squared error
    kf = KernelFn(fn=lambda xs, ys: -(xs @ ys.T), name="neg", smoothness=(1.0, 1.0))
    with pytest.raises(ValueError, match=r"^squared error -1 below PSD floor -1e-08; kernel is not "
                                         r"positive semidefinite on these points$"):
        holder_feature_check(kf, [(np.array([1.0, 0.0]), np.zeros(2))])


# -------------------------------------------------------------- cover sizes


def test_kernel_cover_log_unit_case():
    assert kernel_cover_log(3, 4, 1.0, cover_c=1.0, holder_l=1.0, holder_alpha=1.0,
                            lam=1.0) == 0.0


def test_kernel_cover_log_hand_value():
    value = kernel_cover_log(2, 2, 1.0, cover_c=4.0, holder_l=1.0, holder_alpha=1.0,
                             gamma=1.0, k=1, delta=0.0)
    assert value == pytest.approx(4 * math.log(4), abs=1e-12)


def test_kernel_cover_log_alpha_halving_doubles():
    kwargs = dict(cover_c=1.0, holder_l=2.0, gamma=1.0, lam=3.0)
    full = kernel_cover_log(2, 3, 0.5, holder_alpha=1.0, **kwargs)
    half = kernel_cover_log(2, 3, 0.5, holder_alpha=0.5, **kwargs)
    assert half == pytest.approx(2 * full, rel=1e-12)


def test_kernel_cover_log_family_selection():
    with pytest.raises(ValueError):
        kernel_cover_log(2, 2, 1.0, cover_c=1.0, holder_l=1.0, holder_alpha=1.0)
    with pytest.raises(ValueError):
        kernel_cover_log(2, 2, 1.0, cover_c=1.0, holder_l=1.0, holder_alpha=1.0,
                         lam=1.0, k=1, delta=0.0)
    with pytest.raises(InapplicableError):
        kernel_cover_log(2, 2, 1.0, cover_c=1.0, holder_l=1.0, holder_alpha=1.0,
                         k=1, delta=1.0)


# ------------------------------------------------------------ kernel bounds


def test_kernel_maurer_reduces_to_l1():
    inputs = BoundInputs(p=3, m=10**4, x=2.0, k=1, delta=0.0)
    kernel = kernel_gen_bound(inputs, "maurer_k")
    plain = l1_generalization_bound(BoundInputs(p=3, m=10**4, x=2.0, lam=1.0), "maurer")
    assert kernel.parts == plain.parts
    assert kernel.loss_scale == "squared"


def test_kernel_maurer_requires_unit_gamma():
    with pytest.raises(InapplicableError):
        kernel_gen_bound(BoundInputs(p=3, m=10**4, x=2.0, k=1, delta=0.0, gamma=2.0),
                         "maurer_k")


def test_kernel_slow_matches_euclidean_at_linear_settings():
    inputs = BoundInputs(n=2, p=2, m=10**4, x=2.0, k=2, delta=0.5,
                         cover_c=4.0, holder_l=1.0, holder_alpha=1.0, gamma=1.0)
    kernel = kernel_gen_bound(inputs, "slow")
    euclid = slow_rate_generic(B=1.0, C=4.0 * 2 / 0.5, d=4.0, m=10**4, x=2.0)
    for name in ("cover", "confidence", "discretization"):
        assert kernel.parts[name] == pytest.approx(euclid.parts[name], rel=1e-12)


def test_kernel_slow_decreasing_in_m():
    def additive(m):
        return kernel_gen_bound(
            BoundInputs(n=2, p=4, m=m, x=2.0, k=2, delta=0.25, cover_c=4.0,
                        holder_l=1.0, holder_alpha=1.0, gamma=1.5), "slow").additive

    values = [additive(10**e) for e in range(2, 8)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_kernel_slow_precondition():
    with pytest.raises(InapplicableError):
        kernel_gen_bound(BoundInputs(n=1, p=1, m=1, x=1.0, k=1, delta=0.0,
                                     cover_c=1.0, holder_l=1.0, holder_alpha=1.0), "slow")
    # gamma = 2 > sqrt(e) and a cover formula below one element, log -0.22
    with pytest.raises(InapplicableError, match="is below 1"):
        kernel_gen_bound(BoundInputs(n=1, p=1, m=1, x=1.0, k=1, delta=0.0, gamma=2.0,
                                     cover_c=0.4, holder_l=0.5, holder_alpha=1.0), "slow")


def test_kernel_bound_validation():
    with pytest.raises(ValueError):
        kernel_gen_bound(BoundInputs(n=2, p=2, m=100, x=1.0, k=1, delta=0.0), "nope")
    with pytest.raises(ValueError):
        # missing cover/smoothness metadata
        kernel_gen_bound(BoundInputs(n=2, p=2, m=100, x=1.0, k=1, delta=0.0), "slow")
    with pytest.raises(InapplicableError):
        kernel_gen_bound(BoundInputs(n=2, p=2, m=100, x=1.0, k=1, delta=1.5,
                                     cover_c=4.0, holder_l=1.0, holder_alpha=1.0), "slow")
    with pytest.raises(ValueError, match="d must be >= 1"):
        # holder_alpha > np leaves the cover dimension np / alpha below 1
        kernel_gen_bound(BoundInputs(n=1, p=1, m=100, x=1.0, k=1, delta=0.0,
                                     cover_c=4.0, holder_l=1.0, holder_alpha=2.0), "slow")
    assert KERNEL_VARIANTS == ("maurer_k", "slow")
