"""One rule per kind of input: counts go through core.as_count, with their
limit when they have one, positive reals must be finite and above their
floor, every vector and matrix (a kernel's values included) goes through
core's array rule, atom norms and kernel feature norms get one report, and
each calculator's slow bound is built on the same covering number its
log-cover function reports."""

import math
import os
import re

import numpy as np
import pytest

from dlbounds import experiments
from dlbounds.bounds import (
    BoundInputs,
    coeff_l1_bound,
    fast_rate_generic,
    ksparse_generalization_bound,
    l1_generalization_bound,
    lambert_w,
    log_cover_ksparse,
    log_cover_l1,
    log_integral_check,
    optimize_fast_params,
    slow_rate_generic,
)
from dlbounds.cli import main
from dlbounds.coders import (
    exact_ksparse,
    exact_ksparse_batch,
    greedy_ksparse,
    greedy_ksparse_batch,
    l1_solve,
    l1_solve_batch,
    repr_error,
)
from dlbounds.coherence import babel, babel_bruteforce, babel_from_gram
from dlbounds.core import (
    CoeffVector,
    Dictionary,
    HardK,
    InapplicableError,
    L1Ball,
    Signal,
    me_norm,
    save_matrix,
    save_signal,
    substream,
    uniform_sphere_matrix,
    validate_dictionary,
)
from dlbounds.experiments import (babel_tail_bound, gengap_run, lipschitz_probe, mc_babel,
                                  nonlipschitz_demo, perturbed_pair)
from dlbounds.kernels import (
    KernelDictionary,
    KernelFn,
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
from dlbounds.learn import (
    LearnerConfig,
    SignalSource,
    dictionary_source,
    learn_dictionary,
    near_orthogonal_dictionary,
    signals_to_matrix,
    sphere_source,
    synth_sample,
)

D = Dictionary(uniform_sphere_matrix(4, 6, substream(21, 0)))
X = uniform_sphere_matrix(4, 3, substream(21, 1))
KD = KernelDictionary.build(D.atoms.T, linear_kernel())
COVER = dict(cover_c=2.0, holder_l=0.8, holder_alpha=0.7)


def _bound(calc, variant, **fields):
    base = dict(n=3, p=5, m=10**4, x=2.0, lam=1.5, k=2, delta=0.3, K=2.0, alpha=1.0, **COVER)
    base.update(fields)
    return lambda: calc(BoundInputs(**base), variant)


def count_calls(c):
    yield "greedy_ksparse", lambda: greedy_ksparse(D, X[:, 0], c)
    yield "greedy_ksparse_batch", lambda: greedy_ksparse_batch(D, X, c)
    yield "exact_ksparse", lambda: exact_ksparse(D, X[:, 0], c)
    yield "exact_ksparse_batch", lambda: exact_ksparse_batch(D, X, c)
    yield "coeff_l1_bound", lambda: coeff_l1_bound(D, c)
    yield "babel", lambda: babel(D, c)
    yield "babel_bruteforce", lambda: babel_bruteforce(D, c)
    yield "babel_from_gram", lambda: babel_from_gram(D.atoms.T @ D.atoms, c)
    yield "kernel_greedy_ksparse", lambda: kernel_greedy_ksparse(X[:, 0], KD, linear_kernel(), c)
    yield "feature_babel", lambda: feature_babel(KD, c)
    yield "polynomial_kernel", lambda: polynomial_kernel(c)
    yield "mc_babel threads", lambda: mc_babel(6, 4, 1, trials=3, seed=1, threads=c)
    yield "nonlipschitz_demo search_samples", lambda: nonlipschitz_demo(
        8, 8, 2, 1e-3, seed=2, search_samples=c, target=0.999)
    yield "gengap_run threads", lambda: gengap_run(
        sphere_source(4, seed=3), LearnerConfig(p=5, constraint=HardK(1), iterations=1, seed=3),
        (12, 16), 20, variants=("slow",), threads=c)
    yield "log_cover_l1 n", lambda: log_cover_l1(c, 3, 1.0, 0.5)
    yield "log_cover_l1 p", lambda: log_cover_l1(2, c, 1.0, 0.5)
    yield "log_cover_ksparse k", lambda: log_cover_ksparse(2, 3, c, 0.2, 0.5)
    yield "kernel_cover_log n", lambda: kernel_cover_log(c, 3, 0.5, lam=1.0, **COVER)
    yield "kernel_cover_log p", lambda: kernel_cover_log(2, c, 0.5, lam=1.0, **COVER)
    yield "kernel_cover_log k", lambda: kernel_cover_log(2, 3, 0.5, k=c, delta=0.2, **COVER)
    yield "slow_rate_generic m", lambda: slow_rate_generic(1.0, 4.0, 4.0, 100 + c, 2.0)
    yield "fast_rate_generic m", lambda: fast_rate_generic(4.0, 4.0, 100 + c, 2.0, 2.0, 1.0)
    for variant in ("maurer", "slow", "fast"):
        for field in ("n", "p", "m") if variant != "maurer" else ("p", "m"):
            value = 100 + c if field == "m" else c
            yield f"l1 {variant} {field}", _bound(l1_generalization_bound, variant, **{field: value})
        yield f"ksparse {variant} k", _bound(ksparse_generalization_bound, variant, k=c)
    for field in ("n", "p", "m", "k"):
        value = 100 + c if field == "m" else c
        yield f"kernel slow {field}", _bound(kernel_gen_bound, "slow", **{field: value})
    for field in ("p", "m", "k"):
        value = 100 + c if field == "m" else c
        yield f"kernel maurer_k {field}", _bound(kernel_gen_bound, "maurer_k", **{field: value})


@pytest.mark.parametrize("name,call", list(count_calls(2.5)), ids=[n for n, _ in count_calls(2.5)])
def test_non_integral_count_raises(name, call):
    # int() would truncate 2.5 to 2 and run at the wrong count
    with pytest.raises(ValueError, match=r"must be an integer >= 1, got (10)?2\.5$"):
        call()


def seed_calls(s):
    yield "substream", lambda: substream(s)
    yield "SignalSource", lambda: SignalSource(n=3, seed=s)
    yield "LearnerConfig", lambda: LearnerConfig(p=2, constraint=HardK(1), seed=s)
    yield "mc_babel", lambda: mc_babel(6, 4, 1, 2, seed=s)
    yield "nonlipschitz_demo", lambda: nonlipschitz_demo(8, 8, 2, 1e-3, seed=s, search_samples=64,
                                                         target=0.999)


@pytest.mark.parametrize("value", [2.5, -1], ids=["non-integral", "negative"])
@pytest.mark.parametrize("name", [n for n, _ in seed_calls(0)])
def test_bad_seed_raises(name, value):
    # int() would truncate 2.5 to 2, and SeedSequence words -1 its own way
    with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {value}$"):
        dict(seed_calls(value))[name]()


def test_non_integral_stream_key_raises():
    # the seed rule's wording, not SeedSequence's TypeError
    with pytest.raises(ValueError, match=r"^stream must be an integer >= 0, got 2\.5$"):
        synth_sample(SignalSource(n=3), 4, stream=2.5)


def test_non_integral_support_index_raises():
    # int() would truncate 0.7 to support (0,)
    with pytest.raises(ValueError, match=r"^support index must be an integer >= 0, got 0\.7$"):
        CoeffVector(np.array([1.0, 0.0, 0.0]), (0.7,))


def test_non_integral_poly_degree_raises():
    message = r"^bad kernel spec 'poly:2\.5': degree must be an integer >= 1, got 2\.5$"
    with pytest.raises(ValueError, match=message):
        kernel_from_name("poly:2.5")


@pytest.mark.parametrize("flag, value, message", [
    ("--mgrid", "12.5", "each entry must be an integer >= 1, got 12.5"),
    ("--mgrid", "12,,16", "an entry is empty"),
    ("--variants", "slow,", "an entry is empty"),
], ids=["non-integral", "empty-entry", "variants-empty-entry"])
def test_bad_comma_list_fails_the_cli(flag, value, message, tmp_path, capsys):
    # an empty entry was dropped, so 12,,16 ran m = 12, 16
    lists = {"--mgrid": "12", "--variants": "slow", flag: value}
    rc = main(["gengap", "--synth", "sphere:n=4", "--p", "3", "--k", "1", "--test-size", "20",
               *(arg for item in lists.items() for arg in item), "--out", str(tmp_path / "g")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {flag} {value!r}: {message}\n"
    assert not (tmp_path / "g").exists()


def test_mc_babel_records_its_checked_seed():
    records = mc_babel(6, 4, 1, 2, seed=3.0).records
    assert [(type(r.seed), r.seed) for r in records] == [(int, 3)] * 2


# Every count with a limit, as (entry, the count's name, the limit as the
# message words it, the limit, the call at a count c).  D is 4 x 6.
def bounded_count_calls():
    yield "greedy_ksparse", "k", "min(n, p)", 4, lambda c: greedy_ksparse(D, X[:, 0], c)
    yield "greedy_ksparse_batch", "k", "min(n, p)", 4, lambda c: greedy_ksparse_batch(D, X, c)
    yield "exact_ksparse", "k", "p", 6, lambda c: exact_ksparse(D, X[:, 0], c)
    yield "exact_ksparse_batch", "k", "p", 6, lambda c: exact_ksparse_batch(D, X, c)
    yield "coeff_l1_bound", "k", "p", 6, lambda c: coeff_l1_bound(D, c)
    yield "kernel_greedy_ksparse", "k", "p", 6, lambda c: kernel_greedy_ksparse(
        X[:, 0], KD, linear_kernel(), c)
    yield "babel", "k", "p-1", 5, lambda c: babel(D, c)
    yield "babel_bruteforce", "k", "p-1", 5, lambda c: babel_bruteforce(D, c)
    yield "babel_from_gram", "k", "p-1", 5, lambda c: babel_from_gram(D.atoms.T @ D.atoms, c)
    yield "feature_babel", "k", "p-1", 5, lambda c: feature_babel(KD, c)
    yield "babel_tail_bound", "k", "p-1", 5, lambda c: babel_tail_bound(4, 6, c)
    yield "near_orthogonal_dictionary", "k", "p-1", 5, lambda c: near_orthogonal_dictionary(
        4, 6, substream(21, 4), babel_order=c, babel_cap=5.0)
    yield "SignalSource k_true", "k_true", "p", 6, lambda c: dictionary_source(D, c, sigma=0.0)


BOUNDED = list(bounded_count_calls())


@pytest.mark.parametrize("name,count,limit_name,limit,call", BOUNDED, ids=[b[0] for b in BOUNDED])
def test_count_over_its_limit_raises(name, count, limit_name, limit, call):
    message = f"^{count} must satisfy 1 <= {count} <= {re.escape(limit_name)} = {limit}, got {limit + 1}$"
    with pytest.raises(ValueError, match=message):
        call(limit + 1)
    try:
        call(limit)
    except InapplicableError:  # coeff_l1_bound at mu_5(D) >= 1: a formula's precondition
        assert name == "coeff_l1_bound"


def test_kernel_norm_report_is_the_dictionary_rule():
    # under the linear kernel the Gram diagonal holds the squared atom norms
    atoms = np.diag([0.5, 1.0, 3.0])
    d_report = validate_dictionary(Dictionary(atoms, gamma=2.0))
    k_report = validate_kernel_dictionary(KernelDictionary.build(atoms.T, linear_kernel(), gamma=2.0))
    assert d_report == ["column 0: norm 0.5 below 1", "column 2: norm 3 above gamma=2"]
    assert k_report == ["atom 0: kappa(d,d) = 0.25 below 1", "atom 2: kappa(d,d) = 9 above gamma^2 = 4"]


def real_calls(v):
    for variant in ("maurer", "slow", "fast"):
        yield f"l1 {variant} lam", _bound(l1_generalization_bound, variant, lam=v)
        yield f"ksparse {variant} delta", _bound(ksparse_generalization_bound, variant, delta=v)
    for variant in ("maurer_k", "slow"):
        yield f"kernel {variant} delta", _bound(kernel_gen_bound, variant, delta=v)
    yield "log_cover_l1 lam", lambda: log_cover_l1(2, 3, v, 0.5)
    yield "kernel_cover_log lam", lambda: kernel_cover_log(2, 3, 0.5, lam=v, **COVER)
    yield "log_cover_l1 eps", lambda: log_cover_l1(2, 3, 1.0, v)
    yield "log_cover_ksparse eps", lambda: log_cover_ksparse(2, 3, 2, 0.2, v)
    yield "kernel_cover_log eps", lambda: kernel_cover_log(2, 3, v, lam=1.0, **COVER)
    yield "slow B", lambda: slow_rate_generic(v, 4.0, 4.0, 10**4, 2.0)
    yield "slow C", lambda: slow_rate_generic(1.0, v, 4.0, 10**4, 2.0)
    yield "fast C", lambda: fast_rate_generic(v, 4.0, 10**4, 2.0, 2.0, 1.0)
    yield "fast K", lambda: fast_rate_generic(4.0, 4.0, 10**4, 2.0, v, 1.0)
    yield "l1 fast K", _bound(l1_generalization_bound, "fast", K=v)
    yield "fast alpha", lambda: fast_rate_generic(4.0, 4.0, 10**4, 2.0, 2.0, v)
    yield "l1 fast alpha", _bound(l1_generalization_bound, "fast", alpha=v)
    yield "lambert_w z", lambda: lambert_w(v)
    for name in COVER:
        yield f"kernel_cover_log {name}", lambda name=name: kernel_cover_log(
            2, 3, 0.5, lam=1.0, **{**COVER, name: v})
        yield f"kernel slow {name}", _bound(kernel_gen_bound, "slow", **{name: v})
    yield "kernel slow gamma", _bound(kernel_gen_bound, "slow", gamma=v)
    yield "kernel maurer_k gamma", _bound(kernel_gen_bound, "maurer_k", gamma=v)
    yield "SignalSource sigma", lambda: dictionary_source(D, 2, sigma=v)
    yield "mc_babel threshold", lambda: mc_babel(6, 4, 1, trials=3, threshold=v, seed=1)
    yield "perturbed_pair scale", lambda: perturbed_pair(D, v, substream(21, 2))
    # an infinite gamma makes coeff_l1_bound infinite, and an infinite width
    # a constant kernel with smoothness L = 0
    yield "Dictionary gamma", lambda: Dictionary(D.atoms, gamma=v)
    yield "KernelDictionary gamma", lambda: KernelDictionary(KD.points, KD.gram, gamma=v)
    yield "L1Ball lam", lambda: L1Ball(v)
    yield "gaussian_kernel sigma", lambda: gaussian_kernel(v)
    yield "kernel_from_name gaussian", lambda: kernel_from_name(f"gaussian:{v}")
    yield "log_integral_check gamma", lambda: log_integral_check(v, [0.5])
    yield "nonlipschitz_demo eps", lambda: nonlipschitz_demo(8, 8, 2, v, seed=2)
    yield "nonlipschitz_demo target", lambda: nonlipschitz_demo(
        8, 8, 2, 1e-3, seed=2, search_samples=64, target=v)
    yield "optimize_fast_params empirical", lambda: optimize_fast_params(
        BoundInputs(n=3, p=5, m=10**4, x=2.0, lam=1.5), [2.0], "l1", empirical=v)


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("name", [n for n, _ in real_calls(0.0)])
def test_non_finite_real_raises(name, value):
    call = dict(real_calls(value))[name]
    with pytest.raises(ValueError, match=r"must be >=? [0-9.]+ and finite, got") as excinfo:
        call()
    # a malformed input, not a formula's unmet precondition
    assert not isinstance(excinfo.value, InapplicableError)


def test_missing_real_is_a_value_error():
    # None is a malformed real like NaN, not a TypeError from float()
    for call in (lambda: log_integral_check(None, [0.5]), lambda: nonlipschitz_demo(8, 8, 2, None)):
        with pytest.raises(ValueError, match=r"must be > 0 and finite, got None$") as excinfo:
            call()
        assert not isinstance(excinfo.value, InapplicableError)


def test_log_integral_gamma_at_most_zero_is_malformed():
    # not outside the inequality's range, as a finite gamma in (0, sqrt(e)) is
    for gamma in (0.0, -1.0):
        with pytest.raises(ValueError, match=r"^gamma must be > 0 and finite, got -?[01]\.0$") as excinfo:
            log_integral_check(gamma, [0.5])
        assert not isinstance(excinfo.value, InapplicableError)


def _no_draws(monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("nonlipschitz_demo drew before refusing its input")

    monkeypatch.setattr(experiments, "substream", draw)
    monkeypatch.setattr(experiments, "uniform_sphere_matrix", draw)


@pytest.mark.parametrize("field", ["eps", "target"])
@pytest.mark.parametrize("value", [0.0, -1.0, 1.5])
def test_nonlipschitz_demo_refuses_out_of_range_before_any_draw(monkeypatch, field, value):
    # h(q) <= ||q|| = 1, so no search can reach a target above 1
    _no_draws(monkeypatch)
    message = f"must lie in \\(0, 1\\], got {value}$" if value > 0 else "must be > 0 and finite, got"
    with pytest.raises(ValueError, match=f"^{field} {message}"):
        nonlipschitz_demo(8, 8, 2, **{"eps": 1e-3, field: value})


def test_demo_nonlipschitz_nan_target_fails_the_cli_without_searching(monkeypatch, tmp_path, capsys):
    _no_draws(monkeypatch)
    rc = main(["demo-nonlipschitz", "--n", "8", "--p", "8", "--k", "2", "--eps", "1e-3",
               "--target", "nan", "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == "error: target must be > 0 and finite, got nan\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("sigma", ["inf", "nan"])
def test_non_finite_synth_sigma_fails_the_cli(sigma, tmp_path, capsys):
    rc = main(["gengap", "--synth", f"dict:n=4,ptrue=5,ktrue=2,sigma={sigma}", "--p", "5",
               "--k", "2", "--mgrid", "12", "--test-size", "20", "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: sigma must be >= 0 and finite, got {sigma}\n"


def single_calls():
    """Each single-signal coder, as a function of the signal."""
    yield "exact_ksparse", lambda x: exact_ksparse(D, x, 2)
    yield "greedy_ksparse", lambda x: greedy_ksparse(D, x, 2)
    yield "l1_solve", lambda x: l1_solve(D, x, 1.0)
    yield "repr_error", lambda x: repr_error(D, x, HardK(2))
    yield "kernel_greedy_ksparse", lambda x: kernel_greedy_ksparse(x, KD, linear_kernel(), 2)
    yield "kernel_repr_error", lambda x: kernel_repr_error(x, np.zeros(D.p), KD, linear_kernel())


SINGLE = dict(single_calls())


def _fields(result):
    """A coding result as plain values, coefficients as bytes."""
    if isinstance(result, float):
        return result
    return (result.coeffs.values.tobytes(), result.coeffs.support, result.error, result.method,
            result.iterations, result.ridge_used, result.gap)


@pytest.mark.parametrize("name", list(SINGLE))
def test_single_signal_rule(name):
    code = SINGLE[name]
    # a matrix is not one signal, even one whose columns have the atoms' dimension
    with pytest.raises(ValueError, match=r"^signal must be a nonempty 1-d array, got shape \(4, 2\)$"):
        code(X[:, :2])
    with pytest.raises(ValueError, match=r"^signal must be a nonempty 1-d array, got shape \(0,\)$"):
        code(np.ones(0))
    with pytest.raises(ValueError, match=r"^signal must have dimension 4, got shape \(5,\)$"):
        code(np.ones(5))
    for value in (math.nan, math.inf):
        bad = X[:, 0].copy()
        bad[1] = value
        with pytest.raises(ValueError, match="^signal must be finite$"):
            code(bad)
    x = X[:, 0]  # a strided view
    results = {_fields(code(form)) for form in (Signal(x), x.tolist(), x, x.copy())}
    assert len(results) == 1


# Every other public entry that takes a vector or a matrix, as (entry, the
# rule's name for the input, the dimension the entry knows or None, a good
# input, the call on an input).  The single-signal coders are above, the
# SignalBatch shapes and entries in tests/test_core.py, and lipschitz_probe's
# dimension in tests/test_experiments.py.
def array_calls():
    n, lin = D.n, linear_kernel()
    yield "me_norm", "matrix", None, D.atoms, me_norm
    yield "Dictionary", "dictionary", None, D.atoms, Dictionary
    yield "Signal", "signal", None, X[:, 0], Signal
    yield "CoeffVector", "coefficients", None, np.zeros(D.p), lambda v: CoeffVector(v, ())
    yield "CoeffVector.from_dense", "coefficients", None, np.zeros(D.p), CoeffVector.from_dense
    yield "save_matrix", "matrix", None, D.atoms, lambda m: save_matrix(os.devnull, m)
    yield "save_signal", "signal", None, X[:, 0], lambda v: save_signal(os.devnull, v)
    yield "greedy_ksparse_batch", "signals", n, X, lambda x: greedy_ksparse_batch(D, x, 2)
    yield "exact_ksparse_batch", "signals", n, X, lambda x: exact_ksparse_batch(D, x, 2)
    yield "l1_solve_batch", "signals", n, X, lambda x: l1_solve_batch(D, x, 1.0)
    yield "babel_from_gram", "gram", None, D.atoms.T @ D.atoms, lambda g: babel_from_gram(g, 1)
    yield "KernelFn x", "x", None, X[:, 0], lambda v: lin(v, X[:, 1])
    yield "KernelFn y", "y", None, X[:, 0], lambda v: lin(X[:, 1], v)
    yield "gram_matrix", "points", None, KD.points, lambda pts: gram_matrix(lin, pts)
    yield "validate_kernel", "points", None, KD.points, lambda pts: validate_kernel(lin, pts)
    yield "KernelDictionary points", "points", None, KD.points, lambda pts: KernelDictionary(
        pts, KD.gram)
    yield "KernelDictionary gram", "gram", KD.p, KD.gram, lambda g: KernelDictionary(KD.points, g)
    yield "KernelDictionary.build", "points", None, KD.points, lambda pts: KernelDictionary.build(pts, lin)
    yield "kernel_repr_error coeffs", "coefficients", KD.p, np.zeros(KD.p), lambda c: kernel_repr_error(
        X[:, 0], c, KD, lin)
    yield "holder_feature_check x", "x", None, X[:, 0], lambda v: holder_feature_check(lin, [(v, X[:, 1])])
    yield "holder_feature_check y", "y", n, X[:, 1], lambda v: holder_feature_check(lin, [(X[:, 0], v)])
    yield "signals_to_matrix", "signals", None, X, signals_to_matrix
    yield "learn_dictionary", "signals", None, X, lambda x: learn_dictionary(
        x, LearnerConfig(p=2, constraint=HardK(1), iterations=1))
    d_prime = perturbed_pair(D, 0.1, substream(21, 3))[1]
    yield "lipschitz_probe", "signals", None, X, lambda x: lipschitz_probe(D, d_prime, x, HardK(2))
    yield "nonlipschitz_demo q", "q", 8, np.eye(8)[1], lambda q: nonlipschitz_demo(8, 8, 2, 1e-3, q=q)


def _defect(good: np.ndarray, defect: str, name: str, rows):
    """(good with the defect, the message the rule gives for it)."""
    bad = np.array(good, dtype=float)
    if defect in ("nan", "inf"):
        bad.flat[1] = math.nan if defect == "nan" else math.inf
        return bad, f"^{re.escape(name)} must be finite$"
    bad = {"ndim": bad[None], "empty": bad[..., :0], "rows": bad[:-1]}[defect]
    shape = re.escape(str(bad.shape))
    if defect == "rows":
        return bad, f"^{re.escape(name)} must have dimension {rows}, got shape {shape}$"
    return bad, f"^{re.escape(name)} must be a nonempty {good.ndim}-d array, got shape {shape}$"


# a kernel that reads NaN off finite points, with no RuntimeWarning on the way
HALFDOT = KernelFn(lambda xs, ys: np.where(xs @ ys.T < 0, np.nan, xs @ ys.T), "halfdot")
HALF_POINTS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
KD_HALF = KernelDictionary.build(HALF_POINTS, linear_kernel())


def array_cases():
    for entry, name, rows, good, call in array_calls():
        for defect in ("nan", "inf", "ndim", "empty", "rows")[:5 if rows else 4]:
            bad, message = _defect(good, defect, name, rows)
            yield f"{entry}-{defect}", lambda call=call, bad=bad: call(bad), message
    kernel_value = "^kernel 'halfdot' values must be finite$"
    yield "KernelFn-kernel-nan", lambda: HALFDOT(HALF_POINTS[0], HALF_POINTS[1]), kernel_value
    yield "gram_matrix-kernel-nan", lambda: gram_matrix(HALFDOT, HALF_POINTS), kernel_value
    yield "validate_kernel-kernel-nan", lambda: validate_kernel(HALFDOT, HALF_POINTS), kernel_value
    yield "kernel_greedy_ksparse-kernel-nan", lambda: kernel_greedy_ksparse(
        HALF_POINTS[1], KD_HALF, HALFDOT, 1), kernel_value
    yield "kernel_repr_error-kernel-nan", lambda: kernel_repr_error(
        HALF_POINTS[1], [1.0, 0.0, 0.0], KD_HALF, HALFDOT), kernel_value


ARRAY_CASES = list(array_cases())


@pytest.mark.parametrize("call, message", [case[1:] for case in ARRAY_CASES],
                         ids=[case[0] for case in ARRAY_CASES])
def test_array_rule(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# each single coder with its repr_error constraint and exact flag
VIEWS = {"exact_ksparse": (HardK(2), True), "greedy_ksparse": (HardK(2), False),
         "l1_solve": (L1Ball(1.0), False)}


@pytest.mark.parametrize("name", list(VIEWS))
def test_single_coders_are_views_of_repr_error(name):
    view, (constraint, exact) = SINGLE[name], VIEWS[name]
    for j in range(X.shape[1]):
        assert _fields(view(X[:, j])) == _fields(repr_error(D, X[:, j], constraint, exact=exact))


@pytest.mark.parametrize("m", [10**3, 10**6])
@pytest.mark.parametrize("family", ["l1", "ksparse", "kernel"])
def test_slow_cover_part_is_the_log_cover(family, m):
    # slow_rate_generic evaluates the class's log cover at eps = 1/sqrt(m)
    n, p, eps = 3, 5, 1.0 / math.sqrt(m)
    if family == "l1":
        report = _bound(l1_generalization_bound, "slow", m=m)()
        scale, log_cover = 1.0, log_cover_l1(n, p, 1.5, eps)
    elif family == "ksparse":
        report = _bound(ksparse_generalization_bound, "slow", m=m)()
        scale, log_cover = 1.0, log_cover_ksparse(n, p, 2, 0.3, eps)
    else:
        report = _bound(kernel_gen_bound, "slow", m=m, gamma=1.5)()
        scale, log_cover = 1.5, kernel_cover_log(n, p, eps, gamma=1.5, k=2, delta=0.3, **COVER)
    assert log_cover > 0.0
    expected = scale * math.sqrt(log_cover / (2.0 * m))
    assert report.parts["cover"] == pytest.approx(expected, rel=1e-12, abs=0.0)
