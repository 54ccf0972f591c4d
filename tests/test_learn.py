import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dlbounds import learn
from dlbounds.coders import ERR_TOL, exact_ksparse_batch, greedy_ksparse
from dlbounds.coherence import babel
from dlbounds.core import (
    Dictionary,
    HardK,
    L1Ball,
    SearchFailureError,
    Signal,
    sample_uniform_sphere,
    substream,
    uniform_sphere_matrix,
    validate_dictionary,
)
from dlbounds.learn import (
    INIT_KINDS,
    LearnerConfig,
    LearnResult,
    SignalSource,
    dictionary_source,
    learn_dictionary,
    near_orthogonal_dictionary,
    signals_to_matrix,
    sphere_source,
    synth_sample,
)

# Ground-truth recovery instance for the seed-sweep success criterion,
# frozen from a 100-seed measurement: 97/100 seeds reach final mean
# training error <= 0.1 (failures at seeds 0, 71, 92), so the frozen
# window 0..29 yields 29/30 (see test_ground_truth_success_rate).
RECOVERY = dict(n=64, p=8, k_true=3, m=600, iterations=50)
RECOVERY_SEEDS = range(30)
RECOVERY_MIN_SUCCESSES = 27  # >= 90% of the frozen seed set


# ------------------------------------------------------------------ sources


def test_source_validation():
    d = Dictionary(np.eye(3))
    with pytest.raises(ValueError):
        SignalSource(n=3, dictionary=d, sigma=-0.1)
    with pytest.raises(ValueError):
        SignalSource(n=3, dictionary=d, k_true=4)
    with pytest.raises(ValueError):
        SignalSource(n=2, dictionary=d)
    with pytest.raises(ValueError):
        synth_sample(sphere_source(3), 0)


def test_settings_nothing_reads_are_refused():
    # a source without a dictionary is the sphere: no k_true, no noise
    for kwargs in ({"sigma": 0.1}, {"k_true": 2}):
        with pytest.raises(ValueError, match="without a dictionary"):
            SignalSource(n=3, **kwargs)
    assert SignalSource(n=3, seed=4) == sphere_source(3, seed=4)
    # the l1 ball has one coder, the exact l1 solver
    with pytest.raises(ValueError, match="no greedy l1 coder"):
        LearnerConfig(p=3, constraint=L1Ball(1.0), exact_coder=False)


def test_sphere_source_samples():
    src = sphere_source(4, seed=3)
    signals = synth_sample(src, 50)
    assert len(signals) == 50
    assert all(s.n == 4 and abs(s.norm() - 1.0) < 1e-12 for s in signals)


def test_dictionary_source_unit_norm_and_atoms():
    d = Dictionary(uniform_sphere_matrix(6, 9, substream(0, 0)))
    src = dictionary_source(d, k_true=1, sigma=0.0, seed=1)
    for s in synth_sample(src, 40):
        assert abs(s.norm() - 1.0) < 1e-12
        # k_true = 1 with normalized coefficients forces x = +- an atom
        gaps = [min(np.linalg.norm(s.values - a), np.linalg.norm(s.values + a))
                for a in d.atoms.T]
        assert min(gaps) < 1e-12
        assert greedy_ksparse(d, s.values, 1).error < 1e-12


def test_dictionary_source_sparse_mixtures():
    d = Dictionary(uniform_sphere_matrix(8, 10, substream(1, 0)))
    src = dictionary_source(d, k_true=3, sigma=0.0, seed=2)
    x = signals_to_matrix(synth_sample(src, 30))
    assert x.shape == (8, 30)
    # noiseless signals lie in 3-atom spans: exact residual 0 at k = 3
    from dlbounds.coders import exact_ksparse

    for j in range(5):
        assert exact_ksparse(d, x[:, j], 3).error < 1e-9


def test_noise_moves_signals_off_spans():
    d = Dictionary(uniform_sphere_matrix(8, 10, substream(2, 0)))
    noisy = dictionary_source(d, k_true=2, sigma=0.5, seed=3)
    from dlbounds.coders import exact_ksparse

    errors = [exact_ksparse(d, s.values, 2).error for s in synth_sample(noisy, 10)]
    assert min(errors) > 1e-3


def test_stream_determinism(monkeypatch):
    # blocks of 2 signals, so the dictionary draw spans many blocks
    monkeypatch.setattr(learn, "SAMPLE_BLOCK", 40)
    d = Dictionary(uniform_sphere_matrix(5, 7, substream(9, 1)))
    for src in (sphere_source(5, seed=9), dictionary_source(d, 2, 0.1, seed=9)):
        a = signals_to_matrix(synth_sample(src, 25, stream=4))
        b = signals_to_matrix(synth_sample(src, 25, stream=4))
        c = signals_to_matrix(synth_sample(src, 25, stream=5))
        assert a.shape == (5, 25)
        assert a.tobytes() == b.tobytes()
        assert not np.array_equal(a, c)


def _sampler_reference(source, m, rng):
    """The per-signal sampler synth_sample's batch replaced: one checked
    Signal per drawn column, stacked back into an n x m matrix."""
    if source.dictionary is None:
        signals = [Signal(c, unit=True) for c in uniform_sphere_matrix(source.n, m, rng).T]
        return np.stack([s.values for s in signals], axis=1)
    atoms, k, sigma = source.dictionary.atoms, source.k_true, source.sigma
    n, p = atoms.shape
    signals = []
    while len(signals) < m:
        c = min(m - len(signals), max(1, learn.SAMPLE_BLOCK // (n * k + p)))
        supports = np.argsort(rng.random((c, p)), axis=1)[:, :k]
        coef = rng.uniform(-1.0, 1.0, (c, k))
        norms = np.linalg.norm(coef, axis=1, keepdims=True)
        live = norms[:, 0] >= learn.DEAD_ATOM_TOL
        x = np.einsum("nck,ck->nc", atoms[:, supports[live]], coef[live] / norms[live])
        if sigma > 0.0:
            x += sigma * rng.standard_normal((n, c))[:, live]
        norms = np.linalg.norm(x, axis=0)
        live = norms >= learn.DEAD_ATOM_TOL
        signals.extend(Signal(col, unit=True) for col in (x[:, live] / norms[live]).T)
    return np.stack([s.values for s in signals], axis=1)


def _assert_matches_reference(batch, ref):
    # memory layout counts: the coders round a strided matrix differently
    assert batch.values.shape == ref.shape and batch.values.flags.c_contiguous
    assert batch.values.tobytes() == ref.tobytes()


@pytest.mark.parametrize("block", [learn.SAMPLE_BLOCK, 40], ids=["one-block", "multi-block"])
def test_sampler_matches_the_per_signal_reference(monkeypatch, block):
    # SAMPLE_BLOCK = 40 draws 2 dictionary signals per block
    monkeypatch.setattr(learn, "SAMPLE_BLOCK", block)
    d = Dictionary(uniform_sphere_matrix(5, 7, substream(9, 2)))
    for src in (sphere_source(5, seed=9), dictionary_source(d, 2, 0.0, seed=9),
                dictionary_source(d, 3, 0.1, seed=9)):
        for m, stream in ((1, 0), (25, 4)):
            batch = synth_sample(src, m, stream=stream)
            _assert_matches_reference(batch, _sampler_reference(src, m, substream(9, stream)))
            assert signals_to_matrix(batch) is batch.values


def test_sampled_batch_holds_its_one_array():
    # m = 10,000 signals at n = 64 (gengap-ksparse's test set): the batch
    # keeps the array the sampler filled instead of copying it, so beyond
    # the n x m output only one block's draws are ever held
    n, m = 64, 10_000
    d = Dictionary(uniform_sphere_matrix(n, 8, substream(52, 0)))
    for source in (dictionary_source(d, 3, 0.0, seed=52), dictionary_source(d, 3, 0.1, seed=52),
                   sphere_source(n, seed=52)):
        tracemalloc.start()
        try:
            batch = synth_sample(source, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * m + 2 * learn.SAMPLE_BLOCK * 8
        assert batch.values.shape == (n, m) and not batch.values.flags.writeable


def test_dictionary_supports_are_uniform_k_subsets():
    # on the identity dictionary a noiseless signal's support is its nonzeros
    n = p = 10
    k, m = 3, 3000
    x = signals_to_matrix(synth_sample(dictionary_source(Dictionary(np.eye(n)), k, 0.0, seed=21), m))
    nonzero = x != 0.0
    assert np.all(nonzero.sum(axis=0) == k)
    # each atom is in Binomial(m, k/p) supports: within 5 standard deviations
    q = k / p
    assert np.abs(nonzero.sum(axis=1) - m * q).max() <= 5 * math.sqrt(m * q * (1 - q))


def test_tiny_noise_moves_signals_by_order_sigma():
    # orthonormal atoms give every noiseless mix norm 1, so the move is at
    # most 2 sigma ||g|| (one block: supports and coefficients are shared)
    atoms = np.linalg.qr(substream(22, 0).standard_normal((8, 4)))[0]
    d, sigma = Dictionary(atoms), 1e-8
    clean = signals_to_matrix(synth_sample(dictionary_source(d, 2, 0.0, seed=22), 200))
    noisy = signals_to_matrix(synth_sample(dictionary_source(d, 2, sigma, seed=22), 200))
    moves = np.linalg.norm(noisy - clean, axis=0)
    assert moves.min() > 0.0
    assert moves.max() <= 20 * sigma


class _DeadRowRng:
    """A Generator whose first coefficient block has the given rows
    replaced, so the sampler must drop those signals and draw again."""

    def __init__(self, rng, rows, values):
        self._rng, self._rows, self._values, self.blocks = rng, list(rows), values, 0

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def uniform(self, low, high, size):
        coef = self._rng.uniform(low, high, size)
        if self.blocks == 0:
            coef[self._rows] = self._values
        self.blocks += 1
        return coef


@pytest.mark.parametrize("atoms, values", [
    (np.eye(4)[:, :3], 0.0),  # zero coefficients
    (np.array([[1.0, 1.0], [0.0, 0.0]]), [0.5, -0.5]),  # a repeated atom cancels
], ids=["dead-coefficients", "dead-signal"])
@pytest.mark.parametrize("rows", [(0,), (2, 5)])
@pytest.mark.filterwarnings("error")  # dead rows are dropped before any division
def test_dictionary_sampler_replaces_dead_rows(monkeypatch, atoms, values, rows):
    d = Dictionary(atoms)
    rng = _DeadRowRng(substream(23, 0), rows, values)
    monkeypatch.setattr(learn, "substream", lambda *key: rng)
    source = dictionary_source(d, 2, 0.0, seed=23)
    signals = synth_sample(source, 6)
    assert len(signals) == 6
    assert all(abs(s.norm() - 1.0) < 1e-12 for s in signals)
    assert rng.blocks == 2  # the stub really forced a second block
    _assert_matches_reference(signals, _sampler_reference(
        source, 6, _DeadRowRng(substream(23, 0), rows, values)))


def test_sample_counts_must_be_integral():
    src = sphere_source(3)
    for bad in (2.5, 0, -1, "3", float("inf"), float("nan"), None):
        with pytest.raises(ValueError, match="m must be an integer"):
            synth_sample(src, bad)
    assert len(synth_sample(src, np.int64(3))) == len(synth_sample(src, 3.0)) == 3


def test_signals_to_matrix_validation():
    with pytest.raises(ValueError):
        signals_to_matrix([])
    with pytest.raises(ValueError):
        signals_to_matrix([np.ones(3), np.ones(4)])
    m = np.ones((3, 2))
    assert signals_to_matrix(m) is m or np.array_equal(signals_to_matrix(m), m)


# ------------------------------------------------------------------ learner


def test_learner_config_validation():
    assert INIT_KINDS == ("sample-atoms", "random-sphere")
    with pytest.raises(ValueError):
        LearnerConfig(p=0, constraint=HardK(1))
    with pytest.raises(ValueError):
        LearnerConfig(p=4, constraint=HardK(1), iterations=0)
    with pytest.raises(ValueError):
        LearnerConfig(p=4, constraint=HardK(1), init="kmeans")
    with pytest.raises(ValueError):
        LearnerConfig(p=4, constraint="hard")


def test_orthonormal_samples_are_fixed_point():
    samples = [np.eye(8)[:, j] for j in range(8)]
    config = LearnerConfig(p=8, constraint=HardK(1), iterations=3, seed=0)
    result = learn_dictionary(samples, config)
    assert isinstance(result, LearnResult)
    assert result.trace[0] <= 1e-12  # init covers every atom, so round 1 is exact
    assert result.trace[-1] <= 1e-12
    assert len(result.trace) == 3


def test_trace_length_and_monotonicity():
    d = Dictionary(uniform_sphere_matrix(6, 8, substream(3, 0)))
    samples = synth_sample(dictionary_source(d, 2, 0.1, seed=4), 80)
    x = signals_to_matrix(samples)
    config = LearnerConfig(p=8, constraint=HardK(2), iterations=10, seed=1)
    result = learn_dictionary(samples, config)
    assert len(result.trace) == 10
    assert validate_dictionary(result.dictionary, normalized=True) == []
    # the documented invariant: under the exact coder the mean *squared*
    # error of each learned dictionary never rises (the unsquared trace may)
    squared = []
    for j in range(1, 11):
        shorter = learn_dictionary(samples, replace(config, iterations=j))
        assert shorter.trace == result.trace[:j]
        squared.append(float((exact_ksparse_batch(shorter.dictionary, x, 2)[1] ** 2).mean()))
    assert all(b <= a + 1e-6 for a, b in zip(squared, squared[1:]))


def test_l1_learning_runs_and_descends():
    d = Dictionary(uniform_sphere_matrix(6, 8, substream(4, 0)))
    samples = synth_sample(dictionary_source(d, 2, 0.0, seed=5), 60)
    config = LearnerConfig(p=8, constraint=L1Ball(1.5), iterations=6, seed=2)
    result = learn_dictionary(samples, config)
    assert all(b <= a + 1e-6 for a, b in zip(result.trace, result.trace[1:]))
    assert validate_dictionary(result.dictionary, normalized=True) == []


def _l1_slack(atoms, coeffs, signals, lam):
    """Per column, how far ||D a - x|| can be above the l1-constrained
    optimum, by the Frank-Wolfe duality gap a.g + lam ||g||_inf, g = D^T r."""
    resid = atoms @ coeffs - signals
    g = atoms.T @ resid
    gap = (coeffs * g).sum(axis=0) + lam * np.abs(g).max(axis=0)
    h = np.linalg.norm(resid, axis=0)
    return h - np.sqrt(np.maximum(h * h - 2.0 * gap, 0.0))


def test_l1_learner_guesses_with_the_previous_step(monkeypatch):
    calls = []
    original = learn.l1_solve_batch

    def wrapped(d, signals, *rest):
        result = original(d, signals, *rest)
        calls.append((d, signals, rest, result))
        return result

    monkeypatch.setattr(learn, "l1_solve_batch", wrapped)
    d_true = Dictionary(uniform_sphere_matrix(8, 12, substream(63, 0)))
    samples = synth_sample(dictionary_source(d_true, 2, 0.0, seed=63), 128)
    result = learn_dictionary(samples, LearnerConfig(p=12, constraint=L1Ball(1.0), iterations=6, seed=63))
    assert len(calls) == 6
    assert calls[0][2] in ((1.0,), (1.0, None))
    for before, (d, signals, rest, (coeffs, _errors, _iters, _residual)) in zip(calls, calls[1:]):
        assert rest[0] == 1.0 and rest[1] is before[3][0]
        assert _l1_slack(d.atoms, coeffs, signals, 1.0).max() <= ERR_TOL
    # the guesses save rounds once the dictionary settles
    assert calls[-1][3][2] < calls[0][3][2]
    assert np.array_equal(result.coeffs, calls[-1][3][0]) and not result.coeffs.flags.writeable


def test_learn_result_carries_the_last_codes():
    d = Dictionary(uniform_sphere_matrix(6, 8, substream(64, 0)))
    samples = synth_sample(dictionary_source(d, 2, 0.0, seed=64), 60)
    config = LearnerConfig(p=8, constraint=HardK(2), iterations=3, seed=64)
    result = learn_dictionary(samples, config)
    before = learn_dictionary(samples, replace(config, iterations=2)).dictionary
    assert np.array_equal(result.coeffs, exact_ksparse_batch(before, samples.values, 2)[0])


def test_greedy_coder_path():
    d = Dictionary(uniform_sphere_matrix(6, 8, substream(5, 0)))
    samples = synth_sample(dictionary_source(d, 2, 0.0, seed=6), 60)
    config = LearnerConfig(p=8, constraint=HardK(2), iterations=5, seed=3,
                           exact_coder=False)
    result = learn_dictionary(samples, config)
    assert len(result.trace) == 5
    assert validate_dictionary(result.dictionary, normalized=True) == []
    with pytest.raises(ValueError, match="min"):  # greedy needs k <= min(n, p)
        learn_dictionary(samples, replace(config, constraint=HardK(7)))


def test_sample_atoms_requires_enough_samples():
    samples = [np.eye(4)[:, j] for j in range(3)]
    with pytest.raises(ValueError):
        learn_dictionary(samples, LearnerConfig(p=4, constraint=HardK(1)))
    # random-sphere init has no such restriction
    result = learn_dictionary(
        samples, LearnerConfig(p=4, constraint=HardK(1), iterations=2,
                               init="random-sphere"))
    assert len(result.trace) == 2


def test_unused_atom_is_resampled():
    samples = [np.array([1.0, 0.0])] * 10
    config = LearnerConfig(p=2, constraint=HardK(1), iterations=4, seed=7)
    result = learn_dictionary(samples, config)
    assert result.trace[-1] <= 1e-12
    atoms = result.dictionary.atoms
    assert min(np.linalg.norm(atoms[:, 0] - [1, 0]),
               np.linalg.norm(atoms[:, 0] + [1, 0])) < 1e-9
    assert abs(np.linalg.norm(atoms[:, 1]) - 1.0) < 1e-9


@pytest.mark.parametrize("dead", [(), (3,), (0, 2, 5)], ids=["none", "one", "three"])
def test_dead_atom_refill_matches_the_per_column_loop(dead):
    # one block draw for every dead column equals drawing them one at a
    # time in index order, bit for bit, and leaves the generator in step
    atoms = uniform_sphere_matrix(5, 7, substream(40, 0)) * 3.0
    atoms[:, list(dead)] = 0.0
    rng, ref_rng = substream(41, 0), substream(41, 0)
    ref, norms = atoms.copy(), np.linalg.norm(atoms, axis=0)
    for j in dead:
        ref[:, j] = sample_uniform_sphere(5, ref_rng).values
        norms[j] = 1.0
    out = learn._normalize_columns(atoms, rng)
    assert out.tobytes() == (ref / norms).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_learning_is_deterministic_in_seed():
    d = Dictionary(uniform_sphere_matrix(5, 7, substream(6, 0)))
    samples = synth_sample(dictionary_source(d, 2, 0.0, seed=8), 50)
    config = LearnerConfig(p=6, constraint=HardK(2), iterations=4, seed=11)
    first = learn_dictionary(samples, config)
    second = learn_dictionary(samples, config)
    assert np.array_equal(first.dictionary.atoms, second.dictionary.atoms)
    assert first.trace == second.trace
    other = learn_dictionary(samples, LearnerConfig(
        p=6, constraint=HardK(2), iterations=4, seed=12))
    assert not np.array_equal(first.dictionary.atoms, other.dictionary.atoms)


def test_sphere_data_beats_single_atom_baseline():
    # p >= 2n gives the learner enough atoms to beat any one fixed atom
    samples = synth_sample(sphere_source(5, seed=13), 300)
    x = signals_to_matrix(samples)
    config = LearnerConfig(p=10, constraint=HardK(1), iterations=12, seed=4)
    result = learn_dictionary(samples, config)
    # best single unit atom: error sqrt(1 - <d, x>^2) per unit sample
    candidates = x / np.linalg.norm(x, axis=0)
    inner = candidates.T @ x
    baseline = np.sqrt(np.clip(1.0 - inner ** 2, 0.0, None)).mean(axis=1).min()
    assert result.trace[-1] < baseline


def test_ground_truth_success_rate():
    # sigma = 0, p = p_true, k = k_true: final mean training error <= 0.1
    # must hold on >= 90% of the frozen seeds
    successes = 0
    for seed in RECOVERY_SEEDS:
        rng = substream(seed, 999)
        d_true = Dictionary(uniform_sphere_matrix(RECOVERY["n"], RECOVERY["p"], rng))
        src = dictionary_source(d_true, k_true=RECOVERY["k_true"], sigma=0.0, seed=seed)
        samples = synth_sample(src, RECOVERY["m"], stream=0)
        config = LearnerConfig(p=RECOVERY["p"], constraint=HardK(RECOVERY["k_true"]),
                               iterations=RECOVERY["iterations"], seed=seed)
        result = learn_dictionary(samples, config)
        if result.trace[-1] <= 0.1:
            successes += 1
    assert successes >= RECOVERY_MIN_SUCCESSES


# -------------------------------------------------------- dictionary search


def test_near_orthogonal_dictionary_meets_cap():
    for i in range(5):
        d = near_orthogonal_dictionary(8, 10, substream(7, i))
        assert validate_dictionary(d, normalized=True) == []
        assert babel(d, 2).value <= 0.6


def test_near_orthogonal_dictionary_failure_carries_best():
    with pytest.raises(SearchFailureError) as exc_info:
        near_orthogonal_dictionary(2, 6, substream(8, 0), babel_cap=0.01)
    assert isinstance(exc_info.value.best, float)
    assert exc_info.value.best > 0.01


def test_near_orthogonal_dictionary_order_validation():
    for order in (6, 1.5):
        # the order is checked before a candidate is drawn
        rng = substream(9, 0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            near_orthogonal_dictionary(4, 6, rng, babel_order=order)
        assert rng.bit_generator.state == state
