"""The benchmark's tracer times library layers by replacing the names that
library modules import (perfbench/spans.py, WRAPS), and its gengap check
recodes through `dlbounds.experiments`.  A binding that moves makes the
traced metrics read 0 with no error, so these tests pin the bindings.  They
read perfbench/ and never edit it."""

import importlib
import importlib.util
from math import comb
from pathlib import Path

import numpy as np

from dlbounds import cli, coders, experiments, learn
from dlbounds.core import Dictionary, HardK, L1Ball, substream, uniform_sphere_matrix
from dlbounds.learn import LearnerConfig, dictionary_source

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_resolves():
    for module, attr, *_ in _spans().WRAPS:
        assert callable(getattr(importlib.import_module(module), attr)), f"{module}.{attr}"


def test_exact_hook_binds_the_exact_coder():
    d = Dictionary(uniform_sphere_matrix(5, 7, substream(3, 0)))
    signals = uniform_sphere_matrix(5, 4, substream(3, 1))
    for module in (learn, experiments):
        fn = module.exact_ksparse_batch
        result = fn(d, signals, 2)
        assert _spans()._exact_hook(fn, (d, signals, 2), {}, result) == {"pairs": comb(7, 2) * 4}


def test_synth_hook_binds_the_one_sampler():
    # both traced call sites must reach the sampler, and its hook counts
    # len(result), so the sampler keeps returning a list of signals
    assert experiments.synth_sample is learn.synth_sample
    assert cli.synth_sample is learn.synth_sample
    d_true = Dictionary(uniform_sphere_matrix(5, 6, substream(5, 0)))
    for source in (learn.sphere_source(5, seed=5), dictionary_source(d_true, 2, 0.1, seed=5)):
        result = learn.synth_sample(source, 7)
        assert _spans()._synth_hook(learn.synth_sample, (source, 7), {}, result) == {"signals": 7}


def test_gengap_codes_through_the_wrapped_bindings(monkeypatch):
    # the benchmark's recoding capture replaces these names with wrappers
    # taking (d, signals, *rest), so calls must reach them positionally
    assert experiments.exact_ksparse_batch is coders.exact_ksparse_batch
    assert experiments.l1_solve_batch is coders.l1_solve_batch
    d_true = Dictionary(uniform_sphere_matrix(5, 6, substream(4, 0)))
    source = dictionary_source(d_true, k_true=2, sigma=0.0, seed=4)
    for attr, constraint in (("exact_ksparse_batch", HardK(2)), ("l1_solve_batch", L1Ball(1.5))):
        calls = {"learn": 0, "eval": 0}
        for site, module in (("learn", learn), ("eval", experiments)):
            original = getattr(module, attr)

            def capture(d, signals, *rest, original=original, site=site):
                calls[site] += 1
                return original(d, signals, *rest)

            monkeypatch.setattr(module, attr, capture)
        config = LearnerConfig(p=6, constraint=constraint, iterations=2, seed=4)
        records, _ = experiments.gengap_run(source, config, (24,), 30, variants=("slow",))
        assert records and calls["learn"] > 0 and calls["eval"] == 2
        assert np.isfinite(records[0].stat)
        monkeypatch.undo()



def _count_calls(monkeypatch, module, attr):
    calls = []
    original = getattr(module, attr)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counting)
    return calls


def test_sphere_draws_go_through_the_wrapped_bindings(monkeypatch):
    # the traced core.uniform_sphere_matrix metrics count calls made
    # through these bindings: one per mc_babel trial, one per random-sphere init
    calls = _count_calls(monkeypatch, experiments, "uniform_sphere_matrix")
    experiments.mc_babel(6, 4, 1, trials=3, seed=6)
    assert len(calls) == 3
    samples = uniform_sphere_matrix(5, 12, substream(6, 0))
    calls = _count_calls(monkeypatch, learn, "uniform_sphere_matrix")
    learn.learn_dictionary(samples, LearnerConfig(p=4, constraint=HardK(1), iterations=2,
                                                  seed=6, init="random-sphere"))
    assert len(calls) == 1
