import argparse
import dataclasses
import hashlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import dlbounds
from dlbounds.cli import RunManifest, argv_from_manifest, build_parser, main
from dlbounds.coders import exact_ksparse, greedy_ksparse, l1_solve
from dlbounds.core import (
    Dictionary,
    load_dictionary,
    load_signal,
    save_dictionary,
    save_matrix,
    save_signal,
    validate_dictionary,
)
from dlbounds.experiments import CSV_HEADER


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def id3(tmp_path):
    path = tmp_path / "id3.csv"
    save_dictionary(path, Dictionary(np.eye(3)))
    return path


@pytest.fixture
def pair_dict(tmp_path):
    atoms = np.array([[1.0, 1.0 / np.sqrt(2.0)], [0.0, 1.0 / np.sqrt(2.0)]])
    path = tmp_path / "pair.csv"
    save_dictionary(path, Dictionary(atoms))
    return path, Dictionary(atoms)


@pytest.fixture
def e2_signal(tmp_path):
    path = tmp_path / "e2.csv"
    save_signal(path, np.array([0.0, 1.0]))
    return path


# ------------------------------------------------------------- exit codes


def test_exit_codes(capsys, id3, tmp_path):
    assert run(capsys, "babel", "--dict", id3, "--k", 2, "--out", tmp_path)[0] == 0
    assert main([]) == 2  # missing subcommand
    assert main(["not-a-subcommand"]) == 2
    assert main(["babel", "--dict", str(id3), "--k", "2", "--frobnicate"]) == 2
    capsys.readouterr()
    code, out, err = run(capsys, "babel", "--dict", tmp_path / "missing.csv",
                         "--k", 2, "--out", tmp_path)
    assert code == 1
    assert err.startswith("error: ") and len(err.rstrip("\n").splitlines()) == 1


# Every option string of every subcommand: each changes the result (learn's
# --threads aside, kept so that manifest replays with a --threads override
# parse), so a new flag is declared here.
FLAGS = {
    "babel": {"--dict", "--k", "--brute", "--out"},
    "code": {"--dict", "--signal", "--k", "--lambda", "--exact", "--out"},
    "kcode": {"--kernel", "--dict", "--signal", "--k", "--out"},
    "bounds": {"--variant", "--n", "--p", "--m", "--x", "--k", "--lambda", "--delta", "--K",
               "--alpha", "--out"},
    "learn": {"--data", "--synth", "--p", "--k", "--lambda", "--iters", "--init", "--greedy",
              "--seed", "--out", "--threads"},
    "mc-babel": {"--n", "--p", "--k", "--trials", "--threshold", "--seed", "--out", "--threads"},
    "gengap": {"--synth", "--p", "--k", "--lambda", "--iters", "--init", "--greedy", "--mgrid",
               "--test-size", "--variants", "--x", "--seed", "--out", "--threads"},
    "demo-nonlipschitz": {"--n", "--p", "--k", "--eps", "--target", "--samples", "--seed", "--out"},
}


def test_flag_census():
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    found = {name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
             for name, sub in subs.choices.items()}
    assert found == FLAGS
    assert sum(len(flags) for flags in FLAGS.values()) == 67


# The library's knobs and fields: every defaulted parameter of every function
# dlbounds exports, and every field of every record type (dataclass or named
# tuple) it exports.  A new knob or field is declared here.
DEFAULTED = {
    "dictionary_source": ("seed",),
    "gengap_run": ("variants", "x", "threads"),
    "kernel_cover_log": ("gamma", "lam", "k", "delta"),
    "l1_solve_batch": ("guess",),
    "mc_babel": ("threshold", "seed", "threads"),
    "near_orthogonal_dictionary": ("babel_order", "babel_cap"),
    "nonlipschitz_demo": ("seed", "q", "search_samples", "target"),
    "optimize_fast_params": ("empirical",),
    "repr_error": ("exact",),
    "sphere_source": ("seed",),
    "synth_sample": ("stream",),
    "validate_dictionary": ("normalized",),
}
FIELDS = {
    "BabelValue": ("value",),
    "BoundInputs": ("n", "p", "m", "x", "lam", "k", "delta", "K", "alpha", "gamma", "cover_c",
                    "holder_l", "holder_alpha"),
    "BoundReport": ("multiplier", "parts", "loss_scale", "branch", "alpha"),
    "CodingResult": ("coeffs", "error", "method", "iterations", "ridge_used", "gap"),
    "CoeffVector": ("values", "support"),
    "Dictionary": ("atoms", "gamma"),
    "GapPoint": ("m", "train_mean", "test_mean", "train_sq_mean", "test_sq_mean", "train_se",
                 "test_se", "delta", "evals"),
    "HardK": ("k",),
    "KernelDictionary": ("points", "gram", "gamma"),
    "KernelFn": ("fn", "name", "smoothness"),
    "L1Ball": ("lam",),
    "LearnResult": ("dictionary", "trace", "coeffs"),
    "LearnerConfig": ("p", "constraint", "iterations", "seed", "init", "exact_coder"),
    "McBabelResult": ("empirical", "bound", "records"),
    "NonLipschitzDemo": ("dictionary", "perturbed", "q", "ratio", "h_value", "h_perturbed",
                         "distance"),
    "Signal": ("values", "unit"),
    "SignalBatch": ("values",),
    "SignalSource": ("n", "seed", "dictionary", "k_true", "sigma"),
    "TrialRecord": ("trial", "seed", "n", "p", "k", "stat", "m", "bound", "applicable"),
}


def test_library_census():
    exported = {name: getattr(dlbounds, name) for name in dir(dlbounds)
                if not name.startswith("_") and not inspect.ismodule(getattr(dlbounds, name))}
    functions = {name: obj for name, obj in exported.items() if inspect.isfunction(obj)}
    defaulted = {name: tuple(param.name for param in inspect.signature(fn).parameters.values()
                             if param.default is not param.empty)
                 for name, fn in functions.items()}
    assert {name: names for name, names in defaulted.items() if names} == DEFAULTED
    assert len(functions) == 54 and sum(map(len, DEFAULTED.values())) == 23
    records = {name: tuple(f.name for f in dataclasses.fields(obj)) if dataclasses.is_dataclass(obj)
               else obj._fields
               for name, obj in exported.items()
               if dataclasses.is_dataclass(obj) or (inspect.isclass(obj) and issubclass(obj, tuple))}
    assert records == FIELDS
    # 79 fields in 18 dataclasses, and McBabelResult's 3
    assert sum(dataclasses.is_dataclass(exported[name]) for name in records) == 18
    assert sum(map(len, FIELDS.values())) == 82


UNRECOGNIZED = "unrecognized arguments"


@pytest.mark.parametrize("argv, message", [
    (["babel", "--dict", "d.csv", "--k", "2", "--seed", "1"], UNRECOGNIZED),
    (["babel", "--dict", "d.csv", "--k", "2", "--threads", "2"], UNRECOGNIZED),
    (["code", "--dict", "d.csv", "--signal", "x.csv", "--k", "1", "--seed", "1"], UNRECOGNIZED),
    (["kcode", "--kernel", "linear", "--dict", "p.csv", "--signal", "x.csv", "--k", "1",
      "--threads", "2"], UNRECOGNIZED),
    (["bounds", "--variant", "slow", "--family", "l1", "--n", "2", "--p", "2", "--m", "100",
      "--x", "2", "--lambda", "1"], UNRECOGNIZED),
    (["demo-nonlipschitz", "--n", "8", "--p", "8", "--k", "2", "--eps", "1e-3", "--threads", "2"],
     UNRECOGNIZED),
    # bounds takes its family from exactly one of --k and --lambda
    (["bounds", "--variant", "slow", "--n", "2", "--p", "2", "--m", "100", "--x", "2",
      "--k", "1", "--lambda", "1"], "not allowed with argument"),
    (["bounds", "--variant", "slow", "--n", "2", "--p", "2", "--m", "100", "--x", "2"],
     "one of the arguments --k --lambda is required"),
], ids=["babel-seed", "babel-threads", "code-seed", "kcode-threads", "bounds-family",
        "demo-threads", "bounds-k-and-lambda", "bounds-no-sparsity"])
def test_unread_flags_are_usage_errors(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 2 and message in err


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0 and out.startswith("dlbounds ")


# ------------------------------------------------------------------ babel


def test_babel_subcommand(capsys, id3, tmp_path):
    code, out, _ = run(capsys, "babel", "--dict", id3, "--k", 2, "--out", tmp_path)
    assert code == 0 and out.strip() == "0"
    code, brute_out, _ = run(capsys, "babel", "--dict", id3, "--k", 2,
                             "--brute", "--out", tmp_path)
    assert code == 0 and brute_out == out
    manifest = RunManifest.from_json((tmp_path / "babel_manifest.json").read_text())
    assert manifest.subcommand == "babel"
    assert manifest.params["k"] == 2 and manifest.seed is None
    assert str(id3) in manifest.input_digests


# ------------------------------------------------------------------- code


def test_code_exact(capsys, pair_dict, e2_signal, tmp_path):
    path, d = pair_dict
    code, out, _ = run(capsys, "code", "--dict", path, "--signal", e2_signal,
                       "--k", 1, "--exact", "--out", tmp_path)
    assert code == 0
    coeff_line, error_line = out.splitlines()
    expected = exact_ksparse(d, np.array([0.0, 1.0]), 1)
    assert [float(v) for v in coeff_line.split(",")] == list(expected.coeffs.values)
    assert float(error_line) == expected.error == pytest.approx(np.sqrt(0.5))
    assert (tmp_path / "code_manifest.json").exists()


def test_code_greedy_and_l1(capsys, pair_dict, e2_signal, tmp_path):
    path, d = pair_dict
    x = np.array([0.0, 1.0])
    code, out, _ = run(capsys, "code", "--dict", path, "--signal", e2_signal,
                       "--k", 1, "--out", tmp_path)
    assert code == 0
    assert float(out.splitlines()[1]) == greedy_ksparse(d, x, 1).error
    code, out, _ = run(capsys, "code", "--dict", path, "--signal", e2_signal,
                       "--lambda", 0.5, "--out", tmp_path)
    assert code == 0
    assert float(out.splitlines()[1]) == l1_solve(d, x, 0.5).error


def test_code_exact_l1_is_refused(capsys, pair_dict, e2_signal, tmp_path):
    # the l1 coder is always the certified solver, so --exact would be ignored
    path, _ = pair_dict
    code, _, err = run(capsys, "code", "--dict", path, "--signal", e2_signal,
                       "--lambda", 0.5, "--exact", "--out", tmp_path)
    assert code == 1 and "--exact is the exhaustive k-sparse search; it needs --k" in err
    assert not (tmp_path / "code_manifest.json").exists()


def test_code_rejects_both_constraints(capsys, pair_dict, e2_signal):
    path, _ = pair_dict
    assert main(["code", "--dict", str(path), "--signal", str(e2_signal),
                 "--k", "1", "--lambda", "0.5"]) == 2
    capsys.readouterr()


# ------------------------------------------------------------------ kcode


def test_kcode_linear_matches_euclidean(capsys, pair_dict, e2_signal, tmp_path):
    path, d = pair_dict
    points = tmp_path / "points.csv"
    save_matrix(points, d.atoms.T)  # one atom pre-image per row
    code, out, _ = run(capsys, "kcode", "--kernel", "linear", "--dict", points,
                       "--signal", e2_signal, "--k", 1, "--out", tmp_path)
    assert code == 0
    reference = greedy_ksparse(d, np.array([0.0, 1.0]), 1)
    assert float(out.splitlines()[1]) == pytest.approx(reference.error, abs=1e-10)
    assert (tmp_path / "kcode_manifest.json").exists()


def test_kcode_bad_kernel_spec(capsys, pair_dict, e2_signal, tmp_path):
    path, _ = pair_dict
    code, _, err = run(capsys, "kcode", "--kernel", "gaussian:-1", "--dict", path,
                       "--signal", e2_signal, "--k", 1, "--out", tmp_path)
    assert code == 1 and err.startswith("error: ")


# ----------------------------------------------------------------- bounds


def test_bounds_slow_l1_value(capsys, tmp_path):
    code, out, _ = run(capsys, "bounds", "--variant", "slow",
                       "--n", 2, "--p", 2, "--m", 10000, "--x", 2,
                       "--lambda", 1, "--out", tmp_path)
    assert code == 0
    body = json.loads(out)
    assert body["additive"] == pytest.approx(0.0646163676520457, rel=1e-12)
    assert body["multiplier"] == 1.0
    assert (tmp_path / "bounds_manifest.json").exists()


def test_bounds_fast_grid_reports_chosen_params(capsys, tmp_path):
    code, out, _ = run(capsys, "bounds", "--variant", "fast",
                       "--n", 4, "--p", 6, "--m", 100000, "--x", 2,
                       "--k", 2, "--delta", 0.5, "--out", tmp_path)
    assert code == 0
    body = json.loads(out)
    assert body["K"] > 1.0 and body["alpha"] > 0.0
    assert body["multiplier"] == pytest.approx(body["K"] / (body["K"] - 1.0))
    code, out, _ = run(capsys, "bounds", "--variant", "fast",
                       "--n", 4, "--p", 6, "--m", 100000, "--x", 2,
                       "--k", 2, "--delta", 0.5, "--K", 2.0, "--alpha", 1.0,
                       "--out", tmp_path)
    assert code == 0
    assert "K" not in json.loads(out)  # explicit K: no grid search, no echo


def test_bounds_fast_prints_the_given_alpha_or_alpha_star(capsys, tmp_path):
    from scipy.special import lambertw

    base = ["bounds", "--variant", "fast", "--n", 4, "--p", 6,
            "--m", 100000, "--x", 2, "--k", 2, "--delta", 0.5, "--out", tmp_path]
    code, out, _ = run(capsys, *base, "--alpha", 0.25)
    assert code == 0 and json.loads(out)["alpha"] == 0.25  # the K search keeps it
    # alpha* = W(cm)/c, c = C^2 / (2 480^2 (d+1)), C = 4k/(1 - delta) = 16, d = np = 24
    c = 16.0 ** 2 / (2.0 * 480.0 ** 2 * 25.0)
    alpha_star = float(lambertw(c * 100000).real) / c
    for extra in ((), ("--K", 2.0)):
        code, out, _ = run(capsys, *base, *extra)
        assert code == 0
        assert json.loads(out)["alpha"] == pytest.approx(alpha_star, rel=1e-13)


def test_bounds_fast_at_small_m(capsys, tmp_path):
    # a fixed alpha of 16 or more would make every m <= 16 exit 1
    code, out, err = run(capsys, "bounds", "--variant", "fast",
                         "--n", 8, "--p", 12, "--m", 10, "--x", 2, "--lambda", 1,
                         "--out", tmp_path)
    assert code == 0, err
    assert 0.0 < json.loads(out)["alpha"] < 10.0


@pytest.mark.parametrize("extra, message", [
    (("--lambda", 1, "--delta", 0.5), "--delta bounds the k-sparse class"),
    (("--lambda", 1, "--K", 2.0), "--variant slow does not read them"),
    (("--k", 2, "--delta", 0.5, "--alpha", 1.0), "--variant slow does not read them"),
], ids=["l1-delta", "slow-K", "slow-alpha"])
def test_bounds_unread_values_are_refused(capsys, tmp_path, extra, message):
    code, _, err = run(capsys, "bounds", "--variant", "slow", "--n", 2, "--p", 2,
                       "--m", 10000, "--x", 2, *extra, "--out", tmp_path)
    assert code == 1 and message in err
    assert not (tmp_path / "bounds_manifest.json").exists()


def test_bounds_inapplicable_is_runtime_error(capsys, tmp_path):
    code, _, err = run(capsys, "bounds", "--variant", "maurer",
                       "--n", 2, "--p", 2, "--m", 1, "--x", 2,
                       "--lambda", 0.1, "--out", tmp_path)
    assert code == 1 and err.startswith("error: ")


# ------------------------------------------------------------------ learn


def test_learn_synth_writes_dictionary_and_trace(capsys, tmp_path):
    out_csv = tmp_path / "DICT.csv"
    code, out, _ = run(capsys, "learn", "--synth", "dict:n=8,ptrue=4,ktrue=1,sigma=0,m=64",
                       "--p", 4, "--k", 1, "--iters", 4, "--seed", 3, "--out", out_csv)
    assert code == 0
    trace = [float(v) for v in out.strip().split(",")]
    assert len(trace) == 4
    assert all(0.0 <= v <= 1.0 and np.isfinite(v) for v in trace)
    learned = load_dictionary(out_csv)
    assert validate_dictionary(learned, normalized=True) == []
    assert (tmp_path / "learn_manifest.json").exists()


def test_learn_from_data_file(capsys, tmp_path):
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((40, 5))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    data = tmp_path / "signals.csv"
    save_matrix(data, rows)
    out_csv = tmp_path / "learned.csv"
    code, out, _ = run(capsys, "learn", "--data", data, "--p", 3, "--lambda", 1.0,
                       "--iters", 3, "--out", out_csv)
    assert code == 0 and out_csv.exists()
    manifest = RunManifest.from_json((tmp_path / "learn_manifest.json").read_text())
    assert str(data) in manifest.input_digests


def test_learn_greedy_l1_is_refused(capsys, tmp_path):
    # there is no greedy l1 coder, so --greedy with --lambda would be ignored
    code, _, err = run(capsys, "learn", "--synth", "sphere:n=5,m=20", "--p", 3,
                       "--lambda", 1, "--greedy", "--out", tmp_path / "d.csv")
    assert code == 1 and "no greedy l1 coder" in err
    assert not (tmp_path / "d.csv").exists()


def test_learn_synth_requires_m(capsys, tmp_path):
    code, _, err = run(capsys, "learn", "--synth", "sphere:n=5", "--p", 3,
                       "--k", 1, "--out", tmp_path / "d.csv")
    assert code == 1 and "m=" in err


@pytest.mark.parametrize("spec, p, message", [
    ("sphere:n", 3, "bad synth spec item 'n'"),
    ("sphere:n=5,n=6", 3, "bad synth spec item 'n=6'"),
    ("sphere:m=20", 3, "synth spec needs n=<dimension>"),
    ("sphere:n=5,ptrue=3", 3, "sphere spec does not take ['ptrue']"),
    ("dict:n=5,ptrue=0", 3, "dict spec needs ptrue=<atoms> (or a --p to default to)"),
    ("dict:n=5", 0, "dict spec needs ptrue=<atoms> (or a --p to default to)"),
    ("dict:n=5,ptrue=3,tau=1", 3, "dict spec does not take ['tau']"),
    ("cube:n=5", 3, "unknown synth kind 'cube'; use sphere or dict"),
    ("dict:n=8.5", 3, "synth spec n=8.5 is not an integer"),
    ("dict:n=8,sigma=abc", 3, "synth spec sigma=abc is not a number"),
], ids=["item", "repeat", "no-n", "sphere-extra", "ptrue-0", "p-0", "dict-extra", "kind", "int-field",
        "float-field"])
def test_bad_synth_spec_fails_the_cli(capsys, tmp_path, spec, p, message):
    code, _, err = run(capsys, "gengap", "--synth", spec, "--p", p, "--k", 1,
                       "--mgrid", 12, "--test-size", 20, "--out", tmp_path / "g")
    assert code == 1 and err == f"error: {message}\n"
    assert not (tmp_path / "g").exists()


# ---------------------------------------------------------------- mc-babel


def test_mc_babel_outputs(capsys, tmp_path):
    out_dir = tmp_path / "mc"
    code, out, _ = run(capsys, "mc-babel", "--n", 30, "--p", 6, "--k", 2,
                       "--trials", 10, "--seed", 5, "--out", out_dir)
    assert code == 0
    assert out.startswith("empirical=") and " bound=" in out
    empirical = float(out.split()[0].split("=")[1])
    assert 0.0 <= empirical <= 1.0
    csv_text = (out_dir / "mc_babel.csv").read_text()
    assert csv_text.splitlines()[0] == CSV_HEADER
    assert len(csv_text.splitlines()) == 11


# ------------------------------------------------------------------ gengap


def test_gengap_outputs_and_small_test_note(capsys, tmp_path):
    out_dir = tmp_path / "gg"
    code, out, err = run(capsys, "gengap", "--synth", "dict:n=6,ptrue=8,ktrue=2,sigma=0",
                         "--p", 8, "--k", 2, "--mgrid", "64,128", "--test-size", 400,
                         "--iters", 4, "--variants", "slow", "--out", out_dir)
    assert code == 0
    assert "below the recommended 10000" in err
    lines = out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("m=64 ") and lines[1].startswith("m=128 ")
    csv_lines = (out_dir / "gengap.csv").read_text().splitlines()
    assert csv_lines[0] == CSV_HEADER and len(csv_lines) == 3


def test_gengap_rejects_m_in_synth_spec(capsys, tmp_path):
    code, _, err = run(capsys, "gengap", "--synth", "sphere:n=5,m=100", "--p", 3,
                       "--k", 1, "--mgrid", "32", "--test-size", 100, "--out", tmp_path)
    assert code == 1 and "--mgrid" in err


@pytest.mark.parametrize("variants, shown", [("", "[]"), ("slow,slow", "['slow', 'slow']")],
                         ids=["empty", "repeat"])
def test_gengap_refuses_empty_or_repeated_variants(capsys, tmp_path, variants, shown):
    # an empty list would write a header-only gengap.csv, a repeated name every record twice
    code, _, err = run(capsys, "gengap", "--synth", "sphere:n=5", "--p", 3, "--k", 1, "--mgrid", 12,
                       "--test-size", 20, "--variants", variants, "--out", tmp_path / "g")
    assert code == 1 and err == f"error: variants must be nonempty and distinct, got {shown}\n"
    assert not (tmp_path / "g").exists()


# ------------------------------------------------------- demo-nonlipschitz


def test_demo_nonlipschitz_outputs(capsys, tmp_path):
    out_dir = tmp_path / "demo"
    code, out, _ = run(capsys, "demo-nonlipschitz", "--n", 8, "--p", 8, "--k", 2,
                       "--eps", 1e-3, "--out", out_dir)
    assert code == 0
    fields = dict(part.split("=") for part in out.split())
    assert float(fields["ratio"]) >= 50.0
    assert float(fields["h_perturbed"]) <= 1e-10
    assert float(fields["distance"]) <= 1e-3 + 1e-12
    d = load_dictionary(out_dir / "d.csv")
    d_prime = load_dictionary(out_dir / "d_prime.csv")
    assert validate_dictionary(d, normalized=True) == []
    assert validate_dictionary(d_prime, normalized=True) == []
    q = load_signal(out_dir / "q.csv")
    assert abs(q.norm() - 1.0) < 1e-9


# -------------------------------------------------------------- manifests


def test_manifest_roundtrip_and_argv():
    manifest = RunManifest(subcommand="mc-babel",
                           params={"n": 30, "p": 6, "k": 2, "trials": 10,
                                   "threshold": 0.5, "seed": 5, "out": "dir",
                                   "threads": 1, "brute": False, "lam": None},
                           seed=5)
    again = RunManifest.from_json(manifest.to_json())
    assert again == manifest
    # extra keys are ignored; a missing field raises
    body = json.loads(manifest.to_json())
    assert RunManifest.from_json(json.dumps({**body, "extra": 1})) == manifest
    del body["log_base"]
    with pytest.raises(KeyError, match="log_base"):
        RunManifest.from_json(json.dumps(body))
    argv = argv_from_manifest(manifest)
    assert argv[0] == "mc-babel"
    assert "--brute" not in argv and "--lam" not in argv and "--lambda" not in argv
    assert argv[argv.index("--threshold") + 1] == "0.5"
    # a True flag is the bare flag
    brute = RunManifest(subcommand="babel", params={"dict": "d.csv", "k": 2, "brute": True}, seed=0)
    assert argv_from_manifest(brute) == ["babel", "--brute", "--dict", "d.csv", "--k", "2"]


# One case per subcommand (learn twice, once per data source): a succeeding
# argv, the input files it names, and an argv that fails after parsing.
# "{D}", "{X}", "{P}" and "{S}" stand for a dictionary, a signal, atom
# pre-images and a signals file; learn's --out names the dictionary it writes.
PROTOCOL = {
    "babel": (["--dict", "{D}", "--k", 1], ["{D}"], ["--dict", "{D}", "--k", 2]),
    "code": (["--dict", "{D}", "--signal", "{X}", "--k", 1], ["{D}", "{X}"],
             ["--dict", "{D}", "--signal", "{X}", "--lambda", 1, "--exact"]),
    "kcode": (["--kernel", "linear", "--dict", "{P}", "--signal", "{X}", "--k", 1], ["{P}", "{X}"],
              ["--kernel", "gaussian:-1", "--dict", "{P}", "--signal", "{X}", "--k", 1]),
    "bounds": (["--variant", "slow", "--n", 2, "--p", 2, "--m", 10000, "--x", 2, "--lambda", 1], [],
               ["--variant", "slow", "--n", 2, "--p", 2, "--m", 10000, "--x", 2, "--lambda", 1,
                "--delta", 0.5]),
    "learn-data": (["--data", "{S}", "--p", 2, "--lambda", 1, "--iters", 2], ["{S}"],
                   ["--data", "{S}", "--p", 2, "--lambda", 1, "--greedy"]),
    "learn-synth": (["--synth", "sphere:n=2,m=12", "--p", 2, "--k", 1, "--iters", 2], [],
                    ["--synth", "sphere:n=2", "--p", 2, "--k", 1]),
    "mc-babel": (["--n", 6, "--p", 4, "--k", 1, "--trials", 3], [],
                 ["--n", 6, "--p", 4, "--k", 1, "--trials", 0]),
    "gengap": (["--synth", "sphere:n=2", "--p", 2, "--k", 1, "--mgrid", 16, "--test-size", 20,
                "--iters", 2, "--variants", "slow"], [],
               ["--synth", "sphere:n=2,m=16", "--p", 2, "--k", 1, "--mgrid", 16]),
    "demo-nonlipschitz": (["--n", 8, "--p", 8, "--k", 2, "--eps", 1e-3], [],
                          ["--n", 8, "--p", 8, "--k", 2, "--eps", 2]),
}


@pytest.fixture
def protocol_files(tmp_path, pair_dict, e2_signal):
    path, d = pair_dict
    points, signals = tmp_path / "points.csv", tmp_path / "signals.csv"
    save_matrix(points, d.atoms.T)  # one atom pre-image per row
    save_matrix(signals, np.tile(np.eye(2), (6, 1)))  # one signal per row
    return {"{D}": str(path), "{X}": str(e2_signal), "{P}": str(points), "{S}": str(signals)}


@pytest.mark.parametrize("case", list(PROTOCOL))
def test_run_protocol_writes_one_manifest_on_success_only(capsys, tmp_path, protocol_files, case):
    good, inputs, bad = PROTOCOL[case]
    subcommand = "learn" if case.startswith("learn") else case
    out = tmp_path / "out"
    target = out / "learned.csv" if subcommand == "learn" else out

    def argv(args):
        return [subcommand, *(protocol_files.get(str(a), a) for a in args), "--out", target]

    code, _, err = run(capsys, *argv(bad))
    assert code == 1 and err.startswith("error: ")
    assert list(tmp_path.rglob("*_manifest.json")) == []

    code, _, err = run(capsys, *argv(good))
    assert code == 0, err
    name = subcommand.replace("-", "_") + "_manifest.json"
    assert list(tmp_path.rglob("*_manifest.json")) == [out / name]
    manifest = RunManifest.from_json((out / name).read_text())
    named = [protocol_files[token] for token in inputs]
    assert manifest.input_digests == {
        path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in named}


def test_manifest_write_error_exits_1(capsys, tmp_path):
    # --out names a file, so the manifest's directory cannot be made
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = run(capsys, "bounds", "--variant", "slow", "--n", 2, "--p", 2, "--m", 10000,
                       "--x", 2, "--lambda", 1, "--out", blocker)
    assert code == 1 and err.startswith("error: ")
    assert list(tmp_path.rglob("*_manifest.json")) == []


def test_manifest_rerun_reproduces_bytes(capsys, tmp_path):
    dir1, dir2 = tmp_path / "one", tmp_path / "two"
    assert run(capsys, "mc-babel", "--n", 25, "--p", 5, "--k", 2, "--trials", 8,
               "--seed", 9, "--out", dir1)[0] == 0
    manifest = RunManifest.from_json((dir1 / "mc_babel_manifest.json").read_text())
    params = dict(manifest.params, out=str(dir2), threads=4)
    rerun = RunManifest(subcommand=manifest.subcommand, params=params, seed=manifest.seed)
    assert main(argv_from_manifest(rerun)) == 0
    capsys.readouterr()
    assert (dir1 / "mc_babel.csv").read_bytes() == (dir2 / "mc_babel.csv").read_bytes()


def test_gengap_manifest_rerun_identical_csv(capsys, tmp_path):
    dir1, dir2 = tmp_path / "g1", tmp_path / "g2"
    base = ["gengap", "--synth", "dict:n=5,ptrue=6,ktrue=1,sigma=0", "--p", "6",
            "--k", "1", "--mgrid", "32,64", "--test-size", "200", "--iters", "3",
            "--variants", "maurer,slow", "--seed", "2"]
    assert main(base + ["--out", str(dir1)]) == 0
    manifest = RunManifest.from_json((dir1 / "gengap_manifest.json").read_text())
    params = dict(manifest.params, out=str(dir2), threads=3)
    rerun = RunManifest(subcommand=manifest.subcommand, params=params, seed=manifest.seed)
    assert main(argv_from_manifest(rerun)) == 0
    capsys.readouterr()
    assert (dir1 / "gengap.csv").read_bytes() == (dir2 / "gengap.csv").read_bytes()
