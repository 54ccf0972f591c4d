"""Command-line entry point: one subcommand per workflow, a JSON manifest
per run.

Exit codes: 0 success, 2 bad arguments (argparse), 1 computation or I/O
errors (single-line diagnostic on stderr).  Once a subcommand has
succeeded, `main` writes `<dir>/<subcommand>_manifest.json` (dashes as
underscores) recording the full parameter set, seed, version, and
input-file digests; a run that fails writes none.  Feeding that
manifest back through `argv_from_manifest` reproduces the run — and its
CSV outputs — byte for byte.  A manifest's seed is null for a subcommand
without `--seed`; one that records a flag the parser has since dropped
(seed, threads or family) exits 2 on replay.  `--threads` only sizes worker
pools whose results merge in index order, so it never changes output bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import __version__
from .core import (
    Dictionary,
    as_count,
    load_dictionary,
    load_matrix,
    load_signal,
    save_dictionary,
    save_signal,
    substream,
    uniform_sphere_matrix,
)
from .coherence import babel, babel_bruteforce
from .coders import repr_error
from .bounds import (
    BoundInputs,
    ksparse_generalization_bound,
    l1_generalization_bound,
    optimize_fast_params,
)
from .kernels import KernelDictionary, kernel_from_name, kernel_greedy_ksparse
from .learn import (
    INIT_KINDS,
    HardK,
    L1Ball,
    LearnerConfig,
    dictionary_source,
    learn_dictionary,
    sphere_source,
    synth_sample,
)
from .experiments import (
    FAST_K_GRID,
    gengap_run,
    mc_babel,
    nonlipschitz_demo,
    records_to_csv,
)

LOG_BASE_NOTE = "all logarithms natural (base e)"

# Substream reserved for drawing a synthetic source's ground dictionary.
TRUTH_STREAM = 2**21

# argparse dest -> flag, where the default "--" + dest.replace("_", "-")
# rule does not apply.
_FLAG_EXCEPTIONS = {"lam": "--lambda"}


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to repeat a run: subcommand, parameters, seed
    (None for a subcommand that takes none), artifact version, input
    digests, and the logarithm convention."""

    subcommand: str
    params: dict
    seed: int | None
    version: str = __version__
    input_digests: dict = field(default_factory=dict)
    log_base: str = LOG_BASE_NOTE

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        """The manifest of a JSON text: a missing field raises KeyError,
        and extra keys are ignored."""
        body = json.loads(text)
        return cls(**{f.name: body[f.name] for f in fields(cls)})


def argv_from_manifest(manifest: RunManifest) -> list[str]:
    """Reconstruct the argv of a recorded run (flag order normalized)."""
    argv = [manifest.subcommand]
    for dest in sorted(manifest.params):
        value = manifest.params[dest]
        if value is None or value is False:
            continue
        flag = _FLAG_EXCEPTIONS.get(dest, "--" + dest.replace("_", "-"))
        if value is True:
            argv.append(flag)
        else:
            argv.extend([flag, repr(value) if isinstance(value, float) else str(value)])
    return argv


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(args, out_dir: Path) -> None:
    """Write `<out_dir>/<subcommand>_manifest.json`.  The input files are
    the ones the parsed arguments name under `dict`, `signal` and `data`,
    each recorded by its path as given and its sha256."""
    params = {k: v for k, v in vars(args).items() if k not in ("func", "subcommand")}
    digests = {params[k]: _digest(params[k]) for k in ("dict", "signal", "data")
               if params.get(k) is not None}
    manifest = RunManifest(subcommand=args.subcommand, params=params, seed=params.get("seed"),
                           input_digests=digests)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = manifest.subcommand.replace("-", "_") + "_manifest.json"
    (out_dir / name).write_text(manifest.to_json(), encoding="ascii")


def _print_coding(result) -> None:
    print(",".join(repr(float(v)) for v in result.coeffs.values))
    print(repr(result.error))


def _parse_synth(spec: str, seed: int, default_p: int | None):
    """Parse a synthetic-source spec: "sphere:n=N" or
    "dict:n=N,ptrue=P,ktrue=K,sigma=S", optionally with "m=M" (sample
    count, consumed by the caller).  Returns (source, m or None)."""
    kind, _, rest = spec.partition(":")
    fields: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq or not key or key in fields:
                raise ValueError(f"bad synth spec item {item!r}")
            fields[key] = value

    def number(key: str, cast, default):
        """fields[key] (default when absent) read by cast; a bad number names its field."""
        value = fields.pop(key, default)
        try:
            return value if value is None else cast(value)
        except ValueError:
            what = "an integer" if cast is int else "a number"
            raise ValueError(f"synth spec {key}={value} is not {what}") from None

    n = number("n", int, None)
    if n is None:
        raise ValueError("synth spec needs n=<dimension>")
    m = number("m", int, None)
    if kind == "sphere":
        if fields:
            raise ValueError(f"sphere spec does not take {sorted(fields)}")
        return sphere_source(n, seed=seed), m
    if kind == "dict":
        ptrue = number("ptrue", int, default_p if default_p is not None else 0)
        if ptrue < 1:
            raise ValueError("dict spec needs ptrue=<atoms> (or a --p to default to)")
        ktrue = number("ktrue", int, 1)
        sigma = number("sigma", float, 0.0)
        if fields:
            raise ValueError(f"dict spec does not take {sorted(fields)}")
        truth = Dictionary(uniform_sphere_matrix(n, ptrue, substream(seed, TRUTH_STREAM)))
        return dictionary_source(truth, k_true=ktrue, sigma=sigma, seed=seed), m
    raise ValueError(f"unknown synth kind {kind!r}; use sphere or dict")


def _constraint(args):
    if getattr(args, "k", None) is not None:
        return HardK(args.k)
    return L1Ball(args.lam)


def _learner_config(args) -> LearnerConfig:
    return LearnerConfig(p=args.p, constraint=_constraint(args), iterations=args.iters,
                         seed=args.seed, init=args.init, exact_coder=not args.greedy)


# --------------------------------------------------------------------------
# Subcommand bodies.  Each returns the directory its outputs went to; main
# writes the run manifest there once the body has succeeded.
# --------------------------------------------------------------------------


def _cmd_babel(args) -> Path:
    d = load_dictionary(args.dict)
    fn = babel_bruteforce if args.brute else babel
    print(f"{fn(d, args.k).value:.15g}")
    return Path(args.out)


def _cmd_code(args) -> Path:
    if args.exact and args.lam is not None:
        raise ValueError("--exact is the exhaustive k-sparse search; it needs --k")
    d = load_dictionary(args.dict)
    x = load_signal(args.signal)
    _print_coding(repr_error(d, x, _constraint(args), exact=args.exact))
    return Path(args.out)


def _cmd_kcode(args) -> Path:
    kf = kernel_from_name(args.kernel)
    points = load_matrix(args.dict)  # one atom pre-image per row
    x = load_signal(args.signal)
    kd = KernelDictionary.build(points, kf)
    result = kernel_greedy_ksparse(x, kd, kf, args.k)
    _print_coding(result)
    return Path(args.out)


def _cmd_bounds(args) -> Path:
    if args.k is None and args.delta is not None:
        raise ValueError("--delta bounds the k-sparse class's Babel function and needs --k")
    if args.variant != "fast" and (args.K is not None or args.alpha is not None):
        raise ValueError(f"--K and --alpha set the fast rate; --variant {args.variant} does not read them")
    inputs = BoundInputs(n=args.n, p=args.p, m=args.m, x=args.x, lam=args.lam,
                         k=args.k, delta=args.delta, K=args.K, alpha=args.alpha)
    family = "l1" if args.k is None else "ksparse"
    calc = l1_generalization_bound if family == "l1" else ksparse_generalization_bound
    if args.variant == "fast" and args.K is None:
        k_fast, report = optimize_fast_params(inputs, FAST_K_GRID, family=family)
        body = {**report.to_dict(), "K": k_fast}
    else:
        body = calc(inputs, args.variant).to_dict()
    print(json.dumps(body, sort_keys=True, indent=2))
    return Path(args.out)


def _cmd_learn(args) -> Path:
    if args.data is not None:
        samples = load_matrix(args.data).T  # one signal per row
    else:
        source, m = _parse_synth(args.synth, args.seed, args.p)
        if m is None:
            raise ValueError("synth spec for learn needs m=<sample count>")
        samples = synth_sample(source, m)
    result = learn_dictionary(samples, _learner_config(args))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dictionary(out, result.dictionary)
    print(",".join(repr(v) for v in result.trace))
    return out.parent


def _cmd_mc_babel(args) -> Path:
    result = mc_babel(args.n, args.p, args.k, args.trials, threshold=args.threshold,
                      seed=args.seed, threads=args.threads)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "mc_babel.csv").write_text(records_to_csv(result.records), encoding="ascii")
    print(f"empirical={result.empirical!r} bound={result.bound!r}")
    return out


def _comma_list(flag: str, text: str, cast=str) -> list:
    """The entries of a comma-separated flag value, each read by cast ("" is
    the empty list); an empty entry, or one that cast refuses, names the flag."""
    items = text.split(",") if text else []
    try:
        if "" in items:
            raise ValueError("an entry is empty")
        return [cast(v) for v in items]
    except ValueError as exc:
        raise ValueError(f"{flag} {text!r}: {exc}") from None


def _cmd_gengap(args) -> Path:
    source, m = _parse_synth(args.synth, args.seed, args.p)
    if m is not None:
        raise ValueError("gengap takes its sample sizes from --mgrid, not the synth spec")
    m_grid = _comma_list("--mgrid", args.mgrid, lambda v: as_count(float(v), "each entry"))
    variants = tuple(_comma_list("--variants", args.variants))
    records, points = gengap_run(source, _learner_config(args), m_grid, args.test_size,
                                 variants=variants, x=args.x, threads=args.threads)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "gengap.csv").write_text(records_to_csv(records), encoding="ascii")
    if args.test_size < 10_000:
        print(f"note: test size {args.test_size} is below the recommended 10000", file=sys.stderr)
    for pt in points:
        print(f"m={pt.m} train={pt.train_mean!r} test={pt.test_mean!r} gap={pt.gap!r}")
    return out


def _cmd_demo_nonlipschitz(args) -> Path:
    demo = nonlipschitz_demo(args.n, args.p, args.k, args.eps, seed=args.seed,
                             search_samples=args.samples, target=args.target)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dictionary(out / "d.csv", demo.dictionary)
    save_dictionary(out / "d_prime.csv", demo.perturbed)
    save_signal(out / "q.csv", demo.q)
    print(f"ratio={demo.ratio:.15g} h={demo.h_value:.15g} "
          f"h_perturbed={demo.h_perturbed:.15g} distance={demo.distance:.15g}")
    return out


# --------------------------------------------------------------------------
# Parser assembly.
# --------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, *, seed: bool = False, threads: bool = False) -> None:
    """--out on every subcommand; --seed and --threads where they are read."""
    sub.add_argument("--out", default=".", help="output directory (default .)")
    if seed:
        sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    if threads:
        sub.add_argument("--threads", type=int, default=1, help="worker-pool cap; never changes results")


def _add_sparsity(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="sparsity level (k-sparse family)")
    group.add_argument("--lambda", dest="lam", type=float, help="l1 radius (l1 family)")


def _add_learner(sub: argparse.ArgumentParser) -> None:
    """The options _learner_config reads."""
    sub.add_argument("--p", type=int, required=True, help="atoms to learn")
    _add_sparsity(sub)
    sub.add_argument("--iters", type=int, default=20)
    sub.add_argument("--init", choices=INIT_KINDS, default="sample-atoms")
    sub.add_argument("--greedy", action="store_true", help="greedy coder in the coding step")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlbounds",
        description="Sparse representation errors, Babel functions, and "
                    "generalization-bound calculators for dictionary learning.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    sub = subs.add_parser("babel", help="Babel value of a dictionary file")
    sub.add_argument("--dict", required=True, help="dictionary CSV (atoms as columns)")
    sub.add_argument("--k", type=int, required=True, help="Babel order")
    sub.add_argument("--brute", action="store_true", help="use the guarded brute-force path")
    _add_common(sub)
    sub.set_defaults(func=_cmd_babel)

    sub = subs.add_parser("code", help="sparse-code one signal against a dictionary")
    sub.add_argument("--dict", required=True)
    sub.add_argument("--signal", required=True)
    _add_sparsity(sub)
    sub.add_argument("--exact", action="store_true",
                     help="exhaustive support search instead of greedy (k-sparse only)")
    _add_common(sub)
    sub.set_defaults(func=_cmd_code)

    sub = subs.add_parser("kcode", help="kernelized greedy coding of one signal")
    sub.add_argument("--kernel", required=True, help="linear | gaussian:SIGMA | poly:DEGREE")
    sub.add_argument("--dict", required=True, help="atom pre-images CSV (one point per row)")
    sub.add_argument("--signal", required=True)
    sub.add_argument("--k", type=int, required=True)
    _add_common(sub)
    sub.set_defaults(func=_cmd_kcode)

    sub = subs.add_parser("bounds", help="evaluate a generalization-bound calculator")
    sub.add_argument("--variant", required=True, choices=("maurer", "slow", "fast"))
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--x", type=float, required=True, help="confidence exponent")
    _add_sparsity(sub)
    sub.add_argument("--delta", type=float, help="Babel bound of the k-sparse class")
    sub.add_argument("--K", type=float, help="fast-rate multiplier parameter (K > 1)")
    sub.add_argument("--alpha", type=float, help="fast-rate localization weight")
    _add_common(sub)
    sub.set_defaults(func=_cmd_bounds)

    sub = subs.add_parser("learn", help="alternating-minimization dictionary learner")
    data = sub.add_mutually_exclusive_group(required=True)
    data.add_argument("--data", help="signals CSV, one signal per row")
    data.add_argument("--synth", help="sphere:n=N,m=M | dict:n=N,ptrue=P,ktrue=K,sigma=S,m=M")
    _add_learner(sub)
    # learn runs on one thread; it takes --threads so that a manifest replayed
    # with a --threads override (acceptance criterion 10) still parses
    _add_common(sub, seed=True, threads=True)
    sub.set_defaults(func=_cmd_learn)
    # --out here is the output dictionary CSV path; the manifest lands next to it.

    sub = subs.add_parser("mc-babel", help="Monte Carlo Babel tail of random dictionaries")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--trials", type=int, required=True)
    sub.add_argument("--threshold", type=float, default=0.5)
    _add_common(sub, seed=True, threads=True)
    sub.set_defaults(func=_cmd_mc_babel)

    sub = subs.add_parser("gengap", help="generalization-gap harness on synthetic data")
    sub.add_argument("--synth", required=True, help="sphere:n=N | dict:n=N,ptrue=P,ktrue=K,sigma=S")
    _add_learner(sub)
    sub.add_argument("--mgrid", required=True, help="comma-separated training sizes")
    sub.add_argument("--test-size", type=int, default=20_000)
    sub.add_argument("--variants", default="maurer,slow,fast")
    sub.add_argument("--x", type=float, default=2.0, help="confidence exponent")
    _add_common(sub, seed=True, threads=True)
    sub.set_defaults(func=_cmd_gengap)

    sub = subs.add_parser("demo-nonlipschitz",
                          help="witness pair: representation error is not Lipschitz in D")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--eps", type=float, required=True)
    sub.add_argument("--target", type=float, default=0.05)
    sub.add_argument("--samples", type=int, default=10**5)
    _add_common(sub, seed=True)
    sub.set_defaults(func=_cmd_demo_nonlipschitz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/diagnostics
        return int(exc.code or 0)
    try:
        _write_manifest(args, args.func(args))
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
