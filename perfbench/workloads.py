"""The benchmark's workloads: input construction (set-up), the timed
invocation, and the output checks, which run with the clock stopped.

A child process builds one workload object, calls `setup`, runs each of
its `steps` once under the clock, then calls `output_bytes` and `check`.  Every workload draws
its inputs from the benchmark seed alone, and the checks are the same
for every seed.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

# CLI output directories, relative to the checkout root (the child's cwd).
WORK_DIR = Path(".bench_out") / "work"

# How many columns of each evaluation batch the recoding check re-solves
# one signal at a time, and the agreement it demands.
RECODE_SAMPLE = 4
EXACT_TOL = 1e-9
L1_TOL = 1e-6
BABEL_TOL = 1e-12
BABEL_SAMPLE = 16
GRAM_DIAG_TOL = 1e-12
LINEAR_TOL = 1e-10
LINEAR_SAMPLE = 8


def _spread(count: int, take: int) -> np.ndarray:
    """Up to `take` indices spread evenly over range(count)."""
    return np.unique(np.linspace(0, count - 1, min(take, count)).round().astype(int))


def _sphere_rows(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    g = rng.standard_normal((rows, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


class CliWorkload:
    """One `dlbounds` command run through `cli.main` in-process, once per
    instance: instance j takes the CLI seed `seed * instances + j` and its
    own output directory.  The output is stdout, stderr and every file
    written."""

    # Blocks in the calibration mix (see child.calibrate): these commands
    # spend their time in numpy calls on arrays of thousands of entries.
    calibration_blocks = 60

    def __init__(self, name: str, argv: list[str], items: int, item_unit: str, instances: int = 1):
        self.name, self.base_argv, self.item_unit, self.instances = name, argv, item_unit, instances
        self.items = items * instances

    def setup(self, seed: int, tracer) -> None:
        from dlbounds import cli

        self.cli, self.seed = cli, seed
        self.out = WORK_DIR / self.name
        shutil.rmtree(self.out, ignore_errors=True)
        self.cli_seeds = [seed * self.instances + j for j in range(self.instances)]
        self.argvs = [[*self.base_argv, "--seed", str(s), "--out", str(self.out / str(j))]
                      for j, s in enumerate(self.cli_seeds)]

    def steps(self, span) -> list:
        """One step per instance, each a call to `cli.main`."""
        self.rcs, self.stdout, self.stderr = [], io.StringIO(), io.StringIO()

        def step(argv):
            with redirect_stdout(self.stdout), redirect_stderr(self.stderr), span("cli.main"):
                self.rcs.append(self.cli.main(argv))

        return [functools.partial(step, argv) for argv in self.argvs]

    def output_bytes(self) -> bytes:
        files = sorted(self.out.rglob("*")) if self.out.is_dir() else []
        return b"\0".join([self.stdout.getvalue().encode(), self.stderr.getvalue().encode(),
                           *(str(p).encode() + b"\0" + p.read_bytes() for p in files if p.is_file())])

    def check(self) -> list[str]:
        if any(self.rcs):
            return [f"exit codes {self.rcs}: {self.stderr.getvalue().strip()[-300:]}"]
        return []

    def traced_extras(self, layers: dict) -> dict:
        return {}

    def _csv_rows(self, instance: int, filename: str) -> list[dict]:
        text = (self.out / str(instance) / filename).read_text(encoding="ascii")
        return list(csv.DictReader(io.StringIO(text)))


class GengapWorkload(CliWorkload):
    """`dlbounds gengap`: learn at each m, code the train and test sets,
    evaluate the bounds.  Checks every applicable record's stat <= bound,
    and recodes sampled columns of each evaluation batch with the
    single-signal coder."""

    # The l1 solver works on blocks like the calibration's; weight them more.
    L1_CALIBRATION_BLOCKS = 240

    def __init__(self, name: str, synth: str, p: int, mgrid: tuple[int, ...], test_size: int,
                 iters: int, k: int | None = None, lam: float | None = None, instances: int = 1):
        self.k, self.lam, self.mgrid = k, lam, mgrid
        sparsity = ["--k", str(k)] if k is not None else ["--lambda", repr(lam)]
        argv = ["gengap", "--synth", synth, "--p", str(p), *sparsity,
                "--mgrid", ",".join(map(str, mgrid)), "--iters", str(iters),
                "--test-size", str(test_size)]
        # learner: iters coding steps over m signals; then train and test evaluation
        items = sum((iters + 1) * m + test_size for m in mgrid)
        super().__init__(name, argv, items, "signal codings", instances)
        if lam is not None:
            self.calibration_blocks = self.L1_CALIBRATION_BLOCKS

    def setup(self, seed: int, tracer) -> None:
        super().setup(seed, tracer)
        from dlbounds import experiments

        # The harness's evaluation batches are captured at their call site
        # (a few columns and their errors), for the recoding check.
        attr = "exact_ksparse_batch" if self.k is not None else "l1_solve_batch"
        original = getattr(experiments, attr)
        self.captured = []

        @functools.wraps(original)
        def capture(d, signals, *rest):
            result = original(d, signals, *rest)
            cols = _spread(signals.shape[1], RECODE_SAMPLE)
            self.captured.append((d, signals[:, cols].copy(), np.asarray(result[1])[cols].copy()))
            return result

        setattr(experiments, attr, capture)

    def check(self) -> list[str]:
        problems = super().check()
        if problems:
            return problems
        from dlbounds.coders import exact_ksparse, l1_solve

        for j in range(self.instances):
            rows = self._csv_rows(j, "gengap.csv")
            if not rows:
                problems.append(f"instance {j}: gengap.csv holds no records")
            for r in rows:
                if r["applicable"] == "true" and not float(r["stat"]) <= float(r["bound"]):
                    problems.append(f"instance {j}, record {r['trial']}: "
                                    f"stat {r['stat']} > bound {r['bound']}")
        expected = 2 * len(self.mgrid) * self.instances
        if len(self.captured) != expected:
            problems.append(f"saw {len(self.captured)} evaluation batches, expected {expected}")
        for d, x, batch_errors in self.captured:
            for j in range(x.shape[1]):
                if self.k is not None:
                    single, tol = exact_ksparse(d, x[:, j], self.k).error, EXACT_TOL
                else:
                    single, tol = l1_solve(d, x[:, j], self.lam).error, L1_TOL
                if not abs(single - batch_errors[j]) <= tol:
                    problems.append(f"single-signal error {single!r} vs batch "
                                    f"{batch_errors[j]!r} (tolerance {tol:g})")
        return problems


class McBabelWorkload(CliWorkload):
    """`dlbounds mc-babel` on one thread.  Checks sampled rows against the
    brute-force Babel oracle.  The traced run also times the same trials on
    a thread pool of `pool_threads`."""

    def __init__(self, name: str, n: int, p: int, k: int, trials: int, pool_threads: int):
        self.n, self.p, self.k, self.trials, self.pool_threads = n, p, k, trials, pool_threads
        argv = ["mc-babel", "--n", str(n), "--p", str(p), "--k", str(k),
                "--trials", str(trials), "--threads", "1"]
        super().__init__(name, argv, trials, "dictionaries")

    def check(self) -> list[str]:
        problems = super().check()
        if problems:
            return problems
        from dlbounds.coherence import babel_bruteforce
        from dlbounds.core import Dictionary, substream, uniform_sphere_matrix

        rows = self._csv_rows(0, "mc_babel.csv")
        if len(rows) != self.trials:
            return [f"mc_babel.csv holds {len(rows)} rows, expected {self.trials}"]
        for i in _spread(self.trials, BABEL_SAMPLE):
            atoms = uniform_sphere_matrix(self.n, self.p, substream(self.cli_seeds[0], int(i)))
            oracle = babel_bruteforce(Dictionary(atoms), self.k).value
            stat = float(rows[i]["stat"])
            if not abs(stat - oracle) <= BABEL_TOL:
                problems.append(f"trial {i}: babel {stat!r} vs brute force {oracle!r}")
        return problems

    def traced_extras(self, layers: dict) -> dict:
        """The same trials on the thread pool, untraced, and its speedup."""
        from dlbounds.experiments import mc_babel

        start = time.perf_counter()
        mc_babel(self.n, self.p, self.k, self.trials, seed=self.cli_seeds[0],
                 threads=self.pool_threads)
        pooled = time.perf_counter() - start
        return {"experiments.mc_babel.pool_s": pooled,
                "experiments.mc_babel.thread_speedup":
                    layers["experiments.mc_babel.busy_s"] / pooled}


class KernelCodeWorkload:
    """Library calls on the kernel layer: Gram build, kernel validation,
    kernel greedy coding, feature-space Babel values and the kernel bounds.
    Checks the Gram diagonal, and recodes sampled signals under the linear
    kernel against the Euclidean greedy coder."""

    item_unit = "signals"
    # Scalar kernel calls from Python: no large blocks in its calibration.
    calibration_blocks = 0

    def __init__(self, name: str, dim: int, p: int, signals: int, k: int, kernel: str):
        self.name, self.dim, self.p, self.items, self.k, self.kernel = name, dim, p, signals, k, kernel

    def setup(self, seed: int, tracer) -> None:
        from dlbounds import bounds, core, kernels

        self.kernels, self.bounds, self.core = kernels, bounds, core
        rng = np.random.default_rng(seed)
        self.points = _sphere_rows(rng, self.p, self.dim)  # atom pre-images, one per row
        self.signals = _sphere_rows(rng, self.items, self.dim)
        self.kf = kernels.kernel_from_name(self.kernel)
        if tracer is not None:
            self.kf = dataclasses.replace(self.kf, fn=tracer.counted(self.kf.fn, "kernels.kernel_evals"))

    def steps(self, span) -> list:
        return [self._run]

    def _run(self) -> None:
        kernels, kf = self.kernels, self.kf
        self.kd = kernels.KernelDictionary.build(self.points, kf)
        self.report = kernels.validate_kernel(kf, self.points)
        self.codes = [kernels.kernel_greedy_ksparse(x, self.kd, kf, self.k) for x in self.signals]
        self.babels = [kernels.feature_babel(self.kd, j).value for j in range(1, self.k)]
        holder_l, holder_alpha = kf.smoothness
        inputs = self.bounds.BoundInputs(n=self.dim, p=self.p, m=self.items, x=2.0, k=self.k,
                                         delta=self.babels[-1], cover_c=1.0,
                                         holder_l=holder_l, holder_alpha=holder_alpha)
        self.bound_reports = []
        for variant in kernels.KERNEL_VARIANTS:
            try:
                self.bound_reports.append(kernels.kernel_gen_bound(inputs, variant).to_dict())
            except self.core.InapplicableError as exc:
                self.bound_reports.append(f"inapplicable: {exc}")

    def output_bytes(self) -> bytes:
        summary = {"report": self.report, "babels": self.babels, "bounds": self.bound_reports,
                   "codes": [[c.error, list(c.coeffs.support), c.coeffs.values.tolist()]
                             for c in self.codes]}
        return self.kd.gram.tobytes() + json.dumps(summary, sort_keys=True).encode()

    def check(self) -> list[str]:
        kernels = self.kernels
        from dlbounds.coders import greedy_ksparse

        problems = []
        worst = float(np.abs(np.diag(self.kd.gram) - 1.0).max())
        if not worst <= GRAM_DIAG_TOL:
            problems.append(f"Gram diagonal is off 1 by {worst:.3g}")
        linear = kernels.linear_kernel()
        kd_linear = kernels.KernelDictionary.build(self.points, linear)
        euclid = self.core.Dictionary(self.points.T)
        for j in _spread(self.items, LINEAR_SAMPLE):
            x = self.signals[j]
            kernel_err = kernels.kernel_greedy_ksparse(x, kd_linear, linear, self.k).error
            euclid_err = greedy_ksparse(euclid, x, self.k).error
            if not abs(kernel_err - euclid_err) <= LINEAR_TOL:
                problems.append(f"signal {j}: linear-kernel greedy error {kernel_err!r} vs "
                                f"Euclidean {euclid_err!r}")
        return problems

    def traced_extras(self, layers: dict) -> dict:
        return {}


def make(name: str, nproc: int):
    """A fresh workload object by name."""
    if name == "gengap-ksparse":
        return GengapWorkload(name, "dict:n=64,ptrue=8,ktrue=3,sigma=0", p=8, mgrid=(600,),
                              test_size=10_000, iters=50, k=3)
    if name == "gengap-l1":
        # The l1 solver's work varies by about 20% from one synthetic
        # problem to the next; ten instances per invocation keep the
        # workload's time steady across seeds.
        return GengapWorkload(name, "dict:n=8,ptrue=12,ktrue=2,sigma=0", p=12, mgrid=(128, 256),
                              test_size=2000, iters=20, lam=1.0, instances=10)
    if name == "mc-babel":
        # Timed on one thread: on a shared two-core host the pool's speedup
        # follows the neighbours' load (1.0x to 1.6x between runs), which
        # would swamp any change to the library.  The pool, one thread per
        # core and at most two, is timed in the traced run.
        return McBabelWorkload(name, n=5000, p=10, k=1, trials=1000, pool_threads=min(2, nproc))
    if name == "kernel-code":
        return KernelCodeWorkload(name, dim=16, p=400, signals=500, k=4, kernel="gaussian:0.8")
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("gengap-ksparse", "gengap-l1", "mc-babel", "kernel-code")
