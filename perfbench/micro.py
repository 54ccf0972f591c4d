"""Single-layer timings at the sizes of the ROADMAP baseline table, each
the median of repeated calls on inputs drawn from the benchmark seed."""

from __future__ import annotations

import statistics
import time

import numpy as np

# Each row repeats until it has run REPEAT_BUDGET_S seconds and at least
# MIN_REPEATS times.
REPEAT_BUDGET_S = 0.4
MIN_REPEATS = 3
MAX_REPEATS = 50

MICRO_METRICS = {
    "micro.exact_ksparse_batch.n64_p8_k3_N600_s": "s",
    "micro.exact_ksparse_batch.n16_p20_k3_N1000_s": "s",
    "micro.l1_solve_batch.n6_p8_N50_lam2_s": "s",
    "micro.l1_solve_batch.n6_p8_N50_lam2_iterations": "count",
    "micro.exact_ksparse.n8_p10_k3_s": "s",
    "micro.greedy_ksparse.n8_p10_k3_s": "s",
    "micro.kernel_build.p64_s": "s",
    "micro.kernel_build.p1000_s": "s",
    "micro.mc_babel.n5000_p10_k1_trials100_s": "s",
}


def _columns(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    g = rng.standard_normal((n, m))
    return g / np.linalg.norm(g, axis=0)


def _median_time(fn):
    """(median seconds per call, last result)."""
    times = []
    while len(times) < MIN_REPEATS or (sum(times) < REPEAT_BUDGET_S and len(times) < MAX_REPEATS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def run(seed: int) -> dict[str, float]:
    from dlbounds import (Dictionary, KernelDictionary, exact_ksparse, exact_ksparse_batch,
                          greedy_ksparse, kernel_from_name, l1_solve_batch, mc_babel)

    rng = np.random.default_rng(seed)
    out = {}
    for n, p, k, count in ((64, 8, 3, 600), (16, 20, 3, 1000)):
        d, x = Dictionary(_columns(rng, n, p)), _columns(rng, n, count)
        out[f"micro.exact_ksparse_batch.n{n}_p{p}_k{k}_N{count}_s"] = _median_time(
            lambda: exact_ksparse_batch(d, x, k))[0]

    d, x = Dictionary(_columns(rng, 6, 8)), _columns(rng, 6, 50)
    seconds, result = _median_time(lambda: l1_solve_batch(d, x, 2.0))
    out["micro.l1_solve_batch.n6_p8_N50_lam2_s"] = seconds
    out["micro.l1_solve_batch.n6_p8_N50_lam2_iterations"] = result[2]

    d, x = Dictionary(_columns(rng, 8, 10)), _columns(rng, 8, 1)[:, 0]
    out["micro.exact_ksparse.n8_p10_k3_s"] = _median_time(lambda: exact_ksparse(d, x, 3))[0]
    out["micro.greedy_ksparse.n8_p10_k3_s"] = _median_time(lambda: greedy_ksparse(d, x, 3))[0]

    kf = kernel_from_name("gaussian:0.8")
    for p in (64, 1000):
        points = _columns(rng, 16, p).T
        out[f"micro.kernel_build.p{p}_s"] = _median_time(lambda: KernelDictionary.build(points, kf))[0]

    out["micro.mc_babel.n5000_p10_k1_trials100_s"] = _median_time(
        lambda: mc_babel(5000, 10, 1, 100, seed=seed, threads=1))[0]
    return out
