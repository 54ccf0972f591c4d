"""One benchmark invocation in a fresh interpreter.

    python3 perfbench/child.py --mode plain|traced|micro --workload NAME --seed N

Run from the checkout root with `src` on PYTHONPATH.  The child imports
dlbounds and builds the workload's inputs (set-up), prints "ready", runs
the invocation once under the clock, step by step with a calibration
between steps, checks the outputs with the clock stopped, and prints one
JSON result line, which carries the environment block.  Mode "micro" times the single-layer rows instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CALIBRATION_REPS = 3000


def calibrate(blocks: int, reps: int = CALIBRATION_REPS) -> float:
    """Seconds taken by a fixed mix of the operations the library spends
    its time on: `reps` rounds of a small least-squares solve, a scalar
    kernel-style call and a small random draw, then `blocks` rounds of
    products and sorts on 12 x 2000 blocks like the l1 solver's.  Each
    workload sets `blocks` to weight the mix like its own work.  The mix
    uses numpy only, never dlbounds, so no change to the library moves it;
    the host's speed of the moment does, and dividing by it takes that
    drift out."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, x = rng.standard_normal((16, 4)), rng.standard_normal(16)
    d, y, z = rng.standard_normal((8, 12)), rng.standard_normal((12, 2000)), rng.standard_normal((8, 2000))
    start = time.perf_counter()
    for _ in range(reps):
        np.linalg.lstsq(a, x, rcond=None)
        math.exp(-float(np.dot(x, x)))
        rng.standard_normal(64)
    for _ in range(blocks):
        np.cumsum(np.sort(np.abs(y - d.T @ (d @ y - z)), axis=0), axis=0)
    return time.perf_counter() - start


def _git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git in the checkout, if there is one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy as np
    import scipy

    root = Path.cwd()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted((root / "src" / "dlbounds").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "src_sha256": src.hexdigest(),
    }


def invocation(name: str, seed: int, traced: bool) -> dict:
    import workloads
    from dlbounds.coders import MAX_ITERS
    from spans import Tracer, layer_metrics

    tracer = Tracer() if traced else None
    work = workloads.make(name, os.cpu_count() or 1)
    work.setup(seed, tracer)
    if tracer is not None:
        tracer.install()
        tracer.enabled = True
    print("ready", flush=True)

    # Each step is timed, and calibrated against the mean of the
    # calibrations just before and just after it.
    calibrate(blocks=1, reps=50)  # first-call costs stay out of the calibration
    calibs = [calibrate(work.calibration_blocks)]
    wall = cpu = wall_cal = cpu_cal = 0.0
    for step in work.steps(tracer.span if tracer is not None else nullcontext):
        step_wall, step_cpu = time.perf_counter(), time.process_time()
        step()
        step_wall, step_cpu = time.perf_counter() - step_wall, time.process_time() - step_cpu
        calibs.append(calibrate(work.calibration_blocks))
        unit = (calibs[-2] + calibs[-1]) / 2
        wall, cpu = wall + step_wall, cpu + step_cpu
        wall_cal, cpu_cal = wall_cal + step_wall / unit, cpu_cal + step_cpu / unit

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.enabled = False
        tracer.restore()
    result = {"wall_s": wall, "cpu_s": cpu, "wall_cal": wall_cal, "cpu_cal": cpu_cal,
              "calib_s": sum(calibs) / len(calibs), "peak_rss_mb": peak_rss_mb,
              "items": work.items, "item_unit": work.item_unit,
              "digest": hashlib.sha256(work.output_bytes()).hexdigest(),
              "problems": work.check()}
    if tracer is not None:
        layers = layer_metrics(tracer.spans, MAX_ITERS)
        layers.update(tracer.counters)
        layers.update(work.traced_extras(layers))
        result["layers"] = layers
        result["spans"] = [s._asdict() for s in tracer.spans]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mode", required=True, choices=("plain", "traced", "micro"))
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.mode == "micro":
        import micro

        print("ready", flush=True)
        result = {"micro": micro.run(args.seed), "problems": []}
    else:
        result = invocation(args.workload, args.seed, args.mode == "traced")
    result["environment"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
