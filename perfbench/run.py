"""Closed-loop benchmark of dlbounds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from `src`.
One client runs invocations back to back, each in its own fresh child
interpreter, starting the next only after the previous one has exited,
until S seconds have passed (and at least MIN_INVOCATIONS have run).
Children get BLAS pinned to one thread, so no workload runs more threads
than the machine has cores.

Workloads (inputs drawn from --seed; see BENCHMARK.json for why each):
  gengap-ksparse  dlbounds gengap, exact k-sparse coder, n=64 p=8 k=3 m=600
  gengap-l1       dlbounds gengap, l1 coder, n=8 p=12 lambda=1 m=128,256
  mc-babel        dlbounds mc-babel n=5000 p=10 k=1, 1000 trials, one thread
  kernel-code     kernel layer: Gram build, validation, greedy coding, bounds

--trace 0 prints the end-to-end metrics.  Times are in calibration units
("cal"): each child times a fixed numpy mix, weighted like its workload's
own work (child.calibrate), before its invocation and after each of its
steps, and divides each step's time by the mean of the calibrations on
either side.  On a shared
two-core Xeon virtual machine the same invocation's time drifted by up
to 40% over minutes; the ratio cancels most of that, while a change to
dlbounds moves the numerator alone.  Reported: wall_cal and cpu_cal, the
median wall and CPU time per invocation; items_per_cal, work items per
calibration unit; setup_s, seconds from starting a fresh interpreter to
dlbounds imported and inputs built; peak_rss_mb.  The uncalibrated
seconds and fail_frac are printed beside them.
--trace 1 alternates untraced and traced invocations and prints the
per-layer metrics of the traced ones (spans recorded around the library's
functions at their import sites; see spans.py), the tracing overhead, and
the single-layer micro timings of micro.py.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Full results, and the spans of a traced
run, are written under .bench_out/.  Without `src/dlbounds` in the current
directory the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_out")
# A run makes at least MIN_INVOCATIONS, so that the check for identical
# outputs has two to compare; a traced run alternates untraced and traced.
MIN_INVOCATIONS = 2
# A run stops starting invocations this long after it began, and kills a
# child still running at RUN_DEADLINE_S.
START_LIMIT_S = 120.0
RUN_DEADLINE_S = 165.0

END_TO_END = {"wall_cal": "cal", "cpu_cal": "cal", "items_per_cal": "1/cal",
              "setup_s": "s", "peak_rss_mb": "MiB"}
# Printed beside the end-to-end metrics, not reported in the JSON line.
RAW = {"wall_s": "s", "cpu_s": "s", "items_per_s": "1/s", "calib_s": "s"}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(root: Path, env: dict, mode: str, workload: str, seed: int, deadline: float) -> dict:
    """Start a child, time it to its "ready" line (set-up), wait for its
    result.  A child that fails, or is still running at the deadline and
    is killed, gives {"problems": [...]} instead of measurements."""
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - start), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        return {"problems": [f"child {mode} exited {proc.returncode}: {err.strip()[-500:]}"]}
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    began = time.perf_counter()
    deadline = began + RUN_DEADLINE_S
    env = child_env(root)
    micro = run_child(root, env, "micro", "", seed, deadline) if trace else None
    modes = ("plain", "traced") if trace else ("plain",)
    invocations = []
    while True:
        elapsed = time.perf_counter() - began
        enough = elapsed >= seconds and len(invocations) >= MIN_INVOCATIONS
        if enough or (elapsed >= START_LIMIT_S and invocations):
            break
        mode = modes[len(invocations) % len(modes)]
        inv = run_child(root, env, mode, workload, seed, deadline)
        inv["mode"] = mode
        invocations.append(inv)

    # An invocation fails when its child fails, its checks report a
    # problem, or its output bytes differ from the run's first invocation.
    digests = [inv["digest"] for inv in invocations if "digest" in inv]
    for inv in invocations:
        if "digest" in inv and inv["digest"] != digests[0]:
            inv["problems"].append("output bytes differ from the first invocation's")
    good = [inv for inv in invocations if not inv["problems"]]
    failed = len(invocations) - len(good)
    extra_problems = micro["problems"] if micro else []
    environment = next((inv["environment"] for inv in invocations if "environment" in inv), None)

    plain = [inv for inv in good if inv["mode"] == "plain"]
    metrics, raw = {}, {}
    if not trace and plain:
        metrics = {
            "wall_cal": median([inv["wall_cal"] for inv in plain]),
            "cpu_cal": median([inv["cpu_cal"] for inv in plain]),
            "items_per_cal": median([inv["items"] / inv["wall_cal"] for inv in plain]),
            "setup_s": median([inv["setup_s"] for inv in plain]),
            "peak_rss_mb": median([inv["peak_rss_mb"] for inv in plain]),
        }
        raw = {
            "wall_s": median([inv["wall_s"] for inv in plain]),
            "cpu_s": median([inv["cpu_s"] for inv in plain]),
            "items_per_s": median([inv["items"] / inv["wall_s"] for inv in plain]),
            "calib_s": median([inv["calib_s"] for inv in plain]),
        }
    traced = [inv for inv in good if inv["mode"] == "traced"]
    if trace and traced and plain:
        from spans import LAYER_METRICS

        for name in LAYER_METRICS:
            # a counter no traced invocation reported (the kernel call
            # count outside kernel-code, say) counted nothing
            metrics[name] = median([inv["layers"].get(name, 0) for inv in traced])
        # compared in calibration units, then put back into seconds
        metrics["trace.overhead_s"] = (
            (median([inv["wall_cal"] for inv in traced])
             - median([inv["wall_cal"] for inv in plain]))
            * median([inv["calib_s"] for inv in traced + plain]))
        metrics.update(micro.get("micro", {}))
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment, "invocations": invocations, "failed": failed,
        "extra_problems": extra_problems, "metrics": metrics, "raw": raw,
        "run_s": time.perf_counter() - began,
    }


def unit_of(name: str) -> str:
    from micro import MICRO_METRICS
    from spans import LAYER_METRICS

    return {**END_TO_END, **RAW, **MICRO_METRICS,
            **{k: unit for k, (unit, _) in LAYER_METRICS.items()}}[name]


def report(run: dict) -> None:
    invs = run["invocations"]
    plain = sum(inv["mode"] == "plain" for inv in invs)
    print(f"== {run['workload']}  seed={run['seed']}  trace={run['trace']}  "
          f"closed loop, 1 client, {len(invs)} invocations ({plain} untraced), "
          f"medians over successful invocations")
    for name, value in run["metrics"].items():
        print(f"  {name:<52} {value:>14.6g} {unit_of(name)}")
    for name, value in run["raw"].items():
        print(f"  {name:<52} {value:>14.6g} {unit_of(name)} (not in the JSON line)")
    print(f"  {'fail_frac':<52} {run['failed'] / max(len(invs), 1):>14.6g} ratio "
          f"({run['failed']} of {len(invs)} invocations failed)")
    for inv in invs:
        for problem in inv["problems"]:
            print(f"  problem: {problem}")
    for problem in run["extra_problems"]:
        print(f"  problem: {problem}")
    print("  env: " + json.dumps(run["environment"], sort_keys=True))


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dlbounds" / "__init__.py").is_file():
        print("error: run from a checkout of dlbounds (no src/dlbounds here)", file=sys.stderr)
        return 2
    (root / OUT_DIR).mkdir(exist_ok=True)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    runs = []
    for name in names:
        run = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        stem = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}"
        spans = {i: inv.pop("spans") for i, inv in enumerate(run["invocations"]) if "spans" in inv}
        if spans:
            (root / f"{stem}-spans.json").write_text(json.dumps(spans))
        (root / f"{stem}.json").write_text(json.dumps(run, indent=1, sort_keys=True))
        report(run)
        runs.append(run)

    attempted = sum(len(run["invocations"]) for run in runs)
    failed = sum(run["failed"] for run in runs)
    correct = failed == 0 and not any(run["extra_problems"] for run in runs)
    prefix = len(runs) > 1
    metrics = {(f"{run['workload']}.{name}" if prefix else name): {"value": value, "unit": unit_of(name)}
               for run in runs for name, value in run["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
