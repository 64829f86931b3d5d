"""euclidpt benchmark.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

Run from the repository root; euclidpt is imported from ./src.  Workloads:
sweep, ep, intensity, closed_forms (see jobs.py and README.md here), or
"all" for each in turn.  --seed 0 runs the README recipes exactly.

Every process this script starts gets BLAS/OpenMP threads pinned to 1, and
every job runs with `--workers 1`, so the work runs on one thread.  The
set-up time is the median over fresh interpreters that import euclidpt and
its CLI and build one matrix; the workload then runs in one more process
(worker.py).  Both are timed under the speed probe (probe.py) and reported
at its reference speed.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "ep", "intensity", "closed_forms")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
SETUP_TIMEOUT = 20
WORKER_GRACE = 150      # seconds a worker may run past --seconds before it is killed

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[2])
import probe
with probe.SpeedProbe() as timed:
    t0 = time.perf_counter()
    import euclidpt, euclidpt.cli
    imported = time.perf_counter() - t0
    if not euclidpt.__file__.startswith(sys.argv[1]):
        sys.exit("euclidpt imported from " + euclidpt.__file__)
    from euclidpt import dyson, spectral
    spectral.build_matrix(spectral.SpectralProblem(
        dyson.pt5_three_param_hamiltonian(1.0, 1.0, 4.0), truncation=spectral.DEFAULT_TRUNCATION))
print(imported, timed.probe_s, timed.slowdown)
"""

UNITS = {"calls": "count", "s": "s", "self_s": "s", "gflop": "Gflop", "eigensolves": "count",
         "refined_points": "count", "eps_reported": "count", "eps_matched": "count",
         "useful_ratio": "ratio", "import_s": "s", "overhead_frac": "ratio", "wall_s": "s"}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def _tail(text):
    lines = (text or "").strip().splitlines()
    return lines[-1] if lines else "(no output)"


def measure_setup(env):
    """Median set-up time at reference speed and median import time over fresh interpreters.

    Each interpreter's wall time, start-up and exit included, less the probe's
    own time, is divided by the slowdown its probe saw."""
    rescaled, imports = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed: {_tail(proc.stderr)}")
        imported, probe_s, slowdown = map(float, proc.stdout.split()[-3:])
        rescaled.append((wall - probe_s) / slowdown)
        imports.append(imported)
    return statistics.median(rescaled), statistics.median(imports)


def run_worker(workload, seed, seconds, trace, env):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + WORKER_GRACE)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded {seconds + WORKER_GRACE} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(workload, seed, seconds, trace, env):
    setup_s, import_s = measure_setup(env)
    out = run_worker(workload, seed, seconds, trace, env)
    walls = out["walls"]
    print(f"[{workload}] seed {seed}: {len(walls)} timed passes; per pass: wall "
          + " ".join(f"{w:.4f}" for w in walls) + " s, slowdown "
          + " ".join(f"{x:.3f}" for x in out["slowdowns"]) + ", at reference speed "
          + " ".join(f"{w:.4f}" for w in out["rescaled"]) + " s")
    for job, problems in out["problems"].items():
        print(f"[{workload}] FAILED {job}: " + " | ".join(problems))
    if trace:
        metrics = {"setup.import_s": import_s, **out["layers"]}
        metrics = {k: {"value": v, "unit": UNITS[k.rsplit(".", 1)[-1]]} for k, v in metrics.items()}
    else:
        metrics = {"wall_ref_s": {"value": statistics.median(out["rescaled"]), "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"}}
    return {"correct": out["failed"] == 0 and not out["problems"],
            "attempted": out["attempted"], "failed": out["failed"],
            "metrics": metrics, "environment": out["environment"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "euclidpt" / "__init__.py").is_file():
        print(f"perfbench: no euclidpt sources under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in chosen:
            results[workload] = run_one(workload, args.seed, args.seconds, args.trace, env)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    first = next(iter(results.values()))
    print("environment " + json.dumps(first["environment"], sort_keys=True))
    for workload, res in results.items():
        for name, metric in res["metrics"].items():
            print(f"{workload:13s} {name:58s} {metric['value']:.6g} {metric['unit']}")
        frac = res["failed"] / res["attempted"]
        print(f"{workload:13s} {'fail_frac':58s} {frac:.6g} "
              f"({res['failed']} of {res['attempted']} operations)")
    if args.workload == "all":
        metrics = {f"{w}.{k}": v for w, res in results.items() for k, v in res["metrics"].items()}
    else:
        metrics = first["metrics"]
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
