"""Runs one workload in the process whose BLAS threads run.py pinned; prints one JSON line.

One client runs the workload's jobs back to back (a closed loop).  A
first, untimed pass lets caches fill and memory get mapped; its outputs
are certified and become the reference every later pass must reproduce
byte for byte.  Timed passes follow until their times add up to
--seconds.  Untraced passes run under the speed probe (probe.py), which
also gives each pass's time at reference speed.  With --trace 1, traced
and untraced passes alternate; the traced outputs must equal the
untraced ones, and each span the workload is expected to reach must be
non-empty.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

import euclidpt
import numpy as np
import scipy

import certify
import jobs
import probe
import tracing

SRC = Path(__file__).resolve().parent.parent / "src"

# ZGEEV, eigenvalues only: 10 n^3 flops in Golub & Van Loan's count (5 n^3
# multiply-adds), each complex multiply-add 8 real flops.  Computed, not measured.
ZGEEV_REAL_FLOPS_PER_N3 = 40.0

# spans each workload must reach; an empty one means the trace missed a path
EXPECTED = {
    "sweep": ("spectral.sweep", "spectral.eigen_spectrum", "spectral.build_matrix",
              "algebra.build_hamiltonian", "cli.main", "lapack.eigvals"),
    "ep": ("spectral.sweep", "spectral.find_exceptional_points", "spectral.eigen_spectrum",
           "spectral.build_matrix", "cli.main", "lapack.eigvals"),
    "intensity": ("spectral.eigen_spectrum", "spectral.wavefunction", "spectral.intensity",
                  "spectral.build_matrix", "cli.main", "lapack.eigvals", "lapack.eig"),
    "closed_forms": ("mathieu.characteristic_values",
                     "mathieu.antiperiodic_characteristic_values",
                     "mathieu.complex_mathieu_eps", "dyson.hermitize",
                     "dyson.similarity_transform", "dyson.reduce_pt5_three_param",
                     "algebra.multiply", "algebra.build_hamiltonian", "e3.e3_adjoint",
                     "e3.transform_h_tilde", "e3.multiply", "cli.main", "lapack.eigvals"),
}
CALLS_AND_TIME = ("spectral.eigen_spectrum", "spectral.build_matrix", "spectral.wavefunction",
                  "spectral.intensity", "mathieu.characteristic_values",
                  "mathieu.antiperiodic_characteristic_values", "dyson.hermitize",
                  "dyson.similarity_transform", "dyson.reduce_pt5_three_param",
                  "algebra.multiply", "algebra.build_hamiltonian", "e3.e3_adjoint",
                  "e3.transform_h_tilde", "e3.multiply", "lapack.eigvals", "lapack.eig")


def _blas_versions():
    out = {}
    for name, module in (("numpy", np), ("scipy", scipy)):
        try:
            config = module.show_config(mode="dicts")
            out[f"{name}_blas"] = config["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            out[f"{name}_blas"] = "unknown"
    return out


def environment():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, **_blas_versions(),
            "threads": {v: os.environ.get(v) for v in sorted(os.environ)
                        if v.endswith("_NUM_THREADS") or v == "VECLIB_MAXIMUM_THREADS"},
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count()}


def run_pass(job_list, tracer=None):
    """One closed-loop pass: (SpeedProbe, {job: output or None}, {job: error}).

    Traced passes are not sampled: their time is compared only with the
    untraced passes of the same run."""
    outputs, errors = {}, {}
    with probe.SpeedProbe(sampling=tracer is None) as timed:
        for job in job_list:
            try:
                if tracer is None:
                    outputs[job.name] = job.run()
                else:
                    with tracer.span(f"{job.kind}.{job.name}"):
                        outputs[job.name] = job.run()
            except Exception as exc:  # a failed job is counted; the pass goes on
                outputs[job.name] = None
                errors[job.name] = f"{type(exc).__name__}: {exc}"
    return timed, outputs, errors


def certify_pass(job_list, outputs, errors):
    """Problems per job of the reference pass."""
    problems = {}
    for job in job_list:
        if job.name in errors:
            problems[job.name] = [errors[job.name]]
            continue
        try:
            found = job.certify(outputs[job.name])
        except Exception:  # a certificate that cannot read the output rejects it
            found = ["certificate raised: " + traceback.format_exc(limit=2).strip()]
        if found:
            problems[job.name] = found
    return problems


def layer_metrics(workload, stats, job_list, outputs, all_jobs):
    def stat(name, key):
        return stats[name][key] if name in stats else 0

    m = {}
    for name in CALLS_AND_TIME:
        m[f"{name}.calls"] = stat(name, "calls")
        m[f"{name}.s"] = stat(name, "s")
    sizes = stats["spectral.eigen_spectrum"]["info"] if "spectral.eigen_spectrum" in stats else []
    m["spectral.eigen_spectrum.gflop"] = sum(ZGEEV_REAL_FLOPS_PER_N3 * n ** 3 for n in sizes) / 1e9
    m["spectral.sweep.s"] = stat("spectral.sweep", "s")
    m["spectral.sweep.self_s"] = stat("spectral.sweep", "self_s")
    m["spectral.sweep.refined_points"] = sum(stats["spectral.sweep"]["info"]) \
        if "spectral.sweep" in stats else 0
    fep = "spectral.find_exceptional_points"
    reported = sum(stats[fep]["info"]) if fep in stats else 0
    matched = sum(certify.matched_eps(outputs[j.name], j.predictions)
                  for j in job_list if j.predictions and outputs[j.name] is not None)
    m[f"{fep}.s"] = stat(fep, "s")
    m[f"{fep}.self_s"] = stat(fep, "self_s")
    m[f"{fep}.eigensolves"] = stat(fep, "eigensolves")
    m[f"{fep}.eps_reported"] = reported
    m[f"{fep}.eps_matched"] = matched
    m[f"{fep}.useful_ratio"] = matched / reported if reported else 0.0
    m["mathieu.complex_mathieu_eps.s"] = stat("mathieu.complex_mathieu_eps", "s")
    m["mathieu.eigensolves"] = stat("mathieu", "eigensolves")
    m["cli.main.self_s"] = stat("cli.main", "self_s")
    for kind, name in all_jobs:
        m[f"{kind}.{name}.s"] = stat(f"{kind}.{name}", "s")
    empty = [name for name in EXPECTED[workload] + tuple(f"{j.kind}.{j.name}" for j in job_list)
             if stat(name, "calls") == 0]
    return m, empty


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if Path(euclidpt.__file__).resolve().parent.parent != SRC:
        sys.exit(f"euclidpt imported from {euclidpt.__file__}, not from {SRC}")

    job_list = jobs.JOBS_BY_WORKLOAD[args.workload](args.seed)
    all_jobs = [(j.kind, j.name) for w in jobs.WORKLOADS
                for j in jobs.JOBS_BY_WORKLOAD[w](jobs.README_SEED)]
    _, reference, errors = run_pass(job_list)
    problems = certify_pass(job_list, reference, errors)

    attempted = failed = 0

    def account(outputs, errors):
        nonlocal attempted, failed
        for job in job_list:
            attempted += 1
            if job.name in errors or job.name in problems \
                    or outputs[job.name] != reference[job.name]:
                failed += 1
                problems.setdefault(job.name, [errors.get(job.name,
                                                          "output differs between passes")])

    account(reference, errors)
    walls, rescaled, slowdowns, traced_walls, layer_runs = [], [], [], [], []
    # the clock counts pass time only, so certification does not eat into it
    while sum(walls) + sum(traced_walls) < args.seconds or not walls \
            or (args.trace and not traced_walls):
        if args.trace and len(traced_walls) < len(walls):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                timed, outputs, errors = run_pass(job_list, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(timed.wall)
            metrics, empty = layer_metrics(args.workload, tracing.summarize(tracer.spans),
                                           job_list, outputs, all_jobs)
            if empty:
                sys.exit(f"traced run left expected spans empty: {empty}")
            layer_runs.append(metrics)
        else:
            timed, outputs, errors = run_pass(job_list)
            walls.append(timed.net)
            rescaled.append(timed.rescaled)
            slowdowns.append(timed.slowdown)
        account(outputs, errors)

    result = {"attempted": attempted, "failed": failed,
              "problems": {k: v[:5] for k, v in problems.items()},
              "walls": walls, "rescaled": rescaled, "slowdowns": slowdowns,
              "environment": environment(),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.trace:
        # median_low: each value is one that a traced pass measured
        layers = {k: statistics.median_low(r[k] for r in layer_runs) for k in layer_runs[0]}
        layers["trace.overhead_frac"] = (statistics.median(traced_walls)
                                         / statistics.median(walls) - 1.0)
        layers["wall_s"] = statistics.median(walls)
        result["layers"] = layers
        result["traced_walls"] = traced_walls
    print(json.dumps(result))


if __name__ == "__main__":
    main()
