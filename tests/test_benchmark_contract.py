"""What the benchmark in `perfbench/` needs of the package: the functions its tracer wraps,
the command lines its jobs run and the spans a traced pass must reach.  The tests only read
`perfbench/`."""

import importlib
from pathlib import Path

import pytest

from euclidpt import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing"), importlib.import_module("jobs")


def test_every_traced_function_exists(perfbench):
    tracing, _ = perfbench
    missing = [f"{module}.{name}" for module, name in tracing.TRACED
               if not callable(getattr(importlib.import_module(f"euclidpt.{module}"), name,
                                       None))]
    assert missing == []


@pytest.mark.parametrize("seed", [0, 1])
def test_every_job_command_line_parses(perfbench, seed, monkeypatch):
    # each CLI job's argv, recorded at `cli.main` without solving anything
    _, jobs = perfbench
    argvs = []
    monkeypatch.setattr(cli, "main", lambda argv: argvs.append(argv) or 0)
    runs = [job.run for workload in jobs.WORKLOADS
            for job in jobs.JOBS_BY_WORKLOAD[workload](seed) if job.kind == "cli"]
    for run in runs:
        run()
    assert runs and len(argvs) == len(runs)
    for argv in argvs:
        args = cli._build_parser().parse_args(argv)
        assert args.command == argv[0]


def test_a_traced_pass_reaches_every_expected_span(perfbench):
    # the check of a traced `perfbench/worker.py` run, on one seed-0 pass of each workload
    tracing, jobs = perfbench
    worker = importlib.import_module("worker")
    all_jobs = [(job.kind, job.name) for workload in jobs.WORKLOADS
                for job in jobs.JOBS_BY_WORKLOAD[workload](jobs.README_SEED)]
    failed, empty = {}, {}
    for workload in jobs.WORKLOADS:
        job_list = jobs.JOBS_BY_WORKLOAD[workload](jobs.README_SEED)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, outputs, failed[workload] = worker.run_pass(job_list, tracer)
        finally:
            tracer.uninstall()
        _, empty[workload] = worker.layer_metrics(workload, tracing.summarize(tracer.spans),
                                                  job_list, outputs, all_jobs)
    assert failed == {workload: {} for workload in jobs.WORKLOADS}
    assert empty == {workload: [] for workload in jobs.WORKLOADS}
