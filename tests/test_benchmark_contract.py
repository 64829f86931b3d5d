"""What the benchmark in `perfbench/` needs of the package: the functions its tracer wraps
and the command lines its jobs run.  The tests only read `perfbench/`."""

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
