"""`spectral._assignment` against scipy's `linear_sum_assignment`, and the runtime's imports."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

import euclidpt
from euclidpt import spectral
from euclidpt.cli import main
from test_cli import README_ALGEBRA_RECIPES


def _scipy_columns(cost):
    return linear_sum_assignment(cost)[1].tolist()


def _random_costs(rng, count):
    """Square costs of sizes 1-15: tie-heavy integers, constants, conjugate pairs, uniform."""
    for k in range(count):
        n = int(rng.integers(1, 16))
        kind = k % 5
        if kind == 0:     # three values: many equal reduced costs
            yield rng.integers(0, 3, (n, n)).astype(float)
        elif kind == 1:
            yield np.full((n, n), float(rng.integers(0, 3)))
        elif kind == 2:   # |dE| between spectra of conjugate pairs: equal costs across pairs
            prev = np.sort(rng.standard_normal(n)) + 1j * rng.standard_normal(n)
            prev[1::2] = prev[:n - 1:2].conj()
            shift = 0.3 * rng.standard_normal(n)
            shift[1::2] = shift[:n - 1:2]
            yield np.abs(prev[:, None] - (prev + shift)[None, :])
        elif kind == 3:   # mostly zeros
            yield rng.integers(0, 2, (n, n)) * rng.integers(1, 4, (n, n)).astype(float)
        else:
            yield rng.random((n, n))


def test_assignment_matches_scipy_on_random_matrices():
    rng = np.random.default_rng(18)
    for cost in _random_costs(rng, 6000):
        assert spectral._assignment(cost.tolist()) == _scipy_columns(cost), cost


# the README spectrum and ep recipes, the real family in both sectors
README_SWEEPS = [
    "spectrum --family pt5-three --mu3 0.5 --mu7 0 --sweep mu4:-3:3:200 --levels 7",
    "spectrum --family pt5-three --mu3 0.5 --mu7 0 --sweep mu4:-3:3:200 --levels 7 --sector 1",
    "spectrum --family pt5-three --mu4 1 --mu7 4 --sweep mu3:-4:4:161",
    "ep --family pt5-three --mu4 1 --mu7 4 --sweep mu3:-4:4:41",
    "ep --family pt5-three --mu3 1 --mu4 3 --sweep mu7:0:20:41",
    "spectrum --family raw --symmetry PT5 --mu1 1 --mu7 0.5 --sweep s:0:1.95:40 --levels 6",
]


def test_assignment_matches_scipy_on_readme_sweeps(monkeypatch, capsys):
    costs = []
    match = spectral._match

    def recording(prev, new):
        costs.append(np.abs(prev[:, None] - new[None, :]))
        return match(prev, new)

    monkeypatch.setattr(spectral, "_match", recording)
    for recipe in README_SWEEPS:
        assert main(recipe.split()) == 0, capsys.readouterr().err
    # at least one match per grid interval
    assert len(costs) >= 199 + 199 + 160 + 40 + 40 + 39
    for cost in costs:
        assert spectral._assignment(cost.tolist()) == _scipy_columns(cost)


def _python(code, *args):
    src = str(Path(euclidpt.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_cli_import_leaves_out_scipy_optimize():
    code = ("import sys, euclidpt.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    assert _python(code) == ["[]"]


# In one fresh interpreter: the imports and the `build_matrix` of perfbench's set-up, then each
# command line but the last through `cli.main`, then the scipy modules loaded so far, then the
# last command line.  Each command prints its exit code and the sha256 of its stdout.
SCIPY_LOADS_AT_THE_FIRST_SOLVE = """
import contextlib, hashlib, io, sys
import euclidpt, euclidpt.cli
from euclidpt import cli, dyson, spectral
spectral.build_matrix(spectral.SpectralProblem(
    dyson.pt5_three_param_hamiltonian(1.0, 1.0, 4.0), truncation=spectral.DEFAULT_TRUNCATION))

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv.split())
    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())

for argv in sys.argv[1:-1]:
    run(argv)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
run(sys.argv[-1])
print("scipy.linalg" in sys.modules)
"""

# the README unbroken intensity point, its CSV on stdout, and that CSV's sha256
README_SOLVE = ("intensity --mu3 0.8 --mu4 1 --mu7 4",
                "773be403e060270cdfb8c7043fd5926922be072c96124cd6b76287531962a9e4")


def test_scipy_loads_only_at_the_first_lapack_call():
    # `chains.linalg` imports scipy.linalg on first use: importing the package, building a
    # matrix, `transform` and `e3-adjoint` load no scipy; the first solve does, with the
    # same bytes as before
    lines = _python(SCIPY_LOADS_AT_THE_FIRST_SOLVE,
                    *[argv for argv, _, _ in README_ALGEBRA_RECIPES], README_SOLVE[0])
    assert lines == [*[f"{code} {digest}" for _, code, digest in README_ALGEBRA_RECIPES], "[]",
                     f"0 {README_SOLVE[1]}", "True"]
