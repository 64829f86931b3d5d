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


def test_cli_import_leaves_out_scipy_optimize():
    src = str(Path(euclidpt.__file__).resolve().parent.parent)
    code = ("import sys, euclidpt.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
