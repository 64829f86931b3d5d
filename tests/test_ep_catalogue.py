"""Exceptional points from the closed-form catalogue, descending sweeps, and the generic path."""

import math

import numpy as np
import pytest

import oracles
from euclidpt import spectral
from euclidpt.dyson import ep_predictions_pt5, pt5_double_point_predictions
from euclidpt.errors import ConvergenceFailure
from euclidpt.spectral import (SweepTemplate, _mathieu_form, bisect_transition,
                               find_exceptional_points, sweep)


def _pt5_three(mu3=0.0, mu4=0.0, mu7=0.0, **kwargs):
    return SweepTemplate(family="pt5-three", mu=(1.0, 0.0, mu3, mu4, 0.0, 0.0, mu7, 0.0, 0.0),
                         **kwargs)


@pytest.fixture(scope="module")
def readme_sweeps():
    """The two README `ep` recipes at the CLI defaults (N = 64, 12 levels)."""
    return {"mu3": sweep(_pt5_three(mu4=1.0, mu7=4.0), "mu3", -4.0, 4.0, 41),
            "mu7": sweep(_pt5_three(mu3=1.0, mu4=3.0), "mu7", 0.0, 20.0, 41)}


@pytest.fixture(scope="module")
def double_point():
    return oracles.mathieu_even_pi_double_point(1.5, 2.0)


def _positions(eps):
    return sorted({p.parameter_value for p in eps})


def _assert_positions(eps, expected, tol=1e-8):
    positions = _positions(eps)
    assert len(positions) == len(expected)
    for x, target in zip(positions, sorted(expected)):
        assert x == pytest.approx(target, abs=tol)


def test_readme_sweeps_take_the_catalogue(readme_sweeps):
    for result in readme_sweeps.values():
        forms = [_mathieu_form(*result.template.element_at(result.axis, x))
                 for x in result.values]
        assert all(forms) and {f[3] for f in forms} == {0.0}


def test_mu3_recipe_reports_the_r2_zeros_only(readme_sweeps):
    eps = find_exceptional_points(readme_sweeps["mu3"])
    _assert_positions(eps, [-3.0, -1.0, 1.0, 3.0])
    for p in eps:
        # every odd-n pair meets at c0 + n^2, c0 = (mu3^2 + mu7 - mu4^2)/2
        n2 = p.energy - (p.parameter_value ** 2 + 4.0 - 1.0) / 2
        assert round(n2) in (1, 9, 25) and n2 == pytest.approx(round(n2), abs=1e-9)
        assert 0 < p.bracket_width <= 1e-6
    assert {(round(p.parameter_value), round(p.energy)) for p in eps} >= {
        (-3, 7), (-1, 3), (1, 3), (3, 7)}


def test_mu7_recipe_reports_the_double_points(readme_sweeps, double_point):
    t1, a1 = double_point
    half = math.sqrt(36.0 - 16.0 * t1 * t1)   # |R|/2 = t1 where (10 - mu7)^2 = 36 - 16 t1^2
    eps = find_exceptional_points(readme_sweeps["mu7"])
    _assert_positions(eps, [4.0, 10.0 - half, 10.0 + half, 16.0])
    inner = [p for p in eps if 5.0 < p.parameter_value < 15.0]
    assert len(inner) == 2
    for p in inner:
        c0 = (1.0 + p.parameter_value - 9.0) / 2
        assert p.energy == pytest.approx(c0 + a1, abs=1e-6)
    assert half == pytest.approx(1.21799, abs=1e-5)


def test_predictions_are_the_positions_of_the_readme_recipes(readme_sweeps):
    # the R^2 = 0 points and the double points together, as (mu3, mu4, mu7)
    recipes = {"mu3": (0.0, 1.0, 4.0), "mu7": (1.0, 3.0, 0.0)}
    reported = 0
    for axis, mu in recipes.items():
        predicted = ep_predictions_pt5(*mu, axis) + pt5_double_point_predictions(*mu, axis)
        positions = [p.parameter_value for p in find_exceptional_points(readme_sweeps[axis])]
        reported += len(positions)
        for x in positions:
            assert min(abs(x - y) for y in predicted) <= 1e-9
        for y in predicted:
            assert min(abs(x - y) for x in positions) <= 1e-9
    assert reported == 14


def test_positions_do_not_depend_on_im_tol(readme_sweeps):
    for result in readme_sweeps.values():
        loose = find_exceptional_points(result, im_tol=1e-6)
        tight = find_exceptional_points(result, im_tol=1e-10)
        assert _positions(loose) == _positions(tight)
        # a finer im_tol may resolve more pairs at a point, never move one
        assert {(p.parameter_value, p.energy) for p in loose} <= {
            (p.parameter_value, p.energy) for p in tight}


def test_at_most_four_eigensolves_per_ep(readme_sweeps, monkeypatch):
    calls = []
    solve = spectral.eigen_spectrum

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigen_spectrum", counted)
    for result in readme_sweeps.values():
        calls.clear()
        eps = find_exceptional_points(result)
        assert eps and len(calls) <= 4 * len(eps)


def test_eps_solve_at_the_sweeps_truncation(readme_sweeps, monkeypatch):
    truncations = []
    solve = spectral.eigen_spectrum

    def recorded(p):
        truncations.append(p.truncation)
        return solve(p)

    monkeypatch.setattr(spectral, "eigen_spectrum", recorded)
    # the README sweeps take the catalogue; sector 1 has no integer shift and bisects
    results = [*readme_sweeps.values(), sweep(_pt5_three(mu3=1.0, mu4=3.0, sector=1.0),
                                               "mu7", 0.0, 20.0, 41)]
    for result in results:
        truncations.clear()
        assert result.truncation == 16 and find_exceptional_points(result)
        assert truncations and set(truncations) == {16}


def test_contradicting_certificate_raises(monkeypatch):
    # a pair born at levels 2 and 3 where q^2 changes sign: only odd-n
    # pairs, levels 2n-1 and 2n, may be born there
    result = sweep(_pt5_three(mu4=1.0, mu7=4.0, truncation=16, track_levels=6),
                   "mu3", 0.0, 2.0, 5)

    def levels_at(template, axis, x):
        pair = [2.0 + 1j, 2.0 - 1j] if x > 1.0 else [2.0, 2.5]
        return np.array([0.0, 1.0, *pair, 5.0, 6.0], dtype=complex)

    monkeypatch.setattr(spectral, "_levels_at", levels_at)
    with pytest.raises(ConvergenceFailure, match="contradict"):
        find_exceptional_points(result)


# ---------------------------------------------------------------------------
# descending grids, on the catalogue and on the generic path
# ---------------------------------------------------------------------------

def test_bisect_transition_descending():
    assert bisect_transition(lambda x: x < 1.0, 2.0, 0.0, 0.3) == (1.0, 0.75)
    lo, hi = bisect_transition(lambda x: x < 1.0, 2.0, 0.0, 1e-300)
    assert (lo, hi) == (1.0, np.nextafter(1.0, 0.0))


def _raw_pt5(mu3=0.0, mu7=0.0):
    # J^2 + mu3 u + i mu4 v + mu7 u^2: first harmonics, so no Hill form
    return SweepTemplate(family="raw", symmetry="PT5",
                         mu=(1.0, 0.0, mu3, 0.0, 0.0, 0.0, mu7, 0.0, 0.0),
                         truncation=16, track_levels=6)


DESCENDING_CASES = {
    "pt5-three": (_pt5_three(mu4=1.0, mu7=4.0, truncation=16, track_levels=6), "mu3", 0.0, 2.0, 5),
    "pt5-three-window": (_pt5_three(mu4=1.0, mu7=4.0, truncation=32), "mu3", -4.0, 4.0, 21),
    "raw-pt5": (_raw_pt5(), "mu4", 0.0, 1.5, 13),
    "raw-pt5-u": (_raw_pt5(mu3=0.3, mu7=0.5), "mu4", 0.0, 1.5, 13),
}


@pytest.mark.parametrize("case", DESCENDING_CASES)
def test_descending_grid_finds_the_same_eps(case):
    template, axis, lo, hi, steps = DESCENDING_CASES[case]
    tol = 1e-6
    up = find_exceptional_points(sweep(template, axis, lo, hi, steps), tol=tol)
    down = find_exceptional_points(sweep(template, axis, hi, lo, steps), tol=tol)
    assert up and len(down) == len(up)
    for a, b in zip(up, down):
        assert b.parameter_value == pytest.approx(a.parameter_value, abs=tol)
        assert b.energy == pytest.approx(a.energy, abs=1e-6)
        assert 0 < b.bracket_width <= tol


# ---------------------------------------------------------------------------
# templates outside the catalogue keep the bisection, bit for bit
# ---------------------------------------------------------------------------

# find_exceptional_points before the catalogue existed, on these sweeps
GENERIC_CASES = {
    "raw-pt5": (_raw_pt5(), [{"axis": "mu4", "parameter_value": 0.7343840599060059,
                              "energy": 0.5221747393808166, "level_pair": [2, 0],
                              "bracket_width": 9.5367431640625e-07}]),
    "raw-pt5-u": (_raw_pt5(mu3=0.3, mu7=0.5), [{"axis": "mu4",
                                                "parameter_value": 0.6590418815612793,
                                                "energy": 0.6841787539524797,
                                                "level_pair": [1, 0],
                                                "bracket_width": 9.5367431640625e-07}]),
}


@pytest.mark.parametrize("case", GENERIC_CASES)
def test_templates_without_a_mathieu_form_keep_the_bisection(case):
    template, expected = GENERIC_CASES[case]
    result = sweep(template, "mu4", 0.0, 1.5, 13)
    assert _mathieu_form(*template.element_at("mu4", 0.7)) is None
    assert [p.as_dict() for p in find_exceptional_points(result)] == expected


def test_pt1_test_template_keeps_the_bisection():
    template = SweepTemplate(family="raw", symmetry="PT1",
                             mu=(1.0, 0, 0.4, 0.2, -0.4, 0.8, -0.16 + 0.04, 0, -0.16),
                             truncation=32, track_levels=8)
    assert _mathieu_form(*template.element_at("mu3", 0.5)) is None
    assert find_exceptional_points(sweep(template, "mu3", 0.0, 1.0, 6)) == []
