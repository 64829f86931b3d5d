"""Exceptional points from the closed-form catalogue, descending sweeps, and the generic path."""

import hashlib
import json
import math

import numpy as np
import pytest
import scipy.linalg

import oracles
from euclidpt import cli, mathieu, spectral
from euclidpt.algebra import completed_square
from euclidpt.dyson import ep_predictions_pt5, pt5_double_point_predictions
from euclidpt.errors import ConvergenceFailure
from euclidpt.spectral import (SWEEP_AXES, SweepTemplate, bisect_transition,
                               eigen_spectrum, find_exceptional_points, sweep)


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
        assert len(result.forms) == len(result.values)
        assert all(result.forms) and {f[3] for f in result.forms} == {0.0}


def _bits(form):
    """A `_mathieu_form` with each float as its hex, so -0.0 differs from 0.0."""
    return None if form is None else tuple(float(x).hex() for x in form)


def _square_bits(square):
    """A `completed_square` with each part as its hex."""
    return None if square is None else tuple((z.real.hex(), z.imag.hex()) for z in square)


# the perfbench `ep` couplings, (mu4, mu7) of the mu3 sweep and (mu3, mu4) of the mu7 sweep;
# seed 0 is the README recipes
EP_SEEDS = {0: ((1.0, 4.0), (1.0, 3.0)),
            1: ((1.0007092974820153, 4.108111287118224), (0.978649576763178, 3.0807569004847037)),
            2: ((0.985696728054959, 3.9516378744193896), (1.0188535444356568, 2.9265448695843173)),
            3: ((0.9751389500286175, 3.936834521583064), (1.0180764679123837, 3.0147891664915862))}


@pytest.mark.parametrize("seed", sorted(EP_SEEDS))
def test_scalar_form_is_the_element_form_on_every_ep_point(seed, monkeypatch):
    # every square the catalogue reads, and its form: bisection steps, certificate sides (whose
    # squares it solves), positions
    (mu4_a, mu7_a), (mu3_b, mu4_b) = EP_SEEDS[seed]
    read, square_at = [], SweepTemplate.square_at

    def recorded(self, axis, x):
        at = square_at(self, axis, x)
        read.append((x, at))
        return at

    monkeypatch.setattr(SweepTemplate, "square_at", recorded)
    for template, axis, lo, hi in ((_pt5_three(mu4=mu4_a, mu7=mu7_a), "mu3", -4.0, 4.0),
                                   (_pt5_three(mu3=mu3_b, mu4=mu4_b), "mu7", 0.0, 20.0)):
        result = sweep(template, axis, lo, hi, 41)
        read.clear()
        assert find_exceptional_points(result) and len(read) > 100
        for x, (square, sector) in read:
            element, element_sector = template.element_at(axis, x)
            assert (_square_bits(square), sector) == (
                _square_bits(completed_square(element.coeffs.tolist())), element_sector)
        for x, form in [*zip(result.values.tolist(), result.forms),
                        *((x, spectral._mathieu_form(*at)) for x, at in read)]:
            assert _bits(form) == _bits(oracles.element_mathieu_form(template, axis, x)), \
                f"{axis}={x!r}"


def _hill_couplings(symmetry, rng):
    """Random couplings of the symmetry whose element has a `hill_form`, J2 = 1/2, 1 or 2."""
    m = rng.integers(-16, 17, 9) / 8.0
    m[0], m[1] = rng.choice([0.5, 1.0, 2.0]), 0.0
    half5, half6 = m[4] / 2, m[5] / 2
    m[2], m[3] = {"PT1": (half6, -half5), "PT2": (-half6, half5), "PT3": (half6, half5),
                  "PT4": (half6, half5), "PT5": (-half6, -half5)}[symmetry]
    return tuple(m.tolist())


@pytest.mark.parametrize("family", ["PT1", "PT2", "PT3", "PT4", "PT5", "pt5-three"])
def test_scalar_form_is_the_element_form_on_random_couplings(family):
    rng = np.random.default_rng(sum(map(ord, family)))
    checked = reduced = 0
    for draw in range(12):
        if family == "pt5-three":
            mu, axes = (1.0, 0.0, *rng.uniform(-3, 3, 2), 0.0, 0.0, rng.uniform(-3, 6), 0, 0), \
                ("mu3", "mu4", "mu7", "s")
        else:
            mu = _hill_couplings(family, rng) if draw % 2 else tuple(rng.uniform(-2, 2, 9))
            axes = SWEEP_AXES
        for sector in (0.0, 0.5, 1.0):
            template = SweepTemplate(symmetry="PT5" if family == "pt5-three" else family,
                                     family="pt5-three" if family == "pt5-three" else "raw",
                                     mu=mu, sector=sector)
            for axis in axes:
                here = sector if axis == "s" else template.mu[int(axis[2]) - 1]
                for x in (here, float(rng.uniform(-3, 3)), -0.0):
                    form = template.form_at(axis, x)
                    assert _bits(form) == _bits(oracles.element_mathieu_form(template, axis, x))
                    checked += 1
                    reduced += form is not None
            for axis in set(SWEEP_AXES) - set(axes):   # pt5-three's tied couplings
                for at in (template.form_at, template.element_at):
                    with pytest.raises(ValueError, match="pt5-three family sweeps"):
                        at(axis, 1.0)
    assert reduced >= checked // 10   # sector 0 gives the Hill draws an integer shift


@pytest.mark.parametrize("axis, value", [("mu3", 1e200), ("mu4", 1e160)])
def test_an_overflowing_square_raises_one_value_error(axis, value):
    template = _pt5_three(mu4=1.0, mu7=4.0)
    coupling = "vJ" if axis == "mu3" else "uJ"
    with pytest.raises(ValueError, match=f"completed square overflows .*{coupling}="):
        template.form_at(axis, value)
    with pytest.raises(ValueError, match=f"completed square overflows .*{coupling}="):
        eigen_spectrum(template.problem_at(axis, value))
    with pytest.raises(ValueError, match=f"completed square overflows .*{coupling}="):
        sweep(template, axis, 0.0, value, 3)


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


def _record_solves(monkeypatch, log):
    """Log the truncation of every point `eigen_spectrum` solves and of every row of a
    `_stacked_levels` stack, the catalogue's certificate sides."""
    solve, stacked = spectral.eigen_spectrum, spectral._stacked_levels
    monkeypatch.setattr(spectral, "eigen_spectrum", lambda p: log.append(
        ("point", p.truncation)) or solve(p))
    monkeypatch.setattr(spectral, "_stacked_levels", lambda work, squares, sectors: log.extend(
        [("side", work.truncation)] * len(squares)) or stacked(work, squares, sectors))


def test_at_most_four_eigensolves_per_ep(readme_sweeps, monkeypatch):
    solves = []
    _record_solves(monkeypatch, solves)
    for result in readme_sweeps.values():
        solves.clear()
        eps = find_exceptional_points(result)
        # the catalogue solves its certificate sides as stacked rows, no point alone
        assert eps and solves and {kind for kind, _ in solves} == {"side"}
        assert len(solves) <= 4 * len(eps)


def test_eps_solve_at_the_sweeps_truncation(readme_sweeps, monkeypatch):
    solves = []
    _record_solves(monkeypatch, solves)
    # the README sweeps take the catalogue, whose sides are stacked rows; sector 1 has no
    # integer shift and bisects, one point at a time
    results = {"side": readme_sweeps.values(),
               "point": [sweep(_pt5_three(mu3=1.0, mu4=3.0, sector=1.0), "mu7", 0.0, 20.0, 41)]}
    for kind, sweeps in results.items():
        for result in sweeps:
            solves.clear()
            assert result.truncation == 16 and find_exceptional_points(result)
            assert solves and set(solves) == {(kind, 16)}


def test_the_scan_solves_only_past_the_real_stretch(readme_sweeps, monkeypatch):
    # the seed-0 `ep` jobs: three Mathieu chain solves, all at t above the stretch that
    # Gershgorin certifies real (34 solves when every scan point was solved)
    solved = []
    sorted_eigs = mathieu._sorted_eigs
    monkeypatch.setattr(mathieu, "_sorted_eigs", lambda q, cls, size: solved.append(
        (q.imag, cls, size)) or sorted_eigs(q, cls, size))
    for result in readme_sweeps.values():
        find_exceptional_points(result)
    assert len(solved) == 3
    assert all(t >= mathieu._real_stretch(cls, size) for t, cls, size in solved)


def test_contradicting_certificate_raises(monkeypatch):
    # a pair born at levels 2 and 3 where q^2 changes sign: only odd-n
    # pairs, levels 2n-1 and 2n, may be born there
    result = sweep(_pt5_three(mu4=1.0, mu7=4.0, truncation=16, track_levels=6),
                   "mu3", 0.0, 2.0, 5)

    def stacked_levels(work, squares, sectors):
        # the sides of the one crossing, mu3 = 1: the real side, then the broken one
        assert len(squares) == 2
        return np.array([[0.0, 1.0, 2.0, 2.5, 5.0, 6.0],
                         [0.0, 1.0, 2.0 + 1j, 2.0 - 1j, 5.0, 6.0]])

    monkeypatch.setattr(spectral, "_stacked_levels", stacked_levels)
    with pytest.raises(ConvergenceFailure, match="contradict"):
        find_exceptional_points(result)


def _break_sides(monkeypatch, result, breaks):
    """Break certificate sides, counted in the catalogue's order, each crossing's real side
    then its broken one: `breaks` maps a side to "overflow", a square whose chain bands
    overflow, or to (chain, info), `dstevd` failing with that info on its even (0) or odd
    (1) chain.  Returns the number of sides."""
    sides = []
    stacked_levels = spectral._stacked_levels
    with monkeypatch.context() as patch:
        # the squares and sectors of the sides, in turn, as the stacks solve them
        patch.setattr(spectral, "_stacked_levels", lambda work, squares, sectors: sides.extend(
            zip(squares, sectors)) or stacked_levels(work, squares, sectors))
        find_exceptional_points(result)
    infos, big = {}, set()
    for side, how in breaks.items():
        square, sector = sides[side]
        if how == "overflow":   # times a power of two: the same Mathieu form, but 2^1017 J2
            big.add(square)
        else:
            chain, info = how
            diag = spectral._even_bands(square, sector, result.truncation)[1][chain::2]
            infos[diag.real.tobytes()] = info
    dstevd = scipy.linalg.lapack.dstevd

    def failing(d, e, **kwargs):
        if d.tobytes() in infos:
            return np.zeros_like(d), None, infos[d.tobytes()]
        return dstevd(d, e, **kwargs)

    def scaled_stack(work, squares, sectors):
        return stacked_levels(work, [tuple(2.0 ** 1017 * z for z in square) if square in big
                                     else square for square in squares], sectors)

    monkeypatch.setattr(scipy.linalg.lapack, "dstevd", failing)
    monkeypatch.setattr(spectral, "_stacked_levels", scaled_stack)
    return len(sides)


DSTEVD_1 = ConvergenceFailure, "dstevd failed to converge (info 1)"
DSTEVD_2 = ConvergenceFailure, "dstevd failed to converge (info 2)"
OVERFLOW = ValueError, "the circle-representation matrix at truncation 16 overflows floating point"


@pytest.mark.parametrize("breaks, raised", [
    ({2: (0, 2)}, DSTEVD_2),
    ({2: "overflow"}, OVERFLOW),
    # a stack solves every side's even chain before any odd one: side 2's would fail first
    ({0: (1, 1), 2: (0, 2)}, DSTEVD_1),
    # a stack builds every side's bands before it solves one: side 2's would overflow first
    ({0: (0, 1), 2: "overflow"}, DSTEVD_1),
    ({0: "overflow", 2: (0, 2)}, OVERFLOW)],
    ids=["dstevd", "overflow", "dstevd-odd-first", "dstevd-then-overflow", "overflow-first"])
def test_a_failing_side_raises_the_point_by_point_error(readme_sweeps, monkeypatch, breaks,
                                                        raised):
    # the error the crossings raise when each is placed, solved and certified in turn;
    # sides 0 and 2, the real sides of mu7 = 4 and 16, go to `dstevd`
    result = readme_sweeps["mu7"]
    assert _break_sides(monkeypatch, result, breaks) == 8
    error, message = raised
    with pytest.raises(error) as caught:
        find_exceptional_points(result)
    assert str(caught.value) == message


# the EPs the two README `ep` recipes print
MU3_EPS = [
    {"axis": "mu3", "bracket_width": 4.440892098500626e-16, "energy": 7.0,
     "level_pair": [0, 2], "parameter_value": -3.0},
    {"axis": "mu3", "bracket_width": 4.440892098500626e-16, "energy": 15.0,
     "level_pair": [6, 5], "parameter_value": -3.0},
    {"axis": "mu3", "bracket_width": 2.220446049250313e-16, "energy": 3.0,
     "level_pair": [0, 2], "parameter_value": -1.0},
    {"axis": "mu3", "bracket_width": 2.220446049250313e-16, "energy": 11.0,
     "level_pair": [6, 5], "parameter_value": -1.0},
    {"axis": "mu3", "bracket_width": 2.220446049250313e-16, "energy": 3.0,
     "level_pair": [0, 2], "parameter_value": 1.0},
    {"axis": "mu3", "bracket_width": 2.220446049250313e-16, "energy": 11.0,
     "level_pair": [6, 5], "parameter_value": 1.0},
    {"axis": "mu3", "bracket_width": 4.440892098500626e-16, "energy": 7.0,
     "level_pair": [0, 2], "parameter_value": 3.0},
    {"axis": "mu3", "bracket_width": 4.440892098500626e-16, "energy": 15.0,
     "level_pair": [6, 5], "parameter_value": 3.0},
]
MU7_EPS = [
    {"axis": "mu7", "bracket_width": 8.881784197001252e-16, "energy": -1.0,
     "level_pair": [1, 2], "parameter_value": 4.0},
    {"axis": "mu7", "bracket_width": 8.881784197001252e-16, "energy": 7.0,
     "level_pair": [6, 5], "parameter_value": 4.0},
    {"axis": "mu7", "bracket_width": 1.7763568394002505e-15, "energy": 2.4797037987967245,
     "level_pair": [3, 0], "parameter_value": 8.782009792094058},
    {"axis": "mu7", "bracket_width": 1.7763568394002505e-15, "energy": 3.6976940067026662,
     "level_pair": [0, 3], "parameter_value": 11.217990207905942},
    {"axis": "mu7", "bracket_width": 1.7763568394002505e-15, "energy": 5.0,
     "level_pair": [1, 2], "parameter_value": 16.0},
    {"axis": "mu7", "bracket_width": 1.7763568394002505e-15, "energy": 13.0,
     "level_pair": [6, 5], "parameter_value": 16.0},
]
# stdout of the two README `ep` recipes: its sha256, and its EPs
README_EP_RECIPES = [
    ("ep --family pt5-three --mu4 1 --mu7 4 --sweep mu3:-4:4:41",
     "a7ffec4a295b423008ade1de277281b5ec3af724ea69684074d9870b98507db4", MU3_EPS),
    ("ep --family pt5-three --mu3 1 --mu4 3 --sweep mu7:0:20:41",
     "c05fec01c24dda40e52fc38a21303371a975c56f6a320d69ba59a6a451f4fdeb", MU7_EPS),
]


@pytest.mark.parametrize("argv, digest, expected", README_EP_RECIPES, ids=["mu3", "mu7"])
def test_readme_ep_recipes_print_the_same_bytes(argv, digest, expected, capsys):
    # positions come from bisection on the forms' q^2 and Newton on the chain continuant,
    # energies from the forms: Python scalars, not LAPACK digits
    assert cli.main(argv.split()) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["exceptional_points"] == expected
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the README `ep` recipes, a wider mu7 window where three pairs meet at mu7 = 49, the README
# `spectrum` recipes (the real family in both sectors) and its `intensity` surface
EP_RUNS = [argv for argv, _, _ in README_EP_RECIPES] + [
    "ep --family pt5-three --mu3 2 --mu4 9 --sweep mu7:0:170:81"]
STACK_RUNS = EP_RUNS + [
    "spectrum --family pt5-three --mu3 0.5 --mu7 0 --sweep mu4:-3:3:200 --levels 7",
    "spectrum --family pt5-three --mu3 0.5 --mu7 0 --sweep mu4:-3:3:200 --levels 7 --sector 1",
    "spectrum --family pt5-three --mu4 1 --mu7 4 --sweep mu3:-4:4:161",
    "spectrum --family raw --symmetry PT5 --mu1 1 --mu7 0.5 --sweep s:0:1.95:40 --levels 6",
    "intensity --sweep mu3:0:4:81 --mu4 1 --mu7 4"]


@pytest.mark.parametrize("stack", [1, 2])
def test_the_stack_size_changes_no_byte(stack, monkeypatch, capsys):
    def stdout(argv):
        assert cli.main(argv.split()) == 0
        return capsys.readouterr().out

    expected = [stdout(argv) for argv in STACK_RUNS]
    rows = []
    stacked_levels = spectral._stacked_levels
    monkeypatch.setattr(spectral, "_stacked_levels", lambda work, squares, sectors: rows.append(
        len(squares)) or stacked_levels(work, squares, sectors))
    monkeypatch.setattr(spectral, "STACK", stack)
    assert [stdout(argv) for argv in STACK_RUNS] == expected
    assert all(json.loads(out)["exceptional_points"] for out in expected[:len(EP_RUNS)])
    # a grid stack holds at most STACK points, a catalogue stack one crossing's two sides
    assert rows and max(rows) == 2


def test_a_certificate_failure_raises_before_the_next_chunk_is_stacked(readme_sweeps,
                                                                        monkeypatch):
    # one crossing a chunk: the first crossing's sides, swapped, contradict the catalogue,
    # and the error comes before the next chunk's sides are placed or solved
    calls = []
    stacked_levels = spectral._stacked_levels

    def swapped(work, squares, sectors):
        calls.append(len(squares))
        rows = stacked_levels(work, squares, sectors)
        return rows[::-1] if len(calls) == 1 else rows

    monkeypatch.setattr(spectral, "STACK", 2)
    monkeypatch.setattr(spectral, "_stacked_levels", swapped)
    with pytest.raises(ConvergenceFailure, match="contradict"):
        find_exceptional_points(readme_sweeps["mu7"])
    assert calls == [2]


# ---------------------------------------------------------------------------
# descending grids, on the catalogue and on the generic path
# ---------------------------------------------------------------------------

def test_bisect_transition_descending():
    assert bisect_transition(lambda x: x < 1.0, 2.0, 0.0, 0.3) == (1.0, 0.75)
    lo, hi = bisect_transition(lambda x: x < 1.0, 2.0, 0.0, 1e-300)
    assert (lo, hi) == (1.0, np.nextafter(1.0, 0.0))


def _raw_pt5(mu3=0.0, mu7=0.0, sector=0.0):
    # J^2 + mu3 u + i mu4 v + mu7 u^2: first harmonics, so no Hill form
    return SweepTemplate(family="raw", symmetry="PT5",
                         mu=(1.0, 0.0, mu3, 0.0, 0.0, 0.0, mu7, 0.0, 0.0),
                         truncation=16, track_levels=6, sector=sector)


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
    assert oracles.element_mathieu_form(template, "mu4", 0.7) is None
    assert [p.as_dict() for p in find_exceptional_points(result)] == expected


# the README `ep` recipes in the fermionic sector (`--sector 1`), whose half-integer shift
# leaves every grid point without a Mathieu form: find_exceptional_points while
# `spectral.reality_transitions` still bracketed them, as (parameter_value, energy,
# level_pair, bracket_width); each position holds the twin pairs of the two Hill chains
BISECTED_CASES = {
    "mu3": ((0.0, 1.0, 4.0), "mu3", -4.0, 4.0, [
        (-2.5004665374755857, 5.994674107387974, [0, 1], 7.629394529473643e-07),
        (-2.5004665374755857, 5.994674107387976, [0, 1], 7.629394529473643e-07),
        (-1.9358898162841798, 4.7423440751367405, [3, 2], 7.629394529473643e-07),
        (-1.9358898162841798, 4.7423440751367405, [3, 2], 7.629394529473643e-07),
        (1.9358898162841798, 4.742344075136739, [2, 3], 7.629394529473643e-07),
        (1.9358898162841798, 4.742344075136742, [2, 3], 7.629394529473643e-07),
        (2.5004665374755866, 5.994674107387976, [0, 1], 7.629394529473643e-07),
        (2.5004665374755866, 5.994674107387984, [0, 1], 7.629394529473643e-07),
    ]),
    "mu7": ((1.0, 3.0, 0.0), "mu7", 0.0, 20.0, [
        (5.355827808380127, 0.04642276757237168, [2, 3], 9.5367431640625e-07),
        (5.355827808380127, 0.046422767572372375, [2, 3], 9.5367431640625e-07),
        (14.644172191619873, 4.690594482355087, [0, 1], 9.5367431640625e-07),
        (14.644172191619873, 4.690594482355094, [0, 1], 9.5367431640625e-07),
    ]),
    "mu7-descending": ((1.0, 3.0, 0.0), "mu7", 20.0, 0.0, [
        (5.355827808380127, 0.04642276757237168, [3, 2], 9.5367431640625e-07),
        (5.355827808380127, 0.046422767572372375, [3, 2], 9.5367431640625e-07),
        (14.644172191619873, 4.690594482355087, [1, 0], 9.5367431640625e-07),
        (14.644172191619873, 4.690594482355094, [1, 0], 9.5367431640625e-07),
    ]),
}


@pytest.mark.parametrize("case", BISECTED_CASES)
def test_fermionic_readme_recipes_keep_their_bisected_eps(case):
    (mu3, mu4, mu7), axis, lo, hi, expected = BISECTED_CASES[case]
    result = sweep(_pt5_three(mu3=mu3, mu4=mu4, mu7=mu7, sector=1.0), axis, lo, hi, 41)
    assert set(result.forms) == {None}
    assert [p.as_dict() for p in find_exceptional_points(result)] == [
        {"axis": axis, "parameter_value": x, "energy": energy, "level_pair": pair,
         "bracket_width": width} for x, energy, pair, width in expected]


def test_bisected_eps_solve_each_point_once(monkeypatch):
    # one grid interval of this fermionic sweep holds two births, 1.8e-6 apart
    result = sweep(_raw_pt5(mu3=0.3, mu7=0.5, sector=1.0), "mu4", 0.0, 1.5, 13)
    solved, levels_at = [], spectral._levels_at
    monkeypatch.setattr(spectral, "_levels_at",
                        lambda work, axis, x: solved.append(x) or levels_at(work, axis, x))
    assert len(find_exceptional_points(result)) == 3
    assert len(solved) == len(set(solved))
    assert not set(solved) & set(result.values.tolist())


def test_pt1_test_template_keeps_the_bisection():
    template = SweepTemplate(family="raw", symmetry="PT1",
                             mu=(1.0, 0, 0.4, 0.2, -0.4, 0.8, -0.16 + 0.04, 0, -0.16),
                             truncation=32, track_levels=8)
    assert oracles.element_mathieu_form(template, "mu3", 0.5) is None
    assert find_exceptional_points(sweep(template, "mu3", 0.0, 1.0, 6)) == []


def test_a_q2_that_floats_cannot_hold_keeps_the_bisection():
    # c = 1e-200: 16 c^2 underflows to 0, so q^2 has no float and the sweep has no form
    template = SweepTemplate(mu=(1e-200, 0, 0, 0, 0, 0, 1.0, 0, 0), truncation=8, track_levels=3)
    result = sweep(template, "mu3", 0.0, 1.0, 3)
    assert result.forms == (None, None, None)
    assert template.form_at("mu3", 0.5) is None
    assert isinstance(find_exceptional_points(result), list)
