"""Acceptance gate: every criterion at its stated tolerance, one per test.

Each test prints a PASS/FAIL line (visible with -s / -rA; pytest's own
per-test verdicts mirror them).  Tolerances are pinned here and nowhere
else.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from euclidpt.algebra import build_hamiltonian
from euclidpt.dyson import (DysonParamsE2, adjoint_generator, hermitize,
                            optical_lattice_map, pt5_three_param_hamiltonian)
from euclidpt.e3 import DysonParamsE3, GENERATORS as E3_GENERATORS, e3_adjoint
from euclidpt.errors import DegenerateCouplings, MapUndefined
from euclidpt.mathieu import (EVEN_2PI, EVEN_PI, ODD_2PI, ODD_PI,
                              antiperiodic_characteristic_values,
                              characteristic_values, complex_mathieu_eps)
from euclidpt.spectral import (SpectralProblem, SweepTemplate, eigen_spectrum,
                               find_exceptional_points, intensity, pt1_closed_spectrum,
                               sweep, wavefunction)

import oracles
from test_e3 import oracle_table


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    assert ok, line


def _ep_template(mu3, mu4, mu7):
    return SweepTemplate(family="pt5-three",
                         mu=(1.0, 0.0, mu3, mu4, 0.0, 0.0, mu7, 0.0, 0.0),
                         sector=0.0, truncation=64, track_levels=12)


def _match(points, x, e, x_tol, e_tol):
    return any(abs(p.parameter_value - x) <= x_tol and abs(p.energy - e) <= e_tol
               for p in points)


def test_criterion_1_pt_breaking_window_mu3():
    """Sweep mu3 with mu4=1, mu7=4 (s=0, N=64): eigenvalue pairs merge at
    mu3 = +-1 with energy 3 and mu3 = +-3 with energy 7; parameter within
    1e-3, energy within 1e-2; runtime under 30 s."""
    start = time.perf_counter()
    result = sweep(_ep_template(0.0, 1.0, 4.0), "mu3", -4.0, 4.0, 41)
    points = find_exceptional_points(result, tol=1e-4)
    elapsed = time.perf_counter() - start
    expected = [(-3.0, 7.0), (-1.0, 3.0), (1.0, 3.0), (3.0, 7.0)]
    misses = [(x, e) for x, e in expected if not _match(points, x, e, 1e-3, 1e-2)]
    ok = not misses and elapsed < 30.0
    _report(1, "breaking-window mu3 sweep", ok,
            f"elapsed {elapsed:.1f}s, missed {misses}" if not ok else
            f"elapsed {elapsed:.1f}s")


def test_criterion_2_pt_breaking_window_mu7():
    """Sweep mu7 with mu3=1, mu4=3: merging points (4, -1) and (16, 5)."""
    result = sweep(_ep_template(1.0, 3.0, 0.0), "mu7", 0.0, 20.0, 21)
    points = find_exceptional_points(result, tol=1e-4)
    expected = [(4.0, -1.0), (16.0, 5.0)]
    misses = [(x, e) for x, e in expected if not _match(points, x, e, 1e-3, 1e-2)]
    _report(2, "breaking-window mu7 sweep", not misses, f"missed {misses}")


def test_criterion_3_complex_mathieu_eps():
    """Imaginary-axis Mathieu scan: collisions at t ~ 1.4687 (E ~ 0.5221747)
    and t ~ 16.47116 (E ~ 6.8297819), both to 1e-3; all characteristic values
    real below the first collision.  The energies are a/4 at the classical
    even pi-periodic double points (Mulholland & Goldstein 1929; Blanch &
    Clemm 1969), certified by oracles.mathieu_even_pi_double_point."""
    eps = complex_mathieu_eps(17.0, EVEN_PI, count=8)
    failures = []
    if len(eps) < 2:
        failures.append(f"found only {len(eps)} collisions")
    else:
        t1, e1 = eps[0]["q_imag"], eps[0]["a_merge"] / 4.0
        t2, e2 = eps[1]["q_imag"], eps[1]["a_merge"] / 4.0
        if abs(t1 - 1.4687) > 1e-3:
            failures.append(f"t1 = {t1:.6f} vs 1.4687")
        if abs(e1 - 0.5221747) > 1e-3:
            failures.append(f"E1 = {e1:.6f} vs 0.5221747 (computed merge value)")
        if abs(t2 - 16.47116) > 1e-3:
            failures.append(f"t2 = {t2:.6f} vs 16.47116")
        if abs(e2 - 6.8297819) > 1e-3:
            failures.append(f"E2 = {e2:.6f} vs 6.8297819 (computed merge value)")
        for t in np.linspace(0.05, 1.4687 - 1e-3, 40):
            w = characteristic_values(1j * t, EVEN_PI, 8)
            if np.max(np.abs(w.imag)) > 1e-8:
                failures.append(f"complex value below first collision at t={t:.4f}")
                break
    _report(3, "complex-Mathieu collisions", not failures, "; ".join(failures))


def test_criterion_4_entirely_real_family():
    """mu3 = 1/2, mu7 = 0, 200 points mu4 in [-3, 3] minus (0.45, 0.55):
    the lowest 7 levels are real to 1e-8 in all four sector/parity panels."""
    from euclidpt.dyson import reduce_pt5_three_param

    grid = [x for x in np.linspace(-3.0, 3.0, 200) if abs(x - 0.5) >= 0.05]
    worst = 0.0
    for mu4 in grid:
        out = reduce_pt5_three_param(0.5, float(mu4), 0.0)
        q = (out["alpha"] ** 2 - out["beta"]) / 4.0
        panels = [
            np.concatenate([characteristic_values(q, EVEN_PI, 4, trunc=40),
                            characteristic_values(q, EVEN_2PI, 4, trunc=40)]),
            np.concatenate([characteristic_values(q, ODD_PI, 4, trunc=40),
                            characteristic_values(q, ODD_2PI, 4, trunc=40)]),
            antiperiodic_characteristic_values(q, "even", 7, trunc=40),
            antiperiodic_characteristic_values(q, "odd", 7, trunc=40),
        ]
        for w in panels:
            w = w[np.argsort(w.real)][:7]
            worst = max(worst, float(np.max(np.abs(w.imag))))
    # direct circle-representation cross-check on a subgrid, both sectors
    for mu4 in grid[::8]:
        element = pt5_three_param_hamiltonian(0.5, float(mu4), 0.0)
        for sector in (0.0, 1.0):
            spec = eigen_spectrum(SpectralProblem(element, sector=sector,
                                                  truncation=64))
            worst = max(worst, float(np.max(np.abs(spec.eigenvalues[:10].imag))))
    _report(4, "entirely real family", worst < 1e-8, f"worst |Im E| = {worst:.2e}")


def test_criterion_5_pt1_closed_forms():
    """Spectra of the constrained PT1 family match mu1(k^2 - mu3^2/mu1^2)
    with k = n (bosonic) and k = n + 1/2 (fermionic), 20 random draws,
    levels n <= 8, to 1e-8."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        mu1 = rng.uniform(0.5, 2.0)
        mu3 = rng.uniform(-2.0, 2.0)
        mu4 = rng.uniform(-2.0, 2.0)
        element = build_hamiltonian("PT1", hermitize(
            "PT1", lam=0.0, mu1=mu1, mu3=mu3, mu4=mu4).constrained_mu)
        for statistics, sector, ns in (("bosonic", 0.0, range(-8, 9)),
                                       ("fermionic", 1.0, range(-8, 8))):
            spec = eigen_spectrum(SpectralProblem(element, sector=sector,
                                                  truncation=64))
            count = len(list(ns))
            numeric = spec.eigenvalues[:count]
            closed = np.sort([pt1_closed_spectrum(mu1, mu3, n, statistics)
                              for n in ns])
            worst = max(worst, float(np.max(np.abs(numeric.imag))),
                        float(np.max(np.abs(np.sort(numeric.real) - closed))))
    _report(5, "closed-form PT1 spectra", worst < 1e-8, f"worst dev = {worst:.2e}")


def _admissible_draw(rng, symmetry):
    while True:
        if symmetry in ("PT1", "PT2"):
            return {"lam": rng.uniform(-1.0, 1.0), "mu1": rng.uniform(0.5, 1.5),
                    "mu3": rng.uniform(-1.5, 1.5), "mu4": rng.uniform(-1.5, 1.5)}
        if symmetry == "PT3":
            free = {"mu1": rng.uniform(0.8, 1.5),
                    **{f"mu{i}": rng.uniform(-1, 1) for i in range(2, 9)}}
            num = free["mu2"] * free["mu5"] + free["mu1"] * (free["mu6"] - 2 * free["mu3"])
            den = free["mu1"] * (2 * free["mu4"] - free["mu5"]) - free["mu2"] * free["mu6"]
            if abs(den) > 0.05 and abs(num / den) > 1.15:
                return free
        else:
            free = {"mu1": rng.uniform(0.8, 1.5),
                    **{f"mu{i}": rng.uniform(-1, 1) for i in (2, 4, 5, 6, 7, 8)}}
            if abs(free["mu5"] * free["mu6"]) < 0.05:
                continue
            if symmetry == "PT4":
                rhs = (4 * free["mu1"] * (free["mu8"] - free["mu7"])
                       - free["mu5"] ** 2 - free["mu6"] ** 2) / (2 * free["mu5"] * free["mu6"])
            else:
                rhs = (free["mu5"] ** 2 + free["mu6"] ** 2
                       - 4 * free["mu1"] * free["mu7"]
                       + 4 * free["mu1"] * free["mu8"]) / (2 * free["mu5"] * free["mu6"])
            if abs(rhs) > 1.15:
                return free


def test_criterion_6_hermitization_suite():
    """50 admissible random draws per symmetry: hermiticity residual of h
    below 1e-10 and H/h isospectral on the trusted interior to 1e-6;
    MapUndefined raised exactly when the coth right side lies in [-1, 1]."""
    rng = np.random.default_rng(202)
    worst_residual, worst_iso = 0.0, 0.0
    for symmetry in ("PT1", "PT2", "PT3", "PT4", "PT5"):
        for _ in range(50):
            free = _admissible_draw(rng, symmetry)
            res = hermitize(symmetry, **free)
            worst_residual = max(worst_residual, res.residual)
            H = build_hamiltonian(symmetry, res.constrained_mu)
            a = oracles.lowest_levels(H, 12, truncation=40)
            b = oracles.lowest_levels(res.h, 12, truncation=40)
            worst_iso = max(worst_iso, float(np.max(np.abs(a - b))))
    # exactness of the broken-region signal for the coth-solved symmetries
    exact = True
    for symmetry in ("PT3", "PT4", "PT5"):
        for _ in range(50):
            if symmetry == "PT3":
                mu = {"mu1": rng.uniform(0.8, 1.5),
                      **{f"mu{i}": rng.uniform(-1.2, 1.2) for i in range(2, 9)}}
                den = mu["mu1"] * (2 * mu["mu4"] - mu["mu5"]) - mu["mu2"] * mu["mu6"]
                if abs(den) < 0.02:
                    continue
                rhs = (mu["mu2"] * mu["mu5"]
                       + mu["mu1"] * (mu["mu6"] - 2 * mu["mu3"])) / den
            else:
                mu = {"mu1": rng.uniform(0.8, 1.5),
                      **{f"mu{i}": rng.uniform(-1.2, 1.2) for i in (2, 4, 5, 6, 7, 8)}}
                if abs(mu["mu5"] * mu["mu6"]) < 0.02:
                    continue
                if symmetry == "PT4":
                    rhs = (4 * mu["mu1"] * (mu["mu8"] - mu["mu7"])
                           - mu["mu5"] ** 2 - mu["mu6"] ** 2) / (2 * mu["mu5"] * mu["mu6"])
                else:
                    rhs = (mu["mu5"] ** 2 + mu["mu6"] ** 2 - 4 * mu["mu1"] * mu["mu7"]
                           + 4 * mu["mu1"] * mu["mu8"]) / (2 * mu["mu5"] * mu["mu6"])
            try:
                hermitize(symmetry, **mu)
                raised = False
            except MapUndefined:
                raised = True
            if raised != (abs(rhs) <= 1.0):
                exact = False
    ok = worst_residual < 1e-10 and worst_iso < 1e-6 and exact
    _report(6, "hermitization suite", ok,
            f"residual {worst_residual:.2e}, isospectrality {worst_iso:.2e}, "
            f"undefined-signal exact: {exact}")


def test_criterion_7_optical_lattice_bound():
    """The sinusoidal-lattice reduction (mu7=0, mu8=-4, mu9=-8 V0) admits a
    real Dyson exponent exactly for |V0| < 1/2 (grid spacing 1e-3)."""
    ok = True
    for k in range(-600, 601):
        v0 = k / 1000.0
        try:
            optical_lattice_map(0.0, -4.0, -8.0 * v0)
            succeeded = True
        except MapUndefined:
            succeeded = False
        except DegenerateCouplings:
            succeeded = False
        if succeeded != (abs(v0) < 0.5):
            ok = False
            break
    _report(7, "optical-lattice bound", ok, f"first mismatch at V0 = {v0}" if not ok else "")


def test_criterion_8_oracle_equivalence():
    """Adjoint actions match matrix-exponential conjugation to 1e-8 on 100
    random draws each (circle-representation for E2, 4x4 for E3)."""
    rng = np.random.default_rng(303)
    n = 32
    mat_u, mat_v, mat_j = oracles.generator_matrices(n)
    gen_mats = {"u": mat_u, "v": mat_v, "J": mat_j}
    worst_e2 = 0.0
    for _ in range(100):
        lam, rho, tau = rng.uniform(-1.0, 1.0, 3)
        p = DysonParamsE2(lam, rho, tau)
        eta = expm(lam * mat_j + rho * mat_u + tau * mat_v)
        eta_inv = np.linalg.inv(eta)
        for g in ("u", "v", "J"):
            lhs = oracles.element_matrix(adjoint_generator(p, g), n)
            rhs = eta @ gen_mats[g] @ eta_inv
            worst_e2 = max(worst_e2, float(np.max(np.abs(
                oracles.interior(lhs - rhs, 8)))))
    worst_e3 = 0.0
    for _ in range(100):
        p3 = DysonParamsE3(*rng.uniform(-0.8, 0.8, 6))
        table = e3_adjoint(p3)
        oracle = oracle_table(p3)
        for g in E3_GENERATORS:
            for h in E3_GENERATORS:
                got = table.columns[g].get(h, 0.0)
                worst_e3 = max(worst_e3, abs(got - oracle[g][h]))
    ok = worst_e2 < 1e-8 and worst_e3 < 1e-8
    _report(8, "adjoint oracle equivalence", ok,
            f"E2 {worst_e2:.2e}, E3 {worst_e3:.2e}")


def _normalized_pair_intensities(mu3, theta):
    problem = SpectralProblem(pt5_three_param_hamiltonian(mu3, 1.0, 4.0),
                              truncation=64)
    spec = eigen_spectrum(problem)
    w = spec.eigenvalues[:12]
    cplx = [i for i, z in enumerate(w) if abs(z.imag) > 1e-6]
    if len(cplx) >= 2:
        pair = cplx[:2]
    else:
        pair = list(np.argsort(np.abs(w.real - 3.0))[:2])
    return [intensity(wavefunction(spec, int(i)), theta) for i in pair]


def test_criterion_9_intensity_gain_loss_symmetry():
    """Broken regime (mu3=1.2, mu4=1, mu7=4): the merged pair's signed
    even/odd intensity profile G = I_even - I_odd obeys the reflection rule
    G(theta) + G(2*theta0 - theta) = 0 about theta0 = pi/2 to 2% relative
    (the loss/gain symmetry), and the two intensities are mirror images;
    at mu3 = 0.8 the relation fails by more than 10%."""
    theta = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)

    def reflected(values):
        return np.interp((math.pi - theta) % (2.0 * math.pi), theta, values,
                         period=2.0 * math.pi)

    int_a, int_b = _normalized_pair_intensities(1.2, theta)
    profile = int_a - int_b
    broken_dev = float(np.max(np.abs(profile + reflected(profile)))
                       / np.max(np.abs(profile)))
    mirror_dev = float(np.max(np.abs(int_b - reflected(int_a))) / np.max(int_a))

    int_a, int_b = _normalized_pair_intensities(0.8, theta)
    profile = int_a - int_b
    unbroken_dev = float(np.max(np.abs(profile + reflected(profile)))
                         / np.max(np.abs(profile)))

    ok = broken_dev <= 0.02 and mirror_dev <= 0.02 and unbroken_dev > 0.10
    _report(9, "intensity gain/loss symmetry", ok,
            f"broken {broken_dev:.2e}, mirror {mirror_dev:.2e}, "
            f"unbroken {unbroken_dev:.2f}")
