"""Closed-form Dyson maps eta = exp(lambda J + rho u + tau v) for the E2 family.

Provides the adjoint action on generators, similarity transforms of
degree-2 elements, and the per-symmetry hermitization constraint solvers
that produce isospectral Hermitian partners h = eta H eta^{-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .algebra import E2Element, build_hamiltonian, hermiticity_residual
from .errors import DegenerateCouplings, MapUndefined, check_finite, overflow_error, unknown_tag
from .mathieu import EVEN_PI, ODD_PI, complex_mathieu_eps

# below this |lambda| the sinh/cosh ratios switch to their Taylor series,
# which keeps the lambda -> 0 limit exact to machine precision
_SERIES_CUTOFF = 1e-4


def _sinhc(lam):
    """sinh(lam)/lam with a stable small-argument series."""
    if abs(lam) < _SERIES_CUTOFF:
        x2 = lam * lam
        return 1.0 + x2 / 6.0 + x2 * x2 / 120.0 + x2 * x2 * x2 / 5040.0
    return math.sinh(lam) / lam


def _one_minus_cosh_over(lam):
    """(1 - cosh(lam))/lam with a stable small-argument series."""
    if abs(lam) < _SERIES_CUTOFF:
        x2 = lam * lam
        return -lam / 2.0 * (1.0 + x2 / 12.0 + x2 * x2 / 360.0)
    return (1.0 - math.cosh(lam)) / lam


def _lam_coth(lam):
    """lam*coth(lam), value 1 at lam = 0."""
    if abs(lam) < _SERIES_CUTOFF:
        x2 = lam * lam
        return 1.0 + x2 / 3.0 - x2 * x2 / 45.0
    return lam / math.tanh(lam)


def arcoth(x):
    """Real inverse of coth on |x| > 1; sign follows the argument."""
    if abs(x) <= 1.0:
        raise MapUndefined(x)
    return 0.5 * math.log((x + 1.0) / (x - 1.0))


@dataclass(frozen=True)
class DysonParamsE2:
    """Real exponents of eta = exp(lam*J + rho*u + tau*v)."""

    lam: float = 0.0
    rho: float = 0.0
    tau: float = 0.0

    def __post_init__(self):
        for name in ("lam", "rho", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def as_dict(self):
        return {"lambda": self.lam, "rho": self.rho, "tau": self.tau}


def adjoint_generator(p: DysonParamsE2, g: str) -> E2Element:
    """eta g eta^{-1} for a single generator, as a degree-<=1 element.

    u -> u cosh(lam) - i v sinh(lam)
    v -> v cosh(lam) + i u sinh(lam)
    J -> J + i(rho v - tau u) sinh(lam)/lam + (rho u + tau v)(1 - cosh(lam))/lam
    """
    lam = p.lam
    if g == "u":
        return E2Element.from_terms(u=math.cosh(lam), v=-1j * math.sinh(lam))
    if g == "v":
        return E2Element.from_terms(v=math.cosh(lam), u=1j * math.sinh(lam))
    if g == "J":
        s = _sinhc(lam)
        c = _one_minus_cosh_over(lam)
        return E2Element.from_terms(J=1.0,
                                    u=-1j * p.tau * s + p.rho * c,
                                    v=1j * p.rho * s + p.tau * c)
    raise ValueError(f"unknown generator {g!r}")


def similarity_transform(p: DysonParamsE2, H: E2Element) -> E2Element:
    """eta H eta^{-1}: substitute adjoint images and expand; spectrum-preserving."""
    images = [adjoint_generator(p, g) for g in algebra.GENERATORS]
    return E2Element(algebra.ENVELOPE.substitute(images, H.coeffs))


@dataclass(frozen=True)
class HermitizationResult:
    symmetry: str
    params: DysonParamsE2
    constrained_mu: tuple
    h: E2Element
    free_parameter_names: tuple
    residual: float = field(default=0.0)
    input_hermitian: bool = field(default=False)

    def as_dict(self):
        return {"symmetry": self.symmetry,
                **self.params.as_dict(),
                "constrained_mu": list(self.constrained_mu),
                "h": self.h.to_dict(),
                "residual": self.residual,
                "free_parameters": list(self.free_parameter_names),
                "input_hermitian": self.input_hermitian}


def _hermitize_pt1(lam, mu1, mu3, mu4):
    mu = (mu1, 0.0, mu3, mu4, -2.0 * mu4, 2.0 * mu3,
          (mu4 ** 2 - mu3 ** 2) / mu1, 0.0, -2.0 * mu3 * mu4 / mu1)
    return DysonParamsE2(lam, rho=-lam * mu4 / mu1, tau=lam * mu3 / mu1), mu


def _hermitize_pt2(lam, mu1, mu3, mu4):
    mu = (mu1, 0.0, mu3, mu4, 2.0 * mu4, -2.0 * mu3,
          (mu3 ** 2 - mu4 ** 2) / mu1, 0.0, 2.0 * mu3 * mu4 / mu1)
    lc = _lam_coth(lam)
    return DysonParamsE2(lam, rho=mu3 * lc / mu1, tau=mu4 * lc / mu1), mu


class _UnusedTarget(ValueError):
    """A PT3 mu9_target given where the coth equation fixes mu9 itself."""


def _hermitize_pt3(mu1, mu2, mu3, mu4, mu5, mu6, mu7, mu8, mu9_target=None):
    num = mu2 * mu5 + mu1 * (mu6 - 2.0 * mu3)
    den = mu1 * (2.0 * mu4 - mu5) - mu2 * mu6
    scale = max(abs(mu1), abs(mu2), abs(mu3), abs(mu4), abs(mu5), abs(mu6), 1.0)
    if abs(den) <= 1e-14 * scale:
        if abs(num) > 1e-14 * scale:
            raise DegenerateCouplings(
                "coth(lam) equation denominator vanishes with nonzero numerator")
        # 0/0: the linear constraints hold for every lam, so lam must come
        # from the mu9 relation instead (mu9_target selects the member)
        den2 = 2.0 * (mu5 * mu6 + 2.0 * mu1 * mu7)
        if abs(den2) <= 1e-14 * scale:
            raise DegenerateCouplings("mu9 equation degenerates as well")
        mu9 = 0.0 if mu9_target is None else mu9_target
        K2 = (2.0 * mu1 * mu9 - mu5 ** 2 - mu6 ** 2) / den2
        lam = 0.5 * arcoth(K2)  # raises MapUndefined when |K2| <= 1
        K1 = 1.0 / math.tanh(lam)
    else:
        if mu9_target is not None:
            raise _UnusedTarget(f"mu9_target applies only when the PT3 coth equation is 0/0; "
                                f"here coth(lam) = {num / den!r} fixes mu9")
        K1 = num / den
        lam = arcoth(K1)  # raises MapUndefined when |K1| <= 1
        K2 = (K1 * K1 + 1.0) / (2.0 * K1)  # coth(2*lam)
        mu9 = (mu5 ** 2 + mu6 ** 2 + 2.0 * mu5 * mu6 * K2) / (2.0 * mu1) + 2.0 * mu7 * K2
    rt = lam * (mu5 + mu6 * K1) / (2.0 * mu1)
    return DysonParamsE2(lam, rho=rt, tau=rt), (mu1, mu2, mu3, mu4, mu5, mu6, mu7, mu8, mu9)


def _hermitize_pt4(mu1, mu2, mu4, mu5, mu6, mu7, mu8):
    if mu5 * mu6 == 0:
        raise DegenerateCouplings("mu5*mu6 must be nonzero")
    K2 = (4.0 * mu1 * (mu8 - mu7) - mu5 ** 2 - mu6 ** 2) / (2.0 * mu5 * mu6)
    lam = 0.5 * arcoth(K2)
    coth = 1.0 / math.tanh(lam)
    tau = lam * (mu5 * coth + mu6) / (2.0 * mu1)
    mu3 = ((mu1 * mu5 + mu2 * mu6 - 2.0 * mu1 * mu4) / (2.0 * mu1)) * math.tanh(lam) \
        + mu2 * mu5 / (2.0 * mu1) + mu6 / 2.0
    return DysonParamsE2(lam, rho=0.0, tau=tau), (mu1, mu2, mu3, mu4, mu5, mu6, mu7, mu8, 0.0)


def _hermitize_pt5(mu1, mu2, mu4, mu5, mu6, mu7, mu8):
    if mu5 * mu6 == 0:
        raise DegenerateCouplings("mu5*mu6 must be nonzero")
    K2 = (mu5 ** 2 + mu6 ** 2 - 4.0 * mu1 * mu7 + 4.0 * mu1 * mu8) / (2.0 * mu5 * mu6)
    lam = 0.5 * arcoth(K2)
    coth = 1.0 / math.tanh(lam)
    rho = lam * (mu5 - mu6 * coth) / (2.0 * mu1)
    mu3 = ((2.0 * mu1 * mu4 + mu1 * mu5 - mu2 * mu6) * coth) / (2.0 * mu1) \
        + mu2 * mu5 / (2.0 * mu1) - mu6 / 2.0
    return DysonParamsE2(lam, rho=rho, tau=0.0), (mu1, mu2, mu3, mu4, mu5, mu6, mu7, mu8, 0.0)


_SOLVERS = {
    "PT1": (_hermitize_pt1, ("lam", "mu1", "mu3", "mu4")),
    "PT2": (_hermitize_pt2, ("lam", "mu1", "mu3", "mu4")),
    "PT3": (_hermitize_pt3, ("mu1", "mu2", "mu3", "mu4", "mu5", "mu6", "mu7", "mu8")),
    "PT4": (_hermitize_pt4, ("mu1", "mu2", "mu4", "mu5", "mu6", "mu7", "mu8")),
    "PT5": (_hermitize_pt5, ("mu1", "mu2", "mu4", "mu5", "mu6", "mu7", "mu8")),
}


def free_parameter_names(symmetry):
    if symmetry not in _SOLVERS:
        raise unknown_tag(symmetry, "E2", _SOLVERS)
    return _SOLVERS[symmetry][1]


def hermitize(symmetry, **free) -> HermitizationResult:
    """Solve the closed-form hermitization constraints for one symmetry class.

    Free parameters: PT1/PT2 take (lam, mu1, mu3, mu4); PT3 takes mu1..mu8
    (plus an optional mu9_target, default 0, which picks lam when the coth
    equation is 0/0 and raises ValueError otherwise);
    PT4/PT5 take (mu1, mu2, mu4, mu5, mu6, mu7, mu8).  Unspecified
    parameters default to zero except mu1, which defaults to 1.

    Raises MapUndefined when the relevant coth equation's right-hand side
    lies in [-1, 1] (no real Dyson exponent: potential broken-PT regime)
    and DegenerateCouplings when a constraint denominator vanishes.
    """
    names = free_parameter_names(symmetry)
    solver = _SOLVERS[symmetry][0]
    allowed = set(names) | ({"mu9_target"} if symmetry == "PT3" else set())
    unknown = set(free) - allowed
    if unknown:
        raise ValueError(f"{symmetry} does not take parameters {sorted(unknown)}")
    kwargs = {n: float(free.get(n, 1.0 if n == "mu1" else 0.0)) for n in names}
    if symmetry == "PT3" and "mu9_target" in free:
        kwargs["mu9_target"] = float(free["mu9_target"])
    check_finite(kwargs)
    if kwargs["mu1"] == 0:
        raise DegenerateCouplings("mu1 must be nonzero")
    try:
        params, mu = solver(**kwargs)
        H = build_hamiltonian(symmetry, mu)
        h = similarity_transform(params, H)
        residual = hermiticity_residual(h)
    except _UnusedTarget:
        raise
    except (OverflowError, ValueError):  # ValueError: DysonParamsE2 got an infinite exponent
        raise overflow_error(symmetry + " hermitization", kwargs) from None
    if not np.isfinite([*h.coeffs, *mu, residual]).all():
        raise overflow_error(symmetry + " hermitization", kwargs)
    return HermitizationResult(symmetry=symmetry, params=params, constrained_mu=tuple(mu),
                               h=h, free_parameter_names=names, residual=residual,
                               input_hermitian=algebra.is_hermitian(H, 1e-12))


# ---------------------------------------------------------------------------
# the three-parameter PT5 family  H = J^2 - i mu3 {v,J} - mu4 {u,J} + mu7 u^2
# ---------------------------------------------------------------------------

def pt5_three_param_couplings(mu3, mu4, mu7) -> tuple:
    """The nine PT5 couplings of the family, the tied ones co-varying."""
    return 1.0, 0.0, mu3, mu4, -2.0 * mu4, -2.0 * mu3, mu7, 0.0, 0.0


def pt5_three_param_hamiltonian(mu3, mu4, mu7) -> E2Element:
    return build_hamiltonian("PT5", pt5_three_param_couplings(mu3, mu4, mu7))


def reduce_pt5_three_param(mu3: float, mu4: float, mu7: float) -> dict:
    """Dyson parameters and the reduced Hermitian form J^2 + a{u,J} + b u^2 + g.

    Requires |mu3^2 + mu4^2 - mu7| > |2 mu3 mu4| and mu3*mu4 != 0; the
    boundary of that region is where eigenvalue pairs merge.
    """
    couplings = {"mu3": mu3, "mu4": mu4, "mu7": mu7}
    check_finite(couplings)
    if mu3 * mu4 == 0:
        raise DegenerateCouplings("mu3*mu4 must be nonzero")
    try:
        K2 = (mu3 ** 2 + mu4 ** 2 - mu7) / (2.0 * mu3 * mu4)
        lam = 0.5 * arcoth(K2)
        rho = lam * (mu3 / math.tanh(lam) - mu4)
        ch, sh = math.cosh(lam), math.sinh(lam)
        alpha = mu3 * math.tanh(lam / 2.0) - mu4
        gamma = (mu3 * ch - mu4 * sh) ** 2 - mu7 * sh ** 2
        beta = 2.0 * mu3 * (mu3 * ch - mu4 * sh) / (1.0 + ch) + mu7 - 2.0 * gamma
    except OverflowError:
        raise overflow_error("the three-parameter reduction", couplings) from None
    out = {"alpha": alpha, "beta": beta, "gamma": gamma, "lambda": lam, "rho": rho}
    if not all(map(math.isfinite, out.values())):
        raise overflow_error("the three-parameter reduction", couplings)
    return out


def pt5_reduced_element(alpha, beta, gamma) -> E2Element:
    """J^2 + alpha {u,J} + beta u^2 + gamma."""
    return (E2Element.from_terms(J2=1)
            + alpha * E2Element.from_terms(uJ=2, v=-1j)
            + E2Element.from_terms(u2=beta, one=gamma))


def ep_predictions_pt5(mu3, mu4, mu7, sweep_axis) -> list:
    """Predicted eigenvalue-merging parameter values for the three-parameter family.

    Sweeping mu3 (mu4): four points at +-mu4 (+-mu3) +- sqrt(mu7), which
    collapse pairwise to +-mu4 when mu7 = 0.  Sweeping mu7: two points at
    (mu3 -+ mu4)^2.
    """
    check_finite({"mu3": mu3, "mu4": mu4, "mu7": mu7})
    if sweep_axis in ("mu3", "mu4"):
        if mu7 < 0:
            raise ValueError("mu7 must be nonnegative for the four-point prediction")
        other = mu4 if sweep_axis == "mu3" else mu3
        r = math.sqrt(mu7)
        return sorted([other + r, other - r, -other + r, -other - r])
    if sweep_axis == "mu7":
        return sorted([(mu3 - mu4) ** 2, (mu3 + mu4) ** 2])
    raise ValueError(f"sweep_axis must be mu3, mu4 or mu7, got {sweep_axis!r}")


def pt5_double_point_predictions(mu3, mu4, mu7, sweep_axis) -> list:
    """Parameter values where two same-class levels of the three-parameter family merge.

    The levels are c0 + a, a the Mathieu characteristic values at q = R/2,
    R^2 = ((mu3^2 + mu4^2 - mu7)/2)^2 - mu3^2 mu4^2.  Two values of one
    class merge where q = i*t_k, t_k an even-pi or odd-pi double point from
    `mathieu.complex_mathieu_eps` (8 lowest values, Newton-placed), so where
    R^2 = -4 t_k^2.  Sweeping mu7: mu7 = mu3^2 + mu4^2 -+ 2 sqrt(mu3^2 mu4^2
    - 4 t_k^2).  Sweeping mu3 (mu4): mu3^2 = mu4^2 + mu7 -+ 2 sqrt(mu4^2 mu7
    - 4 t_k^2) (mu3 and mu4 swapped), at either sign of mu3.  Every t_k that
    the square roots reach is used; the list is sorted.
    """
    check_finite({"mu3": mu3, "mu4": mu4, "mu7": mu7})
    if sweep_axis in ("mu3", "mu4"):
        other = mu4 if sweep_axis == "mu3" else mu3
        center, reach = other ** 2 + mu7, other ** 2 * mu7
    elif sweep_axis == "mu7":
        center, reach = mu3 ** 2 + mu4 ** 2, (mu3 * mu4) ** 2
    else:
        raise ValueError(f"sweep_axis must be mu3, mu4 or mu7, got {sweep_axis!r}")
    if reach <= 0:
        return []
    ts = [ep["q_imag"] for cls in (EVEN_PI, ODD_PI)
          for ep in complex_mathieu_eps(math.sqrt(reach) / 2, cls)]
    values = [center + sign * 2.0 * math.sqrt(reach - 4.0 * t * t) for t in ts for sign in (-1, 1)]
    if sweep_axis != "mu7":
        values = [sign * math.sqrt(x) for x in values for sign in (-1, 1)]
    return sorted(values)


def optical_lattice_map(mu7: float, mu8: float, mu9: float) -> dict:
    """Hermitian partner of J^2 + mu7 u^2 + mu8 v^2 + i mu9 uv.

    Defined for |(mu7 - mu8)/mu9| > 1, i.e. coth(2*lam) = (mu7 - mu8)/mu9
    has a real solution; mu9 = 0 is the identity-map limit.
    """
    check_finite({"mu7": mu7, "mu8": mu8, "mu9": mu9})
    diff = mu7 - mu8
    if mu9 == 0.0:
        if diff == 0.0:
            raise DegenerateCouplings("mu7 - mu8 and mu9 both vanish")
        lam = 0.0
    else:
        K2 = diff / mu9
        lam = 0.5 * arcoth(K2)
    coeff = 0.5 * math.sqrt(diff * diff - mu9 * mu9)
    h = (E2Element.from_terms(J2=1)
         + coeff * E2Element.from_terms(v2=1, u2=-1)
         + E2Element.from_terms(one=0.5 * (mu7 + mu8)))
    return {"lambda": lam, "h": h}
