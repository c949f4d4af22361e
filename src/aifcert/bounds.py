"""Constructive constants: waiting time, cascade floors, bound certificate.

Everything here is closed-form arithmetic on the rate constants, and
``solve_L_star`` takes the threshold as the root of a quartic by
Newton's method.  The central object is the waiting time tau(L), the
root of tau = psi1 + psi2 / (L + alpha1 * tau) with psi1 and psi2 of
DerivedConstants (the model's half-life delays): once species 1 has
stayed at or above a level L for tau(L) time units, the chain has
pumped enough of species 4 to force species 1 downward.
Levels L above the threshold L* make that forcing self-sustaining,
which is what the certificate exploits.

Each closed form is written once, as a private function of the rates p
and their DerivedConstants dc (a Params keeps its own, Params.derived)
with no validation and no float(): plain arithmetic, with sqrt and ln 2
of the argument's own type (model._math), so it runs on floats, numpy
arrays, mpmath numbers and sympy symbols alike.  The public functions
validate their arguments once, on entry, and call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import DerivedConstants, Params, State, _math, _number, _rates, _require_nonnegative, _require_positive

__all__ = [
    "BoundCertificate",
    "CertificateError",
    "tau",
    "ell2",
    "ell3",
    "ell4",
    "window_upper",
    "solve_L_star",
    "certificate",
    "growth_envelope",
]


class CertificateError(ValueError):
    """A certificate cannot be built or loaded: a level override that is not
    finite or is below L*, an L* out of floating-point range, or a constant
    that is not finite and positive (W0 may be 0)."""


def _derived(p) -> DerivedConstants:
    """The DerivedConstants of rates p: p.derived if p keeps them (a Params does), else derived now."""
    return getattr(p, "derived", None) or DerivedConstants.from_params(p)


def _sqrt(x):  # the closed forms follow (see the module docstring)
    return _math(x).sqrt(x)


def _tau(p, dc, L):
    b = L + p.alpha1 * dc.psi1
    return dc.psi1 + 2.0 * dc.psi2 / (b + _sqrt(b * b + 4.0 * p.alpha1 * dc.psi2))


def _ell2(p, L):
    return p.alpha3 * L / (2.0 * p.alpha4)


def _ell3(p, L):
    return (p.alpha3 * p.alpha5) / (4.0 * p.alpha4 * p.alpha6) * L


def _ell4(dc, L, U):  # the floor of species 4 under the window bound U on species 1
    return dc.K * L / (8.0 * U)


def _window_upper(p, L, t):
    return L + p.alpha1 * t


def _L_star(p, dc):  # see solve_L_star
    k = dc.K / (8.0 * dc.theta)
    b, c = p.alpha1 * dc.psi1, p.alpha1 * dc.psi2
    L = 2.0 * max(1.0 / k, _sqrt(b / k), (c / (2.0 * k * k)) ** 0.25)
    for _ in range(200):
        f = ((k * L - 1.0) * L - b) * L * L - c / k
        step = f / (((4.0 * k * L - 3.0) * L - 2.0 * b) * L)
        if not L - step < L:
            break
        L -= step
    return L


def _bounds(p, dc, x0, L):
    """(T0, M1, M2, M3, M4, gamma, W0) of a certificate at level L from x0 = (x1, x2, x3, x4)."""
    x1, x2, x3, x4 = x0
    T0 = _tau(p, dc, L)
    M1 = _window_upper(p, max(x1, L), T0)
    M2 = max(x2, (p.alpha3 / p.alpha4) * M1)
    M3 = max(x3, (p.alpha5 / p.alpha6) * M2)
    W0, gamma = dc.W(x2, x3, x4), dc.W(M2, M3, dc.K)
    return T0, M1, M2, M3, max(W0, gamma), gamma, W0


def tau(p: Params, L: float) -> float:
    """Waiting time tau(L): unique positive root of the fixed-point equation.

    Written as tau = psi1 + q with q the positive root of
    alpha1*q**2 + (L + alpha1*psi1)*q - psi2 = 0, evaluated in the
    division form that stays accurate when L dwarfs alpha1*psi1 (the
    subtractive quadratic formula loses the root there).  L and the alphas
    of p may be arrays that broadcast: each element is then the scalar result.
    """
    return _tau(p, _derived(p), _require_positive("level L", L))


def ell2(p: Params, L: float) -> float:
    """Floor reached by species 2 after delay delta2 on an excursion at level L."""
    return _ell2(p, _require_positive("level L", L))


def ell3(p: Params, L: float) -> float:
    """Floor reached by species 3 after delay delta2 + delta3."""
    return _ell3(p, _require_positive("level L", L))


def ell4(p: Params, L: float, T: float) -> float:
    """Floor reached by species 4 inside a window of length T.

    The annihilation pressure on species 4 is capped by the window bound
    on species 1, which is why T enters through window_upper.  Takes arrays as tau does.
    """
    L = _require_positive("level L", L)
    return _ell4(_derived(p), L, _window_upper(p, L, _require_positive("window length T", T)))


def window_upper(p: Params, L: float, t: float) -> float:
    """Upper bound L + alpha1*t on species 1 inside an excursion window."""
    return _window_upper(p, _require_positive("level L", L), _require_nonnegative("time t", t))


def solve_L_star(p: Params) -> float:
    """Smallest admissible level L*: root of L*ell4(L, tau(L)) = theta.

    With s = L + alpha1*tau(L), tau's fixed point gives s = L + b + c/s
    (b = alpha1*psi1, c = alpha1*psi2) and L*ell4 = theta gives s = k*L**2
    (k = K/(8*theta)), so L* is the one positive root of the quartic
    f(L) = k*L**4 - L**3 - b*L**2 - c/k.  On [L*, inf), where k*L**2 >= L + b,
    f is increasing and convex, so Newton from the Fujiwara root bound falls onto L*.
    Raises CertificateError for rates so far apart that these constants
    underflow or overflow and leave no such root in floating point.
    """
    dc = _derived(p)
    try:
        L = _L_star(p, dc)
        # the defining equation forces L* > 8*theta/K, so this holds with margin
        ok = math.isfinite(L) and L > 4.0 * p.alpha1 / (dc.K * p.alpha2)
    except ZeroDivisionError:  # by a constant that underflowed to 0
        ok = False
    if not ok:
        raise CertificateError(f"the threshold L* is out of floating-point range for rates {_rates(p)}")
    return L


# the certificate's numbers, in field order: W0 may be 0, the others must be > 0
_CONSTANTS = ("L_star", "L_used", "T0", "M1", "M2", "M3", "M4", "gamma", "W0")


@dataclass(frozen=True)
class BoundCertificate:
    """Explicit constants dominating every state component for all time.

    L_star is the exact admissible threshold, L_used the level the
    certificate is built on (user-chosen or L_star itself), T0 the
    waiting time at L_used.  M1..M4 bound x1..x4; gamma is the level the
    aggregate W = x4 + c*x2 + d*x3 cannot climb above, and W0 its
    initial value.
    """

    L_star: float
    L_used: float
    T0: float
    M1: float
    M2: float
    M3: float
    M4: float
    gamma: float
    W0: float
    params: Params
    x0: State

    def __post_init__(self) -> None:
        for name in _CONSTANTS:
            v = getattr(self, name)
            try:
                object.__setattr__(self, name, float(_require_positive(name, v, strict=name != "W0")))
            except ValueError as exc:
                raise CertificateError(str(exc)) from None

    def to_json(self) -> dict:
        constants = {name: getattr(self, name) for name in _CONSTANTS}
        return {**constants, "params": self.params.to_json(), "x0": self.x0.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "BoundCertificate":
        try:
            constants = {name: _number(obj[name], f"{name} as a number") for name in _CONSTANTS}
            params, x0 = Params.from_json(obj["params"]), State.from_json(obj["x0"])
            return cls(**constants, params=params, x0=x0)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed certificate JSON: {exc}") from exc


def certificate(p: Params, x0: State, L_override: float | None = None) -> BoundCertificate:
    """Build the bound certificate for the given initial state.

    L_override lets the caller pick any admissible level above L*; the
    larger the level, the later the guaranteed turnaround and the looser
    the bounds, but every choice >= L* is valid.
    """
    x0 = State.from_sequence(x0)
    L_star = solve_L_star(p)
    L_used = L_star if L_override is None else _number(L_override, "override level as a number")
    if not math.isfinite(L_used):
        raise CertificateError(f"override level must be finite, got {L_used!r}")
    if L_used < L_star:
        raise CertificateError(f"override level {L_used!r} is below the admissible threshold {L_star!r}")
    return BoundCertificate(L_star, L_used, *_bounds(p, p.derived, x0.as_tuple(), L_used), params=p, x0=x0)


def growth_envelope(p: Params, x0: State, t: float) -> tuple[float, float, float, float]:
    """Polynomial upper bounds on the four states at time t.

    Dropping every removal term leaves a cascade of pure integrators, so
    component i is bounded by a degree-i polynomial in t.
    """
    x0 = State.from_sequence(x0)
    t = _require_nonnegative("time t", t)
    coef, envelope = [p.alpha1], []  # the source alpha1, then each component's coefficients of t**k
    for x, gain in zip(x0.as_tuple(), (1.0, p.alpha3, p.alpha5, p.alpha7)):
        coef = [x, *(gain * c / k for k, c in enumerate(coef, 1))]  # x + gain * its integral
        envelope.append(sum(c * t**k for k, c in enumerate(coef)))
    return tuple(envelope)
