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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DerivedConstants, Params, State, _number, _require_nonnegative, _require_positive

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


def tau(p: Params, L: float) -> float:
    """Waiting time tau(L): unique positive root of the fixed-point equation.

    Written as tau = psi1 + q with q the positive root of
    alpha1*q**2 + (L + alpha1*psi1)*q - psi2 = 0, evaluated in the
    division form that stays accurate when L dwarfs alpha1*psi1 (the
    subtractive quadratic formula loses the root there).  L and the alphas
    of p may be arrays that broadcast: each element is then the scalar result.
    """
    L = _require_positive("level L", L)
    dc = DerivedConstants.from_params(p)
    b = L + p.alpha1 * dc.psi1
    q = 2.0 * dc.psi2 / (b + np.sqrt(b * b + 4.0 * p.alpha1 * dc.psi2))
    return dc.psi1 + q


def ell2(p: Params, L: float) -> float:
    """Floor reached by species 2 after delay delta2 on an excursion at level L."""
    L = _require_positive("level L", L)
    return p.alpha3 * L / (2.0 * p.alpha4)


def ell3(p: Params, L: float) -> float:
    """Floor reached by species 3 after delay delta2 + delta3."""
    L = _require_positive("level L", L)
    return (p.alpha3 * p.alpha5) / (4.0 * p.alpha4 * p.alpha6) * L


def ell4(p: Params, L: float, T: float) -> float:
    """Floor reached by species 4 inside a window of length T.

    The annihilation pressure on species 4 is capped by the window bound
    on species 1, which is why T enters through window_upper.  Takes arrays as tau does.
    """
    L = _require_positive("level L", L)
    T = _require_positive("window length T", T)
    K = DerivedConstants.from_params(p).K
    return K * L / (8.0 * (L + p.alpha1 * T))


def window_upper(p: Params, L: float, t: float) -> float:
    """Upper bound L + alpha1*t on species 1 inside an excursion window."""
    L = _require_positive("level L", L)
    t = _require_nonnegative("time t", t)
    return L + p.alpha1 * t


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
    dc = DerivedConstants.from_params(p)
    try:
        k = dc.K / (8.0 * dc.theta)
        b, c = p.alpha1 * dc.psi1, p.alpha1 * dc.psi2
        L = 2.0 * max(1.0 / k, math.sqrt(b / k), (c / (2.0 * k * k)) ** 0.25)
        for _ in range(200):
            f = ((k * L - 1.0) * L - b) * L * L - c / k
            step = f / (((4.0 * k * L - 3.0) * L - 2.0 * b) * L)
            if not L - step < L:
                break
            L -= step
        # the defining equation forces L* > 8*theta/K, so this holds with margin
        ok = math.isfinite(L) and L > 4.0 * p.alpha1 / (dc.K * p.alpha2)
    except ZeroDivisionError:  # by a constant that underflowed to 0
        ok = False
    if not ok:
        msg = f"the threshold L* is out of floating-point range for rates {p.as_tuple()}"
        raise CertificateError(msg)
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
            require = _require_nonnegative if name == "W0" else _require_positive
            try:
                object.__setattr__(self, name, require(name, getattr(self, name)))
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
    if L_override is not None:
        L_used = float(L_override)
        if not math.isfinite(L_used):
            raise CertificateError(f"override level must be finite, got {L_used!r}")
        if L_used < L_star:
            raise CertificateError(
                f"override level {L_used!r} is below the admissible threshold {L_star!r}"
            )
    else:
        L_used = L_star
    dc = DerivedConstants.from_params(p)
    T0 = tau(p, L_used)
    M1 = window_upper(p, max(x0.x1, L_used), T0)
    M2 = max(x0.x2, (p.alpha3 / p.alpha4) * M1)
    M3 = max(x0.x3, (p.alpha5 / p.alpha6) * M2)
    W0 = dc.W(x0.x2, x0.x3, x0.x4)
    gamma = dc.W(M2, M3, dc.K)
    M4 = max(W0, gamma)
    return BoundCertificate(
        L_star=L_star,
        L_used=L_used,
        T0=T0,
        M1=M1,
        M2=M2,
        M3=M3,
        M4=M4,
        gamma=gamma,
        W0=W0,
        params=p,
        x0=x0,
    )


def growth_envelope(p: Params, x0: State, t: float) -> tuple[float, float, float, float]:
    """Polynomial upper bounds on the four states at time t.

    Dropping every removal term leaves a cascade of pure integrators, so
    component i is bounded by a degree-i polynomial in t.
    """
    x0 = State.from_sequence(x0)
    t = _require_nonnegative("time t", t)
    a1, a3, a5, a7 = p.alpha1, p.alpha3, p.alpha5, p.alpha7
    e1 = x0.x1 + a1 * t
    e2 = x0.x2 + a3 * x0.x1 * t + a1 * a3 * t * t / 2.0
    e3 = (
        x0.x3
        + a5 * x0.x2 * t
        + a3 * a5 * x0.x1 * t * t / 2.0
        + a1 * a3 * a5 * t**3 / 6.0
    )
    e4 = (
        x0.x4
        + a7 * x0.x3 * t
        + a5 * a7 * x0.x2 * t * t / 2.0
        + a3 * a5 * a7 * x0.x1 * t**3 / 6.0
        + a1 * a3 * a5 * a7 * t**4 / 24.0
    )
    return (e1, e2, e3, e4)
