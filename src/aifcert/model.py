"""System definition: rate constants, states, vector field, equilibrium.

Four species interact through a production chain 1 -> 2 -> 3 -> 4 and a
bilinear annihilation reaction that removes species 1 and 4 pairwise.
Species 1 is produced at a constant rate, so the flow points inward on
every face of the nonnegative orthant and trajectories never leave it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

import numpy as np

__all__ = [
    "Params",
    "DerivedConstants",
    "State",
    "field",
    "vector_field",
    "boundary_inflow",
    "equilibrium",
]


def _math(x):
    """The module of x's sqrt and log: its own package's if that has them (numpy, mpmath, sympy), else math."""
    own = math if type(x) is float else sys.modules.get(type(x).__module__.partition(".")[0], math)
    return own if "sqrt" in vars(own) else math


def _require_positive(name: str, v, strict: bool = True):
    """v checked finite and > 0 (>= 0 unless strict), an array element by element.

    A number stays as it is if another package does its math (mpmath,
    sympy: _math), and becomes a float by _number's rule otherwise, so a
    boolean is not a number.
    """
    if isinstance(v, np.ndarray):
        ok = (np.isfinite(v) & ((v > 0.0) if strict else (v >= 0.0))).all()
    else:
        v = v if type(v) is float or _math(v) not in (math, np) else _number(v, f"{name} as a number")
        ok = (v > 0 if strict else v >= 0) and v - v == 0  # v - v is 0 unless v is infinite or NaN
    if not ok:
        raise ValueError(f"{name} must be finite and {'>' if strict else '>='} 0, got {v!r}")
    return v


def _require_nonnegative(name: str, v):
    """v checked finite and >= 0, by _require_positive's rules."""
    return _require_positive(name, v, strict=False)


def _number(value, what: str = "a number") -> float:
    """A float, from a number or number text; a boolean is not a number."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float range
            pass
    raise ValueError(f"expected {what}, got {value!r}")


def _is_integer(value) -> bool:
    """Whether value is an int or a numpy integer; a boolean is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _floats(values, n: int, what: str) -> list[float]:
    """n floats from a sequence of numbers (_number each); a string is not one."""
    if isinstance(values, str):
        raise ValueError(f"expected {n} {what} as numbers, got {values!r}")
    vals = [_number(v) for v in values]
    if len(vals) != n:
        raise ValueError(f"expected {n} {what}, got {len(vals)}")
    return vals


_ALPHAS = tuple(f"alpha{k}" for k in range(1, 9))  # the rates' names, in order
_rates = attrgetter(*_ALPHAS)


@dataclass(frozen=True)
class Params:
    """The eight positive rate constants.

    alpha1 is a zeroth-order production rate, alpha2 and alpha8 are the
    bimolecular annihilation rates, and alpha3..alpha7 are first-order
    production/decay rates along the chain.
    """

    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    alpha5: float
    alpha6: float
    alpha7: float
    alpha8: float

    def __post_init__(self) -> None:
        for name in _ALPHAS:
            object.__setattr__(self, name, float(_require_positive(name, getattr(self, name))))

    @cached_property
    def derived(self) -> "DerivedConstants":
        """The rates' DerivedConstants, derived on first use and kept."""
        return DerivedConstants.from_params(self)

    @classmethod
    def from_sequence(cls, values) -> "Params":
        return cls(*_floats(values, 8, "rate constants"))

    def as_tuple(self) -> tuple[float, ...]:
        return _rates(self)

    def to_json(self) -> dict:
        return {"alpha": list(self.as_tuple())}

    @classmethod
    def from_json(cls, obj: dict) -> "Params":
        if not isinstance(obj, dict) or "alpha" not in obj:
            raise ValueError("params JSON must be an object with an 'alpha' array")
        return cls.from_sequence(obj["alpha"])


@dataclass(frozen=True)
class DerivedConstants:
    """Combinations of rate constants used throughout the analysis.

    K is the loop gain of the chain relative to annihilation, theta the
    annihilation product level that stalls species 1, c and d the weights
    of the aggregate variable W = x4 + c*x2 + d*x3, and delta2, delta3
    the half-life delays of species 2 and 3.  psi1 = delta2 + delta3 and
    psi2 = ln2/alpha8, the half-life scale of the species-4 buildup
    against annihilation, are the coefficients of the waiting time's
    fixed-point equation tau = psi1 + psi2 / (L + alpha1 * tau).  They
    are plain arithmetic on the rates, so they come out as the rates'
    number type: floats, numpy arrays, mpmath numbers or sympy symbols.
    A Params derives its own once and keeps them (Params.derived).
    """

    K: float
    theta: float
    c: float
    d: float
    delta2: float
    delta3: float
    psi1: float
    psi2: float

    @classmethod
    def from_params(cls, p) -> "DerivedConstants":
        """The constants of any object with the rates alpha1..alpha8, ln 2 of their type (_math)."""
        ln2 = _math(p.alpha4).log(2)
        delta2, delta3 = ln2 / p.alpha4, ln2 / p.alpha6
        try:
            K = (p.alpha3 * p.alpha5 * p.alpha7) / (p.alpha4 * p.alpha6 * p.alpha8)
            c = (p.alpha5 * p.alpha7) / (p.alpha4 * p.alpha6)
        except ZeroDivisionError:  # a float product of rates underflowed: the input is out of range
            raise ValueError(f"a product of the rates {_rates(p)} underflows to 0") from None
        theta, d = p.alpha1 / p.alpha2, p.alpha7 / p.alpha6
        return cls(K, theta, c, d, delta2, delta3, delta2 + delta3, ln2 / p.alpha8)

    def W(self, x2, x3, x4):
        """The aggregate x4 + c*x2 + d*x3, on any number type."""
        return x4 + self.c * x2 + self.d * x3


@dataclass(frozen=True)
class State:
    """A point in the nonnegative orthant."""

    x1: float
    x2: float
    x3: float
    x4: float

    def __post_init__(self) -> None:
        for name in ("x1", "x2", "x3", "x4"):
            object.__setattr__(self, name, float(_require_nonnegative(name, getattr(self, name))))

    @classmethod
    def zero(cls) -> "State":
        return cls(0.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_sequence(cls, values) -> "State":
        """A State from 4 numbers; a State is returned as it is."""
        return values if isinstance(values, cls) else cls(*_floats(values, 4, "state components"))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.x2, self.x3, self.x4)

    def to_json(self) -> dict:
        return {"x": list(self.as_tuple())}

    @classmethod
    def from_json(cls, obj: dict) -> "State":
        if not isinstance(obj, dict) or "x" not in obj:
            raise ValueError("state JSON must be an object with an 'x' array")
        return cls.from_sequence(obj["x"])


def _components(x) -> tuple[float, float, float, float]:
    return x.as_tuple() if isinstance(x, State) else tuple(_floats(x, 4, "state components"))


def field(a, x1, x2, x3, x4):
    """Time derivative at components x1..x4 for rates a = p.as_tuple().

    Plain arithmetic, so it takes floats or the columns of an (n, 4) array.
    """
    a1, a2, a3, a4, a5, a6, a7, a8 = a
    return (
        a1 - a2 * x1 * x4,
        a3 * x1 - a4 * x2,
        a5 * x2 - a6 * x3,
        a7 * x3 - a8 * x1 * x4,
    )


def vector_field(p: Params, x) -> tuple[float, float, float, float]:
    """Time derivative of the state.

    Accepts a State or any length-4 sequence; the input need not lie in
    the orthant, but it must be finite.
    """
    x1, x2, x3, x4 = _components(x)
    if not (math.isfinite(x1) and math.isfinite(x2) and math.isfinite(x3) and math.isfinite(x4)):
        raise ValueError(f"state must be finite, got {(x1, x2, x3, x4)}")
    return field(p.as_tuple(), x1, x2, x3, x4)


def boundary_inflow(p: Params, x) -> list[tuple[int, float]]:
    """Derivatives of the components that sit exactly on the boundary.

    Returns (1-based index, derivative) for every component equal to 0.
    On the orthant each reported derivative is nonnegative, and the
    species-1 entry is exactly alpha1: the flow never points out.
    """
    comps = _components(x)
    f = vector_field(p, comps)
    return [(i + 1, f[i]) for i in range(4) if comps[i] == 0.0]


def equilibrium(p: Params) -> State:
    """The unique positive stationary point, in closed form.

    The stationarity equations are triangular: x3 follows from balancing
    production of species 4 against annihilation, then x2, x1 follow up
    the chain, and x4 stalls species 1.
    """
    x3 = (p.alpha8 * p.alpha1) / (p.alpha7 * p.alpha2)
    x2 = (p.alpha6 / p.alpha5) * x3
    x1 = (p.alpha4 / p.alpha3) * x2
    x4 = p.alpha1 / (p.alpha2 * x1)
    return State(x1, x2, x3, x4)
