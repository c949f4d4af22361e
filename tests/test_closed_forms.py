"""The closed forms of bounds run on any number type: mpmath at 50 digits, sympy symbols.

The rates go in on a plain attribute object, as Params keeps only
floats.  The mpmath tests check the package's own arithmetic against
equations built here with mpmath.log(2); the sympy tests check it
symbolically, so that the algebra behind tau and dW/dt is derived, not
retyped.
"""

import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import sympy

from conftest import DEMO, random_params

from aifcert import DerivedConstants, bounds, certificate, ell4, field, growth_envelope, solve_L_star, tau
from aifcert.verify import FORMULA_FUZZ_RANGE

ULPS = 8 * 2.0**-52  # agreement of each 50-digit constant with the float one, relative
RATES = [DEMO, *(random_params(np.random.default_rng(seed), *FORMULA_FUZZ_RANGE) for seed in (3, 4))]
STARTS = [(0.0, 0.0, 0.0, 0.0), (10.0, 0.0, 0.0, 0.0), (0.3, 0.1, 0.7, 0.2)]


def rates_of(values):
    """An attribute object with alpha1..alpha8 set to values."""
    return SimpleNamespace(**{f"alpha{k}": v for k, v in enumerate(values, 1)})


@pytest.fixture
def digits50():
    with mpmath.workdps(50):
        yield


@pytest.mark.usefixtures("digits50")
@pytest.mark.parametrize("params", RATES, ids=["demo", "fuzz3", "fuzz4"])
class TestMpmath:
    def test_tau_and_L_star_solve_their_equations_to_50_digits(self, params):
        p = rates_of(mpmath.mpf(a) for a in params.as_tuple())
        ln2 = mpmath.log(2)
        psi1, psi2 = ln2 / p.alpha4 + ln2 / p.alpha6, ln2 / p.alpha8
        for L in (mpmath.mpf("0.01"), mpmath.mpf("1.75"), mpmath.mpf(1000)):
            t = tau(p, L)
            assert isinstance(t, mpmath.mpf)
            assert abs(t - psi1 - psi2 / (L + p.alpha1 * t)) / t <= 1e-45
        L = solve_L_star(p)
        assert isinstance(L, mpmath.mpf)
        K = (p.alpha3 * p.alpha5 * p.alpha7) / (p.alpha4 * p.alpha6 * p.alpha8)
        k, b, c = K / (8 * p.alpha1 / p.alpha2), p.alpha1 * psi1, p.alpha1 * psi2
        assert abs(k * L**4 - L**3 - b * L**2 - c / k) / (k * L**4) <= 1e-45

    def test_every_constant_is_an_mpmath_number_within_8_ulps_of_the_float(self, params):
        p = rates_of(mpmath.mpf(a) for a in params.as_tuple())
        dc = DerivedConstants.from_params(p)
        L_star = solve_L_star(p)
        T = tau(p, L_star)
        floor = ell4(p, L_star, T)
        assert isinstance(floor, mpmath.mpf)
        assert abs(floor - ell4(params, float(L_star), float(T))) <= ULPS * floor
        for x0 in STARTS:
            cert = certificate(params, x0)
            exact = (L_star, *bounds._bounds(p, dc, [mpmath.mpf(x) for x in x0], L_star))
            names = ("L_star", "T0", "M1", "M2", "M3", "M4", "gamma", "W0")
            for name, value in zip(names, exact):
                assert isinstance(value, mpmath.mpf), name
                assert abs(value - getattr(cert, name)) <= ULPS * abs(value), name


class TestSympy:
    A = sympy.symbols("alpha1:9", positive=True)

    def test_tau_solves_its_fixed_point_equation(self):
        p, L = rates_of(self.A), sympy.Symbol("L", positive=True)
        ln2 = sympy.log(2)
        psi1, psi2 = ln2 / p.alpha4 + ln2 / p.alpha6, ln2 / p.alpha8
        t = tau(p, L)
        assert bounds._tau(p, DerivedConstants.from_params(p), L) == t
        # the closed form's float literals 2.0 and 4.0 are exact, so they may be made rational
        residual = sympy.nsimplify(t - psi1 - psi2 / (L + p.alpha1 * t), rational=True)
        assert sympy.simplify(residual) == 0

    def test_W_rate_is_alpha8_x1_times_K_minus_x4(self):
        dc = DerivedConstants.from_params(rates_of(self.A))
        assert dc.psi2 == sympy.log(2) / self.A[7]  # ln 2 is the exact one
        x = sympy.symbols("x1:5", nonnegative=True)
        _, f2, f3, f4 = field(self.A, *x)
        dW = dc.c * f2 + dc.d * f3 + f4
        assert sympy.simplify(dW - self.A[7] * x[0] * (dc.K - x[3])) == 0

    def test_growth_envelope_solves_the_chain_without_removal(self):
        # e1' = alpha1, e2' = alpha3*e1, e3' = alpha5*e2, e4' = alpha7*e3 from x0; a State holds
        # floats, so x0 is one of exact binary fractions
        x0, t, a = (0.5, 0.25, 2.0, 1.0), sympy.Symbol("t", nonnegative=True), self.A
        e = [sympy.nsimplify(c, rational=True) for c in growth_envelope(rates_of(a), x0, t)]
        rates = (a[0], a[2] * e[0], a[4] * e[1], a[6] * e[2])
        assert [sympy.expand(sympy.diff(c, t) - r) for c, r in zip(e, rates)] == [0] * 4
        assert [c.subs(t, 0) for c in e] == [sympy.Rational(x) for x in x0]

def test_a_float_level_gives_the_bits_of_numpy():
    # math's sqrt on floats, numpy's on arrays: the same correctly rounded root
    levels = np.geomspace(1e-3, 1e6, 25)
    assert [tau(DEMO, L) for L in levels.tolist()] == tau(DEMO, levels).tolist()
    assert type(tau(DEMO, 1.75)) is float and math.isfinite(tau(DEMO, 1.75))
