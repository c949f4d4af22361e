"""The closed forms of bounds run on any number type: mpmath at 50 digits, sympy symbols.

The rates go in on a plain attribute object, as Params keeps only
floats.  The mpmath tests check the package's own arithmetic against
equations built here with mpmath.log(2); the sympy tests check it
symbolically, so that the algebra behind tau and dW/dt is derived, not
retyped.  TestProofs proves the facts of tau and ell4 at every level
for every positive rate set, which check_propositions therefore does
not probe, and TestDerivations checks the integrator's Taylor
coefficients, the equilibrium and L*'s quartic against their
definitions.
"""

import ast
import functools
import inspect
import math
import textwrap
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import sympy

from conftest import DEMO, random_params

from aifcert import (
    DerivedConstants,
    bounds,
    certificate,
    ell4,
    equilibrium,
    field,
    growth_envelope,
    simulate,
    solve_L_star,
    tau,
)
from aifcert.verify import FORMULA_FUZZ_RANGE

ULPS = 8 * 2.0**-52  # agreement of each 50-digit constant with the float one, relative
RATES = [DEMO, *(random_params(np.random.default_rng(seed), *FORMULA_FUZZ_RANGE) for seed in (3, 4))]
STARTS = [(0.0, 0.0, 0.0, 0.0), (10.0, 0.0, 0.0, 0.0), (0.3, 0.1, 0.7, 0.2)]


def rates_of(values):
    """An attribute object with alpha1..alpha8 set to values."""
    return SimpleNamespace(**{f"alpha{k}": v for k, v in enumerate(values, 1)})


def tampered(fn, old, new):
    """A copy of fn, defined in its module's namespace, with old in its source replaced by new."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert old in source
    scope = dict(vars(inspect.getmodule(fn)))
    exec(source.replace(old, new), scope)
    return scope[fn.__name__]


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

FACTS = ("tau decreasing", "tau above psi1", "ell4 increasing", "ell4 below K/8", "L*ell4 increasing",
         "tau limit", "ell4 supremum")


@functools.cache
def proofs(tau_form=bounds._tau, ell4_form=bounds._ell4):
    """{fact: whether each step of its proof holds} for the forms, over positive symbols.

    tau is tau_form(p, dc, L), with the rates and L positive symbols and
    dc = DerivedConstants.from_params(p), and ell4 = ell4_form(dc, L, U)
    at U = _window_upper(p, L, tau), the package's own forms.  The ell4
    facts take one hand-written factoring step each, checked for a
    generic tau (a sympy Function) by cancel(lhs - rhs) == 0; sympy then
    decides the sign of the factored form at the closed-form tau.  Every
    fact is proved for all positive rates; none is left to exact points.
    """
    A, L = sympy.symbols("alpha1:9", positive=True), sympy.Symbol("L", positive=True)
    p = rates_of(A)
    dc = DerivedConstants.from_params(p)
    a1, K8 = A[0], dc.K / 8

    def exact(e):  # the forms' float literals (2.0, 4.0, 8.0) as rationals
        return sympy.nsimplify(e, rational=True)

    def ell4_at(t):
        U = exact(bounds._window_upper(p, L, t))
        return U, exact(ell4_form(dc, L, U))

    t = exact(tau_form(p, dc, L))
    dt = sympy.diff(t, L)
    U, e = ell4_at(t)
    # the factoring steps, for any tau: g stands for it and G, dG for its value and slope
    g = sympy.Function("tau")(L)
    Ug, eg = ell4_at(g)
    G, dG = sympy.symbols("G dG", positive=True)
    steps = {  # each step: (lhs, rhs), which must agree for every tau
        "ell4 increasing": (sympy.diff(eg, L), K8 * a1 * (g - L * g.diff(L)) / Ug**2),
        "ell4 below K/8": (K8 - eg, K8 * a1 * g / Ug),
        "L*ell4 increasing": (sympy.diff(L * eg, L), K8 * L * (L + a1 * (2 * g - L * g.diff(L))) / Ug**2),
    }
    holds = {
        name: sympy.cancel(lhs - rhs) == 0
        and rhs.subs(g.diff(L), dG).subs(g, G).subs({G: t, dG: dt}).is_positive is True
        for name, (lhs, rhs) in steps.items()
    }
    holds["tau decreasing"] = dt.is_negative is True
    holds["tau above psi1"] = (t - dc.psi1).is_positive is True
    # tau limit: tau - psi1 = 2*psi2/(b + s) with b = L + alpha1*psi1 > L and
    # s = sqrt(b**2 + 4*alpha1*psi2) > b (as s**2 - b**2 > 0), so b + s > 2L and
    # 0 < tau - psi1 < psi2/L, which tends to 0
    b = L + a1 * dc.psi1
    s = sympy.sqrt(b**2 + 4 * a1 * dc.psi2)
    beta, sigma = sympy.symbols("beta sigma", positive=True)  # b - L and s - b
    holds["tau limit"] = (
        sympy.cancel(t - dc.psi1 - 2 * dc.psi2 / (b + s)) == 0
        and (b - L).is_positive is True
        and sympy.expand(s**2 - b**2 - 4 * a1 * dc.psi2) == 0
        and (a1 * dc.psi2).is_positive is True
        and sympy.together(dc.psi2 / L - 2 * dc.psi2 / (2 * L + 2 * beta + sigma)).is_positive is True
    )
    # ell4 supremum: K/8 - ell4 = K8*alpha1*tau/U (ell4 below K/8's step) with U - L > 0
    # and tau < psi1 + psi2/L (tau limit), so 0 < K/8 - ell4 < K8*alpha1*(psi1 + psi2/L)/L -> 0
    holds["ell4 supremum"] = (
        holds["ell4 below K/8"]
        and holds["tau limit"]
        and (U - L).is_positive is True
        and sympy.limit(K8 * a1 * (dc.psi1 + dc.psi2 / L) / L, L, sympy.oo) == 0
    )
    return holds


class TestProofs:
    @pytest.mark.parametrize("fact", FACTS)
    def test_fact_holds_for_every_positive_rate_set(self, fact):
        assert proofs()[fact]

    def test_tampered_tau_fails_its_proof(self):
        # tau plus 1e-3*L grows without bound, so it neither falls nor tends to psi1
        holds = proofs(tau_form=lambda p, dc, L: bounds._tau(p, dc, L) + 1e-3 * L)
        assert not holds["tau decreasing"] and not holds["tau limit"]

    def test_tampered_ell4_fails_its_proof(self):
        # K*L/(7*U) tends to K/7, above K/8
        holds = proofs(ell4_form=tampered(bounds._ell4, "8.0", "7.0"))
        assert not holds["ell4 below K/8"] and not holds["ell4 supremum"]


def lie_coefficients(a):
    """The 24 coefficients L_f^k x_i / k! of model.field at rational rates a, k = 1 to 6, as polynomials in x."""
    _, *x = sympy.ring("x1:5", sympy.QQ)
    f = field(a, *x)
    rows, g = [], list(x)
    for k in range(1, 7):
        g = [sum(gi.diff(xj) * fj for xj, fj in zip(x, f)) for gi in g]
        rows.extend(gi * sympy.QQ(1, math.factorial(k)) for gi in g)
    return rows


QQ_RATES = [(1, 30, 10, 1, 1, 1, 1, 30), ("3/2", "5/4", "7/8", 2, "1/4", 3, "5/16", "9/8")]
QQ_POINTS = [(0, 0, 0, 0), ("3/4", "5/8", "1/2", "1/16"), (2, "1/4", "7/8", "3/2")]


def taylor_mismatch(taylor, rates, point):
    """The largest error of taylor at 50 digits against the Lie coefficients at an exact point.

    Each error is relative to max(1, |coefficient|).
    """
    a, y = [sympy.QQ(v) for v in rates], [sympy.QQ(v) for v in point]

    def mpf(q):
        return mpmath.mpf(int(q.numerator)) / int(q.denominator)

    with mpmath.workdps(50):
        got = taylor([mpf(v) for v in a], [mpf(v) for v in y])
        want = [mpf(row(*y)) for row in lie_coefficients(a)]
        return max(abs(g - w) / max(1, abs(w)) for g, w in zip(got, want))


class TestDerivations:
    @pytest.mark.parametrize("point", QQ_POINTS, ids=["origin", "inner", "outer"])
    @pytest.mark.parametrize("rates", QQ_RATES, ids=["demo", "fractions"])
    def test_taylor_coefficients_are_the_lie_derivatives(self, rates, point):
        # dyadic rationals are exact at 50 digits, so only _taylor's divisions round
        assert taylor_mismatch(simulate._taylor, rates, point) <= 1e-45

    def test_a_taylor_with_a_wrong_divisor_fails(self):
        wrong = tampered(simulate._taylor, "/ 5.0", "/ 4.0")
        assert taylor_mismatch(wrong, QQ_RATES[1], QQ_POINTS[1]) > 1e-3

    @pytest.mark.parametrize("params", RATES, ids=["demo", "fuzz3", "fuzz4"])
    def test_equilibrium_is_a_zero_of_the_field(self, params):
        # at 50 digits on the float point: each component within 4 units of 2^-52 of its inflow
        x = equilibrium(params).as_tuple()
        a = params.as_tuple()
        with mpmath.workdps(50):
            rates = [mpmath.mpf(v) for v in a]
            xs = [mpmath.mpf(v) for v in x]
            f = field(rates, *xs)
            scale = (a[0], a[2] * x[0], a[4] * x[1], a[6] * x[2])  # each component's inflow
            assert all(abs(fi) <= 4 * 2.0**-52 * s for fi, s in zip(f, scale))

    def test_k_times_the_quartic_of_L_star_is_the_threshold_in_s(self):
        # _L_star's f and Newton slope, read from its source; with s = L + alpha1*tau(L),
        # tau's fixed point is s**2 - (L + b)*s - c = 0 and L*ell4 = theta is s = k*L**2
        k, b, c, L, s = sympy.symbols("k b c L s", positive=True)
        tree = ast.parse(textwrap.dedent(inspect.getsource(bounds._L_star)))
        assigned = {n.targets[0].id: n.value for n in ast.walk(tree) if isinstance(n, ast.Assign)
                    and isinstance(n.targets[0], ast.Name)}
        scope = {"k": k, "b": b, "c": c, "L": L}
        for name in ("f", "step"):  # step reads f
            value = eval(compile(ast.Expression(assigned[name]), "_L_star", "eval"), scope)
            scope[name] = sympy.nsimplify(value, rational=True)
        f = scope["f"]
        assert sympy.expand(k * f - (s**2 - (L + b) * s - c).subs(s, k * L**2)) == 0
        assert sympy.cancel(f / scope["step"] - sympy.diff(f, L)) == 0  # Newton's slope is f's derivative


def test_a_float_level_gives_the_bits_of_numpy():
    # math's sqrt on floats, numpy's on arrays: the same correctly rounded root
    levels = np.geomspace(1e-3, 1e6, 25)
    assert [tau(DEMO, L) for L in levels.tolist()] == tau(DEMO, levels).tolist()
    assert type(tau(DEMO, 1.75)) is float and math.isfinite(tau(DEMO, 1.75))
