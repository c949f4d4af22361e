"""Certificate layer: waiting time, cascade floors, threshold, bounds."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import DEMO, GOLDEN, log_uniform, random_params
from threshold import bisect_L_star

from aifcert import (
    BoundCertificate,
    CertificateError,
    DerivedConstants,
    Params,
    State,
    certificate,
    ell2,
    ell3,
    ell4,
    growth_envelope,
    solve_L_star,
    tau,
    window_upper,
)
from aifcert.verify import FORMULA_FUZZ_RANGE


def fixed_point_tau(p: Params, L: float) -> float:
    """Independent oracle: iterate t -> psi1 + ln2/(a8*(L + a1*t))."""
    dc = DerivedConstants.from_params(p)
    t = dc.psi1
    for _ in range(200):
        t_next = dc.psi1 + math.log(2.0) / (p.alpha8 * (L + p.alpha1 * t))
        if t_next == t:
            break
        t = t_next
    return t


class TestTau:
    def test_constants_demo(self):
        dc = DerivedConstants.from_params(DEMO)
        assert dc.psi1 == pytest.approx(2.0 * math.log(2.0), rel=1e-15)
        assert dc.psi2 == pytest.approx(math.log(2.0) / 30.0, rel=1e-15)
        assert dc.psi1 == dc.delta2 + dc.delta3

    def test_golden(self):
        assert tau(DEMO, 1.75) == pytest.approx(GOLDEN["tau_175"], rel=1e-14)

    def test_matches_fixed_point_iteration(self):
        for L in (1e-3, 0.1, 1.75, 10.0, 1e3):
            assert tau(DEMO, L) == pytest.approx(fixed_point_tau(DEMO, L), rel=1e-14)

    def test_residual_small_across_scales(self):
        # the defining equation must hold to 1e-12 relative even when
        # the level dwarfs the additive terms (catastrophic cancellation
        # territory for a naive quadratic formula)
        rng = np.random.default_rng(21)
        for _ in range(30):
            p = Params.from_sequence(log_uniform(rng, 1e-2, 1e2, 8))
            dc = DerivedConstants.from_params(p)
            for L in np.geomspace(1e-3, 1e6, 20):
                t = tau(p, L)
                resid = abs(t - (dc.psi1 + math.log(2.0) / (p.alpha8 * (L + p.alpha1 * t))))
                assert resid <= 1e-12 * t

    def test_strictly_decreasing_with_floor(self):
        dc = DerivedConstants.from_params(DEMO)
        grid = np.geomspace(1e-3, 1e6, 50)
        vals = [tau(DEMO, L) for L in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > dc.psi1 for v in vals)

    def test_limit_at_large_levels(self):
        dc = DerivedConstants.from_params(DEMO)
        assert abs(tau(DEMO, 1e9) - dc.psi1) <= 1e-6

    @pytest.mark.parametrize("L", [0.0, -1.0, float("nan")])
    def test_rejects_bad_level(self, L):
        with pytest.raises(ValueError):
            tau(DEMO, L)


class TestCascadeFloors:
    def test_floor_values_demo(self):
        assert ell2(DEMO, 2.0) == pytest.approx(GOLDEN["ell2_at_2"], rel=1e-14)
        assert ell3(DEMO, 2.0) == pytest.approx(GOLDEN["ell3_at_2"], rel=1e-14)
        T = tau(DEMO, 1.75)
        assert ell4(DEMO, 2.0, T) == pytest.approx(GOLDEN["ell4_at_2"], rel=1e-14)

    def test_ell4_formula(self):
        dc = DerivedConstants.from_params(DEMO)
        L, T = 2.0, 1.25
        assert ell4(DEMO, L, T) == pytest.approx(
            dc.K * L / (8.0 * (L + DEMO.alpha1 * T)), rel=1e-15
        )

    def test_window_upper(self):
        assert window_upper(DEMO, 2.0, 1.5) == 2.0 + 1.0 * 1.5

    def test_ell4_increasing_with_supremum(self):
        dc = DerivedConstants.from_params(DEMO)
        grid = np.geomspace(1e-3, 1e9, 60)
        vals = [ell4(DEMO, L, tau(DEMO, L)) for L in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v < dc.K / 8.0 for v in vals)
        assert abs(vals[-1] - dc.K / 8.0) <= 1e-6 * dc.K / 8.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ell2(DEMO, 0.0)
        with pytest.raises(ValueError):
            ell3(DEMO, -1.0)
        with pytest.raises(ValueError):
            ell4(DEMO, 1.0, -0.5)


class TestThreshold:
    def test_golden(self):
        assert solve_L_star(DEMO) == pytest.approx(GOLDEN["L_star"], rel=1e-10)

    def test_defining_equation(self):
        dc = DerivedConstants.from_params(DEMO)
        L = solve_L_star(DEMO)
        assert abs(L * ell4(DEMO, L, tau(DEMO, L)) - dc.theta) <= 1e-12 * dc.theta

    def test_bracket(self):
        L = solve_L_star(DEMO)
        assert GOLDEN["lower_threshold"] < L < 1.75

    def test_sign_change_around_root(self):
        dc = DerivedConstants.from_params(DEMO)
        L = solve_L_star(DEMO)

        def product(v):
            return v * ell4(DEMO, v, tau(DEMO, v))

        assert product(0.9 * L) < dc.theta < product(1.1 * L)

    def test_matches_bisection_on_formula_fuzz_range(self):
        # Newton on the quartic against the bracket-and-bisect reference
        rng = np.random.default_rng(24)
        for _ in range(500):
            p = random_params(rng, *FORMULA_FUZZ_RANGE)
            theta = DerivedConstants.from_params(p).theta
            L = solve_L_star(p)
            assert abs(L - bisect_L_star(p)) <= 1e-13 * L
            assert abs(L * ell4(p, L, tau(p, L)) - theta) <= 1e-12 * theta

    def test_exceeds_coarse_lower_bound_on_fuzzed_rates(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            p = Params.from_sequence(log_uniform(rng, 1e-2, 1e2, 8))
            dc = DerivedConstants.from_params(p)
            L = solve_L_star(p)
            assert L > 4.0 * dc.theta / dc.K
            assert abs(L * ell4(p, L, tau(p, L)) - dc.theta) <= 1e-12 * dc.theta

    @pytest.mark.parametrize(
        "k, rate",
        [
            pytest.param(k, r, id=f"alpha{k + 1}={r:g}")
            for k, r in [(k, 1e102 if k in (0, 3, 5, 7) else 1e-102) for k in range(8)]
            + [(0, 1e-164), (0, 1e300)]
        ],
    )
    def test_rates_beyond_floating_point_raise(self, k, rate):
        # one rate 1e102 times too large or small leaves the quartic's root
        # at or below 8*theta/K in floating point; alpha1 at 1e-164 or 1e300
        # makes K/(8*theta) or its square underflow to 0
        rates = [1.0] * 8
        rates[k] = rate
        with pytest.raises(CertificateError, match=r"^the threshold L\* is out of floating-point range"):
            solve_L_star(Params.from_sequence(rates))


class TestCertificate:
    def test_demo_golden(self):
        cert = certificate(DEMO, State.zero(), 1.75)
        assert cert.L_used == 1.75
        assert cert.T0 == pytest.approx(GOLDEN["T0"], abs=1e-3)
        assert cert.M1 == pytest.approx(GOLDEN["M1"], abs=1e-3)
        assert cert.M2 == pytest.approx(GOLDEN["M2"], abs=1e-3)
        assert cert.M3 == pytest.approx(GOLDEN["M3"], abs=1e-3)
        assert cert.M4 == pytest.approx(GOLDEN["M4"], abs=1e-3)

    def test_chained_formulas(self):
        # each bound is the stationary gain applied to the previous one
        x0 = State.from_sequence([0.5, 0.2, 0.1, 2.0])
        cert = certificate(DEMO, x0, 1.75)
        dc = DerivedConstants.from_params(DEMO)
        T0 = tau(DEMO, 1.75)
        M1 = max(0.5, 1.75) + DEMO.alpha1 * T0
        M2 = max(0.2, DEMO.alpha3 / DEMO.alpha4 * M1)
        M3 = max(0.1, DEMO.alpha5 / DEMO.alpha6 * M2)
        W0 = 2.0 + dc.c * 0.2 + dc.d * 0.1
        gamma = dc.K + dc.c * M2 + dc.d * M3
        assert cert.T0 == pytest.approx(T0, rel=1e-15)
        assert cert.M1 == pytest.approx(M1, rel=1e-15)
        assert cert.M2 == pytest.approx(M2, rel=1e-15)
        assert cert.M3 == pytest.approx(M3, rel=1e-15)
        assert cert.W0 == pytest.approx(W0, rel=1e-15)
        assert cert.gamma == pytest.approx(gamma, rel=1e-15)
        assert cert.M4 == pytest.approx(max(W0, gamma), rel=1e-15)

    def test_default_level_is_threshold(self):
        cert = certificate(DEMO, State.zero())
        assert cert.L_used == cert.L_star

    def test_rejects_override_below_threshold(self):
        with pytest.raises(CertificateError):
            certificate(DEMO, State.zero(), 1.0)

    @pytest.mark.parametrize("level", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_override(self, level):
        with pytest.raises(CertificateError, match=f"override level must be finite, got {level!r}$"):
            certificate(DEMO, State.zero(), level)

    def test_monotone_in_initial_state(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            lo = rng.uniform(0.0, 3.0, 4)
            hi = lo + rng.uniform(0.0, 3.0, 4)
            ca = certificate(DEMO, State.from_sequence(lo))
            cb = certificate(DEMO, State.from_sequence(hi))
            assert cb.M1 >= ca.M1
            assert cb.M2 >= ca.M2
            assert cb.M3 >= ca.M3
            assert cb.M4 >= ca.M4

    def test_json_round_trip(self):
        cert = certificate(DEMO, State.from_sequence([0.1, 0.2, 0.3, 0.4]), 1.75)
        back = BoundCertificate.from_json(cert.to_json())
        assert back == cert

    @pytest.mark.parametrize("name", ["L_star", "L_used", "T0", "M1", "M2", "M3", "M4", "gamma", "W0"])
    def test_constants_must_be_finite_and_positive(self, name):
        cert = certificate(DEMO, State.zero())
        rel = ">=" if name == "W0" else ">"
        for v in (math.nan, math.inf, -1.0) + (() if name == "W0" else (0.0,)):
            with pytest.raises(CertificateError, match=f"^{name} must be finite and {rel} 0, got {v!r}$"):
                dataclasses.replace(cert, **{name: v})
        assert dataclasses.replace(cert, W0=0.0).W0 == 0.0

    def test_constants_are_plain_floats(self):
        # tau gives a numpy float; the certificate keeps each constant as the float it checked
        names = ("L_star", "L_used", "T0", "M1", "M2", "M3", "M4", "gamma", "W0")
        for x0 in (State.zero(), State.from_sequence([10.0, 0.0, 0.0, 0.0])):
            cert = certificate(DEMO, x0)
            for c in (cert, dataclasses.replace(cert, T0=np.float64(cert.T0))):
                assert [type(getattr(c, name)) for name in names] == [float] * len(names)
                assert "np.float64" not in repr(c)


class TestGrowthEnvelope:
    def test_golden_from_origin(self):
        env = growth_envelope(DEMO, State.zero(), 2.0)
        assert env == pytest.approx(GOLDEN["envelope_t2"], rel=1e-14)

    def test_at_zero_returns_initial_state(self):
        x0 = State.from_sequence([0.3, 0.1, 0.7, 0.2])
        assert growth_envelope(DEMO, x0, 0.0) == x0.as_tuple()

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            growth_envelope(DEMO, State.zero(), -1.0)

    def test_nondecreasing_in_time(self):
        x0 = State.from_sequence([0.3, 0.1, 0.7, 0.2])
        prev = growth_envelope(DEMO, x0, 0.0)
        for t in np.linspace(0.1, 5.0, 25):
            cur = growth_envelope(DEMO, x0, t)
            assert all(c >= p for c, p in zip(cur, prev))
            prev = cur
