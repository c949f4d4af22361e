"""Core model layer: parameters, states, vector field, equilibrium."""

import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest

from conftest import DEMO, GOLDEN, log_uniform

from aifcert import (
    DerivedConstants,
    Excursion,
    Params,
    State,
    boundary_inflow,
    certificate,
    check_cascade_lower_bounds,
    check_propositions,
    ell4,
    equilibrium,
    excursions_above,
    field,
    integrate,
    propagate_fixed,
    tau,
    vector_field,
    window_upper,
)
from aifcert import model
from aifcert.cli import main
from aifcert.model import _require_nonnegative, _require_positive


class TestParams:
    def test_fields(self):
        assert DEMO.alpha1 == 1.0
        assert DEMO.alpha2 == 30.0
        assert DEMO.alpha3 == 10.0
        assert DEMO.alpha8 == 30.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_nonpositive_rates(self, bad):
        vals = [1.0] * 8
        vals[3] = bad
        with pytest.raises(ValueError, match="alpha4"):
            Params.from_sequence(vals)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Params.from_sequence([1.0] * 7)
        with pytest.raises(ValueError):
            Params.from_sequence([1.0] * 9)

    def test_tuple_round_trip(self):
        assert Params.from_sequence(DEMO.as_tuple()) == DEMO

    def test_json_round_trip(self):
        obj = DEMO.to_json()
        assert obj == {"alpha": [1.0, 30.0, 10.0, 1.0, 1.0, 1.0, 1.0, 30.0]}
        assert Params.from_json(obj) == DEMO


class TestState:
    def test_zero(self):
        assert State.zero().as_tuple() == (0.0, 0.0, 0.0, 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="x2"):
            State.from_sequence([0.0, -0.1, 0.0, 0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            State.from_sequence([0.0, float("nan"), 0.0, 0.0])

    def test_json_round_trip(self):
        s = State.from_sequence([0.1, 0.2, 0.3, 0.4])
        assert State.from_json(s.to_json()) == s


@pytest.mark.parametrize("cls, key", [(Params, "alpha"), (State, "x")])
@pytest.mark.parametrize("obj", [{}, [], "alpha x", None], ids=["dict without it", "list", "str", "None"])
def test_json_must_be_an_object_with_its_array(cls, key, obj):
    what = "params" if cls is Params else "state"
    with pytest.raises(ValueError, match=f"^{what} JSON must be an object with an '{key}' array$"):
        cls.from_json(obj)


class TestDerivedConstants:
    def test_demo_values(self):
        dc = DerivedConstants.from_params(DEMO)
        assert dc.K == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert dc.theta == pytest.approx(1.0 / 30.0, rel=1e-15)
        assert dc.c == pytest.approx(1.0, rel=1e-15)
        assert dc.d == pytest.approx(1.0, rel=1e-15)
        assert dc.delta2 == pytest.approx(math.log(2.0), rel=1e-15)
        assert dc.delta3 == pytest.approx(math.log(2.0), rel=1e-15)

    def test_formulas_on_fuzzed_rates(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = log_uniform(rng, 1e-2, 1e2, 8)
            p = Params.from_sequence(a)
            dc = DerivedConstants.from_params(p)
            assert dc.K == pytest.approx(a[2] * a[4] * a[6] / (a[3] * a[5] * a[7]), rel=1e-12)
            assert dc.theta == pytest.approx(a[0] / a[1], rel=1e-15)
            assert dc.c == pytest.approx(a[4] * a[6] / (a[3] * a[5]), rel=1e-12)
            assert dc.d == pytest.approx(a[6] / a[5], rel=1e-15)

    @pytest.mark.parametrize("command", ["bounds", "verify", "tau", "check_propositions"])
    def test_an_underflowing_product_of_rates_is_bad_input(self, tmp_path, capsys, command):
        # alpha4*alpha6*alpha8 = 1e-330 is 0 in floating point
        rates = (1.0, 1.0, 1.0, 1e-110, 1.0, 1e-110, 1.0, 1e-110)
        message = f"a product of the rates {rates} underflows to 0"
        if command in ("bounds", "verify"):
            argv = [command, "--params", ",".join(map(str, rates)), "--horizon", "1", "--out", str(tmp_path)]
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        else:
            call = {"tau": lambda p: tau(p, 1.0), "check_propositions": check_propositions}[command]
            with pytest.raises(ValueError, match=re.escape(message)):
                call(Params(*rates))


class TestVectorField:
    def test_probe_at_ones(self):
        assert vector_field(DEMO, (1.0, 1.0, 1.0, 1.0)) == GOLDEN["field_at_ones"]

    def test_accepts_state_objects(self):
        s = State.from_sequence([1.0, 1.0, 1.0, 1.0])
        assert vector_field(DEMO, s) == GOLDEN["field_at_ones"]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            vector_field(DEMO, (1.0, float("inf"), 0.0, 0.0))

    def test_production_rate_is_capped(self):
        # species 1 can never grow faster than its constant production
        rng = np.random.default_rng(12)
        for _ in range(200):
            p = Params.from_sequence(log_uniform(rng, 1e-2, 1e2, 8))
            x = rng.uniform(0.0, 5.0, 4)
            f = vector_field(p, x)
            assert f[0] <= p.alpha1 + 1e-15
            if x[0] * x[3] == 0.0:
                assert f[0] == p.alpha1

    def test_field_on_columns_matches_rows_bitwise(self):
        # the same function serves floats and (n, 4) sample columns
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = Params.from_sequence(log_uniform(rng, 1e-2, 1e2, 8))
            y = rng.uniform(-1.0, 5.0, (50, 4))
            cols = np.stack(field(p.as_tuple(), *y.T), axis=-1)
            rows = np.array([vector_field(p, row) for row in y])
            assert cols.tobytes() == rows.tobytes()


class TestBoundaryInflow:
    def test_origin(self):
        flows = boundary_inflow(DEMO, State.zero())
        assert flows == [(1, 1.0), (2, 0.0), (3, 0.0), (4, 0.0)]

    def test_interior_state_has_no_entries(self):
        assert boundary_inflow(DEMO, (0.1, 0.2, 0.3, 0.4)) == []

    def test_nonnegative_on_every_face(self):
        # flow never points out of the orthant: each zero component has
        # a nonnegative derivative regardless of the other components
        rng = np.random.default_rng(13)
        for _ in range(300):
            p = Params.from_sequence(log_uniform(rng, 1e-2, 1e2, 8))
            x = rng.uniform(0.0, 3.0, 4)
            x[rng.integers(0, 4, size=rng.integers(1, 5))] = 0.0
            for _, rate in boundary_inflow(p, x):
                assert rate >= 0.0


class TestEquilibrium:
    def test_demo_closed_form(self):
        eq = equilibrium(DEMO)
        assert eq.as_tuple() == pytest.approx(GOLDEN["equilibrium"], rel=1e-14)

    def test_all_ones_rates(self):
        eq = equilibrium(Params.from_sequence([1.0] * 8))
        assert eq.as_tuple() == pytest.approx((1.0, 1.0, 1.0, 1.0), rel=1e-14)

    def test_doubled_production(self):
        eq = equilibrium(Params.from_sequence([2.0] + [1.0] * 7))
        assert eq.as_tuple() == pytest.approx((2.0, 2.0, 2.0, 1.0), rel=1e-14)

    def test_field_vanishes_scale_relative(self):
        # wide-range rates: residual measured against the size of the
        # terms that cancel, since absolute residual scales with them
        rng = np.random.default_rng(14)
        for _ in range(300):
            p = Params.from_sequence(log_uniform(rng, 1e-3, 1e3, 8))
            eq = equilibrium(p)
            x1, x2, x3, x4 = eq.as_tuple()
            f = vector_field(p, eq)
            scales = (
                p.alpha1 + p.alpha2 * x1 * x4,
                p.alpha3 * x1 + p.alpha4 * x2,
                p.alpha5 * x2 + p.alpha6 * x3,
                p.alpha7 * x3 + p.alpha8 * x1 * x4,
            )
            for fi, sc in zip(f, scales):
                assert abs(fi) <= 1e-13 * sc

    def test_field_vanishes_absolute_near_unit_rates(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            p = Params.from_sequence(log_uniform(rng, 0.5, 2.0, 8))
            f = vector_field(p, equilibrium(p))
            assert max(abs(v) for v in f) <= 1e-12


def _short_run():
    return integrate(DEMO, State.zero(), 2.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: Params(True, 30, 10, 1, 1, 1, 1, 30),
        lambda: State(True, 0, 0, 0),
        lambda: dataclasses.replace(certificate(DEMO, State.zero()), M1=True),
        lambda: certificate(Params(1, 30, 100, 1, 1, 1, 1, 30), State.zero(), True),  # L* = 0.377
        lambda: tau(DEMO, True),
        lambda: ell4(DEMO, 1.0, True),
        lambda: window_upper(DEMO, 1.0, False),
        lambda: integrate(DEMO, State.zero(), True),
        lambda: propagate_fixed(DEMO, State.zero(), True, 10),
        lambda: excursions_above(_short_run(), True),
        lambda: check_cascade_lower_bounds(_short_run(), DEMO, 0.05, Excursion(0.05, 0.5, 2.0), T0=True),
    ],
    ids=["Params", "State", "certificate", "L_override", "tau", "ell4", "window_upper", "integrate",
         "propagate_fixed", "excursions_above", "cascade_T0"],
)
def test_a_boolean_is_not_a_number(call):
    # as the readers say (model._number): True is not 1.0 and False is not 0.0
    with pytest.raises(ValueError, match=r"^expected .+ as a number, got (True|False)$"):
        call()


class TestRequire:
    @pytest.mark.parametrize("strict", [True, False])
    def test_arrays_element_by_element(self, strict):
        ok = np.array([0.5, 2.0]) if strict else np.array([0.0, 2.0])
        assert _require_positive("v", ok, strict) is ok
        for bad in ((0.0, 1.0) if strict else (-1e-300, 1.0), (1.0, math.inf), (math.nan, 1.0)):
            message = f"^v must be finite and {'>' if strict else '>='} 0, got array"
            with pytest.raises(ValueError, match=message):
                _require_positive("v", np.array(bad), strict)

    @pytest.mark.parametrize("v", [0.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_a_positive_number_is_finite_and_above_0(self, v):
        with pytest.raises(ValueError, match=r"^x must be finite and > 0, got "):
            _require_positive("x", v)
        if v == 0.0:
            assert _require_nonnegative("x", v) == 0.0
        else:
            with pytest.raises(ValueError, match=r"^x must be finite and >= 0, got "):
                _require_nonnegative("x", v)

    def test_a_plain_float_skips_the_type_rules(self, monkeypatch):
        # a float is checked as it is, without _math or _number, and still
        # refused if not finite and > 0; a boolean still takes _number's rule
        with pytest.raises(ValueError, match=r"^expected x as a number, got True$"):
            _require_positive("x", True)

        def unused(*args):
            raise AssertionError("a plain float needs no type rule")

        monkeypatch.setattr(model, "_math", unused)
        monkeypatch.setattr(model, "_number", unused)
        v = 2.5
        assert _require_positive("x", v) is v and _require_nonnegative("x", 0.0) == 0.0
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match=r"^x must be finite and > 0, got "):
                _require_positive("x", bad)

    def test_numbers_become_floats_but_other_number_types_are_kept(self):
        for v in (2, np.float64(2.0), "2", np.int64(2)):
            assert type(_require_positive("x", v)) is float and _require_nonnegative("x", v) == 2.0
        assert isinstance(_require_positive("x", mpmath.mpf("1e400")), mpmath.mpf)
        with pytest.raises(ValueError, match="must be finite and > 0"):
            _require_positive("x", mpmath.mpf("inf"))
