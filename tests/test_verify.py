"""Verification layer: every check, its negatives, and the report."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DEMO, log_uniform, random_params, random_state
from sampling import window_grid

import aifcert.cli
import aifcert.simulate
import aifcert.verify
import propositions_loop
from aifcert import (
    CertificateError,
    Excursion,
    Params,
    State,
    Trajectory,
    build_report,
    certificate,
    check_W_decrease,
    check_cascade_lower_bounds,
    check_excursion_lemma,
    check_global_bounds,
    check_propositions,
    ell2,
    ell4,
    equilibrium,
    excursions_above,
    integrate,
    solve_L_star,
    stretches_above,
    tau,
)
from aifcert.model import DerivedConstants
from aifcert.verify import FORMULA_FUZZ_RANGE, SIMULATION_FUZZ_RANGE
from propositions_loop import check_propositions_loop

CHECK_NAMES = {
    "global_bounds",
    "excursion_lemma",
    "cascade_lower_bounds",
    "W_decrease",
    "propositions",
}


class TestGlobalBounds:
    def test_demo_passes_with_positive_margin(self, demo_traj):
        cert = certificate(DEMO, State.zero())
        res = check_global_bounds(demo_traj, cert)
        assert res.status == "pass"
        assert res.margin > 0.0

    def test_tampered_bound_fails_with_location(self, demo_traj):
        # each M_i tampered to half of max x_i: the failure is located where
        # x_i first reaches M_i + 1e-6*M_i, or at t0 if x_i starts above it
        overshoot = integrate(DEMO, State.from_sequence([10.0, 0.0, 0.0, 0.0]), 30.0)
        at_start = []
        for name, traj in (("demo", demo_traj), ("overshoot", overshoot)):
            cert = certificate(DEMO, traj.x0)
            for i in range(1, 5):
                M = traj.maxima[i - 1][0] / 2.0
                res = check_global_bounds(traj, dataclasses.replace(cert, **{f"M{i}": M}))
                assert res.status == "fail"
                assert res.margin < 0.0
                limit = M + 1e-6 * M
                if traj.y[0, i - 1] > limit:
                    assert res.location == traj.t[0]
                    at_start.append((name, i))
                    continue
                assert traj.t[0] < res.location < traj.t[-1]
                assert traj.at(res.location)[i - 1] == pytest.approx(limit, abs=1e-8)
                # nothing before it is above the limit, up to the crossing's rounding
                ((top, _),) = traj.extrema([("max", f"x{i}", traj.t[0], res.location)])
                assert top <= limit + 1e-12 * limit
        assert at_start == [("overshoot", 1)]  # M1 = 5.05 is below x1(0) = 10

    def test_fuzzed_systems_stay_certified(self):
        rng = np.random.default_rng(41)
        lo, hi = SIMULATION_FUZZ_RANGE
        for _ in range(100):
            p = random_params(rng, lo, hi)
            x0 = random_state(rng)
            traj = integrate(p, x0, 50.0)
            res = check_global_bounds(traj, certificate(p, x0))
            assert res.status == "pass", (p, x0, res.detail)


def count_searches(monkeypatch):
    """Spy on simulate._extremum: the number of queries of each search, in call order."""
    calls = []
    search = aifcert.simulate._extremum

    def spy(traj, queries):
        calls.append(len(queries))
        return search(traj, queries)

    monkeypatch.setattr(aifcert.simulate, "_extremum", spy)
    return calls


def count_maxima_passes(monkeypatch):
    """Spy on the pass behind Trajectory.maxima: the trajectory of each pass, in call order."""
    calls = []
    kept = Trajectory.__dict__["maxima"]  # a cached_property, which calls its func on first use
    find = kept.func

    def spy(traj):
        calls.append(traj)
        return find(traj)

    monkeypatch.setattr(kept, "func", spy)
    return calls


class TestOneSearchPerCheck:
    def test_global_bounds_is_one_search(self, demo_traj, monkeypatch):
        # a trajectory of its own: the shared one may have found its maxima
        traj = Trajectory(DEMO, demo_traj.t, demo_traj.y, demo_traj.taylor_runs)
        cert = certificate(DEMO, State.zero())
        passes, calls = count_maxima_passes(monkeypatch), count_searches(monkeypatch)
        assert check_global_bounds(traj, cert).status == "pass"
        assert passes == [traj] and calls == []
        assert check_global_bounds(traj, cert).status == "pass"
        assert passes == [traj] and calls == []  # the maxima are kept

    def test_cascade_record_is_one_search(self, demo_traj, monkeypatch):
        e = next(e for e in excursions_above(demo_traj, 0.2) if e.duration >= tau(DEMO, 0.2))
        calls = count_searches(monkeypatch)
        res = check_cascade_lower_bounds(demo_traj, DEMO, 0.2, e)
        assert res.status == "pass" and res.detail.count("margin") == 4
        assert calls == [4]

    def test_cascade_record_is_one_search_over_every_excursion(self, demo_traj, monkeypatch):
        # the demo has 13 excursions above 0.2 lasting tau(0.2), 4 stage
        # windows each: all 52 go to one search, however many excursions
        cert = dataclasses.replace(certificate(DEMO, State.zero()), L_used=0.2, T0=tau(DEMO, 0.2))
        demo_traj.maxima, excursions_above(demo_traj, 0.2)  # found and kept in every report
        calls = count_searches(monkeypatch)
        res = aifcert.verify._cascade_record(demo_traj, DEMO, cert)
        assert res.status == "pass" and res.detail.startswith("13 qualifying excursion(s); worst: ")
        assert calls == [52]

    def test_W_decrease_is_one_search(self, demo_traj, monkeypatch):
        # gamma at W's median node: W has many stretches above it, all
        # windows of one W_rate search
        dc = DerivedConstants.from_params(DEMO)
        gamma = float(np.median(dc.W(*demo_traj.y[:, 1:].T)))
        cert = dataclasses.replace(certificate(DEMO, State.zero()), gamma=gamma)
        stretches = [(a, b) for a, b in stretches_above(demo_traj, "W", gamma) if a < b]
        demo_traj.maxima  # found and kept by global_bounds in every report; W's bound reads them
        calls = count_searches(monkeypatch)
        assert check_W_decrease(demo_traj, DEMO, cert).status == "fail"
        assert len(stretches) > 1 and calls == [len(stretches)]

    @pytest.mark.parametrize(
        "x0, horizon, searches",
        [((0.0, 0.0, 0.0, 0.0), 100.0, 0), ((10.0, 0.0, 0.0, 0.0), 30.0, 1)],
        ids=["demo", "overshoot"],
    )
    def test_one_excursion_set_per_report(self, monkeypatch, x0, horizon, searches):
        # the lemma and the cascade read the same excursions above L_used:
        # at most one search for x1's stretches, whichever of them asks
        # first, and none where max x1 stays below L_used (the demo's 0.765
        # against 1.529)
        traj = integrate(DEMO, x0, horizon)
        calls = []
        find = aifcert.simulate.stretches_above

        def spy(traj, observable, level):
            calls.append((observable, level))
            return find(traj, observable, level)

        monkeypatch.setattr(aifcert.simulate, "stretches_above", spy)
        report = build_report(DEMO, x0, horizon=horizon, traj=traj)
        L_used = report.certificate.L_used
        assert (traj.maxima[0][0] >= L_used) == bool(searches)
        assert [c for c in calls if c[0] == "x1"] == [("x1", L_used)] * searches

    def test_excursions_are_found_once_per_level(self, monkeypatch):
        traj = integrate(DEMO, State.from_sequence([10.0, 0.0, 0.0, 0.0]), 30.0)
        calls = []
        find = aifcert.simulate.stretches_above

        def spy(traj, observable, level):
            calls.append((observable, level))
            return find(traj, observable, level)

        monkeypatch.setattr(aifcert.simulate, "stretches_above", spy)
        first = excursions_above(traj, 1.75)
        assert calls == [("x1", 1.75)] and first
        kept = list(first)
        first.append(Excursion(1.75, 40.0, 50.0))
        first[0] = Excursion(1.75, 0.0, 99.0)
        second = excursions_above(traj, 1.75)
        assert calls == [("x1", 1.75)]  # no second search
        assert second == kept and second is not first
        assert len(excursions_above(traj, 0.5)) >= 1 and calls == [("x1", 1.75), ("x1", 0.5)]

    @pytest.mark.parametrize(
        "x0, horizon", [((0.0, 0.0, 0.0, 0.0), 100.0), ((10.0, 0.0, 0.0, 0.0), 30.0)],
        ids=["demo", "overshoot"],
    )
    def test_one_x1_maximum_per_report(self, monkeypatch, x0, horizon):
        # global_bounds' maxima pass answers the lemma's max x1 too (the demo's
        # nodes stay below L_used, so its lemma needs it), and the lemma
        # record equals the one a fresh trajectory gives on its own
        traj = integrate(DEMO, x0, horizon)
        x1 = aifcert.simulate._coefficients(traj, "x1")
        passes, searched = count_maxima_passes(monkeypatch), []
        search = aifcert.simulate._extremum

        def spy(traj, queries):
            searched.extend(q for q in queries if q[1:] == (None, None) and np.array_equal(q[0], x1))
            return search(traj, queries)

        monkeypatch.setattr(aifcert.simulate, "_extremum", spy)
        report = build_report(DEMO, x0, horizon=horizon, traj=traj)
        assert passes == [traj] and searched == []  # the lemma reads the kept pass
        monkeypatch.undo()
        fresh = integrate(DEMO, x0, horizon)
        assert check_excursion_lemma(fresh, DEMO, report.certificate) == report.checks[1]

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_one_maxima_pass_per_command(self, monkeypatch, tmp_path, capsys, command):
        # simulate prints the maxima and verify's checks read them: each
        # command's one trajectory has its maxima found once
        passes = count_maxima_passes(monkeypatch)
        assert aifcert.cli.main([command, "--horizon", "20", "--out", str(tmp_path)]) == 0
        assert len(passes) == 1


class TestJudge:
    """verify._judge: every trajectory check's verdict, margins and first worst point, by one rule."""

    def test_max_and_min_margins_are_headroom_over_scale(self, demo_traj):
        obligations = [("max", "x1", 10.0, 20.0, 2.0, 4.0), ("min", "x2", 10.0, 20.0, 0.1, 0.5)]
        (top, t_top), (low, t_low) = demo_traj.extrema([ob[:4] for ob in obligations])
        status, margin, location, margins, found = aifcert.verify._judge(demo_traj, obligations, 0.0)
        assert margins == [(2.0 - top) / 4.0, (low - 0.1) / 0.5]
        assert found == [(top, t_top), (low, t_low)]
        k = int(np.argmin(margins))
        assert (margin, location) == (margins[k], found[k][1]) and margin < margins[1 - k]
        assert status == ("pass" if margin >= 0.0 else "fail")

    def test_a_tie_gives_the_first_location(self, demo_traj):
        # margins 1, 0.5, 0.5, 1: the worst is the second obligation's
        obligations = [
            ("max", "x1", None, None, 2.0, 1.0),
            ("min", "x2", None, None, 0.5, 2.0),
            ("max", "x3", None, None, 3.0, 4.0),
            ("min", "x4", None, None, 0.0, 1.0),
        ]
        found = [(1.0, 5.0), (1.5, 6.0), (1.0, 7.0), (1.0, 8.0)]
        status, margin, location, margins, _ = aifcert.verify._judge(demo_traj, obligations, 0.0, found)
        assert margins == [1.0, 0.5, 0.5, 1.0]
        assert (status, margin, location) == ("pass", 0.5, 6.0)

    def test_found_extrema_are_not_searched_again(self, demo_traj, monkeypatch):
        traj = Trajectory(DEMO, demo_traj.t, demo_traj.y, demo_traj.taylor_runs)
        maxima = traj.maxima
        obligations = [("max", f"x{i}", None, None, 10.0, 10.0) for i in range(1, 5)]
        calls = count_searches(monkeypatch)
        *_, found = aifcert.verify._judge(traj, obligations, 0.0, maxima)
        assert calls == [] and found == maxima
        # given the first four, only the fifth is searched
        aifcert.verify._judge(traj, [*obligations, ("min", "p", 10.0, 20.0, 0.0, 1.0)], 0.0, maxima)
        assert calls == [1]

    def test_no_obligations_is_a_pass_with_no_margin(self, demo_traj, monkeypatch):
        calls = count_searches(monkeypatch)
        assert aifcert.verify._judge(demo_traj, [], 0.0)[:3] == ("pass", None, None)
        assert calls == []

    @pytest.mark.parametrize(
        "floor, v, status",
        [(0.0, 1.0, "pass"), (0.0, math.nextafter(1.0, 2.0), "fail"), (-0.25, 1.25, "pass"),
         (-0.25, math.nextafter(1.25, 2.0), "fail"), (0.0, math.nan, "fail")],
        ids=["at-0", "below-0", "at-minus-quarter", "below-minus-quarter", "nan"],
    )
    def test_fails_below_the_floor(self, demo_traj, floor, v, status):
        # the margin of a maximum v against bound 1 is 1 - v: at the floor it passes, one ulp lower it
        # fails; a second obligation with headroom does not hide a NaN margin
        obligations = [("max", "x1", None, None, 2.0, 1.0), ("max", "x1", None, None, 1.0, 1.0)]
        found = [(0.0, 0.0), (v, 1.0)]
        assert aifcert.verify._judge(demo_traj, obligations, floor, found)[0] == status


class TestExcursionLemma:
    def test_vacuous_from_origin(self, demo_traj):
        cert = certificate(DEMO, State.zero())
        res = check_excursion_lemma(demo_traj, DEMO, cert)
        assert res.status == "pass"
        assert "vacuous" in res.detail

    def test_vacuous_when_excursions_are_short(self):
        x0 = State.from_sequence([10.0, 0.0, 0.0, 0.0])
        traj = integrate(DEMO, x0, 30.0)
        res = check_excursion_lemma(traj, DEMO, certificate(DEMO, x0))
        assert res.status == "pass"
        assert "longest" in res.detail

    def test_shrunk_waiting_time_exposes_failure(self):
        # with a waiting time far below the certified one, excursions
        # qualify while the feedback has not yet kicked in, so the
        # decrease claim must fail: the machinery is not a rubber stamp
        x0 = State.from_sequence([10.0, 0.0, 0.0, 0.0])
        traj = integrate(DEMO, x0, 30.0)
        cert = certificate(DEMO, x0)
        bad = dataclasses.replace(cert, T0=cert.T0 / 100.0)
        res = check_excursion_lemma(traj, DEMO, bad)
        assert res.status == "fail"
        assert res.margin < 0.0
        assert res.location is not None

    def test_long_excursion_just_above_L_used_fails(self):
        # x1 stays at 1.05, just above L_used = 1, from t = 0.5 to 2.6, with
        # x1*x4 = 0.03 < a1/a2 at the nodes, so x1 is not falling long after
        # T0 = 1; a spike to 3 at t = 1.1 lifts every level of a geometric
        # grid between L_used and max x1 above 1.05, where the one excursion
        # is short
        t = [0.0, 0.5, 1.0, 1.1, 1.2, 1.6, 2.0, 2.6, 3.0]
        x1 = np.array([0.5, 1.05, 1.05, 3.0, 1.05, 1.05, 1.05, 1.05, 0.5])
        y = np.column_stack([x1, np.full(9, 0.3), np.full(9, 0.3), 0.9 / (30.0 * x1)])
        traj = Trajectory.from_samples(DEMO, t, y)
        cert = dataclasses.replace(certificate(DEMO, traj.x0), L_used=1.0, T0=1.0)
        (e,) = excursions_above(traj, 1.0)
        assert e.duration > 2.0
        for L in np.geomspace(1.0, traj.maxima[0][0], 9)[1:]:
            assert all(f.duration < 1.0 for f in excursions_above(traj, L))
        res = check_excursion_lemma(traj, DEMO, cert)
        assert res.status == "fail"
        assert res.margin < -0.05
        assert e.start + 1.0 <= res.location <= e.end


    def test_every_qualifying_window_in_one_search(self, monkeypatch):
        # x1 = 1 + 0.7*sin(pi*(t - 0.5)/2.5) is above L_used = 1 on
        # (0.5, 3) and (5.5, 8), both longer than T0 = 1: the minima of p
        # on both windows come from one search and equal the one-window minima
        t = np.arange(0.0, 9.01, 0.25)
        x1 = 1.0 + 0.7 * np.sin(np.pi * (t - 0.5) / 2.5)
        y = np.column_stack([x1, np.full(t.size, 0.3), np.full(t.size, 0.3), 0.3 + 0.2 * np.cos(t)])
        traj = Trajectory.from_samples(DEMO, t, y)
        cert = dataclasses.replace(certificate(DEMO, traj.x0), L_used=1.0, T0=1.0)
        windows = [(e.start + 1.0, e.end) for e in excursions_above(traj, 1.0) if e.duration >= 1.0]
        assert len(windows) == 2
        one_window = [traj.extrema([("min", "p", a, b)])[0] for a, b in windows]
        traj.maxima  # found and kept by global_bounds in every report
        calls = count_searches(monkeypatch)
        seen = []
        extrema = Trajectory.extrema

        def spy(self, queries):
            found = extrema(self, queries)
            seen.append((queries, found))
            return found

        monkeypatch.setattr(Trajectory, "extrema", spy)
        res = check_excursion_lemma(traj, DEMO, cert)
        (queries, found), = [(q, f) for q, f in seen if q[0][1] == "p"]
        assert [(a, b) for _, _, a, b in queries] == windows
        assert [(v.hex(), w.hex()) for v, w in found] == [(v.hex(), w.hex()) for v, w in one_window]
        assert calls == [2]  # both windows; max x1 is the kept one
        theta = DEMO.alpha1 / DEMO.alpha2
        margins = [(low - (theta + 1e-9 * theta)) / theta for low, _ in one_window]
        k = int(np.argmin(margins))
        assert (res.margin, res.location) == (margins[k], one_window[k][1])
        assert res.detail.startswith("2 qualifying excursion(s)")

    def test_margin_is_exact_minimum_of_product(self):
        # the margin is that of xdot1 < -1e-9*alpha1 at the smallest x1*x4
        # on any window [start+T0, end]; no point of a fine grid goes lower
        x0 = State.from_sequence([10.0, 0.0, 0.0, 0.0])
        traj = integrate(DEMO, x0, 30.0)
        cert = dataclasses.replace(certificate(DEMO, x0), T0=0.2)
        res = check_excursion_lemma(traj, DEMO, cert)
        grid_min = np.inf
        for e in excursions_above(traj, cert.L_used):
            if e.duration >= cert.T0:
                x = traj.at(np.arange(e.start + cert.T0, e.end, 1e-4))
                grid_min = min(grid_min, (x[:, 0] * x[:, 3]).min())
        a1, a2 = DEMO.alpha1, DEMO.alpha2
        grid_margin = (a2 * grid_min - a1 - 1e-9 * a1) / a1
        assert "qualifying" in res.detail and np.isfinite(grid_min)
        assert grid_margin - 1e-6 <= res.margin <= grid_margin + 1e-12
        x = traj.at(res.location)
        assert (a2 * x[0] * x[3] - a1 - 1e-9 * a1) / a1 == pytest.approx(res.margin, abs=1e-12)


# draws 148 and 196 of default_rng(3), rates log-uniform in FORMULA_FUZZ_RANGE drawn
# before x0 uniform in [0, 10]^4: the lemma and the cascade hold on a qualifying excursion
NON_VACUOUS_WITNESSES = {
    "draw148": (
        (0.013646092742851444, 0.13396150094655873, 98.53785938448311, 0.3361480793433251,
         20.051288212808796, 28.13115132666571, 1.443664797455707, 21.101692858600995),
        (2.1430696586293063, 0.7646574499136372, 2.0491310486491465, 0.96724835803917),
    ),
    "draw196": (
        (0.1975638828474043, 0.13994396070606802, 71.46286282027057, 19.81098134365479,
         12.468170895538405, 2.2418410019842914, 24.130006246447824, 34.051164246981756),
        (5.7993625283217565, 4.102679623520567, 2.7685337677286324, 5.3611327566764135),
    ),
}


@pytest.mark.parametrize("rates, x0", NON_VACUOUS_WITNESSES.values(), ids=NON_VACUOUS_WITNESSES)
def test_lemma_and_cascade_pass_non_vacuously(rates, x0):
    report = build_report(Params.from_sequence(rates), State.from_sequence(x0), horizon=50.0)
    checks = {c.name: c for c in report.checks}
    for name in ("excursion_lemma", "cascade_lower_bounds"):
        res = checks[name]
        assert res.status == "pass", res.detail
        assert res.margin > 0.0
        assert "vacuous" not in res.detail
        assert res.detail.startswith("1 qualifying excursion(s)")


def test_lemma_margin_is_headroom_over_theta():
    # the lemma's margin is (min p - bound)/theta with bound = theta + 1e-9*theta,
    # bit for bit; on draw148 the form (a2*min p - a1 - 1e-9*a1)/a1 rounds one
    # ulp apart, so this case tells the two forms apart
    rates, x0 = NON_VACUOUS_WITNESSES["draw148"]
    p, x0 = Params.from_sequence(rates), State.from_sequence(x0)
    traj, cert = integrate(p, x0, 50.0), certificate(p, x0)
    res = check_excursion_lemma(traj, p, cert)
    (e,) = [e for e in excursions_above(traj, cert.L_used) if e.duration >= cert.T0]
    ((low, t_low),) = traj.extrema([("min", "p", e.start + cert.T0, e.end)])
    theta = p.alpha1 / p.alpha2
    bound = theta + 1e-9 * theta
    assert (res.margin.hex(), res.location) == (((low - bound) / theta).hex(), t_low)
    a1, a2 = p.alpha1, p.alpha2
    other = (a2 * low - a1 - 1e-9 * a1) / a1
    assert other != res.margin and abs(other - res.margin) <= math.ulp(res.margin)


class TestCascadeLowerBounds:
    def test_short_excursion_is_not_applicable(self):
        x0 = State.from_sequence([10.0, 0.0, 0.0, 0.0])
        traj = integrate(DEMO, x0, 30.0)
        exc = excursions_above(traj, 1.75)[0]
        res = check_cascade_lower_bounds(traj, DEMO, 1.75, exc)
        assert res.status == "not-applicable"
        assert exc.duration < tau(DEMO, 1.75)

    def test_low_level_excursions_satisfy_every_floor(self, demo_traj):
        # levels below the certified threshold still obey the cascade
        # floors; the demo oscillation gives 13 long excursions at 0.2
        exc = excursions_above(demo_traj, 0.2)
        window = tau(DEMO, 0.2)
        applicable = [e for e in exc if e.duration >= window]
        assert len(applicable) == 13
        for e in applicable:
            res = check_cascade_lower_bounds(demo_traj, DEMO, 0.2, e)
            assert res.status == "pass", res.detail
            assert res.margin > 0.0

    def test_dip_between_window_grid_points_fails(self):
        # x2 sits on its equilibrium value 1 except at one node where it is
        # 0.4, below ell2(0.1) = 0.5; the node and its neighbours 0.001 away
        # lie strictly between two points of the old 0.005 window grid,
        # which therefore saw no violation
        eq = equilibrium(DEMO).as_tuple()
        s, dur, T0 = 0.0, 2.0, 1.0
        grid = window_grid(s + math.log(2.0), s + dur)  # the x2 stage's window
        t_dip = 0.5 * (grid[100] + grid[101])
        dip = (eq[0], 0.4, eq[2], eq[3])
        t = [0.0, t_dip - 0.001, t_dip, t_dip + 0.001, dur]
        traj = Trajectory.from_samples(DEMO, t, [eq, eq, dip, eq, eq])
        assert traj.at(grid)[:, 1].min() >= ell2(DEMO, 0.1)
        res = check_cascade_lower_bounds(traj, DEMO, 0.1, Excursion(0.1, s, dur), T0=T0)
        assert res.status == "fail"
        assert t_dip - 0.001 < res.location < t_dip + 0.001
        ((low, _),) = traj.extrema([("min", "x2", None, None)])
        assert res.margin == pytest.approx((low - 0.5) / 0.5, rel=1e-12)
        assert res.margin < -0.2

    @pytest.mark.parametrize("T0", [0.0, math.inf, -1.0, math.nan], ids=["zero", "inf", "negative", "nan"])
    def test_given_waiting_time_must_be_finite_and_positive(self, demo_traj, T0):
        e = next(e for e in excursions_above(demo_traj, 0.2) if e.duration >= tau(DEMO, 0.2))
        with pytest.raises(ValueError, match=r"^T0 must be finite and > 0, got "):
            check_cascade_lower_bounds(demo_traj, DEMO, 0.2, e, T0=T0)

    def test_record_is_the_worst_excursion_bit_for_bit(self, demo_traj):
        # the record judges all 13 excursions together; it must read as the
        # first worst of the 13 records judged one by one
        cert = dataclasses.replace(certificate(DEMO, State.zero()), L_used=0.2, T0=tau(DEMO, 0.2))
        qualifying = [e for e in excursions_above(demo_traj, 0.2) if e.duration >= cert.T0]
        results = [check_cascade_lower_bounds(demo_traj, DEMO, 0.2, e, T0=cert.T0) for e in qualifying]
        worst = min(results, key=lambda r: r.margin)
        res = build_report(DEMO, State.zero(), cert=cert, traj=demo_traj).checks[2]
        assert len(results) == 13
        assert (res.name, res.status, res.margin.hex(), res.location, res.detail) == (
            "cascade_lower_bounds",
            worst.status,
            worst.margin.hex(),
            worst.location,
            f"13 qualifying excursion(s); worst: {worst.detail}",
        )

    def test_record_names_the_excursion_with_the_dip(self):
        # x1 at its equilibrium 0.1, above L_used = 0.09 but for two dips to
        # 0.05, makes two excursions; x2 dips to 0.3, below ell2(0.09) = 0.45,
        # only inside the second, whose record is the worst
        eq = equilibrium(DEMO).as_tuple()
        low, dip = (0.05, *eq[1:]), (eq[0], 0.3, *eq[2:])
        t = [0.0, 0.5, 3.0, 3.5, 4.0, 5.999, 6.0, 6.001, 8.0]
        traj = Trajectory.from_samples(DEMO, t, [low, eq, eq, low, eq, eq, dip, eq, eq])
        cert = dataclasses.replace(certificate(DEMO, State.from_sequence(low)), L_used=0.09, T0=1.0)
        first, second = excursions_above(traj, 0.09)
        assert check_cascade_lower_bounds(traj, DEMO, 0.09, first, T0=1.0).status == "pass"
        res = build_report(DEMO, low, cert=cert, traj=traj).checks[2]
        assert res.status == "fail" and res.margin < -0.3
        assert second.start < 5.999 < res.location < 6.001 < second.end
        assert res.detail.startswith(
            f"2 qualifying excursion(s); worst: excursion [{second.start:.6g}, {second.end:.6g}]: "
        )
        assert "x2>=ell2 margin -0.333" in res.detail

    def test_overstated_floor_fails(self, demo_traj):
        # widen the window beyond the excursion: not applicable again
        e = excursions_above(demo_traj, 0.2)[0]
        res = check_cascade_lower_bounds(demo_traj, DEMO, 0.2, e, T0=e.duration + 1.0)
        assert res.status == "not-applicable"


class TestWDecrease:
    def test_vacuous_on_the_demo_has_no_margin(self, demo_traj):
        # W stays below gamma on the demo: the record passes with no margin
        # and no location, as the vacuous lemma does; the rate identities
        # are the propositions' fact W identity, not a trajectory margin
        cert = certificate(DEMO, State.zero())
        res = check_W_decrease(demo_traj, DEMO, cert)
        assert (res.status, res.margin, res.location) == ("pass", None, None)
        assert res.detail == f"W never above gamma {cert.gamma:.6g}; decrease part vacuous"

    def test_decrease_from_high_start(self):
        x0 = State.from_sequence([0.0, 0.0, 0.0, 100.0])
        traj = integrate(DEMO, x0, 30.0)
        res = check_W_decrease(traj, DEMO, certificate(DEMO, x0))
        assert res.status == "pass"
        assert "above gamma" in res.detail

    def test_decrease_from_a_start_just_above_gamma(self):
        # W0 = 60 > gamma = 58.8: W leaves its stretch above gamma at t ~ 1.2,
        # and the rate part is checked on that stretch, not vacuous
        x0 = State.from_sequence([0.0, 0.0, 0.0, 60.0])
        traj = integrate(DEMO, x0, 30.0)
        cert = certificate(DEMO, x0)
        assert cert.W0 > cert.gamma
        res = check_W_decrease(traj, DEMO, cert)
        assert res.status == "pass" and res.margin >= 0.0
        assert f"W above gamma {cert.gamma:.6g}" in res.detail and "vacuous" not in res.detail

    def test_understated_funnel_level_fails(self, demo_traj):
        cert = certificate(DEMO, State.zero())
        bad = dataclasses.replace(cert, gamma=1.0)
        res = check_W_decrease(demo_traj, DEMO, bad)
        assert res.status == "fail"

    def test_rise_above_gamma_between_nodes_fails(self):
        # W sits 0.01 below gamma at the last two nodes, but the slopes
        # there (+10 and -10) lift the Hermite piece between them up to
        # gamma + 0.015, where x4 < K and so W still climbs
        x0 = State.from_sequence([1.0, 0.0, 0.0, 0.0])
        cert = certificate(DEMO, x0)
        g = cert.gamma
        y = [[1.0, 0.0, 0.0, 0.0], [1.0, g - 0.01, 0.0, 0.0], [1.0, g - 0.01 - 2 / 3, 0.0, 2 / 3]]
        traj = Trajectory.from_samples(DEMO, [0.0, 1.0, 1.1], y)
        dc = DerivedConstants.from_params(DEMO)
        assert (dc.W(traj.y[:, 1], traj.y[:, 2], traj.y[:, 3]) < g).all()
        res = check_W_decrease(traj, DEMO, cert)
        assert res.status == "fail"
        assert 1.0 < res.location < 1.1

    def test_rate_above_gamma_is_the_interpolant_maximum(self, demo_traj):
        # with gamma understated, the largest Wdot where W > gamma must be
        # the maximum over the interpolant, not over the nodes
        cert = dataclasses.replace(certificate(DEMO, State.zero()), gamma=1.0)
        res = check_W_decrease(demo_traj, DEMO, cert)
        top = 1e-9 - res.margin
        dc = DerivedConstants.from_params(DEMO)

        def rate_above(v):
            rate = DEMO.alpha8 * v[:, 0] * (dc.K - v[:, 3])
            return rate[dc.W(v[:, 1], v[:, 2], v[:, 3]) > 1.0].max()

        at_nodes = rate_above(demo_traj.y)
        on_grid = rate_above(demo_traj.at(np.arange(0.0, 100.0, 1e-4)))
        assert top >= max(at_nodes, on_grid)
        assert top - on_grid <= 1e-6 * top
        assert top > at_nodes
        x = demo_traj.at(res.location)
        assert DEMO.alpha8 * x[0] * (dc.K - x[3]) == pytest.approx(top, rel=1e-12)


def spy_stretch_searches(monkeypatch):
    """Spy on the stretches_above that verify calls: (observable, level) of each search."""
    calls = []
    find = aifcert.verify.stretches_above

    def spy(traj, observable, level):
        calls.append((observable, level))
        return find(traj, observable, level)

    monkeypatch.setattr(aifcert.verify, "stretches_above", spy)
    return calls


def W_bound(traj):
    """c*max x2 + d*max x3 + max x4 from the trajectory's kept maxima."""
    return DerivedConstants.from_params(traj.params).W(*(top for top, _ in traj.maxima[1:]))


class TestWDecreaseSkip:
    """W_decrease skips its stretch search only where the maxima bound W below gamma."""

    @pytest.mark.parametrize("draw", [0, 2, 3, 5, 6, 8, 11, 13])
    def test_skip_gives_the_searched_record(self, monkeypatch, draw):
        # short sweep-like runs whose bound lies below gamma (draw 1's lies
        # above it): the record is the one the search gives, which
        # _W_SLACK = 1 forces (no bound is below gamma - gamma = 0)
        rng = np.random.default_rng(draw)
        p, x0 = random_params(rng, *SIMULATION_FUZZ_RANGE), random_state(rng)
        traj, cert = integrate(p, x0, 20.0), certificate(p, x0)
        assert W_bound(traj) < cert.gamma * (1.0 - 1e-3)
        calls = spy_stretch_searches(monkeypatch)
        skipped = check_W_decrease(traj, p, cert)
        assert calls == [] and "decrease part vacuous" in skipped.detail
        monkeypatch.setattr(aifcert.verify, "_W_SLACK", 1.0)
        searched = check_W_decrease(traj, p, cert)
        assert calls == [("W", cert.gamma)]
        assert _bitwise(skipped) == _bitwise(searched)

    def test_gamma_between_the_true_maximum_and_the_bound_searches(self, demo_traj, monkeypatch):
        # x2, x3 and x4 peak at different times, so the bound lies above W's
        # own maximum: a gamma between them runs the search, which finds no stretch
        W_top = demo_traj.extrema([("max", "W", None, None)])[0][0]
        bound = W_bound(demo_traj)
        assert W_top < bound * (1.0 - 1e-3)
        cert = dataclasses.replace(certificate(DEMO, State.zero()), gamma=0.5 * (W_top + bound))
        calls = spy_stretch_searches(monkeypatch)
        res = check_W_decrease(demo_traj, DEMO, cert)
        assert calls == [("W", cert.gamma)]
        assert res.status == "pass" and res.location is None
        assert res.detail.endswith("decrease part vacuous")

    @pytest.mark.parametrize("over, searched", [(0.0, True), (0.5, True), (0.99, True), (2.0, False)])
    def test_bound_within_the_slack_searches(self, demo_traj, monkeypatch, over, searched):
        # gamma at the bound times 1 + over*_W_SLACK: within the slack (over < 1) the
        # search runs, beyond it (over = 2) it is skipped
        gamma = W_bound(demo_traj) * (1.0 + over * aifcert.verify._W_SLACK)
        cert = dataclasses.replace(certificate(DEMO, State.zero()), gamma=gamma)
        calls = spy_stretch_searches(monkeypatch)
        res = check_W_decrease(demo_traj, DEMO, cert)
        assert calls == ([("W", gamma)] if searched else [])
        assert res.status == "pass" and "decrease part vacuous" in res.detail


class TestPropositions:
    def test_demo(self):
        res = check_propositions(DEMO)
        assert res.status == "pass"
        assert res.margin > 0.0

    def test_unit_rates(self):
        assert check_propositions(Params.from_sequence([1.0] * 8)).status == "pass"

    def test_fuzzed(self):
        res = check_propositions(DEMO, fuzz_count=100, fuzz_seed=1729)
        assert res.status == "pass"
        assert "0 failure(s)" in res.detail

    @pytest.mark.parametrize("rates", [
        (300, 1, 1, 0.005, 1, 0.005, 1, 300),
        (1, 1, 1, 1, 1, 1, 1, 1e-4),
        (1e-12, 3e-11, 1e-11, 1e-12, 1e-12, 1e-12, 1e-12, 3e-11),
        (1e9, 3e10, 1e10, 1, 1, 1, 1, 3e10),
    ], ids=["flat-tau", "slow-alpha8", "slow-time", "small-x1"])
    def test_no_fact_rests_on_fixed_levels(self, rates):
        # each failed a level probe (tau falling between grid levels, or
        # reaching psi1 by 1e9) by rounding or by the units of the levels
        res = check_propositions(Params.from_sequence(rates))
        assert res.status == "pass" and res.margin > 0.99

    @pytest.mark.parametrize("rates, floor", [
        ((1, 1e-300, 1, 1e-300, 1, 1, 1, 1), math.inf),
        ((1, 1e300, 1e-300, 1e-300, 1, 1, 1, 1e150), 0.0),
    ], ids=["overflow", "underflow"])
    def test_ell4_out_of_range_at_L_star_fails(self, rates, floor):
        # L* and tau there are finite, but K*L* overflows, or K*L*/(8*U) underflows
        p = Params.from_sequence(rates)
        L = solve_L_star(p)
        assert ell4(p, L, tau(p, L)) == floor
        res = check_propositions(p)
        assert (res.status, res.margin, res.location) == ("fail", -math.inf, L)
        assert res.detail.startswith("ell4 finite and positive failed (margin -inf); threshold residual failed")
        assert _bitwise(res) == _bitwise(check_propositions_loop(p))

    @pytest.mark.parametrize("call", [check_propositions, lambda p: build_report(p, State.zero())],
                             ids=["check_propositions", "build_report"])
    def test_L_star_out_of_range_is_a_certificate_error(self, call):
        with pytest.raises(CertificateError, match=r"L\* is out of floating-point range for rates \(1e\+200, "):
            call(Params(1e200, 1, 1, 1, 1, 1, 1, 1))

    def test_negative_fuzz_count_rejected(self):
        with pytest.raises(ValueError, match="fuzz"):
            check_propositions(DEMO, fuzz_count=-3)

    @pytest.mark.parametrize("count", [0.9, 2.5, True, math.nan])
    def test_fuzz_count_must_be_an_int(self, count):
        with pytest.raises(ValueError, match="fuzz"):
            check_propositions(DEMO, fuzz_count=count)

    def test_fuzz_count_may_be_a_numpy_integer(self):
        report = build_report(DEMO, State.zero(), horizon=1.0, fuzz_count=np.int64(2))
        assert report.checks[-1] == check_propositions(DEMO, fuzz_count=2)

    @pytest.mark.parametrize(
        "seed", [None, "x", 2.5, -1, True], ids=["None", "str", "float", "negative", "bool"]
    )
    def test_fuzz_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match=r"fuzz_seed must be a non-negative integer, got"):
            check_propositions(DEMO, 5, seed)

    def test_fuzz_seed_is_read_only_for_fuzz(self):
        assert check_propositions(DEMO, 0, None) == check_propositions(DEMO)
        assert check_propositions(DEMO, 5, np.int64(3)) == check_propositions(DEMO, 5, 3)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(rates=st.tuples(*[st.floats(*FORMULA_FUZZ_RANGE)] * 8), fuzz=st.sampled_from([0, 7]))
    @example(rates=(100, 1, 1, 0.01, 1, 0.01, 1, 100), fuzz=0)
    @example(rates=(100, 1, 1, 0.01, 1, 0.01, 1, 100), fuzz=7)
    @example(rates=(300, 1, 1, 0.005, 1, 0.005, 1, 300), fuzz=0)
    @example(rates=(300, 1, 1, 0.005, 1, 0.005, 1, 300), fuzz=7)
    def test_one_table_pass_matches_loop_form_bitwise(self, rates, fuzz):
        p = Params.from_sequence(rates)
        assert _bitwise(check_propositions(p, fuzz, 11)) == _bitwise(check_propositions_loop(p, fuzz, 11))

    @pytest.mark.parametrize("seed", [0, 31, 1729])
    @pytest.mark.parametrize("fuzz", [0, 7, 50, 100])
    @pytest.mark.parametrize("rates", ["demo", "unit"])
    def test_matches_loop_form_bitwise(self, rates, fuzz, seed):
        p = DEMO if rates == "demo" else Params.from_sequence([1.0] * 8)
        res = check_propositions(p, fuzz_count=fuzz, fuzz_seed=seed)
        assert _bitwise(res) == _bitwise(check_propositions_loop(p, fuzz, seed))

    @pytest.mark.parametrize("fuzz", [0, 7])
    @pytest.mark.parametrize("bounds", [FORMULA_FUZZ_RANGE, SIMULATION_FUZZ_RANGE])
    def test_drawn_sets_match_loop_form_bitwise(self, bounds, fuzz):
        rng = np.random.default_rng(2024)
        for seed in range(25):
            p = random_params(rng, *bounds)
            res = check_propositions(p, fuzz_count=fuzz, fuzz_seed=seed)
            assert _bitwise(res) == _bitwise(check_propositions_loop(p, fuzz, seed))

    def test_one_draw_call_is_the_random_params_stream(self):
        # check_propositions draws every fuzzed set in one call; the rates
        # are those of random_params called once per set, bit for bit
        lo, hi = FORMULA_FUZZ_RANGE
        for seed in (0, 7, 1729):
            rng = np.random.default_rng(seed)
            one_by_one = np.array([random_params(rng, lo, hi).as_tuple() for _ in range(60)])
            draws = np.random.default_rng(seed).uniform(math.log(lo), math.log(hi), (60, 8))
            assert np.exp(draws).tobytes() == one_by_one.tobytes()

    @pytest.mark.parametrize("chunk", [1, 4, 50])
    def test_chunked_passes_match_loop_form_bitwise(self, monkeypatch, chunk):
        # 51 rate sets in passes of at most `chunk`: the fold runs across passes
        monkeypatch.setattr(aifcert.verify, "_CHUNK", chunk)
        res = check_propositions(DEMO, fuzz_count=50, fuzz_seed=1729)
        assert _bitwise(res) == _bitwise(check_propositions_loop(DEMO, 50, 1729))

    def test_tampered_weight_breaks_W_identity(self, monkeypatch):
        # c off by 1e-9 relative breaks c*a4 = d*a5 and c*a3 = a8*K
        exact = DerivedConstants.from_params.__func__

        def tampered(cls, p):
            dc = exact(cls, p)
            return dataclasses.replace(dc, c=dc.c * (1.0 + 1e-9))

        monkeypatch.setattr(DerivedConstants, "from_params", classmethod(tampered))
        res = check_propositions(DEMO)
        assert res.status == "fail" and res.margin < 0.0
        assert res.detail.startswith("W identity failed (margin ")
        assert _bitwise(res) == _bitwise(check_propositions_loop(DEMO))

    def test_W_identity_holds_on_20000_drawn_sets(self):
        # the audit: the rate identities hold to rounding on every set drawn
        # across FORMULA_FUZZ_RANGE, far inside 1e-12
        lo, hi = (math.log(b) for b in FORMULA_FUZZ_RANGE)
        rates = np.exp(np.random.default_rng(1729).uniform(lo, hi, (20_000, 8)))
        k = aifcert.verify._FACTS.index("W identity")
        for chunk in np.split(rates, 20):
            holds, margin, _ = aifcert.verify._propositions(chunk)
            assert holds[:, k].all() and margin[:, k].min() >= 0.999

    def test_some_fuzzed_sets_failing_fails(self, monkeypatch):
        # tau off by 1e-9 relative only for the sets with alpha4 < 0.05 breaks
        # their fixed-point residual; the demo rates (alpha4 = 1) keep theirs
        def off(p, L):
            return tau(p, L) * np.where(p.alpha4 < 0.05, 1.0 + 1e-9, 1.0)

        monkeypatch.setattr(aifcert.verify, "tau", off)
        monkeypatch.setattr(propositions_loop, "tau", off)
        res = check_propositions(DEMO, fuzz_count=50, fuzz_seed=1729)
        ref = check_propositions_loop(DEMO, 50, 1729)
        failures = r"fuzz x50 \(seed 1729\): (\d+) failure\(s\)$"
        k = int(re.search(failures, res.detail).group(1))
        assert res.detail.startswith("all facts hold; ")
        assert 0 < k == int(re.search(failures, ref.detail).group(1))
        assert res.status == "fail"
        assert _bitwise(res) == _bitwise(ref)
        lo, hi = (math.log(b) for b in FORMULA_FUZZ_RANGE)
        drawn = np.exp(np.random.default_rng(1729).uniform(lo, hi, (50, 8)))
        holds, _, _ = aifcert.verify._propositions(drawn)
        k = aifcert.verify._FACTS.index("fixed-point residual")
        assert (~holds[:, k]).tolist() == (drawn[:, 3] < 0.05).tolist()

def _bitwise(res):
    """A CheckResult's fields, its floats by their exact bits."""
    def bits(x):
        return None if x is None else float(x).hex()

    return res.name, res.status, bits(res.margin), bits(res.location), res.detail


class TestReport:
    def test_demo_report_all_pass(self):
        rep = build_report(DEMO, State.zero(), horizon=100.0)
        assert rep.all_passed
        assert [c.name for c in rep.checks].count("cascade_lower_bounds") == 1
        assert {c.name for c in rep.checks} == CHECK_NAMES
        by_name = {c.name: c for c in rep.checks}
        assert by_name["global_bounds"].status == "pass"
        assert by_name["cascade_lower_bounds"].status == "not-applicable"

    def test_equilibrium_start_is_trivial(self):
        eq = equilibrium(DEMO)
        rep = build_report(DEMO, eq, horizon=10.0)
        assert rep.all_passed

    def test_reuses_supplied_trajectory(self, demo_traj):
        rep = build_report(DEMO, State.zero(), horizon=100.0, traj=demo_traj)
        assert rep.all_passed

    def test_provenance_mismatch_rejected(self, demo_traj):
        other = certificate(DEMO, State.from_sequence([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="provenance"):
            build_report(DEMO, State.zero(), horizon=10.0, cert=other, traj=demo_traj)

    def test_level_override_propagates(self):
        rep = build_report(DEMO, State.zero(), horizon=20.0, L_override=1.75)
        assert rep.certificate.L_used == 1.75

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a certificate or integrated before checking the arguments")

        monkeypatch.setattr(aifcert.verify, "certificate", refuse)
        monkeypatch.setattr(aifcert.verify, "integrate", refuse)

    @pytest.mark.parametrize(
        "fuzz, seed, message",
        [(2.5, 0, "fuzz must be"), (3, -1, "fuzz_seed must be"), (3, "x", "fuzz_seed must be")],
        ids=["count", "negative-seed", "str-seed"],
    )
    def test_fuzz_arguments_checked_before_any_work(self, no_work, fuzz, seed, message):
        with pytest.raises(ValueError, match=message):
            build_report(DEMO, State.zero(), horizon=100.0, fuzz_count=fuzz, fuzz_seed=seed)

    @pytest.mark.parametrize(
        "rates, x0", [(DEMO, (1.0, 0.0, 0.0, 0.0)), (dataclasses.replace(DEMO, alpha1=2.0), (0.0,) * 4)],
        ids=["other-x0", "other-rates"],
    )
    def test_certificate_checked_before_integrating(self, rates, x0, request):
        cert = certificate(rates, State.from_sequence(x0))
        request.getfixturevalue("no_work")
        with pytest.raises(ValueError, match="certificate provenance does not match the trajectory"):
            build_report(DEMO, State.zero(), horizon=100.0, cert=cert)

    def test_json_shape(self):
        rep = build_report(DEMO, State.zero(), horizon=20.0)
        obj = rep.to_json()
        assert set(obj) == {"params", "x0", "certificate", "checks", "all_passed"}
        assert obj["all_passed"] is True
        assert [c["name"] for c in obj["checks"]] == [c.name for c in rep.checks]
        json.dumps(obj)  # must be serializable as-is

    def test_deterministic_across_runs(self):
        a = build_report(DEMO, State.zero(), horizon=20.0, fuzz_count=25, fuzz_seed=7)
        b = build_report(DEMO, State.zero(), horizon=20.0, fuzz_count=25, fuzz_seed=7)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


class TestProvenance:
    """Rates or a start other than the trajectory's own are rejected, not mixed into a record."""

    OTHER = dataclasses.replace(DEMO, alpha1=2.0)

    def test_lemma_rejects_other_rates(self, demo_traj):
        cert = certificate(DEMO, State.zero())
        with pytest.raises(ValueError, match="rate constants do not match"):
            check_excursion_lemma(demo_traj, self.OTHER, cert)

    def test_cascade_rejects_other_rates(self, demo_traj):
        e = next(e for e in excursions_above(demo_traj, 0.2) if e.duration >= tau(DEMO, 0.2))
        with pytest.raises(ValueError, match="rate constants do not match"):
            check_cascade_lower_bounds(demo_traj, self.OTHER, 0.2, e)

    def test_W_decrease_rejects_other_rates(self, demo_traj):
        cert = certificate(DEMO, State.zero())
        with pytest.raises(ValueError, match="rate constants do not match"):
            check_W_decrease(demo_traj, self.OTHER, cert)

    def test_report_rejects_other_rates(self, demo_traj):
        # certificate and trajectory agree with each other, not with p
        cert = certificate(DEMO, State.zero())
        with pytest.raises(ValueError, match="rate constants do not match"):
            build_report(self.OTHER, State.zero(), cert=cert, traj=demo_traj)

    def test_report_rejects_other_x0(self, demo_traj):
        cert = certificate(DEMO, State.zero())
        with pytest.raises(ValueError, match="x0 does not match"):
            build_report(DEMO, State.from_sequence([1.0, 0.0, 0.0, 0.0]), cert=cert, traj=demo_traj)


class TestFuzzHelpers:
    def test_random_params_within_range(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = random_params(rng, 1e-2, 1e2)
            assert all(1e-2 <= a <= 1e2 for a in p.as_tuple())

    def test_random_state_nonnegative(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            s = random_state(rng)
            assert all(0.0 <= v <= 2.0 for v in s.as_tuple())


# Each trajectory check's fail rule, and each case boundary, pinned at its
# edge.  A fail rule is tried at its floor and one ulp either side, on a
# trajectory rebuilt from a few samples whose worst point is a node, so the
# check reads that node's value exactly.  The case boundaries are an
# excursion lasting exactly the waiting time, L_used equal to max x1, a
# stretch of W above gamma of length 0, and build_report's default horizon.

DC = DerivedConstants.from_params(DEMO)


def ulps(x, k):
    """x moved k ulps up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def rising_x1(top):
    """x1 rising from top/2 to top over [0, 1] (xdot1 = 1 at both nodes): max x1 is top, at t = 1."""
    traj = Trajectory.from_samples(DEMO, [0.0, 1.0], [[top / 2, 1.0, 1.0, 0.0], [top, 1.0, 1.0, 0.0]])
    assert traj.maxima[0] == (top, 1.0)
    return traj


class TestGlobalBoundsEdge:
    """A component fails at a margin (M - max)/M below -1e-6."""

    @pytest.mark.parametrize("k", [-4, -1, 0, 1, 4])
    def test_at_and_around_the_limit(self, k):
        # at M = 2 the maximum fl(M + 1e-6*M) has a margin of at least -1e-6
        # and passes; one to four ulps above it fails, below it passes
        M = 2.0
        traj = rising_x1(ulps(M + 1e-6 * M, k))
        cert = dataclasses.replace(certificate(DEMO, traj.x0), M1=M)
        res = check_global_bounds(traj, cert)
        assert res.status == ("fail" if k > 0 else "pass")
        assert res.margin == (M - traj.maxima[0][0]) / M
        if k > 0:
            assert res.detail.startswith("bound exceeded: ") and 0.0 < res.location <= 1.0

    @pytest.mark.parametrize("k", [-4, -1, 1, 4])
    def test_both_sides_of_the_declared_edge(self, k):
        # at M = 1.2 the maximum fl(M + 1e-6*M) has a margin below -1e-6;
        # one to four ulps either side, the verdict is the one at M = 2
        M = 1.2
        traj = rising_x1(ulps(M + 1e-6 * M, k))
        cert = dataclasses.replace(certificate(DEMO, traj.x0), M1=M)
        assert check_global_bounds(traj, cert).status == ("fail" if k > 0 else "pass")

    def test_a_maximum_at_the_limit_whose_margin_is_below_the_floor_fails(self):
        # the declared edge: max x1 = fl(M + 1e-6*M) exactly, whose margin
        # (M - max)/M rounds below -1e-6 at M = 1.2 (for about half of all M)
        M = 1.2
        traj = rising_x1(M + 1e-6 * M)
        assert (M - traj.maxima[0][0]) / M < -1e-6
        cert = dataclasses.replace(certificate(DEMO, traj.x0), M1=M)
        res = check_global_bounds(traj, cert)
        assert (res.status, res.location) == ("fail", 1.0)


def product_floor_trajectory(low):
    """x1 = 2 on [0, 2], where p = x1*x4 is low at t = 1 and rises to 2 at t = 2.

    With L_used = 1 and T0 = 1 the one excursion is [0, 2], its window
    [1, 2], and min p on it is the node value 2*(low/2) = low at t = 1.
    """
    y = [[2.0, 1.0, 2.0, low / 2], [2.0, 1.0, 2.0, low / 2], [2.0, 1.0, 2.0, 1.0]]
    traj = Trajectory.from_samples(DEMO, [0.0, 1.0, 2.0], y)
    assert traj.extrema([("min", "p", 1.0, 2.0)]) == [(low, 1.0)]
    return traj


class TestExcursionLemmaEdge:
    """The lemma's claim is strict: a margin of exactly 0 fails."""

    @pytest.mark.parametrize("k, status", [(-1, "fail"), (0, "fail"), (1, "pass")])
    def test_min_product_at_the_bound(self, k, status):
        bound = DC.theta + 1e-9 * DC.theta
        traj = product_floor_trajectory(ulps(bound, k))
        cert = dataclasses.replace(certificate(DEMO, traj.x0), L_used=1.0, T0=1.0)
        res = check_excursion_lemma(traj, DEMO, cert)
        assert (res.status, res.location) == (status, 1.0)
        assert (res.margin > 0.0, res.margin == 0.0) == (k > 0, k == 0)


def stage_floor_trajectory(low):
    """x2 falling like 5 + (x2(0) - 5)*exp(-t) to low at t = 2, its minimum on [0, 2].

    x1 = 0.5 and x4 = 1/15 keep x1 nearly still; x3 = x2 stays above ell3.
    """
    t = np.linspace(0.0, 2.0, 9)
    x2 = 5.0 + (low - 5.0) * np.exp(2.0 - t)
    x2[-1] = low
    traj = Trajectory.from_samples(DEMO, t, np.column_stack([np.full(9, 0.5), x2, x2, np.full(9, 1 / 15)]))
    assert traj.extrema([("min", "x2", math.log(2.0), 2.0)]) == [(low, 2.0)]
    return traj


def floor_instance():
    """(L, min x2) at which the x2 stage's margin (min x2 - ell2(L))/ell2(L) is exactly -1e-9.

    With ell2(L) = m*u, u the ulp of [8, 16), and min x2 = (m - k)*u, the
    margin is fl(-k/m): a k whose nearest m gives -1e-9, and an L whose
    ell2 is m*u, are found by trying k in turn.
    """
    u = 2.0**-49
    for k in range(5_000_000, 5_001_000):
        m = round(k / 1e-9)
        L = m * u / 5.0  # ell2(L) = alpha3*L/(2*alpha4) = 5*L
        if ell2(DEMO, L) == m * u and ((m - k) * u - m * u) / (m * u) == -1e-9:
            return L, (m - k) * u
    raise AssertionError("no instance")


L_EDGE, AT_FLOOR = floor_instance()


class TestCascadeEdge:
    """A cascade stage fails at a margin below -1e-9."""

    @staticmethod
    def record(low):
        traj = stage_floor_trajectory(low)
        return check_cascade_lower_bounds(traj, DEMO, L_EDGE, Excursion(L_EDGE, 0.0, 2.0), T0=1.0)

    @pytest.mark.parametrize("k, status", [(-1, "fail"), (0, "pass"), (1, "pass")])
    def test_min_at_the_floor(self, k, status):
        low = ulps(AT_FLOOR, k)
        res = self.record(low)
        B = ell2(DEMO, L_EDGE)
        assert (res.status, res.margin, res.location) == (status, (low - B) / B, 2.0)
        assert (res.margin < -1e-9, res.margin == -1e-9) == (k < 0, k == 0)

    def test_margin_inside_the_allowance_passes(self):
        B = ell2(DEMO, L_EDGE)
        res = self.record(B - 0.5e-9 * B)
        assert res.status == "pass" and -1e-9 < res.margin < 0.0

    @pytest.mark.parametrize("shorter, status", [(False, "pass"), (True, "not-applicable")])
    def test_excursion_lasting_exactly_the_waiting_time(self, demo_traj, shorter, status):
        # an excursion lasting T0 is checked; one an ulp shorter than T0 is not applicable
        e = excursions_above(demo_traj, 0.2)[1]
        T0 = ulps(e.duration, 1) if shorter else e.duration
        assert (e.duration < T0) == shorter
        res = check_cascade_lower_bounds(demo_traj, DEMO, 0.2, e, T0=T0)
        assert res.status == status


class TestWDecreaseEdge:
    """W_decrease fails where its rate above gamma exceeds 1e-9 (a margin below 0)."""

    @staticmethod
    def rate_node(top):
        """x1 with 30*(x1*(K - x4)) = top at K - x4 = 0.25, the largest float x1 giving it."""
        x1 = top / 7.5
        while 30.0 * (x1 * 0.25) < top:
            x1 = ulps(x1, 1)
        while 30.0 * (x1 * 0.25) > top:
            x1 = ulps(x1, -1)
        assert 30.0 * (x1 * 0.25) == top
        return x1

    @pytest.mark.parametrize("k, status", [(-1, "pass"), (0, "pass"), (1, "fail")])
    def test_max_rate_at_the_bound(self, k, status):
        # x1 rises from 0 to x1e over [0, x1e] (xdot1 = 1 at both nodes), so W_rate =
        # alpha8*x1*(K - x4) is largest at the last node, where it is 1e-9 moved k ulps;
        # W > gamma = 1 throughout, so the stretch is the whole span
        top = ulps(1e-9, k)
        x1e, x4 = self.rate_node(top), DC.K - 0.25
        y = [[0.0, 1.0, 0.0, x4], [x1e, 1.0, 0.0, x4]]
        traj = Trajectory.from_samples(DEMO, [0.0, x1e], y)
        assert traj.extrema([("max", "W_rate", None, None)]) == [(top, x1e)]
        cert = dataclasses.replace(certificate(DEMO, traj.x0), gamma=1.0)
        res = check_W_decrease(traj, DEMO, cert)
        assert (res.status, res.margin, res.location) == (status, 1e-9 - top, x1e)

    def test_zero_length_stretch_is_vacuous(self):
        # W = x2 + x3 + x4 falls from 3 at t = 0 (x4 > K, so dW/dt < 0): with
        # gamma = 3 the stretch above gamma is [0, 0] and holds no rate obligation
        traj = Trajectory.from_samples(DEMO, [0.0, 1.0], [[0.01, 1.0, 1.0, 1.0], [0.01, 1.0, 1.0, 0.8]])
        assert stretches_above(traj, "W", 3.0) == [(0.0, 0.0)]
        cert = dataclasses.replace(certificate(DEMO, traj.x0), gamma=3.0)
        res = check_W_decrease(traj, DEMO, cert)
        assert (res.status, res.margin, res.location) == ("pass", None, None)
        assert res.detail == "W never above gamma 3; decrease part vacuous"


def weight_instance(error):
    """(r, c) with fl((c - r)/r) == error, r in [1, 2) and c - r a whole number of ulps.

    On Params(1, 1, 1, 1, 1, 1, r, 1), c = d = K = r, so with c tampered to
    that c the W identity's error is exactly error: c*a4 - d*a5 and
    c*a3 - a8*K are c - r, and d*a6 - a7 is 0.
    """
    u = 2.0**-52
    for m in range(4504, 9008):  # m*u/r is near 1e-12 for r in [1, 2)
        for r in (ulps(m * u / error, -1), m * u / error, ulps(m * u / error, 1)):
            if 1.0 <= r and r + m * u < 2.0 and (r + m * u - r) / r == error:
                return r, r + m * u
    raise AssertionError("no instance")


class TestPropositionsEdge:
    """A fact fails where its relative error exceeds 1e-12 (a margin below 0).

    The three facts share that one rule, so the W identity, whose error
    can be set exactly, pins it for all three.
    """

    @pytest.mark.parametrize("k, status", [(-1, "pass"), (0, "pass"), (1, "fail")])
    def test_error_at_the_allowance(self, monkeypatch, k, status):
        error = ulps(1e-12, k)
        r, c = weight_instance(error)
        exact = DerivedConstants.from_params.__func__
        monkeypatch.setattr(
            DerivedConstants, "from_params", classmethod(lambda cls, p: dataclasses.replace(exact(cls, p), c=c))
        )
        p = Params(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, r, 1.0)
        res = check_propositions(p)
        assert (res.status, res.margin, res.location) == (status, (1e-12 - error) / 1e-12, solve_L_star(p))
        assert (res.margin < 0.0, res.margin == 0.0) == (k > 0, k == 0)
        assert res.detail.startswith("W identity failed (margin ") == (k > 0)
        assert _bitwise(res) == _bitwise(check_propositions_loop(p))


class TestCaseBoundaries:
    """Which excursions qualify, what the records say at L_used = max x1, and the default horizon."""

    @pytest.mark.parametrize("shorter", [False, True])
    def test_excursion_lasting_exactly_T0_qualifies(self, demo_traj, shorter):
        # T0 set to the longest excursion's duration above 0.2: that one
        # excursion qualifies; with T0 an ulp longer none does
        longest = max(e.duration for e in excursions_above(demo_traj, 0.2))
        T0 = ulps(longest, 1) if shorter else longest
        cert = dataclasses.replace(certificate(DEMO, State.zero()), L_used=0.2, T0=T0)
        lemma, cascade = build_report(DEMO, State.zero(), cert=cert, traj=demo_traj).checks[1:3]
        if shorter:
            assert lemma.detail.startswith("vacuous: no excursion above L_used 0.2 lasted >= T0")
            assert cascade.status == "not-applicable"
        else:
            assert lemma.detail.startswith("1 qualifying excursion(s)")
            assert cascade.detail.startswith("1 qualifying excursion(s); worst: ")

    def test_L_used_at_max_x1(self):
        # x1 falls from 2 at t = 0 (xdot1 = 1 - 30*2*0.02 < 0): with L_used = 2
        # the excursion search runs and finds [0, 0], and the lemma says x1
        # never exceeded L_used
        traj = Trajectory.from_samples(DEMO, [0.0, 1.0], [[2.0, 1.0, 1.0, 0.02], [1.8, 1.0, 1.0, 0.02]])
        assert traj.maxima[0] == (2.0, 0.0)
        cert = dataclasses.replace(certificate(DEMO, traj.x0), L_used=2.0, T0=0.5)
        assert [(e.start, e.end) for e in excursions_above(traj, 2.0)] == [(0.0, 0.0)]
        lemma, cascade = build_report(DEMO, traj.x0, cert=cert, traj=traj).checks[1:3]
        assert lemma.detail == "vacuous: max x1 2 never exceeded L_used 2"
        assert cascade.detail.endswith("(1 excursion(s), longest 0)")

    def test_default_horizon_is_100(self, demo_traj):
        assert build_report(DEMO, State.zero()).to_json() == build_report(DEMO, State.zero(), traj=demo_traj).to_json()
