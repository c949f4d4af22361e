"""Integrator, dense output, events, excursions, CSV round-trips."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import DEMO, log_uniform

from aifcert import (
    IntegrationError,
    Params,
    State,
    Trajectory,
    excursions_above,
    field,
    first_hitting,
    integrate,
    propagate_fixed,
    read_trajectory_csv,
    vector_field,
    write_trajectory_csv,
)
from aifcert import simulate as sim


STIFF = Params.from_sequence((1.0, 1e4, 100.0, 1.0, 1.0, 1.0, 1.0, 1e4))


def _step_cases():
    cases = [
        ("demo", DEMO, (0.0, 0.0, 0.0, 0.0), 100.0),
        ("overshoot", DEMO, (10.0, 0.0, 0.0, 0.0), 30.0),
        ("stiff", STIFF, (0.0, 0.0, 0.0, 0.0), 3.0),
    ]
    rng = np.random.default_rng(34)
    for k in range(5):
        p = Params.from_sequence(log_uniform(rng, 0.1, 10.0, 8))
        cases.append((f"fuzz{k}", p, tuple(rng.uniform(0.0, 2.0, 4)), 20.0))
    return cases


def reference_dp54_step(f, y, h, k1):
    """Dormand-Prince step in loop form over the components."""
    k2 = f(tuple(y[i] + h * (sim._A21 * k1[i]) for i in range(4)))
    k3 = f(tuple(y[i] + h * (sim._A31 * k1[i] + sim._A32 * k2[i]) for i in range(4)))
    k4 = f(
        tuple(
            y[i] + h * (sim._A41 * k1[i] + sim._A42 * k2[i] + sim._A43 * k3[i])
            for i in range(4)
        )
    )
    k5 = f(
        tuple(
            y[i]
            + h * (sim._A51 * k1[i] + sim._A52 * k2[i] + sim._A53 * k3[i] + sim._A54 * k4[i])
            for i in range(4)
        )
    )
    k6 = f(
        tuple(
            y[i]
            + h
            * (
                sim._A61 * k1[i]
                + sim._A62 * k2[i]
                + sim._A63 * k3[i]
                + sim._A64 * k4[i]
                + sim._A65 * k5[i]
            )
            for i in range(4)
        )
    )
    y5 = tuple(
        y[i]
        + h
        * (sim._B1 * k1[i] + sim._B3 * k3[i] + sim._B4 * k4[i] + sim._B5 * k5[i] + sim._B6 * k6[i])
        for i in range(4)
    )
    return y5, (k1, k2, k3, k4, k5, k6, f(y5))


def scan_times_loop(traj, max_dt=sim._SCAN_DT):
    """Trajectory.scan_times written as a loop over the steps."""
    t = traj.t
    pieces = [t[:1]]
    for i in range(len(t) - 1):
        h = t[i + 1] - t[i]
        if h > max_dt:
            k = int(math.ceil(h / max_dt))
            pieces.append(t[i] + h * np.arange(1, k) / k)
        pieces.append(t[i + 1 : i + 2])
    return np.concatenate(pieces)


def scipy_reference(p, x0, horizon):
    def fun(_, y):
        return vector_field(p, tuple(y))

    return solve_ivp(
        fun,
        (0.0, horizon),
        list(x0.as_tuple() if isinstance(x0, State) else x0),
        method="RK45",
        rtol=1e-10,
        atol=1e-12,
        dense_output=True,
    )


class TestIntegrate:
    def test_matches_scipy_reference(self, demo_traj):
        ref = scipy_reference(DEMO, State.zero(), 100.0)
        grid = np.linspace(0.0, 100.0, 501)
        diff = np.abs(demo_traj.at(grid) - ref.sol(grid).T).max()
        assert diff <= 1e-6

    def test_matches_scipy_on_fuzzed_systems(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = Params.from_sequence(log_uniform(rng, 0.1, 10.0, 8))
            x0 = State.from_sequence(rng.uniform(0.0, 2.0, 4))
            traj = integrate(p, x0, 10.0)
            ref = scipy_reference(p, x0, 10.0)
            grid = np.linspace(0.0, 10.0, 101)
            scale = max(1.0, np.abs(ref.sol(grid)).max())
            assert np.abs(traj.at(grid) - ref.sol(grid).T).max() <= 1e-6 * scale

    def test_self_convergence_under_tight_tolerances(self, demo_traj):
        tight = integrate(DEMO, State.zero(), 100.0, 1e-12, 1e-13)
        grid = np.linspace(0.0, 100.0, 1001)
        assert np.abs(demo_traj.at(grid) - tight.at(grid)).max() <= 1e-6

    def test_halving_tolerances_shrinks_endpoint_error(self):
        ref = integrate(DEMO, State.zero(), 10.0, 1e-12, 1e-13).y[-1]
        discrepancies = []
        for k in range(5):
            rt = 1e-6 * 0.5**k
            traj = integrate(DEMO, State.zero(), 10.0, rt, rt * 1e-2)
            discrepancies.append(np.abs(traj.y[-1] - ref).max())
        assert all(a > b for a, b in zip(discrepancies, discrepancies[1:]))

    def test_error_estimate_shrinks_with_tolerance(self):
        loose = integrate(DEMO, State.zero(), 10.0, 1e-6, 1e-8)
        tight = integrate(DEMO, State.zero(), 10.0, 1e-9, 1e-11)
        assert tight.error_estimate.max() < loose.error_estimate.max()

    def test_orthant_preserved_on_fuzzed_systems(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            p = Params.from_sequence(log_uniform(rng, 0.1, 10.0, 8))
            x0 = State.from_sequence(rng.uniform(0.0, 2.0, 4))
            traj = integrate(p, x0, 20.0)
            assert traj.y.min() >= 0.0
            assert traj.at(traj.scan_times()).min() >= 0.0

    def test_time_shift_equivariance(self):
        # autonomous flow: restarting from the state at t=12 reproduces
        # the tail of the original run
        whole = integrate(DEMO, State.zero(), 30.0)
        mid = State.from_clamped(whole.at(12.0))
        tail = integrate(DEMO, mid, 18.0)
        s = np.linspace(0.0, 18.0, 181)
        assert np.abs(whole.at(12.0 + s) - tail.at(s)).max() <= 1e-5

    def test_equilibrium_is_stationary(self):
        from aifcert import equilibrium

        eq = equilibrium(DEMO)
        traj = integrate(DEMO, eq, 10.0)
        drift = np.abs(traj.y - np.array(eq.as_tuple())).max()
        assert drift < 1e-6

    def test_horizon_landing_is_exact(self, demo_traj):
        assert demo_traj.t[-1] == 100.0

    def test_rejects_bad_horizon(self):
        for h in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                integrate(DEMO, State.zero(), h)

    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            integrate(DEMO, State.zero(), 1.0, rel_tol=0.0)
        with pytest.raises(ValueError):
            integrate(DEMO, State.zero(), 1.0, abs_tol=-1e-10)

    def test_error_carries_last_time(self):
        err = IntegrationError("step size underflow", 3.25)
        assert err.last_time == 3.25
        assert "3.25" in str(err)


class TestDenseOutput:
    def test_interpolant_weights_sum_to_solution_weights(self):
        # at the right step edge the interpolant must reproduce the
        # accepted endpoint, i.e. row sums equal the solution weights
        b = np.array([sim._B1, 0.0, sim._B3, sim._B4, sim._B5, sim._B6, 0.0])
        assert np.abs(sim._P.sum(axis=1) - b).max() <= 1e-15

    def test_start_is_bitwise_initial_state(self, demo_traj):
        assert tuple(demo_traj.at(0.0)) == (0.0, 0.0, 0.0, 0.0)

    def test_nodes_are_bitwise_stored_samples(self, demo_traj):
        idx = [1, 7, len(demo_traj.t) // 2, len(demo_traj.t) - 1]
        for i in idx:
            assert np.array_equal(demo_traj.at(demo_traj.t[i]), demo_traj.y[i])

    def test_interior_accuracy_against_scipy(self):
        traj = integrate(DEMO, State.zero(), 20.0)
        ref = scipy_reference(DEMO, State.zero(), 20.0)
        mid = 0.5 * (traj.t[:-1] + traj.t[1:])
        assert np.abs(traj.at(mid) - ref.sol(mid).T).max() <= 1e-6

    def test_rejects_queries_outside_span(self, demo_traj):
        with pytest.raises(ValueError):
            demo_traj.at(-0.5)
        with pytest.raises(ValueError):
            demo_traj.at(100.5)

    def test_scan_times_cover_span_densely(self, demo_traj):
        ts = demo_traj.scan_times()
        assert ts[0] == 0.0 and ts[-1] == 100.0
        assert np.diff(ts).max() <= 0.05 + 1e-12

    @pytest.mark.parametrize("max_dt", [0.05, 0.003, 1e3])
    def test_scan_times_match_loop_form_bitwise(self, demo_traj, max_dt):
        ts = demo_traj.scan_times(max_dt)
        assert ts.tobytes() == scan_times_loop(demo_traj, max_dt).tobytes()


class TestFixedStepOrder:
    def test_order_at_least_four(self):
        ref = propagate_fixed(DEMO, State.zero(), 5.0, 64000)
        errs = [
            np.abs(propagate_fixed(DEMO, State.zero(), 5.0, n) - ref).max()
            for n in (250, 500, 1000)
        ]
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(slopes) >= 4.0


class TestFusedStep:
    @pytest.mark.parametrize("case", _step_cases(), ids=lambda c: c[0])
    def test_accepted_steps_match_loop_form_bitwise(self, case, monkeypatch):
        _, p, x0, horizon = case
        attempts = []
        fused = sim._dp54_step

        def spy(a, y, k1, h):
            attempts.append((y, h))
            return fused(a, y, k1, h)

        monkeypatch.setattr(sim, "_dp54_step", spy)
        traj = integrate(p, x0, horizon)
        monkeypatch.undo()

        # every attempt from one state gets the same tuple; the last is accepted
        accepted = [
            att for att, nxt in zip(attempts, attempts[1:] + [(None, None)]) if nxt[0] is not att[0]
        ]
        m = len(traj.t) - 1
        assert len(accepted) == m
        a = p.as_tuple()

        def f(v):
            return field(a, *v)

        hs, stages, clamped = [], [], 0
        for i, (y, h) in enumerate(accepted):
            assert np.array(y).tobytes() == traj.y[i].tobytes()
            assert traj.t[i + 1] == (horizon if i == m - 1 else traj.t[i] + h)
            y5, kk = reference_dp54_step(f, y, h, f(y))
            if min(y5) < 0.0:
                clamped += 1
            else:
                assert np.array(y5).tobytes() == traj.y[i + 1].tobytes()
            hs.append(h)
            stages.append(kk)
        dense = np.array(hs)[:, None, None] * np.einsum("msj,sp->mjp", np.array(stages), sim._P)
        assert dense.tobytes() == traj._dense.tobytes()

        # the counters are exact: six evaluations per attempt, two to
        # start, one more after each clamp
        st = traj.stats
        assert st["accepted"] == m
        rejected = st["rejected_error"] + st["rejected_orthant"] + st["rejected_nonfinite"]
        assert m + rejected == len(attempts)
        assert st["nfev"] == 2 + 6 * len(attempts) + clamped

    def test_rejections_and_clamp_are_handled_and_counted(self, monkeypatch):
        # the first three attempts are made non-finite, outside the
        # orthant, and undershooting by less than abs_tol, in that order
        fused = sim._dp54_step
        attempts = []
        forced = {1: math.nan, 2: -1e-9, 3: -0.5e-10}

        def spy(a, y, k1, h):
            attempts.append((y, k1, h))
            y5, k7, kk, err = fused(a, y, k1, h)
            if len(attempts) in forced:
                y5 = (y5[0], forced[len(attempts)], y5[2], y5[3])
            return y5, k7, kk, err

        monkeypatch.setattr(sim, "_dp54_step", spy)
        traj = integrate(DEMO, State.zero(), 1.0)
        monkeypatch.undo()

        st = traj.stats
        assert (st["rejected_nonfinite"], st["rejected_orthant"]) == (1, 1)
        h1, h2, h3 = (att[2] for att in attempts[:3])
        assert (h2, h3) == (h1 * 0.2, h2 * 0.5)
        assert traj.y[1][1] == 0.0 and not math.copysign(1.0, traj.y[1][1]) < 0.0
        # after a clamp the next step starts from the field at the clamped
        # state, not from the FSAL stage
        assert attempts[3][1] == field(DEMO.as_tuple(), *traj.y[1])
        assert st["nfev"] == 2 + 6 * len(attempts) + 1


class TestStats:
    def test_counts(self, demo_traj):
        st = demo_traj.stats
        assert set(st) == {
            "accepted",
            "rejected_error",
            "rejected_orthant",
            "rejected_nonfinite",
            "nfev",
        }
        assert st["accepted"] == len(demo_traj.t) - 1
        rejected = st["rejected_error"] + st["rejected_orthant"] + st["rejected_nonfinite"]
        assert st["nfev"] >= 6 * (st["accepted"] + rejected)

    def test_read_only(self, demo_traj):
        with pytest.raises(TypeError):
            demo_traj.stats["accepted"] = 0

    def test_rebuilt_trajectory_has_no_counters(self, demo_traj):
        rebuilt = Trajectory.from_samples(DEMO, demo_traj.t[:50], demo_traj.y[:50])
        assert dict(rebuilt.stats) == {}


class TestFirstHitting:
    def test_matches_dense_grid_oracle(self, demo_traj):
        t_hit = first_hitting(demo_traj, "x1", 0.5)
        grid = np.arange(0.0, 2.0, 1e-5)
        x1 = demo_traj.at(grid)[:, 0]
        i = int(np.argmax(x1 >= 0.5))
        t_ref = grid[i - 1] + 1e-5 * (0.5 - x1[i - 1]) / (x1[i] - x1[i - 1])
        assert abs(t_hit - t_ref) <= 1e-7
        assert abs(demo_traj.at(t_hit)[0] - 0.5) <= 1e-8

    def test_level_above_range_returns_none(self, demo_traj):
        assert first_hitting(demo_traj, "x1", 100.0) is None

    def test_from_above_direction(self, demo_traj):
        up = first_hitting(demo_traj, "x1", 0.5)
        down = first_hitting(demo_traj, "x1", 0.5, direction="from-above")
        assert down > up
        assert abs(demo_traj.at(down)[0] - 0.5) <= 1e-8

    def test_product_observable(self, demo_traj):
        t_hit = first_hitting(demo_traj, "p", 1.0 / 30.0)
        v = demo_traj.at(t_hit)
        assert v[0] * v[3] == pytest.approx(1.0 / 30.0, abs=1e-8)

    def test_level_already_met_at_start(self):
        traj = integrate(DEMO, State.from_sequence([2.0, 0.0, 0.0, 0.0]), 5.0)
        assert first_hitting(traj, "x1", 2.0) == 0.0

    def test_unknown_observable_rejected(self, demo_traj):
        with pytest.raises(ValueError):
            first_hitting(demo_traj, "x5", 0.5)


class TestExcursions:
    def test_against_brute_force_scan(self, demo_traj):
        exc = excursions_above(demo_traj, 0.2)
        assert len(exc) == 13
        grid = np.arange(0.0, 100.0, 1e-4)
        above = demo_traj.at(grid)[:, 0] >= 0.2
        edges = np.flatnonzero(np.diff(above.astype(int)))
        starts = grid[edges[::2] + 1]
        ends = grid[edges[1::2] + 1]
        assert len(starts) == 13
        for e, s_ref, e_ref in zip(exc, starts, ends):
            assert abs(e.start - s_ref) <= 1e-3
            assert abs(e.end - e_ref) <= 1e-3
            assert e.duration == e.end - e.start

    def test_start_level_is_exact_on_interior_crossings(self, demo_traj):
        for e in excursions_above(demo_traj, 0.2):
            assert demo_traj.at(e.start)[0] == pytest.approx(0.2, abs=1e-8)
            if e.end < 100.0:
                assert demo_traj.at(e.end)[0] == pytest.approx(0.2, abs=1e-8)

    def test_initial_state_above_level_anchors_at_zero(self):
        traj = integrate(DEMO, State.from_sequence([10.0, 0.0, 0.0, 0.0]), 30.0)
        exc = excursions_above(traj, 1.75)
        assert exc and exc[0].start == 0.0
        assert traj.at(exc[0].end)[0] == pytest.approx(1.75, abs=1e-8)

    def test_level_above_range_gives_nothing(self, demo_traj):
        assert excursions_above(demo_traj, 100.0) == []


class TestCsvRoundTrip:
    def test_format(self, demo_traj, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(demo_traj, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().split("\n")
        assert lines[0] == "t,x1,x2,x3,x4"
        # all node times present and numbers round-trip losslessly
        t_col = np.array([float(l.split(",")[0]) for l in lines[1:] if l])
        assert np.diff(t_col).min() > 0.0
        assert set(demo_traj.t).issubset(set(t_col))
        assert np.diff(t_col).max() <= 0.01 + 1e-9

    def test_values_round_trip_bitwise(self, demo_traj, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(demo_traj, path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        pos = np.searchsorted(data[:, 0], demo_traj.t)
        assert np.array_equal(data[pos, 0], demo_traj.t)
        assert np.array_equal(data[pos, 1:], demo_traj.y)

    def test_rebuilt_trajectory_matches(self, demo_traj, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(demo_traj, path)
        back = read_trajectory_csv(path, DEMO)
        grid = np.linspace(0.0, 100.0, 999)
        assert np.abs(back.at(grid) - demo_traj.at(grid)).max() <= 1e-6

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,a,b,c,d\n0,0,0,0,0\n")
        with pytest.raises(ValueError):
            read_trajectory_csv(path, DEMO)


class TestFromSamples:
    def test_hermite_rebuild_accuracy(self):
        traj = integrate(DEMO, State.zero(), 20.0)
        t = np.arange(0.0, 20.0 + 1e-12, 0.05)
        rebuilt = Trajectory.from_samples(DEMO, t, traj.at(t))
        grid = np.linspace(0.0, 20.0, 641)
        assert np.abs(rebuilt.at(grid) - traj.at(grid)).max() <= 1e-5

    def test_events_survive_rebuild(self, demo_traj):
        t = np.arange(0.0, 100.0 + 1e-12, 0.01)
        rebuilt = Trajectory.from_samples(DEMO, t, demo_traj.at(t))
        assert abs(
            first_hitting(rebuilt, "x1", 0.5) - first_hitting(demo_traj, "x1", 0.5)
        ) <= 1e-6
        assert len(excursions_above(rebuilt, 0.2)) == 13
