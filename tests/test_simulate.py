"""Integrator, dense output, events, excursions, CSV round-trips."""

import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import DEMO, log_uniform, random_params, random_state
from sampling import SCAN_DT, scan_times

from aifcert import (
    IntegrationError,
    Params,
    State,
    Trajectory,
    build_report,
    certificate,
    excursions_above,
    field,
    integrate,
    propagate_fixed,
    read_trajectory_csv,
    stretches_above,
    vector_field,
    write_trajectory_csv,
)
from aifcert import simulate as sim
from aifcert.model import DerivedConstants
from aifcert.verify import SIMULATION_FUZZ_RANGE


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


def reference_taylor(a, y):
    """Taylor coefficients of orders 1 to 6 in loop form, (4 components, 6 orders).

    Order 1 is the field; order k+1 is the linear part of order k over
    k+1, with p = x1*x4 contributing the Cauchy product sum_j x1_j*x4_(k-j).
    """
    _, a2, a3, a4, a5, a6, a7, a8 = a
    x1, x2, x3, x4 = ([v, f] for v, f in zip(y, field(a, *y)))
    for k in range(1, 6):
        p = x1[0] * x4[k]
        for j in range(1, k + 1):
            p += x1[j] * x4[k - j]
        x2.append((a3 * x1[k] - a4 * x2[k]) / (k + 1))
        x3.append((a5 * x2[k] - a6 * x3[k]) / (k + 1))
        x4.append((a7 * x3[k] - a8 * p) / (k + 1))
        x1.append(-a2 * p / (k + 1))
    return np.array([x1[1:], x2[1:], x3[1:], x4[1:]])


def reference_taylor_end(y, coef, h):
    """The Taylor polynomial at step h, each component summed by Horner's rule in loop form."""
    ends = []
    for yi, row in zip(y, coef):
        v = row[-1]
        for ck in row[-2::-1]:
            v = ck + h * v
        ends.append(yi + h * v)
    return np.array(ends)


def jacobian(p, y):
    _, a2, a3, a4, a5, a6, a7, a8 = p.as_tuple()
    x1, _, _, x4 = y
    return np.array(
        [
            [-a2 * x4, 0.0, 0.0, -a2 * x1],
            [a3, -a4, 0.0, 0.0],
            [0.0, a5, -a6, 0.0],
            [-a8 * x4, 0.0, a7, -a8 * x1],
        ]
    )


def reference_rodas4_step(f, jac, y, h):
    """RODAS4 step in loop form, each stage solved by numpy's pivoted LU.

    Stage i solves (I/(gamma*h) - J) u_i = f(y + sum_j A_ij u_j) + sum_j C_ij u_j / h;
    the sixth stage starts from the embedded solution and the solution
    adds u6 to it.  Returns (solution, error estimate u6).
    """
    A = [
        [],
        [sim._RA21],
        [sim._RA31, sim._RA32],
        [sim._RA41, sim._RA42, sim._RA43],
        [sim._RA51, sim._RA52, sim._RA53, sim._RA54],
        [sim._RA51, sim._RA52, sim._RA53, sim._RA54, 1.0],
    ]
    C = [
        [],
        [sim._RC21],
        [sim._RC31, sim._RC32],
        [sim._RC41, sim._RC42, sim._RC43],
        [sim._RC51, sim._RC52, sim._RC53, sim._RC54],
        [sim._RC61, sim._RC62, sim._RC63, sim._RC64, sim._RC65],
    ]
    y = np.array(y)
    E = np.eye(4) / (sim._RG * h) - jac(y)
    u = []
    for a_row, c_row in zip(A, C):
        arg = y + sum((a * uj for a, uj in zip(a_row, u)), np.zeros(4))
        rhs = np.array(f(tuple(arg))) + sum((c * uj for c, uj in zip(c_row, u)), np.zeros(4)) / h
        u.append(np.linalg.solve(E, rhs))
    return arg + u[-1], u[-1]


def propagate_rodas4(p, x0, horizon, n_steps):
    a = p.as_tuple()
    y = tuple(x0)
    for _ in range(n_steps):
        y, _ = sim._rodas4_step(a, y, field(a, *y), horizon / n_steps)
    return np.array(y)


def radau_reference(p, x0, horizon):
    return solve_ivp(
        lambda _, y: field(p.as_tuple(), *y),
        (0.0, horizon),
        list(x0),
        method="Radau",
        rtol=1e-10,
        atol=1e-14,
        jac=lambda _, y: jacobian(p, y),
        dense_output=True,
    )


def bump_trajectory():
    """One 0.04-long cubic Hermite piece from x1 = 1 back to x1 = 1.

    The slopes at its ends are +50 and -70, so x1 bumps to about 1.6 in
    between, unseen by any scan over the nodes.
    """
    p = Params.from_sequence((50.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0))
    return Trajectory.from_samples(p, [0.0, 0.04], [[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 120.0]])


def brute_first_hit(traj, series, level, t_end, falling=False, dt=1e-5):
    """First upward (or, if falling, downward) crossing on a uniform grid, linearly interpolated."""
    grid = np.arange(0.0, t_end, dt)
    chunks = np.array_split(grid, max(1, grid.size // 100_000))
    g = np.concatenate([series(traj.at(c)) for c in chunks]) - level
    if falling:
        g = -g
    i = int(np.flatnonzero((g[:-1] < 0.0) & (g[1:] >= 0.0))[0]) + 1
    return grid[i - 1] + dt * g[i - 1] / (g[i - 1] - g[i])


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

    def test_orthant_preserved_on_fuzzed_systems(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            p = Params.from_sequence(log_uniform(rng, 0.1, 10.0, 8))
            x0 = State.from_sequence(rng.uniform(0.0, 2.0, 4))
            traj = integrate(p, x0, 20.0)
            assert traj.y.min() >= 0.0
            assert traj.at(scan_times(traj)).min() >= 0.0

    def test_time_shift_equivariance(self):
        # autonomous flow: restarting from the state at t=12 reproduces
        # the tail of the original run
        whole = integrate(DEMO, State.zero(), 30.0)
        mid = State.from_sequence(whole.at(12.0))  # at() clamps to the orthant
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
        # at s = 1 a Taylor row sums to the step's own unclamped end (its
        # Horner sum), and a Hermite row to the stored end, up to rounding
        traj, attempts = record_attempts(DEMO, State.from_sequence([10.0, 0.0, 0.0, 0.0]), 30.0)
        ends = {att[1]: (att[0], att[4]) for att in attempts}  # the last attempt is accepted
        kinds = set()
        for i in range(len(traj.t) - 1):
            kind, end = ends[tuple(traj.y[i])]
            kinds.add(kind)
            terms = traj._coef[:, :, i]
            want = end if kind == "taylor" else traj.y[i + 1]
            assert np.abs(terms.sum(axis=1) - want).max() <= 8e-16 * np.abs(terms).sum(axis=1).max()
        assert kinds == {"taylor", "rodas4"}

    def test_start_is_bitwise_initial_state(self, demo_traj):
        assert tuple(demo_traj.at(0.0)) == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("kind", ["taylor", "rodas4", "samples"])
    def test_nodes_are_bitwise_stored_samples(self, window_cases, kind):
        # every node, in one array query and one scalar query each; the
        # samples are sparse, so a Hermite piece misses its right node by rounding
        traj = window_cases[kind][0]
        if kind == "samples":
            traj = Trajectory.from_samples(DEMO, traj.t[::10], traj.y[::10])
        assert traj.at(traj.t).tobytes() == traj.y.tobytes()
        for t, y in zip(traj.t, traj.y):
            assert traj.at(t).tobytes() == y.tobytes()

    def test_interior_accuracy_against_scipy(self):
        traj = integrate(DEMO, State.zero(), 20.0)
        ref = scipy_reference(DEMO, State.zero(), 20.0)
        mid = 0.5 * (traj.t[:-1] + traj.t[1:])
        assert np.abs(traj.at(mid) - ref.sol(mid).T).max() <= 1e-6

    def test_rejects_queries_outside_span(self, demo_traj):
        # NaN is outside too, as a scalar and inside an array
        for times in (-0.5, 100.5, float("nan"), np.array([1.0, float("nan"), 2.0])):
            with pytest.raises(ValueError, match="outside the integrated span"):
                demo_traj.at(times)

    def test_rejects_times_of_more_than_one_dimension(self):
        traj = integrate(DEMO, State.zero(), 5.0)
        with pytest.raises(ValueError) as info:
            traj.at(np.zeros((2, 2)))
        assert str(info.value) == "query times must be a number or a 1-D array, got shape (2, 2)"

    def test_scan_times_cover_span_densely(self, demo_traj):
        ts = scan_times(demo_traj)
        assert ts[0] == 0.0 and ts[-1] == 100.0
        assert np.diff(ts).max() <= SCAN_DT + 1e-12


def observe(traj, name, times):
    """An observable on the interpolant at the given times, from traj.at."""
    x = traj.at(times)
    dc = DerivedConstants.from_params(traj.params)
    if name == "p":
        return x[..., 0] * x[..., 3]
    if name == "W":
        return dc.W(x[..., 1], x[..., 2], x[..., 3])
    if name == "W_rate":
        return traj.params.alpha8 * x[..., 0] * (dc.K - x[..., 3])
    return x[..., int(name[1]) - 1]


def rate_maximum_above(traj, gamma):
    """check_W_decrease's search: the first largest W_rate over W's stretches above gamma."""
    windows = [("max", "W_rate", a, b) for a, b in stretches_above(traj, "W", gamma) if a < b]
    return max(traj.extrema(windows), key=lambda f: f[0])


def extremum_windows(traj, steps):
    """Windows over the given steps: inside one step, from and to mid-step, from and to a node."""
    t = traj.t
    k = steps[len(steps) // 2]
    h = t[k + 1] - t[k]
    far = min(k + 15, steps[-1])
    return [
        (t[k] + 0.2 * h, t[k] + 0.7 * h),
        (t[k] + 0.3 * h, t[far] + 0.6 * (t[far + 1] - t[far])),
        (t[k], t[far] + 0.5 * (t[far + 1] - t[far])),
        (t[k] + 0.5 * h, t[far + 1]),
    ]


class TestMaximum:
    @pytest.fixture(scope="class")
    def overshoot(self):
        return integrate(DEMO, State.from_sequence([10.0, 0.0, 0.0, 0.0]), 30.0)

    @pytest.mark.parametrize("i", range(4))
    def test_interpolant_maximum(self, overshoot, i):
        traj = overshoot
        ((top, t_top),) = traj.extrema([("max", f"x{i + 1}", None, None)])
        assert top >= traj.y[:, i].max()
        assert traj.at(scan_times(traj, 0.01))[:, i].max() <= top
        grid = np.arange(max(0.0, t_top - 0.01), min(30.0, t_top + 0.01), 1e-5)
        near = traj.at(grid)[:, i].max()
        assert near <= top and top - near <= 1e-9 * top

    def test_bump_between_nodes(self):
        traj = bump_trajectory()
        ((top, t_top),) = traj.extrema([("max", "x1", None, None)])
        grid = np.arange(0.0, 0.04, 1e-5)
        x1 = traj.at(grid)[:, 0]
        assert top > 1.5
        # a 1e-5 grid on a 0.04-long step with curvature 5.6 misses the top by <= 2e-8
        assert 0.0 <= top - x1.max() <= 1e-7
        assert abs(t_top - grid[np.argmax(x1)]) <= 1e-5

    def test_window_ends_within_rounding_of_the_span(self, overshoot):
        found = overshoot.extrema([("max", "x1", -5e-13, 30.0 + 5e-13), ("max", "x1", None, None)])
        assert found[0] == found[1]
        assert overshoot.extrema([("min", "x4", 30.0, 30.0 + 5e-13)])[0][1] == 30.0
        found = overshoot.extrema([("max", "W_rate", -5e-13, 30.0 + 5e-13), ("max", "W_rate", None, None)])
        assert found[0] == found[1]
        assert stretches_above(overshoot, "W", 1e9) == []  # no window: W_decrease's rate part is vacuous

    def test_rejects_bad_window_and_observable(self, overshoot):
        with pytest.raises(ValueError):
            overshoot.extrema([("max", "x1", 2.0, 1.0)])
        with pytest.raises(ValueError):
            overshoot.extrema([("min", "p", 0.0, 31.0)])
        with pytest.raises(ValueError):
            overshoot.extrema([("max", "x5", None, None)])


@pytest.fixture(scope="module")
def window_cases(demo_traj):
    """Trajectory and windows by kind of dense row: Taylor, RODAS4 Hermite, rebuilt samples."""
    overshoot = integrate(DEMO, State.from_sequence([10.0, 0.0, 0.0, 0.0]), 30.0)
    stiff_from = len(overshoot.t) - 1 - overshoot.stats["stiff_steps"]
    samples = Trajectory.from_samples(DEMO, demo_traj.t[:300], demo_traj.y[:300])
    return {
        "taylor": (demo_traj, extremum_windows(demo_traj, range(600, 700))),
        "rodas4": (overshoot, extremum_windows(overshoot, range(stiff_from + 50, stiff_from + 150))),
        "samples": (samples, extremum_windows(samples, range(100, 200)) + [(0.0, samples.t[-1])]),
    }


class TestCoefficientTable:
    """The one table of per-step polynomials, on Taylor, switched and rebuilt trajectories."""

    @pytest.mark.parametrize("kind", ["taylor", "rodas4", "samples"])
    @pytest.mark.parametrize("name", sim.OBSERVABLES)
    def test_row_0_is_the_observable_at_every_node(self, window_cases, kind, name):
        traj = window_cases[kind][0]
        x1, x2, x3, x4 = traj.y.T
        dc = DerivedConstants.from_params(traj.params)
        want = {"x1": x1, "x2": x2, "x3": x3, "x4": x4, "p": x1 * x4, "W": dc.W(x2, x3, x4),
                "W_rate": traj.params.alpha8 * (x1 * (dc.K - x4))}[name]
        coef = sim._coefficients(traj, name)
        assert coef.shape == (13 if name in ("p", "W_rate") else 7, len(traj.t))
        assert coef[0].tobytes() == want.tobytes()
        assert not coef[1:, -1].any()  # the last node stands alone

    @pytest.mark.parametrize("kind", ["taylor", "rodas4", "samples"])
    def test_table_is_read_only(self, window_cases, kind):
        traj = window_cases[kind][0]
        with pytest.raises(ValueError, match="read-only"):
            traj._coef[0, 1, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            sim._coefficients(traj, "x1")[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            traj.t[1] = 0.5 * traj.t[1]
        with pytest.raises(ValueError, match="read-only"):
            traj.y[1, 0] = 0.0


class TestWindowedExtrema:
    @pytest.mark.parametrize("kind", ["taylor", "rodas4", "samples"])
    @pytest.mark.parametrize("name", sim.OBSERVABLES)
    def test_matches_brute_force_grid(self, window_cases, kind, name):
        traj, windows = window_cases[kind]
        for a, b in windows:
            grid = np.append(np.arange(a, b, 1e-5), b)
            vals = observe(traj, name, grid)
            scale = max(1.0, np.abs(vals).max())
            for sign, sense in ((1.0, "max"), (-1.0, "min")):
                ((top, t_top),) = traj.extrema([(sense, name, a, b)])
                assert a <= t_top <= b
                best = vals.max() if sign > 0 else vals.min()
                # no grid point beats the search, and the search beats the
                # grid by no more than the grid's resolution allows
                assert sign * (top - best) >= -1e-13 * scale, (a, b, sign)
                assert sign * (top - best) <= 1e-8 * scale, (a, b, sign)
                assert observe(traj, name, t_top) == pytest.approx(top, rel=1e-12, abs=1e-13 * scale)

    @pytest.mark.parametrize("name", sim.OBSERVABLES)
    def test_whole_span_of_integrated_trajectory(self, demo_traj, name):
        traj = demo_traj
        for sign, sense in ((1.0, "max"), (-1.0, "min")):
            ((top, t_top),) = traj.extrema([(sense, name, None, None)])
            assert [(top, t_top)] == traj.extrema([(sense, name, 0.0, 100.0)])
            coarse = sign * observe(traj, name, scan_times(traj, 1e-3))
            assert coarse.max() <= sign * top + 1e-13 * abs(top)
            grid = np.arange(max(0.0, t_top - 0.01), min(100.0, t_top + 0.01), 1e-5)
            near = sign * observe(traj, name, grid)
            assert sign * top - near.max() <= 1e-8 * max(1.0, abs(top))


    @pytest.mark.parametrize("kind", ["taylor", "rodas4", "samples"])
    def test_batch_matches_one_query_searches_bitwise(self, window_cases, kind):
        # every observable, both senses, every window and the whole span in
        # one call, interleaved: each answer is the one-query answer bit for bit
        traj, windows = window_cases[kind]
        queries = [
            (sense, name, a, b)
            for (a, b) in windows + [(None, None)]
            for name in sim.OBSERVABLES
            for sense in ("max", "min")
        ]
        queries = queries[::2] + queries[1::2]
        found = traj.extrema(queries)
        assert len(found) == len(queries)
        for query, (value, time) in zip(queries, found):
            (want,) = traj.extrema([query])
            assert (value.hex(), time.hex()) == (want[0].hex(), want[1].hex())

    def test_extrema_rejects_unknown_sense(self, demo_traj):
        with pytest.raises(ValueError, match="sense"):
            demo_traj.extrema([("top", "x1", None, None)])

    def test_window_outside_the_span_is_named_in_plain_floats(self):
        traj = integrate(DEMO, State.zero(), 5.0)
        with pytest.raises(ValueError) as info:
            traj.extrema([("max", "x1", 1.0, 7.0)])
        assert str(info.value) == "window [1.0, 7.0] is not inside [0.0, 5.0]"

    def test_roots_do_not_depend_on_batch_mates(self, demo_traj):
        # near rounding Newton can step between two neighbouring floats, so
        # a root that kept iterating while other columns of the call had not
        # settled could come out an ulp away from its one-column value
        coef = np.hstack([sim._coefficients(demo_traj, n) for n in ("x1", "x2", "x3", "x4", "W")])
        slope = coef[1:] * np.arange(1.0, 7)[:, None]
        together = sim._unit_roots(slope, 0.0, 0.0)
        for j in range(slope.shape[1]):
            alone = sim._unit_roots(slope[:, j : j + 1], 0.0, 0.0)
            assert alone[:, 0].tobytes() == together[:, j].tobytes(), j

    @pytest.mark.parametrize("quantile", [0.3, 0.6, 0.9])
    def test_rate_maximum_only_where_W_above_gamma(self, window_cases, quantile):
        # gamma inside W's range, so the stretches above it begin and end
        # inside steps and the rate peaks outside them too
        traj = window_cases["rodas4"][0]
        dc = DerivedConstants.from_params(traj.params)
        grid = np.arange(0.0, 30.0, 1e-4)
        x = traj.at(grid)
        W = dc.W(x[:, 1], x[:, 2], x[:, 3])
        gamma = float(np.quantile(W, quantile))
        rate = traj.params.alpha8 * x[:, 0] * (dc.K - x[:, 3])
        top, t_top = rate_maximum_above(traj, gamma)
        assert rate[W > gamma].max() <= top + 1e-12 * abs(top) and top < rate.max()
        # the top is attained where W >= gamma, up to a 1e-8 grid around it
        near = np.arange(max(0.0, t_top - 1e-4), min(30.0, t_top + 1e-4), 1e-8)
        x = traj.at(near)
        above = dc.W(x[:, 1], x[:, 2], x[:, 3]) > gamma
        rate_near = traj.params.alpha8 * x[:, 0] * (dc.K - x[:, 3])
        assert top - rate_near[above].max() <= 1e-7 * abs(top)
        assert observe(traj, "W", t_top) >= gamma * (1.0 - 1e-12)


    @pytest.mark.parametrize(
        "x0, end",
        [((0.0, 0.0, 0.0, 60.0), 1.2037), ((1.0, 0.0, 0.0, 60.0), 0.2037), ((0.0, 0.0, 0.0, 100.0), 30.0)],
        ids=["crossing", "top-at-crossing", "horizon"],
    )
    def test_rate_maximum_on_a_stretch_from_t0(self, x0, end):
        # W0 > gamma: W's one stretch above gamma starts at t0 and ends at a
        # crossing or at the horizon; from x1(0) = 1 the rate peaks at the
        # crossing, from x1(0) = 0 at t0
        x0 = State.from_sequence(x0)
        traj = integrate(DEMO, x0, 30.0)
        gamma = certificate(DEMO, x0).gamma
        dc = DerivedConstants.from_params(DEMO)
        assert dc.W(x0.x2, x0.x3, x0.x4) > gamma
        ((a, b),) = stretches_above(traj, "W", gamma)
        assert a == 0.0 and b == pytest.approx(end, abs=1e-4)
        if b < 30.0:
            assert observe(traj, "W", b) == pytest.approx(gamma, rel=1e-12)
        grid = np.arange(0.0, 30.0, 1e-4)
        x = traj.at(grid)
        above = dc.W(x[:, 1], x[:, 2], x[:, 3]) > gamma
        assert np.array_equal(above, grid < b)  # no grid point within 1e-4 of b
        rate = DEMO.alpha8 * x[:, 0] * (dc.K - x[:, 3])
        top, t_top = rate_maximum_above(traj, gamma)
        assert rate[above].max() <= top + 1e-12 * abs(top)
        assert top - rate[above].max() <= 1e-7 * abs(top) + 1e-9
        assert a <= t_top <= b and observe(traj, "W", t_top) >= gamma * (1.0 - 1e-12)

    def test_rate_minimum_is_not_floored(self):
        # from x4 = 60 > K the rate alpha8*x1*(K - x4) is negative once x1
        # rises, so its minimum is returned as found, not read as 0
        traj = integrate(DEMO, State.from_sequence((0.0, 0.0, 0.0, 60.0)), 5.0)
        ((low, t_low),) = traj.extrema([("min", "W_rate", None, None)])
        assert low < 0.0 and low == pytest.approx(observe(traj, "W_rate", t_low), rel=1e-12)
        grid = np.append(np.arange(0.0, 5.0, 1e-5), 5.0)
        best = min(observe(traj, "W_rate", chunk).min() for chunk in np.array_split(grid, 5))
        assert 0.0 <= best - low <= 1e-8 * abs(low)


class TestFixedStepOrder:
    def test_order_at_least_four(self):
        ref = propagate_fixed(DEMO, State.zero(), 5.0, 64000)
        errs = [
            np.abs(propagate_fixed(DEMO, State.zero(), 5.0, n) - ref).max()
            for n in (250, 500, 1000)
        ]
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(slopes) >= 4.0

    @pytest.mark.parametrize(
        "horizon, n_steps, message",
        [
            (5.0, 0, "n_steps"),
            (5.0, -3, "n_steps"),
            (5.0, 2.5, "n_steps"),
            (float("nan"), 10, "horizon"),
            (-1.0, 10, "horizon"),
        ],
        ids=["zero-steps", "negative-steps", "fractional-steps", "nan-horizon", "negative-horizon"],
    )
    def test_rejects_bad_arguments(self, horizon, n_steps, message):
        with pytest.raises(ValueError, match=message):
            propagate_fixed(DEMO, State.zero(), horizon, n_steps)

    def test_numpy_integer_steps(self):
        # a numpy integer counts as an int, a boolean does not
        want = propagate_fixed(DEMO, State.zero(), 1.0, 10)
        assert propagate_fixed(DEMO, State.zero(), 1.0, np.int64(10)).tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="n_steps"):
            propagate_fixed(DEMO, State.zero(), 1.0, True)


def record_attempts(p, x0, horizon, alter=None):
    """Integrate, recording every attempted step as (kind, y, h, start, end).

    kind is "taylor" or "rodas4", start the Taylor coefficients or the
    field at y, end the step's unclamped end state.  alter(kind, y, end),
    if given, returns the end state the integrator sees instead.
    """
    attempts = []
    taylor_step, rodas4_step = sim._taylor_step, sim._rodas4_step

    def record(kind, y, h, start, end):
        attempts.append((kind, y, h, start, end))
        return alter(kind, y, end) if alter else end

    def spy_taylor(y, c, h):
        return record("taylor", y, h, c, taylor_step(y, c, h))

    def spy_rodas4(a, y, f0, h):
        end, err = rodas4_step(a, y, f0, h)
        return record("rodas4", y, h, f0, end), err

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_taylor_step", spy_taylor)
        mp.setattr(sim, "_rodas4_step", spy_rodas4)
        traj = integrate(p, x0, horizon)
    return traj, attempts


@pytest.fixture(scope="module", params=_step_cases(), ids=lambda c: c[0])
def recorded(request):
    """A case, its trajectory, every attempt and the accepted ones.

    Every attempt from one state gets the same tuple, and the last one
    is accepted.
    """
    name, p, x0, horizon = request.param
    traj, attempts = record_attempts(p, x0, horizon)
    accepted = [
        att for att, nxt in zip(attempts, attempts[1:] + [(None,) * 5]) if nxt[1] is not att[1]
    ]
    return name, p, horizon, traj, attempts, accepted


class TestFusedStep:
    """The written-out Taylor step against its loop form, and the counters."""

    def test_accepted_steps_match_loop_form_bitwise(self, recorded):
        # Taylor steps match the loop-form recurrence and Horner sums bit
        # for bit; RODAS4 steps match a loop form with a generic pivoted
        # solve to rounding, and their table columns are exactly the
        # Hermite terms of their ends, zero above s**3; both scale by
        # t[i+1] - t[i], which the nodes fix, not by the step the
        # integrator took; row 0 is the left node
        name, p, horizon, traj, _, accepted = recorded
        m = len(traj.t) - 1
        assert len(accepted) == m
        a = p.as_tuple()

        def f(v):
            return field(a, *v)

        rosenbrock = np.array([att[0] == "rodas4" for att in accepted])
        # fuzz4 ends with a2*x4 near 320: stiff, and its trial passes at t = 14
        assert rosenbrock.any() == (name in ("overshoot", "stiff", "fuzz4"))
        for i, (kind, y, h_use, _, _) in enumerate(accepted):
            assert np.array(y).tobytes() == traj.y[i].tobytes()
            assert traj.t[i + 1] == (horizon if i == m - 1 else traj.t[i] + h_use)
            h = traj.t[i + 1] - traj.t[i]
            if kind == "rodas4":
                y1, _ = reference_rodas4_step(f, lambda v: jacobian(p, v), y, h_use)
                dev = np.abs(np.maximum(y1, 0.0) - traj.y[i + 1]).max()
                assert dev <= 1e-13 * np.abs(y1).max()
                dy = traj.y[i + 1] - traj.y[i]
                row = sim._hermite(h, dy, np.array(f(traj.y[i])), np.array(f(traj.y[i + 1])))
                column = np.column_stack([traj.y[i], row, np.zeros((4, 3))])
                assert column.tobytes() == traj._coef[:, :, i].tobytes()
                continue
            coef = reference_taylor(a, y)
            end = reference_taylor_end(y, coef, h_use)
            assert np.where(end < 0.0, 0.0, end).tobytes() == traj.y[i + 1].tobytes()
            row = coef * np.float64(h) ** np.arange(1, 7)
            assert np.column_stack([traj.y[i], row]).tobytes() == traj._coef[:, :, i].tobytes()

    def test_taylor_step_length_bounds_the_error_norm(self, recorded):
        # integrate takes no error norm after a Taylor step; recomputed in
        # loop form, with the end state in the denominators, it stays at
        # or below the 0.9**6 that the step length is chosen for, up to
        # the rounding of that length (a few ulps), far from the limit 1
        _, _, _, _, _, accepted = recorded
        norms = []
        for kind, y, h, coef, end in accepted:
            if kind != "taylor":
                continue
            sq = 0.0
            for i in range(4):
                err = coef[20 + i] * (h * h * h) ** 2
                sq += (err / (1e-10 + 1e-8 * max(y[i], abs(end[i])))) ** 2
            norms.append(math.sqrt(sq / 4.0))
        assert norms and max(norms) <= 0.9**6 * (1.0 + 1e-13)

    def test_every_attempt_expands_at_its_state(self, recorded):
        _, p, _, _, attempts, _ = recorded
        for kind, y, _, start, _ in attempts:
            if kind == "taylor":
                want = reference_taylor(p.as_tuple(), y)
                assert np.array(start).reshape(6, 4).T.tobytes() == want.tobytes()
            else:
                assert start == field(p.as_tuple(), *y)

    def test_nfev_is_exact(self, recorded):
        # six per Taylor expansion, made at every state a Taylor step or
        # a trial starts from; five per RODAS4 attempt, trials included;
        # one at each accepted RODAS4 state
        _, _, _, traj, attempts, accepted = recorded
        st = traj.stats
        taylor = sum(att[0] == "taylor" for att in accepted)
        rodas4 = sum(att[0] == "rodas4" for att in attempts)
        assert st["nfev"] == 6 * (taylor + st["switches"]) + 5 * rodas4 + st["stiff_steps"]
        assert st["accepted"] == len(accepted)
        assert st["stiff_steps"] == len(accepted) - taylor
        # a failed trial is followed by the Taylor step from the same
        # state and counts as no rejection; trials run on a small share
        # of the Taylor steps
        failed_trials = sum(
            u[0] == "rodas4" and v[0] == "taylor" and u[1] is v[1]
            for u, v in zip(attempts, attempts[1:])
        )
        assert failed_trials <= taylor / sim._TRIAL_GAP + 1
        rejected = st["rejected_error"] + st["rejected_orthant"] + st["rejected_nonfinite"]
        assert len(accepted) + rejected + failed_trials == len(attempts)
        # the Taylor runs are those of the accepted steps; a passed trial
        # opens each RODAS4 run, and a hand-back closes each one but the last
        runs, k = [], 0
        for kind, group in itertools.groupby(att[0] for att in accepted):
            n = len(list(group))
            runs.append((kind, k, k + n))
            k += n
        assert traj.taylor_runs == tuple((i, j) for kind, i, j in runs if kind == "taylor")
        rodas4_runs = sum(kind == "rodas4" for kind, _, _ in runs)
        assert st["switches"] == rodas4_runs
        assert st["switches_back"] == rodas4_runs - (runs[-1][0] == "rodas4")

    def test_hand_backs_follow_the_trial_gate(self, recorded):
        # after every accepted RODAS4 step but the last, the next step
        # that its controller proposes decides: the run goes back to the
        # Taylor step iff that step times the trace bound at the new state
        # is below _TRIAL_GATE; the Taylor run that follows a hand-back
        # takes _TRIAL_GAP steps before a trial can end it
        _, p, _, traj, _, accepted = recorded
        a = p.as_tuple()
        _, a2, _, a4, _, a6, _, a8 = a
        gates = []
        for i, (kind, y, h_use, f0, end) in enumerate(accepted[:-1]):
            if kind != "rodas4":
                continue
            _, err = sim._rodas4_step(a, y, f0, h_use)
            scale = [1e-10 + 1e-8 * max(y[k], abs(end[k])) for k in range(4)]
            norm = math.sqrt(sum((e / s) ** 2 for e, s in zip(err, scale)) / 4.0)
            h = h_use * (10.0 if norm == 0.0 else min(10.0, max(0.2, 0.9 * norm**-0.25)))
            x1, _, _, x4 = traj.y[i + 1]
            gates.append(h * (a2 * x4 + a8 * x1 + a4 + a6) < sim._TRIAL_GATE)
            assert gates[-1] == (accepted[i + 1][0] == "taylor")
        assert sum(gates) == traj.stats["switches_back"]
        for i, j in traj.taylor_runs:
            assert i == 0 or j - i >= sim._TRIAL_GAP or j == len(traj.t) - 1

    def test_rejections_and_clamp_are_handled_and_counted(self):
        # the first three attempts are made non-finite, outside the
        # orthant, and undershooting by less than abs_tol, in that order
        forced = [math.nan, -1e-9, -0.5e-10]

        def alter(kind, y, end):
            return (end[0], forced.pop(0), end[2], end[3]) if forced else end

        traj, attempts = record_attempts(DEMO, State.zero(), 1.0, alter)
        st = traj.stats
        assert (st["rejected_nonfinite"], st["rejected_orthant"]) == (1, 1)
        h1, h2, h3 = (att[2] for att in attempts[:3])
        assert (h2, h3) == (h1 * 0.2, h2 * 0.5)
        assert traj.y[1][1] == 0.0 and not math.copysign(1.0, traj.y[1][1]) < 0.0
        # after a clamp the next step expands at the clamped state
        assert attempts[3][1] == tuple(traj.y[1])
        assert attempts[3][3] == sim._taylor(DEMO.as_tuple(), tuple(traj.y[1]))
        assert all(att[0] == "taylor" for att in attempts)
        assert st["nfev"] == 6 * st["accepted"]

    def test_infinite_taylor_end_is_rejected_as_non_finite(self):
        # inf >= 0 holds, so only the finite sum of the end state tells
        # this attempt from a clean step; it is retried 5 times shorter
        forced = [math.inf]

        def alter(kind, y, end):
            return (end[0], end[1], forced.pop(), end[3]) if forced else end

        traj, attempts = record_attempts(DEMO, State.zero(), 1.0, alter)
        st = traj.stats
        assert (st["rejected_nonfinite"], st["rejected_orthant"], st["rejected_error"]) == (1, 0, 0)
        assert attempts[1][1] is attempts[0][1] and attempts[1][2] == attempts[0][2] * 0.2
        assert np.isfinite(traj.y).all() and traj.t[1] == attempts[1][2]
        assert st["accepted"] == len(attempts) - 1

    def test_rosenbrock_rejections_and_clamp(self):
        # the same three faults forced on the first attempts after the
        # switch on the stiff set; the clamped state's field starts the
        # next step and ends its Hermite row, at no extra evaluation
        plain = integrate(STIFF, State.zero(), 3.0)
        i = plain.taylor_runs[0][1] + 1  # the state after the first switching step
        target = tuple(plain.y[i])
        forced = [math.nan, -1e-9, -0.5e-10]

        def alter(kind, y, end):
            if y == target and forced:
                return (end[0], end[1], end[2], forced.pop(0))
            return end

        traj, attempts = record_attempts(STIFF, State.zero(), 3.0, alter)
        st = traj.stats
        assert (st["rejected_nonfinite"], st["rejected_orthant"]) == (1, 1)
        k = next(n for n, att in enumerate(attempts) if att[1] == target)
        (_, _, h1, f0, _), (_, _, h2, _, _), (_, _, h3, _, _) = attempts[k : k + 3]
        assert (h2, h3) == (h1 * 0.2, h2 * 0.5)
        assert traj.t[i + 1] == traj.t[i] + h3
        assert traj.y[i + 1][3] == 0.0 and not math.copysign(1.0, traj.y[i + 1][3]) < 0.0
        f1 = field(STIFF.as_tuple(), *traj.y[i + 1])
        assert attempts[k + 3][3] == f1
        h = traj.t[i + 1] - traj.t[i]
        row = sim._hermite(h, traj.y[i + 1] - traj.y[i], np.array(f0), np.array(f1))
        column = np.column_stack([traj.y[i], row, np.zeros((4, 3))])
        assert column.tobytes() == traj._coef[:, :, i].tobytes()


class TestRosenbrock:
    def test_fixed_step_order_at_least_3_8(self):
        ref = propagate_fixed(DEMO, State.zero(), 2.0, 64000)
        errs = [
            np.abs(propagate_rodas4(DEMO, (0.0, 0.0, 0.0, 0.0), 2.0, n) - ref).max()
            for n in (250, 500, 1000)
        ]
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(slopes) >= 3.8

    def test_stiff_matches_radau_between_nodes(self):
        traj = integrate(STIFF, State.zero(), 3.0)
        ref = radau_reference(STIFF, (0.0, 0.0, 0.0, 0.0), 3.0)
        grid = np.linspace(0.0, 3.0, 2001)
        # over half the grid falls inside RODAS4 steps
        rodas4 = np.ones(len(traj.t) - 1, dtype=bool)
        for i, j in traj.taylor_runs:
            rodas4[i:j] = False
        step = np.clip(np.searchsorted(traj.t, grid, side="right") - 1, 0, len(traj.t) - 2)
        assert np.sum(rodas4[step] & ~np.isin(grid, traj.t)) > 1000
        want = ref.sol(grid).T
        err = np.abs(traj.at(grid) - want).max(axis=0)
        assert (err <= 1e-6 * np.abs(want).max(axis=0)).all()

    def test_stiff_hands_back_once_and_saves_steps(self):
        # RODAS4 from the first trial until the annihilation front has
        # passed, Taylor steps again, then RODAS4 for the rest of the span
        st = integrate(STIFF, State.zero(), 3.0).stats
        assert st["stiff_steps"] > 0 and (st["switches"], st["switches_back"]) == (2, 1)
        assert st["accepted"] <= 3000

    def test_stiff_switches_within_600_taylor_steps(self):
        traj = integrate(STIFF, State.zero(), 3.0)
        (first, switch), *_ = traj.taylor_runs
        assert first == 0 and switch <= 600

    def test_overshoot_never_hands_back(self):
        st = integrate(DEMO, State.from_sequence([10.0, 0.0, 0.0, 0.0]), 30.0).stats
        assert st["stiff_steps"] > 0 and (st["switches"], st["switches_back"]) == (1, 0)

    def test_rodas4_steps_only_after_a_passed_trial(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_params(rng, 1e-2, 1e2)
            traj = integrate(p, random_state(rng, 20.0), 20.0)
            st = traj.stats
            assert (st["stiff_steps"] == 0) == (st["switches"] == 0)
            assert st["switches"] - 1 <= st["switches_back"] <= st["switches"]
            # a Taylor run after a hand-back lasts _TRIAL_GAP steps or reaches the horizon
            for i, j in traj.taylor_runs:
                assert i == 0 or j - i >= sim._TRIAL_GAP or j == len(traj.t) - 1

    @pytest.mark.parametrize(
        "rel_tol, abs_tol",
        [(1e-8, 1e-10), (1e-12, 1e-13)] + [(1e-6 * 0.5**k, 1e-8 * 0.5**k) for k in range(5)],
    )
    def test_demo_never_switches(self, rel_tol, abs_tol):
        horizon = 100.0 if rel_tol == 1e-8 else 10.0
        st = integrate(DEMO, State.zero(), horizon, rel_tol, abs_tol).stats
        assert (st["stiff_steps"], st["switches"], st["switches_back"]) == (0, 0, 0)


class TestStats:
    def test_counts(self, demo_traj):
        st = demo_traj.stats
        assert set(st) == {
            "accepted",
            "rejected_error",
            "rejected_orthant",
            "rejected_nonfinite",
            "nfev",
            "stiff_steps",
            "switches",
            "switches_back",
        }
        assert st["accepted"] == len(demo_traj.t) - 1

    def test_read_only(self, demo_traj):
        with pytest.raises(TypeError):
            demo_traj.stats["accepted"] = 0

    def test_rebuilt_trajectory_has_no_counters(self, demo_traj):
        rebuilt = Trajectory.from_samples(DEMO, demo_traj.t[:50], demo_traj.y[:50])
        assert dict(rebuilt.stats) == {}


class TestStretchesAbove:
    def test_matches_dense_grid_oracle(self, demo_traj):
        t_hit = stretches_above(demo_traj, "x1", 0.5)[0][0]
        grid = np.arange(0.0, 2.0, 1e-5)
        x1 = demo_traj.at(grid)[:, 0]
        i = int(np.argmax(x1 >= 0.5))
        t_ref = grid[i - 1] + 1e-5 * (0.5 - x1[i - 1]) / (x1[i] - x1[i - 1])
        assert abs(t_hit - t_ref) <= 1e-7
        assert abs(demo_traj.at(t_hit)[0] - 0.5) <= 1e-8

    def test_level_above_range_gives_nothing(self, demo_traj):
        assert stretches_above(demo_traj, "x1", 100.0) == []

    def test_first_stretch_ends_where_it_falls_back(self, demo_traj):
        up, down = stretches_above(demo_traj, "x1", 0.5)[0]
        assert down > up
        assert abs(demo_traj.at(down)[0] - 0.5) <= 1e-8

    def test_product_observable(self, demo_traj):
        t_hit = stretches_above(demo_traj, "p", 1.0 / 30.0)[0][0]
        v = demo_traj.at(t_hit)
        assert v[0] * v[3] == pytest.approx(1.0 / 30.0, abs=1e-8)

    @pytest.mark.parametrize("observable, level", [("p", 1.0 / 30.0), ("W", 2.0)])
    def test_product_and_aggregate_match_brute_force(self, demo_traj, observable, level):
        dc = DerivedConstants.from_params(DEMO)
        series = {
            "p": lambda v: v[:, 0] * v[:, 3],
            "W": lambda v: dc.W(v[:, 1], v[:, 2], v[:, 3]),
        }[observable]
        start, end = stretches_above(demo_traj, observable, level)[0]
        assert 0.0 < start < end < 100.0
        assert abs(start - brute_first_hit(demo_traj, series, level, start + 0.01)) <= 1e-7
        assert abs(end - brute_first_hit(demo_traj, series, level, end + 0.01, falling=True)) <= 1e-7

    def test_level_already_met_at_start(self):
        traj = integrate(DEMO, State.from_sequence([2.0, 0.0, 0.0, 0.0]), 5.0)
        assert stretches_above(traj, "x1", 2.0)[0][0] == 0.0

    def test_unknown_observable_rejected(self, demo_traj):
        with pytest.raises(ValueError):
            stretches_above(demo_traj, "x5", 0.5)

    @pytest.mark.parametrize("level", [math.inf, -math.inf, math.nan])
    def test_non_finite_level_rejected(self, demo_traj, level):
        with pytest.raises(ValueError, match="level must be finite"):
            stretches_above(demo_traj, "x1", level)


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

    def test_pair_of_crossings_inside_one_scan_cell(self):
        traj = bump_trajectory()
        assert traj.at(scan_times(traj))[:, 0].max() < 1.25
        exc = excursions_above(traj, 1.25)
        assert len(exc) == 1
        grid = np.arange(0.0, 0.04, 1e-6)
        inside = grid[traj.at(grid)[:, 0] >= 1.25]
        assert abs(exc[0].start - inside[0]) <= 1e-6
        assert abs(exc[0].end - inside[-1]) <= 1e-6

    def test_fuzzed_endpoints_are_exact_crossings(self):
        rng = np.random.default_rng(404)
        for _ in range(10):
            p = random_params(rng, *SIMULATION_FUZZ_RANGE)
            traj = integrate(p, random_state(rng), 10.0)
            grid = np.arange(0.0, 10.0, 1e-4)
            x1_grid = traj.at(grid)[:, 0]
            x1 = traj.y[:, 0]
            for level in np.linspace(x1.min(), x1.max(), 7)[1:-1]:
                exc = excursions_above(traj, level)
                ends = [t for e in exc for t in (e.start, e.end) if 0.0 < t < 10.0]
                for t in ends:
                    assert abs(traj.at(t)[0] - level) <= 1e-9 * max(1.0, level)
                member = np.zeros(grid.size, dtype=bool)
                for e in exc:
                    member |= (grid >= e.start) & (grid <= e.end)
                near = np.zeros(grid.size, dtype=bool)
                for t in ends:
                    near |= np.abs(grid - t) <= 1e-6
                assert np.array_equal(member[~near], (x1_grid >= level)[~near])


class TestCsvRoundTrip:
    def test_format(self, demo_traj, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(demo_traj, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().split("\n")
        assert lines[:2] == ["t,x1,x2,x3,x4", f"# taylor_steps=0:{len(demo_traj.t) - 1}"]
        assert lines[-1] == ""
        # the data rows are the step nodes, and numbers round-trip losslessly
        data = np.array([[float(v) for v in line.split(",")] for line in lines[2:-1]])
        assert data[:, 0].tobytes() == demo_traj.t.tobytes()
        assert data[:, 1:].tobytes() == demo_traj.y.tobytes()

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

    @pytest.mark.parametrize(
        "p, x0, horizon, switches",
        [(DEMO, (0.0, 0.0, 0.0, 0.0), 100.0, 0), (DEMO, (10.0, 0.0, 0.0, 0.0), 30.0, 1),
         (STIFF, (0.0, 0.0, 0.0, 0.0), 3.0, 2)],
        ids=["demo", "overshoot", "stiff"],
    )
    def test_round_trip_is_exact(self, tmp_path, p, x0, horizon, switches):
        # Taylor steps only, a switch to RODAS4, and RODAS4 runs between Taylor runs
        traj = integrate(p, x0, horizon)
        assert traj.stats["switches"] == switches
        taylor_steps = sum(j - i for i, j in traj.taylor_runs)
        assert taylor_steps == traj.stats["accepted"] - traj.stats["stiff_steps"]
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path, p)
        assert back.taylor_runs == traj.taylor_runs
        for name in ("t", "y", "_coef"):
            assert getattr(back, name).tobytes() == getattr(traj, name).tobytes()
        assert back.x0 == traj.x0
        report = build_report(p, x0, horizon=horizon, traj=traj).to_json()
        assert build_report(p, x0, horizon=horizon, traj=back).to_json() == report

    def test_runs_line(self, tmp_path):
        # the Taylor runs as start:stop pairs: one run up to a switch, and
        # two runs around the RODAS4 stretch of a run that hands back
        path = tmp_path / "traj.csv"
        for p, x0, horizon, line in ((DEMO, (10.0, 0.0, 0.0, 0.0), 30.0, "0:528"),
                                     (STIFF, (0.0, 0.0, 0.0, 0.0), 3.0, "0:262,308:678")):
            write_trajectory_csv(integrate(p, x0, horizon), path)
            assert path.read_text().split("\n")[1] == f"# taylor_steps={line}"

    def test_without_taylor_line_reads_as_samples(self, tmp_path):
        traj = integrate(DEMO, State.from_sequence([10.0, 0.0, 0.0, 0.0]), 30.0)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().split("\n")
        assert lines.pop(1).startswith("# taylor_steps=")
        path.write_text("\n".join(lines))
        back = read_trajectory_csv(path, DEMO)
        want = Trajectory.from_samples(DEMO, traj.t, traj.y)
        assert back.taylor_runs == want.taylor_runs == ()
        for name in ("t", "y", "_coef"):
            assert getattr(back, name).tobytes() == getattr(want, name).tobytes()

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,a,b,c,d\n0,0,0,0,0\n")
        with pytest.raises(ValueError):
            read_trajectory_csv(path, DEMO)

    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_header_only_rejected_without_warning(self, tmp_path, body):
        path = tmp_path / "empty.csv"
        path.write_text("t,x1,x2,x3,x4\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                read_trajectory_csv(path, DEMO)
        assert str(info.value) == f"trajectory CSV {path} has no data rows"


class TestFromSamples:
    def test_runs_must_be_increasing_and_apart(self, demo_traj):
        t, y = demo_traj.t[:10], demo_traj.y[:10]
        assert Trajectory.from_samples(DEMO, t, y, [(0, 3), (5, 9)]).taylor_runs == ((0, 3), (5, 9))
        for runs in ([(0, 0)], [(3, 2)], [(0, 3), (3, 5)], [(5, 7), (0, 3)]):
            with pytest.raises(ValueError, match="increasing and apart"):
                Trajectory.from_samples(DEMO, t, y, runs)
        for runs in ([(0, 10)], [(-1, 3)], [(0, 3.0)]):
            with pytest.raises(ValueError, match=r"taylor_steps must be in \[0, 9\]"):
                Trajectory.from_samples(DEMO, t, y, runs)

    def test_numpy_integer_runs(self, demo_traj):
        # numpy integers name steps like ints and are kept as ints; a boolean is no step
        t, y = demo_traj.t[:3], demo_traj.y[:3]
        traj = Trajectory.from_samples(DEMO, t, y, [(np.int64(0), np.int64(2))])
        assert traj.taylor_runs == ((0, 2),) and type(traj.taylor_runs[0][0]) is int
        assert traj._coef.tobytes() == Trajectory.from_samples(DEMO, t, y, [(0, 2)])._coef.tobytes()
        with pytest.raises(ValueError, match="taylor_steps"):
            Trajectory.from_samples(DEMO, t, y, [(False, 2)])

    def test_rows_are_not_checked_against_nodes(self):
        # a node edited by 1e-6 relative still reads; check_taylor_rows tells
        traj = integrate(DEMO, State.zero(), 5.0)
        y = traj.y.copy()
        y[10, 0] *= 1.0 + 1e-6
        back = Trajectory.from_samples(DEMO, traj.t, y, traj.taylor_runs)
        with pytest.raises(ValueError, match="Taylor row of step 9 misses its right node"):
            back.check_taylor_rows()

    def test_hermite_rebuild_accuracy(self):
        traj = integrate(DEMO, State.zero(), 20.0)
        t = np.arange(0.0, 20.0 + 1e-12, 0.05)
        rebuilt = Trajectory.from_samples(DEMO, t, traj.at(t))
        grid = np.linspace(0.0, 20.0, 641)
        assert np.abs(rebuilt.at(grid) - traj.at(grid)).max() <= 1e-5

    def test_caller_arrays_are_copied(self, demo_traj):
        t, y = demo_traj.t[:50].copy(), demo_traj.y[:50].copy()
        traj = Trajectory.from_samples(DEMO, t, y, [(0, 49)])
        want = [a.tobytes() for a in (traj.t, traj.y, traj._coef)]
        t[3] = 0.5 * (t[2] + t[3])
        y[3, 0] = 2.0 * y[3, 0] + 1.0
        assert [a.tobytes() for a in (traj.t, traj.y, traj._coef)] == want

    def test_events_survive_rebuild(self, demo_traj):
        t = np.arange(0.0, 100.0 + 1e-12, 0.01)
        rebuilt = Trajectory.from_samples(DEMO, t, demo_traj.at(t))
        first = stretches_above(demo_traj, "x1", 0.5)[0][0]
        assert abs(stretches_above(rebuilt, "x1", 0.5)[0][0] - first) <= 1e-6
        assert len(excursions_above(rebuilt, 0.2)) == 13


class TestUnitRoots:
    """The root search: vectorised brackets, each polished on plain floats."""

    def test_random_columns_pinned_bitwise(self):
        # 2,000 degree-6 columns at a nonzero level; the digest was taken from
        # the search that ran its Newton stage on whole arrays, so a root that
        # moves by one ulp fails here
        coef = np.random.default_rng(0).normal(size=(7, 2000))
        roots = sim._unit_roots(coef, 0.1, 2.0)
        assert roots.shape == (6, 2000) and np.count_nonzero(roots <= 1.0) == 956
        digest = hashlib.sha256(roots.tobytes()).hexdigest()
        assert digest == "e5e0e54debdb203b2bee7f1971449b2c3095717b70cc42c2d8297b9855c17027"

    def test_flat_newton_step_bisects(self):
        # (2s - 1)**3: the secant start is s = 0.5, where f and f' are both 0
        coef = np.array([[-1.0], [6.0], [-12.0], [8.0]])
        roots = sim._unit_roots(coef, 0.0, 2.0)
        assert roots[:, 0].tolist() == [0.49999769124829907, 2.0, 2.0]


class TestCheckTaylorRows:
    @staticmethod
    def undershooting_step(depth):
        """A Taylor step whose x4 ends depth below 0, and its clamped end node."""
        p = Params.from_sequence((3.3, 5.4, 0.4, 1.2, 0.8, 5.6, 0.16, 2.5))
        y0 = (0.0, 0.057, 0.0, 0.032)
        c = sim._taylor(p.as_tuple(), y0)
        lo, hi = 0.0, 0.62  # x4 ends above 0 at lo, below -depth at hi
        for _ in range(200):
            h = 0.5 * (lo + hi)
            end = np.array(sim._taylor_step(y0, c, h))
            if -1.5 * depth <= end[3] <= -0.5 * depth:
                break
            lo, hi = (h, hi) if end[3] > -depth else (lo, h)
        assert -1.5 * depth <= end[3] <= -0.5 * depth and (end[:3] > 0.0).all()
        return p, [0.0, h], y0, end

    @pytest.mark.parametrize("traj", ["demo", "overshoot", "stiff"])
    def test_integrated_rows_pass(self, traj, demo_traj):
        cases = {"demo": lambda: demo_traj,
                 "overshoot": lambda: integrate(DEMO, State.from_sequence([10.0, 0, 0, 0]), 30.0),
                 "stiff": lambda: integrate(STIFF, State.zero(), 3.0)}
        cases[traj]().check_taylor_rows()

    def test_a_clamped_undershoot_may_reach_abs_tol(self):
        # the integrator clamps an undershoot of at most abs_tol to 0: the
        # row may end that far below a zero node, and no further
        p, t, y0, end = self.undershooting_step(5e-11)
        traj = Trajectory.from_samples(p, t, [y0, np.maximum(end, 0.0)], [(0, 1)])
        traj.check_taylor_rows(1e-10)
        with pytest.raises(ValueError, match=r"Taylor row of step 0 misses its right node \(t=.*, x4\)"):
            traj.check_taylor_rows(1e-11)

    def test_messages_print_plain_floats_and_the_allowance(self):
        # t prints as a float, not as np.float64(...); a row that ends
        # below a node clamped to 0 names the abs_tol allowance it exceeds
        p, t, y0, end = self.undershooting_step(5e-11)
        clamped = np.maximum(end, 0.0)
        below = Trajectory.from_samples(p, t, [y0, clamped], [(0, 1)])
        with pytest.raises(ValueError) as info:
            below.check_taylor_rows(1e-11)
        assert str(info.value) == ("the Taylor row of step 0 misses its right node (t=0.6123389958962799, "
                                   "x4) by -3.69e-11, beyond the abs_tol allowance 1e-11 below a node "
                                   "clamped to 0")
        above = Trajectory.from_samples(p, t, [y0, clamped * [1.0, 0.0, 1.0, 1.0]], [(0, 1)])
        with pytest.raises(ValueError) as info:
            above.check_taylor_rows(1.0)
        assert str(info.value) == ("the Taylor row of step 0 misses its right node (t=0.6123389958962799, "
                                   "x2) by 0.22")

    def test_any_other_miss_is_named(self):
        # beyond rounding, a row must end at its node: x1 off by 1e-9
        # relative, or x2 replaced by 0 (not a clamp: the row ends above)
        p, t, y0, end = self.undershooting_step(5e-11)
        clamped = np.maximum(end, 0.0)
        for node, n in ((clamped * [1.0 + 1e-9, 1.0, 1.0, 1.0], 1), (clamped * [1.0, 0.0, 1.0, 1.0], 2)):
            traj = Trajectory.from_samples(p, t, [y0, node], [(0, 1)])
            with pytest.raises(ValueError, match=rf"Taylor row of step 0 misses its right node \(t=.*, x{n}\)"):
                traj.check_taylor_rows(1.0)
