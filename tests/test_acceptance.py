"""End-to-end acceptance checks.

Each test prints one summary line with the measured values so the
outcome is auditable from the test log alone.  Budgets are wall-clock
upper bounds measured around the operation under test.
"""

import time

import numpy as np
import pytest

from conftest import DEMO, GOLDEN, log_uniform
from sampling import scan_times

from aifcert import (
    DerivedConstants,
    Params,
    State,
    certificate,
    check_global_bounds,
    check_propositions,
    ell4,
    equilibrium,
    excursions_above,
    field,
    growth_envelope,
    integrate,
    propagate_fixed,
    solve_L_star,
    tau,
    vector_field,
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)


def test_01_demo_certificate_reproduction():
    t0 = time.perf_counter()
    cert = certificate(DEMO, State.zero(), 1.75)
    dt = time.perf_counter() - t0
    got = (cert.T0, cert.M1, cert.M2, cert.M3, cert.M4)
    want = (GOLDEN["T0"], GOLDEN["M1"], GOLDEN["M2"], GOLDEN["M3"], GOLDEN["M4"])
    ok = all(abs(g - w) <= 1e-3 for g, w in zip(got, want)) and dt < 1.0
    report(
        "demo certificate",
        ok,
        "T0/M1/M2/M3/M4 = "
        + " / ".join(f"{v:.4f}" for v in got)
        + f" (want {' / '.join(f'{v:.4f}' for v in want)} each +-1e-3), {dt:.3f}s",
    )
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-3
    assert dt < 1.0


def test_02_threshold_level():
    dc = DerivedConstants.from_params(DEMO)
    t0 = time.perf_counter()
    L = solve_L_star(DEMO)
    dt = time.perf_counter() - t0
    resid = abs(L * ell4(DEMO, L, tau(DEMO, L)) - dc.theta) / dc.theta
    coarse = 4.0 * dc.theta / dc.K
    ok = (
        coarse < L < 1.75
        and resid <= 1e-12
        and abs(L - GOLDEN["L_star"]) <= 1e-9
        and dt < 1.0
    )
    report(
        "threshold level",
        ok,
        f"L = {L:.15f} (golden {GOLDEN['L_star']:.15f}), residual {resid:.2e}, "
        f"bracket ({coarse:.3f}, 1.75), {dt:.3f}s",
    )
    assert coarse < L < 1.75
    assert resid <= 1e-12
    assert abs(L - GOLDEN["L_star"]) <= 1e-9
    assert dt < 1.0


@pytest.mark.parametrize(
    "x0_vals",
    [(0.0, 0.0, 0.0, 0.0), (0.043, 0.332, 0.407, 0.756)],
    ids=["origin", "interior"],
)
def test_03_certified_bounds_hold(x0_vals):
    x0 = State.from_sequence(x0_vals)
    t0 = time.perf_counter()
    traj = integrate(DEMO, x0, 200.0)
    cert = certificate(DEMO, x0)
    res = check_global_bounds(traj, cert)
    dt = time.perf_counter() - t0
    ok = res.status == "pass" and dt < 10.0
    report(
        f"certified bounds from {x0_vals}",
        ok,
        f"{res.detail}; margin {res.margin:.4f}, {dt:.2f}s",
    )
    assert res.status == "pass"
    assert dt < 10.0


def test_04_oscillation_witness():
    traj = integrate(DEMO, State.zero(), 200.0)
    grid = np.arange(100.0, 200.0, 0.01)
    x1 = traj.at(grid)[:, 0]
    interior = x1[1:-1]
    peaks = interior[(interior > x1[:-2]) & (interior > x1[2:])]
    spread = (peaks.max() - peaks.min()) / peaks.mean()
    ok = len(peaks) >= 5 and spread <= 0.02
    report(
        "oscillation witness",
        ok,
        f"{len(peaks)} maxima of species 1 on [100, 200], relative spread {spread:.2e}",
    )
    assert len(peaks) >= 5
    assert spread <= 0.02


def test_05_growth_envelopes_dominate():
    rng = np.random.default_rng(20250814)
    t0 = time.perf_counter()
    worst = np.inf
    for _ in range(100):
        p = Params.from_sequence(log_uniform(rng, 0.1, 10.0, 8))
        x0 = State.from_sequence(rng.uniform(0.0, 2.0, 4))
        traj = integrate(p, x0, 10.0)
        ts = scan_times(traj)
        ys = traj.at(ts)
        env = np.array([growth_envelope(p, x0, t) for t in ts])
        worst = min(worst, float((env - ys).min()))
    dt = time.perf_counter() - t0
    ok = worst >= -1e-6 and dt < 60.0
    report(
        "growth envelopes",
        ok,
        f"100 fuzzed systems to horizon 10, worst margin {worst:.3e}, {dt:.1f}s",
    )
    assert worst >= -1e-6
    assert dt < 60.0


def test_06_proposition_suite():
    t0 = time.perf_counter()
    res = check_propositions(DEMO, fuzz_count=100, fuzz_seed=1729)
    dt = time.perf_counter() - t0
    ok = res.status == "pass" and dt < 5.0
    report("proposition suite", ok, f"{res.detail}, {dt:.2f}s")
    assert res.status == "pass"
    assert dt < 5.0


def test_07_excursion_witness():
    # A start at (10, 0, 0, 0) overshoots the certified level, so the
    # check looks for an excursion above 1.75 lasting at least the
    # certified waiting time, on which species 1 must strictly decrease
    # with the annihilation product above 1/30.
    dc = DerivedConstants.from_params(DEMO)
    x0 = State.from_sequence([10.0, 0.0, 0.0, 0.0])
    t0 = time.perf_counter()
    traj = integrate(DEMO, x0, 30.0)
    cert = certificate(DEMO, x0, 1.75)
    exc = excursions_above(traj, 1.75)
    qualifying = [e for e in exc if e.duration >= cert.T0]
    conditions_ok = True
    for e in qualifying:
        grid = np.linspace(e.start + cert.T0, e.end, 200)
        ys = traj.at(grid)
        xdot1 = field(DEMO.as_tuple(), *ys.T)[0]
        prod = ys[:, 0] * ys[:, 3]
        conditions_ok &= bool((xdot1 < -1e-9 * DEMO.alpha1).all())
        conditions_ok &= bool((prod > dc.theta).all())
    dt = time.perf_counter() - t0
    longest = max((e.duration for e in exc), default=0.0)
    ok = bool(qualifying) and conditions_ok and dt < 5.0
    report(
        "excursion witness",
        ok,
        f"{len(exc)} excursion(s) above 1.75, longest {longest:.4f}, "
        f"waiting time {cert.T0:.4f}, qualifying: {len(qualifying)}, {dt:.2f}s",
    )
    assert qualifying, (
        f"no excursion above 1.75 lasts the full waiting time: longest is "
        f"{longest:.4f} < T0 = {cert.T0:.4f}; the feedback provably reacts "
        f"before the certified delay elapses for these gains, so the bound "
        f"T0 is conservative here (see the decrease check for the verified "
        f"form of the same claim)"
    )
    assert conditions_ok
    assert dt < 5.0


def test_08_equilibrium_sanity():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        p = Params.from_sequence(log_uniform(rng, 0.5, 2.0, 8))
        f = vector_field(p, equilibrium(p))
        worst = max(worst, max(abs(v) for v in f))
    eq = equilibrium(DEMO)
    traj = integrate(DEMO, eq, 10.0)
    drift = float(np.abs(traj.y - np.array(eq.as_tuple())).max())
    ok = worst <= 1e-12 and drift < 1e-6
    report(
        "equilibrium sanity",
        ok,
        f"worst field residual {worst:.2e} over 1000 fuzzed systems, "
        f"drift {drift:.2e} over horizon 10",
    )
    assert worst <= 1e-12
    assert drift < 1e-6


def test_09_integrator_convergence():
    import math

    ref = integrate(DEMO, State.zero(), 10.0, 1e-12, 1e-13).y[-1]
    discrepancies = []
    for k in range(5):
        rt = 1e-6 * 0.5**k
        traj = integrate(DEMO, State.zero(), 10.0, rt, rt * 1e-2)
        discrepancies.append(float(np.abs(traj.y[-1] - ref).max()))
    shrinking = all(a > b for a, b in zip(discrepancies, discrepancies[1:]))

    fixed_ref = propagate_fixed(DEMO, State.zero(), 5.0, 64000)
    errs = [
        np.abs(propagate_fixed(DEMO, State.zero(), 5.0, n) - fixed_ref).max()
        for n in (250, 500, 1000)
    ]
    slope = min(math.log2(errs[i] / errs[i + 1]) for i in range(2))
    ok = shrinking and slope >= 4.0
    report(
        "integrator convergence",
        ok,
        f"endpoint discrepancy under tolerance halving {discrepancies[0]:.1e}"
        f" -> {discrepancies[-1]:.1e} (monotone: {shrinking}), "
        f"step-halving order {slope:.2f}",
    )
    assert shrinking
    assert slope >= 4.0
