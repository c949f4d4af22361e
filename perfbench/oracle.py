"""Reference computations the benchmark checks aifcert's outputs against.

Nothing here uses aifcert.  The vector field, its Jacobian and the
certificate formulas are written out again from the system

    dx1/dt = a1 - a2*x1*x4          dx3/dt = a5*x2 - a6*x3
    dx2/dt = a3*x1 - a4*x2          dx4/dt = a7*x3 - a8*x1*x4

and trajectories come from scipy's solve_ivp: DOP853, or Radau or LSODA
with the analytic Jacobian.  Every ``*_problems`` and
``compare_*`` function returns a list of problem descriptions; an empty
list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

LN2 = math.log(2.0)
# |program - reference| may reach STATE_TOL * (max |reference| over the
# span) + STATE_ABS per component.  The program integrates at rel_tol 1e-8
# and abs_tol 1e-10; its global error against these references stays
# below 2e-7 relative and 3e-10 absolute.
STATE_TOL = 1e-6
STATE_ABS = 1e-8
CERT_TOL = 1e-9  # relative, on L*, T0, M1..M4, gamma, W0
EVENT_TOL = 1e-6  # time units, on excursion endpoints
BOUND_SLACK = 1e-9  # relative, reference trajectory against M1..M4
CHECK_NAMES = ("global_bounds", "excursion_lemma", "cascade_lower_bounds", "W_decrease", "propositions")


def field(a):
    a1, a2, a3, a4, a5, a6, a7, a8 = a

    def f(t, x):
        return [
            a1 - a2 * x[0] * x[3],
            a3 * x[0] - a4 * x[1],
            a5 * x[1] - a6 * x[2],
            a7 * x[2] - a8 * x[0] * x[3],
        ]

    return f


def jacobian(a):
    a1, a2, a3, a4, a5, a6, a7, a8 = a

    def jac(t, x):
        return [
            [-a2 * x[3], 0.0, 0.0, -a2 * x[0]],
            [a3, -a4, 0.0, 0.0],
            [0.0, a5, -a6, 0.0],
            [-a8 * x[3], 0.0, a7, -a8 * x[0]],
        ]

    return jac


SOLVERS = {
    "DOP853": dict(method="DOP853", rtol=1e-12, atol=1e-14),
    "Radau": dict(method="Radau", rtol=1e-10, atol=1e-13),
    "LSODA": dict(method="LSODA", rtol=1e-10, atol=1e-13),
}


def solve(a, x0, horizon, method="DOP853", events=None):
    """Dense reference solution on [0, horizon]; implicit methods get the analytic Jacobian."""
    kw = dict(SOLVERS[method])
    if method != "DOP853":
        kw["jac"] = jacobian(a)
    sol = solve_ivp(field(a), (0.0, horizon), list(x0), dense_output=True, events=events, **kw)
    if sol.status != 0:
        raise RuntimeError(f"reference solver failed: {sol.message}")
    return sol


# --- certificate -----------------------------------------------------------


def tau(a, L):
    """Positive root of tau = psi1 + psi2 / (L + a1*tau).

    Cleared of its denominator: a1*tau**2 + (L - a1*psi1)*tau - (psi1*L + psi2) = 0,
    whose roots have a negative product, so exactly one is positive.
    """
    a1, a4, a6, a8 = a[0], a[3], a[5], a[7]
    psi1 = LN2 / a4 + LN2 / a6
    psi2 = LN2 / a8
    B = L - a1 * psi1
    C = psi1 * L + psi2
    disc = math.sqrt(B * B + 4.0 * a1 * C)
    return 2.0 * C / (B + disc) if B > 0.0 else (disc - B) / (2.0 * a1)


def _K(a):
    return a[2] * a[4] * a[6] / (a[3] * a[5] * a[7])


def ell4(a, L, T):
    return _K(a) * L / (8.0 * (L + a[0] * T))


def L_star(a):
    """Root of L*ell4(L, tau(L)) = theta = a1/a2, found by brentq."""
    theta = a[0] / a[1]

    def gap(L):
        return L * ell4(a, L, tau(a, L)) - theta

    lo, hi = 1.0, 1.0
    while gap(lo) >= 0.0:
        lo /= 2.0
    while gap(hi) <= 0.0:
        hi *= 2.0
    return brentq(gap, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=500)


def certificate(a, x0, L=None):
    """L*, T0, M1..M4, gamma and W0 from their closed forms."""
    a1, a2, a3, a4, a5, a6, a7, a8 = a
    Ls = L_star(a)
    L_used = Ls if L is None else float(L)
    T0 = tau(a, L_used)
    c = a5 * a7 / (a4 * a6)
    d = a7 / a6
    M1 = max(x0[0], L_used) + a1 * T0
    M2 = max(x0[1], a3 / a4 * M1)
    M3 = max(x0[2], a5 / a6 * M2)
    W0 = x0[3] + c * x0[1] + d * x0[2]
    gamma = _K(a) + c * M2 + d * M3
    return {
        "L_star": Ls, "L_used": L_used, "T0": T0, "M1": M1, "M2": M2, "M3": M3,
        "M4": max(W0, gamma), "gamma": gamma, "W0": W0,
    }


def compare_certificate(got: dict, ref: dict, tag: str) -> list[str]:
    problems = []
    for key, want in ref.items():
        have = got.get(key)
        if have is None or not abs(have - want) <= CERT_TOL * abs(want):
            problems.append(f"{tag}: {key} = {have!r}, reference {want!r}")
    return problems


# --- trajectories ----------------------------------------------------------


def compare_states(times, values, sol, tag: str) -> list[str]:
    """Program states at ``times`` against the reference's dense output."""
    ref = sol.sol(np.asarray(times)).T
    values = np.asarray(values)
    if values.shape != ref.shape:
        return [f"{tag}: states of shape {values.shape}, reference {ref.shape}"]
    allowed = STATE_TOL * np.abs(ref).max(axis=0) + STATE_ABS
    err = np.abs(values - ref).max(axis=0)
    if not (err <= allowed).all():
        return [f"{tag}: states deviate from the reference by {err.tolist()}, allowed {allowed.tolist()}"]
    return []


def bound_problems(sol, horizon, cert: dict, tag: str) -> list[str]:
    """The reference trajectory stays under the program's M1..M4."""
    ref = np.concatenate([sol.sol(np.linspace(0.0, horizon, 4001)), sol.y], axis=1)
    problems = []
    for i in range(4):
        M = cert[f"M{i + 1}"]
        peak = float(ref[i].max())
        if peak > M * (1.0 + BOUND_SLACK):
            problems.append(f"{tag}: reference x{i + 1} reaches {peak!r} above M{i + 1} = {M!r}")
    return problems


def event_levels(L_used: float) -> list[float]:
    """L_used * 2**k for k = -8..2: the overshoot case's x1 runs from 0.0005 to 10.1,
    so every level is crossed transversally."""
    return [L_used * 2.0**k for k in range(-8, 3)]


def level_events(levels):
    return [lambda t, x, level=level: x[0] - level for level in levels]


def excursions(sol, x0, horizon, levels) -> list[list[tuple[float, float]]]:
    """For each level, the maximal intervals with x1 >= level.

    ``sol`` must come from solve(..., events=level_events(levels)).
    """
    found = []
    for level, t_cross in zip(levels, sol.t_events):
        inside = x0[0] >= level
        out, start = [], 0.0 if inside else None
        for t in t_cross:
            if inside:
                out.append((start, float(t)))
            else:
                start = float(t)
            inside = not inside
        if inside:
            out.append((start, float(horizon)))
        found.append(out)
    return found


def compare_excursions(level, got, ref, tag: str) -> list[str]:
    if len(got) != len(ref):
        return [f"{tag}: {len(got)} excursion(s) above {level:.6g}, reference has {len(ref)}"]
    worst = max((abs(g - r) for pg, pr in zip(got, ref) for g, r in zip(pg, pr)), default=0.0)
    if worst > EVENT_TOL:
        return [f"{tag}: excursion endpoints above {level:.6g} off by {worst:.3g}"]
    return []


# --- report properties -------------------------------------------------------


def report_problems(report: dict, tag: str) -> list[str]:
    """Each check appears exactly once and none failed."""
    names = [c["name"] for c in report["checks"]]
    problems = []
    if sorted(names) != sorted(CHECK_NAMES):
        problems.append(f"{tag}: check names {names}")
    failed = [c["name"] for c in report["checks"] if c["status"] == "fail"]
    if failed:
        problems.append(f"{tag}: failed checks {failed}")
    return problems
