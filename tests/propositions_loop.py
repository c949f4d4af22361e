"""Loop-form reference for check_propositions, used to test the array pass.

Each rate set is evaluated on its own with one scalar tau/ell4 call per
level, and the fuzzed sets are folded in draw order with a strict ``<``
on the margin.  check_propositions must give the same CheckResult, its
floats equal bit for bit.
"""

import math

import numpy as np
from conftest import random_params

from aifcert import DerivedConstants, ell4, solve_L_star, tau
from aifcert.verify import FORMULA_FUZZ_RANGE, CheckResult


def propositions_eval(p):
    """(ok, margin, location, detail) of the grid and limit facts for one rate set."""
    dc = DerivedConstants.from_params(p)
    grid = np.geomspace(1e-3, 1e6, 40)
    taus = np.array([tau(p, float(L)) for L in grid])
    l4s = np.array([ell4(p, float(L), float(tv)) for L, tv in zip(grid, taus)])

    worst = (math.inf, None)  # margin, location
    ok = True
    notes = []

    def record(cond, margin, loc, label):
        nonlocal ok, worst
        if margin < worst[0]:
            worst = (margin, loc)
        if not cond:
            ok = False
            notes.append(f"{label} failed (margin {margin:.3g})")

    d_tau = (taus[:-1] - taus[1:]) / taus[:-1]
    j = int(np.argmin(d_tau))
    record(d_tau[j] > 0.0, float(d_tau[j]), float(grid[j]), "tau decreasing")

    floor = (taus - dc.psi1) / taus
    j = int(np.argmin(floor))
    record(floor[j] > 0.0, float(floor[j]), float(grid[j]), "tau above psi1")

    d_l4 = (l4s[1:] - l4s[:-1]) / l4s[1:]
    j = int(np.argmin(d_l4))
    record(d_l4[j] > 0.0, float(d_l4[j]), float(grid[j]), "ell4 increasing")

    sup = (dc.K / 8.0 - l4s) / (dc.K / 8.0)
    j = int(np.argmin(sup))
    record(sup[j] > 0.0, float(sup[j]), float(grid[j]), "ell4 below K/8")

    lel4 = grid * l4s
    d_lel4 = (lel4[1:] - lel4[:-1]) / lel4[1:]
    j = int(np.argmin(d_lel4))
    record(d_lel4[j] > 0.0, float(d_lel4[j]), float(grid[j]), "L*ell4 increasing")

    t_lim = abs(tau(p, 1e9) - dc.psi1)
    record(t_lim <= 1e-6, float(1e-6 - t_lim), 1e9, "tau limit")
    L_probe = max(1e9, 1e7 * p.alpha1 * dc.psi1)
    sup_gap = dc.K / 8.0 - ell4(p, L_probe, tau(p, L_probe))
    sup_tol = 1e-6 * max(1.0, dc.K / 8.0)
    record(sup_gap <= sup_tol, float(sup_tol - sup_gap), L_probe, "ell4 supremum")

    res_grid = np.geomspace(1e-3, 1e6, 20)
    res_worst, res_loc = -math.inf, None
    for L in res_grid:
        tv = tau(p, float(L))
        r = abs(tv - (dc.psi1 + dc.psi2 / (L + p.alpha1 * tv))) / tv
        if r > res_worst:
            res_worst, res_loc = r, float(L)
    record(res_worst <= 1e-12, float(1e-12 - res_worst) / 1e-12, res_loc, "fixed-point residual")

    L_star = solve_L_star(p)
    res = abs(L_star * ell4(p, L_star, tau(p, L_star)) - dc.theta)
    record(res <= 1e-12 * dc.theta, float(1e-12 * dc.theta - res) / dc.theta, L_star, "threshold residual")

    # c, d and K make dW/dt = alpha8*x1*(K - x4) for every state iff these hold
    pairs = (
        (dc.c * p.alpha4, dc.d * p.alpha5),
        (dc.d * p.alpha6, p.alpha7),
        (dc.c * p.alpha3, p.alpha8 * dc.K),
    )
    ident = max(abs(lhs - rhs) / rhs for lhs, rhs in pairs)
    record(ident <= 1e-12, float(1e-12 - ident) / 1e-12, L_star, "W identity")

    detail = "all grid and limit facts hold" if ok else "; ".join(notes)
    return ok, worst[0], worst[1], detail


def check_propositions_loop(p, fuzz_count=0, fuzz_seed=0):
    """The nominal set, then fuzz_count drawn sets folded in draw order."""
    ok, margin, loc, detail = propositions_eval(p)
    if fuzz_count > 0:
        rng = np.random.default_rng(fuzz_seed)
        fails = 0
        for _ in range(fuzz_count):
            f_ok, f_margin, f_loc, _ = propositions_eval(random_params(rng, *FORMULA_FUZZ_RANGE))
            if f_margin < margin:
                margin, loc = f_margin, f_loc
            if not f_ok:
                fails += 1
        ok = ok and fails == 0
        detail += f"; fuzz x{fuzz_count} (seed {fuzz_seed}): {fails} failure(s)"
    return CheckResult("propositions", "pass" if ok else "fail", margin, loc, detail)
