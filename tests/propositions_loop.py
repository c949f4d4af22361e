"""Loop-form reference for check_propositions, used to test the array pass.

Each rate set is evaluated on its own with one scalar tau/ell4 call at
its L*, and the fuzzed sets are folded in draw order with a strict ``<``
on the margin.  check_propositions must give the same CheckResult, its
floats equal bit for bit.
"""

import math

import numpy as np
from conftest import random_params

from aifcert import DerivedConstants, ell4, solve_L_star, tau
from aifcert.verify import FORMULA_FUZZ_RANGE, CheckResult


def propositions_eval(p):
    """(ok, margin, location, detail) of the facts at L* for one rate set."""
    dc = DerivedConstants.from_params(p)
    L_star = solve_L_star(p)
    t = tau(p, L_star)
    floor = ell4(p, L_star, t)
    # c, d and K make dW/dt = alpha8*x1*(K - x4) for every state iff these hold
    pairs = (
        (dc.c * p.alpha4, dc.d * p.alpha5),
        (dc.d * p.alpha6, p.alpha7),
        (dc.c * p.alpha3, p.alpha8 * dc.K),
    )
    errors = (
        ("ell4 finite and positive", 0.0 if 0.0 < floor < math.inf else math.inf),
        ("fixed-point residual", abs(t - (dc.psi1 + dc.psi2 / (L_star + p.alpha1 * t))) / t),
        ("threshold residual", abs(L_star * floor - dc.theta) / dc.theta),
        ("W identity", max(abs(lhs - rhs) / rhs for lhs, rhs in pairs)),
    )

    worst = math.inf
    ok = True
    notes = []
    for label, error in errors:
        margin = float(1e-12 - error) / 1e-12
        if margin < worst:
            worst = margin
        if not error <= 1e-12:
            ok = False
            notes.append(f"{label} failed (margin {margin:.3g})")

    detail = "all facts hold; tau and ell4 at every level proved in tests/test_closed_forms.py"
    return ok, worst, L_star, detail if ok else "; ".join(notes)


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
