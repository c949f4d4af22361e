"""Machine checks of the certified properties along simulated trajectories.

Each check is a pure function returning a CheckResult with a pass/fail
status, a worst-case margin (normalized so positive means headroom), the
location where the margin is attained, and a human-readable detail line.
``build_report`` assembles the five named checks exactly once each.

Derivative-sign checks always evaluate the analytic vector field at
interpolated states; nothing here differences samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import (
    BoundCertificate,
    FixedPointConstants,
    certificate,
    ell2,
    ell3,
    ell4,
    solve_L_star,
    tau,
)
from .model import DerivedConstants, Params, State, field
from .simulate import Excursion, Trajectory, excursions_above, integrate

__all__ = [
    "CheckResult",
    "VerificationReport",
    "check_global_bounds",
    "check_excursion_lemma",
    "check_cascade_lower_bounds",
    "check_W_decrease",
    "check_propositions",
    "build_report",
    "random_params",
    "random_state",
    "FORMULA_FUZZ_RANGE",
    "SIMULATION_FUZZ_RANGE",
]

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

# Fixed fuzzing distributions.  Formula-level checks tolerate very wide
# rate constants; simulation-level fuzz stays milder so fuzzed systems
# integrate quickly at default tolerances.
FORMULA_FUZZ_RANGE = (1e-2, 1e2)
SIMULATION_FUZZ_RANGE = (0.1, 10.0)

# margin convention for strict negativity: xdot1 counts as negative
# only below -1e-9*alpha1, absorbing interpolation error
_STRICT_NEG = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | not-applicable
    margin: float | None
    location: float | None
    detail: str

    @property
    def passed(self) -> bool:
        return self.status != FAIL

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "margin": self.margin,
            "location": self.location,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    params: Params
    x0: State
    certificate: BoundCertificate

    @property
    def all_passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def to_json(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [c.to_json() for c in self.checks],
            "params": self.params.to_json(),
            "x0": self.x0.to_json(),
            "certificate": self.certificate.to_json(),
        }


def random_params(rng: np.random.Generator, lo: float, hi: float) -> Params:
    """Log-uniform rate constants in [lo, hi]."""
    alphas = np.exp(rng.uniform(math.log(lo), math.log(hi), 8))
    return Params.from_sequence(alphas)


def random_state(rng: np.random.Generator, hi: float = 2.0) -> State:
    return State.from_sequence(rng.uniform(0.0, hi, 4))


def _check_provenance(traj: Trajectory, cert: BoundCertificate) -> None:
    if traj.params != cert.params or traj.x0 != cert.x0:
        raise ValueError("certificate provenance does not match the trajectory")


def _window_grid(a: float, b: float, max_dt: float = 0.005, min_pts: int = 33) -> np.ndarray:
    n = max(min_pts, int(math.ceil((b - a) / max_dt)) + 1)
    return np.linspace(a, b, n)


def check_global_bounds(traj: Trajectory, cert: BoundCertificate) -> CheckResult:
    """Every sampled state component stays below its certificate bound."""
    _check_provenance(traj, cert)
    bounds = (cert.M1, cert.M2, cert.M3, cert.M4)
    worst_margin = math.inf
    worst_loc = float(traj.t[0])
    fail_loc = None
    parts = []
    for i, M in enumerate(bounds):
        col = traj.y[:, i]
        margins = (M - col) / M
        j = int(np.argmin(margins))
        parts.append(f"x{i + 1} max {col.max():.6g} vs M{i + 1} {M:.6g}")
        if margins[j] < worst_margin:
            worst_margin = float(margins[j])
            worst_loc = float(traj.t[j])
        viol = np.nonzero(col > M + 1e-6 * M)[0]
        if viol.size:
            t_first = float(traj.t[viol[0]])
            fail_loc = t_first if fail_loc is None else min(fail_loc, t_first)
    if fail_loc is not None:
        return CheckResult(
            "global_bounds",
            FAIL,
            worst_margin,
            fail_loc,
            "bound exceeded: " + "; ".join(parts),
        )
    return CheckResult("global_bounds", PASS, worst_margin, worst_loc, "; ".join(parts))


def check_excursion_lemma(traj: Trajectory, p: Params, cert: BoundCertificate) -> CheckResult:
    """After the waiting time, species 1 is strictly decreasing.

    For every excursion above any grid level L > L_used that lasts at
    least T0, both xdot1 < 0 (strictly, below -1e-9*alpha1) and
    x1*x4 > theta must hold on [start + T0, end].  If no excursion lasts
    that long the check passes vacuously and says so.
    """
    dc = DerivedConstants.from_params(p)
    L_used, T0 = cert.L_used, cert.T0
    eps_neg = _STRICT_NEG * p.alpha1

    ts_scan = traj.scan_times()
    x1_scan = traj.at(ts_scan)[:, 0]
    x1max = float(x1_scan.max())
    if x1max <= L_used:
        return CheckResult(
            "excursion_lemma",
            PASS,
            None,
            None,
            f"vacuous: max x1 {x1max:.6g} never exceeded L_used {L_used:.6g}",
        )

    levels = np.geomspace(L_used, x1max, 9)[1:]
    qualifying = 0
    worst_margin = math.inf
    worst_loc = None
    failed = False
    longest = 0.0
    for L in levels:
        for exc in excursions_above(traj, float(L)):
            longest = max(longest, exc.duration)
            if exc.duration < T0:
                continue
            qualifying += 1
            grid = _window_grid(exc.start + T0, exc.end)
            yw = traj.at(grid)
            xdot1 = field(p.as_tuple(), *yw.T)[0]
            prod = yw[:, 0] * yw[:, 3]
            m_neg = (-xdot1 - eps_neg) / p.alpha1
            m_prod = (prod - dc.theta) / dc.theta
            for m in (m_neg, m_prod):
                j = int(np.argmin(m))
                if m[j] < worst_margin:
                    worst_margin = float(m[j])
                    worst_loc = float(grid[j])
            if m_neg.min() <= 0.0 or m_prod.min() <= 0.0:
                failed = True
    if qualifying == 0:
        return CheckResult(
            "excursion_lemma",
            PASS,
            None,
            None,
            f"vacuous: no excursion above the level grid lasted >= T0 {T0:.6g} "
            f"(longest {longest:.6g})",
        )
    detail = (
        f"{qualifying} qualifying excursion(s); strict decrease and product "
        f"threshold checked on [start+T0, end]"
    )
    return CheckResult(
        "excursion_lemma",
        FAIL if failed else PASS,
        worst_margin,
        worst_loc,
        detail,
    )


def check_cascade_lower_bounds(
    traj: Trajectory,
    p: Params,
    L: float,
    excursion: Excursion,
    T0: float | None = None,
) -> CheckResult:
    """Stage floors along one excursion at level L.

    With time re-based to the excursion start: x2 clears its floor after
    delta2, x3 after delta2+delta3, x4 after the further delay delta4,
    and x1 stays under the window bound until T0.  An excursion shorter
    than the waiting time is reported not-applicable.

    The window bound uses the larger of L and x1 at the excursion start:
    excursions anchored at the initial time may start above their level,
    and the growth envelope then caps x1 from that starting value.  For
    interior crossings the two coincide.
    """
    L = float(L)
    T_w = tau(p, L) if T0 is None else float(T0)
    dur = excursion.duration
    if dur < T_w:
        return CheckResult(
            "cascade_lower_bounds",
            NOT_APPLICABLE,
            None,
            excursion.start,
            f"excursion [{excursion.start:.6g}, {excursion.end:.6g}] lasts "
            f"{dur:.6g} < waiting time {T_w:.6g}",
        )

    dc = DerivedConstants.from_params(p)
    ln2 = math.log(2.0)
    x1_start = float(traj.at(excursion.start)[0])
    L_up = max(L, x1_start)
    U_eff = L_up + p.alpha1 * T_w
    delta4 = ln2 / (p.alpha8 * U_eff)
    floor2 = ell2(p, L)
    floor3 = ell3(p, L)
    floor4 = dc.K * L / (8.0 * U_eff)  # ell4 with the effective window bound

    s = excursion.start
    stages = []  # (label, passed, margin, location)

    def floor_stage(label, comp, a, b, bound):
        if b < a:
            return
        grid = _window_grid(s + a, s + b)
        vals = traj.at(grid)[:, comp]
        margins = (vals - bound) / bound
        j = int(np.argmin(margins))
        stages.append((label, margins[j] >= -1e-9, float(margins[j]), float(grid[j])))

    # window cap on x1 over [0, T_w]
    grid = _window_grid(s, s + T_w)
    x1_vals = traj.at(grid)[:, 0]
    margins = (U_eff - x1_vals) / U_eff
    j = int(np.argmin(margins))
    stages.append(("x1<=window", margins[j] >= -1e-9, float(margins[j]), float(grid[j])))

    floor_stage("x2>=ell2", 1, dc.delta2, dur, floor2)
    floor_stage("x3>=ell3", 2, dc.delta2 + dc.delta3, dur, floor3)
    floor_stage("x4>=ell4", 3, dc.delta2 + dc.delta3 + delta4, T_w, floor4)

    ok = all(st[1] for st in stages)
    worst = min(stages, key=lambda st: st[2])
    detail = "; ".join(f"{label} margin {m:.3g}" for label, _, m, _ in stages)
    return CheckResult(
        "cascade_lower_bounds",
        PASS if ok else FAIL,
        worst[2],
        worst[3],
        f"excursion [{excursion.start:.6g}, {excursion.end:.6g}]: {detail}",
    )


def check_W_decrease(traj: Trajectory, p: Params, cert: BoundCertificate) -> CheckResult:
    """W = x4 + c*x2 + d*x3 cannot climb while above gamma.

    At every sample the chain-rule derivative of W must equal
    alpha8*x1*(K - x4) to within 1e-12, and wherever W > gamma that
    derivative must be <= 1e-9.
    """
    _check_provenance(traj, cert)
    dc = DerivedConstants.from_params(p)
    y = traj.y
    W = y[:, 3] + dc.c * y[:, 1] + dc.d * y[:, 2]
    f = field(p.as_tuple(), *y.T)
    w_chain = f[3] + dc.c * f[1] + dc.d * f[2]
    w_alg = p.alpha8 * y[:, 0] * (dc.K - y[:, 3])
    ident = np.abs(w_chain - w_alg)
    i_worst = int(np.argmax(ident))
    ident_ok = ident[i_worst] <= 1e-12
    parts = [f"identity worst {ident[i_worst]:.3g} at t={traj.t[i_worst]:.6g}"]

    margin = float(1e-12 - ident[i_worst])
    location = float(traj.t[i_worst])
    above = W > cert.gamma
    ok = ident_ok
    if above.any():
        w_above = w_alg[above]
        t_above = traj.t[above]
        j = int(np.argmax(w_above))
        dec_ok = w_above[j] <= 1e-9
        parts.append(
            f"{int(above.sum())} sample(s) above gamma {cert.gamma:.6g}, "
            f"max Wdot there {w_above[j]:.3g}"
        )
        if not dec_ok or float(1e-9 - w_above[j]) < margin:
            margin = float(1e-9 - w_above[j])
            location = float(t_above[j])
        ok = ok and dec_ok
    else:
        parts.append(f"no sample above gamma {cert.gamma:.6g}; decrease part vacuous")
    return CheckResult(
        "W_decrease",
        PASS if ok else FAIL,
        margin,
        location,
        "; ".join(parts),
    )


def _propositions_eval(p: Params):
    """Grid evidence for the scalar facts behind the certificate.

    Returns (ok, margin, location, detail).  Margins are normalized;
    the location is the level L at which the worst margin occurs.
    """
    fp = FixedPointConstants.from_params(p)
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

    # strict monotonicity along the grid
    d_tau = (taus[:-1] - taus[1:]) / taus[:-1]
    j = int(np.argmin(d_tau))
    record(d_tau[j] > 0.0, float(d_tau[j]), float(grid[j]), "tau decreasing")

    floor = (taus - fp.psi1) / taus
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

    # limits at large L
    t_lim = abs(tau(p, 1e9) - fp.psi1)
    record(t_lim <= 1e-6, float(1e-6 - t_lim), 1e9, "tau limit")
    L_probe = max(1e9, 1e7 * p.alpha1 * fp.psi1)
    sup_gap = dc.K / 8.0 - ell4(p, L_probe, tau(p, L_probe))
    sup_tol = 1e-6 * max(1.0, dc.K / 8.0)
    record(sup_gap <= sup_tol, float(sup_tol - sup_gap), L_probe, "ell4 supremum")

    # fixed-point residual of the waiting time
    res_grid = np.geomspace(1e-3, 1e6, 20)
    res_worst, res_loc = -math.inf, None
    for L in res_grid:
        tv = tau(p, float(L))
        r = abs(tv - (fp.psi1 + fp.psi2 / (L + p.alpha1 * tv))) / tv
        if r > res_worst:
            res_worst, res_loc = r, float(L)
    record(res_worst <= 1e-12, float(1e-12 - res_worst) / 1e-12, res_loc, "fixed-point residual")

    # threshold equation is bracket-solvable and its root is admissible
    L_star = solve_L_star(p)
    res = abs(L_star * ell4(p, L_star, tau(p, L_star)) - dc.theta)
    record(res <= 1e-12 * dc.theta, float(1e-12 * dc.theta - res) / dc.theta, L_star, "threshold residual")

    detail = "all grid and limit facts hold" if ok else "; ".join(notes)
    return ok, worst[0], worst[1], detail


def check_propositions(p: Params, fuzz_count: int = 0, fuzz_seed: int = 0) -> CheckResult:
    """Scalar facts about tau, ell4, L*ell4 and the threshold equation.

    With fuzz_count > 0 the same evaluation also runs over that many
    random parameter sets (log-uniform in FORMULA_FUZZ_RANGE) and the
    worst outcome is folded into this single record.
    """
    ok, margin, loc, detail = _propositions_eval(p)
    if fuzz_count > 0:
        rng = np.random.default_rng(fuzz_seed)
        fails = 0
        for _ in range(int(fuzz_count)):
            fp = random_params(rng, *FORMULA_FUZZ_RANGE)
            f_ok, f_margin, f_loc, _ = _propositions_eval(fp)
            if f_margin < margin:
                margin, loc = f_margin, f_loc
            if not f_ok:
                fails += 1
        ok = ok and fails == 0
        detail += f"; fuzz x{fuzz_count} (seed {fuzz_seed}): {fails} failure(s)"
    return CheckResult("propositions", PASS if ok else FAIL, margin, loc, detail)


def build_report(
    p: Params,
    x0: State,
    horizon: float = 100.0,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
    L_override: float | None = None,
    cert: BoundCertificate | None = None,
    traj: Trajectory | None = None,
    fuzz_count: int = 0,
    fuzz_seed: int = 0,
) -> VerificationReport:
    """Run the five named checks once each and assemble the report.

    ``cert`` and ``traj`` may be supplied (e.g. loaded from files); when
    omitted they are computed from the other arguments.
    """
    if not isinstance(x0, State):
        x0 = State.from_sequence(x0)
    if cert is None:
        cert = certificate(p, x0, L_override)
    if traj is None:
        traj = integrate(p, x0, horizon, rel_tol, abs_tol)

    checks = [
        check_global_bounds(traj, cert),
        check_excursion_lemma(traj, p, cert),
        _cascade_record(traj, p, cert),
        check_W_decrease(traj, p, cert),
        check_propositions(p, fuzz_count=fuzz_count, fuzz_seed=fuzz_seed),
    ]
    return VerificationReport(tuple(checks), p, x0, cert)


def _cascade_record(traj: Trajectory, p: Params, cert: BoundCertificate) -> CheckResult:
    """One aggregated cascade record over the certificate-level excursions."""
    excs = excursions_above(traj, cert.L_used)
    qualifying = [e for e in excs if e.duration >= cert.T0]
    if not qualifying:
        longest = max((e.duration for e in excs), default=0.0)
        return CheckResult(
            "cascade_lower_bounds",
            NOT_APPLICABLE,
            None,
            None,
            f"no excursion above L_used {cert.L_used:.6g} lasted >= T0 {cert.T0:.6g} "
            f"({len(excs)} excursion(s), longest {longest:.6g})",
        )
    results = [
        check_cascade_lower_bounds(traj, p, cert.L_used, e, T0=cert.T0) for e in qualifying
    ]
    worst = min(results, key=lambda r: math.inf if r.margin is None else r.margin)
    status = FAIL if any(r.status == FAIL for r in results) else PASS
    agg = replace(
        worst,
        status=status,
        detail=f"{len(qualifying)} qualifying excursion(s); worst: {worst.detail}",
    )
    return agg
