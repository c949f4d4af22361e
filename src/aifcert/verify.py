"""Machine checks of the certified properties along simulated trajectories.

Each check is a pure function returning a CheckResult with a pass/fail
status, a worst-case margin (normalized so positive means headroom), the
location where the margin is attained, and a human-readable detail line.
``build_report`` assembles the five named checks exactly once each.

Every check quantifies over what its claim quantifies over: the
interpolant, through the exact windowed extrema of Trajectory.extrema
(the lemma reads p = x1*x4, since xdot1 = alpha1 - alpha2*p, and
W_decrease W_rate = dW/dt), or a closed form.  Nothing here samples or
differences the trajectory.  A check asks for all the extrema it needs
in one batched search: global_bounds for the four components, the
cascade for the four stages of an excursion, the lemma and W_decrease
for all their windows.  The lemma and the cascade read one set of
excursions, those above L_used, which excursions_above finds once and
keeps on the trajectory: an excursion above any higher level, and its
window [start+T0, end], lies inside one of them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from types import SimpleNamespace

import numpy as np

from .bounds import (
    BoundCertificate,
    certificate,
    ell2,
    ell3,
    ell4,
    solve_L_star,
    tau,
    window_upper,
)
from .model import DerivedConstants, Params, State, _is_integer
from .simulate import (
    Excursion,
    Trajectory,
    excursions_above,
    integrate,
    stretches_above,
)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "check_global_bounds",
    "check_excursion_lemma",
    "check_cascade_lower_bounds",
    "check_W_decrease",
    "check_propositions",
    "build_report",
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

    def to_json(self) -> dict:
        return asdict(self)


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


def _check_provenance(traj: Trajectory, p: Params, cert=None, x0=None) -> None:
    """Raise a ValueError unless the rates p, and cert and x0 if given, are the trajectory's own."""
    if cert is not None and (traj.params != cert.params or traj.x0 != cert.x0):
        raise ValueError("certificate provenance does not match the trajectory")
    if p != traj.params:
        raise ValueError("rate constants do not match the trajectory")
    if x0 is not None and x0 != traj.x0:
        raise ValueError("x0 does not match the trajectory's initial state")


def check_global_bounds(traj: Trajectory, cert: BoundCertificate) -> CheckResult:
    """Each state component stays below its certificate bound.

    The comparison is against the exact maximum of the interpolant, not
    just the step nodes.  A failure is located at the start of the first
    stretch where a component is at or above its bound plus 1e-6
    relative (at t0 if it starts there), or at the maximum if rounding
    leaves no such stretch.
    """
    _check_provenance(traj, cert.params, cert)
    bounds = (cert.M1, cert.M2, cert.M3, cert.M4)
    worst_margin = math.inf
    worst_loc = float(traj.t[0])
    fail_loc = None
    parts = []
    for i, (M, (top, t_top)) in enumerate(zip(bounds, traj.maxima)):
        margin = (M - top) / M
        parts.append(f"x{i + 1} max {top:.6g} vs M{i + 1} {M:.6g}")
        if margin < worst_margin:
            worst_margin, worst_loc = margin, t_top
        limit = M + 1e-6 * M
        if top > limit:
            above = stretches_above(traj, f"x{i + 1}", limit)
            t_first = above[0][0] if above else t_top
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


def _long_excursions(traj: Trajectory, cert: BoundCertificate):
    """(excursions above L_used, those lasting T0, longest duration or 0); none if max x1 < L_used."""
    excs = excursions_above(traj, cert.L_used) if traj.maxima[0][0] >= cert.L_used else []
    longest = max((e.duration for e in excs), default=0.0)
    return excs, [e for e in excs if e.duration >= cert.T0], longest


def check_excursion_lemma(traj: Trajectory, p: Params, cert: BoundCertificate) -> CheckResult:
    """After the waiting time, species 1 is strictly decreasing.

    For every level L >= L_used and every excursion above L that lasts
    at least T0, both xdot1 < 0 (strictly, below -1e-9*alpha1) and
    x1*x4 > theta must hold on [start + T0, end].  An excursion above L
    lies inside one above L_used, and so does its window, so checking
    the excursions above L_used covers every level, each in the form
    with T0 = tau(L_used); the lemma's shorter wait tau(L) at a level
    L > L_used is not checked.  Both claims follow from the exact
    minimum of p = x1*x4 on each window, because xdot1 = alpha1 -
    alpha2*p.  If max x1 (Trajectory.maxima, kept from global_bounds)
    is at most L_used, or no excursion lasts T0, the check passes
    vacuously and says so.  _long_excursions serves the cascade record too.
    """
    _check_provenance(traj, p, cert)
    L_used, T0 = cert.L_used, cert.T0
    x1max = traj.maxima[0][0]
    if x1max <= L_used:
        return CheckResult(
            "excursion_lemma",
            PASS,
            None,
            None,
            f"vacuous: max x1 {x1max:.6g} never exceeded L_used {L_used:.6g}",
        )
    _, qualifying, longest = _long_excursions(traj, cert)
    if not qualifying:
        return CheckResult(
            "excursion_lemma",
            PASS,
            None,
            None,
            f"vacuous: no excursion above L_used {L_used:.6g} lasted >= T0 {T0:.6g} "
            f"(longest {longest:.6g})",
        )
    worst_margin, worst_loc = math.inf, None
    for low, t_low in traj.extrema([("min", "p", e.start + T0, e.end) for e in qualifying]):
        margin = (p.alpha2 * low - p.alpha1 - _STRICT_NEG * p.alpha1) / p.alpha1
        if margin < worst_margin:
            worst_margin, worst_loc = margin, t_low
    detail = (
        f"{len(qualifying)} qualifying excursion(s); strict decrease and product "
        f"threshold checked on [start+T0, end]"
    )
    return CheckResult(
        "excursion_lemma",
        FAIL if worst_margin <= 0.0 else PASS,
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
    and x1 stays under the window bound until T0.  Each stage compares
    the exact minimum (for x1 the maximum) of the interpolant on its
    window.  An excursion shorter than the waiting time is reported
    not-applicable.

    The window bound uses the larger of L and x1 at the excursion start:
    excursions anchored at the initial time may start above their level,
    and the growth envelope then caps x1 from that starting value.  For
    interior crossings the two coincide.
    """
    _check_provenance(traj, p)
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
    s = excursion.start
    U_eff = window_upper(p, max(L, float(traj.at(s)[0])), T_w)
    delta4 = math.log(2.0) / (p.alpha8 * U_eff)
    # (label, sense, observable, window start and end after s, bound); empty windows drop out
    windows = [w for w in (
        ("x1<=window", "max", "x1", 0.0, T_w, U_eff),
        ("x2>=ell2", "min", "x2", dc.delta2, dur, ell2(p, L)),
        ("x3>=ell3", "min", "x3", dc.psi1, dur, ell3(p, L)),
        # ell4 with the effective window bound
        ("x4>=ell4", "min", "x4", dc.psi1 + delta4, T_w, dc.K * L / (8.0 * U_eff)),
    ) if w[3] <= w[4]]
    found = traj.extrema([(sense, name, s + a, s + b) for _, sense, name, a, b, _ in windows])
    stages = [  # (label, margin, location)
        (label, (bound - v if sense == "max" else v - bound) / bound, at)
        for (label, sense, _, _, _, bound), (v, at) in zip(windows, found)
    ]

    worst = min(stages, key=lambda st: st[1])
    detail = "; ".join(f"{label} margin {m:.3g}" for label, m, _ in stages)
    return CheckResult(
        "cascade_lower_bounds",
        PASS if worst[1] >= -1e-9 else FAIL,
        worst[1],
        worst[2],
        f"excursion [{excursion.start:.6g}, {excursion.end:.6g}]: {detail}",
    )


def check_W_decrease(traj: Trajectory, p: Params, cert: BoundCertificate) -> CheckResult:
    """W = x4 + c*x2 + d*x3 cannot climb while above gamma.

    By the chain rule dW/dt = (d*a5 - c*a4)*x2 + (a7 - d*a6)*x3
    + c*a3*x1 - a8*x1*x4, which equals alpha8*x1*(K - x4) for every state
    iff c*a4 = d*a5, d*a6 = a7 and c*a3 = a8*K; each must hold to 1e-12
    relative.  Wherever the interpolant's W exceeds gamma (stretches_above),
    between the nodes too, that derivative, W_rate, must be <= 1e-9.
    """
    _check_provenance(traj, p, cert)
    dc = DerivedConstants.from_params(p)
    pairs = (
        (dc.c * p.alpha4, dc.d * p.alpha5),
        (dc.d * p.alpha6, p.alpha7),
        (dc.c * p.alpha3, p.alpha8 * dc.K),
    )
    ident = max(abs(lhs - rhs) / rhs for lhs, rhs in pairs)
    margin, location = 1e-12 - ident, None
    parts = [f"identity worst {ident:.3g} (c*a4 = d*a5, d*a6 = a7, c*a3 = a8*K)"]
    windows = [("max", "W_rate", a, b) for a, b in stretches_above(traj, "W", cert.gamma) if a < b]
    if windows:
        top, t_top = max(traj.extrema(windows), key=lambda f: f[0])  # the first largest
        parts.append(f"W above gamma {cert.gamma:.6g}, max Wdot there {top:.3g}")
        if 1e-9 - top < margin:
            margin, location = 1e-9 - top, t_top
    else:
        parts.append(f"W never above gamma {cert.gamma:.6g}; decrease part vacuous")
    return CheckResult(
        "W_decrease",
        PASS if margin >= 0.0 else FAIL,
        margin,
        location,
        "; ".join(parts),
    )


# Levels of the grid facts and of the fixed-point residual, and the facts in record order
_GRID = np.geomspace(1e-3, 1e6, 40)
_RES_GRID = np.geomspace(1e-3, 1e6, 20)
_LEVELS = np.r_[_GRID, _RES_GRID, 1e9]
_CHUNK = 1024  # rate sets per array pass, which bounds the memory of a large fuzz count
_FACTS = ("tau decreasing", "tau above psi1", "ell4 increasing", "ell4 below K/8", "L*ell4 increasing",
          "tau limit", "ell4 supremum", "fixed-point residual", "threshold residual")


def _propositions(rates: np.ndarray):
    """(holds, margin, location) of each fact (columns) for each rate set (rows).

    ``rates`` holds one set's alpha1..alpha8 per row.  Margins are
    normalized, a location is the level of its margin; all levels of all
    the sets go through one tau and one ell4 call.
    """
    names = [f"alpha{k + 1}" for k in range(8)]
    p = SimpleNamespace(**dict(zip(names, rates.T[:, :, None])))
    dc = DerivedConstants.from_params(p)
    L_probe = np.maximum(1e9, 1e7 * p.alpha1 * dc.psi1)
    sets = [SimpleNamespace(**dict(zip(names, row))) for row in rates.tolist()]
    L_star = np.array([[solve_L_star(q)] for q in sets])
    # columns: the 40 grid levels, the 20 residual levels, then 1e9, L_probe and L*
    levels = np.hstack([np.broadcast_to(_LEVELS, (len(rates), 61)), L_probe, L_star])
    taus = tau(p, levels)
    l4s = ell4(p, levels, taus)
    facts = []  # (holds, margin, location), each with a row per set
    rows = np.arange(len(rates))[:, None]

    def first(arg, m, at):
        j = arg(m, axis=1)[:, None]
        return m[rows, j], at[j]

    # strict monotonicity along the grid, and the floors
    t, e = taus[:, :40], l4s[:, :40]
    le = _GRID * e
    for m in (
        (t[:, :-1] - t[:, 1:]) / t[:, :-1],
        (t - dc.psi1) / t,
        (e[:, 1:] - e[:, :-1]) / e[:, 1:],
        (dc.K / 8.0 - e) / (dc.K / 8.0),
        (le[:, 1:] - le[:, :-1]) / le[:, 1:],
    ):
        worst, at = first(np.argmin, m, _GRID)
        facts.append((worst > 0.0, worst, at))

    # limits at large L
    t_lim = np.abs(taus[:, 60:61] - dc.psi1)
    facts.append((t_lim <= 1e-6, 1e-6 - t_lim, levels[:, 60:61]))
    sup_gap = dc.K / 8.0 - l4s[:, 61:62]
    sup_tol = 1e-6 * np.maximum(1.0, dc.K / 8.0)
    facts.append((sup_gap <= sup_tol, sup_tol - sup_gap, L_probe))

    # fixed-point residual of the waiting time, worst at its first maximum
    tv = taus[:, 40:60]
    r = np.abs(tv - (dc.psi1 + dc.psi2 / (_RES_GRID + p.alpha1 * tv))) / tv
    worst, at = first(np.argmax, r, _RES_GRID)
    facts.append((worst <= 1e-12, (1e-12 - worst) / 1e-12, at))

    # threshold equation is bracket-solvable and its root is admissible
    res = np.abs(L_star * l4s[:, 62:63] - dc.theta)
    facts.append((res <= 1e-12 * dc.theta, (1e-12 * dc.theta - res) / dc.theta, L_star))
    return [np.hstack(column) for column in zip(*facts)]


def check_propositions(p: Params, fuzz_count: int = 0, fuzz_seed: int = 0) -> CheckResult:
    """Scalar facts about tau, ell4, L*ell4 and the threshold equation.

    The facts (_FACTS) are checked on a 40-level grid, a 20-level
    residual grid, at large levels and at L*.  With fuzz_count > 0 they
    are also checked on that many random parameter sets (log-uniform in
    FORMULA_FUZZ_RANGE, all drawn in one call of default_rng(fuzz_seed)),
    every level of _CHUNK sets in one array pass, and the worst outcome
    is folded into this record: the first worst margin in draw order,
    and how many fuzzed sets fail.
    """
    if not _is_integer(fuzz_count) or fuzz_count < 0:
        raise ValueError(f"fuzz must be a non-negative integer, got {fuzz_count!r}")
    rates = np.array([p.as_tuple()])
    if fuzz_count > 0:  # the seed is read only for fuzz
        lo, hi = (math.log(b) for b in FORMULA_FUZZ_RANGE)
        draws = np.random.default_rng(fuzz_seed).uniform(lo, hi, (fuzz_count, 8))
        rates = np.vstack([rates, np.exp(draws)])
    passes = [_propositions(rates[k : k + _CHUNK]) for k in range(0, len(rates), _CHUNK)]
    holds, margins, locs = (np.vstack(c) for c in zip(*passes))
    k = int(np.argmin(margins))
    notes = [f"{f} failed (margin {m:.3g})" for f, h, m in zip(_FACTS, holds[0], margins[0]) if not h]
    detail = "; ".join(notes) or "all grid and limit facts hold"
    if fuzz_count > 0:
        fails = np.sum(~holds[1:].all(axis=1))
        detail += f"; fuzz x{fuzz_count} (seed {fuzz_seed}): {fails} failure(s)"
    status = PASS if holds.all() else FAIL
    return CheckResult("propositions", status, float(margins.flat[k]), float(locs.flat[k]), detail)


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

    ``cert`` and ``traj`` may be supplied (e.g. loaded from files) for p
    and x0; when omitted they are computed from the other arguments.
    """
    x0 = State.from_sequence(x0)
    if cert is None:
        cert = certificate(p, x0, L_override)
    if traj is None:
        traj = integrate(p, x0, horizon, rel_tol, abs_tol)
    _check_provenance(traj, p, cert, x0)

    checks = [
        check_global_bounds(traj, cert),
        check_excursion_lemma(traj, p, cert),
        _cascade_record(traj, p, cert),
        check_W_decrease(traj, p, cert),
        check_propositions(p, fuzz_count=fuzz_count, fuzz_seed=fuzz_seed),
    ]
    return VerificationReport(tuple(checks), p, x0, cert)


def _cascade_record(traj: Trajectory, p: Params, cert: BoundCertificate) -> CheckResult:
    """One aggregated cascade record over the excursions above L_used."""
    excs, qualifying, longest = _long_excursions(traj, cert)
    if not qualifying:
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
    return replace(
        worst,
        status=status,
        detail=f"{len(qualifying)} qualifying excursion(s); worst: {worst.detail}",
    )
