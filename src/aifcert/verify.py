"""Machine checks of the certified properties along simulated trajectories.

Each check is a pure function returning a CheckResult with a pass/fail
status, a worst-case margin (normalized so positive means headroom), the
location where the margin is attained, and a human-readable detail line.
``build_report`` assembles the five named checks exactly once each.

The four trajectory checks each state their claim as obligations: the
max (or min) of an observable of the interpolant on a window is at most
(at least) a bound.  One rule, _judge, takes a check's extrema from one
exact Trajectory.extrema search and gives every margin, headroom over a
scale, and the first worst with its location; no obligations is vacuous.
The lemma reads p = x1*x4 (xdot1 = alpha1 - alpha2*p), W_decrease
W_rate = dW/dt; nothing here samples or differences the trajectory.  The
lemma and the cascade read one set of excursions, those above L_used,
which excursions_above finds once and keeps on the trajectory: an
excursion above any higher level, and its window [start+T0, end], lies
inside one of them.  The cascade record judges the stages of all those
lasting T0 together.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
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
from .model import DerivedConstants, Params, State, _is_integer, _require_positive
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
_W_SLACK = 1e-6  # W_decrease's rounding slack, relative to gamma (check_W_decrease)


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


def _judge(traj: Trajectory, obligations, found=()):
    """(first worst margin, its location, every margin, every (value, time)) of obligations.

    An obligation (sense, observable, start, end, bound, scale) claims the
    "max" ("min") of the observable on [start, end] is at most (at least)
    bound; its margin is (bound - max)/scale or (min - bound)/scale.  ``found``
    holds the (value, time) of the first obligations; one extrema search finds the rest.
    """
    found = [*found, *traj.extrema([ob[:4] for ob in obligations[len(found):]])]
    margins = [
        (bound - v if sense == "max" else v - bound) / scale
        for (sense, _, _, _, bound, scale), (v, _) in zip(obligations, found)
    ]
    k = margins.index(min(margins))
    return margins[k], found[k][1], margins, found


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
    obligations = [("max", f"x{i}", None, None, M, M) for i, M in enumerate(bounds, 1)]
    worst_margin, worst_loc, _, _ = _judge(traj, obligations, traj.maxima)
    parts, fails = [], []  # fails: for each component above its limit, where it first is
    for i, (M, (top, t_top)) in enumerate(zip(bounds, traj.maxima), 1):
        parts.append(f"x{i} max {top:.6g} vs M{i} {M:.6g}")
        limit = M + 1e-6 * M
        if top > limit:
            above = stretches_above(traj, f"x{i}", limit)
            fails.append(above[0][0] if above else t_top)
    return CheckResult(
        "global_bounds",
        FAIL if fails else PASS,
        worst_margin,
        min(fails, default=worst_loc),
        ("bound exceeded: " if fails else "") + "; ".join(parts),
    )


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
    L > L_used is not checked.  As xdot1 = alpha1 - alpha2*p, both claims
    are one obligation per window: min p = x1*x4 >= theta + 1e-9*theta,
    with scale theta.  _long_excursions finds the qualifying excursions
    for the cascade record too; with none the check passes vacuously and
    says why.
    """
    _check_provenance(traj, p, cert)
    L_used, T0 = cert.L_used, cert.T0
    x1max = traj.maxima[0][0]
    _, qualifying, longest = _long_excursions(traj, cert)
    if not qualifying:
        return CheckResult(
            "excursion_lemma",
            PASS,
            None,
            None,
            f"vacuous: max x1 {x1max:.6g} never exceeded L_used {L_used:.6g}"
            if x1max <= L_used
            else f"vacuous: no excursion above L_used {L_used:.6g} lasted >= T0 {T0:.6g} (longest {longest:.6g})",
        )
    theta = p.alpha1 / p.alpha2
    bound = theta + _STRICT_NEG * theta  # x1*x4 above it is xdot1 below -_STRICT_NEG*alpha1
    obligations = [("min", "p", e.start + T0, e.end, bound, theta) for e in qualifying]
    worst_margin, worst_loc, _, _ = _judge(traj, obligations)
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
    and x1 stays under the window bound until T0 (tau(L) if not given;
    a given T0 must be finite and > 0).  Each stage compares the exact
    minimum (for x1 the maximum) of the interpolant on its window.  An
    excursion shorter than the waiting time is reported not-applicable.

    The window bound uses the larger of L and x1 at the excursion start:
    excursions anchored at the initial time may start above their level,
    and the growth envelope then caps x1 from that starting value.  For
    interior crossings the two coincide.
    """
    _check_provenance(traj, p)
    L = float(L)
    T_w = tau(p, L) if T0 is None else _require_positive("T0", T0)
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
    return _cascade(traj, p, L, [excursion], T_w)


def _cascade(traj, p, L, excursions, T_w, prefix="") -> CheckResult:
    """One record of every stage of excursions lasting T_w at level L; its detail lists the worst's."""
    dc = DerivedConstants.from_params(p)
    stages, obligations = [], []  # stages: each obligation's (excursion index, stage label)
    for k, (e, x1) in enumerate(zip(excursions, traj.at([e.start for e in excursions])[:, 0].tolist())):
        s, dur = e.start, e.duration
        U_eff = window_upper(p, max(L, x1), T_w)
        delta4 = math.log(2.0) / (p.alpha8 * U_eff)
        # (label, sense, observable, window start and end after s, bound); empty windows drop out
        for label, sense, name, a, b, bound in (
            ("x1<=window", "max", "x1", 0.0, T_w, U_eff),
            ("x2>=ell2", "min", "x2", dc.delta2, dur, ell2(p, L)),
            ("x3>=ell3", "min", "x3", dc.psi1, dur, ell3(p, L)),
            # ell4 with the effective window bound
            ("x4>=ell4", "min", "x4", dc.psi1 + delta4, T_w, dc.K * L / (8.0 * U_eff)),
        ):
            if a <= b:
                stages.append((k, label))
                obligations.append((sense, name, s + a, s + b, bound, bound))
    margin, location, margins, _ = _judge(traj, obligations)
    k = stages[margins.index(margin)][0]  # the excursion that owns the first worst margin
    detail = "; ".join(f"{w} margin {m:.3g}" for (j, w), m in zip(stages, margins) if j == k)
    e = excursions[k]
    return CheckResult(
        "cascade_lower_bounds",
        PASS if margin >= -1e-9 else FAIL,
        margin,
        location,
        f"{prefix}excursion [{e.start:.6g}, {e.end:.6g}]: {detail}",
    )


def check_W_decrease(traj: Trajectory, p: Params, cert: BoundCertificate) -> CheckResult:
    """W = x4 + c*x2 + d*x3 cannot climb while above gamma.

    By the chain rule dW/dt = (d*a5 - c*a4)*x2 + (a7 - d*a6)*x3
    + c*a3*x1 - a8*x1*x4, which equals alpha8*x1*(K - x4) for every state
    iff c*a4 = d*a5, d*a6 = a7 and c*a3 = a8*K; each must hold to 1e-12
    relative.  Wherever the interpolant's W exceeds gamma (stretches_above),
    between the nodes too, that derivative, W_rate, must be <= 1e-9.  As
    c, d > 0, W <= c*max x2 + d*max x3 + max x4 (Trajectory.maxima, kept
    from global_bounds); if that bound lies below gamma by more than the
    rounding slack _W_SLACK relative, far above the maxima's rounding, W
    has no stretch above gamma and the search is skipped.  A bound within
    the slack runs the search, so a fail never rests on the skip.
    """
    _check_provenance(traj, p, cert)
    dc = DerivedConstants.from_params(p)
    pairs = (
        (dc.c * p.alpha4, dc.d * p.alpha5),
        (dc.d * p.alpha6, p.alpha7),
        (dc.c * p.alpha3, p.alpha8 * dc.K),
    )
    ident = max(abs(lhs - rhs) / rhs for lhs, rhs in pairs)
    parts = [f"identity worst {ident:.3g} (c*a4 = d*a5, d*a6 = a7, c*a3 = a8*K)"]
    x2max, x3max, x4max = (top for top, _ in traj.maxima[1:])
    below = dc.W(x2max, x3max, x4max) < cert.gamma - _W_SLACK * cert.gamma
    stretches = [] if below else stretches_above(traj, "W", cert.gamma)
    obligations = [("max", "identity", None, None, 1e-12, 1.0)]  # found in closed form: ident
    obligations += [("max", "W_rate", a, b, 1e-9, 1.0) for a, b in stretches if a < b]
    margin, location, _, found = _judge(traj, obligations, [(ident, None)])
    if found[1:]:
        top = max(v for v, _ in found[1:])
        parts.append(f"W above gamma {cert.gamma:.6g}, max Wdot there {top:.3g}")
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
_ALPHAS = tuple(f"alpha{k + 1}" for k in range(8))
_FACTS = ("tau decreasing", "tau above psi1", "ell4 increasing", "ell4 below K/8", "L*ell4 increasing",
          "tau limit", "ell4 supremum", "fixed-point residual", "threshold residual")


def _propositions(rates: np.ndarray):
    """(holds, margin, location) of each fact (columns) for each rate set (rows).

    ``rates`` holds one set's alpha1..alpha8 per row.  Margins are
    normalized, a location is the level of its margin.  All levels of all
    the sets fill one (sets, 63) table that goes through one tau and one
    ell4 call, and each fact fills its column of the three (sets, 9) tables.
    """
    sets = [SimpleNamespace(**dict(zip(_ALPHAS, row))) for row in rates.tolist()]
    # a lone set's rates as floats, which broadcast at a fraction of the cost of (1, 1) arrays
    p = sets[0] if len(sets) == 1 else SimpleNamespace(**dict(zip(_ALPHAS, rates.T[:, :, None])))
    dc = DerivedConstants.from_params(p)
    n = len(sets)
    # columns: the 40 grid levels, the 20 residual levels, then 1e9, L_probe and L*
    levels = np.empty((n, 63))
    levels[:, :61] = _LEVELS
    levels[:, 61:62] = np.maximum(1e9, 1e7 * p.alpha1 * dc.psi1)
    levels[:, 62] = [solve_L_star(q) for q in sets]
    taus = tau(p, levels)
    l4s = ell4(p, levels, taus)
    # one column per fact, in _FACTS order
    holds, margin, loc = np.empty((n, 9), dtype=bool), np.empty((n, 9)), np.empty((n, 9))
    rows = np.arange(n)

    # strict monotonicity along the grid, and the floors: each worst at its first minimum
    t, e = taus[:, :40], l4s[:, :40]
    le = _GRID * e
    for k, m in enumerate((
        (t[:, :-1] - t[:, 1:]) / t[:, :-1],
        (t - dc.psi1) / t,
        (e[:, 1:] - e[:, :-1]) / e[:, 1:],
        (dc.K / 8.0 - e) / (dc.K / 8.0),
        (le[:, 1:] - le[:, :-1]) / le[:, 1:],
    )):
        j = m.argmin(axis=1)
        margin[:, k], loc[:, k] = m[rows, j], _GRID[j]
    holds[:, :5] = margin[:, :5] > 0.0

    # limits at large L
    t_lim = np.abs(taus[:, 60:61] - dc.psi1)
    holds[:, 5:6], margin[:, 5:6], loc[:, 5] = t_lim <= 1e-6, 1e-6 - t_lim, 1e9
    sup_gap = dc.K / 8.0 - l4s[:, 61:62]
    sup_tol = 1e-6 * np.maximum(1.0, dc.K / 8.0)
    holds[:, 6:7], margin[:, 6:7], loc[:, 6] = sup_gap <= sup_tol, sup_tol - sup_gap, levels[:, 61]

    # fixed-point residual of the waiting time, worst at its first maximum
    tv = taus[:, 40:60]
    r = np.abs(tv - (dc.psi1 + dc.psi2 / (_RES_GRID + p.alpha1 * tv))) / tv
    j = r.argmax(axis=1)
    worst = r[rows, j]
    holds[:, 7], margin[:, 7], loc[:, 7] = worst <= 1e-12, (1e-12 - worst) / 1e-12, _RES_GRID[j]

    # threshold equation is bracket-solvable and its root is admissible
    res = np.abs(levels[:, 62:63] * l4s[:, 62:63] - dc.theta)
    tol = 1e-12 * dc.theta
    holds[:, 8:9], margin[:, 8:9], loc[:, 8] = res <= tol, (tol - res) / dc.theta, levels[:, 62]
    return holds, margin, loc


def check_propositions(p: Params, fuzz_count: int = 0, fuzz_seed: int = 0) -> CheckResult:
    """Scalar facts about tau, ell4, L*ell4 and the threshold equation.

    The facts (_FACTS) are checked on a 40-level grid, a 20-level
    residual grid, at large levels and at L*.  With fuzz_count > 0 they
    are also checked on that many random parameter sets (log-uniform in
    FORMULA_FUZZ_RANGE, all drawn in one call of default_rng(fuzz_seed),
    which must then be a non-negative integer), the sets of each _CHUNK in
    one table pass (_propositions), and the worst outcome is folded into
    this record: the first worst margin in draw order, and how many fuzzed
    sets fail.
    """
    if not _is_integer(fuzz_count) or fuzz_count < 0:
        raise ValueError(f"fuzz must be a non-negative integer, got {fuzz_count!r}")
    rates = np.array([p.as_tuple()])
    if fuzz_count > 0:  # the seed is read only for fuzz
        if not (_is_integer(fuzz_seed) and fuzz_seed >= 0):
            raise ValueError(f"fuzz_seed must be a non-negative integer, got {fuzz_seed!r}")
        lo, hi = (math.log(b) for b in FORMULA_FUZZ_RANGE)
        draws = np.random.default_rng(fuzz_seed).uniform(lo, hi, (fuzz_count, 8))
        rates = np.vstack([rates, np.exp(draws)])
    passes = [_propositions(rates[k : k + _CHUNK]) for k in range(0, len(rates), _CHUNK)]
    holds, margins, locs = passes[0] if len(passes) == 1 else (np.vstack(c) for c in zip(*passes))
    k = int(margins.argmin())
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
    The fuzz arguments, and a supplied cert or traj against p and x0, are
    checked before any certificate is built or any integration runs.
    """
    x0 = State.from_sequence(x0)
    # a built certificate or trajectory is p and x0's own
    _check_provenance(SimpleNamespace(params=p, x0=x0) if traj is None else traj, p, cert, x0)
    # reads no trajectory, so it checks the fuzz arguments before any work
    propositions = check_propositions(p, fuzz_count=fuzz_count, fuzz_seed=fuzz_seed)
    if cert is None:
        cert = certificate(p, x0, L_override)
    if traj is None:
        traj = integrate(p, x0, horizon, rel_tol, abs_tol)

    checks = [
        check_global_bounds(traj, cert),
        check_excursion_lemma(traj, p, cert),
        _cascade_record(traj, p, cert),
        check_W_decrease(traj, p, cert),
        propositions,
    ]
    return VerificationReport(tuple(checks), p, x0, cert)


def _cascade_record(traj: Trajectory, p: Params, cert: BoundCertificate) -> CheckResult:
    """One cascade record: every excursion above L_used that lasts T0, judged together."""
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
    prefix = f"{len(qualifying)} qualifying excursion(s); worst: "
    return _cascade(traj, p, cert.L_used, qualifying, cert.T0, prefix)
