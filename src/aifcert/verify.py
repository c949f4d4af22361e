"""Machine checks of the certified properties along simulated trajectories.

Each check is a pure function returning a CheckResult with a pass/fail
status, a worst-case margin (normalized so positive means headroom), the
location where the margin is attained, and a human-readable detail line.
``build_report`` assembles the five named checks exactly once each.

The four trajectory checks each state their claim as obligations: the
max (or min) of an observable of the interpolant on a window is at most
(at least) a bound.  One rule, _judge, takes a check's extrema from one
exact Trajectory.extrema search and gives every margin, headroom over a
scale, the first worst with its location, and the verdict: a check
names only its floor, and fails unless every margin is at least it
(global_bounds -1e-6, the strict lemma the least positive float, the
cascade -1e-9, W_decrease 0); no obligations is a vacuous pass.  The
lemma reads p = x1*x4 (xdot1 = alpha1 - alpha2*p), W_decrease
W_rate = dW/dt, whose rate identities are algebra, the proposition fact
"W identity"; nothing here samples or differences the trajectory.  The
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

from .bounds import BoundCertificate, _ell2, _ell3, _ell4, _window_upper, certificate, ell4, solve_L_star, tau
from .model import _ALPHAS, DerivedConstants, Params, State, _is_integer, _require_positive
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


def _judge(traj: Trajectory, obligations, floor, found=()):
    """(status, first worst margin, its location, every margin, every (value, time)) of obligations.

    An obligation (sense, observable, start, end, bound, scale) claims the
    "max" ("min") of the observable on [start, end] is at most (at least)
    bound; its margin is (bound - max)/scale or (min - bound)/scale.  The
    one fail rule of every trajectory check: it fails unless every margin
    is >= floor, the check's allowance, so a NaN margin fails too.
    No obligations is a vacuous pass with no margin and no location.
    ``found`` holds the (value, time) of the first obligations
    (global_bounds' kept maxima); one search finds the rest.
    """
    if not obligations:
        return PASS, None, None, [], []
    found = [*found, *traj.extrema([ob[:4] for ob in obligations[len(found):]])]
    margins = [
        (bound - v if sense == "max" else v - bound) / scale
        for (sense, _, _, _, bound, scale), (v, _) in zip(obligations, found)
    ]
    k = margins.index(min(margins))
    status = PASS if all(m >= floor for m in margins) else FAIL
    return status, margins[k], found[k][1], margins, found


def check_global_bounds(traj: Trajectory, cert: BoundCertificate) -> CheckResult:
    """Each state component stays below its certificate bound.

    The comparison is against the exact maximum of the interpolant, not
    just the step nodes, and a component fails at a margin (M - max)/M
    below -1e-6.  A failure is located at the start of the first stretch
    where a failing component is at or above its bound plus 1e-6
    relative (at t0 if it starts there), or at its maximum if rounding
    leaves no such stretch.
    """
    _check_provenance(traj, cert.params, cert)
    bounds = (cert.M1, cert.M2, cert.M3, cert.M4)
    obligations = [("max", f"x{i}", None, None, M, M) for i, M in enumerate(bounds, 1)]
    floor = -1e-6  # a component may exceed its bound by 1e-6 relative
    status, worst_margin, worst_loc, _, _ = _judge(traj, obligations, floor, traj.maxima)
    parts, fails = [], []  # fails: for each failing component, where it first is above its limit
    for i, (M, ob, (top, t_top)) in enumerate(zip(bounds, obligations, traj.maxima), 1):
        parts.append(f"x{i} max {top:.6g} vs M{i} {M:.6g}")
        if status == FAIL and _judge(traj, [ob], floor, [(top, t_top)])[0] == FAIL:
            above = stretches_above(traj, f"x{i}", M + 1e-6 * M)
            fails.append(above[0][0] if above else t_top)
    return CheckResult(
        "global_bounds",
        status,
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
    theta = p.derived.theta
    bound = theta + _STRICT_NEG * theta  # x1*x4 above it is xdot1 below -_STRICT_NEG*alpha1
    obligations = [("min", "p", e.start + T0, e.end, bound, theta) for e in qualifying]
    # the least positive float as the floor: the claim is strict, so a margin of exactly 0 fails
    status, worst_margin, worst_loc, _, _ = _judge(traj, obligations, math.ulp(0.0))
    detail = (
        f"{len(qualifying)} qualifying excursion(s); strict decrease and product "
        f"threshold checked on [start+T0, end]"
        if qualifying
        else f"vacuous: max x1 {x1max:.6g} never exceeded L_used {L_used:.6g}"
        if x1max <= L_used
        else f"vacuous: no excursion above L_used {L_used:.6g} lasted >= T0 {T0:.6g} (longest {longest:.6g})"
    )
    return CheckResult("excursion_lemma", status, worst_margin, worst_loc, detail)


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
    L = float(_require_positive("level L", L))
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
    dc, l2, l3 = p.derived, _ell2(p, L), _ell3(p, L)
    stages, obligations = [], []  # stages: each obligation's (excursion index, stage label)
    for k, (e, x1) in enumerate(zip(excursions, traj.at([e.start for e in excursions])[:, 0].tolist())):
        s, dur = e.start, e.duration
        U_eff = _window_upper(p, max(L, x1), T_w)
        delta4 = math.log(2.0) / (p.alpha8 * U_eff)
        # (label, sense, observable, window start and end after s, bound); empty windows drop out
        for label, sense, name, a, b, bound in (
            ("x1<=window", "max", "x1", 0.0, T_w, U_eff),
            ("x2>=ell2", "min", "x2", dc.delta2, dur, l2),
            ("x3>=ell3", "min", "x3", dc.psi1, dur, l3),
            ("x4>=ell4", "min", "x4", dc.psi1 + delta4, T_w, _ell4(dc, L, U_eff)),
        ):
            if a <= b:
                stages.append((k, label))
                obligations.append((sense, name, s + a, s + b, bound, bound))
    status, margin, location, margins, _ = _judge(traj, obligations, -1e-9)
    k = stages[margins.index(margin)][0]  # the excursion that owns the first worst margin
    detail = "; ".join(f"{w} margin {m:.3g}" for (j, w), m in zip(stages, margins) if j == k)
    e = excursions[k]
    return CheckResult(
        "cascade_lower_bounds",
        status,
        margin,
        location,
        f"{prefix}excursion [{e.start:.6g}, {e.end:.6g}]: {detail}",
    )


def check_W_decrease(traj: Trajectory, p: Params, cert: BoundCertificate) -> CheckResult:
    """W = x4 + c*x2 + d*x3 cannot climb while above gamma.

    With c, d and K as DerivedConstants defines them, dW/dt is
    alpha8*x1*(K - x4) for every state: the rate identities c*a4 = d*a5,
    d*a6 = a7 and c*a3 = a8*K are algebra on the rates, checked by
    check_propositions as its fact "W identity".  Wherever the
    interpolant's W exceeds gamma (stretches_above), between the nodes
    too, that derivative, W_rate, must be <= 1e-9.  As c, d > 0,
    W <= c*max x2 + d*max x3 + max x4 (Trajectory.maxima, kept from
    global_bounds); if that bound lies below gamma by more than the
    rounding slack _W_SLACK relative, far above the maxima's rounding, W
    has no stretch above gamma and the search is skipped.  A bound within
    the slack runs the search, so a fail never rests on the skip.  With no
    stretch the check passes vacuously and says so, as the lemma does.
    """
    _check_provenance(traj, p, cert)
    x2max, x3max, x4max = (top for top, _ in traj.maxima[1:])
    below = p.derived.W(x2max, x3max, x4max) < cert.gamma - _W_SLACK * cert.gamma
    stretches = [] if below else stretches_above(traj, "W", cert.gamma)
    obligations = [("max", "W_rate", a, b, 1e-9, 1.0) for a, b in stretches if a < b]
    status, margin, location, _, found = _judge(traj, obligations, 0.0)
    detail = (
        f"W above gamma {cert.gamma:.6g}, max Wdot there {max(v for v, _ in found):.3g}"
        if found
        else f"W never above gamma {cert.gamma:.6g}; decrease part vacuous"
    )
    return CheckResult("W_decrease", status, margin, location, detail)


_CHUNK = 1024  # rate sets per array pass, which bounds the memory of a large fuzz count
_FACTS = ("ell4 finite and positive", "fixed-point residual", "threshold residual", "W identity")  # in record order
_TOL = 1e-12  # the relative error each fact allows
_PROOFS = "tests/test_closed_forms.py"  # where the facts of tau and ell4 at every level are proved


def _propositions(rates: np.ndarray):
    """(holds, margin, location) of each fact (columns) for each rate set (rows).

    ``rates`` holds one set's alpha1..alpha8 per row.  Each fact is an
    error read at the set's L*, its location: 0 if ell4 there is finite
    and > 0 (a float tau is finite, or ell4 refuses it) and inf if not,
    then the relative errors of tau's fixed point, of the threshold
    equation and of the three rate identities behind
    dW/dt = alpha8*x1*(K - x4) (the largest).  One rule judges them all:
    a fact holds if its error is at most _TOL, and its margin is the
    headroom (_TOL - error)/_TOL.  The sets go through one tau and one
    ell4 call.
    """
    sets = [SimpleNamespace(**dict(zip(_ALPHAS, row))) for row in rates.tolist()]
    # a lone set's rates and level as floats, at a fraction of the cost of one-element arrays
    p = sets[0] if len(sets) == 1 else SimpleNamespace(**dict(zip(_ALPHAS, rates.T)))
    p.derived = dc = DerivedConstants.from_params(p)  # tau, ell4 and a lone set's solve_L_star read it
    L_star = [solve_L_star(q) for q in sets]
    L = L_star[0] if len(sets) == 1 else np.array(L_star)
    t = tau(p, L)
    e = ell4(p, L, t)
    error = np.empty((len(sets), 4))  # one column per fact, in _FACTS order
    error[:, 0] = np.where(np.isfinite(e) & (e > 0.0), 0.0, np.inf)
    error[:, 1] = abs(t - (dc.psi1 + dc.psi2 / (L + p.alpha1 * t))) / t
    error[:, 2] = abs(L * e - dc.theta) / dc.theta
    error[:, 3] = np.maximum.reduce([abs(lhs - rhs) / rhs for lhs, rhs in (
        (dc.c * p.alpha4, dc.d * p.alpha5), (dc.d * p.alpha6, p.alpha7), (dc.c * p.alpha3, p.alpha8 * dc.K))])
    return error <= _TOL, (_TOL - error) / _TOL, np.array(L_star)


def check_propositions(p: Params, fuzz_count: int = 0, fuzz_seed: int = 0) -> CheckResult:
    """The facts about tau, the threshold equation and W that rest on the rates' numbers.

    The facts (_FACTS) are read at L* (_propositions).  The facts of tau
    and ell4 at every level (tau falls to its limit psi1, ell4 and L*ell4
    rise, ell4 stays below its supremum K/8) hold for every positive rate
    set, and are proved once, over symbols, in _PROOFS.  With
    fuzz_count > 0 the facts are also checked on that many random
    parameter sets (log-uniform in FORMULA_FUZZ_RANGE, all drawn in one
    call of default_rng(fuzz_seed), which must then be a non-negative
    integer), the sets of each _CHUNK in one pass, and the worst outcome
    is folded into this record: the first worst margin in draw order, and
    how many fuzzed sets fail.
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
    holds, margins, locs = passes[0] if len(passes) == 1 else (np.concatenate(c) for c in zip(*passes))
    k = int(margins.argmin())
    notes = [f"{f} failed (margin {m:.3g})" for f, h, m in zip(_FACTS, holds[0], margins[0]) if not h]
    detail = "; ".join(notes) or f"all facts hold; tau and ell4 at every level proved in {_PROOFS}"
    if fuzz_count > 0:
        fails = np.sum(~holds[1:].all(axis=1))
        detail += f"; fuzz x{fuzz_count} (seed {fuzz_seed}): {fails} failure(s)"
    status = PASS if holds.all() else FAIL
    return CheckResult("propositions", status, float(margins.flat[k]), float(locs[k // len(_FACTS)]), detail)


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
