"""Adaptive integration with dense output and event location.

The default step is a Taylor step of order 6.  The system's only
nonlinearity is p = x1*x4, so the solution's Taylor coefficients at a
state follow from one Cauchy product per order (_taylor); the step's
length is chosen from those coefficients so that the last term stays
within the tolerance, which leaves no error test to make after the
step, and the polynomial itself is the step's dense output.  Strong
annihilation makes the system stiff, and the explicit step is then held
at its stability limit.  A trial RODAS4 step, an L-stable order-4(3)
Rosenbrock method with the analytic Jacobian, at twice the Taylor step,
about where it costs as much per unit of time, detects this, and RODAS4
takes over until its own steps fall back below that break-even, where
the Taylor step takes the run back; RODAS4 steps keep cubic Hermite
rows built from the states and fields at their ends.  Trajectories can
be evaluated anywhere in the covered span without re-running the
integration.
Events are the real roots of the per-step polynomials (minus the
level): steps whose Bernstein hull excludes the level are skipped, the
rest cut into monotone pieces at the roots of their derivatives and
each crossing solved by a bracketed Newton iteration, so crossings are
exact to rounding and a pair of crossings inside one step is not
missed.  The filters and brackets run on whole arrays of steps, and
each bracket is polished on plain floats (_unit_roots).  They bound
the stretches at or above a level (stretches_above), the one event
query: the excursions of x1, the stretches of W above gamma, and where
a component first exceeds its bound.  Extrema of x1 to x4, p, W and
W_rate = dW/dt over time windows, and the span's maxima of x1 to x4, come
from one root search on the same polynomials (Trajectory.extrema, maxima).

The state space is tiny (four components), so both steps are written
out component by component on plain floats, RODAS4's six stage solves
included; accepted times and states go into flat float buffers that
become numpy arrays once, at the end, and the Trajectory constructor
builds from them the one read-only table of per-step polynomials that
every query reads, evaluated by one Horner rule (_horner).
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .model import Params, State, _is_integer, _require_positive, field

__all__ = [
    "IntegrationError",
    "Trajectory",
    "Excursion",
    "integrate",
    "propagate_fixed",
    "stretches_above",
    "excursions_above",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

# RODAS4 (Hairer & Wanner, Solving ODEs II, IV.7, the rodas.f
# coefficients): with g = 1/(_RG*h), stage i solves
# (g*I - J) u_i = field(y + sum_j _RAij*u_j) + sum_j _RCij*u_j / h.
# Stage 6 starts from the embedded solution y + sum_j _RA5j*u_j + u5, and
# adding u6 gives the solution, so u6 is the error estimate.
_RG = 0.25
_RA21 = 1.544
_RA31, _RA32 = 0.9466785280815826, 0.2557011698983284
_RA41, _RA42, _RA43 = 3.314825187068521, 2.896124015972201, 0.9986419139977817
_RA51, _RA52, _RA53, _RA54 = (
    1.221224509226641,
    6.019134481288629,
    12.53708332932087,
    -0.6878860361058950,
)
_RC21 = -5.6688
_RC31, _RC32 = -2.430093356833875, -0.2063599157091915
_RC41, _RC42, _RC43 = -0.1073529058151375, -9.594562251023355, -20.47028614809616
_RC51, _RC52, _RC53, _RC54 = (
    7.496443313967647,
    -10.24680431464352,
    -33.99990352819905,
    11.70890893206160,
)
_RC61, _RC62, _RC63, _RC64, _RC65 = (
    8.083246795921522,
    -7.981132988064893,
    -31.52159432874371,
    16.31930543123136,
    -6.058818238834054,
)

# Stiffness switch.  The order-6 Taylor step is stable for h*rho(J) up
# to about 3.55 on the real axis, and the demo's steps sit at that limit
# for a tenth of its span without being stiff, so rho(J) cannot tell the
# two apart.  A trial decides instead: where the cheap bound
# h*(a2*x4 + a8*x1 + a4 + a6) on the trace of -J exceeds _TRIAL_GATE,
# one RODAS4 step _TRIAL_LENGTH times longer than the Taylor step is
# tried.  One RODAS4 attempt costs about 2.2 Taylor steps in this loop
# (8.5 against 3.9 us on a 2-core x86-64 host, Python 3.11), so RODAS4
# breaks even at about twice the Taylor step's length.  If the trial
# passes its error and orthant tests it is accepted, and RODAS4 takes the
# steps that follow; if not, a RODAS4 attempt was thrown away, and the
# next _TRIAL_GAP Taylor steps try none.  The same break-even hands the run
# back: once the step that RODAS4 proposes next, times the bound at its
# new state, falls below _TRIAL_LENGTH * _TRIAL_GATE, the Taylor step
# takes over, and again _TRIAL_GAP Taylor steps come before the next
# trial, so the methods cannot alternate.
_TRIAL_GATE = 3.0
_TRIAL_LENGTH = 2.0
_TRIAL_GAP = 64

OBSERVABLES = ("x1", "x2", "x3", "x4", "p", "W", "W_rate")


class IntegrationError(RuntimeError):
    """Integration could not continue; carries the last valid time."""

    def __init__(self, message: str, last_time: float):
        super().__init__(f"{message} (last valid time t={last_time!r})")
        self.last_time = last_time


@dataclass(frozen=True)
class Excursion:
    """A maximal interval on which species 1 stays at or above a level.

    Interior endpoints are real roots of the per-step dense-output
    polynomial minus the level, so x1 equals the level there up to
    rounding; there is no event tolerance.  An excursion above the level
    at the initial time starts there, and one still above it at the end
    runs to the horizon.
    """

    level: float
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Trajectory:
    """Integration output: the step nodes, and the per-step polynomials they fix.

    ``t`` holds the accepted step times (strictly increasing, starting
    at 0 with the initial state x0 = y[0]) and ``y`` the states at those
    times.  Each step keeps a polynomial of degree 6 in s in [0, 1]: for
    the steps of ``taylor_runs`` (half-open (start, stop) step index
    pairs, increasing) the Taylor polynomial at the left node, for the
    others a cubic Hermite piece.  The constructor builds them once, one
    array pass per run, into the read-only table ``_coef[component,
    power 0 to 6 of s, node]`` that every query reads: column i is step
    i's polynomial, row 0 node i's state, and the last column the last
    node alone, so ``y`` is a view of row 0, and ``t`` is a read-only
    copy like the table.  A non-finite time or state raises a ValueError.
    Instances carry the inputs that produced them and do not change
    after construction, except that two answers are kept after first
    use: ``maxima``, and per level the excursions of excursions_above.

    ``stats`` counts what the integrator did: accepted steps, rejected
    attempts by reason (error, orthant, non-finite; a failed stiffness
    trial is not a rejection), its own field evaluations ``nfev`` (6 per
    Taylor expansion, 5 per RODAS4 attempt including trials, 1 per
    accepted RODAS4 state), accepted RODAS4 steps (``stiff_steps``),
    switches to RODAS4 (``switches``, the passed trials), hand-backs to
    the Taylor step (``switches_back``) and the trial steps thrown away
    (``failed_trials``).  It is empty for trajectories rebuilt from samples.
    """

    def __init__(self, params, t, y, taylor_runs=(), stats=None):
        self.params = params
        self.t = t = np.array(t, dtype=float)  # an owned copy, read-only like the table
        t.flags.writeable = False
        if not (np.isfinite(t).all() and np.isfinite(y).all()):
            raise ValueError("trajectory times and states must be finite")
        self.x0 = State(*y[0].tolist())
        self.taylor_runs = taylor_runs = tuple((int(i), int(j)) for i, j in taylor_runs)
        a = params.as_tuple()
        h = t[1:] - t[:-1]
        self._coef = coef = np.zeros((4, 7, len(t)))
        coef[:, 0] = y.T
        for i, j in taylor_runs:
            terms = np.array(_taylor(a, tuple(y[i:j].T))).reshape(6, 4, j - i).transpose(1, 0, 2)
            coef[:, 1:, i:j] = terms * (h[i:j, None] ** np.arange(1, 7)).T
        bounds = [0, *(k for run in taylor_runs for k in run), len(h)]
        for i, j in zip(bounds[::2], bounds[1::2]):  # the RODAS4 runs
            if i < j:
                f = np.array(field(a, *y[i : j + 1].T))
                coef[:, 1:4, i:j] = _hermite(h[i:j], y[i + 1 : j + 1].T - y[i:j].T, f[:, :-1], f[:, 1:])
        coef.flags.writeable = False
        self.y = coef[:, 0].T  # the nodes are the table's row 0
        self.stats = MappingProxyType(dict(stats or {}))
        self._excursions = {}  # level -> excursions, kept by excursions_above like maxima

    def at(self, times):
        """Evaluate the state at one time or a 1-D array of times.

        A time more than 1e-12 outside the span, NaN, or an array of more
        dimensions raises a ValueError.  Times use the per-step
        polynomial, clamped to the orthant.  Node times return the stored
        samples exactly: s = 0 on a node's own step reads the node, and
        the last node, s = 1 on the last step, is read from y.  An
        integrated step's polynomial can leave the orthant only by about
        its local error, but a cubic Hermite piece of from_samples can
        dip well below 0 between sparse rows, and it reads as 0 there too.
        """
        tq = np.asarray(times, dtype=float)
        if tq.ndim > 1:
            raise ValueError(f"query times must be a number or a 1-D array, got shape {tq.shape}")
        scalar = tq.ndim == 0
        tq1 = np.atleast_1d(tq).copy()
        if tq1.size:
            lo, hi = self.t[0], self.t[-1]
            if not ((tq1 >= lo - 1e-12) & (tq1 <= hi + 1e-12)).all():  # NaN fails too
                raise ValueError("query time outside the integrated span")
            np.clip(tq1, lo, hi, out=tq1)
        idx = np.searchsorted(self.t, tq1, side="right") - 1
        np.clip(idx, 0, len(self.t) - 2, out=idx)
        h = self.t[idx + 1] - self.t[idx]
        s = (tq1 - self.t[idx]) / h
        vals = _horner(self._coef[:, :, idx].transpose(1, 0, 2), s).T
        vals[tq1 == self.t[-1]] = self.y[-1]
        np.maximum(vals, 0.0, out=vals)
        return vals[0] if scalar else vals

    def extrema(self, queries):
        """Extrema of observables on the interpolant over windows, from one search.

        A query is (sense, observable, start, end): "max" or "min", one
        of OBSERVABLES (x1 to x4, p = x1*x4, W, W_rate = dW/dt), and a
        window, None meaning an end of the span.  Returns (value, time)
        per query, exact to rounding (_extremum); p and W_rate (degree
        12) are searched apart from the others.  Like at, a minimum of an
        observable >= 0 on the orthant (all but W_rate) reads a dip below
        0 as 0: local error, or a Hermite piece of from_samples between
        sparse rows, where 0 says nothing about the rows themselves.
        """
        polys = {}  # (sense, observable) -> coefficients, negated for "min"
        groups = {}  # degree -> (number, sense, floored, _extremum query) of its queries
        for k, (sense, name, start, end) in enumerate(queries):
            if (sense, name) not in polys:
                if sense not in ("max", "min"):
                    raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
                c = _coefficients(self, name)
                polys[sense, name] = c if sense == "max" else -c
            c = polys[sense, name]
            groups.setdefault(len(c), []).append((k, sense, name != "W_rate", (c, start, end)))
        found = [None] * len(queries)
        for group in groups.values():
            for (k, sense, floor, _), (top, time) in zip(group, _extremum(self, [q for *_, q in group])):
                found[k] = (top, time) if sense == "max" else (max(-top, 0.0) if floor else -top, time)
        return found

    @cached_property
    def maxima(self):
        """(value, time) of the interpolant's maximum of x1 to x4 over the span.

        Found on first use and kept, so the checks and commands that all
        need them share it: one pass over the table that gives _extremum's
        answers bit for bit, without its window bookkeeping, and puts the
        steps of all four components through one root search (_settle).
        """
        coef, m = self._coef, len(self.t) - 1
        j = coef[:, 0].argmax(axis=1).tolist()
        # a best first node is read as _extremum reads a window's start
        best = [coef.item(q, 0, k) if k else _horner(coef[q, :, 0].tolist(), 0.0) for q, k in enumerate(j)]
        s_best, steps = [float(k == m) for k in j], [min(k, m - 1) for k in j]
        bound = np.maximum(coef[:, :, :-1], 0.0)  # the filter bound of _extremum,
        bound[:, 0] = coef[:, 0, :-1]  # summed in the same order
        cand = (bound.sum(axis=1) > np.array(best)[:, None]).ravel().nonzero()[0]
        c = coef[cand // m, :, cand % m].T  # columns numbered component by component
        return _settle(self.t, c, cand, 0.0, 1.0, range(0, 4 * m + 1, m), best, s_best, steps, [0] * 4)

    @classmethod
    def from_samples(cls, params, t, y, taylor_runs=()):
        """Rebuild a trajectory from plain samples (e.g. a CSV round trip).

        Samples are validated, then built like any trajectory: the steps
        of ``taylor_runs`` (half-open (start, stop) pairs, increasing and
        apart) as Taylor rows, every other step as a cubic Hermite piece,
        which keeps dense queries meaningful between the given rows.
        Whether a Taylor row reaches its right node is not checked here
        (check_taylor_rows does).
        """
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        if t.ndim != 1 or y.shape != (t.size, 4):
            raise ValueError("need times (n,) and states (n, 4)")
        if t.size < 2:
            raise ValueError("need at least two samples")
        if not np.all(np.diff(t) > 0.0):
            raise ValueError("sample times must be strictly increasing")
        if not (np.isfinite(t).all() and np.isfinite(y).all()):
            raise ValueError("samples must be finite")
        if (y < -1e-9).any():
            raise ValueError("sample states must lie in the orthant (tolerance 1e-9)")
        bounds = [k for i, j in taylor_runs for k in (i, j)]
        for k in bounds:
            if not (_is_integer(k) and 0 <= k < t.size):
                raise ValueError(f"taylor_steps must be in [0, {t.size - 1}], got {k!r}")
        if any(k >= n for k, n in zip(bounds, bounds[1:])):
            raise ValueError(f"taylor runs must be increasing and apart, got {taylor_runs!r}")
        with np.errstate(over="ignore", invalid="ignore"):
            traj = cls(params, t, np.maximum(y, 0.0), taylor_runs)
        if not np.isfinite(traj._coef).all():
            raise ValueError("rebuilt dense rows are not finite")
        return traj

    def check_taylor_rows(self, abs_tol: float = 1e-10) -> None:
        """Raise a ValueError, naming the step, if a Taylor row misses its right node.

        An integrated Taylor row ends at its right node to rounding: it
        must do so within 1e-12 of the sum of the magnitudes of its terms
        and of both nodes.  Where the node is 0 the integrator may have
        clamped an undershoot of at most abs_tol, the integration's
        tolerance, so the row may also end that much further below.  This
        catches a file whose nodes were edited, or whose Taylor runs name
        steps that were not Taylor steps.
        """
        for i, j in self.taylor_runs:
            c = self._coef[:, :, i : j + 1]
            rows, left, right = c[:, 1:, :-1], c[:, 0, :-1], c[:, 0, 1:]
            miss = left + rows.sum(axis=1) - right
            tol = 1e-12 * (np.abs(left) + np.abs(rows).sum(axis=1) + np.abs(right))
            bad = (miss > tol) | (miss < np.where(right == 0.0, -abs_tol, 0.0) - tol)
            if bad.any():
                k, n = np.argwhere(bad.T)[0]
                why = ""
                if right[n, k] == 0.0 and miss[n, k] < 0.0:
                    why = f", beyond the abs_tol allowance {abs_tol!r} below a node clamped to 0"
                raise ValueError(f"the Taylor row of step {i + k} misses its right node "
                                 f"(t={self.t.item(i + k + 1)!r}, x{n + 1}) by {miss[n, k]:.3g}{why}")


def _hermite(h, dy, f0, f1):
    """The s, s**2 and s**3 terms of cubic Hermite pieces: (components, 3, steps).

    Each piece matches the states (through dy = y1 - y0) and the
    derivatives f0, f1, all (components, steps), at both ends of its
    step of length h.
    """
    return np.stack([h * f0, 3.0 * dy - h * (2.0 * f0 + f1), -2.0 * dy + h * (f0 + f1)], axis=1)


def _taylor(a, y):
    """Taylor coefficients x_i^(k)/k! of the solution through y, orders 1 to 6.

    Returns 24 floats by order, the four components of order k at
    [4*(k-1) : 4*k]; order 1 is field(a, *y).  The only nonlinearity is
    p = x1*x4, so order k+1 follows linearly from order k and from p's
    coefficient of order k, the Cauchy product sum_j x1_j*x4_(k-j).
    """
    _, a2, a3, a4, a5, a6, a7, a8 = a
    x1, x2, x3, x4 = y
    b1, b2, b3, b4 = field(a, x1, x2, x3, x4)
    p = x1 * b4 + b1 * x4
    c1, c2 = -a2 * p * 0.5, (a3 * b1 - a4 * b2) * 0.5
    c3, c4 = (a5 * b2 - a6 * b3) * 0.5, (a7 * b3 - a8 * p) * 0.5
    p = x1 * c4 + b1 * b4 + c1 * x4
    d1, d2 = -a2 * p / 3.0, (a3 * c1 - a4 * c2) / 3.0
    d3, d4 = (a5 * c2 - a6 * c3) / 3.0, (a7 * c3 - a8 * p) / 3.0
    p = x1 * d4 + b1 * c4 + c1 * b4 + d1 * x4
    e1, e2 = -a2 * p * 0.25, (a3 * d1 - a4 * d2) * 0.25
    e3, e4 = (a5 * d2 - a6 * d3) * 0.25, (a7 * d3 - a8 * p) * 0.25
    p = x1 * e4 + b1 * d4 + c1 * c4 + d1 * b4 + e1 * x4
    f1, f2 = -a2 * p / 5.0, (a3 * e1 - a4 * e2) / 5.0
    f3, f4 = (a5 * e2 - a6 * e3) / 5.0, (a7 * e3 - a8 * p) / 5.0
    p = x1 * f4 + b1 * e4 + c1 * d4 + d1 * c4 + e1 * b4 + f1 * x4
    g1, g2 = -a2 * p / 6.0, (a3 * f1 - a4 * f2) / 6.0
    g3, g4 = (a5 * f2 - a6 * f3) / 6.0, (a7 * f3 - a8 * p) / 6.0
    return (b1, b2, b3, b4, c1, c2, c3, c4, d1, d2, d3, d4,
            e1, e2, e3, e4, f1, f2, f3, f4, g1, g2, g3, g4)


def _taylor_step(y, c, h):
    """The Taylor polynomial with coefficients c at y, summed by Horner's rule at step h.

    Returns the state at t + h.
    """
    y1, y2, y3, y4 = y
    b1, b2, b3, b4, c1, c2, c3, c4, d1, d2, d3, d4, e1, e2, e3, e4, f1, f2, f3, f4, g1, g2, g3, g4 = c
    return (
        y1 + h * (b1 + h * (c1 + h * (d1 + h * (e1 + h * (f1 + h * g1))))),
        y2 + h * (b2 + h * (c2 + h * (d2 + h * (e2 + h * (f2 + h * g2))))),
        y3 + h * (b3 + h * (c3 + h * (d3 + h * (e3 + h * (f3 + h * g3))))),
        y4 + h * (b4 + h * (c4 + h * (d4 + h * (e4 + h * (f4 + h * g4))))),
    )


def _rodas4_step(a, y, f0, h):
    """One RODAS4 step from y with f0 = field(a, *y).

    Returns (y1, err): the 4th order solution and the error estimate
    (the difference to the embedded 3rd order one).  The stage matrix
    g*I - J needs no general LU: rows 2 and 3 of the Jacobian are
    constant, so u2 and u3 are affine in u1 and what remains is a 2x2
    system in (u1, u4) whose determinant
    g**2 + g*(a2*x4 + a8*x1) + a2*x1*a7*a3*a5/((g+a4)*(g+a6))
    is positive on the orthant.
    """
    _, a2, a3, a4, a5, a6, a7, a8 = a
    y1, y2, y3, y4 = y
    hi = 1.0 / h
    g = hi / _RG
    p = 1.0 / (g + a4)
    q = 1.0 / (g + a6)
    chain = a3 * a5 * p * q  # u3 = chain*u1 + (terms free of u1)
    A, B = g + a2 * y4, a2 * y1
    C, D = a8 * y4 - a7 * chain, g + a8 * y1
    idet = 1.0 / (g * (g + a2 * y4 + a8 * y1) + a2 * y1 * a7 * chain)
    a5p, a7q = a5 * p, a7 * q

    # every stage solves (g*I - J) u = r the same way: fold r2 and r3 into r4,
    # then u1 and u4 from the 2x2 system, and u2 and u3 from u1
    r1, r2, r3, r4 = f0
    r4 += a7q * (r3 + a5p * r2)
    u11 = (D * r1 - B * r4) * idet
    u12 = p * (r2 + a3 * u11)
    u13, u14 = q * (r3 + a5 * u12), (A * r4 - C * r1) * idet
    f1, f2, f3, f4 = field(
        a, y1 + _RA21 * u11, y2 + _RA21 * u12, y3 + _RA21 * u13, y4 + _RA21 * u14
    )
    r1 = f1 + hi * (_RC21 * u11)
    r2 = f2 + hi * (_RC21 * u12)
    r3 = f3 + hi * (_RC21 * u13)
    r4 = f4 + hi * (_RC21 * u14)
    r4 += a7q * (r3 + a5p * r2)
    u21 = (D * r1 - B * r4) * idet
    u22 = p * (r2 + a3 * u21)
    u23, u24 = q * (r3 + a5 * u22), (A * r4 - C * r1) * idet
    f1, f2, f3, f4 = field(
        a,
        y1 + _RA31 * u11 + _RA32 * u21,
        y2 + _RA31 * u12 + _RA32 * u22,
        y3 + _RA31 * u13 + _RA32 * u23,
        y4 + _RA31 * u14 + _RA32 * u24,
    )
    r1 = f1 + hi * (_RC31 * u11 + _RC32 * u21)
    r2 = f2 + hi * (_RC31 * u12 + _RC32 * u22)
    r3 = f3 + hi * (_RC31 * u13 + _RC32 * u23)
    r4 = f4 + hi * (_RC31 * u14 + _RC32 * u24)
    r4 += a7q * (r3 + a5p * r2)
    u31 = (D * r1 - B * r4) * idet
    u32 = p * (r2 + a3 * u31)
    u33, u34 = q * (r3 + a5 * u32), (A * r4 - C * r1) * idet
    f1, f2, f3, f4 = field(
        a,
        y1 + _RA41 * u11 + _RA42 * u21 + _RA43 * u31,
        y2 + _RA41 * u12 + _RA42 * u22 + _RA43 * u32,
        y3 + _RA41 * u13 + _RA42 * u23 + _RA43 * u33,
        y4 + _RA41 * u14 + _RA42 * u24 + _RA43 * u34,
    )
    r1 = f1 + hi * (_RC41 * u11 + _RC42 * u21 + _RC43 * u31)
    r2 = f2 + hi * (_RC41 * u12 + _RC42 * u22 + _RC43 * u32)
    r3 = f3 + hi * (_RC41 * u13 + _RC42 * u23 + _RC43 * u33)
    r4 = f4 + hi * (_RC41 * u14 + _RC42 * u24 + _RC43 * u34)
    r4 += a7q * (r3 + a5p * r2)
    u41 = (D * r1 - B * r4) * idet
    u42 = p * (r2 + a3 * u41)
    u43, u44 = q * (r3 + a5 * u42), (A * r4 - C * r1) * idet
    w1 = y1 + _RA51 * u11 + _RA52 * u21 + _RA53 * u31 + _RA54 * u41
    w2 = y2 + _RA51 * u12 + _RA52 * u22 + _RA53 * u32 + _RA54 * u42
    w3 = y3 + _RA51 * u13 + _RA52 * u23 + _RA53 * u33 + _RA54 * u43
    w4 = y4 + _RA51 * u14 + _RA52 * u24 + _RA53 * u34 + _RA54 * u44
    f1, f2, f3, f4 = field(a, w1, w2, w3, w4)
    r1 = f1 + hi * (_RC51 * u11 + _RC52 * u21 + _RC53 * u31 + _RC54 * u41)
    r2 = f2 + hi * (_RC51 * u12 + _RC52 * u22 + _RC53 * u32 + _RC54 * u42)
    r3 = f3 + hi * (_RC51 * u13 + _RC52 * u23 + _RC53 * u33 + _RC54 * u43)
    r4 = f4 + hi * (_RC51 * u14 + _RC52 * u24 + _RC53 * u34 + _RC54 * u44)
    r4 += a7q * (r3 + a5p * r2)
    u51 = (D * r1 - B * r4) * idet
    u52 = p * (r2 + a3 * u51)
    u53, u54 = q * (r3 + a5 * u52), (A * r4 - C * r1) * idet
    w1, w2, w3, w4 = w1 + u51, w2 + u52, w3 + u53, w4 + u54
    f1, f2, f3, f4 = field(a, w1, w2, w3, w4)
    r1 = f1 + hi * (_RC61 * u11 + _RC62 * u21 + _RC63 * u31 + _RC64 * u41 + _RC65 * u51)
    r2 = f2 + hi * (_RC61 * u12 + _RC62 * u22 + _RC63 * u32 + _RC64 * u42 + _RC65 * u52)
    r3 = f3 + hi * (_RC61 * u13 + _RC62 * u23 + _RC63 * u33 + _RC64 * u43 + _RC65 * u53)
    r4 = f4 + hi * (_RC61 * u14 + _RC62 * u24 + _RC63 * u34 + _RC64 * u44 + _RC65 * u54)
    r4 += a7q * (r3 + a5p * r2)
    u61 = (D * r1 - B * r4) * idet
    u62 = p * (r2 + a3 * u61)
    u63, u64 = q * (r3 + a5 * u62), (A * r4 - C * r1) * idet
    return (w1 + u61, w2 + u62, w3 + u63, w4 + u64), (u61, u62, u63, u64)


def integrate(
    p: Params,
    x0,
    horizon: float,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
) -> Trajectory:
    """Integrate forward from x0 over [0, horizon] with error control.

    Steps are Taylor steps of order 6 until a trial RODAS4 step finds
    that an implicit step twice as long is as accurate (see
    _TRIAL_GATE); from then on they are RODAS4 steps, with cubic Hermite
    dense rows, until the step RODAS4 proposes falls below twice one the
    Taylor step can take, and the Taylor step takes the run back.  The
    error estimate is the Taylor polynomial's last term or RODAS4's
    embedded difference, held below abs_tol + rel_tol * |component| in
    RMS norm; a Taylor step's length is chosen from its coefficients so
    that the last term stays at 0.9**6 of that, a RODAS4 step's length
    by the usual controller.  A step that would push a component below
    -abs_tol is rejected and retried smaller; residual undershoot inside
    [-abs_tol, 0) is clamped to 0, keeping every stored state in the
    orthant.  ``stats["nfev"]`` counts field evaluations: 6 per Taylor
    expansion (one per order of the recurrence), 5 per RODAS4 attempt,
    trials included, and 1 per accepted RODAS4 state.
    """
    x0 = State.from_sequence(x0)
    horizon = float(_require_positive("horizon", horizon))
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not (0.0 < tol < 1.0):
            raise ValueError(f"{name} must lie in (0, 1), got {tol!r}")

    a = p.as_tuple()
    _, a2, _, a4, _, a6, _, a8 = a
    a46 = a4 + a6
    isfinite = math.isfinite
    t = 0.0
    y = x0.as_tuple()
    c = None  # Taylor coefficients at y, expanded when first needed

    ts = array("d", [0.0])
    ys = array("d", y)
    # accepted states wait here and go into ys 1,024 values at a time:
    # ys.fromlist costs half of ys.extend's per-item path, and a short
    # list keeps few floats alive
    pending = []
    edges = []  # the step indices at which the method changes
    rejected_error = rejected_orthant = rejected_nonfinite = 0
    nfev = failed_trials = 0
    stiff = False
    wait = 0  # Taylor steps until the next trial may run
    n = 0  # accepted steps

    while t < horizon:
        y1, y2, y3, y4 = y
        if c is None and not stiff:
            c = _taylor(a, y)
            nfev += 6
            try:
                sq = (
                    (c[20] / (abs_tol + rel_tol * y1)) ** 2
                    + (c[21] / (abs_tol + rel_tol * y2)) ** 2
                    + (c[22] / (abs_tol + rel_tol * y3)) ** 2
                    + (c[23] / (abs_tol + rel_tol * y4)) ** 2
                )
            except OverflowError:
                msg = f"abs_tol {abs_tol!r} is too small: the error norm overflows"
                raise IntegrationError(msg, t) from None
            h = 0.9 * (sq * 0.25) ** (-1 / 12) if sq > 0.0 else horizon
        if h < 1e-13 * (t if t > 1.0 else 1.0):  # t >= 0
            msg = f"step size underflow at rel_tol {rel_tol!r}, abs_tol {abs_tol!r}"
            raise IntegrationError(msg, t)
        if n >= 5_000_000:
            raise IntegrationError("step budget exhausted", t)
        trial = not stiff and wait == 0 and h * (a2 * y4 + a8 * y1 + a46) > _TRIAL_GATE
        h_try = _TRIAL_LENGTH * h if trial else h
        last = h_try >= horizon - t
        h_use = horizon - t if last else h_try

        if stiff or trial:
            if trial:
                f0 = c[:4]
            y_end, (e1, e2, e3, e4) = _rodas4_step(a, y, f0, h_use)
            nfev += 5
            v1, v2, v3, v4 = y_end
            clean = False
        else:
            v1, v2, v3, v4 = y_end = _taylor_step(y, c, h_use)
            # an end in the orthant with a finite sum passes every test below
            clean = v1 >= 0.0 and v2 >= 0.0 and v3 >= 0.0 and v4 >= 0.0 and isfinite(v1 + v2 + v3 + v4)
        if not clean:
            finite = isfinite(v1) and isfinite(v2) and isfinite(v3) and isfinite(v4)
            # a Taylor step's length holds this norm at 0.9**6: h_use <= h, and
            # the denominators only grow from those h was chosen with
            err = 0.0
            if finite and (stiff or trial):
                # accepted states lie in the orthant, so |y_i| = y_i here
                sq = (
                    (e1 / (abs_tol + rel_tol * (y1 if y1 > abs(v1) else abs(v1)))) ** 2
                    + (e2 / (abs_tol + rel_tol * (y2 if y2 > abs(v2) else abs(v2)))) ** 2
                    + (e3 / (abs_tol + rel_tol * (y3 if y3 > abs(v3) else abs(v3)))) ** 2
                    + (e4 / (abs_tol + rel_tol * (y4 if y4 > abs(v4) else abs(v4)))) ** 2
                )
                err = math.sqrt(sq * 0.25)
                finite = isfinite(err)
            inside = not (v1 < -abs_tol or v2 < -abs_tol or v3 < -abs_tol or v4 < -abs_tol)
            if trial and not (finite and err <= 1.0 and inside):
                wait = _TRIAL_GAP  # a failed trial is no rejection: the Taylor step follows
                failed_trials += 1
                continue
            if not finite:
                rejected_nonfinite += 1
                h = h_use * 0.2
                continue
            if err > 1.0:
                rejected_error += 1
                h = h_use * max(0.2, 0.9 * err**-0.25)
                continue
            if not inside:
                # accuracy is fine but the orthant would be left; try smaller
                rejected_orthant += 1
                h = h_use * 0.5
                continue
            if v1 < 0.0 or v2 < 0.0 or v3 < 0.0 or v4 < 0.0:
                # undershoot within abs_tol: clamp, and restart from there
                y_end = (max(v1, 0.0), max(v2, 0.0), max(v3, 0.0), max(v4, 0.0))

        if trial:
            stiff = True
            edges.append(n)
        if stiff:
            # the field at the new state is the next step's first stage
            f0 = field(a, *y_end)
            nfev += 1
            h = h_use * (10.0 if err == 0.0 else min(10.0, max(0.2, 0.9 * err**-0.25)))
            if not last and h * (a2 * y_end[3] + a8 * y_end[0] + a46) < _TRIAL_LENGTH * _TRIAL_GATE:
                # the next step is below the break-even: hand the run back
                stiff = False
                c = None
                wait = _TRIAL_GAP
                edges.append(n + 1)
        else:
            c = None
            if wait:
                wait -= 1
        t = horizon if last else t + h_use
        y = y_end
        n += 1
        ts.append(t)
        pending += y_end
        if not n & 255:  # 1,024 values
            ys.fromlist(pending)
            pending.clear()

    ys.fromlist(pending)
    # edges alternate: a switch to RODAS4, a hand-back, ...; the Taylor runs lie between
    bounds = [0, *edges, n]
    runs = tuple((i, j) for i, j in zip(bounds[::2], bounds[1::2]) if i < j)
    taylor_steps = sum(j - i for i, j in runs)
    stats = dict(accepted=n, rejected_error=rejected_error,
                 rejected_orthant=rejected_orthant, rejected_nonfinite=rejected_nonfinite,
                 nfev=nfev, stiff_steps=n - taylor_steps, switches=(len(edges) + 1) // 2,
                 switches_back=len(edges) // 2, failed_trials=failed_trials)
    return Trajectory(p, np.frombuffer(ts), np.frombuffer(ys).reshape(-1, 4), runs, stats)


def propagate_fixed(p: Params, x0, horizon: float, n_steps: int) -> np.ndarray:
    """Endpoint state after n_steps equal-size Taylor steps of order 5 (no error control).

    Measurement helper for convergence-order studies; no clamping or
    rejection happens, so the raw method order is visible.  The step is
    integrate's with the order-6 terms set to 0: at order 6 the error of
    1,000 steps on the demo's [0, 5] is already at rounding (3.6e-14),
    so step halving would measure rounding, not order.  Like integrate,
    it raises a ValueError unless horizon is finite and > 0; n_steps
    must be an int >= 1.
    """
    x0 = State.from_sequence(x0)
    horizon = float(_require_positive("horizon", horizon))
    if not _is_integer(n_steps) or n_steps < 1:
        raise ValueError(f"n_steps must be an int >= 1, got {n_steps!r}")
    a = p.as_tuple()
    y = x0.as_tuple()
    h = horizon / int(n_steps)
    for _ in range(n_steps):
        y = _taylor_step(y, _taylor(a, y)[:20] + (0.0,) * 4, h)
    return np.array(y)


def _coefficients(traj: Trajectory, name: str) -> np.ndarray:
    """Per-step polynomial of an observable in s in [0, 1], (degree + 1, nodes).

    Row k holds the s**k coefficient, laid out like the table
    (Trajectory): column i is step i's polynomial, the last column the
    last node alone, so row 0 is the observable at every node.  The
    components and W have degree 6, p and W_rate degree 12.  A component
    is a read-only view of the table; the others are computed from views.
    """
    if name not in OBSERVABLES:
        raise ValueError(f"unknown observable {name!r}; expected one of {OBSERVABLES}")
    x1, x2, x3, x4 = traj._coef
    if name == "p":
        return _product(x1, x4)
    if name == "W":
        return traj.params.derived.W(x2, x3, x4)
    if name == "W_rate":
        gap = -x4
        gap[0] += traj.params.derived.K
        return traj.params.alpha8 * _product(x1, gap)
    return traj._coef[OBSERVABLES.index(name)]


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-step coefficients of the product of two per-step polynomials."""
    c = np.zeros((len(a) + len(b) - 1, a.shape[1]))
    for j in range(len(a)):
        c[j : j + len(b)] += a[j] * b
    return c


# power-to-Bernstein basis change by degree: b_k = sum_j C(k,j)/C(d,j) a_j
_TO_BERNSTEIN = {
    d: np.array([[math.comb(k, j) / math.comb(d, j) if j <= k else 0.0 for j in range(d + 1)]
                 for k in range(d + 1)])
    for d in range(1, 13)
}


# k in row k - 1: the factors that take a polynomial's coefficients to its derivative's
_RANKS = np.arange(1.0, 13.0)[:, None]


def _hull(coef: np.ndarray):
    """Per-step (min, max) of the Bernstein coefficients.

    The polynomial on [0, 1] lies between them, so a step can only reach
    a level inside that range.
    """
    b = np.einsum("kj,jm->km", _TO_BERNSTEIN[len(coef) - 1], coef)
    return np.minimum.reduce(b, axis=0), np.maximum.reduce(b, axis=0)


def _horner(coef: np.ndarray, s: np.ndarray) -> np.ndarray:
    v = coef[-1] * s
    for c in coef[-2:0:-1]:
        v = (v + c) * s
    return v + coef[0]


def _unit_roots(coef: np.ndarray, level: float, pad: float) -> np.ndarray:
    """Real roots in [0, 1] of each step's polynomial minus level.

    Returns (degree, steps): each column's roots and, in the unused
    slots, pad, sorted.  The roots of the derivative, found the same way
    down to a linear polynomial (and only where the derivative's hull
    straddles 0), cut [0, 1] into monotone pieces; a piece whose ends lie
    on opposite sides holds exactly one root.  Those steps run on whole
    arrays; then each bracket is polished on plain floats by a Newton
    iteration kept inside the shrinking bracket, which takes the root to
    rounding and keeps it from the step where it first settles, so no
    column's roots depend on the other columns of the call.  Zero leading
    coefficients (the cubic Hermite pieces of from_samples) need no
    special case.
    """
    c = coef.copy()
    c[0] -= level
    d, m = len(c) - 1, c.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        if d == 1:
            r = -c[0] / c[1]
            return np.where((r >= 0.0) & (r <= 1.0), r, pad)[None]
        slope = c[1:] * _RANKS[:d]
        knots = np.zeros((d + 1, m))
        knots[1:] = 1.0
        lo, hi = _hull(slope)
        bend = ((lo < 0.0) & (hi > 0.0)).nonzero()[0]  # only these can turn
        if bend.size:
            knots[1:-1, bend] = _unit_roots(slope[:, bend], 0.0, 1.0)
        f = _horner(c, knots)
    fa, fb = f[:-1], f[1:]
    k, j = (((fa < 0.0) & (fb >= 0.0)) | ((fa > 0.0) & (fb <= 0.0))).nonzero()
    roots = np.full((d, m), pad)
    if k.size:
        brackets = zip(c[:, j].T.tolist(), slope[:, j].T.tolist(), knots[k, j].tolist(),
                       knots[k + 1, j].tolist(), fa[k, j].tolist(), fb[k, j].tolist())
        roots[k, j] = [_polish(*bracket) for bracket in brackets]
        roots[:, j] = np.sort(roots[:, j], axis=0)  # a column of pad alone is sorted
    return roots


def _polish(c, slope, a, b, ga, gb):
    """The one root in [a, b] of a polynomial whose values ga, gb at a, b differ in sign.

    c and slope are the coefficients of the polynomial and of its
    derivative, as lists of floats; gb may be 0.  Newton steps start from
    the secant, and a step that would leave the shrinking bracket, or a
    zero derivative, bisects instead.  Near rounding Newton can step
    between neighbouring floats, so the root is taken where it first
    settles.
    """
    a_below = ga < 0.0
    s = a + (b - a) * (ga / (ga - gb))  # start from the secant
    for _ in range(100):
        g = _horner(c, s)
        if (g < 0.0) == a_below:  # still on a's side: the root is right of s
            a = s
        else:
            b = s
        dg = _horner(slope, s)
        newton = s - g / dg if dg else math.nan
        s, prev = newton if a <= newton <= b else 0.5 * (a + b), s
        if abs(s - prev) <= 1e-15:
            break
    return s


def _extremum(traj: Trajectory, queries):
    """Largest value of per-step polynomials on a window, and its time, for each query.

    A query is (coef, start, end): polynomials of one degree laid out as
    _coefficients(traj, name) gives them, row 0 the node values, and a
    window, None meaning an end of the span.  The candidates are the
    window's ends, the nodes inside it and the derivative's roots,
    searched only in steps whose left value plus positive coefficients
    beats the query's best node or end.  All queries' columns go through
    one filter and one root search; roots settle one by one
    (_unit_roots), so no answer depends on the other queries.
    """
    t = traj.t
    node = t.item  # the window bookkeeping runs on plain floats
    t0, tn = node(0), node(-1)
    starts = [t0 if q[1] is None else float(q[1]) for q in queries]
    ends = [tn if q[2] is None else float(q[2]) for q in queries]
    firsts = t.searchsorted(starts, "right").tolist()
    stops = t.searchsorted(ends, "left").tolist()
    windows = []  # per query: steps [first, stop) and where the window starts and ends in them
    edges = [0]  # query q owns the columns edges[q]:edges[q + 1]
    for start, end, first, stop in zip(starts, ends, firsts, stops):
        if not (t0 - 1e-12 <= start <= end + 1e-12 and end <= tn + 1e-12):
            raise ValueError(f"window [{start!r}, {end!r}] is not inside [{t0!r}, {tn!r}]")
        first = min(max(first - 1, 0), len(t) - 2)
        stop = min(max(stop, first + 1), len(t) - 1)
        a, b = node(first), node(stop - 1)
        lo = min(max((start - a) / (node(first + 1) - a), 0.0), 1.0)
        hi = min(max((end - b) / (node(stop) - b), 0.0), 1.0)
        windows.append((first, stop, lo, hi))
        edges.append(edges[-1] + stop - first)
    lo, hi = np.zeros(edges[-1]), np.ones(edges[-1])
    parts = [q[0][:, first:stop] for q, (first, stop, _, _) in zip(queries, windows)]
    c = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    # each query's best node or window end, also spread over its columns
    best, s_best, steps, beat = [], [], [], np.empty(edges[-1])
    for q, (first, stop, w0, w1), e0, e1 in zip(queries, windows, edges, edges[1:]):
        lo[e0], hi[e1 - 1] = w0, w1
        v = q[0][0, first : stop + 1].copy()  # the node values
        v[0] = _horner(c[:, e0].tolist(), w0)
        if w1 < 1.0:
            v[-1] = _horner(c[:, e1 - 1].tolist(), w1)
        j = int(v.argmax())
        best.append(v.item(j))
        s_best.append(w0 if j == 0 else w1 if j == e1 - e0 else 0.0)
        steps.append(first + min(j, stop - first - 1))
        beat[e0:e1] = best[-1]
    # each column's left value plus its positive coefficients, summed in row order
    bound = np.maximum(c, 0.0)
    bound[0] = c[0]
    cand = (bound.sum(axis=0) > beat).nonzero()[0]
    return _settle(t, c[:, cand], cand, lo[cand], hi[cand], edges, best, s_best, steps, [w[0] for w in windows])


def _settle(t, c, cand, lo, hi, edges, best, s_best, steps, firsts):
    """Each query's (value, time): its best so far (best, s_best, steps) or a larger root.

    c holds the sorted candidate columns cand, numbered as in _extremum (query q's from
    edges[q], on its step firsts[q]); lo and hi clip the roots to the windows.  Of equal
    values the first in (root slot, step) order wins.
    """
    if cand.size:
        s = _unit_roots(c[1:] * _RANKS[: len(c) - 1], 0.0, 0.0)
        ok = (s >= lo) & (s <= hi)
        v = np.where(ok, _horner(c, s), -np.inf)
        # cand is sorted, so each query's candidates are one run of columns
        split = cand.searchsorted(edges).tolist()
        for q, (a, b) in enumerate(zip(split, split[1:])):
            if a < b:
                k, j = divmod(int(v[:, a:b].argmax()), b - a)
                if v[k, a + j] > best[q]:
                    best[q], s_best[q] = v[k, a + j], s[k, a + j]
                    steps[q] = firsts[q] + int(cand[a + j]) - edges[q]
    found = []
    for value, s_at, step in zip(best, s_best, steps):
        a, b = t.item(step), t.item(step + 1)
        time = b if s_at == 1.0 else a + (b - a) * s_at
        found.append((float(value), float(time)))
    return found


def stretches_above(traj: Trajectory, observable: str, level: float) -> list[tuple[float, float]]:
    """Maximal (start, end) stretches with the observable at or above level, by start.

    A stretch at or above the level at t0 starts there, and one still at
    or above it at the end runs to the horizon; every other end is a
    crossing, exact to rounding.  Steps whose hull excludes the level
    stay on one side; the others are cut at the roots of their
    polynomial minus level, and each piece between roots is placed by its
    midpoint.  A crossing on a node shared by two steps counts once,
    because an end is recorded only where the side changes.
    """
    level = float(level)
    if not math.isfinite(level):
        raise ValueError(f"level must be finite, got {level!r}")
    coef = _coefficients(traj, observable)[:, :-1]  # the steps
    lo, hi = _hull(coef)
    t = traj.t
    d = len(coef) - 1
    first = lo > level  # side of each step's first and last piece
    last = first.copy()
    cand = ((lo <= level) & (level <= hi)).nonzero()[0]
    inner_t, inner_key = np.empty(0), np.empty(0, dtype=np.intp)
    if cand.size:
        c, m = coef[:, cand], cand.size
        cuts = np.concatenate([np.zeros((1, m)), _unit_roots(c, level, 1.0), np.ones((1, m))])
        side = _horner(c, 0.5 * (cuts[:-1] + cuts[1:])) >= level
        # empty pieces (the padding at s = 1) take the side before them
        valid = cuts[1:] > cuts[:-1]
        for k in range(1, d + 1):
            side[k] = np.where(valid[k], side[k], side[k - 1])
        first[cand], last[cand] = side[0], side[-1]
        k, j = (side[1:] != side[:-1]).nonzero()
        step = cand[j]
        inner_t = t[step] + (t[step + 1] - t[step]) * cuts[k + 1, j]
        inner_key = step * (d + 2) + k + 1
    # ends on nodes: between one step's last piece and the next one's first
    start = bool(coef[0, 0] >= level)
    before = np.concatenate([[start], last[:-1]])
    nodes = (before != first).nonzero()[0]
    times = np.concatenate([t[nodes], inner_t])
    ends = times[np.concatenate([nodes * (d + 2), inner_key]).argsort()].tolist()
    if start:
        ends.insert(0, float(t[0]))
    if len(ends) % 2:
        ends.append(float(t[-1]))
    return list(zip(ends[::2], ends[1::2]))


def excursions_above(traj: Trajectory, level: float) -> list[Excursion]:
    """Maximal intervals with x1 >= level, by start time; found once per level and kept."""
    level = float(_require_positive("level", level))
    if level not in traj._excursions:
        traj._excursions[level] = [Excursion(level, a, b) for a, b in stretches_above(traj, "x1", level)]
    return list(traj._excursions[level])  # a new list: the kept one stays as found


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write the step nodes as `t,x1,x2,x3,x4` rows after a `# taylor_steps=` line.

    The line lists the Taylor runs as `start:stop` pairs (`0:134,186:468`,
    empty for none).  Full double precision (17 significant digits) and
    LF line endings, so files round-trip bit-exactly across platforms.
    """
    line = ",".join(f"{i}:{j}" for i, j in traj.taylor_runs)
    table = np.column_stack([traj.t, traj.y])
    with open(path, "w", newline="\n") as fh:
        fh.write(f"t,x1,x2,x3,x4\n# taylor_steps={line}\n")
        # one formatting call per block of rows keeps the text small in memory
        row = "%.17g,%.17g,%.17g,%.17g,%.17g\n"
        for k in range(0, len(table), 512):
            block = table[k : k + 512]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def read_trajectory_csv(path, params: Params) -> Trajectory:
    """Load a trajectory CSV written by write_trajectory_csv: its nodes give back its rows.

    The `# taylor_steps=` line lists the Taylor runs as `start:stop`
    pairs.  Without the line (a hand-written file) every step is a cubic
    Hermite piece.  The line is taken as given:
    Trajectory.check_taylor_rows tells whether the nodes bear it out.
    Faults raise a ValueError naming the file.
    """
    where = f"trajectory CSV {path}"
    with open(path, "r", newline="") as fh, warnings.catch_warnings():
        header, second = fh.readline().strip(), fh.readline()  # second: taylor_steps or a row
        key, _, m = second.partition("=")
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # reported below
        try:
            if header != "t,x1,x2,x3,x4":
                raise ValueError(f"unexpected header {header!r}")
            m = m.strip() if key.strip() == "# taylor_steps" else ""
            pairs = [r.split(":") for r in m.split(",")] if m else []
            if not all(len(r) == 2 and all(k.lstrip("-").isdecimal() for k in r) for r in pairs):
                raise ValueError(f"taylor_steps {m!r} is not a list of start:stop runs")
            runs = [(int(i), int(j)) for i, j in pairs]
            data = np.loadtxt([second, *fh], delimiter=",", ndmin=2)
            if data.size:
                if data.shape[1] != 5:
                    raise ValueError(f"expected 5 columns, got {data.shape[1]}")
                return Trajectory.from_samples(params, data[:, 0], data[:, 1:], runs)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    raise ValueError(f"{where} has no data rows")
