"""Adaptive Runge-Kutta integration with dense output and event location.

The integrator is a Dormand-Prince 5(4) pair: six function evaluations
per step give a 5th order solution, an embedded 4th order error
estimate, and a free evaluation at the step end that doubles as the
next step's first stage (FSAL).  Each accepted step keeps a quartic
interpolation polynomial, so trajectories can be evaluated anywhere in
the covered span and events located to high accuracy without re-running
the integration.

The state space is tiny (four components), so the one step shared by
integrate and propagate_fixed is written out component by component on
plain floats; accepted states and stages go into flat float buffers that
become numpy arrays once, at the end.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .model import DerivedConstants, Params, State, field

__all__ = [
    "IntegrationError",
    "Trajectory",
    "Excursion",
    "integrate",
    "propagate_fixed",
    "first_hitting",
    "excursions_above",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "OBSERVABLES",
]

# Dormand-Prince 5(4) tableau.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# difference between the 5th and 4th order weights
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)

# Dense-output coefficients: y(t0 + s*h) = y0 + h * sum_i k_i * Q_i(s)
# with Q_i(s) = sum_j _P[i][j] * s**(j+1).  Row sums equal the 5th order
# weights, so s=1 reproduces the step endpoint.
_P = np.array(
    [
        [
            1.0,
            -8048581381 / 2820520608,
            8663915743 / 2820520608,
            -12715105075 / 11282082432,
        ],
        [0.0, 0.0, 0.0, 0.0],
        [
            0.0,
            131558114200 / 32700410799,
            -68118460800 / 10900136933,
            87487479700 / 32700410799,
        ],
        [
            0.0,
            -1754552775 / 470086768,
            14199869525 / 1410260304,
            -10690763975 / 1880347072,
        ],
        [
            0.0,
            127303824393 / 49829197408,
            -318862633887 / 49829197408,
            701980252875 / 199316789632,
        ],
        [
            0.0,
            -282668133 / 205662961,
            2019193451 / 616988883,
            -1453857185 / 822651844,
        ],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

OBSERVABLES = ("x1", "x2", "x3", "x4", "p", "W")

_EVENT_TOL = 1e-10  # time accuracy of refined crossings
_SCAN_DT = 0.05  # max spacing of the sign-change scan grid


class IntegrationError(RuntimeError):
    """Integration could not continue; carries the last valid time."""

    def __init__(self, message: str, last_time: float):
        super().__init__(f"{message} (last valid time t={last_time!r})")
        self.last_time = last_time


@dataclass(frozen=True)
class Excursion:
    """A maximal interval on which species 1 stays at or above a level.

    For interior intervals the start is a refined up-crossing, so
    x1(start) equals the level up to the event tolerance; an excursion
    starting at the initial time may begin strictly above it.  The end
    is a refined down-crossing or the horizon.
    """

    level: float
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Trajectory:
    """Integration output: samples plus per-step interpolation data.

    ``t`` holds the accepted step times (strictly increasing, starting
    at 0 with the initial state), ``y`` the states at those times, and
    the dense coefficients let ``at`` evaluate the solution anywhere in
    between.  Instances are immutable after construction and carry the
    inputs that produced them.

    ``stats`` counts what the integrator did: accepted steps, rejected
    attempts by reason (error, orthant, non-finite) and function
    evaluations.  It is empty for trajectories rebuilt from samples.
    """

    def __init__(self, params, x0, t, y, dense, rel_tol, abs_tol, error_estimate, stats=None):
        self.params = params
        self.x0 = x0
        self.t = t
        self.y = y
        self._dense = dense  # (n-1, 4 components, 4 powers of s)
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol
        self.error_estimate = error_estimate
        self.stats = MappingProxyType(dict(stats or {}))

    @property
    def t0(self) -> float:
        return float(self.t[0])

    def at(self, times):
        """Evaluate the state at one time or an array of times.

        Node times return the stored samples exactly; interior times use
        the per-step polynomial, clamped to the orthant.
        """
        tq = np.asarray(times, dtype=float)
        scalar = tq.ndim == 0
        tq1 = np.atleast_1d(tq).copy()
        if tq1.size:
            lo, hi = self.t[0], self.t[-1]
            if ((tq1 < lo - 1e-12) | (tq1 > hi + 1e-12)).any():
                raise ValueError("query time outside the integrated span")
            np.clip(tq1, lo, hi, out=tq1)
        idx = np.searchsorted(self.t, tq1, side="right") - 1
        np.clip(idx, 0, len(self.t) - 2, out=idx)
        h = self.t[idx + 1] - self.t[idx]
        s = (tq1 - self.t[idx]) / h
        powers = np.stack([s, s * s, s**3, s**4], axis=-1)
        vals = self.y[idx] + np.einsum("mjp,mp->mj", self._dense[idx], powers)
        pos = np.minimum(np.searchsorted(self.t, tq1), len(self.t) - 1)
        exact = self.t[pos] == tq1
        if exact.any():
            vals[exact] = self.y[pos[exact]]
        np.maximum(vals, 0.0, out=vals)
        return vals[0] if scalar else vals

    def scan_times(self, max_dt: float = _SCAN_DT) -> np.ndarray:
        """Node times plus per-step subdivision at spacing <= max_dt.

        Long steps (the integrator takes them where the flow is mild)
        would otherwise let a feature slip between two nodes during
        event scans.
        """
        t = self.t
        h = np.diff(t)
        # step i contributes k[i] points t[i] + h*j/k for j = 1..k, the
        # last of which is the node t[i+1] itself
        k = np.where(h > max_dt, np.ceil(h / max_dt), 1.0).astype(np.intp)
        step = np.repeat(np.arange(len(h)), k)
        kk = k[step]
        j = np.arange(1, len(step) + 1) - np.repeat(np.cumsum(k) - k, k)
        inner = t[step] + h[step] * j / kk
        node = j == kk
        inner[node] = t[1:]
        return np.concatenate([t[:1], inner])

    @classmethod
    def from_samples(cls, params, t, y, rel_tol=1e-8, abs_tol=1e-10):
        """Rebuild a trajectory from plain samples (e.g. a CSV round trip).

        Interpolation uses cubic Hermite pieces with analytic
        derivatives from the vector field, which keeps dense queries
        meaningful between the given rows.
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
        y = np.maximum(y, 0.0)
        f = np.stack(field(params.as_tuple(), *y.T), axis=-1)
        h = np.diff(t)[:, None]
        dy = np.diff(y, axis=0)
        f0, f1 = f[:-1], f[1:]
        dense = np.stack(
            [
                h * f0,
                3.0 * dy - h * (2.0 * f0 + f1),
                -2.0 * dy + h * (f0 + f1),
                np.zeros_like(dy),
            ],
            axis=-1,
        )
        x0 = State.from_clamped(y[0])
        return cls(params, x0, t, y, dense, rel_tol, abs_tol, np.zeros(4))


def _dp54_step(a, y, k1, h):
    """One Dormand-Prince step from y with k1 = field(a, *y).

    Returns (y5, k7, stages, err): the 5th order solution, the field at
    y5, the 28 stage values in stage order and the error estimate.
    """
    y1, y2, y3, y4 = y
    k11, k12, k13, k14 = k1
    k21, k22, k23, k24 = field(
        a,
        y1 + h * (_A21 * k11),
        y2 + h * (_A21 * k12),
        y3 + h * (_A21 * k13),
        y4 + h * (_A21 * k14),
    )
    k31, k32, k33, k34 = field(
        a,
        y1 + h * (_A31 * k11 + _A32 * k21),
        y2 + h * (_A31 * k12 + _A32 * k22),
        y3 + h * (_A31 * k13 + _A32 * k23),
        y4 + h * (_A31 * k14 + _A32 * k24),
    )
    k41, k42, k43, k44 = field(
        a,
        y1 + h * (_A41 * k11 + _A42 * k21 + _A43 * k31),
        y2 + h * (_A41 * k12 + _A42 * k22 + _A43 * k32),
        y3 + h * (_A41 * k13 + _A42 * k23 + _A43 * k33),
        y4 + h * (_A41 * k14 + _A42 * k24 + _A43 * k34),
    )
    k51, k52, k53, k54 = field(
        a,
        y1 + h * (_A51 * k11 + _A52 * k21 + _A53 * k31 + _A54 * k41),
        y2 + h * (_A51 * k12 + _A52 * k22 + _A53 * k32 + _A54 * k42),
        y3 + h * (_A51 * k13 + _A52 * k23 + _A53 * k33 + _A54 * k43),
        y4 + h * (_A51 * k14 + _A52 * k24 + _A53 * k34 + _A54 * k44),
    )
    k61, k62, k63, k64 = field(
        a,
        y1 + h * (_A61 * k11 + _A62 * k21 + _A63 * k31 + _A64 * k41 + _A65 * k51),
        y2 + h * (_A61 * k12 + _A62 * k22 + _A63 * k32 + _A64 * k42 + _A65 * k52),
        y3 + h * (_A61 * k13 + _A62 * k23 + _A63 * k33 + _A64 * k43 + _A65 * k53),
        y4 + h * (_A61 * k14 + _A62 * k24 + _A63 * k34 + _A64 * k44 + _A65 * k54),
    )
    y5 = (
        y1 + h * (_B1 * k11 + _B3 * k31 + _B4 * k41 + _B5 * k51 + _B6 * k61),
        y2 + h * (_B1 * k12 + _B3 * k32 + _B4 * k42 + _B5 * k52 + _B6 * k62),
        y3 + h * (_B1 * k13 + _B3 * k33 + _B4 * k43 + _B5 * k53 + _B6 * k63),
        y4 + h * (_B1 * k14 + _B3 * k34 + _B4 * k44 + _B5 * k54 + _B6 * k64),
    )
    k71, k72, k73, k74 = k7 = field(a, *y5)
    err = (
        h * (_E1 * k11 + _E3 * k31 + _E4 * k41 + _E5 * k51 + _E6 * k61 + _E7 * k71),
        h * (_E1 * k12 + _E3 * k32 + _E4 * k42 + _E5 * k52 + _E6 * k62 + _E7 * k72),
        h * (_E1 * k13 + _E3 * k33 + _E4 * k43 + _E5 * k53 + _E6 * k63 + _E7 * k73),
        h * (_E1 * k14 + _E3 * k34 + _E4 * k44 + _E5 * k54 + _E6 * k64 + _E7 * k74),
    )
    stages = (k11, k12, k13, k14, k21, k22, k23, k24, k31, k32, k33, k34, k41, k42, k43, k44,
              k51, k52, k53, k54, k61, k62, k63, k64, k71, k72, k73, k74)
    return y5, k7, stages, err


def _initial_step(a, y0, f0, rel_tol, abs_tol, horizon):
    """Starting step size from the local scale of the flow."""
    sc = [abs_tol + rel_tol * abs(v) for v in y0]
    d0 = math.sqrt(sum((y0[i] / sc[i]) ** 2 for i in range(4)) / 4.0)
    d1 = math.sqrt(sum((f0[i] / sc[i]) ** 2 for i in range(4)) / 4.0)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, horizon)
    f1 = field(a, *(y0[i] + h0 * f0[i] for i in range(4)))
    d2 = math.sqrt(sum(((f1[i] - f0[i]) / sc[i]) ** 2 for i in range(4)) / 4.0) / h0
    dm = max(d1, d2)
    h1 = (0.01 / dm) ** 0.2 if dm > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100.0 * h0, h1, horizon)


def integrate(
    p: Params,
    x0,
    horizon: float,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
) -> Trajectory:
    """Integrate forward from x0 over [0, horizon] with error control.

    The per-step error estimate is held below
    abs_tol + rel_tol * |component|.  A step that would push a component
    below -abs_tol is rejected and retried smaller; residual undershoot
    inside [-abs_tol, 0) is clamped to 0, keeping every stored state in
    the orthant.
    """
    if not isinstance(x0, State):
        x0 = State.from_sequence(x0)
    horizon = float(horizon)
    if not math.isfinite(horizon) or horizon <= 0.0:
        raise ValueError(f"horizon must be finite and > 0, got {horizon!r}")
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not (0.0 < tol < 1.0):
            raise ValueError(f"{name} must lie in (0, 1), got {tol!r}")

    a = p.as_tuple()
    isfinite = math.isfinite
    t = 0.0
    y = x0.as_tuple()
    k1 = field(a, *y)
    h = _initial_step(a, y, k1, rel_tol, abs_tol, horizon)

    ts = array("d", [0.0])
    ys = array("d", y)
    stages = array("d")
    hs = array("d")
    acc1 = acc2 = acc3 = acc4 = 0.0
    rejected_error = rejected_orthant = rejected_nonfinite = 0
    nfev = 2

    while t < horizon:
        if h < 1e-13 * max(1.0, abs(t)):
            raise IntegrationError("step size underflow", t)
        if len(hs) >= 5_000_000:
            raise IntegrationError("step budget exhausted", t)
        last = h >= horizon - t
        h_use = horizon - t if last else h

        y5, k7, kk, (e1, e2, e3, e4) = _dp54_step(a, y, k1, h_use)
        nfev += 6
        v1, v2, v3, v4 = y5
        if not (isfinite(v1) and isfinite(v2) and isfinite(v3) and isfinite(v4)):
            rejected_nonfinite += 1
            h = h_use * 0.2
            continue
        # accepted states lie in the orthant, so |y_i| = y_i here
        y1, y2, y3, y4 = y
        sq = (
            (e1 / (abs_tol + rel_tol * (y1 if y1 > abs(v1) else abs(v1)))) ** 2
            + (e2 / (abs_tol + rel_tol * (y2 if y2 > abs(v2) else abs(v2)))) ** 2
            + (e3 / (abs_tol + rel_tol * (y3 if y3 > abs(v3) else abs(v3)))) ** 2
            + (e4 / (abs_tol + rel_tol * (y4 if y4 > abs(v4) else abs(v4)))) ** 2
        )
        err = math.sqrt(sq / 4.0)
        if not isfinite(err):
            rejected_nonfinite += 1
            h = h_use * 0.2
            continue
        if err > 1.0:
            rejected_error += 1
            h = h_use * max(0.2, 0.9 * err**-0.2)
            continue
        if v1 < -abs_tol or v2 < -abs_tol or v3 < -abs_tol or v4 < -abs_tol:
            # accuracy is fine but the orthant would be left; try smaller
            rejected_orthant += 1
            h = h_use * 0.5
            continue

        if v1 < 0.0 or v2 < 0.0 or v3 < 0.0 or v4 < 0.0:
            # undershoot within abs_tol: clamp, and restart FSAL from there
            y5 = (max(v1, 0.0), max(v2, 0.0), max(v3, 0.0), max(v4, 0.0))
            k7 = field(a, *y5)
            nfev += 1
        t = horizon if last else t + h_use
        y, k1 = y5, k7
        ts.append(t)
        ys.extend(y5)
        stages.extend(kk)
        hs.append(h_use)
        acc1 += abs(e1)
        acc2 += abs(e2)
        acc3 += abs(e3)
        acc4 += abs(e4)
        h = h_use * (10.0 if err == 0.0 else min(10.0, max(0.2, 0.9 * err**-0.2)))

    k_arr = np.frombuffer(stages).reshape(-1, 7, 4)
    h_arr = np.frombuffer(hs)
    dense = h_arr[:, None, None] * np.einsum("msj,sp->mjp", k_arr, _P)
    stats = dict(accepted=len(hs), rejected_error=rejected_error, rejected_orthant=rejected_orthant,
                 rejected_nonfinite=rejected_nonfinite, nfev=nfev)
    return Trajectory(p, x0, np.frombuffer(ts), np.frombuffer(ys).reshape(-1, 4), dense,
                      rel_tol, abs_tol, np.array([acc1, acc2, acc3, acc4]), stats)


def propagate_fixed(p: Params, x0, horizon: float, n_steps: int) -> np.ndarray:
    """Endpoint state after n_steps equal-size steps (no error control).

    Measurement helper for convergence-order studies; no clamping or
    rejection happens, so the raw method order is visible.
    """
    if not isinstance(x0, State):
        x0 = State.from_sequence(x0)
    a = p.as_tuple()
    y = x0.as_tuple()
    k1 = field(a, *y)
    h = float(horizon) / int(n_steps)
    for _ in range(int(n_steps)):
        y, k1, _, _ = _dp54_step(a, y, k1, h)
    return np.array(y)


def _observable_series(p: Params, name: str, y: np.ndarray) -> np.ndarray:
    if name == "p":
        return y[..., 0] * y[..., 3]
    if name == "W":
        dc = DerivedConstants.from_params(p)
        return y[..., 3] + dc.c * y[..., 1] + dc.d * y[..., 2]
    try:
        col = ("x1", "x2", "x3", "x4").index(name)
    except ValueError:
        raise ValueError(f"unknown observable {name!r}; expected one of {OBSERVABLES}")
    return y[..., col]


def _refine_crossing(traj, name, level, lo, hi, direction) -> float:
    """Bisect the dense output down to the event tolerance.

    The invariant is that the observable sits on the starting side at
    ``lo`` and on the crossed side at ``hi``.
    """
    side = -1.0 if direction == "from-below" else 1.0
    for _ in range(200):
        if hi - lo <= _EVENT_TOL:
            break
        mid = 0.5 * (lo + hi)
        g = float(_observable_series(traj.params, name, traj.at(mid))) - level
        if g * side > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def first_hitting(traj: Trajectory, observable: str, level: float, direction: str = "from-below"):
    """Earliest time the observable reaches the level, or None.

    A sign-change scan over the step nodes (subdivided so no scan cell
    exceeds the scan spacing) locates a bracket, and bisection on the
    dense output refines it to 1e-10 time accuracy.  ``direction``
    selects up-crossings ("from-below") or down-crossings ("from-above").
    """
    if observable not in OBSERVABLES:
        raise ValueError(f"unknown observable {observable!r}; expected one of {OBSERVABLES}")
    if direction not in ("from-below", "from-above"):
        raise ValueError(f"direction must be 'from-below' or 'from-above', got {direction!r}")
    level = float(level)
    ts = traj.scan_times()
    g = _observable_series(traj.params, observable, traj.at(ts)) - level
    if g[0] == 0.0:
        return float(ts[0])
    if direction == "from-below":
        hits = np.nonzero((g[:-1] < 0.0) & (g[1:] >= 0.0))[0]
    else:
        hits = np.nonzero((g[:-1] > 0.0) & (g[1:] <= 0.0))[0]
    if hits.size == 0:
        return None
    i = int(hits[0])
    return _refine_crossing(traj, observable, level, float(ts[i]), float(ts[i + 1]), direction)


def excursions_above(traj: Trajectory, level: float) -> list[Excursion]:
    """Maximal intervals with x1 >= level, endpoints refined, by start time."""
    level = float(level)
    if not math.isfinite(level) or level <= 0.0:
        raise ValueError(f"level must be finite and > 0, got {level!r}")
    ts = traj.scan_times()
    above = traj.at(ts)[:, 0] >= level
    edges = np.diff(above.astype(np.int8), prepend=0, append=0)
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    excursions = []
    for i, j in zip(starts.tolist(), ends.tolist()):
        if i == 0:
            start = float(ts[0])
        else:
            start = _refine_crossing(traj, "x1", level, float(ts[i - 1]), float(ts[i]), "from-below")
        if j == len(ts) - 1:
            end = float(ts[-1])
        else:
            end = _refine_crossing(traj, "x1", level, float(ts[j]), float(ts[j + 1]), "from-above")
        excursions.append(Excursion(level=level, start=start, end=end))
    return excursions


def write_trajectory_csv(traj: Trajectory, path, dt: float = 0.01) -> None:
    """Write `t,x1,x2,x3,x4` rows at the step nodes plus a uniform grid.

    Full double precision (17 significant digits) and LF line endings,
    so files round-trip bit-exactly across platforms.
    """
    grid = np.arange(traj.t[0], traj.t[-1] + 0.5 * dt, dt)
    grid = grid[grid <= traj.t[-1]]
    ts = np.union1d(traj.t, grid)
    vals = traj.at(ts)
    with open(path, "w", newline="\n") as fh:
        fh.write("t,x1,x2,x3,x4\n")
        for t, row in zip(ts, vals):
            fh.write(f"{t:.17g},{row[0]:.17g},{row[1]:.17g},{row[2]:.17g},{row[3]:.17g}\n")


def read_trajectory_csv(path, params: Params, rel_tol: float = 1e-8, abs_tol: float = 1e-10) -> Trajectory:
    """Load a trajectory CSV written by write_trajectory_csv."""
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip()
        if header != "t,x1,x2,x3,x4":
            raise ValueError(f"unexpected CSV header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != 5:
        raise ValueError(f"expected 5 columns, got {data.shape[1]}")
    return Trajectory.from_samples(params, data[:, 0], data[:, 1:], rel_tol, abs_tol)
