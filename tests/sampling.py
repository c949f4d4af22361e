"""Sampling grids for dense checks in the tests."""

import math

import numpy as np

SCAN_DT = 0.05  # default spacing of scan_times


def scan_times(traj, max_dt=SCAN_DT):
    """Node times plus per-step subdivision at spacing <= max_dt.

    Long steps (the integrator takes them where the flow is mild) get
    interior points too: a step of length h > max_dt is cut into
    ceil(h / max_dt) equal parts.
    """
    t = traj.t
    pieces = [t[:1]]
    for i in range(len(t) - 1):
        h = t[i + 1] - t[i]
        if h > max_dt:
            k = int(math.ceil(h / max_dt))
            pieces.append(t[i] + h * np.arange(1, k) / k)
        pieces.append(t[i + 1 : i + 2])
    return np.concatenate(pieces)


def window_grid(a, b, max_dt=0.005, min_pts=33):
    """The uniform window grid the excursion lemma and cascade checks once sampled."""
    n = max(min_pts, int(math.ceil((b - a) / max_dt)) + 1)
    return np.linspace(a, b, n)
