"""Deterministic SVG figures: states over time, and x1 under its bound.

Hand-rolled SVG keeps the output byte-stable across runs and machines
(fixed canvas, fixed fonts, no timestamps), which makes the files
usable as golden test artifacts.
"""

from __future__ import annotations

import math

import numpy as np

from .simulate import Trajectory

__all__ = ["states_svg", "x1_bound_svg"]

_WIDTH, _HEIGHT = 840, 520
_LEFT, _RIGHT, _TOP, _BOTTOM = 72, 24, 28, 56
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_LABELS = ("x1", "x2", "x3", "x4")
_MAX_POINTS = 2001


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round tick positions using the usual 1-2-5 progression."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:g}"


class _Frame:
    """Maps data coordinates onto the fixed pixel canvas."""

    def __init__(self, t_lo, t_hi, y_lo, y_hi):
        self.t_lo, self.t_hi = t_lo, t_hi
        self.y_lo, self.y_hi = y_lo, y_hi
        self.px_w = _WIDTH - _LEFT - _RIGHT
        self.px_h = _HEIGHT - _TOP - _BOTTOM

    def x(self, t):
        return _LEFT + (t - self.t_lo) / (self.t_hi - self.t_lo) * self.px_w

    def y(self, v):
        return _TOP + (self.y_hi - v) / (self.y_hi - self.y_lo) * self.px_h


def _axes(frame: _Frame, xlabel: str, ylabel: str) -> list[str]:
    out = [
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{_LEFT}" y="{_TOP}" width="{frame.px_w}" height="{frame.px_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for t in _nice_ticks(frame.t_lo, frame.t_hi):
        px = frame.x(t)
        out.append(
            f'<line x1="{px:.2f}" y1="{_TOP + frame.px_h}" x2="{px:.2f}" '
            f'y2="{_TOP + frame.px_h + 5}" stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{_TOP + frame.px_h + 20}" text-anchor="middle" '
            f'font-family="monospace" font-size="12" fill="#333333">{_fmt(t)}</text>'
        )
    for v in _nice_ticks(frame.y_lo, frame.y_hi):
        py = frame.y(v)
        out.append(
            f'<line x1="{_LEFT - 5}" y1="{py:.2f}" x2="{_LEFT}" y2="{py:.2f}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{_LEFT}" y1="{py:.2f}" x2="{_LEFT + frame.px_w}" y2="{py:.2f}" '
            f'stroke="#eeeeee" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_LEFT - 9}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="12" fill="#333333">{_fmt(v)}</text>'
        )
    out.append(
        f'<text x="{_LEFT + frame.px_w / 2:.2f}" y="{_HEIGHT - 14}" text-anchor="middle" '
        f'font-family="monospace" font-size="13" fill="#333333">{xlabel}</text>'
    )
    out.append(
        f'<text x="18" y="{_TOP + frame.px_h / 2:.2f}" text-anchor="middle" '
        f'font-family="monospace" font-size="13" fill="#333333" '
        f'transform="rotate(-90 18 {_TOP + frame.px_h / 2:.2f})">{ylabel}</text>'
    )
    return out


def _points(frame: _Frame, ts) -> str:
    """The points text of a polyline over times ts, a %.2f slot left for each y.

    A figure's polylines share one time grid, so their x text is formatted once.
    """
    return "%.2f,%%.2f " * len(ts) % tuple(frame.x(ts).tolist())


def _polyline(frame: _Frame, points: str, vs, color: str) -> str:
    pts = (points % tuple(frame.y(vs).tolist()))[:-1]
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'


def _legend(entries) -> list[str]:
    out = []
    x = _LEFT + 12
    y = _TOP + 16
    for i, (label, color, dashed) in enumerate(entries):
        yy = y + 18 * i
        dash = ' stroke-dasharray="7 4"' if dashed else ""
        out.append(
            f'<line x1="{x}" y1="{yy - 4}" x2="{x + 26}" y2="{yy - 4}" '
            f'stroke="{color}" stroke-width="2"{dash}/>'
        )
        out.append(
            f'<text x="{x + 32}" y="{yy}" font-family="monospace" font-size="12" '
            f'fill="#333333">{label}</text>'
        )
    return out


def _document(body: list[str], path) -> str:
    """The SVG text around body; also written to path when given."""
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    doc = "\n".join([head, *body, "</svg>"]) + "\n"
    if path is not None:
        with open(path, "w", newline="\n") as fh:
            fh.write(doc)
    return doc


def _plot_times(traj: Trajectory) -> np.ndarray:
    return np.linspace(traj.t[0], traj.t[-1], _MAX_POINTS)


def states_svg(traj: Trajectory, path=None) -> str:
    """All four states against time; writes to path when given."""
    ts = _plot_times(traj)
    ys = traj.at(ts)
    y_hi = float(ys.max()) * 1.06 or 1.0
    frame = _Frame(float(ts[0]), float(ts[-1]), 0.0, y_hi)
    body = _axes(frame, "t", "state")
    points = _points(frame, ts)
    for i in range(4):
        body.append(_polyline(frame, points, ys[:, i], _COLORS[i]))
    body.extend(_legend([(_LABELS[i], _COLORS[i], False) for i in range(4)]))
    return _document(body, path)


def x1_bound_svg(traj: Trajectory, bound: float, path=None) -> str:
    """Species 1 against time with its certificate bound as a dashed line."""
    ts = _plot_times(traj)
    x1 = traj.at(ts)[:, 0]
    y_hi = max(float(x1.max()), float(bound)) * 1.08 or 1.0
    frame = _Frame(float(ts[0]), float(ts[-1]), 0.0, y_hi)
    body = _axes(frame, "t", "x1")
    py = frame.y(bound)
    body.append(
        f'<line x1="{_LEFT}" y1="{py:.2f}" x2="{_LEFT + frame.px_w}" y2="{py:.2f}" '
        f'stroke="#555555" stroke-width="1.5" stroke-dasharray="7 4"/>'
    )
    body.append(_polyline(frame, _points(frame, ts), x1, _COLORS[0]))
    body.extend(_legend([("x1", _COLORS[0], False), (f"M1 = {bound:.4f}", "#555555", True)]))
    return _document(body, path)
