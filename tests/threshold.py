"""Reference solver for the threshold level L*, used to test solve_L_star.

The map L -> L*ell4(L, tau(L)) - theta is continuous, strictly
increasing and spans (-theta, inf), so a geometrically grown bracket
plus bisection converges unconditionally.
"""

from aifcert import DerivedConstants, ell4, tau


def _threshold_gap(p, L):
    return L * ell4(p, L, tau(p, L)) - DerivedConstants.from_params(p).theta


def bisect_L_star(p):
    lo, hi = 1e-6, 1.0
    for _ in range(400):
        if _threshold_gap(p, lo) < 0.0:
            break
        hi = lo
        lo /= 8.0
    else:
        raise ArithmeticError("could not bracket L* from below")
    for _ in range(400):
        if _threshold_gap(p, hi) > 0.0:
            break
        lo = max(lo, hi)
        hi *= 8.0
    else:
        raise ArithmeticError("could not bracket L* from above")
    for _ in range(300):
        if hi - lo <= 1e-14 * hi:
            break
        mid = 0.5 * (lo + hi)
        if _threshold_gap(p, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
