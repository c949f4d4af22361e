"""Shared fixtures and frozen golden values.

The goldens were computed by an independent oracle (bisection /
fixed-point iteration in plain Python, cross-checked against scipy)
before the library existed, then frozen here.  Tests compare against
them rather than against the library's own output.
"""

import math

import numpy as np
import pytest

from aifcert import Params, State

# demo gains: strong annihilation, tenfold chain amplification
DEMO = Params.from_sequence((1.0, 30.0, 10.0, 1.0, 1.0, 1.0, 1.0, 30.0))

GOLDEN = {
    # threshold level and waiting times
    "L_star": 1.529317488295391,
    "tau_at_L_star": 1.3941974867122622,
    "tau_175": 1.3936440818316584,
    "lower_threshold": 0.4,  # 4*a1 / (K*a2)
    # demo certificate at override level 1.75
    "T0": 1.393644,
    "M1": 3.143644,
    "M2": 31.436441,
    "M3": 31.436441,
    "M4": 63.206215,
    # cascade floors at L=2
    "ell2_at_2": 10.0,
    "ell3_at_2": 5.0,
    "ell4_at_2": 0.02455570806009676,
    # growth envelope from the origin at t=2
    "envelope_t2": (2.0, 20.0, 40.0 / 3.0, 20.0 / 3.0),
    # closed-form rest point of the demo system
    "equilibrium": (0.1, 1.0, 1.0, 1.0 / 3.0),
    # vector field probe at the all-ones state
    "field_at_ones": (-29.0, 9.0, 0.0, -29.0),
}


@pytest.fixture(scope="session")
def demo():
    return DEMO


@pytest.fixture(scope="session")
def origin():
    return State.zero()


@pytest.fixture(scope="session")
def demo_traj():
    """One shared horizon-100 demo trajectory (integration is pure)."""
    from aifcert import integrate

    return integrate(DEMO, State.zero(), 100.0)


def log_uniform(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    return np.exp(rng.uniform(np.log(lo), np.log(hi), n))


def random_params(rng: np.random.Generator, lo: float, hi: float) -> Params:
    """Log-uniform rate constants in [lo, hi]."""
    return Params.from_sequence(np.exp(rng.uniform(math.log(lo), math.log(hi), 8)))


def random_state(rng: np.random.Generator, hi: float = 2.0) -> State:
    return State.from_sequence(rng.uniform(0.0, hi, 4))
