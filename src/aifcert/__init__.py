"""Boundedness certificates for the four-species annihilation feedback loop.

The library computes explicit trajectory bounds from the rate constants
alone, integrates the dynamics with a dense-output adaptive scheme, and
machine-checks every claimed inequality along the computed trajectory.
"""

from . import bounds, model, plot, simulate, verify
from .bounds import *  # noqa: F403
from .model import *  # noqa: F403
from .plot import *  # noqa: F403
from .simulate import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(bounds.__all__ + model.__all__ + plot.__all__ + simulate.__all__ + verify.__all__)
