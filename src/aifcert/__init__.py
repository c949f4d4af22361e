"""Boundedness certificates for the four-species annihilation feedback loop.

The library computes explicit trajectory bounds from the rate constants
alone, integrates the dynamics with a dense-output adaptive scheme, and
machine-checks every claimed inequality along the computed trajectory.
"""

from .bounds import (
    BoundCertificate,
    CertificateError,
    FixedPointConstants,
    certificate,
    ell2,
    ell3,
    ell4,
    growth_envelope,
    solve_L_star,
    tau,
    window_upper,
)
from .model import (
    DerivedConstants,
    Params,
    State,
    boundary_inflow,
    equilibrium,
    field,
    vector_field,
)
from .plot import states_svg, x1_bound_svg
from .simulate import (
    Excursion,
    IntegrationError,
    Trajectory,
    excursions_above,
    integrate,
    propagate_fixed,
    read_trajectory_csv,
    stretches_above,
    write_trajectory_csv,
)
from .verify import (
    CheckResult,
    VerificationReport,
    build_report,
    check_W_decrease,
    check_cascade_lower_bounds,
    check_excursion_lemma,
    check_global_bounds,
    check_propositions,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCertificate",
    "CertificateError",
    "CheckResult",
    "DerivedConstants",
    "Excursion",
    "FixedPointConstants",
    "IntegrationError",
    "Params",
    "State",
    "Trajectory",
    "VerificationReport",
    "boundary_inflow",
    "build_report",
    "certificate",
    "check_W_decrease",
    "check_cascade_lower_bounds",
    "check_excursion_lemma",
    "check_global_bounds",
    "check_propositions",
    "ell2",
    "ell3",
    "ell4",
    "equilibrium",
    "excursions_above",
    "field",
    "growth_envelope",
    "integrate",
    "propagate_fixed",
    "read_trajectory_csv",
    "solve_L_star",
    "states_svg",
    "stretches_above",
    "tau",
    "vector_field",
    "window_upper",
    "write_trajectory_csv",
    "x1_bound_svg",
]
