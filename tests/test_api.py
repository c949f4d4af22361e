"""The package's public names: one list per module, gathered by the package."""

import importlib

import aifcert

PUBLIC_NAMES = [
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


def test_public_names():
    assert sorted(aifcert.__all__) == PUBLIC_NAMES
    for module in ("bounds", "model", "plot", "simulate", "verify"):
        mod = importlib.import_module(f"aifcert.{module}")
        for name in mod.__all__:
            assert getattr(aifcert, name) is getattr(mod, name)
