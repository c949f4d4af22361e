"""Command line front end: certificates, simulation, verification, plots.

Configuration comes from an optional JSON file plus flag overrides
(flags win).  Exit codes: 0 all good, 1 a check failed or integration
broke down, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields, replace

from .bounds import BoundCertificate, certificate
from .model import Params, State, _number
from .plot import states_svg, x1_bound_svg
from .simulate import IntegrationError, integrate, read_trajectory_csv, write_trajectory_csv
from .verify import _check_provenance, build_report

__all__ = ["RunConfig", "cmd_bounds", "cmd_simulate", "cmd_verify", "cmd_plot", "main", "entry"]

# Demo parameter set used throughout the docs: strong annihilation
# (alpha2 = alpha8 = 30), a tenfold chain gain (alpha3 = 10), all other
# rates 1.  This system oscillates and exercises every check.
DEMO_ALPHAS = (1.0, 30.0, 10.0, 1.0, 1.0, 1.0, 1.0, 30.0)


@dataclass(frozen=True)
class RunConfig:
    params: Params
    x0: State
    horizon: float = 100.0
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    L0: float | None = None
    out: str = "."
    seed: int = 1729
    fuzz: int = 0
    certificate_json: str | None = None
    trajectory_csv: str | None = None


def _point(cls):
    """The reader of cls (Params or State): flag text a,b,..., a JSON object or a JSON array."""

    def read(value):
        if isinstance(value, str):
            value = value.split(",")
        return cls.from_json(value) if isinstance(value, dict) else cls.from_sequence(value)

    return read


def _path(value) -> str:
    """A file or directory name, from JSON or from flag text (not 7 or true)."""
    if not isinstance(value, str):
        raise ValueError(f"expected a path string, got {value!r}")
    return value


def _count(value) -> int:
    """A non-negative integer, from JSON or from flag text (not 2.7, true or -1)."""
    n = int(value) if type(value) in (int, str) else None
    if n is None or n < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return n


# Config values, from the JSON file or from flag text, are read by their field's type.
_READ = {"Params": _point(Params), "State": _point(State), "float": _number, "int": _count, "str": _path}
_COERCE = {f.name: _READ[f.type.split(" | ")[0]] for f in fields(RunConfig)}

# Config keys that can also be set by a flag; flags win over the file.
_FLAGS = {
    "params": "a1,...,a8 rate constants",
    "x0": "v1,v2,v3,v4 initial state",
    "horizon": "integration horizon",
    "L0": "certificate level override (>= L*)",
    "out": "output directory",
    "seed": "fuzzing seed",
    "fuzz": "fuzzed parameter sets to fold into verify",
}


def default_config() -> RunConfig:
    return RunConfig(params=Params.from_sequence(DEMO_ALPHAS), x0=State.zero())


def _read(key: str, value):
    try:
        return _COERCE[key](value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _updated(cfg: RunConfig, values: dict) -> RunConfig:
    return replace(cfg, **{k: _read(k, v) for k, v in values.items() if v is not None})


def load_config(path: str) -> RunConfig:
    with open(path, "r") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed config JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("config JSON must be an object")
    unknown = set(obj) - set(_COERCE)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return _updated(default_config(), obj)


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _outdir(cfg: RunConfig) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


def cmd_bounds(cfg: RunConfig) -> int:
    cert = certificate(cfg.params, cfg.x0, cfg.L0)
    out = _outdir(cfg)
    _write_json(os.path.join(out, "certificate.json"), cert.to_json())
    print(f"L_star = {cert.L_star:.4f}")
    print(f"L_used = {cert.L_used:.4f}")
    print(f"T0     = {cert.T0:.4f}")
    print(f"M1     = {cert.M1:.4f}")
    print(f"M2     = {cert.M2:.4f}")
    print(f"M3     = {cert.M3:.4f}")
    print(f"M4     = {cert.M4:.4f}")
    print(f"gamma  = {cert.gamma:.4f}")
    print(
        f"T0 / M1 / M2 / M3 / M4 = {cert.T0:.4f} / {cert.M1:.4f} / "
        f"{cert.M2:.4f} / {cert.M3:.4f} / {cert.M4:.4f}"
    )
    print(f"wrote {os.path.join(out, 'certificate.json')}")
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    traj = integrate(cfg.params, cfg.x0, cfg.horizon, cfg.rel_tol, cfg.abs_tol)
    out = _outdir(cfg)
    path = os.path.join(out, "trajectory.csv")
    write_trajectory_csv(traj, path)
    print(f"steps = {len(traj.t) - 1}")
    print(", ".join(f"max x{i} = {top:.4f}" for i, (top, _) in enumerate(traj.maxima, 1)))
    print(f"wrote {path}")
    return 0


def _certificate(cfg: RunConfig) -> BoundCertificate:
    """The certificate in cfg.certificate_json, or the one computed for cfg."""
    if cfg.certificate_json is None:
        return certificate(cfg.params, cfg.x0, cfg.L0)
    with open(cfg.certificate_json, "r") as fh:
        try:
            return BoundCertificate.from_json(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"certificate JSON {cfg.certificate_json}: {exc}") from None


def _trajectory(cfg: RunConfig):
    """The trajectory in cfg.trajectory_csv, its Taylor rows checked, or the one integrated for cfg."""
    if cfg.trajectory_csv is None:
        return integrate(cfg.params, cfg.x0, cfg.horizon, cfg.rel_tol, cfg.abs_tol)
    traj = read_trajectory_csv(cfg.trajectory_csv, cfg.params)
    try:
        traj.check_taylor_rows(cfg.abs_tol)
    except ValueError as exc:
        raise ValueError(f"trajectory CSV {cfg.trajectory_csv}: {exc}") from None
    return traj


_STATUS_TAGS = {"pass": "PASS", "fail": "FAIL", "not-applicable": "N/A "}


def cmd_verify(cfg: RunConfig) -> int:
    report = build_report(cfg.params, cfg.x0, cert=_certificate(cfg), traj=_trajectory(cfg),
                          fuzz_count=cfg.fuzz, fuzz_seed=cfg.seed)
    out = _outdir(cfg)
    path = os.path.join(out, "report.json")
    _write_json(path, report.to_json())
    for c in report.checks:
        margin = "" if c.margin is None else f" margin={c.margin:.6g}"
        print(f"[{_STATUS_TAGS[c.status]}] {c.name}:{margin} {c.detail}")
    print(f"wrote {path}")
    if report.all_passed:
        print("all checks passed")
        return 0
    print("some checks FAILED", file=sys.stderr)
    return 1


def cmd_plot(cfg: RunConfig) -> int:
    cert, traj = _certificate(cfg), _trajectory(cfg)
    _check_provenance(traj, cert)  # M1 is drawn for the trajectory's own x0
    out = _outdir(cfg)
    p_states = os.path.join(out, "states.svg")
    p_bound = os.path.join(out, "x1_bound.svg")
    states_svg(traj, p_states)
    x1_bound_svg(traj, cert.M1, p_bound)
    print(f"wrote {p_states}")
    print(f"wrote {p_bound}")
    return 0


# each command with its one-line help
_COMMANDS = {
    "bounds": (cmd_bounds, "compute the bound certificate"),
    "simulate": (cmd_simulate, "integrate the system and write a trajectory CSV"),
    "verify": (cmd_verify, "run every check and write a report"),
    "plot": (cmd_plot, "emit SVG figures"),
}


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: the command is a positional, and flags may come before or after it."""
    commands = "".join(f"\n  {name:<9} {text}" for name, (_, text) in _COMMANDS.items())
    ap = argparse.ArgumentParser(
        prog="aifcert",
        description="Boundedness certificates and certified simulation for the\n"
        "four-species annihilation feedback loop.",
        epilog="commands:" + commands,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("command", choices=_COMMANDS, help="the command to run (see below)")
    ap.add_argument("--config", help="JSON config file")
    for key, text in _FLAGS.items():
        ap.add_argument(f"--{key}", help=text)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else default_config()
        cfg = _updated(cfg, {key: getattr(args, key) for key in _FLAGS})
        return _COMMANDS[args.command][0](cfg)
    except (ValueError, OSError) as exc:  # CertificateError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
