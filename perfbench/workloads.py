"""Workload inputs and operations of the aifcert benchmark.

A workload is a list of cases; one operation runs one case, and a round
runs every case once, in order.  Inputs depend only on the workload
name, the seed and the size ("full" or "tiny"), so the same seed always
gives the same inputs.

Importing this module imports aifcert from the checkout's ``src``
directory, never from an installed copy; it raises ImportError when
those sources are missing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_PKG = SRC / "aifcert"
if not (_PKG / "__init__.py").is_file():
    raise ImportError(f"no aifcert sources under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import aifcert  # noqa: E402
import aifcert.cli  # noqa: E402
import aifcert.verify  # noqa: E402
from aifcert import (  # noqa: E402
    CheckResult,
    IntegrationError,
    Params,
    State,
    VerificationReport,
    build_report,
    certificate,
    check_W_decrease,
    check_cascade_lower_bounds,
    check_excursion_lemma,
    check_global_bounds,
    check_propositions,
    excursions_above,
    integrate,
    read_trajectory_csv,
)
from aifcert.verify import SIMULATION_FUZZ_RANGE  # noqa: E402

if Path(aifcert.__file__).resolve().parent != _PKG.resolve():
    raise ImportError(f"aifcert was imported from {aifcert.__file__}, not from {_PKG}")

WORKLOADS = ("demo", "overshoot", "sweep", "stiff")

DEMO_GAINS = (1.0, 30.0, 10.0, 1.0, 1.0, 1.0, 1.0, 30.0)
DEMO_L0 = 1.75
STIFF_GAINS = (1.0, 1e4, 100.0, 1.0, 1.0, 1.0, 1.0, 1e4)
SWEEP_SETS = 64
# Fixes which strata of the eight rates and four initial components are
# paired in the sweep's Latin hypercube; --seed moves every point inside
# its stratum.  A fixed pairing keeps the sweep's mix of cheap and costly
# rate sets, and so its timings, nearly the same from seed to seed.
SWEEP_DESIGN_SEED = 20260417


class OperationFailed(Exception):
    """An operation ended without a result (integration breakdown, exit code != 0)."""


@dataclass(frozen=True)
class Case:
    """Inputs of one operation.

    ``reference`` names the oracle's solver; ``events`` asks for a
    comparison of excursion endpoints.
    """

    params: Params
    x0: State
    horizon: float
    L: float | None = None
    fuzz: int = 0
    fuzz_seed: int = 0
    reference: str = "DOP853"
    events: bool = False


def sweep_cases(seed: int, n: int, horizon: float) -> list[Case]:
    """Latin hypercube: rates log-uniform in SIMULATION_FUZZ_RANGE, x0 uniform in [0,2]^4."""
    lo, hi = SIMULATION_FUZZ_RANGE
    design = np.random.default_rng(SWEEP_DESIGN_SEED)
    strata = np.stack([design.permutation(n) for _ in range(12)], axis=1)
    u = (strata + np.random.default_rng(seed).uniform(size=(n, 12))) / n
    alphas = np.exp(math.log(lo) + u[:, :8] * math.log(hi / lo))
    x0s = 2.0 * u[:, 8:]
    return [
        Case(Params.from_sequence(a), State.from_sequence(x), horizon, reference="LSODA")
        for a, x in zip(alphas, x0s)
    ]


def make_cases(name: str, seed: int, tiny: bool = False) -> list[Case]:
    demo = Params.from_sequence(DEMO_GAINS)
    if name == "demo":
        return [Case(demo, State.zero(), 5.0 if tiny else 100.0, fuzz=3 if tiny else 50, fuzz_seed=seed)]
    if name == "overshoot":
        return [Case(demo, State(10.0, 0.0, 0.0, 0.0), 3.0 if tiny else 30.0, L=DEMO_L0, events=True)]
    if name == "sweep":
        return sweep_cases(seed, 4 if tiny else SWEEP_SETS, 2.0 if tiny else 20.0)
    if name == "stiff":
        return [Case(Params.from_sequence(STIFF_GAINS), State.zero(), 0.1 if tiny else 3.0, reference="Radau")]
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def statuses(report_json: dict) -> list[tuple[str, str]]:
    return [(c["name"], c["status"]) for c in report_json["checks"]]


def decomposed_report(
    tracer,
    p,
    x0,
    horizon=100.0,
    rel_tol=1e-8,
    abs_tol=1e-10,
    L_override=None,
    cert=None,
    traj=None,
    fuzz_count=0,
    fuzz_seed=0,
):
    """build_report rebuilt from public functions, one traced span per call.

    Takes build_report's arguments so that it can stand in for it inside
    the CLI.  The cascade record is assembled from excursions_above and
    check_cascade_lower_bounds; its status (not its detail text) is what
    the benchmark compares against build_report.
    """
    if not isinstance(x0, State):
        x0 = State.from_sequence(x0)
    if cert is None:
        cert = tracer.call("bounds.certificate", certificate, p, x0, L_override)
    if traj is None:
        traj = tracer.call("simulate.integrate", integrate, p, x0, horizon, rel_tol, abs_tol)
    checks = (
        tracer.call("verify.global_bounds", check_global_bounds, traj, cert),
        tracer.call("verify.excursion_lemma", check_excursion_lemma, traj, p, cert),
        tracer.call("verify.cascade", _cascade_check, tracer, traj, p, cert),
        tracer.call("verify.W_decrease", check_W_decrease, traj, p, cert),
        tracer.call("verify.propositions", check_propositions, p, fuzz_count, fuzz_seed),
    )
    return VerificationReport(checks, p, x0, cert)


def _cascade_check(tracer, traj, p, cert) -> CheckResult:
    excs = tracer.call("simulate.excursions", excursions_above, traj, cert.L_used)
    results = [
        check_cascade_lower_bounds(traj, p, cert.L_used, e, T0=cert.T0)
        for e in excs
        if e.duration >= cert.T0
    ]
    if not results:
        return CheckResult(
            "cascade_lower_bounds",
            "not-applicable",
            None,
            None,
            f"{len(excs)} excursion(s) above L_used, none lasted T0",
        )
    worst = min(results, key=lambda r: math.inf if r.margin is None else r.margin)
    failed = any(r.status == "fail" for r in results)
    return replace(worst, status="fail" if failed else "pass")


class ReportWorkload:
    """overshoot, sweep and stiff: one operation is build_report on one case."""

    def __init__(self, cases: list[Case]):
        self.cases = cases

    def close(self) -> None:
        pass

    def op(self, i: int):
        c = self.cases[i]
        try:
            return build_report(
                c.params, c.x0, horizon=c.horizon, L_override=c.L,
                fuzz_count=c.fuzz, fuzz_seed=c.fuzz_seed,
            )
        except IntegrationError as exc:
            raise OperationFailed(str(exc)) from exc

    def traced_op(self, i: int, tracer):
        c = self.cases[i]
        with tracer.patched(TRACED_NAMES):
            try:
                return decomposed_report(
                    tracer, c.params, c.x0, horizon=c.horizon, L_override=c.L,
                    fuzz_count=c.fuzz, fuzz_seed=c.fuzz_seed,
                )
            except IntegrationError as exc:
                raise OperationFailed(str(exc)) from exc

    def record(self, i: int, result) -> dict:
        """The comparable output of one operation (taken outside the timed region)."""
        return result.to_json()

    def oracle_problems(self, outputs: dict) -> list[str]:
        """Check the first output of every case against the independent oracle."""
        import oracle

        problems = []
        for i, c in enumerate(self.cases):
            if i not in outputs:
                continue
            out = outputs[i]
            tag = f"case {i}"
            traj = integrate(c.params, c.x0, c.horizon)
            again = build_report(
                c.params, c.x0, horizon=c.horizon, L_override=c.L,
                fuzz_count=c.fuzz, fuzz_seed=c.fuzz_seed, traj=traj,
            ).to_json()
            if again != out:
                problems.append(f"{tag}: report differs from one built on integrate()'s trajectory")
            alphas = c.params.as_tuple()
            x0 = c.x0.as_tuple()
            problems += oracle.report_problems(out, tag)
            ref_cert = oracle.certificate(alphas, x0, c.L)
            problems += oracle.compare_certificate(out["certificate"], ref_cert, tag)
            levels = oracle.event_levels(ref_cert["L_used"]) if c.events else []
            sol = oracle.solve(alphas, x0, c.horizon, c.reference, oracle.level_events(levels))
            grid = np.linspace(0.0, c.horizon, 2001)
            problems += oracle.compare_states(grid, traj.at(grid), sol, tag)
            problems += oracle.bound_problems(sol, c.horizon, out["certificate"], tag)
            for level, ref in zip(levels, oracle.excursions(sol, x0, c.horizon, levels)):
                got = [(e.start, e.end) for e in excursions_above(traj, level)]
                problems += oracle.compare_excursions(level, got, ref, tag)
        return problems


DEMO_FILES = ("certificate.json", "trajectory.csv", "report.json", "states.svg", "x1_bound.svg")


class DemoWorkload:
    """The README's four-command session, run in process through aifcert.cli.main."""

    def __init__(self, case: Case, workdir: Path):
        self.case = case
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        out = str(self.workdir)
        config = self.workdir / "plot_config.json"
        config.write_text(json.dumps({"trajectory_csv": str(self.workdir / "trajectory.csv")}))
        alphas = ",".join(repr(a) for a in case.params.as_tuple())
        x0 = ",".join(repr(v) for v in case.x0.as_tuple())
        common = ["--params", alphas, "--x0", x0, "--out", out]
        horizon = repr(case.horizon)
        self.commands = [
            ["bounds", "--L0", repr(DEMO_L0)] + common,
            ["simulate", "--horizon", horizon] + common,
            ["verify", "--horizon", horizon, "--fuzz", str(case.fuzz), "--seed", str(case.fuzz_seed)]
            + common,
            ["plot", "--config", str(config)] + common,
        ]
        self.cases = [case]

    def close(self) -> None:
        for name in DEMO_FILES + ("plot_config.json",):
            with contextlib.suppress(FileNotFoundError):
                (self.workdir / name).unlink()
        with contextlib.suppress(OSError):
            self.workdir.rmdir()

    def _session(self, run_command) -> None:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in self.commands:
                code = run_command(argv)
                if code != 0:
                    raise OperationFailed(f"aifcert {argv[0]} exited {code}: {sink.getvalue()[-500:]}")

    def op(self, i: int):
        self._session(aifcert.cli.main)

    def traced_op(self, i: int, tracer):
        def run_command(argv):
            return tracer.call(f"cli.{argv[0]}", aifcert.cli.main, argv)

        cli_names = [(aifcert.cli, name, span) for name, span in CLI_NAMES]
        replacement = [(aifcert.cli, "build_report", lambda *a, **k: decomposed_report(tracer, *a, **k))]
        with tracer.patched(TRACED_NAMES + cli_names), tracer.replaced(replacement):
            self._session(run_command)

    def record(self, i: int, result) -> dict:
        files = {}
        for name in DEMO_FILES:
            files[name] = hashlib.sha256((self.workdir / name).read_bytes()).hexdigest()
        report = json.loads((self.workdir / "report.json").read_text())
        return {"files": files, "checks": report["checks"]}

    def oracle_problems(self, outputs: dict) -> list[str]:
        import xml.etree.ElementTree as ET

        import oracle

        if 0 not in outputs:
            return []
        c = self.case
        d = self.workdir
        alphas = c.params.as_tuple()
        x0 = c.x0.as_tuple()
        problems = []
        cert_file = json.loads((d / "certificate.json").read_text())
        problems += oracle.compare_certificate(
            cert_file, oracle.certificate(alphas, x0, DEMO_L0), "certificate.json"
        )
        report = json.loads((d / "report.json").read_text())
        problems += oracle.report_problems(report, "report.json")
        problems += oracle.compare_certificate(
            report["certificate"], oracle.certificate(alphas, x0, None), "report.json"
        )
        rows = np.loadtxt(d / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
        sol = oracle.solve(alphas, x0, c.horizon, c.reference)
        if rows.shape[1] != 5 or rows[-1, 0] != c.horizon:
            problems.append(f"trajectory.csv: shape {rows.shape}, last time {rows[-1, 0]!r}")
        else:
            problems += oracle.compare_states(rows[:, 0], rows[:, 1:], sol, "trajectory.csv")
        problems += oracle.bound_problems(sol, c.horizon, report["certificate"], "report.json")
        traj = read_trajectory_csv(d / "trajectory.csv", c.params)
        from_csv = build_report(
            c.params, c.x0, horizon=c.horizon, traj=traj, fuzz_count=c.fuzz, fuzz_seed=c.fuzz_seed
        ).to_json()
        if statuses(from_csv) != statuses(report):
            problems.append(
                f"report from trajectory.csv has statuses {statuses(from_csv)}, "
                f"in-memory run {statuses(report)}"
            )
        for name in ("states.svg", "x1_bound.svg"):
            try:
                root = ET.fromstring((d / name).read_bytes())
            except ET.ParseError as exc:
                problems.append(f"{name}: not well-formed XML: {exc}")
                continue
            if not root.tag.endswith("svg"):
                problems.append(f"{name}: root element is {root.tag!r}")
        return problems


# Public functions the traced run times when the program, not the
# benchmark, makes the call: excursions_above inside check_excursion_lemma
# and, in the CLI, every layer call a command makes.
TRACED_NAMES = [(aifcert.verify, "excursions_above", "simulate.excursions")]
CLI_NAMES = [
    ("certificate", "bounds.certificate"),
    ("integrate", "simulate.integrate"),
    ("write_trajectory_csv", "simulate.csv_write"),
    ("read_trajectory_csv", "simulate.csv_read"),
    ("states_svg", "plot.svg"),
    ("x1_bound_svg", "plot.svg"),
]


def make_workload(name: str, seed: int, workdir: Path, tiny: bool = False):
    cases = make_cases(name, seed, tiny)
    if name == "demo":
        return DemoWorkload(cases[0], workdir)
    return ReportWorkload(cases)
