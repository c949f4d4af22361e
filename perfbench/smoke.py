#!/usr/bin/env python3
"""Fast self-test of the benchmark.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and requires a
correct result with every metric BENCHMARK.json names.  Then it shows
that the checks bite: a perturbed oracle value, a tampered trajectory, a
tampered trajectory CSV, shifted reference excursions and a decomposition
that drifts from build_report must each be reported, and the benchmark
must refuse to run where the aifcert sources are missing.  Exits 0 when
everything holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import run  # pins BLAS threads before numpy loads
import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
    if not cond:
        failures.append(what)


@contextlib.contextmanager
def swapped(module, attr, value):
    saved = getattr(module, attr)
    setattr(module, attr, value)
    try:
        yield
    finally:
        setattr(module, attr, saved)


def first_outputs(wl) -> dict:
    return {i: wl.record(i, wl.op(i)) for i in range(len(wl.cases))}


class Scaled:
    """A trajectory whose dense output reads ``factor`` times too high."""

    def __init__(self, traj, factor):
        self._traj = traj
        self._factor = factor

    def __getattr__(self, name):
        return getattr(self._traj, name)

    def at(self, times):
        return self._traj.at(times) * self._factor


def check_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "run.py's end-to-end metrics and units match BENCHMARK.json",
    )
    expect(
        tracing.PER_LAYER_UNITS == {m["name"]: m["unit"] for m in spec["per_layer"]},
        "tracing.py's per-layer metrics and units match BENCHMARK.json",
    )
    expect(
        [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS),
        "workload names agree",
    )


def check_tiny_runs() -> None:
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            units = tracing.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
            t0 = time.perf_counter()
            r = run.run_workload(name, SEED, 0.2, trace, tiny=True)
            expect(
                r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
                and list(r["metrics"]) == list(units),
                f"{name} trace={int(trace)}: correct, no failures, all metrics "
                f"({r['attempted']} ops, {time.perf_counter() - t0:.1f}s)",
            )
            if not trace:
                expect(all(m["value"] > 0 for m in r["metrics"].values()), f"{name}: end-to-end metrics > 0")


def check_negatives() -> None:
    # a perturbed oracle value fails the whole run
    real = oracle.certificate

    def nudged(a, x0, L=None):
        ref = real(a, x0, L)
        return {**ref, "M1": ref["M1"] * (1.0 + 1e-6)}

    with swapped(oracle, "certificate", nudged):
        r = run.run_workload("overshoot", SEED, 0.05, False, tiny=True)
    expect(not r["correct"], "perturbed oracle M1 makes overshoot incorrect")

    # tampered trajectories, checked against LSODA (sweep) and Radau (stiff)
    for name in ("sweep", "stiff"):
        wl = workloads.make_workload(name, SEED, run.WORKDIR / "smoke", tiny=True)
        first = first_outputs(wl)
        expect(wl.oracle_problems(first) == [], f"{name}: untampered outputs pass the oracle")
        real_integrate = workloads.integrate
        with swapped(workloads, "integrate", lambda *a: Scaled(real_integrate(*a), 1.0 + 1e-4)):
            problems = wl.oracle_problems(first)
        expect(any("deviate" in p for p in problems), f"{name}: trajectory off by 1e-4 is caught")

    # shifted reference excursion endpoints
    wl = workloads.make_workload("overshoot", SEED, run.WORKDIR / "smoke", tiny=True)
    first = first_outputs(wl)
    real_exc = oracle.excursions

    def shifted(*a):
        return [[(s, e + 1e-5) for s, e in found] for found in real_exc(*a)]

    with swapped(oracle, "excursions", shifted):
        problems = wl.oracle_problems(first)
    expect(any("endpoints" in p for p in problems), "overshoot: excursion end off by 1e-5 is caught")

    # a report with a failed check
    bad = json.loads(json.dumps(first[0]))
    bad["checks"][0]["status"] = "fail"
    expect(oracle.report_problems(bad, "x") != [], "a failed check status is caught")

    # a tampered trajectory CSV in the demo session
    wl = workloads.make_workload("demo", SEED, run.WORKDIR / "smoke-demo", tiny=True)
    try:
        first = first_outputs(wl)
        expect(wl.oracle_problems(first) == [], "demo: untampered session passes the oracle")
        csv = wl.workdir / "trajectory.csv"
        lines = csv.read_text().splitlines(keepends=True)
        k = len(lines) // 2
        t, x1, rest = lines[k].split(",", 2)
        lines[k] = f"{t},{float(x1) * 1.001!r},{rest}"
        csv.write_text("".join(lines))
        problems = wl.oracle_problems(first)
        expect(any("trajectory.csv" in p for p in problems), "demo: tampered CSV row is caught")
    finally:
        wl.close()

    # a decomposition that drifts from build_report fails the traced run
    real_cascade = workloads._cascade_check

    def drifted(*a):
        result = real_cascade(*a)
        return replace(result, status="fail" if result.status != "fail" else "pass")

    with swapped(workloads, "_cascade_check", drifted):
        r = run.run_workload("stiff", SEED, 0.05, True, tiny=True)
    expect(not r["correct"], "decomposed statuses differing from build_report make the traced run incorrect")


def check_missing_sources() -> None:
    bare = run.WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
        )
        expect(
            proc.returncode != 0 and '"correct"' not in proc.stdout,
            f"without aifcert sources the run exits {proc.returncode} and prints no result",
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_metric_names()
    check_tiny_runs()
    check_negatives()
    check_missing_sources()
    with contextlib.suppress(OSError):
        run.WORKDIR.rmdir()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
