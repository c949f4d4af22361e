#!/usr/bin/env python3
"""Reference figures for perfbench/README.md.

    python3 perfbench/reference.py

Prints, for the default seed: accepted steps and microseconds per step
of aifcert's integrator on every workload's cases, scipy's RK45 on the
demo at horizon 100 next to aifcert's integrate at the same tolerances,
and the cold start of the CLI (``python3 -m aifcert --help`` in a fresh
interpreter).  Each time is the median of several repeats.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import run  # pins BLAS threads before numpy loads
import workloads
from oracle import field
from scipy.integrate import solve_ivp

REPEATS = 3


def timed(fn, repeats=REPEATS):
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def main() -> int:
    print("| workload | cases | accepted steps per op | integrate s per op | us/step |")
    print("|---|---:|---:|---:|---:|")
    for name in workloads.WORKLOADS:
        cases = workloads.make_cases(name, run.DEFAULT_SEED)
        steps = seconds = 0.0
        for c in cases:
            dt, traj = timed(lambda: workloads.integrate(c.params, c.x0, c.horizon))
            steps += len(traj.t) - 1
            seconds += dt
        n = len(cases)
        # the demo session integrates twice per operation (simulate, verify)
        per_op = 2 if name == "demo" else 1
        print(
            f"| {name} | {n} | {per_op * steps / n:.0f} | {per_op * seconds / n:.4f} | "
            f"{1e6 * seconds / steps:.1f} |"
        )

    demo = workloads.make_cases("demo", run.DEFAULT_SEED)[0]
    a = demo.params.as_tuple()
    t_rk45, sol = timed(
        lambda: solve_ivp(field(a), (0.0, demo.horizon), list(demo.x0.as_tuple()),
                          method="RK45", rtol=1e-8, atol=1e-10)
    )
    t_aif, traj = timed(lambda: workloads.integrate(demo.params, demo.x0, demo.horizon))
    print()
    print(f"demo, horizon {demo.horizon:g}, rel_tol 1e-8, abs_tol 1e-10:")
    print(f"  scipy RK45        {t_rk45:.4f} s, {len(sol.t) - 1} steps, {sol.nfev} evaluations")
    print(f"  aifcert integrate {t_aif:.4f} s, {len(traj.t) - 1} steps ({t_rk45 / t_aif:.2f}x faster)")

    env = dict(os.environ, PYTHONPATH=str(workloads.SRC))
    cmd = [sys.executable, "-m", "aifcert", "--help"]
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)  # writes bytecode caches
    t_cli, _ = timed(lambda: subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL), 5)
    print(f"  cold CLI start    {t_cli:.3f} s (python3 -m aifcert --help)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
