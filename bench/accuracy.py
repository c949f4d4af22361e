#!/usr/bin/env python3
"""Print each workload's integration error and work, as a change to the step rule moves them.

    python3 bench/accuracy.py [--checkout DIR] [--workload W ...] [--seed S]

Imports aifcert from the checkout's ``src`` (default: this checkout)
and integrates every case of each benchmark workload
(``perfbench/workloads.py``, make_cases):

- **error**: the largest deviation at the default tolerances (rel_tol
  1e-8, abs_tol 1e-10) from a rel_tol 1e-12, abs_tol 1e-14 run, over a
  501-point grid of the span and the four components, in tolerance
  units |y - y_ref| / (abs_tol + rel_tol*|y_ref|); the worst case of the
  workload;
- **work**: at rel_tol 1e-6, 1e-8, 1e-10 and 1e-12 (abs_tol rel_tol/100),
  the Taylor steps and RODAS4 attempts (failed trials and rejections
  included) summed over the cases, counted by wrapping the two step
  functions, and their cost 3.9 µs per Taylor step plus 8.5 µs per
  RODAS4 attempt, the per-attempt costs of the integration loop on the
  2-core host of ROADMAP.md, in milliseconds.

Compare two checkouts by running this on each: the step counts are
exact, so the outputs differ only where the step rule does.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("demo", "overshoot", "sweep", "stiff")
TOLERANCES = (1e-6, 1e-8, 1e-10, 1e-12)
US_PER_TAYLOR, US_PER_RODAS4 = 3.9, 8.5


def attempts(sim, case, rel_tol):
    """Taylor steps and RODAS4 attempts of integrate on case at rel_tol, abs_tol rel_tol/100."""
    counts = [0, 0]
    taylor_step, rodas4_step = sim._taylor_step, sim._rodas4_step

    def taylor(*args):
        counts[0] += 1
        return taylor_step(*args)

    def rodas4(*args):
        counts[1] += 1
        return rodas4_step(*args)

    sim._taylor_step, sim._rodas4_step = taylor, rodas4
    try:
        sim.integrate(case.params, case.x0, case.horizon, rel_tol, rel_tol / 100)
    finally:
        sim._taylor_step, sim._rodas4_step = taylor_step, rodas4_step
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--checkout", type=Path, default=ROOT, help="checkout whose src to run (default: this one)")
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None, help="workload seed (default: perfbench/run.py's)")
    args = ap.parse_args(argv)
    # workloads imports aifcert from the checkout's src and refuses any other copy
    sys.path.insert(0, str(args.checkout.resolve() / "perfbench"))
    import workloads
    from run import DEFAULT_SEED

    sim = workloads.aifcert.simulate
    seed = DEFAULT_SEED if args.seed is None else args.seed
    print(f"seed {seed}; error in tolerance units at rel_tol 1e-8, abs_tol 1e-10 (501-point grid);")
    print(f"work: Taylor steps, RODAS4 attempts, {US_PER_TAYLOR}*taylor + {US_PER_RODAS4}*rodas4 in ms")
    for name in args.workload:
        cases = workloads.make_cases(name, seed)
        worst = 0.0
        for case in cases:
            grid = np.linspace(0.0, case.horizon, 501)
            ref = sim.integrate(case.params, case.x0, case.horizon, 1e-12, 1e-14).at(grid)
            got = sim.integrate(case.params, case.x0, case.horizon).at(grid)
            worst = max(worst, float((np.abs(got - ref) / (1e-10 + 1e-8 * np.abs(ref))).max()))
        work = []
        for rel_tol in TOLERANCES:
            taylor = rodas4 = 0
            for case in cases:
                n_t, n_r = attempts(sim, case, rel_tol)
                taylor, rodas4 = taylor + n_t, rodas4 + n_r
            ms = (US_PER_TAYLOR * taylor + US_PER_RODAS4 * rodas4) / 1e3
            work.append(f"{rel_tol:g}: {taylor}+{rodas4} {ms:.2f}")
        print(f"{name:<10} error {worst:7.3g}  work " + "  ".join(work))
    return 0


if __name__ == "__main__":
    sys.exit(main())
