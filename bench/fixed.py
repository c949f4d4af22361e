#!/usr/bin/env python3
"""Print where one report's time goes, case by case: in-process medians per segment.

    python3 bench/fixed.py [--checkout DIR] --workload W [--repeats N] [--seed S]

Imports aifcert from the checkout's ``src`` (default: this checkout)
and runs every case of the benchmark workload W (``perfbench/workloads.py``,
make_cases) N times in this process, each run the segments of one
report in build_report's order, through the public API:

- ``cert``: certificate;
- ``loop``: integrate without the Trajectory constructor, which is
  timed apart by wrapping ``Trajectory.__init__`` (``ctor``);
- ``bounds``, ``lemma``, ``cascade``, ``W_dec``, ``props``: the five
  checks (the cascade as the record a report makes, the private
  ``aifcert.verify._cascade_record``).

It prints one row per case (accepted steps, the median microseconds of
each segment and of their sum) and a last row with the medians of those
rows.  The segments that do not grow with the step count are a report's
fixed cost.  Times are wall time on the host it runs on: compare two
checkouts by running both on one host, one after the other.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEGMENTS = ("cert", "loop", "ctor", "bounds", "lemma", "cascade", "W_dec", "props")


def report_segments(aifcert, case, clock) -> dict:
    """Microseconds of each segment of one report on case; the constructor's from clock."""
    stamps = [time.perf_counter_ns()]

    def lap():
        stamps.append(time.perf_counter_ns())

    p, x0 = case.params, case.x0
    cert = aifcert.certificate(p, x0, case.L)
    lap()
    clock.clear()
    traj = aifcert.integrate(p, x0, case.horizon)
    lap()
    aifcert.check_global_bounds(traj, cert)
    lap()
    aifcert.check_excursion_lemma(traj, p, cert)
    lap()
    aifcert.verify._cascade_record(traj, p, cert)
    lap()
    aifcert.check_W_decrease(traj, p, cert)
    lap()
    aifcert.check_propositions(p, case.fuzz, case.fuzz_seed)
    lap()
    cert_ns, integrate_ns, *checks = (b - a for a, b in zip(stamps, stamps[1:]))
    ctor_ns = sum(clock)
    ns = (cert_ns, integrate_ns - ctor_ns, ctor_ns, *checks)
    return {"steps": traj.stats["accepted"], **{k: v / 1e3 for k, v in zip(SEGMENTS, ns)}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--checkout", type=Path, default=ROOT, help="checkout whose src to run (default: this one)")
    ap.add_argument("--workload", required=True, choices=("demo", "overshoot", "sweep", "stiff"))
    ap.add_argument("--repeats", type=int, default=51, help="runs of each case (default 51)")
    ap.add_argument("--seed", type=int, default=None, help="workload seed (default: perfbench/run.py's)")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    # workloads imports aifcert from the checkout's src and refuses any other copy
    sys.path.insert(0, str(args.checkout.resolve() / "perfbench"))
    import workloads
    from run import DEFAULT_SEED

    aifcert = workloads.aifcert
    clock = []  # the constructor's nanoseconds in the current integration
    init = aifcert.Trajectory.__init__

    def timed_init(self, *a, **k):
        t0 = time.perf_counter_ns()
        init(self, *a, **k)
        clock.append(time.perf_counter_ns() - t0)

    aifcert.Trajectory.__init__ = timed_init
    seed = DEFAULT_SEED if args.seed is None else args.seed
    rows = []
    for case in workloads.make_cases(args.workload, seed):
        runs = [report_segments(aifcert, case, clock) for _ in range(args.repeats)]
        row = {k: statistics.median(r[k] for r in runs) for k in ("steps", *SEGMENTS)}
        row["total"] = sum(row[k] for k in SEGMENTS)
        rows.append(row)
    columns = ("steps", *SEGMENTS, "total")
    print(f"{args.workload} seed {seed}, {args.repeats} runs per case, median microseconds per segment")
    print("case  " + "".join(f"{k:>9}" for k in columns))
    summary = {k: statistics.median(r[k] for r in rows) for k in columns}
    for label, row in [*enumerate(rows), ("median", summary)]:
        print(f"{label!s:<6}" + "".join(f"{row[k]:>9.0f}" if k == "steps" else f"{row[k]:>9.1f}"
                                       for k in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
