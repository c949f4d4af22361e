#!/usr/bin/env python3
"""Print a sha256 digest of each output that a refactor must leave byte-identical.

    python3 bench/outputs.py [--checkout DIR] [--dump DIR] > digests.txt

Imports aifcert from the checkout's ``src`` (default: this checkout)
and prints one ``<sha256>  <name>`` line per output:

- ``demo/...``: the files and the standard output of the README's
  four demo CLI commands, run in a temporary directory;
- ``demo/from_csv/...``: those of ``verify`` and ``plot`` run again on
  the demo's ``trajectory.csv``, named by a config file's
  ``trajectory_csv`` key, which covers reading the CSV and rebuilding
  and checking its rows;
- ``<workload>/seed<s>/case<k>/report.json``: the report JSON of
  build_report on every case of every benchmark workload
  (``perfbench/workloads.py``, make_cases) at seeds 1729 and 7;
- ``.../global_bounds_M<i>_over_10.json``: for each of those cases, the
  check_global_bounds record against its certificate with M_i divided
  by 10, for i = 1 to 4;
- ``.../W_decrease_gamma_median.json``: for each of those cases, the
  check_W_decrease record against its certificate with gamma set to the
  median of W over the trajectory's nodes, so that W's rate part is
  searched, and mostly sets the margin, on every case;
- ``<workload>/seed<s>/integrator.json``: the ``taylor_runs`` and
  ``stats`` of every case's integration, which a change to the
  integrator's bookkeeping (field evaluations, rejections, switches)
  moves even where the states stay the same;
- ``witness/<name>/...``: the report JSON of build_report on each run
  of WITNESSES, and again against its certificate with T0 divided by
  100 and with gamma halved, which covers the certified paths of the
  excursion lemma, the cascade and W_decrease's rate part;
- ``witness/demo_L_used_0.2/...``: the report JSON of build_report on the
  README demo run (x0 = 0, horizon 100) against its certificate with
  L_used set to 0.2 and T0 to tau(0.2), and again with T0 divided by 3,
  so that the cascade record judges many qualifying excursions together;
- ``witness/second_excursion_dip/report.json``: the report JSON of
  build_report on a sampled run (Trajectory.from_samples) with two
  excursions above L_used = 0.09 lasting T0 = 1 and an x2 dip only in the
  second, so that the cascade record's worst excursion is not the first.

Two checkouts have byte-identical outputs exactly when ``diff`` finds
no difference between their digest lists.  With ``--dump DIR`` the bytes
behind each digest are also written to ``DIR/<name>``, so that
``diff -r`` of two dumps shows which records moved; the digest lines do
not change.  Only aifcert's public API and make_cases are used.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1729, 7)
# the README's demo commands, in its order
DEMO_COMMANDS = (
    ["bounds", "--L0", "1.75"],
    ["simulate", "--horizon", "100", "--out", "results"],
    ["verify", "--horizon", "100", "--fuzz", "50", "--out", "results"],
    ["plot", "--horizon", "60", "--out", "results"],
)
DEMO_FILES = ("certificate.json", "results/trajectory.csv", "results/report.json",
              "results/states.svg", "results/x1_bound.svg")
# verify and plot again from the CSV that simulate wrote, through a config file
CSV_CONFIG = ("csv.json", {"trajectory_csv": "results/trajectory.csv"})
CSV_COMMANDS = (
    ["verify", "--config", "csv.json", "--fuzz", "50", "--out", "from_csv"],
    ["plot", "--config", "csv.json", "--out", "from_csv"],
)
CSV_FILES = ("from_csv/report.json", "from_csv/states.svg", "from_csv/x1_bound.svg")
# (name, rates, x0, horizon) of runs whose checks are not vacuous: draws 148
# and 196 are the NON_VACUOUS_WITNESSES of tests/test_verify.py, on which the
# lemma and the cascade check a qualifying excursion; from the demo's x0 with
# x4 raised, W climbs above gamma and W_decrease's rate part sets the margin
DEMO_RATES = (1.0, 30.0, 10.0, 1.0, 1.0, 1.0, 1.0, 30.0)
WITNESSES = (
    ("draw148",
     (0.013646092742851444, 0.13396150094655873, 98.53785938448311, 0.3361480793433251,
      20.051288212808796, 28.13115132666571, 1.443664797455707, 21.101692858600995),
     (2.1430696586293063, 0.7646574499136372, 2.0491310486491465, 0.96724835803917), 50.0),
    ("draw196",
     (0.1975638828474043, 0.13994396070606802, 71.46286282027057, 19.81098134365479,
      12.468170895538405, 2.2418410019842914, 24.130006246447824, 34.051164246981756),
     (5.7993625283217565, 4.102679623520567, 2.7685337677286324, 5.3611327566764135), 50.0),
    ("demo_x4_60", DEMO_RATES, (0.0, 0.0, 0.0, 60.0), 30.0),
    ("demo_x1_1_x4_60", DEMO_RATES, (1.0, 0.0, 0.0, 60.0), 30.0),
    ("demo_x4_100", DEMO_RATES, (0.0, 0.0, 0.0, 100.0), 30.0),
)
CASCADE_LEVEL = 0.2  # the demo run has 13 excursions above it lasting tau(0.2)


def report_json(aifcert, p, x0, cert, traj) -> str:
    return json.dumps(aifcert.build_report(p, x0, cert=cert, traj=traj).to_json(), sort_keys=True)


def demo_outputs(main) -> list[tuple[str, bytes | str]]:
    """(name, bytes) of each command's standard output and of each file it writes."""

    def run(commands, prefix):
        for argv in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            if code != 0:
                sys.exit(f"aifcert {' '.join(argv)} exited {code}")
            found.append((f"{prefix}stdout/{argv[0]}", out.getvalue()))

    found = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            run(DEMO_COMMANDS, "demo/")
            found += [(f"demo/{name}", Path(name).read_bytes()) for name in DEMO_FILES]
            Path(CSV_CONFIG[0]).write_text(json.dumps(CSV_CONFIG[1]))
            run(CSV_COMMANDS, "demo/from_csv/")
            found += [(f"demo/{name}", Path(name).read_bytes()) for name in CSV_FILES]
        finally:
            os.chdir(cwd)
    return found


def case_outputs(aifcert, case) -> tuple[list[tuple[str, str]], dict]:
    """(name, JSON) of one case's report, of its four tampered global_bounds records and
    of its W_decrease record at W's median node, and its integration's counters."""
    report = aifcert.build_report(case.params, case.x0, horizon=case.horizon, L_override=case.L,
                                  fuzz_count=case.fuzz, fuzz_seed=case.fuzz_seed)
    found = [("report.json", json.dumps(report.to_json(), sort_keys=True))]
    traj = aifcert.integrate(case.params, case.x0, case.horizon)
    cert = aifcert.certificate(case.params, case.x0, case.L)
    for i in range(1, 5):
        bad = dataclasses.replace(cert, **{f"M{i}": getattr(cert, f"M{i}") / 10.0})
        record = aifcert.check_global_bounds(traj, bad).to_json()
        found.append((f"global_bounds_M{i}_over_10.json", json.dumps(record, sort_keys=True)))
    W = aifcert.DerivedConstants.from_params(case.params).W(*traj.y[:, 1:].T)
    median = dataclasses.replace(cert, gamma=float(np.median(W)))
    record = aifcert.check_W_decrease(traj, case.params, median).to_json()
    found.append(("W_decrease_gamma_median.json", json.dumps(record, sort_keys=True)))
    return found, {"taylor_runs": traj.taylor_runs, "stats": dict(traj.stats)}


def witness_outputs(aifcert, rates, x0, horizon) -> list[tuple[str, str]]:
    """(name, JSON) of one run's report, and of its reports with T0 / 100 and gamma / 2."""
    p, x0 = aifcert.Params.from_sequence(rates), aifcert.State.from_sequence(x0)
    cert = aifcert.certificate(p, x0)
    traj = aifcert.integrate(p, x0, horizon)
    certs = (
        ("report.json", cert),
        ("T0_over_100/report.json", dataclasses.replace(cert, T0=cert.T0 / 100.0)),
        ("gamma_halved/report.json", dataclasses.replace(cert, gamma=cert.gamma / 2.0)),
    )
    return [(name, report_json(aifcert, p, x0, c, traj)) for name, c in certs]


def cascade_outputs(aifcert) -> list[tuple[str, str]]:
    """(name, JSON) of the demo run's report with L_used = CASCADE_LEVEL and T0 = tau of it, and T0 / 3."""
    p, x0 = aifcert.Params.from_sequence(DEMO_RATES), aifcert.State.zero()
    T0 = float(aifcert.tau(p, CASCADE_LEVEL))
    cert = dataclasses.replace(aifcert.certificate(p, x0), L_used=CASCADE_LEVEL, T0=T0)
    traj = aifcert.integrate(p, x0, 100.0)
    certs = (("report.json", cert), ("T0_over_3/report.json", dataclasses.replace(cert, T0=T0 / 3.0)))
    return [(name, report_json(aifcert, p, x0, c, traj)) for name, c in certs]


def later_excursion_output(aifcert) -> str:
    """JSON of the report on a sampled run whose cascade record's worst excursion is the second.

    x1 sits at the demo equilibrium's 0.1 but for two dips to 0.05, which
    make two excursions above L_used = 0.09 lasting T0 = 1; x2 dips to 0.3,
    below ell2(0.09) = 0.45, only inside the second.
    """
    p = aifcert.Params.from_sequence(DEMO_RATES)
    eq = aifcert.equilibrium(p).as_tuple()
    low, dip = (0.05, *eq[1:]), (eq[0], 0.3, *eq[2:])
    t = [0.0, 0.5, 3.0, 3.5, 4.0, 5.999, 6.0, 6.001, 8.0]
    traj = aifcert.Trajectory.from_samples(p, t, [low, eq, eq, low, eq, eq, dip, eq, eq])
    x0 = aifcert.State.from_sequence(low)
    cert = dataclasses.replace(aifcert.certificate(p, x0), L_used=0.09, T0=1.0)
    return report_json(aifcert, p, x0, cert, traj)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--checkout", type=Path, default=ROOT, help="checkout whose src to run (default: this one)")
    ap.add_argument("--dump", type=Path, help="also write the bytes behind each digest to DIR/<name>")
    args = ap.parse_args(argv)
    # workloads imports aifcert from the checkout's src and refuses any other copy
    sys.path.insert(0, str(args.checkout.resolve() / "perfbench"))
    import workloads

    aifcert = workloads.aifcert
    found = demo_outputs(aifcert.cli.main)
    for seed in SEEDS:
        for name in workloads.WORKLOADS:
            counters = []
            for k, case in enumerate(workloads.make_cases(name, seed)):
                outputs, case_counters = case_outputs(aifcert, case)
                found += [(f"{name}/seed{seed}/case{k}/{n}", d) for n, d in outputs]
                counters.append(case_counters)
            found.append((f"{name}/seed{seed}/integrator.json", json.dumps(counters, sort_keys=True)))
    for name, *run in WITNESSES:
        found += [(f"witness/{name}/{n}", d) for n, d in witness_outputs(aifcert, *run)]
    found += [(f"witness/demo_L_used_0.2/{n}", d) for n, d in cascade_outputs(aifcert)]
    found.append(("witness/second_excursion_dip/report.json", later_excursion_output(aifcert)))
    for name, data in found:
        data = data.encode() if isinstance(data, str) else data
        if args.dump is not None:
            path = args.dump / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        print(f"{hashlib.sha256(data).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
