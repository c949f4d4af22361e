#!/usr/bin/env python3
"""Print a sha256 digest of each output that a refactor must leave byte-identical.

    python3 bench/outputs.py [--checkout DIR] > digests.txt

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
- ``witness/<name>/...``: the report JSON of build_report on each run
  of WITNESSES, and again against its certificate with T0 divided by
  100 and with gamma halved, which covers the certified paths of the
  excursion lemma, the cascade and W_decrease's rate part.

Two checkouts have byte-identical outputs exactly when ``diff`` finds
no difference between their digest lists.  Only aifcert's public API
and make_cases are used.
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


def digest(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def demo_outputs(main) -> list[tuple[str, str]]:
    """(name, digest) of each command's standard output and of each file it writes."""

    def run(commands, prefix):
        for argv in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            if code != 0:
                sys.exit(f"aifcert {' '.join(argv)} exited {code}")
            found.append((f"{prefix}stdout/{argv[0]}", digest(out.getvalue())))

    found = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            run(DEMO_COMMANDS, "demo/")
            found += [(f"demo/{name}", digest(Path(name).read_bytes())) for name in DEMO_FILES]
            Path(CSV_CONFIG[0]).write_text(json.dumps(CSV_CONFIG[1]))
            run(CSV_COMMANDS, "demo/from_csv/")
            found += [(f"demo/{name}", digest(Path(name).read_bytes())) for name in CSV_FILES]
        finally:
            os.chdir(cwd)
    return found


def case_outputs(aifcert, case) -> list[tuple[str, str]]:
    """(name, digest) of one case's report and of its four tampered global_bounds records."""
    report = aifcert.build_report(case.params, case.x0, horizon=case.horizon, L_override=case.L,
                                  fuzz_count=case.fuzz, fuzz_seed=case.fuzz_seed)
    found = [("report.json", digest(json.dumps(report.to_json(), sort_keys=True)))]
    traj = aifcert.integrate(case.params, case.x0, case.horizon)
    cert = aifcert.certificate(case.params, case.x0, case.L)
    for i in range(1, 5):
        bad = dataclasses.replace(cert, **{f"M{i}": getattr(cert, f"M{i}") / 10.0})
        record = aifcert.check_global_bounds(traj, bad).to_json()
        found.append((f"global_bounds_M{i}_over_10.json", digest(json.dumps(record, sort_keys=True))))
    return found


def witness_outputs(aifcert, rates, x0, horizon) -> list[tuple[str, str]]:
    """(name, digest) of one run's report, and of its reports with T0 / 100 and gamma / 2."""
    p, x0 = aifcert.Params.from_sequence(rates), aifcert.State.from_sequence(x0)
    cert = aifcert.certificate(p, x0)
    traj = aifcert.integrate(p, x0, horizon)
    certs = (
        ("report.json", cert),
        ("T0_over_100/report.json", dataclasses.replace(cert, T0=cert.T0 / 100.0)),
        ("gamma_halved/report.json", dataclasses.replace(cert, gamma=cert.gamma / 2.0)),
    )
    return [(name, digest(json.dumps(aifcert.build_report(p, x0, cert=c, traj=traj).to_json(),
                                     sort_keys=True))) for name, c in certs]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--checkout", type=Path, default=ROOT, help="checkout whose src to run (default: this one)")
    args = ap.parse_args(argv)
    # workloads imports aifcert from the checkout's src and refuses any other copy
    sys.path.insert(0, str(args.checkout.resolve() / "perfbench"))
    import workloads

    aifcert = workloads.aifcert
    found = demo_outputs(aifcert.cli.main)
    for seed in SEEDS:
        for name in workloads.WORKLOADS:
            for k, case in enumerate(workloads.make_cases(name, seed)):
                found += [(f"{name}/seed{seed}/case{k}/{n}", d) for n, d in case_outputs(aifcert, case)]
    for name, *run in WITNESSES:
        found += [(f"witness/{name}/{n}", d) for n, d in witness_outputs(aifcert, *run)]
    for name, value in found:
        print(f"{value}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
