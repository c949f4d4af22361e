#!/usr/bin/env python3
"""Record one BENCH_<n>.json: the benchmark's end-to-end and per-layer output for a checkout.

    python3 bench/record.py --out bench/BENCH_8.json [--checkout DIR]

Runs ``perfbench/run.py --workload all`` (end-to-end metrics) and then
``--trace 1`` (per-layer metrics) in the checkout (default: this one),
with run.py's default seed and BENCHMARK.json's ``run_seconds``, and
writes both result objects with the seed, the run length, the
checkout's commit, the git tree id of the measured ``src`` and the host
information that ``perfbench/steady.py`` prints.  ``src_tree`` equals
``git rev-parse <commit>:src`` of every commit with the measured
sources, so a change recorded before it is committed can be found
later.  Deltas between two changes are quoted from two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import DEFAULT_SEED  # noqa: E402
from steady import machine_info  # noqa: E402

RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run_all(checkout: Path, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--checkout", type=Path, default=ROOT)
    args = ap.parse_args(argv)

    def git(*cmd, env=None):
        return subprocess.run(["git", *cmd], cwd=args.checkout, stdout=subprocess.PIPE, text=True,
                              check=True, env=env).stdout.strip()

    # the tree of src as it is on disk, built in a scratch index
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("read-tree", "HEAD", env=env)
        git("add", "-A", "src", env=env)
        src_tree = git("rev-parse", git("write-tree", env=env) + ":src")

    record = {
        "commit": git("rev-parse", "HEAD"),
        "src_tree": src_tree,
        "seed": DEFAULT_SEED,
        "seconds": RUN_SECONDS,
        "host": machine_info(),
        "end_to_end": run_all(args.checkout, 0),
        "per_layer": run_all(args.checkout, 1),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    bad = [f"{kind}/{name}" for kind in ("end_to_end", "per_layer")
           for name, r in record[kind].items() if not r["correct"] or r["failed"]]
    print(f"wrote {args.out}; not correct or with failed operations: {bad or 'none'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
