#!/usr/bin/env python3
"""Run alternating parent/change pairs of perfbench/run.py and print who won each metric.

    python3 bench/pairs.py --checkout DIR --workload sweep --pairs 10 [--seed S] [--seconds N] [--trace 1]

DIR is a checkout of the parent (for example a ``git archive`` copy);
the change is this checkout.  Each pair runs ``perfbench/run.py
--workload W`` once in each checkout, every run in a fresh process; the
parent goes first in the even pairs and the change in the odd ones, so
a drift of the host's speed is shared out between the two sides.  For
every metric of the runs' JSON lines (the end-to-end metrics, or the
per-layer ones with ``--trace 1``) it prints both sides' runs, medians
and quartiles, and the pairs the change won, judged by the metric's
``better`` direction in BENCHMARK.json.  A gain is claimed only from
at least 10 pairs, where the change wins at least 9 pairs in 10 and the
gap between the medians is larger than the distance between the
parent's quartiles (gain_claim); the last line of each metric says
whether that holds.  Exits 1 if a run fails or is not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import DEFAULT_SEED  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for kind in ("end_to_end", "per_layer") for m in BENCHMARK[kind]}
MIN_PAIRS = 10  # with fewer, the parent's quartiles say too little about its spread


def run(checkout: Path, args) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{checkout}: perfbench/run.py exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{checkout}: {result['failed']} failed operations, correct={result['correct']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def gain_claim(wins: int, pairs: int, gap: float, spread: float) -> str:
    """Whether the rule for claiming a gain is met: at least MIN_PAIRS pairs, 9 in 10 won, gap > spread."""
    if pairs < MIN_PAIRS:
        return f"not met (fewer than {MIN_PAIRS} pairs)"
    return "met" if wins >= 0.9 * pairs and gap > spread else "not met"


def quartiles(runs: list[float]) -> tuple[float, float, float]:
    return tuple(statistics.quantiles(runs, n=4)) if len(runs) > 1 else (runs[0],) * 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--checkout", required=True, type=Path, help="checkout of the parent")
    ap.add_argument("--workload", required=True, choices=("demo", "overshoot", "sweep", "stiff"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    sides = {"parent": args.checkout.resolve(), "change": ROOT}
    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(sides[side], args))
        print(f"pair {k + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr, flush=True)

    for name in runs["parent"][0]:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        lower = BETTER.get(name, "lower") == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        (q1, mp, q3), mc = quartiles(parent), statistics.median(change)
        gain = (mp - mc) if lower else (mc - mp)
        delta = f"{(mc - mp) / mp:+.1%}" if mp else "n/a"
        print(f"{args.workload} {name} ({'lower' if lower else 'higher'} is better)")
        for side, values in (("parent", parent), ("change", change)):
            lo, med, hi = quartiles(values)
            print(f"  {side}  runs {' '.join(f'{v:.6g}' for v in values)}")
            print(f"  {side}  median {med:.6g}  quartiles {lo:.6g} {hi:.6g}")
        print(f"  change won {wins} of {args.pairs}; median {delta}; "
              f"gap {gain:.6g} against parent quartile distance {q3 - q1:.6g}; "
              f"gain claim rule {gain_claim(wins, args.pairs, gain, q3 - q1)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
