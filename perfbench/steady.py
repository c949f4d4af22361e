#!/usr/bin/env python3
"""Run the benchmark repeatedly and report how steady each end-to-end metric is.

    python3 perfbench/steady.py --workloads demo,overshoot,sweep,stiff --runs 10

Each run is a fresh ``run.py`` process with its own seed (first-seed,
first-seed+1, ...); runs of different workloads interleave.  For every
workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the quartile spread as a share
of the median, next to the metric's bound from BENCHMARK.json.  A spread
above a third of the bound is flagged.  It also checks that the share of
failed operations is the same in every run of a workload.  All values
and the machine they came from are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def one_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def summarize(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", help="JSON output (default .perfbench_out/steady-<time>.json)")
    args = ap.parse_args(argv)
    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    info = machine_info()
    runs = {name: [] for name in names}
    for k in range(args.runs):
        for name in names:
            r = one_run(name, args.first_seed + k, args.seconds)
            runs[name].append(r)
            print(
                f"{name} seed {args.first_seed + k}: "
                + ", ".join(f"{m}={v['value']:.6g}" for m, v in r["metrics"].items())
                + f", attempted {r['attempted']}, failed {r['failed']}, correct {r['correct']}"
                + f", wall {r['wall_s']:.1f}s",
                flush=True,
            )

    ok = True
    summary = {}
    print(f"\n{'workload':10s} {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in names:
        summary[name] = {}
        for metric, bound in bounds.items():
            s = summarize([r["metrics"][metric]["value"] for r in runs[name]], bound)
            summary[name][metric] = s
            flag = "" if s["spread"] <= bound / 3.0 else "  above bound/3"
            if metric != "setup_s" and s["spread"] > bound:
                flag = "  ABOVE BOUND"
                ok = False
            print(
                f"{name:10s} {metric:12s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                f"{s['spread']:8.4f} {bound:6.3f}{flag}"
            )
        shares = {r["failed"] / r["attempted"] for r in runs[name]}
        correct = all(r["correct"] for r in runs[name])
        summary[name]["failed_shares"] = sorted(shares)
        summary[name]["all_correct"] = correct
        print(f"{name:10s} failed shares {sorted(shares)}, all correct {correct}")
        ok = ok and correct and len(shares) == 1

    out = Path(args.out) if args.out else ROOT / ".perfbench_out" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"machine": info, "seconds": args.seconds, "summary": summary, "runs": runs}, indent=1))
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
