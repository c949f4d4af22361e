#!/usr/bin/env python3
"""Benchmark of the aifcert certify pipeline.

    python3 perfbench/run.py --workload demo --seed 1729 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

One run measures one workload (demo, overshoot, sweep or stiff) in this
process: a closed loop, one operation at a time, always whole rounds of
the workload's cases.  It prints every metric with its unit, then, as
its last line, one JSON object with the keys correct, attempted, failed
and metrics.  --trace 0 reports the end-to-end metrics; --trace 1
alternates untraced rounds with rounds decomposed into traced layer
calls, and reports the per-layer metrics.  After the timed loop every output is
checked against oracle.py.  ``--workload all`` runs each workload in a
fresh process of its own.

Exit codes: 0 a result was printed (its "correct" field says whether the
outputs passed), 1 an operation raised an unexpected error, 2 the
aifcert sources are missing or the arguments are invalid.
"""

import os

# One thread for every BLAS/OpenMP pool, set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
OUTDIR = ROOT / ".perfbench_out"
WORKLOADS = ("demo", "overshoot", "sweep", "stiff")
DEFAULT_SEED = 1729

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
SETUP_PROBES = 5
# A fresh interpreter that imports aifcert (with its CLI) and builds the inputs.
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "workloads.make_cases(sys.argv[2], int(sys.argv[3]), sys.argv[4] == 'tiny')"
)


# Host-speed calibration.  The machine this benchmark was tuned on ran the
# same operation up to 1.8 times slower for minutes at a time (other
# tenants share its cores; neither steal time nor a second process of ours
# showed), so medians of wall time over 10 runs spread by 23-47% of their
# median.  A fixed pure-Python kernel, timed right before and after each
# measured interval, tracks that drift; every reported time is scaled by
# CAL_REF_S / (kernel time), i.e. given in seconds of a host that runs the
# kernel in CAL_REF_S.
CAL_REF_S = 1e-3


def _kernel_step(v1, v2, v3, v4):
    return (1.0 - 30.0 * v1 * v4, 10.0 * v1 - v2, v2 - v3, v3 - 30.0 * v1 * v4)


def host_speed() -> float:
    """Seconds the calibration kernel takes now: the median of five runs.

    The kernel mixes the kinds of work the workloads do: calls that build
    float tuples (the integrator) and float formatting (the CSV writer).
    """
    runs = []
    for _ in range(5):
        t0 = time.perf_counter()
        y = (0.1, 0.2, 0.3, 0.4)
        for _ in range(100):
            k = _kernel_step(*y)
            y = tuple(y[i] + 1e-3 * k[i] for i in range(4))
            f"{y[0]:.17g},{y[1]:.17g},{y[2]:.17g},{y[3]:.17g}"
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def measure_setup(name: str, seed: int, tiny: bool, probes: int) -> tuple[float, float]:
    """Median of ``probes`` fresh set-up interpreters: (scaled, wall) seconds.

    One extra probe runs first and is not counted: it writes the bytecode
    caches that every later start reads.
    """
    cmd = [sys.executable, "-c", PROBE, str(HERE), name, str(seed), "tiny" if tiny else "full"]
    scaled, wall = [], []
    cal = host_speed()
    for k in range(probes + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        dt = time.perf_counter() - t0
        cal, cal_before = host_speed(), cal
        if k:
            wall.append(dt)
            scaled.append(dt * CAL_REF_S / (0.5 * (cal + cal_before)))
    return statistics.median(scaled), statistics.median(wall)


def timed_rounds(n_cases: int, seconds: float, run_op, check):
    """Run whole rounds until ``seconds`` have passed; time each operation.

    Returns ((case, wall seconds, scaled seconds) of every completed
    operation, attempted, failed).  ``check`` sees every result; it and the
    calibration run outside the timed interval.
    """
    from workloads import OperationFailed

    times = []
    attempted = failed = 0
    cal = host_speed()
    deadline = time.perf_counter() + seconds
    while True:
        for i in range(n_cases):
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = run_op(i)
            except OperationFailed as exc:
                failed += 1
                if failed == 1:
                    print(f"operation failed: {exc}", file=sys.stderr)
                continue
            dt = time.perf_counter() - t0
            cal, cal_before = host_speed(), cal
            times.append((i, dt, dt * CAL_REF_S / (0.5 * (cal + cal_before))))
            check(i, result)
        if time.perf_counter() >= deadline:
            return times, attempted, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Measure one workload and check its outputs; returns the result object."""
    import workloads
    from tracing import PER_LAYER_UNITS, Tracer, layer_metrics

    setup_s, setup_wall = (None, None) if trace else measure_setup(name, seed, tiny, 1 if tiny else SETUP_PROBES)
    wl = workloads.make_workload(name, seed, WORKDIR / f"{name}-{os.getpid()}", tiny)
    first: dict = {}
    problems: list = []

    def problem(text):
        if text not in problems:
            problems.append(text)

    def check_repeat(i, result):
        out = wl.record(i, result)
        if i not in first:
            first[i] = out
        elif out != first[i]:
            problem(f"case {i}: output differs between repeats of the same operation")

    def check_traced(i, result):
        got = workloads.statuses(wl.record(i, result))
        if i in first and got != workloads.statuses(first[i]):
            problem(
                f"case {i}: decomposed statuses {got} differ from build_report's "
                f"{workloads.statuses(first[i])}"
            )

    try:
        # warm-up: one untimed operation lets lazy set-up and caches settle
        timed_rounds(1, 0.0, wl.op, check_repeat)
        n = len(wl.cases)
        if not trace:
            times, attempted, failed = timed_rounds(n, seconds, wl.op, check_repeat)
            scaled = [t for _, _, t in times]
            values = {
                "setup_s": setup_s,
                "op_s": statistics.median(scaled) if times else float(seconds),
                "ops_per_s": len(scaled) / sum(scaled) if times else 1.0 / seconds,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
            if times:
                print(
                    f"{name}: wall clock, unscaled: setup {setup_wall:.6g} s, op median "
                    f"{statistics.median(t for _, t, _ in times):.6g} s over {len(times)} operations",
                    file=sys.stderr,
                )
            else:
                problems.append("no operation completed")
        else:
            tracer = Tracer()

            def traced_op(i):
                tracer.op += 1
                return wl.traced_op(i, tracer)

            # untraced and traced rounds alternate, so that both see the
            # same drift in the machine's speed
            plain, traced = [], []
            attempted = failed = n_traced = 0
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                t, a, f = timed_rounds(n, 0.0, wl.op, check_repeat)
                plain += t
                attempted, failed = attempted + a, failed + f
                t, a, f = timed_rounds(n, 0.0, traced_op, check_traced)
                traced += t
                attempted, failed, n_traced = attempted + a, failed + f, n_traced + a
            if not (plain and traced):
                problems.append("no operation completed")
            values = layer_metrics(
                tracer.spans,
                n_traced,
                statistics.fmean(t for _, t, _ in plain) if plain else 0.0,
                statistics.fmean(t for _, t, _ in traced) if traced else 0.0,
            )
            units = PER_LAYER_UNITS
            OUTDIR.mkdir(exist_ok=True)
            tracer.dump(OUTDIR / f"spans-{name}-seed{seed}.json")
        problems += wl.oracle_problems(first)
    finally:
        wl.close()

    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def print_result(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name:10s} {metric:26s} {m['value']:14.6g} {m['unit']}")
    print(
        f"{name:10s} attempted {result['attempted']}  failed {result['failed']}  "
        f"correct {str(result['correct']).lower()}"
    )


def run_all(args) -> int:
    """Each workload in a fresh process; a summary, then one JSON object keyed by workload."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status = status or (0 if results[name]["correct"] else 1)
    for name, result in results.items():
        print_result(name, result)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    if args.workload == "all":
        return run_all(args)
    try:
        import workloads  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
