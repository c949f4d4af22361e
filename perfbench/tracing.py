"""Spans around calls into aifcert's layers, recorded from the benchmark's side.

A span is [name, op, parent, start, end, count]: ``op`` numbers the
operation it belongs to, ``parent`` is the index of the enclosing span
(None at the top), and ``count`` is the work a counted layer reports
(accepted steps, bytes written).  Spans stay in memory until the run
ends.  Nothing inside the aifcert package is changed: calls the program
makes itself are timed by swapping a module attribute for a timing
wrapper while a traced operation runs.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

# Work counted at a span's end, outside its timed interval.
COUNTERS = {
    "simulate.integrate": lambda result, args: len(result.t) - 1,
    "simulate.csv_write": lambda result, args: os.path.getsize(args[-1]),
    "plot.svg": lambda result, args: os.path.getsize(args[-1]),
}

# per-layer metric -> span name whose time it sums
LAYER_TIMES = {
    "bounds.certificate_s": "bounds.certificate",
    "simulate.integrate_s": "simulate.integrate",
    "simulate.excursions_s": "simulate.excursions",
    "simulate.csv_write_s": "simulate.csv_write",
    "simulate.csv_read_s": "simulate.csv_read",
    "plot.svg_s": "plot.svg",
    "verify.global_bounds_s": "verify.global_bounds",
    "verify.excursion_lemma_s": "verify.excursion_lemma",
    "verify.cascade_s": "verify.cascade",
    "verify.W_decrease_s": "verify.W_decrease",
    "verify.propositions_s": "verify.propositions",
}
# per-layer metric -> span name whose counts it sums
LAYER_COUNTS = {
    "simulate.steps": "simulate.integrate",
    "simulate.csv_bytes": "simulate.csv_write",
    "plot.svg_bytes": "plot.svg",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    "simulate.steps": "count",
    "simulate.us_per_step": "us",
    "simulate.csv_bytes": "bytes",
    "plot.svg_bytes": "bytes",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        parent = self._stack[-1] if self._stack else None
        span = [name, self.op, parent, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            span[5] = counter(result, args)
        return result

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextlib.contextmanager
    def replaced(self, targets):
        """Set module attributes to new values, restoring them on exit.

        targets: (module, attribute, value) triples.
        """
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        try:
            for module, attr, value in targets:
                setattr(module, attr, value)
            yield
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def patched(self, targets):
        """Time every call to module.attribute as a span, for (module, attribute, span) triples."""
        return self.replaced(
            [(module, attr, self._wrap(getattr(module, attr), span)) for module, attr, span in targets]
        )

    def dump(self, path) -> None:
        keys = ("name", "op", "parent", "start", "end", "count")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
            fh.write("\n")


def layer_metrics(spans, n_ops: int, untraced_mean: float, traced_mean: float) -> dict:
    """Per-operation means of every per-layer metric.

    A layer that the workload never calls reads 0.  A span's time
    includes its children, so verify.excursion_lemma_s contains the
    excursions_above calls made inside it.  cli.overhead_s is the self
    time of the cli.* spans: command time minus the layer calls inside.
    """
    total = defaultdict(float)
    count = defaultdict(int)
    child_time = defaultdict(float)
    for name, _, parent, start, end, n in spans:
        total[name] += end - start
        if n is not None:
            count[name] += n
        if parent is not None:
            child_time[parent] += end - start
    cli_self = sum(
        (end - start) - child_time[i]
        for i, (name, _, _, start, end, _) in enumerate(spans)
        if name.startswith("cli.")
    )
    steps = count["simulate.integrate"]
    values = {metric: total[span] / n_ops for metric, span in LAYER_TIMES.items()}
    values.update({metric: count[span] / n_ops for metric, span in LAYER_COUNTS.items()})
    values["simulate.us_per_step"] = 1e6 * total["simulate.integrate"] / steps if steps else 0.0
    values["cli.overhead_s"] = cli_self / n_ops
    values["trace.overhead_s"] = traced_mean - untraced_mean
    return values
