"""One measured run of a workload, in its own process.

Untraced (``trace=False``): operations run back to back until ``seconds``
have passed, at least one of them; an operation is not started when the
previous one says it would end past the deadline. The result holds every
timing series, the checks, the digests, the environment and drift block
and the peak resident memory of this process and its children.

Traced (``trace=True``): the first half of ``seconds`` runs untraced as the
baseline, then the tracer is installed, the set-up is traced once under a
``setup`` root span, and operations run traced, each under an ``op`` root
span, until the deadline. The per-layer metrics come from the traced
operations; the tracing overhead is traced minus untraced operation time.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

import bcfsim
import stats
import tracing
from workloads import WORKLOADS


def calibrate() -> float:
    """Median milliseconds of a fixed kernel of interpreter and small-array
    work, shaped like the tree code's inner loop."""
    rng = np.random.default_rng(20241015)
    X = rng.random((250, 6))
    grid = np.linspace(0.01, 0.99, 100)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(150000):
            acc += i & 7
        for j in range(1500):
            sub = X[j % 125: j % 125 + 125]
            lo = sub.min(axis=0)
            hi = sub.max(axis=0)
            acc += int(np.searchsorted(grid, lo[j % 6])
                       < np.searchsorted(grid, hi[j % 6]))
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bcfsim": bcfsim.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def _run_ops(workload, inputs, work: Path, deadline: float, tracer,
             first_index: int) -> list:
    ops = []
    while True:
        if tracer is not None:
            tracer.active = True
            root = tracer.span("op")
        cpu0 = os.times()
        t0 = time.perf_counter()
        try:
            res = workload.run_op(inputs, work, first_index + len(ops), tracer)
        finally:
            wall = time.perf_counter() - t0
            cpu1 = os.times()
            if tracer is not None:
                tracer.close(root)
                tracer.active = False
        res.wall = wall
        res.cpu = sum(cpu1[:4]) - sum(cpu0[:4])
        ops.append(res)
        if time.perf_counter() + wall > deadline:
            return ops


def _series(ops) -> dict:
    out = {}
    for res in ops:
        for name, values in res.timings.items():
            out.setdefault(name, []).extend(values)
    return out


def measure(name: str, seed: int, seconds: float, trace: bool,
            work: Path) -> dict:
    workload = WORKLOADS[name]()
    drift = {"calibration_ms_before": calibrate(),
             "loadavg_before": os.getloadavg()}
    inputs = workload.setup(seed, work / "inputs")
    start = time.perf_counter()
    half = seconds / 2 if trace else seconds
    ops = _run_ops(workload, inputs, work, start + half, None, 0)
    traced_ops = []
    layers = {}
    problems = []
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.active = True
            root = tracer.span("setup")
            try:
                workload.setup(seed, work / "inputs-traced")
            finally:
                tracer.close(root)
                tracer.active = False
            traced_ops = _run_ops(workload, inputs, work, start + seconds,
                                  tracer, len(ops))
        finally:
            tracer.uninstall()
        layers = tracing.layer_metrics(tracer.spans, len(traced_ops),
                                       tracer.missing_labels)
        problems += tracing.self_time_problems(tracer.spans)
        base_s = workload.op_seconds(_series(ops))
        traced_s = workload.op_seconds(_series(traced_ops))
        n = len(traced_ops)
        layers["harness.files_written"] = (
            sum(r.files_written for r in traced_ops) / n, "count")
        layers["harness.bytes_written"] = (
            sum(r.bytes_written for r in traced_ops) / n, "bytes")
        layers["harness.cpu_util"] = (
            sum(r.cpu for r in ops) / sum(r.wall for r in ops), "ratio")
        if None not in (base_s, traced_s):
            layers["trace.overhead_s"] = (traced_s - base_s, "s")
            layers["trace.overhead_ratio"] = (traced_s / base_s - 1.0,
                                              "ratio")
        missing = sorted(t for t, _ in tracer.missing)
    else:
        missing = []
    drift["calibration_ms_after"] = calibrate()
    drift["loadavg_after"] = os.getloadavg()

    all_ops = ops + traced_ops
    for res in all_ops:
        problems += res.problems
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    series = _series(ops)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "drift": drift,
        "ops": len(ops),
        "traced_ops": len(traced_ops),
        "attempted": sum(r.attempted for r in all_ops),
        "failed": sum(r.failed for r in all_ops),
        "problems": problems,
        "op_s": workload.op_seconds(series),
        "peak_rss_mb": (self_kb + child_kb) / 1024.0,
        "timings": {k: stats.summary(v) for k, v in sorted(series.items())},
        "files_written_per_op": ops[-1].files_written,
        "bytes_written_per_op": ops[-1].bytes_written,
        "digests": all_ops[0].digests,
        "digests_repeat": all(r.digests == all_ops[0].digests
                              for r in all_ops),
        "layers": {k: {"value": v, "unit": u}
                   for k, (v, u) in sorted(layers.items())},
        "missing_names": missing,
    }
