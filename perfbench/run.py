"""bcfsim benchmark: three workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload grid_short --seed 1 \
        --seconds 30 --trace 0

Workloads (see workloads.py): ``grid_short`` (``bcfsim run`` over the 3x3
grid with very short chains, then ``bcfsim report``), ``report_full``
(report rebuilds of a synthetic 2,700-row full-study run directory) and
``fit_triple`` (one dataset fit by all three propensity variants).
BENCHMARK.json lists the first two. fit_triple is run by hand: its runs
move with the host's speed, which swings by a third within a minute on the
two-core machine it was built on, so between seeds they spread wider than
a regression bound can allow.

This process imports nothing from bcfsim. It times SETUP_PROBES set-up
processes, each running from interpreter start until the workload's inputs
are ready (imports, dataset draw, config file or synthetic run directory
written), then runs the measured workload in one more process (see
measure.py) and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

    setup_s      median set-up time of the set-up processes
    op_s         time of one operation: fit_triple sums the three
                 per-variant median fit_bcf times; grid_short adds the
                 median ``bcfsim run`` and median ``bcfsim report`` times;
                 report_full is the median rebuild time
    peak_rss_mb  peak resident memory of the measuring process plus that
                 of its largest child

``--trace 1`` reports the per-layer metrics of a traced run (tracing.py).
The full record of a run (environment and drift block, every timing series
with its median, tail and count, fail rate, digests of the draws and
artifacts) is written to ``perfbench/out/``; inputs and outputs of the
workloads live under ``perfbench/work/`` while the run lasts. Nothing else
in the checkout is written. Every process runs single-threaded
(``OMP_NUM_THREADS``/``OPENBLAS_NUM_THREADS`` = 1) with ``PYTHONHASHSEED=0``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORK = HERE / "work"

WORKLOADS = ("fit_triple", "grid_short", "report_full")
SETUP_PROBES = 3
# every child process must end this long after the benchmark starts
TIME_LIMIT_S = 170.0


class ChildFailed(Exception):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "setup", "measure"),
                   default="main", help=argparse.SUPPRESS)
    p.add_argument("--dir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _child(args) -> int:
    """Set-up probe or measured run; imports bcfsim from this checkout."""
    sys.path.insert(0, str(ROOT / "src"))
    import bcfsim
    if Path(bcfsim.__file__).resolve().parent != ROOT / "src" / "bcfsim":
        print(f"perfbench: bcfsim imported from {bcfsim.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    work = Path(args.dir)
    if args.role == "setup":
        from workloads import WORKLOADS as classes
        classes[args.workload]().setup(args.seed, work)
        return 0
    from measure import measure
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), work)
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


def _spawn(args, role: str, work: Path, deadline: float) -> None:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", str(work)]
    # the child's stdout goes to our stderr: our stdout carries the result
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr.fileno())
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{role} process ran past the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise ChildFailed(f"{role} process exited with {rc}")


def _git(*argv):
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *argv],
                              capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _git_state() -> dict:
    top = _git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != ROOT:
        return {"commit": None, "dirty": None}
    status = _git("status", "--porcelain")
    return {"commit": _git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def main(argv=None) -> int:
    args = _parse(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # one string-hash layout for every child, so runs differ only by seed
    os.environ["PYTHONHASHSEED"] = "0"
    if args.role != "main":
        return _child(args)
    # on SIGTERM, unwind through _spawn so the running child is reaped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    deadline = time.monotonic() + TIME_LIMIT_S
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s = []
        for i in range(SETUP_PROBES):
            probe = work / f"setup-{i}"
            t0 = time.perf_counter()
            _spawn(args, "setup", probe, deadline)
            setup_s.append(time.perf_counter() - t0)
            shutil.rmtree(probe, ignore_errors=True)
        run_dir = work / "measure"
        run_dir.mkdir()
        _spawn(args, "measure", run_dir, deadline)
        result = json.loads((run_dir / "result.json").read_text("utf-8"))
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result["setup_s"] = {"median": statistics.median(setup_s),
                         "samples": setup_s}
    result["environment"]["git"] = _git_state()
    attempted, failed = result["attempted"], result["failed"]
    result["fail_rate"] = failed / attempted if attempted else 1.0
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": {"value": result["setup_s"]["median"], "unit": "s"},
            "op_s": {"value": result["op_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        metrics = {k: v for k, v in metrics.items() if v["value"] is not None}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for name in result["missing_names"]:
        print(f"perfbench: {name} not found; its layer metrics are absent",
              file=sys.stderr)
    info = {k: result[k] for k in ("timings", "fail_rate", "drift",
                                   "digests_repeat")}
    info["record"] = str(record.relative_to(ROOT))
    print("perfbench info: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
