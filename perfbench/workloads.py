"""The benchmark's workloads: inputs from the seed, one operation, checks.

Every workload reaches bcfsim through its public modules, looking each name
up on the module at call time so that a traced run sees its wrappers.

fit_triple   one extreme-selection, alpha=4, n=250 dataset; one operation
             fits it with each propensity variant (study-default forests:
             200 mu, 50 tau and 200 probit trees, a FIT_ITERATIONS chain
             with half burn-in). No harness, I/O or rank-test work.
grid_short   one operation is ``bcfsim run`` over the full 3x3
             selection x alpha grid, all three variants, GRID_REPLICATES
             replicates and GRID_ITERATIONS-iteration chains, followed by
             GRID_REBUILDS ``bcfsim report`` rebuilds. Many fits, each
             paying its fixed costs, plus checkpoints and every artifact.
report_full  one operation is one ``report_from`` rebuild of a synthetic
             full-study run directory: 9 cells x 100 replicates x 3 variants
             = 2,700 rows, bootstrapped as whole replicate triples from a
             copy of the acceptance grid's replicates.csv. No sampler work.

A fit fails if it raises, if its draws are not finite or not shaped
(retained, n), if a sigma draw is not positive, or if
``bcfsim.harness.evaluate_fit`` rejects its record. A report rebuild fails
if its artifacts differ from the previous rebuild of the same directory
and, on grid_short, from what ``bcfsim run`` wrote.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import json
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from bcfsim import bcf, cli, dgp, harness

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "data" / "replicates_grid_a4.csv"

VARIANTS = ("no_propensity", "true_propensity", "estimated_propensity")
N = 250

FIT_ITERATIONS = 100
GRID_REPLICATES = 2
GRID_ITERATIONS = 10
GRID_REBUILDS = 3
STUDY_REPLICATES = 100


@dataclasses.dataclass
class OpResult:
    """What one operation did, as the benchmark saw it."""

    timings: dict = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    digests: dict = dataclasses.field(default_factory=dict)
    files_written: int = 0
    bytes_written: int = 0
    wall: float = 0.0
    cpu: float = 0.0

    def add_time(self, series: str, seconds: float) -> None:
        self.timings.setdefault(series, []).append(seconds)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(what)


@contextlib.contextmanager
def untraced(tracer):
    """Keep the benchmark's own checks out of the trace."""
    if tracer is None:
        yield
        return
    was = tracer.active
    tracer.active = False
    try:
        yield
    finally:
        tracer.active = was


def _chain(config, iterations: int):
    return dataclasses.replace(config, iterations=iterations,
                               burn_in=iterations // 2)


def draws_digest(fit) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in (fit.mu_draws, fit.tau_draws, fit.sigma_draws):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def fit_problems(fit, retained: int, n: int) -> list:
    problems = []
    for name in ("mu_draws", "tau_draws"):
        arr = getattr(fit, name)
        if arr.shape != (retained, n):
            problems.append(f"{name} shaped {arr.shape}, not {(retained, n)}")
        elif not np.isfinite(arr).all():
            problems.append(f"{name} not finite")
    sigma = fit.sigma_draws
    if sigma.shape != (retained,):
        problems.append(f"sigma_draws shaped {sigma.shape}")
    elif not (np.isfinite(sigma).all() and (sigma > 0).all()):
        problems.append("sigma draws not finite and positive")
    return problems


def artifact_digests(run_dir: Path) -> dict:
    """blake2b of every file except the wall-clock ``*timing*`` files."""
    return {
        str(p.relative_to(run_dir)):
            hashlib.blake2b(p.read_bytes(), digest_size=16).hexdigest()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and "timing" not in p.name
    }


def set_digest(digests: dict) -> str:
    h = hashlib.blake2b(digest_size=16)
    for key in sorted(digests):
        h.update(f"{key}\x1f{digests[key]}\n".encode())
    return h.hexdigest()


def _file_states(run_dir: Path) -> dict:
    # writes go through a temp file and a rename, so a rewritten file gets
    # a new inode even when its bytes are unchanged
    out = {}
    for p in run_dir.rglob("*"):
        if p.is_file():
            st = p.stat()
            out[p] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return out


def _count_written(res: OpResult, before: dict, after: dict) -> None:
    for path, state in after.items():
        if before.get(path) != state:
            res.files_written += 1
            res.bytes_written += state[2]


def _fail_with_traceback(res: OpResult, what: str, count: int = 1) -> None:
    traceback.print_exc(file=sys.stderr)
    res.fail(what, count)


class FitTriple:
    def setup(self, seed: int, work: Path) -> dict:
        data_seed = harness.derive_seed("perfbench", "fit_triple", seed)
        dataset = dgp.generate(dgp.DgpSpec("extreme", 4.0, N), data_seed)
        base = bcf.BcfConfig()
        config = bcf.BcfConfig(
            mu_config=_chain(base.mu_config, FIT_ITERATIONS),
            tau_config=_chain(base.tau_config, FIT_ITERATIONS),
            propensity_config=_chain(base.propensity_config, FIT_ITERATIONS),
        )
        return {"dataset": dataset, "config": config, "data_seed": data_seed,
                "fit_seed": harness.derive_seed(data_seed, "fit")}

    def run_op(self, inputs: dict, work: Path, index: int, tracer) -> OpResult:
        res = OpResult()
        ds = inputs["dataset"]
        config = inputs["config"]
        retained = config.mu_config.n_retained
        for variant in VARIANTS:
            res.attempted += 1
            pi_true = ds.pi_true if variant == "true_propensity" else None
            t0 = time.perf_counter()
            try:
                fit = bcf.fit_bcf(ds.X, ds.D, ds.Y, variant, pi_true=pi_true,
                                  config=config, seed=inputs["fit_seed"])
            except Exception:
                _fail_with_traceback(res, f"{variant}: fit_bcf raised")
                continue
            res.add_time(f"fit_s.{variant}", time.perf_counter() - t0)
            with untraced(tracer):
                problems = fit_problems(fit, retained, N)
                try:
                    harness.evaluate_fit(fit, ds, 0, inputs["data_seed"])
                except ValueError as exc:
                    problems.append(f"evaluate_fit rejected the record: {exc}")
                res.digests[variant] = draws_digest(fit)
            if problems:
                res.fail(f"{variant}: " + "; ".join(problems))
        return res

    def op_seconds(self, series: dict) -> float:
        """Time of one triple: the sum of the per-variant median fit times."""
        return _sum_of_medians(series, [f"fit_s.{v}" for v in VARIANTS])


class GridShort:
    def setup(self, seed: int, work: Path) -> dict:
        work.mkdir(parents=True, exist_ok=True)
        master_seed = harness.derive_seed("perfbench", "grid_short",
                                          seed) % 2**31
        config = work / "grid.cfg"
        config.write_text(
            "selections = extreme, moderate, slight\n"
            "alphas = 1, 2, 4\n"
            f"models = {', '.join(VARIANTS)}\n"
            f"n = {N}\n"
            f"replicates = {GRID_REPLICATES}\n"
            f"master_seed = {master_seed}\n"
            f"iterations = {GRID_ITERATIONS}\n"
            f"burn_in = {GRID_ITERATIONS // 2}\n",
            encoding="utf-8")
        return {"config": config,
                "fits": 9 * len(VARIANTS) * GRID_REPLICATES,
                "retained": GRID_ITERATIONS - GRID_ITERATIONS // 2}

    def run_op(self, inputs: dict, work: Path, index: int, tracer) -> OpResult:
        res = OpResult()
        out = work / f"grid-{index}"
        fits = inputs["fits"]
        res.attempted += fits + GRID_REBUILDS

        seen = []
        inner = harness.fit_bcf

        def checked_fit_bcf(*args, **kwargs):
            t0 = time.perf_counter()
            fit = inner(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            with untraced(tracer):
                seen.append((fit.mode.value, elapsed,
                             fit_problems(fit, inputs["retained"], N),
                             draws_digest(fit)))
            return fit

        harness.fit_bcf = checked_fit_bcf
        try:
            t0 = time.perf_counter()
            rc = cli.main(["run", "--config", str(inputs["config"]),
                           "--out", str(out)])
            run_s = time.perf_counter() - t0
        except Exception:
            rc = None
            traceback.print_exc(file=sys.stderr)
        finally:
            harness.fit_bcf = inner

        if rc != 0:
            res.fail(f"bcfsim run exited with {rc}", fits)
            res.fail("no run to report on", GRID_REBUILDS)
            shutil.rmtree(out, ignore_errors=True)
            return res
        res.add_time("run_s", run_s)
        for i, (variant, elapsed, problems, digest) in enumerate(seen):
            res.add_time(f"fit_s.{variant}", elapsed)
            res.digests[f"fit{i:03d}.{variant}"] = digest
            if problems:
                res.fail(f"fit {i} {variant}: " + "; ".join(problems))
        with open(out / "replicates.csv", newline="", encoding="utf-8") as fh:
            rows = sum(1 for _ in csv.DictReader(fh))
        if rows != fits:
            res.fail(f"replicates.csv holds {rows} rows, not {fits}",
                     abs(fits - rows))

        written = _file_states(out)
        _count_written(res, {}, written)
        expected = artifact_digests(out)
        res.digests["artifacts.run"] = set_digest(expected)
        for i in range(GRID_REBUILDS):
            before = _file_states(out)
            t0 = time.perf_counter()
            try:
                rc = cli.main(["report", "--from", str(out)])
            except Exception:
                _fail_with_traceback(res, f"report {i} raised")
                continue
            res.add_time("report_s", time.perf_counter() - t0)
            _count_written(res, before, _file_states(out))
            got = artifact_digests(out)
            if rc != 0:
                res.fail(f"bcfsim report exited with {rc}")
            elif got != expected:
                changed = sorted(k for k in expected.keys() | got.keys()
                                 if expected.get(k) != got.get(k))
                res.fail(f"report {i} differs from the run in {changed[:5]}")
        res.digests["artifacts.report"] = set_digest(artifact_digests(out))
        shutil.rmtree(out, ignore_errors=True)
        return res

    def op_seconds(self, series: dict) -> float:
        """Time of one ``bcfsim run`` plus one ``bcfsim report``."""
        return _sum_of_medians(series, ["run_s", "report_s"])


class ReportFull:
    def setup(self, seed: int, work: Path) -> dict:
        run_dir = work / "study"
        run_dir.mkdir(parents=True, exist_ok=True)
        with open(FIXTURE, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames
            triples = {}
            for row in reader:
                key = (row["dgp_id"], row["replicate_index"])
                triples.setdefault(row["dgp_id"], {}).setdefault(
                    key, []).append(row)
        pools = {sel: list(by_rep.values()) for sel, by_rep in triples.items()}

        rng = np.random.default_rng(
            harness.derive_seed("perfbench", "report_full", seed))
        master_seed = int(rng.integers(2**31))
        config = harness.ExperimentConfig(replicates=STUDY_REPLICATES,
                                          master_seed=master_seed)
        with open(run_dir / "replicates.csv", "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=header,
                                    lineterminator="\n")
            writer.writeheader()
            for selection in config.selections:
                pool = pools[selection.value]
                for alpha in config.alphas:
                    for rep in range(config.replicates):
                        seed_out = harness.derive_seed(
                            master_seed, selection.value, alpha, rep)
                        for row in pool[int(rng.integers(len(pool)))]:
                            writer.writerow({
                                **row, "alpha": repr(alpha),
                                "replicate_index": str(rep),
                                "seed": str(seed_out)})
        (run_dir / "run_config.json").write_text(
            json.dumps(config.to_json_dict(), sort_keys=True, indent=2),
            encoding="utf-8")
        rows = (len(config.selections) * len(config.alphas)
                * config.replicates * len(config.models))
        return {"run_dir": run_dir, "rows": rows, "previous": None}

    def run_op(self, inputs: dict, work: Path, index: int, tracer) -> OpResult:
        res = OpResult(attempted=1)
        run_dir = inputs["run_dir"]
        before = _file_states(run_dir)
        t0 = time.perf_counter()
        try:
            records = harness.report_from(run_dir)
        except Exception:
            _fail_with_traceback(res, "report_from raised")
            return res
        res.add_time("report_s", time.perf_counter() - t0)
        _count_written(res, before, _file_states(run_dir))
        got = artifact_digests(run_dir)
        res.digests["artifacts.report"] = set_digest(got)
        if len(records) != inputs["rows"]:
            res.fail(f"report_from returned {len(records)} records, "
                     f"not {inputs['rows']}")
        elif inputs["previous"] is not None and got != inputs["previous"]:
            res.fail("rebuild differs from the previous rebuild")
        inputs["previous"] = got
        return res

    def op_seconds(self, series: dict) -> float:
        """Time of one report rebuild."""
        return _sum_of_medians(series, ["report_s"])


def _sum_of_medians(series: dict, names):
    """None when some series has no sample, as after failed operations."""
    if not all(series.get(name) for name in names):
        return None
    return sum(statistics.median(series[name]) for name in names)


WORKLOADS = {
    "fit_triple": FitTriple,
    "grid_short": GridShort,
    "report_full": ReportFull,
}
