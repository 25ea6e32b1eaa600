"""Replication harness for the factorial simulation study.

Runs the full grid of (selection strength x effect scale x model variant x
replicate), with a paired design: within one cell, every model variant is
fit to the identical synthetic draw, and each draw's seed is derived by
hashing (master seed, cell, replicate), so any sub-grid of a run reproduces
the exact datasets and fits of the full run. Every fit regenerates its own
dataset, so digests.csv compares independently regenerated draws.

Artifacts written per run directory:

    run_config.json                     resolved configuration
    replicates.csv                      one row per (cell, replicate, model)
    digests.csv                         dataset digest per row (paired-design audit)
    summary_<dgp>_<alpha>.csv / .md     per-cell metric means and sds by model
    pvalues_<dgp>_<alpha>_<pair>.csv    dispersion-gated rank tests per metric
    boxplot_<dgp>_<alpha>.csv           long-format per-replicate metric values
    scatter_pi_vs_b_<dgp>.csv           propensity vs prognostic level sample
    timing.json                         wall-clock times and probit overhead
    cells/cell_<dgp>_<alpha>.csv        per-cell checkpoint enabling --resume

Wall-clock seconds live only in timing.json and the cells/ checkpoints;
every other file is byte-identical across reruns of the same configuration.
Every file goes through one writer, ``_write_text``, and so does the
dataset CSV of ``write_dataset``: a run, resume, report or dataset dump
leaves a file untouched when it already holds the bytes it would get, and
replaces any other file atomically (a temp file renamed over it), so a
rebuild of an intact run directory or a resume of a finished run writes
nothing.

A ``ReplicateRecord`` is one replicates.csv row. A cell's checkpoint is one
CSV, written at once: per fit, the record fields, the dataset digest and the
seconds. One reader parses replicates.csv and the checkpoints into a
``RecordTable``.
A run's reports are ``report_from``'s: they lay the table out on the grid
of run_config.json (cells in selections x alphas order, models in
``models`` order and replicate r in column r, whatever the row order of
replicates.csv), placing each row by one lookup, and rank-test all model
pairs of a cell in one call. Summaries and p-values come from the parsed
floats; a boxplot's value column is the replicates.csv cell text, which
the run wrote with ``repr``, so no value is formatted twice and every file
a report rebuilds is byte-identical to the run's.

Each input is checked once, where it enters. An ``ExperimentConfig`` is
valid once built, and ``run_experiment`` refuses a grid with a dataset of
one treatment arm before it writes anything. Readers refuse what they do not
recognise, naming the file: run_config.json unless it is a JSON object
with exactly the ``ExperimentConfig`` fields, which that class checks;
replicates.csv or a cell checkpoint with other columns, or a row with
a bad cell or a metric out of range, naming its line; and a checkpoint
with unreadable fit seconds or, naming the line, fit seconds that are
not finite and nonnegative. A resume also refuses cells beside no
run_config.json, and a checkpoint that does not hold its cell's fits in run
order. Records meet the grid in ``cell_values``, which refuses them unless
they hold each of its fits once; ``report_from`` names both files in that
refusal.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import operator
from array import array
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .bart import ChainConfig, _check_count, _member
from .bcf import (
    BcfConfig, PropensityMode, ate_posterior, cate_intervals, fit_bcf,
)
from .dgp import Dataset, DgpSpec, Selection, baseline, generate, propensity
from .metrics import (
    METRIC_FIELDS, RECORD_FIELDS, ReplicateRecord, interval_metrics,
    out_of_range, pointwise_errors,
)
from .ranktests import select_and_run

__all__ = [
    "ExperimentConfig", "CellValues", "RecordTable", "derive_seed",
    "dataset_digest", "evaluate_fit", "run_experiment", "cell_values",
    "summarize", "compare_models", "timing_report", "report_from",
    "apply_profile", "load_config_file", "read_replicates_csv",
    "write_dataset",
]

MODEL_IDS = tuple(m.value for m in PropensityMode)
_TRUE_PI = PropensityMode.TRUE_PROPENSITY.value

# the record fields that name one fit, its key; digests.csv leads with them
_KEY_FIELDS = ("dgp_id", "alpha", "replicate_index", "model", "seed")
_fit_key = operator.attrgetter(*_KEY_FIELDS)
# how a record field's value is written in a CSV cell, by its declared type
_FORMATS = {str: str, int: str, float: lambda v: repr(float(v))}
_FIELD_FORMATS = {name: _FORMATS[hint]
                  for name, hint in get_type_hints(ReplicateRecord).items()}
# a cell checkpoint's columns after the record fields
_CELL_EXTRA = ("dataset_digest", "seconds")

# samples per selection strength in the propensity-vs-baseline scatter file
_SCATTER_POINTS = 2000

# the nominal level of every scored posterior interval: the cover_* fields
# are the coverage of intervals at this level, and se_cover_*/ae_cover_*
# their squared and absolute distance from it
_INTERVAL_LEVEL = 0.95


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from the stringified parts.

    Hash-based (BLAKE2b) so it is reproducible across runs, platforms and
    process boundaries, unlike Python's builtin ``hash``. Floats should be
    passed pre-normalized (e.g. ``float(alpha)``) so 4 and 4.0 agree.
    """
    key = "\x1f".join(map(str, parts))
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def dataset_digest(dataset: Dataset) -> str:
    """Content hash of one synthetic draw (covariates, truth, outcomes)."""
    h = hashlib.blake2b(digest_size=8)
    for arr in (dataset.X, dataset.pi_true, dataset.D, dataset.Y,
                dataset.cate_true):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class ExperimentConfig:
    """The study grid plus chain controls shared by every fit.

    ``iterations``/``burn_in`` apply to all three forests (the two outcome
    forests and the internal propensity probit). Where a run is written is
    not part of its configuration: ``run_experiment`` takes the directory.
    A config is valid once built: a bad value raises a ValueError.
    """

    selections: tuple[Selection, ...] = (
        Selection.EXTREME, Selection.MODERATE, Selection.SLIGHT)
    alphas: tuple[float, ...] = (1.0, 2.0, 4.0)
    models: tuple[str, ...] = MODEL_IDS
    n: int = 250
    replicates: int = 100
    master_seed: int = 1729
    iterations: int = 2000
    burn_in: int = 1000

    def __post_init__(self):
        for name in ("selections", "alphas", "models"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list or tuple, "
                                 f"got {getattr(self, name)!r}")
        for name, kind in (("selections", Selection),
                           ("models", PropensityMode)):
            object.__setattr__(self, name, tuple(
                _member(kind, name, value) for value in getattr(self, name)))
        for alpha in self.alphas:
            try:
                DgpSpec(Selection.EXTREME, alpha)  # DgpSpec states the rule
            except ValueError as exc:
                raise ValueError(f"alphas: {exc}") from None
        object.__setattr__(
            self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(
            self, "models", tuple(m.value for m in self.models))
        for name in ("selections", "alphas", "models"):
            vals = getattr(self, name)
            if not vals:
                raise ValueError(f"{name} must be nonempty")
            if len(set(vals)) != len(vals):
                raise ValueError(f"{name} contains duplicates")
        # numpy integers become ints, which run_config.json can hold
        for name in ("n", "replicates", "master_seed", "iterations",
                     "burn_in"):
            _check_count(name, getattr(self, name))
            object.__setattr__(self, name, int(getattr(self, name)))
        # a cell's name keys its checkpoint and report files
        cells = {}
        for selection, alpha in itertools.product(self.selections,
                                                  self.alphas):
            DgpSpec(selection, alpha, self.n)  # refuses a bad n
            name = _cell_key(selection.value, alpha)
            other = cells.setdefault(name, alpha)
            if other != alpha:
                raise ValueError(f"alphas {other!r} and {alpha!r} both name "
                                 f"the cell {name}")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        # the rank tests between models need two replicates per model
        if self.replicates < 2 and len(self.models) > 1:
            raise ValueError("replicates must be at least 2 to compare "
                             f"{len(self.models)} models")
        ChainConfig(self.iterations, self.burn_in)  # refuses a bad chain

    def bcf_config(self) -> BcfConfig:
        return BcfConfig(chain=ChainConfig(
            iterations=self.iterations, burn_in=self.burn_in))

    def to_json_dict(self) -> dict:
        """Every field by name, exactly as run_config.json reads back."""
        return json.loads(json.dumps(dataclasses.asdict(self)))


def apply_profile(config: ExperimentConfig, profile: str) -> ExperimentConfig:
    """Resolve a named run profile.

    ``quick`` drops to 20 replicates and 500 retained draws per chain
    (1000 iterations, 500 burn-in) for smoke runs; ``full`` leaves the
    configuration untouched.
    """
    if profile == "quick":
        return dataclasses.replace(
            config, replicates=20, iterations=1000, burn_in=500)
    if profile == "full":
        return config
    raise ValueError(f"unknown profile {profile!r}; expected 'quick' or 'full'")


def load_config_file(path) -> ExperimentConfig:
    """Parse a flat ``key = value`` config file.

    Lines starting with ``#`` (or blank) are skipped and ``#`` starts a
    trailing comment. The keys are the ``ExperimentConfig`` fields: a
    ``tuple[X, ...]`` field takes comma-separated X entries, any other field
    one nonempty value. Unknown keys and keys set twice are errors, not
    warnings, so typos cannot silently fall back to defaults. The file must
    state a valid ``ExperimentConfig`` on its own, before any profile or
    seed override applies.
    """
    hints = get_type_hints(ExperimentConfig)
    kwargs = {}
    set_on = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in hints:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            first = set_on.setdefault(key, lineno)
            if first != lineno:
                raise ValueError(f"{path}:{lineno}: config key {key!r} is "
                                 f"already set on line {first}")
            hint = hints[key]
            try:
                if get_origin(hint) is tuple:
                    kwargs[key] = tuple(get_args(hint)[0](v.strip())
                                        for v in value.split(",")
                                        if v.strip())
                else:
                    kwargs[key] = hint(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}")
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def evaluate_fit(fit, dataset: Dataset, replicate_index: int,
                 seed: int) -> ReplicateRecord:
    """Score one fitted variant against the draw's ground truth, intervals
    at ``_INTERVAL_LEVEL``. A metric is named ``<statistic>_<target>``; the
    record keeps those it declares."""
    ci = cate_intervals(fit, _INTERVAL_LEVEL)
    ate = ate_posterior(fit, _INTERVAL_LEVEL)
    truth_ate = np.array([dataset.ate_true])
    by_target = {
        "cate": {**pointwise_errors(ci["mean"], dataset.cate_true),
                 **interval_metrics(ci["lower"], ci["upper"],
                                    dataset.cate_true, _INTERVAL_LEVEL)},
        "ate": {**pointwise_errors(np.array([ate["mean"]]), truth_ate),
                **interval_metrics(np.array([ate["lower"]]),
                                   np.array([ate["upper"]]), truth_ate,
                                   _INTERVAL_LEVEL)},
        "pi": pointwise_errors(fit.pi_used, dataset.pi_true),
    }
    metrics = {f"{stat}_{target}": value
               for target, stats in by_target.items()
               for stat, value in stats.items()}
    return ReplicateRecord(
        dgp_id=dataset.spec.selection.value, alpha=float(dataset.spec.alpha),
        model=fit.mode.value, replicate_index=replicate_index, seed=seed,
        **{name: metrics[name] for name in METRIC_FIELDS})


def _cell_key(dgp_id: str, alpha: float) -> str:
    """A cell's name in checkpoint and report file names and timing keys."""
    return f"{dgp_id}_{alpha:g}"


def _cells(record: ReplicateRecord, names) -> list[str]:
    """The CSV cells of the named record fields."""
    return [_FIELD_FORMATS[name](getattr(record, name)) for name in names]


def _write_text(path: Path, text: str) -> None:
    """Make ``path`` hold ``text`` in UTF-8. A file that already holds those
    bytes is left untouched, and a ``<name>.tmp`` an interrupted write left
    beside it is removed; any other file is written to ``<name>.tmp`` and
    renamed over ``path``, so a crash never leaves it partly written. A
    write or rename that fails removes the temp file and raises."""
    data = text.encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    try:
        current = path.read_bytes() == data
    except OSError:
        current = False
    if current:
        tmp.unlink(missing_ok=True)
        return
    try:
        tmp.write_bytes(data)
        tmp.replace(path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise


def _csv_text(header, rows) -> str:
    """CSV text of a header row and the data rows, lines ending in "\\n"."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_dataset(dataset: Dataset, path) -> None:
    """Write one draw to ``path`` as CSV with columns x1..x5, pi_true, d, y,
    cate_true: every float as its ``repr``, ``d`` as 0 or 1. It goes
    through ``_write_text``, as every file of a run does."""
    rows = ([*map(repr, x), repr(pi), d, repr(y), repr(tau)]
            for x, pi, d, y, tau in zip(
                dataset.X.tolist(), dataset.pi_true.tolist(),
                dataset.D.tolist(), dataset.Y.tolist(),
                dataset.cate_true.tolist()))
    _write_text(Path(path), _csv_text(
        ["x1", "x2", "x3", "x4", "x5", "pi_true", "d", "y", "cate_true"],
        rows))


@dataclass(frozen=True)
class RecordTable:
    """The rows of a records CSV, in row order: each row's ``_KEY_FIELDS``
    tuple, a float matrix with a row per ``METRIC_FIELDS`` metric and a
    column per CSV row, each row's metric cells as the CSV spells them,
    joined by commas into one string (the boxplot's values), a list of
    cells per extra column, and each row's line in the file."""

    keys: list
    metrics: np.ndarray
    metric_text: list
    extra: tuple
    lines: array

    def __len__(self) -> int:
        return len(self.keys)

    def records(self) -> list[ReplicateRecord]:
        """A ``ReplicateRecord`` per row, in row order."""
        return [ReplicateRecord(dgp_id=dgp_id, alpha=alpha, model=model,
                                replicate_index=rep, seed=seed,
                                **dict(zip(METRIC_FIELDS, values)))
                for (dgp_id, alpha, rep, model, seed), values
                in zip(self.keys, self.metrics.T.tolist())]


def read_replicates_csv(path, extra=()) -> RecordTable:
    """The rows of replicates.csv or, with ``extra`` columns after the
    record fields, of a cell checkpoint: a ``RecordTable``, which keeps
    each row's metric cells both parsed and as text.

    The header must be the record fields followed by the ``extra`` columns;
    blank lines are skipped. Any other header raises a ValueError naming
    the file, and so does the first row of another length, with a cell that
    does not parse as its field's type or with a metric out of range
    (``metrics.out_of_range``), naming its line too.
    """
    columns = RECORD_FIELDS + tuple(extra)
    width = len(METRIC_FIELDS)
    keys, lines, values, texts = [], array("q"), array("d"), []
    extras = tuple([] for _ in extra)
    failure = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(header) != columns:
            raise ValueError(f"{path}: unexpected columns {header}")
        for row in filter(None, reader):
            try:
                if len(row) != len(columns):
                    raise ValueError(
                        f"{len(row)} cells, expected {len(columns)}")
                # a row leads with dgp_id, alpha, model, replicate_index and
                # seed; its cells parse in that order, so the first bad cell
                # is the one named
                key = (row[0], float(row[1]), int(row[3]), row[2],
                       int(row[4]))
                metric_cells = row[5:5 + width]
                values.extend(map(float, metric_cells))
            except ValueError as exc:
                failure = (reader.line_num, exc)
                del values[len(keys) * width:]
                break
            keys.append(key)
            lines.append(reader.line_num)
            texts.append(",".join(metric_cells))
            for column, cell in zip(extras, row[5 + width:]):
                column.append(cell)
    table = RecordTable(keys, np.asarray(values).reshape(-1, width).T, texts,
                        extras, lines)
    # every row that parsed comes before the one that did not
    broken = out_of_range(table.metrics)
    if broken is not None:
        raise ValueError(f"{path}:{lines[broken[0]]}: {broken[1]}")
    if failure is not None:
        raise ValueError(f"{path}:{failure[0]}: {failure[1]}") from failure[1]
    return table


def _data_seed(config: ExperimentConfig, dgp_id: str, alpha: float,
               rep: int) -> int:
    """The seed of one replicate's dataset; its fits' seeds derive from it."""
    return derive_seed(config.master_seed, dgp_id, float(alpha), rep)


def _fit_keys(config: ExperimentConfig, selection: Selection,
              alpha: float) -> list[tuple]:
    """One grid cell's fits in run order, each as its ``_KEY_FIELDS``."""
    dgp_id, alpha = selection.value, float(alpha)
    return [(dgp_id, alpha, rep, model, seed)
            for rep in range(config.replicates)
            for seed in [_data_seed(config, dgp_id, alpha, rep)]
            for model in config.models]


def _key_mismatch(found, wanted) -> str | None:
    """'i: found ..., expected ...' at the first (1-based) position where
    two lists of fit keys differ, or None if they are equal."""
    for i, pair in enumerate(itertools.zip_longest(found, wanted), 1):
        if pair[0] != pair[1]:
            got, want = ("nothing" if key is None else
                         f"cell {_cell_key(*key[:2])} replicate {key[2]} "
                         f"model {key[3]} seed {key[4]}" for key in pair)
            return f"{i}: found {got}, expected {want}"
    return None


def _fit_one(config: ExperimentConfig, selection: Selection, alpha: float,
             rep: int, model: str):
    """(record, dataset digest, fit seconds) of one fit on its regenerated
    dataset. Any error from the fit or its scoring is raised again as a
    RuntimeError naming the cell, replicate and model, chained to the
    original."""
    data_seed = _data_seed(config, selection.value, alpha, rep)
    dataset = generate(DgpSpec(selection, alpha, config.n), data_seed)
    try:
        fit = fit_bcf(dataset.X, dataset.D, dataset.Y, model,
                      pi_true=(dataset.pi_true if model == _TRUE_PI else None),
                      config=config.bcf_config(),
                      seed=derive_seed(data_seed, model))
        record = evaluate_fit(fit, dataset, rep, data_seed)
    except Exception as exc:
        raise RuntimeError(
            f"fit failed in cell {_cell_key(selection.value, alpha)}, "
            f"replicate {rep}, model {model}: "
            f"{type(exc).__name__}: {exc}") from exc
    # hashed after the fit, so a fit that mutated its inputs would break
    # the within-replicate digest equality audit
    return record, dataset_digest(dataset), fit.fit_seconds


def _write_cell(path: Path, rows) -> None:
    """A cell's checkpoint, written at once: the record fields, the dataset
    digest and the seconds of each (record, digest, seconds) fit row."""
    _write_text(path, _csv_text(
        RECORD_FIELDS + _CELL_EXTRA,
        (_cells(rec, RECORD_FIELDS) + [digest, _FORMATS[float](seconds)]
         for rec, digest, seconds in rows)))


def _read_cell(path: Path):
    """A checkpointed cell's (record, dataset digest, fit seconds) rows."""
    table = read_replicates_csv(path, _CELL_EXTRA)
    digests, seconds = table.extra
    try:
        seconds = list(map(float, seconds))
    except ValueError as exc:
        raise ValueError(f"{path}: unreadable fit seconds ({exc})") from exc
    # timing.json averages them, and NaN is not JSON
    for line, value in zip(table.lines, seconds):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{path}:{line}: fit seconds must be finite "
                             f"and nonnegative, got {value!r}")
    return list(zip(table.records(), digests, seconds))


def _check_arms(config: ExperimentConfig) -> None:
    """Draw every (cell, replicate) dataset of the grid and refuse one with
    no treated or no control unit: no variant can fit it, and a resume
    would draw it again."""
    for selection, alpha in itertools.product(config.selections,
                                              config.alphas):
        spec = DgpSpec(selection, alpha, config.n)
        for rep in range(config.replicates):
            treated = int(generate(spec, _data_seed(
                config, selection.value, alpha, rep)).D.sum())
            if treated in (0, config.n):
                raise ValueError(
                    f"cell {_cell_key(selection.value, alpha)}, replicate "
                    f"{rep} draws no {'control' if treated else 'treated'} "
                    f"unit among n = {config.n}; choose another master_seed "
                    "or a larger n")


def run_experiment(config: ExperimentConfig, out_dir, resume: bool = False,
                   progress=None) -> list[ReplicateRecord]:
    """Run the whole grid and write every artifact to the run directory.

    A grid with a dataset of one treatment arm is refused before anything
    is written (``_check_arms``). Each completed cell is checkpointed as
    one file under ``cells/``; ``resume=True`` loads them instead of refitting, while a
    fresh run into a directory holding cell artifacts is refused so two
    configurations cannot get mixed together silently. For the same
    reason a resume, which then writes nothing, is refused when the
    directory's ``run_config.json`` is missing or differs from ``config``
    in any key, or when a checkpoint does not hold its cell's
    ``_fit_keys`` in order. ``progress`` gets a line per fit: its count
    among this call's fits and an ETA. The reports are ``report_from``'s,
    built from the replicates.csv just written. A file that already holds
    the bytes this call would write is left untouched (``_write_text``), so
    a resume of a finished run writes no file. Returns the full record
    list.
    """
    if not isinstance(config, ExperimentConfig):
        raise ValueError(f"config must be an ExperimentConfig, got {config!r}")
    _check_arms(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells_dir = out / "cells"
    cells_dir.mkdir(exist_ok=True)

    leftovers = sorted(p.name for p in cells_dir.iterdir())
    if leftovers and not resume:
        raise RuntimeError(
            f"{cells_dir} already holds cell artifacts ({leftovers[0]}, ...); "
            "pass resume=True to reuse them or choose a fresh directory")

    config_path = out / "run_config.json"
    wanted = config.to_json_dict()
    if leftovers and not config_path.exists():
        raise FileNotFoundError(f"{config_path} not found, so the cells in "
                                f"{cells_dir} cannot be checked; choose a "
                                "fresh directory")
    if leftovers:
        found = _read_run_config(config_path).to_json_dict()
        differ = [k for k in sorted(wanted) if found[k] != wanted[k]]
        if differ:
            detail = "; ".join(f"{k}: found {found[k]!r}, expected "
                               f"{wanted[k]!r}" for k in differ)
            raise RuntimeError(
                f"{config_path} records a different configuration ({detail}); "
                "resume with that configuration or choose a fresh directory")

    paths, cell_rows = {}, {}
    for cell in itertools.product(config.selections, config.alphas):
        name = _cell_key(cell[0].value, cell[1])
        path = paths[cell] = cells_dir / f"cell_{name}.csv"
        if path.exists():
            rows = cell_rows[cell] = _read_cell(path)
            mismatch = _key_mismatch([_fit_key(row[0]) for row in rows],
                                     _fit_keys(config, *cell))
            if mismatch:
                raise RuntimeError(f"{path}: row {mismatch}; it came "
                                   "from another cell or configuration")
    _write_text(config_path, json.dumps(wanted, sort_keys=True, indent=2))

    todo = [cell for cell in paths if cell not in cell_rows]
    total = len(todo) * config.replicates * len(config.models)
    fit_seconds = []
    for cell in todo:
        rows = cell_rows[cell] = []
        for _, _, rep, model, _ in _fit_keys(config, *cell):
            rows.append(_fit_one(config, *cell, rep, model))
            fit_seconds.append(rows[-1][2])
            if progress is not None:
                done = len(fit_seconds)
                eta = sum(fit_seconds) / done * (total - done)
                progress(f"fit {done}/{total}: "
                         f"{_cell_key(cell[0].value, cell[1])} "
                         f"rep {rep + 1}/{config.replicates} {model} "
                         f"({fit_seconds[-1]:.1f}s, "
                         f"ETA {timedelta(seconds=round(eta))})")
        _write_cell(paths[cell], rows)

    all_rows = [row for cell in paths for row in cell_rows[cell]]
    records = [row[0] for row in all_rows]
    _write_text(out / "replicates.csv", _csv_text(
        RECORD_FIELDS, (_cells(rec, RECORD_FIELDS) for rec in records)))
    _write_text(out / "digests.csv", _csv_text(
        _KEY_FIELDS + ("dataset_digest",),
        (_cells(rec, _KEY_FIELDS) + [digest] for rec, digest, _ in all_rows)))
    report_from(out)
    _write_scatter(config, out)
    _write_timing(out, all_rows)
    return records


def _write_scatter(config: ExperimentConfig, out: Path) -> None:
    """scatter_pi_vs_b_<dgp>.csv: the propensity against the prognostic
    level at ``_SCATTER_POINTS`` uniform covariate draws per selection
    strength. They depend on ``master_seed`` alone, so a run writes them
    and a report leaves them."""
    for selection in config.selections:
        rng = np.random.default_rng(
            derive_seed(config.master_seed, "scatter", selection.value))
        X = rng.random((_SCATTER_POINTS, 5))
        _write_text(out / f"scatter_pi_vs_b_{selection.value}.csv",
                    _csv_text(["b", "pi"], zip(
                        map(repr, baseline(X).tolist()),
                        map(repr, propensity(X, selection).tolist()))))


def _write_timing(out: Path, rows) -> None:
    """timing.json: the seconds of each (record, digest, seconds) fit row,
    in run order, and their ``timing_report``."""
    fits = [{"dgp_id": rec.dgp_id, "alpha": rec.alpha, "model": rec.model,
             "replicate_index": rec.replicate_index, "seconds": seconds}
            for rec, _, seconds in rows]
    timing = {"rows": fits, **timing_report(fits)}
    _write_text(out / "timing.json", json.dumps(timing, sort_keys=True, indent=1))


@dataclass(frozen=True)
class CellValues:
    """One grid cell's metric values, column-wise.

    ``values[model]`` is a float matrix with one row per ``METRIC_FIELDS``
    metric, in that order, and one column per replicate: column r holds
    replicate r. ``text[model][r]`` is replicate r's row of metric cells as
    replicates.csv spells them, joined by commas (``RecordTable``). Models
    follow the configuration's ``models``.
    """

    dgp_id: str
    alpha: float
    values: dict
    text: dict


def cell_values(config: ExperimentConfig,
                table: RecordTable) -> list[CellValues]:
    """The table's rows laid out on ``config``'s grid: a ``CellValues`` per
    cell, in selections x alphas order, its floats and its cell text side by
    side. Each of the grid's fits (``_fit_keys``, whose seeds derive from
    ``master_seed`` for replicates ``0..replicates-1``) has one place on the
    grid, and each row is put in its fit's place by one lookup. The rows
    must fill every place once, in any order, so no matrix has a hole;
    otherwise a ValueError names the first fit, in key order, that
    differs."""
    cells = list(itertools.product(config.selections, config.alphas))
    models = {model: i for i, model in enumerate(config.models)}
    reps = config.replicates
    # a fit's place: its (cell, model) block, then its replicate; one
    # (metric x replicate) block per (cell, model) keeps each model's
    # matrix C-contiguous
    place = {key: (c * len(models) + models[key[3]]) * reps + key[2]
             for c, cell in enumerate(cells)
             for key in _fit_keys(config, *cell)}
    at = np.fromiter((place.get(key, -1) for key in table.keys), np.intp,
                     len(table))
    # how many rows fell off the grid, then how many fill each place
    filled = np.bincount(at + 1, minlength=len(place) + 1)
    if filled[0] or not (filled[1:] == 1).all():
        mismatch = _key_mismatch(sorted(table.keys), sorted(place))
        raise ValueError(
            f"{len(table)} records do not hold each of the grid's "
            f"{len(place)} fits once (master_seed {config.master_seed}, "
            f"replicates {config.replicates}); in key order, fit {mismatch}")
    shape = (len(cells), len(models), len(METRIC_FIELDS), reps)
    grid = np.empty(shape)
    grid.reshape(-1, len(METRIC_FIELDS), reps)[at // reps, :, at % reps] = (
        table.metrics.T)
    text = np.empty(len(place), object)
    text[at] = table.metric_text
    return [CellValues(selection.value, alpha,
                       dict(zip(config.models, by_model)),
                       dict(zip(config.models, by_model_text)))
            for (selection, alpha), by_model, by_model_text
            in zip(cells, grid, text.reshape(shape[:2] + (reps,)).tolist())]


def summarize(cell: CellValues) -> dict:
    """Each model's (means, sds) over the cell's replicates, a float per
    ``METRIC_FIELDS`` metric; sds are ddof-1 sample standard deviations, or
    None for a single replicate. A mean or sd that overflows float64 raises
    a ValueError naming its metric and model."""
    summary = {}
    for model, matrix in cell.values.items():
        single = matrix.shape[1] == 1
        # an overflow is refused below, by name, instead of warned about
        with np.errstate(over="ignore", invalid="ignore"):
            means = matrix.mean(axis=1)
            sds = means if single else matrix.std(axis=1, ddof=1)
        finite = np.isfinite(means) & np.isfinite(sds)
        if not finite.all():
            raise ValueError(f"{METRIC_FIELDS[finite.argmin()]} of {model}: "
                             "its mean or sd over the replicates overflows "
                             "float64")
        summary[model] = (means.tolist(), None if single else sds.tolist())
    return summary


def _summary_csv_text(summary: dict) -> str:
    header = ["metric"]
    for model in summary:
        header += [f"mean_{model}", f"sd_{model}"]
    rows = []
    for i, metric in enumerate(METRIC_FIELDS):
        row = [metric]
        for means, sds in summary.values():
            row += [repr(means[i]), "" if sds is None else repr(sds[i])]
        rows.append(row)
    return _csv_text(header, rows)


def _summary_md_text(cell: CellValues, summary: dict) -> str:
    lines = [
        f"# Summary: {cell.dgp_id} selection, alpha={cell.alpha:g}",
        "",
        "Mean over replicates, sample sd in parentheses.",
        "",
        "| metric | " + " | ".join(summary) + " |",
        "|" + "---|" * (len(summary) + 1),
    ]
    for i, metric in enumerate(METRIC_FIELDS):
        entries = [f"{means[i]:.4g}" if sds is None
                   else f"{means[i]:.4g} ({sds[i]:.3g})"
                   for means, sds in summary.values()]
        lines.append(f"| {metric} | " + " | ".join(entries) + " |")
    lines.append("")
    return "\n".join(lines)


def _boxplot_csv_text(cell: CellValues) -> str:
    """One line per (metric, replicate, model), in that nesting order,
    built a model's column at a time and joined a metric at a time. A
    line's value is the replicates.csv cell as written: the run writes each
    metric with ``repr``, so a run's boxplot holds each value's ``repr``,
    and a hand-edited cell keeps its spelling (``0.10`` stays ``0.10``).
    No cell of a run's files holds anything csv would quote: names, an int
    and a float repr."""
    chunks = ["metric,model,replicate_index,value\n"]
    # per model, a tuple of cells per metric, a cell per replicate
    cells = {model: list(zip(*(row.split(",") for row in rows)))
             for model, rows in cell.text.items()}
    reps = list(map(str, range(next(iter(cell.values.values())).shape[1])))
    for i, metric in enumerate(METRIC_FIELDS):
        columns = [[f"{metric},{model},{rep},{value}\n"
                    for rep, value in zip(reps, by_metric[i])]
                   for model, by_metric in cells.items()]
        chunks.append("".join(itertools.chain.from_iterable(zip(*columns))))
    return "".join(chunks)


def compare_models(cell: CellValues) -> dict:
    """Dispersion-gated rank tests between each pair of the cell's models,
    in ``models`` order: for each (model_a, model_b) a list of
    ``TestReport``, one per ``METRIC_FIELDS`` metric. One ``select_and_run``
    tests every pair, the pairs' metric matrices stacked as rows; a pair's
    matrices pair replicates column by column (the paired design)."""
    pairs = list(itertools.combinations(cell.values, 2))
    if not pairs:
        return {}
    reports = select_and_run(
        np.concatenate([cell.values[model_a] for model_a, _ in pairs]),
        np.concatenate([cell.values[model_b] for _, model_b in pairs]))
    width = len(METRIC_FIELDS)
    return {pair: reports[i * width:(i + 1) * width]
            for i, pair in enumerate(pairs)}


_PVALUE_COLUMNS = ("levene", "brown_forsythe", "fligner_policello",
                   "mann_whitney", "kruskal_wallis")


def _pvalues_csv_text(reports) -> str:
    header = ["metric"]
    for name in _PVALUE_COLUMNS:
        header += [f"{name}_stat", f"{name}_p"]
    header.append("selected")
    rows = []
    for metric, report in zip(METRIC_FIELDS, reports):
        row = [metric]
        for name in _PVALUE_COLUMNS:
            result = getattr(report, name)
            if result is None:
                row += ["", ""]
            else:
                row += [repr(float(result.stat)), repr(float(result.p))]
        row.append("+".join(report.selected))
        rows.append(row)
    return _csv_text(header, rows)


def timing_report(rows) -> dict:
    """Mean fit seconds per model, in order of first appearance, and the
    propensity-estimation overhead when both variants have fits, from
    timing.json's rows (each with ``dgp_id``, ``alpha``, ``model`` and
    ``seconds``).

    Overhead is mean(estimated_propensity) / mean(no_propensity) - 1,
    pooled and per cell; without both variants its two keys are absent.
    """
    no = PropensityMode.NO_PROPENSITY.value
    est = PropensityMode.ESTIMATED_PROPENSITY.value
    by_model, by_cell = {}, {}
    for row in rows:
        by_model.setdefault(row["model"], []).append(row["seconds"])
        by_cell.setdefault((row["dgp_id"], row["alpha"]), {}).setdefault(
            row["model"], []).append(row["seconds"])
    means = {m: float(np.mean(v)) for m, v in by_model.items()}
    report = {"mean_seconds_by_model": means}
    if no in means and est in means:
        report["pooled_overhead_estimated_vs_no_propensity"] = (
            means[est] / means[no] - 1.0)
        report["cell_overhead_estimated_vs_no_propensity"] = {
            _cell_key(dgp_id, alpha):
                float(np.mean(times[est])) / float(np.mean(times[no])) - 1.0
            for (dgp_id, alpha), times in sorted(by_cell.items())
            if no in times and est in times}
    return report


def _read_run_config(path: Path) -> ExperimentConfig:
    """The configuration a run_config.json records: a JSON object with
    exactly the ``ExperimentConfig`` fields, whose values that class checks;
    anything else raises a ValueError naming the file."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValueError("expected a JSON object")
        hints = get_type_hints(ExperimentConfig)
        unknown = sorted(raw.keys() - hints.keys())
        if unknown:
            raise ValueError(f"unknown configuration keys {unknown}")
        missing = sorted(hints.keys() - raw.keys())
        if missing:
            raise ValueError(f"missing configuration keys {missing}")
        return ExperimentConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def report_from(run_dir) -> RecordTable:
    """Rebuild the reports of a run directory from its raw records.

    Reads replicates.csv (``read_replicates_csv``) and run_config.json,
    refusing a configuration that is malformed or invalid, or whose fits
    the records do not hold once each (``cell_values``). ``n`` is not
    recorded in replicates.csv, so it cannot be checked. Rebuilds the
    summary, p-value and boxplot files, byte-identical to what the
    original run produced, along the run's own path from rows to report
    bytes, and rewrites only those whose bytes differ. Its inputs stay
    untouched, and so do the scatter files, which depend on
    ``master_seed`` alone, digests.csv and timing.json, which need the
    datasets and the wall-clock data that the raw CSV does not carry.
    Returns the table of replicates.csv, a row per record.
    """
    run = Path(run_dir)
    config_path = run / "run_config.json"
    csv_path = run / "replicates.csv"
    if not csv_path.exists():
        raise FileNotFoundError(f"{csv_path} not found; is this a run directory?")
    if not config_path.exists():
        raise FileNotFoundError(f"{config_path} not found; cannot rebuild reports")
    config = _read_run_config(config_path)
    table = read_replicates_csv(csv_path)
    try:
        cells = cell_values(config, table)
    except ValueError as exc:
        raise ValueError(f"{csv_path} does not match {config_path}: "
                         f"{exc}") from exc
    for cell in cells:
        stem = _cell_key(cell.dgp_id, cell.alpha)
        try:
            summary = summarize(cell)
            comparisons = compare_models(cell)
        except ValueError as exc:
            raise ValueError(f"{csv_path}, cell {stem}: {exc}") from exc
        _write_text(run / f"summary_{stem}.csv", _summary_csv_text(summary))
        _write_text(run / f"summary_{stem}.md",
                    _summary_md_text(cell, summary))
        _write_text(run / f"boxplot_{stem}.csv", _boxplot_csv_text(cell))
        for (model_a, model_b), reports in comparisons.items():
            _write_text(run / f"pvalues_{stem}_{model_a}_vs_{model_b}.csv",
                        _pvalues_csv_text(reports))
    return table
