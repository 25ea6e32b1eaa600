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
    cells/                              per-cell scratch enabling --resume

Every CSV and markdown artifact is byte-identical across reruns of the same
configuration; wall-clock measurements are confined to the files with
"timing" in their name.

Readers refuse what they do not recognise, naming the file: run_config.json
unless it states a valid ``ExperimentConfig``, field by field, and a resume
a cell checkpoint with other columns, a bad cell or no fit time. A resume
also refuses cells beside no run_config.json, and a checkpoint that does not
hold its cell's fits in run order. ``report_from`` refuses records whose
selections, alphas or models differ from run_config.json, or that do not
hold each of its fits once.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .bart import ChainConfig
from .bcf import (
    BcfConfig, PropensityMode, ate_posterior, cate_intervals, fit_bcf,
)
from .dgp import Dataset, DgpSpec, Selection, baseline, generate, propensity
from .metrics import (
    METRIC_FIELDS, RECORD_FIELDS, ReplicateRecord, interval_metrics,
    pointwise_errors,
)
from .ranktests import TestReport, select_and_run

__all__ = [
    "ExperimentConfig", "CellValues", "SummaryTable", "PValueTable",
    "derive_seed", "dataset_digest", "evaluate_fit", "run_experiment",
    "cell_values", "summarize", "compare_models", "timing_report",
    "report_from", "apply_profile", "load_config_file",
    "read_replicates_csv",
]

MODEL_IDS = tuple(m.value for m in PropensityMode)
_TRUE_PI = PropensityMode.TRUE_PROPENSITY.value

_CSV_FIELDS = tuple(f for f in RECORD_FIELDS if f != "fit_seconds")
# the record fields that name one fit, its key; digests.csv leads with them
_KEY_FIELDS = ("dgp_id", "alpha", "replicate_index", "model", "seed")
_fit_key = operator.attrgetter(*_KEY_FIELDS)
# (parse, format) of one CSV cell of a record field, by its declared type
_CODECS = {str: (str, str), int: (int, str),
           float: (float, lambda v: repr(float(v)))}
_FIELD_CODECS = {name: _CODECS[hint]
                 for name, hint in get_type_hints(ReplicateRecord).items()}

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
    key = "\x1f".join(str(p) for p in parts)
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
        object.__setattr__(
            self, "selections",
            tuple(Selection(s) for s in self.selections))
        object.__setattr__(
            self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(
            self, "models",
            tuple(PropensityMode(m).value for m in self.models))

    def validate(self) -> None:
        for name in ("selections", "alphas", "models"):
            vals = getattr(self, name)
            if not vals:
                raise ValueError(f"{name} must be nonempty")
            if len(set(vals)) != len(vals):
                raise ValueError(f"{name} contains duplicates")
        bad = [a for a in self.alphas if not (math.isfinite(a) and a > 0)]
        if bad:
            raise ValueError(f"alphas must be finite and positive, got {bad}")
        # a cell's name keys its checkpoint and report files
        cells = {}
        for selection, alpha in itertools.product(self.selections,
                                                  self.alphas):
            name = _cell_key(selection.value, alpha)
            other = cells.setdefault(name, alpha)
            if other != alpha:
                raise ValueError(f"alphas {other!r} and {alpha!r} both name "
                                 f"the cell {name}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        # the rank tests between models need two replicates per model
        if self.replicates < 2 and len(self.models) > 1:
            raise ValueError("replicates must be at least 2 to compare "
                             f"{len(self.models)} models")
        self.bcf_config().validate()

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
    warnings, so typos cannot silently fall back to defaults.
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
    return ExperimentConfig(**kwargs)


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
        fit_seconds=fit.fit_seconds,
        **{name: metrics[name] for name in METRIC_FIELDS})


def _cell_key(dgp_id: str, alpha: float) -> str:
    """A cell's name in checkpoint and report file names and timing keys."""
    return f"{dgp_id}_{alpha:g}"


def _cells(record: ReplicateRecord, names) -> list[str]:
    """The CSV cells of the named record fields."""
    return [_FIELD_CODECS[name][1](getattr(record, name)) for name in names]


def _write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


def _csv_text(header, rows) -> str:
    """CSV text of a header row and the data rows, lines ending in "\\n"."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _read_records(path, extra=()) -> list:
    """(record, extra cells) of every row of a records CSV.

    The header must be the record fields but ``fit_seconds``, which comes
    back as 0.0, followed by the ``extra`` columns; blank lines are skipped.
    Any other header, a row of another length or a bad cell raises a
    ValueError naming the file.
    """
    columns = _CSV_FIELDS + tuple(extra)
    parsers = [_FIELD_CODECS[name][0] for name in _CSV_FIELDS]
    rows = []
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
                rec = ReplicateRecord(fit_seconds=0.0, **{
                    name: parse(cell)
                    for name, parse, cell in zip(_CSV_FIELDS, parsers, row)})
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
            rows.append((rec, row[len(_CSV_FIELDS):]))
    return rows


def read_replicates_csv(path) -> list[ReplicateRecord]:
    """Load harness records back from ``replicates.csv``.

    The CSV intentionally carries no wall-clock column, so ``fit_seconds``
    comes back as 0.0; timing lives in timing.json.
    """
    return [rec for rec, _ in _read_records(path)]


def _data_seed(config: ExperimentConfig, dgp_id: str, alpha: float,
               rep: int) -> int:
    """The seed of one replicate's dataset; its fits' seeds derive from it."""
    return derive_seed(config.master_seed, dgp_id, float(alpha), rep)


def _fit_keys(config: ExperimentConfig, selection: Selection,
              alpha: float) -> list[tuple]:
    """One grid cell's fits in run order, each as its ``_KEY_FIELDS``."""
    return [(selection.value, float(alpha), rep, model,
             _data_seed(config, selection.value, alpha, rep))
            for rep in range(config.replicates) for model in config.models]


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
    """(record, dataset digest) of one fit on its regenerated dataset. Any
    error from the fit or its scoring is raised again as a RuntimeError
    naming the cell, replicate and model, chained to the original."""
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
    return record, dataset_digest(dataset)


def _timing_key(record: ReplicateRecord) -> str:
    return f"{record.replicate_index}:{record.model}"


def _write_cell(cell_csv: Path, cell_timing: Path, rows) -> None:
    _write_text(cell_csv, _csv_text(
        _CSV_FIELDS + ("dataset_digest",),
        (_cells(rec, _CSV_FIELDS) + [digest] for rec, digest in rows)))
    timing = {_timing_key(rec): rec.fit_seconds for rec, _ in rows}
    _write_text(cell_timing, json.dumps(timing, sort_keys=True, indent=1))


def _read_cell(cell_csv: Path, cell_timing: Path):
    """A checkpointed cell's (record, dataset digest) rows, fit times joined."""
    rows = _read_records(cell_csv, ("dataset_digest",))
    try:
        timing = json.loads(cell_timing.read_text(encoding="utf-8"))
        seconds = [float(timing[_timing_key(rec)]) for rec, _ in rows]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{cell_timing}: unreadable fit times "
                         f"({type(exc).__name__}: {exc})") from exc
    return [(dataclasses.replace(rec, fit_seconds=s), digest)
            for (rec, (digest,)), s in zip(rows, seconds)]


def run_experiment(config: ExperimentConfig, out_dir, resume: bool = False,
                   progress=None) -> list[ReplicateRecord]:
    """Run the whole grid and write every artifact to the run directory.

    Completed cells are checkpointed under ``cells/``; ``resume=True`` loads
    them instead of refitting, while a fresh run into a directory holding
    cell artifacts is refused so two configurations cannot get mixed
    together silently. For the same reason a resume, which then writes
    nothing, is refused when the directory's ``run_config.json`` is missing
    or differs from ``config`` in any key, or when a checkpoint does not
    hold its cell's ``_fit_keys`` in order. ``progress`` gets a line per
    fit: its count among this call's fits and an ETA. Returns the full
    record list.
    """
    config.validate()
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
        paths[cell] = (cells_dir / f"cell_{name}.csv",
                       cells_dir / f"cell_{name}_timing.json")
        if all(path.exists() for path in paths[cell]):
            rows = cell_rows[cell] = _read_cell(*paths[cell])
            mismatch = _key_mismatch([_fit_key(rec) for rec, _ in rows],
                                     _fit_keys(config, *cell))
            if mismatch:
                raise RuntimeError(f"{paths[cell][0]}: row {mismatch}; it came "
                                   "from another cell or configuration")
    _write_text(config_path, json.dumps(wanted, sort_keys=True, indent=2))

    todo = [cell for cell in paths if cell not in cell_rows]
    total = len(todo) * config.replicates * len(config.models)
    fit_seconds = []
    for cell in todo:
        rows = cell_rows[cell] = []
        for _, _, rep, model, _ in _fit_keys(config, *cell):
            rows.append(_fit_one(config, *cell, rep, model))
            fit_seconds.append(rows[-1][0].fit_seconds)
            if progress is not None:
                done = len(fit_seconds)
                eta = sum(fit_seconds) / done * (total - done)
                progress(f"fit {done}/{total}: "
                         f"{_cell_key(cell[0].value, cell[1])} "
                         f"rep {rep + 1}/{config.replicates} {model} "
                         f"({fit_seconds[-1]:.1f}s, "
                         f"ETA {timedelta(seconds=round(eta))})")
        _write_cell(*paths[cell], rows)

    all_rows = [row for cell in paths for row in cell_rows[cell]]
    records = [rec for rec, _ in all_rows]
    _write_text(out / "replicates.csv", _csv_text(
        _CSV_FIELDS, (_cells(rec, _CSV_FIELDS) for rec in records)))
    _write_text(out / "digests.csv", _csv_text(
        _KEY_FIELDS + ("dataset_digest",),
        (_cells(rec, _KEY_FIELDS) + [digest] for rec, digest in all_rows)))
    _write_reports(config, out, records)
    _write_timing(out, records)
    return records


def _write_reports(config, out: Path, records) -> None:
    """Summary, p-value, boxplot and scatter files derived from records."""
    cells = cell_values(records)
    table = summarize(cells)
    for cell in cells:
        stem = _cell_key(cell.dgp_id, cell.alpha)
        _write_text(out / f"summary_{stem}.csv",
                    _summary_csv_text(table, cell.dgp_id, cell.alpha))
        _write_text(out / f"summary_{stem}.md",
                    _summary_md_text(table, cell.dgp_id, cell.alpha))
        _write_text(out / f"boxplot_{stem}.csv", _boxplot_csv_text(cell))
        # a run and a checked report hold every model's fits in every cell
        for model_a, model_b in itertools.combinations(config.models, 2):
            pair = compare_models(cell, model_a, model_b)
            _write_text(out / f"pvalues_{stem}_{model_a}_vs_{model_b}.csv",
                        _pvalues_csv_text(pair))

    for selection in config.selections:
        _write_text(out / f"scatter_pi_vs_b_{selection.value}.csv",
                    _scatter_csv_text(config.master_seed, selection))


def _write_timing(out: Path, records) -> None:
    timing = {"rows": [
        {"dgp_id": r.dgp_id, "alpha": r.alpha, "model": r.model,
         "replicate_index": r.replicate_index, "seconds": r.fit_seconds}
        for r in records
    ], **timing_report(records)}
    _write_text(out / "timing.json", json.dumps(timing, sort_keys=True, indent=1))


@dataclass(frozen=True)
class CellValues:
    """One grid cell's metric values, column-wise.

    ``values[model]`` is a float matrix with one row per ``METRIC_FIELDS``
    metric, in that order, and one column per entry of ``replicates``, the
    ascending replicate indices that every model of the cell shares. Models
    keep the order in which the cell's records first name them.
    """

    dgp_id: str
    alpha: float
    replicates: tuple
    values: dict


_metric_values = operator.attrgetter(*METRIC_FIELDS)


def cell_values(records) -> list[CellValues]:
    """Each cell of the records, in order of first appearance, as its
    ``CellValues``. A cell whose models cover different replicate sets
    raises a ValueError: the tests between them pair replicates."""
    by_cell = {}
    for rec in records:
        by_cell.setdefault((rec.dgp_id, rec.alpha), {}).setdefault(
            rec.model, []).append(rec)
    cells = []
    for (dgp_id, alpha), by_model in by_cell.items():
        replicates, values = None, {}
        for model, recs in by_model.items():
            recs.sort(key=operator.attrgetter("replicate_index"))
            reps = tuple(rec.replicate_index for rec in recs)
            if replicates is not None and reps != replicates:
                raise ValueError(f"models cover different replicate sets in "
                                 f"cell {_cell_key(dgp_id, alpha)}")
            replicates = reps
            values[model] = np.array(
                [_metric_values(rec) for rec in recs]).T.copy()
        cells.append(CellValues(dgp_id, alpha, replicates, values))
    return cells


@dataclass
class SummaryTable:
    """Per-cell metric means (and sds) by model.

    ``cells`` maps (dgp_id, alpha) to {metric: {model: (mean, sd, count)}};
    ``sd`` is the ddof-1 sample standard deviation, or None for a single
    replicate.
    """

    models: tuple
    cells: dict = field(default_factory=dict)

    def cell(self, dgp_id: str, alpha: float, metric: str, model: str):
        return self.cells[(dgp_id, float(alpha))][metric][model]


def summarize(cells) -> SummaryTable:
    """Per-cell mean/sd tables of ``cell_values``, row by row."""
    if not cells:
        raise ValueError("no records to summarize")
    table = SummaryTable(
        models=tuple(dict.fromkeys(m for cell in cells for m in cell.values)))
    for cell in cells:
        count = len(cell.replicates)
        by_metric = {metric: {} for metric in METRIC_FIELDS}
        for model, matrix in cell.values.items():
            sds = (matrix.std(axis=1, ddof=1).tolist() if count > 1
                   else [None] * len(METRIC_FIELDS))
            for metric, mean, sd in zip(METRIC_FIELDS,
                                        matrix.mean(axis=1).tolist(), sds):
                by_metric[metric][model] = (mean, sd, count)
        table.cells[(cell.dgp_id, cell.alpha)] = by_metric
    return table


def _summary_csv_text(table: SummaryTable, dgp_id: str, alpha: float) -> str:
    cell = table.cells[(dgp_id, float(alpha))]
    models = [m for m in table.models if m in next(iter(cell.values()))]
    header = ["metric"]
    for m in models:
        header += [f"mean_{m}", f"sd_{m}"]
    rows = []
    for metric in METRIC_FIELDS:
        row = [metric]
        for m in models:
            mean, sd, _ = cell[metric][m]
            row += [repr(mean), "" if sd is None else repr(sd)]
        rows.append(row)
    return _csv_text(header, rows)


def _summary_md_text(table: SummaryTable, dgp_id: str, alpha: float) -> str:
    cell = table.cells[(dgp_id, float(alpha))]
    models = [m for m in table.models if m in next(iter(cell.values()))]
    lines = [
        f"# Summary: {dgp_id} selection, alpha={alpha:g}",
        "",
        "Mean over replicates, sample sd in parentheses.",
        "",
        "| metric | " + " | ".join(models) + " |",
        "|" + "---|" * (len(models) + 1),
    ]
    for metric in METRIC_FIELDS:
        entries = []
        for m in models:
            mean, sd, _ = cell[metric][m]
            entries.append(f"{mean:.4g}" if sd is None
                           else f"{mean:.4g} ({sd:.3g})")
        lines.append(f"| {metric} | " + " | ".join(entries) + " |")
    lines.append("")
    return "\n".join(lines)


def _boxplot_csv_text(cell: CellValues) -> str:
    """One line per (metric, replicate, model), in that nesting order,
    built a model's column at a time and joined a metric at a time. No cell
    holds anything csv would quote: names, an int and a float repr."""
    chunks = ["metric,model,replicate_index,value\n"]
    reps = list(map(str, cell.replicates))
    rows = {model: matrix.tolist() for model, matrix in cell.values.items()}
    for i, metric in enumerate(METRIC_FIELDS):
        columns = [[f"{metric},{model},{rep},{value!r}\n"
                    for rep, value in zip(reps, by_metric[i])]
                   for model, by_metric in rows.items()]
        chunks.append("".join(itertools.chain.from_iterable(zip(*columns))))
    return "".join(chunks)


def _scatter_csv_text(master_seed: int, selection: Selection) -> str:
    rng = np.random.default_rng(
        derive_seed(master_seed, "scatter", selection.value))
    X = rng.random((_SCATTER_POINTS, 5))
    b = baseline(X)
    pi = propensity(X, selection)
    return _csv_text(["b", "pi"], ([repr(float(b[i])), repr(float(pi[i]))]
                                   for i in range(_SCATTER_POINTS)))


@dataclass
class PValueTable:
    """Rank-test reports for every metric of one model pair in one cell."""

    dgp_id: str
    alpha: float
    model_a: str
    model_b: str
    reports: dict  # metric name -> TestReport


def compare_models(cell: CellValues, model_a: str,
                   model_b: str) -> PValueTable:
    """Dispersion-gated rank tests between two variants of one cell: one
    ``select_and_run`` over their metric matrices, which pair replicates
    column by column (the paired design)."""
    if model_a not in cell.values or model_b not in cell.values:
        raise ValueError(f"both models need records: {model_a}, {model_b}")
    reports = select_and_run(cell.values[model_a], cell.values[model_b],
                             METRIC_FIELDS)
    return PValueTable(dgp_id=cell.dgp_id, alpha=cell.alpha, model_a=model_a,
                       model_b=model_b,
                       reports=dict(zip(METRIC_FIELDS, reports)))


_PVALUE_COLUMNS = ("levene", "brown_forsythe", "fligner_policello",
                   "mann_whitney", "kruskal_wallis")


def _pvalues_csv_text(table: PValueTable) -> str:
    header = ["metric"]
    for name in _PVALUE_COLUMNS:
        header += [f"{name}_stat", f"{name}_p"]
    header.append("selected")
    rows = []
    for metric in METRIC_FIELDS:
        report: TestReport = table.reports[metric]
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


def timing_report(records) -> dict:
    """Mean fit seconds per model, in order of first appearance, and the
    propensity-estimation overhead when both variants have records.

    Overhead is mean(estimated_propensity) / mean(no_propensity) - 1,
    pooled and per cell; without both variants its two keys are absent.
    """
    no = PropensityMode.NO_PROPENSITY.value
    est = PropensityMode.ESTIMATED_PROPENSITY.value
    by_model, by_cell = {}, {}
    for rec in records:
        by_model.setdefault(rec.model, []).append(rec.fit_seconds)
        by_cell.setdefault((rec.dgp_id, rec.alpha), {}).setdefault(
            rec.model, []).append(rec.fit_seconds)
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
    """The valid configuration a run_config.json records, every
    ``ExperimentConfig`` field and no other key; anything else raises a
    ValueError naming the file."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValueError("expected a JSON object")
        fields = get_type_hints(ExperimentConfig).keys()
        unknown = sorted(raw.keys() - fields)
        if unknown:
            raise ValueError(f"unknown configuration keys {unknown}")
        missing = sorted(fields - raw.keys())
        if missing:
            raise ValueError(f"missing configuration keys {missing}")
        config = ExperimentConfig(**raw)
        config.validate()
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return config


def report_from(run_dir) -> list[ReplicateRecord]:
    """Regenerate every derived artifact from a run directory's raw records.

    Reads replicates.csv and run_config.json, refusing a configuration that
    is malformed or invalid, whose selections, alphas or models differ from
    the records', or whose fits (``_fit_keys``, which derive every seed
    from ``master_seed`` for replicates ``0..replicates-1``) the records do
    not hold once each, in any order. ``n`` is not recorded in
    replicates.csv, so it cannot be checked. Rewrites the summary, p-value,
    boxplot and scatter files (byte-identical to what the original run
    produced). Its inputs stay untouched, and so do digests.csv and
    timing.json, which need the datasets and the wall-clock data that the
    raw CSV does not carry. Returns the records.
    """
    run = Path(run_dir)
    config_path = run / "run_config.json"
    csv_path = run / "replicates.csv"
    if not csv_path.exists():
        raise FileNotFoundError(f"{csv_path} not found; is this a run directory?")
    if not config_path.exists():
        raise FileNotFoundError(f"{config_path} not found; cannot rebuild reports")
    config = _read_run_config(config_path)
    records = read_replicates_csv(csv_path)
    if not records:
        raise ValueError(f"{csv_path} holds no records")
    for name, attr, wanted in (
            ("selections", "dgp_id", {s.value for s in config.selections}),
            ("alphas", "alpha", set(config.alphas)),
            ("models", "model", set(config.models))):
        found = {getattr(rec, attr) for rec in records}
        if found != wanted:
            raise ValueError(
                f"{csv_path} holds {name} {sorted(found)} but {config_path} "
                f"lists {sorted(wanted)}")
    mismatch = _key_mismatch(
        sorted(map(_fit_key, records)),
        sorted(key for cell in itertools.product(config.selections,
                                                 config.alphas)
               for key in _fit_keys(config, *cell)))
    if mismatch:
        raise ValueError(
            f"{csv_path} does not hold each fit that {config_path} lists "
            f"(master_seed {config.master_seed}, replicates "
            f"{config.replicates}) once; in key order, fit {mismatch}")
    _write_reports(config, run, records)
    return records
