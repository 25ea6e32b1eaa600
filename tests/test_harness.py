"""Tests for the replication harness: seeding, config handling, the run
loop with its artifacts, resume, and the reporting helpers.

The end-to-end tests share one deliberately tiny grid (single cell, two
replicates, two model variants, short chains) fitted once per session; the
determinism test refits the same grid into a second directory and compares
bytes.
"""

import csv
import dataclasses
import io
import json
import os
import re
import shutil
import time
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bcfsim import harness
from bcfsim.bart import ChainConfig
from bcfsim.bcf import BcfFit, PropensityMode
from bcfsim.dgp import Dataset, DgpSpec, Selection, generate
from bcfsim.harness import (
    ExperimentConfig,
    apply_profile,
    cell_values,
    compare_models,
    dataset_digest,
    derive_seed,
    evaluate_fit,
    load_config_file,
    read_replicates_csv,
    report_from,
    run_experiment,
    summarize,
)
from bcfsim.metrics import METRIC_FIELDS, RECORD_FIELDS, ReplicateRecord

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# seed derivation and dataset digests

def test_derive_seed_is_stable():
    # frozen so a refactor cannot silently re-seed every published run
    assert derive_seed(1729, "extreme", 4.0, 0) == 13995125066937041108


def test_derive_seed_range_and_distinctness():
    seeds = {
        derive_seed(master, sel, float(alpha), rep)
        for master in (1, 2)
        for sel in ("extreme", "moderate", "slight")
        for alpha in (1.0, 2.0, 4.0)
        for rep in range(5)
    }
    assert len(seeds) == 2 * 3 * 3 * 5
    assert all(0 <= s < 2 ** 64 for s in seeds)


def test_derive_seed_stringifies_parts():
    # parts are hashed via str(), so 4 and "4" collide while 4 and 4.0 do
    # not; callers must normalize floats before passing them in
    assert derive_seed(4) == derive_seed("4")
    assert derive_seed(4) != derive_seed(4.0)


def test_dataset_digest_tracks_content():
    spec = DgpSpec(Selection.MODERATE, 2.0, n=40)
    a = generate(spec, seed=11)
    b = generate(spec, seed=11)
    c = generate(spec, seed=12)
    assert dataset_digest(a) == dataset_digest(b)
    assert dataset_digest(a) != dataset_digest(c)
    a.Y[0] += 1e-9
    assert dataset_digest(a) != dataset_digest(b)


# ---------------------------------------------------------------------------
# configuration

def test_experiment_config_normalizes_inputs():
    config = ExperimentConfig(
        selections=("extreme", Selection.MODERATE),
        alphas=(4, 1),
        models=("no_propensity", PropensityMode.TRUE_PROPENSITY),
    )
    assert config.selections == (Selection.EXTREME, Selection.MODERATE)
    assert config.alphas == (4.0, 1.0)
    assert all(isinstance(a, float) for a in config.alphas)
    assert config.models == ("no_propensity", "true_propensity")


def test_experiment_config_rejects_unknown_names():
    with pytest.raises(ValueError):
        ExperimentConfig(selections=("nonexistent",))
    with pytest.raises(ValueError):
        ExperimentConfig(models=("oracle",))


@pytest.mark.parametrize("kwargs", [
    dict(selections=()),
    dict(alphas=()),
    dict(models=()),
    dict(alphas=(4, 4.0)),          # duplicates after normalization
    dict(alphas=(-1.0,)),
    dict(alphas=(float("inf"),)),
    dict(alphas=(float("nan"),)),
    dict(alphas=(1.0, 1.0000001)),  # both cells would be named extreme_1
    dict(n=1),
    dict(replicates=0),
    dict(iterations=0),             # caught by the chain config check
    dict(burn_in=2000, iterations=2000),
])
def test_experiment_config_validation(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("name, value", [
    ("n", 30.0), ("n", True), ("replicates", 2.5),
    ("replicates", np.float64(2)), ("master_seed", 1.5), ("master_seed", False),
])
def test_experiment_config_refuses_non_integer_counts(name, value):
    # a float seed used to fit the whole grid and then leave a run that
    # report_from refuses; a float n or replicates count died in numpy
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got"):
        ExperimentConfig(**{name: value})


@pytest.mark.parametrize("kwargs, message", [
    (dict(alphas=(True,)), "alphas: alpha must be finite and positive, "
                           "got True"),
    (dict(alphas=("4",)), "alphas: alpha must be finite and positive, "
                          "got '4'"),
    (dict(alphas=None), "alphas must be a list or a tuple, got None"),
    (dict(selections="extreme"),
     "selections must be a list or a tuple, got 'extreme'"),
    (dict(selections=("extreme", "strong")),
     "selections: 'strong' is not a valid Selection"),
    (dict(models=("no_propensity", 1)),
     "models: 1 is not a valid PropensityMode"),
    (dict(models=["no_propensity", ["true_propensity"]]),
     "models: ['true_propensity'] is not a valid PropensityMode"),
], ids=["alpha_bool", "alpha_string", "alphas_none", "selections_string",
        "selection_unknown", "model_int", "model_list"])
def test_experiment_config_names_a_value_of_the_wrong_kind(kwargs, message):
    # True and "4" used to load as alphas 1.0 and 4.0, None raised a bare
    # TypeError, and an unknown name did not name its field
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(**kwargs)


def test_experiment_config_takes_numpy_integers_as_ints():
    config = ExperimentConfig(n=np.int64(30), replicates=np.int32(2),
                              master_seed=np.uint64(7),
                              iterations=np.int64(20), burn_in=np.int8(10))
    stated = config.to_json_dict()
    assert [stated[name] for name in ("n", "replicates", "master_seed",
                                      "iterations", "burn_in")] == [
        30, 2, 7, 20, 10]
    assert all(type(getattr(config, name)) is int
               for name in ("n", "replicates", "master_seed", "iterations",
                            "burn_in"))


def test_one_replicate_needs_a_single_model():
    with pytest.raises(ValueError, match="at least 2 to compare 2 models"):
        ExperimentConfig(models=("no_propensity", "true_propensity"),
                         replicates=1)
    ExperimentConfig(models=("no_propensity",), replicates=1)


def test_bcf_config_propagates_chain_controls():
    config = ExperimentConfig(iterations=300, burn_in=100)
    bcf = config.bcf_config()
    assert bcf.chain == ChainConfig(iterations=300, burn_in=100)
    # grid controls must not disturb the forest priors
    assert bcf.mu.num_trees == 200
    assert bcf.tau.num_trees == 50
    assert bcf.propensity.num_trees == 200


def test_apply_profile():
    base = ExperimentConfig()
    quick = apply_profile(base, "quick")
    assert quick.replicates == 20
    assert quick.iterations == 1000
    assert quick.burn_in == 500
    assert quick.n == base.n
    assert apply_profile(base, "full") == base
    with pytest.raises(ValueError, match="profile"):
        apply_profile(base, "fast")


def test_load_config_file(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(
        "# study grid\n"
        "selections = extreme, moderate\n"
        "alphas = 1, 4   # trailing comment\n"
        "models = no_propensity\n"
        "\n"
        "n = 80\n"
        "replicates = 3\n"
        "master_seed = 7\n"
        "iterations = 120\n"
        "burn_in = 60\n",
        encoding="utf-8",
    )
    config = load_config_file(path)
    assert config == ExperimentConfig(
        selections=(Selection.EXTREME, Selection.MODERATE),
        alphas=(1.0, 4.0),
        models=("no_propensity",),
        n=80,
        replicates=3,
        master_seed=7,
        iterations=120,
        burn_in=60,
    )


def test_load_config_file_defaults_when_sparse(tmp_path):
    path = tmp_path / "sparse.cfg"
    path.write_text("replicates = 5\n", encoding="utf-8")
    config = load_config_file(path)
    assert config.replicates == 5
    assert config.n == 250
    assert config.master_seed == 1729


@pytest.mark.parametrize("line, message", [
    ("wibble = 3", "unknown config key"),
    ("n 80", "expected 'key = value'"),
    ("n = eighty", "bad value"),
    ("n =", "bad value"),
    # a retired key is refused, not ignored
    ("output_dir = runs/demo", "unknown config key"),
    ("selections = extreme, strong", "bad value for selections"),
])
def test_load_config_file_errors(tmp_path, line, message):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_config_file(path)


def test_load_config_file_refuses_a_key_set_twice(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("n = 80\nreplicates = 3\n\nn = 90\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"twice.cfg:4: config key 'n' is "
                                         r"already set on line 1"):
        load_config_file(path)


# one valid non-default value per ExperimentConfig field
OTHER_CONFIG = dict(
    selections=(Selection.SLIGHT, Selection.EXTREME),
    alphas=(3.0, 0.5),
    models=("estimated_propensity", "no_propensity"),
    n=40,
    replicates=7,
    master_seed=11,
    iterations=3000,
    burn_in=100,
)


def test_config_walk_covers_every_field():
    names = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert len(names) == 8
    assert sorted(OTHER_CONFIG) == sorted(names)
    for name, value in OTHER_CONFIG.items():
        assert getattr(ExperimentConfig(), name) != value, name


@pytest.mark.parametrize("name", sorted(OTHER_CONFIG))
def test_every_config_field_round_trips(tmp_path, name):
    # no field may be dropped by run_config.json (and so by the resume
    # check) or by the config file
    value = OTHER_CONFIG[name]
    config = ExperimentConfig(**{name: value})
    path = tmp_path / "run_config.json"
    path.write_text(json.dumps(config.to_json_dict(), sort_keys=True,
                               indent=2), encoding="utf-8")
    assert harness._read_run_config(path) == config

    text = (", ".join(str(getattr(v, "value", v)) for v in value)
            if isinstance(value, tuple) else str(value))
    path = tmp_path / "study.cfg"
    path.write_text(f"{name} = {text}\n", encoding="utf-8")
    assert load_config_file(path) == config


def test_readme_lists_every_config_key_with_its_default(tmp_path):
    # the documented key list is a config file of the defaults
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    assert load_config_file(path) == ExperimentConfig()
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines()
            if line.split("#", 1)[0].strip()]
    assert keys == [f.name for f in dataclasses.fields(ExperimentConfig)]


def test_committed_acceptance_run_config_is_current():
    # the tracked grid_a4/run_config.json must read back as the acceptance
    # grid's configuration and be exactly what a run would write for it,
    # or a resume from the committed cells would refuse them or dirty git
    path = ROOT / ".acceptance_cache" / "grid_a4" / "run_config.json"
    config = apply_profile(ExperimentConfig(alphas=(4.0,)), "quick")
    assert harness._read_run_config(path) == config
    assert path.read_bytes() == json.dumps(
        config.to_json_dict(), sort_keys=True, indent=2).encode("utf-8")


# ---------------------------------------------------------------------------
# evaluate_fit: metric plumbing against hand-computed values

def test_evaluate_fit_hand_example():
    spec = DgpSpec(Selection.EXTREME, 4.0, n=4)
    X = np.linspace(0.1, 0.9, 20).reshape(4, 5)
    dataset = Dataset(
        spec=spec,
        X=X,
        pi_true=np.array([0.5, 0.7, 0.5, 0.5]),
        D=np.array([0.0, 1.0, 0.0, 1.0]),
        Y=np.zeros(4),
        noise=np.zeros(4),
        cate_true=np.array([2.0, 2.0, 2.0, 1.0]),
    )
    fit = BcfFit(
        mu_draws=np.zeros((2, 4)),
        tau_draws=np.array([[1.0, 1.0, 1.0, 1.0],
                            [3.0, 3.0, 3.0, 3.0]]),
        sigma_draws=np.ones(2),
        pi_used=np.full(4, 0.5),
        mode=PropensityMode.NO_PROPENSITY,
    )
    rec = evaluate_fit(fit, dataset, replicate_index=7, seed=123)

    assert rec.dgp_id == "extreme"
    assert rec.alpha == 4.0
    assert rec.model == "no_propensity"
    assert rec.replicate_index == 7
    assert rec.seed == 123

    # posterior mean CATE is 2 everywhere; truth is (2, 2, 2, 1)
    assert rec.rmse_cate == pytest.approx(0.5)
    assert rec.mae_cate == pytest.approx(0.25)
    assert rec.mape_cate == pytest.approx(0.25)
    # the equal-tailed interval from draws (1, 3) is [1.05, 2.95], which
    # misses the fourth unit's truth of 1
    assert rec.cover_cate == pytest.approx(0.75)
    assert rec.len_cate == pytest.approx(1.9)
    assert rec.se_cover_cate == pytest.approx((0.75 - 0.95) ** 2)
    assert rec.ae_cover_cate == pytest.approx(0.20)

    # ATE draws are the row means (1, 3): mean 2, truth 1.75
    assert rec.rmse_ate == pytest.approx(0.25)
    assert rec.mae_ate == pytest.approx(0.25)
    assert rec.mape_ate == pytest.approx(0.25 / 1.75)
    assert rec.cover_ate == 1.0
    assert rec.len_ate == pytest.approx(1.9)
    assert rec.se_cover_ate == pytest.approx(0.0025)
    assert rec.ae_cover_ate == pytest.approx(0.05)

    assert rec.rmse_pi == pytest.approx(0.1)
    assert rec.mae_pi == pytest.approx(0.05)


# ---------------------------------------------------------------------------
# cell_values / summarize / compare_models / _timing on synthetic data

def _record(**overrides):
    kwargs = dict(dgp_id="extreme", alpha=4.0, model="no_propensity",
                  replicate_index=0)
    kwargs.update({name: 0.5 for name in METRIC_FIELDS})
    kwargs.update(overrides)
    # the seed that ``_config``'s master seed derives for the replicate
    kwargs.setdefault("seed", derive_seed(
        ExperimentConfig.master_seed, kwargs["dgp_id"], kwargs["alpha"],
        kwargs["replicate_index"]))
    return ReplicateRecord(**kwargs)


def _table(records):
    """The records as the table that ``read_replicates_csv`` reads."""
    return harness.RecordTable(
        keys=[harness._fit_key(rec) for rec in records],
        metrics=np.array([[getattr(rec, name) for rec in records]
                          for name in METRIC_FIELDS]).reshape(
                              len(METRIC_FIELDS), len(records)),
        metric_text=[",".join(harness._cells(rec, METRIC_FIELDS))
                     for rec in records],
        extra=(), lines=array("q", range(2, len(records) + 2)))


def _config(**overrides):
    """A one-cell, one-model, one-replicate grid, ``overrides`` applied."""
    return ExperimentConfig(**{
        "selections": ("extreme",), "alphas": (4.0,),
        "models": ("no_propensity",), "replicates": 1, **overrides})


def test_summarize_hand_example():
    records = [
        _record(replicate_index=0, rmse_cate=0.1),
        _record(replicate_index=1, rmse_cate=0.2),
    ]
    cell, = cell_values(_config(replicates=2), _table(records))
    means, sds = summarize(cell)["no_propensity"]
    row = METRIC_FIELDS.index("rmse_cate")
    assert means[row] == pytest.approx(0.15)
    assert sds[row] == pytest.approx(0.07071067811865475)


def test_summarize_single_replicate_has_no_sd():
    cell, = cell_values(_config(), _table([_record()]))
    means, sds = summarize(cell)["no_propensity"]
    assert means[METRIC_FIELDS.index("len_ate")] == 0.5
    assert sds is None


def test_compare_models_identical_values_are_not_significant():
    records = []
    for rep in range(6):
        value = 0.1 + 0.01 * rep
        records.append(_record(replicate_index=rep, rmse_cate=value))
        records.append(_record(replicate_index=rep, rmse_cate=value,
                               model="true_propensity"))
    cell, = cell_values(_config(models=("no_propensity", "true_propensity"),
                                replicates=6), _table(records))
    reports = compare_models(cell)["no_propensity", "true_propensity"]
    assert len(reports) == len(METRIC_FIELDS)
    report = reports[METRIC_FIELDS.index("rmse_cate")]
    assert report.mann_whitney.p >= 0.99
    assert report.kruskal_wallis.p >= 0.99


def test_compare_models_detects_separation():
    records = []
    for rep in range(13):
        records.append(_record(replicate_index=rep, rmse_pi=0.4 + 0.001 * rep))
        records.append(_record(replicate_index=rep, rmse_pi=0.05 + 0.001 * rep,
                               model="estimated_propensity"))
    cell, = cell_values(_config(models=("no_propensity",
                                        "estimated_propensity"),
                                replicates=13), _table(records))
    reports = compare_models(cell)["no_propensity", "estimated_propensity"]
    report = reports[METRIC_FIELDS.index("rmse_pi")]
    chosen = getattr(report, report.selected[0].replace("_u", ""))
    assert chosen.p < 1e-4


def test_cell_values_split_records_by_cell():
    # cells, models and replicate columns follow the configuration, not
    # the order in which the records come
    config = _config(selections=("slight", "extreme"),
                     models=("true_propensity", "no_propensity"),
                     replicates=2)

    def value(dgp_id, model, rep):
        return (0.1 * rep + 0.01 * config.models.index(model)
                + 0.001 * (dgp_id == "slight"))

    records = [_record(dgp_id=dgp_id, model=model, replicate_index=rep,
                       rmse_cate=value(dgp_id, model, rep))
               for rep in (1, 0) for model in ("no_propensity",
                                               "true_propensity")
               for dgp_id in ("extreme", "slight")]
    slight, extreme = cell_values(config, _table(records))
    assert (slight.dgp_id, slight.alpha) == ("slight", 4.0)
    assert (extreme.dgp_id, extreme.alpha) == ("extreme", 4.0)
    row = METRIC_FIELDS.index("rmse_cate")
    for cell in (slight, extreme):
        assert list(cell.values) == ["true_propensity", "no_propensity"]
        for model, matrix in cell.values.items():
            assert matrix.shape == (len(METRIC_FIELDS), 2)
            assert matrix.flags.c_contiguous
            assert matrix[row].tolist() == [
                value(cell.dgp_id, model, rep) for rep in range(2)]


def _named(rep, model, dgp_id="extreme", seed=r"\d+"):
    """How a refusal names a fit of ``_config``'s alpha, as a pattern."""
    return f"cell {dgp_id}_4 replicate {rep} model {model} seed {seed}"


_NO, _TRUE = "no_propensity", "true_propensity"


# each fit is (model, replicate, *(field, value) overrides); the message
# names the first fit, in key order, that differs
@pytest.mark.parametrize("fits, message", [
    pytest.param([], f"1: found nothing, expected {_named(0, _NO)}",
                 id="empty"),
    pytest.param([(_NO, 0), (_NO, 1)],
                 f"2: found {_named(1, _NO)}, expected {_named(0, _TRUE)}",
                 id="missing_model"),
    pytest.param([(_NO, 0), (_NO, 0), (_TRUE, 0), (_TRUE, 1)],
                 f"2: found {_named(0, _NO)}, expected {_named(0, _TRUE)}",
                 id="duplicate"),
    pytest.param([(_NO, 0), (_NO, 1), (_TRUE, 0), (_TRUE, 2)],
                 f"4: found {_named(2, _TRUE)}, expected {_named(1, _TRUE)}",
                 id="other_replicate"),
    # the row count is right in each of the cases below
    pytest.param([(_NO, 0), (_TRUE, 0), (_NO, 1, ("seed", 7)), (_TRUE, 1)],
                 f"3: found {_named(1, _NO, seed=7)}, "
                 f"expected {_named(1, _NO)}", id="wrong_seed"),
    pytest.param([(_NO, 0), (_TRUE, 0), (_NO, 1),
                  (_TRUE, 1, ("dgp_id", "slight"))],
                 f"4: found {_named(1, _TRUE, 'slight')}, "
                 f"expected {_named(1, _TRUE)}", id="cell_off_the_grid"),
    pytest.param([(_TRUE, 1), (_TRUE, 0), (_NO, 1), (_TRUE, 1)],
                 f"1: found {_named(0, _TRUE)}, expected {_named(0, _NO)}",
                 id="duplicate_in_place_of_the_first"),
])
def test_cell_values_refuse_records_without_each_fit_once(fits, message):
    # a matrix never has a hole: every fit of the grid is there once
    config = _config(models=(_NO, _TRUE), replicates=2)
    with pytest.raises(ValueError) as refused:
        cell_values(config, _table([
            _record(model=model, replicate_index=rep, **dict(overrides))
            for model, rep, *overrides in fits]))
    assert re.fullmatch(
        f"{len(fits)} records do not hold each of the grid's 4 fits once "
        r"\(master_seed 1729, replicates 2\); in key order, fit " + message,
        str(refused.value))


@pytest.mark.parametrize("fits, message", [
    pytest.param([(_NO, 0), (_TRUE, 0), (_NO, 1), (_TRUE, 1)],
                 f"5: found nothing, expected {_named(2, _NO)}",
                 id="prefix_of_the_grid"),
    pytest.param([(_NO, 0), (_TRUE, 0), (_NO, 1, ("seed", 7))],
                 f"3: found {_named(1, _NO, seed=7)}, "
                 f"expected {_named(1, _NO)}", id="wrong_seed"),
])
def test_cell_values_refuse_a_replicate_claim_at_the_cost_of_the_rows(
        monkeypatch, fits, message):
    # the configuration claims 10**5 replicates, 2 * 10**5 fits, for a few
    # rows: the refusal reads the grid's fits only up to the first that
    # differs, a seed derivation per replicate, instead of all of them
    table = _table([_record(model=model, replicate_index=rep,
                            **dict(overrides))
                    for model, rep, *overrides in fits])
    calls = []
    derive = harness.derive_seed
    monkeypatch.setattr(harness, "derive_seed",
                        lambda *parts: calls.append(parts) or derive(*parts))
    with pytest.raises(ValueError) as refused:
        cell_values(_config(models=(_NO, _TRUE), replicates=10 ** 5), table)
    assert re.fullmatch(
        f"{len(fits)} records do not hold each of the grid's 200000 fits "
        r"once \(master_seed 1729, replicates 100000\); in key order, fit "
        + message, str(refused.value))
    assert 0 < len(calls) <= len(fits)


# metric values whose repr takes each of its forms: subnormals down to the
# smallest float, exponent notation from 1e16 up and below 1e-4, and
# values that need all 17 significant digits
_SPECIAL_VALUES = (5e-324, 2.2250738585072009e-308, 1e-310, 1e16,
                   1.2345678901234567e16, 1.7976931348623157e308, 9.99e-05,
                   1.2345678901234567e-05, 0.30000000000000004, 0.1, 0.0)
_VALUE = st.one_of(st.floats(min_value=0.0, allow_nan=False,
                             allow_infinity=False),
                   st.sampled_from(_SPECIAL_VALUES))
_COVERAGE = st.one_of(st.floats(min_value=0.0, max_value=1.0),
                      st.sampled_from([v for v in _SPECIAL_VALUES if v <= 1]))
_METRIC_ROW = st.tuples(*(_COVERAGE if name.startswith("cover_") else _VALUE
                          for name in METRIC_FIELDS))
_FITS = [(model, rep) for rep in range(2) for model in (_NO, _TRUE)]


@settings(deadline=None)
@given(rows=st.lists(_METRIC_ROW, min_size=len(_FITS), max_size=len(_FITS)),
       order=st.permutations(range(len(_FITS))))
@example(rows=[tuple(min(value, 1.0) if name.startswith("cover_") else value
                     for name, value in zip(
                         METRIC_FIELDS, _SPECIAL_VALUES[i:] + _SPECIAL_VALUES))
               for i in range(len(_FITS))],
         order=[3, 1, 2, 0])
def test_boxplot_spells_each_value_as_the_run_wrote_it(tmp_path_factory, rows,
                                                       order):
    # the boxplot echoes the replicates.csv cells, and the run writes each
    # value with repr, so a run's boxplot holds each value's repr whatever
    # the value and the row order
    records = [_record(model=model, replicate_index=rep,
                       **dict(zip(METRIC_FIELDS, values)))
               for (model, rep), values in zip(_FITS, rows)]
    path = tmp_path_factory.mktemp("run") / "replicates.csv"
    harness._write_text(path, harness._csv_text(
        RECORD_FIELDS,
        (harness._cells(records[i], RECORD_FIELDS) for i in order)))
    cell, = cell_values(_config(models=(_NO, _TRUE), replicates=2),
                        read_replicates_csv(path))
    by_fit = dict(zip(_FITS, records))
    lines = list(csv.reader(io.StringIO(harness._boxplot_csv_text(cell))))
    assert lines == [["metric", "model", "replicate_index", "value"]] + [
        [metric, model, str(rep), repr(getattr(by_fit[model, rep], metric))]
        for metric in METRIC_FIELDS for rep in range(2)
        for model in (_NO, _TRUE)]


def _timing_row(seconds, **overrides):
    """A (record, digest, seconds) fit row, as the run keeps it."""
    return _record(**overrides), "digest", seconds


def test_timing_report_hand_example():
    rows = [
        _timing_row(1.0),
        _timing_row(1.0, replicate_index=1),
        _timing_row(1.2, model="estimated_propensity"),
        _timing_row(1.22, model="estimated_propensity", replicate_index=1),
    ]
    timing = harness._timing(rows)
    assert timing["mean_seconds_by_model"]["no_propensity"] == 1.0
    assert timing["pooled_overhead_estimated_vs_no_propensity"] == (
        pytest.approx(0.21))
    assert timing["cell_overhead_estimated_vs_no_propensity"]["extreme_4"] == (
        pytest.approx(0.21))


def test_timing_report_needs_both_variants():
    # without both variants there is no overhead, only the mean fit times
    timing = harness._timing([_timing_row(2.0)])
    assert timing == {
        "rows": [{"dgp_id": "extreme", "alpha": 4.0, "model": "no_propensity",
                  "replicate_index": 0, "seconds": 2.0}],
        "mean_seconds_by_model": {"no_propensity": 2.0}}


# ---------------------------------------------------------------------------
# end-to-end mini grid

MINI_CONFIG = dict(
    selections=("extreme",),
    alphas=(4.0,),
    models=("no_propensity", "estimated_propensity"),
    n=50,
    replicates=2,
    master_seed=99,
    iterations=40,
    burn_in=20,
)


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini_run")
    config = ExperimentConfig(**MINI_CONFIG)
    # two replicates per model are below Fligner-Policello's normal
    # approximation, and the report says so
    with pytest.warns(UserWarning, match="fligner_policello"):
        records = run_experiment(config, out_dir=out)
    return config, out, records


def test_run_experiment_refuses_a_config_of_the_wrong_type(tmp_path):
    # it used to end in "'str' object has no attribute 'selections'"
    out = tmp_path / "run"
    with pytest.raises(ValueError,
                       match="^config must be an ExperimentConfig, got 'x'$"):
        run_experiment("x", out)
    assert not out.exists()


def test_fit_seconds_include_the_propensity_column(monkeypatch):
    # the harness times propensity_column and fit_bcf together, so a fit's
    # seconds include the probit stage that criterion 6 weighs
    column = harness.propensity_column

    def slow_column(*args, **kwargs):
        time.sleep(0.05)
        return column(*args, **kwargs)

    monkeypatch.setattr(harness, "propensity_column", slow_column)
    config = ExperimentConfig(**dict(MINI_CONFIG, iterations=4, burn_in=2))
    _, _, seconds = harness._fit_one(config, Selection.EXTREME, 4.0, 0,
                                     "no_propensity")
    assert seconds >= 0.05


def test_run_experiment_record_grid(mini_run):
    config, _, records = mini_run
    assert len(records) == 4
    combos = {(r.dgp_id, r.alpha, r.model, r.replicate_index) for r in records}
    assert combos == {
        ("extreme", 4.0, m, rep)
        for m in config.models for rep in range(2)
    }
    for rec in records:
        assert rec.seed == derive_seed(99, "extreme", 4.0, rec.replicate_index)
        assert np.isfinite(rec.rmse_cate)


def test_run_experiment_writes_all_artifacts(mini_run):
    _, out, _ = mini_run
    expected = [
        "run_config.json",
        "replicates.csv",
        "digests.csv",
        "summary_extreme_4.csv",
        "summary_extreme_4.md",
        "boxplot_extreme_4.csv",
        "pvalues_extreme_4_no_propensity_vs_estimated_propensity.csv",
        "scatter_pi_vs_b_extreme.csv",
        "timing.json",
    ]
    for name in expected:
        assert (out / name).exists(), name
    assert sorted(p.name for p in (out / "cells").iterdir()) == [
        "cell_extreme_4.csv"]


def test_replicates_csv_schema_and_roundtrip(mini_run):
    _, out, records = mini_run
    lines = (out / "replicates.csv").read_text().splitlines()
    # the column list is a published file contract; reordering the record
    # dataclass must show up here as a deliberate schema change
    assert RECORD_FIELDS == (
        "dgp_id", "alpha", "model", "replicate_index", "seed",
        "rmse_cate", "mae_cate", "mape_cate", "cover_cate", "len_cate",
        "rmse_ate", "mae_ate", "mape_ate", "cover_ate", "len_ate",
        "rmse_pi", "mae_pi",
        "se_cover_cate", "ae_cover_cate", "se_cover_ate", "ae_cover_ate",
    )
    assert lines[0] == ",".join(RECORD_FIELDS)
    assert len(lines) == 1 + len(records)
    assert read_replicates_csv(out / "replicates.csv").records() == records


def test_every_record_field_round_trips_through_a_cell(tmp_path):
    # distinct values that need every digit, so a dropped, swapped or
    # rounded column shows, the fit's seconds too
    values = dict(dgp_id="moderate", alpha=2.5, model="true_propensity",
                  replicate_index=12, seed=2 ** 64 - 1)
    metrics = [f for f in RECORD_FIELDS if f not in values]
    values.update({name: (i + 1) / 29 for i, name in enumerate(metrics)})
    assert sorted(values) == sorted(RECORD_FIELDS)
    rec = ReplicateRecord(**values)
    path = tmp_path / "cell.csv"
    harness._write_cell(path, [(rec, "0123abcd", 30 / 7)])
    assert harness._read_cell(path) == [(rec, "0123abcd", 30 / 7)]


def test_read_replicates_csv_rejects_other_schemas(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="columns"):
        read_replicates_csv(path)


def _set(field, value):
    """An edit of one row's cells that sets ``field``."""
    def edit(cells):
        cells[RECORD_FIELDS.index(field)] = value
        return cells
    return edit


@pytest.mark.parametrize("edits, message", [
    pytest.param({2: _set("rmse_cate", "nan")},
                 "rmse_cate must be finite and nonnegative, got nan",
                 id="nan"),
    pytest.param({2: _set("len_ate", "-0.25")},
                 "len_ate must be finite and nonnegative, got -0.25",
                 id="negative"),
    pytest.param({2: _set("cover_ate", "1.5")},
                 "cover_ate must be in [0, 1], got 1.5", id="coverage"),
    pytest.param({2: _set("mae_pi", "0.1x")},
                 "could not convert string to float: '0.1x'",
                 id="not_a_float"),
    pytest.param({2: _set("replicate_index", "one")},
                 "invalid literal for int() with base 10: 'one'",
                 id="not_an_int"),
    pytest.param({2: lambda cells: cells[:-1]}, "20 cells, expected 21",
                 id="short_row"),
    pytest.param({2: _set("cover_cate", "-0.5"), 3: _set("rmse_pi", "x")},
                 "cover_cate must be in [0, 1], got -0.5",
                 id="range_before_parse"),
])
def test_report_from_names_the_first_bad_row(mini_run, tmp_path, edits,
                                             message):
    # a blank line before the bad row: the reported line counts the
    # file's lines, so the third record, on line 5, is named
    _, out, _ = mini_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    path = copy / "replicates.csv"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    for index, edit in edits.items():
        rows[index] = ",".join(edit(rows[index].split(",")))
    rows.insert(2, "")
    path.write_text("\n".join([header, *rows, ""]), encoding="utf-8")
    with pytest.raises(ValueError) as refused:
        report_from(copy)
    assert str(refused.value) == f"{path}:5: {message}"


def test_paired_design_shares_datasets_across_models(mini_run):
    _, out, _ = mini_run
    import csv as csvmod
    with open(out / "digests.csv", newline="") as fh:
        rows = list(csvmod.DictReader(fh))
    assert len(rows) == 4
    by_rep = {}
    for row in rows:
        by_rep.setdefault(row["replicate_index"], set()).add(
            row["dataset_digest"])
    # both model variants hash the same draw within a replicate...
    assert all(len(digests) == 1 for digests in by_rep.values())
    # ...and distinct replicates get distinct draws
    assert by_rep["0"] != by_rep["1"]


def test_run_summary_matches_records(mini_run):
    config, out, records = mini_run
    cell, = cell_values(config, _table(records))
    want = np.mean([r.rmse_pi for r in records
                    if r.model == "estimated_propensity"])
    means, _ = summarize(cell)["estimated_propensity"]
    mean = means[METRIC_FIELDS.index("rmse_pi")]
    assert mean == pytest.approx(want)
    assert cell.values["estimated_propensity"].shape[1] == 2
    text = (out / "summary_extreme_4.csv").read_text()
    assert repr(float(mean)) in text


def test_summary_recomputable_from_csv_with_plain_tools(mini_run):
    # re-derive the aggregates with csv + statistics only, so the emitted
    # summary is checkable without importing this package
    _, out, _ = mini_run
    import csv as csvmod
    import statistics
    with open(out / "replicates.csv", newline="") as fh:
        rows = list(csvmod.DictReader(fh))
    with open(out / "summary_extreme_4.csv", newline="") as fh:
        summary = {r["metric"]: r for r in csvmod.DictReader(fh)}
    assert set(summary) == set(METRIC_FIELDS)
    for metric in METRIC_FIELDS:
        for model in ("no_propensity", "estimated_propensity"):
            vals = [float(r[metric]) for r in rows if r["model"] == model]
            got_mean = float(summary[metric][f"mean_{model}"])
            got_sd = float(summary[metric][f"sd_{model}"])
            assert got_mean == pytest.approx(statistics.fmean(vals),
                                             rel=1e-12, abs=1e-15)
            assert got_sd == pytest.approx(statistics.stdev(vals),
                                           rel=1e-12, abs=1e-15)


def test_timing_json_reports_probit_overhead(mini_run):
    _, out, _ = mini_run
    timing = json.loads((out / "timing.json").read_text())
    assert len(timing["rows"]) == 4
    assert all(row["seconds"] > 0 for row in timing["rows"])
    means = timing["mean_seconds_by_model"]
    assert means["no_propensity"] > 0
    assert means["estimated_propensity"] > 0
    overhead = timing["pooled_overhead_estimated_vs_no_propensity"]
    assert overhead == pytest.approx(
        means["estimated_propensity"] / means["no_propensity"] - 1.0)


def test_scatter_file_tracks_selection_strength(mini_run):
    _, out, _ = mini_run
    data = np.genfromtxt(out / "scatter_pi_vs_b_extreme.csv",
                         delimiter=",", names=True)
    assert data.shape == (2000,)
    assert np.all((data["pi"] > 0) & (data["pi"] < 1))
    # under extreme selection the treatment probability is driven by the
    # prognostic level, so the scatter should be strongly monotone
    assert np.corrcoef(data["b"], data["pi"])[0, 1] > 0.8


def test_run_experiment_is_byte_deterministic(mini_run, tmp_path):
    config, out, _ = mini_run
    rerun = tmp_path / "rerun"
    with pytest.warns(UserWarning, match="fligner_policello"):
        run_experiment(ExperimentConfig(**MINI_CONFIG), out_dir=rerun)
    for name in ("run_config.json", "replicates.csv", "digests.csv",
                 "summary_extreme_4.csv", "summary_extreme_4.md",
                 "boxplot_extreme_4.csv", "scatter_pi_vs_b_extreme.csv",
                 "pvalues_extreme_4_no_propensity_vs_estimated_propensity.csv"):
        assert (rerun / name).read_bytes() == (out / name).read_bytes(), name


def test_fit_keys_list_a_cells_fits_in_run_order(mini_run):
    config, _, records = mini_run
    keys = harness._fit_keys(config, Selection.EXTREME, 4.0)
    assert keys == [
        ("extreme", 4.0, rep, model, derive_seed(99, "extreme", 4.0, rep))
        for rep in range(2) for model in config.models]
    # the run maps one fit over exactly these keys, in this order
    assert [harness._fit_key(rec) for rec in records] == keys


def test_a_sub_grid_reproduces_the_full_runs_fits(mini_run, tmp_path):
    # a one-model run regenerates each replicate's draw on its own and must
    # give the full run's rows of that model byte for byte
    config, out, _ = mini_run
    model = "estimated_propensity"
    run_experiment(dataclasses.replace(config, models=(model,)),
                   out_dir=tmp_path)
    for name in ("replicates.csv", "digests.csv"):
        header, *rows = (out / name).read_text().splitlines(keepends=True)
        matching = [row for row in rows if f",{model}," in row]
        assert len(matching) == 2
        assert (tmp_path / name).read_bytes() == "".join(
            [header] + matching).encode(), name


def test_progress_counts_only_the_fits_this_call_runs(mini_run, tmp_path):
    # a two-cell run whose extreme_4 cell is the mini run's checkpoint: the
    # resume fits extreme_2 alone, and its fits are the only ones counted
    config, out, _ = mini_run
    both = dataclasses.replace(config, alphas=(2.0, 4.0))
    run = tmp_path / "run"
    shutil.copytree(out / "cells", run / "cells")
    (run / "run_config.json").write_text(json.dumps(both.to_json_dict()))
    lines = []
    with pytest.warns(UserWarning, match="fligner_policello"):
        run_experiment(both, out_dir=run, resume=True,
                       progress=lines.append)

    with open(run / "cells" / "cell_extreme_2.csv", newline="") as fh:
        seconds = [float(row["seconds"]) for row in csv.DictReader(fh)]
    fits = [(rep, model) for rep in range(2) for model in config.models]
    wanted = []
    for i, (rep, model) in enumerate(fits, 1):
        eta = round(sum(seconds[:i]) / i * (4 - i))
        wanted.append(f"fit {i}/4: extreme_2 rep {rep + 1}/2 {model} "
                      f"({seconds[i - 1]:.1f}s, ETA "
                      f"{eta // 3600}:{eta // 60 % 60:02d}:{eta % 60:02d})")
    assert lines == wanted
    assert lines[-1].endswith(", ETA 0:00:00)")

    # a resume that loads every cell runs, counts and prints no fit
    lines.clear()
    with pytest.warns(UserWarning, match="fligner_policello"):
        run_experiment(both, out_dir=run, resume=True,
                       progress=lines.append)
    assert lines == []


def _without_seconds(run):
    """Every file of a run but timing.json, the cell checkpoints without
    their last column, the fits' seconds."""
    files = {}
    for p in sorted(run.rglob("*")):
        if p.is_file() and p.name != "timing.json":
            files[p.relative_to(run)] = (
                [line.rsplit(",", 1)[0] for line in p.read_text().splitlines()]
                if p.parent.name == "cells" else p.read_bytes())
    return files


def test_resume_refits_a_cell_whose_checkpoint_write_crashed(mini_run,
                                                            tmp_path):
    # a crash inside a cell's one checkpoint write leaves a partial temp
    # file and no checkpoint: the resume refits that cell alone, and every
    # file but the wall-clock seconds equals the uninterrupted run's
    config, _, _ = mini_run
    two = dataclasses.replace(config, alphas=(2.0, 4.0),
                              models=("no_propensity",))
    whole, crashed = tmp_path / "whole", tmp_path / "crashed"
    run_experiment(two, out_dir=whole)
    shutil.copytree(whole, crashed)
    cell = crashed / "cells" / "cell_extreme_2.csv"
    text = cell.read_text()
    cell.with_name(cell.name + ".tmp").write_text(text[:len(text) // 2])
    cell.unlink()
    lines = []
    run_experiment(two, out_dir=crashed, resume=True, progress=lines.append)
    assert [line.split(" (")[0] for line in lines] == [
        "fit 1/2: extreme_2 rep 1/2 no_propensity",
        "fit 2/2: extreme_2 rep 2/2 no_propensity"]
    assert _without_seconds(crashed) == _without_seconds(whole)
    assert sorted(p.name for p in (crashed / "cells").iterdir()) == [
        "cell_extreme_2.csv", "cell_extreme_4.csv"]


def test_resume_refuses_a_checkpoint_with_a_timing_file(mini_run, tmp_path):
    # a cell checkpointed as a CSV without seconds beside a JSON of its fit
    # times is refused by its CSV's columns, and nothing is written
    config, out, _ = mini_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    cell = copy / "cells" / "cell_extreme_4.csv"
    with open(cell, newline="") as fh:
        rows = list(csv.DictReader(fh))
    cell.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                            for line in cell.read_text().splitlines()))
    (copy / "cells" / "cell_extreme_4_timing.json").write_text(json.dumps(
        {f"{row['replicate_index']}:{row['model']}": float(row["seconds"])
         for row in rows}, sort_keys=True, indent=1))
    before = _aged_file_states(copy)
    with pytest.raises(ValueError,
                       match=r"cell_extreme_4\.csv: unexpected columns"):
        run_experiment(config, out_dir=copy, resume=True)
    assert _file_states(copy) == before


def test_resume_refuses_a_checkpoint_out_of_run_order(mini_run, tmp_path):
    config, out, _ = mini_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    path = copy / "cells" / "cell_extreme_4.csv"
    header, first, second, *rest = path.read_text().splitlines(keepends=True)
    path.write_text("".join([header, second, first] + rest))
    before = _aged_file_states(copy)
    with pytest.raises(RuntimeError,
                       match=r"cell_extreme_4\.csv: row 1: found cell "
                             r"extreme_4 replicate 0 model "
                             r"estimated_propensity seed \d+, expected cell "
                             r"extreme_4 replicate 0 model no_propensity"):
        run_experiment(config, out_dir=copy, resume=True)
    assert _file_states(copy) == before


def _file_states(run: Path) -> dict:
    """Each file's bytes, inode and mtime, by its path under ``run``. A
    refused resume leaves them all as they were."""
    return {path.relative_to(run): (path.read_bytes(), path.stat().st_ino,
                                    path.stat().st_mtime_ns)
            for path in sorted(run.rglob("*")) if path.is_file()}


def _aged_file_states(run: Path) -> dict:
    """``_file_states`` after setting every mtime to one old instant, so
    that a file written in place within the clock's resolution shows."""
    for path in run.rglob("*"):
        if path.is_file():
            os.utime(path, ns=(1_000_000_000, 1_000_000_000))
    return _file_states(run)


def test_resume_reuses_checkpointed_cells(mini_run):
    config, out, records = mini_run
    # a resume of a finished run loads the cached cell, keeps the recorded
    # wall-clock times and writes no file: every file keeps its bytes,
    # inode and mtime
    before = _aged_file_states(out)
    with pytest.warns(UserWarning, match="fligner_policello"):
        resumed = run_experiment(config, out_dir=out, resume=True)
    assert resumed == records
    assert _file_states(out) == before


def test_fresh_run_refuses_dirty_directory(mini_run):
    config, out, _ = mini_run
    with pytest.raises(RuntimeError, match="resume"):
        run_experiment(config, out_dir=out)


def test_resume_rejects_mismatched_configuration(mini_run):
    _, out, _ = mini_run
    grown = ExperimentConfig(**{**MINI_CONFIG, "replicates": 3})
    before = _aged_file_states(out)
    with pytest.raises(RuntimeError, match="expected"):
        run_experiment(grown, out_dir=out, resume=True)
    assert _file_states(out) == before


def test_resume_refuses_cells_of_another_configuration(tmp_path):
    # cells fit under one seed and chain length must not be reused under
    # another, and the refused resume must leave every file alone
    small = dict(selections=("slight",), alphas=(1.0,),
                 models=("no_propensity",), n=20, replicates=1, burn_in=3)
    first = ExperimentConfig(**small, master_seed=1729, iterations=6)
    run_experiment(first, out_dir=tmp_path)
    before = _aged_file_states(tmp_path)
    other = ExperimentConfig(**small, master_seed=7, iterations=40)
    with pytest.raises(RuntimeError,
                       match=r"iterations: found 6, expected 40; "
                             r"master_seed: found 1729, expected 7"):
        run_experiment(other, out_dir=tmp_path, resume=True)
    assert _file_states(tmp_path) == before


def _break_header(cells):
    path = cells / "cell_extreme_4.csv"
    path.write_text(path.read_text().replace("rmse_cate", "rmse_cat", 1))
    return r"cell_extreme_4\.csv: unexpected columns"


def _break_value(cells):
    path = cells / "cell_extreme_4.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = lines[3].replace("no_propensity,1,", "no_propensity,one,")
    path.write_text("".join(lines))
    return r"cell_extreme_4\.csv:4: invalid literal for int"


def _break_timing(cells):
    path = cells / "cell_extreme_4.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = lines[3].rsplit(",", 1)[0] + ",soon\n"
    path.write_text("".join(lines))
    return (r"cell_extreme_4\.csv: unreadable fit seconds \(could not "
            r"convert string to float: 'soon'\)")


def _break_field(cells):
    # csv refuses a field past its size limit of 131,072 characters
    path = cells / "cell_extreme_4.csv"
    lines = path.read_text().splitlines(keepends=True)
    row, _, seconds = lines[2].rsplit(",", 2)
    lines[2] = f"{row},{'0' * 131_073},{seconds}"
    path.write_text("".join(lines))
    return (r"cell_extreme_4\.csv:3: field larger than field limit "
            r"\(131072\)")


def _break_zero_mean(cells):
    # seconds that are each finite and nonnegative, but whose no-propensity
    # mean of 0 leaves timing.json's overhead without a value
    path = cells / "cell_extreme_4.csv"
    path.write_text("".join(
        line.rsplit(",", 1)[0] + ",0.0\n" if ",no_propensity," in line
        else line for line in path.read_text().splitlines(keepends=True)))
    return (f"^{re.escape(str(cells))}: fit seconds give a mean or overhead "
            "that is not finite")


@pytest.mark.parametrize("corrupt", [_break_header, _break_value,
                                     _break_timing, _break_field,
                                     _break_zero_mean])
def test_resume_names_a_malformed_cell(mini_run, tmp_path, corrupt):
    config, out, _ = mini_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    message = corrupt(copy / "cells")
    before = _aged_file_states(copy)
    with pytest.raises(ValueError, match=message):
        run_experiment(config, out_dir=copy, resume=True)
    assert _file_states(copy) == before


@pytest.mark.parametrize("cell, value", [
    ("nan", "nan"), ("inf", "inf"), ("-5", "-5.0")])
def test_resume_refuses_fit_seconds_timing_json_cannot_hold(
        mini_run, tmp_path, cell, value):
    # these used to reach timing.json as NaN, which is not JSON, or as a
    # negative mean; the blank line shows that the file's line is named
    config, out, _ = mini_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    path = copy / "cells" / "cell_extreme_4.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = lines[2].rsplit(",", 1)[0] + f",{cell}\n"
    path.write_text("".join(lines[:2] + ["\n"] + lines[2:]))
    before = _aged_file_states(copy)
    with pytest.raises(ValueError, match=(
            r"cell_extreme_4\.csv:4: fit seconds must be finite and "
            rf"nonnegative, got {value}$")):
        run_experiment(config, out_dir=copy, resume=True)
    assert _file_states(copy) == before


def test_report_from_regenerates_derived_artifacts(mini_run):
    _, out, records = mini_run
    derived = [
        "summary_extreme_4.csv", "summary_extreme_4.md",
        "boxplot_extreme_4.csv",
        "pvalues_extreme_4_no_propensity_vs_estimated_propensity.csv",
    ]
    originals = {name: (out / name).read_bytes() for name in derived}
    timing_before = (out / "timing.json").read_bytes()
    # the scatter file depends on the master seed alone: the run wrote it
    # and a report leaves it be
    scatter = out / "scatter_pi_vs_b_extreme.csv"
    scatter_before = (scatter.read_bytes(), scatter.stat().st_ino)
    for name in derived:
        (out / name).unlink()

    with pytest.warns(UserWarning, match="fligner_policello"):
        assert report_from(out).records() == records
    for name in derived:
        assert (out / name).read_bytes() == originals[name], name
    # no wall-clock data in the CSV, so timing must be left alone
    assert (out / "timing.json").read_bytes() == timing_before
    assert (scatter.read_bytes(), scatter.stat().st_ino) == scatter_before


def test_report_from_reads_replicates_in_replicate_order(mini_run,
                                                         tmp_path):
    # the reports follow run_config.json's grid, not the row order, so
    # they equal the run's for the last replicate's rows first and for
    # every row reversed, which also names the models in the other order
    _, out, _ = mini_run
    header, *rows = (out / "replicates.csv").read_text(
        encoding="utf-8").splitlines(keepends=True)
    by_replicate = sorted(rows, key=lambda row: -int(row.split(",")[3]))
    assert by_replicate[0].split(",")[2:4] == ["no_propensity", "1"]
    for name, reordered in (("by_replicate", by_replicate),
                            ("reversed", rows[::-1])):
        copy = tmp_path / name
        copy.mkdir()
        shutil.copy(out / "run_config.json", copy / "run_config.json")
        (copy / "replicates.csv").write_text(header + "".join(reordered),
                                             encoding="utf-8")
        with pytest.warns(UserWarning, match="fligner_policello"):
            report_from(copy)
        for path in copy.iterdir():
            if path.name.startswith(("summary_", "pvalues_", "boxplot_")):
                assert path.read_bytes() == (out / path.name).read_bytes(), (
                    name, path.name)


def test_report_from_echoes_a_hand_spelled_cell_in_the_boxplot(mini_run,
                                                                tmp_path):
    # a boxplot's value is the replicates.csv cell as written, so a cell
    # spelled 0.10 or 1E-5 appears so there; the summaries and p-values
    # come from the parsed floats and equal those of the canonical spelling
    _, out, _ = mini_run
    header, *rows = (out / "replicates.csv").read_text(
        encoding="utf-8").splitlines(keepends=True)
    edits = {(0, "rmse_cate"): ("0.1", "0.10"),
             (3, "len_ate"): ("1e-05", "1E-5")}
    built = {}
    for name, spelling in (("canonical", 0), ("hand", 1)):
        copy = built[name] = tmp_path / name
        copy.mkdir()
        shutil.copy(out / "run_config.json", copy / "run_config.json")
        cells = [row.rstrip("\n").split(",") for row in rows]
        for (row, field), spellings in edits.items():
            cells[row][RECORD_FIELDS.index(field)] = spellings[spelling]
        (copy / "replicates.csv").write_text(
            header + "".join(",".join(row) + "\n" for row in cells),
            encoding="utf-8")
        with pytest.warns(UserWarning, match="fligner_policello"):
            report_from(copy)
    reports = sorted(path.name for path in built["hand"].iterdir()
                     if path.name.startswith(("summary_", "pvalues_")))
    assert len(reports) == 3
    for name in reports:
        assert (built["hand"] / name).read_bytes() == (
            built["canonical"] / name).read_bytes(), name
    boxplot = "boxplot_extreme_4.csv"
    want = (built["canonical"] / boxplot).read_text(encoding="utf-8")
    for (row, field), (canonical, hand) in edits.items():
        fit = rows[row].split(",")
        line = f"{field},{fit[2]},{fit[3]},"
        assert want.count(f"\n{line}{canonical}\n") == 1
        want = want.replace(f"\n{line}{canonical}\n", f"\n{line}{hand}\n")
    assert (built["hand"] / boxplot).read_text(encoding="utf-8") == want


def test_report_from_leaves_its_inputs_untouched(mini_run):
    # a rebuild of an intact run directory reads replicates.csv and
    # run_config.json and writes no file: the reports it rebuilds already
    # hold their bytes, so every file keeps its bytes, inode and mtime
    _, out, _ = mini_run
    before = _aged_file_states(out)
    with pytest.warns(UserWarning, match="fligner_policello"):
        report_from(out)
    assert _file_states(out) == before


def test_report_from_names_a_metric_whose_sd_overflows(mini_run, tmp_path):
    # 1e308 is in range for one record, but the cell's sd of it is not:
    # the report names the file, the cell, the metric and the model, warns
    # of no overflow and writes no file
    _, out, _ = mini_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    path = run / "replicates.csv"
    header, first, *rest = path.read_text(encoding="utf-8").splitlines()
    cells = first.split(",")
    cells[RECORD_FIELDS.index("rmse_cate")] = "1e308"
    path.write_text("\n".join([header, ",".join(cells), *rest, ""]),
                    encoding="utf-8")
    before = _aged_file_states(run)
    with pytest.raises(ValueError) as refused:
        report_from(run)
    model = cells[RECORD_FIELDS.index("model")]
    assert str(refused.value) == (
        f"{path}, cell extreme_4: rmse_cate of {model}: its mean or sd over "
        "the replicates overflows float64")
    assert _file_states(run) == before


def test_summarize_names_a_metric_whose_mean_overflows():
    records = [_record(replicate_index=i, mae_ate=1e308) for i in range(2)]
    cell, = cell_values(_config(replicates=2), _table(records))
    with pytest.raises(ValueError, match="^mae_ate of no_propensity: its "
                       "mean or sd over the replicates overflows float64$"):
        summarize(cell)


@pytest.mark.parametrize("damage", [
    pytest.param(lambda data: data[:len(data) // 2], id="truncated"),
    pytest.param(lambda data: data.replace(b",", b";", 1), id="edited"),
    pytest.param(lambda data: b"", id="emptied"),
])
def test_report_from_restores_a_damaged_report_file(mini_run, tmp_path,
                                                    damage):
    # a report file changed in place is written anew, whole, through a
    # temp file renamed over it; a temp file an interrupted write left
    # beside an intact file is removed, and every other file stays as it is
    _, out, _ = mini_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    damaged = Path("boxplot_extreme_4.csv")
    want = (run / damaged).read_bytes()
    (run / damaged).write_bytes(damage(want))
    before = _aged_file_states(run)
    leftover = run / "summary_extreme_4.md.tmp"
    leftover.write_bytes(b"# Summ")
    with pytest.warns(UserWarning, match="fligner_policello"):
        report_from(run)
    after = _file_states(run)
    data, inode, _ = after.pop(damaged)
    assert data == want
    assert inode != before.pop(damaged)[1]
    assert not leftover.exists()
    assert after == before



def test_write_text_removes_its_temp_file_when_the_rename_fails(tmp_path):
    # a path that names a directory cannot be replaced by a file: the error
    # reaches the caller, and neither the temp file nor the bytes stay
    target = tmp_path / "adir"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        harness._write_text(target, "x")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]
    assert list(target.iterdir()) == []


def test_write_text_removes_its_temp_file_when_interrupted(tmp_path,
                                                          monkeypatch):
    # a Ctrl-C between the write and the rename leaves the old file whole
    target = tmp_path / "kept.csv"
    target.write_text("old\n")

    def interrupted(self, other):
        raise KeyboardInterrupt

    monkeypatch.setattr(Path, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        harness._write_text(target, "new\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]
    assert target.read_text() == "old\n"

def test_report_from_refuses_unknown_config_keys(mini_run, tmp_path):
    _, out, _ = mini_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    path = copy / "run_config.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "jobs": 2}))
    with pytest.raises(ValueError, match=r"run_config\.json: unknown "
                                         r"configuration keys \['jobs'\]"):
        report_from(copy)


_MINI_JSON = ExperimentConfig(**MINI_CONFIG).to_json_dict()


@pytest.mark.parametrize("text, message", [
    ("[]", r"run_config\.json: expected a JSON object"),
    ('{"n": 50}', r"run_config\.json: missing configuration keys"),
] + [
    pytest.param(json.dumps({**_MINI_JSON, key: value}),
                 r"run_config\.json: " + message, id=key + "_" + name)
    for key, value, name, message in [
        ("replicates", 2.0, "float",
         r"replicates must be an integer, got 2\.0"),
        ("n", "50", "string", r"n must be an integer, got '50'"),
        ("burn_in", True, "bool", r"burn_in must be an integer, got True"),
        ("alphas", 4.0, "scalar", r"alphas must be a list or a tuple, got 4\.0"),
        ("models", ["no_propensity", 1], "item",
         r"models: 1 is not a valid PropensityMode$"),
    ]
])
def test_report_from_names_a_malformed_config(mini_run, tmp_path, text,
                                              message):
    _, out, _ = mini_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    (copy / "run_config.json").write_text(text)
    with pytest.raises(ValueError, match=message):
        report_from(copy)


def test_run_config_takes_an_integer_for_a_float(tmp_path):
    path = tmp_path / "run_config.json"
    path.write_text(json.dumps({**ExperimentConfig().to_json_dict(),
                                "alphas": [1, 2, 4]}))
    assert harness._read_run_config(path) == ExperimentConfig()


# a strategy for JSON values of each type
_JSON_VALUES = {
    "null": st.none(), "bool": st.booleans(), "int": st.integers(),
    "float": st.floats(), "string": st.text(max_size=8),
    "list": st.lists(st.integers() | st.text(max_size=4), max_size=3),
    "object": st.dictionaries(st.text(max_size=4), st.integers(),
                              max_size=3),
}
# each run_config.json key's JSON type and, for a list, its items' types
_KEY_TYPES = {
    "selections": ("list", {"string"}), "alphas": ("list", {"int", "float"}),
    "models": ("list", {"string"}), "n": ("int", None),
    "replicates": ("int", None), "master_seed": ("int", None),
    "iterations": ("int", None), "burn_in": ("int", None),
}


def _other_json_type(key):
    """A value of another JSON type than ``key`` takes, or a list holding
    one item of another type than its items take."""
    own, items = _KEY_TYPES[key]
    wrong = [_JSON_VALUES[kind] for kind in sorted(_JSON_VALUES)
             if kind != own]
    wrong += [_JSON_VALUES[kind].map(lambda value: [value])
              for kind in sorted(_JSON_VALUES)
              if items is not None and kind not in items]
    return st.one_of(wrong)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_run_config_refuses_a_value_of_another_json_type(tmp_path_factory,
                                                         data):
    key = data.draw(st.sampled_from(sorted(_KEY_TYPES)))
    value = data.draw(_other_json_type(key), label=key)
    path = tmp_path_factory.mktemp("config") / "run_config.json"
    path.write_text(json.dumps({**ExperimentConfig().to_json_dict(),
                                key: value}))
    with pytest.raises(ValueError) as caught:
        harness._read_run_config(path)
    assert str(caught.value).startswith(f"{path}: ")
    assert key in str(caught.value)


@pytest.mark.parametrize("key, value, message", [
    ("models", [], r"run_config\.json: models must be nonempty"),
    pytest.param("alphas", [2.0],
                 r"replicates\.csv does not match .*run_config\.json: 4 "
                 r"records do not hold each of the grid's 4 fits once "
                 r"\(master_seed 99, replicates 2\); in key order, fit 1: "
                 r"found cell extreme_4 .*, expected cell extreme_2 ",
                 id="alphas"),
    pytest.param("models", ["no_propensity"],
                 r"replicates\.csv does not match .*run_config\.json: 4 "
                 r"records do not hold each of the grid's 2 fits once "
                 r"\(master_seed 99, replicates 2\); in key order, fit 1: "
                 r"found cell extreme_4 replicate 0 model "
                 r"estimated_propensity .*, expected cell extreme_4 "
                 r"replicate 0 model no_propensity ", id="models_subset"),
])
def test_report_from_refuses_a_config_the_records_contradict(
        mini_run, tmp_path, key, value, message):
    _, out, _ = mini_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    path = copy / "run_config.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    with pytest.raises(ValueError, match=message):
        report_from(copy)


def _duplicate_a_fit(rows):
    # replicate 1's no_propensity row becomes a second replicate 0 row
    rows[2] = rows[0]
    return (r"fit 3: found cell extreme_4 replicate 0 model no_propensity "
            r"seed \d+, expected cell extreme_4 replicate 1 model "
            r"estimated_propensity seed \d+")


def _drop_a_fit(rows):
    del rows[2]
    return (r"fit 4: found nothing, expected cell extreme_4 replicate 1 "
            r"model no_propensity seed \d+")


@pytest.mark.parametrize("edit", [_duplicate_a_fit, _drop_a_fit])
def test_report_from_refuses_records_without_each_fit_once(
        mini_run, tmp_path, edit):
    _, out, _ = mini_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    path = copy / "replicates.csv"
    header, *rows = path.read_text().splitlines(keepends=True)
    message = edit(rows)
    path.write_text("".join([header] + rows))
    with pytest.raises(ValueError,
                       match=r"replicates\.csv does not match "
                             r".*run_config\.json: \d records do not hold "
                             r"each of the grid's 4 fits once \(master_seed "
                             r"99, replicates 2\); in key order, " + message):
        report_from(copy)


def test_report_from_requires_run_artifacts(tmp_path):
    with pytest.raises(FileNotFoundError, match="replicates.csv"):
        report_from(tmp_path)
    (tmp_path / "replicates.csv").write_text(
        ",".join(RECORD_FIELDS) + "\n", encoding="utf-8")
    with pytest.raises(FileNotFoundError, match="run_config.json"):
        report_from(tmp_path)
