"""Tests for the replication harness: seeding, config handling, the run
loop with its artifacts, resume, and the reporting helpers.

The end-to-end tests share one deliberately tiny grid (single cell, two
replicates, two model variants, short chains) fitted once per session; the
determinism test refits the same grid into a second directory and compares
bytes.
"""

import dataclasses
import json
import os
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bcfsim import harness
from bcfsim.bart import ChainConfig
from bcfsim.bcf import PropensityMode
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
    timing_report,
)
from bcfsim.metrics import METRIC_FIELDS, RECORD_FIELDS, ReplicateRecord

CSV_FIELDS = tuple(f for f in RECORD_FIELDS if f != "fit_seconds")
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
        ExperimentConfig(**kwargs).validate()


def test_one_replicate_needs_a_single_model():
    with pytest.raises(ValueError, match="at least 2 to compare 2 models"):
        ExperimentConfig(models=("no_propensity", "true_propensity"),
                         replicates=1).validate()
    ExperimentConfig(models=("no_propensity",), replicates=1).validate()


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
    config.validate()
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
    fit = SimpleNamespace(
        tau_draws=np.array([[1.0, 1.0, 1.0, 1.0],
                            [3.0, 3.0, 3.0, 3.0]]),
        pi_used=np.full(4, 0.5),
        mode=PropensityMode.NO_PROPENSITY,
        fit_seconds=1.5,
    )
    rec = evaluate_fit(fit, dataset, replicate_index=7, seed=123)

    assert rec.dgp_id == "extreme"
    assert rec.alpha == 4.0
    assert rec.model == "no_propensity"
    assert rec.replicate_index == 7
    assert rec.seed == 123
    assert rec.fit_seconds == 1.5

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
# summarize / compare_models / timing_report on synthetic records

def _record(**overrides):
    kwargs = dict(
        dgp_id="extreme", alpha=4.0, model="no_propensity",
        replicate_index=0, seed=1, fit_seconds=1.0,
    )
    kwargs.update({name: 0.5 for name in METRIC_FIELDS})
    kwargs.update(overrides)
    return ReplicateRecord(**kwargs)


def test_summarize_hand_example():
    records = [
        _record(replicate_index=0, rmse_cate=0.1),
        _record(replicate_index=1, rmse_cate=0.2),
    ]
    table = summarize(cell_values(records))
    mean, sd, count = table.cell("extreme", 4.0, "rmse_cate", "no_propensity")
    assert mean == pytest.approx(0.15)
    assert sd == pytest.approx(0.07071067811865475)
    assert count == 2


def test_summarize_single_replicate_has_no_sd():
    table = summarize(cell_values([_record()]))
    mean, sd, count = table.cell("extreme", 4.0, "len_ate", "no_propensity")
    assert mean == 0.5
    assert sd is None
    assert count == 1


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize(cell_values([]))


def test_compare_models_identical_values_are_not_significant():
    records = []
    for rep in range(6):
        value = 0.1 + 0.01 * rep
        records.append(_record(replicate_index=rep, rmse_cate=value))
        records.append(_record(replicate_index=rep, rmse_cate=value,
                               model="true_propensity"))
    table = compare_models(*cell_values(records), "no_propensity",
                           "true_propensity")
    assert table.model_a == "no_propensity"
    assert table.reports["rmse_cate"].mann_whitney.p >= 0.99
    assert table.reports["rmse_cate"].kruskal_wallis.p >= 0.99


def test_compare_models_detects_separation():
    records = []
    for rep in range(13):
        records.append(_record(replicate_index=rep, rmse_pi=0.4 + 0.001 * rep))
        records.append(_record(replicate_index=rep, rmse_pi=0.05 + 0.001 * rep,
                               model="estimated_propensity"))
    table = compare_models(*cell_values(records), "no_propensity",
                           "estimated_propensity")
    report = table.reports["rmse_pi"]
    chosen = getattr(report, report.selected[0].replace("_u", ""))
    assert chosen.p < 1e-4


def test_cell_values_split_records_by_cell():
    records = [_record(), _record(dgp_id="slight", rmse_cate=0.25),
               _record(replicate_index=1, rmse_cate=0.75)]
    extreme, slight = cell_values(records)
    assert (extreme.dgp_id, extreme.alpha, extreme.replicates) == (
        "extreme", 4.0, (0, 1))
    assert (slight.dgp_id, slight.replicates) == ("slight", (0,))
    matrix = extreme.values["no_propensity"]
    assert matrix.shape == (len(METRIC_FIELDS), 2)
    assert matrix.flags.c_contiguous
    assert matrix[METRIC_FIELDS.index("rmse_cate")].tolist() == [0.5, 0.75]
    assert slight.values["no_propensity"][0].tolist() == [0.25]


def test_compare_models_rejects_mismatched_replicates():
    records = [
        _record(replicate_index=0),
        _record(replicate_index=1),
        _record(replicate_index=0, model="true_propensity"),
        _record(replicate_index=2, model="true_propensity"),
    ]
    with pytest.raises(ValueError, match="replicate"):
        compare_models(*cell_values(records), "no_propensity",
                       "true_propensity")


def test_compare_models_rejects_missing_model():
    with pytest.raises(ValueError, match="both models"):
        compare_models(*cell_values([_record()]), "no_propensity",
                       "estimated_propensity")


def test_timing_report_hand_example():
    records = [
        _record(fit_seconds=1.0),
        _record(replicate_index=1, fit_seconds=1.0),
        _record(model="estimated_propensity", fit_seconds=1.2),
        _record(model="estimated_propensity", replicate_index=1,
                fit_seconds=1.22),
    ]
    report = timing_report(records)
    assert report["mean_seconds_by_model"]["no_propensity"] == 1.0
    assert report["pooled_overhead_estimated_vs_no_propensity"] == (
        pytest.approx(0.21))
    assert report["cell_overhead_estimated_vs_no_propensity"]["extreme_4"] == (
        pytest.approx(0.21))


def test_timing_report_needs_both_variants():
    # without both variants there is no overhead, only the mean fit times
    report = timing_report([_record(fit_seconds=2.0)])
    assert report == {"mean_seconds_by_model": {"no_propensity": 2.0}}


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
    records = run_experiment(config, out_dir=out)
    return config, out, records


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
        assert rec.fit_seconds > 0
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
        "cell_extreme_4.csv", "cell_extreme_4_timing.json"]


def test_replicates_csv_schema_and_roundtrip(mini_run):
    _, out, records = mini_run
    lines = (out / "replicates.csv").read_text().splitlines()
    # the column list is a published file contract; reordering the record
    # dataclass must show up here as a deliberate schema change
    assert CSV_FIELDS == (
        "dgp_id", "alpha", "model", "replicate_index", "seed",
        "rmse_cate", "mae_cate", "mape_cate", "cover_cate", "len_cate",
        "rmse_ate", "mae_ate", "mape_ate", "cover_ate", "len_ate",
        "rmse_pi", "mae_pi",
        "se_cover_cate", "ae_cover_cate", "se_cover_ate", "ae_cover_ate",
    )
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 1 + len(records)
    loaded = read_replicates_csv(out / "replicates.csv")
    assert loaded == [dataclasses.replace(r, fit_seconds=0.0) for r in records]


def test_every_record_field_round_trips_through_a_cell(tmp_path):
    # distinct values that need every digit, so a dropped, swapped or
    # rounded column shows; fit_seconds comes back through the timing JSON
    values = dict(dgp_id="moderate", alpha=2.5, model="true_propensity",
                  replicate_index=12, seed=2 ** 64 - 1)
    metrics = [f for f in RECORD_FIELDS if f not in values]
    values.update({name: (i + 1) / 29 for i, name in enumerate(metrics)})
    assert sorted(values) == sorted(RECORD_FIELDS)
    rec = ReplicateRecord(**values)
    cell_csv, cell_timing = tmp_path / "cell.csv", tmp_path / "timing.json"
    harness._write_cell(cell_csv, cell_timing, [(rec, "0123abcd")])
    assert harness._read_cell(cell_csv, cell_timing) == [(rec, "0123abcd")]


def test_read_replicates_csv_rejects_other_schemas(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="columns"):
        read_replicates_csv(path)


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
    _, out, records = mini_run
    table = summarize(cell_values(records))
    want = np.mean([r.rmse_pi for r in records
                    if r.model == "estimated_propensity"])
    mean, _, count = table.cell("extreme", 4.0, "rmse_pi",
                                "estimated_propensity")
    assert mean == pytest.approx(want)
    assert count == 2
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
    run_experiment(both, out_dir=run, resume=True, progress=lines.append)

    timing = json.loads(
        (run / "cells" / "cell_extreme_2_timing.json").read_text())
    fits = [(rep, model) for rep in range(2) for model in config.models]
    seconds = [timing[f"{rep}:{model}"] for rep, model in fits]
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
    run_experiment(both, out_dir=run, resume=True, progress=lines.append)
    assert lines == []


def test_resume_refuses_a_checkpoint_out_of_run_order(mini_run, tmp_path):
    config, out, _ = mini_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    path = copy / "cells" / "cell_extreme_4.csv"
    header, first, second, *rest = path.read_text().splitlines(keepends=True)
    path.write_text("".join([header, second, first] + rest))
    before = {p: p.read_bytes() for p in copy.rglob("*") if p.is_file()}
    with pytest.raises(RuntimeError,
                       match=r"cell_extreme_4\.csv: row 1: found cell "
                             r"extreme_4 replicate 0 model "
                             r"estimated_propensity seed \d+, expected cell "
                             r"extreme_4 replicate 0 model no_propensity"):
        run_experiment(config, out_dir=copy, resume=True)
    assert {p: p.read_bytes() for p in copy.rglob("*") if p.is_file()} == before


def test_resume_reuses_checkpointed_cells(mini_run):
    config, out, records = mini_run
    # touching nothing: the resumed run must load the cached cell, keep the
    # recorded wall-clock times, and leave every artifact byte-identical
    before = (out / "replicates.csv").read_bytes()
    resumed = run_experiment(config, out_dir=out, resume=True)
    assert resumed == records
    assert (out / "replicates.csv").read_bytes() == before


def test_fresh_run_refuses_dirty_directory(mini_run):
    config, out, _ = mini_run
    with pytest.raises(RuntimeError, match="resume"):
        run_experiment(config, out_dir=out)


def test_resume_rejects_mismatched_configuration(mini_run):
    _, out, _ = mini_run
    grown = ExperimentConfig(**{**MINI_CONFIG, "replicates": 3})
    with pytest.raises(RuntimeError, match="expected"):
        run_experiment(grown, out_dir=out, resume=True)


def test_resume_refuses_cells_of_another_configuration(tmp_path):
    # cells fit under one seed and chain length must not be reused under
    # another, and the refused resume must leave run_config.json alone
    small = dict(selections=("slight",), alphas=(1.0,),
                 models=("no_propensity",), n=20, replicates=1, burn_in=3)
    first = ExperimentConfig(**small, master_seed=1729, iterations=6)
    run_experiment(first, out_dir=tmp_path)
    before = (tmp_path / "run_config.json").read_bytes()
    other = ExperimentConfig(**small, master_seed=7, iterations=40)
    with pytest.raises(RuntimeError,
                       match=r"iterations: found 6, expected 40; "
                             r"master_seed: found 1729, expected 7"):
        run_experiment(other, out_dir=tmp_path, resume=True)
    assert (tmp_path / "run_config.json").read_bytes() == before


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
    path = cells / "cell_extreme_4_timing.json"
    timing = json.loads(path.read_text())
    del timing["1:no_propensity"]
    path.write_text(json.dumps(timing))
    return r"cell_extreme_4_timing\.json: unreadable fit times"


@pytest.mark.parametrize("corrupt", [_break_header, _break_value,
                                     _break_timing])
def test_resume_names_a_malformed_cell(mini_run, tmp_path, corrupt):
    config, out, _ = mini_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    message = corrupt(copy / "cells")
    with pytest.raises(ValueError, match=message):
        run_experiment(config, out_dir=copy, resume=True)


def test_report_from_regenerates_derived_artifacts(mini_run):
    _, out, records = mini_run
    derived = [
        "summary_extreme_4.csv", "summary_extreme_4.md",
        "boxplot_extreme_4.csv",
        "pvalues_extreme_4_no_propensity_vs_estimated_propensity.csv",
        "scatter_pi_vs_b_extreme.csv",
    ]
    originals = {name: (out / name).read_bytes() for name in derived}
    timing_before = (out / "timing.json").read_bytes()
    for name in derived:
        (out / name).unlink()

    reloaded = report_from(out)
    assert reloaded == [dataclasses.replace(r, fit_seconds=0.0)
                        for r in records]
    for name in derived:
        assert (out / name).read_bytes() == originals[name], name
    # no wall-clock data in the CSV, so timing must be left alone
    assert (out / "timing.json").read_bytes() == timing_before


def test_report_from_reads_replicates_in_replicate_order(mini_run,
                                                         tmp_path):
    # the last replicate's rows first: the reports follow replicate order,
    # not row order, so they equal the run's
    _, out, _ = mini_run
    copy = tmp_path / "reordered"
    copy.mkdir()
    shutil.copy(out / "run_config.json", copy / "run_config.json")
    header, *rows = (out / "replicates.csv").read_text(
        encoding="utf-8").splitlines(keepends=True)
    rows.sort(key=lambda row: -int(row.split(",")[3]))
    assert rows[0].split(",")[3] == "1"
    (copy / "replicates.csv").write_text(header + "".join(rows),
                                         encoding="utf-8")
    report_from(copy)
    for path in copy.iterdir():
        if path.name.startswith(("summary_", "pvalues_", "boxplot_")):
            assert path.read_bytes() == (out / path.name).read_bytes(), (
                path.name)


def test_report_from_leaves_its_inputs_untouched(mini_run):
    # a rebuild reads replicates.csv and run_config.json and must not
    # rewrite them (nor digests.csv): bytes, inode and mtime all survive
    _, out, _ = mini_run
    kept = ["replicates.csv", "run_config.json", "digests.csv"]
    for name in kept:
        os.utime(out / name, ns=(1_000_000_000, 1_000_000_000))
    before = {name: ((out / name).read_bytes(), (out / name).stat().st_ino,
                     (out / name).stat().st_mtime_ns) for name in kept}
    report_from(out)
    for name in kept:
        path = out / name
        assert (path.read_bytes(), path.stat().st_ino,
                path.stat().st_mtime_ns) == before[name], name


def test_report_from_refuses_unknown_config_keys(mini_run, tmp_path):
    _, out, _ = mini_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    path = copy / "run_config.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "jobs": 2}))
    with pytest.raises(ValueError, match=r"run_config\.json: unknown "
                                         r"configuration keys \['jobs'\]"):
        report_from(copy)


@pytest.mark.parametrize("text, message", [
    ("[]", r"run_config\.json: expected a JSON object"),
    ('{"n": 50}', r"run_config\.json: missing configuration keys"),
])
def test_report_from_names_a_malformed_config(mini_run, tmp_path, text,
                                              message):
    _, out, _ = mini_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    (copy / "run_config.json").write_text(text)
    with pytest.raises(ValueError, match=message):
        report_from(copy)


@pytest.mark.parametrize("key, value, message", [
    ("models", [], r"run_config\.json: models must be nonempty"),
    ("alphas", [2.0], r"replicates\.csv holds alphas \[4\.0\] but "
                      r".*run_config\.json lists \[2\.0\]"),
    ("models", ["no_propensity"],
     r"replicates\.csv holds models \['estimated_propensity', "
     r"'no_propensity'\] but .*run_config\.json lists \['no_propensity'\]"),
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
                       match=r"replicates\.csv does not hold each fit that "
                             r".*run_config\.json lists \(master_seed 99, "
                             r"replicates 2\) once; in key order, " + message):
        report_from(copy)


def test_report_from_requires_run_artifacts(tmp_path):
    with pytest.raises(FileNotFoundError, match="replicates.csv"):
        report_from(tmp_path)
    (tmp_path / "replicates.csv").write_text(
        ",".join(CSV_FIELDS) + "\n", encoding="utf-8")
    with pytest.raises(FileNotFoundError, match="run_config.json"):
        report_from(tmp_path)
