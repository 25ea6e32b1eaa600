"""Pinned report bytes: ``report_from`` must keep every derived file.

Two run directories are rebuilt from raw records alone and every summary,
p-value, boxplot and scatter file is hashed with BLAKE2b:

* the committed acceptance cells (three cells, 20 replicates, three
  models), whose pairs take both branches of the Levene gate and include
  constant coverage rows, where the dispersion test is degenerate;
* a small hand-made study with 6 replicates, whose rows are built to reach
  Mann-Whitney's exact enumeration, Mann-Whitney with ties, the
  Fligner-Policello warning, constant rows and the infinite Levene
  statistic.

The digests hold for the environment that ``tests/test_pinned_digests.py``
names: the p-value digits depend on ``scipy.special`` tails.
"""

import csv
import hashlib
import json
import shutil
from pathlib import Path

import pytest

from bcfsim.harness import ExperimentConfig, derive_seed, report_from
from bcfsim.metrics import METRIC_FIELDS, RECORD_FIELDS

GRID_DIR = Path(__file__).resolve().parents[1] / ".acceptance_cache" / "grid_a4"

_CSV_FIELDS = [f for f in RECORD_FIELDS if f != "fit_seconds"]
_REPORT_PREFIXES = ("summary_", "pvalues_", "boxplot_", "scatter_")


def _report_digests(run_dir: Path) -> dict:
    return {
        path.name: hashlib.blake2b(path.read_bytes(), digest_size=8).hexdigest()
        for path in sorted(run_dir.iterdir())
        if path.name.startswith(_REPORT_PREFIXES)}


def _selected(run_dir: Path) -> list:
    """(metric, selected tests, levene stat) of every p-value row."""
    rows = []
    for path in sorted(run_dir.glob("pvalues_*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            rows += [(r["metric"], r["selected"], r["levene_stat"])
                     for r in csv.DictReader(fh)]
    return rows


ACCEPTANCE_DIGESTS = {
    "boxplot_extreme_4.csv": "6d067b3e84af6207",
    "boxplot_moderate_4.csv": "42ffafcbcf0bde1c",
    "boxplot_slight_4.csv": "f5b293ef4613e9d0",
    "pvalues_extreme_4_no_propensity_vs_estimated_propensity.csv":
        "b18b74ea3d5fc796",
    "pvalues_extreme_4_no_propensity_vs_true_propensity.csv":
        "a8d4feb38b18ab52",
    "pvalues_extreme_4_true_propensity_vs_estimated_propensity.csv":
        "d8b76bffb1bdad43",
    "pvalues_moderate_4_no_propensity_vs_estimated_propensity.csv":
        "4a805fb468dc8c6b",
    "pvalues_moderate_4_no_propensity_vs_true_propensity.csv":
        "4a164c9337db8731",
    "pvalues_moderate_4_true_propensity_vs_estimated_propensity.csv":
        "ff8d9d421cef3847",
    "pvalues_slight_4_no_propensity_vs_estimated_propensity.csv":
        "b74f68144f262702",
    "pvalues_slight_4_no_propensity_vs_true_propensity.csv":
        "7a35539fed86c5a2",
    "pvalues_slight_4_true_propensity_vs_estimated_propensity.csv":
        "28e567b0b4555813",
    "scatter_pi_vs_b_extreme.csv": "fc95e299bba9a545",
    "scatter_pi_vs_b_moderate.csv": "51f6388236c2fa87",
    "scatter_pi_vs_b_slight.csv": "99160af4f968e728",
    "summary_extreme_4.csv": "8cc19a13ee07a146",
    "summary_extreme_4.md": "a024474ae0d20803",
    "summary_moderate_4.csv": "f442a2c8023fb69d",
    "summary_moderate_4.md": "535e358a7baa7869",
    "summary_slight_4.csv": "575afd970302c7b6",
    "summary_slight_4.md": "cfc1755fb99ab049",
}


def test_report_of_the_acceptance_cells_is_pinned(tmp_path):
    with open(tmp_path / "replicates.csv", "w", newline="",
              encoding="utf-8") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_CSV_FIELDS)
        for cell in sorted((GRID_DIR / "cells").glob("cell_*.csv")):
            with open(cell, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                assert next(reader) == _CSV_FIELDS + ["dataset_digest"]
                writer.writerows(row[:-1] for row in reader)
    shutil.copy(GRID_DIR / "run_config.json", tmp_path / "run_config.json")

    records = report_from(tmp_path)

    assert len(records) == 180
    selected = _selected(tmp_path)
    assert sum(s == "mann_whitney_u+kruskal_wallis"
               for _, s, _ in selected) == 112
    assert sum(s == "fligner_policello" for _, s, _ in selected) == 32
    assert sum(stat == "0.0" for _, _, stat in selected) == 7
    assert _report_digests(tmp_path) == ACCEPTANCE_DIGESTS


# rows of the small study, by metric index mod 5; m is the model's index
# and r the replicate's, and every value is a valid metric (coverages too)
_KINDS = (
    # distinct values, equal spread: Mann-Whitney's exact enumeration
    lambda m, r: (3 * r + m + 1) / 100,
    # spread growing 4-fold per model: Levene rejects, Fligner-Policello
    # runs on 6 values per group and warns
    lambda m, r: 0.5 + (r - 2.5) * 0.01 * 4 ** m,
    # constant: no dispersion, no location difference
    lambda m, r: 0.5,
    # two values per model at distance (m + 1) / 8: the deviations are
    # constant within each group but differ between them, an infinite F
    lambda m, r: (r % 2) * 0.125 * (m + 1),
    # three tied levels shifted by model: Mann-Whitney with ties
    lambda m, r: (r % 3) / 10 + 0.05 * m,
)

SMALL_STUDY_DIGESTS = {
    "boxplot_extreme_4.csv": "68975c1c6cb4989a",
    "pvalues_extreme_4_no_propensity_vs_estimated_propensity.csv":
        "f2826413c4fd2bcb",
    "pvalues_extreme_4_no_propensity_vs_true_propensity.csv":
        "1ea00a7e2413fb9c",
    "pvalues_extreme_4_true_propensity_vs_estimated_propensity.csv":
        "70e70176c1b9114b",
    "scatter_pi_vs_b_extreme.csv": "d0541224c9b997d4",
    "summary_extreme_4.csv": "9dc12224b01bcf7d",
    "summary_extreme_4.md": "c61dc2044e6d2a7e",
}


def test_report_of_a_small_study_is_pinned(tmp_path):
    config = ExperimentConfig(selections=("extreme",), alphas=(4.0,),
                              replicates=6, master_seed=5)
    with open(tmp_path / "replicates.csv", "w", newline="",
              encoding="utf-8") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_CSV_FIELDS)
        for r in range(config.replicates):
            for m, model in enumerate(config.models):
                writer.writerow(
                    ["extreme", "4.0", model, str(r),
                     str(derive_seed(config.master_seed, "extreme", 4.0, r))]
                    + [repr(float(_KINDS[j % 5](m, r)))
                       for j in range(len(METRIC_FIELDS))])
    (tmp_path / "run_config.json").write_text(
        json.dumps(config.to_json_dict(), sort_keys=True, indent=2),
        encoding="utf-8")

    with pytest.warns(UserWarning, match="fligner_policello"):
        report_from(tmp_path)

    selected = _selected(tmp_path)
    # per pair: 4 exact-enumeration rows (C(12, 6) = 924 labelings), 3 rows
    # with unequal spread and 3 infinite-F rows; constant and tied rows
    # keep the rank pair
    assert sum(s == "fligner_policello" for _, s, _ in selected) == 3 * 6
    assert sum(stat == "inf" for _, _, stat in selected) == 3 * 3
    with open(tmp_path / "pvalues_extreme_4_no_propensity_vs_"
              "true_propensity.csv", newline="", encoding="utf-8") as fh:
        mann_whitney_p = {r["metric"]: r["mann_whitney_p"]
                          for r in csv.DictReader(fh)}
    for metric in METRIC_FIELDS[::5]:
        assert (float(mann_whitney_p[metric]) * 462).is_integer()
    assert _report_digests(tmp_path) == SMALL_STUDY_DIGESTS
