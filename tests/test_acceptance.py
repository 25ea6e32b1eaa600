"""Acceptance gate for the replication study.

Each test here checks one numbered criterion of the finished system against
frozen numeric bounds and prints a single PASS/FAIL verdict line, so running
``pytest tests/test_acceptance.py -q`` doubles as the release checklist.

Criteria 3 through 6 score the quick-profile grid restricted to the alpha=4
column, which is the column the bounds refer to. Seeds are derived per
(master seed, cell, replicate), so this sub-grid reproduces bit-identical
fits to the same cells of a full run; the fits are cached under
``.acceptance_cache/grid_a4`` and reused on subsequent runs. A cold cache
refits 180 models, which takes on the order of an hour.
"""

import csv
import dataclasses
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy import integrate

from bcfsim.bart import (
    ChainConfig, FixedScale, FixedSigma, ForestPrior, fit_continuous,
)
from bcfsim.bcf import PropensityMode
from bcfsim.dgp import DgpSpec, Selection, beta_cdf_2_4, generate, signal_ratio
from bcfsim.harness import (
    ExperimentConfig,
    apply_profile,
    cell_values,
    compare_models,
    derive_seed,
    run_experiment,
)
from bcfsim.metrics import METRIC_FIELDS
from bcfsim.ranktests import (
    fligner_policello,
    kruskal_wallis,
    levene_family,
    mann_whitney_u,
)

GRID_DIR = Path(__file__).resolve().parents[1] / ".acceptance_cache" / "grid_a4"
# the environment the committed cells were fitted in (README, "Determinism
# contract")
PINNED_ENV = "Python 3.11, numpy 2.4.6 and scipy 1.17.1"
# the columns that name one fit in replicates.csv, digests.csv and the cells
_FIT_KEY = ("dgp_id", "alpha", "replicate_index", "model", "seed")

MODELS = tuple(m.value for m in PropensityMode)
NO_PI = PropensityMode.NO_PROPENSITY.value
TRUE_PI = PropensityMode.TRUE_PROPENSITY.value
EST_PI = PropensityMode.ESTIMATED_PROPENSITY.value


def _verdict(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] acceptance {number}: {detail}",
              flush=True)
    assert ok, f"acceptance {number}: {detail}"


def _grid_config() -> ExperimentConfig:
    return apply_profile(ExperimentConfig(alphas=(4.0,)), "quick")


def _progress(msg: str) -> None:
    print(msg, file=sys.__stderr__, flush=True)


@pytest.fixture(scope="module")
def grid_records():
    config = _grid_config()
    cells = GRID_DIR / "cells"
    expected = {f"cell_{s.value}_4.csv" for s in config.selections}
    have = {p.name for p in cells.iterdir()} if cells.exists() else set()
    if not expected <= have:
        _progress("acceptance grid cache is cold: fitting 180 models "
                  "(roughly an hour; cells are checkpointed, so an "
                  "interrupted run resumes where it stopped)")
    return run_experiment(config, out_dir=GRID_DIR, resume=True,
                          progress=_progress)


def _cell(records, selection: str):
    return [r for r in records if r.dgp_id == selection and r.alpha == 4.0]


def _mean(records, selection, model, metric):
    vals = [getattr(r, metric) for r in _cell(records, selection)
            if r.model == model]
    assert len(vals) == 20
    return float(np.mean(vals))


_LOCATION_ATTR = {
    "mann_whitney_u": "mann_whitney",
    "kruskal_wallis": "kruskal_wallis",
    "fligner_policello": "fligner_policello",
}


def _selected_pvalues(records, selection, metric):
    cell, = [cell for cell in cell_values(_grid_config(), records)
             if cell.dgp_id == selection]
    report = compare_models(cell, NO_PI, EST_PI)[METRIC_FIELDS.index(metric)]
    return [getattr(report, _LOCATION_ATTR[name]).p for name in report.selected]


# ---------------------------------------------------------------------------

def test_criterion_1_fixed_propensity_error_by_selection(capsys):
    """RMSE of the constant 0.5 propensity, no model fitting involved."""
    targets = {"extreme": 0.438, "moderate": 0.366, "slight": 0.312}
    observed = {}
    for selection, target in targets.items():
        spec = DgpSpec(Selection(selection), 4.0, n=250)
        vals = []
        for rep in range(100):
            seed = derive_seed(1729, selection, 4.0, rep)
            dataset = generate(spec, seed)
            vals.append(float(np.sqrt(np.mean((0.5 - dataset.pi_true) ** 2))))
        observed[selection] = float(np.mean(vals))
    ok = all(abs(observed[s] - targets[s]) < 0.01 for s in targets)
    detail = ("no-propensity rmse_pi over 100 draws: " + ", ".join(
        f"{s}={observed[s]:.4f} (target {targets[s]} +- 0.01)"
        for s in targets))
    _verdict(capsys, 1, ok, detail)


def test_criterion_2_signal_to_effect_ratio(capsys):
    bands = {1.0: (2.3, 4.0), 2.0: (5.5, 9.0), 4.0: (10.0, 16.0)}
    ratios = {
        alpha: signal_ratio(DgpSpec(Selection.EXTREME, alpha), 200_000,
                            seed=2026)
        for alpha in bands
    }
    ok = all(lo <= ratios[a] <= hi for a, (lo, hi) in bands.items())
    detail = ("baseline/effect magnitude ratio: " + ", ".join(
        f"alpha={a:g}: {ratios[a]:.2f} in [{lo}, {hi}]"
        for a, (lo, hi) in bands.items()))
    _verdict(capsys, 2, ok, detail)


def test_criterion_3_estimated_propensity_error(capsys, grid_records):
    extreme = _mean(grid_records, "extreme", EST_PI, "rmse_pi")
    slight = _mean(grid_records, "slight", EST_PI, "rmse_pi")
    ok = 0.03 <= extreme <= 0.08 and 0.09 <= slight <= 0.16
    detail = (f"estimated-propensity rmse_pi: extreme={extreme:.4f} "
              f"in [0.03, 0.08], slight={slight:.4f} in [0.09, 0.16]")
    _verdict(capsys, 3, ok, detail)


def test_criterion_4_effect_recovery_all_variants(capsys, grid_records):
    parts = []
    ok = True
    for model in MODELS:
        rmse = _mean(grid_records, "extreme", model, "rmse_cate")
        c_cate = _mean(grid_records, "extreme", model, "cover_cate")
        c_ate = _mean(grid_records, "extreme", model, "cover_ate")
        ok = ok and 0.10 <= rmse <= 0.30 and c_cate >= 0.90 and c_ate >= 0.85
        parts.append(f"{model}: rmse_cate={rmse:.3f} cover_cate={c_cate:.3f} "
                     f"cover_ate={c_ate:.3f}")
    detail = ("extreme selection, all variants (rmse_cate in [0.10, 0.30], "
              "cover_cate >= 0.90, cover_ate >= 0.85): " + "; ".join(parts))
    _verdict(capsys, 4, ok, detail)


def test_criterion_5_propensity_estimate_changes_nothing_but_pi(capsys,
                                                                grid_records):
    """With and without the estimated propensity, effect error is
    indistinguishable while propensity error separates completely."""
    parts = []
    ok = True
    for selection in ("extreme", "moderate"):
        cate_ps = _selected_pvalues(grid_records, selection, "rmse_cate")
        pi_ps = _selected_pvalues(grid_records, selection, "rmse_pi")
        ok = ok and min(cate_ps) > 0.05 and min(pi_ps) < 1e-6
        parts.append(f"{selection}: rmse_cate p={min(cate_ps):.4f} (> 0.05), "
                     f"rmse_pi p={min(pi_ps):.2g} (< 1e-06)")
    _verdict(capsys, 5, ok, "; ".join(parts))


def test_criterion_6_propensity_estimation_costs_time(capsys, grid_records):
    # the fit times live beside the records, in the run's timing.json
    timing = json.loads((GRID_DIR / "timing.json").read_text(encoding="utf-8"))
    overhead = timing["pooled_overhead_estimated_vs_no_propensity"]
    ok = overhead > 0.05
    _verdict(capsys, 6, ok,
             f"pooled fit-time overhead of estimating the propensity: "
             f"{overhead:.1%} (> 5%)")


def test_criterion_7_single_leaf_matches_conjugate_posterior(capsys):
    """A one-tree forest on a constant covariate cannot split, so its draws
    must follow the closed-form normal-mean posterior."""
    n, sigma, leaf_sd = 50, 1.1, 0.8
    rng = np.random.default_rng(414213562)
    X = np.full((n, 1), 0.5)
    y = 0.7 + 0.9 * rng.standard_normal(n)
    fit = fit_continuous(
        X, y, ForestPrior(num_trees=1, leaf_scale_prior=FixedScale(leaf_sd)),
        ChainConfig(iterations=2500, burn_in=500), FixedSigma(sigma),
        seed=8128)
    draws = fit.draws[:, 0]

    post_var = 1.0 / (1.0 / leaf_sd ** 2 + n / sigma ** 2)
    post_mean = post_var * y.sum() / sigma ** 2
    k = draws.size
    mean_err = abs(float(draws.mean()) - post_mean)
    mean_tol = 3.0 * np.sqrt(post_var / k)
    var_ratio = float(draws.var(ddof=1)) / post_var
    ok = mean_err < mean_tol and abs(var_ratio - 1.0) < 0.10
    _verdict(capsys, 7, ok,
             f"unsplit tree vs conjugate posterior: |mean err|={mean_err:.5f} "
             f"(< {mean_tol:.5f}), var ratio={var_ratio:.3f} (within 10%)")


def test_criterion_8_rank_test_battery(capsys):
    exact = mann_whitney_u(np.array([1.0, 2.0, 3.0]),
                           np.array([4.0, 5.0, 6.0]))
    exact_ok = np.isclose(exact.p, 0.1)

    rng = np.random.default_rng(577215664)
    x, y = rng.standard_normal(100), rng.standard_normal(100)
    gap = abs(mann_whitney_u(x, y).p - kruskal_wallis([x, y]).p)
    agree_ok = gap < 0.01

    tests = {
        "mann_whitney_u": mann_whitney_u,
        "kruskal_wallis": lambda a, b: kruskal_wallis([a, b]),
        "levene": lambda a, b: levene_family(a, b, center="mean"),
        "brown_forsythe": lambda a, b: levene_family(a, b, center="median"),
        "fligner_policello": fligner_policello,
    }
    rng = np.random.default_rng(161803398)
    rejects = dict.fromkeys(tests, 0)
    trials = 2000
    for _ in range(trials):
        a = rng.standard_normal(30)
        b = rng.standard_normal(30)
        for name, test in tests.items():
            if test(a, b).p < 0.05:
                rejects[name] += 1
    rates = {name: count / trials for name, count in rejects.items()}
    calib_ok = all(0.03 <= r <= 0.07 for r in rates.values())

    ok = exact_ok and agree_ok and calib_ok
    detail = (f"exact p={exact.p:.6g} (0.1); |KW-MWU| at 100v100 = {gap:.4f} "
              "(< 0.01); null rejection rates at level 0.05: " + ", ".join(
                  f"{name}={rate:.3f}" for name, rate in rates.items()) +
              " (each in [0.03, 0.07])")
    _verdict(capsys, 8, ok, detail)


def test_criterion_9_effect_scale_cdf_matches_quadrature(capsys):
    grid = np.linspace(0.0, 1.0, 1001)
    density = lambda t: 20.0 * t * (1.0 - t) ** 3
    worst = 0.0
    for u in grid:
        numeric, _ = integrate.quad(density, 0.0, u)
        worst = max(worst, abs(numeric - beta_cdf_2_4(u)))
    ok = worst <= 1e-10
    _verdict(capsys, 9, ok,
             f"Beta(2,4) cdf vs quadrature on 1001 points: "
             f"max abs diff = {worst:.2e} (<= 1e-10)")


def test_criterion_10_reruns_are_byte_identical(capsys, tmp_path):
    """Two cold runs of the same configuration must produce byte-identical
    replicate tables.

    The configuration is the quick profile cut to one cell and two
    replicates so the check stays affordable; per-(cell, replicate) seed
    derivation makes these fits bit-identical to the same rows of the full
    grid, so the determinism property transfers. The rows must also equal
    the first rows of the committed extreme_4 cell, which binds criteria 3
    to 6 to the sampler as it is.
    """
    config = dataclasses.replace(
        apply_profile(ExperimentConfig(selections=("extreme",),
                                       alphas=(4.0,)), "quick"),
        replicates=2)
    _progress("determinism check: fitting 6 models twice...")
    run_experiment(config, out_dir=tmp_path / "first", progress=_progress)
    run_experiment(config, out_dir=tmp_path / "second", progress=_progress)
    first = (tmp_path / "first" / "replicates.csv").read_bytes()
    second = (tmp_path / "second" / "replicates.csv").read_bytes()
    ok = first == second and len(first) > 0
    _verdict(capsys, 10, ok,
             f"identical configuration twice: replicates.csv "
             f"{'matches byte for byte' if ok else 'DIFFERS'} "
             f"({len(first)} bytes)")

    # the same fits are the first rows of the committed extreme_4 cell, whose
    # last column, dataset_digest, is digests.csv's in the run
    cell = GRID_DIR / "cells" / "cell_extreme_4.csv"
    lines = cell.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    column = header.index("dataset_digest")
    cached = [line.split(",") for line in lines[1:7]]
    key = [header.index(name) for name in _FIT_KEY]
    cached_digests = {tuple(row[i] for i in key): row.pop(column)
                      for row in cached}
    with (tmp_path / "first" / "digests.csv").open(
            newline="", encoding="utf-8") as f:
        run_digests = {tuple(row[name] for name in _FIT_KEY):
                       row["dataset_digest"] for row in csv.DictReader(f)}
    refit = (f"differ from the first rows of the committed {cell.name}, "
             f"which hold for {PINNED_ENV} (README, 'Determinism "
             f"contract'); this is Python {platform.python_version()}, "
             f"numpy {np.__version__} and scipy {scipy.__version__}")
    run_rows = first.decode("utf-8").splitlines()[1:]
    assert len(run_rows) == 6
    assert run_rows == [",".join(row) for row in cached], (
        f"replicates.csv rows {refit}")
    assert run_digests == cached_digests, f"digests.csv digests {refit}"
