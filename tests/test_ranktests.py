import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose
from scipy import stats as spstats

from bcfsim.ranktests import (
    _average_ranks, fligner_policello, kruskal_wallis, levene_family,
    mann_whitney_u, select_and_run,
)


# ------------------------------------------------------------ Mann-Whitney

def test_mwu_exact_separated_triples():
    # classic enumeration: 1 of 20 labelings at each tail -> p = 0.1
    res = mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert res.stat == 0.0
    assert math.isclose(res.p, 0.1, rel_tol=1e-12)


def test_mwu_exact_matches_scipy():
    rng = np.random.default_rng(0)
    for _ in range(25):
        nx = int(rng.integers(2, 8))
        ny = int(rng.integers(2, 8))
        if nx + ny > 16:
            continue
        x = rng.normal(size=nx)
        y = rng.normal(size=ny)
        ours = mann_whitney_u(x, y)
        ref = spstats.mannwhitneyu(x, y, alternative="two-sided",
                                   method="exact")
        assert_allclose(ours.p, ref.pvalue, rtol=1e-12)


def test_mwu_asymptotic_matches_scipy():
    rng = np.random.default_rng(1)
    x = rng.normal(size=40)
    y = rng.normal(0.4, 1.0, size=35)
    ours = mann_whitney_u(x, y)
    ref = spstats.mannwhitneyu(x, y, alternative="two-sided",
                               method="asymptotic")
    assert_allclose(ours.p, ref.pvalue, rtol=1e-10)


def test_mwu_asymptotic_with_ties_matches_scipy():
    rng = np.random.default_rng(2)
    x = rng.integers(0, 6, size=30).astype(float)
    y = rng.integers(1, 7, size=28).astype(float)
    ours = mann_whitney_u(x, y)
    ref = spstats.mannwhitneyu(x, y, alternative="two-sided",
                               method="asymptotic")
    assert_allclose(ours.p, ref.pvalue, rtol=1e-10)


def test_mwu_all_values_tied():
    res = mann_whitney_u([2.0] * 10, [2.0] * 12)
    assert res.p == 1.0


def test_mwu_rejects_empty():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1.0])


# ---------------------------------------------------------- Kruskal-Wallis

def test_kw_matches_scipy_two_groups():
    rng = np.random.default_rng(3)
    x = rng.normal(size=50)
    y = rng.normal(0.3, 1.0, size=45)
    ours = kruskal_wallis([x, y])
    ref = spstats.kruskal(x, y)
    assert_allclose(ours.stat, ref.statistic, rtol=1e-12)
    assert_allclose(ours.p, ref.pvalue, rtol=1e-12)


def test_kw_matches_scipy_three_groups_with_ties():
    rng = np.random.default_rng(4)
    groups = [rng.integers(0, 8, size=n).astype(float) for n in (20, 25, 30)]
    ours = kruskal_wallis(groups)
    ref = spstats.kruskal(*groups)
    assert_allclose(ours.stat, ref.statistic, rtol=1e-12)
    assert_allclose(ours.p, ref.pvalue, rtol=1e-12)


def test_kw_needs_two_groups():
    with pytest.raises(ValueError):
        kruskal_wallis([[1.0, 2.0]])


def test_kw_degenerate_all_tied():
    res = kruskal_wallis([[5.0, 5.0], [5.0, 5.0, 5.0]])
    assert res.p == 1.0


# ------------------------------------------------- Levene / Brown-Forsythe

def test_levene_matches_scipy():
    rng = np.random.default_rng(5)
    x = rng.normal(0, 1, size=30)
    y = rng.normal(0, 3, size=35)
    ours = levene_family(x, y, center="mean")
    ref = spstats.levene(x, y, center="mean")
    assert_allclose(ours.stat, ref.statistic, rtol=1e-12)
    assert_allclose(ours.p, ref.pvalue, rtol=1e-12)


def test_brown_forsythe_matches_scipy():
    rng = np.random.default_rng(6)
    x = rng.standard_t(3, size=40)
    y = rng.standard_t(3, size=40) * 2.5
    ours = levene_family(x, y, center="median")
    ref = spstats.levene(x, y, center="median")
    assert_allclose(ours.stat, ref.statistic, rtol=1e-12)
    assert_allclose(ours.p, ref.pvalue, rtol=1e-12)


def test_levene_degenerate_cases():
    # both groups have zero spread around their centers
    assert levene_family([1.0, 1.0], [5.0, 5.0]).p == 1.0
    # deviations constant within each group but unequal between: infinite F
    res = levene_family([0.0, 2.0], [0.0, 10.0])
    assert res.p == 0.0
    assert math.isinf(res.stat)
    with pytest.raises(ValueError):
        levene_family([1.0], [2.0, 3.0])
    with pytest.raises(ValueError):
        levene_family([1.0, 2.0], [3.0, 4.0], center="mode")


# -------------------------------------------------------- Fligner-Policello

def test_fp_hand_computed_example():
    # x = (1, 3), y = (2, 4): placements P = (0, 1), Q = (1, 2),
    # U_hat = (3 - 1) / (2 * sqrt(0.5 + 0.5 + 0.75)) = 2 / sqrt(7)
    with pytest.warns(UserWarning):
        res = fligner_policello([1.0, 3.0], [2.0, 4.0])
    assert_allclose(res.stat, 2.0 / math.sqrt(7.0), rtol=1e-12)
    assert_allclose(res.p, 2.0 * spstats.norm.sf(2.0 / math.sqrt(7.0)),
                    rtol=1e-12)


def test_fp_fully_separated():
    with pytest.warns(UserWarning):
        res = fligner_policello([1.0, 2.0], [10.0, 11.0])
    assert res.p == 0.0
    assert math.isinf(res.stat)


def test_fp_symmetric_under_swap():
    rng = np.random.default_rng(7)
    x = rng.normal(size=20)
    y = rng.normal(1.0, 2.0, size=25)
    a = fligner_policello(x, y)
    b = fligner_policello(y, x)
    assert_allclose(a.stat, -b.stat, rtol=1e-12)
    assert_allclose(a.p, b.p, rtol=1e-12)


def test_fp_warns_only_below_twelve():
    rng = np.random.default_rng(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fligner_policello(rng.normal(size=12), rng.normal(size=12))
    with pytest.warns(UserWarning):
        fligner_policello(rng.normal(size=11), rng.normal(size=12))


def test_fp_agrees_with_mwu_direction_under_equal_variance():
    # under equal variances both tests should point the same way
    rng = np.random.default_rng(9)
    x = rng.normal(0.0, 1.0, size=60)
    y = rng.normal(0.8, 1.0, size=60)
    fp = fligner_policello(x, y)
    mwu = mann_whitney_u(x, y)
    assert fp.p < 0.01
    assert mwu.p < 0.01


# ------------------------------------------------------------ selection rule

def test_select_equal_variances_takes_rank_pair():
    rng = np.random.default_rng(10)
    x = rng.normal(0, 1, size=40)
    y = rng.normal(0.2, 1, size=40)
    report = select_and_run(x, y, "rmse_cate")
    assert report.metric_name == "rmse_cate"
    assert report.selected == ("mann_whitney_u", "kruskal_wallis")
    assert report.fligner_policello is None
    assert report.mann_whitney is not None
    assert report.kruskal_wallis is not None
    assert report.levene.p >= 0.05


def test_select_unequal_variances_takes_fligner_policello():
    rng = np.random.default_rng(11)
    x = rng.normal(0, 0.05, size=40)
    y = rng.normal(0, 2.0, size=40)
    report = select_and_run(x, y, "rmse_pi")
    assert report.selected == ("fligner_policello",)
    assert report.levene.p < 0.05
    assert report.mann_whitney is None
    assert report.kruskal_wallis is None
    assert report.fligner_policello is not None


def test_select_self_comparison_is_null():
    rng = np.random.default_rng(12)
    x = rng.normal(size=30)
    report = select_and_run(x, x.copy(), "mae_cate")
    # identical samples: dispersion gate passes, location tests see nothing
    assert report.selected == ("mann_whitney_u", "kruskal_wallis")
    assert report.mann_whitney.p >= 0.99
    assert report.kruskal_wallis.p >= 0.99


def test_location_power_smoke():
    # a real shift should be caught by whichever branch runs
    rng = np.random.default_rng(13)
    x = rng.normal(0.0, 1.0, size=50)
    y = rng.normal(1.5, 1.0, size=50)
    report = select_and_run(x, y, "rmse_ate")
    ps = [getattr(report, name if name != "mann_whitney_u" else "mann_whitney").p
          for name in report.selected]
    assert max(ps) < 0.001


_sample = st.lists(
    st.floats(-100.0, 100.0, allow_nan=False), min_size=10, max_size=18)


@given(_sample, _sample)
def test_pvalues_bounded_and_statistics_finite(xs, ys):
    # Seeding both groups with {0, 1} rules out full separation and
    # constant deviations, so every statistic must come out finite.
    x = np.array(xs + [0.0, 1.0])
    y = np.array(ys + [0.0, 1.0])
    results = [
        mann_whitney_u(x, y),
        kruskal_wallis([x, y]),
        levene_family(x, y, center="mean"),
        levene_family(x, y, center="median"),
        fligner_policello(x, y),
    ]
    for res in results:
        assert 0.0 <= res.p <= 1.0
        assert math.isfinite(res.stat)


# ------------------------------------- exact agreement with scipy.stats
# The tests take ranks from numpy and tails from scipy.special; these
# compare both, with ==, against the scipy.stats calls they stand in for.

_tied = st.lists(st.integers(0, 4), min_size=1, max_size=40).map(
    lambda v: np.array(v, dtype=float))


@given(_tied | st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 3.0]),
                        min_size=1, max_size=40).map(np.array))
def test_average_ranks_equal_rankdata(values):
    ranks = _average_ranks(values)
    ref = spstats.rankdata(values)
    assert ranks.dtype == ref.dtype
    assert ranks.tolist() == ref.tolist()


def _mwu_normal_p(x, y, u):
    """Mann-Whitney's normal-approximation p through scipy.stats.norm."""
    nx, ny = len(x), len(y)
    n = nx + ny
    _, counts = np.unique(np.concatenate([x, y]), return_counts=True)
    tie = float(np.sum(counts.astype(float) ** 3 - counts))
    var_u = nx * ny / 12.0 * ((n + 1) - tie / (n * (n - 1)))
    z = (u - nx * ny / 2.0 + 0.5) / np.sqrt(var_u)
    return min(1.0, 2.0 * float(spstats.norm.cdf(z)))


_two_or_more = _tied.filter(lambda v: len(v) >= 2)


@given(_two_or_more, _two_or_more)
def test_pvalues_equal_the_scipy_stats_tails(x, y):
    n = len(x) + len(y)
    pooled = np.concatenate([x, y])
    mw = mann_whitney_u(x, y)
    exact = len(np.unique(pooled)) == n and n <= 16
    if not exact and len(np.unique(pooled)) > 1:
        assert mw.p == _mwu_normal_p(x, y, mw.stat)
    kw = kruskal_wallis([x, y])
    assert kw.p == float(spstats.chi2.sf(kw.stat, 1))
    for center in ("mean", "median"):
        lev = levene_family(x, y, center=center)
        if math.isfinite(lev.stat):
            assert lev.p == float(spstats.f.sf(lev.stat, 1, n - 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        fp = fligner_policello(x, y)
    if math.isfinite(fp.stat):
        assert fp.p == float(2.0 * spstats.norm.sf(abs(fp.stat)))


def test_levene_zero_statistic_has_p_one():
    # equal mean deviations, unequal spread within: W = 0 exactly
    x, y = [0.0, 1.0, 3.0, 4.0], [10.0, 11.0, 13.0, 14.0]
    res = levene_family(x, y)
    assert res.stat == 0.0
    assert res.p == 1.0 == float(spstats.f.sf(0.0, 1, 6))


def test_kw_statistic_rounded_below_zero_has_p_one():
    # two equal tied samples: H is 0 in exact arithmetic, -3e-14 in floats,
    # where the chi-square tail of scipy.special is NaN
    x = np.repeat([0.0, 1.0, 2.0, 3.0, 4.0], [6, 4, 8, 9, 6])
    res = kruskal_wallis([x, x[::-1]])
    assert res.stat < 0
    assert res.p == 1.0 == float(spstats.chi2.sf(res.stat, 1))
