import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose
from scipy import stats as spstats

from bcfsim.ranktests import (
    _rank_pair, fligner_policello, kruskal_wallis, levene_family,
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


def test_kw_matches_scipy_two_groups_with_ties():
    rng = np.random.default_rng(4)
    groups = [rng.integers(0, 8, size=n).astype(float) for n in (20, 25)]
    ours = kruskal_wallis(groups)
    ref = spstats.kruskal(*groups)
    assert_allclose(ours.stat, ref.statistic, rtol=1e-12)
    assert_allclose(ours.p, ref.pvalue, rtol=1e-12)


def test_kw_refuses_three_groups():
    with pytest.raises(ValueError, match="needs 2 groups, got 3"):
        kruskal_wallis([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


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
    report = select_and_run(x, y)
    assert report.selected == ("mann_whitney_u", "kruskal_wallis")
    assert report.fligner_policello is None
    assert report.mann_whitney is not None
    assert report.kruskal_wallis is not None
    assert report.levene.p >= 0.05


def test_select_unequal_variances_takes_fligner_policello():
    rng = np.random.default_rng(11)
    x = rng.normal(0, 0.05, size=40)
    y = rng.normal(0, 2.0, size=40)
    report = select_and_run(x, y)
    assert report.selected == ("fligner_policello",)
    assert report.levene.p < 0.05
    assert report.mann_whitney is None
    assert report.kruskal_wallis is None
    assert report.fligner_policello is not None


def test_select_self_comparison_is_null():
    rng = np.random.default_rng(12)
    x = rng.normal(size=30)
    report = select_and_run(x, x.copy())
    # identical samples: dispersion gate passes, location tests see nothing
    assert report.selected == ("mann_whitney_u", "kruskal_wallis")
    assert report.mann_whitney.p >= 0.99
    assert report.kruskal_wallis.p >= 0.99


def test_location_power_smoke():
    # a real shift should be caught by whichever branch runs
    rng = np.random.default_rng(13)
    x = rng.normal(0.0, 1.0, size=50)
    y = rng.normal(1.5, 1.0, size=50)
    report = select_and_run(x, y)
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


@given(_tied.filter(lambda v: len(v) >= 2)
       | st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 3.0]),
                  min_size=2, max_size=40).map(np.array),
       st.integers(1, 39))
def test_rank_pair_tie_term_equals_counts(values, split):
    # any split of the values into x and y has the pooled row's tie term
    split = min(split, len(values) - 1)
    _, tie = _rank_pair(values[np.newaxis, :split],
                        values[np.newaxis, split:])
    _, counts = np.unique(values, return_counts=True)
    assert tie.tolist() == [float(np.sum(counts.astype(float) ** 3
                                         - counts))]


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


# ------------------------------------------------ rows: one call, k samples
# A k-row call must give, bit for bit, what the k one-row calls give. Rows
# are drawn by kind, so one matrix can mix the degenerate branches.

def _row_kinds(n, offset):
    """Strategies for one row of n values, by the branch they reach; rows
    of distinct values made with other offsets share no value."""
    even = n - n % 2
    return [
        # ties
        st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
            lambda v: [float(a) for a in v]),
        # distinct values: Mann-Whitney's exact path when both sizes allow
        st.permutations(range(n)).map(
            lambda v: [0.5 * a + offset for a in v]),
        # constant
        st.floats(0.0, 4.0).map(lambda c: [c] * n),
        # two equally frequent values (an odd n adds their midpoint): zero
        # deviation spread, so Levene is 0/0 or inf by the other row
        st.sampled_from([0.25, 0.5, 1.0, 2.0]).map(
            lambda d: [0.0, 2 * d] * (even // 2) + [d] * (n % 2)),
        # spread out and shifted up: separated from the tied rows
        st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=n,
                 max_size=n).map(lambda v: [10.0 + abs(a) for a in v]),
    ]


@st.composite
def _paired_rows(draw):
    nx = draw(st.integers(2, 12))
    ny = draw(st.integers(2, 12))
    k = draw(st.integers(1, 5))
    x = [draw(st.one_of(_row_kinds(nx, 0.25))) for _ in range(k)]
    y = [draw(st.one_of(_row_kinds(ny, 0.375))) for _ in range(k)]
    return np.array(x), np.array(y)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


_ROW_TESTS = (
    mann_whitney_u,
    lambda x, y: kruskal_wallis([x, y]),
    lambda x, y: levene_family(x, y, center="mean"),
    lambda x, y: levene_family(x, y, center="median"),
    fligner_policello,
)


@given(_paired_rows())
def test_k_rows_equal_k_one_row_calls(pair):
    x, y = pair
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for test in _ROW_TESTS:
            rows = test(x, y)
            assert rows.stat.shape == rows.p.shape == (len(x),)
            ones = [test(a, b) for a, b in zip(x, y)]
            assert all(isinstance(r.stat, float) for r in ones)
            assert _bits(rows.stat) == _bits([r.stat for r in ones])
            assert _bits(rows.p) == _bits([r.p for r in ones])
        reports = select_and_run(x, y)
        assert [repr(r) for r in reports] == [
            repr(select_and_run(a, b)) for a, b in zip(x, y)]


def test_k_rows_reach_every_branch():
    # one matrix whose rows take each degenerate branch, checked row by row
    x = np.array([[1.0, 2.0, 3.0, 4.0],      # exact Mann-Whitney
                  [5.0, 5.0, 5.0, 5.0],      # constant: Levene 0/0
                  [0.0, 2.0, 0.0, 2.0],      # constant deviations ...
                  [1.0, 2.0, 3.0, 4.0]])     # fully separated
    y = np.array([[5.0, 6.0, 7.0, 8.5],
                  [5.0, 5.0, 5.0, 5.0],
                  [0.0, 10.0, 0.0, 10.0],    # ... of another size: inf
                  [10.0, 20.0, 30.0, 40.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        levene = levene_family(x, y)
        fp = fligner_policello(x, y)
        reports = select_and_run(x, y)
    assert levene.stat.tolist()[1:3] == [0.0, math.inf]
    assert levene.p.tolist()[1:3] == [1.0, 0.0]
    assert fp.stat[3] == math.inf and fp.p[3] == 0.0
    assert mann_whitney_u(x, y).p[0] == 2 / 70
    assert kruskal_wallis([x, y]).p[1] == 1.0
    assert [r.selected for r in reports] == [
        ("mann_whitney_u", "kruskal_wallis"),
        ("mann_whitney_u", "kruskal_wallis"),
        ("fligner_policello",),
        ("fligner_policello",)]


def test_row_inputs_are_checked():
    with pytest.raises(ValueError, match="as many rows"):
        mann_whitney_u(np.ones((2, 3)), np.ones((3, 3)))
    with pytest.raises(ValueError, match="one per row"):
        levene_family(np.ones((2, 2, 2)), np.ones((2, 2, 2)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_samples_are_refused(bad):
    with pytest.raises(ValueError, match="^x must hold only finite values"):
        select_and_run([1.0, bad, 3.0], [4.0, 5.0, 6.0])
    with pytest.raises(ValueError, match="^y must hold only finite values"):
        levene_family([1.0, 2.0, 3.0], [[4.0, 5.0, 6.0], [4.0, bad, 6.0]])
    with pytest.raises(ValueError, match="^y must hold only finite values"):
        mann_whitney_u([1.0, 2.0], [bad, 5.0])
    with pytest.raises(ValueError, match="^x must hold only finite values"):
        fligner_policello([bad, 2.0], [4.0, 5.0])
    with pytest.raises(ValueError,
                       match="^group 1 must hold only finite values"):
        kruskal_wallis([[1.0, 2.0], [4.0, bad]])


# ------------------------------------- Fligner-Policello from its definition

def _placements(sample, other):
    """Each value's placement, by brute force: #(other < v) + 1/2
    #(other = v)."""
    return np.array([np.sum(other < v) + 0.5 * np.sum(other == v)
                     for v in sample])


def _fp_statistic_by_definition(x, y):
    """U-hat from brute-force placements (Fligner & Policello 1981), in the
    order of operations the module uses; +-inf or 0 when the placement
    variances vanish."""
    p_x, q_y = _placements(x, y), _placements(y, x)
    p_bar, q_bar = p_x.mean(), q_y.mean()
    v_x = ((p_x - p_bar) ** 2).sum()
    v_y = ((q_y - q_bar) ** 2).sum()
    num = q_y.sum() - p_x.sum()
    denom = 2.0 * np.sqrt(v_x + v_y + p_bar * q_bar)
    if denom == 0:
        return 0.0 if num == 0 else math.copysign(math.inf, num)
    return float(num / denom)


_all_tied = st.tuples(st.integers(0, 4), st.integers(1, 40),
                      st.integers(1, 40)).map(
    lambda c: (np.full(c[1], float(c[0])), np.full(c[2], float(c[0]))))
# every y above every x, either way round
_separated = st.tuples(_tied, _tied, st.booleans()).map(
    lambda c: (c[0], c[1] + 10.0) if c[2] else (c[0] + 10.0, c[1]))


@given(st.tuples(_tied, _tied) | _all_tied | _separated)
def test_fp_statistic_equals_its_definition(pair):
    x, y = pair
    placed, _ = _rank_pair(x[np.newaxis], y[np.newaxis])
    assert placed[0].tolist() == (_placements(x, y).tolist()
                                  + _placements(y, x).tolist())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        res = fligner_policello(x, y)
    assert _bits(res.stat) == _bits(_fp_statistic_by_definition(x, y))


# ------------------------------- select_and_run's small-sample warning

def _gated_rows(nx, ny, gates):
    """One row pair per gate: True gives x a hundredth of y's spread, so
    Levene rejects; False gives both the same evenly spaced values."""
    x = np.array([np.linspace(-1.0, 1.0, nx) * (0.01 if g else 1.0)
                  for g in gates])
    y = np.array([np.linspace(-1.0, 1.0, ny) for _ in gates])
    return x, y


@pytest.mark.parametrize("nx, ny", [(11, 12), (12, 11), (5, 30),
                                    (12, 12), (20, 15)])
@pytest.mark.parametrize("gates", [(False,), (True,), (False, False, True),
                                   (False, False)])
def test_select_warns_exactly_when_a_gated_row_is_small(nx, ny, gates):
    x, y = _gated_rows(nx, ny, gates)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reports = select_and_run(x, y)
    assert [r.levene.p < 0.05 for r in reports] == list(gates)
    small = min(nx, ny) < 12 and any(gates)
    assert [str(w.message) for w in caught
            if w.category is UserWarning] == (
        ["fligner_policello normal approximation is unreliable below 12 "
         "observations per group"] if small else [])


# ------------------------------------- dispersion statistics that overflow

@pytest.mark.parametrize("x, y, name", [
    # a deviation's square overflows within the named sample
    ([1e308, 0.1, 0.2], [0.1, 0.2, 0.3], "x"),
    ([0.1, 0.2, 0.3], [1e308, 0.1, 0.2], "y"),
    # the deviation itself overflows
    ([0.1, 0.2, 0.3], [1e308, -1e308, 0.2], "y"),
    # no spread within, but the named sample's deviations are too large
    # for the between-group sum of squares
    ([-1e300, 1e300], [0.0, 0.0], "x"),
    ([0.0, 0.0], [-1e300, 1e300], "y"),
], ids=["x_within", "y_within", "y_deviation", "x_between", "y_between"])
@pytest.mark.parametrize("center", ["mean", "median"])
def test_levene_names_a_sample_whose_deviations_overflow(x, y, name,
                                                         center):
    # a ValueError naming the sample, with no overflow warning first (the
    # suite turns a RuntimeWarning into an error)
    with pytest.raises(ValueError, match=rf"^{name} is too spread out for "
                       rf"the {center}-centred Levene test"):
        levene_family(x, y, center)


def test_select_and_run_names_a_row_pair_whose_deviations_overflow():
    x = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 1.0]])
    y = np.array([[1.0, 2.5, 3.0], [0.0, 1e200, -1e200]])
    with pytest.raises(ValueError, match="^y is too spread out"):
        select_and_run(x, y)
    # rows whose statistics fit are tested as before
    assert select_and_run(x[:1], y[:1])[0] == select_and_run(x[0], y[0])

