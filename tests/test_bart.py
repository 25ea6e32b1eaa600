import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import integrate, stats as spstats
from scipy.special import log_ndtr

from bcfsim.bart import (
    HALF_NORMAL_MEDIAN, ChainConfig, FixedScale, FixedSigma, ForestPrior,
    ForestSampler, HalfCauchy, HalfNormal, SigmaPrior, _floats, _llm,
    _log_like_ratio, _probit_latent, _sigma_prior_scale, _slice_sample,
    fit_binary_probit, fit_continuous,
)
from bcfsim.bcf import BcfConfig, fit_bcf, propensity_column
from bcfsim.trees import (
    SplitTable, _cut_ranges, _scan, _walk, apply_move, cutpoint_bins,
    make_cutpoint_grids, propose_move,
)

# one tree that can never split (tests pair this with constant X), with the
# noise sd pinned
_STUMP = ForestPrior(num_trees=1, leaf_scale_prior=FixedScale(0.9))
_STUMP_SIGMA = FixedSigma(1.2)


# ------------------------------------------------------- leaf log marginal
# ``_llm(n, s, sigma**2, leaf_sd**2)``: the log marginal likelihood of a
# node's residuals with the leaf mean integrated out, omitting the residual
# sum of squares

def test_leaf_log_marginal_single_zero_residual():
    # -0.5 * log(4 * pi), one observation at zero with unit scales
    assert_allclose(_llm(1, 0.0, 1.0, 1.0),
                    -1.2655121234846454, rtol=1e-13)


def test_leaf_log_marginal_empty_node():
    assert _llm(0, 0.0, 1.0, 1.0) == 0.0


@pytest.mark.parametrize("sigma,leaf_sd,seed", [
    (1.0, 1.0, 0), (0.7, 2.5, 1), (2.0, 0.3, 2),
])
def test_leaf_log_marginal_matches_quadrature(sigma, leaf_sd, seed):
    # integrate the leaf mean out numerically; the function omits the
    # residual sum-of-squares term, which cancels between partitions of the
    # same rows, so add it back before comparing
    rng = np.random.default_rng(seed)
    r = rng.normal(size=6)

    def integrand(theta):
        like = np.prod(spstats.norm.pdf(r, loc=theta, scale=sigma))
        return like * spstats.norm.pdf(theta, scale=leaf_sd)

    lo = r.mean() - 8 * (sigma + leaf_sd)
    hi = r.mean() + 8 * (sigma + leaf_sd)
    numeric, _ = integrate.quad(integrand, lo, hi)
    full = (_llm(len(r), float(r.sum()), sigma**2, leaf_sd**2)
            - float(r @ r) / (2 * sigma**2))
    assert_allclose(full, math.log(numeric), rtol=1e-9)


def test_leaf_log_marginal_split_ratio_is_ssr_free():
    # the dropped term is shared by parent and children, so the grow ratio
    # computed from this function equals the ratio of full marginals
    rng = np.random.default_rng(3)
    r = rng.normal(size=10)
    left, right = r[:4], r[4:]
    ratio = (
        _llm(4, float(left.sum()), 0.8**2, 1.1**2)
        + _llm(6, float(right.sum()), 0.8**2, 1.1**2)
        - _llm(10, float(r.sum()), 0.8**2, 1.1**2)
    )
    assert math.isfinite(ratio)
    # same quantity from the explicit closed form including the SSR terms
    def full(v, n):
        s2, l2 = 0.8**2, 1.1**2
        return (-0.5 * n * math.log(2 * math.pi * s2)
                - 0.5 * math.log((s2 + n * l2) / s2)
                - float(v @ v) / (2 * s2)
                + l2 * float(v.sum())**2 / (2 * s2 * (s2 + n * l2)))
    assert_allclose(ratio, full(left, 4) + full(right, 6) - full(r, 10),
                    rtol=1e-12)


@pytest.mark.parametrize("weighted", [False, True])
def test_log_like_ratio_matches_leaf_reference(weighted):
    # for every move kind the ratio is the log marginal of the leaves the
    # move creates less that of the leaves it removes, each leaf summed
    # from scratch over its weighted rows; the child sums handed on to the
    # leaf redraw are exactly those gathered sums
    rng = np.random.default_rng(40 + weighted)
    n = 60
    X = rng.random((n, 3))
    weights = rng.random(n) < 0.6 if weighted else None
    table = SplitTable(cutpoint_bins(X, make_cutpoint_grids(X, 12)), weights)
    tree = table.new_tree()
    resid = rng.normal(size=n)
    sig2, ls2 = 0.7**2, 0.4**2

    def stats(rowset):
        wrows = rowset.wrows
        return len(wrows), float(resid[wrows].sum())

    seen = {"grow": 0, "prune": 0, "change": 0}
    for _ in range(600):
        prop = propose_move(tree, table, rng, ForestPrior())
        if prop is None:
            continue
        node = prop.node
        before = ([node.rowset] if node.is_leaf
                  else [node.left.rowset, node.right.rowset])
        after = [node.rowset] if prop.children is None else prop.children
        want = (sum(_llm(*stats(rs), sig2, ls2) for rs in after)
                - sum(_llm(*stats(rs), sig2, ls2) for rs in before))
        ratio, new, old = _log_like_ratio(prop, resid, sig2, ls2)
        assert ratio == pytest.approx(want, rel=1e-12)
        assert new == (None if prop.children is None
                       else [stats(rs) for rs in after])
        assert old == (None if node.is_leaf else [stats(rs) for rs in before])
        kind = ("prune" if prop.children is None
                else "grow" if node.is_leaf else "change")
        seen[kind] += 1
        if rng.random() < 0.5:
            apply_move(tree, prop)
    assert min(seen.values()) >= 30


# ------------------------------------------------------------ configuration

def test_config_validation():
    # every setting refuses a bad value when it is built
    ForestPrior()
    ChainConfig()
    BcfConfig(sigma_prior=FixedSigma(0.5))
    bad = [
        lambda: ForestPrior(num_trees=0),
        lambda: ForestPrior(base=0.0),
        lambda: ForestPrior(base=1.2),
        lambda: ForestPrior(power=-1.0),
        lambda: ChainConfig(iterations=0),
        lambda: ChainConfig(burn_in=50, iterations=50),
        lambda: ChainConfig(burn_in=-1),
        lambda: ForestPrior(cutpoints_per_feature=0),
        lambda: ForestPrior(leaf_scale_prior=object()),
        lambda: BcfConfig(sigma_prior=FixedSigma(0.0)),
        lambda: BcfConfig(sigma_prior=FixedSigma(math.nan)),
        lambda: BcfConfig(sigma_prior=FixedSigma(math.inf)),
        lambda: BcfConfig(sigma_prior=SigmaPrior(q=1.5)),
        lambda: BcfConfig(sigma_prior=SigmaPrior(q=0.0)),
        lambda: BcfConfig(sigma_prior=SigmaPrior(q=math.nan)),
        lambda: BcfConfig(sigma_prior=SigmaPrior(nu=-1.0)),
        lambda: BcfConfig(sigma_prior=SigmaPrior(nu=0.0)),
        lambda: BcfConfig(sigma_prior=SigmaPrior(nu=math.inf)),
        lambda: BcfConfig(sigma_prior=SigmaPrior(nu=math.nan)),
        lambda: ForestPrior(leaf_scale_prior=FixedScale(math.nan)),
        lambda: ForestPrior(leaf_scale_prior=FixedScale(-1.0)),
        lambda: ForestPrior(leaf_scale_prior=HalfCauchy(0.0)),
        lambda: ForestPrior(leaf_scale_prior=HalfCauchy(math.inf)),
        lambda: ForestPrior(leaf_scale_prior=HalfNormal(-1.0)),
    ]
    for build in bad:
        with pytest.raises(ValueError):
            build()
    with pytest.raises(ValueError, match=r"0 < q < 1: FixedSigma\(value=-1"):
        FixedSigma(-1.0)
    # a noise prior of another type is built, so the fit refuses it before
    # any sampling, naming it
    X, y = np.random.default_rng(0).random((6, 1)), np.arange(6.0)
    with pytest.raises(ValueError, match=r"^sigma_prior must be a SigmaPrior "
                                         r"or a FixedSigma, got 1\.0$"):
        fit_continuous(X, y, sigma_prior=1.0)


@pytest.mark.parametrize("build, field", [
    (lambda: ForestPrior(num_trees=2.5), "num_trees"),
    (lambda: ForestPrior(num_trees=4.0), "num_trees"),
    (lambda: ForestPrior(num_trees=True), "num_trees"),
    (lambda: ForestPrior(cutpoints_per_feature=7.5), "cutpoints_per_feature"),
    (lambda: ForestPrior(cutpoints_per_feature=True),
     "cutpoints_per_feature"),
    (lambda: ForestPrior(power=math.nan), "power"),
    (lambda: ForestPrior(power=math.inf), "power"),
    (lambda: ChainConfig(3.5, 1), "iterations"),
    (lambda: ChainConfig(iterations=True, burn_in=0), "iterations"),
    (lambda: ChainConfig(10, 2.0), "burn_in"),
    (lambda: ChainConfig(10, False), "burn_in"),
])
def test_config_refuses_non_integer_counts_and_non_finite_power(build, field):
    # each used to build and then fail inside the sampler: a float count
    # with a TypeError, a NaN power by rejecting every Grow without error
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: SigmaPrior(nu="3"), r"0 < q < 1: SigmaPrior\(nu='3', q=0\.9\)$"),
    (lambda: FixedSigma(True), r"0 < q < 1: FixedSigma\(value=True\)$"),
    (lambda: FixedSigma(10**400), r"0 < q < 1: FixedSigma\(value=1000"),
    (lambda: ForestPrior(base=True), r"^base must be in \(0, 1\], got True$"),
    (lambda: ForestPrior(power="2"),
     r"^power must be finite and nonnegative, got '2'$"),
    (lambda: ForestPrior(leaf_scale_prior=HalfCauchy(True)),
     r"^scale must be finite and positive, got HalfCauchy\(scale=True\)$"),
    (lambda: ForestPrior(leaf_scale_prior=HalfNormal("1")),
     r"^scale must be finite and positive, got HalfNormal\(scale='1'\)$"),
    (lambda: ForestPrior(leaf_scale_prior=FixedScale(None)),
     r"^scale must be finite and positive, got FixedScale\(scale=None\)$"),
], ids=["nu_string", "value_bool", "value_huge_int", "base_bool",
        "power_string", "half_cauchy_bool", "half_normal_string",
        "fixed_scale_none"])
def test_config_refuses_a_value_that_is_not_a_real_number(build, message):
    # a string used to raise a bare TypeError, an int beyond float64 an
    # OverflowError, and a bool was taken as 0 or 1
    with pytest.raises(ValueError, match=message):
        build()


def test_config_accepts_numpy_reals():
    assert SigmaPrior(nu=np.float32(3.0), q=np.float64(0.9)).nu == 3.0
    assert ForestPrior(base=np.float64(0.5), power=np.int64(2)).power == 2
    prior = ForestPrior(leaf_scale_prior=HalfCauchy(np.float32(2.0)))
    assert prior.leaf_scale_prior.scale == 2.0


def test_fits_refuse_an_X_with_no_columns():
    # no tree could ever split, so every draw would be a constant
    X, d, y = np.empty((30, 0)), np.arange(30) % 2, np.arange(30.0)
    fits = [lambda: fit_continuous(X, y), lambda: fit_binary_probit(X, d),
            lambda: propensity_column("no_propensity", X, d, None,
                                      BcfConfig(), 0),
            lambda: fit_bcf(X, d, y, "no_propensity", np.full(30, 0.5))]
    for fit in fits:
        with pytest.raises(ValueError, match="^X must be a 2-D array with "
                                             "rows and columns$"):
            fit()


def test_fits_refuse_an_X_with_no_rows():
    # numpy's "zero-size array to reduction operation minimum" used to
    # reach the caller of the binary fits
    X, empty = np.empty((0, 2)), np.empty(0)
    fits = [lambda: fit_continuous(X, empty),
            lambda: fit_binary_probit(X, empty),
            lambda: propensity_column("no_propensity", X, empty, None,
                                      BcfConfig(), 0),
            lambda: fit_bcf(X, empty, empty, "no_propensity", empty)]
    for fit in fits:
        with pytest.raises(ValueError, match="^X must be a 2-D array with "
                                             "rows and columns$"):
            fit()


def test_a_one_row_fit_names_y():
    with pytest.raises(ValueError, match="^y must hold at least 2 values$"):
        fit_continuous(np.zeros((1, 2)), [0.5])


@pytest.mark.parametrize("value, message", [
    ("a", "could not convert string to float: 'a'"),
    ([1.0, "a"], "could not convert string to float: 'a'"),
    ([1, 10 ** 400], "int too large to convert to float"),
    ([[1.0, 2.0], [3.0]], "setting an array element with a sequence"),
    ({"a": 1}, "float() argument must be"),
])
def test_floats_names_a_value_numpy_cannot_convert(value, message):
    with pytest.raises(ValueError, match=re.escape(f"w must hold numbers: "
                                                   f"{message}")):
        _floats(value, "w")


@pytest.mark.parametrize("value", [math.nan, [1.0, math.inf],
                                   [[-math.inf]], [1.0, None], "nan"])
def test_floats_refuses_a_nan_or_inf(value):
    with pytest.raises(ValueError,
                       match=r"^w must be finite \(no NaN or inf\)$"):
        _floats(value, "w")


def test_floats_keeps_the_values_of_numbers():
    assert_array_equal(_floats([True, 2, 0.5, "1e3"], "w"),
                       [1.0, 2.0, 0.5, 1000.0])
    assert _floats(np.int64(3), "w").dtype == float


def test_config_accepts_numpy_integer_counts():
    prior = ForestPrior(num_trees=np.int64(3),
                        cutpoints_per_feature=np.int32(5))
    assert prior.num_trees == 3
    assert ChainConfig(np.int64(4), np.int64(2)).n_retained == 2


def test_sigma_prior_scale_is_the_scipy_stats_chi2_quantile():
    # the scale takes the chi2_nu quantile from scipy.special.gammaincinv;
    # every value must equal the scipy.stats.chi2.ppf expression it replaced
    for nu in (0.5, 1.0, 2.0, 3.0, 4.5, 10.0, 30.0, 100.0, 1000.0):
        for q in np.linspace(0.01, 0.99, 99):
            prior = SigmaPrior(nu=nu, q=float(q))
            for var_y in (0.37, 1.0, 25.0):
                ref = (float(spstats.chi2.ppf(1.0 - prior.q, nu))
                       * var_y / nu)
                assert _sigma_prior_scale(prior, var_y) == ref, (nu, q)


def test_config_retained_count():
    assert ChainConfig(iterations=10, burn_in=4).n_retained == 6
    assert ChainConfig(iterations=1, burn_in=0).n_retained == 1
    assert ChainConfig(iterations=2000, burn_in=1000).n_retained == 1000


def test_scale_prior_initial_points():
    assert HalfCauchy(2.0).initial() == 2.0
    assert_allclose(HalfNormal(1.0).initial(), HALF_NORMAL_MEDIAN)
    assert_allclose(HALF_NORMAL_MEDIAN, 0.6744897501960817, rtol=1e-15)
    assert FixedScale(0.4).initial() == 0.4
    # densities up to their normalizing constants
    assert_allclose(HalfCauchy(2.0).log_pdf(2.0), -math.log(2.0))
    assert HalfNormal(3.0).log_pdf(0.0) == 0.0


@pytest.mark.parametrize("kind", [HalfCauchy, HalfNormal])
def test_a_scale_past_float64_has_density_zero(kind):
    # the square of 1e200 overflows float64; it used to raise OverflowError
    # out of the slice step instead of being rejected there
    assert kind(1.0).log_pdf(1e200) == -math.inf
    assert kind(1e-300).log_pdf(1e10) == -math.inf


def test_leaf_sd_scaling():
    X = np.random.default_rng(0).random((10, 1))
    sampler = ForestSampler(X, ForestPrior(num_trees=25,
                                           leaf_scale_prior=FixedScale(1.5)))
    assert_allclose(sampler.leaf_sd, 0.3)


def test_sampler_input_validation():
    with pytest.raises(ValueError):
        ForestSampler(np.arange(5.0), ForestPrior())
    X = np.random.default_rng(1).random((6, 2))
    with pytest.raises(ValueError):
        ForestSampler(X, ForestPrior(), weights=np.ones(5))


def test_sampler_refuses_an_X_with_no_rows_or_no_columns():
    # the fits refuse an X with no columns before they build a sampler; the
    # sampler refuses it too, as no tree of it could ever split
    for X in (np.empty((10, 0)), np.empty((0, 2))):
        with pytest.raises(ValueError, match="^X must be a 2-D array with "
                                             "rows and columns$"):
            ForestSampler(X, ForestPrior(num_trees=2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sampler_rejects_non_finite_covariates(bad):
    # a NaN column would get an all-NaN grid and route arbitrarily
    X = np.random.default_rng(1).random((6, 2))
    X[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        ForestSampler(X, ForestPrior())
    with pytest.raises(ValueError, match="finite"):
        fit_binary_probit(X, np.array([0, 1, 0, 1, 0, 1]))


# ------------------------------------------------------------ slice sampler

def test_slice_sampler_standard_normal():
    rng = np.random.default_rng(4)
    log_density = lambda v: -0.5 * v * v
    x = 0.0
    samples = np.empty(4000)
    for i in range(len(samples)):
        x = _slice_sample(log_density, x, rng)
        samples[i] = x
    assert abs(samples.mean()) < 0.1
    assert abs(samples.std() - 1.0) < 0.1


@pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
def test_slice_sampler_rejects_non_finite_start(start):
    # a NaN start density used to make the shrink loop spin forever
    calls = []

    def log_density(v):
        calls.append(v)
        return start

    with pytest.raises(FloatingPointError, match="start point"):
        _slice_sample(log_density, 0.0, np.random.default_rng(0))
    assert len(calls) == 1


def test_slice_sampler_shrink_loop_is_bounded():
    # the start density is finite, but so large that adding log(u) leaves
    # the threshold equal to it, so no point of the bracket clears it
    calls = []

    def log_density(v):
        calls.append(v)
        return 1e300 if v == 0.0 else math.nan

    with pytest.raises(FloatingPointError, match="shrink steps"):
        _slice_sample(log_density, 0.0, np.random.default_rng(1))
    assert len(calls) < 20_000


# ------------------------------------------------- conjugate stump behavior

def test_stump_matches_normal_mean_posterior():
    # constant X has no valid cutpoints, so the single tree stays a root
    # leaf and every sweep redraws it from the exact conjugate conditional
    rng = np.random.default_rng(5)
    n = 40
    X = np.zeros((n, 1))
    y = rng.normal(0.8, 1.0, size=n)
    chain = ChainConfig(iterations=3000, burn_in=500)
    post = fit_continuous(X, y, _STUMP, chain, _STUMP_SIGMA, seed=99)

    leaf_var = 0.9**2
    sig2 = 1.2**2
    v_star = 1.0 / (1.0 / leaf_var + n / sig2)
    m_star = v_star * float(y.sum()) / sig2

    # all units share the one leaf (up to bookkeeping roundoff)
    assert np.ptp(post.draws, axis=1).max() < 1e-12
    vals = post.draws[:, 0]
    k = len(vals)
    assert k == chain.n_retained
    assert abs(vals.mean() - m_star) < 4.0 * math.sqrt(v_star / k)
    assert abs(vals.var(ddof=1) / v_star - 1.0) < 0.12
    # no structural move can ever be legal here
    assert post.acceptance_rate == 0.0
    assert_array_equal(post.sigma_draws, np.full(k, 1.2))


def test_stump_draws_are_serially_independent():
    # with the tree frozen, the leaf redraw ignores its previous value
    X = np.zeros((20, 1))
    y = np.random.default_rng(6).normal(size=20)
    chain = ChainConfig(iterations=2000, burn_in=0)
    post = fit_continuous(X, y, _STUMP, chain, _STUMP_SIGMA, seed=1)
    vals = post.draws[:, 0]
    lag1 = np.corrcoef(vals[:-1], vals[1:])[0, 1]
    assert abs(lag1) < 0.08


# -------------------------------------------------------- residual contract

def test_residual_bookkeeping_unweighted():
    rng = np.random.default_rng(7)
    X = rng.random((60, 3))
    y = np.sin(3 * X[:, 0]) + rng.normal(0, 0.3, size=60)
    sampler = ForestSampler(X, ForestPrior(num_trees=5,
                                           leaf_scale_prior=FixedScale(1.0)))
    resid = y.copy()
    for _ in range(30):
        sampler.sweep(resid, 0.5, rng)
    assert_allclose(resid, y - sampler.current_fit(), atol=1e-10)
    assert 0.0 < sampler.acceptance_rate < 1.0


def test_residual_bookkeeping_weighted():
    # zero-weight rows get predictions but never absorb residual updates
    rng = np.random.default_rng(8)
    n = 50
    X = rng.random((n, 2))
    z = (rng.random(n) < 0.5).astype(int)
    y = 0.5 * z * X[:, 0] + rng.normal(0, 0.2, size=n)
    sampler = ForestSampler(
        X, ForestPrior(num_trees=4, leaf_scale_prior=FixedScale(0.8)),
        weights=z,
    )
    resid = y.copy()
    for _ in range(25):
        sampler.sweep(resid, 0.4, rng)
    fit = sampler.current_fit()
    assert_allclose(resid, y - z * fit, atol=1e-10)
    # untreated rows keep their original residuals forever
    assert_array_equal(resid[z == 0], y[z == 0])


@pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan])
def test_weights_must_be_zero_or_one(bad):
    # a weight is 0 or 1; any other value would count as 1
    X = np.random.default_rng(9).random((10, 2))
    with pytest.raises(ValueError, match="weights must be binary"):
        ForestSampler(X, ForestPrior(num_trees=2), weights=np.full(10, bad))


def _check_cached_ranges(rowset, bins):
    # a filled cache equals what a fresh pass over the rows computes
    counts, starts = _cut_ranges(bins, rowset.rows)
    if rowset.splittable is not None:
        assert rowset.splittable == bool(counts.any())
    if rowset.cutinfo is not None:
        assert_array_equal(rowset.cutinfo[0], counts)
        assert_array_equal(rowset.cutinfo[1], starts)
        assert_array_equal(rowset.cutinfo[2], np.flatnonzero(counts))


def _check_incremental_state(sampler):
    # the kept per-tree state equals what a full rescan computes, and the
    # leaves the sampler reads equal a fresh walk's; returns how many cached
    # scans and table-built children it checked
    table = sampler.splits
    n = table.bins.shape[0]
    weights = (np.ones(n, dtype=bool) if table.weights is None
               else table.weights)
    shared = {id(rs) for pair in table.root_splits.values() for rs in pair}
    scans = from_table = 0
    for tree, fit in zip(sampler.trees, sampler.fits):
        assert tree.root.rowset is table.root
        read, walked = tree.leaves(), _walk(tree.root)[0]
        assert len(read) == len(walked)
        assert all(a is b for a, b in zip(read, walked))
        cached = tree.scan
        if cached is not None:
            tree.scan = None
            leaves, singly = _scan(tree)
            for kept, walked in ((cached[0], leaves), (cached[1], singly)):
                assert len(kept) == len(walked)
                assert all(a is b for a, b in zip(kept, walked))
            scans += 1
        dense = np.zeros(n)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            rowset = node.rowset
            assert_array_equal(rowset.wrows, rowset.rows[weights[rowset.rows]])
            _check_cached_ranges(rowset, table.bins)
            if node.depth == 1 and id(rowset) in shared:
                assert not rowset.rows.flags.writeable
                from_table += 1
            if node.is_leaf:
                dense[rowset.wrows] = node.value
            else:
                stack.extend([node.left, node.right])
        assert_array_equal(fit, dense)
    return scans, from_table


# sweeps of the incremental-state check: at least the first number, then on
# until some tree holds a cached scan and some child came from the root
# split table when checked, failing at the second
_MIN_SWEEPS, _MAX_SWEEPS = 12, 200


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       weighting=st.sampled_from(["none", "some", "zero"]))
@example(seed=478, weighting="none")
def test_incremental_state_matches_rescan(seed, weighting):
    # a 4-level column, a mostly-zero 0/1 column and a constant one give at
    # most 8 distinct rows, so a flat depth prior soon grows trees with
    # unsplittable multi-row leaves, often next to a splittable sibling;
    # all-zero weights sample the tree prior
    rng = np.random.default_rng(seed)
    n = 40
    X = np.column_stack([
        rng.integers(0, 4, size=n).astype(float),
        (rng.random(n) < 0.1).astype(float),
        np.full(n, 2.0),
    ])
    if weighting == "some":
        weights = (rng.random(n) < 0.6).astype(int)
    else:
        weights = np.zeros(n) if weighting == "zero" else None
    prior = ForestPrior(num_trees=3, base=0.95, power=0.5,
                        cutpoints_per_feature=6,
                        leaf_scale_prior=HalfNormal(1.0))
    sampler = ForestSampler(X, prior, weights=weights)
    y = rng.normal(size=n)
    resid = y.copy()
    checked = np.zeros(2, dtype=int)
    sweeps = 0
    while sweeps < _MIN_SWEEPS or checked.min() == 0:
        assert sweeps < _MAX_SWEEPS, (
            f"(cached scans, table children) checked {checked.tolist()} "
            f"after {sweeps} sweeps")
        sampler.sweep(resid, 0.7, rng)
        sweeps += 1
        checked += _check_incremental_state(sampler)
        assert_allclose(resid, y - sampler.fits.sum(axis=0), atol=1e-10)
    assert sampler.accepts > 0


# -------------------------------------------------------- continuous fitting

def test_fit_continuous_shapes_and_determinism():
    rng = np.random.default_rng(9)
    X = rng.random((30, 2))
    y = rng.normal(size=30)
    prior = ForestPrior(num_trees=3)
    chain = ChainConfig(iterations=10, burn_in=4)
    a = fit_continuous(X, y, prior, chain, seed=11)
    b = fit_continuous(X, y, prior, chain, seed=11)
    c = fit_continuous(X, y, prior, chain, seed=12)
    assert a.draws.shape == (6, 30)
    assert a.sigma_draws.shape == (6,)
    assert a.probability_draws is None
    assert_array_equal(a.draws, b.draws)
    assert_array_equal(a.sigma_draws, b.sigma_draws)
    assert not np.array_equal(a.draws, c.draws)


def test_fit_continuous_affine_equivariance():
    # standardization makes the fit commute with affine changes of y
    rng = np.random.default_rng(10)
    X = rng.random((40, 2))
    y = np.cos(4 * X[:, 0]) + rng.normal(0, 0.4, size=40)
    prior = ForestPrior(num_trees=8)
    chain = ChainConfig(iterations=60, burn_in=20)
    a = fit_continuous(X, y, prior, chain, seed=3)
    b = fit_continuous(X, 5.0 + 3.0 * y, prior, chain, seed=3)
    assert_allclose(b.draws, 5.0 + 3.0 * a.draws, rtol=1e-9, atol=1e-9)
    assert_allclose(b.sigma_draws, 3.0 * a.sigma_draws, rtol=1e-9)


def test_fit_continuous_input_validation():
    X = np.random.default_rng(11).random((10, 2))
    with pytest.raises(ValueError):
        fit_continuous(X, np.zeros(9))
    with pytest.raises(ValueError):
        fit_continuous(np.zeros(10), np.zeros(10))
    with pytest.raises(ValueError):
        fit_continuous(np.zeros((1, 1)), np.zeros(1))
    with pytest.raises(ValueError, match="1-D"):
        fit_continuous(X, np.zeros((10, 1)))
    with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
        fit_continuous(X, np.zeros(10), seed=-1)
    with pytest.raises(ValueError, match="^seed must be an integer"):
        fit_binary_probit(X, np.arange(10) % 2, seed=2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_continuous_rejects_non_finite_inputs(bad):
    rng = np.random.default_rng(11)
    X, y = rng.random((10, 2)), rng.random(10)
    prior = ForestPrior(num_trees=2)
    chain = ChainConfig(iterations=2, burn_in=1)
    y_bad = y.copy()
    y_bad[4] = bad
    with pytest.raises(ValueError, match="finite"):
        fit_continuous(X, y_bad, prior, chain)
    X_bad = X.copy()
    X_bad[4, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        fit_continuous(X_bad, y, prior, chain)


@pytest.mark.parametrize("y", [
    pytest.param(np.linspace(-1.0, 1.0, 10) * 1e154, id="sum_of_squares"),
    pytest.param(np.linspace(-1.0, 1.0, 10) * 1e160, id="square"),
    pytest.param(np.full(10, 1.5e308), id="mean"),
])
def test_fit_continuous_refuses_an_outcome_whose_spread_overflows(y):
    # y is finite, but its mean or sd is not in float64, so the standardized
    # outcome and every draw would be NaN; the refusal warns about nothing
    X = np.random.default_rng(11).random((10, 2))
    with pytest.raises(ValueError, match=r"^y must have a mean and standard "
                                         r"deviation that fit in float64"):
        fit_continuous(X, y, ForestPrior(num_trees=2),
                       ChainConfig(iterations=2, burn_in=1))


def test_fit_continuous_fits_an_outcome_at_1e150():
    # the largest spread the refusal above leaves: draws on y's scale
    X = np.random.default_rng(11).random((10, 2))
    y = np.linspace(-1.0, 1.0, 10) * 1e150
    post = fit_continuous(X, y, ForestPrior(num_trees=2),
                          ChainConfig(iterations=4, burn_in=2))
    assert np.isfinite(post.draws).all()
    assert np.isfinite(post.sigma_draws).all()


def test_fit_continuous_recovers_step_function():
    rng = np.random.default_rng(12)
    n = 150
    X = rng.random((n, 2))
    truth = 2.0 * (X[:, 0] > 0.5)
    y = truth + rng.normal(0, 0.3, size=n)
    prior = ForestPrior(num_trees=20, leaf_scale_prior=HalfCauchy(2.0))
    chain = ChainConfig(iterations=400, burn_in=200)
    post = fit_continuous(X, y, prior, chain, seed=13)
    fitted = post.draws.mean(axis=0)
    rmse = math.sqrt(float(np.mean((fitted - truth) ** 2)))
    assert rmse < 0.25
    assert post.sigma_draws.mean() < 0.6


def test_fit_continuous_sigma_recovery():
    # pure noise: trees should stay small and sigma should find the truth
    rng = np.random.default_rng(14)
    n = 200
    X = rng.random((n, 3))
    y = rng.normal(0, 2.0, size=n)
    prior = ForestPrior(num_trees=20, leaf_scale_prior=HalfCauchy(2.0))
    chain = ChainConfig(iterations=500, burn_in=250)
    post = fit_continuous(X, y, prior, chain, seed=15)
    assert 1.7 < post.sigma_draws.mean() < 2.3


def test_sigma_median_brackets_unit_noise():
    # n = 250 with unit noise around a smooth signal: every sigma draw is
    # positive and the posterior median lands near 1
    rng = np.random.default_rng(24)
    n = 250
    X = rng.random((n, 3))
    y = np.sin(4.0 * X[:, 0]) + X[:, 1] + rng.normal(0.0, 1.0, size=n)
    prior = ForestPrior(num_trees=20, leaf_scale_prior=HalfCauchy(2.0))
    chain = ChainConfig(iterations=500, burn_in=250)
    post = fit_continuous(X, y, prior, chain, seed=25)
    assert np.all(post.sigma_draws > 0)
    assert 0.8 < float(np.median(post.sigma_draws)) < 1.2


def test_fixed_sigma_is_exact():
    rng = np.random.default_rng(16)
    X = rng.random((25, 2))
    y = rng.normal(size=25)
    chain = ChainConfig(iterations=30, burn_in=10)
    post = fit_continuous(X, y, ForestPrior(num_trees=4), chain,
                          FixedSigma(0.7), seed=17)
    assert_array_equal(post.sigma_draws, np.full(chain.n_retained, 0.7))


def test_half_cauchy_scale_actually_moves():
    rng = np.random.default_rng(18)
    X = rng.random((50, 2))
    sampler = ForestSampler(
        X, ForestPrior(num_trees=5, leaf_scale_prior=HalfCauchy(1.0)))
    start = sampler.forest_scale
    resid = rng.normal(size=50)
    for _ in range(10):
        sampler.sweep(resid, 1.0, rng)
    assert sampler.forest_scale != start
    assert sampler.forest_scale > 0


# ------------------------------------------------------------- prior sampling

def test_prior_only_root_split_frequency():
    # with every weight zero no row informs the forest, so the chain
    # targets the tree prior, whose marginal probability that the root is
    # internal equals ``base``; the chain is thinned hard enough that
    # retained draws are near-independent and a binomial 3-standard-error
    # band applies
    rng = np.random.default_rng(19)
    X = rng.random((100, 2))
    prior = ForestPrior(num_trees=1, base=0.3, power=2.0,
                        leaf_scale_prior=FixedScale(1.0))
    sampler = ForestSampler(X, prior, weights=np.zeros(100))
    resid = np.zeros(100)
    draws, thin = 5000, 25
    hits = 0
    for _ in range(draws):
        for _ in range(thin):
            sampler.sweep(resid, 1.0, rng)
        hits += not sampler.trees[0].root.is_leaf
    se = math.sqrt(0.3 * 0.7 / draws)
    assert abs(hits / draws - 0.3) < 3.0 * se


# --------------------------------------------------------------- probit BART

def test_probit_validation():
    X = np.random.default_rng(20).random((20, 2))
    with pytest.raises(ValueError, match="d must be binary"):
        fit_binary_probit(X, np.full(20, 2))
    with pytest.raises(ValueError):
        fit_binary_probit(X, np.zeros(20))
    with pytest.raises(ValueError):
        fit_binary_probit(X, np.zeros(19))
    with pytest.raises(ValueError, match="1-D"):
        fit_binary_probit(X, (np.arange(20) % 2).reshape(-1, 1))


def test_probit_outputs():
    rng = np.random.default_rng(21)
    X = rng.random((60, 2))
    d = (rng.random(60) < 0.4).astype(int)
    prior = ForestPrior(num_trees=5)
    chain = ChainConfig(iterations=40, burn_in=20)
    post = fit_binary_probit(X, d, prior, chain, seed=5)
    assert post.sigma_draws is None
    assert post.probability_draws.shape == (20, 60)
    assert np.all(post.probability_draws > 0)
    assert np.all(post.probability_draws < 1)
    again = fit_binary_probit(X, d, prior, chain, seed=5)
    assert_array_equal(post.probability_draws, again.probability_draws)


def test_probit_recovers_monotone_propensity():
    rng = np.random.default_rng(22)
    n = 400
    X = rng.random((n, 2))
    truth = spstats.norm.cdf(2.5 * (X[:, 0] - 0.5))
    d = (rng.random(n) < truth).astype(int)
    prior = ForestPrior(num_trees=50, leaf_scale_prior=FixedScale(1.5))
    post = fit_binary_probit(X, d, prior,
                             ChainConfig(iterations=600, burn_in=300), seed=23)
    p_hat = post.probability_draws.mean(axis=0)
    rmse = math.sqrt(float(np.mean((p_hat - truth) ** 2)))
    assert rmse < 0.12
    assert np.corrcoef(p_hat, truth)[0, 1] > 0.85


def _latent_draw(g, pos, rng):
    """One ``_probit_latent`` step at forest output ``g``: the new z."""
    z = np.zeros(len(g))
    resid = z - g
    _probit_latent(resid, z, pos, rng)
    assert_allclose(resid, z - g, rtol=0, atol=1e-12)
    return z


def test_probit_latent_keeps_a_far_tail_draw_on_its_side():
    # past |g| of about 37.5, u * Phi(+-g) is below 1e-300; a draw of
    # g -+ ndtri(1e-300), about g -+ 37, would land on the wrong side of 0
    z = _latent_draw(np.array([-38.0, 38.0]), np.array([True, False]),
                     np.random.default_rng(0))
    assert 0 < z[0] < 0.1
    assert -0.1 < z[1] <= 0


def test_probit_latent_draws_the_far_tail_law():
    # N(g, 1) truncated to (0, inf) at g = -40 and to (-inf, 0] at g = 40,
    # whose CDFs are taken in log space: Phi(-40) underflows
    draws = 4000
    g = np.repeat([-40.0, 40.0], draws)
    z = _latent_draw(g, g < 0, np.random.default_rng(5))
    above, below = z[:draws], z[draws:]
    assert (above > 0).all() and (below <= 0).all()

    def cdf_above(t):
        return -np.expm1(log_ndtr(-40.0 - np.maximum(t, 0.0))
                         - log_ndtr(-40.0))

    def cdf_below(t):
        return np.exp(log_ndtr(np.minimum(t, 0.0) - 40.0) - log_ndtr(-40.0))

    assert spstats.kstest(above, cdf_above).pvalue > 1e-3
    assert spstats.kstest(below, cdf_below).pvalue > 1e-3


def test_probit_latent_is_finite_at_a_zero_uniform():
    # the generator can return u = 0; every draw stays finite and on its
    # side of 0, at ordinary and at far-tail forest outputs
    class ZeroUniforms:
        def random(self, n):
            return np.zeros(n)

    g = np.array([-40.0, -3.0, 0.0, 3.0, 40.0] * 2)
    pos = np.repeat([True, False], 5)
    z = _latent_draw(g, pos, ZeroUniforms())
    assert np.isfinite(z).all()
    assert (z[pos] > 0).all() and (z[~pos] <= 0).all()
