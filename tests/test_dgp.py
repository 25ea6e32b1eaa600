import csv
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats as spstats

from bcfsim.dgp import (
    Dataset, DgpSpec, Selection, baseline, beta_cdf_2_4, cate, generate,
    propensity, signal_ratio,
)
from bcfsim.harness import write_dataset


# ---------------------------------------------------------------- beta CDF

def test_beta_cdf_matches_scipy():
    # independent oracle: the polynomial must agree with the regularized
    # incomplete beta for shapes (2, 4)
    u = np.linspace(0.0, 1.0, 501)
    assert_allclose(beta_cdf_2_4(u), spstats.beta.cdf(u, 2, 4), atol=1e-13)


def test_beta_cdf_endpoints_and_scalars():
    assert beta_cdf_2_4(0.0) == 0.0
    assert beta_cdf_2_4(1.0) == 1.0
    assert isinstance(beta_cdf_2_4(0.3), float)
    # hand value at u = 1/2: 10/4 - 20/8 + 15/16 - 4/32 = 13/16
    assert_allclose(beta_cdf_2_4(0.5), 13.0 / 16.0, rtol=1e-15)


def test_beta_cdf_rejects_out_of_range():
    with pytest.raises(ValueError):
        beta_cdf_2_4(-0.01)
    with pytest.raises(ValueError):
        beta_cdf_2_4(np.array([0.5, 1.2]))


@given(arrays(float, st.integers(1, 30),
              elements=st.floats(0, 1, allow_nan=False)))
def test_beta_cdf_monotone(u):
    u = np.sort(u)
    v = beta_cdf_2_4(u)
    # nondecreasing up to evaluation noise, but the probability range is a
    # hard contract with no tolerance
    assert np.all(np.diff(v) >= -5e-15)
    assert np.all((v >= 0) & (v <= 1))


def test_beta_cdf_stays_a_probability_near_one():
    # the ascending polynomial form overshoots 1 by a few ulp up here, which
    # is why evaluation switches to the complement form above one half
    u = np.array([0.99, 0.99999, 1.0 - 1e-8, np.nextafter(1.0, 0.0), 1.0])
    v = beta_cdf_2_4(u)
    assert np.all(v <= 1.0)
    assert np.all(np.diff(v) >= 0)
    assert v[-1] == 1.0


# ---------------------------------------------------------------- surfaces

def test_baseline_hand_value():
    # b(.5,.5,.5,.5,.5) = sin(pi/4) + 0 + 0.5 + 0.25
    x = np.full((1, 5), 0.5)
    assert_allclose(baseline(x), [np.sin(np.pi / 4) + 0.75], rtol=1e-15)


def test_baseline_of_a_row_matches_the_matrix():
    rng = np.random.default_rng(3)
    X = rng.random((40, 5))
    bs = baseline(X)
    assert bs.shape == (40,)
    for i in (0, 7, 39):
        assert baseline(X[i:i + 1]) == bs[i]


def test_baseline_rejects_bad_shapes():
    shape = r"^x must be an \(n, 5\) covariate matrix, got shape \(5,\)$"
    with pytest.raises(ValueError, match=shape):
        baseline(np.zeros(5))
    with pytest.raises(ValueError, match="^x must be an"):
        baseline(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="^x must lie in"):
        baseline(np.full((1, 5), 1.5))


def test_cate_scaling():
    x = np.array([[1.0, 1.0, 0.0, 0.0, 0.0]])
    assert_allclose(cate(x, 1.0), [1.0])
    assert_allclose(cate(x, 4.0), [0.25])
    X = np.random.default_rng(0).random((30, 5))
    assert_allclose(cate(X, 2.0) * 2.0, cate(X, 1.0))


def test_propensity_formulas_at_a_point():
    from scipy.special import expit
    x = np.array([[0.2, 0.9, 0.5, 0.5, 0.5]])
    b_term = beta_cdf_2_4(expit(baseline(x)))
    min_term = beta_cdf_2_4(0.2)
    assert_allclose(propensity(x, "extreme"), 0.05 + 0.9 * b_term, rtol=1e-14)
    assert_allclose(propensity(x, "moderate"),
                    0.05 + 0.75 * b_term + 0.15 * min_term, rtol=1e-14)
    assert_allclose(propensity(x, "slight"), 0.05 + 0.9 * min_term, rtol=1e-14)


@given(arrays(float, st.tuples(st.integers(1, 20), st.just(5)),
              elements=st.floats(0, 1, allow_nan=False)),
       st.sampled_from(list(Selection)))
@settings(max_examples=60)
def test_propensity_respects_overlap(X, selection):
    p = propensity(X, selection)
    assert np.all(p >= 0.05 - 1e-12)
    assert np.all(p <= 0.95 + 1e-12)


def test_selection_accepts_strings():
    assert Selection("extreme") is Selection.EXTREME
    with pytest.raises(ValueError):
        Selection("severe")


def test_extreme_propensity_orders_with_baseline():
    # extreme targeting composes increasing maps of the baseline alone, so
    # the pairwise ordering of propensities must match that of baselines
    rng = np.random.default_rng(31)
    first = rng.random((1000, 5))
    second = rng.random((1000, 5))
    b_gap = baseline(first) - baseline(second)
    p_gap = propensity(first, "extreme") - propensity(second, "extreme")
    assert np.all(np.sign(p_gap) == np.sign(b_gap))


def test_slight_selection_decouples_from_baseline():
    # the slight variant keys on min(x1, x2) instead of the baseline, so
    # its correlation with the baseline must sit well below extreme's
    rng = np.random.default_rng(32)
    X = rng.random((5000, 5))
    b = baseline(X)
    corr_extreme = float(np.corrcoef(b, propensity(X, "extreme"))[0, 1])
    corr_slight = float(np.corrcoef(b, propensity(X, "slight"))[0, 1])
    assert corr_extreme > 0.75
    assert corr_slight < corr_extreme - 0.15


def test_constant_half_rmse_constants():
    # the error of guessing propensity 0.5 everywhere is a property of the
    # targeting rule itself; these constants reappear in harness reports
    targets = {"extreme": 0.438, "moderate": 0.366, "slight": 0.3115}
    for sel, target in targets.items():
        vals = np.array([
            float(np.sqrt(np.mean(
                (0.5 - generate(DgpSpec(sel, 1.0, 250), 1000 + rep).pi_true)
                ** 2)))
            for rep in range(150)
        ])
        assert abs(vals.mean() - target) < 0.01
        assert vals.std() < 0.01


# ---------------------------------------------------------------- generate

def test_spec_validation():
    with pytest.raises(ValueError):
        DgpSpec("extreme", 0.0)
    for alpha in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"finite and positive, "
                                             f"got {alpha}"):
            DgpSpec("extreme", alpha)
    with pytest.raises(ValueError):
        DgpSpec("extreme", 1.0, n=1)
    for n in (30.0, True):
        with pytest.raises(ValueError,
                           match=f"^n must be an integer, got {n}$"):
            DgpSpec("extreme", 1.0, n=n)
    assert DgpSpec("extreme", 1.0, n=np.int64(30)).n == 30
    assert DgpSpec("extreme", np.float32(2.0)).alpha == 2.0
    spec = DgpSpec("moderate", 2, n=10)
    assert spec.selection is Selection.MODERATE
    assert spec.alpha == 2


def test_an_unknown_selection_is_refused_by_name():
    message = "^selection: 'strong' is not a valid Selection$"
    with pytest.raises(ValueError, match=message):
        DgpSpec("strong", 1.0)
    with pytest.raises(ValueError, match=message):
        propensity(np.full((1, 5), 0.5), "strong")


@pytest.mark.parametrize("alpha", ["1", True, None, 10**400, [1.0]],
                         ids=["string", "bool", "none", "huge_int", "list"])
def test_spec_refuses_an_alpha_that_is_not_a_real_number(alpha):
    # a string used to raise a bare TypeError, True was taken as 1, and an
    # int beyond float64 overflowed
    message = f"alpha must be finite and positive, got {alpha!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DgpSpec("extreme", alpha)


def test_generate_is_deterministic():
    spec = DgpSpec("slight", 2.0, 80)
    a = generate(spec, 123)
    b = generate(spec, 123)
    for name in ("X", "pi_true", "D", "Y", "noise", "cate_true"):
        assert_array_equal(getattr(a, name), getattr(b, name))
    c = generate(spec, 124)
    assert not np.array_equal(a.Y, c.Y)


@pytest.mark.parametrize("seed, message", [
    (1.5, "seed must be an integer, got 1.5"),
    (True, "seed must be an integer, got True"),
    (-1, "seed must be at least 0, got -1"),
])
def test_generate_checks_its_seed(seed, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        generate(DgpSpec("slight", 2.0, 10), seed)


def test_generate_takes_a_seed_sequence():
    spec = DgpSpec("slight", 2.0, 10)
    a = generate(spec, np.random.SeedSequence(5))
    assert_array_equal(a.Y, generate(spec, np.int64(5)).Y)


def test_generate_internal_consistency():
    ds = generate(DgpSpec("extreme", 4.0, 200), 42)
    assert ds.X.shape == (200, 5)
    assert set(np.unique(ds.D)) <= {0, 1}
    assert_array_equal(ds.pi_true, propensity(ds.X, "extreme"))
    assert_array_equal(ds.cate_true, cate(ds.X, 4.0))
    # outcome identity holds exactly, same floating-point expression
    rebuilt = baseline(ds.X) + (ds.D - 0.5) * ds.cate_true + ds.noise
    assert_array_equal(ds.Y, rebuilt)
    assert ds.ate_true == pytest.approx(float(ds.cate_true.mean()))


def test_treatment_rate_tracks_propensity():
    ds = generate(DgpSpec("moderate", 1.0, 40_000), 7)
    # binomial: sd of the mean difference is below 0.0025 at this n
    assert abs(ds.D.mean() - ds.pi_true.mean()) < 0.01


def test_dataset_csv_roundtrip(tmp_path):
    ds = generate(DgpSpec("moderate", 2.0, 12), 5)
    path = tmp_path / "draw.csv"
    write_dataset(ds, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    assert list(rows[0]) == ["x1", "x2", "x3", "x4", "x5",
                             "pi_true", "d", "y", "cate_true"]
    # repr round-trips floats exactly
    got_y = np.array([float(r["y"]) for r in rows])
    assert_array_equal(got_y, ds.Y)
    got_d = np.array([int(r["d"]) for r in rows])
    assert_array_equal(got_d, ds.D)


# ------------------------------------------------------------ signal ratio

def test_signal_ratio_scales_exactly_with_alpha():
    r1 = signal_ratio(DgpSpec("extreme", 1.0), 20_000, seed=9)
    r2 = signal_ratio(DgpSpec("extreme", 2.0), 20_000, seed=9)
    assert_allclose(r2, 2.0 * r1, rtol=1e-12)


def test_signal_ratio_rough_magnitude():
    # E|b| ~ 1.44 and E|tau| = 0.5 at alpha 1, so the ratio sits near 2.9
    r = signal_ratio(DgpSpec("slight", 1.0), 50_000, seed=2)
    assert 2.5 < r < 3.3


def test_signal_ratio_rejects_small_mc():
    with pytest.raises(ValueError):
        signal_ratio(DgpSpec("extreme", 1.0), 5_000, seed=0)


def test_signal_ratio_refuses_an_n_mc_that_is_not_an_integer():
    # a float used to end in numpy's TypeError
    with pytest.raises(ValueError,
                       match=r"^n_mc must be an integer, got 100000\.0$"):
        signal_ratio(DgpSpec("extreme", 1.0), 1e5, seed=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_covariates_are_refused_by_name(bad):
    # NaN passed the [0, 1] check and came back as a NaN surface
    x = np.full((2, 5), 0.5)
    x[1, 3] = bad
    rule = r" must be finite \(no NaN or inf\)$"
    for surface in (baseline, lambda x: propensity(x, "moderate"),
                    lambda x: cate(x, 2.0)):
        with pytest.raises(ValueError, match="^x" + rule):
            surface(x)
    with pytest.raises(ValueError, match="^u" + rule):
        beta_cdf_2_4([0.5, bad])


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, "2", True, None])
def test_cate_applies_the_alpha_rule(alpha):
    # 0 used to divide by zero, NaN to return NaN and "2" to raise a
    # TypeError
    message = f"alpha must be finite and positive, got {alpha!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cate(np.full((1, 5), 0.5), alpha)


@pytest.mark.parametrize("alpha", [1e-320, 1e-301, 1e301, 1e308])
def test_an_alpha_whose_effects_leave_float64_is_refused(alpha):
    # tau(x) = (x1 + x2) / (2 alpha) overflows below about 5e-309, and the
    # signal ratio divides by a mean tau of 0 above about 9e307
    message = f"alpha must be in [1e-300, 1e300], got {alpha!r}"
    for build in (lambda: DgpSpec("extreme", alpha),
                  lambda: cate(np.full((1, 5), 1.0), alpha)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
    assert DgpSpec("extreme", 1e-300).alpha == 1e-300
    assert DgpSpec("extreme", 1e300).alpha == 1e300
