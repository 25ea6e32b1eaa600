import dataclasses
import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bcfsim.bart import (
    ChainConfig, FixedScale, FixedSigma, ForestPrior, HalfCauchy, HalfNormal,
    SigmaPrior,
)
from bcfsim import bcf
from bcfsim.bcf import (
    BcfConfig, BcfFit, PropensityMode, ate_posterior, cate_intervals, fit_bcf,
)


def _small_config(iterations=80, burn_in=40):
    return BcfConfig(
        mu=ForestPrior(num_trees=20, base=0.95, power=2.0,
                       leaf_scale_prior=HalfCauchy(2.0)),
        tau=ForestPrior(num_trees=10, base=0.25, power=3.0,
                        leaf_scale_prior=HalfNormal(1.0)),
        propensity=ForestPrior(num_trees=20, leaf_scale_prior=FixedScale(1.5)),
        chain=ChainConfig(iterations=iterations, burn_in=burn_in))


def _toy_data(n=80, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 3))
    z = (rng.random(n) < 0.5).astype(int)
    y = X[:, 0] + 0.8 * z + rng.normal(0, 0.3, size=n)
    return X, z, y


def test_a_config_of_the_wrong_type_is_refused_by_name():
    # it used to end in "'str' object has no attribute 'sigma_prior'"
    X, z, y = _toy_data(n=20)
    with pytest.raises(ValueError,
                       match="^config must be a BcfConfig, got 'x'$"):
        fit_bcf(X, z, y, "no_propensity", config="x")


def _fake_fit(tau_draws, mode=PropensityMode.NO_PROPENSITY):
    tau_draws = np.asarray(tau_draws, dtype=float)
    k, n = tau_draws.shape
    return BcfFit(
        mu_draws=np.zeros((k, n)),
        tau_draws=tau_draws,
        sigma_draws=np.ones(k),
        pi_used=np.full(n, 0.5),
        mode=mode,
        fit_seconds=0.0,
    )


# ------------------------------------------------------------- config rules

# Every forest of this tiny estimated-propensity fit splits readily, so a
# change to any tree-prior value moves some accept decision.
_WALK_CONFIG = BcfConfig(
    mu=ForestPrior(num_trees=4, base=0.95, power=1.0, cutpoints_per_feature=10,
                   leaf_scale_prior=HalfCauchy(2.0)),
    tau=ForestPrior(num_trees=3, base=0.9, power=1.0, cutpoints_per_feature=10,
                    leaf_scale_prior=HalfNormal(1.0)),
    propensity=ForestPrior(num_trees=4, cutpoints_per_feature=10),
    chain=ChainConfig(iterations=12, burn_in=6),
)


def _settings(config):
    """``(path, value)`` of every settable value, nested types walked."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, (ForestPrior, ChainConfig)):
            for path, leaf in _settings(value):
                yield (f.name,) + path, leaf
        else:
            yield (f.name,), value


def _with(config, path, value):
    head, *rest = path
    if rest:
        value = _with(getattr(config, head), rest, value)
    return replace(config, **{head: value})


def _other(value):
    """Another valid value of a setting."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return 0.5 * value
    if isinstance(value, (HalfCauchy, HalfNormal, FixedScale)):
        return replace(value, scale=2.0 * value.scale)
    if isinstance(value, SigmaPrior):
        return FixedSigma(0.5)
    raise TypeError(f"no perturbation for {value!r}")


def _walk_digest(config):
    X, z, y = _toy_data(n=40, seed=3)
    fit = fit_bcf(X, z, y, "estimated_propensity", config=config, seed=4)
    h = hashlib.blake2b(digest_size=16)
    for arr in (fit.mu_draws, fit.tau_draws, fit.sigma_draws, fit.pi_used):
        h.update(repr(arr.shape).encode("ascii"))
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


_WALK_PATHS = [path for path, _ in _settings(_WALK_CONFIG)]


def test_settings_walk_counts_every_value():
    assert len(_WALK_PATHS) == 18


@pytest.mark.parametrize("path", _WALK_PATHS, ids=".".join)
def test_every_setting_reaches_the_fit(path):
    # no setting may be silently ignored: changing any one of them to
    # another valid value changes the draws
    value = dict(_settings(_WALK_CONFIG))[path]
    config = _with(_WALK_CONFIG, path, _other(value))
    assert _walk_digest(config) != _walk_digest(_WALK_CONFIG)


# ------------------------------------------------------------ mode contract

def test_pi_used_per_mode():
    X, z, y = _toy_data()
    cfg = _small_config(iterations=10, burn_in=5)
    no = fit_bcf(X, z, y, "no_propensity", config=cfg, seed=1)
    assert_array_equal(no.pi_used, np.full(len(y), 0.5))
    assert no.mode is PropensityMode.NO_PROPENSITY

    pi = np.clip(0.3 + 0.4 * X[:, 0], 0.0, 1.0)
    true = fit_bcf(X, z, y, PropensityMode.TRUE_PROPENSITY, pi_true=pi,
                   config=cfg, seed=1)
    assert_array_equal(true.pi_used, pi)

    est = fit_bcf(X, z, y, "estimated_propensity", config=cfg, seed=1)
    assert est.pi_used.shape == (len(y),)
    assert np.all((est.pi_used > 0) & (est.pi_used < 1))
    # the estimate is a posterior mean, not a copy of anything supplied
    assert not np.array_equal(est.pi_used, pi)


def test_true_propensity_column_is_what_mu_sees():
    # the variants differ only in the prognostic forest's extra column: a
    # true propensity of 0.5 everywhere is the no-propensity fit, draw for
    # draw, and any other values move the draws
    X, z, y = _toy_data()
    cfg = _small_config(iterations=10, burn_in=5)
    no = fit_bcf(X, z, y, "no_propensity", config=cfg, seed=1)
    half = fit_bcf(X, z, y, "true_propensity", pi_true=np.full(len(y), 0.5),
                   config=cfg, seed=1)
    assert_array_equal(half.mu_draws, no.mu_draws)
    assert_array_equal(half.tau_draws, no.tau_draws)
    assert_array_equal(half.sigma_draws, no.sigma_draws)
    other = fit_bcf(X, z, y, "true_propensity",
                    pi_true=np.clip(0.3 + 0.4 * X[:, 0], 0.0, 1.0),
                    config=cfg, seed=1)
    assert not np.array_equal(other.mu_draws, no.mu_draws)


@pytest.mark.parametrize("field, value, kind", [
    ("mu", 5, "a ForestPrior"),
    ("tau", ChainConfig(), "a ForestPrior"),
    ("propensity", None, "a ForestPrior"),
    ("chain", (4, 2), "a ChainConfig"),
    ("sigma_prior", FixedScale(1.0), "a SigmaPrior or a FixedSigma"),
])
def test_bcf_config_refuses_a_part_of_the_wrong_type(field, value, kind):
    # each used to be built and then fail mid-fit, with an AttributeError
    with pytest.raises(ValueError, match=rf"^{field} must be {kind}, got "
                                         rf"{re.escape(repr(value))}$"):
        BcfConfig(**{field: value})


def test_sigma_prior_type_is_refused_before_the_probit_stage(monkeypatch):
    # the noise prior's type is checked when the config is built, so no
    # fit starts, the probit stage included
    def no_probit(*args, **kwargs):
        raise AssertionError("the probit stage ran")

    monkeypatch.setattr(bcf, "fit_binary_probit", no_probit)
    X, z, y = _toy_data()
    with pytest.raises(ValueError, match="^sigma_prior must be a SigmaPrior "
                                         "or a FixedSigma, got 1.0$"):
        fit_bcf(X, z, y, "estimated_propensity", config=replace(
            _small_config(iterations=10, burn_in=5), sigma_prior=1.0))


def test_pi_true_argument_is_gated():
    X, z, y = _toy_data()
    cfg = _small_config(iterations=10, burn_in=5)
    pi = np.full(len(y), 0.4)
    with pytest.raises(ValueError):
        fit_bcf(X, z, y, "true_propensity", config=cfg, seed=0)
    with pytest.raises(ValueError):
        fit_bcf(X, z, y, "no_propensity", pi_true=pi, config=cfg, seed=0)
    with pytest.raises(ValueError):
        fit_bcf(X, z, y, "estimated_propensity", pi_true=pi, config=cfg, seed=0)
    with pytest.raises(ValueError):
        fit_bcf(X, z, y, "true_propensity", pi_true=pi[:-1], config=cfg, seed=0)
    with pytest.raises(ValueError):
        fit_bcf(X, z, y, "true_propensity", pi_true=pi + 0.7, config=cfg, seed=0)


def test_input_validation():
    X, z, y = _toy_data()
    cfg = _small_config(iterations=10, burn_in=5)
    with pytest.raises(ValueError):
        fit_bcf(X, z[:-1], y, "no_propensity", config=cfg)
    with pytest.raises(ValueError, match="z must be binary"):
        fit_bcf(X, z + 1, y, "no_propensity", config=cfg)
    with pytest.raises(ValueError):
        fit_bcf(X, np.zeros_like(z), y, "no_propensity", config=cfg)
    with pytest.raises(ValueError):
        fit_bcf(X[:, 0], z, y, "no_propensity", config=cfg)
    with pytest.raises(ValueError, match="1-D"):
        fit_bcf(X, z, y.reshape(-1, 1), "no_propensity", config=cfg)
    with pytest.raises(ValueError, match="1-D"):
        fit_bcf(X, z.reshape(-1, 1), y, "no_propensity", config=cfg)
    with pytest.raises(ValueError):
        fit_bcf(X, z, y, "some_other_mode", config=cfg)


def test_an_unknown_mode_is_refused_by_name():
    X, z, y = _toy_data()
    with pytest.raises(ValueError, match="^mode: 'bogus' is not a valid "
                                         "PropensityMode$"):
        fit_bcf(X, z, y, "bogus", config=_small_config(iterations=10,
                                                       burn_in=5))


@pytest.mark.parametrize("mode", ["no_propensity", "estimated_propensity"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_rejected(mode, bad):
    X, z, y = _toy_data()
    cfg = _small_config(iterations=10, burn_in=5)
    y_bad = y.copy()
    y_bad[7] = bad
    with pytest.raises(ValueError, match="finite"):
        fit_bcf(X, z, y_bad, mode, config=cfg)
    X_bad = X.copy()
    X_bad[7, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        fit_bcf(X_bad, z, y, mode, config=cfg)


@pytest.mark.parametrize("mode", ["no_propensity", "estimated_propensity"])
def test_finite_inputs_that_overflow_are_rejected(mode):
    # finite values the fit cannot use: an outcome whose sd overflows
    # float64 would standardize to NaN, and a covariate whose range
    # overflows would get a grid of infinities and never split
    X, z, y = _toy_data()
    cfg = _small_config(iterations=10, burn_in=5)
    with pytest.raises(ValueError, match=r"^y must have a mean and standard "
                                         r"deviation that fit in float64"):
        fit_bcf(X, z, y * 1e160, mode, config=cfg)
    X_wide = X.copy()
    X_wide[:, 2] = np.where(z == 1, 1e308, -1e308)
    with pytest.raises(ValueError, match=r"^X column 2 spans \[-1e\+308, "
                                         r"1e\+308\]"):
        fit_bcf(X_wide, z, y, mode, config=cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_propensities_rejected(bad):
    X, z, y = _toy_data()
    cfg = _small_config(iterations=10, burn_in=5)
    pi = np.full(len(y), 0.4)
    pi[3] = bad
    with pytest.raises(ValueError, match="pi_true must be finite"):
        fit_bcf(X, z, y, "true_propensity", pi_true=pi, config=cfg, seed=0)


# -------------------------------------------------------------- determinism

def test_fit_is_deterministic_given_seed():
    X, z, y = _toy_data()
    cfg = _small_config(iterations=30, burn_in=10)
    a = fit_bcf(X, z, y, "estimated_propensity", config=cfg, seed=7)
    b = fit_bcf(X, z, y, "estimated_propensity", config=cfg, seed=7)
    c = fit_bcf(X, z, y, "estimated_propensity", config=cfg, seed=8)
    assert_array_equal(a.mu_draws, b.mu_draws)
    assert_array_equal(a.tau_draws, b.tau_draws)
    assert_array_equal(a.sigma_draws, b.sigma_draws)
    assert_array_equal(a.pi_used, b.pi_used)
    assert not np.array_equal(a.tau_draws, c.tau_draws)


def test_constant_propensity_column_is_inert():
    # a constant design column has no valid cutpoints, so filling it with
    # 0.5 or any other constant must give the identical chain
    X, z, y = _toy_data()
    cfg = _small_config(iterations=30, burn_in=10)
    no = fit_bcf(X, z, y, "no_propensity", config=cfg, seed=5)
    const = fit_bcf(X, z, y, "true_propensity",
                    pi_true=np.full(len(y), 0.7), config=cfg, seed=5)
    assert_array_equal(no.mu_draws, const.mu_draws)
    assert_array_equal(no.tau_draws, const.tau_draws)
    assert_array_equal(no.sigma_draws, const.sigma_draws)


# ----------------------------------------------------------------- recovery

def test_recovers_constant_treatment_effect():
    rng = np.random.default_rng(42)
    n = 300
    X = rng.random((n, 3))
    z = (rng.random(n) < 0.5).astype(int)
    y = X[:, 1] + 2.0 * z + rng.normal(0, 0.3, size=n)
    cfg = _small_config(iterations=300, burn_in=150)
    fit = fit_bcf(X, z, y, "no_propensity", config=cfg, seed=9)
    ate = ate_posterior(fit)
    assert abs(ate["mean"] - 2.0) < 0.3
    assert ate["lower"] < 2.0 < ate["upper"]
    cate = cate_intervals(fit)
    rmse = math.sqrt(float(np.mean((cate["mean"] - 2.0) ** 2)))
    assert rmse < 0.5


def test_noise_scale_recovered_at_unit_sigma():
    # n = 250 with unit noise: sigma draws stay positive and their median
    # lands near the truth
    rng = np.random.default_rng(45)
    n = 250
    X = rng.random((n, 3))
    z = (rng.random(n) < 0.5).astype(int)
    y = np.sin(3.0 * X[:, 0]) + 0.5 * z + rng.normal(0.0, 1.0, size=n)
    cfg = _small_config(iterations=300, burn_in=150)
    fit = fit_bcf(X, z, y, "no_propensity", config=cfg, seed=11)
    assert np.all(fit.sigma_draws > 0)
    assert 0.8 < float(np.median(fit.sigma_draws)) < 1.25


def test_treated_outcomes_shift_tau_not_mu():
    # flipping y only on treated units must leave an imprint in tau
    rng = np.random.default_rng(43)
    n = 200
    X = rng.random((n, 2))
    z = (rng.random(n) < 0.5).astype(int)
    y = X[:, 0] + rng.normal(0, 0.2, size=n)
    cfg = _small_config(iterations=200, burn_in=100)
    base = fit_bcf(X, z, y, "no_propensity", config=cfg, seed=3)
    bumped = fit_bcf(X, z, y + 1.5 * z, "no_propensity", config=cfg, seed=3)
    ate_base = ate_posterior(base)["mean"]
    ate_bumped = ate_posterior(bumped)["mean"]
    assert ate_bumped - ate_base > 1.0


# ----------------------------------------------------------------- summaries

def test_cate_intervals_quantile_oracle():
    k = 100
    tau = np.tile(np.arange(1.0, k + 1.0)[:, None], (1, 2))
    fit = _fake_fit(tau)
    out = cate_intervals(fit, level=0.95)
    assert_allclose(out["mean"], [50.5, 50.5])
    assert_allclose(out["lower"], np.quantile(np.arange(1.0, 101.0), 0.025))
    assert_allclose(out["upper"], np.quantile(np.arange(1.0, 101.0), 0.975))


def test_cate_intervals_nest_by_level():
    rng = np.random.default_rng(44)
    fit = _fake_fit(rng.normal(size=(500, 4)))
    narrow = cate_intervals(fit, level=0.5)
    wide = cate_intervals(fit, level=0.95)
    assert np.all(wide["lower"] <= narrow["lower"])
    assert np.all(narrow["upper"] <= wide["upper"])
    assert np.all(narrow["lower"] <= narrow["upper"])


def test_ate_posterior_is_rowwise_mean():
    tau = np.array([[1.0, 3.0], [2.0, 4.0], [0.0, 0.0]])
    out = ate_posterior(_fake_fit(tau), level=0.5)
    assert_allclose(out["draws"], [2.0, 3.0, 0.0])
    assert_allclose(out["mean"], 5.0 / 3.0)
    assert out["lower"] <= out["mean"] <= out["upper"]


def test_summary_validation():
    fit = _fake_fit(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        cate_intervals(fit, level=1.0)
    with pytest.raises(ValueError):
        ate_posterior(fit, level=0.0)
    empty = _fake_fit(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        cate_intervals(empty)
    with pytest.raises(ValueError):
        ate_posterior(empty)


@pytest.mark.parametrize("summary", [cate_intervals, ate_posterior])
@pytest.mark.parametrize("level", ["0.9", None, True, [0.9]])
def test_a_level_that_is_not_a_number_is_refused_by_name(summary, level):
    fit = _fake_fit(np.zeros((4, 2)))
    with pytest.raises(ValueError, match=r"^level must be in \(0, 1\), "
                       "got "):
        summary(fit, level)


def test_fit_metadata():
    X, z, y = _toy_data()
    cfg = _small_config(iterations=10, burn_in=5)
    fit = fit_bcf(X, z, y, "no_propensity", config=cfg, seed=0)
    assert fit.fit_seconds > 0
    assert fit.mu_draws.shape == (5, len(y))
    assert fit.tau_draws.shape == (5, len(y))
    assert fit.sigma_draws.shape == (5,)
    assert np.all(fit.sigma_draws > 0)


@pytest.mark.parametrize("seed, message", [
    (1.5, "seed must be an integer, got 1.5"),
    (-1, "seed must be nonnegative, got -1"),
])
def test_seed_is_checked(seed, message):
    X, z, y = _toy_data()
    cfg = _small_config(iterations=10, burn_in=5)
    with pytest.raises(ValueError, match=f"^{message}$"):
        fit_bcf(X, z, y, "no_propensity", config=cfg, seed=seed)


def test_seed_sequence_accepted():
    X, z, y = _toy_data()
    cfg = _small_config(iterations=10, burn_in=5)
    ss = np.random.SeedSequence(123)
    a = fit_bcf(X, z, y, "no_propensity", config=cfg, seed=ss)
    b = fit_bcf(X, z, y, "no_propensity", config=cfg,
                seed=np.random.SeedSequence(123))
    assert_array_equal(a.tau_draws, b.tau_draws)
