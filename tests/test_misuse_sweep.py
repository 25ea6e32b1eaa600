"""The misuse contract, swept: a public function either returns finite
output of its documented shape, or raises a ValueError whose message names
one of its arguments.

Hypothesis draws each array's shape (n from 0 to 8 rows, p from 0 to 3
columns, or another rank), its dtype (bool, int, float, complex, object or
str), the magnitudes of its values (from the least subnormal to the largest
float) and where a NaN or inf sits. Each function is swept once with
every argument keeping its rule, and once per argument with that one
misused: it may take another shape or rank, another dtype or any value.
The others keep their rules, so the sweep reaches the paths past each
check. Fits run 2 trees for chains of 2 to 4 iterations. A SIGALRM timer
bounds each call. Any other exception, a hang, a NaN, or an infinity
where no docstring states one fails the example, and pyproject's warning
filter makes a RuntimeWarning an exception too. The examples are
derandomized, so every run sweeps the same ones.

Functions that take no array are swept the same way: a count, a real
number, an enum member, an object, a path or a list takes, in turn, a
value of another type or one past its bounds. A path may also name a
missing file or a directory; then an OSError naming the path is the
refusal, and so is a ValueError naming the file it reads.
"""

import dataclasses
import itertools
import math
import operator
import os
import re
import signal
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bcfsim import ranktests
from bcfsim.bart import (
    ChainConfig,
    FixedScale,
    FixedSigma,
    ForestPrior,
    ForestSampler,
    HalfCauchy,
    HalfNormal,
    SigmaPrior,
    fit_binary_probit,
    fit_continuous,
)
from bcfsim.bcf import (
    BcfConfig, BcfFit, PropensityMode, ate_posterior, cate_intervals, fit_bcf,
    propensity_column,
)
from bcfsim.dgp import (
    DgpSpec, baseline, beta_cdf_2_4, cate, generate, propensity,
    signal_ratio,
)
from bcfsim.harness import (
    ExperimentConfig, apply_profile, cell_values, compare_models,
    dataset_digest, evaluate_fit, load_config_file, read_replicates_csv,
    report_from, run_experiment, summarize, write_dataset,
)
from bcfsim.metrics import (
    METRIC_FIELDS, ReplicateRecord, interval_metrics, pointwise_errors,
)
from bcfsim.ranktests import (
    fligner_policello,
    kruskal_wallis,
    levene_family,
    mann_whitney_u,
    select_and_run,
)

SECONDS = 10  # bound on one call

SWEEP = settings(max_examples=40, deadline=None, derandomize=True,
                 database=None,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.data_too_large])

MAGNITUDES = (0.0, 5e-324, 2.2e-308, 1e-300, 1e-8, 0.25, 0.5, 1.0, 3.0, 1e8,
              1e154, 1e300, 1.7976931348623157e308)
FINITE = st.one_of(
    st.builds(operator.mul, st.sampled_from(MAGNITUDES),
              st.sampled_from((1.0, -1.0))),
    st.floats(allow_nan=False, allow_infinity=False))
NON_FINITE = st.sampled_from((math.nan, math.inf, -math.inf))
UNIT = st.floats(0.0, 1.0)
OBJECTS = st.one_of(FINITE, NON_FINITE, st.integers(-2 ** 70, 2 ** 70),
                    st.just(10 ** 400), st.none(), st.text(max_size=2))
TEXTS = st.one_of(FINITE.map(repr), NON_FINITE.map(repr),
                  st.text(max_size=2))

# the sizes of arguments that keep their rules; a misused one may also
# have no columns
ROWS = st.integers(0, 8)
COLUMNS = st.integers(1, 3)


def _values(draw, shape, elements):
    size = math.prod(shape)
    return draw(st.lists(elements, min_size=size, max_size=size))


@st.composite
def numbers(draw, shape, floats=None, ints=None):
    """An array of ``shape`` that keeps the rule of a numeric argument: a
    float, bool or int array of finite values. Unless given, an array's
    values are all moderate or all of any magnitude."""
    dtype = draw(st.sampled_from((float, bool, np.int64)))
    if dtype is float:
        elements = floats if floats is not None else draw(st.sampled_from(
            (st.floats(-4.0, 4.0), FINITE)))
    elif dtype is bool:
        elements = st.booleans()
    else:
        elements = ints if ints is not None else draw(st.sampled_from(
            (st.integers(-3, 3), st.integers(-2 ** 63, 2 ** 63 - 1))))
    return np.array(_values(draw, shape, elements),
                    dtype=dtype).reshape(shape)


def unit(shape):
    return numbers(shape, UNIT, st.integers(0, 1))


def binary(shape):
    """0/1 values of each class where ``shape`` has room for both."""
    def both(array):
        if array.size:
            array.flat[0] = not array.flat[-1]
        return array

    return numbers(shape, st.sampled_from((0.0, 1.0)),
                   st.integers(0, 1)).map(both)


@st.composite
def anything(draw, shape):
    """An array of ``shape`` in any of six dtypes (bool, int, float,
    complex, object, str), holding values of any magnitude, a NaN or inf at
    a drawn place, None, an int beyond float64 or text."""
    kind = draw(st.sampled_from(("object", "str", "non-finite", "numbers",
                                 "complex")))
    if kind == "numbers":
        return draw(numbers(shape))
    if kind == "complex":
        return np.array(_values(draw, shape, st.builds(complex, FINITE,
                                                       FINITE)),
                        dtype=complex).reshape(shape)
    if kind == "non-finite":
        floats = _values(draw, shape, FINITE)
        if floats:
            floats[draw(st.integers(0, len(floats) - 1))] = draw(NON_FINITE)
        return np.array(floats, dtype=float).reshape(shape)
    if kind == "object":
        objects = np.empty(math.prod(shape), dtype=object)
        objects[:] = _values(draw, shape, OBJECTS)
        return objects.reshape(shape)
    return np.array(_values(draw, shape, TEXTS), dtype=str).reshape(shape)


@st.composite
def misused(draw, shape):
    """A misused array argument: ``anything`` of ``shape``, or of another
    rank, or with one axis a row longer or shorter, or empty."""
    axis = draw(st.integers(0, max(len(shape) - 1, 0)))
    size = draw(st.sampled_from((-1, 1, "empty")))
    other = tuple((0 if size == "empty" else max(0, d + size))
                  if i == axis else d for i, d in enumerate(shape))
    return draw(anything(draw(st.sampled_from(
        (shape, (), shape[:-1], shape + (2,), other)))))


def misused_scalar(*values):
    return st.one_of(st.sampled_from(values), NON_FINITE, FINITE)


def call_args(draw, bad, **spec):
    """The arguments of one call: each name in ``spec`` maps to its (valid,
    misused) strategies, and the one named ``bad``, if any, takes its
    misused draw."""
    return {name: draw(wrong if name == bad else right)
            for name, (right, wrong) in spec.items()}


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout(f"call ran past {SECONDS} s")


def outcome(call, names, paths=()):
    """``call()``'s return, or None when it raises a ValueError that names
    one of ``names``, or a ValueError or OSError whose message holds one of
    ``paths``; any other exception fails the example."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, SECONDS)
    try:
        with warnings.catch_warnings():
            # every sample here is below Fligner-Policello's warning size
            warnings.filterwarnings("ignore", "fligner_policello normal",
                                    UserWarning)
            return call()
    except (ValueError, OSError) as exc:
        if any(path in str(exc) for path in paths):
            return None
        assert isinstance(exc, ValueError), f"{exc!r:.300}"
        named = "|".join(map(re.escape, names))
        assert re.search(rf"\b({named})\b", str(exc)), (
            f"{exc!s:.300} names none of {names}")
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run(function, kwargs, *also_named):
    """``function(**kwargs)`` through ``outcome``; a refusal must name an
    argument of ``kwargs`` or one of ``also_named``."""
    return outcome(lambda: function(**kwargs), (*kwargs, *also_named))


def assert_finite(array, shape):
    array = np.asarray(array)
    assert array.shape == shape
    assert np.isfinite(array).all()


# ------------------------------------------------------------------ fits

CHAINS = st.builds(ChainConfig, st.integers(2, 4), st.integers(0, 1))
PRIOR = ForestPrior(num_trees=2)
SEED = (st.integers(0, 2 ** 32), misused_scalar(-1, "0"))


def sweep(*names):
    """Sweep a test once with no argument misused and once per name."""
    def decorate(test):
        return pytest.mark.parametrize("bad", (None, *names))(
            SWEEP(given(data=st.data())(test)))
    return decorate


@st.composite
def fit_data(draw, bad, response):
    n, p = draw(ROWS), draw(COLUMNS)
    valid = binary((n,)) if response == "d" else numbers((n,))
    return draw(CHAINS), call_args(
        draw, bad, X=(numbers((n, p)), misused((n, p))),
        **{response: (valid, misused((n,)))}, seed=SEED)


@sweep("X", "y", "seed")
def test_fit_continuous(bad, data):
    chain, kwargs = data.draw(fit_data(bad, "y"))
    fit = run(fit_continuous, dict(kwargs, prior=PRIOR, chain=chain))
    if fit is not None:
        shape = (chain.n_retained, len(kwargs["y"]))
        assert_finite(fit.draws, shape)
        assert_finite(fit.sigma_draws, shape[:1])


@sweep("X", "d", "seed")
def test_fit_binary_probit(bad, data):
    chain, kwargs = data.draw(fit_data(bad, "d"))
    fit = run(fit_binary_probit, dict(kwargs, prior=PRIOR, chain=chain))
    if fit is not None:
        shape = (chain.n_retained, len(kwargs["d"]))
        assert_finite(fit.draws, shape)
        assert_finite(fit.probability_draws, shape)
        assert fit.sigma_draws is None


MODES = ("no_propensity", "true_propensity", "estimated_propensity")


def bcf_args(draw, bad, n, chain, **spec):
    """The arguments ``propensity_column`` and ``fit_bcf`` share, and
    ``spec``'s, for ``n`` rows and chains of ``chain``."""
    config = BcfConfig(mu=PRIOR, tau=PRIOR, propensity=PRIOR, chain=chain)
    p = draw(COLUMNS)
    return call_args(
        draw, bad, X=(numbers((n, p)), misused((n, p))),
        z=(binary((n,)), misused((n,))),
        mode=(st.sampled_from(MODES), misused_scalar("no_such_mode")),
        config=(st.just(config), misused_scalar("config", chain)),
        seed=SEED, **spec)


# a misused propensity: any array, or finite values of any magnitude
PROPENSITY = (unit, lambda shape: st.one_of(misused(shape), numbers(shape)))


@st.composite
def column_data(draw, bad):
    n = draw(ROWS)
    return bcf_args(draw, bad, n, draw(CHAINS),
                    pi_true=tuple(kind((n,)) for kind in PROPENSITY))


@sweep("mode", "X", "z", "pi_true", "config", "seed")
def test_propensity_column(bad, data):
    # the column is pi_true as given for the true variant, which fit_bcf
    # then checks against [0, 1]
    kwargs = data.draw(column_data(bad))
    pi = run(propensity_column, kwargs)
    if pi is not None:
        assert_finite(pi, (len(kwargs["z"]),))
        if kwargs["mode"] != "true_propensity":
            assert ((0 <= pi) & (pi <= 1)).all()


@st.composite
def bcf_data(draw, bad):
    n, chain = draw(ROWS), draw(CHAINS)
    return chain, bcf_args(
        draw, bad, n, chain, y=(numbers((n,)), misused((n,))),
        pi=tuple(kind((n,)) for kind in PROPENSITY))


@sweep("X", "z", "y", "mode", "pi", "config", "seed")
def test_fit_bcf(bad, data):
    chain, kwargs = data.draw(bcf_data(bad))
    fit = run(fit_bcf, kwargs)
    if fit is not None:
        shape = (chain.n_retained, len(kwargs["y"]))
        assert_finite(fit.mu_draws, shape)
        assert_finite(fit.tau_draws, shape)
        assert_finite(fit.sigma_draws, shape[:1])
        assert_finite(fit.pi_used, shape[1:])


@st.composite
def sampler_data(draw, bad):
    n, p = draw(ROWS), draw(COLUMNS)
    return call_args(draw, bad, X=(numbers((n, p)), misused((n, p))),
                     weights=(st.one_of(st.none(), binary((n,))),
                              misused((n,))))


@sweep("X", "weights")
def test_forest_sampler(bad, data):
    kwargs = data.draw(sampler_data(bad))
    sampler = run(ForestSampler, dict(kwargs, prior=PRIOR))
    if sampler is not None:
        n = len(kwargs["X"])
        sampler.sweep(np.zeros(n), 1.0, np.random.default_rng(0))
        assert_finite(sampler.current_fit(), (n,))


# ------------------------------------------------------------------- dgp

@st.composite
def dgp_data(draw, bad, **scalars):
    n = draw(ROWS)
    return call_args(draw, bad, x=(unit((n, 5)), misused((n, 5))),
                     **scalars)


SELECTION = (st.sampled_from(("extreme", "moderate", "slight")),
             misused_scalar("strong"))
ALPHA = (st.floats(1e-100, 1e100),
         misused_scalar(5e-324, 1e-300, 1e-101, 1e101, 1e300, 1e308, 0, -2,
                        10 ** 400, "2", None, True, (1.0,)))


@sweep("x")
def test_baseline(bad, data):
    kwargs = data.draw(dgp_data(bad))
    b = run(baseline, kwargs)
    if b is not None:
        assert_finite(b, (len(kwargs["x"]),))


@sweep("x", "selection")
def test_propensity(bad, data):
    kwargs = data.draw(dgp_data(bad, selection=SELECTION))
    pi = run(propensity, kwargs)
    if pi is not None:
        assert_finite(pi, (len(kwargs["x"]),))
        assert ((pi >= 0.05 - 1e-12) & (pi <= 0.95 + 1e-12)).all()


@sweep("x", "alpha")
def test_cate(bad, data):
    kwargs = data.draw(dgp_data(bad, alpha=ALPHA))
    tau = run(cate, kwargs)
    if tau is not None:
        assert_finite(tau, (len(kwargs["x"]),))


@st.composite
def cdf_data(draw, bad):
    shape = draw(st.sampled_from(((), (draw(ROWS),),
                                  (draw(ROWS), draw(COLUMNS)))))
    return call_args(draw, bad, u=(st.one_of(UNIT, unit(shape)),
                                   st.one_of(misused(shape),
                                             misused_scalar("0.5", "x"))))


@sweep("u")
def test_beta_cdf_2_4(bad, data):
    kwargs = data.draw(cdf_data(bad))
    cdf = run(beta_cdf_2_4, kwargs)
    if cdf is not None:
        if np.ndim(kwargs["u"]) == 0:
            assert isinstance(cdf, float)
        assert_finite(cdf, np.shape(kwargs["u"]))
        assert np.all((cdf >= 0) & (cdf <= 1))


# --------------------------------------------------------------- metrics

@st.composite
def error_data(draw, bad):
    n = draw(ROWS)
    truth = numbers((n,)).map(lambda a: np.where(a == 0, 1, a))
    return call_args(draw, bad, estimate=(numbers((n,)), misused((n,))),
                     truth=(truth, misused((n,))))


@sweep("estimate", "truth")
def test_pointwise_errors(bad, data):
    scores = run(pointwise_errors, data.draw(error_data(bad)))
    if scores is not None:
        assert sorted(scores) == ["mae", "mape", "rmse"]
        assert all(math.isfinite(v) for v in scores.values())


@st.composite
def interval_data(draw, bad):
    # the bounds are the elementwise least and greatest of two draws, so
    # they do not cross
    n = draw(ROWS)
    a, b = draw(numbers((n,))), draw(numbers((n,)))
    return call_args(
        draw, bad, lower=(st.just(np.minimum(a, b)), misused((n,))),
        upper=(st.just(np.maximum(a, b)), misused((n,))),
        truth=(numbers((n,)), misused((n,))),
        nominal=(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                 misused_scalar(0, 1, "0.9")))


@sweep("lower", "upper", "truth", "nominal")
def test_interval_metrics(bad, data):
    scores = run(interval_metrics, data.draw(interval_data(bad)))
    if scores is not None:
        assert sorted(scores) == ["ae_cover", "cover", "len", "se_cover"]
        assert all(math.isfinite(v) for v in scores.values())


# ------------------------------------------------------------ rank tests

@st.composite
def sample_pairs(draw, bad, **scalars):
    """``x`` and ``y``: two samples, or two matrices of k samples each, one
    per row."""
    k = draw(st.sampled_from((None, 1, 2, 3)))
    shapes = [(m,) if k is None else (k, m) for m in (draw(ROWS), draw(ROWS))]
    return call_args(draw, bad, **{
        name: (numbers(shape), misused(shape))
        for name, shape in zip("xy", shapes)}, **scalars)


def assert_test_result(result, infinite_stat=False):
    """A (stat, p) pair, floats or (k,) arrays, with no NaN, p in [0, 1]
    and the statistic finite unless ``infinite_stat``."""
    assert isinstance(result, ranktests.TestResult)
    stat, p = np.asarray(result.stat), np.asarray(result.p)
    assert stat.shape == p.shape
    assert not np.isnan(stat).any()
    assert infinite_stat or np.isfinite(stat).all()
    assert ((p >= 0) & (p <= 1)).all()


@sweep("x", "y")
def test_mann_whitney_u(bad, data):
    result = run(mann_whitney_u, data.draw(sample_pairs(bad)))
    if result is not None:
        assert_test_result(result)


@sweep("x", "y", "groups")
def test_kruskal_wallis(bad, data):
    # the groups are named by their place in ``groups``
    kwargs = data.draw(sample_pairs(bad))
    groups = [kwargs["x"], kwargs["y"]]
    if bad == "groups":
        groups = data.draw(st.one_of(
            OTHER, st.sampled_from((groups[:1], groups * 2, tuple(groups),
                                    iter(groups), np.array(groups[:1]))),
            st.lists(OTHER, max_size=3)))
    result = run(kruskal_wallis, {"groups": groups}, "group 0", "group 1")
    if result is not None:
        assert_test_result(result)


CENTER = (st.sampled_from(("mean", "median")), misused_scalar("mode"))


@sweep("x", "y", "center")
def test_levene_family(bad, data):
    # the docstring's convention: an infinite F where the groups' mean
    # deviations differ and neither group spreads about them
    result = run(levene_family, data.draw(sample_pairs(bad, center=CENTER)))
    if result is not None:
        assert_test_result(result, infinite_stat=True)


@sweep("x", "y")
def test_fligner_policello(bad, data):
    # the docstring's convention: fully separated samples have an
    # infinite statistic
    result = run(fligner_policello, data.draw(sample_pairs(bad)))
    if result is not None:
        assert_test_result(result, infinite_stat=True)


@sweep("x", "y")
def test_select_and_run(bad, data):
    kwargs = data.draw(sample_pairs(bad))
    reports = run(select_and_run, kwargs)
    if reports is None:
        return
    x = kwargs["x"]
    if x.ndim == 1:
        reports = [reports]
    assert len(reports) == len(np.atleast_2d(x))
    for report in reports:
        assert_test_result(report.levene, infinite_stat=True)
        assert_test_result(report.brown_forsythe, infinite_stat=True)
        if report.fligner_policello is not None:
            assert_test_result(report.fligner_policello, infinite_stat=True)
        else:
            assert_test_result(report.mann_whitney)
            assert_test_result(report.kruskal_wallis)


# ------------------------------------- counts, reals, objects and paths

# objects of another type than an argument takes, as often as not of a
# type another argument takes
OTHER = st.one_of(OBJECTS, st.sampled_from((
    True, (), [1.0], {"a": 1}, b"x", ChainConfig(2, 1), FixedScale(1.0),
    SigmaPrior(), DgpSpec("extreme", 1.0), ExperimentConfig(),
    PropensityMode.NO_PROPENSITY)))


def counts(least, most):
    """A count from ``least`` to ``most``, a Python or a numpy integer."""
    return st.integers(least, most).flatmap(
        lambda n: st.sampled_from((n, np.int64(n))))


def misused_count(*values):
    """A count's misuse: one of ``values`` (past its bounds), a float or a
    bool in place of an integer, or another object."""
    return st.one_of(st.sampled_from(values + (2.0, True, "3", np.float64(4))),
                     OTHER)


POSITIVE = st.floats(5e-324, 1e300)
NAMES = ("extreme", "moderate", "slight")
MODEL_NAMES = tuple(mode.value for mode in PropensityMode)
COUNT = misused_count(-1, 0, 1, 10 ** 400)


@sweep("selection", "alpha", "n")
def test_dgp_spec(bad, data):
    kwargs = call_args(data.draw, bad, selection=SELECTION, alpha=ALPHA,
                       n=(counts(2, 10 ** 6), COUNT))
    spec = run(DgpSpec, kwargs)
    if spec is not None:
        assert spec.selection.value == kwargs["selection"]
        assert spec.n == kwargs["n"] >= 2


SPECS = st.builds(DgpSpec, SELECTION[0], ALPHA[0], counts(2, 8))


@sweep("spec", "seed")
def test_generate(bad, data):
    kwargs = call_args(data.draw, bad, spec=(SPECS, OTHER), seed=SEED)
    dataset = run(generate, kwargs)
    if dataset is not None:
        n = kwargs["spec"].n
        assert_finite(dataset.X, (n, 5))
        for values in (dataset.pi_true, dataset.D, dataset.Y,
                       dataset.noise, dataset.cate_true):
            assert_finite(values, (n,))


# a count n_mc draws an (n_mc, 5) matrix, so no misuse here is a count
# that would take gigabytes: those past 2**60 are refused before numpy
# allocates anything
N_MC = st.sampled_from((9_999, 0, -1, 2 ** 62, 10 ** 400, 1e5, True, "3",
                        None, np.float64(4e4), DgpSpec("extreme", 1.0)))


@sweep("spec", "n_mc", "seed")
def test_signal_ratio(bad, data):
    kwargs = call_args(data.draw, bad, spec=(SPECS, OTHER),
                       n_mc=(counts(10_000, 12_000), N_MC), seed=SEED)
    ratio = run(signal_ratio, kwargs)
    if ratio is not None:
        assert math.isfinite(ratio) and ratio > 0


def sequences(elements, least=1):
    """A list or tuple of distinct ``elements``."""
    return st.lists(elements, min_size=least, max_size=3, unique=True).flatmap(
        lambda values: st.sampled_from((values, tuple(values))))


@st.composite
def experiment_data(draw, bad):
    iterations = draw(st.integers(1, 10 ** 6))
    return call_args(
        draw, bad,
        selections=(sequences(st.sampled_from(NAMES)),
                    st.one_of(OTHER, sequences(st.sampled_from(NAMES), 0),
                              st.just(["extreme", "extreme"]),
                              st.just(["strong"]))),
        alphas=(sequences(st.sampled_from((0.5, 1, 2.0, 4.0, 1e-100,
                                           1e100))),
                st.one_of(OTHER, st.lists(ALPHA[1], max_size=2),
                          st.just([1.0, 1.0000001]), st.just([]))),
        models=(sequences(st.sampled_from(MODEL_NAMES)),
                st.one_of(OTHER, st.just([]), st.just(["oracle"]),
                          st.just(["no_propensity"] * 2))),
        n=(counts(2, 10 ** 6), COUNT),
        replicates=(counts(2, 10 ** 4), COUNT),
        master_seed=(st.integers(-2 ** 70, 2 ** 70), misused_count()),
        iterations=(st.sampled_from((iterations, np.int64(iterations))),
                    misused_count(0, -1)),
        burn_in=(counts(0, iterations - 1),
                 misused_count(-1, iterations, iterations + 1)))


@sweep("selections", "alphas", "models", "n", "replicates", "master_seed",
       "iterations", "burn_in")
def test_experiment_config(bad, data):
    config = run(ExperimentConfig, data.draw(experiment_data(bad)))
    if config is not None:
        # what run_config.json records builds the same configuration
        assert ExperimentConfig(**config.to_json_dict()) == config
        assert config.bcf_config().chain.n_retained >= 1


SCALE_KINDS = (HalfCauchy, HalfNormal, FixedScale)
SCALE_PRIORS = st.builds(lambda kind, scale: kind(scale),
                         st.sampled_from(SCALE_KINDS), POSITIVE)
REAL = misused_scalar(0, -1.0, "1", True, None, 10 ** 400)


@pytest.mark.parametrize("kind", SCALE_KINDS, ids=lambda k: k.__name__)
@sweep("scale")
def test_scale_prior(kind, bad, data):
    kwargs = call_args(data.draw, bad, scale=(POSITIVE, REAL))
    prior = run(kind, kwargs)
    if prior is not None:
        assert math.isfinite(prior.initial()) and prior.initial() > 0


@st.composite
def forest_prior_data(draw, bad):
    return call_args(
        draw, bad, num_trees=(counts(1, 500), COUNT),
        base=(st.floats(5e-324, 1.0), misused_scalar(0, 1.5, "0.5", True)),
        power=(st.floats(0.0, 1e300), misused_scalar(-1, "2", True)),
        leaf_scale_prior=(SCALE_PRIORS, OTHER),
        cutpoints_per_feature=(counts(1, 500), COUNT))


@sweep("num_trees", "base", "power", "leaf_scale_prior",
       "cutpoints_per_feature")
def test_forest_prior(bad, data):
    prior = run(ForestPrior, data.draw(forest_prior_data(bad)))
    if prior is not None:
        assert prior.num_trees >= 1 and prior.cutpoints_per_feature >= 1


@st.composite
def chain_data(draw, bad):
    iterations = draw(st.integers(1, 10 ** 6))
    return call_args(draw, bad,
                     iterations=(st.just(iterations), misused_count(0, -1)),
                     burn_in=(st.integers(0, iterations - 1),
                              misused_count(-1, iterations)))


@sweep("iterations", "burn_in")
def test_chain_config(bad, data):
    chain = run(ChainConfig, data.draw(chain_data(bad)))
    if chain is not None:
        assert 1 <= chain.n_retained <= chain.iterations


@sweep("nu", "q")
def test_sigma_prior(bad, data):
    # the prior's refusal names its rule, which names both fields
    kwargs = call_args(data.draw, bad, nu=(POSITIVE, REAL),
                       q=(st.floats(0.0, 1.0, exclude_min=True,
                                    exclude_max=True),
                          misused_scalar(0, 1, "0.9", True)))
    prior = run(SigmaPrior, kwargs)
    if prior is not None:
        assert prior.nu > 0 and 0 < prior.q < 1


@sweep("value")
def test_fixed_sigma(bad, data):
    kwargs = call_args(data.draw, bad, value=(POSITIVE, REAL))
    prior = run(FixedSigma, kwargs)
    if prior is not None:
        assert math.isfinite(prior.value) and prior.value > 0


@sweep("mu", "tau", "propensity", "chain", "sigma_prior")
def test_bcf_config(bad, data):
    prior = st.just(PRIOR)
    kwargs = call_args(
        data.draw, bad, mu=(prior, OTHER), tau=(prior, OTHER),
        propensity=(prior, OTHER), chain=(CHAINS, OTHER),
        sigma_prior=(st.one_of(st.just(SigmaPrior()),
                               st.builds(FixedSigma, POSITIVE)), OTHER))
    config = run(BcfConfig, kwargs)
    if config is not None:
        assert config.chain.n_retained >= 1


@st.composite
def fits(draw):
    """A ``BcfFit`` whose tau draws are finite floats of any magnitude, a
    row per retained draw and a column per unit; either may be none."""
    k, n = draw(ROWS), draw(ROWS)
    tau = np.array(_values(draw, (k, n), FINITE)).reshape(k, n)
    return BcfFit(mu_draws=np.zeros((k, n)), tau_draws=tau,
                  sigma_draws=np.ones(k), pi_used=np.full(n, 0.5),
                  mode=PropensityMode.NO_PROPENSITY)


LEVEL = (st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
         misused_scalar(0, 1, "0.9", True, None))


@sweep("fit", "level")
def test_cate_intervals(bad, data):
    kwargs = call_args(data.draw, bad, fit=(fits(), OTHER), level=LEVEL)
    out = run(cate_intervals, kwargs)
    if out is not None:
        n = kwargs["fit"].tau_draws.shape[1]
        for key in ("mean", "lower", "upper"):
            assert_finite(out[key], (n,))
        assert (out["lower"] <= out["upper"]).all()


@sweep("fit", "level")
def test_ate_posterior(bad, data):
    kwargs = call_args(data.draw, bad, fit=(fits(), OTHER), level=LEVEL)
    out = run(ate_posterior, kwargs)
    if out is not None:
        assert_finite(out["draws"], kwargs["fit"].tau_draws.shape[:1])
        assert all(math.isfinite(out[key]) and isinstance(out[key], float)
                   for key in ("mean", "lower", "upper"))
        assert out["lower"] <= out["upper"]


# a tiny study: one cell, one model, one replicate of a 2-iteration chain
TINY = ExperimentConfig(selections=("extreme",), alphas=(4.0,),
                        models=("no_propensity",), n=30, replicates=1,
                        iterations=2, burn_in=1)


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """``{name: path}`` of a tiny run directory, its replicates.csv and
    cell checkpoint, a config file stating ``TINY``, a missing file and a
    directory."""
    root = tmp_path_factory.mktemp("sweep")
    run_experiment(TINY, root / "run")
    config = root / "tiny.cfg"
    config.write_text("".join(
        f"{key} = {', '.join(map(str, np.atleast_1d(value)))}\n"
        for key, value in TINY.to_json_dict().items()), encoding="utf-8")
    return {"run": root / "run", "replicates": root / "run/replicates.csv",
            "cell": root / "run/cells/cell_extreme_4.csv", "config": config,
            "missing": root / "missing.csv", "directory": root}


def misused_path(study, *names):
    """A path argument's misuse: a missing file, a directory, one of the
    study's ``names``, or another object."""
    return st.one_of(OTHER, st.sampled_from(
        [study[name] for name in ("missing", "directory", *names)]).flatmap(
        lambda path: st.sampled_from((path, str(path)))))


def run_paths(function, kwargs, path):
    """``run``, where a refusal may instead name the file at the argument
    ``path``, as the OS or the reader spells it."""
    value = kwargs[path]
    named = ((str(value), repr(str(value)))
             if isinstance(value, (str, os.PathLike)) else ())
    return outcome(lambda: function(**kwargs), tuple(kwargs), named)


@sweep("path")
def test_load_config_file(bad, data, study):
    kwargs = call_args(data.draw, bad,
                       path=(st.just(study["config"]),
                             misused_path(study, "replicates", "cell")))
    config = run_paths(load_config_file, kwargs, "path")
    if config is not None:
        assert config == TINY


@sweep("path", "extra")
def test_read_replicates_csv(bad, data, study):
    # a checkpoint has the two extra columns, replicates.csv none
    name, extra = data.draw(st.sampled_from(
        (("replicates", ()), ("cell", ["dataset_digest", "seconds"]))))
    kwargs = call_args(
        data.draw, bad,
        path=(st.sampled_from((study[name], str(study[name]))),
              misused_path(study, "config", "run")),
        extra=(st.just(extra), st.one_of(
            OTHER, st.lists(st.sampled_from(("seconds", "dataset_digest",
                                             1, None)), max_size=3))))
    table = run_paths(read_replicates_csv, kwargs, "path")
    if table is not None:
        assert len(table) == 1
        assert_finite(table.metrics, table.metrics.shape)
        assert len(table.extra) == len(kwargs["extra"])


@sweep("run_dir")
def test_report_from(bad, data, study):
    kwargs = call_args(data.draw, bad,
                       run_dir=(st.just(study["run"]),
                                misused_path(study, "replicates", "config")))
    table = run_paths(report_from, kwargs, "run_dir")
    if table is not None:
        assert len(table) == 1


RUNS = itertools.count()
# another object, but no path (a run would write there) and no
# configuration (a default one is the full study)
NO_RUN = OTHER.filter(
    lambda v: not isinstance(v, (str, os.PathLike, ExperimentConfig)))


@sweep("config", "out_dir", "resume", "progress")
def test_run_experiment(bad, data, study):
    # a run of TINY, one fit, into a fresh directory; a misused out_dir is
    # an existing file or another object, and a misuse of any argument is
    # refused before the fresh directory is made
    fresh = study["directory"] / f"run{next(RUNS)}"
    lines = []
    kwargs = call_args(
        data.draw, bad, config=(st.just(TINY), NO_RUN),
        out_dir=(st.sampled_from((fresh, str(fresh))),
                 st.one_of(NO_RUN, st.just(study["replicates"]))),
        resume=(st.booleans(), st.one_of(NO_RUN, st.sampled_from(
            ("no", 0, 1, np.bool_(True))))),
        progress=(st.sampled_from((None, lines.append)), NO_RUN))
    records = run_paths(run_experiment, kwargs, "out_dir")
    if records is None:
        assert not fresh.exists()
    else:
        assert len(records) == 1
        assert len(lines) == (kwargs["progress"] is not None)


# ------------------------------------------- values numpy cannot convert

CONVERSIONS = {
    "fit_continuous": (lambda: fit_continuous([["a"], ["b"]], [0.0, 1.0]),
                       "X"),
    "fit_binary_probit": (lambda: fit_binary_probit([[0.0], [1.0]],
                                                    [0, "one"]), "d"),
    "fit_bcf": (lambda: fit_bcf([[0.0], [1.0]], [0, 1], [0.0, 10 ** 400],
                                "no_propensity", [0.5, 0.5]), "y"),
    "fit_bcf_pi": (lambda: fit_bcf([[0.0], [1.0]], [0, 1], [0.0, 1.0],
                                   "true_propensity", ["x", 0.5]), "pi"),
    "propensity_column_pi_true": (lambda: propensity_column(
        "true_propensity", [[0.0], [1.0]], [0, 1], ["x", 0.5], BcfConfig(),
        0), "pi_true"),
    "ForestSampler": (lambda: ForestSampler([[1.0, 2.0], [3.0]], PRIOR),
                      "X"),
    "baseline": (lambda: baseline([["a"] * 5]), "x"),
    "beta_cdf_2_4": (lambda: beta_cdf_2_4(["0.5", "half"]), "u"),
    "pointwise_errors": (lambda: pointwise_errors([1.0], [{"a": 1}]),
                         "truth"),
    "interval_metrics": (lambda: interval_metrics([0.0], ["b"], [0.5], 0.9),
                         "upper"),
    "mann_whitney_u": (lambda: mann_whitney_u(["a", "b"], [1.0, 2.0]), "x"),
    "kruskal_wallis": (lambda: kruskal_wallis([[1.0, 2.0], [1.0, "z"]]),
                       "group 1"),
    "select_and_run": (lambda: select_and_run([1.0, 2.0], [3.0, 10 ** 400]),
                       "y"),
    # numpy used to drop the imaginary part with a ComplexWarning
    "pointwise_errors_complex": (
        lambda: pointwise_errors(np.array([1 + 5j, 2.0]),
                                 np.array([1.0, 2.0])), "estimate"),
}


@pytest.mark.parametrize("function", sorted(CONVERSIONS))
def test_a_value_numpy_cannot_convert_is_refused_by_name(function):
    # numpy's own message, "could not convert string to float" or "int too
    # large to convert to float", used to reach the caller unnamed
    call, name = CONVERSIONS[function]
    with pytest.raises(ValueError, match=f"^{name} must hold numbers: "):
        call()


# ------------------------------------------- objects of another type

_DATASET = generate(DgpSpec("extreme", 4.0, 6), 3)
_X, _D = _DATASET.X, np.array([0, 1] * 3)
_FIT = BcfFit(mu_draws=np.zeros((2, 6)), tau_draws=np.ones((2, 6)),
              sigma_draws=np.ones(2), pi_used=np.full(6, 0.5),
              mode=PropensityMode.NO_PROPENSITY)

# each object argument outside the sweeps above, given another type
OBJECT_CALLS = {
    "run_experiment_config": (lambda tmp: run_experiment("x", tmp),
                              "config", "an ExperimentConfig"),
    "run_experiment_out_dir": (lambda tmp: run_experiment(TINY, None),
                               "out_dir", "a str or a PathLike"),
    # "no" used to be taken as true
    "run_experiment_resume": (lambda tmp: run_experiment(
        TINY, tmp, resume="no"), "resume", "a bool"),
    # 5 used to fail as no callable after the run's first fit
    "run_experiment_progress": (lambda tmp: run_experiment(
        TINY, tmp, progress=5), "progress", "None or callable"),
    "apply_profile": (lambda tmp: apply_profile(TINY.bcf_config(), "quick"),
                      "config", "an ExperimentConfig"),
    "write_dataset_dataset": (lambda tmp: write_dataset(
        TINY, tmp / "d.csv"), "dataset", "a Dataset"),
    "write_dataset_path": (lambda tmp: write_dataset(_DATASET, 5),
                           "path", "a str or a PathLike"),
    "evaluate_fit_fit": (lambda tmp: evaluate_fit(_DATASET, _DATASET, 0, 1),
                         "fit", "a BcfFit"),
    "evaluate_fit_dataset": (lambda tmp: evaluate_fit(_FIT, TINY, 0, 1),
                             "dataset", "a Dataset"),
    "dataset_digest": (lambda tmp: dataset_digest(TINY.bcf_config()),
                       "dataset", "a Dataset"),
    "cell_values_config": (lambda tmp: cell_values(None, None),
                           "config", "an ExperimentConfig"),
    "cell_values_table": (lambda tmp: cell_values(TINY, [()]),
                          "table", "a RecordTable"),
    "summarize": (lambda tmp: summarize({"no_propensity": np.ones((16, 2))}),
                  "cell", "a CellValues"),
    "compare_models": (lambda tmp: compare_models(TINY), "cell",
                       "a CellValues"),
    "propensity_column": (lambda tmp: propensity_column(
        "estimated_propensity", _X, _D, None, TINY, 0), "config",
        "a BcfConfig"),
    "ForestSampler": (lambda tmp: ForestSampler(_X, ChainConfig(2, 1)),
                      "prior", "a ForestPrior"),
    "fit_continuous_prior": (lambda tmp: fit_continuous(
        _X, _DATASET.Y, prior=SigmaPrior()), "prior", "a ForestPrior"),
    "fit_continuous_chain": (lambda tmp: fit_continuous(
        _X, _DATASET.Y, PRIOR, chain=(2, 1)), "chain", "a ChainConfig"),
    "fit_binary_probit_prior": (lambda tmp: fit_binary_probit(
        _X, _D, prior=None), "prior", "a ForestPrior"),
    "fit_binary_probit_chain": (lambda tmp: fit_binary_probit(
        _X, _D, PRIOR, chain=PRIOR), "chain", "a ChainConfig"),
    "generate": (lambda tmp: generate(TINY, 0), "spec", "a DgpSpec"),
    "signal_ratio": (lambda tmp: signal_ratio(None, 10_000, 0), "spec",
                     "a DgpSpec"),
    "cate_intervals": (lambda tmp: cate_intervals(_DATASET), "fit",
                       "a BcfFit"),
    "ate_posterior": (lambda tmp: ate_posterior(TINY), "fit", "a BcfFit"),
    "load_config_file": (lambda tmp: load_config_file(None), "path",
                         "a str or a PathLike"),
    "report_from": (lambda tmp: report_from(None), "run_dir",
                    "a str or a PathLike"),
    "read_replicates_csv_extra": (lambda tmp: read_replicates_csv(
        tmp / "replicates.csv", extra=5), "extra", "a list or a tuple"),
    "kruskal_wallis": (lambda tmp: kruskal_wallis(5), "groups",
                       "a list or a tuple"),
}


@pytest.mark.parametrize("case", sorted(OBJECT_CALLS))
def test_an_object_of_another_type_is_refused_by_name(case, tmp_path):
    # each of these used to end in an AttributeError or a TypeError
    call, name, kind = OBJECT_CALLS[case]
    with pytest.raises(ValueError, match=f"^{name} must be {kind}, got "):
        call(tmp_path)
    assert list(tmp_path.iterdir()) == []


_HUGE = np.array([[1.7e308, 1.7e308], [-1.7e308, 1.7e308]])

# a refusal by name of what used to end in another exception or a
# RuntimeWarning
VALUE_CALLS = {
    "cate_intervals_overflow": (
        lambda: cate_intervals(dataclasses.replace(_FIT, tau_draws=_HUGE)),
        "^fit's tau_draws overflow float64"),
    "ate_posterior_overflow": (
        lambda: ate_posterior(dataclasses.replace(_FIT, tau_draws=_HUGE)),
        "^fit's tau_draws overflow float64"),
    "ate_posterior_no_unit": (
        lambda: ate_posterior(dataclasses.replace(
            _FIT, tau_draws=np.zeros((2, 0)))), "^fit's tau_draws must be "),
    "half_cauchy_zero": (lambda: HalfCauchy(0.0),
                         r"^scale must be finite and positive, got "
                         r"HalfCauchy\(scale=0\.0\)$"),
    "signal_ratio_huge_n_mc": (
        lambda: signal_ratio(DgpSpec("extreme", 1.0), 10 ** 400, 0),
        "^n_mc is too large to draw at once"),
    # numpy refuses (10**15, 5) floats without allocating them
    "generate_huge_n": (
        lambda: generate(DgpSpec("slight", 1.0, 10 ** 15), 1),
        "^n is too large to draw at once"),
}


@pytest.mark.parametrize("case", sorted(VALUE_CALLS))
def test_a_misused_value_is_refused_by_name(case):
    call, message = VALUE_CALLS[case]
    with pytest.raises(ValueError, match=message):
        call()


_RECORD = dict(dgp_id="extreme", alpha=4.0, model="no_propensity",
               replicate_index=0, seed=1, **dict.fromkeys(METRIC_FIELDS, 0.5))

# a ReplicateRecord field given another type, or a count below 0: "0.1" and
# None used to end in a TypeError, an int past float64 in an
# OverflowError, and the others were accepted
RECORD_CALLS = {
    "dgp_id": (5, "dgp_id must be a str, got 5"),
    "model": (None, "model must be a str, got None"),
    "alpha": ("x", "alpha must be a Real, got 'x'"),
    "replicate_index": (-1, "replicate_index must be at least 0, got -1"),
    "replicate_index_float": (1.0, "replicate_index must be an integer, "
                                   "got 1.0"),
    "seed": ("3", "seed must be an integer, got '3'"),
    "rmse_cate": ("0.1", "rmse_cate must be a Real, got '0.1'"),
    "cover_ate": (None, "cover_ate must be a Real, got None"),
    "mape_ate": (1j, "mape_ate must be a Real, got 1j"),
    "len_cate": (10 ** 400, "len_cate must be finite and nonnegative, "
                            "got inf"),
}


@pytest.mark.parametrize("case", sorted(RECORD_CALLS))
def test_a_misused_replicate_record_field_is_refused_by_name(case):
    value, message = RECORD_CALLS[case]
    field = case.removesuffix("_float")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ReplicateRecord(**{**_RECORD, field: value})
