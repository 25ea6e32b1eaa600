"""The misuse contract, swept: every public function that takes an array
argument either returns finite output of its documented shape, or raises a
ValueError whose message names one of its arguments.

Hypothesis draws each array's shape (n from 0 to 8 rows, p from 0 to 3
columns, or another rank), its dtype (bool, int, float, object or str),
the magnitudes of its values (from the least subnormal to the largest
float) and where a NaN or inf sits. Each function is swept once with
every argument keeping its rule, and once per argument with that one
misused: it may take another shape or rank, another dtype or any value.
The others keep their rules, so the sweep reaches the paths past each
check. Fits run 2 trees for chains of 2 to 4 iterations. A SIGALRM timer
bounds each call. Any other exception, a hang, a NaN, or an infinity
where no docstring states one fails the example, and pyproject's warning
filter makes a RuntimeWarning an exception too. The examples are
derandomized, so every run sweeps the same ones.
"""

import math
import operator
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
    ForestPrior,
    ForestSampler,
    fit_binary_probit,
    fit_continuous,
)
from bcfsim.bcf import BcfConfig, fit_bcf
from bcfsim.dgp import baseline, beta_cdf_2_4, cate, propensity
from bcfsim.metrics import interval_metrics, pointwise_errors
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
    """An array of ``shape`` in any of five dtypes (bool, int, float,
    object, str), holding values of any magnitude, a NaN or inf at a drawn
    place, None, an int beyond float64 or text."""
    kind = draw(st.sampled_from(("object", "str", "non-finite", "numbers")))
    if kind == "numbers":
        return draw(numbers(shape))
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


def outcome(call, names):
    """``call()``'s return, or None when it raises a ValueError that names
    one of ``names``; any other exception fails the example."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, SECONDS)
    try:
        with warnings.catch_warnings():
            # every sample here is below Fligner-Policello's warning size
            warnings.filterwarnings("ignore", "fligner_policello normal",
                                    UserWarning)
            return call()
    except ValueError as exc:
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


@st.composite
def bcf_data(draw, bad):
    n, p, chain = draw(ROWS), draw(COLUMNS), draw(CHAINS)
    mode = draw(st.sampled_from(MODES))
    pi_true = unit((n,)) if mode == "true_propensity" else st.none()
    config = BcfConfig(mu=PRIOR, tau=PRIOR, propensity=PRIOR, chain=chain)
    return chain, call_args(
        draw, bad, X=(numbers((n, p)), misused((n, p))),
        z=(binary((n,)), misused((n,))), y=(numbers((n,)), misused((n,))),
        mode=(st.just(mode), misused_scalar("no_such_mode")),
        pi_true=(pi_true, st.one_of(misused((n,)), unit((n,)))),
        config=(st.just(config), misused_scalar("config", chain)),
        seed=SEED)


@sweep("X", "z", "y", "mode", "pi_true", "config", "seed")
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
ALPHA = (st.floats(1e-300, 1e300),
         misused_scalar(5e-324, 1e-310, 1e308, 0, -2, 10 ** 400, "2", None,
                        True, (1.0,)))


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


@sweep("x", "y")
def test_kruskal_wallis(bad, data):
    # the groups are named by their place in ``groups``
    kwargs = data.draw(sample_pairs(bad))
    result = run(kruskal_wallis, {"groups": [kwargs["x"], kwargs["y"]]},
                 "group 0", "group 1")
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


# ------------------------------------------- values numpy cannot convert

CONVERSIONS = {
    "fit_continuous": (lambda: fit_continuous([["a"], ["b"]], [0.0, 1.0]),
                       "X"),
    "fit_binary_probit": (lambda: fit_binary_probit([[0.0], [1.0]],
                                                    [0, "one"]), "d"),
    "fit_bcf": (lambda: fit_bcf([[0.0], [1.0]], [0, 1], [0.0, 10 ** 400],
                                "no_propensity"), "y"),
    "fit_bcf_pi_true": (lambda: fit_bcf([[0.0], [1.0]], [0, 1], [0.0, 1.0],
                                        "true_propensity",
                                        pi_true=["x", 0.5]), "pi_true"),
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
}


@pytest.mark.parametrize("function", sorted(CONVERSIONS))
def test_a_value_numpy_cannot_convert_is_refused_by_name(function):
    # numpy's own message, "could not convert string to float" or "int too
    # large to convert to float", used to reach the caller unnamed
    call, name = CONVERSIONS[function]
    with pytest.raises(ValueError, match=f"^{name} must hold numbers: "):
        call()
