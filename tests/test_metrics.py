import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from bcfsim.metrics import (
    METRIC_FIELDS, RECORD_FIELDS, ReplicateRecord, interval_metrics,
    pointwise_errors,
)

_pairs = st.lists(
    st.tuples(st.floats(-50, 50, allow_nan=False), st.floats(0.1, 50)),
    min_size=1, max_size=30,
)


def test_pointwise_errors_hand_example():
    # errors (0.1, -0.1, 0.2) against truth (1, 2, 4)
    est = np.array([1.1, 1.9, 4.2])
    tru = np.array([1.0, 2.0, 4.0])
    out = pointwise_errors(est, tru)
    assert_allclose(out["rmse"], np.sqrt((0.01 + 0.01 + 0.04) / 3))
    assert_allclose(out["mae"], (0.1 + 0.1 + 0.2) / 3)
    assert_allclose(out["mape"], (0.1 / 1 + 0.1 / 2 + 0.2 / 4) / 3)


def test_pointwise_errors_perfect():
    x = np.linspace(1, 2, 9)
    out = pointwise_errors(x, x)
    assert out == {"rmse": 0.0, "mae": 0.0, "mape": 0.0}


def test_pointwise_errors_validation():
    with pytest.raises(ValueError):
        pointwise_errors([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        pointwise_errors([], [])
    with pytest.raises(ValueError):
        pointwise_errors([1.0], [0.0])  # MAPE undefined


def test_rmse_dominates_mae():
    rng = np.random.default_rng(11)
    est = rng.normal(size=200)
    tru = rng.normal(size=200) + 1.5
    out = pointwise_errors(est, tru)
    assert out["rmse"] >= out["mae"]


@given(_pairs)
def test_rmse_mae_ordering_property(pairs):
    # rmse >= mae with equality exactly when the absolute errors are all
    # equal (Jensen); spread-out errors force a strict gap
    est = np.array([a for a, _ in pairs])
    tru = np.array([b for _, b in pairs])
    out = pointwise_errors(est, tru)
    assert out["rmse"] >= out["mae"] - 1e-12
    errs = np.abs(est - tru)
    if np.ptp(errs) > 0.1:
        assert out["rmse"] > out["mae"]


def test_rmse_equals_mae_for_constant_errors():
    out = pointwise_errors([1.3, 2.7, -0.7], [0.6, 2.0, -1.4])
    assert_allclose(out["rmse"], out["mae"])
    assert_allclose(out["rmse"], 0.7)


@given(_pairs, st.floats(0.1, 10.0))
def test_scaling_moves_rmse_mae_not_mape(pairs, c):
    # the absolute floor absorbs rounding noise when est and tru agree to
    # within an ulp, where relative comparison of the errors is meaningless
    est = np.array([a for a, _ in pairs])
    tru = np.array([b for _, b in pairs])
    out = pointwise_errors(est, tru)
    scaled = pointwise_errors(c * est, c * tru)
    assert_allclose(scaled["rmse"], c * out["rmse"], rtol=1e-9, atol=1e-12)
    assert_allclose(scaled["mae"], c * out["mae"], rtol=1e-9, atol=1e-12)
    assert_allclose(scaled["mape"], out["mape"], rtol=1e-9, atol=1e-12)


def test_interval_metrics_hand_example():
    lo = np.array([0.0, 0.0, 2.0, 0.0])
    hi = np.array([1.0, 1.0, 3.0, 4.0])
    tr = np.array([0.5, 2.0, 2.5, 4.0])  # in, out, in, boundary in
    out = interval_metrics(lo, hi, tr, nominal=0.95)
    assert out["cover"] == 0.75
    assert_allclose(out["len"], (1 + 1 + 1 + 4) / 4)
    assert_allclose(out["se_cover"], 0.04)
    assert_allclose(out["ae_cover"], 0.2)


def test_interval_metrics_validation():
    with pytest.raises(ValueError):
        interval_metrics([1.0], [0.5], [0.7], 0.95)  # crossed
    with pytest.raises(ValueError):
        interval_metrics([0.0], [1.0], [0.5], 1.0)  # bad nominal
    with pytest.raises(ValueError):
        interval_metrics([], [], [], 0.95)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_interval_metrics_reject_non_finite_inputs(bad):
    good = [0.0, 0.0]
    for name, args in (("lower", ([bad, 0.0], [1.0, 1.0], [0.5, 0.5])),
                       ("upper", (good, [bad, 1.0], [0.5, 0.5])),
                       ("truth", (good, [1.0, 1.0], [0.5, bad]))):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            interval_metrics(*args, 0.95)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pointwise_errors_reject_non_finite_inputs(bad):
    with pytest.raises(ValueError, match="estimate must be finite"):
        pointwise_errors([1.0, bad], [1.0, 2.0])
    with pytest.raises(ValueError, match="truth must be finite"):
        pointwise_errors([1.0, 2.0], [bad, 2.0])


@pytest.mark.parametrize("call, message", [
    (lambda: pointwise_errors([1e308], [-1e308]),
     "estimate and truth overflow float64 in their rmse"),
    (lambda: pointwise_errors([1.0], [5e-324]),
     "estimate and truth overflow float64 in their mape"),
    (lambda: interval_metrics([-1e308], [1e308], [0.0], 0.95),
     "lower and upper overflow float64 in their mean length"),
    (lambda: interval_metrics([0.0], [1.0], [0.5], "0.9"),
     "nominal level must be in (0, 1), got '0.9'"),
], ids=["difference", "mape", "length", "nominal_text"])
def test_finite_inputs_whose_scores_overflow_are_refused(call, message):
    # a ValueError naming the inputs, not an overflow warning (the suite
    # turns a RuntimeWarning into an error) or a TypeError
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message


def test_large_finite_scores_are_kept():
    out = pointwise_errors([1e150, 2.0], [1.0, 1.0])
    assert out["rmse"] == float(np.sqrt(np.mean(np.array([1e150 - 1, 1.0])
                                                 ** 2)))
    assert interval_metrics([-1e307], [1e307], [0.0], 0.95)["len"] == 2e307


def test_interval_metrics_degenerate_interval_ok():
    # zero-width intervals are legal; they cover only exact hits
    out = interval_metrics([1.0, 2.0], [1.0, 2.0], [1.0, 0.0], 0.5)
    assert out["cover"] == 0.5
    assert out["len"] == 0.0


def _record(**overrides):
    base = dict(
        dgp_id="extreme", alpha=4.0, model="no_propensity",
        replicate_index=0, seed=1,
        rmse_cate=0.1, mae_cate=0.08, mape_cate=0.5, cover_cate=0.95,
        len_cate=0.4, rmse_ate=0.05, mae_ate=0.05, mape_ate=0.3,
        cover_ate=1.0, len_ate=0.3, rmse_pi=0.4, mae_pi=0.35,
        se_cover_cate=0.0, ae_cover_cate=0.0, se_cover_ate=0.0025,
        ae_cover_ate=0.05,
    )
    base.update(overrides)
    return ReplicateRecord(**base)


def test_record_field_order_is_stable():
    # the declared order is the CSV contract
    assert RECORD_FIELDS == (
        "dgp_id", "alpha", "model", "replicate_index", "seed",
        "rmse_cate", "mae_cate", "mape_cate", "cover_cate", "len_cate",
        "rmse_ate", "mae_ate", "mape_ate", "cover_ate", "len_ate",
        "rmse_pi", "mae_pi",
        "se_cover_cate", "ae_cover_cate", "se_cover_ate", "ae_cover_ate",
    )
    # the metrics are the fields after the five that name the fit
    assert METRIC_FIELDS == RECORD_FIELDS[5:]


def test_record_validation():
    assert _record().cover_cate == 0.95
    with pytest.raises(ValueError):
        _record(cover_cate=1.2)
    with pytest.raises(ValueError):
        _record(len_ate=-0.1)
    with pytest.raises(ValueError):
        _record(rmse_pi=-1e-9)


@pytest.mark.parametrize("name", METRIC_FIELDS)
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_record_rejects_non_finite_metrics(name, bad):
    with pytest.raises(ValueError, match=name):
        _record(**{name: bad})


def test_record_is_plain_data():
    rec = _record()
    clone = dataclasses.replace(rec, replicate_index=3)
    assert clone.replicate_index == 3
    assert clone.rmse_cate == rec.rmse_cate
