"""Per-replicate evaluation metrics for point estimates and credible intervals.

Pointwise error metrics (RMSE, MAE, MAPE) compare an estimate vector against
ground truth; interval metrics score equal-tailed credible intervals by
empirical coverage and mean length, plus squared and absolute deviation of
coverage from its nominal level. One ``ReplicateRecord`` is one row of
replicates.csv: the key of one (dgp, alpha, model, replicate) fit and every
metric that scores it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .bart import _count, _floats, _instance, _is_real


def pointwise_errors(estimate, truth) -> dict:
    """RMSE, MAE and MAPE of ``estimate`` against ``truth``.

    Both inputs must be finite, and so must each score: inputs too far
    apart, or a truth too close to zero, raise a ValueError. MAPE divides by
    |truth|, so any exactly-zero truth entry is an error rather than a
    silent skip (the synthetic designs make zeros a measure-zero event, so
    hitting one means something is wrong upstream).
    """
    est, tru = _floats(estimate, "estimate"), _floats(truth, "truth")
    if est.shape != tru.shape:
        raise ValueError("estimate and truth must share a shape, got "
                         f"{est.shape} and {tru.shape}")
    if est.size == 0:
        raise ValueError("estimate and truth must be nonempty")
    if np.any(tru == 0):
        raise ValueError("MAPE undefined: truth contains an exact zero")
    with np.errstate(over="ignore", invalid="ignore"):
        err = est - tru
        scores = {
            "rmse": float(np.sqrt(np.mean(err**2))),
            "mae": float(np.mean(np.abs(err))),
            "mape": float(np.mean(np.abs(err) / np.abs(tru))),
        }
    for name, value in scores.items():
        if not math.isfinite(value):
            raise ValueError("estimate and truth overflow float64 in "
                             f"their {name}")
    return scores


def interval_metrics(lower, upper, truth, nominal: float) -> dict:
    """Coverage, mean length, and coverage error of credible intervals.

    All three arrays must be finite, and so must the mean length.

    cover     fraction of units with lower <= truth <= upper
    len       mean(upper - lower)
    se_cover  (cover - nominal)^2
    ae_cover  |cover - nominal|
    """
    lo, hi = _floats(lower, "lower"), _floats(upper, "upper")
    tru = _floats(truth, "truth")
    if not (lo.shape == hi.shape == tru.shape):
        raise ValueError("lower, upper and truth must share a shape")
    if lo.size == 0:
        raise ValueError("lower, upper and truth must be nonempty")
    if not (_is_real(nominal) and 0 < nominal < 1):
        raise ValueError(f"nominal level must be in (0, 1), got {nominal!r}")
    if np.any(lo > hi):
        raise ValueError("crossed interval: lower > upper")
    cover = float(np.mean((lo <= tru) & (tru <= hi)))
    with np.errstate(over="ignore"):
        length = float(np.mean(hi - lo))
    if not math.isfinite(length):
        raise ValueError("lower and upper overflow float64 in their mean "
                         "length")
    return {
        "cover": cover,
        "len": length,
        "se_cover": (cover - nominal) ** 2,
        "ae_cover": abs(cover - nominal),
    }


@dataclass
class ReplicateRecord:
    """All metrics from fitting one model variant on one synthetic draw.

    A field of another type is refused by name: ``dgp_id`` and ``model``
    are strs, ``replicate_index`` and ``seed`` counts from 0, ``alpha`` and
    each metric a real number. The metrics then keep the range rule."""

    dgp_id: str
    alpha: float
    model: str
    replicate_index: int
    seed: int
    rmse_cate: float
    mae_cate: float
    mape_cate: float
    cover_cate: float
    len_cate: float
    rmse_ate: float
    mae_ate: float
    mape_ate: float
    cover_ate: float
    len_ate: float
    rmse_pi: float
    mae_pi: float
    se_cover_cate: float
    ae_cover_cate: float
    se_cover_ate: float
    ae_cover_ate: float

    def __post_init__(self):
        for name in ("dgp_id", "model"):
            _instance(name, getattr(self, name), str)
        for name in ("replicate_index", "seed"):
            _count(name, getattr(self, name), 0)
        _instance("alpha", self.alpha, numbers.Real)
        broken = _out_of_range(
            np.array([[_real(name, getattr(self, name))]
                      for name in METRIC_FIELDS]))
        if broken is not None:
            raise ValueError(broken[1])


def _real(name: str, value) -> float:
    """A real number ``value`` as a float, inf for an int past float64; any
    other value raises a ValueError naming ``name``."""
    _instance(name, value, numbers.Real)
    try:
        return float(value)
    except OverflowError:
        return math.inf


# Field order is the contract for replicates.csv, one column per field
# (wall-clock timing goes to timing.json so reruns stay byte-identical).
RECORD_FIELDS = tuple(f.name for f in fields(ReplicateRecord))

# The per-replicate metric columns the summary and p-value tables report:
# every field after the five that name the fit.
METRIC_FIELDS = RECORD_FIELDS[RECORD_FIELDS.index("seed") + 1:]

# The metrics' range rule as its checks, in the order made: (metric, upper
# bound, message), each also requiring at least 0. The largest float bounds
# a finite value, and NaN fails every check.
_RANGE_CHECKS = (
    [(name, 1.0, "must be in [0, 1]") for name in ("cover_cate", "cover_ate")]
    + [(name, np.finfo(float).max, "must be finite and nonnegative")
       for name in METRIC_FIELDS])
_CHECKED_ROWS = [METRIC_FIELDS.index(name) for name, _, _ in _RANGE_CHECKS]
_UPPER = np.array([[upper] for _, upper, _ in _RANGE_CHECKS])


def _out_of_range(values: np.ndarray) -> tuple[int, str] | None:
    """(column, message) of the first column of a (metric x record) matrix,
    rows in ``METRIC_FIELDS`` order, that breaks the range rule, naming its
    first failed check; None if every column keeps the rule."""
    checked = values[_CHECKED_ROWS]
    failed = ~((checked >= 0) & (checked <= _UPPER))
    if not failed.any():
        return None
    column = int(failed.any(axis=0).argmax())
    check = int(failed[:, column].argmax())
    name, _, message = _RANGE_CHECKS[check]
    return column, f"{name} {message}, got {float(checked[check, column])}"
