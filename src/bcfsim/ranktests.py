"""Two-sample hypothesis tests and the variance-gated selection rule.

Five nonparametric tests are used to compare metric samples from two model
variants: Mann-Whitney U and Kruskal-Wallis for location when dispersions
look equal, the Fligner-Policello robust rank-order test when they do not,
and the Levene / Brown-Forsythe pair to decide which situation applies
(Brown-Forsythe is Levene with median centering).

``select_and_run`` codifies the decision rule: run both dispersion tests,
and if Levene rejects at the 5% level report Fligner-Policello as the
location test, otherwise report Mann-Whitney U plus Kruskal-Wallis. Exactly
one of the two location branches is populated per sample pair.

Every test runs row-wise. A sample is a 1-D array of finite values, and a
matrix holds one sample per row; the tests reduce along the last axis and
pair row i of one argument with row i of the other, so all rows of an
argument share its sample size. A 1-D call is the one-row case of the same
code and returns floats; a k-row call returns (k,) arrays that equal the k
one-row calls bit for bit. The harness passes one row per metric and model
pair, so one call per cell tests every metric of every pair; it names the
rows itself.

One sort of each pooled row [x | y] gives every value's placement, the
count of the other sample below it with ties counted half (Fligner &
Policello 1981), and the row's tie term. A sample's rank sum is its
placement sum plus the rank sum it has alone, so that one ranking feeds
Mann-Whitney, Kruskal-Wallis and Fligner-Policello alike: ``select_and_run``
sorts each row once for whichever location test its gate picks.

All tests are two-sided. The implementations follow Hollander & Wolfe,
"Nonparametric Statistical Methods"; scipy is used only for the normal,
chi-square and F tails of ``scipy.special``, and ranks come from numpy.
"""

from __future__ import annotations

import itertools
import math
import warnings
from typing import NamedTuple

import numpy as np
from scipy import special

from .bart import _floats, _instance

# Largest combined sample size for which Mann-Whitney U enumerates the exact
# permutation distribution (only attempted when there are no ties).
_EXACT_LIMIT = 16


class TestResult(NamedTuple):
    """A statistic and its p-value: floats for one sample pair, (k,)
    arrays for k rows."""

    stat: float | np.ndarray
    p: float | np.ndarray


class TestReport(NamedTuple):
    """Which tests ran for one sample pair, and what they said."""

    levene: TestResult
    brown_forsythe: TestResult
    fligner_policello: TestResult | None
    mann_whitney: TestResult | None
    kruskal_wallis: TestResult | None
    selected: tuple[str, ...]


def _as_rows(samples, names) -> tuple[list[np.ndarray], bool]:
    """The samples as C-contiguous float matrices, one sample per row, and
    whether every one was 1-D (a single row); every value must be finite."""
    arrays = [_floats(v, name) for v, name in zip(samples, names)]
    rows = []
    for arr, name in zip(arrays, names):
        if arr.ndim not in (1, 2):
            raise ValueError(f"{name} must be a sample or a matrix of "
                             "samples, one per row")
        if arr.shape[-1] == 0:
            raise ValueError(f"{name} must be nonempty")
        rows.append(np.ascontiguousarray(arr.reshape(-1, arr.shape[-1])))
    if len({r.shape[0] for r in rows}) > 1:
        raise ValueError(f"{', '.join(names)} must have as many rows")
    return rows, all(arr.ndim == 1 for arr in arrays)


def _result(stat: np.ndarray, p: np.ndarray, one_row: bool) -> TestResult:
    if one_row:
        return TestResult(float(stat[0]), float(p[0]))
    return TestResult(stat, p)


def _square(v: np.ndarray) -> np.ndarray:
    """v**2 through the C library's pow, the rounding a scalar square
    gets; ``v * v`` can differ from it in the last bit."""
    return np.float_power(v, 2)


def _rank_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One sort per pooled row [x | y]: each value's placement, in the
    pooled row's order, and each row's tie term.

    A placement is the count of the other sample below the value plus half
    the count equal to it, read off the value's tie group. Placements are
    integers or halves, so every sum of them is exact. The tie term is the
    sum of t^3 - t over the row's tie groups, integers summed exactly.
    Nothing reads the order within a tie group, so the sort need not be
    stable.
    """
    pooled = np.concatenate([x, y], axis=1)
    k, n = pooled.shape
    order = np.argsort(pooled, axis=1)
    # sorted positions are numbered across rows, row after row, as flat
    # indices are; at[j] is the flat index of the value at position j
    row_start = np.arange(0, k * n, n)
    at = order + row_start[:, np.newaxis]
    ordered = pooled.take(at)
    starts = np.empty((k, n), dtype=bool)
    starts[:, 0] = True
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=starts[:, 1:])
    # each tie group's first position, size and row's first position
    first = np.flatnonzero(starts)
    sizes = np.diff(first, append=k * n)
    per_row = starts.sum(axis=1)
    row = np.repeat(row_start, per_row)
    tie = np.add.reduceat((sizes * sizes - 1) * sizes,
                          np.cumsum(per_row) - per_row).astype(float)
    in_y = order.ravel() >= x.shape[1]
    # y_before[j]: how many y values the sorted positions before j hold
    y_before = np.zeros(pooled.size + 1, dtype=np.intp)
    np.cumsum(in_y, out=y_before[1:])
    end = first + sizes
    # per group, twice the placement of an x value in it (twice the y
    # below the group, plus the y in it) and of a y value (the same of x)
    twice_x = y_before[first] + y_before[end] - 2 * y_before[row]
    twice_y = first + end - 2 * row - twice_x
    placed = np.empty(pooled.shape)
    placed.ravel()[at.ravel()] = 0.5 * np.where(
        in_y, np.repeat(twice_y, sizes), np.repeat(twice_x, sizes))
    return placed, tie


def _mann_whitney(u_x: np.ndarray, tie: np.ndarray, nx: int,
                  ny: int) -> tuple[np.ndarray, np.ndarray]:
    """min(U_x, U_y) and its p from U_x, the sum of y's placements."""
    n = nx + ny
    u = np.minimum(u_x, nx * ny - u_x)
    var_u = nx * ny / 12.0 * ((n + 1) - tie / (n * (n - 1)))
    normal = var_u > 0
    z = (u - nx * ny / 2.0 + 0.5) / np.sqrt(np.where(normal, var_u, 1.0))
    p = np.where(normal, np.minimum(1.0, 2.0 * special.ndtr(z)), 1.0)
    exact = (tie == 0) & (n <= _EXACT_LIMIT)
    if exact.any():
        p[exact] = _exact_mwu_p(nx, ny, u_x[exact])
    return u, p


def mann_whitney_u(x, y) -> TestResult:
    """Two-sided Mann-Whitney U test.

    The reported statistic is min(U_x, U_y). Small tie-free samples
    (combined size <= 16) get the exact permutation p by enumerating all
    rank labelings; otherwise the normal approximation with tie and
    continuity corrections is used.
    """
    (x, y), one_row = _as_rows((x, y), ("x", "y"))
    nx = x.shape[1]
    placed, tie = _rank_pair(x, y)
    return _result(*_mann_whitney(placed[:, nx:].sum(axis=1), tie, nx,
                                  y.shape[1]), one_row)


def _exact_mwu_p(nx: int, ny: int, u_x: np.ndarray) -> np.ndarray:
    """Exact two-sided p of each U_x, enumerating all C(nx+ny, nx) rank
    labelings once."""
    base = nx * ny + nx * (nx + 1) / 2.0
    u_values = base - np.fromiter(
        map(sum, itertools.combinations(range(1, nx + ny + 1), nx)),
        dtype=float)
    le = (u_values <= u_x[:, np.newaxis]).sum(axis=1)
    ge = (u_values >= u_x[:, np.newaxis]).sum(axis=1)
    return np.minimum(1.0, 2.0 * np.minimum(le, ge) / len(u_values))


def _kruskal_wallis(u_x: np.ndarray, tie: np.ndarray, nx: int,
                    ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Tie-corrected H and its p from U_x, the sum of y's placements."""
    n = nx + ny
    # a sample's rank sum is its placement sum plus the rank sum it has
    # alone, and the two placement sums add up to nx * ny
    r_x = nx * ny - u_x + nx * (nx + 1) / 2.0
    r_y = u_x + ny * (ny + 1) / 2.0
    h = _square(r_x) / nx + _square(r_y) / ny
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    correction = 1.0 - tie / (n**3 - n)
    corrected = correction > 0
    h = np.where(corrected, h / np.where(corrected, correction, 1.0), 0.0)
    # rounding can leave H a hair below 0, where the chi-square tail is 1
    positive = h > 0
    p = np.where(positive, special.chdtrc(1, np.where(positive, h, 1.0)),
                 1.0)
    return h, p


def kruskal_wallis(groups) -> TestResult:
    """Tie-corrected Kruskal-Wallis H test of two groups, ``[x, y]``."""
    if len(_instance("groups", groups, list, tuple)) != 2:
        raise ValueError(f"kruskal_wallis needs 2 groups, got {len(groups)}")
    (x, y), one_row = _as_rows(groups, ("group 0", "group 1"))
    nx = x.shape[1]
    placed, tie = _rank_pair(x, y)
    return _result(*_kruskal_wallis(placed[:, nx:].sum(axis=1), tie, nx,
                                    y.shape[1]), one_row)


def levene_family(x, y, center: str = "mean") -> TestResult:
    """Levene-type dispersion test: ANOVA F on absolute deviations.

    ``center="mean"`` is Levene's original test, ``center="median"`` is the
    Brown-Forsythe variant. Degenerate input (zero deviation spread in both
    groups) yields p = 1 by convention, or an infinite F and p = 0 when the
    groups' mean deviations still differ. A sum of squares no larger than
    n (4 n eps max|v|)^2, for the n values v of a row, is what rounding
    leaves of deviations equal in exact arithmetic (each is off by at most
    about 4 n eps max|v|), so a within-group sum that small counts as 0,
    and so does a between-group sum where it picks the convention: the two
    deviations of a two-value sample from its centre are always equal. A
    sample whose sums of squared deviations overflow float64 is refused
    with a ValueError naming it.
    """
    (x, y), one_row = _as_rows((x, y), ("x", "y"))
    return _result(*_levene(x, y, center), one_row)


def _levene(x: np.ndarray, y: np.ndarray, center: str) -> TestResult:
    """``levene_family`` on rows ``_as_rows`` has checked: (k,) arrays."""
    if x.shape[1] < 2 or y.shape[1] < 2:
        raise ValueError("x and y must hold at least 2 values each")
    if center not in ("mean", "median"):
        raise ValueError(f"center must be 'mean' or 'median', got {center!r}")
    n = x.shape[1] + y.shape[1]
    # an overflow is refused below, naming its sample, instead of warned
    # about
    with np.errstate(over="ignore", invalid="ignore"):
        if center == "mean":
            dev = [np.abs(a - a.mean(axis=1, keepdims=True)) for a in (x, y)]
        else:
            dev = [np.abs(a - np.median(a, axis=1, keepdims=True))
                   for a in (x, y)]
        grand = np.concatenate(dev, axis=1).mean(axis=1)
        means = [d.mean(axis=1) for d in dev]
        between = sum(d.shape[1] * _square(m - grand)
                      for d, m in zip(dev, means))
        withins = [((d - m[:, np.newaxis]) ** 2).sum(axis=1)
                   for d, m in zip(dev, means)]
        within = sum(withins)
        top = np.maximum(np.abs(x).max(axis=1), np.abs(y).max(axis=1))
        noise = n * _square(4 * n * np.finfo(float).eps * top)
    broken = ~(np.isfinite(between) & np.isfinite(within))
    if broken.any():
        row = int(broken.argmax())
        # the sample whose deviations spread too far, or else the one
        # whose mean deviation is the larger
        w_x, w_y = withins[0][row], withins[1][row]
        if math.isfinite(w_x) and math.isfinite(w_y):
            name = "x" if means[0][row] >= means[1][row] else "y"
        else:
            name = "y" if math.isfinite(w_x) else "x"
        raise ValueError(f"{name} is too spread out for the {center}-centred "
                         "Levene test: its sums of squared deviations "
                         "overflow float64")
    df1, df2 = 1, n - 2
    spread = within > noise
    differ = between > noise
    w = (between / df1) / (np.where(spread, within, 1.0) / df2)
    stat = np.where(spread, w, np.where(differ, np.inf, 0.0))
    p = np.where(spread, special.fdtrc(df1, df2, np.where(spread, w, 0.0)),
                 np.where(differ, 0.0, 1.0))
    return TestResult(stat, p)


def _warn_below_min_size(nx: int, ny: int) -> None:
    """Warn the caller of the public test when a group is too small for
    Fligner-Policello's normal approximation."""
    if min(nx, ny) < 12:
        warnings.warn(
            "fligner_policello normal approximation is unreliable below 12 "
            "observations per group",
            UserWarning,
            stacklevel=3,
        )


def _fligner_policello(p_x: np.ndarray,
                       q_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U-hat and its p from x's placements among y and y's among x."""
    p_bar = p_x.mean(axis=1)
    q_bar = q_y.mean(axis=1)
    v_x = ((p_x - p_bar[:, np.newaxis]) ** 2).sum(axis=1)
    v_y = ((q_y - q_bar[:, np.newaxis]) ** 2).sum(axis=1)
    num = q_y.sum(axis=1) - p_x.sum(axis=1)
    denom = 2.0 * np.sqrt(v_x + v_y + p_bar * q_bar)
    spread = denom != 0
    u_hat = num / np.where(spread, denom, 1.0)
    stat = np.where(spread, u_hat,
                    np.where(num == 0, 0.0, np.copysign(np.inf, num)))
    p = np.where(spread, 2.0 * special.ndtr(-np.abs(u_hat)),
                 np.where(num == 0, 1.0, 0.0))
    return stat, p


def fligner_policello(x, y) -> TestResult:
    """Fligner-Policello robust rank-order test (two-sided).

    Uses placement counts (ties counted half) and placement variances; valid
    without the equal-variance assumption the Mann-Whitney test leans on.
    The normal approximation is recommended for at least 12 observations per
    group; smaller samples trigger a warning. Fully separated samples have
    zero placement variance and report an infinite statistic and p = 0.
    """
    (x, y), one_row = _as_rows((x, y), ("x", "y"))
    nx = x.shape[1]
    _warn_below_min_size(nx, y.shape[1])
    placed, _ = _rank_pair(x, y)
    return _result(*_fligner_policello(placed[:, :nx], placed[:, nx:]),
                   one_row)


def select_and_run(x, y):
    """Run the dispersion tests, then the location test they select.

    Levene p < 0.05 signals unequal variances, in which case the
    Fligner-Policello test carries the location comparison and the
    Mann-Whitney / Kruskal-Wallis pair is marked not applicable; otherwise
    the reverse. One sample pair gives one ``TestReport``; k-row matrices
    give a list of k reports, in row order. One ``_rank_pair`` call ranks
    every row, and each location test reads the rows the gate gives it.
    """
    (x, y), one_row = _as_rows((x, y), ("x", "y"))
    nx, ny = x.shape[1], y.shape[1]
    levene = _levene(x, y, "mean")
    brown_forsythe = _levene(x, y, "median")
    unequal = levene.p < 0.05
    placed, tie = _rank_pair(x, y)
    fp = mw = kw = iter(())
    if unequal.any():
        _warn_below_min_size(nx, ny)
        fp = _rows_of(_fligner_policello(placed[unequal, :nx],
                                         placed[unequal, nx:]))
    if not unequal.all():
        same = ~unequal
        u_x, tie = placed[same, nx:].sum(axis=1), tie[same]
        mw = _rows_of(_mann_whitney(u_x, tie, nx, ny))
        kw = _rows_of(_kruskal_wallis(u_x, tie, nx, ny))
    reports = [
        TestReport(lev, bf, next(fp), None, None, ("fligner_policello",))
        if gated else
        TestReport(lev, bf, None, next(mw), next(kw),
                   ("mann_whitney_u", "kruskal_wallis"))
        for lev, bf, gated in zip(_rows_of(levene), _rows_of(brown_forsythe),
                                  unequal.tolist())]
    return reports[0] if one_row else reports


def _rows_of(result) -> map:
    """An iterator over a k-row (stat, p) pair's rows, each a float
    TestResult."""
    stat, p = result
    return map(TestResult, stat.tolist(), p.tolist())
