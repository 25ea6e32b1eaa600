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

Every test runs row-wise. A sample is a 1-D array, and a matrix holds one
sample per row; the tests reduce along the last axis and pair row i of one
argument with row i of the other, so all rows of an argument share its
sample size. A 1-D call is the one-row case of the same code and returns
floats; a k-row call returns (k,) arrays that equal the k one-row calls bit
for bit. The harness passes one row per metric and model pair, so one call
per cell tests every metric of every pair; it names the rows itself.

All tests are two-sided. The implementations follow Hollander & Wolfe,
"Nonparametric Statistical Methods"; scipy is used only for the normal,
chi-square and F tails of ``scipy.special``, and ranks come from numpy.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

# Largest combined sample size for which Mann-Whitney U enumerates the exact
# permutation distribution (only attempted when there are no ties).
_EXACT_LIMIT = 16


@dataclass(frozen=True)
class TestResult:
    """A statistic and its p-value: floats for one sample pair, (k,)
    arrays for k rows."""

    stat: float | np.ndarray
    p: float | np.ndarray


@dataclass(frozen=True)
class TestReport:
    """Which tests ran for one sample pair, and what they said."""

    levene: TestResult
    brown_forsythe: TestResult
    fligner_policello: TestResult | None
    mann_whitney: TestResult | None
    kruskal_wallis: TestResult | None
    selected: tuple[str, ...]


def _as_rows(samples, names) -> tuple[list[np.ndarray], bool]:
    """The samples as C-contiguous float matrices, one sample per row, and
    whether every one was 1-D (a single row)."""
    arrays = [np.asarray(v, dtype=float) for v in samples]
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
        return TestResult(stat=float(stat[0]), p=float(p[0]))
    return TestResult(stat=stat, p=p)


def _square(v: np.ndarray) -> np.ndarray:
    """v**2 through the C library's pow, the rounding a scalar square
    gets; ``v * v`` can differ from it in the last bit."""
    return np.float_power(v, 2)


def _average_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks along the last axis, ties given the mean of their
    ranks (exact halves), and each row's tie term: the sum of t^3 - t over
    its tie groups, 0 when it has no ties."""
    n = values.shape[-1]
    order = np.argsort(values, axis=-1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=-1)
    # in sorted order: where each tie group starts, and where the next does
    starts_group = np.ones(values.shape, dtype=bool)
    starts_group[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    ends_group = np.ones(values.shape, dtype=bool)
    ends_group[..., :-1] = starts_group[..., 1:]
    position = np.arange(n)
    starts = np.maximum.accumulate(
        np.where(starts_group, position, 0), axis=-1)
    ends = np.minimum.accumulate(
        np.where(ends_group, position + 1, n)[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(values.shape)
    np.put_along_axis(ranks, order, 0.5 * (starts + ends + 1), axis=-1)
    # each of a group's t members adds t^2 - 1: integers, summed exactly
    sizes = ends - starts
    return ranks, (sizes * sizes - 1).sum(axis=-1).astype(float)


def mann_whitney_u(x, y) -> TestResult:
    """Two-sided Mann-Whitney U test.

    The reported statistic is min(U_x, U_y). Small tie-free samples
    (combined size <= 16) get the exact permutation p by enumerating all
    rank labelings; otherwise the normal approximation with tie and
    continuity corrections is used.
    """
    (x, y), one_row = _as_rows((x, y), ("x", "y"))
    nx, ny = x.shape[1], y.shape[1]
    n = nx + ny
    ranks, tie = _average_ranks(np.concatenate([x, y], axis=1))
    u_x = nx * ny + nx * (nx + 1) / 2.0 - ranks[:, :nx].sum(axis=1)
    u = np.minimum(u_x, nx * ny - u_x)

    var_u = nx * ny / 12.0 * ((n + 1) - tie / (n * (n - 1)))
    normal = var_u > 0
    z = (u - nx * ny / 2.0 + 0.5) / np.sqrt(np.where(normal, var_u, 1.0))
    p = np.where(normal, np.minimum(1.0, 2.0 * special.ndtr(z)), 1.0)
    exact = (tie == 0) & (n <= _EXACT_LIMIT)
    if exact.any():
        p[exact] = _exact_mwu_p(nx, ny, u_x[exact])
    return _result(u, p, one_row)


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


def kruskal_wallis(groups) -> TestResult:
    """Tie-corrected Kruskal-Wallis H test across k >= 2 groups."""
    groups = list(groups)
    samples, one_row = _as_rows(
        groups, [f"group {i}" for i in range(len(groups))])
    if len(samples) < 2:
        raise ValueError("kruskal_wallis needs at least 2 groups")
    pooled = np.concatenate(samples, axis=1)
    n = pooled.shape[1]
    ranks, tie = _average_ranks(pooled)
    bounds = np.cumsum([0] + [g.shape[1] for g in samples])
    h = sum(_square(ranks[:, start:end].sum(axis=1)) / (end - start)
            for start, end in zip(bounds[:-1], bounds[1:]))
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    correction = 1.0 - tie / (n**3 - n)
    corrected = correction > 0
    h = np.where(corrected, h / np.where(corrected, correction, 1.0), 0.0)
    # rounding can leave H a hair below 0, where the chi-square tail is 1
    positive = h > 0
    p = np.where(positive,
                 special.chdtrc(len(samples) - 1, np.where(positive, h, 1.0)),
                 1.0)
    return _result(h, p, one_row)


def levene_family(x, y, center: str = "mean") -> TestResult:
    """Levene-type dispersion test: ANOVA F on absolute deviations.

    ``center="mean"`` is Levene's original test, ``center="median"`` is the
    Brown-Forsythe variant. Degenerate input (zero deviation spread in both
    groups) yields p = 1 by convention, or an infinite F and p = 0 when the
    groups' mean deviations still differ.
    """
    (x, y), one_row = _as_rows((x, y), ("x", "y"))
    if x.shape[1] < 2 or y.shape[1] < 2:
        raise ValueError("levene_family needs at least 2 values per group")
    if center == "mean":
        dev = [np.abs(a - a.mean(axis=1, keepdims=True)) for a in (x, y)]
    elif center == "median":
        dev = [np.abs(a - np.median(a, axis=1, keepdims=True))
               for a in (x, y)]
    else:
        raise ValueError(f"center must be 'mean' or 'median', got {center!r}")

    n = x.shape[1] + y.shape[1]
    grand = np.concatenate(dev, axis=1).mean(axis=1)
    between = sum(d.shape[1] * _square(d.mean(axis=1) - grand) for d in dev)
    within = sum(((d - d.mean(axis=1, keepdims=True)) ** 2).sum(axis=1)
                 for d in dev)
    df1, df2 = 1, n - 2
    spread = within != 0
    w = (between / df1) / (np.where(spread, within, 1.0) / df2)
    stat = np.where(spread, w, np.where(between == 0, 0.0, np.inf))
    p = np.where(spread, special.fdtrc(df1, df2, np.where(spread, w, 0.0)),
                 np.where(between == 0, 1.0, 0.0))
    return _result(stat, p, one_row)


def fligner_policello(x, y) -> TestResult:
    """Fligner-Policello robust rank-order test (two-sided).

    Uses placement counts (ties counted half) and placement variances; valid
    without the equal-variance assumption the Mann-Whitney test leans on.
    The normal approximation is recommended for at least 12 observations per
    group; smaller samples trigger a warning. Fully separated samples have
    zero placement variance and report p = 0.
    """
    (x, y), one_row = _as_rows((x, y), ("x", "y"))
    nx = x.shape[1]
    if min(nx, y.shape[1]) < 12:
        warnings.warn(
            "fligner_policello normal approximation is unreliable below 12 "
            "observations per group",
            UserWarning,
            stacklevel=2,
        )
    # a value's placement, the count of the other sample below it (ties
    # counted half), is its pooled rank less its rank in its own sample
    pooled, _ = _average_ranks(np.concatenate([x, y], axis=1))
    p_x = pooled[:, :nx] - _average_ranks(x)[0]
    q_y = pooled[:, nx:] - _average_ranks(y)[0]
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
    return _result(stat, p, one_row)


def select_and_run(x, y):
    """Run the dispersion tests, then the location test they select.

    Levene p < 0.05 signals unequal variances, in which case the
    Fligner-Policello test carries the location comparison and the
    Mann-Whitney / Kruskal-Wallis pair is marked not applicable; otherwise
    the reverse. One sample pair gives one ``TestReport``; k-row matrices
    give a list of k reports, in row order, from one call of each test over
    the rows that need it.
    """
    (x, y), one_row = _as_rows((x, y), ("x", "y"))
    levene = levene_family(x, y, center="mean")
    brown_forsythe = levene_family(x, y, center="median")
    unequal = levene.p < 0.05
    location = {}
    if unequal.any():
        location["fligner_policello"] = _rows_of(
            fligner_policello(x[unequal], y[unequal]))
    if not unequal.all():
        same = ~unequal
        location["mann_whitney_u"] = _rows_of(
            mann_whitney_u(x[same], y[same]))
        location["kruskal_wallis"] = _rows_of(
            kruskal_wallis([x[same], y[same]]))
    reports = []
    for lev, bf, gated in zip(_rows_of(levene), _rows_of(brown_forsythe),
                              unequal):
        chosen = (("fligner_policello",) if gated
                  else ("mann_whitney_u", "kruskal_wallis"))
        found = {test: next(location[test]) for test in chosen}
        reports.append(TestReport(
            levene=lev,
            brown_forsythe=bf,
            fligner_policello=found.get("fligner_policello"),
            mann_whitney=found.get("mann_whitney_u"),
            kruskal_wallis=found.get("kruskal_wallis"),
            selected=chosen,
        ))
    return reports[0] if one_row else reports


def _rows_of(result: TestResult):
    """An iterator over a k-row result's rows, each a float TestResult."""
    return (TestResult(stat=s, p=p)
            for s, p in zip(result.stat.tolist(), result.p.tolist()))
