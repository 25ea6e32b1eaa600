"""Two-sample hypothesis tests and the variance-gated selection rule.

Five nonparametric tests are used to compare metric samples from two model
variants: Mann-Whitney U and Kruskal-Wallis for location when dispersions
look equal, the Fligner-Policello robust rank-order test when they do not,
and the Levene / Brown-Forsythe pair to decide which situation applies
(Brown-Forsythe is Levene with median centering).

``select_and_run`` codifies the decision rule: run both dispersion tests,
and if Levene rejects at the 5% level report Fligner-Policello as the
location test, otherwise report Mann-Whitney U plus Kruskal-Wallis. Exactly
one of the two location branches is populated per metric.

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
    stat: float
    p: float


@dataclass(frozen=True)
class TestReport:
    """Which tests ran for one metric, and what they said."""

    metric_name: str
    levene: TestResult
    brown_forsythe: TestResult
    fligner_policello: TestResult | None
    mann_whitney: TestResult | None
    kruskal_wallis: TestResult | None
    selected: tuple[str, ...]


def _as_sample(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    return arr


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties given the mean of their ranks (exact halves)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def _tie_term(values: np.ndarray) -> float:
    """Sum of t^3 - t over tie groups of the pooled sample."""
    _, counts = np.unique(values, return_counts=True)
    return float(np.sum(counts.astype(float) ** 3 - counts))


def mann_whitney_u(x, y) -> TestResult:
    """Two-sided Mann-Whitney U test.

    The reported statistic is min(U_x, U_y). Small tie-free samples
    (combined size <= 16) get the exact permutation p by enumerating all
    rank labelings; otherwise the normal approximation with tie and
    continuity corrections is used.
    """
    x = _as_sample(x, "x")
    y = _as_sample(y, "y")
    nx, ny = len(x), len(y)
    pooled = np.concatenate([x, y])
    ranks = _average_ranks(pooled)
    r_x = float(ranks[:nx].sum())
    u_x = nx * ny + nx * (nx + 1) / 2.0 - r_x
    u_y = nx * ny - u_x
    u = min(u_x, u_y)

    no_ties = len(np.unique(pooled)) == nx + ny
    if no_ties and nx + ny <= _EXACT_LIMIT:
        return TestResult(stat=u, p=_exact_mwu_p(nx, ny, u_x))

    mean_u = nx * ny / 2.0
    tie = _tie_term(pooled)
    n = nx + ny
    var_u = nx * ny / 12.0 * ((n + 1) - tie / (n * (n - 1)))
    if var_u <= 0:
        return TestResult(stat=u, p=1.0)
    z = (u - mean_u + 0.5) / np.sqrt(var_u)
    return TestResult(stat=u, p=min(1.0, 2.0 * float(special.ndtr(z))))


def _exact_mwu_p(nx: int, ny: int, u_x: float) -> float:
    """Exact two-sided p by enumerating all C(nx+ny, nx) rank labelings."""
    n = nx + ny
    base = nx * ny + nx * (nx + 1) / 2.0
    u_values = [
        base - sum(combo)
        for combo in itertools.combinations(range(1, n + 1), nx)
    ]
    total = len(u_values)
    le = sum(1 for v in u_values if v <= u_x)
    ge = sum(1 for v in u_values if v >= u_x)
    return min(1.0, 2.0 * min(le, ge) / total)


def kruskal_wallis(groups) -> TestResult:
    """Tie-corrected Kruskal-Wallis H test across k >= 2 groups."""
    samples = [_as_sample(g, f"group {i}") for i, g in enumerate(groups)]
    if len(samples) < 2:
        raise ValueError("kruskal_wallis needs at least 2 groups")
    pooled = np.concatenate(samples)
    n = len(pooled)
    ranks = _average_ranks(pooled)
    h = 0.0
    start = 0
    for g in samples:
        r_sum = float(ranks[start:start + len(g)].sum())
        h += r_sum**2 / len(g)
        start += len(g)
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    correction = 1.0 - _tie_term(pooled) / (n**3 - n)
    if correction <= 0:
        return TestResult(stat=0.0, p=1.0)
    h /= correction
    # rounding can leave H a hair below 0, where the chi-square tail is 1
    p = 1.0 if h <= 0 else float(special.chdtrc(len(samples) - 1, h))
    return TestResult(stat=float(h), p=p)


def levene_family(x, y, center: str = "mean") -> TestResult:
    """Levene-type dispersion test: ANOVA F on absolute deviations.

    ``center="mean"`` is Levene's original test, ``center="median"`` is the
    Brown-Forsythe variant. Degenerate input (zero deviation spread in both
    groups) yields p = 1 by convention.
    """
    x = _as_sample(x, "x")
    y = _as_sample(y, "y")
    if len(x) < 2 or len(y) < 2:
        raise ValueError("levene_family needs at least 2 values per group")
    if center == "mean":
        dev = [np.abs(x - x.mean()), np.abs(y - y.mean())]
    elif center == "median":
        dev = [np.abs(x - np.median(x)), np.abs(y - np.median(y))]
    else:
        raise ValueError(f"center must be 'mean' or 'median', got {center!r}")

    n = len(x) + len(y)
    grand = np.concatenate(dev).mean()
    between = sum(len(d) * (d.mean() - grand) ** 2 for d in dev)
    within = sum(float(((d - d.mean()) ** 2).sum()) for d in dev)
    df1, df2 = 1, n - 2
    if within == 0:
        if between == 0:
            return TestResult(stat=0.0, p=1.0)
        return TestResult(stat=float("inf"), p=0.0)
    w = (between / df1) / (within / df2)
    return TestResult(stat=float(w), p=float(special.fdtrc(df1, df2, w)))


def _placements(others_sorted: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Count of the other sample below each value, ties counted half."""
    below = np.searchsorted(others_sorted, values, side="left")
    return below + 0.5 * (
        np.searchsorted(others_sorted, values, side="right") - below)


def fligner_policello(x, y) -> TestResult:
    """Fligner-Policello robust rank-order test (two-sided).

    Uses placement counts (ties counted half) and placement variances; valid
    without the equal-variance assumption the Mann-Whitney test leans on.
    The normal approximation is recommended for at least 12 observations per
    group; smaller samples trigger a warning. Fully separated samples have
    zero placement variance and report p = 0.
    """
    x = _as_sample(x, "x")
    y = _as_sample(y, "y")
    if min(len(x), len(y)) < 12:
        warnings.warn(
            "fligner_policello normal approximation is unreliable below 12 "
            "observations per group",
            UserWarning,
            stacklevel=2,
        )
    # placement of each x among the ys, and vice versa
    p_x = _placements(np.sort(y), x)
    q_y = _placements(np.sort(x), y)
    p_bar = float(p_x.mean())
    q_bar = float(q_y.mean())
    v_x = float(((p_x - p_bar) ** 2).sum())
    v_y = float(((q_y - q_bar) ** 2).sum())
    num = float(q_y.sum() - p_x.sum())
    denom = 2.0 * np.sqrt(v_x + v_y + p_bar * q_bar)
    if denom == 0:
        if num == 0:
            return TestResult(stat=0.0, p=1.0)
        return TestResult(stat=float(np.sign(num)) * float("inf"), p=0.0)
    u_hat = num / denom
    return TestResult(stat=float(u_hat),
                      p=float(2.0 * special.ndtr(-abs(u_hat))))


def select_and_run(x, y, metric_name: str) -> TestReport:
    """Run the dispersion tests, then the location test they select.

    Levene p < 0.05 signals unequal variances, in which case the
    Fligner-Policello test carries the location comparison and the
    Mann-Whitney / Kruskal-Wallis pair is marked not applicable; otherwise
    the reverse.
    """
    x = _as_sample(x, "x")
    y = _as_sample(y, "y")
    levene = levene_family(x, y, center="mean")
    brown_forsythe = levene_family(x, y, center="median")
    if levene.p < 0.05:
        return TestReport(
            metric_name=metric_name,
            levene=levene,
            brown_forsythe=brown_forsythe,
            fligner_policello=fligner_policello(x, y),
            mann_whitney=None,
            kruskal_wallis=None,
            selected=("fligner_policello",),
        )
    return TestReport(
        metric_name=metric_name,
        levene=levene,
        brown_forsythe=brown_forsythe,
        fligner_policello=None,
        mann_whitney=mann_whitney_u(x, y),
        kruskal_wallis=kruskal_wallis([x, y]),
        selected=("mann_whitney_u", "kruskal_wallis"),
    )
