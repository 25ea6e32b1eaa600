"""Synthetic data generating processes with targeted treatment selection.

Nine designs: three selection strengths (how strongly the treatment
probability tracks the prognostic level) crossed with three effect scales
``alpha`` in {1, 2, 4}. Covariates are Uniform(0,1)^5, noise is standard
normal, and the outcome is

    Y_i = b(X_i) + (D_i - 0.5) * tau(X_i) + eps_i

with baseline b(x) = sin(pi*x1*x2) + 2*(x3-0.5)^2 + x4 + 0.5*x5 and
heterogeneous effect tau(x) = (x1 + x2) / (2*alpha). Larger alpha means the
baseline dominates the treatment signal.

Every draw carries its ground truth (propensity, CATE, noise) so that
estimators can be scored exactly. The surfaces take (n, 5) covariate
matrices. Nothing here writes a file: ``harness.write_dataset`` writes a
draw as CSV.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .bart import (
    _count, _floats, _instance, _is_real, _member, _seed_sequence,
)


class Selection(str, enum.Enum):
    """Strength of targeted selection: how tightly pi(x) follows b(x)."""

    EXTREME = "extreme"
    MODERATE = "moderate"
    SLIGHT = "slight"


@dataclass(frozen=True)
class DgpSpec:
    selection: Selection
    alpha: float
    n: int = 250

    def __post_init__(self):
        object.__setattr__(self, "selection",
                           _member(Selection, "selection", self.selection))
        _check_alpha(self.alpha)
        _count("n", self.n, 2)


def _check_alpha(alpha) -> None:
    """Raise a ValueError naming ``alpha`` unless it is finite and positive,
    and within [1e-300, 1e300], where tau(x) and ``signal_ratio`` stay
    finite and nonzero."""
    if not (_is_real(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha!r}")
    if not 1e-300 <= float(alpha) <= 1e300:
        raise ValueError(f"alpha must be in [1e-300, 1e300], got {alpha!r}")


@dataclass
class Dataset:
    """One synthetic draw together with its ground truth."""

    spec: DgpSpec
    X: np.ndarray            # (n, 5) covariates in [0, 1]
    pi_true: np.ndarray      # (n,) treatment probabilities
    D: np.ndarray            # (n,) binary treatment indicators
    Y: np.ndarray            # (n,) outcomes
    noise: np.ndarray        # (n,) the epsilon draws, kept for exact checks
    cate_true: np.ndarray    # (n,) per-unit treatment effects
    ate_true: float = field(init=False)

    def __post_init__(self):
        self.ate_true = float(self.cate_true.mean())


def beta_cdf_2_4(u):
    """CDF of the Beta(2, 4) distribution.

    The regularized incomplete beta with shapes (2, 4) reduces to the exact
    polynomial 10u^2 - 20u^3 + 15u^4 - 4u^5, which is what is evaluated here
    (no quadrature involved). Above one half the algebraically identical
    complement 1 - (1-u)^4*(1+4u) is used instead: the ascending form
    cancels catastrophically near u = 1 and can stray a few ulp outside
    [0, 1], while the complement is exact at both ends. The two forms agree
    bit for bit at the seam (both give 13/16).
    """
    u_arr = _floats(u, "u")
    if np.any(u_arr < 0) or np.any(u_arr > 1):
        raise ValueError("beta_cdf_2_4 requires u in [0, 1]")
    lo = u_arr * u_arr * (10.0 - u_arr * (20.0 - u_arr * (15.0 - 4.0 * u_arr)))
    comp = 1.0 - u_arr
    hi = 1.0 - comp * comp * comp * comp * (1.0 + 4.0 * u_arr)
    val = np.where(u_arr <= 0.5, lo, hi)
    return float(val) if np.isscalar(u) or u_arr.ndim == 0 else val


def _as_matrix(x) -> np.ndarray:
    arr = _floats(x, "x")
    if arr.ndim != 2 or arr.shape[1] != 5:
        raise ValueError(
            f"x must be an (n, 5) covariate matrix, got shape {arr.shape}")
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValueError("x must lie in [0, 1]")
    return arr


def baseline(x):
    """Prognostic level b(x) = sin(pi*x1*x2) + 2*(x3-0.5)^2 + x4 + 0.5*x5
    of each row of an (n, 5) covariate matrix."""
    arr = _as_matrix(x)
    return (
        np.sin(np.pi * arr[:, 0] * arr[:, 1])
        + 2.0 * (arr[:, 2] - 0.5) ** 2
        + arr[:, 3]
        + 0.5 * arr[:, 4]
    )


def propensity(x, selection):
    """Treatment probability pi(x) of each row of an (n, 5) covariate
    matrix, for the given selection strength.

    extreme:  0.05 + 0.90 * BetaCDF_{2,4}(sigmoid(b(x)))
    moderate: 0.05 + 0.75 * BetaCDF_{2,4}(sigmoid(b(x)))
                   + 0.15 * BetaCDF_{2,4}(min(x1, x2))
    slight:   0.05 + 0.90 * BetaCDF_{2,4}(min(x1, x2))

    All three stay inside [0.05, 0.95], so overlap holds by construction.
    """
    selection = _member(Selection, "selection", selection)
    arr = _as_matrix(x)
    b_term = beta_cdf_2_4(expit(baseline(arr)))
    min_term = beta_cdf_2_4(np.minimum(arr[:, 0], arr[:, 1]))
    if selection is Selection.EXTREME:
        return 0.05 + 0.9 * b_term
    if selection is Selection.MODERATE:
        return 0.05 + 0.75 * b_term + 0.15 * min_term
    return 0.05 + 0.9 * min_term


def cate(x, alpha):
    """Per-unit treatment effect tau(x) = (x1 + x2) / (2 * alpha) of each
    row of an (n, 5) covariate matrix."""
    _check_alpha(alpha)
    arr = _as_matrix(x)
    return (arr[:, 0] + arr[:, 1]) / (2.0 * alpha)


def generate(spec: DgpSpec, seed) -> Dataset:
    """Draw one dataset. Deterministic given (spec, seed): a nonnegative
    int or a ``numpy.random.SeedSequence``."""
    _instance("spec", spec, DgpSpec)
    rng = np.random.default_rng(_seed_sequence(seed))
    X = rng.random((spec.n, 5))
    pi = propensity(X, spec.selection)
    D = (rng.random(spec.n) < pi).astype(np.int8)
    eps = rng.standard_normal(spec.n)
    tau = cate(X, spec.alpha)
    Y = baseline(X) + (D - 0.5) * tau + eps
    return Dataset(spec=spec, X=X, pi_true=pi, D=D, Y=Y, noise=eps, cate_true=tau)


def signal_ratio(spec: DgpSpec, n_mc: int, seed) -> float:
    """Monte Carlo estimate of E|b(X)| / E|tau(X)|.

    Quantifies how much the baseline dominates the treatment effect; roughly
    3, 6 and 12 for alpha = 1, 2, 4.
    """
    _instance("spec", spec, DgpSpec)
    n_mc = _count("n_mc", n_mc, 10_000)  # for a stable estimate
    rng = np.random.default_rng(_seed_sequence(seed))
    try:
        X = rng.random((n_mc, 5))
    except (ValueError, MemoryError) as exc:  # no room for (n_mc, 5) floats
        raise ValueError(f"n_mc is too large to draw at once: {exc}") from None
    return float(np.abs(baseline(X)).mean() / np.abs(cate(X, spec.alpha)).mean())
