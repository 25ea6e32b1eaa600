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
estimators can be scored exactly.
"""

from __future__ import annotations

import csv
import enum
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .bart import _check_count, _seed_sequence


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
        object.__setattr__(self, "selection", Selection(self.selection))
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(
                f"alpha must be finite and positive, got {self.alpha}")
        _check_count("n", self.n)
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")


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

    def to_csv(self, path) -> None:
        """Dump the draw as CSV with columns x1..x5, pi_true, d, y, cate_true.

        Lines end in "\\n". The rows go to ``<path>.tmp``, which then
        replaces ``path``, so ``path`` never holds a partial file.
        """
        tmp = f"{os.fspath(path)}.tmp"
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["x1", "x2", "x3", "x4", "x5", "pi_true", "d", "y", "cate_true"]
            )
            for i in range(self.X.shape[0]):
                writer.writerow(
                    [repr(float(v)) for v in self.X[i]]
                    + [repr(float(self.pi_true[i])), int(self.D[i]),
                       repr(float(self.Y[i])), repr(float(self.cate_true[i]))]
                )
        os.replace(tmp, path)


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
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0) or np.any(u_arr > 1):
        raise ValueError("beta_cdf_2_4 requires u in [0, 1]")
    lo = u_arr * u_arr * (10.0 - u_arr * (20.0 - u_arr * (15.0 - 4.0 * u_arr)))
    comp = 1.0 - u_arr
    hi = 1.0 - comp * comp * comp * comp * (1.0 + 4.0 * u_arr)
    val = np.where(u_arr <= 0.5, lo, hi)
    return float(val) if np.isscalar(u) or u_arr.ndim == 0 else val


def _as_matrix(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 1
    if scalar:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 5:
        raise ValueError(f"expected 5 covariates per row, got shape {arr.shape}")
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValueError("covariates must lie in [0, 1]")
    return arr, scalar


def baseline(x):
    """Prognostic level b(x) = sin(pi*x1*x2) + 2*(x3-0.5)^2 + x4 + 0.5*x5.

    Accepts a single 5-vector or an (n, 5) matrix.
    """
    arr, scalar = _as_matrix(x)
    b = (
        np.sin(np.pi * arr[:, 0] * arr[:, 1])
        + 2.0 * (arr[:, 2] - 0.5) ** 2
        + arr[:, 3]
        + 0.5 * arr[:, 4]
    )
    return float(b[0]) if scalar else b


def propensity(x, selection):
    """Treatment probability pi(x) for the given selection strength.

    extreme:  0.05 + 0.90 * BetaCDF_{2,4}(sigmoid(b(x)))
    moderate: 0.05 + 0.75 * BetaCDF_{2,4}(sigmoid(b(x)))
                   + 0.15 * BetaCDF_{2,4}(min(x1, x2))
    slight:   0.05 + 0.90 * BetaCDF_{2,4}(min(x1, x2))

    All three stay inside [0.05, 0.95], so overlap holds by construction.
    """
    selection = Selection(selection)
    arr, scalar = _as_matrix(x)
    b_term = beta_cdf_2_4(expit(baseline(arr)))
    min_term = beta_cdf_2_4(np.minimum(arr[:, 0], arr[:, 1]))
    if selection is Selection.EXTREME:
        p = 0.05 + 0.9 * b_term
    elif selection is Selection.MODERATE:
        p = 0.05 + 0.75 * b_term + 0.15 * min_term
    else:
        p = 0.05 + 0.9 * min_term
    return float(p[0]) if scalar else p


def cate(x, alpha):
    """Per-unit treatment effect tau(x) = (x1 + x2) / (2 * alpha)."""
    arr, scalar = _as_matrix(x)
    t = (arr[:, 0] + arr[:, 1]) / (2.0 * alpha)
    return float(t[0]) if scalar else t


def generate(spec: DgpSpec, seed) -> Dataset:
    """Draw one dataset. Deterministic given (spec, seed): a nonnegative
    int or a ``numpy.random.SeedSequence``."""
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
    if n_mc < 10_000:
        raise ValueError("n_mc must be at least 10,000 for a stable estimate")
    rng = np.random.default_rng(_seed_sequence(seed))
    X = rng.random((n_mc, 5))
    return float(np.abs(baseline(X)).mean() / np.abs(cate(X, spec.alpha)).mean())
