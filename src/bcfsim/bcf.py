"""Bayesian Causal Forests: regularized treatment effect estimation.

The outcome model is

    y = mu(x, pi(x)) + tau(x) * z + noise

with separate forests for the prognostic surface mu and the treatment
moderation surface tau. mu sees the covariates plus one extra design column
carrying a propensity estimate; tau sees the covariates alone and is
updated only against treated units. Three variants differ solely in what
fills the extra column: a constant 0.5 (no propensity adjustment), the true
assignment probabilities, or the posterior mean probability from an
internal probit fit of treatment on covariates. Both outcome forests run
in one chain of the BART driver ``bart._run_chain``: the mu forest sweeps,
then the tau forest, then the noise sd gets its Gibbs step. The probit
stage runs a chain of the same length, so one ``ChainConfig`` serves both.

Forest priors follow the usual BCF asymmetry: a large, flexible mu forest
(200 trees, depth prior 0.95/(1+d)^2, half-Cauchy scale with median twice
the outcome sd) and a small, heavily regularized tau forest (50 trees,
depth prior 0.25/(1+d)^3, half-normal scale with median equal to the
outcome sd).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

import numpy as np

from .bart import (
    ChainConfig,
    FixedSigma,
    ForestPrior,
    ForestSampler,
    HalfCauchy,
    HalfNormal,
    HALF_NORMAL_MEDIAN,
    SigmaPrior,
    _check_binary,
    _check_inputs,
    _is_real,
    _member,
    _run_chain,
    _seed_sequence,
    _standardize,
    fit_binary_probit,
)

__all__ = [
    "PropensityMode", "BcfConfig", "BcfFit", "fit_bcf", "cate_intervals",
    "ate_posterior",
]


class PropensityMode(str, enum.Enum):
    """How the extra design column for the prognostic forest is filled."""

    NO_PROPENSITY = "no_propensity"
    TRUE_PROPENSITY = "true_propensity"
    ESTIMATED_PROPENSITY = "estimated_propensity"


@dataclass(frozen=True)
class BcfConfig:
    """Every setting a BCF fit reads, each in the one place it is read.

    ``mu``, ``tau`` and ``propensity`` are the forest priors of the
    prognostic forest, the treatment forest and the internal probit fit
    (used only by the estimated-propensity variant). ``chain`` sets the
    length of both the outcome chain and the probit stage's chain.
    ``sigma_prior`` is the outcome noise prior; the probit stage pins its
    noise sd at 1. Each part refuses a bad value when it is built, and the
    config refuses a part of the wrong type, naming its field.
    """

    mu: ForestPrior = ForestPrior(num_trees=200, base=0.95, power=2.0,
                                  leaf_scale_prior=HalfCauchy(2.0))
    tau: ForestPrior = ForestPrior(
        num_trees=50, base=0.25, power=3.0,
        leaf_scale_prior=HalfNormal(1.0 / HALF_NORMAL_MEDIAN))
    propensity: ForestPrior = ForestPrior()
    chain: ChainConfig = ChainConfig()
    sigma_prior: SigmaPrior | FixedSigma = SigmaPrior()

    def __post_init__(self):
        for name in ("mu", "tau", "propensity"):
            prior = getattr(self, name)
            if not isinstance(prior, ForestPrior):
                raise ValueError(
                    f"{name} must be a ForestPrior, got {prior!r}")
        if not isinstance(self.chain, ChainConfig):
            raise ValueError(
                f"chain must be a ChainConfig, got {self.chain!r}")
        if not isinstance(self.sigma_prior, (SigmaPrior, FixedSigma)):
            raise ValueError("sigma_prior must be a SigmaPrior or a "
                             f"FixedSigma, got {self.sigma_prior!r}")


@dataclass
class BcfFit:
    """Posterior draws from one BCF fit, on the original outcome scale.

    ``mu_draws`` and ``tau_draws`` have one row per retained iteration and
    one column per unit. ``pi_used`` is the propensity column the
    prognostic forest actually saw.
    """

    mu_draws: np.ndarray
    tau_draws: np.ndarray
    sigma_draws: np.ndarray
    pi_used: np.ndarray
    mode: PropensityMode
    fit_seconds: float


def fit_bcf(X, z, y, mode: PropensityMode | str,
            pi_true=None, config: BcfConfig | None = None, seed=0) -> BcfFit:
    """Fit one BCF variant; deterministic given (inputs, config, seed).

    ``pi_true`` is required for the true-propensity variant and rejected
    otherwise. ``seed`` may be a nonnegative int or a
    ``numpy.random.SeedSequence``; the estimated-propensity variant splits
    it so the probit stage and the outcome chain draw from independent
    streams.
    """
    t0 = time.perf_counter()
    X, y = _check_inputs(X, y)
    _, z = _check_inputs(X, z, "z")
    n = X.shape[0]
    _check_binary(z, "z")
    if z.min() == z.max():
        raise ValueError("z must contain both treated and control units")
    mode = _member(PropensityMode, "mode", mode)
    if config is None:
        config = BcfConfig()
    elif not isinstance(config, BcfConfig):
        raise ValueError(f"config must be a BcfConfig, got {config!r}")
    y_work, center, scale = _standardize(y, config.sigma_prior)

    ss_propensity, ss_outcome = _seed_sequence(seed).spawn(2)

    if mode is PropensityMode.TRUE_PROPENSITY:
        if pi_true is None:
            raise ValueError("pi_true is required for the true-propensity variant")
        _, pi_used = _check_inputs(X, pi_true, "pi_true")
        if pi_used.min() < 0.0 or pi_used.max() > 1.0:
            raise ValueError("pi_true must lie in [0, 1]")
    else:
        if pi_true is not None:
            raise ValueError("pi_true is only accepted by the true-propensity variant")
        if mode is PropensityMode.NO_PROPENSITY:
            pi_used = np.full(n, 0.5)
        else:
            probit = fit_binary_probit(X, z, config.propensity, config.chain,
                                       seed=ss_propensity)
            pi_used = probit.probability_draws.mean(axis=0)

    design = np.column_stack((X, pi_used))
    zmask = z.astype(bool)

    rng = np.random.default_rng(ss_outcome)
    mu_sampler = ForestSampler(design, config.mu)
    tau_sampler = ForestSampler(X, config.tau, weights=z)

    def retain(resid, sigma):
        tau_work = tau_sampler.current_fit()
        # residual bookkeeping gives mu without another forest traversal
        mu_work = y_work - resid
        mu_work[zmask] -= tau_work[zmask]
        return center + scale * mu_work, scale * tau_work, scale * sigma

    mu_draws, tau_draws, sigma_draws = _run_chain(
        [mu_sampler, tau_sampler], y_work.copy(), config.chain,
        config.sigma_prior, rng, retain)
    return BcfFit(
        mu_draws=mu_draws,
        tau_draws=tau_draws,
        sigma_draws=sigma_draws,
        pi_used=pi_used,
        mode=mode,
        fit_seconds=time.perf_counter() - t0,
    )


def _mean_and_interval(draws: np.ndarray, level: float):
    """``(mean, lower, upper)`` of ``draws`` along axis 0: the posterior
    mean and the equal-tailed ``level`` interval."""
    if not (_is_real(level) and 0.0 < level < 1.0):
        raise ValueError(f"level must be in (0, 1), got {level!r}")
    if draws.size == 0:
        raise ValueError("fit has no retained draws")
    tail = 0.5 * (1.0 - level)
    lower, upper = np.quantile(draws, [tail, 1.0 - tail], axis=0)
    return draws.mean(axis=0), lower, upper


def cate_intervals(fit: BcfFit, level: float = 0.95) -> dict:
    """Posterior mean and equal-tailed interval of tau(x) per unit."""
    mean, lower, upper = _mean_and_interval(fit.tau_draws, level)
    return {"mean": mean, "lower": lower, "upper": upper}


def ate_posterior(fit: BcfFit, level: float = 0.95) -> dict:
    """Posterior of the sample-average treatment effect.

    Each retained draw contributes the average of tau over the sample, so
    the returned draws carry full posterior uncertainty about the ATE.
    """
    draws = fit.tau_draws.mean(axis=1)
    mean, lower, upper = _mean_and_interval(draws, level)
    return {"draws": draws, "mean": float(mean), "lower": float(lower),
            "upper": float(upper)}
