"""Bayesian Causal Forests: regularized treatment effect estimation.

The outcome model is

    y = mu(x, pi(x)) + tau(x) * z + noise

with separate forests for the prognostic surface mu and the treatment
moderation surface tau. mu sees the covariates plus one extra design column
carrying a propensity estimate; tau sees the covariates alone and is
updated only against treated units. Three variants differ solely in what
fills the extra column (``propensity_column``): a constant 0.5, the true
assignment probabilities, or the posterior mean of a probit fit of
treatment on covariates. ``fit_bcf`` runs both outcome forests in one chain
of ``bart._run_chain``: the mu forest sweeps, then the tau forest, then the
noise sd gets its Gibbs step. The probit stage runs a chain of the same
length, so one ``ChainConfig`` serves both. Each call splits its seed with
``_seed_sequence(seed).spawn(2)``: the probit stage draws from the first
child, the outcome chain from the second.

Forest priors follow the usual BCF asymmetry: a large, flexible mu forest
(200 trees, depth prior 0.95/(1+d)^2, half-Cauchy scale with median twice
the outcome sd) and a small, heavily regularized tau forest (50 trees,
depth prior 0.25/(1+d)^3, half-normal scale with median equal to the
outcome sd).
"""

from __future__ import annotations

import enum
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
    _floats,
    _instance,
    _is_real,
    _member,
    _run_chain,
    _seed_sequence,
    _standardize,
    fit_binary_probit,
)


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
        for name, *kinds in (("mu", ForestPrior), ("tau", ForestPrior),
                             ("propensity", ForestPrior),
                             ("chain", ChainConfig),
                             ("sigma_prior", SigmaPrior, FixedSigma)):
            _instance(name, getattr(self, name), *kinds)


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


def _treatment(X, z):
    """``(X, z)`` checked: a design matrix and a 0/1 value per row, with
    both treated and control units."""
    X, z = _check_inputs(X, z, "z")
    _check_binary(z, "z")
    if z.min() == z.max():
        raise ValueError("z must contain both treated and control units")
    return X, z


def propensity_column(mode: PropensityMode | str, X, z, pi_true,
                      config: BcfConfig, seed) -> np.ndarray:
    """The extra column the mu forest sees in variant ``mode``: 0.5 per row,
    ``pi_true`` (read by this variant only), or the posterior mean of a
    probit fit of ``z`` on ``X`` drawn from the first child of ``seed``."""
    mode = _member(PropensityMode, "mode", mode)
    X, z = _treatment(X, z)
    if mode is PropensityMode.NO_PROPENSITY:
        return np.full(X.shape[0], 0.5)
    if mode is PropensityMode.TRUE_PROPENSITY:
        return _check_inputs(X, pi_true, "pi_true")[1]
    config = _instance("config", config, BcfConfig)
    probit = fit_binary_probit(X, z, config.propensity, config.chain,
                               seed=_seed_sequence(seed).spawn(2)[0])
    return probit.probability_draws.mean(axis=0)


def fit_bcf(X, z, y, mode: PropensityMode | str, pi,
            config: BcfConfig | None = None, seed=0) -> BcfFit:
    """Fit variant ``mode``'s outcome chain to ``pi``, its propensity column
    (one value in [0, 1] per row); deterministic given (inputs, config, seed).
    ``seed``, an int or a ``SeedSequence`` (advanced by its ``spawn(2)``),
    gives the chain its second child."""
    X, y = _check_inputs(X, y)
    _, z = _treatment(X, z)
    mode = _member(PropensityMode, "mode", mode)
    _, pi = _check_inputs(X, pi, "pi")
    if pi.min() < 0.0 or pi.max() > 1.0:
        raise ValueError("pi must lie in [0, 1]")
    config = (BcfConfig() if config is None
              else _instance("config", config, BcfConfig))
    y_work, center, scale = _standardize(y, config.sigma_prior)

    design = np.column_stack((X, pi))
    zmask = z.astype(bool)

    rng = np.random.default_rng(_seed_sequence(seed).spawn(2)[1])
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
        pi_used=pi,
        mode=mode,
    )


def _tau_draws(fit) -> np.ndarray:
    """``fit``'s tau draws. A ``fit`` that is no ``BcfFit``, or whose tau
    draws are not a finite array with a row per retained draw and a column
    per unit, raises a ValueError naming it."""
    draws = _floats(_instance("fit", fit, BcfFit).tau_draws, "fit's tau_draws")
    if draws.ndim != 2 or draws.size == 0:
        raise ValueError("fit's tau_draws must be a 2-D array with a row per "
                         f"retained draw and a column per unit, got shape "
                         f"{draws.shape}")
    return draws


def _mean_and_interval(draws: np.ndarray, level: float):
    """``(mean, lower, upper)`` of a fit's ``draws`` along axis 0: the
    posterior mean and the equal-tailed ``level`` interval. A mean or bound
    that overflows float64 raises a ValueError naming the fit."""
    if not (_is_real(level) and 0.0 < level < 1.0):
        raise ValueError(f"level must be in (0, 1), got {level!r}")
    tail = 0.5 * (1.0 - level)
    # an overflow is refused below, by name, instead of warned about
    with np.errstate(over="ignore", invalid="ignore"):
        mean = draws.mean(axis=0)
        lower, upper = np.quantile(draws, [tail, 1.0 - tail], axis=0)
    if not np.isfinite([mean, lower, upper]).all():
        raise ValueError("fit's tau_draws overflow float64 in their mean or "
                         "interval")
    return mean, lower, upper


def cate_intervals(fit: BcfFit, level: float = 0.95) -> dict:
    """Posterior mean and equal-tailed interval of tau(x) per unit."""
    mean, lower, upper = _mean_and_interval(_tau_draws(fit), level)
    return {"mean": mean, "lower": lower, "upper": upper}


def ate_posterior(fit: BcfFit, level: float = 0.95) -> dict:
    """Posterior of the sample-average treatment effect.

    Each retained draw contributes the average of tau over the sample, so
    the returned draws carry full posterior uncertainty about the ATE.
    """
    # an overflow is refused by _mean_and_interval
    with np.errstate(over="ignore"):
        draws = _tau_draws(fit).mean(axis=1)
    mean, lower, upper = _mean_and_interval(draws, level)
    return {"draws": draws, "mean": float(mean), "lower": float(lower),
            "upper": float(upper)}
