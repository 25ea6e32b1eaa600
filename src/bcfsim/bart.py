"""Backfitting MCMC for sum-of-trees models.

Continuous-outcome BART and binary-probit BART built on the tree moves in
``trees``. Each tree update marginalizes its leaf means in the
Metropolis-Hastings ratio (conjugate normal-mean marginal), then redraws all
leaf values from their full conditional; the noise variance gets an
inverse-gamma Gibbs update each sweep, and half-Cauchy / half-normal leaf
scales are refreshed by slice sampling. The binary sampler is the
Albert-Chib latent-variable scheme with the noise scale pinned to 1.

Each setting lives where it is read: a ``ForestPrior`` per forest sampler,
a ``ChainConfig`` per chain, and a noise prior (``SigmaPrior`` or a pinned
``FixedSigma``) for the chain's sigma step. Each refuses a bad value when it
is built, so no consumer checks it again; only the type of the noise prior
that ``fit_continuous`` takes bare is checked by the fit, before any
sampling (``bcf.BcfConfig`` checks its own when built).

Every chain runs through one driver, ``_run_chain``: per iteration an
optional latent step (``_probit_latent``) rewrites the working residual,
each forest sweeps in order (``_redraw_leaves`` draws each tree's leaves),
the noise sd gets its Gibbs step (``_sigma_step``) unless pinned, and the
driver keeps the tuple ``retain(resid, sigma)`` returns at each retained
iteration, one array per value. ``fit_continuous``, ``fit_binary_probit``
and ``bcf.fit_bcf`` are thin wrappers around it.

Scale conventions: ``leaf_scale_prior`` acts on the prior standard deviation
of the summed forest output; individual leaf values get sd
``forest_scale / sqrt(num_trees)``. The continuous sampler standardizes the
outcome internally (mean 0, sd 1) and returns draws on the original scale,
which makes priors anchored to "the sd of y" exact. A ``FixedSigma`` noise
prior is read on the raw outcome scale and turns that off.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import gammaincinv, log_ndtr, ndtr, ndtri, ndtri_exp

from .trees import (
    SplitTable,
    _scan,
    cutpoint_bins,
    make_cutpoint_grids,
    propose_move,
    apply_move,
)

__all__ = [
    "HalfCauchy", "HalfNormal", "FixedScale", "SigmaPrior", "FixedSigma",
    "ForestPrior", "ChainConfig", "BartPosterior", "ForestSampler",
    "fit_continuous", "fit_binary_probit",
]

_LOG_2PI = math.log(2.0 * math.pi)
# the reduction ndarray.sum runs, called without its Python wrapper: the
# same pairwise summation, so the same float
_sum = np.add.reduce

# median of |N(0, 1)|, i.e. the 0.75 normal quantile
HALF_NORMAL_MEDIAN = float(ndtri(0.75))


@dataclass(frozen=True)
class HalfCauchy:
    """Half-Cauchy prior on the forest scale; its median equals ``scale``."""

    scale: float

    def initial(self) -> float:
        return self.scale

    def log_pdf(self, x: float) -> float:
        return -math.log1p((x / self.scale) ** 2)


@dataclass(frozen=True)
class HalfNormal:
    """Half-normal prior on the forest scale; median = 0.6745 * scale."""

    scale: float

    def initial(self) -> float:
        return HALF_NORMAL_MEDIAN * self.scale

    def log_pdf(self, x: float) -> float:
        return -0.5 * (x / self.scale) ** 2


@dataclass(frozen=True)
class FixedScale:
    """Degenerate prior: the forest scale stays at ``scale``."""

    scale: float

    def initial(self) -> float:
        return self.scale


def _check_count(name: str, value) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is an integer
    (Python or numpy, never a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _member(kind, name: str, value):
    """``value`` as a member of the enum ``kind``; any other value raises a
    ValueError naming ``name``."""
    try:
        return kind(value)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _is_real(value) -> bool:
    """Whether ``value`` is a finite int or float (Python or numpy, never a
    bool) within float64."""
    try:
        return (not isinstance(value, bool)
                and isinstance(value, numbers.Real) and math.isfinite(value))
    except OverflowError:  # an int beyond float64
        return False


def _floats(value, name: str) -> np.ndarray:
    """``value`` as a float array. A value numpy cannot convert, or one
    holding a NaN or inf, raises a ValueError naming ``name``."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must hold numbers: {exc}") from None
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite (no NaN or inf)")
    return arr


def _matrix(X) -> np.ndarray:
    """A design matrix ``X`` as a finite float array with rows and
    columns; any other ``X`` raises a ValueError naming it."""
    X = _floats(X, "X")
    if X.ndim != 2 or X.size == 0:
        raise ValueError("X must be a 2-D array with rows and columns")
    return X


def _seed_sequence(seed) -> np.random.SeedSequence:
    """A nonnegative integer ``seed`` (as ``_check_count`` reads one) as the
    ``SeedSequence`` that ``default_rng`` makes of it, a ``SeedSequence`` as
    it is; any other seed raises a ValueError naming it."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    _check_count("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed!r}")
    return np.random.SeedSequence(seed)


_SIGMA_PRIOR_RULE = ("sigma prior needs a finite positive FixedSigma value "
                     "or a finite nu > 0 and 0 < q < 1")


@dataclass(frozen=True)
class SigmaPrior:
    """Scaled-inverse-chi-squared prior on the noise variance.

    ``nu`` degrees of freedom; the scale is calibrated so that
    P(sigma < sd of the working outcome) = q.
    """

    nu: float = 3.0
    q: float = 0.90

    def __post_init__(self):
        if not (_is_real(self.nu) and self.nu > 0
                and _is_real(self.q) and 0 < self.q < 1):
            raise ValueError(f"{_SIGMA_PRIOR_RULE}: {self!r}")


@dataclass(frozen=True)
class FixedSigma:
    """Degenerate noise prior: sigma stays at ``value`` on the raw outcome
    scale, with no standardization or Gibbs step. ``fit_binary_probit``
    pins its latent noise at 1 with it; tests use it for a known sigma."""

    value: float

    def __post_init__(self):
        if not (_is_real(self.value) and self.value > 0):
            raise ValueError(f"{_SIGMA_PRIOR_RULE}: {self!r}")


@dataclass(frozen=True)
class ForestPrior:
    """One forest's size, tree prior, leaf-scale prior and proposal grid;
    ``base``/``power`` set the depth-split prior base*(1+d)^-power. The
    Grow/Prune/Change move mix is fixed in ``trees``."""

    num_trees: int = 200
    base: float = 0.95
    power: float = 2.0
    leaf_scale_prior: object = FixedScale(1.5)
    cutpoints_per_feature: int = 100

    def __post_init__(self):
        _check_count("num_trees", self.num_trees)
        _check_count("cutpoints_per_feature", self.cutpoints_per_feature)
        if self.num_trees < 1:
            raise ValueError("num_trees must be positive")
        if not (_is_real(self.base) and 0 < self.base <= 1):
            raise ValueError(f"base must be in (0, 1], got {self.base!r}")
        if not (_is_real(self.power) and self.power >= 0):
            raise ValueError(
                f"power must be finite and nonnegative, got {self.power!r}")
        if self.cutpoints_per_feature < 1:
            raise ValueError("cutpoints_per_feature must be positive")
        prior = self.leaf_scale_prior
        if not isinstance(prior, (HalfCauchy, HalfNormal, FixedScale)):
            raise ValueError("unknown leaf_scale_prior")
        if not (_is_real(prior.scale) and prior.scale > 0):
            raise ValueError(
                f"leaf_scale_prior needs a finite positive parameter: {prior}")


@dataclass(frozen=True)
class ChainConfig:
    """Length of one chain, shared by every forest in it; every iteration
    from ``burn_in`` on is retained."""

    iterations: int = 2000
    burn_in: int = 1000

    def __post_init__(self):
        _check_count("iterations", self.iterations)
        _check_count("burn_in", self.burn_in)
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must satisfy 0 <= burn_in < iterations")

    @property
    def n_retained(self) -> int:
        return self.iterations - self.burn_in


def _check_binary(values: np.ndarray, name: str) -> None:
    """Raise a ValueError naming ``name`` unless every value is 0 or 1."""
    if not np.all((values == 0) | (values == 1)):
        raise ValueError(f"{name} must be binary: every value 0 or 1")


@dataclass
class BartPosterior:
    """Retained draws from one fit.

    ``draws`` holds per-unit fitted values, one row per retained iteration,
    on the original outcome scale (latent scale for the probit sampler).
    ``sigma_draws`` is None for probit fits; ``probability_draws`` is None
    for continuous fits.
    """

    draws: np.ndarray
    sigma_draws: np.ndarray | None
    probability_draws: np.ndarray | None
    acceptance_rate: float


def _llm(n, s, sig2, ls2):
    """Log marginal of ``n`` N(m, sig2) residuals with sum ``s`` and m ~
    N(0, ls2) integrated out, less the SSR term shared by all partitions."""
    if n == 0:
        return 0.0
    denom = sig2 + n * ls2
    log_sig2 = math.log(sig2)
    return (
        -0.5 * n * (_LOG_2PI + log_sig2)
        - 0.5 * (math.log(denom) - log_sig2)
        + ls2 * s * s / (2.0 * sig2 * denom)
    )


# Shrink steps before the slice sampler gives up. The bracket always holds
# x0 and shrinks toward it, so when the threshold lies below the density at
# x0 a draw lands at the latest once the bracket has shrunk to float
# resolution around x0, some 60 halvings; scale updates take a handful of
# steps. The cap is met only when no point of the bracket, x0 included,
# clears the threshold.
_SLICE_SHRINK_CAP = 10_000
# the slice sampler's initial bracket width and its step-out limit per side
_SLICE_WIDTH = 1.0
_SLICE_STEP_OUT = 50


def _slice_sample(log_density, x0: float, rng) -> float:
    """One stepping-out / shrinkage slice-sampling update (Neal 2003).

    Raises FloatingPointError when the log density at ``x0`` is not finite
    or when shrinkage does not land inside the slice within
    ``_SLICE_SHRINK_CAP`` steps, instead of spinning forever.
    """
    u = rng.random()
    start = log_density(x0)
    if not math.isfinite(start):
        raise FloatingPointError(
            f"slice sampler: log density at the start point is {start}")
    threshold = start + (math.log(u) if u > 0 else -math.inf)
    lo = x0 - _SLICE_WIDTH * rng.random()
    hi = lo + _SLICE_WIDTH
    for _ in range(_SLICE_STEP_OUT):
        if log_density(lo) <= threshold:
            break
        lo -= _SLICE_WIDTH
    for _ in range(_SLICE_STEP_OUT):
        if log_density(hi) <= threshold:
            break
        hi += _SLICE_WIDTH
    for _ in range(_SLICE_SHRINK_CAP):
        x1 = lo + (hi - lo) * rng.random()
        if log_density(x1) > threshold:
            return x1
        if x1 < x0:
            lo = x1
        else:
            hi = x1
    raise FloatingPointError(
        f"slice sampler: no point above the slice threshold {threshold} "
        f"after {_SLICE_SHRINK_CAP} shrink steps")


def _log_like_ratio(prop, resid, sig2, ls2):
    """Marginal-likelihood log ratio of a proposal, with the child sums.

    The leaves at the proposal's node after the move are its child pair, or
    the node alone when it becomes a leaf; before the move they are the
    node's current children, or the node alone when it is a leaf. The
    ratio adds the after-side log marginals left to right, then subtracts
    the before-side ones; a lone node takes the summed count and residual
    sum of the pair on the other side. Returns ``(log_ratio, new, old)``
    with the ``[(count, residual sum)]`` of each child after and before the
    move, None for a lone node, for the leaf redraw to reuse.
    """
    node = prop.node
    children = prop.children
    new = old = None
    if children is not None:
        left, right = children[0].wrows, children[1].wrows
        new = [(len(left), float(_sum(resid[left]))),
               (len(right), float(_sum(resid[right])))]
    if node.feature is not None:
        left, right = node.left.rowset.wrows, node.right.rowset.wrows
        old = [(len(left), float(_sum(resid[left]))),
               (len(right), float(_sum(resid[right])))]
    # each side's terms accumulate onto 0.0 in this order
    if new is None:
        (nl, sl), (nr, sr) = old
        return (0.0 + _llm(nl + nr, sl + sr, sig2, ls2)
                - _llm(nl, sl, sig2, ls2) - _llm(nr, sr, sig2, ls2),
                new, old)
    (nl, sl), (nr, sr) = new
    ratio = 0.0 + _llm(nl, sl, sig2, ls2) + _llm(nr, sr, sig2, ls2)
    if old is None:
        return ratio - _llm(nl + nr, sl + sr, sig2, ls2), new, old
    (nl, sl), (nr, sr) = old
    return (ratio - _llm(nl, sl, sig2, ls2) - _llm(nr, sr, sig2, ls2),
            new, old)


def _redraw_leaves(leaves, resid, sums, fit, sig2, prec, posterior, rng):
    """Draw each of a tree's ``leaves`` from its full conditional given the
    tree's partial residual ``resid``: N(var * s / sig2, var), var = 1 /
    (prec + n_w / sig2), with n_w the leaf's weighted rows and s their
    residual sum, taken from ``sums`` (leaf -> s) when there. Each value
    goes to its leaf and to ``fit`` at its weighted rows, and the values are
    returned left to right. ``posterior`` caches (var, sd) per n_w. One
    leaf's noise is ``rng.standard_normal()``, which gives the value and
    generator state of ``standard_normal(1)``."""
    noise = (rng.standard_normal(len(leaves)).tolist() if len(leaves) > 1
             else (rng.standard_normal(),))
    values = []
    for leaf, eps in zip(leaves, noise):
        wrows = leaf.rowset.wrows
        total = sums.get(leaf)
        if total is None:
            total = float(_sum(resid[wrows]))
        count = len(wrows)
        post = posterior.get(count)
        if post is None:
            var = 1.0 / (prec + count / sig2)
            post = posterior[count] = (var, math.sqrt(var))
        var, sd = post
        value = var * total / sig2 + sd * eps
        leaf.value = value
        values.append(value)
        fit[wrows] = value
    return values


class ForestSampler:
    """Backfitting state for one forest: trees, row caches, and scale.

    The caller owns the global residual vector, defined as the working
    outcome minus every model component. Each tree keeps a dense fit vector
    (its leaf values at the weighted rows, 0 elsewhere): ``sweep`` adds it
    back to the residual on entering the tree, so the tree sees the partial
    residual it needs, rewrites it with the redrawn leaf values and
    subtracts it on the way out. Every weighted row thus gets ``r + v_old``
    and then ``- v_new``, the same float operations as adding and
    subtracting leaf values row set by row set, and each leaf sum gathers
    its rows from the residual in row order before summing, so no draw
    depends on this bookkeeping.

    The rest of the per-tree state is kept incrementally too (see the
    ``trees`` module docstring): ``splits`` is the sampler's ``SplitTable``
    (bins, row signatures, the shared root row set and the table of routed
    root splits), and each tree's scan (its leaves and singly-internal
    nodes, from one walk) is cached until the tree changes; the sweep
    reads the leaves from ``tree.scan`` directly, so the leaf redraw after
    a rejected or null step walks nothing.

    Within one sweep, ``sweep`` also keeps, for ``_redraw_leaves``:

    - the child residual sums that the likelihood ratio has just computed,
      by leaf: those of the proposal's child pair after an accept and of
      the node's current pair after a reject, none when the node is a leaf
      after the step. The residual does not change in between and the sum
      gathers the same rows in the same order, so each reused value is the
      same float;
    - each leaf's posterior variance and its square root, per weighted row
      count: sigma and the leaf scale are fixed for the sweep, so these are
      the same floats a per-leaf computation gives;
    - every leaf value, tree by tree and left to right, for the scale
      update, which would otherwise walk every tree again.

    ``weights`` (0/1 per unit, optional) multiply the forest inside the
    likelihood: rows with weight zero still route through the trees and
    receive predictions, but contribute nothing to leaf sufficient
    statistics and are untouched by the residual bookkeeping. This is what a
    treatment-moderated forest needs, with the treatment indicator as the
    weight. With every weight zero no row informs the forest: every
    likelihood ratio is exactly 0 and each leaf draw is N(0, leaf_sd**2) up
    to rounding, so the sweeps sample the tree and leaf prior.
    """

    def __init__(self, X: np.ndarray, prior: ForestPrior, weights=None):
        X = _matrix(X)
        n = X.shape[0]
        self.prior = prior
        if weights is not None:
            weights = np.asarray(weights)
            if weights.shape != (n,):
                raise ValueError("weights must be one value per row")
            _check_binary(weights, "weights")
            weights = weights.astype(bool)
        grids = make_cutpoint_grids(X, prior.cutpoints_per_feature)
        self.splits = SplitTable(cutpoint_bins(X, grids), weights)
        self.trees = [self.splits.new_tree() for _ in range(prior.num_trees)]
        self.fits = np.zeros((prior.num_trees, n))
        self.forest_scale = float(prior.leaf_scale_prior.initial())
        self._scale_root = math.sqrt(prior.num_trees)
        self.proposals = 0
        self.accepts = 0

    @property
    def leaf_sd(self) -> float:
        return self.forest_scale / self._scale_root

    def sweep(self, resid: np.ndarray, sigma: float, rng) -> None:
        """One backfitting pass over every tree, then the scale update."""
        prior = self.prior
        splits = self.splits
        propose, apply = propose_move, apply_move
        random = rng.random
        log = math.log
        leaf_sd = self.leaf_sd
        sig2 = sigma * sigma
        ls2 = leaf_sd * leaf_sd
        prec = 1.0 / ls2
        posterior = {}  # weighted row count -> leaf (variance, sd)
        values = []  # every leaf value, tree by tree, left to right
        accepts = 0
        for tree, fit in zip(self.trees, self.fits):
            resid += fit
            prop = propose(tree, splits, rng, prior)
            sums = {}  # leaf -> the residual sum the likelihood ratio took
            if prop is not None:
                log_like, new, old = _log_like_ratio(prop, resid, sig2, ls2)
                log_alpha = log_like + prop.log_ratio
                u = random()
                if log_alpha >= 0.0 or (u > 0.0 and log(u) < log_alpha):
                    apply(tree, prop)
                    accepts += 1
                    stats = new
                else:
                    stats = old
                if stats is not None:
                    node = prop.node
                    sums = {node.left: stats[0][1], node.right: stats[1][1]}
            values += _redraw_leaves((tree.scan or _scan(tree))[0], resid,
                                     sums, fit, sig2, prec, posterior, rng)
            resid -= fit
        self.proposals += len(self.trees)
        self.accepts += accepts
        self._update_scale(rng, values)

    def _update_scale(self, rng, values) -> None:
        """Slice-sample the forest scale given ``values``, every leaf value
        of the forest in tree order."""
        prior = self.prior.leaf_scale_prior
        if isinstance(prior, FixedScale):
            return
        values = np.array(values)
        n_leaves = len(values)
        ssq = float(values @ values)
        root_m = self._scale_root

        def log_density(v: float) -> float:
            forest_scale = math.exp(v)
            leaf_sd = forest_scale / root_m
            return (
                -n_leaves * math.log(leaf_sd)
                - ssq / (2.0 * leaf_sd * leaf_sd)
                + prior.log_pdf(forest_scale)
                + v
            )

        v_new = _slice_sample(log_density, math.log(self.forest_scale), rng)
        self.forest_scale = math.exp(v_new)

    def current_fit(self) -> np.ndarray:
        """Forest prediction at every training row, recomputed from leaves."""
        out = np.zeros(self.fits.shape[1])
        for tree in self.trees:
            for leaf in tree.leaves():
                out[leaf.rowset.rows] += leaf.value
        return out

    @property
    def acceptance_rate(self) -> float:
        return self.accepts / self.proposals if self.proposals else 0.0


def _sigma_prior_scale(prior: SigmaPrior, var_y: float) -> float:
    """Scale lambda with P(sigma < sd(y)) = q under nu*lambda/sigma^2 ~ chi2_nu."""
    if var_y <= 0:
        var_y = 1.0
    # the chi2_nu quantile at 1 - q: twice the Gamma(nu / 2) quantile
    quantile = 2.0 * gammaincinv(prior.nu / 2, 1.0 - prior.q)
    return float(quantile) * var_y / prior.nu


def _check_inputs(X, y, name: str = "y"):
    """``X`` as a design matrix and ``y`` as one finite float per row."""
    X, y = _matrix(X), _floats(y, name)
    if y.shape != (X.shape[0],):
        raise ValueError(f"{name} must be 1-D with one value per row of X, "
                         f"got shape {y.shape} for {X.shape[0]} rows")
    return X, y


def _standardize(y: np.ndarray, sigma_prior):
    """``(y_work, center, scale)``: y at mean 0 and sd 1, or as given
    (center 0, scale 1) when a ``FixedSigma`` pins sigma on the raw scale.
    Refuses a noise prior of any other type, and a finite ``y`` whose mean
    or sd overflows float64; fits call it before sampling."""
    if isinstance(sigma_prior, FixedSigma):
        center, scale = 0.0, 1.0
    elif not isinstance(sigma_prior, SigmaPrior):
        raise ValueError(f"{_SIGMA_PRIOR_RULE}: {sigma_prior!r}")
    else:
        # an overflow is refused below, by name, instead of warned about
        with np.errstate(over="ignore", invalid="ignore"):
            center = float(y.mean())
            sd = float(y.std())
        if not (math.isfinite(center) and math.isfinite(sd)):
            raise ValueError("y must have a mean and standard deviation "
                             "that fit in float64; its spread overflows "
                             f"(mean {center!r}, sd {sd!r})")
        scale = sd if sd > 0 else 1.0
    return (y - center) / scale, center, scale


def _sigma_step(resid: np.ndarray, nu, lam: float, rng) -> float:
    """Gibbs draw of sigma given the n residuals ``resid`` with sum of
    squares SSR: sigma^2 ~ InvGamma((nu + n) / 2, (nu * lam + SSR) / 2)."""
    ssr = float(resid @ resid)
    shape = 0.5 * (nu + resid.shape[0])
    rate = 0.5 * (nu * lam + ssr)
    return math.sqrt(rate / rng.gamma(shape))


def _truncated_tail(u, h):
    """Phi^-1(u * Phi(h)) for uniforms ``u`` in [0, 1): inverse-CDF draws
    of N(0, 1) truncated to (-inf, h]. Where u * Phi(h) is below 1e-300 the
    draw is taken in log space, and u = 0 is read as 2^-53, the least
    positive uniform the generator draws, so every draw is finite."""
    w = u * ndtr(h)
    x = ndtri(np.maximum(w, 1e-300))
    tail = w < 1e-300
    if tail.any():
        x[tail] = ndtri_exp(np.log(np.maximum(u[tail], 2.0 ** -53))
                            + log_ndtr(h[tail]))
    return x


def _probit_latent(resid, z, pos, rng) -> None:
    """Albert-Chib step: redraw the latent utilities ``z`` in place given
    the forest output g = z - resid, N(g, 1) truncated to (0, inf) where
    ``pos`` and to (-inf, 0] elsewhere, by inverse survival / CDF sampling;
    ``resid`` becomes z - g."""
    neg = ~pos
    g = z - resid
    u = rng.random(len(z))
    z[pos] = g[pos] - _truncated_tail(u[pos], g[pos])
    z[neg] = g[neg] + _truncated_tail(u[neg], -g[neg])
    resid[:] = z - g


def _run_chain(samplers, resid: np.ndarray, chain: ChainConfig, sigma_prior,
               rng, retain, latent=None) -> list:
    """Run one chain of backfitting sweeps over ``samplers``, in order.

    ``resid``, the working response minus every forest, is kept in place;
    ``latent(resid)`` may rewrite it before each iteration's sweeps. Sigma
    stays at a ``FixedSigma``'s value, and is otherwise drawn under the
    ``SigmaPrior`` calibrated on the starting ``resid``.
    ``retain(resid, sigma)`` gives a tuple at each retained iteration; the
    return is one array per value in it, a row per retained iteration.
    """
    fixed = isinstance(sigma_prior, FixedSigma)
    sigma = sigma_prior.value if fixed else 1.0
    if not fixed:
        lam = _sigma_prior_scale(sigma_prior, float(resid.var()))
    for it in range(chain.iterations):
        if latent is not None:
            latent(resid)
        for sampler in samplers:
            sampler.sweep(resid, sigma, rng)
        if not fixed:
            sigma = _sigma_step(resid, sigma_prior.nu, lam, rng)
        if it >= chain.burn_in:
            values = retain(resid, sigma)
            if it == chain.burn_in:
                kept = [np.empty((chain.n_retained,) + np.asarray(v).shape)
                        for v in values]
            for array, value in zip(kept, values):
                array[it - chain.burn_in] = value
    return kept


def fit_continuous(X, y, prior: ForestPrior = ForestPrior(),
                   chain: ChainConfig = ChainConfig(),
                   sigma_prior: SigmaPrior | FixedSigma = SigmaPrior(),
                   seed=0) -> BartPosterior:
    """Fit BART to a continuous outcome; deterministic given (inputs, seed).

    The outcome is standardized internally (unless ``sigma_prior`` is a
    ``FixedSigma``) and draws are returned on the original scale. Each
    sweep updates every tree by one MH move plus conjugate leaf redraws,
    then the noise variance from its inverse-gamma full conditional.
    """
    X, y = _check_inputs(X, y)
    n = y.shape[0]
    if n < 2:
        raise ValueError("y must hold at least 2 values")
    y_work, center, scale = _standardize(y, sigma_prior)
    rng = np.random.default_rng(_seed_sequence(seed))
    sampler = ForestSampler(X, prior)

    def retain(resid, sigma):
        return center + scale * (y_work - resid), scale * sigma

    draws, sigma_draws = _run_chain([sampler], y_work.copy(), chain,
                                    sigma_prior, rng, retain)
    return BartPosterior(
        draws=draws,
        sigma_draws=sigma_draws,
        probability_draws=None,
        acceptance_rate=sampler.acceptance_rate,
    )


def fit_binary_probit(X, d, prior: ForestPrior = ForestPrior(),
                      chain: ChainConfig = ChainConfig(),
                      seed=0) -> BartPosterior:
    """Probit BART via truncated-normal data augmentation.

    Latent utilities are N(forest(x), 1), positive exactly for d=1; each
    sweep redraws them given the current forest, then updates the trees
    against the latent residuals with the noise sd pinned at 1.
    ``probability_draws`` are the normal CDF of the forest output.
    """
    X, d = _check_inputs(X, d, "d")
    _check_binary(d, "d")
    if d.min() == d.max():
        raise ValueError("d must contain both classes")
    rng = np.random.default_rng(_seed_sequence(seed))

    n = d.shape[0]
    sampler = ForestSampler(X, prior)
    z = np.zeros(n)  # latent utilities; the forest output is z - resid
    draws, = _run_chain(
        [sampler], np.zeros(n), chain, FixedSigma(1.0), rng,
        lambda resid, sigma: (z - resid,),
        latent=partial(_probit_latent, z=z, pos=d == 1, rng=rng))
    return BartPosterior(
        draws=draws,
        sigma_draws=None,
        probability_draws=np.clip(ndtr(draws), 1e-12, 1.0 - 1e-12),
        acceptance_rate=sampler.acceptance_rate,
    )
