"""Each conditional draw of the chain against its exact conditional law.

The chain's steps are module functions of ``bcfsim.bart`` (the leaf redraw,
the sigma step and the probit latent draw) plus the forest-scale slice step,
``ForestSampler._update_scale``. Each test calls one step many times on a
fixed state and compares the draws with the law the step must sample,
written out here from its formula with ``scipy.stats``, independent of the
package:

- ``_redraw_leaves``: on a fixed three-leaf tree and residual, each leaf is
  N(var * s / sigma^2, var) with var = 1 / (1 / ls^2 + n_w / sigma^2), for
  the leaf's n_w weighted rows and their residual sum s; unweighted, and
  with 0/1 weights that leave out half of each leaf's rows;
- ``_sigma_step``: sigma^2 ~ InvGamma((nu + n) / 2, (nu * lam + SSR) / 2);
- ``_probit_latent``: each latent utility is N(g, 1) truncated to (0, inf)
  where d = 1 and to (-inf, 0] where d = 0, and the residual becomes z - g;
- the slice step: started from exact draws of the scale's full conditional
  on a one-tree forest with fixed leaf values (the scale prior times the
  leaf likelihood, by quadrature), the scale after a few steps still has
  that law, for a half-Cauchy and a half-normal prior.

Every comparison is a one-sample Kolmogorov-Smirnov test at level
``LEVEL``; the seeds are fixed, so each outcome is too. The sample sizes
are chosen so that these mutations fail: n in place of n_w in the leaf
precision (the weighted case), shape (nu + n - 1) / 2 in the sigma step
(n = 5 residuals) and the sign of the latent draw flipped.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats

from bcfsim.bart import (
    ForestPrior, ForestSampler, HalfCauchy, HalfNormal, _probit_latent,
    _redraw_leaves, _sigma_step,
)
from bcfsim.trees import Proposal, apply_move

LEVEL = 1e-3  # of every KS test
DRAWS = 4000  # calls of the step under test per check


def _ks_p(draws, law) -> float:
    return stats.kstest(draws, law.cdf).pvalue


# ------------------------------------------------------------- leaf redraw

# 24 rows of one feature; a 3-point grid cuts them after rows 6, 12 and 18
X = ((np.arange(24) + 0.5) / 24)[:, np.newaxis]
RESID = 0.8 * np.sin(np.arange(24.0)) + 0.3
SIGMA, LEAF_SD = 0.7, 0.5


def _three_leaf_tree(weights):
    """A one-tree sampler whose tree splits the rows into leaves of 6, 6
    and 12 rows, built through ``apply_move``; and those leaves."""
    sampler = ForestSampler(X, ForestPrior(num_trees=1,
                                           cutpoints_per_feature=3),
                            weights=weights)
    tree = sampler.trees[0]

    def split(node, k):
        children = sampler.splits.children(node.rowset, 0, k)
        apply_move(tree, Proposal(node, 0, k, children, 0.0))

    split(tree.root, 0)
    split(tree.root.right, 1)
    leaves = tree.leaves()
    assert [len(leaf.rowset.rows) for leaf in leaves] == [6, 6, 12]
    return leaves


@pytest.mark.parametrize("weights", [None, np.arange(24) % 2 == 0],
                         ids=["unweighted", "weighted"])
def test_leaf_redraw_draws_the_conjugate_normal(weights):
    leaves = _three_leaf_tree(weights)
    w = np.ones(24, dtype=bool) if weights is None else weights
    sig2, ls2 = SIGMA**2, LEAF_SD**2
    rng = np.random.default_rng(11)
    fit, posterior = np.zeros(24), {}
    draws = np.array([
        _redraw_leaves(leaves, RESID, {}, fit, sig2, 1.0 / ls2, posterior,
                       rng)
        for _ in range(DRAWS)])
    for j, leaf in enumerate(leaves):
        rows = leaf.rowset.rows
        n_w = int(w[rows].sum())
        s = float(RESID[rows][w[rows]].sum())
        var = 1.0 / (1.0 / ls2 + n_w / sig2)
        law = stats.norm(var * s / sig2, math.sqrt(var))
        assert _ks_p(draws[:, j], law) > LEVEL, (j, n_w)
        # the last draw is the leaf's value and the fit at its weighted rows
        assert leaf.value == draws[-1, j]
        assert (fit[rows[w[rows]]] == draws[-1, j]).all()
    assert (fit[~w] == 0.0).all()
    # a residual sum handed in is used in place of the one gathered
    state = rng.bit_generator.state
    again = _redraw_leaves(leaves, RESID, {}, fit, sig2, 1.0 / ls2, {}, rng)
    rng.bit_generator.state = state
    sums = {leaves[0]: float(RESID[leaves[0].rowset.wrows].sum()) + 1.0}
    moved = _redraw_leaves(leaves, RESID, sums, fit, sig2, 1.0 / ls2, {}, rng)
    assert moved[1:] == again[1:]
    var0 = 1.0 / (1.0 / ls2 + len(leaves[0].rowset.wrows) / sig2)
    assert_allclose(moved[0] - again[0], var0 / sig2, rtol=1e-12)


# -------------------------------------------------------------- sigma step

def test_sigma_step_draws_the_inverse_gamma():
    # few residuals, so that the shape's n term carries weight
    resid = np.array([0.9, -1.4, 0.3, 2.1, -0.6])
    nu, lam = 3.0, 0.45
    rng = np.random.default_rng(12)
    sig2 = np.array([_sigma_step(resid, nu, lam, rng) ** 2
                     for _ in range(DRAWS)])
    law = stats.invgamma((nu + len(resid)) / 2.0,
                         scale=(nu * lam + float(resid @ resid)) / 2.0)
    assert _ks_p(sig2, law) > LEVEL


# ----------------------------------------------------------- probit latent

def test_probit_latent_draws_the_truncated_normal():
    g = np.array([-2.5, -1.0, -0.2, 0.0, 0.4, 1.1, 2.3, -0.7])
    d = np.array([1, 0, 1, 0, 1, 0, 1, 0])
    pos = d == 1
    z = np.zeros(len(g))
    resid = z - g  # so that the forest output z - resid is g
    rng = np.random.default_rng(13)
    draws = np.empty((DRAWS, len(g)))
    for i in range(DRAWS):
        _probit_latent(resid, z, pos, rng)
        draws[i] = z
        assert_allclose(resid, z - g, rtol=0, atol=1e-12)
    for j in range(len(g)):
        lo, hi = (-g[j], np.inf) if pos[j] else (-np.inf, -g[j])
        law = stats.truncnorm(lo, hi, loc=g[j])
        assert _ks_p(draws[:, j], law) > LEVEL, j
    assert (draws[:, pos] > 0).all() and (draws[:, ~pos] <= 0).all()


# -------------------------------------------------------------- slice step

VALUES = [0.9, -0.4, 1.3]  # the one tree's leaf values
STEPS = 3  # slice steps per chain, each from an exact draw


def _log_prior(prior, s):
    """The scale prior's log density, up to a constant, written here."""
    if isinstance(prior, HalfCauchy):
        return -np.log1p((s / prior.scale) ** 2)
    return -0.5 * (s / prior.scale) ** 2


def _log_scale_cdf(prior):
    """(grid of log s, CDF of log s on it) of the forest scale's full
    conditional: the prior times prod N(v; 0, s^2) over ``VALUES``, in
    log s (so times s), by the trapezoid rule on a fine grid. Its total
    mass is checked against adaptive quadrature over a far wider range."""
    ssq = float(np.dot(VALUES, VALUES))

    def kernel(v):
        s = np.exp(v)
        return np.exp(_log_prior(prior, s) - len(VALUES) * v
                      - ssq / (2.0 * s * s) + v)

    grid = np.linspace(-8.0, 8.0, 32_001)
    cdf = integrate.cumulative_trapezoid(kernel(grid), grid, initial=0.0)
    total = integrate.quad(kernel, -30.0, 30.0)[0]
    assert_allclose(cdf[-1], total, rtol=1e-6)
    return grid, cdf / cdf[-1]


@pytest.mark.parametrize("prior", [HalfCauchy(0.8), HalfNormal(1.5)],
                         ids=["half_cauchy", "half_normal"])
def test_slice_step_keeps_the_scale_conditional(prior):
    grid, cdf = _log_scale_cdf(prior)
    sampler = ForestSampler(X, ForestPrior(num_trees=1,
                                           leaf_scale_prior=prior))
    rng = np.random.default_rng(14)
    starts = np.exp(np.interp(rng.random(DRAWS), cdf, grid))
    ends = np.empty(DRAWS)
    for i, start in enumerate(starts):
        sampler.forest_scale = float(start)
        for _ in range(STEPS):
            sampler._update_scale(rng, VALUES)
        ends[i] = sampler.forest_scale
    p = stats.kstest(np.log(ends), lambda v: np.interp(v, grid, cdf)).pvalue
    assert p > LEVEL
    # the steps move the scale: the law is kept by sampling, not by standing
    assert stats.spearmanr(starts, ends)[0] < 0.5
