"""Pinned draw digests: refactors of the samplers must keep every draw.

Each test runs a short fit and hashes its draws with BLAKE2b. The digests
were taken before the integer cutpoint-bin index replaced float cutpoint
searches in ``trees``, and that change had to reproduce them bit for bit.

The digests hold for Python 3.11, numpy 2.4.6 and scipy 1.17.1. Another
numpy, scipy or C library may move the last bits of a draw: README's
determinism contract lists the functions that can, and
``tests/test_determinism_contract.py`` checks that list against the
package. A mismatch there first calls for the fit to be checked against
the environment named here, not for a new digest.

The covariates carry one integer-valued column whose values fall exactly on
cutpoint-grid points, so routing ties at a cutpoint are covered, and the
BCF fits carry a constant propensity column, whose grid is empty.
"""

import hashlib

import numpy as np
import pytest

from bcfsim.bart import (
    ChainConfig, FixedScale, ForestPrior, HalfCauchy, HalfNormal,
    fit_binary_probit, fit_continuous,
)
from bcfsim.bcf import BcfConfig, fit_bcf, propensity_column


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=float)
        h.update(repr(arr.shape).encode("ascii"))
        h.update(arr.tobytes())
    return h.hexdigest()


def _data(n=60, seed=0):
    rng = np.random.default_rng(seed)
    # column 2 takes the values 0..8, and with 7 cutpoints per feature its
    # grid is exactly 1..7, so many rows sit on a cutpoint
    X = np.column_stack([rng.random(n), rng.normal(size=n),
                         rng.integers(0, 9, size=n).astype(float)])
    X[:2, 2] = (0.0, 8.0)
    z = (rng.random(n) < 0.5).astype(int)
    z[:2] = (0, 1)
    y = X[:, 0] + 0.3 * X[:, 2] + 0.8 * z + rng.normal(0, 0.3, size=n)
    return X, z, y


_CHAIN = ChainConfig(iterations=20, burn_in=10)
_GRID = dict(cutpoints_per_feature=7)


def _bcf_config() -> BcfConfig:
    return BcfConfig(
        mu=ForestPrior(num_trees=25, base=0.95, power=2.0,
                       leaf_scale_prior=HalfCauchy(2.0), **_GRID),
        tau=ForestPrior(num_trees=10, base=0.25, power=3.0,
                        leaf_scale_prior=HalfNormal(1.0), **_GRID),
        propensity=ForestPrior(num_trees=25, **_GRID),
        chain=_CHAIN,
    )


PINNED = {
    "continuous": "63dc82865e9b167516a13a9689b135a3",
    "probit": "95782cd759fc65432d669d98e8a399bb",
    "no_propensity": "64aff91a87f4a8a6cca38387f10cf38e",
    "true_propensity": "3b60c0e8ead1607044a84f063bb3d5f2",
    "estimated_propensity": "2ad68384857185d4dd23f2d15ee3d84b",
}


def test_fit_continuous_draws_are_pinned():
    X, _, y = _data()
    prior = ForestPrior(num_trees=25, leaf_scale_prior=HalfCauchy(1.0),
                        **_GRID)
    post = fit_continuous(X, y, prior, _CHAIN, seed=11)
    assert _digest(post.draws, post.sigma_draws) == PINNED["continuous"]


def test_fit_binary_probit_draws_are_pinned():
    X, z, _ = _data()
    prior = ForestPrior(num_trees=25, leaf_scale_prior=FixedScale(1.5),
                        **_GRID)
    post = fit_binary_probit(X, z, prior, _CHAIN, seed=12)
    assert _digest(post.draws, post.probability_draws) == PINNED["probit"]


@pytest.mark.parametrize("mode", ["no_propensity", "true_propensity",
                                  "estimated_propensity"])
def test_fit_bcf_draws_are_pinned(mode):
    X, z, y = _data()
    pi_true = (np.clip(0.2 + 0.6 * X[:, 0], 0.0, 1.0)
               if mode == "true_propensity" else None)
    pi = propensity_column(mode, X, z, pi_true, _bcf_config(), 13)
    fit = fit_bcf(X, z, y, mode, pi, config=_bcf_config(), seed=13)
    got = _digest(fit.mu_draws, fit.tau_draws, fit.sigma_draws, fit.pi_used)
    assert got == PINNED[mode]
