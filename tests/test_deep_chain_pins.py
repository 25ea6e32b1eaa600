"""Pinned draw digests of long chains that grow deep trees.

``tests/test_pinned_digests.py`` pins 20-iteration fits, whose trees stay
shallow. These chains run long enough on a flat depth prior for trees to
reach depth 3 or more and for every move kind (Grow, Prune, Change) to be
accepted, so a rewrite of the tree step is checked on deep trees, on
Prune and Change of nodes below the root, and on the leaf redraw of many
leaves. Three chains: an unweighted continuous fit, a forest with 0/1
weights (the treatment forest's path) and a probit fit.

The digests were taken before the per-tree step of ``trees.propose_move``
and ``bart.ForestSampler.sweep`` was rewritten; that rewrite reproduced
them bit for bit. They hold for the library versions named in
``tests/test_pinned_digests.py``.
"""

import hashlib

import numpy as np
import pytest

from bcfsim.bart import (
    ChainConfig, ForestPrior, ForestSampler, HalfCauchy, HalfNormal,
    SigmaPrior, _run_chain, fit_binary_probit, fit_continuous,
)

# a flat depth prior, so trees grow deep within a short chain
_PRIOR = dict(num_trees=12, base=0.95, power=0.5, cutpoints_per_feature=15)
_CHAIN = ChainConfig(iterations=300, burn_in=200)

PINNED = {
    "unweighted": "213ecf790ae9211e53e724892bcd78fc",
    "weighted": "051c829ac7a310a8d634fd570a295a0c",
    "probit": "0d3d99677023fb3c0556ac05303390e2",
}


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=float)
        h.update(repr(arr.shape).encode("ascii"))
        h.update(arr.tobytes())
    return h.hexdigest()


def _data(n=120, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 3))
    signal = (np.sin(6.0 * X[:, 0]) + 2.0 * (X[:, 1] > 0.5) * X[:, 2]
              - (X[:, 2] < 0.3))
    y = signal + rng.normal(0.0, 0.1, size=n)
    d = (signal + rng.normal(0.0, 0.3, size=n) > 0.0).astype(int)
    z = (rng.random(n) < 0.5).astype(int)
    return X, y, d, z


def _shape(node):
    """Nested (feature, k, left, right) of the tree below ``node``."""
    if node.is_leaf:
        return None
    return (node.feature, node.k, _shape(node.left), _shape(node.right))


def _depth(shape) -> int:
    if shape is None:
        return 0
    return 1 + max(_depth(shape[2]), _depth(shape[3]))


def _n_leaves(shape) -> int:
    if shape is None:
        return 1
    return _n_leaves(shape[2]) + _n_leaves(shape[3])


class MoveLog:
    """The deepest tree and the accepted move kinds of a chain, read off
    the tree structures between sweeps: each sweep makes at most one move
    per tree, so one more leaf is a Grow, one fewer a Prune, and a changed
    structure with the same leaf count a Change."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.shapes = [_shape(t.root) for t in sampler.trees]
        self.kinds = set()
        self.depth = 0

    def update(self):
        for i, tree in enumerate(self.sampler.trees):
            shape = _shape(tree.root)
            old = self.shapes[i]
            if shape != old:
                grown = _n_leaves(shape) - _n_leaves(old)
                self.kinds.add({1: "grow", -1: "prune", 0: "change"}[grown])
            self.depth = max(self.depth, _depth(shape))
            self.shapes[i] = shape


@pytest.fixture
def move_log(monkeypatch):
    """Every sampler built in the test, with a ``MoveLog`` updated after
    each of its sweeps."""
    logs = []
    init, sweep = ForestSampler.__init__, ForestSampler.sweep

    def logged_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        logs.append(MoveLog(self))

    def logged_sweep(self, *args, **kwargs):
        sweep(self, *args, **kwargs)
        next(log for log in logs if log.sampler is self).update()

    monkeypatch.setattr(ForestSampler, "__init__", logged_init)
    monkeypatch.setattr(ForestSampler, "sweep", logged_sweep)
    return logs


def _check_deep(logs):
    (log,) = logs
    assert log.depth >= 3
    assert log.kinds == {"grow", "prune", "change"}


def test_unweighted_chain_is_pinned(move_log):
    X, y, _, _ = _data()
    prior = ForestPrior(leaf_scale_prior=HalfCauchy(1.0), **_PRIOR)
    post = fit_continuous(X, y, prior, _CHAIN, seed=21)
    _check_deep(move_log)
    assert (_digest(post.draws, post.sigma_draws, [post.acceptance_rate])
            == PINNED["unweighted"])


def test_weighted_chain_is_pinned(move_log):
    X, y, _, z = _data()
    prior = ForestPrior(leaf_scale_prior=HalfNormal(1.0), **_PRIOR)
    sampler = ForestSampler(X, prior, weights=z)
    rng = np.random.default_rng(22)
    fits, sigmas = _run_chain(
        [sampler], (y - y.mean()) * z, _CHAIN, SigmaPrior(), rng,
        lambda resid, sigma: (sampler.current_fit(), sigma))
    _check_deep(move_log)
    assert (_digest(fits, sigmas, [sampler.acceptance_rate])
            == PINNED["weighted"])


def test_probit_chain_is_pinned(move_log):
    X, _, d, _ = _data()
    prior = ForestPrior(leaf_scale_prior=HalfCauchy(1.5), **_PRIOR)
    post = fit_binary_probit(X, d, prior, _CHAIN, seed=23)
    _check_deep(move_log)
    assert (_digest(post.draws, post.probability_draws,
                    [post.acceptance_rate])
            == PINNED["probit"])
