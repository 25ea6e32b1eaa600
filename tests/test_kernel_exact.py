"""Exact check of the Grow/Prune/Change tree kernel on enumerable problems.

After Grosse & Duvenaud (2014), "Testing MCMC code": on a problem small
enough to list every tree, the posterior mass pi(T) of each tree and the
proposal probability q(T'|T) of each move are computed by a reference local
to this file, independent of ``trees``. ``propose_move`` is then driven by a
scripted generator that enumerates every outcome of its ``integers(n)``
draws and puts its kind draw at points inside each reference kind interval.
Every proposal must have the reference kind and probability, and the
acceptance exponent log pi(T')q(T|T') - log pi(T)q(T'|T) of the reference;
the kernel assembled from the enumerated proposals must leave pi invariant.

The reference prior is the one the ``trees`` docstring states: a node at
depth d splits with probability base * (1 + d) ** -power, so every leaf,
splittable or not, contributes 1 - p_d; a split draws its feature uniformly
among those with a valid cutpoint, then the cutpoint uniformly among that
feature's valid ones. Every tree is built from ``SplitTable.new_tree()``
through ``apply_move``, never from hand-made nodes.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bcfsim.bart import ForestPrior, _llm, _log_like_ratio
from bcfsim.trees import (
    Proposal, SplitTable, apply_move, cutpoint_bins, propose_move,
)

# a flat depth prior, so deep trees keep real posterior mass
PRIOR = ForestPrior(base=0.9, power=0.5)
MOVES = (("grow", 0.4), ("prune", 0.4), ("change", 0.2))
RESID = np.array([0.9, -0.4, 1.7, -1.1])
SIGMA, LEAF_SD = 0.8, 0.6
# where the kind draw sits inside each reference kind interval
FRACTIONS = (0.25, 0.5, 0.75)

# (X, grids, weights): 4 rows and one feature with one grid point between
# each pair of rows (15 trees); 4 rows and two features, the second with a
# grid point on a tie and two cutpoints giving one partition; the same with
# 0/1 weights, leaving some leaves with no weighted row
_X2 = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0], [3.0, 2.0]])
_GRIDS2 = [np.array([0.75, 1.5, 2.25]), np.array([0.5, 1.0, 1.5])]
PROBLEMS = {
    "one_feature": (np.array([[0.0], [1.0], [2.0], [3.0]]),
                    [np.array([0.75, 1.5, 2.25])], None),
    "two_features": (_X2, _GRIDS2, None),
    "weighted": (_X2, _GRIDS2, np.array([True, False, False, True])),
}


# ---------------------------------------------------------------- reference
# A tree is a nested tuple: None for a leaf, (feature, k, left, right) for a
# node whose rows with x[feature] <= grids[feature][k] go left. A node is
# named by its path from the root, a tuple of 0 (left) and 1 (right).

class Reference:
    """Tree prior, likelihood and proposal of one problem, from X directly."""

    def __init__(self, X, grids, weights):
        self.X = X
        self.grids = grids
        self.weights = (np.ones(len(X), dtype=bool) if weights is None
                        else weights)

    def rules(self, rows):
        """{feature: valid grid indices} over features with at least one."""
        out = {}
        for f, grid in enumerate(self.grids):
            vals = self.X[rows, f]
            ks = [k for k, c in enumerate(grid)
                  if vals.min() <= c < vals.max()]
            if ks:
                out[f] = ks
        return out

    def rule_prob(self, rows, feature):
        rules = self.rules(rows)
        return 1.0 / len(rules) / len(rules[feature])

    def split(self, rows, feature, k):
        left = self.X[rows, feature] <= self.grids[feature][k]
        return rows[left], rows[~left]

    def trees(self, rows=None):
        """Every tree on ``rows`` (all rows by default)."""
        rows = np.arange(len(self.X)) if rows is None else rows
        out = [None]
        for f, ks in self.rules(rows).items():
            for k in ks:
                left, right = self.split(rows, f, k)
                out += [(f, k, a, b) for a in self.trees(left)
                        for b in self.trees(right)]
        return out

    def walk(self, tree):
        """``(leaves, singly)``: ``(path, rows, depth)`` of each leaf left to
        right, and of each node whose children are both leaves."""
        leaves, singly = [], []

        def rec(sub, path, rows):
            if sub is None:
                leaves.append((path, rows, len(path)))
                return
            f, k, a, b = sub
            if a is None and b is None:
                singly.append((path, rows, len(path)))
            left, right = self.split(rows, f, k)
            rec(a, path + (0,), left)
            rec(b, path + (1,), right)

        rec(tree, (), np.arange(len(self.X)))
        return leaves, singly

    def log_post(self, tree):
        """log pi(T): the tree prior times each leaf's marginal likelihood."""
        sig2, ls2 = SIGMA ** 2, LEAF_SD ** 2

        def rec(sub, depth, rows):
            p = PRIOR.base * (1.0 + depth) ** -PRIOR.power
            if sub is None:
                w = rows[self.weights[rows]]
                return (math.log(1.0 - p)
                        + _llm(len(w), float(RESID[w].sum()), sig2, ls2))
            f, k, a, b = sub
            left, right = self.split(rows, f, k)
            return (math.log(p) + math.log(self.rule_prob(rows, f))
                    + rec(a, depth + 1, left) + rec(b, depth + 1, right))

        return rec(tree, 0, np.arange(len(self.X)))

    def kinds(self, tree):
        """``[(kind, lo, hi)]``: each possible kind's interval of the uniform
        kind draw, the move mix renormalized over the possible kinds."""
        leaves, _ = self.walk(tree)
        possible = {"grow": any(self.rules(rows) for _, rows, _ in leaves),
                    "prune": tree is not None, "change": tree is not None}
        mass = sum(p for kind, p in MOVES if possible[kind])
        out, lo = [], 0.0
        for kind, p in MOVES:
            if possible[kind]:
                out.append((kind, lo / mass, (lo + p) / mass))
                lo += p
        return out

    def q(self, tree, kind, path, feature):
        """q(T'|T) of the ``kind`` move at ``path``, with ``feature`` the
        rule it draws (None for a Prune)."""
        leaves, singly = self.walk(tree)
        lo, hi = next((lo, hi) for k, lo, hi in self.kinds(tree) if k == kind)
        nodes = leaves if kind == "grow" else singly
        rows = next(rows for p, rows, _ in nodes if p == path)
        prob = (hi - lo) / len(nodes)
        return prob if feature is None else prob * self.rule_prob(rows,
                                                                  feature)


def _replace(tree, path, sub):
    """``tree`` with the subtree at ``path`` replaced by ``sub``."""
    if not path:
        return sub
    f, k, a, b = tree
    if path[0] == 0:
        return (f, k, _replace(a, path[1:], sub), b)
    return (f, k, a, _replace(b, path[1:], sub))


def _subtree(tree, path):
    for step in path:
        tree = tree[2 + step]
    return tree


# ------------------------------------------------------------ kernel driver

def _build(table, structure):
    """The tree ``structure`` grown from a new root through ``apply_move``,
    with each node's path."""
    tree = table.new_tree()
    paths = {}

    def grow(node, sub, path):
        paths[id(node)] = path
        if sub is not None:
            f, k, a, b = sub
            apply_move(tree, Proposal(node, f, k,
                                      table.children(node.rowset, f, k), 0.0))
            grow(node.left, a, path + (0,))
            grow(node.right, b, path + (1,))

    grow(tree.root, structure, ())
    return tree, paths


class _Script:
    """A generator stand-in: ``random()`` returns ``u``; the i-th
    ``integers(n)`` returns ``choices[i]``, 0 past the end, and records n."""

    def __init__(self, u, choices):
        self.u = u
        self.choices = choices
        self.sizes = []

    def random(self):
        return self.u

    def integers(self, n):
        i = len(self.sizes)
        self.sizes.append(n)
        return self.choices[i] if i < len(self.choices) else 0


def _outcomes(tree, table, u):
    """Every ``(proposal, probability)`` of ``propose_move`` with kind draw
    ``u``, over all outcomes of its integer draws."""
    out = []
    stack = [()]
    while stack:
        choices = stack.pop()
        rng = _Script(u, choices)
        prop = propose_move(tree, table, rng, PRIOR)
        out.append((prop, math.prod(1.0 / n for n in rng.sizes)))
        for i in range(len(choices), len(rng.sizes)):
            pad = choices + (0,) * (i - len(choices))
            stack.extend(pad + (c,) for c in range(1, rng.sizes[i]))
    return out


def _kind(prop) -> str:
    if prop.children is None:
        return "prune"
    return "grow" if prop.node.is_leaf else "change"


@pytest.mark.parametrize("name", PROBLEMS)
def test_kernel_is_exact_on_enumerated_trees(name):
    X, grids, weights = PROBLEMS[name]
    ref = Reference(X, grids, weights)
    table = SplitTable(cutpoint_bins(X, grids), weights)
    states = ref.trees()
    index = {s: i for i, s in enumerate(states)}
    assert len(index) == len(states)
    if name == "one_feature":
        assert len(states) == 15
    log_pi = np.array([ref.log_post(s) for s in states])
    sig2, ls2 = SIGMA ** 2, LEAF_SD ** 2

    K = np.zeros((len(states), len(states)))
    for i, state in enumerate(states):
        tree, paths = _build(table, state)
        for kind, lo, hi in ref.kinds(state):
            for frac in FRACTIONS:
                paths_total = 0.0
                for prop, prob in _outcomes(tree, table,
                                            lo + frac * (hi - lo)):
                    paths_total += prob
                    weight = (hi - lo) * prob / len(FRACTIONS)
                    if prop is None:
                        # a Grow that drew an unsplittable leaf
                        assert kind == "grow"
                        K[i, i] += weight
                        continue
                    assert _kind(prop) == kind
                    path = paths[id(prop.node)]
                    if kind == "prune":
                        after = _replace(state, path, None)
                        old = _subtree(state, path)
                        forward = ref.q(state, kind, path, None)
                        reverse = ref.q(after, "grow", path, old[0])
                    else:
                        after = _replace(state, path,
                                         (prop.feature, prop.k, None, None))
                        forward = ref.q(state, kind, path, prop.feature)
                        reverse = (ref.q(after, "prune", path, None)
                                   if kind == "grow" else
                                   ref.q(after, kind, path,
                                         _subtree(state, path)[0]))
                    # the integer draws pick with the reference probability
                    assert_allclose((hi - lo) * prob, forward, rtol=1e-12)
                    j = index[after]
                    exponent = (_log_like_ratio(prop, RESID, sig2, ls2)[0]
                                + prop.log_ratio)
                    expected = (log_pi[j] + math.log(reverse)
                                - log_pi[i] - math.log(forward))
                    assert abs(exponent - expected) <= 1e-12, (
                        state, kind, path, exponent, expected)
                    accept = min(1.0, math.exp(exponent))
                    K[i, j] += weight * accept
                    K[i, i] += weight * (1.0 - accept)
                assert_allclose(paths_total, 1.0, rtol=1e-12)
    assert_allclose(K.sum(axis=1), 1.0, rtol=1e-12)
    pi = np.exp(log_pi - log_pi.max())
    pi /= pi.sum()
    assert_allclose(pi @ K, pi, rtol=1e-10, atol=0.0)
