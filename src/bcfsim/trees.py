"""Binary regression trees and Metropolis-Hastings move proposals.

The tree machinery shared by every forest in the package: node and tree
structures, routing (a feature value less than or equal to the cutpoint goes
left), per-feature cutpoint grids, and the Grow / Prune / Change proposal
kernel in the style of Chipman, George & McCulloch (2010), with Grow 0.4,
Prune 0.4, Change 0.2 and no Swap move.

A proposal states the node as the move would leave it: its split
``feature``/``k`` (``feature`` None for a leaf, as on ``Node``) and the pair
of child row sets it would have (None for a leaf), with its log
transition-probability ratio and log tree-prior ratio kept apart. Only this
module tells the move kinds apart: in the kind draw, and in ``apply_move``,
which reads the kind off the structure (no child pair is a Prune, a leaf
node a Grow, an internal one a Change). The sampler compares the node's
leaves before and after the move and adds the marginal-likelihood ratio.

The move kind is drawn from the configured probabilities renormalized over
the kinds the current tree structure allows (Grow needs a leaf with a valid
cutpoint, Prune and Change need an internal node), so a root-only tree with
a splittable column always proposes Grow; the renormalizing mass is part of
the transition ratios. The tree prior puts split probability
``base * (1 + depth) ** -power`` on each node and draws the split rule
uniformly over features with at least one valid cutpoint, then uniformly
over that feature's valid cutpoints. Grids are fixed per feature at fit
start: equally spaced points strictly inside the observed min/max, so a
constant column has an empty grid and can never be split on.

Proposals never compare floats against the grids. ``cutpoint_bins`` maps
each (row, feature) once per fit to its bin index ``i``, the number of grid
points strictly below the value (``searchsorted(grid, x, side="left")``),
stored in the smallest unsigned dtype that holds the grid length (uint8 at
100 cutpoints) with each feature's column contiguous. Routing is exact in
bin space: grids are sorted, so the grid points below ``x`` are the first
``i`` of them, and ``x <= grid[k]`` holds exactly when ``i <= k``. A node's
valid cutpoints on a feature are the grid indices ``k`` with
``min(i) <= k < max(i)`` over its rows (some row goes left and some goes
right), so the per-feature counts and offsets are an integer min and max
over the node's bin columns, gathered feature by feature. Nodes and
proposals keep the grid index ``k``; the float cutpoint is ``grids[f][k]``.

Sampler state is kept incrementally rather than recomputed per proposal:

- A node's rows live in a ``RowSet`` with the caches derived from them:
  the weighted rows, the split flag and the per-feature cutpoint ranges,
  each filled at most once. ``row_signatures`` gives each row one integer
  key, equal for two rows exactly when their bin rows are equal, so the
  split flag (the rows do not all share one key) is a 1-D gather and
  min/max; the ranges are built only for a node drawn for a move.
- ``SplitTable`` holds one sampler's fit-wide state. All of its roots share
  one row set whose flag and ranges are computed once, and a root split
  ``(feature, k)`` is routed once per sampler: its pair of child row sets
  is kept in a table (at most one entry per valid root cutpoint) and shared
  by every tree that proposes or holds that split.
- ``DecisionTree.leaf_list`` holds the leaves in ``leaves()`` order, and
  ``DecisionTree.scan`` the singly-internal nodes and leaf split flags of
  the current structure; ``apply_move`` edits the first in place and
  clears the second, so a rejected or null proposal rescans nothing.
- The depth part of the tree-prior ratio is cached per (depth, base,
  power) and evaluated in the original left-to-right order, and a uniform
  pick among one candidate draws nothing from the generator (numpy's
  ``integers(1)`` leaves the bit generator state unchanged).

None of this changes a draw: the flags and ranges are the same integers and
booleans, the shared row arrays hold the same indices in the same order,
the leaf list is the same sequence of nodes the rng indexes into, and every
float is computed by the same operations in the same order.
"""

from __future__ import annotations

import functools
import math
import weakref
from typing import NamedTuple

import numpy as np


def depth_split_prob(depth: int, base: float, power: float) -> float:
    """Prior probability that a node at ``depth`` is split: base*(1+d)^-power."""
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    if not 0 < base <= 1:
        raise ValueError(f"base must be in (0, 1], got {base}")
    if power < 0:
        raise ValueError(f"power must be nonnegative, got {power}")
    return base * (1.0 + depth) ** -power


class RowSet:
    """The training rows reaching a node and the sampler caches built on them.

    ``rows`` are the row indices and ``wrows`` the subset with nonzero
    design weight (``rows`` itself for an unweighted forest).
    ``splittable`` caches whether the rows admit any valid cutpoint and
    ``cutinfo`` their per-feature cutpoint ranges, both None until first
    needed. The rows never change, so nodes with equal rows may share one
    set and each cache is filled at most once for all of them.
    """

    __slots__ = ("rows", "wrows", "splittable", "cutinfo")

    def __init__(self, rows, wrows=None):
        self.rows = rows
        self.wrows = rows if wrows is None else wrows
        self.splittable = None
        self.cutinfo = None


class Node:
    """One tree node; a leaf when ``feature`` is None, internal otherwise:
    rows with ``x[feature] <= grids[feature][k]`` go left.

    ``rowset`` holds the training rows reaching the node and their caches
    (sampler bookkeeping, not part of the tree function itself).

    The parent is held through a weak reference, so a tree has no reference
    cycle and is freed as soon as it is dropped instead of waiting, rows
    and all, for a full garbage collection.
    """

    __slots__ = ("depth", "_parent", "feature", "k", "value",
                 "left", "right", "rowset", "__weakref__")

    def __init__(self, depth=0, parent=None, value=0.0, rowset=None):
        self.depth = depth
        self._parent = None if parent is None else weakref.ref(parent)
        self.feature = None
        self.k = 0
        self.value = value
        self.left = None
        self.right = None
        self.rowset = rowset

    @property
    def parent(self):
        """The parent node; None at the root."""
        ref = self._parent
        return None if ref is None else ref()

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class DecisionTree:
    """A binary tree; ``leaf_list`` is ``leaves()``, kept by ``apply_move``.

    ``scan`` caches ``propose_move``'s pass over the leaves (the
    singly-internal nodes, the leaf split flags and their count) until
    ``apply_move`` changes the structure.
    """

    def __init__(self, root: Node | None = None):
        self.root = root if root is not None else Node()
        self.leaf_list = self.leaves()
        self.scan = None

    def leaves(self) -> list[Node]:
        out, stack = [], [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                stack.append(node.right)
                stack.append(node.left)
        return out


def make_cutpoint_grids(X: np.ndarray, count: int) -> list[np.ndarray]:
    """Per-feature grids of ``count`` equally spaced interior cutpoints.

    Points are strictly inside the observed [min, max] of each column, so a
    constant column gets an empty grid.
    """
    grids = []
    for j in range(X.shape[1]):
        lo = float(X[:, j].min())
        hi = float(X[:, j].max())
        if lo == hi:
            grids.append(np.empty(0))
        else:
            grids.append(np.linspace(lo, hi, count + 2)[1:-1])
    return grids


def cutpoint_bins(X: np.ndarray, grids) -> np.ndarray:
    """Bin index of every (row, feature): the count of grid points below it.

    Column ``j`` is ``searchsorted(grids[j], X[:, j], side="left")`` in the
    smallest unsigned dtype holding the longest grid's length, so
    ``bins[:, j] <= k`` equals ``X[:, j] <= grids[j][k]`` for every grid
    index ``k``. Each column is contiguous (Fortran order), so a feature's
    bins gather with one ``take``. ``X`` must be finite: a NaN sorts past
    every grid point.
    """
    width = max((len(grid) for grid in grids), default=0)
    bins = np.empty(X.shape, dtype=np.min_scalar_type(width), order="F")
    for j, grid in enumerate(grids):
        bins[:, j] = np.searchsorted(grid, X[:, j], side="left")
    return bins


def row_signatures(bins: np.ndarray) -> np.ndarray:
    """One integer key per row, equal exactly for rows with equal bin rows."""
    return np.unique(bins, axis=0, return_inverse=True)[1].reshape(-1)


class SplitTable:
    """Routing state shared by every tree of one sampler.

    Holds the bins (``cutpoint_bins``, feature columns contiguous), the
    row signatures (``row_signatures``) and the boolean design
    weights, if any. ``root`` is the row set of all rows, shared by every
    root (``new_tree``), with its split flag and cutpoint ranges computed
    here, once. ``root_splits`` maps a root split ``(feature, k)`` to its
    pair of child row sets: it is filled the first time any tree proposes
    that split, so later proposals of it at any root route nothing, and the
    children of an accepted one share the pair and its lazily filled
    caches. It holds at most one entry per valid root cutpoint. The arrays
    of these shared row sets are read-only.
    """

    def __init__(self, bins: np.ndarray, weights=None):
        self.bins = np.asfortranarray(bins)
        self.keys = row_signatures(self.bins)
        self.weights = weights
        self.root = _shared(self._rowset(np.arange(self.bins.shape[0])))
        _rowset_cutinfo(self.root, self.bins)
        _rowset_splittable(self.root, self.keys)
        self.root_splits = {}

    def _rowset(self, rows: np.ndarray) -> RowSet:
        """A row set with its weighted rows."""
        if self.weights is None:
            return RowSet(rows)
        return RowSet(rows, rows.compress(self.weights.take(rows)))

    def new_tree(self) -> DecisionTree:
        """A root-only tree on the shared root row set."""
        return DecisionTree(Node(rowset=self.root))

    def children(self, rowset: RowSet, feature: int, k: int):
        """Row sets of the rows at or below and above grid index ``k``."""
        if rowset is self.root:
            pair = self.root_splits.get((feature, k))
            if pair is None:
                left, right = self._route(rowset.rows, feature, k)
                pair = self.root_splits[feature, k] = (_shared(left),
                                                       _shared(right))
            return pair
        return self._route(rowset.rows, feature, k)

    def _route(self, rows, feature, k):
        mask = self.bins[:, feature].take(rows) <= k
        return (self._rowset(rows.compress(mask)),
                self._rowset(rows.compress(~mask)))


def _shared(rowset: RowSet) -> RowSet:
    """Mark a row set's arrays read-only before it is shared."""
    rowset.rows.setflags(write=False)
    rowset.wrows.setflags(write=False)
    return rowset


class Proposal(NamedTuple):
    """A proposed tree mutation, stated as the node after the move.

    ``feature``/``k`` are the node's split after the move, ``feature`` None
    when it becomes a leaf, as on ``Node``; ``children`` is the pair of
    child row sets it will then have, None when it becomes a leaf. The move
    kind follows from the structure: no children is a Prune, a leaf node is
    a Grow and anything else a Change. ``log_transition_ratio`` is log
    q(reverse)/q(forward) and ``log_tree_prior_ratio`` is log p(T')/p(T)
    including the rule prior; adding the marginal-likelihood log ratio
    gives the full acceptance exponent.
    """

    node: Node
    feature: int | None
    k: int
    children: tuple[RowSet, RowSet] | None
    log_transition_ratio: float
    log_tree_prior_ratio: float


def _cut_ranges(bins, rows):
    """Valid-cutpoint counts and grid offsets per feature for a row set.

    Returns ``(counts, starts)``: feature ``j`` admits the grid indices
    ``starts[j] .. starts[j] + counts[j] - 1``. The rows are gathered from
    the feature-major view of ``bins``, one contiguous column per feature.
    """
    sub = bins.T.take(rows, axis=1)
    starts = sub.min(axis=1)
    return sub.max(axis=1) - starts, starts


def _rowset_cutinfo(rowset, bins):
    """``(counts, starts, features)`` of a row set, cached on it.

    ``counts`` and ``starts`` are ``_cut_ranges`` of the rows and
    ``features`` the indices with a nonzero count.
    """
    info = rowset.cutinfo
    if info is None:
        counts, starts = _cut_ranges(bins, rowset.rows)
        info = rowset.cutinfo = (counts, starts, np.flatnonzero(counts))
    return info


def _rowset_splittable(rowset, keys) -> bool:
    """Whether a row set admits a valid cutpoint: not all one signature.

    Cached on the row set like ``cutinfo``.
    """
    flag = rowset.splittable
    if flag is None:
        sig = keys[rowset.rows]
        flag = rowset.splittable = bool(sig.min() != sig.max())
    return flag


def _pick(rng, n: int) -> int:
    """Uniform index below ``n``; one candidate consumes no generator state,
    exactly as ``rng.integers(1)`` would not."""
    return int(rng.integers(n)) if n > 1 else 0


def _log1m(p: float) -> float:
    return math.log1p(-p) if p < 1.0 else -math.inf


@functools.lru_cache(maxsize=1024)
def _depth_log_prior(depth: int, base: float, power: float) -> float:
    """Depth part of the log prior ratio of splitting a node at ``depth``:
    log p_d + 2 log(1 - p_{d+1}) - log(1 - p_d)."""
    p_d = depth_split_prob(depth, base, power)
    p_d1 = depth_split_prob(depth + 1, base, power)
    return math.log(p_d) + 2.0 * _log1m(p_d1) - _log1m(p_d)


def _kind_mass(move_probs, grow_ok: bool, prunable: bool) -> float:
    """Total probability mass of the structurally possible move kinds.

    Every call site shares this one arithmetic path so the forward and
    reverse masses of the same tree state come out bit-identical, keeping
    paired Grow/Prune correction terms exact negatives of each other.
    """
    p_grow, p_prune, p_change = move_probs
    mass = 0.0
    if grow_ok:
        mass += p_grow
    if prunable:
        mass += p_prune + p_change
    return mass


def _scan(tree: DecisionTree, keys):
    """``(singly, flags, n_split)`` of the tree, cached until it changes."""
    scan = tree.scan
    if scan is None:
        leaves = tree.leaf_list
        singly = [p for lf in leaves
                  if (p := lf.parent) is not None and p.left is lf
                  and p.right.is_leaf]
        flags = [_rowset_splittable(leaf.rowset, keys) for leaf in leaves]
        scan = tree.scan = (singly, flags, flags.count(True))
    return scan


def propose_move(tree: DecisionTree, table: SplitTable, rng,
                 prior) -> Proposal | None:
    """Draw one Grow/Prune/Change proposal for a tree built by ``table``.

    ``prior`` is the forest's ``bart.ForestPrior``; its
    ``move_probabilities``, ``base`` and ``power`` are read here. The kind
    is drawn from the move probabilities restricted to the kinds the
    current structure allows: Grow needs a leaf with at least one valid
    cutpoint, Prune and Change need an internal node. A root-only tree on
    splittable columns therefore always proposes Grow. Returns None when no
    kind is possible (root-only tree, no valid cutpoints anywhere) or when
    the Grow leaf draw lands on a leaf none of whose features admit a valid
    cutpoint; the sampler treats either as a rejected step.
    """
    move_probs = prior.move_probabilities
    singly, flags, n_split = _scan(tree, table.keys)
    prunable = bool(singly)
    mass = _kind_mass(move_probs, n_split > 0, prunable)
    if mass == 0.0:
        return None
    p_grow, p_prune, _ = move_probs
    u = rng.random() * mass
    if not prunable or (n_split and u < p_grow):
        return _propose_grow(tree, table, rng, prior, singly, flags, n_split,
                             mass)
    if u < (p_grow + p_prune if n_split else p_prune):
        return _propose_prune(tree, table, rng, prior, singly, mass)
    return _propose_change(table, rng, singly)


def _draw_rule(node, table, rng):
    """Draw a split rule at ``node`` from the rule prior: returns the
    feature, grid index, valid-cutpoint count and the child row set pair."""
    counts, starts, features = _rowset_cutinfo(node.rowset, table.bins)
    feature = int(features[_pick(rng, features.size)])
    n_cut = int(counts[feature])
    k = int(starts[feature]) + _pick(rng, n_cut)
    return feature, k, n_cut, table.children(node.rowset, feature, k)


def _propose_grow(tree, table, rng, prior, singly, flags, n_split, mass):
    leaves = tree.leaf_list
    idx = _pick(rng, len(leaves))
    leaf = leaves[idx]
    if not flags[idx]:
        # the drawn leaf has no valid cutpoint on any feature: automatic
        # rejection (some other leaf is splittable, or Grow was never drawn)
        return None
    feature, k, n_cut, children = _draw_rule(leaf, table, rng)
    log_rule = math.log(leaf.rowset.cutinfo[2].size), math.log(n_cut)
    log_prior = (_depth_log_prior(leaf.depth, prior.base, prior.power)
                 - log_rule[0] - log_rule[1])

    # Singly-internal count of the tree the grow would create: the leaf
    # becomes one, and its parent stops being one if the sibling is a leaf.
    si_after = len(singly) + 1
    parent = leaf.parent
    if parent is not None:
        sibling = parent.right if parent.left is leaf else parent.left
        if sibling.is_leaf:
            si_after -= 1
    # Kind mass of the grown tree: it can always prune, and can grow again
    # if an untouched leaf is splittable or either new child is. The child
    # flags are computed only when the untouched leaves do not settle it.
    grow_ok_after = (n_split > 1
                     or _rowset_splittable(children[0], table.keys)
                     or _rowset_splittable(children[1], table.keys))
    move_probs = prior.move_probabilities
    mass_after = _kind_mass(move_probs, grow_ok_after, True)
    p_grow, p_prune, _ = move_probs
    log_forward = (math.log(p_grow) - math.log(mass) - math.log(len(leaves))
                   - log_rule[0] - log_rule[1])
    log_reverse = (math.log(p_prune) - math.log(mass_after)
                   - math.log(si_after))

    return Proposal(leaf, feature, k, children, log_reverse - log_forward,
                    log_prior)


def _propose_prune(tree, table, rng, prior, singly, mass):
    node = singly[_pick(rng, len(singly))]
    counts, _, features = _rowset_cutinfo(node.rowset, table.bins)
    log_rule = math.log(features.size), math.log(counts[node.feature])
    log_prior = -(_depth_log_prior(node.depth, prior.base, prior.power)
                  - log_rule[0] - log_rule[1])

    n_leaves_after = len(tree.leaf_list) - 1
    # Kind mass of the pruned tree: the merged leaf straddles the removed
    # cutpoint, so that cutpoint stays valid and Grow remains possible;
    # Prune and Change survive unless the node was the root.
    move_probs = prior.move_probabilities
    mass_after = _kind_mass(move_probs, True, node.parent is not None)
    p_grow, p_prune, _ = move_probs
    log_forward = math.log(p_prune) - math.log(mass) - math.log(len(singly))
    log_reverse = (math.log(p_grow) - math.log(mass_after)
                   - math.log(n_leaves_after)
                   - log_rule[0] - log_rule[1])

    return Proposal(node, None, 0, None, log_reverse - log_forward,
                    log_prior)


def _propose_change(table, rng, singly):
    node = singly[_pick(rng, len(singly))]
    feature, k, n_cut, children = _draw_rule(node, table, rng)

    # Rule proposal matches the rule prior, so the two ratios are equal and
    # opposite: only the cutpoint-count asymmetry between old and new feature
    # enters, and it cancels in the acceptance exponent. The kind mass drops
    # out as well: a Change cannot alter whether the tree admits a Grow.
    # When neither child is splittable, no grid point falls strictly inside
    # either child's value range on any feature, so every valid rule at the
    # node reproduces the same partition; and when a new rule does move rows,
    # the child receiving rows from both sides of the old cutpoint is
    # splittable at that old cutpoint.
    n_cut_old = int(node.rowset.cutinfo[0][node.feature])
    log_transition = math.log(n_cut) - math.log(n_cut_old)

    return Proposal(node, feature, k, children, log_transition,
                    -log_transition)


def apply_move(tree: DecisionTree, proposal: Proposal) -> None:
    """Mutate the tree and its ``leaf_list`` per an accepted proposal.

    The node takes the proposal's split, and its children the proposal's
    row sets, caches and all; the tree's ``scan`` is cleared.
    """
    node = proposal.node
    children = proposal.children
    leaves = tree.leaf_list
    tree.scan = None
    if children is None:
        # Prune: both children are leaves, adjacent in depth-first order
        i = leaves.index(node.left)
        leaves[i:i + 2] = (node,)
        node.left = None
        node.right = None
    elif node.is_leaf:
        # Grow
        node.left = Node(node.depth + 1, parent=node, rowset=children[0])
        node.right = Node(node.depth + 1, parent=node, rowset=children[1])
        i = leaves.index(node)
        leaves[i:i + 1] = (node.left, node.right)
    else:
        # Change
        node.left.rowset, node.right.rowset = children
    node.feature = proposal.feature
    node.k = proposal.k
