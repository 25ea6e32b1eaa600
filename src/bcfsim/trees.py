"""Binary regression trees and Metropolis-Hastings move proposals.

The tree machinery shared by every forest in the package: node and tree
structures, routing (a feature value less than or equal to the cutpoint goes
left), per-feature cutpoint grids, and the Grow / Prune / Change proposal
kernel in the style of Chipman, George & McCulloch (2010), with Grow 0.4,
Prune 0.4, Change 0.2 in every forest and no Swap move.

A proposal states the node as the move would leave it: its split
``feature``/``k`` (``feature`` None for a leaf, as on ``Node``) and the pair
of child row sets it would have (None for a leaf), with one log ratio
log p(T')q(T|T') / p(T)q(T'|T) of tree prior and proposal. Only this
module tells the move kinds apart: in the kind draw, and in ``apply_move``,
which reads the kind off the structure (no child pair is a Prune, a leaf
node a Grow, an internal one a Change). The sampler compares the node's
leaves before and after the move and adds the marginal-likelihood ratio.

The move kind is drawn from those probabilities renormalized over
the kinds the current tree structure allows (Grow needs a leaf with a valid
cutpoint, Prune and Change need an internal node), so a root-only tree with
a splittable column always proposes Grow; the renormalizing mass is part of
the ratio. The tree prior puts split probability
``base * (1 + depth) ** -power`` on each node and draws the split rule
uniformly over features with at least one valid cutpoint, then uniformly
over that feature's valid cutpoints. Grow and Change draw the rule from
that same prior, so its probability enters p and q alike and cancels from
the ratio (Chipman, George & McCulloch 2010): a Grow or Prune keeps the
depth term and the kind, leaf and node picks, and a Change has ratio 0.
Grids are fixed per feature at fit start: equally spaced points strictly
inside the observed min/max, so a constant column has an empty grid and
can never be split on.

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
  argmin/argmax. A flag is computed only when a proposal needs it: to
  learn whether any leaf can grow (stopping at the first that can), for
  the leaf drawn for a Grow, and for the grown tree's kind mass. The
  ranges are built only for a node drawn for a move. A routed child's
  weighted rows are its parent's, filtered by the rule.
- ``SplitTable`` holds one sampler's fit-wide state. All of its roots share
  one row set whose flag and ranges are computed once, and a root split
  ``(feature, k)`` is routed once per sampler: its pair of child row sets
  is kept in a table (at most one entry per valid root cutpoint) and shared
  by every tree that proposes or holds that split.
- A tree is its nodes. Everything the kernel reads from its shape (the
  leaves left to right and the singly-internal nodes) comes from one
  walk, cached in ``DecisionTree.scan`` until ``apply_move`` clears it,
  so a rejected or null proposal rescans nothing and an accepted one
  rescans once. The sampler's sweep reads the leaves from ``scan``
  directly; ``DecisionTree.leaves`` reads the same cache for everyone
  else.
- The kind masses a tree can have and the logs of the move probabilities
  are module constants, each computed once; the depth part of the
  tree-prior ratio is cached per (depth, base, power). Prune and Change
  share one singly-internal pick, and a uniform pick among one candidate
  draws nothing from the generator (numpy's ``integers(1)`` leaves the bit
  generator state unchanged).

None of this changes a draw: the flags and ranges are the same integers and
booleans, the shared row arrays hold the same indices in the same order,
the scan lists the leaves left to right and the singly-internal nodes in
the order of their left leaves, the generator is called in the same order
with the same arguments, and every float is computed by the same
operations in the same order.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

# the Grow / Prune / Change move mix of every forest
_P_GROW, _P_PRUNE, _P_CHANGE = 0.4, 0.4, 0.2
# the reductions ndarray.min and max run, without their Python wrappers
_min, _max = np.minimum.reduce, np.maximum.reduce


def depth_split_prob(depth: int, base: float, power: float) -> float:
    """Prior probability that a node at ``depth`` is split: base*(1+d)^-power.

    ``ForestPrior`` has already checked ``base`` and ``power``.
    """
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
    (sampler bookkeeping, not part of the tree function itself). A node
    links only to its children, so a tree holds no reference cycle.
    """

    __slots__ = ("depth", "feature", "k", "value", "left", "right", "rowset")

    def __init__(self, depth=0, value=0.0, rowset=None):
        self.depth = depth
        self.feature = None
        self.k = 0
        self.value = value
        self.left = None
        self.right = None
        self.rowset = rowset

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class DecisionTree:
    """A binary tree of ``Node``s over the rows of one ``SplitTable``.

    ``scan`` caches ``_scan``'s walk of the tree (the leaves left to right
    and the singly-internal nodes) until ``apply_move`` changes the
    structure.
    """

    def __init__(self, root: Node):
        self.root = root
        self.scan = None

    def leaves(self) -> list[Node]:
        """The leaves left to right, from the cached scan."""
        return _scan(self)[0]


def make_cutpoint_grids(X: np.ndarray, count: int) -> list[np.ndarray]:
    """Per-feature grids of ``count`` equally spaced interior cutpoints.

    Points are strictly inside the observed [min, max] of each column, so a
    constant column gets an empty grid. A column whose range overflows
    float64 raises a ValueError naming it.
    """
    grids = []
    for j in range(X.shape[1]):
        lo = float(X[:, j].min())
        hi = float(X[:, j].max())
        if not math.isfinite(hi - lo):
            raise ValueError(f"X column {j} spans [{lo!r}, {hi!r}], a range "
                             "that overflows float64")
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

    Holds the bins (``cutpoint_bins``, feature columns contiguous), a view
    of each feature's column (``columns``), the row signatures
    (``row_signatures``) and the boolean design weights, if any. ``root``
    is the row set of all rows, shared by every root (``new_tree``), with
    its split flag and cutpoint ranges computed here, once.
    ``root_splits`` maps a root split ``(feature, k)`` to its pair of child
    row sets: it is filled the first time any tree proposes that split, so
    later proposals of it at any root route nothing, and the children of
    an accepted one share the pair and its lazily filled caches. It holds
    at most one entry per valid root cutpoint. The arrays of these shared
    row sets are read-only.
    """

    def __init__(self, bins: np.ndarray, weights=None):
        self.bins = np.asfortranarray(bins)
        self.columns = list(self.bins.T)
        self.keys = row_signatures(self.bins)
        self.weights = weights
        rows = np.arange(self.bins.shape[0])
        self.root = _shared(RowSet(rows, None if weights is None
                                   else rows.compress(weights)))
        _rowset_cutinfo(self.root, self.bins)
        _rowset_splittable(self.root, self.keys)
        self.root_splits = {}

    def new_tree(self) -> DecisionTree:
        """A root-only tree on the shared root row set."""
        return DecisionTree(Node(rowset=self.root))

    def children(self, rowset: RowSet, feature: int, k: int):
        """Row sets of the rows at or below and above grid index ``k``; each
        child's weighted rows are the parent's, filtered by the same rule."""
        at_root = rowset is self.root
        if at_root:
            pair = self.root_splits.get((feature, k))
            if pair is not None:
                return pair
        column = self.columns[feature]
        rows = rowset.rows
        # the root's rows are all rows in order, so its column is its gather
        mask = (column if at_root else column.take(rows)) <= k
        if self.weights is None:
            pair = RowSet(rows.compress(mask)), RowSet(rows.compress(~mask))
        else:
            wrows = rowset.wrows
            wmask = column.take(wrows) <= k
            pair = (RowSet(rows.compress(mask), wrows.compress(wmask)),
                    RowSet(rows.compress(~mask), wrows.compress(~wmask)))
        if at_root:
            pair = self.root_splits[feature, k] = (_shared(pair[0]),
                                                   _shared(pair[1]))
        return pair


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
    a Grow and anything else a Change. ``log_ratio`` is
    log p(T')q(T|T') / p(T)q(T'|T): the tree prior ratio times the reverse
    over the forward proposal probability. The split rule is proposed from
    its prior, so its terms cancel and are left out. Adding the
    marginal-likelihood log ratio gives the full acceptance exponent.
    """

    node: Node
    feature: int | None
    k: int
    children: tuple[RowSet, RowSet] | None
    log_ratio: float


def _cut_ranges(bins, rows):
    """Valid-cutpoint counts and grid offsets per feature for a row set.

    Returns ``(counts, starts)``: feature ``j`` admits the grid indices
    ``starts[j] .. starts[j] + counts[j] - 1``. The rows are gathered from
    the feature-major view of ``bins``, one contiguous column per feature.
    """
    sub = bins.T.take(rows, axis=1)
    starts = _min(sub, axis=1)
    return _max(sub, axis=1) - starts, starts


def _rowset_cutinfo(rowset, bins):
    """``(counts, starts, features)`` of a row set, cached on it.

    ``counts`` and ``starts`` are ``_cut_ranges`` of the rows and
    ``features`` the indices with a nonzero count.
    """
    info = rowset.cutinfo
    if info is None:
        counts, starts = _cut_ranges(bins, rowset.rows)
        info = rowset.cutinfo = (counts, starts, counts.nonzero()[0])
    return info


def _rowset_splittable(rowset, keys) -> bool:
    """Whether a row set admits a valid cutpoint: not all one signature.

    The signatures are all equal exactly when their first minimum and
    first maximum sit at the same place. Cached on the row set like
    ``cutinfo``.
    """
    flag = rowset.splittable
    if flag is None:
        sig = keys[rowset.rows]
        flag = rowset.splittable = bool(sig.argmin() != sig.argmax())
    return flag


def _any_splittable(leaves, keys, skip=None) -> bool:
    """Whether a leaf other than ``skip`` admits a valid cutpoint; stops at
    the first one that does."""
    for leaf in leaves:
        if leaf is not skip and _rowset_splittable(leaf.rowset, keys):
            return True
    return False


def _log1m(p: float) -> float:
    return math.log1p(-p) if p < 1.0 else -math.inf


@functools.lru_cache(maxsize=1024)
def _depth_log_prior(depth: int, base: float, power: float) -> float:
    """Depth part of the log prior ratio of splitting a node at ``depth``:
    log p_d + 2 log(1 - p_{d+1}) - log(1 - p_d)."""
    p_d = depth_split_prob(depth, base, power)
    p_d1 = depth_split_prob(depth + 1, base, power)
    return math.log(p_d) + 2.0 * _log1m(p_d1) - _log1m(p_d)


# The kind masses a tree state can have and the logs that enter the ratios:
# Grow alone, Prune and Change without Grow, and every kind. Forward and
# reverse ratios read the same constant for a tree state, so paired
# Grow/Prune corrections are exact negatives.
_MASS_GROW = _P_GROW
_MASS_PRUNE = _P_PRUNE + _P_CHANGE
_MASS_ALL = _MASS_GROW + _MASS_PRUNE
_LOG_MASS_ALL = math.log(_MASS_ALL)
_LOG_MASS_GROW = math.log(_MASS_GROW)
_LOG_MASS_PRUNE = math.log(_MASS_PRUNE)
_LOG_P_GROW = math.log(_P_GROW)
_LOG_P_PRUNE = math.log(_P_PRUNE)


def _walk(root: Node):
    """``(leaves, singly)`` below ``root``: the leaves left to right and the
    singly-internal nodes (both children leaves) in preorder, which is the
    order of their left leaves, as no two of them nest."""
    leaves, singly = [], []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.feature is None:
            leaves.append(node)
        else:
            left, right = node.left, node.right
            if left.feature is None and right.feature is None:
                singly.append(node)
            stack.append(right)
            stack.append(left)
    return leaves, singly


def _scan(tree: DecisionTree):
    """``(leaves, singly)`` of the tree from one walk, cached until
    ``apply_move`` changes the tree."""
    scan = tree.scan
    if scan is None:
        scan = tree.scan = _walk(tree.root)
    return scan


def propose_move(tree: DecisionTree, table: SplitTable, rng,
                 prior) -> Proposal | None:
    """Draw one Grow/Prune/Change proposal for a tree built by ``table``.

    ``prior`` is the forest's ``bart.ForestPrior``; its ``base`` and
    ``power`` are read here. The kind is drawn from the move mix
    ``_P_GROW``/``_P_PRUNE``/``_P_CHANGE`` restricted to the kinds the
    current structure allows: Grow needs a leaf with at least one valid
    cutpoint, Prune and Change need an internal node. A root-only tree on
    splittable columns therefore always proposes Grow. Returns None when no
    kind is possible (root-only tree, no valid cutpoints anywhere) or when
    the Grow leaf draw lands on a leaf none of whose features admit a valid
    cutpoint; the sampler treats either as a rejected step.

    The generator is called in a fixed order: the kind draw, then a Grow's
    leaf pick or a Prune's or Change's singly-internal pick, then a Grow's
    or Change's feature and cutpoint picks. A uniform pick among one
    candidate draws nothing.
    """
    leaves, singly = tree.scan or _scan(tree)
    keys = table.keys
    n_singly = len(singly)
    grow_ok = _any_splittable(leaves, keys)
    if grow_ok:
        if n_singly:
            mass, log_mass = _MASS_ALL, _LOG_MASS_ALL
        else:
            mass, log_mass = _MASS_GROW, _LOG_MASS_GROW
    elif n_singly:
        mass, log_mass = _MASS_PRUNE, _LOG_MASS_PRUNE
    else:
        return None
    u = rng.random() * mass
    if not n_singly or (grow_ok and u < _P_GROW):
        n_leaves = len(leaves)
        node = leaves[int(rng.integers(n_leaves)) if n_leaves > 1 else 0]
        if not _rowset_splittable(node.rowset, keys):
            # the drawn leaf has no valid cutpoint on any feature: automatic
            # rejection (some other leaf is splittable, or Grow was never
            # drawn)
            return None
    else:
        node = singly[int(rng.integers(n_singly)) if n_singly > 1 else 0]
        if u < (_P_GROW + _P_PRUNE if grow_ok else _P_PRUNE):
            # Kind mass of the pruned tree: the merged leaf straddles the
            # removed cutpoint, so that cutpoint stays valid and Grow
            # remains possible; Prune and Change survive unless the node
            # was the root. The same float sequences as the reverse Grow's,
            # with forward and reverse swapped, so the two log ratios are
            # exact negatives.
            log_forward = _LOG_P_PRUNE - log_mass - math.log(n_singly)
            log_reverse = (_LOG_P_GROW
                           - (_LOG_MASS_GROW if node is tree.root
                              else _LOG_MASS_ALL)
                           - math.log(len(leaves) - 1))
            log_ratio = (-_depth_log_prior(node.depth, prior.base, prior.power)
                         + (log_reverse - log_forward))
            return Proposal(node, None, 0, None, log_ratio)

    # Grow or Change: draw the split rule at the node from the rule prior
    rowset = node.rowset
    counts, starts, features = (rowset.cutinfo
                                or _rowset_cutinfo(rowset, table.bins))
    n = features.size
    feature = int(features[int(rng.integers(n)) if n > 1 else 0])
    n = int(counts[feature])
    k = int(starts[feature]) + (int(rng.integers(n)) if n > 1 else 0)
    children = table.children(rowset, feature, k)
    if node.feature is not None:
        # Change. The new rule is drawn from the rule prior, so its prior
        # and proposal terms cancel, and so do the old rule's; the depth
        # terms are unchanged. The kind mass drops out as well: a Change
        # cannot alter whether the tree admits a Grow. When neither child
        # is splittable, no grid point falls strictly inside either child's
        # value range on any feature, so every valid rule at the node
        # reproduces the same partition; and when a new rule does move
        # rows, the child receiving rows from both sides of the old
        # cutpoint is splittable at that old cutpoint.
        return Proposal(node, feature, k, children, 0.0)

    # Grow. Singly-internal count of the grown tree: the leaf becomes one,
    # and its parent stops being one if it is one now.
    si_after = n_singly + 1
    for other in singly:
        if other.left is node or other.right is node:
            si_after -= 1
            break
    # Kind mass of the grown tree: it can always prune, and can grow again
    # if an untouched leaf is splittable or either new child is, each flag
    # computed only while the ones before it do not settle it.
    grow_ok_after = (_any_splittable(leaves, keys, node)
                     or _rowset_splittable(children[0], keys)
                     or _rowset_splittable(children[1], keys))
    log_forward = _LOG_P_GROW - log_mass - math.log(n_leaves)
    log_reverse = (_LOG_P_PRUNE
                   - (_LOG_MASS_ALL if grow_ok_after else _LOG_MASS_PRUNE)
                   - math.log(si_after))
    log_ratio = (_depth_log_prior(node.depth, prior.base, prior.power)
                 + (log_reverse - log_forward))
    return Proposal(node, feature, k, children, log_ratio)


def apply_move(tree: DecisionTree, proposal: Proposal) -> None:
    """Relink the proposal's node per an accepted proposal.

    The node takes the proposal's split, and its children the proposal's
    row sets, caches and all; the tree's ``scan`` is cleared.
    """
    node = proposal.node
    children = proposal.children
    tree.scan = None
    if children is None:
        # Prune
        node.left = None
        node.right = None
    elif node.is_leaf:
        # Grow
        node.left = Node(node.depth + 1, 0.0, children[0])
        node.right = Node(node.depth + 1, 0.0, children[1])
    else:
        # Change
        node.left.rowset, node.right.rowset = children
    node.feature = proposal.feature
    node.k = proposal.k
