import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from bcfsim.bart import ForestPrior, ForestSampler
from bcfsim.trees import (
    DecisionTree, Node, RowSet, SplitTable,
    _cut_ranges, _rowset_cutinfo, _rowset_splittable,
    apply_move, cutpoint_bins, depth_split_prob, make_cutpoint_grids,
    propose_move, row_signatures,
)

# the default forest prior: moves 0.4/0.4/0.2, depth prior 0.95/(1+d)^2
PRIOR = ForestPrior()


def valid_cutpoints(column, membership, grid) -> np.ndarray:
    """Grid values splitting the member rows into two nonempty children.

    The float reference for the bin-space cutpoint ranges: with ties routed
    left, a cutpoint c is valid iff min <= c < max over the member rows. An
    empty result is legitimate (constant column within the node, or a grid
    that all rows route past).
    """
    column = np.asarray(column, dtype=float)
    membership = np.asarray(membership)
    if membership.size == 0:
        raise ValueError("membership must be nonempty")
    grid = np.asarray(grid, dtype=float)
    vals = column[membership]
    lo, hi = vals.min(), vals.max()
    return grid[(grid >= lo) & (grid < hi)]


def _root_tree(n_rows: int) -> DecisionTree:
    return SplitTable(np.zeros((n_rows, 1), dtype=np.uint8)).new_tree()


def _structure(tree: DecisionTree):
    """Nested (feature, grid index, left, right) tuples, None at a leaf;
    leaf values are ignored."""
    def rec(node):
        if node.is_leaf:
            return None
        return (node.feature, node.k, rec(node.left), rec(node.right))

    return rec(tree.root)


def _route(tree: DecisionTree, grids, x) -> Node:
    """The leaf reached by ``x``, walking the float cutpoints ``grids[f][k]``
    of the split rules (ties left)."""
    node = tree.root
    while not node.is_leaf:
        cut = grids[node.feature][node.k]
        node = node.left if x[node.feature] <= cut else node.right
    return node


KINDS = ("grow", "prune", "change")


def _kind(prop) -> str:
    # the move kind a proposal makes, read off the structure as apply_move
    # does; only meaningful before the proposal is applied
    if prop.children is None:
        return "prune"
    return "grow" if prop.node.is_leaf else "change"


def _propose_kind(tree, table, rng, kind):
    # public-path proposal of a specific kind, retrying the rng draw
    for _ in range(500):
        prop = propose_move(tree, table, rng, PRIOR)
        if prop is not None and _kind(prop) == kind:
            return prop
    raise AssertionError(f"no {kind} proposal in 500 attempts")


# ---------------------------------------------------------------- tree prior

def test_depth_split_prob_values():
    assert_allclose(depth_split_prob(0, 0.95, 2.0), 0.95)
    assert_allclose(depth_split_prob(1, 0.95, 2.0), 0.95 / 4)
    assert_allclose(depth_split_prob(2, 0.95, 2.0), 0.95 / 9)
    assert_allclose(depth_split_prob(3, 0.25, 3.0), 0.25 / 64)


def test_depth_split_prob_monotone_in_depth():
    probs = [depth_split_prob(d, 0.5, 1.5) for d in range(6)]
    assert all(a > b for a, b in zip(probs, probs[1:]))


# ------------------------------------------------------------------- grids

def test_make_cutpoint_grids_interior_points():
    X = np.array([[0.0, 5.0], [1.0, 5.0], [0.25, 5.0]])
    grids = make_cutpoint_grids(X, 3)
    assert_allclose(grids[0], [0.25, 0.5, 0.75])
    # constant column: nothing to split on
    assert grids[1].size == 0


def test_make_cutpoint_grids_excludes_observed_extremes():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 2))
    grids = make_cutpoint_grids(X, 10)
    for j, grid in enumerate(grids):
        assert grid.size == 10
        assert grid.min() > X[:, j].min()
        assert grid.max() < X[:, j].max()


def test_make_cutpoint_grids_refuses_a_range_that_overflows():
    # the width of column 1 is inf in float64: linspace would give a grid of
    # infinities that no row is ever split on
    X = np.array([[0.0, -1e308], [1.0, 1e308]])
    with pytest.raises(ValueError, match=r"^X column 1 spans \[-1e\+308, "
                                         r"1e\+308\], a range that "
                                         r"overflows float64$"):
        make_cutpoint_grids(X, 3)
    # the widest range float64 holds still gets a finite interior grid
    half = np.finfo(float).max / 2
    grid, = make_cutpoint_grids(np.array([[-half], [half]]), 3)
    assert np.isfinite(grid).all()
    assert (-half < grid).all() and (grid < half).all()


def test_valid_cutpoints_hand_cases():
    column = np.array([0.1, 0.5, 0.9])
    grid = np.array([0.25, 0.5, 0.75])
    got = valid_cutpoints(column, np.array([0, 1, 2]), grid)
    assert_array_equal(got, grid)
    # single member: no cutpoint can separate it from itself
    assert valid_cutpoints(column, np.array([1]), grid).size == 0
    # cutpoint equal to the member max routes everything left: invalid
    got = valid_cutpoints(column, np.array([0, 1]), np.array([0.1, 0.5]))
    assert_array_equal(got, [0.1])
    with pytest.raises(ValueError):
        valid_cutpoints(column, np.array([], dtype=int), grid)


@given(
    vals=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=12),
    grid=st.lists(st.floats(-6, 6, allow_nan=False), min_size=0, max_size=12),
)
def test_valid_cutpoints_matches_brute_force(vals, grid):
    column = np.asarray(vals, dtype=float)
    grid = np.sort(np.asarray(grid, dtype=float))
    members = np.arange(len(column))
    got = valid_cutpoints(column, members, grid)
    want = np.array(
        [c for c in grid
         if (column <= c).any() and (column > c).any()],
        dtype=float,
    )
    assert_array_equal(got, want)


# --------------------------------------------------------------- bin index

def _tied_design(seed, n=40, count=12):
    # column 0: continuous; column 1: integers 0..count+1, so its grid is
    # exactly 1..count and most rows sit on a cutpoint; column 2: spans
    # [0, 1] with its interior rows moved onto grid points; column 3:
    # constant, so its grid is empty; the last five rows repeat the first
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.normal(size=n),
        rng.integers(0, count + 2, size=n).astype(float),
        np.empty(n),
        np.full(n, 0.7),
    ])
    X[:2, 1] = (0.0, count + 1.0)
    X[:2, 2] = (0.0, 1.0)
    X[2:, 2] = rng.choice(np.linspace(0.0, 1.0, count + 2)[1:-1], size=n - 2)
    X[-5:] = X[:5]
    grids = make_cutpoint_grids(X, count)
    assert np.isin(X[2:-5, 2], grids[2]).all()
    assert grids[3].size == 0
    return X, grids


@given(seed=st.integers(0, 2**32 - 1))
def test_bins_route_like_the_float_grid(seed):
    X, grids = _tied_design(seed)
    bins = cutpoint_bins(X, grids)
    assert bins.dtype == np.uint8
    assert bins.shape == X.shape
    assert not bins[:, 3].any()
    for j, grid in enumerate(grids):
        for k, cut in enumerate(grid):
            assert_array_equal(bins[:, j] <= k, X[:, j] <= cut)


@given(seed=st.integers(0, 2**32 - 1))
def test_node_cutinfo_matches_valid_cutpoints(seed):
    X, grids = _tied_design(seed)
    bins = cutpoint_bins(X, grids)
    rng = np.random.default_rng(seed)
    for size in (1, 2, 5, 17, len(X)):
        rows = np.sort(rng.choice(len(X), size=size, replace=False))
        counts, starts, features = _rowset_cutinfo(RowSet(rows), bins)
        for j, grid in enumerate(grids):
            want = valid_cutpoints(X[:, j], rows, grid)
            assert counts[j] == want.size
            assert_array_equal(grid[starts[j]:starts[j] + counts[j]], want)
        assert_array_equal(features, np.flatnonzero(counts))


@given(seed=st.integers(0, 2**32 - 1))
def test_signature_splittability_matches_cut_ranges(seed):
    # few distinct rows: two 3-level columns, a two-level column that the
    # grid splits, a constant column, and exact duplicate rows throughout
    rng = np.random.default_rng(seed)
    n = 30
    X = np.column_stack([
        rng.integers(0, 3, size=n).astype(float),
        rng.integers(0, 3, size=n).astype(float),
        rng.choice([-1.5, 2.5], size=n),
        np.full(n, 4.0),
    ])
    grids = make_cutpoint_grids(X, 7)
    bins = cutpoint_bins(X, grids)
    keys = row_signatures(bins)
    same_bins = (bins[:, None, :] == bins[None, :, :]).all(axis=2)
    assert_array_equal(keys[:, None] == keys[None, :], same_bins)
    subsets = [np.arange(n)]
    for size in (1, 2, 3, 8):
        subsets.append(np.sort(rng.choice(n, size=size, replace=False)))
    for key in np.unique(keys):
        # all copies of one bin row, plus that set with one other row
        members = np.flatnonzero(keys == key)
        subsets.append(members)
        other = np.flatnonzero(keys != key)
        if other.size:
            subsets.append(np.sort(np.append(members, other[0])))
    for rows in subsets:
        want = bool(_cut_ranges(bins, rows)[0].any())
        assert _rowset_splittable(RowSet(rows), keys) == want
        assert want == (len(np.unique(bins[rows], axis=0)) > 1)


def test_wide_grid_bins_do_not_overflow():
    # 300 cutpoints put bin indices past 255, so the bins widen to uint16;
    # a short fit must then route every node as its float cutpoint does,
    # including splits whose grid index does not fit in a uint8
    rng = np.random.default_rng(23)
    n = 300
    X = rng.random((n, 2))
    y = 3.0 * (X[:, 0] > 0.93) + rng.normal(0.0, 0.1, size=n)
    sampler = ForestSampler(X, ForestPrior(num_trees=10,
                                           cutpoints_per_feature=300))
    bins = sampler.splits.bins
    grids = make_cutpoint_grids(X, 300)
    assert bins.dtype == np.uint16
    assert bins.max() > 255
    for j, grid in enumerate(grids):
        for k, cut in enumerate(grid):
            assert_array_equal(bins[:, j] <= k, X[:, j] <= cut)
    resid = y - y.mean()
    chain = np.random.default_rng(24)
    for _ in range(30):
        sampler.sweep(resid, 0.3, chain)
    high = 0
    for tree in sampler.trees:
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            cut = grids[node.feature][node.k]
            goes_left = X[node.rowset.rows, node.feature] <= cut
            rows = node.rowset.rows
            assert_array_equal(node.left.rowset.rows, rows[goes_left])
            assert_array_equal(node.right.rowset.rows, rows[~goes_left])
            high += node.k > 255
            stack.extend([node.left, node.right])
    assert high > 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), weighted=st.booleans())
def test_root_split_table_matches_fresh_routing(seed, weighted):
    # every entry of the root split table, filled by proposals of several
    # trees, is the routing of all rows by bins[:, f] <= k, with read-only
    # arrays; the root row set's caches equal a rescan of all rows
    X, grids = _tied_design(seed)
    n = len(X)
    bins = cutpoint_bins(X, grids)
    rng = np.random.default_rng(seed)
    weights = rng.random(n) < 0.5 if weighted else None
    table = SplitTable(bins, weights)
    trees = [table.new_tree() for _ in range(4)]
    for _ in range(30):
        for tree in trees:
            prop = propose_move(tree, table, rng, PRIOR)
            if prop is not None and rng.random() < 0.5:
                apply_move(tree, prop)
    all_rows = np.arange(n)
    keep = np.ones(n, dtype=bool) if weights is None else weights
    counts, starts = _cut_ranges(bins, all_rows)
    root = table.root
    assert_array_equal(root.rows, all_rows)
    assert root.splittable == bool(counts.any())
    assert_array_equal(root.cutinfo[0], counts)
    assert_array_equal(root.cutinfo[1], starts)
    assert table.root_splits
    for (f, k), (left, right) in table.root_splits.items():
        assert starts[f] <= k < starts[f] + counts[f]
        goes_left = bins[:, f] <= k
        assert_array_equal(left.rows, all_rows[goes_left])
        assert_array_equal(right.rows, all_rows[~goes_left])
        for rowset in (root, left, right):
            assert_array_equal(rowset.wrows, rowset.rows[keep[rowset.rows]])
            assert not rowset.rows.flags.writeable
            assert not rowset.wrows.flags.writeable
            with pytest.raises(ValueError):
                rowset.rows[0] = 0


def test_root_split_table_stays_within_root_cutpoints():
    # 300 cutpoints on two features give 600 valid root cutpoints; many
    # root proposals fill the table but never past one entry per cutpoint
    rng = np.random.default_rng(25)
    n = 120
    X = rng.random((n, 2))
    y = np.sin(6.0 * X[:, 0]) + rng.normal(0.0, 0.3, size=n)
    sampler = ForestSampler(X, ForestPrior(num_trees=200,
                                           cutpoints_per_feature=300))
    table = sampler.splits
    counts, starts, _ = table.root.cutinfo
    assert counts.sum() == 600
    resid = y - y.mean()
    chain = np.random.default_rng(26)
    for _ in range(20):
        sampler.sweep(resid, 0.5, chain)
    assert 300 < len(table.root_splits) <= counts.sum()
    for f, k in table.root_splits:
        assert starts[f] <= k < starts[f] + counts[f]


def test_single_candidate_pick_draws_nothing():
    # numpy's integers(1) leaves the generator state unchanged, so a
    # proposal that picks among one candidate without calling the generator
    # keeps every later draw the same
    rng = np.random.default_rng(31)
    rng.random()
    state = rng.bit_generator.state
    assert rng.integers(1) == 0
    assert rng.bit_generator.state == state


def test_scalar_standard_normal_matches_one_element_draw():
    # the sweep draws a one-leaf tree's noise with standard_normal(), which
    # must give the value and leave the generator state of
    # standard_normal(1), interleaved with the sweep's other calls
    rng, twin = np.random.default_rng(32), np.random.default_rng(32)
    for i in range(1000):
        assert rng.standard_normal() == twin.standard_normal(1)[0]
        assert rng.bit_generator.state == twin.bit_generator.state
        size = 1 + i % 3
        assert_array_equal(rng.standard_normal(size),
                           twin.standard_normal(size))
        assert rng.random() == twin.random()
        assert rng.integers(2 + i % 5) == twin.integers(2 + i % 5)
    assert rng.bit_generator.state == twin.bit_generator.state


# ------------------------------------------------------------ move proposals

def test_splittable_stump_always_proposes_grow():
    # Grow is the only structurally possible kind on a root-only tree, so
    # the kind draw must land on it every time, not just 40% of the time
    X = np.random.default_rng(1).random((20, 2))
    grids = make_cutpoint_grids(X, 10)
    table = SplitTable(cutpoint_bins(X, grids))
    tree = table.new_tree()
    rng = np.random.default_rng(2)
    for _ in range(200):
        prop = propose_move(tree, table, rng, PRIOR)
        assert prop is not None
        assert _kind(prop) == "grow"


def test_stump_on_constant_features_has_no_legal_move():
    X = np.ones((10, 3))
    grids = make_cutpoint_grids(X, 10)
    table = SplitTable(cutpoint_bins(X, grids))
    tree = table.new_tree()
    rng = np.random.default_rng(3)
    for _ in range(50):
        assert propose_move(tree, table, rng, PRIOR) is None


def test_kind_renormalizes_when_grow_is_unavailable():
    # after growing the two-row stump both leaves hold a single row, so
    # Grow drops out and Prune/Change split the mass 2:1
    X = np.array([[0.0], [1.0]])
    grids = make_cutpoint_grids(X, 3)
    table = SplitTable(cutpoint_bins(X, grids))
    tree = table.new_tree()
    rng = np.random.default_rng(2)
    apply_move(tree, propose_move(tree, table, rng, PRIOR))
    counts = dict.fromkeys(KINDS, 0)
    n = 3000
    for _ in range(n):
        prop = propose_move(tree, table, rng, PRIOR)
        assert prop is not None
        counts[_kind(prop)] += 1
    assert counts["grow"] == 0
    assert abs(counts["prune"] / n - 2 / 3) < 0.03
    assert abs(counts["change"] / n - 1 / 3) < 0.03


def test_grow_rows_match_rule():
    rng = np.random.default_rng(4)
    X = rng.random((60, 3))
    grids = make_cutpoint_grids(X, 25)
    bins = cutpoint_bins(X, grids)
    table = SplitTable(bins)
    tree = table.new_tree()
    prop = _propose_kind(tree, table, rng, "grow")
    f = prop.feature
    c = grids[f][prop.k]
    left, right = prop.children
    assert_array_equal(left.rows, np.flatnonzero(X[:, f] <= c))
    assert_array_equal(right.rows, np.flatnonzero(X[:, f] > c))
    assert left.rows.size > 0 and right.rows.size > 0


def test_grow_then_prune_restores_structure():
    rng = np.random.default_rng(5)
    X = rng.random((30, 2))
    grids = make_cutpoint_grids(X, 15)
    bins = cutpoint_bins(X, grids)
    table = SplitTable(bins)
    tree = table.new_tree()
    grow = _propose_kind(tree, table, rng, "grow")
    apply_move(tree, grow)
    assert not tree.root.is_leaf
    prune = _propose_kind(tree, table, rng, "prune")
    assert prune.node is tree.root
    apply_move(tree, prune)
    assert tree.root.is_leaf
    assert _structure(tree) == _structure(_root_tree(30))


def test_grow_prune_ratios_are_antisymmetric():
    # growing a node and then pruning it are mutually reverse moves, so the
    # MH correction terms must be exact negatives of each other
    rng = np.random.default_rng(6)
    X = rng.random((50, 3))
    grids = make_cutpoint_grids(X, 20)
    table = SplitTable(cutpoint_bins(X, grids))
    for _ in range(10):
        tree = table.new_tree()
        # random starting shape: a few accepted grows
        for _ in range(int(rng.integers(0, 3))):
            prop = propose_move(tree, table, rng, PRIOR)
            if prop is not None and _kind(prop) == "grow":
                apply_move(tree, prop)
        grow = _propose_kind(tree, table, rng, "grow")
        grown = grow.node
        apply_move(tree, grow)
        for _ in range(500):
            prune = propose_move(tree, table, rng, PRIOR)
            if (prune is not None and _kind(prune) == "prune"
                    and prune.node is grown):
                break
        else:
            raise AssertionError("no prune proposal hit the grown node")
        assert prune.log_ratio == -grow.log_ratio


def test_stump_grow_ratio_uses_renormalized_kind_mass():
    # two rows, one feature, three valid cutpoints. Forward: Grow is the
    # only kind (probability 1), one leaf, one feature, cut 1 of 3. The
    # grown tree has two single-row leaves, so Grow drops out of its kind
    # mass and the reverse Prune carries probability 0.4 / (0.4 + 0.2).
    X = np.array([[0.0], [1.0]])
    grids = make_cutpoint_grids(X, 3)
    table = SplitTable(cutpoint_bins(X, grids))
    assert_allclose(grids[0], [0.25, 0.5, 0.75])
    prop = propose_move(table.new_tree(), table, np.random.default_rng(0),
                        PRIOR)
    assert _kind(prop) == "grow"
    want = math.log(0.4) - math.log(0.4 + 0.2) + math.log(3.0)
    p0, p1 = 0.95, 0.95 / 4
    want_prior = (math.log(p0) + 2.0 * math.log1p(-p1) - math.log1p(-p0)
                  - math.log(3.0))
    # the rule terms, log 1 feature and log 3 cutpoints, cancel in the sum
    assert prop.log_ratio == pytest.approx(want + want_prior, rel=1e-12)


def test_grow_prune_antisymmetry_with_degenerate_children():
    # growing the two-row stump removes Grow from the resulting tree's kind
    # mass; the reverse Prune must reproduce both masses bit-for-bit
    X = np.array([[0.0], [1.0]])
    grids = make_cutpoint_grids(X, 3)
    table = SplitTable(cutpoint_bins(X, grids))
    tree = table.new_tree()
    rng = np.random.default_rng(1)
    grow = propose_move(tree, table, rng, PRIOR)
    assert _kind(grow) == "grow"
    apply_move(tree, grow)
    prune = _propose_kind(tree, table, rng, "prune")
    assert prune.node is tree.root
    assert prune.log_ratio == -grow.log_ratio


def test_change_prior_cancels_transition():
    rng = np.random.default_rng(7)
    X = rng.random((40, 2))
    grids = make_cutpoint_grids(X, 12)
    bins = cutpoint_bins(X, grids)
    table = SplitTable(bins)
    tree = table.new_tree()
    apply_move(tree, _propose_kind(tree, table, rng, "grow"))
    for _ in range(20):
        prop = _propose_kind(tree, table, rng, "change")
        assert prop.log_ratio == 0.0


def test_change_clears_child_cutpoint_cache():
    # a Change hands the children the proposal's row sets, so no cache of
    # the old rows survives; a root Change takes the pair from the root
    # split table, whose caches may be filled already and must then
    # describe the new rows
    rng = np.random.default_rng(8)
    X = rng.random((40, 2))
    grids = make_cutpoint_grids(X, 12)
    table = SplitTable(cutpoint_bins(X, grids))
    tree = table.new_tree()
    apply_move(tree, _propose_kind(tree, table, rng, "grow"))
    change = _propose_kind(tree, table, rng, "change")
    node = change.node
    # warm the caches, then apply the change
    _ = propose_move(tree, table, rng, PRIOR)
    for child in (node.left, node.right):
        _rowset_splittable(child.rowset, table.keys)
        assert child.rowset.splittable is not None
    apply_move(tree, change)
    assert node.left.rowset is change.children[0]
    assert node.right.rowset is change.children[1]
    assert change.children in table.root_splits.values()
    for child in (node.left, node.right):
        want = _cut_ranges(table.bins, child.rowset.rows)
        assert child.rowset.splittable in (None, bool(want[0].any()))
        if child.rowset.cutinfo is not None:
            assert_array_equal(child.rowset.cutinfo[0], want[0])
            assert_array_equal(child.rowset.cutinfo[1], want[1])
    # the flags the next proposals read come from the new row sets
    _ = propose_move(tree, table, rng, PRIOR)
    for child in (node.left, node.right):
        want = _cut_ranges(table.bins, child.rowset.rows)
        assert (_rowset_splittable(child.rowset, table.keys)
                == bool(want[0].any()))
    assert node.feature == change.feature
    assert node.k == change.k
    cut = grids[node.feature][node.k]
    assert np.all(X[node.left.rowset.rows, node.feature] <= cut)
    assert np.all(X[node.right.rowset.rows, node.feature] > cut)


def test_move_kind_frequencies():
    # on a depth-1 tree with ample cutpoints every kind is available, so
    # the renormalized kind draw reduces to the configured probabilities
    rng = np.random.default_rng(9)
    X = rng.random((80, 3))
    grids = make_cutpoint_grids(X, 20)
    table = SplitTable(cutpoint_bins(X, grids))
    tree = table.new_tree()
    apply_move(tree, _propose_kind(tree, table, rng, "grow"))
    counts = dict.fromkeys(KINDS, 0)
    n = 10_000
    for _ in range(n):
        prop = propose_move(tree, table, rng, PRIOR)
        assert prop is not None
        counts[_kind(prop)] += 1
    for kind, p in zip(KINDS, (0.4, 0.4, 0.2)):
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(counts[kind] / n - p) < 3.0 * se


def test_leaves_partition_rows_under_random_walk():
    rng = np.random.default_rng(11)
    n = 80
    X = rng.random((n, 3))
    grids = make_cutpoint_grids(X, 20)
    table = SplitTable(cutpoint_bins(X, grids))
    tree = table.new_tree()
    applied = 0
    for _ in range(300):
        prop = propose_move(tree, table, rng, PRIOR)
        if prop is None:
            continue
        apply_move(tree, prop)
        applied += 1
    assert applied > 100

    all_rows = np.sort(np.concatenate([leaf.rowset.rows
                                       for leaf in tree.leaves()]))
    assert_array_equal(all_rows, np.arange(n))

    # every internal node splits its rows exactly per its rule
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        merged = np.sort(np.concatenate([node.left.rowset.rows,
                                         node.right.rowset.rows]))
        assert_array_equal(merged, np.sort(node.rowset.rows))
        cut = grids[node.feature][node.k]
        assert np.all(X[node.left.rowset.rows, node.feature] <= cut)
        assert np.all(X[node.right.rowset.rows, node.feature] > cut)
        stack.extend([node.left, node.right])


def _leaf_regions(tree, grids):
    # every leaf with the list of (feature, cutpoint, goes_left) conditions
    # on its root path
    out = []

    def rec(node, conds):
        if node.is_leaf:
            out.append((node, conds))
            return
        cut = grids[node.feature][node.k]
        rec(node.left, conds + [(node.feature, cut, True)])
        rec(node.right, conds + [(node.feature, cut, False)])

    rec(tree.root, [])
    return out


def test_routing_is_a_partition_of_feature_space():
    # exhaustive check: each random vector satisfies the root-path
    # conditions of exactly one leaf, and that leaf is the one it routes to
    rng = np.random.default_rng(20)
    X = rng.random((60, 3))
    grids = make_cutpoint_grids(X, 15)
    table = SplitTable(cutpoint_bins(X, grids))
    tree = table.new_tree()
    for _ in range(200):
        prop = propose_move(tree, table, rng, PRIOR)
        if prop is not None and _kind(prop) != "prune":
            apply_move(tree, prop)
    leaves = tree.leaves()
    assert len(leaves) > 3
    regions = _leaf_regions(tree, grids)
    assert len(regions) == len(leaves)
    for x in rng.random((1000, 3)):
        hits = [node for node, conds in regions
                if all((x[f] <= c) == left for f, c, left in conds)]
        assert len(hits) == 1
        assert _route(tree, grids, x) is hits[0]
    # the sampler's leaf row sets partition the training rows the same way
    owner = np.full(len(X), -1)
    for i, leaf in enumerate(leaves):
        assert (owner[leaf.rowset.rows] == -1).all()
        owner[leaf.rowset.rows] = i
    assert (owner >= 0).all()
    assert [leaves[i] for i in owner] == [_route(tree, grids, x) for x in X]


def test_constant_feature_never_selected():
    # a column with one distinct value inside a node has no valid cutpoint
    # there, so no proposal may pick it; column 1 is constant everywhere
    rng = np.random.default_rng(22)
    n = 70
    X = np.column_stack([rng.random(n), np.full(n, 0.3), rng.random(n)])
    grids = make_cutpoint_grids(X, 12)
    table = SplitTable(cutpoint_bins(X, grids))
    tree = table.new_tree()
    checked = 0
    for _ in range(10_000):
        prop = propose_move(tree, table, rng, PRIOR)
        if prop is None:
            continue
        if prop.feature is not None:
            assert prop.feature != 1
            node_vals = X[prop.node.rowset.rows, prop.feature]
            assert np.unique(node_vals).size > 1
            checked += 1
        if rng.random() < 0.5:
            apply_move(tree, prop)
    assert checked > 2000


def test_proposal_is_immutable():
    # a proposal is read by the likelihood ratio and then applied, so
    # nothing in between may edit it
    X = np.random.default_rng(1).random((20, 2))
    table = SplitTable(cutpoint_bins(X, make_cutpoint_grids(X, 10)))
    prop = propose_move(table.new_tree(), table, np.random.default_rng(2),
                        PRIOR)
    with pytest.raises(AttributeError):
        prop.feature = 2
