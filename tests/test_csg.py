import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from csgtopo.csg import (CsgTree, DIFFERENCE, INTERSECTION, NEGATIVE_DIFFERENCE,
                         OPERATOR_NAMES, UNION, combine, evaluate_tree_values, one_hot,
                         prune, snap, softmax_encode, tree_backward)
from conftest import cell_centers, halfspace_sdfs, node_partials, polygon, pruned_values
from csgtopo.fea import Mesh
from csgtopo.geometry import ProjectionConfig, rasterize_primitive

TABLE = {
    INTERSECTION: lambda x, y: x * y,
    UNION: lambda x, y: x + y - x * y,
    DIFFERENCE: lambda x, y: x - x * y,
    NEGATIVE_DIFFERENCE: lambda x, y: y - x * y,
}


def simplex(rng, n=4):
    w = rng.dirichlet(np.ones(n))
    return w / w.sum()


# -- softmax encoding ---------------------------------------------------------

def test_softmax_equal_inputs():
    for v in (0.0, 0.3, 1.0):
        b = softmax_encode(np.full(4, v), scale=4.0)
        assert np.allclose(b, 0.25, atol=1e-15)


def test_softmax_one_hot_leaning():
    b = softmax_encode([1.0, 0.0, 0.0, 0.0], scale=4.0)
    e4 = math.exp(4.0)
    assert b[0] == pytest.approx(e4 / (e4 + 3), rel=1e-12)
    assert np.allclose(b[1:], 1.0 / (e4 + 3), rtol=1e-12)
    assert b[0] == pytest.approx(0.9479, abs=5e-5)
    assert b[1] == pytest.approx(0.0174, abs=5e-5)


def test_softmax_sums_to_one_exactly():
    rng = np.random.default_rng(0)
    for _ in range(50):
        b = softmax_encode(rng.random(4), scale=4.0)
        assert b.sum() == pytest.approx(1.0, abs=1e-15)


@given(zb=st.lists(st.floats(0, 1), min_size=4, max_size=4))
def test_softmax_preserves_argmax(zb):
    zb = np.array(zb)
    gap = zb.max() - np.sort(zb)[-2]
    if gap > 1e-12:  # a unique maximum wider than float resolution
        assert np.argmax(softmax_encode(zb, 4.0)) == np.argmax(zb)


# -- unified Boolean operation ---------------------------------------------------

def test_combine_one_hot_examples():
    assert combine(0.5, 0.5, one_hot(INTERSECTION)) == pytest.approx(0.25, abs=1e-16)
    assert combine(1.0, 0.0, one_hot(UNION)) == pytest.approx(1.0, abs=1e-16)
    assert combine(1.0, 1.0, one_hot(DIFFERENCE)) == pytest.approx(0.0, abs=1e-16)
    assert combine(1.0, 1.0, np.full(4, 0.25)) == pytest.approx(0.5, abs=1e-16)


def test_combine_matches_table_rows():
    grid = np.linspace(0.0, 1.0, 11)
    xs, ys = np.meshgrid(grid, grid)
    for op, closed_form in TABLE.items():
        got = combine(xs, ys, one_hot(op))
        assert np.abs(got - closed_form(xs, ys)).max() <= 1e-15


@given(rx=st.floats(0, 1), ry=st.floats(0, 1), seed=st.integers(0, 2 ** 31))
def test_combine_closure(rx, ry, seed):
    b = simplex(np.random.default_rng(seed))
    value = float(combine(rx, ry, b))
    assert -1e-12 <= value <= 1.0 + 1e-12


def test_combine_linearity_in_weights():
    rng = np.random.default_rng(3)
    for _ in range(100):
        rx, ry = rng.random(2)
        a, c = simplex(rng), simplex(rng)
        lam = rng.random()
        mixed = combine(rx, ry, lam * a + (1 - lam) * c)
        split = lam * combine(rx, ry, a) + (1 - lam) * combine(rx, ry, c)
        assert mixed == pytest.approx(split, abs=1e-12)


@given(seed=st.integers(0, 2 ** 31))
def test_combine_idempotent_solids(seed):
    b = simplex(np.random.default_rng(seed))
    assert float(combine(1.0, 1.0, b)) == pytest.approx(b[0] + b[1], abs=1e-12)
    assert float(combine(0.0, 0.0, b)) == pytest.approx(0.0, abs=1e-15)


# -- derivatives ------------------------------------------------------------------

def test_grad_operand_examples():
    dx, _, _ = node_partials(0.3, 1.0, one_hot(UNION))
    assert dx == pytest.approx(0.0, abs=1e-15)
    dx, _, _ = node_partials(0.3, 0.7, one_hot(INTERSECTION))
    assert dx == pytest.approx(0.7, abs=1e-15)


def test_grad_operand_matches_fd():
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(50):
        rx, ry = rng.random(2)
        b = simplex(rng)
        dx, dy, _ = node_partials(rx, ry, b)
        fd_x = (combine(rx + h, ry, b) - combine(rx - h, ry, b)) / (2 * h)
        fd_y = (combine(rx, ry + h, b) - combine(rx, ry - h, b)) / (2 * h)
        assert dx == pytest.approx(fd_x, abs=1e-9)
        assert dy == pytest.approx(fd_y, abs=1e-9)


def test_grad_weights_examples():
    b = one_hot(UNION)  # the weight partials do not depend on b
    assert np.allclose(node_partials(1.0, 1.0, b)[2], [1, 1, 0, 0], atol=1e-15)
    assert np.allclose(node_partials(0.0, 0.0, b)[2], [0, 0, 0, 0], atol=1e-15)


def test_grad_weights_matches_fd():
    # raw partials: perturb each weight without re-projecting to the simplex
    rng = np.random.default_rng(9)
    h = 1e-6
    for _ in range(50):
        rx, ry = rng.random(2)
        b = simplex(rng)
        grads = node_partials(rx, ry, b)[2]
        for i in range(4):
            bp, bm = b.copy(), b.copy()
            bp[i] += h
            bm[i] -= h
            fd = (combine(rx, ry, bp) - combine(rx, ry, bm)) / (2 * h)
            assert grads[i] == pytest.approx(fd, abs=1e-9)


# -- tree evaluation ---------------------------------------------------------------

def test_evaluate_tree_self_union():
    rng = np.random.default_rng(1)
    f = rng.random(32)
    out = evaluate_tree_values(one_hot(UNION)[None, :], np.vstack([f, f]))[0]
    assert np.allclose(out, 2 * f - f * f, atol=1e-15)


def test_evaluate_tree_nested_unions():
    rng = np.random.default_rng(2)
    leaves = rng.random((4, 18))
    out = evaluate_tree_values(np.tile(one_hot(UNION), (3, 1)), leaves)[0]
    expected = 1.0 - np.prod(1.0 - leaves, axis=0)
    assert np.abs(out - expected).max() < 1e-12


@given(seed=st.integers(0, 2 ** 31), depth=st.integers(1, 3))
def test_evaluate_tree_zero_leaves(seed, depth):
    rng = np.random.default_rng(seed)
    n_b = 2 ** depth - 1
    weights = np.vstack([simplex(rng) for _ in range(n_b)])
    leaves = np.zeros((2 ** depth, 10))
    values = evaluate_tree_values(weights, leaves)
    assert np.abs(values[0]).max() == 0.0


@pytest.mark.parametrize("depth", range(1, 9))
def test_evaluate_tree_levels_equal_per_node_loop(depth):
    # reference: one combine per internal node, deepest node first
    rng = np.random.default_rng(depth)
    n_b, n_cells = 2 ** depth - 1, 37
    weights = np.vstack([simplex(rng) for _ in range(n_b)])
    leaves = rng.random((2 ** depth, n_cells))
    expected = np.vstack([np.empty((n_b, n_cells)), leaves])
    for k in range(n_b - 1, -1, -1):
        expected[k] = combine(expected[2 * k + 1], expected[2 * k + 2], weights[k])
    assert np.array_equal(evaluate_tree_values(weights, leaves), expected)


def test_evaluate_tree_values_rejects_imperfect_tree():
    with pytest.raises(ValueError):
        evaluate_tree_values(np.full((2, 4), 0.25), np.zeros((3, 5)))


def test_tree_backward_stacked_rows_equal_single_seed_calls():
    rng = np.random.default_rng(9)
    depth, n_cells = 3, 40
    weights = np.vstack([simplex(rng) for _ in range(2 ** depth - 1)])
    node_values = evaluate_tree_values(weights, rng.random((2 ** depth, n_cells)))
    seeds = rng.standard_normal((3, n_cells))
    leaf_grads, weight_grads = tree_backward(weights, node_values, seeds)
    assert leaf_grads.shape == (3, 2 ** depth, n_cells)
    assert weight_grads.shape == (3, 2 ** depth - 1, 4)
    for r in range(3):
        leaf_r, weight_r = tree_backward(weights, node_values, seeds[r])
        assert np.array_equal(leaf_grads[r], leaf_r)
        assert np.array_equal(weight_grads[r], weight_r)


def reference_tree_backward(weights, node_values, seed):
    # the walk as it ran before it kept only the current level: a zeroed
    # (m, n_nodes, n_cells) array the children's seeds are summed into, and
    # the weight partials stacked as one (n_level, 4, n_cells) block
    seeds = np.atleast_2d(seed)
    n_internal = weights.shape[0]
    grads = np.zeros((seeds.shape[0],) + node_values.shape)
    grads[:, 0] = seeds
    weight_grads = np.empty((seeds.shape[0], n_internal, 4))
    first = 0
    while first < n_internal:
        level = slice(first, 2 * first + 1)
        left = slice(2 * first + 1, 4 * first + 2, 2)
        right = slice(2 * first + 2, 4 * first + 3, 2)
        rx, ry = node_values[left], node_values[right]
        g = grads[:, level]
        b = weights[level].T[..., None]
        cross = b[0] - b[1] - b[2] - b[3]
        grads[:, left] += g * ((b[1] + b[2]) + cross * ry)
        grads[:, right] += g * ((b[1] + b[3]) + cross * rx)
        prod = rx * ry
        partials = np.stack([prod, rx + ry - prod, rx - prod, ry - prod], axis=1)
        weight_grads[:, level] = np.vecdot(g[:, :, None, :], partials)
        first = 2 * first + 1
    if np.ndim(seed) == 1:
        return grads[0, n_internal:], weight_grads[0]
    return grads[:, n_internal:], weight_grads


@pytest.mark.parametrize("depth", range(1, 9))
def test_tree_backward_equals_zero_filled_reference(depth):
    rng = np.random.default_rng(depth)
    n_cells = 37
    weights = rng.dirichlet(np.ones(4), 2 ** depth - 1)
    node_values = evaluate_tree_values(weights, rng.random((2 ** depth, n_cells)))
    for seed in (rng.standard_normal(n_cells), rng.standard_normal((2, n_cells))):
        got = tree_backward(weights, node_values, seed)
        want = reference_tree_backward(weights, node_values, seed)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()


def test_tree_backward_matches_fd():
    rng = np.random.default_rng(4)
    depth, n_cells = 2, 12
    n_b, n_p = 2 ** depth - 1, 2 ** depth
    weights = np.vstack([simplex(rng) for _ in range(n_b)])
    leaves = rng.random((n_p, n_cells))
    seed_vec = rng.standard_normal(n_cells)

    def objective(w, lv):
        return float(seed_vec @ evaluate_tree_values(w, lv)[0])

    node_values = evaluate_tree_values(weights, leaves)
    leaf_grads, weight_grads = tree_backward(weights, node_values, seed_vec)

    h = 1e-7
    for i in range(n_p):
        for e in range(0, n_cells, 5):
            lp, lm = leaves.copy(), leaves.copy()
            lp[i, e] += h
            lm[i, e] -= h
            fd = (objective(weights, lp) - objective(weights, lm)) / (2 * h)
            assert leaf_grads[i, e] == pytest.approx(fd, abs=1e-6)
    for k in range(n_b):
        for i in range(4):
            wp, wm = weights.copy(), weights.copy()
            wp[k, i] += h
            wm[k, i] -= h
            fd = (objective(wp, leaves) - objective(wm, leaves)) / (2 * h)
            assert weight_grads[k, i] == pytest.approx(fd, rel=1e-6, abs=1e-6)


# -- snapping and tree validation ---------------------------------------------------

def test_snap_argmax_and_ties():
    rows = np.array([[0.1, 0.6, 0.2, 0.1], [0.25, 0.25, 0.25, 0.25]])
    assert np.array_equal(snap(rows), [one_hot(UNION), one_hot(INTERSECTION)])
    assert np.array_equal(snap(np.eye(4)), np.eye(4))


def test_tree_frozen_validation():
    w = np.tile(one_hot(UNION), (3, 1))
    CsgTree(2, w, frozen={0: UNION})
    with pytest.raises(ValueError):
        CsgTree(2, w, frozen={0: DIFFERENCE})  # weights disagree with the lock
    # the weight rows must lie on the simplex
    with pytest.raises(ValueError):
        CsgTree(1, np.array([[0.5, 0.5, 0.5, -0.5]]))
    with pytest.raises(ValueError):
        CsgTree(1, np.array([[0.5, 0.4, 0.2, 0.1]]))


@pytest.mark.parametrize("row", [[np.nan] * 4, [np.nan, 0.5, 0.5, 0.0]])
def test_tree_rejects_nan_weights(row):
    # snapped() would turn an all-NaN row into an intersection
    with pytest.raises(ValueError):
        CsgTree(1, np.array([row]))


# -- pruning --------------------------------------------------------------------

def test_prune_union_identity():
    a = np.array([0.9, 0.8, 0.0, 0.0])
    empty = np.zeros(4)
    # heap node 1 is the left leaf, primitive 0
    assert prune([UNION], np.vstack([a, empty])) == [(1, -1, -1)]


def test_prune_intersection_annihilates():
    a = np.array([0.9, 0.8, 0.0, 0.0])
    empty = np.zeros(4)
    assert prune([INTERSECTION], np.vstack([a, empty])) == []


@pytest.mark.parametrize("op,left_empty,expect", [
    (UNION, True, "right"), (UNION, False, "left"),
    (INTERSECTION, True, "empty"), (INTERSECTION, False, "empty"),
    (DIFFERENCE, True, "empty"), (DIFFERENCE, False, "left"),
    (NEGATIVE_DIFFERENCE, True, "right"), (NEGATIVE_DIFFERENCE, False, "empty"),
])
def test_prune_rule_table(op, left_empty, expect):
    solid = np.array([0.9, 0.8, 0.7, 0.6])
    empty = np.zeros(4)
    leaves = np.vstack([empty, solid] if left_empty else [solid, empty])
    pruned = prune([op], leaves)
    if expect == "empty":
        assert pruned == []
    else:
        assert pruned == [(2 if expect == "right" else 1, -1, -1)]


def test_prune_no_empty_nodes_is_noop():
    rng = np.random.default_rng(6)
    leaves = rng.uniform(0.3, 1.0, size=(4, 10))
    pruned = prune([UNION, INTERSECTION, UNION], leaves)
    assert pruned == [(0, 1, 2), (1, 3, 4), (3, -1, -1), (4, -1, -1),
                      (2, 5, 6), (5, -1, -1), (6, -1, -1)]


def test_prune_fidelity_with_near_empty_leaves():
    # leaves peaking just under the threshold get dropped; the root field may
    # shift only by a small multiple of the threshold
    rng = np.random.default_rng(8)
    eps = 0.01
    for _ in range(20):
        ops = rng.integers(0, 4, size=3)
        weights = np.vstack([one_hot(int(op)) for op in ops])
        leaves = rng.uniform(0.2, 1.0, size=(4, 30))
        for i in range(4):
            if rng.random() < 0.5:
                leaves[i] = rng.uniform(0.0, 0.5 * eps, size=30)
        full = np.clip(evaluate_tree_values(weights, leaves)[0], 0.0, 1.0)
        reduced = pruned_values(prune(ops, leaves, eps), ops, leaves)
        assert np.abs(full - reduced).max() <= 2 * eps


def _reference_values(node, ops, leaf_values):
    # a node is a leaf's heap index or a (k, left, right) tuple of nodes
    if isinstance(node, int):
        return leaf_values[node - len(ops)]
    k, left, right = node
    return combine(_reference_values(left, ops, leaf_values),
                   _reference_values(right, ops, leaf_values), one_hot(int(ops[k])))


def _reference_prune_pass(node, ops, leaf_values, eps):
    # one sweep of the fixpoint prune, which re-evaluated each kept node's
    # whole subtree from the leaves; None stands for empty
    if isinstance(node, int):
        if float(leaf_values[node - len(ops)].max()) < eps:
            return None, True
        return node, False
    k, left, right = node
    left, changed_l = _reference_prune_pass(left, ops, leaf_values, eps)
    right, changed_r = _reference_prune_pass(right, ops, leaf_values, eps)
    changed = changed_l or changed_r
    op = int(ops[k])
    if left is None and right is None:
        return None, True
    if left is None:
        keep = op in (UNION, NEGATIVE_DIFFERENCE)
        return (right, True) if keep else (None, True)
    if right is None:
        keep = op in (UNION, DIFFERENCE)
        return (left, True) if keep else (None, True)
    node = (k, left, right)
    if float(_reference_values(node, ops, leaf_values).max()) < eps:
        return None, True
    return node, changed


def reference_prune(ops, leaf_values, eps):
    # the full tree, swept until a sweep changes nothing
    def build(k):
        return k if k >= len(ops) else (k, build(2 * k + 1), build(2 * k + 2))

    root = build(0)
    while root is not None:
        root, changed = _reference_prune_pass(root, ops, leaf_values, eps)
        if not changed:
            break
    return root


def preorder(node):
    # the (k, left, right) list of a reference tree, as prune returns it
    if node is None:
        return []
    if isinstance(node, int):
        return [(node, -1, -1)]
    k, left, right = node
    left, right = preorder(left), preorder(right)
    return [(k, left[0][0], right[0][0]), *left, *right]


@pytest.mark.parametrize("depth", range(1, 7))
def test_one_pass_prune_equals_fixpoint_reference(depth):
    # sparse leaves make intersections and differences of non-empty
    # operands come out empty, so every rewrite rule gets exercised
    rng = np.random.default_rng(100 + depth)
    eps, n_cells = 0.01, 12
    n_leaves = 2 ** depth
    outcomes = set()
    for _ in range(60):
        ops = rng.integers(0, 4, size=n_leaves - 1)
        leaves = np.where(rng.random((n_leaves, n_cells)) < 0.4,
                          rng.uniform(0.9, 1.0, (n_leaves, n_cells)), 0.0)
        near_empty = rng.random(n_leaves) < 0.3
        leaves[near_empty] = rng.uniform(0.0, 0.5 * eps, (near_empty.sum(), n_cells))
        got = prune(ops, leaves, eps)
        want = reference_prune(ops, leaves, eps)
        assert got == preorder(want)
        if want is not None:
            assert pruned_values(got, ops, leaves).tobytes() \
                == _reference_values(want, ops, leaves).tobytes()
        outcomes.add("empty" if not got
                     else "pruned" if len(got) < 2 * n_leaves - 1 else "full")
    assert {"empty", "pruned"} <= outcomes


# -- agreement with exact Boolean rasterization --------------------------------------

def test_tree_matches_exact_boolean_oracle():
    grid = Mesh(60, 30, 60.0, 30.0)
    cfg = ProjectionConfig.for_domain(60.0, 30.0)
    rng = np.random.default_rng(12)
    ops = [UNION, DIFFERENCE, UNION]
    polys = [polygon(rng.uniform(10, 50), rng.uniform(5, 25),
                     rng.uniform(0, 2 * math.pi), rng.uniform(6, 15, size=6))
             for _ in range(4)]
    weights = np.vstack([one_hot(op) for op in ops])
    leaves = np.vstack([rasterize_primitive(p, grid, cfg).values for p in polys])
    smooth = evaluate_tree_values(weights, leaves)[0] > 0.5

    pts = cell_centers(grid)
    exact = [halfspace_sdfs(p, pts[:, 0], pts[:, 1]).max(axis=1) < 0 for p in polys]
    bool_ops = {UNION: np.logical_or, INTERSECTION: np.logical_and,
                DIFFERENCE: lambda a, b: a & ~b,
                NEGATIVE_DIFFERENCE: lambda a, b: b & ~a}
    left = bool_ops[ops[1]](exact[0], exact[1])
    right = bool_ops[ops[2]](exact[2], exact[3])
    reference = bool_ops[ops[0]](left, right)

    agreement = np.mean(smooth == reference)
    assert agreement >= 0.98
