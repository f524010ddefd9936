"""Interpolated Boolean operations and the fixed-depth CSG tree over density fields.

Each internal tree node carries a 4-weight simplex vector b; the node output is

    B(rx, ry; b) = (b1+b2)*rx + (b1+b3)*ry + (b0-b1-b2-b3)*rx*ry

which reproduces intersection, union, difference and negative difference at
the one-hot corners and interpolates linearly in between.  The left child is
always the rx operand.

The tree lives in heap-ordered arrays: an (n_internal, 4) weight array and
an (n_leaves, n_cells) array of leaf fields, leaf i holding primitive i.
evaluate_tree_values and tree_backward walk them a level at a time; prune
turns a snapped tree into linked PrunedNodes with the empty nodes removed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OPERATOR_NAMES",
    "INTERSECTION",
    "UNION",
    "DIFFERENCE",
    "NEGATIVE_DIFFERENCE",
    "CsgTree",
    "PrunedNode",
    "PrunedTree",
    "one_hot",
    "softmax_encode",
    "combine",
    "combine_grad_operand",
    "combine_grad_weights",
    "walk_scratch",
    "evaluate_tree_values",
    "tree_backward",
    "snap_to_onehot",
    "prune",
]

log = logging.getLogger(__name__)

OPERATOR_NAMES = ("intersection", "union", "difference", "negative_difference")
INTERSECTION, UNION, DIFFERENCE, NEGATIVE_DIFFERENCE = range(4)

_SIMPLEX_TOL = 1e-12


def one_hot(operator: int) -> np.ndarray:
    if operator not in range(4):
        raise ValueError(f"operator index must be 0..3, got {operator}")
    b = np.zeros(4)
    b[operator] = 1.0
    return b


def softmax_encode(zb, scale: float = 4.0) -> np.ndarray:
    """Map 4 normalized values to simplex weights through a scaled softmax.

    zb is (..., 4), one node per row.  The output is renormalized so it sums
    to one exactly.
    """
    if not scale > 0:
        raise ValueError(f"softmax scale must be positive, got {scale}")
    zb = np.asarray(zb, dtype=float)
    if zb.shape[-1:] != (4,):
        raise ValueError(f"expected 4 values per node, got shape {zb.shape}")
    e = np.exp(scale * (zb - zb.max(axis=-1, keepdims=True)))
    return e / e.sum(axis=-1, keepdims=True)


def combine(rx, ry, b):
    """Interpolated Boolean operation applied element-wise to two densities."""
    b = np.asarray(b, dtype=float)
    rx = np.asarray(rx, dtype=float)
    ry = np.asarray(ry, dtype=float)
    return (b[1] + b[2]) * rx + (b[1] + b[3]) * ry \
        + (b[0] - b[1] - b[2] - b[3]) * rx * ry


def combine_grad_operand(rx, ry, b):
    """Partial derivatives of combine with respect to rx and ry."""
    b = np.asarray(b, dtype=float)
    rx = np.asarray(rx, dtype=float)
    ry = np.asarray(ry, dtype=float)
    cross = b[0] - b[1] - b[2] - b[3]
    return (b[1] + b[2]) + cross * ry, (b[1] + b[3]) + cross * rx


def combine_grad_weights(rx, ry) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Partials of combine with respect to b0, b1, b2 and b3, in that order."""
    rx = np.asarray(rx, dtype=float)
    ry = np.asarray(ry, dtype=float)
    prod = rx * ry
    return prod, rx + ry - prod, rx - prod, ry - prod


def snap_to_onehot(b) -> np.ndarray:
    """One-hot at the largest weight; ties go to the lowest operator index."""
    b = np.asarray(b, dtype=float).ravel()
    if b.size != 4:
        raise ValueError(f"expected 4 weights, got {b.size}")
    return one_hot(int(np.argmax(b)))


@dataclass(eq=False)
class CsgTree:
    """Perfect binary tree: primitives at the leaves, operator weights inside.

    Heap indexing from the root at 0: node k has children 2k+1 (left, the rx
    operand) and 2k+2 (right).  Internal nodes occupy indices 0..2^depth-2;
    leaf k holds primitive k - n_internal.  Frozen nodes are locked to a
    one-hot operator the optimizer must not touch.
    """

    depth: int
    weights: np.ndarray                 # (n_internal, 4)
    frozen: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"tree depth must be >= 1, got {self.depth}")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.n_internal, 4):
            raise ValueError(
                f"expected weights of shape ({self.n_internal}, 4), got {w.shape}")
        # written so that any comparison with NaN fails the check
        if not ((w >= -_SIMPLEX_TOL).all() and (w <= 1.0 + _SIMPLEX_TOL).all()
                and (np.abs(w.sum(axis=1) - 1.0) <= _SIMPLEX_TOL).all()):
            raise ValueError("every weight row must lie on the simplex")
        for node, op in self.frozen.items():
            if not 0 <= node < self.n_internal:
                raise ValueError(f"frozen node {node} out of range")
            if not np.array_equal(w[node], one_hot(op)):
                raise ValueError(f"frozen node {node} must carry one-hot operator {op}")
        self.weights = w

    @property
    def n_internal(self) -> int:
        return 2 ** self.depth - 1

    def operator_name(self, k: int) -> str:
        return OPERATOR_NAMES[int(np.argmax(self.weights[k]))]

    def snapped(self) -> "CsgTree":
        """Every node snapped to its one-hot operator."""
        w = np.vstack([snap_to_onehot(row) for row in self.weights])
        return CsgTree(self.depth, w, dict(self.frozen))


def walk_scratch(n_leaves: int, n_cells: int, n_seeds: int = 1) -> np.ndarray:
    """Flat scratch for evaluate_tree_values and tree_backward on a tree of
    n_leaves leaf fields of n_cells values, pulling back n_seeds seeds.

    It holds two arrays of the deepest operator level and two blocks of
    children's seeds: (2 + 3 n_seeds) * (n_leaves // 2) * n_cells doubles.
    """
    return np.empty((2 + 3 * n_seeds) * (n_leaves // 2) * n_cells)


def _rows(flat: np.ndarray, n_rows: int, n_cells: int) -> np.ndarray:
    """The first n_rows rows of n_cells values of a flat array: contiguous,
    laid out as a fresh (n_rows, n_cells) array."""
    return flat[:n_rows * n_cells].reshape(n_rows, n_cells, copy=False)


def evaluate_tree_values(weights: np.ndarray, leaf_values: np.ndarray,
                         out: np.ndarray | None = None,
                         scratch: np.ndarray | None = None) -> np.ndarray:
    """Bottom-up evaluation on raw arrays; returns all node fields.

    leaf_values has shape (n_leaves, n_cells) in leaf order; the result has
    one row per heap node, the root in row 0.  Each tree level is combined
    in one step, deepest first, with the child layout tree_backward uses:
    combine's terms in combine's order, each written into an array given
    in advance.  out, an (n_nodes, n_cells) array whose leaf rows may
    already be leaf_values, receives the node fields in place of a fresh
    array; scratch, a flat array of at least n_leaves // 2 * n_cells
    doubles (walk_scratch's will do), is allocated when omitted.
    """
    n_internal = weights.shape[0]
    n_leaves, n_cells = leaf_values.shape
    if n_leaves != n_internal + 1 or n_leaves & n_internal:
        raise ValueError(
            f"{n_leaves} leaf fields do not fit a tree with {n_internal} operators")
    values = np.empty((n_internal + n_leaves, n_cells)) if out is None else out
    values[n_internal:] = leaf_values   # a no-op when they are out's leaf rows
    if scratch is None:
        scratch = np.empty(n_leaves // 2 * n_cells)
    first = (n_internal - 1) // 2
    while first >= 0:
        level = slice(first, 2 * first + 1)
        left = slice(2 * first + 1, 4 * first + 2, 2)
        right = slice(2 * first + 2, 4 * first + 3, 2)
        rx, ry = values[left], values[right]
        # weights as (4, n_level, 1) so each node's b broadcasts over its cells
        b = weights[level].T[..., None]
        node, term = values[level], _rows(scratch, first + 1, n_cells)
        np.multiply(b[1] + b[2], rx, out=node)
        np.multiply(b[1] + b[3], ry, out=term)
        node += term
        np.multiply(b[0] - b[1] - b[2] - b[3], rx, out=term)
        term *= ry
        node += term
        first = (first - 1) // 2
    return values


def tree_backward(weights: np.ndarray, node_values: np.ndarray, seed: np.ndarray,
                  scratch: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Pull a root-field sensitivity down to the leaves and the weights.

    Returns (leaf_seeds, weight_grads): leaf_seeds[i] is the sensitivity of
    the objective to leaf field i, weight_grads[k] its gradient in node k's
    four weights.  A stacked (m, n_cells) seed pulls back m objectives in
    one walk; both results then gain a leading axis of length m.  The walk
    handles one tree level at a time: the nodes first..2*first of a level
    have their left children at the odd and their right children at the
    even rows of 2*first+1..4*first+2.  Every child has exactly one parent,
    so only the current level's seeds g are kept: the children's seeds are
    written once, as g * d_rx and g * d_ry, into an (m, n_level, 2,
    n_cells) block whose rows are the next level in heap order.  Each seed
    is one product and each weight gradient one dot of g with a partial of
    combine_grad_weights, and the operand partials are those of
    combine_grad_operand, each computed term by term into scratch (that
    of walk_scratch, allocated when omitted).  So the results are bit for
    bit those of a walk that sums into a zeroed array of all nodes.  The
    leaf seeds returned are a view of scratch.
    """
    seed = np.asarray(seed, dtype=float)
    seeds = np.atleast_2d(seed)
    m, n_cells = seeds.shape
    n_internal = weights.shape[0]
    half = (n_internal + 1) // 2
    if scratch is None:
        scratch = walk_scratch(n_internal + 1, n_cells, m)
    level_rows = scratch[:2 * half * n_cells].reshape(2, -1)
    # the children's seeds of successive levels alternate between two
    # blocks of m * 2 * half and m * half rows, so that the leaves' (the
    # last of the depth levels) fill the first
    blocks = (scratch[2 * half * n_cells:], scratch[(2 + 2 * m) * half * n_cells:])
    depth = n_internal.bit_length()
    which = (depth - 1) % 2
    weight_grads = np.empty((m, n_internal, 4))
    g = seeds[:, None]
    first = 0
    while first < n_internal:
        n_level = first + 1
        level = slice(first, 2 * first + 1)
        left = slice(2 * first + 1, 4 * first + 2, 2)
        right = slice(2 * first + 2, 4 * first + 3, 2)
        rx, ry = node_values[left], node_values[right]
        prod, partial = (_rows(row, n_level, n_cells) for row in level_rows)
        # the four partials of combine_grad_weights, one dot per
        # (objective, node, weight): the same sum as a 1-D g @ partial
        np.multiply(rx, ry, out=prod)
        weight_grads[:, level, 0] = np.vecdot(g, prod)
        np.add(rx, ry, out=partial)
        partial -= prod
        weight_grads[:, level, 1] = np.vecdot(g, partial)
        np.subtract(rx, prod, out=partial)
        weight_grads[:, level, 2] = np.vecdot(g, partial)
        np.subtract(ry, prod, out=partial)
        weight_grads[:, level, 3] = np.vecdot(g, partial)
        d_rx, d_ry = prod, partial      # the weight partials are spent
        # weights as (4, n_level, 1) so each node's b broadcasts over its cells
        b = weights[level].T[..., None]
        cross = b[0] - b[1] - b[2] - b[3]
        np.multiply(cross, ry, out=d_rx)
        d_rx += b[1] + b[2]
        np.multiply(cross, rx, out=d_ry)
        d_ry += b[1] + b[3]
        children = blocks[which][:m * 2 * n_level * n_cells].reshape(
            m, n_level, 2, n_cells, copy=False)
        np.multiply(g, d_rx, out=children[:, :, 0])
        np.multiply(g, d_ry, out=children[:, :, 1])
        g = children.reshape(m, 2 * n_level, n_cells, copy=False)
        which ^= 1
        first = 2 * first + 1
    if seed.ndim == 1:
        return g[0], weight_grads[0]
    return g, weight_grads


@dataclass(eq=False)
class PrunedNode:
    """Node of a pruned, possibly non-perfect tree."""

    operator: int | None = None          # set for internal nodes
    primitive: int | None = None         # set for leaves
    left: "PrunedNode | None" = None
    right: "PrunedNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.primitive is not None


@dataclass(eq=False)
class PrunedTree:
    """Result of pruning; root is None when the whole design is empty."""

    root: PrunedNode | None

    @property
    def is_empty(self) -> bool:
        return self.root is None

    def nodes(self) -> list[PrunedNode]:
        """Preorder node list."""
        out: list[PrunedNode] = []
        stack = [self.root] if self.root is not None else []
        while stack:
            node = stack.pop()
            out.append(node)
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)
        return out


def _pruned_values(node: PrunedNode, leaf_values: np.ndarray) -> np.ndarray:
    if node.is_leaf:
        return leaf_values[node.primitive]
    vx = _pruned_values(node.left, leaf_values)
    vy = _pruned_values(node.right, leaf_values)
    return combine(vx, vy, one_hot(node.operator))


def evaluate_pruned_values(tree: PrunedTree, leaf_values: np.ndarray) -> np.ndarray:
    """Root field of a pruned tree; an empty tree evaluates to zero."""
    if tree.is_empty:
        return np.zeros(leaf_values.shape[1])
    return _pruned_values(tree.root, leaf_values)


def _prune_subtree(k: int, ops: np.ndarray, leaf_values: np.ndarray,
                   eps: float) -> tuple[PrunedNode, np.ndarray] | None:
    """The pruned subtree at heap node k and its field; None when empty."""
    n_internal = len(ops)
    if k >= n_internal:
        values = leaf_values[k - n_internal]
        if float(values.max()) < eps:
            return None
        return PrunedNode(primitive=k - n_internal), values
    left = _prune_subtree(2 * k + 1, ops, leaf_values, eps)
    right = _prune_subtree(2 * k + 2, ops, leaf_values, eps)
    op = int(ops[k])
    if left is None or right is None:
        # x OP empty keeps x under union and difference, empty OP y keeps
        # y under union and negative difference; the rest are empty
        if left is not None and op in (UNION, DIFFERENCE):
            return left
        if right is not None and op in (UNION, NEGATIVE_DIFFERENCE):
            return right
        return None
    values = combine(left[1], right[1], one_hot(op))
    if float(values.max()) < eps:
        return None
    return PrunedNode(operator=op, left=left[0], right=right[0]), values


def prune(tree: CsgTree, leaf_values: np.ndarray, eps_empty: float = 0.01) -> PrunedTree:
    """Drop empty nodes from a snapped tree.

    leaf_values is the (n_leaves, n_cells) array of leaf fields.  A node is
    empty when its field peaks below eps_empty.  One bottom-up pass returns
    each surviving subtree with its field: an empty leaf drops out, an
    operand found empty is resolved by the rewrite rules, and a node with
    two surviving operands is kept unless the combination of their fields
    is empty.  So every surviving node carries a non-empty field.  Requires
    one-hot weights.
    """
    ops = np.argmax(tree.weights, axis=1)
    if not np.array_equal(tree.weights, np.eye(4)[ops]):
        raise ValueError("prune requires a snapped (one-hot) tree")
    kept = _prune_subtree(0, ops, np.asarray(leaf_values, dtype=float), eps_empty)
    if kept is None:
        log.warning("pruning removed every node: the design is empty")
        return PrunedTree(None)
    return PrunedTree(kept[0])
