"""Interpolated Boolean operations and the fixed-depth CSG tree over density fields.

Each internal tree node carries a 4-weight simplex vector b; the node output is

    B(rx, ry; b) = (b1+b2)*rx + (b1+b3)*ry + (b0-b1-b2-b3)*rx*ry

which reproduces intersection, union, difference and negative difference at
the one-hot corners and interpolates linearly in between.  The left child is
always the rx operand.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .geometry import DensityField

__all__ = [
    "OPERATOR_NAMES",
    "INTERSECTION",
    "UNION",
    "DIFFERENCE",
    "NEGATIVE_DIFFERENCE",
    "BooleanWeights",
    "CsgTree",
    "PrunedNode",
    "PrunedTree",
    "one_hot",
    "softmax_encode",
    "combine",
    "combine_grad_operand",
    "combine_grad_weights",
    "evaluate_tree",
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


def operator_index(name: str) -> int:
    try:
        return OPERATOR_NAMES.index(name)
    except ValueError:
        raise ValueError(
            f"unknown operator {name!r}; valid: {', '.join(OPERATOR_NAMES)}") from None


@dataclass(frozen=True, eq=False)
class BooleanWeights:
    """Simplex-constrained operator weights (b0, b1, b2, b3)."""

    b0: float
    b1: float
    b2: float
    b3: float

    def __post_init__(self):
        b = self.as_array()
        if (b < -_SIMPLEX_TOL).any() or (b > 1.0 + _SIMPLEX_TOL).any():
            raise ValueError("weights must lie in [0, 1]")
        if abs(float(b.sum()) - 1.0) > _SIMPLEX_TOL:
            raise ValueError(f"weights must sum to 1, got {b.sum()!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.b0, self.b1, self.b2, self.b3], dtype=float)

    @classmethod
    def from_array(cls, b) -> "BooleanWeights":
        b = np.asarray(b, dtype=float).ravel()
        if b.size != 4:
            raise ValueError(f"expected 4 weights, got {b.size}")
        return cls(*b)

    @classmethod
    def for_operator(cls, operator: int) -> "BooleanWeights":
        return cls.from_array(one_hot(operator))


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


def _weights_array(b) -> np.ndarray:
    if isinstance(b, BooleanWeights):
        return b.as_array()
    return np.asarray(b, dtype=float)


def combine(rx, ry, b):
    """Interpolated Boolean operation applied element-wise to two densities."""
    b = _weights_array(b)
    rx = np.asarray(rx, dtype=float)
    ry = np.asarray(ry, dtype=float)
    return (b[1] + b[2]) * rx + (b[1] + b[3]) * ry \
        + (b[0] - b[1] - b[2] - b[3]) * rx * ry


def combine_grad_operand(rx, ry, b):
    """Partial derivatives of combine with respect to rx and ry."""
    b = _weights_array(b)
    rx = np.asarray(rx, dtype=float)
    ry = np.asarray(ry, dtype=float)
    cross = b[0] - b[1] - b[2] - b[3]
    return (b[1] + b[2]) + cross * ry, (b[1] + b[3]) + cross * rx


def combine_grad_weights(rx, ry) -> np.ndarray:
    """Partials of combine with respect to (b0, b1, b2, b3), on a trailing axis."""
    rx = np.asarray(rx, dtype=float)
    ry = np.asarray(ry, dtype=float)
    prod = rx * ry
    return np.stack([prod, rx + ry - prod, rx - prod, ry - prod], axis=-1)


def snap_to_onehot(b) -> np.ndarray:
    """One-hot at the largest weight; ties go to the lowest operator index."""
    b = _weights_array(b).ravel()
    if b.size != 4:
        raise ValueError(f"expected 4 weights, got {b.size}")
    return one_hot(int(np.argmax(b)))


@dataclass(eq=False)
class CsgTree:
    """Perfect binary tree: primitives at the leaves, operator weights inside.

    Heap indexing from the root at 0: node k has children 2k+1 (left, the rx
    operand) and 2k+2 (right).  Internal nodes occupy indices 0..2^depth-2;
    leaf k maps to primitive leaves[k - n_internal].  Frozen nodes are locked
    to a one-hot operator the optimizer must not touch.
    """

    depth: int
    weights: np.ndarray                 # (n_internal, 4)
    frozen: dict[int, int] = field(default_factory=dict)
    leaves: np.ndarray | None = None    # (n_leaves,) primitive indices

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"tree depth must be >= 1, got {self.depth}")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.n_internal, 4):
            raise ValueError(
                f"expected weights of shape ({self.n_internal}, 4), got {w.shape}")
        if (w < -_SIMPLEX_TOL).any() or (w > 1.0 + _SIMPLEX_TOL).any() \
                or (np.abs(w.sum(axis=1) - 1.0) > _SIMPLEX_TOL).any():
            raise ValueError("every weight row must lie on the simplex")
        for node, op in self.frozen.items():
            if not 0 <= node < self.n_internal:
                raise ValueError(f"frozen node {node} out of range")
            if not np.array_equal(w[node], one_hot(op)):
                raise ValueError(f"frozen node {node} must carry one-hot operator {op}")
        self.weights = w
        if self.leaves is None:
            self.leaves = np.arange(self.n_leaves)
        else:
            leaves = np.asarray(self.leaves, dtype=int)
            if leaves.shape != (self.n_leaves,):
                raise ValueError(f"expected {self.n_leaves} leaves, got {leaves.shape}")
            self.leaves = leaves

    @property
    def n_internal(self) -> int:
        return 2 ** self.depth - 1

    @property
    def n_leaves(self) -> int:
        return 2 ** self.depth

    @property
    def n_nodes(self) -> int:
        return 2 ** (self.depth + 1) - 1

    @staticmethod
    def children(k: int) -> tuple[int, int]:
        return 2 * k + 1, 2 * k + 2

    def is_leaf(self, k: int) -> bool:
        return k >= self.n_internal

    def leaf_primitive(self, k: int) -> int:
        return int(self.leaves[k - self.n_internal])

    def operator_name(self, k: int) -> str:
        return OPERATOR_NAMES[int(np.argmax(self.weights[k]))]

    @classmethod
    def uniform(cls, depth: int, frozen: dict[int, int] | None = None) -> "CsgTree":
        frozen = dict(frozen or {})
        w = np.full((2 ** depth - 1, 4), 0.25)
        for node, op in frozen.items():
            w[node] = one_hot(op)
        return cls(depth, w, frozen)

    def snapped(self) -> "CsgTree":
        """Every node snapped to its one-hot operator."""
        w = np.vstack([snap_to_onehot(row) for row in self.weights])
        return CsgTree(self.depth, w, dict(self.frozen), self.leaves.copy())


def evaluate_tree_values(weights: np.ndarray, leaf_values: np.ndarray) -> np.ndarray:
    """Bottom-up evaluation on raw arrays; returns all node fields.

    leaf_values has shape (n_leaves, n_cells) in leaf order; the result has
    one row per heap node, the root in row 0.  Each tree level is combined
    in one step, deepest first, with the child layout tree_backward uses.
    """
    n_internal = weights.shape[0]
    n_leaves, n_cells = leaf_values.shape
    if n_leaves != n_internal + 1 or n_leaves & n_internal:
        raise ValueError(
            f"{n_leaves} leaf fields do not fit a tree with {n_internal} operators")
    values = np.empty((n_internal + n_leaves, n_cells))
    values[n_internal:] = leaf_values
    first = (n_internal - 1) // 2
    while first >= 0:
        level = slice(first, 2 * first + 1)
        left = slice(2 * first + 1, 4 * first + 2, 2)
        right = slice(2 * first + 2, 4 * first + 3, 2)
        # weights as (4, n_level, 1) so each node's b broadcasts over its cells
        values[level] = combine(values[left], values[right], weights[level].T[..., None])
        first = (first - 1) // 2
    return values


def evaluate_tree(tree: CsgTree, leaf_fields) -> DensityField:
    """Evaluate the tree over DensityField leaves and return the root field."""
    if len(leaf_fields) != tree.n_leaves:
        raise ValueError(
            f"tree with depth {tree.depth} needs {tree.n_leaves} leaf fields, "
            f"got {len(leaf_fields)}")
    grid = leaf_fields[0].grid
    for f in leaf_fields[1:]:
        if not grid.matches(f.grid):
            raise ValueError("leaf fields sampled on mismatched grids")
    stacked = np.vstack([leaf_fields[tree.leaf_primitive(tree.n_internal + i)].values
                         for i in range(tree.n_leaves)])
    values = evaluate_tree_values(tree.weights, stacked)
    return DensityField(np.clip(values[0], 0.0, 1.0), grid)


def tree_backward(weights: np.ndarray, node_values: np.ndarray,
                  seed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pull a root-field sensitivity down to the leaves and the weights.

    Returns (leaf_seeds, weight_grads): leaf_seeds[i] is the sensitivity of
    the objective to leaf field i, weight_grads[k] its gradient in node k's
    four weights.  A stacked (m, n_cells) seed pulls back m objectives in
    one walk; both results then gain a leading axis of length m.  The walk
    handles one tree level at a time: the nodes first..2*first of a level
    have their left children at the odd and their right children at the
    even rows of 2*first+1..4*first+2.  Every child has exactly one parent,
    so only the current level's seeds g are kept: the children's seeds are
    written once, as g * d_rx and g * d_ry, into a fresh (m, n_level, 2,
    n_cells) block whose rows are the next level in heap order.  Each seed
    is one product and each weight gradient one dot of g with a vector of
    combine_grad_weights, so the results are bit for bit those of a walk
    that sums into a zeroed array of all nodes.
    """
    seed = np.asarray(seed, dtype=float)
    seeds = np.atleast_2d(seed)
    m, n_cells = seeds.shape
    n_internal = weights.shape[0]
    weight_grads = np.empty((m, n_internal, 4))
    g = seeds[:, None]
    first = 0
    while first < n_internal:
        level = slice(first, 2 * first + 1)
        left = slice(2 * first + 1, 4 * first + 2, 2)
        right = slice(2 * first + 2, 4 * first + 3, 2)
        rx, ry = node_values[left], node_values[right]
        # weights as (4, n_level, 1) so each node's b broadcasts over its cells
        d_rx, d_ry = combine_grad_operand(rx, ry, weights[level].T[..., None])
        # one dot per (objective, node, weight), the same sum as a 1-D g @ partial
        prod = rx * ry
        for k, partial in enumerate((prod, rx + ry - prod, rx - prod, ry - prod)):
            weight_grads[:, level, k] = np.vecdot(g, partial)
        children = np.empty((m, first + 1, 2, n_cells))
        np.multiply(g, d_rx, out=children[:, :, 0])
        np.multiply(g, d_ry, out=children[:, :, 1])
        g = children.reshape(m, 2 * first + 2, n_cells)
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


def _prune_pass(node: PrunedNode, leaf_values: np.ndarray,
                eps: float) -> tuple[PrunedNode | None, bool]:
    """One bottom-up sweep of the rewrite rules; None stands for empty."""
    if node.is_leaf:
        if float(leaf_values[node.primitive].max()) < eps:
            return None, True
        return node, False
    left, changed_l = _prune_pass(node.left, leaf_values, eps)
    right, changed_r = _prune_pass(node.right, leaf_values, eps)
    changed = changed_l or changed_r
    op = node.operator
    if left is None and right is None:
        return None, True
    if left is None:
        # empty OP y: union/negative-difference keep y, the rest are empty
        keep = op in (UNION, NEGATIVE_DIFFERENCE)
        return (right, True) if keep else (None, True)
    if right is None:
        # x OP empty: union/difference keep x, the rest are empty
        keep = op in (UNION, DIFFERENCE)
        return (left, True) if keep else (None, True)
    node.left, node.right = left, right
    if float(_pruned_values(node, leaf_values).max()) < eps:
        return None, True
    return node, changed


def prune(tree: CsgTree, leaf_fields, eps_empty: float = 0.01) -> PrunedTree:
    """Drop empty nodes from a snapped tree.

    A node is empty when its evaluated field peaks below eps_empty; the
    rewrite rules are applied bottom-up and repeated until no empty node
    remains, so every surviving node carries a non-empty field.  Requires
    one-hot weights.
    """
    for k in range(tree.n_internal):
        if not np.array_equal(tree.weights[k], one_hot(int(np.argmax(tree.weights[k])))):
            raise ValueError("prune requires a snapped (one-hot) tree")
    if hasattr(leaf_fields[0], "values"):
        leaf_values = np.vstack([f.values for f in leaf_fields])
    else:
        leaf_values = np.asarray(leaf_fields, dtype=float)

    def build(k: int) -> PrunedNode:
        if tree.is_leaf(k):
            return PrunedNode(primitive=tree.leaf_primitive(k))
        return PrunedNode(operator=int(np.argmax(tree.weights[k])),
                          left=build(2 * k + 1), right=build(2 * k + 2))

    root: PrunedNode | None = build(0)
    while root is not None:
        root, changed = _prune_pass(root, leaf_values, eps_empty)
        if not changed:
            break
    if root is None:
        log.warning("pruning removed every node: the design is empty")
    return PrunedTree(root)
