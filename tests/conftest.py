import math
import os

# one BLAS thread, as bench/run.py sets: on a small host the default thread
# pool slows the many small solves down; BLAS reads these when numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hypothesis
import numpy as np
import pytest

from csgtopo import ProblemSpec
from csgtopo.csg import combine, one_hot, tree_backward
from csgtopo.fea import Mesh
from csgtopo.geometry import ProjectionConfig, base_angles

hypothesis.settings.register_profile("ci", max_examples=60, deadline=None)
hypothesis.settings.load_profile("ci")


@pytest.fixture
def default_cfg():
    return ProjectionConfig.for_domain(60.0, 30.0)


@pytest.fixture
def default_grid():
    return Mesh(60, 30, 60.0, 30.0)


def cell_centers(mesh: Mesh) -> np.ndarray:
    """(n_elements, 2) element centres in element order, e = j*nx + i at
    ((i+0.5)*ax, (j+0.5)*ay): the points the projection samples."""
    xx, yy = np.meshgrid(mesh.xs, mesh.ys)
    return np.column_stack([xx.ravel(), yy.ravel()])


def polygon(cx, cy, theta, d) -> np.ndarray:
    """The parameter row cx, cy, theta, d[0..S-1] of one polygon."""
    return np.concatenate([(cx, cy, theta), d])


def halfspace_sdf(row, j: int, x, y):
    """Signed distance to half-space j (0-based) of the polygon of parameter
    row cx, cy, theta, d[0..S-1]; negative inside."""
    a = row[2] + 2.0 * math.pi * j / (len(row) - 3)
    return (np.asarray(x, float) - row[0]) * math.cos(a) \
        + (np.asarray(y, float) - row[1]) * math.sin(a) - row[3 + j]


def halfspace_sdfs(row, x, y) -> np.ndarray:
    """All S half-space signed distances of row, stacked on a trailing axis."""
    ang = row[2] + base_angles(len(row) - 3)
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    return ((x - row[0])[..., None] * np.cos(ang)
            + (y - row[1])[..., None] * np.sin(ang) - row[3:])


def node_partials(rx: float, ry: float, b) -> tuple[float, float, np.ndarray]:
    """dB/drx, dB/dry and the four dB/db of one operator node at operands
    rx, ry: the partials tree_backward pulls a unit seed through on a
    depth-1 tree of one cell."""
    (d_rx, d_ry), d_b = tree_backward(np.asarray(b, float)[None],
                                      np.array([[0.0], [rx], [ry]]), np.ones(1))
    return float(d_rx[0]), float(d_ry[0]), d_b[0]


@pytest.fixture
def small_spec():
    """12x6 instance used across gradient and optimization smoke tests."""
    return ProblemSpec(nx=12, ny=6, tree_depth=2, sides=4)


def connected_design(spec: ProblemSpec) -> np.ndarray:
    """Deterministic design whose material joins the mbb load and support.

    Four near-axis-aligned squares chain across the band with every face
    close to live cells, so compliance is moderate and every design entry
    carries a measurable gradient.  Sized for tree_depth=2, sides=4.
    """
    assert spec.tree_depth == 2 and spec.sides == 4
    z = np.zeros(spec.design_size)
    z[0:4] = [0.111, 0.407, 0.685, 0.907]
    z[4:8] = [0.722, 0.500, 0.352, 0.222]
    z[8:12] = [0.03, 0.06, 0.04, 0.08]
    z[12:28] = np.array([
        [0.667, 0.567, 0.533, 0.600],
        [0.667, 0.600, 0.633, 0.567],
        [0.633, 0.533, 0.667, 0.567],
        [0.500, 0.533, 0.600, 0.433],
    ]).ravel()
    z[28:40] = [0.35, 0.75, 0.5, 0.4, 0.3, 0.8, 0.45, 0.5, 0.45, 0.7, 0.55, 0.35]
    return z


def pruned_values(pruned: list, ops, leaf_values: np.ndarray,
                  k: int | None = None) -> np.ndarray:
    """Field of heap node k of a csg.prune list (its first node, the root,
    when k is omitted), combined from the leaf fields through the kept
    nodes alone; an empty list evaluates to zero."""
    if not pruned:
        return np.zeros(leaf_values.shape[1])
    children = {node: (left, right) for node, left, right in pruned}
    n_internal = len(ops)

    def value(node):
        left, right = children[node]
        if left < 0:
            return leaf_values[node - n_internal]
        return combine(value(left), value(right), one_hot(int(ops[node])))

    return value(pruned[0][0] if k is None else k)
