import os

# one BLAS thread, as bench/run.py sets: on a small host the default thread
# pool slows the many small solves down; BLAS reads these when numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hypothesis
import numpy as np
import pytest

from csgtopo import ProblemSpec
from csgtopo.csg import combine, one_hot
from csgtopo.fea import Mesh
from csgtopo.geometry import ProjectionConfig

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
