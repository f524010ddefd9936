import math
import os

# one BLAS thread, as bench/run.py sets: on a small host the default thread
# pool slows the many small solves down; BLAS reads these when numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hypothesis
import numpy as np
import pytest
from scipy.special import expit

from csgtopo import ProblemSpec, fea
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


def stacked_chain(row, x, y, cfg: ProjectionConfig) -> dict[str, np.ndarray]:
    """The projection chain of one polygon at points x, y, run on the stack
    of its S half-space distances per point: the reference the factored
    projection of geometry is compared to.

    Returns the densities rho, the softmax weights of the sides (a
    trailing S axis), and d_sigmoid and d_threshold, the derivatives of the
    last two stages; the sigmoid is scipy's expit.
    """
    s = cfg.t / cfg.l0
    phi_hat = halfspace_sdfs(row, x, y)
    m = phi_hat.max(axis=-1)
    e = np.exp((phi_hat - m[..., None]) * s)
    z = e.sum(axis=-1)
    rho_tilde = expit(-(cfg.gamma / cfg.l0) * (m + np.log(z) / s))
    th = math.tanh(0.5 * cfg.beta)
    u = np.tanh(cfg.beta * (rho_tilde - 0.5))
    return {"rho": np.clip((th + u) / (2.0 * th), 0.0, 1.0),
            "weights": e / z[..., None],
            "d_sigmoid": -(cfg.gamma / cfg.l0) * rho_tilde * (1.0 - rho_tilde),
            "d_threshold": cfg.beta * (1.0 - u * u) / (2.0 * th)}


def stacked_pullback(row, seed: np.ndarray, x, y, cfg: ProjectionConfig) -> np.ndarray:
    """d(seed . rho)/d(cx, cy, theta, d[0..S-1]) of one polygon at points x,
    y, through the softmax weights of stacked_chain."""
    chain = stacked_chain(row, x, y, cfg)
    c = seed * chain["d_threshold"] * chain["d_sigmoid"]
    ang = row[2] + base_angles(len(row) - 3)
    a = c @ chain["weights"]
    sx = (c * (np.asarray(x, float) - row[0])) @ chain["weights"]
    sy = (c * (np.asarray(y, float) - row[1])) @ chain["weights"]
    return np.concatenate([[-np.cos(ang) @ a, -np.sin(ang) @ a,
                            np.cos(ang) @ sy - np.sin(ang) @ sx], -a])


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


def counting_splu(monkeypatch) -> list:
    """Patch fea.splu to record each factorization; returns the record."""
    calls = []
    original = fea.splu

    def counted(K, layout=None):
        calls.append(K.shape)
        return original(K, layout)

    monkeypatch.setattr(fea, "splu", counted)
    return calls
