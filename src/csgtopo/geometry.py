"""Convex-polygon primitives and their projection onto grid density fields.

A primitive is the intersection of S >= 3 half-spaces arranged around a
reference point.  Mapping a primitive to a density field runs the smooth
chain

    half-space signed distances -> LogSumExp max -> sigmoid -> threshold

so the resulting field is differentiable in every polygon parameter.
Signed distances are negative inside a shape.

rasterize_with_tape runs the chain for all n_p primitives in one call on a
sides-first (n_p, S, n_cells) array and keeps one batched ProjectionTape;
projection_param_grad pulls per-cell sensitivities of every primitive (and
of several objectives stacked on leading axes) back through that tape.  The
input is one parameter row cx, cy, theta, d[0..S-1] per primitive, an
(n_p, 3 + S) array; PolygonParams.row is that row of one polygon.
Sides-first, every step runs along contiguous rows of n_cells values rather
than reducing a short trailing axis per cell, and the sides are summed left
to right, as numpy sums a trailing axis of up to 7 entries, so the fields
equal those of a cells-first layout.

Both functions walk the primitives in blocks of about _BLOCK_DOUBLES values
of the (n_p, S, n_cells) stack, so a block's intermediates stay in cache
between the steps of the chain instead of each step streaming the whole
stack through memory.  No step mixes primitives: every value gets the same
operations in the same order as in a one-primitive call, so the results do
not depend on where the block edges fall.  polygon_sdf, project_density,
threshold and threshold_derivative are the single-stage forms of the same
formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import expit

__all__ = [
    "PolygonParams",
    "ProjectionConfig",
    "SampleGrid",
    "DensityField",
    "ProjectionTape",
    "base_angles",
    "halfspace_sdf",
    "halfspace_sdfs",
    "polygon_sdf",
    "project_density",
    "threshold",
    "threshold_derivative",
    "rasterize_primitive",
    "rasterize_with_tape",
    "projection_param_grad",
]

_RANGE_TOL = 1e-9
# values of the (n_p, S, n_cells) stack one block of primitives spans in the
# projection and its pullback (512 KiB), so a block's intermediates stay in
# cache from one step of the chain to the next
_BLOCK_DOUBLES = 2 ** 16


def base_angles(sides: int) -> np.ndarray:
    """Half-space normal directions before rotation: 2*pi*j/S for j = 0..S-1."""
    if sides < 3:
        raise ValueError(f"a polygon needs at least 3 half-spaces, got {sides}")
    return (2.0 * math.pi / sides) * np.arange(sides, dtype=float)


@dataclass(frozen=True, eq=False)
class PolygonParams:
    """One polygon: reference point (cx, cy), rotation theta, offsets d.

    The polygon is the set where all S half-space signed distances are
    negative; offset d[j] is the distance from the reference point to
    half-space j along its (rotated) normal.
    """

    cx: float
    cy: float
    theta: float
    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float).ravel()
        if d.size < 3:
            raise ValueError(f"a polygon needs at least 3 offsets, got {d.size}")
        object.__setattr__(self, "d", d)

    @property
    def sides(self) -> int:
        return self.d.size

    @property
    def angles(self) -> np.ndarray:
        """Final half-space normal angles theta + 2*pi*j/S."""
        return self.theta + base_angles(self.sides)

    @property
    def row(self) -> np.ndarray:
        """Parameter row cx, cy, theta, d[0..S-1], as rasterize_with_tape reads it."""
        return np.concatenate([(self.cx, self.cy, self.theta), self.d])


@dataclass(frozen=True)
class ProjectionConfig:
    """Shared projection constants.

    l0 is the diagonal length of the domain bounding box; gamma and t are
    expressed per unit of l0 so the projection is scale free.  beta is the
    threshold-filter sharpness.
    """

    l0: float
    gamma: float = 100.0
    beta: float = 8.0
    t: float = 100.0

    def __post_init__(self):
        for name in ("l0", "gamma", "beta", "t"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")

    @classmethod
    def for_domain(cls, lx: float, ly: float, *, gamma: float = 100.0,
                   beta: float = 8.0, t: float = 100.0) -> "ProjectionConfig":
        return cls(l0=math.hypot(lx, ly), gamma=gamma, beta=beta, t=t)


@dataclass(eq=False)
class SampleGrid:
    """Element-center sample points of an nx-by-ny structured grid.

    Point e = j*nx + i sits at ((i+0.5)*lx/nx, (j+0.5)*ly/ny); x varies
    fastest (row-major with one row per j).
    """

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid needs at least one cell per direction")
        if not (self.lx > 0 and self.ly > 0):
            raise ValueError("grid lengths must be positive")

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @cached_property
    def xs(self) -> np.ndarray:
        """x of the nx columns of cells; point e = j*nx + i has x = xs[i]."""
        return (np.arange(self.nx) + 0.5) * self.dx

    @cached_property
    def ys(self) -> np.ndarray:
        """y of the ny rows of cells; point e = j*nx + i has y = ys[j]."""
        return (np.arange(self.ny) + 0.5) * self.dy

    @cached_property
    def points(self) -> np.ndarray:
        xx, yy = np.meshgrid(self.xs, self.ys)
        return np.column_stack([xx.ravel(), yy.ravel()])


@dataclass(eq=False)
class DensityField:
    """Per-cell densities in [0, 1] sampled on a grid."""

    values: np.ndarray
    grid: SampleGrid

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).ravel()
        if values.size != self.grid.n_cells:
            raise ValueError(
                f"field has {values.size} values for a grid of {self.grid.n_cells} cells")
        if (values < -_RANGE_TOL).any() or (values > 1.0 + _RANGE_TOL).any():
            raise ValueError("density values must lie in [0, 1]")
        self.values = np.clip(values, 0.0, 1.0)


def halfspace_sdf(p: PolygonParams, j: int, x, y):
    """Signed distance to half-space j (0-based) of polygon p; negative inside."""
    a = p.theta + 2.0 * math.pi * j / p.sides
    return (np.asarray(x, float) - p.cx) * math.cos(a) \
        + (np.asarray(y, float) - p.cy) * math.sin(a) - p.d[j]


def halfspace_sdfs(p: PolygonParams, x, y) -> np.ndarray:
    """All S half-space signed distances, stacked on a trailing axis."""
    ang = p.angles
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    return ((x - p.cx)[..., None] * np.cos(ang)
            + (y - p.cy)[..., None] * np.sin(ang) - p.d)


def _smooth_max(phi: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
    """(1/s)-scaled LogSumExp over axis -2 (the sides) and its softmax weights.

    The max is subtracted before exponentiation so the exponents never
    overflow; the result always dominates the exact maximum.  phi is
    overwritten with the weights.
    """
    m = phi.max(axis=-2)
    phi -= m[..., None, :]
    phi *= s
    np.exp(phi, out=phi)
    z = phi[..., 0, :].copy()
    for j in range(1, phi.shape[-2]):  # np.sum adds 8 or more sides pairwise
        z += phi[..., j, :]
    phi /= z[..., None, :]
    return m + np.log(z) / s, phi


def _threshold_chain(r: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Threshold filter value and derivative at r, sharing one tanh."""
    th = math.tanh(0.5 * beta)
    u = np.tanh(beta * (r - 0.5))
    return (th + u) / (2.0 * th), beta * (1.0 - u * u) / (2.0 * th)


def polygon_sdf(p: PolygonParams, x, y, cfg: ProjectionConfig):
    """Smooth polygon signed distance: (l0/t)-scaled LogSumExp of the half-spaces."""
    # a unit trailing axis puts the sides on axis -2, where _smooth_max reduces
    return _smooth_max(halfspace_sdfs(p, x, y)[..., None], cfg.t / cfg.l0)[0][..., 0]


def project_density(phi, cfg: ProjectionConfig):
    """Sigmoid projection of a signed distance: interior (phi < 0) maps near 1."""
    return expit(-(cfg.gamma / cfg.l0) * np.asarray(phi, float))


def threshold(rho_tilde, cfg: ProjectionConfig):
    """Threshold filter pushing intermediate densities toward 0/1.

    Preserves the endpoints and the midpoint exactly; input must lie in [0, 1].
    """
    r = np.asarray(rho_tilde, dtype=float)
    if (r < -_RANGE_TOL).any() or (r > 1.0 + _RANGE_TOL).any():
        raise ValueError("threshold input must lie in [0, 1]")
    return _threshold_chain(np.clip(r, 0.0, 1.0), cfg.beta)[0]


def threshold_derivative(rho_tilde, cfg: ProjectionConfig):
    return _threshold_chain(np.asarray(rho_tilde, dtype=float), cfg.beta)[1]


@dataclass(eq=False)
class ProjectionTape:
    """Intermediates of the projection of n_p primitives, kept for the pullback.

    lse_weights holds the per-cell softmax weights of the half-spaces,
    sides-first so the pullback multiplies them without a transpose;
    d_sigmoid and d_threshold are the local derivatives of the last two
    stages of the chain.  The arrays are allocated whole and filled one
    block of primitives at a time; row i is what a one-primitive call
    stores for primitive i.
    """

    cos_a: np.ndarray        # (n_p, S)
    sin_a: np.ndarray        # (n_p, S)
    rel_x: np.ndarray        # (n_p, n_cells) x - cx
    rel_y: np.ndarray        # (n_p, n_cells)
    lse_weights: np.ndarray  # (n_p, S, n_cells)
    d_sigmoid: np.ndarray    # (n_p, n_cells) d rho_tilde / d phi
    d_threshold: np.ndarray  # (n_p, n_cells) d rho / d rho_tilde

    @classmethod
    def empty(cls, n_p: int, sides: int, n_cells: int) -> "ProjectionTape":
        """A tape of unfilled arrays, for rasterize_with_tape to write into."""
        return cls(np.empty((n_p, sides)), np.empty((n_p, sides)),
                   np.empty((n_p, n_cells)), np.empty((n_p, n_cells)),
                   np.empty((n_p, sides, n_cells)), np.empty((n_p, n_cells)),
                   np.empty((n_p, n_cells)))

    @property
    def block(self) -> int:
        """Primitives per block: at most _BLOCK_DOUBLES values of the stack,
        but one primitive at least."""
        _, sides, n_cells = self.lse_weights.shape
        return max(1, _BLOCK_DOUBLES // (sides * n_cells))


def _blocks(n_p: int, step: int) -> list[slice]:
    """Slices of step consecutive primitives, the last one possibly shorter."""
    return [slice(lo, min(lo + step, n_p)) for lo in range(0, n_p, step)]


def rasterize_with_tape(rows: np.ndarray, grid: SampleGrid, cfg: ProjectionConfig,
                        out: tuple[np.ndarray, ProjectionTape] | None = None
                        ) -> tuple[np.ndarray, ProjectionTape]:
    """Project n_p polygons with a common side count in one call.

    rows is the (n_p, 3 + S) array of parameter rows cx, cy, theta,
    d[0..S-1].  Returns the (n_p, n_cells) densities, one row per polygon,
    and the tape of the whole chain.  out, a densities array and a tape
    of C-contiguous arrays of those shapes, is filled and returned in place
    of fresh arrays, so a caller that projects every iteration reuses one
    set.

    The half-spaces are built from the grid's separable coordinates:
    (x_i - cx) cos on (S, nx) plus (y_j - cy) sin on (S, ny), broadcast
    into the (S, ny, nx) cells of each primitive.  Point e = j*nx + i has
    x = xs[i] and y = ys[j] exactly, so the terms are those of the
    per-cell products and the stack is the same bit for bit.
    """
    n_p, sides = rows.shape[0], rows.shape[1] - 3
    nx, ny = grid.nx, grid.ny
    rho, tape = out if out is not None else (np.empty((n_p, grid.n_cells)),
                                             ProjectionTape.empty(n_p, sides, grid.n_cells))
    ang = rows[:, 2, None] + base_angles(sides)
    cos_a = np.cos(ang, out=tape.cos_a)
    sin_a = np.sin(ang, out=tape.sin_a)
    rel_xs = grid.xs - rows[:, 0, None]             # (n_p, nx)
    rel_ys = grid.ys - rows[:, 1, None]             # (n_p, ny)
    tape.rel_x.reshape(n_p, ny, nx, copy=False)[...] = rel_xs[:, None]
    tape.rel_y.reshape(n_p, ny, nx, copy=False)[...] = rel_ys[..., None]
    for b in _blocks(n_p, tape.block):
        phi_hat = tape.lse_weights[b]
        x_term = rel_xs[b, None] * cos_a[b, :, None]    # (n_b, S, nx)
        y_term = rel_ys[b, None] * sin_a[b, :, None]    # (n_b, S, ny)
        np.add(x_term[..., None, :], y_term[..., None],
               out=phi_hat.reshape(-1, sides, ny, nx, copy=False))
        phi_hat -= rows[b, 3:, None]
        # overwrites the block's half-spaces with their softmax weights
        phi, _ = _smooth_max(phi_hat, cfg.t / cfg.l0)
        rho_tilde = project_density(phi, cfg)
        tape.d_sigmoid[b] = -(cfg.gamma / cfg.l0) * rho_tilde * (1.0 - rho_tilde)
        rho[b], tape.d_threshold[b] = _threshold_chain(rho_tilde, cfg.beta)
    np.clip(rho, 0.0, 1.0, out=rho)
    return rho, tape


def rasterize_primitive(p: PolygonParams, grid: SampleGrid,
                        cfg: ProjectionConfig) -> DensityField:
    """Project one polygon onto the grid: threshold(sigmoid(polygon_sdf))."""
    return DensityField(rasterize_with_tape(p.row[None], grid, cfg)[0][0], grid)


def projection_param_grad(tape: ProjectionTape, seed: np.ndarray,
                          scratch: np.ndarray | None = None):
    """Pull per-cell sensitivities back to every primitive's (cx, cy, theta, d).

    seed[..., i, e] is d(objective)/d(rho[i, e]) for primitive i; leading
    axes stack independent objectives.  Returns (d_cx, d_cy, d_theta, d_d),
    the first three shaped seed.shape[:-1] and d_d with a trailing S axis.
    scratch, a flat array of at least 2 * seed[..., :tape.block, :].size
    doubles, holds each block's chain products; one is allocated when it
    is omitted.
    """
    weights = tape.lse_weights
    n_p, sides, n_cells = weights.shape
    if scratch is None:
        scratch = np.empty(2 * seed[..., :tape.block, :].size)
    # a trailing unit axis makes each primitive's result a contiguous
    # (S, 1) matrix, so matmul writes it with the same gemv as a fresh array
    a, sx, sy = np.empty((3,) + seed.shape[:-2] + (n_p, sides, 1))
    for b in _blocks(n_p, tape.block):
        seed_b = seed[..., b, :]
        # both are contiguous like fresh arrays, so each gemv is the same
        chain, moment = scratch[:2 * seed_b.size].reshape((2,) + seed_b.shape, copy=False)
        np.multiply(seed_b, tape.d_threshold[b], out=chain)
        chain *= tape.d_sigmoid[b]
        # one gemv W_i v_i per primitive and objective, as on a single
        # primitive; a stacked gemm would sum in another order
        np.matmul(weights[b], chain[..., None], out=a[..., b, :, :])
        np.multiply(chain, tape.rel_x[b], out=moment)
        np.matmul(weights[b], moment[..., None], out=sx[..., b, :, :])
        np.multiply(chain, tape.rel_y[b], out=moment)
        np.matmul(weights[b], moment[..., None], out=sy[..., b, :, :])
    a, sx, sy = a[..., 0], sx[..., 0], sy[..., 0]
    d_cx = -np.vecdot(tape.cos_a, a)
    d_cy = -np.vecdot(tape.sin_a, a)
    d_theta = np.vecdot(tape.cos_a, sy) - np.vecdot(tape.sin_a, sx)
    return d_cx, d_cy, d_theta, -a
