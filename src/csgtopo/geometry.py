"""Convex-polygon primitives and their projection onto mesh density fields.

A primitive is the intersection of S >= 3 half-spaces arranged around a
reference point, given as one parameter row cx, cy, theta, d[0..S-1]:
half-space j has the normal angle theta + 2 pi j / S and lies at offset
d[j] from (cx, cy) along it.  Mapping primitives to density fields runs
the smooth chain

    half-space signed distances -> LogSumExp max -> sigmoid -> threshold

so the resulting field is differentiable in every polygon parameter.
Signed distances are negative inside a shape.  A field holds one value per
element of an fea.Mesh, sampled at its centre, in the order fea states.

The LogSumExp max is never formed on a stack of S half-space distances
per cell.  On the mesh's separable centres, element (k, i) at (xs[i],
ys[k]), each scaled distance s phi_j = X[j, i] + Y[j, k] splits into

    X[j, i] = s (xs[i] - cx) cos_j        Y[j, k] = s ((ys[k] - cy) sin_j - d_j)

with s = t / l0, so every term of the sum factors, exp(X + Y) = exp(X)
exp(Y).  Each table is shifted by its own maximum over the sides, alpha_i
of X and beta_k of Y, so that Ex = exp(X - alpha) and Ey = exp(Y - beta)
lie in (0, 1], and the sum over the sides is one (ny, S) @ (S, nx) product
per primitive:

    s phi = alpha_i + beta_k + log Z,        Z = Ey^T @ Ex.

That takes S (nx + ny) exponentials in place of S nx ny.  A cell's largest
term is at least exp(-min(span_j X, span_j Y)), where span_j X <= 2 s
|x - cx|; config.ProblemSpec.validate keeps that span below the point
where exp underflows.  The softmax weight of side j at cell (k, i) is
Ey[j, k] Ex[j, i] / Z[k, i], so the pullback is two products of the
per-cell chain, divided by Z, with the tables (projection_param_grad).

rasterize_with_tape runs the chain for all n_p primitives, an (n_p, 3 + S)
array of rows, in one call and keeps one batched ProjectionTape;
projection_param_grad pulls per-cell sensitivities of every primitive (and
of several objectives stacked on leading axes) back through that tape.
rasterize_primitive is the same call on one row.  No step mixes
primitives: every value gets the same operations as in a one-primitive
call, and each matrix product is one BLAS call per primitive, so a
primitive's field and gradient do not depend on the batch it is in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .fea import Mesh

__all__ = [
    "ProjectionConfig",
    "DensityField",
    "ProjectionTape",
    "base_angles",
    "rasterize_primitive",
    "rasterize_with_tape",
    "projection_param_grad",
]

_RANGE_TOL = 1e-9


def base_angles(sides: int) -> np.ndarray:
    """Half-space normal directions before rotation: 2*pi*j/S for j = 0..S-1."""
    if sides < 3:
        raise ValueError(f"a polygon needs at least 3 half-spaces, got {sides}")
    return (2.0 * math.pi / sides) * np.arange(sides, dtype=float)


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
class DensityField:
    """Per-element densities in [0, 1] sampled at a mesh's element centres."""

    values: np.ndarray
    mesh: Mesh

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).ravel()
        if values.size != self.mesh.n_elements:
            raise ValueError(f"field has {values.size} values for a mesh "
                             f"of {self.mesh.n_elements} elements")
        if (values < -_RANGE_TOL).any() or (values > 1.0 + _RANGE_TOL).any():
            raise ValueError("density values must lie in [0, 1]")
        self.values = np.clip(values, 0.0, 1.0)


def _threshold_chain(r, beta: float, out: tuple[np.ndarray, np.ndarray] | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Threshold filter value and derivative at r, sharing one tanh; it fixes 0, 1/2, 1.

    out, two arrays of r's shape, receives them in place of fresh arrays;
    the first may be r itself.
    """
    th = math.tanh(0.5 * beta)
    value, slope = out if out is not None else (np.empty(np.shape(r)), np.empty(np.shape(r)))
    u = np.subtract(r, 0.5, out=slope)
    u *= beta
    np.tanh(u, out=u)
    np.add(th, u, out=value)
    value /= 2.0 * th
    np.multiply(u, u, out=slope)
    np.subtract(1.0, slope, out=slope)
    slope *= beta
    slope /= 2.0 * th
    return value, slope


def _sigmoid_projection(x: np.ndarray) -> np.ndarray:
    """The sigmoid 1 / (1 + exp(x)) of x = (gamma / l0) phi, written over x.

    A signed distance phi < 0, inside a shape, maps near 1; where exp(x)
    overflows the density is 0.
    """
    with np.errstate(over="ignore"):
        np.exp(x, out=x)
    x += 1.0
    return np.reciprocal(x, out=x)


@dataclass(eq=False)
class ProjectionTape:
    """Intermediates of the projection of n_p primitives, kept for the pullback.

    exp_x and exp_y are the shifted factor tables Ex and Ey of the smooth
    max, inv_z the reciprocal of their product Z per cell; d_sigmoid and
    d_threshold are the local derivatives of the last two stages of the
    chain.  The arrays are allocated whole and filled in one call; row i is
    what a one-primitive call stores for primitive i.
    """

    cos_a: np.ndarray        # (n_p, S)
    sin_a: np.ndarray        # (n_p, S)
    rel_x: np.ndarray        # (n_p, nx) xs - cx
    rel_y: np.ndarray        # (n_p, ny) ys - cy
    exp_x: np.ndarray        # (n_p, S, nx) Ex
    exp_y: np.ndarray        # (n_p, S, ny) Ey
    inv_z: np.ndarray        # (n_p, n_cells) 1 / Z
    d_sigmoid: np.ndarray    # (n_p, n_cells) d rho_tilde / d phi
    d_threshold: np.ndarray  # (n_p, n_cells) d rho / d rho_tilde

    @classmethod
    def empty(cls, n_p: int, sides: int, nx: int, ny: int) -> "ProjectionTape":
        """A tape of unfilled arrays, for rasterize_with_tape to write into."""
        return cls(np.empty((n_p, sides)), np.empty((n_p, sides)), np.empty((n_p, nx)),
                   np.empty((n_p, ny)), np.empty((n_p, sides, nx)), np.empty((n_p, sides, ny)),
                   *np.empty((3, n_p, nx * ny)))

    def __getitem__(self, primitives: slice) -> "ProjectionTape":
        """The tape of a slice of the primitives, as views of these arrays."""
        return ProjectionTape(*(getattr(self, f.name)[primitives] for f in fields(self)))


def _factored_lse(x_terms: np.ndarray, y_terms: np.ndarray, z: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """log sum_j exp(X[j, i] + Y[j, k]) into out[..., k, i], for stacked
    sides-first tables X, (S, nx), and Y, (S, ny).

    The tables are overwritten with Ex = exp(X - alpha) and Ey = exp(Y -
    beta), shifted by their maxima over the sides, and z receives Z = Ey^T
    @ Ex, so that out = alpha + beta + log Z.
    """
    alpha = x_terms.max(axis=-2)
    x_terms -= alpha[..., None, :]
    np.exp(x_terms, out=x_terms)
    beta = y_terms.max(axis=-2)
    y_terms -= beta[..., None, :]
    np.exp(y_terms, out=y_terms)
    np.matmul(y_terms.swapaxes(-1, -2), x_terms, out=z)
    np.log(z, out=out)
    out += alpha[..., None, :]
    out += beta[..., None]
    return out


def rasterize_with_tape(rows: np.ndarray, mesh: Mesh, cfg: ProjectionConfig,
                        out: tuple[np.ndarray, ProjectionTape] | None = None
                        ) -> tuple[np.ndarray, ProjectionTape]:
    """Project n_p polygons with a common side count in one call.

    rows is the (n_p, 3 + S) array of parameter rows cx, cy, theta,
    d[0..S-1].  Returns the (n_p, n_cells) densities, one row per polygon,
    and the tape of the whole chain.  out, a densities array and a tape
    of C-contiguous arrays of those shapes, is filled and returned in place
    of fresh arrays, so a caller that projects every iteration reuses one
    set.  Every step writes into those arrays: the densities hold s phi,
    then (gamma / l0) phi, then rho_tilde, then rho.
    """
    n_p, sides = rows.shape[0], rows.shape[1] - 3
    nx, ny = mesh.nx, mesh.ny
    rho, tape = out if out is not None else (np.empty((n_p, nx * ny)),
                                             ProjectionTape.empty(n_p, sides, nx, ny))
    s = cfg.t / cfg.l0
    ang = rows[:, 2, None] + base_angles(sides)
    cos_a = np.cos(ang, out=tape.cos_a)
    sin_a = np.sin(ang, out=tape.sin_a)
    rel_x = np.subtract(mesh.xs, rows[:, 0, None], out=tape.rel_x)
    rel_y = np.subtract(mesh.ys, rows[:, 1, None], out=tape.rel_y)
    x_terms = np.multiply((s * cos_a)[..., None], rel_x[:, None], out=tape.exp_x)
    y_terms = np.multiply(sin_a[..., None], rel_y[:, None], out=tape.exp_y)
    y_terms -= rows[:, 3:, None]
    y_terms *= s
    z = tape.inv_z.reshape(n_p, ny, nx, copy=False)
    _factored_lse(x_terms, y_terms, z, rho.reshape(n_p, ny, nx, copy=False))
    np.reciprocal(z, out=z)
    # (gamma / l0) phi = (gamma / t) s phi
    rho *= cfg.gamma / cfg.t
    rho_tilde = _sigmoid_projection(rho)
    d_sigmoid = np.subtract(1.0, rho_tilde, out=tape.d_sigmoid)
    d_sigmoid *= rho_tilde
    d_sigmoid *= -(cfg.gamma / cfg.l0)
    _threshold_chain(rho_tilde, cfg.beta, out=(rho, tape.d_threshold))
    np.clip(rho, 0.0, 1.0, out=rho)
    return rho, tape


def rasterize_primitive(row: np.ndarray, mesh: Mesh,
                        cfg: ProjectionConfig) -> DensityField:
    """Project the polygon of one parameter row cx, cy, theta, d[0..S-1]
    onto the mesh."""
    return DensityField(rasterize_with_tape(np.asarray(row, float)[None], mesh, cfg)[0][0],
                        mesh)


def projection_param_grad(tape: ProjectionTape, seed: np.ndarray,
                          overwrite_seed: bool = False):
    """Pull per-cell sensitivities back to every primitive's (cx, cy, theta, d).

    seed[..., i, e] is d(objective)/d(rho[i, e]) for primitive i; leading
    axes stack independent objectives.  Returns (d_cx, d_cy, d_theta, d_d),
    the first three shaped seed.shape[:-1] and d_d with a trailing S axis.
    With overwrite_seed, a C-contiguous float seed holds the chain below in
    place of a fresh array of its size.

    With c the seed times the chain's derivatives, divided by Z, side j
    collects a_j = sum_k,i Ey[j, k] c[k, i] Ex[j, i], and the moments sx_j
    and sy_j of the same sum with rel_x[i] and rel_y[k].  P = [Ex, Ex
    rel_x] @ c^T, one (2S, nx) @ (nx, ny) product per primitive and
    objective, holds the inner sums over i of both; a_j, sx_j and sy_j are
    then sums over k of P against Ey, and against Ey rel_y.
    """
    n_p, sides, nx = tape.exp_x.shape
    ny = tape.exp_y.shape[-1]
    chain = np.multiply(seed, tape.d_threshold, out=seed if overwrite_seed else None)
    chain *= tape.d_sigmoid
    chain *= tape.inv_z
    ex = np.empty((n_p, 2 * sides, nx))
    ex[:, :sides] = tape.exp_x
    np.multiply(tape.exp_x, tape.rel_x[:, None], out=ex[:, sides:])
    p = np.matmul(ex, chain.reshape(seed.shape[:-1] + (ny, nx)).swapaxes(-1, -2))
    a = np.vecdot(p[..., :sides, :], tape.exp_y)
    sx = np.vecdot(p[..., sides:, :], tape.exp_y)
    sy = np.vecdot(p[..., :sides, :], tape.exp_y * tape.rel_y[:, None])
    d_cx = -np.vecdot(tape.cos_a, a)
    d_cy = -np.vecdot(tape.sin_a, a)
    d_theta = np.vecdot(tape.cos_a, sy) - np.vecdot(tape.sin_a, sx)
    return d_cx, d_cy, d_theta, -a
