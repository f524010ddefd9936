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

rasterize_with_tape runs the chain for all n_p primitives, an (n_p, 3 + S)
array of rows, in one call on a sides-first (n_p, S, n_cells) array and
keeps one batched ProjectionTape; projection_param_grad pulls per-cell
sensitivities of every primitive (and of several objectives stacked on
leading axes) back through that tape.  rasterize_primitive is the same
call on one row.  Sides-first, every step runs along contiguous rows of
n_cells values rather than reducing a short trailing axis per cell, and
the sides are summed left to right, as numpy sums a trailing axis of up to
7 entries, so the fields equal those of a cells-first layout.

Both functions walk the primitives in blocks of about _BLOCK_DOUBLES values
of the (n_p, S, n_cells) stack, so a block's intermediates stay in cache
between the steps of the chain instead of each step streaming the whole
stack through memory.  No step mixes primitives: every value gets the same
operations in the same order as in a one-primitive call, so the results do
not depend on where the block edges fall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import expit

if TYPE_CHECKING:
    from .fea import Mesh

__all__ = [
    "ProjectionConfig",
    "DensityField",
    "ProjectionTape",
    "base_angles",
    "project_density",
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
    """Threshold filter value and derivative at r, sharing one tanh; it fixes 0, 1/2, 1."""
    th = math.tanh(0.5 * beta)
    u = np.tanh(beta * (r - 0.5))
    return (th + u) / (2.0 * th), beta * (1.0 - u * u) / (2.0 * th)


def project_density(phi, cfg: ProjectionConfig):
    """Sigmoid projection of a signed distance: interior (phi < 0) maps near 1."""
    return expit(-(cfg.gamma / cfg.l0) * np.asarray(phi, float))


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

    def __getitem__(self, primitives: slice) -> "ProjectionTape":
        """The tape of a slice of the primitives, as views of these arrays."""
        return ProjectionTape(*(getattr(self, f.name)[primitives] for f in fields(self)))

    @property
    def block(self) -> int:
        """Primitives per block: at most _BLOCK_DOUBLES values of the stack,
        but one primitive at least."""
        _, sides, n_cells = self.lse_weights.shape
        return max(1, _BLOCK_DOUBLES // (sides * n_cells))


def _blocks(n_p: int, step: int) -> list[slice]:
    """Slices of step consecutive primitives, the last one possibly shorter."""
    return [slice(lo, min(lo + step, n_p)) for lo in range(0, n_p, step)]


def rasterize_with_tape(rows: np.ndarray, mesh: Mesh, cfg: ProjectionConfig,
                        out: tuple[np.ndarray, ProjectionTape] | None = None
                        ) -> tuple[np.ndarray, ProjectionTape]:
    """Project n_p polygons with a common side count in one call.

    rows is the (n_p, 3 + S) array of parameter rows cx, cy, theta,
    d[0..S-1].  Returns the (n_p, n_cells) densities, one row per polygon,
    and the tape of the whole chain.  out, a densities array and a tape
    of C-contiguous arrays of those shapes, is filled and returned in place
    of fresh arrays, so a caller that projects every iteration reuses one
    set.

    The half-spaces are built from the mesh's separable coordinates:
    (x_i - cx) cos on (S, nx) plus (y_j - cy) sin on (S, ny), broadcast
    into the (S, ny, nx) cells of each primitive.  Point e = j*nx + i has
    x = xs[i] and y = ys[j] exactly, so the terms are those of the
    per-cell products and the stack is the same bit for bit.
    """
    n_p, sides = rows.shape[0], rows.shape[1] - 3
    nx, ny, n_cells = mesh.nx, mesh.ny, mesh.n_elements
    rho, tape = out if out is not None else (np.empty((n_p, n_cells)),
                                             ProjectionTape.empty(n_p, sides, n_cells))
    ang = rows[:, 2, None] + base_angles(sides)
    cos_a = np.cos(ang, out=tape.cos_a)
    sin_a = np.sin(ang, out=tape.sin_a)
    rel_xs = mesh.xs - rows[:, 0, None]             # (n_p, nx)
    rel_ys = mesh.ys - rows[:, 1, None]             # (n_p, ny)
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


def rasterize_primitive(row: np.ndarray, mesh: Mesh,
                        cfg: ProjectionConfig) -> DensityField:
    """Project the polygon of one parameter row cx, cy, theta, d[0..S-1]
    onto the mesh."""
    return DensityField(rasterize_with_tape(np.asarray(row, float)[None], mesh, cfg)[0][0],
                        mesh)


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
