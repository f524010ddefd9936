"""Plane-stress FEA on a structured bilinear-quad mesh with SIMP material.

Nodes are numbered column by column: node (i, j) of an nx-by-ny element mesh
has index i*(ny+1) + j, with dofs (2n, 2n+1) for (x, y).  Elements are
numbered row by row, x fastest: element e = j*nx + i has its centre at
(xs[i], ys[j]) = ((i+0.5)*lx/nx, (j+0.5)*ly/ny).  The geometry projection
samples its density fields at those centres in that order, so a field maps
one-to-one onto element moduli.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded

__all__ = [
    "Mesh",
    "Material",
    "BoundaryConditions",
    "SolveResult",
    "SingularSystemError",
    "simp_modulus",
    "element_stiffness_template",
    "FreePattern",
    "BandLayout",
    "BandedCholesky",
    "assemble",
    "reduce_system",
    "solve",
    "analyze",
    "element_energies",
    "volume_constraint",
    "load_vector",
]

_DENSITY_TOL = 1e-9
_RESIDUAL_ABORT = 1e-3


class SingularSystemError(RuntimeError):
    """The reduced stiffness matrix could not be factorized or solved."""


@dataclass(eq=False)
class Mesh:
    """Structured quad mesh over an lx-by-ly rectangle."""

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("mesh needs at least one element per direction")
        if not (self.lx > 0 and self.ly > 0):
            raise ValueError("mesh lengths must be positive")

    @property
    def n_elements(self) -> int:
        return self.nx * self.ny

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def ndof(self) -> int:
        return 2 * self.n_nodes

    @property
    def ax(self) -> float:
        return self.lx / self.nx

    @property
    def ay(self) -> float:
        return self.ly / self.ny

    @property
    def element_area(self) -> float:
        return self.ax * self.ay

    @cached_property
    def xs(self) -> np.ndarray:
        """x of the nx columns of element centres; element j*nx + i has x = xs[i]."""
        return (np.arange(self.nx) + 0.5) * self.ax

    @cached_property
    def ys(self) -> np.ndarray:
        """y of the ny rows of element centres; element j*nx + i has y = ys[j]."""
        return (np.arange(self.ny) + 0.5) * self.ay

    @cached_property
    def element_dofs(self) -> np.ndarray:
        """(n_elements, 8) dof indices, corners ordered LL, LR, UR, UL."""
        e = np.arange(self.n_elements)
        i = e % self.nx
        j = e // self.nx
        n1 = i * (self.ny + 1) + j
        n2 = n1 + (self.ny + 1)
        return np.stack(
            [2 * n1, 2 * n1 + 1, 2 * n2, 2 * n2 + 1,
             2 * n2 + 2, 2 * n2 + 3, 2 * n1 + 2, 2 * n1 + 3],
            axis=1,
        )

    @cached_property
    def _patterns(self) -> dict[bytes, "FreePattern"]:
        return {}

    def free_pattern(self, fixed_dofs=()) -> "FreePattern":
        """CSC pattern of K[free, free] and its scatter map, cached per fixed set."""
        fixed = np.unique(np.asarray(fixed_dofs, dtype=int))
        if fixed.size and (fixed[0] < 0 or fixed[-1] >= self.ndof):
            raise ValueError("fixed dof index out of range")
        key = fixed.tobytes()
        if key not in self._patterns:
            self._patterns[key] = FreePattern.build(self.element_dofs, self.ndof, fixed)
        return self._patterns[key]


@dataclass(frozen=True, eq=False)
class BandLayout:
    """Where the lower triangle of a symmetric CSC matrix lands in band storage.

    The band is LAPACK lower-band storage in Fortran order, rows = kd + 1
    by n, kd being the half-bandwidth: CSC entry lower[k], at row r of
    column c, goes to flat position positions[k] = (r - c) + c * rows.
    """

    lower: np.ndarray       # CSC entries on or below the diagonal
    rows: int
    positions: np.ndarray

    @classmethod
    def of(cls, indptr: np.ndarray, indices: np.ndarray) -> "BandLayout":
        cols = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        offsets = indices - cols
        lower = np.flatnonzero(offsets >= 0)
        rows = int(offsets.max(initial=0)) + 1
        return cls(lower, rows, offsets[lower] + cols[lower] * rows)


@dataclass(eq=False)
class FreePattern:
    """Sparsity of the free-dof stiffness and where each element entry lands.

    Entry t of the flattened (n_elements, 8, 8) element stack adds to
    position scatter[t] of the CSC data; entries on a fixed dof point one
    past the end, into a slot that is dropped.  band is the layout of the
    factorization's band storage, the same for every stiffness on this
    pattern.
    """

    free: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    scatter: np.ndarray
    band: BandLayout

    @classmethod
    def build(cls, element_dofs: np.ndarray, ndof: int, fixed: np.ndarray) -> "FreePattern":
        free = np.setdiff1d(np.arange(ndof), fixed)
        renumber = np.full(ndof, -1)
        renumber[free] = np.arange(free.size)
        rows = renumber[np.repeat(element_dofs, 8, axis=1).ravel()]
        cols = renumber[np.tile(element_dofs, (1, 8)).ravel()]
        keep = (rows >= 0) & (cols >= 0)
        # column-major keys sort the entries into CSC order
        keys, scatter = np.unique(cols[keep] * free.size + rows[keep],
                                  return_inverse=True)
        full_scatter = np.full(rows.size, keys.size)
        full_scatter[keep] = scatter
        indptr = np.zeros(free.size + 1, dtype=np.int32)
        np.cumsum(np.bincount(keys // free.size, minlength=free.size), out=indptr[1:])
        indices = (keys % free.size).astype(np.int32)
        return cls(free, indptr, indices, full_scatter, BandLayout.of(indptr, indices))


@dataclass(frozen=True)
class Material:
    """SIMP-interpolated isotropic material."""

    e0: float = 1.0
    emin: float = 1e-9
    penalty: float = 3.0
    nu: float = 0.3

    def __post_init__(self):
        if not 0 < self.emin < self.e0:
            raise ValueError("need 0 < emin < e0")
        if self.penalty < 1:
            raise ValueError(f"SIMP penalty must be >= 1, got {self.penalty}")
        if not 0 < self.nu < 0.5:
            raise ValueError(f"Poisson ratio must lie in (0, 0.5), got {self.nu}")


@dataclass(eq=False)
class BoundaryConditions:
    """Fixed dof indices plus a sparse map of dof -> applied force."""

    fixed_dofs: np.ndarray
    loads: dict[int, float]

    def __post_init__(self):
        fixed = np.unique(np.asarray(self.fixed_dofs, dtype=int))
        if fixed.size == 0:
            raise ValueError("fixed_dofs must be non-empty (rigid-body modes)")
        if not self.loads:
            raise ValueError("loads must be non-empty")
        self.fixed_dofs = fixed
        self.loads = {int(k): float(v) for k, v in self.loads.items()}


@dataclass(eq=False)
class SolveResult:
    u: np.ndarray
    J: float
    residual: float


def simp_modulus(rho, material: Material):
    """Young's modulus emin + (e0 - emin) * rho^p for densities in [0, 1]."""
    r = np.asarray(rho, dtype=float)
    if (r < -_DENSITY_TOL).any() or (r > 1.0 + _DENSITY_TOL).any():
        raise ValueError("density outside [0, 1]")
    r = np.clip(r, 0.0, 1.0)
    return material.emin + (material.e0 - material.emin) * r ** material.penalty


def element_stiffness_template(nu: float, ax: float = 1.0, ay: float = 1.0) -> np.ndarray:
    """Unit-modulus plane-stress stiffness of one ax-by-ay bilinear quad.

    2x2 Gauss quadrature, exact for the bilinear integrand.
    """
    if not 0 < nu < 0.5:
        raise ValueError(f"Poisson ratio must lie in (0, 0.5), got {nu}")
    if not (ax > 0 and ay > 0):
        raise ValueError("element sides must be positive")
    d0 = np.array([[1.0, nu, 0.0],
                   [nu, 1.0, 0.0],
                   [0.0, 0.0, 0.5 * (1.0 - nu)]]) / (1.0 - nu * nu)
    k = np.zeros((8, 8))
    gp = 1.0 / math.sqrt(3.0)
    for xi in (-gp, gp):
        for eta in (-gp, gp):
            dn_dxi = 0.25 * np.array([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)])
            dn_deta = 0.25 * np.array([-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)])
            dn_dx = dn_dxi * (2.0 / ax)
            dn_dy = dn_deta * (2.0 / ay)
            b = np.zeros((3, 8))
            b[0, 0::2] = dn_dx
            b[1, 1::2] = dn_dy
            b[2, 0::2] = dn_dy
            b[2, 1::2] = dn_dx
            k += (b.T @ d0 @ b) * (ax * ay / 4.0)
    # exactly symmetric, so an assembled K equals its transpose bit for bit
    return 0.5 * (k + k.T)


def assemble(field_values, mesh: Mesh, material: Material,
             k0: np.ndarray | None = None, fixed_dofs=()) -> sp.csc_matrix:
    """Stiffness K = sum_e E(rho_e) * scatter(K0) on the free dofs.

    Rows and columns of fixed_dofs are left out, so the result equals
    reduce_system's K[free, free]; with no fixed dofs it is the full K.
    Only the values are computed per call, summed into the cached pattern
    of mesh.free_pattern by one bincount.
    """
    values = np.asarray(field_values, dtype=float).ravel()
    if values.size != mesh.n_elements:
        raise ValueError(
            f"field has {values.size} values for {mesh.n_elements} elements")
    if k0 is None:
        k0 = element_stiffness_template(material.nu, mesh.ax, mesh.ay)
    pattern = mesh.free_pattern(fixed_dofs)
    e_mod = simp_modulus(values, material)
    nnz, n = pattern.indices.size, pattern.free.size
    data = np.bincount(pattern.scatter, weights=(e_mod[:, None, None] * k0).ravel(),
                       minlength=nnz + 1)[:nnz]
    return sp.csc_matrix((data, pattern.indices, pattern.indptr), shape=(n, n))


def load_vector(bcs: BoundaryConditions, ndof: int) -> np.ndarray:
    f = np.zeros(ndof)
    for dof, value in bcs.loads.items():
        if not 0 <= dof < ndof:
            raise ValueError(f"load dof {dof} out of range for {ndof} dofs")
        f[dof] += value
    return f


def reduce_system(K: sp.spmatrix, f: np.ndarray,
                  fixed_dofs: np.ndarray) -> tuple[sp.csc_matrix, np.ndarray, np.ndarray]:
    """Eliminate fixed dofs by row/column removal (reference for assemble)."""
    ndof = f.size
    fixed = np.asarray(fixed_dofs, dtype=int)
    if fixed.size and (fixed.min() < 0 or fixed.max() >= ndof):
        raise ValueError("fixed dof index out of range")
    free = np.setdiff1d(np.arange(ndof), fixed)
    K = K.tocsc()
    return K[np.ix_(free, free)].tocsc(), f[free], free


def _singular_diagnostic(K: sp.csc_matrix) -> str:
    diag = np.abs(K.diagonal())
    order = np.argsort(diag)[:10]
    worst = ", ".join(f"{int(i)} (diag {diag[i]:.3e})" for i in order)
    return ("stiffness matrix is singular or badly conditioned; "
            f"likely unconstrained components near dofs: {worst}")


class BandedCholesky:
    """Cholesky factor of a symmetric positive definite K in LAPACK band storage.

    The lower triangle of K is copied into a freshly zeroed (kd + 1, n)
    lower band in Fortran order, kd being its half-bandwidth: 2 (ny + 1) + 3
    for a mesh stiffness under the column-wise numbering.  LAPACK factors
    that band in place, with no copy on the way in or out.  layout is
    computed from K when not given.  Raises LinAlgError when K is not
    positive definite.
    """

    def __init__(self, K: sp.csc_matrix, layout: BandLayout | None = None):
        if layout is None:
            layout = BandLayout.of(K.indptr, K.indices)
        n = K.shape[0]
        band = np.zeros(layout.rows * n)
        band[layout.positions] = K.data[layout.lower]
        self.factor = cholesky_banded(band.reshape((layout.rows, n), order="F"),
                                      overwrite_ab=True, lower=True, check_finite=False)

    @property
    def nnz(self) -> int:
        """Stored entries of the factor, band padding included."""
        return self.factor.size

    def solve(self, b: np.ndarray) -> np.ndarray:
        return cho_solve_banded((self.factor, True), b, check_finite=False)


def splu(K: sp.csc_matrix, layout: BandLayout | None = None) -> BandedCholesky:
    """Factorize K by banded Cholesky.

    Not an LU: the name is kept because the fea.factorize hook of the
    benchmark (bench/tracing.py) patches fea.splu, and solve calls the
    factorization through this name.
    """
    return BandedCholesky(K, layout)


def _residual_extended(K: sp.csc_matrix, u: np.ndarray, f: np.ndarray) -> np.ndarray:
    """f - K u summed in extended precision, rounded once to float64.

    K is symmetric, so its CSC arrays read as CSR: row i of K u sums column
    i's entries times u at their row indices.
    """
    products = u.astype(np.longdouble)[K.indices]
    products *= K.data
    return (f - np.add.reduceat(products, K.indptr[:-1])).astype(float)


def solve(K: sp.spmatrix, f: np.ndarray, layout: BandLayout | None = None) -> SolveResult:
    """Direct solve of Ku = f for symmetric positive definite K, J = f.u.

    A banded Cholesky solve is followed by one correction step u += K^-1 r
    whose residual r = f - K u is summed in extended precision; one step
    takes u to the accuracy the float64 factor allows, where a residual
    computed in float64 stalls near eps*|K||u|.  The reported residual
    |Ku - f| / |f| is computed in float64.  A factorization that finds K
    not positive definite, a non-finite solution, or a residual above the
    abort threshold marks a singular system (missing constraints) and
    raises SingularSystemError.  layout is K's band layout; analyze passes
    the one its FreePattern keeps, and without one it is computed from K.
    """
    f = np.asarray(f, dtype=float).ravel()
    K = K.tocsc()
    if K.shape[0] != f.size:
        raise ValueError(f"matrix of shape {K.shape} does not match load of size {f.size}")
    fnorm = float(np.linalg.norm(f))
    if fnorm == 0.0:
        return SolveResult(u=np.zeros_like(f), J=0.0, residual=0.0)
    try:
        factor = splu(K, layout)
    except LinAlgError as exc:
        raise SingularSystemError(_singular_diagnostic(K)) from exc
    u = factor.solve(f)
    if np.isfinite(u).all():
        u = u + factor.solve(_residual_extended(K, u, f))
    if not np.isfinite(u).all():
        raise SingularSystemError(_singular_diagnostic(K))
    residual = float(np.linalg.norm(K @ u - f)) / fnorm
    if residual > _RESIDUAL_ABORT:
        raise SingularSystemError(
            f"solve residual {residual:.3e} exceeds {_RESIDUAL_ABORT:.0e}; "
            + _singular_diagnostic(K))
    return SolveResult(u=u, J=float(f @ u), residual=residual)


def analyze(field_values, mesh: Mesh, material: Material,
            bcs: BoundaryConditions,
            k0: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Assemble on the free dofs, solve; returns full-length displacements and J."""
    K = assemble(field_values, mesh, material, k0, bcs.fixed_dofs)
    pattern = mesh.free_pattern(bcs.fixed_dofs)
    result = solve(K, load_vector(bcs, mesh.ndof)[pattern.free], pattern.band)
    u = np.zeros(mesh.ndof)
    u[pattern.free] = result.u
    return u, result.J


def element_energies(u: np.ndarray, mesh: Mesh, k0: np.ndarray) -> np.ndarray:
    """Per-element unit-modulus strain energy products u_e . K0 . u_e."""
    ue = u[mesh.element_dofs]
    return np.einsum("ni,ij,nj->n", ue, k0, ue)


def volume_constraint(field_values, vf_star: float, mesh: Mesh) -> float:
    """Normalized volume constraint g = sum(rho v_e) / (vf* sum(v_e)) - 1."""
    if not 0 < vf_star <= 1:
        raise ValueError(f"vf_star must lie in (0, 1], got {vf_star}")
    values = np.asarray(field_values, dtype=float).ravel()
    total = mesh.element_area * mesh.n_elements
    return float(values.sum() * mesh.element_area / (vf_star * total) - 1.0)
