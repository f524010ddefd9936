"""End-to-end gradients of compliance and the volume constraint.

Compliance is self-adjoint, so its field sensitivity is

    dJ/drho_e = -p (E0 - Emin) rho_e^(p-1) * u_e . K0 . u_e

per element (grad_compliance).  Model.gradients() differentiates the
Model's last forward pass.  It stacks that seed and the constant volume
seed (grad_volume) into one (2, n_cells) array and pulls both back
together: one walk down the Boolean tree, one pass through the batched
projection tape of all primitives, then the softmax operator encoding and
the affine de-normalization of the design vector.  A central
finite-difference harness verifies any entry of either gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fea

__all__ = [
    "FdEntry",
    "grad_compliance",
    "grad_volume",
    "fd_check",
    "central_difference",
]


def grad_compliance(u: np.ndarray, rho: np.ndarray, mesh: fea.Mesh,
                    material: fea.Material, k0: np.ndarray) -> np.ndarray:
    """dJ/drho_e, the compliance field seed, from the self-adjoint rule."""
    m = material
    ce = fea.element_energies(u, mesh, k0)
    return -m.penalty * (m.e0 - m.emin) * rho ** (m.penalty - 1.0) * ce


def grad_volume(mesh: fea.Mesh, vf_star: float) -> np.ndarray:
    """dg_v/drho_e = v_e / (vf* sum v_e), the volume field seed, constant."""
    total = mesh.element_area * mesh.n_elements
    return np.full(mesh.n_elements, mesh.element_area / (vf_star * total))


def central_difference(fn, z: np.ndarray, index: int, step: float):
    """Central difference of a scalar or vector function of z in one coordinate."""
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    zp = np.array(z, dtype=float)
    zm = np.array(z, dtype=float)
    zp[index] += step
    zm[index] -= step
    return (np.asarray(fn(zp)) - np.asarray(fn(zm))) / (2.0 * step)


FD_FLOOR = 1e-7  # |FD| below this is indistinguishable from difference noise


@dataclass(eq=False)
class FdEntry:
    """One checked design-vector entry of the finite-difference report."""

    index: int
    label: str
    skipped: bool = False
    analytic_j: float = 0.0
    fd_j: float = 0.0
    rel_err_j: float = 0.0
    analytic_g: float = 0.0
    fd_g: float = 0.0
    rel_err_g: float = 0.0

    @property
    def max_rel_err(self) -> float:
        """Worst relative error over the two functionals, FD floor applied.

        A non-finite analytic or FD value scores inf, so it can never pass.
        """
        values = [self.analytic_j, self.fd_j, self.analytic_g, self.fd_g]
        if not np.isfinite(values).all():
            return np.inf
        worst = 0.0
        if abs(self.fd_j) > FD_FLOOR:
            worst = max(worst, self.rel_err_j)
        if abs(self.fd_g) > FD_FLOOR:
            worst = max(worst, self.rel_err_g)
        return worst


def _rel_err(analytic: float, fd: float) -> float:
    return abs(analytic - fd) / max(abs(fd), 1e-300)


def fd_check(model, z: np.ndarray, indices=None, step: float = 1e-6) -> list[FdEntry]:
    """Compare analytic dJ/dz and dg_v/dz against central differences.

    indices address the full design layout including frozen operator slots,
    each in [0, full_size); frozen entries come back marked skipped.  The
    report is sorted worst first.  model must offer evaluate(z) -> (J, g);
    forward_gradients(z) -> (J, g, dJ, dg), which is forward(z) followed by
    gradients(); J_change; full_size, full_to_free and label_for_index.  A
    Model keeps the workspace of each pass, so an evaluate re-projects only
    the primitive its entry moves, and its evaluate is forward(z,
    reuse=True): one check factors twice, in forward_gradients and in the
    first evaluate, and every later evaluate solves for its change against
    that evaluate's factor.  Both sides of each difference then share the
    rounding of that one solve, which cancels, and the difference of J is
    taken between the two sides' J_change, the changes f.v against that
    solve, so that J's own rounding, about ulp(J) / 2h, does not enter it
    either.  An entry with a side that solved against no kept solve (its
    J_change is None) differences J.
    """
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    indices = range(model.full_size) if indices is None else [int(i) for i in indices]
    for idx in indices:
        if not 0 <= idx < model.full_size:
            raise ValueError(f"index {idx} out of range [0, {model.full_size})")
    _, _, dj, dg = model.forward_gradients(z)

    def evaluate(zz):
        j_val, g_v = model.evaluate(zz)
        change = model.J_change
        return j_val, g_v, math.nan if change is None else change

    entries = []
    for idx in indices:
        label = model.label_for_index(idx)
        free = model.full_to_free[idx]
        if free < 0:
            entries.append(FdEntry(index=idx, label=label, skipped=True))
            continue
        fd_j, fd_g, fd_change = map(float, central_difference(evaluate, z, free, step))
        if math.isfinite(fd_change):
            fd_j = fd_change
        entries.append(FdEntry(
            index=idx, label=label,
            analytic_j=float(dj[free]), fd_j=fd_j, rel_err_j=_rel_err(dj[free], fd_j),
            analytic_g=float(dg[free]), fd_g=fd_g, rel_err_g=_rel_err(dg[free], fd_g),
        ))
    entries.sort(key=lambda e: (e.skipped, -e.max_rel_err))
    return entries
