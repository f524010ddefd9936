"""A ProblemSpec's model, design-vector mapping, and the optimization loop.

The normalized design vector z lives in [0, 1]^N with block layout

    [ z_cx (n_p) | z_cy (n_p) | z_theta (n_p) | z_d (n_p*S) | z_b (4 per free node) ]

where n_p = 2^depth primitives fill the tree leaves and each non-frozen
internal node contributes four softmax-encoded operator entries (frozen
nodes are excluded from z entirely).  Geometry blocks map affinely onto
their configured bounds.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import csg, fea, geometry, sensitivity
from .config import BENCHMARKS, ConfigError, ProblemSpec, shown
from .mma import MmaState, kkt_residual, mma_update

__all__ = [
    "SolverAbort",
    "Model",
    "IterationRecord",
    "RunHistory",
    "OptimizeResult",
    "builtin_problem",
    "initialize",
    "optimize",
]

log = logging.getLogger(__name__)


class SolverAbort(RuntimeError):
    """The FEA solve or its gradients failed mid-run; carries the last good state."""

    def __init__(self, message: str, history: "RunHistory", z: np.ndarray,
                 iteration: int):
        super().__init__(message)
        self.history = history
        self.z = z
        self.iteration = iteration

    def __reduce__(self):
        # the payload is not part of args, so default exception pickling
        # (used by process pools) would drop the constructor arguments
        return (SolverAbort, (self.args[0], self.history, self.z, self.iteration))


def builtin_problem(name: str, nx: int, ny: int) -> fea.BoundaryConditions:
    """Boundary conditions of the built-in benchmarks on an nx-by-ny mesh.

    mbb is the half model: symmetry (u_x = 0) along the left edge, u_y = 0 at
    the bottom-right corner node, unit downward load at the top-left corner.
    mid_cantilever clamps the left edge and loads the mid-height right-edge
    node downward.
    """
    n_col = ny + 1
    if name == "mbb":
        fixed = [2 * j for j in range(n_col)]            # left edge x-dofs
        fixed.append(2 * (nx * n_col) + 1)               # bottom-right y-dof
        loads = {2 * ny + 1: -1.0}                       # top-left y-dof
    elif name == "mid_cantilever":
        fixed = []
        for j in range(n_col):
            fixed.extend((2 * j, 2 * j + 1))             # left edge clamped
        loads = {2 * (nx * n_col + ny // 2) + 1: -1.0}   # right edge mid node
    else:
        raise ConfigError(
            f"benchmark: unknown benchmark {shown(name)}; valid: {', '.join(BENCHMARKS)}")
    return fea.BoundaryConditions(np.array(fixed), loads)


def initialize(spec: ProblemSpec) -> np.ndarray:
    """Seeded uniform [0, 1) design vector (PCG64 via numpy default_rng)."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    return rng.random(spec.design_size)


class Model:
    """Executable form of a ProblemSpec: mesh, tree layout, cached forward pass."""

    def __init__(self, spec: ProblemSpec):
        spec.validate()
        self.spec = spec
        lx, ly = spec.domain_lx, spec.domain_ly
        self.mesh = fea.Mesh(spec.nx, spec.ny, lx, ly)
        self.grid = self.mesh  # the projection's sample grid, by the name callers read
        self.cfg = geometry.ProjectionConfig.for_domain(
            lx, ly, gamma=spec.gamma, beta=spec.beta, t=spec.lse_scale)
        self.material = fea.Material(spec.e0, spec.resolved_emin, spec.penalty, spec.nu)
        ax, ay = self.mesh.ax, self.mesh.ay
        try:
            self.k0 = fea.element_stiffness_template(spec.nu, ax, ay)
        except (ValueError, FloatingPointError) as exc:
            # the side whose scale is further from 1 overflows, or underflows to 0
            scale = [abs(math.log(a)) if a > 0 else math.inf for a in (ax, ay)]
            raise ConfigError(f"{'lx' if scale[0] >= scale[1] else 'ly'}: a {ax:.3g} by "
                              f"{ay:.3g} element has no stiffness in floats ({exc})") from None
        if spec.benchmark is not None:
            self.bcs = builtin_problem(spec.benchmark, spec.nx, spec.ny)
        else:
            self.bcs = fea.BoundaryConditions(
                np.asarray(spec.fixed_dofs, dtype=int),
                {int(d): float(v) for d, v in spec.loads})
        self.frozen = {k: csg.OPERATOR_NAMES.index(v)
                       for k, v in spec.frozen_operators.items()}
        self.free_nodes = [k for k in range(spec.n_operators) if k not in self.frozen]
        self.n = spec.design_size
        self.full_size = spec.full_size
        # the full layout's blocks: name, entries, entries per label row
        n_p, s = spec.n_primitives, spec.sides
        self._blocks = (("cx", n_p, 1), ("cy", n_p, 1), ("theta", n_p, 1),
                        ("d", n_p * s, s), ("b", 4 * spec.n_operators, 4))
        # each geometry entry of z maps to lo + span * z
        bounds = spec.bounds()
        names, counts, _ = zip(*self._blocks[:4])
        self._lo = np.repeat([float(bounds[name][0]) for name in names], counts)
        self._span = np.repeat([float(bounds[name][1] - bounds[name][0]) for name in names],
                               counts)
        frozen = np.zeros(self.full_size, dtype=bool)
        frozen[self._lo.size:].reshape(-1, 4)[list(self.frozen)] = True
        # full layout (all operator slots) -> index into z, -1 when frozen
        self.full_to_free = np.where(frozen, -1, np.cumsum(~frozen) - 1)
        # what forward and gradients fill, allocated on first use and kept
        # for the Model's life; the operator weights and displacements of
        # the last forward that completed, None when there is none
        self._work: _Workspace | None = None
        self._last: tuple[np.ndarray, np.ndarray] | None = None
        # the solve and root field a reusing forward keeps for later ones to
        # solve against; None when there is none, () when reuse has ended
        self._kept: tuple | None = None
        # J of the last forward less the kept solve's, as f.v without the
        # rounding of J: 0.0 on the forward that kept its solve, None on a
        # forward that solved against no kept solve
        self.J_change: float | None = None
        # seconds the last forward spent in projection, tree and solve
        self.timings: dict[str, float] = {}

    # -- design-vector layout ----------------------------------------------

    def label_for_index(self, idx: int) -> str:
        """The full layout's entry idx by name, as cx[i], d[i][side] or b[node][op]."""
        for name, entries, per_row in self._blocks:
            if idx < entries:
                return (f"{name}[{idx}]" if per_row == 1
                        else f"{name}[{idx // per_row}][{idx % per_row}]")
            idx -= entries
        raise IndexError("index past the full layout")

    def denormalize(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map z to (n_p, 3 + S) rows cx, cy, theta, d[0..S-1] and operator
        weights, frozen nodes' one-hot rows included."""
        z = np.asarray(z, dtype=float).ravel()
        if z.size != self.n:
            raise ValueError(f"design vector has {z.size} entries, expected {self.n}")
        if not np.isfinite(z).all():
            raise ValueError("design vector has a NaN or infinite entry")
        spec, geo = self.spec, self._lo.size
        n_p = spec.n_primitives
        flat = self._lo + self._span * z[:geo]
        rows = np.hstack([flat[:3 * n_p].reshape(3, n_p).T, flat[3 * n_p:].reshape(n_p, -1)])

        weights = np.empty((spec.n_operators, 4))
        weights[self.free_nodes] = csg.softmax_encode(z[geo:].reshape(-1, 4),
                                                      spec.softmax_scale)
        for node, op in self.frozen.items():
            weights[node] = csg.one_hot(op)
        return rows, weights

    # -- forward evaluation --------------------------------------------------

    def forward(self, z: np.ndarray, *, reuse: bool = False) -> tuple[float, float]:
        """(J, g_v) of z, keeping the intermediates gradients() needs.

        The tape and node fields are written into the Model's workspace,
        and the operator weights and displacements are kept on the Model.
        A plain forward factors its stiffness and drops any kept solve.
        With reuse, the first forward since then keeps its solve, and each
        later one solves only for its change against that solve's factor
        (fea.solve's near).  One that has to factor after all ends the
        reuse until the next plain forward, and one that raises drops the
        kept solve.  J_change is set to the change of J against the kept
        solve, for a finite difference to take.
        """
        self._last = None
        self.J_change = None
        kept = self._kept if reuse else None
        self._kept = None       # kept again only by a reusing pass that completes
        t0 = time.perf_counter()
        rows, weights = self.denormalize(z)
        work = self._project(rows)
        t1 = time.perf_counter()
        csg.evaluate_tree_values(weights, work.node_values[self.spec.n_operators:],
                                 out=work.node_values, scratch=work.tree)
        t2 = time.perf_counter()
        root, u, result, g_v = self._solve(work.node_values, kept or None)
        t3 = time.perf_counter()
        if reuse:
            if kept is None:
                # its residual is summed now, while no second stiffness is
                # alive beside the factor, so that it adds nothing to the peak
                result.exact_residual
                self._kept = result, root
                self.J_change = 0.0
            elif result.factor is None:
                self._kept = kept
                self.J_change = result.J_change
            else:
                # the kept solve is too far from these designs, or too badly
                # conditioned, for its factor to serve them
                self._kept = ()
        self._last = weights, u
        self.timings = {"projection": t1 - t0, "tree": t2 - t1, "fea_sens": t3 - t2}
        return result.J, g_v

    def gradients(self) -> tuple[np.ndarray, np.ndarray]:
        """(dJ/dz, dg_v/dz) of the last forward that completed on this Model.

        Both field seeds are pulled back together as one (2, n_cells) stack:
        one tree walk and one pass through the projection tape.  Raises
        ValueError when no forward has run or when the last one raised.
        """
        if self._last is None:
            raise ValueError("no completed forward pass on this Model to differentiate")
        weights, u = self._last
        work = self._work
        if work.tree is None:
            # allocated after the first solve, so it reuses the memory that freed
            work.tree = csg.walk_scratch(self.spec.n_primitives, self.mesh.n_elements, 2)
        seeds = np.stack([
            sensitivity.grad_compliance(u, work.node_values[0], self.mesh,
                                        self.material, self.k0),
            sensitivity.grad_volume(self.mesh, self.spec.vf_star)])
        leaf_seeds, weight_grads = csg.tree_backward(weights, work.node_values,
                                                     seeds, scratch=work.tree)
        # the leaf seeds are the walk's scratch, free to hold the chain
        d_cx, d_cy, d_th, d_d = geometry.projection_param_grad(work.tape, leaf_seeds,
                                                               overwrite_seed=True)
        b = weights[self.free_nodes]
        gb = weight_grads[:, self.free_nodes]
        d_b = self.spec.softmax_scale * b * (gb - np.vecdot(b, gb)[..., None])
        out = np.hstack([d_cx, d_cy, d_th, d_d.reshape(2, -1), d_b.reshape(2, -1)])
        out[:, :self._lo.size] *= self._span
        return out[0], out[1]

    def _project(self, rows: np.ndarray) -> "_Workspace":
        """The workspace, filled with the leaf fields and tape of these rows.

        Only the span from the first to the last primitive whose row differs,
        bit for bit, from the recorded rows is projected: all of them in the
        optimizer, one for a geometry entry of a finite difference, none for
        an operator entry.  The rows are recorded only once their fields
        are written.
        """
        if self._work is None:
            n_p, mesh = self.spec.n_primitives, self.mesh
            tape = geometry.ProjectionTape.empty(n_p, self.spec.sides, mesh.nx, mesh.ny)
            self._work = _Workspace(tape, np.empty((2 * n_p - 1, mesh.n_elements)))
        work = self._work
        changed = (np.arange(len(rows)) if work.rows is None else np.flatnonzero(
            (rows.view(np.int64) != work.rows.view(np.int64)).any(axis=1)))
        if changed.size:
            span = slice(changed[0], changed[-1] + 1)
            work.rows = None
            geometry.rasterize_with_tape(
                rows[span], self.mesh, self.cfg,
                out=(work.node_values[self.spec.n_operators:][span], work.tape[span]))
            work.rows = rows
        return work

    def _solve(self, node_values: np.ndarray, kept: tuple | None = None) -> tuple:
        """Clipped root field, full-length displacements, fea.SolveResult and
        g_v of the tree's node values.  kept is a (SolveResult, root) to
        solve against, with the stiffness change summed element by element
        from the change of root."""
        root = np.clip(node_values[0], 0.0, 1.0)
        fixed = self.bcs.fixed_dofs
        pattern = self.mesh.free_pattern(fixed)
        K = fea.assemble(root, self.mesh, self.material, self.k0, fixed)
        near = None
        if kept is not None:
            base, base_root = kept
            near = base, fea.stiffness_change_product(root, base_root, base.u, self.mesh,
                                                      self.material, self.k0, fixed)
        result = fea.solve(K, fea.load_vector(self.bcs, self.mesh.ndof)[pattern.free],
                           pattern.band, near)
        u = np.zeros(self.mesh.ndof)
        u[pattern.free] = result.u
        return root, u, result, fea.volume_constraint(root, self.spec.vf_star, self.mesh)

    def evaluate(self, z: np.ndarray) -> tuple[float, float]:
        """(J, g_v) of z by forward(z, reuse=True), for finite differencing.

        After the first evaluate since the last plain forward, each one
        solves only for its change against that evaluate's factor, so the
        solve's error is common to both sides of a central difference.
        """
        return self.forward(z, reuse=True)

    def forward_gradients(self, z: np.ndarray):
        """(J, g_v, dJ/dz, dg_v/dz): forward(z), then gradients(); the pass stays."""
        return (*self.forward(z), *self.gradients())


@dataclass(eq=False)
class _Workspace:
    """The arrays one iteration fills, allocated once per Model and kept for its life.

    Reusing them keeps each forward and gradients pass from taking fresh
    pages from the system, whose first touches cost milliseconds per step
    on a deep tree.  The leaf fields are the leaf rows of node_values.
    The first forward allocates the tape and node fields, the first
    gradients the tree walk's scratch.
    """

    tape: geometry.ProjectionTape
    node_values: np.ndarray             # (n_nodes, n_cells), root in row 0
    rows: np.ndarray | None = None      # (n_p, 3 + S) rows the leaf fields hold
    tree: np.ndarray | None = None      # csg.walk_scratch for two seeds


# -- optimization loop -------------------------------------------------------


@dataclass(eq=False)
class IterationRecord:
    iteration: int
    J: float
    g_v: float
    kkt: float
    step: float
    t_projection: float
    t_tree: float
    t_fea_sens: float
    t_total: float
    z: np.ndarray


@dataclass(eq=False)
class RunHistory:
    records: list[IterationRecord] = field(default_factory=list)

    def append(self, record: IterationRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


@dataclass(eq=False)
class OptimizeResult:
    z: np.ndarray
    rows: np.ndarray                   # (n_p, 3 + S) rows cx, cy, theta, d[0..S-1]
    weights: np.ndarray                # relaxed (softmax) weights, heap order
    ops: np.ndarray                    # snapped operator index of each internal node
    pruned: list[tuple[int, int, int]]  # csg.prune's surviving nodes
    rho: np.ndarray                    # clipped relaxed root field
    rho_snapped: np.ndarray
    J: float                           # relaxed compliance
    J_snapped: float
    g_v: float
    g_v_snapped: float
    iterations: int
    reason: str
    history: RunHistory

    @property
    def empty_design(self) -> bool:
        return not self.pruned


def optimize(spec: ProblemSpec, callback=None) -> OptimizeResult:
    """Run the full loop: project, combine, solve, differentiate, update.

    Stops at the first of KKT residual < kkt_tol, design step < step_tol, or
    max_iter updates, then snaps the operator weights to one-hot, re-solves
    on the snapped tree and prunes empty nodes.
    """
    model = Model(spec)
    cfg = spec.mma
    z = initialize(spec)
    state = MmaState()
    history = RunHistory()
    reason = "max_iter"

    for it in range(1, cfg.max_iter + 1):
        t_start = time.perf_counter()
        try:
            j_val, g_v = model.forward(z)
            t_grad0 = time.perf_counter()
            dj, dg = model.gradients()
            t_grad1 = time.perf_counter()
        except fea.SingularSystemError as exc:
            raise SolverAbort(str(exc), history, z, it) from exc
        if not (math.isfinite(j_val) and math.isfinite(g_v)
                and np.isfinite(dj).all() and np.isfinite(dg).all()):
            raise SolverAbort("non-finite J, g_v or gradient", history, z, it)
        # a zero residual here is no KKT point: nothing can move the design
        if not (dj.any() or dg.any()):
            raise SolverAbort("every gradient entry is zero, so the design cannot move "
                              "(e.g. no primitive reaches the domain)", history, z, it)
        # f.u of a loaded, supported structure is positive unless it underflows
        if not j_val > 0:
            raise SolverAbort(f"compliance J = {j_val:g} is not positive: it underflowed; "
                              "scale the loads or e0 up", history, z, it)
        z_new, state = mma_update(z, j_val, dj, g_v, dg, state, cfg)
        if not np.isfinite(z_new).all():
            raise SolverAbort("the MMA update returned a NaN or infinite design "
                              f"(multiplier {state.lam:g})", history, z, it)
        step = float(np.abs(z_new - z).max())
        kkt = kkt_residual(z_new, dj, g_v, dg, state.lam)
        t_end = time.perf_counter()
        history.append(IterationRecord(
            iteration=it, J=j_val, g_v=g_v, kkt=kkt, step=step,
            t_projection=model.timings["projection"], t_tree=model.timings["tree"],
            t_fea_sens=model.timings["fea_sens"] + (t_grad1 - t_grad0),
            t_total=t_end - t_start, z=np.array(z),
        ))
        if callback is not None:
            callback(history.records[-1])
        log.debug("iter %d: J=%.6g g=%.3e kkt=%.3e step=%.3e", it, j_val, g_v,
                  kkt, step)
        z = z_new
        if kkt < cfg.kkt_tol:
            reason = "kkt"
            break
        if step < cfg.step_tol:
            reason = "step"
            break
    log.info("stopped after %d iterations (%s)", len(history), reason)

    return _finalize(model, z, history, reason)


def _finalize(model: Model, z: np.ndarray, history: RunHistory,
              reason: str) -> OptimizeResult:
    rows, weights = model.denormalize(z)
    # the last projection refills the loop's workspace, so nothing of the
    # size of the tape is allocated again; the tree evaluations below
    # overwrite the node fields, so no pass is left to differentiate
    node_values = model._project(rows).node_values
    model._last = None
    leaf_values = node_values[model.spec.n_operators:]

    def solve_tree(w: np.ndarray):
        try:
            root, _, result, g_v = model._solve(
                csg.evaluate_tree_values(w, leaf_values, out=node_values))
        except fea.SingularSystemError as exc:
            raise SolverAbort(str(exc), history, z, len(history)) from exc
        return root, result.J, g_v

    rho, j_relaxed, g_relaxed = solve_tree(weights)
    snapped = csg.snap(weights)
    rho_snapped, j_snapped, g_snapped = solve_tree(snapped)
    ops = snapped.argmax(axis=1)

    return OptimizeResult(
        z=np.array(z), rows=rows, weights=weights, ops=ops,
        pruned=csg.prune(ops, leaf_values), rho=rho, rho_snapped=rho_snapped,
        J=j_relaxed, J_snapped=j_snapped, g_v=g_relaxed, g_v_snapped=g_snapped,
        iterations=len(history), reason=reason, history=history,
    )
