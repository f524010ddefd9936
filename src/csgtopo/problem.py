"""Problem definition, design-vector mapping, and the optimization loop.

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
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import csg, fea, geometry, sensitivity
from .mma import MmaConfig, MmaState, kkt_residual, mma_update

__all__ = [
    "BENCHMARKS",
    "MAX_TAPE_DOUBLES",
    "ConfigError",
    "SolverAbort",
    "ProblemSpec",
    "Model",
    "IterationRecord",
    "RunHistory",
    "OptimizeResult",
    "builtin_problem",
    "initialize",
    "optimize",
]

log = logging.getLogger(__name__)

BENCHMARKS = ("mbb", "mid_cantilever")

# memory budget of the projection tape, in doubles (2^26 doubles = 512 MiB)
MAX_TAPE_DOUBLES = 2 ** 26


class ConfigError(ValueError):
    """Invalid problem configuration; the message names the offending field."""


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


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class ProblemSpec:
    """Full configuration of one optimization run.

    lx/ly default to nx/ny (unit square elements) and emin to 1e-9 * e0.
    Bounds left as None fall back to cx in (0.05 lx, 0.95 lx), cy in
    (0.05 ly, 0.95 ly), theta in (0, 2 pi / sides), d in (0, 0.25 lx).
    frozen_operators maps internal node index -> operator name; those nodes
    are locked and dropped from the design vector.
    """

    nx: int = 60
    ny: int = 30
    lx: float | None = None
    ly: float | None = None
    e0: float = 1.0
    emin: float | None = None
    penalty: float = 3.0
    nu: float = 0.3
    vf_star: float = 0.5
    tree_depth: int = 4
    sides: int = 6
    gamma: float = 100.0
    beta: float = 8.0
    lse_scale: float = 100.0
    softmax_scale: float = 4.0
    cx_bounds: tuple[float, float] | None = None
    cy_bounds: tuple[float, float] | None = None
    theta_bounds: tuple[float, float] | None = None
    d_bounds: tuple[float, float] | None = None
    frozen_operators: dict[int, str] = field(default_factory=dict)
    seed: int = 2
    mma: MmaConfig = field(default_factory=MmaConfig)
    benchmark: str | None = "mbb"
    fixed_dofs: list[int] | None = None
    loads: list[tuple[int, float]] | None = None

    # -- resolved values ---------------------------------------------------

    @property
    def domain_lx(self) -> float:
        return float(self.nx) if self.lx is None else float(self.lx)

    @property
    def domain_ly(self) -> float:
        return float(self.ny) if self.ly is None else float(self.ly)

    @property
    def resolved_emin(self) -> float:
        return 1e-9 * self.e0 if self.emin is None else self.emin

    @property
    def n_primitives(self) -> int:
        return 2 ** self.tree_depth

    @property
    def n_operators(self) -> int:
        return 2 ** self.tree_depth - 1

    @property
    def design_size(self) -> int:
        return self.full_size - 4 * len(self.frozen_operators)  # frozen nodes drop out

    @property
    def full_size(self) -> int:
        return self.n_primitives * (self.sides + 3) + 4 * self.n_operators

    def bounds(self) -> dict[str, tuple[float, float]]:
        lx, ly = self.domain_lx, self.domain_ly
        return {
            "cx": self.cx_bounds or (0.05 * lx, 0.95 * lx),
            "cy": self.cy_bounds or (0.05 * ly, 0.95 * ly),
            "theta": self.theta_bounds or (0.0, 2.0 * math.pi / self.sides),
            "d": self.d_bounds or (0.0, 0.25 * lx),
        }

    def validate(self) -> None:
        def fail(name, detail):
            raise ConfigError(f"{name}: {detail}")

        # a config document can carry any JSON value; check types before
        # any comparison below can raise a bare TypeError
        for name in ("nx", "ny", "tree_depth", "sides", "seed"):
            value = getattr(self, name)
            if not _is_int(value):
                fail(name, f"must be an integer, got {value!r}")
        for name in ("lx", "ly", "e0", "emin", "penalty", "nu", "vf_star", "gamma",
                     "beta", "lse_scale", "softmax_scale"):
            value = getattr(self, name)
            if value is not None and not _is_real(value):
                fail(name, f"must be a number, got {value!r}")
            if value is not None and not math.isfinite(value):
                fail(name, f"must be finite, got {value!r}")
        for name in ("cx_bounds", "cy_bounds", "theta_bounds", "d_bounds"):
            pair = getattr(self, name)
            if pair is not None and not (isinstance(pair, (list, tuple)) and len(pair) == 2
                                         and all(_is_real(v) and math.isfinite(v)
                                                 for v in pair)):
                fail(name, f"expected a [lo, hi] pair of finite numbers, got {pair!r}")
        if not isinstance(self.frozen_operators, dict):
            fail("frozen_operators", "expected a dict mapping node to operator, "
                 f"got {self.frozen_operators!r}")
        if not isinstance(self.mma, MmaConfig):
            fail("mma", f"expected an MmaConfig, got {self.mma!r}")
        if self.fixed_dofs is not None and not (isinstance(self.fixed_dofs, (list, tuple))
                                                and all(map(_is_int, self.fixed_dofs))):
            fail("fixed_dofs", f"expected a list of integer dofs, got {self.fixed_dofs!r}")
        if self.loads is not None and not (isinstance(self.loads, (list, tuple)) and all(
                isinstance(load, (list, tuple)) and len(load) == 2 and _is_int(load[0])
                and _is_real(load[1]) and math.isfinite(load[1]) for load in self.loads)):
            fail("loads", "expected [dof, value] pairs of an integer and a finite "
                 f"number, got {self.loads!r}")
        if self.seed < 0:
            fail("seed", f"must be >= 0, got {self.seed}")
        if self.nx < 1 or self.ny < 1:
            fail("nx/ny", f"mesh must have positive element counts, got {self.nx}x{self.ny}")
        if self.domain_lx <= 0 or self.domain_ly <= 0:
            fail("lx/ly", "domain lengths must be positive")
        if self.e0 <= 0:
            fail("e0", f"must be positive, got {self.e0}")
        if not 0 < self.resolved_emin < self.e0:
            fail("emin", f"must satisfy 0 < emin < e0, got {self.resolved_emin}")
        if self.penalty < 1:
            fail("penalty", f"must be >= 1, got {self.penalty}")
        if not 0 < self.nu < 0.5:
            fail("nu", f"must lie in (0, 0.5), got {self.nu}")
        if not 0 < self.vf_star <= 1:
            fail("vf_star", f"must lie in (0, 1], got {self.vf_star}")
        if self.tree_depth < 1:
            fail("tree_depth", f"must be >= 1, got {self.tree_depth}")
        if self.sides < 3:
            fail("sides", f"must be >= 3, got {self.sides}")
        # checked before anything is allocated: the projection tape is the
        # largest array of a run, 2^depth * sides * nx * ny doubles
        tape = self.n_primitives * self.sides * self.nx * self.ny
        if tape > MAX_TAPE_DOUBLES:
            fail("tree_depth", f"the projection tape of 2^{self.tree_depth} primitives "
                 f"x {self.sides} sides x {self.nx}x{self.ny} cells is {tape:.3g} "
                 f"doubles, over the budget of {MAX_TAPE_DOUBLES} (512 MiB); "
                 "lower tree_depth, sides, nx or ny")
        for name in ("gamma", "beta", "lse_scale", "softmax_scale"):
            if not getattr(self, name) > 0:
                fail(name, f"must be positive, got {getattr(self, name)}")
        for name, pair in self.bounds().items():
            lo, hi = pair
            if not lo < hi:
                fail(f"{name}_bounds", f"lower bound must be below upper, got {pair}")
        for node, op in self.frozen_operators.items():
            if not _is_int(node):
                fail("frozen_operators", f"node {node!r} is not an integer")
            if not 0 <= node < self.n_operators:
                fail("frozen_operators",
                     f"node {node} out of range for depth {self.tree_depth}")
            if op not in csg.OPERATOR_NAMES:
                fail("frozen_operators",
                     f"unknown operator {op!r}; valid: {', '.join(csg.OPERATOR_NAMES)}")
        if self.benchmark is not None and self.benchmark not in BENCHMARKS:
            fail("benchmark",
                 f"unknown benchmark {self.benchmark!r}; valid: {', '.join(BENCHMARKS)}")
        if self.benchmark is None and (self.fixed_dofs is None or self.loads is None):
            fail("benchmark", "either a benchmark name or explicit fixed_dofs "
                 "and loads must be given")
        if self.benchmark is not None and (self.fixed_dofs is not None
                                           or self.loads is not None):
            fail("benchmark", "explicit fixed_dofs/loads require benchmark = null")
        if self.benchmark is None:
            ndof = 2 * (self.nx + 1) * (self.ny + 1)
            load_dofs = [dof for dof, _ in self.loads]
            for name, dofs in (("fixed_dofs", self.fixed_dofs), ("loads", load_dofs)):
                if len(dofs) == 0:
                    fail(name, "must not be empty")
                for dof in dofs:
                    if not 0 <= dof < ndof:
                        fail(name, f"dof {dof} out of range [0, {ndof})")
            if all(value == 0 for _, value in self.loads):
                fail("loads", "every load value is zero, so the compliance is zero")
            dups = sorted({dof for dof in load_dofs if load_dofs.count(dof) > 1})
            if dups:
                fail("loads", f"dof {dups[0]} is loaded more than once")
            on_fixed = sorted(set(load_dofs).intersection(self.fixed_dofs))
            if on_fixed:
                fail("loads", f"dof {on_fixed[0]} is also in fixed_dofs")


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
            f"benchmark: unknown benchmark {name!r}; valid: {', '.join(BENCHMARKS)}")
    return fea.BoundaryConditions(np.array(fixed), loads)


def initialize(spec: ProblemSpec) -> np.ndarray:
    """Seeded uniform [0, 1) design vector (PCG64 via numpy default_rng)."""
    rng = np.random.default_rng(spec.seed)
    return rng.random(spec.design_size)


class Model:
    """Executable form of a ProblemSpec: mesh, grid, tree layout, forward pass."""

    def __init__(self, spec: ProblemSpec):
        spec.validate()
        self.spec = spec
        lx, ly = spec.domain_lx, spec.domain_ly
        self.mesh = fea.Mesh(spec.nx, spec.ny, lx, ly)
        self.grid = geometry.SampleGrid(spec.nx, spec.ny, lx, ly)
        self.cfg = geometry.ProjectionConfig.for_domain(
            lx, ly, gamma=spec.gamma, beta=spec.beta, t=spec.lse_scale)
        self.material = fea.Material(spec.e0, spec.resolved_emin, spec.penalty, spec.nu)
        self.k0 = fea.element_stiffness_template(spec.nu, self.mesh.ax, self.mesh.ay)
        if spec.benchmark is not None:
            self.bcs = builtin_problem(spec.benchmark, spec.nx, spec.ny)
        else:
            self.bcs = fea.BoundaryConditions(
                np.asarray(spec.fixed_dofs, dtype=int),
                {int(d): float(v) for d, v in spec.loads})
        self.frozen = {k: csg.operator_index(v) for k, v in spec.frozen_operators.items()}
        self.free_nodes = [k for k in range(spec.n_operators) if k not in self.frozen]
        self.bounds = spec.bounds()
        self.scales = {name: hi - lo for name, (lo, hi) in self.bounds.items()}
        self.n = spec.design_size
        self.full_size = spec.full_size
        self.full_to_free = self._build_index_map()
        # evaluate's projected primitives: parameter rows and their leaf fields
        self._leaf_rows: np.ndarray | None = None
        self._leaf_fields: np.ndarray | None = None
        # what forward and gradients fill, allocated on first use, and the
        # one ForwardState whose arrays it holds
        self._work: _Workspace | None = None
        self._state: sensitivity.ForwardState | None = None

    # -- design-vector layout ----------------------------------------------

    def _build_index_map(self) -> np.ndarray:
        """Full layout (all operator slots) -> index into z, -1 when frozen."""
        spec = self.spec
        geo = spec.n_primitives * (spec.sides + 3)
        mapping = np.full(self.full_size, -1, dtype=int)
        mapping[:geo] = np.arange(geo)
        offset = geo
        for node in self.free_nodes:
            mapping[geo + 4 * node: geo + 4 * node + 4] = np.arange(offset, offset + 4)
            offset += 4
        return mapping

    def label_for_index(self, idx: int) -> str:
        spec = self.spec
        n_p, s = spec.n_primitives, spec.sides
        if idx < n_p:
            return f"cx[{idx}]"
        if idx < 2 * n_p:
            return f"cy[{idx - n_p}]"
        if idx < 3 * n_p:
            return f"theta[{idx - 2 * n_p}]"
        if idx < n_p * (s + 3):
            rest = idx - 3 * n_p
            return f"d[{rest // s}][{rest % s}]"
        rest = idx - n_p * (s + 3)
        return f"b[{rest // 4}][{rest % 4}]"

    def _denormalize_rows(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map z to (n_p, 3 + S) rows cx, cy, theta, d[0..S-1] and operator weights."""
        z = np.asarray(z, dtype=float).ravel()
        if z.size != self.n:
            raise ValueError(f"design vector has {z.size} entries, expected {self.n}")
        spec = self.spec
        n_p, s = spec.n_primitives, spec.sides
        rows = np.empty((n_p, 3 + s))
        for col, name in enumerate(("cx", "cy", "theta")):
            rows[:, col] = (self.bounds[name][0]
                            + self.scales[name] * z[col * n_p:(col + 1) * n_p])
        rows[:, 3:] = (self.bounds["d"][0]
                       + self.scales["d"] * z[3 * n_p:n_p * (s + 3)].reshape(n_p, s))

        weights = np.empty((spec.n_operators, 4))
        weights[self.free_nodes] = csg.softmax_encode(z[n_p * (s + 3):].reshape(-1, 4),
                                                      spec.softmax_scale)
        for node, op in self.frozen.items():
            weights[node] = csg.one_hot(op)
        return rows, weights

    def denormalize(self, z: np.ndarray) -> tuple[list[geometry.PolygonParams], np.ndarray]:
        """Map z to polygon parameters and operator weights (frozen injected)."""
        rows, weights = self._denormalize_rows(z)
        return [geometry.PolygonParams(*row[:3], row[3:]) for row in rows], weights

    def normalize_params(self, params) -> np.ndarray:
        """Inverse affine map of the geometry blocks (testing aid)."""
        rows = np.array([p.row for p in params])
        blocks = [(rows[:, col] - self.bounds[name][0]) / self.scales[name]
                  for col, name in enumerate(("cx", "cy", "theta"))]
        d = (rows[:, 3:] - self.bounds["d"][0]) / self.scales["d"]
        return np.concatenate(blocks + [d.ravel()])

    # -- forward evaluation --------------------------------------------------

    def forward(self, z: np.ndarray) -> sensitivity.ForwardState:
        """Full forward pass keeping the intermediates the gradients need.

        The tape and node fields are written into the Model's workspace, so
        the state returned is valid until the next forward on this Model.
        """
        t0 = time.perf_counter()
        self._state = None          # any earlier state's arrays get overwritten
        rows, weights = self._denormalize_rows(z)
        work = self._workspace()
        leaf_values = work.node_values[self.spec.n_operators:]
        _, tape = geometry.rasterize_with_tape(rows, self.grid, self.cfg,
                                               out=(leaf_values, work.tape))
        t1 = time.perf_counter()
        node_values = csg.evaluate_tree_values(weights, leaf_values, out=work.node_values,
                                               scratch=work.tree)
        t2 = time.perf_counter()
        _, u, j_val, g_v = self._solve(node_values)
        t3 = time.perf_counter()
        self._state = sensitivity.ForwardState(
            weights=weights, tape=tape, node_values=node_values, u=u, J=j_val, g_v=g_v,
            timings={"projection": t1 - t0, "tree": t2 - t1, "fea_sens": t3 - t2},
        )
        return self._state

    def gradients(self, state: sensitivity.ForwardState) -> tuple[np.ndarray, np.ndarray]:
        """(dJ/dz, dg_v/dz) of a completed forward pass.

        Both field seeds are pulled back together as one (2, n_cells) stack:
        one tree walk and one pass through the projection tape.  state must
        come from the last forward on this Model; an older one raises.
        """
        if state is not self._state:
            raise ValueError("stale forward state: a later forward pass on this "
                             "Model has overwritten its arrays")
        state.require_complete()
        work = self._work
        if work.tree is None:
            # allocated after the first solve, so they reuse the memory it freed
            n_p, n_cells = self.spec.n_primitives, self.grid.n_cells
            work.tree = csg.walk_scratch(n_p, n_cells, 2)
            work.chain = np.empty(4 * state.tape.block * n_cells)
        seeds = np.stack([
            sensitivity.grad_compliance(state.u, state.field_values, self.mesh,
                                        self.material, self.k0),
            sensitivity.grad_volume(self.mesh, self.spec.vf_star)])
        leaf_seeds, weight_grads = csg.tree_backward(state.weights, state.node_values,
                                                     seeds, scratch=work.tree)
        d_cx, d_cy, d_th, d_d = geometry.projection_param_grad(state.tape, leaf_seeds,
                                                               scratch=work.chain)
        s = self.scales
        b = state.weights[self.free_nodes]
        gb = weight_grads[:, self.free_nodes]
        d_b = self.spec.softmax_scale * b * (gb - np.vecdot(b, gb)[..., None])
        out = np.hstack([d_cx * s["cx"], d_cy * s["cy"], d_th * s["theta"],
                         (d_d * s["d"]).reshape(2, -1), d_b.reshape(2, -1)])
        return out[0], out[1]

    def _workspace(self) -> "_Workspace":
        if self._work is None:
            n_p, n_cells = self.spec.n_primitives, self.grid.n_cells
            tape = geometry.ProjectionTape.empty(n_p, self.spec.sides, n_cells)
            self._work = _Workspace(tape, np.empty((2 * n_p - 1, n_cells)))
        return self._work

    def _release(self) -> None:
        """Drop the workspace and the state it backs, for one-shot callers."""
        self._work = self._state = None

    def _solve(self, node_values: np.ndarray) -> tuple:
        """Clipped root field, displacements, J and g_v of the tree's node values."""
        root = np.clip(node_values[0], 0.0, 1.0)
        u, j_val = fea.analyze(root, self.mesh, self.material, self.bcs, self.k0)
        return root, u, j_val, fea.volume_constraint(root, self.spec.vf_star, self.mesh)

    def evaluate(self, z: np.ndarray) -> tuple[float, float]:
        """(J, g_v) only; used by finite differencing.

        A primitive's field depends only on its own row (cx, cy, theta, d),
        so the leaf fields of the previous call are kept and only the
        primitives whose row differs from it, bit for bit, are projected
        again: one for a geometry entry of a central difference, none for
        an operator entry.  A row is stored only after its field is, so a
        call that raises leaves rows and fields matching.
        """
        rows, weights = self._denormalize_rows(z)
        known = self._leaf_rows
        changed = (np.arange(len(rows)) if known is None else np.flatnonzero(
            (rows.view(np.int64) != known.view(np.int64)).any(axis=1)))
        if changed.size:
            fields = geometry.rasterize_with_tape(rows[changed], self.grid, self.cfg)[0]
            if known is None:
                self._leaf_fields, self._leaf_rows = fields, rows
            else:
                self._leaf_fields[changed] = fields
                known[changed] = rows[changed]
        _, _, j_val, g_v = self._solve(csg.evaluate_tree_values(weights, self._leaf_fields))
        return j_val, g_v

    def forward_gradients(self, z: np.ndarray):
        """(J, g_v, dJ/dz, dg_v/dz) in one pass; the workspace is dropped after."""
        try:
            state = self.forward(z)
            return (state.J, state.g_v, *self.gradients(state))
        finally:
            self._release()


@dataclass(eq=False)
class _Workspace:
    """The arrays one iteration fills, allocated once per Model.

    Reusing them keeps each forward and gradients pass from taking fresh
    pages from the system, whose first touches cost milliseconds per step
    on a deep tree.  The leaf fields are the leaf rows of node_values.
    The first forward allocates the tape and node fields, the first
    gradients the two scratch arrays of the pullbacks.
    """

    tape: geometry.ProjectionTape
    node_values: np.ndarray             # (n_nodes, n_cells), root in row 0
    tree: np.ndarray | None = None      # csg.walk_scratch for two seeds
    chain: np.ndarray | None = None     # projection_param_grad's, for two seeds


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
    params: list
    tree: csg.CsgTree                  # relaxed (softmax) weights
    snapped_tree: csg.CsgTree
    pruned_tree: csg.PrunedTree
    field: geometry.DensityField       # relaxed root field
    field_snapped: geometry.DensityField
    J: float                           # relaxed compliance
    J_snapped: float
    g_v: float
    g_v_snapped: float
    iterations: int
    reason: str
    history: RunHistory

    @property
    def empty_design(self) -> bool:
        return self.pruned_tree.is_empty


def optimize(spec: ProblemSpec, callback=None) -> OptimizeResult:
    """Run the full loop: project, combine, solve, differentiate, update.

    Stops at the first of KKT residual < kkt_tol, design step < step_tol, or
    max_iter updates, then snaps the operator weights to one-hot, re-solves
    on the snapped tree and prunes empty nodes.
    """
    model = Model(spec)
    cfg = spec.mma
    z = initialize(spec)
    state = MmaState.fresh()
    history = RunHistory()
    reason = "max_iter"

    for it in range(1, cfg.max_iter + 1):
        t_start = time.perf_counter()
        try:
            fwd = model.forward(z)
            t_grad0 = time.perf_counter()
            dj, dg = model.gradients(fwd)
            t_grad1 = time.perf_counter()
        except fea.SingularSystemError as exc:
            raise SolverAbort(str(exc), history, z, it) from exc
        if not (math.isfinite(fwd.J) and math.isfinite(fwd.g_v)
                and np.isfinite(dj).all() and np.isfinite(dg).all()):
            raise SolverAbort("non-finite J, g_v or gradient", history, z, it)
        z_new, state = mma_update(z, fwd.J, dj, fwd.g_v, dg, state, cfg)
        step = float(np.abs(z_new - z).max())
        kkt = kkt_residual(z_new, dj, fwd.g_v, dg, state.lam)
        t_end = time.perf_counter()
        history.append(IterationRecord(
            iteration=it, J=fwd.J, g_v=fwd.g_v, kkt=kkt, step=step,
            t_projection=fwd.timings["projection"], t_tree=fwd.timings["tree"],
            t_fea_sens=fwd.timings["fea_sens"] + (t_grad1 - t_grad0),
            t_total=t_end - t_start, z=np.array(z),
        ))
        if callback is not None:
            callback(history.records[-1])
        log.debug("iter %d: J=%.6g g=%.3e kkt=%.3e step=%.3e", it, fwd.J, fwd.g_v,
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
    rows, weights = model._denormalize_rows(z)
    tree = csg.CsgTree(model.spec.tree_depth, weights, model.frozen)
    # the last projection fills the loop's workspace, which the Model then
    # drops: nothing of the size of the tape is allocated again
    work = model._workspace()
    model._release()
    node_values = work.node_values
    leaf_values = node_values[model.spec.n_operators:]
    geometry.rasterize_with_tape(rows, model.grid, model.cfg, out=(leaf_values, work.tape))

    def solve_tree(t: csg.CsgTree):
        try:
            root, _, j_val, g_v = model._solve(
                csg.evaluate_tree_values(t.weights, leaf_values, out=node_values))
        except fea.SingularSystemError as exc:
            raise SolverAbort(str(exc), history, z, len(history)) from exc
        return geometry.DensityField(root, model.grid), j_val, g_v

    field, j_relaxed, g_relaxed = solve_tree(tree)
    snapped = tree.snapped()
    field_snapped, j_snapped, g_snapped = solve_tree(snapped)
    pruned = csg.prune(snapped, leaf_values)

    return OptimizeResult(
        z=np.array(z), params=model.denormalize(z)[0], tree=tree, snapped_tree=snapped,
        pruned_tree=pruned, field=field, field_snapped=field_snapped,
        J=j_relaxed, J_snapped=j_snapped, g_v=g_relaxed, g_v_snapped=g_snapped,
        iterations=len(history), reason=reason, history=history,
    )

