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
    def frozen_indices(self) -> dict[int, int]:
        return {int(k): csg.operator_index(v) for k, v in self.frozen_operators.items()}

    @property
    def n_free_operators(self) -> int:
        return self.n_operators - len(self.frozen_operators)

    @property
    def design_size(self) -> int:
        return self.n_primitives * (self.sides + 3) + 4 * self.n_free_operators

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
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                fail(name, f"must be an integer, got {value!r}")
        for name in ("lx", "ly", "e0", "emin", "penalty", "nu", "vf_star", "gamma",
                     "beta", "lse_scale", "softmax_scale"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, numbers.Real)):
                fail(name, f"must be a number, got {value!r}")
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
            node = int(node)
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
        self.f = fea.load_vector(self.bcs, self.mesh.ndof)
        self.frozen = spec.frozen_indices
        self.free_nodes = [k for k in range(spec.n_operators) if k not in self.frozen]
        self.bounds = spec.bounds()
        self.scales = {name: hi - lo for name, (lo, hi) in self.bounds.items()}
        self.n = spec.design_size
        self.full_size = spec.full_size
        self.full_to_free = self._build_index_map()

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

    def denormalize(self, z: np.ndarray) -> tuple[list[geometry.PolygonParams], np.ndarray]:
        """Map z to polygon parameters and operator weights (frozen injected)."""
        z = np.asarray(z, dtype=float).ravel()
        if z.size != self.n:
            raise ValueError(f"design vector has {z.size} entries, expected {self.n}")
        spec = self.spec
        n_p, s = spec.n_primitives, spec.sides
        (cx_lo, _), (cy_lo, _) = self.bounds["cx"], self.bounds["cy"]
        (th_lo, _), (d_lo, _) = self.bounds["theta"], self.bounds["d"]
        cx = cx_lo + self.scales["cx"] * z[:n_p]
        cy = cy_lo + self.scales["cy"] * z[n_p:2 * n_p]
        th = th_lo + self.scales["theta"] * z[2 * n_p:3 * n_p]
        d = d_lo + self.scales["d"] * z[3 * n_p:3 * n_p + n_p * s].reshape(n_p, s)
        params = [geometry.PolygonParams(cx[i], cy[i], th[i], d[i]) for i in range(n_p)]

        weights = np.empty((spec.n_operators, 4))
        weights[self.free_nodes] = csg.softmax_encode(z[n_p * (s + 3):].reshape(-1, 4),
                                                      spec.softmax_scale)
        for node, op in self.frozen.items():
            weights[node] = csg.one_hot(op)
        return params, weights

    def normalize_params(self, params) -> np.ndarray:
        """Inverse affine map of the geometry blocks (testing aid)."""
        spec = self.spec
        n_p, s = spec.n_primitives, spec.sides
        out = np.empty(n_p * (s + 3))
        for i, p in enumerate(params):
            out[i] = (p.cx - self.bounds["cx"][0]) / self.scales["cx"]
            out[n_p + i] = (p.cy - self.bounds["cy"][0]) / self.scales["cy"]
            out[2 * n_p + i] = (p.theta - self.bounds["theta"][0]) / self.scales["theta"]
            out[3 * n_p + i * s: 3 * n_p + (i + 1) * s] = \
                (p.d - self.bounds["d"][0]) / self.scales["d"]
        return out

    # -- forward evaluation --------------------------------------------------

    def forward(self, z: np.ndarray) -> sensitivity.ForwardState:
        """Full forward pass keeping the intermediates the gradients need."""
        t0 = time.perf_counter()
        params, weights = self.denormalize(z)
        leaf_values, tape = geometry.rasterize_with_tape(params, self.grid, self.cfg)
        t1 = time.perf_counter()
        node_values = csg.evaluate_tree_values(weights, leaf_values)
        t2 = time.perf_counter()
        root = np.clip(node_values[0], 0.0, 1.0)
        u, j_val = fea.analyze(root, self.mesh, self.material, self.bcs, self.k0)
        g_v = fea.volume_constraint(root, self.spec.vf_star, self.mesh)
        t3 = time.perf_counter()
        return sensitivity.ForwardState(
            weights=weights, tape=tape, node_values=node_values, u=u, J=j_val, g_v=g_v,
            timings={"projection": t1 - t0, "tree": t2 - t1, "fea_sens": t3 - t2},
        )

    def gradients(self, state: sensitivity.ForwardState) -> tuple[np.ndarray, np.ndarray]:
        """(dJ/dz, dg_v/dz) of a completed forward pass.

        Both field seeds are pulled back together as one (2, n_cells) stack:
        one tree walk and one pass through the projection tape.
        """
        state.require_complete()
        seeds = np.stack([
            sensitivity.grad_compliance(state.u, state.field_values, self.mesh,
                                        self.material, self.k0),
            sensitivity.grad_volume(self.mesh, self.spec.vf_star)])
        leaf_seeds, weight_grads = csg.tree_backward(state.weights, state.node_values,
                                                     seeds)
        d_cx, d_cy, d_th, d_d = geometry.projection_param_grad(state.tape, leaf_seeds)
        s = self.scales
        b = state.weights[self.free_nodes]
        gb = weight_grads[:, self.free_nodes]
        d_b = self.spec.softmax_scale * b * (gb - np.vecdot(b, gb)[..., None])
        out = np.hstack([d_cx * s["cx"], d_cy * s["cy"], d_th * s["theta"],
                         (d_d * s["d"]).reshape(2, -1), d_b.reshape(2, -1)])
        return out[0], out[1]

    def evaluate(self, z: np.ndarray) -> tuple[float, float]:
        """(J, g_v) only; used by finite differencing."""
        state = self.forward(z)
        return state.J, state.g_v

    def forward_gradients(self, z: np.ndarray):
        """(J, g_v, dJ/dz, dg_v/dz) in one pass."""
        state = self.forward(z)
        return (state.J, state.g_v, *self.gradients(state))


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

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


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
        # release the tape and node fields before the next forward pass
        del fwd
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
    spec = model.spec
    params, weights = model.denormalize(z)
    tree = csg.CsgTree(spec.tree_depth, weights, model.frozen)
    leaf_values = geometry.rasterize_with_tape(params, model.grid, model.cfg)[0]

    def solve_tree(t: csg.CsgTree):
        values = csg.evaluate_tree_values(t.weights, leaf_values)
        root = np.clip(values[0], 0.0, 1.0)
        try:
            _, j_val = fea.analyze(root, model.mesh, model.material, model.bcs, model.k0)
        except fea.SingularSystemError as exc:
            raise SolverAbort(str(exc), history, z, len(history)) from exc
        g_v = fea.volume_constraint(root, spec.vf_star, model.mesh)
        return geometry.DensityField(root, model.grid), j_val, g_v

    field, j_relaxed, g_relaxed = solve_tree(tree)
    snapped = tree.snapped()
    field_snapped, j_snapped, g_snapped = solve_tree(snapped)
    pruned = csg.prune(snapped, leaf_values)

    return OptimizeResult(
        z=np.array(z), params=params, tree=tree, snapped_tree=snapped,
        pruned_tree=pruned, field=field, field_snapped=field_snapped,
        J=j_relaxed, J_snapped=j_snapped, g_v=g_relaxed, g_v_snapped=g_snapped,
        iterations=len(history), reason=reason, history=history,
    )

