"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The long-running structural benchmarks share session fixtures, so the whole
suite costs a handful of full optimization runs.
"""

import concurrent.futures
import time

import numpy as np
import pytest

from csgtopo import csg, fea
from csgtopo.csg import combine, evaluate_tree_values, one_hot, prune
from csgtopo.geometry import rasterize_primitive
from csgtopo.config import MmaConfig, ProblemSpec
from csgtopo.mma import MmaState, mma_update
from csgtopo.problem import Model, builtin_problem, optimize
from csgtopo.sensitivity import fd_check
from conftest import connected_design, node_partials, pruned_values

EPS_EMPTY = 0.01


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="session")
def mbb_default():
    """Criterion 4 run, shared with the mesh study and pruning criteria."""
    t0 = time.perf_counter()
    result = optimize(ProblemSpec())
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def mbb_leaf_values(mbb_default):
    result, _ = mbb_default
    model = Model(ProblemSpec())
    return np.vstack([rasterize_primitive(row, model.grid, model.cfg).values
                      for row in model.denormalize(result.z)[0]])


def test_criterion_1_boolean_table_exactness():
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 11)
    xs, ys = np.meshgrid(grid, grid)
    closed_forms = [
        lambda x, y: x * y,
        lambda x, y: x + y - x * y,
        lambda x, y: x - x * y,
        lambda x, y: y - x * y,
    ]
    worst = 0.0
    for op, form in enumerate(closed_forms):
        got = combine(xs, ys, one_hot(op))
        worst = max(worst, float(np.abs(got - form(xs, ys)).max()))
    elapsed = time.perf_counter() - t0
    report(1, "Boolean table exactness", worst <= 1e-15 and elapsed < 1.0,
           f"max abs dev {worst:.2e}, {elapsed:.3f}s")


def test_criterion_2_operator_interpolation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    corners = np.eye(4)
    worst_lin = 0.0
    for _ in range(200):
        rx, ry = rng.random(2)
        lam = rng.dirichlet(np.ones(4))
        mixed = float(combine(rx, ry, corners.T @ lam))
        split = float(lam @ [combine(rx, ry, corners[i]) for i in range(4)])
        worst_lin = max(worst_lin, abs(mixed - split))

    # combine is quadratic in the operands and linear in the weights, so a
    # wide power-of-two step keeps central differences truncation-free and
    # the 1e-9 relative agreement is limited only by round-off
    worst_fd = 0.0
    h = 0.25
    for _ in range(200):
        rx, ry = rng.random(2)
        b = rng.dirichlet(np.ones(4))
        dx, dy, grads = node_partials(rx, ry, b)
        fd_x = (combine(rx + h, ry, b) - combine(rx - h, ry, b)) / (2 * h)
        fd_y = (combine(rx, ry + h, b) - combine(rx, ry - h, b)) / (2 * h)
        pairs = [(dx, fd_x), (dy, fd_y)]
        for i in range(4):
            bp, bm = b.copy(), b.copy()
            bp[i] += h
            bm[i] -= h
            fd = (combine(rx, ry, bp) - combine(rx, ry, bm)) / (2 * h)
            pairs.append((float(grads[i]), float(fd)))
        for a, fd in pairs:
            if abs(fd) > 1e-9:
                worst_fd = max(worst_fd, abs(a - fd) / abs(fd))
            else:
                assert abs(a - fd) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = worst_lin <= 1e-12 and worst_fd <= 1e-9 and elapsed < 1.0
    report(2, "operator interpolation",
           ok, f"linearity {worst_lin:.2e}, derivative FD {worst_fd:.2e}, "
               f"{elapsed:.3f}s")


def test_criterion_3_gradient_verification():
    t0 = time.perf_counter()
    spec = ProblemSpec(nx=12, ny=6, tree_depth=2, sides=4)
    model = Model(spec)
    z = connected_design(spec)
    entries = fd_check(model, z, step=1e-6)
    worst = 0.0
    checked = 0
    for e in entries:
        for rel, fd in ((e.rel_err_j, e.fd_j), (e.rel_err_g, e.fd_g)):
            if abs(fd) > 1e-7:
                checked += 1
                worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0 and checked > 0
    report(3, "gradient verification",
           ok, f"worst rel err {worst:.2e} over {checked} gated entries, "
               f"{elapsed:.1f}s")


def test_criterion_4_mbb_benchmark(mbb_default):
    result, elapsed = mbb_default
    ok = (result.iterations <= 200 and result.g_v <= 1e-2
          and 58.0 <= result.J_snapped <= 95.0
          and np.isfinite(result.J) and elapsed < 900.0)
    report(4, "MBB benchmark",
           ok, f"iters {result.iterations} ({result.reason}), "
               f"g_v {result.g_v:.2e}, J_snapped {result.J_snapped:.2f} "
               f"in [58, 95], {elapsed:.0f}s")


def test_criterion_5_mesh_study(mbb_default):
    js = {"60x30": mbb_default[0].J_snapped}
    for nx, ny in ((80, 40), (100, 50)):
        res = optimize(ProblemSpec(nx=nx, ny=ny))
        js[f"{nx}x{ny}"] = res.J_snapped
    lo, hi = min(js.values()), max(js.values())
    ok = hi <= 1.15 * lo
    report(5, "mesh study", ok,
           ", ".join(f"{k}: {v:.2f}" for k, v in js.items())
           + f"; band {hi / lo:.3f} <= 1.15")


def test_criterion_6_operator_freezes():
    spec_a = ProblemSpec(frozen_operators={0: "difference"})
    res_a = optimize(spec_a)
    root_op = csg.OPERATOR_NAMES[res_a.ops[0]]
    ok_a = (root_op == "difference" and res_a.g_v <= 1e-2
            and 55.0 <= res_a.J_snapped <= 110.0
            and res_a.iterations <= 200)

    spec_b = ProblemSpec(frozen_operators={k: "union" for k in range(15)})
    res_b = optimize(spec_b)
    ops = {csg.OPERATOR_NAMES[res_b.ops[k]] for k in range(15)}
    ok_b = (ops == {"union"} and res_b.g_v <= 1e-2
            and 55.0 <= res_b.J_snapped <= 110.0
            and res_b.iterations <= 200)

    report(6, "operator freezes", ok_a and ok_b,
           f"root-difference: op={root_op}, J={res_a.J_snapped:.2f}, "
           f"g={res_a.g_v:.2e}; all-union: ops={sorted(ops)}, "
           f"J={res_b.J_snapped:.2f}, g={res_b.g_v:.2e}")


def test_criterion_7_pruning_fidelity(mbb_default, mbb_leaf_values):
    t0 = time.perf_counter()
    result, _ = mbb_default
    ops = result.ops
    full_root = evaluate_tree_values(np.eye(4)[ops], mbb_leaf_values)[0]
    pruned = prune(ops, mbb_leaf_values, EPS_EMPTY)
    pruned_root = pruned_values(pruned, ops, mbb_leaf_values)
    deviation = float(np.abs(full_root - pruned_root).max())

    # every kept node's subtree, evaluated from the leaves
    weak_nodes = sum(
        1 for k, _, _ in pruned
        if float(pruned_values(pruned, ops, mbb_leaf_values, k).max()) < EPS_EMPTY)
    elapsed = time.perf_counter() - t0
    ok = deviation <= 2 * EPS_EMPTY and weak_nodes == 0 and elapsed < 10.0
    report(7, "pruning fidelity", ok,
           f"max abs deviation {deviation:.3e} <= {2 * EPS_EMPTY}, "
           f"{weak_nodes} empty nodes left, {elapsed:.1f}s")


def test_criterion_8_pareto_monotonicity():
    specs = []
    for vf in (0.3, 0.4, 0.5, 0.6):
        spec = ProblemSpec(nx=100, ny=50, tree_depth=6, vf_star=vf,
                           benchmark="mid_cantilever")
        specs.append(spec)
    # the runs are independent, and each is the same bit for bit in a worker
    with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
        js = [res.J_snapped for res in pool.map(optimize, specs)]
    ok = all(js[i + 1] <= 1.05 * js[i] for i in range(len(js) - 1))
    report(8, "Pareto monotonicity", ok,
           "J(vf*): " + ", ".join(f"{v:.2f}" for v in js)
           + " non-increasing within 5%")


def test_criterion_9_fea_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for nx, ny in ((10, 5), (20, 10), (40, 20)):
        mesh = fea.Mesh(nx, ny, float(nx), float(ny))
        bcs = builtin_problem("mbb", nx, ny)
        K = fea.assemble(np.ones(mesh.n_elements), mesh, fea.Material())
        f = fea.load_vector(bcs, mesh.ndof)
        K_red, f_red, _ = fea.reduce_system(K, f, bcs.fixed_dofs)
        j_sparse = fea.solve(K_red, f_red).J
        j_dense = float(f_red @ np.linalg.solve(K_red.toarray(), f_red))
        worst = max(worst, abs(j_sparse - j_dense) / abs(j_dense))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 30.0
    report(9, "FEA oracle equivalence", ok,
           f"worst rel diff {worst:.2e} up to 40x20, {elapsed:.1f}s")


def test_criterion_10_mma_unit_suite():
    t0 = time.perf_counter()
    cfg = MmaConfig()

    z = np.array([0.2])
    state = MmaState()
    ok_invariants = True
    for _ in range(50):
        dj = np.array([2 * (z[0] - 0.7)])
        z_new, state = mma_update(z, float((z[0] - 0.7) ** 2), dj,
                                  float(z[0] - 10.0), np.array([1.0]), state, cfg)
        ok_invariants &= bool(np.abs(z_new - z).max() <= cfg.move_limit + 1e-15)
        ok_invariants &= bool((z_new >= 0).all() and (z_new <= 1).all())
        z = z_new
    err1 = abs(z[0] - 0.7)

    n = 8
    z = np.full(n, 0.8)
    state = MmaState()
    for _ in range(100):
        z_new, state = mma_update(z, float(z @ z), 2 * z,
                                  float(0.2 * n - z.sum()), -np.ones(n),
                                  state, cfg)
        ok_invariants &= bool(np.abs(z_new - z).max() <= cfg.move_limit + 1e-15)
        ok_invariants &= bool((z_new >= 0).all() and (z_new <= 1).all())
        z = z_new
    err2 = float(np.abs(z - 0.2).max())

    elapsed = time.perf_counter() - t0
    ok = err1 < 1e-3 and err2 < 1e-3 and ok_invariants and elapsed < 5.0
    report(10, "MMA unit suite", ok,
           f"toy errors {err1:.2e}, {err2:.2e}; invariants "
           f"{'held' if ok_invariants else 'violated'}, {elapsed:.1f}s")
