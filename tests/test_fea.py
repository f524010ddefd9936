import numpy as np
import pytest
from scipy.linalg import cholesky_banded

from csgtopo import fea
from csgtopo.fea import (BandLayout, BoundaryConditions, Material, Mesh,
                         SingularSystemError, analyze, assemble, element_energies,
                         element_stiffness_template, load_vector, reduce_system,
                         simp_modulus, solve, splu, stiffness_change_product,
                         volume_constraint)
from csgtopo.problem import builtin_problem
from conftest import counting_splu


def closed_form_unit_square_k0(nu: float) -> np.ndarray:
    """Independent oracle: textbook plane-stress bilinear-quad stiffness.

    Standard closed form for the unit square with unit modulus; the 8x8
    matrix is assembled from the eight distinct entries by its symmetry
    pattern.
    """
    k = np.array([
        0.5 - nu / 6, 0.125 + nu / 8, -0.25 - nu / 12, -0.125 + 3 * nu / 8,
        -0.25 + nu / 12, -0.125 - nu / 8, nu / 6, 0.125 - 3 * nu / 8,
    ])
    pattern = np.array([
        [0, 1, 2, 3, 4, 5, 6, 7],
        [1, 0, 7, 6, 5, 4, 3, 2],
        [2, 7, 0, 5, 6, 3, 4, 1],
        [3, 6, 5, 0, 7, 2, 1, 4],
        [4, 5, 6, 7, 0, 1, 2, 3],
        [5, 4, 3, 2, 1, 0, 7, 6],
        [6, 3, 4, 1, 2, 7, 0, 5],
        [7, 2, 1, 4, 3, 6, 5, 0],
    ])
    return k[pattern] / (1 - nu ** 2)


# -- SIMP ---------------------------------------------------------------------

def test_simp_endpoints():
    m = Material()
    assert simp_modulus(1.0, m) == pytest.approx(m.e0, abs=1e-15)
    assert simp_modulus(0.0, m) == pytest.approx(m.emin, abs=1e-18)


def test_simp_midpoint():
    m = Material(e0=1.0, emin=1e-9, penalty=3.0)
    assert simp_modulus(0.5, m) == pytest.approx(0.125, rel=1e-7)


def test_simp_rejects_out_of_range():
    with pytest.raises(ValueError):
        simp_modulus(1.5, Material())
    with pytest.raises(ValueError):
        simp_modulus(-0.5, Material())


# -- element stiffness -----------------------------------------------------------

def test_k0_symmetric():
    k0 = element_stiffness_template(0.3)
    assert np.abs(k0 - k0.T).max() < 1e-14


def test_k0_rigid_translations():
    k0 = element_stiffness_template(0.3)
    tx = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=float)
    ty = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=float)
    assert np.abs(k0 @ tx).max() < 1e-12
    assert np.abs(k0 @ ty).max() < 1e-12


def test_k0_leading_diagonal_closed_form():
    k0 = element_stiffness_template(0.3)
    assert k0[0, 0] == pytest.approx((0.5 - 0.3 / 6) / (1 - 0.09), rel=1e-12)
    assert k0[0, 0] == pytest.approx(0.4945, abs=1e-4)


@pytest.mark.parametrize("nu", [0.2, 0.3, 0.4])
def test_k0_matches_textbook_matrix(nu):
    got = element_stiffness_template(nu, 1.0, 1.0)
    assert np.abs(got - closed_form_unit_square_k0(nu)).max() < 1e-13


def test_k0_rectangular_matches_symbolic_integration():
    # exact symbolic integral of B^T D B over a 1.5 x 0.5 element
    import sympy as sp

    nu_v, ax_v, ay_v = 0.3, 1.5, 0.5
    xi, eta = sp.symbols("xi eta")
    n = [(1 - xi) * (1 - eta) / 4, (1 + xi) * (1 - eta) / 4,
         (1 + xi) * (1 + eta) / 4, (1 - xi) * (1 + eta) / 4]
    d0 = sp.Matrix([[1, nu_v, 0], [nu_v, 1, 0], [0, 0, (1 - nu_v) / 2]]) / (1 - nu_v ** 2)
    b = sp.zeros(3, 8)
    for a in range(4):
        dn_dx = sp.diff(n[a], xi) * sp.Rational(2) / ax_v
        dn_dy = sp.diff(n[a], eta) * sp.Rational(2) / ay_v
        b[0, 2 * a] = dn_dx
        b[1, 2 * a + 1] = dn_dy
        b[2, 2 * a] = dn_dy
        b[2, 2 * a + 1] = dn_dx
    integrand = b.T * d0 * b * sp.Rational(ax_v * ay_v) / 4
    exact = sp.integrate(sp.integrate(integrand, (xi, -1, 1)), (eta, -1, 1))
    exact = np.array(exact, dtype=float)
    got = element_stiffness_template(nu_v, ax_v, ay_v)
    assert np.abs(got - exact).max() < 1e-12


def test_k0_rejects_bad_inputs():
    with pytest.raises(ValueError):
        element_stiffness_template(0.6)
    with pytest.raises(ValueError):
        element_stiffness_template(0.3, -1.0, 1.0)


# -- mesh -------------------------------------------------------------------------

@pytest.mark.parametrize("mesh", [Mesh(4, 4, 4.0, 4.0), Mesh(5, 3, 7.0, 2.0)],
                         ids=["square", "5x3"])
def test_element_centres_are_the_projection_sample_points(mesh):
    # element e's four corner nodes average to (xs[e % nx], ys[e // nx]), so
    # the field the projection samples maps one-to-one onto the elements
    nodes = mesh.element_dofs[:, ::2] // 2
    corners_x = nodes // (mesh.ny + 1) * mesh.ax
    corners_y = nodes % (mesh.ny + 1) * mesh.ay
    e = np.arange(mesh.n_elements)
    assert np.allclose(corners_x.mean(axis=1), mesh.xs[e % mesh.nx], rtol=0, atol=1e-12)
    assert np.allclose(corners_y.mean(axis=1), mesh.ys[e // mesh.nx], rtol=0, atol=1e-12)


@pytest.mark.parametrize("args", [(0, 3, 1.0, 1.0), (3, 0, 1.0, 1.0),
                                  (3, 3, 0.0, 1.0), (3, 3, 1.0, -1.0)])
def test_mesh_rejects_empty_or_non_positive_dimensions(args):
    with pytest.raises(ValueError):
        Mesh(*args)


# -- assembly ---------------------------------------------------------------------

def test_assemble_single_element_equals_scaled_k0():
    mesh = Mesh(1, 1, 1.0, 1.0)
    m = Material()
    k0 = element_stiffness_template(m.nu)
    K = assemble(np.array([0.7]), mesh, m).toarray()
    e = simp_modulus(0.7, m)
    dofs = mesh.element_dofs[0]  # global K stores K0 under the corner->dof map
    assert np.abs(K[np.ix_(dofs, dofs)] - e * k0).max() < 1e-14


def test_assemble_solid_plate_is_plain_stiffness():
    mesh = Mesh(4, 3, 4.0, 3.0)
    m = Material()
    K = assemble(np.ones(mesh.n_elements), mesh, m).toarray()
    k0 = element_stiffness_template(m.nu)
    ref = np.zeros((mesh.ndof, mesh.ndof))
    for dofs in mesh.element_dofs:
        ref[np.ix_(dofs, dofs)] += m.e0 * k0
    assert np.abs(K - ref).max() < 1e-12


def test_assemble_scaling_linearity():
    # with emin = 0 scaling, densities scale K by c and u by 1/c
    mesh = Mesh(6, 3, 6.0, 3.0)
    bcs = builtin_problem("mbb", 6, 3)
    rho = np.full(mesh.n_elements, 0.8)
    c = 2.0
    m1 = Material(e0=1.0, emin=1e-30, penalty=1.0)
    m2 = Material(e0=c, emin=1e-30, penalty=1.0)
    u1, j1 = analyze(rho, mesh, m1, bcs)
    u2, j2 = analyze(rho, mesh, m2, bcs)
    assert np.allclose(u2, u1 / c, rtol=1e-10, atol=1e-12)
    assert j2 == pytest.approx(j1 / c, rel=1e-10)


# -- solve ----------------------------------------------------------------------

def test_solve_zero_load():
    mesh = Mesh(3, 2, 3.0, 2.0)
    K = assemble(np.ones(mesh.n_elements), mesh, Material())
    res = solve(K, np.zeros(mesh.ndof))
    assert res.J == 0.0
    assert np.abs(res.u).max() == 0.0


def test_solve_matches_dense_oracle():
    mesh = Mesh(60, 30, 60.0, 30.0)
    m = Material()
    bcs = builtin_problem("mbb", 60, 30)
    K = assemble(np.ones(mesh.n_elements), mesh, m)
    f = load_vector(bcs, mesh.ndof)
    K_red, f_red, _ = reduce_system(K, f, bcs.fixed_dofs)
    res = solve(K_red, f_red)
    u_dense = np.linalg.solve(K_red.toarray(), f_red)
    j_dense = float(f_red @ u_dense)
    assert res.J == pytest.approx(j_dense, rel=1e-8)
    assert res.residual < 1e-10


def test_solve_load_scaling_quadratic():
    mesh = Mesh(8, 4, 8.0, 4.0)
    m = Material()
    bcs = builtin_problem("mbb", 8, 4)
    rho = np.full(mesh.n_elements, 0.6)
    K = assemble(rho, mesh, m)
    f = load_vector(bcs, mesh.ndof)
    K_red, f_red, _ = reduce_system(K, f, bcs.fixed_dofs)
    assert solve(K_red, 2 * f_red).J == pytest.approx(4 * solve(K_red, f_red).J,
                                                      rel=1e-12)


def test_solve_unconstrained_raises_with_diagnostic():
    mesh = Mesh(3, 2, 3.0, 2.0)
    K = assemble(np.ones(mesh.n_elements), mesh, Material())
    f = np.zeros(mesh.ndof)
    f[5] = -1.0
    with pytest.raises(SingularSystemError):
        solve(K, f)  # no constraints: rigid-body modes


def test_residual_contract_mesh_sizes():
    m = Material()
    for nx, ny in [(20, 10), (60, 30), (100, 50)]:
        mesh = Mesh(nx, ny, float(nx), float(ny))
        bcs = builtin_problem("mbb", nx, ny)
        K = assemble(np.ones(mesh.n_elements), mesh, m)
        f = load_vector(bcs, mesh.ndof)
        K_red, f_red, _ = reduce_system(K, f, bcs.fixed_dofs)
        assert solve(K_red, f_red).residual < 1e-10


def custom_bcs(nx: int, ny: int) -> BoundaryConditions:
    """Roller supports along the bottom edge, pinned in x at the lower-left
    node, two loads on the top edge."""
    bottom = np.arange(nx + 1) * (ny + 1)
    fixed = np.concatenate([2 * bottom + 1, [0]])
    top = np.arange(nx + 1) * (ny + 1) + ny
    return BoundaryConditions(fixed, {2 * top[nx // 3] + 1: -1.0,
                                      2 * top[-1]: 0.5})


# (mesh, bcs) pairs: both benchmarks, non-square elements, a custom BC set
FREE_DOF_CASES = {
    "mbb": (Mesh(24, 12, 24.0, 12.0), builtin_problem("mbb", 24, 12)),
    "mid_cantilever": (Mesh(20, 10, 20.0, 10.0), builtin_problem("mid_cantilever", 20, 10)),
    "non_square": (Mesh(16, 8, 24.0, 6.0), builtin_problem("mbb", 16, 8)),
    "custom": (Mesh(14, 6, 14.0, 6.0), custom_bcs(14, 6)),
}


def free_dof_system(case: str):
    """Random SIMP densities on a case: (mesh, bcs, rho, K_free, K_reduced, f_red)."""
    mesh, bcs = FREE_DOF_CASES[case]
    m = Material()
    rho = np.random.default_rng(3).random(mesh.n_elements)
    k0 = element_stiffness_template(m.nu, mesh.ax, mesh.ay)
    K_free = assemble(rho, mesh, m, k0, fixed_dofs=bcs.fixed_dofs)
    K_red, f_red, free = reduce_system(assemble(rho, mesh, m, k0),
                                       load_vector(bcs, mesh.ndof), bcs.fixed_dofs)
    assert np.array_equal(free, mesh.free_pattern(bcs.fixed_dofs).free)
    return mesh, bcs, rho, K_free, K_red, f_red


@pytest.mark.parametrize("case", sorted(FREE_DOF_CASES))
def test_free_dof_assembly_equals_reduced_full_assembly(case):
    *_, K_free, K_red, _ = free_dof_system(case)
    assert K_free.shape == K_red.shape
    diff = np.abs(K_free.toarray() - K_red.toarray()).max()
    assert diff <= 1e-14 * np.abs(K_red.data).max()


@pytest.mark.parametrize("case", sorted(FREE_DOF_CASES))
def test_banded_solve_matches_dense_oracle(case):
    mesh, bcs, rho, K_free, K_red, f_red = free_dof_system(case)
    res = solve(K_free, f_red)
    u_dense = np.linalg.solve(K_red.toarray(), f_red)
    j_dense = float(f_red @ u_dense)
    assert res.J == pytest.approx(j_dense, rel=1e-10)
    assert np.abs(res.u - u_dense).max() <= 1e-8 * np.abs(u_dense).max()
    u_full, j_full = analyze(rho, mesh, Material(), bcs)
    assert j_full == res.J
    assert np.array_equal(u_full[mesh.free_pattern(bcs.fixed_dofs).free], res.u)


def c_order_band(K) -> np.ndarray:
    """K's lower band in C order, built entry by entry from its CSC arrays."""
    n = K.shape[0]
    cols = np.repeat(np.arange(n, dtype=K.indices.dtype), np.diff(K.indptr))
    offsets = K.indices - cols
    lower = offsets >= 0
    band = np.zeros((int(offsets.max(initial=0)) + 1, n))
    band.ravel()[(offsets * n + cols)[lower]] = K.data[lower]
    return band


@pytest.mark.parametrize("case", sorted(FREE_DOF_CASES))
def test_banded_factor_equals_c_order_band_factor(case):
    mesh, bcs, _, K_free, K_red, _ = free_dof_system(case)
    want = cholesky_banded(c_order_band(K_free), lower=True, check_finite=False)
    assert np.array_equal(splu(K_free).factor, want)
    assert np.array_equal(splu(K_free, mesh.free_pattern(bcs.fixed_dofs).band).factor, want)
    assert np.array_equal(splu(K_red).factor,
                          cholesky_banded(c_order_band(K_red), lower=True,
                                          check_finite=False))


@pytest.mark.parametrize("case", sorted(FREE_DOF_CASES))
def test_free_pattern_band_layout_equals_reduced_matrix_layout(case):
    mesh, bcs, _, _, K_red, _ = free_dof_system(case)
    got = mesh.free_pattern(bcs.fixed_dofs).band
    want = BandLayout.of(K_red.indptr, K_red.indices)
    assert got.rows == want.rows
    assert np.array_equal(got.lower, want.lower)
    assert np.array_equal(got.positions, want.positions)


def test_repeated_analyze_on_one_mesh_equals_fresh_meshes():
    # nothing of one factorization carries over into the next
    bcs = builtin_problem("mbb", 16, 8)
    mesh = Mesh(16, 8, 16.0, 8.0)
    rng = np.random.default_rng(9)
    for rho in (rng.random(mesh.n_elements), rng.random(mesh.n_elements)):
        _, j_reused = analyze(rho, mesh, Material(), bcs)
        _, j_fresh = analyze(rho, Mesh(16, 8, 16.0, 8.0), Material(), bcs)
        assert j_reused == j_fresh


def test_free_pattern_cached_per_fixed_set():
    mesh = Mesh(6, 3, 6.0, 3.0)
    assert mesh.free_pattern([1, 0]) is mesh.free_pattern(np.array([0, 1, 1]))
    assert mesh.free_pattern([0]) is not mesh.free_pattern([0, 1])
    assert mesh.free_pattern().free.size == mesh.ndof
    with pytest.raises(ValueError):
        mesh.free_pattern([mesh.ndof])


@pytest.mark.parametrize("seed", range(5))
def test_one_extended_precision_correction_converges(seed):
    # a second correction step on a random SIMP density field leaves J at
    # the float64 floor of the design: on seed 0 it moves J by 3e-14
    # relative, as much as every further step does, on the others by <2e-15
    mesh = Mesh(60, 30, 60.0, 30.0)
    bcs = builtin_problem("mbb", 60, 30)
    rho = np.random.default_rng(seed).random(mesh.n_elements)
    K = assemble(rho, mesh, Material(), fixed_dofs=bcs.fixed_dofs)
    f = load_vector(bcs, mesh.ndof)[mesh.free_pattern(bcs.fixed_dofs).free]
    res = solve(K, f)
    factor = splu(K)
    u2 = res.u + factor.solve(f - (K @ res.u.astype(np.longdouble)).astype(float))
    assert abs(float(f @ u2) - res.J) < 1e-13 * res.J


def test_banded_factor_size_and_bandwidth():
    # half-bandwidth 2 (ny + 1) + 3 under the column-wise numbering
    mesh = Mesh(60, 30, 60.0, 30.0)
    bcs = builtin_problem("mbb", 60, 30)
    K = assemble(np.ones(mesh.n_elements), mesh, Material(), fixed_dofs=bcs.fixed_dofs)
    factor = splu(K)
    assert factor.nnz == (2 * 31 + 3 + 1) * K.shape[0]
    b = np.arange(K.shape[0], dtype=float)
    assert np.abs(K @ factor.solve(b) - b).max() < 1e-8 * np.abs(b).max()


# -- solves against a kept factor ---------------------------------------------------

# the default mesh and a tall one, whose band is wide for its dof count
NEAR_CASES = {"mbb_60x30": ("mbb", 60, 30), "cantilever_10x40": ("mid_cantilever", 10, 40)}


def near_system(case: str, seed: int = 4):
    """(mesh, bcs, rho, f, band, base): a random SIMP field's fresh solve."""
    name, nx, ny = NEAR_CASES[case]
    mesh, bcs = Mesh(nx, ny, float(nx), float(ny)), builtin_problem(name, nx, ny)
    pattern = mesh.free_pattern(bcs.fixed_dofs)
    rho = np.random.default_rng(seed).random(mesh.n_elements)
    f = load_vector(bcs, mesh.ndof)[pattern.free]
    base = solve(assemble(rho, mesh, Material(), fixed_dofs=bcs.fixed_dofs), f, pattern.band)
    return mesh, bcs, rho, f, pattern.band, base


def near_solve(field, rho, base, mesh, bcs, f, band):
    """field's solve against base, the solve of rho, with its stiffness."""
    m = Material()
    k0 = element_stiffness_template(m.nu)
    K = assemble(field, mesh, m, k0, bcs.fixed_dofs)
    delta = stiffness_change_product(field, rho, base.u, mesh, m, k0, bcs.fixed_dofs)
    return solve(K, f, band, (base, delta)), K


@pytest.mark.parametrize("case", sorted(NEAR_CASES))
def test_near_solve_matches_the_fresh_solve(case, monkeypatch):
    mesh, bcs, rho, f, band, base = near_system(case)
    moved = np.array(rho)
    moved[np.random.default_rng(1).choice(mesh.n_elements, 6, replace=False)] += 1e-6
    calls = counting_splu(monkeypatch)
    near, K = near_solve(moved, rho, base, mesh, bcs, f, band)
    assert calls == [] and near.factor is None
    fresh = solve(K, f, band)
    assert abs(near.J - fresh.J) <= 1e-12 * fresh.J
    assert near.residual < 1e-10


@pytest.mark.parametrize("n_moved", [1, 100])
@pytest.mark.parametrize("case", sorted(NEAR_CASES))
def test_near_solve_reports_the_change_of_j_below_its_rounding(case, n_moved):
    # J_change = f.v against v refined to convergence with extended-precision
    # residuals: it is off by far less than eps J, the rounding of J alone,
    # which a difference of two J carries (the worst measured was 4e-4 eps J)
    mesh, bcs, rho, f, band, base = near_system(case)
    moved = np.array(rho)
    moved[np.random.default_rng(1).choice(mesh.n_elements, n_moved, replace=False)] += 1e-6
    near, K = near_solve(moved, rho, base, mesh, bcs, f, band)
    m = Material()
    delta = stiffness_change_product(moved, rho, base.u, mesh, m,
                                     element_stiffness_template(m.nu), bcs.fixed_dofs)
    rhs = base.exact_residual - delta
    v = np.zeros_like(base.u)
    for _ in range(10):
        v = v + base.factor.solve(fea._residual_extended(K, v, rhs))
    want = float(f.astype(np.longdouble) @ v.astype(np.longdouble))
    assert abs(near.J_change - want) <= 1e-2 * np.finfo(float).eps * base.J
    assert near.J == float(f @ near.u)
    assert solve(K, f, band).J_change is None


def test_stiffness_change_product_equals_the_assembled_difference():
    # (K - K_b) u on the free dofs, from two fields two elements apart
    mesh, bcs, rho, *_ = near_system("mbb_60x30")
    moved = np.array(rho)
    moved[[7, 800]] = [0.5, 1.0]
    m = Material()
    k0 = element_stiffness_template(m.nu)
    u = np.random.default_rng(2).standard_normal(mesh.free_pattern(bcs.fixed_dofs).free.size)
    got = stiffness_change_product(moved, rho, u, mesh, m, k0, bcs.fixed_dofs)
    K, K_b = (assemble(r, mesh, m, k0, bcs.fixed_dofs) for r in (moved, rho))
    want = (K - K_b) @ u
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # only the dofs of the changed elements move
    touched = np.isin(mesh.free_pattern(bcs.fixed_dofs).free, mesh.element_dofs[[7, 800]])
    assert not got[~touched].any() and got[touched].any()


@pytest.mark.parametrize("case", sorted(NEAR_CASES))
def test_far_field_falls_back_to_a_fresh_factor(case, monkeypatch):
    mesh, bcs, rho, f, band, base = near_system(case)
    other = np.random.default_rng(9).random(mesh.n_elements)
    calls = counting_splu(monkeypatch)
    near, K = near_solve(other, rho, base, mesh, bcs, f, band)
    assert len(calls) == 1 and near.factor is not None
    fresh = solve(K, f, band)
    assert near.J == fresh.J and np.array_equal(near.u, fresh.u)


def test_near_solve_fails_as_the_fresh_solve_does(monkeypatch):
    mesh, bcs, rho, f, band, base = near_system("mbb_60x30")
    bad = np.array(rho)
    bad[40] = np.nan
    with pytest.raises(SingularSystemError):
        solve(assemble(bad, mesh, Material(), fixed_dofs=bcs.fixed_dofs), f, band)
    with pytest.raises(SingularSystemError):
        near_solve(bad, rho, base, mesh, bcs, f, band)
    # a converged near solve still meets the residual abort
    moved = np.array(rho)
    moved[40] += 1e-6
    monkeypatch.setattr(fea, "_RESIDUAL_ABORT", 0.0)
    with pytest.raises(SingularSystemError, match="solve residual"):
        solve(assemble(moved, mesh, Material(), fixed_dofs=bcs.fixed_dofs), f, band)
    calls = counting_splu(monkeypatch)
    with pytest.raises(SingularSystemError, match="solve residual"):
        near_solve(moved, rho, base, mesh, bcs, f, band)
    assert calls == []


# -- compliance properties ----------------------------------------------------------

def test_compliance_positive():
    mesh = Mesh(10, 5, 10.0, 5.0)
    bcs = builtin_problem("mbb", 10, 5)
    rng = np.random.default_rng(0)
    rho = rng.uniform(0.2, 1.0, mesh.n_elements)
    _, j_val = analyze(rho, mesh, Material(), bcs)
    assert j_val > 0


def test_adding_material_never_increases_compliance():
    mesh = Mesh(8, 4, 8.0, 4.0)
    bcs = builtin_problem("mbb", 8, 4)
    m = Material()
    rng = np.random.default_rng(1)
    for _ in range(5):
        rho = rng.uniform(0.2, 0.8, mesh.n_elements)
        more = np.minimum(1.0, rho + rng.uniform(0.0, 0.2, mesh.n_elements))
        _, j_base = analyze(rho, mesh, m, bcs)
        _, j_more = analyze(more, mesh, m, bcs)
        assert j_more <= j_base * (1 + 1e-12)


def test_element_energies_sum_to_compliance():
    # for penalty 1 and emin -> 0: J = sum_e E_e u_e K0 u_e = f.u
    mesh = Mesh(6, 4, 6.0, 4.0)
    m = Material(e0=1.0, emin=1e-14, penalty=1.0)
    bcs = builtin_problem("mbb", 6, 4)
    rho = np.full(mesh.n_elements, 0.7)
    u, j_val = analyze(rho, mesh, m, bcs)
    k0 = element_stiffness_template(m.nu)
    energies = element_energies(u, mesh, k0)
    assert float(simp_modulus(rho, m) @ energies) == pytest.approx(j_val, rel=1e-9)


# -- volume constraint ---------------------------------------------------------------

def test_volume_constraint_values():
    mesh = Mesh(5, 4, 5.0, 4.0)
    assert volume_constraint(np.full(20, 0.5), 0.5, mesh) == pytest.approx(0.0, abs=1e-12)
    assert volume_constraint(np.ones(20), 0.5, mesh) == pytest.approx(1.0, abs=1e-12)
    assert volume_constraint(np.zeros(20), 0.5, mesh) == pytest.approx(-1.0, abs=1e-12)


def test_volume_constraint_rejects_bad_fraction():
    mesh = Mesh(2, 2, 2.0, 2.0)
    with pytest.raises(ValueError):
        volume_constraint(np.zeros(4), 0.0, mesh)


# -- boundary conditions ----------------------------------------------------------

def test_boundary_conditions_validation():
    with pytest.raises(ValueError):
        BoundaryConditions(np.array([], dtype=int), {0: -1.0})
    with pytest.raises(ValueError):
        BoundaryConditions(np.array([0]), {})
