import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (cell_centers, halfspace_sdf, halfspace_sdfs, polygon, stacked_chain,
                      stacked_pullback)
from csgtopo import geometry
from csgtopo.fea import Mesh
from csgtopo.geometry import (DensityField, ProjectionConfig, base_angles,
                              projection_param_grad, rasterize_primitive,
                              rasterize_with_tape)


def hexagon(cx=30.0, cy=15.0, theta=0.0, d=10.0):
    return polygon(cx, cy, theta, np.full(6, d))


# the projection's own kernels: the factored smooth max of the half-spaces
# at one point x, y, the sigmoid, and the threshold filter and its derivative
def polygon_sdf(row, x, y, cfg: ProjectionConfig):
    # the factor tables of a one-cell grid at (x, y)
    s = cfg.t / cfg.l0
    ang = row[2] + base_angles(len(row) - 3)
    x_terms = (s * np.cos(ang) * (x - row[0]))[:, None]
    y_terms = (s * (np.sin(ang) * (y - row[1]) - row[3:]))[:, None]
    out = np.empty((1, 1))
    geometry._factored_lse(x_terms, y_terms, np.empty((1, 1)), out)
    return out[0, 0] / s


def project_density(phi, cfg: ProjectionConfig):
    x = np.array((cfg.gamma / cfg.l0) * np.asarray(phi, float), ndmin=1)
    return geometry._sigmoid_projection(x).reshape(np.shape(phi))


def threshold(rho_tilde, cfg: ProjectionConfig):
    return geometry._threshold_chain(rho_tilde, cfg.beta)[0]


def threshold_derivative(rho_tilde, cfg: ProjectionConfig):
    return geometry._threshold_chain(rho_tilde, cfg.beta)[1]


# -- base angles ---------------------------------------------------------------

def test_base_angles_hexagon():
    expected = [0, math.pi / 3, 2 * math.pi / 3, math.pi, 4 * math.pi / 3,
                5 * math.pi / 3]
    assert np.allclose(base_angles(6), expected, atol=1e-15)


@pytest.mark.parametrize("sides,expected", [
    (3, [0, 2 * math.pi / 3, 4 * math.pi / 3]),
    (4, [0, math.pi / 2, math.pi, 3 * math.pi / 2]),
])
def test_base_angles_uniform(sides, expected):
    assert np.allclose(base_angles(sides), expected, atol=1e-15)


def test_base_angles_rejects_degenerate():
    with pytest.raises(ValueError):
        base_angles(2)


def test_rasterize_primitive_rejects_two_offsets(default_grid, default_cfg):
    with pytest.raises(ValueError, match="at least 3 half-spaces"):
        rasterize_primitive(polygon(30.0, 15.0, 0.0, [1.0, 2.0]), default_grid, default_cfg)


# -- half-space SDF ------------------------------------------------------------

def test_halfspace_at_reference_point():
    p = hexagon(d=4.0)
    for j in range(6):
        assert halfspace_sdf(p, j, p[0], p[1]) == pytest.approx(-4.0, abs=1e-14)


def test_halfspace_boundary_point():
    p = polygon(2.0, 5.0, 0.3, np.array([1.5, 2.5, 3.5]))
    for j in range(3):
        a = p[2] + base_angles(3)[j]
        x = p[0] + p[3 + j] * math.cos(a)
        y = p[1] + p[3 + j] * math.sin(a)
        assert halfspace_sdf(p, j, x, y) == pytest.approx(0.0, abs=1e-13)


def test_halfspace_direct_evaluation():
    # (x-cx) cos a + (y-cy) sin a - d at a = 0 reduces to x - d
    p = polygon(0.0, 0.0, 0.0, np.array([2.0, 2.0, 2.0]))
    assert halfspace_sdf(p, 0, 5.0, 7.0) == pytest.approx(3.0, abs=1e-14)


def test_halfspace_sdfs_matches_scalar():
    p = polygon(3.0, 4.0, 0.7, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    pts_x = np.array([0.0, 10.0, -3.0])
    pts_y = np.array([1.0, -2.0, 8.0])
    stacked = halfspace_sdfs(p, pts_x, pts_y)
    for i in range(3):
        for j in range(5):
            assert stacked[i, j] == pytest.approx(
                halfspace_sdf(p, j, pts_x[i], pts_y[i]), abs=1e-13)


# -- polygon SDF (LogSumExp) ----------------------------------------------------

def test_polygon_sdf_equal_halfspaces(default_cfg):
    # all half-space values equal v at the reference point: LSE = v + (l0/t) ln S
    p = hexagon(d=5.0)
    expected = -5.0 + (default_cfg.l0 / default_cfg.t) * math.log(6)
    assert polygon_sdf(p, p[0], p[1], default_cfg) == pytest.approx(expected, rel=1e-12)


def test_polygon_sdf_single_dominant(default_cfg):
    # one half-space at zero, the rest far below: result in [0, (l0/t) ln S]
    l0 = default_cfg.l0
    p = polygon(0.0, 0.0, 0.0, np.array([0.0, 2 * l0, 2 * l0, 2 * l0]))
    val = polygon_sdf(p, 0.0, 0.0, default_cfg)
    assert 0.0 <= val <= (l0 / default_cfg.t) * math.log(4)


def test_polygon_sdf_tracks_max_at_large_scale():
    # the largest lse_scale validate admits on this domain with the default
    # centre bounds: 2 (t / l0) max |x - cx| = 700 over x in [0, 60] and cx
    # in [3, 57]; the smooth max lies within (l0 / t) ln S of the exact one
    cfg = ProjectionConfig.for_domain(60, 30)
    cfg = ProjectionConfig.for_domain(60, 30, t=700 * cfg.l0 / (2 * 57))
    rng = np.random.default_rng(11)
    for _ in range(30):
        p = polygon(rng.uniform(3, 57), rng.uniform(1.5, 28.5),
                    rng.uniform(0, 2 * math.pi), rng.uniform(0.5, 15, size=6))
        x, y = rng.uniform(0, 60), rng.uniform(0, 30)
        exact = halfspace_sdfs(p, x, y).max()
        gap = polygon_sdf(p, x, y, cfg) - exact
        assert -1e-12 <= gap <= (cfg.l0 / cfg.t) * math.log(6) + 1e-12


@given(
    cx=st.floats(5, 55), cy=st.floats(3, 27), theta=st.floats(0, 2 * math.pi),
    seed=st.integers(0, 2 ** 31), x=st.floats(-20, 80), y=st.floats(-20, 50),
)
def test_polygon_sdf_dominates_max(cx, cy, theta, seed, x, y):
    cfg = ProjectionConfig.for_domain(60, 30)
    d = np.random.default_rng(seed).uniform(0.1, 15.0, size=6)
    p = polygon(cx, cy, theta, d)
    exact = halfspace_sdfs(p, x, y).max()
    val = float(polygon_sdf(p, x, y, cfg))
    # alpha, beta and log Z are rounded apart, so the bound holds to rounding
    assert val >= exact - 1e-12
    assert val <= exact + (cfg.l0 / cfg.t) * math.log(6) + 1e-12


# -- sigmoid projection ----------------------------------------------------------

def test_project_density_midpoint(default_cfg):
    assert project_density(0.0, default_cfg) == pytest.approx(0.5, abs=1e-15)


def test_project_density_saturates_interior(default_cfg):
    # phi = -l0 at gamma=100 saturates to 1 within double precision
    assert float(project_density(-default_cfg.l0, default_cfg)) == pytest.approx(
        1.0, abs=1e-15)


def test_project_density_overflow_safe(default_cfg):
    huge = 1e3 * default_cfg.l0
    assert float(project_density(huge, default_cfg)) == 0.0
    assert float(project_density(-huge, default_cfg)) == 1.0


@given(phi=st.floats(-1e3, 1e3))
def test_project_density_symmetry(phi):
    cfg = ProjectionConfig.for_domain(60, 30)
    total = float(project_density(phi, cfg)) + float(project_density(-phi, cfg))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_project_density_strictly_decreasing(default_cfg):
    phis = np.linspace(-3, 3, 101)
    vals = project_density(phis, default_cfg)
    assert (np.diff(vals) < 0).all()


# -- threshold filter ------------------------------------------------------------

def test_threshold_endpoints_and_midpoint(default_cfg):
    assert float(threshold(0.0, default_cfg)) == pytest.approx(0.0, abs=1e-15)
    assert float(threshold(1.0, default_cfg)) == pytest.approx(1.0, abs=1e-15)
    assert float(threshold(0.5, default_cfg)) == pytest.approx(0.5, abs=1e-15)


def test_threshold_quarter_point_high_precision(default_cfg):
    # independent oracle: evaluate the filter formula at 50-digit precision
    with mpmath.workdps(50):
        beta = mpmath.mpf(8)
        expected = float((mpmath.tanh(beta / 2) + mpmath.tanh(beta * mpmath.mpf("-0.25")))
                         / (2 * mpmath.tanh(beta / 2)))
    assert float(threshold(0.25, default_cfg)) == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(0.0176627, rel=1e-5)


@given(a=st.floats(0, 1), b=st.floats(0, 1))
def test_threshold_strictly_increasing(a, b):
    cfg = ProjectionConfig.for_domain(60, 30)
    lo, hi = sorted((a, b))
    if hi - lo > 1e-12:
        assert float(threshold(lo, cfg)) < float(threshold(hi, cfg))


def test_threshold_derivative_matches_fd(default_cfg):
    r = np.linspace(0.02, 0.98, 25)
    h = 1e-6
    fd = (threshold(r + h, default_cfg) - threshold(r - h, default_cfg)) / (2 * h)
    analytic = threshold_derivative(r, default_cfg)
    assert np.abs(analytic - fd).max() / np.abs(fd).max() < 1e-6


# -- rasterization ----------------------------------------------------------------

def test_rasterize_covering_polygon(default_grid, default_cfg):
    p = hexagon(d=default_cfg.l0)
    field = rasterize_primitive(p, default_grid, default_cfg)
    assert np.abs(field.values - 1.0).max() < 1e-6


def test_rasterize_far_outside(default_grid, default_cfg):
    p = polygon(30.0 + 2.5 * default_cfg.l0, 15.0, 0.0, np.full(6, 10.0))
    field = rasterize_primitive(p, default_grid, default_cfg)
    assert np.abs(field.values).max() < 1e-6


def test_rasterize_hexagon_cell_count(default_grid, default_cfg):
    # oracle 1: analytic area of a regular hexagon with apothem 10
    # oracle 2: exact point-in-polygon count at the cell centers
    p = hexagon(d=10.0)
    field = rasterize_primitive(p, default_grid, default_cfg)
    count = int((field.values > 0.5).sum())
    area = 2.0 * math.sqrt(3.0) * 10.0 ** 2
    cells_analytic = area / (default_grid.ax * default_grid.ay)
    pts = cell_centers(default_grid)
    inside = halfspace_sdfs(p, pts[:, 0], pts[:, 1]).max(axis=1) < 0
    assert abs(count - cells_analytic) <= 2
    assert abs(count - int(inside.sum())) <= 2


def test_rasterize_rotation_equivariance(default_grid, default_cfg):
    p0 = polygon(30.0, 15.0, 0.0, np.array([4, 9, 6, 11, 8, 5], dtype=float))
    theta = 0.7
    p_rot = polygon(30.0, 15.0, theta, p0[3:])
    pts = cell_centers(default_grid)
    # rotate sample points by -theta about the center and evaluate the
    # unrotated polygon there
    rel = pts - p0[:2]
    c, s = math.cos(-theta), math.sin(-theta)
    back = np.column_stack([c * rel[:, 0] - s * rel[:, 1],
                            s * rel[:, 0] + c * rel[:, 1]]) + p0[:2]
    rotated = rasterize_primitive(p_rot, default_grid, default_cfg).values
    reference = stacked_chain(p0, back[:, 0], back[:, 1], default_cfg)["rho"]
    assert np.abs(rotated - reference).max() < 1e-12


def test_rasterize_nonempty_interior(default_cfg, default_grid):
    # with d >= 2 (l0/t) ln S the reference point stays strictly inside
    d_min = 2.0 * (default_cfg.l0 / default_cfg.t) * math.log(6)
    p = hexagon(d=d_min)
    val = polygon_sdf(p, p[0], p[1], default_cfg)
    assert val < 0


def test_density_field_validation(default_grid):
    with pytest.raises(ValueError):
        DensityField(np.full(default_grid.n_elements, 1.5), default_grid)
    with pytest.raises(ValueError):
        DensityField(np.zeros(7), default_grid)


# -- parameter derivatives ---------------------------------------------------------

def test_projection_param_grad_matches_fd():
    grid = Mesh(12, 6, 60.0, 30.0)
    cfg = ProjectionConfig.for_domain(60.0, 30.0)
    p = polygon(25.0, 14.0, 0.35, np.array([9.0, 7.0, 10.0, 8.0]))
    rng = np.random.default_rng(5)
    seed = rng.standard_normal(grid.n_elements)

    _, tape = rasterize_with_tape(p[None], grid, cfg)
    d_cx, d_cy, d_th, d_d = projection_param_grad(tape, seed[None])
    analytic = np.concatenate([d_cx, d_cy, d_th, d_d[0]])

    def objective(row):
        return float(seed @ rasterize_primitive(row, grid, cfg).values)

    h = 1e-6
    fd = []
    for k in range(len(p)):
        step = h * np.eye(len(p))[k]
        fd.append((objective(p + step) - objective(p - step)) / (2 * h))
    fd = np.array(fd)
    mask = np.abs(fd) > 1e-8
    assert mask.any()
    rel = np.abs(analytic[mask] - fd[mask]) / np.abs(fd[mask])
    assert rel.max() < 1e-4


# -- batched chain -------------------------------------------------------------------

def random_polygons(rng, n, sides, lx, ly):
    """The (n, 3 + S) parameter rows of n random polygons."""
    return np.array([polygon(rng.uniform(0, lx), rng.uniform(0, ly),
                             rng.uniform(0, 2 * math.pi / sides),
                             rng.uniform(0.0, 0.25 * lx, sides)) for _ in range(n)])


@pytest.mark.parametrize("sides", [3, 6])
def test_batched_rasterize_equals_per_primitive(sides):
    grid = Mesh(20, 10, 60.0, 30.0)
    cfg = ProjectionConfig.for_domain(60.0, 30.0)
    params = random_polygons(np.random.default_rng(7), 9, sides, 60.0, 30.0)
    batched, _ = rasterize_with_tape(params, grid, cfg)
    stacked = np.vstack([rasterize_primitive(p, grid, cfg).values for p in params])
    assert np.array_equal(batched, stacked)


# the factored chain against the stacked one (conftest.stacked_chain), as a
# share of the largest value: the worst over 840 random polygons of 3-8
# sides on these grids and the 60x30 one was 1.7e-14 for the fields and
# 1.0e-13 for the pullback
FIELD_TOL = 1e-13
PULLBACK_TOL = 1e-12


@pytest.mark.parametrize("sides,grid", [
    *[pytest.param(s, Mesh(20, 10, 60.0, 30.0), id=str(s)) for s in (3, 4, 6)],
    # odd nx and ax != ay: the separable half-space terms on non-square cells
    *[pytest.param(s, Mesh(17, 5, 40.0, 30.0), id=f"17x5-{s}") for s in (3, 4, 6)],
])
def test_sides_first_tape_matches_cells_first_reference(sides, grid):
    # the chain as it ran on an (n_cells, S) stack of half-space distances
    cfg = ProjectionConfig.for_domain(grid.lx, grid.ly)
    rng = np.random.default_rng(13)
    params = random_polygons(rng, 7, sides, grid.lx, grid.ly)
    seeds = rng.standard_normal((7, grid.n_elements))
    rho, tape = rasterize_with_tape(params, grid, cfg)
    assert tape.exp_x.shape == (7, sides, grid.nx) and tape.exp_y.shape == (7, sides, grid.ny)
    pullback = np.column_stack(projection_param_grad(tape, seeds))
    for i, p in enumerate(params):
        want = stacked_chain(p, *cell_centers(grid).T, cfg)
        for name, got in (("rho", rho[i]), ("d_sigmoid", tape.d_sigmoid[i]),
                          ("d_threshold", tape.d_threshold[i])):
            scale = np.abs(want[name]).max()
            assert np.abs(got - want[name]).max() <= FIELD_TOL * scale, name
        want_grad = stacked_pullback(p, seeds[i], *cell_centers(grid).T, cfg)
        assert (np.abs(pullback[i] - want_grad).max()
                <= PULLBACK_TOL * np.abs(want_grad).max())


def test_batched_pullback_rows_are_independent():
    # each (objective, primitive) row of the batched pullback only sees its
    # own seed and its own polygon: it equals a one-primitive, one-seed call
    grid = Mesh(12, 6, 60.0, 30.0)
    cfg = ProjectionConfig.for_domain(60.0, 30.0)
    rng = np.random.default_rng(11)
    params = random_polygons(rng, 5, 4, 60.0, 30.0)
    seeds = rng.standard_normal((2, len(params), grid.n_elements))
    _, tape = rasterize_with_tape(params, grid, cfg)
    batched = projection_param_grad(tape, seeds)
    for i, p in enumerate(params):
        _, single = rasterize_with_tape(p[None], grid, cfg)
        for r in range(2):
            one = projection_param_grad(single, seeds[r, i][None])
            for got, want in zip(batched, one):
                assert np.array_equal(got[r, i], want[0])


@pytest.mark.parametrize("sides", [6, 8])
def test_batched_chain_equals_one_primitive_calls(sides):
    # every tape field and both objectives' pullback of a batch of 7
    # primitives on a 64x32 mesh, row by row
    grid = Mesh(64, 32, 60.0, 30.0)
    cfg = ProjectionConfig.for_domain(60.0, 30.0)
    n_p = 7
    rng = np.random.default_rng(17)
    params = random_polygons(rng, n_p, sides, 60.0, 30.0)
    seeds = rng.standard_normal((2, n_p, grid.n_elements))
    rho, tape = rasterize_with_tape(params, grid, cfg)
    batched = projection_param_grad(tape, seeds)
    for i, p in enumerate(params):
        rho_i, tape_i = rasterize_with_tape(p[None], grid, cfg)
        assert np.array_equal(rho[i], rho_i[0])
        for field in dataclasses.fields(tape):
            assert np.array_equal(getattr(tape, field.name)[i],
                                  getattr(tape_i, field.name)[0]), field.name
        one = projection_param_grad(tape_i, seeds[:, i, None])
        for got, want in zip(batched, one):
            assert np.array_equal(got[:, i], want[:, 0])
