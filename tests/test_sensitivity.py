import dataclasses

import numpy as np
import pytest

from csgtopo import fea
from csgtopo.problem import Model, ProblemSpec, initialize
from csgtopo.sensitivity import FdEntry, central_difference, fd_check, grad_volume
from conftest import connected_design


def gate(entries, tol=1e-4, floor=1e-7):
    """Worst relative error over entries whose |FD| clears the floor."""
    worst = 0.0
    for e in entries:
        if e.skipped:
            continue
        if abs(e.fd_j) > floor:
            worst = max(worst, e.rel_err_j)
        if abs(e.fd_g) > floor:
            worst = max(worst, e.rel_err_g)
    return worst


def test_full_gradient_matches_fd(small_spec):
    # compliance and volume gradients on a connected design; the FD step of
    # 1e-6 needs a design whose load path is real material, otherwise the
    # solve noise at extreme SIMP contrast swamps the differences
    model = Model(small_spec)
    z = connected_design(small_spec)
    entries = fd_check(model, z, step=1e-6)
    assert gate(entries) < 1e-4


def test_full_gradient_matches_fd_with_eight_sides(small_spec):
    # at 8 or more sides the LogSumExp sum runs in another order than np.sum
    spec = dataclasses.replace(small_spec, sides=8)
    four = connected_design(small_spec)
    z = np.zeros(spec.design_size)
    z[:12] = four[:12]
    # each square's four offsets on two sides each of an octagon, widened
    # by 1.2 so the octagons, which cut the squares' corners, still join the
    # load and the support (J about 1.2e3 against 9.5e2 for the squares)
    z[12:44] = 1.2 * np.repeat(four[12:28].reshape(4, 4), 2, axis=1).ravel()
    z[44:] = four[28:]
    entries = fd_check(Model(spec), z, step=1e-6)
    assert gate(entries) < 1e-3


def test_volume_gradient_matches_fd_at_random_designs(small_spec):
    # the volume chain involves no solve, so random designs difference cleanly
    model = Model(small_spec)
    for seed in (0, 2):
        z = np.random.default_rng(seed).random(small_spec.design_size)
        _, _, _, dg = model.forward_gradients(z)
        worst = 0.0
        for idx in range(small_spec.design_size):
            fd = central_difference(lambda v: model.evaluate(v)[1], z, idx, 1e-6)
            if abs(fd) > 1e-7:
                worst = max(worst, abs(dg[idx] - fd) / abs(fd))
        assert worst < 1e-4


def test_saturated_outside_primitive_has_dead_gradients():
    # one primitive pushed far outside the domain through custom center
    # bounds: its saturated projection kills the whole parameter chain
    spec = ProblemSpec(nx=12, ny=6, tree_depth=1, sides=4,
                       cx_bounds=(-500.0, 100.0), lx=60.0, ly=30.0)
    model = Model(spec)
    z = np.full(spec.design_size, 0.5)
    z[0] = 0.0            # cx = -500: far outside
    z[1] = 0.95           # the partner primitive carries the load
    model.forward(z)
    dj, _ = model.gradients()
    n_p, s = 2, 4
    outside = [0, n_p, 2 * n_p, *range(3 * n_p, 3 * n_p + s)]
    assert max(abs(dj[i]) for i in outside) < 1e-12


def test_frozen_entries_are_excluded_and_reported_skipped(small_spec):
    spec = dataclasses.replace(small_spec, frozen_operators={0: "union"})
    model = Model(spec)
    assert spec.design_size == small_spec.design_size - 4
    z = initialize(spec)
    model.forward(z)
    dj, dg = model.gradients()
    assert dj.size == dg.size == spec.design_size
    geo = spec.n_primitives * (spec.sides + 3)
    entries = fd_check(model, z, indices=range(geo, geo + 4), step=1e-6)
    assert all(e.skipped for e in entries)


def test_volume_gradient_sum_identity(small_spec):
    # sum_e dg/drho_e = 1 / vf*
    model = Model(small_spec)
    total = float(grad_volume(model.mesh, small_spec.vf_star).sum())
    assert total == pytest.approx(1.0 / small_spec.vf_star, rel=1e-12)


def test_fully_saturated_design_has_vanishing_gradients():
    # offsets far beyond the domain saturate every cell solid (the operator
    # is locked one-hot so the root keeps the saturation); the sigmoid tail
    # then kills every parameter gradient (why moderate defaults matter)
    spec = ProblemSpec(nx=12, ny=6, tree_depth=1, sides=4,
                       d_bounds=(100.0, 200.0), lx=60.0, ly=30.0,
                       frozen_operators={0: "union"})
    model = Model(spec)
    z = np.full(spec.design_size, 0.5)
    model.forward(z)
    assert model._work.node_values[0].min() > 1.0 - 1e-12
    dj, dg = model.gradients()
    assert np.abs(dg).max() < 1e-8
    assert np.abs(dj).max() < 1e-8


def test_adjoint_identity_in_density_space():
    # dJ/drho_e from the self-adjoint rule vs FD of J in rho_e directly
    spec = ProblemSpec(nx=8, ny=4, tree_depth=1, sides=4)
    model = Model(spec)
    rho = np.random.default_rng(3).uniform(0.3, 0.9, model.mesh.n_elements)
    u, _ = fea.analyze(rho, model.mesh, model.material, model.bcs, model.k0)
    energies = fea.element_energies(u, model.mesh, model.k0)
    m = model.material
    analytic = -m.penalty * (m.e0 - m.emin) * rho ** (m.penalty - 1) * energies

    h = 1e-6
    for e in range(0, model.mesh.n_elements, 7):
        rp, rm = rho.copy(), rho.copy()
        rp[e] += h
        rm[e] -= h
        _, jp = fea.analyze(rp, model.mesh, model.material, model.bcs, model.k0)
        _, jm = fea.analyze(rm, model.mesh, model.material, model.bcs, model.k0)
        fd = (jp - jm) / (2 * h)
        assert analytic[e] == pytest.approx(fd, rel=1e-6)


def test_descent_direction_decreases_compliance(small_spec):
    # the load is scaled down so the fixed step eta stays a local move
    bcs = Model(small_spec).bcs
    spec = dataclasses.replace(
        small_spec, benchmark=None,
        fixed_dofs=[int(d) for d in bcs.fixed_dofs],
        loads=[(d, 1e-3 * v) for d, v in bcs.loads.items()])
    model = Model(spec)
    z = connected_design(small_spec)
    j_val, _ = model.forward(z)
    dj, _ = model.gradients()
    assert np.linalg.norm(dj) > 1e-6
    eta = 1e-4
    z_new = np.clip(z - eta * dj, 0.0, 1.0)
    j_new, _ = model.evaluate(z_new)
    assert j_new <= j_val + 1e-8


def test_fd_step_sweep_shows_v_curve(small_spec):
    # truncation dominates at 1e-4, round-off at 1e-8: interior step wins
    model = Model(small_spec)
    z = connected_design(small_spec)
    _, _, dj, _ = model.forward_gradients(z)
    idx = [0, 5, 17, 30]
    med = {}
    for h in (1e-4, 1e-6, 1e-8):
        errs = []
        for i in idx:
            fd = central_difference(lambda v: model.evaluate(v)[0], z, i, h)
            errs.append(abs(fd - dj[i]) / max(abs(dj[i]), 1e-300))
        med[h] = float(np.median(errs))
    assert med[1e-6] < med[1e-4]
    assert med[1e-6] < med[1e-8]


def test_central_difference_exact_on_linear_functional():
    # power-of-two step and base keep the perturbed points exact, so the
    # difference quotient of a linear map carries no round-off at all
    w = np.arange(1.0, 6.0)
    fn = lambda v: float(w @ v)
    z = np.full(5, 0.25)
    for i in range(5):
        fd = central_difference(fn, z, i, 2.0 ** -20)
        assert abs(fd - w[i]) / w[i] < 1e-10


def test_fd_check_validates_step(small_spec):
    model = Model(small_spec)
    with pytest.raises(ValueError):
        fd_check(model, initialize(small_spec), step=0.0)


@pytest.mark.parametrize("index", [-1, -40, 40])
def test_fd_check_rejects_indices_outside_the_layout(small_spec, index):
    # full_size is 40; numpy would read a negative index from the end,
    # under a label that names another entry
    model = Model(small_spec)
    assert model.full_size == 40
    with pytest.raises(ValueError, match=f"index {index} out of range"):
        fd_check(model, initialize(small_spec), indices=[0, index])


def test_softmax_jacobian_consistency(small_spec):
    # operator entries of the design gradient against FD, isolated via the
    # volume functional (solve-free, so the check is exact to round-off)
    model = Model(small_spec)
    z = connected_design(small_spec)
    _, _, _, dg = model.forward_gradients(z)
    geo = small_spec.n_primitives * (small_spec.sides + 3)
    for idx in range(geo, geo + 12):
        fd = central_difference(lambda v: model.evaluate(v)[1], z, idx, 1e-6)
        if abs(fd) > 1e-10:
            assert abs(dg[idx] - fd) / abs(fd) < 1e-6


def test_fd_check_evaluates_each_entry_at_plus_then_minus_step(small_spec):
    # one analytic pass, then per entry exactly evaluate(z + h), evaluate(z - h)
    model = Model(small_spec)
    z = initialize(small_spec)
    calls = []

    class Recorder:
        def __getattr__(self, name):
            return getattr(model, name)

        def forward_gradients(self, v):
            calls.append(("grad", v.copy()))
            return model.forward_gradients(v)

        def evaluate(self, v):
            calls.append(("eval", v.copy()))
            return model.evaluate(v)

    h = 1e-6
    fd_check(Recorder(), z, indices=[3, 7], step=h)
    assert [kind for kind, _ in calls] == ["grad"] + ["eval"] * 4
    for k, idx in enumerate([3, 7]):
        plus, minus = calls[1 + 2 * k][1], calls[2 + 2 * k][1]
        assert plus[idx] == z[idx] + h and minus[idx] == z[idx] - h


@pytest.mark.parametrize("name", ["analytic_j", "fd_j", "analytic_g", "fd_g"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_fd_entry_never_passes(name, bad):
    # relative errors formed as fd_check forms them
    values = {"analytic_j": 1.0, "fd_j": 1.0, "analytic_g": 1.0, "fd_g": 1.0, name: bad}
    rel = {f"rel_err_{k}": abs(values[f"analytic_{k}"] - values[f"fd_{k}"])
           / max(abs(values[f"fd_{k}"]), 1e-300) for k in "jg"}
    entry = FdEntry(index=0, label="cx[0]", **values, **rel)
    assert entry.max_rel_err == np.inf
