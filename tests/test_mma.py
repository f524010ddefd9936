import numpy as np
import pytest

from csgtopo.mma import MmaConfig, MmaState, kkt_residual, mma_update


def run_toy(objective, gradient, constraint, cgrad, x0, iters=50,
            cfg=MmaConfig()):
    """Drive MMA on a toy problem; returns iterates and final state."""
    z = np.array(x0, dtype=float)
    state = MmaState.fresh()
    trail = [z.copy()]
    for _ in range(iters):
        z_new, state = mma_update(z, objective(z), gradient(z), constraint(z),
                                  cgrad(z), state, cfg)
        assert np.abs(z_new - z).max() <= cfg.move_limit + 1e-15
        assert (z_new >= 0.0).all() and (z_new <= 1.0).all()
        assert state.sub_value_new <= state.sub_value_current + 1e-8
        z = z_new
        trail.append(z.copy())
    return trail, state


def test_quadratic_with_inactive_constraint():
    trail, state = run_toy(
        objective=lambda z: float((z[0] - 0.7) ** 2),
        gradient=lambda z: np.array([2 * (z[0] - 0.7)]),
        constraint=lambda z: float(z[0] - 10.0),
        cgrad=lambda z: np.array([1.0]),
        x0=[0.2],
    )
    z = trail[-1]
    assert abs(z[0] - 0.7) < 1e-3
    assert state.lam == 0.0
    kkt = kkt_residual(z, np.array([2 * (z[0] - 0.7)]), z[0] - 10.0,
                       np.array([1.0]), state.lam)
    assert kkt < 1e-3 * 3  # stationarity scale ~ 2 * |z - 0.7|


def test_symmetric_volume_style_problem():
    n = 8
    trail, state = run_toy(
        objective=lambda z: float(z @ z),
        gradient=lambda z: 2 * z,
        constraint=lambda z: float(0.2 * n - z.sum()),
        cgrad=lambda z: -np.ones(n),
        x0=np.full(n, 0.8),
        iters=100,
    )
    z = trail[-1]
    assert np.abs(z - 0.2).max() < 1e-3
    # KKT by hand: 2 z_i = lam for all i -> lam = 0.4 at z = 0.2
    assert state.lam == pytest.approx(0.4, abs=1e-3)
    kkt = kkt_residual(z, 2 * z, 0.2 * n - z.sum(), -np.ones(n), state.lam)
    assert kkt < 1e-3


def test_move_limit_is_hard():
    cfg = MmaConfig(move_limit=0.05)
    z = np.full(5, 0.5)
    state = MmaState.fresh()
    dj = np.array([1e6, -1e6, 1e3, -1e3, 0.0])
    z_new, _ = mma_update(z, 1.0, dj, -1.0, np.zeros(5), state, cfg)
    assert np.abs(z_new - z).max() <= 0.05 + 1e-15


def test_iterates_stay_in_bounds_exactly():
    cfg = MmaConfig()
    z = np.array([0.0, 1.0, 0.02, 0.98])
    state = MmaState.fresh()
    dj = np.array([1.0, -1.0, 5.0, -5.0])  # push further into the bounds
    z_new, _ = mma_update(z, 1.0, dj, -1.0, np.zeros(4), state, cfg)
    assert (z_new >= 0.0).all() and (z_new <= 1.0).all()


def test_update_is_deterministic():
    def once():
        z = np.linspace(0.1, 0.9, 6)
        state = MmaState.fresh()
        out = []
        for _ in range(5):
            dj = np.sin(z * 7.0)
            dg = np.cos(z * 3.0)
            z, state = mma_update(z, float(z @ z), dj, float(z.sum() - 2.0),
                                  dg, state, MmaConfig())
            out.append(z.copy())
        return np.vstack(out)

    a, b = once(), once()
    assert np.array_equal(a, b)


def test_rejects_non_finite_inputs():
    state = MmaState.fresh()
    z = np.array([0.5])
    with pytest.raises(ValueError):
        mma_update(z, 1.0, np.array([np.nan]), 0.0, np.array([1.0]), state,
                   MmaConfig())
    with pytest.raises(ValueError):
        mma_update(z, np.inf, np.array([1.0]), 0.0, np.array([1.0]), state,
                   MmaConfig())


def test_kkt_residual_projection_rules():
    # interior stationary point with no multiplier: zero residual
    z = np.array([0.4, 0.6])
    assert kkt_residual(z, np.zeros(2), -1.0, np.zeros(2), 0.0) == 0.0
    # active upper bound with a gradient pushing upward contributes nothing
    z = np.array([1.0, 0.5])
    dj = np.array([-2.0, 0.0])
    assert kkt_residual(z, dj, -1.0, np.zeros(2), 0.0) == 0.0
    # the same gradient at an interior point is a genuine violation
    z = np.array([0.5, 0.5])
    assert kkt_residual(z, dj, -1.0, np.zeros(2), 0.0) == pytest.approx(2.0)


def test_kkt_complementarity_term():
    z = np.array([0.5])
    r = kkt_residual(z, np.zeros(1), 0.3, np.zeros(1), 2.0)
    assert r == pytest.approx(0.6)


def test_config_validation():
    with pytest.raises(ValueError):
        MmaConfig(move_limit=0.0)
    with pytest.raises(ValueError):
        MmaConfig(kkt_tol=-1.0)
    with pytest.raises(ValueError):
        MmaConfig(max_iter=0)
    with pytest.raises(ValueError, match="^move_limit: "):
        MmaConfig(move_limit=10 ** 5000)
