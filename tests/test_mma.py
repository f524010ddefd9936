import copy
import statistics

import numpy as np
import pytest

from csgtopo import mma, problem
from csgtopo.config import MmaConfig, ProblemSpec
from csgtopo.mma import MmaState, kkt_residual, mma_update


def run_toy(objective, gradient, constraint, cgrad, x0, iters=50,
            cfg=MmaConfig()):
    """Drive MMA on a toy problem; returns iterates and final state."""
    z = np.array(x0, dtype=float)
    state = MmaState()
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
    state = MmaState()
    dj = np.array([1e6, -1e6, 1e3, -1e3, 0.0])
    z_new, _ = mma_update(z, 1.0, dj, -1.0, np.zeros(5), state, cfg)
    assert np.abs(z_new - z).max() <= 0.05 + 1e-15


def test_iterates_stay_in_bounds_exactly():
    cfg = MmaConfig()
    z = np.array([0.0, 1.0, 0.02, 0.98])
    state = MmaState()
    dj = np.array([1.0, -1.0, 5.0, -5.0])  # push further into the bounds
    z_new, _ = mma_update(z, 1.0, dj, -1.0, np.zeros(4), state, cfg)
    assert (z_new >= 0.0).all() and (z_new <= 1.0).all()


def test_update_is_deterministic():
    def once():
        z = np.linspace(0.1, 0.9, 6)
        state = MmaState()
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
    state = MmaState()
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
    with pytest.raises(ValueError, match="^mma: move_limit: "):
        MmaConfig(move_limit=10 ** 5000)


# -- the multiplier: Newton against a bisection oracle ---------------------------

def bisect_lam(grad) -> float:
    """The root of the decreasing dual derivative grad on [0, inf) by doubling
    and then bisection to 1e-13 relative: mma_update's search before it took
    Newton steps, kept as the oracle for them."""
    if grad(0.0) <= 0.0:
        return 0.0
    hi = 1.0
    while grad(hi) > 0.0 and hi < 1e14:
        hi *= 2.0
    lo = 0.0 if hi == 1.0 else hi / 2.0
    while hi - lo > 1e-13 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if grad(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def assert_agrees(lam, oracle):
    # the oracle stops on a bracket 1e-13 max(1, hi) wide, so it is only
    # that close to the root itself
    assert abs(lam - oracle) <= 2e-13 * max(1.0, oracle)


@pytest.fixture
def with_oracle(monkeypatch):
    """Makes every mma_update also find its multiplier by bisect_lam, on the
    same dual; returns the list of (dual, oracle multiplier) per update."""
    seen = []
    newton = mma._solve_dual

    def both(dual, lam):
        seen.append((dual, bisect_lam(lambda at: dual(at)[0])))
        return newton(dual, lam)

    monkeypatch.setattr(mma, "_solve_dual", both)
    return seen


@pytest.fixture(scope="module")
def recorded_updates():
    """The arguments of the 30 mma_update calls of a 16x8 depth-4 run."""
    calls = []

    def record(*args):
        calls.append(copy.deepcopy(args))
        return mma_update(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problem, "mma_update", record)
        problem.optimize(ProblemSpec(nx=16, ny=8, tree_depth=4, mma=MmaConfig(
            max_iter=30, kkt_tol=1e-9, step_tol=1e-9)))
    assert len(calls) == 30
    return calls


def test_newton_multiplier_matches_bisection_on_a_run(recorded_updates, with_oracle):
    lams = [mma_update(*args)[1].lam for args in recorded_updates]
    for lam, (_, oracle) in zip(lams, with_oracle):
        assert_agrees(lam, oracle)


def test_newton_needs_few_dual_evaluations(recorded_updates):
    # doubling and bisection to 1e-13 took about 52 per update
    evals = [mma_update(*args)[1].dual_evals for args in recorded_updates]
    assert statistics.median(evals) <= 10 and max(evals) <= 25


def toy_update(g_val, dg_scale, lam0=0.0):
    """One update of a 4-entry toy whose objective pushes every entry down
    and whose constraint, g_val at z, falls as the entries rise."""
    z = np.array([0.3, 0.45, 0.6, 0.7])
    dj = np.array([1.0, 0.5, 2.0, 1.0])
    dg = -dg_scale * np.array([1.0, 1.5, 0.5, 1.0])
    return mma_update(z, 1.0, dj, g_val, dg, MmaState(lam=lam0), MmaConfig())[1]


@pytest.mark.parametrize("lam0", [0.0, 50.0])
def test_newton_finds_an_inactive_constraint(with_oracle, lam0):
    state = toy_update(g_val=-1.0, dg_scale=0.5, lam0=lam0)
    assert state.lam == 0.0 == with_oracle[-1][1]
    assert state.slack == 0.0


def test_newton_root_just_above_the_slack_kink(with_oracle):
    toy_update(g_val=0.0, dg_scale=0.5)
    probe = with_oracle[-1][0]
    # psi' moves one for one with g_val, so this puts psi'(1000) at 1e-3
    state = toy_update(g_val=1e-3 - probe(mma._SLACK_PENALTY)[0], dg_scale=0.5)
    dual, oracle = with_oracle[-1]
    assert dual(mma._SLACK_PENALTY)[1] < 0.0          # entries are not clamped
    assert mma._SLACK_PENALTY < oracle < mma._SLACK_PENALTY + 1e-3
    assert_agrees(state.lam, oracle)
    assert state.slack == state.lam - mma._SLACK_PENALTY


def test_newton_grows_the_bracket_from_a_cold_start(with_oracle):
    state = toy_update(g_val=5000.0, dg_scale=0.5, lam0=0.0)
    assert state.lam >= 1e3
    assert_agrees(state.lam, with_oracle[-1][1])


def test_newton_falls_back_to_bisection_where_every_entry_is_clamped(with_oracle):
    # warm started at lam = 500, where alpha and beta clamp every entry and
    # psi' is flat: no Newton step exists until bisection leaves the flat part
    state = toy_update(g_val=0.2, dg_scale=10.0, lam0=500.0)
    dual, oracle = with_oracle[-1]
    grad, slope = dual(500.0)
    assert slope == 0.0 and grad < 0.0
    assert 0.0 < oracle < 500.0
    assert_agrees(state.lam, oracle)
