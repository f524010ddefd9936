"""Method of moving asymptotes for one objective, one inequality constraint,
and box bounds.

Each update builds the separable rational approximation of the objective and
constraint around the current iterate,

    f(x) ~ r + sum_j [ p_j / (U_j - x_j) + q_j / (x_j - L_j) ],

with the asymptotes L, U adapted by the oscillation heuristic (expand after
two steps in the same direction, contract after a reversal).  With a single
constraint the convex subproblem is solved exactly through its
one-dimensional dual: for a fixed multiplier the minimizer is closed form,
and the multiplier is found by safeguarded bisection on the monotone dual
derivative.  A penalized slack variable keeps the subproblem feasible even
when the outer iterate violates the constraint.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["MmaConfig", "MmaState", "mma_update", "kkt_residual"]


@dataclass(frozen=True)
class MmaConfig:
    move_limit: float = 0.05
    kkt_tol: float = 1e-3
    step_tol: float = 1e-3
    max_iter: int = 200
    asymptote_init: float = 0.5
    asymptote_incr: float = 1.2
    asymptote_decr: float = 0.7
    slack_penalty: float = 1000.0

    def __post_init__(self):
        # a config document can carry any JSON value, Infinity included
        if isinstance(self.max_iter, bool) \
                or not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        for name in ("move_limit", "kkt_tol", "step_tol", "asymptote_init",
                     "asymptote_incr", "asymptote_decr", "slack_penalty"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not 0 < self.move_limit <= 1:
            raise ValueError(f"move_limit must lie in (0, 1], got {self.move_limit}")
        for name in ("kkt_tol", "step_tol", "asymptote_init", "asymptote_incr",
                     "asymptote_decr", "slack_penalty"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(eq=False)
class MmaState:
    """Optimizer state carried between updates.

    x_prev/x_prev2 are the previous two iterates; low/upp the current
    asymptotes.  lam, slack and the subproblem merit values are diagnostics
    of the last update.
    """

    iteration: int = 0
    x_prev: np.ndarray | None = None
    x_prev2: np.ndarray | None = None
    low: np.ndarray | None = None
    upp: np.ndarray | None = None
    lam: float = 0.0
    slack: float = 0.0
    sub_value_new: float = math.nan
    sub_value_current: float = math.nan

    @classmethod
    def fresh(cls) -> "MmaState":
        return cls()


_RAA0 = 1e-5
_BOUND_GAP = 0.1      # keep alpha/beta this fraction inside the asymptotes
_INNER_MOVE = 0.5     # step cap within the already move-limited box
_ASY_MIN = 0.01       # clamp factors on asymptote distance, in box ranges
_ASY_MAX = 10.0
_BOUND_TOL = 1e-12    # an entry this close to 0 or 1 counts as on the bound


def _rational_coefficients(df: np.ndarray, ux: np.ndarray, xl: np.ndarray,
                           rng: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dfp = np.maximum(df, 0.0)
    dfm = np.maximum(-df, 0.0)
    base = 0.001 * (dfp + dfm) + _RAA0 / np.maximum(rng, 1e-5)
    return (dfp + base) * ux * ux, (dfm + base) * xl * xl


def mma_update(z: np.ndarray, j_val: float, dj: np.ndarray, g_val: float,
               dg: np.ndarray, state: MmaState,
               cfg: MmaConfig) -> tuple[np.ndarray, MmaState]:
    """One MMA step; returns the new iterate and the advanced state.

    Minimizes j subject to g <= 0 and 0 <= z <= 1.  The new iterate stays
    within move_limit of z in every coordinate and inside [0, 1] exactly.
    """
    x = np.asarray(z, dtype=float).copy()
    n = x.size
    dj = np.asarray(dj, dtype=float).ravel()
    dg = np.asarray(dg, dtype=float).ravel()
    g_val = float(np.asarray(g_val).ravel()[0])
    if dj.shape != (n,) or dg.shape != (n,):
        raise ValueError("gradient lengths do not match the design vector")
    if not (np.isfinite(x).all() and np.isfinite(dj).all()
            and np.isfinite(dg).all() and math.isfinite(float(j_val))
            and math.isfinite(g_val)):
        raise ValueError("non-finite value in MMA inputs")

    # the subproblem box is the move-limit window clipped to [0, 1];
    # asymptote spacing and regularization scale with this tightened range
    xmin = np.maximum(0.0, x - cfg.move_limit)
    xmax = np.minimum(1.0, x + cfg.move_limit)
    rng = xmax - xmin

    k = state.iteration + 1
    if k <= 2 or state.low is None:
        low = x - cfg.asymptote_init * rng
        upp = x + cfg.asymptote_init * rng
    else:
        osc = (x - state.x_prev) * (state.x_prev - state.x_prev2)
        fac = np.ones(n)
        fac[osc > 0] = cfg.asymptote_incr
        fac[osc < 0] = cfg.asymptote_decr
        low = x - fac * (state.x_prev - state.low)
        upp = x + fac * (state.upp - state.x_prev)
        low = np.clip(low, x - _ASY_MAX * rng, x - _ASY_MIN * rng)
        upp = np.clip(upp, x + _ASY_MIN * rng, x + _ASY_MAX * rng)

    alpha = np.maximum.reduce([xmin, low + _BOUND_GAP * (x - low), x - _INNER_MOVE * rng])
    beta = np.minimum.reduce([xmax, upp - _BOUND_GAP * (upp - x), x + _INNER_MOVE * rng])

    ux = upp - x
    xl = x - low
    p0, q0 = _rational_coefficients(dj, ux, xl, rng)
    p1, q1 = _rational_coefficients(dg, ux, xl, rng)
    # constraint approximation equals g_val at x, so its subproblem offset is:
    b1 = float((p1 / ux + q1 / xl).sum()) - g_val
    c = cfg.slack_penalty

    def x_of(lam: float) -> np.ndarray:
        ps = np.sqrt(p0 + lam * p1)
        qs = np.sqrt(q0 + lam * q1)
        # np.clip's result, without its per-call overhead on the bisection path
        return np.minimum(np.maximum((low * ps + upp * qs) / (ps + qs), alpha), beta)

    def slack_of(lam: float) -> float:
        return max(0.0, lam - c)

    def dual_grad(lam: float) -> float:
        xs = x_of(lam)
        return float((p1 / (upp - xs) + q1 / (xs - low)).sum()) - b1 - slack_of(lam)

    if dual_grad(0.0) <= 0.0:
        lam = 0.0
    else:
        hi = 1.0
        while dual_grad(hi) > 0.0 and hi < 1e14:
            hi *= 2.0
        lo = 0.0 if hi == 1.0 else hi / 2.0
        while hi - lo > 1e-13 * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if dual_grad(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        lam = 0.5 * (lo + hi)

    x_new = x_of(lam)
    slack = slack_of(lam)

    def merit(xv: np.ndarray, y: float) -> float:
        return float((p0 / (upp - xv) + q0 / (xv - low)).sum()) + c * y + 0.5 * y * y

    new_state = MmaState(
        iteration=k,
        x_prev=x,
        x_prev2=state.x_prev if state.x_prev is not None else x.copy(),
        low=low,
        upp=upp,
        lam=lam,
        slack=slack,
        sub_value_new=merit(x_new, slack),
        sub_value_current=merit(x, max(0.0, g_val)),
    )
    return x_new, new_state


def kkt_residual(z: np.ndarray, dj: np.ndarray, g_val: float, dg: np.ndarray,
                 lam: float) -> float:
    """Projected stationarity norm plus the complementarity defect |lam * g|.

    Stationarity entries pinned by an active bound of [0, 1] contribute
    nothing when the gradient pushes further into that bound.
    """
    z = np.asarray(z, dtype=float)
    r = np.asarray(dj, dtype=float) + lam * np.asarray(dg, dtype=float)
    proj = r.copy()
    at_lo = z <= _BOUND_TOL
    at_hi = z >= 1.0 - _BOUND_TOL
    proj[at_lo] = np.minimum(r[at_lo], 0.0)
    proj[at_hi] = np.maximum(r[at_hi], 0.0)
    return float(np.abs(proj).max(initial=0.0) + abs(lam * float(g_val)))
