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
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = ["MmaConfig", "MmaState", "field_error", "is_finite_real", "is_int",
           "mma_update", "kkt_residual", "ranged", "shown"]


def is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """A real number, not a bool, that converts to a finite float."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:           # an integer too large for a float
        return False


def shown(value, nested: bool = False) -> str:
    """value as an error message prints it: an int of more than about 15
    digits as ~2^bits (a huge int is slow to print, and past 4300 digits
    Python refuses to), a string cut at 40 characters, a list of up to four
    entries one level deep, and any other object by its type."""
    if is_int(value):
        bits = int(value).bit_length()
        return str(value) if bits <= 48 else f"{'~-2' if value < 0 else '~2'}^{bits}"
    if isinstance(value, (list, tuple)) and len(value) <= 4 and not nested:
        return f"[{', '.join(shown(entry, nested=True) for entry in value)}]"
    if value is not None and not isinstance(value, (bool, float, str)):
        return f"a {type(value).__name__}"
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def ranged(interval: str, default):
    """A dataclass field whose value must lie in interval, written the
    mathematical way: "(0, 1]", "[3, inf)".  field_error checks it."""
    ends = tuple(float(end) for end in interval[1:-1].split(","))
    return field(default=default, metadata={"range": interval, "ends": ends})


def field_error(obj) -> str | None:
    """'name: reason' for the first ranged field of dataclass obj that breaks
    its rule, else None.  The rule's type is the annotation's text (these
    modules postpone annotations): "int" takes an integer that is not a bool,
    "float" a finite real, and "float | None" also None."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        kind, _, optional = f.type.partition(" | ")
        if "range" not in f.metadata or (value is None and optional == "None"):
            continue
        admits, noun = ((is_int, "an integer") if kind == "int"
                        else (is_finite_real, "a finite number"))
        if not admits(value):
            return f"{f.name}: must be {noun}, got {shown(value)}"
        interval, (lo, hi) = f.metadata["range"], f.metadata["ends"]
        if not ((lo <= value if interval[0] == "[" else lo < value)
                and (value <= hi if interval[-1] == "]" else value < hi)):
            return f"{f.name}: must lie in {interval}, got {shown(value)}"
    return None


@dataclass(frozen=True)
class MmaConfig:
    move_limit: float = ranged("(0, 1]", 0.05)
    kkt_tol: float = ranged("(0, inf)", 1e-3)
    step_tol: float = ranged("(0, inf)", 1e-3)
    max_iter: int = ranged("[1, inf)", 200)

    def __post_init__(self):
        # a config document can carry any JSON value, Infinity included
        error = field_error(self)
        if error:
            raise ValueError(error)


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
_ASY_INIT = 0.5       # Svanberg's asymptote factors: first distance, in box
_ASY_INCR = 1.2       # ranges, then expand after two steps the same way and
_ASY_DECR = 0.7       # contract after a reversal
_ASY_MIN = 0.01       # clamp factors on asymptote distance, in box ranges
_ASY_MAX = 10.0
_SLACK_PENALTY = 1000.0   # linear cost of the constraint's slack variable
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
        low = x - _ASY_INIT * rng
        upp = x + _ASY_INIT * rng
    else:
        osc = (x - state.x_prev) * (state.x_prev - state.x_prev2)
        fac = np.ones(n)
        fac[osc > 0] = _ASY_INCR
        fac[osc < 0] = _ASY_DECR
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

    def x_of(lam: float) -> np.ndarray:
        ps = np.sqrt(p0 + lam * p1)
        qs = np.sqrt(q0 + lam * q1)
        # np.clip's result, without its per-call overhead on the bisection path
        return np.minimum(np.maximum((low * ps + upp * qs) / (ps + qs), alpha), beta)

    def slack_of(lam: float) -> float:
        return max(0.0, lam - _SLACK_PENALTY)

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
        return (float((p0 / (upp - xv) + q0 / (xv - low)).sum())
                + _SLACK_PENALTY * y + 0.5 * y * y)

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
