"""Method of moving asymptotes for one objective, one inequality constraint,
and box bounds.

Each update builds the separable rational approximation of the objective and
constraint around the current iterate,

    f(x) ~ r + sum_j [ p_j / (U_j - x_j) + q_j / (x_j - L_j) ],

with the asymptotes L, U adapted by the oscillation heuristic (expand after
two steps in the same direction, contract after a reversal).  With a single
constraint the convex subproblem is solved exactly through its
one-dimensional dual: for a fixed multiplier the minimizer is closed form,
and the multiplier is the root of the monotone dual derivative, found by
Newton's method with the derivative's analytic slope, warm started from the
previous multiplier and safeguarded by a bisection bracket (Svanberg 1987,
2002).  A penalized slack variable keeps the subproblem feasible even when
the outer iterate violates the constraint.
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
    asymptotes.  lam, slack, dual_evals (the dual derivative evaluations
    that found lam) and the subproblem merit values are diagnostics of the
    last update; the next update starts its search for lam at this one.
    """

    iteration: int = 0
    x_prev: np.ndarray | None = None
    x_prev2: np.ndarray | None = None
    low: np.ndarray | None = None
    upp: np.ndarray | None = None
    lam: float = 0.0
    slack: float = 0.0
    dual_evals: int = 0
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
_LAM_MAX = 1e14       # the bracket grows no further than this multiplier
_BOUND_TOL = 1e-12    # an entry this close to 0 or 1 counts as on the bound


def _rational_coefficients(df: np.ndarray, ux: np.ndarray, xl: np.ndarray,
                           rng: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dfp = np.maximum(df, 0.0)
    dfm = np.maximum(-df, 0.0)
    base = 0.001 * (dfp + dfm) + _RAA0 / np.maximum(rng, 1e-5)
    return (dfp + base) * ux * ux, (dfm + base) * xl * xl


def _solve_dual(dual, lam: float) -> tuple[float, int]:
    """The root on [0, inf) of the decreasing dual derivative psi', and the
    number of dual evaluations that found it; dual(lam) returns psi'(lam)
    and psi''(lam).

    Safeguarded Newton (rtsafe of Numerical Recipes), warm started at lam,
    or at 1 when lam is 0.  Until psi' changes sign, Newton steps grow the
    bracket [lo, hi] by at most 4x.  After that, a Newton step that leaves
    the bracket, has no negative slope to follow or does not halve the step
    before it becomes a bisection step.  lo = 0 is taken on trust until a
    step would cross it; psi'(0) is then evaluated, and when it is <= 0 the
    constraint is inactive and the root is 0.  The search stops at a step
    below 1e-13 max(1, lam).
    """
    lo, hi = 0.0, math.inf
    lam = lam if lam > 0.0 else 1.0
    zero_tested, step, evals = False, math.inf, 0
    while True:
        grad, slope = dual(lam)
        evals += 1
        zero_tested = zero_tested or lam == 0.0
        if grad > 0.0:
            lo = lam
        else:
            hi = lam
        if hi == 0.0:
            return 0.0, evals
        newton = lam - grad / slope if slope < 0.0 else math.nan
        if hi == math.inf:
            if lam >= _LAM_MAX:
                return lam, evals
            nxt = min(newton if slope < 0.0 else math.inf, 4.0 * max(lam, 1.0), _LAM_MAX)
        elif lo <= newton <= hi and abs(newton - lam) <= 0.5 * step:
            nxt = newton
        elif lo == 0.0 and not zero_tested and not newton > 0.0:
            nxt = 0.0
        else:
            nxt = 0.5 * (lo + hi)
        step = abs(nxt - lam)
        lam = nxt
        if step <= 1e-13 * max(1.0, lam):
            return lam, evals


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

    alpha = np.maximum(np.maximum(xmin, low + _BOUND_GAP * (x - low)), x - _INNER_MOVE * rng)
    beta = np.minimum(np.minimum(xmax, upp - _BOUND_GAP * (upp - x)), x + _INNER_MOVE * rng)

    ux = upp - x
    xl = x - low
    p0, q0 = _rational_coefficients(dj, ux, xl, rng)
    p1, q1 = _rational_coefficients(dg, ux, xl, rng)
    # constraint approximation equals g_val at x, so its subproblem offset is:
    b1 = float((p1 / ux + q1 / xl).sum()) - g_val

    # buffers that every dual evaluation of this update reuses
    pp, qq, ps, qs, xs, uxs, xls, gp, gq = (np.empty(n) for _ in range(9))
    free, below = np.empty(n, dtype=bool), np.empty(n, dtype=bool)

    def x_of(lam: float, out: np.ndarray) -> np.ndarray:
        """The subproblem's minimizer at multiplier lam, written into out;
        pp and qq are left holding p0 + lam p1 and q0 + lam q1."""
        np.add(p0, np.multiply(p1, lam, out=pp), out=pp)
        np.add(q0, np.multiply(q1, lam, out=qq), out=qq)
        np.sqrt(pp, out=ps)
        np.sqrt(qq, out=qs)
        np.add(np.multiply(low, ps, out=out), np.multiply(upp, qs, out=gp), out=out)
        np.divide(out, np.add(ps, qs, out=gp), out=out)
        # np.clip's result, without its per-call overhead
        return np.minimum(np.maximum(out, alpha, out=out), beta, out=out)

    def dual(lam: float) -> tuple[float, float]:
        """psi'(lam), the approximated constraint minus b1 and the slack at
        x(lam), and its slope psi''(lam).  Each entry that alpha and beta do
        not clamp adds -h^2 / W to the slope, with h = p1/(U-x)^2 - q1/(x-L)^2
        and W = 2 pp/(U-x)^3 + 2 qq/(x-L)^3; the slack adds -1 past its kink."""
        x_of(lam, xs)
        np.subtract(upp, xs, out=uxs)
        np.subtract(xs, low, out=xls)
        np.divide(p1, uxs, out=gp)
        np.divide(q1, xls, out=gq)
        grad = (float(np.add(gp, gq, out=ps).sum()) - b1
                - max(0.0, lam - _SLACK_PENALTY))
        h = np.subtract(np.divide(gp, uxs, out=gp), np.divide(gq, xls, out=gq), out=gp)
        for _ in range(3):              # pp/(U-x)^3 and qq/(x-L)^3
            np.divide(pp, uxs, out=pp)
            np.divide(qq, xls, out=qq)
        half_w = np.add(pp, qq, out=pp)
        np.greater(xs, alpha, out=free)
        h *= np.logical_and(free, np.less(xs, beta, out=below), out=free)
        curvature = 0.5 * float(np.dot(h, np.divide(h, half_w, out=qq)))
        return grad, -curvature - float(lam > _SLACK_PENALTY)

    lam, evals = _solve_dual(dual, state.lam)
    x_new = x_of(lam, np.empty(n))
    slack = max(0.0, lam - _SLACK_PENALTY)

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
        dual_evals=evals,
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
