"""The run's schema: ProblemSpec, MmaConfig, the rule each field declares
(ranged, checked by field_error) and the JSON config document mirroring them.
Every bad value ends in a ConfigError whose message starts with the field.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields

from . import csg

__all__ = ["BENCHMARKS", "MAX_TAPE_DOUBLES", "ConfigError", "MmaConfig", "ProblemSpec",
           "config_from_dict", "field_error", "is_finite_real", "is_int", "ranged",
           "read_json", "shown", "spec_to_dict"]

BENCHMARKS = ("mbb", "mid_cantilever")

# memory budget of the projection tape, in doubles (2^26 doubles = 512 MiB)
MAX_TAPE_DOUBLES = 2 ** 26
# largest x for which a smooth-max term of exp(-x) stays a normal float
# (they end near x = 708); see the projection's rule in ProblemSpec.validate
_MAX_LSE_SPAN = 700.0


class ConfigError(ValueError):
    """Invalid problem configuration; the message names the offending field."""


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
    its rule, else None.  The rule's type is the annotation's text (this
    module postpones annotations): "int" takes an integer that is not a bool,
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
            raise ConfigError(f"mma: {error}")
        # no step is longer than move_limit, so the first would stop the run
        if not self.step_tol < self.move_limit:
            raise ConfigError(f"mma: step_tol: must be below move_limit "
                              f"({shown(self.move_limit)}), got {shown(self.step_tol)}")


@dataclass
class ProblemSpec:
    """Full configuration of one optimization run.

    lx/ly default to nx/ny (unit square elements) and emin to 1e-9 * e0.
    Bounds left as None fall back to cx in (0.05 lx, 0.95 lx), cy in
    (0.05 ly, 0.95 ly), theta in (0, 2 pi / sides), d in (0, 0.25 lx).
    frozen_operators maps internal node index -> operator name; those nodes
    are locked and dropped from the design vector.
    """

    nx: int = ranged("[1, inf)", 60)
    ny: int = ranged("[1, inf)", 30)
    lx: float | None = ranged("(0, inf)", None)
    ly: float | None = ranged("(0, inf)", None)
    e0: float = ranged("(0, inf)", 1.0)
    emin: float | None = ranged("(0, inf)", None)
    penalty: float = ranged("[1, inf)", 3.0)
    nu: float = ranged("(0, 0.5)", 0.3)
    vf_star: float = ranged("(0, 1]", 0.5)
    tree_depth: int = ranged("[1, inf)", 4)
    sides: int = ranged("[3, inf)", 6)
    gamma: float = ranged("(0, inf)", 100.0)
    beta: float = ranged("(0, inf)", 8.0)
    lse_scale: float = ranged("(0, inf)", 100.0)
    softmax_scale: float = ranged("(0, inf)", 4.0)
    cx_bounds: tuple[float, float] | None = None
    cy_bounds: tuple[float, float] | None = None
    theta_bounds: tuple[float, float] | None = None
    d_bounds: tuple[float, float] | None = None
    frozen_operators: dict[int, str] = field(default_factory=dict)
    seed: int = ranged("[0, inf)", 2)
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
    def design_size(self) -> int:
        return self.full_size - 4 * len(self.frozen_operators)  # frozen nodes drop out

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

        # a config document can carry any JSON value; the scalar fields'
        # types and ranges first, so no comparison below can raise
        error = field_error(self)
        if error:
            raise ConfigError(error)
        for name in ("cx_bounds", "cy_bounds", "theta_bounds", "d_bounds"):
            pair = getattr(self, name)
            if pair is not None and not (isinstance(pair, (list, tuple)) and len(pair) == 2
                                         and all(map(is_finite_real, pair))):
                fail(name, f"expected a [lo, hi] pair of finite numbers, got {shown(pair)}")
        if not isinstance(self.frozen_operators, dict):
            fail("frozen_operators", f"expected a dict, got {shown(self.frozen_operators)}")
        if not isinstance(self.mma, MmaConfig):
            fail("mma", f"expected an MmaConfig, got {shown(self.mma)}")
        if self.fixed_dofs is not None and not isinstance(self.fixed_dofs, (list, tuple)):
            fail("fixed_dofs", f"expected a list of dofs, got {shown(self.fixed_dofs)}")
        if self.loads is not None and not isinstance(self.loads, (list, tuple)):
            fail("loads", f"expected a list of [dof, value] pairs, got {shown(self.loads)}")
        for dof in self.fixed_dofs or ():
            if not is_int(dof):
                fail("fixed_dofs", f"dof {shown(dof)} is not an integer")
        for load in self.loads or ():
            if not (isinstance(load, (list, tuple)) and len(load) == 2 and is_int(load[0])
                    and is_finite_real(load[1])):
                fail("loads", f"{shown(load)} is not an integer dof and a finite value")
        # checked before anything is allocated or converted to float, and the
        # depth before 2^depth is formed: the projection tape holds, per
        # primitive, three fields of nx * ny doubles, the two factor tables
        # of sides * (nx + ny), the coordinates and the angles' cos and sin
        if (self.tree_depth > MAX_TAPE_DOUBLES.bit_length()
                or self.n_primitives * (3 * self.nx * self.ny + (self.sides + 1)
                                        * (self.nx + self.ny) + 2 * self.sides)
                > MAX_TAPE_DOUBLES):
            fail("tree_depth", f"the projection tape of 2^{shown(self.tree_depth)} "
                 f"primitives of {shown(self.sides)} sides on "
                 f"{shown(self.nx)}x{shown(self.ny)} cells is over the budget of "
                 f"{MAX_TAPE_DOUBLES} doubles (512 MiB); lower tree_depth, sides, nx or ny")
        # the solve's banded factor, 2 (ny + 1) + 4 doubles for each of the
        # 2 (nx + 1)(ny + 1) dofs, outgrows the tape as the mesh grows
        if (2 * (self.ny + 1) + 4) * 2 * (self.nx + 1) * (self.ny + 1) > MAX_TAPE_DOUBLES:
            fail("ny" if self.ny > self.nx else "nx", f"the solve's band of a "
                 f"{shown(self.nx)}x{shown(self.ny)} mesh is over the budget of "
                 f"{MAX_TAPE_DOUBLES} doubles (512 MiB); lower nx or ny")
        if not 0 < self.resolved_emin < self.e0:
            fail("emin", f"must satisfy 0 < emin < e0, got {shown(self.resolved_emin)}")
        for name, (lo, hi) in self.bounds().items():
            if not lo < hi:
                fail(f"{name}_bounds", "lower bound must be below upper, got "
                     f"{shown(lo)} and {shown(hi)}")
            # the span scales the design vector; an infinite one makes NaN rows
            if not math.isfinite(hi - lo):
                fail(f"{name}_bounds", "the span from lower to upper bound overflows "
                     f"a float, got {shown(lo)} and {shown(hi)}")
        # the projection's factored smooth max keeps each cell's largest term
        # above exp(-2 s |x - cx|), s = lse_scale / l0, over the element
        # centres x in [0, lx] and the centres cx the bounds allow
        lx, ly = self.domain_lx, self.domain_ly
        lo, hi = self.bounds()["cx"]
        reach = max(abs(lo), abs(hi), abs(lx - lo), abs(lx - hi))
        span = 2.0 * self.lse_scale / math.hypot(lx, ly) * reach
        if not span <= _MAX_LSE_SPAN:
            fail("lse_scale", f"{shown(self.lse_scale)} lets a term of the smooth max "
                 f"fall to exp(-{span:.4g}) at centres in cx_bounds {shown([lo, hi])}, "
                 f"below the float range past exp(-{_MAX_LSE_SPAN:g}); lower lse_scale "
                 "or narrow cx_bounds")
        for node, op in self.frozen_operators.items():
            if not (is_int(node) and 0 <= node < self.n_operators):
                fail("frozen_operators", f"node {shown(node)} is not an integer in "
                     f"[0, {self.n_operators}) for depth {self.tree_depth}")
            if op not in csg.OPERATOR_NAMES:
                fail("frozen_operators", f"unknown operator {shown(op)}; "
                     f"valid: {', '.join(csg.OPERATOR_NAMES)}")
        if self.benchmark is not None and self.benchmark not in BENCHMARKS:
            fail("benchmark", f"unknown benchmark {shown(self.benchmark)}; "
                 f"valid: {', '.join(BENCHMARKS)}")
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
                        fail(name, f"dof {shown(dof)} out of range [0, {ndof})")
            if all(value == 0 for _, value in self.loads):
                fail("loads", "every load value is zero, so the compliance is zero")
            dups = sorted({dof for dof in load_dofs if load_dofs.count(dof) > 1})
            if dups:
                fail("loads", f"dof {shown(dups[0])} is loaded more than once")
            on_fixed = sorted(set(load_dofs).intersection(self.fixed_dofs))
            if on_fixed:
                fail("loads", f"dof {shown(on_fixed[0])} is also in fixed_dofs")


# -- the config document -----------------------------------------------------


def config_from_dict(doc: dict) -> ProblemSpec:
    """Build a ProblemSpec from a parsed config document (strict keys)."""
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be an object")
    unknown = set(doc) - {f.name for f in fields(ProblemSpec)}
    if unknown:
        raise ConfigError(f"config: unknown keys: {', '.join(sorted(unknown))}")
    kwargs = dict(doc)

    sub = {} if kwargs.get("mma") is None else kwargs["mma"]
    if not isinstance(sub, dict):
        raise ConfigError("mma: must be an object")
    bad = set(sub) - {f.name for f in fields(MmaConfig)}
    if bad:
        raise ConfigError(f"mma: unknown keys: {', '.join(sorted(bad))}")
    kwargs["mma"] = MmaConfig(**sub)

    frozen = {} if kwargs.get("frozen_operators") is None else kwargs["frozen_operators"]
    if not isinstance(frozen, dict):
        raise ConfigError("frozen_operators: expected an object mapping node to operator")
    try:
        kwargs["frozen_operators"] = {int(k): v for k, v in frozen.items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"frozen_operators: {exc}") from exc
    if len(kwargs["frozen_operators"]) < len(frozen):
        # JSON keys are strings, and "0" and "00" name the same node
        raise ConfigError("frozen_operators: two keys name the same node")

    spec = ProblemSpec(**kwargs)
    spec.validate()
    return spec


def read_json(path):
    """The parsed JSON document at path; any failure is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, a file that is not UTF-8, an integer past
        # Python's int-string limit, or nesting deeper than the recursion limit
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc


def spec_to_dict(spec: ProblemSpec) -> dict:
    """Effective configuration with every default resolved, JSON-ready."""
    doc = asdict(spec)
    doc["frozen_operators"] = {str(k): v for k, v in spec.frozen_operators.items()}
    for name, (lo, hi) in spec.bounds().items():
        doc[f"{name}_bounds"] = [float(lo), float(hi)]
    doc["lx"] = spec.domain_lx
    doc["ly"] = spec.domain_ly
    doc["emin"] = spec.resolved_emin
    if doc["loads"] is not None:
        doc["loads"] = [[d, float(v)] for d, v in doc["loads"]]
    return doc
