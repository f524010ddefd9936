import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from csgtopo import fea, geometry
from csgtopo.csg import UNION, one_hot, softmax_encode
from csgtopo.config import (MAX_TAPE_DOUBLES, ConfigError, MmaConfig, ProblemSpec,
                            config_from_dict)
from csgtopo.problem import Model, SolverAbort, builtin_problem, initialize, optimize
from conftest import connected_design, counting_splu


def quick_spec(**overrides):
    """Small instance that optimizes in a couple of seconds."""
    base = dict(nx=12, ny=6, tree_depth=2, sides=4,
                mma=MmaConfig(max_iter=25))
    base.update(overrides)
    return ProblemSpec(**base)


# -- spec validation ------------------------------------------------------------

def test_default_spec_matches_documented_values():
    spec = ProblemSpec()
    assert (spec.nx, spec.ny) == (60, 30)
    assert (spec.domain_lx, spec.domain_ly) == (60.0, 30.0)
    assert spec.sides == 6 and spec.tree_depth == 4
    assert spec.gamma == 100.0 and spec.beta == 8.0 and spec.lse_scale == 100.0
    assert spec.seed == 2
    assert spec.mma.move_limit == 0.05
    assert spec.mma.kkt_tol == 1e-3 and spec.mma.step_tol == 1e-3
    assert spec.mma.max_iter == 200
    b = spec.bounds()
    assert b["cx"] == (3.0, 57.0)
    assert b["cy"] == (1.5, 28.5)
    assert b["d"] == (0.0, 15.0)
    assert b["theta"] == (0.0, 2 * math.pi / 6)


@pytest.mark.parametrize("field,value", [
    ("vf_star", 1.5), ("vf_star", 0.0), ("tree_depth", 0), ("sides", 2),
    ("gamma", -1.0), ("nu", 0.6), ("penalty", 0.5), ("benchmark", "nope"),
    ("frozen_operators", {99: "union"}), ("frozen_operators", {0: "xor"}),
    # the Python API can pass any object where the CLI builds a dict or an
    # MmaConfig; a wrong one must not pass and then fail inside optimize
    ("frozen_operators", [1]), ("frozen_operators", None),
    ("mma", {"max_iter": 3}), ("mma", None),
    # integers too long to print: Python refuses past 4300 digits
    *(pytest.param(field, -10 ** 5000, id=f"{field}--10**5000")
      for field in ("seed", "tree_depth", "sides")),
    ("frozen_operators", {10 ** 5000: "union"}),
    pytest.param("lx", 10 ** 5000, id="lx-10**5000"),
    pytest.param("e0", 10 ** 5000, id="e0-10**5000"),
    ("cx_bounds", [0, 10 ** 5000]), ("frozen_operators", {0: 10 ** 5000}),
    ("loads", [(13, 10 ** 5000)]), ("fixed_dofs", [10 ** 5000, "a"]),
    # one field per message, never two fused
    ("nx", 0), ("ny", 0), ("lx", 0.0), ("ly", -1.0),
    # finite bounds whose span is not: the design-vector scale would be inf
    ("theta_bounds", [-1e308, 1e308]), ("cx_bounds", [-1e308, 1e308]),
])
def test_spec_validation_names_field(field, value):
    spec = dataclasses.replace(ProblemSpec(), **{field: value})
    with pytest.raises(ConfigError, match=f"^{field}: "):
        spec.validate()


def test_field_types_come_from_the_annotations():
    # an int field takes no float, even a whole one; a float field takes an int
    with pytest.raises(ConfigError, match="^nx: must be an integer, got 60.0$"):
        ProblemSpec(nx=60.0).validate()
    ProblemSpec(e0=1).validate()
    with pytest.raises(ConfigError, match="^e0: must be a finite number, got True$"):
        ProblemSpec(e0=True).validate()


@pytest.mark.parametrize("field,value,message", [
    ("fixed_dofs", [10 ** 5000, "a"], "fixed_dofs: dof 'a' is not an integer"),
    ("loads", [(13, -1.0), (15, 10 ** 5000)],
     "loads: [15, ~2^16610] is not an integer dof and a finite value"),
    ("cx_bounds", ["x" * 100, 1.0], "cx_bounds: expected a [lo, hi] pair of finite "
     f"numbers, got ['{'x' * 36}..., 1.0]"),
], ids=["fixed_dofs", "loads", "cx_bounds"])
def test_message_shows_the_bad_entry_briefly(field, value, message):
    spec = dataclasses.replace(ProblemSpec(), **{field: value})
    with pytest.raises(ConfigError) as info:
        spec.validate()
    assert str(info.value) == message


@pytest.mark.parametrize("overrides", [
    {"tree_depth": 30},
    {"tree_depth": 10, "sides": 4, "nx": 167, "ny": 128},    # one column over
    {"tree_depth": 1, "sides": 3, "nx": 10 ** 6, "ny": 10 ** 6},
    # integers too long to print, which the message must not try to
    {"sides": 10 ** 5000}, {"nx": 10 ** 5000}, {"tree_depth": 10 ** 5000},
])
def test_oversized_tape_is_rejected_before_allocation(overrides):
    spec = ProblemSpec(**overrides)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="^tree_depth: "):
            spec.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_tape_budget_admits_every_documented_config():
    # 2^10 * (3 * 166 * 128 + 5 * (166 + 128) + 8) doubles is just under the
    # budget, and one column more is over it
    ProblemSpec(tree_depth=10, sides=4, nx=166, ny=128).validate()
    # the largest config of the tests and the README, the 100x50 depth-6
    # cantilever, stays far below it
    spec = ProblemSpec(nx=100, ny=50, tree_depth=6, benchmark="mid_cantilever")
    spec.validate()
    assert 2 ** 6 * 6 * 100 * 50 * 30 < MAX_TAPE_DOUBLES


# the largest lse_scale on the default 60x30 domain with the default centre
# bounds [3, 57]: 2 (lse_scale / l0) max |x - cx| = 700 at |x - cx| = 57
LSE_SCALE_BOUND = 700.0 * math.hypot(60.0, 30.0) / (2.0 * 57.0)


@pytest.mark.parametrize("overrides", [
    {"lse_scale": 1.001 * LSE_SCALE_BOUND},
    {"lse_scale": 1e308},
    # centres far outside the domain push the same bound from the other side
    {"cx_bounds": (1e300, 1e301)},
    {"cx_bounds": (-500.0, 100.0)},
])
def test_a_smooth_max_that_can_underflow_is_rejected(overrides):
    with pytest.raises(ConfigError, match="^lse_scale: .* cx_bounds"):
        ProblemSpec(**overrides).validate()


def test_the_smooth_max_stays_normal_just_inside_its_bound():
    # the factored smooth max's largest term per cell is at least
    # exp(-min(span X, span Y)), so just inside the rule no Z underflows: a
    # forward and gradients pass at the corners of the design box runs
    # without the divide warning log(0) would raise, with finite results
    spec = ProblemSpec(nx=60, ny=30, tree_depth=2, lse_scale=0.999 * LSE_SCALE_BOUND)
    spec.validate()
    model = Model(spec)
    for z in (np.zeros(model.n), np.ones(model.n), np.tile([0.0, 1.0], model.n)[:model.n]):
        model.forward(z)
        tape = model._work.tape
        assert np.isfinite(tape.inv_z).all() and (tape.inv_z < 1 / np.finfo(float).tiny).all()
        assert all(np.isfinite(g).all() for g in model.gradients())


@pytest.mark.parametrize("doc,name", [
    ({"nx": 3000, "ny": 3000, "tree_depth": 1, "sides": 3}, "nx"),   # 1.1e11 doubles
    ({"nx": 10, "ny": 30000, "tree_depth": 1, "sides": 3}, "ny"),    # 4.0e10
])
def test_oversized_band_is_rejected_before_allocation(doc, name):
    # each tape fits the budget, but the solve's band would not
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=f"^{name}: the solve's band "):
            config_from_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# 12x6 mesh: 2 * 13 * 7 = 182 dofs; the mbb supports and load of that mesh
MBB_12X6 = {"fixed_dofs": [2 * j for j in range(7)] + [2 * (12 * 7) + 1],
            "loads": [(13, -1.0)]}


@pytest.mark.parametrize("field,overrides", [
    ("loads", {"loads": [(0, -1.0)]}),                     # on a fixed dof
    ("loads", {"loads": [(182, -1.0)]}),                   # past the last dof
    ("loads", {"loads": [(13, -1.0), (13, 0.5)]}),         # dof loaded twice
    ("loads", {"loads": []}),
    ("fixed_dofs", {"fixed_dofs": [-1, 0, 2]}),
    ("fixed_dofs", {"fixed_dofs": [0, 182]}),
    ("fixed_dofs", {"fixed_dofs": []}),
])
def test_custom_bcs_validation_names_field(field, overrides):
    spec = ProblemSpec(nx=12, ny=6, benchmark=None, **{**MBB_12X6, **overrides})
    with pytest.raises(ConfigError, match=f"^{field}: "):
        Model(spec)


@pytest.mark.parametrize("field,value", [("lx", 1e-300), ("ly", 1e-300), ("ly", 5e-324)])
def test_an_element_stiffness_past_the_float_range_names_its_side(field, value):
    # 1e-300 over 8 or 4 elements overflows the strain-displacement products
    # of the element template, and 5e-324 / 4 is an element side of 0; a
    # RuntimeWarning would be an error here
    with pytest.raises(ConfigError, match=f"^{field}: "):
        Model(ProblemSpec(nx=8, ny=4, tree_depth=1, **{field: value}))


def test_design_vector_sizes():
    spec = ProblemSpec(tree_depth=4, sides=6)
    assert spec.n_primitives == 16 and spec.n_operators == 15
    assert spec.design_size == 16 * 9 + 4 * 15 == 204
    frozen = ProblemSpec(tree_depth=4, sides=6, frozen_operators={0: "union"})
    assert frozen.design_size == 204 - 4


@pytest.mark.parametrize("overrides,field", [({"sides": 2}, "sides"), ({"nx": 0}, "nx"),
                                             ({"tree_depth": 200}, "tree_depth")])
def test_initialize_rejects_an_invalid_spec(overrides, field):
    with pytest.raises(ConfigError, match=f"^{field}: "):
        initialize(ProblemSpec(**overrides))


# -- denormalization --------------------------------------------------------------

def test_denormalize_center_bounds():
    spec = ProblemSpec()
    model = Model(spec)
    z = initialize(spec)
    z[: spec.n_primitives] = 0.0
    rows, _ = model.denormalize(z)
    assert rows[:, 0] == pytest.approx(3.0, abs=1e-12)
    z[: spec.n_primitives] = 1.0
    rows, _ = model.denormalize(z)
    assert rows[:, 0] == pytest.approx(57.0, abs=1e-12)


def test_denormalize_midpoint():
    spec = ProblemSpec()
    model = Model(spec)
    z = np.full(spec.design_size, 0.5)
    rows, weights = model.denormalize(z)
    assert rows.shape == (spec.n_primitives, 3 + spec.sides)
    for row in rows:
        assert (row[0], row[1]) == (pytest.approx(30.0), pytest.approx(15.0))
        assert np.allclose(row[3:], 7.5, atol=1e-12)
    assert np.allclose(weights, 0.25, atol=1e-12)


def test_denormalize_injects_frozen_operators():
    spec = ProblemSpec(frozen_operators={3: "difference"})
    model = Model(spec)
    _, weights = model.denormalize(initialize(spec))
    assert np.array_equal(weights[3], [0, 0, 1, 0])


def test_denormalize_weights_match_per_node_encoding():
    # the one (n_free, 4) softmax gives each node what its own call gives
    spec = ProblemSpec(tree_depth=4, frozen_operators={0: "union", 5: "difference"})
    model = Model(spec)
    z = initialize(spec)
    _, weights = model.denormalize(z)
    offset = spec.n_primitives * (spec.sides + 3)
    for node in range(spec.n_operators):
        if node in model.frozen:
            want = one_hot(model.frozen[node])
        else:
            want = softmax_encode(z[offset:offset + 4], spec.softmax_scale)
            offset += 4
        assert np.array_equal(weights[node], want), node
    assert offset == z.size


def test_normalize_round_trip():
    # every geometry entry is lo + (hi - lo) * z of its field's bound pair
    spec = ProblemSpec()
    model = Model(spec)
    z = initialize(spec)
    rows, _ = model.denormalize(z)
    n_p, s = spec.n_primitives, spec.sides
    blocks = {"cx": z[:n_p], "cy": z[n_p:2 * n_p], "theta": z[2 * n_p:3 * n_p],
              "d": z[3 * n_p:n_p * (s + 3)].reshape(n_p, s)}
    columns = {"cx": rows[:, 0], "cy": rows[:, 1], "theta": rows[:, 2], "d": rows[:, 3:]}
    for name, (lo, hi) in spec.bounds().items():
        assert np.array_equal(columns[name], lo + (hi - lo) * blocks[name])


def test_full_layout_labels_and_index_map():
    # the layout entry by entry, with two frozen nodes and S past 10
    spec = ProblemSpec(nx=8, ny=4, tree_depth=3, sides=11,
                       frozen_operators={0: "union", 5: "difference"})
    model = Model(spec)
    n_p = spec.n_primitives
    labels = [f"{name}[{i}]" for name in ("cx", "cy", "theta") for i in range(n_p)]
    labels += [f"d[{i}][{j}]" for i in range(n_p) for j in range(spec.sides)]
    labels += [f"b[{k}][{j}]" for k in range(spec.n_operators) for j in range(4)]
    assert [model.label_for_index(i) for i in range(model.full_size)] == labels
    free = [label for label in labels if not label.startswith(("b[0]", "b[5]"))]
    assert len(free) == model.n
    assert model.full_to_free.tolist() == [
        free.index(label) if label in free else -1 for label in labels]
    with pytest.raises(IndexError):
        model.label_for_index(model.full_size)


def test_denormalize_rejects_wrong_length():
    model = Model(ProblemSpec())
    with pytest.raises(ValueError):
        model.denormalize(np.zeros(7))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_forward_rejects_non_finite_design(small_spec, bad):
    # the entry is named as the fault, not the supports of a singular system
    model = Model(small_spec)
    z = initialize(small_spec)
    model.forward(z)
    z[5] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        model.forward(z)
    with pytest.raises(ValueError, match="no completed forward"):
        model.gradients()


# -- initialization ---------------------------------------------------------------

def test_initialize_deterministic_and_in_range():
    spec = ProblemSpec()
    a = initialize(spec)
    b = initialize(spec)
    assert np.array_equal(a, b)
    assert ((a >= 0.0) & (a < 1.0)).all()


def test_initialize_different_seeds_differ():
    spec = ProblemSpec()
    a = initialize(spec)
    b = initialize(dataclasses.replace(spec, seed=3))
    assert np.mean(a != b) >= 0.95


# -- built-in benchmarks ------------------------------------------------------------

def test_mbb_boundary_conditions_counts():
    bcs = builtin_problem("mbb", 60, 30)
    assert bcs.fixed_dofs.size == 31 + 1
    x_dofs = [2 * j for j in range(31)]
    assert set(x_dofs).issubset(set(bcs.fixed_dofs.tolist()))
    assert bcs.loads == {2 * 30 + 1: -1.0}


def test_mid_cantilever_boundary_conditions_counts():
    bcs = builtin_problem("mid_cantilever", 100, 50)
    assert bcs.fixed_dofs.size == 2 * 51
    node = 100 * 51 + 25
    assert bcs.loads == {2 * node + 1: -1.0}


@pytest.mark.parametrize("name,mesh", [("mbb", (12, 6)), ("mid_cantilever", (12, 6))])
def test_benchmarks_are_well_posed(name, mesh):
    nx, ny = mesh
    m = fea.Mesh(nx, ny, float(nx), float(ny))
    bcs = builtin_problem(name, nx, ny)
    _, j_val = fea.analyze(np.ones(m.n_elements), m, fea.Material(), bcs)
    assert j_val > 0


def test_unknown_benchmark_lists_valid_names():
    with pytest.raises(ConfigError, match="mbb"):
        builtin_problem("bridge", 10, 5)


# -- forward-only evaluation -------------------------------------------------------

# sides 3, 6 and 8, depths 1-3, frozen nodes, lx != nx and a custom BC set
EVALUATE_CONFIGS = {
    "d1_s3": dict(nx=12, ny=6, tree_depth=1, sides=3),
    "d2_s6_frozen": dict(nx=12, ny=6, tree_depth=2, sides=6,
                         frozen_operators={0: "union"}),
    "d3_s8_frozen_stretched": dict(nx=10, ny=5, lx=20.0, ly=5.0, tree_depth=3, sides=8,
                                   frozen_operators={1: "difference", 4: "intersection"}),
    # rollers along the bottom edge, pinned in x at the lower-left node
    "d2_s4_custom_bcs": dict(nx=10, ny=4, tree_depth=2, sides=4, benchmark=None,
                             fixed_dofs=[0] + [10 * i + 1 for i in range(11)],
                             loads=[[39, -1.0], [108, 0.5]]),
}


def moved(z: np.ndarray, index: int, h: float = 1e-6) -> np.ndarray:
    out = np.array(z)
    out[index] += h
    return out


@pytest.mark.parametrize("name", sorted(EVALUATE_CONFIGS))
def test_evaluate_equals_forward_bit_for_bit(name):
    # a walk like a finite-difference pass: one cx moved, one d[i][j], one
    # operator entry, the same design twice, a fresh design, and back
    model = Model(ProblemSpec(**EVALUATE_CONFIGS[name]))
    n_p, s = model.spec.n_primitives, model.spec.sides
    rng = np.random.default_rng(5)
    z0 = rng.random(model.n)
    walk = [z0, moved(z0, n_p - 1)]
    walk.append(moved(walk[-1], 3 * n_p + (n_p // 2) * s + s - 1))
    walk.append(moved(walk[-1], model.n - 1))
    walk += [np.array(walk[-1]), rng.random(model.n), z0]
    for z in walk:
        want = model.forward(z)
        assert model.evaluate(z) == want


def test_evaluate_projects_only_the_changed_primitive(monkeypatch):
    model = Model(quick_spec())
    n_p, s = model.spec.n_primitives, model.spec.sides
    z = initialize(model.spec)
    model.evaluate(z)
    projected = []
    original = geometry.rasterize_with_tape

    def rasterize(rows, grid, cfg, out=None):
        projected.append(np.array(rows))
        return original(rows, grid, cfg, out=out)

    monkeypatch.setattr(geometry, "rasterize_with_tape", rasterize)
    i, j = 2, 1
    z_d = moved(z, 3 * n_p + i * s + j)
    model.evaluate(z_d)
    assert len(projected) == 1 and len(projected[0]) == 1
    assert np.array_equal(projected[0][0], model.denormalize(z_d)[0][i])
    projected.clear()
    model.evaluate(moved(z_d, model.n - 1))  # an operator entry
    assert projected == []


@pytest.mark.parametrize("sides", range(3, 9))
def test_forward_leaf_fields_equal_one_polygon_projections(sides):
    # forward projects all rows in one batch; the snapped benchmark
    # compliance projects each row of denormalize on its own
    spec = ProblemSpec(nx=9000 // (32 * sides), ny=32, tree_depth=3, sides=sides)
    model = Model(spec)
    z = initialize(spec)
    model.forward(z)
    leaves = model._work.node_values[spec.n_operators:]
    rows = model.denormalize(z)[0]
    assert len(leaves) == len(rows) == spec.n_primitives
    for leaf, row in zip(leaves, rows):
        assert np.array_equal(leaf, geometry.rasterize_primitive(row, model.mesh,
                                                                 model.cfg).values)


@pytest.mark.parametrize("failure", ["wrong_size", "projection", "projection_after_write",
                                     "solve"])
def test_evaluate_after_a_failed_call_equals_forward(monkeypatch, failure):
    model = Model(quick_spec())
    z0 = initialize(model.spec)
    z1 = moved(z0, 3 * model.spec.n_primitives + 5)
    original = geometry.rasterize_with_tape

    def fail(*args, **kwargs):
        raise fea.SingularSystemError("injected")

    def fail_after_write(rows, grid, cfg, out=None):
        # a projection that has written its outputs, here garbage, and then raises
        rho, tape = original(rows, grid, cfg, out=out)
        rho.fill(np.nan)
        for name in TAPE_FIELDS:
            getattr(tape, name).fill(np.nan)
        raise fea.SingularSystemError("injected")

    # the fields the failed call left are read first by a call at its own
    # design, then by one at the design before it
    for after in ((z1, z0), (z0, z1)):
        model.evaluate(z0)
        if failure == "wrong_size":
            with pytest.raises(ValueError):
                model.evaluate(z1[:-1])
        else:
            target = {"projection": (geometry, "rasterize_with_tape", fail),
                      "projection_after_write": (geometry, "rasterize_with_tape",
                                                 fail_after_write),
                      "solve": (fea, "solve", fail)}[failure]
            with monkeypatch.context() as patch:
                patch.setattr(*target)
                with pytest.raises(fea.SingularSystemError):
                    model.evaluate(z1)
        for z in after:
            want = Model(model.spec).forward(z)
            assert model.evaluate(z) == want
            assert model.forward(z) == want


def test_evaluate_factors_only_until_it_keeps_a_solve(small_spec, monkeypatch):
    # factorizations per call: a forward and the first evaluate after it
    # factor, later evaluates solve against that evaluate's factor; one
    # that has to factor after all ends the reuse until the next forward,
    # and one that raises drops the kept solve
    model = Model(small_spec)
    z0 = connected_design(small_spec)
    z1 = moved(z0, 3 * model.spec.n_primitives + 5)
    far = np.random.default_rng(4).random(model.n)
    calls = counting_splu(monkeypatch)

    def factorizations(call, z):
        calls.clear()
        j_val, _ = call(z)
        fresh = Model(model.spec).forward(z)[0]
        assert abs(j_val - fresh) <= 1e-12 * fresh
        return len(calls) - 1

    walk = [(model.forward, z0, 1), (model.evaluate, z1, 1), (model.evaluate, z0, 0),
            (model.evaluate, far, 1), (model.evaluate, z1, 1), (model.forward, z0, 1),
            (model.evaluate, z1, 1), (model.evaluate, z0, 0)]
    assert [factorizations(call, z) for call, z, _ in walk] == [n for *_, n in walk]
    with pytest.raises(ValueError):
        model.evaluate(z1[:-1])
    assert [factorizations(model.evaluate, z) for z in (z0, z1)] == [1, 0]


def test_evaluate_reports_the_change_of_j_against_its_kept_solve(small_spec):
    # J_change: None on a forward, 0.0 on the evaluate that keeps its solve,
    # J - J_kept without J's rounding on those solved against it, and None
    # again once a far design has ended the reuse
    model = Model(small_spec)
    z0 = connected_design(small_spec)
    z1 = moved(z0, 3 * model.spec.n_primitives + 5)
    far = np.random.default_rng(4).random(model.n)
    model.forward(z0)
    assert model.J_change is None
    j_kept, _ = model.evaluate(z0)
    assert model.J_change == 0.0
    j1, _ = model.evaluate(z1)
    assert model.J_change != 0.0
    assert abs(model.J_change - (j1 - j_kept)) <= 2 * np.spacing(j_kept)
    for z in (far, z1):
        model.evaluate(z)
        assert model.J_change is None
    model.forward(z0)
    assert model.J_change is None


# -- the forward and gradient workspace ----------------------------------------------

TAPE_FIELDS = [field.name for field in dataclasses.fields(geometry.ProjectionTape)]


def test_forward_and_gradients_reuse_the_workspace():
    # the deep-tree benchmark's problem: after the first pass, a forward and
    # gradients pass fills the Model's tape and fields, and the pullback
    # writes its chain into the tree walk's scratch, so the pass allocates
    # less than that chain would take: one field stack per seed
    model = Model(ProblemSpec(nx=32, ny=16, tree_depth=8,
                              frozen_operators={0: "difference"}))
    rng = np.random.default_rng(3)
    model.forward(rng.random(model.n))
    model.gradients()
    z = rng.random(model.n)
    tracemalloc.start()
    try:
        model.forward(z)
        model.gradients()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field_stack_bytes = model._work.node_values[model.spec.n_operators:].nbytes
    assert peak < 2 * field_stack_bytes
    # the tape is smaller than the stack of half-space distances it replaced
    tape_bytes = sum(getattr(model._work.tape, name).nbytes for name in TAPE_FIELDS)
    assert tape_bytes < model.spec.sides * field_stack_bytes


@pytest.mark.parametrize("sides", [3, 8])
def test_reused_workspace_equals_a_fresh_model(sides):
    spec = ProblemSpec(nx=9000 // (32 * sides), ny=32, tree_depth=3, sides=sides,
                       frozen_operators={1: "union"})
    model = Model(spec)
    rng = np.random.default_rng(8)
    z0 = rng.random(model.n)
    walk = [z0, moved(z0, 2, 0.05), rng.random(model.n), np.array(z0)]
    # primitives 1 and 6 moved: the span re-projected holds four that did
    # not; then an operator entry alone, which re-projects none
    walk.append(moved(moved(z0, 1, 0.05), 3 * spec.n_primitives + 6 * sides, 0.05))
    walk.append(moved(walk[-1], model.n - 1, 0.05))
    for step, z in enumerate(walk):
        if step == 3:
            # a one-shot pass keeps its pass, for gradients() to read again,
            # and its workspace, for the next evaluate to refill
            *got_jg, dj, dg = model.forward_gradients(z)
            got = model.gradients()
            assert np.array_equal(got[0], dj) and np.array_equal(got[1], dg)
        else:
            got_jg = model.evaluate(z) if step == 4 else model.forward(z)
            got = model.gradients()
        fresh = Model(spec)
        want_jg = fresh.forward(z)
        want = fresh.gradients()
        assert tuple(got_jg) == want_jg
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert np.array_equal(model._work.node_values, fresh._work.node_values)
        for name in TAPE_FIELDS:
            assert np.array_equal(getattr(model._work.tape, name),
                                  getattr(fresh._work.tape, name)), name


def test_gradients_need_a_completed_forward(small_spec, monkeypatch):
    model = Model(small_spec)
    z = initialize(small_spec)
    z1 = moved(z, 0, 0.1)

    def no_pass():
        with pytest.raises(ValueError, match="no completed forward"):
            model.gradients()

    no_pass()
    model.forward(z)
    model.gradients()

    def fail(*args, **kwargs):
        raise fea.SingularSystemError("injected")

    # a forward that raises leaves no pass, whether it raised before
    # projecting, in the projection or in the solve
    model.forward(z)
    with pytest.raises(ValueError, match="design vector"):
        model.forward(z1[:-1])
    no_pass()
    for target in ((geometry, "rasterize_with_tape"), (fea, "solve")):
        model.forward(z)
        with monkeypatch.context() as patch:
            patch.setattr(*target, fail)
            with pytest.raises(fea.SingularSystemError):
                model.forward(z1)
        no_pass()
    # evaluate is a forward too: the pass differentiated is z's, not z1's
    model.forward(z1)
    model.evaluate(z)
    got = model.gradients()
    want = Model(small_spec).forward_gradients(z)[2:]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


# -- optimization loop ---------------------------------------------------------------

@pytest.fixture(scope="module")
def quick_result():
    return optimize(quick_spec())


def test_optimize_history_is_consistent(quick_result):
    res = quick_result
    assert 1 <= res.iterations <= 25
    iters = [r.iteration for r in res.history]
    assert iters == list(range(1, res.iterations + 1))
    for r in res.history:
        assert r.t_projection + r.t_tree + r.t_fea_sens <= r.t_total + 1e-9


def test_optimize_history_replays_exactly(quick_result):
    # logged J and g_v must be reproducible from the logged design vectors
    model = Model(quick_spec())
    for r in list(quick_result.history)[::7]:
        j_val, g_val = model.evaluate(r.z)
        assert j_val == pytest.approx(r.J, abs=1e-10 * max(1.0, abs(r.J)))
        assert g_val == pytest.approx(r.g_v, abs=1e-10)


def test_optimize_snapped_reporting_is_consistent(quick_result):
    res = quick_result
    model = Model(quick_spec())
    assert model.grid is model.mesh  # one grid: the fields sample the elements
    import csgtopo.csg as csg
    import csgtopo.geometry as geometry
    leaf_values = np.vstack([
        geometry.rasterize_primitive(row, model.mesh, model.cfg).values
        for row in model.denormalize(res.z)[0]])
    root = csg.evaluate_tree_values(np.eye(4)[res.ops], leaf_values)[0]
    _, j_again = fea.analyze(np.clip(root, 0, 1), model.mesh, model.material,
                             model.bcs, model.k0)
    assert j_again == pytest.approx(res.J_snapped, abs=1e-10 * max(1.0, res.J_snapped))
    assert np.array_equal(root.clip(0, 1), res.rho_snapped)
    assert np.array_equal(res.ops, res.weights.argmax(axis=1))


def test_optimize_depth_study_completes():
    js = {}
    for depth in (2, 3, 4, 5):
        spec = ProblemSpec(nx=12, ny=6, tree_depth=depth, sides=4,
                           mma=MmaConfig(max_iter=8))
        res = optimize(spec)
        js[depth] = res.J_snapped
        assert np.isfinite(res.J_snapped)
    assert set(js) == {2, 3, 4, 5}


def test_optimize_unconstrained_volume_goes_solid():
    # vf* = 1 never binds, so the optimizer piles material on: the final
    # compliance may only approach the solid plate from above
    spec = quick_spec(vf_star=1.0, mma=MmaConfig(max_iter=60),
                      d_bounds=(0.0, 30.0))
    res = optimize(spec)
    model = Model(spec)
    _, j_solid = fea.analyze(np.ones(model.mesh.n_elements), model.mesh,
                             model.material, model.bcs, model.k0)
    assert res.J >= j_solid - 1e-9
    assert res.J <= 1.6 * j_solid
    assert res.rho.mean() > 0.8


def test_optimize_all_union_freeze():
    spec = quick_spec(frozen_operators={k: "union" for k in range(3)})
    res = optimize(spec)
    assert np.array_equal(res.ops, [UNION] * 3)


def test_optimize_aborts_on_singular_system():
    # one pinned dof leaves rigid-body modes: the first solve must abort
    # carrying the partial history
    spec = quick_spec(benchmark=None, fixed_dofs=[0],
                      loads=[(2 * 6 + 1, -1.0)])
    with pytest.raises(SolverAbort) as info:
        optimize(spec)
    assert info.value.iteration == 1
    assert len(info.value.history) == 0


def test_optimize_aborts_on_non_finite_gradient(monkeypatch):
    calls = []
    original = Model.gradients

    def gradients(self):
        calls.append(None)
        dj, dg = original(self)
        return (np.full_like(dj, np.nan), dg) if len(calls) >= 3 else (dj, dg)

    monkeypatch.setattr(Model, "gradients", gradients)
    with pytest.raises(SolverAbort) as info:
        optimize(quick_spec())
    assert info.value.iteration == 3
    assert [r.iteration for r in info.value.history] == [1, 2]
    # z is the design iteration 3 evaluated, made by iteration 2's finite update
    assert np.all(np.isfinite(info.value.z))
    assert not np.array_equal(info.value.z, info.value.history.records[-1].z)
