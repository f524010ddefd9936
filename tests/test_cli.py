import concurrent.futures
import dataclasses
import json
import os
import stat
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from csgtopo import cli, sensitivity
from csgtopo.cli import main
from csgtopo.config import (ConfigError, MmaConfig, ProblemSpec, config_from_dict,
                            spec_to_dict)
from csgtopo.problem import Model, SolverAbort, initialize

QUICK = {
    "nx": 12, "ny": 6, "tree_depth": 2, "sides": 4,
    "mma": {"max_iter": 12},
}


def write_config(path: Path, doc=None) -> Path:
    cfg = path / "config.json"
    cfg.write_text(json.dumps(QUICK if doc is None else doc))
    return cfg


def read_history(path: Path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


# -- run -----------------------------------------------------------------------

def test_run_writes_all_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("config.json", "history.csv", "timings.csv", "design.csv",
                 "design.pgm", "tree.json", "summary.json"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"J_relaxed", "J_snapped", "g_v", "g_v_snapped",
                            "iterations", "convergence", "empty_design"}
    assert summary["iterations"] <= 12


def test_run_rejects_invalid_volume_fraction(tmp_path, capsys):
    cfg = write_config(tmp_path, {**QUICK, "vf_star": 1.5})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "vf_star" in capsys.readouterr().err


def test_run_rejects_oversized_tree_without_traceback(tmp_path, capsys):
    cfg = write_config(tmp_path, {"tree_depth": 30})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "tree_depth" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_run_rejects_unknown_keys(tmp_path, capsys):
    cfg = write_config(tmp_path, {**QUICK, "volfrac": 0.4})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "volfrac" in capsys.readouterr().err


def test_run_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("history.csv", "design.csv", "design.pgm", "tree.json",
                 "summary.json", "config.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_run_seed_override_changes_design(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2),
                 "--seed", "7"]) == 0
    assert (out1 / "design.csv").read_bytes() != (out2 / "design.csv").read_bytes()


def test_effective_config_round_trips(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "a"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    echoed = out1 / "config.json"
    out2 = tmp_path / "b"
    assert main(["run", "--config", str(echoed), "--out", str(out2)]) == 0
    for name in ("history.csv", "design.csv", "tree.json", "summary.json",
                 "config.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize("overrides,argv,field", [
    ({"seed": -1}, [], "seed"),
    ({"seed": 1.5}, [], "seed"),
    ({"seed": "x"}, [], "seed"),
    ({}, ["--seed", "-3"], "seed"),
    ({"benchmark": None, "fixed_dofs": ["a"], "loads": [[13, -1.0]]}, [], "fixed_dofs"),
    ({"benchmark": None, "fixed_dofs": 5, "loads": [[13, -1.0]]}, [], "fixed_dofs"),
    ({"cx_bounds": ["a", 1]}, [], "cx_bounds"),
    ({"nx": "12"}, [], "nx"),
    ({"e0": "x"}, [], "e0"),
    ({"mma": {"max_iter": "x"}}, [], "mma"),
    ({"frozen_operators": [1]}, [], "frozen_operators"),
    ({"mma": {"max_iter": 2.5}}, [], "mma"),
    ({"mma": {"max_iter": True}}, [], "mma"),
    ({"mma": {"kkt_tol": float("inf")}}, [], "mma"),
    ({"gamma": float("inf")}, [], "gamma"),
    ({"penalty": float("inf")}, [], "penalty"),
    ({"lx": float("inf")}, [], "lx"),
    ({"e0": float("inf")}, [], "e0"),
    ({"d_bounds": [0.0, float("inf")]}, [], "d_bounds"),
    ({"benchmark": None, "fixed_dofs": [0, 1], "loads": [[13, float("inf")]]}, [],
     "loads"),
    ({"benchmark": None, "fixed_dofs": [0, 5.7], "loads": [[13, -1.0]]}, [], "fixed_dofs"),
    ({"benchmark": None, "fixed_dofs": [0, True], "loads": [[13, -1.0]]}, [],
     "fixed_dofs"),
    ({"benchmark": None, "fixed_dofs": ["0", 1], "loads": [[13, -1.0]]}, [],
     "fixed_dofs"),
    ({"benchmark": None, "fixed_dofs": [0, 1], "loads": [["20", "-1"]]}, [], "loads"),
    ({"benchmark": None, "fixed_dofs": [0, 1], "loads": [[20.9, -1]]}, [], "loads"),
    ({"benchmark": None, "fixed_dofs": [0, 1], "loads": [[13, True]]}, [], "loads"),
    ({"benchmark": None, "fixed_dofs": [0, 1], "loads": [[13, 0.0], [15, -0.0]]}, [],
     "loads"),
    ({"cx_bounds": ["1", "2"]}, [], "cx_bounds"),
    ({"frozen_operators": {"0": "union", "00": "difference"}}, [], "frozen_operators"),
    ({"frozen_operators": []}, [], "frozen_operators"),
    # integers too large for a float; the tape check runs before nx, ny or
    # sides is converted to one, and bounds the depth before 2^depth is formed
    ({"tree_depth": 1100}, [], "tree_depth"),
    ({"sides": 10 ** 400}, [], "tree_depth"),
    ({"nx": 10 ** 400}, [], "tree_depth"),
    ({"lx": 10 ** 400}, [], "lx"),
    ({"e0": 10 ** 400}, [], "e0"),
    ({"cx_bounds": [0, 10 ** 400]}, [], "cx_bounds"),
    ({"benchmark": None, "fixed_dofs": [0, 1], "loads": [[13, 10 ** 400]]}, [], "loads"),
    ({"mma": {"move_limit": 10 ** 400}}, [], "mma"),
    # the subproblem's asymptote and slack factors are constants, not settings
    ({"mma": {"asymptote_init": 0.5}}, [], "mma"),
    ({"mma": {"slack_penalty": 1000.0}}, [], "mma"),
    # finite bounds whose span overflows a float
    ({"theta_bounds": [-1e308, 1e308]}, [], "theta_bounds"),
    ({"cx_bounds": [-1e308, 1e308]}, [], "cx_bounds"),
    # no step is longer than move_limit, so the first would end the run
    # with convergence "step" however far the design is from a KKT point
    ({"mma": {"move_limit": 1e-4}}, [], "mma: step_tol"),
    ({"mma": {"move_limit": 0.01, "step_tol": 0.01}}, [], "mma: step_tol"),
])
def test_run_rejects_mistyped_config_values(tmp_path, capsys, overrides, argv, field):
    # a mistyped or non-finite value, or one that breaks a rule across
    # fields, exits 1 with an error naming its field
    cfg = write_config(tmp_path, {**QUICK, **overrides})
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out), *argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    {"sides": 10 ** 400},
    {"nx": 10 ** 400},
    {"benchmark": None, "fixed_dofs": [0, 1], "loads": [[10 ** 400, -1.0]]},
])
def test_huge_integers_are_not_printed_in_full(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path, {**QUICK, **overrides})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err) < 300


@pytest.mark.parametrize("content", [
    b'{"seed": ' + b"1" * 5000 + b"}",     # past Python's int-string limit
    b"[" * 100_000,                        # past the recursion limit
    b"\xff\xfe{}",                        # not UTF-8
], ids=["long-int", "deep-nesting", "utf16-bom"])
@pytest.mark.parametrize("argv", [
    ["run", "--out", "o"],
    ["check-grad"],
    ["sweep", "--param", "seed", "--values", "1", "--out", "s"],
], ids=["run", "check-grad", "sweep"])
def test_unparseable_config_exits_1_without_traceback(tmp_path, capsys, monkeypatch,
                                                     content, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_bytes(content)
    assert main([*argv, "--config", "config.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: invalid JSON in ") and "Traceback" not in err
    assert not (tmp_path / "o").exists() and not (tmp_path / "s").exists()


@pytest.mark.parametrize("argv,start", [
    (["run", "--config", "config.json", "--out", "o", "--seed", "abc"],
     "error: csgtopo run: argument --seed: invalid int value: 'abc'"),
    (["run", "--config", "config.json"],
     "error: csgtopo run: the following arguments are required: --out"),
    ([], "error: csgtopo: the following arguments are required: command"),
    (["sweep", "--config", "config.json", "--param", "nx", "--values", "1", "--out", "s"],
     "error: csgtopo sweep: argument --param: invalid choice: 'nx'"),
    (["check-grad", "--config", "config.json", "--entries", "x"],
     "error: csgtopo check-grad: argument --entries: invalid int value: 'x'"),
    (["run", "--config", "config.json", "--out", "taken"],
     "error: out: cannot create directory taken: "),
    (["sweep", "--config", "config.json", "--param", "seed", "--values", "1,2",
      "--out", "taken"], "error: out: cannot create directory taken"),
    (["run", "--config", "config.json", "--out", ""],
     "error: out: must name a directory, got ''"),
    (["sweep", "--config", "config.json", "--param", "seed", "--values", "1,2",
      "--out", ""], "error: out: must name a directory, got ''"),
], ids=["bad-seed", "no-out", "no-command", "bad-param", "bad-entries", "run-out-file",
        "sweep-out-file", "run-empty-out", "sweep-empty-out"])
def test_command_line_failure_is_exit_1(tmp_path, capsys, monkeypatch, argv, start):
    # a flag error and an --out that cannot be a directory return 1 from main,
    # print one error line and write nothing; an empty --out would be the
    # working directory
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path)
    (tmp_path / "taken").write_text("")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(start) and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: csgtopo run ")


def test_readme_config_block_is_the_schema():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1]
    doc = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    assert set(doc) == {f.name for f in dataclasses.fields(ProblemSpec)}
    assert set(doc["mma"]) == {f.name for f in dataclasses.fields(MmaConfig)}
    effective = spec_to_dict(config_from_dict(doc))
    assert set(effective) == set(doc)
    assert set(effective["mma"]) == set(doc["mma"])


def test_readme_gradient_loop_runs():
    # the Library section's own loop, so the documented API cannot drift
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    blocks = [b.split("```", 1)[0] for b in section.split("```python\n")[1:]]
    loop = [b for b in blocks if ".gradients()" in b]
    assert len(loop) == 1
    namespace = {}
    exec(loop[0], namespace)
    assert np.isfinite(namespace["J"]) and namespace["J"] > 0


def test_readme_ranges_are_the_fields_rules():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    types = {"integer": "int", "number": "float", "number or null": "float | None"}
    documented = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            names, kind, interval = (cell.strip() for cell in line.strip("|").split("|"))
            for name in names.split(", "):
                documented[name.strip("`")] = (types[kind], interval.strip("`"))
    declared = {f"{prefix}{f.name}": (f.type, f.metadata["range"])
                for prefix, cls in (("", ProblemSpec), ("mma.", MmaConfig))
                for f in dataclasses.fields(cls) if "range" in f.metadata}
    assert len(declared) == 20
    assert documented == declared


# the names a ConfigError may start with when one field holds a bad value:
# the field itself; tree_depth for a factor of the projection tape's budget;
# lse_scale for centre bounds past the smooth max's underflow rule;
# the fields whose defaults come from the drawn one; and benchmark, whose
# rule forbids explicit boundary conditions beside a benchmark name
ALSO_NAMED = {
    "nx": {"tree_depth"}, "ny": {"tree_depth"}, "sides": {"tree_depth", "theta_bounds"},
    "e0": {"emin"}, "lx": {"cx_bounds", "d_bounds"}, "ly": {"cy_bounds"},
    "fixed_dofs": {"benchmark"}, "loads": {"benchmark"}, "cx_bounds": {"lse_scale"},
}
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              # past a float's range, and past Python's int-string limit
              st.builds(lambda sign, digits: sign * 10 ** digits,
                        st.sampled_from([1, -1]), st.sampled_from([400, 5000])),
              st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
CONFIG_KEYS = [*(f.name for f in dataclasses.fields(ProblemSpec)),
               *(f"mma.{f.name}" for f in dataclasses.fields(MmaConfig))]


@hypothesis.given(key=st.sampled_from(CONFIG_KEYS), value=JSON_VALUES)
@hypothesis.example(key="nx", value=0)
@hypothesis.example(key="lx", value=0.0)
@hypothesis.example(key="fixed_dofs", value=[10 ** 5000, "a"])
@hypothesis.example(key="loads", value=[[13, 10 ** 5000]])
@hypothesis.example(key="frozen_operators", value={"0": 10 ** 5000})
@hypothesis.example(key="cx_bounds", value=[0, 10 ** 5000])
@hypothesis.example(key="mma.move_limit", value=10 ** 5000)
def test_any_value_of_one_field_is_a_spec_or_names_the_field(key, value):
    if key.startswith("mma."):
        doc, allowed = {**QUICK, "mma": {**QUICK["mma"], key[4:]: value}}, {"mma"}
    else:
        doc, allowed = {**QUICK, key: value}, {key, *ALSO_NAMED.get(key, ())}
    try:
        spec = config_from_dict(doc)
    except ConfigError as exc:
        assert str(exc).split(": ", 1)[0] in allowed, str(exc)
    else:
        assert isinstance(spec, ProblemSpec)


def test_run_solver_failure_exit_code(tmp_path, capsys):
    doc = {**QUICK, "benchmark": None, "fixed_dofs": [0], "loads": [[13, -1.0]]}
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_a_failed_run_leaves_no_results_of_an_earlier_run(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
    doc = {**QUICK, "benchmark": None, "fixed_dofs": [0], "loads": [[13, -1.0]]}
    assert main(["run", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(out)]) == 2
    assert sorted(path.name for path in out.iterdir()) == [
        "config.json", "history.csv", "timings.csv"]
    assert json.loads((out / "config.json").read_text())["fixed_dofs"] == [0]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_artifacts_get_the_mode_the_umask_gives(tmp_path, capsys, umask, mode):
    cfg = write_config(tmp_path, {**QUICK, "mma": {"max_iter": 2}})
    previous = os.umask(umask)
    try:
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert main(["sweep", "--config", str(cfg), "--param", "vf_star",
                     "--values", "0.4", "--out", str(tmp_path / "s")]) == 0
    finally:
        os.umask(previous)
    written = [*(tmp_path / "o").iterdir(), tmp_path / "s" / "pareto.csv"]
    assert len(written) == 8
    assert {path.name: stat.S_IMODE(path.stat().st_mode) for path in written} == {
        path.name: mode for path in written}


def test_run_underflowing_compliance_exits_2_with_history(tmp_path, capsys):
    # J = f.u of a 1e-170 load is near 1e-340, below the smallest double: a
    # run that read J = 0 would stop at once by the KKT test as if converged
    doc = {"nx": 8, "ny": 4, "tree_depth": 1, "benchmark": None,
           "fixed_dofs": [0, 2, 4, 6, 8, 81], "loads": [[9, -1e-170]],
           "mma": {"max_iter": 5}}
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(out)]) == 2
    assert "underflowed" in capsys.readouterr().err
    assert (out / "history.csv").exists()


def test_run_zero_gradient_exits_2_with_history(tmp_path, capsys):
    # every primitive starts far outside the domain, so both gradients are
    # exactly zero and the KKT residual with them: no convergence to report.
    # A smooth lse_scale lets the centres lie that far under its underflow
    # rule, and the sigmoid still saturates to exactly 0 there
    doc = {"nx": 12, "ny": 6, "tree_depth": 2, "sides": 4, "lse_scale": 1.0,
           "cx_bounds": [1000.0, 2000.0]}
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(out)]) == 2
    assert "every gradient entry is zero" in capsys.readouterr().err
    assert (out / "history.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("overrides", [{"vf_star": 1e-300},
                                       {"mma": {"move_limit": 1e-300, "step_tol": 1e-301}}])
def test_run_nan_design_update_exits_2_with_history(tmp_path, capsys, overrides):
    # the MMA update of either config returns NaN entries, which the next
    # forward pass would reject with a ValueError
    doc = {"nx": 8, "ny": 4, "tree_depth": 1, **overrides}
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: solver failed at iteration " in err
    assert "Traceback" not in err
    assert (out / "history.csv").exists()


def test_run_non_finite_gradient_exits_2_with_history(tmp_path, monkeypatch):
    calls = []
    original = Model.gradients

    def gradients(self):
        calls.append(None)
        dj, dg = original(self)
        return (dj, np.full_like(dg, np.nan)) if len(calls) >= 3 else (dj, dg)

    monkeypatch.setattr(Model, "gradients", gradients)
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 2
    _, rows = read_history(out / "history.csv")
    assert [r[0] for r in rows] == ["1", "2"]


def test_history_schema_and_design_precision(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["run", "--config", str(cfg), "--out", str(out)])
    header, rows = read_history(out / "history.csv")
    assert header == ["iter", "J", "g_v", "kkt", "step"]
    assert all(len(r) == 5 for r in rows)
    t_header, _ = read_history(out / "timings.csv")
    assert t_header == ["iter", "t_projection", "t_tree", "t_fea_sens", "t_total"]

    design = [float(v) for line in (out / "design.csv").read_text().splitlines()
              for v in line.split(",")]
    assert len(design) == 12 * 6
    assert all(0.0 <= v <= 1.0 for v in design)


def test_pgm_matches_design_csv(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["run", "--config", str(cfg), "--out", str(out)])
    values = np.array([[float(v) for v in line.split(",")]
                       for line in (out / "design.csv").read_text().splitlines()])
    pgm = (out / "design.pgm").read_text().splitlines()
    assert pgm[0] == "P2" and pgm[1] == "12 6" and pgm[2] == "255"
    pixels = np.array([[int(v) for v in row.split()] for row in pgm[3:]])
    assert np.array_equal(pixels, np.rint(255 * values[::-1]).astype(int))


def test_tree_document_structure(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["run", "--config", str(cfg), "--out", str(out)])
    doc = json.loads((out / "tree.json").read_text())
    assert doc["depth"] == 2
    nodes = {n["id"]: n for n in doc["nodes"]}
    assert len(nodes) == 7
    for k in range(3):
        assert nodes[k]["kind"] == "internal"
        assert nodes[k]["children"] == [2 * k + 1, 2 * k + 2]
        assert nodes[k]["operator"] in ("intersection", "union", "difference",
                                        "negative_difference")
        assert len(nodes[k]["weights"]) == 4
    for k in range(3, 7):
        assert nodes[k]["kind"] == "leaf"
        assert set(nodes[k]["params"]) == {"cx", "cy", "theta", "d"}
    pruned = doc["pruned"]
    if not pruned["empty"]:
        assert isinstance(pruned["nodes"], list)


def test_artifacts_describe_one_design(tmp_path):
    # the leaf polygons of tree.json, projected again, rebuild design.csv:
    # through the full snapped tree bit for bit, through the pruned nodes
    # within twice the pruning threshold
    from csgtopo.csg import OPERATOR_NAMES, combine, evaluate_tree_values, one_hot
    from csgtopo.geometry import rasterize_with_tape

    doc = {**QUICK, "nx": 16, "ny": 8, "tree_depth": 3, "seed": 1,
           "frozen_operators": {"1": "negative_difference", "2": "difference"}}
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(out)]) == 0
    model = Model(config_from_dict(json.loads((out / "config.json").read_text())))
    tree = json.loads((out / "tree.json").read_text())
    design = np.array([[float(v) for v in line.split(",")]
                       for line in (out / "design.csv").read_text().splitlines()]).ravel()
    nodes, pruned = tree["nodes"], tree["pruned"]["nodes"]
    assert 0 < len(pruned) < len(nodes)
    rows = np.array([[n["params"][key] for key in ("cx", "cy", "theta")] + n["params"]["d"]
                     for n in nodes if n["kind"] == "leaf"])
    leaves = rasterize_with_tape(rows, model.mesh, model.cfg)[0]
    ops = [OPERATOR_NAMES.index(n["operator"]) for n in nodes if n["kind"] == "internal"]
    full = np.clip(evaluate_tree_values(np.eye(4)[ops], leaves)[0], 0.0, 1.0)
    assert full.tobytes() == design.tobytes()

    def value(nid):
        node = pruned[nid]
        if node["kind"] == "leaf":
            return leaves[node["primitive"]]
        left, right = node["children"]
        return combine(value(left), value(right),
                       one_hot(OPERATOR_NAMES.index(node["operator"])))

    assert np.abs(value(0) - design).max() <= 2 * 0.01


# -- check-grad ------------------------------------------------------------------

# generous offsets keep the seeded random design connected and a small load
# keeps the finite-difference noise floor below the |FD| gate
GRAD_CHECK = {
    "nx": 12, "ny": 6, "tree_depth": 2, "sides": 4, "lx": 60.0, "ly": 30.0,
    "d_bounds": [18.0, 27.0], "seed": 3,
    "benchmark": None,
    "fixed_dofs": [2 * j for j in range(7)] + [2 * (12 * 7) + 1],
    "loads": [[2 * 6 + 1, -0.001]],
}


def test_check_grad_passes_on_clean_gradients(tmp_path):
    cfg = write_config(tmp_path, GRAD_CHECK)
    assert main(["check-grad", "--config", str(cfg), "--entries", "5"]) == 0


def test_check_grad_compliance_noise_on_the_grad_check_design():
    # a central difference of J at h = 1e-6 differences two solves; solved
    # against one kept factor, with the stiffness change summed per element,
    # they share the rounding of solve and assembly, and the worst gated J
    # error is 3.8e-8 here, against 1.4e-5 with two fresh solves.  g_v needs
    # no solve, so its rounding floor is not part of this bound
    spec = config_from_dict(GRAD_CHECK)
    entries = sensitivity.fd_check(Model(spec), initialize(spec), step=1e-6)
    gated = [e.rel_err_j for e in entries
             if not e.skipped and abs(e.fd_j) > sensitivity.FD_FLOOR]
    assert len(gated) >= 20
    assert max(gated) < 1e-6


def test_check_grad_detects_corruption(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, GRAD_CHECK)
    clean = Model.forward_gradients

    def corrupted(self, z):
        j_val, g_val, dj, dg = clean(self, z)
        dj = np.array(dj)
        dj[0] = dj[0] * 1.1 + 1e-3
        return j_val, g_val, dj, dg

    monkeypatch.setattr(Model, "forward_gradients", corrupted)
    assert main(["check-grad", "--config", str(cfg)]) == 3


def test_check_grad_fails_on_nan_gradient(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, GRAD_CHECK)
    clean = Model.forward_gradients

    def corrupted(self, z):
        j_val, g_val, dj, dg = clean(self, z)
        dj = np.array(dj)
        dj[0] = np.nan
        return j_val, g_val, dj, dg

    monkeypatch.setattr(Model, "forward_gradients", corrupted)
    assert main(["check-grad", "--config", str(cfg)]) == 3


def test_run_rejects_load_on_fixed_dof(tmp_path, capsys):
    # the load would be dropped by the reduction and the run "converge" at J = 0
    doc = {**GRAD_CHECK, "loads": [[0, -1.0]]}
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(out)]) == 1
    assert "loads" in capsys.readouterr().err
    assert not out.exists()


def test_check_grad_rejects_zero_step(tmp_path):
    cfg = write_config(tmp_path, GRAD_CHECK)
    assert main(["check-grad", "--config", str(cfg), "--step", "0"]) == 1


@pytest.mark.parametrize("step", ["nan", "inf"])
def test_check_grad_rejects_non_finite_step(tmp_path, capsys, step):
    cfg = write_config(tmp_path, GRAD_CHECK)
    assert main(["check-grad", "--config", str(cfg), "--step", step]) == 1
    assert capsys.readouterr().err.startswith("error: step: ")


def test_check_grad_solver_failure_exit_code(tmp_path):
    doc = {**QUICK, "benchmark": None, "fixed_dofs": [0], "loads": [[13, -1.0]]}
    cfg = write_config(tmp_path, doc)
    assert main(["check-grad", "--config", str(cfg)]) == 2


# -- sweep ----------------------------------------------------------------------

def test_sweep_vf_star(tmp_path):
    cfg = write_config(tmp_path, {**QUICK, "mma": {"max_iter": 6}})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--param", "vf_star",
                 "--values", "0.4,0.6", "--out", str(out)]) == 0
    pareto = (out / "pareto.csv").read_text().splitlines()
    assert pareto[0] == "value,J_relaxed,J_snapped,g_v"
    assert len(pareto) == 3
    assert pareto[1].startswith("0.4,") and pareto[2].startswith("0.6,")
    for sub in ("vf_star=0.4", "vf_star=0.6"):
        assert (out / sub / "summary.json").exists()
        assert json.loads((out / sub / "config.json").read_text())["vf_star"] == \
            float(sub.split("=")[1])


def test_sweep_mesh_values(tmp_path):
    cfg = write_config(tmp_path, {**QUICK, "mma": {"max_iter": 4}})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--param", "mesh",
                 "--values", "12x6,16x8", "--out", str(out)]) == 0
    for sub, nx in (("mesh=12x6", 12), ("mesh=16x8", 16)):
        echoed = json.loads((out / sub / "config.json").read_text())
        assert echoed["nx"] == nx


def test_sweep_seed_parallel_matches_sequential(tmp_path):
    cfg = write_config(tmp_path, {**QUICK, "mma": {"max_iter": 5}})
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert main(["sweep", "--config", str(cfg), "--param", "seed",
                 "--values", "1,2", "--out", str(seq)]) == 0
    assert main(["sweep", "--config", str(cfg), "--param", "seed",
                 "--values", "1,2", "--out", str(par), "--parallel", "2"]) == 0
    assert (seq / "pareto.csv").read_bytes() == (par / "pareto.csv").read_bytes()


def test_sweep_rejects_bad_mesh_token(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--param", "mesh",
                 "--values", "60by30", "--out", str(tmp_path / "s")]) == 1


def test_sweep_parallel_solver_failure_exit_code(tmp_path, capsys):
    # the abort must survive the process-pool round trip intact
    doc = {**QUICK, "benchmark": None, "fixed_dofs": [0], "loads": [[13, -1.0]]}
    cfg = write_config(tmp_path, doc)
    assert main(["sweep", "--config", str(cfg), "--param", "seed",
                 "--values", "1,2", "--out", str(tmp_path / "s"),
                 "--parallel", "2"]) == 2
    pareto = (tmp_path / "s" / "pareto.csv").read_text().splitlines()
    assert pareto == ["value,J_relaxed,J_snapped,g_v", "1,,,", "2,,,"]
    err = capsys.readouterr().err
    assert "seed=1: solver failed" in err and "seed=2: solver failed" in err


def test_sweep_keeps_finished_results_when_one_job_aborts(tmp_path, monkeypatch, capsys):
    original = cli._sweep_one

    def sweep_one(doc, outdir):
        if doc["vf_star"] == 0.5:
            raise SolverAbort("injected failure", None, np.zeros(1), 4)
        return original(doc, outdir)

    monkeypatch.setattr(cli, "_sweep_one", sweep_one)
    cfg = write_config(tmp_path, {**QUICK, "mma": {"max_iter": 3}})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--param", "vf_star",
                 "--values", "0.4,0.5,0.6", "--out", str(out)]) == 2
    header, *rows = (out / "pareto.csv").read_text().splitlines()
    assert header == "value,J_relaxed,J_snapped,g_v"
    assert [r.split(",")[0] for r in rows] == ["0.4", "0.5", "0.6"]
    assert rows[1] == "0.5,,,"
    for row in (rows[0], rows[2]):
        assert np.isfinite([float(v) for v in row.split(",")[1:]]).all()
    err = capsys.readouterr().err
    assert "vf_star=0.5: solver failed at iteration 4: injected failure" in err
    assert "vf_star=0.4" not in err and "vf_star=0.6" not in err


@pytest.fixture
def fake_sweep(monkeypatch):
    """Replaces the runs and the process pool; returns the max_workers of
    every pool made and the run directory of every job, in order."""
    pools, outdirs = [], []

    class Pool:
        """Stands in for ProcessPoolExecutor: runs each job inline, starts no process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    def sweep_one(doc, outdir):
        outdirs.append(Path(outdir).name)
        return {"J_relaxed": 1.0, "J_snapped": 1.0, "g_v": 0.0}

    monkeypatch.setattr(cli, "_sweep_one", sweep_one)
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", Pool)
    return pools, outdirs


@pytest.mark.parametrize("parallel,values,workers", [
    ("2", "0.3,0.4,0.5", [2]),
    ("8", "0.3,0.4,0.5", [3]),
    ("8", "0.3", []),          # one value runs in the calling process
    ("1", "0.3,0.4", []),
])
def test_sweep_pool_has_no_more_workers_than_values(tmp_path, fake_sweep, parallel,
                                                     values, workers):
    pools, outdirs = fake_sweep
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--param", "vf_star", "--values", values,
                 "--out", str(tmp_path / "s"), "--parallel", parallel]) == 0
    assert pools == workers
    assert outdirs == [f"vf_star={v}" for v in values.split(",")]


@pytest.mark.parametrize("parallel", ["0", "-2"])
def test_sweep_rejects_parallel_below_one(tmp_path, capsys, fake_sweep, parallel):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--param", "vf_star",
                 "--values", "0.3,0.4", "--out", str(tmp_path / "s"),
                 "--parallel", parallel]) == 1
    assert "parallel" in capsys.readouterr().err
    assert fake_sweep == ([], []) and not (tmp_path / "s").exists()


@pytest.mark.parametrize("values", ["0.3,0.3", "0.3,0.4, 0.3"])
def test_sweep_rejects_repeated_value(tmp_path, capsys, fake_sweep, values):
    # both runs would write into one vf_star=0.3 directory
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--param", "vf_star",
                 "--values", values, "--out", str(tmp_path / "s")]) == 1
    assert "values" in capsys.readouterr().err
    assert fake_sweep == ([], []) and not (tmp_path / "s").exists()


@pytest.mark.parametrize("param,values", [
    ("vf_star", "0.3,0.30"), ("tree_depth", "2,02"), ("mesh", "12x6,12X6"),
])
def test_sweep_rejects_values_that_parse_alike(tmp_path, capsys, param, values):
    # two spellings of one value would run the same config twice
    cfg = write_config(tmp_path, {**QUICK, "mma": {"max_iter": 2}})
    first, second = values.split(",")
    assert main(["sweep", "--config", str(cfg), "--param", param,
                 "--values", values, "--out", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err == (f"error: values: '{second}' gives the same "
                                       f"{param} as '{first}'\n")
    assert not (tmp_path / "s").exists()


def test_sweep_strips_values(tmp_path, fake_sweep):
    cfg = write_config(tmp_path)
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(cfg), "--param", "vf_star",
                 "--values", " 0.3 , 0.4", "--out", str(out)]) == 0
    assert fake_sweep[1] == ["vf_star=0.3", "vf_star=0.4"]
    assert (out / "pareto.csv").read_text().splitlines()[1:] == \
        ["0.3,1,1,0", "0.4,1,1,0"]


def test_sweep_makes_every_run_directory_before_any_run(tmp_path, capsys, fake_sweep):
    # a later value whose directory cannot be made would lose the finished runs
    cfg = write_config(tmp_path)
    out = tmp_path / "s"
    out.mkdir()
    (out / "vf_star=0.4").write_text("")
    assert main(["sweep", "--config", str(cfg), "--param", "vf_star",
                 "--values", "0.3,0.4", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: out: cannot create directory {out / 'vf_star=0.4'}: ")
    assert fake_sweep == ([], []) and not (out / "pareto.csv").exists()


def test_sweep_rejects_non_numeric_value(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--param", "vf_star",
                 "--values", "0.4,abc", "--out", str(tmp_path / "s")]) == 1
    assert "vf_star" in capsys.readouterr().err


def test_tree_document_pruned_nodes_of_a_non_perfect_tree(tmp_path):
    # ids follow preorder and children point at them, whatever the tree's shape
    from csgtopo.cli import write_tree_json
    from csgtopo.csg import DIFFERENCE, NEGATIVE_DIFFERENCE, UNION
    from csgtopo.config import MmaConfig, ProblemSpec
    from csgtopo.problem import optimize

    spec = ProblemSpec(nx=8, ny=4, tree_depth=3, sides=4, mma=MmaConfig(max_iter=2))
    result = optimize(spec)
    # heap nodes 3 and 2 collapsed onto leaves 8 and 13, primitives 1 and 6
    result.ops[[0, 1, 4]] = UNION, DIFFERENCE, NEGATIVE_DIFFERENCE
    result.pruned = [(0, 1, 13), (1, 8, 4), (8, -1, -1), (4, 9, 10), (9, -1, -1),
                     (10, -1, -1), (13, -1, -1)]
    write_tree_json(tmp_path / "tree.json", result, spec)
    pruned = json.loads((tmp_path / "tree.json").read_text())["pruned"]
    assert pruned["empty"] is False
    nodes = pruned["nodes"]
    assert [n["id"] for n in nodes] == list(range(7))
    assert [n["kind"] for n in nodes] == ["internal", "internal", "leaf", "internal",
                                          "leaf", "leaf", "leaf"]
    internal = {n["id"]: (n["children"], n["operator"]) for n in nodes
                if n["kind"] == "internal"}
    assert internal == {0: ([1, 6], "union"), 1: ([2, 3], "difference"),
                        3: ([4, 5], "negative_difference")}
    leaves = {n["id"]: n["primitive"] for n in nodes if n["kind"] == "leaf"}
    assert leaves == {2: 1, 4: 2, 5: 3, 6: 6}
    for n in nodes:
        if n["kind"] == "leaf":
            row = result.rows[n["primitive"]]
            assert n["params"] == {"cx": row[0], "cy": row[1], "theta": row[2],
                                   "d": list(row[3:])}


def test_tree_document_handles_empty_design(tmp_path):
    # doctor a finished result into the fully-pruned state and make sure the
    # writers keep producing valid documents
    from csgtopo.cli import write_summary, write_tree_json
    from csgtopo.config import MmaConfig, ProblemSpec
    from csgtopo.problem import optimize

    spec = ProblemSpec(nx=8, ny=4, tree_depth=1, sides=4, mma=MmaConfig(max_iter=2))
    result = optimize(spec)
    result.pruned = []
    write_tree_json(tmp_path / "tree.json", result, spec)
    write_summary(tmp_path / "summary.json", result)
    doc = json.loads((tmp_path / "tree.json").read_text())
    assert doc["pruned"] == {"empty": True, "nodes": None}
    assert json.loads((tmp_path / "summary.json").read_text())["empty_design"]
