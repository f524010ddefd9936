import json
from pathlib import Path

import numpy as np
import pytest

from csgtopo import cli
from csgtopo.cli import main
from csgtopo.problem import Model, SolverAbort

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
])
def test_run_rejects_mistyped_config_values(tmp_path, capsys, overrides, argv, field):
    # each of these used to end in a raw ValueError/TypeError traceback
    cfg = write_config(tmp_path, {**QUICK, **overrides})
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out), *argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not out.exists()


def test_run_solver_failure_exit_code(tmp_path, capsys):
    doc = {**QUICK, "benchmark": None, "fixed_dofs": [0], "loads": [[13, -1.0]]}
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_run_non_finite_gradient_exits_2_with_history(tmp_path, monkeypatch):
    calls = []
    original = Model.gradients

    def gradients(self, state):
        calls.append(None)
        dj, dg = original(self, state)
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


def test_sweep_rejects_non_numeric_value(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--param", "vf_star",
                 "--values", "0.4,abc", "--out", str(tmp_path / "s")]) == 1
    assert "vf_star" in capsys.readouterr().err


def test_tree_document_handles_empty_design(tmp_path):
    # doctor a finished result into the fully-pruned state and make sure the
    # writers keep producing valid documents
    from csgtopo.cli import write_summary, write_tree_json
    from csgtopo.csg import PrunedTree
    from csgtopo.problem import ProblemSpec, optimize
    from csgtopo.mma import MmaConfig

    result = optimize(ProblemSpec(nx=8, ny=4, tree_depth=1, sides=4,
                                  mma=MmaConfig(max_iter=2)))
    result.pruned_tree = PrunedTree(None)
    write_tree_json(tmp_path / "tree.json", result)
    write_summary(tmp_path / "summary.json", result)
    doc = json.loads((tmp_path / "tree.json").read_text())
    assert doc["pruned"] == {"empty": True, "nodes": None}
    assert json.loads((tmp_path / "summary.json").read_text())["empty_design"]
