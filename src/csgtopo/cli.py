"""Batch command line front end.

    csgtopo run --config cfg.json --out results/ [--seed N]
    csgtopo check-grad --config cfg.json [--entries N] [--step H]
    csgtopo sweep --config cfg.json --param vf_star --values 0.3,0.4,0.5 \
        --out sweep/ [--parallel K]

The config is a JSON document mirroring ProblemSpec, read by the config
module; unknown keys are hard errors.  Every output file is written
atomically (temp file + rename) and, apart from the wall-clock timings
file, is byte-identical across reruns of the same config and seed.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import logging
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import csg, sensitivity
from .config import (ConfigError, ProblemSpec, config_from_dict, read_json, shown,
                     spec_to_dict)
from .fea import SingularSystemError
from .problem import Model, OptimizeResult, SolverAbort, initialize, optimize

__all__ = ["main", "execute_run"]

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_GRAD = 3

SWEEP_PARAMS = ("vf_star", "tree_depth", "seed", "mesh")


# -- output writers ----------------------------------------------------------


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _records_csv(path: Path, history, columns: tuple[str, ...]) -> None:
    """One line per iteration record: its number, then the named fields."""
    lines = [",".join(["iter", *columns])]
    lines.extend(",".join([str(r.iteration), *(_fmt(getattr(r, c)) for c in columns)])
                 for r in history)
    _atomic_write(path, "\n".join(lines) + "\n")


def write_history(path: Path, history) -> None:
    _records_csv(path, history, ("J", "g_v", "kkt", "step"))


def write_timings(path: Path, history) -> None:
    _records_csv(path, history, ("t_projection", "t_tree", "t_fea_sens", "t_total"))


def write_design_csv(path: Path, field) -> None:
    """Row-major densities, one grid row (fixed y) per line, full precision."""
    mesh = field.mesh
    rows = field.values.reshape(mesh.ny, mesh.nx)
    lines = [",".join(_fmt(v) for v in row) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def write_design_pgm(path: Path, field) -> None:
    """8-bit ASCII graymap, 255 = solid; image rows run top to bottom."""
    mesh = field.mesh
    pix = np.rint(255.0 * field.values.reshape(mesh.ny, mesh.nx)).astype(int)
    pix = np.clip(pix[::-1], 0, 255)
    lines = ["P2", f"{mesh.nx} {mesh.ny}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in pix)
    _atomic_write(path, "\n".join(lines) + "\n")


def _leaf_node(result: OptimizeResult, nid: int, primitive: int) -> dict:
    p = result.params[primitive]
    return {"id": nid, "kind": "leaf", "primitive": primitive,
            "params": {"cx": p.cx, "cy": p.cy, "theta": p.theta, "d": list(p.d)}}


def _tree_nodes(result: OptimizeResult) -> list[dict]:
    """Heap order: internal nodes first, then leaf n_internal + i holding primitive i."""
    tree = result.snapped_tree
    n_internal = tree.n_internal
    nodes = [{
        "id": k, "kind": "internal", "children": [2 * k + 1, 2 * k + 2],
        "operator": tree.operator_name(k),
        "weights": list(result.tree.weights[k]),
        "frozen": k in tree.frozen,
    } for k in range(n_internal)]
    nodes.extend(_leaf_node(result, n_internal + i, i)
                 for i in range(len(result.params)))
    return nodes


def _pruned_nodes(result: OptimizeResult) -> list[dict] | None:
    """Preorder: node ids are positions in PrunedTree.nodes()."""
    pruned = result.pruned_tree
    if pruned.is_empty:
        return None
    order = pruned.nodes()
    ids = {id(node): nid for nid, node in enumerate(order)}
    return [_leaf_node(result, nid, node.primitive) if node.is_leaf else
            {"id": nid, "kind": "internal",
             "children": [ids[id(node.left)], ids[id(node.right)]],
             "operator": csg.OPERATOR_NAMES[node.operator]}
            for nid, node in enumerate(order)]


def write_tree_json(path: Path, result: OptimizeResult) -> None:
    doc = {
        "depth": result.snapped_tree.depth,
        "nodes": _tree_nodes(result),
        "pruned": {"empty": result.empty_design, "nodes": _pruned_nodes(result)},
    }
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_summary(path: Path, result: OptimizeResult) -> dict:
    """Write summary.json; returns the document written."""
    doc = {
        "J_relaxed": result.J,
        "J_snapped": result.J_snapped,
        "g_v": result.g_v,
        "g_v_snapped": result.g_v_snapped,
        "iterations": result.iterations,
        "convergence": result.reason,
        "empty_design": result.empty_design,
    }
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def write_config(path: Path, spec: ProblemSpec) -> None:
    _atomic_write(path, json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n")


def _out_dir(text: str) -> Path:
    """The --out directory; an empty one would be the working directory."""
    if not text:
        raise ConfigError("out: must name a directory, got ''")
    return Path(text)


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: cannot create directory {path}: {exc.strerror}") from exc


def execute_run(spec: ProblemSpec, outdir: Path) -> dict:
    """Run one optimization and write every artifact; returns the summary."""
    _make_dir(outdir)
    write_config(outdir / "config.json", spec)
    try:
        result = optimize(spec)
    except SolverAbort as exc:
        write_history(outdir / "history.csv", exc.history)
        write_timings(outdir / "timings.csv", exc.history)
        raise
    write_history(outdir / "history.csv", result.history)
    write_timings(outdir / "timings.csv", result.history)
    write_design_csv(outdir / "design.csv", result.field_snapped)
    write_design_pgm(outdir / "design.pgm", result.field_snapped)
    write_tree_json(outdir / "tree.json", result)
    summary = write_summary(outdir / "summary.json", result)
    if result.empty_design:
        log.warning("final design is empty after pruning")
    return summary


# -- subcommands -------------------------------------------------------------


def _describe(exc: Exception) -> str:
    if isinstance(exc, SolverAbort):
        return f"solver failed at iteration {exc.iteration}: {exc}"
    return str(exc)


def cmd_run(args) -> int:
    spec = config_from_dict(read_json(args.config))
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
        spec.validate()
    summary = execute_run(spec, _out_dir(args.out))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_check_grad(args) -> int:
    if not 0 < args.step < float("inf"):
        raise ConfigError(f"step: must be positive and finite, got {args.step}")
    if args.entries < 1:
        raise ConfigError(f"entries: must be >= 1, got {args.entries}")
    spec = config_from_dict(read_json(args.config))
    entries = sensitivity.fd_check(Model(spec), initialize(spec), step=args.step)

    def rel_col(rel: float, fd: float) -> str:
        # below the FD floor the quotient is difference noise, not an error
        return f"{rel:>12.3e}" if abs(fd) > sensitivity.FD_FLOOR else f"{'-':>12}"

    print(f"{'index':>6} {'label':>12} {'kind':>4} {'analytic':>24} "
          f"{'fd':>24} {'rel_err':>12}")
    for e in entries[:args.entries]:
        if e.skipped:
            print(f"{e.index:>6} {e.label:>12} frozen entry: skipped")
            continue
        print(f"{e.index:>6} {e.label:>12} {'J':>4} {e.analytic_j:>24.16e} "
              f"{e.fd_j:>24.16e} {rel_col(e.rel_err_j, e.fd_j)}")
        print(f"{'':>6} {'':>12} {'g_v':>4} {e.analytic_g:>24.16e} "
              f"{e.fd_g:>24.16e} {rel_col(e.rel_err_g, e.fd_g)}")

    checked = [e for e in entries if not e.skipped]
    worst = max((e.max_rel_err for e in checked), default=0.0)
    print(f"worst relative error over {len(checked)} checked entries: {worst:.3e}")
    return EXIT_OK if worst < 1e-3 else EXIT_GRAD


def _apply_sweep_value(doc: dict, param: str, token: str) -> dict:
    doc = dict(doc)
    try:
        if param == "mesh":
            nx, ny = token.lower().split("x")
            doc["nx"], doc["ny"] = int(nx), int(ny)
        else:
            doc[param] = float(token) if param == "vf_star" else int(token)
    except ValueError as exc:
        form = {"mesh": "NXxNY", "vf_star": "a number"}.get(param, "an integer")
        raise ConfigError(f"{param}: expected {form}, got {shown(token)}") from exc
    return doc


def _sweep_one(doc: dict, outdir_str: str) -> dict:
    return execute_run(config_from_dict(doc), Path(outdir_str))


def cmd_sweep(args) -> int:
    base_doc = read_json(args.config)
    config_from_dict(base_doc)  # validate before launching anything
    if args.parallel is not None and args.parallel < 1:
        raise ConfigError(f"parallel: must be >= 1, got {args.parallel}")
    tokens = [tok for tok in map(str.strip, args.values.split(",")) if tok]
    if not tokens:
        raise ConfigError("values: empty list")
    out = _out_dir(args.out)
    jobs = []
    for tok in tokens:
        doc = _apply_sweep_value(base_doc, args.param, tok)
        config_from_dict(doc)
        # equal documents are one config, however the tokens are spelled
        same = next((prev for prev, prev_doc, _ in jobs if prev_doc == doc), None)
        if same is not None:
            raise ConfigError(f"values: {shown(tok)} gives the same {args.param} as "
                              f"{shown(same)}")
        jobs.append((tok, doc, out / f"{args.param}={tok}"))
    for *_, path in jobs:
        _make_dir(path)

    def outcome(result):
        """The job's summary, or its SolverAbort: one failure keeps the rest."""
        try:
            return result()
        except SolverAbort as exc:
            return exc

    # a fork-started pool launches all its workers at the first submit
    workers = min(args.parallel or 1, len(jobs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {tok: pool.submit(_sweep_one, doc, str(path))
                       for tok, doc, path in jobs}
            summaries = {tok: outcome(fut.result) for tok, fut in futures.items()}
    else:
        summaries = {tok: outcome(lambda: _sweep_one(doc, str(path)))
                     for tok, doc, path in jobs}

    lines = ["value,J_relaxed,J_snapped,g_v"]
    failed = 0
    for tok, _, _ in jobs:
        s = summaries[tok]
        if isinstance(s, SolverAbort):
            print(f"error: {args.param}={tok}: {_describe(s)}", file=sys.stderr)
            lines.append(f"{tok},,,")
            failed += 1
        else:
            lines.append(",".join([tok, _fmt(s["J_relaxed"]), _fmt(s["J_snapped"]),
                                   _fmt(s["g_v"])]))
    _atomic_write(out / "pareto.csv", "\n".join(lines) + "\n")
    print((out / "pareto.csv").read_text(), end="")
    return EXIT_SOLVER if failed else EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a flag error is a configuration error; subparsers inherit this class
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="csgtopo",
        description="Topology optimization over polygon primitives combined "
                    "through a differentiable Boolean operation tree.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one optimization")
    run.add_argument("--config", required=True, help="JSON configuration file")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.set_defaults(func=cmd_run)

    grad = sub.add_parser("check-grad", help="verify gradients by finite differences")
    grad.add_argument("--config", required=True)
    grad.add_argument("--entries", type=int, default=10,
                      help="number of worst rows to print (default 10)")
    grad.add_argument("--step", type=float, default=1e-6,
                      help="central difference step (default 1e-6)")
    grad.set_defaults(func=cmd_check_grad)

    sweep = sub.add_parser("sweep", help="run a series of configs varying one parameter")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    sweep.add_argument("--values", required=True,
                       help="comma separated values, e.g. 0.3,0.4 or 60x30,80x40")
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--parallel", type=int, default=None,
                       help="run up to K sweeps as parallel processes")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    """Parse and dispatch; the one place a failure becomes an exit code."""
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, SolverAbort, SingularSystemError) as exc:
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
