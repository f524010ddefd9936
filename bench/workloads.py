"""The benchmark's workloads, their operations and correctness gates.

An operation is one optimizer run on mbb and deep-tree, and one checked
design entry on fd-check.  Every operation is timed from outside the
program: step boundaries come from the optimizer's iteration callback and
from the model handed to the finite-difference harness.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostspeed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEFAULT_SEED = 2              # ProblemSpec's own default seed
MBB_BAND = (58.0, 95.0)       # acceptance criterion 4, checked at DEFAULT_SEED
G_V_MAX = 1e-2                # volume constraint gate of criteria 4 and 6
FD_STEP = 1e-6                # check-grad's default central-difference step
FD_GATE = 1e-3                # check-grad fails an entry at this relative error
FD_ENTRIES = 120              # sampled entries per check: p90 has 12 beyond it
SETUP_REPEATS = 7

TINY = {"nx": 12, "ny": 6, "tree_depth": 2, "sides": 4}


# workload -> problem config; README.md says why each workload exists
CONFIGS = {
    "mbb": {},
    "deep-tree": {"nx": 32, "ny": 16, "tree_depth": 8,
                  "frozen_operators": {"0": "difference"},
                  "mma": {"max_iter": 100, "kkt_tol": 1e-9, "step_tol": 1e-9}},
    "fd-check": {},
}


@dataclass
class Op:
    """What one timed pass of a workload produced.

    run_s and steps_ms are wall times; the scaled_ ones are the same times
    scaled to the nominal host speed (hostspeed.py).
    """

    run_s: float
    steps_ms: list[float]
    scaled_run_s: float
    scaled_steps_ms: list[float]
    host_factor: float
    attempted: int
    failed: int
    fingerprint: object = None        # None when the pass did not complete
    j_snapped: float | None = None
    iterations: int = 0
    layers: dict = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)


def _tiny(config: dict) -> dict:
    return dict(config, **TINY, mma=dict(config.get("mma", {}), max_iter=3))


# -- set-up ----------------------------------------------------------------

_SETUP = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy as np
import csgtopo
from csgtopo.cli import config_from_dict
spec = config_from_dict(json.loads(sys.argv[2]))
model = csgtopo.Model(spec)
if sys.argv[3]:
    with open(sys.argv[3]) as fh:
        z = np.array(json.load(fh)["z"])
else:
    z = csgtopo.initialize(spec)
wall = time.perf_counter() - t0
sys.path.insert(0, sys.argv[4])
import hostspeed
kernel = hostspeed.Kernel()
ms = min(kernel.sample_ms() for _ in range(3))
print(repr(wall), repr(ms))
"""


def setup_seconds(config: dict, design: str, repeats: int) -> tuple[float, float]:
    """Median fresh-process set-up time: import, Model and initial design.

    Returns (scaled, wall).  Each process samples the reference kernel
    after its set-up and scales its own time by it.  One untimed process
    runs first, so byte-compiling the package is not counted.
    """
    cmd = [sys.executable, "-c", _SETUP, str(SRC), json.dumps(config), design, str(BENCH)]
    walls, scaled = [], []
    for i in range(repeats + 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True)
        if i:
            wall, ms = map(float, out.stdout.split())
            walls.append(wall)
            scaled.append(wall * hostspeed.NOMINAL_MS / ms)
    return statistics.median(scaled), statistics.median(walls)


def _timed(probe: hostspeed.Probe, starts: list[float], ends: list[float],
           t_first: float, t_end: float, spent: float) -> dict:
    """Wall and scaled times of a pass whose steps ran from starts to ends.

    spent is the time the probe sampled inside the pass; it is not counted.
    The part of the pass outside the steps is scaled at the pass's end.
    """
    steps = [e - s for s, e in zip(starts, ends)]
    scaled = [d * probe.factor(0.5 * (s + e)) for d, s, e in zip(steps, starts, ends)]
    run_s = t_end - t_first - spent
    factor_end = probe.factor(t_end)
    return {
        "run_s": run_s,
        "steps_ms": [1e3 * d for d in steps],
        "scaled_run_s": sum(scaled) + (run_s - sum(steps)) * factor_end,
        "scaled_steps_ms": [1e3 * d for d in scaled],
        "host_factor": statistics.median([probe.factor(t) for t in probe.times]),
    }


# -- optimizer runs ----------------------------------------------------------


def _artifact_hashes(outdir: Path) -> dict:
    """sha256 of every artifact except the wall-clock timings file."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir())
            if p.is_file() and p.name != "timings.csv"}


def optimize_op(spec, scratch: Path, gate, tracer: tracing.Tracer | None,
                probe: hostspeed.Probe) -> Op:
    """One cli.execute_run, with iterations marked by an injected callback.

    An iteration runs from the first forward pass (or the end of the last
    callback) to the callback.  The host-speed probe samples in the
    callback, between iterations.  In a traced pass each iteration is a
    problem.iteration span, opened by the first forward pass inside
    problem.optimize and closed by the callback.
    """
    from csgtopo import cli, problem

    starts: list[float] = []
    ends: list[float] = []

    def on_iteration(record):
        ends.append(time.perf_counter())
        if tracer is not None and tracer.top() == "problem.iteration":
            tracer.close()
        probe.maybe_sample()
        starts.append(time.perf_counter())

    def wrap_optimize(fn):
        def run(spec, callback=None):
            if tracer is None:
                return fn(spec, callback=on_iteration)
            tracer.open("problem.optimize")
            try:
                return fn(spec, callback=on_iteration)
            finally:
                while tracer.top() != "problem.optimize":
                    tracer.close()
                tracer.close()
        return run

    def wrap_forward(fn):
        def forward(self, z):
            if not starts:
                starts.append(time.perf_counter())
                spent.append(probe.spent)
            if tracer is not None and tracer.top() == "problem.optimize":
                tracer.open("problem.iteration")
            return fn(self, z)
        return forward

    spent: list[float] = []
    outdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    probe.sample()
    try:
        with _layers(tracer) as missing, \
                tracing.patched([(cli, "optimize")], wrap_optimize), \
                tracing.patched([(problem.Model, "forward")], wrap_forward):
            try:
                summary = cli.execute_run(spec, outdir)
            except problem.SolverAbort:
                summary = None
            t_end = time.perf_counter()
        in_pass = probe.spent - (spent[0] if spent else probe.spent)
        probe.sample()
        fingerprint = None if summary is None else _artifact_hashes(outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    t_first = starts[0] if starts else t_end
    ok = summary is not None and gate(summary, len(ends))
    op = Op(**_timed(probe, starts, ends, t_first, t_end, in_pass), attempted=1,
            failed=0 if ok else 1, fingerprint=fingerprint,
            j_snapped=None if summary is None else summary["J_snapped"],
            iterations=len(ends), missing=missing)
    if tracer is not None:
        op.layers = _layers_of(tracer, "problem.iteration", op, missing)
    return op


def _layers(tracer):
    """Install the layer hooks of a traced pass; yields the missing targets."""
    if tracer is None:
        return contextlib.nullcontext([])
    return tracer.installed(tracing.LAYER_HOOKS)


def _layers_of(tracer, step_span: str, op: Op, missing: list[str]) -> dict:
    layers = tracing.layer_metrics(tracer, step_span, op.steps_ms, missing)
    layers["problem.iterations"] = (op.iterations, "count")
    return layers


def mbb_gate(seed: int, tiny: bool):
    def gate(summary: dict, iterations: int) -> bool:
        if tiny:
            return math.isfinite(summary["J_relaxed"])
        ok = math.isfinite(summary["J_relaxed"]) and summary["g_v"] <= G_V_MAX
        if seed == DEFAULT_SEED:
            lo, hi = MBB_BAND
            ok = ok and lo <= summary["J_snapped"] <= hi
        return ok
    return gate


def capped_gate(max_iter: int):
    def gate(summary: dict, iterations: int) -> bool:
        return (math.isfinite(summary["J_relaxed"])
                and math.isfinite(summary["J_snapped"])
                and iterations == summary["iterations"] == max_iter)
    return gate


# -- finite-difference check -------------------------------------------------


class _EntryClock:
    """Model handed to fd_check: marks the start and end of every checked entry.

    fd_check evaluates each entry at z + h and z - h, so every second
    evaluate call closes an entry.  The host-speed probe samples between
    entries.
    """

    def __init__(self, model, tracer: tracing.Tracer | None, probe: hostspeed.Probe):
        self._model = model
        self._tracer = tracer
        self._probe = probe
        self._calls = 0
        self.start = None
        self.spent = 0.0
        self.starts: list[float] = []
        self.ends: list[float] = []

    def forward_gradients(self, z):
        self.start = time.perf_counter()
        self.spent = self._probe.spent
        out = self._model.forward_gradients(z)
        self.starts.append(time.perf_counter())
        return out

    def evaluate(self, z):
        if self._tracer is not None and self._calls % 2 == 0:
            self._tracer.open("fd.entry")
        out = self._model.evaluate(z)
        self._calls += 1
        if self._calls % 2 == 0:
            self.ends.append(time.perf_counter())
            if self._tracer is not None:
                self._tracer.close()
            self._probe.maybe_sample()
            self.starts.append(time.perf_counter())
        return out

    def __getattr__(self, name):
        return getattr(self._model, name)


def fd_op(model, z: np.ndarray, indices: list[int],
          tracer: tracing.Tracer | None, probe: hostspeed.Probe) -> Op:
    """One sensitivity.fd_check over the sampled entries.

    run_s runs from the analytic gradient to the last entry's end.
    """
    from csgtopo import fea, sensitivity

    clock = _EntryClock(model, tracer, probe)
    probe.sample()
    with _layers(tracer) as missing:
        try:
            entries = sensitivity.fd_check(clock, z, indices=indices, step=FD_STEP)
        except fea.SingularSystemError:
            entries = None
        t_end = time.perf_counter()
    in_pass = probe.spent - clock.spent
    probe.sample()
    if entries is None:
        failed, fingerprint = len(indices), None
    else:
        failed = sum(1 for e in entries if e.max_rel_err >= FD_GATE)
        fingerprint = [(e.index, e.analytic_j, e.fd_j, e.analytic_g, e.fd_g)
                       for e in entries]
    op = Op(**_timed(probe, clock.starts, clock.ends, clock.start, t_end, in_pass),
            attempted=len(indices), failed=failed, fingerprint=fingerprint,
            missing=missing)
    if tracer is not None:
        op.layers = _layers_of(tracer, "fd.entry", op, missing)
    return op


def snapped_compliance(model, z: np.ndarray) -> float:
    """Compliance of z with every operator snapped to one-hot."""
    from csgtopo import csg, fea, geometry
    params, weights = model.denormalize(z)
    tree = csg.CsgTree(model.spec.tree_depth, weights, model.frozen).snapped()
    leaves = np.vstack([geometry.rasterize_primitive(p, model.grid, model.cfg).values
                        for p in params])
    root = np.clip(csg.evaluate_tree_values(tree.weights, leaves)[0], 0.0, 1.0)
    return fea.analyze(root, model.mesh, model.material, model.bcs, model.k0)[1]


# -- one workload, set up once ----------------------------------------------


class Prepared:
    """A workload's inputs for one seed, and a callable timing one pass."""

    def __init__(self, name: str, seed: int, scratch: Path, tiny: bool = False):
        from csgtopo.cli import config_from_dict
        from csgtopo.problem import Model, initialize

        self.config = _tiny(CONFIGS[name]) if tiny else CONFIGS[name]
        kernel = hostspeed.Kernel()
        self.design = ""
        self.j_snapped = None
        if name != "fd-check":
            self.config = dict(self.config, seed=seed)
            spec = config_from_dict(self.config)
            gate = (mbb_gate(seed, tiny) if name == "mbb"
                    else capped_gate(spec.mma.max_iter))
            self.run = lambda tracer: optimize_op(spec, scratch, gate, tracer,
                                                  hostspeed.Probe(kernel))
            return
        model = Model(config_from_dict(self.config))
        if tiny:
            z = initialize(model.spec)
        else:
            self.design = str(BENCH / "fd_design.json")
            with open(self.design) as fh:
                z = np.array(json.load(fh)["z"])
        rng = np.random.default_rng(seed)
        n = min(FD_ENTRIES, model.full_size) if not tiny else 6
        indices = sorted(rng.choice(model.full_size, size=n, replace=False).tolist())
        self.j_snapped = snapped_compliance(model, z)
        self.run = lambda tracer: fd_op(model, z, indices, tracer,
                                        hostspeed.Probe(kernel))
