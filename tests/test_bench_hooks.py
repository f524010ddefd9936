"""Every span hook of the benchmark still names a callable in the package.

bench/tracing.py patches module attributes by name; a renamed function drops
its layer from a traced benchmark run.  The module is read, not imported
through the package path, so no file under bench/ is written.
"""

import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    # dataclasses looks the defining module up in sys.modules
    sys.modules[module.__name__] = module
    try:
        exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
        yield module
    finally:
        del sys.modules[module.__name__]


def test_every_layer_hook_resolves(tracing):
    missing = [hook.target for hook in tracing.LAYER_HOOKS if not tracing.resolve(hook.target)]
    assert missing == []


def test_resolve_reports_a_renamed_target(tracing):
    assert tracing.resolve("csgtopo.fea:no_such_function") == []


def test_every_layer_is_entered(tracing, tmp_path):
    # a hook that resolves but is never called reads 0 calls in the benchmark
    from csgtopo import cli
    from csgtopo.config import MmaConfig, ProblemSpec

    spec = ProblemSpec(nx=12, ny=6, tree_depth=2, sides=4, mma=MmaConfig(max_iter=2))
    # one span per target: two hooks share the sensitivity.grad span
    hooks = [tracing.Hook(h.target, h.target, h.post) for h in tracing.LAYER_HOOKS]
    tracer = tracing.Tracer("test")
    with tracer.installed(hooks) as missing:
        cli.execute_run(spec, tmp_path)
    assert missing == []
    entered = {span[0] for span in tracer.spans}
    # fea.reduce_system is only a test oracle now: the solve never calls it
    oracle = "csgtopo.fea:reduce_system"
    assert [h.target for h in hooks if h.target not in entered | {oracle}] == []


def test_layer_spans_are_per_call_not_per_block(tracing, tmp_path):
    # the default 60x30 depth-4 problem: a loop over primitives or blocks
    # of them that re-entered a hooked function would multiply its calls
    # and split its self time
    from csgtopo import cli
    from csgtopo.config import MmaConfig, ProblemSpec

    spec = ProblemSpec(mma=MmaConfig(max_iter=3))
    targets = {"problem:Model.forward", "problem:Model.gradients",
               "geometry:rasterize_with_tape", "geometry:projection_param_grad",
               "csg:tree_backward"}
    hooks = [tracing.Hook(f"csgtopo.{t}", t) for t in sorted(targets)]
    tracer = tracing.Tracer("test")
    with tracer.installed(hooks) as missing:
        summary = cli.execute_run(spec, tmp_path)
    assert missing == []
    calls = {t: sum(1 for span in tracer.spans if span[0] == t) for t in targets}
    iterations = summary["iterations"]
    assert iterations == calls["problem:Model.forward"] == calls["problem:Model.gradients"] > 0
    # one projection per forward pass and one more in _finalize
    assert calls["geometry:rasterize_with_tape"] == iterations + 1
    assert calls["geometry:projection_param_grad"] == iterations
    assert calls["csg:tree_backward"] == iterations


def test_fd_check_solves_every_evaluate_inside_the_hooked_layers(tracing):
    # the finite-difference evaluates after the first solve against a kept
    # factor; those solves must stay inside fea.solve, under a forward, for
    # the benchmark's fea.trisolve and problem.forward to time them
    from conftest import connected_design
    from csgtopo import sensitivity
    from csgtopo.config import ProblemSpec
    from csgtopo.problem import Model

    spec = ProblemSpec(nx=12, ny=6, tree_depth=2, sides=4)
    model = Model(spec)
    tracer = tracing.Tracer("test")

    class Clock:
        """The model, with each evaluate in a span of its own."""

        def __getattr__(self, name):
            return getattr(model, name)

        def evaluate(self, z):
            tracer.open("fd.evaluate")
            try:
                return model.evaluate(z)
            finally:
                tracer.close()

    with tracer.installed(tracing.LAYER_HOOKS) as missing:
        sensitivity.fd_check(Clock(), connected_design(spec))
    assert missing == []
    names = [span[0] for span in tracer.spans]
    owner = tracer.enclosing("fd.evaluate")
    evaluates = [i for i, name in enumerate(names) if name == "fd.evaluate"]
    assert len(evaluates) == 2 * model.full_size
    for layer in ("problem.forward", "fea.solve"):
        inside = Counter(owner[i] for i, name in enumerate(names) if name == layer)
        assert [inside[i] for i in evaluates] == [1] * len(evaluates), layer
    assert names.count("fea.factorize") <= 2
    # every evaluate's triangular solves went through a hooked factor
    assert tracer.counts["fea.trisolves"] >= 2 * len(evaluates)


def test_run_works_with_forward_wrapped_as_strict_self_z(tmp_path, monkeypatch):
    # the benchmark's step clock replaces Model.forward by a plain
    # forward(self, z) function; the loop must call nothing else through it
    from csgtopo import cli, problem
    from csgtopo.config import MmaConfig, ProblemSpec

    original = problem.Model.forward
    calls = []

    def forward(self, z):
        calls.append(z)
        return original(self, z)

    monkeypatch.setattr(problem.Model, "forward", forward)
    spec = ProblemSpec(nx=12, ny=6, tree_depth=2, sides=4, mma=MmaConfig(max_iter=2))
    summary = cli.execute_run(spec, tmp_path)
    assert summary["iterations"] == len(calls) == 2


def test_bench_selftest_passes():
    # every metric BENCHMARK.json names, on a tiny problem; bytecode is not
    # written, so bench/ gains no __pycache__, and outputs go to .bench_out/
    root = TRACING.parent.parent
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=root, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
