"""Spans recorded from outside the program, by patching module attributes.

A hook replaces the attribute a caller resolves at call time (a module-level
function, or a method on a class) with a wrapper that records a span around
the original call.  Spans stay in memory until the run ends: name, start,
end, parent span and run id.  A layer's self time is its span's duration
minus the time its child spans cover.

Hook targets are looked up by name when installed.  A target that no longer
exists is reported as missing and the metrics of its span are left out; it
never stops the run or reads as zero.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """Patch ``module:attr`` (or ``module:Class.attr``) with a span named ``span``.

    An attribute ending in ``*`` matches every callable attribute with that
    prefix.  ``post`` sees the tracer and the return value and returns the
    value handed back to the caller.
    """

    target: str
    span: str
    post: Callable | None = None


def resolve(target: str) -> list[tuple[object, str]]:
    """(owner, attribute) pairs a target names; empty when none exists."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return []
    *parents, attr = path.split(".")
    for name in parents:
        owner = vars(owner).get(name)
        if owner is None:
            return []
    if attr.endswith("*"):
        prefix = attr[:-1]
        return [(owner, name) for name in sorted(vars(owner))
                if name.startswith(prefix) and callable(getattr(owner, name))]
    if callable(vars(owner).get(attr)):
        return [(owner, attr)]
    return []


@contextlib.contextmanager
def patched(pairs: list[tuple[object, str]], make_wrapper: Callable):
    """Replace each owner.attr by make_wrapper(original); restore on exit."""
    saved = []
    try:
        for owner, attr in pairs:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make_wrapper(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.values: dict[str, list[float]] = defaultdict(list)

    def open(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent])

    def close(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def top(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, fn: Callable, name: str, post: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close()
            return out if post is None else post(self, out)
        return traced

    @contextlib.contextmanager
    def installed(self, hooks: list[Hook]):
        """Install every hook that resolves; yields the missing targets."""
        missing = []
        with contextlib.ExitStack() as stack:
            for hook in hooks:
                pairs = resolve(hook.target)
                if not pairs:
                    missing.append(hook.target)
                    continue
                stack.enter_context(patched(
                    pairs, lambda fn, h=hook: self.wrap(fn, h.span, h.post)))
            yield missing

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _) in enumerate(self.spans)]

    def enclosing(self, name: str) -> list[int]:
        """Index of the nearest enclosing span called name (itself included), or -1."""
        out = []
        for i, (span, _, _, parent) in enumerate(self.spans):
            out.append(i if span == name else (out[parent] if parent >= 0 else -1))
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run_id", "span", "name", "start", "end", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([self.run_id, i, name, repr(start), repr(end), parent])


# -- the layers of one optimizer iteration ---------------------------------


def _count_solves(tracer: Tracer, lu):
    """Record the factor's fill and hand back a proxy counting its solves."""
    tracer.values["fea.lu_nnz"].append(float(lu.nnz))
    return _CountedLU(lu, tracer.counts)


class _CountedLU:
    def __init__(self, lu, counts: Counter):
        self._lu = lu
        self._counts = counts

    def solve(self, *args, **kwargs):
        self._counts["fea.trisolves"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _record_residual(tracer: Tracer, result):
    tracer.values["fea.residual"].append(float(result.residual))
    return result


PKG = "csgtopo"

LAYER_HOOKS = [
    Hook(f"{PKG}.problem:Model.forward", "problem.forward"),
    Hook(f"{PKG}.geometry:rasterize_with_tape", "geometry.project"),
    Hook(f"{PKG}.csg:evaluate_tree_values", "csg.evaluate"),
    Hook(f"{PKG}.fea:assemble", "fea.assemble"),
    Hook(f"{PKG}.fea:reduce_system", "fea.reduce"),
    Hook(f"{PKG}.fea:solve", "fea.solve", _record_residual),
    Hook(f"{PKG}.fea:splu", "fea.factorize", _count_solves),
    Hook(f"{PKG}.fea:element_energies", "fea.energies"),
    Hook(f"{PKG}.sensitivity:grad_compliance", "sensitivity.grad"),
    Hook(f"{PKG}.sensitivity:grad_volume", "sensitivity.grad"),
    Hook(f"{PKG}.csg:tree_backward", "csg.backward"),
    Hook(f"{PKG}.geometry:projection_param_grad", "geometry.pullback"),
    Hook(f"{PKG}.problem:mma_update", "mma.update"),
    Hook(f"{PKG}.problem:kkt_residual", "mma.kkt"),
    Hook(f"{PKG}.problem:_finalize", "problem.finalize"),
    Hook(f"{PKG}.csg:prune", "csg.prune"),
    Hook(f"{PKG}.cli:write_*", "cli.artifacts"),
]

# metric prefix -> span, for layers timed per step (iteration or FD entry);
# fea.solve's self time is the triangular solves plus refinement, its
# factorization being a child span
STEP_LAYERS = {
    "problem.forward": "problem.forward",
    "geometry.project": "geometry.project",
    "csg.evaluate": "csg.evaluate",
    "fea.assemble": "fea.assemble",
    "fea.reduce": "fea.reduce",
    "fea.factorize": "fea.factorize",
    "fea.trisolve": "fea.solve",
    "fea.energies": "fea.energies",
    "sensitivity.grad": "sensitivity.grad",
    "csg.backward": "csg.backward",
    "geometry.pullback": "geometry.pullback",
    "mma.update": "mma.update",
    "mma.kkt": "mma.kkt",
}

# metric -> span, inclusive time per operation
RUN_LAYERS = {
    "problem.finalize.ms": "problem.finalize",
    "csg.prune.ms": "csg.prune",
    "cli.artifacts.ms": "cli.artifacts",
}


def layer_metrics(tracer: Tracer, step_span: str, step_ms: list[float],
                  missing: list[str]) -> dict:
    """Per-layer metrics of one traced operation.

    Step layers report self time and calls per step, counting only spans
    inside a step span.  problem.loop.self_ms is what no layer claims of
    the mean traced step; with it the step layers sum to that step.
    """
    live = {h.span for h in LAYER_HOOKS if h.target not in missing}
    self_t = tracer.self_times()
    step_of = tracer.enclosing(step_span)
    n_steps = max(len(step_ms), 1)
    in_steps: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    whole: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(tracer.spans):
        whole[name] += end - start
        if step_of[i] >= 0 and name != step_span:
            in_steps[name] += self_t[i]
            calls[name] += 1

    metrics: dict[str, tuple[float, str]] = {}
    attributed = 0.0
    for prefix, span in STEP_LAYERS.items():
        if span not in live:
            continue
        ms = 1e3 * in_steps[span] / n_steps
        attributed += ms
        metrics[f"{prefix}.self_ms"] = (ms, "ms")
        metrics[f"{prefix}.calls"] = (calls[span] / n_steps, "count")
    step_mean = sum(step_ms) / n_steps
    metrics["problem.loop.self_ms"] = (step_mean - attributed, "ms")
    for metric, span in RUN_LAYERS.items():
        if span in live:
            metrics[metric] = (1e3 * whole[span], "ms")
    if "fea.factorize" in live:
        factorizations = sum(1 for s in tracer.spans if s[0] == "fea.factorize")
        nnz = tracer.values["fea.lu_nnz"]
        metrics["fea.factorizations"] = (factorizations, "count")
        metrics["fea.lu_nnz"] = (sum(nnz) / max(len(nnz), 1), "count")
        metrics["fea.solves_per_factorization"] = (
            tracer.counts["fea.trisolves"] / max(factorizations, 1), "count")
    if "fea.solve" in live:
        metrics["fea.residual.max"] = (max(tracer.values["fea.residual"], default=0.0), "1")
    return metrics
