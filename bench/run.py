"""Benchmark of the csgtopo optimizer, end to end and layer by layer.

    python3 bench/run.py --workload mbb --seed 2 --seconds 25 --trace 0

Runs one workload in this process, from the sources under ``src/``.  Passes
repeat until the next one would end past ``--seconds`` (at least two).  With
``--trace 0`` every pass is untraced and the end-to-end metrics are reported,
their times scaled to the nominal host speed (``hostspeed.py``; the wall
times are in the report);
with ``--trace 1`` untraced and traced passes alternate, the per-layer
metrics come from the traced ones and the spans are written to
``.bench_out/``.  Every metric is printed by name with its unit; the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at min(BLAS_THREADS, nproc); call before numpy loads."""
    cap = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in BLAS_ENV:
        os.environ[var] = str(cap)
    return cap


def environment(seed: int, blas_threads: int) -> dict:
    import hashlib
    import platform
    import subprocess

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "csgtopo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q))


def _step_medians(passes: list[list[float]]) -> list[float]:
    """Each step's median over the passes; every pass runs the same steps."""
    import numpy as np
    n = min(len(p) for p in passes)
    return np.median([p[:n] for p in passes], axis=0).tolist()


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result, report).

    result has the contract keys correct/attempted/failed/metrics; report
    adds the environment, per-pass detail, layer shares and missing hooks.
    """
    import resource
    import statistics

    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    prepared = workloads.Prepared(workload, seed, OUT, tiny)
    if not trace:
        setup_s, setup_wall_s = workloads.setup_seconds(
            prepared.config, prepared.design, 1 if tiny else workloads.SETUP_REPEATS)

    ops, tracers = [], []
    t0 = time.perf_counter()
    while True:
        tracer = None
        if trace and len(ops) % 2 == 1:
            tracer = tracing.Tracer(f"{workload}-seed{seed}-pass{len(ops)}")
            tracers.append(tracer)
        ops.append(prepared.run(tracer))
        elapsed = time.perf_counter() - t0
        if len(ops) >= 2 and elapsed * (len(ops) + 1) / len(ops) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # every pass repeats the same operations, and correct says it reproduced
    # them, so the operations of one pass are what was attempted
    attempted = ops[0].attempted
    failed = max(op.failed for op in ops)
    prints = [op.fingerprint for op in ops if op.fingerprint is not None]
    correct = bool(prints) and all(p == prints[0] for p in prints)
    j_values = {op.j_snapped for op in ops if op.j_snapped is not None}
    correct = correct and len(j_values) <= 1
    j_snapped = j_values.pop() if j_values else prepared.j_snapped

    plain = [op for op in ops if not op.layers]
    traced = [op for op in ops if op.layers]
    steps = [s for op in plain for s in op.steps_ms]
    scaled_steps = _step_medians([op.scaled_steps_ms for op in plain])
    report = {
        "workload": workload,
        "trace": int(trace),
        "environment": None,
        "passes": [{"traced": bool(op.layers), "run_s": op.run_s,
                    "scaled_run_s": op.scaled_run_s, "host_factor": op.host_factor,
                    "steps": len(op.steps_ms), "attempted": op.attempted,
                    "failed": op.failed} for op in ops],
        "hooks_missing": sorted({t for op in traced for t in op.missing}),
    }
    if not trace:
        metrics = {
            "run_s": (statistics.median(op.scaled_run_s for op in plain), "s"),
            "step_ms.p50": (_percentile(scaled_steps, 50), "ms"),
            "step_ms.p90": (_percentile(scaled_steps, 90), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "J_snapped": (j_snapped, "1"),
        }
        report["wall"] = {
            "run_s": statistics.median(op.run_s for op in plain),
            "step_ms.p50": _percentile(steps, 50),
            "step_ms.p90": _percentile(steps, 90),
            "setup_s": setup_wall_s,
            "host_factor": statistics.median(op.host_factor for op in plain),
        }
    else:
        metrics = {}
        for name in traced[0].layers:
            values = [op.layers[name][0] for op in traced]
            metrics[name] = (statistics.median(values), traced[0].layers[name][1])
        traced_steps = [s for op in traced for s in op.steps_ms]
        traced_mean = statistics.fmean(traced_steps)
        metrics["trace.step_ms"] = (traced_mean, "ms")
        metrics["trace.overhead_ms"] = (traced_mean - statistics.fmean(steps), "ms")
        p50 = _percentile(steps, 50)
        report["untraced_step_ms.p50"] = p50
        report["share_of_step_p50"] = {
            name[:-len(".self_ms")]: value / p50
            for name, (value, unit) in metrics.items() if name.endswith(".self_ms")}
        for tracer in tracers:
            tracer.write_csv(OUT / f"spans-{tracer.run_id}.csv")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mbb", "deep-tree", "fd-check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "csgtopo" / "__init__.py").is_file():
        print(f"error: no csgtopo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report["environment"] = environment(args.seed, blas_threads)
    report["result"] = result

    for name, metric in result["metrics"].items():
        print(f"{args.workload:>9} {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in report.get("wall", {}).items():
        print(f"{args.workload:>9} {'wall ' + name:<34} {value:>14.6g}")
    print(f"{args.workload:>9} correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} missing_hooks={report['hooks_missing']}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
