"""Fast self-test of the benchmark: every workload path on a tiny problem.

    python3 bench/selftest.py

Runs each workload untraced and traced on a 12x6 depth-2 problem for three
iterations (six FD entries), checks that every metric BENCHMARK.json names
appears with its unit and that repeats agree, and checks that a hook whose
target has gone is reported missing with its metrics left out.  Exits 1 on
the first failure.
"""

import json
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL {what}")
        sys.exit(1)


def main() -> int:
    run.cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import tracing

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in contract["end_to_end"]},
                1: {m["name"]: m["unit"] for m in contract["per_layer"]}}
    for workload in (w["name"] for w in contract["workloads"]):
        for trace in (0, 1):
            result, report = run.measure(workload, 2, 0, bool(trace), tiny=True)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected[trace],
                  f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(got) ^ set(expected[trace]))}")
            check(result["correct"], f"{workload} trace={trace}: repeats disagree")
            check(result["attempted"] >= 1 and not report["hooks_missing"],
                  f"{workload} trace={trace}: {report}")
            print(f"ok   {workload} trace={trace}: {len(got)} metrics")

    # a refactor renames the projection entry point: its metrics go, the run stays
    saved = list(tracing.LAYER_HOOKS)
    gone = "csgtopo.geometry:rasterize_all"
    tracing.LAYER_HOOKS[:] = [tracing.Hook(gone, h.span) if h.span == "geometry.project"
                              else h for h in saved]
    try:
        result, report = run.measure("mbb", 2, 0, True, tiny=True)
    finally:
        tracing.LAYER_HOOKS[:] = saved
    check(report["hooks_missing"] == [gone], f"missing hook not reported: {report}")
    check(not any(name.startswith("geometry.project.") for name in result["metrics"]),
          "metrics of a missing hook were reported")
    check(result["correct"] and "fea.factorize.self_ms" in result["metrics"],
          "run with a missing hook did not complete")
    print("ok   missing hook reported, its metrics absent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
