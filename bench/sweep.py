"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/sweep.py --workload mbb --seeds 1-10 --out mbb.jsonl
    python3 bench/sweep.py --summarize mbb.jsonl [more.jsonl ...]

Each seed runs in a fresh process, one at a time, with the run_seconds of
BENCHMARK.json.  Each run's report (environment and result included) is
appended to the output file as one JSON line.  The summary gives, per
workload, trace mode and metric, the median, the quartiles and the
quartile distance as a share of the median, next to the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(paths: list[str]) -> None:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    values = defaultdict(list)
    failures = defaultdict(lambda: [0, 0])
    for path in paths:
        for line in Path(path).read_text().splitlines():
            report = json.loads(line)
            key = (report["workload"], report["trace"])
            result = report["result"]
            failures[key][0] += result["failed"]
            failures[key][1] += result["attempted"]
            for name, metric in result["metrics"].items():
                values[key + (name,)].append(metric["value"])
    print(f"{'workload':<10}{'trace':>6} {'metric':<32}{'n':>3}{'median':>14}"
          f"{'q1':>14}{'q3':>14}{'spread':>8}{'bound':>7}")
    for (workload, trace, name), vals in sorted(values.items()):
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, 0, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = f"{bounds[name]:.2f}" if trace == 0 and name in bounds else ""
        print(f"{workload:<10}{trace:>6} {name:<32}{len(vals):>3}{med:>14.6g}"
              f"{q1:>14.6g}{q3:>14.6g}{spread:>8.3f}{bound:>7}")
    for (workload, trace), (failed, attempted) in sorted(failures.items()):
        print(f"{workload:<10}{trace:>6} failed {failed} of {attempted} operations")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--summarize", nargs="+", metavar="JSONL")
    args = parser.parse_args()
    if args.summarize:
        summarize(args.summarize)
        return 0
    if not (args.workload and args.out):
        parser.error("--workload and --out are required unless --summarize is given")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, "bench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode:
            print(out.stderr, file=sys.stderr)
            return out.returncode
        lines = out.stdout.strip().splitlines()
        with open(args.out, "a") as fh:
            fh.write(lines[-2] + "\n")
        print(lines[-1], flush=True)
    summarize([args.out])
    return 0


if __name__ == "__main__":
    sys.exit(main())
