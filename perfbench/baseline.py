"""Run the benchmark over several seeds and summarize the runs.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads scale-384,...] [--out FILE] [--label TEXT]

For each workload, one untraced run per seed, one after another, then one
traced run on the first seed. Prints each end-to-end metric's median and its
spread, the distance between the first and third quartiles as a share of the
median, and writes the summary with the traced run's per-layer metrics as
JSON to FILE when given. perfbench/baseline.json was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--label", default="", help="what was measured, such as a commit")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    doc = {"label": args.label, "date": time.strftime("%Y-%m-%d"),
           "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, 0) for seed in seeds]
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in bounds}
        for name, m in metrics.items():
            print(f"{workload} {name}: median {m['median']:.4f} spread {m['spread']:.4f} "
                  f"(bound {bounds[name]})", flush=True)
        traced = run(workload, seeds[0], 1)
        result = json.loads((ROOT / ".bench_work" / "results" /
                             f"{workload}-seed{seeds[0]}-trace0.json").read_text())
        doc["environment"] = result["runs"]["0"]["environment"]
        doc["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "sizes": result["runs"]["0"]["sizes"],
        }
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
