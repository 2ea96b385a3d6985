"""Benchmark for gerrytda: four workloads end to end, and a traced per-layer run.

    python3 perfbench/run.py --workload years-128 --seed 1 --seconds 55 --trace 0

Run it from anywhere inside a source checkout; it imports gerrytda from the
checkout's src/ and keeps its files under .bench_work/. The workloads, their
inputs and their output checks are in workloads.py; BENCHMARK.json names
the metrics and their units, and the workloads whose bounds gate a change
(years-128 and adjacency-2716). scale-384 and diagram-matrix run the same
way when named.

One run sets the workload up SETUP_REPEATS times, each in a fresh process
(setup_s is the median: imports, input generation, input file writes), then
times iterations in one more fresh process for --seconds, checking every
iteration's outputs. With --trace 0 it prints the end-to-end metrics:
wall_s, the fastest iteration's wall time; setup_s; and the measuring
process's peak_rss_mb. With --trace 1 it splits --seconds between an
untraced process and a traced one, and prints the per-layer metrics: medians
over the traced iterations of the spans recorded around gerrytda's public
functions (tracing.py), and trace.overhead_s, the traced minus the untraced
wall_s.

On a 2-vCPU KVM guest the same pure-Python loop ran up to 1.9x slower for
stretches of seconds to minutes, on each vCPU on its own, with CPU time
growing as much as wall time. Two things keep a run from depending on when
it ran. Single-threaded work is moved between the vCPUs (worker.CpuRotation),
so that it sees their average. And wall_s takes the fastest iteration, not
the median: this noise only ever adds time, and the fastest iteration is the
least disturbed one (Chen and Revels, "Robust benchmarking in noisy
environments", arXiv:1608.04295). The printed wall_s line still gives every
run's quartiles.

Every run prints one line per metric, the environment, the input sizes and
any failed check, then, as its last line, a JSON object with correct,
attempted, failed and metrics. It also writes all of that, and the traced
run's spans, to .bench_work/results/. A failed output check counts as a
failed operation.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
DEADLINE_S = 170.0

NOTES = [
    "Sizes are cut so that every iteration takes a few seconds in pure Python "
    "(no numba): width 384 rather than 1024 for scale, width 128 rather than "
    "512 for years, 28-44 finite points per diagram rather than 60-120.",
    "Left out: the ROADMAP's 200/1500/3000-point bottleneck sizes and width "
    "2048. One 200-point bottleneck call takes about 10 s, and 1500 points "
    "raises RecursionError after about 26 s.",
]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class WorkerFailed(Exception):
    pass


def run_worker(args: list[str], deadline: float) -> None:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise WorkerFailed(f"{' '.join(args[:2])}: {exc}") from exc


def main() -> int:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of workloads.py; BENCHMARK.json lists the gated ones")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "gerrytda" / "__init__.py").is_file():
        print(f"no gerrytda sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = [args.workload, str(args.seed), str(work)]
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            run_worker(["setup", *common], deadline)
            setup_s.append(time.perf_counter() - t0)
        phases = ["0", "1"] if args.trace else ["0"]
        for traced in phases:
            run_worker(["measure", *common, str(args.seconds / len(phases)), traced], deadline)
    except WorkerFailed as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    runs = {t: json.loads((work / f"measure-{t}.json").read_text()) for t in phases}
    plain = runs["0"]

    wall = quartiles(plain["wall_s"])
    if args.trace:
        traced = runs["1"]
        values = dict(traced["layers"])
        values["trace.overhead_s"] = min(traced["wall_s"]) - min(plain["wall_s"])
        declared = spec["per_layer"]
    else:
        values = {"wall_s": min(plain["wall_s"]), "setup_s": statistics.median(setup_s),
                  "peak_rss_mb": plain["peak_rss_mb"]}
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}

    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    failures = [f for r in runs.values() for f in r["failures"]]
    probes = [e for r in runs.values() for e in (r["probe"] or [])]
    absent = sorted({a for r in runs.values() for a in r.get("absent", [])})

    lines = [f"{name} {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"wall_s over {len(plain['wall_s'])} untraced iterations: "
                 f"min {min(plain['wall_s']):.4f} q1 {wall[0]:.4f} median {wall[1]:.4f} "
                 f"q3 {wall[2]:.4f} s")
    lines.append(f"error_rate {failed / attempted!r} ({failed} of {attempted} operations failed)")
    if probes:
        raised = [e for e in probes if e is not None]
        lines.append(f"known-defect probe, write_outputs on two years of one plan: "
                     f"{len(raised)} of {len(probes)} calls raised"
                     + (f" ({raised[0]})" if raised else "")
                     + f"; error_rate with it counted "
                     f"{(failed + len(raised)) / (attempted + len(probes))!r}")
    if absent:
        lines.append(f"absent from the program, recorded as 0: {', '.join(absent)}")
    lines.append(f"environment {json.dumps(plain['environment'], sort_keys=True)}")
    lines.append(f"sizes {json.dumps(plain['sizes'], sort_keys=True)}")
    lines += [f"note: {n}" for n in NOTES]
    lines += [f"FAILED {f}" for f in failures]

    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    results_dir = ROOT / ".bench_work" / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "result": result, "setup_s": setup_s, "runs": runs,
        "notes": NOTES, "elapsed_s": time.monotonic() - started}, indent=1) + "\n")
    if args.trace:
        shutil.move(work / "spans.json", results_dir / f"{tag}.spans.json")
    shutil.rmtree(work)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
