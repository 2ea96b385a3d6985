"""Subprocess side of the benchmark: write a workload's inputs, or time it.

    python3 perfbench/worker.py setup WORKLOAD SEED WORKDIR
    python3 perfbench/worker.py measure WORKLOAD SEED WORKDIR SECONDS TRACE

Both import gerrytda from the checkout's src/ and move their main thread
round the available CPUs while they work (CpuRotation). measure runs the
workload's untimed warm-up, then timed iterations for SECONDS, starting
none that would not end in time, checking every iteration's outputs, and
writes WORKDIR/measure-TRACE.json. Each measure runs in a fresh process, so its
peak resident memory is that of these iterations alone.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import os
import platform
import resource
import shutil
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
CPUS = sorted(os.sched_getaffinity(0))  # before CpuRotation narrows the mask
ROTATION_PERIOD_S = 0.05


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "nproc": len(CPUS), "cpu_count": os.cpu_count()}


class CpuRotation:
    """Move the calling thread round the CPUs it may use, one step per period.

    A busy thread otherwise stays on one CPU, and on a shared host one CPU
    can run far slower than another for minutes at a time. Rotating makes a
    run see the average of its CPUs, not whichever one it landed on.
    """

    def __init__(self):
        self.tid = threading.get_native_id()
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        for k in itertools.count(1):
            if self.stop.wait(ROTATION_PERIOD_S):
                break
            os.sched_setaffinity(self.tid, {CPUS[k % len(CPUS)]})
        os.sched_setaffinity(self.tid, CPUS)

    def __enter__(self):
        if len(CPUS) > 1:
            self.thread.start()
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        """Stop rotating and give the thread all its CPUs back."""
        self.stop.set()
        if self.thread.is_alive():
            self.thread.join()


def _guarded(fn, *args) -> tuple[object, list[str]]:
    """Run one operation; an exception is a failure to count, not a crash."""
    try:
        return fn(*args), []
    except Exception:  # the run records the traceback and goes on
        return None, [f"{fn.__name__} raised:\n{traceback.format_exc()}"]


def measure(wl, work: Path, seconds: float, traced: bool) -> dict:
    import tracing

    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    out = work / "out"
    state = wl.load(work / "inputs")
    attempted = failed = 0
    failures, probe_errors = [], []
    if wl.warm_up is not None:
        found, problems = _guarded(wl.warm_up, state)
        problems += found or []
        attempted += 1
        failed += bool(problems)
        failures += [f"warm-up: {p}" for p in problems]

    walls, sizes, digest = [], None, None
    deadline = time.perf_counter() + seconds
    shortest_lap = 0.0  # an iteration with its checks; none starts that cannot end in time
    while not walls or time.perf_counter() + shortest_lap < deadline:
        k = len(walls)
        lap_start = time.perf_counter()
        shutil.rmtree(out, ignore_errors=True)
        if tracer:
            tracer.iteration = k
        start = time.perf_counter()
        result, problems = _guarded(wl.iterate, state, out)
        walls.append(time.perf_counter() - start)
        if tracer:
            tracer.iteration = None
        if result is not None:
            checked, problems = _guarded(wl.check, state, result, out, k)
            if checked is not None:
                found, sizes_k, digest_k = checked
                problems += found
                sizes, digest = sizes or sizes_k, digest or digest_k
                if digest_k != digest:
                    problems.append("outputs differ from the first iteration's")
            if wl.probe is not None:
                probe_errors.append(wl.probe(result, work / "probe"))
        result = None
        attempted += 1
        failed += bool(problems)
        failures += [f"iteration {k}: {p}" for p in problems]
        lap = time.perf_counter() - lap_start
        shortest_lap = min(shortest_lap, lap) if k else lap
    shutil.rmtree(out, ignore_errors=True)

    doc = {
        "wall_s": walls,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sizes": sizes,
        "probe": probe_errors if wl.probe is not None else None,
        "environment": environment(),
    }
    if tracer:
        tracing.write_spans(tracer, work / "spans.json")
        doc["layers"] = tracing.summarize(tracer)
        doc["layers"]["report.same_plan_probe_failures"] = \
            sum(e is not None for e in probe_errors) / len(walls)
        doc["absent"] = tracer.absent
    return doc


def main(argv: list[str]) -> int:
    mode, name, seed, work = argv[1], argv[2], int(argv[3]), Path(argv[4])
    with CpuRotation() as rotation:
        import workloads
        wl = workloads.WORKLOADS[name]
        if mode == "setup":
            wl.setup(seed, work / "inputs")
            return 0
        if not wl.rotate_cpus:
            rotation.close()
        seconds, traced = float(argv[5]), argv[6] == "1"
        doc = measure(wl, work, seconds, traced)
    (work / f"measure-{argv[6]}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
