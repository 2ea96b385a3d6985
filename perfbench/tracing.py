"""Spans around calls into gerrytda's public functions, for the traced run.

install() rebinds each public name listed in TRACED, in every loaded
gerrytda module that holds it, to a wrapper that records a span: name,
start, end, parent span and thread id, plus counts taken from the call's
arguments and result. Spans stay in memory until the run writes them out.
A listed name that a module no longer has is recorded as absent, so a
later change can rename or remove a call without breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _cells(prefix):
    def count(out, args, kwargs):
        per_dim = np.bincount(out.dims, minlength=3)
        return {f"{prefix}_d{d}": int(per_dim[d]) for d in range(3)}
    return count


def _text_bytes(out, args, kwargs):
    return {"ingest.input_bytes": len(args[0])}


def _rasterize(out, args, kwargs):
    return {"raster.pixels": int(out.labels.size),
            "raster.claimed_pixels": int(np.count_nonzero(out.labels >= 0))}


def _barcode(out, args, kwargs):
    counts = {f"persistence.bars_d{d}": len(out.bars(d)) for d in range(3)}
    counts["persistence.cells_in"] = len(args[0])
    return counts


def _bottleneck(out, args, kwargs):
    return {"compare.bottleneck_calls": 1,
            "compare.diagram_points": len(args[0]) + len(args[1])}


def _written(out, args, kwargs):
    files = [p for p in Path(args[1]).rglob("*") if p.is_file()]
    return {"report.files_written": len(files),
            "report.bytes_written": sum(p.stat().st_size for p in files)}


# (module, public name, span name, counts from (result, args, kwargs))
TRACED = [
    ("ingest", "parse_geojson", "ingest.parse_geojson", _text_bytes),
    ("ingest", "parse_votes_csv", "ingest.parse_votes_csv", _text_bytes),
    ("ingest", "join_units", "ingest.join_units",
     lambda out, a, k: {"ingest.units": len(out[0])}),
    ("raster", "rasterize", "raster.rasterize", _rasterize),
    ("raster", "margin_field", "raster.margin_field", None),
    ("complexes", "build_levelset_filtration", "complexes.levelset", _cells("complexes.cells")),
    ("complexes", "detect_adjacency", "complexes.detect_adjacency",
     lambda out, a, k: {"complexes.adjacency_pairs": len(out)}),
    ("complexes", "flag_filtration", "complexes.flag_filtration", None),
    ("complexes", "build_adjacency_filtration", "complexes.adjacency_filtration",
     _cells("complexes.flag_cells")),
    ("persistence", "barcode", "persistence.barcode", _barcode),
    ("compare", "bottleneck", "compare.bottleneck", _bottleneck),
    ("compare", "wasserstein", "compare.wasserstein", None),
    ("compare", "total_persistence", "compare.total_persistence", None),
    ("compare", "distance_matrix", "compare.distance_matrix", None),
    ("compactness", "score_units", "compactness.score_units",
     lambda out, a, k: {"compactness.districts": len(out)}),
    ("compactness", "paired_t_test", "compactness.paired_t_test", None),
    ("report", "run_year", "report.run_year", None),
    ("report", "run_years", "report.run_years", None),
    ("report", "write_outputs", "report.write_outputs", _written),
    ("report", "write_levelset_snapshot", "report.snapshot", None),
    ("report", "render_barcode_svg", "report.svg", None),
]


class Tracer:
    """Span recorder; records only while iteration is set."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.iteration: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, f, name: str, count):
        @functools.wraps(f)
        def traced(*args, **kwargs):
            iteration = self.iteration
            if iteration is None:
                return f(*args, **kwargs)
            stack = self._stack()
            span = {"id": next(self._ids), "name": name,
                    "parent": stack[-1] if stack else None,
                    "thread": threading.get_ident(), "iteration": iteration}
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                out = f(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if count is not None:
                span["counts"] = count(out, args, kwargs)
            return out
        return traced


def install(tracer: Tracer) -> None:
    """Rebind every name in TRACED to its wrapper, wherever it is bound."""
    for module, attr, name, count in TRACED:
        try:
            f = getattr(importlib.import_module(f"gerrytda.{module}"), attr)
        except (ImportError, AttributeError):
            tracer.absent.append(name)
            continue
        wrapper = tracer.wrap(f, name, count)
        for mod in list(sys.modules.values()):
            if mod is None or not mod.__name__.startswith("gerrytda"):
                continue
            for key, value in list(vars(mod).items()):
                if value is f:
                    setattr(mod, key, wrapper)


def iteration_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals for one iteration's spans.

    Each span's self time is its duration minus that of its direct children;
    a layer's self_s sums the self times of its spans, except report.self_s,
    which covers run_year only (file reads and glue between stages).
    """
    out: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    run_year_total = run_years_total = 0.0
    for s in spans:
        dur = s["end"] - s["start"]
        out[s["name"] + "_s"] += dur
        layer = s["name"].split(".")[0]
        if layer != "report" or s["name"] == "report.run_year":
            out[layer + ".self_s"] += dur - child_time[s["id"]]
        for key, value in s.get("counts", {}).items():
            out[key] += value
        if s["name"] == "report.run_year":
            run_year_total += dur
        elif s["name"] == "report.run_years":
            run_years_total += dur
    cells = out.get("persistence.cells_in", 0)
    bars = sum(out.get(f"persistence.bars_d{d}", 0) for d in range(3))
    out["persistence.bars_per_mcell"] = bars / cells * 1e6 if cells else 0.0
    out["report.run_years_overlap"] = run_year_total / run_years_total if run_years_total else 0.0
    out["trace.spans"] = len(spans)
    return dict(out)


def summarize(tracer: Tracer) -> dict[str, float]:
    """Median over iterations of each per-layer metric."""
    by_iteration: dict[int, list[dict]] = defaultdict(list)
    for s in tracer.spans:
        by_iteration[s["iteration"]].append(s)
    rows = [iteration_metrics(spans) for _, spans in sorted(by_iteration.items())]
    keys = sorted({k for row in rows for k in row})
    return {k: statistics.median(row.get(k, 0.0) for row in rows) for k in keys}


def write_spans(tracer: Tracer, path: Path) -> None:
    path.write_text(json.dumps({"absent": tracer.absent, "spans": tracer.spans}) + "\n")
