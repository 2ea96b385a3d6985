"""The benchmark's workloads: seeded inputs, one timed iteration, output checks.

Every workload writes its inputs as files during set-up; the timed iteration
reads them through gerrytda's own readers, so the program sees only files.
Calls go through module attributes (report.run_year, not a name imported
here) so that the traced run's wrappers see them, and use each function's
defaults wherever the workload does not need another value.

Why these workloads (BENCHMARK.json gates years-128 and adjacency-2716, which
between them reach every layer; one run of each measures for close to a
minute, because on a shared host a shorter run depends more on when it ran):

* scale-384: the 2716-precinct mosaic of acceptance gate 8 through run_year
  and write_outputs at width 384 in density mode. Persistence dominates, so
  the level-set complex and its reduction show here.
* years-128: four election years of the same mosaic in relative mode, with
  the district plan redrawn after year two. The only user of the run_years
  thread pool, the cross-year distance matrix, the paired t-test and the
  relative margin mode. Ingest is most of its time.
* diagram-matrix: pairwise bottleneck and Wasserstein distances between five
  synthetic H1 diagrams. Compare is a negligible share of every raster
  workload, so changes to the distances can only show here.
* adjacency-2716: the mosaic's adjacency flag filtrations (queen and rook)
  for four vote years, read from files. The only caller of detect_adjacency,
  flag_filtration and a reduction on a flag complex.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from gerrytda import compare, complexes, ingest, persistence, report, synth
from gerrytda.geometry import UnitKind

COLS, ROWS, BANDS = 97, 28, 14  # acceptance gate 8's mosaic: 2716 precincts
YEARS = 4
GOLDEN_SEED = 0

# sha256 of Barcode.dumps() for scale-384 on GOLDEN_SEED's inputs, as
# computed by the reduction at the commit that introduced this benchmark
GOLDEN_BARCODES = {
    "precinct": "bd3f055881eebb992b2399af73bc7f818db01f7a204d51f3bc8f31e6e5537bd9",
    "district": "ffc96519c467bb60003854884a99626741acdb52445b32aedf73591cd9d487c2",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digest(root: Path) -> str:
    """One digest over every file's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def field_cells(field, top: float) -> tuple[int, int, int]:
    """Vertices, edges and squares of the full cubical level-set complex.

    Counted straight from the margin field: a pixel takes part when it is
    not background and its margin stays below the top threshold.
    """
    a = ~field.background & (field.values < top)
    v = np.count_nonzero(a)
    e = np.count_nonzero(a[:, :-1] & a[:, 1:]) + np.count_nonzero(a[:-1, :] & a[1:, :])
    f = np.count_nonzero(a[:-1, :-1] & a[:-1, 1:] & a[1:, :-1] & a[1:, 1:])
    return int(v), int(e), int(f)


def alive_euler(bc) -> int:
    """Alternating sum of the bars alive at the barcode's top level."""
    top = bc.num_levels
    return sum((-1) ** d * bc.alive(top, d) for d in range(3))


def bars_by_dim(bc) -> list[int]:
    return [len(bc.bars(d)) for d in range(3)]


def _year_checks(r) -> tuple[list[str], dict]:
    """Euler identity on both layers of a YearResult, and their sizes."""
    problems, sizes = [], {}
    top = r.schedule.thresholds[-1]
    for which, fld, bc in (("precinct", r.precinct_field, r.precinct_barcode),
                           ("district", r.district_field, r.district_barcode)):
        v, e, f = field_cells(fld, top)
        if alive_euler(bc) != v - e + f:
            problems.append(f"{r.year} {which}: bars alive at the top level "
                            f"give {alive_euler(bc)}, V-E+F is {v - e + f}")
        sizes[f"{r.year}_{which}"] = {"pixels": int(fld.values.size),
                                      "cells": [v, e, f], "bars": bars_by_dim(bc)}
    return problems, sizes


def _write_votes(path: Path, rows) -> None:
    path.write_text(synth.votes_csv_text(rows))


def _write_map(d: Path, seed: int) -> None:
    """Acceptance gate 8's input files for one seed."""
    d.mkdir(parents=True, exist_ok=True)
    votes = synth.mosaic_votes(COLS, ROWS, seed=seed)
    (d / "precincts.geojson").write_text(json.dumps(synth.grid_mosaic(COLS, ROWS, seed=seed)))
    _write_votes(d / "precincts.csv", votes)
    (d / "districts.geojson").write_text(json.dumps(synth.band_districts(COLS, ROWS, BANDS)))
    _write_votes(d / "districts.csv", synth.aggregate_band_votes(COLS, ROWS, BANDS, votes))


def _map_config(d: Path, year: str, **kwargs) -> report.AnalysisConfig:
    return report.AnalysisConfig(
        year=year,
        precinct_geo=str(d / "precincts.geojson"), precinct_votes=str(d / "precincts.csv"),
        district_geo=str(d / "districts.geojson"), district_votes=str(d / "districts.csv"),
        **kwargs)


class Workload:
    """Set-up, load, iterate and check; the measuring loop lives in worker.py."""

    def setup(self, seed: int, inputs: Path) -> None:
        raise NotImplementedError

    def load(self, inputs: Path):
        """Untimed state the iterations share, such as configs."""
        return inputs

    # measure on a thread that worker.CpuRotation moves between CPUs
    rotate_cpus = True
    # optional untimed first pass: warm_up(state) -> failed checks
    warm_up = None
    # optional call that fails today for a known defect:
    # probe(result, out) -> the error it raised, or None once it passes
    probe = None

    def iterate(self, state, out: Path):
        raise NotImplementedError

    def check(self, state, result, out: Path, k: int) -> tuple[list[str], dict, str]:
        """Failed checks, sizes and a digest that must repeat every iteration."""
        raise NotImplementedError


class Scale(Workload):
    width = 384

    def setup(self, seed, inputs):
        _write_map(inputs / "seeded", seed)
        _write_map(inputs / "golden", GOLDEN_SEED)

    def load(self, inputs):
        return {k: _map_config(inputs / k, "scale", width=self.width)
                for k in ("seeded", "golden")}

    def warm_up(self, state):
        # the golden run also warms every code path before timing starts
        r = report.run_year(state["golden"])
        problems, _ = _year_checks(r)
        for which, bc in (("precinct", r.precinct_barcode), ("district", r.district_barcode)):
            got = _sha256(bc.dumps().encode())
            if got != GOLDEN_BARCODES[which]:
                problems.append(f"seed {GOLDEN_SEED} {which} barcode digest {got} "
                                f"differs from {GOLDEN_BARCODES[which]}")
        return problems

    def iterate(self, state, out):
        r = report.run_year(state["seeded"])
        report.write_outputs([r], out)
        return r

    def check(self, state, result, out, k):
        problems, sizes = _year_checks(result)
        return problems, sizes, tree_digest(out)


def _strip_plan(seed: int) -> tuple[dict, np.ndarray]:
    """Fourteen horizontal strips of unequal height over the mosaic.

    Unequal heights give the strips different compactness scores, so the
    paired t-test against the equal vertical bands is well defined.
    """
    heights = np.random.default_rng(seed).permutation([1] * 4 + [2] * 6 + [3] * 4)  # sums to ROWS
    edges = np.concatenate([[0], np.cumsum(heights)]).astype(float)
    feats = []
    for i in range(len(heights)):
        y0, y1 = edges[i], edges[i + 1]
        ring = [[0.0, y0], [float(COLS), y0], [float(COLS), y1], [0.0, y1], [0.0, y0]]
        feats.append({"type": "Feature", "properties": {"id": f"D{i + 1:02d}"},
                      "geometry": {"type": "Polygon", "coordinates": [ring]}})
    return {"type": "FeatureCollection", "features": feats}, edges


def _strip_votes(edges: np.ndarray, precinct_votes) -> list[tuple[str, int, int]]:
    """Sum precinct votes into the strips by precinct center."""
    totals = np.zeros((len(edges) - 1, 2), dtype=np.int64)
    for uid, dem, rep in precinct_votes:
        cy = int(uid[1:]) // COLS + 0.5
        strip = int(np.searchsorted(edges, cy, side="right")) - 1
        totals[strip] += (dem, rep)
    return [(f"D{i + 1:02d}", int(d), int(r)) for i, (d, r) in enumerate(totals)]


class Years(Workload):
    width = 128
    # run_years starts a thread pool, whose threads would inherit a one-CPU mask
    rotate_cpus = False

    def setup(self, seed, inputs):
        inputs.mkdir(parents=True, exist_ok=True)
        (inputs / "precincts.geojson").write_text(json.dumps(synth.grid_mosaic(COLS, ROWS, seed=seed)))
        (inputs / "bands.geojson").write_text(json.dumps(synth.band_districts(COLS, ROWS, BANDS)))
        strips, edges = _strip_plan(seed)
        (inputs / "strips.geojson").write_text(json.dumps(strips))
        for y in range(YEARS):
            votes = synth.mosaic_votes(COLS, ROWS, seed=YEARS * seed + y)
            _write_votes(inputs / f"precincts_{y + 1}.csv", votes)
            district_votes = synth.aggregate_band_votes(COLS, ROWS, BANDS, votes) \
                if y < 2 else _strip_votes(edges, votes)
            _write_votes(inputs / f"districts_{y + 1}.csv", district_votes)

    def load(self, inputs):
        return [report.AnalysisConfig(
            year=f"year{y}",
            precinct_geo=str(inputs / "precincts.geojson"),
            precinct_votes=str(inputs / f"precincts_{y}.csv"),
            district_geo=str(inputs / ("bands.geojson" if y <= 2 else "strips.geojson")),
            district_votes=str(inputs / f"districts_{y}.csv"),
            width=self.width, mode="relative") for y in range(1, YEARS + 1)]

    def iterate(self, state, out):
        results = report.run_years(state)
        report.write_outputs(results, out)
        return results

    def check(self, state, result, out, k):
        problems, sizes = [], {}
        for r in result:
            p, s = _year_checks(r)
            problems += p
            sizes.update(s)
        for name in ("report.json", "ttest.json", "distances.csv"):
            if not (out / name).is_file():
                problems.append(f"{name} was not written")
        return problems, sizes, tree_digest(out)

    def probe(self, result, out):
        # years 1 and 2 share the band plan: the paired t-test on identical
        # scores has zero variance and write_outputs raises before report.json
        try:
            report.write_outputs(result[:2], out / "same_plan")
        except Exception as exc:  # the probe records whatever the call raises
            return f"{type(exc).__name__}: {exc}"
        return None


class DiagramMatrix(Workload):
    # finite points per diagram; fixed so that every seed does the same work
    points = (28, 32, 36, 40, 44)
    essential = 2

    def setup(self, seed, inputs):
        inputs.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        for i, n in enumerate(self.points):
            births = rng.uniform(0.0, 0.9, n)
            deaths = births + rng.uniform(0.005, 0.3, n)
            pairs = [{"dim": 1, "birth": float(b), "death": float(d)}
                     for b, d in zip(births, deaths)]
            pairs += [{"dim": 1, "birth": float(b), "death": "inf"}
                      for b in rng.uniform(0.0, 0.5, self.essential)]
            doc = {"num_levels": 25, "pairs": pairs}
            (inputs / f"diagram_{i}.json").write_text(json.dumps(doc))

    def load(self, inputs):
        diagrams = []
        for i in range(len(self.points)):
            by_dim, _ = persistence.read_barcode_json((inputs / f"diagram_{i}.json").read_text())
            diagrams.append(by_dim[1])
        return [f"D{i}" for i in range(len(diagrams))], diagrams

    def iterate(self, state, out):
        labels, diagrams = state
        return (compare.distance_matrix(labels, diagrams, compare.bottleneck),
                compare.distance_matrix(labels, diagrams, compare.wasserstein))

    def check(self, state, result, out, k):
        labels, diagrams = state
        b, w1 = result
        w2 = compare.distance_matrix(labels, diagrams,
                                     lambda x, y: compare.wasserstein(x, y, p=2))
        problems = []
        a = diagrams[k % len(diagrams)]
        for name, dist in (("bottleneck", compare.bottleneck), ("wasserstein", compare.wasserstein)):
            d = dist(a, a)
            if d != 0.0:
                problems.append(f"{name}(a, a) = {d} for {labels[k % len(labels)]}")
        tol = 1e-9
        for name, m in (("bottleneck", b), ("W1", w1), ("W2", w2)):
            if not np.array_equal(m, m.T):
                problems.append(f"{name} matrix is not symmetric")
            # m[i, k] <= m[i, j] + m[j, k] for every j
            if np.any(m[:, None, :] > m[:, :, None] + m[None, :, :] + tol):
                problems.append(f"{name} matrix breaks the triangle inequality")
        if np.any(b > w2 + tol) or np.any(w2 > w1 + tol):
            problems.append("bottleneck <= W2 <= W1 does not hold")
        sizes = {"diagram_points": [len(d) for d in diagrams]}
        return problems, sizes, _sha256(b.tobytes() + w1.tobytes())


class Adjacency(Workload):
    kinds = ("queen", "rook")

    def setup(self, seed, inputs):
        inputs.mkdir(parents=True, exist_ok=True)
        (inputs / "precincts.geojson").write_text(json.dumps(synth.grid_mosaic(COLS, ROWS, seed=seed)))
        for y in range(YEARS):
            _write_votes(inputs / f"votes_{y + 1}.csv",
                         synth.mosaic_votes(COLS, ROWS, seed=YEARS * seed + y))

    def iterate(self, state, out):
        geo = ingest.parse_geojson((state / "precincts.geojson").read_text(),
                                   kind=UnitKind.PRECINCT)
        schedule = complexes.uniform_schedule(25)
        results = []
        for y in range(1, YEARS + 1):
            votes = ingest.parse_votes_csv((state / f"votes_{y}.csv").read_text())
            units, _ = ingest.join_units(geo, votes)
            for kind in self.kinds:
                cx = complexes.build_adjacency_filtration(units, schedule, kind)
                results.append((f"year{y}_{kind}", cx, persistence.barcode(cx)))
        return results

    def check(self, state, result, out, k):
        problems, sizes, h = [], {}, hashlib.sha256()
        for name, cx, bc in result:
            top = cx.levels <= cx.num_levels
            v, e, f = (int(np.count_nonzero(top & (cx.dims == d))) for d in range(3))
            if alive_euler(bc) != v - e + f:
                problems.append(f"{name}: bars alive at the top level give "
                                f"{alive_euler(bc)}, V-E+F is {v - e + f}")
            sizes[name] = {"cells": [v, e, f], "bars": bars_by_dim(bc)}
            h.update(bc.dumps().encode())
        return problems, sizes, h.hexdigest()


WORKLOADS = {
    "scale-384": Scale(),
    "years-128": Years(),
    "diagram-matrix": DiagramMatrix(),
    "adjacency-2716": Adjacency(),
}
