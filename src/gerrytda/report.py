"""Pipeline orchestration: one election year in, comparable artifacts out.

run_year chains ingest -> raster -> level-set barcode -> compare for the
precinct and district layers of a year, on one shared grid so the two
barcodes live on the same threshold axis. write_outputs lays the results
down as barcode JSON, level-set snapshots, SVG plots, distance and
compactness CSVs, and a machine-readable report.json. Every file is written
deterministically: same inputs, same bytes; write_outputs checks its
arguments before it makes a directory. levelset_snapshots is the one
snapshot writer: it reads each pixel's level through the labels once, then
makes the frames one level at a time, and write_outputs writes each before
the next is made.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .compactness import CompactnessRow, paired_t_test, score_units, scores_to_csv
from .compare import (
    bottleneck,
    distance_matrix,
    matrix_to_csv,
    total_persistence,
    wasserstein,
)
from .complexes import LevelSchedule, _check_polarity, _unit_levels, uniform_schedule
from .errors import DegenerateSampleError, GerryTdaError, ParameterError, PipelineError
from .geometry import UnitCollection, UnitKind
from .ingest import JoinReport, join_units, parse_geojson, parse_votes_csv
from .persistence import Barcode, levelset_barcode
from .raster import MarginField, _check_width, _margin_mode, margin_field, rasterize


@dataclass(frozen=True)
class AnalysisConfig:
    year: str
    precinct_geo: str
    precinct_votes: str
    district_geo: str
    district_votes: str
    width: int = 1024
    mode: str = "density"
    levels: int = 25
    max_margin: float = 1.0
    polarity: str = "democratic"


@dataclass(frozen=True)
class YearResult:
    year: str
    precinct_barcode: Barcode
    district_barcode: Barcode
    bottleneck_by_dim: dict[int, float]
    wasserstein_by_dim: dict[int, float]
    total_persistence_by_dim: dict[str, dict[int, float]]
    precinct_join: JoinReport
    district_join: JoinReport
    compactness: tuple[CompactnessRow, ...]
    precinct_field: MarginField
    district_field: MarginField
    schedule: LevelSchedule
    polarity: str = "democratic"  # the sweep the barcodes and snapshots follow


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineError:
        raise
    except (GerryTdaError, OSError, json.JSONDecodeError, KeyError) as exc:
        raise PipelineError(f"{name}: {exc}") from exc


def _load_layer(geo_path: str, votes_path: str, kind: UnitKind,
                maps: dict | None = None) -> tuple[UnitCollection, JoinReport]:
    """One layer's units with their votes joined.

    maps holds the maps parsed so far, keyed by (geo_path, kind); a map
    already in it is not read again. None parses afresh.
    """
    maps = {} if maps is None else maps
    if (geo_path, kind) not in maps:
        maps[geo_path, kind] = parse_geojson(Path(geo_path).read_bytes(), kind=kind)
    votes = parse_votes_csv(Path(votes_path).read_bytes())
    return join_units(maps[geo_path, kind], votes)


def run_year(config: AnalysisConfig, maps: dict | None = None) -> YearResult:
    """Full precinct-plus-district analysis for one year, deterministically.

    maps, if given, holds parsed maps keyed by (geo path, kind); this call
    reads and adds to it. run_years shares one among its years.
    """
    # before any input is read, so a config that cannot run fails first
    with _stage("complex"):
        schedule = uniform_schedule(config.levels, config.max_margin)
    with _stage("raster"):
        width, mode = _check_width(config.width), _margin_mode(config.mode)
    with _stage("complex"):
        polarity = _check_polarity(config.polarity)

    with _stage("ingest"):
        precincts, p_join = _load_layer(config.precinct_geo, config.precinct_votes,
                                        UnitKind.PRECINCT, maps)
        districts, d_join = _load_layer(config.district_geo, config.district_votes,
                                        UnitKind.DISTRICT, maps)

    with _stage("raster"):
        bounds = precincts.bounds.union(districts.bounds)
        p_field = margin_field(rasterize(precincts, width, bounds), precincts, mode)
        d_field = margin_field(rasterize(districts, width, bounds), districts, mode)

    with _stage("complex"):
        p_barcode = levelset_barcode(p_field, schedule, polarity)
        d_barcode = levelset_barcode(d_field, schedule, polarity)

    with _stage("compare"):
        max_death = schedule.max_margin
        bn, ws, tp = {}, {}, {"precinct": {}, "district": {}}
        for dim in range(3):
            pa, da = p_barcode.diagram(dim), d_barcode.diagram(dim)
            bn[dim] = bottleneck(pa, da)
            ws[dim] = wasserstein(pa, da, p=1)
            tp["precinct"][dim] = total_persistence(pa, p=1, max_death=max_death)
            tp["district"][dim] = total_persistence(da, p=1, max_death=max_death)

    with _stage("compactness"):
        rows = tuple(score_units(districts))

    return YearResult(config.year, p_barcode, d_barcode, bn, ws, tp,
                      p_join, d_join, rows, p_field, d_field, schedule, polarity)


def run_years(configs: Sequence[AnalysisConfig]) -> list[YearResult]:
    """run_year over each config in turn, results in config order.

    Each distinct map file is parsed once per call and shared by the years
    that name it; a later call reads the files again.
    """
    maps: dict = {}
    return [run_year(c, maps) for c in configs]


# === artifact writers ===

def render_barcode_svg(bc: Barcode, dim: int) -> str:
    """Deterministic barcode plot: one line per bar on a threshold axis.

    Infinite bars run to the right margin and end in an arrowhead.
    """
    bars = bc.bars(dim)
    top = bc.thresholds[-1] if bc.thresholds else float(bc.num_levels)
    left, right, row_h, pad = 60.0, 620.0, 16.0, 34.0
    height = pad * 2 + max(len(bars), 1) * row_h

    def x(v: float) -> float:
        return left + (right - left) * (v / top)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="660" height="{height:.0f}" '
        f'viewBox="0 0 660 {height:.0f}">',
        '<defs><marker id="arrow" markerWidth="8" markerHeight="8" refX="6" refY="3" '
        'orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="#444444"/></marker></defs>',
        f'<text x="{left:.1f}" y="20" font-size="13" fill="#444444" '
        f'font-family="monospace">H{dim} bars: {len(bars)}</text>',
        f'<line x1="{left:.1f}" y1="{height - pad:.1f}" x2="{right:.1f}" '
        f'y2="{height - pad:.1f}" stroke="#444444" stroke-width="1"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        vx = x(top * frac)
        lines.append(f'<line x1="{vx:.1f}" y1="{height - pad:.1f}" x2="{vx:.1f}" '
                     f'y2="{height - pad + 5:.1f}" stroke="#444444" stroke-width="1"/>')
        lines.append(f'<text x="{vx:.1f}" y="{height - pad + 18:.1f}" font-size="11" '
                     f'fill="#444444" text-anchor="middle" font-family="monospace">'
                     f'{top * frac:.2f}</text>')
    for i, bar in enumerate(bars):
        y = pad + (i + 0.5) * row_h
        x1 = x(bc._to_value(bar.birth))
        if bar.essential:
            lines.append(f'<line x1="{x1:.2f}" y1="{y:.1f}" x2="{right:.2f}" '
                         f'y2="{y:.1f}" stroke="#1f6fb4" stroke-width="4" '
                         'marker-end="url(#arrow)"/>')
        else:
            x2 = x(bc._to_value(bar.death))
            lines.append(f'<line x1="{x1:.2f}" y1="{y:.1f}" x2="{x2:.2f}" '
                         f'y2="{y:.1f}" stroke="#1f6fb4" stroke-width="4"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def levelset_snapshots(field: MarginField, schedule: LevelSchedule,
                       polarity: str) -> Iterator[bytes]:
    """8-bit PGM of each sweep step, levels 1 to L in turn, made as each is asked for.

    Active pixels are white, waiting ones black and background gray.
    """
    lv = _unit_levels(field, schedule, polarity)[field.labels[::-1]]  # file order: top row first
    background = field.background[::-1]
    header = f"P5\n{lv.shape[1]} {lv.shape[0]}\n255\n".encode("ascii")
    for level in range(1, schedule.num_levels + 1):
        img = np.where(lv <= level, np.uint8(255), np.uint8(0))
        img[background] = 128
        yield header + img.tobytes()


def _result_json(r: YearResult) -> dict:
    def np_free(x):
        return {k: ("inf" if isinstance(v, float) and math.isinf(v) else v)
                for k, v in x.items()}

    return {
        "year": r.year,
        "precinct_barcode": r.precinct_barcode.to_json(),
        "district_barcode": r.district_barcode.to_json(),
        "bottleneck": np_free(r.bottleneck_by_dim),
        "wasserstein": np_free(r.wasserstein_by_dim),
        "total_persistence": {k: np_free(v)
                              for k, v in r.total_persistence_by_dim.items()},
        "joins": {
            "precinct": {"matched": r.precinct_join.matched,
                         "filled_missing": r.precinct_join.filled_missing,
                         "orphan_vote_rows": list(r.precinct_join.orphan_vote_rows)},
            "district": {"matched": r.district_join.matched,
                         "filled_missing": r.district_join.filled_missing,
                         "orphan_vote_rows": list(r.district_join.orphan_vote_rows)},
        },
        "compactness": [{"district_id": c.district_id,
                         "polsby_popper": c.polsby_popper,
                         "reock": c.reock} for c in r.compactness],
    }


def check_year(year: str) -> None:
    """ParameterError for a year that cannot name files: one that holds '/' or NUL."""
    if "/" in year or "\0" in year:
        raise ParameterError(f"year {year!r}: a year names files, so it may not hold '/' or NUL")


def write_outputs(results: Sequence[YearResult], out_dir: str | Path,
                  dim: int = 1, snapshots: bool = True) -> None:
    """Lay the full artifact set down under out_dir (created if missing).

    snapshots=False writes no frames and no snapshots/ directory.
    ParameterError, with nothing written, when results is empty, dim is not
    0, 1 or 2, two results share a year, or a year holds '/' or NUL.
    """
    if not results:
        raise ParameterError("no year results to write")
    if dim not in (0, 1, 2):
        raise ParameterError(f"dim must be 0, 1 or 2, got {dim}")
    years = [r.year for r in results]
    for y in years:
        check_year(y)
        if years.count(y) > 1:
            raise ParameterError(f"year {y!r} labels {years.count(y)} results")
    out = Path(out_dir)
    subs = ("barcodes", "plots", "snapshots") if snapshots else ("barcodes", "plots")
    for sub in subs:
        (out / sub).mkdir(parents=True, exist_ok=True)

    labels: list[str] = []
    diagrams = []
    for r in results:
        for which, bc, fld in (("precinct", r.precinct_barcode, r.precinct_field),
                               ("district", r.district_barcode, r.district_field)):
            name = f"{r.year}_{which}"
            (out / "barcodes" / f"{name}.json").write_text(bc.dumps() + "\n")
            (out / "plots" / f"{name}_h{dim}.svg").write_text(
                render_barcode_svg(bc, dim))
            labels.append(name)
            diagrams.append(bc.diagram(dim))
            if snapshots:
                frames = levelset_snapshots(fld, r.schedule, r.polarity)
                for level, frame in enumerate(frames, start=1):
                    (out / "snapshots" / f"{name}_level_{level:03d}.pgm").write_bytes(frame)

    matrix = distance_matrix(labels, diagrams, bottleneck)
    (out / "distances.csv").write_text(matrix_to_csv(labels, matrix))

    comp_rows = []
    for r in results:
        prefix = f"{r.year}/" if len(results) > 1 else ""
        comp_rows.extend(CompactnessRow(prefix + c.district_id, c.polsby_popper,
                                        c.reock) for c in r.compactness)
    (out / "compactness.csv").write_text(scores_to_csv(comp_rows))

    first, last = results[0], results[-1]
    # the paired test is undefined when the plans seat different numbers of
    # districts or fewer than two, and for a metric whose differences have
    # zero variance (the same plan in both years); such a metric is left out,
    # and the file is absent when no metric is left
    tests = []
    if len(results) >= 2 and len(first.compactness) == len(last.compactness) >= 2:
        for metric in ("polsby_popper", "reock"):
            a = [getattr(c, metric) for c in first.compactness]
            b = [getattr(c, metric) for c in last.compactness]
            try:
                res = paired_t_test(a, b)
            except DegenerateSampleError:
                continue
            tests.append({"metric": metric, "t": res.t_statistic,
                          "df": res.degrees_of_freedom, "p": res.p_value})
    if tests:
        (out / "ttest.json").write_text(json.dumps(tests, sort_keys=True,
                                                   indent=2) + "\n")

    (out / "report.json").write_text(json.dumps(
        [_result_json(r) for r in results], sort_keys=True, indent=2) + "\n")
