"""The eight acceptance gates, one test per criterion.

A verbose pytest run prints exactly one pass/fail line for each gate. The
oracles live in oracles.py and share no code with the library paths they
check; tolerance and trial counts are stated inline.
"""

import json
import math
import time

import numpy as np
import pytest

from gerrytda.compactness import (
    min_enclosing_circle,
    paired_t_test,
    score_units,
    t_p_value,
)
from gerrytda.compare import bottleneck, wasserstein
from gerrytda.complexes import flag_filtration, uniform_schedule
from gerrytda.geometry import UnitKind
from gerrytda.ingest import join_units, parse_geojson, parse_votes_csv
from gerrytda.persistence import INF, barcode
from gerrytda.raster import MarginMode, margin_field, rasterize
from gerrytda.report import AnalysisConfig, run_year, write_outputs
from gerrytda.synth import island_scenario, votes_csv_text
from oracles import (
    betti_oracle,
    brute_bottleneck,
    brute_min_enclosing_circle,
    brute_wasserstein,
    build_levelset_filtration,
    feature,
    field_from_array,
    from_cells,
    paired_t_pvalue_quadrature,
    torus_complex,
    unit_map,
)


def alive_equals_rank_oracle(cx):
    bc = barcode(cx)
    for lv in range(1, cx.num_levels + 1):
        betti = betti_oracle(cx, lv)
        for dim in range(3):
            assert bc.alive(lv, dim) == betti[dim], (lv, dim)


def test_criterion_1_barcode_matches_rank_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(1)
    for _ in range(200):
        h, w = int(rng.integers(2, 13)), int(rng.integers(2, 13))
        values = rng.uniform(-1, 1, (h, w))
        background = rng.random((h, w)) < 0.1
        if background.all():
            background[0, 0] = False
        cx = build_levelset_filtration(
            field_from_array(values, background=background),
            uniform_schedule(int(rng.integers(2, 11))))
        alive_equals_rank_oracle(cx)
    for _ in range(100):
        n = int(rng.integers(3, 21))
        levels = rng.integers(1, 6, n)
        levels[rng.random(n) < 0.2] = -1
        if (levels < 1).all():
            levels[0] = 1
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.25]
        alive_equals_rank_oracle(flag_filtration(levels.tolist(), edges,
                                                 num_levels=5))
    assert time.monotonic() - started < 60.0


def random_diagram(rng):
    pts = []
    for _ in range(int(rng.integers(0, 7))):
        birth = float(rng.uniform(0, 1))
        death = INF if rng.random() < 0.1 else birth + float(rng.uniform(0, 1))
        pts.append((birth, death))
    return pts


def matches(got, want, tol=1e-12):
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= tol


def test_criterion_2_distances_match_enumeration_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(2)
    for _ in range(500):
        a, b = random_diagram(rng), random_diagram(rng)
        assert matches(bottleneck(a, b), brute_bottleneck(a, b))
        for p in (1.0, 2.0):
            assert matches(wasserstein(a, b, p=p), brute_wasserstein(a, b, p=p))
    assert time.monotonic() - started < 30.0


def island_precinct_field(margin):
    scenario = island_scenario(island_margin=margin)
    geo = parse_geojson(json.dumps(scenario["precinct_geojson"]),
                        kind=UnitKind.PRECINCT)
    votes = parse_votes_csv(votes_csv_text(scenario["precinct_votes"]))
    units, _ = join_units(geo, votes)
    return margin_field(rasterize(units, 40), units, MarginMode.RELATIVE)


def test_criterion_3_island_death_level():
    for margin in (0.1, 0.3, 0.5, 0.9):
        bc = barcode(build_levelset_filtration(island_precinct_field(margin),
                                               uniform_schedule(25)))
        bars = bc.bars(1)
        assert len(bars) == 1
        assert bars[0].death == math.ceil(margin / 0.04)


def test_criterion_4_cracked_vs_packed_signal(island_files):
    def config(plan, year):
        return AnalysisConfig(
            year=year,
            precinct_geo=island_files["precinct_geo"],
            precinct_votes=island_files["precinct_votes"],
            district_geo=island_files[f"{plan}_geo"],
            district_votes=island_files[f"{plan}_votes"],
            width=40, mode="relative")

    packed = run_year(config("packed", "a"))
    cracked = run_year(config("cracked", "b"))

    birth, death = packed.precinct_barcode.diagram(1)[0]
    island_half_length = (death - birth) / 2
    level_width = packed.schedule.thresholds[0]
    gap = cracked.bottleneck_by_dim[1] - packed.bottleneck_by_dim[1]
    assert gap >= island_half_length - 2 * level_width

    # same precinct votes in both "years": the precinct layer moves not at all
    assert bottleneck(packed.precinct_barcode.diagram(1),
                      cracked.precinct_barcode.diagram(1)) == 0.0


def betti_at_top(cx):
    bc = barcode(cx)
    return tuple(bc.alive(cx.num_levels, dim) for dim in range(3))


def test_criterion_5_topology_fixtures():
    hollow_tetrahedron = from_cells([
        (0, 1, ()), (0, 1, ()), (0, 1, ()), (0, 1, ()),
        (1, 1, (0, 1)), (1, 1, (0, 2)), (1, 1, (0, 3)),
        (1, 1, (1, 2)), (1, 1, (1, 3)), (1, 1, (2, 3)),
        (2, 1, (4, 5, 7)), (2, 1, (4, 6, 8)),
        (2, 1, (5, 6, 9)), (2, 1, (7, 8, 9)),
    ], num_levels=1)
    assert betti_at_top(hollow_tetrahedron) == (1, 0, 1)

    triangle_boundary = from_cells([
        (0, 1, ()), (0, 1, ()), (0, 1, ()),
        (1, 1, (0, 1)), (1, 1, (1, 2)), (1, 1, (0, 2)),
    ], num_levels=1)
    assert betti_at_top(triangle_boundary) == (1, 1, 0)

    assert betti_at_top(torus_complex(4, 4)) == (1, 2, 1)


def regular_ngon(n, radius=1.0):
    ang = 2 * math.pi * np.arange(n) / n
    return np.c_[radius * np.cos(ang), radius * np.sin(ang)]


def test_criterion_6_compactness_analytics():
    square, round_ish = score_units(unit_map([
        feature("square", [[(0, 0), (1, 0), (1, 1), (0, 1)]]),
        feature("round", [regular_ngon(360)])]))
    assert square.polsby_popper == pytest.approx(math.pi / 4, abs=1e-12)
    assert square.reock == pytest.approx(2 / math.pi, abs=1e-12)

    assert round_ish.polsby_popper == pytest.approx(1.0, abs=1e-3)
    assert round_ish.reock == pytest.approx(1.0, abs=1e-3)

    rng = np.random.default_rng(6)
    for _ in range(100):
        pts = [tuple(p) for p in rng.uniform(-5, 5, (int(rng.integers(1, 30)), 2))]
        _, radius = min_enclosing_circle(pts)
        _, _, want = brute_min_enclosing_circle(pts)
        assert radius == pytest.approx(want, abs=1e-9)


def test_criterion_7_t_test():
    for t in (0.5, 1.0, 2.0, 3.0):
        for df in (1, 4, 10, 30):
            assert t_p_value(t, df) == pytest.approx(
                paired_t_pvalue_quadrature(t, df), abs=1e-8)
    res = paired_t_test([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
    assert res.p_value == pytest.approx(0.01324, abs=1e-4)


def test_criterion_8_scale_run(gate8_files, tmp_path):
    config = AnalysisConfig(year="scale", **gate8_files, width=1024, mode="density",
                            levels=25)

    started = time.monotonic()
    result = run_year(config)
    write_outputs([result], tmp_path / "a")
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"

    assert len(result.precinct_join.orphan_vote_rows) == 0
    assert result.precinct_join.matched == 2716

    write_outputs([run_year(config)], tmp_path / "b")
    a_files = sorted(p.relative_to(tmp_path / "a")
                     for p in (tmp_path / "a").rglob("*") if p.is_file())
    b_files = sorted(p.relative_to(tmp_path / "b")
                     for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert a_files == b_files
    for rel in a_files:
        assert (tmp_path / "a" / rel).read_bytes() == \
            (tmp_path / "b" / rel).read_bytes(), rel
