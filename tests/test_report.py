"""Year pipeline orchestration, artifact writers, and the packing/cracking signal."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from gerrytda.errors import ParameterError, PipelineError
from gerrytda.raster import write_margin_pgm
from gerrytda.persistence import INF, Barcode, barcode
from gerrytda.complexes import uniform_schedule
from gerrytda.report import (
    AnalysisConfig,
    levelset_snapshots,
    render_barcode_svg,
    run_year,
    run_years,
    write_outputs,
)
from gerrytda.synth import island_scenario, votes_csv_text
from oracles import build_levelset_filtration, field_from_array


def island_config(paths, plan, year="y1", mode="relative", width=40, **kw):
    return AnalysisConfig(
        year=year,
        precinct_geo=paths["precinct_geo"],
        precinct_votes=paths["precinct_votes"],
        district_geo=paths[f"{plan}_geo"],
        district_votes=paths[f"{plan}_votes"],
        width=width,
        mode=mode,
        **kw,
    )


# === run_year on the packing/cracking fixtures ===

def test_run_year_packed_island_survives_district_level(island_files):
    res = run_year(island_config(island_files, "packed"))
    # margin 0.8 dies at level 20 = tau 0.80 on both layers
    assert res.precinct_barcode.diagram(1) == [(0.04, 0.80)]
    assert res.district_barcode.diagram(1) == [(0.04, 0.80)]
    assert res.bottleneck_by_dim[1] == 0.0
    assert res.bottleneck_by_dim[0] == 0.0


def test_run_year_cracked_island_vanishes(island_files):
    res = run_year(island_config(island_files, "cracked"))
    assert res.precinct_barcode.diagram(1) == [(0.04, 0.80)]
    assert res.district_barcode.diagram(1) == []
    # lone precinct bar projects to the diagonal: (0.80 - 0.04) / 2
    assert res.bottleneck_by_dim[1] == pytest.approx(0.38)
    assert res.wasserstein_by_dim[1] == pytest.approx(0.38)


def test_run_year_joins_and_compactness(island_files):
    res = run_year(island_config(island_files, "packed"))
    assert res.precinct_join.matched == 100
    assert res.district_join.matched == 5
    assert sorted(r.district_id for r in res.compactness) == \
        ["EAST", "ISLE", "NORTH", "SOUTH", "WEST"]
    isle = next(r for r in res.compactness if r.district_id == "ISLE")
    assert isle.polsby_popper == pytest.approx(math.pi / 4, abs=1e-12)


def test_run_year_total_persistence(island_files):
    res = run_year(island_config(island_files, "packed"))
    assert res.total_persistence_by_dim["precinct"][1] == pytest.approx(0.76)
    # H0 essential bar capped at max_margin: 1.0 - 0.04
    assert res.total_persistence_by_dim["precinct"][0] == pytest.approx(0.96)


def test_run_year_density_mode_makes_island_essential(island_files):
    # unit-area precincts: density normalization pushes the island to 1.0,
    # which never enters, so the H1 bar runs to infinity
    res = run_year(island_config(island_files, "packed", mode="density"))
    assert res.precinct_barcode.diagram(1) == [(0.04, INF)]


def test_run_year_stage_tagged_errors(island_files, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    cfg = AnalysisConfig("y", island_files["precinct_geo"], str(empty),
                         island_files["packed_geo"],
                         island_files["packed_votes"], width=20)
    with pytest.raises(PipelineError, match="^ingest:"):
        run_year(cfg)
    cfg2 = island_config(island_files, "packed", width=0)
    with pytest.raises(PipelineError, match="^raster:"):
        run_year(cfg2)


def test_run_year_unknown_mode_is_a_raster_error(island_files):
    with pytest.raises(PipelineError, match="^raster: unknown margin mode 'foo'$"):
        run_year(island_config(island_files, "packed", mode="foo"))


def test_run_year_checks_levels_before_reading_input(tmp_path):
    # no input file exists, so only a check made before ingest can name the levels
    missing = str(tmp_path / "missing")
    cfg = AnalysisConfig("y", missing, missing, missing, missing, levels=1)
    with pytest.raises(PipelineError, match="^complex: need at least 2 levels, got 1$"):
        run_year(cfg)


def test_run_year_all_democratic_map_has_empty_barcodes(island_files, tmp_path):
    # every unit's margin is +1.0, at the top threshold, so no pixel ever
    # activates and neither layer has a bar
    scenario = island_files["scenario"]
    paths = {}
    for name in ("precinct", "packed"):
        paths[name] = tmp_path / f"{name}_dem.csv"
        paths[name].write_text(votes_csv_text(
            [(uid, dem + rep, 0) for uid, dem, rep in scenario[f"{name}_votes"]]))
    cfg = AnalysisConfig("y", island_files["precinct_geo"], str(paths["precinct"]),
                         island_files["packed_geo"], str(paths["packed"]),
                         width=20, mode="relative")
    res = run_year(cfg)
    empty = Barcode((), 25, res.schedule.thresholds)
    assert res.precinct_barcode == res.district_barcode == empty
    assert res.bottleneck_by_dim == {0: 0.0, 1: 0.0, 2: 0.0}


def test_run_year_missing_file_is_ingest_error(island_files):
    cfg = AnalysisConfig("y", "/nonexistent/geo.json",
                         island_files["precinct_votes"],
                         island_files["packed_geo"],
                         island_files["packed_votes"])
    with pytest.raises(PipelineError, match="^ingest:"):
        run_year(cfg)


def test_run_years_parses_each_map_once(island_files, monkeypatch):
    # four years over one precinct map and two district plans
    import gerrytda.report as report
    calls = []
    parse = report.parse_geojson

    def counting_parse(text, **kwargs):
        calls.append(kwargs["kind"])
        return parse(text, **kwargs)

    configs = [island_config(island_files, plan, year=f"y{i}")
               for i, plan in enumerate(("packed", "packed", "cracked", "cracked"))]
    monkeypatch.setattr(report, "parse_geojson", counting_parse)
    shared = run_years(configs)
    assert len(calls) == 3
    # shared maps give the same results as parsing each year afresh
    for r, cfg in zip(shared, configs):
        alone = run_year(cfg)
        assert r.precinct_barcode.dumps() == alone.precinct_barcode.dumps()
        assert r.district_barcode.dumps() == alone.district_barcode.dumps()
        assert r.compactness == alone.compactness
    assert len(calls) == 3 + 2 * len(configs)


def test_run_years_labels_each_map_once(island_files, monkeypatch):
    # one precinct map and two district plans: three label rasters for four years
    from gerrytda import raster
    calls = []
    label = raster._label
    monkeypatch.setattr(raster, "_label", lambda *args: calls.append(args[0].ids) or label(*args))
    configs = [island_config(island_files, plan, year=f"y{i}")
               for i, plan in enumerate(("packed", "packed", "cracked", "cracked"))]
    run_years(configs)
    assert len(calls) == 3 and len(set(calls)) == 3


# === SVG rendering ===

def test_svg_empty_barcode_axes_only(island_files):
    res = run_year(island_config(island_files, "cracked"))
    svg = render_barcode_svg(res.district_barcode, 1)
    assert svg.startswith("<svg")
    assert "H1 bars: 0" in svg
    assert "#1f6fb4" not in svg


def test_svg_finite_bar_position(island_files):
    res = run_year(island_config(island_files, "packed"))
    svg = render_barcode_svg(res.precinct_barcode, 1)
    # axis spans x=60..620 for tau 0..1: bar [0.04, 0.80) -> x 82.4..508
    assert 'x1="82.40"' in svg
    assert 'x2="508.00"' in svg
    assert "marker-end" not in svg


def test_svg_infinite_bar_gets_arrow():
    # middle pixel saturates past the last threshold, so the two flanking
    # components never meet: two essential bars, each drawn with an arrow
    field = field_from_array(np.array([[-0.5, 0.9, -0.5]]))
    bc = barcode(build_levelset_filtration(field, uniform_schedule(4, 0.8)))
    svg = render_barcode_svg(bc, 0)
    assert svg.count("marker-end") == 2
    assert 'x2="620.00"' in svg


# === level-set snapshots ===

def snapshot_pixels(data):
    header, rest = data.split(b"\n", 1)
    dims, rest = rest.split(b"\n", 1)
    maxval, raw = rest.split(b"\n", 1)
    w, h = map(int, dims.split())
    img = np.frombuffer(raw[:w * h], dtype=np.uint8).reshape(h, w)
    return img[::-1]  # back to row 0 = bottom


def test_snapshot_levels_flip_island():
    v = np.full((5, 5), -0.8)
    v[2, 2] = 0.5
    frames = list(levelset_snapshots(field_from_array(v), uniform_schedule(25), "democratic"))
    assert len(frames) == 25
    at12, at13 = snapshot_pixels(frames[11]), snapshot_pixels(frames[12])
    assert at12[2, 2] == 0 and at13[2, 2] == 255
    assert at12.sum() == 24 * 255


def test_snapshot_background_gray():
    bg = np.zeros((3, 3), bool)
    bg[0, 0] = True
    field = field_from_array(np.full((3, 3), -0.1), background=bg)
    img = snapshot_pixels(next(levelset_snapshots(field, uniform_schedule(5), "democratic")))
    assert img[0, 0] == 128
    assert (img != 128).sum() == 8


def test_snapshot_barcode_consistency(island_files):
    # every H1 bar's hole is a black island in the birth snapshot and
    # filled white by the death snapshot
    res = run_year(island_config(island_files, "packed"))
    sched = res.schedule
    frames = list(levelset_snapshots(res.precinct_field, sched, "democratic"))
    for bar in res.precinct_barcode.bars(1):
        birth_img = snapshot_pixels(frames[int(bar.birth) - 1])
        death_level = sched.num_levels if math.isinf(bar.death) else int(bar.death)
        death_img = snapshot_pixels(frames[death_level - 1])
        holes, count = ndimage.label(birth_img == 0)
        assert count >= 1
        interior = np.ones_like(birth_img, bool)
        interior[0, :] = interior[-1, :] = interior[:, 0] = interior[:, -1] = False
        enclosed = [k for k in range(1, count + 1)
                    if interior[holes == k].all()]
        assert len(enclosed) == 1
        if not math.isinf(bar.death):
            assert (death_img[holes == enclosed[0]] == 255).all()


# === output tree ===

def test_write_outputs_layout_and_determinism(island_files, tmp_path):
    configs = [island_config(island_files, "packed", year="y22"),
               island_config(island_files, "cracked", year="y24", levels=25)]

    trees = []
    for run_dir in ("one", "two"):
        out = tmp_path / run_dir
        write_outputs(run_years(configs), out, dim=1)
        tree = {str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}
        trees.append(tree)
    assert list(trees[0]) == list(trees[1])
    for name in trees[0]:
        assert trees[0][name] == trees[1][name], name

    names = set(trees[0])
    assert "report.json" in names
    assert "distances.csv" in names
    assert "compactness.csv" in names
    assert "barcodes/y22_precinct.json" in names
    assert "barcodes/y24_district.json" in names
    assert "plots/y22_district_h1.svg" in names
    assert "snapshots/y22_precinct_level_001.pgm" in names
    assert "snapshots/y24_district_level_025.pgm" in names

    report = json.loads(trees[0]["report.json"])
    assert [r["year"] for r in report] == ["y22", "y24"]
    assert report[0]["bottleneck"]["1"] == 0.0
    assert report[1]["bottleneck"]["1"] == pytest.approx(0.38)

    distances = trees[0]["distances.csv"].decode().strip().split("\n")
    assert distances[0] == ",y22_precinct,y22_district,y24_precinct,y24_district"

    comp = trees[0]["compactness.csv"].decode().strip().split("\n")
    assert comp[0] == "district_id,polsby_popper,reock"
    assert comp[1].startswith("y22/")
    assert len(comp) == 1 + 5 + 4

    # 5 packed vs 4 cracked districts: the paired test is undefined
    assert "ttest.json" not in names


def test_write_outputs_snapshots_match_levelset_snapshots(island_files, tmp_path):
    # each run's frames follow its own sweep; the two sweeps differ at level 1
    for polarity in ("democratic", "republican"):
        res = run_year(island_config(island_files, "packed", levels=6, polarity=polarity))
        write_outputs([res], tmp_path / polarity)
        for which, fld in (("precinct", res.precinct_field), ("district", res.district_field)):
            frames = list(levelset_snapshots(fld, res.schedule, polarity))
            assert len(frames) == 6
            for level, frame in enumerate(frames, start=1):
                path = tmp_path / polarity / "snapshots" / f"y1_{which}_level_{level:03d}.pgm"
                assert path.read_bytes() == frame
        other = "republican" if polarity == "democratic" else "democratic"
        assert (tmp_path / polarity / "snapshots" / "y1_precinct_level_001.pgm").read_bytes() \
            != next(levelset_snapshots(res.precinct_field, res.schedule, other))


def test_write_outputs_of_no_year_is_an_error_that_writes_nothing(tmp_path):
    with pytest.raises(ParameterError, match="^no year results to write$"):
        write_outputs(run_years([]), tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("years, dim, message", [
    (["y1"], 3, "^dim must be 0, 1 or 2, got 3$"),
    (["y1"], -1, "^dim must be 0, 1 or 2, got -1$"),
    (["2012", "2012"], 1, "^year '2012' labels 2 results$"),
    (["2012/a"], 1, "^year '2012/a': a year names files, so it may not hold '/' or NUL$"),
    (["20\x0012"], 1, r"^year '20\\x0012': a year names files"),
])
def test_write_outputs_checks_before_writing(island_files, tmp_path, years, dim, message):
    # unchecked, dim 3 writes empty plots, a repeated year writes its barcode
    # files over the first's, and '/' fails in a write after the directories
    # were made
    res = run_year(island_config(island_files, "packed"))
    results = [dataclasses.replace(res, year=y) for y in years]
    with pytest.raises(ParameterError, match=message):
        write_outputs(results, tmp_path / "out", dim=dim)
    assert not (tmp_path / "out").exists()


def test_write_outputs_single_year_plain_ids(island_files, tmp_path):
    res = run_year(island_config(island_files, "packed"))
    write_outputs([res], tmp_path / "out", dim=1, snapshots=False)
    comp = (tmp_path / "out" / "compactness.csv").read_text().strip().split("\n")
    assert comp[1].startswith("ISLE,") or comp[1].startswith("WEST,")
    assert not (tmp_path / "out" / "ttest.json").exists()
    assert not (tmp_path / "out" / "snapshots").exists()


def test_write_outputs_same_plan_omits_ttest(island_files, tmp_path):
    # identical plans give zero-variance differences: the paired test is
    # undefined for both metrics, so ttest.json is absent but the rest is written
    years = run_years([island_config(island_files, "packed", year="a"),
                       island_config(island_files, "packed", year="b")])
    write_outputs(years, tmp_path / "out", snapshots=False)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [r["year"] for r in report] == ["a", "b"]
    assert not (tmp_path / "out" / "ttest.json").exists()


def test_write_outputs_one_district_plans_omit_ttest(island_files, tmp_path):
    # one district a year leaves a single pair: the paired test is undefined
    votes = island_files["scenario"]["precinct_votes"]
    geo, csv = tmp_path / "state.geojson", tmp_path / "state.csv"
    geo.write_text(json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {"id": "STATE"},
         "geometry": {"type": "Polygon", "coordinates": [[
             [0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0], [0.0, 0.0]]]}}]}))
    csv.write_text(votes_csv_text([("STATE", sum(v[1] for v in votes),
                                    sum(v[2] for v in votes))]))
    configs = [AnalysisConfig(year, island_files["precinct_geo"],
                              island_files["precinct_votes"], str(geo), str(csv),
                              width=40, mode="relative") for year in ("a", "b")]
    write_outputs(run_years(configs), tmp_path / "out", snapshots=False)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [len(r["compactness"]) for r in report] == [1, 1]
    assert not (tmp_path / "out" / "ttest.json").exists()


def test_write_outputs_ttest_between_years(island_files, tmp_path):
    # second year uses a 5-district band plan so the paired test has equal n
    scenario = island_files["scenario"]
    bands = []
    sums = {}
    for uid, dem, rep in scenario["precinct_votes"]:
        c = int(uid[3:5])
        band = c // 2
        d, r = sums.get(band, (0, 0))
        sums[band] = (d + dem, r + rep)
    feats = []
    for b in range(5):
        x0 = 2.0 * b
        feats.append({"type": "Feature", "properties": {"id": f"B{b}"},
                      "geometry": {"type": "Polygon", "coordinates": [[
                          [x0, 0.0], [x0 + 2, 0.0], [x0 + 2, 10.0],
                          [x0, 10.0], [x0, 0.0]]]}})
        bands.append((f"B{b}",) + sums[b])
    (tmp_path / "bands.geojson").write_text(
        json.dumps({"type": "FeatureCollection", "features": feats}))
    (tmp_path / "bands.csv").write_text(votes_csv_text(bands))

    cfg_a = island_config(island_files, "packed", year="a")
    cfg_b = AnalysisConfig("b", island_files["precinct_geo"],
                           island_files["precinct_votes"],
                           str(tmp_path / "bands.geojson"),
                           str(tmp_path / "bands.csv"),
                           width=40, mode="relative")
    write_outputs(run_years([cfg_a, cfg_b]), tmp_path / "out", snapshots=False)
    tests = json.loads((tmp_path / "out" / "ttest.json").read_text())
    assert [t["metric"] for t in tests] == ["polsby_popper", "reock"]
    for t in tests:
        assert t["df"] == 4
        assert 0.0 <= t["p"] <= 1.0


# === recorded bytes ===

GATE8_SHA256 = Path(__file__).with_name("gate8_sha256.json")


def gate8_digests(paths, out: Path) -> dict[str, str]:
    """sha256 of gate 8's barcode JSON and snapshot frames at width 1024 in
    both margin modes, and of the relative-mode precinct field's PGM and
    sidecar, by path under out."""
    for mode in ("density", "relative"):
        res = run_year(AnalysisConfig("scale", **paths, width=1024, mode=mode))
        write_outputs([res], out / mode)
        if mode == "relative":
            write_margin_pgm(res.precinct_field, out / "relative" / "precinct.pgm")
    files = sorted(out.glob("*/barcodes/*.json")) + sorted(out.glob("*/snapshots/*.pgm")) \
        + sorted(out.glob("relative/precinct.*"))
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files}


def test_gate8_artifacts_hash_as_recorded(gate8_files, tmp_path):
    # gate 8 only checks that two runs agree; this holds them to recorded bytes
    want = json.loads(GATE8_SHA256.read_text())
    got = gate8_digests(gate8_files, tmp_path)
    assert len(want) == 2 * (2 + 2 * 25) + 2
    assert got == want
