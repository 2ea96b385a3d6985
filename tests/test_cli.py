"""End-to-end subcommand coverage through main(), no subprocesses."""

import json
import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from gerrytda import cli
from gerrytda.cli import main
from gerrytda.compactness import paired_t_test, score_units
from gerrytda.ingest import parse_geojson
from gerrytda.report import AnalysisConfig
from gerrytda.synth import band_districts, votes_csv_text


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rect_plan(path, sizes):
    """Write a district plan of side-by-side rectangles, one per (w, h)."""
    feats = []
    x = 0.0
    for i, (w, h) in enumerate(sizes):
        ring = [[x, 0.0], [x + w, 0.0], [x + w, h], [x, h], [x, 0.0]]
        feats.append({"type": "Feature", "properties": {"id": f"R{i}"},
                      "geometry": {"type": "Polygon", "coordinates": [ring]}})
        x += w + 1.0
    path.write_text(json.dumps({"type": "FeatureCollection", "features": feats}))
    return str(path)


# === ingest ===

def test_ingest_prints_join_summary(island_files, capsys):
    code, out, _ = run_cli(capsys, "ingest", "--geo", island_files["precinct_geo"],
                           "--votes", island_files["precinct_votes"])
    assert code == 0
    summary = json.loads(out)
    assert summary == {"matched": 100, "filled_missing": 0,
                       "orphan_vote_rows": [], "units": 100}


def test_ingest_out_roundtrips(island_files, capsys, tmp_path):
    dest = tmp_path / "joined.geojson"
    code, _, _ = run_cli(capsys, "ingest", "--geo", island_files["precinct_geo"],
                         "--votes", island_files["precinct_votes"],
                         "--out", str(dest))
    assert code == 0
    units = parse_geojson(dest.read_text())
    assert len(units) == 100


# === rasterize ===

def test_rasterize_writes_pgm_and_sidecar(island_files, capsys, tmp_path):
    dest = tmp_path / "margin.pgm"
    code, _, _ = run_cli(capsys, "rasterize", "--geo", island_files["precinct_geo"],
                         "--votes", island_files["precinct_votes"],
                         "--width", "40", "--mode", "relative", "--out", str(dest))
    assert code == 0
    assert dest.read_bytes().startswith(b"P5\n40 40\n65535\n")
    sidecar = json.loads((tmp_path / "margin.json").read_text())
    assert sidecar["width"] == 40
    assert sidecar["mode"] == "relative"


# === barcode ===

def barcode_file(capsys, path, geo, votes, *extra):
    code, _, _ = run_cli(capsys, "barcode", "--geo", geo, "--votes", votes,
                         "--width", "40", "--mode", "relative",
                         "--out", str(path), *extra)
    assert code == 0
    return str(path)


def test_barcode_island_h1(island_files, capsys, tmp_path):
    barcode_file(capsys, tmp_path / "p.json", island_files["precinct_geo"],
                 island_files["precinct_votes"])
    doc = json.loads((tmp_path / "p.json").read_text())
    assert doc["num_levels"] == 25
    h1 = [p for p in doc["pairs"] if p["dim"] == 1]
    assert len(h1) == 1
    assert h1[0]["birth"] == pytest.approx(0.04)
    assert h1[0]["death"] == pytest.approx(0.80)


def test_barcode_saturated_margin_goes_essential(island_files, capsys, tmp_path):
    # top threshold 0.5 < island margin 0.8: the island never enters and
    # the surrounding loop never fills
    barcode_file(capsys, tmp_path / "p.json", island_files["precinct_geo"],
                 island_files["precinct_votes"], "--max-margin", "0.5")
    doc = json.loads((tmp_path / "p.json").read_text())
    h1 = [p for p in doc["pairs"] if p["dim"] == 1]
    assert [p["death"] for p in h1] == ["inf"]


# === compare ===

def test_compare_reports_three_distances(island_files, capsys, tmp_path):
    a = barcode_file(capsys, tmp_path / "precinct.json",
                     island_files["precinct_geo"], island_files["precinct_votes"])
    b = barcode_file(capsys, tmp_path / "cracked.json",
                     island_files["cracked_geo"], island_files["cracked_votes"])
    code, out, _ = run_cli(capsys, "compare", a, b)
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 1
    assert doc["bottleneck"] == pytest.approx(0.38)
    assert doc["wasserstein_1"] == pytest.approx(0.38)
    assert doc["wasserstein_2"] == pytest.approx(0.38)


@pytest.mark.parametrize("command", ["compare", "matrix"])
def test_dim_outside_0_to_2_is_an_error(island_files, capsys, tmp_path, command):
    a = barcode_file(capsys, tmp_path / "a.json",
                     island_files["precinct_geo"], island_files["precinct_votes"])
    code, out, err = run_cli(capsys, command, a, a, "--dim", "7")
    assert code == 2
    assert out == ""
    assert err == "error: --dim must be 0, 1 or 2, got 7\n"


def test_compare_dim_zero_identical(island_files, capsys, tmp_path):
    a = barcode_file(capsys, tmp_path / "a.json",
                     island_files["precinct_geo"], island_files["precinct_votes"])
    code, out, _ = run_cli(capsys, "compare", a, a, "--dim", "0")
    assert code == 0
    assert json.loads(out)["bottleneck"] == 0.0


# === compactness / ttest ===

def test_compactness_csv(island_files, capsys):
    code, out, _ = run_cli(capsys, "compactness",
                           "--geo", island_files["packed_geo"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "district_id,polsby_popper,reock"
    assert len(lines) == 6
    assert lines[1].split(",")[0] == "ISLE"


def test_ttest_between_plans(island_files, capsys, tmp_path):
    other = rect_plan(tmp_path / "plan.geojson",
                      [(1, 1), (1, 2), (1, 3), (2, 5), (3, 1)])
    run_cli(capsys, "compactness", "--geo", island_files["packed_geo"],
            "--out", str(tmp_path / "a.csv"))
    run_cli(capsys, "compactness", "--geo", other,
            "--out", str(tmp_path / "b.csv"))
    code, out, _ = run_cli(capsys, "ttest", str(tmp_path / "a.csv"),
                           str(tmp_path / "b.csv"), "--metric", "reock")
    assert code == 0
    doc = json.loads(out)
    assert doc["metric"] == "reock"
    assert doc["df"] == 4
    assert 0.0 <= doc["p"] <= 1.0


def test_ttest_reads_ids_that_hold_commas_quotes_or_newlines(capsys, tmp_path):
    # unquoted, the comma in "Wake, 0" shifted the columns, and ttest read
    # 0, 1 and 2 as the scores; "a\rb" ended its row at the carriage return
    rect_plan(tmp_path / "b.geojson", [(1, 1), (1, 2), (1, 3), (2, 1)])
    plans = {"a": band_districts(10, 10, 4),
             "b": json.loads((tmp_path / "b.geojson").read_text())}
    scores = {}
    for name, plan in plans.items():
        for f, uid in zip(plan["features"], ["Wake, 0", 'say "hi"', "two\nlines", "a\rb"]):
            f["properties"]["id"] = uid
        geo = tmp_path / f"{name}.geojson"
        geo.write_text(json.dumps(plan))
        scores[name] = [r.polsby_popper for r in score_units(parse_geojson(geo.read_text()))]
        assert run_cli(capsys, "compactness", "--geo", str(geo),
                       "--out", str(tmp_path / f"{name}.csv"))[0] == 0
    code, out, _ = run_cli(capsys, "ttest", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"))
    assert code == 0
    assert json.loads(out)["t"] == paired_t_test(scores["a"], scores["b"]).t_statistic


def test_ttest_length_mismatch_fails(island_files, capsys, tmp_path):
    run_cli(capsys, "compactness", "--geo", island_files["packed_geo"],
            "--out", str(tmp_path / "a.csv"))
    run_cli(capsys, "compactness", "--geo", island_files["cracked_geo"],
            "--out", str(tmp_path / "b.csv"))
    code, _, err = run_cli(capsys, "ttest", str(tmp_path / "a.csv"),
                           str(tmp_path / "b.csv"))
    assert code == 2
    assert err.startswith("error:")


# === run ===

def test_run_writes_tree_and_headline(island_files, capsys, tmp_path):
    out_dir = tmp_path / "res"
    code, out, _ = run_cli(
        capsys, "run", "--geo", island_files["precinct_geo"],
        "--votes", island_files["precinct_votes"],
        "--district-geo", island_files["packed_geo"],
        "--district-votes", island_files["packed_votes"],
        "--width", "40", "--mode", "relative", "--year", "y22",
        "--out", str(out_dir))
    assert code == 0
    assert out == "y22: H1 precinct/district bottleneck = 0\n"
    assert (out_dir / "report.json").exists()
    assert (out_dir / "barcodes" / "y22_precinct.json").exists()
    assert (out_dir / "plots" / "y22_district_h1.svg").exists()
    assert (out_dir / "snapshots" / "y22_precinct_level_001.pgm").exists()
    assert (out_dir / "compactness.csv").exists()
    assert (out_dir / "distances.csv").exists()


def test_run_with_a_plan_no_pixel_of_which_enters_the_sweep(island_files, capsys, tmp_path):
    # in density mode a one-district plan's only value normalizes to 1.0, the
    # top threshold, so no district pixel enters the Democratic sweep
    geo, votes = tmp_path / "state.geojson", tmp_path / "state.csv"
    geo.write_text(json.dumps(band_districts(10, 10, 1)))
    votes.write_text(votes_csv_text([("D01", 6000, 4000)]))
    out_dir = tmp_path / "res"
    code, out, err = run_cli(
        capsys, "run", "--geo", island_files["precinct_geo"],
        "--votes", island_files["precinct_votes"],
        "--district-geo", str(geo), "--district-votes", str(votes),
        "--width", "40", "--mode", "density", "--year", "y", "--out", str(out_dir))
    assert (code, err) == (0, "")
    assert out.startswith("y: H1 precinct/district bottleneck = ")
    district = json.loads((out_dir / "barcodes" / "y_district.json").read_text())
    assert district == {"num_levels": 25, "pairs": []}
    assert len(list((out_dir / "snapshots").glob("y_district_level_*.pgm"))) == 25


def test_run_no_snapshots(island_files, capsys, tmp_path):
    out_dir = tmp_path / "res"
    code, _, _ = run_cli(
        capsys, "run", "--geo", island_files["precinct_geo"],
        "--votes", island_files["precinct_votes"],
        "--district-geo", island_files["cracked_geo"],
        "--district-votes", island_files["cracked_votes"],
        "--width", "40", "--mode", "relative", "--no-snapshots",
        "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "report.json").is_file()
    assert not (out_dir / "snapshots").exists()


@pytest.mark.parametrize("value, frames", [("1", 0), ("0", 2 * 25)])
def test_config_no_snapshots(island_files, capsys, tmp_path, value, frames):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"no_snapshots = {value}\n")
    out_dir = tmp_path / "res"
    code, _, _ = run_cli(
        capsys, "run", "--config", str(cfg), "--geo", island_files["precinct_geo"],
        "--votes", island_files["precinct_votes"],
        "--district-geo", island_files["cracked_geo"],
        "--district-votes", island_files["cracked_votes"],
        "--width", "40", "--mode", "relative", "--out", str(out_dir))
    assert code == 0
    assert len(list((out_dir / "snapshots").glob("*.pgm"))) == frames


def test_config_no_snapshots_bad_value_is_an_error(island_files, capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no-snapshots = yes\n")
    code, out, err = run_cli(
        capsys, "run", "--config", str(cfg), "--geo", island_files["precinct_geo"],
        "--votes", island_files["precinct_votes"],
        "--district-geo", island_files["cracked_geo"],
        "--district-votes", island_files["cracked_votes"],
        "--width", "40", "--mode", "relative", "--out", str(tmp_path / "res"))
    assert code == 2
    assert out == ""
    assert err == "error: config key no_snapshots: 'yes' is not a valid flag\n"


@pytest.mark.parametrize("dim", ["3", "-1"])
def test_run_rejects_dim_outside_0_to_2(island_files, capsys, tmp_path, dim):
    out_dir = tmp_path / "res"
    code, out, err = run_cli(
        capsys, "run", "--geo", island_files["precinct_geo"],
        "--votes", island_files["precinct_votes"],
        "--district-geo", island_files["packed_geo"],
        "--district-votes", island_files["packed_votes"],
        "--width", "40", "--dim", dim, "--out", str(out_dir))
    assert code == 2
    assert out == ""
    assert err == f"error: --dim must be 0, 1 or 2, got {dim}\n"
    assert not out_dir.exists()


def test_run_unset_options_take_the_pipeline_defaults(island_files, capsys, tmp_path,
                                                     monkeypatch):
    configs = []
    real = cli.run_year
    monkeypatch.setattr(cli, "run_year", lambda config: configs.append(config) or real(config))
    code, out, _ = run_cli(
        capsys, "run", "--geo", island_files["precinct_geo"],
        "--votes", island_files["precinct_votes"],
        "--district-geo", island_files["packed_geo"],
        "--district-votes", island_files["packed_votes"], "--out", str(tmp_path / "res"))
    assert code == 0
    assert out.startswith("year: H1 precinct/district bottleneck = ")
    defaults = {f.name: f.default for f in fields(AnalysisConfig) if f.default is not MISSING}
    assert set(defaults) == {"width", "mode", "levels", "max_margin", "polarity"}
    assert {name: getattr(configs[0], name) for name in defaults} == defaults
    # and barcode's help names the same values, one per option
    with pytest.raises(SystemExit):
        main(["barcode", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    entries = {e.split()[0]: e for e in re.split(r" (?=--[a-z])", text)}
    for name, value in defaults.items():
        assert entries[f"--{name.replace('_', '-')}"].endswith(f"(default {value})")


def test_run_rejects_a_year_that_cannot_name_a_file(island_files, capsys, tmp_path,
                                                    monkeypatch):
    out_dir = tmp_path / "res"
    runs = []
    monkeypatch.setattr(cli, "run_year", lambda *a, **k: runs.append(a))
    code, out, err = run_cli(
        capsys, "run", "--geo", island_files["precinct_geo"],
        "--votes", island_files["precinct_votes"],
        "--district-geo", island_files["packed_geo"],
        "--district-votes", island_files["packed_votes"],
        "--width", "40", "--year", "2012/a", "--out", str(out_dir))
    assert code == 2
    assert out == ""
    assert err == "error: year '2012/a': a year names files, so it may not hold '/' or NUL\n"
    assert not out_dir.exists()
    assert runs == []  # rejected before any pipeline stage


# === matrix ===

def test_matrix_labels_are_file_stems(island_files, capsys, tmp_path):
    a = barcode_file(capsys, tmp_path / "y22.json",
                     island_files["precinct_geo"], island_files["precinct_votes"])
    b = barcode_file(capsys, tmp_path / "y24.json",
                     island_files["cracked_geo"], island_files["cracked_votes"])
    code, out, _ = run_cli(capsys, "matrix", a, b, a)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    assert lines[0] == ",y22,y24,y22"
    first = lines[1].split(",")
    assert float(first[2]) == pytest.approx(0.38)
    assert float(first[3]) == 0.0


# === config files and failure modes ===

def test_config_file_supplies_options(island_files, capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# island inputs\n"
        f"geo = {island_files['precinct_geo']}\n"
        f"votes = {island_files['precinct_votes']}\n"
        "width = 40\n"
        "mode = relative\n"
        "levels = 10\n")
    code, out, _ = run_cli(capsys, "barcode", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["num_levels"] == 10


def test_flags_override_config(island_files, capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"geo = {island_files['precinct_geo']}\n"
                   f"votes = {island_files['precinct_votes']}\n"
                   "width = 40\nmode = relative\nlevels = 10\n")
    code, out, _ = run_cli(capsys, "barcode", "--config", str(cfg),
                           "--levels", "4")
    assert code == 0
    assert json.loads(out)["num_levels"] == 4


def test_config_accepts_dashed_keys(island_files, capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"geo = {island_files['precinct_geo']}\n"
                   f"votes = {island_files['precinct_votes']}\n"
                   "width = 40\nmode = relative\nmax-margin = 0.5\n")
    code, out, _ = run_cli(capsys, "barcode", "--config", str(cfg))
    assert code == 0
    h1 = [p for p in json.loads(out)["pairs"] if p["dim"] == 1]
    assert [p["death"] for p in h1] == ["inf"]


def test_bad_config_line_is_an_error(island_files, capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("width 40\n")
    code, _, err = run_cli(capsys, "barcode", "--config", str(cfg))
    assert code == 2
    assert "config line 1" in err


def test_missing_required_option(capsys):
    code, _, err = run_cli(capsys, "compactness")
    assert code == 2
    assert err == "error: missing required option --geo\n"


@pytest.mark.parametrize("command", ["ingest", "compactness"])
def test_input_that_is_not_utf8_is_an_error(command, island_files, capsys, tmp_path):
    bad = tmp_path / "bad"
    if command == "ingest":
        bad.write_bytes(b"unit_id,dem_votes,rep_votes\nP\xff1,1,2\n")
        args = ["--geo", island_files["precinct_geo"], "--votes", str(bad)]
    else:
        bad.write_bytes(Path(island_files["packed_geo"]).read_bytes().replace(b'"', b"\xff", 1))
        args = ["--geo", str(bad)]
    code, _, err = run_cli(capsys, command, *args)
    assert code == 2
    assert err.startswith("error: ") and "0xff" in err


@pytest.mark.parametrize("command", ["config", "ttest", "compare", "matrix"])
def test_a_file_that_is_not_utf8_is_an_error_naming_it(command, island_files, capsys,
                                                        tmp_path):
    bad = tmp_path / "bad"
    if command == "config":
        bad.write_bytes(b"width=\xff\n")
        args = ["compactness", "--geo", island_files["packed_geo"], "--config", str(bad)]
    elif command == "ttest":
        scores = tmp_path / "scores.csv"
        assert run_cli(capsys, "compactness", "--geo", island_files["packed_geo"],
                       "--out", str(scores))[0] == 0
        lines = scores.read_bytes().split(b"\n")
        bad.write_bytes(b"\n".join([lines[0], b"\xff" + lines[1]] + lines[2:]))
        args = ["ttest", str(scores), str(bad)]
    else:
        bad.write_bytes(b'{"\xff": []}')
        args = [command, str(bad), str(bad)]
    code, _, err = run_cli(capsys, *args)
    assert code == 2
    assert err.startswith(f"error: {bad}: not UTF-8: ") and "0xff" in err


@pytest.mark.parametrize("command", ["config", "ttest", "compare", "matrix"])
def test_a_file_that_starts_with_a_bom_reads_as_without_it(command, island_files, capsys,
                                                           tmp_path):
    # the same name in two directories, since matrix labels rows by file stem
    plain, bom = tmp_path / "a" / "file", tmp_path / "b" / "file"
    plain.parent.mkdir()
    bom.parent.mkdir()
    if command == "config":
        plain.write_text(f"geo = {island_files['precinct_geo']}\n"
                         f"votes = {island_files['precinct_votes']}\n"
                         "width = 40\nmode = relative\nlevels = 10\n")
        args = ["barcode", "--config"]
    elif command == "ttest":
        other = rect_plan(tmp_path / "plan.geojson", [(1, 1), (1, 2), (1, 3), (2, 5), (3, 1)])
        for geo, dest in [(island_files["packed_geo"], plain), (other, tmp_path / "b.csv")]:
            assert run_cli(capsys, "compactness", "--geo", geo, "--out", str(dest))[0] == 0
        args = ["ttest", str(tmp_path / "b.csv")]
    else:
        barcode_file(capsys, plain, island_files["precinct_geo"], island_files["precinct_votes"])
        args = [command, str(plain)]
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    expected = run_cli(capsys, *args, str(plain))
    assert expected[0] == 0
    assert run_cli(capsys, *args, str(bom)) == expected


def test_ingest_non_object_feature_is_an_error(island_files, capsys, tmp_path):
    geo = tmp_path / "bad.geojson"
    geo.write_text(json.dumps({"type": "FeatureCollection", "features": [5]}))
    code, _, err = run_cli(capsys, "ingest", "--geo", str(geo),
                           "--votes", island_files["precinct_votes"])
    assert code == 2
    assert err == "error: feature 0: not a JSON object\n"


def test_ingest_zero_area_hole_far_from_origin_is_an_error(island_files, capsys, tmp_path):
    # the hole's area about its first vertex is exactly 0 (see test_ingest.FAR_SLIVER)
    c = 5e6
    outer = [[c - 100, c - 100], [c + 100, c - 100], [c + 100, c + 100], [c - 100, c + 100]]
    hole = [[5000008.881183207, 5000002.258694285], [5000009.217837148, 5000002.906522723],
            [5000009.55449109, 5000003.554351161]]
    geo = tmp_path / "sliver.geojson"
    geo.write_text(json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {"id": "P1"},
         "geometry": {"type": "Polygon", "coordinates": [outer + outer[:1], hole + hole[:1]]}}]}))
    code, _, err = run_cli(capsys, "ingest", "--geo", str(geo),
                           "--votes", island_files["precinct_votes"])
    assert code == 2
    assert err == "error: feature 0: degenerate ring: zero area\n"


def test_missing_input_file(island_files, capsys):
    code, _, err = run_cli(capsys, "ingest", "--geo", "/nope/none.geojson",
                           "--votes", island_files["precinct_votes"])
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["compare", "matrix"])
def test_barcode_file_not_json_is_an_error(island_files, capsys, tmp_path, command):
    a = barcode_file(capsys, tmp_path / "a.json",
                     island_files["precinct_geo"], island_files["precinct_votes"])
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    code, out, err = run_cli(capsys, command, a, str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}: not JSON: ")


@pytest.mark.parametrize("command", ["compare", "matrix"])
def test_barcode_pair_without_death_is_an_error(capsys, tmp_path, command):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"num_levels": 4, "pairs": [
        {"dim": 1, "birth": 1, "death": 2}, {"dim": 1, "birth": 1}]}))
    code, out, err = run_cli(capsys, command, str(bad), str(bad))
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: pair 1: no key 'death'\n"


@pytest.mark.parametrize("command", ["compare", "matrix"])
def test_barcode_pair_not_a_bar_is_an_error(capsys, tmp_path, command):
    # two essential bars born at inf gave a NaN distance; a birth at -inf, a crash
    for pair, fault in [({"birth": "inf", "death": "inf"}, "birth inf is not finite"),
                        ({"birth": "-inf", "death": 0.5}, "birth -inf is not finite"),
                        ({"birth": 0.5, "death": "nan"}, "death nan is neither finite nor inf"),
                        ({"birth": 0.5, "death": "-inf"}, "death -inf is neither finite nor inf")]:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"num_levels": 4, "pairs": [
            {"dim": 1, "birth": 0.25, "death": 0.5}, {"dim": 1, **pair}]}))
        code, out, err = run_cli(capsys, command, str(bad), str(bad))
        assert code == 2
        assert out == ""  # no NaN distance printed
        assert err == f"error: {bad}: pair 1: {fault}\n"


def test_ttest_score_not_a_number_is_an_error(island_files, capsys, tmp_path):
    good = tmp_path / "a.csv"
    run_cli(capsys, "compactness", "--geo", island_files["packed_geo"], "--out", str(good))
    for cell in ("abc", "nan", "inf", "-inf"):
        lines = good.read_text().strip().split("\n")
        cells = lines[2].split(",")
        lines[2] = ",".join([cells[0], cell, cells[2]])
        bad = tmp_path / "b.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "ttest", str(good), str(bad))
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}: line 3: no number in column 'polsby_popper'\n"


def test_config_value_of_the_wrong_type_is_an_error(island_files, capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"geo = {island_files['precinct_geo']}\n"
                   f"votes = {island_files['precinct_votes']}\n"
                   "width = abc\n")
    code, out, err = run_cli(capsys, "barcode", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == "error: config key width: 'abc' is not a valid int\n"


MODE_FOO = "error: --mode must be relative or density, got 'foo'\n"
POLARITY_FOO = "error: --polarity must be democratic or republican, got 'foo'\n"


@pytest.mark.parametrize("command, line, message", [
    ("barcode", "mode = foo", MODE_FOO), ("run", "mode = foo", MODE_FOO),
    ("barcode", "polarity = foo", POLARITY_FOO), ("run", "polarity = foo", POLARITY_FOO),
    ("ttest", "metric = foo", "error: --metric must be polsby_popper or reock, got 'foo'\n"),
], ids=["barcode", "run", "barcode-polarity", "run-polarity", "ttest-metric"])
def test_config_mode_outside_the_choices_is_an_error(island_files, capsys, tmp_path,
                                                      monkeypatch, command, line, message):
    calls = []
    for name in ("_load_layer", "run_year", "_read_scores_csv"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, real=real, name=name: calls.append(name)
                            or real(*a))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"geo = {island_files['precinct_geo']}\n"
                   f"votes = {island_files['precinct_votes']}\n"
                   f"district_geo = {island_files['packed_geo']}\n"
                   f"district_votes = {island_files['packed_votes']}\n"
                   f"out = {tmp_path / 'out'}\n"
                   f"{line}\n")
    scores = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")] if command == "ttest" else []
    code, out, err = run_cli(capsys, command, *scores, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == message
    assert calls == []  # rejected before any input was read


@pytest.mark.parametrize("key,named", [("widht", "widht"), ("max-margn", "max_margn"),
                                       ("help", "help"), ("config", "config")])
def test_config_key_of_no_option_is_an_error(island_files, capsys, tmp_path, key, named):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"geo = {island_files['precinct_geo']}\n"
                   f"votes = {island_files['precinct_votes']}\n"
                   f"{key} = 40\n")
    out = tmp_path / "margin.pgm"
    code, _, err = run_cli(capsys, "rasterize", "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert not out.exists()
    assert err == f"error: config key {named}: no command has an option --{key}\n"


@pytest.mark.parametrize("first, second, key", [
    ("width = 40", "width = 60", "width"),
    ("max-margin = 0.5", "max_margin = 0.6", "max_margin"),  # one key once normalised
])
def test_config_key_set_twice_is_an_error(island_files, capsys, tmp_path, first, second, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"geo = {island_files['precinct_geo']}\n"
                   f"votes = {island_files['precinct_votes']}\n"
                   f"{first}\n"
                   "\n"
                   f"{second}\n")
    out = tmp_path / "margin.pgm"
    code, _, err = run_cli(capsys, "rasterize", "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert not out.exists()
    assert err == f"error: config line 5: {key} is already set on line 3\n"
