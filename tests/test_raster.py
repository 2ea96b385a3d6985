"""Rasterization, margin fields, and the PGM export format."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerrytda.errors import MarginError, ParameterError, RasterError
from gerrytda.geometry import Bounds, Point2
from gerrytda.ingest import parse_geojson
from gerrytda.raster import (
    BACKGROUND,
    Grid,
    MarginMode,
    margin_field,
    rasterize,
    write_margin_pgm,
)
from gerrytda.synth import grid_mosaic

from oracles import feature, pixel_center, point_in_unit, unit_map, unit_margin


def rect_unit(uid, x0, y0, x1, y1, dem=10, rep=10):
    return feature(uid, [[(x0, y0), (x1, y0), (x1, y1), (x0, y1)]], dem=dem, rep=rep)


# === unit_margin ===

def test_margin_relative_basic():
    assert unit_margin(unit_map([rect_unit("A", 0, 0, 1, 1, dem=150, rep=50)]), 0) == 0.5


def test_margin_relative_statewide_totals():
    u = unit_map([rect_unit("NC", 0, 0, 1, 1, dem=184969, rep=202762)])
    assert unit_margin(u, 0) == -17793 / 387731
    assert unit_margin(u, 0) == pytest.approx(-0.045891, abs=1e-6)


def test_margin_zero_votes_errors():
    with pytest.raises(MarginError, match="unit A: zero total votes"):
        unit_margin(unit_map([rect_unit("A", 0, 0, 1, 1, dem=0, rep=0)]), 0)


def test_margin_density():
    u = unit_map([rect_unit("A", 0, 0, 20, 10, dem=150, rep=50)])  # area 200
    assert unit_margin(u, 0, MarginMode.DENSITY) == 0.5


# === rasterize ===

def test_rasterize_two_half_squares():
    units = unit_map([rect_unit("L", 0, 0, 0.5, 1), rect_unit("R", 0.5, 0, 1, 1)])
    ras = rasterize(units, width=4)
    assert ras.grid.height == 4
    assert (ras.labels[:, :2] == 0).all()
    assert (ras.labels[:, 2:] == 1).all()
    assert ras.pixel_counts().tolist() == [8, 8]


def test_rasterize_partition_accounting():
    units = unit_map([rect_unit("L", 0, 0, 0.5, 1), rect_unit("R", 0.5, 0.5, 1, 1)])
    ras = rasterize(units, width=8)
    total = int(ras.pixel_counts().sum()) + int(np.count_nonzero(ras.labels == BACKGROUND))
    assert total == ras.grid.width * ras.grid.height


def test_rasterize_sub_pixel_unit_gets_no_pixels():
    units = unit_map([
        rect_unit("big", 0, 0, 1, 1),
        rect_unit("tiny", 2.001, 0.3, 2.004, 0.302),  # no pixel center inside
    ])
    ras = rasterize(units, width=8, bounds=Bounds(0, 0, 3, 1))
    assert ras.pixel_counts()[1] == 0


def test_rasterize_single_square_fills_grid():
    units = unit_map([rect_unit("A", 0, 0, 1, 1)])
    ras = rasterize(units, width=4)
    assert ras.labels.shape == (4, 4)
    assert (ras.labels == 0).all()


def test_rasterize_width_floor():
    units = unit_map([rect_unit("A", 0, 0, 1, 1)])
    with pytest.raises(ParameterError):
        rasterize(units, width=0)


def test_rasterize_empty_collection():
    with pytest.raises(RasterError):
        rasterize(unit_map([]), width=8)


def test_rasterize_matches_pointwise_membership():
    # scanline fill against the direct pixel-center query, random rect tilings
    rng = np.random.default_rng(3)
    for _ in range(10):
        xs = np.sort(np.unique(np.round(rng.uniform(0, 1, 3), 3)))
        cuts = [0.0] + [float(x) for x in xs if 0.05 < x < 0.95] + [1.0]
        units = []
        for i in range(len(cuts) - 1):
            y_split = float(np.round(rng.uniform(0.2, 0.8), 3))
            units.append(rect_unit(f"B{i}", cuts[i], 0, cuts[i + 1], y_split))
            units.append(rect_unit(f"T{i}", cuts[i], y_split, cuts[i + 1], 1))
        col = unit_map(units)
        ras = rasterize(col, width=16)
        for row in range(ras.grid.height):
            for cc in range(ras.grid.width):
                c = pixel_center(ras.grid, cc, row)
                want = next((idx for idx in range(len(col)) if point_in_unit(col, idx, c)),
                            BACKGROUND)
                assert ras.labels[row, cc] == want


def overlay_units(cols, rows, rng):
    """Units laid over a cols x rows mosaic: one with a hole, one in two
    parts, a triangle followed by a rotated half-size copy about its
    centroid, so the two overlap, and the holed unit's square again with a
    hole whose apex leaves it."""
    w, h = cols / 2, rows / 2
    x0, y0 = rng.uniform(0, w), rng.uniform(0, h)
    square = [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]
    holed = [square, [(x0 + 0.2 * w, y0 + 0.2 * h), (x0 + 0.8 * w, y0 + 0.3 * h),
                      (x0 + 0.4 * w, y0 + 0.8 * h)]]
    poking = [square, [(x0 + 0.3 * w, y0 + 0.2 * h), (x0 + 0.7 * w, y0 + 0.2 * h),
                       (x0 + 0.5 * w, y0 + 1.3 * h)]]
    parts = [[rng.uniform((0, 0), (w, 2 * h), (3, 2))],
             [rng.uniform((w, 0), (2 * w, 2 * h), (3, 2))]]
    big = rng.uniform((0, 0), (2 * w, 2 * h), (3, 2))
    c = big.mean(axis=0)
    a = rng.uniform(0, 2 * math.pi)
    rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    small = c + 0.5 * (big - c) @ rot.T
    return [feature(f"X{i}", *polygons, dem=10, rep=10) for i, polygons in
            enumerate([[holed], parts, [[big]], [[small]], [poking]])]


@settings(max_examples=50, deadline=None)
@given(cols=st.integers(1, 5), rows=st.integers(1, 5), seed=st.integers(0, 2**16),
       width=st.integers(1, 24), overlay=st.booleans())
def test_rasterize_matches_pointwise_membership_on_mosaics(cols, rows, seed, width, overlay):
    # every pixel goes to the last unit whose polygon holds its center
    units = grid_mosaic(cols, rows, seed=seed)["features"]
    if overlay:
        units += overlay_units(cols, rows, np.random.default_rng(seed))
    col = unit_map(units)
    ras = rasterize(col, width)
    for row in range(ras.grid.height):
        for cc in range(ras.grid.width):
            c = pixel_center(ras.grid, cc, row)
            want = next((idx for idx in reversed(range(len(col)))
                         if point_in_unit(col, idx, c)), BACKGROUND)
            assert ras.labels[row, cc] == want, (row, cc)


@pytest.mark.parametrize("others", [[], [[(5, 5), (6, 5), (6, 6), (5, 6)]]],
                         ids=["alone", "with-square"])
def test_rasterize_hole_leaving_its_outer_ring_matches_pointwise_membership(others):
    # A's hole reaches y = 5 above its square's top; the pixels between the
    # square's top and the hole's go to A by the even-odd rule, so the grid
    # reaches y = 5 with or without a unit beyond A
    a = feature("A", [[(0, 0), (4, 0), (4, 4), (0, 4)], [(1, 1), (3, 1), (3, 5), (1, 5)]])
    col = unit_map([a] + [feature(f"D{i}", [ring]) for i, ring in enumerate(others)])
    ras = rasterize(col, 12)
    assert ras.grid.origin.y + ras.grid.height * ras.grid.pixel_size >= 5
    for row in range(ras.grid.height):
        for cc in range(ras.grid.width):
            c = pixel_center(ras.grid, cc, row)
            want = next((idx for idx in reversed(range(len(col)))
                         if point_in_unit(col, idx, c)), BACKGROUND)
            assert ras.labels[row, cc] == want, (row, cc)


def test_rasterize_refinement_to_area_share():
    # at width 1024 the pixel share of convex units tracks the area share
    units = unit_map([
        rect_unit("A", 0, 0, 0.3, 1),
        rect_unit("B", 0.3, 0, 1, 0.6),
        rect_unit("C", 0.3, 0.6, 1, 1),
    ])
    ras = rasterize(units, width=1024)
    counts = ras.pixel_counts().astype(float)
    shares = counts / counts.sum()
    areas = np.array([0.3, 0.7 * 0.6, 0.7 * 0.4])
    area_shares = areas / areas.sum()
    assert np.all(np.abs(shares - area_shares) / area_shares < 0.02)


# === margin_field ===

def test_margin_field_relative_values():
    units = unit_map([
        rect_unit("L", 0, 0, 0.5, 1, dem=150, rep=50),
        rect_unit("R", 0.5, 0, 1, 1, dem=25, rep=75),
    ])
    ras = rasterize(units, width=8)
    f = margin_field(ras, units, MarginMode.RELATIVE)
    assert set(np.unique(f.values[:, :4])) == {0.5}
    assert set(np.unique(f.values[:, 4:])) == {-0.5}
    assert not f.background.any()
    assert f.normalizer == 1.0


def test_margin_field_density_normalization():
    # A: +100 over area 200 -> +0.5 density; B: -50 over area 50 -> -1.0;
    # max abs is 1.0 so values survive normalization unchanged
    units = unit_map([
        rect_unit("A", 0, 0, 20, 10, dem=150, rep=50),
        rect_unit("B", 20, 0, 25, 10, dem=0, rep=50),
    ])
    ras = rasterize(units, width=100)
    f = margin_field(ras, units, MarginMode.DENSITY)
    a_val = f.values[5, 10]
    b_val = f.values[5, 90]
    assert a_val == 0.5 and b_val == -1.0
    assert f.normalizer == 1.0
    assert np.max(np.abs(f.values)) <= 1.0


def test_margin_field_piecewise_constant():
    units = unit_map([
        rect_unit("A", 0, 0, 0.55, 1, dem=9, rep=1),
        rect_unit("B", 0.55, 0, 1, 1, dem=2, rep=8),
    ])
    ras = rasterize(units, width=32)
    f = margin_field(ras, units)
    for idx in range(2):
        vals = np.unique(f.values[ras.labels == idx])
        assert len(vals) == 1


def test_margin_field_sign_flip_exact():
    units = unit_map([rect_unit("A", 0, 0, 0.5, 1, dem=150, rep=50),
                      rect_unit("B", 0.5, 0, 1, 1, dem=30, rep=70)])
    flipped = unit_map([rect_unit("A", 0, 0, 0.5, 1, dem=50, rep=150),
                        rect_unit("B", 0.5, 0, 1, 1, dem=70, rep=30)])
    ras = rasterize(units, width=8)
    for mode in MarginMode:
        f = margin_field(ras, units, mode)
        g = margin_field(ras, flipped, mode)
        assert np.array_equal(f.values, -g.values)


def test_margin_field_background_masked():
    units = unit_map([rect_unit("A", 0, 0, 1, 1, dem=3, rep=1)])
    ras = rasterize(units, width=8, bounds=Bounds(0, 0, 2, 1))
    f = margin_field(ras, units)
    assert f.background[:, 4:].all()
    assert (f.values[:, 4:] == 0).all()


def test_margin_field_zero_total_unit_named():
    units = unit_map([rect_unit("bad", 0, 0, 1, 1, dem=0, rep=0)])
    ras = rasterize(units, width=8)
    with pytest.raises(MarginError, match="unit bad"):
        margin_field(ras, units, MarginMode.RELATIVE)


def test_margin_field_takes_a_mode_by_its_value():
    units = unit_map([rect_unit("A", 0, 0, 1, 1, dem=3, rep=1)])
    ras = rasterize(units, width=8)
    assert margin_field(ras, units, "density").mode is MarginMode.DENSITY
    with pytest.raises(ParameterError, match="^unknown margin mode 'foo'$"):
        margin_field(ras, units, "foo")
    # anything else was read as density mode, left unnormalized: margin 2.0
    with pytest.raises(ParameterError, match="^unknown margin mode None$"):
        margin_field(ras, units, None)


def test_margin_field_of_another_map_is_an_error():
    # unchecked, a raster of fewer units than the votes reads as a wrong
    # field, and one of more units indexes past the margins
    halves = unit_map([rect_unit("A", 0, 0, 2, 1, dem=3, rep=1),
                       rect_unit("B", 2, 0, 4, 1, dem=1, rep=3)])
    quarters = unit_map([rect_unit(f"Q{i}", i, 0, i + 1, 1, dem=1 + i, rep=2) for i in range(4)])
    renamed = unit_map([rect_unit("B", 0, 0, 2, 1), rect_unit("A", 2, 0, 4, 1)])
    for raster_of, units in ((halves, quarters), (quarters, halves), (halves, renamed)):
        with pytest.raises(ParameterError, match="^the raster labels other units than the ones given$"):
            margin_field(rasterize(raster_of, width=8), units)


def test_margin_field_keeps_the_rasters_labels_and_one_margin_per_unit():
    units = unit_map([rect_unit("A", 0, 0, 2, 1, dem=3, rep=1),
                      rect_unit("B", 2, 0, 4, 1, dem=1, rep=3)])
    ras = rasterize(units, width=8)
    f = margin_field(ras, units)
    assert f.labels is ras.labels
    assert f.margins.tolist() == [0.5, -0.5] and not f.margins.flags.writeable


def margin_field_reference(raster, units, mode):
    """margin_field as it was: unit_margin on each unit that claims a pixel."""
    labels = raster.labels
    present = [int(i) for i in np.unique(labels) if i >= 0]
    margins = np.zeros(len(units), dtype=np.float64)
    for idx in present:
        margins[idx] = unit_margin(units, idx, mode)
    normalizer = 1.0
    if mode is MarginMode.DENSITY:
        normalizer = float(np.max(np.abs(margins[present]))) if present else 0.0
        if normalizer > 0:
            margins = margins / normalizer
    background = labels == BACKGROUND
    return np.where(background, 0.0, margins[np.where(background, 0, labels)]), normalizer


def margin_outcome(margins, raster, units, mode):
    try:
        return margins(raster, units, mode)
    except MarginError as e:
        return str(e)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 7), st.integers(1, 5), st.integers(0, 2**32 - 1),
       st.sampled_from([9, 16, 33]), st.floats(0.0, 2.0), st.data())
def test_margin_field_matches_the_per_unit_reference(cols, rows, seed, width, pad, data):
    # counts up to 2**52, and some units without votes
    small, big = st.integers(0, 3), st.integers(0, 2**52)
    counts = data.draw(st.lists(st.one_of(st.tuples(small, small), st.tuples(big, big)),
                                min_size=cols * rows, max_size=cols * rows))
    units = parse_geojson(json.dumps(grid_mosaic(cols, rows, seed=seed))).with_votes(
        np.array(counts, dtype=np.int64))
    b = units.bounds
    ras = rasterize(units, width, Bounds(b.minx - pad, b.miny, b.maxx + pad, b.maxy + pad))
    for mode in MarginMode:
        want = margin_outcome(margin_field_reference, ras, units, mode)
        got = margin_outcome(margin_field, ras, units, mode)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.values.tobytes() == want[0].tobytes()  # bit for bit
            assert got.normalizer == want[1]


def test_margin_field_skips_a_voteless_unit_that_claims_no_pixel():
    units = unit_map([rect_unit("A", 0, 0, 2, 1, dem=3, rep=1),
                      rect_unit("B", 2, 0, 4, 1, dem=1, rep=3),
                      rect_unit("Z", 0.6, 0.2, 0.7, 0.3, dem=0, rep=0)])
    ras = rasterize(units, width=4)
    assert ras.pixel_counts().tolist() == [2, 2, 0]
    f = margin_field(ras, units, MarginMode.RELATIVE)
    assert f.values.tolist() == [[0.5, 0.5, -0.5, -0.5]]


def test_margin_field_names_the_first_voteless_unit_that_claims_a_pixel():
    units = unit_map([rect_unit("Z", 0.6, 0.2, 0.7, 0.3),
                      rect_unit("A", 0, 0, 2, 1), rect_unit("B", 2, 0, 4, 1)])
    ras = rasterize(units, width=4)
    for counts, name in (([(0, 0), (0, 0), (0, 0)], "A"), ([(0, 0), (1, 2), (0, 0)], "B")):
        with pytest.raises(MarginError, match=f"^unit {name}: zero total votes$"):
            margin_field(ras, units.with_votes(np.array(counts)), MarginMode.RELATIVE)
    assert margin_field(ras, units.with_votes(np.array([(0, 0), (1, 2), (0, 0)])),
                        MarginMode.DENSITY).normalizer == 0.5


def test_rasterize_labels_each_map_once_per_width_and_bounds(monkeypatch):
    from gerrytda import raster
    calls = []
    label = raster._label
    monkeypatch.setattr(raster, "_label", lambda *args: calls.append(args[1:]) or label(*args))
    text = json.dumps(grid_mosaic(5, 4, seed=2))
    geo = parse_geojson(text)
    first = rasterize(geo.with_votes(np.array([(1, 2)] * 20)), 32)
    assert rasterize(geo.with_votes(np.array([(3, 1)] * 20)), 32) is first
    assert rasterize(geo, 32, geo.bounds) is first
    assert len(calls) == 1
    wider = Bounds(geo.bounds.minx, geo.bounds.miny, geo.bounds.maxx + 1, geo.bounds.maxy)
    rasterize(geo, 40)
    rasterize(geo, 32, wider)
    assert calls == [(32, geo.bounds), (40, geo.bounds), (32, wider)]
    fresh = rasterize(parse_geojson(text), 32)  # another map, even of the same units
    assert fresh is not first and np.array_equal(fresh.labels, first.labels)
    assert len(calls) == 4


# === PGM + sidecar ===

def _field_fixture():
    units = unit_map([
        rect_unit("A", 0, 0, 0.5, 1, dem=150, rep=50),
        rect_unit("B", 0.5, 0, 1, 1, dem=25, rep=75),
    ])
    ras = rasterize(units, width=8, bounds=Bounds(0, 0, 1.5, 1))
    return margin_field(ras, units)


def test_pgm_round_trip(tmp_path):
    # the package reads neither file back, so the test decodes both
    f = _field_fixture()
    pgm = tmp_path / "m.pgm"
    write_margin_pgm(f, pgm)
    magic, w, h, maxval, payload = pgm.read_bytes().split(maxsplit=4)
    w, h = int(w), int(h)
    assert (magic, maxval) == (b"P5", b"65535")
    meta = json.loads((tmp_path / "m.json").read_text())
    assert (meta["width"], meta["height"]) == (w, h)
    grid = Grid(w, h, Point2(*meta["origin"]), meta["pixel_size"])
    assert grid == f.grid
    assert MarginMode(meta["mode"]) is f.mode
    mask = meta["background_mask"]
    flat = np.repeat([(k + mask["first"]) % 2 == 1 for k in range(len(mask["runs"]))],
                     mask["runs"])
    background = flat.reshape(h, w)[::-1]  # file order is top row first
    assert np.array_equal(background, f.background)
    data = np.frombuffer(payload[:w * h * 2], dtype=">u2").reshape(h, w)[::-1]
    values = np.where(background, 0.0, data / 65535.0 * 2.0 - 1.0)
    # 16-bit quantization: half a step of 2/65535
    assert np.max(np.abs(values - f.values)) <= 1.0 / 65535.0


def test_pgm_header_and_encoding(tmp_path):
    f = _field_fixture()
    pgm = tmp_path / "m.pgm"
    write_margin_pgm(f, pgm)
    raw = pgm.read_bytes()
    assert raw.startswith(b"P5\n8 ")
    assert b"65535" in raw[:20]
    # margin +0.5 encodes to round(0.75 * 65535) = 49151
    payload = np.frombuffer(raw.split(b"65535\n", 1)[1], dtype=">u2")
    assert 49151 in payload


def test_sidecar_contents(tmp_path):
    f = _field_fixture()
    write_margin_pgm(f, tmp_path / "m.pgm")
    import json
    meta = json.loads((tmp_path / "m.json").read_text())
    assert meta["width"] == 8 and meta["height"] == 6  # ceil(1 / 0.1875)
    assert meta["mode"] == "relative"
    assert meta["origin"] == [0.0, 0.0]
    runs = meta["background_mask"]["runs"]
    assert sum(runs) == 8 * 6
