"""GeoJSON / votes CSV parsing and join behavior."""

import functools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gerrytda.errors import GeometryError, IngestError
from gerrytda.compactness import score_units
from gerrytda.geometry import Bounds, UnitKind, hole_owners
from gerrytda.ingest import (
    JoinReport,
    VoteTable,
    join_units,
    parse_geojson,
    parse_votes_csv,
    to_geojson,
)
from gerrytda.synth import band_districts, grid_mosaic, mosaic_votes, votes_csv_text
from oracles import PolygonSet, Ring, compactness_reference, parse_votes_reference


def square_feature(uid, x0, y0, size=1.0, props=None):
    ring = [[x0, y0], [x0 + size, y0], [x0 + size, y0 + size], [x0, y0 + size], [x0, y0]]
    p = {"id": uid}
    if props:
        p.update(props)
    return {"type": "Feature", "properties": p,
            "geometry": {"type": "Polygon", "coordinates": [ring]}}


def collection(features):
    return json.dumps({"type": "FeatureCollection", "features": features})


# === parse_geojson ===

def test_parse_single_square():
    col = parse_geojson(collection([square_feature("P01", 0, 0)]))
    assert len(col) == 1 and col.ids == ("P01",)
    assert col.dem.tolist() == [0] and col.rep.tolist() == [0]
    assert col.areas.tolist() == [1.0]


def test_parse_multipolygon_with_hole():
    outer = [[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]]
    hole = [[1, 1], [2, 1], [2, 2], [1, 2], [1, 1]]
    island = [[10, 10], [11, 10], [11, 11], [10, 11], [10, 10]]
    feat = {"type": "Feature", "properties": {"id": "M"},
            "geometry": {"type": "MultiPolygon",
                         "coordinates": [[outer, hole], [island]]}}
    col = parse_geojson(collection([feat]))
    assert col.ids == ("M",)
    assert col.areas[0] == pytest.approx(16.0 - 1.0 + 1.0)


def test_parse_large_collection():
    feats = [square_feature(f"P{i:04d}", i % 97, i // 97) for i in range(2716)]
    col = parse_geojson(collection(feats))
    assert len(col) == 2716


def test_parse_missing_id():
    feat = square_feature("X", 0, 0)
    del feat["properties"]["id"]
    with pytest.raises(IngestError, match="feature 0: missing id"):
        parse_geojson(collection([feat]))


def test_parse_unsupported_geometry():
    feat = {"type": "Feature", "properties": {"id": "L"},
            "geometry": {"type": "LineString", "coordinates": [[0, 0], [1, 1]]}}
    with pytest.raises(IngestError, match="unsupported geometry type"):
        parse_geojson(collection([feat]))


def test_parse_duplicate_id():
    feats = [square_feature("A", 0, 0), square_feature("A", 2, 0)]
    with pytest.raises(IngestError, match="duplicate unit id"):
        parse_geojson(collection(feats))


def test_padded_map_id_joins_its_padded_votes_row():
    # both readers strip ids, so " P1 " in the map meets " P1 " in the votes
    geo = parse_geojson(collection([square_feature(" P1 ", 0, 0)]))
    assert geo.ids == ("P1",)
    units, report = join_units(geo, parse_votes_csv('unit_id,dem_votes,rep_votes\n" P1 ",100,5\n'))
    assert report.matched == 1 and report.orphan_vote_rows == ()
    assert units.dem.tolist() == [100] and units.rep.tolist() == [5]


def test_parse_custom_id_property():
    feat = square_feature("ignored", 0, 0, props={"name": "W1"})
    col = parse_geojson(collection([feat]), id_property="name")
    assert col.ids == ("W1",)


def test_parse_not_a_collection():
    with pytest.raises(IngestError, match="FeatureCollection"):
        parse_geojson(json.dumps({"type": "Feature"}))


def test_parse_kind_override():
    col = parse_geojson(collection([square_feature("D1", 0, 0)]), kind=UnitKind.DISTRICT)
    assert col.ids == ("D1",) and col.kinds == (UnitKind.DISTRICT,)


UNIT_SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]


def polygon(*rings, props=None):
    return {"type": "Feature", "properties": {"id": "BAD", **(props or {})},
            "geometry": {"type": "Polygon", "coordinates": list(rings)}}


MALFORMED = {
    "ragged_vertex": (polygon([[0, 0], [1, 0, 5], [1, 1], [0, 1]]),
                      "malformed polygon coordinates"),
    "null_vertex": (polygon([[0, 0], None, [1, 1], [0, 1]]),
                    "malformed polygon coordinates"),
    "string_coordinate": (polygon([[0, 0], ["east", 0], [1, 1], [0, 1]]),
                          "malformed polygon coordinates"),
    "string_dem_votes": (polygon(UNIT_SQUARE, props={"dem_votes": "many"}),
                         "non-integer dem_votes 'many'"),
    "fractional_rep_votes": (polygon(UNIT_SQUARE, props={"rep_votes": 2.5}),
                             "non-integer rep_votes 2.5"),
    "bool_dem_votes": (polygon(UNIT_SQUARE, props={"dem_votes": True}),
                       "non-integer dem_votes True"),
    "null_rep_votes": (polygon(UNIT_SQUARE, props={"rep_votes": None}),
                       "non-integer rep_votes None"),
    "unknown_kind": (polygon(UNIT_SQUARE, props={"kind": "county"}),
                     "unknown kind 'county'"),
    "blank_id": (polygon(UNIT_SQUARE, props={"id": " \t "}), "empty id"),
    "padded_duplicate_id": (polygon(UNIT_SQUARE, props={"id": " OK\n"}), "duplicate unit id OK"),
    "number_feature": (5, "not a JSON object"),
    "list_properties": ({"type": "Feature", "properties": ["id", "BAD"],
                         "geometry": {"type": "Polygon", "coordinates": [UNIT_SQUARE]}},
                        "properties is not a JSON object"),
    "list_geometry": ({"type": "Feature", "properties": {"id": "BAD"},
                       "geometry": [UNIT_SQUARE]},
                      "geometry is not a JSON object"),
    # the hole's centroid (0.5, 0.5) lies in the unit square, but it is 4.6 wide
    "holes_outweigh_outer": (polygon(UNIT_SQUARE, [[-1.8, -1.8], [2.8, -1.8], [2.8, 2.8],
                                                   [-1.8, 2.8]]),
                             "non-positive area"),
    "negative_dem_votes": (polygon(UNIT_SQUARE, props={"dem_votes": -3, "rep_votes": 1}),
                           "negative dem_votes"),
}

# a nearly collinear hole far from the origin, inside a 200-wide square: its
# area about its first vertex is exactly 0 (on absolute coordinates the
# shoelace leaves rounding error, not 0)
FAR_SLIVER = [[5000008.881183207, 5000002.258694285], [5000009.217837148, 5000002.906522723],
              [5000009.55449109, 5000003.554351161], [5000008.881183207, 5000002.258694285]]
FAR_SQUARE = [[5e6 - 100, 5e6 - 100], [5e6 + 100, 5e6 - 100], [5e6 + 100, 5e6 + 100],
              [5e6 - 100, 5e6 + 100], [5e6 - 100, 5e6 - 100]]

GEOMETRY_FAULTS = {
    "degenerate_ring": (polygon([[0, 0], [1, 0], [0, 0]]),
                        "degenerate ring: 2 vertices"),
    "zero_area": (polygon([[0, 0], [1, 0], [2, 0], [0, 0]]),
                  "degenerate ring: zero area"),
    "non_finite": (polygon([[0, 0], [1, 0], [1, float("nan")], [0, 1]]),
                   "non-finite ring coordinate"),
    "not_n_by_2": (polygon([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]),
                   r"ring coordinates must be an \(n, 2\) sequence"),
    "hole_outside": (polygon(UNIT_SQUARE, [[5, 5], [6, 5], [6, 6], [5, 6]]),
                     "hole lies outside every outer ring"),
    "zero_area_hole_far_from_origin": (polygon(FAR_SQUARE, FAR_SLIVER),
                                       "degenerate ring: zero area"),
    "null_ring": (polygon(None), r"ring coordinates must be an \(n, 2\) sequence"),
    "number_ring": (polygon(7), r"ring coordinates must be an \(n, 2\) sequence"),
    "string_ring": (polygon("1234"), r"ring coordinates must be an \(n, 2\) sequence"),
    "exponent_string_ring": (polygon("1e5"), r"ring coordinates must be an \(n, 2\) sequence"),
    "object_ring": (polygon({"a": 1}), r"ring coordinates must be an \(n, 2\) sequence"),
    # numpy would read these as the square of area 16 and a quadrilateral of area 14
    "string_coordinates": (polygon([["0", "0"], ["4", "0"], ["4", "4"], ["0", "4"]]),
                           "malformed polygon coordinates"),
    "boolean_coordinate": (polygon([[True, 0], [4, 0], [4, 4], [0, 4]]),
                           "malformed polygon coordinates"),
    "multipolygon_without_parts": ({"type": "Feature", "properties": {"id": "BAD"},
                                    "geometry": {"type": "MultiPolygon", "coordinates": []}},
                                   "polygon set needs at least one outer ring"),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_parse_malformed_feature_is_ingest_error(name):
    feat, message = MALFORMED[name]
    with pytest.raises(IngestError, match=f"^feature 1: {message}$"):
        parse_geojson(collection([square_feature("OK", 5, 5), feat]))


def test_parse_features_not_a_list():
    doc = {"type": "FeatureCollection", "features": {"0": square_feature("A", 0, 0)}}
    with pytest.raises(IngestError, match="^features is not a list$"):
        parse_geojson(json.dumps(doc))


@pytest.mark.parametrize("name", GEOMETRY_FAULTS)
def test_parse_geometry_fault_names_feature(name):
    feat, message = GEOMETRY_FAULTS[name]
    with pytest.raises(IngestError, match=f"^feature 1: {message}$") as info:
        parse_geojson(collection([square_feature("OK", 5, 5), feat]))
    assert isinstance(info.value.__cause__, GeometryError)


def test_parse_first_ring_fault_wins():
    # the ring checks, in file order, decide which of several faults is named
    feats = [square_feature("A", 0, 0),
             polygon(UNIT_SQUARE, [[0.2, 0.2], [0.4, 0.2], [0.2, 0.2]]),
             polygon([[0, 0], None, [1, 1]], props={"id": "C"})]
    with pytest.raises(IngestError, match="^feature 1: degenerate ring: 2 vertices$"):
        parse_geojson(collection(feats))


def test_parse_ring_faults_in_one_feature_are_named_in_file_order():
    # the first part's hole comes before the second part's outer ring
    feat = {"type": "Feature", "properties": {"id": "M"},
            "geometry": {"type": "MultiPolygon", "coordinates": [
                [UNIT_SQUARE, [[0.2, 0.2], [0.4, 0.2], [0.2, 0.2]]],
                [[[5, 5], [6, 5], [7, 5], [5, 5]]]]}}
    with pytest.raises(IngestError, match="^feature 0: degenerate ring: 2 vertices$"):
        parse_geojson(collection([feat]))


# === parse_geojson against the former Ring and PolygonSet, built directly ===

def bits(x):
    a = np.asarray(x, dtype=np.float64)
    return a.shape, a.tobytes()


def parts_of(feat):
    """A feature's polygons, each a list of rings."""
    geom = feat["geometry"]
    return [geom["coordinates"]] if geom["type"] == "Polygon" else geom["coordinates"]


def assert_same_units(doc):
    """parse_geojson's columns equal Ring/PolygonSet built feature by feature:
    their edges, rings, bounds (over every row) and areas, and hole_owners
    places each hole as PolygonSet does. So do the compactness scores read
    from those columns, bit for bit."""
    parsed = parse_geojson(json.dumps(doc))
    assert len(parsed) == len(doc["features"])
    refs = []
    for parts in map(parts_of, doc["features"]):
        refs.append(PolygonSet([Ring(p[0]) for p in parts],
                               [Ring(h) for p in parts for h in p[1:]]))
    expected = {"edges": np.concatenate([g.edges for g in refs]),
                "edge_counts": np.array([len(g.edges) for g in refs]),
                "areas": np.array([g.area for g in refs])}
    for name, ref in expected.items():
        got = getattr(parsed, name)
        assert got.dtype == ref.dtype and bits(got) == bits(ref), name
        assert not got.flags.writeable
    all_rows = [g.edges[:, :2] for g in refs]  # holes too, which may leave their outer rings
    assert parsed.bounds == functools.reduce(
        Bounds.union, [Bounds(*v.min(axis=0), *v.max(axis=0)) for v in all_rows])
    for (outers, holes), ref in zip(parsed.ring_spans(), refs):
        assert [b - a for a, b in outers] == list(map(len, ref.outers))
        assert [b - a for a, b in holes] == list(map(len, ref.holes))
        assert hole_owners(parsed.edges, outers, holes) == list(ref.hole_owner)
    scores = [(r.polsby_popper.hex(), r.reock.hex()) for r in score_units(parsed)]
    assert scores == [(pp.hex(), rk.hex()) for pp, rk in compactness_reference(doc)]


def star(rng, cx, cy, r, k):
    """A k-gon round (cx, cy) that contains the disk of radius r / 4 there."""
    angles = 2 * np.pi * (np.arange(k) + rng.uniform(0.0, 0.5, k)) / k
    radii = rng.uniform(0.5 * r, r, k)
    return np.column_stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)]).tolist()


@st.composite
def star_maps(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e6]))
    feats = []
    for i in range(draw(st.integers(1, 4))):
        parts = []
        for j in range(draw(st.integers(1, 3))):
            cx, cy = scale * rng.uniform(-100.0, 100.0, 2) + 300.0 * scale * j
            r = scale * rng.uniform(1.0, 50.0)
            rings = [star(rng, cx, cy, r, draw(st.integers(5, 30)))]
            rings += [star(rng, cx + r * dx, cy, r / 16, draw(st.integers(5, 9)))
                      for dx in draw(st.lists(st.sampled_from([-0.15, 0.0, 0.15]),
                                              max_size=2, unique=True))]
            if draw(st.booleans()):
                rings = [ring + [ring[0]] for ring in rings]
            parts.append(rings)
        geometry = {"type": "Polygon", "coordinates": parts[0]} \
            if len(parts) == 1 and draw(st.booleans()) else \
            {"type": "MultiPolygon", "coordinates": parts}
        feats.append({"type": "Feature", "properties": {"id": f"S{i}"}, "geometry": geometry})
    return {"type": "FeatureCollection", "features": feats}


@settings(max_examples=300, deadline=None)
@given(star_maps())
def test_parse_matches_direct_construction_on_stars(doc):
    assert_same_units(doc)


def test_parse_matches_direct_construction_when_a_hole_leaves_the_outer_box():
    # the hole's centroid lies inside, its top vertex above the outer ring
    square = [[0, 0], [4, 0], [4, 4], [0, 4]]
    poking = [[1, 1], [3, 1], [2, 5]]
    inner = [[11, 1], [12, 1], [12, 2]]
    assert_same_units(json.loads(collection([
        square_feature("A", 20, 0),
        polygon(square, poking, props={"id": "B"}),
        {"type": "Feature", "properties": {"id": "C"},
         "geometry": {"type": "MultiPolygon", "coordinates": [
             [[[10, 0], [14, 0], [14, 4], [10, 4]], inner], [square, poking]]}}])))


@pytest.mark.parametrize("cols,rows,seed", [(97, 28, 1), (24, 8, 3), (5, 3, 0)])
def test_parse_matches_direct_construction_on_mosaics(cols, rows, seed):
    assert_same_units(grid_mosaic(cols, rows, seed=seed))
    assert_same_units(band_districts(cols, rows, 4))
    assert_same_units(band_districts(cols, rows, 14))


def test_hole_free_map_runs_without_geometry_objects():
    # the pipeline reads a parsed map's columns
    from gerrytda import complexes, persistence, raster

    geo = parse_geojson(json.dumps(grid_mosaic(12, 6, seed=2)))
    votes = parse_votes_csv(votes_csv_text(mosaic_votes(12, 6, seed=2)))
    units, report = join_units(geo, votes)
    assert report.matched == 72
    for mode in raster.MarginMode:
        field = raster.margin_field(raster.rasterize(units, 48), units, mode)
        bc = persistence.levelset_barcode(field, complexes.uniform_schedule(8))
        assert bc.bars(0)
    cx = complexes.build_adjacency_filtration(units, complexes.uniform_schedule(8))
    assert len(cx) > len(units)
    assert len(score_units(units)) == 72
    assert len(to_geojson(units)["features"]) == 72
    assert not hasattr(units, "geometries")


def test_joins_of_one_map_share_its_geometries():
    geo = parse_geojson(json.dumps(grid_mosaic(5, 3, seed=0)))
    first, _ = join_units(geo, votes((geo.ids[0], 1, 2)))
    second, _ = join_units(geo, votes((geo.ids[1], 3, 4)))
    for name in ("edges", "edge_counts", "areas"):
        assert getattr(first, name) is getattr(second, name) is getattr(geo, name)
    assert first.memo("key", lambda: "built") == second.memo("key", lambda: "again") == "built"


# === round trip ===

@settings(max_examples=100, deadline=None)
@given(star_maps())
@example(json.loads(collection([
    square_feature("A", 0, 0, props={"dem_votes": 120, "rep_votes": 80}),
    {"type": "Feature", "properties": {"id": "B", "dem_votes": 5, "rep_votes": 9},
     "geometry": {"type": "Polygon", "coordinates": [
         [[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]], [[1, 1], [2, 1], [2, 2], [1, 2], [1, 1]]]}},
])))
def test_geojson_round_trip(doc):
    # to_geojson then parse_geojson gives back the same ids, votes, kinds and
    # columns; every hole of doc lies in its own polygon's outer ring, and
    # to_geojson puts it back there
    col = parse_geojson(json.dumps(doc))
    out = to_geojson(col)
    for feat, ref in zip(out["features"], doc["features"]):
        assert list(map(len, parts_of(feat))) == list(map(len, parts_of(ref)))
    back = parse_geojson(json.dumps(out))
    assert back.ids == col.ids
    assert (back.dem.tolist(), back.rep.tolist(), back.kinds) == \
        (col.dem.tolist(), col.rep.tolist(), col.kinds)
    for name in ("edges", "edge_counts", "areas"):
        assert bits(getattr(back, name)) == bits(getattr(col, name)), name


# === parse_votes_csv ===

def rows_of(table):
    """A VoteTable's rows as (unit_id, dem, rep) tuples."""
    return list(zip(table.ids, table.dem.tolist(), table.rep.tolist()))


def votes(*rows):
    """A VoteTable of (unit_id, dem, rep) rows."""
    return VoteTable([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])


def test_votes_basic():
    rows = parse_votes_csv("unit_id,dem_votes,rep_votes\nP01,150,50\n")
    assert rows_of(rows) == [("P01", 150, 50)]


def test_votes_whitespace_tolerated():
    rows = parse_votes_csv("unit_id, dem_votes, rep_votes\n P01 , 1 , 2 \n")
    assert rows_of(rows) == [("P01", 1, 2)]


def test_votes_negative_count():
    with pytest.raises(IngestError, match="row 2: negative count"):
        parse_votes_csv("unit_id,dem_votes,rep_votes\nP02,-5,10\n")


def test_votes_non_integer():
    with pytest.raises(IngestError, match="row 3: non-integer count"):
        parse_votes_csv("unit_id,dem_votes,rep_votes\nP01,1,2\nP02,a,3\n")


def test_votes_duplicate_id():
    with pytest.raises(IngestError, match="row 3: duplicate unit_id"):
        parse_votes_csv("unit_id,dem_votes,rep_votes\nP01,1,2\nP01,3,4\n")


def test_votes_empty_file():
    with pytest.raises(IngestError, match="missing header"):
        parse_votes_csv("")


def test_votes_lone_carriage_return_ends_a_row():
    rows = parse_votes_csv("unit_id,dem_votes,rep_votes\rP01,1,2\r\nP02,3,4\rP03,5,6")
    assert rows_of(rows) == [("P01", 1, 2), ("P02", 3, 4), ("P03", 5, 6)]
    with pytest.raises(IngestError, match="^row 3: non-integer count 'x'$"):
        parse_votes_csv("unit_id,dem_votes,rep_votes\rP01,1,2\rP02,x,4\r")


def test_votes_wrong_header():
    with pytest.raises(IngestError, match="header"):
        parse_votes_csv("id,dem,rep\nP01,1,2\n")


def test_votes_parse_to_a_read_only_table():
    rows = parse_votes_csv("unit_id,dem_votes,rep_votes\nP01,150,50\nP02,3,4\n")
    assert isinstance(rows, VoteTable) and len(rows) == 2
    assert rows.ids == ("P01", "P02")
    assert rows.dem.dtype == np.int64 and rows.rep.tolist() == [50, 4]
    with pytest.raises(ValueError):
        rows.dem[0] = 1


def test_vote_table_columns_must_be_of_one_length():
    with pytest.raises(ValueError, match="^vote columns of unequal length: 1 ids, 3 dem, 3 rep$"):
        VoteTable(["P0001"], [5, 9, 9], [6, 9, 9])
    with pytest.raises(ValueError, match="^vote columns of unequal length: 2 ids, 1 dem, 2 rep$"):
        VoteTable(["P0000", "P0001"], [5], [6, 7])
    assert len(VoteTable([], [], [])) == 0


COUNT_CAP = 2**52


@pytest.mark.parametrize("cell", [str(COUNT_CAP + 1), str(2**63), "9" * 30])
def test_votes_count_above_cap_is_an_error(cell):
    for text in (f"unit_id,dem_votes,rep_votes\nP01,1,2\nP02,{cell},3\n",
                 f'unit_id,dem_votes,rep_votes\nP01,1,2\n"P02",3,{cell}\n'):
        with pytest.raises(IngestError, match="^row 3: count above 2\\*\\*52$"):
            parse_votes_csv(text)


def test_votes_count_at_cap_is_kept():
    rows = parse_votes_csv(f"unit_id,dem_votes,rep_votes\nP01,{COUNT_CAP},{COUNT_CAP}\n")
    assert rows_of(rows) == [("P01", COUNT_CAP, COUNT_CAP)]


@pytest.mark.parametrize("key", ["dem_votes", "rep_votes"])
def test_geojson_count_above_cap_is_an_error(key):
    feats = [square_feature("A", 0, 0), square_feature("B", 1, 0, props={key: 2**63})]
    with pytest.raises(IngestError, match=f"^feature 1: {key} above 2\\*\\*52$"):
        parse_geojson(collection(feats))
    feats[1] = square_feature("B", 1, 0, props={key: COUNT_CAP})
    assert getattr(parse_geojson(collection(feats)), key[:3])[1] == COUNT_CAP


def test_byte_order_mark_is_accepted():
    csv_text = "unit_id,dem_votes,rep_votes\nP01,1,2\n"
    for text in ("\ufeff" + csv_text, "\ufeff" + csv_text.replace("1,2", '"1",2')):
        assert rows_of(parse_votes_csv(text)) == [("P01", 1, 2)]
        assert rows_of(parse_votes_csv(text.encode())) == [("P01", 1, 2)]
    geo_text = collection([square_feature("P01", 0, 0)])
    for text in ("\ufeff" + geo_text, ("\ufeff" + geo_text).encode()):
        assert parse_geojson(text).ids == ("P01",)


def test_text_that_is_not_utf8_is_an_ingest_error():
    with pytest.raises(IngestError, match="^unreadable votes file: .*0xff"):
        parse_votes_csv(b"unit_id,dem_votes,rep_votes\nP\xff1,1,2\n")
    geo = collection([square_feature("P01", 0, 0)]).encode().replace(b"P01", b"P\xff1")
    with pytest.raises(IngestError, match="^invalid JSON: .*0xff"):
        parse_geojson(geo)
    for encoding in ("utf-16", "utf-16-be", "utf-32", "utf-32-le"):  # json.loads would take them
        with pytest.raises(IngestError, match="^invalid JSON: "):
            parse_geojson(collection([square_feature("P01", 0, 0)]).encode(encoding))


def test_votes_cell_over_the_csv_field_limit_is_an_ingest_error():
    long_id = "P" * 140000
    for text in (f"unit_id,dem_votes,rep_votes\n{long_id},1,2\n",
                 f'unit_id,dem_votes,rep_votes\nA,1,2\n"{long_id}",3,4\n'):
        with pytest.raises(IngestError, match="^unreadable votes file: field larger than"):
            parse_votes_csv(text)


def ingest_outcome(parse, text):
    """The rows of the VoteTable that parse gives, or its IngestError."""
    try:
        table = parse(text)
    except IngestError as e:
        return f"IngestError: {e}"
    assert isinstance(table, VoteTable)
    return rows_of(table)


# cells the row loop accepts, and cells that make it fail
GOOD_IDS = ["P1", "P2", "P3", " P4 ", "Pé", "P\u20036"]
BAD_IDS = ["", "  ", '"P2"', '"a,b"', "P1"]
GOOD_COUNTS = ["0", "7", " 12 ", "+5", "-0", "1_000", "٣", "٣١", "５", "\u20035", "00012",
               "\t9", str(COUNT_CAP)]
BAD_COUNTS = ["-3", "1__0", "\x1c5", "0x10", "1e3", "a", "", str(COUNT_CAP + 1), str(2**63),
              "9" * 30, '"4"']


@st.composite
def votes_texts(draw):
    """Votes files, mostly well formed, each with at most a few faults."""
    header = draw(st.sampled_from(["unit_id,dem_votes,rep_votes"] * 6 + [
        " unit_id , dem_votes,rep_votes", "unit_id,dem,rep", '"unit_id",dem_votes,rep_votes', ""]))
    lines = [header]
    ids = draw(st.permutations(GOOD_IDS))
    for k in range(draw(st.integers(0, len(ids)))):
        fault = draw(st.integers(0, 11))
        cells = [draw(st.sampled_from(BAD_IDS)) if fault == 0 else ids[k]]
        cells += [draw(st.sampled_from(BAD_COUNTS if fault == 1 else GOOD_COUNTS))
                  for _ in range(2)]
        if fault == 2:  # a short or long row
            cells = cells[:draw(st.integers(1, 2))] if draw(st.booleans()) else cells + ["1"]
        if fault == 3:  # a blank line before the row
            lines.append(draw(st.sampled_from(["", "  ", ",,", " , , "])))
        lines.append(",".join(cells))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from(["", end, end + end]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


@settings(max_examples=400, deadline=None)
@given(votes_texts())
@example("unit_id,dem_votes,rep_votes\n\"P2\",1,2\n")  # csv unquotes a cell
@example("unit_id,dem_votes,rep_votes\nP1,1,2,3\n4,5\n")  # a long row, then a short one
@example("unit_id,dem_votes,rep_votes\nP1\r,1,2\n")  # a lone CR ends a row
@example("unit_id,dem_votes,rep_votes\nP1,\x1c5,3\nP2,4,\x1c\x1d6\n")  # int() keeps \x1c
@example("unit_id,dem_votes,rep_votes\nP1,1,2\n,,\nP2,3,4\n  \nP3,5,6\n , \t, \nP4,7,8\n")
@example("unit_id,dem_votes,rep_votes\nP1,1,2\n,,\nP1,3,4\n")  # a duplicate after a blank
@example("unit_id,dem_votes,rep_votes\nP1,1,2\n\n\n \n")  # trailing blank lines
@example("unit_id,dem_votes,rep_votes\n\n,,\n")  # nothing but blank rows
@example("\ufeffunit_id,dem_votes,rep_votes\r\nP1,1,2\r\nP2,3,4\r\n")  # a BOM with CRLF
@example(f"unit_id,dem_votes,rep_votes\nP1,1,2\nP2,{2**63},3\n")  # beyond int64
@example(f"unit_id,dem_votes,rep_votes\nP1,{'9' * 30},2\nP2,-1,3\n")
@example("unit_id,dem_votes,rep_votes\nP1,1,2,3\nP2,x,4\n")  # a long row, then a bad count
@example("unit_id,dem_votes,rep_votes\nP1,x,4\nP2,1,2,3\n")  # a bad count, then a long row
@example("unit_id,dem_votes,rep_votes\nP1,-1,x\n")  # the first cell's fault wins
@example("unit_id,dem_votes,rep_votes\n,1,2\n")  # an empty id is no blank row
@example("unit_id,dem_votes,rep_votes\nP1,1,2\n , \n,,,\nP2,3,4\n")  # blank rows of 2 and 4 cells
@example("unit_id,dem_votes,rep_votes\n ,5\n")  # a short row with an empty id: its length wins
def test_votes_parse_gives_a_table_or_an_ingest_error(text):
    # the same rows, or the same message, as the former row-by-row parser
    outcome = ingest_outcome(parse_votes_csv, text)
    assert isinstance(outcome, (list, str))
    assert ingest_outcome(parse_votes_reference, text) == outcome
    assert ingest_outcome(parse_votes_csv, text.encode()) == outcome
    assert ingest_outcome(parse_votes_csv, text.removeprefix("\ufeff")) == outcome


# === join_units ===

def geo_of(ids):
    return parse_geojson(collection([square_feature(u, i, 0) for i, u in enumerate(ids)]))


def test_join_fills_missing_with_token_votes():
    geo = geo_of(["A", "B", "C"])
    joined, rep = join_units(geo, votes(("A", 100, 50), ("C", 30, 70)))
    assert rep == JoinReport(matched=2, filled_missing=1, orphan_vote_rows=())
    assert joined.dem[1] == 10 and joined.rep[1] == 10


def test_join_reports_orphans():
    geo = geo_of(["A"])
    joined, rep = join_units(geo, votes(("A", 1, 2), ("Z", 5, 5)))
    assert rep.orphan_vote_rows == ("Z",)
    assert rep.matched == 1 and rep.filled_missing == 0
    assert len(joined) == 1


def test_join_idempotent():
    geo = geo_of(["A", "B"])
    table = votes(("A", 3, 4))
    first, rep1 = join_units(geo, table)
    second, rep2 = join_units(first, table)
    assert rep1 == rep2
    assert (first.dem.tolist(), first.rep.tolist()) == (second.dem.tolist(), second.rep.tolist())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_join_report_arithmetic(data):
    ids = [f"U{i}" for i in range(8)]
    geo = geo_of(ids)
    vote_ids = data.draw(st.lists(
        st.sampled_from(ids + ["X1", "X2", "X3"]), unique=True, max_size=11))
    joined, rep = join_units(geo, votes(*[(u, 1, 2) for u in vote_ids]))
    assert rep.matched + rep.filled_missing == len(geo) == len(joined)
    assert rep.matched == len([u for u in vote_ids if u in ids])
    assert set(rep.orphan_vote_rows) == {u for u in vote_ids if u not in ids}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["U0", "U1", "U2", "U3", "X1"]),
                          st.integers(0, 50), st.integers(0, 50)), max_size=8))
def test_join_takes_the_last_row_of_a_unit_named_twice(rows):
    geo = geo_of(["U0", "U1", "U2", "U3"])
    table = votes(*rows)
    joined, rep = join_units(geo, table)
    last = {uid: (d, r) for uid, d, r in rows}
    assert list(zip(joined.dem.tolist(), joined.rep.tolist())) == \
        [last.get(uid, (10, 10)) for uid in geo.ids]
    assert rep.orphan_vote_rows == tuple(uid for uid, _, _ in rows if uid == "X1")
    unique, rep_unique = join_units(geo, votes(*[(uid, *c) for uid, c in last.items()]))
    assert unique.dem.tolist() == joined.dem.tolist()
    assert unique.rep.tolist() == joined.rep.tolist()
    assert rep_unique.matched == rep.matched
    assert rep_unique.filled_missing == rep.filled_missing


def test_join_rejects_bad_counts_naming_the_unit():
    geo = geo_of(["A", "B", "C"])
    with pytest.raises(GeometryError, match="^unit B: negative vote count$"):
        join_units(geo, votes(("A", 1, 1), ("B", -1, 1), ("C", -2, 1)))
    with pytest.raises(GeometryError, match="^unit A: vote count above 2\\*\\*52$"):
        join_units(geo, votes(("A", 2**52 + 1, 1)))
    # an orphan row's counts are never read, whatever their size; a unit named
    # twice takes its last row
    for big in (2**60, -2**60):
        joined, rep = join_units(geo, votes(("Z", big, 1), ("A", big, 1), ("A", 3, 4)))
        assert rep.orphan_vote_rows == ("Z",) and joined.dem[0] == 3
