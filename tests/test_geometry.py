"""Polygon primitive tests: areas, perimeters, membership, model invariants.

Areas, perimeters and membership are read from a parsed map's columns:
areas from units.areas, perimeters through the Polsby-Popper score, and
membership through the even-odd oracle over a unit's edge rows.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from gerrytda.compactness import score_units
from gerrytda.errors import GeometryError, IngestError
from gerrytda.geometry import Bounds, Point2, UnitKind, hole_owners, ring_table
from gerrytda.ingest import parse_geojson, to_geojson
from gerrytda.raster import BACKGROUND, rasterize
from gerrytda.synth import grid_mosaic
from oracles import feature, pixel_center, point_in_unit, unit_map

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def square(x0, y0, x1, y1):
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


def unit(*outers, holes=()):
    """A one-unit map: the first outer ring holds every hole."""
    return unit_map([feature("U", [outers[0], *holes], *[[o] for o in outers[1:]])])


def area(*outers, holes=()):
    return float(unit(*outers, holes=holes).areas[0])


def pp_of(perimeter, a):
    """Polsby-Popper of area a and boundary length perimeter, as score_units computes it."""
    return 4.0 * math.pi * a / (perimeter * perimeter)


def polsby_popper(*outers, holes=()):
    return score_units(unit(*outers, holes=holes))[0].polsby_popper


def inside(point, units):
    return point_in_unit(units, 0, point)


# === areas ===

def test_area_unit_square():
    assert area(UNIT_SQUARE) == 1.0


def test_area_triangle():
    assert area([(0, 0), (1, 0), (0, 1)]) == 0.5


def test_area_square_with_hole():
    assert area(UNIT_SQUARE, holes=[square(0.25, 0.25, 0.75, 0.75)]) == \
        pytest.approx(0.75, rel=1e-15)


def test_area_orientation_independent():
    cw = list(reversed(UNIT_SQUARE))
    assert area(cw) == 1.0
    signed = ring_table(np.array(cw, dtype=np.float64), np.array([0, 4]))[1]
    assert np.array_equal(signed, np.array([-1.0]))


def test_area_multipart():
    assert area(UNIT_SQUARE, square(2, 0, 3, 1)) == 2.0


def test_area_rigid_motion_invariant():
    # translation + rotation leave the area unchanged to 1e-9 relative: a
    # small ring moved by up to 100, and a precinct-sized one (radius about
    # 1e3) moved to state-plane coordinates, 1e5 to 1e7 from the origin
    rng = np.random.default_rng(7)
    for _ in range(50):
        for size, shift in ((1.0, rng.uniform(-100, 100, 2)),
                            (1e3, 10 ** rng.uniform(5, 7) * rng.choice([-1.0, 1.0], 2))):
            n = int(rng.integers(3, 12))
            ang = np.sort(rng.uniform(0, 2 * np.pi, n))
            rad = size * rng.uniform(0.5, 2.0, n)
            pts = np.c_[rad * np.cos(ang), rad * np.sin(ang)]
            base = area(pts)
            th = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
            moved = pts @ rot.T + shift
            assert area(moved) == pytest.approx(base, rel=1e-9)


def shoelace_fraction(ring):
    """A ring's signed area in exact rational arithmetic on its float vertices."""
    pts = [(Fraction(x), Fraction(y)) for x, y in ring]
    return sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1])) / 2


def test_area_far_from_the_origin_is_exact():
    # a 10-wide square holding a 3.08-wide hole at (5e6, 5e6), where
    # state-plane maps lie; absolute cross products there lose 5 digits
    off = 5e6
    outer = square(off, off, off + 10, off + 10)
    hole = square(off + 3, off + 3, off + 6.08, off + 6.08)
    exact = abs(shoelace_fraction(outer)) - abs(shoelace_fraction(hole))
    got = area(outer, holes=[hole])
    assert abs(Fraction(got) - exact) <= exact * Fraction(1, 10**15)
    # the same float shape at the origin (each coordinate less off, exactly)
    # has the same edge vectors, so the same perimeter and area and score
    near = [[(x - off, y - off) for x, y in ring] for ring in (outer, hole)]
    assert polsby_popper(outer, holes=[hole]) == polsby_popper(near[0], holes=[near[1]])


# === perimeters, through Polsby-Popper ===

def test_perimeter_unit_square():
    assert polsby_popper(UNIT_SQUARE) == pp_of(4.0, 1.0)


def test_perimeter_triangle():
    pp = polsby_popper([(0, 0), (1, 0), (0, 1)])
    assert math.sqrt(4.0 * math.pi * 0.5 / pp) == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-15)


def test_perimeter_two_disjoint_squares():
    assert polsby_popper(UNIT_SQUARE, square(2, 0, 3, 1)) == pp_of(8.0, 2.0)


def test_perimeter_hole_flag():
    holes = [square(0.25, 0.25, 0.75, 0.75)]
    assert polsby_popper(UNIT_SQUARE, holes=holes) == pp_of(6.0, area(UNIT_SQUARE, holes=holes))


# === point membership ===

def test_pip_interior_and_exterior():
    g = unit(UNIT_SQUARE)
    assert inside(Point2(0.5, 0.5), g)
    assert not inside(Point2(1.5, 0.5), g)
    assert not inside(Point2(0.5, -0.5), g)


def test_pip_hole():
    g = unit(UNIT_SQUARE, holes=[square(0.25, 0.25, 0.75, 0.75)])
    assert not inside(Point2(0.5, 0.5), g)
    assert inside(Point2(0.1, 0.5), g)


def test_pip_half_open_edges():
    # top and left edges belong to the polygon, bottom and right do not
    g = unit(UNIT_SQUARE)
    assert inside(Point2(0.0, 0.5), g)       # left
    assert not inside(Point2(1.0, 0.5), g)   # right
    assert inside(Point2(0.5, 1.0), g)       # top
    assert not inside(Point2(0.5, 0.0), g)   # bottom


def test_pip_no_double_claim_on_shared_edge():
    left = unit(square(0, 0, 1, 1))
    right = unit(square(1, 0, 2, 1))
    below = unit(square(0, -1, 1, 0))
    for y in (0.25, 0.5, 0.75):
        claims = inside(Point2(1.0, y), left) + inside(Point2(1.0, y), right)
        assert claims == 1
    for x in (0.25, 0.5, 0.75):
        claims = inside(Point2(x, 0.0), left) + inside(Point2(x, 0.0), below)
        assert claims == 1


def test_pip_convex_oracle():
    # random convex polygons: membership must agree with the half-plane
    # intersection test away from the boundary
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(3, 10))
        ang = np.sort(rng.uniform(0, 2 * np.pi, n))
        if np.min(np.diff(ang)) < 1e-3:
            continue
        pts = np.c_[np.cos(ang), np.sin(ang)]  # ccw on the unit circle
        g = unit(pts)
        for _ in range(30):
            q = rng.uniform(-1.2, 1.2, 2)
            # signed side of every edge; ccw polygon keeps interior on the left
            a = pts
            b = np.roll(pts, -1, axis=0)
            side = (b[:, 0] - a[:, 0]) * (q[1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (q[0] - a[:, 0])
            if np.min(np.abs(side)) < 1e-9:
                continue  # too close to an edge for the strict oracle
            expect = bool(np.all(side > 0))
            assert inside(Point2(q[0], q[1]), g) == expect


# === validation ===

def rejected(message, *outers, holes=()):
    """parse_geojson refuses the one-unit map with message, caused by a GeometryError."""
    with pytest.raises(IngestError, match=f"^feature 0: {message}$") as info:
        unit(*outers, holes=holes)
    return isinstance(info.value.__cause__, GeometryError)


def test_ring_rejects_two_vertices():
    assert rejected("degenerate ring: 2 vertices", [(0, 0), (1, 1)])


def test_ring_rejects_zero_area():
    assert rejected("degenerate ring: zero area", [(0, 0), (1, 1), (2, 2)])


def test_ring_accepts_closed_input():
    closed = unit([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
    assert closed.edge_counts.tolist() == [4]
    assert closed.edges.tobytes() == unit(UNIT_SQUARE).edges.tobytes()


def test_point_rejects_nan():
    with pytest.raises(GeometryError):
        Point2(float("nan"), 0.0)


def test_hole_outside_outer_rejected():
    assert rejected("hole lies outside every outer ring", UNIT_SQUARE,
                    holes=[square(2, 2, 3, 3)])


def test_small_hole_far_from_origin_finds_its_outer_ring():
    # a 3-wide hole at 5e6: the centroid of absolute coordinates lands
    # hundreds of units outside the map, so the hole would fit no outer ring
    lo, hi = 5000003.460426573, 5000006.539573427
    outer = square(5e6, 5e6, 5e6 + 10, 5e6 + 10)
    units = unit_map([feature("U", [square(0, 0, 10, 10)], [outer, square(lo, lo, hi, hi)])])
    parts = to_geojson(units)["features"][0]["geometry"]["coordinates"]
    assert [len(rings) for rings in parts] == [1, 2]
    assert parts[1][1][:4] == [list(p) for p in square(lo, lo, hi, hi)]


# === hole placement ===

# a C open to the right, area 72, holding a C-shaped hole of area 22 whose
# centroid (89/22, 5) lies in the outer C's opening, outside both rings
C_OUTER = [(0, 0), (10, 0), (10, 3), (3, 3), (3, 7), (10, 7), (10, 10), (0, 10)]
C_HOLE = [(1, 1), (9, 1), (9, 2), (2, 2), (2, 8), (9, 8), (9, 9), (1, 9)]
ISLAND = square(4, 4, 6, 6)  # in the opening, round the hole's centroid


def test_non_convex_hole_outside_its_centroid_is_placed():
    assert area(C_OUTER, holes=[C_HOLE]) == 50.0


@pytest.mark.parametrize("island", [False, True], ids=["alone", "with-island"])
def test_non_convex_hole_rasterizes_by_pointwise_membership(island):
    units = unit(C_OUTER, *[ISLAND] * island, holes=[C_HOLE])
    ras = rasterize(units, 23)
    for row in range(ras.grid.height):
        for cc in range(ras.grid.width):
            want = 0 if inside(pixel_center(ras.grid, cc, row), units) else BACKGROUND
            assert ras.labels[row, cc] == want, (row, cc)
    assert (ras.labels == 0).any() and (ras.labels == BACKGROUND).any()


def test_non_convex_hole_stays_with_its_outer_ring_beside_an_island():
    # the hole's centroid lies in the island, but the hole is in the C
    units = unit(C_OUTER, ISLAND, holes=[C_HOLE])
    text = json.dumps(to_geojson(units))
    parts = json.loads(text)["features"][0]["geometry"]["coordinates"]
    assert [len(rings) for rings in parts] == [2, 1]
    assert parts[0][1][:-1] == [list(p) for p in C_HOLE]
    assert json.dumps(to_geojson(parse_geojson(text))) == text


def test_hole_on_a_one_ulp_step_is_placed():
    # no float lies between the hole's two lowest y values
    step = math.nextafter(1.0, 2.0)
    units = unit(square(0, 0, 4, 4), holes=[[(1, 1), (3, step), (2, 3)]])
    spans = next(units.ring_spans())
    assert hole_owners(units.edges, *spans) == [0]


def test_hole_owners_rejects_a_zero_area_hole():
    # ingest refuses the ring before placing it; a direct call still does
    rings = UNIT_SQUARE + [(0.2, 0.2), (0.4, 0.4), (0.6, 0.6)]
    edges, _ = ring_table(np.array(rings, dtype=np.float64), np.array([0, 4, 7]))
    with pytest.raises(GeometryError, match="^degenerate ring: zero area$"):
        hole_owners(edges, [(0, 4)], [(4, 7)])


def test_collection_bounds_enclose_everything():
    col = unit_map([feature("A", [square(0, 0, 1, 1)], dem=1, rep=1),
                    feature("B", [square(5, -2, 6, 4)], dem=1, rep=1)])
    assert col.bounds == Bounds(0.0, -2.0, 6.0, 4.0)
    assert col.kinds[1] is UnitKind.PRECINCT


def test_with_votes_matches_a_fresh_collection():
    places = (("C", 3, -1), ("A", 0, 0), ("B", -4, 5))
    counts = np.array([(7, 2), (0, 0), (3, 9)])
    got = unit_map(feature(uid, [square(x, y, x + 1, y + 2)], dem=1, rep=1)
                   for uid, x, y in places).with_votes(counts)
    fresh = unit_map(feature(uid, [square(x, y, x + 1, y + 2)], dem=d, rep=r)
                     for (uid, x, y), (d, r) in zip(places, counts.tolist()))
    for name in ("ids", "kinds"):
        assert getattr(got, name) == getattr(fresh, name)
    for name in ("dem", "rep", "edges", "edge_counts", "areas"):
        assert getattr(got, name).tobytes() == getattr(fresh, name).tobytes()
    assert list(got.ring_spans()) == list(fresh.ring_spans())
    assert got.bounds == fresh.bounds == Bounds(-4.0, -1.0, 4.0, 7.0)
    for uid, k in zip(fresh.ids, got.positions(fresh.ids).tolist()):
        assert got.ids[k] == uid
    assert got.positions(["D"]).tolist() == [-1]
    with pytest.raises(ValueError):
        fresh.with_votes(counts[:2])


def test_with_votes_swaps_only_the_vote_arrays():
    feats = [feature(uid, [square(x, 0, x + 1, 1)], dem=1, rep=1)
             for uid, x in (("C", 0), ("A", 1), ("B", 2))]
    col = unit_map(feats)
    got = col.with_votes(np.array([[7, 2], [0, 0], [3, 9]]))
    assert got.ids is col.ids and got.bounds is col.bounds
    for name in ("edges", "edge_counts", "areas"):
        assert getattr(got, name) is getattr(col, name)
    assert got.dem.tolist() == [7, 0, 3] and got.rep.tolist() == [2, 0, 9]
    assert col.dem.tolist() == col.rep.tolist() == [1, 1, 1]
    assert not got.dem.flags.writeable and not got.rep.flags.writeable
    assert got.memo("key", lambda: "built") == col.memo("key", lambda: "again") == "built"
    assert unit_map(feats).memo("key", lambda: "again") == "again"
    assert (got.ids[1], got.dem[1], got.rep[1], got.kinds[1]) == ("A", 0, 0, UnitKind.PRECINCT)
    with pytest.raises(GeometryError, match="^unit A: negative vote count$"):
        col.with_votes(np.array([(1, 1), (-1, 0), (0, -5)]))
    with pytest.raises(GeometryError, match="^unit B: vote count above 2\\*\\*52$"):
        col.with_votes(np.array([(1, 1), (0, 0), (0, 2**52 + 1)]))
    with pytest.raises(GeometryError, match="^unit A: vote count above 2\\*\\*52$"):
        col.with_votes(np.array([(1, 1), (2**63, 0), (0, 0)], dtype=np.uint64))  # beyond int64
    with pytest.raises(GeometryError, match="^unit B: negative vote count$"):
        col.with_votes(np.array([[1, 1], [0, 0], [-1, 0]]))


def test_with_votes_takes_only_an_integer_array():
    col = unit_map(feature(uid, [square(x, 0, x + 1, 1)], dem=1, rep=1)
                   for uid, x in (("C", 0), ("A", 1)))
    for counts in ([(1, 2), (3, 4)], np.array([(1.0, 2.0), (3.0, 4.0)]),
                   np.asarray([(0, 2**63), (0, 0)]), np.array([(True, False)] * 2)):
        with pytest.raises(TypeError, match="^vote counts must be an \\(n, 2\\) integer array$"):
            col.with_votes(counts)
    with pytest.raises(ValueError):
        col.with_votes(np.array([1, 2, 3, 4]))


def test_a_bad_count_is_named_without_building_a_polygon_set():
    # the count check reads the vote array alone; a map has no per-unit polygon objects
    col = parse_geojson(json.dumps(grid_mosaic(3, 1, seed=0)))
    with pytest.raises(GeometryError, match=f"^unit {col.ids[1]}: negative vote count$"):
        col.with_votes(np.array([(1, 1), (2, -1), (-3, 2**53)]))
    with pytest.raises(GeometryError, match=f"^unit {col.ids[2]}: vote count above 2\\*\\*52$"):
        col.with_votes(np.array([(1, 1), (0, 0), (2**53, 0)]))
