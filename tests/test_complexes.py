"""Level schedules, cubical level-set filtrations, and adjacency flag complexes."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gerrytda import complexes
from gerrytda.complexes import (
    LevelSchedule,
    build_adjacency_filtration,
    detect_adjacency,
    flag_filtration,
    uniform_schedule,
)
from gerrytda.errors import (
    ComplexError,
    ParameterError,
    StructureError,
)
from gerrytda.geometry import Bounds
from gerrytda.ingest import VoteTable, join_units, parse_geojson, to_geojson
from gerrytda.raster import MarginMode, margin_field, rasterize
from gerrytda.synth import grid_mosaic, mosaic_votes
from oracles import (
    EXCLUDED,
    active_counts,
    adjacency_reference,
    betti_oracle,
    boundary,
    build_levelset_filtration,
    feature,
    field_from_array,
    flag_filtration_reference,
    from_cells,
    torus_complex,
    unit_map,
    vertex_levels,
)


def rect_unit(uid, x0, y0, x1, y1, dem=10, rep=10):
    return feature(uid, [[(x0, y0), (x1, y0), (x1, y1), (x0, y1)]], dem=dem, rep=rep)


# === schedules ===

def test_uniform_schedule_default():
    s = uniform_schedule(25)
    assert s.num_levels == 25
    assert s.thresholds[0] == pytest.approx(0.04)
    assert s.thresholds[12] == pytest.approx(0.52)
    assert s.thresholds[-1] == pytest.approx(1.0)


def test_uniform_schedule_two_levels():
    assert uniform_schedule(2).thresholds == (0.5, 1.0)


def test_uniform_schedule_reduced_max():
    s = uniform_schedule(20, max_margin=0.95)
    assert s.thresholds[0] == pytest.approx(0.0475)
    assert s.thresholds[-1] == pytest.approx(0.95)


def test_uniform_schedule_rejects_single_level():
    with pytest.raises(ParameterError):
        uniform_schedule(1)


def test_uniform_schedule_rejects_bad_max():
    with pytest.raises(ParameterError):
        uniform_schedule(10, max_margin=0.0)
    with pytest.raises(ParameterError):
        uniform_schedule(10, max_margin=1.5)


def test_schedule_must_increase():
    with pytest.raises(ParameterError):
        LevelSchedule((0.5, 0.5))
    with pytest.raises(ParameterError):
        LevelSchedule((0.9,))


# === level-set filtration ===

def sea_with_center(n, center_margin, sea=-0.8):
    v = np.full((n, n), sea)
    v[n // 2, n // 2] = center_margin
    return field_from_array(v)


def test_levelset_all_republican_block():
    cx = build_levelset_filtration(field_from_array(np.full((4, 4), -0.5)),
                                   uniform_schedule(25))
    assert set(cx.levels.tolist()) == {1}
    v, e, f = active_counts(cx, 1)
    assert (v, e, f) == (16, 24, 9)
    assert v - e + f == 1


def test_levelset_center_island_level():
    cx = build_levelset_filtration(sea_with_center(5, 0.5), uniform_schedule(25))
    # 24 sea vertices at level 1; the center waits for the first tau >= 0.5
    assert active_counts(cx, 1) == (24, 36, 12)
    v_levels = sorted(cx.levels[cx.dims == 0].tolist())
    assert v_levels == [1] * 24 + [13]
    assert active_counts(cx, 13) == (25, 40, 16)


def test_levelset_max_margin_island_never_enters():
    cx = build_levelset_filtration(sea_with_center(5, 1.0), uniform_schedule(25))
    assert active_counts(cx, 25) == (24, 36, 12)


def test_levelset_background_only_is_error():
    with pytest.raises(ComplexError):
        build_levelset_filtration(
            field_from_array(np.zeros((3, 3)), background=np.ones((3, 3), bool)),
            uniform_schedule(25))


def test_levelset_republican_polarity_mirrors():
    v = np.array([[0.5, -0.5]])
    dem = build_levelset_filtration(field_from_array(v), uniform_schedule(4),
                                    polarity="democratic")
    rep = build_levelset_filtration(field_from_array(-v), uniform_schedule(4),
                                    polarity="republican")
    assert dem.levels.tolist() == rep.levels.tolist()


def test_levelset_background_pixels_never_enter():
    v = np.full((3, 3), -0.2)
    bg = np.zeros((3, 3), bool)
    bg[1, 1] = True
    cx = build_levelset_filtration(field_from_array(v, background=bg),
                                   uniform_schedule(25))
    assert active_counts(cx, 25)[0] == 8


@settings(max_examples=60, deadline=None)
@given(cols=st.integers(1, 6), rows=st.integers(1, 5), seed=st.integers(0, 2**16),
       width=st.sampled_from([1, 2, 5, 16, 33]), pad=st.sampled_from([0.0, 1.5]),
       mode=st.sampled_from(list(MarginMode)),
       polarity=st.sampled_from(["democratic", "republican"]),
       levels=st.integers(2, 7), top=st.sampled_from([1.0, 0.6]))
@example(cols=6, rows=5, seed=0, width=1, pad=0.0, mode=MarginMode.DENSITY,
         polarity="republican", levels=4, top=1.0)
def test_unit_levels_through_the_labels_match_the_per_pixel_rule(cols, rows, seed, width, pad,
                                                                 mode, polarity, levels, top):
    units, _ = join_units(parse_geojson(json.dumps(grid_mosaic(cols, rows, seed=seed))),
                          VoteTable(*zip(*mosaic_votes(cols, rows, seed=seed))))
    b = units.bounds
    ras = rasterize(units, width, Bounds(b.minx - pad, b.miny, b.maxx + pad, b.maxy + pad))
    if width == 1 and pad == 0 and cols > 1:
        assert not ras.pixel_counts().all()  # one pixel column: some unit claims none
    field = margin_field(ras, units, mode)
    schedule = uniform_schedule(levels, top)
    want = vertex_levels(field.values, field.background, schedule, polarity)
    want[want == EXCLUDED] = levels + 1
    got = complexes._unit_levels(field, schedule, polarity)
    assert len(got) == len(units) + 1
    assert np.array_equal(got[field.labels], want)


def random_field(rng, h, w):
    v = rng.uniform(-1.0, 1.0, (h, w))
    bg = rng.random((h, w)) < 0.15
    if bg.all():
        bg[0, 0] = False
    return field_from_array(v, background=bg)


def test_levelset_closure_and_monotonicity():
    rng = np.random.default_rng(7)
    sched = uniform_schedule(8)
    for _ in range(25):
        cx = build_levelset_filtration(random_field(rng, rng.integers(1, 9),
                                                    rng.integers(1, 9)), sched)
        for c in range(len(cx)):
            for f in boundary(cx, c):
                assert cx.dims[f] == cx.dims[c] - 1
                assert cx.levels[f] <= cx.levels[c]
        counts = [active_counts(cx, lv) for lv in range(1, sched.num_levels + 1)]
        for a, b in zip(counts, counts[1:]):
            assert all(x <= y for x, y in zip(a, b))


def test_levelset_euler_matches_betti_oracle():
    rng = np.random.default_rng(11)
    sched = uniform_schedule(6)
    for _ in range(12):
        cx = build_levelset_filtration(random_field(rng, rng.integers(2, 7),
                                                    rng.integers(2, 7)), sched)
        for lv in range(1, sched.num_levels + 1):
            b0, b1, b2 = betti_oracle(cx, lv)
            v, e, f = active_counts(cx, lv)
            assert v - e + f == b0 - b1 + b2


def test_from_cells_rebuilds_random_cubical():
    # cells handed over one dimension at a time, each boundary shuffled:
    # from_cells must restore the filtration order and sorted boundaries
    rng = np.random.default_rng(13)
    sched = uniform_schedule(6)
    for _ in range(10):
        cx = build_levelset_filtration(random_field(rng, rng.integers(2, 8),
                                                    rng.integers(2, 8)), sched)
        order = np.argsort(cx.dims, kind="stable")
        pos = np.empty(len(cx), np.int64)
        pos[order] = np.arange(len(cx))
        cells = [(int(cx.dims[i]), int(cx.levels[i]),
                  [int(pos[f]) for f in rng.permutation(boundary(cx, i))])
                 for i in order.tolist()]
        rebuilt = from_cells(cells, cx.num_levels, cx.thresholds)
        for name in ("dims", "levels", "indptr", "indices"):
            want, got = getattr(cx, name), getattr(rebuilt, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_from_cells_rejects_face_after_coface():
    with pytest.raises(StructureError):
        from_cells(
            [(0, 1, ()), (0, 3, ()), (1, 2, (0, 1))], num_levels=3)


def test_boundary_naming_a_face_twice_rejected():
    # over GF(2) the two copies cancel, which the set-based reductions miss
    with pytest.raises(StructureError, match="face twice"):
        torus_complex(1, 3)  # each vertical edge is a loop at one vertex
    triangle = [(0, 1, ()), (0, 1, ()), (0, 1, ()),
                (1, 1, (0, 1)), (1, 1, (1, 2)), (1, 1, (0, 2))]
    from_cells(triangle + [(2, 1, (3, 4, 5))])
    for bad in ([(1, 1, (0, 0))], [(2, 1, (3, 4, 4))], [(2, 1, (3, 4, 5, 3))]):
        with pytest.raises(StructureError, match="face twice"):
            from_cells(triangle + bad)


def test_empty_complex_rejected():
    with pytest.raises(ComplexError):
        from_cells([], num_levels=1)


# === adjacency detection ===

def test_adjacency_shared_edge_is_both_kinds():
    units = unit_map([rect_unit("A", 0, 0, 1, 1), rect_unit("B", 1, 0, 2, 1)])
    assert detect_adjacency(units, "rook") == {("A", "B")}
    assert detect_adjacency(units, "queen") == {("A", "B")}


def test_adjacency_corner_touch_is_queen_only():
    units = unit_map([rect_unit("A", 0, 0, 1, 1), rect_unit("B", 1, 1, 2, 2)])
    assert detect_adjacency(units, "queen") == {("A", "B")}
    assert detect_adjacency(units, "rook") == set()


def test_adjacency_separated_is_neither():
    units = unit_map([rect_unit("A", 0, 0, 1, 1), rect_unit("B", 2, 0, 3, 1)])
    assert detect_adjacency(units, "queen") == set()
    assert detect_adjacency(units, "rook") == set()


def test_adjacency_partial_edge_overlap():
    # B's left edge covers only part of A's right edge, with no shared vertex
    units = unit_map([rect_unit("A", 0, 0, 1, 3), rect_unit("B", 1, 1, 2, 2)])
    assert detect_adjacency(units, "rook") == {("A", "B")}
    assert detect_adjacency(units, "queen") == {("A", "B")}


def test_adjacency_rejects_unknown_kind():
    units = unit_map([rect_unit("A", 0, 0, 1, 1)])
    with pytest.raises(ParameterError):
        detect_adjacency(units, "bishop")


def random_rect_tiling(rng, max_cells=5):
    xs = np.unique(rng.uniform(0, 10, rng.integers(1, max_cells)))
    ys = np.unique(rng.uniform(0, 10, rng.integers(1, max_cells)))
    xcuts = np.concatenate([[0.0], xs, [10.0]])
    ycuts = np.concatenate([[0.0], ys, [10.0]])
    units = []
    for i in range(len(xcuts) - 1):
        for j in range(len(ycuts) - 1):
            units.append(rect_unit(f"U{i}_{j}", xcuts[i], ycuts[j],
                                   xcuts[i + 1], ycuts[j + 1]))
    return unit_map(units)


def test_rook_subset_of_queen_on_random_tilings():
    rng = np.random.default_rng(3)
    for _ in range(10):
        units = random_rect_tiling(rng)
        rook = detect_adjacency(units, "rook")
        queen = detect_adjacency(units, "queen")
        assert rook <= queen


@settings(max_examples=60, deadline=None)
@given(cols=st.integers(1, 8), rows=st.integers(1, 8), seed=st.integers(0, 2**16),
       jitter=st.sampled_from([0.0, 0.2, 0.35]))
def test_adjacency_matches_grid_neighbours(cols, rows, seed, jitter):
    # a mosaic unit is one jittered grid cell: rook neighbours share a grid
    # side, queen neighbours also include the cells diagonally across a node
    units = parse_geojson(json.dumps(grid_mosaic(cols, rows, seed=seed, jitter=jitter)))

    def uid(r, c):
        return f"P{r * cols + c:04d}"

    rook, diagonal = set(), set()
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                rook.add((uid(r, c), uid(r, c + 1)))
            if r + 1 < rows:
                rook.add((uid(r, c), uid(r + 1, c)))
            if r + 1 < rows and c + 1 < cols:
                diagonal.add((uid(r, c), uid(r + 1, c + 1)))
                diagonal.add(tuple(sorted((uid(r, c + 1), uid(r + 1, c)))))
    assert detect_adjacency(units, "rook") == rook
    assert detect_adjacency(units, "queen") == rook | diagonal


def test_adjacency_of_no_unit_one_unit_and_disjoint_units():
    lone = rect_unit("A", 0, 0, 1, 1)
    apart = [rect_unit(f"U{k}", 3 * k, 5 * (k % 2), 3 * k + 1, 5 * (k % 2) + 1)
             for k in range(6)]
    for units in (unit_map([]), unit_map([lone]), unit_map(apart)):
        for kind in ("queen", "rook"):
            assert detect_adjacency(units, kind) == set()


def _rect(x0, y0, x1, y1):
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]


def _shrunk(ring, f):
    """The ring scaled by f about its vertex mean (a hole or island inside it)."""
    pts = np.asarray(ring[:-1], dtype=float)
    inner = (pts.mean(axis=0) + f * (pts - pts.mean(axis=0))).tolist()
    return inner + inner[:1]


def _split(ring, k):
    """The closed ring with every edge cut into k equal collinear pieces.

    The cut points are taken from the edge's lesser end, so two rings that
    share an edge share its cut points exactly.
    """
    out = []
    for p, q in zip(ring[:-1], ring[1:]):
        lo, hi = sorted([p, q])
        cuts = [[lo[0] + (hi[0] - lo[0]) * t / k, lo[1] + (hi[1] - lo[1]) * t / k]
                for t in range(1, k)]
        out += [p] + (cuts if lo is p else cuts[::-1])
    return out + out[:1]


@st.composite
def adjacency_maps(draw):
    """A FeatureCollection to cross-check detect_adjacency on.

    Either a guillotine tiling of rectangles, where edges meet in
    T-junctions and overlap only partly, or a jittered mosaic. Then units
    are removed (lakes). Either one unit gets a hole that is left empty or
    filled by an island unit, or the map moves far from the origin, where a
    coordinate's spacing is a fifteenth of the snap tolerance. Two units may
    merge into one MultiPolygon, and every edge may be cut into k = 2..6
    collinear pieces, so that a shared side is many edges in both units.
    Last, vertices may move by about the snap tolerance, and rings may run
    either way round.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        cells = [(0.0, 0.0, 10.0, 10.0)]
        for _ in range(draw(st.integers(0, 14))):
            x0, y0, x1, y1 = cells.pop(int(rng.integers(len(cells))))
            f = rng.uniform(0.2, 0.8)
            if rng.random() < 0.5:
                xm = x0 + f * (x1 - x0)
                cells += [(x0, y0, xm, y1), (xm, y0, x1, y1)]
            else:
                ym = y0 + f * (y1 - y0)
                cells += [(x0, y0, x1, ym), (x0, ym, x1, y1)]
        units = [[[_rect(*c)]] for c in cells]
    else:
        fc = grid_mosaic(draw(st.integers(1, 8)), draw(st.integers(1, 8)),
                         seed=draw(st.integers(0, 2**16)),
                         jitter=draw(st.sampled_from([0.0, 0.2, 0.35])))
        units = [[f["geometry"]["coordinates"]] for f in fc["features"]]
    units = [u for u in units if rng.random() >= 0.15] or units[:1]
    offset = draw(st.sampled_from([0.0, 0.0, 0.0, 5e6, -3.25e6]))
    if not offset and draw(st.booleans()):
        polygon = units[int(rng.integers(len(units)))][0]
        hole = _shrunk(polygon[0], rng.uniform(0.2, 0.6))
        polygon.append(hole[::-1])
        if rng.random() < 0.5:
            units.append([[hole]])
    if len(units) > 2 and draw(st.booleans()):
        a, b = rng.choice(len(units), 2, replace=False)
        units[a] = units[a] + units[b]
        del units[b]
    if draw(st.booleans()):
        k = draw(st.integers(2, 6))
        units = [[[_split(ring, k) for ring in polygon] for polygon in polygons]
                 for polygons in units]
    # moves each vertex apart from its copies in other rings, by about the
    # snap tolerance of a 10 x 10 map (1.4e-8)
    wobble = draw(st.sampled_from([0.0, 0.0, 1e-8, 3e-8]))

    def moved(ring):
        pts = np.asarray(ring[:-1]) + offset + rng.uniform(-wobble, wobble, (len(ring) - 1, 2))
        pts = pts if rng.random() < 0.5 else pts[::-1]
        return pts.tolist() + pts[:1].tolist()

    features = []
    for k, polygons in enumerate(units):
        coords = [[moved(ring) for ring in polygon] for polygon in polygons]
        features.append({"type": "Feature", "properties": {"id": f"U{k:03d}"},
                         "geometry": {"type": "MultiPolygon", "coordinates": coords}})
    return {"type": "FeatureCollection", "features": features}


@settings(max_examples=200, deadline=None)
@given(fc=adjacency_maps())
def test_adjacency_matches_reference(fc):
    units = parse_geojson(json.dumps(fc))
    for kind in ("queen", "rook"):
        assert detect_adjacency(units, kind) == adjacency_reference(units, kind)


def outer_box(units, i):
    """Unit i's (minx, miny, maxx, maxy) over the edge rows of its outer rings."""
    outers, _ = list(units.ring_spans())[i]
    v = np.concatenate([units.edges[a:b, :2] for a, b in outers])
    return [*v.min(axis=0).tolist(), *v.max(axis=0).tolist()]


def test_rook_contact_on_a_hole_edge_outside_the_outer_box():
    # A's hole pokes out of its outer square 0..4 to x = 5, where it runs
    # along B's side: only A's box over all its rows reaches B's edge at x = 5
    units = unit_map([
        feature("A", [[(0, 0), (4, 0), (4, 4), (0, 4)], [(2, 1), (2, 3), (5, 3), (5, 1)]]),
        feature("B", [[(5, 1), (8, 1), (8, 6), (4, 6), (4, 5), (5, 5)]])])
    assert outer_box(units, 0) == [0.0, 0.0, 4.0, 4.0]
    for kind in ("queen", "rook"):
        assert detect_adjacency(units, kind) == adjacency_reference(units, kind) == {("A", "B")}


@pytest.mark.parametrize("ring, rook", [
    ([(5, 1), (8, 1), (8, 3), (5, 3)], {("A", "B")}),  # along the hole's side at x = 5
    ([(5, 3), (8, 3), (8, 6), (6, 6)], set()),  # at the hole's vertex (5, 3) alone
], ids=["segment", "vertex"])
def test_contact_only_where_a_hole_pokes_out_of_its_outer_ring(ring, rook):
    # A's hole runs out of its outer square 0..4 to x = 5, and B meets only
    # that part: B's box lies 1 from A's outer box in x, but touches A's box
    # over all its rows
    units = unit_map([
        feature("A", [[(0, 0), (4, 0), (4, 4), (0, 4)], [(2, 1), (2, 3), (5, 3), (5, 1)]]),
        feature("B", [ring])])
    assert outer_box(units, 0) == [0.0, 0.0, 4.0, 4.0]
    assert detect_adjacency(units, "queen") == adjacency_reference(units, "queen") == {("A", "B")}
    assert detect_adjacency(units, "rook") == adjacency_reference(units, "rook") == rook


def test_adjacency_matches_reference_across_row_blocks():
    # about 5500 candidate pairs of 4-edge units: two chunks of about
    # complexes._ROW_BLOCK edge rows to prune, with lakes
    fc = grid_mosaic(60, 30, seed=5)
    rng = np.random.default_rng(5)
    fc["features"] = [f for f in fc["features"] if rng.random() >= 0.1]
    units = parse_geojson(json.dumps(fc))
    for kind in ("queen", "rook"):
        assert detect_adjacency(units, kind) == adjacency_reference(units, kind)


@settings(max_examples=100, deadline=None)
@given(fc=adjacency_maps(), block=st.integers(1, 50))
def test_adjacency_matches_reference_in_small_blocks(fc, block):
    # blocks of a few (edge, edge) rows cut pairs' cross products apart
    units = parse_geojson(json.dumps(fc))
    with mock.patch.object(complexes, "_ROW_BLOCK", block):
        for kind in ("queen", "rook"):
            assert detect_adjacency(units, kind) == adjacency_reference(units, kind)


# === flag filtration from win margins ===

def three_mutual_units(margins, dems=None):
    # T-junction layout: all three rectangles pairwise share an edge
    boxes = [("A", 0, 0, 2, 1), ("B", 0, 1, 1, 2), ("C", 1, 1, 2, 2)]
    units = []
    for (uid, x0, y0, x1, y1), m in zip(boxes, margins):
        total = 1000
        rep = int(round(total * (1 + m) / 2))
        units.append(rect_unit(uid, x0, y0, x1, y1, dem=total - rep, rep=rep))
    return unit_map(units)


def test_flag_landslide_triangle_at_level_one():
    units = three_mutual_units([1.0, 1.0, 1.0])
    cx = build_adjacency_filtration(units, uniform_schedule(25), kind="rook")
    assert active_counts(cx, 1) == (3, 3, 1)
    assert set(cx.levels.tolist()) == {1}


def test_flag_two_step_sweep_entry():
    # thresholds 0.90 then 0.95: a 0.93 winner misses the first cut only
    sched = LevelSchedule((0.90, 0.95))
    units = unit_map([rect_unit("A", 0, 0, 1, 1, dem=35, rep=965)])
    cx = build_adjacency_filtration(units, sched)
    assert len(cx) == 1
    assert int(cx.levels[0]) == 2


def test_flag_democratic_winner_never_included():
    units = three_mutual_units([1.0, -0.5, 1.0])
    cx = build_adjacency_filtration(units, uniform_schedule(25), kind="rook")
    assert active_counts(cx, 25) == (2, 1, 0)


def test_flag_democratic_polarity():
    units = three_mutual_units([1.0, -0.5, 1.0])
    cx = build_adjacency_filtration(units, uniform_schedule(25), kind="rook",
                                    party="democratic")
    assert active_counts(cx, 25) == (1, 0, 0)


def test_flag_margin_below_first_threshold_excluded():
    # descending sweep stops at tau_1; a 0.3 winner under max_margin 0.5 =
    # thresholds (0.25, 0.5) enters at step 2, but under (0.4, 0.8) never
    u = [rect_unit("A", 0, 0, 1, 1, dem=35, rep=65)]
    cx = build_adjacency_filtration(unit_map(u), LevelSchedule((0.25, 0.5)))
    assert int(cx.levels[0]) == 2
    with pytest.raises(ComplexError):
        build_adjacency_filtration(unit_map(u), LevelSchedule((0.4, 0.8)))


def test_flag_edge_level_is_max_of_endpoints():
    cx = flag_filtration([1, 3, 2], [(0, 1), (1, 2), (0, 2)], num_levels=3)
    edges = {tuple(sorted(boundary(cx, i).tolist())): int(cx.levels[i])
             for i in np.flatnonzero(cx.dims == 1)}
    vert_level = {i: int(cx.levels[i]) for i in np.flatnonzero(cx.dims == 0).tolist()}
    for (u, v), lv in edges.items():
        assert lv == max(vert_level[u], vert_level[v])
    tri = np.flatnonzero(cx.dims == 2)
    assert len(tri) == 1 and cx.levels[tri[0]] == 3


def test_flag_excluded_vertices_drop_their_edges():
    cx = flag_filtration([1, -1, 2], [(0, 1), (1, 2), (0, 2)], num_levels=3)
    assert active_counts(cx, 3) == (2, 1, 0)


def test_tied_unit_never_enters_sweep():
    units = unit_map([rect_unit("A", 0, 0, 1, 1, dem=50, rep=50),
                      rect_unit("B", 1, 0, 2, 1, dem=10, rep=90)])
    cx = build_adjacency_filtration(units, uniform_schedule(25))
    assert active_counts(cx, 25) == (1, 0, 0)


def assert_same_complex(a, b):
    for name in ("dims", "levels", "indptr", "indices"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert (a.num_levels, a.thresholds) == (b.num_levels, b.thresholds)


@st.composite
def flag_inputs(draw):
    """Vertex levels (0, -1 and levels above num_levels never enter) and an
    edge list with self-loops and duplicates in both orientations."""
    n = draw(st.integers(1, 14))
    num_levels = draw(st.integers(1, 5))
    levels = draw(st.lists(st.integers(-1, num_levels + 2), min_size=n, max_size=n))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=50))
    if edges:
        again = draw(st.lists(st.sampled_from(edges), max_size=10))
        edges += [e if draw(st.booleans()) else e[::-1] for e in again]
        edges = draw(st.permutations(edges))
    return levels, edges, num_levels


@settings(max_examples=300, deadline=None)
@given(case=flag_inputs(), thresholds=st.sampled_from([None, (0.5, 1.0)]))
def test_flag_filtration_matches_reference(case, thresholds):
    levels, edges, num_levels = case
    if not any(1 <= lv <= num_levels for lv in levels):
        for build in (flag_filtration, flag_filtration_reference):
            with pytest.raises(ComplexError):
                build(levels, edges, num_levels, thresholds)
        return
    assert_same_complex(flag_filtration(levels, (e for e in edges), num_levels, thresholds),
                        flag_filtration_reference(levels, edges, num_levels, thresholds))


def test_flag_filtration_without_edges():
    cx = flag_filtration([2, 0, 1], [], num_levels=3)
    assert_same_complex(cx, flag_filtration_reference([2, 0, 1], [], 3))
    assert active_counts(cx, 3) == (2, 0, 0)


# === one adjacency per map ===

def shuffled_id_map(cols, rows, seed):
    """A mosaic whose ids sort in an order unrelated to the feature order, as
    GeoJSON text, and two years of votes for it."""
    rng = np.random.default_rng(seed)
    fc = grid_mosaic(cols, rows, seed=seed)
    names = [f"u{k}" for k in rng.permutation(cols * rows)]
    for f, name in zip(fc["features"], names):
        f["properties"]["id"] = name
    years = [VoteTable(names, rng.integers(1, 100, len(names)), rng.integers(1, 100, len(names)))
             for _ in range(2)]
    return json.dumps(fc), years


def string_route_complex(units, schedule, kind):
    """build_adjacency_filtration as it was before the memo: id pairs,
    sorted, mapped back to indices."""
    L = schedule.num_levels
    levels = []
    for dem, rep in zip(units.dem.tolist(), units.rep.tolist()):
        k = sum(t <= abs(dem - rep) / (dem + rep) for t in schedule.thresholds)  # win margin
        levels.append(L + 1 - k if rep > dem and k else -1)
    index = {uid: i for i, uid in enumerate(units.ids)}
    pairs = [(index[a], index[b]) for a, b in sorted(adjacency_reference(units, kind))]
    return flag_filtration_reference(levels, pairs, L)


def test_joins_of_one_map_match_a_freshly_parsed_map():
    text, years = shuffled_id_map(9, 7, seed=4)
    geo = parse_geojson(text)
    schedule = uniform_schedule(10)
    for votes in years:
        shared, _ = join_units(geo, votes)
        fresh, _ = join_units(parse_geojson(text), votes)
        for kind in ("queen", "rook"):
            cx = build_adjacency_filtration(shared, schedule, kind)
            assert_same_complex(cx, build_adjacency_filtration(fresh, schedule, kind))
            assert_same_complex(cx, string_route_complex(fresh, schedule, kind))


def test_adjacency_found_once_per_map_for_both_kinds(monkeypatch):
    calls = []
    keys = complexes._adjacency_keys
    monkeypatch.setattr(complexes, "_adjacency_keys",
                        lambda units: calls.append(len(units)) or keys(units))
    text, years = shuffled_id_map(5, 4, seed=2)
    geo = parse_geojson(text)
    for votes in years:
        units, _ = join_units(geo, votes)
        for kind in ("queen", "rook"):
            build_adjacency_filtration(units, uniform_schedule(5), kind)
            detect_adjacency(units, kind)
    detect_adjacency(geo, "rook")
    assert calls == [len(geo)]  # one detection for both kinds and every join
    detect_adjacency(parse_geojson(text), "rook")
    assert calls == [len(geo), len(geo)]


def test_changing_the_adjacency_set_changes_no_later_answer():
    units = parse_geojson(json.dumps(grid_mosaic(4, 3, seed=1)))
    first = detect_adjacency(units, "rook")
    want = set(first)
    first.clear()
    second = detect_adjacency(units, "rook")
    assert second == want
    second.add(("P0000", "P0011"))
    assert detect_adjacency(units, "rook") == want


def test_separately_built_maps_never_share_an_answer():
    # the same ids on differently shaped maps, and one map's units reordered
    votes = VoteTable(*zip(*mosaic_votes(4, 3, seed=1)))
    wide, _ = join_units(parse_geojson(json.dumps(grid_mosaic(4, 3, seed=1))), votes)
    tall, _ = join_units(parse_geojson(json.dumps(grid_mosaic(3, 4, seed=1))), votes)
    backwards = unit_map(to_geojson(wide)["features"][::-1])
    for kind in ("queen", "rook"):
        answers = [detect_adjacency(units, kind) for units in (wide, tall, backwards)]
        assert answers[0] != answers[1]
        for units, got in zip((wide, tall, backwards), answers):
            assert got == adjacency_reference(units, kind)
        schedule = uniform_schedule(5)
        assert_same_complex(build_adjacency_filtration(backwards, schedule, kind),
                            string_route_complex(backwards, schedule, kind))
