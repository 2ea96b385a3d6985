"""Boundary-matrix reduction, barcodes, and the independent Betti oracle.

The oracle (oracles.betti_oracle, Gaussian elimination ranks) and the
reduction pairing are two routes to the same Betti numbers; the equivalence
tests here keep them honest against each other on randomized complexes. The
pairing (_pairing) is held to the plain column loop (oracles.reduce_reference),
and the image route, levelset_barcode, to the reduction's barcode on random
fields and on the maps of acceptance gate 8 at width 64, and to the Euler
curve (oracles.euler_curve) on random fields and on gate 8 at width 1024.
"""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gerrytda.complexes import build_adjacency_filtration, flag_filtration, uniform_schedule
from gerrytda.persistence import (
    INF,
    Barcode,
    PersistencePair,
    _pairing,
    barcode,
    levelset_barcode,
    read_barcode_json,
)
from gerrytda.errors import ComplexError
from gerrytda.ingest import join_units, parse_geojson, parse_votes_csv
from gerrytda.raster import margin_field, rasterize
from gerrytda.synth import (
    aggregate_band_votes,
    band_districts,
    grid_mosaic,
    mosaic_votes,
    votes_csv_text,
)
from oracles import (
    betti_oracle,
    build_levelset_filtration,
    euler_curve,
    field_from_array,
    from_cells,
    reduce_reference,
    torus_complex,
)


def triangle_filtration():
    # a, b, c born first; edges ab, bc close a path; ca closes the loop,
    # which the filled triangle kills one level later
    return from_cells([
        (0, 0, ()),        # 0 a
        (0, 0, ()),        # 1 b
        (0, 0, ()),        # 2 c
        (1, 1, (0, 1)),    # 3 ab
        (1, 1, (1, 2)),    # 4 bc
        (1, 2, (2, 0)),    # 5 ca
        (2, 3, (3, 4, 5)),  # 6 abc
    ], num_levels=3)


# === the pairing ===

def pairing(cx):
    """_pairing as the reference gives it: (birth, death) pairs by birth,
    the unpaired cells, and the low of every cell's reduced column."""
    births, deaths, essential = _pairing(cx)
    lows = np.full(len(cx), -1)
    lows[deaths] = births
    pairs = tuple(sorted(zip(births.tolist(), deaths.tolist())))
    return pairs, tuple(essential.tolist()), lows.tolist()


def test_reduce_triangle_worked_example():
    pairs, essential, _ = pairing(triangle_filtration())
    assert pairs == ((1, 3), (2, 4), (5, 6))
    assert essential == (0,)


def test_reduce_two_isolated_vertices():
    cx = from_cells([(0, 1, ()), (0, 1, ())], num_levels=1)
    pairs, essential, _ = pairing(cx)
    assert pairs == ()
    assert essential == (0, 1)


def test_reduce_lows_are_unique_and_match_pairs():
    pairs, essential, low = pairing(triangle_filtration())
    lows = {}
    for _, j in pairs:
        lows[low[j]] = j
    assert sorted(lows.keys()) == [i for i, _ in sorted(pairs)]
    for i, j in pairs:
        assert low[j] == i
    for i in essential:
        assert low[i] == -1


def test_reduce_is_partial_matching():
    rng = np.random.default_rng(5)
    field = field_from_array(rng.uniform(-1, 1, (8, 8)))
    cx = build_levelset_filtration(field, uniform_schedule(6))
    pairs, essential, low = pairing(cx)
    seen = [i for pair in pairs for i in pair] + list(essential)
    assert len(seen) == len(set(seen)) == len(cx)
    assert all(low[j] == i for i, j in pairs)


@st.composite
def clique_flag_complexes(draw):
    # levels -1, 0 and 5 never enter; vertex 0 always does. Edges come in
    # either orientation, repeated and as self-loops, and planted K4s and
    # K5s fill tetrahedra whose last triangle is not an apparent pair
    n = draw(st.integers(1, 10))
    levels = [draw(st.integers(1, 4))] + draw(st.lists(
        st.sampled_from([-1, 0, 5, 1, 2, 3, 4]), min_size=n - 1, max_size=n - 1))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=30))
    if n >= 4:
        for clique in draw(st.lists(st.lists(vertex, min_size=4, max_size=5, unique=True),
                                    max_size=2)):
            edges += [(a, b) for k, a in enumerate(clique) for b in clique[k + 1:]]
    return flag_filtration(levels, draw(st.permutations(edges)), num_levels=4)


@st.composite
def cubical_complexes(draw):
    field, schedule, polarity = draw(level_sweeps())
    try:
        return build_levelset_filtration(field, schedule, polarity)
    except ComplexError:  # no pixel ever enters
        return draw(clique_flag_complexes())


@settings(max_examples=400, deadline=None)
@given(st.one_of(clique_flag_complexes(), cubical_complexes(),
                 st.builds(torus_complex, st.integers(2, 5), st.integers(2, 5),
                           st.integers(1, 3))))
@example(torus_complex())
@example(triangle_filtration())
# leftover edge 7 pivots on triangle 9, which apparent edge 8 owns, so its
# reduction adds edge 8's cofaces before it pairs with triangle 10
@example(flag_filtration([2, 2, 2, 3], [(1, 2), (0, 1), (0, 3), (1, 3), (2, 3)], num_levels=3))
# a hollow tetrahedron: leftover edge 8 pairs with triangle 11; leftover edge
# 7 adds apparent edge 9's cofaces, then edge 8's reduced column, and pairs
# with triangle 12; triangle 13 is an essential H2 class
@example(flag_filtration([2, 2, 3, 3], [(0, 3), (1, 2), (1, 3), (0, 2), (0, 1), (2, 3)],
                         num_levels=3))
def test_reduce_matches_reference(cx):
    pairs, essential, low = pairing(cx)
    expected = reduce_reference(cx)
    assert pairs == expected.pairs
    assert essential == expected.essential
    assert low == [expected.low(j) for j in range(len(cx))]


# === barcode ===

def sea_with_center(n, center_margin, sea=-0.8):
    v = np.full((n, n), sea)
    v[n // 2, n // 2] = center_margin
    return field_from_array(v)


def test_barcode_triangle_example():
    bc = barcode(triangle_filtration())
    assert bc.bars(0) == (PersistencePair(0, 0, 1.0), PersistencePair(0, 0, 1.0),
                          PersistencePair(0, 0, INF))
    assert bc.bars(1) == (PersistencePair(1, 2, 3.0),)


def test_barcode_island_dies_at_level_13():
    bc = barcode(build_levelset_filtration(sea_with_center(5, 0.5),
                                           uniform_schedule(25)))
    assert [(p.birth, p.death) for p in bc.bars(1)] == [(1, 13)]
    assert [(p.birth, p.death) for p in bc.bars(0)] == [(1, INF)]


def test_barcode_all_republican_block():
    bc = barcode(build_levelset_filtration(field_from_array(np.full((4, 4), -0.3)),
                                           uniform_schedule(25)))
    assert [(p.birth, p.death) for p in bc.bars(0)] == [(1, INF)]
    assert bc.bars(1) == ()


def test_barcode_two_islands_strength_orders_length():
    v = np.full((5, 9), -0.8)
    v[2, 2] = 0.3
    v[2, 6] = 0.9
    bc = barcode(build_levelset_filtration(field_from_array(v),
                                           uniform_schedule(25)))
    deaths = sorted(p.death for p in bc.bars(1))
    assert deaths == [8, 23]
    assert all(p.birth == 1 for p in bc.bars(1))


def test_barcode_max_margin_island_is_essential():
    bc = barcode(build_levelset_filtration(sea_with_center(5, 1.0),
                                           uniform_schedule(25)))
    assert [(p.birth, p.death) for p in bc.bars(1)] == [(1, INF)]


def test_barcode_drops_zero_length_bars():
    # both edges enter with their vertices, killing components instantly
    cx = from_cells([
        (0, 1, ()), (0, 1, ()), (0, 1, ()),
        (1, 1, (0, 1)), (1, 1, (1, 2)),
    ], num_levels=1)
    bc = barcode(cx)
    assert bc.bars(0) == (PersistencePair(0, 1, INF),)


def test_torus_betti_numbers():
    cx = torus_complex()
    assert len(cx) == 64
    assert betti_oracle(cx, 1) == (1, 2, 1)
    bc = barcode(cx)
    assert len(bc.bars(0)) == 1 and len(bc.bars(1)) == 2 and len(bc.bars(2)) == 1
    assert all(p.essential for p in bc.pairs)


# === betti oracle fixtures ===

def test_betti_hollow_tetrahedron():
    cx = from_cells([
        (0, 1, ()), (0, 1, ()), (0, 1, ()), (0, 1, ()),
        (1, 1, (0, 1)), (1, 1, (0, 2)), (1, 1, (0, 3)),
        (1, 1, (1, 2)), (1, 1, (1, 3)), (1, 1, (2, 3)),
        (2, 1, (4, 5, 7)), (2, 1, (4, 6, 8)),
        (2, 1, (5, 6, 9)), (2, 1, (7, 8, 9)),
    ], num_levels=1)
    assert betti_oracle(cx, 1) == (1, 0, 1)


def test_betti_triangle_boundary():
    cx = from_cells([
        (0, 1, ()), (0, 1, ()), (0, 1, ()),
        (1, 1, (0, 1)), (1, 1, (1, 2)), (1, 1, (0, 2)),
    ], num_levels=1)
    assert betti_oracle(cx, 1) == (1, 1, 0)


def test_betti_two_complete_graphs():
    # two disjoint K4s, kept 1-dimensional: per component beta_1 = 6 - 4 + 1
    cells = []
    for base in (0, 4):
        for _ in range(4):
            cells.append((0, 1, ()))
    for base in (0, 4):
        for i in range(4):
            for j in range(i + 1, 4):
                cells.append((1, 1, (base + i, base + j)))
    cx = from_cells(cells, num_levels=1)
    assert betti_oracle(cx, 1) == (2, 6, 0)


def test_betti_profile_island():
    cx = build_levelset_filtration(sea_with_center(5, 0.5), uniform_schedule(25))
    assert betti_oracle(cx, 1) == (1, 1, 0)
    assert betti_oracle(cx, 12) == (1, 1, 0)
    assert betti_oracle(cx, 13) == (1, 0, 0)
    assert betti_oracle(cx, 25) == (1, 0, 0)


# === oracle equivalence on randomized complexes ===

def random_cubical(rng):
    h, w = rng.integers(2, 13), rng.integers(2, 13)
    v = rng.uniform(-1, 1, (h, w))
    bg = rng.random((h, w)) < 0.1
    if bg.all():
        bg[0, 0] = False
    return build_levelset_filtration(field_from_array(v, background=bg),
                                     uniform_schedule(5))


def assert_alive_bars_equal_oracle(cx):
    bc = barcode(cx)
    for lv in range(1, cx.num_levels + 1):
        betti = betti_oracle(cx, lv)
        for dim in range(3):
            assert bc.alive(lv, dim) == betti[dim], (lv, dim)


@pytest.mark.parametrize("builder,seed", [(random_cubical, 17)])
def test_alive_bars_equal_oracle(builder, seed):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        assert_alive_bars_equal_oracle(builder(rng))


@st.composite
def flag_complexes(draw):
    # level -1 never enters; vertex 0 always does, so the complex is non-empty
    n = draw(st.integers(1, 12))
    levels = [draw(st.integers(1, 4))] + draw(st.lists(
        st.sampled_from([-1, 1, 2, 3, 4]), min_size=n - 1, max_size=n - 1))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return flag_filtration(levels, [e for e, k in zip(pairs, keep) if k], num_levels=4)


@settings(max_examples=200, deadline=None)
@given(flag_complexes())
def test_flag_alive_bars_equal_oracle(cx):
    assert_alive_bars_equal_oracle(cx)


# sha256 of Barcode.dumps() on a 24 x 8 mosaic: pins the adjacency route
# (ingest, adjacency, flag filtration, reduction) end to end
ADJACENCY_DIGESTS = {
    "queen": "4649d597064777252ad38cd3a20be67fd5d6bc47a5aacb1b5621234387d0073f",
    "rook": "64fbf4da8bc2b5fbe850af40855f1d109b0c5788ddba7d59a0318ead7a52dd40",
}


@pytest.mark.parametrize("kind", ["queen", "rook"])
def test_adjacency_barcode_digests(kind):
    geo = parse_geojson(json.dumps(grid_mosaic(24, 8, seed=3)))
    votes = parse_votes_csv(votes_csv_text(mosaic_votes(24, 8, seed=3)))
    units, _ = join_units(geo, votes)
    bc = barcode(build_adjacency_filtration(units, uniform_schedule(25), kind))
    assert hashlib.sha256(bc.dumps().encode()).hexdigest() == ADJACENCY_DIGESTS[kind]


def test_pairing_peak_memory_on_the_gate_8_queen_complex(gate_8_layers):
    # measured tracemalloc peak: 1.68 MiB, with cofaces looked up per edge in
    # the sorted face column; the set loop over every non-apparent triangle
    # took 2.78 MiB, and a Python list of every cell's cofaces alone 1.45 MiB
    cx = build_adjacency_filtration(gate_8_layers[0], uniform_schedule(25), "queen")
    tracemalloc.start()
    try:
        _pairing(cx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


# === image route against the reduction ===

@st.composite
def level_sweeps(draw):
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    h, w = draw(st.sampled_from([(1, w), (h, 1)] + [(h, w)] * 4))
    levels, top = draw(st.integers(2, 7)), draw(st.sampled_from([1.0, 0.6]))
    # margins on the thresholds make plateaus; -1 and 1 saturate
    margin = st.one_of(st.integers(-1, levels).map(lambda k: k * top / levels),
                       st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0))
    values = draw(st.lists(margin, min_size=h * w, max_size=h * w))
    background = draw(st.lists(st.sampled_from([False] * 4 + [True]),
                               min_size=h * w, max_size=h * w))
    field = field_from_array(np.reshape(values, (h, w)),
                             background=np.reshape(background, (h, w)))
    return (field, uniform_schedule(levels, top),
            draw(st.sampled_from(["democratic", "republican"])))


# a sea frame around two basins split by a wall at level 2: the basin that
# fills last (level 4) keeps the hole born at level 1
TWO_BASINS = np.array([[-1, -1, -1, -1, -1, -1, -1],
                       [-1, 0.8, 0.8, 0.4, 0.6, 0.6, -1],
                       [-1, 0.8, 0.8, 0.4, 0.6, 0.6, -1],
                       [-1, -1, -1, -1, -1, -1, -1]])


@settings(max_examples=300, deadline=None)
@given(level_sweeps())
@example((field_from_array(TWO_BASINS), uniform_schedule(5), "democratic"))
# the younger of two components dies at their merge (level 4); then three
# fields on which no pixel ever activates
@example((field_from_array([[-1.0, 0.9, 0.3]]), uniform_schedule(4), "democratic"))
@example((field_from_array(np.ones((2, 3))), uniform_schedule(4), "democratic"))
@example((field_from_array(-np.ones((3, 1))), uniform_schedule(4), "republican"))
@example((field_from_array(np.zeros((2, 2)), background=np.ones((2, 2))),
          uniform_schedule(3), "democratic"))
def test_levelset_barcode_matches_reduction(sweep):
    field, schedule, polarity = sweep
    try:
        expected = barcode(build_levelset_filtration(field, schedule, polarity))
    except ComplexError:  # no pixel ever enters: no bars
        assert levelset_barcode(field, schedule, polarity) == \
            Barcode((), schedule.num_levels, schedule.thresholds)
        return
    got = levelset_barcode(field, schedule, polarity)
    assert got.dumps() == expected.dumps()
    assert got == expected


def alive_difference(bc):
    """H0 bars alive minus H1 bars alive, at each level 1..L."""
    return [bc.alive(lv, 0) - bc.alive(lv, 1) for lv in range(1, bc.num_levels + 1)]


@settings(max_examples=300, deadline=None)
@given(level_sweeps())
@example((field_from_array(TWO_BASINS), uniform_schedule(5), "democratic"))
def test_levelset_barcode_obeys_the_euler_curve(sweep):
    assert alive_difference(levelset_barcode(*sweep)) == euler_curve(*sweep).tolist()


def reduction_barcode(field, schedule, polarity):
    """The reduction's barcode of the field, or no bars if no pixel ever enters."""
    try:
        return barcode(build_levelset_filtration(field, schedule, polarity))
    except ComplexError:
        return Barcode((), schedule.num_levels, schedule.thresholds)


@st.composite
def long_row_sweeps(draw):
    """1-3 rows of up to 64 columns, each cut into runs of 2-4 values.

    levelset_barcode works on row runs: these fields vary where runs and
    rows end and which runs meet only diagonally at a run's end.
    """
    h, w = draw(st.integers(1, 3)), draw(st.integers(1, 64))
    levels, top = draw(st.integers(2, 7)), draw(st.sampled_from([1.0, 0.6]))
    margin = st.one_of(st.integers(-1, levels).map(lambda k: k * top / levels),
                       st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0))
    palette = draw(st.lists(st.tuples(margin, st.sampled_from([False] * 4 + [True])),
                            min_size=2, max_size=4))
    values, background = np.zeros((h, w)), np.zeros((h, w), dtype=bool)
    for row in range(h):
        cuts = sorted(draw(st.sets(st.integers(1, w), max_size=w // 4 + 1)))
        for run in np.split(np.arange(w), cuts):
            values[row, run], background[row, run] = draw(st.sampled_from(palette))
    return (field_from_array(values, background=background), uniform_schedule(levels, top),
            draw(st.sampled_from(["democratic", "republican"])))


@settings(max_examples=300, deadline=None)
@given(long_row_sweeps())
def test_levelset_barcode_matches_reduction_on_long_rows(sweep):
    got, expected = levelset_barcode(*sweep), reduction_barcode(*sweep)
    assert got.dumps() == expected.dumps()
    assert got == expected


@pytest.fixture(scope="module")
def gate_8_layers():
    """Acceptance gate 8's precincts and band districts, with their shared bounds."""
    cols, rows, bands = 97, 28, 14
    votes = mosaic_votes(cols, rows, seed=0)
    precincts, _ = join_units(parse_geojson(json.dumps(grid_mosaic(cols, rows, seed=0))),
                              parse_votes_csv(votes_csv_text(votes)))
    districts, _ = join_units(parse_geojson(json.dumps(band_districts(cols, rows, bands))),
                              parse_votes_csv(votes_csv_text(
                                  aggregate_band_votes(cols, rows, bands, votes))))
    return precincts, districts, precincts.bounds.union(districts.bounds)


@pytest.mark.parametrize("polarity", ["democratic", "republican"])
@pytest.mark.parametrize("mode", ["density", "relative"])
def test_levelset_barcode_matches_reduction_on_the_gate_8_mosaic(gate_8_layers, mode, polarity):
    precincts, districts, bounds = gate_8_layers
    schedule = uniform_schedule(25)
    for units in (precincts, districts):
        field = margin_field(rasterize(units, 64, bounds), units, mode)
        got = levelset_barcode(field, schedule, polarity)
        assert got.pairs
        assert got == reduction_barcode(field, schedule, polarity)


@pytest.mark.parametrize("polarity", ["democratic", "republican"])
@pytest.mark.parametrize("mode", ["density", "relative"])
def test_levelset_barcode_obeys_the_euler_curve_on_the_gate_8_mosaic(gate_8_layers, mode,
                                                                     polarity):
    # beyond the reduction's reach: the widths users run
    precincts, districts, bounds = gate_8_layers
    schedule = uniform_schedule(25)
    for units in (precincts, districts):
        field = margin_field(rasterize(units, 1024, bounds), units, mode)
        got = levelset_barcode(field, schedule, polarity)
        assert got.pairs
        assert alive_difference(got) == euler_curve(field, schedule, polarity).tolist()


@pytest.mark.parametrize("polarity", ["democratic", "republican"])
def test_levelset_barcode_peak_memory_on_the_gate_8_precincts(gate_8_layers, polarity):
    # measured tracemalloc peak at width 2048, density: 15.1 MiB either way,
    # with each pixel's level gathered from its unit's and each pixel-sized
    # image freed once read; the per-pixel rule on the float image
    # (oracles.vertex_levels) made it 19.7 MiB, and keeping the images until
    # the return made the republican sweep, which cuts more runs, 19.8 MiB
    precincts, _, bounds = gate_8_layers
    field = margin_field(rasterize(precincts, 2048, bounds), precincts, "density")
    schedule = uniform_schedule(25)
    levelset_barcode(field, schedule, polarity)  # scipy's imports are not the call's
    tracemalloc.start()
    try:
        levelset_barcode(field, schedule, polarity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# === serialization ===

def test_barcode_json_uses_threshold_units():
    bc = barcode(build_levelset_filtration(sea_with_center(5, 0.5),
                                           uniform_schedule(25)))
    doc = bc.to_json()
    assert doc["num_levels"] == 25
    assert "units" not in doc
    h1 = [p for p in doc["pairs"] if p["dim"] == 1]
    assert h1 == [{"dim": 1, "birth": pytest.approx(0.04),
                   "death": pytest.approx(0.52)}]
    h0 = [p for p in doc["pairs"] if p["dim"] == 0]
    assert h0 == [{"dim": 0, "birth": pytest.approx(0.04), "death": "inf"}]


def test_barcode_json_level_units_flag():
    bc = barcode(triangle_filtration())  # no thresholds: level units
    doc = bc.to_json()
    assert doc["units"] == "level"
    assert {"dim": 1, "birth": 2.0, "death": 3.0} in doc["pairs"]


def test_barcode_json_round_trip():
    bc = barcode(build_levelset_filtration(sea_with_center(5, 1.0),
                                           uniform_schedule(25)))
    diagrams, levels = read_barcode_json(json.loads(bc.dumps()))
    assert levels == 25
    assert diagrams[1] == [(0.04, INF)]
    assert diagrams[0] == [(0.04, INF)]


def test_barcode_alive_counts():
    bc = Barcode((PersistencePair(1, 1, 13.0), PersistencePair(1, 1, INF)), 25)
    assert bc.alive(1, 1) == 2
    assert bc.alive(12, 1) == 2
    assert bc.alive(13, 1) == 1
    assert bc.alive(25, 1) == 1
    assert bc.alive(25, 0) == 0
