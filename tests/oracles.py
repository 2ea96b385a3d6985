"""Brute-force oracles shared by the unit and acceptance tests.

Everything here trades speed for obviousness: exhaustive enumeration and
direct quadrature, no shared code with the library paths under test. The
adjacency references are the library's former per-unit and per-edge loop
versions of detect_adjacency and flag_filtration; the flag reference shares
only the final sort into filtration order (complexes._sorted_complex).
reduce_reference is the library's former reduce, every column through one
set-based GF(2) loop, which persistence._pairing is held to. unit_margin is
the library's former per-unit margin, Python int / int, which
raster.margin_field is held to bit for bit. parse_votes_reference is the
library's former votes parser, one csv row at a time, which
ingest.parse_votes_csv is held to row for row and message for message.
compactness_reference is the library's former per-unit scores over Ring and
PolygonSet built from the raw features, which compactness.score_units is
held to bit for bit; it shares only the enclosing-circle solver, held to
brute_min_enclosing_circle, and finds the circle about the unit's first
vertex by the library's rule. point_in_unit is the former point_in_polygon,
the even-odd rule over one unit's edge rows, which the scanline fill of
raster.rasterize is held to pixel for pixel at pixel_center, the former
Grid.center.

These moved here from the library unchanged, as the references that its
routes are held to:

* Ring and PolygonSet, the former per-unit polygon objects: parse_geojson's
  edge and area columns are held to them bit for bit, and
  geometry.hole_owners to PolygonSet's hole placement, by centroid, on
  holes that hold their centroid (test_ingest's assert_same_units). Their
  areas follow the library's one rule, written again ring by ring: each
  ring's cross products about its first vertex, and a unit's outer rings
  less its holes, each summed by np.add.reduceat
  (np.sum adds in another order, and can differ in the last bit).
* build_levelset_filtration, the cubical level-set complex of a field, with
  field_from_array to wrap a raw array as a field: persistence.levelset_barcode
  is held to barcode() of it, pair for pair.
* betti_oracle and _gf2_rank, Betti numbers by GF(2) ranks of the boundary
  operators at one level: the bars that barcode() leaves alive at each level
  are held to them.
* from_cells, boundary and active_counts, the former FilteredComplex methods
  that build a complex from cell triples and read it back, and torus_complex,
  the periodic grid whose Betti numbers are known: fixtures for both checks.

* BarcodeReference, the former Barcode, a tuple of PersistencePairs that
  each method loops over: Barcode's columns are held to it method for
  method, and byte for byte in dumps().

euler_curve is V - E + F of a field's active cubical complex at each level,
which the H0 minus H1 bars alive in levelset_barcode are held to at any
width, beyond the reach of the complex reference. Both it and
build_levelset_filtration take each pixel's entry level from vertex_levels,
the library's former per-pixel rule on the field's values and background
images; complexes._unit_levels, read through the labels, is held to it.

unit_map is not an oracle: it builds every test map the one way the library
builds one, GeoJSON through parse_geojson, from feature dicts.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Sequence

import numpy as np

from gerrytda.compactness import min_enclosing_circle
from gerrytda.complexes import FilteredComplex, LevelSchedule, _sorted_complex
from gerrytda.errors import ComplexError, GeometryError, IngestError, MarginError, ParameterError
from gerrytda.geometry import MAX_VOTES, Point2, _crossing_parity
from gerrytda.ingest import VoteTable, parse_geojson
from gerrytda.raster import BACKGROUND, Grid, MarginField, MarginMode


# === maps ===

def feature(uid, *polygons, dem=0, rep=0):
    """A GeoJSON Feature: a Polygon if one polygon is given, else a
    MultiPolygon. Each polygon is a list of rings, outer ring first."""
    coords = [[[[float(x), float(y)] for x, y in ring] for ring in rings] for rings in polygons]
    geometry = ({"type": "Polygon", "coordinates": coords[0]} if len(coords) == 1
                else {"type": "MultiPolygon", "coordinates": coords})
    return {"type": "Feature", "properties": {"id": uid, "dem_votes": dem, "rep_votes": rep},
            "geometry": geometry}


def unit_map(features):
    """The UnitCollection that parse_geojson makes of GeoJSON Feature dicts."""
    return parse_geojson(json.dumps({"type": "FeatureCollection", "features": list(features)}))


def unit_rows(units, i):
    """The edges rows of unit i: its outer rings, then its holes."""
    ends = np.concatenate(([0], np.cumsum(units.edge_counts)))
    return units.edges[ends[i]:ends[i + 1]]


def point_in_unit(units, i, point):
    """Even-odd membership of a Point2 over all of unit i's rings (holes
    toggle a point back out)."""
    return bool(_crossing_parity(point.x, point.y, unit_rows(units, i)))


def pixel_center(grid, col, row):
    """The center of a raster.Grid's pixel (col, row), row 0 at the bottom, as a Point2."""
    return Point2(grid.origin.x + (col + 0.5) * grid.pixel_size,
                  grid.origin.y + (row + 0.5) * grid.pixel_size)


# === the library's former polygon objects ===

class Ring:
    """A closed polygon ring.

    The closing vertex is implicit: pass [(0,0), (1,0), (1,1)] for a triangle,
    not a repeated first point. Rings must have at least 3 vertices and
    non-zero signed area.
    """

    __slots__ = ("vertices", "signed_area")

    def __init__(self, coords: Iterable[tuple[float, float]] | np.ndarray):
        v = np.asarray(coords, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 2:
            raise GeometryError("ring coordinates must be an (n, 2) sequence")
        if v.shape[0] >= 2 and np.array_equal(v[0], v[-1]):
            v = v[:-1]  # tolerate explicitly closed input
        if v.shape[0] < 3:
            raise GeometryError(f"degenerate ring: {v.shape[0]} vertices")
        if not np.all(np.isfinite(v)):
            raise GeometryError("non-finite ring coordinate")
        v = v.copy()
        v.setflags(write=False)
        self.vertices = v
        self.signed_area = 0.5 * float(np.add.reduceat(self._cross()[2], [0])[0])
        if self.signed_area == 0.0:
            raise GeometryError("degenerate ring: zero area")

    def _cross(self):
        """Vertices about the first one, as x and y, and each edge's cross product.

        About the first vertex: far from the origin, raw cross products cancel.
        """
        v = self.vertices
        x, y = v[:, 0] - v[0, 0], v[:, 1] - v[0, 1]
        return x, y, x * np.roll(y, -1) - np.roll(x, -1) * y

    def centroid(self) -> Point2:
        x, y, cross = self._cross()
        a = self.signed_area
        cx = float(np.sum((x + np.roll(x, -1)) * cross)) / (6.0 * a)
        cy = float(np.sum((y + np.roll(y, -1)) * cross)) / (6.0 * a)
        return Point2(float(self.vertices[0, 0]) + cx, float(self.vertices[0, 1]) + cy)

    def __len__(self) -> int:
        return int(self.vertices.shape[0])


class PolygonSet:
    """One or more outer rings with optional holes.

    Holes are matched to the outer ring containing their centroid at
    construction time; a hole contained in no outer ring is an error.

    Construction also measures the set, once:

    * ``edges``: a read-only (k, 4) float64 table, one x1 y1 x2 y2 row per
      edge, ring by ring in ``rings()`` order, each ring's edges in vertex
      order with the closing edge last. Columns 0-1 list every vertex.
    * ``area``: outer rings minus holes, orientation-independent.
    """

    __slots__ = ("outers", "holes", "hole_owner", "edges", "area")

    def __init__(self, outers: Sequence[Ring], holes: Sequence[Ring] = ()):
        if not outers:
            raise GeometryError("polygon set needs at least one outer ring")
        self.outers = tuple(outers)
        self.holes = tuple(holes)
        # each vertex beside the next one round its ring
        tables = [np.hstack([r.vertices, np.concatenate([r.vertices[1:], r.vertices[:1]])])
                  for r in self.rings()]
        owner = []
        for h in self.holes:
            c = h.centroid()
            for oi in range(len(self.outers)):
                if _crossing_parity(c.x, c.y, tables[oi]):
                    owner.append(oi)
                    break
            else:
                raise GeometryError("hole lies outside every outer ring")
        self.hole_owner = tuple(owner)
        self.edges = np.vstack(tables)
        self.edges.setflags(write=False)
        # outer rings add and holes take away, summed in ring order as one segment
        signed = [abs(r.signed_area) for r in self.outers] + \
            [-abs(r.signed_area) for r in self.holes]
        self.area = float(np.add.reduceat(np.array(signed), [0])[0])

    def rings(self) -> tuple[Ring, ...]:
        return self.outers + self.holes


# === compactness ===

def compactness_reference(doc):
    """(Polsby-Popper, Reock) of each feature of a FeatureCollection dict,
    from a PolygonSet built out of its raw rings."""
    scores = []
    for feat in doc["features"]:
        geom = feat["geometry"]
        parts = [geom["coordinates"]] if geom["type"] == "Polygon" else geom["coordinates"]
        g = PolygonSet([Ring(p[0]) for p in parts], [Ring(h) for p in parts for h in p[1:]])
        # boundary length: each ring summed alone, then outer rings plus holes
        e = g.edges
        lengths = np.hypot(e[:, 2] - e[:, 0], e[:, 3] - e[:, 1])
        ends = np.cumsum([len(r) for r in g.rings()])
        per_ring = [float(np.sum(part)) for part in np.split(lengths, ends[:-1])]
        n = len(g.outers)
        perimeter = float(sum(per_ring[:n]) + sum(per_ring[n:]))
        # Reock's circle about the unit's first vertex, as the library's
        _, r = min_enclosing_circle(e[:, :2] - e[0, :2])
        scores.append((4.0 * math.pi * g.area / (perimeter * perimeter),
                       g.area / (math.pi * r * r)))
    return scores


def _dist(x, y):
    return max(abs(x[0] - y[0]), abs(x[1] - y[1]))


def _diag(x):
    return (x[1] - x[0]) / 2.0


def _split_essentials(diagram):
    finite = [(b, d) for b, d in diagram if not math.isinf(d)]
    births = sorted(b for b, d in diagram if math.isinf(d))
    return finite, births


def _matchings(n, m):
    """Every injective partial matching between ranges n and m."""
    for k in range(min(n, m) + 1):
        for left in combinations(range(n), k):
            for right in permutations(range(m), k):
                yield list(zip(left, right))


def brute_bottleneck(a, b):
    fa, ea = _split_essentials(a)
    fb, eb = _split_essentials(b)
    if len(ea) != len(eb):
        return math.inf
    floor = max((abs(x - y) for x, y in zip(ea, eb)), default=0.0)
    best = math.inf
    for matching in _matchings(len(fa), len(fb)):
        used_a = {i for i, _ in matching}
        used_b = {j for _, j in matching}
        cost = floor
        for i, j in matching:
            cost = max(cost, _dist(fa[i], fb[j]))
        for i in range(len(fa)):
            if i not in used_a:
                cost = max(cost, _diag(fa[i]))
        for j in range(len(fb)):
            if j not in used_b:
                cost = max(cost, _diag(fb[j]))
        best = min(best, cost)
    return best if (fa or fb) else floor


def brute_wasserstein(a, b, p=1.0):
    fa, ea = _split_essentials(a)
    fb, eb = _split_essentials(b)
    if len(ea) != len(eb):
        return math.inf
    base = sum(abs(x - y) ** p for x, y in zip(ea, eb))
    best = math.inf
    for matching in _matchings(len(fa), len(fb)):
        used_a = {i for i, _ in matching}
        used_b = {j for _, j in matching}
        cost = base
        for i, j in matching:
            cost += _dist(fa[i], fb[j]) ** p
        cost += sum(_diag(fa[i]) ** p
                    for i in range(len(fa)) if i not in used_a)
        cost += sum(_diag(fb[j]) ** p
                    for j in range(len(fb)) if j not in used_b)
        best = min(best, cost)
    if not (fa or fb):
        best = base
    return best ** (1.0 / p)


def brute_min_enclosing_circle(points):
    """Smallest circle through every pair and triple; O(n^3) but exact."""
    pts = [tuple(map(float, p)) for p in points]

    def covers(cx, cy, r):
        rr = r + 1e-9 * max(r, 1.0)
        return all((x - cx) ** 2 + (y - cy) ** 2 <= rr * rr for x, y in pts)

    best = None
    if len(pts) == 1:
        return (pts[0][0], pts[0][1], 0.0)
    for (x1, y1), (x2, y2) in combinations(pts, 2):
        cx, cy = (x1 + x2) / 2, (y1 + y2) / 2
        r = math.hypot(x1 - cx, y1 - cy)
        if covers(cx, cy, r) and (best is None or r < best[2]):
            best = (cx, cy, r)
    for (x1, y1), (x2, y2), (x3, y3) in combinations(pts, 3):
        d = 2 * (x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2))
        if abs(d) < 1e-14:
            continue
        ux = ((x1 ** 2 + y1 ** 2) * (y2 - y3) + (x2 ** 2 + y2 ** 2) * (y3 - y1)
              + (x3 ** 2 + y3 ** 2) * (y1 - y2)) / d
        uy = ((x1 ** 2 + y1 ** 2) * (x3 - x2) + (x2 ** 2 + y2 ** 2) * (x1 - x3)
              + (x3 ** 2 + y3 ** 2) * (x2 - x1)) / d
        r = math.hypot(x1 - ux, y1 - uy)
        if covers(ux, uy, r) and (best is None or r < best[2]):
            best = (ux, uy, r)
    return best


def t_sf_quadrature(t, df):
    """P(T > t) for Student's t by adaptive Simpson on the density.

    Integrates from 0 to t and uses symmetry: P(T > t) = 1/2 - integral.
    Density normalization via lgamma keeps large df stable.
    """
    if t < 0:
        return 1.0 - t_sf_quadrature(-t, df)
    c = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)) \
        / math.sqrt(df * math.pi)

    def pdf(x):
        return c * (1.0 + x * x / df) ** (-(df + 1) / 2.0)

    def simpson(f, lo, hi):
        mid = (lo + hi) / 2.0
        return (hi - lo) / 6.0 * (f(lo) + 4.0 * f(mid) + f(hi))

    def adaptive(f, lo, hi, whole, tol, depth):
        mid = (lo + hi) / 2.0
        left = simpson(f, lo, mid)
        right = simpson(f, mid, hi)
        if depth <= 0 or abs(left + right - whole) < 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return adaptive(f, lo, mid, left, tol / 2.0, depth - 1) \
            + adaptive(f, mid, hi, right, tol / 2.0, depth - 1)

    if t == 0:
        return 0.5
    integral = adaptive(pdf, 0.0, t, simpson(pdf, 0.0, t), 1e-13, 60)
    return 0.5 - integral


def paired_t_pvalue_quadrature(t, df):
    """Two-sided p-value from the quadrature survival function."""
    return 2.0 * t_sf_quadrature(abs(t), df)


# === margins ===

def unit_margin(units, i, mode=MarginMode.RELATIVE):
    """Signed margin of unit i; positive means more Democratic votes."""
    dem, rep = int(units.dem[i]), int(units.rep[i])
    if mode is MarginMode.RELATIVE:
        if dem + rep == 0:
            raise MarginError(f"unit {units.ids[i]}: zero total votes")
        return (dem - rep) / (dem + rep)
    return (dem - rep) / float(units.areas[i])


# === votes ===

def parse_votes_reference(text):
    """A votes CSV as a VoteTable, or the IngestError naming its first fault."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        rows = list(csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline="")))
    except (UnicodeDecodeError, csv.Error) as e:
        raise IngestError(f"unreadable votes file: {e}") from e
    if not rows:
        raise IngestError("missing header: empty votes file")
    if [c.strip() for c in rows[0]] != ["unit_id", "dem_votes", "rep_votes"]:
        raise IngestError("missing or malformed header: expected unit_id,dem_votes,rep_votes")
    ids = {}
    counts = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 3:
            raise IngestError(f"row {lineno}: expected 3 fields, got {len(row)}")
        uid = row[0].strip()
        if not uid:
            raise IngestError(f"row {lineno}: empty unit_id")
        if uid in ids:
            raise IngestError(f"row {lineno}: duplicate unit_id {uid}")
        ids[uid] = None
        for cell in row[1:]:
            s = cell.strip()
            try:
                v = int(s)
            except ValueError:
                raise IngestError(f"row {lineno}: non-integer count {s!r}") from None
            if v < 0:
                raise IngestError(f"row {lineno}: negative count")
            if v > MAX_VOTES:
                raise IngestError(f"row {lineno}: count above 2**52")
            counts.append(v)
    return VoteTable(ids, counts[0::2], counts[1::2])


# === unit adjacency ===

def _snap_key(x, y, tol):
    return (int(round(x / tol)), int(round(y / tol)))


def _collinear_overlap(ea, eb, tol):
    """For each row of edge table eb: does that edge lie on the line of some
    edge of ea (both endpoints within tol of it) and overlap it by more than
    tol?"""
    ax1, ay1, ax2, ay2 = (c[:, None] for c in ea.T)
    bx1, by1, bx2, by2 = eb.T
    dax, day = ax2 - ax1, ay2 - ay1
    la = np.hypot(dax, day)
    with np.errstate(divide="ignore", invalid="ignore"):  # la = 0 fails la > tol
        da = np.abs(dax * (by1 - ay1) - day * (bx1 - ax1)) / la
        db = np.abs(dax * (by2 - ay1) - day * (bx2 - ax1)) / la
        t1 = (dax * (bx1 - ax1) + day * (by1 - ay1)) / la
        t2 = (dax * (bx2 - ax1) + day * (by2 - ay1)) / la
    overlap = np.minimum(la, np.maximum(t1, t2)) - np.maximum(0.0, np.minimum(t1, t2))
    return np.any((la > tol) & (da <= tol) & (db <= tol) & (overlap > tol), axis=0)


def adjacency_reference(units, kind="queen"):
    """detect_adjacency one unit at a time: a dense n x n test of the units'
    boxes over all their rows, a dict of snapped vertices, and each unit's
    edges against all its candidate partners' edges."""
    if kind not in ("queen", "rook"):
        raise ParameterError(f"unknown adjacency kind {kind!r}")
    tol = units.snap_tolerance()
    edges_of = [unit_rows(units, i) for i in range(len(units))]
    boxes = np.array([np.r_[e.reshape(-1, 2).min(axis=0), e.reshape(-1, 2).max(axis=0)]
                      for e in edges_of]).reshape(-1, 4)  # over all rows, holes too

    pairs = set()
    if kind == "queen":
        by_vertex = {}
        for i, e in enumerate(edges_of):
            for k in {_snap_key(x, y, tol) for x, y in e[:, :2]}:
                by_vertex.setdefault(k, []).append(i)
        for members in by_vertex.values():
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    pairs.add((members[a], members[b]))

    near = (boxes[:, None, 0] <= boxes[None, :, 2] + tol) & \
           (boxes[None, :, 0] <= boxes[:, None, 2] + tol) & \
           (boxes[:, None, 1] <= boxes[None, :, 3] + tol) & \
           (boxes[None, :, 1] <= boxes[:, None, 3] + tol)
    for i, ea in enumerate(edges_of):
        js = [j for j in (np.flatnonzero(near[i, i + 1:]) + i + 1).tolist()
              if (i, j) not in pairs]
        if js:
            owner = np.repeat(js, [len(edges_of[j]) for j in js])
            hit = _collinear_overlap(ea, np.vstack([edges_of[j] for j in js]), tol)
            pairs.update((i, j) for j in owner[hit].tolist())
    ids = units.ids
    return {tuple(sorted((ids[i], ids[j]))) for i, j in pairs}


def flag_filtration_reference(vertex_levels, edges, num_levels, thresholds=None):
    """flag_filtration with a dict of edge ids and a neighbour-set
    intersection per edge for the triangles."""
    lv = np.asarray(vertex_levels, dtype=np.int64)
    included = (lv >= 1) & (lv <= num_levels)
    if not included.any():
        raise ComplexError("empty complex: no vertex ever enters")
    vid = np.full(len(lv), -1, dtype=np.int64)
    vid[included] = np.arange(int(included.sum()))
    nv = int(included.sum())

    adj = {i: set() for i in range(nv)}
    edge_list = []
    edge_id = {}
    for a, b in edges:
        if a == b or not (included[a] and included[b]):
            continue
        u, v = sorted((int(vid[a]), int(vid[b])))
        if (u, v) in edge_id:
            continue
        edge_id[(u, v)] = nv + len(edge_list)
        edge_list.append((u, v))
        adj[u].add(v)
        adj[v].add(u)

    v_levels = lv[included]
    e_levels = np.array([max(v_levels[u], v_levels[v]) for u, v in edge_list],
                        dtype=np.int64) if edge_list else np.empty(0, np.int64)
    tris = []
    for (u, v), eid in sorted(edge_id.items(), key=lambda kv: kv[1]):
        for w in sorted(adj[u] & adj[v]):
            if w > v:
                tris.append((u, v, w))
    t_levels = np.array([max(v_levels[u], v_levels[v], v_levels[w])
                         for u, v, w in tris], dtype=np.int64) if tris else np.empty(0, np.int64)

    ne, nt = len(edge_list), len(tris)
    dims = np.concatenate([np.zeros(nv, np.int8), np.ones(ne, np.int8),
                           np.full(nt, 2, np.int8)])
    levels = np.concatenate([v_levels, e_levels, t_levels]).astype(np.int64)
    lens = np.concatenate([np.zeros(nv, np.int64), np.full(ne, 2, np.int64),
                           np.full(nt, 3, np.int64)])
    flat_parts = [np.asarray(edge_list, dtype=np.int64).ravel()] if ne else []
    if nt:
        tb = np.array([[edge_id[(u, v)], edge_id[(u, w)], edge_id[(v, w)]]
                       for u, v, w in tris], dtype=np.int64)
        flat_parts.append(tb.ravel())
    flat = np.concatenate(flat_parts) if flat_parts else np.empty(0, np.int64)
    return _sorted_complex(dims, levels, lens, flat, num_levels, thresholds)


# === complexes ===

def from_cells(cells: Sequence[tuple[int, int, Iterable[int]]],
               num_levels: int | None = None,
               thresholds: tuple[float, ...] | None = None) -> FilteredComplex:
    """Build from (dim, level, boundary ids) triples given in id order.

    Boundary ids refer to positions in the input sequence; the
    constructor re-sorts everything into filtration order.
    """
    n = len(cells)
    dims = np.fromiter((c[0] for c in cells), dtype=np.int8, count=n)
    levels = np.fromiter((c[1] for c in cells), dtype=np.int64, count=n)
    faces = [[int(f) for f in c[2]] for c in cells]
    lens = np.array([len(f) for f in faces], dtype=np.int64)
    flat = np.array([f for fs in faces for f in fs], dtype=np.int64)
    if num_levels is None:
        num_levels = int(levels.max(initial=1))
    return _sorted_complex(dims, levels, lens, flat, num_levels, thresholds)


def boundary(cx: FilteredComplex, cell_id: int) -> np.ndarray:
    return cx.indices[cx.indptr[cell_id]:cx.indptr[cell_id + 1]]


def active_counts(cx: FilteredComplex, level: int) -> tuple[int, int, int]:
    """Cells of each dimension present at or below the given level."""
    mask = cx.levels <= level
    return tuple(int(np.count_nonzero(mask & (cx.dims == d))) for d in (0, 1, 2))


def torus_complex(rows: int = 4, cols: int = 4, level: int = 1) -> FilteredComplex:
    """Cubical torus: a rows x cols grid with periodic identification."""
    nv = rows * cols

    def vtx(r, c):
        return (r % rows) * cols + (c % cols)

    def h_edge(r, c):
        return nv + (r % rows) * cols + (c % cols)

    def v_edge(r, c):
        return nv + nv + (r % rows) * cols + (c % cols)

    cells: list[tuple[int, int, tuple[int, ...]]] = []
    for r in range(rows):
        for c in range(cols):
            cells.append((0, level, ()))
    for r in range(rows):
        for c in range(cols):
            cells.append((1, level, (vtx(r, c), vtx(r, c + 1))))
    for r in range(rows):
        for c in range(cols):
            cells.append((1, level, (vtx(r, c), vtx(r + 1, c))))
    for r in range(rows):
        for c in range(cols):
            cells.append((2, level, (h_edge(r, c), h_edge(r + 1, c),
                                     v_edge(r, c), v_edge(r, c + 1))))
    return from_cells(cells, num_levels=level)


def field_from_array(values, background=None,
                     mode: MarginMode = MarginMode.RELATIVE,
                     pixel_size: float = 1.0) -> MarginField:
    """Wrap a raw margin array (row 0 = bottom) as a MarginField in which each
    pixel is its own unit, and a background pixel is none."""
    v = np.asarray(values, dtype=np.float64)
    bg = np.zeros_like(v, dtype=bool) if background is None \
        else np.asarray(background, dtype=bool)
    labels = np.where(bg, BACKGROUND, np.arange(v.size).reshape(v.shape)).astype(np.int32)
    margins = np.where(bg, 0.0, v).ravel()
    labels.setflags(write=False)
    margins.setflags(write=False)
    grid = Grid(v.shape[1], v.shape[0], Point2(0.0, 0.0), pixel_size)
    return MarginField(grid, labels, margins, mode, 1.0)


# vertex_levels' level for pixels that never enter the sweep
EXCLUDED = -1


def vertex_levels(values: np.ndarray, background: np.ndarray,
                  schedule: LevelSchedule, polarity: str) -> np.ndarray:
    """Each pixel's entry level, EXCLUDED where it never enters."""
    if polarity not in ("democratic", "republican"):
        raise ParameterError(f"unknown polarity {polarity!r}")
    work = values if polarity == "democratic" else -values
    t = np.asarray(schedule.thresholds)
    # smallest i with tau_i >= value; the sea (<= 0) floods at level 1;
    # values at or above the top threshold never enter
    lv = np.searchsorted(t, work, side="left") + 1
    lv = np.where(work <= 0.0, 1, lv)
    lv = np.where(work >= t[-1], EXCLUDED, lv)
    lv = np.where(background, EXCLUDED, lv)
    return lv.astype(np.int64)


def build_levelset_filtration(field: MarginField, schedule: LevelSchedule,
                              polarity: str = "democratic") -> FilteredComplex:
    """Cubical filtration of the margin field under the threshold sweep.

    Pixels are vertices entering at their activation level, edges join
    4-neighbors at the max of their endpoints, squares fill 2x2 blocks at the
    max of their corners. Pixels that never activate (background, or margin
    at or above the top threshold) contribute no cells at all.
    """
    lv = vertex_levels(field.values, field.background, schedule, polarity)
    active = lv != EXCLUDED
    if not active.any():
        raise ComplexError("empty complex: all pixels background or never active")
    h, w = lv.shape

    vid = np.full((h, w), -1, dtype=np.int64)
    vid[active] = np.arange(int(active.sum()))
    v_levels = lv[active]
    nv = len(v_levels)

    # horizontal edges (r,c)-(r,c+1), vertical edges (r,c)-(r+1,c)
    hmask = active[:, :-1] & active[:, 1:]
    vmask = active[:-1, :] & active[1:, :]
    h_u, h_v = vid[:, :-1][hmask], vid[:, 1:][hmask]
    h_lv = np.maximum(lv[:, :-1][hmask], lv[:, 1:][hmask])
    v_u, v_v = vid[:-1, :][vmask], vid[1:, :][vmask]
    v_lv = np.maximum(lv[:-1, :][vmask], lv[1:, :][vmask])
    ne_h, ne_v = len(h_lv), len(v_lv)
    ne = ne_h + ne_v

    # edge id lookup tables for square boundaries
    h_id = np.full((h, max(w - 1, 0)), -1, dtype=np.int64)
    h_id[hmask] = nv + np.arange(ne_h)
    v_id = np.full((max(h - 1, 0), w), -1, dtype=np.int64)
    v_id[vmask] = nv + ne_h + np.arange(ne_v)

    smask = active[:-1, :-1] & active[:-1, 1:] & active[1:, :-1] & active[1:, 1:]
    s_lv = np.maximum.reduce([lv[:-1, :-1][smask], lv[:-1, 1:][smask],
                              lv[1:, :-1][smask], lv[1:, 1:][smask]])
    s_b = np.column_stack([
        h_id[:-1, :][smask],       # bottom edge
        v_id[:, :-1][smask],       # left edge
        v_id[:, 1:][smask],        # right edge
        h_id[1:, :][smask],        # top edge
    ])
    ns = len(s_lv)

    dims = np.concatenate([np.zeros(nv, np.int8), np.ones(ne, np.int8),
                           np.full(ns, 2, np.int8)])
    levels = np.concatenate([v_levels,
                             h_lv, v_lv,
                             s_lv]).astype(np.int64)
    edge_pairs = np.concatenate([np.column_stack([h_u, h_v]),
                                 np.column_stack([v_u, v_v])]) \
        if ne else np.empty((0, 2), np.int64)
    lens = np.concatenate([np.zeros(nv, np.int64), np.full(ne, 2, np.int64),
                           np.full(ns, 4, np.int64)])
    flat = np.concatenate([np.sort(edge_pairs, axis=1).ravel(),
                           np.sort(s_b, axis=1).ravel()]) \
        if ne + ns else np.empty(0, np.int64)

    return _sorted_complex(dims, levels, lens, flat,
                           schedule.num_levels, schedule.thresholds)


def _gf2_rank(m: np.ndarray) -> int:
    """Rank over GF(2) by destructive row elimination on a uint8 copy."""
    if m.size == 0:
        return 0
    m = m.copy()
    rows, cols = m.shape
    rank = 0
    for c in range(cols):
        hits = np.flatnonzero(m[rank:, c])
        if len(hits) == 0:
            continue
        p = rank + int(hits[0])
        if p != rank:
            m[[rank, p]] = m[[p, rank]]
        below = np.flatnonzero(m[rank + 1:, c]) + rank + 1
        if len(below):
            m[below] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def betti_oracle(cx: FilteredComplex, level: int) -> tuple[int, int, int]:
    """(beta_0, beta_1, beta_2) of the subcomplex at a level, by GF(2) ranks.

    beta_k = dim ker boundary_k - rank boundary_{k+1}; independent of the
    persistence reduction so the two can be cross-checked.
    """
    if level < 0:
        raise ParameterError("level must be non-negative")
    active = np.flatnonzero(cx.levels <= level)
    if len(active) == 0:
        return (0, 0, 0)
    pos = np.full(len(cx), -1, dtype=np.int64)
    dims = cx.dims
    counts = [0, 0, 0]
    for cell in active:
        d = int(dims[cell])
        pos[cell] = counts[d]
        counts[d] += 1
    n0, n1, n2 = counts

    d1 = np.zeros((n0, n1), dtype=np.uint8)
    d2 = np.zeros((n1, n2), dtype=np.uint8)
    for cell in active:
        d = int(dims[cell])
        if d == 0:
            continue
        target = d1 if d == 1 else d2
        for face in boundary(cx, int(cell)):
            target[pos[face], pos[cell]] ^= 1
    r1 = _gf2_rank(d1)
    r2 = _gf2_rank(d2)
    return (n0 - r1, (n1 - r1) - r2, n2 - r2)


def euler_curve(field: MarginField, schedule: LevelSchedule,
                polarity: str = "democratic") -> np.ndarray:
    """V - E + F of the field's active cubical complex at levels 1..L.

    One bincount per cell type over the level each cell enters at (Heiss
    and Wagner, CAIP 2017): a pixel at its own level, a 4-neighbor edge and
    a 2x2 square at the highest level among their pixels. A pixel that
    never enters takes level L + 1, past every level counted. At each level
    the value equals the H0 bars alive there minus the H1 bars alive there.
    """
    L = schedule.num_levels
    lv = vertex_levels(field.values, field.background, schedule, polarity)
    lv[lv == EXCLUDED] = L + 1
    cells = [(1, lv),
             (-1, np.maximum(lv[:, 1:], lv[:, :-1])),
             (-1, np.maximum(lv[1:], lv[:-1])),
             (1, np.maximum(np.maximum(lv[1:, 1:], lv[1:, :-1]),
                            np.maximum(lv[:-1, 1:], lv[:-1, :-1])))]
    per_level = sum(sign * np.bincount(c.ravel(), minlength=L + 2) for sign, c in cells)
    return np.cumsum(per_level)[1:L + 1]


# === persistence ===

@dataclass(frozen=True)
class ReferenceReduction:
    """Outcome of the column reduction: pairing plus reduced death columns."""

    pairs: tuple[tuple[int, int], ...]      # (birth cell, death cell)
    essential: tuple[int, ...]              # unpaired cells, classes live forever
    _deaths: dict[int, tuple[int, ...]]     # death cell -> reduced column, sorted

    def low(self, j: int) -> int:
        col = self._deaths.get(j)
        return col[-1] if col else -1


def reduce_reference(cx):
    """The library's former reduce: every column through one set-based loop.

    Columns are sets of rows, reduced top dimension first and left to right:
    while column j's low (largest row) is the low of an earlier reduced
    column, that column is added to it. Clearing: a column whose index is
    already a low is a birth, its reduced form is zero, so it is skipped.
    """
    indptr, indices = cx.indptr.tolist(), cx.indices.tolist()
    owner: dict[int, int] = {}              # low row -> its death column
    deaths: dict[int, tuple[int, ...]] = {}
    for d in range(int(cx.dims.max()), 0, -1):
        for j in np.flatnonzero(cx.dims == d).tolist():
            if j in owner:
                continue
            col = set(indices[indptr[j]:indptr[j + 1]])
            while col:
                low = max(col)
                if low not in owner:
                    owner[low] = j
                    deaths[j] = tuple(sorted(col))
                    break
                col.symmetric_difference_update(deaths[owner[low]])
    essential = (i for i in range(len(cx)) if i not in owner and i not in deaths)
    return ReferenceReduction(tuple(sorted(owner.items())), tuple(essential), deaths)


@dataclass(frozen=True)
class BarcodeReference:
    """The library's former Barcode: a tuple of PersistencePairs, each
    method a loop over it."""

    pairs: tuple
    num_levels: int
    thresholds: tuple[float, ...] | None = None

    def bars(self, dim: int) -> tuple:
        return tuple(p for p in self.pairs if p.dim == dim)

    def alive(self, level: int, dim: int) -> int:
        return sum(1 for p in self.pairs
                   if p.dim == dim and p.birth <= level < p.death)

    def _to_value(self, level: float) -> float:
        if math.isinf(level):
            return math.inf
        if self.thresholds is None:
            return float(level)
        return self.thresholds[int(level) - 1]

    def diagram(self, dim: int) -> list[tuple[float, float]]:
        """Bars of one dimension as (birth, death) in threshold units."""
        return [(self._to_value(p.birth), self._to_value(p.death))
                for p in self.bars(dim)]

    def to_json(self) -> dict:
        """Bars in threshold units, or in level units when there are no thresholds."""
        out_pairs = []
        for p in self.pairs:
            death = "inf" if p.essential else self._to_value(p.death)
            out_pairs.append({"dim": p.dim, "birth": self._to_value(p.birth), "death": death})
        doc = {"num_levels": self.num_levels, "pairs": out_pairs}
        if self.thresholds is None:
            doc["units"] = "level"
        return doc

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)
