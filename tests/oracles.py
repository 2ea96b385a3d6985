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
brute_min_enclosing_circle. point_in_unit is the former point_in_polygon,
the even-odd rule over one unit's edge rows, which the scanline fill of
raster.rasterize is held to pixel for pixel.

unit_map is not an oracle: it builds every test map the one way the library
builds one, GeoJSON through parse_geojson, from feature dicts.
"""

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from gerrytda.compactness import min_enclosing_circle
from gerrytda.complexes import _sorted_complex
from gerrytda.errors import ComplexError, IngestError, MarginError, ParameterError
from gerrytda.geometry import MAX_VOTES, PolygonSet, Ring, _crossing_parity
from gerrytda.ingest import VoteTable, parse_geojson
from gerrytda.raster import MarginMode


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
        _, r = min_enclosing_circle(e[:, :2])
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
    """detect_adjacency one unit at a time: a dense n x n bounding-box test,
    a dict of snapped vertices, and each unit's edges against all its
    candidate partners' edges."""
    if kind not in ("queen", "rook"):
        raise ParameterError(f"unknown adjacency kind {kind!r}")
    tol = units.snap_tolerance()
    edges_of = [unit_rows(units, i) for i in range(len(units))]
    boxes = units.boxes

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
