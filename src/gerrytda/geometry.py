"""Planar polygon primitives and the voting-unit data model.

Coordinates are assumed to live in a planar projection already; nothing in
here knows about longitude/latitude. Areas come from the shoelace formula,
point membership from even-odd ray casting with a half-open tie rule (top
and left edges inclusive) so that abutting polygons partition the plane
without double-claiming boundary points.

A PolygonSet measures itself once, at construction: its edge table (one
x1 y1 x2 y2 row per ring edge), its area and its bounds. This is the only
module that turns rings into edges.

A parsed map keeps every ring's vertices end to end in one (V, 2) table
with ring offsets (the GeoArrow ragged layout). ring_table measures it in
one pass, giving the (V, 4) edge table and every signed area; each Ring
then holds a read-only slice of the vertex table and each hole-free
PolygonSet a slice of the edge table. Areas come from one _shoelace call on
one array layout either way, so both routes agree bit for bit.

A UnitCollection keeps its units in columns, votes as two read-only int64
arrays (counts at most MAX_VOTES), and a memo of what depends on geometry
alone: per-unit edge counts, boxes and areas, adjacency, label rasters.
with_votes swaps the vote arrays and shares the rest, memo included.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import GeometryError

# Vertex snap tolerance for adjacency detection, relative to the bbox diagonal.
SNAP_RELATIVE_TOL = 1e-9
# Largest vote count: sums and differences of two stay exact in float64.
MAX_VOTES = 2**52


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeometryError(f"non-finite point ({self.x}, {self.y})")


@dataclass(frozen=True)
class Bounds:
    minx: float
    miny: float
    maxx: float
    maxy: float

    @property
    def width(self) -> float:
        return self.maxx - self.minx

    @property
    def height(self) -> float:
        return self.maxy - self.miny

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)

    def union(self, other: "Bounds") -> "Bounds":
        return Bounds(
            min(self.minx, other.minx),
            min(self.miny, other.miny),
            max(self.maxx, other.maxx),
            max(self.maxy, other.maxy),
        )


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
        x, y = v[:, 0], v[:, 1]
        self.signed_area = _shoelace(x, y, np.roll(x, -1), np.roll(y, -1))
        if self.signed_area == 0.0:
            raise GeometryError("degenerate ring: zero area")

    @classmethod
    def _of(cls, vertices: np.ndarray, signed_area: float) -> "Ring":
        """A ring over checked, read-only vertices, measured by ring_table."""
        ring = object.__new__(cls)
        ring.vertices = vertices
        ring.signed_area = signed_area
        return ring

    def centroid(self) -> Point2:
        v = self.vertices
        # about the first vertex: far from the origin, raw cross products cancel
        x0, y0 = float(v[0, 0]), float(v[0, 1])
        x, y = v[:, 0] - x0, v[:, 1] - y0
        x2, y2 = np.roll(x, -1), np.roll(y, -1)
        cross = x * y2 - x2 * y
        a = 0.5 * float(np.sum(cross))
        cx = float(np.sum((x + x2) * cross)) / (6.0 * a)
        cy = float(np.sum((y + y2) * cross)) / (6.0 * a)
        return Point2(x0 + cx, y0 + cy)

    def __len__(self) -> int:
        return int(self.vertices.shape[0])


def _shoelace(x: np.ndarray, y: np.ndarray, x2: np.ndarray, y2: np.ndarray) -> float:
    """Signed area from vertex columns and their successors round the ring.

    The sum's rounding depends on the operands' memory layout, so every caller
    passes x and y as strided columns of an (n, 2) array and x2, y2
    contiguous: then a ring has the same area however it was built.
    """
    return 0.5 * float(np.dot(x, y2) - np.dot(y, x2))


def ring_table(vertices: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Edge table and signed areas of rings stored end to end.

    vertices is a C-ordered (V, 2) float64 table; ring r is rows
    offsets[r]:offsets[r + 1], closing vertex implicit. Returns the (V, 4)
    edge table, row j being vertex j and the next vertex round its ring,
    and each ring's signed area exactly as Ring computes it.
    """
    nxt = np.arange(1, len(vertices) + 1)
    nxt[offsets[1:] - 1] = offsets[:-1]
    x2, y2 = vertices[nxt, 0], vertices[nxt, 1]
    ends = offsets.tolist()
    areas = [_shoelace(vertices[a:b, 0], vertices[a:b, 1], x2[a:b], y2[a:b])
             for a, b in zip(ends[:-1], ends[1:])]
    edges = np.hstack([vertices, vertices[nxt]])
    edges.setflags(write=False)
    return edges, areas


def _crossing_parity(px: float, py: float, edges: np.ndarray) -> int:
    """Crossing parity of a rightward ray from (px, py) against an edge table.

    Edges count when they straddle the scanline under a (min, max] half-open
    rule in y, and the crossing lies strictly right of the point. Together
    these make top and left edges inclusive, bottom and right exclusive.
    """
    x, y, x2, y2 = edges.T
    straddle = (y >= py) != (y2 >= py)
    # sign of (crossing_x - px) without the division
    t = (x - px) * (y2 - y) + (py - y) * (x2 - x)
    cross = np.where(y2 > y, t, -t)
    return int(np.count_nonzero(straddle & (cross > 0.0)) & 1)


class PolygonSet:
    """One or more outer rings with optional holes.

    Holes are matched to the outer ring containing their centroid at
    construction time; a hole contained in no outer ring is an error.

    Construction also measures the set, once:

    * ``edges``: a read-only (k, 4) float64 table, one x1 y1 x2 y2 row per
      edge, ring by ring in ``rings()`` order, each ring's edges in vertex
      order with the closing edge last. Columns 0-1 list every vertex.
    * ``area``: outer rings minus holes, orientation-independent.
    * ``bounds``: the bounding box of the outer rings.
    """

    __slots__ = ("outers", "holes", "hole_owner", "edges", "area", "bounds")

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
        self.area = _area(self.outers, self.holes)
        v = self.edges[:sum(len(r) for r in self.outers), :2]
        lo, hi = v.min(axis=0), v.max(axis=0)
        self.bounds = Bounds(float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))

    @classmethod
    def _hole_free(cls, outers: tuple[Ring, ...], edges: np.ndarray,
                   bounds: Bounds) -> "PolygonSet":
        """A set of outer rings whose read-only edge table and bounds are known."""
        geom = object.__new__(cls)
        geom.outers, geom.holes, geom.hole_owner = outers, (), ()
        geom.edges = edges
        geom.area = _area(outers, ())
        geom.bounds = bounds
        return geom

    def rings(self) -> tuple[Ring, ...]:
        return self.outers + self.holes


def _area(outers: Sequence[Ring], holes: Sequence[Ring]) -> float:
    a = sum(abs(r.signed_area) for r in outers)
    a -= sum(abs(r.signed_area) for r in holes)
    return float(a)


def polygon_area(geom: PolygonSet) -> float:
    """Total enclosed area: outer rings minus holes, orientation-independent."""
    return geom.area


def polygon_perimeter(geom: PolygonSet, include_holes: bool = False) -> float:
    """Boundary length of the outer rings; hole boundaries only on request."""
    e = geom.edges
    lengths = np.hypot(e[:, 2] - e[:, 0], e[:, 3] - e[:, 1])
    ends = np.cumsum([len(r) for r in geom.rings()])
    per_ring = [float(np.sum(part)) for part in np.split(lengths, ends[:-1])]
    n = len(geom.outers)
    p = sum(per_ring[:n])
    if include_holes:
        p += sum(per_ring[n:])
    return float(p)


def point_in_polygon(point: Point2 | tuple[float, float], geom: PolygonSet) -> bool:
    """Even-odd membership over all rings (holes toggle a point back out)."""
    px, py = (point.x, point.y) if isinstance(point, Point2) else (float(point[0]), float(point[1]))
    return bool(_crossing_parity(px, py, geom.edges))


class UnitKind(Enum):
    PRECINCT = "precinct"
    DISTRICT = "district"


@dataclass(frozen=True)
class VotingUnit:
    id: str
    geometry: PolygonSet
    dem_votes: int
    rep_votes: int
    kind: UnitKind = UnitKind.PRECINCT

    def __post_init__(self):
        if self.dem_votes < 0 or self.rep_votes < 0:
            raise GeometryError(f"unit {self.id}: negative vote count")
        if self.dem_votes > MAX_VOTES or self.rep_votes > MAX_VOTES:
            raise GeometryError(f"unit {self.id}: vote count above 2**52")
        if self.geometry.area <= 0.0:
            raise GeometryError(f"unit {self.id}: non-positive area")


class UnitCollection:
    """Immutable voting units in columns, with a cached overall bounding box.

    ids, geometries and kinds are tuples in unit order; dem and rep are
    read-only int64 arrays. units (and iteration, [i], by_id) gives
    VotingUnit objects, built on first access after with_votes. _geometry
    is the memo (see memo), shared only through with_votes.
    """

    __slots__ = ("ids", "geometries", "kinds", "dem", "rep", "bounds",
                 "_units", "_index", "_geometry")

    def __init__(self, units: Iterable[VotingUnit]):
        self._units = tuple(units)
        self.ids = tuple(u.id for u in self._units)
        self.geometries = tuple(u.geometry for u in self._units)
        self.kinds = tuple(u.kind for u in self._units)
        self.dem, self.rep = _read_only([u.dem_votes for u in self._units],
                                        [u.rep_votes for u in self._units])
        self._index = {}
        for i, uid in enumerate(self.ids):
            if self._index.setdefault(uid, i) != i:
                raise GeometryError(f"duplicate unit id: {uid}")
        self._geometry: dict = {}
        boxes = [g.bounds for g in self.geometries] or [Bounds(0.0, 0.0, 0.0, 0.0)]
        self.bounds = functools.reduce(Bounds.union, boxes)

    @property
    def units(self) -> tuple[VotingUnit, ...]:
        if self._units is None:
            self._units = tuple(map(VotingUnit, self.ids, self.geometries, self.dem.tolist(),
                                    self.rep.tolist(), self.kinds))
        return self._units

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.units)

    def __getitem__(self, i: int) -> VotingUnit:
        return self.units[i]

    def by_id(self, unit_id: str) -> VotingUnit:
        return self.units[self._index[unit_id]]

    def __contains__(self, unit_id: str) -> bool:
        return unit_id in self._index

    def positions(self, ids: Iterable[str]) -> np.ndarray:
        """Each id's index in the collection, -1 for an id it lacks."""
        return np.array([self._index.get(uid, -1) for uid in ids], dtype=np.int64)

    def with_votes(self, counts: Sequence[tuple[int, int]] | np.ndarray) -> "UnitCollection":
        """The same units, in order, with new (dem, rep) counts: pairs or an (n, 2) array.

        A count below 0 or above MAX_VOTES raises VotingUnit's error for the
        first unit that has one.
        """
        if isinstance(counts, np.ndarray):
            c = counts.reshape(-1, 2)
            bad = ((c < 0) | (c > MAX_VOTES)).any(axis=1)
        else:  # checked before int64 can overflow
            c = [(d, r) for d, r in counts]
            bad = [min(d, r) < 0 or max(d, r) > MAX_VOTES for d, r in c]
        if len(c) != len(self):
            raise ValueError(f"{len(c)} vote counts for {len(self)} units")
        for i in np.flatnonzero(bad)[:1].tolist():
            VotingUnit(self.ids[i], self.geometries[i], int(c[i][0]), int(c[i][1]),
                       self.kinds[i])  # raises
        c = np.array(c, dtype=np.int64).reshape(-1, 2)
        out = UnitCollection.__new__(UnitCollection)
        for name in self.__slots__:
            setattr(out, name, getattr(self, name))
        out.dem, out.rep = _read_only(c[:, 0], c[:, 1])
        out._units = None
        return out

    def memo(self, key, build: Callable[[], Any]) -> Any:
        """build(), called once per map and key; every with_votes join reads the result."""
        if key not in self._geometry:
            self._geometry[key] = build()
        return self._geometry[key]

    def edge_table(self) -> np.ndarray:
        """Every unit's edges end to end in unit order, one (E, 4) table.

        Built on each call, not kept: its callers run once per map."""
        return np.concatenate([np.empty((0, 4))] + [g.edges for g in self.geometries])

    def tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each unit's edge count, (minx, miny, maxx, maxy) box and area, read-only."""
        def build():
            g = self.geometries
            return _read_only(np.array([len(x.edges) for x in g], dtype=np.int64),
                              np.array([(x.bounds.minx, x.bounds.miny, x.bounds.maxx,
                                         x.bounds.maxy) for x in g]).reshape(-1, 4),
                              [x.area for x in g], dtype=None)
        return self.memo("tables", build)

    def snap_tolerance(self) -> float:
        d = self.bounds.diagonal
        return SNAP_RELATIVE_TOL * d if d > 0 else SNAP_RELATIVE_TOL


def _read_only(*columns, dtype=np.int64) -> tuple[np.ndarray, ...]:
    """Each column as a new read-only array (of dtype, unless that is None)."""
    out = tuple(np.array(c, dtype=dtype) for c in columns)
    for a in out:
        a.flags.writeable = False
    return out
