"""Planar polygon primitives and the unit collection a parsed map becomes.

Coordinates are assumed to live in a planar projection already; nothing in
here knows about longitude/latitude. A ring's signed area is half the sum
of its edges' cross products about its first vertex, the one area rule: it
keeps its digits at state-plane coordinates (1e5 to 1e7), where products
about the origin cancel. Point membership is even-odd ray casting with a
half-open tie rule (top and left edges inclusive) over an edge table, so
that abutting polygons partition the plane without double-claiming
boundary points.

A parsed map keeps every ring's vertices end to end in one (V, 2) table
with ring offsets (the GeoArrow ragged layout). ring_table measures it in
one pass, giving the (V, 4) edge table (one x1 y1 x2 y2 row per ring edge)
and every signed area. hole_owners places a unit's holes in its outer
rings from those edge rows by the same membership rule, for ingest's hole
check and to_geojson.

A UnitCollection is a map in columns: the edge table, each unit's edge
count and area, and votes as two read-only int64 arrays (counts at most
MAX_VOTES). ingest.parse_geojson is the one way to build one. A memo keeps
what depends on geometry alone (adjacency, label rasters); with_votes
swaps the vote arrays, given as one (n, 2) integer array, and shares the
rest, memo included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable, Iterator, Sequence

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


def ring_table(vertices: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge table and signed areas of rings stored end to end.

    vertices is a (V, 2) float64 table; ring r is rows offsets[r]:offsets[r + 1],
    closing vertex implicit. Returns the (V, 4) edge table, row j being vertex
    j and the next vertex round its ring, and the array of signed areas: half
    each ring's cross products about its first vertex, summed by np.add.reduceat.
    """
    nxt = np.arange(1, len(vertices) + 1)
    nxt[offsets[1:] - 1] = offsets[:-1]
    edges = np.hstack([vertices, vertices[nxt]])
    edges.setflags(write=False)
    d = edges - np.tile(vertices[np.repeat(offsets[:-1], np.diff(offsets))], 2)
    areas = 0.5 * np.add.reduceat(d[:, 0] * d[:, 3] - d[:, 2] * d[:, 1], offsets[:-1])
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


def hole_owners(edges: np.ndarray, outers: Sequence[tuple[int, int]],
                holes: Sequence[tuple[int, int]]) -> list[int]:
    """For each hole, the index in outers of the ring that holds it.

    outers and holes are (start, stop) ranges of edges rows, as ring_spans
    gives a unit's rings. A hole goes to the first outer ring whose crossing
    parity holds one point inside the hole: the middle of the hole's first
    span on a scanline between its two lowest vertex y values, the spans
    that raster._label fills. GeometryError if there is no outer ring, or a
    hole has zero area (as ring_table measures it) or lies in none.
    """
    if not outers:
        raise GeometryError("polygon set needs at least one outer ring")
    owners = []
    for a, b in holes:
        if ring_table(edges[a:b, :2], np.array([0, b - a]))[1][0] == 0.0:
            raise GeometryError("degenerate ring: zero area")
        x1, y1, x2, y2 = edges[a:b].T
        lo, hi = np.unique(y1)[:2]  # a ring of nonzero area has two y values
        # above lo even with no float between lo and hi: at py = hi the
        # (min, max] rule cuts the same edges as a line between them
        py = max(0.5 * (lo + hi), np.nextafter(lo, hi))
        cut = (y1 >= py) != (y2 >= py)
        xs = np.sort(x1[cut] + (py - y1[cut]) * (x2[cut] - x1[cut]) / (y2[cut] - y1[cut]))
        px = 0.5 * (xs[0] + xs[1])
        for k, (s, t) in enumerate(outers):
            if _crossing_parity(px, py, edges[s:t]):
                owners.append(k)
                break
        else:
            raise GeometryError("hole lies outside every outer ring")
    return owners


class UnitKind(Enum):
    PRECINCT = "precinct"
    DISTRICT = "district"


class UnitCollection:
    """Immutable voting units in columns, with a cached overall bounding box.

    ids and kinds are tuples in unit order; dem and rep are read-only int64
    arrays. The geometry is read-only columns, set at construction: edges,
    every unit's ring edge rows end to end in unit order, outer rings first;
    and per unit, edge_counts and areas. ring_spans gives each ring's rows.
    Results that depend on geometry alone go in the memo (see memo), which
    only with_votes shares. ingest.parse_geojson is the one caller of the
    constructor.
    """

    __slots__ = ("ids", "kinds", "dem", "rep", "edges", "edge_counts", "areas", "bounds",
                 "_rings", "_index", "_geometry")

    def __init__(self, ids, kinds, dem, rep, edges, ring_ends, ring_counts, ring_areas):
        """Units over ring_table's edges and signed areas.

        Ring r is edges rows ring_ends[r]:ring_ends[r + 1]; unit i takes the
        next ring_counts[i] = (outer, hole) rings, outers first. The ids must
        be distinct and each count lie in 0..MAX_VOTES; nothing is checked,
        so ingest checks how a unit's rings fit together on the result.
        """
        self.ids = tuple(ids)
        self.kinds = tuple(kinds)
        self.dem, self.rep = _read_only(dem, rep)
        self._index = {uid: i for i, uid in enumerate(self.ids)}
        counts = np.array(ring_counts, dtype=np.int64).reshape(-1, 2)
        first = np.concatenate(([0], np.cumsum(counts.sum(axis=1))))  # each unit's first ring
        # outer rings less holes, in ring order; a unit without rings is an
        # empty segment, which reduceat would read as the next unit's first ring
        signed = np.repeat(np.tile([1.0, -1.0], len(counts)), counts.ravel()) * np.abs(ring_areas)
        areas, rings = np.zeros(len(counts)), counts.any(axis=1)
        areas[rings] = np.add.reduceat(signed, first[:-1][rings])
        self.edge_counts, = _read_only(np.diff(ring_ends[first]))
        self.areas, = _read_only(areas, dtype=np.float64)
        self.edges = edges
        self.edges.flags.writeable = False
        self._rings = (ring_ends, counts.tolist())
        # over every row, holes too: the scanline may give a unit the part
        # of a hole that leaves its outer ring
        self.bounds = Bounds(0.0, 0.0, 0.0, 0.0)
        if len(edges):
            x, y = edges[:, 0], edges[:, 1]  # one column at a time reduces fastest
            self.bounds = Bounds(float(x.min()), float(y.min()), float(x.max()), float(y.max()))
        self._geometry = {}

    def __len__(self) -> int:
        return len(self.ids)

    def ring_spans(self) -> Iterator[tuple[list[tuple[int, int]], list[tuple[int, int]]]]:
        """Each unit's outer rings and holes, in order, as (start, stop) ranges of edges rows."""
        ring_ends, counts = self._rings
        ends = ring_ends.tolist()
        spans = list(zip(ends[:-1], ends[1:]))
        r = 0
        for k, h in counts:
            yield spans[r:r + k], spans[r + k:r + k + h]
            r += k + h

    def positions(self, ids: Iterable[str]) -> np.ndarray:
        """Each id's index in the collection, -1 for an id it lacks."""
        return np.array([self._index.get(uid, -1) for uid in ids], dtype=np.int64)

    def with_votes(self, counts: np.ndarray) -> "UnitCollection":
        """The same units, in order, with new counts: an (n, 2) integer array of (dem, rep).

        Any other input raises TypeError. A count below 0 or above MAX_VOTES
        raises GeometryError naming the first unit that has one.
        """
        if not isinstance(counts, np.ndarray) or counts.dtype.kind not in "iu":
            raise TypeError("vote counts must be an (n, 2) integer array")
        if counts.shape != (len(self), 2):
            raise ValueError(f"vote counts of shape {counts.shape} for {len(self)} units")
        bad = np.flatnonzero(((counts < 0) | (counts > MAX_VOTES)).any(axis=1))
        if len(bad):
            fault = "negative vote count" if counts[bad[0]].min() < 0 else "vote count above 2**52"
            raise GeometryError(f"unit {self.ids[bad[0]]}: {fault}")
        out = UnitCollection.__new__(UnitCollection)
        for name in self.__slots__:
            setattr(out, name, getattr(self, name))
        out.dem, out.rep = _read_only(counts[:, 0], counts[:, 1])
        return out

    def memo(self, key, build: Callable[[], Any]) -> Any:
        """build(), called once per map and key; every with_votes join reads the result."""
        if key not in self._geometry:
            self._geometry[key] = build()
        return self._geometry[key]

    def snap_tolerance(self) -> float:
        d = self.bounds.diagonal
        return SNAP_RELATIVE_TOL * d if d > 0 else SNAP_RELATIVE_TOL


def _read_only(*columns, dtype=np.int64) -> tuple[np.ndarray, ...]:
    """Each column as a new read-only array (of dtype, unless that is None)."""
    out = tuple(np.array(c, dtype=dtype) for c in columns)
    for a in out:
        a.flags.writeable = False
    return out
