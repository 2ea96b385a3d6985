"""Readers for the two input formats and the geometry/votes join.

GeoJSON: FeatureCollection of Polygon / MultiPolygon features, unit id in a
string property (default "id"). Votes CSV: header unit_id,dem_votes,rep_votes.
Units present in the geometry but absent from the CSV are filled with a
token 10/10 split so margins stay defined; vote rows with no geometry are
reported as orphans but do not fail the join. Either text may start with a
UTF-8 byte order mark; a negative vote count, or one above 2**52, is an error.

parse_geojson reads every ring of a file, a unit's outer rings first, into
one flat (V, 2) vertex table with ring offsets (the GeoArrow ragged layout),
and checks and measures it in whole-array operations and one
geometry.ring_table call. If a check fails, the same code runs on each ring
alone, in file order, to name the fault. The collection keeps those tables.
Only a unit with holes, or with no ring, is checked further:
geometry.hole_owners places its holes from its edge rows, as to_geojson
places them. Unit ids are stripped of surrounding whitespace in both
readers, so a map and a votes file join on the same ids. Bytes that are not
UTF-8, and any other malformed input, raise IngestError.

Votes take one form, a VoteTable: ids and two read-only count arrays of
one length. parse_votes_csv fills one in a single loop over the csv rows,
which checks each row as it reads it and raises at the first fault.
join_units scatters a VoteTable into the map's unit order.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NoReturn

import numpy as np

from .errors import GeometryError, IngestError
from .geometry import MAX_VOTES, UnitCollection, UnitKind, _read_only, hole_owners, ring_table

log = logging.getLogger(__name__)

# Token count filled in for units missing from the votes file.
MISSING_VOTES_FILL = 10

_CSV_HEADER = ["unit_id", "dem_votes", "rep_votes"]


class VoteTable:
    """A votes file in columns: unit ids, and read-only int64 dem and rep arrays."""

    __slots__ = ("ids", "dem", "rep")

    def __init__(self, ids: Iterable[str], dem, rep):
        self.ids = tuple(ids)
        self.dem, self.rep = _read_only(dem, rep)
        if not len(self.ids) == len(self.dem) == len(self.rep):
            raise ValueError(f"vote columns of unequal length: {len(self.ids)} ids, "
                             f"{len(self.dem)} dem, {len(self.rep)} rep")

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class JoinReport:
    matched: int
    filled_missing: int
    orphan_vote_rows: tuple[str, ...]

    def __post_init__(self):
        if self.matched < 0 or self.filled_missing < 0:
            raise IngestError("join report counts must be non-negative")


def _count(value, key: str, feature_idx: int) -> int:
    """A vote-count property as an int in 0..MAX_VOTES; any other value is an error."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or isinstance(value, bool) or (isinstance(value, float) and count != value):
        raise IngestError(f"feature {feature_idx}: non-integer {key} {value!r}")
    if count < 0:
        raise IngestError(f"feature {feature_idx}: negative {key}")
    if count > MAX_VOTES:
        raise IngestError(f"feature {feature_idx}: {key} above 2**52")
    return count


def _ring_fault(feature_parts: list) -> NoReturn:
    """Raise the first ring fault in file order, found by measuring each ring alone.

    feature_parts holds each feature's polygons, each a list of rings. The
    table of every ring only tells that some ring is bad; _vertex_table on
    one ring names the fault.
    """
    for i, parts in enumerate(feature_parts):
        for ring in (ring for part in parts for ring in part):
            try:
                _vertex_table([ring])
            except GeometryError as e:
                raise IngestError(f"feature {i}: {e}") from e
    raise AssertionError("a ring table fault that no ring has alone")


def _vertex_table(rings: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every ring's vertices end to end, measured by ring_table: edges, areas, offsets.

    Ring r is rows offsets[r]:offsets[r + 1]. A closing vertex equal to the
    first is dropped. GeometryError if some ring is not a sequence of (x, y)
    numbers, or has fewer than 3 vertices left, a non-finite one or zero
    area; called on one ring, it names that ring's fault. A ring that is not
    a JSON array is not such a sequence, and a coordinate that is not a JSON
    number (a string, true, false or null) is malformed.
    """
    if not all(isinstance(c, list) for c in rings):
        raise GeometryError("ring coordinates must be an (n, 2) sequence")
    counts = np.array([len(c) for c in rings], dtype=np.int64)
    points = [p for c in rings for p in c]
    try:
        raw = np.array(points, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as e:
        raise GeometryError("malformed polygon coordinates") from e
    if rings and (raw.ndim != 2 or raw.shape[1] != 2 or not counts.all()):
        raise GeometryError("ring coordinates must be an (n, 2) sequence")
    if not set(map(type, chain.from_iterable(points))) <= {float, int}:
        raise GeometryError("malformed polygon coordinates")
    raw = raw.reshape(-1, 2)
    ends = np.cumsum(counts)
    closed = (counts >= 2) & (raw[ends - counts] == raw[ends - 1]).all(axis=1)
    keep = np.ones(len(raw), dtype=bool)
    keep[ends[closed] - 1] = False
    vertices = raw[keep]
    sizes = counts - closed
    if (sizes < 3).any():
        raise GeometryError(f"degenerate ring: {sizes.min()} vertices")
    if not np.isfinite(vertices).all():
        raise GeometryError("non-finite ring coordinate")
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    edges, areas = ring_table(vertices, offsets)
    if not areas.all():
        raise GeometryError("degenerate ring: zero area")
    return edges, areas, offsets


def parse_geojson(text: str | bytes, id_property: str = "id",
                  kind: UnitKind | None = None) -> UnitCollection:
    """Parse a FeatureCollection into a UnitCollection.

    Vote counts default to zero; dem_votes/rep_votes properties are honored
    when present so a serialized collection round-trips. Every ring goes
    into one vertex table, measured by geometry.ring_table, whose edge table
    and areas become the collection's columns.

    Faults raise IngestError naming the feature: first those in a feature's
    properties or nesting, then those in single rings, then those in how a
    unit's rings fit together, each kind in file order.
    """
    try:
        text = text.decode("utf-8") if isinstance(text, bytes) else text
        doc = json.loads(text.removeprefix("\ufeff"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise IngestError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise IngestError("expected a FeatureCollection")
    ids: dict[str, None] = {}  # in file order
    kinds: list[UnitKind] = []
    votes: list[int] = []  # dem, rep, dem, rep, ...
    rings: list = []  # each ring's coordinates, a feature's outer rings first
    feature_parts: list = []  # each feature's polygons, in file order
    ring_counts: list[tuple[int, int]] = []  # each feature's outer and hole rings
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise IngestError("features is not a list")
    for i, feat in enumerate(features):
        if not isinstance(feat, dict):
            raise IngestError(f"feature {i}: not a JSON object")
        props = feat.get("properties") or {}
        if not isinstance(props, dict):
            raise IngestError(f"feature {i}: properties is not a JSON object")
        uid = props.get(id_property)
        if uid is None:
            raise IngestError(f"feature {i}: missing id")
        uid = str(uid).strip()  # as parse_votes_csv strips its ids
        if not uid:
            raise IngestError(f"feature {i}: empty id")
        if uid in ids:
            raise IngestError(f"feature {i}: duplicate unit id {uid}")
        ids[uid] = None
        geom = feat.get("geometry") or {}
        if not isinstance(geom, dict):
            raise IngestError(f"feature {i}: geometry is not a JSON object")
        gtype = geom.get("type")
        parts = geom.get("coordinates", [])
        try:
            if gtype == "Polygon":
                outers, holes, parts = [parts[0]], parts[1:], [parts]
            elif gtype == "MultiPolygon":
                outers = [part[0] for part in parts]
                holes = [h for part in parts for h in part[1:]]
            else:
                raise IngestError(f"feature {i}: unsupported geometry type {gtype!r}")
        except (IndexError, KeyError, TypeError) as e:
            raise IngestError(f"feature {i}: malformed polygon coordinates") from e
        rings += outers
        feature_parts.append(parts)
        rings += holes
        ring_counts.append((len(outers), len(holes)))
        votes += [_count(props["dem_votes"], "dem_votes", i) if "dem_votes" in props else 0,
                  _count(props["rep_votes"], "rep_votes", i) if "rep_votes" in props else 0]
        ukind = kind
        if ukind is None:
            try:
                ukind = UnitKind(props.get("kind", UnitKind.PRECINCT.value))
            except ValueError:
                raise IngestError(f"feature {i}: unknown kind {props['kind']!r}") from None
        kinds.append(ukind)

    try:
        edges, areas, offsets = _vertex_table(rings)
    except GeometryError:
        _ring_fault(feature_parts)
    units = UnitCollection(ids, kinds, votes[0::2], votes[1::2], edges, offsets,
                           ring_counts, areas)
    # only a unit with holes or without rings can fail: a hole-free unit's area is positive
    k, h = np.array(ring_counts, dtype=np.int64).reshape(-1, 2).T
    flagged = np.flatnonzero((h > 0) | (k == 0)).tolist()
    spans = list(units.ring_spans()) if flagged else []
    for i in flagged:
        try:
            hole_owners(edges, *spans[i])
        except GeometryError as e:
            raise IngestError(f"feature {i}: {e}") from e
        if units.areas[i] <= 0.0:
            raise IngestError(f"feature {i}: non-positive area")
    return units


def to_geojson(units: UnitCollection, id_property: str = "id") -> dict:
    """Serialize back to a FeatureCollection, each ring from its edge rows.

    Rings are explicitly closed. A hole goes in the polygon of the outer
    ring that holds it, as geometry.hole_owners places it.
    """
    vertices = units.edges[:, :2]

    def closed(a: int, b: int) -> list[list[float]]:
        pts = vertices[a:b].tolist()
        pts.append(pts[0])
        return pts

    features = []
    for uid, (outers, holes), dem, rep, kind in zip(units.ids, units.ring_spans(),
                                                    units.dem.tolist(), units.rep.tolist(),
                                                    units.kinds):
        parts = [[closed(a, b)] for a, b in outers]
        if holes:
            for (a, b), owner in zip(holes, hole_owners(units.edges, outers, holes)):
                parts[owner].append(closed(a, b))
        if len(parts) == 1:
            geometry = {"type": "Polygon", "coordinates": parts[0]}
        else:
            geometry = {"type": "MultiPolygon", "coordinates": parts}
        features.append({
            "type": "Feature",
            "properties": {id_property: uid, "dem_votes": dem, "rep_votes": rep,
                           "kind": kind.value},
            "geometry": geometry,
        })
    return {"type": "FeatureCollection", "features": features}


def parse_votes_csv(text: str | bytes) -> VoteTable:
    """Parse the votes CSV, checking each row as it is read.

    Blank rows are skipped, and every cell is stripped. The first fault
    raises IngestError; row numbers count the header as row 1.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        rows = list(csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline="")))
    except (UnicodeDecodeError, csv.Error) as e:  # not UTF-8, or a cell over csv's limit
        raise IngestError(f"unreadable votes file: {e}") from e
    if not rows:
        raise IngestError("missing header: empty votes file")
    if [c.strip() for c in rows[0]] != _CSV_HEADER:
        raise IngestError(f"missing or malformed header: expected {','.join(_CSV_HEADER)}")
    ids: dict[str, None] = {}
    counts: list[int] = []  # dem, rep, dem, rep, ...
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3 or not (uid := row[0].strip()):
            if not any(map(str.strip, row)):
                continue
            if len(row) != 3:
                raise IngestError(f"row {lineno}: expected 3 fields, got {len(row)}")
            raise IngestError(f"row {lineno}: empty unit_id")
        if uid in ids:
            raise IngestError(f"row {lineno}: duplicate unit_id {uid}")
        ids[uid] = None
        try:  # int() strips less than str.strip
            dem, rep = int(row[1].strip()), int(row[2].strip())
        except ValueError:
            dem = rep = -1
        if not 0 <= dem <= MAX_VOTES >= rep >= 0:  # name the fault as the cells read
            for s in map(str.strip, row[1:]):
                try:
                    v = int(s)
                except ValueError:
                    raise IngestError(f"row {lineno}: non-integer count {s!r}") from None
                if v < 0:
                    raise IngestError(f"row {lineno}: negative count")
                if v > MAX_VOTES:
                    raise IngestError(f"row {lineno}: count above 2**52")
        counts += dem, rep
    return VoteTable(ids, counts[0::2], counts[1::2])


def join_units(geo: UnitCollection, votes: VoteTable) -> tuple[UnitCollection, JoinReport]:
    """Attach a VoteTable's counts to geometry by unit id.

    Every geometry unit appears in the result, in geo's order and with its
    geometry (so the result shares geo's memo): matched units take the vote
    counts, unmatched ones are filled with 10/10. A unit named twice takes
    its last row; an orphan row's counts are never read.
    """
    at = geo.positions(votes.ids)
    # the last row of each unit: the first in reverse order
    last = len(at) - 1 - np.unique(at[::-1], return_index=True)[1]
    last = last[at[last] >= 0]
    counts = np.full((len(geo), 2), MISSING_VOTES_FILL, dtype=np.int64)
    counts[at[last]] = np.column_stack([votes.dem[last], votes.rep[last]])
    orphans = tuple(uid for uid, k in zip(votes.ids, at.tolist()) if k < 0)
    if orphans:
        log.warning("votes for %d unknown unit(s): %s", len(orphans), ", ".join(orphans[:5]))
    return geo.with_votes(counts), JoinReport(len(last), len(geo) - len(last), orphans)
