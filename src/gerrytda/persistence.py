"""Persistence barcodes, by two routes.

Rasters take levelset_barcode: connected components of the image and of its
complement at every level, swept over a graph of the image's equal-level
regions (scipy.sparse.csgraph), with no complex built. The image holds each
pixel's unit's level, read through the field's labels. barcode on a
FilteredComplex pairs cells as GF(2) column reduction of the boundary matrix
does (_pairing), with little column arithmetic: squares and triangles that
form apparent pairs are paired in array passes, edges go through union-find,
and only the edges that close a cycle have their coboundaries reduced in a
set-based loop. It serves the adjacency route, and the tests hold
levelset_barcode to it on the cubical complex of the same field; the plain
column loop is kept in the tests as _pairing's own reference.

Both routes fill a Barcode's dim, birth and death columns in array passes;
PersistencePairs are made only for a caller that reads pairs or bars.

scipy.sparse.csgraph is imported inside _components, the one function here
that calls scipy, so the commands and routes that take no raster barcode
load no scipy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .complexes import FilteredComplex, LevelSchedule, _unit_levels
from .errors import IngestError
from .raster import MarginField, _ranges

INF = math.inf


def _pairing(cx: FilteredComplex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Birth and death cells of the persistence pairs, and the unpaired cells.

    The pairs are those of the standard reduction of the boundary matrix
    over GF(2). For a fixed cell order they are unique, and the same as
    those of the coboundary matrix reduced from the last edge to the first,
    each column an edge's cofaces with its least coface as pivot (de Silva,
    Morozov and Vejdemo-Johansson, "Dualities in persistent (co)homology",
    2011). Three steps find them with little column arithmetic:

    1. Apparent pairs: a square or triangle j whose largest face f has j as
       its earliest coface pairs (f, j) (Bauer, "Ripser", arXiv:1908.02518);
       array passes find them all, each face's earliest coface by
       np.minimum.at over the cells' columns, with no search.
    2. H0: the other edges go through union-find in index order, each
       component named by its least vertex, the elder. An edge joining roots
       ra < rb pairs (rb, j); an edge within a component is left over.
    3. H1: the leftover edges' coboundaries are reduced, the last edge
       first. An apparent edge that owns the pivot adds its raw cofaces, a
       leftover edge its reduced column. A column that empties is an
       essential H1 class, and a square or triangle that no edge owns an
       essential H2 class.

    Step 3 is that reduction. A cell in edge e's column is a coface of e or
    of a later edge, so if it is apparent, its edge (its largest face) comes
    after e, which is not apparent: that column was reached first, and with
    no addition, as no later edge is a face of its cell. The H0 deaths are
    cleared, as in Ripser: their columns own nothing.
    """
    dims, indptr, indices = cx.dims, cx.indptr, cx.indices
    lens = np.diff(indptr)
    cols = np.flatnonzero(dims == 2)
    faces = indices[np.repeat(dims == 2, lens)]     # column after column
    start = np.cumsum(lens[cols]) - lens[cols]
    lows = np.maximum.reduceat(faces, start) if len(cols) else faces
    of = np.repeat(cols, lens[cols])                # each face's coface
    earliest = np.full(len(cx), len(cx))
    np.minimum.at(earliest, faces, of)
    apparent = earliest[lows] == cols
    order = np.argsort(faces, kind="stable")
    face, coface = faces[order], of[order]          # each face's cofaces, earliest first
    owner = np.full(len(cx), -1)
    owner[cols[apparent]] = lows[apparent]          # apparent death -> its edge

    edges = dims == 1
    edges[lows[apparent]] = False                   # cleared: each is an H1 birth
    edges = np.flatnonzero(edges)
    vertices = np.flatnonzero(dims == 0)
    rank = np.cumsum(dims == 0) - 1                 # ranks keep cell order
    parent = list(range(len(vertices)))             # roots are least
    roots, merges, leftover = [], [], []
    for j, a, b in zip(edges.tolist(), rank[indices[indptr[edges]]].tolist(),
                       rank[indices[indptr[edges] + 1]].tolist()):
        while (p := parent[a]) != a:
            parent[a] = a = parent[p]
        while (p := parent[b]) != b:
            parent[b] = b = parent[p]
        if a == b:
            leftover.append(j)
            continue
        if a > b:
            a, b = b, a
        parent[b] = a
        roots.append(b)
        merges.append(j)

    def cofaces(e):
        return coface[face.searchsorted(e):face.searchsorted(e, "right")].tolist()

    cycles, reduced = [], {}                        # pivot -> reduced column
    for e in reversed(leftover) if len(cols) else ():
        col = set(cofaces(e))
        while col:
            t = min(col)
            if t in reduced:
                col.symmetric_difference_update(reduced[t])
            elif (a := owner[t]) >= 0:
                col.symmetric_difference_update(cofaces(a))
            else:
                reduced[t] = col
                cycles.append(e)
                break
    births = np.concatenate([lows[apparent], vertices[roots], cycles]).astype(np.int64)
    deaths = np.concatenate([cols[apparent], merges, list(reduced)]).astype(np.int64)
    paired = np.zeros(len(cx), bool)
    paired[births] = paired[deaths] = True
    return births, deaths, np.flatnonzero(~paired)


@dataclass(frozen=True, order=True)
class PersistencePair:
    dim: int
    birth: int
    death: float  # level index, or math.inf for essential classes

    @property
    def essential(self) -> bool:
        return math.isinf(self.death)


class Barcode:
    """Bars as read-only dims, births and deaths columns (inf for essential
    bars), in the order given; pairs is made when first read."""

    __slots__ = ("dims", "births", "deaths", "num_levels", "thresholds", "_pairs")

    def __init__(self, pairs: Iterable[PersistencePair], num_levels: int,
                 thresholds: tuple[float, ...] | None = None):
        pairs = tuple(pairs)
        columns = (np.array([getattr(p, c) for p in pairs]) for c in ("dim", "birth", "death"))
        self._fill(*columns, num_levels, thresholds, pairs)

    @classmethod
    def _of(cls, dims, births, deaths, num_levels, thresholds) -> Barcode:
        bc = cls.__new__(cls)
        bc._fill(dims, births, deaths, num_levels, thresholds, None)
        return bc

    def _fill(self, dims, births, deaths, num_levels, thresholds, pairs):
        # each a new array; births keep their type, as a bar's birth does
        self.dims, self.births, self.deaths = dims.astype(np.int64), births, deaths.astype(float)
        for col in (self.dims, self.births, self.deaths):
            col.flags.writeable = False
        self.num_levels, self.thresholds, self._pairs = num_levels, thresholds, pairs

    @property
    def pairs(self) -> tuple[PersistencePair, ...]:
        if self._pairs is None:
            self._pairs = _pairs(self.dims, self.births, self.deaths)
        return self._pairs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.num_levels, self.thresholds) == (other.num_levels, other.thresholds) \
            and all(np.array_equal(getattr(self, c), getattr(other, c))
                    for c in ("dims", "births", "deaths"))

    def __hash__(self):
        return hash((self.num_levels, self.thresholds, self.dims.tobytes()))

    def __repr__(self):
        return f"Barcode({self.pairs!r}, {self.num_levels!r}, {self.thresholds!r})"

    def bars(self, dim: int) -> tuple[PersistencePair, ...]:
        on = self.dims == dim
        return _pairs(self.dims[on], self.births[on], self.deaths[on])

    def alive(self, level: int, dim: int) -> int:
        return int(np.count_nonzero((self.dims == dim) & (self.births <= level)
                                    & (level < self.deaths)))

    def _to_value(self, level: float) -> float:
        if math.isinf(level):
            return INF
        if self.thresholds is None:
            return float(level)
        return self.thresholds[int(level) - 1]

    def diagram(self, dim: int) -> list[tuple[float, float]]:
        """Bars of one dimension as (birth, death) in threshold units."""
        on = self.dims == dim
        return [(self._to_value(b), self._to_value(x))
                for b, x in zip(self.births[on].tolist(), self.deaths[on].tolist())]

    def to_json(self) -> dict:
        """Bars in threshold units, or in level units when there are no thresholds."""
        out_pairs = [{"dim": d, "birth": self._to_value(b),
                      "death": "inf" if math.isinf(x) else self._to_value(x)}
                     for d, b, x in zip(self.dims.tolist(), self.births.tolist(),
                                        self.deaths.tolist())]
        doc = {"num_levels": self.num_levels, "pairs": out_pairs}
        if self.thresholds is None:
            doc["units"] = "level"
        return doc

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _pairs(dims: np.ndarray, births: np.ndarray,
           deaths: np.ndarray) -> tuple[PersistencePair, ...]:
    return tuple(PersistencePair(d, b, x if math.isinf(x) else int(x)) for d, b, x in
                 zip(dims.tolist(), births.tolist(), deaths.tolist()))


def read_barcode_json(doc: dict | str) -> tuple[dict[int, list[tuple[float, float]]], int]:
    """Barcode JSON to per-dimension diagrams (in the units the file used).

    IngestError, naming the pair, for text that is not JSON, for a missing
    key or a value of the wrong kind, and for a birth that is not finite or
    a death that is NaN or -inf.
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise IngestError(f"not JSON: {exc}") from None
    diagrams: dict[int, list[tuple[float, float]]] = {}
    where = "barcode"
    try:
        num_levels = int(doc["num_levels"])
        for k, p in enumerate(doc["pairs"]):
            where = f"pair {k}"
            death = INF if p["death"] == "inf" else float(p["death"])
            bars = diagrams.setdefault(int(p["dim"]), [])
            birth = float(p["birth"])
            if not math.isfinite(birth):
                raise ValueError(f"birth {birth} is not finite")
            if not death > -INF:  # NaN or -inf
                raise ValueError(f"death {death} is neither finite nor inf")
            bars.append((birth, death))
    except KeyError as exc:
        raise IngestError(f"{where}: no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise IngestError(f"{where}: {exc}") from None
    return diagrams, num_levels


def barcode(cx: FilteredComplex) -> Barcode:
    """Persistence barcode of a filtered complex; zero-length bars dropped."""
    births, deaths, essential = _pairing(cx)
    cells = np.concatenate([births, essential])
    birth = cx.levels[cells]
    death = np.concatenate([cx.levels[deaths], np.full(len(essential), INF)])
    keep = birth < death
    dim, birth, death = cx.dims[cells][keep], birth[keep], death[keep]
    order = np.lexsort((death, birth, dim))
    return Barcode._of(dim[order], birth[order], death[order], cx.num_levels, cx.thresholds)


# === level-set barcodes from a graph of equal-level regions ===

def _components(n: int, u: np.ndarray, v: np.ndarray) -> tuple[int, np.ndarray]:
    """Number of components of n nodes under the links (u[k], v[k]), and each node's."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    graph = coo_matrix((np.ones(len(u), np.int8), (u, v)), shape=(n, n))
    return connected_components(graph, directed=False)


def _raster_graph(field: MarginField, schedule: LevelSchedule,
                  polarity: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Levels, 4-adjacent pairs and 8-adjacent pairs of a field's equal-level regions.

    Each pixel takes its unit's level through the labels (_unit_levels).
    The image is padded with a border ring at L + 1, the level of background
    and of units that never enter, and cut into row runs of equal level. A
    run touches the next run in its row and the runs below that overlap its
    columns (4-links) or touch it diagonally (8-links). The runs of a row
    partition it, so those below form a range of run ids, read off the
    run-id image below the run's two ends. Runs joined by equal-level
    4-links make the regions; each region pair is listed once.
    """
    L = schedule.num_levels
    pad = np.full(np.add(field.labels.shape, 2), L + 1, dtype=np.int32)
    pad[1:-1, 1:-1] = _unit_levels(field, schedule, polarity)[field.labels]
    w = pad.shape[1]
    new = np.ones(pad.shape, dtype=bool)  # a run starts each row and each change of level
    np.not_equal(pad[:, 1:], pad[:, :-1], out=new[:, 1:])
    run = np.cumsum(new, dtype=np.int32)  # flat run-id image
    run -= 1
    start = np.flatnonzero(new)
    del new  # each pixel-sized image is freed once read
    level = pad.ravel()[start]
    end = np.append(start[1:], pad.size) - 1
    del pad
    # the pixels below each run's two ends; the last row is all border, so
    # it is the last run and the only one with no row below
    first_below, last_below = start[:-1] + w, end[:-1] + w
    lo4, hi4 = run[first_below], run[last_below]
    lo8 = run[first_below - (start[:-1] % w > 0)]
    hi8 = run[last_below + (end[:-1] % w < w - 1)]
    del run
    up, down = _ranges(lo8, hi8 + 1)
    beside = np.flatnonzero(start[1:] % w > 0)  # runs followed by one in their row
    u, v = np.concatenate([beside, up]), np.concatenate([beside + 1, down])
    four = np.concatenate([np.ones(len(beside), bool), (lo4[up] <= down) & (down <= hi4[up])])

    equal = four & (level[u] == level[v])
    m, region = _components(len(start), u[equal], v[equal])
    levels = np.zeros(m, dtype=np.int64)
    levels[region] = level
    u, v = region[u], region[v]
    lo, hi = np.minimum(u, v).astype(np.int64), np.maximum(u, v)

    def pairs(keep):
        return np.column_stack(np.divmod(np.unique(lo[keep] * m + hi[keep]), m))

    return levels, pairs(four & ~equal), pairs(lo != hi)


def _elder(entry: np.ndarray, pairs: np.ndarray,
           last: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elder rule for a graph whose nodes enter over times 0 to last.

    Node r is present from time entry[r] on, and a link once both its ends
    are. One connected-components call labels every time at once, on a graph
    that holds a copy of the present nodes and links for each time. A
    component's value is the least entry among its nodes. Of the components
    at time t that lie in one component at t + 1, all but the least-valued
    lose the merge. Returns the losers' values, the times they lost at, and
    the values of the components at time last.
    """
    count = np.maximum(last + 1 - entry, 0)
    first = np.cumsum(count) - count  # node (r, t) is first[r] + t - entry[r]
    node_r, node_t = _ranges(entry, last + 1)
    a, b = pairs[:, 0], pairs[:, 1]
    k, t = _ranges(np.maximum(entry[a], entry[b]), last + 1)
    a, b = a[k], b[k]
    m, comp = _components(len(node_t), first[a] + t - entry[a], first[b] + t - entry[b])
    value = np.full(m, last + 1)
    np.minimum.at(value, comp, entry[node_r])
    time = np.empty(m, dtype=np.int64)
    time[comp] = node_t
    into = np.empty(m, dtype=np.int64)  # the component at time + 1
    step = np.flatnonzero(node_t < last)  # node + 1 is (r, t + 1)
    into[comp[step]] = comp[step + 1]
    kids = np.flatnonzero(time < last)
    kids = kids[np.lexsort((value[kids], into[kids]))]
    lost = kids[1:][into[kids[1:]] == into[kids[:-1]]]
    return value[lost], time[lost] + 1, value[time == last]


def _sweep(levels: np.ndarray, primal: np.ndarray, dual: np.ndarray,
           L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bars of a graph whose nodes enter at levels 1 to L (L + 1: never), as
    dim, birth and death columns.

    H0 is the components of the active nodes under the primal links, swept
    upwards: a merge keeps the oldest component and ends each other one's
    bar. H1 is the bounded components of the inactive nodes under the dual
    links, swept downwards as they grow. A component is a hole filled at
    the highest level among its nodes, or never if it holds a never-active
    node. A merge at level i keeps the hole filled last and gives each
    other one the bar (i + 1, fill level).
    """
    birth, death, alive = _elder(levels, primal, L)
    # time t is level L - t, and a node is inactive below its level
    fill, time, _ = _elder(L + 1 - levels, dual, L)
    dims = np.repeat([0, 1], [len(birth) + len(alive), len(time)])
    births = np.concatenate([birth, alive, L + 1 - time])
    deaths = np.concatenate([death, np.full(len(alive), INF),
                             np.where(fill == 0, INF, L + 1 - fill)])
    return dims, births, deaths


def levelset_barcode(field: MarginField, schedule: LevelSchedule,
                     polarity: str = "democratic") -> Barcode:
    """The barcode of the field's cubical level-set filtration, from the image.

    The complex at level i is the cubical complex of the active pixels:
    4-neighbor edges and 2x2 squares, each cell entering at the highest
    level among its pixels. So H0 is their 4-connected components. By Alexander duality H1 is the
    bounded 8-connected components of the complement: pixels not yet
    active, excluded pixels and a border ring. Both sweeps run on the
    field's equal-level regions (_raster_graph), not on its pixels. A planar
    complex has no H2. A field in which no pixel ever enters has no bars.
    """
    L = schedule.num_levels
    dims, births, deaths = _sweep(*_raster_graph(field, schedule, polarity), L)
    order = np.lexsort((deaths, births, dims))
    return Barcode._of(dims[order], births[order], deaths[order], L, schedule.thresholds)
