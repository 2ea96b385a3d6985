"""Level schedules, and the filtered complex of unit adjacency.

The level-set sweep of a rasterized margin field models a Republican "sea"
flooding Democratic islands as the margin threshold rises: each pixel enters
at its unit's level (_unit_levels), and persistence.levelset_barcode reads
the cubical barcode off that image, with no complex built.

The adjacency route builds a complex: a flag filtration of the unit
adjacency graph under a descending win-margin sweep, with triangles filled
for mutually adjacent triples, which persistence.barcode pairs. Graph and
complex come from whole-map array passes over the edge column: a sort and
sweep of each unit's box over all its rows, rows pruned to the partner's
box, row pairs tested in blocks of at most _ROW_BLOCK for a shared snapped
vertex (queen) or a collinear overlap (both kinds), and wedges for
triangles. One pass per parsed map finds both kinds, for the map's memo,
which every vote year joined to it reads (join_units keeps the columns, memo
and unit order); any other collection, even of the same units, has its own.

Cells are stored columnar (dims, levels, boundary CSR) in the filtration
order (level, dim, insertion id). A vertex whose level lies outside 1..L
never enters and is left out, so classes it blocks run to infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ComplexError, ParameterError, StructureError
from .geometry import UnitCollection
from .raster import MarginField, _ranges


@dataclass(frozen=True)
class LevelSchedule:
    """Strictly increasing thresholds tau_1 < ... < tau_L in (0, 1]."""

    thresholds: tuple[float, ...]

    def __post_init__(self):
        t = self.thresholds
        if len(t) < 2:
            raise ParameterError("schedule needs at least 2 levels")
        if any(not (0.0 < x <= 1.0) for x in t):
            raise ParameterError("thresholds must lie in (0, 1]")
        if any(a >= b for a, b in zip(t, t[1:])):
            raise ParameterError("thresholds must be strictly increasing")

    @property
    def num_levels(self) -> int:
        return len(self.thresholds)

    @property
    def max_margin(self) -> float:
        return self.thresholds[-1]


def uniform_schedule(levels: int, max_margin: float = 1.0) -> LevelSchedule:
    """Evenly spaced thresholds i * max_margin / levels for i = 1..levels."""
    if levels < 2:
        raise ParameterError(f"need at least 2 levels, got {levels}")
    if not (0.0 < max_margin <= 1.0):
        raise ParameterError(f"max margin must be in (0, 1], got {max_margin}")
    return LevelSchedule(tuple(i * max_margin / levels for i in range(1, levels + 1)))


class FilteredComplex:
    """Cells sorted by (level, dim, id) with boundaries in CSR form."""

    __slots__ = ("dims", "levels", "indptr", "indices", "num_levels", "thresholds")

    def __init__(self, dims: np.ndarray, levels: np.ndarray, indptr: np.ndarray,
                 indices: np.ndarray, num_levels: int,
                 thresholds: tuple[float, ...] | None = None):
        self.dims = dims
        self.levels = levels
        self.indptr = indptr
        self.indices = indices
        self.num_levels = int(num_levels)
        self.thresholds = thresholds
        self._validate()

    def _validate(self):
        n = len(self.dims)
        if n == 0:
            raise ComplexError("empty complex: no cells")
        if len(self.levels) != n or len(self.indptr) != n + 1:
            raise StructureError("inconsistent array lengths")
        lv = self.levels
        if np.any(lv[1:] < lv[:-1]):
            raise StructureError("cells not sorted by level")
        same = lv[1:] == lv[:-1]
        if np.any(self.dims[1:][same] < self.dims[:-1][same]):
            raise StructureError("cells not sorted by dim within level")
        lens = np.diff(self.indptr)
        ok = ((self.dims == 0) & (lens == 0)) | ((self.dims == 1) & (lens == 2)) \
            | ((self.dims == 2) & ((lens == 3) | (lens == 4)))
        if not np.all(ok):
            raise StructureError("boundary size does not match cell dimension")
        if len(self.indices):
            if self.indices.min() < 0 or self.indices.max() >= n:
                raise StructureError("boundary references a missing cell")
            col = np.repeat(np.arange(n), lens)
            if np.any(self.indices >= col):
                raise StructureError("boundary face does not precede its cell")
            if np.any(self.dims[self.indices] != self.dims[col] - 1):
                raise StructureError("boundary face has wrong dimension")
            if np.any(self.levels[self.indices] > self.levels[col]):
                raise StructureError("boundary face enters after its cell")
            for k in (2, 3, 4):  # over GF(2) a repeated face would cancel
                f = self.indices[self.indptr[:-1][lens == k][:, None] + np.arange(k)]
                if any(np.any(f[:, i] == f[:, j]) for i in range(k) for j in range(i)):
                    raise StructureError("boundary names a face twice")

    def __len__(self) -> int:
        return len(self.dims)


# === level-set sweep ===

def _unit_levels(field: MarginField, schedule: LevelSchedule, polarity: str) -> np.ndarray:
    """Each unit's entry level, then L + 1 for BACKGROUND, the label -1 (int32)."""
    if polarity not in ("democratic", "republican"):
        raise ParameterError(f"unknown polarity {polarity!r}")
    work = field.margins if polarity == "democratic" else -field.margins
    t = np.asarray(schedule.thresholds)
    L = schedule.num_levels
    # smallest i with tau_i >= margin, so the sea (<= 0) floods at level 1;
    # margins at or above the top threshold never enter
    lv = np.searchsorted(t, work, side="left") + 1
    lv[work >= t[-1]] = L + 1
    return np.append(lv, L + 1).astype(np.int32)


def _sorted_complex(dims, levels, lens, flat, num_levels, thresholds):
    """Sort cells into (level, dim, id) order and remap boundary indices."""
    n = len(dims)
    perm = np.lexsort((np.arange(n), dims, levels))
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    old_indptr = np.concatenate([[0], np.cumsum(lens)])
    new_lens = lens[perm]
    new_indptr = np.concatenate([[0], np.cumsum(new_lens)])
    if len(flat):
        offsets = np.arange(new_indptr[-1]) - np.repeat(new_indptr[:-1], new_lens)
        src = np.repeat(old_indptr[perm], new_lens) + offsets
        new_flat = inv[flat[src]]
        # keep each boundary list sorted, so equal complexes get equal arrays
        order = np.argsort(new_flat + np.repeat(np.arange(n), new_lens) * (n + 1),
                           kind="stable")
        new_flat = new_flat[order]
    else:
        new_flat = flat
    return FilteredComplex(dims[perm], levels[perm].astype(np.int64),
                           new_indptr.astype(np.int64), new_flat.astype(np.int64),
                           num_levels, thresholds)


# === unit adjacency ===

# (edge of i, edge of j) rows _adjacency_keys tests at once; it prunes about as many
_ROW_BLOCK = 1 << 15


def _collinear_overlap(ea: np.ndarray, eb: np.ndarray, tol: float) -> np.ndarray:
    """Row by row: does edge eb lie on the line of edge ea (both endpoints
    within tol of it) and overlap it by more than tol?"""
    (ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2) = ea.T, eb.T
    dax, day = ax2 - ax1, ay2 - ay1
    la = np.hypot(dax, day)
    with np.errstate(divide="ignore", invalid="ignore"):  # la = 0 fails la > tol
        da = np.abs(dax * (by1 - ay1) - day * (bx1 - ax1)) / la
        db = np.abs(dax * (by2 - ay1) - day * (bx2 - ax1)) / la
        t1 = (dax * (bx1 - ax1) + day * (by1 - ay1)) / la
        t2 = (dax * (bx2 - ax1) + day * (by2 - ay1)) / la
    overlap = np.minimum(la, np.maximum(t1, t2)) - np.maximum(0.0, np.minimum(t1, t2))
    return (la > tol) & (da <= tol) & (db <= tol) & (overlap > tol)


def detect_adjacency(units: UnitCollection, kind: str = "queen") -> set[tuple[str, str]]:
    """Symmetric adjacency over unit ids, as (lesser id, greater id) pairs.

    queen: units share a snapped vertex or a collinear boundary segment.
    rook: units share a collinear boundary segment of positive length.

    A fresh set from the map's memo (_adjacency_pairs), so changing it
    changes no later answer.
    """
    a, b = _adjacency_pairs(units, kind)
    ids = units.ids
    return {(ids[i], ids[j]) for i, j in zip(a.tolist(), b.tolist())}


def _adjacency_pairs(units: UnitCollection, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Adjacent unit index pairs (a, b), id of a < id of b, sorted by the
    ids' ranks: the order of sorted(detect_adjacency(units, kind)).

    Both kinds are found in one pass per map (_adjacency_keys), then read from
    the memo that a collection shares with every join of its geometry.
    """
    if kind not in ("queen", "rook"):
        raise ParameterError(f"unknown adjacency kind {kind!r}")

    def build():
        n = len(units)
        by_id = np.array(sorted(range(n), key=units.ids.__getitem__), dtype=np.int64)
        rank = np.argsort(by_id)
        pairs = {}
        for name, key in zip(("queen", "rook"), _adjacency_keys(units)):
            ri, rj = rank[key // n], rank[key % n]
            key = np.unique(np.minimum(ri, rj) * n + np.maximum(ri, rj))  # by id ranks
            a, b = by_id[key // n], by_id[key % n]
            a.flags.writeable = b.flags.writeable = False
            pairs[name] = a, b
        return pairs
    return units.memo("adjacency", build)[kind]


def _adjacency_keys(units: UnitCollection) -> tuple[np.ndarray, np.ndarray]:
    """Keys i * n + j (i < j, once each) of the queen and of the rook pairs.

    A sort and sweep on minx of each unit's box over all its rows, holes too,
    widened by 2 tol, gives the candidate pairs; each keeps the rows of i
    within j's box, and of j within i's. In their cross product, at most
    _ROW_BLOCK rows at a time, a collinear overlap makes a rook pair; that or
    two rows that start at one vertex of the snap_tolerance grid make a queen
    pair. Such vertices lie within tol, so the pruning keeps both rows.
    """
    tol, n = units.snap_tolerance(), len(units)
    edges, count = units.edges, units.edge_counts
    start = np.cumsum(count) - count
    key = np.rint(edges[:, :2] / tol).view(np.complex128).ravel()  # half to even, as round()
    # each row's box as x0 y0 -x1 -y1, each unit's, and how far its partners' rows may reach
    box = np.vstack([np.minimum(edges[:, :2], edges[:, 2:]).T,
                     -np.maximum(edges[:, :2], edges[:, 2:]).T])
    low = np.minimum.reduceat(box, start, axis=1)
    far = 2 * tol - low[[2, 3, 0, 1]]
    order = np.argsort(low[0], kind="stable")
    end = np.searchsorted(low[0][order], far[0][order], side="right")
    a, b = _ranges(np.arange(1, n + 1), end)  # positions in order; x holds by the sweep
    y0, y1 = low[1][order], far[1][order]
    near = (y0[a] <= y1[b]) & (y0[b] <= y1[a])
    a, b = order[a[near]], order[b[near]]
    i, j = np.minimum(a, b), np.maximum(a, b)

    size = count[i] + count[j]
    cuts = np.searchsorted(np.cumsum(size), np.arange(_ROW_BLOCK, size.sum(), _ROW_BLOCK))
    hit = np.zeros((2, len(i)), dtype=bool)  # a shared vertex, a collinear overlap
    for bi, bj, found in zip(np.split(i, cuts), np.split(j, cuts), np.split(hit, cuts, axis=1)):
        own, m = np.r_[bi, bj], len(bi)
        side, r = _ranges(start[own], start[own] + count[own])
        other = np.r_[bj, bi][side]
        keep = np.logical_and.reduce([box[d][r] <= far[d][other] for d in range(4)])
        side, r = side[keep], r[keep]  # i's rows of each pair, then j's
        c = np.bincount(side, minlength=2 * m)
        at, size = np.cumsum(c) - c, c[:m] * c[m:]
        stop = np.cumsum(size)
        for s in range(0, int(size.sum()), _ROW_BLOCK):
            q, k = _ranges(np.maximum(stop - size, s), np.minimum(stop, s + _ROW_BLOCK))
            k, v = np.divmod(k - (stop - size)[q], c[m + q])  # i's and j's row in the pair
            ra, rb = r[at[q] + k], r[at[m + q] + v]
            ea, eb = np.take(edges, ra, axis=0), np.take(edges, rb, axis=0)
            found[0, q[key[ra] == key[rb]]] = True
            found[1, q[_collinear_overlap(ea, eb, tol)]] = True
    pair = i * n + j
    return pair[hit.any(axis=0)], pair[hit[1]]


def flag_filtration(vertex_levels: Sequence[int],
                    edges: Iterable[tuple[int, int]] | np.ndarray,
                    num_levels: int,
                    thresholds: tuple[float, ...] | None = None) -> FilteredComplex:
    """Flag complex up to dimension 2 from per-vertex entry levels.

    A vertex level outside 1..num_levels means the vertex never enters.
    Edge and triangle levels are the max over their vertices.

    Built in array passes: masks drop self-loops and excluded endpoints,
    np.unique over the keys u * nv + v (u < v) drops repeats, and edge ids
    follow first occurrences. Triangles are the wedges (u, v), (v, w > v)
    with (u, w) an edge, by id of (u, v), then w.
    """
    lv = np.asarray(vertex_levels, dtype=np.int64)
    included = (lv >= 1) & (lv <= num_levels)
    if not included.any():
        raise ComplexError("empty complex: no vertex ever enters")
    nv = int(included.sum())
    vid = np.cumsum(included) - 1  # of the included vertices
    v_levels = lv[included]

    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    a, b = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    keep = (a != b) & included[a] & included[b]
    a, b = vid[a[keep]], vid[b[keep]]
    key, first = np.unique(np.minimum(a, b) * nv + np.maximum(a, b), return_index=True)
    lo, hi = key // nv, key % nv
    by_id = np.argsort(first)
    edge_id = nv + np.argsort(by_id)  # of each sorted key
    u, v = lo[by_id], hi[by_id]
    e_levels = np.maximum(v_levels[u], v_levels[v])

    first_of = np.searchsorted(lo, np.arange(nv + 1))
    uv, vw = _ranges(first_of[v], first_of[v + 1])
    uw_key = u[uv] * nv + hi[vw]
    uw = np.minimum(np.searchsorted(key, uw_key), len(key) - 1)
    closed = key[uw] == uw_key
    uv, uw, vw = uv[closed], uw[closed], vw[closed]

    counts = [nv, len(key), len(uv)]
    dims = np.repeat(np.array([0, 1, 2], np.int8), counts)
    levels = np.concatenate([v_levels, e_levels, np.maximum(e_levels[uv], v_levels[hi[vw]])])
    lens = np.repeat(np.array([0, 2, 3], np.int64), counts)
    flat = np.concatenate([np.column_stack([u, v]).ravel(),
                           np.column_stack([nv + uv, edge_id[uw], edge_id[vw]]).ravel()])
    return _sorted_complex(dims, levels, lens, flat, num_levels, thresholds)


def build_adjacency_filtration(units: UnitCollection, schedule: LevelSchedule,
                               kind: str = "queen",
                               party: str = "republican") -> FilteredComplex:
    """Flag filtration under a descending win-margin sweep.

    Step i admits every unit the chosen party won with margin at least
    tau_{L-i+1}, so the safest seats enter first. Units the other party won,
    ties, and wins below tau_1 never enter.
    """
    if party not in ("republican", "democratic"):
        raise ParameterError(f"unknown party {party!r}")
    L = schedule.num_levels
    dem, rep = units.dem, units.rep
    won = rep > dem if party == "republican" else dem > rep
    with np.errstate(invalid="ignore"):  # 0 / 0 for a unit without votes, never won
        k = np.searchsorted(schedule.thresholds, np.abs(dem - rep) / (dem + rep),
                            side="right")  # thresholds <= the win margin
    levels = np.where(won & (k >= 1), L + 1 - k, L + 1)
    return flag_filtration(levels, np.column_stack(_adjacency_pairs(units, kind)), L, None)
