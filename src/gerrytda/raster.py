"""Rasterization of voting maps into labeled grids and margin fields.

A unit claims a pixel when the pixel center lies inside its polygon under the
same half-open membership rule as geometry._crossing_parity, so a partition
of the plane rasterizes to a partition of the pixels. The fill itself is one
even-odd scanline over the edge tables of every unit at once rather than a
per-pixel query; tests hold it to the per-pixel query.

A margin field is per-unit margins over the map's label raster; its pixel
values and background mask (for write_margin_pgm) are made when read.

Internally row 0 is the bottom of the grid (y = origin.y); PGM output flips
rows so images come out right side up.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import MarginError, ParameterError, RasterError
from .geometry import Bounds, Point2, UnitCollection

BACKGROUND = -1


@dataclass(frozen=True)
class Grid:
    width: int
    height: int
    origin: Point2
    pixel_size: float

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ParameterError("grid dimensions must be positive")
        if not (self.pixel_size > 0 and math.isfinite(self.pixel_size)):
            raise ParameterError("pixel size must be positive and finite")


class MarginMode(Enum):
    RELATIVE = "relative"
    DENSITY = "density"


@dataclass(frozen=True)
class LabelRaster:
    grid: Grid
    labels: np.ndarray          # int32 (height, width), BACKGROUND where unclaimed
    unit_ids: tuple[str, ...]   # label value -> unit id

    def pixel_counts(self) -> np.ndarray:
        return np.bincount(self.labels[self.labels >= 0], minlength=len(self.unit_ids))


@dataclass(frozen=True)
class MarginField:
    grid: Grid
    labels: np.ndarray       # the label raster's own, read-only
    margins: np.ndarray      # float64 per unit in [-1, 1]; 0 for one that claims no pixel
    mode: MarginMode
    normalizer: float = 1.0  # max |density| divided out in density mode

    @property
    def values(self) -> np.ndarray:  # each pixel's unit margin; BACKGROUND (-1) reads the 0
        return np.append(self.margins, 0.0)[self.labels]

    @property
    def background(self) -> np.ndarray:  # True where no unit claims the pixel
        return self.labels == BACKGROUND


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every integer of every half-open range [lo, hi), with its range's index."""
    n = np.maximum(hi - lo, 0)
    which = np.repeat(np.arange(len(n)), n)
    return which, np.arange(int(n.sum())) - np.repeat(np.cumsum(n) - n, n) + lo[which]


def rasterize(units: UnitCollection, width: int, bounds: Bounds | None = None) -> LabelRaster:
    """Label a width-pixel grid by unit membership of pixel centers.

    Height follows from the aspect ratio of the bounds (the collection's own
    bounding box unless an explicit shared one is given). One even-odd
    scanline runs over the edge tables of all units at once: each edge
    crosses the rows whose centers it straddles, the crossings are sorted by
    (unit, row, x) and paired into spans, and a pixel that two units claim
    goes to the later one.
    """
    _check_width(width)
    if len(units) == 0:
        raise RasterError("empty unit collection")
    if bounds is None:
        bounds = units.bounds
    if bounds.width <= 0 or bounds.height <= 0:
        raise RasterError("bounds have no extent")
    return units.memo(("raster", width, bounds), lambda: _label(units, width, bounds))


def _check_width(width: int) -> int:
    if width < 1:
        raise ParameterError(f"width must be positive, got {width}")
    return width


def _label(units: UnitCollection, width: int, bounds: Bounds) -> LabelRaster:
    """rasterize, run once per map, width and bounds."""
    s = bounds.width / width
    height = max(1, int(math.ceil(bounds.height / s - 1e-12)))
    grid = Grid(width, height, Point2(bounds.minx, bounds.miny), s)
    ox, oy = bounds.minx, bounds.miny

    e = units.edges
    unit = np.repeat(np.arange(len(units), dtype=np.int32), units.edge_counts)
    # an edge straddles rows lo + 1 .. hi; it tries one more on either side
    # against rounding, within the grid, and the straddle test decides
    lo = np.floor((np.minimum(e[:, 1], e[:, 3]) - oy) / s - 0.5).astype(np.int64)
    hi = np.floor((np.maximum(e[:, 1], e[:, 3]) - oy) / s - 0.5).astype(np.int64)
    k, row = _ranges(np.maximum(lo, 0), np.minimum(hi + 1, height - 1) + 1)
    py = oy + (row + 0.5) * s
    y1, y2 = e[k, 1], e[k, 3]
    straddle = (y1 >= py) != (y2 >= py)
    k, row, py = k[straddle], row[straddle], py[straddle]
    x1, y1, x2, y2 = e[k].T
    xs = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
    # a closed ring crosses a row an even number of times, so once sorted
    # every (unit, row) run pairs up as [0, 1], [2, 3], ...
    order = np.lexsort((xs, row, unit[k]))
    xs, row, unit = xs[order], row[order][::2], unit[k][order][::2]
    i0 = np.ceil((xs[0::2] - ox) / s - 0.5).astype(np.int64)
    i1 = np.ceil((xs[1::2] - ox) / s - 0.5).astype(np.int64) - 1
    span, col = _ranges(np.maximum(i0, 0), np.minimum(i1, width - 1) + 1)
    labels = np.full((height, width), BACKGROUND, dtype=np.int32)
    np.maximum.at(labels, (row[span], col), unit[span])
    labels.setflags(write=False)
    return LabelRaster(grid, labels, units.ids)


def margin_field(raster: LabelRaster, units: UnitCollection,
                 mode: MarginMode = MarginMode.RELATIVE) -> MarginField:
    """Per-unit margins over the raster's labels.

    Relative mode divides the vote difference by the unit's votes (a unit
    that claims a pixel and has none is an error); density mode divides it
    by unit area and then normalizes every margin by the maximum absolute
    value over units that claim pixels. Margins stay in [-1, 1] either way.
    mode may be given by its value. ParameterError for an unknown mode, or
    when the raster labels other units than these.
    """
    mode = _margin_mode(mode)
    if raster.unit_ids != units.ids:
        raise ParameterError("the raster labels other units than the ones given")
    present = np.flatnonzero(raster.pixel_counts())
    dem, rep = units.dem[present], units.rep[present]
    if mode is MarginMode.RELATIVE:
        total = dem + rep
        if not total.all():
            raise MarginError(f"unit {units.ids[present[np.argmin(total)]]}: zero total votes")
    else:
        total = units.areas[present]
    margins = np.zeros(len(units), dtype=np.float64)
    margins[present] = (dem - rep) / total  # exact: every count is at most 2**52
    normalizer = 1.0
    if mode is MarginMode.DENSITY:
        normalizer = float(np.max(np.abs(margins[present]))) if len(present) else 0.0
        if normalizer > 0:
            margins = margins / normalizer
    margins.setflags(write=False)
    return MarginField(raster.grid, raster.labels, margins, mode, normalizer)


def _margin_mode(mode) -> MarginMode:
    """The MarginMode a mode or its value names; ParameterError for any other."""
    try:
        return MarginMode(mode)
    except ValueError:
        raise ParameterError(f"unknown margin mode {mode!r}") from None


# === PGM export ===
#
# A margin field is written as 16-bit big-endian P5 PGM plus a JSON sidecar
# with the georeferencing and a run-length encoded background mask; the
# package reads neither back. Pixel order in both the PGM payload and the RLE
# is the file order: top row first.

def _encode_u16(values: np.ndarray) -> np.ndarray:
    return np.round((values + 1.0) / 2.0 * 65535.0).astype(np.uint16)


def _rle_encode(flat: np.ndarray) -> dict:
    flat = flat.astype(np.uint8)
    if flat.size == 0:
        return {"first": 0, "runs": []}
    change = np.flatnonzero(np.diff(flat)) + 1
    edges = np.concatenate(([0], change, [flat.size]))
    return {"first": int(flat[0]), "runs": np.diff(edges).tolist()}


def write_margin_pgm(field: MarginField, pgm_path: str | Path) -> None:
    """The field as a PGM at pgm_path and its sidecar beside it, with suffix .json."""
    pgm_path = Path(pgm_path)
    flipped = field.values[::-1]  # file order: top row first
    data = _encode_u16(flipped)
    header = f"P5\n{field.grid.width} {field.grid.height}\n65535\n".encode("ascii")
    pgm_path.write_bytes(header + data.astype(">u2").tobytes())
    sidecar = {
        "width": field.grid.width,
        "height": field.grid.height,
        "origin": [field.grid.origin.x, field.grid.origin.y],
        "pixel_size": field.grid.pixel_size,
        "mode": field.mode.value,
        "normalizer": field.normalizer,
        "background_mask": _rle_encode(field.background[::-1].ravel()),
    }
    pgm_path.with_suffix(".json").write_text(json.dumps(sidecar, sort_keys=True))
