"""Synthetic maps and vote patterns.

Everything here is deterministic given its seed. The mosaic generator makes
irregular Voronoi-style tessellations at any unit count; the island scenario
reproduces the packing/cracking contrast on a 10x10 precinct grid.
"""

from __future__ import annotations

import numpy as np


# === GeoJSON builders ===

def _square_ring(x0: float, y0: float, x1: float, y1: float) -> list[list[float]]:
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]


def _feature(uid: str, rings: list[list[list[float]]]) -> dict:
    return {"type": "Feature", "properties": {"id": uid},
            "geometry": {"type": "Polygon", "coordinates": rings}}


def _collection(features: list[dict]) -> dict:
    return {"type": "FeatureCollection", "features": features}


def votes_csv_text(rows: list[tuple[str, int, int]]) -> str:
    lines = ["unit_id,dem_votes,rep_votes"]
    lines.extend(f"{u},{d},{r}" for u, d, r in rows)
    return "\n".join(lines) + "\n"


def grid_mosaic(cols: int, rows: int, seed: int = 0, jitter: float = 0.35) -> dict:
    """Voronoi-style tessellation: a cols x rows mosaic of jittered quads.

    Interior grid nodes are displaced by up to jitter of a cell, boundary
    nodes stay put, so the quads stay simple and tile [0, cols] x [0, rows]
    exactly. Unit count is cols * rows.
    """
    rng = np.random.default_rng(seed)
    nx = np.tile(np.arange(cols + 1, dtype=float)[None, :], (rows + 1, 1))
    ny = np.tile(np.arange(rows + 1, dtype=float)[:, None], (1, cols + 1))
    dx = rng.uniform(-jitter, jitter, nx.shape)
    dy = rng.uniform(-jitter, jitter, ny.shape)
    dx[0, :] = dx[-1, :] = 0.0
    dx[:, 0] = dx[:, -1] = 0.0
    dy[0, :] = dy[-1, :] = 0.0
    dy[:, 0] = dy[:, -1] = 0.0
    nx += dx
    ny += dy
    feats = []
    for r in range(rows):
        for c in range(cols):
            ring = [
                [nx[r, c], ny[r, c]],
                [nx[r, c + 1], ny[r, c + 1]],
                [nx[r + 1, c + 1], ny[r + 1, c + 1]],
                [nx[r + 1, c], ny[r + 1, c]],
                [nx[r, c], ny[r, c]],
            ]
            feats.append(_feature(f"P{r * cols + c:04d}", [ring]))
    return _collection(feats)


def mosaic_votes(cols: int, rows: int, seed: int = 0,
                 total_per_unit: int = 2000) -> list[tuple[str, int, int]]:
    """Republican-leaning base with a few strong Democratic population blobs."""
    rng = np.random.default_rng(seed + 1)
    n_blobs = 3
    bx = rng.uniform(0.15 * cols, 0.85 * cols, n_blobs)
    by = rng.uniform(0.15 * rows, 0.85 * rows, n_blobs)
    amp = rng.uniform(1.0, 1.4, n_blobs)
    sigma = rng.uniform(0.04, 0.10, n_blobs) * cols
    rows_out = []
    for r in range(rows):
        for c in range(cols):
            x, y = c + 0.5, r + 0.5
            margin = -0.5
            for b in range(n_blobs):
                margin += amp[b] * np.exp(-((x - bx[b]) ** 2 + (y - by[b]) ** 2)
                                          / (2 * sigma[b] ** 2))
            margin = float(np.clip(margin, -0.95, 0.95))
            dem = int(round(total_per_unit * (1 + margin) / 2))
            rows_out.append((f"P{r * cols + c:04d}", dem, total_per_unit - dem))
    return rows_out


def band_districts(cols: int, rows: int, n_bands: int) -> dict:
    """A district plan of n_bands vertical strips over [0, cols] x [0, rows]."""
    edges = np.linspace(0.0, float(cols), n_bands + 1)
    feats = [_feature(f"D{i + 1:02d}",
                      [_square_ring(edges[i], 0.0, edges[i + 1], float(rows))])
             for i in range(n_bands)]
    return _collection(feats)


def aggregate_band_votes(cols: int, rows: int, n_bands: int,
                         precinct_votes: list[tuple[str, int, int]]) -> list[tuple[str, int, int]]:
    """Sum precinct votes into the band districts by precinct center."""
    edges = np.linspace(0.0, float(cols), n_bands + 1)
    totals = [[0, 0] for _ in range(n_bands)]
    for uid, dem, rep in precinct_votes:
        idx = int(uid[1:])
        cx = (idx % cols) + 0.5
        band = min(int(np.searchsorted(edges, cx, side="right")) - 1, n_bands - 1)
        totals[band][0] += dem
        totals[band][1] += rep
    return [(f"D{i + 1:02d}", t[0], t[1]) for i, t in enumerate(totals)]


# === packing vs cracking scenario ===

def island_scenario(island_margin: float = 0.8, grid: int = 10,
                    total_per_unit: int = 100) -> dict:
    """10x10 Republican sea with a 2x2 Democratic island at the center.

    Returns precinct geometry/votes plus two district plans over the same
    precincts: "packed" draws one district tightly around the island,
    "cracked" splits the island across four Republican-majority quadrants.
    """
    if grid % 2 != 0 or grid < 4:
        raise ValueError("grid must be even and at least 4")
    lo = grid // 2 - 1  # island occupies [lo, lo+2) in both axes
    island_cells = {(r, c) for r in (lo, lo + 1) for c in (lo, lo + 1)}
    feats = []
    votes = []
    dem_hi = int(round(total_per_unit * (1 + island_margin) / 2))
    for r in range(grid):
        for c in range(grid):
            uid = f"P{r:02d}{c:02d}"
            feats.append(_feature(uid, [_square_ring(c, r, c + 1, r + 1)]))
            if (r, c) in island_cells:
                votes.append((uid, dem_hi, total_per_unit - dem_hi))
            else:
                votes.append((uid, total_per_unit - dem_hi, dem_hi))

    g = float(grid)
    i0, i1 = float(lo), float(lo + 2)
    packed_feats = [
        _feature("ISLE", [_square_ring(i0, i0, i1, i1)]),
        _feature("WEST", [_square_ring(0, 0, i0, g)]),
        _feature("EAST", [_square_ring(i1, 0, g, g)]),
        _feature("SOUTH", [_square_ring(i0, 0, i1, i0)]),
        _feature("NORTH", [_square_ring(i0, i1, i1, g)]),
    ]
    h = g / 2
    cracked_feats = [
        _feature("SW", [_square_ring(0, 0, h, h)]),
        _feature("SE", [_square_ring(h, 0, g, h)]),
        _feature("NW", [_square_ring(0, h, h, g)]),
        _feature("NE", [_square_ring(h, h, g, g)]),
    ]

    def aggregate(plan_feats):
        sums = {f["properties"]["id"]: [0, 0] for f in plan_feats}
        boxes = {}
        for f in plan_feats:
            ring = f["geometry"]["coordinates"][0]
            xs = [p[0] for p in ring]
            ys = [p[1] for p in ring]
            boxes[f["properties"]["id"]] = (min(xs), min(ys), max(xs), max(ys))
        for uid, dem, rep in votes:
            r, c = int(uid[1:3]), int(uid[3:5])
            cx, cy = c + 0.5, r + 0.5
            for did, (x0, y0, x1, y1) in boxes.items():
                if x0 <= cx < x1 and y0 <= cy < y1:
                    sums[did][0] += dem
                    sums[did][1] += rep
                    break
        return [(d, s[0], s[1]) for d, s in sums.items()]

    return {
        "precinct_geojson": _collection(feats),
        "precinct_votes": votes,
        "packed_geojson": _collection(packed_feats),
        "packed_votes": aggregate(packed_feats),
        "cracked_geojson": _collection(cracked_feats),
        "cracked_votes": aggregate(cracked_feats),
        "island_margin": island_margin,
    }
