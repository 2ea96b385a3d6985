"""Geometric compactness scores and the paired two-tailed t-test.

Polsby-Popper and Reock use the standard definitions (isoperimetric quotient
and minimal-enclosing-circle quotient), read from a map's columns: its edge
rows and unit areas. Reock's circle is found about each unit's first vertex,
as the areas are, so a map far from the origin keeps its digits. The p-value
comes from the Student-t distribution through a regularized incomplete beta
function evaluated by continued fraction, so the package carries no stats
dependency.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .compare import _csv_text
from .errors import DegenerateSampleError, GeometryError, ParameterError
from .geometry import Point2, UnitCollection


def _circle_two(p, q):
    cx, cy = (p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0
    return (cx, cy, math.hypot(p[0] - cx, p[1] - cy))


def _circle_three(p, q, r):
    d = 2.0 * (p[0] * (q[1] - r[1]) + q[0] * (r[1] - p[1]) + r[0] * (p[1] - q[1]))
    if abs(d) < 1e-30:
        # collinear: span the farthest pair instead
        pairs = [(p, q), (p, r), (q, r)]
        a, b = max(pairs, key=lambda ab: (ab[0][0] - ab[1][0]) ** 2
                   + (ab[0][1] - ab[1][1]) ** 2)
        return _circle_two(a, b)
    p2 = p[0] ** 2 + p[1] ** 2
    q2 = q[0] ** 2 + q[1] ** 2
    r2 = r[0] ** 2 + r[1] ** 2
    cx = (p2 * (q[1] - r[1]) + q2 * (r[1] - p[1]) + r2 * (p[1] - q[1])) / d
    cy = (p2 * (r[0] - q[0]) + q2 * (p[0] - r[0]) + r2 * (q[0] - p[0])) / d
    return (cx, cy, math.hypot(p[0] - cx, p[1] - cy))


def _inside(circle, p) -> bool:
    cx, cy, r = circle
    return math.hypot(p[0] - cx, p[1] - cy) <= r * (1.0 + 1e-12) + 1e-14


def min_enclosing_circle(points: Sequence) -> tuple[Point2, float]:
    """Smallest circle containing every point (randomized incremental).

    The circle is unique; the shuffle has a fixed seed so that repeated runs
    also return bit-identical floats.
    """
    pts = [(float(p[0]), float(p[1])) if not isinstance(p, Point2)
           else (p.x, p.y) for p in points]
    if not pts:
        raise ParameterError("need at least one point")
    pts = list(dict.fromkeys(pts))  # dedup, keeps first occurrence
    random.Random(0).shuffle(pts)

    c = (pts[0][0], pts[0][1], 0.0)
    for i in range(1, len(pts)):
        if _inside(c, pts[i]):
            continue
        c = (pts[i][0], pts[i][1], 0.0)
        for j in range(i):
            if _inside(c, pts[j]):
                continue
            c = _circle_two(pts[i], pts[j])
            for k in range(j):
                if not _inside(c, pts[k]):
                    c = _circle_three(pts[i], pts[j], pts[k])
    return Point2(c[0], c[1]), c[2]


@dataclass(frozen=True)
class CompactnessRow:
    district_id: str
    polsby_popper: float
    reock: float


def score_units(units: UnitCollection) -> list[CompactnessRow]:
    """Each unit's Polsby-Popper and Reock scores, holes counted.

    Polsby-Popper is 4 pi A / P^2, with the boundary length P summed ring by
    ring, then the outer rings' sum plus the holes'. Reock is A over the area
    of the minimal enclosing circle of all the unit's vertices, each taken
    less the unit's first vertex.
    """
    e = units.edges
    lengths = np.hypot(e[:, 2] - e[:, 0], e[:, 3] - e[:, 1])
    ends = np.cumsum(units.edge_counts).tolist()
    rows = []
    for uid, area, stop, (outers, holes) in zip(units.ids, units.areas.tolist(), ends,
                                                units.ring_spans()):
        perimeter = float(sum(float(np.sum(lengths[a:b])) for a, b in outers)
                          + sum(float(np.sum(lengths[a:b])) for a, b in holes))
        if perimeter <= 0.0:
            raise GeometryError("zero perimeter")
        points = e[outers[0][0]:stop, :2]
        _, r = min_enclosing_circle(points - points[0])
        if r <= 0.0:
            raise GeometryError("degenerate geometry: enclosing radius is zero")
        rows.append(CompactnessRow(uid, 4.0 * math.pi * area / (perimeter * perimeter),
                                   area / (math.pi * r * r)))
    return rows


def scores_to_csv(rows: Sequence[CompactnessRow]) -> str:
    """One line per district.

    An id holding a comma, a quote, a carriage return or a newline is quoted.
    """
    return _csv_text([["district_id", "polsby_popper", "reock"]] + [
        [r.district_id, repr(r.polsby_popper), repr(r.reock)] for r in rows])


# === Student-t p-value machinery ===

def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        # the even and the odd coefficient of step m, one Lentz update each
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-12:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    # the continued fraction converges fast only below the pivot
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def t_p_value(t: float, df: int) -> float:
    """Two-tailed p for a t statistic: I_{df/(df+t^2)}(df/2, 1/2)."""
    if math.isnan(t):
        raise ParameterError(f"t statistic must be a number, got {t}")
    if not 1 <= df < math.inf:
        raise ParameterError(f"degrees of freedom must be finite and >= 1, got {df}")
    if t == 0.0:
        return 1.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    degrees_of_freedom: int
    p_value: float


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Two-tailed paired t-test on elementwise differences a - b."""
    if len(a) != len(b):
        raise ParameterError(f"paired samples differ in length: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise ParameterError("need at least 2 pairs")
    d = [float(x) - float(y) for x, y in zip(a, b)]
    if not all(map(math.isfinite, d)):
        raise ParameterError("paired differences must be finite")
    mean = sum(d) / n
    var = sum((x - mean) ** 2 for x in d) / (n - 1)
    if var == 0.0:
        raise DegenerateSampleError("differences have zero variance")
    t = mean / math.sqrt(var / n)
    return TTestResult(t, n - 1, t_p_value(t, n - 1))
