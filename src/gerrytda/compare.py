"""Distances between persistence diagrams: bottleneck, Wasserstein, total persistence.

A diagram is a sequence of (birth, death) pairs for one homology dimension;
death may be inf. Infinite-death points are matched only among themselves, in
sorted birth order, and a count mismatch makes the distance inf. Finite
points may match each other or project to the diagonal.

The ground metric is L-infinity, so diagonal projection costs half the
persistence, as in the paper's bottleneck distance. Bottleneck is exact.
Its search starts at a lower bound: every finite point goes either to the
diagonal or across, so no matching costs less than the dearest point's
cheapest option, nor less than the essential points' cost. That bound is a
candidate and the first probe; only if it fails does a binary search run
over the candidate costs above it. Each probe is two Hopcroft-Karp maximum
matchings (scipy.sparse.csgraph) between the points. Wasserstein solves
the diagonal-augmented assignment problem exactly (scipy.optimize). Both
scipy modules are imported inside the functions that call them, so
importing this module, and every command that never compares diagrams,
loads no scipy.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ParameterError

INF = math.inf

Diagram = Sequence[tuple[float, float]]


def _split(diagram: Diagram) -> tuple[np.ndarray, list[float]]:
    """Finite points (birth < death), and sorted essential births (death +inf)."""
    finite, essential_births = [], []
    for b, d in diagram:
        if d == INF and math.isfinite(b):
            essential_births.append(float(b))
        elif not (math.isfinite(b) and math.isfinite(d)):
            raise ParameterError(f"diagram point ({b}, {d}) needs a finite birth and death")
        elif not d > b:
            raise ParameterError(f"diagram point ({b}, {d}) has death <= birth")
        else:
            finite.append((float(b), float(d)))
    pts = np.asarray(finite, dtype=np.float64).reshape(-1, 2)
    return pts, sorted(essential_births)


def _ground_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)


def _diag_cost(pts: np.ndarray) -> np.ndarray:
    return (pts[:, 1] - pts[:, 0]) / 2.0


def _saturates(graph: np.ndarray) -> bool:
    """Does a matching of the bipartite graph cover every row? (Hopcroft-Karp)"""
    if not len(graph):  # most probes leave no point that must go across
        return True
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    matched = maximum_bipartite_matching(csr_matrix(graph), perm_type="column")
    return bool((matched >= 0).all())


def _feasible(cross: np.ndarray, diag_a: np.ndarray, diag_b: np.ndarray,
              c: float) -> bool:
    """Perfect matching at threshold c in the diagonal-augmented graph?

    A point may go to the diagonal when that costs at most c, so a perfect
    matching exists exactly when some matching of a-points to b-points
    within c covers every a-point and every b-point that cannot. By the
    Mendelsohn-Dulmage theorem one matching covers both sets as soon as
    one matching covers each, so two maximum matchings decide it.
    """
    ok = cross <= c
    return _saturates(ok[diag_a > c]) and _saturates(ok[:, diag_b > c].T)


def _essential_bottleneck(ea: list[float], eb: list[float]) -> float:
    if len(ea) != len(eb):
        return INF
    if not ea:
        return 0.0
    return max(abs(x - y) for x, y in zip(ea, eb))


def bottleneck(a: Diagram, b: Diagram) -> float:
    """Smallest achievable worst-point cost over all matchings."""
    pa, ea = _split(a)
    pb, eb = _split(b)
    value = _essential_bottleneck(ea, eb)
    if math.isinf(value):
        return INF
    if len(pa) == 0 and len(pb) == 0:
        return value

    cross = _ground_distances(pa, pb)
    diag_a = _diag_cost(pa)
    diag_b = _diag_cost(pb)
    # each point goes to the diagonal or across, at no less than its cheapest
    # option; the largest of those is a candidate, and usually the answer
    cheapest = np.concatenate([np.minimum(diag_a, cross.min(axis=1, initial=INF)),
                               np.minimum(diag_b, cross.min(axis=0, initial=INF))])
    bound = max(float(cheapest.max()), value)
    if _feasible(cross, diag_a, diag_b, bound):
        return bound
    candidates = np.unique(np.concatenate([cross.ravel(), diag_a, diag_b]))
    candidates = candidates[candidates > bound]
    # smallest feasible candidate above the bound; feasibility is monotone in c
    lo, hi = 0, len(candidates) - 1
    if not _feasible(cross, diag_a, diag_b, candidates[hi]):
        raise AssertionError("matching must be feasible at the max candidate")
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(cross, diag_a, diag_b, candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def wasserstein(a: Diagram, b: Diagram, p: float = 1.0) -> float:
    """p-Wasserstein distance with diagonal augmentation, exact assignment."""
    if not 1 <= p < INF:
        raise ParameterError(f"norm order must be finite and >= 1, got {p}")
    pa, ea = _split(a)
    pb, eb = _split(b)
    if len(ea) != len(eb):
        return INF
    total = sum(abs(x - y) ** p for x, y in zip(ea, eb))

    n, m = len(pa), len(pb)
    if n or m:
        size = n + m
        cost = np.zeros((size, size), dtype=np.float64)
        if n and m:
            cost[:n, :m] = _ground_distances(pa, pb) ** p
        if n:
            cost[:n, m:] = _diag_cost(pa)[:, None] ** p
        if m:
            cost[n:, :m] = _diag_cost(pb)[None, :] ** p
        from scipy.optimize import linear_sum_assignment
        rows, cols = linear_sum_assignment(cost)
        total += float(cost[rows, cols].sum())
    return total ** (1.0 / p)


def total_persistence(a: Diagram, p: float = 1.0,
                      max_death: float | None = None) -> float:
    """Sum of (death - birth)^p in diagram order; infinite deaths substitute
    max_death, which no death and no essential birth may exceed."""
    if not 1 <= p < INF:
        raise ParameterError(f"norm order must be finite and >= 1, got {p}")
    pts, births = _split(a)
    if births and max_death is None:
        raise ParameterError("diagram has infinite deaths; pass max_death")
    top = max([*pts[:, 1].tolist(), *births], default=-INF)
    if max_death is not None and not top <= max_death < INF:  # NaN fails it too
        raise ParameterError(f"max_death must be finite, got {max_death}"
                             if not math.isfinite(max_death) else
                             f"max_death {max_death} is below a death or essential birth {top}")
    total = 0.0
    for b, d in a:
        total += ((max_death if math.isinf(d) else d) - b) ** p
    return total


def distance_matrix(labels: Sequence[str], diagrams: Sequence[Diagram],
                    dist: Callable[[Diagram, Diagram], float] = bottleneck) -> np.ndarray:
    """Symmetric pairwise distances, zero diagonal."""
    if len(labels) != len(diagrams):
        raise ParameterError("labels and diagrams differ in length")
    n = len(labels)
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = dist(diagrams[i], diagrams[j])
    return out


def matrix_to_csv(labels: Sequence[str], matrix: np.ndarray) -> str:
    """Distance matrix as CSV with a label header row and column.

    A label holding a comma, a quote, a carriage return or a newline is quoted.
    """
    return _csv_text([["", *labels]] + [
        [lab] + ["inf" if math.isinf(x) else repr(float(x)) for x in row]
        for lab, row in zip(labels, np.asarray(matrix))])


def _csv_text(rows: Iterable[Sequence[str]]) -> str:
    """Rows as CSV lines, each ending in a newline.

    A cell holding a comma, a quote, a carriage return or a newline is
    quoted. csv.writer quotes only the characters of its own line
    terminator, so each row is written ending in CR LF, then re-ended in LF.
    """
    lines = []
    for row in rows:
        line = io.StringIO()
        csv.writer(line, lineterminator="\r\n").writerow(row)
        lines.append(line.getvalue()[:-2] + "\n")
    return "".join(lines)
