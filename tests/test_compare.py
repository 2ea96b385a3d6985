"""Diagram distances against brute-force matching oracles and the metric axioms."""

import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gerrytda
from gerrytda import compare
from gerrytda.compare import (
    INF,
    bottleneck,
    distance_matrix,
    matrix_to_csv,
    total_persistence,
    wasserstein,
)
from gerrytda.errors import ParameterError
from oracles import brute_bottleneck, brute_wasserstein


# === bottleneck examples ===

def test_bottleneck_identity():
    d = [(0.0, 2.0), (1.0, 1.5), (0.3, INF)]
    assert bottleneck(d, d) == 0.0


def test_bottleneck_single_point_to_empty():
    assert bottleneck([(0.0, 2.0)], []) == pytest.approx(1.0)


def test_bottleneck_shifted_death():
    # direct match costs 0.5, double diagonal projection costs 1.25
    assert bottleneck([(0.0, 2.0)], [(0.0, 2.5)]) == pytest.approx(0.5)


def test_bottleneck_essential_count_mismatch():
    assert bottleneck([(0.0, INF)], []) == INF


def test_bottleneck_essentials_match_by_birth():
    a = [(0.0, INF), (1.0, INF)]
    b = [(0.2, INF), (1.1, INF)]
    assert bottleneck(a, b) == pytest.approx(0.2)


def test_bottleneck_empty_diagrams():
    assert bottleneck([], []) == 0.0


def test_bottleneck_rejects_bad_point():
    with pytest.raises(ParameterError):
        bottleneck([(2.0, 1.0)], [])
    # an essential point is a finite birth with a death of +inf
    for point in [(0.5, -INF), (math.nan, INF), (INF, INF), (-INF, 0.5), (0.2, math.nan)]:
        with pytest.raises(ParameterError, match="needs a finite birth and death$"):
            bottleneck([point], [(0.5, INF)])


def test_bottleneck_augmenting_paths_beyond_recursion_limit():
    # 600 points a side; a-points cost 1 to the diagonal, b-points 1.5. At
    # cost 1 the a-points born at 6 are within reach of no b-point, which
    # leaves 515 a-points for 600 b-points, so the least feasible cost is 1.5
    a = [(i % 7, i % 7 + 2) for i in range(600)]
    b = [(i % 5, i % 5 + 3) for i in range(600)]
    assert bottleneck(a, b) == bottleneck(b, a) == 1.5


def test_bottleneck_when_the_lower_bound_is_not_tight(monkeypatch):
    # every point's cheapest option costs at most 0.1, but both a-points are
    # nearest the one b-point, so one of them goes to the diagonal at 5
    a = [(0.0, 10.0), (0.1, 10.1)]
    b = [(0.0, 10.05)]
    probes = []
    feasible = compare._feasible

    def probe(*args):
        probes.append((args[-1], feasible(*args)))
        return probes[-1][1]

    monkeypatch.setattr(compare, "_feasible", probe)
    for x, y in ((a, b), (b, a)):
        probes.clear()
        assert bottleneck(x, y) == brute_bottleneck(x, y) == 5.0
        # the bound is probed first and fails, so the search runs above it
        assert probes[0] == (0.1, False)
        assert len(probes) > 1 and all(c > 0.1 for c, _ in probes[1:])


# === wasserstein examples ===

def test_wasserstein_identity():
    d = [(0.0, 2.0), (0.5, 3.0)]
    assert wasserstein(d, d) == 0.0


def test_wasserstein_single_diagonal_projection():
    assert wasserstein([(0.0, 2.0)], [], p=1) == pytest.approx(1.0)


def test_wasserstein_short_bar_to_diagonal():
    a = [(0.0, 2.0)]
    b = [(0.0, 2.0), (1.0, 1.4)]
    assert wasserstein(a, b, p=2) == pytest.approx(0.2)


def test_wasserstein_essential_mismatch():
    assert wasserstein([(0.0, INF)], [], p=1) == INF


def test_wasserstein_essentials_add_to_sum():
    a = [(0.0, INF), (1.0, 2.0)]
    b = [(0.3, INF), (1.0, 2.0)]
    assert wasserstein(a, b, p=1) == pytest.approx(0.3)


def test_wasserstein_rejects_bad_order():
    with pytest.raises(ParameterError):
        wasserstein([(0.0, 1.0)], [], p=0.5)
    for p in (INF, math.nan):
        with pytest.raises(ParameterError, match="^norm order must be finite and >= 1"):
            wasserstein([(0.0, 1.0)], [(0.0, 1.2)], p=p)


# === total persistence ===

def test_total_persistence_linear():
    assert total_persistence([(0.0, 2.0), (1.0, 3.0)], p=1) == pytest.approx(4.0)


def test_total_persistence_quadratic():
    assert total_persistence([(0.0, 2.0), (1.0, 3.0)], p=2) == pytest.approx(8.0)


def test_total_persistence_caps_infinite():
    assert total_persistence([(0.2, INF)], p=1, max_death=1.0) == pytest.approx(0.8)


def test_total_persistence_requires_cap_for_essentials():
    with pytest.raises(ParameterError):
        total_persistence([(0.0, INF)], p=1)


def test_total_persistence_rejects_small_cap():
    with pytest.raises(ParameterError):
        total_persistence([(0.0, 2.0)], p=1, max_death=1.5)
    with pytest.raises(ParameterError,
                       match="^max_death 0.1 is below a death or essential birth 0.2$"):
        total_persistence([(0.2, INF)], p=1, max_death=0.1)
    for diagram in ([(0.2, INF), (0.1, 0.3)], [(0.1, 0.3)]):
        for cap in (math.nan, INF):
            with pytest.raises(ParameterError, match=f"^max_death must be finite, got {cap}$"):
                total_persistence(diagram, max_death=cap)


def test_total_persistence_rejects_bad_point_and_order():
    with pytest.raises(ParameterError, match=r"^diagram point \(0.6, 0.5\) has death <= birth$"):
        total_persistence([(0.6, 0.5)])
    with pytest.raises(ParameterError, match="needs a finite birth"):
        total_persistence([(math.nan, INF)], max_death=1.0)
    for p in (INF, math.nan, 0.5):
        with pytest.raises(ParameterError, match="^norm order must be finite and >= 1"):
            total_persistence([(0.0, 1.0)], p=p)


def test_total_persistence_monotone_and_permutable():
    rng = np.random.default_rng(1)
    pts = [(b, b + p) for b, p in rng.uniform(0.1, 1.0, (8, 2))]
    for k in range(len(pts)):
        assert total_persistence(pts[:k], 2) <= total_persistence(pts[:k + 1], 2)
    shuffled = [pts[i] for i in rng.permutation(len(pts))]
    assert total_persistence(shuffled, 2) == pytest.approx(total_persistence(pts, 2))


# === oracle equivalence ===

def random_diagram(rng, max_points=6, essentials=False):
    n = int(rng.integers(0, max_points + 1))
    births = rng.uniform(0.0, 2.0, n)
    pers = rng.uniform(0.01, 2.0, n)
    d = [(float(b), float(b + p)) for b, p in zip(births, pers)]
    if essentials:
        d += [(float(b), INF) for b in rng.uniform(0, 2, rng.integers(0, 3))]
    return d


@pytest.mark.parametrize("metric", ["linf"])
def test_bottleneck_matches_exhaustive(metric):
    rng = np.random.default_rng(41)
    for _ in range(60):
        a = random_diagram(rng)
        b = random_diagram(rng)
        assert bottleneck(a, b) == pytest.approx(brute_bottleneck(a, b), abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_wasserstein_matches_exhaustive(p):
    rng = np.random.default_rng(43)
    for _ in range(60):
        a = random_diagram(rng, max_points=5)
        b = random_diagram(rng, max_points=5)
        assert wasserstein(a, b, p=p) == \
            pytest.approx(brute_wasserstein(a, b, p), abs=1e-12)


def test_distances_with_essentials_match_exhaustive():
    rng = np.random.default_rng(47)
    for _ in range(40):
        a = random_diagram(rng, max_points=4, essentials=True)
        b = random_diagram(rng, max_points=4, essentials=True)
        bb = brute_bottleneck(a, b)
        bw = brute_wasserstein(a, b, 1.0)
        if math.isinf(bb):
            assert bottleneck(a, b) == INF
            assert wasserstein(a, b) == INF
        else:
            assert bottleneck(a, b) == pytest.approx(bb, abs=1e-12)
            assert wasserstein(a, b) == pytest.approx(bw, abs=1e-12)


# === metric axioms and stability ===

finite_point = st.tuples(
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.01, max_value=4.0),
).map(lambda bp: (bp[0], bp[0] + bp[1]))

diagram_strategy = st.lists(finite_point, max_size=12)


@settings(max_examples=40, deadline=None)
@given(diagram_strategy, diagram_strategy)
def test_bottleneck_symmetry(a, b):
    assert bottleneck(a, b) == bottleneck(b, a)


@settings(max_examples=25, deadline=None)
@given(st.lists(finite_point, max_size=6), st.lists(finite_point, max_size=6),
       st.lists(finite_point, max_size=6))
def test_bottleneck_triangle_inequality(a, b, c):
    assert bottleneck(a, c) <= bottleneck(a, b) + bottleneck(b, c) + 1e-12


@settings(max_examples=40, deadline=None)
@given(diagram_strategy)
def test_bottleneck_identity_of_indiscernibles(a):
    shuffled = list(reversed(a))
    assert bottleneck(a, shuffled) == 0.0


@pytest.mark.parametrize("eps", [0.01, 0.05])
def test_bottleneck_stability_under_perturbation(eps):
    rng = np.random.default_rng(53)
    for _ in range(20):
        a = random_diagram(rng, max_points=8)
        noisy = [(b + rng.uniform(-eps, eps), d + rng.uniform(-eps, eps))
                 for b, d in a]
        noisy = [(b, max(d, b + 1e-9)) for b, d in noisy]
        assert bottleneck(a, noisy) <= eps + 1e-12


# === matrices ===

def test_distance_matrix_symmetric_zero_diagonal():
    diagrams = [[(0.0, 2.0)], [(0.0, 2.5)], []]
    m = distance_matrix(["x", "y", "z"], diagrams)
    assert np.allclose(m, m.T)
    assert np.all(np.diag(m) == 0)
    assert m[0, 1] == pytest.approx(0.5)
    assert m[0, 2] == pytest.approx(1.0)


def test_matrix_csv_format():
    labels = ["a", "b"]
    m = np.array([[0.0, INF], [INF, 0.0]])
    text = matrix_to_csv(labels, m)
    lines = text.strip().split("\n")
    assert lines[0] == ",a,b"
    assert lines[1].split(",") == ["a", "0.0", "inf"]
    assert lines[2].split(",") == ["b", "inf", "0.0"]


def test_matrix_csv_quotes_labels_that_hold_commas_quotes_or_newlines():
    labels = ["Wake, 0", 'say "hi"', "two\nlines", "x\ry", "z"]
    m = np.array([[0.0, 1.5, INF, 1.0, 1.0], [1.5, 0.0, 2.0, 1.0, 1.0],
                  [INF, 2.0, 0.0, 1.0, 1.0], [1.0] * 3 + [0.0, 1.0], [1.0] * 4 + [0.0]])
    text = matrix_to_csv(labels, m)
    assert '\n"x\ry",1.0,1.0,1.0,0.0,1.0\n' in text
    assert text.endswith("\nz,1.0,1.0,1.0,1.0,0.0\n")  # a plain label is not quoted
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] == ["", *labels]
    assert [r[0] for r in rows[1:]] == labels
    assert [r[1:4] for r in rows[1:4]] == [["0.0", "1.5", "inf"], ["1.5", "0.0", "2.0"],
                                           ["inf", "2.0", "0.0"]]


# === import cost ===

def test_import_leaves_scipy_optimize_unloaded():
    # only wasserstein needs linear_sum_assignment; every command imports the
    # package and the CLI, and bottleneck's matchings must not pull it in
    env = dict(os.environ, PYTHONPATH=str(Path(gerrytda.__file__).parents[1]))
    code = ("import sys, gerrytda, gerrytda.cli\n"
            "from gerrytda.compare import bottleneck, wasserstein\n"
            "print('scipy.optimize' in sys.modules)\n"
            "assert bottleneck([(0.0, 1.0), (0.5, 3.0)], [(0.0, 2.0)]) == 1.0\n"
            "print('scipy.optimize' in sys.modules)\n"
            "wasserstein([(0.0, 1.0)], [(0.0, 2.0)])\n"
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["False", "False", "True"]
