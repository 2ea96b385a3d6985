"""Compactness scores, the enclosing-circle solver, and the paired t-test."""

import csv
import io
import math

import numpy as np
import pytest

from gerrytda.cli import _read_scores_csv
from gerrytda.compactness import (
    CompactnessRow,
    min_enclosing_circle,
    paired_t_test,
    regularized_incomplete_beta,
    score_units,
    scores_to_csv,
    t_p_value,
)
from gerrytda.errors import DegenerateSampleError, ParameterError
from oracles import brute_min_enclosing_circle, feature, paired_t_pvalue_quadrature, unit_map


def scores(*rings):
    """The CompactnessRow of a one-unit map: an outer ring and its holes."""
    return score_units(unit_map([feature("U", rings)]))[0]


def rect(x0, y0, x1, y1):
    return scores([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def ngon_ring(n, radius=1.0, cx=0.0, cy=0.0):
    ang = 2 * math.pi * np.arange(n) / n
    return np.c_[cx + radius * np.cos(ang), cy + radius * np.sin(ang)]


def ngon(n, radius=1.0, cx=0.0, cy=0.0):
    return scores(ngon_ring(n, radius, cx, cy))


# === Polsby-Popper ===

def test_pp_unit_square():
    assert rect(0, 0, 1, 1).polsby_popper == pytest.approx(math.pi / 4, abs=1e-12)


def test_pp_long_rectangle():
    assert rect(0, 0, 10, 1).polsby_popper == pytest.approx(40 * math.pi / 484, abs=1e-12)


def test_pp_many_sided_polygon_near_one():
    assert ngon(360).polsby_popper == pytest.approx(1.0, abs=1e-4)


def test_pp_hole_lowers_score():
    outer = [(0, 0), (4, 0), (4, 4), (0, 4)]
    hole = [(1, 1), (3, 1), (3, 3), (1, 3)]
    holed = scores(outer, hole).polsby_popper
    assert holed < rect(0, 0, 4, 4).polsby_popper
    # area 12, boundary 16 + 8
    assert holed == pytest.approx(4 * math.pi * 12 / 24 ** 2, abs=1e-12)


# === minimal enclosing circle ===

def test_mec_single_point():
    center, r = min_enclosing_circle([(2.0, 3.0)])
    assert (center.x, center.y, r) == (2.0, 3.0, 0.0)


def test_mec_square_corners():
    center, r = min_enclosing_circle([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert center.x == pytest.approx(0.5, abs=1e-12)
    assert center.y == pytest.approx(0.5, abs=1e-12)
    assert r == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_mec_collinear_points():
    center, r = min_enclosing_circle([(0, 0), (1, 0), (2, 0), (3, 0)])
    assert (center.x, center.y) == pytest.approx((1.5, 0.0), abs=1e-12)
    assert r == pytest.approx(1.5, abs=1e-12)


def test_mec_duplicate_points():
    _, r = min_enclosing_circle([(1, 1)] * 5)
    assert r == 0.0


def test_mec_empty_is_error():
    with pytest.raises(ParameterError):
        min_enclosing_circle([])


def test_mec_matches_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(20):
        pts = rng.uniform(-5, 5, (int(rng.integers(2, 51)), 2))
        _, r = min_enclosing_circle(pts)
        _, _, r_brute = brute_min_enclosing_circle(pts)
        assert r == pytest.approx(r_brute, abs=1e-9)


def test_mec_seed_determinism():
    rng = np.random.default_rng(19)
    pts = rng.uniform(0, 1, (40, 2))
    assert min_enclosing_circle(pts) == min_enclosing_circle(pts)


# === Reock ===

def test_reock_unit_square():
    assert rect(0, 0, 1, 1).reock == pytest.approx(2 / math.pi, abs=1e-12)


def test_reock_long_rectangle():
    # enclosing circle passes through the corners: r = sqrt(101)/2
    assert rect(0, 0, 10, 1).reock == pytest.approx(10 / (math.pi * 101 / 4), abs=1e-12)


def test_reock_disk_near_one():
    assert ngon(360).reock == pytest.approx(1.0, abs=1e-3)


def test_scores_scale_and_rigid_invariance():
    rng = np.random.default_rng(23)
    base = ngon_ring(9, radius=2.0)
    row0 = scores(base)
    for _ in range(8):
        s = rng.uniform(0.1, 50.0)
        theta = rng.uniform(0, 2 * math.pi)
        dx, dy = rng.uniform(-100, 100, 2)
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        moved = scores(s * base @ rot.T + (dx, dy))
        assert moved.polsby_popper == pytest.approx(row0.polsby_popper, rel=1e-12)
        assert moved.reock == pytest.approx(row0.reock, rel=1e-12)


def test_reock_far_from_the_origin_matches_the_same_shape_at_the_origin():
    # state-plane maps lie near 5e6; subtracting off is exact there, so the
    # near triangles are the far ones moved exactly, with the same edge vectors
    off = 5e6
    far = off + np.random.default_rng(5).uniform(0, 10, (200, 3, 2))
    rows = [score_units(unit_map([feature(f"T{i}", [tri]) for i, tri in enumerate(tris)]))
            for tris in (far, far - off)]
    assert [r.reock for r in rows[0]] == [r.reock for r in rows[1]]
    assert rows[0] == rows[1]


def test_score_units_csv():
    units = unit_map([
        feature("D1", [[(0, 0), (1, 0), (1, 1), (0, 1)]], dem=1, rep=2),
        feature("D2", [[(0, 0), (10, 0), (10, 1), (0, 1)]], dem=3, rep=4),
    ])
    rows = score_units(units)
    assert rows[0] == CompactnessRow("D1", pytest.approx(math.pi / 4),
                                     pytest.approx(2 / math.pi))
    text = scores_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "district_id,polsby_popper,reock"
    assert lines[1].startswith("D1,0.785398163")
    assert len(lines) == 3


def test_scores_csv_quotes_ids_that_hold_commas_quotes_or_newlines(tmp_path):
    # a lone carriage return too: csv.writer leaves it unquoted when lines
    # end in a newline, and csv.reader then ends the row there
    ids = ["Wake, 0", 'say "hi"', "two\nlines", "a\rb", "c\r\nd", "plain"]
    rows = [CompactnessRow(uid, 0.25 * k, 0.5) for k, uid in enumerate(ids, start=1)]
    text = scores_to_csv(rows)
    assert '\n"a\rb",1.0,0.5\n' in text
    assert text.endswith("\nplain,1.5,0.5\n")  # an id with none of them is not quoted
    got = list(csv.reader(io.StringIO(text, newline="")))
    assert got == [["district_id", "polsby_popper", "reock"]] + \
        [[uid, repr(0.25 * k), "0.5"] for k, uid in enumerate(ids, start=1)]
    path = tmp_path / "scores.csv"
    path.write_bytes(text.encode())
    assert _read_scores_csv(str(path), "polsby_popper") == [0.25 * k for k in range(1, 7)]


# === paired t-test ===

def test_ttest_zero_mean():
    res = paired_t_test([1, -1, 1, -1], [0, 0, 0, 0])
    assert res.t_statistic == 0.0
    assert res.p_value == 1.0
    assert res.degrees_of_freedom == 3


def test_ttest_linear_differences():
    res = paired_t_test([1, 2, 3, 4, 5], [0, 0, 0, 0, 0])
    assert res.t_statistic == pytest.approx(3 * math.sqrt(2), abs=1e-12)
    assert res.degrees_of_freedom == 4
    assert res.p_value == pytest.approx(0.013235599563682, abs=1e-12)


def test_ttest_constant_differences_degenerate():
    with pytest.raises(DegenerateSampleError):
        paired_t_test([2, 2, 2], [1, 1, 1])


def test_ttest_length_mismatch():
    with pytest.raises(ParameterError):
        paired_t_test([1, 2], [1])


def test_ttest_too_short():
    with pytest.raises(ParameterError):
        paired_t_test([1], [2])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_ttest_rejects_values_that_are_not_finite(value):
    with pytest.raises(ParameterError, match="^paired differences must be finite$"):
        paired_t_test([value, 1, 2], [0, 0, 0])
    with pytest.raises(ParameterError, match="^paired differences must be finite$"):
        paired_t_test([0, 1, 2], [1, value, 0])


def test_ttest_swap_negates_t_keeps_p():
    rng = np.random.default_rng(31)
    a = rng.normal(0.3, 1.0, 12).tolist()
    b = rng.normal(0.0, 1.0, 12).tolist()
    fwd = paired_t_test(a, b)
    rev = paired_t_test(b, a)
    assert rev.t_statistic == -fwd.t_statistic
    assert rev.p_value == fwd.p_value


def test_p_values_match_quadrature_oracle():
    for t in (0.5, 1.0, 2.0, 3.0):
        for df in (1, 4, 10, 30):
            assert t_p_value(t, df) == pytest.approx(
                paired_t_pvalue_quadrature(t, df), abs=1e-8)


def test_t_p_value_rejects_what_it_cannot_measure():
    with pytest.raises(ParameterError, match="^t statistic must be a number, got nan$"):
        t_p_value(math.nan, 3)
    for df in (math.nan, math.inf, 0):
        with pytest.raises(ParameterError, match="^degrees of freedom must be finite and >= 1"):
            t_p_value(1.0, df)
    assert t_p_value(math.inf, 3) == 0.0
    assert t_p_value(-math.inf, 3) == 0.0


def test_incomplete_beta_edges():
    assert regularized_incomplete_beta(2.0, 0.5, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 0.5, 1.0) == 1.0
    # symmetry identity: I_x(a,b) + I_{1-x}(b,a) = 1
    for x in (0.1, 0.37, 0.8):
        assert regularized_incomplete_beta(1.5, 2.5, x) + \
            regularized_incomplete_beta(2.5, 1.5, 1 - x) == pytest.approx(1.0,
                                                                          abs=1e-12)
