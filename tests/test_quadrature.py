import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutdg.geometry import K_CARTESIAN
from cutdg.quadrature import (
    CellQuadratureTable,
    SegmentRule,
    TriangleRule,
    integrate_cell,
    polygon_quadrature,
    triangulate_fan,
)

REF_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_segment_weights_sum_to_one():
    for order in (1, 2, 4, 8):
        rule = SegmentRule.gauss(order)
        assert abs(rule.weights.sum() - 1.0) < 1e-14


def test_face_sine_against_antiderivative():
    # 4-point Gauss carries an O(5e-6) remainder on sin(pi s); 6 points
    # push it below 1e-8
    def integrate(rule):
        return float(np.dot(rule.weights, np.sin(np.pi * rule.points)))

    assert integrate(SegmentRule.gauss()) == pytest.approx(2.0 / np.pi, abs=1e-5)
    assert integrate(SegmentRule.gauss(6)) == pytest.approx(2.0 / np.pi, abs=1e-8)


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=40, deadline=None)
def test_segment_gauss_exactness(order, data):
    # q points integrate monomials up to degree 2q-1 exactly
    rule = SegmentRule.gauss(order)
    k = data.draw(st.integers(min_value=0, max_value=2 * order - 1))
    val = float(np.dot(rule.weights, rule.points**k))
    assert val == pytest.approx(1.0 / (k + 1), rel=1e-13)


@pytest.mark.parametrize("degree", [2, 4, 6, 8, 12])
def test_triangle_monomial_exactness(degree):
    # int_T x^a y^b = a! b! / (a + b + 2)!
    rule = TriangleRule.of_degree(degree)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = float(np.dot(rule.weights, rule.points[:, 0] ** a * rule.points[:, 1] ** b))
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            assert val == pytest.approx(exact, rel=1e-12, abs=1e-16)


def test_triangle_weights_positive_and_sum_to_area():
    rule = TriangleRule.of_degree(6)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 0.5) < 1e-14


def test_cell_constant_gives_area():
    poly = np.array([[0.0, 0.0], [0.5, 0.0], [0.7, 0.4], [0.1, 0.5]])
    area = 0.5 * abs(
        sum(
            poly[i, 0] * poly[(i + 1) % 4, 1] - poly[(i + 1) % 4, 0] * poly[i, 1]
            for i in range(4)
        )
    )
    val = integrate_cell(poly, lambda p: np.ones(len(p)))
    assert val == pytest.approx(area, rel=1e-13)


def test_cell_x_over_unit_square():
    assert integrate_cell(UNIT_SQUARE, lambda p: p[:, 0]) == pytest.approx(0.5, abs=1e-14)


def test_cell_x2y_over_reference_triangle():
    val = integrate_cell(REF_TRIANGLE, lambda p: p[:, 0] ** 2 * p[:, 1])
    assert val == pytest.approx(1.0 / 60.0, rel=1e-13)


@given(
    st.integers(min_value=3, max_value=7),
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=30, deadline=None)
def test_fan_positive_on_convex_polygons(k, radius, phase):
    angles = phase + np.linspace(0.0, 2 * np.pi, k, endpoint=False)
    poly = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    _, _, _, areas = triangulate_fan(poly)
    assert np.all(areas > 0)
    pts, wts = polygon_quadrature(poly, TriangleRule.of_degree(4))
    shoelace = 0.5 * float(
        np.dot(poly[:, 0], np.roll(poly[:, 1], -1)) - np.dot(poly[:, 1], np.roll(poly[:, 0], -1))
    )
    assert wts.sum() == pytest.approx(shoelace, rel=1e-13)


def test_degree_escalation_stable_on_wave_integrand(scheme_cache):
    # the test-problem integrands are effectively converged at degree 6
    scheme = scheme_cache(25.0, 0.2001, 16)
    u0 = scheme.problem.u0
    mesh = scheme.mesh
    cut_cells = np.nonzero(mesh.kind_codes != K_CARTESIAN)[0][:20]
    lo = TriangleRule.of_degree(6)
    hi = TriangleRule.of_degree(10)
    for c in cut_cells:
        a = integrate_cell(mesh.cell_vertices(c), u0, lo)
        b = integrate_cell(mesh.cell_vertices(c), u0, hi)
        assert abs(a - b) < 1e-10


def test_cell_table_matches_per_cell_quadrature(scheme_cache):
    scheme = scheme_cache(25.0, 0.2001, 8)
    table = CellQuadratureTable(scheme.mesh, TriangleRule.of_degree(6))
    f = lambda p: np.sin(p[:, 0]) * np.cos(2.0 * p[:, 1])
    per_cell = table.integrate(f)
    mesh = scheme.mesh
    for c in range(0, mesh.n_cells, max(1, mesh.n_cells // 17)):
        expected = integrate_cell(mesh.cell_vertices(c), f)
        assert per_cell[c] == pytest.approx(expected, rel=1e-12, abs=1e-15)
