import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutdg.field import make_ramp_problem
from cutdg.geometry import K_CARTESIAN, K_CUT4, RampDomain, build_mesh
from cutdg.quadrature import CellQuadratureTable, SegmentRule, TriangleRule
from polygon_oracle import (
    area_tolerance_kinds, cell_table_reference, cell_vertices, integrate_cell, polygon_moment,
    polygon_quadrature, triangulate_fan,
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


@pytest.mark.parametrize("make,size", [(SegmentRule.gauss, 4), (SegmentRule.gauss, 11),
                                       (TriangleRule.of_degree, 6), (TriangleRule.of_degree, 13)])
def test_rules_are_shared_and_read_only(make, size):
    rule = make(size)
    assert make(size) is rule
    for array in (rule.points, rule.weights):
        with pytest.raises(ValueError):
            array[0] = 0.5
    assert SegmentRule.gauss() is SegmentRule.gauss(4)


@pytest.mark.parametrize("make", [SegmentRule.gauss, TriangleRule.of_degree])
def test_invalid_rule_size_raises_every_time(make):
    for _ in range(3):
        with pytest.raises(ValueError):
            make(0)


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
        a = integrate_cell(cell_vertices(mesh, c), u0, lo)
        b = integrate_cell(cell_vertices(mesh, c), u0, hi)
        assert abs(a - b) < 1e-10


def test_cell_table_matches_per_cell_quadrature(scheme_cache):
    scheme = scheme_cache(25.0, 0.2001, 8)
    table = CellQuadratureTable(scheme.mesh, TriangleRule.of_degree(6))
    f = lambda p: np.sin(p[:, 0]) * np.cos(2.0 * p[:, 1])
    per_cell = table.integrate(f)
    mesh = scheme.mesh
    # uncut squares hold no points, so integrate gives 0 there
    np.testing.assert_array_equal(per_cell[table.squares], 0.0)
    for c in np.setdiff1d(np.arange(mesh.n_cells), table.squares).tolist():
        expected = integrate_cell(cell_vertices(mesh, c), f)
        assert per_cell[c] == pytest.approx(expected, rel=1e-12, abs=1e-15)


def one_cell_mesh(corners, kind):
    """The fields of a mesh that `CellQuadratureTable` reads, for one cell
    of kind `kind` (K_*)."""
    corners = np.asarray(corners, dtype=float)
    return SimpleNamespace(vertices=corners, cell_ptr=np.array([0, len(corners)]), n_cells=1,
                           background=np.zeros((1, 2), dtype=np.int64),
                           kind_codes=np.array([kind], dtype=np.int8))


@pytest.mark.parametrize("degree", [2, 6, 10])
def test_square_rule_monomial_exactness(degree):
    # uncut squares take no rule: the norms integrate over them in closed
    # form.  A clipped square, like every cut cell, takes the rule on each
    # of its fan triangles, so it integrates x^a y^b for a + b <= degree:
    # checked on the first cell of each vertex count that is no sliver,
    # whose moments by Green's theorem would be all rounding
    for name, counts in (("25deg-n16", (3, 4, 5)), ("trapezoids-n8", (4,))):
        mesh = TABLE_MESHES[name]()
        table = CellQuadratureTable(mesh, TriangleRule.of_degree(degree))
        assert len(table.squares) and not np.isin(table.cell_index, table.squares).any()
        fan = np.setdiff1d(np.arange(mesh.n_cells), table.squares)
        fan = fan[mesh.areas[fan] > 1e-3 * mesh.h**2]
        for nv in counts:
            c = fan[np.diff(mesh.cell_ptr)[fan] == nv][0]
            at = table.cell_index == c
            pts, wts = table.points[at], table.weights[at]
            for a in range(degree + 1):
                for b in range(degree + 1 - a):
                    val = float((wts * pts[:, 0] ** a * pts[:, 1] ** b).sum())
                    exact = polygon_moment(cell_vertices(mesh, c), a, b)
                    assert val == pytest.approx(exact, rel=1e-14, abs=0.0), (name, c, a, b)


@pytest.mark.parametrize("degree", [2, 6, 10])
def test_parallelogram_rule_total_degree_exactness(degree):
    # a cell of kind K_CARTESIAN is taken for an uncut square and holds no
    # points, whatever its corners; a clipped quadrilateral is a fan cell of
    # two triangles, exact for a + b <= degree
    parallelogram = [[0.25, 0.125], [0.75, 0.25], [1.0, 0.875], [0.5, 0.75]]  # v0 + v2 == v1 + v3
    table = CellQuadratureTable(one_cell_mesh(parallelogram, K_CARTESIAN),
                                TriangleRule.of_degree(degree))
    assert table.squares.tolist() == [0] and len(table.weights) == 0
    corners = [[0.25, 0.125], [0.75, 0.25], [1.0, 0.875], [0.4375, 0.75]]
    rule = TriangleRule.of_degree(degree)
    table = CellQuadratureTable(one_cell_mesh(corners, K_CUT4), rule)
    assert len(table.squares) == 0 and len(table.weights) == 2 * len(rule)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            f = lambda p: p[:, 0] ** a * p[:, 1] ** b
            exact = polygon_moment(corners, a, b)
            assert table.integrate_total(f) == pytest.approx(exact, rel=1e-14, abs=0.0), (a, b)


def squares(mesh):
    """Cells whose corners are those of their background grid square."""
    i, j = mesh.background[:, 0], mesh.background[:, 1]
    grid = np.stack([i, j, i + 1, j, i + 1, j + 1, i, j + 1], axis=-1).reshape(-1, 4, 2)
    nv = np.diff(mesh.cell_ptr)
    # the first four corners of each cell, a triangle's first one twice
    corners = mesh.vertices[mesh.cell_ptr[:-1, None] + np.arange(4) % nv[:, None]]
    return (nv == 4) & np.all(corners == grid / mesh.n, axis=(1, 2))


TABLE_MESHES = {
    "25deg-n16": lambda: build_mesh(make_ramp_problem(25.0, 0.2001).ramp, 16),
    "45deg-sliver-n20": lambda: build_mesh(make_ramp_problem(45.0, 0.2 + 1e-10).ramp, 20),
    # a 1e-10-degree ramp 1e-15 right of a grid node clips the squares it
    # crosses into trapezoids within 2e-11 h^2 of a square; one of them is
    # within the 1e-12 h^2 area tolerance that kinds by area would take for
    # a square
    "trapezoids-n8": lambda: build_mesh(RampDomain(gamma=math.radians(1e-10), x0=0.5 + 1e-15), 8),
}


@pytest.mark.parametrize("name", list(TABLE_MESHES))
def test_cell_table_rules_per_cell(name):
    mesh = TABLE_MESHES[name]()
    rule = TriangleRule.of_degree(6)
    table = CellQuadratureTable(mesh, rule)
    square = squares(mesh)
    np.testing.assert_array_equal(table.squares, np.flatnonzero(square))
    # the clip's kinds mark exactly the uncut squares K_CARTESIAN
    np.testing.assert_array_equal(mesh.kind_codes == K_CARTESIAN, square)
    if name.startswith("trapezoids"):
        clipped = (np.diff(mesh.cell_ptr) == 4) & ~square
        assert np.any(clipped & (area_tolerance_kinds(mesh) == K_CARTESIAN))
    # the fan cells' weights sum to their areas; uncut squares hold no points
    fan_areas = np.bincount(table.cell_index, table.weights, minlength=mesh.n_cells)
    np.testing.assert_allclose(fan_areas[~square], mesh.areas[~square], rtol=1e-13, atol=0.0)
    expected = np.where(square, 0, (np.diff(mesh.cell_ptr) - 2) * len(rule))
    np.testing.assert_array_equal(np.bincount(table.cell_index, minlength=mesh.n_cells), expected)
    for c in np.flatnonzero(~square).tolist():
        at = table.cell_index == c
        pts, wts = polygon_quadrature(cell_vertices(mesh, c), rule)
        np.testing.assert_array_equal(table.points[at], pts)
        np.testing.assert_array_equal(table.weights[at], wts)


REFERENCE_MESHES = {
    **TABLE_MESHES,
    "grid-offset-5deg-n64": lambda: build_mesh(RampDomain(math.radians(5.0), 0.25 + 1e-15), 64),
    "cartesian-n4": lambda: build_mesh(RampDomain(math.radians(30.0), 1.0), 4),  # no fan cells
}


@pytest.mark.parametrize("degree", [6, 13])
@pytest.mark.parametrize("name", list(REFERENCE_MESHES))
def test_cell_table_matches_broadcast_reference(name, degree):
    # one coordinate column at a time gives the bits of (cells, points, 2) broadcasts
    mesh = REFERENCE_MESHES[name]()
    rule = TriangleRule.of_degree(degree)
    table = CellQuadratureTable(mesh, rule)
    for field, a, b in zip(("points", "weights", "cell_index"),
                           (table.points, table.weights, table.cell_index),
                           cell_table_reference(mesh, rule), strict=True):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field
        assert a.tobytes() == b.tobytes(), field
