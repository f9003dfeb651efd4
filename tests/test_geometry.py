import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cutdg.discretization import build_face_table
from cutdg.field import ramp_velocity
from cutdg.geometry import (
    CELL_KINDS,
    DegenerateGeometry,
    F_INTERIOR,
    F_RAMP,
    K_CUT3,
    RampDomain,
    build_mesh,
    clip_cell,
    identify_stabilized,
)


def shoelace(poly):
    x, y = np.asarray(poly).T
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def assert_faces_partition_boundaries(mesh):
    perimeters = sum(
        float(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).sum())
        for v in map(mesh.cell_vertices, range(mesh.n_cells))
    )
    face_len = float((mesh.f_length * np.where(mesh.f_right >= 0, 2.0, 1.0)).sum())
    assert face_len == pytest.approx(perimeters, rel=1e-12)


def diag45(x0=0.0):
    # slope pinned to exactly 1 (tan(pi/4) != 1 in binary)
    return RampDomain(gamma=math.pi / 4, x0=x0, slope=1.0)


class TestClipCell:
    def test_pentagon_area(self):
        ramp = RampDomain(gamma=math.pi / 4, x0=0.5, slope=1.0)
        poly = clip_cell([(0, 0), (1, 0), (1, 1), (0, 1)], ramp)
        assert len(poly) == 5
        assert shoelace(poly) == pytest.approx(7.0 / 8.0, abs=1e-14)

    def test_cell_above_line_untouched(self):
        ramp = RampDomain(gamma=math.radians(10.0), x0=0.5)
        square = [(0.0, 0.5), (0.25, 0.5), (0.25, 0.75), (0.0, 0.75)]
        poly = clip_cell(square, ramp)
        np.testing.assert_array_equal(poly, np.asarray(square))

    def test_diagonal_halves_the_square(self):
        h = 0.25
        for cell in (
            [(0, 0), (h, 0), (h, h), (0, h)],
            [(h, h), (2 * h, h), (2 * h, 2 * h), (h, 2 * h)],
        ):
            poly = clip_cell(cell, diag45())
            assert len(poly) == 3
            assert shoelace(poly) == pytest.approx(h * h / 2.0, abs=1e-15)

    def test_cell_below_is_empty(self):
        poly = clip_cell([(0.5, 0.0), (0.75, 0.0), (0.75, 0.25), (0.5, 0.25)], diag45())
        assert poly.shape == (0, 2)

    def test_vertex_snap_discards_sliver(self):
        # line passes within 1e-13*h of the corner: snapped, no micro-triangle
        h = 0.25
        ramp = RampDomain(gamma=math.pi / 4, x0=1e-14, slope=1.0)
        poly = clip_cell([(0, 0), (h, 0), (h, h), (0, h)], ramp)
        assert len(poly) == 3


class TestBuildMesh:
    def test_total_area_diag(self):
        mesh = build_mesh(diag45(), 4)
        assert mesh.total_area() == pytest.approx(0.5, rel=1e-12)

    def test_total_area_closed_form(self):
        ramp = RampDomain(gamma=math.radians(25.0), x0=0.2001)
        mesh = build_mesh(ramp, 32)
        exact = 1.0 - math.tan(math.radians(25.0)) * (1.0 - 0.2001) ** 2 / 2.0
        assert mesh.total_area() == pytest.approx(exact, rel=1e-12)

    def test_classification_against_point_location_oracle(self):
        # independent oracle: count strictly-retained corners of each
        # background cell; 4 -> full square, 3 -> pentagon, 2 -> quadrilateral,
        # 1 -> triangle (generic position: no corner on the line)
        ramp = RampDomain(gamma=math.radians(5.0), x0=0.2001)
        n = 4
        mesh = build_mesh(ramp, n)
        got = {tuple(b): CELL_KINDS[k] for b, k in zip(mesh.background.tolist(), mesh.kind_codes)}
        expected = {}
        h = 1.0 / n
        for i in range(n):
            for j in range(n):
                corners = [(i * h, j * h), ((i + 1) * h, j * h),
                           ((i + 1) * h, (j + 1) * h), (i * h, (j + 1) * h)]
                above = sum(1 for p in corners if ramp.signed_distance(p) > 0)
                if above == 0:
                    continue
                expected[(i, j)] = {4: "cartesian", 3: "cut5", 2: "cut4", 1: "cut3"}[above]
        assert got == expected
        assert all(k in ("cut3", "cut4", "cut5") for k in got.values() if k != "cartesian")

    @pytest.mark.parametrize("gamma_deg,x0,n", [(5, 0.2001, 8), (25, 0.2001, 16), (45, 0.3, 12)])
    def test_face_partition_of_cell_boundaries(self, gamma_deg, x0, n):
        mesh = build_mesh(RampDomain(gamma=math.radians(gamma_deg), x0=x0), n)
        assert_faces_partition_boundaries(mesh)

    def test_face_invariants(self, base_scheme):
        mesh = base_scheme.mesh
        norms = np.linalg.norm(mesh.f_normal, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-14
        # interior faces: stored normal is outward for left, inward for right
        d = mesh.f_endpoints[:, 1] - mesh.f_endpoints[:, 0]
        outward = np.stack([d[:, 1], -d[:, 0]], axis=1) / mesh.f_length[:, None]
        np.testing.assert_allclose(outward, mesh.f_normal, atol=1e-14)
        np.testing.assert_array_equal(mesh.f_right >= 0, mesh.f_kind == F_INTERIOR)
        # edge k of a cell is its face edge_face[k], on the side edge_sign[k] names
        cell = np.repeat(np.arange(mesh.n_cells), np.diff(mesh.cell_ptr))
        f = mesh.edge_face
        side = np.where(mesh.edge_sign > 0, mesh.f_left[f], mesh.f_right[f])
        np.testing.assert_array_equal(side, cell)
        # ramp faces lie on the ramp line
        ramp_ids = np.nonzero(mesh.f_kind == F_RAMP)[0]
        dist = mesh.domain.signed_distance(mesh.f_endpoints[ramp_ids].reshape(-1, 2))
        assert np.abs(dist).max() < 1e-12 * mesh.h

    def test_cells_convex_ccw(self, base_scheme):
        mesh = base_scheme.mesh
        for c in range(mesh.n_cells):
            v = mesh.cell_vertices(c)
            d = np.roll(v, -1, axis=0) - v
            cross = d[:, 0] * np.roll(d[:, 1], -1) - d[:, 1] * np.roll(d[:, 0], -1)
            assert np.all(cross > -1e-14)
            assert mesh.areas[c] == pytest.approx(shoelace(v), rel=1e-12)

    def test_monotone_refinement(self):
        ramp = RampDomain(gamma=math.radians(25.0), x0=0.2001)
        for n in (8, 16):
            mesh = build_mesh(ramp, n)
            h = 1.0 / n
            for c, (i, j) in enumerate(mesh.background.tolist()):
                v = mesh.cell_vertices(c)
                assert np.all(v[:, 0] >= i * h - 1e-12)
                assert np.all(v[:, 0] <= (i + 1) * h + 1e-12)
                assert np.all(v[:, 1] >= j * h - 1e-12)
                assert np.all(v[:, 1] <= (j + 1) * h + 1e-12)

    def test_rejects_ramp_through_top(self):
        with pytest.raises(DegenerateGeometry):
            build_mesh(RampDomain(gamma=math.radians(60.0), x0=0.2001), 8)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            build_mesh(diag45(), 3)

    def test_ramp_start_on_grid_node_snaps(self):
        # x0 exactly on a node: degenerate zero-area cells must disappear
        ramp = RampDomain(gamma=math.pi / 4, x0=0.25, slope=1.0)
        mesh = build_mesh(ramp, 4)
        assert mesh.total_area() == pytest.approx(ramp.area(), rel=1e-12)
        assert np.all(mesh.areas > 0)

    def test_stress_geometry_keeps_slivers(self):
        ramp = RampDomain(gamma=math.pi / 4, x0=0.2 + 1e-10)
        mesh = build_mesh(ramp, 40)
        assert mesh.total_area() == pytest.approx(ramp.area(), rel=1e-12)
        assert float(mesh.areas.min()) / mesh.h**2 < 1e-8


@st.composite
def ramp_geometries(draw):
    """(gamma_deg, x0, n): x0 anywhere, on a grid node, or 1e-15/1e-10 off one."""
    n = draw(st.sampled_from([4, 5, 6, 9, 16, 20]))
    gamma_deg = draw(st.floats(min_value=1.0, max_value=50.0))
    near_node = draw(st.integers(min_value=1, max_value=n - 1)) / n + draw(
        st.sampled_from([0.0, 1e-15, -1e-15, 1e-10, -1e-10])
    )
    x0 = draw(st.one_of(st.floats(min_value=0.05, max_value=0.9), st.just(near_node)))
    return gamma_deg, x0, n


@given(ramp_geometries())
@settings(max_examples=50, deadline=None)
def test_partition_property(geometry):
    gamma_deg, x0, n = geometry
    ramp = RampDomain(gamma=math.radians(gamma_deg), x0=x0)
    assume(ramp.slope * (1.0 - x0) <= 0.98)
    mesh = build_mesh(ramp, n)
    assert mesh.total_area() == pytest.approx(ramp.area(), rel=1e-12)
    assert_faces_partition_boundaries(mesh)
    assert np.all(mesh.areas > 0.0)
    assert np.all(mesh.f_right[mesh.f_kind == F_RAMP] < 0)
    identify_stabilized(mesh, build_face_table(mesh, ramp_velocity(ramp)), tau=1.0)


class TestIdentifyStabilized:
    def table(self, mesh):
        return build_face_table(mesh, ramp_velocity(mesh.domain))

    def test_half_h_legs_excluded(self):
        # legs land exactly on h/2 (dyadic slope/offsets): strict criterion
        ramp = RampDomain(gamma=math.pi / 4, x0=0.125, slope=1.0)
        mesh = build_mesh(ramp, 4)
        assert np.count_nonzero(mesh.kind_codes == K_CUT3) == 3
        assert identify_stabilized(mesh, self.table(mesh), tau=1.0) == []

    def test_small_triangles_are_stabilized(self):
        ramp = RampDomain(gamma=math.pi / 4, x0=0.03125, slope=1.0)
        mesh = build_mesh(ramp, 4)
        records = identify_stabilized(mesh, self.table(mesh), tau=1.0)
        assert len(records) == 3
        for r in records:
            assert mesh.kind_codes[r.cell] == K_CUT3
            assert 0.0 < r.alpha <= 1.0
            assert mesh.kind_codes[r.E_in] != K_CUT3 or mesh.areas[r.E_in] >= mesh.h**2 / 8
            assert mesh.f_right[r.e_in] >= 0 and mesh.f_right[r.e_out] >= 0

    def test_alpha_clamps_at_one_for_tiny_tau(self):
        ramp = RampDomain(gamma=math.pi / 4, x0=0.03125, slope=1.0)
        mesh = build_mesh(ramp, 4)
        records = identify_stabilized(mesh, self.table(mesh), tau=1e-6)
        assert records and all(r.alpha == 1.0 for r in records)

    def test_alpha_scales_linearly_in_leg_length(self):
        # alpha ~ delta / (2 tau h c) for legs delta and |beta.n| ~ c on e_in
        tau, n = 1.0, 4
        for k in (4, 5, 6):
            delta = 2.0**-k  # legs of the cut triangles, exactly
            ramp = RampDomain(gamma=math.pi / 4, x0=delta, slope=1.0)
            mesh = build_mesh(ramp, n)
            table = self.table(mesh)
            records = identify_stabilized(mesh, table, tau)
            assert records
            for r in records:
                c_bar = table.abs_flux[r.e_in] / mesh.f_length[r.e_in]
                expected = delta / (2.0 * tau * mesh.h * c_bar)
                assert r.alpha == pytest.approx(expected, rel=1e-10)

    def test_no_stabilized_adjacency(self, scheme_cache):
        for gamma in (5.0, 25.0, 45.0):
            scheme = scheme_cache(gamma, 0.2001, 16)
            stab_cells = {r.cell for r in scheme.records}
            for r in scheme.records:
                assert r.E_in not in stab_cells
                assert r.E_out not in stab_cells
            faces = [f for r in scheme.records for f in (r.e_in, r.e_out)]
            assert len(faces) == len(set(faces))
