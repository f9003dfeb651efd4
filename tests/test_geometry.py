import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cutdg.discretization import DoDScheme, SchemeConfig, build_face_table
from cutdg.field import make_ramp_problem, ramp_velocity
from cutdg.geometry import (
    CELL_KINDS,
    DegenerateGeometry,
    F_INTERIOR,
    F_RAMP,
    K_CARTESIAN,
    K_CUT3,
    RampDomain,
    build_mesh,
    identify_stabilized,
)
from cutdg.quadrature import SegmentRule
from cutdg.verify import check_energy_decay, check_incompressibility
from polygon_oracle import cell_vertices, clip_cell, clip_cell_reference, face_numbering_reference


def shoelace(poly):
    x, y = np.asarray(poly).T
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def assert_faces_partition_boundaries(mesh):
    perimeters = sum(
        float(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).sum())
        for v in (cell_vertices(mesh, c) for c in range(mesh.n_cells))
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

    @pytest.mark.parametrize("ramp,n", [
        (RampDomain(math.radians(25.0), 0.2001), 16),
        (RampDomain(math.radians(5.0), 0.25 + 1e-15), 16),
        (RampDomain(math.radians(45.0), 0.2 + 1e-10), 20),
        (diag45(0.25), 8),
    ])
    def test_matches_per_cell_reference(self, ramp, n):
        # every cell with a corner below the ramp line after snapping
        h = 1.0 / n
        crossed = 0
        for i in range(n):
            for j in range(n):
                cell = [(i * h, j * h), ((i + 1) * h, j * h),
                        ((i + 1) * h, (j + 1) * h), (i * h, (j + 1) * h)]
                if ramp.signed_distance(np.asarray(cell)).min() >= -1e-12 * h:
                    continue
                crossed += 1
                np.testing.assert_array_equal(clip_cell(cell, ramp), clip_cell_reference(cell, ramp))
        assert crossed > 0


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
            v = cell_vertices(mesh, c)
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
                v = cell_vertices(mesh, c)
                assert np.all(v[:, 0] >= i * h - 1e-12)
                assert np.all(v[:, 0] <= (i + 1) * h + 1e-12)
                assert np.all(v[:, 1] >= j * h - 1e-12)
                assert np.all(v[:, 1] <= (j + 1) * h + 1e-12)

    def test_rejects_ramp_through_top(self):
        # the domain itself refuses it, under the field the CLI maps to --gamma
        with pytest.raises(DegenerateGeometry, match="exits through the top") as info:
            RampDomain(gamma=math.radians(60.0), x0=0.2001)
        assert info.value.field == "gamma"

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

    @pytest.mark.parametrize("gamma_deg,slope", [
        (1e-6, None), (5.0, None), (25.0, None), (80.0, None), (89.9, None), (45.0, 1.0),
    ])
    def test_clipped_cells_need_no_repair(self, gamma_deg, slope):
        # x0 on a grid node or a hair off one: no clipped polygon has a
        # vertex within eps of the next or three collinear consecutive
        # vertices, the two cases a per-cell clip would have to repair
        clipped = 0
        for n in (4, 7, 16):
            eps = 1e-12 / n
            for k in range(n + 1):
                for offset in (0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-10, -1e-10):
                    x0 = k / n + offset
                    if not 0.0 <= x0 <= 1.0:
                        continue
                    try:
                        ramp = RampDomain(math.radians(gamma_deg), x0, slope)
                    except DegenerateGeometry:
                        continue  # exits through the top
                    mesh = build_mesh(ramp, n)
                    nxt = np.arange(1, len(mesh.vertices) + 1)
                    nxt[mesh.cell_ptr[1:] - 1] = mesh.cell_ptr[:-1]
                    d = mesh.vertices[nxt] - mesh.vertices
                    step = np.abs(d).max(axis=1)
                    cross = d[:, 0] * d[nxt, 1] - d[:, 1] * d[nxt, 0]
                    assert np.all(step > eps)
                    assert np.all(np.abs(cross) > eps * np.maximum(step, step[nxt]))
                    assert abs(mesh.total_area() - ramp.area()) <= 1e-12 * ramp.area()
                    clipped += np.count_nonzero(mesh.kind_codes != K_CARTESIAN)
        assert clipped > 0


FACE_NUMBERING_MESHES = {
    "25deg-n16": (RampDomain(gamma=math.radians(25.0), x0=0.2001), 16),
    "25deg-n256": (RampDomain(gamma=math.radians(25.0), x0=0.2001), 256),
    "sliver45-n20": (RampDomain(gamma=math.pi / 4, x0=0.2 + 1e-10), 20),
    "sliver45-n80": (RampDomain(gamma=math.pi / 4, x0=0.2 + 1e-10), 80),
    "5deg-grid-offset-n64": (RampDomain(gamma=math.radians(5.0), x0=0.25 + 1e-15), 64),
    # through grid nodes: the ramp's vertices are shared grid corners
    "45deg-slope1-node-n16": (diag45(0.25), 16),
}


@pytest.mark.parametrize("name", list(FACE_NUMBERING_MESHES))
def test_face_numbering_matches_sorted_reference(name):
    # faces numbered with a dense first-appearance array, without a sort,
    # are those that np.unique and two argsorts number
    mesh = build_mesh(*FACE_NUMBERING_MESHES[name])
    got = (mesh.edge_face, mesh.edge_sign, mesh.f_left, mesh.f_right, mesh.f_endpoints)
    for field, a, b in zip(("edge_face", "edge_sign", "f_left", "f_right", "f_endpoints"),
                           got, face_numbering_reference(mesh), strict=True):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field
        assert a.tobytes() == b.tobytes(), field


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


@given(ramp_geometries(), st.sampled_from([1.0, 0.3]))
@settings(max_examples=50, deadline=None)
def test_partition_property(geometry, tau):
    gamma_deg, x0, n = geometry
    # ahead of the construction, which refuses a ramp through the top
    assume(math.tan(math.radians(gamma_deg)) * (1.0 - x0) <= 0.98)
    problem = make_ramp_problem(gamma_deg, x0).with_zero_inflow()
    ramp = problem.ramp
    config = SchemeConfig(tau=tau, epsilon=1.0 / 14.0)
    scheme = DoDScheme(problem, config, n)
    mesh, table = scheme.mesh, scheme.table
    assert mesh.total_area() == pytest.approx(ramp.area(), rel=1e-12)
    assert_faces_partition_boundaries(mesh)
    assert np.all(mesh.areas > 0.0)
    assert np.all(mesh.f_right[mesh.f_kind == F_RAMP] < 0)
    assert_admissible_stabilization(mesh, table, scheme.records, tau)
    assert check_incompressibility(scheme).passed
    assert check_energy_decay(problem, config, n, steps=30).passed
    assert_discrete_conservation(scheme, steps=30)


def assert_discrete_conservation(scheme, steps):
    """Zero inflow: each step changes the mass by the outflow-boundary flux.

    r_k = sum |E| (u^{k+1} - u^k) / dt_k + sum_outflow flux_in u^k[f_left]
    must vanish to roundoff relative to sum_f |flux_in| max |u^k|.
    """
    mesh, table = scheme.mesh, scheme.table
    outflow = np.nonzero((mesh.f_right < 0) & (table.flux_in > 0.0))[0]
    scale = np.abs(table.flux_in).sum()
    states = []
    scheme.solve(t_final=steps * scheme.dt,
                 observer=lambda k, t, u, dt: states.append((u, dt)))
    assert len(states) == steps + 1
    for (u, dt), (u_next, _) in zip(states, states[1:]):
        r = (np.dot(mesh.areas, u_next - u) / dt
             + np.dot(table.flux_in[outflow], u[mesh.f_left[outflow]]))
        assert abs(r) <= 1e-12 * scale * np.abs(u).max()


def assert_admissible_stabilization(mesh, table, stab, tau):
    """The stabilized-cell table against the selection rules, one cell at a time."""
    assert np.all(np.diff(stab.cells) > 0)
    assert np.all(mesh.kind_codes[stab.cells] == K_CUT3)
    assert np.all((stab.alpha > 0.0) & (stab.alpha <= 1.0))
    expected = [
        min(float(mesh.areas[c]) / (tau * mesh.h * float(table.abs_flux[f])), 1.0)
        for c, f in zip(stab.cells.tolist(), stab.e_in.tolist())
    ]
    np.testing.assert_array_equal(stab.alpha, expected)
    assert np.all(mesh.f_right[stab.e_in] >= 0) and np.all(mesh.f_right[stab.e_out] >= 0)
    for e, E in ((stab.e_in, stab.E_in), (stab.e_out, stab.E_out)):
        np.testing.assert_array_equal(np.sort([mesh.f_left[e], mesh.f_right[e]], axis=0),
                                      np.sort([stab.cells, E], axis=0))
    faces = np.concatenate([stab.e_in, stab.e_out])
    assert len(np.unique(faces)) == len(faces)
    assert not np.any(np.isin(stab.E_in, stab.cells) | np.isin(stab.E_out, stab.cells))


class TestIdentifyStabilized:
    def table(self, mesh):
        return build_face_table(mesh, ramp_velocity(mesh.domain), SegmentRule.gauss())

    def test_half_h_legs_excluded(self):
        # legs land exactly on h/2 (dyadic slope/offsets): strict criterion
        ramp = RampDomain(gamma=math.pi / 4, x0=0.125, slope=1.0)
        mesh = build_mesh(ramp, 4)
        assert np.count_nonzero(mesh.kind_codes == K_CUT3) == 3
        assert len(identify_stabilized(mesh, self.table(mesh), tau=1.0)) == 0

    def test_small_triangles_are_stabilized(self):
        ramp = RampDomain(gamma=math.pi / 4, x0=0.03125, slope=1.0)
        mesh = build_mesh(ramp, 4)
        stab = identify_stabilized(mesh, self.table(mesh), tau=1.0)
        assert len(stab) == 3
        assert np.all(mesh.kind_codes[stab.cells] == K_CUT3)
        assert np.all((0.0 < stab.alpha) & (stab.alpha <= 1.0))
        assert np.all((mesh.kind_codes[stab.E_in] != K_CUT3) | (mesh.areas[stab.E_in] >= mesh.h**2 / 8))
        assert np.all(mesh.f_right[stab.e_in] >= 0) and np.all(mesh.f_right[stab.e_out] >= 0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_tau(self, tau):
        mesh = build_mesh(RampDomain(gamma=math.pi / 4, x0=0.03125, slope=1.0), 4)
        with pytest.raises(ValueError, match="tau"):
            identify_stabilized(mesh, self.table(mesh), tau)

    def test_alpha_clamps_at_one_for_tiny_tau(self):
        ramp = RampDomain(gamma=math.pi / 4, x0=0.03125, slope=1.0)
        mesh = build_mesh(ramp, 4)
        stab = identify_stabilized(mesh, self.table(mesh), tau=1e-6)
        assert len(stab) and np.all(stab.alpha == 1.0)

    def test_alpha_scales_linearly_in_leg_length(self):
        # alpha ~ delta / (2 tau h c) for legs delta and |beta.n| ~ c on e_in
        tau, n = 1.0, 4
        for k in (4, 5, 6):
            delta = 2.0**-k  # legs of the cut triangles, exactly
            ramp = RampDomain(gamma=math.pi / 4, x0=delta, slope=1.0)
            mesh = build_mesh(ramp, n)
            table = self.table(mesh)
            stab = identify_stabilized(mesh, table, tau)
            assert len(stab)
            c_bar = table.abs_flux[stab.e_in] / mesh.f_length[stab.e_in]
            expected = delta / (2.0 * tau * mesh.h * c_bar)
            assert stab.alpha == pytest.approx(expected, rel=1e-10)

    def test_no_stabilized_adjacency(self, scheme_cache):
        for gamma in (5.0, 25.0, 45.0):
            scheme = scheme_cache(gamma, 0.2001, 16)
            stab = scheme.records
            assert not np.any(np.isin(stab.E_in, stab.cells))
            assert not np.any(np.isin(stab.E_out, stab.cells))
            faces = np.concatenate([stab.e_in, stab.e_out])
            assert len(faces) == len(np.unique(faces))
