import dataclasses
import math

import numpy as np
import pytest

from cutdg.discretization import face_side_means
from cutdg.field import Snapshot, make_ramp_problem
from cutdg.geometry import K_CARTESIAN, RampDomain, build_mesh
from cutdg.norms import (
    beta_seminorm,
    beta_seminorm_parts,
    error_breakdown,
    gradient_norm_squared,
    h1_norm,
    l2_norm_squared,
    l2_project,
    triple_star_norm,
)
from cutdg.quadrature import CellQuadratureTable, TriangleRule
from polygon_oracle import cell_vertices, grid_square_rule, integrate_cell


def tensor_oracle(scheme, f):
    """Per-cell integrals of f(points, cell of each point): a 12 x 12
    Gauss-Legendre tensor rule on the uncut squares, the scheme's cell
    quadrature on the other cells."""
    cq = scheme.cellquad
    out = np.bincount(cq.cell_index, cq.weights * f(cq.points, cq.cell_index),
                      minlength=scheme.mesh.n_cells)
    pts, wts = grid_square_rule(scheme.mesh.n, scheme.mesh.background[cq.squares])
    cells = np.repeat(cq.squares, wts.shape[1])
    out[cq.squares] = (wts * f(pts.reshape(-1, 2), cells).reshape(wts.shape)).sum(axis=1)
    return out


class TestL2Project:
    def test_constant(self, base_scheme):
        # the projection's quadrature half: the fan rule of every cut cell
        # integrates a constant exactly, and the uncut squares, which the
        # closed form fills in, take no points
        mesh, cq = base_scheme.mesh, base_scheme.cellquad
        cut = np.ones(mesh.n_cells, dtype=bool)
        cut[cq.squares] = False
        assert np.all(mesh.kind_codes[cq.squares] == K_CARTESIAN) and cut.any()
        per_cell = cq.integrate(lambda p: np.full(len(p), 2.5))
        np.testing.assert_allclose(per_cell[cut] / mesh.areas[cut], 2.5, rtol=1e-13)
        np.testing.assert_array_equal(per_cell[cq.squares], 0.0)

    def test_coordinate_on_unit_cell(self):
        # a mesh of uncut squares only, whose projection is all closed form:
        # each cell's average against a tensor rule at its grid coordinates
        mesh = build_mesh(RampDomain(gamma=math.radians(30.0), x0=1.0), 4)
        cellquad = CellQuadratureTable(mesh, TriangleRule.of_degree(6))
        assert len(cellquad.points) == 0 and len(cellquad.squares) == mesh.n_cells
        pts, wts = grid_square_rule(4, mesh.background)
        for t in (0.0, 0.3):
            u = Snapshot(make_ramp_problem(25.0, 0.2001), t)
            oracle = (wts * u(pts.reshape(-1, 2)).reshape(wts.shape)).sum(axis=1) / mesh.areas
            np.testing.assert_allclose(l2_project(mesh, u, cellquad), oracle, rtol=0.0, atol=1e-14)

    def test_wave_against_high_degree_oracle(self, scheme_cache):
        scheme = scheme_cache(25.0, 0.2001, 32)
        proj = l2_project(scheme.mesh, scheme.problem.u0, scheme.cellquad)
        oracle_rule = TriangleRule.of_degree(12)
        mesh = scheme.mesh
        for c in range(0, mesh.n_cells, max(1, mesh.n_cells // 40)):
            oracle = integrate_cell(cell_vertices(mesh, c), scheme.problem.u0, oracle_rule)
            assert abs(proj[c] - oracle / mesh.areas[c]) < 1e-10


class TestBetaSeminorm:
    def test_constant_discrete_only_boundary_contributes(self, base_scheme):
        c = 1.7
        v = np.full(base_scheme.mesh.n_cells, c)
        plain, capacity, extended = beta_seminorm_parts(base_scheme, v)
        boundary = base_scheme.mesh.f_right < 0
        expected = float(base_scheme.table.abs_flux[boundary].sum()) * c * c
        assert capacity == 0.0 and extended == 0.0
        assert plain == pytest.approx(expected, rel=1e-13)

    def test_smooth_function_has_no_interior_jumps(self, base_scheme):
        # single-valued traces: interior means agree from both sides
        means = face_side_means(base_scheme, base_scheme.problem.u0)
        interior = base_scheme.mesh.f_right >= 0
        assert np.abs(means[interior, 0] - means[interior, 1]).max() < 1e-14

    def test_matches_dissipation(self, base_scheme):
        from cutdg.discretization import bilinear_a_dod

        rng = np.random.default_rng(21)
        v = rng.uniform(-1, 1, base_scheme.mesh.n_cells)
        a = bilinear_a_dod(base_scheme, v, v)
        assert beta_seminorm(base_scheme, v) ** 2 == pytest.approx(2.0 * a, rel=1e-12)

    def test_stabilized_branch_hand_oracle(self, scheme_cache):
        # indicator fields on a stabilized cell and its neighbors exercise
        # every branch; compare against the three-face sum written out by hand
        scheme = scheme_cache(25.0, 0.2001, 16)
        st = scheme.records
        assert len(st), "mesh is expected to contain stabilized cells"
        t = scheme.table
        rng = np.random.default_rng(22)
        c_in, c_e, c_out = rng.uniform(-1, 1, 3)
        v = np.zeros(scheme.mesh.n_cells)
        v[st.E_in[0]], v[st.cells[0]], v[st.E_out[0]] = c_in, c_e, c_out
        _, capacity, extended = beta_seminorm_parts(scheme, v)
        alpha, e_in, e_out = st.alpha[0], st.e_in[0], st.e_out[0]
        by_hand_cap = alpha * (
            t.abs_flux[e_in] * (c_in - c_e) ** 2 + t.abs_flux[e_out] * (c_e - c_out) ** 2
        )
        by_hand_ext = (1.0 - alpha) * t.abs_flux[e_out] * (c_out - c_in) ** 2
        assert capacity == pytest.approx(by_hand_cap, rel=1e-13)
        assert extended == pytest.approx(by_hand_ext, rel=1e-13)


SEMINORM_GEOMETRIES = [
    pytest.param(5.0, 0.2001, 64, id="ramp5"),
    pytest.param(25.0, 0.2001, 64, id="ramp25"),
    pytest.param(45.0, 0.2 + 1e-10, 40, id="sliver45"),
]


class TestJumpFaces:
    """A smooth part enters the seminorm only on `scheme.jump_faces`."""

    @pytest.mark.parametrize("gamma,x0,n", SEMINORM_GEOMETRIES)
    def test_matches_all_faces_reference(self, scheme_cache, all_faces_seminorm, gamma, x0, n):
        scheme = scheme_cache(gamma, x0, n)
        exact_t = Snapshot(scheme.problem, 0.3)
        proj = l2_project(scheme.mesh, exact_t, scheme.cellquad)
        noise = np.random.default_rng(27).uniform(-1, 1, scheme.mesh.n_cells)
        # the small-error regime of a converged solution and a rough field
        for u_h in (proj, proj + 1e-3 * noise, noise):
            got = beta_seminorm(scheme, (exact_t, -u_h))
            ref = all_faces_seminorm(scheme, (exact_t, -u_h))
            assert ref > 0.0
            assert abs(got - ref) <= 4 * np.finfo(float).eps * ref

    def test_jump_faces_are_boundary_faces_and_legs(self, scheme_cache):
        scheme = scheme_cache(45.0, 0.2 + 1e-10, 40)
        mesh, st = scheme.mesh, scheme.records
        boundary = np.flatnonzero((mesh.f_right < 0) & (scheme.table.abs_flux > 0.0))
        expected = np.union1d(boundary, np.concatenate([st.e_in, st.e_out]))
        np.testing.assert_array_equal(scheme.jump_faces, expected)
        assert len(st) > 0 and len(scheme.jump_faces) < mesh.n_faces // 10

    def test_smooth_part_called_once_on_jump_faces(self, scheme_cache, monkeypatch):
        scheme = scheme_cache(45.0, 0.2 + 1e-10, 40)
        u_h = np.random.default_rng(28).uniform(-1, 1, scheme.mesh.n_cells)
        problem = scheme.problem
        exact_from = type(problem).exact_from
        calls = []

        # every evaluation of a snapshot ends in `exact_from`
        def counting_exact_from(self, t, chars):
            calls.append(np.size(chars.xi))
            return exact_from(self, t, chars)

        monkeypatch.setattr(type(problem), "exact_from", counting_exact_from)
        beta_seminorm(scheme, (Snapshot(problem, 0.2), -u_h))
        assert calls == [scheme.config.face_order * len(scheme.jump_faces)]


class TestTripleNorms:
    def test_zero_field(self, base_scheme):
        z = np.zeros(base_scheme.mesh.n_cells)
        assert l2_norm_squared(base_scheme, z) == 0.0
        assert beta_seminorm(base_scheme, z) == 0.0
        assert triple_star_norm(base_scheme, z) == 0.0

    def test_decomposition_and_ordering(self, base_scheme):
        rng = np.random.default_rng(23)
        v = rng.uniform(-1, 1, base_scheme.mesh.n_cells)
        l2 = math.sqrt(l2_norm_squared(base_scheme, v))
        semi = beta_seminorm(base_scheme, v)
        assert triple_star_norm(base_scheme, v) >= math.sqrt(l2**2 + semi**2)

    def test_star_extra_against_face_loop_oracle(self, base_scheme):
        mesh, t = base_scheme.mesh, base_scheme.table
        rng = np.random.default_rng(24)
        v = rng.uniform(-1, 1, mesh.n_cells)
        st = base_scheme.records
        alpha = dict(zip(st.cells.tolist(), st.alpha.tolist()))
        oracle = 0.0
        for c in range(mesh.n_cells):
            faces = mesh.edge_face[mesh.cell_ptr[c]:mesh.cell_ptr[c + 1]]
            cell_sum = sum(float(t.abs_flux[f]) * v[c] ** 2 for f in faces)
            oracle += alpha.get(c, 1.0) * cell_sum
        star2 = triple_star_norm(base_scheme, v) ** 2
        triple2 = l2_norm_squared(base_scheme, v) + beta_seminorm(base_scheme, v) ** 2
        assert star2 - triple2 == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_l2_matches_tensor_oracle(self, scheme_cache, t):
        # on an uncut square the closed form expands int (u + c)^2, on the
        # cut cells the square of the sum is taken pointwise; both agree
        # with a tensor rule on the squares at the cancellation of a
        # converged error and for rough fields
        scheme = scheme_cache(25.0, 0.2001, 32)
        u = Snapshot(scheme.problem, t)
        proj = l2_project(scheme.mesh, u, scheme.cellquad)
        noise = np.random.default_rng(29).uniform(-1, 1, scheme.mesh.n_cells)
        for d in (-proj, 1e-3 * noise - proj, noise):
            oracle = tensor_oracle(scheme, lambda p, c: np.square(u(p) + d[c]))
            assert l2_norm_squared(scheme, (u, d)) == pytest.approx(oracle.sum(), rel=1e-12, abs=0.0)
        block = np.stack([-proj, noise])
        np.testing.assert_array_equal(l2_norm_squared(scheme, (u, block)),
                                      [l2_norm_squared(scheme, (u, d)) for d in block])
        assert l2_norm_squared(scheme, u) == pytest.approx(
            tensor_oracle(scheme, lambda p, c: np.square(u(p))).sum(), rel=1e-13, abs=0.0)


def projection_error(scheme):
    """u(0, .) - Pi_h u(0, .) as a (smooth, discrete) pair."""
    u0 = scheme.problem.u0
    return u0, -l2_project(scheme.mesh, u0, scheme.cellquad)


class TestProjectionError:
    def test_linear_profile_closed_form(self):
        # linear f: per-cell error on a Cartesian cell is h^2/sqrt(12)
        mesh = build_mesh(RampDomain(gamma=math.radians(30.0), x0=1.0), 4)
        g = math.radians(30.0)
        f = lambda p: math.cos(g) * p[:, 0] + math.sin(g) * p[:, 1]
        # f is no snapshot: its cell average is taken by a test-side rule
        mean = integrate_cell(cell_vertices(mesh, 5), f) / mesh.areas[5]
        err2 = integrate_cell(cell_vertices(mesh, 5), lambda p: (f(p) - mean) ** 2)
        assert err2 == pytest.approx(mesh.h**4 / 12.0, rel=1e-12)
        bound2 = (math.sqrt(2.0) / math.pi * mesh.h) ** 2 * mesh.areas[5]  # |grad f| = 1
        assert err2 < bound2

    def test_constant_projects_exactly(self, base_scheme):
        # Pi_h is the L2-orthogonal projection onto piecewise constants,
        # which it leaves unchanged, so ||u - Pi u - d||^2 = ||u - Pi u||^2
        # + ||d||^2 for every discrete d: the projection and the norm
        # integrate u alike on every cell
        u0, minus_proj = projection_error(base_scheme)
        err2 = l2_norm_squared(base_scheme, (u0, minus_proj))
        assert err2 > 0.0  # the wave is not piecewise constant
        d = np.random.default_rng(30).uniform(-1e-2, 1e-2, base_scheme.mesh.n_cells)
        assert l2_norm_squared(base_scheme, (u0, minus_proj - d)) == pytest.approx(
            err2 + l2_norm_squared(base_scheme, d), rel=1e-14, abs=0.0)

    def test_l2_bound_on_wave(self, scheme_cache):
        for n in (16, 32):
            scheme = scheme_cache(25.0, 0.2001, n)
            l2 = math.sqrt(l2_norm_squared(scheme, projection_error(scheme)))
            grad_norm = math.sqrt(gradient_norm_squared(scheme, scheme.problem.u0))
            assert l2 <= (math.sqrt(2.0) / math.pi) * scheme.h * grad_norm


class TestErrorBreakdown:
    def test_projection_is_reported(self, base_scheme):
        u_h = l2_project(base_scheme.mesh, base_scheme.problem.u0, base_scheme.cellquad)
        eb = error_breakdown(base_scheme, 0.0, u_h)
        assert [f.name for f in dataclasses.fields(eb)] == ["l2", "beta_semi"]
        assert eb.l2 > 0.0 and eb.beta_semi > 0.0
        star = triple_star_norm(base_scheme, (base_scheme.problem.u0, -u_h))
        assert star >= math.sqrt(eb.l2**2 + eb.beta_semi**2)

    def test_one_exact_evaluation_per_point_set(self, base_scheme, monkeypatch):
        rng = np.random.default_rng(26)
        u_h = rng.uniform(-1, 1, base_scheme.mesh.n_cells)
        t = 0.3
        problem = base_scheme.problem
        exact_from = type(problem).exact_from
        calls = []

        # every evaluation of the exact solution ends in `exact_from`: on the
        # cut cells' points through `exact`, on the jump faces' points from
        # the scheme's characteristic coordinates
        def counting_exact_from(self, t, chars):
            calls.append(np.size(chars.xi))
            return exact_from(self, t, chars)

        monkeypatch.setattr(type(problem), "exact_from", counting_exact_from)
        eb = error_breakdown(base_scheme, t, u_h)
        # once on the cut cells' quadrature points, once on the jump faces' points
        jump_points = base_scheme.config.face_order * len(base_scheme.jump_faces)
        assert calls == [len(base_scheme.cellquad.points), jump_points]
        diff = (Snapshot(problem, t), -u_h)
        assert eb.l2 == math.sqrt(l2_norm_squared(base_scheme, diff))
        assert eb.beta_semi == beta_seminorm(base_scheme, diff)

    def test_interior_plain_jumps_are_discrete_jumps(self, base_scheme):
        # the smooth part cancels across interior faces, so the plain part of
        # the error seminorm equals the discrete jumps there
        mesh = base_scheme.mesh
        rng = np.random.default_rng(25)
        u_h = rng.uniform(-1, 1, mesh.n_cells)
        diff = (base_scheme.problem.u0, -u_h)
        means = face_side_means(base_scheme, diff)
        interior = mesh.f_right >= 0
        jump = means[interior, 0] - means[interior, 1]
        expect = u_h[mesh.f_right[interior]] - u_h[mesh.f_left[interior]]
        np.testing.assert_allclose(jump, expect, atol=1e-13)


def test_h1_norm_fd_fallback_matches_analytic(base_scheme):
    # the closed form and the cut cells' rule against central differences
    # of u, integrated by the tensor oracle
    u = Snapshot(base_scheme.problem, 0.25)
    step = 1e-6 * base_scheme.h

    def integrand(p, cells):
        gx = (u(p + [step, 0.0]) - u(p - [step, 0.0])) / (2 * step)
        gy = (u(p + [0.0, step]) - u(p - [0.0, step])) / (2 * step)
        return np.square(u(p)) + gx * gx + gy * gy

    fd = math.sqrt(tensor_oracle(base_scheme, integrand).sum())
    assert h1_norm(base_scheme, u) == pytest.approx(fd, rel=1e-7)
