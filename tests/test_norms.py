import math

import numpy as np
import pytest

from cutdg.discretization import face_side_means
from cutdg.geometry import RampDomain, build_mesh
from cutdg.norms import (
    beta_seminorm,
    beta_seminorm_parts,
    error_breakdown,
    h1_norm,
    l2_norm_squared,
    l2_project,
    projection_error_norms,
    triple_norm,
    triple_star_norm,
)
from cutdg.quadrature import TriangleRule, integrate_cell


class TestL2Project:
    def test_constant(self, base_scheme):
        proj = l2_project(base_scheme.mesh, lambda p: np.full(len(p), 2.5), base_scheme.cellquad)
        np.testing.assert_allclose(proj, 2.5, rtol=1e-13)

    def test_coordinate_on_unit_cell(self):
        mesh = build_mesh(RampDomain(gamma=math.radians(30.0), x0=1.0), 4)
        proj = l2_project(mesh, lambda p: p[:, 0])
        for c, (i, _) in enumerate(mesh.background.tolist()):
            assert proj[c] == pytest.approx((i + 0.5) * mesh.h, rel=1e-13)

    def test_wave_against_high_degree_oracle(self, scheme_cache):
        scheme = scheme_cache(25.0, 0.2001, 32)
        proj = l2_project(scheme.mesh, scheme.problem.u0, scheme.cellquad)
        oracle_rule = TriangleRule.of_degree(12)
        mesh = scheme.mesh
        for c in range(0, mesh.n_cells, max(1, mesh.n_cells // 40)):
            oracle = integrate_cell(mesh.cell_vertices(c), scheme.problem.u0, oracle_rule)
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
        means = face_side_means(base_scheme.mesh, base_scheme.table, base_scheme.problem.u0)
        interior = base_scheme.mesh.f_right >= 0
        assert np.abs(means[interior, 0] - means[interior, 1]).max() < 1e-14

    def test_matches_dissipation(self, base_scheme):
        from cutdg.discretization import bilinear_a_dod

        rng = np.random.default_rng(21)
        v = rng.uniform(-1, 1, base_scheme.mesh.n_cells)
        a = bilinear_a_dod(base_scheme.mesh, base_scheme.table, base_scheme.stab, v, v)
        assert beta_seminorm(base_scheme, v) ** 2 == pytest.approx(2.0 * a, rel=1e-12)

    def test_stabilized_branch_hand_oracle(self, scheme_cache):
        # indicator fields on a stabilized cell and its neighbors exercise
        # every branch; compare against the three-face sum written out by hand
        scheme = scheme_cache(25.0, 0.2001, 16)
        assert scheme.records, "mesh is expected to contain stabilized cells"
        r = scheme.records[0]
        t = scheme.table
        rng = np.random.default_rng(22)
        c_in, c_e, c_out = rng.uniform(-1, 1, 3)
        v = np.zeros(scheme.mesh.n_cells)
        v[r.E_in], v[r.cell], v[r.E_out] = c_in, c_e, c_out
        _, capacity, extended = beta_seminorm_parts(scheme, v)
        by_hand_cap = r.alpha * (
            t.abs_flux[r.e_in] * (c_in - c_e) ** 2 + t.abs_flux[r.e_out] * (c_e - c_out) ** 2
        )
        by_hand_ext = (1.0 - r.alpha) * t.abs_flux[r.e_out] * (c_out - c_in) ** 2
        assert capacity == pytest.approx(by_hand_cap, rel=1e-13)
        assert extended == pytest.approx(by_hand_ext, rel=1e-13)


class TestTripleNorms:
    def test_zero_field(self, base_scheme):
        z = np.zeros(base_scheme.mesh.n_cells)
        assert triple_norm(base_scheme, z) == 0.0
        assert triple_star_norm(base_scheme, z) == 0.0

    def test_decomposition_and_ordering(self, base_scheme):
        rng = np.random.default_rng(23)
        v = rng.uniform(-1, 1, base_scheme.mesh.n_cells)
        l2 = math.sqrt(l2_norm_squared(base_scheme, v))
        semi = beta_seminorm(base_scheme, v)
        triple = triple_norm(base_scheme, v)
        assert triple**2 == pytest.approx(l2**2 + semi**2, rel=1e-12)
        assert triple_star_norm(base_scheme, v) >= triple

    def test_star_extra_against_face_loop_oracle(self, base_scheme):
        mesh, t = base_scheme.mesh, base_scheme.table
        rng = np.random.default_rng(24)
        v = rng.uniform(-1, 1, mesh.n_cells)
        alpha = {r.cell: r.alpha for r in base_scheme.records}
        oracle = 0.0
        for c in range(mesh.n_cells):
            faces = mesh.edge_face[mesh.cell_ptr[c]:mesh.cell_ptr[c + 1]]
            cell_sum = sum(float(t.abs_flux[f]) * v[c] ** 2 for f in faces)
            oracle += alpha.get(c, 1.0) * cell_sum
        star2 = triple_star_norm(base_scheme, v) ** 2
        triple2 = triple_norm(base_scheme, v) ** 2
        assert star2 - triple2 == pytest.approx(oracle, rel=1e-12)

    def test_constant_difference_vanishes(self, base_scheme):
        c = 3.0
        diff = (lambda p: np.full(len(p), c), -np.full(base_scheme.mesh.n_cells, c))
        assert triple_star_norm(base_scheme, diff) < 1e-12


class TestProjectionError:
    def test_linear_profile_closed_form(self):
        # linear f: per-cell error on a Cartesian cell is h^2/sqrt(12)
        mesh = build_mesh(RampDomain(gamma=math.radians(30.0), x0=1.0), 4)
        g = math.radians(30.0)
        f = lambda p: math.cos(g) * p[:, 0] + math.sin(g) * p[:, 1]
        proj = l2_project(mesh, f)
        err2 = integrate_cell(mesh.cell_vertices(5), lambda p: (f(p) - proj[5]) ** 2)
        assert err2 == pytest.approx(mesh.h**4 / 12.0, rel=1e-12)
        bound2 = (math.sqrt(2.0) / math.pi * mesh.h) ** 2 * mesh.areas[5]  # |grad f| = 1
        assert err2 < bound2

    def test_constant_projects_exactly(self, base_scheme):
        proj = l2_project(base_scheme.mesh, lambda p: np.full(len(p), 1.3), base_scheme.cellquad)
        eb = projection_error_norms(base_scheme, t=0.0)
        assert np.abs(proj - 1.3).max() < 1e-13
        assert eb.l2 > 0.0  # the wave is not piecewise constant

    def test_l2_bound_on_wave(self, scheme_cache):
        for n in (16, 32):
            scheme = scheme_cache(25.0, 0.2001, n)
            eb = projection_error_norms(scheme, t=0.0)
            grad_norm = math.sqrt(
                scheme.cellquad.integrate_total(
                    lambda p: (scheme.problem.u0_gradient(p) ** 2).sum(axis=-1)
                )
            )
            assert eb.l2 <= (math.sqrt(2.0) / math.pi) * scheme.h * grad_norm


class TestErrorBreakdown:
    def test_projection_is_reported(self, base_scheme):
        u_h = l2_project(base_scheme.mesh, base_scheme.problem.u0, base_scheme.cellquad)
        eb = error_breakdown(base_scheme, 0.0, u_h)
        assert eb.triple**2 == pytest.approx(eb.l2**2 + eb.beta_semi**2, rel=1e-12)
        assert eb.triple_star >= eb.triple
        assert set(eb.components) == {"plain", "capacity", "extended"}

    def test_interior_plain_jumps_are_discrete_jumps(self, base_scheme):
        # the smooth part cancels across interior faces, so the plain part of
        # the error seminorm equals the discrete jumps there
        mesh, t = base_scheme.mesh, base_scheme.table
        rng = np.random.default_rng(25)
        u_h = rng.uniform(-1, 1, mesh.n_cells)
        diff = (base_scheme.problem.u0, -u_h)
        means = face_side_means(mesh, t, diff)
        interior = mesh.f_right >= 0
        jump = means[interior, 0] - means[interior, 1]
        expect = u_h[mesh.f_right[interior]] - u_h[mesh.f_left[interior]]
        np.testing.assert_allclose(jump, expect, atol=1e-13)


def test_h1_norm_fd_fallback_matches_analytic(base_scheme):
    u = lambda p: base_scheme.problem.exact(0.25, p)
    grad = lambda p: base_scheme.problem.exact_gradient(0.25, p)
    exact = h1_norm(base_scheme, u, grad=grad)
    fd = h1_norm(base_scheme, u)
    assert fd == pytest.approx(exact, rel=1e-7)
