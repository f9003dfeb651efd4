import math

import numpy as np
import pytest

from cutdg.discretization import (
    DoDScheme,
    InvalidConfig,
    SchemeConfig,
    assemble_dod_matrix,
    bilinear_a_dod,
    bilinear_J,
    bilinear_upwind,
    build_face_table,
    cfl_dt,
    face_side_means,
    rhs_inflow,
)
from cutdg.field import constant_velocity, make_ramp_problem
from cutdg.geometry import F_RAMP, RampDomain, build_mesh, identify_stabilized
from cutdg.norms import beta_seminorm


def cartesian_mesh(n=4):
    """Ramp starting at the bottom-right corner cuts nothing: a plain grid."""
    return build_mesh(RampDomain(gamma=math.radians(30.0), x0=1.0), n)


def brute_force_row_sums(mesh, table, st, v):
    """Independent evaluation of a_dod(v, 1_F) for every cell F.

    Plain python loop over faces with its own upwind/stabilization logic;
    shares nothing with the sparse-matrix assembly path.
    """
    eout = {f: k for k, f in enumerate(st.e_out.tolist())}
    out = np.zeros(mesh.n_cells)
    for f, (left, right) in enumerate(zip(mesh.f_left.tolist(), mesh.f_right.tolist())):
        flux = float(table.flux_in[f])
        if flux == 0.0:
            continue
        if f in eout:
            k = eout[f]
            value = st.alpha[k] * v[st.cells[k]] + (1.0 - st.alpha[k]) * v[st.E_in[k]]
        elif flux > 0.0:
            value = v[left]
        elif right < 0:
            value = 0.0  # inflow boundary: upwind extension by zero
        else:
            value = v[right]
        out[left] += value * flux
        if right >= 0:
            out[right] -= value * flux
    return out


class TestFaceTable:
    def test_flux_bounded_by_abs_flux(self, base_scheme):
        t = base_scheme.table
        assert np.all(np.abs(t.flux_in) <= t.abs_flux * (1 + 1e-14) + 1e-300)
        nonramp = base_scheme.mesh.f_kind != F_RAMP
        np.testing.assert_allclose(np.abs(t.flux_in[nonramp]), t.abs_flux[nonramp], rtol=1e-13)

    def test_per_cell_flux_balance(self, base_scheme):
        from cutdg.verify import check_incompressibility

        assert check_incompressibility(base_scheme).passed

    def test_ramp_faces_carry_no_flux(self, base_scheme):
        ramp = base_scheme.mesh.f_kind == F_RAMP
        assert ramp.sum() > 0
        assert np.all(base_scheme.table.abs_flux[ramp] == 0.0)
        assert np.all(base_scheme.table.upwind[ramp] == -2)

    def test_rejects_non_tangent_field(self):
        mesh = build_mesh(RampDomain(gamma=math.radians(30.0), x0=0.3), 8)
        with pytest.raises(ValueError, match="tangent"):
            build_face_table(mesh, constant_velocity([1.0, 0.0]))


class TestBetaWeightedMean:
    """The |beta.n|-weighted face means of `face_side_means`."""

    def test_constant_function(self, base_scheme):
        mesh, table = base_scheme.mesh, base_scheme.table
        flux = table.abs_flux > 0
        m = face_side_means(mesh, table, lambda p: np.full(len(p), 3.25))
        np.testing.assert_allclose(m[flux], 3.25, rtol=1e-14)

    def test_discrete_trace_is_cell_value(self, base_scheme):
        mesh, table = base_scheme.mesh, base_scheme.table
        rng = np.random.default_rng(0)
        v = rng.uniform(-1, 1, mesh.n_cells)
        m = face_side_means(mesh, table, v)
        has_r = mesh.f_right >= 0
        np.testing.assert_array_equal(m[:, 0], v[mesh.f_left])
        np.testing.assert_array_equal(m[has_r, 1], v[mesh.f_right[has_r]])
        np.testing.assert_array_equal(m[~has_r, 1], 0.0)

    def test_coordinate_on_vertical_face(self, base_scheme):
        mesh, table = base_scheme.mesh, base_scheme.table
        vertical = np.nonzero(
            (np.abs(mesh.f_normal[:, 1]) < 1e-14) & (table.abs_flux > 0)
        )[0]
        m = face_side_means(mesh, table, lambda p: p[:, 0])
        a = mesh.f_endpoints[vertical, 0, 0]
        np.testing.assert_allclose(m[vertical, 0], a, rtol=1e-13)
        np.testing.assert_allclose(m[vertical, 1], a, rtol=1e-13)

    def test_zero_flux_face_gets_mean_zero(self, base_scheme):
        mesh, table = base_scheme.mesh, base_scheme.table
        zero = table.abs_flux == 0.0
        assert np.any(mesh.f_kind[zero] == F_RAMP)
        m = face_side_means(mesh, table, lambda p: p[:, 0] + 1.0)
        np.testing.assert_array_equal(m[zero], 0.0)


class TestOperator:
    def test_constant_field_annihilated_in_interior(self, base_scheme):
        # no boundary faces: divergence theorem makes the row sum vanish
        mesh = base_scheme.mesh
        v = np.full(mesh.n_cells, 2.5)
        av = base_scheme.apply(v)
        cell = np.repeat(np.arange(mesh.n_cells), np.diff(mesh.cell_ptr))
        on_boundary = np.bincount(
            cell, weights=mesh.f_right[mesh.edge_face] < 0, minlength=mesh.n_cells
        )
        interior = np.nonzero(on_boundary == 0)[0]
        assert np.abs(av[interior]).max() < 1e-12

    def test_reduces_to_1d_upwind_on_cartesian_strip(self):
        mesh = cartesian_mesh(4)
        table = build_face_table(mesh, constant_velocity([1.0, 0.0]))
        st = identify_stabilized(mesh, table, 1.0)
        assert len(st) == 0
        A = assemble_dod_matrix(mesh, table, st)
        rng = np.random.default_rng(1)
        v = rng.uniform(-1, 1, mesh.n_cells)
        av = A @ v
        h = mesh.h
        by_idx = {tuple(b): c for c, b in enumerate(mesh.background.tolist())}
        for (i, j), cid in by_idx.items():
            expected = (v[cid] - (v[by_idx[(i - 1, j)]] if i > 0 else 0.0)) / h
            assert av[cid] == pytest.approx(expected, abs=1e-12)

    def test_duality_with_brute_force_assembler(self, scheme_cache):
        scheme = scheme_cache(25.0, 0.2001, 16)
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            v = rng.uniform(-1, 1, scheme.mesh.n_cells)
            lhs = scheme.mesh.areas * scheme.apply(v)
            rhs = brute_force_row_sums(scheme.mesh, scheme.table, scheme.records, v)
            scale = np.abs(rhs).max()
            worst = max(worst, np.abs(lhs - rhs).max() / scale)
        assert worst < 1e-12

    def test_duality_against_bilinear_indicators(self, base_scheme):
        mesh = base_scheme.mesh
        rng = np.random.default_rng(7)
        v = rng.uniform(-1, 1, mesh.n_cells)
        av = base_scheme.apply(v)
        for F in rng.choice(mesh.n_cells, size=40, replace=False):
            w = np.zeros(mesh.n_cells)
            w[F] = 1.0
            aF = bilinear_a_dod(mesh, base_scheme.table, base_scheme.records, v, w)
            assert mesh.areas[F] * av[F] == pytest.approx(aF, rel=1e-12, abs=1e-15)


class TestBilinearForms:
    def test_zero_test_function(self, base_scheme):
        v = np.ones(base_scheme.mesh.n_cells)
        w = np.zeros(base_scheme.mesh.n_cells)
        assert bilinear_a_dod(base_scheme.mesh, base_scheme.table, base_scheme.records, v, w) == 0.0

    def test_dod_equals_upwind_plus_stabilization(self, base_scheme):
        mesh, table, stab = base_scheme.mesh, base_scheme.table, base_scheme.records
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = rng.uniform(-1, 1, mesh.n_cells)
            w = rng.uniform(-1, 1, mesh.n_cells)
            a = bilinear_a_dod(mesh, table, stab, v, w)
            split = bilinear_upwind(mesh, table, v, w) + bilinear_J(mesh, table, stab, v, w)
            assert a == pytest.approx(split, rel=1e-12, abs=1e-13)
        # also for smooth + discrete arguments
        u = base_scheme.problem.u0
        w = rng.uniform(-1, 1, mesh.n_cells)
        v = (u, rng.uniform(-1, 1, mesh.n_cells))
        a = bilinear_a_dod(mesh, table, stab, v, w)
        split = bilinear_upwind(mesh, table, v, w) + bilinear_J(mesh, table, stab, v, w)
        assert a == pytest.approx(split, rel=1e-12)

    def test_dissipation_identity(self, base_scheme):
        rng = np.random.default_rng(12)
        for _ in range(20):
            v = rng.uniform(-1, 1, base_scheme.mesh.n_cells)
            a = bilinear_a_dod(base_scheme.mesh, base_scheme.table, base_scheme.records, v, v)
            assert a == pytest.approx(0.5 * beta_seminorm(base_scheme, v) ** 2, rel=1e-12)

    def test_stabilization_vanishes_for_constants(self, base_scheme):
        v = np.full(base_scheme.mesh.n_cells, 4.0)
        w = np.random.default_rng(13).uniform(-1, 1, base_scheme.mesh.n_cells)
        assert bilinear_J(base_scheme.mesh, base_scheme.table, base_scheme.records, v, w) == 0.0

    def test_stabilization_vanishes_without_small_cells(self, scheme_cache):
        # alpha = 1 everywhere once tau is tiny: eta = 1 - alpha = 0
        scheme = scheme_cache(25.0, 0.2001, 16, tau=1e-9)
        rng = np.random.default_rng(14)
        v = rng.uniform(-1, 1, scheme.mesh.n_cells)
        w = rng.uniform(-1, 1, scheme.mesh.n_cells)
        assert np.all(scheme.records.alpha == 1.0)
        assert bilinear_J(scheme.mesh, scheme.table, scheme.records, v, w) == 0.0


class TestRhsAndStep:
    def test_zero_data_gives_zero(self, base_scheme):
        g = lambda t, p: np.zeros(np.asarray(p).shape[:-1])
        np.testing.assert_array_equal(
            rhs_inflow(base_scheme.mesh, base_scheme.table, g, 0.0),
            np.zeros(base_scheme.mesh.n_cells),
        )

    def test_unit_inflow_face_contribution(self):
        # beta.n = -1 on the left boundary, g = 1, |e| = h, |F| = h^2 -> 1/h
        mesh = cartesian_mesh(4)
        table = build_face_table(mesh, constant_velocity([1.0, 0.0]))
        g = lambda t, p: np.ones(np.asarray(p).shape[:-1])
        r = rhs_inflow(mesh, table, g, 0.0)
        left_col = mesh.background[:, 0] == 0
        rest = ~left_col
        np.testing.assert_allclose(r[left_col], 1.0 / mesh.h, rtol=1e-14)
        np.testing.assert_array_equal(r[rest], 0.0)

    def test_constants_are_a_fixed_point(self, base_scheme):
        c = 0.7
        u = np.full(base_scheme.mesh.n_cells, c)
        g = lambda t, p: np.full(np.asarray(p).shape[:-1], c)
        r = rhs_inflow(base_scheme.mesh, base_scheme.table, g, 0.0)
        dt = base_scheme.cfl_dt()
        u_next = u - dt * base_scheme.apply(u) + dt * r
        assert np.abs(u_next - u).max() < 1e-13

    def test_l2_contraction_without_inflow(self, scheme_cache):
        problem = make_ramp_problem(25.0, 0.2001).with_zero_inflow()
        scheme = DoDScheme(problem, SchemeConfig(epsilon=1 / 14), 32)
        dt = scheme.cfl_dt()
        u = scheme.project_initial()
        prev = scheme.l2_norm(u)
        t = 0.0
        for _ in range(60):
            u = scheme.step(u, t, dt)
            t += dt
            cur = scheme.l2_norm(u)
            assert cur <= prev + 1e-13
            prev = cur

    def test_mass_balance(self, base_scheme):
        # d/dt sum |E| u_E equals inflow-data flux minus outflow flux
        mesh, table = base_scheme.mesh, base_scheme.table
        rng = np.random.default_rng(15)
        u = rng.uniform(-1, 1, mesh.n_cells)
        t = 0.1
        r = rhs_inflow(mesh, table, base_scheme.problem.g, t)
        dmass = float(np.dot(mesh.areas, -base_scheme.apply(u) + r))
        boundary = np.nonzero(mesh.f_right < 0)[0]
        flux_out = sum(
            float(table.flux_in[f]) * u[mesh.f_left[f]]
            for f in boundary
            if table.flux_in[f] > 0
        )
        gv = base_scheme.problem.g
        flux_in = 0.0
        for f in boundary:
            if table.flux_in[f] < 0:
                vals = gv(t, table.qpoints[f])
                flux_in += float((table.qweights[f] * table.bn[f] * vals).sum())
        assert dmass == pytest.approx(-flux_out - flux_in, rel=1e-12, abs=1e-13)


class TestCfl:
    def test_stability_constant(self):
        mesh = cartesian_mesh(4)
        field = constant_velocity([1.0, 0.0])
        dt = cfl_dt(mesh, field, SchemeConfig(tau=1.0, epsilon=1.0 / 14.0))
        assert dt == pytest.approx(mesh.h / 5.0, rel=1e-14)

    def test_epsilon_to_zero_limit(self):
        mesh = cartesian_mesh(4)
        field = constant_velocity([1.0, 0.0])
        dt = cfl_dt(mesh, field, SchemeConfig(tau=1.0, epsilon=1e-9))
        assert dt == pytest.approx(mesh.h / 4.0, rel=1e-6)

    def test_manual_kappa_override(self, base_scheme):
        binf = base_scheme.velocity.inf_norm
        # the override leaves epsilon unchecked and unused
        config = SchemeConfig(epsilon=0.7, cfl_kappa=0.5 / binf)
        dt = cfl_dt(base_scheme.mesh, base_scheme.velocity, config)
        assert dt == pytest.approx(base_scheme.h / (2.0 * binf), rel=1e-14)

    @pytest.mark.parametrize("name,value", [
        *[("tau", v) for v in (0.0, -1.0, math.nan, math.inf)],
        *[("cfl_kappa", v) for v in (0.0, -1.0, math.nan, math.inf)],
        *[("epsilon", v) for v in (0.0, 0.5, math.nan)],
    ])
    def test_invalid_config_raises(self, name, value):
        # cfl_kappa defaults to None, so epsilon is checked
        with pytest.raises(InvalidConfig, match=name):
            SchemeConfig(**{name: value})


class TestSolve:
    def test_t_zero_returns_projection(self):
        problem = make_ramp_problem(25.0, 0.2001, t_final=0.0)
        scheme = DoDScheme(problem, SchemeConfig(), 8)
        result = scheme.solve()
        np.testing.assert_array_equal(result.u, scheme.project_initial())
        assert result.steps == 0

    def test_final_step_lands_on_t(self):
        problem = make_ramp_problem(25.0, 0.2001, t_final=0.25)
        scheme = DoDScheme(problem, SchemeConfig(), 8)
        result = scheme.solve()
        assert result.t_final == 0.25
        assert result.steps == math.ceil(0.25 / result.dt_nominal - 1e-12)

    def test_observer_sees_every_state(self):
        t_final = 0.05
        problem = make_ramp_problem(25.0, 0.2001, t_final=t_final)
        scheme = DoDScheme(problem, SchemeConfig(), 8)
        seen = []
        result = scheme.solve(observer=lambda k, t, u, dt: seen.append((k, t, u.copy(), dt)))
        ks, ts, _, dts = zip(*seen)
        assert result.steps >= 3
        assert list(ks) == list(range(result.steps + 1))
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert ts[0] == 0.0 and ts[-1] == t_final
        assert dts[-1] == 0.0
        assert math.fsum(dts) == pytest.approx(t_final, rel=1e-14)
        np.testing.assert_array_equal(seen[0][2], scheme.project_initial())
        np.testing.assert_array_equal(seen[-1][2], result.u)
        # each observed state is the step from the one before it
        for (k, t, u, dt), nxt in zip(seen, seen[1:]):
            np.testing.assert_array_equal(scheme.step(u, t, dt), nxt[2])

    def test_observer_at_t_zero_sees_initial_state_only(self):
        problem = make_ramp_problem(25.0, 0.2001, t_final=0.0)
        scheme = DoDScheme(problem, SchemeConfig(), 8)
        seen = []
        result = scheme.solve(observer=lambda k, t, u, dt: seen.append((k, t, u, dt)))
        assert [(k, t, dt) for k, t, _, dt in seen] == [(0, 0.0, 0.0)]
        np.testing.assert_array_equal(seen[0][2], result.u)

    def test_dt_above_bound_warns(self):
        problem = make_ramp_problem(25.0, 0.2001, t_final=0.05)
        scheme = DoDScheme(problem, SchemeConfig(), 8)
        with pytest.warns(UserWarning, match="exceeds the configured bound"):
            scheme.solve(dt=2.0 * scheme.cfl_dt())
