import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from cutdg import discretization
from cutdg.discretization import (
    DoDScheme,
    InvalidConfig,
    SchemeConfig,
    assemble_dod_matrix,
    bilinear_a_dod,
    bilinear_J,
    build_face_table,
    build_inflow,
    estimate_cb,
    face_side_means,
    smooth_face_means,
    _test_jump,
)
from cutdg.field import VelocityField, make_ramp_problem
from cutdg.geometry import F_RAMP, RampDomain, build_mesh, identify_stabilized
from cutdg.norms import beta_seminorm
from cutdg.quadrature import SegmentRule
from polygon_oracle import face_table_reference
from velocity_fields import constant_velocity


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


def rhs_inflow_oracle(mesh, table, g, t):
    """Inflow data per face, scattered with np.add.at and divided by |F|.

    The rule `build_inflow` replaced, kept as the reference.
    """
    out = np.zeros(mesh.n_cells)
    inflow = np.nonzero((mesh.f_right < 0) & (table.flux_in < 0.0))[0]
    pts, wbn = table.quadrature(inflow)
    gv = np.asarray(g(t, pts.reshape(-1, 2)), dtype=float).reshape(pts.shape[:2])
    contrib = -(wbn * gv).sum(axis=1)
    np.add.at(out, mesh.f_left[inflow], contrib)
    return out / mesh.areas


def inflow_on_boundary(mesh, table):
    """`build_inflow` from the quadrature of every boundary face."""
    faces = np.flatnonzero(mesh.f_right < 0)
    return build_inflow(mesh, table, faces, *table.quadrature(faces))


def bilinear_upwind(mesh, table, v, w_h) -> float:
    """Unstabilized upwind form in centered-plus-penalty shape.

    Interior faces: int {v} beta.[w] + 1/2 |beta.n| [v].[w]; boundary faces:
    int (beta.n)^+ v w.  Independent algebra from `bilinear_a_dod`, used to
    cross-check a_dod = upwind + J.
    """
    means = face_side_means(mesh, table, v)
    wjump = _test_jump(mesh, w_h)
    interior = mesh.f_right >= 0
    avg = 0.5 * (means[:, 0] + means[:, 1])
    vjump = means[:, 0] - means[:, 1]
    total = float(
        np.dot(
            (table.flux_in * avg + 0.5 * table.abs_flux * vjump)[interior],
            wjump[interior],
        )
    )
    bdy = ~interior
    pos_flux = np.maximum(table.flux_in[bdy], 0.0)
    w = np.asarray(w_h, dtype=float)
    total += float(np.dot(pos_flux * means[bdy, 0], w[mesh.f_left[bdy]]))
    return total


class TestFaceTable:
    def test_flux_bounded_by_abs_flux(self, base_scheme):
        t = base_scheme.table
        assert np.all(np.abs(t.flux_in) <= t.abs_flux * (1 + 1e-14) + 1e-300)
        nonramp = base_scheme.mesh.f_kind != F_RAMP
        np.testing.assert_allclose(np.abs(t.flux_in[nonramp]), t.abs_flux[nonramp], rtol=1e-13)

    def test_table_is_frozen(self, base_scheme):
        with pytest.raises(dataclasses.FrozenInstanceError):
            base_scheme.table.flux_in = np.zeros(base_scheme.mesh.n_faces)

    def test_per_cell_flux_balance(self, base_scheme):
        from cutdg.verify import check_incompressibility

        assert check_incompressibility(base_scheme).passed

    def test_ramp_faces_carry_no_flux(self, base_scheme):
        ramp = base_scheme.mesh.f_kind == F_RAMP
        assert ramp.sum() > 0
        assert np.all(base_scheme.table.abs_flux[ramp] == 0.0)
        assert np.all(base_scheme.table.upwind[ramp] == -2)

    def test_flux_matches_gauss_integral(self, scheme_cache):
        # psi(b) - psi(a) against an independent 8-point Gauss integral of beta.n
        scheme = scheme_cache(25.0, 0.2001, 64)
        mesh = scheme.mesh
        rule = SegmentRule.gauss(8)
        a, b = mesh.f_endpoints[:, :1], mesh.f_endpoints[:, 1:]
        pts = a + rule.points[None, :, None] * (b - a)
        bn = np.einsum("fqd,fd->fq", scheme.velocity.evaluate(pts), mesh.f_normal)
        integral = (bn * rule.weights).sum(axis=1) * mesh.f_length
        nonramp = mesh.f_kind != F_RAMP
        np.testing.assert_allclose(scheme.table.flux_in[nonramp], integral[nonramp], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("case", ["25deg-n64", "sliver45-n40", "grid-offset-5deg-n32", "leftward-n5"])
    @pytest.mark.parametrize("order", [4, 9])
    def test_points_and_weights_match_broadcast_reference(self, case, order):
        # 9 points per face: numpy sums rows of 8 or more pairwise, not left
        # to right; a leftward field has beta.n == -0.0 on horizontal faces
        if case == "leftward-n5":
            mesh, velocity = cartesian_mesh(5), constant_velocity([-1.0, 0.0])
        else:
            gamma, x0, n = {"25deg-n64": (25.0, 0.2001, 64), "sliver45-n40": (45.0, 0.2 + 1e-10, 40),
                            "grid-offset-5deg-n32": (5.0, 0.25 + 1e-15, 32)}[case]
            problem = make_ramp_problem(gamma, x0)
            mesh, velocity = build_mesh(problem.ramp, n), problem.velocity
        rule = SegmentRule.gauss(order)
        table = build_face_table(mesh, velocity, rule)
        want = face_table_reference(mesh, velocity, rule, table.flux_in)
        for field, a, b in zip(("qpoints", "wbn"), table.all_faces, want, strict=True):
            assert (a.dtype, a.shape, a.flags.c_contiguous) == (b.dtype, b.shape, True), field
            assert a.tobytes() == b.tobytes(), field
        # any subset of the faces, in any order, takes the matching rows
        rng = np.random.default_rng(order)
        for size in (1, 7, mesh.n_faces // 3):
            faces = rng.choice(mesh.n_faces, size, replace=False)
            for field, a, b in zip(("qpoints", "wbn"), table.quadrature(faces), want, strict=True):
                assert a.flags.c_contiguous, field
                assert a.tobytes() == np.ascontiguousarray(b[faces]).tobytes(), field

    def test_all_face_quadrature_is_built_on_request_once(self):
        # a scheme reads face points on its jump faces only
        scheme = DoDScheme(make_ramp_problem(25.0, 0.2001), SchemeConfig(), 16)
        assert "all_faces" not in vars(scheme.table)
        assert scheme.table.all_faces is scheme.table.all_faces

    def test_rejects_non_tangent_field(self):
        mesh = build_mesh(RampDomain(gamma=math.radians(30.0), x0=0.3), 8)
        with pytest.raises(ValueError, match="tangent"):
            build_face_table(mesh, constant_velocity([1.0, 0.0]), SegmentRule.gauss())

    @staticmethod
    def shear(y0=0.5):
        # beta = (y - y0, 0) turns on the vertical faces across y = y0;
        # at y0 = 1/2 the net flux psi(b) - psi(a) is zero there
        return VelocityField(
            evaluate=lambda p: np.stack([p[..., 1] - y0, np.zeros_like(p[..., 1])], axis=-1),
            stream=lambda p: 0.5 * (p[..., 1] - y0) ** 2,
            inf_norm=max(y0, 1.0 - y0),
            w1inf_norm=1.0,
        )

    def test_rejects_sign_change_along_a_face(self):
        # at y0 = 0.41 every Gauss point of the faces of row 0.4 < y < 0.6
        # lies above y0: only the face ends see the sign change
        for y0 in (0.5, 0.41):
            with pytest.raises(ValueError, match="beta.n changes sign on 6 face"):
                build_face_table(cartesian_mesh(5), self.shear(y0), SegmentRule.gauss())

    def test_sign_check_blocks_do_not_change_the_table(self, monkeypatch):
        problem = make_ramp_problem(45.0, 0.2 + 1e-10)
        mesh, rule = build_mesh(problem.ramp, 40), SegmentRule.gauss()
        want = build_face_table(mesh, problem.velocity, rule)
        with pytest.raises(ValueError) as whole:
            build_face_table(cartesian_mesh(5), self.shear(), rule)
        monkeypatch.setattr(discretization, "_SIGN_BLOCK", 3)
        got = build_face_table(mesh, problem.velocity, rule)
        for name in ("flux_in", "abs_flux", "upwind"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        with pytest.raises(ValueError) as blocked:
            build_face_table(cartesian_mesh(5), self.shear(), rule)
        assert str(blocked.value) == str(whole.value)
        assert "beta.n changes sign on 6 face(s)" in str(whole.value)


class TestBetaWeightedMean:
    """The |beta.n|-weighted face means of `face_side_means` and, for any
    smooth function, `smooth_face_means`."""

    def test_constant_function(self, base_scheme):
        table = base_scheme.table
        flux = table.abs_flux > 0
        m = smooth_face_means(table, lambda p: np.full(len(p), 3.25))
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
        m = smooth_face_means(table, lambda p: p[:, 0])
        a = mesh.f_endpoints[vertical, 0, 0]
        np.testing.assert_allclose(m[vertical], a, rtol=1e-13)
        # a snapshot's trace is single-valued: both sides carry its mean
        both = face_side_means(mesh, table, base_scheme.problem.u0)
        np.testing.assert_array_equal(both[:, 0], both[:, 1])
        np.testing.assert_array_equal(both[:, 0], smooth_face_means(table, base_scheme.problem.u0))

    def test_zero_flux_face_gets_mean_zero(self, base_scheme):
        mesh, table = base_scheme.mesh, base_scheme.table
        zero = table.abs_flux == 0.0
        assert np.any(mesh.f_kind[zero] == F_RAMP)
        m = smooth_face_means(table, lambda p: p[:, 0] + 1.0)
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
        table = build_face_table(mesh, constant_velocity([1.0, 0.0]), SegmentRule.gauss())
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

    @pytest.mark.parametrize("geometry", [(25.0, 0.2001, 16), (45.0, 0.2 + 1e-10, 20)])
    def test_stabilization_matches_all_faces_reference(self, scheme_cache, geometry):
        # bilinear_J reads the legs only; the same sum from every face's means
        scheme = scheme_cache(*geometry)
        mesh, table, stab = scheme.mesh, scheme.table, scheme.records

        def all_faces_J(v, w):
            # np.take keeps each row of a block contiguous, as bilinear_J does
            means = face_side_means(mesh, table, v)
            up = np.where(table.flux_in > 0.0, means[..., 0], means[..., 1])
            up[..., table.upwind < 0] = 0.0
            right = np.where(mesh.f_right >= 0, np.take(w, mesh.f_right, axis=-1), 0.0)
            wjump = np.take(np.take(w, mesh.f_left, axis=-1) - right, stab.e_out, axis=-1)
            eta = 1.0 - stab.alpha
            jump = np.take(up, stab.e_in, axis=-1) - np.take(up, stab.e_out, axis=-1)
            return (eta * jump * (table.flux_in[stab.e_out] * wjump)).sum(axis=-1)

        assert len(stab) > 0
        rng = np.random.default_rng(15)
        u0 = scheme.problem.u0
        disc = rng.uniform(-1, 1, (3, mesh.n_cells))
        for v in (u0, disc[0], (u0, disc[1]), (u0, disc)):
            for w in (rng.uniform(-1, 1, mesh.n_cells), rng.uniform(-1, 1, (3, mesh.n_cells))):
                got = bilinear_J(mesh, table, stab, v, w)
                np.testing.assert_array_equal(got, all_faces_J(v, w))
                assert np.all(got != 0.0)

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
        cells, points, matrix = inflow_on_boundary(base_scheme.mesh, base_scheme.table)
        r = np.zeros(base_scheme.mesh.n_cells)
        r[cells] = matrix @ g(0.0, points)
        np.testing.assert_array_equal(r, np.zeros(base_scheme.mesh.n_cells))

    def test_unit_inflow_face_contribution(self):
        # beta.n = -1 on the left boundary, g = 1, |e| = h, |F| = h^2 -> 1/h
        mesh = cartesian_mesh(4)
        table = build_face_table(mesh, constant_velocity([1.0, 0.0]), SegmentRule.gauss())
        g = lambda t, p: np.ones(np.asarray(p).shape[:-1])
        cells, points, matrix = inflow_on_boundary(mesh, table)
        r = np.zeros(mesh.n_cells)
        r[cells] = matrix @ g(0.0, points)
        left_col = mesh.background[:, 0] == 0
        rest = ~left_col
        np.testing.assert_allclose(r[left_col], 1.0 / mesh.h, rtol=1e-14)
        np.testing.assert_array_equal(r[rest], 0.0)

    @pytest.mark.parametrize("case", ["ramp25", "sliver45", "cartesian"])
    def test_inflow_operator_matches_face_rule(self, case, scheme_cache):
        if case == "cartesian":
            mesh = cartesian_mesh(8)
            table = build_face_table(mesh, constant_velocity([1.0, 0.5]), SegmentRule.gauss())
        else:
            scheme = (scheme_cache(25.0, 0.2001, 16) if case == "ramp25"
                      else scheme_cache(45.0, 0.2 + 1e-10, 20))
            mesh, table = scheme.mesh, scheme.table
        inflow_faces = (mesh.f_right < 0) & (table.flux_in < 0.0)
        # a corner cell has two inflow faces; a repeated-index += would drop one
        assert np.bincount(mesh.f_left[inflow_faces]).max() == 2
        g = lambda t, p: 2.0 + np.cos(5.0 * p[:, 0] - 3.0 * p[:, 1] + t)
        cells, points, matrix = inflow_on_boundary(mesh, table)
        expected = rhs_inflow_oracle(mesh, table, g, 0.3)
        np.testing.assert_array_equal(cells, np.nonzero(expected)[0])
        got = np.zeros(mesh.n_cells)
        got[cells] = matrix @ g(0.3, points)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_constants_are_a_fixed_point(self, constant_inflow_scheme):
        scheme = constant_inflow_scheme
        u = np.full(scheme.mesh.n_cells, scheme.problem.c)
        u_next = scheme.step(u, 0.0, scheme.dt)
        assert np.abs(u_next - u).max() < 1e-13

    def test_step_matches_unfused_update(self, base_scheme):
        # the scheme's own dt multiplies by step_S; any other step, such as
        # a shortened last one, builds I - dt A afresh
        scheme, n = base_scheme, base_scheme.mesh.n_cells
        rng = np.random.default_rng(16)
        u = rng.uniform(-1, 1, n)
        for dt in (scheme.dt, 0.37 * scheme.dt):
            # the unfused update, kept as the reference
            expected = u - dt * (scheme.matrix @ u) + dt * scheme.rhs(0.2)
            got = scheme.step(u, 0.2, dt)
            assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()
            S = scheme.step_matrix(dt)
            np.testing.assert_array_equal(S.toarray(), np.eye(n) - dt * scheme.matrix.toarray())
        np.testing.assert_array_equal(scheme.step_S.toarray(),
                                      scheme.step_matrix(scheme.dt).toarray())

    @pytest.mark.parametrize("case", [(25.0, 0.2001, 32), (45.0, 0.2 + 1e-10, 40),
                                      (5.0, 0.25 + 1e-15, 32)])
    def test_step_matrix_is_scipys_subtraction(self, case, scheme_cache):
        # built on A's pattern: the same CSR arrays as I - dt A, so S @ u
        # keeps its bits, and A's own arrays are left as they were
        scheme = scheme_cache(*case)
        A, n = scheme.matrix, scheme.mesh.n_cells
        before = [x.copy() for x in (A.data, A.indices, A.indptr)]
        u = np.random.default_rng(17).uniform(-1, 1, n)
        for dt in (scheme.dt, 0.37 * scheme.dt):
            want = sp.identity(n, format="csr") - dt * A
            got = scheme.step_matrix(dt)
            for x, y in zip((got.indptr, got.indices, got.data), (want.indptr, want.indices, want.data)):
                np.testing.assert_array_equal(x, y)
            assert (got @ u).tobytes() == (want @ u).tobytes()
        for x, y in zip((A.data, A.indices, A.indptr), before, strict=True):
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("missing_diagonal", [False, True])
    def test_step_matrix_drops_exact_zeros_and_fills_missing_diagonals(self, missing_diagonal, base_scheme):
        # row 0: a stored 0 and a diagonal 1 - 0.5 * 2 == 0, both dropped;
        # row 1 has no diagonal slot when `missing_diagonal`
        cols, vals = ([0], [3.0]) if missing_diagonal else ([0, 1], [3.0, 4.0])
        indices = np.array([0, 1, 2, *cols, 1, 2])
        A = sp.csr_matrix((np.array([2.0, 0.0, 1.0, *vals, 5.0, 1.0]), indices,
                           np.array([0, 3, 3 + len(cols), len(indices)])), shape=(3, 3))
        scheme = copy.copy(base_scheme)
        scheme.matrix = A
        want = sp.identity(3, format="csr") - 0.5 * A
        got = scheme.step_matrix(0.5)
        for x, y in zip((got.indptr, got.indices, got.data), (want.indptr, want.indices, want.data)):
            np.testing.assert_array_equal(x, y)
        assert got.nnz == A.nnz - 2 + missing_diagonal

    def test_stepping_leaves_the_scheme_unchanged(self):
        problem = make_ramp_problem(25.0, 0.2001, t_final=0.05)
        scheme = DoDScheme(problem, SchemeConfig(), 8)
        S = scheme.step_S
        arrays = [a.copy() for a in (S.data, S.indices, S.indptr)]
        first = scheme.solve()
        assert (first.steps - 1) * scheme.dt < 0.05 < first.steps * scheme.dt  # a short last step
        scheme.step(first.u, first.t_final, 0.37 * scheme.dt)
        assert scheme.step_S is S
        for a, b in zip((S.data, S.indices, S.indptr), arrays, strict=True):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(scheme.solve().u, first.u)

    def test_l2_contraction_without_inflow(self, scheme_cache):
        # without inflow data a step is S u
        scheme = scheme_cache(25.0, 0.2001, 32, epsilon=1 / 14)
        u = scheme.project_initial()
        prev = scheme.l2_norm(u)
        for _ in range(60):
            u = scheme.step_S @ u
            cur = scheme.l2_norm(u)
            assert cur <= prev + 1e-13
            prev = cur

    def test_mass_balance(self, base_scheme):
        # d/dt sum |E| u_E equals inflow-data flux minus outflow flux
        mesh, table = base_scheme.mesh, base_scheme.table
        rng = np.random.default_rng(15)
        u = rng.uniform(-1, 1, mesh.n_cells)
        t = 0.1
        r = base_scheme.rhs(t)
        dmass = float(np.dot(mesh.areas, -base_scheme.apply(u) + r))
        boundary = np.nonzero(mesh.f_right < 0)[0]
        flux_out = sum(
            float(table.flux_in[f]) * u[mesh.f_left[f]]
            for f in boundary
            if table.flux_in[f] > 0
        )
        problem = base_scheme.problem
        qpoints, wbn = table.quadrature(boundary)
        flux_in = 0.0
        for k, f in enumerate(boundary):
            if table.flux_in[f] < 0:
                vals = problem.g_from(t, problem.characteristics(qpoints[k]))
                flux_in += float((wbn[k] * vals).sum())
        assert dmass == pytest.approx(-flux_out - flux_in, rel=1e-12, abs=1e-13)


class TestCfl:
    def test_stability_constant(self):
        mesh = cartesian_mesh(4)
        field = constant_velocity([1.0, 0.0])
        dt = SchemeConfig(tau=1.0, epsilon=1.0 / 14.0).kappa(field) * mesh.h
        assert dt == pytest.approx(mesh.h / 5.0, rel=1e-14)

    def test_epsilon_to_zero_limit(self):
        mesh = cartesian_mesh(4)
        field = constant_velocity([1.0, 0.0])
        dt = SchemeConfig(tau=1.0, epsilon=1e-9).kappa(field) * mesh.h
        assert dt == pytest.approx(mesh.h / 4.0, rel=1e-6)

    def test_manual_kappa_override(self, base_scheme):
        binf = base_scheme.velocity.inf_norm
        # the override leaves epsilon unchecked and unused
        config = SchemeConfig(epsilon=0.7, cfl_kappa=0.5 / binf)
        dt = config.kappa(base_scheme.velocity) * base_scheme.h
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

    @pytest.mark.parametrize("name,value,message", [
        ("face_order", 2.5, "need an integer face_order, got 2.5"),
        ("cell_degree", 0, "need degree >= 1, got 0"),
        ("face_order", 17, "need at most 16 points per face, got 17"),
        ("face_order", 0, "need at least 1 point per face, got 0"),
        ("cell_degree", 21, "need degree <= 20, got 21"),
        ("cell_degree", "6", "need an integer cell_degree, got '6'"),
    ])
    def test_invalid_quadrature_size_raises(self, name, value, message):
        # the CLI prints the message after the key and flag the field maps to
        with pytest.raises(InvalidConfig) as info:
            SchemeConfig(**{name: value})
        assert (info.value.field, str(info.value)) == (name, message)

    def test_quadrature_size_bounds_are_accepted(self):
        for face_order, cell_degree in ((1, 1), (16, 20), (np.int64(7), np.int32(9))):
            config = SchemeConfig(face_order=face_order, cell_degree=cell_degree)
            assert (config.face_order, config.cell_degree) == (face_order, cell_degree)


def dense_cb(mesh, st, velocity, samples=1000):
    """Min of |beta.n| over equispaced samples of every stabilized leg."""
    fids = np.concatenate([st.e_in, st.e_out])
    a, b = mesh.f_endpoints[fids, 0, :], mesh.f_endpoints[fids, 1, :]
    s = np.linspace(0.0, 1.0, samples)
    pts = a[:, None, :] + s[None, :, None] * (b - a)[:, None, :]
    beta = velocity.evaluate(pts.reshape(-1, 2)).reshape(pts.shape)
    return float(np.abs(np.einsum("fqd,fd->fq", beta, mesh.f_normal[fids])).min())


class TestEstimateCb:
    @pytest.mark.parametrize("gamma,x0,n", [
        (25.0, 0.2001, 32), (25.0, 0.2001, 64), (45.0, 0.2 + 1e-10, 20), (45.0, 0.2 + 1e-10, 80),
    ])
    def test_endpoints_match_dense_sampling(self, scheme_cache, gamma, x0, n):
        scheme = scheme_cache(gamma, x0, n)
        assert len(scheme.records) > 0
        dense = dense_cb(scheme.mesh, scheme.records, scheme.velocity)
        assert scheme.c_b == pytest.approx(dense, rel=1e-14)


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
        assert result.steps == math.ceil(0.25 / scheme.dt - 1e-12)

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


def test_scheme_memory_stays_bounded():
    # numpy memory of one scheme at 25 degrees, n = 128, measured at 6.6 MiB
    # kept and 8.0 MiB at the peak (10.0 and 12.8 with all-face quadrature
    # points and the mesh build's per-edge arrays held to the end); the
    # bounds are those plus 20%
    problem = make_ramp_problem(25.0, 0.2001)
    DoDScheme(problem, SchemeConfig(), 8)  # first-call caches stay out of the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scheme = DoDScheme(problem, SchemeConfig(), 128)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scheme.mesh.n_cells > 10_000
    assert (current - before) / 2**20 < 7.9
    assert (peak - before) / 2**20 < 9.6
