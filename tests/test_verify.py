import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutdg.discretization import (
    SchemeConfig,
    bilinear_a_dod,
    bilinear_J,
    build_face_table,
    face_side_means,
)
from cutdg.field import Snapshot, make_ramp_problem
from cutdg.geometry import RampDomain, build_mesh
from cutdg.norms import beta_seminorm, h1_norm, triple_star_norm
from cutdg.quadrature import SegmentRule
from cutdg import verify as vf
from velocity_fields import constant_velocity


@pytest.fixture(scope="module")
def problem():
    return make_ramp_problem(25.0, 0.2001)


@pytest.fixture
def captured(monkeypatch):
    """The per-instance values each report is built from, by lemma id."""
    seen = {}
    for name in ("inequality", "identity"):
        make = getattr(vf.LemmaReport, name)

        def record(lemma_id, values, *args, _make=make, **kwargs):
            seen[lemma_id] = np.array(values, dtype=float)
            return _make(lemma_id, values, *args, **kwargs)

        monkeypatch.setattr(vf.LemmaReport, name, record)
    return seen


def cell_flux_sums_add_at(scheme):
    """The np.add.at scatter `cell_flux_sums` replaced, kept as the reference."""
    mesh, table = scheme.mesh, scheme.table
    nc = mesh.n_cells
    sin = np.zeros(nc)
    sout = np.zeros(nc)
    closure = np.zeros(nc)
    for cells, sign in ((mesh.f_left, 1.0), (mesh.f_right, -1.0)):
        valid = cells >= 0
        ids = cells[valid]
        signed = sign * table.flux_in[valid]
        np.add.at(closure, ids, signed)
        np.add.at(sin, ids, np.where(signed < 0.0, -signed, 0.0))
        np.add.at(sout, ids, np.where(signed > 0.0, signed, 0.0))
    return sin, sout, closure


class TestInverseTrace:
    @pytest.mark.parametrize("gamma,x0,n", [(25.0, 0.2001, 16), (45.0, 0.2 + 1e-10, 20)])
    def test_cell_flux_sums_match_add_at_scatter(self, scheme_cache, gamma, x0, n):
        scheme = scheme_cache(gamma, x0, n)
        got, expected = vf.cell_flux_sums(scheme), cell_flux_sums_add_at(scheme)
        assert len(got) == 3
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)

    def test_cartesian_cells_ratio_below_half(self):
        # per-cell inflow mass b*h against the bound 4 b h: ratio 1/4 <= 1/2
        mesh = build_mesh(RampDomain(gamma=math.radians(30.0), x0=1.0), 4)
        table = build_face_table(mesh, constant_velocity([0.6, 0.0]), SegmentRule.gauss())
        sin_mass, sout_mass, _ = vf.cell_flux_sums(
            type("S", (), {"mesh": mesh, "table": table, "velocity": constant_velocity([0.6, 0.0])})()
        )
        bound = 4.0 * 0.6 / mesh.h * mesh.areas
        assert np.max(sin_mass / bound) <= 0.5 + 1e-14

    def test_stabilized_clamp_gives_ratio_one(self, scheme_cache):
        scheme = scheme_cache(25.0, 0.2001, 16)
        assert len(scheme.records)
        rep = vf.check_inverse_trace(scheme)
        assert rep.passed
        # alpha * int_{e_in}|b.n| == |E|/(tau h) exactly when the min does
        # not clamp at 1: the worst ratio over the mesh is exactly 1
        assert rep.max_ratio == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("gamma", [5.0, 15.0, 25.0, 35.0, 45.0])
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_all_angles(self, scheme_cache, gamma, n):
        rep = vf.check_inverse_trace(scheme_cache(gamma, 0.2001, n))
        assert rep.passed
        assert rep.max_ratio <= 1.0 + 1e-10


class TestDissipation:
    def test_random_fields(self, scheme_cache):
        rep = vf.check_dissipation(scheme_cache(25.0, 0.2001, 16), samples=100, seed=5)
        assert rep.passed
        assert rep.max_ratio <= 1e-12

    def test_zero_field_trivial(self, scheme_cache):
        scheme = scheme_cache(25.0, 0.2001, 16)
        z = np.zeros(scheme.mesh.n_cells)
        assert bilinear_a_dod(scheme, z, z) == 0.0
        assert beta_seminorm(scheme, z) == 0.0

    def test_indicator_of_stabilized_cell_oracle(self, scheme_cache):
        # expand a_dod(1_E, 1_E) by hand: the e_in face carries the full
        # upwind penalty, the e_out face the capacity-blended one
        scheme = scheme_cache(25.0, 0.2001, 16)
        st = scheme.records
        t = scheme.table
        v = np.zeros(scheme.mesh.n_cells)
        v[st.cells[0]] = 1.0
        a = bilinear_a_dod(scheme, v, v)
        phi_in = float(t.abs_flux[st.e_in[0]])
        phi_out = float(t.abs_flux[st.e_out[0]])
        alpha = float(st.alpha[0])
        by_hand = 0.5 * alpha * (phi_in + phi_out)
        assert a == pytest.approx(by_hand, rel=1e-12)
        semi2 = beta_seminorm(scheme, v) ** 2
        assert semi2 == pytest.approx(alpha * (phi_in + phi_out), rel=1e-12)


class TestIdentities:
    def test_face_sum_identities(self, scheme_cache):
        for rep in vf.check_identities(scheme_cache(25.0, 0.2001, 16), samples=100, seed=6):
            assert rep.passed, rep.lemma_id

    @pytest.mark.parametrize("gamma,x0,n", [(25.0, 0.2001, 32), (45.0, 0.2 + 1e-10, 40),
                                             (5.0, 0.2001, 64)])
    def test_face_sums_reduce_to_flux_closure(self, scheme_cache, gamma, x0, n):
        # on discrete v and w each face sum regroups by cell: an interior face
        # gives +flux to f_left and -flux to f_right, a boundary face (omega
        # 1/2, mean and jump both v_left) +flux to f_left
        scheme = scheme_cache(gamma, x0, n)
        mesh, flux = scheme.mesh, scheme.table.flux_in
        v, w = np.random.default_rng(34).uniform(-1.0, 1.0, (2, mesh.n_cells))
        closure = vf.cell_flux_sums(scheme)[2]
        interior = mesh.f_right >= 0
        omega = np.where(interior, 1.0, 0.5)
        mv, mw = face_side_means(scheme, v), face_side_means(scheme, w)
        avg_v = np.where(interior, 0.5 * (mv[:, 0] + mv[:, 1]), mv[:, 0])
        jump_v = np.where(interior, mv[:, 0] - mv[:, 1], mv[:, 0])
        prod_jump = np.where(interior, mv[:, 0] * mw[:, 0] - mv[:, 1] * mw[:, 1],
                             mv[:, 0] * mw[:, 0])
        for terms, by_cell in ((omega * avg_v * jump_v * flux, 0.5 * v * v * closure),
                               (flux * prod_jump, v * w * closure)):
            assert abs(terms.sum() - by_cell.sum()) <= 1e-15 * np.abs(terms).sum()

    def test_algebraic_identity_report(self):
        rep = vf.check_algebraic_identity(samples=100_000, seed=7)
        assert rep.passed
        assert rep.max_ratio <= 1e-14


@given(
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_capacity_split_identity_pointwise(A, B, a):
    lhs = 0.5 * A * A + a * B * B + a * A * B
    rhs = 0.5 * ((1.0 - a) * A * A + a * B * B + a * (A + B) ** 2)
    scale = 0.5 * A * A + a * B * B + abs(a * A * B) + 1e-30
    assert abs(lhs - rhs) <= 1e-14 * scale


class TestBoundedness:
    def test_reports(self, scheme_cache):
        reps = vf.check_boundedness(scheme_cache(25.0, 0.2001, 16), samples=50, seed=8)
        names = {r.lemma_id for r in reps}
        assert names == {"boundedness-star", "boundedness-operator"}
        for r in reps:
            assert r.passed and r.max_ratio <= 1.0 + 1e-10

    def test_inverse_estimate(self, scheme_cache):
        rep = vf.check_inverse_estimate(scheme_cache(25.0, 0.2001, 16), samples=100, seed=9)
        assert rep.passed


class TestConsistency:
    def test_constant_gives_zero(self, scheme_cache):
        from cutdg.discretization import bilinear_J

        scheme = scheme_cache(25.0, 0.2001, 16)
        w = np.random.default_rng(10).uniform(-1, 1, scheme.mesh.n_cells)
        # J is linear in v: a constant added to a snapshot leaves it unchanged
        u, c = Snapshot(scheme.problem, 0.25), np.full(scheme.mesh.n_cells, 2.0)
        j_u = bilinear_J(scheme, u, w)
        j = bilinear_J(scheme, (u, c), w)
        assert j_u != 0.0 and abs(j - j_u) < 1e-14

    def test_exact_solution_ratio(self, scheme_cache):
        rep = vf.check_consistency(scheme_cache(25.0, 0.2001, 32), samples=40, seed=11)
        assert rep.passed
        assert rep.max_ratio <= 1.0


class TestProjection:
    def test_report(self, problem):
        rep = vf.check_projection(problem, SchemeConfig(), n_values=(16, 32, 64))
        assert rep.passed
        assert rep.max_ratio <= 1.0
        assert 0.4 <= rep.details["star_slope"] <= 0.6
        assert rep.details["c_b"] > 0.0


class TestEnergyDecay:
    def test_zero_initial_data_stays_zero(self, problem):
        from conftest import ConstantInflowProblem
        from cutdg.discretization import DoDScheme

        zero = ConstantInflowProblem(problem.ramp, problem.velocity, c=0.0)
        scheme = DoDScheme(zero, SchemeConfig(epsilon=1 / 14), 8)
        u = np.zeros(scheme.mesh.n_cells)
        for k in range(5):
            u = scheme.step(u, k * 0.01, 0.01)
        assert np.all(u == 0.0)

    def test_monotone_decay(self, problem):
        rep = vf.check_energy_decay(problem, SchemeConfig(epsilon=1 / 14), n=16, steps=60)
        assert rep.passed
        assert rep.instances == 60
        assert 1 <= rep.details["worst_step"] <= 60
        assert rep.details["worst_increase"] <= 1e-13
        assert rep.max_ratio == max(rep.details["worst_increase"], 0.0) / 1e-13

    def test_worst_step_names_the_largest_increase(self, problem):
        from cutdg.discretization import DoDScheme

        config = SchemeConfig(epsilon=1 / 14)
        rep = vf.check_energy_decay(problem, config, n=8, steps=20)
        scheme = DoDScheme(problem, config, 8)
        u, norms = scheme.project_initial(), []
        norms.append(scheme.l2_norm(u))
        for _ in range(20):
            u = scheme.step_S @ u
            norms.append(scheme.l2_norm(u))
        increase = np.diff(norms)
        worst = rep.details["worst_increase"]
        assert worst == increase[rep.details["worst_step"] - 1] == increase.max()

    def test_stress_geometry(self):
        stress = make_ramp_problem(45.0, 0.2 + 1e-10)
        rep = vf.check_energy_decay(stress, SchemeConfig(epsilon=1 / 14), n=40, steps=60)
        assert rep.passed
        assert rep.details["min_volume_fraction"] < 1e-8
        assert rep.details["min_alpha"] < 1e-6


def test_flux_closure_on_near_grid_sliver(scheme_cache):
    assert vf.check_incompressibility(scheme_cache(45.0, 0.2 + 1e-10, 20)).passed


def test_per_cell_checks_name_their_worst_cell(base_scheme, captured):
    mesh, st = base_scheme.mesh, base_scheme.records
    reports = [vf.check_incompressibility(base_scheme), vf.check_inverse_trace(base_scheme)]
    for rep in reports:
        c = rep.details["worst_cell"]
        assert c == np.argmax(captured[rep.lemma_id])
        assert rep.details["worst_kind"] == mesh.kind_codes[c]
        assert rep.details["worst_volume_fraction"] == mesh.areas[c] / mesh.h**2
        alpha = st.alpha[st.cells == c]
        assert rep.details["worst_alpha"] == (alpha[0] if len(alpha) else None)
    # the inverse-trace maximum is a stabilized cell's capacity clamp
    assert reports[1].details["worst_alpha"] is not None


class TestBatchedChecks:
    """The block-wise checks against a loop over single fields."""

    SAMPLES = 20  # a full block and a partial one
    SEED = 21

    @staticmethod
    def fields(scheme, samples, seed):
        rng = np.random.default_rng(seed)
        return rng, [rng.uniform(-1.0, 1.0, scheme.mesh.n_cells) for _ in range(samples)]

    def oracle(self, scheme):
        """Per-instance ratios from the single-field forms and norms."""
        mesh, table = scheme.mesh, scheme.table
        k, seed = self.SAMPLES, self.SEED
        out = {}
        _, fields = self.fields(scheme, k, seed)
        out["discrete-dissipation"] = [
            abs(bilinear_a_dod(scheme, v, v) - 0.5 * beta_seminorm(scheme, v) ** 2)
            / (0.5 * beta_seminorm(scheme, v) ** 2)
            for v in fields
        ]
        rng, fields = self.fields(scheme, k, seed)
        interior = mesh.f_right >= 0
        dev1, dev2 = [], []
        for v in fields:
            w = rng.uniform(-1.0, 1.0, mesh.n_cells)
            mv, mw = face_side_means(scheme, v), face_side_means(scheme, w)
            jump = np.where(interior, mv[:, 0] - mv[:, 1], mv[:, 0])
            avg = np.where(interior, 0.5 * (mv[:, 0] + mv[:, 1]), mv[:, 0])
            terms1 = np.where(interior, 1.0, 0.5) * avg * table.flux_in * jump
            terms2 = table.flux_in * np.where(
                interior, mv[:, 0] * mw[:, 0] - mv[:, 1] * mw[:, 1], mv[:, 0] * mw[:, 0])
            dev1.append(abs(terms1.sum()) / np.abs(terms1).sum())
            dev2.append(abs(terms2.sum()) / np.abs(terms2).sum())
        out["average-jump-sum"], out["product-jump-sum"] = dev1, dev2
        c = math.sqrt(scheme.c_tr / scheme.h)
        out["inverse-estimate"] = [
            beta_seminorm(scheme, w) / (2.0 * c * scheme.l2_norm(w))
            for w in self.fields(scheme, k, seed)[1]
        ]
        times = np.linspace(0.0, scheme.problem.t_final, 4)
        w_fields = self.fields(scheme, k, seed + 1)[1]
        star = []
        for i, (disc, w) in enumerate(zip(self.fields(scheme, k, seed)[1], w_fields)):
            t = float(times[(i // 2) % 4])
            v = (Snapshot(scheme.problem, t), disc) if i % 2 == 0 else disc
            a = bilinear_a_dod(scheme, v, w)
            star.append(abs(a) / (triple_star_norm(scheme, v) * beta_seminorm(scheme, w)))
        out["boundedness-star"] = star
        out["boundedness-operator"] = [
            scheme.l2_norm(scheme.apply(v)) / (c * beta_seminorm(scheme, v))
            for v in self.fields(scheme, k, seed + 2)[1]
        ]
        rng = np.random.default_rng(seed)
        factor = math.sqrt(scheme.config.tau * scheme.h) * scheme.velocity.w1inf_norm
        cons = []
        for t in (0.0, 0.25, 0.5):
            u_t = Snapshot(scheme.problem, t)
            bound = factor * h1_norm(scheme, u_t)
            for _ in range(k):
                w = rng.uniform(-1.0, 1.0, mesh.n_cells)
                cons.append(abs(bilinear_J(scheme, u_t, w)) / (bound * beta_seminorm(scheme, w)))
        out["stabilization-consistency"] = cons
        return {key: np.array(vals) for key, vals in out.items()}

    @pytest.mark.parametrize("gamma, x0, n", [(25.0, 0.2001, 16), (45.0, 0.2 + 1e-10, 20)])
    def test_instances_match_single_field_loop(self, scheme_cache, captured, gamma, x0, n):
        scheme = scheme_cache(gamma, x0, n)
        assert len(scheme.records)
        k, seed = self.SAMPLES, self.SEED
        reports = [
            vf.check_dissipation(scheme, k, seed),
            *vf.check_identities(scheme, k, seed),
            vf.check_inverse_estimate(scheme, k, seed),
            *vf.check_boundedness(scheme, k, seed),
            vf.check_consistency(scheme, samples=k, seed=seed),
        ]
        expect = self.oracle(scheme)
        assert {r.lemma_id for r in reports} == set(expect)
        for r in reports:
            ref = expect[r.lemma_id]
            assert r.instances == len(ref), r.lemma_id
            np.testing.assert_allclose(captured[r.lemma_id], ref, rtol=1e-13, atol=0.0,
                                       err_msg=r.lemma_id)
            worst = int(np.argmax(ref))
            if r.lemma_id == "stabilization-consistency":
                assert (r.details["worst_time"], r.details["worst_sample"]) == (
                    (0.0, 0.25, 0.5)[worst // k], worst % k)
            else:
                assert r.details["worst_sample"] == worst, r.lemma_id
        star = next(r for r in reports if r.lemma_id == "boundedness-star")
        times = np.linspace(0.0, scheme.problem.t_final, 4)
        i = star.details["worst_sample"]
        assert star.details["worst_time"] == (float(times[(i // 2) % 4]) if i % 2 == 0 else None)

    def test_one_exact_evaluation_per_point_set(self, base_scheme, monkeypatch):
        problem = base_scheme.problem
        exact = type(problem).exact
        calls = []

        def counting_exact(self, t, p):
            calls.append(t)
            return exact(self, t, p)

        monkeypatch.setattr(type(problem), "exact", counting_exact)
        snapshots = np.linspace(0.0, problem.t_final, 4)
        for samples in (8, 40):
            calls.clear()
            vf.check_boundedness(base_scheme, samples, seed=3)
            # once on the cell points (|||v|||_*) and once on the face points
            assert sorted(set(calls)) == list(snapshots)
            assert max(calls.count(t) for t in calls) <= 2
            calls.clear()
            vf.check_consistency(base_scheme, samples=samples, seed=3)
            # the face means of J and the H1 norm of the bound
            assert sorted(set(calls)) == [0.0, 0.25, 0.5]
            assert max(calls.count(t) for t in calls) <= 2

    def test_block_rows_equal_single_fields(self, base_scheme):
        n_cells = base_scheme.mesh.n_cells
        rng = np.random.default_rng(22)
        v = rng.uniform(-1.0, 1.0, (3, n_cells))
        w = rng.uniform(-1.0, 1.0, (3, n_cells))
        u0 = base_scheme.problem.u0
        block = {
            "a_dod": bilinear_a_dod(base_scheme, (u0, v), w),
            "J": bilinear_J(base_scheme, u0, w),
            "semi": beta_seminorm(base_scheme, (u0, v)),
            "star": triple_star_norm(base_scheme, (u0, v)),
            "l2": base_scheme.l2_norm(base_scheme.apply(v)),
        }
        for i in range(3):
            single = {
                "a_dod": bilinear_a_dod(base_scheme, (u0, v[i]), w[i]),
                "J": bilinear_J(base_scheme, u0, w[i]),
                "semi": beta_seminorm(base_scheme, (u0, v[i])),
                "star": triple_star_norm(base_scheme, (u0, v[i])),
                "l2": base_scheme.l2_norm(base_scheme.apply(v[i])),
            }
            for key, value in single.items():
                assert type(value) is float, key
                assert block[key][i] == pytest.approx(value, rel=1e-13, abs=0.0), key


def test_report_csv_row(scheme_cache):
    rep = vf.check_dissipation(scheme_cache(25.0, 0.2001, 16), samples=10, seed=12)
    fields = rep.csv_row().split(",")
    assert fields[0] == "discrete-dissipation"
    assert int(fields[1]) == 10
    float(fields[2])
    assert fields[3] in ("True", "False")


def test_identity_report_stores_its_deviation():
    # a deviation below the spacing of doubles near 1 keeps its value
    rep = vf.LemmaReport.identity("closure", [1e-17, -3e-17])
    assert rep.max_ratio == 3e-17 and rep.passed
    assert rep.csv_row() == "closure,2,3.0000000000000001e-17,True"
    assert rep.status_line() == "pass  closure: deviation=3.000000e-17 (2 instances)"
    assert not vf.LemmaReport.identity("closure", [2e-12]).passed


def test_run_all_passes(problem):
    reports = vf.run_all(problem, SchemeConfig(epsilon=1 / 14), n_values=(8, 16), samples=25, seed=13)
    assert all(r.passed for r in reports), [r.lemma_id for r in reports if not r.passed]
    ids = {r.lemma_id for r in reports}
    assert "capacity-split-algebra" in ids
    assert any(i.startswith("inverse-trace") for i in ids)
    assert any(i.startswith("projection-error") for i in ids)
