import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutdg.discretization import SchemeConfig, bilinear_a_dod, build_face_table
from cutdg.field import constant_velocity, make_ramp_problem
from cutdg.geometry import RampDomain, build_mesh
from cutdg.norms import beta_seminorm
from cutdg import verify as vf


@pytest.fixture(scope="module")
def problem():
    return make_ramp_problem(25.0, 0.2001)


class TestInverseTrace:
    def test_cartesian_cells_ratio_below_half(self):
        # per-cell inflow mass b*h against the bound 4 b h: ratio 1/4 <= 1/2
        mesh = build_mesh(RampDomain(gamma=math.radians(30.0), x0=1.0), 4)
        table = build_face_table(mesh, constant_velocity([0.6, 0.0]))
        sin_mass, sout_mass, _ = vf.cell_flux_sums(
            type("S", (), {"mesh": mesh, "table": table, "velocity": constant_velocity([0.6, 0.0])})()
        )
        bound = 4.0 * 0.6 / mesh.h * mesh.areas
        assert np.max(sin_mass / bound) <= 0.5 + 1e-14

    def test_stabilized_clamp_gives_ratio_one(self, scheme_cache):
        scheme = scheme_cache(25.0, 0.2001, 16)
        assert scheme.records
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
        assert rep.max_ratio - 1.0 <= 1e-12

    def test_zero_field_trivial(self, scheme_cache):
        scheme = scheme_cache(25.0, 0.2001, 16)
        z = np.zeros(scheme.mesh.n_cells)
        assert bilinear_a_dod(scheme.mesh, scheme.table, scheme.stab, z, z) == 0.0
        assert beta_seminorm(scheme, z) == 0.0

    def test_indicator_of_stabilized_cell_oracle(self, scheme_cache):
        # expand a_dod(1_E, 1_E) by hand: the e_in face carries the full
        # upwind penalty, the e_out face the capacity-blended one
        scheme = scheme_cache(25.0, 0.2001, 16)
        r = scheme.records[0]
        t = scheme.table
        v = np.zeros(scheme.mesh.n_cells)
        v[r.cell] = 1.0
        a = bilinear_a_dod(scheme.mesh, scheme.table, scheme.stab, v, v)
        phi_in = float(t.abs_flux[r.e_in])
        phi_out = float(t.abs_flux[r.e_out])
        by_hand = 0.5 * r.alpha * (phi_in + phi_out)
        assert a == pytest.approx(by_hand, rel=1e-12)
        semi2 = beta_seminorm(scheme, v) ** 2
        assert semi2 == pytest.approx(r.alpha * (phi_in + phi_out), rel=1e-12)


class TestIdentities:
    def test_face_sum_identities(self, scheme_cache):
        for rep in vf.check_identities(scheme_cache(25.0, 0.2001, 16), samples=100, seed=6):
            assert rep.passed, rep.lemma_id

    def test_algebraic_identity_report(self):
        rep = vf.check_algebraic_identity(samples=100_000, seed=7)
        assert rep.passed
        assert rep.max_ratio - 1.0 <= 1e-14


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
        j = bilinear_J(scheme.mesh, scheme.table, scheme.stab, lambda p: np.full(len(p), 2.0), w)
        assert abs(j) < 1e-14

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
        from cutdg.discretization import DoDScheme

        scheme = DoDScheme(problem.with_zero_inflow(), SchemeConfig(epsilon=1 / 14), 8)
        u = np.zeros(scheme.mesh.n_cells)
        for k in range(5):
            u = scheme.step(u, k * 0.01, 0.01)
        assert np.all(u == 0.0)

    def test_monotone_decay(self, problem):
        rep = vf.check_energy_decay(problem, SchemeConfig(epsilon=1 / 14), n=16, steps=60)
        assert rep.passed

    def test_stress_geometry(self):
        stress = make_ramp_problem(45.0, 0.2 + 1e-10)
        rep = vf.check_energy_decay(stress, SchemeConfig(epsilon=1 / 14), n=40, steps=60)
        assert rep.passed
        assert rep.details["min_volume_fraction"] < 1e-8
        assert rep.details["min_alpha"] < 1e-6


@pytest.mark.xfail(strict=True, reason=(
    "known defect: build_face_table forces the ramp-face flux to exactly 0, but the "
    "stored hypotenuse of a 1e-10 sliver lies ~1e-17 off the ramp line, ~1e-8 of the "
    "cell's perimeter, so flux closure misses its 1e-12 tolerance"))
def test_flux_closure_on_near_grid_sliver(scheme_cache):
    assert vf.check_incompressibility(scheme_cache(45.0, 0.2 + 1e-10, 20)).passed


def test_report_csv_row(scheme_cache):
    rep = vf.check_dissipation(scheme_cache(25.0, 0.2001, 16), samples=10, seed=12)
    fields = rep.csv_row().split(",")
    assert fields[0] == "discrete-dissipation"
    assert int(fields[1]) == 10
    float(fields[2])
    assert fields[3] in ("True", "False")


def test_run_all_passes(problem):
    reports = vf.run_all(problem, SchemeConfig(epsilon=1 / 14), n_values=(8, 16), samples=25, seed=13)
    assert all(r.passed for r in reports), [r.lemma_id for r in reports if not r.passed]
    ids = {r.lemma_id for r in reports}
    assert "capacity-split-algebra" in ids
    assert any(i.startswith("inverse-trace") for i in ids)
    assert any(i.startswith("projection-error") for i in ids)
