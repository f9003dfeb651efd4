"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines; the full sweep (two CFL studies over five ramp angles up to
n = 256 plus the estimate checks) runs in about 20 s on a 2-core VM.
"""
import time

import numpy as np
import pytest

from cutdg.discretization import SchemeConfig, bilinear_a_dod
from cutdg.field import make_ramp_problem
from cutdg.norms import error_breakdown
from cutdg import verify as vf

ANGLES = (5.0, 15.0, 25.0, 35.0, 45.0)
X0 = 0.2001
N_LIST = (16, 32, 64, 128, 256)

L2_WINDOW = (0.85, 1.15)
BETA_WINDOW = (0.35, 0.65)


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def fitted_order(hs, errors, last=3):
    hs, errors = hs[-last:], errors[-last:]
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


@pytest.fixture(scope="module")
def convergence_results(scheme_cache):
    """Final-time errors for both CFL choices, shared by criteria 1 and 2."""
    t0 = time.perf_counter()
    results = {}
    for gamma in ANGLES:
        binf = make_ramp_problem(gamma, X0).velocity.inf_norm
        for cfl_factor in (0.2, 0.5):
            rows = []
            for n in N_LIST:
                scheme = scheme_cache(gamma, X0, n, cfl_kappa=cfl_factor / binf)
                result = scheme.solve()
                eb = error_breakdown(scheme, result.t_final, result.u)
                rows.append((scheme.h, eb.l2, eb.beta_semi))
            results[(gamma, cfl_factor)] = rows
    results["elapsed"] = time.perf_counter() - t0
    return results


def _check_orders(results, cfl_factor, label):
    ok = True
    details = []
    for gamma in ANGLES:
        rows = results[(gamma, cfl_factor)]
        hs = [r[0] for r in rows]
        p_l2 = fitted_order(hs, [r[1] for r in rows])
        p_beta = fitted_order(hs, [r[2] for r in rows])
        good = L2_WINDOW[0] <= p_l2 <= L2_WINDOW[1] and BETA_WINDOW[0] <= p_beta <= BETA_WINDOW[1]
        ok = ok and good
        details.append(f"g={gamma:g}: p_l2={p_l2:.3f} p_beta={p_beta:.3f}")
    detail = "; ".join(details) + f"; wall={results['elapsed']:.0f}s"
    assert _report(label, ok, detail)
    assert results["elapsed"] < 300.0


def test_criterion_01_convergence_strict_cfl(convergence_results):
    _check_orders(convergence_results, 0.2, "1 convergence dt=(1/5)h/|b|")


def test_criterion_02_convergence_practical_cfl(convergence_results):
    _check_orders(convergence_results, 0.5, "2 convergence dt=(1/2)h/|b|")


def test_criterion_03_discrete_dissipation(scheme_cache):
    worst = 0.0
    for gamma, n in ((5.0, 16), (25.0, 32), (45.0, 16)):
        rep = vf.check_dissipation(scheme_cache(gamma, X0, n), samples=100, seed=100)
        worst = max(worst, rep.max_ratio)
    assert _report("3 discrete dissipation", worst <= 1e-12, f"max rel dev {worst:.2e}")


def test_criterion_04_face_sum_identities(scheme_cache):
    worst = 0.0
    for gamma, n in ((5.0, 16), (25.0, 32), (45.0, 16)):
        for rep in vf.check_identities(scheme_cache(gamma, X0, n), samples=100, seed=101):
            worst = max(worst, rep.max_ratio)
    assert _report("4 face-sum identities", worst <= 1e-12, f"max normalized residual {worst:.2e}")


def test_criterion_05_inverse_trace(scheme_cache):
    worst = 0.0
    count = 0
    for gamma in ANGLES:
        for n in (16, 32, 64):
            rep = vf.check_inverse_trace(scheme_cache(gamma, X0, n))
            worst = max(worst, rep.max_ratio)
            count += rep.instances
            assert rep.passed
    assert _report(
        "5 inverse trace estimate", worst <= 1.0 + 1e-10, f"max per-cell ratio {worst:.12f} over {count} cells"
    )


def test_criterion_06_inverse_estimate_and_boundedness(scheme_cache):
    worst = {}
    for gamma, n in ((5.0, 16), (25.0, 32), (45.0, 16)):
        scheme = scheme_cache(gamma, X0, n)
        reps = [vf.check_inverse_estimate(scheme, samples=100, seed=102)]
        reps += vf.check_boundedness(scheme, samples=100, seed=103)
        for r in reps:
            worst[r.lemma_id] = max(worst.get(r.lemma_id, 0.0), r.max_ratio)
    ok = all(v <= 1.0 + 1e-10 for v in worst.values())
    detail = ", ".join(f"{k}={v:.3f}" for k, v in sorted(worst.items()))
    assert _report("6 inverse estimate + boundedness I/II", ok, detail)


def test_criterion_07_consistency(scheme_cache):
    per_n = {}
    for n in (32, 64, 128):
        rep = vf.check_consistency(scheme_cache(25.0, X0, n), samples=100, seed=104)
        per_n[n] = rep.max_ratio
        assert rep.passed
    worst = max(per_n.values())
    detail = ", ".join(f"n={n}: {r:.2e}" for n, r in per_n.items())  # no growth under refinement
    assert _report("7 stabilization consistency", worst <= 1.0 + 1e-10, detail)


def test_criterion_08_projection_error(scheme_cache):
    problem = make_ramp_problem(25.0, X0)
    schemes = {n: scheme_cache(25.0, X0, n) for n in (16, 32, 64, 128)}
    rep = vf.check_projection(problem, SchemeConfig(), n_values=(16, 32, 64, 128), schemes=schemes)
    detail = f"l2 ratio {rep.max_ratio:.3f}, starred slope {rep.details['star_slope']:.3f}"
    assert _report("8 projection error", rep.passed, detail)


def test_criterion_09_energy_decay_and_small_cell_robustness():
    config = SchemeConfig(epsilon=1.0 / 14.0)
    rep_a = vf.check_energy_decay(make_ramp_problem(25.0, X0), config, n=64, steps=200)
    stress = make_ramp_problem(45.0, 0.2 + 1e-10)
    rep_b = vf.check_energy_decay(stress, config, n=40, steps=200)
    ok = (
        rep_a.passed
        and rep_b.passed
        and rep_b.details["min_volume_fraction"] < 1e-8
    )
    detail = (
        f"regular worst increase {max(rep_a.max_ratio - 0.0, 0):.2e}x1e-13; "
        f"stress min |E|/h^2 = {rep_b.details['min_volume_fraction']:.2e}, "
        f"min alpha = {rep_b.details['min_alpha']:.2e}"
    )
    assert _report("9 energy decay incl. small-cell stress", ok, detail)


def test_criterion_10_constants_and_duality(scheme_cache, constant_inflow_scheme):
    scheme = scheme_cache(25.0, X0, 16)
    mesh = scheme.mesh

    # constant data g = c with u = c: the step the solver runs leaves u fixed
    const = constant_inflow_scheme
    u = np.full(mesh.n_cells, const.problem.c)
    drift = float(np.abs(const.step(u, 0.0, const.dt) - u).max())

    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        v = rng.uniform(-1, 1, mesh.n_cells)
        av = scheme.apply(v)
        scale = float(np.abs(mesh.areas * av).max())
        for F in rng.choice(mesh.n_cells, size=8, replace=False):
            w = np.zeros(mesh.n_cells)
            w[F] = 1.0
            aF = bilinear_a_dod(scheme, v, w)
            worst = max(worst, abs(mesh.areas[F] * av[F] - aF) / scale)
    ok = drift < 1e-13 and worst < 1e-12
    assert _report(
        "10 constant preservation + duality", ok, f"drift {drift:.2e}, duality dev {worst:.2e}"
    )
