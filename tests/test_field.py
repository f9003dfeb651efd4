import math

import numpy as np
import pytest

from cutdg.field import VelocityField, make_ramp_problem
from cutdg.geometry import InvalidConfig, RampDomain
from polygon_oracle import grid_square_rule
from velocity_fields import constant_velocity

SQUARE = ((0.0, 0.0), (1.0, 1.0))
RAMP_ANGLES = (5.0, 25.0, 45.0)
FIELDS = [
    *(pytest.param(make_ramp_problem(g, 0.2001).velocity, id=f"ramp{g:g}") for g in RAMP_ANGLES),
    pytest.param(constant_velocity([1.0, 0.5]), id="constant"),
]


@pytest.fixture(scope="module")
def problem():
    return make_ramp_problem(25.0, 0.2001)


def rk4_backtrace(problem, t, p, dt=1e-4):
    """Independent characteristic oracle: integrate dx/ds = beta(x) backwards."""
    beta = problem.velocity.evaluate
    x = np.asarray(p, dtype=float).copy()
    n = max(1, int(round(t / dt)))
    step = t / n
    for _ in range(n):
        k1 = beta(x)
        k2 = beta(x - 0.5 * step * k1)
        k3 = beta(x - 0.5 * step * k2)
        k4 = beta(x - step * k3)
        x = x - step / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return problem.u0(x)


def ramp_points(ramp, rng, m):
    """m uniform random points on the ramp segment inside the square."""
    x = ramp.x0 + rng.uniform(0.0, 1.0, m) * (1.0 - ramp.x0)
    return np.stack([x, ramp.slope * (x - ramp.x0)], axis=-1)


def sampled_inf_norm(field: VelocityField, square, tol: float = 1e-6) -> float:
    """Dense-sampling maximum of |beta|_2 with iterative window refinement."""
    (xlo, ylo), (xhi, yhi) = square
    lo = np.array([xlo, ylo])
    hi = np.array([xhi, yhi])
    m = 101
    while True:
        gx = np.linspace(lo[0], hi[0], m)
        gy = np.linspace(lo[1], hi[1], m)
        X, Y = np.meshgrid(gx, gy, indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
        norms = np.linalg.norm(field.evaluate(pts), axis=-1)
        best = pts[np.argmax(norms)]
        span = (hi - lo) / (m - 1)
        if max(span) < tol:
            return float(norms.max())
        lo = np.maximum([xlo, ylo], best - 2 * span)
        hi = np.minimum([xhi, yhi], best + 2 * span)


class TestVelocity:
    @pytest.mark.parametrize("field", FIELDS)
    def test_evaluate_is_curl_of_stream(self, field):
        # psi is at most quadratic, so central differences are exact up to rounding
        pts = np.random.default_rng(6).uniform(0.0, 1.0, size=(400, 2))
        d = 1e-6
        dx, dy = np.array([d, 0.0]), np.array([0.0, d])
        curl = np.stack([
            field.stream(pts + dy) - field.stream(pts - dy),
            field.stream(pts - dx) - field.stream(pts + dx),
        ], axis=-1) / (2.0 * d)
        beta = field.evaluate(pts)
        err = np.linalg.norm(curl - beta, axis=-1)
        assert np.all(err <= 1e-8 * np.linalg.norm(beta, axis=-1))

    @pytest.mark.parametrize("gamma", RAMP_ANGLES, ids=lambda g: f"ramp{g:g}")
    def test_ramp_is_streamline(self, gamma):
        problem = make_ramp_problem(gamma, 0.2001)
        velocity, ramp = problem.velocity, problem.ramp
        pts = ramp_points(ramp, np.random.default_rng(7), 400)
        psi0 = velocity.stream(np.array([ramp.x0, 0.0]))
        np.testing.assert_allclose(velocity.stream(pts), psi0, rtol=0.0, atol=1e-15)
        # nonvanishing along the ramp
        assert np.linalg.norm(velocity.evaluate(pts), axis=-1).min() > 0.5

    def test_inf_norm_closed_form(self):
        prob = make_ramp_problem(45.0, 0.2001)
        expected = (2.0 + math.sin(math.radians(45.0)) * (1.0 - 0.2001)) / 2.0
        assert prob.velocity.inf_norm == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(1.2828, abs=1e-4)

    def test_inf_norm_matches_dense_sampling(self, problem):
        sampled = sampled_inf_norm(problem.velocity, SQUARE)
        assert problem.velocity.inf_norm == pytest.approx(sampled, abs=1e-5)

    def test_inf_norm_small_angle_limit(self):
        prob = make_ramp_problem(1e-6, 0.2001)
        assert prob.velocity.inf_norm == pytest.approx(1.0, abs=1e-7)

    def test_constant_field(self):
        field = constant_velocity([1.0, 0.0])
        assert field.inf_norm == 1.0
        assert sampled_inf_norm(field, SQUARE) == pytest.approx(1.0, abs=1e-12)


class TestExactSolution:
    def test_initial_condition(self, problem):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0.0, 1.0, size=(100, 2))
        g, x0 = problem.ramp.gamma, problem.ramp.x0
        xi = math.cos(g) * (pts[:, 0] - x0) + math.sin(g) * pts[:, 1]
        u0 = np.sin(math.sqrt(2.0) * math.pi / (1.0 - x0) * xi)
        np.testing.assert_allclose(problem.exact(0.0, pts), u0, rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(problem.u0(pts), problem.exact(0.0, pts))

    def test_on_ramp_unit_speed(self, problem):
        # on the ramp the streamline speed is exactly 1
        ramp = problem.ramp
        x0 = ramp.x0
        k = math.sqrt(2.0) * math.pi / (1.0 - x0)
        tangent = np.array([1.0, ramp.slope])
        tangent = tangent / np.linalg.norm(tangent)
        for s, t in ((0.1, 0.2), (0.4, 0.5), (0.7, 0.35)):
            p = np.array([x0, 0.0]) + s * tangent
            assert problem.exact(t, p) == pytest.approx(math.sin(k * (s - t)), abs=1e-13)

    def test_against_rk4_characteristics(self, problem):
        rng = np.random.default_rng(3)
        for _ in range(4):
            p = rng.uniform([0.3, 0.5], [0.9, 0.95])
            t = float(rng.uniform(0.1, 0.5))
            assert problem.exact(t, p) == pytest.approx(rk4_backtrace(problem, t, p), abs=1e-8)

    def test_pde_residual(self, problem):
        rng = np.random.default_rng(4)
        eps = 1e-5
        pts = rng.uniform([0.3, 0.5], [0.9, 0.95], size=(50, 2))
        ts = rng.uniform(0.05, 0.45, size=50)
        for p, t in zip(pts, ts):
            ut = (problem.exact(t + eps, p) - problem.exact(t - eps, p)) / (2 * eps)
            gx = (problem.exact(t, p + [eps, 0]) - problem.exact(t, p - [eps, 0])) / (2 * eps)
            gy = (problem.exact(t, p + [0, eps]) - problem.exact(t, p - [0, eps])) / (2 * eps)
            b = problem.velocity.evaluate(p)
            assert abs(ut + b[0] * gx + b[1] * gy) <= 1e-6

    def test_gradient_analytic_vs_fd(self, problem):
        rng = np.random.default_rng(5)
        pts = rng.uniform([0.3, 0.5], [0.9, 0.95], size=(20, 2))
        eps = 1e-6
        for t in (0.0, 0.3):
            g = problem.exact_gradient(t, pts)
            gx = (problem.exact(t, pts + [eps, 0]) - problem.exact(t, pts - [eps, 0])) / (2 * eps)
            gy = (problem.exact(t, pts + [0, eps]) - problem.exact(t, pts - [0, eps])) / (2 * eps)
            np.testing.assert_allclose(g[:, 0], gx, atol=1e-8)
            np.testing.assert_allclose(g[:, 1], gy, atol=1e-8)

    def test_problem_needs_x0_below_one(self):
        # the mesh accepts x0 = 1 (an all-Cartesian square), but the wave
        # number sqrt(2) pi / (1 - x0) of the initial data does not
        RampDomain(gamma=math.radians(25.0), x0=1.0)
        with pytest.raises(InvalidConfig, match="x0 must be below 1") as info:
            make_ramp_problem(25.0, 1.0)
        assert info.value.field == "x0"

    @pytest.mark.parametrize("t_final", [-0.01, math.nan, math.inf])
    def test_problem_rejects_bad_t_final(self, t_final):
        with pytest.raises(InvalidConfig, match="^t_final must be finite and nonnegative") as info:
            make_ramp_problem(25.0, 0.2001, t_final=t_final)
        assert info.value.field == "t_final"


class TestSquareIntegrals:
    """The closed-form integrals of a snapshot over grid squares against a
    12 x 12 Gauss-Legendre tensor rule on each square."""

    @staticmethod
    def flat_time(problem):
        """The time at which a = k (cos g - t sin g / 2) vanishes."""
        return 2.0 * math.cos(problem.ramp.gamma) / math.sin(problem.ramp.gamma)

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("gamma", RAMP_ANGLES)
    def test_match_tensor_gauss(self, gamma, n):
        problem = make_ramp_problem(gamma, 0.2001)
        ij = np.stack(np.divmod(np.arange(n * n), n), axis=-1)  # every square of the grid
        pts, wts = grid_square_rule(n, ij)
        times = [0.0, 0.5, 1.0, self.flat_time(problem)]
        assert problem.phase(times[-1])[0] == 0.0  # sinc is evaluated at 0
        for t in times:
            if t > 1.0 and gamma == 5.0 and n == 8:
                continue  # b h = 8: 12 points a side do not resolve sin(2 b y)
            u = problem.exact(t, pts.reshape(-1, 2)).reshape(wts.shape)
            grad = problem.exact_gradient(t, pts.reshape(-1, 2)).reshape(pts.shape)
            want = ((wts * u).sum(axis=1), (wts * u * u).sum(axis=1),
                    (wts * np.square(grad).sum(axis=-1)).sum(axis=1))
            for name, got, ref in zip(("u", "u^2", "|grad u|^2"),
                                      problem.square_integrals(t, n, *ij.T), want, strict=True):
                # |grad u|^2 = (a^2 + b^2) cos^2, so its integral scales with a^2 + b^2
                scale = 1.0 if name != "|grad u|^2" else sum(np.square(problem.phase(t)[:2]))
                assert np.abs(got - ref).max() <= 1e-13 * scale / n**2, (name, t)

    def test_squares_of_a_mesh(self, scheme_cache):
        # the mesh's uncut squares are the grid squares at their background (i, j)
        scheme = scheme_cache(25.0, 0.2001, 16)
        squares = scheme.cellquad.squares
        np.testing.assert_array_equal(scheme.cellquad.square_ij.T, scheme.mesh.background[squares])
        _, m2, _ = scheme.problem.square_integrals(0.3, 16, *scheme.cellquad.square_ij)
        pts, wts = grid_square_rule(16, scheme.mesh.background[squares])
        u = scheme.problem.exact(0.3, pts.reshape(-1, 2)).reshape(wts.shape)
        np.testing.assert_allclose(m2, (wts * u * u).sum(axis=1), rtol=0.0, atol=1e-13 / 16**2)
        np.testing.assert_allclose(wts.sum(axis=1), scheme.mesh.areas[squares], rtol=1e-14)


def test_ramp_domain_validation():
    # the field and text the CLI prints after the key and flag
    angle = "ramp angle must lie in (0, 90) degrees, got "
    for gamma, x0, field, message in (
        (0.0, 0.5, "gamma", angle + "0.0"),
        (math.pi / 2, 0.5, "gamma", angle + "90.0"),
        (math.radians(95.0), 0.5, "gamma", angle + "95.0"),
        (math.radians(123.456), 0.5, "gamma", angle + "123.456"),
        (math.nan, 0.5, "gamma", angle + "nan"),
        (0.3, 1.5, "x0", "ramp start x0=1.5 not on the bottom edge"),
        (0.3, math.inf, "x0", "ramp start x0=inf not on the bottom edge"),
    ):
        with pytest.raises(InvalidConfig) as info:
            RampDomain(gamma=gamma, x0=x0)
        assert (info.value.field, str(info.value)) == (field, message)
