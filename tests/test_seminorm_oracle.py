"""The scheme's seminorm rows against the face-sum oracle, bit for bit,
and against the dissipation of the operator, W A + A^T W."""

import numpy as np
import pytest
import scipy.sparse as sp

import seminorm_oracle as oracle
from cutdg.discretization import (DoDScheme, FaceIntegralTable, bilinear_J, face_side_means,
                                  weighted_face_means)
from cutdg.field import Snapshot, make_ramp_problem
from cutdg.norms import (
    beta_seminorm,
    beta_seminorm_parts,
    error_breakdown,
    triple_star_norm,
)
from cutdg.verify import IDENT_TOL

GEOMETRIES = [
    pytest.param(25.0, 0.2001, 16, id="ramp25-n16"),
    pytest.param(25.0, 0.2001, 64, id="ramp25-n64"),
    pytest.param(5.0, 0.2001, 32, id="ramp5-n32"),
    pytest.param(45.0, 0.2 + 1e-10, 40, id="sliver45-n40"),
    # the ramp starts on a grid line; at 45 degrees it runs through grid
    # vertices and no cell is stabilized
    pytest.param(45.0, 0.25, 16, id="grid45-n16"),
    pytest.param(25.0, 0.25, 16, id="grid25-n16"),
    pytest.param(25.0, 0.25 + 1e-15, 16, id="grid25-offset-n16"),
]
T = 0.3


def elements(scheme):
    """Single fields and blocks, each with and without a smooth part, and
    the smooth part alone."""
    rng = np.random.default_rng(31)
    n = scheme.mesh.n_cells
    smooth = Snapshot(scheme.problem, T)
    single, block = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, (5, n))
    return {"single": single, "smooth+single": (smooth, single), "block": block,
            "smooth+block": (smooth, block), "smooth": smooth}


@pytest.mark.parametrize("gamma,x0,n", GEOMETRIES)
def test_norms_equal_the_face_sum_oracle(scheme_cache, gamma, x0, n):
    scheme = scheme_cache(gamma, x0, n)
    for name, v in elements(scheme).items():
        for got, want in zip(beta_seminorm_parts(scheme, v), oracle.beta_seminorm_parts(scheme, v),
                             strict=True):
            assert np.array_equal(got, want), name
        assert np.array_equal(beta_seminorm(scheme, v), oracle.beta_seminorm(scheme, v)), name
        assert np.array_equal(triple_star_norm(scheme, v), oracle.triple_star_norm(scheme, v)), name


def jump_gram(scheme):
    """(D P)^T diag(w) (D P): D has the rows x[left] - x[right] of the
    scheme, P maps a discrete field to x = [v, 0, jump-face side means],
    and w is the rows' weight with alpha applied on the legs."""
    n, jf = scheme.mesh.n_cells, scheme.jump_faces
    rows = len(scheme.jump_weight)
    width = n + 1 + 2 * len(jf)
    columns = np.stack([scheme.jump_left, scheme.jump_right], axis=1).ravel()
    D = sp.csr_matrix((np.tile([1.0, -1.0], rows), columns, np.arange(0, 2 * rows + 1, 2)),
                      shape=(rows, width))
    # a discrete field's side means on a jump face: f_left's value, then
    # f_right's, or 0 outside a boundary face
    sides = np.stack([scheme.mesh.f_left[jf], scheme.mesh.f_right[jf]], axis=1).ravel()
    source = np.concatenate([np.arange(n), [-1], sides])
    keep = source >= 0
    P = sp.csr_matrix((np.ones(keep.sum()), (np.flatnonzero(keep), source[keep])),
                      shape=(width, n))
    alpha = scheme.records.alpha
    weight = scheme.jump_weight.copy()
    legs = rows - 3 * len(alpha)
    weight[legs:legs + 2 * len(alpha)] *= np.tile(alpha, 2)
    DP = (D @ P).tocsr()
    return (DP.T @ sp.diags(weight) @ DP).tocsr()


@pytest.mark.parametrize("gamma,x0,n", GEOMETRIES)
def test_rows_are_the_gram_factor_of_the_dissipation(scheme_cache, gamma, x0, n):
    # v^T (W A + A^T W) v = 2 a_dod(v, v) = |v|_beta^2 for every discrete v,
    # and both matrices are symmetric: they agree entry by entry
    scheme = scheme_cache(gamma, x0, n)
    WA = sp.diags(scheme.mesh.areas) @ scheme.matrix
    Q = (WA + WA.T).tocsr()
    worst = abs(Q - jump_gram(scheme)).max()
    assert worst <= IDENT_TOL * abs(Q).max()


@pytest.mark.parametrize("gamma,x0,n", GEOMETRIES)
def test_error_norms_equal_the_face_sum_oracle(scheme_cache, gamma, x0, n):
    scheme = scheme_cache(gamma, x0, n)
    fields = elements(scheme)
    u_h = scheme.project_initial() + 1e-3 * fields["single"]
    eb = error_breakdown(scheme, T, u_h)
    assert (eb.l2, eb.beta_semi) == oracle.error_breakdown(scheme, T, u_h)
    exact_t = Snapshot(scheme.problem, T)
    block = fields["block"]
    assert np.array_equal(beta_seminorm(scheme, (exact_t, -block)),
                          oracle.beta_seminorm(scheme, (exact_t, -block)))


@pytest.mark.parametrize("gamma,x0,n", [GEOMETRIES[0], GEOMETRIES[3]])
def test_seminorm_of_a_snapshot_builds_no_face_points(scheme_cache, monkeypatch, gamma, x0, n):
    # a snapshot is evaluated from the scheme's `jump_chars`: a fresh scheme,
    # whose `all_faces` is not built yet, builds no face points for the
    # seminorm, the error norms or the stabilization form
    twin = scheme_cache(gamma, x0, n)
    scheme = DoDScheme(twin.problem, twin.config, n)
    fields = elements(twin)
    u = Snapshot(scheme.problem, T)
    v, w = (u, fields["block"]), fields["block"][::-1]
    u_h = twin.project_initial() + 1e-3 * fields["single"]
    # J as from every face's means: test_discretization pins it bit for bit
    want = (oracle.beta_seminorm(twin, v), oracle.error_breakdown(twin, T, u_h),
            bilinear_J(twin, u, w), bilinear_J(twin, v, w))

    def no_quadrature(self, faces):
        raise AssertionError("face quadrature rebuilt")

    monkeypatch.setattr(FaceIntegralTable, "quadrature", no_quadrature)
    eb = error_breakdown(scheme, T, u_h)
    got = (beta_seminorm(scheme, v), (eb.l2, eb.beta_semi),
           bilinear_J(scheme, u, w), bilinear_J(scheme, v, w))
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)
    assert "all_faces" not in vars(scheme.table)


def test_starred_norm_builds_every_face_once(scheme_cache, monkeypatch):
    twin = scheme_cache(25.0, 0.2001, 16)
    scheme = DoDScheme(twin.problem, twin.config, 16)
    quadrature = FaceIntegralTable.quadrature
    calls = []

    def counting_quadrature(self, faces):
        calls.append(faces)
        return quadrature(self, faces)

    monkeypatch.setattr(FaceIntegralTable, "quadrature", counting_quadrature)
    v = (Snapshot(scheme.problem, T), elements(twin)["block"])
    for _ in range(3):
        assert np.array_equal(triple_star_norm(scheme, v), oracle.triple_star_norm(twin, v))
    assert calls == [slice(None)]


def test_seminorm_rejects_a_snapshot_of_another_ramp(scheme_cache):
    scheme = scheme_cache(25.0, 0.2001, 16)
    other = make_ramp_problem(25.0, 0.25)
    u_h = np.zeros(scheme.mesh.n_cells)
    with pytest.raises(ValueError, match="not on the scheme.s ramp"):
        beta_seminorm(scheme, (Snapshot(other, T), u_h))
    with pytest.raises(ValueError, match="not on the scheme.s ramp"):
        bilinear_J(scheme, Snapshot(other, T), u_h)


def test_smooth_face_means_equal_row_sums(scheme_cache):
    # on both point sets: every face, and the jump faces
    scheme = scheme_cache(45.0, 0.2 + 1e-10, 40)
    u = Snapshot(scheme.problem, T)
    assert np.array_equal(face_side_means(scheme, u)[:, 0], oracle.smooth_face_means(scheme.table, u))
    jump = scheme.jump_faces
    assert np.array_equal(face_side_means(scheme, u, jump)[:, 0],
                          oracle.smooth_face_means(scheme.table, u, jump))


def test_weighted_face_means_add_columns_in_row_sum_order():
    rng = np.random.default_rng(32)
    eps = np.finfo(float).eps
    for q in range(1, 17):
        abs_wbn = rng.uniform(0.0, 1.0, (500, q))
        vals = rng.uniform(-1.0, 1.0, (500, q))
        abs_flux = abs_wbn.sum(axis=1)
        abs_flux[:3] = 0.0  # zero-flux faces get mean 0
        got = weighted_face_means(abs_wbn, vals, abs_flux)
        row_sum = (abs_wbn * vals).sum(axis=1)
        want = np.divide(row_sum, abs_flux, out=np.zeros(500), where=abs_flux > 0.0)
        assert np.all(got[:3] == 0.0)
        if q < 8:  # numpy adds rows shorter than 8 left to right
            assert np.array_equal(got, want), q
        else:  # its pairwise order: a few roundings apart
            scale = (abs_wbn * np.abs(vals)).sum(axis=1)
            assert np.all(np.abs(got - want) * abs_flux <= 2 * q * eps * scale), q
