"""The beta-seminorm as a face sum over every face, with per-call masks.

This is the seminorm formula as `cutdg.norms` evaluated it before the
scheme built its seminorm rows once: a squared jump per face from the
(faces, 2) side means, a mask of the legs of stabilized cells, and the
extended jumps picked from the side means by the sign of each leg's flux.
The smooth face means are the row sums of |w beta.n| times the values at
points the face table builds for the faces asked for, and the starred
norm's cell-boundary mass gathers per-cell capacity weights on every
call.  Tests compare the package against it bit for bit.
"""
import math

import numpy as np

from cutdg.discretization import per_field, split_parts
from cutdg.field import Snapshot
from cutdg.norms import l2_norm_squared


def smooth_face_means(table, smooth, faces=None):
    """Row sums of |w beta.n| times the values of `smooth` on the face
    quadrature of every face, or of the given faces, built afresh."""
    if faces is None:
        (qpoints, wbn), abs_flux = table.all_faces, table.abs_flux
    else:
        (qpoints, wbn), abs_flux = table.quadrature(faces), table.abs_flux[faces]
    vals = np.asarray(smooth(qpoints.reshape(-1, 2)), dtype=float).reshape(wbn.shape)
    num = (np.abs(wbn) * vals).sum(axis=1)
    return np.divide(num, abs_flux, out=np.zeros_like(num), where=abs_flux > 0.0)


def face_side_means(mesh, table, v):
    """(..., faces, 2) side means on every face: column 0 from f_left,
    column 1 from f_right, 0 on the outside of boundary faces."""
    smooth, disc = split_parts(v)
    if disc is None:
        m = np.zeros((mesh.n_faces, 2))
    else:
        m = np.take(disc, np.stack([mesh.f_left, mesh.f_right], axis=-1), axis=-1)
        m[..., mesh.f_right < 0, 1] = 0.0
    if smooth is not None:
        s = smooth_face_means(table, smooth)
        m += np.stack([s, s], axis=-1)
    return m


def seminorm_parts(scheme, disc_means, means):
    """(plain, capacity, extended) from the side means of the discrete part
    and of the whole element on every face."""
    mesh, table, st = scheme.mesh, scheme.table, scheme.records
    jump = np.where(mesh.f_right >= 0, disc_means[..., 0] - disc_means[..., 1], means[..., 0])
    face_sq = table.abs_flux * np.square(jump)
    stab_faces = np.zeros(mesh.n_faces, dtype=bool)
    stab_faces[st.e_in] = True
    stab_faces[st.e_out] = True
    plain = np.compress(~stab_faces, face_sq, axis=-1).sum(axis=-1)
    capacity = (st.alpha * (np.take(face_sq, st.e_in, axis=-1)
                            + np.take(face_sq, st.e_out, axis=-1))).sum(axis=-1)
    m_out, m_in = np.take(means, st.e_out, axis=-2), np.take(means, st.e_in, axis=-2)
    v_out = np.where(table.flux_in[st.e_out] > 0.0, m_out[..., 1], m_out[..., 0])
    v_in = np.where(table.flux_in[st.e_in] > 0.0, m_in[..., 0], m_in[..., 1])
    extended = ((1.0 - st.alpha) * table.abs_flux[st.e_out] * np.square(v_out - v_in)).sum(axis=-1)
    return per_field(plain), per_field(capacity), per_field(extended)


def boundary_mass(scheme, means):
    """Capacity-weighted sum of |beta.n| (own-trace mean)^2 over the faces
    of every cell."""
    mesh, st = scheme.mesh, scheme.records
    weights = np.ones(mesh.n_cells)
    weights[st.cells] = st.alpha
    right = np.where(mesh.f_right >= 0, weights[mesh.f_right] * np.square(means[..., 1]), 0.0)
    own = weights[mesh.f_left] * np.square(means[..., 0]) + right
    return per_field((own * scheme.table.abs_flux).sum(axis=-1))


def beta_seminorm_parts(scheme, v):
    """A smooth part of v enters on the scheme's jump faces only."""
    smooth, disc = split_parts(v)
    disc_means = face_side_means(scheme.mesh, scheme.table, (None, disc))
    means = disc_means
    if smooth is not None:
        faces = scheme.jump_faces
        means = disc_means.copy()
        means[..., faces, :] += smooth_face_means(scheme.table, smooth, faces)[:, None]
    return seminorm_parts(scheme, disc_means, means)


def beta_seminorm(scheme, v):
    plain, capacity, extended = beta_seminorm_parts(scheme, v)
    return per_field(np.sqrt(np.maximum(plain + capacity + extended, 0.0)))


def triple_star_norm(scheme, v):
    smooth, disc = split_parts(v)
    l2_sq = l2_norm_squared(scheme, v)
    means = face_side_means(scheme.mesh, scheme.table, v)
    disc_means = means if smooth is None else face_side_means(scheme.mesh, scheme.table, (None, disc))
    plain, capacity, extended = seminorm_parts(scheme, disc_means, means)
    semi_sq = np.maximum(plain + capacity + extended, 0.0)
    return per_field(np.sqrt(l2_sq + semi_sq + boundary_mass(scheme, means)))


def error_breakdown(scheme, t, u_h):
    """(l2, beta_semi) of u(t, .) - u_h, with u(t, .) from `problem.exact`."""
    diff = (Snapshot(scheme.problem, t), -np.asarray(u_h, dtype=float))
    return math.sqrt(l2_norm_squared(scheme, diff)), beta_seminorm(scheme, diff)
