"""Numerical checks for the identities and estimates behind the scheme.

Each check runs a quantified sweep (fixed seed, stated instance counts) and
returns a LemmaReport with the worst observed ratio.  Inequalities pass at
max_ratio <= 1 + 1e-10; identities are measured as relative deviations and
pass at 1e-12 unless stated otherwise; their max_ratio is the worst
deviation itself.

The sampled checks draw their random fields in blocks of BLOCK rows or all
at once (the same stream as drawing them one by one) and evaluate them
BLOCK rows at a time with the forms and norms.  The checks with
exact-solution snapshots take them at equally spaced times from 0 to the
problem's t_final (four in `check_boundedness`, three in
`check_consistency`) and go snapshot by snapshot: each snapshot is
evaluated once on the cut cells' quadrature points (it is integrated over
the uncut squares in closed form) and once on face points: every face's in
`check_boundedness`, while samples <= 8 BLOCK, since one sample in eight
takes each of its four snapshots; the jump faces' in `check_consistency`,
whose stabilization form reads the legs of the stabilized cells only.
Their reports name the worst instance in `details`: `worst_sample`, plus
`worst_time` where the instance has an exact-solution snapshot.  The
per-cell checks name their worst cell: `worst_cell`, its `worst_kind` code
(geometry.K_*), `worst_volume_fraction` |E|/h^2 and `worst_alpha`, which
is None unless the cell is stabilized.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .discretization import (
    DoDScheme,
    SchemeConfig,
    bilinear_a_dod,
    bilinear_J,
    face_side_means,
)
from .field import RampTestProblem, Snapshot
from .norms import (beta_seminorm, gradient_norm_squared, h1_norm, l2_norm_squared,
                    triple_star_norm)

INEQ_TOL = 1e-10  # slack on ratio <= 1
IDENT_TOL = 1e-12  # relative deviation for identities
# random fields per batched evaluation: larger blocks raise the checks' peak
# memory, smaller ones pay the per-call overhead of the forms more often
BLOCK = 16


@dataclass
class LemmaReport:
    lemma_id: str
    kind: str  # "inequality" | "identity"
    instances: int
    max_ratio: float
    passed: bool
    tol: float
    seed: int | None = None
    details: dict = dc_field(default_factory=dict)

    @classmethod
    def inequality(cls, lemma_id, ratios, seed=None, tol=INEQ_TOL, **details):
        ratios = np.atleast_1d(np.asarray(ratios, dtype=float))
        mx = float(ratios.max()) if ratios.size else 0.0
        return cls(lemma_id, "inequality", int(ratios.size), mx, mx <= 1.0 + tol, tol, seed, details)

    @classmethod
    def identity(cls, lemma_id, deviations, seed=None, tol=IDENT_TOL, **details):
        dev = np.atleast_1d(np.asarray(deviations, dtype=float))
        mx = float(np.abs(dev).max()) if dev.size else 0.0
        return cls(lemma_id, "identity", int(dev.size), mx, mx <= tol, tol, seed, details)

    def csv_row(self) -> str:
        return f"{self.lemma_id},{self.instances},{self.max_ratio:.16e},{self.passed}"

    def status_line(self) -> str:
        """`pass|FAIL <id>: <value> (<N> instances)`; an identity's max_ratio
        is its worst deviation, and prints as one."""
        status = "pass" if self.passed else "FAIL"
        label = "deviation" if self.kind == "identity" else "max_ratio"
        value = f"{label}={self.max_ratio:.6e}"
        return f"{status}  {self.lemma_id}: {value} ({self.instances} instances)"


def _field_blocks(rng, samples, n_cells):
    """(first sample, block) pairs of uniform(-1, 1) fields, drawn a block at a
    time; the rows are the fields of `samples` one-by-one draws."""
    for start in range(0, samples, BLOCK):
        yield start, rng.uniform(-1.0, 1.0, size=(min(BLOCK, samples - start), n_cells))


def _cancellation(terms):
    """|sum| / sum of |.| over the last axis: how far a sum of terms that
    must cancel is from 0, relative to its terms."""
    return np.abs(terms.sum(axis=-1)) / np.maximum(np.abs(terms).sum(axis=-1), 1e-300)


def _argmax(values) -> int | None:
    """Index of the worst instance, the first one on ties; None for no instances."""
    return int(np.argmax(values)) if np.size(values) else None


def _worst_cell(scheme: DoDScheme, values) -> dict:
    """The `details` naming the cell with the largest of the per-cell values."""
    c = _argmax(values)
    mesh, st = scheme.mesh, scheme.records
    k = int(np.searchsorted(st.cells, c))
    stabilized = k < len(st) and st.cells[k] == c
    return dict(
        worst_cell=c,
        worst_kind=int(mesh.kind_codes[c]),
        worst_volume_fraction=float(mesh.areas[c]) / mesh.h**2,
        worst_alpha=float(st.alpha[k]) if stabilized else None,
    )


def cell_flux_sums(scheme: DoDScheme):
    """Per-cell (sum_in |flux|, sum_out |flux|, signed closure) over faces.

    Each cell adds its left-side faces in face order, then its right-side
    faces: one bincount over f_left followed by the interior f_right.
    """
    mesh, flux = scheme.mesh, scheme.table.flux_in
    has_r = mesh.f_right >= 0
    ids = np.concatenate([mesh.f_left, mesh.f_right[has_r]])
    signed = np.concatenate([flux, -flux[has_r]])
    sums = (np.where(signed < 0.0, -signed, 0.0), np.where(signed > 0.0, signed, 0.0), signed)
    return tuple(np.bincount(ids, weights=w, minlength=mesh.n_cells) for w in sums)


def check_incompressibility(scheme: DoDScheme) -> LemmaReport:
    """Per-cell flux closure: inflow and outflow |beta.n| masses agree."""
    return _flux_closure(scheme, cell_flux_sums(scheme))


def _flux_closure(scheme: DoDScheme, sums) -> LemmaReport:
    sin, sout, closure = sums
    perimeter = np.bincount(scheme.mesh.f_left, weights=scheme.mesh.f_length,
                            minlength=scheme.mesh.n_cells)
    has_r = scheme.mesh.f_right >= 0
    perimeter += np.bincount(scheme.mesh.f_right[has_r],
                             weights=scheme.mesh.f_length[has_r],
                             minlength=scheme.mesh.n_cells)
    scale = perimeter * scheme.velocity.inf_norm
    dev = np.maximum(np.abs(closure), np.abs(sin - sout)) / scale
    return LemmaReport.identity("flux-closure", dev, n_cells=scheme.mesh.n_cells,
                                **_worst_cell(scheme, dev))


def check_inverse_trace(scheme: DoDScheme) -> LemmaReport:
    """Inflow |beta.n| mass per cell against (4|beta|_inf/h)|E|, capacity-
    weighted against |E|/(tau h) on stabilized cells."""
    sums = cell_flux_sums(scheme)
    closure = _flux_closure(scheme, sums)
    sin = sums[0]
    mesh = scheme.mesh
    binf = scheme.velocity.inf_norm
    tau = scheme.config.tau
    bound = (4.0 * binf / mesh.h) * mesh.areas
    ratios = np.divide(sin, bound, out=np.zeros_like(sin), where=bound > 0)
    st = scheme.records
    stab_bound = mesh.areas[st.cells] / (tau * mesh.h)
    ratios[st.cells] = st.alpha * sin[st.cells] / stab_bound
    rep = LemmaReport.inequality(
        "inverse-trace", ratios, stabilized=len(st), **_worst_cell(scheme, ratios)
    )
    rep.passed = rep.passed and closure.passed
    rep.details["flux_closure_dev"] = closure.max_ratio
    return rep


def check_dissipation(scheme: DoDScheme, samples: int = 100, seed: int = 0) -> LemmaReport:
    """a_dod(v, v) = 1/2 |v|_beta^2 for random discrete fields."""
    dev = np.empty(samples)
    for start, v in _field_blocks(np.random.default_rng(seed), samples, scheme.mesh.n_cells):
        lhs = bilinear_a_dod(scheme, v, v)
        rhs = 0.5 * beta_seminorm(scheme, v) ** 2
        dev[start:start + len(v)] = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
    return LemmaReport.identity("discrete-dissipation", dev, seed=seed,
                                worst_sample=_argmax(dev))


def check_identities(scheme: DoDScheme, samples: int = 100, seed: int = 0) -> list[LemmaReport]:
    """Face-sum identities: weighted average-jump sum and product-jump sum.

    On discrete v and w both are flux closure regrouped by cell: with
    closure_c the signed flux sum of cell c (`cell_flux_sums`),
    sum_f omega {v}[v] flux = 1/2 sum_c v_c^2 closure_c and
    sum_f flux [v w] = sum_c v_c w_c closure_c, so they fail only where
    `flux-closure` does.
    """
    mesh, table = scheme.mesh, scheme.table
    rng = np.random.default_rng(seed)
    # every v is drawn before the first w
    fields = rng.uniform(-1.0, 1.0, size=(samples, mesh.n_cells))
    interior = mesh.f_right >= 0
    omega = np.where(interior, 1.0, 0.5)
    dev1, dev2 = np.empty(samples), np.empty(samples)
    for start, w in _field_blocks(rng, samples, mesh.n_cells):
        rows = slice(start, start + len(w))
        mv = face_side_means(scheme, fields[rows])
        jump_v = np.where(interior, mv[..., 0] - mv[..., 1], mv[..., 0])
        avg_v = np.where(interior, 0.5 * (mv[..., 0] + mv[..., 1]), mv[..., 0])
        dev1[rows] = _cancellation(omega * avg_v * table.flux_in * jump_v)
        # free a block's face arrays early: they set the check's peak memory
        del jump_v, avg_v
        mw = face_side_means(scheme, w)
        prod_jump = np.where(
            interior, mv[..., 0] * mw[..., 0] - mv[..., 1] * mw[..., 1], mv[..., 0] * mw[..., 0]
        )
        del mw
        dev2[rows] = _cancellation(table.flux_in * prod_jump)
    return [
        LemmaReport.identity("average-jump-sum", dev1, seed=seed, worst_sample=_argmax(dev1)),
        LemmaReport.identity("product-jump-sum", dev2, seed=seed, worst_sample=_argmax(dev2)),
    ]


def check_algebraic_identity(samples: int = 100_000, seed: int = 0) -> LemmaReport:
    """1/2 A^2 + a B^2 + a A B = 1/2 ((1-a) A^2 + a B^2 + a (A+B)^2)."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(-10.0, 10.0, samples)
    B = rng.uniform(-10.0, 10.0, samples)
    a = rng.uniform(0.0, 1.0, samples)
    lhs = 0.5 * A * A + a * B * B + a * A * B
    rhs = 0.5 * ((1.0 - a) * A * A + a * B * B + a * np.square(A + B))
    scale = 0.5 * A * A + a * B * B + np.abs(a * A * B) + 1e-300
    return LemmaReport.identity(
        "capacity-split-algebra", np.abs(lhs - rhs) / scale, seed=seed, tol=1e-14
    )


def check_inverse_estimate(scheme: DoDScheme, samples: int = 100, seed: int = 0) -> LemmaReport:
    """|w|_beta <= 2 sqrt(C_tr/h) ||w||_L2 for random discrete fields."""
    c = 2.0 * math.sqrt(scheme.c_tr / scheme.h)
    ratios = np.empty(samples)
    for start, w in _field_blocks(np.random.default_rng(seed), samples, scheme.mesh.n_cells):
        ratios[start:start + len(w)] = beta_seminorm(scheme, w) / (c * scheme.l2_norm(w))
    return LemmaReport.inequality("inverse-estimate", ratios, seed=seed,
                                  worst_sample=_argmax(ratios))


def check_boundedness(scheme: DoDScheme, samples: int = 100, seed: int = 0) -> list[LemmaReport]:
    """|a_dod(v, w)| <= |||v|||_* |w|_beta and ||A v|| <= sqrt(C_tr/h)|v|_beta.

    v runs over smooth + discrete: sample k adds the exact snapshot at
    times[(k // 2) % 4] to its random field when k is even.
    """
    n_cells = scheme.mesh.n_cells
    times = np.linspace(0.0, scheme.problem.t_final, 4)
    k = np.arange(samples)
    # the snapshot each sample adds, -1 for none
    snap = np.where(k % 2 == 0, (k // 2) % len(times), -1)
    disc = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(samples, n_cells))
    w = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, size=(samples, n_cells))
    ratios1 = np.empty(samples)
    # snapshot by snapshot, so that each one is evaluated once per point set
    # for up to BLOCK of its samples
    for i in range(-1, len(times)):
        smooth = None if i < 0 else Snapshot(scheme.problem, float(times[i]))
        ids = np.flatnonzero(snap == i)
        for start in range(0, len(ids), BLOCK):
            g = ids[start:start + BLOCK]
            v = (smooth, disc[g])
            means = face_side_means(scheme, v)
            a = bilinear_a_dod(scheme, v, w[g], means)
            bound = triple_star_norm(scheme, v, means) * beta_seminorm(scheme, w[g])
            ratios1[g] = np.abs(a) / np.maximum(bound, 1e-300)
    c = math.sqrt(scheme.c_tr / scheme.h)
    ratios2 = np.empty(samples)
    for start, v in _field_blocks(np.random.default_rng(seed + 2), samples, n_cells):
        ratios2[start:start + len(v)] = (
            scheme.l2_norm(scheme.apply(v)) / np.maximum(c * beta_seminorm(scheme, v), 1e-300)
        )
    worst = _argmax(ratios1)
    worst_time = float(times[snap[worst]]) if worst is not None and snap[worst] >= 0 else None
    return [
        LemmaReport.inequality("boundedness-star", ratios1, seed=seed,
                               worst_sample=worst, worst_time=worst_time),
        LemmaReport.inequality("boundedness-operator", ratios2, seed=seed,
                               worst_sample=_argmax(ratios2)),
    ]


def check_consistency(scheme: DoDScheme, samples: int = 100, seed: int = 0) -> LemmaReport:
    """|J(u(t), w)| <= sqrt(tau h) |beta|_W1inf ||u(t)||_H1 |w|_beta at
    t = 0, T/2 and T, with T the problem's t_final."""
    times = np.linspace(0.0, scheme.problem.t_final, 3).tolist()
    rng = np.random.default_rng(seed)
    factor = math.sqrt(scheme.config.tau * scheme.h) * scheme.velocity.w1inf_norm
    ratios = np.empty(len(times) * samples)  # time-major, as drawn
    for ti, t in enumerate(times):
        u_t = Snapshot(scheme.problem, t)
        bound_t = factor * h1_norm(scheme, u_t)
        w = rng.uniform(-1.0, 1.0, size=(samples, scheme.mesh.n_cells))
        j = bilinear_J(scheme, u_t, w)
        ratios_t = ratios[ti * samples:(ti + 1) * samples]
        for start in range(0, samples, BLOCK):
            rows = slice(start, start + BLOCK)
            semi = beta_seminorm(scheme, w[rows])
            ratios_t[rows] = np.abs(j[rows]) / np.maximum(bound_t * semi, 1e-300)
    worst = _argmax(ratios)
    return LemmaReport.inequality(
        "stabilization-consistency", ratios, seed=seed, times=times,
        worst_sample=None if worst is None else worst % samples,
        worst_time=None if worst is None else times[worst // samples],
    )


def check_projection(
    problem: RampTestProblem,
    config: SchemeConfig,
    n_values: tuple[int, ...] = (16, 32, 64, 128),
    schemes: dict | None = None,
) -> LemmaReport:
    """||u - Pi u|| <= (sqrt2/pi) h ||grad u|| plus the sqrt(h) starred slope."""
    l2_ratios, stars, hs = [], [], []
    cb = math.inf
    for n in n_values:
        scheme = (schemes or {}).get(n) or DoDScheme(problem, config, n)
        u0, proj = scheme.problem.u0, scheme.project_initial()
        grad_norm = math.sqrt(gradient_norm_squared(scheme, u0))
        l2_sq = l2_norm_squared(scheme, (u0, -proj))
        l2_ratios.append(math.sqrt(l2_sq) / ((math.sqrt(2.0) / math.pi) * scheme.h * grad_norm))
        stars.append(triple_star_norm(scheme, (u0, -proj), l2_sq=l2_sq))
        hs.append(scheme.h)
        cb = min(cb, scheme.c_b)
    slope = float(np.polyfit(np.log(hs), np.log(stars), 1)[0])
    rep = LemmaReport.inequality(
        "projection-error", l2_ratios, star_slope=slope, c_b=cb
    )
    rep.passed = rep.passed and 0.4 <= slope <= 0.6
    return rep


def check_energy_decay(
    problem: RampTestProblem,
    config: SchemeConfig,
    n: int,
    steps: int = 200,
) -> LemmaReport:
    """Per-step L2 non-increase of the homogeneous step S = I - dt A (zero
    inflow) under the stability CFL: `steps` products with `step_S` from
    the projected initial data."""
    scheme = DoDScheme(problem, config, n)
    u = scheme.project_initial()
    l2_norms = [scheme.l2_norm(u)]
    for _ in range(steps):
        u = scheme.step_S @ u
        l2_norms.append(scheme.l2_norm(u))
    # norm change on entering state k; the worst step is the one with the largest
    increase = np.diff(l2_norms)
    worst_step = int(np.argmax(increase)) + 1 if steps else 0
    worst = float(increase[worst_step - 1]) if steps else 0.0
    min_alpha = float(scheme.records.alpha.min()) if len(scheme.records) else 1.0
    min_frac = float(scheme.mesh.areas.min()) / scheme.h**2
    # ratio: worst per-step norm increase against the 1e-13 roundoff budget
    rep = LemmaReport.inequality(
        "energy-decay",
        [max(worst, 0.0) / 1e-13],
        tol=0.0,
        steps=steps, min_alpha=min_alpha, min_volume_fraction=min_frac,
        worst_step=worst_step, worst_increase=worst,
    )
    rep.instances = steps
    return rep


def run_all(
    problem: RampTestProblem,
    config: SchemeConfig,
    n_values: tuple[int, ...] = (16, 32),
    samples: int = 100,
    seed: int = 0,
) -> list[LemmaReport]:
    """The full verification sweep used by the CLI `verify` subcommand."""
    reports: list[LemmaReport] = [check_algebraic_identity(seed=seed)]
    schemes = {n: DoDScheme(problem, config, n) for n in n_values}
    for n, scheme in schemes.items():
        tag = f"@n={n}"
        reps = [
            check_incompressibility(scheme),
            check_inverse_trace(scheme),
            check_dissipation(scheme, samples, seed),
            *check_identities(scheme, samples, seed),
            check_inverse_estimate(scheme, samples, seed),
            *check_boundedness(scheme, samples, seed),
            check_consistency(scheme, samples=samples, seed=seed),
        ]
        for r in reps:
            r.lemma_id += tag
        reports.extend(reps)
    # the projection slope needs a refinement ladder of at least three meshes
    ladder = sorted(set(n_values))
    while len(ladder) < 3:
        ladder.append(ladder[-1] * 2)
    reports.append(check_projection(problem, config, tuple(ladder), schemes=schemes))
    reports.append(check_energy_decay(problem, config, max(n_values), steps=100))
    return reports
