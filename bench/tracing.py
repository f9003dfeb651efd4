"""Spans around the calls the benchmark makes into each cutdg module.

The tracer replaces public names in the module namespace where they are
looked up (for example `cutdg.discretization.build_mesh`, which is the name
`DoDScheme` calls) with wrappers that record one span per call: name, layer,
start, end and the enclosing span.  Spans stay in memory; `summarize` turns
the spans under chosen root spans into per-layer metrics, and `dump` writes
them out when the run ends.  No file of the package itself changes.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from unittest import mock

import numpy as np

import cutdg.cli as cli
import cutdg.discretization as disc
import cutdg.norms as norms
import cutdg.verify as vf
import cutdg.vtk_io as vtk_io
from cutdg.field import RampTestProblem
from cutdg.geometry import K_CARTESIAN
from metrics import LAYERS

# verify check -> metric stem; checks not listed here are timed only as spans
VERIFY_CHECKS = {
    "check_dissipation": "dissipation",
    "check_identities": "identities",
    "check_inverse_estimate": "inverse_estimate",
    "check_boundedness": "boundedness",
    "check_consistency": "consistency",
    "check_inverse_trace": "inverse_trace",
    "check_projection": "projection",
    "check_energy_decay": "energy_decay",
}


def _mesh_counts(args, kwargs, mesh):
    n = mesh.n
    return {
        "cells": mesh.n_cells,
        "faces": mesh.n_faces,
        "cut_cells": int(np.count_nonzero(mesh.kind_codes != K_CARTESIAN)),
        "background_cells": n * n,
    }


def _apply_bytes(args, kwargs, result):
    m = args[0].matrix  # bytes of A plus one read of v and one write of A v
    return {"apply_bytes": m.data.nbytes + m.indices.nbytes + m.indptr.nbytes + 2 * result.nbytes}


def _exact_points(args, kwargs, result):
    return {"exact_points": int(np.asarray(result).size)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


class Tracer:
    """Record spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        # (name, layer, start, end, parent, root, counts | None)
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][5] if parent >= 0 else len(self.spans)
        sid = len(self.spans)
        self.spans.append((name, layer, 0.0, 0.0, parent, root, None))
        self._stack.append(sid)
        return sid

    def _close(self, sid, start, counts=None):
        end = time.perf_counter()
        self._stack.pop()
        name, layer, _, _, parent, root, _ = self.spans[sid]
        self.spans[sid] = (name, layer, start, end, parent, root, counts)

    @contextlib.contextmanager
    def span(self, name, layer="bench"):
        sid = self._open(name, layer)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self._close(sid, start)

    def wrap(self, fn, name, layer, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name, layer)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, start)
            if count is not None:
                self.spans[sid] = self.spans[sid][:6] + (count(args, kwargs, result),)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        targets = [
            (disc, "build_mesh", "geometry", _mesh_counts),
            (disc, "identify_stabilized", "geometry", lambda a, k, r: {"stabilized_cells": len(r)}),
            (disc, "CellQuadratureTable", "quadrature", lambda a, k, r: {"cell_points": len(r.points)}),
            (disc, "build_face_table", "discretization", None),
            (disc, "assemble_dod_matrix", "discretization", lambda a, k, r: {"nnz": int(r.nnz)}),
            (disc, "estimate_cb", "discretization", None),
            (disc.DoDScheme, "__init__", "discretization", None),
            (disc.DoDScheme, "solve", "discretization", None),
            (disc.DoDScheme, "step", "discretization", None),
            (disc.DoDScheme, "apply", "discretization", _apply_bytes),
            (disc.DoDScheme, "rhs", "discretization", None),
            (disc, "face_side_means", "discretization", None),
            (norms, "face_side_means", "discretization", None),
            (vf, "face_side_means", "discretization", None),
            (RampTestProblem, "exact", "field", _exact_points),
            (norms, "error_breakdown", "norms", None),
            (cli, "error_breakdown", "norms", None),
            (norms, "beta_seminorm", "norms", None),
            (vf, "beta_seminorm", "norms", None),
            (norms, "l2_project", "norms", None),
            (vtk_io, "write_vtk", "vtk_io", _file_bytes),
            (cli, "converge", "cli", None),
        ]
        targets += [(vf, name, "verify", None) for name in VERIFY_CHECKS]
        targets.append((vf, "check_incompressibility", "verify", None))
        with contextlib.ExitStack() as stack:
            for owner, attr, layer, count in targets:
                fn = getattr(owner, attr)
                label = f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr
                stack.enter_context(mock.patch.object(owner, attr, self.wrap(fn, label, layer, count)))
            yield self

    def summarize(self, roots: list[int]) -> dict:
        """Per-layer metrics over the spans under the given root spans."""
        chosen = set(roots)
        ids = [i for i, s in enumerate(self.spans) if s[5] in chosen]
        child_time: dict[int, float] = {}
        for i in ids:
            parent = self.spans[i][4]
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + self.spans[i][3] - self.spans[i][2]

        time_in: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, int] = {}
        self_s = {layer: 0.0 for layer in LAYERS + ("bench",)}
        steps_us = []
        exact_in_breakdown = 0
        for i in ids:
            name, layer, start, end, _, _, extra = self.spans[i]
            dur = end - start
            time_in[name] = time_in.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            self_s[layer] += dur - child_time.get(i, 0.0)
            for key, value in (extra or {}).items():
                counts[key] = counts.get(key, 0) + value
            if name == "DoDScheme.step":
                steps_us.append(dur * 1e6)
            if name == "RampTestProblem.exact" and self._under(i, "error_breakdown"):
                exact_in_breakdown += 1

        def t(name):
            return time_in.get(name, 0.0)

        def c(name):
            return calls.get(name, 0)

        breakdowns = c("error_breakdown")
        out = {
            "build_mesh_s": t("build_mesh"),
            "build_mesh_calls": c("build_mesh"),
            "identify_stabilized_s": t("identify_stabilized"),
            "cells": counts.get("cells", 0),
            "faces": counts.get("faces", 0),
            "cut_cells": counts.get("cut_cells", 0),
            "stabilized_cells": counts.get("stabilized_cells", 0),
            "clipped_fraction": counts.get("cut_cells", 0) / max(counts.get("background_cells", 0), 1),
            "cell_table_s": t("CellQuadratureTable"),
            "cell_points": counts.get("cell_points", 0),
            "face_table_s": t("build_face_table"),
            "assemble_s": t("assemble_dod_matrix"),
            "matrix_nnz": counts.get("nnz", 0),
            "estimate_cb_s": t("estimate_cb"),
            "step_s": t("DoDScheme.step"),
            "steps": c("DoDScheme.step"),
            "step_us_p50": float(np.percentile(steps_us, 50)) if steps_us else 0.0,
            "step_us_p99": float(np.percentile(steps_us, 99)) if steps_us else 0.0,
            "step_samples": len(steps_us),
            "apply_s": t("DoDScheme.apply"),
            "apply_calls": c("DoDScheme.apply"),
            "rhs_inflow_s": t("DoDScheme.rhs"),
            "rhs_calls": c("DoDScheme.rhs"),
            "apply_bytes_computed": counts.get("apply_bytes", 0),
            "exact_s": t("RampTestProblem.exact"),
            "exact_calls": c("RampTestProblem.exact"),
            "exact_points": counts.get("exact_points", 0),
            "error_breakdown_s": t("error_breakdown"),
            "error_breakdown_calls": breakdowns,
            "beta_seminorm_s": t("beta_seminorm"),
            "beta_seminorm_calls": c("beta_seminorm"),
            "face_side_means_calls": c("face_side_means"),
            "l2_project_s": t("l2_project"),
            "exact_evals_per_breakdown": exact_in_breakdown / breakdowns if breakdowns else 0.0,
        }
        for check, stem in VERIFY_CHECKS.items():
            out[f"{stem}_s"] = t(check)
        out["vtk_write_s"] = t("write_vtk")
        out["vtk_bytes"] = counts.get("bytes", 0)
        out["converge_s"] = t("converge")
        for layer, value in self_s.items():
            out[f"{layer}_self_s"] = value
        out["traced_wall_s"] = sum(self.spans[r][3] - self.spans[r][2] for r in roots)
        return out

    def _under(self, sid, name) -> bool:
        parent = self.spans[sid][4]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][4]
        return False

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, layer, start, end, parent, counts."""
        with open(path, "w") as f:
            for name, layer, start, end, parent, _, extra in self.spans:
                f.write(json.dumps([name, layer, start, end, parent, extra]) + "\n")
