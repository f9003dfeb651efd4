#!/usr/bin/env python3
"""Memory of each stage of one scheme: mesh, face table, scheme, solve, VTK.

Traces numpy's allocations with tracemalloc around each stage and writes
scheme_memory.json: per stage, `peak_mib` (the most the stage held at once
beyond what was allocated before it) and `kept_mib` (what it still holds
when it returns).  The solve runs 2.5 time steps, so that its last step is
a shortened one; the VTK file goes to the null device.  At 25 degrees,
n = 1024 the scheme stage gates the n = 512 convergence ladder.
"""
import argparse
import json
import os
import resource
import sys
import tracemalloc
from pathlib import Path

from cutdg.discretization import DoDScheme, SchemeConfig, build_face_table
from cutdg.field import make_ramp_problem
from cutdg.geometry import build_mesh
from cutdg.quadrature import SegmentRule
from cutdg.vtk_io import mesh_cell_data, write_vtk

MIB = 2.0 ** 20


def traced(stages: dict, name: str, fn):
    """Call fn(), record its peak and kept MiB under `name`, return its result."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = fn()
    current, peak = tracemalloc.get_traced_memory()
    stages[name] = {"peak_mib": (peak - before) / MIB, "kept_mib": (current - before) / MIB}
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma", type=float, default=25.0, help="ramp angle in degrees")
    ap.add_argument("--n", type=int, default=256, help="cells per side")
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    problem = make_ramp_problem(args.gamma, 0.2001)
    config = SchemeConfig()
    stages: dict = {}
    tracemalloc.start()
    mesh = traced(stages, "build_mesh", lambda: build_mesh(problem.ramp, args.n))
    rule = SegmentRule.gauss(config.face_order)
    table = traced(stages, "build_face_table", lambda: build_face_table(mesh, problem.velocity, rule))
    del mesh, table
    scheme = traced(stages, "DoDScheme", lambda: DoDScheme(problem, config, args.n))
    result = traced(stages, "solve", lambda: scheme.solve(t_final=2.5 * scheme.dt))
    data = mesh_cell_data(scheme.mesh, scheme.records, u=result.u)
    traced(stages, "write_vtk", lambda: write_vtk(os.devnull, scheme.mesh, data))
    tracemalloc.stop()

    report = {
        "gamma_deg": args.gamma,
        "n": args.n,
        "cells": scheme.mesh.n_cells,
        "faces": scheme.mesh.n_faces,
        "stages": stages,
        "max_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    path = outdir / "scheme_memory.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    for name, s in stages.items():
        print(f"{name:17s} peak {s['peak_mib']:9.1f} MiB  kept {s['kept_mib']:9.1f} MiB")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
