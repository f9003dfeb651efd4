"""Names and units of every metric the benchmark reports.

`BENCHMARK.json` lists the same names; the benchmark's tests keep the two in step.
"""

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "check_s": "s",
    "cell_steps_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

_PER_LAYER_GROUPS = {
    "geometry": {"build_mesh_s": "s", "build_mesh_calls": "count", "identify_stabilized_s": "s",
                 "cells": "count", "faces": "count", "cut_cells": "count",
                 "stabilized_cells": "count", "clipped_fraction": "ratio"},
    "quadrature": {"cell_table_s": "s", "cell_points": "count"},
    "discretization": {"face_table_s": "s", "assemble_s": "s", "matrix_nnz": "count",
                       "estimate_cb_s": "s", "step_s": "s", "steps": "count",
                       "step_us_p50": "us", "step_us_p99": "us", "step_samples": "count",
                       "apply_s": "s", "apply_calls": "count", "rhs_inflow_s": "s",
                       "rhs_calls": "count", "apply_bytes_computed": "B"},
    "field": {"exact_s": "s", "exact_calls": "count", "exact_points": "count"},
    "norms": {"error_breakdown_s": "s", "error_breakdown_calls": "count",
              "beta_seminorm_s": "s", "beta_seminorm_calls": "count",
              "face_side_means_calls": "count", "l2_project_s": "s",
              "exact_evals_per_breakdown": "ratio"},
    "verify": {"dissipation_s": "s", "identities_s": "s", "inverse_estimate_s": "s",
               "boundedness_s": "s", "consistency_s": "s", "inverse_trace_s": "s",
               "projection_s": "s", "energy_decay_s": "s", "instances": "count"},
    "vtk_io": {"vtk_write_s": "s", "vtk_bytes": "B"},
    "cli": {"converge_s": "s"},
}

LAYERS = tuple(_PER_LAYER_GROUPS)

PER_LAYER = {name: unit for group in _PER_LAYER_GROUPS.values() for name, unit in group.items()}
PER_LAYER.update({f"{layer}_self_s": "s" for layer in LAYERS + ("bench",)})
PER_LAYER.update({"traced_wall_s": "s", "untraced_wall_s": "s", "trace_overhead_s": "s"})
