"""Legacy ASCII VTK export of cut-cell meshes with cell data."""
from __future__ import annotations

import numpy as np

from .geometry import CutCellMesh, StabilizedCells

_VTK_POLYGON = 7


def write_vtk(path, mesh: CutCellMesh, cell_data: dict | None = None) -> None:
    """Write the mesh as an UNSTRUCTURED_GRID of POLYGON cells.

    `cell_data` maps array names to per-cell values; the mesh arrays
    "kind" (as integer codes), "area", and "alpha" are callers' business.
    """
    # shared corners are bit-identical; number points by first appearance
    points, first, inverse = np.unique(
        mesh.vertices, axis=0, return_index=True, return_inverse=True
    )
    by_appearance = np.argsort(first)
    conn = np.argsort(by_appearance)[inverse.ravel()].tolist()
    ptr = mesh.cell_ptr.tolist()
    n_cells = mesh.n_cells

    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write("cut-cell mesh\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {len(points)} double\n")
        for x, y in points[by_appearance].tolist():
            f.write(f"{x:.16e} {y:.16e} 0.0\n")
        f.write(f"CELLS {n_cells} {len(conn) + n_cells}\n")
        for lo, hi in zip(ptr, ptr[1:]):
            f.write(" ".join(map(str, [hi - lo] + conn[lo:hi])) + "\n")
        f.write(f"CELL_TYPES {n_cells}\n")
        f.write(f"{_VTK_POLYGON}\n" * n_cells)
        if cell_data:
            f.write(f"CELL_DATA {n_cells}\n")
            for name, values in cell_data.items():
                arr = np.asarray(values)
                if arr.dtype.kind in "iu":
                    f.write(f"SCALARS {name} int 1\nLOOKUP_TABLE default\n")
                    for v in arr:
                        f.write(f"{int(v)}\n")
                else:
                    f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                    for v in arr:
                        f.write(f"{float(v):.16e}\n")


def mesh_cell_data(mesh: CutCellMesh, stab: StabilizedCells | None = None, u=None) -> dict:
    """Standard export arrays: kind, area, alpha (1 on unstabilized cells)."""
    alpha = np.ones(mesh.n_cells)
    if stab is not None:
        alpha[stab.cells] = stab.alpha
    data = {
        "kind": mesh.kind_codes.astype(np.int64),
        "area": mesh.areas,
        "alpha": alpha,
    }
    if u is not None:
        data["u"] = np.asarray(u, dtype=float)
    return data
