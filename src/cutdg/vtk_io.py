"""Legacy ASCII VTK export of cut-cell meshes with cell data.

Each section is formatted and written in blocks of `_CHUNK` rows, so the
text held in memory at once does not grow with the mesh.
"""
from __future__ import annotations

import numpy as np

from .geometry import CutCellMesh, StabilizedCells

_VTK_POLYGON = 7
_CHUNK = 1 << 13  # rows (points, cells or values) formatted per write


def _check_cell_data(cell_data: dict, n_cells: int) -> None:
    """Reject what would make a malformed file: a name that is not one
    whitespace-free token, or an array that is not one value per cell."""
    for name, values in cell_data.items():
        if str(name).split() != [str(name)]:
            raise ValueError(f"cell_data name {name!r} must be one token without whitespace")
        shape = np.shape(values)
        if shape != (n_cells,):
            raise ValueError(f"cell_data {name!r} has shape {shape}, expected ({n_cells},)")


def _shared_points(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct corners numbered by first appearance, and the point number
    of every vertex row.  Shared corners are bit-identical, so equal rows
    are runs after one stable sort by (x, y)."""
    order = np.lexsort((vertices[:, 1], vertices[:, 0]))
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for k in (0, 1):  # one coordinate at a time, to hold one sorted column
        ranked = vertices[order, k]
        new[1:] |= ranked[1:] != ranked[:-1]
    del ranked
    # the sort is stable, so each run starts at its first appearance
    first = np.empty_like(order)
    first[order] = order[new][np.cumsum(new) - 1]
    del order, new
    is_first = first == np.arange(len(first))
    return vertices[is_first], (np.cumsum(is_first) - 1)[first]


def _format_values(values: np.ndarray, fmt: str) -> np.ndarray:
    """`fmt % v` of every value, as an object array of the same shape.  Each
    distinct value is formatted once; doubles are told apart by their bit
    pattern, so -0.0 and nan print as a per-value format prints them."""
    if values.dtype == np.float64:
        bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
        distinct = bits.view(np.float64)
    else:
        distinct, inverse = np.unique(values, return_inverse=True)
    text = (fmt + "\n") * len(distinct) % tuple(distinct.tolist())
    return np.array(text.splitlines(), dtype=object)[inverse.reshape(values.shape)]


def _rows(*columns) -> str:
    """The columns (per-row strings or one shared string) joined row by row."""
    table = np.empty((len(columns[0]), len(columns)), dtype=object)
    for j, column in enumerate(columns):
        table[:, j] = column
    return "".join(table.ravel().tolist())


def _blocks(n: int):
    """Slices of at most `_CHUNK` rows that cover range(n) in order."""
    return (slice(start, min(start + _CHUNK, n)) for start in range(0, n, _CHUNK))


def _cell_lines(cell_ptr: np.ndarray, conn: np.ndarray) -> str:
    """One `k p_1 ... p_k` line per cell of `cell_ptr` (offsets into
    `conn`, which need not start at 0); one format per vertex count k."""
    counts = np.diff(cell_ptr)
    lines = np.empty(len(counts), dtype=object)
    for k in np.unique(counts).tolist():
        cells = np.flatnonzero(counts == k)
        rows = np.column_stack([np.full(len(cells), k), conn[cell_ptr[cells, None] + np.arange(k)]])
        text = ("%d" + " %d" * k + "\n") * len(cells) % tuple(rows.ravel().tolist())
        lines[cells] = text.splitlines(keepends=True)
    return "".join(lines.tolist())


def write_vtk(path, mesh: CutCellMesh, cell_data: dict | None = None) -> None:
    """Write the mesh as an UNSTRUCTURED_GRID of POLYGON cells.

    `cell_data` maps array names to per-cell values; the mesh arrays
    "kind" (as integer codes), "area", and "alpha" are callers' business.
    Integer arrays are written as int, all others as double.  A name with
    whitespace or an array of the wrong length raises ValueError before the
    file is opened.
    """
    n_cells = mesh.n_cells
    if cell_data:
        _check_cell_data(cell_data, n_cells)
    points, conn = _shared_points(mesh.vertices)

    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\n"
                "cut-cell mesh\n"
                "ASCII\n"
                "DATASET UNSTRUCTURED_GRID\n"
                f"POINTS {len(points)} double\n")
        for rows in _blocks(len(points)):
            xy = _format_values(points[rows], "%.16e")
            f.write(_rows(xy[:, 0], " ", xy[:, 1], " 0.0\n"))
        f.write(f"CELLS {n_cells} {len(conn) + n_cells}\n")
        for rows in _blocks(n_cells):
            f.write(_cell_lines(mesh.cell_ptr[rows.start:rows.stop + 1], conn))
        f.write(f"CELL_TYPES {n_cells}\n")
        for rows in _blocks(n_cells):
            f.write(f"{_VTK_POLYGON}\n" * (rows.stop - rows.start))
        if cell_data:
            f.write(f"CELL_DATA {n_cells}\n")
            for name, values in cell_data.items():
                arr = np.asarray(values)
                if arr.dtype.kind in "iu":
                    kind, fmt = "int", "%d"
                else:
                    arr = np.ascontiguousarray(arr, dtype=np.float64)
                    kind, fmt = "double", "%.16e"
                f.write(f"SCALARS {name} {kind} 1\nLOOKUP_TABLE default\n")
                for rows in _blocks(n_cells):
                    f.write(_rows(_format_values(arr[rows], fmt), "\n"))


def mesh_cell_data(mesh: CutCellMesh, stab: StabilizedCells, u=None) -> dict:
    """Standard export arrays: kind, area, alpha (1 on unstabilized cells)."""
    data = {
        "kind": mesh.kind_codes.astype(np.int64),
        "area": mesh.areas,
        "alpha": stab.capacity(mesh.n_cells),
    }
    if u is not None:
        data["u"] = np.asarray(u, dtype=float)
    return data
