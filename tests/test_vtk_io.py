import dataclasses
import math

import numpy as np
import pytest

from cutdg.discretization import build_face_table
from cutdg.geometry import RampDomain, build_mesh, identify_stabilized
from cutdg.quadrature import SegmentRule
from cutdg import vtk_io
from cutdg.vtk_io import mesh_cell_data, write_vtk
from polygon_oracle import cell_vertices
from velocity_fields import constant_velocity

_VTK_POLYGON = 7


def write_vtk_oracle(path, mesh, cell_data=None) -> None:
    """Per-line writer: `np.unique(axis=0)` for the shared corners and one
    Python format and one write per line.  The rule `write_vtk` replaced,
    kept as the byte-for-byte reference."""
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


def read_vtk(path):
    """(points, polygons, cell_data) parsed from a legacy ASCII VTK file."""
    lines = iter(path.read_text().splitlines())
    points, polygons, data = None, None, {}
    for line in lines:
        head = line.split()
        if head[:1] == ["POINTS"]:
            rows = [next(lines).split() for _ in range(int(head[1]))]
            points = np.array([[float(x), float(y)] for x, y, _ in rows])
        elif head[:1] == ["CELLS"]:
            rows = [[int(t) for t in next(lines).split()] for _ in range(int(head[1]))]
            assert all(r[0] == len(r) - 1 for r in rows)
            polygons = [points[r[1:]] for r in rows]
        elif head[:1] == ["CELL_DATA"]:
            n_cells = int(head[1])
        elif head[:1] == ["SCALARS"]:
            assert next(lines) == "LOOKUP_TABLE default"
            cast = int if head[2] == "int" else float
            data[head[1]] = np.array([cast(next(lines)) for _ in range(n_cells)])
    return points, polygons, data


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@pytest.fixture(scope="module")
def meshes(scheme_cache):
    """(mesh, stabilized cells) for a 25 degree ramp, the 45 degree sliver,
    and an 8 x 8 Cartesian grid under a constant velocity."""
    cartesian = build_mesh(RampDomain(gamma=math.radians(30.0), x0=1.0), 8)
    table = build_face_table(cartesian, constant_velocity([1.0, 0.5]), SegmentRule.gauss())
    out = {"cartesian": (cartesian, identify_stabilized(cartesian, table, 1.0))}
    for name, args in (("ramp25", (25.0, 0.2001, 16)), ("sliver45", (45.0, 0.2 + 1e-10, 20))):
        scheme = scheme_cache(*args)
        out[name] = (scheme.mesh, scheme.records)
    # -0.0 on every other zero coordinate: equal to 0.0, so still one point
    mesh, st = out["ramp25"]
    vertices = mesh.vertices.copy()
    zeros = np.flatnonzero(vertices.ravel() == 0.0)
    vertices.ravel()[zeros[1::2]] = -0.0
    out["signed_zero"] = (dataclasses.replace(mesh, vertices=vertices), st)
    return out


def _cell_data(case, mesh, st):
    if case == "none":
        return None
    if case == "mesh":
        return mesh_cell_data(mesh, st)
    u = np.sin(7.0 * np.arange(mesh.n_cells))
    u[:5] = [-0.0, np.nan, np.inf, -np.inf, 0.0]
    return mesh_cell_data(mesh, st, u=u)


@pytest.mark.parametrize("data", ["none", "mesh", "special_u"])
@pytest.mark.parametrize("geometry", ["ramp25", "sliver45", "cartesian", "signed_zero"])
def test_bytes_match_per_line_writer(geometry, data, meshes, tmp_path):
    mesh, st = meshes[geometry]
    cell_data = _cell_data(data, mesh, st)
    write_vtk(tmp_path / "new.vtk", mesh, cell_data)
    write_vtk_oracle(tmp_path / "old.vtk", mesh, cell_data)
    assert (tmp_path / "new.vtk").read_bytes() == (tmp_path / "old.vtk").read_bytes()


def test_block_size_leaves_the_bytes(meshes, tmp_path, monkeypatch):
    # blocks of 3 rows split every section, and mix 3-, 4- and 5-vertex cells
    mesh, st = meshes["ramp25"]
    assert set(np.diff(mesh.cell_ptr).tolist()) == {3, 4, 5}
    assert mesh.n_cells < vtk_io._CHUNK  # one block at the default size
    cell_data = _cell_data("special_u", mesh, st)
    write_vtk(tmp_path / "default.vtk", mesh, cell_data)
    monkeypatch.setattr(vtk_io, "_CHUNK", 3)
    write_vtk(tmp_path / "small.vtk", mesh, cell_data)
    assert (tmp_path / "small.vtk").read_bytes() == (tmp_path / "default.vtk").read_bytes()


@pytest.mark.parametrize("geometry", ["ramp25", "sliver45", "cartesian"])
def test_round_trip(geometry, meshes, tmp_path):
    mesh, st = meshes[geometry]
    cell_data = _cell_data("special_u", mesh, st)
    write_vtk(tmp_path / "m.vtk", mesh, cell_data)
    points, polygons, data = read_vtk(tmp_path / "m.vtk")
    assert len(polygons) == mesh.n_cells
    for c, poly in enumerate(polygons):
        np.testing.assert_array_equal(_bits(poly), _bits(cell_vertices(mesh, c)))
    distinct = set(map(tuple, mesh.vertices.tolist()))
    assert len(points) == len(distinct) == len(set(map(tuple, points.tolist())))
    assert list(data) == list(cell_data)
    for name, values in cell_data.items():
        if np.asarray(values).dtype.kind in "iu":
            np.testing.assert_array_equal(data[name], values)
        else:
            np.testing.assert_array_equal(_bits(data[name]), _bits(values))


@pytest.mark.parametrize("name,values", [
    ("u", lambda n: np.zeros(5)),
    ("kind", lambda n: np.zeros((n, 1), dtype=np.int64)),
    ("my u", np.zeros),
    ("", np.zeros),
])
def test_malformed_cell_data_raises_before_writing(name, values, tmp_path):
    mesh = build_mesh(RampDomain(gamma=math.radians(25.0), x0=0.2001), 8)
    path = tmp_path / "m.vtk"
    with pytest.raises(ValueError, match=repr(name)):
        write_vtk(path, mesh, {"area": mesh.areas, name: values(mesh.n_cells)})
    assert not path.exists()
