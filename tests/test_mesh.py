import numpy as np
import pytest

from gradflux.mesh import (Mesh, MeshFormatError, _check_on_boundary,
                           _square_boundary_distance, mesh_size, read_mesh,
                           sector_mesh, unit_square_mesh, write_mesh)


def test_unit_square_smallest_grid():
    mesh = unit_square_mesh(1)
    assert mesh.n_vertices == 4
    assert mesh.n_triangles == 2
    assert len(mesh.boundary_edges) == 4


def test_unit_square_counts_n2():
    mesh = unit_square_mesh(2)
    assert mesh.n_vertices == 9
    assert mesh.n_triangles == 8
    assert len(mesh.boundary_edges) == 8


def test_unit_square_rejects_zero():
    with pytest.raises(ValueError):
        unit_square_mesh(0)


def test_mesh_size_values():
    assert mesh_size(unit_square_mesh(1)) == pytest.approx(np.sqrt(2))
    assert mesh_size(unit_square_mesh(4)) == pytest.approx(np.sqrt(2) / 4)


def test_mesh_size_reference_triangle():
    mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]),
                np.array([[0, 1], [1, 2], [2, 0]]),
                ["bottom", "right", "left"])
    assert mesh_size(mesh) == pytest.approx(np.sqrt(2))


def test_mesh_size_halves_under_refinement():
    for n in (2, 4, 8):
        h = mesh_size(unit_square_mesh(n))
        h2 = mesh_size(unit_square_mesh(2 * n))
        assert abs(h2 - 0.5 * h) < 1e-12


def test_square_area_sum():
    mesh = unit_square_mesh(7)
    assert abs(mesh.areas.sum() - 1.0) < 1e-10


def test_square_boundary_tags_by_coordinate():
    mesh = unit_square_mesh(3)
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        pts = mesh.vertices[[a, b]]
        if tag == "left":
            assert np.all(pts[:, 0] == 0.0)
        elif tag == "right":
            assert np.all(pts[:, 0] == 1.0)
        elif tag == "bottom":
            assert np.all(pts[:, 1] == 0.0)
        else:
            assert tag == "top" and np.all(pts[:, 1] == 1.0)


def test_sector_mesh_rings_and_grading():
    # ring j at (j/n)^grading with round(psi j) segments
    phi, n, grading = np.pi / 2, 4, 2.0
    psi = 2 * np.pi - phi
    mesh = sector_mesh(phi, n, grading=grading)
    r = np.round(np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1]), 12)
    radii, counts = np.unique(r, return_counts=True)
    assert np.allclose(radii, [0.0] + [(j / n) ** grading
                                       for j in range(1, n + 1)])
    assert list(counts) == [1] + [round(psi * j) + 1
                                  for j in range(1, n + 1)]
    assert mesh.areas.sum() <= psi / 2


def scalar_stitch(vertices, phi, n):
    """The triangles of ``sector_mesh`` stitched one scalar edge length
    at a time: the fan around the corner, then each ring pair front by
    front, closing the triangle whose new edge is not longer."""
    psi = 2.0 * np.pi - phi
    rings, start = [[0]], 1
    for j in range(1, n + 1):
        m = int(round(psi * j))
        rings.append(list(range(start, start + m + 1)))
        start += m + 1

    def length(a, b):
        return float(np.hypot(*(vertices[a] - vertices[b])))

    first = rings[1]
    triangles = [(0, first[i], first[i + 1]) for i in range(len(first) - 1)]
    for inner, outer in zip(rings[1:-1], rings[2:]):
        p, q = len(inner) - 1, len(outer) - 1
        i = k = 0
        while i < p or k < q:
            if i == p or (k < q and length(inner[i], outer[k + 1])
                          <= length(outer[k], inner[i + 1])):
                triangles.append((inner[i], outer[k], outer[k + 1]))
                k += 1
            else:
                triangles.append((inner[i], outer[k], inner[i + 1]))
                i += 1
    return np.array(triangles)


@pytest.mark.parametrize("phi", [np.pi / 4, np.pi / 2, 3 * np.pi / 4])
@pytest.mark.parametrize("n, grading", [(4, 2.0), (8, 2.0), (4, 1.0),
                                        (8, 1.0), (16, 1.0), (32, 1.0),
                                        (64, 1.0)])
def test_sector_mesh_stitch_matches_scalar_stitch(phi, n, grading):
    # the request-stream meshes (grading 2), the acceptance corner sweeps
    # (grading 1) and one size beyond them
    mesh = sector_mesh(phi, n, grading=grading)
    expected = scalar_stitch(mesh.vertices, phi, n)
    assert mesh.triangles.shape == expected.shape
    assert np.array_equal(mesh.triangles, expected)


def test_sector_mesh_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sector_mesh(0.0, 2)
    with pytest.raises(ValueError):
        sector_mesh(np.pi, 2)
    with pytest.raises(ValueError):
        sector_mesh(np.pi / 2, 0)
    with pytest.raises(ValueError):
        sector_mesh(np.pi / 2, 2, grading=0.5)


def test_element_geometry_invariants():
    for mesh in (unit_square_mesh(3),
                 sector_mesh(np.pi / 2, 3, grading=2.0)):
        assert np.all(mesh.jacobian_dets > 0)
        assert np.allclose(mesh.areas, mesh.jacobian_dets / 2)
        assert np.all(mesh.diameters >= np.sqrt(2 * mesh.areas) - 1e-14)


def test_mesh_arrays_frozen():
    mesh = unit_square_mesh(2)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        mesh.triangles[0, 0] = 5


def test_undeclared_single_triangle_edge_rejected():
    # no edge here has more than two triangles; edge (0, 2) bounds only
    # triangle 0 and no boundary edge is declared
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                         [0.5, -1.0]])
    triangles = np.array([[0, 1, 2], [1, 3, 2], [0, 1, 3]])
    with pytest.raises(MeshFormatError,
                       match=r"edge \(0, 2\) bounds a single triangle but "
                             "is not declared"):
        Mesh(vertices, triangles, np.empty((0, 2), dtype=int), [])


def test_undeclared_boundary_edge_rejected():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    triangles = np.array([[0, 1, 2]])
    with pytest.raises(MeshFormatError, match="not declared"):
        Mesh(vertices, triangles, np.array([[0, 1]]), ["bottom"])


def test_clockwise_triangle_rejected():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshFormatError, match="triangle 0"):
        Mesh(vertices, np.array([[0, 2, 1]]), np.empty((0, 2), dtype=int),
             [])


@pytest.mark.parametrize("bad", [(np.nan, 1.0), (0.0, np.inf)])
def test_non_finite_vertex_rejected(bad):
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], bad])
    with pytest.raises(MeshFormatError,
                       match=r"vertex 2 has a non-finite coordinate"):
        Mesh(vertices, np.array([[0, 1, 2]]), np.array([[0, 1], [1, 2],
                                                        [2, 0]]),
             ["bottom", "right", "left"])


def test_write_read_round_trip(tmp_path):
    mesh = unit_square_mesh(2)
    path = tmp_path / "square.mesh"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.boundary_edges, mesh.boundary_edges)
    assert back.boundary_tags == mesh.boundary_tags


def test_read_round_trip_sector(tmp_path):
    mesh = sector_mesh(3 * np.pi / 4, 2, grading=2.0)
    path = tmp_path / "sector.mesh"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)


def test_read_rejects_dangling_index(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("3 1 0\n0 0\n1 0\n0 1\n0 1 7\n")
    with pytest.raises(MeshFormatError, match="line 5"):
        read_mesh(path)


def test_read_rejects_clockwise_triangle(tmp_path):
    path = tmp_path / "cw.mesh"
    path.write_text("3 1 3\n0 0\n1 0\n0 1\n0 2 1\n0 1 bottom\n"
                    "1 2 right\n2 0 left\n")
    with pytest.raises(MeshFormatError, match="triangle 0"):
        read_mesh(path)


def test_read_rejects_nan_coordinate(tmp_path):
    path = tmp_path / "nan.mesh"
    path.write_text("3 1 3\n0 0\n1 0\nnan 1\n0 1 2\n0 1 bottom\n"
                    "1 2 right\n2 0 left\n")
    with pytest.raises(MeshFormatError,
                       match="line 4: vertex 2 has a non-finite coordinate"):
        read_mesh(path)


def test_read_allows_comments(tmp_path):
    path = tmp_path / "comments.mesh"
    path.write_text("# a triangle\n3 1 3\n0 0\n1 0  # vertex\n0 1\n\n"
                    "0 1 2\n0 1 bottom\n1 2 right\n2 0 left\n")
    mesh = read_mesh(path)
    assert mesh.n_triangles == 1


def test_read_reports_wrong_counts(tmp_path):
    path = tmp_path / "short.mesh"
    path.write_text("3 1 0\n0 0\n1 0\n")
    with pytest.raises(MeshFormatError, match="expected"):
        read_mesh(path)


def one_cell_square():
    # two CCW triangles (0, 1, 3) and (0, 3, 2) on the unit square
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return vertices, np.array([[0, 1, 3], [0, 3, 2]])


def test_boundary_edge_listed_twice_rejected():
    vertices, triangles = one_cell_square()
    edges = np.array([[0, 1], [1, 3], [3, 2], [2, 0], [1, 0]])
    tags = ["bottom", "right", "top", "left", "bottom"]
    with pytest.raises(MeshFormatError, match="boundary edge 4 listed twice"):
        Mesh(vertices, triangles, edges, tags)


def test_interior_edge_declared_as_boundary_rejected():
    vertices, triangles = one_cell_square()
    edges = np.array([[0, 1], [1, 3], [3, 2], [2, 0], [3, 0]])
    tags = ["bottom", "right", "top", "left", "bottom"]
    with pytest.raises(MeshFormatError,
                       match="boundary edge 4 = .* does not bound exactly "
                             "one triangle"):
        Mesh(vertices, triangles, edges, tags)


def test_edge_shared_by_three_triangles_message():
    # two triangles above edge (0, 1) and one below it
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0],
                         [0.5, 0.5]])
    triangles = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(MeshFormatError,
                       match="shared by more than two triangles"):
        Mesh(vertices, triangles, np.empty((0, 2), dtype=int), [])


def test_boundary_edge_off_declared_boundary_rejected():
    vertices, triangles = one_cell_square()
    edges = np.array([[0, 1], [1, 3], [3, 2], [2, 0]])
    mesh = Mesh(vertices, triangles, edges, ["bottom", "right", "top", "top"])
    with pytest.raises(MeshFormatError,
                       match=r"boundary edge \(2, 0\) tagged 'top' is off "
                             "the declared boundary by 1.000e\\+00"):
        _check_on_boundary(mesh, _square_boundary_distance)


def test_boundary_edge_elements_at_every_local_position():
    # unit_square_mesh(1) lists bottom, top, left, right; they sit on
    # local edges 0, 1, 2 and 1 of their triangles
    owners = np.asarray(unit_square_mesh(1).boundary_edge_elements())
    assert owners.shape == (4, 2)
    assert owners.tolist() == [[0, 0], [1, 1], [1, 2], [0, 1]]

    mesh = sector_mesh(np.pi / 2, 3, grading=2.0)
    owners = np.asarray(mesh.boundary_edge_elements())
    assert set(owners[:, 1]) == {0, 1, 2}
    for (elem, le), edge in zip(owners, mesh.boundary_edges):
        tri = mesh.triangles[elem]
        assert {tri[le], tri[(le + 1) % 3]} == set(edge)
