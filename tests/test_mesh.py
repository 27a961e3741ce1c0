import sys
import threading

import numpy as np
import pytest

from gradflux.mesh import (Mesh, MeshFormatError, _check_on_boundary,
                           _square_boundary_distance, mesh_size, sector_mesh,
                           unit_square_mesh)


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
    assert abs(mesh.jacobian_dets.sum() / 2 - 1.0) < 1e-10


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
    assert mesh.jacobian_dets.sum() / 2 <= psi / 2


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
        p = mesh.vertices[mesh.triangles]
        jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
        assert np.array_equal(mesh.jacobians, jac)
        assert np.all(mesh.jacobian_dets > 0)
        assert np.allclose(mesh.jacobian_dets, np.linalg.det(jac),
                           rtol=1e-13, atol=0)
        assert np.allclose(mesh.inverse_jacobians_t,
                           np.swapaxes(np.linalg.inv(jac), 1, 2),
                           rtol=1e-13, atol=1e-13)
        sides = [np.hypot(*(p[:, (i + 1) % 3] - p[:, i]).T)
                 for i in range(3)]
        assert np.allclose(mesh.diameters, np.max(sides, axis=0),
                           rtol=1e-14, atol=0)
        assert np.all(mesh.diameters >= np.sqrt(mesh.jacobian_dets) - 1e-14)
        assert np.allclose(mesh.centroids, p.mean(axis=1), rtol=0,
                           atol=1e-15)


def test_mesh_arrays_frozen():
    mesh = unit_square_mesh(2)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        mesh.triangles[0, 0] = 5
    derived = [mesh.jacobians, mesh.jacobian_dets, mesh.inverse_jacobians_t,
               mesh.diameters, mesh.centroids, mesh.edges,
               mesh.triangle_edges, mesh.boundary_edge_elements]
    derived += [arr for pair in mesh.boundary_by_tag.values()
                for arr in pair]
    for arr in derived:
        assert not arr.flags.writeable
    with pytest.raises(TypeError):
        mesh.boundary_by_tag["left"] = mesh.boundary_by_tag["right"]


def test_mesh_copies_the_arrays_it_freezes():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    t = np.array([[0, 1, 2]], dtype=np.int64)
    e = np.array([[0, 1], [1, 2], [2, 0]], dtype=np.int64)
    mesh = Mesh(v, t, e, ["bottom", "right", "left"])
    for given, held in ((v, mesh.vertices), (t, mesh.triangles),
                        (e, mesh.boundary_edges)):
        assert given.flags.writeable and not held.flags.writeable
        assert held is not given and not np.shares_memory(held, given)
    v[1, 0] = 2.0                      # the caller's array stays its own
    assert mesh.vertices[1, 0] == 1.0


def test_derived_arrays_are_computed_once_and_shared_between_threads():
    # a fresh mesh read from more threads than cores at once: every
    # thread sees the arrays a single thread computes
    reference = unit_square_mesh(12)
    names = ("jacobians", "jacobian_dets", "inverse_jacobians_t",
             "diameters", "centroids", "edges", "triangle_edges",
             "boundary_edge_elements")
    expected = {name: getattr(reference, name) for name in names}
    mesh = unit_square_mesh(12)
    seen = []

    def read():
        seen.append({name: getattr(mesh, name) for name in names[::-1]}
                    | {"by_tag": dict(mesh.boundary_by_tag)})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 8
    for got in seen:
        for name in names:
            assert np.array_equal(got[name], expected[name]), name
        assert list(got["by_tag"]) == list(reference.boundary_by_tag)
        for tag, (elem, le) in got["by_tag"].items():
            assert np.array_equal(elem, reference.boundary_by_tag[tag][0])
            assert np.array_equal(le, reference.boundary_by_tag[tag][1])


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


def one_cell_square():
    # two CCW triangles (0, 1, 3) and (0, 3, 2) on the unit square
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return vertices, np.array([[0, 1, 3], [0, 3, 2]])


def one_cell_data(**changes):
    """Constructor arguments of the valid one-cell square, as lists, with
    ``changes`` applied."""
    vertices, triangles = one_cell_square()
    data = {"vertices": vertices.tolist(), "triangles": triangles.tolist(),
            "boundary_edges": [[0, 1], [1, 3], [3, 2], [2, 0]],
            "boundary_tags": ["bottom", "right", "top", "left"]}
    data.update(changes)
    return data


def test_one_cell_data_is_a_valid_mesh():
    mesh = Mesh(**one_cell_data(triangles=[[0, 1, 3.0], [0, 3, 2]]))
    assert mesh.triangles.dtype == np.int64
    assert mesh.triangles.tolist() == [[0, 1, 3], [0, 3, 2]]


@pytest.mark.parametrize("changes, message", [
    pytest.param({"vertices": [[0.0], [1.0], [0.0], [1.0]]},
                 "vertex array must have shape (nv, 2), got (4, 1)",
                 id="vertex-shape"),
    pytest.param({"vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                               [1.0, np.nan]]},
                 "vertex 3 has a non-finite coordinate [1.0, nan]",
                 id="non-finite-vertex"),
    pytest.param({"triangles": [[0, 1], [0, 3]]},
                 "triangle array must have shape (n, 3), got (2, 2)",
                 id="triangle-shape"),
    pytest.param({"triangles": [[0, 1, 3], [0, 3, 2.7]]},
                 "triangle 1 = [0.0, 3.0, 2.7] has a vertex index that is "
                 "not an integer", id="fractional-triangle-index"),
    pytest.param({"triangles": [[0, 1, np.inf], [0, 3, 2]]},
                 "triangle 0 = [0.0, 1.0, inf] has a vertex index that is "
                 "not an integer", id="infinite-triangle-index"),
    pytest.param({"triangles": [[0, 1, 3], [0, 3, 7]]},
                 "triangle 1 = [0, 3, 7] references a vertex out of range "
                 "(mesh has 4 vertices)", id="triangle-index-out-of-range"),
    pytest.param({"triangles": [[0, 1, -1], [0, 3, 2]]},
                 "triangle 0 = [0, 1, -1] references a vertex out of range",
                 id="negative-triangle-index"),
    pytest.param({"triangles": [[0, 1, 3], [0, 2, 3]]},
                 "triangle 1 is not counter-clockwise",
                 id="clockwise-triangle"),
    pytest.param({"boundary_edges": [[0, 1, 3], [1, 3, 2], [3, 2, 0]],
                  "boundary_tags": ["bottom", "right", "top"]},
                 "boundary edge array must have shape (n, 2), got (3, 3)",
                 id="boundary-edge-shape-3x3"),
    pytest.param({"boundary_edges": [0, 1], "boundary_tags": ["bottom"]},
                 "boundary edge array must have shape (n, 2), got (2,)",
                 id="boundary-edge-shape-flat"),
    pytest.param({"boundary_edges": [[0, 1], [1, 3.5], [3, 2], [2, 0]]},
                 "boundary edge 1 = [1.0, 3.5] has a vertex index that is "
                 "not an integer", id="fractional-boundary-edge-index"),
    pytest.param({"boundary_tags": ["bottom", "right", "top"]},
                 "3 boundary tags for 4 boundary edges; one tag required "
                 "per boundary edge", id="tag-count"),
    pytest.param({"boundary_tags": ["bottom", "right", "north", "left"]},
                 "boundary edge 2 has unknown tag 'north'",
                 id="unknown-tag"),
    pytest.param({"boundary_edges": [[0, 1], [1, 3], [3, 2], [2, 4]]},
                 "boundary edge 3 = [2, 4] references a vertex out of range "
                 "(mesh has 4 vertices)",
                 id="boundary-edge-index-out-of-range"),
])
def test_invalid_mesh_is_rejected_naming_the_item(changes, message):
    with pytest.raises(MeshFormatError) as err:
        Mesh(**one_cell_data(**changes))
    assert str(err.value).startswith(message)


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
    owners = np.asarray(unit_square_mesh(1).boundary_edge_elements)
    assert owners.shape == (4, 2)
    assert owners.tolist() == [[0, 0], [1, 1], [1, 2], [0, 1]]

    mesh = sector_mesh(np.pi / 2, 3, grading=2.0)
    owners = np.asarray(mesh.boundary_edge_elements)
    assert set(owners[:, 1]) == {0, 1, 2}
    for (elem, le), edge in zip(owners, mesh.boundary_edges):
        tri = mesh.triangles[elem]
        assert {tri[le], tri[(le + 1) % 3]} == set(edge)


@pytest.mark.parametrize("make_mesh", [
    lambda: unit_square_mesh(3),
    lambda: sector_mesh(np.pi / 2, 3, grading=2.0),
])
def test_boundary_by_tag_holds_each_tags_owner_edges(make_mesh):
    mesh = make_mesh()
    tags = list(dict.fromkeys(mesh.boundary_tags))
    assert list(mesh.boundary_by_tag) == tags
    for tag, (elem, le) in mesh.boundary_by_tag.items():
        # the edges of a tag, in boundary-edge order, each from its owner
        edges = mesh.boundary_edges[np.asarray(mesh.boundary_tags) == tag]
        assert len(elem) == len(le) == len(edges)
        tri = mesh.triangles[elem]
        ends = np.column_stack([tri[np.arange(len(le)), le],
                                tri[np.arange(len(le)), (le + 1) % 3]])
        assert np.array_equal(np.sort(ends, axis=1), np.sort(edges, axis=1))


def loop_square_mesh(n):
    """The vertices, triangles, boundary edges and tags of
    ``unit_square_mesh(n)`` built cell by cell and edge by edge."""
    coords = np.arange(n + 1) / n
    xs, ys = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([xs.ravel(), ys.ravel()])

    def vid(i, j):
        # row i (y), column j (x)
        return i * (n + 1) + j

    triangles = []
    for i in range(n):
        for j in range(n):
            ll, lr = vid(i, j), vid(i, j + 1)
            ul, ur = vid(i + 1, j), vid(i + 1, j + 1)
            triangles.append((ll, lr, ur))
            triangles.append((ll, ur, ul))
    edges, tags = [], []
    for j in range(n):
        edges += [(vid(0, j), vid(0, j + 1)), (vid(n, j), vid(n, j + 1))]
        tags += ["bottom", "top"]
    for i in range(n):
        edges += [(vid(i, 0), vid(i + 1, 0)), (vid(i, n), vid(i + 1, n))]
        tags += ["left", "right"]
    return vertices, np.array(triangles), np.array(edges), tuple(tags)


@pytest.mark.parametrize("n", list(range(1, 13)) + [47])
def test_unit_square_mesh_matches_loop_reference(n):
    mesh = unit_square_mesh(n)
    vertices, triangles, edges, tags = loop_square_mesh(n)
    assert mesh.vertices.tobytes() == vertices.tobytes()
    assert mesh.triangles.dtype == np.int64
    assert mesh.triangles.tobytes() == triangles.astype(np.int64).tobytes()
    assert mesh.triangles.shape == triangles.shape
    assert mesh.boundary_edges.tobytes() == edges.astype(np.int64).tobytes()
    assert mesh.boundary_edges.shape == edges.shape
    assert mesh.boundary_tags == tags
