"""Triangular meshes of the unit square and of circular-sector domains.

Meshes are plain vertex/triangle/boundary-edge containers and the one
owner of every array derived from them: the Jacobians of the map from
the reference triangle, their determinants and inverse transposes, the
element diameters and centroids, the edge table and the boundary edges
by tag.  All triangles are stored counter-clockwise and every array is
read-only, so a mesh can be shared freely between threads.
"""

import functools
import types

import numpy as np

# Tags a boundary edge may carry.  Square domains use the first four,
# sector domains the last three.
BOUNDARY_TAGS = (
    "left",
    "right",
    "bottom",
    "top",
    "wedge_edge_0",
    "wedge_edge_1",
    "arc",
)

_GEOM_TOL = 1e-12


class MeshFormatError(ValueError):
    """Raised when mesh data fails validation; the message names the
    offending vertex, triangle, boundary edge or tag."""


class Mesh:
    """Immutable 2D triangulation with tagged boundary edges.

    Parameters
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Vertex indices, counter-clockwise.
    boundary_edges : (nb, 2) int array
        Vertex pairs lying on the domain boundary.
    boundary_tags : sequence of str, length nb
        One tag from ``BOUNDARY_TAGS`` per boundary edge.

    Every mesh is validated on construction: one that is not a valid
    edge-manifold triangulation with its boundary declared raises
    MeshFormatError.  Every array derived from the mesh is a cached
    property, computed on first use and read-only.
    """

    def __init__(self, vertices, triangles, boundary_edges, boundary_tags):
        # copies, so that freezing them leaves the caller's arrays alone
        self.vertices = np.array(vertices, dtype=float, order="C")
        edges = np.asarray(boundary_edges)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        self.triangles = _index_array(triangles, 3, "triangle")
        self.boundary_edges = _index_array(edges, 2, "boundary edge")
        self.boundary_tags = tuple(boundary_tags)
        self._validate()
        for arr in (self.vertices, self.triangles, self.boundary_edges):
            arr.flags.writeable = False

    # ------------------------------------------------------------------
    # validation

    def _validate(self):
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshFormatError(f"vertex array must have shape (nv, 2), "
                                  f"got {self.vertices.shape}")
        nv = len(self.vertices)
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if bad.size:
            raise MeshFormatError(
                f"vertex {bad[0]} has a non-finite coordinate "
                f"{self.vertices[bad[0]].tolist()}")
        if len(self.boundary_tags) != len(self.boundary_edges):
            raise MeshFormatError(
                f"{len(self.boundary_tags)} boundary tags for "
                f"{len(self.boundary_edges)} boundary edges; one tag "
                "required per boundary edge")
        unknown = np.flatnonzero(~np.isin(
            np.asarray(self.boundary_tags, dtype=str), BOUNDARY_TAGS))
        if unknown.size:
            raise MeshFormatError(f"boundary edge {unknown[0]} has unknown "
                                  f"tag {self.boundary_tags[unknown[0]]!r}")
        for item, arr in (("triangle", self.triangles),
                          ("boundary edge", self.boundary_edges)):
            bad = np.flatnonzero(((arr < 0) | (arr >= nv)).any(axis=1))
            if bad.size:
                raise MeshFormatError(
                    f"{item} {bad[0]} = {arr[bad[0]].tolist()} references "
                    f"a vertex out of range (mesh has {nv} vertices)")

        signed = 0.5 * self.jacobian_dets
        if np.any(signed <= 0.0):
            bad = int(np.argmin(signed))
            raise MeshFormatError(
                f"triangle {bad} is not counter-clockwise "
                f"(signed area {signed[bad]:.3e})")

        # Edge-manifold check: interior edges touch two triangles,
        # boundary edges exactly one, and the declared boundary list must
        # match the set of single-triangle edges.
        _, edges, _, counts = self._edge_table
        over = np.flatnonzero(counts > 2)
        if over.size:
            raise MeshFormatError(f"edge {_pair(edges[over[0]])} is shared "
                                  "by more than two triangles")
        number = self._boundary_numbers
        # an edge listed twice that no triangle has (-1) is reported at
        # its first listing, which fails bounds_one
        first = np.zeros(len(number), dtype=bool)
        first[np.unique(number, return_index=True)[1]] = True
        bounds_one = np.append(counts, 0)[number] == 1    # -1 reads 0
        bad = np.flatnonzero(~first | ~bounds_one)
        if bad.size:
            i = bad[0]
            if not first[i]:
                raise MeshFormatError(f"boundary edge {i} listed twice")
            raise MeshFormatError(
                f"boundary edge {i} = {_pair(self.boundary_edges[i])} does "
                "not bound exactly one triangle")
        declared = np.zeros(len(edges), dtype=bool)
        declared[number] = True
        lonely = np.flatnonzero((counts == 1) & ~declared)
        if lonely.size:
            raise MeshFormatError(
                f"edge {_pair(edges[lonely[0]])} bounds a single triangle "
                "but is not declared as a boundary edge")

    # ------------------------------------------------------------------
    # sizes

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    # ------------------------------------------------------------------
    # element geometry

    @functools.cached_property
    def jacobians(self):
        """(nt, 2, 2) reference-to-physical Jacobians."""
        v, t = self.vertices, self.triangles
        p0 = v[t[:, 0]]
        return _frozen(np.stack([v[t[:, 1]] - p0, v[t[:, 2]] - p0],
                                axis=-1))

    @functools.cached_property
    def jacobian_dets(self):
        """(nt,) det J, twice the area of each triangle."""
        jac = self.jacobians
        return _frozen(jac[:, 0, 0] * jac[:, 1, 1]
                       - jac[:, 0, 1] * jac[:, 1, 0])

    @functools.cached_property
    def inverse_jacobians_t(self):
        """(nt, 2, 2) J^-T, which maps reference gradients to physical
        ones: the cofactor matrix over det J."""
        cofactors = self.jacobians[:, ::-1, ::-1] * [[1.0, -1.0],
                                                     [-1.0, 1.0]]
        return _frozen(cofactors / self.jacobian_dets[:, None, None])

    @functools.cached_property
    def diameters(self):
        """(nt,) element diameters h_K: the longest edge."""
        p = self.vertices[self.triangles]
        sides = np.linalg.norm(np.roll(p, -1, axis=1) - p, axis=2)
        return _frozen(sides.max(axis=1))

    @functools.cached_property
    def centroids(self):
        return _frozen(self.vertices[self.triangles].mean(axis=1))

    # ------------------------------------------------------------------
    # edge table (used by CG dof maps and boundary conditions)
    #
    # Local edges are numbered 0: (v0,v1), 1: (v1,v2), 2: (v2,v0), so each
    # runs counter-clockwise around its triangle.

    @functools.cached_property
    def _edge_table(self):
        """(keys, edges, triangle_edges, counts) of the unique edges."""
        pairs = self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        keys, inverse, counts = np.unique(
            _edge_keys(pairs, self.n_vertices), return_inverse=True,
            return_counts=True)
        edges = np.column_stack(np.divmod(keys, self.n_vertices))
        return tuple(map(_frozen, (keys, edges, inverse.reshape(-1, 3),
                                   counts)))

    @property
    def edges(self):
        """Sorted (a < b) unique edges, lexicographic order."""
        return self._edge_table[1]

    @property
    def triangle_edges(self):
        """(nt, 3) edge number of each local edge."""
        return self._edge_table[2]

    @functools.cached_property
    def _boundary_numbers(self):
        """Edge number of each boundary edge, -1 if no triangle has it."""
        known = self._edge_table[0]
        keys = _edge_keys(self.boundary_edges, self.n_vertices)
        pos = np.searchsorted(known, keys)
        hit = pos < len(known)
        hit[hit] = known[pos[hit]] == keys[hit]
        return _frozen(np.where(hit, pos, -1))

    @functools.cached_property
    def boundary_edge_elements(self):
        """(nb, 2) int array: (triangle index, local edge index) of each
        boundary edge."""
        # last writer wins; a boundary edge has one writer only
        slot = np.empty(len(self.edges), dtype=np.int64)
        slot[self.triangle_edges.ravel()] = np.arange(
            self.triangle_edges.size)
        return _frozen(np.column_stack(
            np.divmod(slot[self._boundary_numbers], 3)))

    @functools.cached_property
    def boundary_by_tag(self):
        """{tag: (elements, local edges)} of the boundary edges, tags in
        order of first appearance, edges in boundary-edge order."""
        tags = np.asarray(self.boundary_tags)
        owners = self.boundary_edge_elements
        return types.MappingProxyType({
            tag: tuple(map(_frozen, owners[tags == tag].T))
            for tag in dict.fromkeys(self.boundary_tags)})


def _index_array(values, width, item):
    """``values`` as a new contiguous (n, width) int64 array of vertex
    indices.  A wrong shape, or a float index that is not whole, raises
    MeshFormatError naming the first offending ``item``."""
    raw = np.asarray(values)
    if raw.ndim != 2 or raw.shape[1] != width:
        raise MeshFormatError(f"{item} array must have shape (n, {width}), "
                              f"got {raw.shape}")
    if raw.dtype.kind == "f":
        whole = np.isfinite(raw) & (raw == np.round(raw))
        bad = np.flatnonzero(~whole.all(axis=1))
        if bad.size:
            raise MeshFormatError(f"{item} {bad[0]} = {raw[bad[0]].tolist()} "
                                  "has a vertex index that is not an integer")
    return np.array(raw, dtype=np.int64, order="C")


def _edge_keys(pairs, n_vertices):
    """Flat key lo * nv + hi of each vertex pair; keys sort like the
    sorted pairs."""
    return pairs.min(axis=1) * n_vertices + pairs.max(axis=1)


def _pair(edge):
    a, b = sorted(int(v) for v in edge)
    return f"({a}, {b})"


def _frozen(arr):
    arr.flags.writeable = False
    return arr


# ----------------------------------------------------------------------
# generators


def unit_square_mesh(n):
    """Structured triangulation of [0, 1]^2 with 2*n^2 triangles.

    Each grid cell is split along its lower-left to upper-right diagonal
    so the mesh is bit-reproducible.  Boundary edges are tagged
    left/right/bottom/top.
    """
    if n < 1:
        raise ValueError(f"grid count must be >= 1, got {n}")
    n = int(n)
    coords = np.arange(n + 1) / n
    xs, ys = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([xs.ravel(), ys.ravel()])
    # vertex (i, j) of row i (y) and column j (x) is i * (n + 1) + j;
    # cell (i, j), row by row, has lower-left vertex ll
    ll = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    lr, ul, ur = ll + 1, ll + n + 1, ll + n + 2
    triangles = np.stack([ll, lr, ur, ll, ur, ul], axis=1).reshape(-1, 3)
    bottom = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    top = bottom + n * (n + 1)
    left = bottom * (n + 1)
    right = left + n
    edges = np.stack([bottom, top, left, right], axis=1)   # (n, 4, 2)
    edges = np.concatenate([edges[:, :2], edges[:, 2:]]).reshape(-1, 2)
    tags = ("bottom", "top") * n + ("left", "right") * n
    mesh = Mesh(vertices, triangles, edges, tags)
    _check_on_boundary(mesh, _square_boundary_distance)
    return mesh


def sector_mesh(phi, n, grading=1.0):
    """Shape-regular triangulation of a circular sector of radius 1 with
    a re-entrant corner at the origin.

    The sector opens over theta in [0, psi] with psi = 2*pi - phi.  Ring
    j = 1..n sits at r_j = (j / n)**grading, so grading = 1 is uniform and
    grading > 1 refines toward the corner.  Ring j carries round(psi * j)
    equal angular segments: the angular resolution grows with the radius,
    where a polar layout with the same count on every ring degenerates
    into slivers next to the corner.  Neighbouring rings are stitched
    front by front, each step closing the triangle whose new edge is the
    shorter of the two candidates, so the element diameter/inradius ratio
    is bounded independently of n for a fixed grading.  The outer circle
    is split into round(psi * n) chords tagged "arc"; the straight edges
    are tagged "wedge_edge_0" (theta = 0) and "wedge_edge_1"
    (theta = psi).
    """
    if not 0.0 < phi < np.pi:
        raise ValueError(f"corner angle must lie in (0, pi), got {phi}")
    if n < 1:
        raise ValueError(f"ring count must be >= 1, got {n}")
    if grading < 1.0:
        raise ValueError(f"grading must be >= 1, got {grading}")
    n = int(n)
    psi = 2.0 * np.pi - phi

    vertices = [(0.0, 0.0)]
    rings = [[0]]            # vertex ids per ring, ordered by angle
    for j in range(1, n + 1):
        r = (j / n) ** grading
        m = int(round(psi * j))      # >= 3, as psi > pi
        thetas = psi * np.arange(m + 1) / m
        cos_t, sin_t = np.cos(thetas), np.sin(thetas)
        # Pin the first ray exactly onto the boundary ray theta = 0.
        cos_t[0], sin_t[0] = 1.0, 0.0
        start = len(vertices)
        vertices.extend(zip(r * cos_t, r * sin_t))
        rings.append(list(range(start, start + m + 1)))
    vertices = np.array(vertices)

    first = rings[1]
    triangles = [(0, first[i], first[i + 1]) for i in range(len(first) - 1)]
    for inner, outer in zip(rings[1:-1], rings[2:]):
        p, q = len(inner) - 1, len(outer) - 1
        # With the front at (inner[i], outer[k]), a step closes the
        # triangle whose new edge, inner[i]-outer[k + 1] or
        # outer[k]-inner[i + 1], is not longer.  Edge length grows with
        # the angle between the ends, so the front's ends stay less than
        # one angular step of each ring apart, |i q / p - k| < q / p + 1;
        # the lengths are computed for those fronts only, front (i, k) in
        # column k - low[i] of row i.
        reach = q // p + 2
        low = np.arange(p) * q // p - reach
        ks = np.clip(low[:, None] + np.arange(2 * reach + 2), 0, q - 1)
        ii = np.arange(p)[:, None]
        vi, vo = vertices[inner], vertices[outer]
        to_outer = vi[ii] - vo[ks + 1]
        to_inner = vo[ks] - vi[ii + 1]
        take_outer = (np.hypot(to_outer[..., 0], to_outer[..., 1])
                      <= np.hypot(to_inner[..., 0], to_inner[..., 1])).tolist()
        low = low.tolist()
        i = k = 0
        while i < p or k < q:
            if i == p or (k < q and take_outer[i][k - low[i]]):
                triangles.append((inner[i], outer[k], outer[k + 1]))
                k += 1
            else:
                triangles.append((inner[i], outer[k], inner[i + 1]))
                i += 1

    edges = []
    tags = []
    for a, b in zip(rings[:-1], rings[1:]):
        edges.append((a[0], b[0]))
        tags.append("wedge_edge_0")
        edges.append((a[-1], b[-1]))
        tags.append("wedge_edge_1")
    outer = rings[-1]
    for i in range(len(outer) - 1):
        edges.append((outer[i], outer[i + 1]))
        tags.append("arc")

    mesh = Mesh(vertices, np.array(triangles), np.array(edges), tags)
    _check_on_boundary(mesh, _sector_boundary_distance(psi))
    return mesh


def _square_boundary_distance(tag, pts):
    x, y = pts[:, 0], pts[:, 1]
    if tag == "left":
        return np.abs(x)
    if tag == "right":
        return np.abs(x - 1.0)
    if tag == "bottom":
        return np.abs(y)
    if tag == "top":
        return np.abs(y - 1.0)
    raise MeshFormatError(f"tag {tag!r} invalid for a square domain")


def _sector_boundary_distance(psi):
    def dist(tag, pts):
        x, y = pts[:, 0], pts[:, 1]
        if tag == "wedge_edge_0":
            return np.abs(y)
        if tag == "wedge_edge_1":
            # distance to the ray at angle psi
            return np.abs(-np.sin(psi) * x + np.cos(psi) * y)
        if tag == "arc":
            return np.abs(np.hypot(x, y) - 1.0)
        raise MeshFormatError(f"tag {tag!r} invalid for a sector domain")
    return dist


def _check_on_boundary(mesh, distance):
    tags = np.asarray(mesh.boundary_tags)
    off = np.zeros(len(tags))
    for tag in dict.fromkeys(mesh.boundary_tags):
        on = tags == tag
        pts = mesh.vertices[mesh.boundary_edges[on]].reshape(-1, 2)
        off[on] = distance(tag, pts).reshape(-1, 2).max(axis=1)
    bad = np.flatnonzero(off > _GEOM_TOL)
    if bad.size:
        a, b = mesh.boundary_edges[bad[0]]
        raise MeshFormatError(
            f"boundary edge ({a}, {b}) tagged {mesh.boundary_tags[bad[0]]!r} "
            f"is off the "
            f"declared boundary by {off[bad[0]]:.3e}")


def mesh_size(mesh):
    """Largest element diameter h."""
    if mesh.n_triangles == 0:
        raise ValueError("mesh has no triangles")
    return float(mesh.diameters.max())
