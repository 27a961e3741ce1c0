"""Reference-triangle Lagrange bases, quadrature rules and FE spaces.

Scalar bases live on the uniform node lattice of the reference triangle
{(0,0), (1,0), (0,1)}; vector-valued spaces use two interleaved copies of
the scalar basis (global dof = 2 * scalar_dof + component).  Continuous
spaces number vertices first, then edge nodes, then element-interior
nodes; discontinuous spaces are element-blocked.  Fields are evaluated
on elements only through :class:`Tabulation`.
"""

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

_MAX_CG_DEGREE = 3
_MAX_DG_DEGREE = 2


# ----------------------------------------------------------------------
# Lagrange basis on the uniform lattice


def lattice_nodes(degree):
    """Reference nodes: vertices, then edge nodes in traversal order
    (edges (0,1), (1,2), (2,0)), then interior lattice nodes."""
    if degree == 0:
        return np.array([[1.0 / 3.0, 1.0 / 3.0]])
    nodes = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    d = degree
    for i in range(1, d):
        nodes.append((i / d, 0.0))                 # edge (v0, v1)
    for i in range(1, d):
        nodes.append(((d - i) / d, i / d))         # edge (v1, v2)
    for i in range(1, d):
        nodes.append((0.0, (d - i) / d))           # edge (v2, v0)
    for j in range(1, d):
        for i in range(1, d - j):
            nodes.append((i / d, j / d))
    return np.array(nodes)


def _monomial_powers(degree):
    return [(a, t - a) for t in range(degree + 1) for a in range(t, -1, -1)]


def _eval_monomials(points, powers):
    x, y = points[:, 0], points[:, 1]
    return np.column_stack([x ** a * y ** b for a, b in powers])


def _grad_monomials(points, powers):
    x, y = points[:, 0], points[:, 1]
    out = np.empty((len(points), len(powers), 2))
    for m, (a, b) in enumerate(powers):
        out[:, m, 0] = a * x ** max(a - 1, 0) * y ** b if a else 0.0
        out[:, m, 1] = b * x ** a * y ** max(b - 1, 0) if b else 0.0
    return out


@functools.cache
def _basis_coefficients(degree):
    """Columns express each nodal basis function in the monomial basis."""
    vand = _eval_monomials(lattice_nodes(degree), _monomial_powers(degree))
    coeff = np.linalg.inv(vand)
    coeff.flags.writeable = False
    return coeff


def _as_points(point):
    pts = np.asarray(point, dtype=float)
    single = pts.ndim == 1
    return pts.reshape(-1, 2), single


def _check_degree(degree):
    if not 1 <= degree <= _MAX_CG_DEGREE:
        raise ValueError(f"unsupported Lagrange degree {degree}; "
                         f"expected 1..{_MAX_CG_DEGREE}")


def lagrange_eval(degree, point):
    """Nodal basis values at reference point(s); shape (..., n_basis)."""
    _check_degree(degree)
    pts, single = _as_points(point)
    vals = _eval_monomials(pts, _monomial_powers(degree)) \
        @ _basis_coefficients(degree)
    return vals[0] if single else vals


def lagrange_grad(degree, point):
    """Reference-coordinate basis gradients; shape (..., n_basis, 2)."""
    _check_degree(degree)
    pts, single = _as_points(point)
    grads = np.einsum("pmd,mb->pbd",
                      _grad_monomials(pts, _monomial_powers(degree)),
                      _basis_coefficients(degree))
    return grads[0] if single else grads


# ----------------------------------------------------------------------
# quadrature on the reference triangle


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray          # (n, 2) reference coordinates
    weights: np.ndarray         # (n,), sums to 1/2
    exactness_degree: int


# Classical symmetric rules; barycentric orbit data with weights that sum
# to one (scaled by the reference area 1/2 below).
_SYMMETRIC_RULES = {
    1: [((1 / 3, 1 / 3, 1 / 3), 1.0)],
    2: [((2 / 3, 1 / 6, 1 / 6), 1 / 3)],
    4: [((0.108103018168070, 0.445948490915965, 0.445948490915965),
         0.223381589678011),
        ((0.816847572980459, 0.091576213509771, 0.091576213509771),
         0.109951743655322)],
    5: [((1 / 3, 1 / 3, 1 / 3), 0.225),
        ((0.059715871789770, 0.470142064105115, 0.470142064105115),
         0.132394152788506),
        ((0.797426985353087, 0.101286507323456, 0.101286507323456),
         0.125939180544827)],
    6: [((0.873821971016996, 0.063089014491502, 0.063089014491502),
         0.050844906370207),
        ((0.501426509658179, 0.249286745170910, 0.249286745170910),
         0.116786275726379),
        ((0.636502499121399, 0.310352451033785, 0.053145049844816),
         0.082851075618374)],
}


def _expand_orbits(orbits):
    pts, wts = [], []
    for bary, w in orbits:
        seen = []
        for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1),
                     (0, 2, 1), (2, 1, 0), (1, 0, 2)):
            p = tuple(round(bary[i], 15) for i in perm)
            if p not in seen:
                seen.append(p)
        for b in seen:
            pts.append((b[1], b[2]))   # (x, y) from barycentric (l0, l1, l2)
            wts.append(w)
    return np.array(pts), np.array(wts)


def _conical_product_rule(degree):
    """Collapsed Gauss-Jacobi x Gauss-Legendre product rule, exact for
    total degree <= 2n - 1 with n points per direction.  The Gauss rule
    for the weight (1 - x) on [-1, 1] is computed by Golub-Welsch: the
    eigenvalues of the Jacobi matrix of the (alpha, beta) = (1, 0)
    recurrence, and twice the squared first eigenvector components."""
    n = (degree + 2) // 2
    k = np.arange(n)
    off = np.sqrt(k[1:] * (k[1:] + 1.0)) / (2 * k[1:] + 1)
    xj, vecs = np.linalg.eigh(np.diag(-1.0 / ((2 * k + 1) * (2 * k + 3)))
                              + np.diag(off, 1) + np.diag(off, -1))
    xl, wl = leggauss(n)
    xi = 0.5 * (xj[:, None] + 1.0)
    eta = 0.5 * (xl + 1.0)
    pts = np.stack(np.broadcast_arrays(xi, eta * (1.0 - xi)), axis=-1)
    # the Jacobi weights over 4 hold the factor (1 - xi)
    return pts.reshape(-1, 2), np.outer(2.0 * vecs[0] ** 2 / 4.0,
                                        wl / 2.0).ravel()


@functools.cache
def quadrature(exactness_degree):
    """Quadrature rule on the reference triangle, exact for all
    polynomials of total degree <= exactness_degree.  Memoized: rules
    are frozen and their arrays read-only."""
    d = int(exactness_degree)
    if not 1 <= d <= 10:
        raise ValueError(f"unsupported quadrature degree {d}; expected 1..10")
    table_degree = {1: 1, 2: 2, 3: 4, 4: 4, 5: 5, 6: 6}.get(d)
    if table_degree is not None:
        pts, wts = _expand_orbits(_SYMMETRIC_RULES[table_degree])
        wts = wts * 0.5  # scale to reference-triangle area
    else:
        pts, wts = _conical_product_rule(d)
    pts.flags.writeable = False
    wts.flags.writeable = False
    return QuadratureRule(points=pts, weights=wts, exactness_degree=d)


def gauss_legendre_01(n):
    """n-point Gauss rule on [0, 1]; weights sum to 1."""
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# ----------------------------------------------------------------------
# finite element spaces


@dataclass
class FeSpace:
    """Global scalar or 2-vector Lagrange space on a mesh.

    ``dof_map`` maps (element, local scalar node) to the global scalar
    node number; vector spaces interleave components on top of it, so the
    global dof of (element, local node l, component c) is
    ``2 * dof_map[e, l] + c``.
    """

    mesh: object
    family: str                 # "CG" | "DG"
    degree: int
    value_rank: str             # "scalar" | "vector2"
    dof_map: np.ndarray         # (nt, n_local_scalar)
    n_scalar_dofs: int
    node_coords: np.ndarray     # (n_scalar_dofs, 2)

    @property
    def components(self):
        return 2 if self.value_rank == "vector2" else 1

    @property
    def n_dofs(self):
        return self.components * self.n_scalar_dofs

    @functools.cached_property
    def element_dofs(self):
        """Global dofs per element, (nt, components * n_local_scalar);
        a vector space interleaves the components of each node."""
        if self.value_rank == "scalar":
            return self.dof_map
        dofs = (self.dof_map[:, :, None] * 2 + np.arange(2)).reshape(
            len(self.dof_map), -1)
        dofs.flags.writeable = False
        return dofs

    def tabulate(self, ref_points):
        """(values, reference gradients) of the scalar basis at reference
        points, (npts, n_local_scalar) and (npts, n_local_scalar, 2)."""
        pts = np.asarray(ref_points, dtype=float).reshape(-1, 2)
        if self.degree == 0:
            return np.ones((len(pts), 1)), np.zeros((len(pts), 1, 2))
        return (lagrange_eval(self.degree, pts),
                lagrange_grad(self.degree, pts))


def edge_local_nodes(degree):
    """(3, degree + 1) local nodes on each local edge (v0,v1), (v1,v2),
    (v2,v0): its two vertices, then its edge nodes in traversal order."""
    inner = 3 + np.arange(3)[:, None] * (degree - 1) + np.arange(degree - 1)
    return np.hstack([[[0, 1], [1, 2], [2, 0]], inner])


def _build_cg_dof_map(mesh, degree):
    nv = mesh.n_vertices
    nt = mesh.n_triangles
    n_edge_nodes = degree - 1
    n_int = (degree - 1) * (degree - 2) // 2
    edges = mesh.edges
    ne = len(edges)

    n_basis = (degree + 1) * (degree + 2) // 2
    dof_map = np.empty((nt, n_basis), dtype=np.int64)
    dof_map[:, 0:3] = mesh.triangles

    if n_edge_nodes:
        # edge nodes are numbered from the lower to the higher vertex;
        # local edge le runs from vertex le to vertex le + 1
        tri = mesh.triangles
        forward = (tri < np.roll(tri, -1, axis=1))[:, :, None]
        i = np.arange(n_edge_nodes)
        slot = np.where(forward, i, n_edge_nodes - 1 - i)
        gnodes = nv + mesh.triangle_edges[:, :, None] * n_edge_nodes + slot
        dof_map[:, 3:3 + 3 * n_edge_nodes] = gnodes.reshape(nt, -1)
    if n_int:
        start = nv + ne * n_edge_nodes
        base = start + np.arange(nt)[:, None] * n_int
        dof_map[:, 3 + 3 * n_edge_nodes:] = base + np.arange(n_int)

    n_scalar = nv + ne * n_edge_nodes + nt * n_int

    node_coords = np.empty((n_scalar, 2))
    node_coords[:nv] = mesh.vertices
    if n_edge_nodes:
        t = np.arange(1, degree) / degree
        pa = mesh.vertices[edges[:, 0]]
        pb = mesh.vertices[edges[:, 1]]
        enodes = pa[:, None, :] + t[None, :, None] * (pb - pa)[:, None, :]
        node_coords[nv:nv + ne * n_edge_nodes] = enodes.reshape(-1, 2)
    if n_int:
        ref = lattice_nodes(degree)[3 + 3 * n_edge_nodes:]
        node_coords[nv + ne * n_edge_nodes:] = \
            physical_points(mesh, ref).reshape(-1, 2)
    return dof_map, n_scalar, node_coords


def _build_dg_dof_map(mesh, degree):
    nt = mesh.n_triangles
    n_basis = (degree + 1) * (degree + 2) // 2 if degree else 1
    dof_map = (np.arange(nt)[:, None] * n_basis
               + np.arange(n_basis)[None, :]).astype(np.int64)
    phys = physical_points(mesh, lattice_nodes(degree))
    return dof_map, nt * n_basis, phys.reshape(-1, 2)


def build_space(mesh, family, degree, value_rank="scalar"):
    """Construct a global FE space.

    CG supports degrees 1..3, DG degrees 0..2.  CG numbering: vertices,
    then edge nodes (per lexicographically sorted edge, oriented from the
    lower to the higher vertex index), then element-interior nodes.
    DG numbering is element-blocked.
    """
    if value_rank not in ("scalar", "vector2"):
        raise ValueError(f"unknown value rank {value_rank!r}")
    if family == "CG":
        if not 1 <= degree <= _MAX_CG_DEGREE:
            raise ValueError(f"CG degree must be 1..{_MAX_CG_DEGREE}, "
                             f"got {degree}")
        dof_map, n_scalar, coords = _build_cg_dof_map(mesh, degree)
    elif family == "DG":
        if not 0 <= degree <= _MAX_DG_DEGREE:
            raise ValueError(f"DG degree must be 0..{_MAX_DG_DEGREE}, "
                             f"got {degree}")
        dof_map, n_scalar, coords = _build_dg_dof_map(mesh, degree)
    else:
        raise ValueError(f"unknown element family {family!r}")
    dof_map.flags.writeable = False
    coords.flags.writeable = False
    return FeSpace(mesh=mesh, family=family, degree=degree,
                   value_rank=value_rank, dof_map=dof_map,
                   n_scalar_dofs=n_scalar, node_coords=coords)


# ----------------------------------------------------------------------
# interpolation and field evaluation


def interpolate(space, f):
    """Coefficients representing f in the space.

    CG: nodal interpolation at the Lagrange nodes.  DG: elementwise local
    L2 projection (exact representation of element-constant data in DG0),
    using quadrature of exactness 2 * degree + 2.
    """
    if space.family == "CG":
        x, y = space.node_coords[:, 0], space.node_coords[:, 1]
        vals = np.asarray(f(x, y), dtype=float)
        if space.value_rank == "vector2":
            if vals.shape != (space.n_scalar_dofs, 2):
                raise ValueError("vector field must return shape (n, 2)")
            return np.ascontiguousarray(vals.reshape(-1))
        return vals

    rule = quadrature(min(10, 2 * space.degree + 2))
    tab = Tabulation(space.mesh, rule.points)
    vals = tab.phi(space)                                   # (nq, nl)
    fx = np.asarray(f(*tab.xy), dtype=float)
    nt, nq = fx.shape[:2]
    # Local mass matrix is detJ * M_ref; detJ cancels against the rhs.
    weight = np.broadcast_to(rule.weights, (nt, nq))
    mref = integrate(weight[:1], vals, vals)[0]
    coeffs = np.linalg.inv(mref) @ integrate(weight, vals,
                                             fx.reshape(nt, nq, -1))
    out = np.zeros(space.n_dofs)
    out[space.element_dofs] = coeffs.reshape(nt, -1)
    return out


def physical_points(mesh, ref_points):
    """(nt, npts, 2) physical images of reference points."""
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    return p0[:, None, :] + _transform(mesh.jacobians, ref_points)


def _transform(mats, vectors):
    """``mats[t] @ v`` for every per-element 2x2 matrix and every
    2-vector v of a reference array (..., 2): shape (nt, ..., 2).

    One GEMM of the flattened (nt, 4) matrices against a (4, v.size)
    table that holds the vectors on its component diagonal.
    """
    vectors = np.asarray(vectors, dtype=float)
    table = np.zeros((2, 2) + vectors.shape)       # (row a, column b, ..., a)
    for a in range(2):
        table[a, :, ..., a] = np.moveaxis(vectors, -1, 0)
    out = mats.reshape(-1, 4) @ table.reshape(4, -1)
    return out.reshape((len(mats),) + vectors.shape)


def integrate(weight, a, b=None):
    """Quadrature sums by BLAS: ``sum_q weight[t, q] a[., q, i] b[., q, j]``,
    shape (nt, ni, nj), or ``sum_q weight[t, q] a[., q, i]``, shape
    (nt, ni), without ``b``.

    ``weight`` is (nt, nq).  ``a`` and ``b`` are reference tables (nq, n),
    the same on every element, or per-element arrays (nt, nq, n).  Two
    tables make one GEMM of the weights against their (nq, ni nj)
    products; any per-element factor makes one batched matmul.
    """
    if b is None:
        if a.ndim == 2:
            return weight @ a
        return np.matmul(weight[:, None, :], a)[:, 0]
    if a.ndim == 2 and b.ndim == 2:
        prod = (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)
        return (weight @ prod).reshape(len(weight), a.shape[1], b.shape[1])
    return np.matmul(np.swapaxes(a, -1, -2), weight[:, :, None] * b)


class Tabulation:
    """Bases and fields at one set of reference points on every element
    of a mesh.

    ``points`` is a :class:`QuadratureRule`, whose weights scaled by
    |det J| become ``W`` (nt, nq), or an array of reference points, such
    as the lattice nodes, with ``W`` None.  The physical points, and the
    values and mapped gradients of each distinct basis, keyed by (family,
    degree), are computed once, on first use, each by one GEMM.  Field
    gradients and divergences are taken in reference coordinates by one
    GEMM of the element coefficients against the reference gradients,
    then mapped by the per-element J^-T, so evaluating a field maps no
    basis.  Nothing is cached outside the object, which lives as long as
    the call that builds it.
    """

    def __init__(self, mesh, points):
        self.mesh = mesh
        if isinstance(points, QuadratureRule):
            self.points = points.points
            self.W = mesh.jacobian_dets[:, None] * points.weights[None, :]
        else:
            self.points = np.asarray(points, dtype=float).reshape(-1, 2)
            self.W = None
        self._reference = {}   # (family, degree) -> (values, ref. gradients)
        self._mapped = {}      # (family, degree) -> mapped gradients

    @functools.cached_property
    def xy(self):
        """(X, Y), each (nt, nq): the physical points."""
        phys = physical_points(self.mesh, self.points)
        return phys[..., 0], phys[..., 1]

    def _reference_tables(self, space):
        key = (space.family, space.degree)
        if key not in self._reference:
            self._reference[key] = space.tabulate(self.points)
        return self._reference[key]

    def phi(self, space):
        """(nq, n_local_scalar) scalar-basis values."""
        return self._reference_tables(space)[0]

    def grad(self, space):
        """(nt, nq, n_local_scalar, 2) scalar-basis gradients, mapped."""
        key = (space.family, space.degree)
        if key not in self._mapped:
            self._mapped[key] = _map_gradients(
                self.mesh.inverse_jacobians_t,
                self._reference_tables(space)[1])
        return self._mapped[key]

    def div(self, space):
        """(nt, nq, 2 n_local_scalar) divergences of the interleaved
        vector basis."""
        grads = self.grad(space)
        return grads.reshape(grads.shape[0], grads.shape[1], -1)

    def values(self, space, coeffs):
        """Field values, (nt, nq) for a scalar space, (nt, nq, 2) for a
        vector one."""
        phi_t = self.phi(space).T
        if space.value_rank == "vector2":
            local = _vector_local(space, coeffs)               # (nt, 2, nl)
            vals = local.reshape(-1, local.shape[-1]) @ phi_t
            return np.swapaxes(vals.reshape(len(local), 2, -1), 1, 2)
        return coeffs[space.dof_map] @ phi_t

    def gradient(self, space, coeffs):
        """(nt, nq, 2) gradient of a scalar field."""
        ref = self._reference_gradient(space, coeffs[space.dof_map])
        return np.matmul(ref,
                         np.swapaxes(self.mesh.inverse_jacobians_t, 1, 2))

    def divergence(self, space, coeffs):
        """(nt, nq) divergence of a vector field."""
        ref = self._reference_gradient(space, _vector_local(space, coeffs))
        # ref[t, c, q, b]: reference derivative b of component c
        inv_t = self.mesh.inverse_jacobians_t
        return sum(inv_t[:, c, b, None] * ref[:, c, :, b]
                   for c in range(2) for b in range(2))

    def _reference_gradient(self, space, local):
        """Reference-coordinate gradients ``sum_l local[..., l] grad_l``
        at every point, (..., nq, 2), as one GEMM."""
        ref_grads = self._reference_tables(space)[1]       # (nq, nl, 2)
        nq, nl, _ = ref_grads.shape
        table = np.swapaxes(ref_grads, 0, 1).reshape(nl, 2 * nq)
        out = local.reshape(-1, nl) @ table
        return out.reshape(local.shape[:-1] + (nq, 2))


def _map_gradients(inv_t, ref_grads):
    """(nt, nq, nl, 2) basis gradients mapped by J^-T; every basis is
    mapped here."""
    return _transform(inv_t, ref_grads)


def _vector_local(space, coeffs):
    """(nt, 2, n_local_scalar) element coefficients of a vector field,
    component by component."""
    return coeffs[2 * space.dof_map[:, None, :] + np.arange(2)[:, None]]
