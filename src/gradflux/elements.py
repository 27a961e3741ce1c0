"""Reference-triangle Lagrange bases, quadrature rules and FE spaces.

Scalar bases live on the uniform node lattice of the reference triangle
{(0,0), (1,0), (0,1)}; vector-valued spaces use two interleaved copies of
the scalar basis (global dof = 2 * scalar_dof + component).  Continuous
spaces number vertices first, then edge nodes, then element-interior
nodes; discontinuous spaces are element-blocked.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

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


_COEFF_CACHE = {}


def _basis_coefficients(degree):
    """Columns express each nodal basis function in the monomial basis."""
    coeff = _COEFF_CACHE.get(degree)
    if coeff is None:
        powers = _monomial_powers(degree)
        vand = _eval_monomials(lattice_nodes(degree), powers)
        coeff = np.linalg.inv(vand)
        _COEFF_CACHE[degree] = coeff
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
    return _tab_values(degree, point)


def lagrange_grad(degree, point):
    """Reference-coordinate basis gradients; shape (..., n_basis, 2)."""
    _check_degree(degree)
    return _tab_gradients(degree, point)


def _tab_values(degree, point):
    pts, single = _as_points(point)
    vals = _eval_monomials(pts, _monomial_powers(degree)) \
        @ _basis_coefficients(degree)
    return vals[0] if single else vals


def _tab_gradients(degree, point):
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
    total degree <= 2n - 1 with n points per direction."""
    n = (degree + 2) // 2
    xj, wj = roots_jacobi(n, 1.0, 0.0)     # weight (1 - x) on [-1, 1]
    xl, wl = roots_legendre(n)
    xi = 0.5 * (xj + 1.0)
    eta = 0.5 * (xl + 1.0)
    w_xi = wj / 4.0                        # includes the (1 - xi) factor
    w_eta = wl / 2.0
    pts = np.empty((n * n, 2))
    wts = np.empty(n * n)
    k = 0
    for i in range(n):
        for j in range(n):
            pts[k] = (xi[i], eta[j] * (1.0 - xi[i]))
            wts[k] = w_xi[i] * w_eta[j]
            k += 1
    return pts, wts


def quadrature(exactness_degree):
    """Quadrature rule on the reference triangle, exact for all
    polynomials of total degree <= exactness_degree."""
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
    x, w = roots_legendre(n)
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
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def components(self):
        return 2 if self.value_rank == "vector2" else 1

    @property
    def n_dofs(self):
        return self.components * self.n_scalar_dofs

    @property
    def n_local(self):
        return self.components * self.dof_map.shape[1]

    def vector_dof_map(self):
        """(nt, 2 * n_local_scalar) interleaved dof map for vector spaces."""
        vm = self._cache.get("vector_dof_map")
        if vm is None:
            base = self.dof_map[:, :, None] * 2 + np.arange(2)
            vm = base.reshape(len(self.dof_map), -1)
            vm.flags.writeable = False
            self._cache["vector_dof_map"] = vm
        return vm

    def element_dofs(self):
        """Global dofs per element, (nt, n_local)."""
        if self.value_rank == "vector2":
            return self.vector_dof_map()
        return self.dof_map

    def tabulate(self, ref_points):
        """(values, reference gradients) of the scalar basis, cached per
        distinct point set."""
        pts = np.asarray(ref_points, dtype=float).reshape(-1, 2)
        key = ("tab", pts.shape[0], pts.tobytes())
        hit = self._cache.get(key)
        if hit is None:
            if self.degree == 0:
                vals = np.ones((len(pts), 1))
                grads = np.zeros((len(pts), 1, 2))
            else:
                vals = _tab_values(self.degree, pts)
                grads = _tab_gradients(self.degree, pts)
            hit = (vals, grads)
            self._cache[key] = hit
        return hit


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

    n_local = (degree + 1) * (degree + 2) // 2
    dof_map = np.empty((nt, n_local), dtype=np.int64)
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
        p0 = mesh.vertices[mesh.triangles[:, 0]]
        phys = p0[:, None, :] + np.einsum("tab,rb->tra", mesh.jacobians, ref)
        node_coords[nv + ne * n_edge_nodes:] = phys.reshape(-1, 2)
    return dof_map, n_scalar, node_coords


def _build_dg_dof_map(mesh, degree):
    nt = mesh.n_triangles
    n_local = (degree + 1) * (degree + 2) // 2 if degree else 1
    dof_map = (np.arange(nt)[:, None] * n_local
               + np.arange(n_local)[None, :]).astype(np.int64)
    ref = lattice_nodes(degree)
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    phys = p0[:, None, :] + np.einsum("tab,rb->tra", mesh.jacobians, ref)
    return dof_map, nt * n_local, phys.reshape(-1, 2)


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
    mesh = space.mesh
    vals, _ = space.tabulate(rule.points)          # (nq, nl)
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    phys = p0[:, None, :] + np.einsum("tab,qb->tqa", mesh.jacobians,
                                      rule.points)
    fx = np.asarray(f(phys[..., 0], phys[..., 1]), dtype=float)
    # Local mass matrix is detJ * M_ref; detJ cancels against the rhs.
    mref = np.einsum("q,qi,qj->ij", rule.weights, vals, vals)
    minv = np.linalg.inv(mref)
    if space.value_rank == "vector2":
        rhs = np.einsum("q,qi,tqc->tic", rule.weights, vals, fx)
        coeffs = np.einsum("ij,tjc->tic", minv, rhs)
        out = np.zeros(space.n_dofs)
        out[space.vector_dof_map().reshape(-1)] = coeffs.reshape(-1)
        return out
    rhs = np.einsum("q,qi,tq->ti", rule.weights, vals, fx)
    coeffs = rhs @ minv.T
    out = np.zeros(space.n_dofs)
    out[space.dof_map.reshape(-1)] = coeffs.reshape(-1)
    return out


def physical_points(mesh, ref_points):
    """(nt, npts, 2) physical images of reference points."""
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    return p0[:, None, :] + np.einsum("tab,qb->tqa", mesh.jacobians,
                                      np.asarray(ref_points, dtype=float))


def inverse_jacobians_t(mesh):
    jac = mesh.jacobians
    det = mesh.jacobian_dets
    inv_t = np.empty_like(jac)
    inv_t[:, 0, 0] = jac[:, 1, 1]
    inv_t[:, 0, 1] = -jac[:, 1, 0]
    inv_t[:, 1, 0] = -jac[:, 0, 1]
    inv_t[:, 1, 1] = jac[:, 0, 0]
    return inv_t / det[:, None, None]


def physical_gradients(space, ref_points):
    """(nt, npts, n_local_scalar, 2) scalar-basis gradients, mapped."""
    _, gref = space.tabulate(ref_points)
    return np.einsum("tab,qlb->tqla", inverse_jacobians_t(space.mesh), gref)


def eval_scalar(space, coeffs, ref_points):
    vals, _ = space.tabulate(ref_points)
    local = coeffs[space.dof_map]                       # (nt, nl)
    return np.einsum("tl,ql->tq", local, vals)


def eval_scalar_gradient(space, coeffs, ref_points):
    grads = physical_gradients(space, ref_points)
    local = coeffs[space.dof_map]
    return np.einsum("tl,tqla->tqa", local, grads)


def eval_vector(space, coeffs, ref_points):
    vals, _ = space.tabulate(ref_points)
    local = coeffs[space.vector_dof_map()]              # (nt, 2 nl)
    local = local.reshape(len(local), -1, 2)
    return np.einsum("tlc,ql->tqc", local, vals)


def eval_vector_divergence(space, coeffs, ref_points):
    grads = physical_gradients(space, ref_points)       # (nt, nq, nl, 2)
    local = coeffs[space.vector_dof_map()].reshape(len(space.dof_map), -1, 2)
    return np.einsum("tlc,tqlc->tq", local, grads)
