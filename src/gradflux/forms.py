"""Assembly of the coupled five-field linear system.

The unknown vector concatenates (u | e | s | lambda | mu).  The two
multiplier equations are negated, which makes the primal-primal and
dual-dual diagonal blocks symmetric and the coupling blocks skew
(K[primal, dual] = -K[dual, primal]^T).

Stabilized terms follow the augmented saddle-point functional: compatible
and data-misfit squares weighted by alpha/gamma/eta, and elementwise
residual squares of the two balance equations weighted by theta/beta and
the squared element diameter h_K.  The auxiliary verification source
enters both the potential equation load and the multiplier-balance misfit
so the method stays consistent with source-augmented manufactured
solutions.
"""

import numbers
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import elements
from .elements import (Tabulation, build_space, gauss_legendre_01,
                       integrate, quadrature)

FIELD_NAMES = ("u", "e", "s", "lam", "mu")
FORMULATION_KINDS = ("natural", "eo_unstab", "eo_min", "eo_full")

_CONFLICT_TOL = 1e-12


# ----------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class StabilizationParams:
    """Coefficients of the augmented functional.

    gamma and eta must stay below one so the gradient and flux misfit
    keep positive weights (1 - gamma), (1 - eta); alpha must not exceed
    1/4 or the potential-gradient coercivity term alpha - 4 alpha^2
    turns negative.  theta and beta weight the elementwise balance
    residuals by h_K^2, h_K the element diameter.
    """

    alpha: float = 0.0
    gamma: float = 0.0
    eta: float = 0.0
    theta: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "gamma", "eta", "theta", "beta"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:
                raise ValueError(f"{name} must be a finite number >= 0, "
                                 f"got {value}")
        if self.gamma >= 1.0:
            raise ValueError(f"gamma must be < 1, got {self.gamma}")
        if self.eta >= 1.0:
            raise ValueError(f"eta must be < 1, got {self.eta}")
        if self.alpha > 0.25:
            raise ValueError(f"alpha must be <= 1/4, got {self.alpha}")

    @classmethod
    def minimal(cls):
        return cls(alpha=0.125, eta=0.5)

    @classmethod
    def full(cls):
        return cls(alpha=0.125, gamma=0.125, eta=0.5, theta=0.5, beta=0.5)


@dataclass(frozen=True)
class Formulation:
    """Choice of discrete spaces plus default stabilization.

    natural    : scalars CG_{k+1}, vectors DG_k; takes no stabilization.
    eo_unstab  : everything CG_{k+1}; all coefficients zero.
    eo_min     : eo spaces with alpha = 1/8, eta = 1/2.
    eo_full    : eo spaces with all coefficients on.
    """

    kind: str
    k: int = 0

    def __post_init__(self):
        if self.kind not in FORMULATION_KINDS:
            raise ValueError(f"unknown formulation kind {self.kind!r}")
        if self.k not in (0, 1, 2):
            raise ValueError(f"degree parameter k must be 0, 1 or 2, "
                             f"got {self.k}")

    def params(self):
        if self.kind == "eo_min":
            return StabilizationParams.minimal()
        if self.kind == "eo_full":
            return StabilizationParams.full()
        return StabilizationParams()

    def build_spaces(self, mesh):
        scalar = build_space(mesh, "CG", self.k + 1, "scalar")
        if self.kind == "natural":
            vector = build_space(mesh, "DG", self.k, "vector2")
        else:
            vector = build_space(mesh, "CG", self.k + 1, "vector2")
        return SpaceSet(mesh=mesh, u=scalar, e=vector, s=vector,
                        lam=scalar, mu=vector)


@dataclass
class SpaceSet:
    """The five per-field spaces (u and lambda share one object, as do
    the three vector fields)."""

    mesh: object
    u: object
    e: object
    s: object
    lam: object
    mu: object

    def by_name(self, name):
        return getattr(self, name)

    def offsets(self, names=FIELD_NAMES):
        """({field: start}, length) of the dof vector of ``names``."""
        off = {}
        start = 0
        for name in names:
            off[name] = start
            start += self.by_name(name).n_dofs
        return off, start

    def max_degree(self):
        return max(self.by_name(n).degree for n in FIELD_NAMES)


# ----------------------------------------------------------------------
# problem data


class ElementField:
    """Elementwise-constant scalar or 2-vector field over a mesh."""

    def __init__(self, mesh, values):
        values = np.asarray(values, dtype=float)
        if len(values) != mesh.n_triangles:
            raise ValueError("one value per mesh element required")
        if values.ndim not in (1, 2) or (values.ndim == 2
                                         and values.shape[1] != 2):
            raise ValueError("values must have shape (nt,) or (nt, 2)")
        self.mesh = mesh
        self.values = values


@dataclass
class ProblemData:
    """Coefficients, sources, data fields and boundary conditions.

    ``dirichlet`` maps a boundary tag to a pair of callables
    (g_u(x, y), g_lambda(x, y)); ``neumann`` maps a tag to normal-trace
    callables (g_s(x, y, nx, ny), g_mu(x, y, nx, ny)).  Boundary
    callables are called once per tag on coordinate arrays, Neumann ones
    also on outward unit normal arrays of the same shape; either may be
    None to leave that field's condition out.  Scalar and vector fields
    may be vectorized callables, constants, or ``ElementField`` objects
    (element-constant data).
    """

    kappa: float = 1.0
    zeta: object = 1.0
    q: object = 0.0
    f: object = 0.0
    e_data: object = 0.0
    s_data: object = 0.0
    dirichlet: dict = field(default_factory=dict)
    neumann: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.kappa < np.inf:
            raise ValueError(f"kappa must be a positive finite number, "
                             f"got {self.kappa}")
        if isinstance(self.zeta, numbers.Real) and \
                not 0.0 <= self.zeta < np.inf:
            raise ValueError(f"zeta must be a finite number >= 0, "
                             f"got {self.zeta}")
        both = set(self.dirichlet) & set(self.neumann)
        if both:
            raise ValueError(
                f"boundary tag(s) {sorted(both)} assigned both Dirichlet "
                "and Neumann conditions")

    def check_tags(self, mesh):
        present = set(mesh.boundary_tags)
        covered = set(self.dirichlet) | set(self.neumann)
        missing = present - covered
        if missing:
            raise ValueError(
                f"boundary tag(s) {sorted(missing)} lack boundary data")


def _field_at(fld, x, y, shape=()):
    """Field values at physical points, each of trailing shape ``shape``
    (``()`` for a scalar, ``(2,)`` for a vector); None if identically
    zero."""
    if fld is None:
        return None
    if isinstance(fld, ElementField):
        return np.broadcast_to(fld.values[:, None], x.shape + shape)
    if isinstance(fld, numbers.Real):
        if fld == 0.0:
            return None
        return np.full(x.shape + shape, float(fld))
    return np.broadcast_to(np.asarray(fld(x, y), dtype=float),
                           x.shape + shape)


# ----------------------------------------------------------------------
# block system


@dataclass
class BlockSystem:
    """Sparse matrix and load vector over the dof vector that concatenates
    the fields ``offsets`` names: all five, or u and lam alone."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    offsets: dict
    n_dofs: int
    spaces: SpaceSet

    def field_slice(self, name):
        start = self.offsets[name]
        return slice(start, start + self.spaces.by_name(name).n_dofs)

    def block(self, row_name, col_name):
        return self.matrix[self.field_slice(row_name),
                           self.field_slice(col_name)]

    def split(self, vector):
        """Slice a dof vector into per-field coefficient arrays."""
        return {name: np.asarray(vector[self.field_slice(name)])
                for name in self.offsets}


# ----------------------------------------------------------------------
# assembly


def _stiffness(weight, grad):
    """sum_q w grad(phi_i) . grad(phi_j), one batched product per
    gradient component."""
    return sum(integrate(weight, grad[..., c], grad[..., c])
               for c in range(2))


def _gradient_value(weight, grad, phi):
    """sum_q w d_c(phi_i) psi_j for a scalar basis phi and the vector
    basis psi_j e_c: (nt, ni, 2 nj), columns interleaved as (j, c)."""
    out = np.stack([integrate(weight, grad[..., c], phi) for c in range(2)],
                   axis=-1)
    return out.reshape(out.shape[0], out.shape[1], -1)


# Sparsity that elements couple between two scalar spaces: the coupled
# (row, column) node pairs in row-major order, each pair's position
# within its row, the pairs per row, and for every element entry (element,
# i, j) in C order the pair it adds to.  A block between vector spaces
# expands each node pair into its component pairs.
_Pattern = namedtuple("_Pattern", "rows cols within counts slot")
_Layout = namedtuple("_Layout", "rows cols within counts")


def _space_pair_pattern(row_space, col_space):
    n_cols = col_space.n_scalar_dofs
    keys = (row_space.dof_map[:, :, None] * n_cols
            + col_space.dof_map[:, None, :])
    pairs, slot = np.unique(keys.ravel(), return_inverse=True)
    rows, cols = np.divmod(pairs, n_cols)
    counts = np.bincount(rows, minlength=row_space.n_scalar_dofs)
    first = np.cumsum(counts) - counts
    within = np.arange(len(pairs)) - first[rows]
    return _Pattern(rows, cols, within, counts, slot)


def _component_layout(pattern, ra, cb):
    """The layout of a block whose row and column spaces have ra and cb
    components, from the scalar pattern of its bases: component pair
    (a, b) of node pair p is stored value p ra cb + a cb + b."""
    shape = (len(pattern.rows), ra, cb)
    a, b = np.arange(ra)[:, None], np.arange(cb)
    return _Layout(
        np.broadcast_to(ra * pattern.rows[:, None, None] + a, shape).ravel(),
        np.broadcast_to(cb * pattern.cols[:, None, None] + b, shape).ravel(),
        np.broadcast_to(cb * pattern.within[:, None, None] + b,
                        shape).ravel(),
        np.repeat(cb * pattern.counts, ra))


class _BlockMatrix:
    """Global matrix built from element matrices per (row, column) field
    block.

    Each added batch of element matrices is summed at once onto the
    scalar node pairs its elements couple, so no global triplet list is
    held; that sparsity is computed once per pair of scalar bases.  A
    block between vector fields stores every component pair of a node
    pair.  ``csr()`` writes every block into its segment of the global
    rows.  A row holds its blocks in field order, and fields are numbered
    in that order, so the column indices come out sorted and unique with
    no global sort.  Every block stores its whole pattern, explicit zeros
    included.
    """

    def __init__(self, spaces, names=FIELD_NAMES):
        self.spaces = spaces
        self.names = names    # the fields of the dof vector, in order
        self._patterns = {}   # (row basis, column basis) -> pattern
        self._values = {}     # (row field, column field) -> (pairs, ra * cb)
        self._layouts = {}    # see _layout

    def _bases(self, row_name, col_name):
        row_space = self.spaces.by_name(row_name)
        col_space = self.spaces.by_name(col_name)
        return (row_space.family, row_space.degree,
                col_space.family, col_space.degree)

    def _pattern(self, row_name, col_name):
        key = self._bases(row_name, col_name)
        if key not in self._patterns:
            self._patterns[key] = _space_pair_pattern(
                self.spaces.by_name(row_name), self.spaces.by_name(col_name))
        return self._patterns[key]

    def _components(self, row_name, col_name):
        return (self.spaces.by_name(row_name).components,
                self.spaces.by_name(col_name).components)

    def add(self, row_name, col_name, mats):
        """Add element matrices over the interleaved local dofs of both
        fields; component pair (a, b) of node pair p is column
        a * cb + b of the block's values."""
        slot = self._pattern(row_name, col_name).slot
        ra, cb = self._components(row_name, col_name)
        mats = mats.reshape(len(mats), -1, ra, mats.shape[2] // cb, cb)
        vals = np.stack([np.bincount(slot, weights=mats[:, :, a, :, b].ravel())
                         for a in range(ra) for b in range(cb)], axis=1)
        key = (row_name, col_name)
        self._values[key] = self._values.get(key, 0.0) + vals

    def add_mass(self, row_name, col_name, mats):
        """Add scalar element matrices (nt, nr, nc) to both component
        diagonals, pairs (0, 0) and (1, 1), of a block between two
        vector fields."""
        mass = np.bincount(self._pattern(row_name, col_name).slot,
                           weights=mats.ravel())
        vals = self._values.setdefault((row_name, col_name),
                                       np.zeros((len(mass), 4)))
        vals[:, [0, 3]] += mass[:, None]

    def _blocks(self):
        """(row field, column field) of every stored block, in field
        order."""
        return [(row_name, col_name) for row_name in self.names
                for col_name in self.names
                if (row_name, col_name) in self._values]

    def _layout(self, row_name, col_name):
        """Where a block's stored values go: their rows and columns in
        the block, each one's position within its row, and the entries
        per row."""
        ra, cb = self._components(row_name, col_name)
        key = self._bases(row_name, col_name) + (ra, cb)
        if key not in self._layouts:
            self._layouts[key] = _component_layout(
                self._pattern(row_name, col_name), ra, cb)
        return self._layouts[key]

    def csr(self):
        offsets, n_dofs = self.spaces.offsets(self.names)
        row_len = np.zeros(n_dofs, dtype=np.int64)
        for row_name, col_name in self._blocks():
            counts = self._layout(row_name, col_name).counts
            start = offsets[row_name]
            row_len[start:start + len(counts)] += counts
        indptr = np.zeros(n_dofs + 1, dtype=np.int64)
        np.cumsum(row_len, out=indptr[1:])
        nnz = int(indptr[-1])
        index_dtype = (np.int32 if max(nnz, n_dofs) <= np.iinfo(np.int32).max
                       else np.int64)
        indices = np.empty(nnz, dtype=index_dtype)
        data = np.empty(nnz)
        fill = indptr[:-1].copy()          # next free slot of every row
        for row_name, col_name in self._blocks():
            layout = self._layout(row_name, col_name)
            start = offsets[row_name]
            dest = fill[start + layout.rows] + layout.within
            indices[dest] = layout.cols + offsets[col_name]
            data[dest] = self._values[row_name, col_name].ravel()
            fill[start:start + len(layout.counts)] += layout.counts
        return sp.csr_matrix((data, indices, indptr.astype(index_dtype)),
                             shape=(n_dofs, n_dofs))


def default_quad_exactness(spaces):
    """Degree of the quadrature every integral over ``spaces`` uses:
    2 * (max polynomial degree in the form) + 3; the margin controls
    the consistency error from non-polynomial data fields."""
    return min(10, 2 * spaces.max_degree() + 3)


def assemble(mesh, formulation, data, params=None):
    """Assemble the coupled system for one formulation.

    Volume integrals use the rule of degree
    :func:`default_quad_exactness`, Neumann edge integrals the Gauss
    rule exact to the same degree.  Returns the pre-Dirichlet
    :class:`BlockSystem`; strong boundary conditions are applied
    separately by :func:`apply_dirichlet`.
    """
    data.check_tags(mesh)
    spaces = formulation.build_spaces(mesh)
    if params is None:
        params = formulation.params()
    tab = Tabulation(mesh, quadrature(default_quad_exactness(spaces)))
    offsets, n_dofs = spaces.offsets()

    kp = float(data.kappa)
    al, ga, et = params.alpha, params.gamma, params.eta
    th, bt = params.theta, params.beta
    h = mesh.diameters

    W = tab.W
    X, Y = tab.xy
    zeta_q = _field_at(data.zeta, X, Y)
    q_q = _field_at(data.q, X, Y)
    f_q = _field_at(data.f, X, Y)
    e_dat = _field_at(data.e_data, X, Y, (2,))
    s_dat = _field_at(data.s_data, X, Y, (2,))

    w_ts = th * kp * (h ** 2)[:, None] * W if th else None
    w_b = bt * (h ** 2)[:, None] * W if bt else None

    phi_u = tab.phi(spaces.u)
    grad_u = tab.grad(spaces.u)
    phi_v = tab.phi(spaces.e)
    div_v = tab.div(spaces.e)
    mass_v = integrate(W, phi_v, phi_v)
    # (u_i, (v_j, c)): sum_q W d_c(phi_i) psi_j
    grad_v = _gradient_value(W, grad_u, phi_v)
    stiff = _stiffness(W, grad_u) if al or et else None

    blocks = _BlockMatrix(spaces)
    add, add_mass = blocks.add, blocks.add_mass
    dofs = {name: spaces.by_name(name).element_dofs + offsets[name]
            for name in FIELD_NAMES}

    # --- primal-primal ------------------------------------------------
    if al:
        add("u", "u", al * stiff)
        add("u", "e", -al * grad_v)
        add("e", "u", -al * grad_v.transpose(0, 2, 1))
    if w_ts is not None and zeta_q is not None:
        add("u", "u", integrate(w_ts * zeta_q ** 2, phi_u, phi_u))
        b_us = integrate(w_ts * zeta_q, phi_u, div_v)
        add("u", "s", b_us)
        add("s", "u", b_us.transpose(0, 2, 1))
    add_mass("e", "e", (1.0 + al - ga) * mass_v)
    add_mass("s", "s", (1.0 - et) * kp * mass_v)
    if w_ts is not None:
        add("s", "s", integrate(w_ts, div_v, div_v))

    # --- primal-dual coupling (skew: the multiplier rows are negated) ---
    if zeta_q is not None:
        b_ul = integrate(W * zeta_q, phi_u, phi_u)
        add("u", "lam", b_ul)
        add("lam", "u", -b_ul.transpose(0, 2, 1))
    add("u", "mu", -grad_v)
    add("mu", "u", grad_v.transpose(0, 2, 1))
    b_em = (1.0 - ga) * mass_v
    add_mass("e", "mu", b_em)
    add_mass("mu", "e", -b_em.transpose(0, 2, 1))
    b_sl = -(1.0 - et) * grad_v.transpose(0, 2, 1)
    add("s", "lam", b_sl)
    add("lam", "s", -b_sl.transpose(0, 2, 1))

    # --- dual-dual ------------------------------------------------------
    if et:
        add("lam", "lam", (et / kp) * stiff)
    if w_b is not None and zeta_q is not None:
        add("lam", "lam", integrate(w_b * zeta_q ** 2, phi_u, phi_u))
        b_lm = integrate(w_b * zeta_q, phi_u, div_v)
        add("lam", "mu", b_lm)
        add("mu", "lam", b_lm.transpose(0, 2, 1))
    if ga:
        add_mass("mu", "mu", ga * mass_v)
    if w_b is not None:
        add("mu", "mu", integrate(w_b, div_v, div_v))

    matrix = blocks.csr()

    # --- right-hand side -------------------------------------------------
    rhs = np.zeros(n_dofs)

    def load(name, contrib):
        np.add.at(rhs, dofs[name].ravel(), contrib.ravel())

    if q_q is not None and w_ts is not None and zeta_q is not None:
        load("u", integrate(w_ts * zeta_q * q_q, phi_u))
    if f_q is not None:
        load("u", integrate(W * f_q, phi_u))
    if e_dat is not None:
        fe = integrate(W, phi_v, e_dat)           # (nt, n_basis, 2)
        load("e", (1.0 - ga) * fe)
        if ga:
            load("mu", ga * fe)
    if s_dat is not None:
        load("s", (1.0 - et) * kp * integrate(W, phi_v, s_dat))
        if et:
            load("lam", -et
                 * sum(integrate(W * s_dat[..., c], grad_u[..., c])
                       for c in range(2)))
    if q_q is not None:
        if w_ts is not None:
            load("s", integrate(w_ts * q_q, div_v))
        load("lam", -integrate(W * q_q, phi_u))
    if f_q is not None and w_b is not None:
        if zeta_q is not None:
            load("lam", integrate(w_b * zeta_q * f_q, phi_u))
        load("mu", integrate(w_b * f_q, div_v))

    _add_neumann_loads(rhs, spaces, offsets, data)

    return BlockSystem(matrix=matrix, rhs=rhs, offsets=offsets,
                       n_dofs=n_dofs, spaces=spaces)


def assemble_natural(mesh, formulation, data):
    """``natural``'s system over (u | lambda), and the map from its
    solution to the five fields.

    Without stabilization the e, s and mu rows of :func:`assemble` are
    element mass equations, solved by e = grad u, mu = P e* - grad u and
    s = P s* + grad lambda / kappa (P the L2 projection onto DG_k).  Put
    into the u and lambda rows, they leave [[A, B], [-B^T, A / kappa]],
    A the CG_{k+1} stiffness and B its zeta mass, with the loads
    (f, phi) + (e*, grad phi) and -(q, phi) - (s*, grad phi) plus the
    Neumann terms: the Schur complement in e, s and mu, on the same
    quadrature.  Returns the pre-Dirichlet BlockSystem over the fields
    u and lam, and ``fields(x)``, the five fields for its solution x.
    """
    data.check_tags(mesh)
    spaces = formulation.build_spaces(mesh)
    tab = Tabulation(mesh, quadrature(default_quad_exactness(spaces)))
    offsets, n_dofs = spaces.offsets(("u", "lam"))
    kp, W, (X, Y) = float(data.kappa), tab.W, tab.xy
    zeta_q = _field_at(data.zeta, X, Y)
    e_dat = _field_at(data.e_data, X, Y, (2,))
    s_dat = _field_at(data.s_data, X, Y, (2,))
    phi_u, grad_u = tab.phi(spaces.u), tab.grad(spaces.u)

    blocks = _BlockMatrix(spaces, ("u", "lam"))
    stiff = _stiffness(W, grad_u)
    blocks.add("u", "u", stiff)
    blocks.add("lam", "lam", stiff / kp)
    if zeta_q is not None:
        b_ul = integrate(W * zeta_q, phi_u, phi_u)
        blocks.add("u", "lam", b_ul)
        blocks.add("lam", "u", -b_ul.transpose(0, 2, 1))

    rhs = np.zeros(n_dofs)
    for name, sign, source, vector in (("u", 1.0, data.f, e_dat),
                                       ("lam", -1.0, data.q, s_dat)):
        local = np.zeros(spaces.u.dof_map.shape)
        source = _field_at(source, X, Y)
        if source is not None:
            local += integrate(W * source, phi_u)
        if vector is not None:
            local += sum(integrate(W * vector[..., c], grad_u[..., c])
                         for c in range(2))
        np.add.at(rhs, spaces.u.dof_map + offsets[name], sign * local)
    _add_neumann_loads(rhs, spaces, offsets, data)

    phi_v = tab.phi(spaces.e)
    mass_v = integrate(W, phi_v, phi_v)
    e_proj, s_proj = (0.0 if v is None else
                      np.linalg.solve(mass_v, integrate(W, phi_v, v))
                      for v in (e_dat, s_dat))
    nodes = Tabulation(mesh, elements.lattice_nodes(formulation.k))

    def fields(x):
        # DG coefficients: values at the nodes, (element, node, component)
        u, lam = np.split(x, [offsets["lam"]])
        grad_u = nodes.gradient(spaces.u, u)
        s = s_proj + nodes.gradient(spaces.lam, lam) / kp
        return {"u": u, "e": grad_u.ravel(), "s": s.ravel(), "lam": lam,
                "mu": (e_proj - grad_u).ravel()}

    return BlockSystem(matrix=blocks.csr(), rhs=rhs, offsets=offsets,
                       n_dofs=n_dofs, spaces=spaces), fields


def _add_neumann_loads(rhs, spaces, offsets, data):
    """Boundary loads from integration by parts of the flux and
    multiplier terms: -(g_mu, du) on the potential equation and
    -(g_s, dlam) on the unnegated multiplier equation, so +(g_s, dlam)
    on the negated one."""
    if not data.neumann:
        return
    mesh = spaces.mesh
    space = spaces.u  # u and lambda share the trace space
    n1d = max(2, (default_quad_exactness(spaces) + 2) // 2)
    ts, ws = gauss_legendre_01(n1d)
    # Quadrature points on the three reference edges, each traversed in
    # its triangle's counter-clockwise local order.
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    ref_pts = ref[:, None] + ts[:, None] * (np.roll(ref, -1, axis=0)
                                            - ref)[:, None]
    vals = space.tabulate(ref_pts.reshape(-1, 2))[0].reshape(3, n1d, -1)

    for tag, (elem, le) in mesh.boundary_by_tag.items():
        if tag not in data.neumann:
            continue
        g_s, g_mu = data.neumann[tag]
        pa = mesh.vertices[mesh.triangles[elem, le]]
        tangent = mesh.vertices[mesh.triangles[elem, (le + 1) % 3]] - pa
        length = np.hypot(tangent[:, 0], tangent[:, 1])
        # the counter-clockwise tangent turned clockwise points outward
        nx = np.broadcast_to((tangent[:, 1] / length)[:, None],
                             (len(elem), n1d))
        ny = np.broadcast_to((-tangent[:, 0] / length)[:, None], nx.shape)
        xq = pa[:, None] + ts[:, None] * tangent[:, None]
        edge_w = ws * length[:, None]
        gdofs = space.dof_map[elem]
        for g, name, sign in ((g_mu, "u", -1.0), (g_s, "lam", 1.0)):
            if g is not None:
                gv = np.asarray(g(xq[..., 0], xq[..., 1], nx, ny),
                                dtype=float)
                np.add.at(rhs, gdofs + offsets[name],
                          sign * integrate(edge_w * gv, vals[le]))


# ----------------------------------------------------------------------
# strong Dirichlet conditions


def dirichlet_values(system, data):
    """Constrained global dofs and their boundary values, as two arrays
    sorted by dof.

    The nodes of a tagged edge are read from its owner triangle's dof
    map; each boundary callable is evaluated once per tag.
    """
    spaces = system.spaces
    fixed = np.zeros(system.n_dofs, dtype=bool)
    value = np.zeros(system.n_dofs)
    for tag, (elem, le) in spaces.mesh.boundary_by_tag.items():
        if tag not in data.dirichlet:
            continue
        g_u, g_lam = data.dirichlet[tag]
        for space, name, g in ((spaces.u, "u", g_u),
                               (spaces.lam, "lam", g_lam)):
            if g is None:
                continue
            local = elements.edge_local_nodes(space.degree)[le]
            nodes = np.unique(space.dof_map[elem[:, None], local])
            x, y = space.node_coords[nodes].T
            vals = np.broadcast_to(np.asarray(g(x, y), dtype=float),
                                   nodes.shape)
            dofs = system.offsets[name] + nodes
            seen = fixed[dofs]
            clash = np.flatnonzero(seen & (np.abs(value[dofs] - vals)
                                           > _CONFLICT_TOL))
            if clash.size:
                i = clash[0]
                raise ValueError(
                    f"conflicting Dirichlet values at node ({x[i]:.6g}, "
                    f"{y[i]:.6g}): {float(value[dofs[i]])!r} vs "
                    f"{float(vals[i])!r} (tag {tag!r})")
            value[dofs[~seen]] = vals[~seen]
            fixed[dofs] = True
    dofs = np.flatnonzero(fixed)
    return dofs, value[dofs]


def apply_dirichlet(system, data):
    """Strongly enforce boundary values on the u and lambda dofs.

    Constrained rows become identity rows; their columns are moved to
    the right-hand side (symmetric elimination).  Returns a new system,
    the input is untouched.
    """
    idx, val = dirichlet_values(system, data)
    matrix, rhs = _eliminate(system.matrix, system.rhs, idx, val)
    return BlockSystem(matrix=matrix, rhs=rhs, offsets=system.offsets,
                       n_dofs=system.n_dofs, spaces=system.spaces)


def _eliminate(matrix, rhs, idx, val):
    """Copies of the matrix and the load with the dofs ``idx`` fixed to
    ``val``.

    The constrained rows and columns are zeroed in the CSR data and the
    stored zeros dropped, so the matrix equals ``D A D + (I - D)``, D
    the free-dof indicator, without forming those products.
    """
    matrix = sp.csr_matrix(matrix, copy=True)
    lifted = np.array(rhs, dtype=float)
    matrix.sum_duplicates()
    n = matrix.shape[0]
    indptr, indices, values = matrix.indptr, matrix.indices, matrix.data
    fixed = np.zeros(n, dtype=bool)
    fixed[idx] = True
    x_bc = np.zeros(n)
    x_bc[idx] = val
    # lift with the stored entries of the constrained columns only
    at = np.flatnonzero(np.take(fixed, indices))
    rows = np.searchsorted(indptr, at, side="right") - 1
    lifted -= np.bincount(rows, weights=values[at] * x_bc[indices[at]],
                          minlength=n)
    lifted[idx] = val
    values[at] = 0.0
    values[np.repeat(fixed, np.diff(indptr))] = 0.0
    # The unit diagonal takes the first slot of its row, whose other
    # entries are now zero; that also covers rows with no stored
    # diagonal (natural has no u-u block).
    first = indptr[idx]
    stored = indptr[idx + 1] > first
    indices[first[stored]] = idx[stored]
    values[first[stored]] = 1.0
    matrix.eliminate_zeros()
    empty = idx[~stored]
    if len(empty):
        matrix = matrix + sp.csr_matrix(
            (np.ones(len(empty)), (empty, empty)), shape=matrix.shape)
    return matrix, lifted


# ----------------------------------------------------------------------
# discrete stability norm (fully stabilized variant)


def stability_norm_matrix(spaces, kappa, h):
    """Gram matrix of the mesh-dependent stability norm.

    |||(u, e, s, lam, mu)|||^2 = |grad u|^2 + |e|^2 + kappa |s|^2
        + (1/kappa) |grad lam|^2 + |mu|^2
        + kappa h^2 |div s|_h^2 + h^2 |div mu|_h^2
    """
    tab = Tabulation(spaces.mesh,
                     quadrature(min(10, 2 * spaces.max_degree() + 1)))
    W = tab.W
    div_v = tab.div(spaces.e)
    stiff = _stiffness(W, tab.grad(spaces.u))
    mass = integrate(W, tab.phi(spaces.e), tab.phi(spaces.e))
    divg = integrate(W, div_v, div_v)

    blocks = _BlockMatrix(spaces)
    blocks.add("u", "u", stiff)
    blocks.add_mass("e", "e", mass)
    blocks.add_mass("s", "s", kappa * mass)
    blocks.add("s", "s", kappa * h ** 2 * divg)
    blocks.add("lam", "lam", stiff / kappa)
    blocks.add_mass("mu", "mu", mass)
    blocks.add("mu", "mu", h ** 2 * divg)
    return blocks.csr()
