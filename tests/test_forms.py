import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from gradflux import elements, forms
from gradflux.elements import gauss_legendre_01, interpolate, quadrature
from gradflux.forms import (ElementField, Formulation, ProblemData,
                            StabilizationParams, apply_dirichlet, assemble,
                            dirichlet_values, stability_norm_matrix)
from gradflux.manufactured import case1, case2, case3
from gradflux.mesh import (Mesh, MeshFormatError, mesh_size, sector_mesh,
                           unit_square_mesh)
from gradflux.solver import matrix_digest, solve_direct
from gradflux.study import problem_data_for


def inverse_jacobians_t(mesh):
    """J^-T of every element by LAPACK, independent of the mesh's own."""
    return np.swapaxes(np.linalg.inv(mesh.jacobians), 1, 2)


ALL_KINDS = ("natural", "eo_unstab", "eo_min", "eo_full")
SQUARE_TAGS = ("left", "right", "bottom", "top")


def reference_triangle():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]),
                np.array([[0, 1], [1, 2], [2, 0]]),
                ["bottom", "right", "left"])


def zero(x, y):
    return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)


def pure_dirichlet(case):
    return ProblemData(kappa=case.kappa, zeta=case.zeta, q=case.q,
                       f=case.f, e_data=case.e_data, s_data=case.s_data,
                       dirichlet={t: (case.u, case.lam)
                                  for t in SQUARE_TAGS})


# ----------------------------------------------------------------------
# parameters


def test_stabilization_invariants():
    with pytest.raises(ValueError):
        StabilizationParams(gamma=1.0)
    with pytest.raises(ValueError):
        StabilizationParams(eta=1.0)
    with pytest.raises(ValueError):
        StabilizationParams(alpha=0.3)
    with pytest.raises(ValueError):
        StabilizationParams(theta=-0.1)
    # the published parameter sets are valid
    StabilizationParams.minimal()
    StabilizationParams.full()


def test_formulation_parameter_sets():
    assert Formulation("natural", 0).params() == StabilizationParams()
    assert Formulation("eo_unstab", 1).params() == StabilizationParams()
    minimal = Formulation("eo_min", 0).params()
    assert (minimal.alpha, minimal.eta) == (0.125, 0.5)
    assert minimal.gamma == minimal.theta == minimal.beta == 0.0
    full = Formulation("eo_full", 2).params()
    assert (full.alpha, full.gamma, full.eta, full.theta, full.beta) == \
        (0.125, 0.125, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        Formulation("magic", 0)
    with pytest.raises(ValueError):
        Formulation("natural", 3)


def test_formulation_space_families():
    mesh = unit_square_mesh(2)
    nat = Formulation("natural", 1).build_spaces(mesh)
    assert (nat.u.family, nat.u.degree) == ("CG", 2)
    assert (nat.e.family, nat.e.degree, nat.e.value_rank) == \
        ("DG", 1, "vector2")
    eo = Formulation("eo_full", 1).build_spaces(mesh)
    assert (eo.e.family, eo.e.degree) == ("CG", 2)
    assert eo.u is eo.lam and eo.e is eo.s is eo.mu


# ----------------------------------------------------------------------
# problem data


def test_problem_data_validation():
    with pytest.raises(ValueError):
        ProblemData(kappa=0.0)
    with pytest.raises(ValueError):
        ProblemData(dirichlet={"left": (zero, zero)},
                    neumann={"left": (None, None)})
    data = ProblemData(dirichlet={"left": (zero, zero)})
    with pytest.raises(ValueError, match="lack boundary data"):
        data.check_tags(unit_square_mesh(1))


@pytest.mark.parametrize("kwargs, message", [
    ({"kappa": np.inf}, "kappa must be a positive finite number, got inf"),
    ({"kappa": np.nan}, "kappa must be a positive finite number, got nan"),
    ({"zeta": np.nan}, "zeta must be a finite number >= 0, got nan"),
    ({"zeta": -np.inf}, "zeta must be a finite number >= 0, got -inf"),
])
def test_problem_data_rejects_non_finite_coefficients(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ProblemData(**kwargs)


@pytest.mark.parametrize("name", ["alpha", "gamma", "eta", "theta", "beta"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_stabilization_rejects_non_finite_coefficients(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        StabilizationParams(**{name: value})


def test_element_field_validation():
    mesh = unit_square_mesh(1)
    ElementField(mesh, np.zeros(2))
    ElementField(mesh, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ElementField(mesh, np.zeros(3))
    with pytest.raises(ValueError):
        ElementField(mesh, np.zeros((2, 3)))


# ----------------------------------------------------------------------
# hand-computed single-element blocks (natural formulation, k = 0)


def single_triangle_system():
    mesh = reference_triangle()
    data = ProblemData(kappa=1.0, zeta=0.0, q=0.0, f=0.0, e_data=0.0,
                       s_data=0.0,
                       dirichlet={t: (zero, zero)
                                  for t in ("bottom", "right", "left")})
    return assemble(mesh, Formulation("natural", 0), data)


def test_dg0_mass_blocks_are_scaled_identity():
    system = single_triangle_system()
    assert np.allclose(system.block("e", "e").toarray(), 0.5 * np.eye(2))
    assert np.allclose(system.block("s", "s").toarray(), 0.5 * np.eye(2))


def test_mu_gradient_block_hand_value():
    # -(mu, grad du) for du = basis at vertex (0,0) with gradient (-1,-1)
    # against mu = (1, 0): -( (1,0) . (-1,-1) ) * area = 0.5
    system = single_triangle_system()
    block = system.block("u", "mu").toarray()
    assert block[0, 0] == pytest.approx(0.5, abs=1e-14)
    assert block[0, 1] == pytest.approx(0.5, abs=1e-14)


def test_quadratic_form_equals_symmetric_parts():
    # z^T K z keeps only the symmetric blocks; verified against a direct
    # quadrature evaluation of the two symmetric forms
    mesh = unit_square_mesh(2)
    case = case1(kappa=1.7, zeta=0.6)
    data = pure_dirichlet(case)
    form = Formulation("eo_full", 0)
    system = assemble(mesh, form, data)
    params = form.params()
    rng = np.random.default_rng(21)
    z = rng.standard_normal(system.n_dofs)
    sol = system.split(z)
    spaces = system.spaces

    rule = quadrature(6)
    W = mesh.jacobian_dets[:, None] * rule.weights[None, :]
    tab = elements.Tabulation(mesh, rule)
    u = tab.values(spaces.u, sol["u"])
    gu = tab.gradient(spaces.u, sol["u"])
    lam = tab.values(spaces.lam, sol["lam"])
    glam = tab.gradient(spaces.lam, sol["lam"])
    e = tab.values(spaces.e, sol["e"])
    s = tab.values(spaces.s, sol["s"])
    mu = tab.values(spaces.mu, sol["mu"])
    div_s = tab.divergence(spaces.s, sol["s"])
    div_mu = tab.divergence(spaces.mu, sol["mu"])
    h = mesh.diameters
    kp, zt = 1.7, 0.6

    def ip(a, b, weight=W):
        prod = np.sum(a * b, axis=-1) if a.ndim == 3 else a * b
        return float(np.sum(weight * prod))

    a_form = ((1 - params.gamma) * ip(e, e) + (1 - params.eta) * kp
              * ip(s, s) + params.alpha * ip(e - gu, e - gu)
              + params.theta * kp * ip(div_s + zt * u, div_s + zt * u,
                                       (h ** 2)[:, None] * W))
    c_form = (params.beta * ip(div_mu + zt * lam, div_mu + zt * lam,
                               (h ** 2)[:, None] * W)
              + params.eta / kp * ip(glam, glam)
              + params.gamma * ip(mu, mu))
    quad_form = float(z @ (system.matrix @ z))
    assert quad_form == pytest.approx(a_form + c_form, rel=1e-11)


# ----------------------------------------------------------------------
# the assembled system is the exact gradient of the discrete functional


def discrete_functional(system, data, case, params, rule, z):
    spaces = system.spaces
    mesh = spaces.mesh
    kp, zt = data.kappa, data.zeta
    W = mesh.jacobian_dets[:, None] * rule.weights[None, :]
    phys = elements.physical_points(mesh, rule.points)
    X, Y = phys[..., 0], phys[..., 1]
    e_t, s_t = case.e_data(X, Y), case.s_data(X, Y)
    qv, fv = case.q(X, Y), case.f(X, Y)
    sol = system.split(z)
    tab = EinsumReference(mesh, rule)
    u = tab.values(spaces.u, sol["u"])
    gu = tab.gradient(spaces.u, sol["u"])
    lam = tab.values(spaces.lam, sol["lam"])
    glam = tab.gradient(spaces.lam, sol["lam"])
    e = tab.values(spaces.e, sol["e"])
    s = tab.values(spaces.s, sol["s"])
    mu = tab.values(spaces.mu, sol["mu"])
    div_s = tab.divergence(spaces.s, sol["s"])
    div_mu = tab.divergence(spaces.mu, sol["mu"])
    h = mesh.diameters

    def ip(a, b, weight=W):
        prod = np.sum(a * b, axis=-1) if a.ndim == 3 else a * b
        return float(np.sum(weight * prod))

    val = 0.5 * ip(e - e_t, e - e_t) + 0.5 * kp * ip(s - s_t, s - s_t)
    val += -ip(s, glam) + ip(zt * u - qv, lam) + ip(e - gu, mu)
    val += 0.5 * params.alpha * ip(e - gu, e - gu)
    val += -0.5 * params.gamma * ip(e + mu - e_t, e + mu - e_t)
    r_flux = kp * s - glam - kp * s_t
    val += -params.eta / (2 * kp) * ip(r_flux, r_flux)
    r_cons = div_s + zt * u - qv
    val += 0.5 * params.theta * kp * ip(r_cons, r_cons,
                                        (h ** 2)[:, None] * W)
    r_dual = div_mu + zt * lam - fv
    val += -0.5 * params.beta * ip(r_dual, r_dual,
                                   (h ** 2)[:, None] * W)
    val += -ip(fv, u)

    # Neumann additions: (g_s, lam) + (g_mu, u) over tagged edges
    ts, ws = gauss_legendre_01(6)
    owners = mesh.boundary_edge_elements
    inv_jt = inverse_jacobians_t(mesh)
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    for idx, ((a, b), tag) in enumerate(zip(mesh.boundary_edges,
                                            mesh.boundary_tags)):
        pair = data.neumann.get(tag)
        if pair is None:
            continue
        g_s, g_mu = pair
        elem, _ = owners[idx]
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        tangent = pb - pa
        length = float(np.hypot(*tangent))
        nrm = np.array([tangent[1], -tangent[0]]) / length
        if nrm @ (mesh.centroids[elem] - 0.5 * (pa + pb)) > 0:
            nrm = -nrm
        xq = pa[None, :] + ts[:, None] * tangent[None, :]
        ref = (xq - p0[elem]) @ inv_jt[elem]
        vals, _ = spaces.u.tabulate(ref)
        u_tr = vals @ sol["u"][spaces.u.dof_map[elem]]
        lam_tr = vals @ sol["lam"][spaces.lam.dof_map[elem]]
        gs = g_s(xq[:, 0], xq[:, 1], nrm[0], nrm[1])
        gm = g_mu(xq[:, 0], xq[:, 1], nrm[0], nrm[1])
        val += length * float(np.sum(ws * (gs * lam_tr + gm * u_tr)))
    return val


def functional_gradient_defect(mesh, kind, case, data):
    """Largest entry of K z - F minus the (multiplier-negated) central-
    difference gradient of the discrete functional, at a random z."""
    form = Formulation(kind, 0)
    system = assemble(mesh, form, data)
    params = form.params()
    rule = quadrature(forms.default_quad_exactness(system.spaces))

    rng = np.random.default_rng(42)
    z = rng.standard_normal(system.n_dofs)
    step = 1e-6
    grad_fd = np.zeros_like(z)
    for i in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[i] += step
        zm[i] -= step
        grad_fd[i] = (discrete_functional(system, data, case, params, rule,
                                          zp)
                      - discrete_functional(system, data, case, params,
                                            rule, zm)) / (2 * step)
    signs = np.ones(system.n_dofs)
    signs[system.field_slice("lam")] = -1.0
    signs[system.field_slice("mu")] = -1.0
    defect = (system.matrix @ z - system.rhs) - signs * grad_fd
    return np.abs(defect).max()


@pytest.mark.parametrize("kind", ["natural", "eo_full"])
def test_assembly_is_gradient_of_functional(kind):
    # definitive sign/term oracle: K z - F must equal the (multiplier-
    # negated) gradient of the discrete augmented functional, evaluated
    # with the same quadrature, to finite-difference roundoff
    case = case1(kappa=1.3, zeta=0.7)
    mesh = unit_square_mesh(2)
    data = problem_data_for(case, mesh)
    data.kappa, data.zeta = 1.3, 0.7
    assert functional_gradient_defect(mesh, kind, case, data) < 5e-8


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["natural", "eo_full"]),
       # the one interior vertex of unit_square_mesh(2) moved by up to
       # h / 5, h = 1/2 the grid spacing
       shift=hnp.arrays(float, 2, elements=st.floats(-0.1, 0.1)))
def test_perturbed_mesh_assembles_to_gradient_of_functional(kind, shift):
    square = unit_square_mesh(2)
    interior = np.setdiff1d(np.arange(square.n_vertices),
                            square.boundary_edges)
    assert interior.tolist() == [4]
    vertices = square.vertices.copy()
    vertices[interior] += shift
    try:
        mesh = Mesh(vertices, square.triangles, square.boundary_edges,
                    square.boundary_tags)
    except MeshFormatError:
        assume(False)
    case = case1(kappa=1.3, zeta=0.7)
    data = problem_data_for(case, mesh)
    # normal-trace data that do not vanish, so the boundary term counts
    g_s = lambda x, y, nx, ny: x + 2.0 * y * nx - 0.3 * ny
    g_mu = lambda x, y, nx, ny: x * x * ny + y * nx
    data.neumann = {tag: (g_s, g_mu) for tag in ("bottom", "top")}
    assert functional_gradient_defect(mesh, kind, case, data) < 5e-8


@pytest.mark.parametrize("make_mesh, neumann_tags", [
    (lambda: unit_square_mesh(2), ("bottom", "right")),
    (lambda: sector_mesh(np.pi / 2, 2, grading=2.0), ("arc", "wedge_edge_1")),
])
def test_neumann_loads_match_edge_reference(make_mesh, neumann_tags):
    # case 1's normal traces vanish on its Neumann sides, so the test
    # above sees no boundary load.  These data load every side they touch
    # and are polynomials that both edge rules integrate exactly.
    mesh = make_mesh()
    case = case1()
    g_s = lambda x, y, nx, ny: x + 2.0 * y * nx - 0.3 * ny
    g_mu = lambda x, y, nx, ny: x * x * ny + y * nx
    nothing = lambda x, y, nx, ny: np.zeros(np.shape(x))
    dirichlet = {t: (case.u, case.lam)
                 for t in set(mesh.boundary_tags) - set(neumann_tags)}
    loaded = ProblemData(dirichlet=dirichlet,
                         neumann={t: (g_s, g_mu) for t in neumann_tags})
    bare = ProblemData(dirichlet=dirichlet,
                       neumann={t: (nothing, nothing) for t in neumann_tags})
    form = Formulation("eo_full", 1)
    system = assemble(mesh, form, loaded)
    load = system.rhs - assemble(mesh, form, bare).rhs

    # the boundary term of the functional is linear: its gradient holds
    # its values at the unit vectors
    params = form.params()
    rule = quadrature(forms.default_quad_exactness(system.spaces))
    grad = np.zeros(system.n_dofs)
    signs = np.ones(system.n_dofs)
    signs[system.field_slice("lam")] = -1.0
    signs[system.field_slice("mu")] = -1.0
    for name in ("u", "lam"):
        for i in range(system.n_dofs)[system.field_slice(name)]:
            z = np.zeros(system.n_dofs)
            z[i] = 1.0
            grad[i] = (discrete_functional(system, loaded, case, params,
                                           rule, z)
                       - discrete_functional(system, bare, case, params,
                                             rule, z))
    assert np.abs(load).max() > 0.1
    assert np.abs(load + signs * grad).max() < 1e-12


# ----------------------------------------------------------------------
# structure checks


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_skew_coupling_structure(kind):
    mesh = unit_square_mesh(3)
    data = problem_data_for(case1(), mesh)
    system = assemble(mesh, Formulation(kind, 0), data)
    cut = system.offsets["lam"]
    primal_dual = system.matrix[:cut, cut:]
    dual_primal = system.matrix[cut:, :cut]
    defect = abs(primal_dual + dual_primal.T).max()
    assert defect <= 1e-12 * abs(system.matrix).max()


def test_reaction_free_decoupling():
    # zeta = 0 and no stabilization: {u, e, mu} and {s, lam} uncoupled
    mesh = unit_square_mesh(3)
    case = case1()
    data = ProblemData(kappa=1.0, zeta=0.0, q=case.q, f=case.f,
                       e_data=case.e_data, s_data=case.s_data,
                       dirichlet={t: (case.u, case.lam)
                                  for t in SQUARE_TAGS})
    for kind in ("natural", "eo_unstab"):
        system = assemble(mesh, Formulation(kind, 0), data)
        for row in ("u", "e", "mu"):
            for col in ("s", "lam"):
                for block in (system.block(row, col),
                              system.block(col, row)):
                    assert block.nnz == 0 or abs(block).max() == 0.0


def test_natural_gradient_identity():
    # grad U_h is a subspace of the vector space, so the discrete
    # compatibility equation forces e_h = grad u_h
    mesh = unit_square_mesh(8)
    case = case1()
    data = problem_data_for(case, mesh)
    system = apply_dirichlet(assemble(mesh, Formulation("natural", 0),
                                      data), data)
    sol = system.split(solve_direct(system.matrix, system.rhs))
    rule = quadrature(4)
    tab = elements.Tabulation(mesh, rule)
    gu = tab.gradient(system.spaces.u, sol["u"])
    e = tab.values(system.spaces.e, sol["e"])
    W = mesh.jacobian_dets[:, None] * rule.weights[None, :]
    gap = np.sqrt(np.sum(W * np.sum((gu - e) ** 2, axis=-1)))
    assert gap <= 1e-8


def component_expanded(mats):
    """Scalar element matrices (nt, nr, nc) on both component diagonals
    of a vector block, over the interleaved local dofs."""
    nt, nr, nc = mats.shape
    full = np.zeros((nt, nr, 2, nc, 2))
    full[:, :, 0, :, 0] = full[:, :, 1, :, 1] = mats
    return full.reshape(nt, 2 * nr, 2 * nc)


class TripletReference:
    """The triplet/COO construction the assembly used to make: every
    element matrix as (row, column, value) triplets, all concatenated and
    summed by scipy's COO to CSR conversion."""

    def __init__(self, spaces):
        self.spaces = spaces
        self.offsets, self.n_dofs = spaces.offsets()
        self.rows, self.cols, self.vals = [], [], []

    def dofs(self, name):
        return self.spaces.by_name(name).element_dofs + self.offsets[name]

    def add(self, row_name, col_name, mats):
        self.add_triplets(self.dofs(row_name), self.dofs(col_name), mats)

    def add_triplets(self, row_dofs, col_dofs, mats):
        self.rows.append(np.broadcast_to(row_dofs[:, :, None],
                                         mats.shape).ravel())
        self.cols.append(np.broadcast_to(col_dofs[:, None, :],
                                         mats.shape).ravel())
        self.vals.append(np.ascontiguousarray(mats).ravel())

    def add_mass(self, row_name, col_name, mats):
        self.add(row_name, col_name, component_expanded(mats))

    def csr(self):
        return sp.coo_matrix(
            (np.concatenate(self.vals),
             (np.concatenate(self.rows), np.concatenate(self.cols))),
            shape=(self.n_dofs, self.n_dofs)).tocsr()


def assert_canonical(mat):
    """Column indices strictly increase within every row."""
    steps = np.diff(mat.indices)
    row_starts = mat.indptr[1:-1]
    inner = np.ones(len(steps), dtype=bool)
    inner[row_starts[(row_starts > 0) & (row_starts < mat.nnz)] - 1] = False
    assert np.all(steps[inner] > 0)


def sector_problem():
    phi = 3 * np.pi / 4
    mesh = sector_mesh(phi, 3, grading=2.0)
    return mesh, problem_data_for(case2(phi), mesh)


def square_problem():
    mesh = unit_square_mesh(3)
    return mesh, problem_data_for(case1(), mesh)


@pytest.mark.parametrize("make_problem", [square_problem, sector_problem])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_block_assembly_matches_triplet_reference(kind, k, make_problem,
                                                  monkeypatch):
    mesh, data = make_problem()
    form = Formulation(kind, k)
    system = assemble(mesh, form, data)
    gram = stability_norm_matrix(form.build_spaces(mesh), 1.3, 0.2)
    monkeypatch.setattr(forms, "_BlockMatrix", TripletReference)
    ref_system = assemble(mesh, form, data)
    ref_gram = stability_norm_matrix(form.build_spaces(mesh), 1.3, 0.2)
    assert np.array_equal(system.rhs, ref_system.rhs)
    for mat, ref in ((system.matrix, ref_system.matrix), (gram, ref_gram)):
        assert_canonical(mat)
        # same stored pattern, explicit zeros included
        assert np.array_equal(mat.indptr, ref.indptr)
        assert np.array_equal(mat.indices, ref.indices)
        # the same terms summed in another order: a few ulps of the
        # largest entry
        scale = np.abs(ref.data).max()
        assert np.abs(mat.data - ref.data).max() <= 8 * np.finfo(float).eps \
            * scale


class ExpandedMass(forms._BlockMatrix):
    """The assembly's block matrix with each mass term added as its
    component-expanded element matrices."""

    def add_mass(self, row_name, col_name, mats):
        self.add(row_name, col_name, component_expanded(mats))


@pytest.mark.parametrize("make_problem", [square_problem, sector_problem])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("kind", ["eo_min", "eo_full"])
def test_a_mass_term_is_stored_like_its_expanded_matrices(
        kind, k, make_problem, monkeypatch):
    # one layout for every block: e-e and e-mu hold mass terms alone,
    # and s-s (eo_full) and mu-mu also take a div-div term
    mesh, data = make_problem()
    form = Formulation(kind, k)
    system = assemble(mesh, form, data)
    gram = stability_norm_matrix(system.spaces, 1.3, 0.2)
    monkeypatch.setattr(forms, "_BlockMatrix", ExpandedMass)
    expanded = assemble(mesh, form, data)
    expanded_gram = stability_norm_matrix(system.spaces, 1.3, 0.2)
    assert np.array_equal(system.rhs, expanded.rhs)
    for mat, ref in ((system.matrix, expanded.matrix),
                     (gram, expanded_gram)):
        for name in ("indptr", "indices", "data"):
            got, want = getattr(mat, name), getattr(ref, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_numpy_scalar_coefficients_assemble_like_python_floats():
    mesh = unit_square_mesh(3)
    case = case1()
    dirichlet = {t: (case.u, case.lam) for t in SQUARE_TAGS}
    for kind in ALL_KINDS:
        form = Formulation(kind, 1)
        systems = [assemble(mesh, form, ProblemData(
            kappa=1.0, zeta=zeta, q=q, f=f, e_data=case.e_data,
            s_data=case.s_data, dirichlet=dirichlet))
            for zeta, q, f in ((1.0, 0.5, -2.0),
                               (np.int64(1), np.float32(0.5),
                                np.float64(-2.0)))]
        python, numpy_scalars = systems
        assert np.array_equal(python.rhs, numpy_scalars.rhs)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(python.matrix, name),
                                  getattr(numpy_scalars.matrix, name))


# ----------------------------------------------------------------------
# the BLAS contractions against the einsum formulas they replaced


class EinsumReference:
    """The np.einsum formulas every quadrature sum used before the
    contractions became BLAS products, on one set of reference points.

    Weights, physical points, basis values and mapped gradients are
    built here from the reference tables, not taken from
    :class:`elements.Tabulation`.
    """

    def __init__(self, mesh, rule):
        self.mesh = mesh
        self.points = rule.points
        self.W = mesh.jacobian_dets[:, None] * rule.weights[None, :]
        self.xy = np.moveaxis(self.physical_points(mesh, rule.points), -1, 0)

    @staticmethod
    def physical_points(mesh, ref_points):
        p0 = mesh.vertices[mesh.triangles[:, 0]]
        return p0[:, None, :] + np.einsum("tab,qb->tqa", mesh.jacobians,
                                          ref_points)

    def phi(self, space):
        return space.tabulate(self.points)[0]

    def grad(self, space):
        return np.einsum("tab,qlb->tqla",
                         inverse_jacobians_t(self.mesh),
                         space.tabulate(self.points)[1])

    def div(self, space):
        grads = self.grad(space)
        return grads.reshape(grads.shape[0], grads.shape[1], -1)

    @staticmethod
    def local(space, coeffs):
        return coeffs[space.element_dofs].reshape(len(space.dof_map),
                                                  -1, 2)

    def values(self, space, coeffs):
        if space.value_rank == "vector2":
            return np.einsum("tlc,ql->tqc", self.local(space, coeffs),
                             self.phi(space))
        return np.einsum("tl,ql->tq", coeffs[space.dof_map], self.phi(space))

    def gradient(self, space, coeffs):
        return np.einsum("tl,tqla->tqa", coeffs[space.dof_map],
                         self.grad(space))

    def divergence(self, space, coeffs):
        return np.einsum("tlc,tqlc->tq", self.local(space, coeffs),
                         self.grad(space))

    @staticmethod
    def vector_mass(weight, phi_r, phi_c):
        m = np.einsum("tq,qi,qj->tij", weight, phi_r, phi_c)
        nt, nr, nc = m.shape
        out = np.zeros((nt, nr, 2, nc, 2))
        out[:, :, 0, :, 0] = m
        out[:, :, 1, :, 1] = m
        return out.reshape(nt, 2 * nr, 2 * nc)

    @classmethod
    def interpolate(cls, space, f):
        """DG projection."""
        rule = quadrature(min(10, 2 * space.degree + 2))
        ref = cls(space.mesh, rule)
        vals = ref.phi(space)
        fx = np.asarray(f(*ref.xy), dtype=float)
        minv = np.linalg.inv(np.einsum("q,qi,qj->ij", rule.weights, vals,
                                       vals))
        out = np.zeros(space.n_dofs)
        if space.value_rank == "vector2":
            rhs = np.einsum("q,qi,tqc->tic", rule.weights, vals, fx)
            coeffs = np.einsum("ij,tjc->tic", minv, rhs)
            out[space.element_dofs.reshape(-1)] = coeffs.reshape(-1)
        else:
            rhs = np.einsum("q,qi,tq->ti", rule.weights, vals, fx)
            out[space.dof_map.reshape(-1)] = (rhs @ minv.T).reshape(-1)
        return out

    @classmethod
    def assemble(cls, mesh, form, data):
        """Element matrices summed per block, and the load without its
        Neumann part."""
        spaces = form.build_spaces(mesh)
        params = form.params()
        ref = cls(mesh, quadrature(forms.default_quad_exactness(spaces)))
        W, (X, Y) = ref.W, ref.xy
        kp = float(data.kappa)
        al, ga, et = params.alpha, params.gamma, params.eta
        th, bt = params.theta, params.beta
        h = mesh.diameters
        zeta_q = forms._field_at(data.zeta, X, Y)
        q_q = forms._field_at(data.q, X, Y)
        f_q = forms._field_at(data.f, X, Y)
        e_dat = forms._field_at(data.e_data, X, Y, (2,))
        s_dat = forms._field_at(data.s_data, X, Y, (2,))
        w_ts = th * kp * (h ** 2)[:, None] * W if th else None
        w_b = bt * (h ** 2)[:, None] * W if bt else None
        phi_u, grad_u = ref.phi(spaces.u), ref.grad(spaces.u)
        phi_v, div_v = ref.phi(spaces.e), ref.div(spaces.e)
        blocks = BlockRecorder(spaces)
        add = blocks.add

        def flat(m, axis):
            shape = list(m.shape[:axis]) + [-1] + list(m.shape[axis + 2:])
            return m.reshape(shape)

        if al:
            add("u", "u", al * np.einsum("tq,tqia,tqja->tij", W, grad_u,
                                         grad_u))
            b_ue = flat(-al * np.einsum("tq,qj,tqic->tijc", W, phi_v,
                                        grad_u), 2)
            add("u", "e", b_ue)
            add("e", "u", b_ue.transpose(0, 2, 1))
        if w_ts is not None and zeta_q is not None:
            add("u", "u", np.einsum("tq,qi,qj->tij", w_ts * zeta_q ** 2,
                                    phi_u, phi_u))
            b_us = np.einsum("tq,qi,tqj->tij", w_ts * zeta_q, phi_u, div_v)
            add("u", "s", b_us)
            add("s", "u", b_us.transpose(0, 2, 1))
        add("e", "e", (1.0 + al - ga) * cls.vector_mass(W, phi_v, phi_v))
        add("s", "s", (1.0 - et) * kp * cls.vector_mass(W, phi_v, phi_v))
        if w_ts is not None:
            add("s", "s", np.einsum("tq,tqi,tqj->tij", w_ts, div_v, div_v))
        dual_sign = -1.0
        if zeta_q is not None:
            b_ul = np.einsum("tq,qi,qj->tij", W * zeta_q, phi_u, phi_u)
            add("u", "lam", b_ul)
            add("lam", "u", dual_sign * b_ul.transpose(0, 2, 1))
        b_um = flat(-np.einsum("tq,qj,tqic->tijc", W, phi_v, grad_u), 2)
        add("u", "mu", b_um)
        add("mu", "u", dual_sign * b_um.transpose(0, 2, 1))
        b_em = (1.0 - ga) * cls.vector_mass(W, phi_v, phi_v)
        add("e", "mu", b_em)
        add("mu", "e", dual_sign * b_em.transpose(0, 2, 1))
        b_sl = flat(-(1.0 - et) * np.einsum("tq,qi,tqjc->ticj", W, phi_v,
                                            grad_u), 1)
        add("s", "lam", b_sl)
        add("lam", "s", dual_sign * b_sl.transpose(0, 2, 1))
        dd = -dual_sign
        if et:
            add("lam", "lam", dd * (et / kp) * np.einsum(
                "tq,tqia,tqja->tij", W, grad_u, grad_u))
        if w_b is not None and zeta_q is not None:
            add("lam", "lam", dd * np.einsum("tq,qi,qj->tij",
                                             w_b * zeta_q ** 2, phi_u, phi_u))
            b_lm = np.einsum("tq,qi,tqj->tij", w_b * zeta_q, phi_u, div_v)
            add("lam", "mu", dd * b_lm)
            add("mu", "lam", dd * b_lm.transpose(0, 2, 1))
        if ga:
            add("mu", "mu", dd * ga * cls.vector_mass(W, phi_v, phi_v))
        if w_b is not None:
            add("mu", "mu", dd * np.einsum("tq,tqi,tqj->tij", w_b, div_v,
                                           div_v))

        offsets, n_dofs = spaces.offsets()
        rhs = np.zeros(n_dofs)

        def load(name, contrib):
            dofs = spaces.by_name(name).element_dofs + offsets[name]
            np.add.at(rhs, dofs.ravel(), contrib.ravel())

        if q_q is not None and w_ts is not None and zeta_q is not None:
            load("u", np.einsum("tq,qi->ti", w_ts * zeta_q * q_q, phi_u))
        if f_q is not None:
            load("u", np.einsum("tq,qi->ti", W * f_q, phi_u))
        if e_dat is not None:
            load("e", (1.0 - ga) * np.einsum("tq,tqc,qi->tic", W, e_dat,
                                             phi_v))
            if ga:
                load("mu", -dual_sign * ga * np.einsum(
                    "tq,tqc,qi->tic", W, e_dat, phi_v))
        if s_dat is not None:
            load("s", (1.0 - et) * kp * np.einsum("tq,tqc,qi->tic", W,
                                                  s_dat, phi_v))
            if et:
                load("lam", dual_sign * et * np.einsum(
                    "tq,tqc,tqic->ti", W, s_dat, grad_u))
        if q_q is not None:
            if w_ts is not None:
                load("s", np.einsum("tq,tqi->ti", w_ts * q_q, div_v))
            load("lam", dual_sign * np.einsum("tq,qi->ti", W * q_q, phi_u))
        if f_q is not None and w_b is not None:
            if zeta_q is not None:
                load("lam", -dual_sign * np.einsum(
                    "tq,qi->ti", w_b * zeta_q * f_q, phi_u))
            load("mu", -dual_sign * np.einsum("tq,tqi->ti", w_b * f_q,
                                              div_v))
        return blocks.blocks, rhs

    @classmethod
    def stability_blocks(cls, spaces, kappa, h):
        ref = cls(spaces.mesh,
                  quadrature(min(10, 2 * spaces.max_degree() + 1)))
        W = ref.W
        grad_u, phi_v, div_v = (ref.grad(spaces.u), ref.phi(spaces.e),
                                ref.div(spaces.e))
        stiff = np.einsum("tq,tqia,tqja->tij", W, grad_u, grad_u)
        vmass = cls.vector_mass(W, phi_v, phi_v)
        divg = np.einsum("tq,tqi,tqj->tij", W, div_v, div_v)
        return {("u", "u"): stiff, ("e", "e"): vmass,
                ("s", "s"): kappa * vmass + kappa * h ** 2 * divg,
                ("lam", "lam"): stiff / kappa,
                ("mu", "mu"): vmass + h ** 2 * divg}


class BlockRecorder:
    """Stands in for the assembly's block matrix: sums the element
    matrices added to each block, a mass term expanded to its vector
    block."""

    def __init__(self, spaces):
        self.spaces = spaces
        self.blocks = {}

    def add(self, row_name, col_name, mats):
        key = (row_name, col_name)
        self.blocks[key] = self.blocks.get(key, 0.0) + mats

    def add_mass(self, row_name, col_name, mats):
        self.add(row_name, col_name, component_expanded(mats))

    def csr(self):
        n_dofs = self.spaces.offsets()[1]
        return sp.csr_matrix((n_dofs, n_dofs))


def assert_close(value, reference, rtol=1e-13):
    """Within rtol of the largest reference entry."""
    value, reference = np.asarray(value), np.asarray(reference)
    assert value.shape == reference.shape
    scale = np.abs(reference).max()
    assert np.abs(value - reference).max() <= rtol * scale


def stored(mat):
    """The stored pattern of a CSR matrix, as ones."""
    return sp.csr_matrix((np.ones(mat.nnz), mat.indices, mat.indptr),
                         shape=mat.shape)


@pytest.mark.parametrize("make_problem", [square_problem, sector_problem])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_element_matrices_and_loads_match_einsum_reference(
        kind, k, make_problem, monkeypatch):
    mesh, data = make_problem()
    # the reference load has no Neumann part; every tag still needs data
    data.neumann = {}
    data.dirichlet = {tag: (None, None) for tag in mesh.boundary_tags}
    form = Formulation(kind, k)
    system = assemble(mesh, form, data)
    ref_blocks, ref_rhs = EinsumReference.assemble(mesh, form, data)
    assert_close(system.rhs, ref_rhs)

    # the stored pattern drops only entries that are exactly zero
    full = TripletReference(system.spaces)
    for (row, col), mats in ref_blocks.items():
        full.add(row, col, mats)
    full = full.csr()
    assert (stored(system.matrix) - stored(full)).max() == 0
    dropped = full - full.multiply(stored(system.matrix))
    dropped.eliminate_zeros()
    assert dropped.nnz == 0

    recorded = []

    class Recording(BlockRecorder):
        def csr(self):
            recorded.append(self.blocks)
            return super().csr()

    monkeypatch.setattr(forms, "_BlockMatrix", Recording)
    assemble(mesh, form, data)
    h = mesh_size(mesh)
    stability_norm_matrix(system.spaces, 1.3, h)
    ref_gram = EinsumReference.stability_blocks(system.spaces, 1.3, h)
    for blocks, ref in zip(recorded, (ref_blocks, ref_gram)):
        assert set(blocks) == set(ref)
        for key, mats in blocks.items():
            assert_close(mats, ref[key])


@pytest.mark.parametrize("make_problem", [square_problem, sector_problem])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_field_evaluation_matches_einsum_reference(kind, k, make_problem):
    mesh, _ = make_problem()
    spaces = Formulation(kind, k).build_spaces(mesh)
    rule = quadrature(forms.default_quad_exactness(spaces))
    tab = elements.Tabulation(mesh, rule)
    ref = EinsumReference(mesh, rule)
    assert_close(np.stack(tab.xy), ref.xy)
    lattice = elements.lattice_nodes(k + 1)
    assert_close(elements.physical_points(mesh, lattice),
                 EinsumReference.physical_points(mesh, lattice))
    rng = np.random.default_rng(k)
    for space in (spaces.u, spaces.e):
        coeffs = rng.standard_normal(space.n_dofs)
        assert_close(tab.values(space, coeffs), ref.values(space, coeffs))
        if space.value_rank == "vector2":
            assert_close(tab.divergence(space, coeffs),
                         ref.divergence(space, coeffs))
        else:
            assert_close(tab.gradient(space, coeffs),
                         ref.gradient(space, coeffs))
        assert_close(tab.grad(space), ref.grad(space))

    def scalar(x, y):
        return np.sin(3 * x) * np.cos(2 * y) + x * y

    def vector(x, y):
        return np.stack([np.exp(x - y), x * y ** 2], axis=-1)

    for rank, f in (("scalar", scalar), ("vector2", vector)):
        space = elements.build_space(mesh, "DG", k, rank)
        assert_close(interpolate(space, f),
                     EinsumReference.interpolate(space, f))


def diagonal_products(matrix, rhs, idx, val):
    """The elimination through diagonal products: D A D + (I - D) and a
    full product for the lifted load."""
    n = matrix.shape[0]
    x_bc = np.zeros(n)
    x_bc[idx] = val
    lifted = rhs - matrix @ x_bc
    lifted[idx] = val
    keep = np.ones(n)
    keep[idx] = 0.0
    d_keep = sp.diags(keep)
    matrix = (d_keep @ matrix @ d_keep + sp.diags(1.0 - keep)).tocsr()
    matrix.sort_indices()
    return matrix, lifted


def reference_elimination(system, data):
    idx, val = dirichlet_values(system, data)
    return diagonal_products(system.matrix, system.rhs, idx, val)


@pytest.mark.parametrize("make_problem", [square_problem, sector_problem])
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_elimination_matches_diagonal_products(kind, k, make_problem):
    mesh, data = make_problem()
    system = assemble(mesh, Formulation(kind, k), data)
    before = system.matrix.copy()
    constrained = apply_dirichlet(system, data)
    matrix, lifted = reference_elimination(system, data)
    assert_canonical(constrained.matrix)
    assert np.array_equal(constrained.matrix.indptr, matrix.indptr)
    assert np.array_equal(constrained.matrix.indices, matrix.indices)
    assert np.array_equal(constrained.matrix.data, matrix.data)
    assert np.allclose(constrained.rhs, lifted, rtol=0.0,
                       atol=1e-14 * np.abs(lifted).max())
    # the input is untouched
    assert (system.matrix != before).nnz == 0
    assert system.matrix.nnz == before.nnz


def test_elimination_inserts_a_missing_diagonal():
    mesh, data = square_problem()
    system = assemble(mesh, Formulation("natural", 0), data)
    dofs, _ = dirichlet_values(system, data)
    # natural stores no u-u block: no constrained u row has a diagonal
    u_rows = dofs[dofs < system.offsets["e"]]
    assert all(system.matrix[i, i] == 0.0 for i in u_rows)
    # and a constrained row without any stored entry still gets one
    emptied = sp.csr_matrix(system.matrix, copy=True)
    emptied.data[emptied.indptr[u_rows[0]]:emptied.indptr[u_rows[0] + 1]] = 0
    emptied.eliminate_zeros()
    system.matrix = emptied
    constrained = apply_dirichlet(system, data)
    matrix, lifted = reference_elimination(system, data)
    assert_canonical(constrained.matrix)
    assert np.array_equal(constrained.matrix.indptr, matrix.indptr)
    assert np.array_equal(constrained.matrix.indices, matrix.indices)
    assert np.array_equal(constrained.matrix.data, matrix.data)
    for i in dofs:
        assert constrained.matrix[i, i] == 1.0


FINITE = st.floats(-1e3, 1e3, allow_subnormal=False)


@st.composite
def eliminations(draw):
    """A random sparse matrix, with some rows stored empty and explicit
    zeros among its entries, a load, and distinct dofs to fix with
    their values: none, all or any subset, in any order."""
    n = draw(st.integers(1, 9))
    stored = draw(hnp.arrays(bool, (n, n)))
    stored[draw(st.lists(st.integers(0, n - 1), max_size=n))] = False
    values = draw(hnp.arrays(float, (n, n), elements=FINITE))
    matrix = sp.csr_matrix((values[stored], np.nonzero(stored)),
                           shape=(n, n))
    order = draw(st.permutations(range(n)))
    idx = np.array(order[:draw(st.integers(0, n))], dtype=np.int64)
    val = draw(hnp.arrays(float, len(idx), elements=FINITE))
    rhs = draw(hnp.arrays(float, n, elements=FINITE))
    return matrix, rhs, idx, val


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(eliminations())
def test_elimination_is_the_diagonal_products(problem):
    matrix, rhs, idx, val = problem
    before = matrix.copy()
    result, lifted = forms._eliminate(matrix, rhs, idx, val)
    expected, expected_load = diagonal_products(matrix, rhs, idx, val)
    assert_canonical(result)
    assert np.array_equal(result.indptr, expected.indptr)
    assert np.array_equal(result.indices, expected.indices)
    assert np.array_equal(result.data, expected.data)
    x_bc = np.zeros(len(rhs))
    x_bc[idx] = val
    scale = np.abs(rhs) + abs(matrix) @ np.abs(x_bc)
    assert np.all(np.abs(lifted - expected_load) <= 1e-14 * scale)
    # the input is untouched
    assert np.array_equal(matrix.data, before.data)
    assert np.array_equal(matrix.indices, before.indices)


def test_assembly_is_deterministic():
    # bitwise: factor reuse keys on a digest of the constrained matrix
    for make_problem in (square_problem, sector_problem):
        mesh, data = make_problem()
        for kind in ALL_KINDS:
            for k in (0, 1, 2):
                first, second = (assemble(mesh, Formulation(kind, k), data)
                                 for _ in range(2))
                for a, b in ((first, second),
                             (apply_dirichlet(first, data),
                              apply_dirichlet(second, data))):
                    for name in ("data", "indices", "indptr"):
                        assert np.array_equal(getattr(a.matrix, name),
                                              getattr(b.matrix, name))
                    assert np.array_equal(a.rhs, b.rhs)
                    assert matrix_digest(a.matrix) == matrix_digest(b.matrix)


# ----------------------------------------------------------------------
# Dirichlet conditions


def test_homogeneous_dirichlet_rows_are_identity():
    mesh = unit_square_mesh(2)
    case = case1()
    data = ProblemData(kappa=1.0, zeta=1.0, q=case.q, f=case.f,
                       e_data=case.e_data, s_data=case.s_data,
                       dirichlet={t: (zero, zero) for t in SQUARE_TAGS})
    system = apply_dirichlet(assemble(mesh, Formulation("eo_min", 0),
                                      data), data)
    dofs, values = dirichlet_values(system, data)
    assert len(dofs)
    mat = system.matrix.tocsr()
    for dof, value in zip(dofs, values):
        assert value == 0.0
        row = mat.getrow(dof)
        assert row.nnz == 1 and row[0, dof] == 1.0
        assert system.rhs[dof] == 0.0


def test_constant_dirichlet_value_propagates():
    mesh = unit_square_mesh(3)
    case = case3()
    one = lambda x, y: np.ones(np.shape(x))
    data = ProblemData(kappa=1.0, zeta=1.0, q=case.q, f=0.0,
                       e_data=case.e_data, s_data=case.s_data,
                       dirichlet={t: (one, zero) for t in SQUARE_TAGS})
    system = apply_dirichlet(assemble(mesh, Formulation("natural", 0),
                                      data), data)
    x = solve_direct(system.matrix, system.rhs)
    sol = system.split(x)
    boundary = np.unique(mesh.boundary_edges)
    assert np.allclose(sol["u"][boundary], 1.0, atol=1e-12)


def test_conflicting_corner_values_rejected():
    mesh = unit_square_mesh(2)
    case = case3()
    one = lambda x, y: np.ones(np.shape(x))
    data = ProblemData(kappa=1.0, zeta=1.0, q=case.q, f=0.0,
                       e_data=case.e_data, s_data=case.s_data,
                       dirichlet={"left": (zero, zero),
                                  "right": (zero, zero),
                                  "bottom": (one, zero),
                                  "top": (one, zero)})
    system = assemble(mesh, Formulation("natural", 0), data)
    with pytest.raises(ValueError, match="conflicting Dirichlet"):
        dirichlet_values(system, data)


def on_tagged_boundary(mesh, tags, points, tol=1e-12):
    """Mask of the points lying on a boundary edge with one of the tags."""
    on = np.zeros(len(points), dtype=bool)
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        if tag not in tags:
            continue
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        t = np.clip((points - pa) @ (pb - pa) / ((pb - pa) @ (pb - pa)),
                    0.0, 1.0)
        on |= np.hypot(*(points - pa - t[:, None] * (pb - pa)).T) <= tol
    return on


@pytest.mark.parametrize("make_mesh, k, tags", [
    (lambda: unit_square_mesh(3), 1, ("left", "bottom")),
    (lambda: sector_mesh(np.pi / 2, 3, grading=2.0), 2,
     ("wedge_edge_0", "arc")),
])
def test_constrained_dofs_are_the_tagged_boundary_nodes(make_mesh, k, tags):
    mesh = make_mesh()
    g_u = lambda x, y: 1.0 + x + 2.0 * y
    g_lam = lambda x, y: x * y - 0.5
    no_flux = lambda x, y, nx, ny: np.zeros(np.shape(x))
    data = ProblemData(
        dirichlet={t: (g_u, g_lam) for t in tags},
        neumann={t: (no_flux, no_flux)
                 for t in set(mesh.boundary_tags) - set(tags)})
    system = assemble(mesh, Formulation("eo_min", k), data)
    space = system.spaces.u
    assert space.degree == k + 1
    nodes = np.flatnonzero(on_tagged_boundary(mesh, tags, space.node_coords))
    x, y = space.node_coords[nodes].T
    expected_dofs = np.concatenate([system.offsets["u"] + nodes,
                                    system.offsets["lam"] + nodes])
    expected_values = np.concatenate([g_u(x, y), g_lam(x, y)])

    dofs, values = dirichlet_values(system, data)
    assert np.array_equal(dofs, expected_dofs)
    np.testing.assert_allclose(values, expected_values, rtol=0, atol=1e-15)


def test_missing_boundary_data_rejected():
    mesh = unit_square_mesh(2)
    case = case3()
    data = ProblemData(kappa=1.0, zeta=1.0, q=case.q, f=0.0,
                       e_data=case.e_data, s_data=case.s_data,
                       dirichlet={"left": (zero, zero)})
    with pytest.raises(ValueError, match="lack boundary data"):
        assemble(mesh, Formulation("natural", 0), data)


def test_interpolated_exact_solution_nearly_solves_the_system():
    # consistency sweep: the residual of the interpolated manufactured
    # solution decreases under refinement
    case = case1()
    norms = []
    for n in (4, 8, 16):
        mesh = unit_square_mesh(n)
        data = problem_data_for(case, mesh)
        system = apply_dirichlet(assemble(mesh, Formulation("eo_full", 0),
                                          data), data)
        spaces = system.spaces
        z = np.concatenate([
            interpolate(spaces.u, case.u),
            interpolate(spaces.e, case.e),
            interpolate(spaces.s, case.s),
            interpolate(spaces.lam, case.lam),
            interpolate(spaces.mu, case.mu)])
        norms.append(np.linalg.norm(system.matrix @ z - system.rhs))
    assert norms[0] > norms[1] > norms[2]
    rate = np.log(norms[0] / norms[2]) / np.log(4.0)
    assert rate > 0.8


# ----------------------------------------------------------------------
# stability norm


def test_stability_norm_matrix_matches_quadrature():
    mesh = unit_square_mesh(3)
    spaces = Formulation("eo_full", 0).build_spaces(mesh)
    kappa, h = 1.4, mesh_size(mesh)
    gram = stability_norm_matrix(spaces, kappa, h)
    rng = np.random.default_rng(31)
    offsets, n = spaces.offsets()
    z = rng.standard_normal(n)
    sol = {name: z[offsets[name]:offsets[name]
                   + spaces.by_name(name).n_dofs]
           for name in ("u", "e", "s", "lam", "mu")}
    rule = quadrature(4)
    W = mesh.jacobian_dets[:, None] * rule.weights[None, :]
    tab = elements.Tabulation(mesh, rule)
    gu = tab.gradient(spaces.u, sol["u"])
    glam = tab.gradient(spaces.lam, sol["lam"])
    e = tab.values(spaces.e, sol["e"])
    s = tab.values(spaces.s, sol["s"])
    mu = tab.values(spaces.mu, sol["mu"])
    div_s = tab.divergence(spaces.s, sol["s"])
    div_mu = tab.divergence(spaces.mu, sol["mu"])

    def sq(a, w=1.0):
        prod = np.sum(a * a, axis=-1) if a.ndim == 3 else a * a
        return float(np.sum(W * prod)) * w

    expected = (sq(gu) + sq(e) + kappa * sq(s) + sq(glam) / kappa + sq(mu)
                + kappa * h ** 2 * sq(div_s) + h ** 2 * sq(div_mu))
    assert float(z @ (gram @ z)) == pytest.approx(expected, rel=1e-11)


def test_coercivity_sampling_small():
    mesh = unit_square_mesh(8)
    data = ProblemData(kappa=1.0, zeta=1.0, q=0.0, f=0.0, e_data=0.0,
                       s_data=0.0,
                       dirichlet={t: (zero, zero) for t in SQUARE_TAGS})
    system = assemble(mesh, Formulation("eo_full", 0), data)
    cons, _ = dirichlet_values(system, data)
    free = np.setdiff1d(np.arange(system.n_dofs), cons)
    gram = stability_norm_matrix(system.spaces, 1.0, mesh_size(mesh))
    rng = np.random.default_rng(5)
    for _ in range(100):
        z = np.zeros(system.n_dofs)
        z[free] = rng.standard_normal(len(free))
        ratio = (z @ (system.matrix @ z)) / (z @ (gram @ z))
        assert ratio >= 0.05
