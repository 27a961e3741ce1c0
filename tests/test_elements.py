import math

import numpy as np
import pytest

from gradflux.elements import (Tabulation, build_space, gauss_legendre_01,
                               interpolate, lagrange_eval, lagrange_grad,
                               lattice_nodes, physical_points, quadrature)
from gradflux.mesh import Mesh, unit_square_mesh


def reference_triangle():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]), np.array([[0, 1], [1, 2], [2, 0]]),
                ["bottom", "right", "left"])


# ----------------------------------------------------------------------
# Lagrange bases


def test_p1_kronecker_at_vertex():
    assert np.allclose(lagrange_eval(1, (0.0, 0.0)), [1.0, 0.0, 0.0])


def test_p2_kronecker_at_edge_midpoint():
    nodes = lattice_nodes(2)
    vals = lagrange_eval(2, nodes[3])   # first edge node of (v0, v1)
    expected = np.zeros(6)
    expected[3] = 1.0
    assert np.allclose(vals, expected, atol=1e-13)


def test_kronecker_property_all_degrees():
    for degree in (1, 2, 3):
        vals = lagrange_eval(degree, lattice_nodes(degree))
        assert np.allclose(vals, np.eye(len(vals)), atol=1e-12)


def test_partition_of_unity():
    rng = np.random.default_rng(3)
    pts = rng.random((20, 2)) * 0.5
    for degree in (1, 2, 3):
        sums = lagrange_eval(degree, pts).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-14)


def test_p1_constant_gradients():
    grads = lagrange_grad(1, (0.3, 0.2))
    assert np.allclose(grads, [[-1, -1], [1, 0], [0, 1]])


def test_gradient_sum_vanishes():
    rng = np.random.default_rng(4)
    pts = rng.random((10, 2)) * 0.5
    for degree in (1, 2, 3):
        totals = lagrange_grad(degree, pts).sum(axis=1)
        assert np.abs(totals).max() < 1e-13


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    step = 1e-6
    for degree in (2, 3):
        for p in rng.random((8, 2)) * 0.4 + 0.05:
            grad = lagrange_grad(degree, p)
            fx = (lagrange_eval(degree, (p[0] + step, p[1]))
                  - lagrange_eval(degree, (p[0] - step, p[1]))) / (2 * step)
            fy = (lagrange_eval(degree, (p[0], p[1] + step))
                  - lagrange_eval(degree, (p[0], p[1] - step))) / (2 * step)
            assert np.abs(grad[:, 0] - fx).max() < 1e-7
            assert np.abs(grad[:, 1] - fy).max() < 1e-7


def test_unsupported_degrees_rejected():
    with pytest.raises(ValueError):
        lagrange_eval(0, (0.1, 0.1))
    with pytest.raises(ValueError):
        lagrange_eval(4, (0.1, 0.1))
    with pytest.raises(ValueError):
        lagrange_grad(5, (0.1, 0.1))


# ----------------------------------------------------------------------
# quadrature


def test_quadrature_weight_sums():
    for d in range(1, 11):
        assert quadrature(d).weights.sum() == pytest.approx(0.5, abs=1e-14)


def test_quadrature_rules_are_memoized_and_read_only():
    for d in range(1, 11):
        rule = quadrature(d)
        assert quadrature(d) is rule
        for arr in (rule.points, rule.weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_quadrature_basic_moments():
    rule = quadrature(2)
    one = np.sum(rule.weights)
    x = np.sum(rule.weights * rule.points[:, 0])
    assert one == pytest.approx(0.5, abs=1e-15)
    assert x == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_quadrature_x2y2_moment():
    # simplex formula: a! b! / (a + b + 2)! = 4 / 720 = 1/180
    rule = quadrature(4)
    val = np.sum(rule.weights * rule.points[:, 0] ** 2
                 * rule.points[:, 1] ** 2)
    assert val == pytest.approx(1.0 / 180.0, abs=1e-15)


def test_quadrature_monomial_exactness():
    for d in range(1, 11):
        rule = quadrature(d)
        for a in range(d + 1):
            for b in range(d + 1 - a):
                val = np.sum(rule.weights * rule.points[:, 0] ** a
                             * rule.points[:, 1] ** b)
                exact = (math.factorial(a) * math.factorial(b)
                         / math.factorial(a + b + 2))
                assert abs(val - exact) <= 1e-14, (d, a, b)


def test_gauss_rules_match_scipy_roots():
    # the conical rules (degrees 7-10) and the edge rule, computed with
    # numpy alone, against the same products of scipy's 1D rules
    from scipy.special import roots_jacobi, roots_legendre

    for d in range(7, 11):
        n = (d + 2) // 2
        xj, wj = roots_jacobi(n, 1.0, 0.0)
        xl, wl = roots_legendre(n)
        xi, eta = np.meshgrid(0.5 * (xj + 1.0), 0.5 * (xl + 1.0),
                              indexing="ij")
        rule = quadrature(d)
        assert np.abs(rule.points - np.column_stack(
            [xi.ravel(), (eta * (1.0 - xi)).ravel()])).max() <= 1e-14
        assert np.abs(rule.weights
                      - np.outer(wj / 4.0, wl / 2.0).ravel()).max() <= 1e-14
    for n in range(1, 7):
        x, w = roots_legendre(n)
        ts, ws = gauss_legendre_01(n)
        assert np.abs(ts - 0.5 * (x + 1.0)).max() <= 1e-14
        assert np.abs(ws - 0.5 * w).max() <= 1e-14


def test_quadrature_rejects_unsupported_degree():
    with pytest.raises(ValueError):
        quadrature(0)
    with pytest.raises(ValueError):
        quadrature(11)


# ----------------------------------------------------------------------
# spaces and dof maps


def test_space_sizes_on_single_cell():
    mesh = unit_square_mesh(1)
    assert build_space(mesh, "CG", 1).n_dofs == 4
    assert build_space(mesh, "CG", 2).n_dofs == 9
    assert build_space(mesh, "DG", 0, "vector2").n_dofs == 4
    # 4 vertices + 2 nodes per edge (5 edges) + 1 interior per triangle
    assert build_space(mesh, "CG", 3).n_dofs == 4 + 10 + 2


def test_vector_space_doubles_scalar_count():
    mesh = unit_square_mesh(3)
    for family, degree in (("CG", 1), ("CG", 2), ("DG", 1)):
        scalar = build_space(mesh, family, degree)
        vector = build_space(mesh, family, degree, "vector2")
        assert vector.n_dofs == 2 * scalar.n_dofs


def test_invalid_family_degree_combinations():
    mesh = unit_square_mesh(1)
    with pytest.raises(ValueError):
        build_space(mesh, "CG", 0)
    with pytest.raises(ValueError):
        build_space(mesh, "CG", 4)
    with pytest.raises(ValueError):
        build_space(mesh, "DG", 3)
    with pytest.raises(ValueError):
        build_space(mesh, "RT", 1)
    with pytest.raises(ValueError):
        build_space(mesh, "CG", 1, "tensor")


def test_dof_maps_injective_and_surjective():
    mesh = unit_square_mesh(3)
    for family, degree in (("CG", 1), ("CG", 2), ("CG", 3),
                           ("DG", 0), ("DG", 1), ("DG", 2)):
        space = build_space(mesh, family, degree)
        for row in space.dof_map:
            assert len(set(row.tolist())) == len(row)
        used = np.unique(space.dof_map)
        assert used.min() == 0
        assert used.max() == space.n_scalar_dofs - 1
        assert len(used) == space.n_scalar_dofs
        if family == "DG":
            flat = space.dof_map.ravel()
            assert len(np.unique(flat)) == len(flat)  # nothing shared


def test_cg_conformity_across_edges():
    # a continuous interpolant must agree when evaluated from both
    # triangles sharing an edge, including the P3 edge-node ordering
    mesh = unit_square_mesh(2)

    def f(x, y):
        return 0.3 + 1.7 * x - 0.9 * y + 0.25 * x * y + x ** 2 - y ** 3

    for degree in (1, 2, 3):
        space = build_space(mesh, "CG", degree)
        coeffs = interpolate(space, f)
        params = np.linspace(0.05, 0.95, 7)
        owners = {}
        for elem, tri in enumerate(mesh.triangles):
            for la, lb in ((0, 1), (1, 2), (2, 0)):
                a, b = tri[la], tri[lb]
                owners.setdefault((min(a, b), max(a, b)), []).append(elem)
        rows = {}
        for (a, b), elems in owners.items():
            if len(elems) != 2:
                continue
            pa, pb = mesh.vertices[a], mesh.vertices[b]
            pts = pa[None, :] + params[:, None] * (pb - pa)[None, :]
            vals = []
            for elem in elems:
                jac = mesh.jacobians[elem]
                p0 = mesh.vertices[mesh.triangles[elem, 0]]
                ref = np.linalg.solve(jac, (pts - p0).T).T
                local = coeffs[space.dof_map[elem]]
                vals.append(lagrange_eval(degree, ref) @ local)
            assert np.abs(vals[0] - vals[1]).max() < 1e-12


def test_polynomial_reproduction():
    mesh = unit_square_mesh(2)
    rng = np.random.default_rng(11)
    pts = rng.random((20, 2))  # reference coords scaled below
    ref = np.column_stack([pts[:, 0] * (1 - pts[:, 1]) * 0.9,
                           pts[:, 1] * 0.9 * (1 - pts[:, 0])])
    for family, degree in (("CG", 1), ("CG", 2), ("CG", 3),
                           ("DG", 0), ("DG", 1), ("DG", 2)):
        k = degree

        def poly(x, y):
            return sum((x ** a) * (y ** (k - a)) for a in range(k + 1)) \
                + (x if k >= 1 else 1.0)

        space = build_space(mesh, family, degree)
        coeffs = interpolate(space, poly)
        vals = Tabulation(mesh, ref).values(space, coeffs)
        phys = physical_points(mesh, ref)
        exact = poly(phys[..., 0], phys[..., 1])
        assert np.abs(vals - exact).max() < 1e-12, (family, degree)


def test_interpolate_constant_and_coordinate():
    mesh = unit_square_mesh(2)
    space = build_space(mesh, "CG", 1)
    ones = interpolate(space, lambda x, y: np.ones_like(x))
    assert np.allclose(ones, 1.0)
    xs = interpolate(space, lambda x, y: x)
    assert np.allclose(xs, space.node_coords[:, 0])


def test_dg0_projection_is_cell_mean():
    space = build_space(reference_triangle(), "DG", 0)
    coeffs = interpolate(space, lambda x, y: x)
    assert coeffs[0] == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_vector_interpolation_round_trip():
    mesh = unit_square_mesh(2)
    space = build_space(mesh, "CG", 2, "vector2")

    def field(x, y):
        return np.stack([x * y, x - y ** 2], axis=-1)

    coeffs = interpolate(space, field)
    ref = np.array([[0.25, 0.25], [0.1, 0.6]])
    vals = Tabulation(mesh, ref).values(space, coeffs)
    phys = physical_points(mesh, ref)
    assert np.abs(vals - field(phys[..., 0], phys[..., 1])).max() < 1e-13


def test_scalar_gradient_evaluation():
    mesh = unit_square_mesh(3)
    space = build_space(mesh, "CG", 2)
    coeffs = interpolate(space, lambda x, y: x ** 2 - 3 * x * y)
    ref = np.array([[1 / 3, 1 / 3]])
    grads = Tabulation(mesh, ref).gradient(space, coeffs)
    phys = physical_points(mesh, ref)
    gx = 2 * phys[..., 0] - 3 * phys[..., 1]
    gy = -3 * phys[..., 0]
    assert np.abs(grads[..., 0] - gx).max() < 1e-12
    assert np.abs(grads[..., 1] - gy).max() < 1e-12
