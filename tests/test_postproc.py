import csv

import numpy as np
import pytest

from gradflux import elements
from gradflux.elements import interpolate, quadrature
from gradflux.forms import Formulation, default_quad_exactness
from gradflux.manufactured import ManufacturedCase, case1, case2, case3
from gradflux.mesh import sector_mesh, unit_square_mesh
from gradflux.postproc import (ERROR_COLUMNS, StudyReport, convergence_rate,
                               error_norms, last_pair_rate,
                               nodal_error_field, plot_loglog,
                               second_law_audit, write_report)


def inverse_jacobians_t(mesh):
    """J^-T of every element by LAPACK, independent of the mesh's own."""
    return np.swapaxes(np.linalg.inv(mesh.jacobians), 1, 2)


def zero(x, y):
    return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)


def zero_vec(x, y):
    return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape + (2,))


def linear_case():
    def u(x, y):
        return np.asarray(x, dtype=float) + 0.0 * np.asarray(y)

    def e(x, y):
        out = zero_vec(x, y)
        out[..., 0] = 1.0
        return out

    def s(x, y):
        out = zero_vec(x, y)
        out[..., 0] = -1.0
        return out

    return ManufacturedCase(
        name="linear", kappa=1.0, zeta=0.0, domain=("square",),
        u=u, e=e, s=s, lam=zero, grad_lam=zero_vec, mu=zero_vec,
        e_data=e, s_data=s, q=zero, f=zero,
        div_e=zero, div_s=zero, div_mu=zero)


def interpolated_solution(spaces, case):
    return {"u": interpolate(spaces.u, case.u),
            "e": interpolate(spaces.e, case.e),
            "s": interpolate(spaces.s, case.s),
            "lam": interpolate(spaces.lam, case.lam),
            "mu": interpolate(spaces.mu, case.mu)}


# ----------------------------------------------------------------------
# error norms


def test_errors_vanish_for_exactly_representable_fields():
    mesh = unit_square_mesh(3)
    case = linear_case()
    for kind in ("natural", "eo_min"):
        spaces = Formulation(kind, 0).build_spaces(mesh)
        errors = error_norms(spaces, interpolated_solution(spaces, case),
                             case)
        assert max(errors.values()) < 1e-12


def test_zero_field_against_reference_case():
    # |sin(pi x) sin(pi y)|_L2 = 0.5
    mesh = unit_square_mesh(8)
    case = case3()
    spaces = Formulation("natural", 0).build_spaces(mesh)
    solution = {name: np.zeros(spaces.by_name(name).n_dofs)
                for name in ("u", "e", "s", "lam", "mu")}
    errors = error_norms(spaces, solution, case)
    assert errors["u_L2"] == pytest.approx(0.5, abs=1e-12)
    assert errors["lambda_L2"] == 0.0


def test_constant_one_field_has_unit_l2_error():
    mesh = unit_square_mesh(4)
    case = linear_case()

    def shifted(x, y):
        return case.u(x, y) + 1.0

    spaces = Formulation("eo_unstab", 0).build_spaces(mesh)
    solution = interpolated_solution(spaces, case)
    solution["u"] = interpolate(spaces.u, shifted)
    errors = error_norms(spaces, solution, case)
    assert errors["u_L2"] == pytest.approx(1.0, abs=1e-12)
    assert errors["u_H1"] < 1e-12


def test_hdiv_splits_into_l2_and_divergence():
    mesh = unit_square_mesh(4)
    case = linear_case()
    spaces = Formulation("eo_min", 0).build_spaces(mesh)
    solution = interpolated_solution(spaces, case)
    # perturb s by the field (x, y) whose divergence is 2
    solution["s"] = solution["s"] + interpolate(
        spaces.s, lambda x, y: np.stack([x, y], axis=-1))
    errors = error_norms(spaces, solution, case)
    div_part = np.sqrt(max(errors["s_Hdiv"] ** 2 - errors["s_L2"] ** 2,
                           0.0))
    assert div_part == pytest.approx(2.0, abs=1e-10)


def test_error_norms_rejects_wrong_sizes():
    mesh = unit_square_mesh(2)
    case = linear_case()
    spaces = Formulation("natural", 0).build_spaces(mesh)
    solution = interpolated_solution(spaces, case)
    solution["e"] = solution["e"][:-1]
    with pytest.raises(ValueError):
        error_norms(spaces, solution, case)


def reference_error_norms(spaces, solution, case):
    """Error norms with every field evaluated on its own: weights and
    physical points built here, and each field's basis tabulated and its
    gradients mapped once per field."""
    rule = quadrature(default_quad_exactness(spaces))
    mesh = spaces.mesh
    W = mesh.jacobian_dets[:, None] * rule.weights[None, :]
    phys = elements.physical_points(mesh, rule.points)
    x, y = phys[..., 0], phys[..., 1]

    def basis(space):
        vals, gref = space.tabulate(rule.points)
        return vals, np.einsum("tab,qlb->tqla",
                               inverse_jacobians_t(mesh), gref)

    out = {}
    for name, col, exact, exact_grad in (
            ("u", "u", case.u, case.e),
            ("lam", "lambda", case.lam, case.grad_lam)):
        space = spaces.by_name(name)
        vals, grads = basis(space)
        local = solution[name][space.dof_map]
        diff = np.einsum("tl,ql->tq", local, vals) - exact(x, y)
        gdiff = np.einsum("tl,tqla->tqa", local, grads) - exact_grad(x, y)
        out[f"{col}_L2"] = np.sqrt(np.sum(W * diff ** 2))
        out[f"{col}_H1"] = np.sqrt(np.sum(W * np.sum(gdiff ** 2, axis=-1)))
    for name, exact, exact_div in (("e", case.e, case.div_e),
                                   ("s", case.s, case.div_s),
                                   ("mu", case.mu, case.div_mu)):
        space = spaces.by_name(name)
        vals, grads = basis(space)
        local = solution[name][space.element_dofs].reshape(
            len(space.dof_map), -1, 2)
        diff = np.einsum("tlc,ql->tqc", local, vals) - exact(x, y)
        l2sq = np.sum(W * np.sum(diff ** 2, axis=-1))
        ddiff = np.einsum("tlc,tqlc->tq", local, grads) - exact_div(x, y)
        out[f"{name}_L2"] = np.sqrt(l2sq)
        out[f"{name}_Hdiv"] = np.sqrt(l2sq + np.sum(W * ddiff ** 2))
    return out


@pytest.mark.parametrize("domain", ["square", "sector"])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("kind", ["natural", "eo_unstab", "eo_min",
                                  "eo_full"])
def test_error_norms_match_per_field_reference(kind, k, domain):
    if domain == "square":
        mesh, case = unit_square_mesh(3), case1()
    else:
        mesh = sector_mesh(3 * np.pi / 4, 3, grading=2.0)
        case = case2(3 * np.pi / 4)
    spaces = Formulation(kind, k).build_spaces(mesh)
    rng = np.random.default_rng(17)
    solution = {name: rng.standard_normal(spaces.by_name(name).n_dofs)
                for name in ("u", "e", "s", "lam", "mu")}
    errors = error_norms(spaces, solution, case)
    expected = reference_error_norms(spaces, solution, case)
    assert set(errors) == set(ERROR_COLUMNS)
    for col in ERROR_COLUMNS:
        assert errors[col] == pytest.approx(expected[col], rel=1e-12), col


def test_l2_triangle_inequality():
    mesh = unit_square_mesh(3)
    space = Formulation("eo_min", 0).build_spaces(mesh).e
    rng = np.random.default_rng(9)
    a, b, c = (rng.standard_normal(space.n_dofs) for _ in range(3))
    rule = quadrature(4)
    W = mesh.jacobian_dets[:, None] * rule.weights[None, :]

    def l2(coeffs):
        vals = elements.Tabulation(mesh, rule).values(space, coeffs)
        return np.sqrt(np.sum(W * np.sum(vals ** 2, axis=-1)))

    assert l2(a - c) <= l2(a - b) + l2(b - c) + 1e-12


# ----------------------------------------------------------------------
# rates


def test_rate_from_two_meshes():
    assert convergence_rate([0.1, 0.05], [0.1, 0.025]) == pytest.approx(2.0)


def test_rate_constant_errors_is_zero():
    assert convergence_rate([0.2, 0.1, 0.05], [3.0, 3.0, 3.0]) == \
        pytest.approx(0.0)


def test_rate_recovers_synthetic_power_law():
    hs = np.array([0.4, 0.2, 0.1, 0.05])
    errors = 2.7 * hs ** 1.5
    assert convergence_rate(hs, errors) == pytest.approx(1.5, abs=1e-10)
    assert last_pair_rate(hs, errors) == pytest.approx(1.5, abs=1e-10)


def test_rate_input_validation():
    with pytest.raises(ValueError):
        convergence_rate([0.1], [1.0])
    with pytest.raises(ValueError):
        convergence_rate([0.05, 0.1], [1.0, 2.0])
    with pytest.raises(ValueError):
        convergence_rate([0.1, 0.05], [1.0, 0.0])


# ----------------------------------------------------------------------
# second-law audit


def test_audit_flags_no_violation_for_opposing_fields():
    mesh = unit_square_mesh(4)
    case = case3()
    spaces = Formulation("eo_min", 0).build_spaces(mesh)
    solution = interpolated_solution(spaces, case)   # s = -e
    count, worst = second_law_audit(spaces, solution)
    assert count == 0
    assert worst <= 0.0


def test_audit_flags_aligned_fields():
    mesh = unit_square_mesh(4)
    case = case3()
    spaces = Formulation("eo_min", 0).build_spaces(mesh)
    solution = interpolated_solution(spaces, case)
    solution["s"] = solution["e"].copy()   # s = +e
    count, worst = second_law_audit(spaces, solution)
    # s . e = |e|^2, counted once per global node of the continuous space
    nodes = solution["e"].reshape(spaces.e.n_scalar_dofs, 2)
    nonzero = int(np.count_nonzero(np.sum(nodes ** 2, axis=-1) > 1e-10))
    assert count == nonzero
    assert worst > 0.0


def test_audit_counts_shared_nodes_once():
    # a vertex shared by several elements is flagged once
    mesh = unit_square_mesh(2)
    spaces = Formulation("eo_min", 0).build_spaces(mesh)
    e = np.zeros((spaces.e.n_scalar_dofs, 2))
    centre = int(np.argmin(np.hypot(*(spaces.e.node_coords - 0.5).T)))
    e[centre] = (1.0, 0.0)
    solution = {"e": e.reshape(-1), "s": e.reshape(-1).copy()}
    assert np.count_nonzero(spaces.e.dof_map == centre) > 1
    count, worst = second_law_audit(spaces, solution)
    assert count == 1
    assert worst == pytest.approx(1.0)


def test_audit_keeps_per_element_nodes_for_discontinuous_spaces():
    mesh = unit_square_mesh(2)
    spaces = Formulation("natural", 0).build_spaces(mesh)
    assert spaces.e.family == "DG"
    e = np.zeros((spaces.e.n_scalar_dofs, 2))
    e[:, 0] = 1.0
    solution = {"e": e.reshape(-1), "s": e.reshape(-1).copy()}
    count, _ = second_law_audit(spaces, solution)
    assert count == mesh.n_triangles * len(
        elements.lattice_nodes(spaces.e.degree))


# ----------------------------------------------------------------------
# nodal error fields


def test_nodal_error_of_interpolant_is_zero():
    mesh = unit_square_mesh(3)
    case = case3()
    spaces = Formulation("eo_min", 0).build_spaces(mesh)
    coeffs = interpolate(spaces.u, case.u)
    rows = nodal_error_field(spaces.u, coeffs, case.u)
    assert rows.shape == (spaces.u.n_scalar_dofs, 3)
    assert np.abs(rows[:, 2]).max() < 1e-14


def test_nodal_error_rejects_non_cg():
    mesh = unit_square_mesh(2)
    spaces = Formulation("natural", 0).build_spaces(mesh)
    with pytest.raises(ValueError):
        nodal_error_field(spaces.e, np.zeros(spaces.e.n_dofs),
                          case3().u)


def test_nodal_error_of_unstabilized_solve_is_finite(tmp_path):
    # checkerboard-style study output: the pointwise error field of an
    # unstabilized equal-order solve is emitted and stays finite
    from gradflux.postproc import write_nodal_error_csv
    from gradflux.study import solve_case

    res = solve_case(unit_square_mesh(24), Formulation("eo_unstab", 0),
                     case3())
    case = case3()
    rows = nodal_error_field(res.spaces.u, res.solution["u"], case.u)
    assert np.all(np.isfinite(rows))
    assert 0.0 < np.abs(rows[:, 2]).max() < 1.0
    path = tmp_path / "nodal.csv"
    write_nodal_error_csv(rows, path)
    assert path.read_text().startswith("x,y,value\n")


# ----------------------------------------------------------------------
# reports


def make_report(rows=2):
    report = StudyReport(case="case3", formulation="natural(k=0)")
    errors = {col: 1.0 for col in ERROR_COLUMNS}
    h = 0.4
    for i in range(rows):
        scaled = {col: errors[col] * 0.5 ** (2 * i) for col in ERROR_COLUMNS}
        report.add_row(h * 0.5 ** i, 100 * (i + 1), scaled)
    return report


def test_empty_report_writes_header_only(tmp_path):
    report = StudyReport(case="case1", formulation="eo_min(k=0)")
    path = tmp_path / "empty.csv"
    write_report(report, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3   # comment, header, rate footer
    assert lines[1].split(",")[:2] == ["h", "dofs"]
    assert lines[2].startswith("rate,")


def test_report_rows_and_rate_footer(tmp_path):
    report = make_report(2)
    path = tmp_path / "report.csv"
    write_report(report, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2 + 2 + 1
    footer = lines[-1].split(",")
    assert footer[0] == "rate"
    assert float(footer[2]) == pytest.approx(2.0)


def test_report_round_trip_exact(tmp_path):
    report = make_report(3)
    # make the numbers irrational-ish so formatting actually matters
    for row in report.rows:
        for col in ERROR_COLUMNS:
            row[col] *= np.pi
    report.rows[1]["mu_L2"] = None          # a column left unmeasured
    path = tmp_path / "roundtrip.csv"
    write_report(report, path)
    with open(path, newline="") as fh:
        assert next(fh) == "# case=case3 formulation=natural(k=0)\n"
        back = list(csv.DictReader(fh))
    assert back[-1]["h"] == "rate" and back[-1]["mu_L2"] == ""
    assert len(back) - 1 == len(report.rows)
    for mine, theirs in zip(report.rows, back):
        assert int(theirs["dofs"]) == mine["dofs"]
        for col in ("h",) + ERROR_COLUMNS:
            if mine[col] is None:
                assert theirs[col] == ""
            else:
                assert float(theirs[col]) == mine[col]   # %.17g is exact


def test_rows_must_refine():
    report = make_report(2)
    with pytest.raises(ValueError):
        report.add_row(1.0, 10, {col: 1.0 for col in ERROR_COLUMNS})


def test_svg_plot_contents(tmp_path):
    report = make_report(3)
    path = tmp_path / "plot.svg"
    plot_loglog(report, path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") >= len(ERROR_COLUMNS) + 3
    assert "stroke-dasharray" in text   # reference triangles
    for col in ("u_L2", "s_Hdiv"):
        assert col in text
