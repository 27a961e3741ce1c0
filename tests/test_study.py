import csv

import numpy as np
import pytest

from gradflux import elements, solver
from gradflux.forms import Formulation, apply_dirichlet, assemble
from gradflux.manufactured import case1, case2, case3
from gradflux.study import (convergence_study, interpolation_study,
                            problem_data_for, sector_meshes, solve_case,
                            square_meshes)
from gradflux.mesh import unit_square_mesh
from gradflux.postproc import plot_loglog, write_report


def test_case1_boundary_split():
    mesh = unit_square_mesh(2)
    data = problem_data_for(case1(), mesh)
    assert set(data.dirichlet) == {"left", "right"}
    assert set(data.neumann) == {"bottom", "top"}


def test_case3_is_pure_dirichlet():
    mesh = unit_square_mesh(2)
    data = problem_data_for(case3(), mesh)
    assert set(data.dirichlet) == {"left", "right", "bottom", "top"}
    assert not data.neumann


def test_sector_meshes_scale_angular_resolution():
    meshes = sector_meshes(np.pi / 2, [2, 4], grading=1.0)
    psi = 1.5 * np.pi
    for mesh, n in zip(meshes, (2, 4)):
        arc_edges = sum(1 for t in mesh.boundary_tags if t == "arc")
        assert arc_edges == max(2, round(psi * n))


CORNER_ANGLES = (np.pi / 4, np.pi / 2, 3 * np.pi / 4)   # psi = 7pi/4..5pi/4
CORNER_SIZES = (4, 8, 16, 32)


def signed_doubled_areas(v):
    d1, d2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


def shape_ratios(mesh):
    """Element diameter / inradius (2 sqrt(3) for an equilateral)."""
    v = mesh.vertices[mesh.triangles]
    edges = np.linalg.norm(v - np.roll(v, -1, axis=1), axis=-1)
    area = 0.5 * np.abs(signed_doubled_areas(v))
    return edges.max(axis=1) * edges.sum(axis=1) / (2.0 * area)


def test_sector_meshes_are_shape_regular():
    for phi in CORNER_ANGLES:
        worst = [shape_ratios(m).max()
                 for m in sector_meshes(phi, CORNER_SIZES, grading=1.0)]
        assert max(worst) < 6.0, worst


def test_sector_meshes_geometry_and_tags():
    for phi in CORNER_ANGLES:
        psi = 2 * np.pi - phi
        for mesh, n in zip(sector_meshes(phi, CORNER_SIZES), CORNER_SIZES):
            v, t = mesh.vertices, mesh.triangles
            assert np.all(signed_doubled_areas(v[t]) > 0.0)   # CCW
            assert np.all(np.hypot(v[:, 0], v[:, 1]) <= 1.0 + 1e-12)
            tags = np.array(mesh.boundary_tags)
            assert set(tags) == {"wedge_edge_0", "wedge_edge_1", "arc"}
            assert np.count_nonzero(tags == "arc") == round(psi * n)
            ends = v[mesh.boundary_edges]                  # (nb, 2, 2)
            r = np.hypot(ends[..., 0], ends[..., 1])
            ray = -np.sin(psi) * ends[..., 0] + np.cos(psi) * ends[..., 1]
            along = np.cos(psi) * ends[..., 0] + np.sin(psi) * ends[..., 1]
            arc, w0, w1 = (tags == "arc", tags == "wedge_edge_0",
                           tags == "wedge_edge_1")
            assert np.allclose(r[arc], 1.0, atol=1e-12)
            assert np.allclose(ends[w0][..., 1], 0.0, atol=1e-12)
            assert np.all(ends[w0][..., 0] >= 0.0)
            assert np.allclose(ray[w1], 0.0, atol=1e-12)
            assert np.all(along[w1] >= -1e-12)
            # each straight edge runs from the corner to the arc
            for mask in (w0, w1):
                lengths = np.linalg.norm(ends[mask][:, 1]
                                         - ends[mask][:, 0], axis=-1)
                assert lengths.sum() == pytest.approx(1.0, abs=1e-12)


def test_solve_case_returns_record():
    res = solve_case(unit_square_mesh(6), Formulation("natural", 0),
                     case3())
    assert set(res.solution) == {"u", "e", "s", "lam", "mu"}
    assert res.errors["u_L2"] < 0.05
    assert res.h == pytest.approx(np.sqrt(2) / 6)


def test_convergence_study_rows_and_threads(monkeypatch):
    monkeypatch.setattr(solver, "_LARGEST", {"key": None, "nnz": 0,
                                             "since": 0, "lu": None})
    case = case3()
    meshes = square_meshes([4, 8, 16])
    serial, _ = convergence_study(case, Formulation("natural", 0), meshes)
    # the finest matrix comes back in the first threaded study and is
    # held; the second one reuses its factor
    for _ in range(2):
        threaded, _ = convergence_study(case, Formulation("natural", 0),
                                        meshes, threads=2)
        assert [r["h"] for r in serial.rows] == \
            [r["h"] for r in threaded.rows]
        for mine, other in zip(serial.rows, threaded.rows):
            assert mine == other
    assert solver._LARGEST["lu"] is not None
    assert serial.rows[0]["h"] > serial.rows[-1]["h"]
    assert serial.rates()["u_L2"] == pytest.approx(2.0, abs=0.3)


def test_interpolation_study_tracks_singularity():
    phi = np.pi / 2
    case = case2(phi)
    meshes = sector_meshes(phi, [4, 8, 16], grading=1.0)
    report = interpolation_study(case, meshes)
    nu = np.pi / (2 * np.pi - phi)
    assert report.rates()["u_H1"] == pytest.approx(nu, abs=0.08)


def test_interpolation_report_leaves_unmeasured_columns_undefined(tmp_path):
    report = interpolation_study(case1(), square_meshes([2, 4, 8]))
    for rates in (report.rates(), report.last_pair_rates()):
        assert rates["lambda_L2"] is None
        assert rates["mu_L2"] is None
        assert rates["u_H1"] == pytest.approx(1.0, abs=0.2)
    path = tmp_path / "interpolation.csv"
    write_report(report, path)
    with open(path, newline="") as fh:
        next(fh)                                 # the case comment
        rows = list(csv.DictReader(fh))[:-1]     # without the rate footer
    assert len(rows) == 3
    for cells, row in zip(rows, report.rows):
        assert cells["lambda_L2"] == "" and row["lambda_L2"] is None
        assert float(cells["u_H1"]) == row["u_H1"]
    plot_loglog(report, tmp_path / "interpolation.svg")
    svg = (tmp_path / "interpolation.svg").read_text()
    assert "u_H1" in svg and "lambda_L2" not in svg


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("kind, mapped", [("natural", 1), ("eo_unstab", 1),
                                          ("eo_min", 1), ("eo_full", 1)])
def test_solve_case_maps_each_basis_once_per_tabulation(monkeypatch, kind,
                                                         mapped, k):
    # assembly maps the gradients of every basis it differentiates once:
    # the one basis of the equal-order spaces, natural's CG basis; the
    # recovery of natural's e, s and mu and the error norms take field
    # gradients in reference coordinates and map no basis, and the sign
    # audit reads values only
    mapped_shapes = []
    map_gradients = elements._map_gradients

    def counting(inv_t, ref_grads):
        mapped_shapes.append(ref_grads.shape)
        return map_gradients(inv_t, ref_grads)

    monkeypatch.setattr(elements, "_map_gradients", counting)
    solve_case(unit_square_mesh(4), Formulation(kind, k), case1())
    assert len(mapped_shapes) == mapped


@pytest.mark.parametrize("kind", ["natural", "eo_unstab", "eo_min",
                                  "eo_full"])
def test_solve_case_reports_the_unknowns_it_solved(kind):
    res = solve_case(unit_square_mesh(4), Formulation(kind, 1), case1())
    if kind == "natural":
        # e, s and mu: 3 fields x 2 components x 3 P1 nodes per element
        local = 3 * 2 * 3 * res.mesh.n_triangles
        assert res.n_solved == res.n_dofs - local < res.n_dofs
    else:
        assert res.n_solved == res.n_dofs


@pytest.mark.parametrize("kind", ["eo_unstab", "eo_min", "eo_full"])
def test_equal_order_solutions_are_the_full_solve_bitwise(kind):
    mesh = unit_square_mesh(4)
    case = case1(kappa=1.3, zeta=0.7)
    res = solve_case(mesh, Formulation(kind, 1), case)
    data = problem_data_for(case, mesh)
    system = apply_dirichlet(assemble(mesh, Formulation(kind, 1), data),
                             data)
    full = system.split(solver.solve_direct(system.matrix, system.rhs))
    for name, coeffs in full.items():
        assert np.array_equal(res.solution[name], coeffs)
