"""The benchmark's own checks accept real outputs and reject doctored
ones: a perturbed coefficient, a shuffled data assignment, a rate
outside its window, a wrong solve, a missing layer."""

import types

import numpy as np
import pytest
import scipy.sparse as sp

from gradflux import study
from gradflux.data_assign import assign_to_elements, build_dataset
from gradflux.forms import Formulation
from gradflux.manufactured import case1, case3
from gradflux.mesh import unit_square_mesh

import checks
import spans
from workloads import patch_case


@pytest.fixture(scope="module")
def patch():
    case = patch_case(1.3, 0.7, 0.2, -0.5, 0.8)
    res = study.solve_case(unit_square_mesh(4), Formulation("eo_full", 0),
                           case)
    return case, res


@pytest.fixture(scope="module")
def smooth():
    case = case1(0.8, 1.5)
    res = study.solve_case(unit_square_mesh(8), Formulation("natural", 0),
                           case)
    return case, res


def perturbed(solution, field, index, delta):
    out = {name: coeffs.copy() for name, coeffs in solution.items()}
    out[field][index] += delta
    return out


def test_patch_check_rejects_a_perturbed_coefficient(patch):
    case, res = patch
    assert checks.check_patch("patch", case, res.spaces, res.solution,
                              res.errors) == []
    interior = res.mesh.n_vertices // 2
    doctored = perturbed(res.solution, "u", interior, 1e-6)
    assert checks.check_patch("patch", case, res.spaces, doctored,
                              res.errors)
    doctored = perturbed(res.solution, "mu", 3, 1e-6)
    assert checks.check_patch("patch", case, res.spaces, doctored,
                              res.errors)


def test_dirichlet_check_rejects_a_perturbed_boundary_value(smooth):
    case, res = smooth
    tags = ("left", "right")
    assert checks.check_dirichlet("case1", case, res.mesh, tags,
                                  res.solution["u"]) == []
    left = res.mesh.boundary_edges[
        list(res.mesh.boundary_tags).index("left")][0]
    doctored = perturbed(res.solution, "u", left, 1e-8)
    assert checks.check_dirichlet("case1", case, res.mesh, tags,
                                  doctored["u"])


def test_second_law_check_rejects_an_aligned_flux(smooth):
    case, res = smooth
    assert checks.check_second_law("case1", case, res.spaces,
                                   res.solution) == []
    # make the flux at one node point along a nonzero gradient
    e = res.solution["e"].reshape(-1, 2)
    node = int(np.argmax(np.linalg.norm(e, axis=1)))
    doctored = {name: c.copy() for name, c in res.solution.items()}
    doctored["s"].reshape(-1, 2)[node] = e[node]
    assert checks.check_second_law("case1", case, res.spaces, doctored)


def test_assignment_check_rejects_a_shuffled_assignment():
    case = case3()
    mesh = unit_square_mesh(11)
    dataset = build_dataset(5, case.e, case.s)
    e_field, s_field = assign_to_elements(mesh, dataset)
    assert checks.check_assignment("nd=5", mesh, dataset, e_field.values,
                                   s_field.values) == []
    order = np.random.default_rng(0).permutation(mesh.n_triangles)
    assert checks.check_assignment("nd=5", mesh, dataset,
                                   e_field.values[order],
                                   s_field.values[order])


def synthetic_sweep(k, rates):
    hs = [1 / 4, 1 / 8, 1 / 16, 1 / 24]
    return hs, {col: [h ** p for h in hs] for col, p in rates.items()}


def test_sweep_check_accepts_a_priori_rates():
    k = 1
    hs, errors = synthetic_sweep(k, {"u_L2": 3.0, "u_H1": 2.0, "e_L2": 1.9,
                                     "e_Hdiv": 0.9})
    assert checks.check_sweep("ok", hs, errors, k) == []


@pytest.mark.parametrize("column, rate", [
    ("u_L2", 2.7), ("u_L2", 3.3), ("u_H1", 1.75), ("e_L2", 1.7),
    ("e_Hdiv", 0.7)])
def test_sweep_check_rejects_a_rate_outside_its_window(column, rate):
    k = 1
    good = {"u_L2": 3.0, "u_H1": 2.0, "e_L2": 2.0, "e_Hdiv": 1.0}
    hs, errors = synthetic_sweep(k, {**good, column: rate})
    failures = checks.check_sweep("bad", hs, errors, k)
    assert len(failures) == 1 and column in failures[0]


def test_sweep_check_rejects_an_error_that_grows():
    hs, errors = synthetic_sweep(0, {"u_L2": 2.0, "u_H1": 1.0})
    errors["u_H1"][1] = errors["u_H1"][0] * 1.01
    assert checks.check_sweep("bad", hs, errors, 0)


def test_data_study_check_rejects_a_rise_or_no_stagnation():
    nds = [5, 10, 20, 40]
    assert checks.check_data_study("ok", nds, [4e-2, 1e-2, 3e-3, 1e-3],
                                   (1.00, 0.95)) == []
    assert checks.check_data_study("rise", nds, [4e-2, 1e-2, 1e-2, 1e-3],
                                   (1.00, 0.95))
    assert checks.check_data_study("no stagnation", nds,
                                   [4e-2, 1e-2, 3e-3, 1e-3], (1.00, 0.85))


def test_refinement_check_rejects_a_growing_error():
    coarse = {"u_L2": 1e-2, "u_H1": 1e-1}
    assert checks.check_refinement("ok", coarse,
                                   {"u_L2": 3e-3, "u_H1": 5e-2}) == []
    assert checks.check_refinement("bad", coarse,
                                   {"u_L2": 3e-3, "u_H1": 1e-1})


def fake_study(**overrides):
    def fn(*args, **kwargs):
        return None
    names = {name: fn for name in spans.WRAPPED}
    names.update(overrides)
    return types.SimpleNamespace(**names)


def test_tracer_fails_when_a_wrapped_name_is_missing():
    module = fake_study()
    del module.error_norms
    with pytest.raises(LookupError, match="error_norms"):
        spans.Tracer(module)


def test_tracer_rejects_a_wrong_solve_and_counts_repeats():
    matrix = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 3.0]]))
    rhs = np.array([1.0, 2.0])
    exact = np.linalg.solve(matrix.toarray(), rhs)
    answers = iter([exact, exact, exact + 1e-6])

    def solve_direct(a, b):
        return next(answers)

    module = fake_study(solve_direct=solve_direct)
    with spans.Tracer(module) as tracer:
        for _ in range(3):
            with tracer.request():
                module.solve_direct(matrix, rhs)
    assert len(tracer.failures) == 1 and "residual" in tracer.failures[0]
    selfs = spans.self_times(tracer.spans)
    assert spans.closure_failures(tracer.spans, selfs) == []
    metrics = spans.layer_metrics(tracer.spans, selfs)
    assert metrics["solver.calls"] == 3
    assert metrics["solver.repeat_matrix_share"] == pytest.approx(2 / 3)
    assert module.solve_direct is solve_direct    # restored on exit
    silent = spans.silent_layers(tracer.spans)
    assert len(silent) == 6 and not any("solver" in s for s in silent)


def test_self_times_subtract_covered_child_time():
    request = spans.Span(0, spans.REQUEST, 0.0, 10.0, -1, 0, 0)
    child = spans.Span(1, "solver.solve", 2.0, 6.0, 0, 0, 0)
    selfs = spans.self_times([request, child])
    assert selfs == [6.0, 4.0]
    # a child that overlaps another breaks the closure of the request
    twin = spans.Span(2, "forms.assemble", 4.0, 7.0, 0, 0, 0)
    doctored = [request, child, twin]
    assert spans.closure_failures(doctored, spans.self_times(doctored))
