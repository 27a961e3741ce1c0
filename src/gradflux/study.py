"""End-to-end single solves and convergence sweeps.

Bridges the manufactured cases to problem data (boundary conditions per
domain), runs assemble / constrain / solve, and folds per-mesh error
records into study reports.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data_assign import assign_to_elements
from .elements import Tabulation, build_space, interpolate, quadrature
from .forms import (ProblemData, apply_dirichlet, assemble,
                    assemble_natural)
from .mesh import mesh_size, sector_mesh, unit_square_mesh
from .postproc import (ERROR_COLUMNS, StudyReport, error_norms,
                       scalar_error_norms, second_law_audit)
from .solver import SolverError, solve_direct


def problem_data_for(case, mesh, dataset=None):
    """Sources, data fields and boundary conditions for one case.

    Case 1 mixes Dirichlet sides (left/right) with Neumann flux data
    (bottom/top); the corner problems and the data-assignment problem
    use Dirichlet conditions for the potential and the multiplier on the
    whole boundary.  A dataset replaces the pointwise data fields by
    their element-constant assignment.
    """
    if dataset is not None:
        if case.domain[0] != "square":
            raise ValueError("sampled data sets require the unit square")
        e_data, s_data = assign_to_elements(mesh, dataset)
    else:
        e_data, s_data = case.e_data, case.s_data

    present = set(mesh.boundary_tags)
    dirichlet = {}
    neumann = {}
    if case.name == "case1":
        for tag in ("left", "right"):
            dirichlet[tag] = (case.u, case.lam)
        for tag in ("bottom", "top"):
            neumann[tag] = (_normal_trace(case.s), _normal_trace(case.mu))
    else:
        for tag in present:
            dirichlet[tag] = (case.u, case.lam)

    return ProblemData(kappa=case.kappa, zeta=case.zeta, q=case.q,
                       f=case.f, e_data=e_data, s_data=s_data,
                       dirichlet=dirichlet, neumann=neumann)


def _normal_trace(vector_field):
    def trace(x, y, nx, ny):
        vals = vector_field(x, y)
        return vals[..., 0] * nx + vals[..., 1] * ny
    return trace


@dataclass
class SolveResult:
    mesh: object
    spaces: object
    solution: dict
    errors: dict
    audit: tuple
    h: float
    n_dofs: int
    n_solved: int      # unknowns handed to solve_direct


def solve_case(mesh, formulation, case, dataset=None, params=None):
    """Assemble, constrain and solve one problem; returns fields plus
    its error record and second-law audit.

    Assembly and error norms integrate with the formulation's one rule,
    :func:`gradflux.forms.default_quad_exactness`.

    ``natural`` solves its system over u and lambda
    (:func:`gradflux.forms.assemble_natural`) and recovers e, s and mu
    from it; it takes no stabilization (ValueError for a non-zero
    coefficient).  An assembled system with a non-finite entry (float64
    overflow at an extreme kappa or zeta) or a recovered field that is
    not finite raises SolverError.  ``n_solved`` counts the unknowns
    ``solve_direct`` saw, ``n_dofs`` those of the five fields.

    The result holds coefficient vectors, not the matrix.  When the
    solved matrix has the largest factor solved so far and is solved a
    second time, the solver keeps its LU factor for later solves of the
    same matrix, such as the next data sets of a data study; see
    :func:`gradflux.solver.solve_direct`.
    """
    data = problem_data_for(case, mesh, dataset)
    if formulation.kind != "natural":
        system, fields = assemble(mesh, formulation, data, params), None
    elif params in (None, formulation.params()):
        system, fields = assemble_natural(mesh, formulation, data)
    else:
        raise ValueError(f"natural takes no stabilization, got {params}")
    constrained = apply_dirichlet(system, data)
    del system
    if not all(np.isfinite(v).all()
               for v in (constrained.matrix.data, constrained.rhs)):
        raise SolverError(
            f"assembled system has a non-finite entry (float64 overflow; "
            f"kappa={case.kappa:g}, zeta={case.zeta:g})")
    x = solve_direct(constrained.matrix, constrained.rhs)
    solution = constrained.split(x) if fields is None else fields(x)
    bad = [name for name, v in solution.items() if not np.isfinite(v).all()]
    if bad:
        raise SolverError(f"recovered field {bad[0]} is not finite")
    spaces = constrained.spaces
    errors = error_norms(spaces, solution, case)
    audit = second_law_audit(spaces, solution)
    return SolveResult(mesh=mesh, spaces=spaces, solution=solution,
                       errors=errors, audit=audit, h=mesh_size(mesh),
                       n_dofs=spaces.offsets()[1], n_solved=len(x))


def square_meshes(sizes):
    return [unit_square_mesh(n) for n in sizes]


def sector_meshes(phi, sizes, grading=1.0):
    """Shape-regular sector family, one ``sector_mesh`` per size n.

    Mesh n has n rings and round(psi * n) chords on the outer arc.
    Every ring carries angular segments in proportion to its index, so
    for a fixed grading the element diameter/inradius ratio is bounded
    independently of n (about 5 at grading 1), down to the corner.
    """
    return [sector_mesh(phi, n, grading=grading) for n in sizes]


def convergence_study(case, formulation, meshes, dataset=None, params=None,
                      threads=1):
    """One solve per mesh, folded into a StudyReport.

    Returns (report, results).  Meshes must be ordered coarse to fine.
    Solves are independent and may run concurrently; the report is
    assembled in mesh order regardless.
    """
    label = case.name if dataset is None else \
        f"{case.name}[nd={dataset.nd}]"
    report = StudyReport(case=label, formulation=_describe(formulation))

    def run(mesh):
        try:
            return solve_case(mesh, formulation, case, dataset=dataset,
                              params=params)
        except Exception as err:
            raise type(err)(
                f"solve failed on mesh with h = {mesh_size(mesh):.6g} "
                f"({mesh.n_triangles} elements): {err}") from err

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, meshes))
    else:
        results = [run(mesh) for mesh in meshes]

    for res in results:
        report.add_row(res.h, res.n_dofs, res.errors)
    return report, results


def interpolation_study(case, meshes):
    """Best-approximation reference: nodal CG1 interpolation of the
    exact potential on each mesh, measured in the same norms."""
    report = StudyReport(case=case.name, formulation="interpolation")
    rule = quadrature(5)
    for mesh in meshes:
        space = build_space(mesh, "CG", 1, "scalar")
        errors = dict.fromkeys(ERROR_COLUMNS)    # not measured
        errors.update(scalar_error_norms(
            Tabulation(mesh, rule), space, interpolate(space, case.u),
            case.u, case.e, "u"))
        report.add_row(mesh_size(mesh), space.n_dofs, errors)
    return report


def _describe(formulation):
    return f"{formulation.kind}(k={formulation.k})"
