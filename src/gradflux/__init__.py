"""Five-field finite element solver for gradient/flux data reconciliation.

Given pointwise gradient and flux data over a 2D domain, the package
computes the conservative and compatible fields closest to the data by
solving a coupled saddle-point system for the potential, its gradient,
the flux and two Lagrange multipliers, in four discrete formulations
(one mixed, three equal-order with increasing stabilization).
"""

from .mesh import (Mesh, MeshFormatError, unit_square_mesh, sector_mesh,
                   mesh_size, read_mesh, write_mesh)
from .elements import (FeSpace, QuadratureRule, lagrange_eval, lagrange_grad,
                       quadrature, build_space, interpolate)
from .forms import (StabilizationParams, Formulation, ProblemData,
                    BlockSystem, ElementField, SpaceSet, assemble,
                    apply_dirichlet, stability_norm_matrix)
from .solver import SolverError, SingularSystemError, solve_direct
from .manufactured import (ManufacturedCase, case1, case2, case3,
                           verify_strong_system)
from .data_assign import (DataSet, build_dataset, assign_to_elements,
                          write_dataset_csv)
from .postproc import (StudyReport, error_norms, convergence_rate,
                       second_law_audit, nodal_error_field, write_report,
                       read_report, plot_loglog)

__version__ = "0.1.0"

__all__ = [
    "Mesh", "MeshFormatError", "unit_square_mesh", "sector_mesh",
    "mesh_size", "read_mesh", "write_mesh",
    "FeSpace", "QuadratureRule", "lagrange_eval", "lagrange_grad",
    "quadrature", "build_space", "interpolate",
    "StabilizationParams", "Formulation", "ProblemData", "BlockSystem",
    "ElementField", "SpaceSet", "assemble", "apply_dirichlet",
    "stability_norm_matrix",
    "SolverError", "SingularSystemError", "solve_direct",
    "ManufacturedCase", "case1", "case2", "case3", "verify_strong_system",
    "DataSet", "build_dataset", "assign_to_elements", "write_dataset_csv",
    "StudyReport", "error_norms", "convergence_rate", "second_law_audit",
    "nodal_error_field", "write_report", "read_report", "plot_loglog",
]
