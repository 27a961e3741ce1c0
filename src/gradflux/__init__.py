"""Five-field finite element solver for gradient/flux data reconciliation.

Given pointwise gradient and flux data over a 2D domain, the package
computes the conservative and compatible fields closest to the data by
solving a coupled saddle-point system for the potential, its gradient,
the flux and two Lagrange multipliers, in four discrete formulations
(one mixed, three equal-order with increasing stabilization).
Import from the modules, for example ``from gradflux.study import
solve_case``.
"""

__version__ = "0.1.0"
