"""The benchmark's workloads: inputs made from a seed, the requests of
one round, and the checks on a round's outputs.

A request is one call of the public API as a user would make it: build
the meshes through ``study``'s mesh helpers, then one
``study.convergence_study`` (the two sweep workloads) or one
``study.solve_case`` (request-stream).  Every name is looked up on the
``study`` module at call time, so a traced run sees the same calls.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from gradflux import study
from gradflux.data_assign import assign_to_elements, build_dataset
from gradflux.forms import FORMULATION_KINDS, Formulation
from gradflux.manufactured import ManufacturedCase, case1, case2, case3

import checks


def draw_coefficients(rng):
    """kappa and zeta of one problem, both in [0.5, 2]."""
    return tuple(float(v) for v in rng.uniform(0.5, 2.0, size=2))


def check_results(label, case, results, nd=None):
    """Second-law location rule on every solve of a sweep."""
    failures = []
    for res in results:
        failures += checks.check_second_law(
            f"{label} n_dofs={res.n_dofs}", case, res.spaces, res.solution,
            nd)
    return failures


class SweepSmooth:
    """Convergence sweeps of the smooth mixed-boundary case at k = 1.

    Sparse LU dominates, and each matrix is factorized once.  The finest
    meshes (eo_full n = 24, 19k unknowns; natural n = 28, 35k) give the
    two sweeps about the same cost, near 4 s each on two cores, so the
    median request time does not sit between two far-apart modes.
    """

    name = "sweep-smooth"
    SIZES = {"eo_full": (4, 8, 16, 24), "natural": (4, 8, 16, 28)}
    K = 1

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.case = case1(*draw_coefficients(rng))

    def requests(self):
        return [(kind, partial(self._sweep, kind)) for kind in self.SIZES]

    def _sweep(self, kind):
        meshes = study.square_meshes(self.SIZES[kind])
        return study.convergence_study(self.case, Formulation(kind, self.K),
                                       meshes)

    def check(self, outputs, first_round):
        failures = []
        for kind, (_, results) in outputs:
            label = f"case1 {kind} k={self.K}"
            hs = [checks.mesh_h(res.mesh) for res in results]
            errors = {col: [res.errors[col] for res in results]
                      for col in results[0].errors}
            failures += checks.check_sweep(label, hs, errors, self.K)
            failures += check_results(label, self.case, results)
        return failures


class DataStudy:
    """Sampled-data studies of case 3: four data sets, nd0 * (1, 2, 4, 8)
    with nd0 drawn from 5..7, each swept over the same eo_full k = 0
    meshes.

    The data enter only the right-hand side, so three of every four
    solves factorize a matrix already factorized in the round.  The mesh
    sizes are not multiples of any nd, so element centroids meet the
    sample cells at mixed phases, and the coarsest data set stagnates on
    the two finest meshes.
    """

    name = "data-study"
    SIZES = (11, 23, 47)
    FORMULATION = Formulation("eo_full", 0)

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.case = case3(*draw_coefficients(rng))
        nd0 = int(rng.integers(5, 8))
        self.nds = [nd0 * 2 ** i for i in range(4)]
        self.datasets = [build_dataset(nd, self.case.e, self.case.s)
                         for nd in self.nds]

    def requests(self):
        return [(ds.nd, partial(self._study, ds)) for ds in self.datasets]

    def _study(self, dataset):
        meshes = study.square_meshes(self.SIZES)
        return study.convergence_study(self.case, self.FORMULATION, meshes,
                                       dataset=dataset)

    def check(self, outputs, first_round):
        failures = []
        done = dict(outputs)
        for ds in self.datasets:
            if ds.nd not in done:
                continue
            label = f"case3 nd={ds.nd}"
            _, results = done[ds.nd]
            failures += check_results(label, self.case, results, ds.nd)
            if first_round:
                for res in results:
                    e_field, s_field = assign_to_elements(res.mesh, ds)
                    failures += checks.check_assignment(
                        f"{label} n_elements={res.mesh.n_triangles}",
                        res.mesh, ds, e_field.values, s_field.values)
        if len(done) == len(self.datasets):
            finest = [done[nd][1][-1].errors["u_L2"] for nd in self.nds]
            coarsest = [res.errors["u_L2"]
                        for res in done[self.nds[0]][1][-2:]]
            failures += checks.check_data_study("case3 eo_full k=0",
                                                self.nds, finest, coarsest)
        return failures


def patch_case(kappa, zeta, a, b, c):
    """Linear potential u = a + b x + c y with zero multipliers: every
    formulation reproduces it exactly."""

    def u(x, y):
        return a + b * np.asarray(x, dtype=float) + c * np.asarray(y)

    def zero(x, y):
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)

    def const_vec(vx, vy):
        def f(x, y):
            out = np.empty(np.broadcast(np.asarray(x),
                                        np.asarray(y)).shape + (2,))
            out[..., 0] = vx
            out[..., 1] = vy
            return out
        return f

    e, s = const_vec(b, c), const_vec(-b, -c)
    return ManufacturedCase(
        name="patch", kappa=kappa, zeta=zeta, domain=("square",),
        u=u, e=e, s=s, lam=zero, grad_lam=const_vec(0.0, 0.0),
        mu=const_vec(0.0, 0.0), e_data=e, s_data=s,
        q=lambda x, y: zeta * u(x, y), f=zero, div_e=zero, div_s=zero,
        div_mu=zero)


@dataclass
class Problem:
    label: str
    case: ManufacturedCase
    formulation: Formulation
    phi: float = None          # corner angle; None on the unit square


CORNERS = {"7pi/4": np.pi / 4, "3pi/2": np.pi / 2, "5pi/4": 3 * np.pi / 4}


class RequestStream:
    """Small single solves in a seeded shuffled order, each problem on
    n = 4 and n = 8.

    Seven problem families (case 1 at k = 0 and 1, case 2 at three
    corner angles on graded sectors, case 3, a linear patch) times the
    four formulations times four draws of kappa and zeta: 112 problems,
    224 requests per round, no two matrices alike.  Assembly, error
    norms, boundary elimination and mesh building together outweigh the
    solve here.
    """

    name = "request-stream"
    SIZES = (4, 8)
    DRAWS = 4
    GRADING = 2.0

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.problems = []
        for kind in FORMULATION_KINDS:
            for draw in range(self.DRAWS):
                families = [("case1 k=0", case1(*draw_coefficients(rng)),
                             0, None),
                            ("case1 k=1", case1(*draw_coefficients(rng)),
                             1, None)]
                families += [(f"case2 {label}",
                              case2(phi, *draw_coefficients(rng)), 0, phi)
                             for label, phi in CORNERS.items()]
                families += [("case3", case3(*draw_coefficients(rng)), 0,
                              None),
                             ("patch", patch_case(
                                 *draw_coefficients(rng),
                                 *rng.uniform(-1.0, 1.0, size=3)), 0, None)]
                self.problems += [
                    Problem(f"{family} {kind} #{draw}", case,
                            Formulation(kind, k), phi)
                    for family, case, k, phi in families]
        pairs = [(p, n) for p in self.problems for n in self.SIZES]
        self.order = [pairs[i] for i in rng.permutation(len(pairs))]

    def requests(self):
        return [((p.label, n), partial(self._solve, p, n))
                for p, n in self.order]

    def _solve(self, problem, n):
        if problem.phi is None:
            mesh = study.square_meshes([n])[0]
        else:
            mesh = study.sector_meshes(problem.phi, [n],
                                       grading=self.GRADING)[0]
        return study.solve_case(mesh, problem.formulation, problem.case)

    def check(self, outputs, first_round):
        failures = []
        done = dict(outputs)
        for p in self.problems:
            case = p.case
            for n in self.SIZES:
                res = done.get((p.label, n))
                if res is None:
                    continue
                label = f"{p.label} n={n}"
                # case 1 fixes u on its left and right sides only
                tags = (("left", "right") if case.name == "case1"
                        else set(res.mesh.boundary_tags))
                failures += checks.check_second_law(label, case, res.spaces,
                                                    res.solution)
                failures += checks.check_dirichlet(label, case, res.mesh,
                                                   tags, res.solution["u"])
                if case.name == "patch":
                    failures += checks.check_patch(label, case, res.spaces,
                                                   res.solution, res.errors)
            coarse, fine = (done.get((p.label, n)) for n in self.SIZES)
            if case.name != "patch" and coarse and fine:
                failures += checks.check_refinement(p.label, coarse.errors,
                                                    fine.errors)
        return failures


WORKLOADS = {w.name: w for w in (SweepSmooth, DataStudy, RequestStream)}
