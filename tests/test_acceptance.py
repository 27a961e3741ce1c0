"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

Rate policy.  Rates are read from the asymptotic end of each sweep, the
last-pair rate of ``StudyReport.last_pair_rates()``: the coarse meshes
carry a multiplier transient that no sweep within the 5 GB direct-solver
budget can outrun, and a least-squares fit over the whole sweep mixes it
in.  Only the potential (u_L2, u_H1) is held inside a two-sided window
around its a priori rate.  The a priori estimates bound every other
error from above only (<= C h^(k+1)), so faster decay is no failure and
the multiplier, gradient and flux columns get lower bounds at the a
priori rate minus the window tolerance.  Upper bounds remain only where
a formulation is expected to stay suboptimal (eo_unstab).

Sweep sizes are the finest that fit the budget: n up to 64 at k = 0,
48 at k = 1 (75,272 unknowns) and 32 at k = 2 (the same size).  The
corner sweeps run on the shape-regular sector family of
``sector_meshes``; the sampled-data sweep uses sizes that are
non-commensurate with the 64x64 sample grid so element centroids probe
the sample cells at mixed phases, matching the non-conforming setup the
studies assume.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from gradflux.data_assign import build_dataset
from gradflux.elements import lagrange_eval, lagrange_grad, quadrature
from gradflux.forms import (Formulation, ProblemData, assemble,
                            apply_dirichlet, dirichlet_values,
                            stability_norm_matrix)
from gradflux.manufactured import (ManufacturedCase, case1, case2, case3,
                                   verify_strong_system)
from gradflux.mesh import mesh_size, unit_square_mesh
from gradflux.postproc import error_norms, second_law_values
from gradflux.solver import solve_direct
from gradflux.study import (convergence_study, interpolation_study,
                            sector_meshes, square_meshes)

ALL_KINDS = ("natural", "eo_unstab", "eo_min", "eo_full")
EO_KINDS = ("eo_unstab", "eo_min", "eo_full")
SQUARE_TAGS = ("left", "right", "bottom", "top")

CRIT2_SIZES = (8, 16, 32, 64)
CRIT3_SIZES = {1: (8, 16, 32, 48),    # k=1, n=48: 75,272 unknowns
               2: (8, 16, 32)}        # k=2, n=32: the same size
CRIT5_SIZES = (4, 8, 16, 32)
CRIT6_DATA_SIZES = (19, 37, 75, 101, 113)   # non-commensurate with nd=64
CRIT6_EXACT_SIZES = (8, 16, 32, 64)

# The two heaviest sweeps (criteria 3 and 6, nearly all sparse LU) solve
# two meshes at a time: SuperLU releases the GIL, and the solves of a
# sweep are independent.  Peak memory is the finest factor plus one
# coarser one.
SWEEP_THREADS = 2

AUDIT_TOL = 1e-10        # s.e above this violates the second law
STATIONARY_TOL = 1e-8    # |exact gradient| below this: a stationary point


@dataclass
class SweepAudit:
    """Second-law violations of one sweep, located per mesh.

    ``meshes`` holds, coarse to fine, (h, points, values, stationary)
    with one entry per violating node; ``stationary`` marks the nodes
    where the exact gradient vanishes.
    """

    label: str
    exact_data: bool
    meshes: list


AUDITS = []   # SweepAudit records across criteria 1-6


def locate_violations(case, spaces, solution):
    points, values = second_law_values(spaces, solution)
    bad = values > AUDIT_TOL
    points, values = points[bad], values[bad]
    grad = np.full(len(points), np.inf)   # singular at a sector's corner
    regular = (case.domain[0] != "sector") | (np.hypot(*points.T) > 0.0)
    grad[regular] = np.linalg.norm(case.e(*points[regular].T), axis=-1)
    return points, values, grad <= STATIONARY_TOL


def collect_audits(label, case, results, exact_data=True):
    meshes = [(res.h,) + locate_violations(case, res.spaces, res.solution)
              for res in results]
    AUDITS.append(SweepAudit(label, exact_data, meshes))


def report_criterion(number, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {label}")
    for item in failures:
        print(f"    - {item}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def in_window(value, center, tol):
    return abs(value - center) <= tol + 1e-12


# ----------------------------------------------------------------------
# shared sweeps


@pytest.fixture(scope="module")
def crit2_sweeps():
    case = case1()
    meshes = square_meshes(CRIT2_SIZES)
    out = {}
    start = time.perf_counter()
    for kind in ALL_KINDS:
        report, results = convergence_study(case, Formulation(kind, 0),
                                            meshes)
        collect_audits(f"case1 {kind} k=0", case, results)
        out[kind] = report
    out["elapsed"] = time.perf_counter() - start
    return out


@pytest.fixture(scope="module")
def crit3_sweeps():
    case = case1()
    out = {}
    for k, sizes in CRIT3_SIZES.items():
        meshes = square_meshes(sizes)
        for kind in EO_KINDS:
            report, results = convergence_study(case, Formulation(kind, k),
                                                meshes, threads=SWEEP_THREADS)
            collect_audits(f"case1 {kind} k={k}", case, results)
            out[(kind, k)] = report
    return out


@pytest.fixture(scope="module")
def crit5_sweeps():
    angles = {"7pi/4": np.pi / 4, "3pi/2": np.pi / 2,
              "5pi/4": 3 * np.pi / 4}
    out = {}
    for label, phi in angles.items():
        case = case2(phi)
        meshes = sector_meshes(phi, CRIT5_SIZES, grading=1.0)
        natural, nat_res = convergence_study(case,
                                             Formulation("natural", 0),
                                             meshes)
        unstab, un_res = convergence_study(case,
                                           Formulation("eo_unstab", 0),
                                           meshes)
        collect_audits(f"case2({label}) natural", case, nat_res)
        collect_audits(f"case2({label}) eo_unstab", case, un_res)
        out[label] = {"natural": natural, "eo_unstab": unstab,
                      "interpolation": interpolation_study(case, meshes),
                      "nu": np.pi / (2 * np.pi - phi)}
    return out


@pytest.fixture(scope="module")
def crit6_data_sweeps():
    case = case3()
    dataset = build_dataset(64, case.e, case.s)
    meshes = square_meshes(CRIT6_DATA_SIZES)
    out = {}
    for kind in ALL_KINDS:
        report, results = convergence_study(case, Formulation(kind, 0),
                                            meshes, dataset=dataset,
                                            threads=SWEEP_THREADS)
        # sampled data stagnate by design: location rule only
        collect_audits(f"case3 nd=64 {kind}", case, results,
                       exact_data=False)
        out[kind] = report
    return out


@pytest.fixture(scope="module")
def crit6_exact_sweeps():
    case = case3()
    meshes = square_meshes(CRIT6_EXACT_SIZES)
    out = {}
    for kind in ALL_KINDS:
        report, results = convergence_study(case, Formulation(kind, 0),
                                            meshes)
        collect_audits(f"case3 exact {kind}", case, results)
        out[kind] = report
    return out


def patch_case():
    def xfun(x, y):
        return np.asarray(x, dtype=float) + 0.0 * np.asarray(y)

    def zero(x, y):
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)

    def const_vec(cx, cy):
        def f(x, y):
            out = np.zeros(np.broadcast(np.asarray(x),
                                        np.asarray(y)).shape + (2,))
            out[..., 0] = cx
            out[..., 1] = cy
            return out
        return f

    return ManufacturedCase(
        name="patch", kappa=1.0, zeta=0.0, domain=("square",),
        u=xfun, e=const_vec(1.0, 0.0), s=const_vec(-1.0, 0.0),
        lam=zero, grad_lam=const_vec(0.0, 0.0), mu=const_vec(0.0, 0.0),
        e_data=const_vec(1.0, 0.0), s_data=const_vec(-1.0, 0.0),
        q=zero, f=zero, div_e=zero, div_s=zero, div_mu=zero)


# ----------------------------------------------------------------------
# criteria


def test_criterion_01_patch_test():
    failures = []
    patch = patch_case()
    mesh = unit_square_mesh(4)
    start = time.perf_counter()
    for kind in ALL_KINDS:
        data = ProblemData(kappa=1.0, zeta=0.0, q=0.0, f=0.0,
                           e_data=patch.e_data, s_data=patch.s_data,
                           dirichlet={t: (patch.u, patch.lam)
                                      for t in SQUARE_TAGS})
        system = apply_dirichlet(
            assemble(mesh, Formulation(kind, 0), data), data)
        solution = system.split(solve_direct(system.matrix, system.rhs))
        errors = error_norms(system.spaces, solution, patch)
        worst = max(errors.values())
        if worst > 1e-8:
            failures.append(f"{kind}: worst norm {worst:.2e} > 1e-8")
        AUDITS.append(SweepAudit(
            f"patch {kind}", True,
            [(mesh_size(mesh),) + locate_violations(patch, system.spaces,
                                                    solution)]))
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report_criterion(1, "patch test reproduces the linear state "
                     f"({elapsed * 1e3:.0f} ms)", failures)


def test_criterion_02_case1_k0_rates(crit2_sweeps):
    failures = []
    for kind in ALL_KINDS:
        rates = crit2_sweeps[kind].last_pair_rates()
        for col, center, tol in (("u_L2", 2.0, 0.2), ("u_H1", 1.0, 0.15)):
            if not in_window(rates[col], center, tol):
                failures.append(f"{kind} {col} rate {rates[col]:.2f} "
                                f"outside {center} +- {tol}")
        # the multiplier may decay faster than its a priori rate
        for col, bound in (("lambda_L2", 1.8), ("lambda_H1", 0.85)):
            if rates[col] < bound:
                failures.append(f"{kind} {col} rate {rates[col]:.2f} "
                                f"< {bound}")
        vec_min = min(rates["e_L2"], rates["s_L2"], rates["mu_L2"])
        bound = 0.9 if kind == "natural" else 1.3
        if vec_min < bound:
            failures.append(f"{kind} vector L2 rate {vec_min:.2f} "
                            f"< {bound}")
    report_criterion(2, "convex-domain last-pair rates at lowest order "
                     f"(n in {CRIT2_SIZES})", failures)


def test_criterion_03_case1_higher_order_rates(crit3_sweeps):
    failures = []
    for k in CRIT3_SIZES:
        for kind in ("eo_min", "eo_full"):
            rates = crit3_sweeps[(kind, k)].last_pair_rates()
            if not in_window(rates["u_H1"], k + 1, 0.2):
                failures.append(f"k={k} {kind} u_H1 rate "
                                f"{rates['u_H1']:.2f} outside "
                                f"{k + 1} +- 0.2")
            # eo_full's extra order in the flux is an observed rate (3.0-3.2
            # at k=1, about 4.3 at k=2), not one the estimates promise;
            # eo_min's flux rate falls towards k+1 under refinement
            floors = {"lambda_H1": k + 0.8, "e_L2": k + 0.8,
                      "mu_L2": k + 0.8,
                      "s_L2": k + 1.6 if kind == "eo_full" else k + 0.8}
            for col, bound in floors.items():
                if rates[col] < bound:
                    failures.append(f"k={k} {kind} {col} rate "
                                    f"{rates[col]:.2f} < {bound:g}")
        rates = crit3_sweeps[("eo_unstab", k)].last_pair_rates()
        for col in ("u_H1", "lambda_H1"):
            if rates[col] > k + 0.5:
                failures.append(f"k={k} eo_unstab {col} rate "
                                f"{rates[col]:.2f} > {k + 0.5} "
                                "(should stay suboptimal)")
    report_criterion(3, "higher-order stabilized last-pair rates "
                     f"(n in {CRIT3_SIZES})", failures)


def test_criterion_04_full_stabilization_lowest_error(crit3_sweeps):
    # eo_unstab is suboptimal, so its error falls behind eo_full's under
    # refinement; on the coarsest mesh the two may still be level
    failures = []
    for k in CRIT3_SIZES:
        full = crit3_sweeps[("eo_full", k)]
        unstab = crit3_sweeps[("eo_unstab", k)]
        ratios = [eu / ef for ef, eu in zip(full.errors("u_L2"),
                                            unstab.errors("u_L2"))]
        if ratios[-1] < 1.0:
            failures.append(f"k={k} h={full.hs[-1]:.4g}: fully stabilized "
                            f"u_L2 {full.errors('u_L2')[-1]:.3e} > "
                            f"unstabilized "
                            f"{unstab.errors('u_L2')[-1]:.3e}")
        if any(later <= earlier
               for earlier, later in zip(ratios, ratios[1:])):
            failures.append(f"k={k}: unstabilized/fully stabilized u_L2 "
                            "ratio does not grow under refinement ("
                            + ", ".join(f"{r:.2f}" for r in ratios) + ")")
    report_criterion(4, "fully stabilized attains the lowest potential "
                     "error on the finest mesh, and the gap grows",
                     failures)


def test_criterion_05_corner_rates(crit5_sweeps):
    targets = {
        "7pi/4": {"natural_u": 0.57, "natural_s": 0.57, "interp": 0.57},
        "3pi/2": {"natural_u": 0.72, "natural_s": 0.73, "interp": 0.66},
        "5pi/4": {"natural_u": 0.81, "natural_s": 0.83, "interp": 0.80},
    }
    failures = []
    for label, goal in targets.items():
        sweeps = crit5_sweeps[label]
        nu = sweeps["nu"]
        nat = sweeps["natural"].last_pair_rates()
        if not in_window(nat["u_H1"], goal["natural_u"], 0.1):
            failures.append(f"psi={label} natural u_H1 {nat['u_H1']:.2f} "
                            f"outside {goal['natural_u']} +- 0.1")
        if not in_window(nat["lambda_H1"], 0.99, 0.1):
            failures.append(f"psi={label} natural lambda_H1 "
                            f"{nat['lambda_H1']:.2f} outside 0.99 +- 0.1")
        if not in_window(nat["s_L2"], goal["natural_s"], 0.1):
            failures.append(f"psi={label} natural s_L2 {nat['s_L2']:.2f} "
                            f"outside {goal['natural_s']} +- 0.1")
        # No rate table for eo_unstab is at hand; its band is tied to the
        # regularity exponent nu = pi / psi of case2 (u in H^(1+nu-eps)),
        # which caps every H1 rate.  A mesh that is not shape-regular
        # (the fixed polar layout) drops it below the band.
        unstab = sweeps["eo_unstab"].last_pair_rates()
        if not nu - 0.15 <= unstab["u_H1"] <= nu + 0.1:
            failures.append(f"psi={label} unstabilized u_H1 "
                            f"{unstab['u_H1']:.2f} outside "
                            f"[{nu - 0.15:.2f}, {nu + 0.1:.2f}] "
                            f"(nu = {nu:.3f})")
        interp = sweeps["interpolation"].last_pair_rates()
        if not in_window(interp["u_H1"], goal["interp"], 0.1):
            failures.append(f"psi={label} interpolation u_H1 "
                            f"{interp['u_H1']:.2f} outside "
                            f"{goal['interp']} +- 0.1")
    report_criterion(5, "corner-singularity rates on shape-regular "
                     "sectors", failures)


def test_criterion_06_data_assignment(crit6_data_sweeps,
                                      crit6_exact_sweeps):
    failures = []
    for kind in ALL_KINDS:
        errs = crit6_data_sweeps[kind].errors("u_L2")
        rel = abs(errs[-1] - errs[-2]) / errs[-2]
        if rel >= 0.10:
            failures.append(f"{kind} nd=64: two finest meshes differ by "
                            f"{rel:.1%} (no stagnation)")
        rates = crit6_exact_sweeps[kind].rates()
        if not in_window(rates["u_L2"], 2.0, 0.2):
            failures.append(f"{kind} exact data u_L2 rate "
                            f"{rates['u_L2']:.2f} outside 2.0 +- 0.2")
        if not in_window(rates["u_H1"], 1.0, 0.15):
            failures.append(f"{kind} exact data u_H1 rate "
                            f"{rates['u_H1']:.2f} outside 1.0 +- 0.15")
        # the exact multiplier is identically zero, so its tiny errors
        # may superconverge; require at least criterion-2 decay
        if rates["lambda_L2"] < 1.8 or rates["lambda_H1"] < 0.85:
            failures.append(f"{kind} exact data multiplier rates "
                            f"({rates['lambda_L2']:.2f}, "
                            f"{rates['lambda_H1']:.2f}) below (1.8, 0.85)")
        vec_min = min(rates["e_L2"], rates["s_L2"], rates["mu_L2"])
        bound = 0.9 if kind == "natural" else 1.3
        if vec_min < bound:
            failures.append(f"{kind} exact data vector rate "
                            f"{vec_min:.2f} < {bound}")
    report_criterion(6, "sampled data stagnates at nd=64 and exact data "
                     "restores the convex-domain rates", failures)


def test_criterion_07_second_law(crit2_sweeps, crit3_sweeps, crit5_sweeps,
                                 crit6_data_sweeps, crit6_exact_sweeps):
    # The method enforces conservation and compatibility, not the sign of
    # s.e.  Where the exact gradient vanishes the exact s.e is 0 and the
    # discrete value is a product of two discretization errors of either
    # sign: there, exact-data sweeps must shrink it under refinement.
    # Anywhere else any positive value is a violation.
    failures = []
    for audit in AUDITS:
        for h, points, values, stationary in audit.meshes:
            for (x, y), value in zip(points[~stationary],
                                     values[~stationary]):
                failures.append(f"{audit.label} h={h:.4g}: s.e = "
                                f"{value:.2e} at ({x:.4g}, {y:.4g})")
        if not audit.exact_data:
            continue
        worst = [values[stationary].max() if stationary.any() else None
                 for _, _, values, stationary in audit.meshes]
        if worst[-1] is not None and (worst[0] is None
                                      or worst[-1] >= worst[0]):
            coarse = "none" if worst[0] is None else f"{worst[0]:.2e}"
            failures.append(f"{audit.label}: s.e at stationary points "
                            f"does not shrink ({coarse} on the coarsest "
                            f"mesh, {worst[-1]:.2e} on the finest)")
    n_solves = sum(len(audit.meshes) for audit in AUDITS)
    report_criterion(7, f"second-law audit over {n_solves} solves "
                     f"(tol {AUDIT_TOL:g})", failures)


def test_criterion_08_coercivity_sampling():
    failures = []
    zero = lambda x, y: np.zeros(np.shape(x))
    mesh = unit_square_mesh(16)
    h = mesh_size(mesh)
    assert h <= 0.1
    data = ProblemData(kappa=1.0, zeta=1.0, q=0.0, f=0.0, e_data=0.0,
                       s_data=0.0,
                       dirichlet={t: (zero, zero) for t in SQUARE_TAGS})
    system = assemble(mesh, Formulation("eo_full", 0), data)
    constrained, _ = dirichlet_values(system, data)
    free = np.setdiff1d(np.arange(system.n_dofs), constrained)
    gram = stability_norm_matrix(system.spaces, 1.0, h)
    rng = np.random.default_rng(2024)
    worst = np.inf
    for _ in range(1000):
        z = np.zeros(system.n_dofs)
        z[free] = rng.standard_normal(len(free))
        worst = min(worst, (z @ (system.matrix @ z)) / (z @ (gram @ z)))
    if worst < 0.05:
        failures.append(f"min Rayleigh quotient {worst:.4f} < 0.05")
    report_criterion(8, f"coercivity sampling at h={h:.3f} "
                     f"(min quotient {worst:.3f})", failures)


def test_criterion_09_verification_oracles():
    failures = []
    for case in (case1(), case2(np.pi / 2), case3()):
        residuals = verify_strong_system(case, n_samples=400,
                                         fd_step=1e-5)
        worst = max(residuals.values())
        if worst > 1e-6:
            failures.append(f"{case.name} strong-system residual "
                            f"{worst:.2e} > 1e-6")
    for d in range(1, 11):
        rule = quadrature(d)
        for a in range(d + 1):
            for b in range(d + 1 - a):
                val = float(np.sum(rule.weights * rule.points[:, 0] ** a
                                   * rule.points[:, 1] ** b))
                exact = (math.factorial(a) * math.factorial(b)
                         / math.factorial(a + b + 2))
                if abs(val - exact) > 1e-14:
                    failures.append(f"quadrature degree {d} misses "
                                    f"x^{a} y^{b} by "
                                    f"{abs(val - exact):.2e}")
    rng = np.random.default_rng(77)
    step = 1e-6
    for degree in (1, 2, 3):
        for p in 0.05 + 0.4 * rng.random((10, 2)):
            grad = lagrange_grad(degree, p)
            fx = (lagrange_eval(degree, (p[0] + step, p[1]))
                  - lagrange_eval(degree, (p[0] - step, p[1]))) / (2 * step)
            fy = (lagrange_eval(degree, (p[0], p[1] + step))
                  - lagrange_eval(degree, (p[0], p[1] - step))) / (2 * step)
            gap = max(np.abs(grad[:, 0] - fx).max(),
                      np.abs(grad[:, 1] - fy).max())
            if gap > 1e-7:
                failures.append(f"degree-{degree} basis gradient differs "
                                f"from FD by {gap:.2e}")
    report_criterion(9, "manufactured solutions, quadrature and basis "
                     "gradients verify", failures)


def test_criterion_10_decoupling():
    failures = []
    case = case1()
    mesh = unit_square_mesh(4)
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
                    value = abs(block).max() if block.nnz else 0.0
                    if value != 0.0:
                        failures.append(f"{kind}: block ({row}, {col}) "
                                        f"has entry {value:.2e}")
    report_criterion(10, "reaction-free problems decouple exactly",
                     failures)


def test_criterion_11_performance(crit2_sweeps):
    failures = []
    elapsed = crit2_sweeps["elapsed"]
    if elapsed >= 300.0:
        failures.append(f"criterion-2 sweep took {elapsed:.0f}s >= 300s")
    report_criterion(11, f"criterion-2 sweep completed in {elapsed:.0f}s",
                     failures)
