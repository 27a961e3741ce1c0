"""Batch front-end: single solves, convergence sweeps, data-assignment
studies and self-verification, driven by a JSON configuration.

Exit codes: 0 success, 1 configuration/validation error, 2 numerical
failure (solver breakdown or a failing verification check).
"""

import argparse
import json
import math
import numbers
import os
import sys

import numpy as np

from . import manufactured
from .data_assign import build_dataset, write_dataset_csv
from .elements import lagrange_eval, lagrange_grad, quadrature
from .forms import (FORMULATION_KINDS, Formulation, ProblemData,
                    StabilizationParams, assemble, dirichlet_values,
                    stability_norm_matrix)
from .mesh import mesh_size, unit_square_mesh
from .postproc import (StudyReport, nodal_error_field, plot_loglog,
                       write_nodal_error_csv, write_report)
from .solver import SolverError
from .study import (convergence_study, problem_data_for, sector_meshes,
                    solve_case, square_meshes)

_CASES = ("case1", "case2", "case3")
_COEFFICIENTS = ("alpha", "gamma", "eta", "theta", "beta")
_KEYS = ("case", "formulation", "k", "mesh", "kappa", "zeta",
         "stabilization", "nd_list", "output")


class ConfigError(ValueError):
    """Configuration failed validation; message names the field."""


def _number(field, value, integer=False):
    """``value`` as a float, or as an int when ``integer``.

    Raises a ConfigError that names the field and shows the value given
    unless it is a real number, and an integral one when ``integer``.
    Ranges, which also reject NaN and infinity, are checked per field.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{field}: expected a number, got {value!r}")
    if integer and isinstance(value, numbers.Integral):
        return int(value)
    try:
        number = float(value)
    except OverflowError:       # a JSON integer beyond the float range
        raise ConfigError(f"{field}: expected a finite number, "
                          f"got {value!r}") from None
    if not integer:
        return number
    if not number.is_integer():
        raise ConfigError(f"{field}: expected an integer, got {value!r}")
    return int(number)


def _known(prefix, section, keys):
    """Raise a ConfigError naming the first key of ``section`` that is
    not one of ``keys``."""
    for name in section:
        if name not in keys:
            raise ConfigError(f"{prefix}{name}: unknown key; expected "
                              f"{', '.join(keys[:-1])} or {keys[-1]}")


def _object(field, value, keys):
    if not isinstance(value, dict):
        raise ConfigError(f"{field}: expected a JSON object, got {value!r}")
    _known(f"{field}.", value, keys)
    return value


def _integers(field, values):
    if not isinstance(values, list):
        raise ConfigError(f"{field}: expected a list of integers, "
                          f"got {values!r}")
    return [_number(field, v, integer=True) for v in values]


class RunConfig:
    """Validated run configuration.

    JSON shape:
        case:        {"name": "case1"} | {"name": "case2", "phi": <rad>}
                     | {"name": "case3", "nd": <int or null>}
        formulation: "natural" | "eo_unstab" | "eo_min" | "eo_full"
        k:           0 | 1 | 2
        mesh:        {"sizes": [..] (non-empty, strictly increasing),
                      "grading": <real>=1, case2 only>}
        kappa:       positive real (default 1)
        zeta:        real >= 0 (default 1)
        stabilization: eo_* only, any of alpha, gamma, eta, theta, beta
        nd_list:     data-study sampling resolutions, distinct
        output:      output directory (default "out")

    A key not listed here, at the top level or in a section, is an
    error that names it, and so is ``case.phi`` or ``mesh.grading``
    outside case2, ``case.nd`` outside case3 or ``stabilization`` for
    ``natural``.  Quadrature follows the formulation
    (:func:`gradflux.forms.default_quad_exactness`); ``verify`` uses a
    fixed finite-difference step and sampling seed.
    """

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise ConfigError("config: expected a JSON object")
        _known("", raw, _KEYS)
        case = raw.get("case", {"name": "case1"})
        if isinstance(case, str):
            case = {"name": case}
        case = _object("case", case, ("name", "phi", "nd"))
        if case.get("name") not in _CASES:
            raise ConfigError(f"case.name: expected one of {_CASES}, "
                              f"got {case.get('name')!r}")
        self.case_name = case["name"]
        for name, owner in (("phi", "case2"), ("nd", "case3")):
            if name in case and self.case_name != owner:
                raise ConfigError(f"case.{name}: only {owner} takes it, "
                                  f"got it for {self.case_name}")
        self.phi = _number("case.phi", case.get("phi", np.pi / 2))
        if not 0.0 < self.phi < np.pi:
            raise ConfigError(f"case.phi: must lie in (0, pi), "
                              f"got {self.phi}")
        self.nd = case.get("nd")
        if self.nd is not None:
            self.nd = _number("case.nd", self.nd, integer=True)
            if self.nd < 1:
                raise ConfigError(f"case.nd: must be >= 1, got {self.nd}")

        kind = raw.get("formulation", "natural")
        if kind not in FORMULATION_KINDS:
            raise ConfigError(f"formulation: expected one of "
                              f"{FORMULATION_KINDS}, got {kind!r}")
        self.kind = kind
        self.k = _number("k", raw.get("k", 0), integer=True)
        if self.k not in (0, 1, 2):
            raise ConfigError(f"k: expected 0, 1 or 2, got {self.k}")
        if self.case_name in ("case2", "case3") and self.k != 0:
            raise ConfigError(f"k: {self.case_name} studies use k = 0 only")

        mesh = _object("mesh", raw.get("mesh", {}), ("sizes", "grading"))
        self.sizes = _integers("mesh.sizes", mesh.get("sizes", [8, 16, 32]))
        if not self.sizes:
            raise ConfigError("mesh.sizes: expected at least one size")
        if any(n < 1 for n in self.sizes):
            raise ConfigError("mesh.sizes: entries must be >= 1")
        if any(a >= b for a, b in zip(self.sizes, self.sizes[1:])):
            raise ConfigError(f"mesh.sizes: must be strictly increasing "
                              f"(coarse to fine), got {self.sizes}")
        self.grading = _number("mesh.grading", mesh.get("grading", 2.0))
        if not self.grading >= 1.0:
            raise ConfigError(f"mesh.grading: must be >= 1, "
                              f"got {self.grading}")
        if self.grading == np.inf:
            raise ConfigError("mesh.grading: must be finite, got inf")
        if "grading" in mesh and self.case_name != "case2":
            raise ConfigError(f"mesh.grading: only case2 takes it, "
                              f"got it for {self.case_name}")

        self.kappa = _number("kappa", raw.get("kappa", 1.0))
        if not 0.0 < self.kappa < np.inf:
            raise ConfigError(f"kappa: must be a positive finite number, "
                              f"got {self.kappa}")
        self.zeta = _number("zeta", raw.get("zeta", 1.0))
        if not 0.0 <= self.zeta < np.inf:
            raise ConfigError(f"zeta: must be a finite number >= 0, "
                              f"got {self.zeta}")

        stab = raw.get("stabilization")
        if stab is not None:
            stab = _object("stabilization", stab, _COEFFICIENTS)
            coeffs = {name: _number(f"stabilization.{name}", value)
                      for name, value in stab.items()}
            try:
                self.stabilization = StabilizationParams(**coeffs)
            except ValueError as err:
                raise ConfigError(f"stabilization: {err}") from None
            if self.kind == "natural":
                raise ConfigError("stabilization: only the equal-order "
                                  "formulations take it, got it for natural")
        else:
            self.stabilization = None

        self.nd_list = _integers("nd_list", raw.get("nd_list", []))
        if any(nd < 1 for nd in self.nd_list):
            raise ConfigError("nd_list: entries must be >= 1")
        if len(set(self.nd_list)) < len(self.nd_list):
            raise ConfigError(f"nd_list: entries must be distinct, "
                              f"got {self.nd_list}")
        self.output = raw.get("output", "out")
        if not isinstance(self.output, str) or not self.output:
            raise ConfigError(f"output: expected a directory name, "
                              f"got {self.output!r}")

    def build_case(self):
        if self.case_name == "case1":
            return manufactured.case1(self.kappa, self.zeta)
        if self.case_name == "case2":
            return manufactured.case2(self.phi, self.kappa, self.zeta)
        return manufactured.case3(self.kappa, self.zeta)

    def build_meshes(self, sizes):
        if self.case_name == "case2":
            return sector_meshes(self.phi, sizes, grading=self.grading)
        return square_meshes(sizes)

    def formulation(self):
        return Formulation(self.kind, self.k)

    def build_dataset(self, case):
        """The sampled data set of a case3 run with ``nd``, else None."""
        if self.case_name == "case3" and self.nd:
            return build_dataset(self.nd, case.e, case.s)
        return None


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config: invalid JSON ({err})") from None
    except OSError as err:
        raise ConfigError(f"--config: cannot read {path!r} "
                          f"({err.strerror})") from None
    except UnicodeDecodeError:
        raise ConfigError(f"--config: cannot read {path!r} "
                          "(not UTF-8 text)") from None
    return RunConfig(raw)


def _outdir(config, override):
    field, path = (("output", config.output) if override is None
                   else ("--out", override))
    if not path:
        raise ConfigError(f"{field}: expected a directory name, "
                          f"got {path!r}")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"{field}: cannot create directory {path!r} "
                          f"({err.strerror})") from None
    return path


# ----------------------------------------------------------------------
# subcommands


def cmd_solve(config, out_dir):
    case = config.build_case()
    mesh, = config.build_meshes(config.sizes[:1])
    dataset = config.build_dataset(case)
    res = solve_case(mesh, config.formulation(), case, dataset=dataset,
                     params=config.stabilization)

    for name, coeffs in res.solution.items():
        with open(os.path.join(out_dir, f"field_{name}.csv"), "w") as fh:
            fh.write("dof,value\n")
            for i, v in enumerate(coeffs):
                fh.write(f"{i},{float(v)!r}\n")
    report = StudyReport(case=case.name, formulation=config.kind)
    report.add_row(res.h, res.n_dofs, res.errors)
    write_report(report, os.path.join(out_dir, "report.csv"))
    rows = nodal_error_field(res.spaces.u, res.solution["u"], case.u)
    write_nodal_error_csv(rows, os.path.join(out_dir, "nodal_error_u.csv"))
    count, worst = res.audit
    with open(os.path.join(out_dir, "second_law_audit.txt"), "w") as fh:
        fh.write(f"violations {count}\nworst {float(worst)!r}\n")
    if dataset is not None:
        write_dataset_csv(dataset, os.path.join(out_dir, "dataset.csv"))
    print(f"solved {case.name} / {config.kind} (k={config.k}) "
          f"h={res.h:.4g} dofs={res.n_dofs} solved={res.n_solved}")
    print(f"u_L2={res.errors['u_L2']:.4e} second-law violations={count}")
    return 0


def cmd_convergence(config, out_dir, threads=1):
    if len(config.sizes) < 3:
        raise ConfigError("mesh.sizes: convergence sweeps need >= 3 meshes")
    case = config.build_case()
    meshes = config.build_meshes(config.sizes)
    dataset = config.build_dataset(case)
    report, results = convergence_study(
        case, config.formulation(), meshes, dataset=dataset,
        params=config.stabilization, threads=threads)
    write_report(report, os.path.join(out_dir, "report.csv"))
    plot_loglog(report, os.path.join(out_dir, "report.svg"))
    rates = report.rates()
    print(f"{case.name} / {config.kind} (k={config.k}) rates:")
    for col in ("u_L2", "u_H1", "lambda_L2", "lambda_H1", "e_L2", "s_L2",
                "mu_L2"):
        val = rates[col]
        print(f"  {col:10s} {'n/a' if val is None else f'{val:5.2f}'}")
    return 0


def cmd_data_study(config, out_dir, threads=1):
    if config.case_name != "case3":
        raise ConfigError("case.name: data studies require case3")
    if not config.nd_list:
        raise ConfigError("nd_list: at least one sampling resolution "
                          "required")
    case = config.build_case()
    meshes = config.build_meshes(config.sizes)
    for nd in config.nd_list:
        dataset = build_dataset(nd, case.e, case.s)
        report, _ = convergence_study(
            case, config.formulation(), meshes, dataset=dataset,
            params=config.stabilization, threads=threads)
        write_report(report, os.path.join(out_dir, f"report_nd{nd}.csv"))
        plot_loglog(report, os.path.join(out_dir, f"report_nd{nd}.svg"))
        rates = report.rates()
        u_rate = rates["u_L2"]
        print(f"nd={nd}: u_L2 rate "
              f"{'n/a' if u_rate is None else f'{u_rate:.2f}'}, "
              f"finest error {report.errors('u_L2')[-1]:.4e}")
    return 0


def cmd_verify(config):
    """Self-checks: manufactured solutions against the FD oracle,
    quadrature exactness, basis gradients, patch test, block structure,
    coercivity sampling."""
    failures = []

    def check(name, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
        if not ok:
            failures.append(name)

    if config.stabilization is not None:
        # surfaced before any solve; invalid coefficients already raised
        print("[PASS] stabilization parameter invariants")

    cases = [manufactured.case1(), manufactured.case2(np.pi / 2),
             manufactured.case3()]
    for case in cases:
        res = manufactured.verify_strong_system(case, n_samples=400)
        worst = max(res.values())
        check(f"strong optimality system: {case.name}", worst <= 1e-6,
              f"max residual {worst:.2e}")

    worst = 0.0
    for d in range(1, 11):
        rule = quadrature(d)
        for a in range(d + 1):
            for b in range(d + 1 - a):
                val = float(np.sum(rule.weights
                                   * rule.points[:, 0] ** a
                                   * rule.points[:, 1] ** b))
                exact = (math.factorial(a) * math.factorial(b)
                         / math.factorial(a + b + 2))
                worst = max(worst, abs(val - exact))
    check("quadrature monomial exactness (degrees 1-10)", worst <= 1e-14,
          f"max defect {worst:.2e}")

    rng = np.random.default_rng(0)
    worst = 0.0
    for degree in (1, 2, 3):
        pts = 0.1 + 0.4 * rng.random((10, 2))
        h = 1e-6
        for p in pts:
            grad = lagrange_grad(degree, p)
            fx = (lagrange_eval(degree, (p[0] + h, p[1]))
                  - lagrange_eval(degree, (p[0] - h, p[1]))) / (2 * h)
            fy = (lagrange_eval(degree, (p[0], p[1] + h))
                  - lagrange_eval(degree, (p[0], p[1] - h))) / (2 * h)
            worst = max(worst, float(np.abs(grad[:, 0] - fx).max()))
            worst = max(worst, float(np.abs(grad[:, 1] - fy).max()))
    check("basis gradients vs finite differences", worst <= 1e-7,
          f"max defect {worst:.2e}")

    check_patch(check)
    check_structure(check)
    check_coercivity(check)

    if failures:
        print(f"{len(failures)} verification check(s) failed")
        return 2
    print("all verification checks passed")
    return 0


def _patch_case():
    def xfun(x, y):
        return np.asarray(x, dtype=float) + 0.0 * np.asarray(y)

    def zero(x, y):
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)

    def const_vec(cx, cy):
        def f(x, y):
            base = np.zeros(np.broadcast(np.asarray(x),
                                         np.asarray(y)).shape + (2,))
            base[..., 0] = cx
            base[..., 1] = cy
            return base
        return f

    return manufactured.ManufacturedCase(
        name="patch", kappa=1.0, zeta=0.0, domain=("square",),
        u=xfun, e=const_vec(1.0, 0.0), s=const_vec(-1.0, 0.0),
        lam=zero, grad_lam=const_vec(0.0, 0.0), mu=const_vec(0.0, 0.0),
        e_data=const_vec(1.0, 0.0), s_data=const_vec(-1.0, 0.0),
        q=zero, f=zero, div_e=zero, div_s=zero, div_mu=zero)


def check_patch(check):
    patch = _patch_case()
    mesh = unit_square_mesh(4)
    for kind in FORMULATION_KINDS:
        res = solve_case(mesh, Formulation(kind, 0), patch)
        worst = max(res.errors.values())
        check(f"patch test: {kind}", worst <= 1e-8,
              f"worst norm {worst:.2e}")


def check_structure(check):
    case = manufactured.case1()
    mesh = unit_square_mesh(4)
    for kind in FORMULATION_KINDS:
        data = problem_data_for(case, mesh)
        system = assemble(mesh, Formulation(kind, 0), data)
        k_off = system.offsets["lam"]
        kp = system.matrix[:k_off, k_off:]
        kd = system.matrix[k_off:, :k_off]
        defect = abs(kp + kd.T).max()
        scale = abs(system.matrix).max()
        check(f"skew coupling structure: {kind}",
              defect <= 1e-12 * scale,
              f"defect {defect:.2e} vs scale {scale:.2e}")

    zero = lambda x, y: np.zeros(np.shape(x))
    data = ProblemData(kappa=1.0, zeta=0.0, q=0.0, f=0.0,
                       e_data=case.e_data, s_data=case.s_data,
                       dirichlet={t: (zero, zero)
                                  for t in ("left", "right", "bottom",
                                            "top")})
    system = assemble(mesh, Formulation("natural", 0), data)
    coupled = 0.0
    for row in ("u", "e", "mu"):
        for col in ("s", "lam"):
            block = system.block(row, col)
            if block.nnz:
                coupled = max(coupled, abs(block).max())
            block = system.block(col, row)
            if block.nnz:
                coupled = max(coupled, abs(block).max())
    check("reaction-free decoupling", coupled == 0.0,
          f"max coupling entry {coupled:.2e}")


def check_coercivity(check):
    zero = lambda x, y: np.zeros(np.shape(x))
    mesh = unit_square_mesh(16)
    data = ProblemData(kappa=1.0, zeta=1.0, q=0.0, f=0.0, e_data=0.0,
                       s_data=0.0,
                       dirichlet={t: (zero, zero)
                                  for t in ("left", "right", "bottom",
                                            "top")})
    system = assemble(mesh, Formulation("eo_full", 0), data)
    free = np.setdiff1d(np.arange(system.n_dofs),
                        dirichlet_values(system, data)[0])
    norm = stability_norm_matrix(system.spaces, 1.0, mesh_size(mesh))
    rng = np.random.default_rng(0)
    worst = np.inf
    for _ in range(1000):
        z = np.zeros(system.n_dofs)
        z[free] = rng.standard_normal(len(free))
        worst = min(worst, (z @ (system.matrix @ z)) / (z @ (norm @ z)))
    check("coercivity sampling (fully stabilized)", worst >= 0.05,
          f"min Rayleigh quotient {worst:.3f}")


# ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gradflux",
        description="Five-field gradient/flux data reconciliation solver")
    parser.add_argument("command",
                        choices=("solve", "convergence", "data-study",
                                 "verify"))
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", help="output directory (defaults to the "
                        "config's 'output')")
    parser.add_argument("--threads", type=int, default=1,
                        help="concurrent solves within a sweep")
    args = parser.parse_args(argv)

    try:
        if args.threads < 1:
            raise ConfigError(f"--threads: must be >= 1, got {args.threads}")
        if args.config is not None:
            config = load_config(args.config)
        else:
            config = RunConfig({})
        if args.command == "verify":             # writes no file
            return cmd_verify(config)
        out_dir = _outdir(config, args.out)
        if args.command == "solve":
            return cmd_solve(config, out_dir)
        sweep = {"convergence": cmd_convergence, "data-study": cmd_data_study}
        return sweep[args.command](config, out_dir, threads=args.threads)
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SolverError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
