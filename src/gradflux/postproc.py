"""Error norms, convergence-rate fitting, sign audits and reports.

Scalar fields are measured in L2 and the H1 seminorm, vector fields in
L2 and a broken H(div) norm whose divergence part is evaluated
elementwise (zero for element-constant fields).  Rates are least-squares
slopes of log error against log mesh size over the whole sweep, with
last-pair rates kept alongside to read the asymptotic end of a sweep
whose coarse meshes are still pre-asymptotic.
"""

from dataclasses import dataclass, field

import numpy as np

from .elements import Tabulation, lattice_nodes, quadrature
from .forms import default_quad_exactness

ERROR_COLUMNS = ("u_L2", "u_H1", "lambda_L2", "lambda_H1", "e_L2", "s_L2",
                 "mu_L2", "s_Hdiv", "e_Hdiv", "mu_Hdiv")

_FMT = "%.17g"
AUDIT_TOL = 1e-10      # s . e above this counts as a second-law violation


def error_norms(spaces, solution, case):
    """Per-field error record of a discrete solution against a case.

    ``solution`` maps field names (u, e, s, lam, mu) to coefficient
    vectors.  The norms are integrated with the rule the system was
    assembled with, of degree :func:`default_quad_exactness`.  Returns a
    dict with the ERROR_COLUMNS keys.
    """
    for name in ("u", "e", "s", "lam", "mu"):
        expected = spaces.by_name(name).n_dofs
        if len(solution[name]) != expected:
            raise ValueError(f"field {name!r} has {len(solution[name])} "
                             f"coefficients, space has {expected} dofs")

    tab = Tabulation(spaces.mesh, quadrature(default_quad_exactness(spaces)))
    x, y = tab.xy
    out = {}
    for name, col, exact, exact_grad in (
            ("u", "u", case.u, case.e),
            ("lam", "lambda", case.lam, case.grad_lam)):
        out.update(scalar_error_norms(tab, spaces.by_name(name),
                                      solution[name], exact, exact_grad,
                                      col))

    for name, exact, exact_div in (("e", case.e, case.div_e),
                                   ("s", case.s, case.div_s),
                                   ("mu", case.mu, case.div_mu)):
        space = spaces.by_name(name)
        coeff = solution[name]
        diff = tab.values(space, coeff) - exact(x, y)
        l2sq = np.sum(tab.W * np.sum(diff ** 2, axis=-1))
        ddiff = tab.divergence(space, coeff) - exact_div(x, y)
        divsq = np.sum(tab.W * ddiff ** 2)
        out[f"{name}_L2"] = float(np.sqrt(l2sq))
        out[f"{name}_Hdiv"] = float(np.sqrt(l2sq + divsq))
    return out


def scalar_error_norms(tab, space, coeffs, exact, exact_grad, column):
    """``{column}_L2`` and ``{column}_H1`` errors of one scalar field,
    measured with the quadrature of a :class:`Tabulation`."""
    x, y = tab.xy
    diff = tab.values(space, coeffs) - exact(x, y)
    gdiff = tab.gradient(space, coeffs) - exact_grad(x, y)
    return {f"{column}_L2": float(np.sqrt(np.sum(tab.W * diff ** 2))),
            f"{column}_H1": float(np.sqrt(np.sum(
                tab.W * np.sum(gdiff ** 2, axis=-1))))}


def convergence_rate(hs, errors):
    """Least-squares slope of log(error) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(hs) < 2:
        raise ValueError("rate estimation needs at least two meshes")
    if np.any(np.diff(hs) >= 0.0):
        raise ValueError("mesh sizes must be strictly decreasing")
    if np.any(errors <= 0.0):
        raise ValueError("errors must be positive (a fully resolved field "
                         "has no defined rate)")
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    return float(slope)


def last_pair_rate(hs, errors):
    """Rate from the two finest meshes only."""
    if len(hs) < 2:
        raise ValueError("rate estimation needs at least two meshes")
    h0, h1 = hs[-2], hs[-1]
    e0, e1 = errors[-2], errors[-1]
    if e0 <= 0.0 or e1 <= 0.0:
        raise ValueError("errors must be positive")
    return float(np.log(e1 / e0) / np.log(h1 / h0))


def second_law_values(spaces, solution):
    """s_h . e_h at each node of the gradient space.

    Returns (coordinates, values), one row per node.  Continuous spaces
    are sampled once per global node (a vertex shared by several
    elements is one node, carrying the largest of its element-local
    values); discontinuous spaces keep per-element node locations.
    """
    space = spaces.e
    tab = Tabulation(spaces.mesh, lattice_nodes(space.degree))
    ev = tab.values(space, solution["e"])
    sv = tab.values(spaces.s, solution["s"])
    dots = np.full(space.n_scalar_dofs, -np.inf)
    np.maximum.at(dots, space.dof_map.reshape(-1),
                  np.sum(ev * sv, axis=-1).reshape(-1))
    return space.node_coords, dots


def second_law_audit(spaces, solution):
    """Count nodes where the discrete flux does not oppose its gradient.

    Evaluates s_h . e_h at the nodes of the gradient space (distinct
    global nodes for continuous spaces, per-element node locations for
    discontinuous ones) and reports (number of values above
    AUDIT_TOL, largest value).
    """
    _, dots = second_law_values(spaces, solution)
    worst = float(dots.max()) if dots.size else 0.0
    return int(np.count_nonzero(dots > AUDIT_TOL)), worst


def nodal_error_field(space, coeffs, exact_u):
    """(x, y, u_h - u) rows at the nodes of a continuous scalar space."""
    if space.family != "CG" or space.value_rank != "scalar":
        raise ValueError("nodal error fields require a continuous scalar "
                         "space")
    x, y = space.node_coords[:, 0], space.node_coords[:, 1]
    return np.column_stack([x, y, coeffs - exact_u(x, y)])


def write_nodal_error_csv(rows, path):
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for x, y, v in rows:
            fh.write(f"{float(x)!r},{float(y)!r},{float(v)!r}\n")


# ----------------------------------------------------------------------
# study reports


@dataclass
class StudyReport:
    """Per-mesh error table of one convergence sweep plus fitted rates."""

    case: str
    formulation: str
    rows: list = field(default_factory=list)   # dicts: h, dofs, errors

    def add_row(self, h, dofs, errors):
        """Append one mesh; an error of None marks a column the sweep
        does not measure."""
        if self.rows and h >= self.rows[-1]["h"]:
            raise ValueError("rows must be added with decreasing h")
        row = {"h": float(h), "dofs": int(dofs)}
        for col in ERROR_COLUMNS:
            row[col] = None if errors[col] is None else float(errors[col])
        self.rows.append(row)

    @property
    def hs(self):
        return [r["h"] for r in self.rows]

    def errors(self, column):
        return [r[column] for r in self.rows]

    def rates(self):
        """Least-squares rate per error column (None where undefined)."""
        return self._fit(convergence_rate)

    def last_pair_rates(self):
        return self._fit(last_pair_rate)

    def _fit(self, fit):
        out = {}
        for col in ERROR_COLUMNS:
            errors = self.errors(col)
            try:
                out[col] = None if None in errors else fit(self.hs, errors)
            except ValueError:
                out[col] = None
        return out


def write_report(report, path):
    """CSV: one row per mesh, one footer row with the fitted rates."""
    cols = ("h", "dofs") + ERROR_COLUMNS
    with open(path, "w") as fh:
        fh.write("# case=%s formulation=%s\n" % (report.case,
                                                 report.formulation))
        fh.write(",".join(cols) + "\n")
        for row in report.rows:
            fh.write(",".join(_cell(row[c]) for c in cols) + "\n")
        rates = report.rates()
        cells = ["rate", ""] + [_cell(rates[col]) for col in ERROR_COLUMNS]
        fh.write(",".join(cells) + "\n")


def _cell(value):
    if value is None:
        return ""
    return str(value) if isinstance(value, int) else _FMT % value


# ----------------------------------------------------------------------
# log-log SVG plot


_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def plot_loglog(report, path):
    """Write a standalone SVG with one log-log polyline per error column
    and dashed reference triangles for slopes 1, 2 and 3."""
    width, height = 760, 560
    hs = np.asarray(report.hs, dtype=float)
    columns = [c for c in ERROR_COLUMNS
               if all(r[c] is not None and r[c] > 0.0 for r in report.rows)]
    values = {c: np.asarray(report.errors(c)) for c in columns}
    if not len(hs) or not columns:
        with open(path, "w") as fh:
            fh.write('<svg xmlns="http://www.w3.org/2000/svg" '
                     f'width="{width}" height="{height}"></svg>\n')
        return

    margin = 60
    all_err = np.concatenate([values[c] for c in columns])
    lx0, lx1 = np.log10(hs.min()), np.log10(hs.max())
    ly0, ly1 = np.log10(all_err.min()), np.log10(all_err.max())
    lx0 -= 0.05 * (lx1 - lx0 + 1e-9)
    lx1 += 0.05 * (lx1 - lx0)
    ly0 -= 0.08 * (ly1 - ly0 + 1e-9)
    ly1 += 0.08 * (ly1 - ly0 + 1e-9)

    def sx(logx):
        return margin + (logx - lx0) / (lx1 - lx0) * (width - 2 * margin)

    def sy(logy):
        return height - margin - (logy - ly0) / (ly1 - ly0) \
            * (height - 2 * margin)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" font-family="sans-serif" font-size="11">']
    parts.append(
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#333"/>')
    parts.append(
        f'<text x="{width / 2:.1f}" y="{height - 12}" '
        f'text-anchor="middle">mesh size h (log)</text>')
    parts.append(
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {height / 2:.1f})">error (log)</text>')
    parts.append(
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle">'
        f'{report.case} / {report.formulation}</text>')

    for k, col in enumerate(columns):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{sx(np.log10(h)):.2f},{sy(np.log10(v)):.2f}"
                       for h, v in zip(hs, values[col]))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        for h, v in zip(hs, values[col]):
            parts.append(f'<circle cx="{sx(np.log10(h)):.2f}" '
                         f'cy="{sy(np.log10(v)):.2f}" r="2.5" '
                         f'fill="{color}"/>')
        ly = 40 + 14 * k
        parts.append(f'<line x1="{width - margin - 130}" y1="{ly}" '
                     f'x2="{width - margin - 110}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{width - margin - 104}" y="{ly + 4}">'
                     f'{col}</text>')

    # reference-slope triangles anchored at the coarse end
    base_lx = lx0 + 0.12 * (lx1 - lx0)
    tri_dx = 0.14 * (lx1 - lx0)
    for order in (1, 2, 3):
        base_ly = ly0 + (0.12 + 0.14 * (order - 1)) * (ly1 - ly0)
        x0p, y0p = sx(base_lx), sy(base_ly)
        x1p, y1p = sx(base_lx + tri_dx), sy(base_ly + order * tri_dx)
        parts.append(
            f'<polyline points="{x0p:.1f},{y0p:.1f} {x1p:.1f},{y0p:.1f} '
            f'{x1p:.1f},{y1p:.1f} {x0p:.1f},{y0p:.1f}" fill="none" '
            f'stroke="#555" stroke-dasharray="4 3"/>')
        parts.append(f'<text x="{x1p + 4:.1f}" y="{(y0p + y1p) / 2:.1f}" '
                     f'fill="#555">{order}</text>')

    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
