"""Agreement of two source trees on a fixed grid of small problems.

    PYTHONPATH=<tree>/src python tools/agree.py dump <tree>.npz
    python tools/agree.py compare parent.npz change.npz

``dump`` runs the gradflux found on the import path over the four
formulations at k = 0, 1, 2 on three problems: ``unit_square_mesh(4)``
with case 1, the same mesh with case 3 and data sampled at nd = 4, and
``sector_mesh(pi/2, 3, grading=2)`` with case 2.  Each cell stores the
assembled and the Dirichlet-eliminated five-field matrix (CSR arrays)
and load, under ``schur`` the system ``solve_case`` hands to
``solve_direct`` (for ``natural`` the one over u and lambda of
``assemble_natural``, the Schur complement in e, s and mu), the
solution ``solve_case`` returns (all fields, concatenated), its error
row (``ERROR_COLUMNS`` order) and its second-law audit: the violation
count and all the s . e values it counts.  The audit's worst value is
the largest of these; it is compared within them, so that a worst value
at roundoff level is measured against the largest |s . e|.  ``dump``
also runs ``gradflux solve`` and ``gradflux convergence`` with the
default config and stores the numbers of each CSV and TXT file they
write, in file order, as one float array (an empty cell reads NaN),
under ``cli/default/<command>/<file>``.  Last, it stores the meshes
themselves, under ``mesh/arrays/<mesh>/<array>``: the problems' square
and sector meshes and ``unit_square_mesh(n)`` for n = 8, 16, 32 (the
default config) and 47 (the finest of the data-study workload), each as
the arrays ``MESH_ARRAYS`` names and its tags as indices into
``BOUNDARY_TAGS``.

``compare`` prints, for each formulation and quantity, "bitwise" or the
largest relative difference over the problems and orders (max |a - b|
over max |a|, and the cell where it occurs), and exits 1 when a
difference exceeds RTOL, an index array or a shape differs, or a cell is
missing on one side.  Under a failing CSR index array it also prints,
over the cells where that array differs, the entries stored on one side
only (their count and largest |value|) and the largest relative
difference of the two matrices taken densely, which tells a change of
storage (explicit zeros, "largest 0.0; dense 0") from one of structure.
"""

import argparse
import contextlib
import io
import os
import sys
import tempfile

import numpy as np

# gradflux is imported inside the functions that run it, from whichever
# tree is on the import path; `compare` needs numpy alone.
RTOL = 1e-9
KINDS = ("natural", "eo_unstab", "eo_min", "eo_full")
ORDERS = (0, 1, 2)
MESH_ARRAYS = ("vertices", "triangles", "boundary_edges", "jacobians",
               "jacobian_dets", "diameters", "centroids", "edges",
               "triangle_edges")


def problems():
    """(label, mesh, case, dataset) of the three problems."""
    from gradflux.data_assign import build_dataset
    from gradflux.manufactured import case1, case2, case3
    from gradflux.mesh import sector_mesh, unit_square_mesh

    square = unit_square_mesh(4)
    sampled = case3()
    return [
        ("square-case1", square, case1(), None),
        ("square-case3-nd4", square, sampled,
         build_dataset(4, sampled.e, sampled.s)),
        ("sector-case2", sector_mesh(np.pi / 2, 3, grading=2.0),
         case2(np.pi / 2), None),
    ]


def meshes():
    """(label, mesh) of every mesh whose arrays are dumped."""
    from gradflux.mesh import sector_mesh, unit_square_mesh

    out = [("sector-3", sector_mesh(np.pi / 2, 3, grading=2.0))]
    return out + [(f"square-{n}", unit_square_mesh(n))
                  for n in (4, 8, 16, 32, 47)]


def mesh_arrays(mesh):
    """{name: array} of one mesh; ``tags`` indexes ``BOUNDARY_TAGS``."""
    from gradflux.mesh import BOUNDARY_TAGS

    out = {name: np.asarray(getattr(mesh, name)) for name in MESH_ARRAYS}
    out["tags"] = np.array([BOUNDARY_TAGS.index(tag)
                            for tag in mesh.boundary_tags], dtype=np.int64)
    return out


def _csr(prefix, matrix, rhs):
    return {f"{prefix}.indptr": matrix.indptr,
            f"{prefix}.indices": matrix.indices,
            f"{prefix}.data": matrix.data,
            f"{prefix}.load": np.asarray(rhs, dtype=float)}


def cell(mesh, kind, k, case, dataset):
    """Every stored quantity of one formulation and order on one problem."""
    from gradflux.forms import (Formulation, apply_dirichlet, assemble,
                                assemble_natural)
    from gradflux.postproc import ERROR_COLUMNS, second_law_values
    from gradflux.study import problem_data_for, solve_case

    formulation = Formulation(kind, k)
    data = problem_data_for(case, mesh, dataset)
    system = assemble(mesh, formulation, data)
    constrained = apply_dirichlet(system, data)
    solved = constrained
    if kind == "natural":
        solved = apply_dirichlet(
            assemble_natural(mesh, formulation, data)[0], data)
    res = solve_case(mesh, formulation, case, dataset=dataset)
    out = {}
    out.update(_csr("assembled", system.matrix, system.rhs))
    out.update(_csr("eliminated", constrained.matrix, constrained.rhs))
    out.update(_csr("schur", solved.matrix, solved.rhs))
    out["solution"] = np.concatenate(list(res.solution.values()))
    out["errors"] = np.array([res.errors[c] for c in ERROR_COLUMNS],
                             dtype=float)
    out["audit.count"] = np.array([res.audit[0]])
    out["audit.values"] = second_law_values(res.spaces, res.solution)[1]
    return out


def numbers(path):
    """Every number in a CSV or whitespace-separated TXT output, in file
    order; an empty CSV cell reads NaN, words and comment lines are
    skipped."""
    values = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            cells = line.rstrip("\n").split(",") if path.endswith(".csv") \
                else line.split()
            for cell in cells:
                try:
                    values.append(float(cell) if cell else np.nan)
                except ValueError:
                    pass
    return np.array(values)


def cli_outputs():
    """{command/file: numbers} of the default-config CLI runs."""
    from gradflux.cli import main

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command in ("solve", "convergence"):
            run_dir = os.path.join(tmp, command)
            with contextlib.redirect_stdout(io.StringIO()):
                if main([command, "--out", run_dir]) != 0:
                    raise RuntimeError(f"gradflux {command} failed")
            for name in sorted(os.listdir(run_dir)):
                if name.endswith((".csv", ".txt")):
                    out[f"{command}/{name}"] = numbers(
                        os.path.join(run_dir, name))
    return out


def dump(path):
    import gradflux

    arrays = {}
    for label, mesh, case, dataset in problems():
        for kind in KINDS:
            for k in ORDERS:
                for name, arr in cell(mesh, kind, k, case, dataset).items():
                    arrays[f"{label}/{kind}/k{k}/{name}"] = arr
    for name, arr in cli_outputs().items():
        arrays[f"cli/default/{name}"] = arr
    for label, mesh in meshes():
        for name, arr in mesh_arrays(mesh).items():
            arrays[f"mesh/arrays/{label}/{name}"] = arr
    np.savez(path, **arrays)
    print(f"{len(arrays)} arrays from {gradflux.__file__} -> {path}")
    return 0


def difference(a, b):
    """0.0 for bitwise equal arrays, else the relative difference; inf
    when the two cannot be compared entry by entry."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return np.inf
    if a.tobytes() == b.tobytes():
        return 0.0
    if a.dtype.kind != "f" or not np.array_equal(np.isnan(a), np.isnan(b)):
        return np.inf
    ok = ~np.isnan(a)
    scale = max(float(np.max(np.abs(a[ok]), initial=0.0)),
                np.finfo(float).tiny)
    return float(np.max(np.abs(a[ok] - b[ok]))) / scale


def entries(indptr, indices, data, n):
    """Sorted keys row * n + column of a CSR matrix's stored entries, and
    their values, duplicates summed."""
    rows = np.repeat(np.arange(len(indptr) - 1, dtype=np.int64),
                     np.diff(indptr))
    keys, slot = np.unique(rows * n + indices, return_inverse=True)
    return keys, np.bincount(slot, weights=data, minlength=len(keys))


def storage_note(parent, change, matrices):
    """One line over the CSR matrices ``matrices`` names on both sides:
    the entries stored on one side only (count and largest |value|) and
    the largest relative difference of the matrices taken densely."""
    only = {"parent": [0, 0.0], "change": [0, 0.0]}
    dense = 0.0
    for matrix in matrices:
        csr = [[side[f"{matrix}.{name}"]
                for name in ("indptr", "indices", "data")]
               for side in (parent, change)]
        n = max(len(csr[0][0]), len(csr[1][0]))
        sides = [entries(*arrays, n) for arrays in csr]
        keys = np.union1d(sides[0][0], sides[1][0])
        full = []
        for tally, (k, v), (other, _) in zip(only.values(), sides,
                                             sides[::-1]):
            alone = np.abs(v[~np.isin(k, other)])
            tally[0] += len(alone)
            tally[1] = max(tally[1], float(np.max(alone, initial=0.0)))
            full.append(np.zeros(len(keys)))
            full[-1][np.searchsorted(keys, k)] = v
        dense = max(dense, difference(*full))
    facts = [f"stored only in {side}: {count}, largest {largest:.3}"
             for side, (count, largest) in only.items() if count]
    facts.append("dense 0" if dense == 0.0 else f"dense {dense:.2e}")
    return f"{len(matrices)} cell(s): " + "; ".join(facts)


def compare(parent_path, change_path, out=sys.stdout):
    with np.load(parent_path) as pa, np.load(change_path) as ch:
        parent = {key: pa[key] for key in pa.files}
        change = {key: ch[key] for key in ch.files}
    failed = False
    for key in sorted(parent.keys() ^ change.keys()):
        side = "change" if key in parent else "parent"
        print(f"FAIL {key}: missing from the {side}", file=out)
        failed = True

    worst = {}                 # (kind, quantity) -> (difference, cell)
    differing = {}             # (kind, CSR index array) -> matrix keys
    for key in sorted(parent.keys() & change.keys()):
        label, kind, order, quantity = key.split("/")
        diff = difference(parent[key], change[key])
        if (kind, quantity) not in worst or diff > worst[kind, quantity][0]:
            worst[kind, quantity] = (diff, f"{label} {order}")
        matrix, _, name = key.rpartition(".")
        if name in ("indptr", "indices") and not diff <= RTOL and all(
                f"{matrix}.{array}" in side for side in (parent, change)
                for array in ("indptr", "indices", "data")):
            differing.setdefault((kind, quantity), set()).add(matrix)
    for (kind, quantity), (diff, where) in sorted(worst.items()):
        verdict = "bitwise" if diff == 0.0 else f"{diff:.2e} at {where}"
        bad = not diff <= RTOL
        failed |= bad
        print(f"{'FAIL' if bad else 'ok  '} {kind:10s} {quantity:20s} "
              f"{verdict}", file=out)
        if (kind, quantity) in differing:
            note = storage_note(parent, change, differing[kind, quantity])
            print(f"       {note}", file=out)
    print(f"{'FAILED' if failed else 'agree'}: tolerance {RTOL:.0e} "
          f"relative", file=out)
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("dump").add_argument("path")
    cmp = sub.add_parser("compare")
    cmp.add_argument("parent")
    cmp.add_argument("change")
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.path)
    return compare(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
