import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

TOOL = Path(__file__).resolve().parents[1] / "tools" / "agree.py"
spec = importlib.util.spec_from_file_location("agree", TOOL)
agree = importlib.util.module_from_spec(spec)
spec.loader.exec_module(agree)

SOLUTION = "square-case1/eo_full/k1/solution"


@pytest.fixture(scope="module")
def dumped(tmp_path_factory):
    path = tmp_path_factory.mktemp("agree") / "tree.npz"
    assert agree.dump(str(path)) == 0
    with np.load(path) as npz:
        arrays = {key: npz[key] for key in npz.files}
    return path, arrays


def compare_with(dumped, tmp_path, arrays):
    path = tmp_path / "change.npz"
    np.savez(path, **arrays)
    out = io.StringIO()
    rc = agree.compare(str(dumped[0]), str(path), out=out)
    return rc, out.getvalue().splitlines()


def test_a_dump_agrees_with_itself_bitwise(dumped):
    _, arrays = dumped
    # 3 problems x 4 formulations x 3 orders, 16 arrays each, the CLI's
    # 9 CSV and TXT files (8 of `solve`, 1 of `convergence`) and 10
    # arrays of each of 6 meshes
    cli = sorted(key for key in arrays if key.startswith("cli/"))
    assert len(cli) == 9
    assert "cli/default/solve/field_u.csv" in cli
    assert "cli/default/convergence/report.csv" in cli
    mesh = sorted(key for key in arrays if key.startswith("mesh/"))
    assert len(mesh) == 6 * 10
    assert arrays["mesh/arrays/square-47/triangles"].shape == (2 * 47 ** 2, 3)
    assert set(arrays["mesh/arrays/sector-3/tags"]) == {4, 5, 6}
    assert len(arrays) == 3 * 4 * 3 * 16 + 9 + 6 * 10
    out = io.StringIO()
    assert agree.compare(str(dumped[0]), str(dumped[0]), out=out) == 0
    lines = out.getvalue().splitlines()
    # the two report.csv files share one line, and each mesh array one
    # line over the meshes
    assert len(lines) == 4 * 16 + 8 + 10 + 1
    assert all(line.endswith("bitwise") for line in lines[:-1])


@pytest.mark.parametrize("rel, rc", [(1e-12, 0), (1e-6, 1)])
def test_a_doctored_solution_is_measured(dumped, tmp_path, rel, rc):
    arrays = dict(dumped[1])
    doctored = arrays[SOLUTION].copy()
    doctored[7] += rel * np.abs(doctored).max()
    arrays[SOLUTION] = doctored
    got, lines = compare_with(dumped, tmp_path, arrays)
    assert got == rc
    line = next(line for line in lines if " solution " in line
                and " eo_full " in line)
    assert line.startswith("FAIL" if rc else "ok")
    assert line.endswith("at square-case1 k1")
    assert float(line.split()[3]) == pytest.approx(rel, rel=1e-3)
    assert sum(not line.endswith("bitwise") for line in lines) == 2


def test_a_changed_index_array_or_a_missing_cell_fails(dumped, tmp_path):
    arrays = dict(dumped[1])
    indices = arrays["sector-case2/natural/k0/schur.indices"].copy()
    indices[[0, 1]] = indices[[1, 0]]
    arrays["sector-case2/natural/k0/schur.indices"] = indices
    del arrays["square-case3-nd4/eo_min/k2/errors"]
    rc, lines = compare_with(dumped, tmp_path, arrays)
    assert rc == 1
    assert "FAIL square-case3-nd4/eo_min/k2/errors: missing from the " \
        "change" in lines
    assert any(line.startswith("FAIL natural") and "schur.indices" in line
               and line.endswith("inf at sector-case2 k0") for line in lines)


def test_a_doctored_cli_output_fails(dumped, tmp_path):
    arrays = dict(dumped[1])
    report = arrays["cli/default/solve/report.csv"]
    # one row of h, dofs and ten errors, then the rate footer: no rate is
    # defined on one mesh, so "rate" is skipped and the 11 cells read NaN
    assert report.shape == (23,)
    assert not np.isnan(report[:12]).any() and np.isnan(report[12:]).all()
    audit = arrays["cli/default/solve/second_law_audit.txt"].copy()
    audit[1] *= 1.0 + 1e-6
    arrays["cli/default/solve/second_law_audit.txt"] = audit
    rc, lines = compare_with(dumped, tmp_path, arrays)
    assert rc == 1
    assert any(line.startswith("FAIL default") and "second_law_audit.txt"
               in line and line.endswith("at cli solve") for line in lines)


def test_a_doctored_triangle_fails(dumped, tmp_path):
    arrays = dict(dumped[1])
    triangles = arrays["mesh/arrays/square-16/triangles"].copy()
    triangles[5, [1, 2]] = triangles[5, [2, 1]]
    arrays["mesh/arrays/square-16/triangles"] = triangles
    rc, lines = compare_with(dumped, tmp_path, arrays)
    assert rc == 1
    assert [line for line in lines if not line.endswith("bitwise")] == [
        "FAIL arrays     triangles            inf at mesh square-16",
        "FAILED: tolerance 1e-09 relative"]


@pytest.mark.parametrize("value", [0.0, 0.5])
def test_entries_stored_on_one_side_only_are_reported(dumped, tmp_path,
                                                      value):
    # three entries added to the first row of one assembled matrix:
    # explicit zeros change its storage alone, a non-zero its values
    arrays = dict(dumped[1])
    matrix = "square-case1/eo_full/k1/assembled"
    indptr, indices, data = (arrays[f"{matrix}.{name}"]
                             for name in ("indptr", "indices", "data"))
    n = len(indptr) - 1
    added = np.setdiff1d(np.arange(n), indices[:indptr[1]])[:3]
    doctored = sp.coo_matrix(
        (np.concatenate([data, np.full(3, value)]),
         (np.concatenate([np.repeat(np.arange(n), np.diff(indptr)),
                          np.zeros(3, dtype=int)]),
          np.concatenate([indices, added]))), shape=(n, n)).tocsr()
    assert doctored.nnz == len(data) + 3
    arrays[f"{matrix}.indptr"] = doctored.indptr.astype(indptr.dtype)
    arrays[f"{matrix}.indices"] = doctored.indices.astype(indices.dtype)
    arrays[f"{matrix}.data"] = doctored.data
    rc, lines = compare_with(dumped, tmp_path, arrays)
    assert rc == 1
    dense = "0" if value == 0.0 else \
        f"{value / np.abs(data).max():.2e}"
    note = (f"       1 cell(s): stored only in change: 3, largest "
            f"{value:.3}; dense {dense}")
    assert [line for line in lines if not line.endswith("bitwise")] == [
        f"FAIL {'eo_full':10s} {'assembled.data':20s} inf at square-case1 k1",
        f"FAIL {'eo_full':10s} {'assembled.indices':20s} inf at "
        "square-case1 k1", note,
        f"FAIL {'eo_full':10s} {'assembled.indptr':20s} inf at "
        "square-case1 k1", note,
        "FAILED: tolerance 1e-09 relative"]
