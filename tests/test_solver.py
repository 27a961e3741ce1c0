import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gradflux import solver
from gradflux.data_assign import build_dataset
from gradflux.forms import (FIELD_NAMES, FORMULATION_KINDS, Formulation,
                            StabilizationParams, apply_dirichlet, assemble,
                            assemble_natural)
from gradflux.manufactured import case1, case2, case3
from gradflux.mesh import sector_mesh, unit_square_mesh
from gradflux.solver import (SingularSystemError, SolverError,
                             matrix_digest, solve_direct)
from gradflux.study import problem_data_for, solve_case


EMPTY_SLOT = {"key": None, "nnz": 0, "lu": None}
F32, F64 = np.float32, np.float64     # the float32 factor and the guard


@pytest.fixture(autouse=True)
def slot(monkeypatch):
    """A fresh slot for the largest matrix in every test."""
    fresh = dict(EMPTY_SLOT)
    monkeypatch.setattr(solver, "_LARGEST", fresh)
    return fresh


def recorded(monkeypatch, entry):
    """Every fresh factorization's entry(factor), in call order."""
    calls = []
    fresh = solver._factorize

    def recording(mat, dtype=np.float32):
        lu = fresh(mat, dtype)
        calls.append(entry(lu))
        return lu

    monkeypatch.setattr(solver, "_factorize", recording)
    return calls


@pytest.fixture
def factorizations(monkeypatch):
    """Factor nnz of every fresh factorization, in call order."""
    return recorded(monkeypatch, lambda lu: lu.nnz)


@pytest.fixture
def rungs(monkeypatch):
    """dtype of every fresh factorization, in call order."""
    return recorded(monkeypatch, lambda lu: lu.dtype)


def constrained_system(case, kind, k, n):
    mesh = unit_square_mesh(n)
    data = problem_data_for(case, mesh)
    return apply_dirichlet(assemble(mesh, Formulation(kind, k), data), data)


def residual(matrix, x, rhs):
    return float(np.linalg.norm(matrix @ x - rhs))


def dominant_matrix(n, seed):
    rng = np.random.default_rng(seed)
    mat = sp.random(n, n, density=0.05, random_state=rng, format="lil")
    mat.setdiag(8.0 + rng.random(n))
    return mat.tocsr()


def test_identity_solve():
    b = np.array([3.0, -1.0, 2.5])
    x = solve_direct(sp.identity(3, format="csr"), b)
    assert np.allclose(x, b)


def test_diagonal_solve():
    mat = sp.diags([2.0, 4.0]).tocsr()
    x = solve_direct(mat, np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0])


def test_random_sparse_system_meets_residual_contract():
    rng = np.random.default_rng(12)
    n = 200
    density = 0.03
    mat = sp.random(n, n, density=density, random_state=rng,
                    format="lil")
    mat.setdiag(10.0 + rng.random(n))   # diagonally dominant
    mat = mat.tocsr()
    b = rng.standard_normal(n)
    x = solve_direct(mat, b)
    assert residual(mat, x, b) <= 1e-10 * np.linalg.norm(b)


def test_residual_dimension_mismatch():
    mat = sp.identity(3, format="csr")
    for rhs in (np.zeros(4), np.zeros(2), np.zeros((3, 2))):
        with pytest.raises(ValueError, match=r"rhs shape \(.*\) does not "
                           "match matrix dimension 3"):
            solve_direct(mat, rhs)


def test_singular_matrix_raises():
    mat = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularSystemError):
        solve_direct(mat, np.array([1.0, 1.0]))


def test_non_square_rejected():
    mat = sp.csr_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        solve_direct(mat, np.zeros(2))


def test_permutation_invariance():
    rng = np.random.default_rng(14)
    n = 120
    mat = sp.random(n, n, density=0.05, random_state=rng, format="lil")
    mat.setdiag(8.0 + rng.random(n))
    mat = mat.tocsr()
    b = rng.standard_normal(n)
    x = solve_direct(mat, b)

    perm = rng.permutation(n)
    p = sp.csr_matrix((np.ones(n), (np.arange(n), perm)), shape=(n, n))
    mat_p = p @ mat @ p.T
    x_p = solve_direct(mat_p, p @ b)
    assert np.linalg.norm(p.T @ x_p - x) <= 1e-9 * np.linalg.norm(x)


# ----------------------------------------------------------------------
# factor reuse


def diagonal_matrix(n, shift=0.0):
    """A diagonal matrix whose factor stores 2 n entries."""
    return sp.diags(np.arange(1.0, n + 1) + shift).tocsr()


def test_hit_returns_the_fresh_solution_bitwise(slot, factorizations):
    system = constrained_system(case3(), "eo_full", 0, 4)
    rhs = np.random.default_rng(20).standard_normal(system.n_dofs)
    solve_direct(system.matrix, system.rhs)
    assert slot["lu"] is None                    # first sight: not held
    solve_direct(system.matrix, system.rhs)      # comes back: held
    assert slot["lu"] is not None and len(factorizations) == 2
    x_hit = solve_direct(system.matrix, rhs)
    assert len(factorizations) == 2
    lu = solver._factorize(system.matrix)
    x_fresh = solver._refined_solve(lu, system.matrix, rhs)
    assert np.array_equal(x_hit, x_fresh)


def test_changed_value_or_explicit_zero_is_a_miss(slot, factorizations):
    mat = dominant_matrix(60, 21)
    rhs = np.ones(60)
    for _ in range(3):
        solve_direct(mat, rhs)
    assert len(factorizations) == 2 and slot["lu"] is not None

    nudged = mat.copy()
    nudged.data[7] = np.nextafter(nudged.data[7], np.inf)
    # one explicit zero more, at a position the pattern does not store
    row = 3
    lo, hi = mat.indptr[row], mat.indptr[row + 1]
    col = next(c for c in range(60) if c not in mat.indices[lo:hi])
    padded = sp.csr_matrix((np.insert(mat.data, lo, 0.0),
                            np.insert(mat.indices, lo, col),
                            mat.indptr + (np.arange(61) > row)),
                           shape=mat.shape)
    padded.sort_indices()
    assert abs(padded - mat).max() == 0.0 and padded.nnz == mat.nnz + 1
    for other in (nudged, padded):
        assert matrix_digest(other) != matrix_digest(mat)
        before = len(factorizations)
        x = solve_direct(other, rhs)
        assert len(factorizations) == before + 1
        assert residual(other, x, rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_data_study_cycle_holds_what_fits_the_bound(slot, factorizations):
    # four data sets, each swept over the same three meshes: only the
    # data (the right-hand side) change
    systems = [constrained_system(case3(), "eo_full", 0, n)
               for n in (3, 6, 12)]
    rng = np.random.default_rng(22)
    loads = [rng.standard_normal(systems[-1].n_dofs) for _ in range(4)]
    for load in loads:
        for system in systems:
            rhs = load[:system.n_dofs]
            x = solve_direct(system.matrix, rhs)
            assert residual(system.matrix, x, rhs) \
                <= 1e-10 * np.linalg.norm(rhs)
    largest = matrix_digest(solver._canonical_csr(systems[-1].matrix))
    assert slot["key"] == largest
    assert slot["lu"].nnz == slot["nnz"] == max(factorizations)
    # the finest matrix was factorized twice, the two others every time
    assert len(factorizations) == 4 * 2 + 2


def test_held_nnz_never_exceeds_the_largest_factor(slot, factorizations):
    matrices = [dominant_matrix(n, seed)
                for seed, n in enumerate((40, 80, 120, 160, 200, 30))]
    rng = np.random.default_rng(23)
    hits = 0
    for i in rng.integers(0, len(matrices), size=120):
        before = len(factorizations)
        solve_direct(matrices[i], np.ones(matrices[i].shape[0]))
        hits += len(factorizations) == before
        assert slot["nnz"] == max(factorizations)
        assert slot["lu"] is None or slot["lu"].nnz == slot["nnz"]
    assert hits > 0 and len(factorizations) == 120 - hits


def test_the_largest_matrix_is_held_from_its_second_solve_on(
        slot, factorizations):
    largest, smaller = diagonal_matrix(100), (diagonal_matrix(60),
                                             diagonal_matrix(50))
    solve_direct(largest, np.ones(100))
    assert slot["nnz"] == 200 and slot["lu"] is None    # first sight
    solve_direct(largest, np.ones(100))                 # second solve
    held = slot["lu"]
    assert held is not None and held.nnz == 200
    # smaller solves, with more than twice its factor entries between
    # them, drop nothing; the largest comes back to its held factor
    for mat in (*smaller, *smaller, largest):
        solve_direct(mat, np.ones(mat.shape[0]))
        assert slot["lu"] is held
    assert factorizations == [200, 200, 120, 100, 120, 100]
    # a matrix with a factor as large takes the slot, not yet held
    other = diagonal_matrix(100, 0.5)
    solve_direct(other, np.ones(100))
    assert slot["key"] == matrix_digest(other)
    assert slot["lu"] is None and slot["nnz"] == 200
    solve_direct(largest, np.ones(100))
    assert factorizations == [200, 200, 120, 100, 120, 100, 200, 200]
    assert slot["lu"] is None


class Corrupted:
    """A factor that returns a wrong solution."""

    def __init__(self, lu):
        self._lu = lu

    def __getattr__(self, name):            # nnz, dtype
        return getattr(self._lu, name)

    def solve(self, rhs):
        return 2.0 * self._lu.solve(rhs)


def test_corrupted_factor_is_refactorized(slot, factorizations,
                                         monkeypatch, rungs):
    mat = dominant_matrix(80, 24)
    rhs = np.random.default_rng(25).standard_normal(80)
    solve_direct(mat, rhs)
    solve_direct(mat, rhs)
    monkeypatch.setitem(slot, "lu", Corrupted(slot["lu"]))
    assert len(factorizations) == 2
    x = solve_direct(mat, rhs)
    assert len(factorizations) == 3
    assert residual(mat, x, rhs) <= 1e-10 * np.linalg.norm(rhs)
    assert slot["lu"] is not None and not isinstance(slot["lu"], Corrupted)
    solve_direct(mat, rhs)
    assert len(factorizations) == 3
    # the held float32 factor's miss went on to the guard
    assert rungs == [F32, F32, F64]
    x_good = solver._refined_solve(solver._factorize(mat, np.float64),
                                   mat, rhs)
    assert np.array_equal(x, x_good)


def growth_matrix(n, d):
    """Lower bidiagonal (d on the diagonal, -1 below it) with a last
    column of ones.  At a pivot threshold of 0.01 every diagonal entry
    d >= 0.01 stays the pivot and the last column grows by 1/d a step,
    as in Wilkinson's example; full partial pivoting swaps each step
    and the factor stays of size 1."""
    mat = sp.diags([np.full(n, d), np.full(n - 1, -1.0)], [0, -1],
                   format="lil")
    mat[:, n - 1] = 1.0
    return mat.tocsr()


def test_factor_missing_the_contract_is_remade_with_full_pivoting(
        slot, monkeypatch, rungs):
    mat = growth_matrix(30, 0.02)
    rhs = np.random.default_rng(26).standard_normal(30)
    with pytest.raises(SolverError):
        solver._refined_solve(solver._factorize(mat, F32), mat, rhs)
    assert rungs == [F32]
    rungs.clear()
    x = solve_direct(mat, rhs)
    assert residual(mat, x, rhs) <= 1e-10 * np.linalg.norm(rhs)
    assert rungs == [F32, F64]
    solve_direct(mat, rhs)                       # comes back: held
    assert rungs == [F32, F64] * 2
    # a held guard factor that misses the contract is made again
    monkeypatch.setitem(slot, "lu", Corrupted(slot["lu"]))
    x = solve_direct(mat, rhs)
    assert rungs == [F32, F64] * 2 + [F64]
    assert residual(mat, x, rhs) <= 1e-10 * np.linalg.norm(rhs)
    solve_direct(mat, rhs)
    assert len(rungs) == 5


def test_pivot_threshold_keeps_the_fill_below_full_pivoting():
    system = constrained_system(case1(), "eo_full", 1, 8)
    full_pivoting = spla.splu(system.matrix.tocsc())
    assert solver._factorize(system.matrix).nnz < full_pivoting.nnz


def test_singular_matrix_is_never_cached(slot):
    mat = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    for _ in range(3):
        with pytest.raises(SingularSystemError):
            solve_direct(mat, np.array([1.0, 1.0]))
    assert slot == EMPTY_SLOT


def test_concurrent_solves_keep_the_books(slot):
    matrices = [dominant_matrix(n, 30 + n) for n in (50, 90, 130, 170)]
    rhs = [np.random.default_rng(n).standard_normal(n)
           for n in (50, 90, 130, 170)]
    factors = [solver._factorize(m) for m in matrices]
    expected = [solver._refined_solve(lu, m, b)
                for lu, m, b in zip(factors, matrices, rhs)]
    largest = max(lu.nnz for lu in factors)
    errors = []
    lock = threading.Lock()

    def work(seed):
        order = np.random.default_rng(seed).integers(0, 4, size=40)
        for i in order:
            x = solve_direct(matrices[i], rhs[i])
            if not np.array_equal(x, expected[i]):
                with lock:
                    errors.append(i)
            lu = slot["lu"]
            if lu is not None and lu.nnz > largest:
                with lock:
                    errors.append(("held", lu.nnz))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(work, seed) for seed in range(6)]
            for future in futures:
                future.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert slot["key"] == matrix_digest(matrices[-1])
    assert slot["nnz"] == largest
    assert slot["lu"] is None or slot["lu"].nnz == largest


# ----------------------------------------------------------------------
# float32 refined in float64, then the guard: float64, full pivoting


def float64_solution(matrix, rhs):
    mat = solver._canonical_csr(matrix)
    return solver._refined_solve(solver._factorize(mat, np.float64), mat,
                                 rhs)


def test_a_workload_system_is_solved_on_the_float32_rung(rungs):
    system = constrained_system(case1(), "eo_full", 1, 8)
    x = solve_direct(system.matrix, system.rhs)
    assert rungs == [F32]
    expected = float64_solution(system.matrix, system.rhs)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


def test_a_float32_solve_may_take_up_to_thirty_steps(monkeypatch, rungs):
    # three blocks [[1, 1], [1, 1 + d]] with d 1.3 float32 ulps of 1:
    # the float32 factor stores 1 + d as 1 + 1 ulp, so each refinement
    # step shrinks the error along the near-null vectors only to 0.3
    d = 1.3 * 2.0 ** -23
    mat = sp.block_diag([[[1.0, 1.0], [1.0, 1.0 + d]]] * 3, format="csr")
    rhs = mat @ np.random.default_rng(28).standard_normal(6)
    solves = []
    factor_solve = solver._Factor.solve

    def counted(lu, r):
        solves.append(r)
        return factor_solve(lu, r)

    monkeypatch.setattr(solver._Factor, "solve", counted)
    x = solve_direct(mat, rhs)
    assert rungs == [F32]
    assert 10 < len(solves) - 1 <= 30            # refinement steps
    # dsgesv's backward-error test; the condition number, about 3e7,
    # bounds the forward error of any float64 solve to about 3e-9
    norm_a = abs(mat).sum(axis=1).max()
    assert np.abs(rhs - mat @ x).max() <= \
        np.sqrt(6) * 2.0 ** -53 * norm_a * np.abs(x).max()
    assert residual(mat, x, rhs) <= 1e-10 * np.linalg.norm(rhs)


@pytest.mark.parametrize("mat_scale, rhs_scale, climbed", [
    (1e39, 1e39, [F64]),          # a matrix beyond float32's range
    (1e-30, 1e-30, [F32]),
    (1.0, 1e39, [F32]),           # loads beyond float32's range
    (1.0, 1e-40, [F32])])
def test_the_float32_rung_takes_what_fits_its_range(rungs, mat_scale,
                                                    rhs_scale, climbed):
    system = constrained_system(case1(), "eo_full", 1, 8)
    mat, rhs = mat_scale * system.matrix, rhs_scale * system.rhs
    x = solve_direct(mat, rhs)
    assert rungs == climbed
    assert residual(mat, x, rhs) <= 1e-10 * np.linalg.norm(rhs)
    expected = (rhs_scale / mat_scale) * float64_solution(system.matrix,
                                                          system.rhs)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


def contract_problem(mesh_name, kind, k):
    """The constrained system solve_case hands to solve_direct."""
    if mesh_name == "square":
        mesh, case = unit_square_mesh(4), case1(kappa=1.3, zeta=0.7)
    else:
        mesh, case = sector_mesh(np.pi / 2, 3, grading=2.0), case2(np.pi / 2)
    data = problem_data_for(case, mesh)
    formulation = Formulation(kind, k)
    system = (assemble_natural(mesh, formulation, data)[0]
              if kind == "natural" else assemble(mesh, formulation, data))
    return apply_dirichlet(system, data)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("kind", FORMULATION_KINDS)
@pytest.mark.parametrize("mesh_name", ["square", "sector"])
def test_every_formulation_meets_the_contract(mesh_name, kind, k):
    # and agrees with the float64 factor's x within tools/agree.py's 1e-9
    system = contract_problem(mesh_name, kind, k)
    x = solve_direct(system.matrix, system.rhs)
    assert residual(system.matrix, x, system.rhs) <= \
        1e-10 * np.linalg.norm(system.rhs)
    expected = float64_solution(system.matrix, system.rhs)
    assert np.linalg.norm(x - expected) <= 1e-9 * np.linalg.norm(expected)


@pytest.mark.parametrize("name", ["matrix", "rhs"])
def test_a_non_finite_entry_is_rejected_before_any_factorization(
        factorizations, name):
    for bad in (np.nan, np.inf, -np.inf):
        mat, rhs = dominant_matrix(40, 27), np.ones(40)
        (mat.data if name == "matrix" else rhs)[5] = bad
        with pytest.raises(ValueError,
                           match=f"^{name} has a non-finite entry$"):
            solve_direct(mat, rhs)
    assert factorizations == []


# ----------------------------------------------------------------------
# natural's system over u and lambda

# natural on three problems: case 1 on the square, with its Neumann
# sides; case 2 on a graded sector; case 3 on the square with data
# sampled at nd = 4, so e* and s* are element-constant.  kappa is not 1,
# so A and A / kappa differ.
NATURAL_PROBLEMS = {
    "square-case1": lambda: (unit_square_mesh(4), case1(kappa=1.3, zeta=0.7),
                             None),
    "sector-case2": lambda: (sector_mesh(3 * np.pi / 4, 3, grading=2.0),
                             case2(3 * np.pi / 4, kappa=0.8, zeta=1.4),
                             None),
    "square-case3-nd4": lambda: (unit_square_mesh(4),
                                 case3(kappa=1.6, zeta=0.5), 4),
}


def natural_problem(problem, k):
    """(mesh, case, dataset, constrained five-field system, constrained
    system over u and lambda) of one problem."""
    mesh, case, nd = NATURAL_PROBLEMS[problem]()
    dataset = None if nd is None else build_dataset(nd, case.e, case.s)
    data = problem_data_for(case, mesh, dataset)
    formulation = Formulation("natural", k)
    full = apply_dirichlet(assemble(mesh, formulation, data), data)
    reduced, _ = assemble_natural(mesh, formulation, data)
    return mesh, case, dataset, full, apply_dirichlet(reduced, data)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("problem", sorted(NATURAL_PROBLEMS))
def test_reduced_system_is_the_schur_complement(problem, k):
    # dense Schur complement of the constrained five-field system in e,
    # s and mu; u and lambda keep their order
    *_, full, reduced = natural_problem(problem, k)
    glob = np.r_[full.field_slice("u"), full.field_slice("lam")]
    loc = np.setdiff1d(np.arange(full.n_dofs), glob)
    a = full.matrix.toarray()
    a_gl = a[np.ix_(glob, loc)]
    solved = np.linalg.solve(a[np.ix_(loc, loc)], np.column_stack(
        [a[np.ix_(loc, glob)], full.rhs[loc]]))
    schur = a[np.ix_(glob, glob)] - a_gl @ solved[:, :-1]
    load = full.rhs[glob] - a_gl @ solved[:, -1]
    assert reduced.matrix.shape == schur.shape
    assert np.abs(reduced.matrix.toarray() - schur).max() <= \
        1e-12 * np.abs(schur).max()
    assert np.abs(reduced.rhs - load).max() <= 1e-12 * np.abs(load).max()


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("problem", sorted(NATURAL_PROBLEMS))
def test_condensed_solve_matches_the_full_solve(problem, k):
    # e, s and mu recovered in closed form: the five fields solve_case
    # returns are the full system's solution and meet its contract
    mesh, case, dataset, full, reduced = natural_problem(problem, k)
    res = solve_case(mesh, Formulation("natural", k), case, dataset=dataset)
    assert (res.n_solved, res.n_dofs) == (reduced.n_dofs, full.n_dofs)
    x = np.concatenate([res.solution[name] for name in FIELD_NAMES])
    expected = solve_direct(full.matrix, full.rhs)
    assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)
    assert residual(full.matrix, x, full.rhs) <= \
        1e-10 * np.linalg.norm(full.rhs)


def test_natural_takes_no_stabilization():
    mesh, case = unit_square_mesh(2), case1()
    natural = Formulation("natural", 0)
    with pytest.raises(ValueError, match="natural takes no stabilization"):
        solve_case(mesh, natural, case, params=StabilizationParams(eta=0.5))
    plain = solve_case(mesh, natural, case)
    zero = solve_case(mesh, natural, case, params=StabilizationParams())
    for name in FIELD_NAMES:
        assert np.array_equal(plain.solution[name], zero.solution[name])
