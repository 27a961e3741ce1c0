"""Direct solution of the sparse, non-symmetric, indefinite block system.

Backed by SuperLU (scipy.sparse.linalg.splu): sparse LU with the COLAMD
column ordering and threshold partial pivoting at PIVOT_THRESHOLD =
0.01.  A diagonal entry stays the pivot while it is at least 0.01 of
its column's largest candidate, which keeps COLAMD's order and so its
fill (0.59 of full partial pivoting's on eo_full k=1, n=24) at the price
of a growth bound of 101 per step instead of 2 (Li, ACM TOMS 31(3),
2005).  The contract is a relative residual below 1e-10, enforced with
a few steps of iterative refinement, and it guards the threshold: a
matrix whose factor misses it is factorized again with full partial
pivoting (threshold 1, SuperLU's default) before the solve raises.

The factor of the largest matrix is reused when that matrix comes back
soon.  In a data study only the right-hand side changes between data
sets, so one matrix is solved against many loads; see
:func:`solve_direct` for when the factor is held.
"""

import hashlib
import threading

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

RESIDUAL_RTOL = 1e-10
PIVOT_THRESHOLD = 0.01
_MAX_REFINEMENTS = 3


class SolverError(RuntimeError):
    """Direct solve failed to meet its residual contract."""


class SingularSystemError(SolverError):
    """Factorization hit a (numerically) singular pivot."""


def _canonical_csr(matrix):
    """Square float CSR with sorted indices and no duplicates; explicit
    zeros stay, so they are part of the matrix's identity."""
    mat = sp.csr_matrix(matrix)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    if mat.dtype != np.float64:
        mat = mat.astype(np.float64)
    if not mat.has_canonical_format:
        mat = mat.copy()
        mat.sum_duplicates()
    return mat


def matrix_digest(mat):
    """blake2b digest of a canonical CSR matrix, read from the arrays'
    buffers without copying them."""
    digest = hashlib.blake2b(repr(
        (mat.shape, mat.indptr.dtype.str, mat.indices.dtype.str,
         mat.data.dtype.str)).encode())
    for arr in (mat.indptr, mat.indices, mat.data):
        digest.update(np.ascontiguousarray(arr))
    return digest.digest()


# The matrix with the largest factor solved so far: its digest, its
# factor's nnz, the factor entries built since it was last solved, and
# its factor while held.  See solve_direct.
_LARGEST = {"key": None, "nnz": 0, "since": 0, "lu": None}
_LOCK = threading.Lock()


def _factorize(mat, pivot_threshold=PIVOT_THRESHOLD):
    try:
        return spla.splu(mat.tocsc(), diag_pivot_thresh=pivot_threshold)
    except RuntimeError as err:  # SuperLU reports exact singularity this way
        raise SingularSystemError(f"sparse LU failed: {err}") from err


def _refined_solve(lu, mat, rhs):
    """x from the factor, refined until the residual contract holds."""
    x = lu.solve(rhs)
    scale = max(float(np.linalg.norm(rhs)), np.finfo(float).tiny)
    for _ in range(_MAX_REFINEMENTS):
        residual = rhs - mat @ x
        if np.linalg.norm(residual) <= RESIDUAL_RTOL * scale:
            break
        x = x + lu.solve(residual)
    else:
        rel = np.linalg.norm(rhs - mat @ x) / scale
        if rel > RESIDUAL_RTOL:
            raise SolverError(
                f"relative residual {rel:.3e} exceeds {RESIDUAL_RTOL:.1e} "
                "after iterative refinement")
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(
            "solution contains non-finite entries; the factorization hit "
            "a pivot below working precision")
    return x


def solve_direct(matrix, rhs):
    """Solve A x = b with sparse LU; relative residual <= 1e-10.

    The factor of the matrix with the largest factor solved so far is
    held when that matrix comes back before more factor entries than its
    own have been built in between; so at most one factor, the largest,
    is held.  A held factor is reused for the same matrix (same shape,
    pattern and stored values) and checked against the same contract.
    A fresh factor is made at PIVOT_THRESHOLD.  When a factor, held or
    fresh, misses the contract, or the factorization meets a zero pivot,
    the matrix is factorized once more with full partial pivoting before
    the error is raised.
    """
    mat = _canonical_csr(matrix)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (mat.shape[0],):
        raise ValueError(f"rhs shape {rhs.shape} does not match matrix "
                         f"dimension {mat.shape[0]}")
    key = matrix_digest(mat)
    slot = _LARGEST
    with _LOCK:
        lu = slot["lu"] if slot["key"] == key else None
        if lu is not None:
            slot["since"] = 0
    held = lu is not None
    try:
        lu = lu if held else _factorize(mat)
        x = _refined_solve(lu, mat, rhs)
        if held:
            return x
    except SolverError:
        lu = _factorize(mat, 1.0)                # full partial pivoting
        x = _refined_solve(lu, mat, rhs)
    with _LOCK:
        if slot["key"] == key:
            slot["lu"] = lu if slot["since"] <= slot["nnz"] else None
            slot["since"] = 0
        elif lu.nnz >= slot["nnz"]:
            slot.update(key=key, nnz=lu.nnz, since=0, lu=None)
        else:
            slot["since"] += lu.nnz
            if slot["since"] > slot["nnz"]:
                slot["lu"] = None
    return x
