"""Direct solution of the sparse, non-symmetric, indefinite block system.

Backed by SuperLU (scipy.sparse.linalg.splu): sparse LU with the COLAMD
column ordering.  The contract is a relative residual below 1e-10.

A solve factors in float32 and refines in float64, as LAPACK's dsgesv
does (Buttari et al., ACM TOMS 34(4), 2008).  The float32 factor uses
threshold partial pivoting at PIVOT_THRESHOLD = 0.01: a diagonal entry
stays the pivot while it is at least 0.01 of its column's largest
candidate, which keeps COLAMD's order and so its fill (0.59 of full
partial pivoting's on eo_full k=1, n=24) at the price of a growth bound
of 101 per step instead of 2 (Li, ACM TOMS 31(3), 2005).  Its values
take half the bytes of float64's, and every load is scaled by its
largest magnitude before the cast.

One loop refines either factor: each step solves for the correction of
the float64 residual, until ||b - A x||_inf <= sqrt(n) u ||A||_inf
||x||_inf with u the float64 unit roundoff, a step does not shrink the
residual, or after _REFINEMENTS steps.  A float32 factor that misses
that test or the contract, a zero pivot, or a matrix entry beyond
float32's range hands the solve to the guard: float64 with full partial
pivoting (threshold 1, SuperLU's default), which raises when its
solution is not finite or misses the contract.

The factor of the largest matrix is reused when that matrix comes back.
In a data study only the right-hand side changes between data sets, so
one matrix is solved against many loads; see :func:`solve_direct` for
when the factor is held.
"""

import hashlib
import threading

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

RESIDUAL_RTOL = 1e-10
PIVOT_THRESHOLD = 0.01
_REFINEMENTS = 30                                 # dsgesv's ITERMAX
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2     # LAPACK's dlamch('E')
_FLOAT32_MAX = float(np.finfo(np.float32).max)


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
# factor's nnz, and its factor while held.  See solve_direct.
_LARGEST = {"key": None, "nnz": 0, "lu": None}
_LOCK = threading.Lock()


def _max_abs(values):
    return float(np.max(np.abs(values), initial=0.0))


class _Factor:
    """A SuperLU factor with the dtype it was made in.  SuperLU keeps no
    record of its dtype, and its solve refuses a float64 load on a
    float32 factor."""

    __slots__ = ("lu", "dtype")

    def __init__(self, lu, dtype):
        self.lu, self.dtype = lu, dtype

    @property
    def nnz(self):
        return self.lu.nnz

    def solve(self, rhs):
        """A^-1 rhs in float64.  A float32 factor solves for rhs scaled
        by its largest magnitude, so the cast neither overflows nor
        underflows, and the scale is undone in float64."""
        if self.dtype == np.float64:
            return self.lu.solve(rhs)
        scale = _max_abs(rhs)
        if scale == 0.0:
            return np.zeros_like(rhs)
        y = self.lu.solve((rhs / scale).astype(np.float32))
        return y.astype(np.float64) * scale


def _factorize(mat, dtype=np.float32):
    """Factor of the canonical CSR ``mat`` in ``dtype``: float32 at
    PIVOT_THRESHOLD, float64 (the guard) with full partial pivoting.
    The CSC is made from the CSR's arrays with the values cast in one
    conversion, so no float64 copy is alive beside a float32
    factorization."""
    csc = sp.csr_matrix((mat.data.astype(dtype, copy=False), mat.indices,
                         mat.indptr), shape=mat.shape).tocsc()
    threshold = PIVOT_THRESHOLD if dtype == np.float32 else 1.0
    try:
        lu = spla.splu(csc, diag_pivot_thresh=threshold)
    except RuntimeError as err:  # SuperLU reports exact singularity this way
        raise SingularSystemError(f"sparse LU failed: {err}") from err
    return _Factor(lu, dtype)


def _refined_solve(lu, mat, rhs):
    """x from the factor, refined in float64 until dsgesv's backward
    error test holds, a step does not shrink the residual, or after
    _REFINEMENTS steps.  SingularSystemError when x is not finite;
    SolverError when a float32 factor misses the test or x misses the
    contract."""
    n = mat.shape[0]
    row_sums = sp.csr_matrix((np.abs(mat.data), mat.indices, mat.indptr),
                             shape=mat.shape) @ np.ones(n)
    tol = np.sqrt(n) * _UNIT_ROUNDOFF * _max_abs(row_sums)  # ||A||_inf
    x = lu.solve(rhs)
    previous = np.inf
    for step in range(_REFINEMENTS + 1):
        residual = rhs - mat @ x
        norm = _max_abs(residual)
        met = norm <= tol * _max_abs(x)
        if met or step == _REFINEMENTS or not norm < previous:
            break
        previous = norm
        x += lu.solve(residual)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(
            "solution contains non-finite entries; the factorization hit "
            "a pivot below working precision")
    if lu.dtype == np.float32 and not met:
        raise SolverError(
            f"float32 factor: residual {norm:.3e} not at float64 level "
            f"after {step} refinement steps")
    scale = max(float(np.linalg.norm(rhs)), np.finfo(float).tiny)
    rel = np.linalg.norm(residual) / scale
    if rel > RESIDUAL_RTOL:
        raise SolverError(
            f"relative residual {rel:.3e} exceeds {RESIDUAL_RTOL:.1e} "
            "after iterative refinement")
    return x


def _fresh_solve(mat, rhs, float32):
    """(x, factor) from a float32 factor when ``float32`` and it is
    accepted, else from the guard, whose SolverError is raised."""
    if float32:
        try:
            lu = _factorize(mat, np.float32)
            return _refined_solve(lu, mat, rhs), lu
        except SolverError:
            lu = None              # freed before the guard factorizes
    lu = _factorize(mat, np.float64)
    return _refined_solve(lu, mat, rhs), lu


def solve_direct(matrix, rhs):
    """Solve A x = b with sparse LU; relative residual <= 1e-10.

    A fresh solve takes a float32 factor refined to dsgesv's test, or
    the float64 guard when that factor is refused (see the module
    docstring); the guard raises.  A matrix or load with a non-finite
    entry raises ValueError before any factorization.

    One slot tracks the matrix with the largest factor solved so far
    and holds its factor from that matrix's second solve on.  A matrix
    with a factor at least as large takes the slot, its factor not yet
    held, so at most one factor, the largest seen, is held.  A held
    factor is reused for the same matrix (same shape, pattern and
    stored values) and accepted by its own dtype's test; one that
    misses hands the solve to the guard.
    """
    mat = _canonical_csr(matrix)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (mat.shape[0],):
        raise ValueError(f"rhs shape {rhs.shape} does not match matrix "
                         f"dimension {mat.shape[0]}")
    largest = _max_abs(mat.data)              # NaN when an entry is NaN
    for name, value in (("matrix", largest), ("rhs", _max_abs(rhs))):
        if not np.isfinite(value):
            raise ValueError(f"{name} has a non-finite entry")
    key = matrix_digest(mat)
    slot = _LARGEST
    with _LOCK:
        lu = slot["lu"] if slot["key"] == key else None
    float32 = largest <= _FLOAT32_MAX
    if lu is not None:
        try:
            return _refined_solve(lu, mat, rhs)
        except SolverError:
            float32 = False
    x, lu = _fresh_solve(mat, rhs, float32)
    with _LOCK:
        if slot["key"] == key:
            slot["lu"] = lu
        elif lu.nnz >= slot["nnz"]:
            slot.update(key=key, nnz=lu.nnz, lu=None)
    return x
