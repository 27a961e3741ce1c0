"""Direct solution of the sparse, non-symmetric, indefinite block system.

Backed by SuperLU (scipy.sparse.linalg.splu): sparse LU with the COLAMD
column ordering and threshold partial pivoting at PIVOT_THRESHOLD =
0.01.  A diagonal entry stays the pivot while it is at least 0.01 of
its column's largest candidate, which keeps COLAMD's order and so its
fill (0.59 of full partial pivoting's on eo_full k=1, n=24) at the price
of a growth bound of 101 per step instead of 2 (Li, ACM TOMS 31(3),
2005).  The contract is a relative residual below 1e-10.

A solve climbs a ladder of factors, LADDER, until one is accepted:

1. float32 at PIVOT_THRESHOLD, refined in float64 as LAPACK's dsgesv
   does (Buttari et al., ACM TOMS 34(4), 2008): each step solves for
   the correction of the float64 residual with the float32 factor,
   until ||b - A x||_inf <= sqrt(n) u ||A||_inf ||x||_inf with u the
   float64 unit roundoff.  The test must hold within
   _MIXED_REFINEMENTS steps, each shrinking the residual, or the next
   rung takes over.  A matrix with an entry beyond float32's range
   skips this rung; every load is scaled by its largest magnitude
   before the cast.
2. float64 at PIVOT_THRESHOLD, refined for up to _MAX_REFINEMENTS steps.
3. float64 with full partial pivoting (threshold 1, SuperLU's default).

A rung is accepted when its solution is finite and meets the contract;
a miss, or a zero pivot in the factorization, moves the solve to the
next rung, and the last rung raises.  The float32 factor stores its
values in half the bytes.

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
LADDER = ((np.float32, PIVOT_THRESHOLD), (np.float64, PIVOT_THRESHOLD),
          (np.float64, 1.0))
_MAX_REFINEMENTS = 3
_MIXED_REFINEMENTS = 10                            # dsgesv allows 30
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
# factor's nnz, the factor entries built since it was last solved, and
# its factor while held.  See solve_direct.
_LARGEST = {"key": None, "nnz": 0, "since": 0, "lu": None}
_LOCK = threading.Lock()


def _max_abs(values):
    return float(np.max(np.abs(values), initial=0.0))


class _Factor:
    """A SuperLU factor with the dtype and pivot threshold it was made
    with.  SuperLU keeps no record of its dtype, and its solve refuses
    a float64 load on a float32 factor."""

    __slots__ = ("lu", "dtype", "threshold")

    def __init__(self, lu, dtype, threshold):
        self.lu, self.dtype, self.threshold = lu, dtype, threshold

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


def _factorize(mat, dtype=np.float32, pivot_threshold=PIVOT_THRESHOLD):
    """Factor of the canonical CSR ``mat`` in ``dtype``.  The CSC is
    made from the CSR's arrays with the values cast in one conversion,
    so no float64 copy is alive beside a float32 factorization."""
    csc = sp.csr_matrix((mat.data.astype(dtype, copy=False), mat.indices,
                         mat.indptr), shape=mat.shape).tocsc()
    try:
        lu = spla.splu(csc, diag_pivot_thresh=pivot_threshold)
    except RuntimeError as err:  # SuperLU reports exact singularity this way
        raise SingularSystemError(f"sparse LU failed: {err}") from err
    return _Factor(lu, dtype, pivot_threshold)


def _refined_solve(lu, mat, rhs):
    """x from the factor, refined as its rung prescribes (see LADDER);
    SolverError when x is not finite or misses the contract."""
    x = lu.solve(rhs)
    scale = max(float(np.linalg.norm(rhs)), np.finfo(float).tiny)
    if lu.dtype == np.float32:
        residual = _refine_mixed(lu, mat, rhs, x)
    else:
        for step in range(_MAX_REFINEMENTS + 1):
            residual = rhs - mat @ x
            if (step == _MAX_REFINEMENTS or
                    np.linalg.norm(residual) <= RESIDUAL_RTOL * scale):
                break
            x += lu.solve(residual)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(
            "solution contains non-finite entries; the factorization hit "
            "a pivot below working precision")
    rel = np.linalg.norm(residual) / scale
    if rel > RESIDUAL_RTOL:
        raise SolverError(
            f"relative residual {rel:.3e} exceeds {RESIDUAL_RTOL:.1e} "
            "after iterative refinement")
    return x


def _refine_mixed(lu, mat, rhs, x):
    """Refine ``x`` in place with the float32 factor until dsgesv's
    backward-error test holds; returns the final residual, or raises
    SolverError when a step does not shrink the residual or the test is
    not met within _MIXED_REFINEMENTS steps."""
    n = mat.shape[0]
    row_sums = sp.csr_matrix((np.abs(mat.data), mat.indices, mat.indptr),
                             shape=mat.shape) @ np.ones(n)
    tol = np.sqrt(n) * _UNIT_ROUNDOFF * _max_abs(row_sums)  # ||A||_inf
    previous = np.inf
    for step in range(_MIXED_REFINEMENTS + 1):
        residual = rhs - mat @ x
        norm = _max_abs(residual)
        if norm <= tol * _max_abs(x):
            return residual
        if step == _MIXED_REFINEMENTS or not norm < previous:
            raise SolverError(
                f"float32 factor: residual {norm:.3e} not at float64 "
                f"level after {step} refinement steps")
        previous = norm
        x += lu.solve(residual)


def _ladder_solve(mat, rhs, rung):
    """(x, factor) from the first rung of LADDER, from ``rung`` on, whose
    factor is accepted; the last rung's SolverError is raised."""
    for dtype, threshold in LADDER[rung:-1]:
        try:
            lu = _factorize(mat, dtype, threshold)
            return _refined_solve(lu, mat, rhs), lu
        except SolverError:
            lu = None            # freed before the next rung factorizes
    lu = _factorize(mat, *LADDER[-1])
    return _refined_solve(lu, mat, rhs), lu


def solve_direct(matrix, rhs):
    """Solve A x = b with sparse LU; relative residual <= 1e-10.

    A fresh solve climbs LADDER: a float32 factor refined in float64
    to dsgesv's backward-error test, within _MIXED_REFINEMENTS steps;
    then float64 at PIVOT_THRESHOLD; then float64 with full partial
    pivoting.  A factor that misses, or a factorization that meets a
    zero pivot, hands the solve to the next rung, and the last rung
    raises.  A matrix with an entry beyond float32's range starts on
    the second rung.  A matrix or load with a non-finite entry raises
    ValueError before any factorization.

    The factor of the matrix with the largest factor solved so far is
    held when that matrix comes back before more factor entries than its
    own have been built in between; so at most one factor, the largest,
    is held.  A held factor is reused for the same matrix (same shape,
    pattern and stored values) and accepted by its own rung's test.
    One that misses hands the solve to the rung after its own, or to
    the last rung again when it was made there.
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
        if lu is not None:
            slot["since"] = 0
    if lu is not None:
        try:
            return _refined_solve(lu, mat, rhs)
        except SolverError:
            rung = min(LADDER.index((lu.dtype, lu.threshold)) + 1,
                       len(LADDER) - 1)
    else:
        rung = 0 if largest <= _FLOAT32_MAX else 1
    x, lu = _ladder_solve(mat, rhs, rung)
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
