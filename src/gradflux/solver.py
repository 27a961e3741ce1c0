"""Direct solution of the sparse, non-symmetric, indefinite block system.

Backed by SuperLU (scipy.sparse.linalg.splu): sparse LU with a
fill-reducing column ordering and threshold partial pivoting.  The
contract is a relative residual below 1e-10, enforced with a few steps
of iterative refinement; systems that cannot meet it raise.

Factors of matrices that come back are reused.  In a data study only
the right-hand side changes between data sets, so one matrix is solved
against many loads; see :class:`FactorCache` for which factors are held.

Unknowns that couple only within their element are eliminated before
the LU by :func:`condense`, and recovered after it.
"""

import hashlib
import threading
from collections import OrderedDict

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

RESIDUAL_RTOL = 1e-10
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


class FactorCache:
    """SuperLU factors held for matrices that come back.

    The bound is the largest factor built so far, in entries SuperLU
    stores for L and U.  A factor is admitted only when its matrix comes
    back after other matrices whose factors total no more than the
    bound, i.e. when an LRU cache of that size would still have held it.
    Held factors are evicted least recently used first so that their
    total stays within the bound.  A sweep whose matrices come back only
    after a larger one, or after many others, therefore holds nothing.

    Lookups and bookkeeping take a lock; factorizations run outside it,
    so concurrent solves of different matrices do not wait on each other.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._held = OrderedDict()     # digest -> SuperLU, least recent first
        self._recent = OrderedDict()   # digest -> factor nnz, oldest first
        self.bound = 0
        self.held_nnz = 0

    def __len__(self):
        with self._lock:
            return len(self._held)

    def lookup(self, key):
        """The held factor for ``key``, or None; marks it recently used."""
        with self._lock:
            lu = self._held.get(key)
            if lu is not None:
                self._held.move_to_end(key)
                self._touch(key, lu.nnz)
            return lu

    def drop(self, key):
        with self._lock:
            lu = self._held.pop(key, None)
            if lu is not None:
                self.held_nnz -= lu.nnz

    def record(self, key, lu):
        """Note a fresh factorization of ``key``; hold it if its matrix
        came back within the bound."""
        nnz = lu.nnz
        with self._lock:
            self.bound = max(self.bound, nnz)
            returned = key in self._recent
            self._touch(key, nnz)
            if key in self._held:
                self._held.move_to_end(key)
            elif returned:
                while self.held_nnz + nnz > self.bound:
                    self.held_nnz -= self._held.popitem(last=False)[1].nnz
                self._held[key] = lu
                self.held_nnz += nnz

    def _touch(self, key, nnz):
        """Make ``key`` the most recent solve.  A solve with more than
        the bound of factor nnz solved after it is forgotten: its matrix
        can no longer come back within the bound."""
        self._recent[key] = nnz
        self._recent.move_to_end(key)
        after = sum(self._recent.values())
        while after - next(iter(self._recent.values())) > self.bound:
            after -= self._recent.popitem(last=False)[1]


_FACTORS = FactorCache()


def residual_norm(matrix, x, rhs):
    """Euclidean norm of A x - b."""
    mat = sp.csr_matrix(matrix)
    x = np.asarray(x, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if mat.shape[1] != x.shape[0] or mat.shape[0] != rhs.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix {mat.shape}, x {x.shape}, "
            f"rhs {rhs.shape}")
    return float(np.linalg.norm(mat @ x - rhs))


def _factorize(mat):
    try:
        return spla.splu(mat.tocsc())
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

    A held factor of the same matrix (same shape, pattern and stored
    values) is reused and checked against the same contract; if it fails
    the check it is dropped and the matrix factorized afresh.
    """
    mat = _canonical_csr(matrix)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (mat.shape[0],):
        raise ValueError(f"rhs shape {rhs.shape} does not match matrix "
                         f"dimension {mat.shape[0]}")
    key = matrix_digest(mat)
    lu = _FACTORS.lookup(key)
    if lu is not None:
        try:
            return _refined_solve(lu, mat, rhs)
        except SolverError:
            _FACTORS.drop(key)
    lu = _factorize(mat)
    x = _refined_solve(lu, mat, rhs)
    _FACTORS.record(key, lu)
    return x


def condense(matrix, rhs, local):
    """Static condensation of element-local unknowns (Guyan, AIAA J.
    3(2), 1965).

    ``local`` is an (n_groups, m) array of dofs whose unknowns couple
    only within their own row of ``local`` and to the dofs it does not
    list.  Their dense blocks A_ll are inverted group by group, which
    leaves the Schur system S = A_gg - A_gl A_ll^-1 A_lg with load
    b_g - A_gl A_ll^-1 b_l over the other dofs, in increasing order.
    Returns (S, load, recover): ``recover(x_g)`` solves the groups for
    their unknowns and returns the full x after checking the residual
    contract on the full system.  With m = 0 the matrix and the load
    come back themselves and ``recover`` returns x_g as it is.
    """
    n_groups, m = np.shape(local)
    if m == 0:
        return matrix, rhs, lambda x: x
    mat = _canonical_csr(matrix)
    rhs = np.asarray(rhs, dtype=float)
    loc = np.asarray(local).ravel()
    slot = np.full(mat.shape[0], -1)      # place in loc, -1 if not local
    slot[loc] = np.arange(len(loc))
    glob = np.flatnonzero(slot < 0)

    rows = mat[loc]
    row = np.repeat(np.arange(len(loc)), np.diff(rows.indptr))
    col = slot[rows.indices]
    inner = col >= 0
    cross = np.flatnonzero(inner & (col // m != row // m))
    if cross.size:
        i = cross[0]
        raise ValueError(f"entry ({loc[row[i]]}, {loc[col[i]]}) couples "
                         f"local groups {row[i] // m} and {col[i] // m}")
    blocks = np.zeros((n_groups, m, m))
    row, col = row[inner], col[inner]
    blocks[row // m, row % m, col % m] = rows.data[inner]
    try:
        inverse = np.linalg.inv(blocks)
    except np.linalg.LinAlgError:
        inverse = None
    if inverse is None or not np.all(np.isfinite(inverse)):
        raise SingularSystemError("static condensation: a local block is "
                                  "singular")
    inv_ll = sp.bsr_matrix((inverse, np.arange(n_groups),
                            np.arange(n_groups + 1)),
                           shape=(len(loc), len(loc))).tocsr()
    a_lg = rows[:, glob]
    glob_rows = mat[glob]
    a_gl = glob_rows[:, loc]
    schur = glob_rows[:, glob] - a_gl @ (inv_ll @ a_lg)
    rhs_l = rhs[loc]
    load = rhs[glob] - a_gl @ (inv_ll @ rhs_l)

    def recover(x_glob):
        x = np.empty(mat.shape[0])
        x[glob] = x_glob
        x[loc] = inv_ll @ (rhs_l - a_lg @ x_glob)
        scale = max(float(np.linalg.norm(rhs)), np.finfo(float).tiny)
        rel = float(np.linalg.norm(mat @ x - rhs)) / scale
        if not rel <= RESIDUAL_RTOL:
            raise SolverError(
                f"recovered solution: relative residual {rel:.3e} of the "
                f"full system exceeds {RESIDUAL_RTOL:.1e}")
        return x

    return schur, load, recover
