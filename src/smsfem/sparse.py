"""Sparse matrix storage, saddle-point assembly and direct solves.

Finite element assembly hands over coordinate arrays (rows, columns,
values), which are compressed to CSR once, or the 1D operators' sorted
CSR arrays.  The saddle-point systems arising from the constrained
least-squares formulation are symmetric indefinite; we factor them with
SuperLU and verify the residual afterwards.  A factor that fails is a RankDeficiencyError: the method is
well posed only when these systems are nonsingular.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class StructuralError(ValueError):
    """Raised for out-of-range indices or malformed matrix structure."""


class CapacityError(ValueError):
    """Raised when a dense diagnostic is requested on too large a matrix."""


# largest row count for which the dense SVD diagnostics run: 2000 rows of
# float64 are 32 MB, while the SVD of an 8,575-row KKT peaks above 4 GB
DENSE_LIMIT = 2000


class RankDeficiencyError(RuntimeError):
    """Raised when a factorization is singular to working precision."""


class SparseMatrix:
    """Immutable sparse matrix in CSR form."""

    def __init__(self, n_rows, n_cols, csr):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.csr = csr

    @property
    def nnz(self):
        return self.csr.nnz

    def toarray(self):
        return self.csr.toarray()


def compress(rows, cols, vals, n_rows, n_cols):
    """Compress coordinate arrays (row, col, value) to a SparseMatrix.

    Duplicate coordinates are summed.  The result is independent of the
    order of the entries.
    """
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    vals = np.asarray(vals, dtype=np.float64).ravel()
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise StructuralError("row index out of range")
    if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
        raise StructuralError("col index out of range")
    csr = sp.csr_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))
    csr.sum_duplicates()
    csr.sort_indices()
    return SparseMatrix(n_rows, n_cols, csr)


def csr(data, indices, indptr, n_rows, n_cols):
    """SparseMatrix of the arrays of a sorted CSR matrix without duplicates."""
    return SparseMatrix(n_rows, n_cols, sp.csr_matrix(
        (data, indices, indptr), shape=(n_rows, n_cols)))


def from_csr(csr):
    csr = sp.csr_matrix(csr)
    csr.sum_duplicates()
    csr.sort_indices()
    return SparseMatrix(csr.shape[0], csr.shape[1], csr)


class SaddleSystem:
    """Symmetric block system of the constrained least-squares optimality
    conditions, with the multiplier entering as z~ = -z:

        [ S   0   A^T ] [u ]   [residual_load]
        [ 0   0   E^T ] [t ] = [0            ]
        [ A   E   0   ] [z~]   [load         ]

    The matrix is built once, on construction, as sp.bmat would build it.
    """

    def __init__(self, S, A, E, residual_load, load):
        self.residual_load = np.asarray(residual_load, dtype=float)
        self.load = np.asarray(load, dtype=float)
        self.n = n = S.n_rows
        self.m = m = E.n_cols
        if (S.csr.shape, A.csr.shape, E.csr.shape[0]) != ((n, n), (n, n), n):
            raise StructuralError("inconsistent saddle block sizes")
        # the CSC arrays of A and E are the CSR arrays of A^T and E^T
        blocks = ((S.csr, 0, 0), (A.csr.tocsc(), 0, n + m),
                  (E.csr.tocsc(), n, n + m), (A.csr, n + m, 0),
                  (E.csr, n + m, n))
        self._matrix = _block_csr([(B.data, B.indices, B.indptr, r, c)
                                   for B, r, c in blocks], 2 * n + m)

    def matrix(self):
        return self._matrix

    def rhs(self):
        return np.concatenate([self.residual_load, np.zeros(self.m), self.load])


def _block_csr(blocks, size):
    """Square CSR matrix of blocks (data, indices, indptr, first row, first
    column), the arrays of sorted CSR blocks listed in row-major order;
    every row keeps its columns sorted."""
    nnz = sum(data.size for data, *_ in blocks)
    idx = np.int32 if max(size, nnz) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(size + 1, dtype=idx)
    per_row = [np.diff(ptr) for _d, _i, ptr, _r, _c in blocks]
    for (_d, _i, ptr, r, _c), k in zip(blocks, per_row):
        indptr[r + 1:r + ptr.size] += k
    np.cumsum(indptr, out=indptr)
    indices, data = np.empty(nnz, dtype=idx), np.empty(nnz)
    fill = indptr[:-1].copy()   # next free slot of each row
    for (vals, cols, ptr, r, c), k in zip(blocks, per_row):
        rows = slice(r, r + k.size)
        at = np.repeat(fill[rows] - ptr[:-1], k) + np.arange(vals.size)
        indices[at], data[at] = cols + idx(c), vals
        fill[rows] += k
    return sp.csr_matrix((data, indices, indptr), shape=(size, size))


def solve_symmetric_indefinite(system, rhs=None, csc=None):
    """Solve a SaddleSystem (or a raw square SparseMatrix with rhs).

    SuperLU factors csc, the same matrix in CSC form, if given.  Returns
    the solution and its relative residual ||Mx - r|| / max(||r||, 1),
    which must be <= 1e-8 after one step of iterative refinement if the
    first factorization misses it.  Raises RankDeficiencyError, with
    SuperLU's reason, if the factor fails; StructuralError for a missing,
    wrong-length or non-finite rhs.
    """
    if isinstance(system, SaddleSystem):
        M, rhs = system.matrix(), system.rhs() if rhs is None else rhs
    else:
        M = system.csr if isinstance(system, SparseMatrix) else sp.csr_matrix(system)
    if rhs is None:
        raise StructuralError("a matrix needs a right-hand side")
    r = np.asarray(rhs, dtype=float)
    n = M.shape[0]
    if n != M.shape[1]:
        raise StructuralError("system must be square")
    if r.shape != (n,):
        raise StructuralError("right-hand side of shape %s for %d unknowns"
                              % (r.shape, n))
    if not np.isfinite(r).all():
        raise StructuralError("right-hand side is not finite")
    if n == 0:
        return np.zeros(0), 0.0
    try:
        with np.errstate(all="ignore"):
            lu = spla.splu(M.tocsc() if csc is None else csc)
    except (RuntimeError, ValueError) as exc:
        raise RankDeficiencyError(
            "sparse LU failed on %d unknowns: %s" % (n, exc)) from exc
    x = _lu_solve(lu, r)
    res = norm(M @ x - r) / max(norm(r), 1.0)
    if res > 1e-8:
        # one residual-correction step with the same factor
        x = x + _lu_solve(lu, r - M @ x)
        res = norm(M @ x - r) / max(norm(r), 1.0)
        if res > 1e-8:
            raise RankDeficiencyError(
                "direct solve residual %.3e exceeds tolerance" % res
            )
    return x, float(res)


def norm(v):
    """2-norm by numpy's own sum: BLAS threads cost ms on long vectors."""
    return np.sqrt(np.add.reduce(v * v))


def _lu_solve(lu, r):
    """lu.solve(r), which must be finite: SuperLU raises only on an exactly
    zero pivot, while a tiny one can overflow the solve to inf or nan."""
    with np.errstate(all="ignore"):
        x = lu.solve(r)
    if not np.all(np.isfinite(x)):
        raise RankDeficiencyError(
            "sparse LU solve on %d unknowns is not finite" % len(x))
    return x
