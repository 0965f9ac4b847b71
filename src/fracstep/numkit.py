"""Minimal dense/sparse linear algebra used by the whole solver stack.

Matrices are plain numpy arrays; sparse matrices use compressed-row storage
and are multiplied by their diagonals: a product is one contiguous
multiply-add per distinct offset col - row, seven for the mesh's matrices.
Everything here depends on numpy alone and is sized for desk-scale problems:
preconditioned CG (Jacobi by default, or any caller-supplied SPD
preconditioner such as the sine-transform one of ``meshfem``), and a dense
generalized symmetric eigensolve (built on ``numpy.linalg``). CG is the
``cg`` backend of ``meshfem``'s step solver and answers every step solve in
nodal coordinates, always to the one tolerance ``meshfem.STEP_RTOL``;
``cg_solve`` itself takes any ``rel_tol``. The eigensolve backs the discrete
modal reference, and its eigenpairs define the modal view
(``meshfem.ModalSystem``) in which discrete-modal studies step without CG.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class CgError(RuntimeError):
    """Conjugate gradient did not reach the requested tolerance.

    Carries the final residual norm and the iteration count.
    """

    def __init__(self, message, residual, iterations):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class NotPositiveDefiniteError(ValueError):
    pass


# A CG breakdown with the true residual within this factor of the round-off
# bound eps (||A||_F ||x|| + ||b||) is a stall; asked for rel_tol=1e-14, the
# M=16 step systems of cases (a) and (b) stall at 0.05 to 0.34 of that bound.
_ROUNDOFF = 100.0


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Sparse matrix in compressed-row layout, multiplied by its diagonals.

    ``row_offsets`` has length ``n_rows + 1`` and runs from 0 to nnz without
    decreasing; ``col_indices`` are strictly increasing within each row.

    Construction also derives a diagonal layout: the sorted distinct offsets
    o_k = col - row and an (n_offsets, n_rows) array holding each entry on
    its offset's row, zero where a row lacks that diagonal. ``matvec`` forms
    y = sum_k D[k] * x[i + o_k] over a zero-padded copy of x, in increasing
    k. Along each row that is the order of increasing column, so for finite
    x every y_i is bit-identical to adding the row's stored products one by
    one from 0. The matrices of the criss-cross mesh have 7 diagonals.
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("row_offsets", "col_indices", "values"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        # before np.repeat, which would fail with numpy's own message
        self._check_layout()
        # per-entry row index, for the layout below, to_dense and diagonal
        rows = np.repeat(
            np.arange(self.n_rows), np.diff(self.row_offsets)
        ).astype(np.intp)
        object.__setattr__(self, "_entry_rows", rows)
        # one flag per possible offset col - row; np.unique would import
        # numpy.ma. The nnz-sized temporaries are few and updated in place:
        # each one freed can leave the heap holding its pages, and two more
        # of them raised long_solve's peak RSS by 2.5 MiB.
        slots = self.col_indices - rows
        slots += self.n_rows - 1
        flags = np.zeros(max(self.n_rows + self.n_cols - 1, 0), dtype=bool)
        flags[slots] = True
        offsets = np.flatnonzero(flags) - (self.n_rows - 1)
        # each entry's flat index into diags: its offset's band, then its row
        band_start = np.zeros(len(flags), dtype=np.intp)
        band_start[offsets + (self.n_rows - 1)] = np.arange(len(offsets)) * self.n_rows
        diags = np.zeros((len(offsets), self.n_rows))
        slots = band_start[slots]
        slots += rows
        diags.ravel()[slots] = self.values
        pad = max(0, -int(offsets.min(initial=0)))
        width = max(self.n_cols, self.n_rows + int(offsets.max(initial=0)))
        object.__setattr__(self, "_pad", pad)
        object.__setattr__(self, "_padded_len", pad + width)
        object.__setattr__(
            self, "_bands", tuple(zip((pad + offsets).tolist(), diags))
        )

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, vals):
        """Build CSR from coordinate triplets; duplicate entries are summed.

        Explicit zeros are kept, so matrices assembled from the same
        connectivity share a sparsity pattern even if entries cancel.
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        vals = np.asarray(vals, dtype=float)
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        keep = np.ones(len(rows), dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        idx = np.cumsum(keep) - 1
        merged = np.zeros(keep.sum())
        np.add.at(merged, idx, vals)
        rows, cols = rows[keep], cols[keep]
        offsets = np.zeros(n_rows + 1, dtype=np.intp)
        np.add.at(offsets, rows + 1, 1)
        offsets = np.cumsum(offsets)
        return cls(n_rows, n_cols, offsets, cols, merged)

    @property
    def nnz(self):
        return len(self.values)

    def matvec(self, x):
        """A x for x of shape (n_cols,), as float64 (see the class docstring)."""
        x = np.asarray(x)
        if x.shape != (self.n_cols,):
            raise ValueError(f"x must have shape ({self.n_cols},), not {x.shape}")
        xp = np.zeros(self._padded_len)
        xp[self._pad : self._pad + self.n_cols] = x
        y = np.zeros(self.n_rows)
        for start, diag in self._bands:
            y += diag * xp[start : start + self.n_rows]
        return y

    def diagonal(self):
        d = np.zeros(self.n_rows)
        on_diag = self._entry_rows == self.col_indices
        d[self._entry_rows[on_diag]] = self.values[on_diag]
        return d

    def to_dense(self):
        a = np.zeros((self.n_rows, self.n_cols))
        a[self._entry_rows, self.col_indices] = self.values
        return a

    def scaled_add(self, coeff, other, other_coeff):
        """Return coeff*self + other_coeff*other; patterns must match."""
        if not (
            np.array_equal(self.row_offsets, other.row_offsets)
            and np.array_equal(self.col_indices, other.col_indices)
        ):
            raise ValueError("sparsity patterns differ")
        return SparseMatrix(
            self.n_rows,
            self.n_cols,
            self.row_offsets,
            self.col_indices,
            coeff * self.values + other_coeff * other.values,
        )

    def _check_layout(self):
        """The invariants the diagonal layout relies on: a repeated column
        would leave one of its entries out of the layout."""
        if len(self.row_offsets) != self.n_rows + 1:
            raise ValueError("row_offsets must have n_rows + 1 entries")
        if np.any(np.diff(self.row_offsets) < 0):
            raise ValueError("row_offsets decrease")
        if self.row_offsets[0] != 0 or self.row_offsets[-1] != self.nnz:
            raise ValueError("row_offsets must run from 0 to nnz")
        if np.any(self.col_indices < 0) or np.any(self.col_indices >= self.n_cols):
            raise ValueError("column index out of range")
        # columns increase along each row; a row's first entry may lie
        # left of the previous row's last
        stalls = self.col_indices[1:] <= self.col_indices[:-1]
        starts = np.asarray(self.row_offsets[1:-1])
        stalls[starts[(starts > 0) & (starts < self.nnz)] - 1] = False
        if stalls.any():
            row = np.searchsorted(self.row_offsets, np.argmax(stalls) + 1, side="right") - 1
            raise ValueError(f"row {row} columns not increasing")


def cg_solve(A, b, rel_tol=1e-12, max_iter=None, x0=None, stats=None, precond=None, r0=None):
    """Preconditioned conjugate gradients for SPD systems.

    ``precond`` maps a residual r to z = P^-1 r for an SPD approximation P
    of A; by default P is the diagonal of A (Jacobi). Terminates when the
    true residual satisfies ||Ax - b|| <= rel_tol*||b||; raises
    :class:`CgError` (with the final residual attached) otherwise. Pass a
    dict as ``stats`` to receive the iteration count, the final residual
    norm and, as ``"residual_vector"``, the true residual b - A x itself.
    A caller that knows the start's residual b - A x0 passes it as ``r0``,
    which saves the first product.

    A curvature p^T A p <= 0 ends the iteration. On an SPD matrix it means
    round-off has swamped the search direction, as when ``rel_tol`` asks for
    more than round-off allows. The solve then returns if the true residual
    meets the target, raises that CG stalled if the residual is within
    ``_ROUNDOFF`` times eps (||A||_F ||x|| + ||b||), and otherwise raises
    that the matrix is not positive definite.
    """
    b = np.asarray(b, dtype=float)
    n = A.n_rows
    if max_iter is None:
        max_iter = 10 * n
    bnorm = np.linalg.norm(b)

    def done(x, it, r, res):
        if stats is not None:
            stats["iterations"] = it
            stats["residual"] = float(res)
            stats["residual_vector"] = r
        return x

    if bnorm == 0.0:
        return done(np.zeros(n), 0, np.zeros(n), 0.0)
    target = rel_tol * bnorm

    if precond is None:
        inv_diag = 1.0 / A.diagonal()

        def precond(r):
            return inv_diag * r

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - A.matvec(x) if r0 is None else np.array(r0, dtype=float)
    z = precond(r)
    p = z.copy()
    rz = r @ z
    res = np.linalg.norm(r)
    it = 0
    while it < max_iter:
        if res <= target:
            # recurrence residual can drift; confirm with the true residual
            r_true = b - A.matvec(x)
            res = np.linalg.norm(r_true)
            if res <= target:
                return done(x, it, r_true, res)
        Ap = A.matvec(p)
        pAp = p @ Ap
        if pAp <= 0.0:
            res = np.linalg.norm(b - A.matvec(x))
            roundoff = np.finfo(float).eps * (np.linalg.norm(A.values) * np.linalg.norm(x) + bnorm)
            if res > target and res > _ROUNDOFF * roundoff:
                raise CgError("matrix is not positive definite", res, it)
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = precond(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
        res = np.linalg.norm(r)
        it += 1
    r_true = b - A.matvec(x)
    res = np.linalg.norm(r_true)
    if res <= target:
        return done(x, it, r_true, res)
    raise CgError(
        f"CG stalled at residual {res:.3e} after {it} iterations "
        f"(target {target:.3e})",
        res,
        it,
    )


def gen_sym_eig(S, M):
    """Solve S phi = lambda M phi for symmetric S and SPD M.

    Reduces to a standard symmetric problem through the Cholesky factor L of
    M, C = L^-1 S L^-T, diagonalizes C with ``numpy.linalg.eigh``, and
    returns eigenvalues in ascending order together with M-orthonormal
    eigenvector columns.
    """
    S = np.asarray(S, dtype=float)
    M = np.asarray(M, dtype=float)
    if S.shape != M.shape or S.shape[0] != S.shape[1]:
        raise ValueError("matrices must be square and of equal size")
    if not np.allclose(S, S.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(S).max())):
        raise ValueError("S is not symmetric")
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("mass matrix not PD") from None
    C = np.linalg.solve(L, np.linalg.solve(L, S).T)
    w, Q = np.linalg.eigh(0.5 * (C + C.T))
    return w, np.linalg.solve(L.T, Q)
