"""Minimal sparse linear algebra used by the whole solver stack.

Matrices are plain numpy arrays; a sparse matrix is stored as its
diagonals: one band per distinct offset col - row, seven for the mesh's
matrices, and a product is one contiguous multiply-add per band.
Everything here depends on numpy alone and is sized for desk-scale problems:
the ``SparseMatrix`` store and preconditioned CG (Jacobi by default, or any
caller-supplied SPD preconditioner). CG takes any operator with ``n_rows``,
``matvec`` and ``frobenius_norm`` (and ``diagonal`` for Jacobi): a
``SparseMatrix``, or the sine view's step matrices of ``meshfem``, where CG
is the ``cg`` backend of the step solver and answers every step solve and
nodal projection, always to the one tolerance ``meshfem.STEP_RTOL``;
``cg_solve`` itself takes any ``rel_tol``.
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


# A CG breakdown with the true residual within this factor of the round-off
# bound eps (||A||_F ||x|| + ||b||) is a stall; asked for rel_tol=1e-14, the
# M=16 step systems of cases (a) and (b) stall at 0.05 to 0.34 of that bound.
_ROUNDOFF = 100.0


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Sparse matrix stored by its diagonals.

    ``offsets`` are the sorted distinct diagonals o_k = col - row, integers
    in (-n_rows, n_cols); ``bands`` is an (n_offsets, n_rows) array holding
    entry (i, i + o_k) at [k, i], zero where row i lacks diagonal k or where
    column i + o_k lies outside the matrix. The matrices of the criss-cross
    mesh have 7 diagonals.

    ``from_coo`` adds each triplet into its band slot, from 0 and in input
    order, so a stored value has the bits of summing its entry's triplets
    one by one, as an element loop does. ``matvec`` forms
    y = sum_k bands[k] * x[i + o_k] over a zero-padded copy of x, in
    increasing k. Along each row that is the order of increasing column, so
    for finite x every y_i is bit-identical to adding the row's stored
    products one by one from 0.
    """

    n_rows: int
    n_cols: int
    offsets: np.ndarray
    bands: np.ndarray

    def __post_init__(self):
        offsets, bands = np.asarray(self.offsets), np.asarray(self.bands, dtype=float)
        if offsets.size == 0:
            offsets = offsets.astype(np.intp)
        if not (
            offsets.ndim == 1
            and np.issubdtype(offsets.dtype, np.integer)
            and np.all(np.diff(offsets) > 0)
            and np.all((offsets > -self.n_rows) & (offsets < self.n_cols))
        ):
            raise ValueError(
                f"offsets must be strictly increasing integers in "
                f"(-{self.n_rows}, {self.n_cols}), not {offsets.tolist()}"
            )
        if bands.shape != (len(offsets), self.n_rows):
            raise ValueError(
                f"bands must have shape ({len(offsets)}, {self.n_rows}), not {bands.shape}"
            )
        for o, band in zip(offsets.tolist(), bands):
            # the rows above and below the diagonal's part of the matrix
            if band[: max(0, -o)].any() or band[max(0, self.n_cols - o) :].any():
                raise ValueError(f"column index out of range: nonzero on diagonal {o}")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "bands", bands)
        pad = max(0, -int(offsets.min(initial=0)))
        width = max(self.n_cols, self.n_rows + int(offsets.max(initial=0)))
        object.__setattr__(self, "_pad", pad)
        object.__setattr__(self, "_padded_len", pad + width)
        # (start in the padded x, band) per diagonal, for matvec
        object.__setattr__(self, "_bands", tuple(zip((pad + offsets).tolist(), bands)))

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, vals):
        """Build from coordinate triplets; duplicate entries are summed (see
        the class docstring). Explicit zeros keep their diagonal, so matrices
        assembled from the same connectivity share their offsets even if
        entries cancel. Indices of a non-integer dtype are rejected.
        """
        rows, cols = np.asarray(rows), np.asarray(cols)
        for name, index in (("row", rows), ("column", cols)):
            # an empty list arrives as float64
            if index.size and not np.issubdtype(index.dtype, np.integer):
                raise ValueError(f"{name} indices must be integers, not {index.dtype}")
        rows, cols = rows.astype(np.intp, copy=False), cols.astype(np.intp, copy=False)
        vals = np.asarray(vals, dtype=float)
        if not rows.ndim == cols.ndim == vals.ndim == 1 or not len(rows) == len(cols) == len(vals):
            raise ValueError(
                f"triplets of unequal length: rows {rows.shape}, cols {cols.shape}, vals {vals.shape}"
            )
        if np.any((rows < 0) | (rows >= n_rows)):
            raise ValueError(f"row index out of range [0, {n_rows})")
        if np.any((cols < 0) | (cols >= n_cols)):
            raise ValueError(f"column index out of range [0, {n_cols})")
        # one flag per possible offset col - row; np.unique would import
        # numpy.ma. The triplet-sized temporaries are few and updated in
        # place: each one freed can leave the heap holding its pages.
        slots = cols - rows
        slots += n_rows - 1
        flags = np.zeros(max(n_rows + n_cols - 1, 0), dtype=bool)
        flags[slots] = True
        offsets = np.flatnonzero(flags) - (n_rows - 1)
        # each triplet's flat index into bands: its offset's band, then its row
        band_start = np.zeros(len(flags), dtype=np.intp)
        band_start[offsets + (n_rows - 1)] = np.arange(len(offsets)) * n_rows
        slots = band_start[slots]
        slots += rows
        bands = np.zeros((len(offsets), n_rows))
        np.add.at(bands.reshape(-1), slots, vals)
        return cls(n_rows, n_cols, offsets, bands)

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

    def frobenius_norm(self):
        return float(np.linalg.norm(self.bands))

    def diagonal(self):
        k = np.flatnonzero(self.offsets == 0)
        return self.bands[k[0]].copy() if len(k) else np.zeros(self.n_rows)

    def to_dense(self):
        a = np.zeros((self.n_rows, self.n_cols))
        for o, band in zip(self.offsets.tolist(), self.bands):
            # entry (i, i + o) lies at flat index i (n_cols + 1) + o
            lo, hi = max(0, -o), min(self.n_rows, self.n_cols - o)
            a.reshape(-1)[lo * (self.n_cols + 1) + o :: self.n_cols + 1][: hi - lo] = band[lo:hi]
        return a

    def scaled_add(self, coeff, other, other_coeff):
        """Return coeff*self + other_coeff*other; shapes and offsets must match."""
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols) or not np.array_equal(
            self.offsets, other.offsets
        ):
            raise ValueError("sparsity patterns differ")
        return SparseMatrix(
            self.n_rows, self.n_cols, self.offsets, coeff * self.bands + other_coeff * other.bands
        )


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
            roundoff = np.finfo(float).eps * (A.frobenius_norm() * np.linalg.norm(x) + bnorm)
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

