"""Preconditioned conjugate gradients, the linear solver of the whole stack.

``cg_solve`` depends on numpy alone and takes any operator with ``n_rows``,
``matvec`` and ``frobenius_norm`` (and ``diagonal`` for its Jacobi
default), with any caller-supplied SPD preconditioner. In the package these
are the step matrices of ``meshfem``'s sine view, where CG is the ``cg``
backend of the step solver and answers every step solve and nodal
projection, always to the one tolerance ``meshfem.STEP_RTOL``;
``cg_solve`` itself takes any ``rel_tol``.
"""

from __future__ import annotations

import math

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
    bnorm = math.sqrt(b @ b)

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

    if x0 is None:
        # A 0 = 0 exactly, so the residual of the zero start is b itself
        x, r = np.zeros(n), b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - A.matvec(x) if r0 is None else np.array(r0, dtype=float)
    z = precond(r)
    p = z.copy()
    rz = r @ z
    res = math.sqrt(r @ r)
    step = np.empty(n)
    it = 0
    while it < max_iter:
        if res <= target:
            # recurrence residual can drift; confirm with the true residual
            r_true = b - A.matvec(x)
            res = math.sqrt(r_true @ r_true)
            if res <= target:
                return done(x, it, r_true, res)
        Ap = A.matvec(p)
        pAp = p @ Ap
        if pAp <= 0.0:
            r_true = b - A.matvec(x)
            res = math.sqrt(r_true @ r_true)
            roundoff = np.finfo(float).eps * (A.frobenius_norm() * math.sqrt(x @ x) + bnorm)
            if res > target and res > _ROUNDOFF * roundoff:
                raise CgError("matrix is not positive definite", res, it)
            break
        alpha = rz / pAp
        x += np.multiply(p, alpha, out=step)
        r -= np.multiply(Ap, alpha, out=step)
        z = precond(r)
        rz_new = r @ z
        p *= rz_new / rz
        p += z
        rz = rz_new
        res = math.sqrt(r @ r)
        it += 1
    r_true = b - A.matvec(x)
    res = math.sqrt(r_true @ r_true)
    if res <= target:
        return done(x, it, r_true, res)
    raise CgError(
        f"CG stalled at residual {res:.3e} after {it} iterations "
        f"(target {target:.3e})",
        res,
        it,
    )

