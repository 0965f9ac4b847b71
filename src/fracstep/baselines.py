"""Comparison time steppers: L1, the two Gruenwald-Letnikov-based schemes,
and Crank-Nicolson for the second-order-in-time equation.

These reproduce published methods as displayed, with no startup correction
beyond what each method prescribes; their loss of order on rough data is the
point of the comparison. The spatial weak form (interior mass/stiffness, L2
projections) is shared with the primary schemes.

The Crank-Nicolson scheme is that of Sun & Wu (Appl. Numer. Math. 56, 2006),
of design order 3 - alpha. Its error also carries a tau^2 term from the
midpoint average of the stiffness term; for alpha near 1 the two exponents
nearly coincide and the tau^2 term competes with tau^(3-alpha) over any
practical range of step sizes.
"""

from __future__ import annotations

import math

import numpy as np

from . import meshfem
from .cq import BE, cq_weights
from .numkit import cg_solve
from .schemes import SolutionHistory, initial_coefficients

KINDS = ("l1", "zeng1", "zeng2", "cn")


def _loads(case, sys, times):
    if case.source_space is None:
        return None, None
    chi = meshfem.load_vector(sys, case.source_space)
    scal = np.array([case.source_time(t) for t in times])
    return chi, scal


def l1_coefficients(alpha, n_terms):
    """b_j = (j+1)^(1-alpha) - j^(1-alpha)."""
    j = np.arange(n_terms, dtype=float)
    return (j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha)


def cn_coefficients(alpha, n_terms):
    """a_j = (j+1)^(2-alpha) - j^(2-alpha)."""
    j = np.arange(n_terms, dtype=float)
    return (j + 1.0) ** (2.0 - alpha) - j ** (2.0 - alpha)


def _solve_l1(sys, case, alpha, grid, rel_tol):
    tau = grid.tau
    N = grid.N
    b = l1_coefficients(alpha, N)
    c0 = tau ** (-alpha) / math.gamma(2.0 - alpha)
    A, precond = sys.step_system(c0, 1.0)
    chi, scal = _loads(case, sys, grid.times())

    U = np.zeros((N + 1, sys.n_dof))
    U[0] = initial_coefficients(sys, case)
    stats = []
    for n in range(1, N + 1):
        # c0 [b0 U^n + sum_{j=1..n-1}(b_j - b_{j-1}) U^{n-j} - b_{n-1} U^0]
        acc = b[n - 1] * U[0]
        if n > 1:
            diffs = b[: n - 1] - b[1:n]          # b_{j-1} - b_j for j=1..n-1
            acc += np.tensordot(diffs, U[n - 1 : 0 : -1], axes=(0, 0))
        rhs = c0 * sys.mass.matvec(acc)
        if chi is not None:
            rhs += scal[n] * chi
        cg_stats = {}
        U[n] = cg_solve(
            A, rhs, rel_tol=rel_tol, x0=U[n - 1], stats=cg_stats, precond=precond
        )
        stats.append((n, cg_stats["iterations"], cg_stats["residual"]))
    return SolutionHistory(U, grid, stats)


def _solve_zeng(sys, case, alpha, grid, variant, rel_tol):
    tau = grid.tau
    N = grid.N
    # weights of (1 - z)^alpha: the backward Euler table at unit step
    w = cq_weights(BE, alpha, 1.0, N).weights
    ta = tau ** (-alpha)
    chi, scal = _loads(case, sys, grid.times())

    if variant == 1:
        half = 0.5 ** alpha
        A, precond = sys.step_system(ta * w[0], half * w[0])
    else:
        A, precond = sys.step_system(ta * w[0], 1.0 - 0.5 * alpha)

    U = np.zeros((N + 1, sys.n_dof))
    U[0] = initial_coefficients(sys, case)
    SU = np.zeros((N + 1, sys.n_dof))
    SU[0] = sys.stiffness.matvec(U[0])
    cumw = np.cumsum(w)
    stats = []
    for n in range(1, N + 1):
        # sum_{j=0..n} w_j (U^{n-j} - U^0): the j=n term cancels into cumw
        acc = cumw[n - 1] * U[0]
        if n > 1:
            acc -= np.tensordot(w[1:n], U[n - 1 : 0 : -1], axes=(0, 0))
        rhs = ta * sys.mass.matvec(acc)
        if variant == 1:
            sgn = (-1.0) ** np.arange(1, n + 1)
            rhs -= half * np.tensordot(w[1 : n + 1] * sgn, SU[n - 1 :: -1], axes=(0, 0))
            if chi is not None:
                signs = (-1.0) ** np.arange(n + 1)
                rhs += half * float(np.dot(w[: n + 1] * signs, scal[n::-1])) * chi
        else:
            rhs -= 0.5 * alpha * SU[n - 1]
            if chi is not None:
                rhs += ((1.0 - 0.5 * alpha) * scal[n] + 0.5 * alpha * scal[n - 1]) * chi
        cg_stats = {}
        U[n] = cg_solve(
            A, rhs, rel_tol=rel_tol, x0=U[n - 1], stats=cg_stats, precond=precond
        )
        SU[n] = sys.stiffness.matvec(U[n])
        stats.append((n, cg_stats["iterations"], cg_stats["residual"]))
    return SolutionHistory(U, grid, stats)


def _solve_cn(sys, case, alpha, grid, rel_tol):
    """Sun-Wu Crank-Nicolson scheme for 1 < alpha < 2, order 3 - alpha.

    The Caputo derivative is approximated at the half steps t_(n-1/2) by the
    weights a_j acting on the increments U^j - U^(j-1); the stiffness term is
    the average of its values at U^(n-1) and U^n. The error behaves like
    A tau^(3-alpha) + B tau^2. At alpha = 1.1 on case d (t = 0.1, M = 16) the
    two terms have opposite signs in the smallest mode and cancel between
    N = 320 and N = 640, so a plain rate estimate there first climbs far
    above 3 - alpha and then collapses. On a doubling ladder, e_N - 4 e_2N
    removes the tau^2 term and exposes the design rate.
    """
    tau = grid.tau
    N = grid.N
    a = cn_coefficients(alpha, N)
    c = tau ** (-alpha) / math.gamma(3.0 - alpha)
    A, precond = sys.step_system(c * a[0], 0.5)

    b_vec = np.zeros(sys.n_dof)
    if case.b is not None:
        b_vec = meshfem.l2_project(sys, case.b)
    chi = scal_mid = None
    if case.source_space is not None:
        chi = meshfem.load_vector(sys, case.source_space)
        scal_mid = np.array(
            [case.source_time((n - 0.5) * tau) for n in range(N + 1)]
        )

    U = np.zeros((N + 1, sys.n_dof))
    U[0] = initial_coefficients(sys, case)
    stats = []
    for n in range(1, N + 1):
        acc = a[0] * U[n - 1] + a[n - 1] * tau * b_vec
        if n > 1:
            # + sum_{j=1..n-1} (a_{n-j-1} - a_{n-j}) (U^j - U^{j-1})
            diffs = a[n - 2 :: -1] - a[n - 1 : 0 : -1]
            acc += np.tensordot(diffs, U[1:n] - U[0 : n - 1], axes=(0, 0))
        rhs = c * sys.mass.matvec(acc) - 0.5 * sys.stiffness.matvec(U[n - 1])
        if chi is not None:
            rhs += scal_mid[n] * chi
        cg_stats = {}
        U[n] = cg_solve(
            A, rhs, rel_tol=rel_tol, x0=U[n - 1], stats=cg_stats, precond=precond
        )
        stats.append((n, cg_stats["iterations"], cg_stats["residual"]))
    return SolutionHistory(U, grid, stats)


def solve_baseline(sys, case, kind, alpha, grid, rel_tol=1e-12):
    """Run one of the comparison schemes; kind in {'l1','zeng1','zeng2','cn'}."""
    kind = kind.lower()
    if kind not in KINDS:
        raise ValueError(f"unknown baseline {kind!r}")
    if kind == "cn":
        if not (1.0 < alpha < 2.0):
            raise ValueError("Crank-Nicolson variant requires 1 < alpha < 2")
        return _solve_cn(sys, case, alpha, grid, rel_tol)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"{kind} requires 0 < alpha < 1")
    if kind == "l1":
        return _solve_l1(sys, case, alpha, grid, rel_tol)
    return _solve_zeng(sys, case, alpha, grid, 1 if kind == "zeng1" else 2, rel_tol)
