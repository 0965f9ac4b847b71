"""Comparison time steppers: L1, the two Gruenwald-Letnikov-based schemes,
and Crank-Nicolson for the second-order-in-time equation.

These reproduce published methods as displayed, with no startup correction
beyond what each method prescribes; their loss of order on rough data is the
point of the comparison. The spatial weak form (interior mass/stiffness, L2
projections) and the stepping core ``schemes._march`` are shared with the
primary schemes: each scheme here supplies only its step coefficients,
kernel, right-hand side and starting vector, and marches the increment
U^n - U^0 (see :mod:`schemes`).

The Crank-Nicolson scheme is that of Sun & Wu (Appl. Numer. Math. 56, 2006),
of design order 3 - alpha. Its error also carries a tau^2 term from the
midpoint average of the stiffness term; for alpha near 1 the two exponents
nearly coincide and the tau^2 term competes with tau^(3-alpha) over any
practical range of step sizes.
"""

from __future__ import annotations

import math

import numpy as np

from . import meshfem, schemes
from .cq import BE, cq_weights
from .schemes import initial_coefficients

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


def _solve_l1(sys, case, grid):
    alpha = case.alpha
    N = grid.N
    b = l1_coefficients(alpha, N)
    c0 = grid.tau ** (-alpha) / math.gamma(2.0 - alpha)
    # c0 [b0 D^n + sum_{j=1..n-1}(b_j - b_{j-1}) D^{n-j}], D^m = U^m - U^0
    kernel = np.concatenate(([b[0]], b[:-1] - b[1:]))   # b_{j-1} - b_j for j >= 1
    chi, scal = _loads(case, sys, grid.times())
    start = initial_coefficients(sys, case)
    Sv = sys.stiffness.matvec(start)

    def rhs(n, conv, D):
        out = np.zeros(sys.n_dof) if conv is None else c0 * sys.mass.matvec(conv)
        if chi is not None:
            out += scal[n] * chi
        out -= Sv
        return out

    return schemes._march(sys, grid, (c0, 1.0), kernel, rhs, start)


def _solve_zeng(sys, case, grid, variant):
    alpha = case.alpha
    N = grid.N
    # weights of (1 - z)^alpha: the backward Euler table at unit step
    w = cq_weights(BE, alpha, 1.0, N)
    ta = grid.tau ** (-alpha)
    chi, scal = _loads(case, sys, grid.times())
    half = 0.5 ** alpha
    start = initial_coefficients(sys, case)
    Sv = sys.stiffness.matvec(start)
    if variant == 1:
        signed = w * (-1.0) ** np.arange(N + 1)     # weights of (1 + z)^alpha
        rev = np.ascontiguousarray(signed[::-1])    # rev[N-n+m] = signed[n-m]
        sum_signed = np.cumsum(signed)              # weighs S U^0 at step n

    def rhs(n, conv, D):
        # the sum_{j=0..n} w_j D^{n-j} with D^n moved to the left
        out = np.zeros(sys.n_dof) if conv is None else -ta * sys.mass.matvec(conv)
        if variant == 1:
            # sum_{m=0..n} signed_{n-m} S U^m with S D^n moved to the left
            out -= half * (sys.stiffness.matvec(rev[N - n : N] @ D[:n]) + sum_signed[n] * Sv)
            if chi is not None:
                out += half * float(np.dot(signed[: n + 1], scal[n::-1])) * chi
        else:
            out -= 0.5 * alpha * sys.stiffness.matvec(D[n - 1]) + Sv
            if chi is not None:
                out += ((1.0 - 0.5 * alpha) * scal[n] + 0.5 * alpha * scal[n - 1]) * chi
        return out

    step = (ta * w[0], half * w[0]) if variant == 1 else (ta * w[0], 1.0 - 0.5 * alpha)
    return schemes._march(sys, grid, step, w, rhs, start)


def _solve_cn(sys, case, grid):
    """Sun-Wu Crank-Nicolson scheme for 1 < alpha < 2, order 3 - alpha.

    The Caputo derivative is approximated at the half steps t_(n-1/2) by the
    weights a_j acting on the increments U^j - U^(j-1); the stiffness term is
    the average of its values at U^(n-1) and U^n. Summed by parts with
    D^m = U^m - U^0 (D^0 = 0), the increments become one kernel on D,
    k_j = 2 a_(j-1) - a_j - a_(j-2) with a_(-1) = 0. The error behaves like
    A tau^(3-alpha) + B tau^2. At alpha = 1.1 on case d (t = 0.1, M = 16) the
    two terms have opposite signs in the smallest mode and cancel between
    N = 320 and N = 640, so a plain rate estimate there first climbs far
    above 3 - alpha and then collapses. On a doubling ladder, e_N - 4 e_2N
    removes the tau^2 term and exposes the design rate.
    """
    alpha = case.alpha
    tau = grid.tau
    N = grid.N
    a = cn_coefficients(alpha, N)
    c = tau ** (-alpha) / math.gamma(3.0 - alpha)
    # k_j = -(second difference of 0, 0, a_0, a_1, ...) at j
    kernel = -np.diff(np.concatenate(([0.0, 0.0], a)), 2)

    b_vec = np.zeros(sys.n_dof)
    if case.b is not None:
        b_vec = meshfem.l2_project(sys, case.b)
    chi = scal_mid = None
    if case.source_space is not None:
        chi = meshfem.load_vector(sys, case.source_space)
        # f(t_(n-1/2)) for n = 1..N, stored at n - 1
        scal_mid = np.array([case.source_time((n - 0.5) * tau) for n in range(1, N + 1)])

    start = initial_coefficients(sys, case)
    Sv = sys.stiffness.matvec(start)

    def rhs(n, conv, D):
        acc = a[n - 1] * tau * b_vec
        if conv is not None:
            acc += conv
        out = c * sys.mass.matvec(acc) - 0.5 * sys.stiffness.matvec(D[n - 1]) - Sv
        if chi is not None:
            out += scal_mid[n - 1] * chi
        return out

    return schemes._march(sys, grid, (c * a[0], 0.5), kernel, rhs, start)


def solve_baseline(sys, case, kind, grid):
    """Run one of the comparison schemes; kind in {'l1','zeng1','zeng2','cn'}.

    The scheme runs at the order ``case.alpha``, as the case's reference does.
    """
    kind = kind.lower()
    if kind not in KINDS:
        raise ValueError(f"unknown baseline {kind!r}")
    if kind == "cn":
        if not (1.0 < case.alpha < 2.0):
            raise ValueError("Crank-Nicolson variant requires 1 < alpha < 2")
        return _solve_cn(sys, case, grid)
    if not (0.0 < case.alpha < 1.0):
        raise ValueError(f"{kind} requires 0 < alpha < 1")
    if kind == "l1":
        return _solve_l1(sys, case, grid)
    return _solve_zeng(sys, case, grid, 1 if kind == "zeng1" else 2)
