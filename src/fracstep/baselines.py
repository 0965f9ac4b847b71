"""Comparison time steppers: L1, the two Gruenwald-Letnikov-based schemes,
and Crank-Nicolson for the second-order-in-time equation.

These reproduce published methods as displayed, with no startup correction
beyond what each method prescribes; their loss of order on rough data is the
point of the comparison. Each is a spec for the one core ``schemes._march``
(see :mod:`schemes`): a mass kernel k^M, a stiffness kernel k^S and its
loads, for the increment U^n - U^0 on the shared spatial weak form.

* L1: k^M the L1 weights, k^S = [1], loads f(t_n).
* GL-I (``zeng1``): tau^-alpha (1 - z)^alpha on the mass side and
  ((1 + z) / 2)^alpha on the stiffness side and on the source samples.
* GL-II (``zeng2``): tau^-alpha (1 - z)^alpha and the two-tap
  (1 - alpha/2, alpha/2) on the stiffness side and on the source samples.
* Crank-Nicolson: the kernel below, k^S = (1/2, 1/2), loads f(t_(n-1/2))
  and the b term.

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

# the open interval of orders alpha each comparison scheme is defined on
ORDERS = {"l1": (0.0, 1.0), "zeng1": (0.0, 1.0), "zeng2": (0.0, 1.0), "cn": (1.0, 2.0)}
KINDS = tuple(ORDERS)


def check_order(kind, alpha):
    """ValueError unless the comparison scheme ``kind`` is defined at ``alpha``."""
    lo, hi = ORDERS[kind]
    if not lo < alpha < hi:
        name = "Crank-Nicolson variant" if kind == "cn" else kind
        raise ValueError(f"{name} requires {lo:g} < alpha < {hi:g}")


def _source(sys, case, times, weigh=lambda f: f):
    """The source's load pair, chi weighed by ``weigh`` of the samples
    f(times), in a list; an empty list without a source."""
    if case.source_space is None:
        return []
    f = np.array([case.source_time(t) for t in times])
    return [(weigh(f), meshfem.load_vector(sys, case.source_space))]


def l1_coefficients(alpha, n_terms):
    """b_j = (j+1)^(1-alpha) - j^(1-alpha)."""
    j = np.arange(n_terms, dtype=float)
    return (j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha)


def cn_coefficients(alpha, n_terms):
    """a_j = (j+1)^(2-alpha) - j^(2-alpha)."""
    j = np.arange(n_terms, dtype=float)
    return (j + 1.0) ** (2.0 - alpha) - j ** (2.0 - alpha)


def _solve_l1(sys, case, grid):
    c0 = grid.tau ** (-case.alpha) / math.gamma(2.0 - case.alpha)
    # c0 [b_0 D^n + sum_{j>=1} (b_j - b_(j-1)) D^(n-j)], D^m = U^m - U^0
    mass = c0 * np.diff(l1_coefficients(case.alpha, grid.N), prepend=0.0)
    loads = _source(sys, case, grid.times())
    return schemes._march(sys, grid, mass, np.ones(1), loads, initial_coefficients(sys, case))


def _solve_zeng(sys, case, grid, variant):
    alpha = case.alpha
    # weights of (1 - z)^alpha: the backward Euler table at unit step
    w = cq_weights(BE, alpha, 1.0, grid.N)
    if variant == 1:
        stiff = 0.5 ** alpha * w * (-1.0) ** np.arange(grid.N + 1)   # ((1 + z)/2)^alpha
        loads = _source(sys, case, grid.times(), lambda f: schemes._applied(stiff, f))
    else:
        stiff = np.array([1.0 - 0.5 * alpha, 0.5 * alpha])
        loads = _source(sys, case, grid.times(),
                        lambda f: stiff[0] * f + stiff[1] * np.concatenate(([0.0], f[:-1])))
    mass = grid.tau ** (-alpha) * w
    return schemes._march(sys, grid, mass, stiff, loads, initial_coefficients(sys, case))


def _solve_cn(sys, case, grid):
    """Sun-Wu Crank-Nicolson scheme for 1 < alpha < 2, order 3 - alpha.

    The Caputo derivative is approximated at the half steps t_(n-1/2) by the
    weights a_j acting on the increments U^j - U^(j-1); the stiffness term is
    the average of its values at U^(n-1) and U^n. Summed by parts with
    D^m = U^m - U^0 (D^0 = 0), the increments become one kernel on D,
    c (a_j - 2 a_(j-1) + a_(j-2)) with a_(-1) = a_(-2) = 0. The error
    behaves like A tau^(3-alpha) + B tau^2. At alpha = 1.1 on case d
    (t = 0.1, M = 16) the two terms have opposite signs in the smallest
    mode and cancel between N = 320 and N = 640, so a plain rate estimate
    there first climbs far above 3 - alpha and then collapses. On a doubling
    ladder, e_N - 4 e_2N removes the tau^2 term and exposes the design rate.
    """
    alpha, tau, N = case.alpha, grid.tau, grid.N
    a = cn_coefficients(alpha, N)
    c = tau ** (-alpha) / math.gamma(3.0 - alpha)
    mass = c * np.diff(np.concatenate(([0.0, 0.0], a)), 2)
    # f(t_(n-1/2)) at n = 1..N
    loads = _source(sys, case, tau * np.concatenate(([0.0], np.arange(0.5, N))))
    if case.b is not None:
        loads.append((c * tau * np.concatenate(([0.0], a)), meshfem.load_vector(sys, case.b)))
    return schemes._march(sys, grid, mass, np.array([0.5, 0.5]), loads,
                          initial_coefficients(sys, case))


@schemes.in_sine_view
def solve_baseline(sys, case, kind, grid):
    """Run one of the comparison schemes; kind in {'l1','zeng1','zeng2','cn'}.

    The scheme runs at the order ``case.alpha``, as the case's reference does.
    """
    kind = kind.lower()
    if kind not in KINDS:
        raise ValueError(f"unknown baseline {kind!r}")
    check_order(kind, case.alpha)
    if kind == "cn":
        return _solve_cn(sys, case, grid)
    if kind == "l1":
        return _solve_l1(sys, case, grid)
    return _solve_zeng(sys, case, grid, 1 if kind == "zeng1" else 2)
