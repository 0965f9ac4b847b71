"""Fully discrete time-stepping schemes for the benchmark problems.

Every scheme, the two steppers here and the four of :mod:`baselines`, is
convolution quadrature in the generating-function form of the paper's
error analysis: for the increment D^n = U^n - v, D^0 = 0, step n solves

    sum_{j=0..n} (k^M_j M + k^S_j S) D^(n-j)
        = sum_i c_i[n] F_i - (sum_{j<=n} k^S_j) S v

with the mass M, the stiffness S, a mass kernel k^M, a stiffness kernel
k^S and load vectors F_i weighed by coefficient sequences c_i. A scheme is
those kernels and loads and the starting vector v = U^0, nothing more; the
initial value enters once, as S v, and never has to cancel against a
convolution at its own scale. Every scheme starts from the L2 projection
of the initial data (``initial_coefficients``), as the nonsmooth-data
analysis does (Jin, Lazarov & Zhou, SIAM J. Numer. Anal. 51, 2013); it is
also the discrete reference at t = 0.

The two steppers here take the quadrature weights w of the fractional
differentiation order as k^M and k^S = [1]. Their loads are the source
(the samples f(t_n), or with ``corrected`` the order-1 quadrature of the
exact time antiderivative, which restores the design rate when the source
has limited temporal smoothness) and, for the second-order-in-time
equation, M b weighed by sigma_n, the weights applied to the ramp t_m. The
second-order stepper's first-step modification is two load coefficients
at n = 1, -1/2 on S v and +1/2 f(0) on the source; without it the scheme
drops to first order for nonzero initial values.

One core, ``_march``, solves every scheme. It hands the step pair
(a, b) = (k^M_0, k^S_0) to ``sys.step_system``, whose solver picks its own
start, and keeps the one (N+1) x n_dof trajectory. The steps run in
blocks of ``BLOCK``. The history sum sum_{j>=1} k_j D^(n-j) of a long mass
kernel splits at the block's first step n0: the far part, rows before n0,
comes for the whole block from one product of a Toeplitz window of the
kernel with those rows (block convolution, Hairer, Lubich & Schlichte,
SIAM J. Sci. Stat. Comput. 6, 1985), and each step adds the near part, at
most ``BLOCK`` rows of its own block. Every product is that of the direct
sum; only the order of summation moves. The far product runs in column
panels of at most ``PANEL`` multiply-adds, the size below which OpenBLAS
runs a product on one thread: split among threads, the product rounds
differently, and the CG start of :mod:`meshfem`, a polynomial through up
to six earlier solutions, carries such differences from step to step into
the output. Panels keep the far product's bits the same for every thread
count. A short kernel, and GL-I's stiffness kernel, is summed over all its
rows at each step. The loads of step n are one product of a coefficient
row with the stacked load vectors, and after the last step v is added to
every row in place.
The system passed in fixes the coordinates, which the trajectory keeps,
and the solver (see :mod:`meshfem`): the modal view, where every scheme is
one scalar recursion per mode, or the sine view, with CG and a diagonal
preconditioner. Studies step in one of the two. On ``fem_system(M)``
itself, ``in_sine_view`` marches in its sine view, and the history maps its
rows back to nodal coordinates when they are read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import meshfem
from .cq import cq_apply, cq_weights, get_rule

# steps per block of the history sum: its far part is one product per block
BLOCK = 32

# multiply-adds per column panel of that product (one column at the least):
# OpenBLAS runs a product of at most 65,536 x 4 of them on one thread
PANEL = 65536 * 4


@dataclass(frozen=True)
class TimeGrid:
    T: float
    N: int

    def __post_init__(self):
        if isinstance(self.N, bool) or not isinstance(self.N, (int, np.integer)):
            raise ValueError(f"time grid needs an integer N, not {self.N!r}")
        if self.N < 1 or not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError("time grid needs a finite T > 0 and N >= 1")

    @property
    def tau(self):
        return self.T / self.N

    def times(self):
        return self.tau * np.arange(self.N + 1)


@dataclass(frozen=True)
class SchemeConfig:
    stepper: str = "BE"              # "BE" | "SBD"
    equation: str = "subdiffusion"   # "subdiffusion" | "diffusion_wave"
    corrected: bool = True

    def __post_init__(self):
        if self.stepper.upper() not in ("BE", "SBD"):
            raise ValueError(f"unknown stepper {self.stepper!r}")
        if self.equation not in ("subdiffusion", "diffusion_wave"):
            raise ValueError(f"unknown equation {self.equation!r}")


class SolutionHistory:
    """The trajectory U (N+1, n_dof) of a march and its step solver's record.

    ``solve_stats`` holds one (step index, CG iterations, final residual
    ||A x - rhs||) triple per time step, from the step solver's record;
    modal steps keep none and report 0 iterations and None. ``backend``
    names the step solver that answered, "cg" or "modal". U is in the
    coordinates of the system the march was given. A march on a
    ``FemSystem`` runs in its sine view and hands that view over as
    ``view``: the rows stay in sine coordinates until read, ``final`` maps
    the last row alone, and the first read of ``U`` maps every row in place.
    """

    def __init__(self, U, grid, solve_stats=None, backend="cg", view=None):
        self._U, self.grid, self.view = U, grid, view
        self.solve_stats = [] if solve_stats is None else solve_stats
        self.backend = backend

    @property
    def U(self):
        if self.view is not None:
            self.view.to_nodal(self._U)
            self.view = None
        return self._U

    @U.setter
    def U(self, U):
        self._U, self.view = U, None

    @property
    def final(self):
        if self.view is not None:
            return self.view.nodal(self._U[-1])
        return self._U[-1]


def _check_compat(case, cfg):
    if cfg.equation == "subdiffusion" and not (0.0 < case.alpha < 1.0):
        raise ValueError("subdiffusion stepping requires 0 < alpha < 1")
    if cfg.equation == "diffusion_wave" and not (1.0 < case.alpha < 2.0):
        raise ValueError("diffusion-wave stepping requires 1 < alpha < 2")


def initial_coefficients(sys, case):
    """U^0, the L2 projection of the initial data v."""
    if case.v is None:
        return np.zeros(sys.n_dof)
    return meshfem.l2_project(sys, case.v)


def _applied(kernel, samples):
    """The sequence sum_{j<=n} kernel[j] samples[n-j], n = 0..len(samples)-1."""
    return np.array([cq_apply(kernel, samples, n) for n in range(len(samples))])


def _source_scalars(case, cfg, rule, grid):
    """The source's coefficient at each step: f(t_n), or, corrected, the
    order-1 quadrature applied to the exact antiderivative samples."""
    times = grid.times()
    if not cfg.corrected:
        return np.array([case.source_time(t) for t in times])
    w1 = cq_weights(rule, 1.0, grid.tau, grid.N)
    return _applied(w1, np.array([case.source_time_integral(t) for t in times]))


def _march(sys, grid, mass_kernel, stiff_kernel, loads, start):
    """The one stepper behind every scheme (see the module docstring).

    ``loads`` lists pairs (c, F) of a coefficient sequence c[0..N] and a
    load F in the system's coordinates; F = None weighs S start itself. A
    block with a far part stores it in its own rows before they are solved;
    a step's near product then reads its own row with weight 1. Returns
    the trajectory U^n = D^n + start.
    """
    N = grid.N
    S_start = sys.stiffness.matvec(start)
    steps = np.minimum(np.arange(N + 1), len(stiff_kernel) - 1)
    loads = [(-np.cumsum(stiff_kernel)[steps], None), *loads]
    C = np.column_stack([c for c, _ in loads])
    B = np.array([S_start if F is None else F for _, F in loads])
    # per kernel longer than 1: rev, with rev[L-1-j] = kernel[j] weighing
    # D^(n-j) at step n and rev[L-1] = 1 weighing a row that holds the far
    # part; L is N+1, N or 2; A; the first row a step reads; and 1 when a
    # step also reads its own row
    hist = []
    for k, A in ((mass_kernel, sys.mass), (stiff_kernel, sys.stiffness)):
        if len(k) > 1:
            rev = k[::-1].copy()
            rev[-1] = 1.0
            hist.append((rev, len(k), A, 1, 0))
    L = len(mass_kernel)
    # padded[BLOCK + L-1-j] = mass_kernel[j] for 1 <= j < L; its leading
    # zeros stand for j >= L
    padded = np.concatenate([np.zeros(BLOCK), hist[0][0]]) if min(L, N) > BLOCK else None
    solver = sys.step_system(mass_kernel[0], stiff_kernel[0])
    U = np.zeros((N + 1, sys.n_dof))
    for n0 in range(1, N + 1, BLOCK):
        n1 = min(n0 + BLOCK, N + 1)
        lo = max(1, n0 - L + 1)
        spans = hist
        if padded is not None and lo < n0:
            # the Toeplitz view window[i, c] = padded[s0 - i + c]
            # = mass_kernel[n0 + i - (lo + c)] weighs row lo + c at step n0 + i
            s0 = BLOCK + L - 1 - n0 + lo
            size = padded.itemsize
            window = np.ndarray((n1 - n0, n0 - lo), float, padded, size * s0, (-size, size))
            far, width = U[lo:n0], max(1, PANEL // window.size)
            for c in range(0, sys.n_dof, width):
                np.matmul(window, far[:, c : c + width], out=U[n0:n1, c : c + width])
            spans = [(*hist[0][:3], n0, 1), *hist[1:]]
        # ndarray.dot runs the same BLAS product as @ (bit for bit with numpy
        # 2.4 and OpenBLAS) at about 1 us less call overhead, which modal steps feel
        for n in range(n0, n1):
            rhs = C[n].dot(B)
            for rev, L_k, A, first, own in spans:
                r0 = max(first, n - L_k + 1)
                if r0 < n + own:
                    rhs -= A.matvec(rev[L_k - 1 - n + r0 : L_k - 1 + own].dot(U[r0 : n + own]))
            U[n] = solver.solve(rhs)
    U += start
    record = [(0, None)] * N if solver.record is None else solver.record
    stats = [(n, its, res) for n, (its, res) in enumerate(record, start=1)]
    return SolutionHistory(U, grid, stats, solver.backend)


def in_sine_view(solve):
    """``solve(sys, ...)``, on a ``FemSystem`` run in its sine view; the
    history maps its rows to nodal coordinates when they are read."""

    @functools.wraps(solve)
    def run(sys, *args, **kwargs):
        if not isinstance(sys, meshfem.FemSystem):
            return solve(sys, *args, **kwargs)
        hist = solve(sys.sine, *args, **kwargs)
        hist.view = sys.sine
        return hist

    return run


@in_sine_view
def solve(sys, case, cfg, grid):
    """Run the configured stepper over the grid; returns the full history."""
    _check_compat(case, cfg)
    rule = get_rule(cfg.stepper)
    w = cq_weights(rule, case.alpha, grid.tau, grid.N)
    first, loads = np.zeros(grid.N + 1), []
    if rule.kind == "SBD":
        first[1] = 0.5    # the second-order stepper's first-step weight
        loads.append((-first, None))
    if cfg.equation == "diffusion_wave" and case.b is not None:
        b = meshfem.l2_project(sys, case.b)
        loads.append((_applied(w, grid.times()), sys.mass.matvec(b)))
    if case.source_space is not None:
        src = _source_scalars(case, cfg, rule, grid)
        loads.append((src + first * src[0], meshfem.load_vector(sys, case.source_space)))
    return _march(sys, grid, w, np.ones(1), loads, initial_coefficients(sys, case))
