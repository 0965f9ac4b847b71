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
blocks of ``BLOCK``. The history sum sum_{j>=1} k_j D^(n-j) of a long
kernel splits at the block's first step n0: the far part, rows before n0,
comes for the whole block from one product of a Toeplitz window of the
kernel with those rows (block convolution, Hairer, Lubich & Schlichte,
SIAM J. Sci. Stat. Comput. 6, 1985), and the near part comes from the
block's own earlier rows. The window products (far and near parts) and
the block loads of a sub-block march run in column panels of at most
``PANEL`` multiply-adds, the size below which OpenBLAS runs a product on
one thread: split among threads, a product rounds differently, and the CG
start of :mod:`meshfem`, a polynomial through up to six earlier solutions,
carries such differences from step to step into the output. The one-step
loop's loads row ``C[n].dot(B)`` and near sum ``rev[...].dot(U[...])`` run
unpanelled. Up to M=64 they give the same bits under one and two BLAS
threads, as the continuous-integration workflow compares; at M=128 the
near sum does not. After the last step v is added to every row in place.

A march solves its steps in one of two ways:

* One step at a time (``_step_loop``), for every CG march and every march
  of at most ``BLOCK`` steps. The far product is the mass kernel's; each
  step adds its near part, and a short kernel, and GL-I's stiffness
  kernel, is summed over all its rows. The loads of step n are one product
  of a coefficient row with the stacked load vectors. Every product is
  that of the direct sum; only the order of summation moves.
* ``SUB`` steps per array call (``_division_blocks``), when the step
  solve is a division, as in the modal view, and N exceeds ``BLOCK``. Per
  mode of eigenvalue lam, the steps of a sub-block form a lower-triangular
  Toeplitz system with the entries kappa_j = k^M_j + lam k^S_j, whose
  inverse holds the first ``SUB`` coefficients g_j of the power series
  1 / (k^M(xi) + lam k^S(xi)). They are formed once per march, and a
  sub-block is one ``einsum`` of its right side with them. That right side
  is the block's loads (one product per block), less the far part of
  every kernel longer than 1 (one window product per block and kernel,
  the stiffness one weighed by lam) and the near part (one window product
  per sub-block and kernel). The block solves for its rows less
  p = D^(n0-1): the far window weighs row n0-1 by the kernel's partial
  sums, a one-entry kernel weighs p by its entry, and p is added back
  after the block. This takes out of the right side its large, nearly
  cancelling bulk, which the growing g_j of a diffusion-wave march
  (alpha > 1) would otherwise amplify: without it the round-off of such
  marches grew up to 16 times the one-step loop's, with it the two stay
  alike. The products differ from the direct sum's, so the trajectory
  moves at round-off.

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
from .cq import cq_weights, get_rule

# steps per block of the history sum: its far part is one product per block
BLOCK = 32

# steps per sub-block of a march of divisions longer than BLOCK: each is one
# array call through the modes' inverse kernels
SUB = 8

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
    the last row alone, and the first read of ``U`` maps every row in place,
    each by the view's ``nodal``.
    """

    def __init__(self, U, solve_stats=None, backend="cg", view=None):
        self._U, self.view = U, view
        self.solve_stats = [] if solve_stats is None else solve_stats
        self.backend = backend

    @property
    def U(self):
        if self.view is not None:
            for row in self._U:
                row[:] = self.view.nodal(row)
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
    return np.convolve(kernel, samples)[: len(samples)]


def _source_scalars(case, cfg, rule, grid):
    """The source's coefficient at each step: f(t_n), or, corrected, the
    order-1 quadrature applied to the exact antiderivative samples."""
    times = grid.times()
    if not cfg.corrected:
        return np.array([case.source_time(t) for t in times])
    w1 = cq_weights(rule, 1.0, grid.tau, grid.N)
    return _applied(w1, case.source_time_integral(times))


def _product(a, b, out):
    """out = a @ b, in column panels of at most PANEL multiply-adds."""
    width = max(1, PANEL // a.size)
    if width >= b.shape[1]:
        return np.matmul(a, b, out=out)
    for c in range(0, b.shape[1], width):
        np.matmul(a, b[:, c : c + width], out=out[:, c : c + width])
    return out


def _window(padded, L, m0, m1, r0, r1):
    """The Toeplitz view W[i, c] = kernel[m0 + i - (r0 + c)] that weighs row
    r0 + c at step m0 + i, for m0 <= m0 + i < m1 and r0 <= r0 + c < r1 <= m0.
    ``padded`` is BLOCK zeros, then the kernel of length L reversed:
    padded[BLOCK + L-1-j] = kernel[j]; its zeros stand for j >= L."""
    size = padded.itemsize
    s0 = BLOCK + L - 1 - m0 + r0
    return np.ndarray((m1 - m0, r1 - r0), float, padded, size * s0, (-size, size))


def _march(sys, grid, mass_kernel, stiff_kernel, loads, start):
    """The one stepper behind every scheme (see the module docstring).

    ``loads`` lists pairs (c, F) of a coefficient sequence c[0..N] and a
    load F in the system's coordinates; F = None weighs S start itself.
    Returns the trajectory U^n = D^n + start.
    """
    N = grid.N
    S_start = sys.stiffness.matvec(start)
    steps = np.minimum(np.arange(N + 1), len(stiff_kernel) - 1)
    loads = [(-np.cumsum(stiff_kernel)[steps], None), *loads]
    C = np.column_stack([c for c, _ in loads])
    B = np.array([S_start if F is None else F for _, F in loads])
    kernels = ((mass_kernel, sys.mass), (stiff_kernel, sys.stiffness))
    solver = sys.step_system(mass_kernel[0], stiff_kernel[0])
    U = np.zeros((N + 1, sys.n_dof))
    if isinstance(solver, meshfem.Diagonal) and N > BLOCK:
        _division_blocks(solver, kernels, C, B, U)
    else:
        _step_loop(solver, kernels, C, B, U)
    U += start
    record = [(0, None)] * N if solver.record is None else solver.record
    stats = [(n, its, res) for n, (its, res) in enumerate(record, start=1)]
    return SolutionHistory(U, stats, solver.backend)


def _step_loop(solver, kernels, C, B, U):
    """Steps 1..N one solve at a time, into the rows of U.

    A block with a far part stores it in its own rows before they are
    solved; a step's near product then reads its own row with weight 1.
    """
    N = len(U) - 1
    # per kernel longer than 1: rev, with rev[L-1-j] = kernel[j] weighing
    # D^(n-j) at step n and rev[L-1] = 1 weighing a row that holds the far
    # part; L is N+1, N or 2; A; the first row a step reads; and 1 when a
    # step also reads its own row
    hist = []
    for k, A in kernels:
        if len(k) > 1:
            rev = k[::-1].copy()
            rev[-1] = 1.0
            hist.append((rev, len(k), A, 1, 0))
    L = len(kernels[0][0])   # the far product is the mass kernel's
    padded = np.concatenate([np.zeros(BLOCK), hist[0][0]]) if min(L, N) > BLOCK else None
    for n0 in range(1, N + 1, BLOCK):
        n1 = min(n0 + BLOCK, N + 1)
        lo = max(1, n0 - L + 1)
        spans = hist
        if padded is not None and lo < n0:
            _product(_window(padded, L, n0, n1, lo, n0), U[lo:n0], U[n0:n1])
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


def _division_blocks(solver, kernels, C, B, U):
    """Steps 1..N of a march whose step solves are divisions, SUB steps per
    array call through each mode's inverse kernel, into the rows of U (see
    the module docstring)."""
    N, n_dof = len(U) - 1, U.shape[1]
    long = [(k, A) for k, A in kernels if len(k) > 1]
    # g, after SUB-1 zero rows: the inverse kernel g_0..g_(SUB-1) of each
    # mode's kappa_j = k^M_j M + k^S_j S, g_0 = 1 / kappa_0 and
    # g_i = -g_0 sum_{j=1..i} kappa_j g_(i-j)
    g = np.zeros((2 * SUB - 1, n_dof))
    inv = g[SUB - 1 :]
    inv[0] = 1.0 / solver.d
    minus_g0 = -inv[0]
    for i in range(1, SUB):
        inv[i] = minus_g0 * sum(A.matvec(k[1 : i + 1] @ inv[i - 1 :: -1][: len(k) - 1])
                                for k, A in long)
    # W[i, m] = g_(i-m), zero for m > i: the inverse of a sub-block's system
    row = g.strides[0]
    W = np.ndarray((SUB, SUB, n_dof), float, g, row * (SUB - 1), (row, -row, g.itemsize))
    # per kernel longer than 1: BLOCK zeros and the kernel reversed, its
    # length, its diagonal and its partial sums sum_{j<=i} kernel[j],
    # i = 1..BLOCK; per kernel of one entry, that entry and its diagonal
    spans = [(np.concatenate([np.zeros(BLOCK), k[::-1]]), len(k), A,
              np.cumsum(k)[np.minimum(np.arange(1, BLOCK + 1), len(k) - 1)]) for k, A in long]
    heads = [(k[0], A) for k, A in kernels if len(k) == 1]
    for n0 in range(1, N + 1, BLOCK):
        n1 = min(n0 + BLOCK, N + 1)
        block, p = U[n0:n1], U[n0 - 1]
        _product(C[n0:n1], B, block)
        # the far part, with row n0-1 weighed by the partial sums: the block
        # then solves for its rows less p = D^(n0-1)
        for padded, L, A, sums in spans:
            r0 = max(1, n0 - L + 1)
            if r0 < n0:
                window = _window(padded, L, n0, n1, r0, n0).copy()
                window[:, -1] = sums[: n1 - n0]
                block -= A.matvec(_product(window, U[r0:n0], np.empty_like(block)))
        for k0, A in heads:
            block -= A.matvec(k0 * p)
        for m0 in range(n0, n1, SUB):
            m1 = min(m0 + SUB, n1)
            for padded, L, A, _ in spans:
                r0 = max(n0, m0 - L + 1)
                if r0 < m0:
                    near = _window(padded, L, m0, m1, r0, m0)
                    U[m0:m1] -= A.matvec(_product(near, U[r0:m0], np.empty((m1 - m0, n_dof))))
            U[m0:m1] = np.einsum("imk,mk->ik", W[: m1 - m0, : m1 - m0], U[m0:m1])
        block += p


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
        loads.append((_applied(w, grid.times()), meshfem.load_vector(sys, case.b)))
    if case.source_space is not None:
        src = _source_scalars(case, cfg, rule, grid)
        loads.append((src + first * src[0], meshfem.load_vector(sys, case.source_space)))
    return _march(sys, grid, w, np.ones(1), loads, initial_coefficients(sys, case))
