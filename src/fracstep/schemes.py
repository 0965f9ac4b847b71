"""Fully discrete time-stepping schemes for the benchmark problems.

Every scheme marches the increment D^n = U^n - v from D^0 = 0, which is the
convolution quadrature of the Riemann-Liouville derivative of u - v. For the
two steppers here the weak form of step n is

    (w0 M + S) D^n = loads - S v - M sum_{j=1..n-1} w_j D^(n-j)
                     (+ M sigma_n b for the second-order-in-time equation),

where w are the quadrature weights of the fractional differentiation order
and sigma_n applies the same weights to the sampled ramp t_m. The initial
value enters once, as the precomputed S v, and never has to cancel against
a convolution at its own scale.

The second-order stepper carries its first-step modification (the extra
half-stiffness and half-source terms); without it the scheme drops to first
order for nonzero initial values. The ``corrected`` flag selects how the
source enters: through the plain samples F^n, or through the backward
difference of the exact time antiderivative, which restores the design rate
when the source has limited temporal smoothness.

These two steppers and the four of :mod:`baselines` run through one core,
``_march``. It owns the solver of the step system a M + b S, the one
(N+1) x n_dof trajectory, the history sum sum_{j=1..n-1} k_j D^(n-j) of its
stored rows and each step's solve with its statistics; after the last step
it adds v to every row in place. The history sum is one matrix-vector
product of the rows D^1..D^(n-1) with a slice of the kernel, reversed once
into a contiguous copy. The system passed in fixes the coordinates and the
solver (see :mod:`meshfem`): nodal with CG on ``fem_system(M)``, or its
modal view, where every scheme is one scalar recursion per mode. A scheme
supplies

* the step coefficients (a, b);
* its kernel k;
* a closure rhs(n, conv, D) that builds the right-hand side of step n from
  the history sum, the loads, the S v term and any first-step correction;
* the starting vector v = U^0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import meshfem
from .cq import cq_weights, get_rule


@dataclass(frozen=True)
class TimeGrid:
    T: float
    N: int

    def __post_init__(self):
        if self.N < 1 or self.T <= 0.0:
            raise ValueError("time grid needs T > 0 and N >= 1")

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
    initial_projection: str = "L2"   # "L2" | "Ritz"

    def __post_init__(self):
        if self.stepper.upper() not in ("BE", "SBD"):
            raise ValueError(f"unknown stepper {self.stepper!r}")
        if self.equation not in ("subdiffusion", "diffusion_wave"):
            raise ValueError(f"unknown equation {self.equation!r}")
        if self.initial_projection not in ("L2", "Ritz"):
            raise ValueError("initial_projection must be 'L2' or 'Ritz'")


@dataclass
class SolutionHistory:
    U: np.ndarray                 # (N+1, n_dof), in the coordinates of the system
    grid: TimeGrid
    # one (step index, CG iterations, final residual ||A x - rhs||) triple per
    # time step; steps of the modal backend report 0 iterations
    solve_stats: list = field(default_factory=list)
    backend: str = "cg"           # the step solver that answered: "cg" or "modal"

    @property
    def final(self):
        return self.U[-1]


def _check_compat(case, cfg):
    if cfg.equation == "subdiffusion" and not (0.0 < case.alpha < 1.0):
        raise ValueError("subdiffusion stepping requires 0 < alpha < 1")
    if cfg.equation == "diffusion_wave" and not (1.0 < case.alpha < 2.0):
        raise ValueError("diffusion-wave stepping requires 1 < alpha < 2")


def initial_coefficients(sys, case, projection="L2"):
    if case.v is None:
        return np.zeros(sys.n_dof)
    if projection == "L2":
        return meshfem.l2_project(sys, case.v)
    if case.v_grad is None:
        raise ValueError("Ritz projection needs data with a gradient")
    return meshfem.ritz_project(sys, case.v_grad)


def _source_scalars(case, cfg, rule, grid):
    """Time-dependent scalar multiplying the chi load vector at each step.

    Plain scheme: the sample f(t_n). Corrected scheme: the order-1 quadrature
    applied to the exact antiderivative samples, computed for all n at once.
    """
    if case.source_space is None:
        return None
    times = grid.times()
    if not cfg.corrected:
        return np.array([case.source_time(t) for t in times])
    w1 = cq_weights(rule, 1.0, grid.tau, grid.N)
    anti = np.array([case.source_time_integral(t) for t in times])
    return np.array([w1[: n + 1] @ anti[n::-1] for n in range(grid.N + 1)])


def _march(sys, grid, step, kernel, rhs, start):
    """The one stepper behind every scheme: solve (a M + b S) D^n = rhs.

    ``step`` is (a, b). At step n > 1 the core forms the history sum
    conv = sum_{j=1..n-1} kernel[j] D^(n-j) and hands it to
    ``rhs(n, conv, D)`` (conv is None at n = 1), which sees D^0..D^(n-1),
    D^0 = 0. A CG solve starts from D^(n-1). The returned trajectory is
    U^n = D^n + start.
    """
    solver = sys.step_system(*step)
    N = grid.N
    U = np.zeros((N + 1, sys.n_dof))
    # rev[L-1-j] = kernel[j] weighs D^(n-j) at step n; L is N (L1, CN) or N+1
    rev = np.ascontiguousarray(kernel[::-1])
    L = len(kernel)
    stats = []
    for n in range(1, N + 1):
        conv = rev[L - n : L - 1] @ U[1:n] if n > 1 else None
        info = {}
        U[n] = solver.solve(rhs(n, conv, U), x0=U[n - 1], stats=info)
        stats.append((n, info["iterations"], info["residual"]))
    U += start
    return SolutionHistory(U, grid, stats, solver.backend)


def solve(sys, case, cfg, grid):
    """Run the configured stepper over the grid; returns the full history."""
    _check_compat(case, cfg)
    rule = get_rule(cfg.stepper)
    tau = grid.tau
    N = grid.N
    sbd = rule.kind == "SBD"

    w = cq_weights(rule, case.alpha, tau, N)
    v = initial_coefficients(sys, case, cfg.initial_projection)
    b = np.zeros(sys.n_dof)
    if cfg.equation == "diffusion_wave" and case.b is not None:
        b = meshfem.l2_project(sys, case.b)
    have_b = np.any(b)
    if have_b:
        # sigma_n = quadrature of order alpha applied to the ramp samples m*tau
        sigma = np.array([w[: n + 1] @ (tau * np.arange(n, -1, -1.0)) for n in range(N + 1)])

    chi_load = None
    src = None
    if case.source_space is not None:
        chi_load = meshfem.load_vector(sys, case.source_space)
        src = _source_scalars(case, cfg, rule, grid)

    Sv = sys.stiffness.matvec(v)

    def rhs(n, conv, D):
        mass_part = sigma[n] * b if have_b else np.zeros(sys.n_dof)
        if conv is not None:
            mass_part -= conv
        out = sys.mass.matvec(mass_part)
        if src is not None:
            out += src[n] * chi_load
        out -= Sv
        if sbd and n == 1:
            # first-step modification of the second-order scheme
            out -= 0.5 * Sv
            if src is not None:
                out += 0.5 * src[0] * chi_load
        return out

    return _march(sys, grid, (w[0], 1.0), w, rhs, v)
