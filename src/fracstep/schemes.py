"""Fully discrete time-stepping schemes for the benchmark problems.

Both steppers advance the fractional-order equation written with the history
convolution grouped around the initial value: at step n the weak form is

    (w0 M + S) U^n = loads + M [w0 v - sum_{j=1..n} w_j (U^{n-j} - v)]
                     (+ M sigma_n b for the second-order-in-time equation),

where w are the quadrature weights of the fractional differentiation order
and sigma_n applies the same weights to the sampled ramp t_m. Grouping the
history as differences from v evaluates the v-term of the right-hand side
exactly and avoids cancellation between two large convolutions.

The second-order stepper carries its first-step modification (the extra
half-stiffness and half-source terms); without it the scheme drops to first
order for nonzero initial values. The ``corrected`` flag selects how the
source enters: through the plain samples F^n, or through the backward
difference of the exact time antiderivative, which restores the design rate
when the source has limited temporal smoothness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import meshfem
from .cq import BE, SBD, cq_weights, get_rule
from .numkit import cg_solve


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
    U: np.ndarray                 # (N+1, n_dof)
    grid: TimeGrid
    # one (step index, CG iterations, final residual) triple per time step
    solve_stats: list = field(default_factory=list)

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
    w1 = cq_weights(rule, 1.0, grid.tau, grid.N).weights
    anti = np.array([case.source_time_integral(t) for t in times])
    out = np.empty(grid.N + 1)
    for n in range(grid.N + 1):
        out[n] = w1[: n + 1] @ anti[n::-1]
    return out


def solve(sys, case, cfg, grid, rel_tol=1e-12):
    """Run the configured stepper over the grid; returns the full history."""
    _check_compat(case, cfg)
    rule = get_rule(cfg.stepper)
    tau = grid.tau
    N = grid.N
    n_dof = sys.n_dof
    alpha = case.alpha
    sbd = rule.kind == "SBD"

    w = cq_weights(rule, alpha, tau, N).weights
    step_matrix, precond = sys.step_system(w[0], 1.0)

    v = initial_coefficients(sys, case, cfg.initial_projection)
    wave = cfg.equation == "diffusion_wave"
    b = np.zeros(n_dof)
    if wave and case.b is not None:
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

    U = np.zeros((N + 1, n_dof))
    U[0] = v
    dU = np.zeros((N, n_dof))  # dU[m] = U^{m+1} - v, filled as steps complete
    stats = []
    x_prev = v.copy()
    for n in range(1, N + 1):
        mass_part = w[0] * v
        if n > 1:
            # sum_{j=1..n} w_j (U^{n-j} - v); the j = n term vanishes (U^0 = v)
            hist = np.tensordot(w[1:n], dU[n - 2 :: -1][: n - 1], axes=(0, 0))
            mass_part -= hist
        if have_b:
            mass_part += sigma[n] * b
        rhs = sys.mass.matvec(mass_part)
        if src is not None:
            rhs += src[n] * chi_load
        if sbd and n == 1:
            # first-step modification of the second-order scheme
            rhs -= 0.5 * sys.stiffness.matvec(U[0])
            if src is not None:
                rhs += 0.5 * src[0] * chi_load
        cg_stats = {}
        x = cg_solve(
            step_matrix, rhs, rel_tol=rel_tol, x0=x_prev, stats=cg_stats, precond=precond
        )
        U[n] = x
        dU[n - 1] = x - v
        x_prev = x
        stats.append((n, cg_stats["iterations"], cg_stats["residual"]))
    return SolutionHistory(U, grid, stats)
