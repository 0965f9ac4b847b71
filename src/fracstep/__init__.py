"""Solvers and convergence harness for Caputo-fractional subdiffusion and
diffusion-wave equations on the unit square.

Space: piecewise-linear Galerkin finite elements on the uniform
triangulation of the square with one lower-left-to-upper-right diagonal per
cell. Time: convolution quadrature generated by backward Euler
(first order) or the second-order backward difference with initial
correction, plus the common comparison schemes. Reference solutions come
from Mittag-Leffler eigenfunction expansions, either continuous or built on
the discrete eigenpairs of the FEM matrices.
"""

from .cq import BE, SBD, CqRule, cq_apply, cq_weights
from .meshfem import (
    FemSystem,
    Mesh,
    assemble,
    build_mesh,
    fem_system,
    h1_seminorm,
    l2_norm,
    l2_project,
    load_vector,
)
from .mlf import MlfAccuracyError, mlf_neg
from .numkit import CgError, cg_solve
from .reference import (
    CaseSpec,
    ModalExpansion,
    discrete_reference,
    exact_solution,
    get_case,
    modal_coefficients,
)
from .schemes import SchemeConfig, SolutionHistory, TimeGrid, solve
from .baselines import solve_baseline
from .harness import ConvergenceReport, StudyConfig, emit, run_study

__version__ = "0.1.0"
