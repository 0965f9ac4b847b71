"""Ground-truth solutions for the benchmark cases.

Two reference paths:

* a continuous eigenfunction series for the unit-square Dirichlet Laplacian,
  with closed-form sine coefficients for every benchmark data set, used to
  measure spatial errors;
* a semidiscrete reference that is exact in time, built from the eigenpairs
  of the interior FEM matrix pair, used to isolate temporal errors without
  needing an excessively fine mesh. It reads them from the system's modal
  view ``fem.modal`` (``meshfem.ModalSystem``), which solves the pair once
  in its sine view, where the stiffness is diagonal (the
  fast-diagonalization structure of Lynch, Rice & Thomas 1964), by four
  ``numpy.linalg.eigh`` calls: the stiffness-scaled mass splits by the
  parity of k + l and by the swap of the sine indices k and l. Nodal
  values come back through the view's blocks and the sine transform
  (``ModalSystem.nodal``), with no dense eigenvector matrix.

Sources of the form (c1 t^g1 + c2 t^g2 + ...) * chi(x, y) admit a closed-form
Duhamel term: convolving t^(a-1) E_{a,a}(-lam t^a) with t^g gives
Gamma(g+1) t^(a+g) E_{a,a+g+1}(-lam t^a), term by term from the series
definition. The quadrature oracle in the tests checks this identity.

Every Mittag-Leffler value here comes from ``mlf.mlf_neg`` at its one
accuracy, ``mlf.DEFAULT_TOL`` (1e-12 relative); the discrete reference's
modal data need no solve and so carry no step-solver tolerance
(``meshfem.STEP_RTOL``). The discrete reference takes one time or a
study's whole ladder, keeps its factors with the nodal system per
(alpha, t, beta), and asks ``mlf_neg`` once per (alpha, beta) for all the
times it lacks; an element's value does not depend on the batch it is
evaluated in, so each time's factor is the one it would get alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import meshfem
from .mlf import mlf_neg

PI = math.pi


def _chi_left(x, y):
    """Indicator of the left half strip (0, 1/2] x (0, 1)."""
    x, _ = np.broadcast_arrays(x, y)
    return np.where(x <= 0.5, 1.0, 0.0)


def _bubble(x, y):
    return x * y * (1.0 - x) * (1.0 - y)


def _factor_bubble(k):
    """integral of x(1-x) sin(k pi x) over (0,1)."""
    k = np.asarray(k, dtype=float)
    return 2.0 * (1.0 - (-1.0) ** k) / (k * PI) ** 3


def _factor_one(k):
    """integral of sin(k pi x) over (0,1)."""
    k = np.asarray(k, dtype=float)
    return (1.0 - (-1.0) ** k) / (k * PI)


def _factor_half(k):
    """integral of sin(k pi x) over (0,1/2)."""
    k = np.asarray(k, dtype=float)
    return (1.0 - np.cos(k * PI / 2.0)) / (k * PI)


@dataclass(frozen=True, eq=False)
class CaseSpec:
    """One benchmark problem: initial data, source, and modal closed forms."""

    id: str
    alpha: float
    q: float            # spectral regularity exponent of v (rate predictions)
    r: float            # same for b
    v: object           # pointwise callable or None
    b: object
    source_space: object          # spatial factor chi(x, y) or None
    source_powers: tuple          # ((coef, exponent), ...) time monomials
    v_factors: tuple              # (fx, fy) with (v, phi_kl) = 2 fx(k) fy(l)
    b_factors: tuple
    f_factors: tuple
    v_l2_norm: float              # exact continuous L2 norm of v (0 if v=0)

    @property
    def is_subdiffusion(self):
        return self.alpha < 1.0

    def source_time(self, t):
        return sum(c * t ** g for c, g in self.source_powers)

    def source_time_integral(self, t):
        """Exact antiderivative of the time factor, vanishing at t=0."""
        return sum(c * t ** (g + 1.0) / (g + 1.0) for c, g in self.source_powers)

    def vhat(self, k, l):
        return _sine_coefficient(self.v_factors, k, l)

    def bhat(self, k, l):
        return _sine_coefficient(self.b_factors, k, l)

    def fhat(self, k, l):
        return _sine_coefficient(self.f_factors, k, l)


def _sine_coefficient(factors, k, l):
    """(g, phi_kl) = 2 fx(k) fy(l) for factors (fx, fy); zeros for None."""
    if factors is None:
        return np.zeros(np.broadcast(k, l).shape)
    fx, fy = factors
    return 2.0 * fx(k) * fy(l)


_EPS_HALF = 0.5  # characteristic data sit in H^(1/2 - eps); rates use 1/2


@functools.lru_cache(maxsize=64)
def get_case(case_id, alpha):
    """Benchmark cases. (a)-(c) need alpha in (0,1); (d)-(g) alpha in (1,2)."""
    case_id = case_id.lower()
    sub = case_id in ("a", "b", "c")
    wave = case_id in ("d", "e", "f", "g")
    if not (sub or wave):
        raise ValueError(f"unknown case {case_id!r}")
    if sub and not (0.0 < alpha < 1.0):
        raise ValueError(f"case ({case_id}) requires 0 < alpha < 1")
    if wave and not (1.0 < alpha < 2.0):
        raise ValueError(f"case ({case_id}) requires 1 < alpha < 2")

    bubble = dict(
        v=_bubble,
        v_factors=(_factor_bubble, _factor_bubble),
        v_l2_norm=1.0 / 30.0,
        q=2.0,
    )
    strip = dict(
        v=_chi_left,
        v_factors=(_factor_half, _factor_one),
        v_l2_norm=1.0 / math.sqrt(2.0),
        q=_EPS_HALF,
    )
    none_v = dict(v=None, v_factors=None, v_l2_norm=0.0, q=0.0)
    no_b = dict(b=None, b_factors=None, r=0.0)
    no_f = dict(source_space=None, source_powers=(), f_factors=None)
    strip_source = dict(
        source_space=_chi_left,
        source_powers=((1.0, 0.0), (1.0, 0.2)),
        f_factors=(_factor_half, _factor_one),
    )

    table = {
        "a": {**bubble, **no_b, **no_f},
        "b": {**strip, **no_b, **no_f},
        "c": {**none_v, **no_b, **strip_source},
        "d": {**bubble, **no_b, **no_f},
        "e": {**strip, **no_b, **no_f},
        "f": {
            **none_v,
            **no_f,
            "b": _chi_left,
            "b_factors": (_factor_half, _factor_one),
            "r": _EPS_HALF,
        },
        "g": {**none_v, **no_b, **strip_source},
    }
    return CaseSpec(id=case_id, alpha=float(alpha), **table[case_id])


@dataclass(frozen=True, eq=False)
class ModalExpansion:
    """Truncated sine-series expansion of the case data on the modes ks x ls."""

    lam: np.ndarray     # (K, L)
    vcoef: np.ndarray
    bcoef: np.ndarray
    fcoef: np.ndarray
    ks: np.ndarray
    ls: np.ndarray


def modal_coefficients(case, K_max=255):
    """Continuous expansion of the case data up to mode K_max per direction."""
    if K_max < 1:
        raise ValueError("K_max must be at least 1")
    k = np.arange(1, K_max + 1, dtype=float)
    # keep only rows/columns that any data set can populate
    def active(axis):
        keep = np.zeros(K_max, dtype=bool)
        for factors in (case.v_factors, case.b_factors, case.f_factors):
            if factors is not None:
                keep |= np.abs(factors[axis](k)) > 0.0
        return k[keep]

    ks = active(0)
    ls = active(1)
    if len(ks) == 0:
        ks = k[:1]
        ls = k[:1]
    KK, LL = np.meshgrid(ks, ls, indexing="ij")
    lam = PI ** 2 * (KK ** 2 + LL ** 2)
    return ModalExpansion(lam, case.vhat(KK, LL), case.bhat(KK, LL), case.fhat(KK, LL), ks, ls)


def _homogeneous_factors(alpha, beta, lam_flat, times):
    """E_{alpha,beta}(-lam t^alpha) per mode for each t in ``times``, from
    one array call of mlf_neg.

    The call receives each distinct argument lam t^alpha of all the times
    once: the continuous spectrum pi^2 (k^2 + l^2) repeats each value for
    (k, l) and (l, k), and more often where k^2 + l^2 has several
    representations. Each time's arguments are formed as for that time
    alone, and mlf_neg's value of an element does not depend on its batch,
    so each time's factor is bit for bit the one a call at that time alone
    gives.

    Nothing is cached here. ``ExactSolution`` asks for one time per factor;
    the discrete reference reads its factors through ``_discrete_factors``.
    """
    lam = np.asarray(lam_flat, dtype=float)
    per_time = [np.unique(lam * t ** alpha, return_inverse=True) for t in times]
    y, at = np.unique(np.concatenate([y_t for y_t, _ in per_time]), return_inverse=True)
    e = mlf_neg(alpha, beta, y)
    parts = np.split(at, np.cumsum([len(y_t) for y_t, _ in per_time])[:-1])
    return [e[part][inv] for part, (_, inv) in zip(parts, per_time)]


def _discrete_factors(fem, alpha, beta, times):
    """``_homogeneous_factors`` on the spectrum of ``fem.modal`` at each of
    ``times``, read-only: those ``fem`` keeps, and the rest from one call.

    ``fem`` keeps its last 128 factors per (alpha, t, beta)
    (``meshfem.owner_cache``). Every case on one system shares the
    spectrum, so cases a and b share E_{alpha,1}, and a decay ladder's
    t = 0.1 repeats the temporal reference's factors. A ladder longer than
    the cache still asks mlf_neg once: the factors come back from the call
    that files them.
    """
    return meshfem.owner_cache(
        fem, "_factors", 128, [(alpha, t, beta) for t in times],
        lambda keys: _homogeneous_factors(alpha, beta, fem.modal.lam, [t for _, t, _ in keys]),
    )


def duhamel_factor(alpha, source_powers, t, factor):
    """Closed-form Duhamel amplitude per mode for a power-sum time factor;
    ``factor(beta)`` is E_{alpha,beta}(-lam t^alpha) per mode."""
    out = 0.0
    for c, g in source_powers:
        pref = c * math.gamma(g + 1.0) * t ** (alpha + g)
        out = out + pref * factor(alpha + g + 1.0)
    return out


def modal_amplitudes(case, vcoef, bcoef, fcoef, t, factor):
    """Per-mode solution amplitude at time t from the modal coefficients of
    v, b and the source, whose factors E_{alpha,beta}(-lam t^alpha),
    flattened, are ``factor(beta)``."""
    if t == 0.0:
        return vcoef.copy()
    amp = np.zeros(vcoef.size)
    if np.any(vcoef):
        amp += vcoef.ravel() * factor(1.0)
    if np.any(bcoef):
        amp += bcoef.ravel() * t * factor(2.0)
    if np.any(fcoef) and case.source_powers:
        amp += fcoef.ravel() * duhamel_factor(case.alpha, case.source_powers, t, factor)
    return amp.reshape(vcoef.shape)


class ExactSolution:
    """The truncated series solution at a fixed time.

    u(x, y) = 2 sum_{k,l} A[k, l] sin(k pi x) sin(l pi y) over the K x L
    retained modes, held as its amplitudes A (``amplitudes``); the series
    is never evaluated at points. ``error_norms`` measures a FE function
    against it in closed form, and ``l2_norm`` and ``h1_seminorm`` are its
    own norms by Parseval.
    """

    def __init__(self, case, expansion, t):
        self.case = case
        self.expansion = expansion
        self.t = float(t)
        lam = expansion.lam.ravel()
        self.amplitudes = modal_amplitudes(
            case, expansion.vcoef, expansion.bcoef, expansion.fcoef, self.t,
            lambda beta: _homogeneous_factors(case.alpha, beta, lam, (self.t,))[0],
        )

    def error_norms(self, sys, c):
        """(L2, H1-seminorm) distance to the FE function of coefficients c
        in the coordinates of ``sys``, in closed form.

        With the moments m = (u_h, sin sin) (``meshfem.sine_moments``),
        ||u_h - u||^2 = ||u_h||^2 - sum (4 A m - A^2) and |u_h - u|_1^2 =
        |u_h|_1^2 - sum lam (4 A m - A^2), as u_h vanishes on the boundary;
        the FE norms are taken in ``sys``. The subtraction leaves an error of
        about eps (||u_h||^2 + ||u||^2), so errors below about 1e-8 ||u||
        cannot be told apart; a negative square counts as 0.
        """
        ex, a = self.expansion, self.amplitudes
        d = 4.0 * a * meshfem.sine_moments(sys.fem, sys.nodal(c), ex.ks, ex.ls) - a * a
        l2 = meshfem.l2_norm(sys, c) ** 2 - np.sum(d)
        h1 = meshfem.h1_seminorm(sys, c) ** 2 - np.sum(ex.lam * d)
        return math.sqrt(max(l2, 0.0)), math.sqrt(max(h1, 0.0))

    def l2_norm(self):
        return math.sqrt(float(np.sum(self.amplitudes ** 2)))

    def h1_seminorm(self):
        return math.sqrt(float(np.sum(self.expansion.lam * self.amplitudes ** 2)))

    def tail_bound(self):
        """Crude upper bound on the L2 mass beyond the truncation.

        Assumes squared amplitudes decay at least quadratically along each
        index, which holds for every benchmark data set; nonincreasing in
        the cutoff by construction.
        """
        A2 = self.amplitudes ** 2
        k_last = float(self.expansion.ks[-1])
        l_last = float(self.expansion.ls[-1])
        return math.sqrt(k_last * float(np.sum(A2[-1, :])) + l_last * float(np.sum(A2[:, -1])))


def exact_solution(case, expansion, t):
    return ExactSolution(case, expansion, t)


def _eigensystem(sys):
    """(lam, basis) of the modal view ``sys.modal`` (see ``meshfem.ModalSystem``);
    reading ``basis`` forms the dense nodal eigenvector matrix."""
    return sys.modal.lam, sys.modal.basis


def discrete_reference(sys, case, t):
    """The semidiscrete solution, exact in time, in the coordinates of ``sys``:
    nodal on a ``FemSystem``, sine on its sine view, the modal amplitudes
    Phi^T M u on its modal view. ``t`` is one time, or a sequence of times,
    a study's ladder, for one row per time.

    The L2 projection c = M^-1 F of a load vector F has the modal
    coefficients Phi^T M c = Phi^T F, the load in the modal view's
    coordinates, so they need no mass solve and carry no solver tolerance.
    As t -> 0 the reference tends to this projection; a CG tolerance here
    would leave an error floor of about 1e-12 ||v|| against a scheme that
    projects exactly, as every scheme on the modal view does.

    Each factor E_{alpha,beta} is asked for all the times at once
    (``_discrete_factors``) the first time a time needs it, so a ladder
    makes at most one mlf_neg call per beta.
    """
    view = sys.fem.modal
    times = np.ravel(t).tolist()
    ladder = functools.cache(lambda beta: _discrete_factors(sys.fem, case.alpha, beta, times))
    data = [np.zeros(view.n_dof) if g is None else meshfem.load_vector(view, g)
            for g in (case.v, case.b, case.source_space)]
    rows = []
    for i, ti in enumerate(times):
        amp = modal_amplitudes(case, *data, ti, lambda beta: ladder(beta)[i])
        rows.append(amp if sys is view else sys.coords(view.nodal(amp)))
    return rows[0] if np.ndim(t) == 0 else np.array(rows)
