"""Ground-truth solutions for the benchmark cases.

Two reference paths:

* a continuous eigenfunction series for the unit-square Dirichlet Laplacian,
  with closed-form sine coefficients for every benchmark data set, used to
  measure spatial errors;
* a semidiscrete reference that is exact in time, built from the eigenpairs
  of the interior FEM matrix pair, used to isolate temporal errors without
  needing an excessively fine mesh. It reads them from the system's modal
  view ``fem.modal`` (``meshfem.ModalSystem``), which solves the pair once
  in its sine view, where the stiffness is diagonal, by one
  ``numpy.linalg.eigh`` of the stiffness-scaled mass (the
  fast-diagonalization structure of Lynch, Rice & Thomas 1964).

Sources of the form (c1 t^g1 + c2 t^g2 + ...) * chi(x, y) admit a closed-form
Duhamel term: convolving t^(a-1) E_{a,a}(-lam t^a) with t^g gives
Gamma(g+1) t^(a+g) E_{a,a+g+1}(-lam t^a), term by term from the series
definition. The quadrature oracle in the tests checks this identity.

Every Mittag-Leffler value here comes from ``mlf.mlf_neg`` at its one
accuracy, ``mlf.DEFAULT_TOL`` (1e-12 relative); the discrete reference's
modal data need no solve and so carry no step-solver tolerance
(``meshfem.STEP_RTOL``).
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


def _bubble_grad(x, y):
    return (1.0 - 2.0 * x) * y * (1.0 - y), x * (1.0 - x) * (1.0 - 2.0 * y)


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
    v_grad: object
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
        v_grad=_bubble_grad,
        v_factors=(_factor_bubble, _factor_bubble),
        v_l2_norm=1.0 / 30.0,
        q=2.0,
    )
    strip = dict(
        v=_chi_left,
        v_grad=None,
        v_factors=(_factor_half, _factor_one),
        v_l2_norm=1.0 / math.sqrt(2.0),
        q=_EPS_HALF,
    )
    none_v = dict(v=None, v_grad=None, v_factors=None, v_l2_norm=0.0, q=0.0)
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
    """Truncated eigen-expansion: continuous (sine modes ks x ls) or discrete (no ks)."""

    lam: np.ndarray     # continuous: (Ka, La); discrete: (n,)
    vcoef: np.ndarray
    bcoef: np.ndarray
    fcoef: np.ndarray
    ks: np.ndarray = None
    ls: np.ndarray = None


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
    return ModalExpansion(
        lam,
        case.vhat(KK, LL),
        case.bhat(KK, LL),
        case.fhat(KK, LL),
        ks=ks,
        ls=ls,
    )


def _homogeneous_factor(alpha, beta, lam_flat, t):
    """E_{alpha,beta}(-lam t^alpha) per mode, from one array call of mlf_neg.

    The call receives each distinct argument lam t^alpha once: the continuous
    spectrum pi^2 (k^2 + l^2) repeats each value for (k, l) and (l, k), and
    more often where k^2 + l^2 has several representations.

    Nothing is cached here. The discrete reference reads its factors through
    ``_discrete_factor``, which keeps them read-only with the nodal system
    per (alpha, t, beta), at most 128 of them; the continuous reference calls
    this once per factor of each ``ExactSolution``.
    """
    y_u, inv = np.unique(np.asarray(lam_flat, dtype=float) * t ** alpha, return_inverse=True)
    return mlf_neg(alpha, beta, y_u)[inv]


@meshfem.system_cache(maxsize=128)
def _discrete_factor(fem, alpha, t, beta):
    """``_homogeneous_factor`` on the spectrum of ``fem.modal``, read-only,
    kept with ``fem``.

    Every case on one system shares the spectrum, so cases a and b share
    E_{alpha,1}, and a decay ladder's t = 0.1 repeats the temporal
    reference's factors.
    """
    out = _homogeneous_factor(alpha, beta, fem.modal.lam, t)
    out.flags.writeable = False
    return out


def duhamel_factor(alpha, source_powers, t, factor):
    """Closed-form Duhamel amplitude per mode for a power-sum time factor;
    ``factor(beta)`` is E_{alpha,beta}(-lam t^alpha) per mode."""
    out = 0.0
    for c, g in source_powers:
        pref = c * math.gamma(g + 1.0) * t ** (alpha + g)
        out = out + pref * factor(alpha + g + 1.0)
    return out


def modal_amplitudes(case, exp, t, factor):
    """Per-mode solution amplitude at time t of an expansion whose factors
    E_{alpha,beta}(-lam t^alpha), flattened, are ``factor(beta)``."""
    if t == 0.0:
        return exp.vcoef.copy()
    amp = np.zeros(exp.lam.size)
    if np.any(exp.vcoef):
        amp += exp.vcoef.ravel() * factor(1.0)
    if np.any(exp.bcoef):
        amp += exp.bcoef.ravel() * t * factor(2.0)
    if np.any(exp.fcoef) and case.source_powers:
        amp += exp.fcoef.ravel() * duhamel_factor(case.alpha, case.source_powers, t, factor)
    return amp.reshape(exp.lam.shape)


def _distinct_phases(v, modes):
    """Inverse index of v into its distinct values u, and the phases m pi u."""
    vals, inv = np.unique(v, return_inverse=True)
    return inv.reshape(v.shape), PI * np.outer(vals, modes)


def _cell_tables(offsets, M, modes):
    """sin and cos of m pi i/M at the cell corners i = 0..M-1, (M, K), then
    of m pi d at the offsets d, (len(offsets), K), for the K modes m. The
    corner phases are reduced modulo 2 pi exactly first, as in
    ``meshfem.sine_basis``."""
    corner = PI * (np.outer(np.arange(M), modes.astype(np.int64)) % (2 * M)) / M
    phase = PI * np.outer(offsets, modes)
    return np.sin(corner), np.cos(corner), np.sin(phase), np.cos(phase)


class ExactSolution:
    """The truncated series solution at a fixed time, summed on tensor grids.

    u(x, y) = 2 sum_{k,l} A[k, l] sin(k pi x) sin(l pi y) over the K x L
    retained modes. On a grid (x_i, y_j) this is 2 (SX A) SY^T with the sine
    tables SX[i, k] = sin(k pi x_i), SY[j, l] = sin(l pi y_j); a gradient
    component swaps one table for its derivative.

    ``cell_grids`` serves ``meshfem.error_norms``: its grids are the cell
    corners (i/M, j/M) shifted by one offset each, so the tables hold only
    the corners and the distinct offsets, and it yields one grid at a time.
    A call or ``grad`` takes any points: broadcast x (..., nx, 1) and
    y (..., 1, ny) are one nx x ny grid per leading index, any other points
    1 x 1 grids. It tabulates the distinct x and y once, then spends one
    (nx x L) @ (L x ny) product per grid.
    """

    def __init__(self, case, expansion, t):
        if expansion.ks is None:
            raise ValueError("pointwise evaluation needs a continuous expansion")
        self.case = case
        self.expansion = expansion
        self.t = float(t)
        lam = expansion.lam.ravel()
        self.amplitudes = modal_amplitudes(
            case, expansion, self.t,
            lambda beta: _homogeneous_factor(case.alpha, beta, lam, self.t),
        )

    def _fields(self, x, y, grad):
        """u, or (du/dx, du/dy) if grad, at the points."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(x.shape, y.shape)
        if min(x.ndim, y.ndim) < 2 or x.shape[-1] != 1 or y.shape[-2] != 1:
            x, y = x[..., None, None], y[..., None, None]
        *batch, nx, ny = np.broadcast_shapes(x.shape, y.shape)
        n_grids = math.prod(batch)
        xs = np.broadcast_to(x[..., 0], (*batch, nx)).reshape(n_grids, nx)
        ys = np.broadcast_to(y[..., 0, :], (*batch, ny)).reshape(n_grids, ny)
        ix, px = _distinct_phases(xs, self.expansion.ks)
        iy, py = _distinct_phases(ys, self.expansion.ls)
        A = 2.0 * self.amplitudes
        # grids in batches that gather no more entries than A holds
        step = max(1, len(A) // max(nx + ny, 1))

        def on_grids(xtab, ytab):
            out = np.empty((n_grids, nx, ny))
            for s in range(0, n_grids, step):
                b = slice(s, s + step)
                np.matmul(xtab[ix[b]], ytab[iy[b]].transpose(0, 2, 1), out=out[b])
            return out.reshape(shape)

        sx_a, sy = np.sin(px) @ A, np.sin(py)
        if not grad:
            return on_grids(sx_a, sy)
        # the cosine tables overwrite the phases, which are not needed again
        cx = np.cos(px, out=px)
        cx *= PI * self.expansion.ks
        cy = np.cos(py, out=py)
        cy *= PI * self.expansion.ls
        return on_grids(cx @ A, sy), on_grids(sx_a, cy)

    def __call__(self, x, y):
        return self._fields(x, y, False)

    def grad(self, x, y):
        return self._fields(x, y, True)

    def cell_grids(self, dx, dy, M, grad=False):
        """Yield (g, u, du/dx, du/dy) on the grids of points
        (i/M + dx[g], j/M + dy[g]), i, j = 0..M-1, as (M, M) arrays, the
        gradient (None, None) unless ``grad``.

        sin(k pi (i/M + d)) = sin(k pi i/M) cos(k pi d) + cos(k pi i/M)
        sin(k pi d): one build of ``_cell_tables`` per axis serves every
        grid. The grids of one x-offset come together, after one product
        SX A (and one for du/dx) that they share. Nothing larger than an
        (M, K) table is held.
        """
        ks, ls = self.expansion.ks, self.expansion.ls
        ox, gx = np.unique(dx, return_inverse=True)
        oy, gy = np.unique(dy, return_inverse=True)
        sx, cx, sox, cox = _cell_tables(ox, M, ks)
        sy, cy, soy, coy = _cell_tables(oy, M, ls)
        A = 2.0 * self.amplitudes
        for a in range(len(ox)):
            xa = (sx * cox[a] + cx * sox[a]) @ A
            if grad:
                dxa = ((cx * cox[a] - sx * sox[a]) * (PI * ks)) @ A
            for g in np.flatnonzero(gx == a):
                b = gy[g]
                syt = (sy * coy[b] + cy * soy[b]).T
                if grad:
                    cyt = ((cy * coy[b] - sy * soy[b]) * (PI * ls)).T
                    yield g, xa @ syt, dxa @ syt, xa @ cyt
                else:
                    yield g, xa @ syt, None, None

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
    """(lam, basis) of the modal view ``sys.modal`` (see ``meshfem.ModalSystem``)."""
    return sys.modal.lam, sys.modal.basis


def discrete_reference(sys, case, t):
    """The semidiscrete solution, exact in time, in the coordinates of ``sys``
    (nodal, or the modal amplitudes Phi^T M u on its modal view).

    The L2 projection c = M^-1 F of a load vector F has the modal
    coefficients Phi^T M c = Phi^T F, the load in the modal view's
    coordinates, so they need no mass solve and carry no solver tolerance.
    As t -> 0 the reference tends to this projection; a CG tolerance here
    would leave an error floor of about 1e-12 ||v|| against a scheme that
    projects exactly, as every scheme on the modal view does.
    """
    view = sys.fem.modal

    def coeffs(func):
        if func is None:
            return np.zeros(view.n_dof)
        return meshfem.load_vector(view, func)

    exp = ModalExpansion(view.lam, coeffs(case.v), coeffs(case.b), coeffs(case.source_space))
    amp = modal_amplitudes(
        case, exp, t, functools.partial(_discrete_factor, sys.fem, case.alpha, t)
    )
    return amp if sys is view else view.basis @ amp
