"""Two-parameter Mittag-Leffler function on the nonpositive real axis.

Evaluates E_{alpha,beta}(x) for x <= 0, alpha in (0, 2], beta > 0 at close to
double precision, for one argument or a whole array of them. Three routes
cover the axis, each written once over an array of arguments:

* power series with compensated summation while cancellation stays bounded:
  one Kahan loop over the term index, run across the elements still live;
* the algebraic large-argument expansion, truncated at each element's own
  smallest term and augmented (for alpha > 1) with the conjugate residue pair
  of the inversion contour, which is not negligible at moderate arguments;
* a real branch-cut integral in between, integrated by adaptive
  Gauss-Legendre panels run in lockstep: every element starts from its own
  edges, and in each round every element not yet certified bisects its own
  worst panel, so one set of numpy calls serves the whole round.

An element meets the same arithmetic whatever else is in the array, so its
value does not depend on the batch it is evaluated in. Each route reports an
error estimate per element, and the dispatcher passes an element on to the
next route when its certificate misses the target: ``DEFAULT_TOL`` relative,
the one accuracy ``mlf_neg`` works to.

Work that cannot change a value is skipped. The series is not run where its
certificate must miss: a screen compares a Stirling lower bound on the
largest term with an upper bound on |E| (1/Gamma(beta) where E is completely
monotone, alpha <= 1 and beta >= alpha; an envelope elsewhere). The
expansion adds the residue pair only where a bound on its modulus reaches
2^-60 of the sum, since a smaller pair rounds away.

``mlf_neg`` hands its arguments to the routes ``_CHUNK`` at a time, and the
branch-cut route evaluates its integrand ``_PANEL_ROWS`` panels at a time,
so the routes' temporaries are bounded by the chunk, not by the argument
count: one call on 50,000 arguments peaks at about 3 MB traced. Errors are
gathered over all chunks, so ``MlfAccuracyError`` reports the worst element
and the number missed of the whole call. The recurrence
E_{a,b}(x) = 1/Gamma(b) + x E_{a,b+a}(x) ties the routes together and is what
the test suite uses to cross-validate them.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_TOL = 1e-12

_GL_LO = np.polynomial.legendre.leggauss(10)
_GL_HI = np.polynomial.legendre.leggauss(20)
# both rules' nodes in one row, so a panel's integrand is one evaluation
_GL_NODES = np.concatenate([_GL_LO[0], _GL_HI[0]])
_N_LO = len(_GL_LO[0])
# term indices the series and the expansion form per step of their loops
_BLOCK = 16
# arguments mlf_neg hands to the routes at a time
_CHUNK = 1024
# quadrature panels whose integrand the branch-cut route evaluates at a time
_PANEL_ROWS = 256


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
    """Kahan-compensated power series; returns (value, error estimate) arrays.

    The estimate tracks the accumulated magnitude of the terms so catastrophic
    cancellation is detected rather than silently returned. An element whose
    terms overflow or pass 1e40 gets an infinite estimate; every other element
    stops on its own, after two terms in a row below 1e-17 of its sum, or
    leaves with one once its certificate must miss: the terms alternate, and
    after a ratio |t_k / t_(k-1)| < 1 they shrink for good (Gamma(z) /
    Gamma(z + alpha) falls with z), so |S| stays below |S_k| + |t_k| while
    4e-16 sum |t| only grows.

    Terms are formed _BLOCK indices at a time: the products, running sums
    and maxima go down the block as sequential accumulations, the
    compensated sum one row per index, and each element's stop is found in
    the block afterwards, so every element sees exactly the operations of a
    one-term-at-a-time loop.
    """
    n = len(y)
    val = np.zeros(n)
    err = np.full(n, math.inf)
    live, ys = np.arange(n), y
    term = np.full(n, _recip_gamma(beta))
    s, comp = term.copy(), np.zeros(n)
    s_abs = np.abs(term)
    max_abs = s_abs.copy()
    tiny_last = np.zeros(n, dtype=bool)
    k = 0
    # terms past an element's stop may overflow; they are computed, not used
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size and k < 20000:
            ks = range(k + 1, min(k + _BLOCK, 20000) + 1)
            ratio = np.outer([_gamma_ratio(alpha * (j - 1) + beta, alpha * j + beta) for j in ks], ys)
            terms = np.multiply.accumulate(np.vstack([term, -ratio]), axis=0)[1:]
            sums = np.empty_like(terms)
            for term_j, sum_j in zip(terms, sums):
                x = term_j - comp
                np.add(s, x, out=sum_j)
                comp = sum_j - s
                comp -= x
                s = sum_j
            mags = np.abs(terms)
            s_abs_run = np.cumsum(np.vstack([s_abs, mags]), axis=0)[1:]
            max_run = np.maximum.accumulate(np.vstack([max_abs, mags]), axis=0)[1:]
            tiny = mags <= 1e-17 * np.maximum(np.abs(sums), 1e-300)
            fail = ~np.isfinite(terms) | (max_run > 1e40)
            event = fail | (tiny & np.vstack([tiny_last, tiny[:-1]]))
            first, at = event.argmax(axis=0), np.arange(live.size)
            stopped = event[first, at]
            ok = stopped & ~fail[first, at]
            j, i = first[ok], at[ok]
            val[live[ok]] = sums[j, i]
            err[live[ok]] = 4.0e-16 * s_abs_run[j, i] + mags[j, i]
            # rejection is certain (see the docstring)
            doomed = (ratio[-1] < 1.0) & (
                4e-16 * s_abs_run[-1] > 4.0 * DEFAULT_TOL * (np.abs(sums[-1]) + mags[-1])
            )
            go = ~stopped & ~doomed
            live, ys, comp = live[go], ys[go], comp[go]
            term, s, s_abs, max_abs, tiny_last = (
                a[-1, go] for a in (terms, sums, s_abs_run, max_run, tiny)
            )
            k = ks[-1]
    val[live] = s
    err[live] = 4.0e-16 * s_abs + np.abs(term)
    return val, err


def _residue_pair(alpha, beta, y):
    """Contribution of the conjugate pole pair of the inversion integrand.

    Evaluated one element at a time with the math module's functions: near
    a real zero of E the pair cancels against the rest of the value, which
    magnifies the few ulp that numpy's vectorized versions of them lose. At
    alpha = 2 the damping is exactly 0 (not m cos(pi/2) = 6.1e-17 m), and the
    phase m sin(theta) + (1 - beta) theta goes by angle addition, so its
    second part keeps its digits however large m is.
    """
    theta = math.pi / alpha
    cos_t = 0.0 if alpha == 2.0 else math.cos(theta)
    sin_t = math.sin(theta)
    cos_s, sin_s = math.cos((1.0 - beta) * theta), math.sin((1.0 - beta) * theta)
    out = []
    for v in y.tolist():
        m = v ** (1.0 / alpha)
        damp = m * cos_t
        out.append(
            0.0 if damp < -745.0 else
            (2.0 / alpha) * m ** (1.0 - beta) * math.exp(damp)
            * (math.cos(m * sin_t) * cos_s - math.sin(m * sin_t) * sin_s)
        )
    return np.array(out)


def _envelope_log_part(alpha, beta, k):
    # log of the sin-free envelope of |y^-k / Gamma(beta - alpha k)| is this
    # minus k log y; the reflected sine factor oscillates, so truncation
    # decisions use the envelope instead
    s = beta - alpha * k
    if s > 0.5:
        return -math.lgamma(s)
    return math.lgamma(1.0 - s) - math.log(math.pi)


def _try_asymptotic(alpha, beta, y):
    """Algebraic expansion truncated at its smallest term (plus residues).

    Returns (value, error estimate) arrays; elements below y = 1.5, where the
    expansion does not apply, get an infinite estimate. Terms are formed
    _BLOCK indices at a time and summed down the block in order; an element
    stops before a growing term or after a negligible one.
    """
    val = np.zeros(len(y))
    err = np.full(len(y), math.inf)
    on = y >= 1.5
    live = np.flatnonzero(on)
    ln_y = np.log(y[live])
    s = np.zeros(live.size)
    prev_env = np.full(live.size, math.inf)
    k = 1
    while live.size and k < 400:
        ks = np.arange(k, min(k + _BLOCK, 400))
        part = np.array([_envelope_log_part(alpha, beta, j) for j in ks])
        rg = np.array([_recip_gamma(beta - alpha * j) for j in ks])
        k_ln_y = ks[:, None] * ln_y
        env_log = part[:, None] - k_ln_y
        env = np.where(env_log < 700.0, np.exp(np.minimum(env_log, 700.0)), math.inf)
        sign = np.where(ks % 2 == 1, 1.0, -1.0)
        terms = sign[:, None] * np.exp(-k_ln_y) * rg[:, None]
        sums = np.cumsum(np.vstack([s, terms]), axis=0)
        late = (ks > 2)[:, None]
        grows = (env > np.vstack([prev_env, env[:-1]])) & late
        event = grows | (env <= 1e-18 * np.maximum(np.abs(sums[1:]), 1e-300)) & late
        first, at = event.argmax(axis=0), np.arange(live.size)
        stopped = event[first, at]
        # a growing term is left out of the sum; a negligible one is kept
        j, i = first[stopped], at[stopped]
        val[live[stopped]] = np.where(grows[j, i], sums[j, i], sums[j + 1, i])
        err[live[stopped]] = env[j, i]
        go = ~stopped
        live, ln_y = live[go], ln_y[go]
        s, prev_env = sums[-1, go], env[-1, go]
        k = ks[-1] + 1
    val[live] = s
    err[live] = prev_env
    res = np.zeros(len(y))
    if alpha > 1.0:
        # the pair's modulus is at most (2/alpha) m^(1-beta) e^(m cos(pi/alpha)),
        # m = y^(1/alpha); below 2^-60 |val| it is under half an ulp of val,
        # so adding it cannot change the double sum
        ln_m = np.log(y) / alpha
        cos_t = 0.0 if alpha == 2.0 else math.cos(math.pi / alpha)
        with np.errstate(over="ignore", divide="ignore"):
            ln_pair = math.log(2.0 / alpha) + (1.0 - beta) * ln_m + cos_t * np.exp(ln_m)
            near = on & (ln_pair >= np.log(np.abs(val)) - 60.0 * math.log(2.0))
        res[near] = _residue_pair(alpha, beta, y[near])
    return val + res, err + 2e-16 * (np.abs(val) + np.abs(res))


def _panels(f, rows, lo, hi):
    """(|fine - coarse|, fine) Gauss-Legendre estimates of each panel [lo, hi].

    Panel i belongs to element rows[i]. The rule's weighted sums run over a
    row of fixed length, so a panel's estimate does not depend on the others,
    and the integrand is evaluated _PANEL_ROWS panels at a time, which bounds
    its temporaries.
    """
    est, fine = np.empty(len(rows)), np.empty(len(rows))
    for start in range(0, len(rows), _PANEL_ROWS):
        at = slice(start, start + _PANEL_ROWS)
        mid = 0.5 * (lo[at] + hi[at])
        half = 0.5 * (hi[at] - lo[at])
        v = f(mid[:, None] + half[:, None] * _GL_NODES, rows[at])
        coarse = half * (v[:, :_N_LO] * _GL_LO[1]).sum(axis=1)
        fine[at] = half * (v[:, _N_LO:] * _GL_HI[1]).sum(axis=1)
        est[at] = np.abs(fine[at] - coarse)
    return est, fine


def _adaptive_gl(f, edges, scale_hint):
    """Adaptive Gauss-Legendre panels over each element's edges, in lockstep.

    Row i of ``edges`` holds element i's initial edges in increasing order,
    padded at its end by repeating its last edge; ``f(r, rows)`` evaluates
    the integrand of elements ``rows`` at the points r, one row of points per
    element. Each element keeps its panels in one row of a table: a bisected
    panel's left half takes its place and its right half goes to the end.
    In each round, every element whose summed estimate misses DEFAULT_TOL
    relative to max(|integral|, scale_hint) bisects its worst panel; sums run
    left to right along the row, and padding adds exact zeros. Returns
    (integral, error estimate) per element.
    """
    n, m = edges.shape
    lo, hi = edges[:, :-1].copy(), edges[:, 1:].copy()
    fine, err = np.zeros_like(lo), np.zeros_like(lo)
    real = hi > lo
    err[real], fine[real] = _panels(f, np.nonzero(real)[0], lo[real], hi[real])
    count = np.full(n, m - 1)
    total, error = np.zeros(n), np.zeros(n)
    live = np.arange(n)
    for bisections in range(401):
        tot = np.cumsum(fine[live], axis=1)[:, -1]
        es = np.cumsum(err[live], axis=1)[:, -1]
        done = es <= DEFAULT_TOL * np.maximum(np.maximum(np.abs(tot), scale_hint[live]), 1e-300)
        # after 400 bisections an element returns what it has, certified or not
        done |= bisections == 400
        total[live[done]], error[live[done]] = tot[done], es[done]
        live = live[~done]
        if not live.size:
            return total, error
        if count[live].max() == lo.shape[1]:
            grow = np.zeros((n, max(16, lo.shape[1] // 2)))
            lo, hi, fine, err = (np.hstack([a, grow]) for a in (lo, hi, fine, err))
        worst = np.argmax(err[live], axis=1)
        a, b = lo[live, worst], hi[live, worst]
        c = 0.5 * (a + b)
        e2, f2 = _panels(f, np.concatenate([live, live]), np.concatenate([a, c]),
                         np.concatenate([c, b]))
        k, j = live.size, count[live]
        hi[live, worst], err[live, worst], fine[live, worst] = c, e2[:k], f2[:k]
        lo[live, j], hi[live, j], err[live, j], fine[live, j] = c, b, e2[k:], f2[k:]
        count[live] += 1


def _branch_cut_integral(alpha, beta, y, scale_hint):
    """Real branch-cut integral of the inversion contour; needs beta < alpha+1."""
    c = math.cos(math.pi * alpha)
    s_ab = _sinpi(beta)
    s_amb = _sinpi(beta - alpha)
    width = abs(_sinpi(alpha))

    def kernel(r, rows):
        yr = y[rows, None]
        ra = r ** alpha
        denom = (ra + yr * c) ** 2 + (yr * width) ** 2
        num = s_ab * ra + s_amb * yr
        return np.exp(-r) * r ** (alpha - beta) * num / denom / math.pi

    # candidate edges per element, one column each; NaN marks an absent one
    cols = [np.ones(len(y))]
    r_max = np.full(len(y), 50.0)
    if c < 0.0:
        r_star = (-y * c) ** (1.0 / alpha)
        peak = r_star > 1e-3
        halfw = y * max(width, 1e-12) / (alpha * r_star ** (alpha - 1.0))
        for fac in (-100.0, -30.0, -10.0, -3.0, -1.0, 1.0, 3.0, 10.0, 30.0, 100.0):
            e = r_star + fac * halfw
            cols.append(np.where(peak & (e > 1e-12), e, math.nan))
        cols.append(np.where(peak, r_star, math.nan))
        r_max = np.maximum(50.0, r_star + 45.0)
    e = 2.0
    while e < r_max.max():
        cols.append(np.where(e < r_max, e, math.nan))
        e *= 2.0
    cols.append(r_max)
    edges = np.stack(cols, axis=1)
    edges[~((edges > 1e-300) & (edges <= r_max[:, None]))] = math.nan
    edges.sort(axis=1)
    edges[:, 1:][edges[:, 1:] == edges[:, :-1]] = math.nan
    edges.sort(axis=1)
    width_max = int(np.max(np.sum(~np.isnan(edges), axis=1)))
    edges = edges[:, :width_max]
    edges = np.where(np.isnan(edges), r_max[:, None], edges)

    # first panel [0, e0] via r = u**p, removing the integrable r**(alpha-beta)
    # endpoint behaviour
    p = max(1.0, 2.0 / (alpha - beta + 1.0))
    u_hi = edges[:, 0] ** (1.0 / p)

    def kernel_sub(u, rows):
        return kernel(u ** p, rows) * p * u ** (p - 1.0)

    head_edges = np.stack([np.zeros(len(y)), u_hi], axis=1)
    head, err_head = _adaptive_gl(kernel_sub, head_edges, scale_hint)
    tail, err_tail = _adaptive_gl(kernel, edges, scale_hint)
    return head + tail, err_head + err_tail


def _mid(alpha, beta, y):
    """Middle-zone evaluation: recurrence reduction + contour machinery.

    The recurrence lowers beta by alpha until beta < alpha + 0.75, then
    climbs back up one step per lowering, so a small alpha costs steps, not
    stack depth.
    """
    lowered = []
    while beta >= alpha + 0.75:
        beta -= alpha
        lowered.append(beta)
    res = _residue_pair(alpha, beta, y) if alpha > 1.0 else np.zeros(len(y))
    integral, err = _branch_cut_integral(alpha, beta, y, np.abs(res))
    val, err = res + integral, err + 2e-16 * np.abs(res)
    for b in reversed(lowered):
        val, err = (_recip_gamma(b) - val) / y, err / y + 4e-16
    return val, err


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


def _log_bound(alpha, beta, y):
    """ln B with B >= |E_{alpha,beta}(-y)|, per element of y.

    E_{alpha,beta}(-y) is completely monotone in y for alpha <= 1 and
    beta >= alpha (Schneider 1996), so there it lies in (0, 1/Gamma(beta)].
    Elsewhere B is the envelope (2/alpha) (1+y)^max(0,(1-beta)/alpha) +
    max(1, 1/Gamma(beta)): its first part bounds the residue pair's modulus
    where y^(1/alpha) >= 1, the only place the series screen uses B, and the
    second the rest; the test suite checks B over the parameter plane.
    """
    if alpha <= 1.0 and beta >= alpha:
        return np.full(len(y), -math.lgamma(beta))
    return np.logaddexp(
        math.log(2.0 / alpha) + max(0.0, (1.0 - beta) / alpha) * np.log1p(y),
        max(0.0, -math.lgamma(beta)),
    )


def _series_may_pass(alpha, beta, y):
    """False where the series certificate must miss, so the series is skipped.

    The certificate needs sum |t_k| <= 2500 |E(-y)|, and the sum is at least
    the largest term T. With z = y^(1/alpha) >= alpha + beta + 2, the term
    whose Gamma argument alpha k + beta first reaches z gives, by Stirling's
    upper bound on ln Gamma,
    ln T >= z - (alpha + beta - 1/2) ln z - ln(2 pi)/2 - 1/(12 z),
    which rises with z there, so clamping z to keep it finite keeps a lower
    bound. An element is skipped where that exceeds ln(2600 B), B from
    ``_log_bound``.
    """
    ln_z = np.clip(np.log(y) / alpha, -700.0, 700.0)
    z = np.exp(ln_z)
    ln_t = z - (alpha + beta - 0.5) * ln_z - 0.5 * math.log(2.0 * math.pi) - 1.0 / (12.0 * z)
    hopeless = (z >= alpha + beta + 2.0) & (ln_t > math.log(2600.0) + _log_bound(alpha, beta, y))
    return ~hopeless


def _positive(alpha, beta, y):
    """E_{alpha,beta}(-y) over a 1-d array of finite positive y, route by route.

    Returns the values and, per element, the error estimate of a missed
    certificate, 0 where the element is certified.
    """
    out = np.zeros(len(y))
    err = np.full(len(y), math.inf)
    missed = np.zeros(len(y))
    may = _series_may_pass(alpha, beta, y)
    out[may], err[may] = _try_series(alpha, beta, y[may])
    rest = np.flatnonzero(~(err <= DEFAULT_TOL * np.abs(out)))
    if rest.size:
        val, err = _try_asymptotic(alpha, beta, y[rest])
        ok = err <= DEFAULT_TOL * np.abs(val)
        out[rest[ok]] = val[ok]
        rest = rest[~ok]
    if not rest.size:
        return out, missed
    if alpha == 1.0:
        out[rest] = [_alpha_one(beta, float(v)) for v in y[rest]]
        return out, missed

    yr = y[rest]
    val, err = _mid(alpha, beta, yr)
    # near a real zero of E the relative error is condition-limited; judge
    # the certificate against the generic magnitude on the axis instead
    scale = np.maximum(np.maximum(np.abs(val), abs(_recip_gamma(beta)) / (1.0 + yr)), 1e-300)
    miss = ~((err <= 100.0 * DEFAULT_TOL * scale) | (err <= 1e-300))
    out[rest] = val
    missed[rest[miss]] = err[miss]
    return out, missed


def mlf_neg(alpha, beta, y):
    """E_{alpha,beta}(-y) for y >= 0, certified to DEFAULT_TOL relative.

    ``y`` is a scalar or an array of any shape: a scalar or 0-d array gives a
    float, any other array an array of its shape. Raises ValueError if any
    element is negative or NaN, and MlfAccuracyError, carrying the worst
    element's bound, if any element misses its certificate. E(-inf) is the
    limit 0, which E_{2,beta} has only for beta > 1.
    """
    if not (0.0 < alpha <= 2.0):
        raise ValueError("alpha must lie in (0, 2]")
    if not 0.0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
    y = np.asarray(y, dtype=float)
    if not np.all(y >= 0.0):
        raise ValueError("y must be nonnegative and not NaN")
    flat = y.ravel()
    out = np.zeros(flat.shape)
    out[flat == 0.0] = _recip_gamma(beta)
    infinite = np.isinf(flat)
    if alpha == 2.0 and beta <= 1.0 and infinite.any():
        raise ValueError(f"E_(2,{beta})(-y) has no limit as y -> inf")
    todo = np.flatnonzero((flat > 0.0) & ~infinite)
    if alpha != 1.0 and abs(alpha - 1.0) <= 1e-11:
        # the contour peak narrows below double resolution as alpha -> 1;
        # the parameter perturbation costs far less than the lost quadrature
        alpha = 1.0
    # a chunk at a time, so the routes' temporaries stay O(_CHUNK x _BLOCK)
    miss_at, miss_err = [todo[:0]], [np.zeros(0)]
    for lo in range(0, todo.size, _CHUNK):
        at = todo[lo:lo + _CHUNK]
        out[at], missed = _positive(alpha, beta, flat[at])
        bad = np.flatnonzero(missed)
        miss_at.append(at[bad])
        miss_err.append(missed[bad])
    at, err = np.concatenate(miss_at), np.concatenate(miss_err)
    if at.size:
        worst = np.argmax(err)
        raise MlfAccuracyError(
            f"achieved error estimate {err[worst]:.2e} for "
            f"E_({alpha},{beta})(-{float(flat[at[worst]])}) ({at.size} of {todo.size} "
            "arguments missed the certificate)",
            float(err[worst]),
        )
    return float(out[0]) if y.ndim == 0 else out.reshape(y.shape)
