"""Independent oracles shared by the module tests and the acceptance suite.

Everything here is deliberately written from the scheme displays and the
P1 element formulas with plain loops and mpmath-generated weights, so it
shares no code path with the package. Agreement with these oracles is what
certifies the solvers and the assembly. The one exception is ``NodalCg``,
which replays the package's CG step solver in nodal coordinates, where the
package no longer steps.
"""

import math

import mpmath as mp
import numpy as np

from fracstep import meshfem


def mp_weights(kind, alpha, tau, N):
    """Quadrature weights via arbitrary-precision Taylor expansion."""
    mp.mp.dps = 40
    coeffs = {"BE": (1, -1), "SBD": (mp.mpf(3) / 2, -2, mp.mpf(1) / 2)}[kind]

    def f(xi):
        return (
            sum(c * xi ** j for j, c in enumerate(coeffs)) / mp.mpf(repr(tau))
        ) ** mp.mpf(repr(alpha))

    return np.array([float(c) for c in mp.taylor(f, 0, N)])


def numpy_series_power(coeffs, alpha, n_terms):
    """Taylor coefficients of p(xi)**alpha by the power recurrence, each term
    one numpy expression over j = 1..min(n, deg):

        q_n = sum(((alpha+1) j - n) a_j q_{n-j}) / (n a_0).

    The package's former route; its Python-float recurrence must match it
    bit for bit.
    """
    a = np.asarray(coeffs, dtype=float)
    deg = len(a) - 1
    q = np.zeros(n_terms)
    q[0] = a[0] ** alpha
    for n in range(1, n_terms):
        jmax = min(n, deg)
        js = np.arange(1, jmax + 1)
        q[n] = np.sum(((alpha + 1.0) * js - n) * a[1 : jmax + 1] * q[n - js]) / (
            n * a[0]
        )
    return q


def cq_weights_fft(rule, alpha, tau, N):
    """Weights of (delta(xi)/tau)**alpha by sampling the generating function
    on a scaled circle: 2^k >= 16 (N+1) roots of unity of radius rho < 1 and
    one inverse transform. Round-off limits the accuracy of the tiny
    high-index weights, so this serves as a cross-check of the recurrence.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    # oversample: aliasing decays like rho**L while round-off grows like
    # rho**-N, so a mild radius plus a long transform beats the balanced
    # sqrt(eps) choice by several orders
    L = 1 << max(4, int(np.ceil(np.log2(16 * (N + 1)))))
    rho = 0.1 ** (1.0 / max(N, 1))
    xi = rho * np.exp(2j * np.pi * np.arange(L) / L)
    delta = sum(a * xi ** j for j, a in enumerate(rule.delta_coeffs))
    # forward transform recovers Taylor coefficients: c_j = (1/L) sum f(xi_m) xi_m^{-j}
    coeffs = np.fft.fft((delta / tau) ** alpha)[: N + 1] / L
    return coeffs.real / rho ** np.arange(N + 1)


def parse_csv(text):
    """Inverse of ``harness.emit(..., 'csv')``: rows of (label, l2, h1, rate)."""
    rows = []
    lines = text.strip().split("\n")
    if lines[0] != "label,error_l2,error_h1,rate":
        raise ValueError(f"not a study CSV: header {lines[0]!r}")
    for line in lines[1:]:
        lab, e2, e1, r = line.split(",")
        conv = lambda s: None if s == "" else float(s)
        rows.append((lab, conv(e2), conv(e1), conv(r)))
    return rows


def _series(coeffs, N):
    """mpmath Taylor coefficients 0..N from a shorter list."""
    return [mp.mpf(c) for c in coeffs] + [mp.mpf(0)] * (N + 1 - len(coeffs))


def _binomial(a, r, N):
    """Taylor coefficients 0..N of (1 + r xi)^a."""
    return [mp.binomial(a, j) * r ** j for j in range(N + 1)]


def _product(p, q, N):
    """Taylor coefficients 0..N of the product of two series."""
    p, q = p + [0] * (N + 1), q + [0] * (N + 1)
    return [mp.fsum(p[k] * q[j - k] for k in range(j + 1)) for j in range(N + 1)]


def scheme_kernels(kind, alpha, tau, N):
    """Mass and stiffness kernels (k^M, k^S) of a scheme, Taylor coefficients
    0..N in mpmath, from the displayed schemes:

    * be: ((1 - xi)/tau)^alpha, sbd: ((1 - xi)(3 - xi)/(2 tau))^alpha, each
      with k^S = 1;
    * l1: tau^-alpha / Gamma(2 - alpha) (1 - xi) sum_j b_j xi^j with
      b_j = (j+1)^(1-alpha) - j^(1-alpha), k^S = 1;
    * zeng1 and zeng2: ((1 - xi)/tau)^alpha, with k^S ((1 + xi)/2)^alpha and
      1 - alpha/2 + (alpha/2) xi;
    * cn: tau^-alpha / Gamma(3 - alpha) (1 - xi)^2 sum_j a_j xi^j with
      a_j = (j+1)^(2-alpha) - j^(2-alpha), k^S = (1 + xi)/2.
    """
    mp.mp.dps = 40
    a, t = mp.mpf(repr(alpha)), mp.mpf(repr(tau))
    one = _series([1], N)
    gl = [c / t ** a for c in _binomial(a, -1, N)]
    if kind == "be":
        return gl, one
    if kind == "sbd":
        # (3 - xi)/2 = (3/2)(1 - xi/3)
        return [(mp.mpf(3) / 2) ** a * c for c in _product(gl, _binomial(a, -mp.mpf(1) / 3, N), N)], one
    if kind == "zeng1":
        return gl, [c / 2 ** a for c in _binomial(a, 1, N)]
    if kind == "zeng2":
        return gl, _series([1 - a / 2, a / 2], N)
    js = [mp.mpf(j) for j in range(N + 1)]
    if kind == "l1":
        b = [(j + 1) ** (1 - a) - j ** (1 - a) for j in js]
        return [c / (t ** a * mp.gamma(2 - a)) for c in _product([1, -1], b, N)], one
    if kind == "cn":
        A = [(j + 1) ** (2 - a) - j ** (2 - a) for j in js]
        return [c / (t ** a * mp.gamma(3 - a)) for c in _product([1, -2, 1], A, N)], _series([0.5, 0.5], N)
    raise ValueError(f"unknown scheme {kind!r}")


def mode_march(mass, stiff, lam, load):
    """D^0..D^N of one mode of eigenvalue lam, from the generating function
    D(xi) = F(xi) / (k^M(xi) + lam k^S(xi)) by mpmath power-series division;
    ``load`` holds the coefficients of F, with F_0 = 0."""
    den = [m + lam * s for m, s in zip(mass, stiff)]
    d = []
    for n, f in enumerate(load):
        d.append((f - mp.fsum(den[j] * d[n - j] for j in range(1, n + 1))) / den[0])
    return d


def scalar_recursion(kind, equation, corrected, alpha, tau, N, m, s,
                     v=0.0, b=0.0, chi=0.0, powers=()):
    """The displayed schemes specialized to one dof.

    m, s: mass and stiffness scalars; v, b: projected data values; chi: load
    integral of the source's spatial factor; powers: the source time factor
    as (coef, exponent) monomials.
    """
    w = mp_weights(kind, alpha, tau, N)
    w1 = mp_weights(kind, 1.0, tau, N)
    times = tau * np.arange(N + 1)

    def phi(t):
        return sum(c * t ** g for c, g in powers)

    def phi_int(t):
        return sum(c * t ** (g + 1) / (g + 1) for c, g in powers)

    u = np.empty(N + 1)
    u[0] = v
    for n in range(1, N + 1):
        lhs = w[0] * m + s
        hist = sum(w[j] * (u[n - j] - v) for j in range(1, n + 1))
        rhs = m * (w[0] * v - hist)
        if equation == "wave":
            sigma = sum(w[j] * times[n - j] for j in range(n + 1))
            rhs += m * sigma * b
        if powers:
            if corrected:
                rhs += chi * sum(w1[j] * phi_int(times[n - j]) for j in range(n + 1))
            else:
                rhs += chi * phi(times[n])
        if kind == "SBD" and n == 1:
            rhs -= 0.5 * s * u[0]
            if powers:
                rhs += 0.5 * chi * (0.0 if corrected else phi(0.0))
        u[n] = rhs / lhs
    return u


def loop_mesh(M):
    """Nodes, triangles and interior map of the uniform mesh, each cell split
    by its lower-left-to-upper-right diagonal, one node and one cell at a
    time."""
    side = np.linspace(0.0, 1.0, M + 1)
    X, Y = np.meshgrid(side, side, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(i, j):
        return i * (M + 1) + j

    tris = []
    for i in range(M):
        for j in range(M):
            n00, n10, n11, n01 = nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)
            tris.append((n00, n10, n11))
            tris.append((n00, n11, n01))
    interior_map = np.full((M + 1) ** 2, -1, dtype=np.intp)
    k = 0
    for i in range(1, M):
        for j in range(1, M):
            interior_map[nid(i, j)] = k
            k += 1
    return nodes, np.array(tris, dtype=np.intp), interior_map


def loop_element(coords):
    """Exact P1 mass and stiffness matrices and gradients of one triangle."""
    x, y = coords[:, 0], coords[:, 1]
    bmat = np.array(
        [
            [y[1] - y[2], y[2] - y[0], y[0] - y[1]],
            [x[2] - x[1], x[0] - x[2], x[1] - x[0]],
        ]
    )
    det = x[1] * y[2] - x[2] * y[1] - x[0] * (y[2] - y[1]) + y[0] * (x[2] - x[1])
    area = 0.5 * det
    grads = bmat / det
    K = area * grads.T @ grads
    Mloc = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
    return Mloc, K, grads


def loop_assembly(nodes, triangles, interior_map):
    """Interior mass and stiffness entries summed element by element.

    Returns rows, cols, mass values and stiffness values, sorted by
    (row, col), and the element gradients (nel, 2, 3). Each entry is the sum
    of its element contributions in element order.
    """
    mass, stiff = {}, {}
    grads = np.empty((len(triangles), 2, 3))
    for e, tri in enumerate(triangles):
        Mloc, Kloc, grads[e] = loop_element(nodes[tri])
        dofs = interior_map[tri]
        for a in range(3):
            for b in range(3):
                if dofs[a] < 0 or dofs[b] < 0:
                    continue
                key = (dofs[a], dofs[b])
                mass[key] = mass.get(key, 0.0) + Mloc[a, b]
                stiff[key] = stiff.get(key, 0.0) + Kloc[a, b]
    keys = sorted(mass)
    rows = np.array([r for r, _ in keys], dtype=np.intp)
    cols = np.array([c for _, c in keys], dtype=np.intp)
    return rows, cols, np.array([mass[k] for k in keys]), np.array([stiff[k] for k in keys]), grads


def loop_matrices(M):
    """The dense interior mass and stiffness of ``loop_assembly`` on the
    mesh of ``loop_mesh(M)``."""
    rows, cols, mass, stiffness, _ = loop_assembly(*loop_mesh(M))
    n = (M - 1) ** 2
    dense = np.zeros((2, n, n))
    dense[:, rows, cols] = mass, stiffness
    return dense[0], dense[1]


class DenseOperator:
    """A dense matrix with the operator interface of ``numkit.cg_solve``."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        self.n_rows = len(self.a)

    def matvec(self, x):
        return self.a @ x

    def diagonal(self):
        return np.diag(self.a).copy()

    def frobenius_norm(self):
        return float(np.linalg.norm(self.a))

    def scaled_add(self, coeff, other, other_coeff):
        return DenseOperator(coeff * self.a + other_coeff * other.a)


def bincount_matvec(n_rows, rows, cols, vals, x):
    """A x from triplets sorted by (row, col), one per entry, as
    ``loop_assembly`` returns them: gather x at every entry's column and add
    each row's products in column order, from 0."""
    prod = vals * np.asarray(x)[cols]
    # float even without entries, where bincount returns int64 zeros
    return np.bincount(rows, weights=prod, minlength=n_rows).astype(float, copy=False)


def gen_sym_eig(S, M):
    """Eigenpairs of S phi = lam M phi for symmetric S and SPD M, from dense
    matrices: C = L^-1 S L^-T for the Cholesky factor L of M, then
    ``numpy.linalg.eigh``. Returns ascending eigenvalues and M-orthonormal
    eigenvector columns; a mass without a Cholesky factor is a ValueError.
    """
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise ValueError("mass matrix not PD") from None
    C = np.linalg.solve(L, np.linalg.solve(L, S).T)
    w, Q = np.linalg.eigh(0.5 * (C + C.T))
    return w, np.linalg.solve(L.T, Q)


def nested_interpolant(u, M, r):
    """Interior nodal values on the mesh r M of the P1 function with interior
    nodal values u on the mesh M. The meshes are nested and cut their cells
    by the same diagonal, so the function is P1 on the finer one too and
    these values give it exactly."""
    full = np.zeros((M + 1, M + 1))
    full[1:M, 1:M] = np.reshape(u, (M - 1, M - 1))
    out = np.empty((r * M - 1, r * M - 1))
    for I in range(1, r * M):
        for J in range(1, r * M):
            i, j = min(I // r, M - 1), min(J // r, M - 1)
            s, t = I / r - i, J / r - j
            n00, n10 = full[i, j], full[i + 1, j]
            n11, n01 = full[i + 1, j + 1], full[i, j + 1]
            if s >= t:  # lower triangle (n00, n10, n11)
                out[I - 1, J - 1] = n00 + s * (n10 - n00) + t * (n11 - n10)
            else:       # upper triangle (n00, n11, n01)
                out[I - 1, J - 1] = n00 + t * (n01 - n00) + s * (n11 - n01)
    return out.ravel()


def _collapsed_rule(n):
    """Triangle rule from an n x n Gauss grid via the Duffy collapse, as
    (barycentric points (n^2, 3), weights summing to 1/2): exact for total
    degree <= 2n - 2."""
    x, w = np.polynomial.legendre.leggauss(n)
    u, wu = 0.5 * (x + 1.0), 0.5 * w
    # point (i, j), row-major: xi = u_i, eta = u_j (1 - u_i)
    xi = np.repeat(u, n)
    eta = np.tile(u, n) * (1.0 - xi)
    return np.column_stack([1.0 - xi - eta, xi, eta]), np.repeat(wu, n) * np.tile(wu, n) * (1.0 - xi)


# degree 10, well above the degree 4 that P1 error integrals need
RULE_10 = _collapsed_rule(6)


def series_fields(sol):
    """The series u = 2 sum A[k, l] sin(k pi x) sin(l pi y) of a
    ``reference.ExactSolution`` and its gradient, as callables u(x, y) and
    grad(x, y) -> (du/dx, du/dy) on the tensor grid of x (nx, 1) and
    y (1, ny): u is 2 (SX A) SY^T for the sine tables SX[i, k] = sin(k pi x_i)
    and SY[j, l] = sin(l pi y_j), and a gradient component swaps one table
    for its derivative."""
    A, ks, ls = 2.0 * sol.amplitudes, sol.expansion.ks, sol.expansion.ls

    def tables(x, y):
        px, py = np.pi * np.outer(x, ks), np.pi * np.outer(y, ls)
        return np.sin(px), np.sin(py), np.pi * ks * np.cos(px), np.pi * ls * np.cos(py)

    def u(x, y):
        sx, sy, _, _ = tables(x, y)
        return sx @ A @ sy.T

    def grad(x, y):
        sx, sy, cx, cy = tables(x, y)
        return cx @ A @ sy.T, sx @ A @ cy.T

    return u, grad


def error_norms(sys, c, u, grad=None):
    """(L2, H1-seminorm) error of the FE function c against the pointwise
    field u by ``RULE_10``, summed one tensor grid at a time; the H1 part
    is None without ``grad``.

    Point q of triangle half t lies at the same offset in every cell, so
    its x depends on the cell's row i alone and its y on the column j: the
    points of one (t, q) are the grid x (M, 1) by y (1, M) on which u(x, y)
    and grad(x, y) -> (du/dx, du/dy) are called, and no field over all
    points is formed."""
    mesh, M = sys.mesh, sys.mesh.M
    bary, w = RULE_10
    w = w * mesh.h ** 2
    full = np.zeros(len(mesh.nodes))
    inner = mesh.interior_map >= 0
    full[inner] = np.asarray(c)[mesh.interior_map[inner]]
    # element (i M + j) 2 + t is [i, j, t]
    corners = mesh.nodes[mesh.triangles].reshape(M, M, 2, 3, 2)
    local = full[mesh.triangles].reshape(M, M, 2, 3)
    l2_sq = h1_sq = 0.0
    for t in (0, 1):
        xs = corners[:, 0, t, :, 0] @ bary.T   # (M, nq)
        ys = corners[0, :, t, :, 1] @ bary.T
        # the FE gradient is constant per element, and the shape gradients
        # are those of every cell's half t
        fe_grad = local[:, :, t] @ loop_element(corners[0, 0, t])[2].T
        for q, wq in enumerate(w):
            x, y = xs[:, q : q + 1], ys[None, :, q]
            d = local[:, :, t] @ bary[q] - u(x, y)
            l2_sq += wq * np.vdot(d, d)
            if grad is not None:
                gx, gy = grad(x, y)
                dx, dy = fe_grad[..., 0] - gx, fe_grad[..., 1] - gy
                h1_sq += wq * (np.vdot(dx, dx) + np.vdot(dy, dy))
    return math.sqrt(l2_sq), (None if grad is None else math.sqrt(h1_sq))


def sine_preconditioner(M, a, b):
    """r -> P^-1 r for P = a M~ + b S on the interior grid of build_mesh(M),
    by four dense products with the DST-I matrix: the nodal CG
    preconditioner that the sine view replaced.

    S is the 5-point stiffness; M~ has the mass stencil's centre h^2/2 and
    E/W/N/S entries h^2/12, and h^2/24 on all four diagonals in place of
    h^2/12 on NE/SW. With c_k = cos(pi k/M), P has the eigenvalue
    a h^2 (1/2 + (c_k + c_l + c_k c_l)/6) + b (4 - 2 c_k - 2 c_l) on the
    sine mode (k, l) of the row-major (M-1, M-1) grid.
    """
    n = M - 1
    phi = meshfem.sine_basis(n)
    c = np.cos(np.pi * np.arange(1, n + 1) / M)
    ck, cl = c[:, None], c[None, :]
    lam = a * (0.5 + (ck + cl + ck * cl) / 6.0) / M ** 2 + b * (4.0 - 2.0 * ck - 2.0 * cl)

    def apply(r):
        coef = phi @ r.reshape(n, n) @ phi
        return (phi @ (coef / lam) @ phi).ravel()

    return apply


class NodalCg:
    """``fem`` stepped in nodal coordinates: loads, projections and steps
    stay nodal, and each step system is the dense a M + b S of
    ``loop_matrices``, solved by the package's ``CgSolver`` (its tolerance
    and start) with ``sine_preconditioner``. Not a ``FemSystem``, so
    schemes do not route it into the sine view."""

    def __init__(self, fem):
        self.fem, self.n_dof = fem, fem.n_dof
        self.mass, self.stiffness = map(DenseOperator, loop_matrices(fem.mesh.M))

    def coords(self, load):
        return load

    def step_system(self, a, b):
        matrix = self.mass.scaled_add(a, self.stiffness, b)
        return meshfem.CgSolver(matrix, sine_preconditioner(self.fem.mesh.M, a, b))
