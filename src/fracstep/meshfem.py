"""Uniform P1 finite elements on the unit square.

The square is split into M x M cells and each cell into two right triangles
by its lower-left/upper-right diagonal; on this mesh the P1 stiffness matrix
reproduces the classical 5-point stencil exactly. Homogeneous Dirichlet
conditions are imposed by eliminating boundary rows and columns, so all
systems act on the (M-1)^2 interior degrees of freedom.

Every linear system here has the form a M + b S with the interior mass M and
stiffness S, and a system's ``step_system(a, b)`` returns its solver, with
``solve(rhs)``. A solver answers the steps of one march in order and
chooses the start of each solve itself; its ``record`` lists the
(iterations, final residual) of each solve, or is None where a solve is a
division. Three kinds of system share it:

* ``FemSystem`` (``fem_system(M)``) assembles every load; studies step in
  its views, and it serves direct nodal calls. Its ``mass`` and
  ``stiffness`` are the sine view's, seen in nodal coordinates: a product
  maps x to Q (A (Q x)). Schemes on it march in its sine view, and its
  ``step_system`` (a projection is one solve) is the view's solver with the
  right-hand side mapped in and the solution mapped back.
* ``SineSystem`` (``fem.sine``) works in the coordinates Q u of the
  orthonormal sine basis Q = Phi (x) Phi of the interior grid (Phi the
  DST-I matrix; Q is its own inverse, so ``coords`` is ``nodal``). With
  c_k = cos(pi k/M) the stiffness is diag(4 - 2 c_k - 2 c_l), and the mass
  is diag(mu) + (h^2/24) G (x) G: mu are the eigenvalues of M~, the mass
  stencil with its diagonal coupling spread over both diagonals, and
  G = Phi D Phi for the central difference D, as M - M~ = (h^2/24) D (x) D.
  CG (backend ``cg``) solves each step system d + a (h^2/24) G (x) G,
  d = a mu + b lam, to the relative residual ``STEP_RTOL``, preconditioned
  by division by d, the fast-diagonalization preconditioner a M~ + b S
  (Lynch, Rice & Thomas 1964; Buzbee, Golub & Nielson 1970). The
  preconditioned spectrum lies in [0.63, 1.37] for every h and a, b >= 0,
  so iterations do not grow with the mesh; Q is orthogonal, so they are
  those of the same CG in nodal coordinates. Solve k starts from the
  degree-(m-1) polynomial through the last m = min(k-1, ``START_ORDER``)
  solutions at its own step, x0 = sum_j c_j x_(k-j) with the weights
  c_j = (-1)^(j+1) binom(m, j) (``start_weights``): zero at k = 1, the
  last solution at k = 2, 2 x1 - x2 at k = 3 (reusing earlier solutions
  of a sequence of systems with one matrix: Fischer, Comput. Methods Appl.
  Mech. Engrg. 163, 1998). The start's residual is rhs - sum_j c_j
  (A x)_(k-j), from the products A x = rhs - r of those solves, r the true
  residual CG confirmed, at no product. Both sums run in ``np.einsum``,
  not in BLAS, so their bits do not depend on the thread count.
* ``ModalSystem``, the modal view of a ``FemSystem``, works in the
  coordinates c = Phi^T M u of the M-orthonormal eigensystem (lam, Phi) of
  the pencil (S, M): the mass is the identity, the stiffness diag(lam), an
  assembled nodal load F becomes Phi^T F (``coords``), and a step solve is
  one division per mode (backend ``modal``). So ``l2_project`` gives
  Phi^T F and ``l2_norm`` the Euclidean norm. ``fem.modal`` builds it once
  from the sine view's mass scaled by S^(-1/2) on both sides, which falls
  apart by the parity of k + l and by the swap of k and l into four
  blocks, one ``eigh`` each. The view keeps the blocks' eigenvectors in
  sine coordinates: ``coords`` and ``nodal`` (Phi c) go through the sine
  transform and the blocks, and the dense nodal Phi (``basis``) is formed
  only when read. The discrete reference reads the view.

The mesh is built over whole arrays. Loads use a 6-point degree-4 triangle
rule. ``load_vector`` keeps each load read-only per (system or view,
function) in its owner (``owner_cache``, which the discrete reference's
factors share), so it is freed with it; a view's load is its coordinates
of the cached nodal load, so a function is integrated once per nodal
system.

The hat of a node is the box spline of the directions (h, 0), (0, h) and
(h, h) (de Boor, Hollig & Riemenschneider, *Box Splines*, 1993), whose
Fourier transform is h^2 times three sincs, so its moments against the sine
modes have a closed form (``sine_moments``): a FE function's distance to a
sine series needs no quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numkit import cg_solve

# relative residual of every CG step solve and projection; the step errors
# it leaves set the error floor of decay studies solved by CG
STEP_RTOL = 1e-12

# a CG step solve starts from the polynomial through at most this many
# earlier solutions. Its weights grow as binom(m, j), and with them the
# drift of the start's residual formed from stored products: on the M=16
# diffusion-wave march of case e it reaches 0.48, 1.06 and 2.2 times
# 4 eps (||rhs|| + ||A||_F ||x0||) at orders 6, 7 and 8
START_ORDER = 6

# classic 6-point degree-4 rule, barycentric (weights sum to 1)
_Q4_A1 = 0.445948490915965
_Q4_A2 = 0.091576213509771
_Q4_W1 = 0.223381589678011
_Q4_W2 = 0.109951743655322


def _quad_rule_deg4():
    # three points per a: 1 - 2a at one vertex, a at the other two
    a = np.repeat([_Q4_A1, _Q4_A2], 3)[:, None]
    pts = np.where(np.tile(np.eye(3, dtype=bool), (2, 1)), 1 - 2 * a, a)
    return pts, np.repeat([_Q4_W1, _Q4_W2], 3)


_Q4 = _quad_rule_deg4()


@dataclass(frozen=True, eq=False)
class Mesh:
    M: int
    nodes: np.ndarray        # ((M+1)^2, 2)
    triangles: np.ndarray    # (2 M^2, 3) node indices, positively oriented
    interior_map: np.ndarray  # node -> interior dof index, -1 on the boundary

    @property
    def h(self):
        return 1.0 / self.M

    @property
    def n_interior(self):
        return (self.M - 1) ** 2


def check_divisions(M):
    """ValueError unless M, the subdivisions per side, is even and positive."""
    if M < 2 or M % 2 != 0:
        raise ValueError("mesh divisions must be even and positive")


def build_mesh(M):
    """Uniform triangulation with M subdivisions per side (M even), each
    cell split by its lower-left-to-upper-right diagonal."""
    check_divisions(M)
    M = int(M)
    side = np.linspace(0.0, 1.0, M + 1)
    X, Y = np.meshgrid(side, side, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    # node (i, j) is i (M+1) + j; cell (i, j), row-major, has the triangles
    # (n00, n10, n11) and (n00, n11, n01) of its lower-left node n00
    n00 = np.arange(M * (M + 1), dtype=np.intp).reshape(M, M + 1)[:, :M].ravel()
    corners = np.array([[0, M + 1, M + 2], [0, M + 2, 1]], dtype=np.intp)
    triangles = (n00[:, None, None] + corners).reshape(-1, 3)
    # interior nodes are numbered row-major over i, j = 1..M-1
    interior_map = np.full((M + 1, M + 1), -1, dtype=np.intp)
    interior_map[1:M, 1:M] = np.arange((M - 1) ** 2).reshape(M - 1, M - 1)
    interior_map = interior_map.ravel()
    return Mesh(M, nodes, triangles, interior_map)


@dataclass(frozen=True, eq=False)
class FemSystem:
    mesh: Mesh

    @property
    def n_dof(self):
        return self.mesh.n_interior

    @functools.cached_property
    def mass(self):
        """The mass matrix: the sine view's, in nodal coordinates."""
        return NodalMatrix(self.sine, self.sine.mass)

    @functools.cached_property
    def stiffness(self):
        """The stiffness matrix: the sine view's, in nodal coordinates."""
        return NodalMatrix(self.sine, self.sine.stiffness)

    @property
    def fem(self):
        """The nodal system that assembles this system's loads: itself."""
        return self

    def coords(self, load):
        """An assembled nodal load in this system's coordinates: unchanged."""
        return load

    nodal = coords  # its coordinates are nodal values

    def step_system(self, a, b):
        """The solver of (a*mass + b*stiffness) x = rhs to ``STEP_RTOL``;
        a, b >= 0, not both 0 (see the module docstring)."""
        return NodalSolver(self.sine, self.sine.step_system(a, b))

    @functools.cached_property
    def sine(self):
        """The sine view of this system, built on first use."""
        return SineSystem(self)

    @functools.cached_property
    def modal(self):
        """The modal view of this system, built on first use."""
        return ModalSystem(self)

    def quad_points(self):
        """The degree-4 rule's points (nel, nq, 2) on every element, its
        weights (nq,) scaled by element area, and the shape values (nq, 3)."""
        bary, wts = _Q4
        pts = np.einsum("qk,ekd->eqd", bary, self.mesh.nodes[self.mesh.triangles])
        return pts, wts * (0.5 * self.mesh.h ** 2), bary


def start_weights(m):
    """The weights c_j = (-1)^(j+1) binom(m, j), j = 1..m: sum_j c_j x_(k-j)
    is the degree-(m-1) polynomial through x_(k-m)..x_(k-1) at step k."""
    return [float((-1) ** (j + 1) * math.comb(m, j)) for j in range(1, m + 1)]


@functools.lru_cache(maxsize=None)
def _row_weights(rows, m, k):
    """``start_weights(m)`` placed by row for solve k of a ring of ``rows``
    rows that holds solve i in row i % rows: weight j goes to the row of
    solve k - j. Only rows below m are filled while k < rows."""
    w = np.empty(m)
    w[(k - np.arange(1, m + 1)) % rows] = start_weights(m)
    w.flags.writeable = False
    return w


class CgSolver:
    """Backend ``cg``: preconditioned CG to ``STEP_RTOL``, from a start of
    its own choosing (see the module docstring). ``record`` holds the
    iteration count and final residual of each solve, in order."""

    backend = "cg"

    def __init__(self, matrix, precond):
        self.matrix = matrix
        self.precond = precond
        # solve k keeps x and matrix x in row k % START_ORDER
        self._x = np.empty((START_ORDER, matrix.n_rows))
        self._ax = np.empty_like(self._x)
        self.record = []

    def solve(self, rhs):
        """x with ||matrix x - rhs|| <= STEP_RTOL ||rhs||, or CgError."""
        k, order = len(self.record), len(self._x)   # k solves before this one
        x0 = r0 = None
        if k:
            m = min(k, order)
            w = _row_weights(order, m, k % order)
            # einsum sums without BLAS, so the bits do not depend on the
            # thread count
            x0 = np.einsum("j,ji->i", w, self._x[:m])
            r0 = rhs - np.einsum("j,ji->i", w, self._ax[:m])
        info = {}
        x = cg_solve(
            self.matrix, rhs, rel_tol=STEP_RTOL, x0=x0, stats=info, precond=self.precond, r0=r0
        )
        # the true residual cg_solve confirmed gives matrix x = rhs - r
        row = k % order
        self._x[row] = x
        np.subtract(rhs, info["residual_vector"], out=self._ax[row])
        self.record.append((info["iterations"], info["residual"]))
        return x


class NodalSolver:
    """``FemSystem.step_system``: a sine-view solver, nodal in and out."""

    def __init__(self, view, solver):
        self.view, self.solver = view, solver
        self.backend, self.record = solver.backend, solver.record

    def solve(self, rhs):
        return self.view.coords(self.solver.solve(self.view.coords(rhs)))


class SineSystem:
    """The sine view of ``fem`` (see the module docstring)."""

    def __init__(self, fem):
        M = fem.mesh.M
        n = M - 1
        self.fem, self.n_dof = fem, fem.n_dof
        self._phi = phi = sine_basis(n)
        # eigenvalues of M~ and S on the sine mode (k, l), c_k = cos(pi k/M)
        c = np.cos(np.pi * np.arange(1, n + 1) / M)
        ck, cl = c[:, None], c[None, :]
        mu = (0.5 + (ck + cl + ck * cl) / 6.0) / M ** 2
        lam = 4.0 - 2.0 * ck - 2.0 * cl
        # D takes sine mode k to a cosine orthogonal to the sine modes l with
        # k + l even: G is zero there, its diagonal too. Zeros and G^T = -G
        # are set exactly
        G = phi @ (np.eye(n, k=1) - np.eye(n, k=-1)) @ phi
        k = np.arange(n)
        G[(k[:, None] + k) % 2 == 0] = 0.0
        G = 0.5 * (G - G.T)
        self.mass = DiagPlusKron(mu.ravel(), 1.0 / (24.0 * M ** 2), G)
        self.stiffness = DiagPlusKron(lam.ravel(), 0.0, G)

    def coords(self, x):
        """Q x: sine coordinates of a nodal load, or nodal values of sine
        coordinates."""
        phi = self._phi
        return (phi @ np.reshape(x, phi.shape) @ phi).ravel()

    nodal = coords  # Q is its own inverse

    def step_system(self, a, b):
        _check_step(a, b)
        matrix = self.mass.scaled_add(a, self.stiffness, b)
        return CgSolver(matrix, lambda r: r / matrix.d)


class DiagPlusKron:
    """diag(d) + c G (x) G on the row-major (n, n) grid, G antisymmetric
    with zero diagonal: the sine view's matrices. A product is two n x n
    matrix products, none if c = 0."""

    def __init__(self, d, c, G):
        self.d, self.c, self.G = d, c, G
        self.n_rows = len(d)
        # (G (x) G) x is G X G^T = -G X G for the grid X of x
        self._minus_cG = -c * G if c else None

    def matvec(self, x):
        y = self.d * x
        if self.c:
            y += (self._minus_cG @ x.reshape(self.G.shape) @ self.G).ravel()
        return y

    def scaled_add(self, coeff, other, other_coeff):
        """coeff*self + other_coeff*other, for the same G."""
        return DiagPlusKron(
            coeff * self.d + other_coeff * other.d, coeff * self.c + other_coeff * other.c, self.G
        )

    def frobenius_norm(self):
        # ||G (x) G||_F = ||G||_F^2, and the cross term d_i c (G (x) G)_ii is 0
        return math.sqrt(self.d @ self.d + (self.c * np.sum(self.G * self.G)) ** 2)


class NodalMatrix:
    """Q A Q for a sine-view matrix A = diag(d) + c G (x) G: ``FemSystem.mass``,
    ``.stiffness`` and their combinations, applied through the view."""

    def __init__(self, view, matrix):
        self.view, self.matrix = view, matrix
        self.n_rows = matrix.n_rows

    def matvec(self, x):
        return self.view.coords(self.matrix.matvec(self.view.coords(x)))

    def scaled_add(self, coeff, other, other_coeff):
        """coeff*self + other_coeff*other, for the same view."""
        return NodalMatrix(self.view, self.matrix.scaled_add(coeff, other.matrix, other_coeff))

    def frobenius_norm(self):
        # Q is orthogonal
        return self.matrix.frobenius_norm()

    def diagonal(self):
        # Q (G (x) G) Q = D (x) D has a zero diagonal; Q diag(d) Q has
        # (Phi^2 d Phi^2)_ij at grid point (i, j), squares taken entrywise
        p2 = self.view._phi ** 2
        return (p2 @ self.matrix.d.reshape(p2.shape) @ p2).ravel()

    def to_dense(self):
        """The dense matrix, one product per column."""
        return np.column_stack([self.matvec(e) for e in np.eye(self.n_rows)])


class ModalSystem:
    """The modal view of ``fem`` (see the module docstring).

    ``lam`` holds the ascending eigenvalues of the pencil (S, M) of ``fem``,
    solved in the sine view. There S = diag(d) and M = diag(mu) + c G (x) G,
    and with s = d^(-1/2) the SPD matrix C = s M s has the eigenpairs
    (1/lam, z); the pencil's M-orthonormal vectors are sqrt(lam) s z.

    C falls apart into four blocks, each solved by its own ``eigh``. G is
    zero where k + l is even, so G (x) G couples the sine mode (k, l) only
    with modes whose two parities both flip: k + l keeps its parity. The
    swap (k, l) <-> (l, k) commutes with mu, d and G (x) G, so each parity
    class splits again into the combinations (e_kl + e_lk) / sqrt(2) and
    (e_kl - e_lk) / sqrt(2), k < l, the diagonal modes e_kk joining the
    symmetric block. A block (``_ModeBlock``) keeps its eigenvectors in
    these combinations; ``coords`` and ``nodal`` apply them to sine
    coordinates, and ``basis``, the dense nodal eigenvector matrix Phi, is
    formed only when read.
    """

    def __init__(self, fem):
        n = fem.n_dof
        if n > 4000:
            raise ValueError(
                "dense eigensolve guard exceeded; use the temporal "
                "self-convergence reference instead"
            )
        self.fem, self.sine, self.n_dof = fem, fem.sine, n
        k, l = np.triu_indices(fem.mesh.M - 1)
        blocks = []
        for parity in (0, 1):
            sym = (k + l) % 2 == parity
            anti = sym & (k < l)
            blocks += [_ModeBlock(self.sine, k[sym], l[sym], 1.0),
                       _ModeBlock(self.sine, k[anti], l[anti], -1.0)]
        lam = np.concatenate([b.lam for b in blocks])
        order = np.argsort(lam, kind="stable")
        # each block's modes go to their places in the ascending order
        where = np.empty(n, dtype=np.intp)
        where[order] = np.arange(n)
        first = np.cumsum([0] + [len(b.lam) for b in blocks])
        for b, lo, hi in zip(blocks, first, first[1:]):
            b.where = where[lo:hi]
        self.lam, self._blocks = lam[order], blocks
        self.mass, self.stiffness = Identity(np.ones(n)), Diagonal(self.lam)

    def coords(self, load):
        """The modal coordinates Phi^T F of an assembled nodal load F."""
        y = self.sine.coords(load)
        out = np.empty(self.n_dof)
        for b in self._blocks:
            out[b.where] = b.vectors.T @ b.restrict(y)
        return out

    def nodal(self, c):
        """The nodal coefficients Phi c of modal coordinates c."""
        y = np.zeros(self.n_dof)
        for b in self._blocks:
            b.extend(b.vectors @ c[b.where], y)
        return self.sine.coords(y)

    @functools.cached_property
    def basis(self):
        """Phi, the dense nodal eigenvector matrix, one column per entry of
        ``lam``: formed on first read, for callers that ask for it."""
        # one contiguous row per eigenvector, mapped to nodal values in place
        rows = np.empty((self.n_dof, self.n_dof))
        for b in self._blocks:
            cols = np.zeros((self.n_dof, len(b.lam)))
            b.extend(b.vectors, cols)
            rows[b.where] = cols.T
        for row in rows:
            row[:] = self.sine.nodal(row)
        return rows.T

    def step_system(self, a, b):
        _check_step(a, b)
        return Diagonal(a + b * self.lam)


class _ModeBlock:
    """One block of the modal view's eigenproblem (see ``ModalSystem``).

    Its coordinates are the orthonormal combinations w (e_kl + sign e_lk) of
    the sine modes (k, l), k <= l, of one parity of k + l (k < l if
    sign < 0), w = 1/2 on the diagonal and 1/sqrt(2) off it; R is the
    matrix of these columns. ``vectors`` holds the block's M-orthonormal
    eigenvectors in them, one column per entry of ``lam``, and ``where``,
    set by the view, the places of these modes in the view's ``lam``.
    """

    def __init__(self, sine, k, l, sign):
        mass, G = sine.mass, sine.mass.G
        self.ij, self.ji, self.sign = k * len(G) + l, l * len(G) + k, sign
        self.w = np.where(k == l, 0.5, math.sqrt(0.5))
        # R^T (G (x) G) R has the entries 2 w_p w_q (G_kk' G_ll' + sign G_kl' G_lk')
        C = G[np.ix_(k, k)] * G[np.ix_(l, l)]
        C += sign * (G[np.ix_(k, l)] * G[np.ix_(l, k)])
        C *= 2.0 * mass.c
        C *= self.w
        C *= self.w[:, None]
        # mu and d are symmetric in k and l, so R^T diag R is diagonal
        C.reshape(-1)[:: len(k) + 1] += mass.d[self.ij]
        s = 1.0 / np.sqrt(sine.stiffness.d[self.ij])
        C *= s
        C *= s[:, None]
        w, Z = np.linalg.eigh(C)
        self.lam = 1.0 / w
        Z *= s[:, None]
        Z *= np.sqrt(self.lam)
        self.vectors = Z

    def restrict(self, y):
        """R^T y for sine coordinates y."""
        return self.w * (y[self.ij] + self.sign * y[self.ji])

    def extend(self, x, y):
        """y += R x, into sine coordinates y; x may have trailing columns."""
        x = (x.T * self.w).T
        y[self.ij] += x
        y[self.ji] += self.sign * x


class Diagonal:
    """diag(d): the modal view's mass and stiffness, and its step solver,
    which keeps no record: a division has no iterations and no residual."""

    backend = "modal"
    record = None

    def __init__(self, d):
        self.d = d

    def matvec(self, x):
        return self.d * x

    def solve(self, rhs):
        """rhs / d, exact up to one rounding per entry."""
        return rhs / self.d


class Identity(Diagonal):
    """The modal view's mass: ``matvec`` returns x itself, not a copy."""

    def matvec(self, x):
        return x


def _check_step(a, b):
    if not (a >= 0.0 and b >= 0.0 and a + b > 0.0):
        raise ValueError(f"step system needs a, b >= 0, not both zero (got {a}, {b})")


def sine_basis(n):
    """Orthonormal DST-I matrix sqrt(2/(n+1)) sin(pi j k/(n+1)), j, k = 1..n.

    It is symmetric and its own inverse.
    """
    k = np.arange(1, n + 1)
    # reduce j*k modulo the period first, so sin sees arguments below 2 pi
    jk = np.outer(k, k) % (2 * (n + 1))
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * jk / (n + 1))


def assemble(mesh):
    """The P1 system on ``mesh``."""
    return FemSystem(mesh)


@functools.lru_cache(maxsize=16)
def fem_system(M):
    """The system of mesh parameter M; cached so that repeated studies
    share one instance (and with it its sine and modal views)."""
    return assemble(build_mesh(M))


def _scatter(fem, contrib):
    """Sum per-element contributions (nel, 3) into the interior nodal load."""
    dofs = fem.mesh.interior_map[fem.mesh.triangles]
    ok = dofs >= 0
    return np.bincount(dofs[ok], weights=contrib[ok], minlength=fem.n_dof)


def owner_cache(owner, name, maxsize, keys, compute):
    """The values of ``keys``, read-only, from the dict ``name`` held in
    ``owner`` itself, so they die with it; one cache for all owners would
    keep every system it has seen alive.

    ``compute(missing)`` gives the values of the keys the dict lacks, in
    one call. Every value asked for is filed again as the most recent, and
    the least recently used go past ``maxsize``; the values come back from
    this call, so one the filing evicts is never computed again."""
    entries = vars(owner).setdefault(name, {})
    wanted = dict.fromkeys(keys)
    found = {k: entries.pop(k) for k in wanted if k in entries}
    missing = [k for k in wanted if k not in found]
    if missing:
        found.update(zip(missing, compute(missing)))
    for key in wanted:
        found[key].flags.writeable = False
        entries[key] = found[key]
        if len(entries) > maxsize:
            del entries[next(iter(entries))]
    return [found[k] for k in keys]


def load_vector(sys, g):
    """Load vector (g, phi_i) in sys's coordinates, for a pure function
    ``g``, read-only: on a nodal system by elementwise quadrature, on a view
    the coordinates of its system's load. Each system or view keeps its
    last 64 loads (``owner_cache``), as ladders repeat them."""
    return owner_cache(sys, "_loads", 64, (g,), lambda _: [_load(sys, g)])[0]


def _load(sys, g):
    """``load_vector`` computed afresh."""
    if sys.fem is not sys:
        return sys.coords(load_vector(sys.fem, g))
    pts, w, shape = sys.quad_points()
    vals = np.broadcast_to(np.asarray(g(pts[..., 0], pts[..., 1]), dtype=float), pts.shape[:2])
    return _scatter(sys, np.einsum("eq,q,qa->ea", vals, w, shape))


def l2_project(sys, g):
    """Coefficients of the L2-orthogonal projection of g."""
    return sys.step_system(1.0, 0.0).solve(load_vector(sys, g))


def l2_norm(sys, c):
    c = np.asarray(c)
    return float(np.sqrt(max(c @ sys.mass.matvec(c), 0.0)))


def h1_seminorm(sys, c):
    c = np.asarray(c)
    return float(np.sqrt(max(c @ sys.stiffness.matvec(c), 0.0)))


def _node_tables(M, modes):
    """sin and cos of m pi i/M, i = 1..M-1, (M-1, K), for the K integer
    modes m, the phases reduced modulo 2 pi exactly first."""
    im = np.outer(np.arange(1, M), np.asarray(modes).astype(np.int64)) % (2 * M)
    phase = np.pi * im / M
    return np.sin(phase), np.cos(phase)


def sine_moments(fem, u, ks, ls):
    """The moments (u_h, sin(k pi x) sin(l pi y)), (K, L), of the P1
    function with interior nodal values u, for the integer modes ks, ls.

    With s_m = np.sinc(m h/2), the hat of node (x_i, y_j) has the moment
    (h^2/2) s_k s_l [(s_(k+l) + s_(k-l)) sin(k pi x_i) sin(l pi y_j)
    + (s_(k-l) - s_(k+l)) cos(k pi x_i) cos(l pi y_j)].
    """
    M = fem.mesh.M
    U = np.reshape(u, (M - 1, M - 1))
    (sx, cx), (sy, cy) = _node_tables(M, ks), _node_tables(M, ls)
    k, l = np.asarray(ks, dtype=float)[:, None], np.asarray(ls, dtype=float)
    plus, minus = np.sinc((k + l) / (2 * M)), np.sinc((k - l) / (2 * M))
    out = (sx.T @ U @ sy) * (plus + minus) + (cx.T @ U @ cy) * (minus - plus)
    return out * (np.sinc(k / (2 * M)) * np.sinc(l / (2 * M)) / (2 * M ** 2))
