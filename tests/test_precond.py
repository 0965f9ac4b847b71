"""The sine-transform preconditioner of the step systems a M + b S, and the
sine view in which it is a division by the diagonal.

scipy serves as the oracle: its orthonormal DST-I, its dense SPD solve and
its generalized symmetric eigensolve. The stencil matrices below are built
from Kronecker products, apart from the program's assembly.
"""

import math

import numpy as np
import pytest
import scipy.fft
import scipy.linalg as sla

from _oracles import NodalCg, loop_matrices, sine_preconditioner
from fracstep import baselines, meshfem as mf, reference, schemes
from fracstep.cq import BE, cq_weights
from fracstep.numkit import CgError, cg_solve

PAIRS = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1e6, 1.0)]


def stencil_matrices(M):
    """(mass, M~, S) as dense matrices on the row-major (M-1, M-1) grid."""
    n = M - 1
    h2 = 1.0 / M ** 2
    eye = np.eye(n)
    up = np.eye(n, k=1)            # neighbour at i + 1 (or j + 1)
    side = up + up.T               # both neighbours along one axis
    axes = np.kron(side, eye) + np.kron(eye, side)
    stiffness = 4.0 * np.kron(eye, eye) - axes
    base = 0.5 * np.kron(eye, eye) + axes / 12.0
    # one diagonal per cell, lower-left to upper-right: NE and SW couple only
    mass = h2 * (base + (np.kron(up, up) + np.kron(up.T, up.T)) / 12.0)
    mass_tilde = h2 * (base + np.kron(side, side) / 24.0)
    return mass, mass_tilde, stiffness


class TestSineBasis:
    @pytest.mark.parametrize("n", [1, 3, 7, 15, 31, 63, 127])
    def test_orthogonal_and_matches_scipy_dst(self, n):
        phi = mf.sine_basis(n)
        # round-off level: without the argument reduction n=63 gives 4.6e-15
        assert np.max(np.abs(phi @ phi.T - np.eye(n))) <= 1e-15
        assert np.array_equal(phi, phi.T)
        ref = scipy.fft.dst(np.eye(n), type=1, norm="ortho", axis=0)
        assert np.max(np.abs(phi - ref)) <= 1e-15


class TestStencil:
    @pytest.mark.parametrize("M", [4, 8, 16])
    def test_assembled_matrices_are_the_stencils(self, M):
        sys_ = mf.fem_system(M)
        mass, _, stiffness = stencil_matrices(M)
        assert np.max(np.abs(sys_.mass.to_dense() - mass)) <= 1e-16
        assert np.max(np.abs(sys_.stiffness.to_dense() - stiffness)) <= 1e-13

    @pytest.mark.parametrize("M", [2, 4, 8, 16])
    @pytest.mark.parametrize("a,b", PAIRS)
    def test_inverts_its_twin(self, M, a, b):
        _, mass_tilde, stiffness = stencil_matrices(M)
        P = a * mass_tilde + b * stiffness
        apply = sine_preconditioner(M, a, b)
        X = np.random.default_rng(M).standard_normal(((M - 1) ** 2, 3))
        for x in X.T:
            assert np.linalg.norm(apply(P @ x) - x) <= 1e-12 * np.linalg.norm(x)


def dst2(X, M):
    """Q applied to each row of X, Q = Phi (x) Phi: scipy's orthonormal 2-D DST-I."""
    grids = np.reshape(X, (-1, M - 1, M - 1))
    return scipy.fft.dstn(grids, type=1, norm="ortho", axes=(1, 2)).reshape(len(grids), -1)


class TestSineView:
    """The sine view of fem_system(M) against the stencils and a march in
    nodal coordinates."""

    @pytest.mark.parametrize("M", [2, 4, 8, 16])
    def test_products_are_the_stencils_in_sine_coordinates(self, M):
        view = mf.fem_system(M).sine
        mass, _, stiffness = stencil_matrices(M)
        eye = np.eye(view.n_dof)
        eps = np.finfo(float).eps
        for A, op in ((mass, view.mass), (stiffness, view.stiffness)):
            want = dst2(dst2(eye, M) @ A, M)   # row j: Q A Q e_j, as Q A Q is symmetric
            got = np.array([op.matvec(x) for x in eye])
            assert np.max(np.abs(got - want)) <= 4.0 * eps * np.max(np.abs(want))

    @pytest.mark.parametrize("M", [2, 8, 16])
    def test_coords_is_its_own_inverse(self, M):
        view = mf.fem_system(M).sine
        x = np.random.default_rng(M).standard_normal(view.n_dof)
        assert np.linalg.norm(view.coords(x) - dst2(x, M)[0]) <= 1e-15 * np.linalg.norm(x)
        assert np.linalg.norm(view.coords(view.coords(x)) - x) <= 1e-15 * np.linalg.norm(x)
        # the in-place row loop of a nodal history
        U = np.array([x, 2.0 * x, -x])
        for row in U:
            row[:] = view.nodal(row)
        assert np.array_equal(U[0], view.coords(x))
        assert np.linalg.norm(U[1:] - [[2.0], [-1.0]] * U[0]) <= 1e-15 * np.linalg.norm(U)

    @pytest.mark.parametrize("a,b", PAIRS)
    def test_frobenius_norm_is_the_nodal_one(self, a, b):
        sys_ = mf.fem_system(16)
        got = sys_.sine.mass.scaled_add(a, sys_.sine.stiffness, b).frobenius_norm()
        mass, stiffness = loop_matrices(16)
        want = np.linalg.norm(a * mass + b * stiffness)
        assert abs(got - want) <= 1e-15 * want

    @pytest.mark.parametrize("scheme", ["be", "sbd", "l1", "zeng1", "zeng2", "cn"])
    def test_schemes_match_nodal_cg(self, scheme):
        # the same CG in exact arithmetic: the same iterations every step
        fem = mf.fem_system(8)
        grid = schemes.TimeGrid(0.1, 20)
        cases = [("e", 1.5), ("g", 1.5)] if scheme == "cn" else [("b", 0.5), ("c", 0.5)]
        if scheme in ("be", "sbd"):
            cases.append(("e", 1.5))
        for cid, alpha in cases:
            case = reference.get_case(cid, alpha)
            if scheme in ("be", "sbd"):
                eq = "subdiffusion" if alpha < 1.0 else "diffusion_wave"
                cfg = schemes.SchemeConfig(scheme.upper(), eq)
                sine, nodal = (schemes.solve(s, case, cfg, grid) for s in (fem, NodalCg(fem)))
            else:
                sine, nodal = (baselines.solve_baseline(s, case, scheme, grid)
                               for s in (fem, NodalCg(fem)))
            its = [[its for _, its, _ in h.solve_stats] for h in (sine, nodal)]
            assert its[0] == its[1], cid
            for n, (got, want) in enumerate(zip(sine.U, nodal.U)):
                assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want), (cid, n)


class TestSpectrum:
    @pytest.mark.parametrize("M", [4, 8, 16, 32])
    @pytest.mark.parametrize("a,b", PAIRS)
    def test_preconditioned_eigenvalues_bounded(self, M, a, b):
        mass, mass_tilde, stiffness = stencil_matrices(M)
        w = sla.eigh(a * mass + b * stiffness, a * mass_tilde + b * stiffness,
                     eigvals_only=True)
        assert 0.6 <= w.min() and w.max() <= 1.4


class TestPreconditionedCg:
    @pytest.mark.parametrize("M", [8, 16, 32, 64])
    @pytest.mark.parametrize("w0", [1.0, 1e2, 1e6])
    def test_iterations_mesh_independent(self, M, w0):
        sys_ = mf.fem_system(M)
        solver = sys_.step_system(w0, 1.0)
        assert solver.backend == "cg"
        b = np.random.default_rng(M).standard_normal(sys_.n_dof)
        x = solver.solve(b)
        assert solver.record[-1][0] <= 20
        matrix = sys_.mass.scaled_add(w0, sys_.stiffness, 1.0)
        assert np.linalg.norm(b - matrix.matvec(x)) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("a,b", PAIRS)
    def test_agrees_with_dense_solve(self, a, b):
        sys_ = mf.fem_system(16)
        solver = sys_.step_system(a, b)
        rhs = np.random.default_rng(5).standard_normal(sys_.n_dof)
        x = solver.solve(rhs)
        matrix = sys_.mass.scaled_add(a, sys_.stiffness, b)
        ref = sla.solve(matrix.to_dense(), rhs, assume_a="pos")
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_default_is_jacobi(self):
        sys_ = mf.fem_system(8)
        A = sys_.mass.scaled_add(1e2, sys_.stiffness, 1.0)
        rhs = np.random.default_rng(6).standard_normal(sys_.n_dof)
        inv_diag = 1.0 / A.diagonal()
        x = cg_solve(A, rhs, precond=lambda r: inv_diag * r)
        assert np.array_equal(cg_solve(A, rhs), x)

    def test_cg_error_still_raised(self):
        sys_ = mf.fem_system(16)
        solver = sys_.sine.step_system(1e6, 1.0)
        rhs = np.random.default_rng(7).standard_normal(sys_.n_dof)
        with pytest.raises(CgError) as exc:
            cg_solve(solver.matrix, rhs, rel_tol=1e-14, max_iter=1, precond=solver.precond)
        assert exc.value.residual > 0.0
        assert exc.value.iterations == 1

    def test_round_off_stall_reported_as_stall(self):
        # the first BE step of case (a), alpha = 0.1, t = 0.1, N = 10 from
        # x0 = v: the matrix is SPD, but 1e-14 asks for more than round-off
        # allows, and CG breaks down near 6e-14 ||rhs||. In nodal coordinates:
        # the sine view's products round less, and it reaches 3.6e-15 ||rhs||
        sys_ = NodalCg(mf.fem_system(16))
        case = reference.get_case("a", 0.1)
        w0 = cq_weights(BE, case.alpha, schemes.TimeGrid(0.1, 10).tau, 10)[0]
        solver = sys_.step_system(w0, 1.0)
        v = mf.l2_project(sys_, case.v)
        rhs = sys_.mass.matvec(w0 * v)
        with pytest.raises(CgError, match=r"CG stalled at residual .* \(target") as exc:
            cg_solve(solver.matrix, rhs, rel_tol=1e-14, x0=v, precond=solver.precond)
        assert 1e-14 * np.linalg.norm(rhs) < exc.value.residual < 1e-12 * np.linalg.norm(rhs)


class TestCallSites:
    @pytest.fixture
    def iterations(self, monkeypatch):
        """CG iteration counts of the projections, in call order."""
        seen = []

        def spy(*args, stats=None, **kwargs):
            stats = {} if stats is None else stats
            out = cg_solve(*args, **kwargs, stats=stats)
            seen.append(stats["iterations"])
            return out

        monkeypatch.setattr(mf, "cg_solve", spy)
        return seen

    def test_l2_project(self, iterations):
        sys_ = mf.fem_system(32)
        mf.l2_project(sys_, reference.get_case("b", 0.5).v)
        assert iterations and max(iterations) <= 20

    @pytest.mark.parametrize("scheme", ["be", "sbd", "l1", "zeng1", "zeng2", "cn"])
    def test_steppers(self, scheme):
        sys_ = mf.fem_system(32)
        alpha = 1.5 if scheme == "cn" else 0.5
        case = reference.get_case("d" if scheme == "cn" else "b", alpha)
        # tau = 0.1: stiffness-dominated steps, where Jacobi needs far more
        grid = schemes.TimeGrid(1.0, 10)
        if scheme in ("be", "sbd"):
            hist = schemes.solve(sys_, case, schemes.SchemeConfig(stepper=scheme.upper()), grid)
        else:
            hist = baselines.solve_baseline(sys_, case, scheme, grid)
        assert len(hist.solve_stats) == 10
        assert max(its for _, its, _ in hist.solve_stats) <= 20


class TestStepTolerance:
    """Every step solve and projection asks CG for meshfem.STEP_RTOL."""

    @pytest.fixture
    def tolerances(self, monkeypatch):
        seen = []

        def spy(*args, rel_tol, **kwargs):
            seen.append(rel_tol)
            return cg_solve(*args, rel_tol=rel_tol, **kwargs)

        monkeypatch.setattr(mf, "cg_solve", spy)
        return seen

    @pytest.mark.parametrize("scheme", ["be", "l1", "zeng1", "zeng2", "cn"])
    def test_steppers(self, tolerances, scheme):
        sys_ = mf.fem_system(8)
        case = reference.get_case("d" if scheme == "cn" else "b", 1.5 if scheme == "cn" else 0.5)
        grid = schemes.TimeGrid(0.1, 4)
        if scheme == "be":
            schemes.solve(sys_, case, schemes.SchemeConfig(), grid)
        else:
            baselines.solve_baseline(sys_, case, scheme, grid)
        assert len(tolerances) == 5
        assert set(tolerances) == {mf.STEP_RTOL}

    def test_projections(self, tolerances):
        sys_ = mf.fem_system(8)
        case = reference.get_case("a", 0.5)
        mf.l2_project(sys_, case.v)
        assert tolerances == [mf.STEP_RTOL]


class TestSelfStartedCg:
    """The CG step solver picks its own start: solve k starts from the
    polynomial through the last m = min(k-1, START_ORDER) solutions at its
    own step, sum_j c_j x_(k-j) with c_j = (-1)^(j+1) binom(m, j), and forms
    the start's residual from the products of those solves (nodal SBD, case
    e, M=16)."""

    N = 120

    def march(self, monkeypatch, restart=False):
        """The march's step solves as (matrix, rhs, x0, r0, x, stats);
        ``restart`` starts every solve from the last solution instead, with
        the residual of that start taken by a product."""
        calls, last = [], {}

        def spy(A, b, x0=None, r0=None, stats=None, **kwargs):
            if restart:
                x0, r0 = last.get(id(A)), None
            stats = {} if stats is None else stats
            x = cg_solve(A, b, x0=x0, r0=r0, stats=stats, **kwargs)
            calls.append((A, b, x0, r0, x, dict(stats)))
            last[id(A)] = x
            return x

        monkeypatch.setattr(mf, "cg_solve", spy)
        case = reference.get_case("e", 1.5)
        cfg = schemes.SchemeConfig("SBD", "diffusion_wave")
        schemes.solve(mf.fem_system(16), case, cfg, schemes.TimeGrid(0.1, self.N))
        monkeypatch.undo()
        # the projection of v comes first; the march solves last
        return calls[-self.N:]

    def test_record_carries_cg_solve_stats(self, monkeypatch):
        # the march's solve_stats are cg_solve's own numbers, step by step
        seen = []

        def spy(*args, stats=None, **kwargs):
            stats = {} if stats is None else stats
            x = cg_solve(*args, stats=stats, **kwargs)
            seen.append((stats["iterations"], stats["residual"]))
            return x

        monkeypatch.setattr(mf, "cg_solve", spy)
        case = reference.get_case("e", 1.5)
        cfg = schemes.SchemeConfig("SBD", "diffusion_wave")
        hist = schemes.solve(mf.fem_system(16), case, cfg, schemes.TimeGrid(0.1, self.N))
        # the projection of v comes first
        assert hist.backend == "cg" and len(seen) == self.N + 1
        assert hist.solve_stats == [(n, *s) for n, s in enumerate(seen[1:], start=1)]

    def test_start_and_residual(self, monkeypatch):
        calls = self.march(monkeypatch)
        eps = np.finfo(float).eps
        assert calls[0][2] is None and calls[0][3] is None
        for n, (A, b, x0, r0, x, stats) in enumerate(calls, start=1):
            if n > 1:
                # the weighted sum of the last m solutions, in any order of
                # summation: each entry within the rounding of both sums
                m = min(n - 1, mf.START_ORDER)
                terms = np.array([(-1) ** (j + 1) * math.comb(m, j) * calls[n - 1 - j][4]
                                  for j in range(1, m + 1)])
                slack = 2 * m * eps * np.abs(terms).sum(axis=0)
                assert np.all(np.abs(x0 - terms.sum(axis=0)) <= slack), n
                # the residual formed from stored products is the true one
                # up to round-off: no drift builds up over the steps
                drift = np.linalg.norm(r0 - (b - A.matvec(x0)))
                bound = eps * (np.linalg.norm(b) + A.frobenius_norm() * np.linalg.norm(x0))
                assert drift <= 4.0 * bound, (n, drift / bound)
            # the reported residual is the true one, within the tolerance
            assert stats["residual"] == np.linalg.norm(b - A.matvec(x))
            assert stats["residual"] <= mf.STEP_RTOL * np.linalg.norm(b), n

    def test_fewer_iterations_than_last_solution_start(self, monkeypatch):
        extrapolated = sum(c[5]["iterations"] for c in self.march(monkeypatch))
        last = sum(c[5]["iterations"] for c in self.march(monkeypatch, restart=True))
        assert extrapolated < last, (extrapolated, last)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_weights_reproduce_polynomials(self, m):
        # sum_j c_j p(k - j) = p(k) for every polynomial p of degree < m,
        # and not for t^m: the start is exact to degree m - 1
        weights = mf.start_weights(m)
        assert len(weights) == m and sum(weights) == 1.0
        k = 10
        for degree in range(m + 1):
            got = sum(c * (k - j) ** degree for j, c in enumerate(weights, start=1))
            assert (got == k ** degree) == (degree < m), degree

    def test_order_two_is_the_linear_start(self, monkeypatch):
        assert mf.start_weights(2) == [2.0, -1.0]
        monkeypatch.setattr(mf, "START_ORDER", 2)
        calls = self.march(monkeypatch)
        assert np.array_equal(calls[1][2], calls[0][4])
        for n in range(3, self.N + 1):
            assert np.array_equal(calls[n - 1][2], 2.0 * calls[n - 2][4] - calls[n - 3][4]), n

    def test_fewer_iterations_than_linear_start(self, monkeypatch):
        # 786 against 1,318 iterations when the start was introduced
        order6 = sum(c[5]["iterations"] for c in self.march(monkeypatch))
        monkeypatch.setattr(mf, "START_ORDER", 2)
        linear = sum(c[5]["iterations"] for c in self.march(monkeypatch))
        assert order6 <= 0.7 * linear, (order6, linear)
