import math

import numpy as np
import pytest
import scipy.linalg as sla

from fracstep import baselines, meshfem as mf, reference as ref, schemes
from fracstep.cq import BE, cq_weights
from fracstep.mlf import mlf_neg
from fracstep.schemes import SchemeConfig, TimeGrid


@pytest.fixture(scope="module")
def sys8():
    return mf.assemble(mf.build_mesh(8))


@pytest.fixture(scope="module")
def sys2():
    return mf.assemble(mf.build_mesh(2))


def cn_recursion(alpha, tau, N, m, s, u0=0.0, b=0.0, chi=0.0, f=None):
    """The Crank-Nicolson display for one dof with mass m and stiffness s;
    the source chi * f enters at the midpoints t_(n-1/2)."""
    a = [(j + 1) ** (2 - alpha) - j ** (2 - alpha) for j in range(N)]
    c = tau ** -alpha / math.gamma(3 - alpha)
    u = np.empty(N + 1)
    u[0] = u0
    for n in range(1, N + 1):
        acc = a[0] * u[n - 1] + a[n - 1] * tau * b
        for j in range(1, n):
            acc += (a[n - j - 1] - a[n - j]) * (u[j] - u[j - 1])
        load = chi * f((n - 0.5) * tau) if f else 0.0
        u[n] = (c * m * acc - 0.5 * s * u[n - 1] + load) / (c * a[0] * m + 0.5 * s)
    return u


def gl_weights(alpha, N):
    """Coefficients of (1 - z)^alpha by their two-term recurrence."""
    w = np.empty(N + 1)
    w[0] = 1.0
    for j in range(1, N + 1):
        w[j] = w[j - 1] * (j - 1 - alpha) / j
    return w


def one_dof(sys2, case):
    """Mass, stiffness, initial value, load and source time factor of the
    single interior dof of the M=2 mesh (f is None without a source)."""
    v = float(mf.l2_project(sys2, case.v)[0]) if case.v else 0.0
    chi = float(mf.load_vector(sys2, case.source_space)[0]) if case.source_space else 0.0

    def f(t):
        return sum(c * t ** g for c, g in case.source_powers)

    return 0.125, 4.0, v, chi, (f if case.source_space else None)


def assert_matches(hist, u, label):
    scale = max(np.max(np.abs(u)), 1e-30)
    err = np.max(np.abs(hist.U[:, 0] - u))
    assert err <= 1e-12 * scale, f"{label}: {err:.3e} against {scale:.3e}"


class TestCoefficients:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_l1_identities(self, alpha):
        b = baselines.l1_coefficients(alpha, 64)
        assert b[0] == 1.0
        assert np.all(np.diff(b) < 0.0)
        # partial sums telescope: sum_{j<n} b_j = n^{1-alpha}
        n = np.arange(1, 65, dtype=float)
        assert np.allclose(np.cumsum(b), n ** (1.0 - alpha), rtol=1e-13)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_cn_identities(self, alpha):
        a = baselines.cn_coefficients(alpha, 64)
        assert a[0] == 1.0
        assert np.all(np.diff(a) < 0.0)

    def test_zeng_weights_shared_with_quadrature(self):
        # the (1-z)^alpha weights are exactly the unit-step BE table
        w = cq_weights(BE, 0.7, 1.0, 32)
        g = np.empty(33)
        g[0] = 1.0
        for j in range(1, 33):
            g[j] = g[j - 1] * (j - 1 - 0.7) / j
        assert np.array_equal(w, g)


class TestScalarOracles:
    """Each baseline on the single-dof mesh against its display, coded as a
    plain loop, over every case the scheme accepts. A loop rather than
    pytest parameters keeps the test ids."""

    def test_l1_single_dof(self, sys2):
        alpha, N = 0.5, 20
        grid = TimeGrid(0.1, N)
        tau = grid.tau
        b = [(j + 1) ** (1 - alpha) - j ** (1 - alpha) for j in range(N)]
        c0 = tau ** -alpha / math.gamma(2 - alpha)
        for cid in "abc":
            case = ref.get_case(cid, alpha)
            hist = baselines.solve_baseline(sys2, case, "l1", grid)
            m, s, v, chi, f = one_dof(sys2, case)
            u = np.empty(N + 1)
            u[0] = v
            for n in range(1, N + 1):
                acc = b[n - 1] * u[0]
                for j in range(1, n):
                    acc += (b[j - 1] - b[j]) * u[n - j]
                load = chi * f(n * tau) if f else 0.0
                u[n] = (c0 * m * acc + load) / (c0 * m + s)
            assert_matches(hist, u, cid)

    def test_zeng1_single_dof(self, sys2):
        # tau^-alpha (1 - z)^alpha (u - u0) m = ((1 + z)/2)^alpha (chi f - s u)
        alpha, N = 0.5, 20
        grid = TimeGrid(0.1, N)
        tau = grid.tau
        w = gl_weights(alpha, N)
        ta, half = tau ** -alpha, 0.5 ** alpha
        for cid in "abc":
            case = ref.get_case(cid, alpha)
            hist = baselines.solve_baseline(sys2, case, "zeng1", grid)
            m, s, v, chi, f = one_dof(sys2, case)
            u = np.empty(N + 1)
            u[0] = v
            for n in range(1, N + 1):
                rhs = ta * m * w[0] * u[0]
                for j in range(1, n + 1):
                    rhs -= ta * m * w[j] * (u[n - j] - u[0])
                    rhs -= half * (-1) ** j * w[j] * s * u[n - j]
                if f:
                    rhs += half * chi * sum((-1) ** j * w[j] * f((n - j) * tau) for j in range(n + 1))
                u[n] = rhs / (ta * w[0] * m + half * w[0] * s)
            assert_matches(hist, u, cid)

    def test_zeng2_single_dof(self, sys2):
        alpha, N = 0.5, 20
        grid = TimeGrid(0.1, N)
        tau = grid.tau
        w = gl_weights(alpha, N)
        ta = tau ** -alpha
        for cid in "abc":
            case = ref.get_case(cid, alpha)
            hist = baselines.solve_baseline(sys2, case, "zeng2", grid)
            m, s, v, chi, f = one_dof(sys2, case)
            u = np.empty(N + 1)
            u[0] = v
            for n in range(1, N + 1):
                hist_sum = sum(w[j] * (u[n - j] - u[0]) for j in range(1, n + 1))
                # ta*(w0 u_n - w0 u0 + hist) m
                #   = -(1-a/2) s u_n - (a/2) s u_{n-1} + chi f at t_(n - a/2)
                lhs = ta * w[0] * m + (1 - alpha / 2) * s
                rhs = ta * m * (w[0] * u[0] - hist_sum) - (alpha / 2) * s * u[n - 1]
                if f:
                    rhs += chi * ((1 - alpha / 2) * f(n * tau) + alpha / 2 * f((n - 1) * tau))
                u[n] = rhs / lhs
            assert_matches(hist, u, cid)

    def test_cn_single_dof(self, sys2):
        alpha, N = 1.5, 20
        grid = TimeGrid(0.1, N)
        for cid in "defg":
            case = ref.get_case(cid, alpha)
            hist = baselines.solve_baseline(sys2, case, "cn", grid)
            m, s, v, chi, f = one_dof(sys2, case)
            bval = float(mf.l2_project(sys2, case.b)[0]) if case.b else 0.0
            u = cn_recursion(alpha, grid.tau, N, m, s, u0=v, b=bval, chi=chi, f=f)
            assert_matches(hist, u, cid)


class TestLimits:
    def test_l1_alpha_to_one_is_backward_euler(self, sys8):
        case = ref.get_case("a", 1.0 - 1e-12)
        grid = TimeGrid(0.1, 20)
        h_l1 = baselines.solve_baseline(sys8, case, "l1", grid)
        h_be = schemes.solve(sys8, case, SchemeConfig("BE", "subdiffusion"), grid)
        scale = mf.l2_norm(sys8, h_be.final)
        assert mf.l2_norm(sys8, h_l1.final - h_be.final) <= 1e-9 * scale


class TestRates:
    def test_l1_first_order_on_homogeneous_data(self, sys8):
        # the L1 scheme drops to first order for nonsmooth-in-time solutions
        case = ref.get_case("a", 0.5)
        r = ref.discrete_reference(sys8, case, 0.1)
        errs = []
        for N in (20, 40, 80, 160):
            h = baselines.solve_baseline(sys8, case, "l1", TimeGrid(0.1, N))
            errs.append(mf.l2_norm(sys8, h.final - r))
        rate = 0.5 * (math.log2(errs[-3] / errs[-2]) + math.log2(errs[-2] / errs[-1]))
        assert rate == pytest.approx(1.0, abs=0.1)

    def test_cn_rate_case_d_alpha15(self, sys8):
        case = ref.get_case("d", 1.5)
        r = ref.discrete_reference(sys8, case, 0.1)
        errs = []
        for N in (20, 40, 80, 160):
            h = baselines.solve_baseline(sys8, case, "cn", TimeGrid(0.1, N))
            errs.append(mf.l2_norm(sys8, h.final - r))
        rate = 0.5 * (math.log2(errs[-3] / errs[-2]) + math.log2(errs[-2] / errs[-1]))
        assert rate == pytest.approx(1.45, abs=0.15)

    def test_cn_tau2_term_cancels_at_alpha11(self):
        # Smallest mode of the M=16 pencil, case d at t=0.1: the error is
        # A tau^1.9 + B tau^2 with A, B of opposite sign, so the signed error
        # crosses zero between N=320 and N=640 and the plain rate is
        # meaningless there. e_N - 4 e_2N removes tau^2 and shows rate 1.9.
        sys = mf.fem_system(16)
        lam = sla.eigh(
            sys.stiffness.to_dense(), sys.mass.to_dense(),
            eigvals_only=True, subset_by_index=[0, 0],
        )[0]
        alpha, t = 1.1, 0.1
        exact = mlf_neg(alpha, 1.0, lam * t ** alpha)
        err = {N: cn_recursion(alpha, t / N, N, 1.0, lam, u0=1.0)[-1] - exact
               for N in (80, 160, 320, 640)}
        assert err[320] < 0.0 < err[640]
        rich = [abs(err[N] - 4.0 * err[2 * N]) for N in (80, 160, 320)]
        for coarse, fine in zip(rich, rich[1:]):
            assert math.log2(coarse / fine) == pytest.approx(1.9, abs=0.05)


class TestValidation:
    def test_kind_guards(self, sys8):
        case = ref.get_case("a", 0.5)
        with pytest.raises(ValueError):
            baselines.solve_baseline(sys8, case, "dpg", TimeGrid(0.1, 4))
        with pytest.raises(ValueError):
            baselines.solve_baseline(sys8, case, "cn", TimeGrid(0.1, 4))
        with pytest.raises(ValueError):
            baselines.solve_baseline(sys8, ref.get_case("d", 1.5), "l1", TimeGrid(0.1, 4))
