"""Stepper tests built around an independently coded scalar recursion.

On the M=2 mesh there is a single interior dof with mass m = 1/8 and
stiffness s = 4, so every scheme collapses to a scalar recursion that can be
written down directly from the displayed formulas with mpmath-generated
quadrature weights. The solver must reproduce that recursion to 1e-12.
"""

import math
import tracemalloc

import numpy as np
import pytest
from _oracles import scalar_recursion

from fracstep import meshfem as mf
from fracstep import reference as ref
from fracstep import schemes
from fracstep.schemes import SchemeConfig, TimeGrid


@pytest.fixture(scope="module")
def sys2():
    return mf.assemble(mf.build_mesh(2))


@pytest.fixture(scope="module")
def sys8():
    return mf.assemble(mf.build_mesh(8))


CASES = [
    # (label, case id, alpha, equation, stepper, corrected)
    ("be-sub", "b", 0.5, "subdiffusion", "BE", True),
    ("sbd-sub", "b", 0.5, "subdiffusion", "SBD", True),
    ("be-wave-basic", "e", 1.5, "diffusion_wave", "BE", False),
    ("be-wave-corrected", "g", 1.5, "diffusion_wave", "BE", True),
    ("sbd-wave-corrected", "g", 1.5, "diffusion_wave", "SBD", True),
    ("sbd-wave-basic", "g", 1.5, "diffusion_wave", "SBD", False),
    ("be-sub-corrected-src", "c", 0.5, "subdiffusion", "BE", True),
    ("sbd-sub-basic-src", "c", 0.5, "subdiffusion", "SBD", False),
    ("sbd-wave-b", "f", 1.5, "diffusion_wave", "SBD", True),
]


class TestScalarOracle:
    @pytest.mark.parametrize("label,cid,alpha,eq,stepper,corrected", CASES)
    def test_single_dof_matches_recursion(self, sys2, label, cid, alpha, eq, stepper, corrected):
        case = ref.get_case(cid, alpha)
        N = 25
        tau = 0.1 / N
        grid = TimeGrid(0.1, N)
        cfg = SchemeConfig(stepper, eq, corrected=corrected)
        hist = schemes.solve(sys2, case, cfg, grid)

        m = float(sys2.mass.to_dense()[0, 0])
        s = float(sys2.stiffness.to_dense()[0, 0])
        v = float(mf.l2_project(sys2, case.v)[0]) if case.v else 0.0
        b = float(mf.l2_project(sys2, case.b)[0]) if case.b else 0.0
        chi = (
            float(mf.load_vector(sys2, case.source_space)[0])
            if case.source_space
            else 0.0
        )
        expect = scalar_recursion(
            stepper, "wave" if eq == "diffusion_wave" else "sub", corrected,
            alpha, tau, N, m, s, v=v, b=b, chi=chi, powers=case.source_powers,
        )
        scale = max(np.max(np.abs(expect)), 1e-30)
        assert np.max(np.abs(hist.U[:, 0] - expect)) <= 1e-12 * scale

    def test_hand_value_first_step(self, sys2):
        # single-dof first step: U1 = w0 m / (w0 m + s) with w0 = tau^{-1/2}
        case = ref.get_case("b", 0.5)
        hist = schemes.solve(sys2, case, SchemeConfig("BE", "subdiffusion"), TimeGrid(0.1, 1))
        w0 = 0.1 ** -0.5
        expect = w0 * 0.125 / (w0 * 0.125 + 4.0)
        assert hist.U[1, 0] == pytest.approx(expect, rel=1e-13)
        assert hist.U[1, 0] == pytest.approx(0.089934, abs=5e-7)


class TestHeatLimit:
    def test_be_alpha_near_one_is_backward_euler(self, sys8):
        case = ref.get_case("a", 1.0 - 1e-12)
        N = 40
        grid = TimeGrid(0.1, N)
        hist = schemes.solve(sys8, case, SchemeConfig("BE", "subdiffusion"), grid)

        # classical backward Euler heat stepping
        tau = grid.tau
        A = sys8.mass.scaled_add(1.0 / tau, sys8.stiffness, 1.0)
        from fracstep.numkit import cg_solve

        u = mf.l2_project(sys8, case.v)
        for _ in range(N):
            u = cg_solve(A, sys8.mass.matvec(u / tau), rel_tol=1e-14, x0=u)
        scale = mf.l2_norm(sys8, u)
        assert mf.l2_norm(sys8, hist.final - u) <= 1e-9 * scale


class TestInvariants:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("stepper", ["BE", "SBD"])
    def test_l2_stability_homogeneous(self, sys8, alpha, stepper):
        case = ref.get_case("b", alpha)
        hist = schemes.solve(sys8, case, SchemeConfig(stepper, "subdiffusion"), TimeGrid(0.5, 40))
        n0 = mf.l2_norm(sys8, hist.U[0])
        norms = [mf.l2_norm(sys8, u) for u in hist.U]
        assert max(norms) <= n0 * (1.0 + 1e-10)

    def test_linearity_superposition(self, sys8):
        # solve is linear in (v, f): case (b) + case (c) data summed
        alpha = 0.5
        grid = TimeGrid(0.1, 16)
        cfg = SchemeConfig("SBD", "subdiffusion")
        cb = ref.get_case("b", alpha)
        cc = ref.get_case("c", alpha)
        combined = ref.CaseSpec(
            id="bc",
            alpha=alpha,
            q=cb.q,
            r=0.0,
            v=cb.v,
            v_grad=None,
            b=None,
            source_space=cc.source_space,
            source_powers=cc.source_powers,
            v_factors=cb.v_factors,
            b_factors=None,
            f_factors=cc.f_factors,
            v_l2_norm=cb.v_l2_norm,
        )
        u_b = schemes.solve(sys8, cb, cfg, grid).final
        u_c = schemes.solve(sys8, cc, cfg, grid).final
        u_bc = schemes.solve(sys8, combined, cfg, grid).final
        scale = mf.l2_norm(sys8, u_bc)
        assert mf.l2_norm(sys8, u_bc - (u_b + u_c)) <= 1e-10 * scale

    @pytest.mark.parametrize("cid,alpha", [("a", 0.5), ("b", 0.5), ("d", 1.5), ("e", 1.5), ("f", 1.5)])
    def test_temporal_convergence_rates(self, sys8, cid, alpha):
        case = ref.get_case(cid, alpha)
        eq = "subdiffusion" if alpha < 1 else "diffusion_wave"
        r = ref.discrete_reference(sys8, case, 0.1)
        for stepper, expect, tol in (("BE", 1.0, 0.1), ("SBD", 2.0, 0.15)):
            errs = []
            for N in (20, 40, 80, 160):
                hist = schemes.solve(sys8, case, SchemeConfig(stepper, eq), TimeGrid(0.1, N))
                errs.append(mf.l2_norm(sys8, hist.final - r))
            rate = 0.5 * (
                math.log2(errs[-3] / errs[-2]) + math.log2(errs[-2] / errs[-1])
            )
            assert rate == pytest.approx(expect, abs=tol), (cid, stepper)

    def test_ritz_initial_projection(self, sys8):
        case = ref.get_case("a", 0.5)
        cfg = SchemeConfig("BE", "subdiffusion", initial_projection="Ritz")
        hist = schemes.solve(sys8, case, cfg, TimeGrid(0.1, 4))
        expect = mf.ritz_project(sys8, case.v_grad)
        assert np.allclose(hist.U[0], expect, atol=1e-12)

    def test_ritz_rejected_without_gradient(self, sys8):
        case = ref.get_case("b", 0.5)
        cfg = SchemeConfig("BE", "subdiffusion", initial_projection="Ritz")
        with pytest.raises(ValueError, match="gradient"):
            schemes.solve(sys8, case, cfg, TimeGrid(0.1, 4))


class TestConfigValidation:
    def test_alpha_equation_mismatch(self, sys8):
        with pytest.raises(ValueError):
            schemes.solve(
                sys8, ref.get_case("a", 0.5), SchemeConfig("BE", "diffusion_wave"), TimeGrid(0.1, 4)
            )

    def test_bad_stepper(self):
        with pytest.raises(ValueError):
            SchemeConfig("CN", "subdiffusion")

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            TimeGrid(0.1, 0)

    def test_solve_stats_recorded(self, sys2):
        hist = schemes.solve(
            sys2, ref.get_case("b", 0.5), SchemeConfig("BE", "subdiffusion"), TimeGrid(0.1, 5)
        )
        assert len(hist.solve_stats) == 5
        assert all(res < 1e-10 for _, _, res in hist.solve_stats)
        assert all(iters >= 0 for _, iters, _ in hist.solve_stats)


class TestHistorySum:
    """The core's history sum against the direct double loop, every step."""

    @pytest.mark.parametrize("scheme", ["be", "sbd", "l1", "zeng1", "zeng2", "cn"])
    def test_matches_direct_sum(self, scheme, sys8, monkeypatch):
        from fracstep import baselines

        N = 24
        real = schemes._march
        seen = []

        def march(sys_, grid, step, kernel, rhs, start):
            def checked(n, conv, D):
                assert not np.any(D[0])
                if n == 1:
                    assert conv is None
                else:
                    # sum_{j=1..n-1} kernel[j] D^(n-j), D^m = U^m - U^0 the stored row
                    direct = np.array([
                        math.fsum(kernel[j] * D[n - j][i] for j in range(1, n))
                        for i in range(sys_.n_dof)
                    ])
                    err = np.linalg.norm(conv - direct)
                    assert err <= 1e-13 * np.linalg.norm(direct), (n, err)
                seen.append(n)
                return rhs(n, conv, D)

            seen.append(len(kernel))
            return real(sys_, grid, step, kernel, checked, start)

        monkeypatch.setattr(schemes, "_march", march)
        case = ref.get_case("e" if scheme == "cn" else "c" if scheme == "sbd" else "b",
                            1.5 if scheme == "cn" else 0.5)
        grid = TimeGrid(0.1, N)
        if scheme in ("be", "sbd"):
            schemes.solve(sys8, case, SchemeConfig(scheme.upper()), grid)
        else:
            baselines.solve_baseline(sys8, case, scheme, grid)
        # kernels of length N (L1, Crank-Nicolson) and N + 1 (the others)
        assert seen[0] == (N if scheme in ("l1", "cn") else N + 1)
        assert seen[1:] == list(range(1, N + 1))


class TestTrajectoryMemory:
    """A solve allocates its (N+1) x n_dof trajectory and no other N x n_dof
    array: the history rows are the stored rows of the increment march."""

    @pytest.mark.parametrize("scheme", ["be", "sbd", "l1", "zeng1", "zeng2", "cn"])
    def test_peak_allocation(self, scheme):
        from fracstep import baselines

        sys16 = mf.fem_system(16)
        case = ref.get_case("e", 1.5) if scheme == "cn" else ref.get_case("b", 0.5)
        grid = TimeGrid(0.1, 400)
        tracemalloc.start()
        try:
            if scheme in ("be", "sbd"):
                hist = schemes.solve(sys16, case, SchemeConfig(scheme.upper()), grid)
            else:
                hist = baselines.solve_baseline(sys16, case, scheme, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * hist.U.nbytes, peak / hist.U.nbytes
