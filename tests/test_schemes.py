"""Stepper tests built around an independently coded scalar recursion.

On the M=2 mesh there is a single interior dof with mass m = 1/8 and
stiffness s = 4, so every scheme collapses to a scalar recursion that can be
written down directly from the displayed formulas with mpmath-generated
quadrature weights. The solver must reproduce that recursion to 1e-12.
"""

import dataclasses
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from _oracles import mode_march, scalar_recursion, scheme_kernels

from fracstep import baselines, meshfem as mf
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

    @pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf])
    def test_non_finite_end_time(self, T):
        # NaN passed the old T <= 0 test and marched a silent NaN solve
        with pytest.raises(ValueError, match="finite T"):
            TimeGrid(T, 10)

    @pytest.mark.parametrize("N", [2.5, 10.0, True, "10"])
    def test_non_integer_step_count(self, N):
        # N = 2.5 built times ending at 0.12, not at T = 0.1
        with pytest.raises(ValueError, match="integer N"):
            TimeGrid(0.1, N)

    def test_numpy_integer_step_count(self):
        assert TimeGrid(0.1, np.int64(4)).times()[-1] == TimeGrid(0.1, 4).times()[-1]

    def test_solve_stats_recorded(self, sys2):
        hist = schemes.solve(
            sys2, ref.get_case("b", 0.5), SchemeConfig("BE", "subdiffusion"), TimeGrid(0.1, 5)
        )
        assert len(hist.solve_stats) == 5
        assert all(res < 1e-10 for _, _, res in hist.solve_stats)
        assert all(iters >= 0 for _, iters, _ in hist.solve_stats)


def direct_march(mass_matrix, stiff_matrix, mass_kernel, stiff_kernel, loads, start, N):
    """U^0..U^N of the two-kernel march with dense mass and stiffness: for
    n >= 1, sum_{j=0..n} (k^M_j M + k^S_j S) D^(n-j) = sum_i c_i[n] F_i
    - (sum_{j<=n} k^S_j) S start, each entry of the right side a math.fsum
    over the products M D^m and S D^m, each taken once, and one dense
    solve (one division per mode on a modal view); F = None stands for
    S start."""

    def k(kernel, j):
        return float(kernel[j]) if j < len(kernel) else 0.0

    n_dof = len(start)
    D, MD, SD = (np.zeros((N + 1, n_dof)) for _ in range(3))
    S_start = stiff_matrix @ start
    step = mass_kernel[0] * mass_matrix + stiff_kernel[0] * stiff_matrix
    for n in range(1, N + 1):
        rhs = np.empty(n_dof)
        for i in range(n_dof):
            terms = [c[n] * (S_start[i] if F is None else F[i]) for c, F in loads]
            terms.append(-math.fsum(k(stiff_kernel, j) for j in range(n + 1)) * S_start[i])
            terms += [-(k(mass_kernel, j) * MD[n - j, i] + k(stiff_kernel, j) * SD[n - j, i])
                      for j in range(1, n)]
            rhs[i] = math.fsum(terms)
        D[n] = np.linalg.solve(step, rhs)
        MD[n], SD[n] = mass_matrix @ D[n], stiff_matrix @ D[n]
    return D + start


def long_double_march(lam, mass_kernel, stiff_kernel, loads, start, N):
    """U^0..U^N of the two-kernel march on a modal view of eigenvalues lam,
    one scalar recursion per mode carried in long double."""
    ld = np.longdouble
    lam, start = lam.astype(ld), start.astype(ld)
    kM, kS = np.zeros(N + 1, ld), np.zeros(N + 1, ld)
    kM[: len(mass_kernel)], kS[: len(stiff_kernel)] = mass_kernel[: N + 1], stiff_kernel[: N + 1]
    kappa = kM[:, None] + kS[:, None] * lam
    S_start, sums = lam * start, np.cumsum(kS)
    D = np.zeros((N + 1, len(lam)), ld)
    for n in range(1, N + 1):
        rhs = -sums[n] * S_start
        for c, F in loads:
            rhs += ld(c[n]) * (S_start if F is None else F.astype(ld))
        rhs -= (kappa[n - 1 : 0 : -1] * D[1:n]).sum(axis=0)
        D[n] = rhs / kappa[0]
    return D + start


def dense(sys_):
    """The mass and stiffness of a modal view or a nodal system as dense arrays."""
    if isinstance(sys_, mf.ModalSystem):
        return np.eye(sys_.n_dof), np.diag(sys_.lam)
    return sys_.mass.to_dense(), sys_.stiffness.to_dense()


class DenseSteps:
    """A nodal system whose step solves are exact dense solves, so that its
    march differs from the direct sum by round-off alone while its history
    sums still run through the nodal ``matvec`` of ``fem``."""

    backend = "dense"

    def __init__(self, fem):
        self.n_dof, self.mass, self.stiffness = fem.n_dof, fem.mass, fem.stiffness

    def step_system(self, a, b):
        self.matrix = a * self.mass.to_dense() + b * self.stiffness.to_dense()
        self.record = []
        return self

    def solve(self, rhs):
        x = np.linalg.solve(self.matrix, rhs)
        self.record.append((0, float(np.linalg.norm(self.matrix @ x - rhs))))
        return x


def assert_rows_match(U, expect):
    for n, (got, want) in enumerate(zip(U, expect)):
        err = np.linalg.norm(got - want)
        assert err <= 1e-13 * np.linalg.norm(want), (n, err)


def full_case(alpha):
    """The initial value of case b or e, the b of case f and the source of
    c or g in one case, so that every load a scheme knows is present."""
    sub = alpha < 1.0
    base = ref.get_case("b" if sub else "e", alpha)
    src = ref.get_case("c" if sub else "g", alpha)
    extra = {} if sub else {k: getattr(ref.get_case("f", alpha), k) for k in ("b", "b_factors", "r")}
    return dataclasses.replace(base, source_space=src.source_space, source_powers=src.source_powers,
                               f_factors=src.f_factors, **extra)


def run_scheme(sys_, case, scheme, grid):
    if scheme in ("be", "sbd"):
        eq = "subdiffusion" if case.alpha < 1.0 else "diffusion_wave"
        return schemes.solve(sys_, case, SchemeConfig(scheme.upper(), eq), grid)
    return baselines.solve_baseline(sys_, case, scheme, grid)


class TestHistorySum:
    """The core ``_march`` against the direct double loop, every step, on the
    modal view of fem_system(8), where each solve is one exact division, and
    on fem_system(4) with exact dense step solves."""

    @pytest.fixture(scope="class")
    def view8(self):
        return mf.fem_system(8).modal

    @staticmethod
    def march_random(sys_, N, mass_len, stiff_len, decay):
        """The core and the direct loop on random kernels of the named
        lengths, entry j scaled by decay(j), two random loads and an S start
        load. With sum_{j>=1} decay(j) <= 1, less than the leads 2 and 1,
        the march stays well conditioned."""
        lengths = {"N+1": N + 1, "N": N, "2": 2, "B+8": schemes.BLOCK + 8}
        rng = np.random.default_rng([lengths[mass_len], lengths[stiff_len]])

        def kernel(length, lead):
            k = rng.uniform(-1.0, 1.0, length) * decay(np.arange(length))
            k[0] = lead
            return k

        mass, stiff = kernel(lengths[mass_len], 2.0), kernel(lengths[stiff_len], 1.0)
        start = rng.standard_normal(sys_.n_dof)
        loads = [(rng.standard_normal(N + 1), rng.standard_normal(sys_.n_dof)) for _ in range(2)]
        loads.append((rng.standard_normal(N + 1), None))
        hist = schemes._march(sys_, TimeGrid(0.1, N), mass, stiff, loads, start)
        assert_rows_match(hist.U, direct_march(*dense(sys_), mass, stiff, loads, start, N))

    @pytest.mark.parametrize("mass_len", ["N+1", "N", "2"])
    @pytest.mark.parametrize("stiff_len", ["N+1", "N", "2"])
    def test_random_kernels(self, view8, mass_len, stiff_len):
        self.march_random(view8, 24, mass_len, stiff_len, lambda j: 0.5 ** j)

    @pytest.mark.parametrize("mass_len", ["N+1", "N", "2", "B+8"])
    @pytest.mark.parametrize("stiff_len", ["N+1", "N", "2"])
    @pytest.mark.parametrize("system,N", [
        pytest.param("modal", 3 * schemes.BLOCK + 5, id="modal"),
        pytest.param("nodal", 3 * schemes.BLOCK + 5, id="nodal"),
        pytest.param("modal", schemes.BLOCK + 1, id="modal-B+1"),
        pytest.param("modal", 2 * schemes.BLOCK + 3, id="modal-2B+3"),
    ])
    def test_random_kernels_blocked(self, view8, system, N, mass_len, stiff_len):
        # three full blocks and a ragged fourth, so that far parts reach back
        # over more than one block; a mass kernel of BLOCK + 8 entries stops
        # short of the first row, so its windows start inside the trajectory
        # and end in zero padding. Nodal, the sums run through the sparse
        # matvec. Entries decay as 0.5 / j^2, so that the oldest rows still
        # weigh far above round-off. On the modal view the steps run in
        # sub-blocks of SUB; at BLOCK + 1 and 2 BLOCK + 3 steps the last
        # block holds one and three steps, a ragged sub-block of its own.
        sys_ = view8 if system == "modal" else DenseSteps(mf.fem_system(4))
        self.march_random(sys_, N, mass_len, stiff_len, lambda j: 0.5 / np.maximum(j, 1) ** 2)

    def test_far_product_in_panels(self, view8, monkeypatch):
        # panels of three columns, then of one, over the 49 modes: the far
        # sums match the direct loop however the columns are split
        monkeypatch.setattr(schemes, "PANEL", 3 * schemes.BLOCK ** 2)
        self.march_random(view8, 3 * schemes.BLOCK + 5, "N+1", "2",
                          lambda j: 0.5 / np.maximum(j, 1) ** 2)

    def test_block_products_in_panels(self, view8, monkeypatch):
        # with a stiffness kernel of N+1 entries the sub-block march has
        # loads, far and near products for both kernels, and under these
        # panels each kind is split over the 49 modes somewhere
        monkeypatch.setattr(schemes, "PANEL", 3 * schemes.BLOCK ** 2)
        real, split = schemes._product, set()

        def spy(a, b, out):
            if schemes.PANEL // a.size < b.shape[1]:
                split.add("loads" if a.shape[1] == 4 else "far" if len(a) == schemes.BLOCK
                          else "near")
            return real(a, b, out)

        monkeypatch.setattr(schemes, "_product", spy)
        self.march_random(view8, 3 * schemes.BLOCK + 5, "N+1", "N+1",
                          lambda j: 0.5 / np.maximum(j, 1) ** 2)
        assert split == {"loads", "far", "near"}

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended long double")
    @pytest.mark.parametrize("cid,alpha,stepper", [("d", 1.9, "SBD"), ("d", 1.5, "SBD"), ("e", 1.9, "SBD"),
                                                   ("e", 1.5, "SBD"), ("d", 1.9, "BE")])
    def test_wave_round_off_in_sub_blocks(self, view8, monkeypatch, cid, alpha, stepper):
        # the inverse kernel of a diffusion-wave march grows with its index;
        # solved for their rows less the last row before the block, the
        # sub-blocks keep the round-off at most that of the one-step loop
        # (without that shift it was 2.5 to 5 times the loop's here)
        case, cfg, grid = ref.get_case(cid, alpha), SchemeConfig(stepper, "diffusion_wave"), TimeGrid(0.1, 320)
        real, seen = schemes._march, []
        monkeypatch.setattr(schemes, "_march", lambda *args: seen.append(args) or real(*args))
        blocked = schemes.solve(view8, case, cfg, grid).U
        monkeypatch.setattr(schemes, "_division_blocks", schemes._step_loop)
        looped = schemes.solve(view8, case, cfg, grid).U
        exact = long_double_march(view8.lam, *seen[0][2:], grid.N)
        scale = np.abs(exact).max()
        errors = [float(np.abs(U - exact).max() / scale) for U in (blocked, looped)]
        assert errors[0] <= errors[1], errors

    @pytest.mark.parametrize("view,N,blocked", [
        ("modal", schemes.BLOCK, False),
        ("modal", schemes.BLOCK + 1, True),
        ("sine", 3 * schemes.BLOCK + 5, False),
    ])
    def test_sub_blocks_only_for_long_marches_of_divisions(self, view, N, blocked, monkeypatch):
        # a modal march of more than BLOCK steps runs in sub-blocks; a shorter
        # one, and every CG march, steps one solve at a time
        calls = []
        real = schemes._division_blocks
        monkeypatch.setattr(schemes, "_division_blocks", lambda *a: calls.append(N) or real(*a))
        sys_ = getattr(mf.fem_system(8), view)
        hist = schemes.solve(sys_, ref.get_case("b", 0.5), SchemeConfig("SBD"), TimeGrid(0.1, N))
        assert (calls == [N]) == blocked
        assert hist.backend == ("modal" if view == "modal" else "cg")

    @pytest.mark.parametrize("scheme,N", [
        *(pytest.param(s, 24, id=s) for s in ("be", "sbd", "l1", "zeng1", "zeng2", "cn")),
        *(pytest.param(s, 3 * schemes.BLOCK + 5, id=f"{s}-blocked")
          for s in ("be", "sbd", "l1", "zeng1", "zeng2", "cn")),
    ])
    def test_matches_direct_sum(self, scheme, N, view8, monkeypatch):
        # each scheme's own kernels and loads, caught on their way into the
        # core; at 3 BLOCK + 5 steps the modal view runs them in sub-blocks
        real, seen = schemes._march, []

        def spy(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(schemes, "_march", spy)
        case = full_case(1.5 if scheme == "cn" else 0.5)
        hist = run_scheme(view8, case, scheme, TimeGrid(0.1, N))
        (_, _, mass, stiff, loads, start), = seen
        lengths = {"be": (N + 1, 1), "sbd": (N + 1, 1), "l1": (N, 1),
                   "zeng1": (N + 1, N + 1), "zeng2": (N + 1, 2), "cn": (N, 2)}
        assert (len(mass), len(stiff)) == lengths[scheme]
        assert_rows_match(hist.U, direct_march(*dense(view8), mass, stiff, loads, start, N))


class TestGeneratingFunction:
    """On one mode of eigenvalue lam every scheme is the power-series quotient
    D(xi) = F(xi) / (k^M(xi) + lam k^S(xi)), with kernels taken from the
    displays and divided in mpmath (``_oracles.mode_march``)."""

    @pytest.mark.parametrize("cid,scheme", [("b", s) for s in ("be", "sbd", "l1", "zeng1", "zeng2")]
                             + [("e", s) for s in ("be", "sbd", "cn")])
    def test_modal_march(self, cid, scheme):
        N, alpha = 32, 0.5 if cid == "b" else 1.5
        view = mf.fem_system(4).modal
        grid = TimeGrid(0.1, N)
        hist = run_scheme(view, ref.get_case(cid, alpha), scheme, grid)
        mass, stiff = scheme_kernels(scheme, alpha, grid.tau, N)
        expect = np.empty_like(hist.U)
        for i, (lam, v) in enumerate(zip(view.lam, hist.U[0])):
            lam, v = mp.mpf(float(lam)), mp.mpf(float(v))
            # the initial value enters as -(sum_{j<=n} k^S_j) lam v, and the
            # second-order stepper's first step adds -lam v / 2
            load = [0] + [-mp.fsum(stiff[: n + 1]) * lam * v for n in range(1, N + 1)]
            if scheme == "sbd":
                load[1] -= lam * v / 2
            expect[:, i] = [float(v + d) for d in mode_march(mass, stiff, lam, load)]
        scale = np.max(np.abs(expect))
        assert np.max(np.abs(hist.U - expect)) <= 1e-12 * scale


class TestNodalHistory:
    """On ``fem_system(M)`` a solve marches in the sine view. Its history
    maps the last row when ``final`` is read and every row in place on the
    first read of ``U``, to the bits of the sine view's ``nodal``."""

    @pytest.mark.parametrize("scheme", ["sbd", "l1"])
    def test_rows_mapped_when_read(self, scheme, monkeypatch):
        fem, grid = mf.fem_system(8), TimeGrid(0.1, 40)
        case = ref.get_case("b", 0.5)
        sine = run_scheme(fem.sine, case, scheme, grid).U
        calls, real = [], mf.SineSystem.nodal

        def spy(self, x):
            calls.append(np.shape(x))
            return real(self, x)

        monkeypatch.setattr(mf.SineSystem, "nodal", spy)
        hist = run_scheme(fem, case, scheme, grid)
        assert calls == []
        final = hist.final
        row = (fem.n_dof,)
        assert calls == [row] and np.array_equal(final, real(fem.sine, sine[-1]))
        U = hist.U
        assert calls == [row] * (grid.N + 2)
        assert all(np.array_equal(got, real(fem.sine, x)) for got, x in zip(U, sine))
        assert hist.U is U and np.array_equal(hist.final, final)
        assert calls == [row] * (grid.N + 2)


class TestTrajectoryMemory:
    """A solve allocates its (N+1) x n_dof trajectory and no other N x n_dof
    array: the history rows are the stored rows of the increment march."""

    @pytest.mark.parametrize("scheme", ["be", "sbd", "l1", "zeng1", "zeng2", "cn"])
    def test_peak_allocation(self, scheme):
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
