import math

import mpmath as mp
import numpy as np
import pytest

from _oracles import cq_weights_fft, numpy_series_power
from fracstep import cq, schemes
from fracstep.cq import BE, SBD, cq_apply, cq_weights, get_rule
from fracstep.harness import StudyConfig, run_study

ALPHA_GRID = (0.1, 0.5, 0.9, 1.1, 1.5, 1.9)


def binomial_weights(alpha, n_terms):
    """Independent oracle for (1-xi)^alpha: g_j = g_{j-1} (j-1-alpha)/j."""
    g = np.empty(n_terms)
    g[0] = 1.0
    for j in range(1, n_terms):
        g[j] = g[j - 1] * (j - 1 - alpha) / j
    return g


def mp_taylor_weights(rule, alpha, tau, N):
    """Arbitrary-precision Taylor oracle via mpmath."""
    mp.mp.dps = 40
    a = [mp.mpf(repr(c)) for c in rule.delta_coeffs]

    def f(xi):
        return (sum(c * xi ** j for j, c in enumerate(a)) / mp.mpf(repr(tau))) ** mp.mpf(
            repr(alpha)
        )

    coeffs = mp.taylor(f, 0, N)
    return np.array([float(c) for c in coeffs])


class TestWeights:
    def test_be_alpha_one(self):
        w = cq_weights(BE, 1.0, 0.1, 3)
        assert np.allclose(w, [10.0, -10.0, 0.0, 0.0], atol=1e-12)

    def test_be_binomial_example(self):
        w = cq_weights(BE, 0.5, 1.0, 3)
        assert np.allclose(w, [1.0, -0.5, -0.125, -0.0625], atol=1e-15)

    def test_be_binomial_oracle_long(self):
        w = cq_weights(BE, 0.3, 1.0, 200)
        assert np.allclose(w, binomial_weights(0.3, 201), rtol=1e-13)

    def test_sbd_leading(self):
        w = cq_weights(SBD, 0.5, 1.0, 0)
        assert w[0] == pytest.approx(1.5 ** 0.5, abs=1e-14)

    def test_scaling_law_exact(self):
        for rule in (BE, SBD):
            w1 = cq_weights(rule, 0.7, 1.0, 32)
            wt = cq_weights(rule, 0.7, 0.01, 32)
            assert np.array_equal(wt, w1 * 0.01 ** -0.7)

    def test_invalid_polynomial(self):
        from fracstep.cq import CqRule, cq_weights as cw

        bad = CqRule("bad", (-1.0, 1.0))
        with pytest.raises(ValueError, match="invalid generating polynomial"):
            cw(bad, 0.5, 1.0, 4)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            cq_weights(BE, 0.5, -1.0, 4)
        with pytest.raises(ValueError):
            cq_weights(BE, 0.5, 1.0, -1)

    @pytest.mark.parametrize(
        "alpha,tau,N,message",
        [
            (math.nan, 0.1, 3, "finite"),
            (math.inf, 0.1, 3, "finite"),
            (0.5, math.inf, 3, "finite"),
            (0.5, math.nan, 3, "finite"),
            (0.5, 0.1, 2.7, "integer"),
            (0.5, 0.1, math.inf, "integer"),
            (0.5, 0.1, math.nan, "integer"),
        ],
    )
    def test_rejects_nonfinite_and_nonintegral(self, alpha, tau, N, message):
        with pytest.raises(ValueError, match=message):
            cq_weights(BE, alpha, tau, N)

    def test_integral_float_N_accepted(self):
        assert np.array_equal(cq_weights(SBD, 0.5, 0.1, 3.0), cq_weights(SBD, 0.5, 0.1, 3))

    @pytest.mark.parametrize("rule", [BE, SBD])
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_mpmath_taylor_oracle(self, rule, alpha):
        N = 24
        w = cq_weights(rule, alpha, 0.25, N)
        ref = mp_taylor_weights(rule, alpha, 0.25, N)
        assert np.max(np.abs(w - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_be_negative_monotone_partial_sums(self):
        # 0 < alpha < 1: all later weights negative, partial sums decrease to 0
        w = cq_weights(BE, 0.4, 1.0, 400)
        assert w[0] > 0.0
        assert np.all(w[1:] < 0.0)
        partial = np.cumsum(w)
        assert np.all(np.diff(partial) < 0.0)
        assert partial[-1] > 0.0


class TestSeriesCache:
    @pytest.mark.parametrize("rule", [BE, SBD])
    @pytest.mark.parametrize("alpha", [-0.5, 0.1, 0.5, 0.9, 1.0, 1.1, 1.5, 1.9])
    def test_bitwise_equal_to_numpy_recurrence(self, rule, alpha):
        cq._series.cache_clear()
        want = numpy_series_power(rule.delta_coeffs, alpha, 1001)
        for n_terms in (1, 2, 3, 11, 321, 1001):
            got = cq._series_power(rule.delta_coeffs, alpha, n_terms)
            assert got.tobytes() == want[:n_terms].tobytes()

    @pytest.mark.parametrize("rule", [BE, SBD])
    def test_request_order_does_not_matter(self, rule):
        Ns = (0, 1, 2, 5, 40, 320, 1000)
        results = []
        for order in (Ns, Ns[::-1]):
            cq._series.cache_clear()
            results.append({N: cq_weights(rule, 0.7, 0.01, N) for N in order})
        for N in Ns:
            cq._series.cache_clear()
            cold = cq_weights(rule, 0.7, 0.01, N)
            assert not cold.flags.writeable
            assert results[0][N].tobytes() == results[1][N].tobytes() == cold.tobytes()

    def test_array_converted_only_when_the_list_grows(self):
        cq._series.cache_clear()
        first = cq._series_power(SBD.delta_coeffs, 0.7, 41)
        shorter = cq._series_power(SBD.delta_coeffs, 0.7, 21)
        assert np.shares_memory(first, shorter) and not first.flags.writeable
        longer = cq._series_power(SBD.delta_coeffs, 0.7, 81)
        assert not np.shares_memory(first, longer)
        assert longer[:41].tobytes() == first.tobytes()
        assert len(cq._series(SBD.delta_coeffs, 0.7)) == 81

    def test_decay_ladder_runs_one_recurrence_per_rule_and_alpha(self, monkeypatch):
        calls = []
        real = cq.cq_weights

        def counted(rule, alpha, tau, N):
            calls.append((rule.kind, alpha, tau, N))
            return real(rule, alpha, tau, N)

        monkeypatch.setattr(schemes, "cq_weights", counted)
        cq._series.cache_clear()
        ts = (1e-1, 1e-2, 1e-3, 1e-4)
        run_study(StudyConfig("b", (0.3, 0.6), ("be", "sbd"), "decay", M=8, N=10, t_list=ts))
        pairs = {(kind, alpha) for kind, alpha, _, _ in calls}
        assert len({tau for _, _, tau, _ in calls}) == len(ts)
        assert len(calls) > len(pairs) == 4
        info = cq._series.cache_info()
        assert (info.misses, info.hits) == (len(pairs), len(calls) - len(pairs))
        for kind, alpha in pairs:
            assert len(cq._series(get_rule(kind).delta_coeffs, alpha)) == 11


class TestFftOracle:
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    @pytest.mark.parametrize("rule", [BE, SBD])
    def test_agreement_n512(self, rule, alpha):
        wr = cq_weights(rule, alpha, 1.0, 512)
        wf = cq_weights_fft(rule, alpha, 1.0, 512)
        scale = np.max(np.abs(wr))
        assert np.max(np.abs(wr - wf)) <= 1e-12 * scale

    def test_examples(self):
        wr = cq_weights(BE, 0.5, 1.0, 64)
        wf = cq_weights_fft(BE, 0.5, 1.0, 64)
        assert np.max(np.abs(wr - wf)) <= 1e-12 * np.max(np.abs(wr))
        wr = cq_weights(SBD, 1.5, 0.01, 128)
        wf = cq_weights_fft(SBD, 1.5, 0.01, 128)
        assert np.max(np.abs(wr - wf)) <= 1e-11 * np.max(np.abs(wr))

    def test_alpha_zero_is_identity(self):
        w = cq_weights_fft(BE, 0.0, 1.0, 4)
        assert np.allclose(w, [1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-14)


class TestComposition:
    @pytest.mark.parametrize("rule", [BE, SBD])
    @pytest.mark.parametrize("ab", [(0.3, 0.4), (0.5, 0.5), (1.1, 0.6), (0.9, 0.9)])
    def test_order_addition(self, rule, ab):
        a, b = ab
        N = 128
        wa = cq_weights(rule, a, 1.0, N)
        wb = cq_weights(rule, b, 1.0, N)
        wab = cq_weights(rule, a + b, 1.0, N)
        conv = np.convolve(wa, wb)[: N + 1]
        assert np.max(np.abs(conv - wab)) <= 1e-12 * np.max(np.abs(wab))


class TestApply:
    def test_backward_difference(self):
        w = cq_weights(BE, 1.0, 0.25, 8)
        g = np.array([1.0, 3.0, 2.0, 5.0])
        for n in range(1, 4):
            assert cq_apply(w, g, n) == pytest.approx((g[n] - g[n - 1]) / 0.25)

    def test_startup_ramp_identity(self):
        # SBD order-1 weights on the ramp give the startup sequence
        tau = 0.2
        w = cq_weights(SBD, 1.0, tau, 10)
        samples = tau * np.arange(11)
        seq = [cq_apply(w, samples, n) for n in range(11)]
        expect = [0.0, 1.5] + [1.0] * 9
        assert np.max(np.abs(np.array(seq) - expect)) <= 1e-14

    def test_direct_sum_example(self):
        w = cq_weights(BE, 0.5, 1.0, 4)
        assert cq_apply(w, np.ones(3), 2) == pytest.approx(0.375, abs=1e-15)

    def test_vector_samples(self):
        w = cq_weights(BE, 0.5, 1.0, 4)
        g = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        out = cq_apply(w, g, 2)
        assert np.allclose(out, [0.375, 0.75])

    def test_index_overflow(self):
        w = cq_weights(BE, 0.5, 1.0, 2)
        with pytest.raises(ValueError):
            cq_apply(w, np.ones(10), 5)


class TestScalarStability:
    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_be_mode_monotone(self, lam, alpha):
        # u solving the quadrature form of d^alpha(u - 1) + lam u = 0, u0 = 1
        N = 200
        w = cq_weights(BE, alpha, 0.05, N)
        u = np.empty(N + 1)
        u[0] = 1.0
        for n in range(1, N + 1):
            hist = np.dot(w[1 : n + 1], u[n - 1 :: -1] - 1.0)
            u[n] = (w[0] - hist) / (w[0] + lam)
        assert np.all(u > 0.0)
        assert np.all(u <= 1.0 + 1e-14)
        assert np.all(np.diff(u) <= 1e-14)


def test_rule_lookup():
    assert get_rule("be") is BE
    assert get_rule("SBD") is SBD
    with pytest.raises(ValueError):
        get_rule("trapezoid")
