import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifree.cumulant import CumulantMomentFunctional, gaussian_cumulant_spec
from bifree.derivation import QuotientKind, conjugate_check
from bifree.gaussfam import (
    LOG_2PIE,
    SINGULAR_TOL,
    Covariance,
    NonConvergenceError,
    RankAmbiguityWarning,
    SingularCovarianceError,
    build_fock_model,
    conjugate_coeffs,
    entropy_closed,
    entropy_dimension,
    entropy_dimension_limit,
    entropy_quadrature,
    fisher,
    fisher_perturbed,
    fock_moment,
    gaussian_moment,
)
from bifree.ncalg import NCPolynomial, bipartite_mode, lvar, rvar
from helpers import gaussian_moment_by_pairings, rand_psd, rand_psd_spectrum, rank_by_svd


def cov2(c):
    return Covariance(1, 1, np.array([[1.0, c], [c, 1.0]]))


def random_patterns(rng, cov, count, max_len):
    sides = [("l", i + 1) for i in range(cov.n)] + [("r", j + 1) for j in range(cov.m)]
    out = []
    for _ in range(count):
        k = rng.integers(0, max_len + 1)
        out.append([sides[rng.integers(0, len(sides))] for _ in range(int(k))])
    return out


class TestCovariance:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            Covariance(1, 1, np.array([[1.0, 0.2], [0.4, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            Covariance(1, 1, np.array([[1.0, 2.0], [2.0, 1.0]]))

    @given(
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.integers(0, 2),
        st.integers(0, 2),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_rejects_non_finite(self, bad, i, j, seed):
        A = rand_psd(np.random.default_rng(seed), 3)
        A[i, j] = A[j, i] = bad
        with pytest.raises(ValueError, match="finite"):
            Covariance(2, 1, A)

    def test_json_round_trip(self):
        cov = cov2(0.25)
        again = Covariance.from_json_dict(json.loads(json.dumps(cov.to_json_dict())))
        assert np.array_equal(again.A, cov.A)
        assert (again.n, again.m) == (1, 1)


class TestGaussianMoment:
    def test_unit_variance_square(self):
        assert gaussian_moment(cov2(0.0), [("l", 1)] * 2) == pytest.approx(1.0)

    def test_interleaved(self):
        c = 0.5
        pattern = [("l", 1), ("r", 1), ("l", 1), ("r", 1)]
        assert gaussian_moment(cov2(c), pattern) == pytest.approx(1 + c * c)

    def test_odd_vanishes(self):
        assert gaussian_moment(cov2(0.3), [("l", 1)] * 5) == 0.0

    def test_one_sided_catalan(self):
        # pure-left moments of a unit-variance coordinate count pairings
        assert gaussian_moment(cov2(0.0), [("l", 1)] * 4) == pytest.approx(2.0)
        assert gaussian_moment(cov2(0.0), [("l", 1)] * 6) == pytest.approx(5.0)
        # variance a, length 2p = 20, past the old length cap of 16: Cat(p) a^p
        a, p = 1.5, 10
        value = gaussian_moment(Covariance(1, 0, np.array([[a]])), [("l", 1)] * (2 * p))
        assert value == pytest.approx(math.comb(2 * p, p) // (p + 1) * a**p, rel=1e-12)

    def test_recursion_over_boundary_letter(self):
        # phi(S^n T^m S) = sum_i phi(S^i T^m) phi(S^(n-i-1))
        #                + c sum_j phi(S^n T^j) phi(T^(m-j-1))
        c = 0.5
        cov = cov2(c)

        def phi(n, m):
            return gaussian_moment(cov, [("l", 1)] * n + [("r", 1)] * m)

        for n in range(4):
            for m in range(4):
                lhs = gaussian_moment(
                    cov, [("l", 1)] * n + [("r", 1)] * m + [("l", 1)]
                )
                rhs = sum(phi(i, m) * phi(n - i - 1, 0) for i in range(n))
                rhs += c * sum(phi(n, j) * phi(0, m - j - 1) for j in range(m))
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_commutation_invariance(self):
        c = 0.4
        stst = gaussian_moment(cov2(c), [("l", 1), ("r", 1), ("l", 1), ("r", 1)])
        sstt = gaussian_moment(cov2(c), [("l", 1), ("l", 1), ("r", 1), ("r", 1)])
        assert stst == pytest.approx(sstt, abs=1e-12)

    def test_matches_exact_cumulant_route(self):
        c = Fraction(1, 2)
        mode = bipartite_mode(1, 1)
        phi = CumulantMomentFunctional(mode, gaussian_cumulant_spec(1, 1, [[1, c], [c, 1]]))
        pattern = [("l", 1), ("r", 1), ("r", 1), ("l", 1), ("l", 1), ("l", 1)]
        word = tuple(lvar(i) if s == "l" else rvar(i) for s, i in pattern)
        assert gaussian_moment(cov2(0.5), pattern) == pytest.approx(
            float(phi.phi(word)), abs=1e-12
        )


    @given(
        st.integers(1, 2),
        st.integers(0, 2),
        st.lists(st.integers(0, 3), max_size=8),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_pairing_sum_and_fock(self, n, m, picks, seed):
        cov = Covariance(n, m, rand_psd(np.random.default_rng(seed), n + m))
        sides = [("l", i + 1) for i in range(n)] + [("r", j + 1) for j in range(m)]
        pattern = [sides[p % len(sides)] for p in picks]
        value = gaussian_moment(cov, pattern)
        scale = max(1.0, abs(value))
        assert abs(value - gaussian_moment_by_pairings(cov, pattern)) <= 1e-10 * scale
        if len(pattern) <= 6:  # the Fock basis grows like (n+m)^depth
            model = build_fock_model(cov, len(pattern))
            assert abs(value - fock_moment(model, pattern)) <= 1e-10 * scale


class TestFockModel:
    def test_vacuum_normalized(self):
        model = build_fock_model(cov2(0.5), 4)
        assert fock_moment(model, []) == pytest.approx(1.0)

    def test_fourth_moment(self):
        model = build_fock_model(cov2(0.0), 4)
        assert fock_moment(model, [("l", 1)] * 4) == pytest.approx(2.0, abs=1e-12)
        # k=4, length 16, where a basis of all words would hold 4^16: Cat(8) a^8
        model = build_fock_model(Covariance(2, 2, 1.4 * np.eye(4) + 0.1), 16)
        assert fock_moment(model, [("l", 1)] * 16) == pytest.approx(1430 * 1.5**8, rel=1e-12)

    def test_left_right_commutation(self):
        model = build_fock_model(cov2(0.7), 6)
        a = fock_moment(model, [("l", 1), ("r", 1), ("l", 1), ("r", 1), ("l", 1), ("l", 1)])
        b = fock_moment(model, [("l", 1), ("l", 1), ("l", 1), ("l", 1), ("r", 1), ("r", 1)])
        assert a == pytest.approx(b, abs=1e-10)

    def test_depth_guard(self):
        model = build_fock_model(cov2(0.0), 3)
        with pytest.raises(ValueError):
            fock_moment(model, [("l", 1)] * 4)

    def test_truncation_exact_at_pattern_length(self):
        # moments of total degree <= depth are unaffected by the truncation
        cov = cov2(0.6)
        tight = build_fock_model(cov, 4)
        roomy = build_fock_model(cov, 7)
        for pattern in (
            [("l", 1)] * 4,
            [("l", 1), ("r", 1), ("l", 1), ("r", 1)],
            [("r", 1), ("r", 1)],
        ):
            assert fock_moment(tight, pattern) == pytest.approx(
                fock_moment(roomy, pattern), abs=1e-14
            )

    def test_oracle_equivalence_small(self):
        rng = np.random.default_rng(7)
        for n, m in ((1, 1), (2, 1)):
            cov = Covariance(n, m, rand_psd(rng, n + m))
            model = build_fock_model(cov, 6)
            for pattern in random_patterns(rng, cov, 60, 6):
                assert gaussian_moment(cov, pattern) == pytest.approx(
                    fock_moment(model, pattern), abs=1e-10
                )


class TestConjugateCoeffs:
    def test_identity_covariance(self):
        cov = Covariance(2, 1, np.eye(3))
        for k in (1, 2, 3):
            e = np.zeros(3)
            e[k - 1] = 1.0
            assert np.allclose(conjugate_coeffs(cov, k), e)

    def test_two_by_two(self):
        c = 0.5
        b = conjugate_coeffs(cov2(c), 1)
        assert np.allclose(b, [1 / (1 - c * c), -c / (1 - c * c)], atol=1e-14)

    def test_singular_reported(self):
        with pytest.raises(SingularCovarianceError):
            conjugate_coeffs(Covariance(1, 1, np.ones((2, 2))), 1)

    def test_cross_module_conjugate_check(self):
        # rationalize the solved coefficients and verify the defining identity
        c = Fraction(1, 2)
        b = conjugate_coeffs(cov2(float(c)), 1)
        coeffs = [Fraction(x).limit_denominator(10**6) for x in b]
        xi = NCPolynomial.from_letter(lvar(1), coeffs[0]) + NCPolynomial.from_letter(
            rvar(1), coeffs[1]
        )
        mode = bipartite_mode(1, 1)
        phi = CumulantMomentFunctional(mode, gaussian_cumulant_spec(1, 1, [[1, c], [c, 1]]))
        report = conjugate_check(phi, QuotientKind("l", 1), xi, 6)
        assert report.passed


class TestFisher:
    def test_two_by_two_closed_form(self):
        for c in (0.0, 0.5, -0.75):
            assert fisher(cov2(c)) == pytest.approx(2 / (1 - c * c), rel=1e-14)

    def test_identity(self):
        for k in (1, 2, 5):
            assert fisher(Covariance(k, 0, np.eye(k))) == pytest.approx(float(k))

    def test_singular_is_infinite(self):
        assert fisher(Covariance(1, 1, np.ones((2, 2)))) == math.inf

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_perturbed_rejects_bad_time(self, t):
        with pytest.raises(ValueError, match="t must be finite and nonnegative"):
            fisher_perturbed(cov2(0.5), t)

    def test_scaling(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rand_psd(rng, 4) + 0.1 * np.eye(4)
            lam = float(rng.uniform(0.3, 2.5))
            cov = Covariance(2, 2, a)
            scaled = Covariance(2, 2, lam * lam * a)
            assert fisher(scaled) == pytest.approx(fisher(cov) / lam**2, rel=1e-10)

    def test_orthogonal_invariance_left_block(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n, m = 3, 2
            a = rand_psd(rng, n + m) + 0.1 * np.eye(n + m)
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            u = np.block([[q, np.zeros((n, m))], [np.zeros((m, n)), np.eye(m)]])
            assert fisher(Covariance(n, m, u @ a @ u.T)) == pytest.approx(
                fisher(Covariance(n, m, a)), rel=1e-10
            )

    def test_stam(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            a = rand_psd(rng, k) + 0.05 * np.eye(k)
            b = rand_psd(rng, k) + 0.05 * np.eye(k)
            fa, fb = fisher(Covariance(k, 0, a)), fisher(Covariance(k, 0, b))
            fab = fisher(Covariance(k, 0, a + b))
            assert 1 / fab >= 1 / fa + 1 / fb - 1e-10

    def test_cramer_rao(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            a = rand_psd(rng, k) + 0.05 * np.eye(k)
            cov = Covariance(k, 0, a)
            assert fisher(cov) * np.trace(a) >= k * k - 1e-9
        lam = 1.7
        assert fisher(Covariance(2, 1, lam * np.eye(3))) * np.trace(
            lam * np.eye(3)
        ) == pytest.approx(9.0)
        # strict inequality away from scalar covariances
        skew = Covariance(1, 1, np.diag([1.0, 4.0]))
        assert fisher(skew) * np.trace(skew.A) > 4.0 + 0.5

    def test_perturbed_bounds_and_monotone(self):
        rng = np.random.default_rng(23)
        ts = np.linspace(0.01, 8.0, 40)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            a = rand_psd(rng, k)
            cov = Covariance(k - 1, 1, a)
            c2 = np.trace(a)
            values = [fisher_perturbed(cov, float(t)) for t in ts]
            for t, h in zip(ts, values):
                assert h <= k / t + 1e-9
                assert h >= k * k / (c2 + k * t) - 1e-9
            assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))

    def test_additive_over_independent_blocks(self):
        # block-diagonal joint covariance: Fisher information adds up
        rng = np.random.default_rng(61)
        for _ in range(20):
            ka, kb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            a = rand_psd(rng, ka) + 0.05 * np.eye(ka)
            b = rand_psd(rng, kb) + 0.05 * np.eye(kb)
            joint = np.block(
                [[a, np.zeros((ka, kb))], [np.zeros((kb, ka)), b]]
            )
            assert fisher(Covariance(ka + kb, 0, joint)) == pytest.approx(
                fisher(Covariance(ka, 0, a)) + fisher(Covariance(kb, 0, b)),
                rel=1e-12,
            )

    def test_superadditive_over_principal_blocks(self):
        # without independence the joint information dominates the block sums
        rng = np.random.default_rng(67)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            split = int(rng.integers(1, k))
            c = rand_psd(rng, k) + 0.05 * np.eye(k)
            whole = fisher(Covariance(k, 0, c))
            first = fisher(Covariance(split, 0, c[:split, :split]))
            second = fisher(Covariance(k - split, 0, c[split:, split:]))
            assert whole >= first + second - 1e-9

    def test_entropy_subadditive_with_equality_when_independent(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            split = int(rng.integers(1, k))
            c = rand_psd(rng, k) + 0.05 * np.eye(k)
            whole = entropy_closed(Covariance(k, 0, c))
            first = entropy_closed(Covariance(split, 0, c[:split, :split]))
            second = entropy_closed(Covariance(k - split, 0, c[split:, split:]))
            assert whole <= first + second + 1e-9
        # equality for a block-diagonal covariance
        a = rand_psd(rng, 2) + 0.1 * np.eye(2)
        b = rand_psd(rng, 3) + 0.1 * np.eye(3)
        joint = np.block([[a, np.zeros((2, 3))], [np.zeros((3, 2)), b]])
        assert entropy_closed(Covariance(5, 0, joint)) == pytest.approx(
            entropy_closed(Covariance(2, 0, a)) + entropy_closed(Covariance(3, 0, b)),
            rel=1e-12,
        )

    def test_conjugate_norm_bound(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            a = rand_psd(rng, k, rank=int(rng.integers(1, k + 1)))
            for eps in (0.01, 0.1, 1.0):
                inv = np.linalg.inv(a + eps * np.eye(k))
                assert inv.diagonal().max() <= 1 / eps + 1e-9


class TestEntropy:
    def test_identity_two(self):
        assert entropy_closed(Covariance(1, 1, np.eye(2))) == pytest.approx(LOG_2PIE)

    def test_instance_half(self):
        expected = LOG_2PIE + 0.5 * math.log(0.75)
        assert entropy_closed(cov2(0.5)) == pytest.approx(expected, rel=1e-14)

    def test_rank_deficient_is_minus_infinity(self):
        assert entropy_closed(Covariance(1, 1, np.ones((2, 2)))) == -math.inf

    def test_scaling(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            a = rand_psd(rng, k) + 0.1 * np.eye(k)
            lam = float(rng.uniform(0.2, 3.0))
            cov, scaled = Covariance(k, 0, a), Covariance(k, 0, lam * lam * a)
            assert entropy_closed(scaled) == pytest.approx(
                k * math.log(lam) + entropy_closed(cov), rel=1e-12
            )

    def test_upper_bound_and_equality(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            a = rand_psd(rng, k) + 0.05 * np.eye(k)
            cov = Covariance(k, 0, a)
            bound = 0.5 * k * math.log(2 * math.pi * math.e * np.trace(a) / k)
            assert entropy_closed(cov) <= bound + 1e-10
        lam = 2.3
        cov = Covariance(2, 2, lam * np.eye(4))
        assert entropy_closed(cov) == pytest.approx(
            2 * math.log(2 * math.pi * math.e * lam), rel=1e-12
        )
        # strictly below the bound away from scalar covariances
        skew = Covariance(1, 1, np.diag([1.0, 4.0]))
        bound = math.log(2 * math.pi * math.e * np.trace(skew.A) / 2)
        assert entropy_closed(skew) < bound - 0.1

    def test_finite_fisher_lower_bound(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            a = rand_psd(rng, k) + 0.05 * np.eye(k)
            cov = Covariance(k, 0, a)
            bound = 0.5 * k * math.log(2 * math.pi * k * math.e / fisher(cov))
            assert entropy_closed(cov) >= bound - 1e-10

    def test_derivative_matches_half_fisher(self):
        rng = np.random.default_rng(43)
        a = rand_psd(rng, 3)
        cov = Covariance(2, 1, a)
        for t in (0.2, 0.7, 1.9):
            h = 1e-5
            up = entropy_closed(Covariance(2, 1, a + (t + h) * np.eye(3)))
            down = entropy_closed(Covariance(2, 1, a + (t - h) * np.eye(3)))
            derivative = (up - down) / (2 * h)
            assert derivative == pytest.approx(0.5 * fisher_perturbed(cov, t), abs=1e-5)


class TestEntropyQuadrature:
    def test_identity_two(self):
        cov = Covariance(1, 1, np.eye(2))
        result = entropy_quadrature(lambda t: fisher_perturbed(cov, t), 2)
        assert result.value == pytest.approx(LOG_2PIE, abs=1e-8)

    def test_half_covariance(self):
        cov = cov2(0.5)
        result = entropy_quadrature(lambda t: fisher_perturbed(cov, t), 2)
        assert result.value == pytest.approx(entropy_closed(cov), abs=1e-6)
        assert abs(result.value - entropy_closed(cov)) <= result.error_bound + 1e-9

    @pytest.mark.parametrize("cov", [
        cov2(0.5),
        Covariance(2, 1, np.diag([2.0, 3.0, 5.0])),
        Covariance(2, 1, np.array([[2.0, 0.5, 0.3], [0.5, 1.5, -0.4], [0.3, -0.4, 1.0]])),
    ], ids=["2x2-c0.5", "diag235", "3x3-full"])
    def test_tail_term_integrated(self, cov):
        # the tail past the cut is integrated in closed form, so it leaves no bias
        result = entropy_quadrature(lambda t: fisher_perturbed(cov, t), cov.size)
        assert abs(result.value - entropy_closed(cov)) <= 1e-11

    @pytest.mark.parametrize("tol", [1e-9, 1e-11])
    @pytest.mark.parametrize("matrix", [
        [[1.0, 0.999999], [0.999999, 1.0]],
        np.diag([1e-9, 1.0]),
        np.diag([2e-12, 1.0]),
        np.diag([1e-6, 1e3, 1.0, 5e-3]),
        np.diag([1e-2, 1.0, 40.0]),
        [[1.0, 0.5], [0.5, 1.0]],
        np.diag([2.0, 3.0, 5.0]),
    ], ids=["lambda1e-6", "diag1e-9", "diag2e-12", "wide4", "diag1e-2-40", "2x2-c0.5", "diag235"])
    def test_closed_form_within_bound(self, matrix, tol):
        # small eigenvalues put a peak of width ~lambda near t = 0
        a = np.asarray(matrix, dtype=float)
        cov = Covariance(len(a) // 2, len(a) - len(a) // 2, a)
        result = entropy_quadrature(lambda t: fisher_perturbed(cov, t), cov.size, tol=tol)
        assert abs(result.value - entropy_closed(cov)) <= result.error_bound

    def test_random_covariances_within_bound(self):
        # drawn as the benchmark's numeric workload draws its full-rank covariances
        rng = np.random.default_rng(53)
        for _ in range(40):
            k = int(rng.integers(2, 7))
            cov = Covariance(k // 2, k - k // 2, rand_psd_spectrum(rng, k, k, lo=0.5, hi=2.0))
            result = entropy_quadrature(lambda t: fisher_perturbed(cov, t), k)
            assert abs(result.value - entropy_closed(cov)) <= result.error_bound

    def test_trivial_profile(self):
        result = entropy_quadrature(lambda t: 2.0 / (1.0 + t), 2)
        assert result.value == pytest.approx(LOG_2PIE, abs=1e-8)

    def test_degenerate_profile_diverges(self):
        cov = Covariance(1, 1, np.ones((2, 2)))
        result = entropy_quadrature(lambda t: fisher_perturbed(cov, t), 2)
        assert result.value == -math.inf

    def test_profile_infinite_at_zero(self):
        # singular at t = 0 by SINGULAR_TOL, yet t * Phi(t) stays below 1/2 at the probe
        cov = Covariance(1, 1, np.diag([1.2e-12, 1.5]))
        result = entropy_quadrature(lambda t: fisher_perturbed(cov, t), 2)
        assert result.value == entropy_closed(cov) == -math.inf

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            entropy_quadrature(lambda t: 2.0 / (1.0 + t), 2, tol=tol)

    def test_nonconvergence_raises(self):
        rng = np.random.default_rng(47)
        calls = []

        def noisy(t):
            calls.append(t)
            if len(calls) > 1000:
                pytest.fail("the quadrature ran past its halving cap")
            return 2.0 / (1.0 + t) + rng.normal(scale=0.5)

        with pytest.raises(NonConvergenceError):
            entropy_quadrature(noisy, 2, tol=1e-12)


class TestOneRank:
    """Every closed form reads the covariance's one rank, so the Fisher
    information, the entropy, the conjugate variables and the dimension are
    finite, finite, solvable and full all together or not at all."""

    @pytest.mark.parametrize("s", [-10, 0, 10])
    @pytest.mark.parametrize("r", [1e-7, 1e-9, 1e-10, 1e-11, 1e-13, 0.0])
    def test_closed_forms_agree(self, r, s):
        cov = Covariance(1, 1, 10.0 ** s * np.diag([1.0, r]))
        try:
            conjugate_coeffs(cov, 1)
            solvable = True
        except SingularCovarianceError:
            solvable = False
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankAmbiguityWarning)
            full = entropy_dimension(cov) == 2
        facts = [math.isfinite(fisher(cov)), math.isfinite(entropy_closed(cov)), full, solvable]
        assert facts == [r > SINGULAR_TOL] * 4

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
    def test_rank_is_scale_invariant(self, scale):
        # no floor at 1: a covariance is singular or not whatever its units
        cov = Covariance(1, 1, scale * np.eye(2))
        assert entropy_dimension(cov) == 2
        assert fisher(cov) == pytest.approx(2.0 / scale, rel=1e-14)
        assert entropy_closed(cov) == pytest.approx(LOG_2PIE + math.log(scale), rel=1e-14)

    @pytest.mark.parametrize("t", [1e-300, 1e-20, 1e-12, 1.0])
    def test_perturbed_singular_is_finite_for_positive_t(self, t):
        # only t = 0 reads the rank: A + tI is nonsingular for every t > 0
        cov = Covariance(1, 1, np.diag([1.0, 0.0]))
        assert fisher_perturbed(cov, 0.0) == math.inf
        assert fisher_perturbed(cov, t) == 1.0 / (1.0 + t) + 1.0 / t

    def test_negative_rounding_eigenvalue_clipped(self):
        # a -1e-11 eigenvalue passes the PSD check and reads as 0: the
        # perturbed sum stays positive and finite however small t is
        cov = Covariance(1, 1, np.diag([1.0, -1e-11]))
        assert entropy_dimension(cov) == 1
        assert fisher_perturbed(cov, 1e-12) == 1.0 / (1.0 + 1e-12) + 1e12


class TestEntropyDimension:
    def test_closed_form_ranks(self):
        assert entropy_dimension(cov2(0.5)) == 2
        assert entropy_dimension(Covariance(1, 1, np.ones((2, 2)))) == 1
        for k in (1, 3, 5):
            assert entropy_dimension(Covariance(k, 0, np.eye(k))) == k

    def test_ambiguity_warned(self):
        a = np.diag([1.0, 3e-12])
        with pytest.warns(RankAmbiguityWarning):
            entropy_dimension(Covariance(1, 1, a))

    def test_kept_spectrum_gives_the_svd_rank(self):
        # the singular values of a symmetric matrix are its eigenvalues'
        # magnitudes, so the spectrum the covariance keeps decides the rank
        rng = np.random.default_rng(59)
        for _ in range(400):
            k = int(rng.integers(1, 7))
            n = int(rng.integers(0, k + 1))
            scale = 10.0 ** rng.uniform(-8, 8)
            cov = Covariance(n, k - n, scale * rand_psd(rng, k, rank=int(rng.integers(0, k + 1))))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RankAmbiguityWarning)
                assert entropy_dimension(cov) == rank_by_svd(cov.A, SINGULAR_TOL)

    def test_limit_form_matches_rank(self):
        # nonzero eigenvalues kept away from 0 so the epsilon probes sit inside
        # the profile's analyticity radius
        rng = np.random.default_rng(53)
        for r in (1, 2, 3, 4):
            a = rand_psd_spectrum(rng, 4, rank=r)
            cov = Covariance(2, 2, a)
            value = entropy_dimension_limit(lambda t: fisher_perturbed(cov, t), 4)
            assert value == pytest.approx(r, abs=1e-3)
