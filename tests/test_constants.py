"""Closed-form constants against independent oracles.

The frozen decimals below were produced once with 50-digit arithmetic
and are compared at double precision; the quadrature oracles recompute
the same quantities from their integral definitions with scipy.quad, so
the closed forms and the numerics check each other.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import oulab.constants as C
from oulab.errors import DomainError

# D(lam) = arctan(sqrt(e^(2 lam) - 1)) / lam, 50-digit evaluations
D_FROZEN = {
    0.01: 14.11857722486934,
    0.1: 4.397986259359949,
    0.5: 1.8382133145871768,
    1.0: 1.1940688187363216,
    2.0: 0.7175222378049546,
    4.0: 0.3881199159290382,
    20.0: 0.07853981623668715,
}

ALPHA2_FROZEN = {
    0.5: 0.039795675894600733,
    1.0: 0.020901054368150657,
    2.0: 0.0043669572543781933,
    4.0: 0.00013913828298510816,
}

# where alpha2 crosses 1/256 and the constant stretch of alpha ends
ALPHA2_CROSSING = 2.0672446371539828


class TestDLambda:
    def test_frozen_values(self):
        for lam, want in D_FROZEN.items():
            got = C.d_lambda(lam)
            assert got == pytest.approx(want, rel=1e-13), lam

    def test_quadrature_oracle(self):
        # D = int_0^1 dt / sqrt(e^(2 lam (1-t)) - 1); the substitution
        # 1 - t = v^2 removes the endpoint singularity entirely
        for lam in (0.05, 0.7, 3.0, 12.0):
            val, err = quad(lambda v: 2.0 * v / math.sqrt(math.expm1(2.0 * lam * v * v)), 0.0, 1.0)
            assert err < 1e-11
            assert C.d_lambda(lam) == pytest.approx(val, rel=1e-10)

    def test_scaled_form_approaches_right_angle(self):
        # strictly increasing while resolvable; saturated at pi/2 within
        # rounding once e^(-lam) is far below machine epsilon
        lam = np.geomspace(1e-3, 10.0, 300)
        scaled = lam * C.d_lambda(lam)
        assert np.all(np.diff(scaled) > 0)
        far = np.geomspace(10.0, 50.0, 50)
        assert np.all(far * C.d_lambda(far) <= math.pi / 2 + 1e-15)
        assert math.pi / 2 - 50.0 * C.d_lambda(50.0) < 1e-12

    def test_small_rate_growth(self):
        # D(lam) ~ sqrt(2/lam) * arctan'(0) contributions blow up as lam -> 0
        assert C.d_lambda(1e-8) > 1e3
        assert np.isfinite(C.d_lambda(1e-12))

    def test_rejects_nonpositive_and_nonfinite(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                C.d_lambda(bad)

    def test_subnormal_rates_warn_nothing(self):
        # 1/lam overflows below lam ~ 5.6e-309; stderr is the verdict line's alone, so no numpy warning may print
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert C.alpha3(1e-320) == 0.25 / 64.0
            assert C.alpha(1e-320) == C.alpha(1.0)

    def test_vector_matches_scalar(self):
        lam = np.array([0.25, 1.0, 7.0])
        vec = C.d_lambda(lam)
        assert vec.shape == (3,)
        for i, v in enumerate(lam):
            assert vec[i] == C.d_lambda(float(v))


class TestAlphaPieces:
    def test_alpha1_value(self):
        assert C.ALPHA1 == 1.0 / 64.0

    def test_alpha2_frozen(self):
        for lam, want in ALPHA2_FROZEN.items():
            assert C.alpha2(lam) == pytest.approx(want, rel=1e-13), lam

    def test_alpha2_equals_inverse_d_form(self):
        # alpha2 = 1 / (4 lam (e^(2 lam) + 1) D^2)
        for lam in (0.2, 1.0, 3.0):
            d = C.d_lambda(lam)
            direct = 1.0 / (4.0 * lam * (math.exp(2.0 * lam) + 1.0) * d * d)
            assert C.alpha2(lam) == pytest.approx(direct, rel=1e-13)

    def test_alpha2_log_branch_positive_and_matching(self):
        # past 2 lam = 700 the direct formula overflows to 0; the log
        # branch keeps the true subnormal-range value
        val = C.alpha2(355.0)
        want = math.exp(math.log(355.0) - math.log(4.0) - 710.0 - 2.0 * math.log(math.pi / 2.0))
        assert val > 0.0
        assert val == pytest.approx(want, rel=1e-12)
        assert val == pytest.approx(1.6100762964109039e-307, rel=1e-12)
        # both branches computable at lam = 300: they must agree
        direct = 300.0 / (4.0 * (math.exp(600.0) + 1.0) * math.atan(math.sqrt(math.expm1(600.0))) ** 2)
        assert C.alpha2(300.0) == pytest.approx(direct, rel=1e-12)

    def test_alpha3_formula(self):
        for lam in (0.1, 0.25, 4.0, 10.0):
            assert C.alpha3(lam) == pytest.approx(2.0**-6 * min(1.0 / lam, 0.25), rel=1e-15)

    def test_alpha_is_min_over_nine(self):
        rng = np.random.default_rng(2024)
        lam = rng.uniform(0.01, 50.0, size=500)
        parts = C.alpha_components(lam)
        manual = np.minimum(parts.alpha1, np.minimum(parts.alpha2, parts.alpha3)) / 9.0
        np.testing.assert_allclose(parts.alpha, manual, rtol=1e-14)

    def test_alpha_collapses_to_two_terms(self):
        # alpha3 = 1/256 below lam = 4 and alpha2 already undercuts it
        # beyond, so min(alpha1, alpha2, alpha3) = min(1/256, alpha2)
        lam = C.default_lambda_grid()
        parts = C.alpha_components(lam)
        reduced = np.minimum(1.0 / 256.0, parts.alpha2) / 9.0
        np.testing.assert_allclose(parts.alpha, reduced, rtol=1e-14)

    def test_alpha_constant_on_unit_interval(self):
        for lam in (1e-4, 0.01, 0.37, 0.999, 1.0):
            assert C.alpha(lam) == pytest.approx(C.ALPHA_UNIT_INTERVAL, rel=1e-15)

    def test_alpha_drops_past_crossing(self):
        assert C.alpha2(ALPHA2_CROSSING) == pytest.approx(1.0 / 256.0, rel=1e-12)
        root = brentq(lambda x: C.alpha2(x) - 1.0 / 256.0, 1.5, 2.5, xtol=1e-13)
        assert root == pytest.approx(ALPHA2_CROSSING, abs=1e-10)
        assert C.alpha(2.1) < C.ALPHA_UNIT_INTERVAL
        assert C.alpha(ALPHA2_CROSSING - 0.01) == pytest.approx(C.ALPHA_UNIT_INTERVAL, rel=1e-15)

    def test_alpha_non_increasing(self):
        lam = C.default_lambda_grid()
        assert np.all(np.diff(C.alpha(lam)) <= 1e-15)

    def test_rejects_bad_rates(self):
        for fn in (C.alpha, C.alpha2, C.alpha3, C.alpha_components):
            for bad in (0.0, -2.0, math.inf):
                with pytest.raises(DomainError):
                    fn(bad)


class TestRatios:
    def test_alpha2_ratio_frozen_at_one(self):
        assert C.alpha2_exp_ratio(1.0) == pytest.approx(0.15443906325306472, rel=1e-13)

    def test_alpha2_ratio_monotone_with_floor(self):
        lam = C.default_lambda_grid()
        f = C.alpha2_exp_ratio(lam)
        assert np.all(np.diff(f) <= 1e-12)
        assert np.all(f * math.pi**2 >= 1.0 - 1e-12)

    def test_alpha2_ratio_limit(self):
        assert C.alpha2_exp_ratio(50.0) * math.pi**2 == pytest.approx(1.0, rel=1e-13)
        assert C.alpha2_exp_ratio(400.0) == pytest.approx(C.TAIL_LIMIT * 9.0, rel=1e-13)

    def test_clock_ratio_value_and_bound(self):
        want = math.exp(4.0) - 1.0
        assert C.clock_exp_ratio(1.0) == pytest.approx(53.598150033144239, rel=1e-13)
        assert C.clock_exp_ratio(1.0) == pytest.approx(want, rel=1e-14)
        assert C.clock_exp_ratio(1.0) <= 64.0

    def test_clock_ratio_non_decreasing(self):
        lam = np.geomspace(1e-4, 200.0, 4000)
        logs = C._log_clock_exp_ratio(lam)
        assert np.all(np.diff(logs) >= -1e-12)

    def test_weighted_alpha_floor(self):
        assert C.RATE_FLOOR == pytest.approx(math.e / 1152.0, rel=0)
        assert C.exp_weighted_alpha(0.5) == pytest.approx(C.RATE_FLOOR, rel=1e-12)
        lam = C.default_lambda_grid()
        h = C.exp_weighted_alpha(lam)
        assert np.all(h >= C.RATE_FLOOR * (1.0 - 1e-12))

    def test_weighted_alpha_spot_values(self):
        assert C.exp_weighted_alpha(1.0) == pytest.approx(math.exp(2.0) / 2304.0, rel=1e-13)
        assert C.exp_weighted_alpha(1.0) == pytest.approx(0.0032070555984942058, rel=1e-13)
        assert C.exp_weighted_alpha(4.0) == pytest.approx(0.011521260443548066, rel=1e-13)
        # far out the ratio has converged to its limit
        assert C.exp_weighted_alpha(100.0) == pytest.approx(C.TAIL_LIMIT, rel=1e-13)

    def test_weighted_alpha_random_sweep_respects_floor(self):
        rng = np.random.default_rng(7)
        lam = np.exp(rng.uniform(math.log(1e-9), math.log(1e5), size=20000))
        h = C.exp_weighted_alpha(lam)
        assert np.all(np.isfinite(h))
        assert np.all(h >= C.RATE_FLOOR * (1.0 - 1e-12))

    def test_floor_uniquely_near_half(self):
        # local refinement brackets the minimizer at 1/2
        lam = np.linspace(0.4, 0.6, 20001)
        h = C.exp_weighted_alpha(lam)
        assert abs(lam[np.argmin(h)] - 0.5) < 1e-4


class TestDriftSpectrum:
    def test_inverse_sum_exact_small(self):
        assert C.DriftSpectrum((1.0,)).inverse_sum == 1.0
        assert C.DriftSpectrum((1.0, 2.0, 4.0)).inverse_sum == 1.75

    def test_quadratic_family(self):
        spec = C.DriftSpectrum.quadratic(16)
        assert len(spec) == 16
        assert spec.eigenvalues[0] == 1.0
        assert spec.eigenvalues[-1] == 256.0
        assert spec.tail_mode == C.TAIL_UNBOUNDED
        assert spec.inverse_sum == pytest.approx(1.5843465334449871, rel=1e-14)
        assert spec.tail_inverse_mass == 0.5 / 16
        # the full series sums to pi^2 / 6
        big = C.DriftSpectrum.quadratic(20000)
        assert big.inverse_sum == pytest.approx(math.pi**2 / 6.0, abs=1e-4)

    def test_truncate_moves_invariant_mass(self):
        spec = C.DriftSpectrum.quadratic(16)
        cut = spec.truncate(8)
        assert len(cut) == 8
        dropped = sum(0.5 / (k * k) for k in range(9, 17))
        assert cut.tail_inverse_mass == pytest.approx(0.5 / 16 + dropped, rel=1e-14)
        assert cut.tail_mode == C.TAIL_UNBOUNDED
        assert spec.truncate(16) is spec

    def test_rejects_bad_spectra(self):
        with pytest.raises(DomainError):
            C.DriftSpectrum(())
        with pytest.raises(DomainError):
            C.DriftSpectrum((1.0, -2.0))
        with pytest.raises(DomainError):
            C.DriftSpectrum((1.0,), tail_mode="mystery")
        with pytest.raises(DomainError):
            C.DriftSpectrum.quadratic(16).truncate(0)

    @pytest.mark.parametrize("build", [
        lambda: C.DriftSpectrum.quadratic(2.5),
        lambda: C.DriftSpectrum.quadratic(True),
        lambda: C.DriftSpectrum.quadratic("3"),
        lambda: C.DriftSpectrum.quadratic(16).truncate(1.5),
        lambda: C.DriftSpectrum.quadratic(16).truncate(True),
        lambda: C.DriftSpectrum.quadratic(16).truncate(17),
    ], ids=["quadratic-float", "quadratic-bool", "quadratic-str", "truncate-float", "truncate-bool", "truncate-17"])
    def test_sizes_and_truncations_are_integers_in_range(self, build):
        with pytest.raises(DomainError):
            build()

    def test_numpy_integers_are_sizes(self):
        assert C.DriftSpectrum.quadratic(np.int64(4)).truncate(np.uint8(2)).eigenvalues == (1.0, 4.0)


class TestBeta:
    def test_single_rate_closed_forms(self):
        # LAM = 1/lam, so beta = lam^2 h(lam) / 4
        assert C.beta((0.5,)) == pytest.approx(math.e / 18432.0, rel=1e-12)
        assert C.beta((0.5,)) == pytest.approx(1.4747622767247424e-4, rel=1e-12)
        assert C.beta((1.0,)) == pytest.approx(math.exp(2.0) / 9216.0, rel=1e-12)
        assert C.beta((1.0,)) == pytest.approx(0.00080176389962355146, rel=1e-12)

    def test_quadratic_16(self):
        assert C.beta(C.DriftSpectrum.quadratic(16)) == pytest.approx(3.1940825918025726e-4, rel=1e-12)

    def test_unbounded_tail_can_bind(self):
        # h(4) = 0.011521 exceeds the tail limit 0.011258, so declaring
        # an unbounded tail lowers the infimum for the {4} spectrum
        finite = C.beta((4.0,))
        declared = C.beta(C.DriftSpectrum((4.0,), tail_mode=C.TAIL_UNBOUNDED))
        assert finite == pytest.approx(4.0 * 0.011521260443548066, rel=1e-12)
        assert declared == pytest.approx(4.0 * C.TAIL_LIMIT, rel=1e-12)
        assert declared < finite

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rate, value", [(1e200, math.inf), (1e-320, 0.0)])
    def test_out_of_range_values_return_without_raising(self, rate, value):
        # LAM^-2 overflowed (an OverflowError), or LAM and h both overflowed (NaN, with warnings)
        assert C.beta((rate,)) == value
        assert C.beta_floor((rate,)) == value

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rate", [1e-154, 1e-200, 1e-300])
    def test_tiny_rates_keep_a_representable_beta(self, rate):
        # LAM^-2 is subnormal or 0 here, though beta = (1/4) (m / LAM) / LAM is a normal float
        spec = C.DriftSpectrum((rate,))
        m = float(np.min(C.exp_weighted_alpha(spec.array)))
        assert C.beta(spec) == 0.25 * (m / spec.inverse_sum) / spec.inverse_sum
        assert C.beta(spec) == pytest.approx(0.25 / 2304.0 * rate, rel=1e-12)  # h(lam) -> 1/(2304 lam) as lam -> 0

    def test_floor_is_a_floor(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = rng.integers(1, 12)
            rates = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=n))
            spec = C.DriftSpectrum(tuple(rates))
            assert C.beta(spec) >= C.beta_floor(spec) * (1.0 - 1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        rates = tuple(rng.uniform(0.1, 30.0, size=9))
        base = C.beta(rates)
        for _ in range(20):
            perm = tuple(rng.permutation(rates))
            assert C.beta(perm) == pytest.approx(base, rel=1e-12)

    def test_more_components_lower_beta_via_lam(self):
        # adding a component grows LAM, and beta scales as LAM^-2
        small = C.beta((1.0,))
        bigger = C.beta((1.0, 1.0))
        assert bigger < small


class TestPropertySuite:
    def test_all_claims_pass(self):
        report = C.analytic_property_suite()
        failed = [c.name for c in report.claims if not c.passed]
        assert report.passed and not failed, failed

    def test_expected_claims_present(self):
        report = C.analytic_property_suite()
        names = {c.name for c in report.claims}
        for needed in (
            "arctan gap positive",
            "clock ratio non-decreasing",
            "clock ratio at 1 below 64",
            "alpha2 ratio above 1/pi^2",
            "alpha2 ratio non-increasing",
            "alpha non-increasing",
            "alpha simplification",
            "alpha constant on (0,1]",
            "weighted alpha above floor",
            "weighted alpha floor attained at 1/2",
        ):
            assert needed in names, needed

    def test_claim_lookup(self):
        report = C.analytic_property_suite()
        claim = report.claim("alpha non-increasing")
        assert claim.passed
        with pytest.raises(KeyError):
            report.claim("no such claim")

    def test_custom_grid(self):
        report = C.analytic_property_suite(lambda_grid=np.geomspace(0.01, 10, 100))
        assert report.passed


class TestProofConstant:
    def test_exact_vs_stated(self):
        assert C.PROP_C_EXACT == pytest.approx((6.0 + math.sqrt(2.0)) / 3.0, rel=0)
        assert C.PROP_C_EXACT == pytest.approx(2.4714045207910317, rel=1e-15)
        assert C.PROP_C_EXACT < C.PROP_C_STATED == 3.0
