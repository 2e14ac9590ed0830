"""Monte Carlo estimators and the four functional checkers."""

import dataclasses
import math
import pickle
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

import oulab.functionals as FN
from oulab.constants import DriftSpectrum, alpha, beta
from oulab.errors import DomainError
from oulab.fnlib import (
    make_b_weighted,
    make_h,
    raw_profile_b,
    resolve_b,
    resolve_h,
    shift_difference_norm,
    window_rescaled_b,
    window_rescaled_h,
    zero_shift,
)
from oulab.functionals import (
    CONFIDENCE,
    EXP_BOUND,
    ExperimentSpec,
    check_prop21,
    check_thm23,
    concentration_tail,
    exp_moment,
    gamma_step_check,
    judge,
    moment_bound,
)
from oulab import ousim, reversal
from oulab.ousim import BLOCK, block_layout, block_paths_1d, run_blocks, sample_hilbert, standard_normal, substream


class TestJudge:
    def test_upper_is_mean_plus_quantile(self):
        draws = np.array([0.5, 1.5] * 50)
        row = judge(draws, limit=2.0)
        stderr = float(np.std(draws, ddof=1) / math.sqrt(100))
        assert (row.mean, row.stderr, row.n, row.limit, row.max_summand) == (1.0, stderr, 100, 2.0, 1.5)
        assert row.upper999 == pytest.approx(1.0 + 3.090232306167813 * stderr, rel=1e-12)
        assert row.passed and row

    @pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")  # inf and NaN on purpose
    def test_validation(self):
        for bad in (np.array([1.0]), np.zeros((5, 2)), np.array([1.0, np.inf]), np.array([1.0, np.nan])):
            with pytest.raises(DomainError):
                judge(bad, limit=3.0)

    def test_mean_at_the_limit_fails_on_its_upper_bound(self):
        # indicators whose mean is exactly the limit: the point estimate
        # passes, the upper bound lies above the limit, so the row fails
        draws = np.array([True, False] * 150)
        row = judge(draws, limit=0.5)
        assert row.mean == 0.5 <= row.limit < row.upper999
        assert not row.passed and not row

    def test_constant_draws_have_no_spread(self):
        row = judge(np.full(10, 3.0), limit=3.0)
        assert (row.stderr, row.upper999, row.passed) == (0.0, 3.0, True)


class TestExpMoment:
    def test_zero_values_give_unit_mean(self):
        row = exp_moment(np.zeros(100), alpha=0.5)
        assert (row.mean, row.stderr, row.max_summand, row.limit) == (1.0, 0.0, 1.0, EXP_BOUND)

    def test_gaussian_quarter_square(self):
        # E exp(G^2/4) = (1 - 2/4)^(-1/2) = sqrt(2) for standard G
        gen = substream(2718, component=0, block=0)
        g = standard_normal(gen, 40_000)
        est = exp_moment(np.abs(g), alpha=0.25)
        assert abs(est.mean - math.sqrt(2.0)) <= 4.0 * est.stderr

    # the certified cap is refused where S is drawn, by functionals._in_range

    def test_cap_trips_on_escape(self):
        values = np.array([0.1, 0.2, 5.0])
        with pytest.raises(RuntimeError, match="cap"):
            FN._in_range(values, 1.0)

    def test_cap_allows_in_range(self):
        values = np.array([0.1, 0.2, 0.9])
        row = exp_moment(FN._in_range(values, 1.0), alpha=1.0)
        assert row.max_summand <= math.exp(1.0)
        assert FN._in_range(np.array([0.1, 1.0 + 1e-12]), 1.0).size == 2

    @pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")  # inf and NaN on purpose
    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            exp_moment(np.zeros(10), alpha=0.0)
        with pytest.raises(DomainError):
            exp_moment(np.zeros(10), alpha=-1.0)
        with pytest.raises(DomainError):
            exp_moment(np.zeros((5, 2)), alpha=1.0)
        with pytest.raises(DomainError):
            exp_moment(np.array([1.0]), alpha=1.0)
        with pytest.raises(DomainError):
            exp_moment(np.array([1.0, np.inf]), alpha=1.0)
        with pytest.raises(DomainError):
            FN._in_range(np.array([1.0, np.nan]), 2.0)
        with pytest.raises(DomainError, match="not finite"):
            exp_moment(np.array([1.0, 30.0]), alpha=1.0)  # exp(900) overflows


def _refuse_sampling(monkeypatch):
    def sampled(*args):
        raise AssertionError("a refused setting reached the sampler")

    monkeypatch.setattr(FN, "run_blocks", sampled)


class TestExperimentSpec:
    """The spec and the per-check settings; bad settings are refused before any path is drawn."""

    LAM = (1.0, 4.0)

    def _spec(self, truncation=2, **kw):
        base = dict(
            spectrum=DriftSpectrum(self.LAM).truncate(truncation),
            b=make_b_weighted(self.LAM),
            seed=7,
            m=64,
            n_paths=16,
        )
        base.update(kw)
        return ExperimentSpec(**base)

    def test_truncated_spectrum_drops_tail(self):
        spec = self._spec(truncation=1, b=make_b_weighted((1.0, 4.0), direction=0))
        assert spec.spectrum.eigenvalues == (1.0,)
        assert spec.spectrum.tail_inverse_mass == 0.5 / 4.0

    def test_rejects_bad_windows_and_ell(self, monkeypatch):
        _refuse_sampling(monkeypatch)
        spec, h = self._spec(), make_h(self.LAM, {0: "sin_pi_t"})
        for r, u in ((0.5, 0.5), (-0.1, 1.0), (0.0, 1.5), (0.75, 0.25)):
            with pytest.raises(DomainError, match="0 <= r < u <= 1"):
                concentration_tail(spec, h, zero_shift(self.LAM), (1.0,), r=r, u=u)
            with pytest.raises(DomainError, match="0 <= r < u <= 1"):
                moment_bound(spec, (0.5, 0.0), (-0.5, 0.0), (1,), r=r, u=u)
        for ell in (0.0, 1.5, -1.0):
            with pytest.raises(DomainError, match="ell"):
                check_thm23(spec, h, ell=ell)

    def test_rejects_uncertified_b(self):
        bare = raw_profile_b(lambda t, xi: np.sin(xi), None, [1.0, 4.0], name="bare")
        with pytest.raises(DomainError):
            self._spec(b=bare)

    def test_rejects_direction_outside_truncation(self):
        b = make_b_weighted((1.0, 4.0), direction=1)
        with pytest.raises(DomainError):
            self._spec(truncation=1, b=b)

    def test_rejects_shift_from_other_spectrum(self, monkeypatch):
        _refuse_sampling(monkeypatch)
        spec, h = self._spec(), make_h(self.LAM, {0: "sin_pi_t"})
        for bad, message in ((make_h([1.0, 5.0], {0: "sin_pi_t"}), "different spectrum"),
                             (make_h([1.0], {0: "sin_pi_t"}), "truncation 1")):
            with pytest.raises(DomainError, match=message):
                check_thm23(spec, bad)
            with pytest.raises(DomainError, match=message):
                concentration_tail(spec, bad, h, (1.0,))
            with pytest.raises(DomainError, match=message):
                concentration_tail(spec, h, bad, (1.0,))

    def test_rejects_wrong_length_vectors(self, monkeypatch):
        _refuse_sampling(monkeypatch)
        spec, h = self._spec(), make_h(self.LAM, {0: "sin_pi_t"})
        for bad in ((0.3,), (0.3, 0.0, 0.0), (0.3, math.nan)):
            with pytest.raises(DomainError, match="x0"):
                concentration_tail(spec, h, zero_shift(self.LAM), (1.0,), x0=bad)
            with pytest.raises(DomainError, match="x0"):
                moment_bound(spec, (0.5, 0.0), (-0.5, 0.0), (1,), x0=bad)
            with pytest.raises(DomainError, match="x must"):
                moment_bound(spec, bad, (-0.5, 0.0), (1,))
            with pytest.raises(DomainError, match="y must"):
                moment_bound(spec, (0.5, 0.0), bad, (1,))

    def test_sizes_must_be_integers(self):
        for kw, message in ((dict(m=64.0), "m must be an integer"), (dict(m=64.5), "m must be an integer"),
                            (dict(truncation=2.0), "truncation must be an integer"),
                            (dict(n_paths=16.0), "n_paths must be an integer"), (dict(m=1), "m must be at least 2"),
                            (dict(n_paths=1), "n_paths must be at least 2")):
            with pytest.raises(DomainError, match=message):
                self._spec(**kw)
        spec = self._spec(truncation=np.int64(2), m=np.int64(64), n_paths=np.int32(16))
        assert (len(spec.spectrum), spec.m, spec.n_paths) == (2, 64, 16)

    def test_picklable(self):
        spec = self._spec()
        spec2 = pickle.loads(pickle.dumps(spec))
        assert (spec2.seed, spec2.m, spec2.n_paths) == (spec.seed, spec.m, spec.n_paths)
        assert spec2.b.norm_inf_A == spec.b.norm_inf_A

    def test_hashable_by_identity(self):
        # the descriptors hold numpy arrays and partial profiles, so the
        # spec and both descriptor types compare and hash by identity
        spec = self._spec()
        h = make_h(self.LAM, {0: "sin_pi_t"})
        for obj in (spec, spec.b, h):
            assert hash(obj) == hash(obj)
            assert obj in {obj}
            assert obj == obj
        assert spec != self._spec()


class TestCoordinate:
    """The one sampled coordinate: its grid, its paths and which one each check builds."""

    LAM = (1.0, 4.0)
    SPEC = ExperimentSpec(spectrum=DriftSpectrum(LAM).truncate(2), b=make_b_weighted(LAM, direction=1), seed=7,
                          m=32, n_paths=300)

    def test_times_and_paths_are_the_window_grid_and_the_started_block(self):
        coord = FN.Coordinate(4.0, 32, 1, horizon=0.5, t0=0.25, x0=-0.2)
        tau = np.linspace(0.0, 0.5, 33)
        assert coord.times().tolist() == (0.25 + tau).tolist()
        want = block_paths_1d(4.0, 32, 9, 1, 2, horizon=0.5)[3:10] + np.exp(-4.0 * tau) * -0.2
        np.testing.assert_array_equal(coord.paths(9, 2, (3, 10)), want)

    def test_no_start_value_is_the_plain_block(self):
        coord = FN.Coordinate(4.0, 32, 1)
        assert coord.times().tolist() == np.linspace(0.0, 1.0, 33).tolist()
        np.testing.assert_array_equal(coord.paths(9, 2, (0, 256)), block_paths_1d(4.0, 32, 9, 1, 2))

    def test_spec_coordinate_reads_ell_the_window_and_x0_along_b(self):
        assert self.SPEC.coordinate() == FN.Coordinate(4.0, 32, 1)
        assert self.SPEC.coordinate(0.5, 0.25, 0.75, (0.3, -0.2)) == FN.Coordinate(2.0, 32, 1, 0.5, 0.25, -0.2)
        with pytest.raises(DomainError, match="0 <= r < u <= 1"):
            self.SPEC.coordinate(1.0, 0.5, 0.5)
        with pytest.raises(DomainError, match="x0"):
            self.SPEC.coordinate(1.0, 0.0, 1.0, (0.3,))

    def test_each_check_returns_the_coordinate_it_sampled(self):
        h = make_h(self.LAM, {1: "sin_pi_t"})
        assert check_thm23(self.SPEC, h, ell=0.5).coordinate == FN.Coordinate(2.0, 32, 1)
        window = dict(r=0.25, u=0.75, x0=(0.3, -0.2))
        want = FN.Coordinate(4.0, 32, 1, 0.5, 0.25, -0.2)
        assert concentration_tail(self.SPEC, h, zero_shift(self.LAM), (1.0,), **window).coordinate == want
        assert moment_bound(self.SPEC, (0.0, 0.5), (0.0, -0.5), (1,), **window).coordinate == want
        b = make_b_weighted([2.0])
        assert check_prop21(2.0, b, m=32, n_paths=300, seed=3).coordinate == FN.Coordinate(2.0, 32, 0)

    def test_picklable(self):
        coord = FN.Coordinate(4.0, 32, 1, 0.5, 0.25, -0.2)
        assert pickle.loads(pickle.dumps(coord)) == coord


class TestCheckProp21:
    def test_constant_profile_is_exact(self):
        # b' = 0, so every summand is exp(0) = 1 with no MC noise
        res = check_prop21(1.0, resolve_b("const:0.5", [1.0]), m=32, n_paths=512, seed=5)
        (row,) = res.rows
        assert (row.mean, row.stderr, row.upper999) == (1.0, 0.0, 1.0)
        assert res.passed
        assert res.alpha == alpha(1.0)

    def test_smoke_run_passes(self):
        res = check_prop21(1.0, make_b_weighted([1.0], profile="sin"), m=256, n_paths=2048, seed=11)
        (row,) = res.rows
        assert res.passed and row.passed
        assert row.upper999 == row.mean + FN.ndtri(CONFIDENCE) * row.stderr <= row.limit == EXP_BOUND
        assert row.n == 2048

    def test_rejects_non_integer_m(self, monkeypatch):
        b = make_b_weighted([1.0], profile="sin")
        want = check_prop21(1.0, b, m=32, n_paths=16, seed=0)
        assert check_prop21(1.0, b, m=np.int64(32), n_paths=16, seed=0) == want
        _refuse_sampling(monkeypatch)
        with pytest.raises(DomainError, match="integer"):
            check_prop21(1.0, b, m=64.7, n_paths=16, seed=0)

    def test_seed_is_required(self):
        with pytest.raises(TypeError, match="seed"):
            check_prop21(1.0, make_b_weighted([1.0], profile="sin"), m=32, n_paths=16)

    def test_rejects_non_smooth(self):
        with pytest.raises(DomainError):
            check_prop21(1.0, make_b_weighted([1.0], profile="sign"), m=32, n_paths=16, seed=0)

    def test_rejects_uncertified(self):
        bare = raw_profile_b(lambda t, xi: np.sin(xi), lambda t, xi: np.cos(xi), [1.0], name="bare")
        with pytest.raises(DomainError):
            check_prop21(1.0, bare, m=32, n_paths=16, seed=0)

    def test_rejects_a_single_path_before_sampling(self, monkeypatch):
        # an estimate needs two samples; judge refused the one path only after it was drawn
        _refuse_sampling(monkeypatch)
        with pytest.raises(DomainError, match="n_paths must be at least 2"):
            check_prop21(1.0, make_b_weighted([1.0]), 8, 1, seed=1)


class TestCheckThm23:
    H = make_h((1.0, 4.0), {0: "sin_pi_t"})

    def _spec(self, **kw):
        lam = (1.0, 4.0)
        base = dict(
            spectrum=DriftSpectrum(lam).truncate(2),
            b=make_b_weighted(lam, profile="sin"),
            seed=13,
            m=256,
            n_paths=2048,
        )
        base.update(kw)
        return ExperimentSpec(**base)

    def test_state_free_profile_is_exact(self):
        spec = self._spec(b=resolve_b("time:sin_pi", (1.0, 4.0)))
        res = check_thm23(spec, self.H)
        (row,) = res.rows
        assert (row.mean, row.stderr) == (1.0, 0.0)
        assert res.passed

    def test_smoke_run_passes(self):
        res = check_thm23(self._spec(), self.H)
        (row,) = res.rows
        assert res.passed and row.passed
        assert row.upper999 == row.mean + FN.ndtri(CONFIDENCE) * row.stderr
        assert res.beta == pytest.approx(beta(DriftSpectrum((1.0, 4.0))), rel=1e-15)
        assert res.rate == pytest.approx(res.beta / self.H.norm_inf**2, rel=1e-15)
        assert res.h_sup == 1.0

    def test_a_shift_off_bs_direction_draws_no_path(self, monkeypatch):
        # b reads component 0 and h moves only component 1: the functional vanishes
        _refuse_sampling(monkeypatch)
        res = check_thm23(self._spec(), make_h((1.0, 4.0), {1: "sin_pi_t"}))
        (row,) = res.rows
        assert (row.mean, row.stderr, row.max_summand, row.n) == (1.0, 0.0, 1.0, 2048)
        assert res.passed

    def test_rejects_missing_or_zero_shift(self, monkeypatch):
        _refuse_sampling(monkeypatch)
        with pytest.raises(DomainError, match="sup"):
            check_thm23(self._spec(), zero_shift((1.0, 4.0)))

    @pytest.mark.parametrize("scale, rate", [("1e-200", "inf"), ("1e200", "0")])
    def test_rejects_a_rate_outside_the_floats_before_sampling(self, monkeypatch, scale, rate):
        # sup|h|^2 underflows to 0 or overflows: beta/sup|h|^2 is inf or 0
        _refuse_sampling(monkeypatch)
        with pytest.raises(DomainError, match=rf"rate beta/sup\|h\|\^2 = .* must be positive and finite, got {rate}"):
            check_thm23(self._spec(), resolve_h(f"e1:const:{scale}", (1.0, 4.0)))


class TestConcentration:
    LAM = (1.0, 4.0)
    SPEC = ExperimentSpec(
        spectrum=DriftSpectrum(LAM).truncate(2), b=make_b_weighted(LAM, profile="sin"), seed=17, m=256,
        n_paths=2048,
    )

    def _run(self, etas, h1=resolve_h("e1:sin_pi_t", LAM), h2=zero_shift(LAM)):
        return concentration_tail(self.SPEC, h1, h2, etas, r=0.25, u=0.75)

    def test_smoke_run_passes(self):
        res = self._run(etas=(0.5, 1.0, 2.0, 4.0))
        assert res.passed and not res.degenerate
        assert res.ell == 0.5
        emp = [row.mean for row in res.rows]
        assert emp == sorted(emp, reverse=True)
        for eta, thr, row in zip(res.etas, res.thresholds, res.rows):
            assert row.limit == pytest.approx(3.0 * math.exp(-res.beta * eta**2), rel=1e-15)
            assert thr == pytest.approx(eta * math.sqrt(res.ell) * res.diff_sup, rel=1e-15)
            assert row.upper999 == row.mean + FN.ndtri(CONFIDENCE) * row.stderr <= row.limit

    def test_eta_zero_is_trivially_true(self):
        res = self._run(etas=(0.0,))
        row = res.rows[0]
        assert row.limit == 3.0
        assert res.thresholds == (0.0,)
        assert row.passed

    def test_identical_shifts_degenerate(self, monkeypatch):
        _refuse_sampling(monkeypatch)  # the functional vanishes, so nothing is sampled
        h = resolve_h("e1:sin_pi_t", (1.0, 4.0))
        res = self._run(etas=(0.0, 1.0), h1=h, h2=h)
        assert res.degenerate and res.passed
        assert res.diff_sup == 0.0
        assert res.note
        assert res.thresholds == (0.0, 0.0)
        for row, eta in zip(res.rows, (0.0, 1.0)):
            assert (row.mean, row.stderr, row.upper999, row.passed) == (0.0, 0.0, 0.0, True)
            assert row.limit == 3.0 * math.exp(-res.beta * eta * eta)

    def test_shift_below_float_spacing_keeps_its_size(self):
        # S/sup|h| barely depends on the scale of a constant shift for a smooth b;
        # the difference of two sin values cancelled e1:const:1e-20 to S = 0
        spec = ExperimentSpec(spectrum=DriftSpectrum(self.LAM).truncate(2), b=make_b_weighted(self.LAM), seed=1,
                              m=64, n_paths=2000)
        coord = spec.coordinate()
        zero = zero_shift(self.LAM).component
        scaled = [FN._pair_values(spec, coord, resolve_h(f"e1:const:{eps:g}", self.LAM).component, zero) / eps
                  for eps in (1e-20, 1e-8)]
        assert np.all(scaled[0] > 0.0)
        np.testing.assert_allclose(scaled[0], scaled[1], rtol=1e-6)

    def test_rejects_bad_etas_and_missing_shifts(self, monkeypatch):
        _refuse_sampling(monkeypatch)
        with pytest.raises(DomainError):
            self._run(etas=(-1.0,))
        with pytest.raises(DomainError):
            self._run(etas=(math.inf,))

    def test_rejects_empty_etas(self, monkeypatch):
        # no eta means no row, and a verdict over no rows would pass
        _refuse_sampling(monkeypatch)
        with pytest.raises(DomainError, match="nonempty"):
            self._run(etas=[])


class TestMoments:
    LAM = (1.0, 4.0)
    SPEC = ExperimentSpec(
        spectrum=DriftSpectrum(LAM).truncate(2), b=make_b_weighted(LAM, profile="sin"), seed=19, m=256,
        n_paths=2048,
    )

    def _run(self, ps, x=(0.5, 0.0), y=(-0.5, 0.0)):
        return moment_bound(self.SPEC, x, y, ps)

    def test_smoke_run_against_derived_bound(self):
        res = self._run(ps=(1, 2, 4))
        assert res.passed and not res.degenerate
        assert res.separation == 1.0
        for row in res.rows:
            assert row.upper999 == pytest.approx(
                row.mean + 3.090232306167813 * row.stderr, rel=1e-12
            )
            assert row.passed

    def test_stated_exponent_reading_fails(self):
        # beta < 1 makes beta^(p/2) the smaller scale; the measured first
        # moment already exceeds it, which is why PASS compares against
        # the beta^(-p/2) form
        res = self._run(ps=(1,))
        row, (stated,) = res.rows[0], res.bounds_stated
        assert stated < row.limit
        assert row.mean > stated
        assert row.upper999 <= row.limit

    def test_large_orders_give_an_infinite_bound_and_no_nan(self):
        # 300^150 overflows a float and raised OverflowError; beta^(300/2) keeps the stated bound finite
        res = self._run(ps=(2, 300))
        low, high = res.rows
        ell, sep, b = res.ell, res.separation, res.beta
        assert low.limit == 3.0 * 2 ** (2 / 2.0) * ell ** (2 / 2.0) * sep**2 * b ** (-2 / 2.0)
        assert high.limit == math.inf
        want = math.exp(math.log(3.0) + 150.0 * (math.log(300) + math.log(ell) + math.log(b)) + 300 * math.log(sep))
        assert res.bounds_stated[1] == pytest.approx(want, rel=1e-12)
        assert high.passed and not any(math.isnan(v) for v in vars(high).values())

    @pytest.mark.parametrize("p, ell, sep, beta_val, sign", [
        (200, 1.0, 10.0, 1e-4, 1),  # 3 p^(p/2) sep^p overflows to inf, beta^(p/2) underflows to 0: NaN
        (100, 1e-7, 1e3, 0.5, 1),  # l^(p/2) underflows to 0, so the product read 0
    ])
    def test_bound_is_taken_from_its_logarithm_where_the_product_fails(self, p, ell, sep, beta_val, sign):
        log = math.log(3.0) + p / 2.0 * (math.log(p) + math.log(ell) + sign * math.log(beta_val)) + p * math.log(sep)
        assert FN._moment_bound(p, ell, sep, beta_val, sign) == pytest.approx(math.exp(log), rel=1e-12)

    def test_bound_overflows_to_inf(self):
        assert FN._moment_bound(1000, 1.0, 2.0, 0.5, -1) == math.inf
        assert FN._moment_bound(2, 1.0, 1e200, 0.5, -1) == math.inf

    def test_tiny_separation_is_not_degenerate(self):
        # |x - y| = 1e-200 squares to 0 unscaled, which read as x = y
        res = self._run(ps=(1,), x=(1e-200, 0.0), y=(0.0, 0.0))
        assert res.separation == 1e-200 and not res.degenerate

    def test_shifts_equal_along_bs_direction_draw_no_path(self, monkeypatch):
        _refuse_sampling(monkeypatch)
        res = self._run(ps=(1, 2), x=(0.5, 0.3), y=(0.5, 0.0))
        assert res.separation == 0.3 and not res.degenerate and res.passed
        assert all((row.mean, row.max_summand, row.n) == (0.0, 0.0, 2048) for row in res.rows)

    def test_equal_shifts_degenerate(self):
        res = self._run(ps=(1, 2), y=(0.5, 0.0))
        assert res.degenerate and res.passed
        assert res.bounds_stated == (0.0, 0.0)
        assert all((row.mean, row.upper999, row.limit) == (0.0, 0.0, 0.0) for row in res.rows)

    def test_rejects_bad_orders_and_missing_points(self, monkeypatch):
        _refuse_sampling(monkeypatch)
        with pytest.raises(DomainError):
            self._run(ps=(0,))
        with pytest.raises(DomainError):
            self._run(ps=(1,), x=(1.0,))

    def test_rejects_non_integer_orders(self, monkeypatch):
        assert self._run(ps=(np.int64(1),), y=(0.5, 0.0)).ps == (1,)
        _refuse_sampling(monkeypatch)
        with pytest.raises(DomainError, match="integer"):
            self._run(ps=(2.5,))

    def test_rejects_empty_orders(self, monkeypatch):
        _refuse_sampling(monkeypatch)
        with pytest.raises(DomainError, match="at least one moment order"):
            self._run(ps=[])


class TestCertifiedRange:
    """Each check refuses a statistic S above its certified cap, before f is applied."""

    LAM = (1.0, 4.0)
    SPEC = ExperimentSpec(spectrum=DriftSpectrum(LAM).truncate(2), b=make_b_weighted(LAM), seed=3, m=16,
                          n_paths=300)
    H = make_h(LAM, {0: "sin_pi_t"})

    def _check(self, name):
        """(run, S cap) of one check; the window checks run on [0.25, 0.75], so l = 0.5."""
        spec, h, window = self.SPEC, self.H, dict(r=0.25, u=0.75)
        if name == "prop21":
            b = make_b_weighted([1.0])
            return lambda: check_prop21(1.0, b, m=16, n_paths=300, seed=3), b.profile_dx_sup * b.vector_norm
        if name == "thm23":
            return lambda: check_thm23(spec, h), 2.0 * spec.b.norm_inf
        if name == "concentration":
            return lambda: concentration_tail(spec, h, zero_shift(self.LAM), (1.0,), **window), spec.b.norm_inf
        return lambda: moment_bound(spec, (0.5, 0.0), (-0.5, 0.0), (1, 300), **window), spec.b.norm_inf

    @pytest.mark.parametrize("check", ["prop21", "thm23", "concentration", "moments"])
    def test_a_value_above_the_cap_raises(self, monkeypatch, check):
        run, cap = self._check(check)

        def sampled(worker, n_paths, workers, args, top=cap):
            values = np.linspace(0.0, cap / 2, n_paths)
            values[7] = top
            return values

        monkeypatch.setattr(FN, "run_blocks", sampled)
        assert run().rows  # at the cap: in range
        monkeypatch.setattr(FN, "run_blocks", lambda *args: sampled(*args, top=cap * (1.0 + 1e-6)))
        with pytest.raises(RuntimeError, match="exceeds the certified cap"):
            run()


class TestGammaStep:
    def test_all_orders_hold(self):
        rows = gamma_step_check(20)
        assert len(rows) == 20
        assert all(ok for (_, _, _, ok) in rows)

    def test_exact_small_orders(self):
        rows = gamma_step_check(2)
        p1, lhs1, rhs1, _ = rows[0]
        assert lhs1 == pytest.approx(1.5 * math.sqrt(math.pi), rel=1e-15)
        assert rhs1 == 3.0
        p2, lhs2, rhs2, _ = rows[1]
        assert lhs2 == 3.0 and rhs2 == 6.0

    def test_rejects_empty_range(self):
        with pytest.raises(DomainError):
            gamma_step_check(0)

    def test_p_max_must_be_an_integer(self):
        with pytest.raises(DomainError, match="p_max must be an integer"):
            gamma_step_check(p_max=2.5)
        assert gamma_step_check(np.int64(2)) == gamma_step_check(2)


class TestWindowRescalingLaw:
    def test_window_run_matches_rescaled_unit_run_in_law(self):
        # J = int_r^u [b(s, Z_s + h1(s)) - b(s, Z_s + h2(s))] ds, with Z at
        # rate lam, has the same law as l * J~ where J~ uses the window
        # rescaled descriptors at rate l*lam on [0, 1].  Independent seeds
        # on both sides, then a two-sample KS test.
        lam, r, u = 2.0, 0.25, 0.75
        ell = u - r
        n, m = 4096, 512
        b = make_b_weighted([lam], profile="tanh")
        h1 = make_h([lam], {0: "sin_pi_t"})
        h2 = zero_shift([lam])

        spec = ExperimentSpec(spectrum=DriftSpectrum((lam,)).truncate(1), b=b, seed=101, m=m, n_paths=n)
        window_values = FN._pair_values(
            spec, FN.Coordinate(lam, m, 0, ell, r), h1.component, h2.component
        )

        rb = window_rescaled_b(b, r, u)
        rh1 = window_rescaled_h(h1, r, u)
        rh2 = window_rescaled_h(h2, r, u)
        t01 = np.linspace(0.0, 1.0, m + 1)
        unit_values = run_blocks(
            FN._shifted_pair_block,
            n,
            1,
            (202, FN.Coordinate(ell * lam, m, 0), rb, rh1.component(0, t01), rh2.component(0, t01)),
        )

        stat = ks_2samp(window_values, ell * unit_values)
        assert stat.pvalue > 1e-3, (stat.statistic, stat.pvalue)


class TestReducedSamplingMatchesFullPaths:
    def test_prop21_block_bitwise(self):
        # the worker samples only the active component; the values must be
        # bit-identical to recomputing from full Hilbert paths
        lam = (1.0, 4.0)
        b = make_b_weighted(lam, profile="sin", direction=0)
        got = FN._prop21_block(5, 23, FN.Coordinate(1.0, 128, 0), b, lanes=2)
        times = np.linspace(0.0, 1.0, 129)
        want = np.empty(5)
        for i in range(5):
            hp = sample_hilbert(lam, 2, 128, seed=23, path=i)
            xi = hp.component_values(0)
            dphi = np.asarray(b.profile_dx(times, xi), dtype=np.float64)
            want[i] = abs(np.trapezoid(dphi, dx=1.0 / 128)) * b.vector_norm
        np.testing.assert_array_equal(got, want)

    def test_shifted_pair_block_bitwise(self):
        lam = (4.0, 9.0)
        b = make_b_weighted(lam, profile="sin", direction=1)
        h = make_h(lam, {1: "sin_pi_t"})
        times = np.linspace(0.0, 1.0, 129)
        hv = h.component(1, times)
        zero = np.zeros_like(times)
        got = FN._shifted_pair_block(4, 29, FN.Coordinate(9.0, 128, 1), b, hv, zero, lanes=2)
        want = np.empty(4)
        for i in range(4):
            hp = sample_hilbert(lam, 2, 128, seed=29, path=i)
            xi = hp.component_values(1)
            diff = np.cos(xi + (hv + zero) / 2.0) * (2.0 * np.sin((hv - zero) / 2.0))  # sin's identity at omega = 1
            want[i] = abs(np.trapezoid(diff, dx=1.0 / 128)) * b.vector_norm
        np.testing.assert_array_equal(got, want)

    def test_worker_count_does_not_change_values(self):
        b = make_b_weighted([1.0], profile="sin")
        args = (31, FN.Coordinate(1.0, 64, 0), b)
        one = run_blocks(FN._prop21_block, 600, 1, args)
        three = run_blocks(FN._prop21_block, 600, 3, args)
        np.testing.assert_array_equal(one, three)


class TestBlockLayout:
    def test_path_counts_must_be_integers(self):
        assert block_layout(np.int64(300)) == block_layout(300) == [(0, 256), (1, 44)]
        for bad in (300.0, "300", 0):
            with pytest.raises(DomainError):
                block_layout(bad)

    def test_worker_counts_must_be_positive_integers(self):
        args = (7, FN.Coordinate(1.0, 8, 0), make_b_weighted([1.0]))
        for bad, message in ((0, "must be at least 1"), (-1, "must be at least 1"), (1.5, "must be an integer")):
            with pytest.raises(DomainError, match=f"workers {message}"):
                run_blocks(FN._prop21_block, 300, bad, args)
        np.testing.assert_array_equal(run_blocks(FN._prop21_block, 300, np.int64(1), args),
                                      run_blocks(FN._prop21_block, 300, 1, args))


class TestChecksMatchHandBuiltBlocks:
    """Each Hilbert-space check equals _shifted_pair_block called by hand
    with the worker's argument layout (seed, the coordinate at its rate,
    horizon, window start and x0 along b's direction, b, h1 values, h2
    values at the absolute times), bitwise."""

    LAM = (1.0, 4.0)
    B = make_b_weighted(LAM, profile="sin", direction=1)
    SPEC = ExperimentSpec(spectrum=DriftSpectrum(LAM).truncate(2), b=B, seed=37, m=128, n_paths=600)
    X0 = (0.3, -0.2)
    T_WINDOW = 0.25 + np.linspace(0.0, 0.5, 129)

    def _by_hand(self, rate, horizon, t0, x0_dir, h1_vals, h2_vals):
        args = (37, FN.Coordinate(rate, 128, 1, horizon, t0, x0_dir), self.B, h1_vals, h2_vals)
        return run_blocks(FN._shifted_pair_block, 600, 1, args)

    def test_thm23_is_the_unit_window_at_rate_ell_lambda(self):
        h = make_h(self.LAM, {1: "sin_pi_t"})
        times = np.linspace(0.0, 1.0, 129)
        values = self._by_hand(0.5 * 4.0, 1.0, 0.0, 0.0, h.component(1, times), np.zeros(129))
        rate = beta(DriftSpectrum(self.LAM)) / h.norm_inf**2
        res = check_thm23(self.SPEC, h, ell=0.5)
        assert res.rows == (exp_moment(values, rate),)

    def test_concentration_on_a_window_from_x0(self):
        h1, h2 = make_h(self.LAM, {1: "sin_pi_t"}), zero_shift(self.LAM)
        t = self.T_WINDOW
        values = self._by_hand(4.0, 0.5, 0.25, -0.2, h1.component(1, t), h2.component(1, t))
        # |J| stays below about 0.12 here, so these thresholds cut through its whole range
        etas = tuple(np.linspace(0.0, 0.2, 41))
        res = concentration_tail(self.SPEC, h1, h2, etas, r=0.25, u=0.75, x0=self.X0)
        sup = shift_difference_norm(h1, h2, 0.25, 0.75)
        want = [float(np.mean(values > e * math.sqrt(0.5) * sup)) for e in etas]
        assert [row.mean for row in res.rows] == want

    def test_moments_on_a_window_from_x0(self):
        values = self._by_hand(4.0, 0.5, 0.25, -0.2, np.full(129, 0.5), np.full(129, -0.5))
        res = moment_bound(self.SPEC, (0.0, 0.5), (0.0, -0.5), (1, 2, 3), r=0.25, u=0.75, x0=self.X0)
        assert [row.mean for row in res.rows] == [float(np.mean(values**p)) for p in (1, 2, 3)]


# partial and whole block sizes around two 16-row chunks of M = 4096
CHUNK_COUNTS = (1, 31, 32, 33, 100, 256)


def _rows_of_block(worker, blk, count, *args):
    """Rows of paths blk * BLOCK + [0, count) of a run of blk * BLOCK + count paths, in two lanes."""
    return worker(blk * BLOCK + count, *args, lanes=2)[blk * BLOCK :]


class TestChunkedBlocksMatchWholeBlock:
    """At M = 4096 (16-row chunks) and M = 1000 (65-row chunks) a block
    spans several chunks; each worker must equal its whole-block formula
    (all BLOCK paths sampled, then the first count kept) bitwise, also in
    a block after the first."""

    @pytest.mark.parametrize("m", [4096, 1000])
    def test_prop21_block(self, m):
        b = make_b_weighted((1.0, 4.0), profile="sin", direction=1)
        times = np.linspace(0.0, 1.0, m + 1)
        whole = block_paths_1d(4.0, m, 41, 1, 1)
        for count in CHUNK_COUNTS:
            dphi = np.asarray(b.profile_dx(times, whole[:count]), dtype=np.float64)
            want = np.abs(np.trapezoid(dphi, dx=1.0 / m, axis=-1)) * b.vector_norm
            got = _rows_of_block(FN._prop21_block, 1, count, 41, FN.Coordinate(4.0, m, 1), b)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("m", [4096, 1000])
    @pytest.mark.parametrize("x0_dir, r, horizon", [(0.0, 0.0, 1.0), (0.7, 0.25, 0.5)])
    def test_shifted_pair_block(self, m, x0_dir, r, horizon):
        lam = (1.0, 4.0)
        b = make_b_weighted(lam, profile="sin", direction=0)
        t_abs = r + np.linspace(0.0, horizon, m + 1)
        h1 = make_h(lam, {0: "sin_pi_t"}).component(0, t_abs)
        h2 = np.full(m + 1, -0.3)
        tau = np.linspace(0.0, horizon, m + 1)
        whole = block_paths_1d(1.0, m, 43, 0, 1, horizon=horizon)
        for count in CHUNK_COUNTS:
            z = whole[:count] + np.exp(-1.0 * tau) * x0_dir if x0_dir != 0.0 else whole[:count]
            diff = np.cos(z + (h1 + h2) / 2.0) * (2.0 * np.sin((h1 - h2) / 2.0))  # sin's identity at omega = 1
            want = np.abs(np.trapezoid(diff, dx=horizon / m, axis=-1)) * b.vector_norm
            got = _rows_of_block(FN._shifted_pair_block, 1, count, 43, FN.Coordinate(1.0, m, 0, horizon, r, x0_dir),
                                 b, h1, h2)
            np.testing.assert_array_equal(got, want)


# partial and whole blocks around the 16-row chunks of M = 4096; M = 1000 has
# 65-row chunks and M = 33 one chunk per block
LANE_COUNTS = (1, 15, 16, 17, 100, 256)


def _one_lane(count, m, lane, *, lanes):
    """ousim.run_lanes with every run in one lane, whatever lane count its caller passes."""
    ousim.run_lanes(count, m, lane, lanes=1)


def _lanes(monkeypatch, two):
    """Let the kernels' run_lanes run the lanes a run asks for, or keep them all on the caller's thread."""
    for module in (FN, reversal):
        monkeypatch.setattr(module, "run_lanes", ousim.run_lanes if two else _one_lane)


class TestLaneKernels:
    """Each kernel deals its row chunks to two lanes (ousim.run_lanes),
    each drawing and computing whole chunks in its own workspace; its
    values must equal the single-thread whole-block formula bitwise, and
    no thread may outlive the call."""

    B = make_b_weighted((1.0, 4.0), profile="sin", direction=1)

    @pytest.mark.parametrize("m", [4096, 1000, 33])
    def test_prop21_block(self, m):
        times = np.linspace(0.0, 1.0, m + 1)
        whole = block_paths_1d(4.0, m, 53, 1, 0)
        for count in LANE_COUNTS:
            dphi = np.asarray(self.B.profile_dx(times, whole[:count]), dtype=np.float64)
            want = np.abs(np.trapezoid(dphi, dx=1.0 / m, axis=-1)) * self.B.vector_norm
            got = FN._prop21_block(count, 53, FN.Coordinate(4.0, m, 1), self.B, lanes=2)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("m", [4096, 1000, 33])
    def test_shifted_pair_block(self, m):
        horizon, r, x0_dir = 0.5, 0.25, 0.7
        tau = np.linspace(0.0, horizon, m + 1)
        h1 = np.sin(np.pi * (r + tau))
        h2 = np.full(m + 1, -0.3)
        z_all = block_paths_1d(4.0, m, 59, 1, 0, horizon=horizon) + np.exp(-4.0 * tau) * x0_dir
        coord = FN.Coordinate(4.0, m, 1, horizon, r, x0_dir)
        for count in LANE_COUNTS:
            diff = np.cos(z_all[:count] + (h1 + h2) / 2.0) * (2.0 * np.sin((h1 - h2) / 2.0))  # sin at omega = 1
            want = np.abs(np.trapezoid(diff, dx=horizon / m, axis=-1)) * self.B.vector_norm
            np.testing.assert_array_equal(FN._shifted_pair_block(count, 59, coord, self.B, h1, h2, lanes=2), want)

    def test_no_thread_outlives_a_kernel(self):
        coord = FN.Coordinate(4.0, 4096, 1)
        h1, h2 = np.full(4097, 0.5), np.zeros(4097)
        calls = []

        def fail_on_the_third_chunk(real):
            def profile(*args, **kwargs):
                calls.append(None)
                if len(calls) % 3 == 0:
                    raise FloatingPointError("profile failed mid-block")
                return real(*args, **kwargs)

            return profile

        failing = dataclasses.replace(self.B, profile_dx=fail_on_the_third_chunk(self.B.profile_dx),
                                      pair=lambda *shifts: fail_on_the_third_chunk(self.B.pair(*shifts)))
        before = threading.active_count()
        for b, kernel, args in ((self.B, FN._prop21_block, ()), (self.B, FN._shifted_pair_block, (h1, h2)),
                                (failing, FN._prop21_block, ()), (failing, FN._shifted_pair_block, (h1, h2))):
            try:
                kernel(256, 3, coord, b, *args, lanes=2)
            except FloatingPointError:
                assert b is failing
            else:
                assert b is not failing
            assert threading.active_count() == before, kernel.__name__


class TestLanes:
    """One lane against two, bitwise, and the lane thread's lifetime.

    M = 4097, 1000 and 33 are not multiples of ousim.SCAN_STEPS, so the
    scan's padded last chunk and the remainder of the carry run in the
    lanes' workspaces.
    """

    B = make_b_weighted((1.0, 4.0), profile="sin", direction=1)
    TANH = make_b_weighted((1.0, 4.0), profile="tanh", direction=1, omega=2.5)
    MS = [4096, 4097, 1000, 33]

    @pytest.mark.parametrize("m", MS)
    def test_prop21_block_one_lane_is_two(self, monkeypatch, m):
        coord = FN.Coordinate(4.0, m, 1)
        for count in LANE_COUNTS:
            runs = []
            for two in (False, True):
                _lanes(monkeypatch, two)
                runs.append(FN._prop21_block(count, 61, coord, self.B, lanes=2))
            np.testing.assert_array_equal(runs[0], runs[1], err_msg=f"count={count}")

    @pytest.mark.parametrize("m", MS)
    def test_shifted_pair_block_one_lane_is_two(self, monkeypatch, m):
        coord = FN.Coordinate(4.0, m, 1, 0.5, 0.25, -0.4)
        tau = np.linspace(0.0, 0.5, m + 1)
        h1, h2 = np.sin(np.pi * (0.25 + tau)), np.full(m + 1, 0.2)
        for b in (self.B, self.TANH):
            for count in LANE_COUNTS:
                runs = []
                for two in (False, True):
                    _lanes(monkeypatch, two)
                    runs.append(FN._shifted_pair_block(count, 67, coord, b, h1, h2, lanes=2))
                np.testing.assert_array_equal(runs[0], runs[1], err_msg=f"{b.name} count={count}")

    @pytest.mark.parametrize("lane", ["caller", "helper"])
    def test_a_profile_failing_in_either_lane_leaves_the_block_call(self, lane):
        coord = FN.Coordinate(4.0, 4096, 1)
        main = threading.main_thread()
        before = threading.active_count()
        seen = []

        def profile_dx(t, z, out=None):
            seen.append(threading.active_count())
            if (threading.current_thread() is main) == (lane == "caller"):
                raise FloatingPointError(f"profile failed in the {lane} lane")
            return self.B.profile_dx(t, z, out)

        with pytest.raises(FloatingPointError, match=lane):
            FN._prop21_block(256, 3, coord, dataclasses.replace(self.B, profile_dx=profile_dx), lanes=2)
        assert threading.active_count() == before
        assert before + 1 in seen  # the lane thread ran beside the caller, and only inside the call


class TestLaneWorkspace:
    """A lane works in its workspace (ousim._lane_arrays) and a few work
    arrays: a chunk's paths overwrite its normals, tanh's pair profile
    works in the scan, and the split runs in half-chunk row groups, so
    one lane of 16-row chunks at M = 4096 stays near two (one level) or
    three and a quarter (decomposition) arrays of 16 x 4097 floats,
    0.52 MB each."""

    COORD = FN.Coordinate(2.0, 4096, 0)
    SIN = make_b_weighted([2.0], profile="sin")
    TANH = make_b_weighted([2.0], profile="tanh")

    @staticmethod
    def _peak_mb(call):
        """tracemalloc's peak, in MB, of call() run once more after a run that fills the grid caches."""
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    # the bound of each kernel; 1.78, 2.14 and 3.99 MB when the normals had an array of their own and the split five,
    # 1.61 (tanh) when its pair profile allocated a second array, 2.55 and 2.75 MB when the split ran whole chunks
    @pytest.mark.parametrize("kernel, bound", [("thm23", 1.4), ("thm23-tanh", 1.4), ("prop21", 1.4),
                                               ("decomposition", 2.2), ("decomposition-3000", 2.4)])
    def test_one_lane_peak(self, kernel, bound):
        h1, h2 = np.sin(np.pi * self.COORD.times()), np.zeros(4097)
        call = {
            "thm23": lambda: FN._shifted_pair_block(256, 3, self.COORD, self.SIN, h1, h2, lanes=1),
            "thm23-tanh": lambda: FN._shifted_pair_block(256, 3, self.COORD, self.TANH, h1, h2, lanes=1),
            "prop21": lambda: FN._prop21_block(256, 3, self.COORD, self.SIN, lanes=1),
            "decomposition": lambda: reversal._covariation_levels(256, 3, 2.0, [256, 1024, 4096], self.SIN, lanes=1),
            "decomposition-3000": lambda: reversal._covariation_levels(256, 3, 2.0, [3000, 4096], self.SIN, lanes=1),
        }[kernel]
        assert self._peak_mb(call) <= bound

    @pytest.mark.parametrize("m_list", [[3000, 4096], [33, 1000, 4097]], ids=["3000,4096", "33,1000,4097"])
    @pytest.mark.parametrize("profile", ["sin", "tanh"])
    def test_split_row_groups_are_the_whole_chunk_split(self, m_list, profile):
        # 16-row chunks at 4096: levels 3000 and 4096 split in two groups; 15-row chunks at 4097: 8 + 7 rows there
        b, count, seed = make_b_weighted([2.0], profile=profile), 300, 7
        grids = [ousim._grid(m, 1.0) for m in m_list]
        want = np.empty((count, len(m_list), 5))
        for blk, start, stop, at in ousim.task_chunks(count, m_list[-1]):
            normals = ousim.block_normals(seed, b.direction, blk, m_list[-1], rows=(start, stop))
            for k, m in enumerate(m_list):
                values = block_paths_1d(2.0, m, seed, b.direction, blk, rows=(start, stop), normals=normals[:, :m])
                want[at : at + stop - start, k] = reversal._split_arrays(
                    b, grids[k], values, reversal._split_weights(2.0, grids[k]), work=None)
        for lanes in (1, 2, 3):
            got = reversal._covariation_levels(count, seed, 2.0, m_list, b, lanes=lanes)
            assert got.tobytes() == want.tobytes(), lanes

    def test_one_level_paths_lie_over_the_chunks_normals(self, monkeypatch):
        scans = []

        def recorded(*args, normals, **kwargs):
            paths = block_paths_1d(*args, normals=normals, **kwargs)
            scans.append(np.shares_memory(paths, normals))
            return paths

        monkeypatch.setattr(FN, "block_paths_1d", recorded)
        want = FN._prop21_block(300, 3, self.COORD, self.SIN, lanes=2)
        monkeypatch.undo()
        np.testing.assert_array_equal(want, FN._prop21_block(300, 3, self.COORD, self.SIN, lanes=2))
        assert len(scans) == len(ousim.task_chunks(300, 4096)) and all(scans)

    def test_only_the_finest_level_overwrites_the_normals(self, monkeypatch):
        levels = []

        def recorded(lam, m, *args, normals, **kwargs):
            paths = block_paths_1d(lam, m, *args, normals=normals, **kwargs)
            levels.append((m, np.shares_memory(paths, normals)))
            return paths

        monkeypatch.setattr(reversal, "block_paths_1d", recorded)
        got = reversal._covariation_levels(300, 3, 2.0, [256, 1024, 4096], self.SIN, lanes=2)
        monkeypatch.undo()
        np.testing.assert_array_equal(got, reversal._covariation_levels(300, 3, 2.0, [256, 1024, 4096], self.SIN,
                                                                        lanes=2))
        assert len(levels) == 3 * len(ousim.task_chunks(300, 4096))
        assert all(over == (m == 4096) for m, over in levels)


# the cases of a run's block boundaries: inside one block, a partial block alone,
# one path past a block, and three whole blocks and a partial one
TASK_COUNTS = (1, 255, 257, 3 * 256 + 17)
KERNELS = ("prop21", "thm23", "concentration", "moments", "decomposition")


def _kernel(name, m, wrap=lambda b: b):
    """(worker, args) of the block kernel behind a stochastic command on m steps, its descriptor through wrap."""
    sin, tanh = wrap(TestLanes.B), wrap(TestLanes.TANH)
    unit, tau = np.linspace(0.0, 1.0, m + 1), np.linspace(0.0, 0.5, m + 1)
    return {
        "prop21": (FN._prop21_block, (61, FN.Coordinate(4.0, m, 1), sin)),
        "thm23": (FN._shifted_pair_block, (67, FN.Coordinate(2.0, m, 1), sin, np.sin(np.pi * unit), np.zeros(m + 1))),
        "concentration": (FN._shifted_pair_block, (71, FN.Coordinate(4.0, m, 1, 0.5, 0.25, -0.4), tanh,
                                                   np.sin(np.pi * (0.25 + tau)), np.full(m + 1, 0.2))),
        "moments": (FN._shifted_pair_block, (73, FN.Coordinate(4.0, m, 1, 0.5, 0.0, 0.3), sin,
                                             np.full(m + 1, 0.2), np.full(m + 1, -0.1))),
        "decomposition": (reversal._covariation_levels, (79, 2.0, [m // 2, m], sin)),
    }[name]


def _whole_block(kernel, args, m, blk):
    """The kernel's values on block blk by its whole-block formula: all BLOCK paths in one array, no chunks or lanes."""
    if kernel == "decomposition":
        seed, lam, m_list, b = args
        levels = []
        for level in m_list:
            times = np.linspace(0.0, 1.0, level + 1)
            paths = block_paths_1d(lam, level, seed, b.direction, blk)
            levels.append(reversal._split_arrays(b, times, paths, reversal._split_weights(lam, times)))
        return np.stack(levels, axis=1)
    seed, coord, b, *shifts = args
    z = block_paths_1d(coord.rate, m, seed, coord.component, blk, horizon=coord.horizon)
    if coord.x0 != 0.0:
        z += np.exp(-coord.rate * np.linspace(0.0, coord.horizon, m + 1)) * coord.x0
    integrand = b.pair(coord.times(), *shifts)(z) if shifts else np.asarray(b.profile_dx(coord.times(), z), np.float64)
    return np.abs(np.trapezoid(integrand, dx=coord.horizon / m, axis=-1)) * b.vector_norm


class TestTaskBoundaries:
    """A run's row chunks cross its block boundaries: the run equals each
    block's whole-block formula, concatenated, at any lane count, and one
    lane equals two, bitwise, for every kernel."""

    @pytest.mark.parametrize("m", [33, 1000, 4096, 4097])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_one_task_is_the_per_block_tasks(self, kernel, m):
        worker, args = _kernel(kernel, m)
        whole = np.concatenate([_whole_block(kernel, args, m, blk) for blk, _ in block_layout(TASK_COUNTS[-1])])
        for n in TASK_COUNTS:
            want = whole[:n]
            runs = {"serial": run_blocks(worker, n, 1, args), "one lane": worker(n, *args, lanes=1)}
            if n == TASK_COUNTS[-1]:
                runs.update({f"workers {w}": run_blocks(worker, n, w, args) for w in (2, 3)})
            for name, got in runs.items():
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (name, n)

    @pytest.mark.parametrize("lane", ["caller", "helper"])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_a_lane_failing_leaves_the_task(self, kernel, lane):
        main = threading.main_thread()

        def failing(real):
            def profile(*args, **kwargs):
                if (threading.current_thread() is main) == (lane == "caller"):
                    raise FloatingPointError(f"profile failed in the {lane} lane")
                return real(*args, **kwargs)

            return profile

        def wrap(b):
            return dataclasses.replace(b, profile_dx=failing(b.profile_dx),
                                       pair=lambda *shifts: failing(b.pair(*shifts)))

        worker, args = _kernel(kernel, 4096, wrap)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match=lane):
            worker(TASK_COUNTS[-1], *args, lanes=2)
        assert threading.active_count() == before


class TestStartDecay:
    """The start decay exp(-rate tau) x0 of an --x0 run is computed once, not once per row chunk, and the
    paths are still the block paths plus that decay, bitwise."""

    LAM = (1.0, 4.0)
    SPEC = ExperimentSpec(spectrum=DriftSpectrum(LAM).truncate(2), b=make_b_weighted(LAM, direction=1), seed=23,
                          m=4096, n_paths=300)

    def _values(self, coord, h1, h2):
        tau = np.linspace(0.0, coord.horizon, coord.m + 1)
        z = np.concatenate([block_paths_1d(coord.rate, coord.m, 23, 1, block, horizon=coord.horizon)
                            for block in (0, 1)])[:300] + np.exp(-coord.rate * tau) * coord.x0
        b = self.SPEC.b
        diff = np.cos(z + (h1 + h2) / 2.0) * (2.0 * np.sin((h1 - h2) / 2.0))  # sin at omega = 1
        return np.abs(np.trapezoid(diff, dx=coord.horizon / coord.m, axis=-1)) * b.vector_norm

    def test_concentration_and_moments_with_x0(self, monkeypatch):
        h1, zero = make_h(self.LAM, {1: "sin_pi_t"}), zero_shift(self.LAM)
        sampled = []

        def recorded(*args, real=FN.run_blocks):
            sampled.append(real(*args))
            return sampled[-1]

        monkeypatch.setattr(FN, "run_blocks", recorded)
        for two in (True, False):
            _lanes(monkeypatch, two)
            FN._start_decay.cache_clear()
            FN.concentration_tail(self.SPEC, h1, zero, (0.5, 1.0), r=0.25, u=0.75, x0=(0.3, -0.2))
            FN.moment_bound(self.SPEC, (0.0, 0.2), (0.0, -0.1), (1, 2), u=0.5, x0=(0.1, 0.4))
            if not two:  # one lane: two coordinates, each decay computed once for 16 + 3 chunks
                assert FN._start_decay.cache_info()[:2] == (2 * 18, 2)
        conc = FN.Coordinate(4.0, 4096, 1, 0.5, 0.25, -0.2)
        tau = np.linspace(0.0, 0.5, 4097)
        mom = FN.Coordinate(4.0, 4096, 1, 0.5, 0.0, 0.4)
        wants = (self._values(conc, np.sin(np.pi * (0.25 + tau)), np.zeros(4097)),
                 self._values(mom, np.full(4097, 0.2), np.full(4097, -0.1)))
        for got, want in zip(sampled, wants * 2):
            np.testing.assert_array_equal(got, want)
