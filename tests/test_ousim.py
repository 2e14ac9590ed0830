"""Sampler correctness: exact laws, stream discipline, bitwise contracts."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest, norm

import oulab.ousim as S
from oulab.constants import DriftSpectrum, TAIL_UNBOUNDED
from oulab.errors import DomainError

P_FLOOR = 1e-3  # KS rejection level shared with the acceptance suite


def _last_column(lam, n_paths, m=8, seed=123, domain=S.DOMAIN_PATH, horizon=1.0):
    cols = []
    for block in range(0, -(-n_paths // S.BLOCK)):
        z = S.block_paths_1d(lam, m, seed, 0, block, horizon=horizon, domain=domain)
        cols.append(z[:, -1])
    return np.concatenate(cols)[:n_paths]


class TestStreamKeys:
    def test_key_packing_distinct(self):
        seen = set()
        for component in (0, 1, 7):
            for block in (0, 1, 300):
                for domain in (0, 1, 2):
                    key = S.stream_key(99, component, block, domain)
                    assert key.dtype == np.uint64 and key.shape == (2,)
                    seen.add((int(key[0]), int(key[1])))
        assert len(seen) == 27

    def test_seed_is_word_zero(self):
        key = S.stream_key(12345, 6, 7, 2)
        assert int(key[0]) == 12345
        assert int(key[1]) == (2 << 56) | (6 << 32) | 7

    def test_width_validation(self):
        with pytest.raises(DomainError):
            S.stream_key(-1, 0, 0)
        with pytest.raises(DomainError):
            S.stream_key(2**64, 0, 0)
        with pytest.raises(DomainError):
            S.stream_key(0, 2**24, 0)
        with pytest.raises(DomainError):
            S.stream_key(0, 0, 2**32)
        with pytest.raises(DomainError):
            S.stream_key(0, 0, 0, 256)

    def test_substream_reproducible(self):
        a = S.standard_normal(S.substream(5, 1, 2), 16)
        b = S.standard_normal(S.substream(5, 1, 2), 16)
        c = S.standard_normal(S.substream(5, 1, 3), 16)
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)

    def test_path_stream_block_row(self):
        ps = S.PathStream(seed=1, path=517)
        assert ps.block == 2 and ps.row == 5
        assert S.PathStream(seed=1, path=255).block == 0
        with pytest.raises(DomainError):
            S.PathStream(seed=1, path=-1)
        for bad in ({"path": 1.5}, {"path": "3"}, {"path": None}, {"path": 2, "component": 0.5}):
            with pytest.raises(DomainError):
                S.PathStream(seed=1, **bad)
        ps = S.PathStream(seed=1, path=np.int64(517), component=np.uint8(3))
        np.testing.assert_array_equal(S.path_normals(ps, 5), S.block_normals(1, 3, 2, 5)[5])


class TestStandardNormal:
    def test_moments(self):
        z = S.standard_normal(S.substream(7), 200_000)
        assert abs(z.mean()) < 4.0 / math.sqrt(200_000)
        assert abs(z.var() - 1.0) < 4.0 * math.sqrt(2.0 / 200_000)

    def test_ks_against_normal(self):
        z = S.standard_normal(S.substream(11), 100_000)
        assert kstest(z, norm.cdf).pvalue > P_FLOOR

    def test_scalar_matches_vector_head(self):
        gen_a = S.substream(3)
        gen_b = S.substream(3)
        vec = S.standard_normal(gen_a, 4)
        singles = [float(S.standard_normal(gen_b)) for _ in range(4)]
        np.testing.assert_array_equal(vec, np.asarray(singles))

    def test_extreme_uniform_is_finite(self):
        # the clamped top of the uniform range maps to about +8.2 sigma,
        # never to infinity
        from scipy.special import ndtri

        assert math.isfinite(ndtri(1.0 - 2.0**-53))
        assert ndtri(1.0 - 2.0**-53) < 9.0


class TestTransition:
    def test_mean_var_formulas(self):
        mean, var = S.transition_mean_var(2.0, 0.7, 0.25)
        assert mean == pytest.approx(0.7 * math.exp(-0.5), rel=1e-15)
        assert var == pytest.approx(-math.expm1(-1.0) / 4.0, rel=1e-15)

    def test_variance_below_dt_for_small_steps(self):
        for lam in (0.1, 1.0, 10.0):
            for dt in (1e-4, 1e-2):
                _, var = S.transition_mean_var(lam, 0.0, dt)
                assert 0.0 < var < dt

    def test_vectorized_states(self):
        mean, var = S.transition_mean_var(1.0, np.array([0.0, 1.0, -2.0]), 0.5)
        assert mean.shape == (3,)
        assert np.isscalar(var) or var.shape == ()

    def test_sample_statistics(self):
        gen = S.substream(21, domain=S.DOMAIN_AUX)
        z0 = np.zeros(50_000)
        z1 = S.transition_sample(1.0, z0, 0.5, gen)
        _, var = S.transition_mean_var(1.0, 0.0, 0.5)
        assert abs(z1.mean()) < 4.0 * math.sqrt(var / z1.size)
        assert abs(z1.var() - var) < 4.0 * var * math.sqrt(2.0 / z1.size)

    def test_rejects_bad_arguments(self):
        gen = S.substream(0)
        with pytest.raises(DomainError):
            S.transition_mean_var(1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            S.transition_mean_var(-1.0, 0.0, 0.1)
        with pytest.raises(DomainError):
            S.transition_sample(1.0, math.nan, 0.1, gen)


class TestRecursionSampler:
    def test_paths_start_at_zero(self):
        z = S.block_paths_1d(1.0, 16, seed=5, component=0, block=0)
        assert z.shape == (S.BLOCK, 17)
        assert np.all(z[:, 0] == 0.0)

    def test_marginal_ks(self):
        for lam in (0.25, 1.0, 4.0):
            z1 = _last_column(lam, 20_000, m=8, seed=42)
            cdf = norm(scale=math.sqrt(S.marginal_variance(lam, 1.0))).cdf
            assert kstest(z1, cdf).pvalue > P_FLOOR, lam

    def test_marginal_independent_of_grid(self):
        # the sampler is exact: the t=1 law cannot depend on step count
        a = _last_column(1.0, 20_000, m=4, seed=9)
        cdf = norm(scale=math.sqrt(S.marginal_variance(1.0, 1.0))).cdf
        b = _last_column(1.0, 20_000, m=64, seed=10)
        assert kstest(a, cdf).pvalue > P_FLOOR
        assert kstest(b, cdf).pvalue > P_FLOOR

    def test_autocovariance(self):
        # cov(Z_s, Z_t) = e^(-lam (t-s)) (1 - e^(-2 lam s)) / (2 lam)
        lam, m, n = 1.5, 8, 80_000
        zs = []
        for block in range(n // S.BLOCK):
            zs.append(S.block_paths_1d(lam, m, 77, 0, block))
        z = np.concatenate(zs)
        s, t = 0.5, 1.0
        i_s, i_t = 4, 8
        want = math.exp(-lam * (t - s)) * (-math.expm1(-2.0 * lam * s)) / (2.0 * lam)
        prod = z[:, i_s] * z[:, i_t]
        se = prod.std(ddof=1) / math.sqrt(n)
        assert abs(prod.mean() - want) < 4.0 * se

    def test_matches_scalar_transition_chain(self):
        # one lfilter row must equal the literal state recursion driven
        # by the same normals
        lam, m, seed = 1.7, 64, 31
        row = 3
        z = S.block_paths_1d(lam, m, seed, component=0, block=0)[row]
        w = S.block_normals(seed, 0, 0, m)[row]
        dt = 1.0 / m
        a = math.exp(-lam * dt)
        sig = math.sqrt(-math.expm1(-2.0 * lam * dt) / (2.0 * lam))
        state = 0.0
        manual = [0.0]
        for k in range(m):
            state = a * state + sig * w[k]
            manual.append(state)
        np.testing.assert_array_equal(z, np.asarray(manual))

    def test_row_slice_identity(self):
        # sampling one path must be a row of its block, bitwise
        for path in (0, 5, 255, 256, 700):
            pg = S.sample_path_1d(0.7, 32, S.PathStream(seed=13, path=path))
            block_rows = S.block_paths_1d(0.7, 32, 13, 0, path // S.BLOCK)
            np.testing.assert_array_equal(pg.values, block_rows[path % S.BLOCK])
        # row * m mod 4 takes every value, so the skip-ahead's discarded words are exercised
        for m in (2, 3, 5, 7, 32, 64):
            for component in (0, 3):
                for domain in (S.DOMAIN_PATH, S.DOMAIN_CLOCK):
                    blocks = {}
                    for path in (0, 1, 2, 3, 255, 256, 257, 1000):
                        block = path // S.BLOCK
                        if block not in blocks:
                            blocks[block] = S.block_normals(13, component, block, m, domain)
                        row = S.path_normals(S.PathStream(seed=13, path=path, component=component), m, domain)
                        np.testing.assert_array_equal(row, blocks[block][path % S.BLOCK])

    def test_domains_are_independent_streams(self):
        a = _last_column(1.0, 10_000, seed=3, domain=S.DOMAIN_PATH)
        b = _last_column(1.0, 10_000, seed=3, domain=S.DOMAIN_AUX)
        assert np.corrcoef(a, b)[0, 1] == pytest.approx(0.0, abs=4.0 / math.sqrt(10_000))

    def test_horizon_scaling(self):
        z = S.block_paths_1d(2.0, 16, 1, 0, 0, horizon=0.25)
        v = np.var(z[:, -1])
        assert v == pytest.approx(S.marginal_variance(2.0, 0.25), rel=0.5)


class TestTimechangeSampler:
    def test_deformed_clock(self):
        assert S.deformed_clock(1.0, 0.0) == 0.0
        assert S.deformed_clock(1.0, 1.0) == pytest.approx(math.expm1(2.0), rel=1e-15)
        with pytest.raises(DomainError):
            S.deformed_clock(400.0, 1.0)

    def test_starts_at_zero(self):
        pg = S.sample_path_timechange(1.0, 16, S.PathStream(seed=2, path=0))
        assert pg.values[0] == 0.0
        assert pg.values.shape == (17,)

    def test_cross_validates_recursive_sampler(self):
        # same marginal law at several times, entirely different streams
        lam, m, n = 1.0, 8, 20_000
        tc = np.empty((n, m + 1))
        for i in range(n):
            tc[i] = S.sample_path_timechange(lam, m, S.PathStream(seed=55, path=i)).values
        for idx, t in ((2, 0.25), (4, 0.5), (8, 1.0)):
            cdf = norm(scale=math.sqrt(S.marginal_variance(lam, t))).cdf
            assert kstest(tc[:, idx], cdf).pvalue > P_FLOOR, t

    def test_uses_its_own_domain(self):
        a = S.sample_path_timechange(1.0, 8, S.PathStream(seed=4, path=0)).values
        b = S.sample_path_1d(1.0, 8, S.PathStream(seed=4, path=0)).values
        assert np.any(a[1:] != b[1:])


class TestGridCache:
    SAMPLERS = (S.sample_path_1d, S.sample_path_timechange)

    def test_writes_into_a_path_do_not_reach_later_samples(self):
        for sampler in self.SAMPLERS:
            stream = S.PathStream(seed=21, path=300)
            first = sampler(0.9, 16, stream)
            expected = first.values.copy()
            first.values[:] = np.nan
            with pytest.raises(ValueError):
                first.times[1] = 5.0
            again = sampler(0.9, 16, stream)
            np.testing.assert_array_equal(again.values, expected)
            np.testing.assert_array_equal(again.times, np.linspace(0.0, 1.0, 17))

    def test_bad_grids_raise_after_a_valid_call(self):
        for sampler in self.SAMPLERS:
            stream = S.PathStream(seed=21, path=0)
            sampler(2.0, 8, stream)
            for _ in range(2):
                with pytest.raises(DomainError):
                    sampler(2.0, 1, stream)
                with pytest.raises(DomainError):
                    sampler(2.0, 8, stream, horizon=0.0)
        S.sample_path_timechange(2.0, 8, S.PathStream(seed=21, path=0), horizon=100.0)
        for _ in range(2):
            with pytest.raises(DomainError):
                S.sample_path_timechange(2.0, 8, S.PathStream(seed=21, path=0), horizon=176.0)


class TestMarginalDensity:
    def test_integrates_to_one(self):
        for lam, t in ((0.5, 0.3), (2.0, 1.0)):
            val, err = quad(lambda x: S.marginal_density(lam, t, x), -np.inf, np.inf)
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_symmetry_and_mode(self):
        xs = np.linspace(0.1, 3.0, 7)
        np.testing.assert_allclose(
            S.marginal_density(1.0, 0.7, xs), S.marginal_density(1.0, 0.7, -xs), rtol=1e-15
        )
        assert S.marginal_density(1.0, 0.7, 0.0) > S.marginal_density(1.0, 0.7, 0.5)

    def test_variance_by_quadrature(self):
        lam, t = 1.3, 0.6
        second, _ = quad(lambda x: x * x * S.marginal_density(lam, t, x), -np.inf, np.inf)
        assert second == pytest.approx(S.marginal_variance(lam, t), rel=1e-9)

    def test_long_time_reaches_invariant_variance(self):
        assert S.marginal_variance(2.0, 50.0) == pytest.approx(0.25, rel=1e-12)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(DomainError):
            S.marginal_density(1.0, 0.0, 0.0)


class TestRescalingLaw:
    def test_window_rescaling_preserves_the_law(self):
        # l^(-1/2) Z_{l t} at rate lam has the law of rate l*lam at t
        lam, ell, n = 2.0, 0.25, 20_000
        scaled = _last_column(lam, n, m=8, seed=88, horizon=ell) / math.sqrt(ell)
        cdf = norm(scale=math.sqrt(S.marginal_variance(lam * ell, 1.0))).cdf
        assert kstest(scaled, cdf).pvalue > P_FLOOR


class TestHilbertSampler:
    def test_shapes_and_zero_start(self):
        spec = DriftSpectrum.quadratic(8)
        hp = S.sample_hilbert(spec, truncation=8, m=16, seed=11, path=2)
        assert hp.state_matrix().shape == (17, 8)
        assert hp.norms()[0] == 0.0
        assert hp.truncation == 8
        np.testing.assert_array_equal(hp.times, np.linspace(0.0, 1.0, 17))

    def test_components_are_block_rows(self):
        spec = DriftSpectrum((1.0, 3.0, 9.0))
        hp = S.sample_hilbert(spec, truncation=3, m=8, seed=19, path=300)
        for n_comp, lam in enumerate(spec.eigenvalues):
            block_rows = S.block_paths_1d(lam, 8, 19, n_comp, 300 // S.BLOCK)
            np.testing.assert_array_equal(hp.component_values(n_comp), block_rows[300 % S.BLOCK])

    def test_mean_square_norm(self):
        # E |Z_1|^2 = sum_n (1 - e^(-2 lam_n)) / (2 lam_n)
        spec = DriftSpectrum.quadratic(16)
        lam = spec.array
        want = float(np.sum(-np.expm1(-2.0 * lam) / (2.0 * lam)))
        n = 10_000
        total = np.zeros(n)
        for comp, rate in enumerate(lam):
            total += _hilbert_component_last(rate, comp, n, seed=101) ** 2
        se = total.std(ddof=1) / math.sqrt(n)
        assert abs(total.mean() - want) < 4.0 * se

    def test_cross_component_independence(self):
        n = 10_000
        a = _hilbert_component_last(1.0, 0, n, seed=61)
        b = _hilbert_component_last(4.0, 1, n, seed=61)
        assert abs(np.corrcoef(a, b)[0, 1]) < 4.0 / math.sqrt(n)

    def test_rejects_zero_truncation(self):
        with pytest.raises(DomainError):
            S.sample_hilbert(DriftSpectrum((1.0,)), truncation=0, m=4, seed=0)

    def test_tail_mass_bound(self):
        spec = DriftSpectrum.quadratic(16)
        assert S.tail_mass_bound(spec, 16) == pytest.approx(0.5 / 16)
        cut = S.tail_mass_bound(spec, 8)
        dropped = sum(0.5 / (k * k) for k in range(9, 17))
        assert cut == pytest.approx(0.5 / 16 + dropped, rel=1e-14)

    def test_suggest_truncation_scales(self):
        coarse = S.suggest_truncation("n^2", rel_tol=1e-3)
        fine = S.suggest_truncation("n^2", rel_tol=1e-6)
        assert fine > coarse >= 1
        with pytest.raises(DomainError):
            S.suggest_truncation("unknown-family")


def _hilbert_component_last(lam, component, n_paths, seed):
    cols = []
    for block in range(-(-n_paths // S.BLOCK)):
        z = S.block_paths_1d(lam, 8, seed, component, block)
        cols.append(z[:, -1])
    return np.concatenate(cols)[:n_paths]


class TestShiftedProcess:
    def test_start_value_exact(self):
        spec = DriftSpectrum((1.0, 2.0))
        hp = S.sample_hilbert(spec, truncation=2, m=8, seed=1, path=0)
        moved = S.shifted_process(hp, np.array([0.5, -1.0]))
        np.testing.assert_array_equal(moved.state_matrix()[0], [0.5, -1.0])

    def test_decay_profile(self):
        spec = DriftSpectrum((1.0, 2.0))
        hp = S.sample_hilbert(spec, truncation=2, m=8, seed=1, path=0)
        x = np.array([1.0, 1.0])
        moved = S.shifted_process(hp, x)
        t = hp.times
        for comp, lam in enumerate(spec.eigenvalues):
            want = hp.component_values(comp) + np.exp(-lam * t)
            np.testing.assert_allclose(moved.component_values(comp), want, rtol=0, atol=0)

    def test_zero_shift_is_identity(self):
        spec = DriftSpectrum((1.0,))
        hp = S.sample_hilbert(spec, truncation=1, m=8, seed=1, path=0)
        same = S.shifted_process(hp, np.zeros(1))
        np.testing.assert_array_equal(same.state_matrix(), hp.state_matrix())

    def test_rejects_bad_shape(self):
        spec = DriftSpectrum((1.0, 2.0))
        hp = S.sample_hilbert(spec, truncation=2, m=8, seed=1, path=0)
        with pytest.raises(DomainError):
            S.shifted_process(hp, np.zeros(3))
        with pytest.raises(DomainError):
            S.shifted_process(hp, np.array([np.nan, 0.0]))
