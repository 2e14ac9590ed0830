"""Time reversal: singular drift, endpoint sums, covariation split."""

import dataclasses
import math
import threading

import numpy as np
import pytest
from scipy.integrate import quad

import oulab.reversal as R
from oulab.errors import DomainError
from oulab.fnlib import make_b_weighted, raw_profile_b
from oulab import ousim
from oulab.ousim import PathStream, block_paths_1d, sample_path_1d

# c(1, 0) = 1 - 2/(1 - e^(-2)), 50-digit evaluation
C_AT_ORIGIN = -1.3130352854993313


def _path(lam=1.0, m=512, seed=3, path=0):
    return sample_path_1d(lam, m, PathStream(seed=seed, path=path))


def _identity_b():
    return raw_profile_b(
        profile=lambda t, xi: np.asarray(xi, dtype=np.float64),
        profile_dx=lambda t, xi: np.ones_like(np.asarray(xi, dtype=np.float64)),
        vector=[1.0],
        name="identity",
    )


class TestReversedDrift:
    def test_frozen_origin_value(self):
        assert R.reversed_drift_coefficient(1.0, 0.0) == pytest.approx(C_AT_ORIGIN, rel=1e-14)

    def test_closed_form(self):
        for lam, t in ((0.5, 0.0), (1.0, 0.5), (3.0, 0.9)):
            want = lam - 2.0 * lam / (1.0 - math.exp(2.0 * lam * (t - 1.0)))
            assert R.reversed_drift_coefficient(lam, t) == pytest.approx(want, rel=1e-12)

    def test_pinning_divergence(self):
        # 2/(1 - e^(-2 delta)) = 1/delta + 1 + O(delta), so
        # c(1, 1 - delta) = -1/delta + O(delta)
        prev = 0.0
        for k in range(2, 8):
            delta = 10.0**-k
            val = R.reversed_drift_coefficient(1.0, 1.0 - delta)
            assert val == pytest.approx(-1.0 / delta, rel=1e-2)
            assert val < prev
            prev = val

    def test_refuses_the_singularity(self):
        for t in (1.0, 1.0 - 1e-10, 2.0):
            with pytest.raises(DomainError):
                R.reversed_drift_coefficient(1.0, t)
        with pytest.raises(DomainError):
            R.reversed_drift_coefficient(1.0, -0.1)
        with pytest.raises(DomainError):
            R.reversed_drift_coefficient(0.0, 0.5)

    def test_vectorized_times(self):
        ts = np.array([0.0, 0.3, 0.6])
        vec = R.reversed_drift_coefficient(1.0, ts)
        for i, t in enumerate(ts):
            assert vec[i] == R.reversed_drift_coefficient(1.0, float(t))


class TestEndpointSums:
    def test_constant_profile_telescopes(self):
        # b = c: forward = backward = c (Z_1 - Z_0) = c Z_1
        pg = _path()
        b = make_b_weighted([1.0], profile="one")
        want = pg.values[-1] * b.vector
        np.testing.assert_allclose(R.forward_integral(b, pg), want, rtol=1e-12)
        np.testing.assert_allclose(R.backward_integral(b, pg), want, rtol=1e-12)
        np.testing.assert_allclose(R.discrete_covariation(b, pg), 0.0, atol=1e-15)

    def test_zero_profile(self):
        pg = _path()
        b = make_b_weighted([1.0], profile="zero")
        assert np.all(R.forward_integral(b, pg) == 0.0)
        assert np.all(R.backward_integral(b, pg) == 0.0)

    def test_ito_identity_for_identity_profile(self):
        # sum Z_k dZ_k = (Z_1^2 - sum dZ^2) / 2, an algebraic identity
        pg = _path(m=1024)
        b = _identity_b()
        fwd = R.forward_integral(b, pg)[0]
        qv = float(np.sum(np.diff(pg.values) ** 2))
        want = (pg.values[-1] ** 2 - qv) / 2.0
        assert fwd == pytest.approx(want, abs=1e-12)

    def test_backward_minus_forward_is_covariation(self):
        pg = _path(m=256)
        b = make_b_weighted([1.0], profile="sin")
        gap = R.backward_integral(b, pg) - R.forward_integral(b, pg)
        np.testing.assert_allclose(gap, R.discrete_covariation(b, pg), atol=1e-13)

    def test_identity_covariation_is_quadratic_variation(self):
        pg = _path(m=128)
        b = _identity_b()
        dz = np.diff(pg.values)
        want = float(np.sum(dz * dz))
        assert R.discrete_covariation(b, pg)[0] == want

    def test_rejects_non_paths(self):
        with pytest.raises(DomainError):
            R.forward_integral(make_b_weighted([1.0]), "not a path")


class TestQuadraticVariation:
    def test_expected_value_exact_formula(self):
        # E sum(dZ^2) = sum var(Z_{k+1}) + var(Z_k) - 2 e^(-lam dt) var(Z_k)
        lam, m, n = 1.0, 64, 4096
        from oulab.ousim import BLOCK, block_paths_1d, marginal_variance

        qv = []
        for block in range(n // BLOCK):
            z = block_paths_1d(lam, m, 17, 0, block)
            qv.append(np.sum(np.diff(z, axis=-1) ** 2, axis=-1))
        qv = np.concatenate(qv)
        t = np.linspace(0.0, 1.0, m + 1)
        v = np.concatenate(([0.0], marginal_variance(lam, t[1:])))
        decay = math.exp(-lam / m)
        want = float(np.sum(v[1:] + v[:-1] - 2.0 * decay * v[:-1]))
        se = qv.std(ddof=1) / math.sqrt(n)
        assert abs(qv.mean() - want) < 4.0 * se

    def test_bias_halves_per_doubling(self):
        # deterministic: |E QV - 1| is asymptotically c / M
        from oulab.ousim import marginal_variance

        lam = 1.0
        bias = []
        for m in (256, 512, 1024):
            t = np.linspace(0.0, 1.0, m + 1)
            v = np.concatenate(([0.0], marginal_variance(lam, t[1:])))
            decay = math.exp(-lam / m)
            total = float(np.sum(v[1:] + v[:-1] - 2.0 * decay * v[:-1]))
            bias.append(abs(total - 1.0))
        assert bias[0] / bias[1] == pytest.approx(2.0, rel=0.02)
        assert bias[1] / bias[2] == pytest.approx(2.0, rel=0.02)


class TestHeadMass:
    def test_matches_envelope_integral(self):
        # the closed form integrates |c(lam, 1-u)| sqrt((e^(2 lam u)-1)/(2 lam))
        for lam, t1 in ((1.0, 1.0 / 256), (0.25, 1.0 / 1024), (2.0, 0.5)):
            def envelope(u):
                big = math.exp(2.0 * lam * u)
                c = lam * (big + 1.0) / (big - 1.0)
                return c * math.sqrt((big - 1.0) / (2.0 * lam))

            val, err = quad(envelope, 0.0, t1, points=[0.0], limit=200)
            assert R._i2_head_mass(lam, t1) == pytest.approx(val, rel=1e-8), (lam, t1)

    def test_dominates_true_mean_mass(self):
        # the envelope drops the e^(-lam u) damping, so it upper-bounds
        # the integral against the actual standard deviation
        for lam, t1 in ((1.0, 1.0 / 256), (4.0, 0.01), (1.0, 0.2)):
            def true_mass(u):
                one = -math.expm1(-2.0 * lam * u)
                c = 2.0 * lam / one - lam
                return c * math.sqrt(one / (2.0 * lam))

            val, _ = quad(true_mass, 0.0, t1, points=[0.0], limit=200)
            assert R._i2_head_mass(lam, t1) >= val

    def test_vanishes_with_the_head(self):
        masses = [R._i2_head_mass(1.0, 1.0 / m) for m in (16, 64, 256, 1024)]
        assert all(a > b for a, b in zip(masses, masses[1:]))
        assert masses[-1] < 0.07


class TestDecomposition:
    def test_single_path_report(self):
        b = make_b_weighted([1.0])
        rep = R.decompose_path(b, _path(m=2048))
        assert rep.m == 2048 and rep.n_paths == 1
        assert rep.residual < 0.05
        assert rep.cov_residual < 0.05
        assert rep.residual == pytest.approx(abs(rep.lhs + rep.i1 + rep.i2 + rep.i3), rel=0)
        assert rep.cov_residual == pytest.approx(abs(rep.covariation - rep.lhs), rel=0)

    def test_requires_smooth_b(self):
        b = make_b_weighted([1.0], profile="sign")
        with pytest.raises(DomainError):
            R.decompose_path(b, _path(m=64))
        with pytest.raises(DomainError):
            R.covariation_check(b, 1.0, [64, 128], n_paths=256, seed=0)

    def test_requires_unit_horizon(self):
        b = make_b_weighted([1.0])
        short = sample_path_1d(1.0, 64, PathStream(seed=1, path=0), horizon=0.5)
        with pytest.raises(DomainError):
            R.decompose_path(b, short)

    def test_refinement_trend(self):
        b = make_b_weighted([1.0])
        reports = R.covariation_check(b, 1.0, [64, 256, 1024], n_paths=2048, seed=5)
        assert [r.m for r in reports] == [64, 256, 1024]
        assert R.trend_decreasing([r.cov_residual for r in reports], allowed_violations=0)
        assert R.trend_decreasing([r.residual for r in reports], allowed_violations=1)
        for r in reports:
            assert r.n_paths == 2048

    def test_m_list_must_increase(self):
        b = make_b_weighted([1.0])
        with pytest.raises(DomainError):
            R.covariation_check(b, 1.0, [256, 256], n_paths=256, seed=0)
        with pytest.raises(DomainError):
            R.covariation_check(b, 1.0, [256, 64], n_paths=256, seed=0)
        with pytest.raises(DomainError):
            R.covariation_check(b, 1.0, [], n_paths=256, seed=0)

    def test_m_list_must_be_integers(self):
        b = make_b_weighted([1.0])
        with pytest.raises(DomainError, match="integer"):
            R.covariation_check(b, 1.0, [64.9, 128], n_paths=256, seed=0)
        want = R.covariation_check(b, 1.0, [8, 16], n_paths=16, seed=0)
        assert R.covariation_check(b, 1.0, np.array([8, 16]), n_paths=16, seed=0) == want

    def test_workers_do_not_change_results(self):
        b = make_b_weighted([1.0])
        serial = R.covariation_check(b, 1.0, [64, 128], n_paths=600, seed=9, workers=1)
        pooled = R.covariation_check(b, 1.0, [64, 128], n_paths=600, seed=9, workers=3)
        for a, c in zip(serial, pooled):
            assert a == c


def _reference_split(b, times, values, weights):
    """The split as np.diff/np.trapezoid/np.stack on fresh arrays: the
    formulation the in-place _split_arrays must reproduce bitwise."""
    m = times.size - 1
    dt = 1.0 / m
    w, c_rev = weights
    phi = np.asarray(b.profile(times, values), dtype=np.float64)
    dphi = np.asarray(b.profile_dx(times, values), dtype=np.float64)
    dz = np.diff(values, axis=-1)
    lhs = np.trapezoid(dphi, dx=dt, axis=-1)
    cov = np.sum(np.diff(phi, axis=-1) * dz, axis=-1)
    i3 = np.sum(phi[..., :-1] * dz, axis=-1)
    i2 = np.trapezoid(phi[..., 1:] * values[..., 1:] * w, dx=dt, axis=-1)
    zbar = values[..., ::-1]
    dwbar = np.diff(zbar, axis=-1) - c_rev * zbar[..., :-1] * dt
    i1 = np.sum(phi[..., ::-1][..., :-1] * dwbar, axis=-1)
    return np.stack([lhs, cov, i1, i2, i3], axis=-1)


# every smooth registry profile, and one that returns its input itself
_SPLIT_PROFILES = [
    *(make_b_weighted([2.0], profile=p, omega=w) for p in ("sin", "cos", "tanh") for w in (1.0, 1.7)),
    *(make_b_weighted([2.0], profile=p) for p in ("one", "zero", "time_sin")),
    _identity_b(),
]


class TestChunkedBlock:
    @pytest.mark.parametrize("m", [4096, 1000, 33, 8, 2])
    def test_matches_the_whole_block_split(self, m):
        # a block spans several row chunks at the larger M, and all chunks
        # share one scratch; the reference split of the whole block, cut
        # to count rows, must come out bitwise
        times = np.linspace(0.0, 1.0, m + 1)
        whole = block_paths_1d(2.0, m, 47, 0, 0)
        weights = R._split_weights(2.0, times)
        for b in _SPLIT_PROFILES:
            for count in (1, 31, 32, 33, 100, 256):
                want = _reference_split(b, times, whole[:count], weights)
                got = R._covariation_levels(count, 47, 2.0, [m], b, lanes=2)[:, 0]
                assert got.shape == (count, 5)
                np.testing.assert_array_equal(got, want, err_msg=f"{b.name} count={count}")

    @pytest.mark.parametrize("m", [2, 33, 2048])
    def test_decompose_path_matches_the_reference_split(self, m):
        pg = _path(lam=2.0, m=m)
        weights = R._split_weights(2.0, pg.times)
        for b in _SPLIT_PROFILES:
            want = R._report(b, 2.0, pg.times, _reference_split(b, pg.times, pg.values[np.newaxis, :], weights))
            assert R.decompose_path(b, pg) == want, b.name


class TestSharedDraw:
    """A lane draws each row chunk once, at the finest M, and every level
    reads a prefix of it; each level must equal its own per-level
    block_paths_1d split."""

    M_LIST = [33, 1000, 4096]

    def test_levels_match_the_per_level_split(self):
        wholes = [block_paths_1d(2.0, m, 61, 0, 0) for m in self.M_LIST]
        grids = [np.linspace(0.0, 1.0, m + 1) for m in self.M_LIST]
        weights = [R._split_weights(2.0, times) for times in grids]
        for b in (make_b_weighted([2.0], profile="sin", omega=1.7), _identity_b()):
            for count in (1, 15, 16, 17, 100, 256):
                got = R._covariation_levels(count, 61, 2.0, self.M_LIST, b, lanes=2)
                assert got.shape == (count, len(self.M_LIST), 5)
                for k, m in enumerate(self.M_LIST):
                    want = _reference_split(b, grids[k], wholes[k][:count], weights[k])
                    np.testing.assert_array_equal(got[:, k], want, err_msg=f"{b.name} count={count} m={m}")

    @pytest.mark.parametrize("m_list", [[33, 1000, 4097], [256, 1024, 4096]])
    def test_one_lane_is_two(self, m_list):
        # M = 33, 1000 and 4097 leave a partial scan chunk; the coarser levels read prefixes of a lane's normals
        b = make_b_weighted([2.0], profile="sin", omega=1.7)
        for count in (1, 15, 16, 17, 100, 256):
            runs = [R._covariation_levels(count, 61, 2.0, m_list, b, lanes=lanes) for lanes in (1, 2, 3)]
            for lanes, run in zip((2, 3), runs[1:]):
                np.testing.assert_array_equal(runs[0], run, err_msg=f"count={count} lanes={lanes}")

    def test_profiles_are_evaluated_into_each_lanes_work_arrays(self):
        # phi and phi' of every level and row group go into arrays a lane allocates once, never into new ones;
        # the arrays hold half a 16-row chunk at M = 4096, so that level splits each full chunk in two groups of 8
        b = make_b_weighted([2.0], profile="sin", omega=1.7)
        outs = []

        def recorded(real):
            def profile(t, xi, out=None):
                outs.append(out)
                return real(t, xi, out)

            return profile

        def root(array):
            while array.base is not None:
                array = array.base
            return array

        traced = dataclasses.replace(b, profile=recorded(b.profile), profile_dx=recorded(b.profile_dx))
        got = R._covariation_levels(3 * 256 + 17, 61, 2.0, self.M_LIST, traced, lanes=2)
        np.testing.assert_array_equal(got, R._covariation_levels(3 * 256 + 17, 61, 2.0, self.M_LIST, b, lanes=2))
        group = {m: 8 * 4097 // (m + 1) for m in self.M_LIST}
        assert len(outs) == 2 * sum(-(-(stop - start) // group[m]) for _, start, stop, _ in
                                    ousim.task_chunks(3 * 256 + 17, self.M_LIST[-1]) for m in self.M_LIST)
        assert all(out is not None for out in outs)
        assert len({id(root(out)) for out in outs}) == 2  # one set of work arrays per lane

    def test_no_thread_outlives_a_block_task(self):
        b = make_b_weighted([2.0], profile="sin")
        calls = []

        def profile_dx(*args):
            calls.append(None)
            if len(calls) == 5:  # the second level of the second chunk
                raise FloatingPointError("profile failed mid-block")
            return b.profile_dx(*args)

        before = threading.active_count()
        R._covariation_levels(256, 3, 2.0, self.M_LIST, b, lanes=2)
        assert threading.active_count() == before
        with pytest.raises(FloatingPointError):
            R._covariation_levels(256, 3, 2.0, self.M_LIST, dataclasses.replace(b, profile_dx=profile_dx), lanes=2)
        assert threading.active_count() == before


class TestDecompositionVerdict:
    def test_exact_zero_residuals_pass(self):
        assert R.decomposition_verdict([0.0, 0.0, 0.0])
        assert R.decomposition_verdict([0.0, 0.0])

    def test_otherwise_the_trend_decides_with_one_violation_forgiven(self):
        assert R.decomposition_verdict([3.0, 3.5, 1.0])
        assert not R.decomposition_verdict([3.0, 3.5, 4.0, 1.0])
        assert not R.decomposition_verdict([1.0, 2.0])
        assert not R.decomposition_verdict([0.0, 1e-300])
        with pytest.raises(DomainError, match="at least two values"):
            R.decomposition_verdict([1.0])


class TestTrendHelper:
    def test_counts_violations(self):
        assert R.trend_decreasing([3.0, 2.0, 1.0], allowed_violations=0)
        assert R.trend_decreasing([3.0, 3.5, 1.0], allowed_violations=1)
        assert not R.trend_decreasing([3.0, 3.5, 1.0], allowed_violations=0)
        assert not R.trend_decreasing([1.0, 2.0, 3.0], allowed_violations=1)

    def test_two_values_must_decrease(self):
        # at most len - 2 violations are forgiven, so a pair cannot pass by tolerance
        assert not R.trend_decreasing([1.0, 2.0], allowed_violations=1)
        assert not R.trend_decreasing([1.0, 1.0], allowed_violations=5)
        assert R.trend_decreasing([2.0, 1.0], allowed_violations=1)
        assert R.trend_decreasing([3.0, 3.5, 1.0], allowed_violations=3)
        assert not R.trend_decreasing([1.0, 2.0, 3.0], allowed_violations=3)

    def test_needs_two_values(self):
        for values in ([], [1.0]):
            with pytest.raises(DomainError, match="at least two values"):
                R.trend_decreasing(values)
