"""Certified drift functions and shifts: norms, derivatives, registries."""

import math

import numpy as np
import pytest

import oulab.fnlib as F
from oulab.constants import DriftSpectrum
from oulab.errors import DomainError
from oulab.functionals import ExperimentSpec, moment_bound


class TestWeightedScales:
    def test_cap_engages_below_threshold(self):
        # e^(-lam)/sqrt(lam) crosses 1 near lam = 0.4263; below that the
        # cap at 1 is what keeps the sup certificate valid
        lam = np.array([0.1, 0.4263, 0.43, 1.0, 4.0])
        s = F.weighted_scales(lam)
        assert s[0] == 1.0
        assert s[1] == 1.0
        assert s[2] < 1.0
        assert s[3] == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert np.all(s <= 1.0)

    def test_weighted_norm_stays_capped(self):
        # lam e^(2 lam) s_n^2 <= 1 for every rate, either branch of the cap
        lam = np.exp(np.random.default_rng(0).uniform(math.log(1e-3), math.log(300.0), 5000))
        s = F.weighted_scales(lam)
        assert np.all(lam * np.exp(2.0 * np.minimum(lam, 300)) * s * s <= 1.0 + 1e-12)


class TestMakeBWeighted:
    def test_single_rate_exact_norms(self):
        b = F.make_b_weighted([1.0])
        assert b.norm_inf == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert b.norm_inf_A == pytest.approx(1.0, rel=1e-12)
        assert b.direction == 0

    def test_uniform_coefficients_default(self):
        b = F.make_b_weighted([1.0, 4.0, 9.0])
        s = F.weighted_scales(np.array([1.0, 4.0, 9.0]))
        np.testing.assert_allclose(b.vector, s / math.sqrt(3.0), rtol=1e-15)

    def test_norm_certificates_hold_on_random_audit(self):
        rng = np.random.default_rng(42)
        lam = np.array([0.25, 1.0, 4.0, 16.0])
        for profile in ("sin", "cos", "tanh", "sign"):
            b = F.make_b_weighted(lam, profile=profile)
            t = rng.uniform(0.0, 1.0, 10_000)
            x = rng.normal(0.0, 3.0, (10_000, 4))
            values = b.evaluate(t, x)
            sup = float(np.max(np.linalg.norm(values, axis=-1)))
            assert sup <= b.norm_inf + 1e-12, profile
            # weighted norm: sup of sqrt(sum lam e^(2 lam) b_n^2)
            w = lam * np.exp(2.0 * lam)
            wsup = float(np.max(np.sqrt(np.sum(w * values**2, axis=-1))))
            assert wsup <= b.norm_inf_A + 1e-12, profile

    def test_derivative_matches_central_differences(self):
        rng = np.random.default_rng(7)
        for profile in ("sin", "cos", "tanh"):
            b = F.make_b_weighted([1.0, 2.0], profile=profile, omega=1.7)
            xi = rng.normal(0.0, 2.0, 1000)
            x = np.stack([xi, np.zeros_like(xi)], axis=-1)
            got = b.derivative(0.3, x)[:, 0]
            eps = 1e-6
            up = b.evaluate(0.3, x + [eps, 0.0])[:, 0]
            down = b.evaluate(0.3, x - [eps, 0.0])[:, 0]
            np.testing.assert_allclose(got, (up - down) / (2.0 * eps), atol=1e-8)

    def test_omega_scales_derivative_sup(self):
        b = F.make_b_weighted([1.0], profile="sin", omega=3.0)
        assert b.profile_dx_sup == 3.0
        assert "omega=3" in b.name

    def test_sign_profile_is_not_smooth(self):
        b = F.make_b_weighted([1.0], profile="sign")
        assert not b.smooth
        with pytest.raises(DomainError):
            b.derivative(0.0, np.zeros(1))

    def test_zero_profile_norms(self):
        b = F.make_b_weighted([1.0, 2.0], profile="zero")
        assert b.norm_inf == 0.0
        assert b.norm_inf_A == 0.0

    def test_time_profile_ignores_state(self):
        b = F.make_b_weighted([1.0], profile="time_sin")
        t = np.array([0.0, 0.5, 1.0])
        vals = b.evaluate(t, np.array([[5.0], [-3.0], [0.1]]))[:, 0]
        want = np.sin(math.pi * t) * b.vector[0]
        np.testing.assert_allclose(vals, want, atol=1e-15)

    def test_rejects_overweight_coefficients(self):
        with pytest.raises(DomainError):
            F.make_b_weighted([1.0, 2.0], coefficients=[1.0, 0.5])
        with pytest.raises(DomainError):
            F.make_b_weighted([1.0], coefficients=[1.0, 0.0])
        with pytest.raises(DomainError):
            F.make_b_weighted([1.0], profile="unknown")
        with pytest.raises(DomainError):
            F.make_b_weighted([-1.0])

    @pytest.mark.parametrize("direction", [0.5, True, -1, 2])
    def test_directions_are_integers_in_range(self, direction):
        with pytest.raises(DomainError, match="direction"):
            F.make_b_weighted([1.0, 4.0], direction=direction)

    def test_scalar_state_reads_directly(self):
        b = F.make_b_weighted([1.0])
        one = b.evaluate(0.0, 0.7)
        arr = b.evaluate(0.0, np.array([0.7]))
        np.testing.assert_array_equal(one, arr)


def _one_line_profiles(omega):
    """The profiles as one expression each on fresh arrays; the registry
    finishes them in place and must give the same bits."""
    def arr(xi):
        return np.asarray(xi, dtype=np.float64)

    def dtanh(xi):
        y = np.tanh(omega * arr(xi))
        return omega * (1.0 - y * y)

    return {
        "sin": (lambda xi: np.sin(omega * arr(xi)), lambda xi: omega * np.cos(omega * arr(xi))),
        "cos": (lambda xi: np.cos(omega * arr(xi)), lambda xi: -omega * np.sin(omega * arr(xi))),
        "tanh": (lambda xi: np.tanh(omega * arr(xi)), dtanh),
    }


class TestProfilesInPlace:
    STATES = [
        0.7,
        np.float64(-1.3),
        np.asarray(2.1),
        np.linspace(-4.0, 4.0, 101),
        np.random.default_rng(5).standard_normal((7, 33)) * 3.0,
    ]

    @pytest.mark.parametrize("omega", [1.0, 1.7])
    @pytest.mark.parametrize("profile", ["sin", "cos", "tanh"])
    def test_match_the_one_line_formulas_bitwise(self, profile, omega):
        b = F.make_b_weighted([1.0], profile=profile, omega=omega)
        for got_fn, want_fn in zip((b.profile, b.profile_dx), _one_line_profiles(omega)[profile]):
            for xi in self.STATES:
                before = np.array(xi, copy=True)
                got, want = got_fn(0.5, xi), want_fn(xi)
                assert type(got) is type(want)
                assert np.shape(got) == np.shape(xi)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
                np.testing.assert_array_equal(xi, before)  # the input is never written
        assert isinstance(b.profile(0.5, 0.7), np.float64)
        assert isinstance(b.profile_dx(0.5, 0.7), np.float64)

    def test_time_profile_matches_its_formula(self):
        b = F.make_b_weighted([1.0], profile="time_sin")
        t = np.linspace(0.0, 1.0, 33)
        xi = np.zeros((4, 33))
        assert b.profile(t, xi).tobytes() == np.sin(math.pi * np.broadcast_to(t, xi.shape)).tobytes()
        assert isinstance(b.profile(0.25, 0.7), np.float64)
        assert b.profile(0.25, 0.7) == np.sin(math.pi * 0.25)

    @pytest.mark.parametrize("name", ["sin", "cos", "tanh", "sin:omega=1.7", "tanh:omega=2.5", "one", "zero",
                                      "time_sin", "sign", "raw", "window", "raw-window"])
    def test_out_receives_the_result_bitwise(self, name):
        # a block kernel's lane evaluates the profiles into its work arrays: out, or the state itself
        if name in ("raw", "raw-window"):
            b = F.raw_profile_b(lambda t, xi: np.sin(xi) * t, lambda t, xi: np.cos(xi) * t, [1.0])
        else:
            base, _, omega = name.replace("window", "sin").partition(":omega=")
            b = F.make_b_weighted([1.0], profile=base, omega=float(omega or 1.0))
        if "window" in name:
            b = F.window_rescaled_b(b, 0.25, 0.75)
        t = np.linspace(0.0, 1.0, 33)
        xi = np.random.default_rng(7).standard_normal((7, 33)) * 3.0
        for fn in (b.profile, b.profile_dx) if b.smooth else (b.profile,):
            want = np.asarray(fn(t, xi), dtype=np.float64)
            out = np.full_like(xi, np.nan)
            assert fn(t, xi, out) is out and out.tobytes() == want.tobytes()
            state = xi.copy()
            assert fn(t, state, out=state) is state and state.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", [*sorted(F._PROFILES), "raw"])
    def test_every_profile_takes_its_state_as_out(self, name):
        # _prop21_block evaluates b' in place on a chunk's paths: every registry profile, and a caller's
        # through raw_profile_b, must give the bits of a call on a copy
        if name == "raw":
            descriptors = [F.raw_profile_b(lambda t, xi: np.tanh(xi) * t, lambda t, xi: xi, [1.0])]
        else:
            omegas = (1.0, 1.7) if F._PROFILES[name][4] else (1.0,)
            descriptors = [F.make_b_weighted([1.0], profile=name, omega=omega) for omega in omegas]
        t = np.linspace(0.0, 1.0, 33)
        xi = np.random.default_rng(11).standard_normal((7, 33)) * 3.0
        for b in descriptors:
            for fn in (b.profile, b.profile_dx) if b.smooth else (b.profile,):
                want = fn(t, xi.copy())
                state = xi.copy()
                assert fn(t, state, state) is state and state.tobytes() == want.tobytes(), (b.name, fn)


EPS = np.finfo(np.float64).eps


class TestPairProfiles:
    """pair(t, h1, h2)(xi) = phi(t, xi + h1) - phi(t, xi + h2), by
    identity for sin, cos and tanh and by two evaluations otherwise."""

    T = np.linspace(0.0, 1.0, 65)
    XI = np.random.default_rng(11).standard_normal((6, 65)) * 1.5
    UNIT = np.random.default_rng(12).uniform(-1.0, 1.0, (2, 65))

    def _shifts(self, scale):
        return scale * self.UNIT[0], scale * self.UNIT[1]

    @pytest.mark.parametrize("omega", [1.0, 2.5, 137.0])
    @pytest.mark.parametrize("profile", ["sin", "cos", "tanh"])
    @pytest.mark.parametrize("scale", [1e-20, 1e-12, 1e-6, 1e-3, 1.0])
    def test_identity_matches_the_naive_difference(self, profile, omega, scale):
        b = F.make_b_weighted([1.0], profile=profile, omega=omega)
        h1, h2 = self._shifts(scale)
        got = b.pair(self.T, h1, h2)(self.XI)
        naive = b.profile(self.T, self.XI + h1) - b.profile(self.T, self.XI + h2)
        # each side rounds omega (xi + h) to about omega |xi + h| eps, and phi to eps
        tol = 8.0 * EPS * (1.0 + omega * (np.abs(self.XI) + np.abs(h1) + np.abs(h2)))
        assert got.shape == self.XI.shape
        assert np.all(np.abs(got - naive) <= tol)

    @pytest.mark.parametrize("omega", [1.0, 2.5, 137.0])
    @pytest.mark.parametrize("profile", ["sin", "cos", "tanh"])
    @pytest.mark.parametrize("scale", [1e-20, 1e-14, 1e-10])
    def test_tiny_shift_is_the_first_order_value(self, profile, omega, scale):
        b = F.make_b_weighted([1.0], profile=profile, omega=omega)
        h1, h2 = self._shifts(scale)
        d = h1 - h2
        got = b.pair(self.T, h1, h2)(self.XI)
        first = b.profile_dx(self.T, self.XI) * d
        # second-order terms omega^2 |h| |d| and the rounding of omega xi, per unit of omega |d|
        tol = omega * np.abs(d) * (2.0 * omega * (np.abs(h1) + np.abs(h2)) + (omega * d) ** 2
                                   + 16.0 * EPS * (1.0 + omega * np.abs(self.XI)))
        assert np.all(np.abs(got - first) <= tol)
        if scale == 1e-20:  # the naive difference cancels to exactly 0 there
            naive = b.profile(self.T, self.XI + h1) - b.profile(self.T, self.XI + h2)
            assert np.count_nonzero(naive) < naive.size / 2
            steep = np.abs(first) > 1e-6 * omega * np.abs(d)  # tanh' underflows far out at omega = 137
            assert np.any(steep) and np.all(got[steep] != 0.0)

    def test_scalar_state_gives_a_scalar(self):
        for profile in ("sin", "cos", "tanh", "sign"):
            b = F.make_b_weighted([1.0], profile=profile, omega=1.0)
            got = b.pair(0.5, 0.2, -0.1)(0.7)
            assert isinstance(got, np.float64)
            assert got == pytest.approx(b.profile(0.5, 0.9) - b.profile(0.5, 0.6), abs=4 * EPS)

    def test_other_profiles_are_the_two_evaluation_difference(self):
        h1, h2 = self._shifts(0.3)
        base = F.make_b_weighted([1.0], profile="sin", omega=2.0)
        descriptors = [F.make_b_weighted([1.0], profile=p) for p in ("sign", "one", "zero", "time_sin")]
        descriptors += [F.resolve_b("const:0.5", [1.0]),
                        F.raw_profile_b(lambda t, xi: xi * xi, None, [1.0]),
                        F.window_rescaled_b(base, 0.25, 0.75)]
        for b in descriptors:
            want = b.profile(self.T, self.XI + h1) - b.profile(self.T, self.XI + h2)
            assert b.pair(self.T, h1, h2)(self.XI).tobytes() == want.tobytes(), b.name

    def test_input_is_never_written_and_pickles(self):
        import pickle

        h1, h2 = self._shifts(0.5)
        for profile in ("sin", "cos", "tanh", "sign"):
            b = F.make_b_weighted([1.0, 4.0], profile=profile, omega=1.5)
            xi, before = self.XI.copy(), (self.XI.copy(), h1.copy(), h2.copy())
            got = b.pair(self.T, h1, h2)(xi)
            for arr, copy in zip((xi, h1, h2), before):
                np.testing.assert_array_equal(arr, copy)
            again = pickle.loads(pickle.dumps(b)).pair(self.T, h1, h2)(xi)
            assert got.tobytes() == again.tobytes()

    @pytest.mark.parametrize("omega", [1.0, 2.5])
    @pytest.mark.parametrize("scale", [1e-20, 1e-6, 1.0])
    def test_prepared_pair_is_the_formula_bitwise(self, omega, scale):
        # the formulas as one call computed them before the pair was prepared, shift factors and all
        h1, h2 = self._shifts(scale)
        h1 = h1 + 1e-20 * (np.arange(h1.size) % 2)  # shifts of 1e-20 beside larger ones
        w = omega
        formulas = {
            "sin": lambda xi: np.cos(w * (xi + (h1 + h2) / 2.0)) * (2.0 * np.sin(w * (h1 - h2) / 2.0)),
            "cos": lambda xi: np.sin(w * (xi + (h1 + h2) / 2.0)) * (-2.0 * np.sin(w * (h1 - h2) / 2.0)),
            "tanh": lambda xi: (1.0 - np.tanh(w * (xi + h1)) * np.tanh(w * (xi + h2))) * np.tanh(w * (h1 - h2)),
            "sign": lambda xi: np.sign(xi + h1) - np.sign(xi + h2),
        }
        for profile, formula in formulas.items():
            b = F.make_b_weighted([1.0], profile=profile, omega=omega)
            pair = b.pair(self.T, h1, h2)
            want = formula(self.XI)
            assert pair(self.XI).tobytes() == want.tobytes(), profile
            for row in self.XI:  # one prepared pair serves every chunk, and writes in place through out
                out = row.copy()
                assert pair(out, out=out) is out and out.tobytes() == formula(row).tobytes(), profile

    @pytest.mark.parametrize("profile", ["sin", "cos", "tanh"])
    def test_omega_one_skips_the_identity_multiply_bitwise(self, profile):
        b = F.make_b_weighted([1.0], profile=profile)
        xi = self.XI.copy()
        phi = {"sin": np.sin, "cos": np.cos, "tanh": np.tanh}[profile]
        dphi = {"sin": lambda y: 1.0 * np.cos(y), "cos": lambda y: -1.0 * np.sin(y),
                "tanh": lambda y: 1.0 * (1.0 - np.tanh(y) * np.tanh(y))}[profile]
        assert b.profile(self.T, xi).tobytes() == phi(1.0 * self.XI).tobytes()
        assert b.profile_dx(self.T, xi).tobytes() == dphi(1.0 * self.XI).tobytes()
        np.testing.assert_array_equal(xi, self.XI)  # the state is never written
        assert isinstance(b.profile(0.5, 0.7), np.float64) and isinstance(b.profile_dx(0.5, 0.7), np.float64)

    def test_vector_norm_is_computed_once(self, monkeypatch):
        import pickle

        b = F.make_b_weighted([1.0, 4.0, 9.0], profile="sin")
        want = F._norm(b.vector)
        calls = []
        monkeypatch.setattr(F, "_norm", lambda v: calls.append(v) or want)
        assert b.vector_norm == want and b.vector_norm == want
        assert len(calls) == 1  # at the first use, not at every one
        assert pickle.loads(pickle.dumps(b)).vector_norm == want


class TestRawProfile:
    def test_uncertified_norms(self):
        b = F.raw_profile_b(lambda t, xi: xi, None, [2.0], name="bare")
        assert math.isinf(b.norm_inf)
        assert math.isinf(b.norm_inf_A)
        assert not b.smooth


class TestMakeH:
    def test_sup_norm_exact_at_half(self):
        # the 4097-point grid contains t = 1/2, so sin(pi t) has sup 1
        h = F.make_h([1.0, 4.0], {0: "sin_pi_t"})
        assert h.norm_inf == 1.0
        assert h.truncation == 2

    def test_component_and_evaluate_agree(self):
        h = F.make_h([1.0, 2.0, 3.0], {1: "sin_pi_t"})
        t = np.linspace(0.0, 1.0, 11)
        full = h.evaluate(t)
        assert full.shape == (11, 3)
        np.testing.assert_array_equal(full[:, 1], h.component(1, t))
        assert np.all(full[:, 0] == 0.0) and np.all(full[:, 2] == 0.0)

    def test_scale_suffix(self):
        h = F.make_h([1.0], {0: "sin_pi_t:0.25"})
        assert h.norm_inf == pytest.approx(0.25, rel=1e-12)

    def test_custom_callable_component(self):
        h = F.make_h([1.0], {0: lambda t: 0.5 * np.ones_like(t)})
        assert h.norm_inf == pytest.approx(0.5, rel=1e-12)

    def test_rejects_zero_and_bad_components(self):
        with pytest.raises(DomainError):
            F.make_h([1.0], {})
        with pytest.raises(DomainError):
            F.make_h([1.0], {0: "const:0"})
        with pytest.raises(DomainError):
            F.make_h([1.0], {3: "sin_pi_t"})
        with pytest.raises(DomainError):
            F.make_h([1.0], {0: "unknown-profile"})

    @pytest.mark.parametrize("component", [0.5, True, "0", -1, 2])
    def test_shift_components_are_integers_in_range(self, component):
        # {0.5: "const"} once reported sup|h| = 1 and shifted nothing, so a thm23 check passed vacuously
        with pytest.raises(DomainError, match="shift component"):
            F.make_h([1.0, 4.0], {component: "const"})

    def test_numpy_integer_components_shift(self):
        h = F.make_h([1.0, 4.0], {np.int64(1): "const:0.5"})
        assert h.components[0][0] == 1 and h.evaluate(0.5).tolist() == [0.0, 0.5]

    def test_zero_shift_object(self):
        z = F.zero_shift([1.0, 2.0])
        assert z.norm_inf == 0.0
        t = np.array([0.0, 1.0])
        for k in (0, 1):
            np.testing.assert_array_equal(z.component(k, t), np.zeros(2))
        np.testing.assert_array_equal(z.evaluate(t), np.zeros((2, 2)))


class TestShiftDifference:
    def test_window_restriction(self):
        lam = [1.0]
        h1 = F.make_h(lam, {0: "sin_pi_t"})
        h2 = F.zero_shift(lam)
        full = F.shift_difference_norm(h1, h2)
        # on [0, 1/4] the sup of sin(pi t) is sin(pi/4)
        head = F.shift_difference_norm(h1, h2, 0.0, 0.25)
        assert full == pytest.approx(1.0, rel=1e-12)
        assert head == pytest.approx(math.sin(math.pi / 4.0), rel=1e-6)

    def test_identical_shifts_vanish(self):
        h = F.make_h([1.0], {0: "sin_pi_t"})
        assert F.shift_difference_norm(h, h) == 0.0

    def test_rejects_mismatched_truncations(self):
        with pytest.raises(DomainError):
            F.shift_difference_norm(F.make_h([1.0], {0: "const"}), F.make_h([1.0, 2.0], {0: "const"}))


class TestWindowRescaling:
    def test_b_profile_remapping(self):
        b = F.make_b_weighted([1.0], profile="sin")
        rb = F.window_rescaled_b(b, 0.25, 0.75)
        xi = 0.8
        want = b.profile(0.25 + 0.5 * 0.6, math.sqrt(0.5) * xi)
        assert rb.profile(0.6, xi) == pytest.approx(float(want), rel=1e-15)
        assert rb.norm_inf == b.norm_inf
        assert rb.profile_dx_sup == pytest.approx(math.sqrt(0.5) * b.profile_dx_sup, rel=1e-15)

    def test_b_derivative_chain_rule(self):
        b = F.make_b_weighted([1.0], profile="tanh", omega=2.0)
        rb = F.window_rescaled_b(b, 0.0, 0.25)
        xi = np.array([0.3])
        got = rb.profile_dx(0.5, xi)
        want = 0.5 * b.profile_dx(0.125, 0.5 * xi)
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_h_rescaling_recomputes_norm(self):
        h = F.make_h([1.0], {0: "sin_pi_t"})
        rh = F.window_rescaled_h(h, 0.25, 0.75)
        # sup over the window of sin(pi s) is 1 (hit at s = 1/2), scaled
        # by l^(-1/2) = sqrt(2)
        assert rh.norm_inf == pytest.approx(math.sqrt(2.0), rel=1e-9)
        t = np.array([0.5])
        np.testing.assert_allclose(rh.component(0, t), [math.sqrt(2.0)], rtol=1e-12)

    def test_rejects_bad_windows(self):
        lam = [1.0]
        b = F.make_b_weighted(lam)
        h = F.make_h(lam, {0: "sin_pi_t"})
        spec = ExperimentSpec(spectrum=DriftSpectrum(tuple(lam)).truncate(1), b=b, seed=0, m=8, n_paths=2)
        entry_points = (
            lambda r, u: F.window_rescaled_b(b, r, u),
            lambda r, u: F.window_rescaled_h(h, r, u),
            lambda r, u: F.shift_difference_norm(h, F.zero_shift(lam), r, u),
            lambda r, u: moment_bound(spec, (0.5,), (-0.5,), (1,), r=r, u=u),
        )
        for r, u in ((0.5, 0.5), (-0.1, 0.5), (0.2, 1.1), (0.75, 0.25)):
            for call in entry_points:
                with pytest.raises(DomainError, match="need 0 <= r < u <= 1"):
                    call(r, u)


class TestResolvers:
    def test_weighted_names(self):
        b = F.resolve_b("weighted:sin", [1.0, 4.0])
        assert b.name == "weighted:sin"
        b2 = F.resolve_b("weighted:tanh:omega=2.5", [1.0])
        assert b2.profile_dx_sup == 2.5

    def test_const_family(self):
        b = F.resolve_b("const:0.5", [1.0, 4.0])
        assert b.norm_inf == 0.5
        np.testing.assert_array_equal(b.vector, [0.5, 0.0])
        with pytest.raises(DomainError):
            F.resolve_b("const:1.5", [1.0])
        # the zero vector is certified even where lam_1 e^(2 lam_1) overflows
        assert F.resolve_b("const:0", [800.0]).norm_inf_A == 0.0

    def test_zero_and_time(self):
        assert F.resolve_b("zero", [1.0]).norm_inf == 0.0
        assert F.resolve_b("time:sin_pi", [1.0]).smooth

    def test_unknown_names_rejected(self):
        for bad in ("mystery", "weighted", "weighted:sin:gamma=2", "time:cos"):
            with pytest.raises(DomainError):
                F.resolve_b(bad, [1.0])

    def test_shift_names(self):
        t = np.linspace(0.0, 1.0, 5)
        h = F.resolve_h("e1:sin_pi_t", [1.0, 4.0])
        np.testing.assert_array_equal(h.component(0, t), np.sin(math.pi * t))
        np.testing.assert_array_equal(h.component(1, t), np.zeros(5))
        h2 = F.resolve_h("e2:const:0.3", [1.0, 4.0])
        np.testing.assert_array_equal(h2.component(0, t), np.zeros(5))
        np.testing.assert_array_equal(h2.component(1, t), np.full(5, 0.3))
        assert h2.norm_inf == pytest.approx(0.3, rel=1e-12)
        assert F.resolve_h("zero", [1.0]).norm_inf == 0.0

    def test_bad_shift_names(self):
        for bad in ("q1:sin_pi_t", "e1", "e0:sin_pi_t", "e9:sin_pi_t"):
            with pytest.raises(DomainError):
                F.resolve_h(bad, [1.0, 4.0])


class TestNormScaling:
    def test_tiny_vectors_keep_their_norm(self):
        # np.linalg.norm squares the entries unscaled and returns 0.0 for both
        b = F.make_b_weighted([400.0])
        assert b.vector[0] == pytest.approx(9.58e-176, rel=1e-3)
        assert np.linalg.norm(b.vector) == 0.0
        assert b.norm_inf == b.vector_norm == float(b.vector[0])
        assert F.resolve_b("const:1e-200", [1.0]).norm_inf == 1e-200
        assert F.resolve_b("const:-1e-160", [1.0]).norm_inf == 1e-160

    def test_huge_vectors_do_not_overflow(self):
        assert F._norm([3.0 * 2.0**600, 4.0 * 2.0**600]) == 5.0 * 2.0**600
        assert F._norm([3e200, 4e200]) == pytest.approx(5e200, rel=1e-15)

    def test_bits_match_numpy_where_it_neither_underflows_nor_overflows(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 17, 100, 4097):
            for scale in (1e-140, 1e-3, 1.0, 7.3, 1e12, 1e140):
                v = scale * rng.standard_normal(n) * rng.uniform(0.1, 10.0, n) ** 3
                assert F._norm(v) == float(np.linalg.norm(v)), (n, scale)
        assert F._norm(np.zeros(3)) == F._norm([]) == 0.0

    def test_tiny_weighted_norm_keeps_its_value(self):
        # the one weighted term lam_1 e^(2 lam_1) c c underflowed at c c
        b = F.resolve_b("const:1e-200", [1.0])
        assert b.norm_inf_A == pytest.approx(1e-200 * math.sqrt(1.0 * math.exp(2.0 * 1.0)), rel=1e-15)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_tiny_and_huge_shifts_keep_their_norms(self, scale):
        # the shift norms squared unscaled values: 1e-200 read as a vanishing shift
        lam = [1.0, 4.0]
        h1, h2 = F.resolve_h(f"e1:const:{scale:g}", lam), F.resolve_h(f"e2:sin_pi_t:{scale:g}", lam)
        assert h1.norm_inf == h2.norm_inf == scale
        assert F.shift_difference_norm(h1, F.zero_shift(lam)) == scale
        assert F.shift_difference_norm(h1, h2) == pytest.approx(math.sqrt(2.0) * scale, rel=1e-15)

    def test_shift_norm_bits_match_the_unscaled_formula(self):
        lam = [1.0, 4.0, 9.0]
        t = np.linspace(0.0, 1.0, F.SHIFT_SUP_GRID)
        zero = F.zero_shift(lam)
        for profiles in ({0: "sin_pi_t:0.37"}, {0: "sin_pi_t:3.1", 2: "const:-0.2"}, {1: "const:7e-3"}):
            h = F.make_h(lam, profiles)
            norm_sq = np.zeros_like(t)
            for idx, _ in h.components:
                norm_sq += h.component(idx, t) * h.component(idx, t)
            assert h.norm_inf == math.sqrt(np.max(norm_sq))
            for r, u in ((0.0, 1.0), (0.1, 0.6)):
                diff = h.evaluate(np.linspace(r, u, F.SHIFT_SUP_GRID))
                want = float(np.sqrt(np.max(np.sum(diff * diff, axis=-1))))
                assert F.shift_difference_norm(h, zero, r, u) == want


# (name, spectrum) -> (descriptor name, vector, norm_inf, norm_inf_A, profile_dx_sup), as the
# certificates were before every family was built by one function
_CERTIFICATE_PINS = [
    (("weighted:sin", (1.0, 4.0)),
     ("weighted:sin", (0.2601300475114444, 0.0064755562299939895), 0.26021063476882367, 0.9999999999999999, 1.0)),
    (("weighted:cos", (1.0, 4.0)),
     ("weighted:cos", (0.2601300475114444, 0.0064755562299939895), 0.26021063476882367, 0.9999999999999999, 1.0)),
    (("weighted:tanh", (1.0, 4.0)),
     ("weighted:tanh", (0.2601300475114444, 0.0064755562299939895), 0.26021063476882367, 0.9999999999999999, 1.0)),
    (("weighted:sin:omega=2.5", (1.0, 4.0)),
     ("weighted:sin:omega=2.5", (0.2601300475114444, 0.0064755562299939895), 0.26021063476882367,
      0.9999999999999999, 2.5)),
    (("weighted:cos:omega=0.5", (1.0, 4.0)),
     ("weighted:cos:omega=0.5", (0.2601300475114444, 0.0064755562299939895), 0.26021063476882367,
      0.9999999999999999, 0.5)),
    (("weighted:tanh:omega=3", (1.0, 4.0)),
     ("weighted:tanh:omega=3", (0.2601300475114444, 0.0064755562299939895), 0.26021063476882367,
      0.9999999999999999, 3.0)),
    (("weighted:sign", (1.0, 4.0)),
     ("weighted:sign", (0.2601300475114444, 0.0064755562299939895), 0.26021063476882367, 0.9999999999999999, None)),
    (("weighted:one", (1.0, 4.0)),
     ("weighted:one", (0.2601300475114444, 0.0064755562299939895), 0.26021063476882367, 0.9999999999999999, 0.0)),
    (("zero", (1.0, 4.0)),
     ("weighted:zero", (0.2601300475114444, 0.0064755562299939895), 0.0, 0.0, 0.0)),
    (("time:sin_pi", (1.0, 4.0)),
     ("weighted:time_sin", (0.2601300475114444, 0.0064755562299939895), 0.26021063476882367, 0.9999999999999999,
      0.0)),
    (("const", (1.0, 4.0)), ("const:1", (1.0, 0.0), 1.0, 2.718281828459045, 0.0)),
    (("const:0", (1.0, 4.0)), ("const:0", (0.0, 0.0), 0.0, 0.0, 0.0)),
    (("const:0.5", (1.0, 4.0)), ("const:0.5", (0.5, 0.0), 0.5, 1.3591409142295225, 0.0)),
    # lam e^(2 lam) overflows: the weighted norm is infinite, so the descriptor is refused
    (("const:1", (800.0, 900.0)), ("const:1", (1.0, 0.0), 1.0, math.inf, 0.0)),
    # the capped weights keep a component past lam ~ 354 finite
    (("weighted:sin", (0.1, 400.0)),
     ("weighted:sin", (0.7071067811865475, 6.771147044793894e-176), 0.7071067811865475, 0.7490461520547371, 1.0)),
]


class TestCertificatePins:
    @pytest.mark.parametrize("spec, want", _CERTIFICATE_PINS, ids=[f"{n}@{lam}" for (n, lam), _ in _CERTIFICATE_PINS])
    def test_certificates_are_bitwise_pinned(self, spec, want):
        b = F.resolve_b(*spec)
        got = (b.name, tuple(float(v) for v in b.vector), b.norm_inf, b.norm_inf_A, b.profile_dx_sup)
        assert got == want
        assert all(type(v) is float for v in got[2:] if v is not None)


class TestDescriptorPickling:
    def test_round_trip(self):
        import pickle

        b = F.make_b_weighted([1.0, 4.0], profile="sin", omega=2.0)
        h = F.make_h([1.0, 4.0], {0: "sin_pi_t:0.5"})
        b2 = pickle.loads(pickle.dumps(b))
        h2 = pickle.loads(pickle.dumps(h))
        t = np.linspace(0.0, 1.0, 5)
        x = np.ones((5, 2))
        np.testing.assert_array_equal(b.evaluate(t, x), b2.evaluate(t, x))
        np.testing.assert_array_equal(h.evaluate(t), h2.evaluate(t))
