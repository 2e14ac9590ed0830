"""Exact-moment oracle for the production block workers.

For trigonometric profiles the second moment of the discrete trapezoid
functional is a closed-form O(M^2) sum.  On the grid tau_k = k dt of a run
started at x0, Z_k ~ N(mu_k, v_k) with

    mu_k = x0 e^(-lam tau_k),   v_k = (1 - e^(-2 lam tau_k)) / (2 lam),
    Cov(Z_j, Z_k) = e^(-lam |tau_j - tau_k|) v_min(j,k).

Every functional here is J = sum_p alpha_p cos(omega Z_{k_p} + theta_p)
(sin x = cos(x - pi/2)), so with cos A cos B = [cos(A-B) + cos(A+B)] / 2 and
E cos X = cos(E X) e^(-Var X / 2) for Gaussian X, E J^2 is exact.  The
workers' per-path values are |J| |v|, so mean(values^2) is compared with
|v|^2 E J^2 by its z-score.  The workers share nothing with the oracle but
the grid, so a wrong sigma, decay factor, start decay, window offset, shift
evaluation or trapezoid weight moves the z-score.
"""

import math

import numpy as np
import pytest

from oulab.constants import DriftSpectrum
from oulab.fnlib import make_b_weighted
from oulab.functionals import ExperimentSpec, _pair_values, _prop21_block
from oulab.parallel import run_blocks

Z_MAX = 4.5
SEED = 20161222


def exact_second_moment(lam, x0, horizon, m, omega, alpha, theta):
    """E J^2 of J = sum_p alpha[p] cos(omega Z_{p mod (m+1)} + theta[p]) on m steps of [0, horizon].

    alpha and theta hold one (m+1)-vector per term family, concatenated.
    """
    tau = np.linspace(0.0, horizon, m + 1)
    mu = x0 * np.exp(-lam * tau)
    v = -np.expm1(-2.0 * lam * tau) / (2.0 * lam)
    cov = np.exp(-lam * np.abs(tau[:, None] - tau[None, :])) * np.minimum(v[:, None], v[None, :])
    k = np.arange(alpha.size) % (m + 1)
    mean, var, cov = mu[k], v[k], cov[np.ix_(k, k)]
    var_sum = var[:, None] + var[None, :]
    minus = np.cos(omega * (mean[:, None] - mean[None, :]) + theta[:, None] - theta[None, :])
    plus = np.cos(omega * (mean[:, None] + mean[None, :]) + theta[:, None] + theta[None, :])
    pair = 0.5 * (minus * np.exp(-0.5 * omega**2 * (var_sum - 2.0 * cov))
                  + plus * np.exp(-0.5 * omega**2 * (var_sum + 2.0 * cov)))
    return float(alpha @ pair @ alpha)


def _trapezoid_weights(m, horizon):
    w = np.full(m + 1, horizon / m)
    w[0] = w[-1] = 0.5 * horizon / m
    return w


def _phase(profile):
    """theta of the profile written as cos(omega xi + theta)."""
    return -0.5 * math.pi if profile == "sin" else 0.0


def _z_score(values, exact):
    y = values**2
    return (y.mean() - exact) / (y.std(ddof=1) / math.sqrt(y.size))


# (profile, lam, omega, M, paths); lam = 64, omega = 8 makes the run sensitive
# to the step variance: sigma 0.5% too large moves its z-score by about 10
PROP21_CASES = [("sin", 64.0, 8.0, 256, 32768), ("cos", 2.0, 3.0, 64, 8192)]


@pytest.mark.parametrize("profile, lam, omega, m, n", PROP21_CASES)
def test_prop21_block_second_moment(profile, lam, omega, m, n):
    # J = int_0^1 phi'(Z_t) dt; phi = cos(omega xi + theta) has phi' = omega cos(omega xi + theta + pi/2)
    b = make_b_weighted((lam,), profile=profile, omega=omega)
    values = run_blocks(_prop21_block, n, 1, (SEED, lam, m, b))
    alpha = omega * _trapezoid_weights(m, 1.0)
    theta = np.full(m + 1, _phase(profile) + 0.5 * math.pi)
    exact = exact_second_moment(lam, 0.0, 1.0, m, omega, alpha, theta) * b.vector_norm**2
    assert abs(_z_score(values, exact)) <= Z_MAX


# (profile, lam, omega, M, paths, x0, r, u, h1, h2); h1 and h2 map absolute
# times to the shift of b's coordinate
PAIR_CASES = [
    # thm23: r = 0, u = 1, x0 = 0, h2 = 0
    ("sin", 64.0, 16.0, 256, 32768, 0.0, 0.0, 1.0, lambda t: np.full_like(t, 0.3), np.zeros_like),
    # window functional with constant shifts, as in moments
    ("cos", 64.0, 16.0, 128, 32768, 0.8, 0.25, 0.75, lambda t: np.full_like(t, 0.4), lambda t: np.full_like(t, -0.2)),
    # window functional with a time-dependent shift read at absolute times
    ("sin", 4.0, 2.0, 64, 16384, -0.5, 0.1, 0.6, lambda t: 0.7 * np.sin(math.pi * t), np.zeros_like),
]


@pytest.mark.parametrize("profile, lam, omega, m, n, x0, r, u, h1, h2", PAIR_CASES,
                         ids=["thm23", "window-constant-shifts", "window-time-shift"])
def test_pair_values_second_moment(profile, lam, omega, m, n, x0, r, u, h1, h2):
    # J = int_r^u phi(Z_s + h1(s)) - phi(Z_s + h2(s)) ds, Z started at x0 at time r
    spectrum = DriftSpectrum((lam,))
    b = make_b_weighted(spectrum.eigenvalues, profile=profile, omega=omega)
    spec = ExperimentSpec(spectrum, 1, b, SEED, m=m, n_paths=n)
    values = _pair_values(spec, lam, r, u, x0, h1, h2)
    t_abs = r + np.linspace(0.0, u - r, m + 1)
    w = _trapezoid_weights(m, u - r)
    alpha = np.concatenate([w, -w])
    theta = _phase(profile) + omega * np.concatenate([h1(t_abs), h2(t_abs)])
    exact = exact_second_moment(lam, x0, u - r, m, omega, alpha, theta) * b.vector_norm**2
    assert abs(_z_score(values, exact)) <= Z_MAX


def test_oracle_matches_monte_carlo_of_its_own_gaussians():
    # the closed form against brute-force sampling of the Gaussian vector it
    # describes, independent of the package's samplers
    lam, x0, horizon, m, omega = 1.5, 0.6, 0.8, 6, 2.0
    tau = np.linspace(0.0, horizon, m + 1)
    v = -np.expm1(-2.0 * lam * tau) / (2.0 * lam)
    cov = np.exp(-lam * np.abs(tau[:, None] - tau[None, :])) * np.minimum(v[:, None], v[None, :])
    rng = np.random.default_rng(3)
    z = x0 * np.exp(-lam * tau) + rng.multivariate_normal(np.zeros(m + 1), cov, size=200_000, method="eigh")
    alpha = np.concatenate([_trapezoid_weights(m, horizon), -0.5 * _trapezoid_weights(m, horizon)])
    theta = np.concatenate([np.full(m + 1, 0.3), np.full(m + 1, -1.1)])
    j = np.cos(omega * z + theta[: m + 1]) @ alpha[: m + 1] + np.cos(omega * z + theta[m + 1 :]) @ alpha[m + 1 :]
    exact = exact_second_moment(lam, x0, horizon, m, omega, alpha, theta)
    assert abs(_z_score(j, exact)) <= Z_MAX
