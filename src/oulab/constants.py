"""Closed-form constants for the exponential drift estimates.

Everything here is deterministic arithmetic on the spectrum of the drift
operator; no randomness enters.  For a single rate lam > 0 the basic
quantities are

    D(lam)      = arctan(sqrt(e^(2 lam) - 1)) / lam
    alpha1      = 1/64
    alpha2(lam) = 1 / (4 lam (e^(2 lam) + 1) D(lam)^2)
                = lam / (4 (e^(2 lam) + 1) arctan^2(sqrt(e^(2 lam) - 1)))
    alpha3(lam) = 2^-6 min(1/lam, 1/4)
    alpha(lam)  = (1/9) min(alpha1, alpha2(lam), alpha3(lam))

alpha collapses to (1/9) min(1/256, alpha2): alpha3 is never the strict
minimizer.  Since alpha2 >= 1/256 on (0, 1], alpha is the constant 1/2304
there, and it is non-increasing everywhere.  The exponentially weighted
rate

    h(lam) = alpha(lam) e^(2 lam) / lam

is bounded below by e/1152, with the minimum attained at lam = 1/2.  Its
alpha2 branch

    f(lam) = alpha2(lam) e^(2 lam) / lam

is non-increasing with limit 1/pi^2, which is the tail infimum of h over
an unbounded spectrum.  For a spectrum {lam_n} with LAM = sum 1/lam_n
finite, the concentration rate of the shift-functional bounds is

    beta = (1/4) LAM^-2 inf_n h(lam_n)   >=   (1/4) LAM^-2 e/1152 .

`analytic_property_suite` evaluates each inequality used along the way on
dense grids and reports the worst margin per claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

ALPHA1 = 1.0 / 64.0

# alpha on the interval (0, 1]: (1/9)(1/256)
ALPHA_UNIT_INTERVAL = 1.0 / 2304.0

# global lower bound for h(lam) = alpha(lam) e^(2 lam)/lam, attained at lam = 1/2
RATE_FLOOR = math.e / 1152.0

# limit of f(lam) = alpha2(lam) e^(2 lam)/lam as lam -> infinity; tail
# infimum of h over an unbounded spectrum (h = f/9 once alpha2 governs)
TAIL_LIMIT = 1.0 / (9.0 * math.pi**2)

# E exp(alpha |I|^2) <= C: the three-term split of the proof gives
# C = (2 + sqrt(2) + 4)/3 exactly; the stated bound rounds this up to 3.
PROP_C_EXACT = (6.0 + math.sqrt(2.0)) / 3.0
PROP_C_STATED = 3.0


def _as_rates(lam):
    """Validate rate arguments: positive, finite, float64."""
    arr = np.asarray(lam, dtype=np.float64)
    if arr.size == 0:
        raise DomainError("rate argument is empty")
    if not np.all(np.isfinite(arr)):
        raise DomainError("rate must be finite")
    if np.any(arr <= 0.0):
        raise DomainError("rate must be positive")
    return arr


def _maybe_scalar(out, template):
    if np.ndim(template) == 0:
        return float(out)
    return out


def _arctan_root(arr):
    # arctan(sqrt(e^(2 lam) - 1)) = lam * D(lam), increasing to pi/2
    with np.errstate(over="ignore"):
        return np.arctan(np.sqrt(np.expm1(2.0 * arr)))


def d_lambda(lam):
    """arctan(sqrt(e^(2 lam) - 1)) / lam.

    expm1 keeps full precision in e^(2 lam) - 1 down to the underflow
    limit, so the small-rate regime needs no separate series branch; for
    2 lam beyond the overflow threshold arctan(inf) = pi/2 is exact.
    """
    arr = _as_rates(lam)
    return _maybe_scalar(_arctan_root(arr) / arr, lam)


def alpha2(lam):
    """lam / (4 (e^(2 lam) + 1) arctan^2(sqrt(e^(2 lam) - 1))).

    Above 2 lam = 700 the direct denominator overflows, so the value is
    assembled in log space instead; it underflows to zero only once
    log(lam) - 2 lam falls below the smallest subnormal exponent.
    """
    arr = _as_rates(lam)
    t = _arctan_root(arr)
    with np.errstate(over="ignore"):
        direct = arr / (4.0 * (np.exp(2.0 * arr) + 1.0) * t * t)
        logged = np.exp(
            np.log(arr) - math.log(4.0) - np.logaddexp(2.0 * arr, 0.0) - 2.0 * np.log(t)
        )
    out = np.where(2.0 * arr > 700.0, logged, direct)
    return _maybe_scalar(out, lam)


def alpha3(lam):
    arr = _as_rates(lam)
    out = np.minimum(1.0 / arr, 0.25) / 64.0
    return _maybe_scalar(out, lam)


@dataclass(frozen=True)
class AlphaBreakdown:
    """All ingredients of alpha(lam) for one rate (or a grid of rates)."""

    lam: object
    alpha1: float
    alpha2: object
    alpha3: object
    alpha: object
    d_lambda: object


def alpha_components(lam) -> AlphaBreakdown:
    arr = _as_rates(lam)
    a2 = alpha2(arr)
    a3 = alpha3(arr)
    a = np.minimum(np.minimum(ALPHA1, a2), a3) / 9.0
    return AlphaBreakdown(
        lam=_maybe_scalar(arr, lam),
        alpha1=ALPHA1,
        alpha2=_maybe_scalar(a2, lam),
        alpha3=_maybe_scalar(a3, lam),
        alpha=_maybe_scalar(a, lam),
        d_lambda=d_lambda(lam),
    )


def alpha(lam):
    """(1/9) min(alpha1, alpha2, alpha3); equals 1/2304 on (0, 1]."""
    return alpha_components(lam).alpha


def alpha2_exp_ratio(lam):
    """f(lam) = alpha2(lam) e^(2 lam) / lam, non-increasing, limit 1/pi^2.

    Written as 1 / (4 (1 + e^(-2 lam)) arctan^2(...)) so it stays finite
    for every representable rate.
    """
    arr = _as_rates(lam)
    t = _arctan_root(arr)
    out = 1.0 / (4.0 * (1.0 + np.exp(-2.0 * arr)) * t * t)
    return _maybe_scalar(out, lam)


def clock_exp_ratio(lam):
    """g(lam) = (e^(2 lam) + 1)(e^(2 lam) - 1) / lam, non-decreasing."""
    arr = _as_rates(lam)
    with np.errstate(over="ignore"):
        out = (np.exp(2.0 * arr) + 1.0) * np.expm1(2.0 * arr) / arr
    return _maybe_scalar(out, lam)


def _log_clock_exp_ratio(arr):
    # log g = log(e^(4 lam) - 1) - log lam, overflow-proof
    y = 4.0 * arr
    with np.errstate(over="ignore"):
        log_em1 = np.where(y > 30.0, y + np.log1p(-np.exp(-y)), np.log(np.expm1(y)))
    return log_em1 - np.log(arr)


def exp_weighted_alpha(lam):
    """h(lam) = alpha(lam) e^(2 lam) / lam, bounded below by e/1152.

    Evaluated as (1/9) min(e^(2 lam)/(256 lam), f(lam)) so that the
    alpha2 branch survives even where alpha itself underflows; the first
    branch may overflow to inf, which min() then discards.
    """
    arr = _as_rates(lam)
    with np.errstate(over="ignore"):
        first = np.exp(2.0 * arr) / (256.0 * arr)
    out = np.minimum(first, alpha2_exp_ratio(arr)) / 9.0
    return _maybe_scalar(out, lam)


# ----------------------------------------------------------------------
# spectra
# ----------------------------------------------------------------------

TAIL_FINITE = "finite"
TAIL_UNBOUNDED = "unbounded_declared"


@dataclass(frozen=True)
class DriftSpectrum:
    """Eigenvalues of the diagonal drift operator.

    `tail_mode` records whether the listed rates are the whole spectrum
    or a truncation of an unbounded one; in the latter case rate
    infima pick up the analytic tail limit 1/(9 pi^2) and
    `tail_inverse_mass` should carry a certified bound on the dropped
    invariant mass sum_{n > N} 1/(2 lam_n).
    """

    eigenvalues: tuple
    tail_mode: str = TAIL_FINITE
    tail_inverse_mass: float = 0.0
    inverse_sum: float = field(init=False)

    def __post_init__(self):
        eig = tuple(float(v) for v in self.eigenvalues)
        if len(eig) == 0:
            raise DomainError("spectrum must list at least one eigenvalue")
        arr = np.asarray(eig, dtype=np.float64)
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise DomainError("eigenvalues must be positive and finite")
        if self.tail_mode not in (TAIL_FINITE, TAIL_UNBOUNDED):
            raise DomainError(f"unknown tail_mode: {self.tail_mode!r}")
        if self.tail_inverse_mass < 0.0 or not math.isfinite(self.tail_inverse_mass):
            raise DomainError("tail_inverse_mass must be finite and >= 0")
        object.__setattr__(self, "eigenvalues", eig)
        # numpy sums pairwise, which is the accuracy contract for long lists
        object.__setattr__(self, "inverse_sum", float(np.sum(1.0 / arr)))

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.eigenvalues, dtype=np.float64)

    def __len__(self):
        return len(self.eigenvalues)

    def truncate(self, n: int) -> "DriftSpectrum":
        if not 1 <= n <= len(self.eigenvalues):
            raise DomainError(f"truncation {n} outside 1..{len(self.eigenvalues)}")
        if n == len(self.eigenvalues):
            return self
        arr = self.array
        dropped = float(np.sum(0.5 / arr[n:]))
        return DriftSpectrum(
            eigenvalues=self.eigenvalues[:n],
            tail_mode=self.tail_mode,
            tail_inverse_mass=self.tail_inverse_mass + dropped,
        )

    @classmethod
    def quadratic(cls, n: int) -> "DriftSpectrum":
        """lam_k = k^2 for k = 1..n, declared as a truncation of the full
        unbounded spectrum; the dropped invariant mass sum_{k>n} 1/(2k^2)
        is below the integral bound 1/(2n)."""
        if n < 1:
            raise DomainError("need at least one eigenvalue")
        return cls(
            eigenvalues=tuple(float(k * k) for k in range(1, n + 1)),
            tail_mode=TAIL_UNBOUNDED,
            tail_inverse_mass=0.5 / n,
        )


def _coerce_spectrum(spectrum) -> DriftSpectrum:
    if isinstance(spectrum, DriftSpectrum):
        return spectrum
    return DriftSpectrum(eigenvalues=tuple(np.atleast_1d(np.asarray(spectrum, dtype=np.float64))))


def beta_floor(spectrum) -> float:
    """(1/4) LAM^-2 e/1152 with LAM = sum of 1/lam_n: the spectrum-independent part of the rate."""
    return 0.25 * _coerce_spectrum(spectrum).inverse_sum**-2 * RATE_FLOOR


def beta(spectrum) -> float:
    """(1/4) LAM^-2 inf_n h(lam_n).

    The infimum runs over the listed eigenvalues; a declared-unbounded
    tail contributes its analytic limit 1/(9 pi^2) as well.  Always at
    least beta_floor(spectrum) up to rounding.
    """
    spec = _coerce_spectrum(spectrum)
    m = float(np.min(exp_weighted_alpha(spec.array)))
    if spec.tail_mode == TAIL_UNBOUNDED:
        m = min(m, TAIL_LIMIT)
    return 0.25 * spec.inverse_sum**-2 * m


# ----------------------------------------------------------------------
# property suite
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimResult:
    name: str
    passed: bool
    worst_margin: float
    worst_at: float


@dataclass(frozen=True)
class PropertyReport:
    claims: tuple
    passed: bool

    def claim(self, name: str) -> ClaimResult:
        for c in self.claims:
            if c.name == name:
                return c
        raise KeyError(name)


def default_lambda_grid(num: int = 10**4) -> np.ndarray:
    return np.geomspace(1e-4, 1e2, num)


def default_x_grid(num: int = 10**4) -> np.ndarray:
    return np.geomspace(1e-4, 1e3, num)


def _claim_min(name, values, at, tol=0.0):
    idx = int(np.argmin(values))
    worst = float(values[idx])
    return ClaimResult(name=name, passed=bool(worst >= -tol), worst_margin=worst, worst_at=float(at[idx]))


def analytic_property_suite(lambda_grid=None, x_grid=None) -> PropertyReport:
    """Grid evaluation of every analytic inequality the constants rest on.

    Each claim reports its worst margin (the quantity that must stay
    nonnegative) and where it occurs.  Failures are reported, never
    raised.  Tolerances of order 1e-12 absorb rounding in claims whose
    margin is exactly zero in the reals (the flat tail of f, the
    constant stretch of alpha).
    """
    lam = default_lambda_grid() if lambda_grid is None else _as_rates(lambda_grid)
    lam = np.sort(lam)
    xs = default_x_grid() if x_grid is None else np.asarray(x_grid, dtype=np.float64)

    a2 = alpha2(lam)
    a = alpha(lam)
    f = alpha2_exp_ratio(lam)
    h = exp_weighted_alpha(lam)
    mid = 0.5 * (lam[1:] + lam[:-1])

    claims = []

    # x^2 + 2 > 2 x arctan(x)
    gap = xs * xs + 2.0 - 2.0 * xs * np.arctan(xs)
    claims.append(_claim_min("arctan gap positive", gap, xs))

    # g non-decreasing, tested in log form so the overflow region still counts
    dg = np.diff(_log_clock_exp_ratio(lam))
    claims.append(_claim_min("clock ratio non-decreasing", dg, mid, tol=1e-12))

    g1 = clock_exp_ratio(1.0)
    claims.append(ClaimResult("clock ratio at 1 below 64", g1 <= 64.0, 64.0 - g1, 1.0))

    claims.append(_claim_min("alpha2 ratio above 1/pi^2", f * math.pi**2 - 1.0, lam, tol=1e-12))

    claims.append(_claim_min("alpha2 ratio non-increasing", -np.diff(f), mid, tol=1e-12))

    claims.append(_claim_min("alpha non-increasing", -np.diff(a), mid, tol=1e-15))

    simplified = np.minimum(1.0 / 256.0, a2) / 9.0
    dev = np.abs(a / simplified - 1.0)
    claims.append(_claim_min("alpha simplification", 1e-14 - dev, lam))

    unit = lam <= 1.0
    if np.any(unit):
        dev_unit = np.abs(a[unit] / ALPHA_UNIT_INTERVAL - 1.0)
        claims.append(_claim_min("alpha constant on (0,1]", 1e-14 - dev_unit, lam[unit]))
        margin2 = a2[unit] - 1.0 / 256.0
        claims.append(_claim_min("alpha2 above 1/256 on (0,1]", margin2, lam[unit]))

    claims.append(_claim_min("weighted alpha above floor", h / RATE_FLOOR - 1.0, lam, tol=1e-12))

    at_half = abs(exp_weighted_alpha(0.5) / RATE_FLOOR - 1.0)
    claims.append(ClaimResult("weighted alpha floor attained at 1/2", at_half <= 1e-12, 1e-12 - at_half, 0.5))

    claims = tuple(claims)
    return PropertyReport(claims=claims, passed=all(c.passed for c in claims))
