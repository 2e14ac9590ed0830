"""Constructors for drift functions b and shifts h with certified norms.

The exponential-moment theorems hypothesize sup-norm certificates:

    |b(t, x)|_H <= 1            everywhere,
    (sum_n lam_n e^(2 lam_n) b_n(t, x)^2)^(1/2) <= 1,
    h: [0,1] -> H bounded with sum_n h_n(t)^2 lam_n^2 < infinity,

and the last holds by construction on the finite truncations built here.

Every drift built here is rank-one, b(t, x) = phi(t, <x, e_d>) * v,
with phi a scalar profile of the table _PROFILES, e_d a coordinate
direction and v a fixed vector.  One builder, _certified, makes every
certified descriptor.  It reads sup |phi| (0 for zero, 1 otherwise),
sup |d phi / d xi| and whether phi takes a frequency omega from the
table, and sets

    sup |b|_H = sup |phi| |v|,
    weighted norm = sup |phi| (sum_n lam_n e^(2 lam_n) v_n^2)^(1/2),

from v and the terms lam_n e^(2 lam_n) v_n^2, which each caller writes
in the form that stays finite for its family:

    weighted:<profile>  v_n = s_n c_n, s_n = min(lam_n^(-1/2) e^(-lam_n), 1),
                        terms min(1, lam_n e^(2 lam_n)) c_n^2;
    const:<c>           v = c e_1, one term lam_1 e^(2 lam_1) c^2.

So sum c_n^2 <= 1 certifies both weighted norms at once.  (Without the
cap at 1 the weighted scale alone exceeds one below lam ~ 0.4263, which
would break the plain sup-norm hypothesis for small rates.)  The const
term overflows past lam_1 ~ 354, and an infinite weighted norm is
uncertified.  Certificates are computed from the construction, never
estimated from samples; sampling only audits them.

Profiles are module-level functions (partial-bound for parameters), so
descriptors pickle.  Each profile phi(t, xi, out=None) can write into a
caller's buffer: a block kernel's lane evaluates its profiles into work
arrays it allocates once, never into a new array per row chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .constants import _as_rates
from .errors import DomainError, _check_count, _check_positive

SHIFT_SUP_GRID = 4097  # 2^12 intervals, endpoints included, hits t = 1/2 exactly


# ----------------------------------------------------------------------
# scalar profiles phi(t, xi)
# ----------------------------------------------------------------------


def _scaled(factor, x, out=None):
    """(factor * x, out): factor * x in out, or in a new float64 array,
    which a profile then finishes in place through out=; a scalar x
    without out gives a numpy scalar and out=None, so a scalar state
    still returns a scalar.  At factor 1.0 the multiply, exact for every
    float64, is skipped: x comes back with out as given, and the
    profile's first ufunc writes its result there or allocates it."""
    x = np.asarray(x, dtype=np.float64)
    if factor == 1.0:
        return x, out
    y = np.multiply(factor, x, out=out)
    return y, (y if isinstance(y, np.ndarray) else None)


def _times(factor, y):
    """factor * y, in place where y is an array; factor 1.0 returns y, as multiplying would to the bit."""
    return y if factor == 1.0 else np.multiply(factor, y, out=y if isinstance(y, np.ndarray) else None)


def _into(value, out):
    """value, or value copied into out when out is given: how a profile built on a caller's callable takes out."""
    if out is None:
        return value
    np.copyto(out, value)
    return out


# profiles phi(t, xi, out=None): out, a float64 array of the result's
# shape, receives the result, and may be xi itself


def _phi_sin(t, xi, out=None, omega=1.0):
    y, out = _scaled(omega, xi, out)
    return np.sin(y, out=out)


def _dphi_sin(t, xi, out=None, omega=1.0):
    y, out = _scaled(omega, xi, out)
    return _times(omega, np.cos(y, out=out))


def _phi_cos(t, xi, out=None, omega=1.0):
    y, out = _scaled(omega, xi, out)
    return np.cos(y, out=out)


def _dphi_cos(t, xi, out=None, omega=1.0):
    y, out = _scaled(omega, xi, out)
    return _times(-omega, np.sin(y, out=out))


def _phi_tanh(t, xi, out=None, omega=1.0):
    y, out = _scaled(omega, xi, out)
    return np.tanh(y, out=out)


def _dphi_tanh(t, xi, out=None, omega=1.0):
    y, out = _scaled(omega, xi, out)
    y = np.tanh(y, out=out)
    out = y if isinstance(y, np.ndarray) else None
    return _times(omega, np.subtract(1.0, np.multiply(y, y, out=out), out=out))


# pair profiles: pair(t, h1, h2) computes the factors that read only the
# shifts once and returns apply(xi, out=None) = phi(t, xi + h1) -
# phi(t, xi + h2), h1 and h2 reading only t.  The smooth ones use an exact
# identity that subtracts no two profile values, so a shift below the
# spacing of floats near xi keeps its size.  out, when given, receives the
# result and may be xi itself.


def _shift_scaled(factor, x, shift, out=None):
    """(factor * (x + shift), out): x + shift in out or a new float64 array, scaled in place, as _scaled."""
    y = np.add(x, shift, out=out, dtype=np.float64)
    out = y if isinstance(y, np.ndarray) else None
    return _times(factor, y), out


def _pair_sum_to_product(t, h1, h2, omega=1.0, outer=np.cos, scale=2.0):
    """scale sin(omega (h1 - h2)/2) outer(omega (xi + (h1 + h2)/2)): one transcendental per state.

    sin's identity has outer = cos and scale = 2, cos's outer = sin and scale = -2.
    """
    mid, factor = (h1 + h2) / 2.0, scale * np.sin(omega * (h1 - h2) / 2.0)

    def apply(xi, out=None):
        y, out = _shift_scaled(omega, xi, mid, out)
        return np.multiply(outer(y, out=out), factor, out=out)

    return apply


def _pair_tanh(t, h1, h2, omega=1.0):
    """tanh(omega (h1 - h2)) (1 - tanh(omega (xi + h1)) tanh(omega (xi + h2)))."""
    factor = np.tanh(omega * (h1 - h2))

    def apply(xi, out=None):
        y2, out2 = _shift_scaled(omega, xi, h2)  # before out, which may be xi, is written
        y1, out = _shift_scaled(omega, xi, h1, out)
        y = np.multiply(np.tanh(y1, out=out), np.tanh(y2, out=out2), out=out)
        return np.multiply(np.subtract(1.0, y, out=out), factor, out=out)

    return apply


def _pair_plain(t, h1, h2, phi):
    """phi(t, xi + h1) - phi(t, xi + h2) by two evaluations of phi."""
    def apply(xi, out=None):
        return np.subtract(np.asarray(phi(t, xi + h1), dtype=np.float64),
                           np.asarray(phi(t, xi + h2), dtype=np.float64), out=out)

    return apply


def _phi_sign(t, xi, out=None):
    return np.sign(np.asarray(xi, dtype=np.float64), out=out)


def _phi_one(t, xi, out=None):
    return np.ones_like(np.asarray(xi, dtype=np.float64)) if out is None else _into(1.0, out)


def _phi_zero(t, xi, out=None):
    return np.zeros_like(np.asarray(xi, dtype=np.float64)) if out is None else _into(0.0, out)


def _phi_time_sin(t, xi, out=None):
    # depends on t only; broadcast to the state's shape
    t_arr, xi_arr = np.broadcast_arrays(np.asarray(t, dtype=np.float64), np.asarray(xi, dtype=np.float64))
    y, out = _scaled(math.pi, t_arr, out)
    return np.sin(y, out=out)


# name -> (phi, dphi or None, sup |dphi/dxi| at omega = 1 or None, sup |phi|, whether phi reads omega * xi,
#          the pair profile's pair(t, h1, h2), taking omega where phi does)
_PROFILES = {
    "sin": (_phi_sin, _dphi_sin, 1.0, 1.0, True, _pair_sum_to_product),
    "cos": (_phi_cos, _dphi_cos, 1.0, 1.0, True, partial(_pair_sum_to_product, outer=np.sin, scale=-2.0)),
    "tanh": (_phi_tanh, _dphi_tanh, 1.0, 1.0, True, _pair_tanh),
    "sign": (_phi_sign, None, None, 1.0, False, partial(_pair_plain, phi=_phi_sign)),
    "one": (_phi_one, _phi_zero, 0.0, 1.0, False, partial(_pair_plain, phi=_phi_one)),
    "zero": (_phi_zero, _phi_zero, 0.0, 0.0, False, partial(_pair_plain, phi=_phi_zero)),
    "time_sin": (_phi_time_sin, _phi_zero, 0.0, 1.0, False, partial(_pair_plain, phi=_phi_time_sin)),
}


def _exponent(values) -> int:
    """The e for which the power of two 2^-e brings the largest |value| into [1/2, 1) (0 for all zeros).

    Squaring values scaled by 2^-e neither underflows nor overflows, and
    the scaling is exact, so a norm taken at that scale and multiplied by
    2^e has the unscaled computation's bits wherever that one neither
    underflows nor overflows.  np.linalg.norm, say, returns 0 for [1e-200].
    """
    return math.frexp(float(np.max(np.abs(values), initial=0.0)))[1]


def _norm(vector) -> float:
    """Euclidean norm of a float vector, np.linalg.norm at the scale of _exponent."""
    v = np.asarray(vector, dtype=np.float64)
    e = _exponent(v)
    return math.ldexp(float(np.linalg.norm(np.ldexp(v, -e))), e)


@dataclass(frozen=True, eq=False)
class FunctionDescriptor:
    """Rank-one drift function b(t, x) = phi(t, xi) * vector.

    For a scalar state (one-dimensional process) xi is the state itself;
    for a truncated Hilbert state xi = x[direction].  `norm_inf` and
    `norm_inf_A` are certified analytically by the constructor; np.inf
    marks an uncertified descriptor, which the theorem checkers refuse.
    `profile(t, xi, out=None)` and `profile_dx(t, xi, out=None)` evaluate
    phi and d phi / d xi; out, a float64 array of the result's shape,
    receives the result, is returned, and may be xi itself, as pair's
    may (_prop21_block evaluates b' over its paths).  `profile_dx_sup`
    bounds |d phi / d xi| when the profile is smooth.
    `pair(t, h1, h2)` prepares the pair profile for shifts h1, h2 that
    broadcast against t, the one entry point of the shift functionals:
    it computes the factors that read only the shifts once and returns
    apply(xi, out=None) = phi(t, xi + h1) - phi(t, xi + h2).  sin, cos
    and tanh evaluate it by an exact identity free of cancellation, every
    other profile by two evaluations of phi.  out, a float64 array of the
    result's shape, receives it and may be xi itself.  `vector_norm` is
    computed at its first use and kept.  Equality and hashing are by
    identity.
    """

    name: str
    profile: object
    profile_dx: object
    pair: object
    vector: np.ndarray
    direction: int
    norm_inf: float
    norm_inf_A: float
    profile_dx_sup: object = None

    @cached_property
    def vector_norm(self) -> float:
        return _norm(self.vector)

    def _xi(self, x):
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim == 0:
            return arr
        return arr[..., self.direction]

    def evaluate(self, t, x) -> np.ndarray:
        """b(t, x) as a vector; scalar x is read directly as xi."""
        phi = self.profile(t, self._xi(x))
        return np.multiply.outer(np.asarray(phi, dtype=np.float64), self.vector)

    def derivative(self, t, x) -> np.ndarray:
        """d b / d xi, the derivative along the read coordinate."""
        if self.profile_dx is None:
            raise DomainError(f"descriptor {self.name!r} is not smooth; no derivative")
        dphi = self.profile_dx(t, self._xi(x))
        return np.multiply.outer(np.asarray(dphi, dtype=np.float64), self.vector)

    @property
    def smooth(self) -> bool:
        return self.profile_dx is not None


def _certified(name, profile, omega, vector, weights, coefficients, direction) -> FunctionDescriptor:
    """phi * vector for a profile of _PROFILES, with both norm certificates.

    The terms lam_n e^(2 lam_n) vector_n^2 are weights_n coefficients_n^2
    in the caller's form, summed at the scale of _exponent(coefficients);
    an infinite term leaves the weighted norm infinite, so uncertified.
    """
    phi, dphi, dsup, sup, takes_omega, pair = _PROFILES[profile]
    if takes_omega:
        omega = _check_positive(omega, "omega")
        phi, dphi, dsup = partial(phi, omega=omega), partial(dphi, omega=omega), omega * dsup
        pair = partial(pair, omega=omega)
        if omega != 1.0:
            name += f":omega={omega:g}"
    e = _exponent(coefficients)
    c = np.ldexp(np.asarray(coefficients, dtype=np.float64), -e)
    return FunctionDescriptor(
        name=name,
        profile=phi,
        profile_dx=dphi,
        pair=pair,
        vector=vector,
        direction=direction,
        norm_inf=sup * _norm(vector),
        norm_inf_A=sup * math.ldexp(math.sqrt(np.sum(weights * c * c)), e),
        profile_dx_sup=dsup,
    )


def weighted_scales(spectrum_values) -> np.ndarray:
    """s_n = min(lam_n^(-1/2) e^(-lam_n), 1)."""
    lam = np.asarray(spectrum_values, dtype=np.float64)
    return np.minimum(np.exp(-lam) / np.sqrt(lam), 1.0)


def _spectrum_values(spectrum_values) -> np.ndarray:
    """spectrum_values as a float64 vector of positive finite rates, the rates every b and h is built on."""
    lam = _as_rates(spectrum_values, "spectrum_values")
    if lam.ndim != 1:
        raise DomainError(f"spectrum_values must be a list of rates, got shape {lam.shape}")
    return lam


def make_b_weighted(spectrum_values, profile="sin", coefficients=None, direction=0, omega=1.0) -> FunctionDescriptor:
    """Spectrally weighted rank-one b with both norms certified <= 1.

    coefficients default to the uniform unit vector c_n = N^(-1/2).
    Rejects sum c_n^2 > 1.
    """
    lam = _spectrum_values(spectrum_values)
    n = lam.size
    if coefficients is None:
        c = np.full(n, 1.0 / math.sqrt(n))
    else:
        c = np.asarray(coefficients, dtype=np.float64)
        if c.shape != (n,):
            raise DomainError(f"need {n} coefficients, got shape {c.shape}")
    csq = float(np.sum(c * c))
    if csq > 1.0 + 1e-12:
        raise DomainError(f"sum of squared coefficients is {csq:.6g} > 1")
    direction = _check_count(direction, "direction", 0, n)
    if profile not in _PROFILES:
        raise DomainError(f"unknown profile {profile!r}; have {sorted(_PROFILES)}")
    with np.errstate(over="ignore"):
        weights = np.minimum(1.0, lam * np.exp(2.0 * lam))  # lam e^(2 lam) s_n^2
    return _certified(f"weighted:{profile}", profile, omega, weighted_scales(lam) * c, weights, c, direction)


def raw_profile_b(profile, profile_dx, vector, direction=0, name="raw") -> FunctionDescriptor:
    """Uncertified descriptor for quadrature work and oracles.

    norm certificates are set to infinity, so the theorem checkers will
    refuse it; the grid integrals accept anything.  profile and
    profile_dx take (t, xi); the descriptor's callables take out= as
    well and copy their result into it.
    """
    v = np.atleast_1d(np.asarray(vector, dtype=np.float64))
    return FunctionDescriptor(
        name=name,
        profile=partial(_foreign, fn=profile),
        profile_dx=None if profile_dx is None else partial(_foreign, fn=profile_dx),
        pair=partial(_pair_plain, phi=profile),
        vector=v,
        direction=direction,
        norm_inf=math.inf,
        norm_inf_A=math.inf,
        profile_dx_sup=None,
    )


# ----------------------------------------------------------------------
# shifts h(t)
# ----------------------------------------------------------------------


def _sh_sin_pi_t(t, scale=1.0):
    return scale * np.sin(math.pi * np.asarray(t, dtype=np.float64))


def _sh_const(t, scale=1.0):
    return np.full_like(np.asarray(t, dtype=np.float64), scale)


_SHIFT_PROFILES = {"sin_pi_t": _sh_sin_pi_t, "const": _sh_const}


@dataclass(frozen=True, eq=False)
class ShiftDescriptor:
    """h: [0,1] -> truncated H, one scalar profile per live component.

    norm_inf is the sup norm on SHIFT_SUP_GRID points of [0, 1], endpoints
    included.  Equality and hashing are by identity.
    """

    name: str
    truncation: int
    eigenvalues: tuple
    components: tuple  # ((index, callable), ...)
    norm_inf: float

    def component(self, index: int, t) -> np.ndarray:
        t_arr = np.asarray(t, dtype=np.float64)
        for idx, fn in self.components:
            if idx == index:
                return np.asarray(fn(t_arr), dtype=np.float64)
        return np.zeros_like(t_arr)

    def evaluate(self, t) -> np.ndarray:
        """h(t): shape (N,) for scalar t, (T, N) for a time grid."""
        t_arr = np.asarray(t, dtype=np.float64)
        out = np.zeros(t_arr.shape + (self.truncation,))
        for idx, fn in self.components:
            out[..., idx] = fn(t_arr)
        return out


def _parse_number(token, what, name) -> float:
    """float(token), or a DomainError naming the token and the descriptor it came from."""
    try:
        return float(token)
    except ValueError:
        raise DomainError(f"{what} {token!r} in {name!r} is not a number") from None


def _build_shift(name, spectrum_values, profiles, allow_zero):
    lam = _spectrum_values(spectrum_values)
    n = lam.size
    comps = []
    profiles = {_check_count(idx, "shift component", 0, n): entry for idx, entry in profiles.items()}
    for idx, entry in sorted(profiles.items()):
        if not callable(entry):
            pname = entry
            scale = 1.0
            if ":" in str(entry):
                pname, s = str(entry).split(":", 1)
                scale = _parse_number(s, "shift scale", name)
            if pname not in _SHIFT_PROFILES:
                raise DomainError(f"unknown shift profile {pname!r}; have {sorted(_SHIFT_PROFILES)}")
            fn = _SHIFT_PROFILES[pname]
            entry = partial(fn, scale=scale) if scale != 1.0 else fn
        comps.append((idx, entry))
    tgrid = np.linspace(0.0, 1.0, SHIFT_SUP_GRID)
    values = []
    for idx, fn in comps:
        vals = np.asarray(fn(tgrid), dtype=np.float64)
        if not np.all(np.isfinite(vals)):
            raise DomainError(f"shift component {idx} is not finite on [0,1]")
        values.append(vals)
    e = _exponent(values)
    norm_sq = np.zeros_like(tgrid)
    for vals in values:
        vals = np.ldexp(vals, -e)
        norm_sq += vals * vals
    norm_inf = math.ldexp(math.sqrt(np.max(norm_sq)), e) if comps else 0.0
    if norm_inf == 0.0 and not allow_zero:
        raise DomainError("shift vanishes identically; the theorems need sup |h| in (0, inf)")
    return ShiftDescriptor(
        name=name,
        truncation=n,
        eigenvalues=tuple(float(v) for v in lam),
        components=tuple(comps),
        norm_inf=norm_inf,
    )


def make_h(spectrum_values, profiles, name="h") -> ShiftDescriptor:
    """Shift from per-component scalar profiles {index: profile}.

    A profile is a callable t -> value or a registry name
    ("sin_pi_t", "const", optionally "const:0.5" for a scale).
    All-zero shifts are rejected here; see zero_shift for the degenerate
    object used as a comparison baseline.
    """
    return _build_shift(name, spectrum_values, profiles, allow_zero=False)


def zero_shift(spectrum_values) -> ShiftDescriptor:
    """The identically zero shift (norm_inf = 0).

    Not admissible where a theorem requires sup |h| > 0; fine as one leg
    of a difference.
    """
    return _build_shift("zero", spectrum_values, {}, allow_zero=True)


def _check_window(r, u):
    """Refuse a window [r, u] outside 0 <= r < u <= 1."""
    if not 0.0 <= r < u <= 1.0:
        raise DomainError("need 0 <= r < u <= 1")


def shift_difference_norm(h1: ShiftDescriptor, h2: ShiftDescriptor, r=0.0, u=1.0, grid=SHIFT_SUP_GRID) -> float:
    """Grid sup over t in [r, u] of |h1(t) - h2(t)|_H."""
    if h1.truncation != h2.truncation:
        raise DomainError("shift truncations differ")
    _check_window(r, u)
    tgrid = np.linspace(r, u, grid)
    diff = h1.evaluate(tgrid) - h2.evaluate(tgrid)
    e = _exponent(diff)
    diff = np.ldexp(diff, -e)
    return math.ldexp(float(np.sqrt(np.max(np.sum(diff * diff, axis=-1)))), e)


# ----------------------------------------------------------------------
# window rescaling
# ----------------------------------------------------------------------
#
# Mapping a window [r, u] of length l = u - r onto unit time sends the
# process to one with rates l * lam_n and the data to
#
#   b~(t, x) = b(l t + r, sqrt(l) x),    h~(t) = l^(-1/2) h(l t + r).
#
# The window sees a subset of the original arguments, so the parent sup
# certificates remain valid for b~ (if conservative).  The shift scales
# by l^(-1/2), which can grow, so its norms are recomputed from scratch.


def _foreign(t, xi, out=None, *, fn):
    """fn(t, xi) of a caller's profile, copied into out when given."""
    return _into(fn(t, xi), out)


def _phi_windowed(t, xi, out=None, *, base, ell, r):
    return _into(base(ell * np.asarray(t, dtype=np.float64) + r, math.sqrt(ell) * np.asarray(xi, dtype=np.float64)),
                 out)


def _dphi_windowed(t, xi, out=None, *, base_dx, ell, r):
    inner = base_dx(ell * np.asarray(t, dtype=np.float64) + r, math.sqrt(ell) * np.asarray(xi, dtype=np.float64))
    return np.multiply(math.sqrt(ell), np.asarray(inner, dtype=np.float64), out=out)


def _sh_windowed(t, base, ell, r):
    vals = base(ell * np.asarray(t, dtype=np.float64) + r)
    return np.asarray(vals, dtype=np.float64) / math.sqrt(ell)


def window_rescaled_b(b: FunctionDescriptor, r: float, u: float) -> FunctionDescriptor:
    """b~(t, x) = b(l t + r, sqrt(l) x) for the unit-time picture of [r, u]."""
    _check_window(r, u)
    ell = u - r
    dphi = None
    dsup = None
    if b.profile_dx is not None:
        dphi = partial(_dphi_windowed, base_dx=b.profile_dx, ell=ell, r=r)
        if b.profile_dx_sup is not None:
            dsup = math.sqrt(ell) * b.profile_dx_sup
    phi = partial(_phi_windowed, base=b.profile, ell=ell, r=r)
    return FunctionDescriptor(
        name=f"{b.name}:window={r:g}..{u:g}",
        profile=phi,
        profile_dx=dphi,
        pair=partial(_pair_plain, phi=phi),
        vector=b.vector,
        direction=b.direction,
        norm_inf=b.norm_inf,
        norm_inf_A=b.norm_inf_A,
        profile_dx_sup=dsup,
    )


def window_rescaled_h(h: ShiftDescriptor, r: float, u: float) -> ShiftDescriptor:
    """h~(t) = l^(-1/2) h(l t + r); norms recomputed on the unit grid."""
    _check_window(r, u)
    ell = u - r
    profiles = {
        idx: partial(_sh_windowed, base=fn, ell=ell, r=r)
        for idx, fn in h.components
    }
    return _build_shift(
        f"{h.name}:window={r:g}..{u:g}",
        h.eigenvalues,
        profiles,
        allow_zero=True,
    )


# ----------------------------------------------------------------------
# registry names for the command line
# ----------------------------------------------------------------------


def resolve_b(name: str, spectrum_values) -> FunctionDescriptor:
    """Descriptor from a config name.

    weighted:<profile>[:omega=<w>]   spectrally weighted rank-one family
    const[:<c>]                      constant vector c * e_1
    zero                             the zero function
    """
    parts = str(name).split(":")
    family = parts[0]
    if family == "weighted":
        if len(parts) < 2:
            raise DomainError("weighted descriptor needs a profile, e.g. weighted:sin")
        omega = 1.0
        for extra in parts[2:]:
            key, _, val = extra.partition("=")
            if key != "omega" or not val:
                raise DomainError(f"unknown descriptor option {extra!r}")
            omega = _parse_number(val, "omega", name)
        return make_b_weighted(spectrum_values, profile=parts[1], omega=omega)
    if family == "const":
        c = _parse_number(parts[1], "constant", name) if len(parts) > 1 else 1.0
        if not 0.0 <= abs(c) <= 1.0:
            raise DomainError("constant drift must have |c| <= 1 to stay certified")
        lam = _spectrum_values(spectrum_values)
        vector = np.zeros(lam.size)
        vector[0] = c
        with np.errstate(over="ignore"):
            w0 = lam[0] * np.exp(2.0 * lam[0])
        # the zero vector has weighted norm 0 even where lam_1 e^(2 lam_1) overflows
        return _certified(f"const:{c:g}", "one", 1.0, vector, [w0 if c else 0.0], [c], 0)
    if family == "zero":
        return make_b_weighted(spectrum_values, profile="zero")
    if family == "time":
        if len(parts) < 2 or parts[1] != "sin_pi":
            raise DomainError("time family supports time:sin_pi")
        return make_b_weighted(spectrum_values, profile="time_sin")
    raise DomainError(f"unknown drift function {name!r}")


def resolve_h(name: str, spectrum_values) -> ShiftDescriptor:
    """Shift from a config name: e<k>:<profile>[:<scale>], or zero."""
    text = str(name)
    if text == "zero":
        return zero_shift(spectrum_values)
    parts = text.split(":")
    if not parts[0].startswith("e") or not parts[0][1:].isdigit():
        raise DomainError(f"unknown shift {name!r}; expected e<k>:<profile> or zero")
    index = int(parts[0][1:]) - 1
    if len(parts) < 2:
        raise DomainError(f"shift {name!r} needs a profile, e.g. e1:sin_pi_t")
    profile = ":".join(parts[1:])
    return _build_shift(text, spectrum_values, {index: profile}, allow_zero=False)
