"""
Exponential square-moments of path functionals
==============================================

Two Monte Carlo verdicts.  First the scalar warm-up: for a smooth
certified b, E exp(alpha |int_0^1 b'(t, Z_t) dt|^2) <= 3.  Then the
Hilbert-space statement: the shift functional J(b, h) satisfies
E exp(beta/sup|h|^2 |J|^2) <= 3, with beta computed from the spectrum.
Both bounds are loose by design, so the estimates sit far below 3.
"""

from oulab import (
    DriftSpectrum,
    ExperimentSpec,
    beta,
    check_prop21,
    check_thm23,
    make_b_weighted,
    resolve_b,
    resolve_h,
)

# scalar check at three rates; n is small here, the acceptance suite
# runs the full 10^5
for lam in (0.25, 1.0, 4.0):
    res = check_prop21(lam, make_b_weighted([lam], profile="sin"), m=512, n_paths=8192, seed=4)
    est = res.estimate
    print(
        f"lam={lam:<5g} alpha={res.alpha:.6f}  mean={est.mean:.6f}  "
        f"upper999={res.upper999:.6f}  bound={res.bound:g}  pass={res.passed}"
    )

# Hilbert-space check on the quadratic spectrum; beta is tiny because
# the rate infimum sits at the first eigenvalue
spectrum = DriftSpectrum.quadratic(16)
live = spectrum.eigenvalues
print(f"\nspectrum n^2, N=16: beta = {beta(spectrum.truncate(16)):.6e}")
for b_name in ("weighted:sin", "weighted:sign"):
    spec = ExperimentSpec(
        spectrum=spectrum,
        truncation=16,
        b=resolve_b(b_name, live),
        seed=4,
        m=512,
        n_paths=8192,
    )
    res = check_thm23(spec, resolve_h("e1:sin_pi_t", live))
    est = res.estimate
    print(
        f"b={b_name:14s} rate={res.rate:.6e}  mean={est.mean:.6f}  "
        f"upper999={res.upper999:.6f}  pass={res.passed}"
    )
print("\nthe discontinuous profile needs no derivative: the shift functional only evaluates b")
