"""
Concentration tails and p-th moments on a window
================================================

The window statement: started anywhere at time r, the integral of
b(s, Z_s + h1(s)) - b(s, Z_s + h2(s)) over [r, u] exceeds
eta sqrt(l) sup|h1 - h2| with probability at most 3 e^(-beta eta^2).
Integrating that tail gives p-th moment bounds; the exponent on beta
that survives the integration is -p/2, and the run reports the stated
(+p/2) reading alongside it because the two differ enormously when
beta is small.
"""

from oulab import (
    DriftSpectrum,
    ExperimentSpec,
    concentration_tail,
    gamma_step_check,
    moment_bound,
    resolve_b,
    resolve_h,
    zero_shift,
)

# one spec serves both checks; the shifts, the window [r, u] and the
# start value x0 are arguments of the check that reads them
lam = (1.0, 4.0)
spec = ExperimentSpec(
    spectrum=DriftSpectrum(lam),
    b=resolve_b("weighted:sin", lam),
    seed=12,
    m=512,
    n_paths=8192,
)
h1, h2 = resolve_h("e1:sin_pi_t", lam), zero_shift(lam)
res = concentration_tail(spec, h1, h2, etas=(0.5, 1.0, 2.0, 4.0), r=0.25, u=0.75, x0=(0.3, 0.0))
print(f"beta = {res.beta:.6e}, window length l = {res.ell:g}, sup |h1 - h2| = {res.diff_sup:.4f}")
print("  eta   threshold   empirical   upper999    bound")
for eta, threshold, row in zip(res.etas, res.thresholds, res.rows):
    print(f"{eta:5.1f}   {threshold:.5f}     {row.mean:.5f}     {row.upper999:.5f}     {row.limit:.5f}")

# constant shifts x and y on [0, 1] from 0: the moment bound with the derived exponent
mres = moment_bound(spec, x=(0.5, 0.0), y=(-0.5, 0.0), ps=(1, 2, 4))
print(f"\n|x - y| = {mres.separation:g}")
print("  p   moment        beta^(-p/2) bound   beta^(+p/2) reading")
for p, stated, row in zip(mres.ps, mres.bounds_stated, mres.rows):
    print(f"{p:3d}   {row.mean:.6e}   {row.limit:.6e}   {stated:.6e}")
print("\nnote the +p/2 reading falls below the measured moment already at p = 1:")
print(f"  {mres.rows[0].mean:.4f} > {mres.bounds_stated[0]:.4f}, while the -p/2 bound holds with slack")

# the Gamma-function step used to integrate the tail, checked directly
print("\n(3p/2) Gamma(p/2) <= 3 p^(p/2) for p = 1..20:", all(ok for *_, ok in gamma_step_check(20)))
