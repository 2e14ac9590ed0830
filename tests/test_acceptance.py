"""Acceptance suite: one test per release criterion, one verdict line each.

Every test prints a single PASS line with the measured numbers when it
holds; pytest's own FAILED line is the failure verdict.  Monte Carlo
criteria run at their stated sizes (n = 10^5 paths, M = 2^12 steps where
applicable), so this file dominates the suite's runtime.
"""

import json
import math

import numpy as np
from scipy.stats import kstest

import oulab.cli as cli
from oulab.constants import (
    ALPHA_UNIT_INTERVAL,
    RATE_FLOOR,
    DriftSpectrum,
    alpha,
    analytic_property_suite,
    default_lambda_grid,
    exp_weighted_alpha,
)
from oulab.fnlib import make_b_weighted, resolve_b, resolve_h, zero_shift
from oulab.functionals import (
    ExperimentSpec,
    check_prop21,
    check_thm23,
    concentration_tail,
    exp_moment,
    gamma_step_check,
    moment_bound,
)
from oulab.ousim import (
    BLOCK,
    PathStream,
    block_paths_1d,
    marginal_variance,
    sample_path_timechange,
    standard_normal,
    substream,
)
from oulab.parallel import block_layout
from oulab.reversal import covariation_check, decomposition_verdict

N_FULL = 100_000
M_FULL = 4096
KS_FLOOR = 1e-3
# criterion 11 and the CLI worker-invariance tests pin results bitwise
# across worker counts, so the Monte Carlo criteria may run a pool of two
WORKERS = 2


def _verdict(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_alpha_constant_on_unit_interval():
    worst = 0.0
    for lam in (0.01, 0.1, 0.5, 1.0):
        rel = abs(alpha(lam) / (1.0 / 2304.0) - 1.0)
        worst = max(worst, rel)
        assert rel <= 1e-14, (lam, rel)
    assert ALPHA_UNIT_INTERVAL == 1.0 / 2304.0
    _verdict(1, f"alpha = 1/2304 on (0,1], worst relative error {worst:.2e} <= 1e-14")


def test_criterion_02_exponential_weight_floor():
    grid = default_lambda_grid(10**4)
    h = exp_weighted_alpha(grid)
    idx = int(np.argmin(h))
    floor = math.e / 1152.0
    assert RATE_FLOOR == floor
    assert float(np.min(h)) >= floor
    gap = float(h[idx]) - floor
    assert gap <= 1e-9, gap
    assert abs(float(grid[idx]) - 0.5) < 0.01
    _verdict(
        2,
        f"min alpha e^(2 lam)/lam over 10^4-point grid = floor + {gap:.2e} "
        f"at lam = {grid[idx]:.5f} (floor e/1152)",
    )


def test_criterion_03_analytic_property_suite():
    report = analytic_property_suite()
    for claim in report.claims:
        assert claim.passed, (claim.name, claim.worst_margin, claim.worst_at)
    assert report.claim("arctan gap positive").passed
    assert report.claim("clock ratio at 1 below 64").passed
    assert report.claim("alpha2 ratio above 1/pi^2").passed
    assert report.claim("alpha non-increasing").passed
    _verdict(3, f"all {len(report.claims)} analytic claims hold on the 10^4-point grids")


def _terminal_sample_recursive(lam, n, seed):
    parts = [block_paths_1d(lam, 8, seed, 0, blk)[:cnt, -1] for blk, cnt in block_layout(n)]
    return np.concatenate(parts)


def _terminal_sample_timechange(lam, n, seed):
    out = np.empty(n)
    for i in range(n):
        grid = sample_path_timechange(lam, 4, PathStream(seed=seed, path=i, component=0))
        out[i] = grid.values[-1]
    return out


def test_criterion_04_sampler_marginals_ks():
    details = []
    for lam in (0.25, 1.0, 4.0):
        sigma = math.sqrt(marginal_variance(lam, 1.0))
        for name, draw in (
            ("recursive", _terminal_sample_recursive),
            ("time-change", _terminal_sample_timechange),
        ):
            values = draw(lam, N_FULL, seed=404)
            res = kstest(values, "norm", args=(0.0, sigma))
            assert res.pvalue > KS_FLOOR, (name, lam, res.pvalue)
            details.append(f"{name} lam={lam:g} p={res.pvalue:.3f}")
    _verdict(4, f"Z_1 marginal KS at n = 10^5: " + ", ".join(details))


def test_criterion_05_gaussian_exponential_identity():
    g = standard_normal(substream(42, component=0, block=0), N_FULL)
    est = exp_moment(np.abs(g), alpha=0.25)
    err = abs(est.mean - math.sqrt(2.0))
    assert err <= 4.0 * est.stderr, (est.mean, est.stderr)
    _verdict(
        5,
        f"E exp(G^2/4) = {est.mean:.5f} vs sqrt(2) = {math.sqrt(2.0):.5f}, "
        f"|error| = {err:.2e} <= 4 se = {4.0 * est.stderr:.2e}",
    )


def test_criterion_06_exponential_moment_of_derivative_integral():
    details = []
    for lam in (0.25, 1.0, 4.0):
        res = check_prop21(
            lam, make_b_weighted([lam], profile="sin"), m=M_FULL, n_paths=N_FULL, seed=606, workers=WORKERS
        )
        (row,) = res.rows
        upper = row.upper999
        assert res.passed and upper <= 3.0, (lam, upper)
        details.append(f"lam={lam:g} upper999={upper:.4f}")
    _verdict(6, "E exp(alpha |int b'|^2) <= 3: " + ", ".join(details))


def test_criterion_07_decomposition_residual_shrinks():
    reports = covariation_check(
        make_b_weighted([1.0], profile="sin"),
        lam=1.0,
        m_list=[256, 1024, 4096],
        n_paths=20_000,
        seed=707,
        workers=WORKERS,
    )
    residuals = [r.cov_residual for r in reports]
    assert decomposition_verdict(residuals), residuals
    _verdict(
        7,
        "mean |backward - forward - int b' dt| over M = 256, 1024, 4096: "
        + " -> ".join(f"{v:.3e}" for v in residuals),
    )


def test_criterion_08_shift_functional_exponential_moment():
    spectrum = DriftSpectrum.quadratic(16)
    live = spectrum.eigenvalues[:16]
    details = []
    for b_name in ("weighted:sin", "weighted:sign"):
        spec = ExperimentSpec(
            spectrum=spectrum,
            truncation=16,
            b=resolve_b(b_name, live),
            seed=808,
            m=M_FULL,
            n_paths=N_FULL,
            workers=WORKERS,
        )
        res = check_thm23(spec, resolve_h("e1:sin_pi_t", live))
        (row,) = res.rows
        upper = row.upper999
        assert res.passed and upper <= 3.0, (b_name, upper)
        details.append(f"b={b_name} upper999={upper:.4f}")
    _verdict(8, "shift-functional moment, spectrum n^2 (N=16): " + ", ".join(details))


def test_criterion_09_concentration_tails():
    lam = (1.0, 4.0)
    spec = ExperimentSpec(
        spectrum=DriftSpectrum(lam),
        truncation=2,
        b=resolve_b("weighted:sin", lam),
        seed=909,
        m=M_FULL,
        n_paths=N_FULL,
        workers=WORKERS,
    )
    h1, h2 = resolve_h("e1:sin_pi_t", lam), zero_shift(lam)
    res = concentration_tail(spec, h1, h2, etas=(0.5, 1.0, 2.0, 4.0), r=0.25, u=0.75)
    assert res.passed and not res.degenerate
    pairs = ", ".join(f"eta={eta:g}: {r.upper999:.4f} <= {r.limit:.4f}" for eta, r in zip(res.etas, res.rows))
    _verdict(9, f"P[window integral > eta sqrt(l) sup|h1-h2|] <= 3 e^(-beta eta^2): {pairs}")


def test_criterion_10_moment_bounds_and_gamma_identity():
    lam = (1.0, 4.0)
    spec = ExperimentSpec(
        spectrum=DriftSpectrum(lam),
        truncation=2,
        b=resolve_b("weighted:sin", lam),
        seed=1010,
        m=M_FULL,
        n_paths=N_FULL,
        workers=WORKERS,
    )
    res = moment_bound(spec, (0.5, 0.0), (-0.5, 0.0), ps=(1, 2, 4))
    assert res.passed and not res.degenerate
    for p, row in zip(res.ps, res.rows):
        assert row.upper999 <= row.limit, (p, row.upper999, row.limit)
    gammas = gamma_step_check(20)
    assert all(ok for (_, _, _, ok) in gammas)
    pairs = ", ".join(f"p={p}: {r.mean:.4f} <= {r.limit:.4f}" for p, r in zip(res.ps, res.rows))
    _verdict(10, f"moments within the beta^(-p/2) bound ({pairs}); (3p/2)Gamma(p/2) <= 3p^(p/2) for p = 1..20")


def test_criterion_11_worker_count_invariance(tmp_path, capsys):
    docs = {}
    for command, extra in (
        ("verify-prop21", ["--lambda", "1"]),
        ("verify-thm23", ["--spectrum", "1,4"]),
    ):
        payloads = []
        for workers in ("1", "3"):
            out = tmp_path / f"{command}-w{workers}.json"
            argv = [
                command, "--seed", "1111", "--n", "600", "--M", "64",
                "--workers", workers, "--out", str(out), *extra,
            ]
            assert cli.main(argv) == 0
            doc = json.loads(out.read_text())
            doc.pop("timing")
            doc["config"].pop("workers", None)
            payloads.append(doc)
        assert payloads[0] == payloads[1], command
        docs[command] = payloads[0]["spec_hash"]
    capsys.readouterr()
    _verdict(
        11,
        "payloads identical across --workers 1 and 3 (timing excluded): "
        + ", ".join(f"{c} hash {h[:12]}" for c, h in docs.items()),
    )
