"""Time reversal, forward/backward grid integrals, and the covariation split.

For the process on [0, 1], the reversal Z-bar_s = Z_{1-s} solves an SDE
whose drift carries the explicit singular coefficient

    c(lam, s) = lam - 2 lam / (1 - e^(2 lam (s-1))) ,

finite on [0, 1) and blowing up like -1/(1-s) at the pinning time s = 1,
where the reversed path is forced back to Z_0 = 0.  On a grid the two
stochastic integrals are the endpoint Riemann sums

    forward  = sum_k b(t_k,     Z_k)     (Z_{k+1} - Z_k)
    backward = sum_k b(t_{k+1}, Z_{k+1}) (Z_{k+1} - Z_k)

whose difference is exactly the discrete covariation
sum_k [b(t_{k+1}, Z_{k+1}) - b(t_k, Z_k)] (Z_{k+1} - Z_k), the grid
version of int b'(s, Z_s) ds.  The same quantity splits into three
pieces through the reversed dynamics:

    int b' ds = -(I1 + I2 + I3),
    I1 = int b(1-s, Z-bar_s) dW-bar_s            (reversed-time Ito sum)
    I2 = int b(u, Z_u) Z_u c(lam, 1-u) du        (back in original time)
    I3 = int b(s, Z_s) dZ_s                      (forward integral)

I2's weight c(lam, 1-u) ~ -1/u is singular at u = 0 and only the
sqrt(u) decay of Z makes the integral converge, so the quadrature runs
on [t_1, 1] and the skipped head is reported through its deterministic
envelope mass (x1 + arctan x1)/sqrt(2 lam), x1 = sqrt(e^(2 lam t_1) - 1)
(the remaining factor, sup |B~_tau|/sqrt(tau) over the head clock, is
finite per path but not observable from the grid).

All integrands here are rank-one (FunctionDescriptor), so every H-valued
quantity is a scalar amplitude times the descriptor's fixed vector;
reports store the signed amplitude scaled by |vector|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _check_count, _check_positive
from .fnlib import FunctionDescriptor
from .ousim import (PathGrid, _chunk_views, _grid, _lane_arrays, _trapezoid_rows, block_normals, block_paths_1d,
                    run_blocks, run_lanes)

EPS_PIN = 1e-9


def reversed_drift_coefficient(lam, t):
    """c(lam, t) = lam - 2 lam / (1 - e^(2 lam (t-1))) for 0 <= t < 1."""
    lam = _check_positive(lam, "rate")
    t_arr = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t_arr)) or np.any(t_arr < 0.0):
        raise DomainError("time must be finite and nonnegative")
    if np.any(t_arr >= 1.0 - EPS_PIN):
        raise DomainError(
            f"reversed drift is singular at the pinning time t = 1 (refusing t >= 1 - {EPS_PIN:g})"
        )
    # 1 - e^(2 lam (t-1)) = -expm1(2 lam (t-1)), computed without cancellation
    return lam - 2.0 * lam / (-np.expm1(2.0 * lam * (t_arr - 1.0)))


def _check_path(path: PathGrid):
    if not isinstance(path, PathGrid):
        raise DomainError("expected a PathGrid")
    if not np.all(np.isfinite(path.values)):
        raise DomainError("path values must be finite")


def _endpoint_terms(b: FunctionDescriptor, path: PathGrid):
    """(phi, dz): the profile at every grid point and the path's increments."""
    _check_path(path)
    return np.asarray(b.profile(path.times, path.values), dtype=np.float64), np.diff(path.values)


def forward_integral(b: FunctionDescriptor, path: PathGrid) -> np.ndarray:
    """Left-endpoint sum: sum_k b(t_k, Z_k) (Z_{k+1} - Z_k), a vector in H."""
    phi, dz = _endpoint_terms(b, path)
    return float(np.sum(phi[:-1] * dz)) * b.vector


def backward_integral(b: FunctionDescriptor, path: PathGrid) -> np.ndarray:
    """Right-endpoint sum: sum_k b(t_{k+1}, Z_{k+1}) (Z_{k+1} - Z_k)."""
    phi, dz = _endpoint_terms(b, path)
    return float(np.sum(phi[1:] * dz)) * b.vector


def discrete_covariation(b: FunctionDescriptor, path: PathGrid) -> np.ndarray:
    """sum_k [b(t_{k+1}, Z_{k+1}) - b(t_k, Z_k)] (Z_{k+1} - Z_k);
    equals backward - forward to rounding."""
    phi, dz = _endpoint_terms(b, path)
    return float(np.sum(np.diff(phi) * dz)) * b.vector


@dataclass(frozen=True)
class DecompositionReport:
    """Signed amplitudes (scaled by |vector|) of the covariation split.

    For a single path the fields are that path's values; aggregated
    reports from covariation_check carry per-path means of the signed
    fields and means of the absolute residuals.

    residual     = |lhs + (i1 + i2 + i3)|   (the three-term split)
    cov_residual = |covariation - lhs|      (the quadrature trend)
    """

    m: int
    n_paths: int
    lhs: float
    covariation: float
    i1: float
    i2: float
    i3: float
    residual: float
    cov_residual: float
    i2_head_mass: float

    def __post_init__(self):
        for name in ("lhs", "covariation", "i1", "i2", "i3", "residual", "cov_residual", "i2_head_mass"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"decomposition field {name} is not finite")


def _i2_head_mass(lam, t1):
    x1 = math.sqrt(math.expm1(2.0 * lam * t1))
    return (x1 + math.atan(x1)) / math.sqrt(2.0 * lam)


def _split_weights(lam, times):
    """The reversed-drift weights of the split on a grid: (I2's w, I1's c_rev).

    They depend only on (lam, times), so a run computes them once for
    all its paths.
    """
    # I2 in original time: weight c(lam, 1-u) on u in [t_1, 1]
    w = reversed_drift_coefficient(lam, 1.0 - times[1:-1])
    w = np.concatenate((w, [lam - 2.0 * lam / (-math.expm1(-2.0 * lam))]))  # u = 1 -> c(lam, 0)
    # I1 on the reversed path: c(lam, s) at the left ends s_0 = 0, ..., s_{M-1} = 1 - dt
    return w, reversed_drift_coefficient(lam, 1.0 - times[:0:-1])


def _split_arrays(b: FunctionDescriptor, times, values, weights, work=None):
    """Per-path signed amplitudes of (lhs, covariation, i1, i2, i3).

    values: (n, m+1); weights: _split_weights(lam, times); work: two
    work arrays of at least n * (m + 1) values and a flat scratch of at
    least n * m (a lane's scan, ousim._lane_arrays, free once the level's
    paths exist), allocated here when None.  Returns (n, 5).  A lane's
    work arrays hold half a chunk, so it calls this on groups of a
    chunk's rows (_covariation_levels); each row's values read only that
    row, so a group's rows are bitwise those of the whole chunk.  phi and
    phi' are evaluated into the two work arrays (out, the profiles' third
    argument), as (n, m+1) arrays of the shape and layout of values.
    Once lhs is summed phi' is dead, and its array takes every product;
    dz and each trapezoid run in the scratch.  So a block kernel's lane
    allocates nothing per chunk but the (n, 5) result.  Each reduction
    reads a forward, row-contiguous operand, so the sums come out as
    np.diff/np.trapezoid on fresh arrays.
    """
    n, m = values.shape[0], times.size - 1
    dt = 1.0 / m
    w, c_rev = weights
    work = np.empty((3, n * (m + 1))) if work is None else work
    phi, dphi = (a.reshape(-1)[: n * (m + 1)].reshape(n, m + 1) for a in work[:2])
    scratch, prod = work[2][: n * m].reshape(n, m), dphi[:, :m]
    phi = b.profile(times, values, phi)
    lhs = _trapezoid_rows(b.profile_dx(times, values, dphi), dt, scratch)

    dz = np.subtract(values[:, 1:], values[:, :-1], out=scratch)
    np.subtract(phi[..., 1:], phi[..., :-1], out=prod)
    cov = np.multiply(prod, dz, out=prod).sum(-1)
    i3 = np.multiply(phi[..., :-1], dz, out=prod).sum(-1)

    np.multiply(phi[..., 1:], values[:, 1:], out=prod)
    i2 = _trapezoid_rows(np.multiply(prod, w, out=prod), dt, scratch[:, : m - 1])

    # I1 on the reversed path: dW-bar_k = dZ-bar_k - c(s_k) Z-bar_k ds,
    # Z-bar_k = Z_{m-k}, so Z-bar_{k+1} - Z-bar_k reads values[m-1-k] - values[m-k]
    np.multiply(c_rev, values[:, :0:-1], out=prod)
    np.multiply(prod, dt, out=prod)
    dwbar = np.subtract(values[:, -2::-1], values[:, :0:-1], out=scratch)
    np.subtract(dwbar, prod, out=dwbar)
    i1 = np.multiply(phi[..., :0:-1], dwbar, out=dwbar).sum(-1)

    return np.stack([lhs, cov, i1, i2, i3], axis=-1)


def _report(b: FunctionDescriptor, lam, times, split) -> DecompositionReport:
    """Report of an (n, 5) split (_split_arrays) on the grid times; a single path is n = 1."""
    lhs, cov, i1, i2, i3 = (split[:, j] * b.vector_norm for j in range(5))
    return DecompositionReport(
        m=times.size - 1,
        n_paths=split.shape[0],
        lhs=float(np.mean(lhs)),
        covariation=float(np.mean(cov)),
        i1=float(np.mean(i1)),
        i2=float(np.mean(i2)),
        i3=float(np.mean(i3)),
        residual=float(np.mean(np.abs(lhs + i1 + i2 + i3))),
        cov_residual=float(np.mean(np.abs(cov - lhs))),
        i2_head_mass=_i2_head_mass(lam, times[1]),
    )


def decompose_path(b: FunctionDescriptor, path: PathGrid) -> DecompositionReport:
    """Covariation split of one path on [0, 1]; b must be smooth."""
    _check_path(path)
    if not b.smooth:
        raise DomainError(f"descriptor {b.name!r} has no derivative; the split needs b'")
    if abs(path.horizon - 1.0) > 1e-12:
        raise DomainError("the reversal formulas live on the unit interval")
    split = _split_arrays(b, path.times, path.values[np.newaxis, :], _split_weights(path.lam, path.times))
    return _report(b, path.lam, path.times, split)


def _covariation_levels(count, seed, lam, m_list, b, *, lanes):
    """The split of paths [0, count) at every M of m_list: (count, len(m_list), 5).

    The run computes each level's grid and split weights once, and
    deals its row chunks, in path order and across block boundaries, to
    `lanes` lanes (ousim.run_lanes).  A lane allocates its workspace
    (ousim._lane_arrays), a path buffer for the lower levels and the
    split's two work arrays once per run, and draws each chunk it takes
    once, at the finest M, into its path buffer (ousim._chunk_views);
    level M reads the first M normals of each row, bitwise its own draw
    (see covariation_check).  The lower levels' paths go to the lower
    buffer, sized for the largest of them, and the finest level, the
    last to read the normals, writes its paths over them.  The split's
    phi and phi' arrays hold half a chunk at the finest level,
    ceil(rows/2) * (m_max + 1) values each, and with the lane's scan
    serve every level: level m splits its paths in consecutive groups
    of as many rows as fit in them, so a level that fits whole runs as
    one group and the finest as at most two.  A chunk allocates only
    its results.
    """
    grids = [_grid(m, 1.0) for m in m_list]
    weights = [_split_weights(lam, times) for times in grids]
    m_max = m_list[-1]
    out = np.empty((count, len(m_list), 5))

    def lane(rows, chunks):
        scan, paths = _lane_arrays(rows, m_max)
        lower = np.empty(rows * (max(m_list[:-1], default=-1) + 1))
        half = -(-rows // 2) * (m_max + 1)  # values in half a chunk at the finest level
        work = (*np.empty((2, half)), scan)
        for blk, start, stop, at in chunks:
            n = stop - start
            normals, top = _chunk_views(paths, n, m_max)
            block_normals(seed, b.direction, blk, m_max, rows=(start, stop), out=normals)
            for k, m in enumerate(m_list):
                values = block_paths_1d(lam, m, seed, b.direction, blk, rows=(start, stop), normals=normals[:, :m],
                                        out=top if m == m_max else _chunk_views(lower, n, m)[1], work=scan)
                group = half // (m + 1)
                for g in range(0, n, group):
                    split = _split_arrays(b, grids[k], values[g : g + group], weights[k], work)
                    out[at + g : at + g + len(split), k] = split

    run_lanes(count, m_max, lane, lanes=lanes)
    return out


def covariation_check(b: FunctionDescriptor, lam, m_list, n_paths, seed, workers=1):
    """Refinement trend of the covariation identity.

    For each M, takes n_paths paths, averages the split, and reports
    mean |backward - forward - int b' dt| as cov_residual.  The sequence
    of cov_residual means should decrease along m_list (the claim is
    convergence in probability; no rate is asserted).

    The levels are not independent samples: path r of every level reads
    the same stream row, so the level-M2 path starts with exactly the
    M1 normals of the level-M1 path and the levels are correlated.  One
    run_blocks call computes every level.
    """
    if not b.smooth:
        raise DomainError(f"descriptor {b.name!r} has no derivative; the split needs b'")
    m_list = [_check_count(m, "m", 2) for m in m_list]
    if not m_list or any(m2 <= m1 for m1, m2 in zip(m_list, m_list[1:])):
        raise DomainError("m_list must be nonempty and strictly increasing")
    lam = float(lam)
    split = run_blocks(_covariation_levels, n_paths, workers, (seed, lam, m_list, b))
    return [_report(b, lam, _grid(m, 1.0), split[:, k]) for k, m in enumerate(m_list)]


def decomposition_verdict(residuals) -> bool:
    """The decomposition check's verdict on its cov_residual means, one per M of m_list.

    The means must decrease under refinement, one violation forgiven.
    b' = 0 makes them exactly 0 at every M, where the decomposition holds
    exactly, so all-zero residuals pass (the convention of h1 = h2 and
    x = y).
    """
    return all(v == 0.0 for v in residuals) or trend_decreasing(residuals, allowed_violations=1)


def trend_decreasing(values, allowed_violations=1) -> bool:
    """Monotone-decrease check with a tolerance for MC noise.

    At most len(values) - 2 violations are forgiven, so at least one step
    must decrease: two values must decrease, and one value is no trend.
    """
    if len(values) < 2:
        raise DomainError("a trend needs at least two values")
    violations = sum(1 for a, b in zip(values, values[1:]) if b >= a)
    return violations <= min(allowed_violations, len(values) - 2)
