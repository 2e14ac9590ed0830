"""Experiment runner.

Subcommands

  constants       deterministic table of the drift-rate constants
  verify-prop21   exponential moment of int b'(t, Z_t) dt, scalar process
  verify-thm23    exponential moment of the shift functional, Hilbert process
  concentration   empirical window tails against 3 exp(-beta eta^2)
  moments         p-th moments against the derived-exponent bound
  decomposition   forward/backward integral residual under grid refinement

Configuration is plain key=value text (one pair per line, # comments)
passed with --config; any command-line flag overrides the file.  Every
stochastic command requires an explicit seed: there is no wall-clock
fallback, runs are reproducible or they do not start.

Results go to --out as JSON (schema 1) or CSV; a one-line PASS/FAIL
verdict per check is printed either way, naming the inequality it
tested.  Exit status: 0 all checks passed, 1 a bound was violated,
2 the configuration did not parse, a value lies outside the range its
guard (errors._check_count, errors._check_positive) or library check
allows, or an output could not be written.

The payload is a pure function of the canonical config and seed, given
the versions its provenance block records (the stream contract id, numpy,
Python and oulab); worker count and output destinations never enter it,
and the timing block is informational only.

COMMANDS is the one place that defines a command: its flags with their
defaults and help, its check function and its CSV columns.  The parser,
the defaults and the accepted config keys are generated from it, and one
runner does the steps every command shares.  To add a command, write its
check and add an entry there.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import platform
import re
import sys
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import DriftSpectrum, alpha_components, exp_weighted_alpha
from .errors import ConfigError, DomainError, _check_count, _check_positive
from .fnlib import resolve_b, resolve_h
from .functionals import (
    STATEMENT_DECOMPOSITION,
    STATEMENT_GAMMA,
    Coordinate,
    ExperimentSpec,
    check_prop21,
    check_thm23,
    concentration_tail,
    gamma_step_check,
    moment_bound,
)
from . import __version__
from .ousim import BLOCK, STREAM_CONTRACT, _check_seed
from .reversal import covariation_check, decomposition_verdict

SCHEMA = 1
MAX_DUMP_ROWS = 2_000_000

# keys that never influence results, excluded from the canonical form
_PLUMBING_KEYS = frozenset({"workers", "out", "dump", "dump_paths", "format"})

_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def _normalize_key(key: str) -> str:
    return key.strip().lower().replace("-", "_")


def parse_config_text(text: str) -> dict:
    """key=value lines to a dict; blank lines and # comments ignored."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = _normalize_key(key)
        if not _KEY_RE.match(key):
            raise ConfigError(f"config line {lineno}: bad key {key!r}")
        out[key] = value.strip()
    return out


def serialize_config(entries) -> str:
    """Normalized text form: sorted key=value lines, one per key."""
    items = sorted(dict(entries).items())
    return "".join(f"{k}={v}\n" for k, v in items)


@dataclass(frozen=True)
class RunConfig:
    """One command plus its normalized settings, all values as text.

    parse and serialize round-trip exactly: parsing the serialized form
    reproduces the same object.
    """

    command: str
    entries: tuple  # sorted ((key, value), ...) pairs of str

    @classmethod
    def build(cls, command, defaults, file_text=None, overrides=None):
        merged = dict(defaults)
        if file_text is not None:
            merged.update(parse_config_text(file_text))
        if overrides:
            merged.update({_normalize_key(k): str(v) for k, v in overrides.items()})
        return cls(command=command, entries=tuple(sorted(merged.items())))

    def serialize(self) -> str:
        return serialize_config(self.entries)

    def canonical(self) -> "RunConfig":
        kept = tuple((k, v) for k, v in self.entries if k not in _PLUMBING_KEYS)
        return RunConfig(command=self.command, entries=kept)

    def spec_hash(self) -> str:
        text = self.command + "\n" + self.canonical().serialize()
        return hashlib.sha256(text.encode()).hexdigest()

    # typed accessors: text that does not parse is a config error, a parsed
    # value out of range the guard's domain error; both exit with code 2

    def get(self, key, default=None):
        for k, v in self.entries:
            if k == key:
                return v
        return default

    def require(self, key):
        """The text of a setting that has no default."""
        raw = self.get(key)
        if raw is None:
            raise ConfigError(f"missing required setting {key!r}")
        return raw

    def _parse(self, key, kind, what):
        raw = self.require(key)
        try:
            return kind(raw)
        except ValueError:
            raise ConfigError(f"{key} must be {what}, got {raw!r}") from None

    def get_int(self, key, default=None, minimum=1):
        if default is not None and self.get(key) is None:
            return default
        return _check_count(self._parse(key, int, "an integer"), key, minimum)

    def get_float(self, key, default=None):
        """The setting as a float, any float: the check that reads it owns its range."""
        if default is not None and self.get(key) is None:
            return default
        return self._parse(key, float, "a number")

    def get_floats(self, key):
        raw = self.require(key)
        try:
            vals = [float(v) for v in raw.split(",") if v.strip() != ""]
        except ValueError:
            raise ConfigError(f"{key} must be a comma list of numbers, got {raw!r}") from None
        if not vals:
            raise ConfigError(f"{key} must list at least one number, got {raw!r}")
        return vals

    def get_ints(self, key):
        out = []
        for v in self.get_floats(key):
            if not v.is_integer():  # also false for inf and nan
                raise ConfigError(f"{key} must contain integers, got {v}")
            out.append(int(v))
        return out

    def get_seed(self) -> int:
        if self.get("seed") is None:
            raise ConfigError("seed is required: pass --seed or set seed= in the config")
        return _check_seed(self._parse("seed", int, "an integer"))


def parse_grid(text: str) -> np.ndarray:
    """Grid spec: log:lo:hi:n, lin:lo:hi:n, or a comma list."""
    parts = str(text).split(":")
    if parts[0] in ("log", "lin"):
        if len(parts) != 4:
            raise ConfigError(f"grid spec {text!r}: expected {parts[0]}:lo:hi:n")
        try:
            lo, hi, n = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError:
            raise ConfigError(f"grid spec {text!r} does not parse") from None
        if not lo < hi:  # NaN fails too
            raise ConfigError(f"grid spec {text!r}: need lo < hi")
        n = _check_count(n, "grid size n", 1)
        if parts[0] == "log":
            return np.geomspace(_check_positive(lo, "log grid lo"), hi, n)
        return np.linspace(lo, hi, n)
    try:
        return np.asarray([float(v) for v in str(text).split(",")], dtype=np.float64)
    except ValueError:
        raise ConfigError(f"grid spec {text!r} does not parse") from None


_FAMILY_RE = re.compile(r"^n\^2:(\d+)$")


def parse_spectrum(text: str) -> DriftSpectrum:
    """Spectrum spec: explicit comma list, or the family n^2:<N>."""
    m = _FAMILY_RE.match(str(text).strip())
    if m:
        return DriftSpectrum.quadratic(int(m.group(1)))
    try:
        vals = tuple(float(v) for v in str(text).split(","))
    except ValueError:
        raise ConfigError(f"spectrum {text!r} does not parse") from None
    return DriftSpectrum(vals)


def parse_vector(text, truncation, name):
    """Comma list, right-padded with zeros to the truncation."""
    if text is None:
        return None
    try:
        vals = [float(v) for v in str(text).split(",")]
    except ValueError:
        raise ConfigError(f"{name} must be a comma list of numbers, got {text!r}") from None
    if len(vals) > truncation:
        raise ConfigError(f"{name} has {len(vals)} entries; truncation is {truncation}")
    vals = vals + [0.0] * (truncation - len(vals))
    return tuple(vals)


# ----------------------------------------------------------------------
# output plumbing
# ----------------------------------------------------------------------


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


@contextmanager
def _open_out(path, **kwargs):
    """open(path, "w"); failing to create or write the file is a config error."""
    try:
        with open(path, "w", **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _check_writable(path):
    """Refuse an output path that cannot be created, before any sampling.

    _open_out still maps a failure at write time to a config error.
    """
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write {path}: no directory {parent}")
    if not os.access(parent, os.W_OK):
        raise ConfigError(f"cannot write {path}: directory {parent} is not writable")


def _emit(cfg: RunConfig, payload, rows, fieldnames):
    """Write JSON (whole payload) or CSV (just the rows) to --out/stdout."""
    if cfg.get("format") == "json":
        text = json.dumps(payload, indent=2, default=_json_default) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
        text = buf.getvalue()
    out = cfg.get("out")
    if out:
        with _open_out(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _payload(cfg: RunConfig, results, passed, seconds, seed=None, extra=None):
    doc = {
        "schema": SCHEMA,
        "command": cfg.command,
        "spec_hash": cfg.spec_hash(),
        "config": dict(cfg.canonical().entries),
    }
    if seed is not None:
        doc["seed"] = seed
    if extra:
        doc.update(extra)
    doc["results"] = results
    if passed is not None:
        doc["pass"] = passed
    doc["provenance"] = {
        "stream_contract": STREAM_CONTRACT,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "oulab": __version__,
    }
    doc["timing"] = {"seconds": round(seconds, 6)}
    return doc


def _dump_paths(cfg: RunConfig) -> int:
    """Paths to dump (0 without --dump), validated before any sampling."""
    if cfg.get("dump") is None:
        return 0
    k = _check_count(cfg.get_int("dump_paths"), "dump_paths", 1, BLOCK + 1)  # the rows of block 0
    m = cfg.get_int("m", minimum=2)
    if k * (m + 1) > MAX_DUMP_ROWS:
        raise ConfigError(f"dump of {k * (m + 1)} rows exceeds the {MAX_DUMP_ROWS} row cap; lower dump_paths or m")
    return k


def _write_dump(path, k, seed, coord: Coordinate):
    """CSV of the state values the run consumed: the first k paths of block 0 of coord."""
    times, values = coord.times(), coord.paths(seed, 0, (0, k))
    with _open_out(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path_id", "component", "t", "value"])
        for pid in range(k):
            for t, v in zip(times, values[pid]):
                writer.writerow([pid, coord.component, repr(float(t)), repr(float(v))])


# ----------------------------------------------------------------------
# checks: each reads its settings, runs one library check and returns
# an Outcome.  Library functions are looked up in this module's globals
# at call time, so tests and tracers can patch them here.
# ----------------------------------------------------------------------


class Outcome(NamedTuple):
    """What a check hands to the runner."""

    rows: list  # one dict per row holding at least the command's columns
    verdicts: list  # (passed, statement, detail), one stderr line each; none for a table
    extra: dict = None  # payload fields placed before the results
    coordinate: Coordinate = None  # the coordinate the check sampled, which --dump writes


def _row(verdict, mean="mean", limit="bound", **labels) -> dict:
    """A result row: the check's labels, then the verdict's fields; mean and limit name their columns."""
    return {**labels, mean: verdict.mean, "stderr": verdict.stderr, "n": verdict.n, "upper999": verdict.upper999,
            limit: verdict.limit, "max_summand": verdict.max_summand, "pass": verdict.passed}


def _sampling(cfg: RunConfig, seed):
    """Seed and sizes of a Monte Carlo check, as keyword arguments."""
    n_paths = cfg.get_int("n", minimum=2)
    return dict(seed=seed, n_paths=n_paths, m=cfg.get_int("m", minimum=2), workers=cfg.get_int("workers"))


def _hilbert(cfg: RunConfig, seed) -> ExperimentSpec:
    """The ExperimentSpec of a Hilbert-space command, on the listed spectrum truncated to --truncation."""
    listed = parse_spectrum(cfg.get("spectrum"))
    spectrum = listed.truncate(cfg.get_int("truncation", len(listed)))
    return ExperimentSpec(spectrum, resolve_b(cfg.get("b"), spectrum.eigenvalues), **_sampling(cfg, seed))


def _window(cfg: RunConfig, truncation):
    """Start value and window [r, u] of the window commands, as keyword arguments."""
    return dict(x0=parse_vector(cfg.get("x0"), truncation, "x0"), r=cfg.get_float("r"), u=cfg.get_float("u"))


def _constants(cfg: RunConfig, seed):
    grid = parse_grid(cfg.get("lambda_grid"))
    p = alpha_components(grid)
    cols = np.broadcast_arrays(p.lam, p.d_lambda, p.alpha1, p.alpha2, p.alpha3, p.alpha, exp_weighted_alpha(grid))
    return Outcome([dict(zip(CONSTANTS_COLUMNS, row)) for row in np.column_stack(cols).tolist()], [])


def _prop21(cfg: RunConfig, seed):
    lam = _check_positive(cfg.get_float("lambda"), "lambda")
    sizes = _sampling(cfg, seed)
    b = resolve_b(cfg.get("b"), [lam])
    res = check_prop21(lam, b, **sizes)
    (row,) = res.rows
    detail = f"lambda={lam:g} upper999={row.upper999:.6g} bound={row.limit:g}"
    rows = [_row(row, statement=res.statement, **{"lambda": lam}, alpha=res.alpha, b=b.name, m=sizes["m"])]
    return Outcome(rows, [(res.passed, res.statement, detail)], coordinate=res.coordinate)


def _thm23(cfg: RunConfig, seed):
    spec = _hilbert(cfg, seed)
    h = resolve_h(cfg.get("h"), spec.spectrum.eigenvalues)
    res = check_thm23(spec, h, cfg.get_float("ell"))
    (row,) = res.rows
    detail = f"b={spec.b.name} upper999={row.upper999:.6g} bound={row.limit:g}"
    rows = [_row(row, statement=res.statement, spectrum=cfg.get("spectrum"), truncation=len(spec.spectrum),
                 b=spec.b.name, h=h.name, ell=res.ell, beta=res.beta, rate=res.rate, h_sup=res.h_sup, m=spec.m)]
    return Outcome(rows, [(res.passed, res.statement, detail)], coordinate=res.coordinate)


def _concentration(cfg: RunConfig, seed):
    etas = cfg.get_floats("etas")
    h1 = cfg.require("h1")
    spec = _hilbert(cfg, seed)
    live = spec.spectrum.eigenvalues
    h1, h2 = resolve_h(h1, live), resolve_h(cfg.get("h2"), live)
    res = concentration_tail(spec, h1, h2, etas, **_window(cfg, len(live)))
    rows = [_row(row, "empirical", statement=res.statement, eta=eta, threshold=thr)
            for eta, thr, row in zip(res.etas, res.thresholds, res.rows)]
    extra = dict(beta=res.beta, ell=res.ell, diff_sup=res.diff_sup, degenerate=res.degenerate, note=res.note,
                 n=spec.n_paths, m=spec.m)
    worst = max(row.upper999 - row.limit for row in res.rows)
    detail = f"etas={','.join(f'{e:g}' for e in etas)} worst_excess={worst:.3g}"
    return Outcome(rows, [(res.passed, res.statement, detail)], extra, res.coordinate)


def _moments(cfg: RunConfig, seed):
    ps = cfg.get_ints("ps")
    x, y = cfg.require("x"), cfg.require("y")
    spec = _hilbert(cfg, seed)
    n = len(spec.spectrum)
    res = moment_bound(spec, parse_vector(x, n, "x"), parse_vector(y, n, "y"), ps, **_window(cfg, n))
    rows = [_row(row, "moment", "bound_derived", statement=res.statement, p=p, bound_stated=stated)
            for p, stated, row in zip(res.ps, res.bounds_stated, res.rows)]
    gamma_rows = [{"statement": STATEMENT_GAMMA, "p": p, "lhs": lhs, "rhs": rhs, "pass": ok}
                  for p, lhs, rhs, ok in gamma_step_check(20)]
    extra = dict(beta=res.beta, ell=res.ell, separation=res.separation, degenerate=res.degenerate, note=res.note,
                 n=spec.n_paths, m=spec.m, gamma_results=gamma_rows)
    verdicts = [(res.passed, res.statement, f"ps={','.join(map(str, ps))} sep={res.separation:g}"),
                (all(r["pass"] for r in gamma_rows), STATEMENT_GAMMA, "p=1..20")]
    return Outcome(rows, verdicts, extra, res.coordinate)


def _decomposition(cfg: RunConfig, seed):
    lam = _check_positive(cfg.get_float("lambda"), "lambda")
    m_list = cfg.get_ints("m_list")
    if len(m_list) < 2:
        raise ConfigError(f"m_list needs at least two grid sizes for a refinement trend, got {m_list}")
    n, workers = cfg.get_int("n", minimum=2), cfg.get_int("workers")
    b = resolve_b(cfg.get("b"), [lam])
    reports = covariation_check(b, lam, m_list, n_paths=n, seed=seed, workers=workers)
    rows = [dict(statement=STATEMENT_DECOMPOSITION, m=r.m, n=r.n_paths, lhs_mean=r.lhs, covariation_mean=r.covariation,
                 i1_mean=r.i1, i2_mean=r.i2, i3_mean=r.i3, residual_mean=r.residual, cov_residual_mean=r.cov_residual,
                 i2_head_mass=r.i2_head_mass) for r in reports]
    residuals = [r.cov_residual for r in reports]
    passed = decomposition_verdict(residuals)
    detail = f"lambda={lam:g} residuals {' -> '.join(f'{v:.3e}' for v in residuals)}"
    return Outcome(rows, [(passed, STATEMENT_DECOMPOSITION, detail)])


# ----------------------------------------------------------------------
# the command table: a command is its flags, its check and its columns
# ----------------------------------------------------------------------


class Flag(NamedTuple):
    """A command-line flag and its default; the config key is the flag name, normalized."""

    flag: str
    default: str | None
    help: str
    choices: tuple = None

    @property
    def key(self) -> str:
        return _normalize_key(self.flag.lstrip("-"))


class Command(NamedTuple):
    """A subcommand: its help line, flags, check and the columns of its result rows."""

    help: str
    flags: tuple
    check: Callable  # (cfg, seed) -> Outcome; seed is None for a command without --seed
    columns: tuple

    @property
    def keys(self) -> set:
        return {f.key for f in self.flags}

    @property
    def defaults(self) -> dict:
        return {f.key: f.default for f in self.flags if f.default is not None}


_OUT = Flag("--out", None, "write results here instead of stdout")
_M = Flag("--M", "4096", "time grid steps")
_LAMBDA = Flag("--lambda", None, "drift rate of the scalar process")
_WINDOW = (
    Flag("--x0", None, "start value at r, comma list (default 0)"),
    Flag("--r", "0", "window start in [0,1)"),
    Flag("--u", "1", "window end in (r,1]"),
)


def _format(default):
    return Flag("--format", default, "output format", ("json", "csv"))


def _b(help):
    return Flag("--b", "weighted:sin", help)


def _sampling_flags(n="100000"):
    return (
        _OUT,
        _format("json"),
        Flag("--seed", None, "RNG seed (required, 64-bit)"),
        Flag("--n", n, "number of Monte Carlo paths"),
        Flag("--workers", "1", "lanes: p runs min(max(2, p), row chunks) lane threads in this one process; "
                               "never changes results"),
    )


# a command dumps exactly when it has these flags: --dump writes paths its check sampled
_DUMP = (
    Flag("--dump", None, "also write sampled state values as CSV (path_id, component, t, value)"),
    Flag("--dump-paths", "8", "paths in the dump (default 8, max 256)"),
)


def _hilbert_flags(spectrum, truncation_help="live components"):
    return _sampling_flags() + _DUMP + (
        _M,
        Flag("--spectrum", spectrum, "comma list or n^2:<N>"),
        Flag("--truncation", None, truncation_help),
        _b("drift function name"),
    )


COMMANDS = {
    "constants": Command(
        "deterministic constants table",
        (_OUT, _format("csv"), Flag("--lambda-grid", "log:1e-4:1e2:400", "log:lo:hi:n, lin:lo:hi:n, or comma list")),
        _constants,
        ("lambda", "d_lambda", "alpha1", "alpha2", "alpha3", "alpha", "h"),
    ),
    "verify-prop21": Command(
        "exponential moment of int b' dt, scalar process",
        _sampling_flags() + _DUMP + (_LAMBDA, _M, _b("drift function name, e.g. weighted:sin")),
        _prop21,
        ("statement", "lambda", "alpha", "b", "n", "m", "mean", "stderr", "upper999", "bound", "max_summand", "pass"),
    ),
    "verify-thm23": Command(
        "exponential moment of the shift functional",
        _hilbert_flags("n^2:16", "live components (default: all listed)") + (
            Flag("--h", "e1:sin_pi_t", "shift name, e.g. e1:sin_pi_t"),
            Flag("--ell", "1", "window length scaling the rates"),
        ),
        _thm23,
        ("statement", "spectrum", "truncation", "b", "h", "ell", "beta", "rate", "h_sup", "n", "m", "mean",
         "stderr", "upper999", "bound", "max_summand", "pass"),
    ),
    "concentration": Command(
        "window tail probabilities",
        _hilbert_flags("1,4") + (
            Flag("--h1", None, "first shift name"),
            Flag("--h2", "zero", "second shift name (default zero)"),
            *_WINDOW,
            Flag("--etas", "0.5,1,2,4", "comma list of tail levels"),
        ),
        _concentration,
        ("statement", "eta", "threshold", "empirical", "stderr", "bound", "pass"),
    ),
    "moments": Command(
        "p-th moment bounds for constant shifts",
        _hilbert_flags("1,4") + (
            Flag("--x", None, "first constant shift, comma list"),
            Flag("--y", None, "second constant shift, comma list"),
            *_WINDOW,
            Flag("--ps", "1,2,4", "comma list of moment orders"),
        ),
        _moments,
        ("statement", "p", "moment", "stderr", "upper999", "bound_derived", "bound_stated", "pass"),
    ),
    "decomposition": Command(
        "forward/backward residual vs grid refinement",
        _sampling_flags(n="20000") + (
            _LAMBDA,
            Flag("--m-list", "256,1024,4096", "comma list of grid sizes, increasing"),
            _b("smooth drift function name"),
        ),
        _decomposition,
        ("statement", "m", "n", "lhs_mean", "covariation_mean", "i1_mean", "i2_mean", "i3_mean", "residual_mean",
         "cov_residual_mean", "i2_head_mass"),
    ),
}

CONSTANTS_COLUMNS = list(COMMANDS["constants"].columns)


def _run(cfg: RunConfig) -> bool:
    """Run cfg's command; True when every verdict passed.

    Settings the command does not read, a bad format, an oversized dump,
    an output path that cannot be created and --out and --dump naming
    one file are rejected before the check, so they cost no Monte Carlo
    run.
    """
    t0 = time.perf_counter()
    cmd = COMMANDS[cfg.command]
    unknown = sorted({k for k, _ in cfg.entries} - cmd.keys)
    if unknown:
        raise ConfigError(f"{cfg.command} has no setting {', '.join(map(repr, unknown))}")
    seed = cfg.get_seed() if "seed" in cmd.keys else None
    for f in cmd.flags:
        if f.choices and cfg.get(f.key) not in f.choices:
            raise ConfigError(f"{f.key} must be {' or '.join(f.choices)}, got {cfg.get(f.key)!r}")
    dump_paths = _dump_paths(cfg)
    outputs = [path for path in (cfg.get("out"), cfg.get("dump") if dump_paths else None) if path]
    for path in outputs:
        _check_writable(path)
    if len(outputs) == 2 and os.path.realpath(outputs[0]) == os.path.realpath(outputs[1]):
        raise ConfigError(f"--out and --dump both name {outputs[0]}; the dump would be overwritten by the payload")
    out = cmd.check(cfg, seed)
    rows = [{c: row[c] for c in cmd.columns} for row in out.rows]
    if dump_paths:
        _write_dump(cfg.get("dump"), dump_paths, seed, out.coordinate)
    passed = all(ok for ok, _, _ in out.verdicts)
    payload = _payload(cfg, rows, passed if out.verdicts else None, time.perf_counter() - t0, seed, out.extra)
    _emit(cfg, payload, rows, cmd.columns)
    # stdout is reserved for the JSON/CSV payload; humans read stderr
    for ok, statement, detail in out.verdicts:
        print(f"{'PASS' if ok else 'FAIL'} {cfg.command}: {statement} [{detail}]", file=sys.stderr)
    if not out.verdicts:
        print(f"{cfg.command}: {len(rows)} rows", file=sys.stderr)
    return passed


def _build_parser():
    import argparse

    top = argparse.ArgumentParser(prog="oulab", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument("--config", help="key=value config file; flags override it")
        for f in cmd.flags:
            p.add_argument(f.flag, help=f.help, choices=f.choices)
    return top


def _attach_values(argv):
    """argv with each flag of the command and a '-'-led value after it joined as --flag=value.

    argparse reads a token such as -0.1,0 as an option.  Every flag takes
    exactly one value, so a token after a flag that is not itself one of
    the command's flags is that flag's value.
    """
    cmd = COMMANDS.get(argv[0]) if argv else None
    if cmd is None:
        return argv
    flags = {f.flag for f in cmd.flags} | {"--config", "-h", "--help"}
    out = argv[:1]
    for token in argv[1:]:
        if token.startswith("-") and token not in flags and out[-1] in flags:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else list(argv)))
    raw = vars(args)
    command = raw.pop("command")
    config_path = raw.pop("config", None)
    file_text = None
    if config_path:
        try:
            with open(config_path) as fh:
                file_text = fh.read()
        except OSError as exc:
            print(f"error: cannot read config {config_path}: {exc}", file=sys.stderr)
            return 2
    overrides = {k: v for k, v in raw.items() if v is not None}
    try:
        passed = _run(RunConfig.build(command, COMMANDS[command].defaults, file_text, overrides))
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
