"""Command line plumbing: config handling, hashing, output, exit codes."""

import csv
import dataclasses
import json
import math
import multiprocessing
import os
import platform
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oulab
import oulab.cli as cli
import oulab.parallel
from oulab.cli import (
    CONSTANTS_COLUMNS,
    ConfigError,
    RunConfig,
    parse_config_text,
    parse_grid,
    parse_spectrum,
    parse_vector,
    serialize_config,
)
from oulab.constants import beta
from oulab.errors import DomainError
from oulab.ousim import block_paths_1d


class TestConfigText:
    def test_parse_basics(self):
        text = "# comment\n\nn = 100\nseed=7\nb = weighted:sin\n"
        got = parse_config_text(text)
        assert got == {"n": "100", "seed": "7", "b": "weighted:sin"}

    def test_last_duplicate_wins(self):
        assert parse_config_text("n=1\nn=2\n") == {"n": "2"}

    def test_bad_line_reports_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config_text("n=1\n# ok\nnot a setting\n")

    def test_round_trip_is_stable(self):
        text = "zeta=9\nn = 100\n# note\nalpha=0.5\n"
        once = serialize_config(sorted(parse_config_text(text).items()))
        twice = serialize_config(sorted(parse_config_text(once).items()))
        assert once == twice
        assert once.splitlines() == ["alpha=0.5", "n=100", "zeta=9"]


class TestRunConfig:
    def test_precedence_flags_over_file_over_defaults(self):
        cfg = RunConfig.build(
            "verify-prop21",
            {"n": "100", "m": "64"},
            file_text="n=200\nseed=1\n",
            overrides={"n": "300"},
        )
        assert cfg.get("n") == "300"
        assert cfg.get("m") == "64"
        assert cfg.get("seed") == "1"

    def test_override_keys_normalized(self):
        cfg = RunConfig.build("verify-prop21", {}, None, {"M": "128", "dump-paths": "4"})
        assert cfg.get("m") == "128"
        assert cfg.get("dump_paths") == "4"

    def test_canonical_drops_plumbing(self):
        cfg = RunConfig.build(
            "moments", {}, None,
            {"n": "10", "workers": "4", "out": "x.json", "format": "csv", "dump": "d.csv", "dump_paths": "2"},
        )
        kept = dict(cfg.canonical().entries)
        assert kept == {"n": "10"}

    def test_spec_hash_ignores_workers_and_format(self):
        base = RunConfig.build("moments", {}, None, {"n": "10", "seed": "3"})
        noisy = RunConfig.build(
            "moments", {}, None, {"n": "10", "seed": "3", "workers": "8", "format": "csv"}
        )
        other = RunConfig.build("moments", {}, None, {"n": "11", "seed": "3"})
        assert base.spec_hash() == noisy.spec_hash()
        assert base.spec_hash() != other.spec_hash()
        assert len(base.spec_hash()) == 64
        assert base.spec_hash() != RunConfig("concentration", base.entries).spec_hash()

    def test_typed_getters(self):
        cfg = RunConfig.build("x", {}, None, {"n": "5", "r": "0.25", "ps": "1,2", "seed": "9"})
        assert cfg.get_int("n") == 5
        assert cfg.get_float("r") == 0.25
        assert cfg.get_ints("ps") == [1, 2]
        assert cfg.get_seed() == 9
        assert cfg.get_float("absent", 1.5) == 1.5

    def test_getter_errors(self):
        cfg = RunConfig.build("x", {}, None, {"n": "zero", "r": "-1", "ps": "1.5", "seed": "-3"})
        with pytest.raises(ConfigError):
            cfg.get_int("n")
        with pytest.raises(ConfigError):
            cfg.get_float("n")
        with pytest.raises(ConfigError):
            cfg.get_ints("ps")
        with pytest.raises(DomainError):
            cfg.get_seed()
        with pytest.raises(ConfigError, match="seed is required"):
            RunConfig.build("x", {}, None, {}).get_seed()
        with pytest.raises(ConfigError):
            cfg.get_int("missing")


class TestParsers:
    def test_grid_forms(self):
        np.testing.assert_allclose(parse_grid("lin:0:1:5"), np.linspace(0, 1, 5))
        np.testing.assert_allclose(parse_grid("log:0.01:100:9"), np.geomspace(0.01, 100, 9))
        np.testing.assert_allclose(parse_grid("0.5,1,2"), [0.5, 1.0, 2.0])

    def test_grid_errors(self):
        for bad in ("log:1:10", "lin:a:b:5", ""):
            with pytest.raises(ConfigError):
                parse_grid(bad)
        for bad in ("log:0:1:5", "log:1:10:0"):
            with pytest.raises(DomainError):
                parse_grid(bad)

    def test_spectrum_quadratic(self):
        spec = parse_spectrum("n^2:4")
        assert len(spec) == 4
        assert spec.eigenvalues == (1.0, 4.0, 9.0, 16.0)
        assert spec.tail_inverse_mass > 0.0

    def test_spectrum_listed(self):
        spec = parse_spectrum("1,4")
        assert len(spec) == 2
        assert spec.eigenvalues == (1.0, 4.0)
        assert spec.tail_inverse_mass == 0.0

    def test_spectrum_errors(self):
        for bad in ("n^3:4", ""):
            with pytest.raises(ConfigError):
                parse_spectrum(bad)
        for bad in ("n^2:0", "1,-4"):
            with pytest.raises(DomainError):
                parse_spectrum(bad)

    def test_vector_padding(self):
        np.testing.assert_array_equal(parse_vector("0.5", 3, "x"), [0.5, 0.0, 0.0])
        np.testing.assert_array_equal(parse_vector("1,2,3", 3, "x"), [1.0, 2.0, 3.0])
        assert parse_vector(None, 3, "x") is None

    def test_vector_errors(self):
        with pytest.raises(ConfigError):
            parse_vector("1,2,3,4", 3, "x")
        with pytest.raises(ConfigError):
            parse_vector("a,b", 2, "x")


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_missing_seed_is_config_error(self, capsys):
        code, _, err = _run(capsys, "verify-prop21", "--lambda", "1")
        assert code == 2
        assert "seed is required" in err

    def test_unreadable_config_file(self, capsys):
        code, _, err = _run(capsys, "verify-prop21", "--config", "/nonexistent/conf")
        assert code == 2
        assert "cannot read config" in err

    def test_bad_config_line_number(self, capsys, tmp_path):
        p = tmp_path / "bad.conf"
        p.write_text("n=128\noops\n")
        code, _, err = _run(capsys, "verify-prop21", "--config", str(p), "--seed", "1")
        assert code == 2
        assert "line 2" in err

    def test_bad_value_is_config_error(self, capsys):
        code, _, err = _run(capsys, "verify-prop21", "--seed", "1", "--n", "0")
        assert code == 2

    def test_domain_error_maps_to_two(self, capsys):
        code, _, err = _run(
            capsys, "verify-prop21", "--seed", "1", "--lambda", "1",
            "--n", "64", "--M", "32", "--b", "weighted:sign",
        )
        assert code == 2
        assert "derivative" in err

    def test_alpha_underflow_exits_two_before_sampling(self, capsys, monkeypatch):
        # alpha underflows to 0 for lambda above about 373; the run once sampled for a second before refusing it
        def refuse(*args):
            raise AssertionError("sampled before alpha was checked")

        monkeypatch.setattr(oulab.functionals, "run_blocks", refuse)
        code, _, err = _run(capsys, "verify-prop21", "--seed", "1", "--lambda", "400", "--n", "20000", "--M", "1024")
        assert code == 2
        assert "alpha must be positive and finite" in err

    # (command line, fragment of its one error line): each exits 2 before any path is drawn
    BAD_INPUT = [
        # beta outside the float range: an OverflowError traceback (1e200), a ZeroDivisionError traceback
        # (moments at beta = 0), a PASS against beta = 0 (concentration), a RuntimeWarning (1e-320)
        ("verify-thm23 --spectrum 1e200", "beta must be positive and finite, got inf"),
        ("concentration --spectrum 1e200 --h1 e1:sin_pi_t", "beta must be positive and finite"),
        ("moments --spectrum 1e200 --x 0.5 --y -0.5", "beta must be positive and finite"),
        ("moments --spectrum 1e-320 --x 0.5 --y -0.5", "beta must be positive and finite, got 0.0"),
        ("concentration --spectrum 1e-320 --h1 e1:sin_pi_t", "beta must be positive and finite, got 0.0"),
        ("verify-thm23 --spectrum 1e-320", "beta must be positive and finite, got 0.0"),
        # numbers that parse but lie outside the range a guard owns
        ("verify-prop21 --lambda 0", "lambda must be positive"),
        ("decomposition --lambda 0", "lambda must be positive"),
        ("verify-prop21 --lambda 1 --n 1", "n must be at least 2"),
        ("verify-thm23 --M 1", "m must be at least 2"),
        ("verify-thm23 --seed -1", "seed must be at least 0"),
        ("verify-thm23 --seed 18446744073709551616", "seed must be below"),
        ("verify-thm23 --workers 0", "workers must be at least 1"),
        ("verify-thm23 --spectrum 1,4 --truncation 3", "truncation must be below 3"),
        ("verify-thm23 --spectrum n^2:0", "spectrum size must be at least 1"),
        ("verify-thm23 --spectrum -1,4", "eigenvalues must be positive"),
        ("concentration --h1 e1:sin_pi_t --r nan", "0 <= r < u <= 1"),
        ("verify-thm23 --ell 0", "ell"),
        ("verify-prop21 --lambda 1 --dump d.csv --dump-paths 257", "dump_paths must be below 257"),
        ("constants --lambda-grid lin:0:1:4", "rate must be positive"),
        ("constants --lambda-grid log:0:1:5", "log grid lo must be positive"),
    ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # pytest captures warnings; this makes one fail the row
    @pytest.mark.parametrize("argv, fragment", BAD_INPUT, ids=[argv for argv, _ in BAD_INPUT])
    def test_bad_input_exits_two_with_one_error_line(self, capsys, monkeypatch, tmp_path, argv, fragment):
        def sampled(*args, **kwargs):
            raise AssertionError("a refused setting reached the sampler")

        for module in (oulab.functionals, oulab.reversal):
            monkeypatch.setattr(module, "run_blocks", sampled)
        monkeypatch.chdir(tmp_path)  # where a dump would land
        command, *flags = argv.split()
        sizes = () if command == "constants" else ("--seed", "1", "--n", "64")  # a row's own flags come last and win
        code, _, err = _run(capsys, command, *sizes, *flags)
        assert code == 2
        (line,) = err.splitlines()
        assert line.startswith("error:") and fragment in line
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, flags", [("concentration", ("--h1", "e1:sin_pi_t")),
                                                ("moments", ("--x", "0.5", "--y", "-0.5"))],
                             ids=["concentration", "moments"])
    def test_a_tiny_rate_with_a_representable_beta_runs(self, capsys, command, flags):
        # LAM^-2 underflows at the rate 1e-200, but beta = 1.085e-204 does not, so the run is not refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, command, "--spectrum", "1e-200", "--seed", "1", "--n", "64", "--M", "32",
                                  *flags)
        assert code == 0, err
        assert json.loads(out)["beta"] == beta((1e-200,)) == 1.0850694444444445e-204

    def test_subnormal_lambda_prints_only_the_verdict(self, capsys):
        # 1/lambda overflows in alpha3; numpy's warning once took a line of stderr, which is the verdict's
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = _run(capsys, "verify-prop21", "--seed", "1", "--lambda", "1e-320", "--n", "64", "--M", "32")
        assert code == 0
        assert len(err.splitlines()) == 1 and err.startswith("PASS verify-prop21:")

    def test_passing_run_exits_zero(self, capsys):
        code, out, err = _run(
            capsys, "verify-prop21", "--seed", "5", "--lambda", "1", "--n", "512", "--M", "64"
        )
        assert code == 0
        assert "PASS verify-prop21:" in err
        json.loads(out)

    def test_failing_run_exits_one(self, capsys, monkeypatch):
        real = cli.check_prop21

        def flipped(*a, **kw):
            return dataclasses.replace(real(*a, **kw), passed=False)

        monkeypatch.setattr(cli, "check_prop21", flipped)
        code, _, err = _run(
            capsys, "verify-prop21", "--seed", "5", "--lambda", "1", "--n", "512", "--M", "64"
        )
        assert code == 1
        assert "FAIL verify-prop21:" in err

    @pytest.mark.parametrize("flag", ["--out", "--dump"])
    def test_unwritable_output_is_config_error(self, capsys, tmp_path, flag):
        target = tmp_path / "missing" / "x.out"
        code, _, err = _run(
            capsys, "verify-prop21", "--seed", "5", "--lambda", "1", "--n", "512", "--M", "64", flag, str(target)
        )
        assert code == 2
        assert f"cannot write {target}" in err

    @pytest.mark.parametrize("argv, message", [
        (["verify-thm23", "--b", "const:abc"], "constant 'abc' in 'const:abc' is not a number"),
        (["verify-prop21", "--lambda", "1", "--b", "weighted:sin:omega=abc"],
         "omega 'abc' in 'weighted:sin:omega=abc' is not a number"),
        (["verify-thm23", "--h", "e1:sin_pi_t:abc"], "shift scale 'abc' in 'e1:sin_pi_t:abc' is not a number"),
    ])
    def test_unparseable_descriptor_number_is_config_error(self, capsys, monkeypatch, argv, message):
        def never(*a, **kw):
            raise AssertionError("check ran before the descriptor was parsed")

        monkeypatch.setattr(cli, "check_prop21", never)
        monkeypatch.setattr(cli, "check_thm23", never)
        code, _, err = _run(capsys, *argv, "--seed", "1", "--n", "10")
        assert code == 2
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["concentration", "--M", "32", "--h1", "e1:sin_pi_t", "--etas", ","],
        ["moments", "--M", "32", "--x", "0.5", "--y", "-0.5", "--ps", ","],
        ["decomposition", "--lambda", "1", "--m-list", ","],
    ])
    def test_empty_list_is_config_error(self, capsys, argv):
        code, _, err = _run(capsys, *argv, "--seed", "1", "--n", "64")
        assert code == 2
        assert "at least one number" in err

    @pytest.mark.parametrize("argv", [
        ["moments", "--M", "32", "--x", "0.5", "--y", "-0.5", "--ps", "inf"],
        ["moments", "--M", "32", "--x", "0.5", "--y", "-0.5", "--ps", "nan"],
        ["decomposition", "--lambda", "1", "--m-list", "8,inf"],
    ])
    def test_non_finite_integer_list_is_config_error(self, capsys, argv):
        code, _, err = _run(capsys, *argv, "--seed", "1", "--n", "64")
        assert code == 2
        assert "must contain integers" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("setting, message", [
        ("format=xml", "format must be json or csv"),
        pytest.param("dump=d.csv\ndump_paths=300", "dump_paths must be below 257",
                     id="dump=d.csv\ndump_paths=300-capped at 256"),
        ("dump=d.csv\ndump_paths=256\nm=8000", "row cap"),
    ])
    def test_plumbing_rejected_before_the_check(self, capsys, monkeypatch, tmp_path, setting, message):
        def never(*a, **kw):
            raise AssertionError("check ran before plumbing was validated")

        monkeypatch.setattr(cli, "check_prop21", never)
        conf = tmp_path / "run.conf"
        conf.write_text(f"seed=5\nlambda=1\nn=512\nm=64\n{setting.replace('d.csv', str(tmp_path / 'd.csv'))}\n")
        code, _, err = _run(capsys, "verify-prop21", "--config", str(conf))
        assert code == 2
        assert message in err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("flag, target", [
        ("--out", "missing/x.json"), ("--dump", "missing/d.csv"), ("--out", "."), ("--dump", "."),
    ])
    def test_unwritable_output_rejected_before_the_check(self, capsys, monkeypatch, tmp_path, flag, target):
        def never(*a, **kw):
            raise AssertionError("check ran before the output path was validated")

        monkeypatch.setattr(cli, "check_prop21", never)
        path = tmp_path / target
        code, _, err = _run(capsys, "verify-prop21", "--seed", "5", "--lambda", "1", "--n", "512", "--M", "64",
                            flag, str(path))
        assert code == 2
        assert f"cannot write {path}" in err

    @pytest.mark.parametrize("dump_name", ["same.txt", "./sub/../same.txt"])
    def test_out_and_dump_naming_one_file_are_refused(self, capsys, monkeypatch, tmp_path, dump_name):
        def never(*args, **kwargs):
            raise AssertionError("check ran before the output paths were compared")

        monkeypatch.setattr(cli, "check_prop21", never)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        code, _, err = _run(capsys, "verify-prop21", "--lambda", "1", "--seed", "1", "--n", "300", "--M", "16",
                            "--out", "same.txt", "--dump", dump_name)
        assert code == 2
        assert "--out and --dump both name" in err
        assert not (tmp_path / "same.txt").exists()

    def test_decomposition_has_no_dump_flag(self, capsys, tmp_path):
        dump = tmp_path / "d.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["decomposition", "--seed", "1", "--lambda", "1", "--n", "64", "--dump", str(dump)])
        assert exc.value.code == 2
        assert "--dump" in capsys.readouterr().err
        assert not dump.exists()

    def test_decomposition_dump_key_is_unknown(self, capsys, tmp_path):
        dump = tmp_path / "d.csv"
        conf = tmp_path / "run.conf"
        conf.write_text(f"seed=1\nlambda=1\nn=64\ndump={dump}\n")
        code, _, err = _run(capsys, "decomposition", "--config", str(conf))
        assert code == 2
        assert "'dump'" in err
        assert not dump.exists()

    def test_unknown_config_key_is_named(self, capsys, tmp_path):
        conf = tmp_path / "typo.conf"
        conf.write_text("seed=5\nlamda=2\n")
        code, _, err = _run(capsys, "verify-prop21", "--config", str(conf), "--lambda", "1")
        assert code == 2
        assert "'lamda'" in err


class TestMomentOverflow:
    def test_large_order_reports_an_infinite_bound(self, capsys, tmp_path):
        # 300^150 overflows a float: the derived bound is inf, the stated one finite, and no row holds NaN
        out = tmp_path / "m.json"
        code, _, err = _run(capsys, "moments", "--spectrum", "1,4", "--x", "0.5", "--y", "-0.5", "--ps", "300",
                            "--seed", "1", "--n", "300", "--M", "16", "--out", str(out))
        assert code == 0, err
        (row,) = json.loads(out.read_text())["results"]
        assert row["bound_derived"] == math.inf
        assert 0.0 < row["bound_stated"] < 1e-100
        assert not any(isinstance(v, float) and math.isnan(v) for v in row.values())
        assert "PASS moments:" in err


class TestTinyShifts:
    SMALL = ("--spectrum", "1,4", "--seed", "1", "--n", "300", "--M", "16")

    def test_concentration_keeps_a_tiny_shift(self, capsys):
        # 1e-200 squared unscaled to 0 and the shift read as vanishing (exit 2)
        code, out, err = _run(capsys, "concentration", *self.SMALL, "--h1", "e1:const:1e-200")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["diff_sup"] == 1e-200 and not doc["degenerate"]

    def test_concentration_below_float_spacing_reads_the_rows_of_a_larger_shift(self, capsys):
        # the shift's S was the difference of two profile values, which cancelled 1e-20 to 0: empirical 0.0
        rows = []
        for scale in ("1e-20", "1e-8"):
            code, out, err = _run(capsys, "concentration", "--spectrum", "1,4", "--h1", f"e1:const:{scale}",
                                  "--seed", "1", "--n", "2000", "--M", "64", "--etas", "0.01,0.1")
            assert code == 0, err
            rows.append([(r["eta"], r["empirical"], r["stderr"], r["bound"], r["pass"])
                         for r in json.loads(out)["results"]])
        assert rows[0] == rows[1]
        assert [row[1] for row in rows[0]] == [1.0, 0.9955]

    def test_thm23_refuses_the_infinite_rate_before_sampling(self, capsys, monkeypatch):
        def sampled(*args):
            raise AssertionError("a refused rate reached the sampler")

        monkeypatch.setattr(oulab.functionals, "run_blocks", sampled)
        code, _, err = _run(capsys, "verify-thm23", *self.SMALL, "--h", "e1:const:1e-200")
        assert code == 2
        assert "rate beta/sup|h|^2" in err and "got inf" in err


class TestDashLedValues:
    BASE = ("moments", "--seed", "1", "--n", "300", "--M", "16", "--x", "0.2,0")

    def test_a_dash_led_value_after_its_flag_is_its_value(self, capsys):
        docs = []
        for y in (("--y", "-0.1,0"), ("--y=-0.1,0",)):
            code, out, err = _run(capsys, *self.BASE, *y)
            assert code == 0, err
            doc = json.loads(out)
            del doc["timing"]
            docs.append(doc)
        assert docs[0] == docs[1]
        assert docs[0]["config"]["y"] == "-0.1,0"
        code, out, err = _run(capsys, "concentration", "--seed", "1", "--n", "300", "--M", "16", "--h1", "e1:sin_pi_t",
                              "--x0", "-0.3,0.2")
        assert code == 0, err
        assert json.loads(out)["config"]["x0"] == "-0.3,0.2"

    @pytest.mark.parametrize("extra", [("--bogus", "1"), ("--y", "-0.1", "--bogus"), ("--y", "--ps")])
    def test_unknown_or_missing_values_still_exit_two(self, capsys, extra):
        with pytest.raises(SystemExit) as exc:
            cli.main([*self.BASE, *extra])
        assert exc.value.code == 2
        capsys.readouterr()


class TestPayload:
    def test_json_shape(self, capsys, tmp_path):
        out_path = tmp_path / "res.json"
        code, out, _ = _run(
            capsys, "verify-thm23", "--seed", "11", "--n", "512", "--M", "64",
            "--spectrum", "1,4", "--out", str(out_path),
        )
        assert code == 0
        assert out == ""  # --out owns the payload
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == 1
        assert doc["command"] == "verify-thm23"
        assert len(doc["spec_hash"]) == 64
        assert doc["seed"] == 11
        assert isinstance(doc["pass"], bool)
        assert doc["timing"]["seconds"] >= 0.0
        row = doc["results"][0]
        for key in ("statement", "beta", "rate", "mean", "stderr", "upper999", "bound", "pass"):
            assert key in row
        assert "workers" not in doc["config"]
        assert "out" not in doc["config"]

    def test_provenance_names_what_produced_the_bits(self, capsys, tmp_path):
        out_path = tmp_path / "res.json"
        code, _, _ = _run(capsys, "verify-prop21", "--lambda", "1", "--seed", "5", "--n", "256", "--M", "16",
                          "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["provenance"] == {
            "stream_contract": "philox-rowcounter-ziggurat-block256",
            "numpy": np.__version__,
            "python": platform.python_version(),
            "oulab": oulab.__version__,
        }
        assert list(doc)[-2:] == ["provenance", "timing"]

    def test_every_row_carries_statement(self, capsys, tmp_path):
        out_path = tmp_path / "conc.json"
        code, _, _ = _run(
            capsys, "concentration", "--seed", "3", "--n", "512", "--M", "64",
            "--h1", "e1:sin_pi_t", "--etas", "0.5,1", "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert len(doc["results"]) == 2
        assert all(row["statement"] for row in doc["results"])

    @pytest.mark.parametrize("argv", [
        ("moments", "--M", "64", "--x", "0.5", "--y", "-0.5"),
        ("concentration", "--M", "64", "--h1", "e1:sin_pi_t", "--x0", "0.3,-0.2", "--r", "0.25", "--u", "0.75"),
        ("verify-thm23", "--M", "64", "--spectrum", "1,4", "--ell", "0.5"),
        ("decomposition", "--lambda", "1", "--m-list", "16,64"),
    ], ids=lambda argv: argv[0])
    def test_workers_do_not_change_payload(self, capsys, tmp_path, argv):
        outs = []
        for workers in ("1", "3"):
            path = tmp_path / f"w{workers}.json"
            code, _, _ = _run(
                capsys, *argv, "--seed", "21", "--n", "600",
                "--workers", workers, "--out", str(path),
            )
            assert code == 0
            doc = json.loads(path.read_text())
            doc.pop("timing")
            doc["config"].pop("workers", None)
            outs.append(doc)
        assert outs[0] == outs[1]
        assert outs[0]["spec_hash"] == outs[1]["spec_hash"]

    @pytest.fixture
    def pools(self, monkeypatch):
        # every --workers runs as lane threads of this one process, so no pool is ever made
        made = []

        class CountedPool(oulab.parallel.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(oulab.parallel, "ProcessPoolExecutor", CountedPool)
        return made

    def test_decomposition_starts_no_pool(self, capsys, pools):
        code, _, err = _run(
            capsys, "decomposition", "--lambda", "1", "--m-list", "16,32,64", "--seed", "21", "--n", "600",
            "--workers", "2",
        )
        assert code == 0, err
        assert pools == []

    def test_verify_thm23_starts_no_pool_process(self, capsys, pools):
        code, _, err = _run(capsys, "verify-thm23", "--M", "64", "--seed", "21", "--n", "300", "--workers", "4")
        assert code == 0, err
        assert pools == []
        assert multiprocessing.active_children() == []

    def test_csv_format(self, capsys):
        code, out, _ = _run(
            capsys, "moments", "--seed", "21", "--n", "512", "--M", "64",
            "--x", "0.5", "--y", "-0.5", "--ps", "1,2", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 2
        assert rows[0]["p"] == "1"
        assert float(rows[0]["moment"]) > 0.0


class TestConstantsCommand:
    def test_csv_table(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _, err = _run(
            capsys, "constants", "--lambda-grid", "log:0.01:10:16", "--out", str(out_path)
        )
        assert code == 0
        assert "16 rows" in err
        with open(out_path) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == CONSTANTS_COLUMNS
        assert len(rows) == 16
        first = dict(zip(header, rows[0]))
        assert float(first["lambda"]) == pytest.approx(0.01)
        # alpha = min(alpha1, alpha2, alpha3)/9 must hold row by row
        for raw in rows:
            row = dict(zip(header, raw))
            parts = (float(row["alpha1"]), float(row["alpha2"]), float(row["alpha3"]))
            assert float(row["alpha"]) == pytest.approx(min(parts) / 9.0, rel=1e-12)

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = _run(capsys, "constants", "--lambda-grid", "log:0.001:100:32", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = _run(capsys, "constants", "--lambda-grid", "1,2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["results"]) == 2
        assert "pass" not in doc

    def test_rejects_nonpositive_grid(self, capsys):
        code, _, _ = _run(capsys, "constants", "--lambda-grid", "lin:0:1:4")
        assert code == 2


class TestDump:
    def test_dump_matches_sampler_bitwise(self, capsys, tmp_path):
        dump = tmp_path / "paths.csv"
        code, _, _ = _run(
            capsys, "verify-prop21", "--seed", "13", "--lambda", "2", "--n", "512",
            "--M", "32", "--dump", str(dump), "--dump-paths", "3",
        )
        assert code == 0
        with open(dump) as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["path_id", "component", "t", "value"]
            rows = list(reader)
        assert len(rows) == 3 * 33
        want = block_paths_1d(2.0, 32, 13, 0, 0)[:3]
        for row in rows:
            pid, comp, t, value = int(row[0]), int(row[1]), float(row[2]), float(row[3])
            k = round(t * 32)
            assert comp == 0
            assert value == want[pid, k]  # repr round-trips exactly

    @staticmethod
    def _read(dump):
        with open(dump) as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["path_id", "component", "t", "value"]
            return [(int(p), int(c), float(t), float(v)) for p, c, t, v in reader]

    def test_thm23_dump_reads_the_window_rate(self, capsys, tmp_path):
        dump = tmp_path / "paths.csv"
        code, _, _ = _run(
            capsys, "verify-thm23", "--seed", "17", "--spectrum", "1,4", "--ell", "0.5", "--n", "300",
            "--M", "32", "--dump", str(dump), "--dump-paths", "3",
        )
        assert code == 0
        rows = self._read(dump)
        want = block_paths_1d(0.5 * 1.0, 32, 17, 0, 0)[:3]
        tau = np.linspace(0.0, 1.0, 33)
        assert [(p, c) for p, c, _, _ in rows] == [(p, 0) for p in range(3) for _ in range(33)]
        assert [t for _, _, t, _ in rows] == list(tau) * 3
        assert [v for _, _, _, v in rows] == list(want.ravel())

    def test_concentration_dump_reads_the_window(self, capsys, tmp_path):
        dump = tmp_path / "paths.csv"
        code, _, _ = _run(
            capsys, "concentration", "--seed", "19", "--h1", "e1:sin_pi_t", "--x0", "0.3,-0.2", "--r", "0.25",
            "--u", "0.75", "--n", "300", "--M", "32", "--dump", str(dump), "--dump-paths", "3",
        )
        assert code == 0
        rows = self._read(dump)
        tau = np.linspace(0.0, 0.5, 33)
        want = block_paths_1d(1.0, 32, 19, 0, 0, horizon=0.5)[:3] + np.exp(-1.0 * tau) * 0.3
        assert [(p, c) for p, c, _, _ in rows] == [(p, 0) for p in range(3) for _ in range(33)]
        assert [t for _, _, t, _ in rows] == list(0.25 + tau) * 3
        assert [v for _, _, _, v in rows] == list(want.ravel())

    def test_dump_paths_capped(self, capsys, tmp_path):
        code, _, err = _run(
            capsys, "verify-prop21", "--seed", "13", "--lambda", "2", "--n", "512",
            "--M", "32", "--dump", str(tmp_path / "d.csv"), "--dump-paths", "300",
        )
        assert code == 2
        assert "dump_paths must be below 257" in err


class TestDecompositionCommand:
    def test_residual_trend_and_payload(self, capsys, tmp_path):
        out_path = tmp_path / "dec.json"
        code, _, err = _run(
            capsys, "decomposition", "--seed", "2", "--lambda", "1", "--n", "2048",
            "--m-list", "64,256,1024", "--out", str(out_path),
        )
        assert code == 0
        assert "PASS decomposition:" in err
        doc = json.loads(out_path.read_text())
        assert [row["m"] for row in doc["results"]] == [64, 256, 1024]
        res = [row["cov_residual_mean"] for row in doc["results"]]
        assert res[0] > res[-1]

    def test_one_grid_size_is_config_error(self, capsys, monkeypatch):
        # one size has no trend, and the verdict would pass over nothing
        def never(*a, **kw):
            raise AssertionError("sampled before the m-list was checked")

        monkeypatch.setattr(cli, "covariation_check", never)
        code, _, err = _run(capsys, "decomposition", "--seed", "2", "--lambda", "1", "--n", "256", "--m-list", "8")
        assert code == 2
        assert "at least two grid sizes" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("b", ["const:0.3", "zero", "weighted:one"])
    def test_exactly_zero_residuals_pass(self, capsys, b):
        # b' = 0: the decomposition holds exactly at every M, with no trend to see
        code, out, err = _run(capsys, "decomposition", "--seed", "1", "--n", "300", "--lambda", "1",
                              "--m-list", "16,64,256", "--b", b)
        assert [row["cov_residual_mean"] for row in json.loads(out)["results"]] == [0.0, 0.0, 0.0]
        assert code == 0
        assert "PASS decomposition:" in err

    def test_smooth_time_drift_keeps_its_trend_test(self, capsys, monkeypatch):
        argv = ("decomposition", "--seed", "1", "--n", "300", "--lambda", "1", "--m-list", "16,64,256",
                "--b", "time:sin_pi")
        code, out, err = _run(capsys, *argv)
        residuals = [row["cov_residual_mean"] for row in json.loads(out)["results"]]
        assert residuals[0] > residuals[1] > residuals[2] > 0.0
        assert code == 0
        assert "PASS decomposition:" in err
        # the same residuals in rising order fail
        real = cli.covariation_check

        def rising(*args, **kwargs):
            reports = real(*args, **kwargs)
            return [dataclasses.replace(r, cov_residual=v) for r, v in zip(reports, residuals[::-1])]

        monkeypatch.setattr(cli, "covariation_check", rising)
        code, _, err = _run(capsys, *argv)
        assert code == 1
        assert "FAIL decomposition:" in err

    def test_rejects_unordered_m_list(self, capsys):
        code, _, _ = _run(
            capsys, "decomposition", "--seed", "2", "--lambda", "1", "--n", "256",
            "--m-list", "1024,64",
        )
        assert code == 2


# spec_hash of each command at its table defaults (plus seed 42 where the
# command takes one); a drift in any default, key or command name shows here
SPEC_HASHES = {
    "constants": "23b61b3ff1826cd3d50e64077d9f9f09d927f7dba41436c709c3de698c9ebd3a",
    "verify-prop21": "162d3a314d6e1bab442b1143e2150aa5e9028b421a1e7a045b0a7c757c00a6b8",
    "verify-thm23": "2afaecf8057c2c37dfb63fa7c2c4796044d88e80ea9ca169957095679f9099ef",
    "concentration": "addf6bf7b9ffe73ea949fc8baae50ff290b9e193cd21591202bb875143174e41",
    "moments": "3c7e04f992a9668b91a6320d190c13206b0832920ae92a5bc5c047cd81344cf8",
    "decomposition": "2e17dd75bc99407c45821010c6c2f21cea4bfc6edea3113c707bc63e2882f353",
}


class TestCommandTable:
    def test_spec_hash_pinned_at_defaults(self):
        assert set(cli.COMMANDS) == set(SPEC_HASHES)
        for name, cmd in cli.COMMANDS.items():
            seed = {"seed": "42"} if "seed" in cmd.keys else {}
            assert RunConfig.build(name, cmd.defaults, None, seed).spec_hash() == SPEC_HASHES[name], name

    def test_readme_examples_parse(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = [ln.strip() for ln in readme.read_text().splitlines() if re.match(r"\s*oulab ", ln)]
        assert len(lines) >= 6
        parser = cli._build_parser()
        for line in lines:
            argv = shlex.split(line)[1:]
            assert parser.parse_args(argv).command == argv[0]


class TestTwoRunsInOneProcess:
    def test_second_run_gives_the_first_payload(self, tmp_path):
        # the first run starts and joins its lane threads (16-row chunks at M = 4096); a --workers 2
        # run after it in the same process must finish, with the same payload
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        code = ("import sys; from oulab.cli import main; "
                "argv = ['verify-thm23', '--seed', '5', '--n', '600', '--M', '4096']; "
                "sys.exit(main(argv + ['--out', sys.argv[1]]) or main(argv + ['--workers', '2', '--out', sys.argv[2]]))")
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        done = subprocess.run([sys.executable, "-c", code, *map(str, paths)], env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        docs = [json.loads(path.read_text()) for path in paths]
        for doc in docs:
            doc.pop("timing")
            doc["config"].pop("workers", None)
        assert docs[0] == docs[1]


class TestImport:
    def test_cli_import_leaves_out_scipy_signal(self):
        # scipy.signal alone took about two thirds of the CLI's import time
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        code = "import sys, oulab.cli; print(sorted(n for n in sys.modules if n.startswith('scipy.signal')))"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_cli_import_loads_no_scipy(self):
        # scipy is a test dependency only; importing it cost about 0.4 s of every run
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        code = "import sys, oulab.cli; print(sorted(n for n in sys.modules if n.startswith('scipy')))"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_serial_run_loads_no_process_pool(self, tmp_path):
        # the pool class brings multiprocessing, about 21 ms of import; only a run that starts a pool loads it.
        # The lane thread is a threading.Thread, so concurrent.futures, with its logging (about 8.5 ms of
        # import with traceback and queue), stays unloaded too.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        code = ("import sys, oulab.cli; "
                "pool = ('multiprocessing', 'concurrent.futures', 'concurrent.futures.process', 'logging'); "
                "print(sorted(m for m in pool if m in sys.modules)); "
                "argv = ['verify-thm23', '--seed', '5', '--n', '300', '--M', '4096', '--workers', '1']; "
                "code = oulab.cli.main(argv + ['--out', sys.argv[1]]); "
                "print(code, sorted(m for m in pool if m in sys.modules))")
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "payload.json")], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[]", "0 []"]

    def test_no_command_at_any_workers_loads_a_process_pool(self, tmp_path):
        # --workers p runs lane threads of one process: no command loads multiprocessing or concurrent.futures
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        commands = [["verify-prop21", "--lambda", "1", "--M", "64"], ["verify-thm23", "--M", "64"],
                    ["concentration", "--M", "64", "--h1", "e1:sin_pi_t", "--etas", "0.5"],
                    ["moments", "--M", "64", "--x", "0.5,0", "--y", "-0.5,0", "--ps", "1"],
                    ["decomposition", "--lambda", "1", "--m-list", "16,64"]]
        code = ("import json, sys, oulab.cli; "
                "codes = [oulab.cli.main(argv + ['--seed', '5', '--n', '600', '--workers', w, '--out', sys.argv[1]]) "
                "         for argv in json.loads(sys.argv[2]) for w in ('1', '2', '3')]; "
                "print(codes, sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "payload.json"), json.dumps(commands)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == f"{[0] * 15} []"
