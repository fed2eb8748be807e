import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnormdist import interpolation, profiles
from pnormdist.cli import build_parser, main
from pnormdist.errors import quote
from pnormdist.geometry import (
    build_distance_matrix,
    read_matrix_csv,
    read_points_csv,
    write_matrix_csv,
)
from pnormdist.serialize import dumps, fmt_float

UNIT_SQUARE_CSV = "0,0\n1,0\n1,1\n0,1\n"
UNIT_SQUARE_1NORM = np.array([[0.0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])


README_COMPOSITION = (
    '{"kind":"composition","outer":{"kind":"power","tau":0.5},"inner":{"kind":"power","tau":0.75}}'
)
INNER_CONVENTION = (
    '{"kind":"composition","outer":{"kind":"exponential"},'
    '"inner":{"kind":"identity","input_convention":"squared-distance"}}'
)
# the same convention on the outer profile, where it could only be ignored
OUTER_CONVENTION = (
    '{"kind":"composition","outer":{"kind":"exponential","input_convention":"squared-distance"},'
    '"inner":{"kind":"identity"}}'
)
KINDS = "identity, multiquadric, exponential, power, composition"


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.csv"
    path.write_text(UNIT_SQUARE_CSV)
    return path


def assert_input_error(capsys, argv):
    """argv exits 2 (from argparse or from main) with one error: line and no traceback."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1
    return err


class TestDistmat:
    def test_unit_square(self, tmp_path, square_file):
        out = tmp_path / "mat.csv"
        assert main(["distmat", str(square_file), "--p", "1", "--out", str(out)]) == 0
        assert np.array_equal(read_matrix_csv(out), UNIT_SQUARE_1NORM)

    def test_single_point(self, tmp_path):
        pts = tmp_path / "one.csv"
        pts.write_text("0.5,0.5,0.5\n")
        out = tmp_path / "mat.csv"
        assert main(["distmat", str(pts), "--p", "2", "--out", str(out)]) == 0
        assert out.read_text() == "0\n"

    def test_random_points_symmetric_zero_diag(self, tmp_path):
        rng = np.random.default_rng(41)
        pts = tmp_path / "pts.csv"
        pts.write_text("\n".join(",".join(fmt_float(v) for v in row) for row in rng.random((5, 3))) + "\n")
        out = tmp_path / "mat.csv"
        assert main(["distmat", str(pts), "--p", "1.5", "--out", str(out)]) == 0
        A = read_matrix_csv(out)
        assert np.array_equal(A, A.T)
        assert np.all(np.diag(A) == 0.0)

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        pts = tmp_path / "bad.csv"
        pts.write_text("1,2\n3,França\n")
        argv = ["distmat", str(pts), "--p", "1", "--out", str(tmp_path / "mat.csv")]
        err = assert_input_error(capsys, argv)
        assert err == f"error: {pts}:2: column 2: not a number: 'França'\n"  # the file named once

    def test_cell_beyond_the_csv_field_limit_exit_2(self, tmp_path, capsys):
        # csv's default limit is 131072 characters; the quoted cell sends the
        # file to the row reader, and the 200 000 digits overflow a double
        pts = tmp_path / "long.csv"
        pts.write_text('"1",' + "1" * 200_000 + "\n2,3\n")
        argv = ["distmat", str(pts), "--p", "1", "--out", str(tmp_path / "mat.csv")]
        err = assert_input_error(capsys, argv)
        cut = "'" + "1" * 20 + "…' (200000 characters)"
        assert err == f"error: {pts}:1: column 2: not a finite number: {cut}\n"
        assert len(err.encode()) < 200

    def test_missing_input_exit_2(self, tmp_path, capsys):
        # the readers open the file themselves: given the path, loadtxt would
        # word this as "missing.csv not found."
        missing = tmp_path / "missing.csv"
        for argv in (["distmat", str(missing), "--p", "1", "--out", str(tmp_path / "mat.csv")],
                     ["check-and", str(missing), "--kind", "matrix"]):
            err = assert_input_error(capsys, argv)
            assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


class TestProfileFlag:
    @pytest.mark.parametrize(
        "flag, made",
        [
            ("identity", profiles.identity()),
            ("power:0.65", profiles.power(0.65)),
            ("multiquadric", profiles.multiquadric()),
            ("exponential", profiles.exponential()),
            ("power:0.65@p-th-power-distance", profiles.power(0.65, profiles.PTH_POWER_DISTANCE)),
            ("identity@squared-distance", profiles.identity(profiles.SQUARED_DISTANCE)),
            (README_COMPOSITION, profiles.compose(profiles.power(0.5), profiles.power(0.75))),
            (INNER_CONVENTION,
             profiles.compose(profiles.exponential(), profiles.identity(profiles.SQUARED_DISTANCE))),
        ],
    )
    def test_matches_library_profile(self, tmp_path, flag, made):
        rng = np.random.default_rng(45)
        x = rng.random((9, 3))
        pts = tmp_path / "pts.csv"
        pts.write_text("\n".join(",".join(fmt_float(v) for v in row) for row in x) + "\n")
        out, ref = tmp_path / "mat.csv", tmp_path / "ref.csv"
        assert main(["distmat", str(pts), "--p", "1.5", "--profile", flag, "--out", str(out)]) == 0
        write_matrix_csv(ref, build_distance_matrix(x, 1.5, made).entries)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize(
        "flag",
        [
            "power",
            "power:0.5@bogus",
            '{"kind":"composition"}',
            "{",
            "identity:3",
            "multiquadric:banana",
            "exponential:1",
            "identity@",
            '{"kind":"power","tau":null}',
            '{"kind":"power","tau":[1]}',
            '{"kind":"identity","tau":3}',
            '{"kind":"multiquadric","tau":0.5}',
            '{"kind":"exponential","tau":0.5}',
        ],
    )
    def test_malformed_exit_2(self, tmp_path, capsys, square_file, flag):
        out = tmp_path / "mat.csv"
        argv = ["distmat", str(square_file), "--p", "1.5", "--profile", flag, "--out", str(out)]
        assert_input_error(capsys, argv)

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("multiquadric:banana", "multiquadric profile takes no parameter: unexpected 'tau'"),
            ('{"kind":"power","tau":0.5,"outer":{"kind":"identity"}}',
             "power profile takes tau: unexpected 'outer'"),
            ('{"kind":"composition","outer":{"kind":"identity"}}',
             "composition profile takes outer and inner: missing 'inner'"),
            ('{"kind":"power"}', "power profile takes tau: missing 'tau'"),
            ("spline", f"unknown profile kind 'spline' (kinds: {KINDS})"),
            ("[1,2]", f"unknown profile kind '[1,2]' (kinds: {KINDS})"),
            ('{"kind":"spline","tau":2}', f"unknown profile kind 'spline' (kinds: {KINDS})"),
            ('{"kind":5}', f"unknown profile kind 5 (kinds: {KINDS})"),
            ('{"kind":"composition","outer":[1,2],"inner":{"kind":"identity"}}',
             f"not a profile expression: [1, 2] (kinds: {KINDS})"),
            ('{"kind":"identity","input_convention":null}', "unknown input convention: None"),
            (OUTER_CONVENTION,
             "outer profile exponential has input convention 'squared-distance'; "
             "put the convention on the inner profile"),
            ('{"kind":"composition","outer":{"kind":"identity"},"inner":{"kind":"identity"},'
             '"input_convention":"squared-distance"}',
             "composition profile takes outer and inner: unexpected 'input_convention'"),
        ],
    )
    def test_wrong_keys_are_named(self, tmp_path, capsys, square_file, flag, message):
        out = tmp_path / "mat.csv"
        argv = ["distmat", str(square_file), "--p", "1.5", "--profile", flag, "--out", str(out)]
        assert assert_input_error(capsys, argv) == f"error: {message}\n"

    @pytest.mark.parametrize("depth", [980, 20_000])
    def test_deeply_nested_composition_exit_2(self, tmp_path, capsys, square_file, depth):
        # the JSON parser gives out near 990 levels; the expression parser stops at 100
        flag = '{"kind":"composition","outer":{"kind":"identity"},"inner":' * depth
        flag += '{"kind":"identity"}' + "}" * depth
        out = tmp_path / "mat.csv"
        argv = ["distmat", str(square_file), "--p", "1.5", "--profile", flag, "--out", str(out)]
        err = assert_input_error(capsys, argv)
        assert "nested" in err
        assert not out.exists()


class TestLongValuesInErrors:
    """Each error that echoes a value the user gave cuts one of over 40
    characters to its first 20 and its length."""

    def test_quote(self):
        assert quote("x" * 40) == repr("x" * 40)
        assert quote("x" * 41) == "'" + "x" * 20 + "…' (41 characters)"
        assert quote({"kind": "bogus"}) == "{'kind': 'bogus'}"  # a parsed object shows as its repr
        assert quote({"kind": "x" * 40}) == "{'kind': '" + "x" * 10 + "… (52 characters)"

    @pytest.mark.parametrize(
        "site, length",
        [
            ("csv cell", 5000),
            ("--p-grid", 5004),
            ("scan-psi --n", 5000),
            ("profile kind", 5000),
            ("profile expression", 5004),  # a nested non-object's repr: the value in a list
            ("tau", 5000),
            ("input_convention", 5000),
        ],
    )
    def test_a_5000_character_value_is_cut(self, tmp_path, capsys, square_file, site, length):
        value = "x" * 5000
        out = str(tmp_path / "out.csv")
        long_cell = tmp_path / "long.csv"
        long_cell.write_text(f"1,{value}\n")
        distmat = ["distmat", str(square_file), "--p", "1.5", "--out", out]
        argv = {
            "csv cell": ["distmat", str(long_cell), "--p", "1.5", "--out", out],
            "--p-grid": ["scan-psi", "--n", "2", "--p-grid", "1" * 5000 + ":x:1", "--out", out],
            "scan-psi --n": ["scan-psi", "--n", value, "--p-grid", "2:3:1", "--out", out],
            "profile kind": distmat + ["--profile", value],
            "profile expression": distmat + ["--profile", json.dumps(
                {"kind": "composition", "outer": [value], "inner": {"kind": "identity"}}
            )],
            "tau": distmat + ["--profile", f"power:{value}"],
            "input_convention": distmat + ["--profile", f"identity@{value}"],
        }[site]
        err = assert_input_error(capsys, argv)
        assert len(err.encode()) < 200
        assert f"({length} characters)" in err


class TestArgumentErrors:
    """Each argument check in the commands exits 2 with its own error line."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["scan-psi", "--n", "2", "--p-grid", "2:3"], "grid must be lo:hi:step, got '2:3'"),
            (["scan-psi", "--n", "2", "--p-grid", "2:3:0"], "grid step must be positive, got 0.0"),
            (["scan-psi", "--n", ",", "--p-grid", "2:3:1"], "--n needs at least one integer >= 1"),
            (["find-pn", "--n-min", "1", "--n-max", "3"], "--n-min must be >= 2, got 1"),
            (["singular-config", "--p", "3"], "--n is required"),
            (["singular-config", "--m", "2", "--n", "3", "--p", "3"],
             "theta scaling applies to equal cubes: --p requires m = n"),
            (["singular-config", "--m", "2"], "need --m and --n (or --n with --p)"),
            (["singular-config", "--m", "1", "--n", "3"], "m and n must be >= 2, got m=1, n=3"),
            (["singular-config", "--n", "3", "--p", "3", "--cert-cap", "0"],
             "--cert-cap must be >= 1, got 0"),
            (["singular-config", "--m", "2", "--n", "3", "--cert-cap", "-4"],
             "--cert-cap must be >= 1, got -4"),
            (["interp", "DATA", "--p", "1.5", "--query-file", "DATA"],
             "DATA: need d+1 columns (coordinates then value)"),
            (["distmat", "SQUARE", "--p", "1.5", "--profile", "power:0"],
             "power exponent must be positive, got 0.0"),
            # a matrix is read as given, so the flags that build one from points
            # would be ignored
            (["check-and", "SQUARE", "--kind", "matrix", "--p", "3"],
             "--p: points input only; --kind matrix reads the matrix as given"),
            (["check-and", "SQUARE", "--kind", "matrix", "--profile", "identity"],
             "--profile: points input only; --kind matrix reads the matrix as given"),
            (["check-and", "SQUARE", "--kind", "matrix", "--p", "2", "--profile", "exponential"],
             "--p and --profile: points input only; --kind matrix reads the matrix as given"),
        ],
    )
    def test_exit_2_with_one_error_line(self, tmp_path, capsys, square_file, argv, message):
        data = tmp_path / "one_column.csv"
        data.write_text("1\n2\n")
        names = {"DATA": str(data), "SQUARE": str(square_file)}
        argv = [names.get(arg, arg) for arg in argv]
        if argv[0] == "singular-config":
            argv += ["--out-points", str(tmp_path / "p.csv"), "--out-cert", str(tmp_path / "c.json")]
        else:
            argv += ["--out", str(tmp_path / "out.csv")]
        err = assert_input_error(capsys, argv)
        assert err == f"error: {message.replace('DATA', str(data))}\n"


class TestToleranceFlags:
    """Tolerances are module constants: no subcommand reads a tolerance flag."""

    @pytest.mark.parametrize(
        "command",
        ["check-and", "distmat", "embed", "find-pn", "interp", "scan-psi", "singular-config"],
    )
    def test_help_lists_only_the_flags_read(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--tol-" not in capsys.readouterr().out

    def test_flag_on_a_subcommand_that_ignores_it_exit_2(self, tmp_path, capsys, square_file):
        out = tmp_path / "mat.csv"
        assert_input_error(
            capsys,
            ["distmat", str(square_file), "--p", "1.5", "--out", str(out), "--tol-eig", "1e-10"],
        )

    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "banana", "0", "1e-10"])
    def test_check_and_bad_tol_eig_exit_2(self, capsys, square_file, value):
        argv = ["check-and", str(square_file), "--p", "1.5", "--tol-eig", value]
        assert_input_error(capsys, argv)

    def test_singular_config_nan_tol_cert_exit_2(self, tmp_path, capsys):
        outp, outc = tmp_path / "pts.csv", tmp_path / "cert.json"
        assert_input_error(
            capsys,
            ["singular-config", "--m", "2", "--n", "2", "--tol-cert", "nan",
             "--out-points", str(outp), "--out-cert", str(outc)],
        )
        assert not outc.exists()

    @pytest.mark.parametrize(
        "command,flag,value",
        [("embed", "--tol-eig", "1e-10"), ("interp", "--tol-cert", "1e-8"),
         ("singular-config", "--tol-cert", "1e-8")],
    )
    def test_once_valid_values_exit_2(self, tmp_path, capsys, square_file, command, flag, value):
        out = tmp_path / "out.csv"
        matrix, data = tmp_path / "m.csv", tmp_path / "data.csv"
        write_matrix_csv(matrix, UNIT_SQUARE_1NORM)
        data.write_text("0,0,1\n1,0,0\n1,1,0\n0,1,0\n")
        argv = {
            "embed": ["embed", str(matrix), "--out", str(out)],
            "interp": ["interp", str(data), "--p", "1.5", "--query-file", str(square_file),
                       "--out", str(out)],
            "singular-config": ["singular-config", "--m", "2", "--n", "2",
                                "--out-points", str(out), "--out-cert", str(tmp_path / "c.json")],
        }[command]
        assert_input_error(capsys, argv + [flag, value])
        assert not out.exists()

    def test_find_pn_nan_tol_root_exit_2(self, tmp_path, capsys):
        out = tmp_path / "pn.csv"
        argv = ["find-pn", "--n-min", "2", "--n-max", "3", "--tol-root", "nan", "--out", str(out)]
        assert_input_error(capsys, argv)
        assert not out.exists()


class TestCheckAnd:
    def test_unit_square(self, capsys, square_file):
        assert main(["check-and", str(square_file), "--p", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "AND"
        assert report["det_sign"] == 0
        assert report["det_log_magnitude"] == "zero"

    def test_two_points_strictly_and(self, tmp_path, capsys):
        pts = tmp_path / "two.csv"
        pts.write_text("0\n1\n")
        assert main(["check-and", str(pts), "--p", "1.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "strictly-AND"
        assert report["det_sign"] == -1

    def test_random_pnorm_alternating_sign(self, tmp_path, capsys):
        rng = np.random.default_rng(42)
        n = 6
        pts = tmp_path / "pts.csv"
        pts.write_text("\n".join(",".join(fmt_float(v) for v in row) for row in rng.random((n, 2))) + "\n")
        assert main(["check-and", str(pts), "--p", "1.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "strictly-AND"
        assert report["det_sign"] == (-1) ** (n - 1)

    def test_matrix_kind(self, tmp_path, capsys):
        mat = tmp_path / "mat.csv"
        mat.write_text("0,1\n1,0\n")
        assert main(["check-and", str(mat), "--kind", "matrix"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "strictly-AND"

    def test_points_default_to_the_euclidean_distance(self, capsys, square_file):
        assert main(["check-and", str(square_file)]) == 0
        default = capsys.readouterr().out
        assert main(["check-and", str(square_file), "--p", "2", "--profile", "identity"]) == 0
        assert capsys.readouterr().out == default

    def test_json_round_trip_byte_identical(self, tmp_path, square_file):
        out = tmp_path / "report.json"
        assert main(["check-and", str(square_file), "--p", "1", "--out", str(out)]) == 0
        text = out.read_text()
        assert dumps(json.loads(text)) + "\n" == text


class TestEmbed:
    def test_unit_square_matrix(self, tmp_path, capsys):
        mat = tmp_path / "mat.csv"
        mat.write_text("\n".join(",".join(fmt_float(v) for v in r) for r in UNIT_SQUARE_1NORM) + "\n")
        out = tmp_path / "emb.csv"
        assert main(["embed", str(mat), "--out", str(out)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["residual"] < 1e-12
        y = read_points_csv(out).points
        assert y.shape == (4, 3)
        assert np.all(y[-1] == 0.0)
        sq = ((y[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
        assert np.abs(sq - UNIT_SQUARE_1NORM).max() < 1e-12

    def test_not_and_matrix_exit_3(self, tmp_path):
        mat = tmp_path / "mat.csv"
        mat.write_text("0,-1\n-1,0\n")
        out = tmp_path / "emb.csv"
        assert main(["embed", str(mat), "--out", str(out)]) == 3


class TestFindPn:
    def test_single_row(self, tmp_path):
        out = tmp_path / "pn.csv"
        assert main(["find-pn", "--n-min", "2", "--n-max", "2", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,p_n,rate"
        n, pn, rate = lines[1].split(",")
        closed = math.log(2.0) / math.log((1.0 + math.sqrt(17.0)) / 4.0)
        assert n == "2"
        assert float(pn) == pytest.approx(closed, abs=1e-10)
        assert float(rate) == pytest.approx(2 * (closed - 2), abs=1e-9)

    def test_decreasing_column(self, tmp_path):
        out = tmp_path / "pn.csv"
        assert main(["find-pn", "--n-min", "2", "--n-max", "5", "--out", str(out)]) == 0
        vals = [float(line.split(",")[1]) for line in out.read_text().strip().splitlines()[1:]]
        assert len(vals) == 4
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_empty_range_exit_2(self, tmp_path, capsys):
        out = tmp_path / "pn.csv"
        argv = ["find-pn", "--n-min", "4", "--n-max", "3", "--out", str(out)]
        err = assert_input_error(capsys, argv)
        assert "--n-max (3) must be >= --n-min (4)" in err
        assert not out.exists()

    def test_json_output_matches_csv(self, tmp_path):
        out, jout = tmp_path / "pn.csv", tmp_path / "pn.json"
        assert main(
            ["find-pn", "--n-min", "2", "--n-max", "4", "--out", str(out), "--json-out", str(jout)]
        ) == 0
        rows = json.loads(jout.read_text())
        csv_vals = [float(line.split(",")[1]) for line in out.read_text().strip().splitlines()[1:]]
        assert [r["n"] for r in rows] == [2, 3, 4]
        assert [r["p_n"] for r in rows] == csv_vals
        # emitted JSON round-trips byte-identically
        assert dumps(json.loads(jout.read_text())) + "\n" == jout.read_text()


class TestSingularConfig:
    def test_equal_pair(self, tmp_path, capsys):
        outp, outc = tmp_path / "pts.csv", tmp_path / "cert.json"
        rc = main(
            ["singular-config", "--m", "2", "--n", "2",
             "--out-points", str(outp), "--out-cert", str(outc)]
        )
        assert rc == 0
        cert = json.loads(outc.read_text())
        assert cert["pass"] is True
        pts = read_points_csv(outp)
        svals = np.linalg.svd(build_distance_matrix(pts, cert["p"]).entries, compute_uv=False)
        assert svals[-1] / svals[0] < 1e-8
        assert pts.n == 8

    def test_theta_scaled(self, tmp_path):
        outp, outc = tmp_path / "pts.csv", tmp_path / "cert.json"
        rc = main(
            ["singular-config", "--n", "2", "--p", "3.0",
             "--out-points", str(outp), "--out-cert", str(outc)]
        )
        assert rc == 0
        cert = json.loads(outc.read_text())
        assert cert["pass"] is True
        assert 0.0 < cert["theta"] < 1.0
        assert cert["p"] == 3.0

    def test_p_below_pn_exit_2(self, tmp_path, capsys):
        outp, outc = tmp_path / "pts.csv", tmp_path / "cert.json"
        rc = main(
            ["singular-config", "--n", "2", "--p", "2.5",
             "--out-points", str(outp), "--out-cert", str(outc)]
        )
        assert rc == 2
        assert "p ≤ p_n" in capsys.readouterr().err

    def test_side_12_certifies_with_no_cap_flag(self, tmp_path, capsys):
        outp, outc = tmp_path / "pts.csv", tmp_path / "c.json"
        argv = ["singular-config", "--n", "12", "--p", "3",
                "--out-points", str(outp), "--out-cert", str(outc)]
        assert main(argv) == 0
        cert = json.loads(outc.read_text())
        assert cert["pass"] is True and (cert["m"], cert["n"]) == (12, 12)
        assert len(outp.read_text().splitlines()) == 2 * 2**12

    def test_explicit_cap_below_the_side_stops(self, tmp_path, capsys):
        argv = ["singular-config", "--n", "6", "--p", "3", "--cert-cap", "5",
                "--out-points", str(tmp_path / "pts.csv"), "--out-cert", str(tmp_path / "c.json")]
        err = assert_input_error(capsys, argv)
        assert "capped at side 5" in err
        assert "--cert-cap" in err

    def test_side_13_gets_the_cube_bound_before_the_cap(self, tmp_path, capsys):
        argv = ["singular-config", "--n", "13", "--p", "3",
                "--out-points", str(tmp_path / "pts.csv"), "--out-cert", str(tmp_path / "c.json")]
        err = assert_input_error(capsys, argv)
        assert err == "error: m and n must be in [1, 12], got m=13, n=13\n"

    @pytest.mark.parametrize("n, p", [("3", "1030"), ("2", "5000")])
    def test_p_from_1024_names_the_double_range(self, tmp_path, capsys, n, p):
        # the command makes its own points, so no advice to rescale them helps
        argv = ["singular-config", "--n", n, "--p", p,
                "--out-points", str(tmp_path / "pts.csv"), "--out-cert", str(tmp_path / "c.json")]
        err = assert_input_error(capsys, argv)
        assert "overflows a double from p = 1024" in err
        assert "rescale" not in err

    def test_p_1020_certifies(self, tmp_path, capsys):
        outc = tmp_path / "c.json"
        argv = ["singular-config", "--n", "3", "--p", "1020",
                "--out-points", str(tmp_path / "pts.csv"), "--out-cert", str(outc)]
        assert main(argv) == 0
        assert json.loads(outc.read_text())["pass"] is True

    def test_cert_json_round_trip(self, tmp_path):
        outp, outc = tmp_path / "pts.csv", tmp_path / "cert.json"
        main(["singular-config", "--m", "2", "--n", "3",
              "--out-points", str(outp), "--out-cert", str(outc)])
        text = outc.read_text()
        assert dumps(json.loads(text)) + "\n" == text


class TestInterp:
    def _write(self, path, arr):
        path.write_text("\n".join(",".join(fmt_float(v) for v in row) for row in arr) + "\n")

    def test_queries_at_centers_return_data(self, tmp_path, capsys):
        rng = np.random.default_rng(43)
        x = rng.random((8, 2))
        f = rng.standard_normal(8)
        data = tmp_path / "data.csv"
        self._write(data, np.column_stack([x, f]))
        queries = tmp_path / "q.csv"
        self._write(queries, x)
        out = tmp_path / "vals.csv"
        rc = main(["interp", str(data), "--p", "1.5", "--query-file", str(queries), "--out", str(out)])
        assert rc == 0
        got = np.array([float(line) for line in out.read_text().strip().splitlines()])
        assert np.allclose(got, f, atol=1e-8)
        report = json.loads(capsys.readouterr().out)
        assert report["fit_residual"] < 1e-8
        assert report["guaranteed"] is True

    def test_evaluates_only_the_query_rows(self, tmp_path, capsys, monkeypatch):
        # fit_residual is the fit's own residual, so the centres are not evaluated again
        calls = []
        evaluate_many = interpolation.Interpolant.evaluate_many

        def spy(self, queries):
            calls.append((self, np.shape(queries)))
            return evaluate_many(self, queries)

        monkeypatch.setattr(interpolation.Interpolant, "evaluate_many", spy)
        rng = np.random.default_rng(45)
        x, f = rng.random((8, 2)), rng.standard_normal(8)
        data, queries = tmp_path / "data.csv", tmp_path / "q.csv"
        self._write(data, np.column_stack([x, f]))
        self._write(queries, rng.random((3, 2)))
        argv = ["interp", str(data), "--p", "1.5", "--query-file", str(queries),
                "--out", str(tmp_path / "vals.csv")]
        assert main(argv) == 0
        ((fitted, shape),) = calls
        assert shape == (3, 2)
        report = json.loads(capsys.readouterr().out)
        assert report["fit_residual"] == np.abs(evaluate_many(fitted, x) - f).max()

    def test_more_than_500_centres(self, tmp_path, capsys):
        rng = np.random.default_rng(44)
        x = rng.random((501, 3))
        data = tmp_path / "data.csv"
        self._write(data, np.column_stack([x, rng.standard_normal(501)]))
        queries = tmp_path / "q.csv"
        self._write(queries, rng.random((3, 3)))
        out = tmp_path / "vals.csv"
        rc = main(["interp", str(data), "--p", "1.5", "--query-file", str(queries), "--out", str(out)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 501 and report["guaranteed"] is True
        assert math.isfinite(report["condition_estimate"])

    def test_one_centre_has_an_infinite_condition_estimate(self, tmp_path, capsys):
        # A = [0]: fit returns the zero coefficient, and the report quotes "inf"
        data = tmp_path / "data.csv"
        data.write_text("0.5,0\n")
        queries = tmp_path / "q.csv"
        queries.write_text("0.5\n2\n")
        out = tmp_path / "vals.csv"
        rc = main(["interp", str(data), "--p", "1.5", "--query-file", str(queries), "--out", str(out)])
        assert rc == 0
        assert '"condition_estimate":"inf"' in capsys.readouterr().out
        assert out.read_text() == "0\n0\n"

    def test_unit_square_p1_exit_3(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("0,0,1\n1,0,0\n1,1,0\n0,1,0\n")
        queries = tmp_path / "q.csv"
        queries.write_text("0.5,0.5\n")
        out = tmp_path / "vals.csv"
        rc = main(["interp", str(data), "--p", "1", "--query-file", str(queries), "--out", str(out)])
        assert rc == 3
        assert "singular" in capsys.readouterr().err.lower()

    def test_coincident_centres_exit_2(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("0.5,0.5,1\n0.5,0.5,2\n1,0,0\n")
        queries = tmp_path / "q.csv"
        queries.write_text("0.5,0.5\n")
        argv = ["interp", str(data), "--p", "1.5", "--query-file", str(queries),
                "--out", str(tmp_path / "vals.csv")]
        err = assert_input_error(capsys, argv)
        assert "centres in rows 1 and 2 coincide" in err

    def test_dimension_mismatch_exit_2(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("0,0,1\n1,0,0\n")
        queries = tmp_path / "q.csv"
        queries.write_text("0.5,0.5,0.5\n")
        out = tmp_path / "vals.csv"
        rc = main(["interp", str(data), "--p", "1.5", "--query-file", str(queries), "--out", str(out)])
        assert rc == 2


class TestScanPsi:
    def test_row_at_p2(self, tmp_path):
        out = tmp_path / "psi.csv"
        rc = main(["scan-psi", "--n", "2", "--p-grid", "2:3:0.5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "p,psi_2"
        first = lines[1].split(",")
        assert float(first[0]) == 2.0
        assert float(first[1]) == pytest.approx((1.0 - math.sqrt(2.0)) / 2.0, abs=1e-15)

    def test_psi1_tends_to_zero(self, tmp_path):
        out = tmp_path / "psi.csv"
        rc = main(["scan-psi", "--n", "1", "--p-grid", "100:1000:450", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        vals = [abs(float(r[1])) for r in rows]
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] < 0.01

    def test_empty_grid_header_only(self, tmp_path):
        out = tmp_path / "psi.csv"
        rc = main(["scan-psi", "--n", "1,2", "--p-grid", "3:2:1", "--out", str(out)])
        assert rc == 0
        assert out.read_text() == "p,psi_1,psi_2\n"

    def test_empty_grid_checks_no_degree(self, tmp_path):
        out = tmp_path / "psi.csv"
        rc = main(["scan-psi", "--n", "51", "--p-grid", "3:2:1", "--out", str(out)])
        assert rc == 0
        assert out.read_text() == "p,psi_51\n"

    def test_non_positive_p_reported_before_degree(self, tmp_path, capsys):
        out = tmp_path / "psi.csv"
        err = assert_input_error(capsys, ["scan-psi", "--n", "51", "--p-grid=-1:3:1", "--out", str(out)])
        assert err == "error: p must be a finite positive real, got -1.0\n"

    def test_degree_beyond_cap_named(self, tmp_path, capsys):
        out = tmp_path / "psi.csv"
        err = assert_input_error(capsys, ["scan-psi", "--n", "2,51", "--p-grid", "2:3:0.5", "--out", str(out)])
        assert err == "error: degree must be in [1, 50], got 51\n"

    @pytest.mark.parametrize(
        "grid", ["2:inf:1", "2:3:nan", "-inf:3:1", "2:3:inf", "-1e308:1e308:1e308", "2:3:1e-310"]
    )
    def test_non_finite_grid_exit_2(self, tmp_path, capsys, grid):
        out = tmp_path / "psi.csv"
        assert_input_error(capsys, ["scan-psi", "--n", "2", f"--p-grid={grid}", "--out", str(out)])

    def test_grid_larger_than_memory_exit_2(self, tmp_path, capsys):
        # 4e17 points ask for 2.78 EiB, which no allocator grants; 2^63 and 1e300
        # points are past the sizes numpy indexes (it returned an empty grid at
        # 2^63 and raised its own ValueError at 1e300)
        out = tmp_path / "psi.csv"
        argv = ["scan-psi", "--n", "2", "--p-grid=2:6:1e-17", "--out", str(out)]
        err = assert_input_error(capsys, argv)
        assert "'2:6:1e-17'" in err and "400000000000000000 points" in err
        argv = ["scan-psi", "--n", "2", "--p-grid=2:3:1e-300", "--out", str(out)]
        err = assert_input_error(capsys, argv)
        pattern = r"error: grid '2:3:1e-300' has \d{300} points, more than memory holds\n"
        assert re.fullmatch(pattern, err)
        argv = ["scan-psi", "--n", "2", "--p-grid=2:9223372036854775807:1", "--out", str(out)]
        err = assert_input_error(capsys, argv)
        assert "has 9223372036854775808 points, more than memory holds" in err

    def test_repeated_n_exit_2(self, tmp_path, capsys):
        # the CSV would hold two psi_2 columns and each JSON row one psi_2 key
        out, jout = tmp_path / "psi.csv", tmp_path / "psi.json"
        argv = ["scan-psi", "--n", "2,3,2", "--p-grid", "2:2.1:0.05",
                "--out", str(out), "--json-out", str(jout)]
        err = assert_input_error(capsys, argv)
        assert err == "error: --n lists 2 more than once\n"
        assert not out.exists() and not jout.exists()

    def test_json_output(self, tmp_path):
        out, jout = tmp_path / "psi.csv", tmp_path / "psi.json"
        rc = main(
            ["scan-psi", "--n", "2,3", "--p-grid", "2:2.5:0.25",
             "--out", str(out), "--json-out", str(jout)]
        )
        assert rc == 0
        rows = json.loads(jout.read_text())
        assert [r["p"] for r in rows] == [2.0, 2.25, 2.5]
        assert rows[0]["psi_2"] == pytest.approx((1.0 - math.sqrt(2.0)) / 2.0)
        assert set(rows[0]) == {"p", "psi_2", "psi_3"}


class TestOutOfRangeInput:
    """Values a double cannot carry through end in exit 2, never in a wrong verdict."""

    def test_non_finite_matrix_cell_exit_2(self, tmp_path, capsys):
        mat = tmp_path / "mat.csv"
        mat.write_text("0,inf\ninf,0\n")
        for argv in (["check-and", str(mat), "--kind", "matrix"],
                     ["embed", str(mat), "--out", str(tmp_path / "emb.csv")]):
            assert "mat.csv:1: column 2: not a finite number" in assert_input_error(capsys, argv)

    def test_overflowing_zero_sum_restriction_exit_2(self, tmp_path, capsys):
        mat = tmp_path / "mat.csv"
        mat.write_text("0,1e308\n1e308,0\n")
        assert_input_error(capsys, ["check-and", str(mat), "--kind", "matrix"])

    @pytest.mark.parametrize("far", ["1e300", "1e-250"])
    def test_distances_out_of_double_range_exit_2(self, tmp_path, capsys, far):
        pts = tmp_path / "two.csv"
        pts.write_text(f"0,0\n{far},0\n")
        assert_input_error(capsys, ["check-and", str(pts), "--p", "1.5"])
        out = tmp_path / "mat.csv"
        assert_input_error(capsys, ["distmat", str(pts), "--p", "1.5", "--out", str(out)])
        assert not out.exists()
        data = tmp_path / "data.csv"
        data.write_text(f"0,0,1\n{far},0,2\n")
        argv = ["interp", str(data), "--p", "1.5", "--query-file", str(pts),
                "--out", str(tmp_path / "vals.csv")]
        assert_input_error(capsys, argv)

    def test_subnormal_power_sums_exit_2(self, tmp_path, capsys):
        pts = tmp_path / "tiny.csv"
        x = np.random.default_rng(5).random((5, 2)) * 1e-160
        pts.write_text("\n".join(",".join(fmt_float(v) for v in row) for row in x) + "\n")
        err = assert_input_error(capsys, ["check-and", str(pts), "--p", "2"])
        assert "below the normal double range" in err

    def test_distances_beyond_double_range_at_tiny_p_exit_2(self, tmp_path, capsys, square_file):
        # the unit square's diagonal 2^(1/p) overflows once 1/p >= 1024
        data = tmp_path / "data.csv"
        data.write_text("0,0,1\n1,0,0\n1,1,0\n0,1,0\n")
        out = tmp_path / "mat.csv"
        for argv in (
            ["distmat", str(square_file), "--p", "9.7e-4", "--out", str(out)],
            ["check-and", str(square_file), "--p", "9.7e-4"],
            ["interp", str(data), "--p", "9.7e-4", "--query-file", str(square_file),
             "--out", str(tmp_path / "vals.csv")],
        ):
            err = assert_input_error(capsys, argv)
            assert "p-norm distances overflow a double at p = 0.00097" in err
        assert not out.exists()

    @pytest.mark.parametrize("p", ["9.7e-4", "1e-300"])
    def test_psi_beyond_double_range_at_tiny_p_exit_2(self, tmp_path, capsys, p):
        # 2^(1/p) overflows once 1/p >= 1024
        argv = ["scan-psi", "--n", "2,5", "--p-grid", f"{p}:{p}:1", "--out", str(tmp_path / "psi.csv")]
        assert f"overflows a double at p = {float(p)!r}" in assert_input_error(capsys, argv)
        argv = ["singular-config", "--n", "2", "--p", p,
                "--out-points", str(tmp_path / "pts.csv"), "--out-cert", str(tmp_path / "c.json")]
        assert f"overflows a double at p = {float(p)!r}" in assert_input_error(capsys, argv)

    def test_far_query_exit_2(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("0,0,1\n1,0,2\n")
        queries = tmp_path / "q.csv"
        queries.write_text("1e300,0\n")
        argv = ["interp", str(data), "--p", "1.5", "--query-file", str(queries),
                "--out", str(tmp_path / "vals.csv")]
        assert_input_error(capsys, argv)


@pytest.fixture(scope="module")
def unit_square_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("unit_square")
    (base / "square.csv").write_text(UNIT_SQUARE_CSV)
    (base / "data.csv").write_text("0,0,1\n1,0,0\n1,1,0\n0,1,0\n")
    (base / "queries.csv").write_text("0.5,0.5\n0.25,1\n")
    return base


class TestWholePRange:
    """No p a double can hold ends a command in a traceback or in a non-finite output."""

    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(min_value=5e-324, max_value=1.7e308))
    @example(p=5e-324)
    @example(p=9.7e-4)
    @example(p=1 / 1024)
    @example(p=1e-3)
    @example(p=1030.0)
    @example(p=0.002)  # power:3 of the distances 2^500 overflows
    def test_exit_code_and_finite_files(self, unit_square_dir, p):
        sq, data, queries = (str(unit_square_dir / f) for f in ("square.csv", "data.csv", "queries.csv"))
        with tempfile.TemporaryDirectory(dir=unit_square_dir) as tmp:
            out = Path(tmp)
            runs = [
                (["distmat", sq, "--p", repr(p), "--out", str(out / "mat.csv")], ["mat.csv"]),
                (["check-and", sq, "--p", repr(p), "--out", str(out / "and.json")], ["and.json"]),
                (["interp", data, "--p", repr(p), "--query-file", queries,
                  "--out", str(out / "vals.csv")], ["vals.csv"]),
                (["distmat", sq, "--p", repr(p), "--profile", "power:3",
                  "--out", str(out / "cube.csv")], ["cube.csv"]),
                (["check-and", sq, "--p", repr(p), "--profile", "power:3",
                  "--out", str(out / "cube.json")], ["cube.json"]),
                (["interp", data, "--p", repr(p), "--profile", "power:3", "--query-file", queries,
                  "--out", str(out / "cube_vals.csv")], ["cube_vals.csv"]),
                (["scan-psi", "--n", "2,5", "--p-grid", f"{p!r}:{p!r}:1",
                  "--out", str(out / "psi.csv")], ["psi.csv"]),
                (["singular-config", "--n", "2", "--p", repr(p), "--out-points",
                  str(out / "pts.csv"), "--out-cert", str(out / "cert.json")], ["pts.csv", "cert.json"]),
            ]
            for argv, files in runs:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    rc = main(argv)
                assert rc in (0, 2, 3), argv
                if rc == 0:
                    for name in files:
                        text = (out / name).read_text()
                        assert not re.search(r"\b(?:inf|nan)\b", text), (argv, text)


@pytest.mark.parametrize(
    "x,text",
    [(math.nan, "nan"), (-math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
     (0.0, "0"), (-0.0, "-0"), (5e-324, "4.9406564584124654e-324"), (1.0, "1"),
     (np.float64(0.1), "0.10000000000000001")],
)
def test_fmt_float_pins(x, text):
    assert fmt_float(x) == text


@pytest.mark.parametrize("value", [None, object(), {"key": b"bytes"}, [1, {2.5}]])
def test_dumps_rejects_what_json_cannot_hold(value):
    with pytest.raises(TypeError, match="^not JSON-serializable: <class "):
        dumps(value)


class TestDeterminism:
    def test_identical_reruns_are_byte_identical(self, tmp_path, square_file):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"mat_{tag}.csv"
            main(["distmat", str(square_file), "--p", "1.5", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

        certs = []
        for tag in ("a", "b"):
            outp, outc = tmp_path / f"p{tag}.csv", tmp_path / f"c{tag}.json"
            main(["singular-config", "--m", "2", "--n", "2",
                  "--out-points", str(outp), "--out-cert", str(outc)])
            certs.append(outc.read_bytes())
        assert certs[0] == certs[1]


class TestBlasThreads:
    def test_check_and_at_one_and_two_threads(self, tmp_path):
        # the eigenvalues' last digits may move with the BLAS thread count;
        # the verdict and the determinant sign do not
        rng = np.random.default_rng(46)
        pts = tmp_path / "pts.csv"
        pts.write_text("".join(",".join(map(fmt_float, row)) + "\n" for row in rng.random((1000, 3))))
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"),
                       OPENBLAS_NUM_THREADS=threads)
            run = subprocess.run(
                [sys.executable, "-m", "pnormdist", "check-and", str(pts), "--p", "1.5"],
                env=env, capture_output=True, timeout=300,
            )
            assert run.returncode == 0, run.stderr.decode()
            reports.append(json.loads(run.stdout))
        one, two = reports
        assert one["verdict"] == two["verdict"] == "strictly-AND"
        assert one["det_sign"] == two["det_sign"] == -1  # (-1)^(n-1)
        eig_one, eig_two = np.array(one["eigenvalues"]), np.array(two["eigenvalues"])
        assert np.abs(eig_one - eig_two).max() <= 1e-15 * np.abs(eig_one).max()


class TestDeferredScipy:
    """scipy.linalg is imported inside `fit`, the one function that calls
    LAPACK, so of the commands only `interp` loads it."""

    # prints, after `import pnormdist`, after `import pnormdist.cli` and after
    # cli.main(argv), whether scipy.linalg is loaded; then main's exit code
    PROBE = (
        "import json, sys\n"
        "import pnormdist\n"
        "seen = ['scipy.linalg' in sys.modules]\n"
        "from pnormdist import cli\n"
        "seen.append('scipy.linalg' in sys.modules)\n"
        "rc = cli.main(sys.argv[1:])\n"
        "seen.append('scipy.linalg' in sys.modules)\n"
        "print(json.dumps([seen, rc]))\n"
    )

    @pytest.mark.parametrize(
        "argv",
        [
            "distmat square.csv --p 1.5 --out m.csv",
            "embed l1.csv --out e.csv",
            "find-pn --n-min 2 --n-max 3 --out pn.csv",
            "scan-psi --n 1,2 --p-grid 2:3:0.5 --out psi.csv",
            "singular-config --m 2 --n 2 --out-points p.csv --out-cert c.json",
            "singular-config --n 2 --p 3 --out-points p.csv --out-cert c.json",
            "check-and square.csv --p 1.5",
            "interp data.csv --p 1.5 --query-file queries.csv --out v.csv",
        ],
    )
    def test_scipy_linalg_loads_only_to_factor(self, tmp_path, argv):
        (tmp_path / "square.csv").write_text(UNIT_SQUARE_CSV)
        (tmp_path / "l1.csv").write_text(
            "".join(",".join(map(fmt_float, row)) + "\n" for row in UNIT_SQUARE_1NORM)
        )
        (tmp_path / "data.csv").write_text("0,0,1\n1,0,0\n1,1,0\n0,1,0\n")
        (tmp_path / "queries.csv").write_text("0.5,0.5\n0.25,1\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"),
                   OPENBLAS_NUM_THREADS="1")
        run = subprocess.run(
            [sys.executable, "-W", "error", "-c", self.PROBE, *argv.split()],
            cwd=tmp_path, env=env, capture_output=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr.decode()
        seen, rc = json.loads(run.stdout.decode().splitlines()[-1])
        assert rc == 0
        assert seen == [False, False, argv.split()[0] == "interp"]

    def test_library_loads_scipy_linalg_only_to_fit(self):
        probe = (
            "import json, sys\n"
            "import numpy as np\n"
            "from pnormdist import check_and, fit, matrix_from_profile, multiquadric\n"
            "square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]\n"
            "matrix_from_profile(square, 1.5, multiquadric())\n"
            "check_and(np.ones((3, 3)) - np.eye(3))\n"
            "seen = ['scipy.linalg' in sys.modules]\n"
            "fit(square, [1.0, 0.0, 0.0, 0.0], 1.5)\n"
            "seen.append('scipy.linalg' in sys.modules)\n"
            "print(json.dumps(seen))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"),
                   OPENBLAS_NUM_THREADS="1")
        run = subprocess.run([sys.executable, "-W", "error", "-c", probe],
                             env=env, capture_output=True, timeout=300)
        assert run.returncode == 0, run.stderr.decode()
        assert json.loads(run.stdout.decode().splitlines()[-1]) == [False, True]


class TestReadme:
    """README's "Command line" section names exactly the flags the parser has,
    the profile kinds and the input conventions, and its commands run."""

    @staticmethod
    def subcommands() -> dict:
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return commands.choices

    @staticmethod
    def section() -> str:
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        return readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]

    def test_command_line_section_names_every_flag_and_no_other(self):
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", self.section()))
        flags = {
            flag
            for sp in self.subcommands().values()
            for action in sp._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        assert named - flags == set(), "README names flags the parser lacks"
        assert flags - named == set(), "parser flags missing from README"

    def test_profile_paragraph_names_every_kind_and_convention_and_no_other(self):
        # its lowercase code words are commands, JSON keys, kinds and conventions
        paragraph = re.search(r"\n(`--profile`.*?)\n\n", self.section(), re.S).group(1)
        spans = re.findall(r"`([^`]*)`", paragraph)
        words = {span.split(":")[0] for span in spans if re.fullmatch(r"[a-z][a-z-]*(:[A-Z]+)?", span)}
        params = (key for keys in profiles._PARAMETERS.values() for key in keys)
        keys = {"kind", "input_convention", *params}
        named = words - set(self.subcommands()) - keys
        assert named == set(profiles._PARAMETERS) | set(profiles._CONVENTIONS)

    def test_command_line_block_runs(self, tmp_path, monkeypatch):
        # each line as a user types it, among the files it names: points,
        # interpolation data and queries; the first line writes matrix.csv
        rng = np.random.default_rng(47)
        monkeypatch.chdir(tmp_path)
        centres = rng.random((12, 3))
        tables = {
            "points.csv": centres,
            "data.csv": np.column_stack([centres, rng.standard_normal(12)]),
            "queries.csv": rng.random((5, 3)),
        }
        for name, table in tables.items():
            Path(name).write_text("".join(",".join(map(fmt_float, row)) + "\n" for row in table))
        block = re.search(r"```sh\n(.*?)```", self.section(), re.S).group(1)
        lines = block.splitlines()
        assert "--out matrix.csv" in lines[0]
        for line in lines:
            program, *argv = shlex.split(line, comments=True)
            assert program == "pnormdist"
            assert main(argv) == 0, line
