import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lefdist import cli, lefschetz, verify
from lefdist.cli import main
from lefdist.curvature import MAX_GRID_NODES, flat_torus_grid, sphere_grid
from lefdist.lie_cohomology import MAX_ALGEBRA_DIM
from lefdist.linalg import MAX_PRINTED_DIGITS, IntMatrix, matrix_power, to_number
from lefdist.models import MAX_TORUS_WINDOW
from toral_graded import toral_graded_map
from wire_format import assert_numbers_read_back

BIG = 10**400  # an integer too large for a float


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def assert_input_error(rc, err, field):
    assert rc == 2
    assert err.startswith("input error:") and field in err and "Traceback" not in err


class TestMappingTorus:
    def test_cat_map_window2(self, capsys):
        rc, out, _ = run_cli(
            capsys, "mapping-torus", "--matrix", "[[2,1],[1,1]]", "--window", "2"
        )
        assert rc == 0
        obj = json.loads(out)
        atoms = {a["at"]: a["coeff"] for a in obj["distribution"]["atoms"]}
        assert atoms == {"-2": "-5", "-1": "-1", "1": "-1", "2": "-5"}

    def test_byte_stable(self, capsys):
        args = ("mapping-torus", "--matrix", "[[2,1],[1,1]]", "--window", "3")
        rc1, out1, _ = run_cli(capsys, *args)
        rc2, out2, _ = run_cli(capsys, *args)
        assert rc1 == rc2 == 0 and out1 == out2

    def test_graded_input(self, capsys, tmp_path):
        path = tmp_path / "graded.json"
        path.write_text(json.dumps({"graded": [[["1"]], [["1", "0"], ["0", "1"]], [["1"]]]}))
        rc, out, _ = run_cli(capsys, "mapping-torus", "--input", str(path), "--window", "0")
        assert rc == 0
        obj = json.loads(out)
        # identity on genus-1 cohomology: chi = 0, no atom survives
        assert obj["distribution"]["atoms"] == []

    def test_matrix_and_input_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mapping-torus", "--matrix", "[[1,0],[0,1]]", "--input", "x.json"])
        assert exc.value.code == 2

    def test_non_unimodular_is_domain_error(self, capsys):
        rc, _, err = run_cli(capsys, "mapping-torus", "--matrix", "[[2,0],[0,1]]")
        assert rc == 1
        assert "determinant" in err

    def test_zero_dimensional_torus_refused(self, capsys):
        # chi(T^0) = 1, not the chi(T^n) = 0 that the atom at 0 assumes
        rc, out, err = run_cli(capsys, "mapping-torus", "--matrix", "[]", "--window", "1")
        assert rc == 1 and out == ""
        assert err == "error: toral automorphism needs a torus of dimension n >= 1, got n = 0\n"

    def test_bad_inline_json(self, capsys):
        rc, _, err = run_cli(capsys, "mapping-torus", "--matrix", "[[2,1],[1,")
        assert rc == 2

    def test_deeply_nested_inline_json(self, capsys):
        rc, _, err = run_cli(capsys, "mapping-torus", "--matrix", "[" * 50_000 + "]" * 50_000)
        assert_input_error(rc, err, "--matrix is nested too deeply")

    def test_exponent_past_the_cap(self, capsys):
        rc, _, err = run_cli(capsys, "mapping-torus", "--matrix", '[["1e1001", "1"], ["1", "1"]]')
        assert_input_error(rc, err, "MAX_DECIMAL_EXPONENT")

    @pytest.mark.parametrize("matrix", ["5", "[5]"])
    def test_matrix_not_array_of_arrays(self, capsys, matrix):
        rc, _, err = run_cli(capsys, "mapping-torus", "--matrix", matrix, "--window", "1")
        assert rc == 2
        assert err.startswith("input error:") and "array of arrays" in err

    def test_input_matrix_not_array_of_arrays(self, capsys, tmp_path):
        path = tmp_path / "torus.json"
        path.write_text(json.dumps({"matrix": 5}))
        rc, _, err = run_cli(capsys, "mapping-torus", "--input", str(path), "--window", "1")
        assert rc == 2
        assert err.startswith("input error:") and "array of arrays" in err

    @pytest.mark.parametrize("entry", [True, "~1", "x"])
    def test_matrix_entry_named(self, capsys, entry):
        rc, _, err = run_cli(capsys, "mapping-torus", "--matrix", json.dumps([[entry, 1], [1, 1]]))
        assert_input_error(rc, err, "'matrix' entry")

    def test_non_integer_entry_is_a_domain_error_naming_the_field(self, capsys):
        rc, _, err = run_cli(capsys, "mapping-torus", "--matrix", '[["1/2",0],[0,1]]')
        assert rc == 1
        assert err.startswith("error: 'matrix': IntMatrix entries must be integers")

    def test_disagreeing_lefschetz_paths_are_an_internal_error(self, capsys, monkeypatch):
        # toral_lefschetz's trace path, the Berkowitz coefficients of A^k, with one extra term
        charpoly = lefschetz.charpoly
        monkeypatch.setattr(lefschetz, "charpoly", lambda m: charpoly(m) + (1,))
        rc, out, err = run_cli(capsys, "mapping-torus", "--matrix", "[[2,1],[1,1]]", "--window", "2")
        assert (rc, out) == (3, "")
        assert err == "internal error: determinant path gave -1, exterior-trace path gave 0\n"

    @pytest.mark.parametrize(
        "matrix, window",
        [("[[2,1],[1,1]]", 10500), ("[[2,1],[1,1]]", BIG), ("[[100,1],[99,1]]", 2146)],
        ids=["cat 10500", "cat BIG", "first past the cap"],
    )
    def test_a_value_past_the_printed_cap_is_refused_before_the_walk(self, capsys, matrix, window):
        # the cat map at window 10500 walked every power, about 6 s, then exited 2 with Python's
        # "Exceeds the limit (4300 digits)".  L(F^2146) of the second map is the first value of its
        # series past the cap, which the exact check of the trace-path values finds
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, "mapping-torus", "--matrix", matrix, "--window", str(window))
        assert time.perf_counter() - start < 1
        assert (rc, out) == (1, "")
        assert err == f"error: L(F^{window}) has more than MAX_PRINTED_DIGITS = {MAX_PRINTED_DIGITS} decimal digits\n"

    @pytest.mark.parametrize("window", [4000, MAX_TORUS_WINDOW])
    @pytest.mark.parametrize(
        "source, first",
        [("[[1000001,1000000,0,0],[1,1,0,0],[0,0,0,-1],[0,0,1,0]]", 717), ("graded", -3429)],
        ids=["rotation block", "graded"],
    )
    def test_a_window_stops_at_its_first_unprintable_value(self, capsys, tmp_path, source, first, window):
        # the rotation block keeps the eigenvalue bound from deciding, and the exact series stops at its
        # first value past the cap: at window 4000 the toral map built every power sum of the window
        # first, 22 s and 395 MB.  The graded map walked its rational powers to the end of the window,
        # about 7 s, and was refused only when the report was written, naming no k.  Now they take about
        # 0.3 s and 0.8 s on a 2-vCPU Xeon; the graded one reduces two Fractions of some 9000 bits per k
        path = tmp_path / "graded.json"
        path.write_text(json.dumps({"graded": [[["1"]], [["2", "1", "0"], ["1", "1", "1/2"], ["0", "1/3", "1"]], [["1"]]]}))
        args = ["--input", str(path)] if source == "graded" else ["--matrix", source]
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, "mapping-torus", *args, "--window", str(window))
        assert time.perf_counter() - start < 2
        assert (rc, out) == (1, "")
        assert err == f"error: L(F^{first}) has more than MAX_PRINTED_DIGITS = {MAX_PRINTED_DIGITS} decimal digits\n"

    @pytest.mark.parametrize("window", [MAX_TORUS_WINDOW + 1, 200_000])
    @pytest.mark.parametrize("source", ["[[0,-1],[1,0]]", "[[1,1],[0,1]]", "graded"])
    def test_a_window_past_the_cap_is_refused_before_the_walk(self, capsys, tmp_path, source, window):
        # an eigenvalue on the unit circle gives the digit cap no bound: the quarter turn at window
        # 200,000 ran 10.4 s and wrote 18.6 MB, and the shear at 50,000 ran 2.2 s
        path = tmp_path / "graded.json"
        path.write_text(json.dumps({"graded": [[["1"]], [["0", "-1"], ["1", "0"]], [["1"]]]}))
        args = ["--input", str(path)] if source == "graded" else ["--matrix", source]
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, "mapping-torus", *args, "--window", str(window))
        assert time.perf_counter() - start < 1
        assert (rc, out) == (1, "")
        assert err == f"error: window {window} is more than MAX_TORUS_WINDOW = {MAX_TORUS_WINDOW}\n"

    def test_inexact_graded_entry_named_by_degree(self, capsys, tmp_path):
        path = tmp_path / "graded.json"
        path.write_text(json.dumps({"graded": [[["1"]], [["~0.5"]]]}))
        rc, _, err = run_cli(capsys, "mapping-torus", "--input", str(path), "--window", "1")
        assert_input_error(rc, err, "'graded' degree 1 entry must be exact")

    def test_input_graded_not_array(self, capsys, tmp_path):
        path = tmp_path / "graded.json"
        path.write_text(json.dumps({"graded": 5}))
        rc, _, err = run_cli(capsys, "mapping-torus", "--input", str(path), "--window", "1")
        assert rc == 2
        assert err.startswith("input error:") and "'graded'" in err


class TestFlow:
    def test_orbit_file(self, capsys, tmp_path):
        path = tmp_path / "orbits.json"
        path.write_text(
            json.dumps(
                {"orbits": [{"length": "1", "return_map": [["2", "0"], ["0", "1/2"]]}]}
            )
        )
        rc, out, _ = run_cli(capsys, "flow", "--input", str(path), "--window", "3")
        assert rc == 0
        obj = json.loads(out)
        atoms = {a["at"]: a["coeff"] for a in obj["distribution"]["atoms"]}
        assert atoms == {k: "-1" for k in ("-3", "-2", "-1", "1", "2", "3")}

    def test_non_simple_named(self, capsys, tmp_path):
        path = tmp_path / "orbits.json"
        path.write_text(
            json.dumps({"orbits": [{"length": "1", "return_map": [["1", "0"], ["0", "1"]]}]})
        )
        rc, _, err = run_cli(capsys, "flow", "--input", str(path), "--window", "1")
        assert rc == 1
        assert "not simple" in err and "k=1" in err

    def test_singular_return_map(self, capsys, tmp_path):
        # the orbit is longer than the window, so no multiple is reached: the map is refused when read
        path = tmp_path / "orbits.json"
        path.write_text(json.dumps({"orbits": [{"length": "5", "return_map": [["1", "2"], ["1/2", "1"]]}]}))
        rc, _, err = run_cli(capsys, "flow", "--input", str(path), "--window", "1")
        assert rc == 1
        assert err.startswith("error:") and "singular" in err

    def test_signs_route(self, capsys, tmp_path):
        path = tmp_path / "orbits.json"
        path.write_text(
            json.dumps({"orbits": [{"length": "2", "signs": {"1": 1, "-1": -1}}]})
        )
        rc, out, _ = run_cli(capsys, "flow", "--input", str(path), "--window", "2")
        assert rc == 0
        atoms = {a["at"]: a["coeff"] for a in json.loads(out)["distribution"]["atoms"]}
        assert atoms == {"-2": "-2", "2": "2"}

    @pytest.mark.parametrize("window", ["1/2", "1"])
    def test_sign_other_than_one_refused_when_read(self, capsys, tmp_path, window):
        # refused like a singular return map, whether or not the multiple k=1 lies in the window
        path = tmp_path / "orbits.json"
        path.write_text(json.dumps({"orbits": [{"length": "1", "signs": {"1": 2}}]}))
        rc, _, err = run_cli(capsys, "flow", "--input", str(path), "--window", window)
        assert rc == 1
        assert err == "error: orbit 0: sign for k=1 must be +-1, got 2\n"

    @pytest.mark.parametrize(
        "bad, rc, message",
        [
            ({"signs": {"1": 2}}, 1, "error: orbit 2: sign for k=1 must be +-1, got 2"),
            ({"return_map": [["1", "2"], ["1/2", "1"]]}, 1, "error: orbit 2: return map is singular"),
            ({"signs": {"1": "x"}}, 2, "input error: orbit 2: orbit sign must be an integer, got 'x'"),
            ({"signs": {"1": 1, "01": 1}}, 2, "input error: orbit 2: orbit 'signs' keys '1' and '01' both name k = 1"),
        ],
        ids=["sign", "singular", "parse", "repeated"],
    )
    def test_orbit_errors_name_the_orbit(self, capsys, tmp_path, bad, rc, message):
        # the error type, and so the exit code, is the one the orbit raised
        good = {"length": "1", "signs": {"1": 1, "-1": 1}}
        path = tmp_path / "orbits.json"
        path.write_text(json.dumps({"orbits": [good, good, {"length": "2", **bad}]}))
        got_rc, _, err = run_cli(capsys, "flow", "--input", str(path), "--window", "1")
        assert (got_rc, err) == (rc, message + "\n")

    def test_exact_locations_past_the_float_range(self, capsys, tmp_path):
        # they sort as +-inf, apart from every float, and never pass through float()
        path = tmp_path / "orbits.json"
        path.write_text(json.dumps({"orbits": [{"length": "1e400", "signs": {"1": -1, "-1": -1}}]}))
        rc, out, _ = run_cli(capsys, "flow", "--input", str(path), "--window", "1e400")
        assert rc == 0
        atoms = [(a["at"], a["coeff"]) for a in json.loads(out)["distribution"]["atoms"]]
        assert atoms == [(f"-{BIG}", f"-{BIG}"), (str(BIG), f"-{BIG}")]

    def test_exact_and_inexact_lengths_merge_past_the_float_range(self, capsys, tmp_path):
        # the exact -1.8e308 has no float, so the merged atom sits at its inexact partner's -1.7e308
        orbits = [{"length": "1.8e308", "signs": {"1": 1, "-1": 1}}, {"length": "~1.7e308", "signs": {"1": -1, "-1": -1}}]
        path = tmp_path / "orbits.json"
        path.write_text(json.dumps({"orbits": orbits}))
        rc, out, _ = run_cli(capsys, "flow", "--input", str(path), "--window", "2e308", "--tolerance", "2e307")
        assert rc == 0
        coeff = f"~{float(Fraction(18 * 10**307) - Fraction(1.7e308))!r}"
        atoms = [(a["at"], a["coeff"]) for a in json.loads(out)["distribution"]["atoms"]]
        assert atoms == [("~-1.7e+308", coeff), ("~1.7e+308", coeff)]

    @pytest.mark.parametrize(
        "lengths, window, tolerance",
        [
            (("~1.7e308", "~1.6e308"), "2e308", "2e307"),  # two floats sum to inf
            (("2e308", "~1.7e308"), "3e308", "1e308"),  # an exact and a float sum past the float range
        ],
        ids=["inexact", "exact-and-inexact"],
    )
    def test_merged_coefficient_past_the_float_range(self, capsys, tmp_path, lengths, window, tolerance):
        orbits = [{"length": length, "signs": {"1": 1, "-1": 1}} for length in lengths]
        path = tmp_path / "orbits.json"
        path.write_text(json.dumps({"orbits": orbits}))
        rc, out, err = run_cli(capsys, "flow", "--input", str(path), "--window", window, "--tolerance", tolerance)
        assert out == ""
        assert_input_error(rc, err, "atom at ~-1.7e+308: the merged coefficient is past the float range")

    def test_equal_exact_lengths_merge_across_a_float_tie(self, capsys, tmp_path):
        # 1/3 + 10^-30 rounds to the float of 1/3; the two orbits of length 1/3 still make one atom
        near = "1000000000000000000000000000001/3000000000000000000000000000000"
        orbits = [{"length": length, "signs": {"1": 1, "-1": 1}} for length in ("1/3", near, "1/3")]
        path = tmp_path / "orbits.json"
        path.write_text(json.dumps({"orbits": orbits}))
        rc, out, _ = run_cli(capsys, "flow", "--input", str(path), "--window", "0.4")
        assert rc == 0
        atoms = [(a["at"], a["coeff"]) for a in json.loads(out)["distribution"]["atoms"]]
        assert atoms == [(f"-{near}", near), ("-1/3", "2/3"), ("1/3", "2/3"), (near, near)]

    @pytest.mark.parametrize(
        "obj, field",
        [
            ({"orbits": 5}, "'orbits'"),
            ({"orbits": [5]}, "'orbits'"),
            ({"orbits": [{"length": "1", "signs": 5}]}, "'signs'"),
            ({"orbits": [{"length": "1", "signs": {"1": True, "-1": 1}}]}, "sign"),
            ({"orbits": [{"length": "~inf", "signs": {"1": 1, "-1": 1}}]}, "'length'"),
            ({"orbits": [{"length": "1", "return_map": [[True]]}]}, "orbit 0: orbit 'return_map' entry"),
            ({"orbits": [{"length": "1", "return_map": [["~1"]]}]}, "orbit 0: orbit 'return_map' entry"),
            ({"orbits": [{"length": "1", "return_map": [["x"]]}]}, "orbit 0: orbit 'return_map' entry"),
        ],
    )
    def test_malformed_orbits(self, capsys, tmp_path, obj, field):
        path = tmp_path / "orbits.json"
        path.write_text(json.dumps(obj))
        rc, _, err = run_cli(capsys, "flow", "--input", str(path), "--window", "1")
        assert_input_error(rc, err, field)

    @pytest.mark.parametrize("window", ["6/2", "30e-1", " 3", "3.0"])
    def test_window_printed_as_the_number_read(self, capsys, tmp_path, window):
        path = tmp_path / "orbits.json"
        path.write_text(json.dumps({"orbits": [{"length": "1", "return_map": [["2", "0"], ["0", "1/2"]]}]}))
        assert run_cli(capsys, "flow", "--input", str(path), "--window", window) == run_cli(
            capsys, "flow", "--input", str(path), "--window", "3"
        )

    @pytest.mark.parametrize("window", ["~inf", "~nan", "1/0", "x"])
    def test_bad_window(self, capsys, tmp_path, window):
        path = tmp_path / "orbits.json"
        path.write_text(json.dumps({"orbits": [{"length": "1", "signs": {"1": 1, "-1": 1}}]}))
        rc, _, err = run_cli(capsys, "flow", "--input", str(path), "--window", window)
        assert_input_error(rc, err, "--window")

    @pytest.mark.parametrize(
        "tolerance, rc, message",
        [
            ("nan", 2, "input error: --tolerance must be 'p/q' or '~<decimal>', got 'nan'"),
            ("inf", 2, "input error: --tolerance must be 'p/q' or '~<decimal>', got 'inf'"),
            ("~nan", 2, "input error: --tolerance must be a finite number, got nan"),
            ("-1", 1, "error: tolerance must be >= 0, got -1.0"),
            (str(BIG), 2, f"input error: --tolerance is too large for a float, got {str(BIG)!r:.40}"),
        ],
    )
    def test_bad_tolerance(self, capsys, tmp_path, tolerance, rc, message):
        path = tmp_path / "orbits.json"
        path.write_text(json.dumps({"orbits": [{"length": "1", "signs": {"1": 1, "-1": 1}}]}))
        got_rc, _, err = run_cli(capsys, "flow", "--input", str(path), "--window", "1", "--tolerance", tolerance)
        assert (got_rc, err) == (rc, message + "\n")

    def test_multiples_past_the_cap(self, capsys, tmp_path):
        path = tmp_path / "orbits.json"
        path.write_text(json.dumps({"orbits": [{"length": "1/100000000", "return_map": [["2"]]}]}))
        t0 = time.monotonic()
        rc, _, err = run_cli(capsys, "flow", "--input", str(path), "--window", "1")
        assert time.monotonic() - t0 < 1.0
        assert rc == 1
        assert err.startswith("error:") and "MAX_FLOW_MULTIPLES" in err

    def test_input_top_level_list(self, capsys, tmp_path):
        path = tmp_path / "orbits.json"
        path.write_text(json.dumps([{"length": "1", "signs": {"1": 1, "-1": 1}}]))
        rc, _, err = run_cli(capsys, "flow", "--input", str(path), "--window", "1")
        assert rc == 2
        assert err.startswith("input error:") and "JSON object" in err


class TestSuspension:
    def test_flags(self, capsys):
        rc, out, _ = run_cli(capsys, "suspension", "--vol", "1", "--chi", "-2")
        assert rc == 0
        obj = json.loads(out)
        assert obj["distribution"]["atoms"] == [{"at": "e", "coeff": "-2"}]
        assert obj["metadata"]["chi_lambda"] == "-2"

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "susp.json"
        path.write_text(json.dumps({"vol_g": "2", "chi_x": 2, "betti": [1, 0, 1]}))
        rc, out, _ = run_cli(capsys, "suspension", "--input", str(path))
        assert rc == 0
        assert json.loads(out)["distribution"]["atoms"] == [{"at": "e", "coeff": "4"}]

    def test_non_finite_vol(self, capsys):
        rc, _, err = run_cli(capsys, "suspension", "--chi", "2", "--vol", "~nan")
        assert_input_error(rc, err, "--vol")

    def test_coefficient_past_the_float_range(self, capsys):
        # vol(G) chi(X) = 1e308 * 10 is a float inf: the identity atom names itself
        rc, out, err = run_cli(capsys, "suspension", "--vol", "~1e308", "--chi", "10")
        assert out == ""
        assert_input_error(rc, err, "atom at e: the coefficient must be a finite number, got inf")

    def test_vol_exponent_past_the_cap(self, capsys):
        rc, _, err = run_cli(capsys, "suspension", "--chi", "2", "--vol", "1e1001")
        assert_input_error(rc, err, "--vol")
        assert "MAX_DECIMAL_EXPONENT" in err

    @pytest.mark.parametrize(
        "obj, field",
        [
            ({"vol_g": "~nan", "chi_x": 2}, "'vol_g'"),
            ({"vol_g": True, "chi_x": 2}, "'vol_g'"),
            ({"vol_g": "1", "chi_x": 2.5}, "'chi_x'"),
            ({"vol_g": "1", "chi_x": None}, "'chi_x'"),
            ({"vol_g": "1", "chi_x": 2, "betti": 5}, "'betti'"),
            ({"vol_g": "1", "chi_x": 2, "betti": [1, "x", 1]}, "'betti'"),
        ],
    )
    def test_malformed_input(self, capsys, tmp_path, obj, field):
        path = tmp_path / "susp.json"
        path.write_text(json.dumps(obj))
        rc, _, err = run_cli(capsys, "suspension", "--input", str(path))
        assert_input_error(rc, err, field)

    def test_missing_chi(self, capsys):
        rc, _, err = run_cli(capsys, "suspension")
        assert rc == 2

    @pytest.mark.parametrize("flag, value", [("--chi", "5"), ("--vol", "2"), ("--vol", "~nan")])
    def test_flags_next_to_input_refused(self, capsys, tmp_path, flag, value):
        # the flags and the file are two ways to give the same spec; neither is dropped unread
        path = tmp_path / "susp.json"
        path.write_text(json.dumps({"vol_g": "2", "chi_x": 2}))
        rc, _, err = run_cli(capsys, "suspension", "--input", str(path), flag, value)
        assert err == "input error: give --chi (and optionally --vol), or --input, not both\n"
        assert rc == 2


class TestSurfaceSuspension:
    def test_genus2(self, capsys):
        rc, out, _ = run_cli(capsys, "surface-suspension", "--genus", "2")
        assert rc == 0
        obj = json.loads(out)
        assert obj["traces"]["1"]["atoms"] == [{"at": "e", "coeff": "2"}]
        assert obj["traces"]["1"]["smooth_const"] == "2"
        assert obj["distribution"]["atoms"] == [{"at": "e", "coeff": "-2"}]
        assert obj["metadata"]["beta_lambda"] == ["0", "2", "0"]

    @pytest.mark.parametrize("vol", ["~inf", "~-inf", "~nan"])
    def test_non_finite_vol(self, capsys, vol):
        rc, _, err = run_cli(capsys, "surface-suspension", "--genus", "2", "--vol", vol)
        assert_input_error(rc, err, "--vol")

    def test_genus1_rejected(self, capsys):
        rc, _, err = run_cli(capsys, "surface-suspension", "--genus", "1")
        assert rc == 1
        assert "genus" in err


class TestNilfoliation:
    def test_catalog_heisenberg(self, capsys):
        rc, out, _ = run_cli(capsys, "nilfoliation", "--algebra", "heisenberg")
        assert rc == 0
        obj = json.loads(out)
        assert obj["dims"] == [1, 2, 2, 1]
        assert obj["distribution"]["atoms"] == []
        assert "smooth_const" not in obj["distribution"]
        assert obj["corollary_check"]["passed"] is True

    def test_algebra_file(self, capsys, tmp_path):
        path = tmp_path / "heis.json"
        path.write_text(
            json.dumps(
                {"dim": 3, "brackets": [{"i": 1, "j": 2, "out": [{"k": 3, "c": "1"}]}]}
            )
        )
        rc, out, _ = run_cli(capsys, "nilfoliation", "--algebra", str(path))
        assert rc == 0
        assert json.loads(out)["dims"] == [1, 2, 2, 1]

    def test_sl2_domain_error(self, capsys):
        rc, _, err = run_cli(capsys, "nilfoliation", "--algebra", "sl2")
        assert rc == 1
        assert "nilpotent" in err

    @pytest.mark.parametrize("spec", ["abelian:0", {"dim": 0}], ids=["catalog", "file"])
    def test_zero_dimensional_algebra_refused(self, capsys, tmp_path, spec):
        # b^0 = 1 on a point, so the vanishing check of L would fail: refused before any rank is taken
        if isinstance(spec, dict):
            path = tmp_path / "dim0.json"
            path.write_text(json.dumps(spec))
            spec = str(path)
        rc, out, err = run_cli(capsys, "nilfoliation", "--algebra", spec)
        assert rc == 1 and out == ""
        assert err == "error: nil_foliation requires a Lie algebra of dimension >= 1, got dimension 0\n"

    def test_missing_file(self, capsys):
        rc, _, err = run_cli(capsys, "nilfoliation", "--algebra", "no/such/file.json")
        assert rc == 2

    def test_directory_named_like_a_spec_is_not_read(self, capsys, tmp_path, monkeypatch):
        # a path that is not a file is a catalog spec
        monkeypatch.chdir(tmp_path)
        (tmp_path / "heisenberg").mkdir()
        rc, out, _ = run_cli(capsys, "nilfoliation", "--algebra", "heisenberg")
        assert rc == 0
        assert json.loads(out)["dims"] == [1, 2, 2, 1]

    @pytest.mark.parametrize("brackets", [5, [5]])
    def test_malformed_brackets(self, capsys, tmp_path, brackets):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({"dim": 3, "brackets": brackets}))
        rc, _, err = run_cli(capsys, "nilfoliation", "--algebra", str(path))
        assert_input_error(rc, err, "'brackets'")

    @pytest.mark.parametrize("c", ["~1", True, "x"])
    def test_malformed_constant(self, capsys, tmp_path, c):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({"dim": 3, "brackets": [{"i": 1, "j": 2, "out": [{"k": 3, "c": c}]}]}))
        rc, _, err = run_cli(capsys, "nilfoliation", "--algebra", str(path))
        assert_input_error(rc, err, "bracket output 'c'")

    @pytest.mark.parametrize(
        "brackets, message",
        [
            ([[1, 2, 3], [1, 2, 3]], "bracket pairs (1, 2) and (1, 2) both name (i, j) = (1, 2)"),
            ([[1, 2, 3], ["01", 2, 3]], "bracket pairs (1, 2) and ('01', 2) both name (i, j) = (1, 2)"),
            ([[1, 2, 3, "03"]], "bracket (1, 2) outputs 3 and '03' both name k = 3"),
        ],
        ids=["pair", "pair-spelled-apart", "output"],
    )
    def test_repeated_key_refused_naming_both(self, capsys, tmp_path, brackets, message):
        # each would otherwise overwrite the one before it
        path = tmp_path / "alg.json"
        out = [{"i": i, "j": j, "out": [{"k": k, "c": "1"} for k in ks]} for i, j, *ks in brackets]
        path.write_text(json.dumps({"dim": 3, "brackets": out}))
        rc, _, err = run_cli(capsys, "nilfoliation", "--algebra", str(path))
        assert (rc, err) == (2, f"input error: {message}\n")

    def test_dimension_cap(self, capsys, tmp_path):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({"dim": MAX_ALGEBRA_DIM + 1, "brackets": []}))
        rc, _, err = run_cli(capsys, "nilfoliation", "--algebra", str(path))
        assert rc == 1
        assert err.startswith("error:") and "MAX_ALGEBRA_DIM" in err

    @pytest.mark.parametrize(
        "spec, field",
        [
            ("filiform:x", "filiform:n"),
            ("abelian:", "abelian:n"),
            ("heisenberg:2.5", "heisenberg:m"),
            ("heisenberg:", "heisenberg:m"),  # only a bare heisenberg means m = 1
            ("abelian", "abelian:n"),
        ],
    )
    def test_catalog_argument_not_an_integer(self, capsys, spec, field):
        rc, _, err = run_cli(capsys, "nilfoliation", "--algebra", spec)
        assert_input_error(rc, err, field)
        assert f"algebra {spec!r}: " in err

    @pytest.mark.parametrize("spec", ["sl2:5", "filiform:6+sl2:3"])
    def test_catalog_argument_refused(self, capsys, spec):
        rc, _, err = run_cli(capsys, "nilfoliation", "--algebra", spec)
        assert_input_error(rc, err, f"algebra {spec!r}: sl2 takes no argument")

    def test_catalog_direct_sum(self, capsys):
        rc, out, _ = run_cli(capsys, "nilfoliation", "--algebra", "heisenberg:1+abelian:1")
        assert rc == 0
        assert json.loads(out)["dims"] == [1, 3, 4, 3, 1]

    @pytest.mark.parametrize("spec", ["torus:3", "heisenberg:1+torus", "no/such/file.json"])
    def test_unknown_catalog_name(self, capsys, spec):
        rc, _, err = run_cli(capsys, "nilfoliation", "--algebra", spec)
        assert_input_error(rc, err, repr(spec))
        assert "abelian, filiform, heisenberg, sl2" in err

    @pytest.mark.parametrize("spec", ["filiform:100000", "heisenberg:100000", "filiform:12+abelian:1"])
    def test_catalog_dimension_cap(self, capsys, spec):
        rc, _, err = run_cli(capsys, "nilfoliation", "--algebra", spec)
        assert rc == 1
        assert err.startswith("error:") and "MAX_ALGEBRA_DIM" in err


class TestSelberg:
    def test_abstract_classes(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "vol_quotient": "1",
                    "chi_x": 2,
                    "classes": [
                        {"label": "e", "is_identity": True},
                        {"label": "g1", "lefschetz": "-1", "vol_centralizer": "3"},
                    ],
                }
            )
        )
        rc, out, _ = run_cli(capsys, "selberg", "--input", str(path))
        assert rc == 0
        obj = json.loads(out)
        assert obj["distribution"]["atoms"] == [{"at": "e", "coeff": "2"}]
        assert obj["distribution"]["orbit_terms"] == [
            {"class": "g1", "coeff_factors": {"lefschetz": "-1", "vol_centralizer": "3"}}
        ]

    def test_r_specialization_bit_identical(self, capsys, tmp_path):
        classes = [{"label": "0", "is_identity": True}]
        for k in (1, -1, 2, -2):
            classes.append({"label": str(k), "matrix": [["2", "1"], ["1", "1"]]})
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {"vol_quotient": "1", "chi_x": 0, "group_kind": "R", "classes": classes}
            )
        )
        rc1, out1, _ = run_cli(capsys, "selberg", "--input", str(path))
        rc2, out2, _ = run_cli(
            capsys, "mapping-torus", "--matrix", "[[2,1],[1,1]]", "--window", "2"
        )
        assert rc1 == rc2 == 0
        d1 = json.dumps(json.loads(out1)["distribution"])
        d2 = json.dumps(json.loads(out2)["distribution"])
        assert d1 == d2

    def test_a_matrix_class_matches_its_exterior_powers_as_a_graded_class(self, capsys, tmp_path):
        # the matrix class takes L(F^3) from toral_lefschetz; the graded class lists the exterior
        # powers of A^3, so the two routes meet only in the printed orbit terms
        cat = lefschetz.ToralAutomorphism(IntMatrix([[2, 1], [1, 1]]))
        classes = [
            {"label": "e", "is_identity": True},
            {"label": "3", "matrix": cat.matrix.to_json_obj()},
            {"label": "g", "graded": [m.to_json_obj() for m in toral_graded_map(cat, 3).maps]},
        ]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"vol_quotient": "1", "chi_x": 0, "classes": classes}))
        rc, out, _ = run_cli(capsys, "selberg", "--input", str(path))
        assert rc == 0
        terms = {t["class"]: t["coeff_factors"]["lefschetz"] for t in json.loads(out)["distribution"]["orbit_terms"]}
        assert terms == {"3": "-16", "g": "-16"}

    def test_a_matrix_class_labelled_0_has_lefschetz_number_0(self, capsys, tmp_path):
        # F^0 is the identity of the torus, L = det(I - I) = 0: an orbit term in an abstract group
        classes = [{"label": "e", "is_identity": True}, {"label": "0", "matrix": [["2", "1"], ["1", "1"]]}]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"vol_quotient": "1", "chi_x": 0, "classes": classes}))
        rc, out, _ = run_cli(capsys, "selberg", "--input", str(path))
        assert rc == 0
        assert json.loads(out)["distribution"]["orbit_terms"] == [
            {"class": "0", "coeff_factors": {"lefschetz": "0", "vol_centralizer": "1"}}
        ]
        # under R the label names k = 0, the identity's place, whatever the identity is labelled
        path.write_text(json.dumps({"vol_quotient": "1", "chi_x": 0, "group_kind": "R", "classes": classes}))
        rc, _, err = run_cli(capsys, "selberg", "--input", str(path))
        assert rc == 1
        assert err == "error: nontrivial class label 0 clashes with the identity\n"

    @pytest.mark.parametrize(
        "obj, field",
        [
            ({"vol_quotient": "1", "chi_x": 0, "classes": 5}, "'classes'"),
            ({"vol_quotient": "1", "chi_x": 0, "classes": ["e"]}, "'classes'"),
            ({"vol_quotient": "~inf", "chi_x": 0, "classes": []}, "'vol_quotient'"),
            ({"vol_quotient": "1", "chi_x": "2.5", "classes": []}, "'chi_x'"),
            ({"vol_quotient": "1", "chi_x": 0, "classes": [{"label": "e", "is_identity": "no"}]}, "'is_identity'"),
            ({"vol_quotient": "1", "chi_x": 0, "classes": [{"label": None, "lefschetz": "1"}]}, "class 'label'"),
            ({"vol_quotient": "1", "chi_x": 0, "classes": [{"label": [1, 2], "lefschetz": "1"}]}, "class 'label'"),
            ({"vol_quotient": "1", "chi_x": 0, "classes": [{"label": True, "lefschetz": "1"}]}, "class 'label'"),
        ],
    )
    def test_malformed_input(self, capsys, tmp_path, obj, field):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(obj))
        rc, _, err = run_cli(capsys, "selberg", "--input", str(path))
        assert_input_error(rc, err, field)

    def test_duplicate_labels_rejected(self, capsys, tmp_path):
        classes = [
            {"label": "e", "is_identity": True},
            {"label": "g", "lefschetz": "1"},
            {"label": "g", "lefschetz": "2"},
        ]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"vol_quotient": "1", "chi_x": 0, "classes": classes}))
        rc, _, err = run_cli(capsys, "selberg", "--input", str(path))
        assert rc == 1
        assert err.startswith("error:") and "distinct" in err

    @pytest.mark.parametrize(
        "nontrivial, message",
        [
            (
                [{"label": "1", "lefschetz": "-1"}, {"label": "01", "lefschetz": "-1"}],
                "class labels '1' and '01' both name k = 1",
            ),
            ([{"label": "1_0", "lefschetz": "-1"}], "class label '1_0' must parse as an integer"),
            (
                [{"label": "1", "matrix": [["1/2", "0"], ["0", "1"]]}],
                "class 'matrix': IntMatrix entries must be integers",
            ),
            ([{"label": "1", "matrix": []}], "toral automorphism needs a torus of dimension n >= 1, got n = 0"),
        ],
    )
    def test_r_class_refused(self, capsys, tmp_path, nontrivial, message):
        classes = [{"label": "0", "is_identity": True}, *nontrivial]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"vol_quotient": "1", "chi_x": 0, "group_kind": "R", "classes": classes}))
        rc, _, err = run_cli(capsys, "selberg", "--input", str(path))
        assert rc == 1
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "label, message",
        [
            ("100000", f"class '100000': L(F^100000) vol has more than MAX_PRINTED_DIGITS = {MAX_PRINTED_DIGITS}"),
            (str(-BIG), f"class '{-BIG}': L(F^{-BIG}) vol has more than MAX_PRINTED_DIGITS = {MAX_PRINTED_DIGITS}"),
            # past the cap, but not by the bound: the exact coefficient is refused when it is written
            ("10288", f"an output number has more than MAX_PRINTED_DIGITS = {MAX_PRINTED_DIGITS}"),
        ],
    )
    def test_a_coefficient_past_the_printed_cap_is_refused(self, capsys, tmp_path, label, message):
        # label 100000 took 0.33 s and exited 2 with Python's "Exceeds the limit (4300 digits)"
        classes = [{"label": "0", "is_identity": True}, {"label": label, "matrix": [["2", "1"], ["1", "1"]]}]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"vol_quotient": "1", "chi_x": 0, "group_kind": "R", "classes": classes}))
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, "selberg", "--input", str(path))
        assert time.perf_counter() - start < 1
        assert (rc, out) == (1, "")
        assert err.startswith(f"error: {message} decimal digits")

    def test_a_zero_volume_class_is_refused_before_its_number(self, capsys, tmp_path):
        # label 20000000 ran for over 100 s, building A^k, before the volume was checked
        classes = [
            {"label": "0", "is_identity": True},
            {"label": "20000000", "matrix": [["2", "1"], ["1", "1"]], "vol_centralizer": "0"},
        ]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"vol_quotient": "1", "chi_x": 0, "group_kind": "R", "classes": classes}))
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, "selberg", "--input", str(path))
        assert time.perf_counter() - start < 1
        assert (rc, out, err) == (1, "", "error: centralizer volume must be positive\n")

    def test_a_coefficient_past_the_float_range_names_its_atom(self, capsys, tmp_path):
        # |L(F^2000)| of the cat map has 836 digits; times an inexact volume it has no float
        classes = [
            {"label": "0", "is_identity": True},
            {"label": "2000", "matrix": [["2", "1"], ["1", "1"]], "vol_centralizer": "~0.5"},
        ]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"vol_quotient": "1", "chi_x": 0, "group_kind": "R", "classes": classes}))
        rc, out, err = run_cli(capsys, "selberg", "--input", str(path))
        assert (rc, out) == (2, "")
        assert err == "input error: atom at 2000: the coefficient is past the float range\n"

    def test_every_coefficient_that_fits_is_printed(self, capsys, tmp_path):
        # L(F^k) = -L_k^2 for the cat map at odd k, L_k the Lucas number: at k = 10767 it has 4500
        # digits, and over vol = 1 / L_k the coefficient -L_k has 2250.  L(F^10287) is the last of the
        # cat map's values with 4300 digits
        lucas = matrix_power(IntMatrix([[1, 1], [1, 0]]), 10767).trace()
        classes = [
            {"label": "0", "is_identity": True},
            {"label": "10767", "matrix": [["2", "1"], ["1", "1"]], "vol_centralizer": f"1/{lucas}"},
            {"label": "10287", "matrix": [["2", "1"], ["1", "1"]]},
        ]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"vol_quotient": "1", "chi_x": 0, "group_kind": "R", "classes": classes}))
        rc, out, _ = run_cli(capsys, "selberg", "--input", str(path))
        assert rc == 0
        coeffs = {a["at"]: a["coeff"] for a in json.loads(out)["distribution"]["atoms"]}
        assert coeffs["10767"] == str(-lucas) and len(coeffs["10287"]) == 1 + MAX_PRINTED_DIGITS

    def test_graded_class_not_array(self, capsys, tmp_path):
        classes = [{"label": "e", "is_identity": True}, {"label": "g", "graded": 5}]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"vol_quotient": "1", "chi_x": 0, "classes": classes}))
        rc, _, err = run_cli(capsys, "selberg", "--input", str(path))
        assert rc == 2
        assert err.startswith("input error:") and "'graded'" in err


class TestGaussBonnet:
    def test_builtin_flat(self, capsys):
        rc, out, _ = run_cli(capsys, "gauss-bonnet", "--builtin", "flat", "--grid", "32")
        assert rc == 0
        obj = json.loads(out)
        assert obj["integral_over_2pi"] == 0.0
        assert obj["chi_estimate"] == 0

    def test_csv_input(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text(flat_torus_grid(16).to_csv())
        rc, out, _ = run_cli(capsys, "gauss-bonnet", "--input", str(path))
        assert rc == 0
        assert json.loads(out)["integral_over_2pi"] == 0.0

    def test_json_input(self, capsys, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(sphere_grid(64).to_json_obj()))
        rc, out, _ = run_cli(capsys, "gauss-bonnet", "--input", str(path))
        assert rc == 0
        assert abs(json.loads(out)["integral_over_2pi"] - 2) < 0.02

    def test_bad_topology_is_domain_error(self, capsys, tmp_path):
        obj = flat_torus_grid(16).to_json_obj()
        obj["topology"] = "open"
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(obj))
        rc, _, err = run_cli(capsys, "gauss-bonnet", "--input", str(path))
        assert rc == 1
        assert "topology" in err


    @pytest.mark.parametrize(
        "field, value",
        [
            ("nu", None), ("du", float("inf")), pytest.param("du", BIG, id="du-10**400"),
            pytest.param("dv", BIG, id="dv-10**400"), ("dv", "1e400"),
        ],
    )
    def test_malformed_json(self, capsys, tmp_path, field, value):
        obj = flat_torus_grid(16).to_json_obj()
        obj[field] = value
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(obj))  # writes the bare token Infinity, as json.load accepts
        rc, _, err = run_cli(capsys, "gauss-bonnet", "--input", str(path))
        assert_input_error(rc, err, f"'{field}'")

    @pytest.mark.parametrize(
        "node", [True, False, None, [1], {}, "x", "~nan", pytest.param(BIG, id="10**400"), "1e400"]
    )
    def test_malformed_node_named(self, capsys, tmp_path, node):
        obj = flat_torus_grid(16).to_json_obj()
        obj["E"][3][4] = node
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(obj))
        rc, _, err = run_cli(capsys, "gauss-bonnet", "--input", str(path))
        assert_input_error(rc, err, "'E' node")

    def test_short_row_named(self, capsys, tmp_path):
        obj = flat_torus_grid(16).to_json_obj()
        obj["E"][3].pop()
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(obj))
        rc, _, err = run_cli(capsys, "gauss-bonnet", "--input", str(path))
        assert_input_error(rc, err, "'E' rows must all have the same length")

    @pytest.mark.parametrize(
        "last, field",
        [
            ("15,15,~1.0,0.0,1.0", "CSV node (15,15) 'E' must be a plain decimal, got '~1.0'"),
            ("15,15,x,0.0,1.0", "CSV node (15,15) 'E' must be a plain decimal, got 'x'"),
            ("15,15,1.0,0.0", "must have five fields: nu,nv,du,dv,topology or i,j,E,F,G"),
        ],
    )
    def test_csv_bad_node_row(self, capsys, tmp_path, last, field):
        lines = flat_torus_grid(16).to_csv().splitlines()
        lines[-1] = last
        path = tmp_path / "grid.csv"
        path.write_text("\n".join(lines) + "\n")
        rc, _, err = run_cli(capsys, "gauss-bonnet", "--input", str(path))
        assert_input_error(rc, err, field)

    def test_csv_without_data_rows(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("nu,nv,du,dv,topology\ni,j,E,F,G\n")
        rc, _, err = run_cli(capsys, "gauss-bonnet", "--input", str(path))
        assert_input_error(rc, err, "CSV contains no data rows")

    @pytest.mark.parametrize("column, field", [(2, "CSV 'du'"), (3, "CSV 'dv'")])
    def test_csv_spacing_too_large_for_a_float(self, capsys, tmp_path, column, field):
        lines = flat_torus_grid(16).to_csv().splitlines()
        header = lines[1].split(",")
        header[column] = str(BIG)
        lines[1] = ",".join(header)
        path = tmp_path / "grid.csv"
        path.write_text("\n".join(lines) + "\n")
        rc, _, err = run_cli(capsys, "gauss-bonnet", "--input", str(path))
        assert_input_error(rc, err, f"{field} is too large for a float")

    @pytest.mark.parametrize("node", ["16,15,", "15,14,"])
    def test_csv_node_outside_or_repeated(self, capsys, tmp_path, node):
        lines = flat_torus_grid(16).to_csv().splitlines()
        lines[-1] = lines[-1].replace("15,15,", node, 1)
        path = tmp_path / "grid.csv"
        path.write_text("\n".join(lines) + "\n")
        rc, _, err = run_cli(capsys, "gauss-bonnet", "--input", str(path))
        assert_input_error(rc, err, "CSV node")

    @pytest.mark.parametrize("builtin, chi", [("flat", 0), ("random", 0), ("sphere", 2)])
    def test_builtin_chi_estimate_is_the_euler_characteristic(self, capsys, monkeypatch, builtin, chi):
        monkeypatch.delenv("LEFSCHETZ_SEED", raising=False)
        rc, out, _ = run_cli(capsys, "gauss-bonnet", "--builtin", builtin, "--grid", "64")
        assert rc == 0
        assert json.loads(out)["chi_estimate"] == chi

    def test_open_patch_is_not_a_builtin(self):
        # an open sphere patch stored as a torus has no Euler characteristic to estimate
        with pytest.raises(SystemExit) as exc:
            main(["gauss-bonnet", "--builtin", "sphere-patch"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("n", ["0", "7"])
    def test_builtin_grid_too_small(self, capsys, n):
        rc, _, err = run_cli(capsys, "gauss-bonnet", "--builtin", "sphere", "--grid", n)
        assert rc == 1
        assert err.startswith("error:") and "nu, nv >= 8" in err

    def test_builtin_grid_past_the_cap_refused_before_allocation(self, capsys, monkeypatch):
        n = math.isqrt(MAX_GRID_NODES) + 1
        monkeypatch.setitem(cli._BUILTIN_GRIDS, "sphere", lambda n: pytest.fail("grid built past the cap"))
        rc, _, err = run_cli(capsys, "gauss-bonnet", "--builtin", "sphere", "--grid", str(n))
        assert rc == 1
        assert err == f"error: --grid {n} asks for {n * n} nodes, more than MAX_GRID_NODES = {MAX_GRID_NODES}\n"

    def test_grid_next_to_input_refused(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text(flat_torus_grid(16).to_csv())
        rc, _, err = run_cli(capsys, "gauss-bonnet", "--input", str(path), "--grid", "16")
        assert_input_error(rc, err, "--grid")

    @pytest.mark.parametrize("builtin, rc", [("flat", 0), ("sphere", 0), ("random", 2)])
    def test_seed_read_only_by_the_random_builtin(self, capsys, monkeypatch, builtin, rc):
        monkeypatch.setenv("LEFSCHETZ_SEED", "x")
        got_rc, _, err = run_cli(capsys, "gauss-bonnet", "--builtin", builtin, "--grid", "16")
        assert got_rc == rc
        if rc:
            assert_input_error(rc, err, "LEFSCHETZ_SEED must be an integer, got 'x'")


class TestVerify:
    def test_linalg_suite(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--suite", "linalg")
        assert rc == 0
        obj = json.loads(out)
        assert obj["passed"] is True
        assert all(c["passed"] for c in obj["checks"])

    def test_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LEFSCHETZ_SEED", "99")
        rc, out, _ = run_cli(capsys, "verify", "--suite", "linalg")
        assert rc == 0
        assert json.loads(out)["seed"] == 99

    def test_seed_env_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("LEFSCHETZ_SEED", "x")
        rc, _, err = run_cli(capsys, "verify", "--suite", "linalg")
        assert_input_error(rc, err, "LEFSCHETZ_SEED must be an integer, got 'x'")

    def test_full_suite_exits_zero(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--suite", "all")
        assert rc == 0
        obj = json.loads(out)
        assert obj["passed"] is True and len(obj["checks"]) >= 20

    def test_table_format_marks_each_check(self, capsys, monkeypatch):
        checks = [verify.Check("kept", True, "3 cases"), verify.Check("broken", False)]
        monkeypatch.setitem(verify.SUITES, "linalg", lambda seed: checks)
        monkeypatch.setenv("LEFSCHETZ_SEED", "7")
        rc, out, _ = run_cli(capsys, "verify", "--suite", "linalg", "--format", "table")
        assert rc == 1
        assert out == (
            "model: verify\nsuite: linalg\nseed: 7\npassed: False\n"
            "checks:\n  PASS  kept  [3 cases]\n  FAIL  broken\n"
        )


class TestPlumbing:
    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        rc, out, _ = run_cli(
            capsys, "suspension", "--chi", "2", "--output", str(path)
        )
        assert rc == 0 and out == ""
        assert json.loads(path.read_text())["model"] == "suspension"

    def test_output_into_a_missing_directory(self, capsys, tmp_path):
        rc, out, err = run_cli(capsys, "suspension", "--chi", "2", "--output", str(tmp_path / "no" / "out.json"))
        assert_input_error(rc, err, "No such file or directory")
        assert out == ""

    def test_module_runs_as_a_script(self):
        src = pathlib.Path(cli.__file__).parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "lefdist.cli", "--help"], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: lefdist")

    def test_table_format(self, capsys):
        rc, out, _ = run_cli(
            capsys, "mapping-torus", "--matrix", "[[2,1],[1,1]]", "--format", "table"
        )
        assert rc == 0
        assert "atoms:" in out and "model: mapping_torus" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["mapping-torus", "--matrix", "[[2,1],[1,1]]"],
            ["flow", "--input", "orbits.json", "--window", "1"],
        ],
    )
    def test_no_convention_flag(self, argv):
        # the signs are always sign det(P^k - I); the metadata says "paper"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--convention", "classical"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["mapping-torus", "--matrix", "[[2,1],[1,1]]", "--window", "1_0"], "--window"),
            (["suspension", "--chi", "1_0"], "--chi"),
            (["surface-suspension", "--genus", "0_2"], "--genus"),
            (["gauss-bonnet", "--builtin", "flat", "--grid", "1_6"], "--grid"),
        ],
    )
    def test_integer_flags_read_as_integers(self, capsys, argv, flag):
        rc, _, err = run_cli(capsys, *argv)
        assert_input_error(rc, err, f"{flag} must be an integer")

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_run_info_off_by_default(self, capsys):
        rc, out, _ = run_cli(capsys, "suspension", "--chi", "0")
        assert "run_info" not in json.loads(out)
        rc, out, _ = run_cli(capsys, "suspension", "--chi", "0", "--emit-run-info")
        assert "run_info" in json.loads(out)

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["nilfoliation", "--algebra"], '{"dim": 3, "brackets": %s}'),
            (["flow", "--window", "1", "--input"], '{"orbits": %s}'),
        ],
    )
    def test_deeply_nested_file(self, capsys, tmp_path, argv, text):
        path = tmp_path / "deep.json"
        path.write_text(text % ("[" * 50_000 + "]" * 50_000))
        rc, _, err = run_cli(capsys, *argv, str(path))
        assert_input_error(rc, err, "nested too deeply")

    @pytest.mark.parametrize(
        "argv, text, key",
        [
            # json.loads alone keeps the last of two identical keys: coeff -1 at k = 1, exit 0
            (
                ["flow", "--window", "1", "--input"],
                '{"orbits": [{"length": "1", "signs": {"1": 1, "1": -1, "-1": 1}}]}',
                "'1'",
            ),
            # ... and a 4-dimensional algebra
            (
                ["nilfoliation", "--algebra"],
                '{"dim": 3, "dim": 4, "brackets": [{"i": 1, "j": 2, "out": [{"k": 3, "c": 1}]}]}',
                "'dim'",
            ),
            (
                ["mapping-torus", "--window", "1", "--input"],
                '{"matrix": [[2, 1], [1, 1]], "matrix": [[1, 1], [1, 0]]}',
                "'matrix'",
            ),
            (["gauss-bonnet", "--input"], '{"nu": 8, "nv": 8, "nv": 9}', "'nv'"),
        ],
        ids=["flow signs", "nilfoliation dim", "mapping-torus matrix", "gauss-bonnet nv"],
    )
    def test_a_repeated_key_is_refused_by_name(self, capsys, tmp_path, argv, text, key):
        path = tmp_path / "repeated.json"
        path.write_text(text)
        rc, out, err = run_cli(capsys, *argv, str(path))
        assert (rc, out) == (2, "")
        assert err == f"input error: {path}: key {key} is repeated in one JSON object\n"


class TestParserReuse:
    def test_main_builds_one_parser_for_many_calls(self, capsys, monkeypatch):
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            for argv in (
                ["mapping-torus", "--matrix", "[[2,1],[1,1]]", "--window", "2"],
                ["suspension", "--chi", "2"],
                ["surface-suspension", "--genus", "2"],
                ["nilfoliation", "--algebra", "heisenberg:1"],
                ["gauss-bonnet", "--builtin", "flat", "--grid", "16"],
            ):
                assert run_cli(capsys, *argv)[0] == 0, argv
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_import_builds_no_parser(self):
        # counted in a fresh interpreter, so the import is the first one; keeps the set-up time honest
        code = (
            "import argparse, contextlib, io\n"
            "built, init = [], argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
            "import lefdist.cli\n"
            "print(len(built))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    lefdist.cli.main(['suspension', '--chi', '2'])\n"
            "print(len(built))\n"
        )
        src = pathlib.Path(cli.__file__).parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        at_import, after_main = map(int, proc.stdout.split())
        assert at_import == 0 and after_main > 0


# -- loader fuzzing ------------------------------------------------------------

TORUS = [["2", "1"], ["1", "1"]]
GRADED = [[["1"]], TORUS, [["1"]]]

# subcommand -> (a valid input file, the flag that names it, the other arguments)
VALID_INPUTS = {
    "mapping-torus": ({"matrix": TORUS}, "--input", ["--window", "2"]),
    "flow": (
        {"orbits": [{"length": "1", "return_map": [["2", "0"], ["0", "1/2"]]},
                    {"length": "~1.5", "signs": {"1": 1, "-1": -1}}]},
        "--input",
        ["--window", "2"],
    ),
    "suspension": ({"vol_g": "3/2", "chi_x": 2, "betti": [1, 0, 1]}, "--input", []),
    "nilfoliation": (
        {"dim": 3, "brackets": [{"i": 1, "j": 2, "out": [{"k": 3, "c": "1"}]}]},
        "--algebra",
        [],
    ),
    "selberg": (
        {"vol_quotient": "1", "chi_x": 0, "group_kind": "R",
         "classes": [{"label": "0", "is_identity": True},
                     {"label": "1", "matrix": TORUS, "vol_centralizer": "1/2"},
                     {"label": "-1", "lefschetz": "-1"},
                     {"label": "2", "graded": GRADED}]},
        "--input",
        [],
    ),
    "gauss-bonnet": (flat_torus_grid(8).to_json_obj(), "--input", []),
}


# Small values only: a tiny flow length would make unbounded work, which no cap bounds yet.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1, 2, 0.5, -2.5]),
    st.sampled_from(["", "x", "-3", "1/2", "1/0", "~1.5", "~nan", "~inf"]),
)
JSON_VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=2),
    st.dictionaries(st.sampled_from(["a", "1", "length"]), SCALARS, max_size=2),
)


def _holds_number(v):
    """A JSON number, or a string that reads as one."""
    try:
        to_number(v)
    except ValueError:
        return False
    return True


def _field(path):
    """The innermost object key on ``path``.  The keys of an orbit's 'signs' are the
    multiples k, not fields; a bad value there is named as an orbit sign."""
    keys = [k for k in path if isinstance(k, str)]
    return "sign" if keys[-2:-1] == ["signs"] else keys[-1]


def _array_swaps(old):
    """Changes inside an array: a value nested one level deeper, an array one element shorter."""
    return [old[:-1], [old]] if isinstance(old, list) else [[old]]


def _kind(v):
    """The JSON kind: null, boolean, number, string, array or object."""
    return "number" if type(v) in (int, float) else type(v)


def _paths(obj, prefix=()):
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in children:
        yield prefix + (key,), child
        yield from _paths(child, prefix + (key,))


@pytest.mark.parametrize("command", sorted(VALID_INPUTS))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_loader_fuzz_exits_0_1_or_2(command, tmp_path, data):
    """Swap one value for one of another JSON kind, or, inside an array and not an object,
    for any value, a nested copy or a shorter array; a window may be BIG as well.  Every run exits 0, 1 or 2; a number
    swapped for a boolean or null never exits 0; an exit 2 names the field.  Every number an
    exit 0 prints reads back through its reader to the same string.  About half the runs also write
    one member of one object twice: those exit 2 naming the repeated key."""
    valid, flag, rest = VALID_INPUTS[command]
    path, old = data.draw(st.sampled_from(list(_paths(valid))))
    # BIG is too large for a float, and as a class label or a window it asks for A^BIG or BIG multiples
    values = st.one_of(JSON_VALUES, st.just(BIG))
    rest = [
        data.draw(st.sampled_from([arg, str(BIG)])) if prev == "--window" else arg
        for prev, arg in zip([None, *rest], rest)
    ]
    other_kind = values.filter(lambda v: _kind(v) is not _kind(old))
    if isinstance(path[-1], int) and not isinstance(old, dict):
        new = data.draw(st.one_of(other_kind, values, st.sampled_from(_array_swaps(old))))
    else:
        new = data.draw(other_kind)
    obj = json.loads(json.dumps(valid))  # unlike deepcopy, unshares TORUS between 'matrix' and 'graded'
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    text = json.dumps(obj)
    repeated = data.draw(st.booleans())
    if repeated:
        # json.dumps cannot write a member twice: the text of that object replaces a marker
        objects = [obj] + [v for _, v in _paths(obj) if isinstance(v, dict) and v]
        holder = data.draw(st.sampled_from(objects))
        key = data.draw(st.sampled_from(sorted(holder)))
        members = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in holder.items()]
        twice = "{" + ", ".join([f"{json.dumps(key)}: {json.dumps(holder[key])}", *members]) + "}"
        marker = "repeated member goes here"
        if holder is obj:
            text = twice
        else:
            holder.clear()
            holder[marker] = 0
            text = json.dumps(obj).replace(json.dumps({marker: 0}), twice)
    file = tmp_path / "input.json"
    file.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main([command, flag, str(file), *rest])
    if repeated:
        assert (rc, out.getvalue()) == (2, "")
        assert err.getvalue() == f"input error: {file}: key {key!r:.40} is repeated in one JSON object\n"
        return
    assert rc in (0, 1, 2)
    if rc == 0:
        assert_numbers_read_back(json.loads(out.getvalue()))
    if _holds_number(old) and type(new) in (bool, type(None)):
        assert rc != 0, (path, new)
    if rc == 2:
        assert _field(path) in err.getvalue(), (path, new, err.getvalue())


# -- missing fields ------------------------------------------------------------

@pytest.mark.parametrize(
    "command, field",
    [("flow", "orbits"), ("suspension", "vol_g"), ("nilfoliation", "dim"),
     ("selberg", "classes"), ("gauss-bonnet", "topology")],
)
def test_missing_field_named(capsys, tmp_path, command, field):
    valid, flag, rest = VALID_INPUTS[command]
    path = tmp_path / "input.json"
    path.write_text(json.dumps({k: v for k, v in valid.items() if k != field}))
    rc, _, err = run_cli(capsys, command, flag, str(path), *rest)
    assert rc == 2
    assert err == f"input error: missing field '{field}'\n"


@pytest.mark.parametrize(
    "command, obj, message",
    [
        ("mapping-torus", {"graded_maps": GRADED}, "input JSON needs a 'matrix' or 'graded' field"),
        ("flow", {"orbits": [{"length": "1"}]}, "orbit needs a 'return_map' or 'signs' field"),
        ("selberg", {"vol_quotient": "1", "chi_x": 0, "classes": [{"label": "e", "is_identity": True}, {"label": "g"}]},
         "class 'g' needs 'lefschetz', 'matrix' or 'graded'"),
    ],
)
def test_missing_alternative_named_without_quotes(capsys, tmp_path, command, obj, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    rc, _, err = run_cli(capsys, command, "--input", str(path), *VALID_INPUTS[command][2])
    assert rc == 2
    assert err == f"input error: {message}\n"
