import json

import pytest

from lefdist.cli import main
from lefdist.curvature import flat_torus_grid, sphere_grid


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


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

    def test_bad_inline_json(self, capsys):
        rc, _, err = run_cli(capsys, "mapping-torus", "--matrix", "[[2,1],[1,")
        assert rc == 2

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

    def test_signs_route(self, capsys, tmp_path):
        path = tmp_path / "orbits.json"
        path.write_text(
            json.dumps({"orbits": [{"length": "2", "signs": {"1": 1, "-1": -1}}]})
        )
        rc, out, _ = run_cli(capsys, "flow", "--input", str(path), "--window", "2")
        assert rc == 0
        atoms = {a["at"]: a["coeff"] for a in json.loads(out)["distribution"]["atoms"]}
        assert atoms == {"-2": "-2", "2": "2"}

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

    def test_missing_chi(self, capsys):
        rc, _, err = run_cli(capsys, "suspension")
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

    def test_missing_file(self, capsys):
        rc, _, err = run_cli(capsys, "nilfoliation", "--algebra", "no/such/file.json")
        assert rc == 2


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

    def test_full_suite_exits_zero(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--suite", "all")
        assert rc == 0
        obj = json.loads(out)
        assert obj["passed"] is True and len(obj["checks"]) >= 20


class TestPlumbing:
    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        rc, out, _ = run_cli(
            capsys, "suspension", "--chi", "2", "--output", str(path)
        )
        assert rc == 0 and out == ""
        assert json.loads(path.read_text())["model"] == "suspension"

    def test_table_format(self, capsys):
        rc, out, _ = run_cli(
            capsys, "mapping-torus", "--matrix", "[[2,1],[1,1]]", "--format", "table"
        )
        assert rc == 0
        assert "atoms:" in out and "model: mapping_torus" in out

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_run_info_off_by_default(self, capsys):
        rc, out, _ = run_cli(capsys, "suspension", "--chi", "0")
        assert "run_info" not in json.loads(out)
        rc, out, _ = run_cli(capsys, "suspension", "--chi", "0", "--emit-run-info")
        assert "run_info" in json.loads(out)
