"""Byte-identity of CLI and fixed-point output against a stored corpus.

The files under ``tests/golden/`` hold the `mapping-torus` JSON for one
hyperbolic automorphism in each dimension n = 2..6 and for the 8x8 companion
matrix of x^8 - x - 1 at window 300, the fixed-point reports
of three (A, k) with 10^2..10^3 points, `nilfoliation` on three catalog
algebras (filiform6, heisenberg:4, dim 9, and filiform:11), on heisenberg:5 +
abelian:1 read from JSON (dim 12), on a dense rational change of
basis of heis3 + filiform4 (dim 7) and on a rational change of basis of
heis3 + filiform5 (dim 8) whose constants have denominators up to 8588343,
on three unimodular scrambles from the benchmark's nil_scrambled recipe
(filiform:12, heisenberg:5 + abelian:1, and the non-stratifiable L_5,6 +
abelian:1, whose brackets are [e1,e2] = e3, [e1,e3] = e4, [e1,e4] = e5 and
[e2,e3] = e5),
`mapping-torus --input` with a rational graded map (its negative powers are
those of the inverse) at windows 4 and 60,
the default `verify --suite all` report, and the reports that pin how atoms
merge: `flow` with exact lengths 1 and 3/2 that meet at 3, inexact lengths
and near-duplicates 5e-9 apart (kept apart by default; merged, with an exact
and an inexact location 2e-10 apart, under `--tolerance 1e-6`), `flow` on four
dense rational return maps with 100 to 133 multiples each, `selberg`
once abstract (orbit terms) and twice with `group_kind` R (lattice atoms; once
with ten 8x8 `matrix` classes), and
`suspension` and `surface-suspension` with an inexact volume, and the
reports that pin the number readers: `gauss-bonnet --input` on a seeded
random torus grid in JSON and on a round-sphere grid in CSV, and
`gauss-bonnet --builtin random --grid 64` and `--grid 128` on the default seed
and `gauss-bonnet --builtin sphere --grid 192`, and
`mapping-torus --input` on a graded map whose JSON floats 0.5, 0.1 and 0.05
read as the exact 1/2, 1/10 and 1/20.  The toral
files were written before the toral kernels became integer-native, the
heisenberg:4 and dim-8 files before the structure constants became a sparse
integer table, the filiform:11 and dim-12 files before the CE ranks were
taken block by block, the flow, selberg and suspension files before `make`
merged every kind of atom in one loop, the gauss-bonnet and float graded
files before every input number went through one reader, the builtin random
one before `random_torus_metric` stopped building a meshgrid, the builtin sphere-192 and
random-128 files before the curvature kernel worked in place, the n = 8 and window-60
graded files before every k-series took its powers from one incremental walk,
the three scrambles before `cohomology_dims` ranked a scrambled algebra in its Carnot layers,
the dense rational flow before the flow signs came from one characteristic polynomial per map,
the 8x8 selberg file before a `matrix` class took its number from `toral_lefschetz`,
all three graded files before a graded map took its traces from power sums of characteristic polynomials,
the others before the exact
elimination kernels were merged; any byte that changes is a regression.
Inputs live in ``tests/golden/inputs/``.  Rewrite the outputs only when an
output change is intended:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
from unittest import mock

import pytest

from lefdist.cli import main
from lefdist.lefschetz import ToralAutomorphism, fixed_points_toral
from lefdist.lie_cohomology import LieAlgebra, catalog_algebra, cohomology_dims
from lefdist.linalg import IntMatrix
from lefdist.verify import ce_dims_reversed_basis
from wire_format import NUMBER_KEYS, assert_numbers_read_back

GOLDEN = pathlib.Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

# n -> (matrix, window); each matrix is a conjugated hyperbolic companion matrix
MAPPING_TORUS = {
    2: ([[1, -1], [-1, 0]], 10),
    3: ([[1, -1, 1], [1, 0, 0], [1, 1, 0]], 8),
    4: ([[0, -1, 0, -1], [1, 0, 0, 0], [3, 1, 3, 0], [3, 0, 4, -1]], 5),
    5: ([[0, -1, 0, -1, 0], [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [2, 0, 3, 0, 2], [2, 0, 2, 1, 1]], 4),
    6: (
        [
            [0, -1, 0, -1, 0, -1],
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [2, 0, 3, 0, 2, 0],
            [2, 0, 2, 1, 2, 0],
            [0, 0, 0, 0, 1, -1],
        ],
        3,
    ),
    # the companion matrix of x^8 - x - 1, deep enough that a power walk that drifts shows
    8: (
        [
            [0, 0, 0, 0, 0, 0, 0, 1],
            [1, 0, 0, 0, 0, 0, 0, 1],
            [0, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 0],
        ],
        300,
    ),
}

# name -> (matrix, k); every A^k - I has two or more Smith invariants > 1
FIXED_POINTS = {
    "n2_k4": ([[3, -2], [-1, 1]], 4),  # 192 points, invariants 8, 24
    "n3_k12": ([[0, -1, 0], [2, 0, 1], [3, 1, 2]], 12),  # 875 points, 5, 5, 35
    "n4_k10": ([[0, -1, 0, -1], [-1, 0, -2, 0], [0, 1, 0, 0], [0, 0, 1, -1]], 10),  # 768 points
}


# name -> argv; every run reads its input from INPUTS or the catalog
CLI = {
    "nilfoliation_filiform6": ["nilfoliation", "--algebra", "filiform:6"],
    "nilfoliation_heisenberg4": ["nilfoliation", "--algebra", "heisenberg:4"],
    "nilfoliation_filiform11": ["nilfoliation", "--algebra", "filiform:11"],
    "nilfoliation_heisenberg5_abelian1": [
        "nilfoliation", "--algebra", str(INPUTS / "heisenberg5_abelian1_dim12.json")
    ],
    "nilfoliation_rational_dim8": [
        "nilfoliation", "--algebra", str(INPUTS / "rational_algebra_dim8.json")
    ],
    "nilfoliation_scrambled_dim7": [
        "nilfoliation", "--algebra", str(INPUTS / "scrambled_algebra_dim7.json")
    ],
    # the nil_scrambled recipe, scrambled_constants(a, 0, random.Random(1)) in perfbench/workloads.py
    "nilfoliation_scrambled_filiform12": [
        "nilfoliation", "--algebra", str(INPUTS / "scrambled_filiform12.json")
    ],
    "nilfoliation_scrambled_heisenberg5_abelian1": [
        "nilfoliation", "--algebra", str(INPUTS / "scrambled_heisenberg5_abelian1.json")
    ],
    "nilfoliation_scrambled_l56_abelian1": [
        "nilfoliation", "--algebra", str(INPUTS / "scrambled_l56_abelian1.json")
    ],
    "mapping_torus_graded": [
        "mapping-torus", "--input", str(INPUTS / "graded_map.json"), "--window", "4"
    ],
    "mapping_torus_graded_window60": [
        "mapping-torus", "--input", str(INPUTS / "graded_map.json"), "--window", "60"
    ],
    "verify_all": ["verify", "--suite", "all"],
    "flow_commensurable": [
        "flow", "--input", str(INPUTS / "flow_orbits_commensurable.json"), "--window", "3"
    ],
    "flow_tolerance": [
        "flow", "--input", str(INPUTS / "flow_orbits_near_exact.json"), "--window", "3",
        "--tolerance", "1e-6",
    ],
    # dense 2x2 and 3x3 rational return maps of the benchmark's cli_mix recipe, 100 to 133 multiples each
    "flow_dense_rational": [
        "flow", "--input", str(INPUTS / "flow_orbits_dense_rational.json"), "--window", "100"
    ],
    "selberg_abstract": ["selberg", "--input", str(INPUTS / "selberg_abstract.json")],
    "selberg_r": ["selberg", "--input", str(INPUTS / "selberg_r.json")],
    # ten classes k = +-1..+-5 of the 8x8 companion matrix of x^8 - x - 1, given as matrices
    "selberg_r_n8": ["selberg", "--input", str(INPUTS / "selberg_r_n8.json")],
    "mapping_torus_graded_floats": [
        "mapping-torus", "--input", "graded_map_floats.json", "--window", "3"
    ],
    "gauss_bonnet_torus_json": ["gauss-bonnet", "--input", "torus_grid_32.json"],
    "gauss_bonnet_sphere_csv": ["gauss-bonnet", "--input", "sphere_grid_24.csv"],
    "gauss_bonnet_builtin_random": ["gauss-bonnet", "--builtin", "random", "--grid", "64"],
    # two of the builtin grid sizes of the benchmark's cli_mix workload
    "gauss_bonnet_builtin_sphere192": ["gauss-bonnet", "--builtin", "sphere", "--grid", "192"],
    "gauss_bonnet_builtin_random128": ["gauss-bonnet", "--builtin", "random", "--grid", "128"],
    "suspension_inexact": ["suspension", "--vol", "~1.5", "--chi", "-2"],
    "surface_suspension_genus3": ["surface-suspension", "--genus", "3", "--vol", "~1.5"],
}


def _cli_bytes(argv) -> bytes:
    out, cwd = io.StringIO(), os.getcwd()
    # the verify battery is seeded from LEFSCHETZ_SEED; the corpus holds the default.
    # gauss-bonnet echoes its input path, so every run starts in INPUTS
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out):
        os.environ.pop("LEFSCHETZ_SEED", None)
        os.chdir(INPUTS)
        try:
            rc = main(argv)
        finally:
            os.chdir(cwd)
    assert rc == 0
    return out.getvalue().encode("utf-8")


def _mapping_torus_bytes(matrix, window) -> bytes:
    return _cli_bytes(["mapping-torus", "--matrix", json.dumps(matrix), "--window", str(window)])


def _fixed_points_bytes(matrix, k) -> bytes:
    report = fixed_points_toral(ToralAutomorphism(IntMatrix(matrix)), k)
    return (json.dumps(report.to_json_obj(), separators=(",", ":")) + "\n").encode("utf-8")


def cases():
    for n, (matrix, window) in MAPPING_TORUS.items():
        yield f"mapping_torus_n{n}.json", lambda m=matrix, w=window: _mapping_torus_bytes(m, w)
    for name, (matrix, k) in FIXED_POINTS.items():
        yield f"fixed_points_{name}.json", lambda m=matrix, k=k: _fixed_points_bytes(m, k)
    for name, argv in CLI.items():
        yield f"{name}.json", lambda a=argv: _cli_bytes(a)


@pytest.mark.parametrize("name,produce", list(cases()), ids=[name for name, _ in cases()])
def test_byte_identical(name, produce):
    assert produce() == (GOLDEN / name).read_bytes()


# argv -> exit code: an argparse refusal and --help (SystemExit), a handler refusal, a domain error
DETOURS = [
    (["gauss-bonnet", "--input", "x", "--builtin", "flat"], 2),
    (["--help"], 0),
    (["mapping-torus", "--matrix", "nope"], 2),
    (["mapping-torus", "--matrix", "[[1,2]]"], 1),
]


def _detour(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_the_shared_parser_keeps_no_state_between_calls(capsys):
    # main parses every call with one parser per process; a refusal, a help page or a failed
    # run before a golden case, in either order, changes none of its bytes
    for i, (name, produce) in enumerate([*cases(), *reversed(list(cases()))]):
        argv, code = DETOURS[i % len(DETOURS)]
        assert _detour(argv) == code, argv
        assert produce() == (GOLDEN / name).read_bytes(), name


def test_every_golden_and_input_belongs_to_a_case():
    # an orphaned file would otherwise go stale without failing anything
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(name for name, _ in cases())
    named = {pathlib.Path(arg).name for argv in CLI.values() for arg in argv}
    assert {p.name for p in INPUTS.iterdir()} <= named


def test_every_printed_number_reads_back():
    # the wire format is closed: what num_to_str prints, to_number or read_int reads back as printed
    seen = set()
    for p in GOLDEN.glob("*.json"):
        seen |= assert_numbers_read_back(json.loads(p.read_text()))
    assert seen == NUMBER_KEYS | {"at", "count"}


@pytest.mark.parametrize(
    "golden, algebra",
    [
        ("nilfoliation_scrambled_dim7", "scrambled_algebra_dim7.json"),
        ("nilfoliation_rational_dim8", "rational_algebra_dim8.json"),
        ("nilfoliation_heisenberg4", "heisenberg:4"),
    ],
)
def test_reversed_basis_oracle_backs_the_golden_dims(golden, algebra):
    if algebra.endswith(".json"):
        a = LieAlgebra.from_json_obj(json.loads((INPUTS / algebra).read_text()))
    else:
        a = catalog_algebra(algebra)
    dims = json.loads((GOLDEN / f"{golden}.json").read_text())["dims"]
    assert ce_dims_reversed_basis(a) == cohomology_dims(a).dims == tuple(dims)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, produce in cases():
        (GOLDEN / name).write_bytes(produce())
        print(f"wrote {GOLDEN / name}")
