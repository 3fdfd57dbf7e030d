"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success (run with ``pytest -s`` or
``-v`` to see them); any failure is a hard test failure.  Tolerances and
runtime budgets are pinned here and nowhere else.
"""

import itertools
import json
import math
import random
import time

from lefdist import lefschetz
from lefdist.cli import main as cli_main
from lefdist.curvature import (
    const_curvature_chi,
    flat_torus_grid,
    integrate_curvature,
    random_torus_metric,
    sphere_grid,
)
from lefdist.distributions import make
from lefdist.lefschetz import ToralAutomorphism, fixed_points_toral, verify_classical_lefschetz
from lefdist.lie_cohomology import catalog_algebra, ce_differential, cohomology_dims, nilpotent_battery
from lefdist.linalg import IntMatrix, RationalMatrix, determinant, exterior_power
from lefdist.models import (
    ClosedOrbitSpec,
    corollary_checks,
    flow_distribution,
    mapping_torus,
    nil_foliation,
    surface_suspension_traces,
)
from lefdist.verify import brute_force_fixed_point_count

CAT = ToralAutomorphism(IntMatrix([[2, 1], [1, 1]]))


def _report(capsys, n, text):
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_cat_map_three_ways(capsys):
    t0 = time.monotonic()
    expected = [-1, -5, -16, -45, -121]
    via_det = []
    via_traces = []
    via_indices = []
    for k in range(1, 6):
        ak = CAT.power(k)
        d = determinant(IntMatrix.identity(2) - ak)
        via_det.append(d)
        via_traces.append(
            sum((-1) ** i * exterior_power(ak, i).trace() for i in range(3))
        )
        # brute-force lattice enumeration; every simple fixed point of a
        # linear torus map carries the same classical index sign(det(I - A^k))
        classical = 1 if d > 0 else -1
        via_indices.append(brute_force_fixed_point_count(CAT, k) * classical)
        report = fixed_points_toral(CAT, k)
        assert report.count * report.index == via_indices[-1]
    assert via_det == expected
    assert via_traces == expected
    assert via_indices == expected
    atoms = {p.k: c for p, c in mapping_torus(CAT, 5).atoms}
    assert [atoms[k] for k in range(1, 6)] == expected
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(capsys, 1, f"cat-map L(F^k) k=1..5 = {expected} via det, traces, and index sums ({elapsed:.2f}s)")


def test_criterion_2_fixed_point_counting_oracle(capsys):
    t0 = time.monotonic()
    cases = 0
    rng = range(-3, 4)
    for a, b, c, d in itertools.product(rng, repeat=4):
        if abs(a * d - b * c) != 1:
            continue
        t = ToralAutomorphism(IntMatrix([[a, b], [c, d]]))
        for k in (1, 2, 3):
            if determinant(t.power(k) - IntMatrix.identity(2)) == 0:
                continue
            cases += 1
            assert fixed_points_toral(t, k).count == brute_force_fixed_point_count(t, k)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(capsys, 2, f"SNF count equals brute-force enumeration on {cases} GL(2,Z) cases ({elapsed:.1f}s)")


def test_criterion_3_heisenberg_and_nilpotent_battery(capsys):
    t0 = time.monotonic()
    assert "heisenberg:1" in nilpotent_battery()
    dims = cohomology_dims(catalog_algebra("heisenberg:1"))
    assert dims.dims == (1, 2, 2, 1)
    assert dims.euler_characteristic == 0
    assert dims.dims == dims.dims[::-1]
    for spec in nilpotent_battery():
        a = catalog_algebra(spec)
        assert a.dim <= 6
        for i in range(a.dim - 1):
            prod = ce_differential(a, i + 1) @ ce_differential(a, i)
            assert all(e == 0 for row in prod.entries for e in row), (spec, i)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(capsys, 3, f"Heisenberg dims (1,2,2,1); d.d = 0 across the nilpotent battery ({elapsed:.2f}s)")


def test_criterion_4_genus2_suspension(capsys):
    s = surface_suspension_traces(2)
    tr1 = s.traces[1]
    assert tr1.atoms == ((tr1.atoms[0][0], 2),)
    assert str(tr1.atoms[0][0]) == "e"
    assert tr1.smooth_const == 2
    assert s.lefschetz.atoms[0][1] == -2 and s.lefschetz.smooth_const is None
    assert s.betti_lambda[1] == 2
    _report(capsys, 4, "genus-2 suspension: Tr^1 = 2 delta_e + 2, L = -2 delta_e, beta^1 = 2, exact")


def test_criterion_5_selberg_specialization_bit_identical(capsys, tmp_path):
    for window in (2, 3):
        classes = [{"label": "0", "is_identity": True}]
        for k in range(1, window + 1):
            for kk in (k, -k):
                classes.append({"label": str(kk), "matrix": [["2", "1"], ["1", "1"]]})
        spec = tmp_path / f"selberg_{window}.json"
        spec.write_text(
            json.dumps(
                {"vol_quotient": "1", "chi_x": 0, "group_kind": "R", "classes": classes}
            )
        )
        assert cli_main(["selberg", "--input", str(spec)]) == 0
        selberg_out = capsys.readouterr().out
        assert (
            cli_main(
                ["mapping-torus", "--matrix", "[[2,1],[1,1]]", "--window", str(window)]
            )
            == 0
        )
        torus_out = capsys.readouterr().out
        d1 = json.dumps(json.loads(selberg_out)["distribution"])
        d2 = json.dumps(json.loads(torus_out)["distribution"])
        assert d1 == d2
    _report(capsys, 5, "selberg group_kind=R output bit-identical to mapping-torus (windows 2, 3)")


def test_criterion_6_gauss_bonnet(capsys):
    t0 = time.monotonic()
    assert integrate_curvature(flat_torus_grid(64)) == 0.0
    rng = random.Random(20070401)
    worst = 0.0
    for i in range(20):
        m = random_torus_metric(rng, 256, conformal=(i % 2 == 0))
        worst = max(worst, abs(integrate_curvature(m)))
    assert worst <= 1e-3
    sphere_err = abs(integrate_curvature(sphere_grid(256)) - 2.0)
    assert sphere_err <= 1e-3
    for g in range(2, 6):
        assert const_curvature_chi(-1.0, 4 * math.pi * (g - 1)) == float(2 - 2 * g)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(
        capsys,
        6,
        f"flat torus exact 0; 20 random metrics worst {worst:.1e}; "
        f"sphere error {sphere_err:.1e}; constant-curvature chi exact ({elapsed:.1f}s)",
    )


def test_criterion_7_corollary_vanishing(capsys):
    for spec in nilpotent_battery():
        r = nil_foliation(catalog_algebra(spec))
        assert r.lefschetz.purely_smooth and r.lefschetz.is_zero, spec
        assert r.corollary.applicable and r.corollary.passed, spec
    corrupted = corollary_checks(make([], smooth_const=3))
    assert corrupted.applicable and not corrupted.passed
    _report(capsys, 7, "nilfoliation L outputs purely smooth and zero; corrupted density flagged")


def test_criterion_8_flow_linearity_and_signs(capsys):
    from fractions import Fraction

    p = RationalMatrix([[2, 0], [0, Fraction(1, 2)]])
    orbit = ClosedOrbitSpec(1, return_map=p)
    d = flow_distribution([orbit], 3)
    assert {float(pt.x): c for pt, c in d.atoms} == {
        x: -1 for x in (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)
    }
    others = [
        ClosedOrbitSpec(Fraction(3, 2), return_map=RationalMatrix([[3]])),
        ClosedOrbitSpec(2, return_map=p),
    ]
    union = flow_distribution([orbit] + others, 3)
    summed = flow_distribution([orbit], 3)
    for o in others:
        summed = summed + flow_distribution([o], 3)
    assert union == summed
    _report(capsys, 8, "diag(2,1/2) orbit gives -1 atoms at +-1,+-2,+-3; union equals sum exactly")


def test_criterion_9_fixed_point_enumeration_at_scale(capsys, monkeypatch):
    # det(A^14 - I) = L_28 - 2 = 710645 for the cat map, the largest k under ENUMERATION_CAP
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        report = fixed_points_toral(CAT, 14)
        best = min(best, time.perf_counter() - t0)
    assert report.count == len(report.numerators) == 710645
    assert best <= 0.5
    # the classical identity needs the count and one sign, never a Fraction point
    reports = []
    enumerate_points = lefschetz._fixed_points_of_power
    monkeypatch.setattr(
        lefschetz, "_fixed_points_of_power", lambda ak, k: reports.append(enumerate_points(ak, k)) or reports[-1]
    )
    check = verify_classical_lefschetz(CAT, 14)
    assert check.sum_of_indices == check.lefschetz_number == -710645
    assert len(reports) == 1 and "points" not in reports[0].__dict__
    _report(capsys, 9, f"cat map k=14: 710645 fixed points in {best:.2f}s (best of 3), no Fraction built to count them")
