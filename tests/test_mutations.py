"""Mutation tests: each patches one computation path wrong and asserts that a
cross-check reports it.

The reversed-basis CE oracle (``verify.ce_dims_reversed_basis``) ranks with
its own loop, ``verify._oracle_rank``, so a defect in linalg's Bareiss
elimination must leave the oracle right and make the two disagree, and a
defect in the oracle's loop must fail ``verify``'s oracle check.
"""

import dataclasses
import inspect
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from lefdist import cli, curvature, lefschetz, lie_cohomology, linalg, models, verify
from lefdist.errors import InconsistencyError
from lefdist.lie_cohomology import GradedDims, LieAlgebra, catalog_algebra, cohomology_dims
from lefdist.models import mapping_torus, nil_foliation

INPUTS = pathlib.Path(__file__).parent / "golden" / "inputs"


def drop_last_pivot_past_12_rows(rank_of):
    """``rank_of`` wrapped to lose one pivot on any matrix of more than 12 rows."""

    def mutant(rows):
        r = rank_of(rows)
        return r - 1 if len(rows) > 12 and r else r

    return mutant


def failed_checks(checks):
    return {c.name for c in checks if not c.passed}


@pytest.fixture
def bareiss_drops_a_pivot(monkeypatch):
    """linalg's elimination loses the last pivot of every matrix with more than 12 rows."""
    echelon = linalg._bareiss_echelon

    def mutant(rows):
        rows, pivots, sign = echelon(rows)
        return rows, pivots[:-1] if len(rows) > 12 else pivots, sign

    monkeypatch.setattr(linalg, "_bareiss_echelon", mutant)
    monkeypatch.setattr(lie_cohomology, "_bareiss_echelon", mutant)


def test_bareiss_defect_leaves_the_oracle_right(bareiss_drops_a_pivot):
    assert verify.ce_dims_reversed_basis(catalog_algebra("filiform:6")) == (1, 2, 3, 4, 3, 2, 1)


def test_bareiss_defect_is_caught_on_a_scrambled_algebra(bareiss_drops_a_pivot):
    a = LieAlgebra.from_json_obj(json.loads((INPUTS / "scrambled_algebra_dim7.json").read_text()))
    assert verify.ce_dims_reversed_basis(a) == (1, 4, 8, 11, 11, 8, 4, 1)
    assert cohomology_dims(a).dims != verify.ce_dims_reversed_basis(a)
    with pytest.raises(InconsistencyError, match="Poincare duality"):
        nil_foliation(a)


def test_bareiss_defect_fails_the_oracle_check(bareiss_drops_a_pivot):
    # the oracle check's scrambled L_5,6 + abelian:1 has no Carnot layers and keeps a 17-row CE
    # component, which the mutant ranks short; the scrambled filiform:6 is ranked in its layers,
    # and the catalog algebras keep every component at 12 rows or fewer
    assert failed_checks(verify.run_cohomology_suite(1)) == {"reversed-basis CE oracle agrees (dim <= 6)"}


def test_oracle_defect_fails_the_oracle_check(monkeypatch):
    monkeypatch.setattr(verify, "_oracle_rank", drop_last_pivot_past_12_rows(verify._oracle_rank))
    # filiform:6 has CE matrices of 15 and 20 rows; the algebras of dim <= 4 have at most 6
    assert cohomology_dims(catalog_algebra("filiform:6")).dims == (1, 2, 3, 4, 3, 2, 1)
    assert verify.ce_dims_reversed_basis(catalog_algebra("filiform:6")) != (1, 2, 3, 4, 3, 2, 1)
    assert failed_checks(verify.run_cohomology_suite(1)) == {"reversed-basis CE oracle agrees (dim <= 6)"}


@pytest.mark.parametrize(
    "mutant",
    [
        lambda invs, c: (invs[:-1], c),  # an invariant lost: the rank is short
        lambda invs, c: (invs, linalg.IntMatrix.identity(c.rows)),  # no column transform: C misses the kernel
    ],
    ids=["rank", "kernel"],
)
def test_rank_nullity_check_can_fail(monkeypatch, mutant):
    smith = verify.smith_transform
    monkeypatch.setattr(verify, "smith_transform", lambda m: mutant(*smith(m)))
    assert "rank + kernel dimension = cols" in failed_checks(verify.run_linalg_suite(1))


def test_epsilon_check_can_fail(monkeypatch):
    # the enumeration of a given A^k, which the battery's series and fixed_points_toral both call
    fixed_points = lefschetz._fixed_points_of_power

    def flipped(ak, k):
        r = fixed_points(ak, k)
        return r if r.infinite else dataclasses.replace(r, epsilon=-r.epsilon)

    monkeypatch.setattr(lefschetz, "_fixed_points_of_power", flipped)
    assert failed_checks(verify.run_lefschetz_suite(1)) == {"epsilon = (-1)^n * classical index (n = 2)"}


def test_ce_rows_without_the_insertion_sign_fail_the_dd_check(monkeypatch):
    """``lie_cohomology._ce_rows`` with the sign of inserting the bracket output into the rest of
    the subset dropped: the rows are still integer and sparse, but d.d is no longer zero."""

    def mutant(a, i):
        col = {s: c for c, s in enumerate(itertools.combinations(range(a.dim), i))}
        out = []
        for T in itertools.combinations(range(a.dim), i + 1):
            row = {}
            for pj, pk in itertools.combinations(range(i + 1), 2):
                rest = T[:pj] + T[pj + 1 : pk] + T[pk + 1 :]
                for m, num in a._table[T[pj]][T[pk]] or ():
                    if m not in rest:
                        c = col[tuple(sorted(rest + (m,)))]
                        row[c] = row.get(c, 0) + (num if (pj + pk) % 2 == 0 else -num)
            out.append({c: x for c, x in row.items() if x})
        return out

    assert mutant(catalog_algebra("filiform:6"), 2) != lie_cohomology._ce_rows(catalog_algebra("filiform:6"), 2)
    monkeypatch.setattr(lie_cohomology, "_ce_rows", mutant)
    assert "d.d = 0 on the nilpotent battery" in failed_checks(verify.run_cohomology_suite(1))


# -- the divisibility chain of smith_transform -------------------------------------------------


def smith_without_the_offender_step():
    """``linalg.smith_transform`` rebuilt from its source with the step that adds an offending row
    to the pivot row switched off, so a pivot that does not divide the block below it is kept."""
    source = inspect.getsource(linalg.smith_transform)
    assert source.count("if offender is not None:") == 1
    namespace = dict(vars(linalg))
    exec(source.replace("if offender is not None:", "if False:"), namespace)
    return namespace["smith_transform"]


def test_smith_without_the_offender_step_fails_the_chain_check(monkeypatch, capsys):
    diag = linalg.IntMatrix([[2, 0], [0, 3]])
    assert linalg.smith_transform(diag)[0] == (1, 6)
    mutant = smith_without_the_offender_step()
    with pytest.raises(InconsistencyError, match="SNF divisibility chain broken: 2 does not divide 3"):
        mutant(diag)
    monkeypatch.setattr(verify, "smith_transform", mutant)
    assert cli.main(["verify", "--suite", "linalg"]) == 3
    assert capsys.readouterr().err.startswith("internal error: SNF divisibility chain broken: ")


def surface_first_trace_off_by_one():
    """``models.surface_suspension_traces`` rebuilt from its source with the atom of Tr^1 at
    (2g - 1) vol(G) in place of (2g - 2) vol(G), so the traces no longer resum to L."""
    source = inspect.getsource(models.surface_suspension_traces)
    tr1 = "(IDENTITY, (2 * genus - 2) * vol_g)"
    assert source.count(tr1) == 1
    namespace = dict(vars(models))
    exec(source.replace(tr1, "(IDENTITY, (2 * genus - 1) * vol_g)"), namespace)
    return namespace["surface_suspension_traces"]


def test_wrong_first_surface_trace_fails_the_resummation_check(monkeypatch, capsys):
    message = "alternating trace sum disagrees with the suspension formula"
    mutant = surface_first_trace_off_by_one()
    with pytest.raises(InconsistencyError, match=message):
        mutant(3)
    # cli binds the name at import; verify looks it up on models when its suite runs
    monkeypatch.setattr(models, "surface_suspension_traces", mutant)
    monkeypatch.setattr(cli, "surface_suspension_traces", mutant)
    assert cli.main(["surface-suspension", "--genus", "3"]) == 3
    assert capsys.readouterr().err == f"internal error: {message}\n"
    assert cli.main(["verify", "--suite", "models"]) == 3
    assert capsys.readouterr().err == f"internal error: {message}\n"


def test_a_doubled_last_invariant_fails_the_determinant_check(monkeypatch):
    # 2 d_r is still a multiple of d_(r-1), so the chain holds; only |det| = d_1 ... d_r sees it
    smith = verify.smith_transform

    def mutant(m):
        invs, c = smith(m)
        return invs[:-1] + tuple(2 * d for d in invs[-1:]), c

    monkeypatch.setattr(verify, "smith_transform", mutant)
    assert failed_checks(verify.run_suite("linalg", 1)) == {"determinant equals product of SNF invariants"}


def test_a_wrong_first_exterior_power_fails_the_exterior_trace_check(monkeypatch):
    # tr Lambda^1 m one too large moves the alternating trace sum by -1, and det(I - m) not at all
    exterior_power = verify.exterior_power

    def mutant(m, i):
        power = exterior_power(m, i)
        if i != 1:
            return power
        rows = [list(row) for row in power.entries]
        rows[0][0] += 1
        return type(power)(rows)

    monkeypatch.setattr(verify, "exterior_power", mutant)
    assert failed_checks(verify.run_suite("linalg", 1)) == {"det(I - m) equals alternating exterior traces"}


# -- the enumeration checks of fixed_points_toral ------------------------------------------

CAT = lefschetz.ToralAutomorphism(linalg.IntMatrix([[2, 1], [1, 1]]))


def test_wrong_smith_invariants_fail_the_count_check(monkeypatch):
    # the true Smith invariants of cat^4 - I are (3, 15): 45 fixed points.  The mutant keeps the
    # column transform and returns (3, 10), so an unchecked enumeration lists 30 distinct points
    smith = lefschetz.smith_transform
    monkeypatch.setattr(lefschetz, "smith_transform", lambda m: ((3, 10), smith(m)[1]))
    with pytest.raises(InconsistencyError, match=r"\(3, 10\) of A\^4 - I multiply to 30, not \|det\| = 45"):
        lefschetz.fixed_points_toral(CAT, 4)


def test_wrong_smith_invariants_fail_the_count_check_under_python_O():
    code = textwrap.dedent(
        """
        import sys
        from lefdist import lefschetz
        from lefdist.errors import InconsistencyError
        from lefdist.linalg import IntMatrix
        smith = lefschetz.smith_transform
        lefschetz.smith_transform = lambda m: ((3, 10), smith(m)[1])
        try:
            r = lefschetz.fixed_points_toral(lefschetz.ToralAutomorphism(IntMatrix([[2, 1], [1, 1]])), 4)
        except InconsistencyError as exc:
            print(sys.flags.optimize, "raised:", exc)
        else:
            print(sys.flags.optimize, "returned count", r.count, "with", len(r.points), "points")
        """
    )
    src = str(pathlib.Path(lefschetz.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 raised: Smith invariants (3, 10) of A^4 - I multiply to 30, not |det| = 45\n"


def test_a_repeated_point_fails_the_distinctness_check(monkeypatch, capsys):
    smith = lefschetz.smith_transform

    def zero_last_column(m):
        """The transform's column for the largest invariant zeroed: its shifts all land on one point."""
        invs, c = smith(m)
        return invs, linalg.IntMatrix([list(row[:-1]) + [0] for row in c.entries])

    monkeypatch.setattr(lefschetz, "smith_transform", zero_last_column)
    with pytest.raises(InconsistencyError, match=r"enumerated 45 fixed points of A\^4, 3 distinct, not \|det"):
        lefschetz.fixed_points_toral(CAT, 4)
    # verify's GL(2, Z) battery enumerates too: the failed check is an internal error, exit 3
    assert cli.main(["verify", "--suite", "lefschetz"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: enumerated ") and "distinct, not |det(A^k - I)| = " in err


def test_a_rational_power_fails_the_ring_check(monkeypatch):
    monkeypatch.setattr(lefschetz, "matrix_power", lambda m, k: linalg.RationalMatrix(m.entries))
    with pytest.raises(InconsistencyError, match="A\\^4 of a unimodular A came back as RationalMatrix, not IntMatrix"):
        CAT.power(4)


def test_a_lefschetz_number_off_by_one_fails_the_cat_map_and_index_sum_checks(monkeypatch):
    # the det path of a given A^k, after its cross-check, gives L(F^5) + 1, and L(F^2) + 1 for A^2 of
    # trace 11: the maps of trace +-3 and det -1.  The cat-map check reaches k = 5 and the battery
    # k = 2; the mapping torus of the Selberg check reaches neither, since cat^2 has trace 7.
    # count * index of the enumerated fixed points stays right, so the two checks that compare with it fail
    lefschetz_of_power = lefschetz._lefschetz_of_power

    def mutant(ak, k, via_traces):
        return lefschetz_of_power(ak, k, via_traces) + (k == 5 or k == 2 and ak.trace() == 11)

    monkeypatch.setattr(lefschetz, "_lefschetz_of_power", mutant)
    assert failed_checks(verify.run_suite("all", 1)) == {
        "cat map L(F^k), k=1..5, three ways",
        "GL(2,Z) battery: index sum equals Lefschetz number",
    }


# -- verify's brute-force and quadrature oracles -----------------------------------------------


def scan_without_the_zero_residue():
    """``verify.brute_force_fixed_point_count`` rebuilt from its source with the residue 0, the
    fixed point at the origin, left out of the scan."""
    source = inspect.getsource(verify.brute_force_fixed_point_count)
    scan = "np.indices((d,) * n).reshape(n, -1)"
    assert source.count(scan) == 1
    namespace = dict(vars(verify))
    exec(source.replace(scan, scan + "[:, 1:]"), namespace)
    return namespace["brute_force_fixed_point_count"]


def test_a_scan_that_skips_the_zero_residue_fails_the_count_check(monkeypatch, capsys):
    mutant = scan_without_the_zero_residue()
    assert mutant(CAT, 4) == 44 == verify.brute_force_fixed_point_count(CAT, 4) - 1
    monkeypatch.setattr(verify, "brute_force_fixed_point_count", mutant)
    assert cli.main(["verify", "--suite", "lefschetz"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["passed"]
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failed == {"GL(2,Z) battery: SNF count equals brute-force enumeration"}


def curvature_without_the_fuv_term():
    """``curvature.gaussian_curvature`` rebuilt from its source with the mixed second derivative
    F_uv left out of the Brioschi determinant."""
    source = inspect.getsource(curvature.gaussian_curvature)
    fuv = "    det1 += _d(Fu, dv, 1)\n"  # a11 = -0.5 Evv + Fuv - 0.5 Guu, built in place
    assert source.count(fuv) == 1
    namespace = dict(vars(curvature))
    exec(source.replace(fuv, ""), namespace)
    return namespace["gaussian_curvature"]


def test_curvature_without_the_fuv_term_fails_the_random_metric_check(monkeypatch):
    # the flat torus and the sphere have F = 0, so only the sheared random metrics can see it
    monkeypatch.setattr(curvature, "gaussian_curvature", curvature_without_the_fuv_term())
    failed = failed_checks(verify.run_curvature_suite(1))
    assert failed == {"20 random doubly periodic metrics integrate to 0 +- 1e-3"}


def chi_with_a_precedence_slip():
    """``curvature.const_curvature_chi`` rebuilt from its source as K area / 2 * pi."""
    source = inspect.getsource(curvature.const_curvature_chi)
    formula = "curvature * area / (2 * math.pi)"
    assert source.count(formula) == 1
    namespace = dict(vars(curvature))
    exec(source.replace(formula, "curvature * area / 2 * math.pi"), namespace)
    return namespace["const_curvature_chi"]


def test_a_chi_formula_with_a_precedence_slip_fails_the_constant_curvature_check(monkeypatch):
    # K = -1 on area 4 pi (g - 1) gives -2 pi^2 (g - 1), not 2 - 2g
    monkeypatch.setattr(curvature, "const_curvature_chi", chi_with_a_precedence_slip())
    assert failed_checks(verify.run_suite("curvature", 1)) == {"constant-curvature chi exact for g = 2..5"}


def test_curvature_off_by_a_constant_fails_the_flat_torus_and_sphere_checks(monkeypatch):
    # K + 1e-3 moves each integral by 1e-3 * area / 2 pi: 2e-3 on the unit sphere
    gaussian_curvature = curvature.gaussian_curvature
    monkeypatch.setattr(curvature, "gaussian_curvature", lambda m: gaussian_curvature(m) + 1e-3)
    assert failed_checks(verify.run_suite("curvature", 1)) == {
        "flat torus integrates to exactly 0",
        "unit sphere integrates to 2 +- 1e-3",
        "20 random doubly periodic metrics integrate to 0 +- 1e-3",
    }


# -- the cohomology and model checks, one suite at a time --------------------------------------


def test_a_bumped_top_betti_number_fails_the_duality_check(monkeypatch):
    betti = lie_cohomology.cohomology_dims

    def mutant(a):
        dims = betti(a).dims
        return GradedDims(dims[:-1] + (dims[-1] + 1,))

    monkeypatch.setattr(lie_cohomology, "cohomology_dims", mutant)
    assert "Poincare duality on nilpotent algebras" in failed_checks(verify.run_suite("cohomology", 1))


def test_a_short_component_rank_fails_the_heisenberg_check(monkeypatch):
    # every r_i short by one keeps b_i = b_(n-i): only the known answer, b^1 from [g, g] and
    # the oracle catch it
    rank = lie_cohomology._component_rank
    monkeypatch.setattr(lie_cohomology, "_component_rank", lambda rows: rank(rows) - 1)
    assert failed_checks(verify.run_suite("cohomology", 1)) == {
        "Heisenberg Betti numbers (1,2,2,1)",
        "b^1 = dim g - dim [g, g] on the nilpotent battery",
        "reversed-basis CE oracle agrees (dim <= 6)",
    }


def test_a_short_component_rank_makes_nilfoliation_exit_3(monkeypatch, capsys):
    # duality and the vanishing of L hold whatever the ranks; b^1 = dim g - dim [g, g] does not
    rank = lie_cohomology._component_rank
    monkeypatch.setattr(lie_cohomology, "_component_rank", lambda components: rank(components) - 1)
    with pytest.raises(InconsistencyError, match=re.escape("b^1 = 4, but dim g - dim [g, g] = 4 - 2")):
        nil_foliation(catalog_algebra("filiform:4"))
    assert cli.main(["nilfoliation", "--algebra", "filiform:4"]) == 3
    assert capsys.readouterr().err == "internal error: nilfoliation b^1 = 4, but dim g - dim [g, g] = 4 - 2\n"


# -- the Carnot rebase of cohomology_dims ------------------------------------------------------


@pytest.fixture
def rebases(monkeypatch):
    """Every ``_carnot_rebase`` result of the test, None for a fallback."""
    seen, rebase = [], lie_cohomology._carnot_rebase

    def spy(a):
        seen.append(rebase(a))
        return seen[-1]

    monkeypatch.setattr(lie_cohomology, "_carnot_rebase", spy)
    return seen


def patch_inverse(monkeypatch, wrong):
    """``lie_cohomology._integer_inverse`` replaced by ``wrong`` of the true rows and d of B^-1 = rows / d, and B."""
    inverse = linalg._integer_inverse
    monkeypatch.setattr(lie_cohomology, "_integer_inverse", lambda m: wrong(*inverse(m), m))


def test_a_transposed_inverse_is_refused_by_the_weight_check(monkeypatch, rebases):
    # B^T for B^-1 puts [b_i, b_j] on layers of the wrong weight, so both scrambles keep their basis
    patch_inverse(monkeypatch, lambda rows, d, m: ([list(col) for col in zip(*m.entries)], 1))
    assert failed_checks(verify.run_suite("cohomology", 1)) == set()
    assert rebases == [None, None]


def test_an_inverse_that_loses_the_top_layer_fails_the_oracle_check(monkeypatch, rebases):
    # zero coordinates on b_n drop every bracket into the top layer: the weights still add up and
    # Jacobi still holds, so only the reversed-basis oracle, ranking the given basis, sees it
    patch_inverse(monkeypatch, lambda rows, d, m: ([row[:-1] + [0] for row in rows], d))
    assert failed_checks(verify.run_suite("cohomology", 1)) == {"reversed-basis CE oracle agrees (dim <= 6)"}
    assert rebases[0] is not None and rebases[1] is None


# filiform:4 + heisenberg:1 after the nil_scrambled change of basis (copy 2, seed 1)
FILIFORM4_HEISENBERG1 = LieAlgebra(7, {
    (1, 2): {3: 1}, (1, 3): {4: 1, 6: 1}, (1, 7): {4: -1, 6: -1}, (2, 4): {3: -1, 4: -1, 6: -1, 7: -1},
    (2, 6): {3: 1, 4: 1, 6: 1, 7: 1}, (4, 5): {3: 1, 4: 1, 6: 1, 7: 1}, (5, 6): {3: 1, 4: 1, 6: 1, 7: 1},
})


def test_an_inverse_that_breaks_jacobi_exits_3(monkeypatch, capsys, tmp_path):
    # doubling one coordinate keeps every weight, but the rebased table fails validate
    assert cohomology_dims(FILIFORM4_HEISENBERG1).dims == (1, 4, 8, 11, 11, 8, 4, 1)
    double = lambda row: [2 * x if c == 4 else x for c, x in enumerate(row)]
    patch_inverse(monkeypatch, lambda rows, d, m: (list(map(double, rows)), d))
    with pytest.raises(InconsistencyError, match="the Carnot layers of a Lie algebra gave no Lie algebra"):
        cohomology_dims(FILIFORM4_HEISENBERG1)
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(FILIFORM4_HEISENBERG1.to_json_obj()))
    assert cli.main(["nilfoliation", "--algebra", str(path)]) == 3
    assert capsys.readouterr().err.startswith("internal error: the Carnot layers of a Lie algebra gave no Lie algebra: ")


def test_a_constant_fixed_point_index_fails_the_epsilon_check(monkeypatch):
    # the flows take their signs from det_series, not from this index; verify's GL(2, Z) battery compares
    # the index of A^k with the enumeration's epsilon, and the cat map's epsilon is -1
    monkeypatch.setattr(lefschetz, "fixed_point_index", lambda j: 1)
    assert failed_checks(verify.run_suite("all", 1)) == {"epsilon = (-1)^n * classical index (n = 2)"}


def det_series_without_the_newton_sign():
    """``linalg.det_series`` rebuilt from its source over a ``_dets_of_power`` rebuilt with
    i f_i = +sum_j f_(i-j) p_jk: the recurrence of the complete symmetric functions, whose sum at
    x = d^k is positive for diag(2, 1/2)."""
    source = inspect.getsource(linalg._dets_of_power)
    step = "divmod(-sum("
    assert source.count(step) == 1
    namespace = dict(vars(linalg))
    exec(source.replace(step, "divmod(sum("), namespace)
    exec(inspect.getsource(linalg.det_series), namespace)
    return namespace["det_series"]


def test_a_newton_step_without_its_sign_fails_the_flow_sign_check(monkeypatch):
    # models' binding serves the flows only: the toral series reads lefschetz's, so the mapping
    # torus of the Selberg check keeps its trace path
    monkeypatch.setattr(models, "det_series", det_series_without_the_newton_sign())
    assert failed_checks(verify.run_suite("all", 1)) == {"flow signs from diag(2,1/2) return map"}


def flows_of_the_first_orbit_only():
    """``models.flow_distribution`` rebuilt from its source with a loop that stops after the first orbit."""
    source = inspect.getsource(models.flow_distribution)
    loop = "for idx, orbit in enumerate(orbits):"
    assert source.count(loop) == 1
    namespace = dict(vars(models))
    exec(source.replace(loop, "for idx, orbit in enumerate(orbits[:1]):"), namespace)
    return namespace["flow_distribution"]


def test_a_flow_that_drops_later_orbits_fails_the_linearity_check(monkeypatch):
    # the sign check has one orbit, so only the union of two orbits sees the lost one
    monkeypatch.setattr(models, "flow_distribution", flows_of_the_first_orbit_only())
    assert failed_checks(verify.run_suite("models", 1)) == {"flow distribution is linear in the orbit list"}


def test_a_mapping_torus_coefficient_off_by_one_fails_the_selberg_check(monkeypatch):
    # mapping_torus takes L(F^k) from _lefschetz_series; verify's Selberg classes take it from
    # verify._exterior_trace_sum of each A^k, so only their comparison sees the atom at k = 2
    series = models._lefschetz_series

    def mutant(t, window):
        for k, (pos, neg) in enumerate(series(t, window), 1):
            yield pos + (k == 2), neg

    monkeypatch.setattr(models, "_lefschetz_series", mutant)
    assert failed_checks(verify.run_suite("all", 1)) == {"Selberg G=R specialization equals mapping torus"}


def test_a_corollary_check_that_always_passes_fails_the_corrupted_density_check(monkeypatch):
    # every nilfoliation L is zero, so the nilfoliation check passes with or without the criterion
    monkeypatch.setattr(models, "corollary_checks", lambda d: models.CorollaryReport(True, True, ""))
    assert failed_checks(verify.run_suite("all", 1)) == {"corrupted constant density is flagged"}


# -- the power walk ---------------------------------------------------------------------------


def walk_one_step_behind(m, n):
    """``linalg.powers`` one step behind: I, m, ..., m^(n-1)."""
    p = type(m).identity(m.rows)
    for _ in range(n):
        yield p
        p = p @ m


def test_a_walk_that_drifts_fails_the_goldens(monkeypatch):
    # the toral det path walks its powers and those of the inverse; the graded maps and the flows take
    # their values from the characteristic polynomial and build none
    import test_golden

    for module in (linalg, lefschetz):
        monkeypatch.setattr(module, "powers", walk_one_step_behind)
    walked = [(name, produce) for name, produce in test_golden.cases() if name.startswith("mapping_torus")]
    changed = set()
    for name, produce in walked:
        try:
            same = produce() == (test_golden.GOLDEN / name).read_bytes()
        except AssertionError:  # a nonzero exit fails the golden too: the toral det path disagrees
            same = False
        if not same:
            changed.add(name)
    assert len(walked) == 9
    assert changed == {name for name, _ in walked if "graded" not in name}


def test_a_rational_walk_fails_the_ring_check_in_the_mapping_torus(monkeypatch, capsys):
    # the det and trace paths of a RationalMatrix A^k still agree, so only the ring check sees it
    walk, rational = lefschetz.powers, lambda m: linalg.RationalMatrix(m.entries)
    monkeypatch.setattr(lefschetz, "powers", lambda m, n: map(rational, walk(m, n)))
    message = "A^1 of a unimodular A came back as RationalMatrix, not IntMatrix"
    with pytest.raises(InconsistencyError, match=re.escape(message)):
        mapping_torus(CAT, 3)
    assert cli.main(["mapping-torus", "--matrix", "[[2,1],[1,1]]", "--window", "3"]) == 3
    assert capsys.readouterr().err == f"internal error: {message}\n"


# -- the exact product --------------------------------------------------------------------------


def product_without_the_right_denominator():
    """``_Matrix.__matmul__`` rebuilt from its source with (A / a)(B / b) = AB / a: the common
    denominator of the right operand is dropped."""
    source = textwrap.dedent(inspect.getsource(linalg._Matrix.__matmul__))
    denominator = "d = da * db"
    assert source.count(denominator) == 1
    namespace = dict(vars(linalg))
    exec(source.replace(denominator, "d = da"), namespace)
    return namespace["__matmul__"]


def test_a_product_that_drops_a_denominator_fails_the_product_oracle(monkeypatch):
    import test_golden
    import test_kernel_reference

    monkeypatch.setattr(linalg._Matrix, "__matmul__", product_without_the_right_denominator())
    # an integer product is untouched; M^-1 = I M^-1 of diag(2, 1/2) comes out as diag(1, 4)
    assert CAT.power(3) == linalg.IntMatrix([[13, 8], [8, 5]])
    assert linalg.matrix_power(linalg.RationalMatrix([[2, 0], [0, Fraction(1, 2)]]), -1).entries == ((1, 0), (0, 4))
    # diag(2, 3) diag(1/2, 1/3) is I, and the mutant makes it 6 I
    a, b = linalg.IntMatrix([[2, 0], [0, 3]]), linalg.RationalMatrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    with pytest.raises(AssertionError):
        test_kernel_reference.test_integral_and_empty_products_keep_the_ring(a, b)
    # no golden multiplies rational matrices: the toral and selberg ones multiply integers, the graded
    # maps and the flows take their values from the characteristic polynomial, and verify's checks
    # multiply no rational matrix
    for name, produce in test_golden.cases():
        if name.startswith(("mapping_torus", "flow", "selberg", "verify")):
            assert produce() == (test_golden.GOLDEN / name).read_bytes(), name


# -- the vanishing check of nil_foliation ------------------------------------------------------


def test_betti_numbers_that_do_not_cancel_fail_the_vanishing_check(monkeypatch, capsys):
    # (1, 3, 1) keeps Poincare duality, so only the vanishing of L = 1 - 3 + 1 can catch it
    monkeypatch.setattr(models, "cohomology_dims", lambda a: GradedDims((1, 3, 1)))
    with pytest.raises(InconsistencyError, match="alternating sum of nilfoliation traces is not zero"):
        nil_foliation(catalog_algebra("filiform:4"))
    assert cli.main(["nilfoliation", "--algebra", "filiform:4"]) == 3
    assert capsys.readouterr().err == "internal error: alternating sum of nilfoliation traces is not zero\n"


def nil_foliation_without_the_sign():
    """``models.nil_foliation`` rebuilt from its source with L = sum of the traces, not their alternating sum."""
    source = inspect.getsource(models.nil_foliation)
    sign = "(-1) ** i * "
    assert source.count(sign) == 1
    namespace = dict(vars(models))
    exec(source.replace(sign, ""), namespace)
    return namespace["nil_foliation"]


def test_a_nilfoliation_without_the_sign_fails_the_vanishing_check(monkeypatch, capsys):
    # b^0 + ... + b^n > 0: the mutant trips its own check before verify's "L vanishes" can run
    message = "alternating sum of nilfoliation traces is not zero"
    mutant = nil_foliation_without_the_sign()
    with pytest.raises(InconsistencyError, match=message):
        mutant(catalog_algebra("heisenberg:1"))
    # verify looks the name up on models when its suite runs
    monkeypatch.setattr(models, "nil_foliation", mutant)
    with pytest.raises(InconsistencyError, match=message):
        verify.run_suite("models", 1)
    assert cli.main(["verify", "--suite", "models"]) == 3
    assert capsys.readouterr().err == f"internal error: {message}\n"


# -- every verify check can fail --------------------------------------------------------------

# each verify check, by the name it reports, with the mutation tests above that fail it.  The
# mutants of the SNF chain, the surface resummation and the nilfoliation vanishing trip an
# internal raise (exit 3) before the check itself runs
FAILED_BY = {
    "determinant equals product of SNF invariants": ["test_a_doubled_last_invariant_fails_the_determinant_check"],
    "det(I - m) equals alternating exterior traces": [
        "test_a_wrong_first_exterior_power_fails_the_exterior_trace_check"
    ],
    "rank + kernel dimension = cols": ["test_rank_nullity_check_can_fail"],
    "SNF divisibility chain": ["test_smith_without_the_offender_step_fails_the_chain_check"],
    "cat map L(F^k), k=1..5, three ways": [
        "test_a_lefschetz_number_off_by_one_fails_the_cat_map_and_index_sum_checks"
    ],
    "GL(2,Z) battery: SNF count equals brute-force enumeration": [
        "test_a_scan_that_skips_the_zero_residue_fails_the_count_check"
    ],
    "GL(2,Z) battery: index sum equals Lefschetz number": [
        "test_a_lefschetz_number_off_by_one_fails_the_cat_map_and_index_sum_checks"
    ],
    "epsilon = (-1)^n * classical index (n = 2)": [
        "test_epsilon_check_can_fail",
        "test_a_constant_fixed_point_index_fails_the_epsilon_check",
    ],
    "d.d = 0 on the nilpotent battery": ["test_ce_rows_without_the_insertion_sign_fail_the_dd_check"],
    "b^1 = dim g - dim [g, g] on the nilpotent battery": ["test_a_short_component_rank_fails_the_heisenberg_check"],
    "Poincare duality on nilpotent algebras": ["test_a_bumped_top_betti_number_fails_the_duality_check"],
    "Heisenberg Betti numbers (1,2,2,1)": ["test_a_short_component_rank_fails_the_heisenberg_check"],
    "reversed-basis CE oracle agrees (dim <= 6)": [
        "test_bareiss_defect_fails_the_oracle_check",
        "test_oracle_defect_fails_the_oracle_check",
        "test_a_short_component_rank_fails_the_heisenberg_check",
        "test_an_inverse_that_loses_the_top_layer_fails_the_oracle_check",
    ],
    "Selberg G=R specialization equals mapping torus": [
        "test_a_mapping_torus_coefficient_off_by_one_fails_the_selberg_check"
    ],
    "surface suspension traces resum to L (g = 2..10)": [
        "test_wrong_first_surface_trace_fails_the_resummation_check"
    ],
    "nilfoliation L vanishes and passes the smooth check": [
        "test_a_nilfoliation_without_the_sign_fails_the_vanishing_check"
    ],
    "corrupted constant density is flagged": [
        "test_a_corollary_check_that_always_passes_fails_the_corrupted_density_check"
    ],
    "flow signs from diag(2,1/2) return map": ["test_a_newton_step_without_its_sign_fails_the_flow_sign_check"],
    "flow distribution is linear in the orbit list": ["test_a_flow_that_drops_later_orbits_fails_the_linearity_check"],
    "flat torus integrates to exactly 0": ["test_curvature_off_by_a_constant_fails_the_flat_torus_and_sphere_checks"],
    "unit sphere integrates to 2 +- 1e-3": ["test_curvature_off_by_a_constant_fails_the_flat_torus_and_sphere_checks"],
    "20 random doubly periodic metrics integrate to 0 +- 1e-3": [
        "test_curvature_without_the_fuv_term_fails_the_random_metric_check",
        "test_curvature_off_by_a_constant_fails_the_flat_torus_and_sphere_checks",
    ],
    "constant-curvature chi exact for g = 2..5": [
        "test_a_chi_formula_with_a_precedence_slip_fails_the_constant_curvature_check"
    ],
}


def test_every_verify_check_has_a_mutation_test():
    golden = json.loads((INPUTS.parent / "verify_all.json").read_text())
    assert list(FAILED_BY) == [c["name"] for c in golden["checks"]]
    for tests in FAILED_BY.values():
        assert all(callable(globals().get(name)) for name in tests), tests
