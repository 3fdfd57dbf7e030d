import math
import random
from fractions import Fraction

import pytest

from lefdist import models
from lefdist.distributions import IDENTITY, LatticePoint, RealPoint, make
from lefdist.errors import InconsistencyError, NotSimpleError, PreconditionError
from lefdist.lefschetz import GradedMap, ToralAutomorphism, fixed_point_index, lefschetz_number_graded, toral_lefschetz
from lefdist.lie_cohomology import GradedDims, abelian, catalog_algebra, heisenberg, nilpotent_battery, sl2
from lefdist.linalg import IntMatrix, RationalMatrix, determinant, matrix_power
from lefdist.models import (
    ClosedOrbitSpec,
    ConjugacyClassData,
    HomogeneousSpec,
    SuspensionSpec,
    corollary_checks,
    flow_distribution,
    mapping_torus,
    nil_foliation,
    selberg_report,
    surface_suspension_traces,
    suspension,
)
from toral_graded import toral_graded_map

CAT = ToralAutomorphism(IntMatrix([[2, 1], [1, 1]]))
MINUS_I = ToralAutomorphism(IntMatrix([[-1, 0], [0, -1]]))
DIAG_2_HALF = RationalMatrix([[2, 0], [0, Fraction(1, 2)]])


class TestMappingTorus:
    def test_cat_map_window2(self):
        d = mapping_torus(CAT, 2)
        assert d.group == "Z"
        assert d.atoms == (
            (LatticePoint(-2), Fraction(-5)),
            (LatticePoint(-1), Fraction(-1)),
            (LatticePoint(1), Fraction(-1)),
            (LatticePoint(2), Fraction(-5)),
        )
        assert LatticePoint(0) not in dict(d.atoms)  # chi(T^2) = 0

    def test_minus_identity_window3(self):
        d = mapping_torus(MINUS_I, 3)
        assert {p.k: c for p, c in d.atoms} == {-3: 4, -1: 4, 1: 4, 3: 4}

    def test_window_zero(self):
        assert mapping_torus(CAT, 0).is_zero
        gm = GradedMap(tuple(RationalMatrix.identity(d) for d in (1, 4, 1)))
        d = mapping_torus(gm, 0)
        assert d.atoms == ((LatticePoint(0), Fraction(-2)),)

    def test_a_singular_degree_is_inverted_only_inside_a_window(self):
        # chi = 1 - 2; the singular degree 1 has no inverse, so only a window of 1 or more refuses it
        gm = GradedMap((RationalMatrix.identity(1), RationalMatrix([[1, 2], [2, 4]])))
        assert mapping_torus(gm, 0).atoms == ((LatticePoint(0), Fraction(-1)),)
        with pytest.raises(PreconditionError, match="singular"):
            mapping_torus(gm, 1)

    def test_the_window_cap_admits_its_own_value(self):
        gm = GradedMap((RationalMatrix([[1]]),))
        assert len(mapping_torus(gm, models.MAX_TORUS_WINDOW).atoms) == 1 + 2 * models.MAX_TORUS_WINDOW
        with pytest.raises(PreconditionError, match="MAX_TORUS_WINDOW"):
            mapping_torus(gm, models.MAX_TORUS_WINDOW + 1)

    def test_an_empty_degree_adds_nothing_inside_a_window(self):
        # a 0 x 0 degree has the characteristic polynomial (1,) and every power sum 0
        gm = GradedMap((RationalMatrix([[2]]), IntMatrix([]), RationalMatrix([[3]])))
        expected = {0: 2} | {k: Fraction(2) ** k + Fraction(3) ** k for k in range(-4, 5) if k}
        assert {p.k: c for p, c in mapping_torus(gm, 4).atoms} == expected
        assert mapping_torus(GradedMap((RationalMatrix([]),)), 4).is_zero

    def test_graded_map_source_matches_toral(self):
        gm = toral_graded_map(CAT, 1)
        assert mapping_torus(gm, 3) == mapping_torus(CAT, 3)

    def test_negative_window_rejected(self):
        with pytest.raises(PreconditionError):
            mapping_torus(CAT, -1)

    def test_one_characteristic_polynomial_per_map(self, monkeypatch):
        # the trace path reads charpoly(A) once for the whole window; the det path walks A^k.  A single
        # k reads charpoly(A) once more, then that of C^|k| for the companion matrix C, never of any A^k
        from lefdist import lefschetz, linalg

        calls = []
        monkeypatch.setattr(lefschetz, "charpoly", lambda m: calls.append(m) or linalg.charpoly(m))
        d = mapping_torus(CAT, 40)
        assert calls == [CAT.matrix]
        assert dict(d.atoms)[LatticePoint(-40)] == toral_lefschetz(CAT, -40)
        assert calls[:2] == [CAT.matrix] * 2 and len(calls) == 3
        assert calls[2] == matrix_power(IntMatrix([[0, -1], [1, 3]]), 40) != CAT.power(40)

    def test_atoms_match_classical_identity(self):
        from lefdist.lefschetz import verify_classical_lefschetz

        d = mapping_torus(CAT, 5)
        for k in list(range(1, 6)) + [-1, -3]:
            chk = verify_classical_lefschetz(CAT, k)
            assert dict(d.atoms)[LatticePoint(k)] == chk.sum_of_indices == chk.lefschetz_number


class TestFlow:
    def test_empty(self):
        assert flow_distribution([], 5).is_zero

    def test_single_hyperbolic_orbit(self):
        orbit = ClosedOrbitSpec(1, return_map=DIAG_2_HALF)
        d = flow_distribution([orbit], 3)
        assert {float(p.x): c for p, c in d.atoms} == {
            -3.0: -1, -2.0: -1, -1.0: -1, 1.0: -1, 2.0: -1, 3.0: -1,
        }
        assert all(p.exact for p, _ in d.atoms)

    def test_incommensurable_lengths_stay_distinct(self):
        orbits = [
            ClosedOrbitSpec(1, return_map=DIAG_2_HALF),
            ClosedOrbitSpec(math.sqrt(2), return_map=DIAG_2_HALF),
        ]
        d = flow_distribution(orbits, 2)
        # multiples: +-1, +-2 from the first orbit, +-sqrt(2) from the second
        assert len(d.atoms) == 6

    def test_commensurable_merge(self):
        orbits = [
            ClosedOrbitSpec(1, return_map=DIAG_2_HALF),
            ClosedOrbitSpec(2, return_map=DIAG_2_HALF),
        ]
        d = flow_distribution(orbits, 2)
        # at +-2 both orbits contribute: 1*(-1) + 2*(-1) = -3
        assert dict(d.atoms)[RealPoint(Fraction(2))] == -3
        assert dict(d.atoms)[RealPoint(Fraction(1))] == -1

    def test_linearity_in_orbit_list(self):
        o1 = ClosedOrbitSpec(1, return_map=DIAG_2_HALF)
        o2 = ClosedOrbitSpec(Fraction(3, 2), return_map=RationalMatrix([[3]]))
        union = flow_distribution([o1, o2], 3)
        summed = flow_distribution([o1], 3) + flow_distribution([o2], 3)
        assert union == summed

    def test_non_simple_orbit_named(self):
        orbit = ClosedOrbitSpec(1, return_map=RationalMatrix.identity(2))
        with pytest.raises(NotSimpleError, match="orbit 0.*k=1"):
            flow_distribution([orbit], 1)

    def test_non_simple_multiple_named_in_full(self):
        # P^1 and P^-1 are simple, P^2 = diag(1, 4) is not
        orbit = ClosedOrbitSpec(1, return_map=RationalMatrix([[-1, 0], [0, 2]]))
        with pytest.raises(NotSimpleError) as exc:
            flow_distribution([orbit], 3)
        assert str(exc.value) == "orbit 0 (length 1) is not simple at multiple k=2: det(P^k - I) = 0"

    @pytest.mark.parametrize("n", [2, 3])
    def test_signs_match_every_power_built_from_scratch(self, n):
        # flow_distribution takes every sign from the Newton series of charpoly(P); the
        # reference powers each k on its own
        rng, checked = random.Random(n), 0
        while checked < 6:
            p = RationalMatrix([[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)])
            if determinant(p) == 0:
                continue
            try:
                expected = {k: fixed_point_index(matrix_power(p, k)) for k in range(-12, 13) if k}
            except NotSimpleError:
                continue
            d = flow_distribution([ClosedOrbitSpec(1, return_map=p)], 12)
            assert {int(point.x): c for point, c in d.atoms} == expected
            checked += 1

    def test_signs_need_no_matrix_product(self, monkeypatch):
        from lefdist import linalg

        p = RationalMatrix([[Fraction(3, 2), Fraction(13, 3), 2], [Fraction(-1, 2), Fraction(-5, 3), -1], [1, 3, 3]])
        expected = {k: fixed_point_index(matrix_power(p, k)) for k in range(-30, 31) if k}
        # any walk of the powers multiplies matrices
        monkeypatch.setattr(linalg._Matrix, "__matmul__", lambda a, b: pytest.fail("a flow multiplied matrices"))
        d = flow_distribution([ClosedOrbitSpec(1, return_map=p)], 30)
        assert {int(point.x): c for point, c in d.atoms} == expected

    def test_the_zeroth_multiple_is_not_simple(self):
        # P^0 = I: the caller's det(I - I) = 0 is refused like any other non-simple multiple
        with pytest.raises(NotSimpleError, match="k=0"):
            ClosedOrbitSpec(1, return_map=DIAG_2_HALF).sign(0, "orbit 0", 0)

    def test_unchecked_signs(self):
        orbit = ClosedOrbitSpec(1, signs={1: -1, -1: -1, 2: 1, -2: 1})
        d = flow_distribution([orbit], 2)
        assert dict(d.atoms)[RealPoint(Fraction(1))] == -1
        assert dict(d.atoms)[RealPoint(Fraction(2))] == 1

    def test_unchecked_signs_missing_multiple(self):
        orbit = ClosedOrbitSpec(1, signs={1: -1, -1: -1})
        with pytest.raises(PreconditionError, match="k=2"):
            flow_distribution([orbit], 2)

    def test_orbit_spec_validation(self):
        with pytest.raises(PreconditionError):
            ClosedOrbitSpec(0, return_map=DIAG_2_HALF)
        with pytest.raises(PreconditionError):
            ClosedOrbitSpec(1)
        with pytest.raises(PreconditionError):
            ClosedOrbitSpec(1, return_map=DIAG_2_HALF, signs={1: 1})

    def test_singular_return_map_refused_when_built(self):
        # checked once in the constructor, so even an orbit with no multiple in the window is refused
        with pytest.raises(PreconditionError, match="singular"):
            ClosedOrbitSpec(1, return_map=RationalMatrix([[1, 2], [2, 4]]))

    @pytest.mark.parametrize("bad", [2, 0, -3])
    def test_sign_other_than_one_refused_when_built(self, bad):
        # like a singular return map, whether or not the multiple lies in a window
        with pytest.raises(PreconditionError, match=f"k=2 must be \\+-1, got {bad}"):
            ClosedOrbitSpec(1, signs={1: 1, 2: bad})


class TestSuspension:
    def test_genus2_surface(self):
        d = suspension(SuspensionSpec(1, -2))
        assert d.atoms == ((IDENTITY, Fraction(-2)),)

    def test_chi_zero_empty(self):
        assert suspension(SuspensionSpec(1, 0)).is_zero

    def test_volume_scaling(self):
        d = suspension(SuspensionSpec(2, 2))
        assert d.atoms == ((IDENTITY, Fraction(4)),)

    def test_betti_consistency_enforced(self):
        from lefdist.lie_cohomology import GradedDims

        SuspensionSpec(1, -2, GradedDims((1, 4, 1)))
        with pytest.raises(PreconditionError):
            SuspensionSpec(1, 5, GradedDims((1, 4, 1)))


class TestSurfaceSuspension:
    def test_genus2_reference_values(self):
        s = surface_suspension_traces(2)
        tr0, tr1, tr2 = s.traces
        assert tr0.smooth_const == 1 and tr0.atoms == ()
        assert tr2.smooth_const == 1
        assert tr1.atoms == ((IDENTITY, Fraction(2)),)
        assert tr1.smooth_const == 2
        assert s.lefschetz.atoms == ((IDENTITY, Fraction(-2)),)
        assert s.lefschetz.smooth_const is None
        assert s.betti_lambda == (0, 2, 0)
        assert s.chi_lambda == -2

    def test_genus3(self):
        s = surface_suspension_traces(3)
        assert s.lefschetz.atoms == ((IDENTITY, Fraction(-4)),)

    def test_alternating_sum_recomputed_for_genus_range(self):
        for g in range(2, 11):
            s = surface_suspension_traces(g)
            resummed = s.traces[0] - s.traces[1] + s.traces[2]
            assert resummed == s.lefschetz
            assert s.lefschetz == suspension(SuspensionSpec(1, 2 - 2 * g))

    def test_genus_below_two_rejected(self):
        with pytest.raises(PreconditionError):
            surface_suspension_traces(1)


class TestNilFoliation:
    def test_heisenberg(self):
        r = nil_foliation(heisenberg())
        assert r.dims.dims == (1, 2, 2, 1)
        assert [t.smooth_const for t in r.traces] == [1, 2, 2, 1]
        assert r.lefschetz.is_zero
        assert r.corollary.applicable and r.corollary.passed

    def test_abelian_line(self):
        r = nil_foliation(abelian(1))
        assert [t.smooth_const for t in r.traces] == [1, 1]
        assert r.lefschetz.is_zero

    def test_non_nilpotent_rejected(self):
        with pytest.raises(PreconditionError, match="nilpotent"):
            nil_foliation(sl2())

    def test_battery_all_vanish(self):
        for spec in nilpotent_battery():
            r = nil_foliation(catalog_algebra(spec))
            assert r.lefschetz.is_zero, spec
            assert r.corollary.passed, spec

    def test_duality_break_raises(self, monkeypatch):
        # the alternating sum is 0, so only the duality check sees that b_1 = 3 but b_7 = 2
        wrong = (1, 3, 6, 10, 12, 10, 5, 2, 1)
        assert sum((-1) ** i * b for i, b in enumerate(wrong)) == 0
        monkeypatch.setattr(models, "cohomology_dims", lambda a: GradedDims(wrong))
        with pytest.raises(InconsistencyError, match="Poincare duality"):
            nil_foliation(catalog_algebra("filiform:8"))


class TestCorollary:
    def test_nilfoliation_output_passes(self):
        r = nil_foliation(heisenberg())
        report = corollary_checks(r.lefschetz)
        assert report.applicable and report.passed

    def test_nonzero_smooth_flagged(self):
        bad = make([], smooth_const=3)
        report = corollary_checks(bad)
        assert report.applicable and not report.passed

    def test_atomic_not_applicable(self):
        d = make([(IDENTITY, -2)])
        report = corollary_checks(d)
        assert not report.applicable and report.passed


class TestSelberg:
    def test_identity_only(self):
        h = HomogeneousSpec(2, 3, (ConjugacyClassData("e", None, is_identity=True),))
        d = selberg_report(h)
        assert d.atoms == ((IDENTITY, Fraction(6)),)
        assert d.orbit_terms == ()

    def test_abstract_orbit_terms_factored(self):
        h = HomogeneousSpec(
            1,
            0,
            (
                ConjugacyClassData("e", None, is_identity=True),
                ConjugacyClassData("a", -1, 3),
                ConjugacyClassData("b", 2, Fraction(1, 2)),
            ),
        )
        d = selberg_report(h)
        assert d.atoms == ()  # chi = 0 kills the identity atom
        factors = {(t.class_label, t.lefschetz, t.vol_centralizer) for t in d.orbit_terms}
        assert factors == {("a", -1, 3), ("b", 2, Fraction(1, 2))}

    def test_real_specialization_matches_mapping_torus(self):
        window = 2
        classes = [ConjugacyClassData("0", None, is_identity=True)]
        for k in range(1, window + 1):
            for kk in (k, -k):
                classes.append(
                    ConjugacyClassData(str(kk), lefschetz_number_graded(toral_graded_map(CAT, kk)))
                )
        h = HomogeneousSpec(1, 0, tuple(classes), group_kind="R")
        assert selberg_report(h) == mapping_torus(CAT, window)

    def test_real_kind_rejects_non_integer_labels(self):
        h = HomogeneousSpec(
            1,
            0,
            (
                ConjugacyClassData("e", None, is_identity=True),
                ConjugacyClassData("gamma", -1),
            ),
            group_kind="R",
        )
        with pytest.raises(PreconditionError, match="integer"):
            selberg_report(h)

    def test_exactly_one_identity_enforced(self):
        with pytest.raises(PreconditionError):
            HomogeneousSpec(1, 0, (ConjugacyClassData("a", 1),))
        with pytest.raises(PreconditionError):
            HomogeneousSpec(
                1,
                0,
                (
                    ConjugacyClassData("e", None, is_identity=True),
                    ConjugacyClassData("e2", None, is_identity=True),
                ),
            )

    def test_duplicate_labels_rejected(self):
        classes = (
            ConjugacyClassData("e", None, is_identity=True),
            ConjugacyClassData("g", 1),
            ConjugacyClassData("g", 2),
        )
        with pytest.raises(PreconditionError, match="distinct"):
            HomogeneousSpec(1, 0, classes)

    def test_nontrivial_class_needs_a_lefschetz_number(self):
        with pytest.raises(PreconditionError, match="'g': a Lefschetz number is required"):
            ConjugacyClassData("g", None)
