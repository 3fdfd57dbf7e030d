import math
from fractions import Fraction

import pytest

from lefdist.distributions import (
    ConjClass,
    IDENTITY,
    LatticePoint,
    OrbitTerm,
    RealPoint,
    make,
    to_number,
)
from lefdist.errors import PreconditionError


class TestMake:
    def test_cancellation(self):
        d = make([(LatticePoint(0), 3), (LatticePoint(0), -3)])
        assert d.is_zero and d.atoms == ()

    def test_ordering(self):
        d = make([(LatticePoint(2), -5), (LatticePoint(1), -1)])
        assert d.atoms == ((LatticePoint(1), Fraction(-1)), (LatticePoint(2), Fraction(-5)))

    def test_inexact_points_kept_distinct(self):
        d = make([(RealPoint(1.0), 1), (RealPoint(math.sqrt(2)), 1)])
        assert len(d.atoms) == 2

    def test_inexact_merge_within_tolerance(self):
        d = make([(RealPoint(1.0), 1), (RealPoint(1.0 + 1e-12), 2)])
        assert len(d.atoms) == 1
        assert d.atoms[0][1] == 3

    def test_exact_points_merge_only_on_equality(self):
        d = make([(RealPoint(Fraction(1, 3)), 1), (RealPoint(Fraction(1, 3)), 1), (RealPoint(Fraction(1, 2)), 1)])
        assert len(d.atoms) == 2

    def test_exact_inexact_collision_raises(self):
        with pytest.raises(PreconditionError):
            make([(RealPoint(Fraction(1)), 1), (RealPoint(1.0), 1)])

    def test_exact_inexact_merge_with_explicit_tolerance(self):
        d = make([(RealPoint(Fraction(1)), 1), (RealPoint(1.0), 2)], tolerance=1e-9)
        assert len(d.atoms) == 1
        p, c = d.atoms[0]
        assert not p.exact and c == 3

    def test_mixed_variants_rejected(self):
        with pytest.raises(PreconditionError):
            make([(LatticePoint(1), 1), (RealPoint(1.0), 1)])

    def test_group_inference(self):
        assert make([(LatticePoint(1), 1)]).group == "Z"
        assert make([(RealPoint(1), 1)]).group == "R"
        assert make([(ConjClass("g"), 1)]).group == "abstract"
        assert make([]).group == "abstract"
        assert make([], group="Z").group == "Z"

    def test_group_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            make([(LatticePoint(1), 1)], group="R")

    def test_zero_smooth_normalized(self):
        assert make([], smooth_const=0).smooth_const is None
        assert make([], smooth_const=Fraction(0)).is_zero

    def test_idempotence(self):
        d = make(
            [(RealPoint(1.5), 1), (RealPoint(Fraction(2)), Fraction(1, 3))],
            smooth_const=2,
            orbit_terms=(OrbitTerm("g1", -1, 1),),
        )
        again = make(d.atoms, d.smooth_const, d.orbit_terms, group=d.group)
        assert again == d


    def test_nan_points_rejected_by_name(self):
        with pytest.raises(ValueError, match="nan") as exc:
            make([(RealPoint(float("nan")), 1), (RealPoint(float("nan")), 2)])
        assert not isinstance(exc.value, PreconditionError)


class TestToNumber:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (3, Fraction(3)),
            (Fraction(1, 3), Fraction(1, 3)),
            (1.5, 1.5),
            ("-2/4", Fraction(-1, 2)),
            (" 7 ", Fraction(7)),
            ("~1.25", 1.25),
        ],
    )
    def test_accepts(self, value, expected):
        x = to_number(value)
        assert x == expected and type(x) is type(expected)

    @pytest.mark.parametrize(
        "value",
        [True, False, None, [1], {"a": 1}, float("nan"), float("inf"), -math.inf,
         "~nan", "~inf", "~-inf", "1e999x", "x", "", "1/0", "~", "nan", "inf"],
    )
    def test_rejects_with_plain_value_error(self, value):
        with pytest.raises(ValueError, match="'vol'") as exc:
            to_number(value, "'vol'")
        assert not isinstance(exc.value, PreconditionError)


class TestPair:
    def test_atoms_only(self):
        d = make([(LatticePoint(1), -1), (LatticePoint(2), -5)])
        got = d.pair(lambda x: {1: Fraction(1), 2: Fraction(1, 2)}[x])
        assert got == Fraction(-7, 2)

    def test_zero_distribution(self):
        assert make([]).pair(lambda x: 123) == 0

    def test_smooth_part(self):
        d = make([(ConjClass("e"), 2)], smooth_const=2)
        assert d.pair(lambda x: Fraction(1), integral_of_f=Fraction(3)) == 8

    def test_missing_integral(self):
        d = make([], smooth_const=1)
        with pytest.raises(PreconditionError):
            d.pair(lambda x: 1)

    def test_orbit_terms_refuse_pairing(self):
        d = make([], orbit_terms=(OrbitTerm("g", 1, 1),))
        with pytest.raises(PreconditionError):
            d.pair(lambda x: 1)

    def test_linearity(self):
        d1 = make([(LatticePoint(1), Fraction(2)), (LatticePoint(3), Fraction(-1))])
        d2 = make([(LatticePoint(1), Fraction(-2)), (LatticePoint(2), Fraction(5))])
        f = lambda k: Fraction(k * k + 1)
        assert (d1 + d2).pair(f) == d1.pair(f) + d2.pair(f)


class TestArithmetic:
    def test_add_cancels(self):
        d = make([(LatticePoint(0), 1)]) + make([(LatticePoint(0), -1)])
        assert d.is_zero
        assert d.group == "Z"

    def test_scale(self):
        g = 2
        d = make([(IDENTITY, 1)]).scale(2 - 2 * g)
        assert d.atoms == ((ConjClass("e"), Fraction(-2)),)

    def test_scale_by_zero(self):
        d = make([(LatticePoint(1), 5)], smooth_const=3).scale(0)
        assert d.is_zero

    def test_incompatible_groups(self):
        with pytest.raises(PreconditionError):
            make([(LatticePoint(1), 1)]) + make([(RealPoint(1), 1)])

    def test_scale_refuses_orbit_terms(self):
        d = make([], orbit_terms=(OrbitTerm("g", 1, 1),))
        with pytest.raises(PreconditionError):
            d.scale(2)

    def test_sub(self):
        a = make([(LatticePoint(1), 3)], smooth_const=1)
        b = make([(LatticePoint(1), 1)], smooth_const=1)
        got = a - b
        assert got.atoms == ((LatticePoint(1), Fraction(2)),)
        assert got.smooth_const is None

    def test_module_level_helpers(self):
        a = make([(LatticePoint(1), 1)])
        assert a.add(a, tolerance=1e-9) == a + a == a.scale(2)


class TestSerialization:
    def test_wire_format(self):
        d = make(
            [(RealPoint(1), -1)],
            smooth_const=2,
            orbit_terms=(OrbitTerm("gamma_1", -1, 1),),
        )
        assert d.to_json_obj() == {
            "group": "R",
            "atoms": [{"at": "1", "coeff": "-1"}],
            "smooth_const": "2",
            "orbit_terms": [
                {
                    "class": "gamma_1",
                    "coeff_factors": {"lefschetz": "-1", "vol_centralizer": "1"},
                }
            ],
        }

    def test_inexact_prefix(self):
        d = make([(RealPoint(1.5), 2.5)])
        obj = d.to_json_obj()
        assert obj["atoms"] == [{"at": "~1.5", "coeff": "~2.5"}]
