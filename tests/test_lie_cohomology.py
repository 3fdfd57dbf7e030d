from fractions import Fraction

import pytest

from lefdist.errors import InvalidLieAlgebraError, PreconditionError
from lefdist.lie_cohomology import (
    MAX_ALGEBRA_DIM,
    GradedDims,
    LieAlgebra,
    abelian,
    catalog_algebra,
    ce_differential,
    cohomology_dims,
    direct_sum,
    filiform,
    heisenberg,
    is_nilpotent,
    nilpotent_battery,
    sl2,
    validate,
)
from lefdist.linalg import RationalMatrix
from lefdist.verify import ce_dims_reversed_basis

BATTERY = [(spec, catalog_algebra(spec)) for spec in nilpotent_battery()]


class TestValidate:
    def test_abelian_ok(self):
        assert validate(abelian(3)) is None

    def test_heisenberg_ok(self):
        assert validate(heisenberg()) is None

    def test_antisymmetry_violation(self):
        with pytest.raises(InvalidLieAlgebraError) as exc:
            LieAlgebra(3, {(1, 2): {3: 1}, (2, 1): {3: 0}})
        v = exc.value.violation
        assert v.kind == "antisymmetry"
        assert v.indices == (1, 2, 3)

    def test_jacobi_violation(self):
        # [e1,[e2,e3]] + [e2,[e3,e1]] + [e3,[e1,e2]] = -[e2,e1] = e3 != 0
        with pytest.raises(InvalidLieAlgebraError) as exc:
            LieAlgebra(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})
        v = exc.value.violation
        assert v.kind == "jacobi"
        assert v.indices[:3] == (1, 2, 3)

    def test_constructor_raises(self):
        with pytest.raises(InvalidLieAlgebraError):
            LieAlgebra(3, {(1, 2): {3: 1}, (2, 1): {3: 0}})

    def test_antisymmetric_completion(self):
        # [e_2, e_1] = -e_3 from the listed [e_1, e_2] = e_3
        assert heisenberg().bracket((0, 1, 0), (1, 0, 0)) == (0, 0, -1)


class TestNilpotency:
    def test_abelian(self):
        for n in (1, 2, 5):
            assert is_nilpotent(abelian(n)) is True

    def test_heisenberg(self):
        assert is_nilpotent(heisenberg()) is True

    def test_filiform(self):
        assert is_nilpotent(filiform(5)) is True

    def test_sl2_not_nilpotent(self):
        assert is_nilpotent(sl2()) is False

    def test_zero_dim(self):
        assert is_nilpotent(abelian(0)) is True


class TestDifferential:
    def test_abelian_zero(self):
        a = abelian(3)
        for i in range(3):
            d = ce_differential(a, i)
            assert all(e == 0 for row in d.entries for e in row)

    def test_heisenberg_degree_one(self):
        # d(e^3) = -e^1^e^2, d(e^1) = d(e^2) = 0
        d = ce_differential(heisenberg(), 1)
        assert d == RationalMatrix([[0, 0, -1], [0, 0, 0], [0, 0, 0]])

    def test_heisenberg_degree_two(self):
        d = ce_differential(heisenberg(), 2)
        assert all(e == 0 for row in d.entries for e in row)

    def test_degree_out_of_range(self):
        with pytest.raises(PreconditionError):
            ce_differential(heisenberg(), 4)

    def test_d_squared_zero_battery(self):
        # d_(i+1) . d_i = 0 exactly; the i = n-1 case composes into the top
        # degree and the i = n case has zero-dimensional target.
        for name, a in BATTERY + [("sl2", sl2())]:
            for i in range(a.dim - 1):
                prod = ce_differential(a, i + 1) @ ce_differential(a, i)
                assert all(e == 0 for row in prod.entries for e in row), (name, i)


class TestCohomologyDims:
    def test_abelian_binomials(self):
        assert cohomology_dims(abelian(2)).dims == (1, 2, 1)
        assert cohomology_dims(abelian(4)).dims == (1, 4, 6, 4, 1)

    def test_heisenberg(self):
        assert cohomology_dims(heisenberg()).dims == (1, 2, 2, 1)

    def test_zero_dim(self):
        assert cohomology_dims(abelian(0)).dims == (1,)

    def test_b0_and_b1(self):
        # b^0 = 1 always; b^1 = dim g - dim [g,g]
        assert cohomology_dims(sl2()).dims[0] == 1
        assert cohomology_dims(sl2()).dims[1] == 0
        assert cohomology_dims(filiform(4)).dims[1] == 2

    def test_alternating_sum_zero(self):
        for name, a in BATTERY + [("sl2", sl2())]:
            if a.dim == 0:
                continue
            assert cohomology_dims(a).euler_characteristic == 0, name

    def test_b1_is_codimension_of_derived_subalgebra(self):
        # independent route: rank of the raw bracket-image matrix
        from lefdist.linalg import rank_kernel

        for name, a in BATTERY + [("sl2", sl2())]:
            n = a.dim
            units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            rows = [list(a.bracket(units[i], units[j])) for i in range(n) for j in range(i + 1, n)]
            rank = rank_kernel(RationalMatrix(rows))[0] if rows else 0
            assert cohomology_dims(a).dims[1] == n - rank, name

    def test_poincare_duality_nilpotent(self):
        for name, a in BATTERY:
            dims = cohomology_dims(a).dims
            assert dims == dims[::-1], name

    def test_reversed_basis_oracle_dim_le_4(self):
        small = [(n, a) for n, a in BATTERY if a.dim <= 4]
        small.append(("sl2", sl2()))
        assert len(small) >= 5
        for name, a in small:
            assert cohomology_dims(a).dims == ce_dims_reversed_basis(a), name


class TestGradedDims:
    def test_euler(self):
        assert GradedDims((1, 2, 1)).euler_characteristic == 0
        assert GradedDims((1, 4, 1)).euler_characteristic == -2

    def test_sequence_protocol(self):
        g = GradedDims((1, 2, 2, 1))
        assert list(g) == [1, 2, 2, 1]


class TestSerialization:
    def test_roundtrip(self):
        for name, a in BATTERY + [("sl2", sl2())]:
            assert LieAlgebra.from_json_obj(a.to_json_obj()) == a, name

    def test_wire_format(self):
        obj = heisenberg().to_json_obj()
        assert obj == {"dim": 3, "brackets": [{"i": 1, "j": 2, "out": [{"k": 3, "c": "1"}]}]}

    def test_load_applies_completion_then_validates(self):
        a = LieAlgebra.from_json_obj(
            {"dim": 3, "brackets": [{"i": 2, "j": 1, "out": [{"k": 3, "c": "-1"}]}]}
        )
        assert a == heisenberg()

    @pytest.mark.parametrize(
        "obj, field",
        [
            ({"dim": 3, "brackets": 5}, "'brackets'"),
            ({"dim": 3, "brackets": [5]}, "'brackets'"),
            ({"dim": 3, "brackets": [{"i": 1, "j": 2, "out": 5}]}, "'out'"),
            ({"dim": 3, "brackets": [{"i": 1, "j": 2, "out": [[3, "1"]]}]}, "'out'"),
            ({"dim": 3, "brackets": [{"i": True, "j": 2, "out": []}]}, "'i'"),
            ({"dim": 3, "brackets": [{"i": 1, "j": 2, "out": [{"k": 2.5, "c": "1"}]}]}, "'k'"),
            ({"dim": None}, "'dim'"),
            ({"dim": "3x"}, "'dim'"),
        ],
    )
    def test_malformed_input_names_the_field(self, obj, field):
        with pytest.raises(ValueError, match=field) as exc:
            LieAlgebra.from_json_obj(obj)
        assert not isinstance(exc.value, PreconditionError)


class TestDimensionCap:
    def test_cap_reaches_the_target_scale(self):
        assert MAX_ALGEBRA_DIM >= 12
        assert LieAlgebra(MAX_ALGEBRA_DIM).dim == MAX_ALGEBRA_DIM

    def test_one_past_the_cap_is_rejected_by_name(self):
        with pytest.raises(PreconditionError, match="MAX_ALGEBRA_DIM"):
            LieAlgebra(MAX_ALGEBRA_DIM + 1)
        with pytest.raises(PreconditionError, match="MAX_ALGEBRA_DIM"):
            LieAlgebra.from_json_obj({"dim": MAX_ALGEBRA_DIM + 1, "brackets": []})


class TestDirectSum:
    def test_dims_multiply(self):
        a = direct_sum(heisenberg(), abelian(1))
        got = cohomology_dims(a).dims
        # Kuenneth: (1,2,2,1) x (1,1)
        assert got == (1, 3, 4, 3, 1)

    def test_rational_constants_accepted(self):
        a = LieAlgebra(3, {(1, 2): {3: Fraction(1, 2)}})
        assert cohomology_dims(a).dims == (1, 2, 2, 1)
