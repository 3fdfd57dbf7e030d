import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lefdist import lefschetz, linalg, models
from lefdist.errors import PreconditionError
from lefdist.linalg import (
    MAX_DECIMAL_EXPONENT,
    MAX_PRINTED_DIGITS,
    IntMatrix,
    RationalMatrix,
    determinant,
    exact_number,
    exterior_power,
    matrix_power,
    num_to_str,
    powers,
    rank_kernel,
    read_int,
    smith_normal_form,
    smith_transform,
    to_number,
)
from row_space import row_space_basis

SEED = 20240817


def rand_int_matrix(rng, n, lo=-5, hi=5):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


class TestRankKernel:
    def test_identity(self):
        rank, kernel = rank_kernel(RationalMatrix.identity(3))
        assert rank == 3 and kernel == []

    def test_zero(self):
        rank, kernel = rank_kernel(RationalMatrix([[0, 0], [0, 0]]))
        assert rank == 0 and len(kernel) == 2

    def test_rank_one(self):
        rank, kernel = rank_kernel(RationalMatrix([[1, 2], [2, 4]]))
        assert rank == 1
        assert kernel == [(Fraction(-2), Fraction(1))]

    def test_last_column_pivot_stays_exact(self):
        # a pivot in the last column has nothing to its right; its entry must still be a Fraction
        for m, expected in (
            (RationalMatrix([[0, 1]]), [(1, 0)]),
            (IntMatrix([[1, 2, 0], [0, 0, 3]]), [(-2, 1, 0)]),
        ):
            rank, kernel = rank_kernel(m)
            assert rank == m.rows and kernel == expected
            assert all(type(x) is Fraction for v in kernel for x in v)

    def test_row_space_basis_is_reduced(self):
        m = RationalMatrix([[0, 0, 0], [2, 4, 1], [1, 2, Fraction(1, 3)], [3, 6, 1]])
        assert row_space_basis(m) == [(1, 2, 0), (0, 0, 1)]
        assert row_space_basis(RationalMatrix([[0, 0, 0], [0, 0, 0]])) == []

    def test_rank_nullity_battery(self):
        rng = random.Random(SEED)
        for _ in range(40):
            n = rng.randint(1, 5)
            m = rand_int_matrix(rng, n)
            rank, kernel = rank_kernel(m)
            assert rank + len(kernel) == m.cols
            mr = RationalMatrix(m.entries)
            for v in kernel:
                col = RationalMatrix([[x] for x in v])
                assert mr @ col == RationalMatrix([[0] for _ in range(n)])


class TestDeterminant:
    def test_identity(self):
        for n in (1, 2, 4):
            assert determinant(RationalMatrix.identity(n)) == 1

    def test_2x2_cases(self):
        assert determinant(IntMatrix([[2, 1], [1, 1]])) == 1
        assert determinant(IntMatrix([[2, 4], [6, 8]])) == -8

    def test_rational_entries(self):
        m = RationalMatrix([[Fraction(1, 2), 1], [1, Fraction(4, 3)]])
        assert determinant(m) == Fraction(1, 2) * Fraction(4, 3) - 1

    def test_non_square_rejected(self):
        with pytest.raises(PreconditionError):
            determinant(RationalMatrix([[0, 0, 0], [0, 0, 0]]))


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form(IntMatrix.identity(2)) == (1, 1)

    def test_example(self):
        assert smith_normal_form(IntMatrix([[2, 4], [6, 8]])) == (2, 4)

    def test_column_transform(self):
        m = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
        invariants, c = smith_transform(m)
        assert invariants == (2, 6, 12) == smith_normal_form(m)
        assert abs(determinant(c)) == 1
        mc = m @ c
        assert all(mc[i, j] % d == 0 for j, d in enumerate(invariants) for i in range(3))

    def test_zero(self):
        assert smith_normal_form(IntMatrix([[0, 0], [0, 0]])) == ()

    def test_a_rational_matrix_is_refused_by_name(self):
        # the refusal names the function that makes it, whether called directly or through the wrapper
        for f in (smith_transform, smith_normal_form):
            with pytest.raises(PreconditionError, match=r"^smith_transform requires an IntMatrix$"):
                f(RationalMatrix([[1, 0], [0, 2]]))

    def test_det_equals_product_battery(self):
        rng = random.Random(SEED + 1)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = rand_int_matrix(rng, n)
            d = determinant(m)
            invs = smith_normal_form(m)
            for a, b in zip(invs, invs[1:]):
                assert b % a == 0
            if d != 0:
                prod = 1
                for x in invs:
                    prod *= x
                assert prod == abs(d)


class TestRingRule:
    def test_mixed_operands_give_a_rational_matrix_in_either_order(self):
        a = IntMatrix([[1, 0], [0, 1]])
        r = RationalMatrix([[Fraction(1, 2), 0], [0, 1]])
        assert a @ r == r @ a == r
        assert a - r == RationalMatrix(a.entries) - r == RationalMatrix([[Fraction(1, 2), 0], [0, 0]])

    def test_integer_operands_stay_integer(self):
        a = IntMatrix([[2, 1], [1, 1]])
        assert type(a @ a) is type(a - a) is IntMatrix


class TestMatrixPower:
    def test_power_zero(self):
        m = IntMatrix([[3, 1], [0, 2]])
        assert matrix_power(m, 0) == IntMatrix.identity(2)

    def test_square(self):
        assert matrix_power(IntMatrix([[2, 1], [1, 1]]), 2) == IntMatrix([[5, 3], [3, 2]])

    def test_inverse(self):
        assert matrix_power(IntMatrix([[2, 1], [1, 1]]), -1) == IntMatrix([[1, -1], [-1, 2]])

    def test_negative_power_of_singular(self):
        with pytest.raises(PreconditionError):
            matrix_power(IntMatrix([[1, 2], [2, 4]]), -1)

    def test_nonunimodular_negative_power_is_rational(self):
        m = matrix_power(IntMatrix([[2, 0], [0, 1]]), -1)
        assert isinstance(m, RationalMatrix)
        assert m[0, 0] == Fraction(1, 2)

    def test_unimodular_powers_stay_in_ints(self):
        m = IntMatrix([[0, -1, 0], [2, 0, 1], [3, 1, 2]])
        for k in (-5, -3, -1, 0, 3, 8):
            p = matrix_power(m, k)
            assert isinstance(p, IntMatrix)
            assert all(type(e) is int for row in p.entries for e in row)
        assert matrix_power(m, -5) @ matrix_power(m, 5) == IntMatrix.identity(3)
        assert type(determinant(m)) is int


@st.composite
def invertible_matrices(draw):
    """(kind, m), n = 1..3: a unimodular IntMatrix, an IntMatrix of det +-2, or an invertible RationalMatrix."""
    kind = draw(st.sampled_from(("unimodular", "det 2", "rational")))
    n = draw(st.integers(1, 3))
    if kind == "rational":
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        m = RationalMatrix([[draw(entry) for _ in range(n)] for _ in range(n)])
        assume(determinant(m) != 0)
        return kind, m
    # a unit lower triangular matrix times an upper triangular one with diagonal +-1, or +-2 once
    off = lambda: draw(st.integers(-2, 2))
    diag = [draw(st.sampled_from((-1, 1))) * (2 if kind == "det 2" and i == 0 else 1) for i in range(n)]
    low = IntMatrix([[off() if j < i else int(j == i) for j in range(n)] for i in range(n)])
    up = IntMatrix([[off() if j > i else diag[i] if j == i else 0 for j in range(n)] for i in range(n)])
    return kind, low @ up


# the type of (m^k, m^-k) for each kind of matrix
POWER_TYPES = {
    "unimodular": (IntMatrix, IntMatrix),
    "det 2": (IntMatrix, RationalMatrix),
    "rational": (RationalMatrix, RationalMatrix),
}


class TestPowers:
    @settings(max_examples=80, deadline=None)
    @given(invertible_matrices(), st.integers(0, 7))
    def test_walk_matches_matrix_power(self, kind_m, n):
        # m^-k is the walk of m^-1
        kind, m = kind_m
        walk, back = list(powers(m, n)), list(powers(matrix_power(m, -1), n))
        assert len(walk) == len(back) == n
        for k, (pos, neg) in enumerate(zip(walk, back), 1):
            assert (type(pos), type(neg)) == POWER_TYPES[kind]
            # _Matrix equality compares the types too
            assert pos == matrix_power(m, k) and neg == matrix_power(m, -k)

    def test_one_inverse_in_all(self, monkeypatch):
        # the walk takes no inverse; a toral mapping torus takes one for its whole window, and a graded
        # one none: it takes its traces from the characteristic polynomial of each degree
        calls = []
        power = lefschetz.matrix_power
        monkeypatch.setattr(lefschetz, "matrix_power", lambda m, k: calls.append(k) or power(m, k))
        monkeypatch.setattr(linalg, "matrix_power", lambda m, k: pytest.fail("powers(m, n) inverted m"))
        cat = IntMatrix([[2, 1], [1, 1]])
        assert len(list(powers(cat, 6))) == 6
        models.mapping_torus(lefschetz.ToralAutomorphism(cat), 6)
        assert calls == [-1]
        monkeypatch.setattr(linalg, "_integer_inverse", lambda m: pytest.fail("a graded mapping torus inverted"))
        models.mapping_torus(lefschetz.GradedMap((IntMatrix.identity(1), RationalMatrix(cat.entries))), 6)
        assert calls == [-1]

    def test_zero_steps_yield_nothing_and_invert_nothing(self, monkeypatch):
        monkeypatch.setattr(linalg, "matrix_power", lambda m, k: pytest.fail("powers(m, 0) inverted m"))
        assert list(powers(IntMatrix([[1, 2], [2, 4]]), 0)) == []

    def test_singular_raises(self):
        # only the inverse, which the walk never takes, refuses a singular m
        m = IntMatrix([[1, 2], [2, 4]])
        assert list(powers(m, 3)) == [m, m @ m, m @ m @ m]
        with pytest.raises(PreconditionError, match="singular"):
            matrix_power(m, -1)


class TestExteriorPower:
    def test_degree_zero_and_top(self):
        m = IntMatrix([[2, 1], [1, 1]])
        assert exterior_power(m, 0) == IntMatrix([[1]])
        assert exterior_power(m, 1) == m
        assert exterior_power(m, 2) == IntMatrix([[determinant(m)]])

    def test_out_of_range(self):
        with pytest.raises(PreconditionError):
            exterior_power(IntMatrix.identity(2), 3)

    def test_char_poly_identity_battery(self):
        # det(I - m) = sum_i (-1)^i tr Lambda^i(m), exact, random integer matrices
        rng = random.Random(SEED + 2)
        for _ in range(30):
            n = rng.randint(1, 4)
            m = rand_int_matrix(rng, n, -3, 3)
            lhs = determinant(IntMatrix.identity(n) - m)
            rhs = sum((-1) ** i * exterior_power(m, i).trace() for i in range(n + 1))
            assert lhs == rhs

    def test_functorial(self):
        rng = random.Random(SEED + 3)
        a = rand_int_matrix(rng, 4, -2, 2)
        b = rand_int_matrix(rng, 4, -2, 2)
        for i in range(5):
            assert exterior_power(a @ b, i) == exterior_power(a, i) @ exterior_power(b, i)


class TestSerialization:
    def test_rational_strings(self):
        assert num_to_str(Fraction(-3, 6)) == "-1/2"
        assert num_to_str(Fraction(4, 2)) == num_to_str(2) == "2"
        assert num_to_str(0.5) == "~0.5"
        assert to_number("-1/2") == Fraction(-1, 2)
        assert to_number("7") == 7

    @pytest.mark.parametrize("sign", [1, -1])
    def test_the_printed_cap_is_the_limit_of_str(self, sign):
        # the cap refuses exactly the numbers that str() refuses: more than 4300 digits, the sign not counted
        widest = sign * (10**MAX_PRINTED_DIGITS - 1)
        assert MAX_PRINTED_DIGITS == 4300 and len(num_to_str(widest).lstrip("-")) == MAX_PRINTED_DIGITS
        assert len(num_to_str(Fraction(widest, 10**MAX_PRINTED_DIGITS - 2)).lstrip("-")) == 2 * MAX_PRINTED_DIGITS + 1
        for x in (widest + sign, Fraction(1, sign * 10**MAX_PRINTED_DIGITS)):
            with pytest.raises(ValueError):
                str(max(abs(x.numerator), x.denominator))
            with pytest.raises(PreconditionError, match="an output number has more than MAX_PRINTED_DIGITS = 4300"):
                num_to_str(x)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1e3", 1000),
            ("2.5e-1", Fraction(1, 4)),
            ("-4E+2", -400),
            (f"1e{MAX_DECIMAL_EXPONENT}", 10**MAX_DECIMAL_EXPONENT),
        ],
    )
    def test_exponent_strings_parse_exactly(self, text, expected):
        assert to_number(text) == expected

    @pytest.mark.parametrize("sign", ["", "-", "+000"])
    def test_exponent_past_the_cap_is_rejected(self, sign):
        exp = f"{sign}{MAX_DECIMAL_EXPONENT + 1}"
        with pytest.raises(ValueError, match="MAX_DECIMAL_EXPONENT"):
            to_number(f"1e{exp}")
        with pytest.raises(ValueError, match="MAX_DECIMAL_EXPONENT"):
            RationalMatrix.from_json_obj([[f"2.5E{exp}"]])

    @pytest.mark.parametrize("value, expected", [(7, 7), (-3, -3), ("12", 12), (" -4 ", -4), ("+2", 2)])
    def test_read_int_accepts(self, value, expected):
        assert read_int(value, "'n'") == expected

    @pytest.mark.parametrize(
        "value", [True, False, None, 2.5, 2.0, "x", "2.5", "", "1/1", [1], {"n": 1}, "1_0", "+-1", "-"]
    )
    def test_read_int_rejects(self, value):
        with pytest.raises(ValueError, match="'n' must be an integer"):
            read_int(value, "'n'")

    @pytest.mark.parametrize(
        "value, expected", [(0.1, Fraction(1, 10)), (1e-05, Fraction(1, 100000)), (3, 3), ("-2/4", Fraction(-1, 2))]
    )
    def test_exact_number_reads_a_float_as_its_decimal(self, value, expected):
        x = exact_number(value, "'c'")
        assert x == expected and type(x) is Fraction

    @pytest.mark.parametrize("value", ["~1", " ~0.5", True, None, [1], float("nan"), "x"])
    def test_exact_number_refuses_by_name(self, value):
        with pytest.raises(ValueError, match="'c'"):
            exact_number(value, "'c'")

    @pytest.mark.parametrize("obj", [5, [5], [[1], 5], {"a": [1]}, None, "[[1]]"])
    def test_matrix_loader_rejects_shape(self, obj):
        with pytest.raises(ValueError, match="array of arrays"):
            RationalMatrix.from_json_obj(obj)

    def test_matrix_roundtrip(self):
        m = RationalMatrix([[Fraction(1, 3), 2], [0, Fraction(-5, 7)]])
        assert RationalMatrix.from_json_obj(m.to_json_obj()) == m
        n = IntMatrix([[2, 1], [1, 1]])
        assert n.to_json_obj() == [["2", "1"], ["1", "1"]]

    def test_int_matrix_rejects_fractions(self):
        with pytest.raises(PreconditionError):
            IntMatrix([[Fraction(1, 2)]])

    def test_refused_entry_names_its_field(self):
        with pytest.raises(PreconditionError, match="^'m': IntMatrix entries must be integers"):
            IntMatrix.from_json_obj([["1/2", 0], [0, 1]], "'m'")
        with pytest.raises(PreconditionError, match="^'m': matrix rows must all have the same length"):
            RationalMatrix.from_json_obj([["1/2", 0], [0]], "'m'")

    @pytest.mark.parametrize("entry", [2.5, True, "3"])
    def test_int_matrix_never_truncates(self, entry):
        with pytest.raises(PreconditionError, match="integers"):
            IntMatrix([[entry]])
        assert IntMatrix([[Fraction(6, 3), -4]]).entries == ((2, -4),)
