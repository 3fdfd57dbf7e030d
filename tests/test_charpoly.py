from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lefdist.errors import PreconditionError
from lefdist.linalg import IntMatrix, RationalMatrix, charpoly, determinant, exterior_power


@st.composite
def int_matrices(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    return IntMatrix(draw(st.lists(row, min_size=n, max_size=n)))


class TestCharpoly:
    @settings(max_examples=60, deadline=None)
    @given(int_matrices())
    def test_equals_exterior_traces_and_sympy(self, m):
        coeffs = charpoly(m)
        n = m.rows
        assert all(type(c) is int for c in coeffs)
        assert list(coeffs) == [(-1) ** i * exterior_power(m, i).trace() for i in range(n + 1)]
        oracle = sympy.Matrix([list(r) for r in m.entries]).charpoly().all_coeffs()
        assert list(coeffs) == [int(c) for c in oracle]
        assert sum(coeffs) == determinant(IntMatrix.identity(n) - m)

    def test_rational_and_empty(self):
        m = RationalMatrix([[Fraction(1, 2), 3], [Fraction(-2, 3), 5]])
        assert charpoly(m) == (1, Fraction(-11, 2), Fraction(9, 2))
        assert sum(charpoly(m)) == determinant(RationalMatrix.identity(2) - m)
        assert charpoly(IntMatrix([])) == (1,)

    def test_requires_square(self):
        with pytest.raises(PreconditionError):
            charpoly(IntMatrix([[1, 2]]))
