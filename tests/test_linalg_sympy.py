"""Properties of the exact elimination and Smith kernels, with sympy as oracle.

sympy and hypothesis are test-only dependencies; this module is kept apart
from test_linalg.py so that a missing oracle cannot stop the other linalg
tests from being collected.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_smith
from sympy.polys.domains import ZZ

from lefdist.errors import PreconditionError
from lefdist.linalg import (
    IntMatrix,
    RationalMatrix,
    determinant,
    matrix_power,
    rank_kernel,
    smith_normal_form,
    smith_transform,
)
from row_space import row_space_basis

INTS = st.integers(-6, 6)
RATIONALS = st.builds(Fraction, INTS, st.integers(1, 4))
SHAPES = ("plain", "dependent_row", "last_column_pivot", "zero_column")


@st.composite
def matrices(draw, cls, square=False):
    """Matrices up to 6 x 6, often rank deficient or with a last-column pivot."""
    entries = INTS if cls is IntMatrix else RATIONALS
    nr = draw(st.integers(1, 6))
    nc = nr if square else draw(st.integers(1, 6))
    rows = [draw(st.lists(entries, min_size=nc, max_size=nc)) for _ in range(nr)]
    shape = draw(st.sampled_from(SHAPES))
    i = draw(st.integers(0, nr - 1))
    if shape == "dependent_row":
        others = [row for k, row in enumerate(rows) if k != i]
        coeffs = [draw(INTS) for _ in others]
        rows[i] = [sum(a * row[j] for a, row in zip(coeffs, others)) for j in range(nc)]
    elif shape == "last_column_pivot":
        rows[i] = [0] * (nc - 1) + [draw(INTS.filter(bool))]
    elif shape == "zero_column":
        j = draw(st.integers(0, nc - 1))
        for row in rows:
            row[j] = 0
    return cls(rows)


def any_matrices(square=False):
    return st.one_of(matrices(IntMatrix, square), matrices(RationalMatrix, square))


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(str(x)) for x in row] for row in m.entries])


def from_sympy(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


class TestAgainstSympy:
    @settings(max_examples=150, deadline=None)
    @given(any_matrices())
    def test_rank_kernel_and_row_space(self, m):
        rank, kernel = rank_kernel(m)
        s = to_sympy(m)
        assert rank == s.rank()
        assert kernel == [tuple(from_sympy(x) for x in v) for v in s.nullspace()]
        assert all(type(x) is Fraction for v in kernel for x in v)
        rref = s.rref()[0]
        assert row_space_basis(m) == [tuple(from_sympy(x) for x in rref.row(i)) for i in range(rank)]

    @settings(max_examples=150, deadline=None)
    @given(any_matrices(square=True))
    def test_determinant(self, m):
        det = determinant(m)
        assert det == from_sympy(to_sympy(m).det())
        assert type(det) is (int if isinstance(m, IntMatrix) else Fraction)

    @settings(max_examples=150, deadline=None)
    @given(any_matrices(square=True))
    def test_inverse(self, m):
        s = to_sympy(m)
        if s.det() == 0:
            with pytest.raises(PreconditionError):
                matrix_power(m, -1)
            return
        inv = matrix_power(m, -1)
        assert [list(r) for r in inv.entries] == [
            [from_sympy(x) for x in s.inv().row(i)] for i in range(m.rows)
        ]
        integral = all(e.denominator == 1 for row in inv.entries for e in row)
        assert isinstance(inv, IntMatrix) == (isinstance(m, IntMatrix) and integral)

    @settings(max_examples=150, deadline=None)
    @given(matrices(IntMatrix))
    def test_smith_invariants_and_column_transform(self, m):
        invariants, c = smith_transform(m)
        d = sympy_smith(to_sympy(m), domain=ZZ)
        assert list(invariants) == [abs(int(x)) for x in d.diagonal() if x]
        assert smith_normal_form(m) == invariants
        assert c.rows == c.cols == m.cols
        assert abs(to_sympy(c).det()) == 1
        # m C = R^-1 D: column j is divisible by d_j, and zero past the rank
        mc = m @ c
        for j in range(m.cols):
            column = [mc[i, j] for i in range(m.rows)]
            if j < len(invariants):
                assert all(x % invariants[j] == 0 for x in column)
            else:
                assert not any(column)
