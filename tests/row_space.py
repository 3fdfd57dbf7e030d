"""Reduced row echelon form over ``Fraction``: the reference for row spaces.

No main path builds a row space in this form (``is_nilpotent`` keeps integer
rows), so the one Gauss-Jordan loop lives with the tests that use it.
"""

from fractions import Fraction


def row_space_basis(m) -> list[tuple[Fraction, ...]]:
    """Reduced row echelon basis of the row space of ``m``, ordered by pivot column."""
    rows = [[Fraction(x) for x in row] for row in m.entries]
    basis: list[list[Fraction]] = []
    for c in range(m.cols):
        i = next((i for i, row in enumerate(rows) if row[c]), None)
        if i is None:
            continue
        prow = rows.pop(i)
        prow = [x / prow[c] for x in prow]
        basis = [[x - row[c] * y for x, y in zip(row, prow)] for row in basis]
        rows = [[x - row[c] * y for x, y in zip(row, prow)] for row in rows]
        basis.append(prow)
    return [tuple(row) for row in basis]
