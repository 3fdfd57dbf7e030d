"""Mutation tests: each patches one computation path wrong and asserts that a
cross-check reports it.

The reversed-basis CE oracle (``verify.ce_dims_reversed_basis``) ranks with
its own loop, ``verify._oracle_rank``, so a defect in linalg's Bareiss
elimination must leave the oracle right and make the two disagree, and a
defect in the oracle's loop must fail ``verify``'s oracle check.
"""

import dataclasses
import itertools
import json
import pathlib

import pytest

from lefdist import lefschetz, lie_cohomology, linalg, verify
from lefdist.errors import InconsistencyError
from lefdist.lie_cohomology import LieAlgebra, catalog_algebra, cohomology_dims
from lefdist.models import nil_foliation

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

    def mutant(entries):
        rows, pivots, sign, scale = echelon(entries)
        return rows, pivots[:-1] if len(rows) > 12 else pivots, sign, scale

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
    # the oracle check's scrambled filiform:6 has a 16-row CE component, so the mutant gives it
    # (1,2,4,6,4,2,1); the catalog algebras keep every component at 12 rows or fewer
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
    fixed_points = lefschetz.fixed_points_toral

    def flipped(t, k):
        r = fixed_points(t, k)
        return dataclasses.replace(r, epsilons=tuple(-e for e in r.epsilons))

    monkeypatch.setattr(lefschetz, "fixed_points_toral", flipped)
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
