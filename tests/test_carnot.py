"""The Carnot rebase of ``cohomology_dims`` against the full-matrix reference.

``cohomology_dims`` ranks an algebra in the basis of ``_carnot_rebase`` when
the largest connected component of its middle CE differential has more than
``CARNOT_GATE_ROWS`` rows.  These tests hold the Betti numbers to
``full_matrix_dims`` (every CE matrix ranked whole by ``rank_kernel``) under
unimodular and rational changes of basis, check that every rebase that
succeeds gives a canonical table (``is_canonical``), that the algebras which
the cheap try cannot grade fall back to their given basis with the same
numbers, and that no catalog basis of the benchmark or of ``verify`` reaches the
rebase at all.  The scrambles come from the benchmark's own recipe,
``perfbench/workloads.scrambled_constants``.
"""

import json
import pathlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefdist import lie_cohomology
from lefdist.lie_cohomology import (
    CARNOT_GATE_ROWS,
    LieAlgebra,
    _carnot_rebase,
    _ce_rows,
    _components,
    catalog_algebra,
    cohomology_dims,
    filiform,
    nilpotent_battery,
)
from lefdist.models import nil_foliation
from test_lie_reference import BASES, brackets_of, change_basis, full_matrix_dims, is_canonical, random_basis

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"
INPUTS = pathlib.Path(__file__).parent / "golden" / "inputs"
sys.path.insert(0, str(PERFBENCH))

import reference as ref  # noqa: E402
import workloads  # noqa: E402

# L_5,6 (de Graaf's name): nilpotent and graded by w = (1, 2, 3, 4, 5), but not stratifiable
L56 = {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}, (2, 3): {5: 1}}


def largest_middle_component(a):
    return max(map(len, _components(_ce_rows(a, (a.dim - 1) // 2))), default=0)


def scrambled(r, copy):
    """The nil_scrambled algebra of ``r`` (a perfbench reference algebra) for one copy, seed 1."""
    return LieAlgebra.from_json_obj(r.to_json_obj(workloads.scrambled_constants(r, copy, random.Random(1))))


def load(name):
    return LieAlgebra.from_json_obj(json.loads((INPUTS / name).read_text()))


@st.composite
def unimodular(draw, dim):
    """A product of elementary column operations f_j += c f_i, as a Fraction matrix."""
    p = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    index = st.integers(0, dim - 1)
    for i, j, c in draw(st.lists(st.tuples(index, index, st.integers(-2, 2)), max_size=2 * dim)):
        if i != j:
            for row in p:
                row[j] += c * row[i]
    return p


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BASES), st.booleans(), st.data())
def test_betti_numbers_match_the_full_matrices_after_a_change_of_basis(base, rational, data):
    _, a = base
    if a.dim == 0:
        return
    if rational:
        p = random_basis(random.Random(data.draw(st.integers(0, 10**6))), a.dim)
    else:
        p = data.draw(unimodular(a.dim))
    b = LieAlgebra(a.dim, change_basis(a.dim, brackets_of(a), p))
    assert cohomology_dims(b).dims == full_matrix_dims(b)
    # below the gate too: a rebase that succeeds keeps every Betti number
    graded = _carnot_rebase(b)
    if graded is not None:
        assert is_canonical(graded)
        assert full_matrix_dims(graded) == full_matrix_dims(b)


@pytest.mark.parametrize(
    "name, algebra",
    [
        ("golden filiform:12", lambda: load("scrambled_filiform12.json")),
        ("nil_scrambled filiform:9", lambda: scrambled(ref.filiform(9), 0)),
        ("dense rational filiform:9", lambda: LieAlgebra(
            9, change_basis(9, brackets_of(filiform(9)), random_basis(random.Random(1), 9))
        )),
    ],
)
def test_a_hidden_grading_is_found_again(name, algebra):
    a = algebra()
    assert largest_middle_component(a) > CARNOT_GATE_ROWS, name
    graded = _carnot_rebase(a)
    assert graded is not None and is_canonical(graded), name
    # an eighth of the rows or fewer: 462 -> 32 at dim 12, 105 -> 8 and 126 -> 12 at dim 9
    assert 8 * largest_middle_component(graded) <= largest_middle_component(a), name
    assert cohomology_dims(a) == cohomology_dims(filiform(a.dim)), name


@pytest.mark.parametrize(
    "name, algebra",
    [
        # every one crosses the gate, and the cheap try finds no grading
        ("L_5,6 + abelian:1, golden", lambda: load("scrambled_l56_abelian1.json")),
        ("nil_scrambled filiform:4 + abelian:2, copy 6",
         lambda: scrambled(ref.direct_sum(ref.filiform(4), ref.abelian(2)), 6)),
        ("nil_scrambled filiform:4 + heisenberg:1, copy 0",
         lambda: scrambled(ref.direct_sum(ref.filiform(4), ref.heisenberg(1)), 0)),
        ("sl2 + abelian:3, not nilpotent, dense rational", lambda: LieAlgebra(6, change_basis(
            6, brackets_of(catalog_algebra("sl2+abelian:3")), random_basis(random.Random(1), 6)
        ))),
    ],
)
def test_an_algebra_without_carnot_layers_keeps_its_basis(name, algebra):
    a = algebra()
    assert largest_middle_component(a) > CARNOT_GATE_ROWS, name
    assert _carnot_rebase(a) is None, name
    assert cohomology_dims(a).dims == full_matrix_dims(a), name


def test_l56_has_no_carnot_layers():
    # V_1 = <e1, e2>, V_2 = <e3>, V_3 = <e4, e5> stack to a basis, but [e1, e4] = e5 has
    # weights 1 + 3 != 3; a scrambled copy of dim 5 never reaches the gate (10 rows at most)
    assert _carnot_rebase(LieAlgebra(5, L56)) is None
    b = LieAlgebra(5, change_basis(5, L56, random_basis(random.Random(7), 5)))
    assert _carnot_rebase(b) is None
    assert cohomology_dims(b).dims == full_matrix_dims(b) == (1, 2, 3, 3, 2, 1)


def test_no_catalog_basis_reaches_the_rebase(monkeypatch):
    def refuse(a):
        raise AssertionError(f"rebase tried on a catalog basis of dim {a.dim}")

    monkeypatch.setattr(lie_cohomology, "_carnot_rebase", refuse)
    standard = [LieAlgebra.from_json_obj(r.to_json_obj()) for r, _ in workloads.nil_bases()]
    for a in standard + [catalog_algebra(spec) for spec in nilpotent_battery()]:
        assert largest_middle_component(a) <= 8
        nil_foliation(a)
