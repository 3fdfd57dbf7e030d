"""The sparse integer constant table against the dense Fraction loops it replaced.

``dense_cube``, ``dense_validate`` and ``dense_ce_differential`` are copies of
the constructor, the validator and the CE differential that stored every
constant c[i][j][k] as a ``Fraction`` in a dim^3 cube.  They are kept here as
the reference: the table must give the same constants, the same first
``Violation`` (kind and indices) and the same differential matrices.  The
Betti numbers are also checked against ``verify.ce_dims_reversed_basis``
after rational changes of basis, which make the constants non-integer.

``full_matrix_dims`` ranks the whole CE matrix of each degree with
``rank_kernel``, as ``cohomology_dims`` did before it took the ranks one
connected component at a time; ``component_counts`` finds those
components by merging column sets, and ``weight_rank`` is the rank of the
grading equations w_i + w_j = w_k (dim when only w = 0 solves them).
``dense_is_nilpotent`` is the lower central series over ``Fraction`` vectors
that ``is_nilpotent`` replaced, and ``fraction_direct_sum`` the direct sum that
sent both tables back through the constructor as ``Fraction`` brackets.
"""

import itertools
import json
import pathlib
import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefdist.errors import InvalidLieAlgebraError, PreconditionError
from lefdist.lie_cohomology import (
    LieAlgebra,
    Violation,
    _ce_rows,
    _component_rank,
    _components,
    catalog_algebra,
    ce_differential,
    cohomology_dims,
    direct_sum,
    filiform,
    is_nilpotent,
    nilpotent_battery,
)
from lefdist.linalg import IntMatrix, RationalMatrix, matrix_power, rank_kernel
from lefdist.verify import ce_dims_reversed_basis
from row_space import row_space_basis

INPUTS = pathlib.Path(__file__).parent / "golden" / "inputs"
BASES = [(spec, catalog_algebra(spec)) for spec in (*nilpotent_battery(), "sl2", "heisenberg:1+filiform:4")]
RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))


# -- the dense reference ------------------------------------------------------


def dense_cube(dim, brackets):
    """c[i][j][k] as the dense constructor stored it (0-based, mirror pairs filled)."""
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    seen = set()
    for (i, j), out in brackets.items():
        seen.add((i - 1, j - 1))
        for k, coeff in out.items():
            c[i - 1][j - 1][k - 1] = Fraction(coeff)
    for i in range(dim):
        for j in range(dim):
            if (i, j) in seen and (j, i) not in seen:
                for k in range(dim):
                    c[j][i][k] = -c[i][j][k]
    return c


def dense_validate(c):
    n = len(c)
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                if c[i][j][k] != -c[j][i][k]:
                    return Violation("antisymmetry", (i + 1, j + 1, k + 1))
    for i, j, k in itertools.combinations(range(n), 3):
        for l in range(n):
            s = Fraction(0)
            for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                s += sum(c[y][z][m] * c[x][m][l] for m in range(n))
            if s != 0:
                return Violation("jacobi", (i + 1, j + 1, k + 1, l + 1))
    return None


def dense_ce_differential(c, i):
    n = len(c)
    cols = list(itertools.combinations(range(n), i))
    col_of = {s: idx for idx, s in enumerate(cols)}
    rows = list(itertools.combinations(range(n), i + 1))
    m = [[Fraction(0)] * len(cols) for _ in rows]
    for r, T in enumerate(rows):
        for pj, pk in itertools.combinations(range(i + 1), 2):
            rest = tuple(t for p, t in enumerate(T) if p not in (pj, pk))
            rest_set = set(rest)
            pair_sign = (-1) ** (pj + pk)
            for mm in range(n):
                coeff = c[T[pj]][T[pk]][mm]
                if not coeff or mm in rest_set:
                    continue
                S = tuple(sorted((mm,) + rest))
                if S not in col_of:
                    continue
                insert_sign = (-1) ** sum(1 for x in rest if x < mm)
                m[r][col_of[S]] += pair_sign * insert_sign * coeff
    return RationalMatrix(m)


def full_matrix_dims(a):
    n = a.dim
    ranks = [rank_kernel(ce_differential(a, i))[0] for i in range(n + 1)]
    return tuple(comb(n, i) - ranks[i] - (ranks[i - 1] if i else 0) for i in range(n + 1))


def component_counts(a):
    """Per degree, the number of connected components of the nonzero rows of d_i."""
    counts = []
    for i in range(a.dim):
        groups = []  # column sets of the components so far
        for row in filter(None, _ce_rows(a, i)):
            cols = set(row)
            for g in [g for g in groups if g & cols]:
                groups.remove(g)
                cols |= g
            groups.append(cols)
        counts.append(len(groups))
    return counts


def weight_rank(a):
    n = a.dim
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    equations = [
        [(x == i) + (x == j) - (x == k) for x in range(n)]
        for i, j in itertools.combinations(range(n), 2)
        for k, c in enumerate(a.bracket(units[i], units[j]))
        if c
    ]
    return rank_kernel(IntMatrix(equations))[0] if equations else 0


def dense_is_nilpotent(a):
    n = a.dim
    full = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    current = full
    while current:
        brackets = (a.bracket(x, y) for x in full for y in current)
        nxt = row_space_basis(RationalMatrix([v for v in brackets if any(v)]))
        if len(nxt) == len(current):
            return False
        current = nxt
    return True


def fraction_direct_sum(a, b):
    """a + b by Fraction brackets: the i < j constants of both tables, shifted, through the constructor."""
    brackets = {}
    for shift, x in ((0, a), (a.dim, b)):
        for i in range(x.dim):
            for j in range(i + 1, x.dim):
                if x._table[i][j]:
                    brackets[shift + i + 1, shift + j + 1] = {
                        shift + k + 1: Fraction(num, x._den) for k, num in x._table[i][j]
                    }
    return LieAlgebra(a.dim + b.dim, brackets)


def is_canonical(a):
    """den > 0 and gcd(den, numerators) = 1, so the JSON round trip rebuilds the same table."""
    nums = (num for row in a._table for out in row for _, num in out)
    return a._den > 0 and gcd(a._den, *nums) == 1 and a == LieAlgebra.from_json_obj(a.to_json_obj())


# -- inputs -------------------------------------------------------------------


def brackets_of(a):
    """The i < j brackets of an algebra, as the constructor takes them."""
    return {
        (b["i"], b["j"]): {o["k"]: Fraction(o["c"]) for o in b["out"]}
        for b in a.to_json_obj()["brackets"]
    }


def change_basis(dim, brackets, p):
    """Brackets in the basis f_b = sum_a p[a][b] e_a, by dense arithmetic."""
    c = dense_cube(dim, brackets)
    q = matrix_power(RationalMatrix(p), -1).entries
    out = {}
    for a, b in itertools.combinations(range(dim), 2):
        # [f_a, f_b] in e-coordinates, then in f-coordinates
        e = [
            sum(p[i][a] * p[j][b] * c[i][j][k] for i in range(dim) for j in range(dim))
            for k in range(dim)
        ]
        f = {d + 1: sum(q[d][k] * e[k] for k in range(dim)) for d in range(dim)}
        f = {d: v for d, v in f.items() if v}
        if f:
            out[a + 1, b + 1] = f
    return out


def random_basis(rng, dim):
    """A rational upper-triangular matrix with nonzero diagonal times a lower one."""
    vals = [Fraction(x, y) for x in range(-3, 4) for y in (1, 2, 3, 5)]
    upper = [[rng.choice(vals) if i < j else Fraction(0) for j in range(dim)] for i in range(dim)]
    lower = [[rng.choice(vals) if i > j else Fraction(0) for j in range(dim)] for i in range(dim)]
    for i in range(dim):
        upper[i][i] = rng.choice([v for v in vals if v])
        lower[i][i] = Fraction(1)
    return (RationalMatrix(upper) @ RationalMatrix(lower)).entries


def permute_and_rescale(rng, dim):
    """f_b = d_b e_pi(b): a permutation times a rational diagonal, which keeps the grading."""
    perm = rng.sample(range(dim), dim)
    scales = [Fraction(x, y) for x in (-3, -2, -1, 1, 2, 3) for y in (1, 2, 5)]
    return [[rng.choice(scales) if i == perm[j] else Fraction(0) for j in range(dim)] for i in range(dim)]


@st.composite
def algebras(draw, perturb=True):
    """(dim, brackets) of a battery algebra, sl2 or heis3 + fil4, possibly after a
    rational change of basis and a rational rescaling, then with up to four
    perturbations.  Each either rescales one basis vector, f_b = t e_b, which
    keeps the Jacobi identity, or overwrites one constant (any ordered pair,
    diagonal included), which usually breaks it."""
    _, a = draw(st.sampled_from(BASES))
    dim, brackets = a.dim, brackets_of(a)
    if dim <= 6 and draw(st.booleans()):
        brackets = change_basis(dim, brackets, random_basis(random.Random(draw(st.integers(0, 10**6))), dim))
    scale = draw(RATIONALS.filter(bool))
    brackets = {ij: {k: scale * v for k, v in out.items()} for ij, out in brackets.items()}
    if perturb and dim:
        index = st.integers(1, dim)
        for _ in range(draw(st.integers(0, 4))):
            if draw(st.booleans()):  # c'_ij^k = c_ij^k s_i s_j / s_k with s_b = t, every other s = 1
                b, t = draw(index), draw(RATIONALS.filter(bool))
                brackets = {
                    (i, j): {k: v * t ** ((i == b) + (j == b) - (k == b)) for k, v in out.items()}
                    for (i, j), out in brackets.items()
                }
            else:
                i, j, k = draw(index), draw(index), draw(index)
                brackets.setdefault((i, j), {})[k] = draw(RATIONALS)
    return dim, brackets


@st.composite
def sparse_rows(draw):
    """2 to 10 rows over n <= 12 columns, each with at most 2 nonzero entries."""
    n = draw(st.integers(1, 12))
    entry = st.dictionaries(st.integers(0, n - 1), st.integers(-3, 3).filter(bool), max_size=2)
    return n, draw(st.lists(entry, min_size=2, max_size=10))


# -- properties -----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(algebras(), st.data())
def test_validate_matches_dense_loops(case, data):
    # a perturbed table is refused with the violation the dense loops find first
    dim, brackets = case
    c = dense_cube(dim, brackets)
    try:
        a = LieAlgebra(dim, brackets)
    except InvalidLieAlgebraError as exc:
        assert exc.violation == dense_validate(c)
        return
    assert dense_validate(c) is None
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    assert all(a.bracket(units[i], units[j]) == tuple(c[i][j]) for i in range(dim) for j in range(dim))
    u, v = (data.draw(st.lists(RATIONALS, min_size=dim, max_size=dim)) for _ in range(2))
    dense = [sum(u[i] * v[j] * c[i][j][k] for i in range(dim) for j in range(dim)) for k in range(dim)]
    assert a.bracket(u, v) == tuple(dense)


def test_validate_reports_each_kind_of_violation():
    # one fixed case of each kind, whatever examples the property above draws
    cases = {
        "antisymmetry": (4, {(1, 2): {3: 1}, (2, 1): {3: -1, 4: Fraction(1, 2)}}),
        "diagonal": (3, {(2, 2): {3: Fraction(2, 3)}}),
        "jacobi": (4, {(1, 2): {3: Fraction(1, 2)}, (1, 3): {1: 1}, (2, 4): {4: 3}}),
    }
    for kind, (dim, brackets) in cases.items():
        with pytest.raises(InvalidLieAlgebraError) as exc:
            LieAlgebra(dim, brackets)
        assert exc.value.violation == dense_validate(dense_cube(dim, brackets)), kind


@settings(max_examples=40, deadline=None)
@given(algebras(perturb=False))
def test_ce_differential_matches_dense_reference(case):
    dim, brackets = case
    a = LieAlgebra(dim, brackets)
    c = dense_cube(dim, brackets)
    for i in range(dim + 1):
        assert ce_differential(a, i) == dense_ce_differential(c, i), i


def test_betti_numbers_survive_rational_changes_of_basis():
    rng = random.Random(20070)
    for name, a in BASES:
        if a.dim == 0:
            continue
        b = LieAlgebra(a.dim, change_basis(a.dim, brackets_of(a), random_basis(rng, a.dim)))
        if brackets_of(a):  # the change of basis made some constant non-integer and left only w = 0
            assert any(c.denominator > 1 for out in brackets_of(b).values() for c in out.values()), name
            assert weight_rank(b) == b.dim, name
        assert cohomology_dims(b) == cohomology_dims(a), name
        assert cohomology_dims(b).dims == full_matrix_dims(b) == ce_dims_reversed_basis(b), name


def test_weight_blocks_survive_permutation_and_rescaling():
    rng = random.Random(2007)
    for name, a in BASES:
        if a.dim == 0:
            continue
        b = LieAlgebra(a.dim, change_basis(a.dim, brackets_of(a), permute_and_rescale(rng, a.dim)))
        # the basis vectors are only relabelled and rescaled, so the nonzero pattern keeps its components
        assert component_counts(b) == component_counts(a), name
        assert cohomology_dims(b).dims == full_matrix_dims(b) == ce_dims_reversed_basis(b), name


def test_weightless_algebra_splits_into_components():
    # f_2 = e_1 + e_2 and f_6 = e_1 + e_6: a unimodular change of basis of filiform:6
    # that leaves only w = 0, yet d_1..d_4 each split into four components
    a = filiform(6)
    p = [[Fraction(int(i == j or (i, j) in ((0, 1), (0, 5)))) for j in range(6)] for i in range(6)]
    b = LieAlgebra(6, change_basis(6, brackets_of(a), p))
    assert weight_rank(b) == 6
    assert component_counts(b) == [0, 4, 4, 4, 4, 0]
    assert cohomology_dims(b) == cohomology_dims(a)
    assert cohomology_dims(b).dims == full_matrix_dims(b) == ce_dims_reversed_basis(b)


@settings(max_examples=300, deadline=None)
@given(algebras())
def test_is_nilpotent_matches_fraction_series(case):
    # a rescaled basis vector keeps the algebra and its nilpotency; an overwritten constant
    # is usually refused at construction, and the few that stay Lie algebras can change it
    try:
        a = LieAlgebra(*case)
    except InvalidLieAlgebraError:
        return
    assert is_nilpotent(a) == dense_is_nilpotent(a)


@settings(max_examples=25, deadline=None)
@given(algebras(perturb=False))
def test_weight_blocks_match_the_full_matrix(case):
    a = LieAlgebra(*case)
    assert cohomology_dims(a).dims == full_matrix_dims(a)


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([], 0),
        ([{}, {}], 0),  # zero rows join nothing
        ([{0: 1, 1: 2}, {0: 2, 1: 4}, {2: 3}, {3: 1, 4: 1}, {4: 1}], 4),  # blocks of rank 1, 1 and 2
        ([{0: 1, 1: 1}, {1: 1, 2: 1}, {2: 1, 3: 1}, {0: 1, 3: 1}], 3),  # a cycle through shared columns
        ([{0: 1}, {1: 1}, {0: 1, 1: 1}], 2),  # the last row joins two components
    ],
)
def test_component_rank_cases(rows, expected):
    assert _component_rank(_components(rows)) == expected


@settings(max_examples=100, deadline=None)
@given(sparse_rows())
def test_component_rank_matches_the_dense_rank(case):
    n, rows = case
    dense = [[row.get(c, 0) for c in range(n)] for row in rows]
    assert _component_rank(_components(rows)) == rank_kernel(IntMatrix(dense))[0]


def sum_or_refusal(direct, a, b):
    try:
        return direct(a, b)
    except PreconditionError as exc:
        return str(exc)


def test_direct_sum_matches_the_fraction_route():
    rational = LieAlgebra.from_json_obj(json.loads((INPUTS / "rational_algebra_dim8.json").read_text()))
    heis = catalog_algebra("heisenberg:1")
    seventh = LieAlgebra(3, {(1, 2): {3: Fraction(2, 7)}})  # 7 does not divide the dim-8 denominator
    too_big = (catalog_algebra("filiform:12"), catalog_algebra("abelian:1"))
    pairs = [(a, b) for (_, a), (_, b) in itertools.product(BASES, repeat=2)]
    pairs += [(rational, heis), (heis, rational), (rational, seventh), too_big]
    for a, b in pairs:
        ours = sum_or_refusal(direct_sum, a, b)
        assert ours == sum_or_refusal(fraction_direct_sum, a, b), (a.dim, b.dim)
        assert not isinstance(ours, LieAlgebra) or is_canonical(ours)
    assert direct_sum(rational, seventh)._den == 7 * rational._den
    assert sum_or_refusal(direct_sum, *too_big) == "dimension 13 must lie in 0..MAX_ALGEBRA_DIM = 12"
