"""Chevalley-Eilenberg cohomology of finite-dimensional Lie algebras.

A :class:`LieAlgebra` is given by rational structure constants
c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k.  Basis vectors are
numbered 1..dim on the public surface (constructor brackets, violation
reports, JSON), matching the usual mathematical notation; storage is 0-based.

The constants are stored once, as a sparse integer table: for each ordered
pair (i, j) the nonzero outputs k with their integer numerators over one
common denominator L, the lcm of the denominators of the constants.  One
writer, ``LieAlgebra._fill``, makes every table canonical (constructor, direct
sums, Carnot rebases), so equal algebras have equal tables.  The Jacobi check
and the CE differential work in plain ints over the nonzero entries only.

The differential on the dual exterior algebra is the standard one,

    (dw)(x_0, ..., x_i) =
        sum_{j<k} (-1)^(j+k) w([x_j, x_k], x_0, ..., ^x_j, ..., ^x_k, ...),

realized as an exact matrix in the basis of lexicographically ordered index
subsets: sparse integer rows scaled by L.  For the Betti numbers each d_i is
ranked one connected component of its nonzero pattern at a time; the same
rows over L give the full rational matrix.

A grading w_i + w_j = w_k splits those components by weight, but a change of
basis can hide it.  When the middle differential has a component of more than
CARNOT_GATE_ROWS rows, ``cohomology_dims`` looks for Carnot layers
g = V_1 + ... + V_s with [V_1, V_k] = V_(k+1) (``_carnot_rebase``, exact and
in integers, every step checked) and ranks the algebra in that basis; the
Betti numbers do not depend on it.  A nilpotent algebra that is not
stratifiable keeps its given basis.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

from .errors import InconsistencyError, InvalidLieAlgebraError, PreconditionError
from .linalg import (
    IntMatrix, RationalMatrix, _bareiss_echelon, _integer_inverse, exact_number, expect, num_to_str, read_int
)

__all__ = [
    "MAX_ALGEBRA_DIM",
    "LieAlgebra",
    "GradedDims",
    "Violation",
    "validate",
    "is_nilpotent",
    "ce_differential",
    "cohomology_dims",
    "abelian",
    "heisenberg",
    "filiform",
    "sl2",
    "direct_sum",
    "catalog_algebra",
    "nilpotent_battery",
]


# The constant table is sparse, but the CE complex has 2**dim basis forms (at 12 the
# largest differential is 924 x 792): 12 is the size the exact Betti numbers aim for.
MAX_ALGEBRA_DIM = 12

# cohomology_dims looks for Carnot layers only when the middle differential has a connected
# component of more rows than this.  The catalog bases up to dim 9 stay at 8 rows or fewer
# (filiform:9); a unimodular scramble of filiform:6 already reaches 16.
CARNOT_GATE_ROWS = 12


def _require_dim(dim: int) -> None:
    if not 0 <= dim <= MAX_ALGEBRA_DIM:
        raise PreconditionError(f"dimension {dim} must lie in 0..MAX_ALGEBRA_DIM = {MAX_ALGEBRA_DIM}")


@dataclass(frozen=True)
class Violation:
    """First failed structure-constant identity; indices are 1-based."""

    kind: str  # "antisymmetry" | "jacobi"
    indices: tuple[int, ...]

    def __str__(self):
        if self.kind == "antisymmetry":
            i, j, k = self.indices
            return f"antisymmetry violated at (i,j,k)=({i},{j},{k}): c[{i}][{j}][{k}] != -c[{j}][{i}][{k}]"
        i, j, k, l = self.indices
        return f"Jacobi identity violated at (i,j,k)=({i},{j},{k}), output coordinate {l}"


@dataclass(frozen=True)
class GradedDims:
    """Dimensions b^0..b^n of a graded vector space."""

    dims: tuple[int, ...]

    def __iter__(self):
        return iter(self.dims)

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** i * b for i, b in enumerate(self.dims))


class LieAlgebra:
    """Finite-dimensional Lie algebra over the rationals.

    ``brackets`` maps 1-based pairs (i, j) to {k: coefficient}; missing
    mirror pairs are filled in by antisymmetry.  Construction validates both
    antisymmetry and the Jacobi identity and raises
    :class:`InvalidLieAlgebraError` with the first :class:`Violation`, so
    every instance is a Lie algebra.
    """

    # _table[i][j]: ((k, numerator), ...) with k ascending and every numerator
    # nonzero, so c[i][j][k] = numerator / _den (0-based indices)
    __slots__ = ("dim", "_table", "_den")

    def __init__(self, dim: int, brackets=None):
        _require_dim(dim)
        c: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), out in (brackets or {}).items():
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise PreconditionError(f"bracket index ({i},{j}) out of range 1..{dim}")
            row = c.setdefault((i - 1, j - 1), {})
            for k, coeff in out.items():
                if not 1 <= k <= dim:
                    raise PreconditionError(f"bracket output index {k} out of range 1..{dim}")
                row[k - 1] = Fraction(coeff)
        den = lcm(*(v.denominator for row in c.values() for v in row.values()))
        self._fill(dim, {ij: [(k, v.numerator * den // v.denominator) for k, v in c[ij].items()] for ij in c}, den)

    @classmethod
    def _from_numerators(cls, dim: int, nums, den: int) -> "LieAlgebra":
        """The algebra with c[i][j][k] = num / den for each (k, num) in nums[i, j] (0-based); see ``_fill``."""
        a = object.__new__(cls)
        a._fill(dim, nums, den)
        return a

    def _fill(self, dim: int, nums, den: int) -> None:
        """The one writer of the table: check dim, fill each pair missing from ``nums`` by antisymmetry,
        divide out gcd(den, numerators), drop zeros, sort by k (the canonical form above) and validate."""
        _require_dim(dim)
        g = gcd(den, *(num for out in nums.values() for _, num in out))
        table = [[()] * dim for _ in range(dim)]
        for (i, j), out in nums.items():
            table[i][j] = row = tuple(sorted((k, num // g) for k, num in out if num))
            if (j, i) not in nums:
                table[j][i] = tuple((k, -num) for k, num in row)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_table", tuple(map(tuple, table)))
        object.__setattr__(self, "_den", den // g)
        if (v := validate(self)) is not None:
            raise InvalidLieAlgebraError(v)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    def bracket(self, u, v) -> tuple[Fraction, ...]:
        """Bracket of two coordinate vectors (0-based tuples).

        The main paths read the integer table directly; this stays as the
        public surface the reversed-basis oracle in ``verify`` is built on.
        """
        n = self.dim
        out = [Fraction(0)] * n
        for i in range(n):
            if not u[i]:
                continue
            for j in range(n):
                if not v[j]:
                    continue
                uv = u[i] * v[j]
                for k, num in self._table[i][j]:
                    out[k] += uv * num
        return tuple(x / self._den if x else x for x in out)

    def __eq__(self, other):
        return isinstance(other, LieAlgebra) and self._table == other._table and self._den == other._den

    def __hash__(self):
        return hash((self._den, self._table))

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim})"

    # -- serialization -----------------------------------------------------
    def to_json_obj(self) -> dict:
        brackets = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                out = [{"k": k + 1, "c": num_to_str(Fraction(num, self._den))} for k, num in self._table[i][j]]
                if out:
                    brackets.append({"i": i + 1, "j": j + 1, "out": out})
        return {"dim": self.dim, "brackets": brackets}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LieAlgebra":
        """The algebra of a JSON object; a pair (i, j), or an output k of one bracket, given twice is refused."""
        brackets, pairs = {}, {}
        for b in expect(obj.get("brackets", []), list, "'brackets'", each=dict):
            ij = read_int(b["i"], "bracket 'i'"), read_int(b["j"], "bracket 'j'")
            if ij in pairs:
                raise ValueError(f"bracket pairs {pairs[ij]} and {b['i'], b['j']} both name (i, j) = {ij}")
            pairs[ij] = b["i"], b["j"]
            out = brackets[ij] = {}
            outputs = {}
            for o in expect(b["out"], list, "bracket 'out'", each=dict):
                k = read_int(o["k"], "bracket output 'k'")
                if k in outputs:
                    raise ValueError(f"bracket {ij} outputs {outputs[k]!r} and {o['k']!r} both name k = {k}")
                outputs[k] = o["k"]
                out[k] = exact_number(o["c"], "bracket output 'c'")
        return cls(read_int(obj["dim"], "'dim'"), brackets)


def validate(a: LieAlgebra) -> Violation | None:
    """Check antisymmetry then Jacobi; return the first violation, or None.

    Antisymmetry is scanned over (i, j >= i, k), then Jacobi over
    (i < j < k, output l); the first failure in that order is reported.  The
    Jacobi sums run over the nonzero numerators, so they are L^2 times the
    rational sums.
    """
    n, t = a.dim, a._table
    for i in range(n):
        for j in range(i, n):
            if t[i][j] != tuple((k, -num) for k, num in t[j][i]):
                mine, mirror = dict(t[i][j]), dict(t[j][i])
                k = min(k for k in mine.keys() | mirror.keys() if mine.get(k, 0) != -mirror.get(k, 0))
                return Violation("antisymmetry", (i + 1, j + 1, k + 1))
    for i, j, k in itertools.combinations(range(n), 3):
        s: dict[int, int] = {}
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c_yz in t[y][z]:
                for l, c_xm in t[x][m]:
                    s[l] = s.get(l, 0) + c_yz * c_xm
        bad = [l for l, total in s.items() if total]
        if bad:
            return Violation("jacobi", (i + 1, j + 1, k + 1, min(bad) + 1))
    return None


def _brackets(t, left, right):
    """L [e_i, v] for each i in ``left`` and each integer row v of ``right``, summed from the table."""
    n = len(t)
    for i in left:
        ti = t[i]
        for v in right:
            out = [0] * n
            for tij, vj in zip(ti, v):
                if vj:
                    for k, num in tij:
                        out[k] += vj * num
            yield out


def _span(vectors) -> tuple[list[list[int]], list[int]]:
    """A basis of the span of integer rows, and its pivot columns.

    The basis is the nonzero rows of the forward-only Bareiss echelon, each
    divided by its content (the gcd of its entries).
    """
    rows, pivots, _ = _bareiss_echelon([v for v in vectors if any(v)])
    return [[x // g for x in row] for row in rows[: len(pivots)] for g in [gcd(*row)]], pivots


def _derived(a: LieAlgebra) -> tuple[list[list[int]], list[int]]:
    """[g, g]: the ``_span`` of the table rows L [e_i, e_j], i < j."""
    n, t = a.dim, a._table
    rows = []
    for i, j in itertools.combinations(range(n), 2):
        if t[i][j]:
            row = [0] * n
            for k, num in t[i][j]:
                row[k] = num
            rows.append(row)
    return _span(rows)


def is_nilpotent(a: LieAlgebra) -> bool:
    """Lower central series test: g_1 = g, g_(m+1) = [g, g_m].

    g_2 = [g, g] is ``_derived``; each later g_m is spanned by the integer
    rows of the ``_span`` of the brackets of every basis vector with the rows
    of g_(m-1).  The series must reach zero.
    """
    n = a.dim
    current, _ = _derived(a)
    while current:
        nxt, _ = _span(_brackets(a._table, range(n), current))
        if len(nxt) == len(current):
            return False  # series stabilized above zero
        current = nxt
    return True


def _ce_rows(a: LieAlgebra, i: int) -> list[dict[int, int]]:
    """L times the matrix of d: Lambda^i -> Lambda^(i+1), as sparse integer rows.

    One {column: nonzero entry} dict per (i+1)-subset, the rows and the
    i-subset columns both in lexicographic order.  Row T collects, for each
    pair of positions pj < pk and each nonzero [e_T[pj], e_T[pk]] output m
    outside the rest of T, the sign (-1)^(pj+pk) times the sign of inserting m
    into that rest.
    """
    n, t = a.dim, a._table
    col = {s: c for c, s in enumerate(itertools.combinations(range(n), i))}
    pairs = list(itertools.combinations(range(i + 1), 2))
    out = []
    for T in itertools.combinations(range(n), i + 1):
        row: dict[int, int] = {}
        for pj, pk in pairs:
            brk = t[T[pj]][T[pk]]
            if not brk:
                continue
            rest = T[:pj] + T[pj + 1 : pk] + T[pk + 1 :]
            for m, num in brk:
                p = bisect_left(rest, m)
                if p < len(rest) and rest[p] == m:
                    continue
                c = col[rest[:p] + (m,) + rest[p:]]
                row[c] = row.get(c, 0) + (num if (pj + pk + p) % 2 == 0 else -num)
        out.append({c: x for c, x in row.items() if x})
    return out


def ce_differential(a: LieAlgebra, i: int) -> RationalMatrix:
    """Matrix of d: Lambda^i -> Lambda^(i+1) in the lex subset bases.

    Shape C(n, i+1) x C(n, i); columns index i-subsets, rows (i+1)-subsets.
    ``cohomology_dims`` ranks the connected components of the sparse integer
    rows instead, and ``verify`` composes those rows for its d.d = 0 check.
    """
    n = a.dim
    if not 0 <= i <= n:
        raise PreconditionError(f"degree {i} out of range 0..{n}")
    cols = range(comb(n, i))
    return RationalMatrix([[Fraction(row.get(c, 0), a._den) for c in cols] for row in _ce_rows(a, i)])


def _components(rows: list[dict[int, int]]) -> list[list[dict[int, int]]]:
    """The nonzero rows of a sparse matrix, grouped into the connected components of its pattern.

    Rows that share a column are joined, so no nonzero entry lies between two
    components and the matrix is block-diagonal over them up to a permutation
    of rows and columns.
    """
    parent: dict[int, int] = {}

    def root(c: int) -> int:
        while parent.setdefault(c, c) != c:
            parent[c] = c = parent[parent[c]]
        return c

    rows = [row for row in rows if row]
    for row in rows:
        first, *rest = row
        r = root(first)
        for c in rest:
            parent[root(c)] = r
    components: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        components.setdefault(root(next(iter(row))), []).append(row)
    return list(components.values())


def _component_rank(components: list[list[dict[int, int]]]) -> int:
    """Rank of a sparse matrix: the sum of the ranks of its connected ``_components``.

    A one-row component has rank 1; larger ones are densified on their own
    columns and ranked by forward-only elimination.
    """
    total = 0
    for comp in components:
        if len(comp) == 1:
            total += 1
        else:
            cols = sorted(set().union(*comp))
            total += len(_bareiss_echelon([[row.get(c, 0) for c in cols] for row in comp])[1])
    return total


def _carnot_rebase(a: LieAlgebra) -> LieAlgebra | None:
    """``a`` in a basis adapted to Carnot layers g = V_1 + ... + V_s, or None if this cheap try fails.

    V_1 is spanned by the given basis vectors off the pivot columns of
    [g, g] (``_derived``), and V_(k+1) by the ``_span`` of the ``_brackets``
    [V_1, V_k].  The layers must stack to n integer rows b_1..b_n of full
    rank.  Each [b_i, b_j] is expressed in them through the exact inverse,
    and every nonzero constant c_ij^k must have w_i + w_j = w_k, w being the
    layer index: then the new basis grades the algebra and the CE components
    split by weight again.  A nilpotent algebra that is not stratifiable, or
    a central direction outside [g, g] that mixes with it, fails one of
    these checks.  The rebased table is validated once more; since it comes
    from a checked basis, a failure there is a defect of this function and
    raises :class:`InconsistencyError`.
    """
    n, t = a.dim, a._table
    _, derived = _derived(a)
    first = [c for c in range(n) if c not in derived]
    layers = [[[int(i == c) for i in range(n)] for c in first]]
    total = len(first)
    while total < n:
        nxt, _ = _span(_brackets(t, first, layers[-1]))
        if not nxt:
            break
        layers.append(nxt)
        total += len(nxt)
    if total != n:
        return None
    basis = [b for layer in layers for b in layer]
    weight = [w for w, layer in enumerate(layers, 1) for _ in layer]
    try:
        inverse, d = _integer_inverse(IntMatrix(basis))  # d B^-1; x in e-coordinates is x B^-1 in the b_k
    except PreconditionError:
        return None
    columns = list(zip(*inverse))
    around = list(_brackets(t, range(n), basis))  # around[m * n + j] = L [e_m, b_j]
    nums = {}  # (i, j) -> ((k, d L c_ij^k), ...) in the new basis, i < j
    for i, j in itertools.combinations(range(n), 2):
        x = [0] * n  # L [b_i, b_j] in e-coordinates
        for m, bim in enumerate(basis[i]):
            if bim:
                x = [u + bim * v for u, v in zip(x, around[m * n + j])]
        out = tuple((k, num) for k, col in enumerate(columns) for num in [sum(map(mul, x, col))] if num)
        if any(weight[i] + weight[j] != weight[k] for k, _ in out):
            return None
        nums[i, j] = out
    try:
        return LieAlgebra._from_numerators(n, nums, d * a._den)
    except InvalidLieAlgebraError as exc:
        raise InconsistencyError(f"the Carnot layers of a Lie algebra gave no Lie algebra: {exc}") from exc


def cohomology_dims(a: LieAlgebra) -> GradedDims:
    """Betti numbers b^i = dim ker d_i - rank d_(i-1) of the CE complex.

    Each rank is the sum over the connected components of the nonzero
    pattern of d_i (``_component_rank`` on the rows of ``_ce_rows``).  A
    grading splits d_i at least as finely: if w_i + w_j = w_k for every
    nonzero c_ij^k, an entry joins only subsets of equal total weight.  A
    change of basis can hide the grading and leave one dense component per
    degree.  So d_i is split at the middle degree i = (n-1)//2 first; if its
    largest component has more than CARNOT_GATE_ROWS rows, the algebra is
    ranked in the basis of ``_carnot_rebase`` when that succeeds.  The Betti
    numbers over Q do not depend on the basis.  Otherwise, and whenever the
    rebase fails, the given basis is ranked, reusing the middle components.
    """
    n = a.dim
    mid = (n - 1) // 2
    middle = _components(_ce_rows(a, mid)) if n else []
    if max(map(len, middle), default=0) > CARNOT_GATE_ROWS:
        graded = _carnot_rebase(a)
        if graded is not None:
            a, middle = graded, _components(_ce_rows(graded, mid))
    ranks = [_component_rank(middle if i == mid else _components(_ce_rows(a, i))) for i in range(n)] + [0]
    return GradedDims(tuple(comb(n, i) - ranks[i] - (ranks[i - 1] if i else 0) for i in range(n + 1)))


# -- standard presentations ------------------------------------------------


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, {})


def heisenberg(m: int = 1) -> LieAlgebra:
    """Heisenberg algebra of dimension 2m+1: [e_(2i-1), e_(2i)] = e_(2m+1)."""
    dim = 2 * m + 1
    _require_dim(dim)
    return LieAlgebra(dim, {(2 * i - 1, 2 * i): {dim: 1} for i in range(1, m + 1)})


def filiform(n: int) -> LieAlgebra:
    """Standard filiform algebra L_n: [e_1, e_j] = e_(j+1), j = 2..n-1."""
    if n < 3:
        raise PreconditionError("filiform algebra needs dimension >= 3")
    _require_dim(n)
    return LieAlgebra(n, {(1, j): {j + 1: 1} for j in range(2, n)})


def sl2() -> LieAlgebra:
    """sl(2) with basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return LieAlgebra(3, {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}})


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """a on the first a.dim basis vectors, b on the rest: both tables over lcm(a._den, b._den)."""
    den = lcm(a._den, b._den)
    nums = {
        (s + i, s + j): [(s + k, num * den // x._den) for k, num in out]
        for s, x in ((0, a), (a.dim, b)) for i, row in enumerate(x._table) for j, out in enumerate(row)
    }
    return LieAlgebra._from_numerators(a.dim + b.dim, nums, den)


# name -> (constructor, the name of its argument or "" if it takes none, the argument of a bare name)
_CATALOG = {
    "abelian": (abelian, "n", ""),
    "filiform": (filiform, "n", ""),
    "heisenberg": (heisenberg, "m", "1"),
    "sl2": (sl2, "", ""),
}


def catalog_algebra(spec: str) -> LieAlgebra:
    """The algebra named by ``spec``: ``name`` or ``name:n`` from _CATALOG, or
    such summands joined by ``+`` for their direct sum, e.g. ``heisenberg:1+abelian:2``.
    A bare ``heisenberg`` is m = 1; ``sl2`` takes no argument."""
    summands = []
    for part in spec.split("+"):
        name, colon, arg = part.strip().partition(":")
        if name not in _CATALOG:
            raise ValueError(
                f"algebra {spec!r}: {name!r} is not a catalog name ({', '.join(sorted(_CATALOG))}; "
                "':n' gives a dimension argument, '+' joins summands)"
            )
        make, param, bare = _CATALOG[name]
        if colon and not param:
            raise ValueError(f"algebra {spec!r}: {name} takes no argument")
        what = f"algebra {spec!r}: the {param} of {name}:{param}"
        summands.append(make(read_int(arg if colon else bare, what)) if param else make())
    return functools.reduce(direct_sum, summands)


def nilpotent_battery() -> tuple[str, ...]:
    """Catalog specs of the nilpotent algebras of dimension <= 6 used by the cross checks."""
    return (
        "abelian:1",
        "abelian:2",
        "abelian:3",
        "heisenberg:1",
        "heisenberg:2",
        "filiform:4",
        "filiform:5",
        "filiform:6",
        "heisenberg:1+abelian:1",
        "heisenberg:1+abelian:3",
        "heisenberg:1+heisenberg:1",
    )
