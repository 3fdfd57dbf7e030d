"""Chevalley-Eilenberg cohomology of finite-dimensional Lie algebras.

A :class:`LieAlgebra` is given by rational structure constants
c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k.  Basis vectors are
numbered 1..dim on the public surface (constructor brackets, violation
reports, JSON), matching the usual mathematical notation; storage is 0-based.

The differential on the dual exterior algebra is the standard one,

    (dw)(x_0, ..., x_i) =
        sum_{j<k} (-1)^(j+k) w([x_j, x_k], x_0, ..., ^x_j, ..., ^x_k, ...),

realized as an exact rational matrix in the basis of lexicographically
ordered index subsets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import InvalidLieAlgebraError, PreconditionError
from .linalg import RationalMatrix, expect, rank_kernel, rat_from_str, rat_to_str, read_int, row_space_basis

__all__ = [
    "MAX_ALGEBRA_DIM",
    "LieAlgebra",
    "GradedDims",
    "Violation",
    "validate",
    "is_nilpotent",
    "Nilpotency",
    "ce_differential",
    "cohomology_dims",
    "abelian",
    "heisenberg",
    "filiform",
    "sl2",
    "direct_sum",
    "nilpotent_battery",
]


# dim**3 structure constants, 2**dim CE basis forms: 12 is the size the exact Betti numbers aim for.
MAX_ALGEBRA_DIM = 12


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

    def __getitem__(self, i):
        return self.dims[i]

    def __len__(self):
        return len(self.dims)

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** i * b for i, b in enumerate(self.dims))


class LieAlgebra:
    """Finite-dimensional Lie algebra over the rationals.

    ``brackets`` maps 1-based pairs (i, j) to {k: coefficient}; missing
    mirror pairs are filled in by antisymmetry.  Construction validates both
    antisymmetry and the Jacobi identity unless ``check=False`` (useful only
    to build deliberately broken inputs for :func:`validate`).
    """

    __slots__ = ("dim", "_c")

    def __init__(self, dim: int, brackets=None, check: bool = True):
        if not 0 <= dim <= MAX_ALGEBRA_DIM:
            raise PreconditionError(f"dimension {dim} must lie in 0..MAX_ALGEBRA_DIM = {MAX_ALGEBRA_DIM}")
        c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        seen = set()
        for (i, j), out in (brackets or {}).items():
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise PreconditionError(f"bracket index ({i},{j}) out of range 1..{dim}")
            seen.add((i - 1, j - 1))
            for k, coeff in out.items():
                if not 1 <= k <= dim:
                    raise PreconditionError(f"bracket output index {k} out of range 1..{dim}")
                c[i - 1][j - 1][k - 1] = Fraction(coeff)
        for i in range(dim):
            for j in range(dim):
                if (i, j) in seen and (j, i) not in seen:
                    for k in range(dim):
                        c[j][i][k] = -c[i][j][k]
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_c", tuple(tuple(tuple(row) for row in plane) for plane in c))
        if check:
            v = validate(self)
            if v is not None:
                raise InvalidLieAlgebraError(v)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    def structure_constant(self, i: int, j: int, k: int) -> Fraction:
        """c[i][j][k] with 1-based indices."""
        return self._c[i - 1][j - 1][k - 1]

    def bracket(self, u, v) -> tuple[Fraction, ...]:
        """Bracket of two coordinate vectors (0-based tuples)."""
        n = self.dim
        out = [Fraction(0)] * n
        for i in range(n):
            if not u[i]:
                continue
            for j in range(n):
                if not v[j]:
                    continue
                uv = u[i] * v[j]
                for k in range(n):
                    if self._c[i][j][k]:
                        out[k] += uv * self._c[i][j][k]
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, LieAlgebra) and self._c == other._c and self.dim == other.dim

    def __hash__(self):
        return hash((self.dim, self._c))

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim})"

    # -- serialization -----------------------------------------------------
    def to_json_obj(self) -> dict:
        brackets = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                out = [
                    {"k": k + 1, "c": rat_to_str(self._c[i][j][k])}
                    for k in range(self.dim)
                    if self._c[i][j][k]
                ]
                if out:
                    brackets.append({"i": i + 1, "j": j + 1, "out": out})
        return {"dim": self.dim, "brackets": brackets}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LieAlgebra":
        brackets = {}
        for b in expect(obj.get("brackets", []), list, "'brackets'", each=dict):
            out = brackets[read_int(b["i"], "bracket 'i'"), read_int(b["j"], "bracket 'j'")] = {}
            for o in expect(b["out"], list, "bracket 'out'", each=dict):
                out[read_int(o["k"], "bracket output 'k'")] = rat_from_str(str(o["c"]))
        return cls(read_int(obj["dim"], "'dim'"), brackets)


def validate(a: LieAlgebra) -> Violation | None:
    """Check antisymmetry then Jacobi; return the first violation, or None."""
    n = a.dim
    c = a._c
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


@dataclass(frozen=True)
class Nilpotency:
    nilpotent: bool
    step: int | None  # smallest s with g^(s+1) = 0; None when not nilpotent


def is_nilpotent(a: LieAlgebra) -> Nilpotency:
    """Lower central series test: g_1 = g, g_(m+1) = [g, g_m]."""
    n = a.dim
    if n == 0:
        return Nilpotency(True, 0)
    full = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    current = full
    step = 0
    while current:
        step += 1
        brackets = (a.bracket(x, y) for x in full for y in current)
        nxt = row_space_basis(RationalMatrix([v for v in brackets if any(v)]))
        if len(nxt) == len(current):
            return Nilpotency(False, None)  # series stabilized above zero
        current = nxt
    return Nilpotency(True, step)


def _subset_index(n: int, degree: int):
    subsets = list(itertools.combinations(range(n), degree))
    return subsets, {s: i for i, s in enumerate(subsets)}


def ce_differential(a: LieAlgebra, i: int) -> RationalMatrix:
    """Matrix of d: Lambda^i -> Lambda^(i+1) in the lex subset bases.

    Shape C(n, i+1) x C(n, i); columns index i-subsets, rows (i+1)-subsets.
    """
    n = a.dim
    if not 0 <= i <= n:
        raise PreconditionError(f"degree {i} out of range 0..{n}")
    cols, col_of = _subset_index(n, i)
    rows, row_of = _subset_index(n, i + 1)
    m = [[Fraction(0)] * len(cols) for _ in rows]
    for r, T in enumerate(rows):
        for pj, pk in itertools.combinations(range(i + 1), 2):
            rest = tuple(t for p, t in enumerate(T) if p not in (pj, pk))
            rest_set = set(rest)
            pair_sign = (-1) ** (pj + pk)
            for mm in range(n):
                coeff = a._c[T[pj]][T[pk]][mm]
                if not coeff or mm in rest_set:
                    continue
                S = tuple(sorted((mm,) + rest))
                if S not in col_of:
                    continue
                insert_sign = (-1) ** sum(1 for x in rest if x < mm)
                m[r][col_of[S]] += pair_sign * insert_sign * coeff
    return RationalMatrix(m)


def cohomology_dims(a: LieAlgebra) -> GradedDims:
    """Betti numbers b^i = dim ker d_i - rank d_(i-1) of the CE complex."""
    v = validate(a)
    if v is not None:
        raise InvalidLieAlgebraError(v)
    n = a.dim
    if n == 0:
        return GradedDims((1,))
    ranks = [rank_kernel(ce_differential(a, i))[0] for i in range(n + 1)]
    dims = []
    for i in range(n + 1):
        below = ranks[i - 1] if i > 0 else 0
        dims.append(comb(n, i) - ranks[i] - below)
    return GradedDims(tuple(dims))


# -- standard presentations ------------------------------------------------


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, {})


def heisenberg(m: int = 1) -> LieAlgebra:
    """Heisenberg algebra of dimension 2m+1: [e_(2i-1), e_(2i)] = e_(2m+1)."""
    dim = 2 * m + 1
    return LieAlgebra(dim, {(2 * i - 1, 2 * i): {dim: 1} for i in range(1, m + 1)})


def filiform(n: int) -> LieAlgebra:
    """Standard filiform algebra L_n: [e_1, e_j] = e_(j+1), j = 2..n-1."""
    if n < 3:
        raise PreconditionError("filiform algebra needs dimension >= 3")
    return LieAlgebra(n, {(1, j): {j + 1: 1} for j in range(2, n)})


def sl2() -> LieAlgebra:
    """sl(2) with basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return LieAlgebra(3, {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}})


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    n, m = a.dim, b.dim
    brackets = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out = {k: a.structure_constant(i, j, k) for k in range(1, n + 1)
                   if a.structure_constant(i, j, k)}
            if out:
                brackets[(i, j)] = out
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            out = {n + k: b.structure_constant(i, j, k) for k in range(1, m + 1)
                   if b.structure_constant(i, j, k)}
            if out:
                brackets[(n + i, n + j)] = out
    return LieAlgebra(n + m, brackets)


def nilpotent_battery() -> list[tuple[str, LieAlgebra]]:
    """Named nilpotent algebras of dimension <= 6 used by the cross checks."""
    return [
        ("abelian1", abelian(1)),
        ("abelian2", abelian(2)),
        ("abelian3", abelian(3)),
        ("heisenberg3", heisenberg(1)),
        ("heisenberg5", heisenberg(2)),
        ("filiform4", filiform(4)),
        ("filiform5", filiform(5)),
        ("filiform6", filiform(6)),
        ("heis3+ab1", direct_sum(heisenberg(1), abelian(1))),
        ("heis3+ab3", direct_sum(heisenberg(1), abelian(3))),
        ("heis3+heis3", direct_sum(heisenberg(1), heisenberg(1))),
    ]
