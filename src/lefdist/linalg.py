"""Exact rational and integer linear algebra.

Everything here is arbitrary precision: matrices hold ``fractions.Fraction``
or Python ``int`` entries, stored row-major in immutable tuples.  Every
integer routine reads a matrix in one integer form, ``_integer_entries``:
integer rows over d, the lcm of the denominators (d = 1 for an IntMatrix).
One forward-only fraction-free (Bareiss) elimination loop on integer rows
serves every exact solve, and keeps intermediate entries at minor-determinant
size: ranks and ``determinant`` read its pivots, while ``rank_kernel`` and
inverses add one fraction-free back substitution on its echelon.  One Smith
loop serves the Smith invariants and the column transform that parametrizes
A x = 0 mod Z^n.  ``powers(m, n)`` walks m^1..m^n with one product per step;
a k-series of det(I - M^k) or of tr M^k needs no power at all: ``det_series``
and ``_trace_series`` read it, one k at a time, from the power sums of the
characteristic polynomial of M by Newton's identities.  A product multiplies
the integer forms of its operands, and each entry of the result is one ``Fraction``.

The wire format lives here: ``to_number``, ``exact_number``, ``read_int`` and ``to_float`` read
every input number, and ``num_to_str`` writes every output number, each part of at most
``MAX_PRINTED_DIGITS`` decimal digits: rationals as ``"p/q"``
strings (``"p"`` when q = 1), floats as ``"~<repr>"``, matrices as arrays of such strings.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from math import isfinite, lcm
from operator import matmul, mul

from .errors import InconsistencyError, PreconditionError

__all__ = [
    "RationalMatrix",
    "IntMatrix",
    "MAX_DECIMAL_EXPONENT",
    "MAX_PRINTED_DIGITS",
    "to_number",
    "exact_number",
    "require_printable",
    "read_int",
    "to_float",
    "expect",
    "num_to_str",
    "rank_kernel",
    "determinant",
    "smith_normal_form",
    "smith_transform",
    "matrix_power",
    "powers",
    "exterior_power",
    "charpoly",
    "det_series",
]

# Fraction("1e999999999") would build 10**999999999; no float is above 1e309.
MAX_DECIMAL_EXPONENT = 1000

# Python's default limit on str(int): no output number has a numerator or denominator of more
# decimal digits.  The sign is not a digit.
MAX_PRINTED_DIGITS = sys.int_info.default_max_str_digits
_PRINTED_BOUND = 10**MAX_PRINTED_DIGITS


Number = Fraction | float


def to_number(x, what: str = "a number") -> Number:
    """The one number reader: int, Fraction, float, "p/q" or "~<decimal>" to an exact
    Fraction or a finite float; bool, NaN, +-inf and the rest raise ValueError naming ``what``."""
    if isinstance(x, str):
        s = x.strip()
        _, e, exp = s.lower().rpartition("e")
        digits = exp.lstrip("+-").replace("_", "").lstrip("0")
        if not s.startswith("~") and e and digits.isdecimal() and (  # well formed, but past the cap: say so
            len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits) > MAX_DECIMAL_EXPONENT
        ):
            raise ValueError(f"{what}: the exponent of {s!r:.40} exceeds MAX_DECIMAL_EXPONENT = {MAX_DECIMAL_EXPONENT}")
        try:
            x = float(s[1:]) if s.startswith("~") else Fraction(s)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{what} must be 'p/q' or '~<decimal>', got {x!r:.40}") from None
    if isinstance(x, Fraction) or isinstance(x, float) and isfinite(x):
        return x
    if type(x) is int:
        return Fraction(x)
    raise ValueError(f"{what} must be a finite number, got {x!r:.40}")


def exact_number(x, what: str) -> Fraction:
    """``to_number`` for an exact field: a JSON float reads as its decimal (0.1 is 1/10), "~..." raises."""
    y = to_number(x, what)
    if isinstance(y, float) and isinstance(x, str):
        raise ValueError(f"{what} must be exact, not {x!r:.40}")
    return Fraction(repr(y)) if isinstance(y, float) else y  # a float's exponent is at most 308


def num_to_str(x: Number | int) -> str:
    """The one number writer: "p/q" ("p" when q = 1) for an int or Fraction, "~<repr>" for a float."""
    if isinstance(x, float):
        return f"~{x!r}"
    require_printable(x, "an output number")
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def require_printable(x: Fraction | int, what: str):
    """``x`` if ``num_to_str`` can write it; a PreconditionError naming ``what`` and MAX_PRINTED_DIGITS
    when its numerator or denominator has more decimal digits than that."""
    if abs(x.numerator) >= _PRINTED_BOUND or x.denominator >= _PRINTED_BOUND:
        raise PreconditionError(f"{what} has more than MAX_PRINTED_DIGITS = {MAX_PRINTED_DIGITS} decimal digits")
    return x


def read_int(x, what: str) -> int:
    """A JSON integer or an integer string; bool, null, 2.5, "1_0", "+-1" and "x" raise ValueError."""
    s = x.strip() if isinstance(x, str) else ""
    if type(x) is int or (s[1:] if s[:1] in ("+", "-") else s).isdecimal():
        return int(x)
    raise ValueError(f"{what} must be an integer, got {x!r:.40}")


def to_float(x, what: str) -> float:
    """``to_number`` as a float; a number past the float range is a ValueError naming ``what``."""
    y = to_number(x, what)
    try:
        return float(y)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float, got {x!r:.40}") from None


def expect(value, kind: type, what: str, each: type | None = None):
    """``value`` if it is a ``kind`` (list, dict, str or bool) whose elements are all ``each``
    when that is given; otherwise a ValueError naming ``what``."""
    if not isinstance(value, kind) or each and not all(isinstance(v, each) for v in value):
        names = {list: "array", dict: "object", str: "string", bool: "boolean"}
        shape = names[kind] + (f" of {names[each]}s" if each else "")
        raise ValueError(f"{what} must be a JSON {shape}, got {value!r:.40}")
    return value


class _Matrix:
    """Shared immutable row-major matrix container."""

    __slots__ = ("rows", "cols", "entries")

    _coerce = staticmethod(lambda x: x)

    def __init__(self, entries):
        rows = tuple(tuple(self._coerce(e) for e in row) for row in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise PreconditionError("matrix rows must all have the same length")
        self._set_rows(rows)

    @classmethod
    def _of_rows(cls, rows: tuple):
        """A matrix of ``rows``, a tuple of equal-length tuples of the ring's entries, taken as they
        are: no coercion and no shape check.  Only ring results that are built right come here."""
        m = object.__new__(cls)
        m._set_rows(rows)
        return m

    def _set_rows(self, rows: tuple):
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]) if rows else 0)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- construction -----------------------------------------------------
    @classmethod
    def identity(cls, n: int):
        one, zero = cls._coerce(1), cls._coerce(0)
        return cls._of_rows(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    # -- basic queries -----------------------------------------------------
    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def __eq__(self, other):
        return type(self) is type(other) and self.entries == other.entries

    def __hash__(self):
        return hash((type(self).__name__, self.entries))

    def __repr__(self):
        body = ", ".join("[" + ", ".join(map(str, r)) + "]" for r in self.entries)
        return f"{type(self).__name__}([{body}])"

    # -- arithmetic --------------------------------------------------------
    def _ring(self, other) -> type:
        """The one ring rule: a result is an IntMatrix when both operands are, else a RationalMatrix."""
        return IntMatrix if isinstance(self, IntMatrix) and isinstance(other, IntMatrix) else RationalMatrix

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise PreconditionError("matrix shapes do not match")
        rows = tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries))
        return IntMatrix._of_rows(rows) if self._ring(other) is IntMatrix else RationalMatrix(rows)

    def __matmul__(self, other):
        """(A / a)(B / b) = AB / (ab): one integer product over the two common denominators."""
        if self.cols != other.rows:
            raise PreconditionError("matrix product requires cols(A) = rows(B)")
        (a, da), (b, db) = _integer_entries(self), _integer_entries(other)
        bt = list(zip(*b))
        ab = tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)
        if self._ring(other) is IntMatrix:
            return IntMatrix._of_rows(ab)
        d = da * db
        return RationalMatrix([[Fraction(x, d) for x in row] for row in ab])

    def trace(self):
        if not self.is_square:
            raise PreconditionError("trace requires a square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), self._coerce(0))

    # -- serialization -----------------------------------------------------
    def to_json_obj(self):
        return [[num_to_str(e) for e in row] for row in self.entries]

    @classmethod
    def from_json_obj(cls, obj, what: str = "a matrix"):
        entries = [[exact_number(e, f"{what} entry") for e in row] for row in expect(obj, list, what, each=list)]
        try:
            return cls(entries)
        except PreconditionError as exc:  # ragged rows, or an entry the ring refuses
            raise PreconditionError(f"{what}: {exc}") from None


class RationalMatrix(_Matrix):
    """Matrix over the rationals, entries are ``Fraction``."""

    _coerce = staticmethod(Fraction)


class IntMatrix(_Matrix):
    """Matrix over the integers, arbitrary precision."""

    @staticmethod
    def _coerce(x):
        """An int (not a bool) or an integral Fraction; anything else raises, never truncates."""
        if type(x) is int:  # ahead of isinstance(x, Fraction), which is slow on an int
            return x
        if isinstance(x, Fraction) and x.denominator == 1:
            return x.numerator
        raise PreconditionError(f"IntMatrix entries must be integers, got {x!r:.40}")


def _integer_entries(m: _Matrix) -> tuple:
    """Integer rows and a denominator d with m = rows / d: d = 1 for an IntMatrix, else the lcm of m's denominators."""
    if isinstance(m, IntMatrix):
        return m.entries, 1
    d = lcm(*(e.denominator for row in m.entries for e in row))
    return [[e.numerator * (d // e.denominator) for e in row] for row in m.entries], d


def _bareiss_echelon(rows) -> tuple[list[list[int]], list[int], int]:
    """Forward-only fraction-free (Bareiss) elimination of integer rows.

    Each step updates the rows below the pivot as (piv*x - f*y) // prev; the
    divisions are exact by the Bareiss identity.  At the end the rows past
    the rank are zero, and pivot row r has its first nonzero entry in column
    pivots[r]: the minor of the given rows on pivot rows and columns 0..r.
    So the last one of a nonsingular square matrix is its determinant up to
    the swap sign.  The given rows are copied, never changed.

    Returns (rows, pivot columns, sign of the row swaps).
    """
    rows = [list(row) for row in rows]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        piv = rows[r][c]
        # below the pivot every column left of c is already zero
        tail = rows[r][c:]
        for i in range(r + 1, nr):
            row = rows[i]
            f = row[c]
            if f or piv != prev:
                row[c:] = [(piv * x - f * y) // prev for x, y in zip(row[c:], tail)]
        prev = piv
        pivots.append(c)
        r += 1
    return rows, pivots, sign


def determinant(m: RationalMatrix | IntMatrix):
    """Exact determinant, the last pivot of the Bareiss elimination.

    Returns ``int`` for an IntMatrix, ``Fraction`` for a RationalMatrix.
    """
    if not m.is_square:
        raise PreconditionError("determinant requires a square matrix")
    n = m.rows
    if n == 0:
        return 1 if isinstance(m, IntMatrix) else Fraction(1)
    a, d = _integer_entries(m)
    rows, pivots, sign = _bareiss_echelon(a)
    det = sign * rows[n - 1][n - 1] if len(pivots) == n else 0
    return det if isinstance(m, IntMatrix) else Fraction(det, d**n)


def _kernel(rows) -> tuple[list[int], int, list[list[int]]]:
    """Pivot columns, the last pivot d, and d times the kernel basis vector of each free column of integer rows.

    Back substitution on the Bareiss echelon, bottom up: d y_c = -(sum_j row[j] d y_j) // row[c]
    is exact by Cramer's rule on the pivot block, whose determinant is +-d.
    """
    rows, pivots, _ = _bareiss_echelon(rows)
    nc = len(rows[0]) if rows else 0
    d = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    bottom_up = list(zip(reversed(rows[: len(pivots)]), reversed(pivots)))
    basis = []
    for f in [c for c in range(nc) if c not in pivots]:
        y = [0] * nc
        y[f] = d
        for row, c in bottom_up:
            # row is zero left of c, and y is still zero at c
            y[c] = -sum(map(mul, row, y)) // row[c]
        basis.append(y)
    return pivots, d, basis


def rank_kernel(m: RationalMatrix | IntMatrix) -> tuple[int, list[tuple[Fraction, ...]]]:
    """Rank and the exact right kernel basis with one free variable set to 1 in each vector."""
    pivots, d, basis = _kernel(_integer_entries(m)[0])
    return len(pivots), [tuple(Fraction(x, d) for x in y) for y in basis]


def smith_transform(m: IntMatrix) -> tuple[tuple[int, ...], IntMatrix]:
    """Smith invariants d1 | d2 | ... | dr and a unimodular column transform C.

    D = R . m . C is diagonal with entries +-d_j for some unimodular R (row
    operations are not tracked), so column j of m . C is divisible by d_j and
    zero past the rank.  Zero invariants are dropped, so the chain length
    equals the rank.
    """
    if not isinstance(m, IntMatrix):
        raise PreconditionError("smith_transform requires an IntMatrix")
    a = [list(row) for row in m.entries]
    nr, nc = m.rows, m.cols
    cols = [[int(i == j) for j in range(nc)] for i in range(nc)]
    invariants: list[int] = []
    t = 0
    while t < min(nr, nc):
        # locate the nonzero entry of least magnitude in the trailing block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for row in a + cols:
            row[t], row[bj] = row[bj], row[t]
        piv = a[t][t]
        dirty = False
        for i in range(t + 1, nr):
            q = a[i][t] // piv
            if q:
                for j in range(t, nc):
                    a[i][j] -= q * a[t][j]
            if a[i][t]:
                dirty = True
        for j in range(t + 1, nc):
            q = a[t][j] // piv
            if q:
                for i in range(t, nr):
                    a[i][j] -= q * a[i][t]
                for row in cols:
                    row[j] -= q * row[t]
            if a[t][j]:
                dirty = True
        if dirty:
            continue
        # pivot must divide the whole trailing block for the chain to hold
        offender = next(
            (i for i in range(t + 1, nr) if any(a[i][j] % piv for j in range(t + 1, nc))),
            None,
        )
        if offender is not None:
            for j in range(t, nc):
                a[t][j] += a[offender][j]
            continue
        invariants.append(abs(piv))
        t += 1
    for d, e in zip(invariants, invariants[1:]):
        if e % d:
            raise InconsistencyError(f"SNF divisibility chain broken: {d} does not divide {e}")
    return tuple(invariants), IntMatrix(cols)


def smith_normal_form(m: IntMatrix) -> tuple[int, ...]:
    """Diagonal invariants d1 | d2 | ... | dr of an integer matrix.

    Zero invariants are dropped, so the chain length equals the rank.  The
    main paths and ``verify`` call ``smith_transform``; this wrapper stays as
    package API and as a traced target of the benchmark.
    """
    return smith_transform(m)[0]


def _integer_inverse(m: _Matrix) -> tuple[list[list[int]], int]:
    """Integer rows and d > 0 with m^-1 = rows / d.

    With m = a / s (``_integer_entries``), a^-1 is minus the left block of the kernel basis of [a | I], one
    vector per column of I, over the last pivot p = +-det a; so m^-1 = s a^-1, and the sign of p moves into the rows.
    """
    a, s = _integer_entries(m)
    n = m.rows
    pivots, p, basis = _kernel([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise PreconditionError("matrix is singular, cannot invert")
    f = -s if p > 0 else s
    return [[f * y[i] for y in basis] for i in range(n)], abs(p)


def _inverse(m: _Matrix) -> _Matrix:
    """m^-1 in the ring rule of ``matrix_power``: an IntMatrix when m is one and det m = +-1."""
    rows, d = _integer_inverse(m)
    if isinstance(m, IntMatrix) and d == 1:
        return IntMatrix._of_rows(tuple(map(tuple, rows)))
    return RationalMatrix([[Fraction(x, d) for x in row] for row in rows])


def matrix_power(m: RationalMatrix | IntMatrix, k: int):
    """Exact k-th power; k = 0 gives the identity, k < 0 inverts first.

    An IntMatrix stays in integers for k >= 0, and for k < 0 whenever its
    inverse is integral (det = +-1); otherwise the result is a RationalMatrix.
    """
    if not m.is_square:
        raise PreconditionError("matrix_power requires a square matrix")
    base = m
    if k < 0:
        base = _inverse(m)
        k = -k
    result = type(base).identity(m.rows)
    while k:
        if k & 1:
            result = result @ base
        k >>= 1
        if k:
            base = base @ base
    return result


def powers(m: RationalMatrix | IntMatrix, n: int):
    """m^k for k = 1..n, typed as ``matrix_power``'s: one product per step and no inverse."""
    return itertools.accumulate(itertools.repeat(m, n), matmul)


def exterior_power(m: RationalMatrix | IntMatrix, i: int):
    """Induced matrix on the i-th exterior power, C(n,i) x C(n,i).

    Basis: i-element subsets of row/column indices in lexicographic order;
    entry (I, J) is the minor det m[I, J].  No main path uses it: it is
    ``verify``'s route to the alternating trace sum det(I - m), apart from
    ``charpoly``, for the linalg suite and the Selberg specialization's classes.
    """
    if not m.is_square:
        raise PreconditionError("exterior_power requires a square matrix")
    n = m.rows
    if not 0 <= i <= n:
        raise PreconditionError(f"exterior power degree {i} out of range 0..{n}")
    subsets = list(itertools.combinations(range(n), i))
    cls = type(m)
    out = []
    for rows_idx in subsets:
        out_row = []
        for cols_idx in subsets:
            sub = cls([[m.entries[r][c] for c in cols_idx] for r in rows_idx])
            out_row.append(determinant(sub))
        out.append(out_row)
    return cls(out)


def charpoly(m: RationalMatrix | IntMatrix) -> tuple:
    """Coefficients (c_0, ..., c_n) of det(x I - m) = sum_i c_i x^(n-i).

    Berkowitz's division-free algorithm (1984): the leading (r+1) x (r+1)
    block [[M, col], [row, a]] multiplies the coefficients of M's polynomial
    by the lower-triangular Toeplitz matrix with first column
    (1, -a, -row.col, -row.M.col, ..., -row.M^(r-1).col).  Only ring operations
    are used, so it runs on the integer matrix d m, d the lcm of m's
    denominators, and c_i = c_i(d m) / d^i: ints for an IntMatrix, Fractions for
    a RationalMatrix.  c_0 = 1 and c_i = (-1)^i tr Lambda^i m, so
    sum(charpoly(m)) = det(I - m) without building any exterior power.
    """
    if not m.is_square:
        raise PreconditionError("charpoly requires a square matrix")
    a, d = _integer_entries(m)
    poly = [1]
    for r in range(m.rows):
        # zip against the length-r column keeps row and M to the leading block
        col = [a[i][r] for i in range(r)]
        toeplitz = [1, -a[r][r]]
        for t in range(r):
            toeplitz.append(-sum(map(mul, a[r], col)))
            if t + 1 < r:
                col = [sum(map(mul, a[i], col)) for i in range(r)]
        poly = [sum(toeplitz[i - j] * poly[j] for j in range(min(i, r) + 1)) for i in range(r + 2)]
    if isinstance(m, IntMatrix):
        return tuple(poly)
    return tuple(Fraction(c, d**i) for i, c in enumerate(poly))


def det_series(poly, count: int):
    """(det(I - M^k), det(I - M^-k)) for k = 1..count, from ``poly`` = ``charpoly(M)`` alone, one k at a time.

    Let d be the lcm of the denominators of the coefficients c_i, so that
    N = d M has the monic integer characteristic polynomial sum_i c_i d^i x^(n-i).
    Newton's recurrence gives the power sums p_m = tr N^m, and step k extends them only to m = n k.
    The coefficients f_i = (-1)^i e_i of det(x I - N^k) follow from
    p_k, p_2k, ..., p_nk by Newton's identities i f_i = -sum_j f_(i-j) p_jk,
    and det(d^k I - N^k) = sum_i f_i d^(k(n-i)) = d^(kn) det(I - M^k).  The
    negative side is det(I - M^-k) = (-1)^n det(M)^-k det(I - M^k).  No matrix
    is built and every step is an integer operation; each division by i is
    checked, and one that is not exact raises ``InconsistencyError``.  A value
    is an int when it is integral by construction (d = 1, and |det N| = 1 on
    the negative side), else a ``Fraction``.  The degree n is len(poly) - 1.
    """
    d, a = _integer_charpoly(poly)
    p = [len(a) - 1]
    for k in range(1, count + 1):
        _power_sums(a, p, p[0] * k)  # p_0 = n
        yield _dets_of_power(p[k::k], d, a, k)


def _trace_series(poly, count: int):
    """(tr M^k, tr M^-k) for k = 1..count, one k at a time: tr M^k = p_k / d^k with N = d M as in ``det_series``,
    and tr M^-k the same from charpoly(M^-1), ``poly`` reversed over c_n.  A singular M is refused at the start."""
    d, a = _integer_charpoly(poly)
    e, b = _integer_charpoly([Fraction(c, poly[-1]) for c in reversed(poly)])
    p, q = [len(a) - 1], [len(b) - 1]
    for k in range(1, count + 1):
        _power_sums(a, p, k)
        _power_sums(b, q, k)
        yield Fraction(p[k], d**k), Fraction(q[k], e**k)


def _integer_charpoly(poly) -> tuple[int, list[int]]:
    """d and the coefficients of charpoly(d M) = sum_i c_i d^i x^(n-i), d the lcm of the c_i's denominators."""
    if poly[0] != 1:
        raise PreconditionError(f"a characteristic polynomial is monic, got leading coefficient {poly[0]}")
    d = lcm(*(c.denominator for c in poly))
    a = [c.numerator * (d**i // c.denominator) for i, c in enumerate(poly)]
    if a[-1] == 0:
        raise PreconditionError("matrix is singular, cannot invert")
    return d, a


def _power_sums(a, p: list, top: int):
    """Extend ``p`` = [p_0 = n, ...] in place to p_m = tr N^m, m <= top, N of monic integer charpoly a, by Newton."""
    n = len(a) - 1
    for m in range(len(p), top + 1):
        s = sum(a[i] * p[m - i] for i in range(1, min(m, n + 1)))
        p.append(-s - m * a[m] if m <= n else -s)


def _dets_of_power(q, d: int, a, k: int) -> tuple:
    """(det(I - M^k), det(I - M^-k)) from q[j - 1] = tr (N^k)^j, j = 1..n, by Newton's identities."""
    n = len(a) - 1
    f = [1]  # f_i = (-1)^i e_i(N^k), the coefficients of det(x I - N^k)
    for i in range(1, n + 1):
        fi, r = divmod(-sum(f[i - j] * q[j - 1] for j in range(1, i + 1)), i)
        if r:
            raise InconsistencyError(f"Newton's identities: {i} e_{i}(N^{k}) is not divisible by {i}")
        f.append(fi)
    dk, num = d**k, 0
    for fi in f:
        num = num * dk + fi  # Horner: det(x I - N^k) at x = d^k
    ank, sign = a[n] ** k, (-1) ** (n * (k + 1))
    pos = num if d == 1 else Fraction(num, dk**n)
    neg = sign * num * ank if abs(ank) == 1 else Fraction(sign * num, ank)
    return pos, neg
