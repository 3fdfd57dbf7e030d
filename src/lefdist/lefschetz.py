"""Lefschetz numbers of toral automorphisms and their fixed-point data.

Three independent routes to the same integer are kept alive: the
alternating trace over induced maps on cohomology, the determinant
det(I - A^k), and the signed count of fixed points on the torus.  The first
two are cross-checked on every A^k that :func:`toral_lefschetz` or the mapping
torus builds; :func:`verify_classical_lefschetz` checks the third against them.
The trace path builds no A^k: the alternating exterior-trace sum of A^k is
sum_i (-1)^i e_i(A^k) = det(I - A^k).  Over a window ``linalg.det_series``
takes every e_i(A^k) from the one Berkowitz characteristic polynomial of A by
Newton's identities, and the det path runs Bareiss on I - A^k for each A^k of
one ``powers`` walk, ``_lefschetz_series``, and builds no A^-k.  The mapping
torus reads that walk, and so does ``verify``'s per-map series,
``_classical_series``, which hands each A^k to the Smith enumeration and to
:func:`fixed_point_index`.  A single k, in :func:`toral_lefschetz` and
:func:`verify_classical_lefschetz`, powers A once and reads p = charpoly(C^|k|),
C the companion matrix of charpoly(A), in O(log |k|) products and no inverse of
C; for k < 0 it applies the c_n rule of ``det_series``, det(I - C^-|k|) =
sum(p) p[-1].  Every k in Z is taken: A^0 = I gives L(F^0) = det(I - I) = 0,
the Euler characteristic of the torus, and an infinite fixed-point set.  Both
paths and the fixed-point enumeration stay in integers: the fixed points are
kept as one int64 array of numerators over a common denominator, and their
``Fraction`` coordinates are built only when a caller asks for them.

Sign conventions: the classical fixed-point index is sign det(I - J); the
epsilon convention used for foliation distributions is sign det(J - I).
They differ by (-1)^p in leaf dimension p, so both are always reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, log10, prod

import numpy as np

from .errors import EnumerationLimitError, InconsistencyError, NotSimpleError, PreconditionError
from .linalg import (
    MAX_PRINTED_DIGITS,
    IntMatrix,
    RationalMatrix,
    charpoly,
    det_series,
    determinant,
    matrix_power,
    num_to_str,
    powers,
    require_printable,
    smith_transform,
)

__all__ = [
    "ToralAutomorphism",
    "GradedMap",
    "FixedPointReport",
    "ClassicalCheck",
    "lefschetz_number_graded",
    "toral_lefschetz",
    "fixed_points_toral",
    "fixed_point_index",
    "verify_classical_lefschetz",
    "ENUMERATION_CAP",
]

ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class ToralAutomorphism:
    """Integer matrix A in GL(n, Z), n >= 1, acting on the torus R^n / Z^n."""

    matrix: IntMatrix

    def __post_init__(self):
        if not self.matrix.is_square:
            raise PreconditionError("toral automorphism matrix must be square")
        if self.matrix.rows == 0:
            raise PreconditionError("toral automorphism needs a torus of dimension n >= 1, got n = 0")
        if abs(determinant(self.matrix)) != 1:
            raise PreconditionError("toral automorphism must have determinant +-1")

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def power(self, k: int) -> IntMatrix:
        return _integral(matrix_power(self.matrix, k), k)


def _integral(ak, k: int) -> IntMatrix:
    """The ring check: A^k of a unimodular A must come back as an IntMatrix."""
    if not isinstance(ak, IntMatrix):
        raise InconsistencyError(f"A^{k} of a unimodular A came back as {type(ak).__name__}, not IntMatrix")
    return ak


@dataclass(frozen=True)
class GradedMap:
    """Induced maps M_i on H^i(X), one square exact matrix per degree."""

    maps: tuple[RationalMatrix | IntMatrix, ...]

    def __post_init__(self):
        for m in self.maps:
            if not m.is_square:
                raise PreconditionError("graded map matrices must be square")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(m.rows for m in self.maps)

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** i * d for i, d in enumerate(self.dims))


def lefschetz_number_graded(g: GradedMap) -> Fraction:
    """Alternating trace sum over all degrees, including degree 0."""
    return sum(((-1) ** i * m.trace() for i, m in enumerate(g.maps)), Fraction(0))


def toral_lefschetz(t: ToralAutomorphism, k: int) -> int:
    """L(F^k) = det(I - A^k) at any integer k, cross-checked against the exterior-trace sum; L(F^0) = 0."""
    return _power_and_lefschetz(t, k)[1]


def _power_and_lefschetz(t: ToralAutomorphism, k: int) -> tuple[IntMatrix, int]:
    """A^k and L(F^k) for one k: the det path on A^k, checked against the trace path, which reads
    p = charpoly(C^|k|) for C the companion matrix of charpoly(A): det(I - C^|k|) = sum(p), and for k < 0
    det(I - C^-|k|) = sum(p) p[-1], since p[-1] = (-1)^n det(C^|k|) = +-1 (the c_n rule of ``det_series``)."""
    ak = matrix_power(t.matrix, k)
    p = charpoly(matrix_power(_companion(charpoly(t.matrix)), abs(k)))
    return ak, _lefschetz_of_power(ak, k, sum(p) * (p[-1] if k < 0 else 1))


def _companion(poly) -> IntMatrix:
    """Companion matrix of ``poly`` = (1, c_1, ..., c_n): ones below the diagonal, -c_n..-c_1 down the last column."""
    n = len(poly) - 1
    return IntMatrix([[-poly[n - i] if j == n - 1 else int(j == i - 1) for j in range(n)] for i in range(n)])


def _lefschetz_series(t: ToralAutomorphism, count: int):
    """(A^k, L(F^k), L(F^-k)) for k = 1..count: the det path on each A^k of one ``powers`` walk, ring-checked,
    and L(F^-k) = det(I - A^-k) = (-1)^n det(A)^k L(F^k), det A from the det path's own ``determinant``;
    both sides are checked against ``det_series`` of one ``charpoly(A)``, and no A^-k is built.  Every
    value is printed, so none may have more than MAX_PRINTED_DIGITS digits (|L(F^-k)| = |L(F^k)|): the
    exact trace-path values are checked as they come, and the first past the cap is refused before the walk.
    """
    n, det = t.dim, determinant(t.matrix)
    series = enumerate(det_series(charpoly(t.matrix), count), 1)
    traces = [(require_printable(tr_pos, f"L(F^{k})"), tr_neg) for k, (tr_pos, tr_neg) in series]
    for k, (ak, (tr_pos, tr_neg)) in enumerate(zip(powers(t.matrix, count), traces), 1):
        pos = _lefschetz_of_power(ak, k, tr_pos)
        yield ak, pos, _agree((-1) ** n * det**k * pos, tr_neg)


def _refuse_unprintable(t: ToralAutomorphism, k: int, what: str, spare: int = 0):
    """``require_printable``'s error, naming ``what``, only when |L(F^k)| certainly has more than
    MAX_PRINTED_DIGITS + ``spare`` decimal digits; decided before any power of A, so a huge k costs nothing.

    With m the largest |a_ij|, |L(F^k)| <= (1 + (n m)^|k|)^n, which settles most k at once.
    Otherwise take the float eigenvalues of A: L(F^k) = prod_i (1 - lambda_i^k), a factor with
    |lambda_i| >= 1.01 is at least |lambda_i|^|k| / 101 and one with |lambda_i| <= 0.99 at least
    1/100 (for k < 0 too, since |det A| = 1), so |L(F^k)| >= 10^(r |k| - 3n) with r the sum of
    log10 |lambda_i| over |lambda_i| > 1, less 1% for the error of the floats.  An eigenvalue within
    1% of the unit circle, where 1 - lambda^k can be small or zero, gives no bound.
    """
    n, cap = t.dim, MAX_PRINTED_DIGITS + spare
    m = max(abs(x) for row in t.matrix.entries for x in row)
    if n * m == 1 or abs(k) <= (cap / n - 0.31) / log10(n * m):
        return
    try:
        moduli = np.abs(np.linalg.eigvals(np.array(t.matrix.entries, dtype=float)))
    except OverflowError:
        return
    if np.any(np.abs(moduli - 1) < 0.01):
        return
    rate = 0.99 * float(np.sum(np.log10(moduli[moduli > 1])))
    if abs(k) > (cap + 3 * n) / rate:
        raise PreconditionError(f"{what} has more than MAX_PRINTED_DIGITS = {MAX_PRINTED_DIGITS} decimal digits")


def _lefschetz_of_power(ak, k: int, via_traces) -> int:
    """det(I - A^k) of a given A^k, ring-checked and cross-checked against ``via_traces``, the
    alternating exterior-trace sum sum_i (-1)^i tr Lambda^i A^k from the trace path."""
    return _agree(determinant(IntMatrix.identity(ak.rows) - _integral(ak, k)), via_traces)


def _agree(via_det, via_traces):
    """``via_det`` when the det and trace paths gave the same number; else ``InconsistencyError``."""
    if via_det != via_traces:
        raise InconsistencyError(f"determinant path gave {via_det}, exterior-trace path gave {via_traces}")
    return via_det


def fixed_point_index(j: RationalMatrix | IntMatrix) -> int:
    """The paper's epsilon at a simple fixed point with linearization J: sign det(J - I)."""
    d = determinant(j - type(j).identity(j.rows))
    if d == 0:
        raise NotSimpleError("fixed point is not simple: det(J - I) = 0")
    return 1 if d > 0 else -1


@dataclass(frozen=True, eq=False)
class FixedPointReport:
    """Fixed points of A^k on the torus; count and both signs are None when infinite.

    Point p has coordinates numerators[p] / denom in [0, 1)^n, and the rows
    are in lexicographic order.  Every point has the linearization A^k, so
    one sign per convention serves all.  The ``Fraction`` tuples of ``points``
    are built on first use; a caller that needs only the count never builds one.
    """

    count: int | None
    denom: int
    numerators: np.ndarray  # int64, one row per point, read-only
    index: int | None  # classical convention, sign det(I - A^k)
    epsilon: int | None  # paper convention, sign det(A^k - I)

    def __post_init__(self):
        self.numerators.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, FixedPointReport):
            return NotImplemented
        return (self.count, self.denom, self.index, self.epsilon) == (
            other.count, other.denom, other.index, other.epsilon
        ) and np.array_equal(self.numerators, other.numerators)

    def __hash__(self):
        return hash((self.count, self.denom, self.numerators.tobytes()))

    @cached_property
    def points(self) -> tuple[tuple[Fraction, ...], ...]:
        frac = [Fraction(v, self.denom) for v in range(self.denom)]
        return tuple(tuple(frac[v] for v in p) for p in self.numerators.tolist())

    @property
    def infinite(self) -> bool:
        return self.count is None

    def to_json_obj(self) -> dict:
        return {
            "count": "infinite" if self.count is None else str(self.count),
            "points": [[num_to_str(x) for x in p] for p in self.points],
            "indices": [self.index] * (self.count or 0),
            "epsilons": [self.epsilon] * (self.count or 0),
        }


def fixed_points_toral(t: ToralAutomorphism, k: int) -> FixedPointReport:
    """All solutions of A^k x = x on the torus, with both index conventions.

    When det(A^k - I) = 0 the fixed-point set is infinite and the report is
    the explicit degenerate variant (no enumeration is attempted), as at k = 0.
    """
    return _fixed_points_of_power(t.power(k), k)


def _fixed_points_of_power(ak: IntMatrix, k: int) -> FixedPointReport:
    """``fixed_points_toral`` of a given A^k."""
    n = ak.rows
    b = ak - IntMatrix.identity(n)
    det_b = determinant(b)
    if det_b == 0:
        return FixedPointReport(None, 1, np.zeros((0, n), dtype=np.int64), None, None)
    total = abs(det_b)
    if total > ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"{total} fixed points exceed the enumeration cap {ENUMERATION_CAP}"
        )
    mods, c = smith_transform(b)
    if len(mods) != n or prod(mods) != total:
        raise InconsistencyError(
            f"Smith invariants {mods} of A^{k} - I multiply to {prod(mods)}, not |det| = {total}"
        )
    # x = C y with y_j in (1/d_j) Z / Z; over the common denominator L the
    # numerators are x_i L = sum_j c_ij y_j (L / d_j) mod L.  L divides
    # total <= ENUMERATION_CAP, so with each step reduced mod L in Python
    # ints first, every int64 value stays below L^2 + L.
    denom = lcm(*mods)
    pts = np.zeros((1, n), dtype=np.int64)
    for j, d in enumerate(mods):
        step = np.array([c[i, j] * (denom // d) % denom for i in range(n)], dtype=np.int64)
        shifts = np.arange(d, dtype=np.int64)[:, None] * step
        pts = ((pts[None] + shifts[:, None]) % denom).reshape(-1, n)
    # lexicographic order: every coordinate is below L < 2^20, so three of them pack exactly into
    # one int64 key x_0 L^2 + x_1 L + x_2; n <= 3 sorts one key, a larger n lexsorts ceil(n / 3)
    weights = np.array([denom * denom, denom, 1], dtype=np.int64)
    keys = [pts[:, i : i + 3] @ weights[max(0, i + 3 - n) :] for i in range(0, n, 3)]
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    pts = np.take(pts, order, axis=0)
    distinct = 1 + int(np.count_nonzero((pts[1:] != pts[:-1]).any(axis=1)))
    if distinct != total:
        raise InconsistencyError(
            f"enumerated {len(pts)} fixed points of A^{k}, {distinct} distinct, not |det(A^k - I)| = {total}"
        )
    epsilon = 1 if det_b > 0 else -1
    classical = epsilon * (-1) ** n  # sign det(I - A^k) = (-1)^n sign det(A^k - I)
    return FixedPointReport(total, denom, pts, classical, epsilon)


@dataclass(frozen=True)
class ClassicalCheck:
    """Both sides of the classical Lefschetz identity for one (A, k)."""

    sum_of_indices: int
    lefschetz_number: int
    count: int


def verify_classical_lefschetz(t: ToralAutomorphism, k: int) -> ClassicalCheck:
    """Assert sum of classical indices (count x the one index) equals L(F^k); returns both sides.

    One A^k serves the det path of L(F^k), which is checked against the trace path, and the enumeration.
    """
    ak, rhs = _power_and_lefschetz(t, k)
    report = _fixed_points_of_power(ak, k)
    if report.infinite:
        raise NotSimpleError(f"A^{k} has non-simple fixed points: det(A^k - I) = 0")
    lhs = report.count * report.index
    if lhs != rhs:
        raise InconsistencyError(
            f"index sum {lhs} disagrees with Lefschetz number {rhs}"
        )
    return ClassicalCheck(lhs, rhs, report.count)


def _classical_series(t: ToralAutomorphism, count: int):
    """(fixed-point report, L(F^k), fixed_point_index(A^k)) for k = 1..count: each A^k of ``_lefschetz_series``,
    with its checked L(F^k), is handed to the enumeration and to ``fixed_point_index``, which is None where
    the fixed points are not simple."""
    for k, (ak, number, _) in enumerate(_lefschetz_series(t, count), 1):
        report = _fixed_points_of_power(ak, k)
        yield report, number, None if report.infinite else fixed_point_index(ak)
