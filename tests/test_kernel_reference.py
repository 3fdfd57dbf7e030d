"""The in-place curvature kernel, the integer-product ``@``, the integer Berkowitz, the Newton
series and the packed fixed-point sort against the code they replaced.

``roll_gaussian_curvature`` is a copy of the Brioschi kernel that took each
derivative from two ``np.roll`` copies and built every term as a new array;
``one_axis_torus_metric`` is a copy of ``random_torus_metric`` before it
built its 2-D harmonics in place; ``fraction_sum_product`` is a copy of
``_Matrix.__matmul__`` before it multiplied integers over common
denominators, summing ``Fraction`` products one by one.  They are kept here
as the reference: the new code must give the same bits, the same entries and
the same result type.  ``fraction_berkowitz`` is a copy of ``charpoly`` before
it ran Berkowitz on the integer matrix d M, when a RationalMatrix took every
step in ``Fraction``s.  ``det_series`` is held to the Bareiss determinant of
I - M^k on each ``matrix_power``, the code that took every flow sign before
it, and ``_trace_series`` to the traces of each ``matrix_power``, the walk
that took every graded mapping-torus value before it; ``_integer_inverse`` is held to ``matrix_power(m, -1)`` and to m m^-1 = I;
the packed int64 keys of ``fixed_points_toral`` are held to ``np.lexsort``
over the n columns.
"""

import math
import random
import time
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lefdist import linalg
from lefdist.curvature import MetricGrid, gaussian_curvature, random_torus_metric
from lefdist.errors import EnumerationLimitError, PreconditionError
from lefdist.lefschetz import ToralAutomorphism, fixed_points_toral
from lefdist.linalg import IntMatrix, RationalMatrix, charpoly, det_series, determinant, matrix_power

# -- the roll-based kernel and the one-axis metric ---------------------------------------------


def _d_periodic(f, h, axis):
    return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2 * h)


def _dd_periodic(f, h, axis):
    return (np.roll(f, -1, axis) + np.roll(f, 1, axis) - 2 * f) / (h * h)


def _d_u(f, h, periodic):
    out = _d_periodic(f, h, 0)
    if not periodic:
        out[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * h)
        out[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * h)
    return out


def _dd_u(f, h, periodic):
    out = _dd_periodic(f, h, 0)
    if not periodic:
        out[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / (h * h)
        out[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / (h * h)
    return out


def roll_gaussian_curvature(m):
    periodic_u = m.topology == "torus"
    E, F, G = m.E, m.F, m.G
    Eu = _d_u(E, m.du, periodic_u)
    Ev = _d_periodic(E, m.dv, 1)
    Evv = _dd_periodic(E, m.dv, 1)
    Gu = _d_u(G, m.du, periodic_u)
    Gv = _d_periodic(G, m.dv, 1)
    Guu = _dd_u(G, m.du, periodic_u)
    Fu = _d_u(F, m.du, periodic_u)
    Fv = _d_periodic(F, m.dv, 1)
    Fuv = _d_periodic(Fu, m.dv, 1)
    a11 = -0.5 * Evv + Fuv - 0.5 * Guu
    a12 = 0.5 * Eu
    a13 = Fu - 0.5 * Ev
    a21 = Fv - 0.5 * Gu
    a31 = 0.5 * Gv
    b12 = 0.5 * Ev
    b13 = 0.5 * Gu
    w = E * G - F * F
    det1 = a11 * w - a12 * (a21 * G - F * a31) + a13 * (a21 * F - E * a31)
    det2 = -b12 * (b12 * G - F * b13) + b13 * (b12 * F - E * b13)
    return (det1 - det2) / (w * w)


def one_axis_torus_metric(rng, n, conformal):
    """(E, F, G) of ``random_torus_metric`` as it was built before it worked in place."""
    du = 2 * math.pi / n
    u = np.arange(n) * du

    def trig_poly():
        out = np.zeros((n, n))
        for mm in range(3):
            for nn in range(3):
                if mm == nn == 0:
                    continue
                amp = 0.25 * rng.uniform(0.2, 1.0) / (mm + nn)
                phase = rng.uniform(0, 2 * math.pi)
                if mm == 0:
                    out += amp * np.cos(nn * u + phase)
                elif nn == 0:
                    out += (amp * np.cos(mm * u + phase))[:, None]
                else:
                    out += amp * np.cos((mm * u)[:, None] + (nn * u)[None, :] + phase)
        return out

    e = np.exp(2 * trig_poly())
    if conformal:
        return e, np.zeros((n, n)), e.copy()
    g = np.exp(2 * trig_poly())
    shear = 0.3 * np.sin(u[:, None] + u[None, :] + rng.uniform(0, 2 * math.pi))
    return e, shear * np.sqrt(e * g), g


@settings(max_examples=60, deadline=None)
@given(
    nu=st.integers(8, 64),
    nv=st.integers(8, 64),
    seed=st.integers(0, 2**32 - 1),
    topology=st.sampled_from(["torus", "revolution"]),
    order=st.sampled_from("CF"),
)
def test_the_in_place_kernel_gives_the_roll_kernel_bits(nu, nv, seed, topology, order):
    # a positive definite form with noisy entries: every difference and product is exercised
    rng = np.random.default_rng(seed)
    E, G = (np.asarray(1 + rng.random((nu, nv)), order=order) for _ in "EG")
    F = np.asarray(0.9 * (rng.random((nu, nv)) - 0.5), order=order)
    du, dv = 0.1 + rng.random(), 0.1 + rng.random()
    # the reference reads the arrays as given; MetricGrid stores C-ordered copies
    given_arrays = types.SimpleNamespace(nu=nu, nv=nv, du=du, dv=dv, E=E, F=F, G=G, topology=topology)
    k = gaussian_curvature(MetricGrid(nu, nv, du, dv, E, F, G, topology))
    assert k.tobytes() == roll_gaussian_curvature(given_arrays).tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 64), conformal=st.booleans())
def test_the_in_place_metric_gives_the_one_axis_bits(seed, n, conformal):
    m = random_torus_metric(random.Random(seed), n, conformal)
    for name, ref in zip("EFG", one_axis_torus_metric(random.Random(seed), n, conformal)):
        assert getattr(m, name).tobytes() == ref.tobytes(), name
    assert m.E.flags.c_contiguous and m.F.flags.c_contiguous and m.G.flags.c_contiguous
    assert gaussian_curvature(m).tobytes() == roll_gaussian_curvature(m).tobytes()


# -- the Fraction-sum product ---------------------------------------------------------------------


def fraction_sum_product(a, b):
    bt = list(zip(*b.entries)) if b.entries else []
    return a._ring(b)([[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a.entries])


INTS = st.integers(-30, 30) | st.integers(-(2**70), 2**70)
# integral rationals now and then, so that some rational products are integral
RATIONALS = st.builds(Fraction, INTS, st.sampled_from([1, 1, 2, 3, 4, 6, 7, 12, 2**40]))


@st.composite
def operands(draw):
    """(A, B) with cols(A) = rows(B), each an IntMatrix or a RationalMatrix; 0 rows and 0 columns included."""
    rows, inner, cols = (draw(st.integers(0, 4)) for _ in range(3))
    kinds = [draw(st.sampled_from([IntMatrix, RationalMatrix])) for _ in "AB"]

    def matrix(kind, r, c):
        return kind([[draw(INTS if kind is IntMatrix else RATIONALS) for _ in range(c)] for _ in range(r)])

    a = matrix(kinds[0], rows, inner)
    return a, matrix(kinds[1], a.cols, cols)


@settings(max_examples=300, deadline=None)
@given(operands())
def test_the_integer_product_gives_the_fraction_sum(ab):
    a, b = ab
    got, ref = a @ b, fraction_sum_product(a, b)
    assert type(got) is type(ref)
    assert (got.rows, got.cols) == (ref.rows, ref.cols)
    assert got.entries == ref.entries
    assert [type(x) for row in got.entries for x in row] == [type(x) for row in ref.entries for x in row]


@pytest.mark.parametrize(
    "a, b",
    [
        (RationalMatrix([[Fraction(1, 2), Fraction(1, 3)]]), RationalMatrix([[2], [3]])),  # 2, rational
        (IntMatrix([[2, 0], [0, 3]]), RationalMatrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])),  # I
        (RationalMatrix([[Fraction(3, 2)]]), IntMatrix([[4]])),
        (RationalMatrix([[], []]), RationalMatrix([])),  # 2 x 0 times 0 x 0
        (IntMatrix([[1, 2], [3, 4]]), IntMatrix([[], []])),  # 2 x 2 times 2 x 0
        (IntMatrix([]), RationalMatrix([])),  # 0 x 0
    ],
    ids=["integral dot", "integral identity", "rational times int", "2x0", "2x2 by 2x0", "0x0"],
)
def test_integral_and_empty_products_keep_the_ring(a, b):
    got, ref = a @ b, fraction_sum_product(a, b)
    assert type(got) is type(ref) is type(a)._ring(a, b)
    assert (got.rows, got.cols, got.entries) == (ref.rows, ref.cols, ref.entries)
    assert all(type(x) is (int if type(got) is IntMatrix else Fraction) for row in got.entries for x in row)


@settings(max_examples=200, deadline=None)
@given(operands(), st.integers(0, 3))
def test_integer_results_are_built_from_int_rows(ab, k):
    # @, -, identity and matrix_power(a, +-k) of IntMatrix operands skip the coercion; each result is
    # the matrix the coercing constructor builds from its rows, and every entry is an int.  A result
    # with a rational operand is built by its constructor as before: Fraction entries
    a, b = ab
    results = [a @ b, type(a).identity(a.rows), b - b]
    if a.is_square:
        # a unit upper-triangular matrix with a's entries above the diagonal has an integral inverse
        unit = type(a)([[x if j > i else int(i == j) for j, x in enumerate(row)] for i, row in enumerate(a.entries)])
        results += [matrix_power(a, k), matrix_power(unit, -k)]
    for m in results:
        ring = int if type(m) is IntMatrix else Fraction
        assert m == type(m)(m.entries) and (m.rows, m.cols) == (len(m.entries), len(m.entries[0]) if m.entries else 0)
        assert all(type(x) is ring for row in m.entries for x in row)
        assert type(m.entries) is tuple and all(type(row) is tuple for row in m.entries)


# -- the Fraction Berkowitz ---------------------------------------------------------------------


def fraction_berkowitz(m):
    a = m.entries
    one = m._coerce(1)
    poly = [one]
    for r in range(m.rows):
        col = [a[i][r] for i in range(r)]
        toeplitz = [one, -a[r][r]]
        for t in range(r):
            toeplitz.append(-sum(x * y for x, y in zip(a[r], col)))
            if t + 1 < r:
                col = [sum(x * y for x, y in zip(a[i], col)) for i in range(r)]
        poly = [sum(toeplitz[i - j] * poly[j] for j in range(min(i, r) + 1)) for i in range(r + 2)]
    return tuple(poly)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.sampled_from([IntMatrix, RationalMatrix]), st.data())
def test_the_integer_berkowitz_gives_the_fraction_berkowitz(n, kind, data):
    entry = INTS if kind is IntMatrix else RATIONALS
    m = kind([[data.draw(entry) for _ in range(n)] for _ in range(n)])
    got, ref = charpoly(m), fraction_berkowitz(m)
    assert got == ref
    assert [type(c) for c in got] == [type(c) for c in ref]


# -- the Newton series and the packed fixed-point keys -------------------------------------------


@st.composite
def invertible(draw):
    """A nonsingular n x n IntMatrix or RationalMatrix, n = 1..6, with small entries."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from([IntMatrix, RationalMatrix]))
    entry = st.integers(-3, 3) if kind is IntMatrix else st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    m = kind([[draw(entry) for _ in range(n)] for _ in range(n)])
    assume(determinant(m) != 0)
    return m


@settings(max_examples=120, deadline=None)
@given(invertible(), st.integers(1, 6))
def test_the_newton_series_gives_the_bareiss_determinant_of_each_power(m, count):
    identity = type(m).identity(m.rows)
    series = list(det_series(charpoly(m), count))
    assert len(series) == count
    for k, (pos, neg) in enumerate(series, 1):
        assert pos == determinant(identity - matrix_power(m, k))
        assert neg == determinant(identity - matrix_power(m, -k))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.sampled_from([IntMatrix, RationalMatrix]), st.data())
def test_the_integer_inverse_agrees_with_matrix_power(n, kind, data):
    # rows over d > 0, with the sign of a negative last Bareiss pivot moved into the rows
    entry = st.integers(-3, 3) if kind is IntMatrix else st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    m = kind([[data.draw(entry) for _ in range(n)] for _ in range(n)])
    if determinant(m) == 0:
        with pytest.raises(PreconditionError, match="singular"):
            linalg._integer_inverse(m)
        return
    rows, d = linalg._integer_inverse(m)
    assert type(d) is int and d > 0 and all(type(x) is int for row in rows for x in row)
    inverse = RationalMatrix([[Fraction(x, d) for x in row] for row in rows])
    assert inverse.entries == matrix_power(m, -1).entries
    assert m @ inverse == RationalMatrix.identity(n)


def test_the_newton_series_of_a_unimodular_map_stays_in_ints():
    cat = IntMatrix([[2, 1], [1, 1]])
    series = list(det_series(charpoly(cat), 5))
    assert series == [(-1, -1), (-5, -5), (-16, -16), (-45, -45), (-121, -121)]
    assert all(type(x) is int for pair in series for x in pair)
    m = RationalMatrix([[2, 0], [0, Fraction(1, 2)]])
    assert list(det_series(charpoly(m), 2)) == [(Fraction(-1, 2), Fraction(-1, 2)), (Fraction(-9, 4), Fraction(-9, 4))]


def test_a_padded_characteristic_polynomial_is_read_at_its_own_degree():
    # det_series reads n from the polynomial; a stray coefficient is a different map, never dropped
    cat = IntMatrix([[2, 1], [1, 1]])
    assert list(det_series(charpoly(cat) + (1,), 1)) == [(0, 0)]
    with pytest.raises(PreconditionError, match="monic"):
        list(det_series((2, 1), 1))
    with pytest.raises(PreconditionError, match="singular"):
        list(det_series(charpoly(IntMatrix([[1, 2], [2, 4]])), 1))


def test_the_series_yields_its_first_step_at_once():
    # step k extends the power sums only to n k, so a long window costs nothing until it is read
    start = time.perf_counter()
    assert next(det_series(charpoly(IntMatrix([[2, 1], [1, 1]])), 10**6)) == (-1, -1)
    assert time.perf_counter() - start < 0.1


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.sampled_from([IntMatrix, RationalMatrix]), st.integers(1, 6), st.data())
def test_the_trace_series_gives_the_trace_of_each_power(n, kind, count, data):
    # the walk of matrix_power that the graded mapping torus took before is the reference
    entry = st.integers(-3, 3) if kind is IntMatrix else st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    m = kind([[data.draw(entry) for _ in range(n)] for _ in range(n)])
    if determinant(m) == 0:
        with pytest.raises(PreconditionError, match="matrix is singular, cannot invert"):
            list(linalg._trace_series(charpoly(m), count))
        return
    series = list(linalg._trace_series(charpoly(m), count))
    assert series == [(matrix_power(m, k).trace(), matrix_power(m, -k).trace()) for k in range(1, count + 1)]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.sampled_from((-2, -1, 1, 2)))
def test_the_packed_keys_give_the_lexsort_order(n, seed, k):
    # a random unimodular map from elementary operations, as in the benchmark's conjugations
    rng = random.Random(seed)
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        (i, j), c = rng.sample(range(n), 2), rng.choice((-1, 1))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    if n == 1 or rng.random() < 0.5:
        a[0] = [-x for x in a[0]]
    t = ToralAutomorphism(IntMatrix(a))
    try:
        report = fixed_points_toral(t, k)
    except EnumerationLimitError:
        return
    pts = report.numerators
    assert np.array_equal(pts, pts[np.lexsort(pts.T[::-1])])
