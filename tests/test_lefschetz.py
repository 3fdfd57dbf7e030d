import dataclasses
import itertools
import time
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lefdist import lefschetz, verify
from lefdist.errors import InconsistencyError, NotSimpleError, PreconditionError
from lefdist.lefschetz import (
    ENUMERATION_CAP,
    GradedMap,
    ToralAutomorphism,
    fixed_point_index,
    fixed_points_toral,
    lefschetz_number_graded,
    toral_lefschetz,
    verify_classical_lefschetz,
)
from lefdist.linalg import (
    MAX_PRINTED_DIGITS,
    IntMatrix,
    RationalMatrix,
    charpoly,
    det_series,
    determinant,
    matrix_power,
    num_to_str,
    smith_transform,
)
from lefdist.verify import brute_force_fixed_point_count
from toral_graded import toral_graded_map

CAT = ToralAutomorphism(IntMatrix([[2, 1], [1, 1]]))
MINUS_I = ToralAutomorphism(IntMatrix([[-1, 0], [0, -1]]))


def gl2_battery(bound=3):
    """All of GL(2, Z) with entries in [-bound, bound]."""
    rng = range(-bound, bound + 1)
    out = []
    for a, b, c, d in itertools.product(rng, repeat=4):
        if abs(a * d - b * c) == 1:
            out.append(ToralAutomorphism(IntMatrix([[a, b], [c, d]])))
    return out


def brute_force_fixed_count(t, k):
    """Reference oracle: the residue scan of ``verify.brute_force_fixed_point_count`` as a nested
    Python loop, testing (A^k - I) x in Z^n at every x in ((1/d) Z / Z)^n."""
    b = t.power(k) - IntMatrix.identity(t.dim)
    d = abs(determinant(b))
    assert d != 0
    count = 0
    for combo in itertools.product(range(d), repeat=t.dim):
        if all(sum(x * y for x, y in zip(row, combo)) % d == 0 for row in b.entries):
            count += 1
    return count


class TestToralAutomorphism:
    def test_requires_unimodular(self):
        with pytest.raises(PreconditionError):
            ToralAutomorphism(IntMatrix([[2, 0], [0, 1]]))

    def test_requires_square(self):
        with pytest.raises(PreconditionError):
            ToralAutomorphism(IntMatrix([[1, 0, 0], [0, 1, 0]]))

    def test_requires_positive_dimension(self):
        # the 0x0 matrix has determinant 1, but T^0 is a point: no lattice to enumerate
        with pytest.raises(PreconditionError, match=r"dimension n >= 1, got n = 0"):
            fixed_points_toral(ToralAutomorphism(IntMatrix([])), 1)


class TestGradedLefschetz:
    def test_identity_on_surface(self):
        for g in (0, 1, 2, 5):
            gm = GradedMap(tuple(RationalMatrix.identity(d) for d in (1, 2 * g, 1)))
            assert lefschetz_number_graded(gm) == 2 - 2 * g

    def test_cat_map_graded(self):
        gm = toral_graded_map(CAT, 1)
        assert lefschetz_number_graded(gm) == -1  # 1 - 3 + 1

    def test_h0_only(self):
        gm = GradedMap((RationalMatrix([[1]]), RationalMatrix([[0, 0], [0, 0]])))
        assert lefschetz_number_graded(gm) == 1


class TestToralLefschetz:
    def test_cat_map(self):
        assert toral_lefschetz(CAT, 1) == -1

    def test_identity_matrix(self):
        t = ToralAutomorphism(IntMatrix.identity(3))
        assert toral_lefschetz(t, 1) == 0  # chi(T^n)

    def test_minus_identity(self):
        assert toral_lefschetz(MINUS_I, 1) == 4

    def test_k_zero_is_the_euler_characteristic_of_the_torus(self):
        # A^0 = I on both paths: det(I - I) and sum(charpoly(C^0)) = sum(charpoly(I))
        for t in (CAT, MINUS_I, ToralAutomorphism(IntMatrix([[0, -1, 0], [2, 0, 1], [3, 1, 2]]))):
            assert toral_lefschetz(t, 0) == 0

    def test_cat_map_sequence(self):
        assert [toral_lefschetz(CAT, k) for k in range(1, 6)] == [-1, -5, -16, -45, -121]

    def test_a_single_large_k_takes_logarithmically_many_products(self):
        # the trace path powers the companion matrix by squaring, so k = 10^6 costs about 20 products;
        # a quarter turn has A^4 = I, and the cat map's powers past 10^4 carry numbers of some 14,000 bits
        quarter_turn = ToralAutomorphism(IntMatrix([[0, -1], [1, 0]]))
        start = time.perf_counter()
        assert toral_lefschetz(quarter_turn, 10**6) == 0
        assert time.perf_counter() - start < 1
        for k in (20000, -20000):
            assert toral_lefschetz(CAT, k) == determinant(IntMatrix.identity(2) - matrix_power(CAT.matrix, k))

    @pytest.mark.parametrize(
        "path,skew", [("determinant", lambda d: d + 1), ("charpoly", lambda c: c + (1,))]
    )
    def test_disagreeing_paths_raise(self, monkeypatch, path, skew):
        t = ToralAutomorphism(IntMatrix([[0, -1, 0], [2, 0, 1], [3, 1, 2]]))
        original = getattr(lefschetz, path)
        monkeypatch.setattr(lefschetz, path, lambda m: skew(original(m)))
        with pytest.raises(InconsistencyError):
            toral_lefschetz(t, 2)


class TestFixedPointIndex:
    def test_expanding(self):
        j = RationalMatrix([[2, 0], [0, 2]])
        assert fixed_point_index(j) == 1

    def test_hyperbolic(self):
        j = RationalMatrix([[2, 0], [0, Fraction(1, 2)]])
        assert fixed_point_index(j) == -1

    def test_one_dimensional(self):
        j = RationalMatrix([[2]])
        assert fixed_point_index(j) == 1

    def test_not_simple(self):
        with pytest.raises(NotSimpleError):
            fixed_point_index(RationalMatrix.identity(2))

    def test_an_integer_linearization_stays_in_integers(self, monkeypatch):
        # J - I is taken in J's own ring, so the determinant of an IntMatrix J is an int
        seen = []
        monkeypatch.setattr(lefschetz, "determinant", lambda m: seen.append(determinant(m)) or seen[-1])
        assert fixed_point_index(CAT.power(2)) == -1  # det([[4, 3], [3, 1]]) = -5
        assert fixed_point_index(RationalMatrix(CAT.power(2).entries)) == -1
        assert seen == [-5, -5] and [type(d) for d in seen] == [int, Fraction]


class TestFixedPoints:
    def test_cat_map_k1(self):
        r = fixed_points_toral(CAT, 1)
        assert r.count == 1
        assert r.points == ((Fraction(0), Fraction(0)),)
        assert (r.index, r.epsilon) == (-1, -1)

    def test_cat_map_k2(self):
        r = fixed_points_toral(CAT, 2)
        assert r.count == 5
        assert r.count * r.index == -5
        for p in r.points:
            b = CAT.power(2) - IntMatrix.identity(2)
            img = tuple(b[i, 0] * p[0] + b[i, 1] * p[1] for i in range(2))
            assert all(x.denominator == 1 for x in img)

    def test_identity_infinite(self):
        t = ToralAutomorphism(IntMatrix.identity(2))
        r = fixed_points_toral(t, 3)
        assert r.infinite and r.count is None and r.points == ()
        assert r.index is None and r.epsilon is None

    def test_enumeration_cap(self):
        from lefdist.errors import EnumerationLimitError

        # tr(A^15) is Lucas-number sized, det(A^15 - I) ~ 1.86e6 > 10^6
        with pytest.raises(EnumerationLimitError):
            fixed_points_toral(CAT, 15)
        assert abs(toral_lefschetz(CAT, 15)) > 10**6  # L itself stays evaluable

    def test_minus_identity(self):
        r = fixed_points_toral(MINUS_I, 1)
        assert r.count == 4
        assert set(r.points) == {
            (Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(0)),
            (Fraction(1, 2), Fraction(1, 2)),
        }
        assert r.index == 1
        assert r.to_json_obj()["indices"] == [1, 1, 1, 1]

    def test_json(self):
        obj = fixed_points_toral(CAT, 1).to_json_obj()
        assert obj == {
            "count": "1",
            "points": [["0", "0"]],
            "indices": [-1],
            "epsilons": [-1],
        }
        assert fixed_points_toral(ToralAutomorphism(IntMatrix.identity(2)), 1).to_json_obj() == {
            "count": "infinite",
            "points": [],
            "indices": [],
            "epsilons": [],
        }

    @pytest.mark.parametrize(
        "matrix,ks",
        [
            ([[0, 0, 1], [1, 0, -1], [0, 1, -1]], range(1, 6)),
            ([[0, -1, 0], [2, 0, 1], [3, 1, 2]], (-3, -2, -1, 1, 2, 3, 4)),
            ([[0, 0, 0, 1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]], range(1, 5)),
            ([[0, -1, 0, -1], [-1, 0, -2, 0], [0, 1, 0, 0], [0, 0, 1, -1]], (-2, -1, 1, 2, 4)),
        ],
    )
    def test_hyperbolic_n3_n4_against_brute_force(self, matrix, ks):
        t = ToralAutomorphism(IntMatrix(matrix))
        for k in ks:
            r = fixed_points_toral(t, k)
            assert r.count == len(r.points) == brute_force_fixed_point_count(t, k)
            b = (t.power(k) - IntMatrix.identity(t.dim)).entries
            assert all(sum(x * y for x, y in zip(row, p)).denominator == 1 for p in r.points for row in b)
            assert all(p < q for p, q in zip(r.points, r.points[1:]))
            assert all(0 <= x < 1 for p in r.points for x in p)
            assert r.count * r.index == toral_lefschetz(t, k)
            # the two conventions differ by (-1)^n, and epsilon is the paper's index of A^k
            n = t.dim
            assert r.epsilon == (-1) ** n * r.index
            assert r.epsilon == fixed_point_index(RationalMatrix(t.power(k).entries))

    def test_reports_with_different_points_compare_unequal(self):
        r = fixed_points_toral(CAT, 2)
        assert r == fixed_points_toral(CAT, 2) and hash(r) == hash(fixed_points_toral(CAT, 2))
        # the transpose has the same count, denominator and signs, but other points
        other = fixed_points_toral(ToralAutomorphism(IntMatrix([[1, 1], [1, 2]])), 2)
        assert (other.count, other.denom, other.index, other.epsilon) == (r.count, r.denom, r.index, r.epsilon)
        assert other.points != r.points and other != r
        assert dataclasses.replace(r, numerators=r.numerators[::-1]) != r
        assert dataclasses.replace(r, index=-r.index) != r != dataclasses.replace(r, epsilon=-r.epsilon)

    def test_numerators_are_read_only(self):
        r = fixed_points_toral(CAT, 2)
        with pytest.raises(ValueError):
            r.numerators[0, 0] = 1


class TestClassicalIdentity:
    def test_cat_map(self):
        for k, expected in ((1, -1), (2, -5)):
            chk = verify_classical_lefschetz(CAT, k)
            assert chk.sum_of_indices == chk.lefschetz_number == expected

    def test_minus_identity(self):
        chk = verify_classical_lefschetz(MINUS_I, 1)
        assert chk.count == 4 and chk.sum_of_indices == 4 == chk.lefschetz_number

    def test_non_simple_rejected(self):
        with pytest.raises(NotSimpleError):
            verify_classical_lefschetz(ToralAutomorphism(IntMatrix.identity(2)), 1)

    @pytest.mark.parametrize("f", [fixed_points_toral, toral_lefschetz, verify_classical_lefschetz])
    def test_zero_power_is_the_identity(self, f):
        # F^0 = id through the ordinary code: every point is fixed, none is simple, and L(F^0) = det(I - I) = 0
        if f is verify_classical_lefschetz:
            with pytest.raises(NotSimpleError, match=r"A\^0 has non-simple fixed points"):
                f(CAT, 0)
        elif f is toral_lefschetz:
            assert f(CAT, 0) == 0
        else:
            assert f(CAT, 0).infinite


class TestOnePower:
    @pytest.mark.parametrize("k", [3, -2, 14])
    def test_the_classical_check_powers_a_once(self, monkeypatch, k):
        expected = toral_lefschetz(CAT, k)
        calls = []
        power = lefschetz.matrix_power
        monkeypatch.setattr(lefschetz, "matrix_power", lambda m, j: calls.append((m, j)) or power(m, j))
        chk = verify_classical_lefschetz(CAT, k)
        assert chk.sum_of_indices == chk.lefschetz_number == expected
        # the other power is the trace path's C^|k|, C the companion matrix of charpoly(A)
        assert [j for m, j in calls if m == CAT.matrix] == [k] and len(calls) == 2

    def test_a_single_negative_k_never_inverts_the_companion_matrix(self, monkeypatch):
        # the det path keeps A^k itself; the trace path powers C only to |k| and reads k < 0 by the c_n rule
        three = ToralAutomorphism(IntMatrix([[0, -1, 0], [2, 0, 1], [3, 1, 2]]))
        calls = []
        power = lefschetz.matrix_power
        monkeypatch.setattr(lefschetz, "matrix_power", lambda m, j: calls.append((m, j)) or power(m, j))
        for t, k in ((CAT, -1), (CAT, -40), (three, -3), (three, -25)):
            calls.clear()
            assert toral_lefschetz(t, k) == verify._exterior_trace_sum(power(t.matrix, k))
            assert [j for m, j in calls if m != t.matrix] == [-k]


class TestBattery:
    """The GL(2,Z) entries-in-[-3,3] exhaustive cross-oracle battery."""

    def test_three_way_agreement(self):
        for t in gl2_battery():
            for k in (1, 2, 3):
                b = t.power(k) - IntMatrix.identity(2)
                if determinant(b) == 0:
                    continue
                report = fixed_points_toral(t, k)
                assert report.count == brute_force_fixed_count(t, k)
                assert report.count * report.index == toral_lefschetz(t, k)

    def test_epsilon_vs_classical(self):
        # epsilon = (-1)^n * classical index, n = 2 here
        for t in gl2_battery(2):
            r = fixed_points_toral(t, 1)
            if r.infinite:
                continue
            assert r.epsilon == r.index

    def test_one_power_and_one_charpoly_per_map(self, monkeypatch):
        # the battery's series walks A^k by products and takes charpoly(A) once per map; the brute-force
        # scan powers A^k itself, once per finite case.  The cat-map check adds toral_lefschetz and
        # fixed_points_toral for the cat map at k = 1..5, and charpoly(C^k) of its companion matrix C
        calls = Counter()
        power, poly = lefschetz.matrix_power, lefschetz.charpoly
        monkeypatch.setattr(lefschetz, "matrix_power", lambda m, k: calls.update([(m, k)]) or power(m, k))
        monkeypatch.setattr(lefschetz, "charpoly", lambda m: calls.update([m]) or poly(m))
        checks = verify.run_lefschetz_suite(1)
        assert all(c.passed for c in checks)
        battery = [t.matrix for t in verify._gl2_battery()]
        companion = lefschetz._companion(charpoly(CAT.matrix))
        cat_check = range(1, 6)
        polys = Counter(battery) + Counter({CAT.matrix: 5}) + Counter(matrix_power(companion, k) for k in cat_check)
        finite = [(a, k) for a in battery for k in (1, 2, 3) if determinant(matrix_power(a, k) - IntMatrix.identity(2))]
        powers = Counter(finite) + Counter({(CAT.matrix, k): 2 for k in cat_check})
        powers += Counter((companion, k) for k in cat_check)
        assert Counter({key: c for key, c in calls.items() if isinstance(key, IntMatrix)}) == polys
        assert Counter({key: c for key, c in calls.items() if isinstance(key, tuple)}) == powers

    def test_the_series_gives_the_single_k_results(self):
        for t in gl2_battery(2):
            for k, (report, number, index) in enumerate(lefschetz._classical_series(t, 3), 1):
                assert report == fixed_points_toral(t, k)
                assert number == toral_lefschetz(t, k)
                assert index == (None if report.infinite else fixed_point_index(t.power(k)))

    def test_negative_k_symmetry_det_one_even_dim(self):
        for t in gl2_battery():
            if determinant(t.matrix) != 1:
                continue
            for k in (1, 2, 3):
                assert toral_lefschetz(t, -k) == toral_lefschetz(t, k)


# -- reference: the tuple-and-Fraction enumeration that fixed_points_toral used before its int64 array --


def reference_fixed_points(t, k):
    """(count, points, indices, epsilons), with each point built as a tuple of Python ints first."""
    n = t.dim
    b = t.power(k) - IntMatrix.identity(n)
    det_b = determinant(b)
    if det_b == 0:
        return None, (), (), ()
    total = abs(det_b)
    mods, c = smith_transform(b)
    denom = lcm(*mods)
    points = [(0,) * n]
    for j, d in enumerate(mods):
        step = [c[i, j] * (denom // d) for i in range(n)]
        shifts = [[y * s for s in step] for y in range(1, d)]
        points += [tuple((p + s) % denom for p, s in zip(point, shift)) for point in points for shift in shifts]
    points.sort()
    assert len(points) == len(set(points)) == total
    frac = [Fraction(v, denom) for v in range(denom)]
    epsilon = 1 if det_b > 0 else -1
    classical = epsilon * (-1) ** n
    return total, tuple(tuple(frac[v] for v in p) for p in points), (classical,) * total, (epsilon,) * total


@st.composite
def toral_automorphisms(draw):
    """A companion matrix with constant term +-1 (n = 2..4), conjugated by elementary operations."""
    n = draw(st.integers(2, 4))
    last = [draw(st.sampled_from((-1, 1)))] + draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
    m = [[int(i == j + 1) for j in range(n - 1)] + [last[i]] for i in range(n)]
    for _ in range(draw(st.integers(0, n))):
        i, j = draw(st.permutations(range(n)))[:2]
        s = draw(st.sampled_from((-1, 1)))
        m[i] = [a + s * b for a, b in zip(m[i], m[j])]  # E m E^-1 with E = I + s e_ij
        for row in m:
            row[j] -= s * row[i]
    return ToralAutomorphism(IntMatrix(m))


@settings(max_examples=150, deadline=None)
@given(toral_automorphisms(), st.sampled_from((-3, -2, -1, 1, 2, 3)))
def test_array_enumeration_matches_the_tuple_reference(t, k):
    assume(abs(determinant(t.power(k) - IntMatrix.identity(t.dim))) <= 3000)
    count, points, indices, epsilons = reference_fixed_points(t, k)
    r = fixed_points_toral(t, k)
    assert "points" not in r.__dict__
    assert (r.count, (r.index,) * len(points), (r.epsilon,) * len(points)) == (count, indices, epsilons)
    assert r.points == points
    assert r.to_json_obj() == {
        "count": "infinite" if count is None else str(count),
        "points": [[num_to_str(x) for x in p] for p in points],
        "indices": list(indices),
        "epsilons": list(epsilons),
    }


@st.composite
def conjugators(draw, n):
    """P in GL(n, Z): a product of elementary matrices I + s e_ij, then a diagonal sign matrix."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(1, 2 * n))):
        i, j = draw(st.permutations(range(n)))[:2]
        s = draw(st.sampled_from((-1, 1)))
        p[i] = [a + s * b for a, b in zip(p[i], p[j])]  # (I + s e_ij) p
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    return IntMatrix([[s * x for x in row] for s, row in zip(signs, p)])


@settings(max_examples=100, deadline=None)
@given(toral_automorphisms(), st.sampled_from((-3, -2, -1, 1, 2, 3)), st.data())
def test_conjugation_keeps_lefschetz_count_and_index(t, k, data):
    # L(F^k), the fixed-point count and the index depend only on the conjugacy class of A in GL(n, Z)
    assume(abs(determinant(t.power(k) - IntMatrix.identity(t.dim))) <= 3000)
    p = data.draw(conjugators(t.dim))
    c = ToralAutomorphism(p @ t.matrix @ matrix_power(p, -1))
    r, rc = fixed_points_toral(t, k), fixed_points_toral(c, k)
    assert toral_lefschetz(c, k) == toral_lefschetz(t, k)
    assert (rc.count, rc.index) == (r.count, r.index)


@st.composite
def small_unimodular(draw, n):
    """A in GL(n, Z) with every entry in -3..3: n - 1 free rows, then a last row with det +-1."""
    rows = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(n - 1)]
    # det is linear in the last row x: det = sum_j x_j * det(rows + [e_j])
    cof = [determinant(IntMatrix(rows + [[int(i == j) for i in range(n)]])) for j in range(n)]
    last = [r for r in itertools.product(range(-3, 4), repeat=n) if abs(sum(x * c for x, c in zip(r, cof))) == 1]
    assume(last)
    return ToralAutomorphism(IntMatrix(rows + [list(draw(st.sampled_from(last)))]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(small_unimodular), st.sampled_from((-3, -2, -1, 1, 2, 3)))
def test_vectorised_scan_matches_the_nested_loop(t, k):
    d = abs(determinant(t.power(k) - IntMatrix.identity(t.dim)))
    assume(0 < d**t.dim <= 20_000)
    assert brute_force_fixed_point_count(t, k) == brute_force_fixed_count(t, k)


@pytest.mark.parametrize("k", [8, 10, 300])
def test_scan_past_the_cap_is_refused_at_once(k):
    # |det(cat^k - I)| = L_2k - 2: 2205^2 at k = 8 is the first square past ENUMERATION_CAP
    t0 = time.monotonic()
    with pytest.raises(PreconditionError, match=f"exceeds the enumeration cap {ENUMERATION_CAP}"):
        brute_force_fixed_point_count(CAT, k)
    assert time.monotonic() - t0 < 1.0


def test_scan_just_under_the_cap_runs():
    # |det(cat^7 - I)| = 841 and 841^2 = 707,281 residues: the cap admits it
    assert brute_force_fixed_point_count(CAT, 7) == 841 == fixed_points_toral(CAT, 7).count


# -- the cap on printed integers ---------------------------------------------------------------

FAST = ToralAutomorphism(IntMatrix([[100, 1], [99, 1]]))  # |L(F^k)| reaches 10^4300 at k = 2146


def test_the_series_checks_each_exact_value_before_the_walk():
    series = det_series(charpoly(FAST.matrix), 2200)
    first = next(k for k, (pos, _) in enumerate(series, 1) if abs(pos) >= 10**MAX_PRINTED_DIGITS)
    assert first == 2146
    lefschetz._refuse_unprintable(FAST, first, f"L(F^{first})")  # the bound is not certain here
    start = time.perf_counter()
    _, pos, neg = next(lefschetz._lefschetz_series(FAST, first - 1))
    assert (pos, neg) == (toral_lefschetz(FAST, 1), toral_lefschetz(FAST, -1))
    with pytest.raises(PreconditionError, match=f"L\\(F\\^{first}\\) has more than MAX_PRINTED_DIGITS = "):
        next(lefschetz._lefschetz_series(FAST, first))
    assert time.perf_counter() - start < 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 2, 3, 4)).flatmap(small_unimodular))
def test_the_series_reads_each_negative_power_from_the_positive_one(t):
    # the series builds no A^-k; the minors of each A^-k, the route it replaced, are the oracle
    for k, (ak, pos, neg) in enumerate(lefschetz._lefschetz_series(t, 6), 1):
        assert ak == matrix_power(t.matrix, k)
        assert neg == verify._exterior_trace_sum(matrix_power(t.matrix, -k))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 2, 3, 4)).flatmap(small_unimodular), st.integers(-6, 6))
def test_a_single_k_matches_the_minors_of_its_power(t, k):
    # every k in Z, k = 0 included; the oracle takes the minors of A^k, with A^-1 from the integer inverse
    assert toral_lefschetz(t, k) == verify._exterior_trace_sum(matrix_power(t.matrix, k))


@pytest.mark.parametrize("k", [10**400, -(10**400)])
def test_a_huge_power_is_certain_only_off_the_unit_circle(k):
    for t in (CAT, FAST):
        with pytest.raises(PreconditionError, match="^a huge L has more than MAX_PRINTED_DIGITS = 4300 decimal digits$"):
            lefschetz._refuse_unprintable(t, k, "a huge L")
    # a quarter turn and cat + [1] keep an eigenvalue on the unit circle: L(F^k) is 0 or small at some k
    quarter_turn = ToralAutomorphism(IntMatrix([[0, -1], [1, 0]]))
    cat_plus_one = ToralAutomorphism(IntMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]]))
    lefschetz._refuse_unprintable(quarter_turn, k, "L")
    lefschetz._refuse_unprintable(cat_plus_one, k, "L")
    assert toral_lefschetz(quarter_turn, k) == 0


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((1, 2, 3, 4)).flatmap(small_unimodular), st.integers(1, 80), st.booleans(), st.integers(8, 60))
def test_a_certain_refusal_is_never_printable(t, k, negative, digits):
    # the bound at a cap of ``digits`` digits, where the exact value is cheap: it may miss a number past
    # the cap, but a number it refuses has more digits than the cap
    k = -k if negative else k
    try:
        lefschetz._refuse_unprintable(t, k, "L", spare=digits - MAX_PRINTED_DIGITS)
    except PreconditionError:
        assert abs(toral_lefschetz(t, k)) >= 10**digits
