import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lefdist.distributions import (
    DEFAULT_TOLERANCE,
    AtomicDistribution,
    ConjClass,
    IDENTITY,
    LatticePoint,
    OrbitTerm,
    RealPoint,
    make,
)
from lefdist.errors import PreconditionError
from lefdist.linalg import to_number


class TestMake:
    def test_cancellation(self):
        d = make([(LatticePoint(0), 3), (LatticePoint(0), -3)])
        assert d.is_zero and d.atoms == ()

    def test_ordering(self):
        d = make([(LatticePoint(2), -5), (LatticePoint(1), -1)])
        assert d.atoms == ((LatticePoint(1), Fraction(-1)), (LatticePoint(2), Fraction(-5)))

    def test_inexact_points_kept_distinct(self):
        d = make([(RealPoint(1.0), 1), (RealPoint(math.sqrt(2)), 1)])
        assert len(d.atoms) == 2

    def test_inexact_merge_within_tolerance(self):
        d = make([(RealPoint(1.0), 1), (RealPoint(1.0 + 1e-12), 2)])
        assert len(d.atoms) == 1
        assert d.atoms[0][1] == 3

    def test_exact_points_merge_only_on_equality(self):
        d = make([(RealPoint(Fraction(1, 3)), 1), (RealPoint(Fraction(1, 3)), 1), (RealPoint(Fraction(1, 2)), 1)])
        assert len(d.atoms) == 2

    def test_equal_exact_points_merge_across_a_float_tie(self):
        # 1/3 + 10^-30 has the float of 1/3, so only the exact value can put the two 1/3 side by side
        third = Fraction(1, 3)
        d = make([(RealPoint(third), 1), (RealPoint(third + _TINY), 1), (RealPoint(third), 1)])
        assert d.atoms == ((RealPoint(third), 2), (RealPoint(third + _TINY), 1))

    def test_exact_points_past_the_float_range_sort_and_merge(self):
        # they sort as +-inf in the first key, and the exact value breaks the tie
        big = Fraction(10**400)
        d = make([(RealPoint(big + 1), 1), (RealPoint(big), 1), (RealPoint(-big), 1),
                  (RealPoint(2.5), 1), (RealPoint(big), 1)])
        assert d.atoms == ((RealPoint(-big), 1), (RealPoint(2.5), 1), (RealPoint(big), 2), (RealPoint(big + 1), 1))

    def test_exact_inexact_collision_raises(self):
        with pytest.raises(PreconditionError):
            make([(RealPoint(Fraction(1)), 1), (RealPoint(1.0), 1)])

    def test_exact_inexact_merge_with_explicit_tolerance(self):
        d = make([(RealPoint(Fraction(1)), 1), (RealPoint(1.0), 2)], tolerance=1e-9)
        assert len(d.atoms) == 1
        p, c = d.atoms[0]
        assert not p.exact and c == 3

    def test_exact_inexact_merge_past_the_float_range(self):
        # -1.8e308 has no float: its merged atom takes the partner's location, and its coefficient is
        # added exactly before the one rounding; at +1.7e308 the inexact location leads, as it sorts first
        big, near = Fraction(18 * 10**307), 1.7e308
        atoms = [(RealPoint(-big), big), (RealPoint(-near), -near), (RealPoint(big), big), (RealPoint(near), -near)]
        d = make(atoms, tolerance=2e307)
        coeff = float(big - Fraction(near))
        assert d.atoms == ((RealPoint(-near), coeff), (RealPoint(near), coeff))
        assert all(type(c) is float for _, c in d.atoms)

    def test_negative_tolerance_rejected(self):
        # it would keep these two apart and skip the exact/inexact collision check
        with pytest.raises(PreconditionError, match="tolerance must be >= 0"):
            make([(RealPoint(Fraction(1)), 1), (RealPoint(1.0000000001), 1)], tolerance=-1.0)

    def test_mixed_variants_rejected(self):
        with pytest.raises(PreconditionError):
            make([(LatticePoint(1), 1), (RealPoint(1.0), 1)])

    def test_group_inference(self):
        assert make([(LatticePoint(1), 1)]).group == "Z"
        assert make([(RealPoint(1), 1)]).group == "R"
        assert make([(ConjClass("g"), 1)]).group == "abstract"
        assert make([]).group == "abstract"
        assert make([], group="Z").group == "Z"

    def test_group_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            make([(LatticePoint(1), 1)], group="R")

    def test_zero_smooth_normalized(self):
        assert make([], smooth_const=0).smooth_const is None
        assert make([], smooth_const=Fraction(0)).is_zero

    def test_idempotence(self):
        d = make(
            [(RealPoint(1.5), 1), (RealPoint(Fraction(2)), Fraction(1, 3))],
            smooth_const=2,
            orbit_terms=(OrbitTerm("g1", -1, 1),),
        )
        again = make(d.atoms, d.smooth_const, d.orbit_terms, group=d.group)
        assert again == d


    def test_nan_points_rejected_by_name(self):
        with pytest.raises(ValueError, match="nan") as exc:
            make([(RealPoint(float("nan")), 1), (RealPoint(float("nan")), 2)])
        assert not isinstance(exc.value, PreconditionError)


class TestToNumber:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (3, Fraction(3)),
            (Fraction(1, 3), Fraction(1, 3)),
            (1.5, 1.5),
            ("-2/4", Fraction(-1, 2)),
            (" 7 ", Fraction(7)),
            ("~1.25", 1.25),
        ],
    )
    def test_accepts(self, value, expected):
        x = to_number(value)
        assert x == expected and type(x) is type(expected)

    @pytest.mark.parametrize(
        "value",
        [True, False, None, [1], {"a": 1}, float("nan"), float("inf"), -math.inf,
         "~nan", "~inf", "~-inf", "1e999x", "x", "", "1/0", "~", "nan", "inf"],
    )
    def test_rejects_with_plain_value_error(self, value):
        with pytest.raises(ValueError, match="'vol'") as exc:
            to_number(value, "'vol'")
        assert not isinstance(exc.value, PreconditionError)


class TestPair:
    def test_atoms_only(self):
        d = make([(LatticePoint(1), -1), (LatticePoint(2), -5)])
        got = d.pair(lambda x: {1: Fraction(1), 2: Fraction(1, 2)}[x])
        assert got == Fraction(-7, 2)

    def test_zero_distribution(self):
        assert make([]).pair(lambda x: 123) == 0

    def test_smooth_part(self):
        d = make([(ConjClass("e"), 2)], smooth_const=2)
        assert d.pair(lambda x: Fraction(1), integral_of_f=Fraction(3)) == 8

    def test_missing_integral(self):
        d = make([], smooth_const=1)
        with pytest.raises(PreconditionError):
            d.pair(lambda x: 1)

    def test_orbit_terms_refuse_pairing(self):
        d = make([], orbit_terms=(OrbitTerm("g", 1, 1),))
        with pytest.raises(PreconditionError):
            d.pair(lambda x: 1)

    def test_linearity(self):
        d1 = make([(LatticePoint(1), Fraction(2)), (LatticePoint(3), Fraction(-1))])
        d2 = make([(LatticePoint(1), Fraction(-2)), (LatticePoint(2), Fraction(5))])
        f = lambda k: Fraction(k * k + 1)
        assert (d1 + d2).pair(f) == d1.pair(f) + d2.pair(f)


class TestArithmetic:
    def test_add_cancels(self):
        d = make([(LatticePoint(0), 1)]) + make([(LatticePoint(0), -1)])
        assert d.is_zero
        assert d.group == "Z"

    def test_scale(self):
        g = 2
        d = make([(IDENTITY, 1)]).scale(2 - 2 * g)
        assert d.atoms == ((ConjClass("e"), Fraction(-2)),)

    def test_scale_by_zero(self):
        d = make([(LatticePoint(1), 5)], smooth_const=3).scale(0)
        assert d.is_zero

    def test_incompatible_groups(self):
        with pytest.raises(PreconditionError):
            make([(LatticePoint(1), 1)]) + make([(RealPoint(1), 1)])

    def test_scale_refuses_orbit_terms(self):
        d = make([], orbit_terms=(OrbitTerm("g", 1, 1),))
        with pytest.raises(PreconditionError):
            d.scale(2)

    def test_sub(self):
        a = make([(LatticePoint(1), 3)], smooth_const=1)
        b = make([(LatticePoint(1), 1)], smooth_const=1)
        got = a - b
        assert got.atoms == ((LatticePoint(1), Fraction(2)),)
        assert got.smooth_const is None

    def test_module_level_helpers(self):
        a = make([(LatticePoint(1), 1)])
        assert a + a == a.scale(2)


class TestSerialization:
    def test_wire_format(self):
        d = make(
            [(RealPoint(1), -1)],
            smooth_const=2,
            orbit_terms=(OrbitTerm("gamma_1", -1, 1),),
        )
        assert d.to_json_obj() == {
            "group": "R",
            "atoms": [{"at": "1", "coeff": "-1"}],
            "smooth_const": "2",
            "orbit_terms": [
                {
                    "class": "gamma_1",
                    "coeff_factors": {"lefschetz": "-1", "vol_centralizer": "1"},
                }
            ],
        }

    def test_inexact_prefix(self):
        d = make([(RealPoint(1.5), 2.5)])
        obj = d.to_json_obj()
        assert obj["atoms"] == [{"at": "~1.5", "coeff": "~2.5"}]


# -- reference: the two-path merge that make used before its single sorted pass ---------
# Lattice points and classes merged through a first-occurrence dict, real points
# through a cluster pass over the sorted atoms.  The message of the exact/inexact
# collision names each point by its role, and the sort key breaks a float tie by the
# exact value, as make does.


def _ref_sort_key(p):
    if isinstance(p, LatticePoint):
        return (p.k,)
    if isinstance(p, RealPoint):
        return (float(p.x), not p.exact, p.x)
    return (p.label,)


def _ref_merge_real_atoms(norm, tol, explicit_tol):
    items = sorted(norm, key=lambda pc: _ref_sort_key(pc[0]))
    clusters = []  # [representative point, coeff, all_exact]
    for p, c in items:
        if clusters:
            rep, acc, all_exact = clusters[-1]
            close = abs(Fraction(p.x) - Fraction(rep.x)) <= tol
            if p.exact and all_exact:
                if Fraction(p.x) == Fraction(rep.x):
                    clusters[-1][1] = acc + c
                    continue
            elif not p.exact and not all_exact:
                if close:
                    clusters[-1][1] = acc + c
                    continue
            elif close:  # one side exact, the other not
                if not explicit_tol:
                    exact, inexact = (p, rep) if p.exact else (rep, p)
                    raise PreconditionError(
                        f"exact point {exact} and inexact point {inexact} are within the "
                        "default tolerance; pass an explicit tolerance to merge them"
                    )
                clusters[-1][0] = RealPoint(float(rep.x))
                clusters[-1][1] = acc + c
                clusters[-1][2] = False
                continue
        clusters.append([p, c, p.exact])
    return [(rep, acc) for rep, acc, _ in clusters]


def reference_make(atoms=(), smooth_const=None, orbit_terms=(), group=None, tolerance=None):
    explicit_tol = tolerance is not None
    tol = Fraction(tolerance if explicit_tol else DEFAULT_TOLERANCE)
    norm = [(p, to_number(c)) for p, c in atoms]
    variants = {type(p) for p, _ in norm}
    if len(variants) > 1:
        names = sorted(v.__name__ for v in variants)
        raise PreconditionError(f"cannot mix group-point variants in one distribution: {names}")
    inferred = {LatticePoint: "Z", RealPoint: "R", ConjClass: "abstract"}[variants.pop()] if variants else None
    if group is None:
        group = inferred if inferred is not None else "abstract"
    elif inferred is not None and group != inferred:
        raise PreconditionError(f"declared group {group!r} does not match atom variant ({inferred!r})")
    if norm and isinstance(norm[0][0], RealPoint):
        merged = _ref_merge_real_atoms(norm, tol, explicit_tol)
    else:
        acc, order = {}, []
        for p, c in norm:
            if p in acc:
                acc[p] = acc[p] + c
            else:
                acc[p] = c
                order.append(p)
        merged = [(p, acc[p]) for p in order]
    merged = [(p, c) for p, c in merged if c != 0]
    merged.sort(key=lambda pc: _ref_sort_key(pc[0]))
    if smooth_const is not None:
        smooth_const = to_number(smooth_const)
        if smooth_const == 0:
            smooth_const = None
    terms = tuple(sorted(orbit_terms, key=lambda t: (t.class_label, str(t.lefschetz))))
    return AtomicDistribution(tuple(merged), smooth_const, terms, group)


def _ref_add_opt(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def reference_add(a, b):
    if a.group != b.group:
        raise PreconditionError(f"cannot add distributions on different groups ({a.group} vs {b.group})")
    return reference_make(
        a.atoms + b.atoms, _ref_add_opt(a.smooth_const, b.smooth_const),
        a.orbit_terms + b.orbit_terms, group=a.group,
    )


def reference_sub(a, b):
    minus = Fraction(-1)  # as b.scale(-1) reads it
    sc = None if b.smooth_const is None else minus * b.smooth_const
    return reference_add(a, reference_make([(p, minus * v) for p, v in b.atoms], sc, (), group=b.group))


def _outcome(f, *args, **kwargs):
    """repr of the result, so that float bits and Fraction/float types count, or the error raised."""
    try:
        return repr(f(*args, **kwargs))
    except (PreconditionError, ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


_TINY = Fraction(1, 10**30)  # below float resolution near 1: a distinct Fraction with the same float
_REAL_LOCATIONS = [
    Fraction(1), Fraction(1) + _TINY, Fraction(1, 3), Fraction(1, 3) + _TINY, Fraction(3, 2), Fraction(-2),
    1.0, 1.0 + 1e-12, 1.0 + 5e-10, 1.0 + 2e-9, 1.0 - 8e-10, 1 / 3, 1.5, 1.5 + 3e-7, -2.0, -2.0 + 1e-10,
]
_COEFFS = st.sampled_from([1, -1, 2, Fraction(1, 3), Fraction(-2, 7), 0.1, 0.2, -0.3, 1e16, -1e16, 1.0, 2.5])
_POINTS = {
    "lattice": st.integers(-3, 3).map(LatticePoint),
    "class": st.sampled_from(["e", "g", "h", "g2"]).map(ConjClass),
    "real": st.sampled_from(_REAL_LOCATIONS).map(RealPoint),
}
_TOLERANCES = st.sampled_from([None, None, DEFAULT_TOLERANCE, 1e-6, 1e-11, 0.0])
_SMOOTH = st.sampled_from([None, 0, 1, Fraction(-1, 2), 0.25, 0.0])


@st.composite
def _atom_lists(draw):
    variant = draw(st.sampled_from(sorted(_POINTS)))
    lists = []
    for _ in range(2):
        if draw(st.integers(0, 9)) == 0:  # now and then a second variant, which make refuses or add rejects
            variant = draw(st.sampled_from(sorted(_POINTS)))
        lists.append(draw(st.lists(st.tuples(_POINTS[variant], _COEFFS), max_size=8)))
    return lists


_THIRD = Fraction(1, 3)


@settings(max_examples=400, deadline=None)
@given(_atom_lists(), _SMOOTH, _SMOOTH, _TOLERANCES)
@example([[(RealPoint(_THIRD), 1), (RealPoint(_THIRD + _TINY), 1), (RealPoint(_THIRD), 1)], []], None, None, None)
def test_one_merge_loop_matches_the_two_path_reference(lists, sc_a, sc_b, tolerance):
    atoms_a, atoms_b = lists
    assert _outcome(make, atoms_a, sc_a, tolerance=tolerance) == _outcome(
        reference_make, atoms_a, sc_a, tolerance=tolerance
    )
    try:
        a = make(atoms_a, sc_a, tolerance=tolerance)
        b = make(atoms_b, sc_b, tolerance=tolerance)
    except PreconditionError:
        return
    assert _outcome(lambda: a + b) == _outcome(reference_add, a, b)
    assert _outcome(lambda: a - b) == _outcome(reference_sub, a, b)


def test_collision_message_names_each_point_by_its_role():
    # in either input order the inexact point sorts first and leads the cluster
    for atoms in ([(RealPoint(Fraction(1)), 1), (RealPoint(1.0 - 1e-10), 1)],
                  [(RealPoint(1.0 - 1e-10), 1), (RealPoint(Fraction(1)), 1)]):
        with pytest.raises(PreconditionError, match=r"exact point 1 and inexact point ~0\.9999999999 "):
            make(atoms)
