"""Atomic distributions on the structural group.

A distribution here is a finite sum of weighted Dirac atoms, plus an optional
constant smooth density (relative to the fixed volume form, normalized so the
group has volume one), plus symbolic orbital-integral terms that can be
carried around but never paired numerically.

Exactness is sticky: atom locations and coefficients are ``Fraction`` when
exact and ``float`` when not, and the two never merge implicitly.  Inexact
locations within ``DEFAULT_TOLERANCE`` of each other are considered the same
atom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import PreconditionError
from .linalg import Number, num_to_str, to_number

__all__ = [
    "DEFAULT_TOLERANCE",
    "LatticePoint",
    "RealPoint",
    "ConjClass",
    "GroupPoint",
    "IDENTITY",
    "OrbitTerm",
    "AtomicDistribution",
    "make",
]

DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class LatticePoint:
    """Element k of the integer lattice Z inside G = R (mapping-torus case)."""

    k: int

    @property
    def value(self):
        return self.k

    def __str__(self):
        return str(self.k)


@dataclass(frozen=True)
class RealPoint:
    """Point of G = R; exact when held as a Fraction, inexact as a float."""

    x: Number

    def __post_init__(self):
        object.__setattr__(self, "x", to_number(self.x))

    @property
    def exact(self) -> bool:
        return isinstance(self.x, Fraction)

    @property
    def value(self):
        return self.x

    def __str__(self):
        return num_to_str(self.x)


@dataclass(frozen=True)
class ConjClass:
    """Conjugacy-class label in an abstract group; "e" is the identity."""

    label: str

    @property
    def value(self):
        return self.label

    def __str__(self):
        return self.label


GroupPoint = LatticePoint | RealPoint | ConjClass

IDENTITY = ConjClass("e")


_GROUP_OF_VARIANT = {LatticePoint: "Z", RealPoint: "R", ConjClass: "abstract"}


def _sort_key(p: GroupPoint):
    if isinstance(p, LatticePoint):
        return (p.k,)
    if isinstance(p, RealPoint):
        # the exact value only breaks a float tie, so equal Fractions end up adjacent; an exact
        # value past the float range sorts as +-inf, its sign read by comparison, not by float()
        try:
            return (float(p.x), not p.exact, p.x)
        except OverflowError:
            return (math.inf if p.x > 0 else -math.inf, False, p.x)
    return (p.label,)


@dataclass(frozen=True)
class OrbitTerm:
    """Symbolic Selberg summand L(alpha(gamma)) * vol(centralizer) * (orbital integral).

    The coefficient is kept factored; the orbital integral itself stays
    symbolic, so terms can be compared and serialized but not paired.
    """

    class_label: str
    lefschetz: Number
    vol_centralizer: Number

    def __post_init__(self):
        object.__setattr__(self, "lefschetz", to_number(self.lefschetz))
        object.__setattr__(self, "vol_centralizer", to_number(self.vol_centralizer))

    def to_json_obj(self) -> dict:
        return {
            "class": self.class_label,
            "coeff_factors": {
                "lefschetz": num_to_str(self.lefschetz),
                "vol_centralizer": num_to_str(self.vol_centralizer),
            },
        }


@dataclass(frozen=True)
class AtomicDistribution:
    """Canonical-form distribution: merged atoms, no zero coefficients."""

    atoms: tuple[tuple[GroupPoint, Number], ...] = ()
    smooth_const: Number | None = None
    orbit_terms: tuple[OrbitTerm, ...] = ()
    group: str = "abstract"

    @property
    def is_zero(self) -> bool:
        return not self.atoms and not self.orbit_terms and self.smooth_const is None

    @property
    def purely_smooth(self) -> bool:
        return not self.atoms and not self.orbit_terms

    # -- linear structure ---------------------------------------------------
    def __add__(self, other: "AtomicDistribution") -> "AtomicDistribution":
        if self.group != other.group:
            raise PreconditionError(
                f"cannot add distributions on different groups ({self.group} vs {other.group})"
            )
        return make(
            self.atoms + other.atoms,
            (self.smooth_const or 0) + (other.smooth_const or 0),
            self.orbit_terms + other.orbit_terms,
            group=self.group,
        )

    def __sub__(self, other: "AtomicDistribution") -> "AtomicDistribution":
        return self + other.scale(-1)

    def scale(self, c) -> "AtomicDistribution":
        c = to_number(c)
        if self.orbit_terms:
            raise PreconditionError("cannot scale a distribution with symbolic orbit terms")
        sc = None if self.smooth_const is None else c * self.smooth_const
        return make(
            [(p, c * v) for p, v in self.atoms], sc, (), group=self.group
        )

    # -- pairing --------------------------------------------------------
    def pair(self, f: Callable, integral_of_f=None):
        """<d, f> = sum coeff * f(point value) + smooth_const * integral(f).

        ``integral_of_f`` is the integral of f against the reference volume
        form; it is required iff a smooth part is present.  Distributions with
        symbolic orbit terms refuse to pair.
        """
        if self.orbit_terms:
            raise PreconditionError(
                "pairing refused: distribution carries symbolic orbit terms"
            )
        if self.smooth_const is not None and integral_of_f is None:
            raise PreconditionError(
                "pairing requires integral_of_f when a smooth part is present"
            )
        total = Fraction(0)
        for p, c in self.atoms:
            total = total + c * f(p.value)
        if self.smooth_const is not None:
            total = total + self.smooth_const * integral_of_f
        return total

    # -- serialization ----------------------------------------------------
    def to_json_obj(self) -> dict:
        obj: dict = {"group": self.group}
        obj["atoms"] = [
            {"at": str(p), "coeff": num_to_str(c)} for p, c in self.atoms
        ]
        if self.smooth_const is not None:
            obj["smooth_const"] = num_to_str(self.smooth_const)
        if self.orbit_terms:
            obj["orbit_terms"] = [t.to_json_obj() for t in self.orbit_terms]
        return obj


def make(
    atoms=(),
    smooth_const=None,
    orbit_terms=(),
    group: str | None = None,
    tolerance: float | None = None,
) -> AtomicDistribution:
    """Canonicalize: sort, merge provably-equal neighbours, drop zeros.

    One pass over the atoms, stably sorted by location, adds each atom to the
    cluster before it when it is the same point as that cluster's first
    location, so coefficients are summed in input order.  Exact locations
    merge on equality, inexact ones within the tolerance (default
    ``DEFAULT_TOLERANCE``).  An exact and an inexact location that look equal
    raise unless ``tolerance`` is passed explicitly, in which case they merge
    to an inexact atom at the float of the first location, or at the inexact
    partner's location when the first is past the float range.  A negative
    tolerance raises, and a coefficient that is not a finite number, given or
    summed, raises a ValueError that names its atom's location.
    """
    explicit_tol = tolerance is not None
    if explicit_tol and tolerance < 0:
        raise PreconditionError(f"tolerance must be >= 0, got {tolerance!r}")
    tol = Fraction(tolerance if explicit_tol else DEFAULT_TOLERANCE)
    norm: list[tuple[GroupPoint, Number]] = []
    variants = set()
    for p, c in atoms:
        if not isinstance(p, (LatticePoint, RealPoint, ConjClass)):
            raise PreconditionError(f"atom location {p!r} is not a group point")
        variants.add(type(p))
        try:
            norm.append((p, to_number(c, "the coefficient")))
        except ValueError as exc:  # e.g. a product past the float range: name the atom
            raise ValueError(f"atom at {p}: {exc}") from None
    if len(variants) > 1:
        names = sorted(v.__name__ for v in variants)
        raise PreconditionError(f"cannot mix group-point variants in one distribution: {names}")
    inferred = _GROUP_OF_VARIANT[variants.pop()] if variants else None
    if group is None:
        group = inferred if inferred is not None else "abstract"
    elif inferred is not None and group != inferred:
        raise PreconditionError(
            f"declared group {group!r} does not match atom variant ({inferred!r})"
        )

    merged: list[list] = []  # [representative point, summed coefficient], in sorted order
    for p, c in sorted(norm, key=lambda pc: _sort_key(pc[0])):
        if merged and _merges(merged[-1][0], p, tol, explicit_tol):
            q = merged[-1][0]
            if isinstance(q, RealPoint) and q.exact and not p.exact:
                try:
                    merged[-1][0] = RealPoint(float(q.x))
                except OverflowError:  # past the float range: the inexact partner's value
                    merged[-1][0] = p
            merged[-1][1] = _sum(merged[-1][1], c, merged[-1][0])
        else:
            merged.append([p, c])
    merged = [(p, c) for p, c in merged if c != 0]

    if smooth_const is not None:
        smooth_const = to_number(smooth_const)
        if smooth_const == 0:
            smooth_const = None

    terms = tuple(
        sorted(orbit_terms, key=lambda t: (t.class_label, str(t.lefschetz)))
    )
    return AtomicDistribution(tuple(merged), smooth_const, terms, group)


def _sum(a: Number, b: Number, at: GroupPoint) -> Number:
    """a + b; an exact term past the float range is added exactly and the sum rounded once.
    A sum that is still past the float range raises a ValueError naming the location ``at``."""
    try:
        s = a + b
    except OverflowError:  # an exact term with no float
        s = math.inf
    if type(s) is not float or math.isfinite(s):
        return s
    try:
        return float(Fraction(a) + Fraction(b))
    except OverflowError:
        raise ValueError(f"atom at {at}: the merged coefficient is past the float range") from None


def _merges(q: GroupPoint, p: GroupPoint, tol: Fraction, explicit_tol: bool) -> bool:
    """Whether an atom at p joins its sorted predecessor's cluster, represented by q.

    Lattice points, classes and two exact reals merge on equality, two inexact
    reals within ``tol``; an exact and an inexact real within ``tol`` raise
    unless the tolerance was passed explicitly.
    """
    if not isinstance(p, RealPoint) or p.exact and q.exact:
        return p == q
    if abs(Fraction(p.x) - Fraction(q.x)) > tol:
        return False
    if p.exact != q.exact and not explicit_tol:
        exact, inexact = (p, q) if p.exact else (q, p)
        raise PreconditionError(
            f"exact point {exact} and inexact point {inexact} are within the "
            "default tolerance; pass an explicit tolerance to merge them"
        )
    return True
