"""Lefschetz-distribution constructors for the closed-form example families.

Each constructor instantiates the distribution of one family on a finite
window supplied by the caller (the full object is an infinite atomic series;
any pairing against a compactly supported test function only sees a window).

Families: mapping tori of toral automorphisms or graded cohomology maps,
codimension-one flows with prescribed closed orbits, suspensions over compact
groups, the genus-g hyperbolic surface suspension with its degreewise traces,
nilpotent homogeneous foliations, and the Selberg-type report for bundles
over homogeneous spaces.  A k-series reads the power sums of one
characteristic polynomial, one k at a time: det(I - M^k) and det(I - M^-k)
(toral mapping-torus atoms, flow signs) from ``linalg.det_series``, and the
traces of a graded map's degrees from ``linalg._trace_series``.  Only the toral
det path builds powers: A^k from ``linalg.powers`` of A, A^-k from that of A^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .distributions import IDENTITY, AtomicDistribution, LatticePoint, OrbitTerm, RealPoint, make
from .errors import InconsistencyError, NotSimpleError, PreconditionError
from .lefschetz import GradedMap, ToralAutomorphism, _lefschetz_series, _refuse_unprintable
from .lie_cohomology import GradedDims, LieAlgebra, _derived, cohomology_dims, is_nilpotent
from .linalg import (
    Number, RationalMatrix, _trace_series, charpoly, det_series, determinant, read_int, require_printable, to_number,
)

__all__ = [
    "MAX_FLOW_MULTIPLES",
    "ClosedOrbitSpec",
    "SuspensionSpec",
    "ConjugacyClassData",
    "HomogeneousSpec",
    "SurfaceSuspension",
    "NilFoliationReport",
    "CorollaryReport",
    "mapping_torus",
    "flow_distribution",
    "suspension",
    "surface_suspension_traces",
    "nil_foliation",
    "selberg_report",
    "corollary_checks",
]

# -- mapping tori ------------------------------------------------------------


def mapping_torus(source: ToralAutomorphism | GradedMap, window: int) -> AtomicDistribution:
    """chi(X) . delta_0 + sum_{0 < |k| <= window} L(F^k) . delta_k on Z.

    For a toral automorphism every L(F^k) gets the ring and det-vs-trace
    checks of :func:`toral_lefschetz` (which stay evaluable even when fixed
    points degenerate); chi(T^n) = 0.  A toral window whose last value is
    certainly past MAX_PRINTED_DIGITS is refused first, then one past
    MAX_TORUS_WINDOW.  For a graded cohomology map L(F^k) is the alternating
    trace of the k-th powers and chi the alternating dimension sum.
    """
    if window < 0:
        raise PreconditionError("window must be >= 0")
    if isinstance(source, ToralAutomorphism):
        _refuse_unprintable(source, window, f"L(F^{window})")
        chi, series = 0, _lefschetz_series
    elif isinstance(source, GradedMap):
        chi, series = source.euler_characteristic, _graded_series
    else:
        raise PreconditionError("source must be a ToralAutomorphism or a GradedMap")
    if window > MAX_TORUS_WINDOW:
        raise PreconditionError(f"window {window} is more than MAX_TORUS_WINDOW = {MAX_TORUS_WINDOW}")
    atoms = [(LatticePoint(0), Fraction(chi))]
    for k, (pos, neg) in enumerate(series(source, window) if window else (), 1):
        atoms += [(LatticePoint(k), pos), (LatticePoint(-k), neg)]
    return make(atoms, group="Z")


def _graded_series(g: GradedMap, window: int):
    """(L(F^k), L(F^-k)) for k = 1..window: alternating sums of ``_trace_series``, each checked as it comes."""
    degrees = zip(*(_trace_series(charpoly(m), window) for m in g.maps))
    for k, traces in enumerate(degrees, 1):
        pos, neg = (sum((-1) ** i * t for i, t in enumerate(side)) for side in zip(*traces))
        yield require_printable(pos, f"L(F^{k})"), require_printable(neg, f"L(F^{-k})")


# -- codimension-one flows ----------------------------------------------------


@dataclass(frozen=True)
class ClosedOrbitSpec:
    """Primitive closed orbit: period plus linearized leafwise return map.

    Give either an invertible ``return_map`` (signs are derived from
    det(P^k - I), so the simplicity assumption is checked) or a raw
    ``signs`` map k -> +-1, taken as given.  Both are checked when the orbit
    is built, whatever the window: a singular return map and a sign other
    than +-1 are refused.
    """

    length: Number
    return_map: RationalMatrix | None = None
    signs: dict[int, int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "length", to_number(self.length))
        if self.length <= 0:
            raise PreconditionError("orbit length must be positive")
        if (self.return_map is None) == (self.signs is None):
            raise PreconditionError("give exactly one of return_map or signs")
        if self.return_map is not None:
            if not self.return_map.is_square:
                raise PreconditionError("return map must be square")
            if determinant(self.return_map) == 0:
                raise PreconditionError("return map is singular")
        else:
            for k, s in self.signs.items():
                if s not in (-1, 1):
                    raise PreconditionError(f"sign for k={k} must be +-1, got {s}")

    def sign(self, k: int, orbit_name: str, det) -> int:
        """epsilon at the k-th multiple: the paper-convention index of P^k, sign det(P^k - I).

        ``det`` is det(I - P^k), from the caller (``flow_distribution``), and
        det(P^k - I) = (-1)^n det(I - P^k); the ``signs`` route ignores it.
        """
        if k == 0:
            raise PreconditionError("k must be nonzero")
        if self.signs is not None:
            try:
                return self.signs[k]
            except KeyError:
                raise PreconditionError(
                    f"{orbit_name}: no sign supplied for multiple k={k}"
                ) from None
        if det == 0:
            raise NotSimpleError(f"{orbit_name} is not simple at multiple k={k}: det(P^k - I) = 0")
        return 1 if (-1) ** self.return_map.rows * det > 0 else -1


# Each multiple k of an orbit costs one Newton step of ``det_series`` and two atoms: 200
# take about 8 ms for a dense 3x3 rational P on a 2-vCPU Xeon.  Test and benchmark flows
# have at most 133.
MAX_FLOW_MULTIPLES = 200

# A map with an eigenvalue on the unit circle gets no bound from MAX_PRINTED_DIGITS.  The cap bounds
# the steps of a window, not their size: on a 2-vCPU Xeon the quarter turn takes 0.55 s at the cap,
# but [[1000001,1000000,0],[1,1,0],[0,0,1]], whose every L is 0, takes 13 s at window 3000 as its
# powers grow.  The cap is above the cat map's last printable window, 10287: the digit cap refuses 10288.
MAX_TORUS_WINDOW = 12000


def flow_distribution(
    orbits, window, tolerance: float | None = None
) -> AtomicDistribution:
    """sum_c l(c) sum_{k != 0} epsilon_{k l(c)}(c) . delta_{k l(c)}, |k l(c)| <= window.

    Coincident multiples of commensurable orbits merge additively; exact and
    inexact lengths only merge under an explicit tolerance.  An orbit with
    more than MAX_FLOW_MULTIPLES multiples in the window is refused up front.
    """
    window = to_number(window)
    if window <= 0:
        raise PreconditionError("window must be positive")
    w = Fraction(window)
    atoms = []
    for idx, orbit in enumerate(orbits):
        name = f"orbit {idx} (length {orbit.length})"
        ell = orbit.length
        multiples = w // Fraction(ell)
        if multiples > MAX_FLOW_MULTIPLES:
            raise PreconditionError(
                f"{name}: {multiples} multiples fit in the window, more than MAX_FLOW_MULTIPLES = {MAX_FLOW_MULTIPLES}"
            )
        if orbit.return_map is None:
            series = [(None, None)] * multiples
        else:
            series = det_series(charpoly(orbit.return_map), multiples)
        for k, (pos, neg) in enumerate(series, 1):
            atoms.append((RealPoint(ell * k), ell * orbit.sign(k, name, pos)))
            atoms.append((RealPoint(-ell * k), ell * orbit.sign(-k, name, neg)))
    return make(atoms, group="R", tolerance=tolerance)


# -- suspensions --------------------------------------------------------------


@dataclass(frozen=True)
class SuspensionSpec:
    """Suspension data: vol(G), chi(X), optionally the Betti numbers of X."""

    vol_g: Number
    chi_x: int
    betti: GradedDims | None = None

    def __post_init__(self):
        object.__setattr__(self, "vol_g", to_number(self.vol_g))
        if self.vol_g <= 0:
            raise PreconditionError("vol(G) must be positive")
        if self.betti is not None and self.betti.euler_characteristic != self.chi_x:
            raise PreconditionError(
                "chi_x does not match the alternating sum of the supplied Betti numbers"
            )


def suspension(s: SuspensionSpec) -> AtomicDistribution:
    """vol(G) . chi(X) . delta_e, valid on the whole group."""
    return make([(IDENTITY, s.vol_g * s.chi_x)], group="abstract")


@dataclass(frozen=True)
class SurfaceSuspension:
    """Degreewise traces of the genus-g hyperbolic surface suspension."""

    genus: int
    traces: tuple[AtomicDistribution, AtomicDistribution, AtomicDistribution]
    lefschetz: AtomicDistribution
    betti_lambda: tuple[Number, Number, Number]
    chi_lambda: Number


def surface_suspension_traces(genus: int, vol_g: Number = Fraction(1)) -> SurfaceSuspension:
    """Tr^0 = Tr^2 = 1, Tr^1 = (2g-2) vol(G) . delta_e + 2, L = (2-2g) vol(G) . delta_e.

    The smooth constants are densities relative to the unit-volume reference
    form.  The alternating sum of the emitted traces is recomputed and checked
    against the direct suspension formula rather than assumed.
    """
    vol_g = to_number(vol_g)
    if genus < 2:
        raise PreconditionError("genus must be >= 2 (hyperbolic leaf metric required)")
    if vol_g <= 0:
        raise PreconditionError("vol(G) must be positive")
    tr0 = make([], smooth_const=1, group="abstract")
    tr1 = make([(IDENTITY, (2 * genus - 2) * vol_g)], smooth_const=2, group="abstract")
    tr2 = make([], smooth_const=1, group="abstract")
    lefschetz = tr0 - tr1 + tr2
    direct = suspension(SuspensionSpec(vol_g, 2 - 2 * genus))
    if lefschetz != direct:
        raise InconsistencyError(
            "alternating trace sum disagrees with the suspension formula"
        )
    return SurfaceSuspension(
        genus=genus,
        traces=(tr0, tr1, tr2),
        lefschetz=lefschetz,
        betti_lambda=(Fraction(0), (2 * genus - 2) * vol_g, Fraction(0)),
        chi_lambda=(2 - 2 * genus) * vol_g,
    )


# -- nilpotent homogeneous foliations -----------------------------------------


@dataclass(frozen=True)
class CorollaryReport:
    """Outcome of the purely-smooth vanishing check (positive codimension)."""

    applicable: bool
    passed: bool
    detail: str


def corollary_checks(d: AtomicDistribution) -> CorollaryReport:
    """A purely smooth Lefschetz distribution in positive codimension must vanish.

    Every foliation built here has positive codimension, so the criterion
    always applies to a purely smooth ``d``.  Distributions with atoms or
    orbital terms are outside the criterion's hypothesis and pass vacuously.
    """
    if not d.purely_smooth:
        return CorollaryReport(
            applicable=False,
            passed=True,
            detail="distribution has atomic or orbital support; vanishing criterion not applicable",
        )
    if d.smooth_const is None:
        return CorollaryReport(
            applicable=True, passed=True, detail="purely smooth and identically zero"
        )
    return CorollaryReport(
        applicable=True,
        passed=False,
        detail=(
            f"purely smooth with nonzero constant density {d.smooth_const}; "
            "a smooth Lefschetz distribution in positive codimension must be zero"
        ),
    )


@dataclass(frozen=True)
class NilFoliationReport:
    dims: GradedDims
    traces: tuple[AtomicDistribution, ...]
    lefschetz: AtomicDistribution
    corollary: CorollaryReport


def nil_foliation(a: LieAlgebra) -> NilFoliationReport:
    """Tr^i = dim H^i(k) as constant densities; L = alternating sum = 0.

    Requires a nilpotent algebra of dimension >= 1 (the example family lives
    on a nilmanifold with simply connected nilpotent structural group).
    Poincare duality b_i = b_(n-i) of the Betti numbers is asserted, and the
    vanishing of L is recomputed from the emitted traces and asserted.  Both
    hold whatever the CE ranks r_i are, since b_i = C(n,i) - r_i - r_(i-1);
    so b_1 = n - dim [g, g], taken from the bracket span instead of a rank, is
    asserted too.
    """
    if a.dim == 0:
        raise PreconditionError("nil_foliation requires a Lie algebra of dimension >= 1, got dimension 0")
    if not is_nilpotent(a):
        raise PreconditionError(
            "nil_foliation requires a nilpotent Lie algebra "
            "(nilpotent structural group hypothesis)"
        )
    dims = cohomology_dims(a)
    if dims.dims != dims.dims[::-1]:
        raise InconsistencyError(f"nilfoliation Betti numbers {dims.dims} break Poincare duality")
    traces = tuple(make([], smooth_const=b, group="abstract") for b in dims)
    lefschetz = make([], smooth_const=sum((-1) ** i * (t.smooth_const or 0) for i, t in enumerate(traces)))
    if not lefschetz.is_zero:
        raise InconsistencyError("alternating sum of nilfoliation traces is not zero")
    derived = len(_derived(a)[1])
    if dims.dims[1] != a.dim - derived:
        raise InconsistencyError(
            f"nilfoliation b^1 = {dims.dims[1]}, but dim g - dim [g, g] = {a.dim} - {derived}"
        )
    return NilFoliationReport(dims, traces, lefschetz, corollary_checks(lefschetz))


# -- bundles over homogeneous spaces ------------------------------------------


@dataclass(frozen=True)
class ConjugacyClassData:
    """One conjugacy class gamma: its Lefschetz number and centralizer volume.

    Only the identity may omit the Lefschetz number (``None``).
    """

    label: str
    lefschetz: Number | None
    vol_centralizer: Number = Fraction(1)
    is_identity: bool = False

    def __post_init__(self):
        if self.lefschetz is not None:
            object.__setattr__(self, "lefschetz", to_number(self.lefschetz))
        elif not self.is_identity:
            raise PreconditionError(f"class {self.label!r}: a Lefschetz number is required")
        object.__setattr__(self, "vol_centralizer", to_number(self.vol_centralizer))
        if self.vol_centralizer <= 0:
            raise PreconditionError("centralizer volume must be positive")


@dataclass(frozen=True)
class HomogeneousSpec:
    """Bundle over a homogeneous space: volumes, chi(X) and conjugacy data."""

    vol_quotient: Number
    chi_x: int
    classes: tuple[ConjugacyClassData, ...] = ()
    group_kind: str = "abstract"

    def __post_init__(self):
        object.__setattr__(self, "vol_quotient", to_number(self.vol_quotient))
        object.__setattr__(self, "classes", tuple(self.classes))
        if self.vol_quotient <= 0:
            raise PreconditionError("vol(Gamma\\G) must be positive")
        if self.group_kind not in ("abstract", "R"):
            raise PreconditionError("group_kind must be 'abstract' or 'R'")
        if sum(1 for c in self.classes if c.is_identity) != 1:
            raise PreconditionError("exactly one conjugacy class must be the identity")
        labels = [c.label for c in self.classes]
        if len(set(labels)) != len(labels):
            raise PreconditionError(f"class labels must be distinct, got {labels}")


def selberg_report(h: HomogeneousSpec) -> AtomicDistribution:
    """vol(Gamma\\G) chi(X) . delta_e plus one orbital term per nontrivial class.

    With ``group_kind = "R"`` (Gamma = Z acting by powers of a single map)
    every orbit is a point: class labels parse as integers k, one class per k,
    and the terms collapse to atoms L(F^k) vol(centralizer) . delta_k,
    reproducing the mapping-torus series.
    """
    nontrivial = [c for c in h.classes if not c.is_identity]
    identity_coeff = h.vol_quotient * h.chi_x
    if h.group_kind == "R":
        atoms = [(LatticePoint(0), identity_coeff)]
        labels = {}
        for c in nontrivial:
            try:
                k = read_int(c.label, "class label")
            except ValueError:
                raise PreconditionError(
                    f"class label {c.label!r} must parse as an integer when group_kind is 'R'"
                ) from None
            if k == 0:
                raise PreconditionError("nontrivial class label 0 clashes with the identity")
            if k in labels:
                raise PreconditionError(f"class labels {labels[k]!r} and {c.label!r} both name k = {k}")
            labels[k] = c.label
            try:
                atoms.append((LatticePoint(k), c.lefschetz * c.vol_centralizer))
            except OverflowError:  # an exact L(F^k) past the float range times an inexact volume
                raise ValueError(f"atom at {LatticePoint(k)}: the coefficient is past the float range") from None
        return make(atoms, group="Z")
    atoms = [(IDENTITY, identity_coeff)]
    terms = tuple(OrbitTerm(c.label, c.lefschetz, c.vol_centralizer) for c in nontrivial)
    return make(atoms, orbit_terms=terms, group="abstract")
