"""Cross-oracle battery: independent brute-force recomputations.

Each check pits a library computation path against a deliberately separate
implementation (different basis conventions, raw enumeration, numerical
quadrature against known answers).  The CLI ``verify`` subcommand and the
test suite both run these.

The suites call the code they check through its module
(``models.flow_distribution``), so a test that patches a name in its source
module reaches them when they run.  Tests patch the ``linalg`` kernels
imported below, such as ``smith_transform``, on this module instead.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

import numpy as np

from . import curvature, lefschetz, lie_cohomology, models
from .distributions import make
from .errors import EnumerationLimitError
from .linalg import IntMatrix, RationalMatrix, determinant, exterior_power, read_int, smith_transform

DEFAULT_SEED = 1785


def battery_seed() -> int:
    """Seed for randomized batteries; LEFSCHETZ_SEED overrides."""
    return read_int(os.getenv("LEFSCHETZ_SEED", DEFAULT_SEED), "LEFSCHETZ_SEED")


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


# -- independent Chevalley-Eilenberg route ----------------------------------


def _oracle_rank(rows) -> int:
    """Rank of rational rows by integer cross-multiplication, apart from linalg's Bareiss loop.

    Each row is scaled to integers.  The last nonzero row is the next pivot
    row, at its first nonzero column c; every other row with an entry in c
    becomes piv * row - f * pivot row, divided by its content (the gcd of its
    entries), and the pivot row leaves.  The rest is zero in column c, so the
    pivot row is independent of it and the rank grows by one.
    """
    pending = []
    for row in rows:
        mult = lcm(*(x.denominator for x in row))
        pending.append([x.numerator * (mult // x.denominator) for x in row])
    found = 0
    while pending:
        prow = pending.pop()
        c = next((j for j, x in enumerate(prow) if x), None)
        if c is None:
            continue
        found += 1
        piv = prow[c]
        for i, row in enumerate(pending):
            f = row[c]
            if f:
                row = [piv * x - f * y for x, y in zip(row, prow)]
                g = gcd(*row)
                pending[i] = [x // g for x in row] if g > 1 else row
    return found


def ce_dims_reversed_basis(a: lie_cohomology.LieAlgebra) -> tuple[int, ...]:
    """Betti numbers via a second CE materialization, reversed basis order.

    Exterior monomials are indexed by DECREASING index tuples, and the
    brackets come from the public ``LieAlgebra.bracket``, once per pair of
    basis vectors.  Row T of d_i is the defining alternating sum

        (dw)(x_0, ..., x_i) = sum_{j<k} (-1)^(j+k) w([x_j, x_k], x_0, ..^x_j..^x_k.., x_i)

    on the basis vectors of T: each term's arguments are sorted into
    decreasing order, which names its monomial, and signed by the parity of
    the inversions of the unsorted arguments.  Each full matrix is ranked by
    ``_oracle_rank``; no subset bookkeeping, component split or elimination
    loop is shared with the main implementation.
    """
    n = a.dim
    units = [tuple(Fraction(int(j == i)) for j in range(n)) for i in range(n)]
    brackets = {(x, y): a.bracket(units[x], units[y]) for x in range(n) for y in range(n)}
    ranks = []
    for i in range(n + 1):
        dom = {mono: c for c, mono in enumerate(itertools.combinations(range(n - 1, -1, -1), i))}
        rows = []
        for T in itertools.combinations(range(n - 1, -1, -1), i + 1):
            row = [Fraction(0)] * len(dom)
            for pj, pk in itertools.combinations(range(i + 1), 2):
                rest = T[:pj] + T[pj + 1 : pk] + T[pk + 1 :]
                for m, coeff in enumerate(brackets[T[pj], T[pk]]):
                    if coeff == 0 or m in rest:
                        continue
                    args = (m,) + rest
                    inversions = sum(x < y for x, y in itertools.combinations(args, 2))
                    sign = (-1) ** (pj + pk + inversions)
                    row[dom[tuple(sorted(args, reverse=True))]] += sign * coeff
            rows.append(row)
        ranks.append(_oracle_rank(rows))
    return tuple(comb(n, i) - ranks[i] - (ranks[i - 1] if i else 0) for i in range(n + 1))


def _exterior_trace_sum(m) -> int | Fraction:
    """det(I - m) as sum_i (-1)^i tr Lambda^i m, from minors: no charpoly and no Bareiss on I - m."""
    return sum((-1) ** i * exterior_power(m, i).trace() for i in range(m.rows + 1))


# -- brute-force fixed-point count -------------------------------------------


def brute_force_fixed_point_count(t, k: int) -> int:
    """Count solutions of (A^k - I) x in Z^n by scanning the 1/d lattice.

    Every solution on the torus has coordinates in (1/d) Z with
    d = |det(A^k - I)|, so a scan of all d^n integer residues is exhaustive.
    The scan is one numpy int64 pass over the residues, bounded by
    ``ENUMERATION_CAP``; it shares nothing with the Smith-form enumeration.
    """
    b = t.power(k) - IntMatrix.identity(t.dim)
    d = abs(determinant(b))
    if d == 0:
        raise ValueError("degenerate: infinitely many fixed points")
    n = t.dim
    if d**n > lefschetz.ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"brute-force scan of {d}^{n} residues exceeds the enumeration cap {lefschetz.ENUMERATION_CAP}"
        )
    # entries reduced mod d in Python ints, so each row-times-residue sum stays below n * d^2
    rows = np.array([[x % d for x in row] for row in b.entries], dtype=np.int64)
    residues = np.indices((d,) * n).reshape(n, -1)
    return int(np.count_nonzero(((rows @ residues) % d == 0).all(axis=0)))


# -- suites -------------------------------------------------------------------


def _gl2_battery():
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
        if abs(a * d - b * c) == 1:
            yield lefschetz.ToralAutomorphism(IntMatrix([[a, b], [c, d]]))


def run_linalg_suite(seed: int) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    ok_det_snf = ok_charpoly = ok_rank = ok_chain = True
    for _ in range(60):
        n = rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        det = determinant(m)
        invs, c = smith_transform(m)
        ok_chain &= all(b % a == 0 for a, b in zip(invs, invs[1:]))
        if det != 0:
            ok_det_snf &= math.prod(invs) == abs(det)
        lhs = determinant(IntMatrix.identity(n) - m)
        ok_charpoly &= lhs == _exterior_trace_sum(m)
        # the columns of C past the rank must be independent and in the kernel; the oracle's loop counts both
        kernel = [[row[j] for row in c.entries] for j in range(len(invs), n)]
        ok_rank &= all(sum(x * y for x, y in zip(row, v)) == 0 for row in m.entries for v in kernel)
        ok_rank &= _oracle_rank(m.entries) == len(invs) and _oracle_rank(kernel) == n - len(invs)
    checks.append(Check("determinant equals product of SNF invariants", ok_det_snf))
    checks.append(Check("det(I - m) equals alternating exterior traces", ok_charpoly))
    checks.append(Check("rank + kernel dimension = cols", ok_rank))
    checks.append(Check("SNF divisibility chain", ok_chain))
    return checks


def run_lefschetz_suite(seed: int) -> list[Check]:
    checks = []
    cat = lefschetz.ToralAutomorphism(IntMatrix([[2, 1], [1, 1]]))
    expected = [-1, -5, -16, -45, -121]
    got_det = [lefschetz.toral_lefschetz(cat, k) for k in range(1, 6)]
    got_enum = [r.count * r.index for r in (lefschetz.fixed_points_toral(cat, k) for k in range(1, 6))]
    checks.append(
        Check(
            "cat map L(F^k), k=1..5, three ways",
            got_det == expected == got_enum,
            f"det/traces: {got_det}, index sums: {got_enum}",
        )
    )
    ok_count = ok_sum = ok_eps = True
    cases = 0
    for t in _gl2_battery():
        # one A^k per k for the enumeration, the det path and the index; the brute-force scan powers A^k itself
        for k, (report, lefschetz_number, index) in enumerate(lefschetz._classical_series(t, 3), 1):
            if report.infinite:
                continue
            cases += 1
            ok_count &= report.count == brute_force_fixed_point_count(t, k)
            ok_sum &= report.count * report.index == lefschetz_number
            ok_eps &= report.epsilon == index == report.index
    checks.append(
        Check(
            "GL(2,Z) battery: SNF count equals brute-force enumeration",
            ok_count,
            f"{cases} cases",
        )
    )
    checks.append(Check("GL(2,Z) battery: index sum equals Lefschetz number", ok_sum))
    checks.append(Check("epsilon = (-1)^n * classical index (n = 2)", ok_eps))
    return checks


def run_cohomology_suite(seed: int) -> list[Check]:
    checks = []
    battery = {spec: lie_cohomology.catalog_algebra(spec) for spec in lie_cohomology.nilpotent_battery()}
    ok_dd = ok_b1 = ok_pd = ok_oracle = True
    for a in battery.values():
        # each sparse integer row of L.d_(i+1), times L.d_i, is zero
        rows = [lie_cohomology._ce_rows(a, i) for i in range(a.dim)]
        for upper, lower in zip(rows[1:], rows):
            for row in upper:
                prod = Counter()
                for c, x in row.items():
                    for j, y in lower[c].items():
                        prod[j] += x * y
                ok_dd &= not any(prod.values())
        dims = lie_cohomology.cohomology_dims(a)
        ok_b1 &= dims.dims[1] == a.dim - len(lie_cohomology._derived(a)[1])
        ok_pd &= dims.dims == dims.dims[::-1]
        ok_oracle &= dims.dims == ce_dims_reversed_basis(a)
    # two unimodular changes of basis, each with a CE component of more than CARNOT_GATE_ROWS rows
    # at degree 2, while the graded catalog bases above keep every component at 12 rows or fewer.
    # filiform:6 (16 rows) is ranked in its Carnot layers; L_5,6 + abelian:1 (17 rows), where
    # [e1,e2] = e3, [e1,e3] = e4, [e1,e4] = e5 and [e2,e3] = e5, has none, and keeps its basis
    scrambled = lie_cohomology.LieAlgebra(6, {
        (1, 2): {1: 1, 4: -1, 5: 1, 6: 1}, (1, 3): {3: 1, 4: 1}, (1, 4): {3: -1, 4: -1, 5: 1, 6: 1},
        (1, 5): {6: -1}, (2, 3): {1: 1, 3: -1, 4: -2, 5: 1, 6: 1}, (2, 4): {1: -1, 3: 1, 4: 2, 5: -2, 6: -2},
        (2, 5): {6: 1}, (3, 4): {5: -1, 6: -1}, (3, 5): {6: 1}, (4, 5): {6: -1},
    })
    unstratified = lie_cohomology.LieAlgebra(6, {
        (1, 2): {3: 1}, (1, 3): {2: 2, 4: 1, 5: -1}, (1, 4): {2: -1, 3: -1, 5: 1}, (1, 5): {3: 1},
        (1, 6): {2: -2, 4: -1, 5: 1}, (2, 3): {2: 1, 5: -1}, (2, 6): {2: -1, 5: 1}, (3, 4): {2: 1, 5: -1},
        (3, 5): {2: -1, 5: 1}, (4, 6): {2: 1, 5: -1}, (5, 6): {2: -1, 5: 1},
    })
    for a in (scrambled, unstratified):
        ok_oracle &= lie_cohomology.cohomology_dims(a).dims == ce_dims_reversed_basis(a)
    checks.append(Check("d.d = 0 on the nilpotent battery", ok_dd))
    checks.append(Check("b^1 = dim g - dim [g, g] on the nilpotent battery", ok_b1))
    checks.append(Check("Poincare duality on nilpotent algebras", ok_pd))
    heis = battery["heisenberg:1"]
    checks.append(
        Check(
            "Heisenberg Betti numbers (1,2,2,1)",
            lie_cohomology.cohomology_dims(heis).dims == (1, 2, 2, 1),
        )
    )
    checks.append(Check("reversed-basis CE oracle agrees (dim <= 6)", ok_oracle))
    return checks


def run_models_suite(seed: int) -> list[Check]:
    checks = []
    cat = lefschetz.ToralAutomorphism(IntMatrix([[2, 1], [1, 1]]))
    window = 3
    classes = [models.ConjugacyClassData("0", None, is_identity=True)]
    for k in range(1, window + 1):
        for kk in (k, -k):
            classes.append(models.ConjugacyClassData(str(kk), _exterior_trace_sum(cat.power(kk))))
    selberg = models.selberg_report(models.HomogeneousSpec(1, 0, tuple(classes), group_kind="R"))
    checks.append(
        Check(
            "Selberg G=R specialization equals mapping torus",
            selberg == models.mapping_torus(cat, window),
        )
    )
    ok_surface = True
    for g in range(2, 11):
        s = models.surface_suspension_traces(g)
        resummed = s.traces[0] - s.traces[1] + s.traces[2]
        ok_surface &= resummed == s.lefschetz == models.suspension(models.SuspensionSpec(1, 2 - 2 * g))
    checks.append(Check("surface suspension traces resum to L (g = 2..10)", ok_surface))
    ok_nil = True
    for spec in lie_cohomology.nilpotent_battery():
        r = models.nil_foliation(lie_cohomology.catalog_algebra(spec))
        ok_nil &= r.lefschetz.is_zero and r.corollary.passed
    checks.append(Check("nilfoliation L vanishes and passes the smooth check", ok_nil))
    corrupted = models.corollary_checks(make([], smooth_const=3))
    checks.append(
        Check("corrupted constant density is flagged", corrupted.applicable and not corrupted.passed)
    )
    p = RationalMatrix([[2, 0], [0, Fraction(1, 2)]])
    orbit = models.ClosedOrbitSpec(1, return_map=p)
    d = models.flow_distribution([orbit], 3)
    atoms_ok = {float(pt.x): c for pt, c in d.atoms} == {
        x: -1 for x in (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)
    }
    o2 = models.ClosedOrbitSpec(Fraction(3, 2), return_map=RationalMatrix([[3]]))
    union = models.flow_distribution([orbit, o2], 3)
    summed = models.flow_distribution([orbit], 3) + models.flow_distribution([o2], 3)
    checks.append(Check("flow signs from diag(2,1/2) return map", atoms_ok))
    checks.append(Check("flow distribution is linear in the orbit list", union == summed))
    return checks


def run_curvature_suite(seed: int) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    flat = curvature.integrate_curvature(curvature.flat_torus_grid(64))
    checks.append(Check("flat torus integrates to exactly 0", flat == 0.0))
    sphere_err = abs(curvature.integrate_curvature(curvature.sphere_grid(256)) - 2.0)
    checks.append(Check("unit sphere integrates to 2 +- 1e-3", sphere_err <= 1e-3, f"error {sphere_err:.2e}"))
    worst = 0.0
    for i in range(20):
        m = curvature.random_torus_metric(rng, 256, conformal=(i % 2 == 0))
        worst = max(worst, abs(curvature.integrate_curvature(m)))
    checks.append(
        Check("20 random doubly periodic metrics integrate to 0 +- 1e-3", worst <= 1e-3, f"worst {worst:.2e}")
    )
    ok_const = all(
        curvature.const_curvature_chi(-1.0, 4 * math.pi * (g - 1)) == float(2 - 2 * g)
        for g in range(2, 6)
    )
    checks.append(Check("constant-curvature chi exact for g = 2..5", ok_const))
    return checks


SUITES = {
    "linalg": run_linalg_suite,
    "lefschetz": run_lefschetz_suite,
    "cohomology": run_cohomology_suite,
    "models": run_models_suite,
    "curvature": run_curvature_suite,
}


def run_suite(name: str, seed: int) -> list[Check]:
    """Run one named suite, or all of them in a fixed order."""
    if name == "all":
        out = []
        for suite in SUITES.values():
            out.extend(suite(seed))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](seed)
