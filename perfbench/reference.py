"""Independent references for the benchmark's outputs.

Nothing here imports lefdist.  Toral Lefschetz numbers come from sympy;
Betti numbers from a Chevalley-Eilenberg complex written in the dual
(Maurer-Cartan) form, split into weight blocks and ranked by sympy, then
cross-checked against closed forms (abelian, Heisenberg) and the Kunneth
formula (direct sums).  Flow signs come from the eigenvalues of triangular
return maps, never from a determinant of the conjugated matrix.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

import sympy
from sympy import QQ
from sympy.polys.matrices import DomainMatrix


class ReferenceError(RuntimeError):
    """The benchmark's own reference data is inconsistent (a benchmark bug)."""


# -- numbers on the wire ------------------------------------------------------


def fmt_num(x) -> str:
    if isinstance(x, float):
        return f"~{x!r}"
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# -- toral automorphisms ------------------------------------------------------


@lru_cache(maxsize=None)
def toral_lefschetz(matrix: tuple, k: int) -> int:
    """L(F^k) = det(I - C^k), computed by sympy on the unconjugated C."""
    c = sympy.Matrix(matrix)
    ck = c**k if k > 0 else c.inv() ** (-k)
    return int((sympy.eye(c.rows) - ck).det(method="bareiss"))


def unimodular(n: int, rng, ops: int) -> tuple[list[list[int]], list[list[int]]]:
    """Random P in SL(n, Z) as a product of elementary row operations, with P^-1."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in p]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # P <- E P with E = I + c e_ij; P^-1 <- P^-1 E^-1
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in q:
            row[j] -= c * row[i]
    return p, q


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# -- Chevalley-Eilenberg reference --------------------------------------------


def _wedge_sign(seq) -> tuple[int, tuple] | None:
    """Sort an index sequence; return (sign of the sort, sorted tuple) or None on a repeat."""
    if len(set(seq)) != len(seq):
        return None
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):  # insertion sort counting transpositions
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(seq)


def betti_numbers(dim: int, consts: dict, weights: tuple[int, ...]) -> tuple[int, ...]:
    """Betti numbers of a graded Lie algebra from its structure constants.

    ``consts`` maps 0-based (i, j, k) with i < j to c_ij^k.  The differential
    is the antiderivation with d(theta^k) = -sum_{i<j} c_ij^k theta^i theta^j;
    ``weights`` must make the bracket homogeneous, so d preserves the total
    weight of a monomial and its rank is the sum of the block ranks.
    """
    for (i, j, k) in consts:
        if weights[i] + weights[j] != weights[k]:
            raise ReferenceError(f"weights {weights} do not grade bracket ({i},{j})->{k}")
    dtheta = {k: [] for k in range(dim)}
    for (i, j, k), c in consts.items():
        dtheta[k].append((i, j, -Fraction(c)))

    def d(mono):
        out: dict[tuple, Fraction] = {}
        for r, s in enumerate(mono):
            for i, j, c in dtheta[s]:
                res = _wedge_sign(mono[:r] + (i, j) + mono[r + 1:])
                if res is None:
                    continue
                sign, key = res
                out[key] = out.get(key, 0) + (-1) ** r * sign * c
        return out

    def blocks(degree):
        by_weight: dict[int, list[tuple]] = {}
        for mono in itertools.combinations(range(dim), degree):
            by_weight.setdefault(sum(weights[m] for m in mono), []).append(mono)
        return by_weight

    ranks = []
    for degree in range(dim + 1):
        src, dst = blocks(degree), blocks(degree + 1)
        rank = 0
        for w, cols in src.items():
            rows = {m: r for r, m in enumerate(dst.get(w, []))}
            if not rows:
                continue
            entries: dict[int, dict[int, Fraction]] = {}
            for c, mono in enumerate(cols):
                for key, v in d(mono).items():
                    if v:
                        entries.setdefault(rows[key], {})[c] = QQ(v.numerator, v.denominator)
            if entries:
                rank += DomainMatrix(entries, (len(rows), len(cols)), QQ).rank()
        ranks.append(rank)
    return tuple(
        math.comb(dim, i) - ranks[i] - (ranks[i - 1] if i else 0) for i in range(dim + 1)
    )


# -- the base algebras of the nil workloads ----------------------------------


class Algebra:
    """A nilpotent algebra in its standard basis, with a grading and its catalog name."""

    def __init__(self, name, dim, consts, weights, catalog=None, closed_form=None):
        self.name = name
        self.dim = dim
        self.consts = consts  # {(i, j, k): int}, 0-based, i < j
        self.weights = weights
        self.catalog = catalog  # lefdist catalog spelling, or None
        self.closed_form = closed_form

    def to_json_obj(self, consts=None) -> dict:
        consts = self.consts if consts is None else consts
        brackets: dict[tuple, list] = {}
        for (i, j, k), c in sorted(consts.items()):
            brackets.setdefault((i, j), []).append({"k": k + 1, "c": str(c)})
        return {
            "dim": self.dim,
            "brackets": [{"i": i + 1, "j": j + 1, "out": out} for (i, j), out in brackets.items()],
        }


def abelian(n):
    return Algebra(f"abelian{n}", n, {}, (1,) * n, f"abelian:{n}",
                   tuple(math.comb(n, i) for i in range(n + 1)))


def heisenberg(m):
    n = 2 * m + 1
    consts = {(2 * i, 2 * i + 1, n - 1): 1 for i in range(m)}
    half = [math.comb(2 * m, i) - (math.comb(2 * m, i - 2) if i >= 2 else 0) for i in range(m + 1)]
    return Algebra(f"heisenberg{n}", n, consts, (1,) * (n - 1) + (2,), f"heisenberg:{m}",
                   tuple(half + half[::-1]))


def filiform(n):
    consts = {(0, j, j + 1): 1 for j in range(1, n - 1)}
    return Algebra(f"filiform{n}", n, consts, (1,) + tuple(range(1, n)), f"filiform:{n}")


def direct_sum(*parts):
    consts, weights, off = {}, (), 0
    for p in parts:
        consts.update({(i + off, j + off, k + off): c for (i, j, k), c in p.consts.items()})
        weights += p.weights
        off += p.dim
    closed = kunneth(*(algebra_betti(p) for p in parts))
    return Algebra("+".join(p.name for p in parts), off, consts, weights, closed_form=closed)


@lru_cache(maxsize=None)
def _betti_of(name: str, dim: int, consts_items: tuple, weights: tuple) -> tuple[int, ...]:
    return betti_numbers(dim, dict(consts_items), weights)


def algebra_betti(a: Algebra) -> tuple[int, ...]:
    """Reference Betti numbers, checked against closed forms and Kunneth where they exist."""
    b = _betti_of(a.name, a.dim, tuple(sorted(a.consts.items())), a.weights)
    if a.closed_form is not None and b != a.closed_form:
        raise ReferenceError(f"{a.name}: CE reference {b} != closed form {a.closed_form}")
    return b


def kunneth(*bettis) -> tuple[int, ...]:
    out = (1,)
    for b in bettis:
        out = tuple(
            sum(out[i] * b[d - i] for i in range(len(out)) if 0 <= d - i < len(b))
            for d in range(len(out) + len(b) - 1)
        )
    return out


def scramble(a: Algebra, p, q) -> dict:
    """Structure constants in the basis f_a = sum_i P[i][a] e_i (P^-1 = Q)."""
    n = a.dim
    out = {}
    for x in range(n):
        for y in range(x + 1, n):
            v = [0] * n
            for (i, j, k), c in a.consts.items():
                # [e_i, e_j] = c e_k, and [e_j, e_i] = -c e_k
                v[k] += c * (p[i][x] * p[j][y] - p[j][x] * p[i][y])
            for l in range(n):
                s = sum(q[l][k] * v[k] for k in range(n) if v[k])
                if s:
                    out[(x, y, l)] = s
    return out


# -- flows -------------------------------------------------------------------


def flow_sign(diagonal, k: int) -> int:
    """epsilon at multiple k of an orbit with triangular return map: prod sign(d_i^k - 1)."""
    s = 1
    for d in diagonal:
        dk = Fraction(d) ** k
        if dk == 1:
            raise ReferenceError("return map eigenvalue is a root of unity")
        s *= 1 if dk > 1 else -1
    return s


def flow_atoms(orbits, window: Fraction, tol: float):
    """Expected flow atoms: [(location, coeff)], exact and inexact kept apart.

    ``orbits`` holds (length, diagonal) with length a Fraction or a float.
    Exact locations merge on equality; inexact ones within ``tol`` of the
    smallest point of their cluster.  Raises ReferenceError when two
    clusters come closer than 100 tol, or an exact and an inexact point
    closer than 1e-5: such inputs would test a knife edge, not the merge.
    """
    exact: dict[Fraction, Fraction] = {}
    inexact = []
    for length, diag in orbits:
        k = 1
        while Fraction(length) * k <= window:
            for kk in (k, -k):
                s = flow_sign(diag, kk)
                if isinstance(length, float):
                    inexact.append((length * kk, length * s))
                else:
                    exact[length * kk] = exact.get(length * kk, Fraction(0)) + length * s
            k += 1
    inexact.sort()
    clusters: list[list] = []
    for x, c in inexact:
        if clusters and x - clusters[-1][0] <= tol:
            clusters[-1][1] += c
            continue
        if clusters and x - clusters[-1][0] <= 100 * tol:
            raise ReferenceError(f"inexact atoms at {clusters[-1][0]} and {x} are too close to call")
        clusters.append([x, c])
    for x, _ in clusters:
        if any(abs(float(e) - x) < 1e-5 for e in exact):
            raise ReferenceError(f"inexact atom at {x} is too close to an exact one")
    atoms = [(x, c) for x, c in exact.items() if c != 0] + [(x, c) for x, c in clusters if c != 0]
    atoms.sort(key=lambda xc: float(xc[0]))
    return atoms


# -- output checks -------------------------------------------------------------


def _same(got: str, want: str, rel: float) -> bool:
    """Exact numbers print canonically; inexact ones ("~x") agree to a relative tolerance."""
    if want.startswith("~"):
        return got.startswith("~") and close(float(got[1:]), float(want[1:]), rel)
    return got == want


def _atoms_match(got: list[dict], want: list[list[str]]) -> bool:
    return len(got) == len(want) and all(
        _same(a["at"], at, 1e-12) and _same(a["coeff"], c, 1e-9) for a, (at, c) in zip(got, want)
    )


def check_output(spec: dict, rc, out: str) -> str | None:
    """Return None when the job's output agrees with the reference, else a reason."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        return _CHECKS[spec["type"]](spec, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def _check_atoms(spec, out):
    """mapping-torus, flow, selberg, suspension and surface-suspension reports."""
    obj = json.loads(out)
    if not _atoms_match(obj["distribution"]["atoms"], spec["atoms"]):
        return f"atoms {obj['distribution']['atoms']} != reference {spec['atoms']}"
    terms = [
        [t["class"], t["coeff_factors"]["lefschetz"], t["coeff_factors"]["vol_centralizer"]]
        for t in obj["distribution"].get("orbit_terms", [])
    ]
    if terms != spec.get("terms", []):
        return f"orbit terms {terms} != reference {spec['terms']}"
    for degree, (atoms, smooth) in spec.get("traces", {}).items():
        t = obj["traces"][degree]
        if not _atoms_match(t["atoms"], atoms) or t.get("smooth_const") != smooth:
            return f"trace {degree} differs from the reference"
    if "window" in spec and obj["window"] != spec["window"]:
        return "wrong window"
    if "orbits" in spec and obj["metadata"]["orbits"] != spec["orbits"]:
        return "wrong orbit count"
    return None


def _check_fixed_points(spec, out):
    index_sum, lefschetz, count = json.loads(out)
    want = spec["lefschetz"]
    if (index_sum, lefschetz, count) != (want, want, abs(want)):
        return f"(index sum, L, count) = {(index_sum, lefschetz, count)}, reference L = {want}"
    return None


def _check_nil(spec, out):
    obj = json.loads(out)
    dims = obj["dims"]
    if dims != spec["betti"]:
        return f"Betti numbers {dims} != reference {spec['betti']}"
    if dims != dims[::-1] or sum((-1) ** i * b for i, b in enumerate(dims)) != 0:
        return "Betti numbers not palindromic or alternating sum nonzero"
    if [obj["traces"][str(i)].get("smooth_const") for i in range(len(dims))] != [str(b) for b in dims]:
        return "trace densities differ from the Betti numbers"
    if obj["distribution"]["atoms"] or "smooth_const" in obj["distribution"]:
        return "Lefschetz distribution does not vanish"
    if obj["corollary_check"]["passed"] is not True:
        return "corollary check did not pass"
    return None


def _check_gauss_bonnet(spec, out):
    obj = json.loads(out)
    if obj["topology"] != spec["topology"] or obj["grid"] != spec["grid"]:
        return "wrong grid or topology"
    if obj["chi_estimate"] != spec["chi"]:
        return f"chi_estimate {obj['chi_estimate']} != {spec['chi']}"
    return None


def _check_verify(spec, out):
    obj = json.loads(out)
    return None if obj["passed"] is True and obj["checks"] else "verify battery did not pass"


_CHECKS = {
    "atoms": _check_atoms,
    "fixed_points": _check_fixed_points,
    "nil": _check_nil,
    "gauss_bonnet": _check_gauss_bonnet,
    "verify": _check_verify,
}
