"""Seeded job lists for the four workloads, each job paired with its reference.

A workload is one fixed list of jobs (a "pass").  ``build(name, seed, dir)``
returns the jobs the worker runs, the check spec of each job (kept by
run.py, never shown to the program) and the input files to write.  The same
(name, seed) always gives byte-identical jobs and files.

Sizes are fixed per job slot, and the seed randomizes inputs only in ways
that leave the work unchanged or nearly so: sign flips of a fixed
conjugation or change of basis (flow return maps included), the values
of volumes, Euler characteristics and metric grids, catalog-or-JSON formats
and the order of the jobs.  So a pass costs the same for every seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import reference as ref

WORKLOADS = ("toral", "nil_graded", "nil_scrambled", "cli_mix")


@dataclass
class Workload:
    jobs: list[dict] = field(default_factory=list)  # what the worker runs
    checks: list[dict] = field(default_factory=list)  # reference per job
    files: dict[str, str] = field(default_factory=dict)  # relative path -> text

    def add(self, job: dict, check: dict):
        self.jobs.append(job)
        self.checks.append(check)

    def shuffle(self, rng: random.Random):
        order = list(range(len(self.jobs)))
        rng.shuffle(order)
        self.jobs = [self.jobs[i] for i in order]
        self.checks = [self.checks[i] for i in order]


def build(name: str, seed: int, input_dir: str) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    w = Workload()
    _GENERATORS[name](w, rng, input_dir)
    w.shuffle(rng)
    for i, job in enumerate(w.jobs):
        job["id"] = i
    return w


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# -- toral ---------------------------------------------------------------------


def companion(coeffs):
    """Companion matrix of x^n - sum_i coeffs[i] x^i; det = +-coeffs[0]."""
    n = len(coeffs)
    m = [[0] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = 1
    for i in range(n):
        m[i][n - 1] = coeffs[i]
    return m


# Hyperbolic matrices in GL(n, Z): no eigenvalue on the unit circle, so every
# power has finitely many fixed points.  Spectral radii lie in 1.2 .. 2.7.
POOL = {
    2: [[[2, 1], [1, 1]], [[1, 1], [1, 0]], [[3, 1], [2, 1]], [[2, 1], [3, 2]]],
    3: [companion(c) for c in ([1, -1, -1], [1, 0, 1], [-1, 1, -1], [1, -1, 2])],
    4: [companion(c) for c in ([1, -1, -1, -1], [-1, -1, -1, 2], [1, -1, 0, 2], [1, -1, 1, 1])],
    5: [companion(c) for c in ([1, -1, -1, -1, 2], [-1, -1, -1, -1, 1], [-1, -1, -1, 0, 2], [1, -1, -1, 1, 2])],
    6: [companion(c) for c in ([1, -1, -1, -1, 1, 1], [-1, -1, -1, -1, 1, 1], [1, -1, -1, -1, -1, 2], [-1, -1, -1, -1, 0, 1])],
}

# (dimension, window) of the mapping-torus jobs; each is used twice per pass.
MAPPING_TORUS_SLOTS = (
    [(2, w) for w in (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16)]
    + [(3, w) for w in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)]
    + [(4, w) for w in (1, 2, 3, 4, 5, 6)]
    + [(5, w) for w in (1, 2, 3, 4)]
    + [(6, 1), (6, 1), (6, 2)]
)
# Fixed-point jobs: target counts log-spaced over 10^2 .. 10^4, n = 2, 3, 4 in turn;
# the (C, k) nearest the target is taken.
FIXED_POINT_SLOTS = [((2, 3, 4)[i % 3], 10 ** (2 + 2 * i / 29)) for i in range(30)]


def flip_signs(m, rng):
    """D M D for a seeded diagonal D of signs: the entries keep their sizes."""
    d = [rng.choice((-1, 1)) for _ in m]
    return [[d[i] * d[j] * x for j, x in enumerate(row)] for i, row in enumerate(m)]


def conjugate(c, rng, slot: str):
    """D P C P^-1 D: P in SL(n, Z) fixed per slot, D seeded signs.

    The work of the exact kernels depends on the sizes and the zero pattern
    of the entries, which P sets and D keeps, so a slot costs the same for
    every seed.
    """
    p, q = ref.unimodular(len(c), random.Random(f"conjugate:{slot}"), ops=len(c))
    return flip_signs(ref.matmul(ref.matmul(p, c), q), rng)


def _key(m) -> tuple:
    return tuple(tuple(r) for r in m)


def _torus_check(c, window):
    """Atoms L(F^k) = det(I - C^k), 0 < |k| <= window, of the unconjugated C (chi = 0)."""
    series = [(k, ref.toral_lefschetz(_key(c), k)) for k in range(-window, window + 1) if k]
    return {"type": "atoms", "window": window, "atoms": [[str(k), str(v)] for k, v in series if v]}


def _fixed_point_candidates(n):
    out = []
    for c in POOL[n]:
        for k in range(1, 80):
            count = abs(ref.toral_lefschetz(_key(c), k))
            if count > 10**4:
                break
            if count >= 100:
                out.append((count, c, k))
    return out


def _build_toral(w: Workload, rng, _dir):
    for slot, (n, window) in enumerate(MAPPING_TORUS_SLOTS * 2):
        c = POOL[n][slot % len(POOL[n])]
        a = conjugate(c, rng, f"toral-mt-{slot}")
        argv = ["mapping-torus", "--matrix", _compact(a), "--window", str(window)]
        w.add({"kind": "cli", "argv": argv}, _torus_check(c, window))
    candidates = {n: _fixed_point_candidates(n) for n in (2, 3, 4)}
    for slot, (n, target) in enumerate(FIXED_POINT_SLOTS):
        _, c, k = min(candidates[n], key=lambda t: abs(math.log(t[0] / target)))
        a = conjugate(c, rng, f"toral-fp-{slot}")
        w.add(
            {"kind": "fixed_points", "matrix": a, "k": k},
            {"type": "fixed_points", "lefschetz": ref.toral_lefschetz(_key(c), k)},
        )


# -- nilpotent algebras ----------------------------------------------------------


def nil_bases():
    """(algebra, copies per pass): dimensions 6..9, more jobs at the cheap end.

    A pass has over 100 jobs, so one pass alone puts ten beyond the p90.
    """
    h1, h2 = ref.heisenberg(1), ref.heisenberg(2)
    return [
        (ref.filiform(6), 10), (ref.abelian(6), 10), (ref.direct_sum(h1, ref.abelian(3)), 10),
        (ref.direct_sum(h1, h1), 10), (ref.direct_sum(h2, ref.abelian(1)), 10),
        (ref.direct_sum(ref.filiform(4), ref.abelian(2)), 10), (ref.direct_sum(ref.filiform(5), ref.abelian(1)), 10),
        (ref.filiform(7), 6), (ref.heisenberg(3), 6), (ref.abelian(7), 6),
        (ref.direct_sum(ref.filiform(4), h1), 6), (ref.direct_sum(h2, ref.abelian(2)), 6),
        (ref.filiform(8), 1), (ref.abelian(8), 1), (ref.direct_sum(h1, ref.abelian(5)), 1),
        (ref.direct_sum(h2, ref.abelian(3)), 1), (ref.direct_sum(h1, h1, ref.abelian(2)), 1),
        (ref.filiform(9), 1), (ref.abelian(9), 1),
    ]


def _nil_check(a):
    return {"type": "nil", "betti": list(ref.algebra_betti(a))}


def _build_nil_graded(w: Workload, rng, input_dir):
    for a, copies in nil_bases():
        for copy in range(copies):
            if a.catalog is not None and rng.random() < 0.5:
                spec = a.catalog
            else:
                spec = f"{input_dir}/{a.name}-{copy}.json"
                w.files[spec] = _compact(a.to_json_obj())
            w.add({"kind": "cli", "argv": ["nilfoliation", "--algebra", spec]}, _nil_check(a))


SCRAMBLE_DRAWS = 8


def scrambled_constants(a, copy, rng):
    """Constants after a seeded unimodular change of basis P D.

    P is drawn once per algebra and copy: of SCRAMBLE_DRAWS random products
    of elementary matrices, the one giving closest to 4 dim nonzero constants
    (the standard bases have at most dim - 2).  The seed picks the diagonal
    sign matrix D.  Flipping basis vectors changes the signs of the constants
    but not the elimination work, so a pass costs the same for every seed.
    """
    draw_rng = random.Random(f"scramble:{a.name}:{copy}")
    draws = [ref.unimodular(a.dim, draw_rng, ops=a.dim) for _ in range(SCRAMBLE_DRAWS)]
    p, q = min(draws, key=lambda pq: abs(len(ref.scramble(a, *pq)) - 4 * a.dim))
    signs = [rng.choice((-1, 1)) for _ in range(a.dim)]
    p = [[x * s for x, s in zip(row, signs)] for row in p]  # P D
    q = [[x * s for x in row] for row, s in zip(q, signs)]  # D P^-1
    return ref.scramble(a, p, q)


def _build_nil_scrambled(w: Workload, rng, input_dir):
    for a, copies in nil_bases():
        for copy in range(copies):
            path = f"{input_dir}/{a.name}-{copy}.json"
            w.files[path] = _compact(a.to_json_obj(scrambled_constants(a, copy, rng)))
            w.add({"kind": "cli", "argv": ["nilfoliation", "--algebra", path]}, _nil_check(a))


# -- cli_mix -------------------------------------------------------------------

EXACT_LENGTHS = [Fraction(x) for x in ("1", "2", "1/2", "3/2", "2/3", "4/3", "5/4", "3", "5/2", "3/4", "5/3")]
INEXACT_LENGTHS = [math.sqrt(2), math.sqrt(3), math.sqrt(5), (1 + math.sqrt(5)) / 2,
                   math.pi / 2, math.e / 2, math.sqrt(7) / 2, math.log(5)]
EIGENVALUES = [Fraction(x) for x in ("2", "3", "1/2", "1/3", "3/2", "2/3", "5/2")]  # times a sign
TOLERANCE = 1e-6


# Sizes of the cli_mix jobs are fixed; the seed picks the values.
FLOW_SLOTS = [(20, "4", False), (22, "4", True), (24, "9/2", False), (26, "9/2", True), (28, "5", False), (30, "5", True)]
SELBERG_SLOTS = [
    (2, (1, -1, 2, -2), "R"), (3, (1, -1, 2), "abstract"), (2, (1, 2, 3, -1, -2, -3), "R"),
    (3, (1, -2, 3, -1), "abstract"), (2, (2, -2), "R"), (3, (1, -1, 2, -2, 3, -3), "abstract"),
]
SMALL_TORUS_SLOTS = [(2, 2, False), (2, 5, True), (3, 1, False), (3, 3, True), (2, 6, False), (3, 4, True)]
BUILTIN_GRIDS = [("flat", 64), ("sphere", 96), ("random", 128), ("sphere", 192), ("random", 48)]


def _return_map(m, shape, rng):
    """D P T P^-1 D, T upper triangular of size m; returns (matrix as strings, diagonal of T).

    ``shape`` fixes T and P, so the entries of P T P^-1 and the flow signs
    are the same for every seed; ``rng`` picks the signs D, which keep the
    sizes of the entries and the return map's eigenvalues.
    """
    diag = [shape.choice((-1, 1)) * shape.choice(EIGENVALUES) for _ in range(m)]
    t = [[diag[i] if i == j else (shape.choice((-1, 1)) * Fraction(shape.randint(0, 2), shape.randint(1, 3))
                                  if j > i else Fraction(0))
          for j in range(m)] for i in range(m)]
    p, q = ref.unimodular(m, shape, ops=m)
    r = flip_signs(ref.matmul(ref.matmul(p, t), q), rng)
    return [[ref.fmt_num(x) for x in row] for row in r], diag


def _flow(w: Workload, rng, input_dir, idx):
    count, window, tolerant = FLOW_SLOTS[idx]
    shape = random.Random(f"flow:{idx}")  # lengths and map sizes: the same for every seed
    lengths = [shape.choice(EXACT_LENGTHS) if shape.random() < 0.6 else shape.choice(INEXACT_LENGTHS)
               for _ in range(count)]
    if tolerant:  # a near-duplicate inexact orbit that only the explicit tolerance merges
        lengths.append(shape.choice(INEXACT_LENGTHS) + 1e-8)
    orbits, spec = [], []
    for length in lengths:
        rmap, diag = _return_map(shape.choice((2, 3)), shape, rng)
        orbits.append((length, diag))
        spec.append({"length": ref.fmt_num(length), "return_map": rmap})
    atoms = ref.flow_atoms(orbits, Fraction(window), TOLERANCE if tolerant else 1e-9)
    path = f"{input_dir}/flow-{idx}.json"
    w.files[path] = _compact({"orbits": spec})
    argv = ["flow", "--input", path, "--window", window]
    if tolerant:
        argv += ["--tolerance", repr(TOLERANCE)]
    check = {"type": "atoms", "orbits": len(orbits), "atoms": [[ref.fmt_num(x), ref.fmt_num(c)] for x, c in atoms]}
    w.add({"kind": "cli", "argv": argv}, check)


def _selberg(w: Workload, rng, input_dir, idx):
    n, ks, kind = SELBERG_SLOTS[idx]
    c = POOL[n][idx % len(POOL[n])]
    a = conjugate(c, rng, f"selberg-{idx}")
    vq = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    chi = rng.randint(-2, 2)
    classes = [{"label": "0", "is_identity": True}]
    atoms, terms = [], []
    for k in ks:
        vol = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        classes.append({"label": str(k), "matrix": [[str(x) for x in r] for r in a], "vol_centralizer": ref.fmt_num(vol)})
        lk = ref.toral_lefschetz(_key(c), k)
        if kind == "R":
            atoms.append((k, ref.fmt_num(lk * vol)))
        else:
            terms.append([str(k), str(lk), ref.fmt_num(vol)])
    if kind == "R":
        atoms = [[str(k), v] for k, v in sorted(atoms + [(0, ref.fmt_num(vq * chi))]) if k or chi]
    elif chi:
        atoms = [["e", ref.fmt_num(vq * chi)]]
    spec = {"vol_quotient": ref.fmt_num(vq), "chi_x": chi, "group_kind": kind, "classes": classes}
    path = f"{input_dir}/selberg-{idx}.json"
    w.files[path] = _compact(spec)
    w.add({"kind": "cli", "argv": ["selberg", "--input", path]},
          {"type": "atoms", "atoms": atoms, "terms": sorted(terms)})


def _volume(rng):
    if rng.random() < 0.5:
        return Fraction(rng.randint(1, 7), rng.randint(1, 4))
    return rng.choice((0.5, 1.25, 1.75, 2.5, math.pi, math.sqrt(2)))


def _suspension(w: Workload, rng):
    vol, chi = _volume(rng), rng.randint(-4, 4)
    coeff = vol * chi
    atoms = [["e", ref.fmt_num(coeff)]] if coeff else []
    w.add({"kind": "cli", "argv": ["suspension", "--chi", str(chi), "--vol", ref.fmt_num(vol)]},
          {"type": "atoms", "atoms": atoms})


def _surface(w: Workload, rng):
    genus, vol = rng.randint(2, 12), _volume(rng)
    atoms = [["e", ref.fmt_num(vol * (2 - 2 * genus))]]
    traces = {"0": [[], "1"], "1": [[["e", ref.fmt_num(vol * (2 * genus - 2))]], "2"], "2": [[], "1"]}
    w.add({"kind": "cli", "argv": ["surface-suspension", "--genus", str(genus), "--vol", ref.fmt_num(vol)]},
          {"type": "atoms", "atoms": atoms, "traces": traces})


def torus_grid(rng, n):
    """Random doubly periodic metric: chi = 0."""
    h = 2 * math.pi / n
    u = np.arange(n) * h
    uu, vv = np.meshgrid(u, u, indexing="ij")

    def harmonic():
        return sum(
            0.2 * rng.uniform(0.2, 1.0) / (a + b) * np.cos(a * uu + b * vv + rng.uniform(0, 2 * math.pi))
            for a in range(3) for b in range(3) if a or b
        )

    e, g = np.exp(2 * harmonic()), np.exp(2 * harmonic())
    f = 0.3 * np.sin(uu + vv + rng.uniform(0, 2 * math.pi)) * np.sqrt(e * g)
    return n, n, h, h, e, f, g, "torus"


def revolution_grid(rng, n):
    """Sphere of revolution with profile r(u) = sin u (1 + a sin^2 u): chi = 2."""
    du, dv = math.pi / n, 2 * math.pi / n
    u = (np.arange(n) + 0.5) * du
    r = np.sin(u) * (1 + rng.uniform(0.0, 0.5) * np.sin(u) ** 2)
    g = np.tile(r**2, (n, 1)).T
    return n, n, du, dv, np.ones((n, n)), np.zeros((n, n)), g, "revolution"


def grid_json(grid) -> str:
    nu, nv, du, dv, e, f, g, topology = grid
    return _compact({"nu": nu, "nv": nv, "du": du, "dv": dv, "topology": topology,
                     "E": e.tolist(), "F": f.tolist(), "G": g.tolist()})


def grid_csv(grid) -> str:
    nu, nv, du, dv, e, f, g, topology = grid
    lines = ["nu,nv,du,dv,topology", f"{nu},{nv},{du!r},{dv!r},{topology}", "i,j,E,F,G"]
    for i in range(nu):
        for j in range(nv):
            lines.append(f"{i},{j},{float(e[i, j])!r},{float(f[i, j])!r},{float(g[i, j])!r}")
    return "\n".join(lines) + "\n"


def _gauss_bonnet_file(w: Workload, rng, input_dir, idx, maker, fmt, n):
    grid = maker(rng, n)
    path = f"{input_dir}/grid-{idx}.{fmt}"
    w.files[path] = grid_json(grid) if fmt == "json" else grid_csv(grid)
    w.add({"kind": "cli", "argv": ["gauss-bonnet", "--input", path]},
          {"type": "gauss_bonnet", "topology": grid[7], "grid": [grid[0], grid[1]],
           "chi": 0 if grid[7] == "torus" else 2})


def _build_cli_mix(w: Workload, rng, input_dir):
    w.add({"kind": "cli", "argv": ["verify", "--suite", "all"]}, {"type": "verify"})
    for i in range(len(FLOW_SLOTS)):
        _flow(w, rng, input_dir, i)
    for i in range(len(SELBERG_SLOTS)):
        _selberg(w, rng, input_dir, i)
    for _ in range(4):
        _suspension(w, rng)
    path = f"{input_dir}/suspension.json"
    w.files[path] = _compact({"vol_g": "3/2", "chi_x": 2, "betti": [1, 0, 1]})
    w.add({"kind": "cli", "argv": ["suspension", "--input", path]},
          {"type": "atoms", "atoms": [["e", "3"]]})
    for _ in range(4):
        _surface(w, rng)
    for i, (n, window, from_file) in enumerate(SMALL_TORUS_SLOTS):
        c = POOL[n][i % len(POOL[n])]
        a = conjugate(c, rng, f"mix-mt-{i}")
        if from_file:
            path = f"{input_dir}/torus-{i}.json"
            w.files[path] = _compact({"matrix": [[str(x) for x in r] for r in a]})
            argv = ["mapping-torus", "--input", path, "--window", str(window)]
        else:
            argv = ["mapping-torus", "--matrix", _compact(a), "--window", str(window)]
        w.add({"kind": "cli", "argv": argv}, _torus_check(c, window))
    h1 = ref.heisenberg(1)
    for a in (h1, ref.heisenberg(2), ref.filiform(5), ref.abelian(4)):
        spec = "heisenberg" if a is h1 else a.catalog
        w.add({"kind": "cli", "argv": ["nilfoliation", "--algebra", spec]}, _nil_check(a))
    a = ref.direct_sum(h1, ref.abelian(2))
    path = f"{input_dir}/algebra.json"
    w.files[path] = _compact(a.to_json_obj())
    w.add({"kind": "cli", "argv": ["nilfoliation", "--algebra", path]}, _nil_check(a))
    for builtin, n in BUILTIN_GRIDS:
        w.add({"kind": "cli", "argv": ["gauss-bonnet", "--builtin", builtin, "--grid", str(n)]},
              {"type": "gauss_bonnet", "topology": "revolution" if builtin == "sphere" else "torus",
               "grid": [n, n], "chi": 2 if builtin == "sphere" else 0})
    grid_files = [(torus_grid, "json", 48), (revolution_grid, "csv", 64),
                  (torus_grid, "csv", 40), (revolution_grid, "json", 56)]
    for i, (maker, fmt, n) in enumerate(grid_files):
        _gauss_bonnet_file(w, rng, input_dir, i, maker, fmt, n)


_GENERATORS = {
    "toral": _build_toral,
    "nil_graded": _build_nil_graded,
    "nil_scrambled": _build_nil_scrambled,
    "cli_mix": _build_cli_mix,
}
