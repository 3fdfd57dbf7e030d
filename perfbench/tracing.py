"""Outside-in tracing of lefdist's public functions.

The program is not modified.  ``Tracer.enable()`` rebinds every module-level
name that refers to a traced function (lefdist modules import each other
with ``from .linalg import determinant``, so one function has several
bindings) and the class attributes of traced methods; ``disable()`` puts
the originals back, so untraced jobs run the program exactly as shipped.

Each call becomes a span (name, start, end, parent span, job id) kept in
flat arrays and written out at the end.  Self time is a span's duration
minus the durations of its direct children.  Work counts are derived from
arguments and results only.
"""

from __future__ import annotations

import importlib
import time
from array import array
from math import comb


def _bits(x) -> int:
    """Bit length of an int or of the larger part of a Fraction."""
    num, den = getattr(x, "numerator", x), getattr(x, "denominator", 1)
    return max(abs(int(num)).bit_length(), int(den).bit_length())


def _int_det(rows) -> int:
    """Fraction-free Bareiss determinant of a small integer matrix."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c]), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p], sign = a[p], a[c], -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                a[i][j] = (a[c][c] * a[i][j] - a[i][c] * a[c][j]) // prev
        prev = a[c][c]
    return sign * a[n - 1][n - 1] if n else 1


def _residues(args, kwargs, result) -> dict:
    """Residue vectors scanned by the brute-force count: |det(A^k - I)|^n.

    |det(A^-k - I)| = |det(A^k - I)| because det A = +-1.
    """
    t, k = args[0], args[1]
    a = [list(r) for r in t.matrix.entries]
    n = len(a)
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(abs(k)):
        p = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in p]
    d = abs(_int_det([[p[i][j] - (i == j) for j in range(n)] for i in range(n)]))
    return {"residues": d**n}


def _atoms_in(args, kwargs) -> int:
    atoms = args[0] if args else kwargs.get("atoms", ())
    return len(atoms)


# qualified name -> (stats(args, kwargs, result) -> {stat: value} or None, the stats the
# traced run reports); functions that did not run report 0
TARGETS = {
    "linalg.determinant": (lambda a, kw, r: {"max_bits": _bits(r)}, ["calls", "self_s", "max_bits"]),
    "linalg.exterior_power": (lambda a, kw, r: {"minors": comb(a[0].rows, a[1]) ** 2}, ["calls", "self_s", "minors"]),
    "linalg.rank_kernel": (
        lambda a, kw, r: {"entries": a[0].rows * a[0].cols, "kernel_vectors": len(r[1])},
        ["calls", "self_s", "entries", "kernel_vectors"],
    ),
    "linalg.matrix_power": (lambda a, kw, r: {"exponent_sum": abs(a[1])}, ["calls", "self_s", "exponent_sum"]),
    "linalg.smith_normal_form": (None, ["calls", "self_s"]),
    "lefschetz.toral_lefschetz": (None, ["calls", "self_s"]),
    "lefschetz.fixed_points_toral": (lambda a, kw, r: {"points": r.count or 0}, ["calls", "self_s", "points"]),
    "lefschetz.ToralAutomorphism.power": (None, ["calls"]),
    "lie_cohomology.validate": (None, ["calls", "self_s"]),
    "lie_cohomology.is_nilpotent": (None, ["self_s"]),
    "lie_cohomology.ce_differential": (lambda a, kw, r: {"entries": r.rows * r.cols}, ["calls", "self_s", "entries"]),
    "lie_cohomology.cohomology_dims": (None, ["self_s"]),
    "distributions.make": (
        lambda a, kw, r: {"atoms_in": _atoms_in(a, kw), "atoms_out": len(r.atoms)},
        ["calls", "self_s", "atoms_in", "atoms_out"],
    ),
    "distributions.AtomicDistribution.to_json_obj": (None, ["self_s"]),
    "models.mapping_torus": (None, ["self_s"]),
    "models.flow_distribution": (None, ["self_s"]),
    "models.nil_foliation": (None, ["self_s"]),
    "models.selberg_report": (None, ["self_s"]),
    "models.ClosedOrbitSpec.sign": (None, ["calls"]),
    "curvature.gaussian_curvature": (lambda a, kw, r: {"nodes": a[0].nu * a[0].nv}, ["self_s", "nodes"]),
    "curvature.integrate_curvature": (None, ["self_s"]),
    "curvature.MetricGrid.from_json_obj": (None, ["self_s"]),
    "curvature.MetricGrid.from_csv": (None, ["self_s"]),
    "verify.run_suite": (None, ["self_s"]),
    "verify.brute_force_fixed_point_count": (_residues, ["calls", "self_s", "residues"]),
    "verify.ce_dims_reversed_basis": (None, ["calls", "self_s"]),
    # output_bytes is added by the worker from the captured stdout
    "cli.main": (None, ["self_s", "output_bytes"]),
}

MAX_STATS = {"max_bits"}
_UNITS = {"calls": "count", "self_s": "s", "max_bits": "bits", "output_bytes": "bytes"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    out = {f"{q}.{s}": _UNITS.get(s, "count") for q, (_, reported) in TARGETS.items() for s in reported}
    out["trace.overhead_frac"] = "fraction"
    return out


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        # spans, one entry per call, indexed by span id
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stats: dict[str, float] = {}
        self.job_id = -1
        self._stack: list[int] = []
        self._patches = self._resolve()

    # -- patching ---------------------------------------------------------
    def _resolve(self):
        """[(owner, attribute, original, replacement)] for every binding to rebind."""
        modules = [
            importlib.import_module(f"lefdist.{m}")
            for m in ("linalg", "lefschetz", "lie_cohomology", "distributions", "models", "curvature", "verify", "cli")
        ]
        modules.append(importlib.import_module("lefdist"))
        patches = []
        for idx, qual in enumerate(self.names):
            mod_name, *path = qual.split(".")
            owner = importlib.import_module(f"lefdist.{mod_name}")
            stats = TARGETS[qual][0]
            if len(path) == 2:
                cls = getattr(owner, path[0])
                raw = cls.__dict__[path[1]]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(idx, raw.__func__, stats))
                else:
                    wrapped = self._wrap(idx, raw, stats)
                patches.append((cls, path[1], raw, wrapped))
                continue
            original = getattr(owner, path[0])
            wrapped = self._wrap(idx, original, stats)
            for m in modules:
                for attr, value in vars(m).items():
                    if value is original:
                        patches.append((m, attr, original, wrapped))
        return patches

    def enable(self, job_id: int):
        self.job_id = job_id
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def disable(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, idx: int, fn, stats):
        qual = self.names[idx]
        tracer = self

        def traced(*args, **kwargs):
            span = len(tracer.name)
            tracer.name.append(idx)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.job.append(tracer.job_id)
            tracer.end.append(0.0)
            tracer.start.append(0.0)
            tracer._stack.append(span)
            tracer.start[span] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[span] = time.perf_counter()
                tracer._stack.pop()
            if stats is not None:
                for key, value in stats(args, kwargs, result).items():
                    name = f"{qual}.{key}"
                    old = tracer.stats.get(name, 0)
                    tracer.stats[name] = max(old, value) if key in MAX_STATS else old + value
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results ----------------------------------------------------------
    def add(self, name: str, value: float):
        self.stats[name] = self.stats.get(name, 0) + value

    def summary(self) -> dict[str, float]:
        """calls, self_s and the derived work counts per traced function."""
        n = len(self.name)
        child = [0.0] * n
        for s in range(n):
            p = self.parent[s]
            if p >= 0:
                child[p] += self.end[s] - self.start[s]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for s in range(n):
            i = self.name[s]
            calls[i] += 1
            self_s[i] += self.end[s] - self.start[s] - child[s]
        out = dict(self.stats)
        for i, qual in enumerate(self.names):
            out[f"{qual}.calls"] = calls[i]
            out[f"{qual}.self_s"] = self_s[i]
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,job\n")
            for s in range(len(self.name)):
                fh.write(
                    f"{s},{self.names[self.name[s]]},{self.start[s]!r},{self.end[s]!r},"
                    f"{self.parent[s]},{self.job[s]}\n"
                )
