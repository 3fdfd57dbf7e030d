"""Command-line front end.

Subcommands: mapping-torus, flow, suspension, surface-suspension,
nilfoliation, selberg, gauss-bonnet, verify.  JSON is the canonical output
format; ``table`` is a lossy human rendering.  Exit codes: 0 success,
1 domain error (a named precondition was violated, or a verify check
failed), 2 I/O or parse error, 3 internal error (two independent paths
disagreed; never expected).

Output is byte-stable for fixed inputs: no timestamps unless
``--emit-run-info`` asks for the separate run-info block.  The environment
variable LEFSCHETZ_SEED fixes the randomized verify battery.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import random
import sys
import time
from collections import Counter

from .curvature import (
    MAX_GRID_NODES,
    MetricGrid,
    _integrate,
    flat_torus_grid,
    gaussian_curvature,
    random_torus_metric,
    require_resolution,
    sphere_grid,
)
from .distributions import AtomicDistribution
from .errors import InconsistencyError, PreconditionError
from .lefschetz import GradedMap, ToralAutomorphism, _refuse_unprintable, lefschetz_number_graded, toral_lefschetz
from .lie_cohomology import GradedDims, LieAlgebra, catalog_algebra
from .linalg import MAX_PRINTED_DIGITS, IntMatrix, RationalMatrix, expect, num_to_str, read_int, to_float, to_number
from .models import (
    ClosedOrbitSpec,
    ConjugacyClassData,
    HomogeneousSpec,
    SuspensionSpec,
    flow_distribution,
    mapping_torus,
    nil_foliation,
    selberg_report,
    surface_suspension_traces,
    suspension,
)
from .verify import SUITES, battery_seed, run_suite

SMOOTH_NOTE = "smooth constants are densities relative to the reference volume form, vol(G) = 1"


def _parse_json(text: str, what: str):
    """``json.loads``; a key repeated in one object, or a document nested past the interpreter's
    recursion limit, is a ValueError."""

    def unique(pairs):
        obj = dict(pairs)
        if len(obj) != len(pairs):
            key = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
            raise ValueError(f"{what}: key {key!r:.40} is repeated in one JSON object")
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply") from None


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return expect(_parse_json(text, path), dict, f"{path}: the top level")


def _graded_from_json(maps) -> GradedMap:
    maps = expect(maps, list, "'graded'")
    return GradedMap(tuple(RationalMatrix.from_json_obj(m, f"'graded' degree {i}") for i, m in enumerate(maps)))


def _wrap(model: str, distribution: AtomicDistribution, metadata: dict, traces=None, **extra) -> dict:
    """The report of a distribution: model, ``extra`` fields, metadata, the traces Tr^i if given, distribution."""
    out = {"model": model}
    out.update(extra)
    out["metadata"] = metadata
    if traces is not None:
        out["traces"] = {str(i): t.to_json_obj() for i, t in enumerate(traces)}
    out["distribution"] = distribution.to_json_obj()
    return out


# -- subcommand handlers -------------------------------------------------------


def _cmd_mapping_torus(args) -> dict:
    if args.matrix is not None:
        obj = {"matrix": _parse_json(args.matrix, "--matrix")}
    else:
        obj = _load_json(args.input)
    if "matrix" in obj:
        source = ToralAutomorphism(IntMatrix.from_json_obj(obj["matrix"], "'matrix'"))
        desc = "toral"
    elif "graded" in obj:
        source = _graded_from_json(obj["graded"])
        desc = "graded"
    else:
        raise ValueError("input JSON needs a 'matrix' or 'graded' field")
    window = read_int(args.window, "--window")
    d = mapping_torus(source, window)
    meta = {
        "source": desc,
        "truncation": f"atoms emitted for |k| <= {window}",
        "convention": "paper",
    }
    return _wrap("mapping_torus", d, meta, window=window)


def _orbit_from_json(idx: int, obj: dict) -> ClosedOrbitSpec:
    """Orbit ``idx`` of a flow input; an invalid (not a missing) field's error names the orbit."""
    length = obj["length"]
    if "return_map" not in obj and "signs" not in obj:
        raise ValueError("orbit needs a 'return_map' or 'signs' field")
    try:
        length = to_number(length, "orbit 'length'")
        if "return_map" in obj:
            return_map = RationalMatrix.from_json_obj(obj["return_map"], "orbit 'return_map'")
            return ClosedOrbitSpec(length, return_map=return_map)
        signs, keys = {}, {}
        for key, sign in expect(obj["signs"], dict, "orbit 'signs'").items():
            k = read_int(key, "orbit 'signs' key")
            if k in keys:
                raise ValueError(f"orbit 'signs' keys {keys[k]!r} and {key!r} both name k = {k}")
            keys[k], signs[k] = key, read_int(sign, "orbit sign")
        return ClosedOrbitSpec(length, signs=signs)
    except ValueError as exc:  # PreconditionError too, so the exit code stays
        raise type(exc)(f"orbit {idx}: {exc}") from None


def _cmd_flow(args) -> dict:
    obj = _load_json(args.input)
    orbits = [_orbit_from_json(i, o) for i, o in enumerate(expect(obj["orbits"], list, "'orbits'", each=dict))]
    window = to_number(args.window, "--window")
    tolerance = None if args.tolerance is None else to_float(args.tolerance, "--tolerance")
    d = flow_distribution(orbits, window, tolerance=tolerance)
    meta = {
        "orbits": len(orbits),
        "truncation": f"atoms emitted for |k l(c)| <= {num_to_str(window)}",
        "convention": "paper",
    }
    if tolerance is not None:
        meta["tolerance"] = tolerance
    return _wrap("flow", d, meta, window=num_to_str(window))


def _cmd_suspension(args) -> dict:
    if args.input is None:
        if args.chi is None:
            raise ValueError("give --chi (and optionally --vol), or --input")
        vol = "1" if args.vol is None else args.vol
        spec = SuspensionSpec(to_number(vol, "--vol"), read_int(args.chi, "--chi"))
    elif args.chi is not None or args.vol is not None:
        raise ValueError("give --chi (and optionally --vol), or --input, not both")
    else:
        obj = _load_json(args.input)
        betti = obj.get("betti")
        if betti is not None:
            betti = GradedDims(tuple(read_int(b, "a 'betti' entry") for b in expect(betti, list, "'betti'")))
        spec = SuspensionSpec(to_number(obj["vol_g"], "'vol_g'"), read_int(obj["chi_x"], "'chi_x'"), betti)
    d = suspension(spec)
    meta = {
        "vol_g": num_to_str(spec.vol_g),
        "chi_x": spec.chi_x,
        "chi_lambda": num_to_str(spec.vol_g * spec.chi_x),
        "valid_on": "the whole group",
    }
    return _wrap("suspension", d, meta)


def _cmd_surface_suspension(args) -> dict:
    s = surface_suspension_traces(read_int(args.genus, "--genus"), to_number(args.vol, "--vol"))
    meta = {
        "genus": s.genus,
        "beta_lambda": [num_to_str(b) for b in s.betti_lambda],
        "chi_lambda": num_to_str(s.chi_lambda),
        "interpretation": SMOOTH_NOTE,
    }
    return _wrap("surface_suspension", s.lefschetz, meta, s.traces, genus=s.genus)


def _cmd_nilfoliation(args) -> dict:
    if os.path.isfile(args.algebra):
        a = LieAlgebra.from_json_obj(_load_json(args.algebra))
    else:
        a = catalog_algebra(args.algebra)
    r = nil_foliation(a)
    out = _wrap("nil_foliation", r.lefschetz, {"interpretation": SMOOTH_NOTE}, r.traces, dims=list(r.dims))
    out["corollary_check"] = dataclasses.asdict(r.corollary)
    return out


def _class_from_json(obj: dict) -> ConjugacyClassData:
    if type(label := obj["label"]) not in (str, int):
        raise ValueError(f"class 'label' must be a JSON string or integer, got {label!r:.40}")
    label = str(label)
    if expect(obj.get("is_identity", False), bool, "class 'is_identity'"):
        return ConjugacyClassData(label, None, is_identity=True)
    vol = to_number(obj.get("vol_centralizer", 1), "class 'vol_centralizer'")
    if "lefschetz" in obj:
        return ConjugacyClassData(label, to_number(obj["lefschetz"], "class 'lefschetz'"), vol)
    if "matrix" in obj:
        t = ToralAutomorphism(IntMatrix.from_json_obj(obj["matrix"], "class 'matrix'"))
        k = read_int(label, "class 'label'")
        c = ConjugacyClassData(label, 0, vol)  # every check of the class, before any power of A
        # vol > 0 has a denominator of at most MAX_PRINTED_DIGITS digits, so past twice the cap L vol cannot be printed
        _refuse_unprintable(t, k, f"class {label!r}: L(F^{k}) vol", spare=MAX_PRINTED_DIGITS)
        # F^0 is the identity: L = det(I - I) = 0, which toral_lefschetz refuses to take
        return dataclasses.replace(c, lefschetz=toral_lefschetz(t, k)) if k else c
    if "graded" in obj:
        return ConjugacyClassData(label, lefschetz_number_graded(_graded_from_json(obj["graded"])), vol)
    raise ValueError(f"class {label!r} needs 'lefschetz', 'matrix' or 'graded'")


def _cmd_selberg(args) -> dict:
    obj = _load_json(args.input)
    spec = HomogeneousSpec(
        to_number(obj["vol_quotient"], "'vol_quotient'"),
        read_int(obj["chi_x"], "'chi_x'"),
        tuple(_class_from_json(c) for c in expect(obj["classes"], list, "'classes'", each=dict)),
        expect(obj.get("group_kind", "abstract"), str, "'group_kind'"),
    )
    d = selberg_report(spec)
    meta = {
        "group_kind": spec.group_kind,
        "classes": len(spec.classes),
        "orbital_integrals": "symbolic unless group_kind is 'R'",
    }
    return _wrap("selberg", d, meta)


_BUILTIN_GRIDS = {
    "flat": flat_torus_grid,
    "sphere": sphere_grid,
    "random": lambda n: random_torus_metric(random.Random(battery_seed()), n),
}


def _cmd_gauss_bonnet(args) -> dict:
    if args.input is not None:
        if args.grid is not None:
            raise ValueError("--grid is the builtin grid resolution: give it with --builtin, not --input")
        if args.input.endswith(".csv"):
            with open(args.input, "r", encoding="utf-8") as fh:
                grid = MetricGrid.from_csv(fh.read())
        else:
            grid = MetricGrid.from_json_obj(_load_json(args.input))
        source = args.input
    else:
        n = 256 if args.grid is None else read_int(args.grid, "--grid")
        require_resolution(n, n)
        if n * n > MAX_GRID_NODES:
            raise PreconditionError(f"--grid {n} asks for {n * n} nodes, more than MAX_GRID_NODES = {MAX_GRID_NODES}")
        grid = _BUILTIN_GRIDS[args.builtin](n)
        source = f"builtin:{args.builtin}"
    k = gaussian_curvature(grid)
    integral = _integrate(grid, k)
    return {
        "model": "gauss_bonnet",
        "source": source,
        "grid": [grid.nu, grid.nv],
        "topology": grid.topology,
        "metadata": {"stencils": "second-order central/one-sided finite differences"},
        "curvature_min": float(k.min()),
        "curvature_max": float(k.max()),
        "integral_over_2pi": integral,
        "chi_estimate": round(integral),
    }


def _cmd_verify(args) -> dict:
    seed = battery_seed()
    checks = run_suite(args.suite, seed)
    return {
        "model": "verify",
        "suite": args.suite,
        "seed": seed,
        "passed": all(c.passed for c in checks),
        "checks": [dataclasses.asdict(c) for c in checks],
    }


# -- rendering -----------------------------------------------------------------


def _render_table(obj: dict) -> str:
    lines = []

    def emit(key, value, indent=0):
        pad = "  " * indent
        if key == "atoms" and isinstance(value, list):
            lines.append(f"{pad}atoms:")
            if not value:
                lines.append(f"{pad}  (none)")
            for a in value:
                lines.append(f"{pad}  at {a['at']:>12}   coeff {a['coeff']}")
        elif key == "checks" and isinstance(value, list):
            lines.append(f"{pad}checks:")
            for c in value:
                mark = "PASS" if c["passed"] else "FAIL"
                detail = f"  [{c['detail']}]" if c.get("detail") else ""
                lines.append(f"{pad}  {mark}  {c['name']}{detail}")
        elif isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k, v in value.items():
                emit(k, v, indent + 1)
        else:
            lines.append(f"{pad}{key}: {value}")

    for k, v in obj.items():
        emit(k, v)
    return "\n".join(lines) + "\n"


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser on every call; ``main`` parses with one shared copy, ``_parser()``."""
    parser = argparse.ArgumentParser(
        prog="lefdist",
        description="Lefschetz distributions of Lie foliations: closed-form example families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")
    common.add_argument("--output", metavar="PATH", help="write the report to a file")
    common.add_argument(
        "--emit-run-info",
        action="store_true",
        help="include a run_info block (timestamps); off by default to keep output byte-stable",
    )

    p = sub.add_parser("mapping-torus", parents=[common], help="mapping torus of a toral automorphism or graded map")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", help='inline integer matrix, e.g. "[[2,1],[1,1]]"')
    src.add_argument("--input", help="JSON file with a 'matrix' or 'graded' field")
    p.add_argument("--window", default=3, metavar="K")
    p.set_defaults(handler=_cmd_mapping_torus)

    p = sub.add_parser("flow", parents=[common], help="codimension-one flow with prescribed closed orbits")
    p.add_argument("--input", required=True, help="JSON file with an 'orbits' list")
    p.add_argument("--window", required=True, metavar="T")
    p.add_argument("--tolerance", metavar="T", help="inexact atom merge tolerance, finite and >= 0")
    p.set_defaults(handler=_cmd_flow)

    p = sub.add_parser("suspension", parents=[common], help="suspension foliation over a compact group")
    p.add_argument("--vol", help="vol(G), exact ('3/2') or inexact ('~1.5'); default 1")
    p.add_argument("--chi", help="Euler characteristic of the fiber")
    p.add_argument("--input", help="JSON file with vol_g, chi_x and optional betti, in place of the flags")
    p.set_defaults(handler=_cmd_suspension)

    p = sub.add_parser("surface-suspension", parents=[common], help="genus-g hyperbolic surface suspension traces")
    p.add_argument("--genus", required=True)
    p.add_argument("--vol", default="1")
    p.set_defaults(handler=_cmd_surface_suspension)

    p = sub.add_parser("nilfoliation", parents=[common], help="nilpotent homogeneous foliation traces")
    p.add_argument(
        "--algebra",
        required=True,
        help="Lie algebra JSON file, or catalog spec (heisenberg:m, abelian:n, filiform:n, sl2; "
        "'+' joins summands, e.g. heisenberg:1+abelian:2)",
    )
    p.set_defaults(handler=_cmd_nilfoliation)

    p = sub.add_parser("selberg", parents=[common], help="Selberg-type report for a homogeneous bundle")
    p.add_argument("--input", required=True, help="JSON homogeneous-space spec")
    p.set_defaults(handler=_cmd_selberg)

    p = sub.add_parser("gauss-bonnet", parents=[common], help="integrate Gauss curvature of a metric grid")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="MetricGrid JSON or CSV file")
    src.add_argument("--builtin", choices=sorted(_BUILTIN_GRIDS), help="generate a canonical grid")
    p.add_argument("--grid", metavar="N", help="builtin grid resolution, default 256, at most MAX_GRID_NODES nodes")
    p.set_defaults(handler=_cmd_gauss_bonnet)

    p = sub.add_parser("verify", parents=[common], help="run the cross-oracle battery")
    p.add_argument(
        "--suite",
        default="all",
        choices=("all", *SUITES),
    )
    p.set_defaults(handler=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser that every ``main`` call in a process shares, built on the first call.

    Parsing keeps its state in each call's own namespace, never on the parser,
    so reuse changes no output; importing this module builds no parser.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = args.handler(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InconsistencyError as exc:  # a failed internal cross-check
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except KeyError as exc:  # a field the input JSON lacks
        print(f"input error: missing field {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, ArithmeticError) as exc:  # e.g. 1/0, or too large for a float
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    if args.emit_run_info:
        report["run_info"] = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    if args.format == "table":
        text = _render_table(report)
    else:
        text = json.dumps(report, indent=2) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    if args.command == "verify" and not report["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
