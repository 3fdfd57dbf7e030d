"""Run every workload over several seeds and record the medians and quartiles.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline.json

Each run is a fresh ``run.py`` process with the run length of
BENCHMARK.json; its values are read from the ``report.json`` it writes.  A
set is one run per workload and seed; SETS sets run one after the other.
For each set, workload and end-to-end metric the output holds the median,
the quartiles (``statistics.quantiles(n=4)``) and the spread
(q3 - q1) / median, of the reported values (at the reference speed, see
calibration.py) and of the raw ones.  Each run's values and failure counts are kept too.  ``agreement``
compares the median of the second set with the first: ``worse_by`` is the
relative change in the metric's bad direction, to be read against the
metric's ``bound``, as two sets of runs of the same code must agree within
it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _summary(runs: list[dict]) -> dict:
    out = {}
    for metric in (runs[0] if runs else {}):
        values = [r[metric] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        med = statistics.median(values)
        out[metric] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
    return out


def run_once(name: str, seed: int, seconds: str) -> dict | None:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", seconds, "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    report = json.loads((ROOT / ".bench_build" / "perfbench" / name / "report.json").read_text())
    result = report["result"]
    return {"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
            "slowdown": report["slowdown"], "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "raw": report["raw"]}


def record_set(names: list[str], seeds: list[int], seconds: str) -> tuple[dict, bool]:
    out, ok = {}, True
    for name in names:
        runs = []
        for seed in seeds:
            run = run_once(name, seed, seconds)
            if run is None:
                ok = False
                continue
            runs.append(run)
            print(f"{name} seed {seed}: " + ", ".join(f"{k} {v:.4g}" for k, v in run["metrics"].items()), flush=True)
        summary = {kind: _summary([r[kind] for r in runs]) for kind in ("metrics", "raw")}
        for metric, s in summary["metrics"].items():
            print(f"{name} {metric}: median {s['median']:.5g} spread {s['spread']:.3f} "
                  f"(raw: median {summary['raw'][metric]['median']:.5g} spread {summary['raw'][metric]['spread']:.3f})")
        out[name] = {"summary": summary["metrics"], "raw_summary": summary["raw"], "runs": runs}
    return out, ok


def agreement(first: dict, second: dict, bench: dict) -> dict:
    out = {}
    for name in first:
        out[name] = {}
        for m in bench["end_to_end"]:
            a, b = first[name]["summary"][m["name"]]["median"], second[name]["summary"][m["name"]]["median"]
            sign = 1 if m["better"] == "lower" else -1
            out[name][m["name"]] = {"medians": [a, b], "bound": m["bound"], "worse_by": sign * (b - a) / a}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    record = {
        "commit": _commit(),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "run_seconds": bench["run_seconds"],
        "seeds": args.seeds,
        "sets": [],
    }
    ok = True
    for i in range(SETS):
        print(f"set {i + 1} of {SETS}", flush=True)
        workloads, set_ok = record_set(names, _seeds(args.seeds), str(bench["run_seconds"]))
        record["sets"].append(workloads)
        ok &= set_ok
    if ok:
        record["agreement"] = agreement(*record["sets"], bench)
        for name, metrics in record["agreement"].items():
            for metric, a in metrics.items():
                print(f"{name} {metric}: medians {a['medians'][0]:.5g}, {a['medians'][1]:.5g}; "
                      f"worse by {a['worse_by']:+.3f} (bound {a['bound']})")
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
