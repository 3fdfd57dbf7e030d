"""Seeded benchmark for lefdist: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload toral --seed 1 --seconds 25 --trace 0

It builds the workload's job list from the seed, writes its input files
under ``.bench_build/perfbench/<workload>/``, times ``import lefdist.cli`` in
fresh interpreters (set-up), runs the jobs in one worker
process (closed loop, one caller) and checks every output against an
independent reference.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The same object, with the raw (uncalibrated) end-to-end values and the
machine slowdown next to it, is written to ``<work dir>/report.json``.
The exit code is 0 when every output is correct, 1 when some output is
wrong, and 2 when the benchmark could not run (no result line then).
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 15
SETUP_SAMPLES = 5
LOCAL_SAMPLES = 5
WORKER_TIMEOUT_S = 160

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def measure_setup(sidecar: calibration.Sidecar) -> tuple[float, float]:
    """Median time of ``import lefdist.cli`` in fresh interpreters: (at reference speed, raw).

    Before each interpreter starts and after it has ended, the calibration
    sidecar times SETUP_SAMPLES samples, so each import is scaled by the speed
    the machine had at that moment.
    """
    code = (
        "import sys, time; sys.path[:0] = ['src']; t = time.perf_counter(); "
        "import lefdist.cli; print(repr(time.perf_counter() - t))"
    )
    scaled, raw = [], []
    for i in range(SETUP_RUNS + 1):
        speed = [sidecar.sample() for _ in range(SETUP_SAMPLES)]
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=_env(0), capture_output=True, text=True, timeout=60
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import lefdist.cli failed:\n{proc.stderr}")
        if i:  # the first import may compile bytecode; it is not timed
            t = float(proc.stdout.split()[-1])
            speed += [sidecar.sample() for _ in range(SETUP_SAMPLES)]
            scaled.append(t / calibration.slowdown(speed))
            raw.append(t)
    return statistics.median(scaled), statistics.median(raw)


def _env(seed: int) -> dict:
    env = dict(os.environ)
    env["LEFSCHETZ_SEED"] = str(seed)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(work_dir: Path, seed: int, seconds: float, trace: int) -> dict:
    out = work_dir / "result.json"
    cmd = [
        sys.executable, str(Path(__file__).with_name("worker.py")), "--root", str(ROOT),
        "--jobs", str(work_dir / "jobs.json"), "--seconds", repr(seconds),
        "--trace", str(trace), "--out", str(out),
    ]
    if trace:
        cmd += ["--spans", str(work_dir / "spans.csv")]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(seed), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(checks: list[dict], result: dict) -> list[tuple[int, str]]:
    """(job index, reason) for every job whose output disagrees with its reference."""
    bad = []
    unstable = set(result["unstable"])
    for i, (spec, (rc, out, err)) in enumerate(zip(checks, result["outputs"])):
        reason = reference.check_output(spec, rc, out)
        if reason is None and i in unstable:
            reason = "output changed between runs of the same job"
        if reason is not None:
            bad.append((i, f"{reason}; stderr: {err.strip()[-300:]}" if err.strip() else reason))
    return bad


def local_slowdowns(result: dict) -> list[float]:
    """Per job run: the slowdown from the LOCAL_SAMPLES calibration samples nearest its middle."""
    at, speed = result["calibration_at_s"], result["calibration_s"]
    out = []
    for t in result["middles_s"]:
        i = bisect.bisect_left(at, t)
        near = sorted(range(max(0, i - LOCAL_SAMPLES), min(len(at), i + LOCAL_SAMPLES)), key=lambda k: abs(at[k] - t))
        out.append(calibration.slowdown([speed[k] for k in near[:LOCAL_SAMPLES]]))
    return out


def end_to_end(result: dict, setup_s: float, slowdowns: list[float]) -> dict:
    """The end-to-end metrics, with each job's time divided by its slowdown (all 1: raw)."""
    samples_ms = [s * 1000 / f for s, f in zip(result["samples_s"], slowdowns)]
    return {
        "jobs_per_s": 1000 * len(samples_ms) / sum(samples_ms),
        "job_p50_ms": statistics.median(samples_ms),
        "job_p90_ms": statistics.quantiles(samples_ms, n=10, method="inclusive")[8],
        "setup_s": setup_s,
        "peak_rss_mb": result["maxrss_kb"] / 1024,
    }


def prepare(name: str, seed: int) -> tuple[Path, workloads.Workload]:
    """Build the job list and write it with its input files under .bench_build."""
    work_dir = ROOT / ".bench_build" / "perfbench" / name
    shutil.rmtree(work_dir, ignore_errors=True)
    (work_dir / "inputs").mkdir(parents=True)
    w = workloads.build(name, seed, str((work_dir / "inputs").relative_to(ROOT)))
    for rel, text in w.files.items():
        (ROOT / rel).write_text(text, encoding="utf-8")
    (work_dir / "jobs.json").write_text(json.dumps(w.jobs), encoding="utf-8")
    return work_dir, w


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lefdist" / "cli.py").is_file():
        print(f"error: no lefdist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    calibration.pin_to_one_cpu()
    try:
        t0 = time.perf_counter()
        work_dir, w = prepare(args.workload, args.seed)
        prep_s = time.perf_counter() - t0
        if args.trace:
            setup_s = setup_raw = None
        else:
            with calibration.Sidecar() as sidecar:
                setup_s, setup_raw = measure_setup(sidecar)
        result = run_worker(work_dir, args.seed, args.seconds, args.trace)
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired, reference.ReferenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    bad = check_outputs(w.checks, result)
    for i, reason in bad[:10]:
        print(f"WRONG job {i} {json.dumps(w.jobs[i])[:200]}: {reason}", file=sys.stderr)
    passes = result["passes"]
    attempted = result.get("attempted", len(result["samples_s"]))
    failed = len(bad) * attempted // len(w.jobs)
    print(
        f"workload {args.workload} seed {args.seed}: {len(w.jobs)} jobs x {passes} passes, "
        f"{attempted} job runs in {result['elapsed_s']:.2f} s (inputs and references {prep_s:.2f} s)"
    )
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} job runs)")
    report = {}
    if args.trace:
        values = result["per_layer"]
        units = tracing.per_layer_units()
    else:
        raw = end_to_end(result, setup_raw, [1.0] * attempted)
        values = end_to_end(result, setup_s, local_slowdowns(result))
        slowdown = calibration.slowdown(result["calibration_s"])
        units = END_TO_END
        above = sum(s * 1000 > raw["job_p90_ms"] for s in result["samples_s"])
        print(f"latency samples: {attempted}; above p90: {above}")
        print(f"machine slowdown {slowdown:.4f} x reference (median of {len(result['calibration_s'])} calibration samples)")
        print("raw " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        report = {"raw": raw, "slowdown": slowdown}
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    line = {"correct": not bad, "attempted": attempted, "failed": failed, "metrics": metrics}
    (work_dir / "report.json").write_text(json.dumps(dict(report, result=line)), encoding="utf-8")
    print(json.dumps(line))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
