"""Run one workload's job list in a fresh process and report what happened.

Usage (normally started by run.py):

    python3 perfbench/worker.py --root . --jobs JOBS.json --seconds 25 \
        --trace 0 --out RESULT.json [--spans SPANS.csv]

The program is imported from ``<root>/src``.  One untimed warm-up job (the
one with the shortest spec) runs first.  Then whole passes over the job list
run, one job at a time, while the next pass is expected to end within
``--seconds`` (at least one pass).  Every CALIBRATION_EVERY_S, between jobs,
the untraced run has the calibration sidecar time one sample (see
calibration.py); the time spent waiting for it is not counted.
With ``--trace 1`` every job runs twice per pass, once untraced and once
traced, in alternating order; both outputs must be byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import calibration
from tracing import Tracer


class Program:
    """The program under test, imported from the checkout's ``src``."""

    def __init__(self, root: str):
        src = os.path.abspath(os.path.join(root, "src"))
        sys.path.insert(0, src)
        import lefdist
        import lefdist.cli
        import lefdist.lefschetz
        import lefdist.linalg

        if not os.path.abspath(lefdist.__file__).startswith(src + os.sep):
            raise ImportError(f"lefdist was imported from {lefdist.__file__}, not from {src}")
        self.cli = lefdist.cli
        self.lefschetz = lefdist.lefschetz
        self.linalg = lefdist.linalg

    def run(self, job: dict) -> tuple:
        """(exit code, stdout, stderr); exceptions count as exit code "raised"."""
        try:
            if job["kind"] == "cli":
                return self._cli(job["argv"])
            t = self.lefschetz.ToralAutomorphism(self.linalg.IntMatrix(job["matrix"]))
            c = self.lefschetz.verify_classical_lefschetz(t, job["k"])
            return 0, json.dumps([c.sum_of_indices, c.lefschetz_number, c.count]), ""
        except Exception:  # a job that raises is a failed job, the run goes on
            return "raised", "", traceback.format_exc()

    def _cli(self, argv) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects its input this way
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()


CALIBRATION_EVERY_S = 0.1


def run_timed(program: Program, jobs: list, seconds: float, sidecar: calibration.Sidecar) -> dict:
    samples, middles, outputs, unstable = [], [], [None] * len(jobs), set()
    speed, speed_at, speed_s, last = [], [], 0.0, float("-inf")
    passes = 0
    t_start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, job in enumerate(jobs):
            if time.perf_counter() - last > CALIBRATION_EVERY_S:
                t0 = time.perf_counter()
                speed.append(sidecar.sample())
                last = time.perf_counter()
                speed_at.append((t0 + last) / 2 - t_start)
                speed_s += last - t0
            t0 = time.perf_counter()
            res = program.run(job)
            samples.append(time.perf_counter() - t0)
            middles.append(t0 + samples[-1] / 2 - t_start)
            if outputs[i] is None:
                outputs[i] = res
            elif outputs[i] != res:
                unstable.add(i)
        passes += 1
        now = time.perf_counter()
        if now - t_start + (now - pass_start) > seconds:
            break
    return {
        "passes": passes,
        "elapsed_s": time.perf_counter() - t_start - speed_s,
        "samples_s": samples,
        "middles_s": middles,
        "calibration_s": speed,
        "calibration_at_s": speed_at,
        "outputs": outputs,
        "unstable": sorted(unstable),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def run_traced(program: Program, jobs: list, seconds: float, spans_path: str | None) -> dict:
    tracer = Tracer()
    outputs, unstable = [None] * len(jobs), set()
    untraced_s = traced_s = 0.0
    passes = 0
    t_start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, job in enumerate(jobs):
            for on in ((False, True) if i % 2 == 0 else (True, False)):
                if on:
                    tracer.enable(job["id"])
                t0 = time.perf_counter()
                res = program.run(job)
                dt = time.perf_counter() - t0
                if on:
                    tracer.disable()
                    traced_s += dt
                    if job["kind"] == "cli":
                        tracer.add("cli.main.output_bytes", len(res[1].encode()))
                else:
                    untraced_s += dt
                if outputs[i] is None:
                    outputs[i] = res
                elif outputs[i] != res:
                    unstable.add(i)
        passes += 1
        now = time.perf_counter()
        if now - t_start + (now - pass_start) > seconds:
            break
    if spans_path:
        tracer.write_spans(spans_path)
    per_pass = {k: v / passes for k, v in tracer.summary().items()}
    per_pass["trace.overhead_frac"] = 1.0 - untraced_s / traced_s
    return {
        "passes": passes,
        "elapsed_s": time.perf_counter() - t_start,
        "samples_s": [],
        "outputs": outputs,
        "unstable": sorted(unstable),
        "attempted": 2 * passes * len(jobs),
        "per_layer": per_pass,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--jobs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    program = Program(args.root)
    with open(args.jobs, encoding="utf-8") as fh:
        jobs = json.load(fh)
    os.chdir(args.root)  # input paths in the jobs are relative to the checkout
    program.run(min(jobs, key=lambda j: len(json.dumps(j))))  # untimed warm-up
    if args.trace:
        result = run_traced(program, jobs, args.seconds, args.spans)
    else:
        with calibration.Sidecar() as sidecar:
            result = run_timed(program, jobs, args.seconds, sidecar)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
