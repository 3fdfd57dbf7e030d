"""Tests of the benchmark itself (not of lefdist).

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

INPUTS = ".bench_build/perfbench-test/inputs"


@pytest.fixture(scope="module")
def program():
    return worker.Program(str(ROOT))


def _materialize(w: workloads.Workload):
    for rel, text in w.files.items():
        path = ROOT / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    a = workloads.build(name, 7, INPUTS)
    b = workloads.build(name, 7, INPUTS)
    assert (a.jobs, a.checks, a.files) == (b.jobs, b.checks, b.files)
    c = workloads.build(name, 8, INPUTS)
    assert (c.jobs, c.files) != (a.jobs, a.files)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_second_seed_passes_every_reference(name, capsys):
    assert run.main(["--workload", name, "--seed", "2", "--seconds", "0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_output_is_byte_identical(program, monkeypatch):
    monkeypatch.chdir(ROOT)
    for name in ("toral", "cli_mix", "nil_scrambled"):
        w = workloads.build(name, 3, INPUTS)
        _materialize(w)
        jobs = [j for j in w.jobs if "verify" not in j.get("argv", [])][:12]
        plain = [program.run(j) for j in jobs]
        traced = worker.run_traced(program, jobs, 0, None)
        assert traced["unstable"] == []
        assert traced["outputs"] == plain
        assert traced["per_layer"]["cli.main.self_s"] > 0 or name == "toral"


def test_tracer_restores_the_program(program):
    from tracing import Tracer

    linalg = program.linalg
    det, power = linalg.determinant, program.lefschetz.ToralAutomorphism.power
    tracer = Tracer()
    tracer.enable(0)
    assert linalg.determinant is not det and program.lefschetz.determinant is not det
    t = program.lefschetz.ToralAutomorphism(linalg.IntMatrix([[2, 1], [1, 1]]))
    assert program.lefschetz.toral_lefschetz(t, 3) == -16
    tracer.disable()
    assert linalg.determinant is det and program.lefschetz.ToralAutomorphism.power is power
    stats = tracer.summary()
    assert stats["lefschetz.toral_lefschetz.calls"] == 1
    assert stats["linalg.exterior_power.minors"] == 1 + 4 + 1
    assert stats["linalg.determinant.calls"] >= 7


def test_wrong_expectation_is_counted(program, monkeypatch):
    monkeypatch.chdir(ROOT)
    w = workloads.build("cli_mix", 4, INPUTS)
    _materialize(w)
    picked = [i for i, j in enumerate(w.jobs) if j["argv"][0] in ("mapping-torus", "nilfoliation")][:4]
    jobs = [w.jobs[i] for i in picked]
    checks = [w.checks[i] for i in picked]
    with calibration.Sidecar() as sidecar:
        result = worker.run_timed(program, jobs, 0, sidecar)
    assert result["calibration_s"] and all(x > 0 for x in result["calibration_s"])
    assert run.check_outputs(checks, result) == []
    wrong = copy.deepcopy(checks)
    spec = wrong[0]
    if spec["type"] == "nil":
        spec["betti"][1] += 1
    else:
        spec["atoms"][0][1] = str(int(spec["atoms"][0][1]) + 1)
    bad = run.check_outputs(wrong, result)
    assert [i for i, _ in bad] == [0]


def test_calibration_sidecar_runs_apart_from_the_program():
    with calibration.Sidecar() as sidecar:
        assert sidecar.sample() > 0
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import calibration; "
            "print(sorted(m for m in sys.modules if m.startswith(('lefdist', 'numpy'))))")
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "[]"


def test_each_job_is_scaled_by_the_samples_nearest_it():
    ref_s = calibration.REFERENCE_S
    result = {
        "calibration_at_s": [0.1 * i for i in range(20)],
        "calibration_s": [ref_s] * 10 + [2 * ref_s] * 10,  # the machine halves its speed at 1 s
        "middles_s": [0.2, 1.7],
        "samples_s": [0.01, 0.02],
        "maxrss_kb": 1024,
    }
    assert run.local_slowdowns(result) == [1.0, 2.0]
    metrics = run.end_to_end(result, 0.1, run.local_slowdowns(result))
    assert metrics["job_p50_ms"] == pytest.approx(10.0) and metrics["jobs_per_s"] == pytest.approx(100.0)


def test_flow_inputs_differ_between_seeds_only_in_signs():
    def flow_maps(seed):
        w = workloads.build("cli_mix", seed, INPUTS)
        maps = {}
        for path, text in w.files.items():
            if "/flow-" in path:
                maps[path] = [[[x.lstrip("-") for x in row] for row in o["return_map"]]
                              for o in json.loads(text)["orbits"]]
        return maps, {p: t for p, t in w.files.items() if "/flow-" in p}

    (abs1, files1), (abs2, files2) = flow_maps(1), flow_maps(2)
    assert abs1 == abs2 and files1 != files2


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toral", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_pool_matrices_are_hyperbolic_and_unimodular():
    for n, mats in workloads.POOL.items():
        for m in mats:
            a = np.array(m, dtype=float)
            assert round(abs(np.linalg.det(a))) == 1
            assert np.min(np.abs(np.abs(np.linalg.eigvals(a)) - 1)) > 0.05


def test_reference_betti_numbers():
    assert ref.algebra_betti(ref.heisenberg(1)) == (1, 2, 2, 1)
    assert ref.algebra_betti(ref.heisenberg(2)) == (1, 4, 5, 5, 4, 1)
    assert ref.algebra_betti(ref.filiform(6)) == (1, 2, 3, 4, 3, 2, 1)
    assert ref.algebra_betti(ref.filiform(9)) == (1, 2, 5, 10, 14, 14, 10, 5, 2, 1)
    h = ref.heisenberg(1)
    assert ref.algebra_betti(ref.direct_sum(h, h)) == ref.kunneth((1, 2, 2, 1), (1, 2, 2, 1))


def test_scrambled_algebra_keeps_its_betti_numbers(program):
    import random

    from lefdist.lie_cohomology import LieAlgebra, cohomology_dims

    a = ref.filiform(6)
    consts = workloads.scrambled_constants(a, 0, random.Random(5))
    assert len(consts) > len(a.consts)
    dims = cohomology_dims(LieAlgebra.from_json_obj(a.to_json_obj(consts))).dims
    assert dims == ref.algebra_betti(a)


def test_flow_reference_signs():
    from fractions import Fraction

    assert ref.flow_sign([Fraction(2), Fraction(1, 2)], 1) == -1
    assert ref.flow_sign([Fraction(-2)], 1) == -1
    assert ref.flow_sign([Fraction(-2)], 2) == 1
    atoms = ref.flow_atoms([(Fraction(1), [Fraction(2), Fraction(1, 2)])], Fraction(3), 1e-9)
    assert atoms == [(Fraction(k), Fraction(-1)) for k in (-3, -2, -1, 1, 2, 3)]
