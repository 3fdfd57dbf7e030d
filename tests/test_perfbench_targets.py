"""Every function the benchmark traces still exists, and its own calls still work.

``perfbench/tracing.py`` names its targets as ``<module>.<function>`` or
``<module>.<Class>.<method>`` and rebinds them by name, so deleting or
renaming one would break ``perfbench/run.py --trace 1``.  The first test
resolves each name the same way, methods through the class ``__dict__``.
The second makes, untraced, each call that ``perfbench/worker.py`` and
``perfbench/tests`` make on lefdist; those tests are not part of this suite.
The third runs the benchmark's ``Tracer`` over ``verify`` and the classical
check, as ``perfbench/run.py --trace 1`` does.
"""

import importlib
import importlib.util
import pathlib

import pytest

from lefdist import cli, lefschetz, linalg, verify
from lefdist.lie_cohomology import LieAlgebra, cohomology_dims, heisenberg

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _targets():
    return list(_tracing().TARGETS)


@pytest.mark.parametrize("qual", _targets())
def test_traced_target_resolves(qual):
    mod_name, *path = qual.split(".")
    names = vars(importlib.import_module(f"lefdist.{mod_name}"))
    for cls in path[:-1]:
        names = vars(names[cls])
    assert path[-1] in names, qual


def test_the_calls_perfbench_makes_still_work(capsys):
    t = lefschetz.ToralAutomorphism(linalg.IntMatrix([[2, 1], [1, 1]]))
    c = lefschetz.verify_classical_lefschetz(t, 3)
    assert (c.sum_of_indices, c.lefschetz_number, c.count) == (-16, -16, 16)
    assert lefschetz.toral_lefschetz(t, 3) == -16
    assert "power" in vars(lefschetz.ToralAutomorphism)
    assert lefschetz.determinant is linalg.determinant
    assert cohomology_dims(LieAlgebra.from_json_obj(heisenberg(1).to_json_obj())).dims == (1, 2, 2, 1)
    rc = cli.main(["surface-suspension", "--genus", "2"])
    assert type(rc) is int and rc == 0
    assert capsys.readouterr().out.startswith("{")


def test_a_traced_run_gives_the_untraced_results_and_counts_the_oracle():
    # every stat lambda of a target that runs must accept its call, or the traced call raises; the
    # prediction map says the brute-force oracle's calls and residues never drop to 0
    t = lefschetz.ToralAutomorphism(linalg.IntMatrix([[2, 1], [1, 1]]))

    def run():
        return verify.run_suite("lefschetz", 1), lefschetz.verify_classical_lefschetz(t, 3)

    untraced = run()
    tracer = _tracing().Tracer()
    tracer.enable(0)
    try:
        traced = run()
    finally:
        tracer.disable()
    assert traced == untraced and all(c.passed for c in traced[0])
    stats = tracer.summary()
    assert stats["verify.brute_force_fixed_point_count.calls"] > 0
    assert stats["verify.brute_force_fixed_point_count.residues"] > 0
    assert not hasattr(verify.brute_force_fixed_point_count, "__wrapped__")  # disable() put the original back
