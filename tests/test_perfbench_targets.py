"""Every function the benchmark traces still exists, and its own calls still work.

``perfbench/tracing.py`` names its targets as ``<module>.<function>`` or
``<module>.<Class>.<method>`` and rebinds them by name, so deleting or
renaming one would break ``perfbench/run.py --trace 1``.  The first test
resolves each name the same way, methods through the class ``__dict__``.
The second makes, untraced, each call that ``perfbench/worker.py`` and
``perfbench/tests`` make on lefdist; those tests are not part of this suite.
"""

import importlib
import importlib.util
import pathlib

import pytest

from lefdist import cli, lefschetz, linalg
from lefdist.lie_cohomology import LieAlgebra, cohomology_dims, heisenberg

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return list(tracing.TARGETS)


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
