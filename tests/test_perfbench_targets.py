"""Every function the benchmark traces still exists.

``perfbench/tracing.py`` names its targets as ``<module>.<function>`` or
``<module>.<Class>.<method>`` and rebinds them by name, so deleting or
renaming one would break ``perfbench/run.py --trace 1``.  This test resolves
each name the same way, methods through the class ``__dict__``.
"""

import importlib
import importlib.util
import pathlib

import pytest

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
