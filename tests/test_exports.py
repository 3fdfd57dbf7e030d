"""Every name that ``lefdist`` and its modules list in ``__all__`` resolves.

A deletion that leaves a stale ``__all__`` entry fails here, not at a later
``from lefdist import *``.  Modules without ``__all__`` (``cli``, ``errors``,
``verify``) have nothing to check.  The package itself re-exports only the
names of README's library example and the exception classes.
"""

import importlib
import pathlib
import pkgutil
import re

import pytest

import lefdist

MODULES = ["lefdist"] + [f"lefdist.{m.name}" for m in pkgutil.iter_modules(lefdist.__path__)]
README = pathlib.Path(__file__).parents[1] / "README.md"
EXCEPTIONS = {
    "EnumerationLimitError",
    "InconsistencyError",
    "InvalidLieAlgebraError",
    "NotSimpleError",
    "PreconditionError",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [e for e in getattr(module, "__all__", []) if not hasattr(module, e)] == []


def library_example() -> str:
    """The README's python block that imports from the package."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    (example,) = [b for b in blocks if "from lefdist import (" in b]
    return example


def test_package_exports_only_the_readme_example_and_the_exceptions():
    (names,) = re.findall(r"from lefdist import \((.*?)\)", library_example(), re.S)
    example = {n.strip() for n in names.split(",") if n.strip()}
    assert len(example) == 6
    assert sorted(lefdist.__all__) == sorted(example | EXCEPTIONS)


def test_readme_library_example_runs():
    namespace = {}
    exec(library_example(), namespace)
    cat = namespace["cat"]
    assert namespace["toral_lefschetz"](cat, 2) == -5
    report = namespace["fixed_points_toral"](cat, 2)
    assert (report.count, report.denom) == (5, 5)
    assert {a[0].k: a[1] for a in namespace["mapping_torus"](cat, 5).atoms}[2] == -5
