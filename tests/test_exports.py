"""Every name that ``lefdist`` and its modules list in ``__all__`` resolves.

A deletion that leaves a stale ``__all__`` entry fails here, not at a later
``from lefdist import *``.  Modules without ``__all__`` (``cli``, ``errors``,
``verify``) have nothing to check.  The package itself re-exports only the
names of README's library example and the exception classes, and only
``linalg`` and ``verify`` name ``exterior_power``.  No module imports a name
that it never reads, so an import left behind by a deletion fails here too.
README states each cap, and ``CARNOT_GATE_ROWS``, exactly once as
`` `NAME = value` ``, with the value that its module defines.
"""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import lefdist

MODULES = ["lefdist"] + [f"lefdist.{m.name}" for m in pkgutil.iter_modules(lefdist.__path__)]
README = pathlib.Path(__file__).parents[1] / "README.md"
SRC = pathlib.Path(lefdist.__file__).parent
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


def names_in(path: pathlib.Path) -> set[str]:
    """Every identifier that the code of ``path`` binds, imports or reads, docstrings and comments aside."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.alias):
            names |= {node.name, node.asname}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_only_linalg_and_verify_name_exterior_power():
    # the exterior-power traces are verify's route to det(I - m); a main path that took them up would
    # leave that route nothing separate to check
    naming = {p.stem for p in SRC.glob("*.py") if "exterior_power" in names_in(p)}
    assert naming == {"linalg", "verify"}


def imported_but_never_read(path: pathlib.Path) -> set[str]:
    """The names that ``path`` binds by an import and never loads; an ``__all__`` entry counts as a read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return imported - read


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_reads(path):
    # a deletion that leaves its import behind fails here instead of lingering
    assert imported_but_never_read(path) == set()


CAP_NAME = r"MAX_[A-Z_]+|ENUMERATION_CAP|CARNOT_GATE_ROWS"


def defined_caps() -> dict[str, tuple[str, int]]:
    """Each cap that a module of ``lefdist`` assigns at top level, with that module's name and the value."""
    caps = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"lefdist.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for target in node.targets if isinstance(node, ast.Assign) else ():
                if isinstance(target, ast.Name) and re.fullmatch(CAP_NAME, target.id):
                    assert target.id not in caps, f"{target.id} is defined twice"
                    caps[target.id] = (path.stem, getattr(module, target.id))
    return caps


def test_readme_states_each_cap_once_with_its_value():
    # `10^6` reads as 10**6; a module prefix, where given, must be the module that defines the cap
    stated = re.findall(rf"`(?:(\w+)\.)?({CAP_NAME}) = (\d+)(?:\^(\d+))?`", README.read_text(encoding="utf-8"))
    caps = defined_caps()
    assert len(caps) == 8
    readme = sorted((name, module or caps.get(name, ("?",))[0], int(v) ** int(e or 1)) for module, name, v, e in stated)
    assert readme == sorted((name, module, value) for name, (module, value) in caps.items())
