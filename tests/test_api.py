"""The public API: ``etsafe.__all__`` is well formed, and every public
module-level function has a user in the library or the demos."""

import ast
import importlib
import inspect
import os
import pkgutil

import etsafe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.dirname(etsafe.__file__)

# build_constraint's "standard" mode needs it for the CBF-QP baseline of the
# planned filter-duration audit; it is deleted if that audit is not written
UNUSED_ALLOWED = {"safety_filter.filter_active"}


def test_all_is_sorted_unique_and_resolves():
    assert etsafe.__all__ == sorted(set(etsafe.__all__))
    for name in etsafe.__all__:
        assert hasattr(etsafe, name), name


def _referenced_names() -> set[str]:
    """Every name and attribute read in the code of the package modules
    (``__init__.py`` excepted) and of the demos; imports do not count."""
    paths = [os.path.join(PACKAGE, f) for f in os.listdir(PACKAGE) if f != "__init__.py"]
    demos = os.path.join(ROOT, "demos")
    paths += [os.path.join(demos, f) for f in os.listdir(demos)]
    names = set()
    for path in paths:
        if not path.endswith(".py"):
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_function_has_a_user():
    used = _referenced_names()
    unused = []
    for info in pkgutil.iter_modules(etsafe.__path__):
        module = importlib.import_module(f"etsafe.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == module.__name__ and name not in used:
                unused.append(f"{info.name}.{name}")
    assert [q for q in unused if q not in UNUSED_ALLOWED] == []
