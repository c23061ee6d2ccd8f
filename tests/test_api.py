"""The public API: ``etsafe.__all__`` is well formed, every public
module-level function and class, and each public method of such a class, has
a user in the library or the demos, and README's
configuration table (its keys and the values of its enumerated keys) and
τ-command flags match the code."""

import argparse
import ast
import importlib
import inspect
import os
import pkgutil
import re

import pytest

import etsafe
from etsafe import config, dynamics
from etsafe.cli import build_parser
from etsafe.config import SCHEMA

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.dirname(etsafe.__file__)

# build_constraint's "standard" mode needs it for the CBF-QP baseline of the
# planned filter-duration audit; it is deleted if that audit is not written
UNUSED_ALLOWED = {
    "safety_filter.filter_active",
    # perfbench/tracer.py's METHODS wraps it by name to time the planar build
    "config.ScenarioConfig.build_planar",
}


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


def _is_method(attr) -> bool:
    return inspect.isfunction(attr) or isinstance(attr, (classmethod, staticmethod, property))


def test_every_public_function_and_class_has_a_user():
    """A public function, class or method that only the tests use is API
    kept alive by its own tests."""
    used = _referenced_names()
    unused = []
    for info in pkgutil.iter_modules(etsafe.__path__):
        module = importlib.import_module(f"etsafe.{info.name}")
        for name, obj in vars(module).items():
            is_class = inspect.isclass(obj)
            if name.startswith("_") or not (is_class or inspect.isfunction(obj)):
                continue
            if obj.__module__ != module.__name__:
                continue
            if name not in used:
                unused.append(f"{info.name}.{name}")
            if is_class:
                unused += [
                    f"{info.name}.{name}.{m}"
                    for m, attr in vars(obj).items()
                    if not m.startswith("_") and _is_method(attr) and m not in used
                ]
    assert [q for q in unused if q not in UNUSED_ALLOWED] == []


def _readme() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def test_readme_config_table_is_the_schema():
    rows = re.findall(r"^\| `\[(\w+)\] (\w+)` \|", _readme(), re.MULTILINE)
    assert sorted(rows) == sorted((section, key) for section in SCHEMA for key in SCHEMA[section])


@pytest.mark.parametrize(
    "key, allowed",
    [
        ("[scenario] kind", config._KINDS),
        ("[scenario] trigger_scheme", config._SCHEMES),
        ("[disturbance] kind", dynamics._DISTURBANCE_KINDS),
    ],
    ids=["scenario-kind", "trigger_scheme", "disturbance-kind"],
)
def test_readme_config_table_values_are_the_accepted_ones(key, allowed):
    """The backticked values of an enumerated key's rule, in order, are the
    values the code accepts."""
    rule = re.search(rf"^\| `{re.escape(key)}` \| [^|]* \| ([^|]*) \|$", _readme(), re.MULTILINE)
    assert tuple(re.findall(r"`([^`]+)`", rule.group(1))) == allowed


def test_readme_tau_command_flags_exist():
    """Every flag README gives ``sample-tau`` or ``fit-tau``, on a command
    line or as "`command`'s `--flag`", is one of that subcommand's, and every
    other flag it names in backticks is some subcommand's."""
    subcommands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    text = _readme()
    known = {f for parser in subcommands.values() for f in parser._option_string_actions}
    assert set(re.findall(r"`(--[\w-]+)", text)) - known == set()
    named = []
    for command in ("sample-tau", "fit-tau"):
        lines = re.findall(rf"^etsafe {command} (.*)$", text, re.MULTILINE)
        phrases = re.findall(rf"`{command}`'s ((?:`--[\w-]+`(?:, | and |,\s+)?)+)", text)
        flags = set(re.findall(r"--[\w-]+", " ".join(lines + phrases)))
        assert flags, command
        named += [(command, f) for f in sorted(flags)]
    missing = [(c, f) for c, f in named if f not in subcommands[c]._option_string_actions]
    assert missing == []
