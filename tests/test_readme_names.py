"""The code names `README.md` gives resolve, checked in tier 1 so that a
renamed or deleted name fails here rather than leaving the README to
describe code that is gone. Among the README's inline code spans:

- every `Class.attr` whose `Class` is a roccet_lab class names an
  attribute, method or field of it (a slot or a `Record` field is a
  class attribute too);
- every `module.name` whose `module` is a roccet_lab module names an
  attribute of it (a file name such as `cubic.py` is left out);
- every bare `_name` is an attribute of some roccet_lab class or module;
- every `tests/<file>.py` path exists, and each `::<node>` after it names
  a class or function nested in the one before;

and its "Builtin scenarios" table lists exactly the registry's builtins,
each with exactly its options and their defaults.
"""

import ast
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import pytest

import roccet_lab
from roccet_lab.harness import BUILTINS

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
# Inline code spans, fenced blocks left out.
SPANS = sorted(set(re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", README, flags=re.S))))

MODULES = [
    importlib.import_module(f"roccet_lab.{info.name}")
    for info in pkgutil.iter_modules(roccet_lab.__path__)
]
CLASSES = {
    name: cls
    for module in MODULES
    for name, cls in inspect.getmembers(module, inspect.isclass)
    if cls.__module__.startswith("roccet_lab.")
}

QUALIFIED = [
    m.groups() for s in SPANS
    if (m := re.fullmatch(r"(\w+)\.(\w+)", s)) and m[1] in CLASSES
]
MODULE_NAMES = {module.__name__.rpartition(".")[2]: module for module in MODULES}
IN_MODULE = [
    m.groups() for s in SPANS
    if (m := re.fullmatch(r"(\w+)\.(\w+)", s))
    and m[1] in MODULE_NAMES and m[2] not in ("py", "csv", "json")
]
PRIVATE = [s for s in SPANS if re.fullmatch(r"_[a-z]\w*", s)]
TEST_PATHS = [s for s in SPANS if re.fullmatch(r"tests/\w+\.py(::\w+)*", s)]


def test_each_kind_of_name_is_found():
    # An empty list would make its test below check nothing.
    assert QUALIFIED and IN_MODULE and PRIVATE and TEST_PATHS


@pytest.mark.parametrize("cls, attr", QUALIFIED, ids=".".join)
def test_class_attribute_resolves(cls, attr):
    assert hasattr(CLASSES[cls], attr)


@pytest.mark.parametrize("module, attr", IN_MODULE, ids=".".join)
def test_module_attribute_resolves(module, attr):
    assert hasattr(MODULE_NAMES[module], attr)


@pytest.mark.parametrize("name", PRIVATE)
def test_private_name_resolves(name):
    assert any(hasattr(owner, name) for owner in [*MODULES, *CLASSES.values()])


@pytest.mark.parametrize("path", TEST_PATHS)
def test_test_path_resolves(path):
    file, *nodes = path.split("::")
    body = ast.parse((ROOT / file).read_text(encoding="utf-8")).body
    for node in nodes:
        (found,) = [
            n for n in body
            if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == node
        ]
        body = found.body


def test_builtin_table_matches_registry():
    section = README.split("\n## Builtin scenarios\n", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `([\w-]+)` *\|.*\| (.*) \|$", section, flags=re.M))
    assert rows == {
        name: ", ".join(f"`{key}={json.dumps(value)}`" for key, value in builtin.defaults.items())
        for name, builtin in BUILTINS.items()
    }
