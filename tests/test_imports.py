"""Every name a koopdrive module imports is used or re-exported, every name
it exports exists, only model.py writes files itself, and every function,
class and method the package defines is referenced from the package or the
benchmark."""

import ast
import importlib
import pathlib

import pytest

import koopdrive

PACKAGE = pathlib.Path(koopdrive.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detects_unused_import():
    assert unused_imports("import math\nimport os\nos.sep\n") == ["math (line 1)"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_exist(path):
    module = importlib.import_module(f"koopdrive.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def file_writes(source: str) -> list[str]:
    """Calls of _atomic_write_text, json.dump and json.dumps, which only the
    writers in model.py may make."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "_atomic_write_text":
            found.append(f"_atomic_write_text (line {node.lineno})")
        elif (isinstance(func, ast.Attribute) and func.attr in ("dump", "dumps")
              and isinstance(func.value, ast.Name) and func.value.id == "json"):
            found.append(f"json.{func.attr} (line {node.lineno})")
    return found


def test_detects_file_writes():
    source = "import json\njson.dumps({})\njson.load(fh)\n_atomic_write_text(p, t)\n"
    assert file_writes(source) == ["json.dumps (line 2)", "_atomic_write_text (line 4)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "model.py"],
                         ids=lambda p: p.name)
def test_only_model_writes_files(path):
    assert file_writes(path.read_text(encoding="utf-8")) == []


def unreferenced_definitions(defining: list[str], referring: list[str]) -> list[str]:
    """Functions, classes and methods defined in the defining sources whose
    name no Name or attribute in the referring sources reads. Dunder methods
    are called by Python itself and are left out."""
    defined = {}
    for source in defining:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, node.lineno)
    used = set()
    for source in referring:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{name} (line {line})" for name, line in defined.items()
                  if name not in used and not (name.startswith("__") and name.endswith("__")))


def test_detects_unreferenced_definitions():
    source = ("class A:\n    def __len__(self): return 0\n    def used(self): pass\n"
              "    def dead(self): pass\ndef helper(): pass\n")
    assert unreferenced_definitions([source], [source, "A().used()\nf = helper\n"]) == \
        ["dead (line 4)"]


def test_every_definition_is_referenced():
    package = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    bench = [p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py"))]
    assert unreferenced_definitions(package, package + bench) == []
