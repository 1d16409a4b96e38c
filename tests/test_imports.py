"""Every name a koopdrive module imports is used or re-exported, every name
it exports exists, and only model.py writes files itself."""

import ast
import importlib
import pathlib

import pytest

import koopdrive

MODULES = sorted(p for p in pathlib.Path(koopdrive.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
