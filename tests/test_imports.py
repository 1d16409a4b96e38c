"""Every name a koopdrive module imports is used or re-exported, every name
it exports exists, only model.py writes files itself or tells a bool from a
number, only cli.py starts processes, no cli command reads the configuration
as a dict, only basis.py and rls.update_tick call the unchecked lift kernel,
and every function, class and method the package defines is referenced from
the package or the benchmark."""

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


def process_starts(source: str) -> list[str]:
    """Imports of multiprocessing and concurrent.futures, and reads of
    os.fork: cli._map_roster is the one place that starts processes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "fork"
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            names = ["os.fork"]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name == "os.fork" or name.split(".")[0] == "multiprocessing"
                  or name.split(".")[:2] == ["concurrent", "futures"]]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_detects_process_starts():
    source = ("import multiprocessing.context\nfrom concurrent.futures import Executor\n"
              "from concurrent import futures\nimport os\nos.fork()\nos.getpid()\n"
              "from os import fork\nimport concurrent\nfrom .multiprocessing import x\n"
              "def f():\n    import multiprocessing as mp\n")
    assert process_starts(source) == [
        "multiprocessing.context (line 1)", "concurrent.futures.Executor (line 2)",
        "concurrent.futures (line 3)", "os.fork (line 5)", "os.fork (line 7)",
        "multiprocessing (line 11)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_the_roster_map_starts_processes(path):
    assert process_starts(path.read_text(encoding="utf-8")) == []


def bool_checks(source: str) -> list[str]:
    """Calls of isinstance(..., bool) or isinstance(..., (..., bool, ...)):
    the number rule, model._is_number, is the one place that tells a bool
    from a number."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        kinds = node.args[1]
        kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
        if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
            found.append(f"isinstance(..., bool) (line {node.lineno})")
    return found


def test_detects_bool_checks():
    source = ("isinstance(x, bool)\nisinstance(x, (int, bool))\nisinstance(x, int)\n"
              "isinstance(x, np.bool_)\n")
    assert bool_checks(source) == ["isinstance(..., bool) (line 1)",
                                   "isinstance(..., bool) (line 2)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "model.py"],
                         ids=lambda p: p.name)
def test_only_model_tells_bools_from_numbers(path):
    assert bool_checks(path.read_text(encoding="utf-8")) == []


def config_reads(source: str) -> list[str]:
    """Subscripts of, and .get calls on, the loaded configuration in a cmd_*
    function: the value of a _load_config(...) or json.load(...) call, or a
    name bound to one. Every command reads the Config that cli._build makes."""

    def loads(node):
        func = node.func if isinstance(node, ast.Call) else None
        return (isinstance(func, ast.Name) and func.id == "_load_config"
                or isinstance(func, ast.Attribute) and func.attr in ("load", "loads")
                and isinstance(func.value, ast.Name) and func.value.id == "json")

    found = []
    for func in ast.walk(ast.parse(source)):
        if not (isinstance(func, ast.FunctionDef) and func.name.startswith("cmd_")):
            continue
        names = {target.id for node in ast.walk(func) if isinstance(node, ast.Assign)
                 and loads(node.value) for target in node.targets
                 if isinstance(target, ast.Name)}
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "get":
                receiver, what = node.func.value, ".get"
            elif isinstance(node, ast.Subscript):
                receiver, what = node.value, "subscript"
            else:
                continue
            if loads(receiver) or isinstance(receiver, ast.Name) and receiver.id in names:
                found.append(f"{func.name}: {what} (line {node.lineno})")
    return found


def test_detects_config_reads():
    source = ("def cmd_a(args):\n    cfg = _load_config(args)\n    cfg['fit']\n"
              "    cfg.get('seed', 0)\n    cfg.fit.ridge\n    args.data[0]\n"
              "def cmd_b(args):\n    json.load(fh).get('rls')\n"
              "def helper(cfg):\n    cfg = _load_config(cfg)\n    cfg['eval']\n")
    assert config_reads(source) == ["cmd_a: subscript (line 3)", "cmd_a: .get (line 4)",
                                    "cmd_b: .get (line 8)"]


def test_commands_read_no_config_dict():
    assert config_reads((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


def unchecked_lifts(source: str, module: str) -> list[str]:
    """Reads of ._lift_rows, named by the innermost function making them,
    except in basis.py and in rls.update_tick: the kernel skips the
    finiteness check, so only a caller that makes that check first may use it."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "_lift_rows" \
                    and module != "basis" and (module, func) != ("rls", "update_tick"):
                found.append(f"{func or '<module>'} (line {child.lineno})")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  else func)

    visit(ast.parse(source), None)
    return found


def test_detects_unchecked_lifts():
    source = ("def update_tick(state, basis, rows):\n    basis._lift_rows(rows)\n"
              "def rollout(self, x0):\n    lift = self.basis._lift_rows\n"
              "    def inner():\n        return lift(x0)\n"
              "basis._lift_rows(x)\n")
    assert unchecked_lifts(source, "rls") == ["rollout (line 4)", "<module> (line 7)"]
    assert unchecked_lifts(source, "model") == ["update_tick (line 2)", "rollout (line 4)",
                                                "<module> (line 7)"]
    assert unchecked_lifts(source, "basis") == []


@pytest.mark.parametrize("path", MODULES + sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_only_checked_callers_use_the_lift_kernel(path):
    assert unchecked_lifts(path.read_text(encoding="utf-8"), path.stem) == []


def _class_named(node, classes):
    """The class an annotation names, written as a name or a string, if it is
    one of the classes."""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    else:
        return None
    return name if name in classes else None


class _Reads(ast.NodeVisitor):
    """Every name and attribute a source reads. An attribute counts as
    Class.attr when the class of its receiver is known and defines attr, and
    as the bare attr otherwise."""

    def __init__(self, classes, methods, returns):
        self.classes, self.methods, self.returns = classes, methods, returns
        self.used = set()
        self.owner = [None]  # the class whose body encloses the node
        self.scopes = []  # per enclosing function: local name -> class or None

    def visit_ClassDef(self, node):
        self.owner.append(node.name)
        self.generic_visit(node)
        self.owner.pop()

    def visit_FunctionDef(self, node):
        self.scopes.append(self._local_classes(node))
        self.generic_visit(node)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        self.used.add(node.id)

    def visit_Attribute(self, node):
        key = f"{self.class_of(node.value)}.{node.attr}"
        self.used.add(key if key in self.methods else node.attr)
        self.generic_visit(node)

    def class_of(self, node):
        """The class of an expression's value, where the source shows it."""
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                return func.id if func.id in self.classes else self.returns.get(func.id)
            if isinstance(func, ast.Attribute):
                return self.returns.get(f"{self.class_of(func.value)}.{func.attr}")
            return None
        if not isinstance(node, ast.Name):
            return None
        for scope in reversed(self.scopes):
            if node.id in scope:
                return scope[node.id]
        if node.id in ("self", "cls"):
            return self.owner[-1]
        return node.id if node.id in self.classes else None

    def _local_classes(self, func):
        """Local name -> class for names whose every binding in the function
        is an annotation naming a class or an assignment from a call whose
        class is known; None for every other bound name."""
        local = {}

        def bind(name, cls):
            local[name] = cls if local.get(name, cls) == cls else None

        typed = set()
        for arg in func.args.posonlyargs + func.args.args + func.args.kwonlyargs:
            if arg.annotation is not None:
                bind(arg.arg, _class_named(arg.annotation, self.classes))
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                bind(node.targets[0].id, self.class_of(node.value))
                typed.add(node.targets[0])
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                bind(node.target.id, _class_named(node.annotation, self.classes))
                typed.add(node.target)
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) \
                    and node not in typed:
                local[node.id] = None
        return local


def unreferenced_definitions(defining: list[str], referring: list[str]) -> list[str]:
    """Functions, classes and methods defined in the defining sources that no
    Name or attribute in the referring sources reads. A method is keyed
    Class.method: a read counts for that class alone when the class of its
    receiver is known (the class itself; self or cls in its body; a call of
    its constructor, or of a function or method annotated to return it; a
    local name bound only to such calls or annotated with the class), and for
    every method of that name otherwise. Dunder methods are called by Python
    itself and are left out."""
    trees = [ast.parse(source) for source in defining]
    classes = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    defined, methods, returns = {}, set(), {}
    for tree in trees:
        in_class = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        key = f"{node.name}.{item.name}"
                        in_class.add(item)
                        methods.add(key)
                        defined.setdefault(key, item.lineno)
                        returns[key] = _class_named(item.returns, classes)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and node not in in_class:
                defined.setdefault(node.name, node.lineno)
                if not isinstance(node, ast.ClassDef):
                    returns[node.name] = _class_named(node.returns, classes)
    used = set()
    for source in referring:
        reads = _Reads(classes, methods, returns)
        reads.visit(ast.parse(source))
        used |= reads.used

    dead = []
    for key, line in defined.items():
        name = key.rpartition(".")[2]
        if key not in used and name not in used \
                and not (name.startswith("__") and name.endswith("__")):
            dead.append(f"{key} (line {line})")
    return sorted(dead)


def test_detects_unreferenced_definitions():
    source = ("class A:\n    def __len__(self): return 0\n    def used(self): pass\n"
              "    def dead(self): pass\ndef helper(): pass\n")
    assert unreferenced_definitions([source], [source, "A().used()\nf = helper\n"]) == \
        ["A.dead (line 4)"]
    # a dead method beside a live one of the same name, called on a receiver
    # whose class a return annotation gives
    routes = ("class RouteSpec:\n    def to_csv(self, path): pass\n"
              "class AdvisoryProfile:\n    def to_csv(self, path): pass\n"
              "def solve_eco_dp(route: RouteSpec) -> AdvisoryProfile: pass\n")
    cli = "def cmd(args):\n    profile = solve_eco_dp(args)\n    profile.to_csv(args.out)\n"
    assert unreferenced_definitions([routes], [routes, cli]) == ["RouteSpec.to_csv (line 2)"]
    # a receiver of unknown class, here a loop variable, reads the method of
    # every class
    unknown = ("def cmd(args):\n    for profile in [solve_eco_dp(args)]:\n"
               "        profile.to_csv(args.out)\n")
    assert unreferenced_definitions([routes], [routes, unknown]) == []


def test_every_definition_is_referenced():
    package = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    bench = [p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py"))]
    assert unreferenced_definitions(package, package + bench) == []
