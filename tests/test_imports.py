"""The package imports nothing, so importing a module loads that module and
its own imports alone, and the project's version is the package's; every
name a koopdrive module imports is used or re-exported, every name it
exports exists, only model.py writes files itself or tells a bool from a
number, only cli._map_roster starts processes, no cli command reads the
configuration as a dict, only basis.py and rls.update_tick call the
unchecked lift kernel, only advisory._edge_tables prices advisory edges,
only advisory._interp_values reads the sentinel cut, only edmd._fold calls
np.linalg.qr, only model._trusted_trajectory builds an object round its
constructor with __new__, no module but model.py reads _trusted_trajectory,
and every function, class and method the package defines is referenced from
the package or the benchmark; and code_lines counts only code lines."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import koopdrive
from code_lines import code_lines

PACKAGE = pathlib.Path(koopdrive.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_the_package_imports_nothing():
    # each module's __all__ is the one list of its public names: the package
    # re-exports none of them
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))] == []


def import_closure(stem: str) -> set[str]:
    """koopdrive and the package modules that importing koopdrive.<stem>
    loads, read from the module-level `from .x import` lines."""
    loaded, todo = {"koopdrive"}, [stem]
    while todo:
        name = todo.pop()
        if f"koopdrive.{name}" in loaded:
            continue
        loaded.add(f"koopdrive.{name}")
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        todo.extend(node.module for node in tree.body
                    if isinstance(node, ast.ImportFrom) and node.level == 1)
    return loaded


def test_import_closure_follows_the_sources():
    assert import_closure("basis") == {"koopdrive", "koopdrive.basis"}
    assert import_closure("cli") == {"koopdrive"} | {f"koopdrive.{p.stem}" for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_importing_a_module_loads_its_closure_alone(path):
    # a fresh interpreter, so no other test's imports count
    script = (f"import sys, koopdrive.{path.stem}\n"
              "print(' '.join(sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'koopdrive')))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == import_closure(path.stem)


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_project_version_is_the_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    config = pyprojecttoml.read_configuration(PACKAGE.parents[1] / "pyproject.toml")
    assert config["project"]["version"] == koopdrive.__version__


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


def process_starts(source: str, home=None) -> list[str]:
    """Imports of multiprocessing and concurrent.futures, and reads of
    os.fork, except in the function named home: cli._map_roster is the one
    place that starts processes."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.module and not child.level:
                names = [f"{child.module}.{alias.name}" for alias in child.names]
            elif (isinstance(child, ast.Attribute) and child.attr == "fork"
                  and isinstance(child.value, ast.Name) and child.value.id == "os"):
                names = ["os.fork"]
            else:
                names = []
            if home is None or func != home:
                found.extend((child.lineno, name) for name in names
                             if name == "os.fork" or name.split(".")[0] == "multiprocessing"
                             or name.split(".")[:2] == ["concurrent", "futures"])
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  else func)

    visit(ast.parse(source), None)
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


def test_detects_process_starts_outside_the_roster_map():
    source = ("def _map_roster(run):\n    import multiprocessing\n"
              "    from concurrent.futures import ProcessPoolExecutor\n    os.fork()\n"
              "def _bind_roster_run(run):\n    from concurrent.futures import process\n"
              "def cmd_simulate(args):\n    pid = os.fork()\n"
              "    def worker():\n        import multiprocessing.pool\n"
              "import concurrent.futures\n")
    assert process_starts(source, "_map_roster") == [
        "concurrent.futures.process (line 6)", "os.fork (line 8)",
        "multiprocessing.pool (line 10)", "concurrent.futures (line 11)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_roster_map_starts_processes(path):
    home = "_map_roster" if path.name == "cli.py" else None
    assert process_starts(path.read_text(encoding="utf-8"), home) == []


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
    """Reads of ._lift_columns, named by the innermost function making them,
    except in basis.py and in rls.update_tick: the kernel skips the
    finiteness check, so only a caller whose input is a Trajectory, finite by
    construction, may use it."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "_lift_columns" \
                    and module != "basis" and (module, func) != ("rls", "update_tick"):
                found.append(f"{func or '<module>'} (line {child.lineno})")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  else func)

    visit(ast.parse(source), None)
    return found


def test_detects_unchecked_lifts():
    source = ("def update_tick(state, basis, buffer):\n"
              "    basis._lift_columns(buffer.v, buffer.f_tr)\n"
              "def rollout(self, x0):\n    lift = self.basis._lift_columns\n"
              "    def inner():\n        return lift(x0[:1], x0[1:])\n"
              "basis._lift_columns(v, f)\n")
    assert unchecked_lifts(source, "rls") == ["rollout (line 4)", "<module> (line 7)"]
    assert unchecked_lifts(source, "model") == ["update_tick (line 2)", "rollout (line 4)",
                                                "<module> (line 7)"]
    assert unchecked_lifts(source, "basis") == []


@pytest.mark.parametrize("path", MODULES + sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_only_checked_callers_use_the_lift_kernel(path):
    assert unchecked_lifts(path.read_text(encoding="utf-8"), path.stem) == []


def reads_outside(source: str, module: str, name: str, home: tuple) -> list[str]:
    """Reads of name, as a name or an attribute, named by the innermost
    function making them, except in home, a (module, function) pair."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute) and child.attr == name) \
                    and isinstance(child.ctx, ast.Load) and (module, func) != home:
                found.append(f"{func or '<module>'} (line {child.lineno})")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  else func)

    visit(ast.parse(source), None)
    return found


# the backward pass, the forward pass and the infeasibility walk read one
# edge table, so all three price a step identically and each distinct step
# is priced once
EDGE_PRICER = ("advisory", "_edge_tables")
# _soc_bounds alone decides SoC feasibility; the sentinel cut only keeps the
# value interpolation well defined
CUT_READER = ("advisory", "_interp_values")
# the offline fit, its ridge and the online adaptation fold rows into an R
# factor by one call, so fit and adaptation stay one least-squares state
FOLDER = ("edmd", "_fold")
# a fitted, adapted or loaded model is built by the KoopmanModel constructor,
# which checks theta; only a trajectory already checked skips its constructor
NEW_CALLER = ("model", "_trusted_trajectory")
# a trajectory is sliced by one rule, Trajectory.slice_samples; only model.py
# builds a trusted trajectory, so no other module slices round that rule
SLICER = "model"


def test_detects_edge_pricings():
    source = ("def _edge_tables(route):\n    edge_quantities(route)\n"
              "def solve_eco_dp(route):\n    price = advisory.edge_quantities\n"
              "    def inner():\n        return price(route)\n"
              "def edge_quantities(v1, v2):\n    return v1\n"
              "edge_quantities(1, 2)\n")
    assert reads_outside(source, "advisory", "edge_quantities", EDGE_PRICER) == [
        "solve_eco_dp (line 4)", "<module> (line 9)"]
    assert reads_outside(source, "cli", "edge_quantities", EDGE_PRICER) == [
        "_edge_tables (line 2)", "solve_eco_dp (line 4)", "<module> (line 9)"]


def test_detects_sentinel_cut_reads():
    source = ("_BIG_CUT = 1e29\n"
              "def _interp_values(v):\n    return v >= _BIG_CUT\n"
              "def solve_eco_dp(cost):\n    return cost < advisory._BIG_CUT\n")
    assert reads_outside(source, "advisory", "_BIG_CUT", CUT_READER) == ["solve_eco_dp (line 5)"]


def test_detects_qr_calls():
    source = ("def _fold(rows):\n    return np.linalg.qr(rows, mode='r')\n"
              "def fit(R, prior):\n    return np.linalg.qr(np.vstack([R, prior]))\n"
              "def _folded(self):\n    return qr(self.stack)\n")
    assert reads_outside(source, "edmd", "qr", FOLDER) == ["fit (line 4)", "_folded (line 6)"]
    assert reads_outside(source, "rls", "qr", FOLDER) == [
        "_fold (line 2)", "fit (line 4)", "_folded (line 6)"]


def test_detects_constructor_bypasses():
    source = ("def _trusted_trajectory(t):\n    out = object.__new__(Trajectory)\n"
              "def from_stacked(cls, theta):\n    model = object.__new__(cls)\n"
              "make = object.__new__\n")
    assert reads_outside(source, "model", "__new__", NEW_CALLER) == [
        "from_stacked (line 4)", "<module> (line 5)"]
    assert reads_outside(source, "rls", "__new__", NEW_CALLER) == [
        "_trusted_trajectory (line 2)", "from_stacked (line 4)", "<module> (line 5)"]


def test_detects_trusted_trajectory_reads():
    source = ("from .model import _trusted_trajectory\n"
              "def stream_ticks(traj, tick):\n"
              "    return _trusted_trajectory(traj.sample_period, traj.t[tick])\n"
              "def cut(traj):\n    return model._trusted_trajectory\n")
    assert reads_outside(source, "rls", "_trusted_trajectory", (SLICER, None)) == [
        "stream_ticks (line 3)", "cut (line 5)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != SLICER],
                         ids=lambda p: p.name)
def test_only_model_reads_trusted_trajectories(path):
    assert reads_outside(path.read_text(encoding="utf-8"), path.stem, "_trusted_trajectory",
                         (SLICER, None)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_trusted_trajectories_skip_their_constructor(path):
    assert reads_outside(path.read_text(encoding="utf-8"), path.stem, "__new__",
                         NEW_CALLER) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_fold_helper_calls_qr(path):
    assert reads_outside(path.read_text(encoding="utf-8"), path.stem, "qr", FOLDER) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_edge_table_prices_advisory_edges(path):
    assert reads_outside(path.read_text(encoding="utf-8"), path.stem, "edge_quantities",
                         EDGE_PRICER) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_interp_values_reads_the_sentinel_cut(path):
    assert reads_outside(path.read_text(encoding="utf-8"), path.stem, "_BIG_CUT",
                         CUT_READER) == []


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


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = ('"""Module docstring,\n\nover three lines."""\n'
              "\n"
              "# a comment\n"
              "import os  # a trailing comment keeps its line\n"
              "\n"
              "class A:\n"
              "    '''Class docstring.'''\n"
              "\n"
              "    def f(self):\n"
              '        """Function docstring,\n        two lines."""\n'
              "        # an indented comment\n"
              "        text = '''a string that is no docstring\n"
              "        spans two code lines'''\n"
              '        "a later string statement is code"\n'
              "        return (text,\n"
              "                os.sep)\n")
    # import, class, def, the two-line string, the later string, the
    # two-line return
    assert code_lines(source) == 8
