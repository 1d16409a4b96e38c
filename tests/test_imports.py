"""The package imports nothing, so importing a module loads that module and its
own imports alone, and the project's version is the package's; every name a
koopdrive module imports is used or re-exported, every name it exports exists,
only model.py writes files itself or tells a bool from a number, only
cli._map_roster starts processes, no cli command reads the configuration as a
dict, every cli command applies cli._check_files, the one file check, once,
only basis.lift and model._pairs call the lift kernel basis.lift_many, edmd.py,
rls.py and evaluate.py, which take their pairs and scored windows from
model._pairs and model._window_errors, read no v_ref column and call no lift,
evaluate.py reads no t, v or f_tr column either, only advisory._edge_tables
prices advisory edges, only advisory._interp_values reads the sentinel cut,
only advisory._backward walks the route's steps in reverse, only edmd._fold
calls np.linalg.qr, cli.py reads evaluate.evaluate_horizons once, only
evaluate._horizon_steps turns a horizon into samples, only
model._trusted_trajectory builds an object round its constructor with __new__,
no module but model.py reads _trusted_trajectory, slices a trajectory column by
bounds other than literal integers or calls slice(), no module but model.py
calls slice_samples, so model._pair_blocks alone turns a range of pairs into
a span of samples, only Trajectory.write_csv
asks for a row template, no module but model.py holds a key of the model file's
basis block, every except clause that catches a RuntimeWarning or a
FloatingPointError catches both and calls its own function again under
np.errstate(all="ignore"), every np.errstate call is np.errstate(all="ignore"),
and every function, class and method the package defines is referenced from the
package or the benchmark; and code_lines counts only code lines."""

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
    place that starts processes. Reads of platform.platform and
    platform.processor count too, anywhere: both run `uname -p` in a
    subprocess."""
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
            elif (isinstance(child, ast.Attribute) and child.attr in ("platform", "processor")
                  and isinstance(child.value, ast.Name) and child.value.id == "platform"):
                found.append((child.lineno, f"platform.{child.attr}"))
                names = []
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
              "def f():\n    import multiprocessing as mp\n"
              "platform.platform()\nplatform.processor()\nplatform.machine()\n")
    assert process_starts(source) == [
        "multiprocessing.context (line 1)", "concurrent.futures.Executor (line 2)",
        "concurrent.futures (line 3)", "os.fork (line 5)", "os.fork (line 7)",
        "multiprocessing (line 11)", "platform.platform (line 12)",
        "platform.processor (line 13)"]


def test_detects_process_starts_outside_the_roster_map():
    source = ("def _map_roster(run):\n    import multiprocessing\n"
              "    from concurrent.futures import ProcessPoolExecutor\n    os.fork()\n"
              "def _bind_roster_run(run):\n    from concurrent.futures import process\n"
              "def cmd_simulate(args):\n    pid = os.fork()\n"
              "    def worker():\n        import multiprocessing.pool\n"
              "import concurrent.futures\n"
              "def _map_roster(run):\n    platform.processor()\n")
    assert process_starts(source, "_map_roster") == [
        "concurrent.futures.process (line 6)", "os.fork (line 8)",
        "multiprocessing.pool (line 10)", "concurrent.futures (line 11)",
        "platform.processor (line 13)"]


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
    function: its cfg parameter, the value of a _load_config(...) or
    json.load(...) call, or a name bound to one. Every command reads the
    Config that cli._build makes."""

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
        names.update(arg.arg for arg in func.args.args if arg.arg == "cfg")
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
              "def helper(cfg):\n    cfg = _load_config(cfg)\n    cfg['eval']\n"
              "def cmd_c(args, cfg):\n    cfg['rls']\n    cfg.rls.lam\n    args.get('lam')\n")
    assert config_reads(source) == ["cmd_a: subscript (line 3)", "cmd_a: .get (line 4)",
                                    "cmd_b: .get (line 8)", "cmd_c: subscript (line 13)"]


def test_commands_read_no_config_dict():
    assert config_reads((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


def file_checks(source: str) -> list[str]:
    """Every cmd_* function that does not call _check_files exactly once,
    and every other file check: a function but _check_files named _check_*
    or reading os.path.realpath. cli._check_files is the command line's one
    file rule, applied once per command."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef) or func.name == "_check_files":
            continue
        calls = sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_check_files" for node in ast.walk(func))
        if func.name.startswith("cmd_") and calls != 1:
            found.append(f"{func.name} calls _check_files {calls} times")
        if func.name.startswith("_check_"):
            found.append(f"{func.name} (line {func.lineno})")
    return found + reads_outside(source, "cli", "realpath", ("cli", "_check_files"))


def test_detects_file_checks():
    source = ("def _check_files(inputs, outputs, made=None):\n    os.path.realpath(inputs[0])\n"
              "def _check_distinct(inputs, outputs):\n    os.path.realpath(outputs[0])\n"
              "def cmd_a(args, cfg):\n    _check_files((), ())\n    _check_distinct((), ())\n"
              "def cmd_b(args, cfg):\n    _check_distinct((), ())\n"
              "def cmd_c(args, cfg):\n    _check_files((), ())\n"
              "    def inner():\n        _check_files((), (), args.out)\n"
              "def cmd_d(args, cfg):\n    _check_files((), ())\n")
    assert file_checks(source) == ["_check_distinct (line 3)",
                                   "cmd_b calls _check_files 0 times",
                                   "cmd_c calls _check_files 2 times",
                                   "_check_distinct (line 4)"]


def test_every_command_applies_the_one_file_rule_once():
    assert file_checks((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


# the one lift kernel checks nothing: lift checks its one state first, and
# _pairs hands it the columns of a Trajectory, finite by construction
KERNEL_CALLERS = {("basis", "lift"), ("model", "_pairs")}


def unchecked_lifts(source: str, module: str) -> list[str]:
    """Reads of .lift_many, named by the innermost function making them,
    except in basis.lift and model._pairs."""
    return [f"{func or '<module>'} (line {node.lineno})"
            for node, func in walk_in_functions(source)
            if isinstance(node, ast.Attribute) and node.attr == "lift_many"
            and (module, func) not in KERNEL_CALLERS]


def test_detects_unchecked_lifts():
    source = ("def update_tick(state, basis, buffer):\n"
              "    basis.lift_many(buffer.v, buffer.f_tr)\n"
              "def _pairs(basis, traj):\n    return basis.lift_many(traj.v, traj.f_tr)\n"
              "def lift(self, x):\n    return self.lift_many(x[:1], x[1:])[0]\n"
              "def rollout(self, x0):\n    lift = self.basis.lift_many\n"
              "    def inner():\n        return lift(x0[:1], x0[1:])\n"
              "basis.lift_many(v, f)\n")
    assert unchecked_lifts(source, "rls") == ["update_tick (line 2)", "_pairs (line 4)",
                                              "lift (line 6)", "rollout (line 8)",
                                              "<module> (line 11)"]
    assert unchecked_lifts(source, "model") == ["update_tick (line 2)", "lift (line 6)",
                                                "rollout (line 8)", "<module> (line 11)"]
    assert unchecked_lifts(source, "basis") == ["update_tick (line 2)", "_pairs (line 4)",
                                                "rollout (line 8)", "<module> (line 11)"]


@pytest.mark.parametrize("path", MODULES + sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_only_checked_callers_use_the_lift_kernel(path):
    assert unchecked_lifts(path.read_text(encoding="utf-8"), path.stem) == []


# edmd.build_matrices and rls.update_tick take their transition pairs from
# model._pairs, the one pair rule, and evaluate its window errors from
# model._window_errors, so a change to what a pair is is made in model.py
PAIR_TAKERS = ("edmd", "rls", "evaluate")


def pair_rule_breaks(source: str) -> list[str]:
    """Reads of an attribute named v_ref, and calls of a function or method
    whose name holds "lift", named by the innermost function making them."""
    def breaks(node) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr == "v_ref" and isinstance(node.ctx, ast.Load)
        return isinstance(node, ast.Call) and "lift" in (
            node.func.attr if isinstance(node.func, ast.Attribute)
            else node.func.id if isinstance(node.func, ast.Name) else "")

    return [f"{func or '<module>'}: {ast.unparse(node)} (line {node.lineno})"
            for node, func in walk_in_functions(source) if breaks(node)]


# build_matrices and update_tick as they formed their pairs themselves,
# before both took them from model._pairs
EARLIER_PAIRS = """\
def build_matrices(trajectories, basis):
    for i, traj in enumerate(trajectories):
        for lo in range(0, pairs, _FOLD_ROWS):
            block = traj.slice_samples(lo, hi + 1)
            with np.errstate(all="ignore"):
                Z = basis.lift_many(np.column_stack((block.v, block.f_tr)))
            rows[m:, :N] = Z[:-1]
            rows[m:, N] = block.v_ref[:-1]
            rows[m:, N + 1:] = Z[1:]
def update_tick(state, basis, buffer):
    try:
        psi = basis._lift_columns(buffer.v, buffer.f_tr)
    except (RuntimeWarning, FloatingPointError):
        with np.errstate(all="ignore"):
            return update_tick(state, basis, buffer)
    Z = np.concatenate((psi, buffer.v_ref[:, None]), axis=1)
"""


def test_detects_pair_rule_breaks():
    assert pair_rule_breaks(EARLIER_PAIRS) == [
        "build_matrices: basis.lift_many(np.column_stack((block.v, block.f_tr))) (line 6)",
        "build_matrices: block.v_ref (line 8)",
        "update_tick: basis._lift_columns(buffer.v, buffer.f_tr) (line 12)",
        "update_tick: buffer.v_ref (line 16)"]
    # the pairs from _pairs, the basis's width, a time read and a write of
    # v_ref pass; a lift reached through a name is a call all the same
    source = ("def build_matrices(trajectories, basis):\n"
              "    Z, psi = _pairs(basis, block)\n"
              "    m = 2 * basis.lifted_dim + 1\n"
              "    t0, traj.v_ref = float(block.t[0]), v_ref\n"
              "def rollout(self, x0):\n    lift = self.basis.lift\n    return lift(x0)\n")
    assert pair_rule_breaks(source) == ["rollout: lift(x0) (line 7)"]


@pytest.mark.parametrize("stem", PAIR_TAKERS)
def test_fit_and_tick_take_their_pairs_from_the_one_pair_rule(stem):
    assert pair_rule_breaks((PACKAGE / f"{stem}.py").read_text(encoding="utf-8")) == []


_ERROR_EVENTS = {"RuntimeWarning", "FloatingPointError"}
_IGNORE_ALL = "np.errstate(all='ignore')"


def _calls_itself_again(body: list, func: str | None) -> bool:
    """Whether body is exactly `with np.errstate(all="ignore"): return
    func(...)`, or return self.func(...) in a method."""
    if func is None or len(body) != 1 or not isinstance(body[0], ast.With) \
            or len(body[0].body) != 1:
        return False
    ret = body[0].body[0]
    return ([ast.unparse(item.context_expr) for item in body[0].items] == [_IGNORE_ALL]
            and isinstance(ret, ast.Return) and isinstance(ret.value, ast.Call)
            and ast.unparse(ret.value.func) in (func, f"self.{func}"))


def warning_handlers(source: str) -> list[str]:
    """except clauses naming RuntimeWarning or FloatingPointError that do not
    name both, or whose body is not exactly `with np.errstate(all="ignore"):
    return f(...)`, f the enclosing function (self.f in a method). Under the
    one numerical-error rule a step that warns or raises, whichever the
    caller's error handling makes of a numpy event, is computed again by its
    own function as numpy's default mode computes it, and the checks after
    it give the verdict."""
    found = []
    for node, func in walk_in_functions(source):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            named = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
            if named & _ERROR_EVENTS and not (named >= _ERROR_EVENTS
                                              and _calls_itself_again(node.body, func)):
                found.append(f"{func or '<module>'}: except {ast.unparse(node.type)} "
                             f"(line {node.lineno})")
    return found


def errstate_calls(source: str) -> list[str]:
    """errstate calls other than np.errstate(all="ignore"): a block step
    ignores every numpy event and lets its own checks decide, and every
    handler of the rule above enters that same errstate."""
    return [f"{func or '<module>'}: {ast.unparse(node)} (line {node.lineno})"
            for node, func in walk_in_functions(source)
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("errstate")
            and ast.unparse(node) != _IGNORE_ALL]


# the handlers and errstate calls of rls.py, edmd.py and model.py before the
# one numerical-error rule: rls.py redid its steps in place, and edmd.py and
# model.py ignored overflows and invalid values only
EARLIER_RULES = """\
class RlsState:
    def _folded(self, k):
        try:
            return self._fold_pending(k)
        except RuntimeWarning:
            with np.errstate(all="ignore"):
                return self._fold_pending(k)
def rls_update(state, z, psi_next):
    try:
        sq = eps.dot(eps)
    except RuntimeWarning:
        with np.errstate(all="ignore"):
            sq = eps.dot(eps)
def update_tick(state, basis, buffer):
    try:
        psi = basis._lift_columns(buffer.v, buffer.f_tr)
    except RuntimeWarning:
        with np.errstate(all="ignore"):
            psi = basis._lift_columns(buffer.v, buffer.f_tr)
def build_matrices(trajectories, basis):
    with np.errstate(over="ignore", invalid="ignore"):
        Z = basis.lift_many(rows)
def rollout(self, x0, inputs):
    with np.errstate(over="ignore", invalid="ignore"):
        Z[0] = self.basis.lift(x0)
"""


def test_detects_warning_handlers():
    assert warning_handlers(EARLIER_RULES) == ["_folded: except RuntimeWarning (line 5)",
                                               "rls_update: except RuntimeWarning (line 11)",
                                               "update_tick: except RuntimeWarning (line 17)"]
    source = """\
def f(x):
    try:
        return g(x)
    except (RuntimeWarning, FloatingPointError):
        with np.errstate(all="ignore"):
            return f(x)
class S:
    def h(self, k):
        try:
            return g(k)
        except (FloatingPointError, ValueError, RuntimeWarning):
            with np.errstate(all="ignore"):
                return self.h(k)
def a(x):
    try:
        return g(x)
    except FloatingPointError:
        with np.errstate(all="ignore"):
            return a(x)
def b(x):
    try:
        return g(x)
    except (RuntimeWarning, FloatingPointError):
        with np.errstate(all="ignore"):
            return g(x)
def c(x):
    try:
        return g(x)
    except (RuntimeWarning, FloatingPointError) as exc:
        log(exc)
        with np.errstate(all="ignore"):
            return c(x)
def d(x):
    try:
        return g(x)
    except (RuntimeWarning, FloatingPointError):
        with np.errstate(over="ignore"):
            return d(x)
try:
    y = g(1)
except (RuntimeWarning, FloatingPointError):
    with np.errstate(all="ignore"):
        y = g(1)
try:
    y = g(1)
except ValueError:
    y = None
"""
    assert warning_handlers(source) == [
        "a: except FloatingPointError (line 17)",
        "b: except (RuntimeWarning, FloatingPointError) (line 23)",
        "c: except (RuntimeWarning, FloatingPointError) (line 29)",
        "d: except (RuntimeWarning, FloatingPointError) (line 36)",
        "<module>: except (RuntimeWarning, FloatingPointError) (line 41)"]


def test_detects_errstate_calls():
    assert errstate_calls(EARLIER_RULES) == [
        "build_matrices: np.errstate(over='ignore', invalid='ignore') (line 21)",
        "rollout: np.errstate(over='ignore', invalid='ignore') (line 24)"]
    source = ("with np.errstate(all='ignore'):\n    x = 1\n"
              "def f():\n    with numpy.errstate(all='raise'):\n        pass\n"
              "    np.errstate(under='ignore', all='ignore')\n")
    assert errstate_calls(source) == ["f: numpy.errstate(all='raise') (line 4)",
                                      "f: np.errstate(under='ignore', all='ignore') (line 6)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_warning_handler_redoes_its_step_as_the_default_mode(path):
    assert warning_handlers(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_errstate_ignores_every_numpy_event(path):
    assert errstate_calls(path.read_text(encoding="utf-8")) == []


def walk_in_functions(source: str):
    """Every node of source, in ast order, with the name of the innermost
    function holding it (None at module level)."""
    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            yield child, func
            yield from visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    return visit(ast.parse(source), None)


def reads_outside(source: str, module: str, name: str, home: tuple) -> list[str]:
    """Reads of name, as a name or an attribute, named by the innermost
    function making them, except in home, a (module, function) pair."""
    return [f"{func or '<module>'} (line {node.lineno})"
            for node, func in walk_in_functions(source)
            if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name)
            and isinstance(node.ctx, ast.Load) and (module, func) != home]


def _negative_literal(node) -> bool:
    try:
        return ast.literal_eval(node) < 0
    except (TypeError, ValueError):
        return False


def reverse_walks(source: str) -> list[str]:
    """Calls of reversed, and of range with a negative literal step, named by
    the innermost function making them, except in BACKWARD_WALKER."""
    return [f"{func or '<module>'} (line {node.lineno})"
            for node, func in walk_in_functions(source)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and func != BACKWARD_WALKER
            and (node.func.id == "reversed" or node.func.id == "range"
                 and len(node.args) == 3 and _negative_literal(node.args[2]))]


# the backward pass, the forward pass and the infeasibility walk read one
# edge table, so all three price a step identically and each distinct step
# is priced once
EDGE_PRICER = ("advisory", "_edge_tables")
# _backward's b alone decides SoC feasibility; the sentinel cut only keeps
# the value interpolation well defined
CUT_READER = ("advisory", "_interp_values")
# the value function and the SoC bounds come from one walk back over the
# route's steps, which finds each run of steps sharing a table once
BACKWARD_WALKER = "_backward"
# eval and bench turn a horizon into samples, and refuse one that does not
# fit, by one rule
HORIZON_ROUNDER = ("evaluate", "_horizon_steps")
# the offline fit, its ridge and the online adaptation fold rows into an R
# factor by one call, so fit and adaptation stay one least-squares state
FOLDER = ("edmd", "_fold")
# a fitted, adapted or loaded model is built by the KoopmanModel constructor,
# which checks theta; only a trajectory already checked skips its constructor
NEW_CALLER = ("model", "_trusted_trajectory")
# a trajectory is sliced by one rule, Trajectory.slice_samples; only model.py
# builds a trusted trajectory, so no other module slices round that rule
SLICER = "model"
# the row template is keyed on the bytes of the t and v_ref columns it
# formats; only the trajectory writer asks for one, so no caller can hand a
# file the cells of another trajectory
ROW_TEMPLATE_CALLER = ("model", "write_csv")


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


def test_detects_reverse_walks():
    source = ("def _backward(tables):\n    for j in range(len(tables) - 1, -1, -1): pass\n"
              "def _soc_bounds(tables):\n    for step in reversed(tables): pass\n"
              "def _value_function(S):\n    return [j for j in range(S, 0, -2)]\n"
              "def solve_eco_dp(S, k):\n    range(0, S, 2), range(S, 0, k), tables[::-1]\n"
              "    def inner():\n        return list(reversed(range(S)))\n")
    assert reverse_walks(source) == ["_soc_bounds (line 4)", "_value_function (line 6)",
                                     "inner (line 10)"]


def test_only_the_backward_pass_walks_the_steps_in_reverse():
    assert reverse_walks((PACKAGE / "advisory.py").read_text(encoding="utf-8")) == []


# cmd_eval scores the frozen model and the adapted snapshots in one call,
# which builds the windows once; no (module, function) home is exempt
EVERY_READ = (None, None)


def test_detects_evaluate_reads():
    source = ("def cmd_eval(args, cfg):\n"
              "    reports = evaluate_horizons(traj, model, horizons, segment)\n"
              "    if online is not None:\n"
              "        reports += evaluate.evaluate_horizons(traj, model, horizons, segment,\n"
              "                                              online=online)\n"
              "score = evaluate_horizons\n")
    assert reads_outside(source, "cli", "evaluate_horizons", EVERY_READ) == [
        "cmd_eval (line 2)", "cmd_eval (line 4)", "<module> (line 6)"]


def test_eval_scores_both_variants_in_one_call():
    assert len(reads_outside((PACKAGE / "cli.py").read_text(encoding="utf-8"), "cli",
                             "evaluate_horizons", EVERY_READ)) == 1


def test_detects_horizon_roundings():
    source = ("def _horizon_steps(horizon, dt, room, where):\n"
              "    return int(round(_samples('horizon', horizon, dt)))\n"
              "def bench_update(trajectories, model, horizons, online):\n"
              "    steps = [int(round(model._samples('horizon', h, dt))) for h in horizons]\n"
              "    def tick():\n        return _samples('cadence', 1.0, dt)\n")
    assert reads_outside(source, "evaluate", "_samples", HORIZON_ROUNDER) == [
        "bench_update (line 4)", "tick (line 6)"]


def test_only_the_horizon_rule_turns_horizons_into_samples():
    assert reads_outside((PACKAGE / "evaluate.py").read_text(encoding="utf-8"), "evaluate",
                         "_samples", HORIZON_ROUNDER) == []


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


def test_detects_row_template_calls():
    source = ("def write_csv(self, path):\n"
              "    template = _row_template(self.t.tobytes(), self.v_ref.tobytes())\n"
              "def cmd_simulate(args):\n    template = _row_template(t, v_ref)\n"
              "    def simulate(i):\n        model._row_template(t, v_ref)\n")
    assert reads_outside(source, "cli", "_row_template", ROW_TEMPLATE_CALLER) == [
        "write_csv (line 2)", "cmd_simulate (line 4)", "simulate (line 6)"]
    assert reads_outside(source, "model", "_row_template", ROW_TEMPLATE_CALLER) == [
        "cmd_simulate (line 4)", "simulate (line 6)"]


@pytest.mark.parametrize("path", MODULES + sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_only_the_trajectory_writer_asks_for_row_templates(path):
    assert reads_outside(path.read_text(encoding="utf-8"), path.stem, "_row_template",
                         ROW_TEMPLATE_CALLER) == []


# the keys of the model file's basis block: model.py writes and checks the
# block, so no other module spells one out
MODEL_FILE_KEYS = {"state_dim", "monomials", "offset"}


def key_literals(source: str, keys) -> list[str]:
    """String constants equal to one of keys. The attribute name given to
    setattr, getattr or object.__setattr__ is no file key."""
    tree = ast.parse(source)
    attribute_names = {id(node.args[1]) for node in ast.walk(tree)
                       if isinstance(node, ast.Call) and len(node.args) > 1
                       and (isinstance(node.func, ast.Name) and node.func.id in ("setattr",
                                                                                  "getattr")
                            or isinstance(node.func, ast.Attribute)
                            and node.func.attr == "__setattr__")}
    found = [node for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value in keys and id(node) not in attribute_names]
    return [f"{node.value!r} (line {node.lineno})"
            for node in sorted(found, key=lambda node: (node.lineno, node.col_offset))]


def test_detects_model_file_keys():
    source = ('"""A docstring on the offset and the monomials."""\n'
              'block = {"state_dim": 2, "scale": [1.0]}\nblock["monomials"]\n'
              'scaler.get("offset")\nobject.__setattr__(self, "monomials", m)\n'
              'setattr(basis, "offset", 0.0)\nfor key in ("max_degree", "state_dim"): pass\n')
    assert key_literals(source, MODEL_FILE_KEYS) == [
        "'state_dim' (line 2)", "'monomials' (line 3)", "'offset' (line 4)",
        "'state_dim' (line 7)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "model.py"],
                         ids=lambda p: p.name)
def test_only_model_holds_model_file_keys(path):
    assert key_literals(path.read_text(encoding="utf-8"), MODEL_FILE_KEYS) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != SLICER],
                         ids=lambda p: p.name)
def test_only_model_reads_trusted_trajectories(path):
    assert reads_outside(path.read_text(encoding="utf-8"), path.stem, "_trusted_trajectory",
                         (SLICER, None)) == []


# the trajectory columns: a span of their samples (a tick, a split part, a
# fold block, a scored window) is cut by Trajectory.slice_samples alone
COLUMNS = {"t", "v", "f_tr", "v_ref"}


def _literal_bound(node) -> bool:
    if node is None:
        return True
    try:
        return isinstance(ast.literal_eval(node), int)
    except (TypeError, ValueError):
        return False


def column_slices(source: str) -> list[str]:
    """Subscripts of an attribute named t, v, f_tr or v_ref by a slice with a
    bound that is no literal integer, and calls of slice(...), named by the
    innermost function making them. Within a span a column is sliced only at
    fixed offsets, such as [:-1] or [1:]."""
    def cuts(node) -> bool:
        if isinstance(node, ast.Call):
            return isinstance(node.func, ast.Name) and node.func.id == "slice"
        if not (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                and node.value.attr in COLUMNS):
            return False
        index = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        return any(isinstance(part, ast.Slice) and not all(
            map(_literal_bound, (part.lower, part.upper, part.step))) for part in index)

    return [f"{func or '<module>'}: {ast.unparse(node)} (line {node.lineno})"
            for node, func in walk_in_functions(source) if cuts(node)]


# build_matrices' fold block and _window_errors as they sliced the columns by
# hand, before both took their span from Trajectory.slice_samples
EARLIER_SPANS = """\
def build_matrices(trajectories, basis):
    for i, traj in enumerate(trajectories):
        pairs = len(traj) - 1
        for lo in range(0, pairs, _FOLD_ROWS):
            hi = min(lo + _FOLD_ROWS, pairs)
            with np.errstate(all="ignore"):
                Z = basis.lift_many(np.column_stack((traj.v[lo:hi + 1], traj.f_tr[lo:hi + 1])))
            if not np.isfinite(Z).all():
                raise ValueError(f"trajectory {i}: samples {lo}..{hi} (t = {float(traj.t[lo])} "
                                 f"to {float(traj.t[hi])} s) lift to non-finite values")
            rows[m:, N] = traj.v_ref[lo:hi]
def _window_errors(model, traj, k0, steps):
    x0 = np.array([traj.v[k0], traj.f_tr[k0]])
    inputs = traj.v_ref[k0:k0 + steps]
    pred = model.rollout(x0, inputs)
    sl = slice(k0 + 1, k0 + steps + 1)
    return pred.v[1:] - traj.v[sl], pred.f_tr[1:] - traj.f_tr[sl]
"""


def test_detects_column_slices():
    assert column_slices(EARLIER_SPANS) == [
        "build_matrices: traj.v[lo:hi + 1] (line 7)",
        "build_matrices: traj.f_tr[lo:hi + 1] (line 7)",
        "build_matrices: traj.v_ref[lo:hi] (line 11)",
        "_window_errors: traj.v_ref[k0:k0 + steps] (line 14)",
        "_window_errors: slice(k0 + 1, k0 + steps + 1) (line 16)"]
    # update_tick's input column, the offsets within a span, the advisory's
    # segment means, an integer index and a slice of no column pass
    source = ("def update_tick(state, basis, buffer):\n"
              "    Z = np.concatenate((psi, buffer.v_ref[:, None]), axis=1)\n"
              "    return window.v[1:] - pred.v[1:], block.v_ref[:-1], traj.t[lo]\n"
              "def resample_to_time(profile):\n"
              "    vbar = 0.5 * (profile.v_ref[:-1] + profile.v_ref[1:])\n"
              "    return traj.v[::2], rows[lo:hi], traj.v_ref[-k:], traj.t[:, n:]\n")
    assert column_slices(source) == ["resample_to_time: traj.v_ref[-k:] (line 6)",
                                     "resample_to_time: traj.t[:, n:] (line 6)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "model.py"],
                         ids=lambda p: p.name)
def test_only_slice_samples_cuts_a_span_of_samples(path):
    assert column_slices(path.read_text(encoding="utf-8")) == []


# a range of pairs becomes a span of samples in model._pair_blocks alone:
# every fold block, tick, scored window and split part, so no module but
# model.py calls slice_samples
def span_cuts(source: str, module: str) -> list[str]:
    """Reads of slice_samples, named by the innermost function making them;
    the lint reads every module but model.py, which defines it."""
    return reads_outside(source, module, "slice_samples", (SLICER, None))


# build_matrices' and stream_ticks' block loops as they cut their spans of
# pairs themselves, before model._pair_blocks, and split_dataset's cut
EARLIER_BLOCKS = """\
def build_matrices(trajectories, basis):
    for i, traj in enumerate(trajectories):
        pairs = len(traj) - 1
        for lo in range(0, pairs, _FOLD_ROWS):
            hi = min(lo + _FOLD_ROWS, pairs)
            block = traj.slice_samples(lo, hi + 1)
def stream_ticks(state, basis, traj, start, stop, tick_steps):
    for lo in range(start, stop, tick_steps):
        end = min(lo + tick_steps, stop)
        try:
            errs = update_tick(state, basis, traj.slice_samples(lo, end + 1))
        except RlsUpdateRejectedError as exc:
            raise RlsUpdateRejectedError(f"tick of samples {lo} to {end}: {exc}") from exc
def split_dataset(trajectories, split):
    for traj in trajectories:
        parts[part_idx].append(traj.slice_samples(lo, hi))
"""


def test_detects_span_cuts():
    for module in ("edmd", "rls"):
        assert span_cuts(EARLIER_BLOCKS, module) == ["build_matrices (line 6)",
                                                     "stream_ticks (line 11)",
                                                     "split_dataset (line 16)"]
    # the blocks _pair_blocks yields pass; a cut reached through a name is
    # a read all the same
    source = ("def build_matrices(trajectories, basis):\n"
              "    for lo, hi, block in _pair_blocks(traj, 0, len(traj) - 1, _FOLD_ROWS):\n"
              "        Z, psi = _pairs(basis, block)\n"
              "def evaluate_horizons(trajectory, model):\n"
              "    cut = trajectory.slice_samples\n"
              "    return cut(0, 2)\n")
    assert span_cuts(source, "evaluate") == ["evaluate_horizons (line 5)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "model.py"],
                         ids=lambda p: p.name)
def test_only_pair_blocks_cuts_a_span_of_pairs(path):
    assert span_cuts(path.read_text(encoding="utf-8"), path.stem) == []


def column_reads(source: str) -> list[str]:
    """Reads of an attribute named t, v, f_tr or v_ref, shown with the
    subscript taken of it, named by the innermost function making them."""
    shown = {}
    for node, func in walk_in_functions(source):
        column = node.value if isinstance(node, ast.Subscript) else node
        if isinstance(column, ast.Attribute) and column.attr in COLUMNS \
                and isinstance(column.ctx, ast.Load):
            # a subscript comes before its column in ast order
            shown.setdefault(column, f"{func or '<module>'}: {ast.unparse(node)} "
                                     f"(line {node.lineno})")
    return list(shown.values())


# evaluate._window_errors as it scored a window itself, before the scorer
# moved next to model._pairs
EARLIER_WINDOW = """\
def _window_errors(model, traj, k0, steps):
    window = traj.slice_samples(k0, k0 + steps + 1)
    pred = model.rollout((window.v[0], window.f_tr[0]), window.v_ref[:-1])
    return pred.v[1:] - window.v[1:], pred.f_tr[1:] - window.f_tr[1:]
"""


def test_detects_column_reads():
    assert column_reads(EARLIER_WINDOW) == [
        "_window_errors: window.v[0] (line 3)", "_window_errors: window.f_tr[0] (line 3)",
        "_window_errors: window.v_ref[:-1] (line 3)", "_window_errors: pred.v[1:] (line 4)",
        "_window_errors: window.v[1:] (line 4)", "_window_errors: pred.f_tr[1:] (line 4)",
        "_window_errors: window.f_tr[1:] (line 4)"]
    assert pair_rule_breaks(EARLIER_WINDOW) == ["_window_errors: window.v_ref (line 3)"]
    # the period, the segment bounds, the length, a report's fields, a name
    # v and a write of a column pass; a bare column read is flagged
    source = ("def evaluate_horizons(trajectory, model, horizons, segment):\n"
              "    dt, v = trajectory.sample_period, model.basis\n"
              "    i0, i1 = trajectory.segment_indices(*segment)\n"
              "    n, r.rmse_speed_mps, traj.v = len(trajectory), v, v\n"
              "    return trajectory.t\n")
    assert column_reads(source) == ["evaluate_horizons: trajectory.t (line 5)"]


def test_evaluate_reads_no_trajectory_column():
    assert column_reads((PACKAGE / "evaluate.py").read_text(encoding="utf-8")) == []


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
