"""The benchmark's tracer patches koopdrive functions by name.

`bench/tracing.py` looks each `TARGETS` entry up as `vars(owner)[attr]`, so
renaming or deleting a traced function (`rls.rls_update`,
`LiftedBasis.lift`, ...) makes every traced benchmark run fail with a
KeyError. The benchmark's own smoke test sits outside the tier-1 test paths;
these checks keep the names in step with the package.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("owner, attr", [(owner, attr) for owner, attr, _, _ in tracing.TARGETS],
                         ids=[name for _, _, name, _ in tracing.TARGETS])
def test_traced_target_resolves(owner, attr):
    assert attr in vars(owner)


def test_tracer_installs_and_restores_every_target():
    before = [vars(owner)[attr] for owner, attr, _, _ in tracing.TARGETS]
    with tracing.Tracer().active():
        during = [vars(owner)[attr] for owner, attr, _, _ in tracing.TARGETS]
    assert all(now is not raw for now, raw in zip(during, before))
    assert all(vars(owner)[attr] is raw
               for (owner, attr, _, _), raw in zip(tracing.TARGETS, before))
