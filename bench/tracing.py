"""Span tracing of koopdrive's public functions, driven from outside the package.

A `Tracer` wraps each layer boundary listed in `TARGETS` while it is active
and restores the original objects when it leaves. Every namespace that bound
a target at import (for instance `koopdrive.cli` importing `update_tick` by
name) is patched, so a call is recorded whichever module makes it.

Each span records its name, start, end, parent span, an optional work count
(rows, samples, steps, pairs) and whether the call raised. Spans stay in
memory; `layer_metrics` turns them into counts, busy time, self time (busy
time minus the time covered by direct child spans) and per-unit costs.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

import numpy as np

from koopdrive import advisory, basis, driversim, edmd, evaluate, model, rls


def _arg(i, name):
    def get(args, kwargs):
        return args[i] if len(args) > i else kwargs[name]
    return get


_route = _arg(0, "route")
_inputs = _arg(2, "inputs")
_matrices = _arg(0, "matrices")


def _feasible_cells(args, kwargs, result):
    feasible = np.asarray(result[0])
    return (int(np.count_nonzero(feasible)), int(feasible.size))


# (owner, attribute, span name, work count from (args, kwargs, result))
TARGETS = [
    (advisory, "solve_eco_dp", "advisory.solve_eco_dp",
     lambda a, k, r: _route(a, k).n_steps),
    (advisory, "edge_quantities", "advisory.edge_quantities", _feasible_cells),
    (advisory, "resample_to_time", "advisory.resample_to_time", None),
    (advisory.RouteSpec, "read_csv", "advisory.RouteSpec.read_csv", None),
    (driversim, "simulate_driver", "driversim.simulate_driver", lambda a, k, r: len(r)),
    (model.Trajectory, "write_csv", "model.Trajectory.write_csv", lambda a, k, r: len(a[0])),
    (model.Trajectory, "read_csv", "model.Trajectory.read_csv", lambda a, k, r: len(r)),
    (model.Trajectory, "slice_samples", "model.Trajectory.slice_samples", None),
    (model.KoopmanModel, "rollout", "model.KoopmanModel.rollout",
     lambda a, k, r: int(np.size(_inputs(a, k)))),
    (model.KoopmanModel, "save", "model.KoopmanModel.save", None),
    (model.KoopmanModel, "load", "model.KoopmanModel.load", None),
    (basis.LiftedBasis, "lift", "basis.LiftedBasis.lift", None),
    (basis.LiftedBasis, "lift_many", "basis.LiftedBasis.lift_many",
     lambda a, k, r: len(r)),
    (edmd, "build_matrices", "edmd.build_matrices", lambda a, k, r: r.T),
    (edmd, "fit", "edmd.fit", lambda a, k, r: _matrices(a, k).T),
    (edmd, "fit_trajectories", "edmd.fit_trajectories", None),
    (rls, "rls_update", "rls.rls_update", None),
    (rls, "update_tick", "rls.update_tick", lambda a, k, r: len(r)),
    (rls, "snapshot_model", "rls.snapshot_model", None),
    (evaluate, "evaluate_horizons", "evaluate.evaluate_horizons", None),
    (evaluate, "bench_update", "evaluate.bench_update", None),
]

CLI_STAGES = ("advisory", "simulate", "fit", "bench", "eval", "update")
REPLAY_SPAN = "replay"


def _bindings(original):
    """Every (module, name) in the loaded koopdrive modules bound to original."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "koopdrive" or name.startswith("koopdrive.")):
            continue
        for key, value in vars(module).items():
            if value is original:
                found.append((module, key))
    return found


class Tracer:
    """In-memory span recorder; `active()` installs the wrappers."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, work, failed]
        self._stack = []

    @contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        idx = self._open(name)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(idx, None, failed)

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, None, False])
        self._stack.append(idx)
        return idx

    def _close(self, idx, work, failed):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = work
        span[5] = failed
        self._stack.pop()

    def _wrap(self, fn, name, work):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, None, True)
                raise
            tracer._close(idx, None if work is None else work(args, kwargs, result), False)
            return result

        return traced

    @contextmanager
    def active(self):
        """Patch every target for the duration of the block, then restore."""
        undo = []
        try:
            for owner, attr, name, work in TARGETS:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, name, work))
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, patched)
                    continue
                wrapper = self._wrap(raw, name, work)
                if isinstance(owner, type):
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, wrapper)
                    continue
                for namespace, key in _bindings(raw):
                    undo.append((namespace, key, raw))
                    setattr(namespace, key, wrapper)
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)


def layer_metrics(spans):
    """Aggregate recorded spans into the benchmark's per-layer metrics.

    Returns ({name: (value, unit)}, coverage), where coverage counts the
    pairs returned by `update_tick` calls and the accepted `rls_update`
    calls made inside replay spans, for the caller to check against the
    pairs it knows it applied.
    """
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, work, failed in spans:
        if parent >= 0:
            child_time[parent] += end - start

    stats = {}

    def agg(key):
        return stats.setdefault(key, {"calls": 0, "busy": 0.0, "self": 0.0, "work": 0,
                                      "failed": 0, "cells": 0, "feasible": 0})

    lifted_in_ticks = 0
    pairs_in_ticks = 0
    replay_updates = 0
    tick_of = [-1] * n  # nearest enclosing update_tick span, if any
    in_replay = [False] * n
    for i, (name, start, end, parent, work, failed) in enumerate(spans):
        if parent >= 0:
            tick_of[i] = parent if spans[parent][0] == "rls.update_tick" else tick_of[parent]
            in_replay[i] = in_replay[parent] or spans[parent][0] == REPLAY_SPAN
        if name == "rls.rls_update" and in_replay[i] and not failed:
            replay_updates += 1
        key = name
        if name == "basis.LiftedBasis.lift_many" and parent >= 0 \
                and spans[parent][0] == "basis.LiftedBasis.lift":
            key = "basis.LiftedBasis.lift_many.nested"
        s = agg(key)
        s["calls"] += 1
        s["busy"] += end - start
        s["self"] += end - start - child_time[i]
        s["failed"] += int(failed)
        if name == "advisory.edge_quantities" and work is not None:
            s["feasible"] += work[0]
            s["cells"] += work[1]
        elif work is not None:
            s["work"] += work
        if tick_of[i] >= 0:
            if name == "basis.LiftedBasis.lift":
                lifted_in_ticks += 1
            elif key == "basis.LiftedBasis.lift_many":
                lifted_in_ticks += work or 0
        if name == "rls.update_tick" and work is not None:
            pairs_in_ticks += work

    def per(num, den, scale):
        return num * scale / den if den else 0.0

    m = {}
    s = agg("advisory.solve_eco_dp")
    m["advisory.solve_eco_dp.busy_s"] = (s["busy"], "s")
    m["advisory.solve_eco_dp.self_s"] = (s["self"], "s")
    m["advisory.solve_eco_dp.ms_per_step"] = (per(s["busy"], s["work"], 1e3), "ms")
    s = agg("advisory.edge_quantities")
    m["advisory.edge_quantities.calls"] = (s["calls"], "count")
    m["advisory.edge_quantities.busy_s"] = (s["busy"], "s")
    m["advisory.edge_quantities.feasible_ratio"] = (per(s["feasible"], s["cells"], 1.0), "ratio")
    m["advisory.resample_to_time.busy_s"] = (agg("advisory.resample_to_time")["busy"], "s")
    m["advisory.RouteSpec.read_csv.busy_s"] = (agg("advisory.RouteSpec.read_csv")["busy"], "s")
    s = agg("driversim.simulate_driver")
    m["driversim.simulate_driver.calls"] = (s["calls"], "count")
    m["driversim.simulate_driver.us_per_sample"] = (per(s["busy"], s["work"], 1e6), "us")
    s = agg("model.Trajectory.write_csv")
    m["model.Trajectory.write_csv.us_per_row"] = (per(s["busy"], s["work"], 1e6), "us")
    s = agg("model.Trajectory.read_csv")
    m["model.Trajectory.read_csv.us_per_row"] = (per(s["busy"], s["work"], 1e6), "us")
    s = agg("model.Trajectory.slice_samples")
    m["model.Trajectory.slice_samples.calls"] = (s["calls"], "count")
    m["model.Trajectory.slice_samples.us_per_call"] = (per(s["busy"], s["calls"], 1e6), "us")
    s = agg("model.KoopmanModel.rollout")
    m["model.KoopmanModel.rollout.calls"] = (s["calls"], "count")
    m["model.KoopmanModel.rollout.steps"] = (s["work"], "count")
    m["model.KoopmanModel.rollout.us_per_step"] = (per(s["busy"], s["work"], 1e6), "us")
    m["model.KoopmanModel.save.busy_s"] = (agg("model.KoopmanModel.save")["busy"], "s")
    m["model.KoopmanModel.load.busy_s"] = (agg("model.KoopmanModel.load")["busy"], "s")
    s = agg("basis.LiftedBasis.lift_many")
    m["basis.LiftedBasis.lift_many.calls"] = (s["calls"], "count")
    m["basis.LiftedBasis.lift_many.rows"] = (s["work"], "count")
    m["basis.LiftedBasis.lift_many.ns_per_row"] = (per(s["busy"], s["work"], 1e9), "ns")
    s = agg("basis.LiftedBasis.lift")
    m["basis.LiftedBasis.lift.calls"] = (s["calls"], "count")
    m["basis.LiftedBasis.lift.us_per_call"] = (per(s["busy"], s["calls"], 1e6), "us")
    m["basis.LiftedBasis.lift.lifts_per_pair"] = (per(lifted_in_ticks, pairs_in_ticks, 1.0),
                                                  "ratio")
    s = agg("edmd.build_matrices")
    m["edmd.build_matrices.us_per_pair"] = (per(s["busy"], s["work"], 1e6), "us")
    s = agg("edmd.fit")
    m["edmd.fit.calls"] = (s["calls"], "count")
    m["edmd.fit.us_per_pair"] = (per(s["busy"], s["work"], 1e6), "us")
    m["edmd.fit_trajectories.self_s"] = (agg("edmd.fit_trajectories")["self"], "s")
    s = agg("rls.rls_update")
    m["rls.rls_update.calls"] = (s["calls"], "count")
    m["rls.rls_update.us_per_pair"] = (per(s["busy"], s["calls"], 1e6), "us")
    m["rls.rls_update.failed"] = (s["failed"], "count")
    m["rls.rls_update.accept_ratio"] = (per(s["calls"] - s["failed"], s["calls"], 1.0), "ratio")
    s = agg("rls.update_tick")
    m["rls.update_tick.calls"] = (s["calls"], "count")
    m["rls.update_tick.self_s"] = (s["self"], "s")
    m["rls.update_tick.us_per_tick"] = (per(s["busy"], s["calls"], 1e6), "us")
    s = agg("rls.snapshot_model")
    m["rls.snapshot_model.calls"] = (s["calls"], "count")
    m["rls.snapshot_model.us_per_call"] = (per(s["busy"], s["calls"], 1e6), "us")
    for key in ("evaluate.evaluate_horizons", "evaluate.bench_update"):
        s = agg(key)
        m[f"{key}.busy_s"] = (s["busy"], "s")
        m[f"{key}.self_s"] = (s["self"], "s")
    for stage in CLI_STAGES:
        m[f"cli.{stage}.busy_s"] = (agg(f"cli.{stage}")["busy"], "s")
    coverage = {"tick_pairs": pairs_in_ticks, "replay_updates": replay_updates}
    return m, coverage
