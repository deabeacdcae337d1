"""Spans recorded from outside the mpgraph package.

A span is one call into a layer: its name (``<module>.<call>``), start, end,
parent span and op id. Spans live in flat arrays while the run lasts and are
written out once at the end; self times are computed from them afterwards.

Two levels of instrumentation exist:

* level 0 (every run): spans around the pipeline stages the harness calls
  (build, schedules, compile, render, marginal initialisation, iteration),
  enough to time ``compile_s`` and ``infer_s``;
* level 1 (traced ops only): additionally a registry proxy that times rule
  selection and every ``Rule.apply``, an ``Interpreter`` subclass that times
  each factor step and the free-energy program, and wrappers around the
  cross-module references to ``infer_supports`` and ``analyze_sections``.

Wrappers only time and forward; they never change arguments or results.
"""

from __future__ import annotations

import contextlib
import json
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

SETUP_OP = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = SETUP_OP
        self.last = 0  # id of the most recently finished span

    def call(self, name, fn, *args, **kwargs):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[sid] = t0
            self.end[sid] = t1
            self.last = sid

    def columns(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
        }

    def write(self, path: Path, meta: dict, **extra):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(json.dumps(self.names)), meta=np.array(json.dumps(meta)),
                 **self.columns(), **extra)


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """A span's duration minus the durations of its direct children."""
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    return dur - child


# ---------------------------------------------------------------------------
# Level-1 proxies
# ---------------------------------------------------------------------------


class TimedRule:
    """Forwards to a registry rule; ``apply`` is recorded as a span named
    ``rules.apply.<kind>``."""

    def __init__(self, rule, tracer: Tracer):
        self._rule = rule
        self._tracer = tracer
        self._span = f"rules.apply.{rule.kind}"

    def apply(self, inbound, constants, previous=None):
        return self._tracer.call(self._span, self._rule.apply, inbound, constants, previous)

    def __getattr__(self, attr):
        return getattr(self._rule, attr)


class TimedRegistry:
    """Delegates to a registry's public ``lookup``, ``by_id`` and
    ``has_rules_for``, timing each call; ``by_id`` hands out timing proxies."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self._proxies: dict[str, TimedRule] = {}

    def lookup(self, kind, role, query_slots, flavor=None):
        return self._tracer.call("rules.lookup", self._inner.lookup, kind, role, query_slots, flavor)

    def by_id(self, rule_id):
        rule = self._tracer.call("rules.by_id", self._inner.by_id, rule_id)
        proxy = self._proxies.get(rule_id)
        if proxy is None:
            proxy = self._proxies[rule_id] = TimedRule(rule, self._tracer)
        return proxy

    def has_rules_for(self, kind):
        return self._tracer.call("rules.has_rules_for", self._inner.has_rules_for, kind)


def is_chain_step(program) -> bool:
    """A step program that writes more than one marginal belongs to a
    multi-variable (chain) recognition factor."""
    return len({ins.output[1] for ins in program if ins.output[0] == "marginal"}) > 1


def timed_interpreter(base, tracer: Tracer):
    """Subclass of ``base`` (mpgraph's Interpreter) that records construction,
    each factor step and each free-energy evaluation as spans."""

    class TimedInterpreter(base):
        def __init__(self, ir, registry=None):
            tracer.call("codegen.Interpreter", super().__init__, ir, registry)
            self._step_span = {
                fid: "codegen.step.chain" if is_chain_step(prog) else "codegen.step.param"
                for fid, prog in ir.steps
            }

        def run_step(self, fid, data, marginals):
            return tracer.call(self._step_span[fid], super().run_step, fid, data, marginals)

        def free_energy(self, data, marginals):
            return tracer.call("codegen.free_energy", super().free_energy, data, marginals)

    return TimedInterpreter


# ---------------------------------------------------------------------------
# Interposition on module attributes
# ---------------------------------------------------------------------------


def timed(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return wrapper


@contextlib.contextmanager
def interposed(replacements):
    """Temporarily replace ``(module, attribute) -> value``; restores the
    originals on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for (mod, attr) in replacements]
    try:
        for (mod, attr), value in replacements.items():
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)


def layer_replacements(tracer: Tracer) -> dict:
    """Level-1 wrappers for calls one layer makes into another by a name it
    imported: support inference (graph) and section analysis (scheduler)."""
    from mpgraph import dsl, engine, graph, scheduler

    supports = timed(tracer, "graph.infer_supports", graph.infer_supports)
    return {
        (dsl, "infer_supports"): supports,
        (scheduler, "infer_supports"): supports,
        (engine, "infer_supports"): supports,
        (engine, "analyze_sections"): timed(tracer, "scheduler.analyze_sections",
                                            scheduler.analyze_sections),
    }
