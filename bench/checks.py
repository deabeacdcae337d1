"""Correctness checks run on every op. Each returns a list of problems; an op
with any problem counts as failed."""

from __future__ import annotations

import math

from mpgraph.codegen import compile_program, parse_listing, render
from mpgraph.engine import DirectExecutor, init_marginals, iterate
from mpgraph.rules import default_registry
from mpgraph.scheduler import schedule_free_energy, schedule_vmp

MONOTONE_RTOL = 1e-9


def same_run(expected, got, what: str) -> list[str]:
    """Bit-for-bit equality of two runs' F traces and final marginals."""
    problems = []
    if expected.free_energy_trace != got.free_energy_trace:
        problems.append(f"{what}: F trace differs")
    if expected.marginals.keys() != got.marginals.keys():
        problems.append(f"{what}: marginal keys differ")
    else:
        changed = [k for k in expected.marginals
                   if expected.marginals[k].to_json() != got.marginals[k].to_json()]
        if changed:
            problems.append(f"{what}: {len(changed)} final marginals differ, first {changed[0]!r}")
    return problems


def oracle(rec) -> list[str]:
    """Replay the compile's schedules with DirectExecutor (the non-compiled
    reference path) and compare with the interpreted run."""
    direct = DirectExecutor(rec.schedules, rec.fe, default_registry())
    marginals = init_marginals(rec.graph, rec.rf, rec.overrides)
    expected = iterate(direct, rec.data, marginals, rec.max_iters, rec.tol)
    return same_run(expected, rec.result, "DirectExecutor oracle")


def listing_round_trip(rec) -> list[str]:
    if parse_listing(rec.listing) != rec.ir:
        return ["parse_listing(render(ir)) != ir"]
    return []


def recompiled_listing(rec) -> str:
    """Compile the record's model a second time from its graph."""
    registry = default_registry()
    schedules = schedule_vmp(rec.graph, rec.rf, registry=registry, ep_damping=rec.ep_damping)
    fe = schedule_free_energy(rec.graph, rec.rf, registry=registry)
    return render(compile_program(schedules, fe))


def same_listing(listing: str, reference: str) -> list[str]:
    if listing != reference:
        return ["two compiles of the same model rendered different listings"]
    return []


def free_energy_trace(result, monotone: bool) -> list[str]:
    trace = result.free_energy_trace
    if not trace or not all(math.isfinite(f) for f in trace):
        return ["F trace is empty or not finite"]
    if monotone:
        for i, (a, b) in enumerate(zip(trace, trace[1:])):
            if b > a + MONOTONE_RTOL * abs(a):
                return [f"F increased at iteration {i + 1}: {a!r} -> {b!r}"]
    return []
