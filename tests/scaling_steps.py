"""Interpreter cost per planned program on the four bundled models at the
benchmark's sizes: each factor step and the free-energy program run one
instruction at a time (the order ``engine.DirectExecutor`` walks) against
the grouped plan ``codegen.Interpreter`` runs, where a program's
independent instructions of one batched rule or energy go through one call.
Both go through the executor loop (``Executor.run_items``), which runs a
lone instruction in its own frame up to ``Rule.apply``.

Each model runs a few iterations first, so the beliefs are the kind a run
sees. A program's first row gives milliseconds per run of it (``step`` for
a factor step, ``F`` for the free-energy program, slot resolution
included); the other rows give microseconds per instruction of a rule id or
term kind in that program (a group's time is shared out over its
instructions), and in the grouped column the number of calls the
instructions took. A row under 5% of its program's time in both columns is
left out. Each timing is the best of five runs.

A second table gives the per-object floor under a one-dimensional message, in
microseconds (``timeit``): building a 1-D ``GaussianMeanVariance`` and a
``GaussianCanonical`` from floats, a 1-D ``product``, and the walk's
``variational:addition:out`` rule applied alone (``Rule.apply``), run as a
lone instruction through the executor loop (``Executor.run_items``, as both
executors run one; per instruction of a program of ``LONE`` of them),
called as a batch of one, and per member in batches of 10 and 100. Then the same floor under hmgm's 3-state
chain messages: a 3-state ``Categorical`` built from a tuple of floats and
from an array, a 3-state ``product``, and ``variational:transition:out``
applied alone. Then the floor under a group's 2-D
Gaussians, as the walk's 1,600 two-slice joints have it: a 2-D
``GaussianMeanVariance`` built by its constructor against one member of a
stack of 1,600 checked in one pass (``distributions.stack_members``), and per
member, the moments a grouped reader stacks (``_stacked(column,
mean_and_cov)``) from 1,600 Gaussians built one at a time, restacked,
against the group's own members, whose stack it takes back. Then the same
for hmgm's groups of 200: a 2x2 ``Wishart`` (a message toward a precision)
and a 3x3 two-slice joint (a ``Categorical`` table) built by their
constructors against one member of a checked stack of 200, and the 2x2
inverse its Wishart product folds with, on floats (``_linalg.inverse_2x2``)
against ``spd_inverse``'s numpy body. Its last rows give the microseconds
per member of a product of 200 messages, as a parameter marginal
multiplies them (2-D Gaussians, 2x2 Wisharts, 3x3 Dirichlets and Gammas,
drawn from a fixed seed): the pairwise ``product`` folded left to right
(``Executor.belief``), and ``product_all``'s one pass
(``Interpreter.belief``); the 2x2 Wisharts' one pass is the float fold.

A script, not a test (pytest does not collect it, and it asserts no time):

    PYTHONPATH=src python tests/scaling_steps.py

It prints two Markdown tables.
"""

import time
import timeit
from collections import defaultdict

import numpy as np

from mpgraph._linalg import floored_eigh, inverse_2x2, symmetrize
from mpgraph.codegen import Executor, Interpreter
from mpgraph.distributions import (
    Categorical,
    Dirichlet,
    Gamma,
    GaussianCanonical,
    GaussianMeanVariance,
    Wishart,
    _stacked,
    stack_members,
    mean_and_cov,
    product,
    product_all,
)
from mpgraph.engine import compile_model, init_marginals
from mpgraph.models import Co2Model, HmgmModel, ProbitSsmModel, RandomWalkModel, sample_generative
from mpgraph.rules import MARGINAL, MESSAGE, VOID, default_registry
from mpgraph.scheduler import Instruction

REPEATS = 5
NUMBER = 2000  # calls per timing of the floor table
MEMBERS = 200  # messages per product of the floor table
JOINTS = 1600  # members of a group of 2-D Gaussians in the floor table
LONE = 100  # lone instructions per program timed through the executor loop


def bench_models():
    """(name, program, data, initial marginals, iterations run first) at the
    benchmark's sizes; co2 is one streaming batch of 24."""
    T = 1600
    data, _ = sample_generative("random-walk", 1, T=T)
    yield "random walk T=1600", compile_model(*RandomWalkModel().build(T)), data, \
        RandomWalkModel().initial_marginals(T), 2
    T = 96
    data, _ = sample_generative("probit-ssm", 1, T=T)
    yield "probit T=96", compile_model(*ProbitSsmModel().build(T), ep_damping=0.5), data, \
        ProbitSsmModel().initial_marginals(T), 5
    T, model = 200, HmgmModel(K=3)
    data, _ = sample_generative("hmgm", 1, T=T)
    yield "hmgm K=3 T=200", compile_model(*model.build(T)), data, model.initial_marginals(T, data), 5
    T = 24
    series, _ = sample_generative("co2-synthetic", 1, T=192)
    yield "co2 batch of 24", compile_model(*Co2Model().build(T)), {"y": series["y"][:T]}, \
        Co2Model().initial_marginals(T), 5


def best(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def run(runner, key, data, marginals, grouped: bool):
    """One run of program ``key`` (a factor id, None for F) through the
    executor loop (``Executor.run_items``): in its plan's order, or one
    instruction at a time."""
    runner.values = [None] * len(runner.energy_terms)
    runner.run_items(key, runner._plans[key] if grouped else range(len(runner._programs[key])), data, marginals)


def per_key(runner, key, data, marginals, grouped: bool) -> dict:
    """rule id or term kind -> [instructions, calls, seconds] over one run
    of program ``key``, best of ``REPEATS``."""
    program = runner._programs[key]
    items = runner._plans[key] if grouped else range(len(program))
    rows: dict = defaultdict(lambda: [0, 0, float("inf")])
    for repeat in range(REPEATS):
        runner.values = [None] * len(runner.energy_terms)
        spent: dict = defaultdict(float)
        for item in items:
            start = time.perf_counter()
            if item.__class__ is int:
                runner.run_items(key, (item,), data, marginals)
                applies, count = program[item].rule_id or program[item].opcode, 1
            else:
                runner.run_group(key, item, data, marginals)
                applies, count = item.rule_id, len(item.positions)
            spent[applies] += time.perf_counter() - start
            if repeat == 0:
                rows[applies][0] += count
                rows[applies][1] += 1
        for applies, seconds in spent.items():
            rows[applies][2] = min(rows[applies][2], seconds)
    return rows


def program_rows(runner, data, marginals) -> list:
    """``(program, applies, instructions, one at a time s, grouped s,
    grouped calls)`` for each planned program of ``runner`` (each factor
    step, then F): first the whole program (``applies`` None, calls the
    plan's length), then each rule id or term kind, slowest alone first."""
    rows = []
    for key, program in runner._programs.items():
        name = "F" if key is None else key
        alone = best(lambda: run(runner, key, data, marginals, grouped=False))
        grouped = best(lambda: run(runner, key, data, marginals, grouped=True))
        rows.append((name, None, len(program), alone, grouped, len(runner._plans[key])))
        singles = per_key(runner, key, data, marginals, False)
        batches = per_key(runner, key, data, marginals, True)
        for applies, (n, _, seconds) in sorted(singles.items(), key=lambda item: -item[1][2]):
            _, calls, batched = batches[applies]
            rows.append((name, applies, n, seconds, batched, calls))
    return rows


def floor_rows() -> list:
    """``(what, microseconds per object or message)`` for the floor table."""
    msg, shift = GaussianMeanVariance(0.25, 2.0), GaussianCanonical(1.5, 4.0)
    rule = default_registry().lookup("addition", "out", [(VOID, None), (MESSAGE, GaussianMeanVariance),
                                                         (MARGINAL, GaussianCanonical)], "variational")

    def micros(fn, per=1, number=NUMBER) -> float:
        return min(timeit.repeat(fn, number=number, repeat=REPEATS)) / number / per * 1e6

    slots = [("void",), ("marginal", "msg"), ("marginal", "shift")]
    program = [Instruction("rule", ("msg", i), slots, rule.id) for i in range(LONE)]
    loop, marginals = Executor(None, {"X": program}, [], {}), {"msg": msg, "shift": shift}
    rows = [("1-D GaussianMeanVariance from floats", micros(lambda: GaussianMeanVariance(0.25, 2.0))),
            ("1-D GaussianCanonical from floats", micros(lambda: GaussianCanonical(0.5, 3.0))),
            ("1-D product", micros(lambda: product(msg, shift))),
            (f"{rule.id} alone (Rule.apply)", micros(lambda: rule.apply([None, msg, shift], {}))),
            (f"{rule.id} as a lone instruction through the executor loop",
             micros(lambda: loop.run_items("X", range(LONE), {}, marginals), LONE, NUMBER // LONE)),
            (f"{rule.id} as a batch of one", micros(lambda: rule.batch([[None], [msg], [shift]], {})))]
    for n in (10, 100):
        columns = [[None] * n, [GaussianMeanVariance(0.25 + i, 2.0) for i in range(n)], [shift] * n]
        rows.append((f"{rule.id} per member, batch of {n}", micros(lambda: rule.batch(columns, {}), n)))
    floats, array = (0.2, 0.3, 0.5), np.array([0.2, 0.3, 0.5])
    state, other = Categorical(floats), Categorical((0.6, 0.1, 0.3))
    table = Dirichlet(1.0 + np.arange(9.0).reshape(3, 3))
    transition = default_registry().lookup("transition", "out", [(VOID, None), (MESSAGE, Categorical),
                                                                 (MARGINAL, Dirichlet)], "variational")
    rows += [("3-state Categorical from floats", micros(lambda: Categorical(floats))),
             ("3-state Categorical from an array", micros(lambda: Categorical(array))),
             ("3-state product", micros(lambda: product(state, other))),
             (f"{transition.id} alone (Rule.apply)", micros(lambda: transition.apply([None, state, table], {})))]
    means, covariances = joint_moments()
    alone = [GaussianMeanVariance(m, v) for m, v in zip(means, covariances)]
    members = stack_members(GaussianMeanVariance, means, covariances)
    rows += [("2-D GaussianMeanVariance by its constructor",
              micros(lambda: GaussianMeanVariance(means[0], covariances[0]))),
             (f"2-D GaussianMeanVariance per member of a checked stack of {JOINTS}",
              micros(lambda: stack_members(GaussianMeanVariance, means, covariances), JOINTS, NUMBER // 100)),
             (f"_stacked(column, mean_and_cov) per member of {JOINTS}, restacked",
              micros(lambda: _stacked(alone, mean_and_cov), JOINTS, NUMBER // 100)),
             (f"_stacked(column, mean_and_cov) per member of {JOINTS}, taken back",
              micros(lambda: _stacked(members, mean_and_cov), JOINTS, NUMBER // 100))]
    scales, dofs, tables = hmgm_groups()
    m = scales[0]
    (a, b), (_, c) = m.tolist()

    def numpy_inverse():
        w, q = floored_eigh(m)
        return symmetrize((q / w) @ q.T)

    rows += [("2x2 Wishart by its constructor", micros(lambda: Wishart(scales[0], dofs[0]))),
             (f"2x2 Wishart per member of a checked stack of {MEMBERS}",
              micros(lambda: stack_members(Wishart, scales, dofs), MEMBERS, NUMBER // 10)),
             ("3x3 joint Categorical by its constructor", micros(lambda: Categorical(tables[0]))),
             (f"3x3 joint Categorical per member of a checked stack of {MEMBERS}",
              micros(lambda: stack_members(Categorical, tables), MEMBERS, NUMBER // 10)),
             ("2x2 inverse, spd_inverse's numpy body", micros(numpy_inverse)),
             ("2x2 inverse on floats (inverse_2x2)", micros(lambda: inverse_2x2(a, b, c)))]
    for family, qs in product_members().items():
        def fold():
            out = qs[0]
            for q in qs[1:]:
                out = product(out, q)
            return out

        for how, fn in (("pairwise fold", fold), ("product_all", lambda: product_all(qs))):
            seconds = min(timeit.repeat(fn, number=max(1, NUMBER // MEMBERS), repeat=REPEATS))
            rows.append((f"{family}, {MEMBERS} messages: {how} per member",
                         seconds / max(1, NUMBER // MEMBERS) / (MEMBERS - 1) * 1e6))
    return rows


def joint_moments() -> tuple:
    """``JOINTS`` 2-D means and covariances, drawn from a fixed seed."""
    rng = np.random.default_rng(2)
    g = rng.normal(size=(JOINTS, 2, 2))
    return rng.normal(size=(JOINTS, 2)), g @ g.swapaxes(1, 2) + 0.1 * np.eye(2)


def hmgm_groups() -> tuple:
    """``MEMBERS`` 2x2 Wishart scales and dofs and 3x3 joint tables, drawn
    from a fixed seed."""
    rng = np.random.default_rng(3)
    g = rng.normal(size=(MEMBERS, 2, 2))
    tables = rng.uniform(size=(MEMBERS, 3, 3))
    return (g @ g.swapaxes(1, 2) + 0.1 * np.eye(2), [3.0 + w for w in rng.uniform(size=MEMBERS).tolist()],
            tables / np.sum(tables, axis=(1, 2), keepdims=True))


def product_members() -> dict:
    """``MEMBERS`` messages of each family a parameter marginal multiplies."""
    rng = np.random.default_rng(1)

    def spd(d):
        g = rng.normal(size=(d, d))
        return g @ g.T + 0.1 * np.eye(d)

    return {"2-D Gaussian": [GaussianCanonical(rng.normal(size=2), spd(2)) for _ in range(MEMBERS)],
            "2x2 Wishart": [Wishart(spd(2), 3.0 + rng.uniform()) for _ in range(MEMBERS)],
            "3x3 Dirichlet": [Dirichlet(1.0 + rng.uniform(size=(3, 3))) for _ in range(MEMBERS)],
            "Gamma": [Gamma(1.5, rng.uniform(0.1, 2.0)) for _ in range(MEMBERS)]}


def main():
    print("| model | program | rule id or term kind | instructions | one at a time | grouped (calls) | speed-up |")
    print("|---|---|---|---|---|---|---|")
    for name, program, data, overrides, iterations in bench_models():
        runner = Interpreter(program.ir)
        marginals = init_marginals(program.factorization, program.rf, overrides)
        for _ in range(iterations):
            runner.run_iteration(data, marginals)
        runner.free_energy(data, marginals)  # derived forms are cached once
        total = {}
        for key, applies, n, alone, grouped, calls in program_rows(runner, data, marginals):
            if applies is None:
                total[key] = alone, grouped
                kind = "F" if key == "F" else "step"
                print(f"| {name} | {key} | {kind} (ms) | {n} | {alone * 1e3:.2f} | {grouped * 1e3:.2f} | "
                      f"{alone / grouped:.2f}x |")
            elif alone >= 0.05 * total[key][0] or grouped >= 0.05 * total[key][1]:
                print(f"| {name} | {key} | {applies} | {n} | {alone / n * 1e6:.1f} µs | "
                      f"{grouped / n * 1e6:.1f} µs ({calls}) | {alone / grouped:.1f}x |", flush=True)

    print()
    print("| per-object floor | µs |")
    print("|---|---|")
    for what, micros in floor_rows():
        print(f"| {what} | {micros:.2f} |")


if __name__ == "__main__":
    main()
