"""Free-energy cost per term kind on the four bundled models at the
benchmark's sizes: microseconds per term, evaluating the terms one time
slice at a time against one batched evaluation per group (the way the
executors evaluate F), and the whole F both ways.

Each model runs a few iterations first, so the beliefs are the kind a run
evaluates F on. The beliefs are resolved before timing, so the columns time
the energies only; ``F`` rows time ``Executor.free_energy`` (slot
resolution included) against the same terms evaluated one by one. A group
is the terms of one energy with equal constants (entropies: one weight);
each timing is the best of five.

A script, not a test (pytest does not collect it, and it asserts no time):

    PYTHONPATH=src python tests/scaling_free_energy.py

It prints a Markdown table.
"""

import time

from mpgraph.codegen import Interpreter, group_terms
from mpgraph.distributions import BatchEnergy
from mpgraph.engine import compile_model, init_marginals
from mpgraph.models import Co2Model, HmgmModel, ProbitSsmModel, RandomWalkModel, sample_generative

REPEATS = 5


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


def stacks(group, columns) -> bool:
    """Whether a group's beliefs stack. The terms of one energy and
    constants may read beliefs of different sizes (the Gaussian priors of a
    model with a 1-D and a 2-D parameter); the executors then evaluate
    that group term by term."""
    if not isinstance(group.energy, BatchEnergy):
        return False
    try:
        group.energy.batch(columns, group.constants)
    except ValueError:
        return False
    return True


def group_name(runner, group, qs_rows) -> str:
    _, kind, _, constants = runner.energy_terms[group.positions[0]]
    if kind != "entropy":
        return kind
    families = sorted({f"{type(qs[0]).__name__}" + (f" d={qs[0].dim}" if hasattr(qs[0], "dim") else "")
                       for qs in qs_rows})
    return f"entropy, weight {constants.get('weight', 1.0):+g}: {', '.join(families)}"


def main():
    print("| model | term kind | terms | one at a time (µs/term) | batched (µs/term) | speed-up |")
    print("|---|---|---|---|---|---|")
    for name, program, data, overrides, iterations in bench_models():
        runner = Interpreter(program.ir)
        marginals = init_marginals(program.factorization, program.rf, overrides)
        for _ in range(iterations):
            runner.run_iteration(data, marginals)
        runner.free_energy(data, marginals)  # derived forms are cached once
        rows: dict[str, list] = {}
        singles_total = 0.0
        for group in group_terms(runner.energy_terms):
            qs_rows = [[runner.resolve(s, None, data, marginals) for s in slots] for slots in group.slots]
            columns = [list(column) for column in zip(*qs_rows)]
            one = best(lambda: [group.energy(qs, group.constants) for qs in qs_rows])
            singles_total += one
            batched = best(lambda: group.energy.batch(columns, group.constants)) if stacks(group, columns) else one
            row = rows.setdefault(group_name(runner, group, qs_rows), [0, 0.0, 0.0])
            row[0] += len(qs_rows)
            row[1] += one
            row[2] += batched
        for kind, (n, one, batched) in sorted(rows.items(), key=lambda item: -item[1][1]):
            print(f"| {name} | {kind} | {n} | {one / n * 1e6:.1f} | {batched / n * 1e6:.1f} | "
                  f"{one / batched:.1f}x |")
        n = len(runner.energy_terms)
        total = best(lambda: runner.free_energy(data, marginals))
        print(f"| {name} | F (free_energy, slots resolved) | {n} | {singles_total / n * 1e6:.1f} | "
              f"{total / n * 1e6:.1f} | {singles_total / total:.1f}x |", flush=True)


if __name__ == "__main__":
    main()
