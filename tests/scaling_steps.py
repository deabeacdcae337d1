"""Message-passing cost per step and per rule id on the four bundled models
at the benchmark's sizes: each step run one instruction at a time (the order
``engine.DirectExecutor`` walks) against the grouped plan
``codegen.Interpreter`` runs, where a step's independent instructions of one
batched rule go through one call.

Each model runs a few iterations first, so the beliefs are the kind a run
sees. ``step`` rows give milliseconds per run of the step; the other rows
give microseconds per instruction of a rule id in that step (a group's time
is shared out over its instructions), and in the grouped column the number
of calls the instructions took. Each timing is the best of five runs.

A script, not a test (pytest does not collect it, and it asserts no time):

    PYTHONPATH=src python tests/scaling_steps.py

It prints a Markdown table.
"""

import time
from collections import defaultdict

from scaling_free_energy import bench_models

from mpgraph.codegen import Interpreter
from mpgraph.engine import init_marginals

REPEATS = 5


def best(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def per_rule(runner, fid, data, marginals, grouped: bool) -> dict:
    """rule id -> [instructions, calls, seconds] over one run of the step,
    best of ``REPEATS``."""
    program, plan = runner._programs[fid], runner._plans[fid]
    items = plan if grouped else range(len(program))
    rows: dict = defaultdict(lambda: [0, 0, float("inf")])
    for _ in range(REPEATS):
        spent: dict = defaultdict(float)
        for item in items:
            start = time.perf_counter()
            if item.__class__ is int:
                runner.run_instruction(fid, item, program[item], data, marginals)
                key, count = program[item].rule_id or program[item].opcode, 1
            else:
                runner.run_group(fid, item, data, marginals)
                key, count = item.rule_id, len(item.positions)
            spent[key] += time.perf_counter() - start
            if _ == 0:
                rows[key][0] += count
                rows[key][1] += 1
        for key, seconds in spent.items():
            rows[key][2] = min(rows[key][2], seconds)
    return rows


def main():
    print("| model | step | rule id | instructions | one at a time | grouped (calls) | speed-up |")
    print("|---|---|---|---|---|---|---|")
    for name, program, data, overrides, iterations in bench_models():
        runner = Interpreter(program.ir)
        marginals = init_marginals(program.factorization, program.rf, overrides)
        for _ in range(iterations):
            runner.run_iteration(data, marginals)
        for fid, steps in program.ir.steps:
            alone = best(lambda: [runner.run_instruction(fid, pos, ins, data, marginals)
                                  for pos, ins in enumerate(steps)])
            grouped = best(lambda: runner.run_step(fid, data, marginals))
            print(f"| {name} | {fid} | step (ms) | {len(steps)} | {alone * 1e3:.2f} | {grouped * 1e3:.2f} | "
                  f"{alone / grouped:.2f}x |")
            singles = per_rule(runner, fid, data, marginals, grouped=False)
            batches = per_rule(runner, fid, data, marginals, grouped=True)
            for key, (n, _, seconds) in sorted(singles.items(), key=lambda item: -item[1][2]):
                if seconds < 0.05 * alone:
                    continue
                _, calls, batched = batches[key]
                print(f"| {name} | {fid} | {key} | {n} | {seconds / n * 1e6:.1f} µs | "
                      f"{batched / n * 1e6:.1f} µs ({calls}) | {seconds / batched:.1f}x |", flush=True)


if __name__ == "__main__":
    main()
