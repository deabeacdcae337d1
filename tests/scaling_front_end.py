"""Front-end scaling on the README random walk: wall seconds per stage for a
few chain lengths, the cyclic collector's share of them, the objects it
tracks once the program is compiled, and the interpreter's recursion limit
before and after. The per-stage columns each run their own factorization
analysis; the ``compile_model`` column is one call doing what
``schedule_vmp``, ``schedule_free_energy`` and ``compile_program`` do, on one
analysis. It is not part of ``total``.

``collector`` is the time the cyclic garbage collector spent inside the
stages of ``total``, timed with ``gc.callbacks`` by this script (the library
never touches the collector), so ``total / (total - collector)`` estimates
the front end's cost with the collector on over its cost with it off.
``tracked`` counts the objects the collector tracks right after
``compile_program`` (the whole process, imports included).

A script, not a test (pytest does not collect it, and it asserts no time;
``tests/test_scheduler.py`` runs it once at a small T):

    PYTHONPATH=src python tests/scaling_front_end.py [T ...]   # default: 400 1600 6400

It prints a Markdown table; near-linear growth in T is what to look for.
"""

import gc
import sys
import time

from mpgraph.codegen import compile_program, render
from mpgraph.dsl import parse_model
from mpgraph.engine import compile_model, init_marginals
from mpgraph.scheduler import default_factorization, schedule_free_energy, schedule_vmp
from test_cli import RW_MODEL

STAGES = ("parse", "default_factorization", "schedule_vmp", "schedule_free_energy",
          "compile_program", "render", "init_marginals")
COLUMNS = (*STAGES, "compile_model")


class CollectorClock:
    """Wall seconds spent in cyclic collections while ``running`` is set."""

    def __init__(self):
        self.seconds = 0.0
        self.running = False
        self._start = 0.0

    def __call__(self, phase, info):
        if not self.running:
            return
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start


def front_end(T: int, clock: CollectorClock) -> tuple[dict[str, float], int]:
    seconds: dict[str, float] = {}

    def timed(stage, fn, *args):
        clock.running = stage in STAGES
        start = time.perf_counter()
        out = fn(*args)
        seconds[stage] = time.perf_counter() - start
        clock.running = False
        return out

    graph = timed("parse", parse_model, RW_MODEL, {"T": T})
    rf = timed("default_factorization", default_factorization, graph)
    schedules = timed("schedule_vmp", schedule_vmp, graph, rf)
    fe = timed("schedule_free_energy", schedule_free_energy, graph, rf)
    ir = timed("compile_program", compile_program, schedules, fe)
    tracked = len(gc.get_objects())
    timed("render", render, ir)
    timed("init_marginals", init_marginals, graph, rf)
    timed("compile_model", compile_model, graph, rf)
    return seconds, tracked


def main(lengths: list[int]):
    header = ["T", *COLUMNS, "total", "collector", "tracked", "recursion limit before", "after"]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    clock = CollectorClock()
    gc.callbacks.append(clock)
    try:
        for T in lengths:
            gc.collect()  # start every length from the same heap
            clock.seconds = 0.0
            before = sys.getrecursionlimit()
            seconds, tracked = front_end(T, clock)
            after = sys.getrecursionlimit()
            total = sum(seconds[s] for s in STAGES)
            cells = [str(T), *(f"{seconds[s]:.2f}" for s in COLUMNS), f"{total:.2f}", f"{clock.seconds:.2f}",
                     str(tracked), str(before), str(after)]
            print("| " + " | ".join(cells) + " |", flush=True)
    finally:
        gc.callbacks.remove(clock)


if __name__ == "__main__":
    main([int(t) for t in sys.argv[1:]] or [400, 1600, 6400])
