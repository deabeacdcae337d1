"""One workload in one process: set up, run ops for the time budget, check
every op, and print the metrics as the last line of standard output.

The launcher (``run.py``) starts this file. Once set-up is done it prints
``ready <handler seconds> <mean speed>`` so the launcher can time set-up from
process start and rescale it to reference seconds (see ``speed.py``).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from speed import SpeedMeter  # noqa: E402

METER = SpeedMeter()
if __name__ == "__main__":
    METER.start()  # samples the machine's speed from here on, set-up included

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import mpgraph  # noqa: E402
from mpgraph.codegen import Interpreter  # noqa: E402
from mpgraph.rules import default_registry  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import (  # noqa: E402
    SETUP_OP,
    TimedRegistry,
    Tracer,
    interposed,
    layer_replacements,
    self_times,
    timed_interpreter,
)

MIN_OPS = 2  # the listing of one op is compared with another's
CHECK_OP = -2  # spans made while checking belong to no op

# Rule kinds reported one by one; any other kind is summed under "other".
RULE_KINDS = (
    "addition", "categorical", "dirichlet", "equality", "gain", "gamma", "gaussian_affine",
    "gaussian_mean_precision", "gaussian_mean_variance", "gaussian_mixture", "probit",
    "transition", "wishart",
)
MODULES = ("dsl", "models", "graph", "scheduler", "rules", "codegen", "engine")

# Per-layer metrics that are a span's time per compiled model.
PER_COMPILE = {
    "dsl.parse_model_s": "dsl.parse_model",
    "models.build_s": "models.build",
    "graph.infer_supports_s": "graph.infer_supports",
    "scheduler.schedule_vmp_s": "scheduler.schedule_vmp",
    "scheduler.schedule_free_energy_s": "scheduler.schedule_free_energy",
    "codegen.compile_program_s": "codegen.compile_program",
    "codegen.render_s": "codegen.render",
    "engine.init_marginals_s": "engine.init_marginals",
}


class Ctx:
    def __init__(self, tracer, registry, interpreter):
        self.tracer, self.registry, self.interpreter = tracer, registry, interpreter


def plain_ctx(tracer) -> Ctx:
    return Ctx(tracer, default_registry(), Interpreter)


def ir_size(ir) -> int:
    return sum(len(prog) for _, prog in ir.steps) + len(ir.free_energy)


class OpSummary:
    """What is kept of an op after its checks: span ids, sizes and numbers."""

    def __init__(self, k, traced, dataset_index, dataset_seed, span, wall, outcome, problems):
        self.k, self.traced, self.span, self.wall, self.problems = k, traced, span, wall, problems
        self.dataset_index, self.dataset_seed = dataset_index, dataset_seed
        recs = outcome.compiled if outcome else []
        self.front_spans = [r.front_spans for r in recs]
        self.iterations_of = [(r.iterate_span, r.result.wall_clock) for r in recs]
        self.instructions = [ir_size(r.ir) for r in recs]
        self.nodes = [len(r.graph.nodes) for r in recs]
        self.edges = [len(r.graph.edges) for r in recs]
        self.entries = [sum(len(s.entries) for s in r.schedules.values()) for r in recs]
        self.fe_terms = [len(r.fe.energies) + len(r.fe.entropies) for r in recs]
        self.iterations = [r.result.iterations for r in recs]
        self.final_f = [r.result.free_energy_trace[-1] for r in recs]
        self.predictive = outcome.predictive if outcome else None

    @property
    def ok(self):
        return not self.problems

    def record(self) -> dict:
        return {
            "op": self.k, "traced": self.traced, "dataset_seed": self.dataset_seed,
            "wall_s": self.wall, "final_F": self.final_f, "iterations": self.iterations,
            "predictive_score": self.predictive, "problems": self.problems,
        }


class Runner:
    def __init__(self, workload, tracer, datasets):
        self.workload, self.tracer, self.datasets = workload, tracer, datasets
        self.plain = plain_ctx(tracer)
        self.traced = Ctx(tracer, TimedRegistry(self.plain.registry, tracer),
                          timed_interpreter(Interpreter, tracer))
        self.layers = layer_replacements(tracer)
        self.ops: list[OpSummary] = []
        self.reference_listing = None
        self.oracle_done = False
        self.first_traces: dict[int, list] = {}  # dataset index -> F traces

    def run_op(self, index: int, traced: bool) -> OpSummary:
        k = len(self.ops)
        seed, _ = dataset = self.datasets[index]
        tracer = self.tracer
        gc.collect()  # every op starts with the collector in the same state
        tracer.current_op = k
        outcome, problems = None, []
        try:
            with interposed(self.layers if traced else {}):
                outcome = tracer.call("bench.op", self.workload.op,
                                      self.traced if traced else self.plain, dataset)
        except Exception as exc:  # an op that raises counts as failed
            traceback.print_exc()
            problems.append(f"raised {type(exc).__name__}: {exc}")
        span = tracer.last
        wall = tracer.end[span] - tracer.start[span]
        tracer.current_op = CHECK_OP
        if outcome is not None:
            try:
                problems += self.check(index, outcome)
            except Exception as exc:
                traceback.print_exc()
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        summary = OpSummary(k, traced, index, seed, span, wall, outcome, problems)
        self.ops.append(summary)
        print("op " + json.dumps(summary.record()), flush=True)
        return summary

    def check(self, index, outcome) -> list[str]:
        wl, problems = self.workload, []
        recs = outcome.compiled
        for rec in recs:
            problems += checks.free_energy_trace(rec.result, wl.conjugate)
            problems += checks.listing_round_trip(rec)
            if wl.static_model:
                if self.reference_listing is None:
                    self.reference_listing = rec.listing
                else:
                    problems += checks.same_listing(rec.listing, self.reference_listing)
            else:
                problems += checks.same_listing(rec.listing, checks.recompiled_listing(rec))
        if not self.oracle_done:
            for rec in recs:
                problems += checks.oracle(rec)
            self.oracle_done = True
        traces = [rec.result.free_energy_trace for rec in recs]
        first = self.first_traces.setdefault(index, traces)
        if first is not traces and first != traces:
            problems.append("F trace differs from an earlier op on the same dataset")
        return problems


class Timing:
    """Span durations and per-iteration times in reference seconds."""

    def __init__(self, tracer: Tracer, meter: SpeedMeter):
        cols = tracer.columns()
        self.start, self.name, self.op, self.parent = (
            cols["start"], cols["name"], cols["op"], cols["parent"])
        self.meter = meter
        self.wall = cols["end"] - cols["start"]
        self.ref = meter.reference(cols["start"], cols["end"])

    def op_seconds(self, s: OpSummary) -> float:
        return float(self.ref[s.span])

    def compile_seconds(self, s: OpSummary) -> list[float]:
        return [float(self.ref[spans].sum()) for spans in s.front_spans]

    def iteration_seconds(self, s: OpSummary) -> list[float]:
        out = []
        for span, clocks in s.iterations_of:
            starts = self.start[span] + np.concatenate([[0.0], np.cumsum(clocks)[:-1]])
            out += self.meter.reference(starts, starts + np.asarray(clocks)).tolist()
        return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(timing: Timing, ops: list[OpSummary]) -> dict:
    return {
        "compile_s": (statistics.median(c for s in ops for c in timing.compile_seconds(s)), "s"),
        "infer_s": (statistics.median(timing.op_seconds(s) for s in ops), "s"),
        "iter_ms.p50": (1000.0 * statistics.median(
            c for s in ops for c in timing.iteration_seconds(s)), "ms"),
        "ir_instructions": (statistics.median(n for s in ops for n in s.instructions), "count"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(timing: Timing, names: list[str], traced: list[OpSummary],
              untraced: list[OpSummary]) -> dict:
    # Every span of an op is scaled by the op's reference/wall ratio, so self
    # times stay non-negative and add up to the op's reference time exactly.
    scale = np.ones(len(timing.ref))
    for s in traced:
        scale[timing.op == s.k] = timing.ref[s.span] / timing.wall[s.span]
    dur = timing.wall * scale
    own_time = self_times(timing.parent, dur)

    def aggregate(mask, dur):
        ids = timing.name[mask]
        calls = np.bincount(ids, minlength=len(names))
        total = np.bincount(ids, weights=dur[mask], minlength=len(names))
        own = np.bincount(ids, weights=own_time[mask], minlength=len(names))
        return {n: (int(calls[i]), float(total[i]), float(own[i])) for i, n in enumerate(names)}

    spans = aggregate(np.isin(timing.op, [s.k for s in traced]), dur)
    setup = aggregate(timing.op == SETUP_OP, timing.ref)

    def calls(n):
        return spans.get(n, (0, 0.0, 0.0))[0]

    def total(n):
        return spans.get(n, (0, 0.0, 0.0))[1]

    def own(n):
        return spans.get(n, (0, 0.0, 0.0))[2]

    n_ops = len(traced)
    n_compiles = sum(len(s.instructions) for s in traced)
    n_iters = sum(sum(s.iterations) for s in traced)
    executed = sum(i * n for s in traced for i, n in zip(s.iterations, s.instructions))
    op_time = total("bench.op")

    module_self = dict.fromkeys(MODULES + ("bench",), 0.0)
    for n, (_, _, s) in spans.items():
        module_self[n.split(".", 1)[0]] += s
    if abs(sum(module_self.values()) - op_time) > 1e-6 * op_time:
        raise RuntimeError("self times do not add up to the op time")

    kinds = {k: [0, 0.0] for k in RULE_KINDS + ("other",)}
    for n, (c, t, _) in spans.items():
        if n.startswith("rules.apply."):
            kind = n[len("rules.apply."):]
            slot = kinds[kind if kind in kinds else "other"]
            slot[0] += c
            slot[1] += t
    steps = ("codegen.step.chain", "codegen.step.param")
    interpreter_s = sum(total(n) for n in steps) + total("codegen.free_energy")

    m = {f: (total(n) / n_compiles, "s") for f, n in PER_COMPILE.items()}
    m["models.sample_s"] = (setup.get("models.sample", (0, 0.0, 0.0))[1], "s")
    m["graph.nodes"] = (statistics.median(n for s in traced for n in s.nodes), "count")
    m["graph.edges"] = (statistics.median(n for s in traced for n in s.edges), "count")
    m["scheduler.entries"] = (statistics.median(n for s in traced for n in s.entries), "count")
    m["scheduler.fe_terms"] = (statistics.median(n for s in traced for n in s.fe_terms), "count")
    m["rules.lookup_calls"] = (calls("rules.lookup") / n_compiles, "count")
    m["rules.lookup_s"] = (total("rules.lookup") / n_compiles, "s")
    m["rules.apply_calls"] = (sum(c for c, _ in kinds.values()) / n_iters, "count")
    m["rules.apply_s"] = (sum(t for _, t in kinds.values()) / n_iters, "s")
    for kind, (c, t) in kinds.items():
        m[f"rules.apply_calls.{kind}"] = (c / n_iters, "count")
        m[f"rules.apply_s.{kind}"] = (t / n_iters, "s")
    m["codegen.step_s.chain"] = (total("codegen.step.chain") / n_iters, "s")
    m["codegen.step_s.param"] = (total("codegen.step.param") / n_iters, "s")
    m["codegen.dispatch_s"] = (sum(own(n) for n in steps) / n_iters, "s")
    m["codegen.free_energy_s"] = (total("codegen.free_energy") / n_iters, "s")
    m["codegen.instructions_executed"] = (executed / n_ops, "count")
    m["codegen.us_per_instruction"] = (1e6 * interpreter_s / executed, "us")
    m["engine.iterations"] = (n_iters / n_ops, "count")
    m["engine.streaming_update_s"] = (total("engine.streaming_update") / n_ops, "s")
    m["engine.predictive_score_s"] = (total("engine.predictive_score") / n_ops, "s")
    for module in MODULES:
        m[f"share.{module}"] = (module_self[module] / op_time, "ratio")
    m["share.harness"] = (module_self["bench"] / op_time, "ratio")
    by_dataset = {s.dataset_index: timing.op_seconds(s) for s in untraced}
    m["trace.overhead"] = (statistics.median(
        timing.op_seconds(s) / by_dataset[s.dataset_index] for s in traced) - 1.0, "ratio")
    clocks = sorted(c for s in untraced for c in timing.iteration_seconds(s))
    p90 = statistics.quantiles(clocks, n=10)[-1] if len(clocks) > 1 else clocks[0]
    m["iter_ms.p90"] = (1000.0 * p90, "ms")
    m["iter_ms.samples"] = (len(clocks), "count")
    m["wall.infer_s"] = (statistics.median(s.wall for s in untraced), "s")
    m["machine.speed"] = (float(np.median(timing.meter.speeds())), "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the spans of a traced run to this .npz file")
    args = parser.parse_args(argv)

    if not Path(mpgraph.__file__).resolve().is_relative_to(SRC):
        print(f"mpgraph was imported from {mpgraph.__file__}, not from {SRC}", file=sys.stderr)
        return 1

    tracer = Tracer()
    workload = workloads.make(args.workload, args.smoke)
    tracer.call("rules.default_registry", default_registry)
    datasets = workload.setup(tracer, args.seed)
    speeds = METER.speeds()
    print(f"ready {METER.handler_seconds()!r} {float(speeds.mean()) if len(speeds) else 1.0!r}",
          flush=True)
    if args.setup_only:
        return 0

    # One small op first lets lazy imports and caches fill before timing; it
    # is neither timed nor counted. A failure here shows again in the ops.
    warm = workloads.make(args.workload, smoke=True)
    try:
        warm.op(plain_ctx(Tracer()), warm.setup(Tracer(), args.seed)[0])
    except Exception:
        traceback.print_exc()

    runner = Runner(workload, tracer, datasets)
    measured, index = 0.0, 0
    while measured < args.seconds or len(runner.ops) < MIN_OPS:
        i = index % len(datasets)
        measured += runner.run_op(i, traced=False).wall
        if args.trace:
            measured += runner.run_op(i, traced=True).wall
        index += 1
    METER.stop()

    ok = [s for s in runner.ops if s.ok]
    failed = len(runner.ops) - len(ok)
    untraced = [s for s in ok if not s.traced]
    paired = {s.dataset_index for s in untraced}
    traced = [s for s in ok if s.traced and s.dataset_index in paired]
    metrics = {}
    if untraced and (traced or not args.trace):
        timing = Timing(tracer, METER)
        metrics = (per_layer(timing, tracer.names, traced, untraced) if args.trace
                   else end_to_end(timing, untraced))
    if args.spans:
        tracer.write(Path(args.spans), {"workload": args.workload, "seed": args.seed,
                                        "ops": [s.record() for s in runner.ops]},
                     speed_t=np.frombuffer(METER.t), speed_kernel=np.frombuffer(METER.k),
                     speed_handler=np.frombuffer(METER.h))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics), "attempted": len(runner.ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if metrics else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        METER.stop()
