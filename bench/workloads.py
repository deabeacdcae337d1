"""The four benchmark workloads. One op = one model compiled and inferred.

Every call into mpgraph goes through ``ctx.tracer.call`` so that it becomes a
span; the workloads use only the package's public API. ``co2-stream`` calls
``streaming_update`` itself, so the stages it runs are timed by wrapping the
names ``mpgraph.engine`` looks them up by (see ``tracing.interposed``).
"""

from __future__ import annotations

import inspect

import numpy as np

from mpgraph import engine
from mpgraph.codegen import compile_program, render
from mpgraph.dsl import parse_model
from mpgraph.engine import init_marginals, iterate, predictive_score, streaming_update
from mpgraph.models import Co2Model, HmgmModel, ProbitSsmModel, RandomWalkModel, sample_generative
from mpgraph.scheduler import default_factorization, schedule_free_energy, schedule_vmp

from tracing import interposed

# The random-walk model from the README, in the model language.
RANDOM_WALK_SOURCE = """\
x[0] ~ GaussianMeanVariance(0.0, 1e12)
d ~ GaussianMeanVariance(0.0, 1e12)
w ~ Gamma(1.0, 1e-12)
u ~ Gamma(1.0, 1e-12)
for t in 1:T {
  m[t] ~ Addition(x[t-1], d)
  x[t] ~ GaussianMeanPrecision(m[t], w)
  y[t] ~ GaussianMeanPrecision(x[t], u)
  observe y[t] :: ()
}
"""

# Datasets generated per run; op k uses dataset k mod DATASETS.
DATASETS = 8


def dataset_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Compiled:
    """One model taken from source to listing, plus what inference did with
    it; the checks replay it."""

    def __init__(self):
        self.front_spans: list[int] = []  # spans from source to listing
        self.iterate_span = None
        self.graph = self.rf = self.schedules = self.fe = self.ir = self.listing = None
        self.overrides = None
        self.ep_damping = None
        self.data = None
        self.max_iters = self.tol = None
        self.result = None


class Outcome:
    def __init__(self, compiled, predictive=None):
        self.compiled = compiled
        self.predictive = predictive


def _front(ctx, rec: Compiled, name, fn, *args, **kwargs):
    """A front-end stage: counted in the compile's ``compile_s``."""
    out = ctx.tracer.call(name, fn, *args, **kwargs)
    rec.front_spans.append(ctx.tracer.last)
    return out


def _pipeline(ctx, rec: Compiled, graph, rf, data, overrides, max_iters, tol, ep_damping=None):
    call = ctx.tracer.call
    rec.graph, rec.rf, rec.data, rec.overrides = graph, rf, data, overrides
    rec.ep_damping, rec.max_iters, rec.tol = ep_damping, max_iters, tol
    rec.schedules = _front(ctx, rec, "scheduler.schedule_vmp", schedule_vmp, graph, rf,
                           registry=ctx.registry, ep_damping=ep_damping)
    rec.fe = _front(ctx, rec, "scheduler.schedule_free_energy", schedule_free_energy, graph, rf,
                    registry=ctx.registry)
    rec.ir = _front(ctx, rec, "codegen.compile_program", compile_program, rec.schedules, rec.fe)
    rec.listing = _front(ctx, rec, "codegen.render", render, rec.ir)
    marginals = call("engine.init_marginals", init_marginals, graph, rf, overrides)
    runner = ctx.interpreter(rec.ir, ctx.registry)
    rec.result = call("engine.iterate", iterate, runner, data, marginals, max_iters, tol)
    rec.iterate_span = ctx.tracer.last
    return rec


class Workload:
    spec = ""  # sample_generative spec
    conjugate = True  # F must not increase (conjugate VMP)
    static_model = True  # every op compiles the same model

    def __init__(self, size: dict):
        self.size = size

    def setup(self, tracer, seed: int) -> list:
        out = []
        for index in range(DATASETS):
            s = dataset_seed(seed, index)
            data, _ = tracer.call("models.sample", sample_generative, self.spec, s, T=self.size["T"])
            out.append((s, data))
        return out


class ChainCompile(Workload):
    spec = "random-walk"

    def op(self, ctx, dataset) -> Outcome:
        _, data = dataset
        T = self.size["T"]
        rec = Compiled()
        graph = _front(ctx, rec, "dsl.parse_model", parse_model, RANDOM_WALK_SOURCE, {"T": T})
        rf = _front(ctx, rec, "scheduler.default_factorization", default_factorization, graph)
        overrides = RandomWalkModel().initial_marginals(T)
        _pipeline(ctx, rec, graph, rf, data, overrides, self.size["iters"], 0.0)
        return Outcome([rec])


class ProbitEp(Workload):
    spec = "probit-ssm"
    conjugate = False

    def op(self, ctx, dataset) -> Outcome:
        _, data = dataset
        T = self.size["T"]
        model = ProbitSsmModel()
        rec = Compiled()
        graph, rf = _front(ctx, rec, "models.build", model.build, T)
        _pipeline(ctx, rec, graph, rf, data, model.initial_marginals(T), self.size["iters"], 0.0,
                  ep_damping=0.5)
        return Outcome([rec])


class HmgmMixture(Workload):
    spec = "hmgm"

    def op(self, ctx, dataset) -> Outcome:
        _, data = dataset
        T = self.size["T"]
        model = HmgmModel(K=3)
        rec = Compiled()
        graph, rf = _front(ctx, rec, "models.build", model.build, T)
        overrides = ctx.tracer.call("models.initial_marginals", model.initial_marginals, T, data)
        _pipeline(ctx, rec, graph, rf, data, overrides, 20, 1e-6)
        return Outcome([rec])


class _BatchTemplate:
    """Model template handed to ``streaming_update``; each ``build`` starts a
    new compile record."""

    def __init__(self, model, ctx, records):
        self.model, self.ctx, self.records = model, ctx, records

    def build(self, T, priors):
        rec = Compiled()
        self.records.append(rec)
        rec.graph, rec.rf = _front(self.ctx, rec, "models.build", self.model.build, T, priors)
        return rec.graph, rec.rf


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _stream_stages(ctx, records) -> dict:
    """Wrappers for the stages ``engine.run_inference`` calls per batch. They
    time each stage, render the compiled IR (the listing is part of
    ``compile_s``), and keep what the checks need in the batch's record."""

    def svmp(*args, **kwargs):
        rec = records[-1]
        rec.ep_damping = _bound(schedule_vmp, args, kwargs)["ep_damping"]
        rec.schedules = _front(ctx, rec, "scheduler.schedule_vmp", schedule_vmp, *args, **kwargs)
        return rec.schedules

    def sfe(*args, **kwargs):
        rec = records[-1]
        rec.fe = _front(ctx, rec, "scheduler.schedule_free_energy", schedule_free_energy,
                        *args, **kwargs)
        return rec.fe

    def compile_(*args, **kwargs):
        rec = records[-1]
        rec.ir = _front(ctx, rec, "codegen.compile_program", compile_program, *args, **kwargs)
        rec.listing = _front(ctx, rec, "codegen.render", render, rec.ir)
        return rec.ir

    def init(*args, **kwargs):
        records[-1].overrides = _bound(init_marginals, args, kwargs)["overrides"]
        return ctx.tracer.call("engine.init_marginals", init_marginals, *args, **kwargs)

    def iterate_(*args, **kwargs):
        rec = records[-1]
        bound = _bound(iterate, args, kwargs)
        rec.data, rec.max_iters, rec.tol = bound["data"], bound["max_iters"], bound["tol"]
        rec.result = ctx.tracer.call("engine.iterate", iterate, *args, **kwargs)
        rec.iterate_span = ctx.tracer.last
        return rec.result

    stages = {
        (engine, "schedule_vmp"): svmp,
        (engine, "schedule_free_energy"): sfe,
        (engine, "compile_program"): compile_,
        (engine, "init_marginals"): init,
        (engine, "iterate"): iterate_,
    }
    if ctx.interpreter is not engine.Interpreter:
        stages[(engine, "Interpreter")] = ctx.interpreter
    return stages


class Co2Stream(Workload):
    spec = "co2-synthetic"
    static_model = False  # each batch's priors are the previous posteriors

    def op(self, ctx, dataset) -> Outcome:
        seed, data = dataset
        size = self.size
        batch = size["batch"]
        model = Co2Model()
        series = data["y"]
        batches = [{"y": series[i: i + batch]} for i in range(0, len(series), batch)]
        learn, test = batches[: size["learn"]], batches[size["learn"]:]

        def overrides_fn(b, priors):
            if not priors:
                return model.initial_marginals(batch)
            return {k: v for k, v in priors.items() if k in ("d", "gamma", "W", "u")}

        records: list[Compiled] = []
        with interposed(_stream_stages(ctx, records)):
            results = ctx.tracer.call(
                "engine.streaming_update", streaming_update,
                _BatchTemplate(model, ctx, records), learn,
                iters_per_batch=25, tol=1e-7, registry=ctx.registry, overrides_fn=overrides_fn,
            )
        if [r.result for r in records] != results:
            raise RuntimeError("batch records do not match the streamed results")
        last = results[-1].marginals
        tail = (f"z[{batch}]", f"x[{batch}]")
        anchors = tuple((last[v].mean_vector(), last[v].covariance_matrix()) for v in tail)
        held = np.concatenate([b["y"] for b in test]).reshape(1, -1)
        post = {k: last[k] for k in ("d", "gamma", "W", "u")}
        score = ctx.tracer.call(
            "engine.predictive_score", predictive_score, post,
            lambda p: Co2Model.predictive_pieces(p, anchors), held,
            samples=size["samples"], seed=seed + 1,
        )
        return Outcome(records, predictive=score)


FULL = {
    "chain-compile": (ChainCompile, {"T": 1600, "iters": 2}),
    "probit-ep": (ProbitEp, {"T": 96, "iters": 20}),
    "hmgm-mixture": (HmgmMixture, {"T": 200}),
    "co2-stream": (Co2Stream, {"T": 192, "batch": 24, "learn": 6, "samples": 100}),
}

SMOKE = {
    "chain-compile": (ChainCompile, {"T": 20, "iters": 2}),
    "probit-ep": (ProbitEp, {"T": 12, "iters": 3}),
    "hmgm-mixture": (HmgmMixture, {"T": 30}),
    "co2-stream": (Co2Stream, {"T": 48, "batch": 8, "learn": 4, "samples": 5}),
}


def make(name: str, smoke: bool = False) -> Workload:
    cls, size = (SMOKE if smoke else FULL)[name]
    return cls(size)
