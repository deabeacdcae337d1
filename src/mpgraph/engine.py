"""Inference driver: the compiled model, marginal initialization, iteration
with a free-energy trace, direct schedule execution, streaming mini-batch
updates, and the predictive score.

``compile_model`` derives a model's algorithm once: one factorization
analysis, handed in place of the graph to the stages that build the
schedules, the free-energy program and the ``AlgorithmIR``. ``run_inference``
and each ``streaming_update`` batch are one compile and one ``Program.run``.

Each run owns its marginal table and message storage; runs are independent.
Within a run execution is strictly sequential, following the schedule.
``DirectExecutor`` walks the schedules' and the free-energy program's
instructions, uncompiled and one at a time, through the storage, slot
resolver and dispatch of ``codegen.Executor``, which the instruction
interpreter shares; it is the reference the interpreter must match bit for
bit.
"""

from __future__ import annotations

import time

import numpy as np

from ._linalg import as_matrix, as_vector
from .codegen import Executor, Interpreter, compile_program
from .distributions import (
    FAMILIES,
    Dirichlet,
    Distribution,
    Gamma,
    GaussianBase,
    PointMass,
    Wishart,
)
# infer_supports and analyze_sections are not called here; they stay
# attributes of this module for layer-timing tools that wrap them by name.
from .graph import FactorGraph, infer_supports
from .rules import default_registry
from .scheduler import (
    Factorization,
    FreeEnergyProgram,
    RecognitionFactorization,
    Schedule,
    analyze_factorization,
    analyze_sections,
    chain_order,
    joint_key,
    schedule_free_energy,
    schedule_vmp,
    support_of,
    vague_for,
)


class NumericalError(RuntimeError):
    """Inference produced a non-finite quantity."""


class InferenceResult:
    def __init__(self, marginals, free_energy_trace, iterations, converged, wall_clock, seed=None):
        self.marginals = marginals
        self.free_energy_trace = list(free_energy_trace)
        self.iterations = iterations
        self.converged = converged
        self.wall_clock = list(wall_clock)
        self.seed = seed

    def to_json(self) -> dict:
        singles = {
            k: v.to_json() for k, v in self.marginals.items() if "&" not in k
        }
        return {
            "marginals": singles,
            "free_energy": self.free_energy_trace,
            "iterations": self.iterations,
            "converged": self.converged,
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# Marginal initialization
# ---------------------------------------------------------------------------


def init_marginals(graph: FactorGraph | Factorization, rf: RecognitionFactorization,
                   overrides=None, registry=None) -> dict:
    """Vague defaults for every marginal-table key, two-slice joints
    included, laid out on the graph the schedules see (``registry`` decides
    which composites are expanded, as in ``schedule_vmp``); overrides applied
    verbatim after a support check (``ValueError`` naming the key)."""
    facts = analyze_factorization(graph, rf, registry or default_registry())
    keys = [*facts.owner, *(joint_key(sec.leaf_var, sec.out_var) for sec in facts.links.values())]
    layout = {key: support_of(key, facts.supports) for key in keys}
    # one immutable default per distinct support, shared by its keys
    vague: dict[tuple, Distribution] = {}
    table = {}
    for key, sup in layout.items():
        shared = (sup.family, sup.shape)
        if shared not in vague:
            vague[shared] = vague_for(sup)
        table[key] = vague[shared]
    for key, dist in (overrides or {}).items():
        if key not in layout:
            raise ValueError(f"override for unknown variable {key!r}")
        sup = layout[key]
        if not (isinstance(dist, PointMass) or FAMILIES[sup.family].fits(dist, sup.shape)):
            raise ValueError(
                f"override for {key!r} has support {type(dist).__name__}, expected {sup.family} {sup.shape}"
            )
        table[key] = dist
    return table


# ---------------------------------------------------------------------------
# Direct schedule execution (the non-compiled reference path)
# ---------------------------------------------------------------------------


class DirectExecutor(Executor):
    """Executes Schedule objects and the FreeEnergyProgram without compiling
    them: each factor's entries and marginal steps, then the energy and
    entropy terms, one instruction at a time in program order, each marginal
    the pairwise fold of ``Executor.belief``. The instruction interpreter
    must match this path bit for bit."""

    def __init__(self, schedules: dict[str, Schedule], fe_program: FreeEnergyProgram | None = None,
                 registry=None):
        sites: dict[str, Distribution] = {}
        for schedule in schedules.values():
            sites.update(schedule.site_inits)
        super().__init__(registry, {fid: [*s.entries, *s.marginal_steps] for fid, s in schedules.items()},
                         [] if fe_program is None else fe_program.instructions(), sites)


# ---------------------------------------------------------------------------
# Iteration driver
# ---------------------------------------------------------------------------


def free_energy(executor, data, marginals) -> float:
    value = float(executor.free_energy(data, marginals))
    if not np.isfinite(value):
        detail = _locate_nonfinite_term(executor, data, marginals)
        raise NumericalError(f"free energy is not finite ({detail})")
    return value


def _locate_nonfinite_term(executor, data, marginals) -> str:
    for pos, (label, value) in enumerate(executor.free_energy_terms(data, marginals)):
        if not np.isfinite(value):
            return f"term {pos}: {label}"
    return "offending term not identified"


def iterate(
    runner,
    data,
    marginals,
    max_iters: int = 100,
    tol: float = 1e-6,
    seed=None,
) -> InferenceResult:
    """Run full sweeps until the relative free-energy change drops below
    ``tol`` or ``max_iters`` is reached. ``runner`` is an Interpreter or a
    DirectExecutor."""
    trace: list[float] = []
    clocks: list[float] = []
    converged = False
    iterations = 0
    for it in range(max_iters):
        start = time.perf_counter()
        runner.run_iteration(data, marginals)
        try:
            f = free_energy(runner, data, marginals)
        except NumericalError as exc:
            raise NumericalError(f"iteration {it}: {exc}") from None
        clocks.append(time.perf_counter() - start)
        trace.append(float(f))
        iterations = it + 1
        if len(trace) >= 2:
            delta = abs(trace[-1] - trace[-2]) / (abs(trace[-1]) + 1e-12)
            if delta < tol:
                converged = True
                break
    return InferenceResult(marginals, trace, iterations, converged, clocks, seed)


class Program:
    """A model's derived message-passing algorithm: one factorization
    analysis and what is built from it (per-factor schedules, free-energy
    program, ``AlgorithmIR``). Immutable once compiled; every ``run`` has
    its own marginal table and interpreter, so runs are independent."""

    def __init__(self, factorization: Factorization, rf: RecognitionFactorization,
                 registry, ep_damping: float | None = None):
        self.factorization = factorization
        self.rf = rf
        self.registry = registry
        self.schedules = schedule_vmp(factorization, rf, registry=registry, ep_damping=ep_damping)
        self.free_energy = schedule_free_energy(factorization, rf, registry=registry)
        self.ir = compile_program(self.schedules, self.free_energy)

    def run(self, data, overrides=None, max_iters: int = 100, tol: float = 1e-6,
            seed=None) -> InferenceResult:
        marginals = init_marginals(self.factorization, self.rf, overrides, self.registry)
        return iterate(Interpreter(self.ir, self.registry), data, marginals, max_iters, tol, seed)


def compile_model(graph: FactorGraph, rf: RecognitionFactorization, registry=None,
                  ep_damping: float | None = None) -> Program:
    """Analyse, schedule and compile a model once; run it with ``Program.run``."""
    registry = registry or default_registry()
    return Program(analyze_factorization(graph, rf, registry), rf, registry, ep_damping)


def run_inference(
    graph: FactorGraph,
    rf: RecognitionFactorization,
    data,
    overrides=None,
    max_iters: int = 100,
    tol: float = 1e-6,
    registry=None,
    seed=None,
    ep_damping: float | None = None,
):
    """Compile and run in one call."""
    return compile_model(graph, rf, registry, ep_damping).run(data, overrides, max_iters, tol, seed)


# ---------------------------------------------------------------------------
# Streaming variational Bayes
# ---------------------------------------------------------------------------


def _as_prior(dist: Distribution) -> Distribution:
    if isinstance(dist, GaussianBase):
        return dist.to_mean_variance()
    return dist


def streaming_update(
    template,
    batches: list,
    iters_per_batch: int = 30,
    tol: float = 1e-6,
    registry=None,
    overrides_fn=None,
) -> list[InferenceResult]:
    """Sequential mini-batch inference: each batch's parameter posteriors
    become the next batch's priors, and each state chain is re-anchored at
    its final smoothed state marginal.

    ``template`` must provide ``build(T, priors) -> (graph, rf)``. ``priors``
    maps the first variable of each recognition factor to the previous
    batch's posterior: a single-variable factor's own marginal, a chain's
    marginal of its last variable (Gaussians in mean-variance form). The
    bundled models and ``cli.DslStreamingTemplate`` write them into the
    graph with ``models.apply_priors``, so every such variable needs a
    producing prior node whose parameters are clamped.
    """
    priors: dict[str, Distribution] = {}
    results: list[InferenceResult] = []
    for batch in batches:
        graph, rf = template.build(len(next(iter(batch.values()))), dict(priors))
        overrides = overrides_fn(batch, priors) if overrides_fn else None
        program = compile_model(graph, rf, registry)
        result = program.run(batch, overrides, max_iters=iters_per_batch, tol=tol)
        results.append(result)
        for fid, fvars in rf.factors:
            order, _ = chain_order(fid, fvars, program.factorization.links)
            priors[order[0]] = _as_prior(result.marginals[order[-1]])
    return results


# ---------------------------------------------------------------------------
# Predictive score
# ---------------------------------------------------------------------------


def sample_posterior_value(dist: Distribution, rng: np.random.Generator):
    if isinstance(dist, PointMass):
        return np.asarray(dist.value, dtype=float)
    if isinstance(dist, GaussianBase):
        m = dist.mean_vector()
        v = dist.covariance_matrix()
        draw = rng.multivariate_normal(m, v)
        return draw if m.shape[0] > 1 else float(draw[0])
    if isinstance(dist, Gamma):
        return float(rng.gamma(dist.shape, 1.0 / dist.rate))
    if isinstance(dist, Wishart):
        from scipy.stats import wishart as sp_wishart

        return np.asarray(
            sp_wishart.rvs(df=dist.dof, scale=dist.scale, random_state=rng), dtype=float
        )
    if isinstance(dist, Dirichlet):
        a = dist.concentration
        if a.ndim == 1:
            return rng.dirichlet(a)
        return np.column_stack([rng.dirichlet(a[:, j]) for j in range(a.shape[1])])
    raise NumericalError(f"cannot sample from {dist.variant}")


def lgssm_predictive_loglik(trans, offset, noise_cov, obs_row, obs_var, m0, v0, trajectories):
    """Exact marginal log-likelihood of each trajectory under a linear
    Gaussian state-space model, via the prediction-error decomposition. The
    covariance recursion is data independent, so it is shared across the
    vectorized trajectory batch."""
    ys = np.asarray(trajectories, dtype=float)
    n, horizon = ys.shape
    f = as_matrix(trans)
    q = as_matrix(noise_cov)
    h = as_vector(obs_row)
    c = as_vector(offset) if offset is not None else np.zeros(f.shape[0])
    m = np.repeat(as_vector(m0)[None, :], n, axis=0)
    v = as_matrix(v0)
    loglik = np.zeros(n)
    for t in range(horizon):
        m = m @ f.T + c
        v = f @ v @ f.T + q
        # h'vh >= 0 mathematically; catastrophic cancellation under extreme
        # parameter draws can push it a hair below zero
        s = max(float(h @ v @ h), 0.0) + obs_var
        if s <= 0 or not np.isfinite(s):
            raise NumericalError("non-positive innovation variance in predictive evaluation")
        innov = ys[:, t] - m @ h
        loglik += -0.5 * (np.log(2.0 * np.pi * s) + innov**2 / s)
        k = (v @ h) / s
        m = m + innov[:, None] * k[None, :]
        v = v - np.outer(k, h @ v)
        v = 0.5 * (v + v.T)
    if not np.all(np.isfinite(loglik)):
        raise NumericalError("non-finite predictive log-likelihood")
    return loglik


def predictive_score(posteriors, build_predictive, trajectories, samples: int, seed: int) -> float:
    """Q = (1/S)(1/N) sum_s sum_n log p_s(y^(n)): the average marginal
    log-likelihood of held-out trajectories under posterior parameter samples,
    with the latent state integrated out in closed form."""
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(samples):
        drawn = {k: sample_posterior_value(d, rng) for k, d in posteriors.items()}
        pieces = build_predictive(drawn)
        loglik = lgssm_predictive_loglik(*pieces, trajectories)
        total += float(np.mean(loglik))
    return total / samples
