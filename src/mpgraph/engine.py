"""Inference driver: marginal initialization, iteration with a free-energy
trace, direct schedule execution, streaming mini-batch updates, and the
predictive score.

Each run owns its marginal table and message storage; runs are independent.
Within a run execution is strictly sequential, following the schedule.
"""

from __future__ import annotations

import time

import numpy as np

from ._linalg import as_matrix, as_vector
from .codegen import AlgorithmIR, Interpreter, compile_program
from .distributions import (
    Categorical,
    Dirichlet,
    Distribution,
    Gamma,
    GaussianBase,
    PointMass,
    Wishart,
    differential_entropy,
    product,
)
from .graph import FactorGraph, Support, infer_supports
from .rules import default_registry
from .scheduler import (
    FreeEnergyProgram,
    MarginalStep,
    RecognitionFactorization,
    Schedule,
    analyze_sections,
    eval_energy_term,
    joint_key,
    schedule_free_energy,
    schedule_vmp,
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


def marginal_layout(graph: FactorGraph, rf: RecognitionFactorization) -> dict[str, Support]:
    """Supports for every marginal-table key, including two-slice joints."""
    supports = infer_supports(graph)
    owner = rf.factor_of()
    layout: dict[str, Support] = {}
    for var in owner:
        layout[var] = supports.get(var, Support("gaussian", ()))
    for sec in analyze_sections(graph, supports).values():
        if owner.get(sec.leaf_var) is not None and owner.get(sec.leaf_var) == owner.get(sec.out_var):
            leaf = supports.get(sec.leaf_var, Support("gaussian", ()))
            out = supports.get(sec.out_var, Support("gaussian", ()))
            key = joint_key(sec.leaf_var, sec.out_var)
            if out.family == "categorical":
                layout[key] = Support("categorical", (out.shape[0], leaf.shape[0]))
            else:
                layout[key] = Support("gaussian", (leaf.dim + out.dim,))
    return layout


def init_marginals(graph: FactorGraph, rf: RecognitionFactorization, overrides=None) -> dict:
    """Vague defaults for every marginal key; overrides applied verbatim
    after a support check."""
    layout = marginal_layout(graph, rf)
    table = {key: vague_for(sup) for key, sup in layout.items()}
    for key, dist in (overrides or {}).items():
        if key not in layout:
            raise NumericalError(f"override for unknown variable {key!r}")
        sup = layout[key]
        if not _support_compatible(sup, dist):
            raise NumericalError(
                f"override for {key!r} has support {type(dist).__name__}, expected {sup.family} {sup.shape}"
            )
        table[key] = dist
    return table


def _support_compatible(sup: Support, dist: Distribution) -> bool:
    if isinstance(dist, PointMass):
        return True
    if sup.family == "gaussian":
        return isinstance(dist, GaussianBase) and dist.dim == sup.dim
    if sup.family == "gamma":
        return isinstance(dist, Gamma)
    if sup.family == "wishart":
        return isinstance(dist, Wishart) and dist.scale.shape == tuple(sup.shape)
    if sup.family == "dirichlet":
        return isinstance(dist, Dirichlet) and dist.concentration.shape == tuple(sup.shape)
    if sup.family == "categorical":
        return isinstance(dist, Categorical) and dist.probabilities.shape == tuple(sup.shape)
    return True


# ---------------------------------------------------------------------------
# Direct schedule execution (the non-compiled reference path)
# ---------------------------------------------------------------------------


class DirectExecutor:
    """Executes Schedule objects without compiling them; the instruction
    interpreter must match this path bit for bit."""

    def __init__(self, schedules: dict[str, Schedule], fe_program: FreeEnergyProgram | None = None,
                 registry=None):
        self.schedules = schedules
        self.fe_program = fe_program
        self.registry = registry or default_registry()
        self.sites: dict[str, object] = {}
        for schedule in schedules.values():
            for name, init in schedule.site_inits.items():
                self.sites[name] = init
        self.messages = {fid: [None] * len(s.entries) for fid, s in schedules.items()}

    def _resolve(self, slot, fid, data, marginals):
        tag = slot[0]
        if tag == "entry":
            return self.messages[fid][slot[1]].dist
        if tag == "marginal":
            return marginals[slot[1]]
        if tag == "data":
            name, index = slot[1]
            return PointMass(data[name][index - 1])
        if tag == "const":
            return slot[1]
        if tag == "site":
            held = self.sites[slot[1]]
            return held.dist if hasattr(held, "dist") else held
        return None

    def run_step(self, fid, data, marginals):
        schedule = self.schedules[fid]
        msgs = self.messages[fid]
        for i, entry in enumerate(schedule.entries):
            rule = self.registry.by_id(entry.rule_id)
            inbound = [self._resolve(s, fid, data, marginals) for s in entry.slots]
            previous = None
            if entry.extra is not None:
                if entry.extra[0] == "entry":
                    previous = msgs[entry.extra[1]]
                elif entry.extra[0] == "site":
                    previous = self.sites[entry.extra[1]]
            msg = rule.apply(inbound, entry.constants, previous)
            msgs[i] = msg
            if entry.writes_site:
                self.sites[entry.writes_site] = msg
        for step in schedule.marginal_steps:
            if isinstance(step, MarginalStep):
                dists = [self._resolve(s, fid, data, marginals) for s in step.inputs]
                out = dists[0]
                for d in dists[1:]:
                    out = product(out, d)
                marginals[step.key] = out
            else:
                rule = self.registry.by_id(step.rule_id)
                inbound = [self._resolve(s, fid, data, marginals) for s in step.slots]
                marginals[step.key] = rule.apply(inbound, step.constants).dist
        return marginals

    def run_iteration(self, data, marginals):
        for fid in self.schedules:
            self.run_step(fid, data, marginals)
        return marginals

    def free_energy(self, data, marginals) -> float:
        total = 0.0
        for term in self.fe_program.energies:
            qs = [self._resolve(s, None, data, marginals) for s in term.slots]
            total += eval_energy_term(term.kind, qs, term.constants)
        for key, weight in self.fe_program.entropies:
            total -= weight * differential_entropy(marginals[key])
        return total


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
    if isinstance(executor, Interpreter):
        for pos, ins in enumerate(executor.ir.free_energy):
            if ins.opcode == "average_energy":
                qs = [executor._resolve(s, None, data, marginals) for s in ins.slots]
                constants = dict(ins.constants)
                kind = constants.pop("kind")
                val = eval_energy_term(kind, qs, constants)
            else:
                val = differential_entropy(
                    executor._resolve(ins.slots[0], None, data, marginals)
                )
            if not np.isfinite(val):
                return f"term {pos}: {ins.label or ins.opcode}"
    elif isinstance(executor, DirectExecutor) and executor.fe_program is not None:
        for pos, term in enumerate(executor.fe_program.energies):
            qs = [executor._resolve(s, None, data, marginals) for s in term.slots]
            if not np.isfinite(eval_energy_term(term.kind, qs, term.constants)):
                return f"energy term {pos}: {term.label or term.kind}"
        for key, _ in executor.fe_program.entropies:
            if not np.isfinite(differential_entropy(marginals[key])):
                return f"entropy term for {key}"
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
    ``tol`` or ``max_iters`` is reached. ``runner`` is an AlgorithmIR, an
    Interpreter, or a DirectExecutor."""
    if isinstance(runner, AlgorithmIR):
        runner = Interpreter(runner)
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


def run_inference(
    graph: FactorGraph,
    rf: RecognitionFactorization,
    data,
    overrides=None,
    max_iters: int = 100,
    tol: float = 1e-6,
    registry=None,
    seed=None,
    compiled: bool = True,
    ep_damping: float | None = None,
):
    """Schedule, compile and iterate in one call."""
    registry = registry or default_registry()
    schedules = schedule_vmp(graph, rf, registry=registry, ep_damping=ep_damping)
    fe = schedule_free_energy(graph, rf, registry=registry)
    marginals = init_marginals(graph, rf, overrides)
    if compiled:
        runner = Interpreter(compile_program(schedules, fe), registry)
    else:
        runner = DirectExecutor(schedules, fe, registry)
    return iterate(runner, data, marginals, max_iters, tol, seed)


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
    become the next batch's priors, and the state chain is re-anchored at the
    final smoothed state marginal.

    ``template`` must provide ``build(T, priors) -> (graph, rf)`` where
    ``priors`` maps variable names to distributions; chain factors are
    re-anchored under the name of their first variable.
    """
    registry = registry or default_registry()
    priors: dict[str, Distribution] = {}
    results: list[InferenceResult] = []
    for batch in batches:
        batch_len = _batch_length(batch)
        graph, rf = template.build(batch_len, dict(priors))
        overrides = overrides_fn(batch, priors) if overrides_fn else None
        result = run_inference(
            graph, rf, batch, overrides=overrides,
            max_iters=iters_per_batch, tol=tol, registry=registry,
        )
        results.append(result)
        supports = infer_supports(graph)
        sections = analyze_sections(graph, supports)
        owner = rf.factor_of()
        for fid, fvars in rf.factors:
            if len(fvars) == 1:
                var = fvars[0]
                priors[var] = _as_prior(result.marginals[var])
            else:
                chain_secs = [s for s in sections.values()
                              if s.leaf_var in fvars and s.out_var in fvars]
                outs = {s.out_var for s in chain_secs}
                first = next(v for v in fvars if v not in outs)
                last = fvars[-1]
                order = [first]
                succ = {s.leaf_var: s.out_var for s in chain_secs}
                while order[-1] in succ:
                    order.append(succ[order[-1]])
                priors[first] = _as_prior(result.marginals[order[-1]])
    return results


def _batch_length(batch) -> int:
    first = next(iter(batch.values()))
    return len(first)


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
