"""A node kind added from outside the package, the worked example of the
README's "Adding a node kind": y ~ Exp(lam), lam ~ Gamma(a, b).

The kind's record goes into ``graph.NODE_KINDS`` for the length of one test,
and its VMP rule is registered on a fresh registry, so nothing shared with
other tests changes."""

import math

import numpy as np
from scipy.special import gammaln

from mpgraph.cli import DslStreamingTemplate
from mpgraph.distributions import Gamma, PointMass, moment
from mpgraph.dsl import parse_model
from mpgraph.engine import run_inference, streaming_update
from mpgraph.graph import NODE_KINDS, NodeKind, Support
from mpgraph.rules import MESSAGE, VOID, Rule, Slot, build_default_registry, default_registry
from mpgraph.scheduler import default_factorization

A, B = 2.0, 0.5
MODEL = f"""
lam ~ Gamma({A}, {B})
for t in 1:T {{
  y[t] ~ Exponential(lam)
  observe y[t] :: ()
}}
"""


def positive_scalar(node):
    return Support("gamma", ())
    yield  # a generator, as every support derivation is


def exponential_energy(qs, constants):
    """E[-log(lam exp(-lam y))] = -E[log lam] + E[lam] y."""
    q_y, q_lam = qs
    return -moment(q_lam, "log") + moment(q_lam, "mean") * float(q_y.value)


EXPONENTIAL = NodeKind(
    "exponential", ("out", "rate"), dsl="Exponential", support=positive_scalar,
    energy=lambda node, layout: ("exponential", layout.beliefs(node), {}, "exponential"),
    energies={"exponential": exponential_energy},
)


def toward_rate(inbound, constants):
    """The likelihood lam exp(-lam y) of an observed y as a message on lam."""
    return Gamma(2.0, float(inbound[0].value))


def exponential_registry():
    registry = build_default_registry()
    registry.register(Rule("exponential", "rate", "variational", [Slot(MESSAGE, PointMass), Slot(VOID)],
                           toward_rate, lambda types, constants: Gamma))
    return registry.freeze()


def assert_conjugate(q, ys):
    assert isinstance(q, Gamma)
    assert math.isclose(q.shape, A + len(ys), rel_tol=1e-12)
    assert math.isclose(q.rate, B + float(np.sum(ys)), rel_tol=1e-12)


def test_exponential_kind_from_outside_the_package(monkeypatch):
    kinds = dict(NODE_KINDS)
    shared = default_registry()
    ys = np.random.default_rng(5).exponential(1 / 1.7, size=12)
    with monkeypatch.context() as patch:
        patch.setitem(NODE_KINDS, "exponential", EXPONENTIAL)
        registry = exponential_registry()

        graph = parse_model(MODEL, {"T": len(ys)})
        result = run_inference(graph, default_factorization(graph), {"y": ys}, max_iters=3, registry=registry)
        assert_conjugate(result.marginals["lam"], ys)
        # the posterior is exact, so F is minus the log evidence
        n, s = len(ys), float(np.sum(ys))
        log_evidence = A * np.log(B) - gammaln(A) + gammaln(A + n) - (A + n) * np.log(B + s)
        assert math.isclose(result.free_energy_trace[-1], -log_evidence, rel_tol=1e-9)

        batches = [{"y": ys[:5]}, {"y": ys[5:]}]
        results = streaming_update(DslStreamingTemplate(MODEL, {}), batches, iters_per_batch=3,
                                   registry=registry)
        assert len(results) == 2
        assert_conjugate(results[-1].marginals["lam"], ys)
    assert NODE_KINDS == kinds
    assert default_registry() is shared and not shared.has_rules_for("exponential")
