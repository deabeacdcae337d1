"""Built-in state-space models: graph builders, synthetic data generators,
recommended initial recognition distributions, and predictive-model pieces.

Builders write vague prior parameters as literals and accept a ``priors``
mapping (variable name -> distribution) so that streaming inference can feed
one batch's posteriors in as the next batch's priors. ``apply_priors`` writes
that mapping into the graph's prior clamps; it is the only code that sets
prior parameters, for these builders and for DSL models alike.
"""

from __future__ import annotations

import numpy as np

from .distributions import (
    Dirichlet,
    Gamma,
    GaussianMeanVariance,
    Wishart,
)
from .graph import FactorGraph
from .scheduler import RecognitionFactorization, SchedulingError

VAGUE_V = 1e12


def rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def apply_priors(graph: FactorGraph, priors: dict) -> None:
    """Write each prior distribution into the clamped parameters of its
    variable's producing node, laid out by its kind's ``NodeKind.prior``. An
    unknown variable, a family the node does not accept, or a parameter that
    is not clamped raises ``SchedulingError`` naming the variable."""
    for var, dist in priors.items():
        producer = None
        for edge in graph.variable_edges(var):
            if edge.tail is not None:
                node = graph.node_at(edge.tail)
                if node.kind != "equality" and edge.tail[1] == 0:
                    producer = node
                    break
        if producer is None:
            raise SchedulingError(f"streaming: no prior node found for {var!r}")
        family, params = graph.kind_of(producer).prior or (None, None)
        if family is None or not isinstance(dist, family):
            raise SchedulingError(
                f"streaming: posterior {dist.variant} is not accepted as a prior "
                f"for node kind {producer.kind!r} ({var!r})"
            )
        roles = producer.roles(graph)
        for role, value in params(dist).items():
            site = (producer.id, roles.index(role))
            edge = graph.edges[producer.interfaces[site[1]]]
            clamp_site = graph.neighbor_site(edge, site)
            clamp = graph.node_at(clamp_site) if clamp_site else None
            if clamp is None or clamp.kind != "clamp":
                raise SchedulingError(f"streaming: prior parameter {role!r} of {var!r} is not clamped")
            clamp.constants["value"] = np.asarray(value, dtype=float)


# ---------------------------------------------------------------------------
# Linear / nonlinear Gaussian SSM (hourly-temperature example)
# ---------------------------------------------------------------------------

LGSSM_ANGLE = np.pi / 12
LGSSM_B = np.array([[1.0, 0.0]])


class LgssmModel:
    """x_t ~ N(A x_{t-1}, W^-1), y_t ~ N(b'x_t, u^-1); optionally the
    observation mean passes through a softplus response."""

    def __init__(self, nonlinear: bool = False, angle: float = LGSSM_ANGLE):
        self.nonlinear = nonlinear
        self.angle = angle

    def build(self, T: int, priors: dict | None = None):
        a = rotation(self.angle)
        g = FactorGraph()
        g.add_node("gaussian_mean_variance", {"out": "x[0]", "mean": np.zeros(2), "variance": VAGUE_V * np.eye(2)})
        g.add_node("wishart", {"out": "W", "scale": VAGUE_V * np.eye(2), "dof": 2.0})
        g.add_node("gamma", {"out": "u", "shape": 1.0, "rate": 1e-12})
        for t in range(1, T + 1):
            g.add_node("gain", {"out": f"m[{t}]", "in": f"x[{t-1}]"}, {"matrix": a})
            g.add_node("gaussian_mean_precision",
                       {"out": f"x[{t}]", "mean": f"m[{t}]", "precision": "W"})
            g.add_node("gain", {"out": f"r[{t}]", "in": f"x[{t}]"}, {"matrix": LGSSM_B})
            if self.nonlinear:
                g.add_node("nonlinear", {"out": f"s[{t}]", "in": f"r[{t}]"}, {"g": "softplus"})
                obs_mean = f"s[{t}]"
            else:
                obs_mean = f"r[{t}]"
            g.add_node("gaussian_mean_precision",
                       {"out": f"y[{t}]", "mean": obs_mean, "precision": "u"})
            g.observe(f"y[{t}]", "y", t, ())
        rf = RecognitionFactorization([
            ("X", [f"x[{t}]" for t in range(T + 1)]),
            ("W", ["W"]),
            ("U", ["u"]),
        ])
        apply_priors(g, priors or {})
        return g, rf

    def initial_marginals(self, T: int) -> dict:
        init = {
            "W": Wishart(0.5 * np.eye(2), 2.0),
            "u": Gamma(1.0, 1.0),
        }
        return init


def sample_lgssm_softplus(seed: int, T: int = 48):
    """Hidden rotating phasor observed through a softplus response."""
    rng = np.random.default_rng(seed)
    a = rotation(LGSSM_ANGLE)
    w_true, u_true = 50.0, 50.0
    x = np.array([5.0, 0.0])
    xs, ys = [], []
    for _ in range(T):
        x = a @ x + rng.multivariate_normal(np.zeros(2), np.eye(2) / w_true)
        y = np.logaddexp(0.0, x[0]) + rng.normal(0.0, 1.0 / np.sqrt(u_true))
        xs.append(x.copy())
        ys.append(y)
    return {"y": np.asarray(ys)}, {"x": np.asarray(xs), "W": w_true, "u": u_true, "seed": seed}


# ---------------------------------------------------------------------------
# Probit SSM (binary observations)
# ---------------------------------------------------------------------------


class ProbitSsmModel:
    def __init__(self, angle: float = LGSSM_ANGLE):
        self.angle = angle

    def build(self, T: int, priors: dict | None = None):
        a = rotation(self.angle)
        g = FactorGraph()
        g.add_node("gaussian_mean_variance", {"out": "x[0]", "mean": np.zeros(2), "variance": VAGUE_V * np.eye(2)})
        g.add_node("wishart", {"out": "W", "scale": VAGUE_V * np.eye(2), "dof": 2.0})
        for t in range(1, T + 1):
            g.add_node("gain", {"out": f"m[{t}]", "in": f"x[{t-1}]"}, {"matrix": a})
            g.add_node("gaussian_mean_precision",
                       {"out": f"x[{t}]", "mean": f"m[{t}]", "precision": "W"})
            g.add_node("gain", {"out": f"r[{t}]", "in": f"x[{t}]"}, {"matrix": LGSSM_B})
            g.add_node("probit", {"out": f"y[{t}]", "in": f"r[{t}]"})
            g.observe(f"y[{t}]", "y", t, ())
        rf = RecognitionFactorization([
            ("X", [f"x[{t}]" for t in range(T + 1)]),
            ("W", ["W"]),
        ])
        apply_priors(g, priors or {})
        return g, rf

    def initial_marginals(self, T: int) -> dict:
        return {"W": Wishart(0.5 * np.eye(2), 2.0)}


def sample_probit_ssm(seed: int, T: int = 96):
    from scipy.stats import norm

    rng = np.random.default_rng(seed)
    a = rotation(LGSSM_ANGLE)
    w_true = 50.0
    x = np.array([1.0, 0.0])
    xs, ys = [], []
    for _ in range(T):
        x = a @ x + rng.multivariate_normal(np.zeros(2), np.eye(2) / w_true)
        p = norm.cdf(x[0])
        ys.append(1.0 if rng.uniform() < p else -1.0)
        xs.append(x.copy())
    return {"y": np.asarray(ys)}, {"x": np.asarray(xs), "W": w_true, "seed": seed}


# ---------------------------------------------------------------------------
# Random walk with drift
# ---------------------------------------------------------------------------


class RandomWalkModel:
    """x_t ~ N(x_{t-1} + d, w^-1), y_t ~ N(x_t, u^-1)."""

    def build(self, T: int, priors: dict | None = None):
        g = FactorGraph()
        g.add_node("gaussian_mean_variance", {"out": "x[0]", "mean": [0.0], "variance": [[VAGUE_V]]})
        g.add_node("gaussian_mean_variance", {"out": "d", "mean": [0.0], "variance": [[VAGUE_V]]})
        g.add_node("gamma", {"out": "w", "shape": 1.0, "rate": 1e-12})
        g.add_node("gamma", {"out": "u", "shape": 1.0, "rate": 1e-12})
        for t in range(1, T + 1):
            g.add_node("addition", {"out": f"m[{t}]", "in1": f"x[{t-1}]", "in2": "d"})
            g.add_node("gaussian_mean_precision",
                       {"out": f"x[{t}]", "mean": f"m[{t}]", "precision": "w"})
            g.add_node("gaussian_mean_precision",
                       {"out": f"y[{t}]", "mean": f"x[{t}]", "precision": "u"})
            g.observe(f"y[{t}]", "y", t, ())
        rf = RecognitionFactorization([
            ("X", [f"x[{t}]" for t in range(T + 1)]),
            ("D", ["d"]),
            ("W", ["w"]),
            ("U", ["u"]),
        ])
        apply_priors(g, priors or {})
        return g, rf

    def initial_marginals(self, T: int) -> dict:
        return {
            "d": GaussianMeanVariance(0.0, 1.0),
            "w": Gamma(1.0, 1.0),
            "u": Gamma(1.0, 1.0),
        }

    @staticmethod
    def predictive_pieces(params: dict, anchor):
        """Linear-Gaussian predictive under sampled parameters, starting from
        the anchor state belief (Rao-Blackwellized: states stay integrated)."""
        m0, v0 = anchor
        return (
            [[1.0]], [float(np.atleast_1d(params["d"])[0])],
            [[1.0 / float(params["w"])]], [1.0], 1.0 / float(params["u"]),
            m0, v0,
        )


def sample_random_walk(seed: int, T: int = 50, drift=-0.1, w=100.0, u=10.0, x0=0.0):
    rng = np.random.default_rng(seed)
    x = float(x0)
    xs, ys = [], []
    for _ in range(T):
        x = x + drift + rng.normal(0.0, 1.0 / np.sqrt(w))
        ys.append(x + rng.normal(0.0, 1.0 / np.sqrt(u)))
        xs.append(x)
    truth = {"x": np.asarray(xs), "d": drift, "w": w, "u": u, "seed": seed}
    return {"y": np.asarray(ys)}, truth


def sample_random_walk_continuations(seed: int, x_last: float, n: int, horizon: int,
                                     drift=-0.1, w=100.0, u=10.0) -> np.ndarray:
    """Held-out trajectories continuing the training series from its final
    true state."""
    rng = np.random.default_rng(seed)
    xs = np.full(n, float(x_last))
    ys = np.empty((n, horizon))
    for t in range(horizon):
        xs = xs + drift + rng.normal(0.0, 1.0 / np.sqrt(w), size=n)
        ys[:, t] = xs + rng.normal(0.0, 1.0 / np.sqrt(u), size=n)
    return ys


# ---------------------------------------------------------------------------
# Hidden Markov model with Gaussian mixture emissions
# ---------------------------------------------------------------------------


class HmgmModel:
    def __init__(self, K: int = 3, dim: int = 2):
        self.K = K
        self.dim = dim

    def build(self, T: int, priors: dict | None = None):
        k, d = self.K, self.dim
        g = FactorGraph()
        g.add_node("dirichlet", {"out": "T", "concentration": np.ones((k, k))})
        for i in range(1, k + 1):
            g.add_node("gaussian_mean_variance", {"out": f"m{i}", "mean": np.zeros(d), "variance": VAGUE_V * np.eye(d)})
            g.add_node("wishart", {"out": f"W{i}", "scale": VAGUE_V * np.eye(d), "dof": float(d)})
        g.add_node("categorical", {"out": "x[0]", "p": np.ones(k) / k})
        for t in range(1, T + 1):
            g.add_node("transition", {"out": f"x[{t}]", "in": f"x[{t-1}]", "matrix": "T"})
            connections = {"out": f"y[{t}]", "selector": f"x[{t}]"}
            for i in range(1, k + 1):
                connections[f"mean_{i}"] = f"m{i}"
                connections[f"precision_{i}"] = f"W{i}"
            g.add_node("gaussian_mixture", connections)
            g.observe(f"y[{t}]", "y", t, (d,))
        factors = [("X", [f"x[{t}]" for t in range(T + 1)])]
        factors += [(f"W{i}", [f"W{i}"]) for i in range(1, k + 1)]
        factors += [(f"M{i}", [f"m{i}"]) for i in range(1, k + 1)]
        factors.append(("T", ["T"]))
        apply_priors(g, priors or {})
        return g, RecognitionFactorization(factors)

    def initial_marginals(self, T: int, data: dict | None = None) -> dict:
        k, d = self.K, self.dim
        init: dict = {"T": Dirichlet(np.ones((k, k)))}
        ys = np.asarray(data["y"], dtype=float) if data else None
        anchors = self._anchors(ys) if ys is not None and len(ys) else [np.zeros(d)] * k
        for i in range(1, k + 1):
            init[f"m{i}"] = GaussianMeanVariance(anchors[i - 1], 4.0 * np.eye(d))
            init[f"W{i}"] = Wishart(0.5 * np.eye(d), float(d))
        return init

    def _anchors(self, ys: np.ndarray) -> list[np.ndarray]:
        # deterministic farthest-point seeding of the component means, so the
        # mixture responsibilities break symmetry immediately
        first = int(np.argmax(np.linalg.norm(ys - ys.mean(axis=0), axis=1)))
        chosen = [first]
        while len(chosen) < self.K:
            dists = np.min(
                np.stack([np.linalg.norm(ys - ys[c], axis=1) for c in chosen]), axis=0
            )
            chosen.append(int(np.argmax(dists)))
        return [ys[c] for c in chosen]


def hmgm_true_parameters(K: int = 3):
    means = 4.0 * np.column_stack([
        np.cos(2 * np.pi * np.arange(K) / K + np.pi / 2),
        np.sin(2 * np.pi * np.arange(K) / K + np.pi / 2),
    ])
    precisions = [2.0 * np.eye(2) for _ in range(K)]
    trans = np.zeros((K, K))
    for j in range(K):
        trans[j, j] = 0.2
        trans[(j + 1) % K, j] = 0.8  # clockwise advance only
    return means, precisions, trans


def sample_hmgm(seed: int, T: int = 50, K: int = 3):
    rng = np.random.default_rng(seed)
    means, precisions, trans = hmgm_true_parameters(K)
    state = int(rng.integers(K))
    states, ys = [], []
    for _ in range(T):
        state = int(rng.choice(K, p=trans[:, state]))
        y = rng.multivariate_normal(means[state], np.linalg.inv(precisions[state]))
        states.append(state)
        ys.append(y)
    truth = {"states": np.asarray(states), "means": means, "transition": trans, "seed": seed}
    return {"y": np.asarray(ys)}, truth


# ---------------------------------------------------------------------------
# CO2: trend (random walk with drift) + periodic phasor, streaming target
# ---------------------------------------------------------------------------

CO2_ANGLE = np.pi / 6  # one cycle per 12 monthly samples


class Co2Model:
    def build(self, T: int, priors: dict | None = None):
        a = rotation(CO2_ANGLE)
        g = FactorGraph()
        g.add_node("gaussian_mean_variance", {"out": "z[0]", "mean": [330.0], "variance": [[VAGUE_V]]})
        g.add_node("gaussian_mean_variance", {"out": "d", "mean": [0.0], "variance": [[VAGUE_V]]})
        g.add_node("gamma", {"out": "gamma", "shape": 1.0, "rate": 1e-12})
        g.add_node("gaussian_mean_variance", {"out": "x[0]", "mean": np.zeros(2), "variance": VAGUE_V * np.eye(2)})
        g.add_node("wishart", {"out": "W", "scale": VAGUE_V * np.eye(2), "dof": 2.0})
        g.add_node("gamma", {"out": "u", "shape": 1.0, "rate": 1e-12})
        for t in range(1, T + 1):
            g.add_node("addition", {"out": f"mz[{t}]", "in1": f"z[{t-1}]", "in2": "d"})
            g.add_node("gaussian_mean_precision",
                       {"out": f"z[{t}]", "mean": f"mz[{t}]", "precision": "gamma"})
            g.add_node("gain", {"out": f"mx[{t}]", "in": f"x[{t-1}]"}, {"matrix": a})
            g.add_node("gaussian_mean_precision",
                       {"out": f"x[{t}]", "mean": f"mx[{t}]", "precision": "W"})
            g.add_node("gain", {"out": f"r[{t}]", "in": f"x[{t}]"}, {"matrix": LGSSM_B})
            g.add_node("addition", {"out": f"a[{t}]", "in1": f"r[{t}]", "in2": f"z[{t}]"})
            g.add_node("gaussian_mean_precision",
                       {"out": f"y[{t}]", "mean": f"a[{t}]", "precision": "u"})
            g.observe(f"y[{t}]", "y", t, ())
        rf = RecognitionFactorization([
            ("Z", [f"z[{t}]" for t in range(T + 1)]),
            ("X", [f"x[{t}]" for t in range(T + 1)]),
            ("D", ["d"]),
            ("G", ["gamma"]),
            ("W", ["W"]),
            ("U", ["u"]),
        ])
        apply_priors(g, priors or {})
        return g, rf

    def initial_marginals(self, T: int) -> dict:
        return {
            "d": GaussianMeanVariance(0.0, 1.0),
            "gamma": Gamma(1.0, 1.0),
            "W": Wishart(0.5 * np.eye(2), 2.0),
            "u": Gamma(1.0, 1.0),
        }

    @staticmethod
    def predictive_pieces(params: dict, anchors):
        """Joint 3-dim predictive: state (z, x1, x2) with block transition."""
        a = rotation(CO2_ANGLE)
        d = float(np.atleast_1d(params["d"])[0])
        trans = np.zeros((3, 3))
        trans[0, 0] = 1.0
        trans[1:, 1:] = a
        offset = np.array([d, 0.0, 0.0])
        w_inv = np.linalg.inv(np.asarray(params["W"], dtype=float))
        noise = np.zeros((3, 3))
        noise[0, 0] = 1.0 / float(params["gamma"])
        noise[1:, 1:] = w_inv
        (mz, vz), (mx, vx) = anchors
        m0 = np.concatenate([np.atleast_1d(mz), np.atleast_1d(mx)])
        v0 = np.zeros((3, 3))
        v0[0, 0] = float(np.atleast_2d(vz)[0, 0])
        v0[1:, 1:] = vx
        h = np.array([1.0, 1.0, 0.0])
        return trans, offset, noise, h, 1.0 / float(params["u"]), m0, v0


def sample_co2(seed: int, T: int = 192):
    """Synthetic monthly series with a slow drifting trend plus an annual
    phasor, loosely shaped like atmospheric concentration data."""
    rng = np.random.default_rng(seed)
    a = rotation(CO2_ANGLE)
    z = 335.0
    x = np.array([3.0, 0.0])
    ys, zs = [], []
    for _ in range(T):
        z = z + 0.11 + rng.normal(0.0, 0.1)
        x = a @ x + rng.multivariate_normal(np.zeros(2), 0.005 * np.eye(2))
        ys.append(z + x[0] + rng.normal(0.0, 0.3))
        zs.append(z)
    return {"y": np.asarray(ys)}, {"trend": np.asarray(zs), "seed": seed}


# ---------------------------------------------------------------------------
# Generator dispatch
# ---------------------------------------------------------------------------

GENERATORS = {
    "hmgm": sample_hmgm,
    "lgssm-softplus": sample_lgssm_softplus,
    "probit-ssm": sample_probit_ssm,
    "random-walk": sample_random_walk,
    "co2-synthetic": sample_co2,
}

DEFAULT_LENGTHS = {
    "hmgm": 50,
    "lgssm-softplus": 48,
    "probit-ssm": 96,
    "random-walk": 50,
    "co2-synthetic": 192,
}


def sample_generative(spec: str, seed: int, T: int | None = None):
    """Reproducible synthetic data for the built-in model specs."""
    try:
        gen = GENERATORS[spec]
    except KeyError:
        raise ValueError(f"unknown generative spec {spec!r}; choose from {sorted(GENERATORS)}") from None
    return gen(seed, T if T is not None else DEFAULT_LENGTHS[spec])
