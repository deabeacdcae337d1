import re

import numpy as np
import pytest

from mpgraph.distributions import Gamma, GaussianBase, GaussianMeanVariance, PointMass, mean_and_cov, moment
from mpgraph.engine import (
    DirectExecutor,
    NumericalError,
    init_marginals,
    iterate,
    lgssm_predictive_loglik,
    predictive_score,
    run_inference,
    streaming_update,
)
from mpgraph.dsl import parse_model
from mpgraph.graph import FactorGraph, Support, infer_supports
from mpgraph.models import (
    HmgmModel,
    ProbitSsmModel,
    RandomWalkModel,
    apply_priors,
    sample_generative,
    sample_hmgm,
    sample_random_walk,
)
from mpgraph.scheduler import (
    RecognitionFactorization,
    SchedulingError,
    default_factorization,
    schedule_free_energy,
    schedule_vmp,
)


def conjugate_toy():
    g = FactorGraph()
    g.add_node("gaussian_mean_variance", {"out": "x", "mean": 0.0, "variance": 1.0})
    g.add_node("gaussian_mean_precision", {"out": "y", "mean": "x", "precision": 1.0})
    g.observe("y", "y", 1, ())
    return g, RecognitionFactorization([("X", ["x"])])


class TestInitMarginals:
    def test_vague_defaults_and_joints(self):
        from mpgraph.models import LgssmModel

        g, rf = LgssmModel().build(3)
        table = init_marginals(g, rf)
        assert table["W"].dof == 2.0 and table["W"].scale[0, 0] == 1e12
        assert isinstance(table["u"], Gamma) and table["u"].rate == 1e-12
        assert table["x[0]&x[1]"].dim == 4

    def test_one_vague_default_per_support(self):
        from mpgraph.models import LgssmModel
        from mpgraph.scheduler import vague_for

        g, rf = LgssmModel().build(3)
        table = init_marginals(g, rf)
        assert table["x[1]"] is table["x[2]"] and table["x[0]&x[1]"] is table["x[1]&x[2]"]
        assert table["x[1]"] is not table["x[0]&x[1]"]
        supports = infer_supports(g)
        for key, dist in table.items():
            if "&" in key:
                sup = Support("gaussian", (sum(supports[v].dim for v in key.split("&")),))
            else:
                sup = supports[key]
            assert dist.to_json() == vague_for(sup).to_json(), key

    def test_overrides_verbatim(self):
        g, rf = conjugate_toy()
        override = GaussianMeanVariance(3.0, 0.5)
        table = init_marginals(g, rf, {"x": override})
        assert table["x"] is override

    def test_support_mismatch_rejected(self):
        g, rf = conjugate_toy()
        with pytest.raises(ValueError, match="support"):
            init_marginals(g, rf, {"x": Gamma(1.0, 1.0)})
        with pytest.raises(ValueError, match="unknown"):
            init_marginals(g, rf, {"zz": Gamma(1.0, 1.0)})


class TestIterate:
    def test_evidence_identity_one_iteration(self):
        g, rf = conjugate_toy()
        res = run_inference(g, rf, {"y": np.array([0.0])}, max_iters=1)
        assert res.free_energy_trace[0] == pytest.approx(0.5 * np.log(4 * np.pi), abs=1e-12)

    def test_zero_iterations(self):
        g, rf = conjugate_toy()
        schedules = schedule_vmp(g, rf)
        fe = schedule_free_energy(g, rf)
        marg = init_marginals(g, rf)
        before = marg["x"].to_json()
        res = iterate(DirectExecutor(schedules, fe), {"y": np.array([0.0])}, marg, max_iters=0)
        assert res.free_energy_trace == [] and res.iterations == 0
        assert marg["x"].to_json() == before

    def test_f_dominates_log_evidence(self):
        # exact posterior gives F = -log evidence; any perturbation is larger
        g, rf = conjugate_toy()
        schedules = schedule_vmp(g, rf)
        fe = schedule_free_energy(g, rf)
        data = {"y": np.array([0.0])}
        ex = DirectExecutor(schedules, fe)
        exact = init_marginals(g, rf)
        ex.run_iteration(data, exact)
        f_star = ex.free_energy(data, exact)
        assert f_star == pytest.approx(0.5 * np.log(4 * np.pi), abs=1e-10)
        for mean, var in [(0.3, 0.5), (0.0, 1.0), (-0.1, 0.2)]:
            worse = dict(exact)
            worse["x"] = GaussianMeanVariance(mean, var)
            assert ex.free_energy(data, worse) > f_star

    @pytest.mark.parametrize("compiled", [True, False])
    def test_nonfinite_data_raises_numerical(self, compiled):
        # compiled: run_inference's interpreter; otherwise the direct executor
        g, rf = conjugate_toy()
        data = {"y": np.array([np.nan])}
        with pytest.raises(NumericalError, match=r"iteration 0: .*\(term 0: node0:gaussian_mv\)"):
            if compiled:
                run_inference(g, rf, data, max_iters=2)
            else:
                direct = DirectExecutor(schedule_vmp(g, rf), schedule_free_energy(g, rf))
                iterate(direct, data, init_marginals(g, rf), max_iters=2)

    def test_trace_converges_flag(self):
        data, _ = sample_random_walk(seed=0, T=50)
        model = RandomWalkModel()
        g, rf = model.build(50)
        res = run_inference(g, rf, data, overrides=model.initial_marginals(50),
                            max_iters=150, tol=1e-6)
        assert res.converged
        assert res.iterations < 150
        assert len(res.wall_clock) == res.iterations


class TestStreaming:
    class MeanTemplate:
        """y_t ~ N(m, 1) with a Gaussian prior on m: streaming must equal
        batch inference exactly (pure conjugate parameter learning)."""

        def build(self, T, priors):
            g = FactorGraph()
            prior = priors.get("m")
            mean = prior.mean_vector().tolist() if prior else [0.0]
            var = prior.covariance_matrix().tolist() if prior else [[100.0]]
            g.add_node("gaussian_mean_variance", {"out": "m", "mean": mean, "variance": var})
            for t in range(1, T + 1):
                g.add_node("gaussian_mean_precision",
                           {"out": f"y[{t}]", "mean": "m", "precision": 1.0})
                g.observe(f"y[{t}]", "y", t, ())
            return g, RecognitionFactorization([("M", ["m"])])

    def test_streaming_equals_batch_for_parameter_learning(self):
        rng = np.random.default_rng(4)
        ys = rng.normal(1.5, 1.0, size=20)
        template = self.MeanTemplate()
        batches = [{"y": ys[i * 4:(i + 1) * 4]} for i in range(5)]
        streamed = streaming_update(template, batches, iters_per_batch=5)
        g, rf = template.build(20, {})
        batch = run_inference(g, rf, {"y": ys}, max_iters=5)
        m_s = streamed[-1].marginals["m"]
        m_b = batch.marginals["m"]
        assert m_s.mean_vector()[0] == pytest.approx(m_b.mean_vector()[0], abs=1e-8)
        assert m_s.covariance_matrix()[0, 0] == pytest.approx(m_b.covariance_matrix()[0, 0], abs=1e-8)

    def test_single_batch_is_batch_inference(self):
        rng = np.random.default_rng(5)
        ys = rng.normal(size=6)
        template = self.MeanTemplate()
        streamed = streaming_update(template, [{"y": ys}], iters_per_batch=3)
        g, rf = template.build(6, {})
        batch = run_inference(g, rf, {"y": ys}, max_iters=3)
        assert streamed[0].marginals["m"].mean_vector()[0] == pytest.approx(
            batch.marginals["m"].mean_vector()[0], abs=1e-10
        )

    def test_empty_batch_list(self):
        assert streaming_update(self.MeanTemplate(), []) == []

    def test_state_chain_reanchoring(self):
        data, _ = sample_random_walk(seed=1, T=12)
        model = RandomWalkModel()
        batches = [{"y": data["y"][:6]}, {"y": data["y"][6:]}]
        results = streaming_update(model, batches, iters_per_batch=8,
                                   overrides_fn=lambda b, p: model.initial_marginals(6) if not p else None)
        assert len(results) == 2
        # second batch's shape bookkeeping continues from the first
        assert results[1].marginals["w"].shape == pytest.approx(
            results[0].marginals["w"].shape + 3.0
        )

    def test_hmm_chain_reanchored_at_first_state(self):
        data, _ = sample_hmgm(seed=1, T=20)
        model = HmgmModel()
        graphs = []

        class Recording:
            def build(self, T, priors):
                graph, rf = model.build(T, priors)
                graphs.append(graph)
                return graph, rf

        batches = [{"y": data["y"][:10]}, {"y": data["y"][10:]}]
        results = streaming_update(Recording(), batches, iters_per_batch=10,
                                   overrides_fn=lambda b, p: model.initial_marginals(len(b["y"]), b))
        assert all(np.isfinite(r.free_energy_trace[-1]) for r in results)
        second = graphs[1]
        start = next(n for n in second.nodes if n.kind == "categorical")
        edge = second.edges[start.interfaces[1]]
        clamp = second.node_at(second.neighbor_site(edge, (start.id, 1)))
        np.testing.assert_array_equal(clamp.constants["value"], results[0].marginals["x[10]"].probabilities)

    @pytest.mark.parametrize("priors, message", [
        ({"nowhere": Gamma(1.0, 1.0)}, "no prior node found for 'nowhere'"),
        ({"T": Gamma(1.0, 1.0)}, "posterior Gamma is not accepted as a prior for node kind 'dirichlet' ('T')"),
    ], ids=["unknown-variable", "wrong-family"])
    def test_apply_priors_names_the_variable(self, priors, message):
        with pytest.raises(SchedulingError, match=re.escape(message)):
            HmgmModel().build(3, priors)
        graph, _ = HmgmModel().build(3)
        with pytest.raises(SchedulingError, match=re.escape(message)):
            apply_priors(graph, priors)

    def test_apply_priors_needs_clamped_parameters(self):
        graph, _ = conjugate_toy()
        with pytest.raises(SchedulingError, match=re.escape("prior parameter 'mean' of 'y' is not clamped")):
            apply_priors(graph, {"y": GaussianMeanVariance(0.0, 1.0)})


class TestPredictive:
    def test_point_posterior_recovers_exact_loglik(self):
        # Oracle: directly computed Gaussian predictive factorization for the
        # scalar random walk with known parameters.
        d, w, u = -0.1, 100.0, 10.0
        ys = sample_random_walk(seed=2, T=5)[0]["y"].reshape(1, -1)
        m0, v0 = np.array([0.0]), np.array([[1e-12]])
        post = {"d": PointMass(d), "w": PointMass(w), "u": PointMass(u)}
        q = predictive_score(
            post, lambda p: RandomWalkModel.predictive_pieces(p, (m0, v0)),
            ys, samples=1, seed=0,
        )
        # hand-rolled prediction-error decomposition
        m, v = 0.0, 1e-12
        ll = 0.0
        for t in range(5):
            m, v = m + d, v + 1.0 / w
            s = v + 1.0 / u
            ll += -0.5 * (np.log(2 * np.pi * s) + (ys[0, t] - m) ** 2 / s)
            k = v / s
            m, v = m + k * (ys[0, t] - m), v * (1 - k)
        assert q == pytest.approx(ll, abs=1e-9)

    def test_degenerate_posterior_scores_lower(self):
        ys = sample_random_walk(seed=3, T=30)[0]["y"].reshape(1, -1)
        anchor = (np.array([ys[0, 0]]), np.array([[0.1]]))
        good = {"d": PointMass(-0.1), "w": PointMass(100.0), "u": PointMass(10.0)}
        bad = {"d": PointMass(5.0), "w": PointMass(100.0), "u": PointMass(10.0)}
        build = lambda p: RandomWalkModel.predictive_pieces(p, anchor)
        q_good = predictive_score(good, build, ys, samples=1, seed=0)
        q_bad = predictive_score(bad, build, ys, samples=1, seed=0)
        assert q_good > q_bad

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericalError):
            lgssm_predictive_loglik([[1.0]], [0.0], [[np.inf]], [1.0], 1.0,
                                    [0.0], [[1.0]], np.zeros((1, 3)))


class TestGenerators:
    def test_seed_repeatability(self):
        for spec in ("hmgm", "lgssm-softplus", "probit-ssm", "random-walk", "co2-synthetic"):
            a = sample_generative(spec, seed=9)
            b = sample_generative(spec, seed=9)
            np.testing.assert_array_equal(a[0]["y"], b[0]["y"])
            assert a[1]["seed"] == 9

    def test_default_lengths(self):
        assert len(sample_generative("lgssm-softplus", 0)[0]["y"]) == 48
        assert len(sample_generative("probit-ssm", 0)[0]["y"]) == 96
        assert len(sample_generative("random-walk", 0)[0]["y"]) == 50

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown generative spec"):
            sample_generative("mystery", 0)

    def test_probit_values_are_signs(self):
        ys = sample_generative("probit-ssm", 1)[0]["y"]
        assert set(np.unique(ys)) <= {-1.0, 1.0}


class TestStructuredConsistency:
    def test_joint_marginalizations_match_singles(self):
        data, _ = sample_random_walk(seed=6, T=10)
        model = RandomWalkModel()
        g, rf = model.build(10)
        res = run_inference(g, rf, data, overrides=model.initial_marginals(10), max_iters=10)
        for t in range(1, 11):
            joint = res.marginals[f"x[{t-1}]&x[{t}]"]
            mj = joint.mean_vector()
            vj = joint.covariance_matrix()
            prev = res.marginals[f"x[{t-1}]"]
            cur = res.marginals[f"x[{t}]"]
            assert mj[0] == pytest.approx(prev.mean_vector()[0], abs=1e-8)
            assert mj[1] == pytest.approx(cur.mean_vector()[0], abs=1e-8)
            assert vj[0, 0] == pytest.approx(prev.covariance_matrix()[0, 0], abs=1e-8)
            assert vj[1, 1] == pytest.approx(cur.covariance_matrix()[0, 0], abs=1e-8)


class TestAllObserved:
    def test_free_energy_is_minus_log_likelihood(self):
        from mpgraph.engine import DirectExecutor, free_energy
        from scipy.stats import norm

        g = FactorGraph()
        g.add_node("gaussian_mean_variance", {"out": "y", "mean": 0.0, "variance": 1.0})
        g.observe("y", "y", 1, ())
        rf = RecognitionFactorization([])
        fe = schedule_free_energy(g, rf)
        assert fe.entropies == []
        executor = DirectExecutor(schedule_vmp(g, rf), fe)
        value = free_energy(executor, {"y": np.array([0.3])}, {})
        assert value == pytest.approx(-norm.logpdf(0.3), abs=1e-12)


# Walks linked by "{link}": a GaussianMeanVariance node and the same link
# with GaussianMeanPrecision and the inverse matrix.
VARIANCE_WALKS = {
    "scalar": ("""
x[0] ~ GaussianMeanVariance(0.0, 100.0)
for t in 1:T {
  x[t] ~ {link}
  y[t] ~ GaussianMeanPrecision(x[t], 1.0)
  observe y[t] :: ()
}
""", "GaussianMeanVariance(x[t-1], 1.0)", "GaussianMeanPrecision(x[t-1], 1.0)", ()),
    "drift": ("""
x[0] ~ GaussianMeanVariance(0.0, 100.0)
d ~ GaussianMeanVariance(0.0, 100.0)
for t in 1:T {
  m[t] ~ Addition(x[t-1], d)
  x[t] ~ {link}
  y[t] ~ GaussianMeanPrecision(x[t], 2.0)
  observe y[t] :: ()
}
""", "GaussianMeanVariance(m[t], 4.0)", "GaussianMeanPrecision(m[t], 0.25)", ()),
    "two-dim": ("""
x[0] ~ GaussianMeanVariance([0.0, 0.0], [[100.0, 0.0], [0.0, 100.0]])
for t in 1:T {
  x[t] ~ {link}
  y[t] ~ GaussianMeanPrecision(x[t], [[1.0, 0.0], [0.0, 1.0]])
  observe y[t] :: (2,)
}
""", "GaussianMeanVariance(x[t-1], [[2.0, 0.0], [0.0, 0.5]])",
        "GaussianMeanPrecision(x[t-1], [[0.5, 0.0], [0.0, 2.0]])", (2,)),
}


class TestVarianceChain:
    """A state chain linked by GaussianMeanVariance nodes infers like the
    same chain linked by GaussianMeanPrecision nodes."""

    @pytest.mark.parametrize("name", sorted(VARIANCE_WALKS))
    def test_matches_precision_walk(self, name):
        source, variance_link, precision_link, shape = VARIANCE_WALKS[name]
        data = {"y": np.random.default_rng(4).normal(size=(7, *shape))}
        results = []
        for link in (variance_link, precision_link):
            g = parse_model(source.replace("{link}", link), {"T": 7})
            rf = default_factorization(g)
            assert rf.factors[0][1] == [f"x[{t}]" for t in range(8)]  # one chain factor
            results.append(run_inference(g, rf, data, max_iters=8, tol=0))
        mv, mp = results
        assert mv.free_energy_trace == pytest.approx(mp.free_energy_trace, rel=1e-12)
        assert mv.marginals.keys() == mp.marginals.keys()
        for key, q in mp.marginals.items():
            for got, want in zip(mean_and_cov(mv.marginals[key]), mean_and_cov(q)):
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


_MEANS = "a ~ GaussianMeanPrecision(0.0, 0.01)\nb ~ GaussianMeanPrecision(1.0, 0.1)\n"
_STATES = "x[0] ~ GaussianMeanPrecision(0.0, 0.01)\nd ~ GaussianMeanPrecision(0.0, 0.01)\nw ~ Gamma(1.0, 1.0)\n"
# name -> model with the Gaussian node under test written GAUSSIAN(mean)
MEAN_SHAPES = {
    "latent mean": _MEANS + "y ~ GAUSSIAN(a)\nobserve y :: ()\n",
    "addition of two latents": _MEANS + "m ~ Addition(a, b)\ny ~ GAUSSIAN(m)\nobserve y :: ()\n",
    "gain of a chain state": _STATES + """for t in 1:T {
  x[t] ~ GaussianMeanPrecision(x[t-1], w)
  r[t] ~ Gain(x[t], 2.0)
  y[t] ~ GAUSSIAN(r[t])
  observe y[t] :: ()
}
""",
    "chain state plus d": _STATES + """for t in 1:T {
  x[t] ~ GaussianMeanPrecision(x[t-1], w)
  a[t] ~ Addition(x[t], d)
  y[t] ~ GAUSSIAN(a[t])
  observe y[t] :: ()
}
""",
    "chain link": _STATES + """for t in 1:T {
  m[t] ~ Addition(x[t-1], d)
  x[t] ~ GAUSSIAN(m[t])
  y[t] ~ GaussianMeanPrecision(x[t], w)
  observe y[t] :: ()
}
""",
}


class TestVarianceMeanShapes:
    """A GaussianMeanVariance node with a fixed variance infers like a
    GaussianMeanPrecision node with its inverse, whatever its mean is."""

    @pytest.mark.parametrize("name", list(MEAN_SHAPES))
    def test_variance_form_matches_precision_form(self, name):
        source = MEAN_SHAPES[name]
        ys = np.array([0.3, -0.2, 0.9, 1.4])
        data = {"y": ys if "T" in source else ys[:1]}
        results = []
        for node in (r"GaussianMeanVariance(\1, 0.5)", r"GaussianMeanPrecision(\1, 2.0)"):
            g = parse_model(re.sub(r"GAUSSIAN\(([^)]*)\)", node, source), {"T": 4})
            results.append(run_inference(g, default_factorization(g), data, max_iters=6, tol=0))
        mv, mp = results
        assert len(mv.free_energy_trace) == 6
        np.testing.assert_allclose(mv.free_energy_trace, mp.free_energy_trace, rtol=1e-12, atol=0)
        assert mv.marginals.keys() == mp.marginals.keys()
        for key, q in mp.marginals.items():
            got, want = mv.marginals[key], q
            if isinstance(q, GaussianBase):
                got, want = mean_and_cov(got), mean_and_cov(want)
            else:
                assert type(got) is type(want), key
                got, want = got._params_json().values(), want._params_json().values()
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=0, err_msg=key)


def leaf_sum_model(n_leaves: int) -> str:
    """y[t] ~ N(a1 + ... + an, w^-1) with the sum built from chained Additions."""
    lines = [f"a{i} ~ GaussianMeanVariance(0.0, 100.0)" for i in range(1, n_leaves + 1)]
    lines += ["w ~ Gamma(1.0, 1.0)", "for t in 1:T {"]
    mean = "a1"
    for i in range(2, n_leaves + 1):
        lines.append(f"  s{i}[t] ~ Addition({mean}, a{i})")
        mean = f"s{i}[t]"
    lines += [f"  y[t] ~ GaussianMeanPrecision({mean}, w)", "  observe y[t] :: ()", "}"]
    return "\n".join(lines)


TWO_OFFSET_WALK = """
x[0] ~ GaussianMeanVariance(0.0, 100.0)
d ~ GaussianMeanVariance(0.0, 100.0)
e ~ GaussianMeanVariance(0.0, 100.0)
w ~ Gamma(1.0, 1.0)
for t in 1:T {
  a[t] ~ Addition(x[t-1], d)
  m[t] ~ Addition(a[t], e)
  x[t] ~ GaussianMeanPrecision(m[t], w)
  y[t] ~ GaussianMeanPrecision(x[t], 10.0)
  observe y[t] :: ()
}
"""


# A scalar precision written as a 1x1 Wishart or as the Gamma it equals:
# Wishart([[v]], nu) is Gamma(nu / 2, 1 / (2 v)).
SCALAR_PRECISION_MODELS = {
    "observation": """
a ~ GaussianMeanVariance(0.0, 100.0)
W ~ {prior}
for t in 1:T {{
  y[t] ~ GaussianMeanPrecision(a, W)
  observe y[t] :: ()
}}
""",
    "chain": """
x[0] ~ GaussianMeanVariance(0.0, 100.0)
W ~ {prior}
for t in 1:T {{
  x[t] ~ GaussianMeanPrecision(x[t-1], W)
  y[t] ~ GaussianMeanPrecision(x[t], 4.0)
  observe y[t] :: ()
}}
""",
    "mixture": """
m1 ~ GaussianMeanVariance(-1.0, 100.0)
m2 ~ GaussianMeanVariance(1.0, 100.0)
W ~ {prior}
V ~ Gamma(2.0, 1.0)
for t in 1:T {{
  k[t] ~ Categorical([0.5, 0.5])
  y[t] ~ GaussianMixture(k[t], m1, W, m2, V)
  observe y[t] :: ()
}}
""",
}


class TestScalarWishart:
    @pytest.mark.parametrize("name", sorted(SCALAR_PRECISION_MODELS))
    def test_a_1x1_wishart_infers_like_the_gamma_it_equals(self, name):
        ys = np.array([0.3, -0.5, 1.2, 0.8, -1.4, 0.1])
        results = []
        for prior in ("Wishart([[1.0]], 3.0)", "Gamma(1.5, 0.5)"):
            graph = parse_model(SCALAR_PRECISION_MODELS[name].format(prior=prior), {"T": len(ys)})
            results.append(run_inference(graph, default_factorization(graph), {"y": ys}, max_iters=10, tol=0.0))
        wishart, gamma = results
        q = wishart.marginals["W"]
        assert q.variant == "Wishart" and gamma.marginals["W"].variant == "Gamma"
        assert 0.5 * q.dof == pytest.approx(gamma.marginals["W"].shape, rel=1e-10)
        assert 0.5 / float(q.scale[0, 0]) == pytest.approx(gamma.marginals["W"].rate, rel=1e-10)
        assert wishart.free_energy_trace == pytest.approx(gamma.free_energy_trace, rel=1e-10)
        for key, want in gamma.marginals.items():
            if key != "W":
                got = wishart.marginals[key]
                assert np.allclose(moment(got, "mean"), moment(want, "mean"), rtol=1e-10, atol=1e-12), key


class TestAffineArity:
    """Affine means with more leaves than a fixed-arity rule table would
    cover: mean-field leaf sums and a chain transition with two offsets."""

    @pytest.mark.parametrize("source", [leaf_sum_model(4), leaf_sum_model(5), TWO_OFFSET_WALK],
                             ids=["4-leaves", "5-leaves", "two-offset-walk"])
    def test_infers_with_non_increasing_free_energy(self, source):
        g = parse_model(source, {"T": 6})
        data = {"y": np.random.default_rng(0).normal(size=6)}
        res = run_inference(g, default_factorization(g), data, max_iters=20, tol=0)
        f = np.asarray(res.free_energy_trace)
        assert len(f) == 20 and np.all(np.isfinite(f))
        assert np.all(np.diff(f) <= 1e-9)


def step_subgraph():
    """The transition x[t] ~ N(0.9 x[t-1], w^-1) as one composite node."""
    sub = FactorGraph()
    sub.add_variable("in")
    sub.add_variable("w")
    sub.add_node("gain", {"out": "m", "in": "in"}, {"matrix": np.array([[0.9]])})
    sub.add_node("gaussian_mean_precision", {"out": "out", "mean": "m", "precision": "w"})
    return sub


class StepTemplate:
    """An observed state chain with a learned transition precision w; with
    ``composite`` each transition is one ``Step`` node."""

    def __init__(self, composite: bool):
        self.composite = composite

    def build(self, T, priors):
        g = FactorGraph()
        if self.composite:
            g.define_composite("Step", step_subgraph(), [("out", "out"), ("in", "in"), ("precision", "w")])
        x0 = priors.get("x[0]", GaussianMeanVariance(0.0, 100.0))
        g.add_node("gaussian_mean_variance", {"out": "x[0]", "mean": x0.mean_vector().tolist(),
                                              "variance": x0.covariance_matrix().tolist()})
        w = priors.get("w", Gamma(1.0, 1.0))
        g.add_node("gamma", {"out": "w", "shape": w.shape, "rate": w.rate})
        for t in range(1, T + 1):
            if self.composite:
                g.add_node("Step", {"out": f"x[{t}]", "in": f"x[{t - 1}]", "precision": "w"})
            else:
                g.add_node("gain", {"out": f"m[{t}]", "in": f"x[{t - 1}]"}, {"matrix": np.array([[0.9]])})
                g.add_node("gaussian_mean_precision", {"out": f"x[{t}]", "mean": f"m[{t}]", "precision": "w"})
            g.add_node("gaussian_mean_precision", {"out": f"y[{t}]", "mean": f"x[{t}]", "precision": 4.0})
            g.observe(f"y[{t}]", "y", t, ())
        return g, RecognitionFactorization([("X", [f"x[{t}]" for t in range(T + 1)]), ("W", ["w"])])


class TestCompositeChain:
    """A chain whose transitions are composite nodes: the marginal table and
    the streaming re-anchoring see the expanded chain, as the schedules do."""

    def test_marginal_table_has_the_two_slice_joints(self):
        g, rf = StepTemplate(composite=True).build(3, {})
        joints = [f"x[{t - 1}]&x[{t}]" for t in range(1, 4)]
        assert sorted(init_marginals(g, rf)) == sorted(["w", *rf.factors[0][1], *joints])
        flat_g, flat_rf = StepTemplate(composite=False).build(3, {})
        assert list(init_marginals(g, rf)) == list(init_marginals(flat_g, flat_rf))

    def test_default_factorization_sees_the_expanded_chain(self):
        g, _ = StepTemplate(composite=True).build(3, {})
        rf = default_factorization(g)
        assert rf.factors == [("X", [f"x[{t}]" for t in range(4)]), ("w", ["w"])]
        schedules = schedule_vmp(g, rf)
        assert list(schedules) == ["X", "w"]

    def test_streams_like_the_expanded_chain(self):
        rng = np.random.default_rng(7)
        batches = [{"y": rng.normal(size=4)} for _ in range(3)]
        composite = streaming_update(StepTemplate(composite=True), batches, iters_per_batch=10)
        flat = streaming_update(StepTemplate(composite=False), batches, iters_per_batch=10)
        assert len(composite) == 3
        for a, b in zip(composite, flat):
            assert "x[3]&x[4]" in a.marginals
            assert a.free_energy_trace == pytest.approx(b.free_energy_trace, rel=1e-9)
            for key in ("x[0]", "x[4]"):
                qa, qb = a.marginals[key], b.marginals[key]
                assert qa.mean_vector() == pytest.approx(qb.mean_vector(), rel=1e-9)
                assert qa.covariance_matrix() == pytest.approx(qb.covariance_matrix(), rel=1e-9)
            wa, wb = a.marginals["w"], b.marginals["w"]
            assert (wa.shape, wa.rate) == pytest.approx((wb.shape, wb.rate), rel=1e-9)


class TestNonlinearOffset:
    """g(x + c) with g the identity must update the precision and score the
    energy exactly as the affine mean x + c does."""

    @staticmethod
    def build(nonlinear: bool):
        g = FactorGraph()
        g.add_node("gaussian_mean_variance", {"out": "x", "mean": 0.3, "variance": 2.0})
        g.add_node("gamma", {"out": "u", "shape": 1.0, "rate": 1.0})
        g.add_node("addition", {"out": "r", "in1": "x", "in2": 1.5})
        mean = "r"
        if nonlinear:
            g.add_node("nonlinear", {"out": "s", "in": "r"}, {"g": "identity"})
            mean = "s"
        g.add_node("gaussian_mean_precision", {"out": "y", "mean": mean, "precision": "u"})
        g.observe("y", "y", 1, ())
        return g, RecognitionFactorization([("X", ["x"]), ("U", ["u"])])

    def test_identity_nonlinearity_matches_the_affine_mean(self):
        data = {"y": np.array([2.5])}
        updated, energies = [], []
        for nonlinear in (False, True):
            g, rf = self.build(nonlinear)
            executor = DirectExecutor(schedule_vmp(g, rf), schedule_free_energy(g, rf))
            marginals = init_marginals(g, rf, {"x": GaussianMeanVariance(0.7, 0.4)})
            executor.run_step("U", data, marginals)
            updated.append(marginals["u"])
            energies.append(executor.free_energy(data, marginals))
        # rate 1 + E[(2.5 - x - 1.5)^2] / 2 with x ~ N(0.7, 0.4)
        for u in updated:
            assert (u.shape, u.rate) == pytest.approx((1.5, 1.0 + 0.5 * (0.3 ** 2 + 0.4)), rel=1e-12)
        assert energies[1] == pytest.approx(energies[0], rel=1e-12)


class TestCompileModel:
    @pytest.fixture
    def analyses(self, monkeypatch):
        """Counts factorization analyses performed: each runs support
        inference once, a ``Factorization`` passed through runs none."""
        from mpgraph import scheduler

        calls = []

        def counted(graph):
            calls.append(graph)
            return infer_supports(graph)

        monkeypatch.setattr(scheduler, "infer_supports", counted)
        return calls

    def test_one_analysis_per_run_inference(self, analyses):
        data, _ = sample_random_walk(seed=2, T=12)
        model = RandomWalkModel()
        g, rf = model.build(12)
        run_inference(g, rf, data, overrides=model.initial_marginals(12), max_iters=3)
        assert len(analyses) == 1

    def test_one_analysis_per_streaming_batch(self, analyses):
        data, _ = sample_random_walk(seed=2, T=12)
        model = RandomWalkModel()
        batches = [{"y": data["y"][i:i + 4]} for i in range(0, 12, 4)]
        streaming_update(model, batches, iters_per_batch=3,
                         overrides_fn=lambda b, p: model.initial_marginals(4) if not p else None)
        assert len(analyses) == len(batches)

    def test_one_analysis_per_compile_command(self, analyses, tmp_path):
        import json

        from mpgraph.cli import main

        model = tmp_path / "sum.mp"
        model.write_text(leaf_sum_model(2))
        spec = tmp_path / "rf.json"
        spec.write_text(json.dumps({"factors": [
            {"id": v, "variables": [v]} for v in ("a1", "a2", "w")]}))
        assert main(["compile", str(model), "--const", "T=3", "--factorization", str(spec),
                     "-o", str(tmp_path / "out")]) == 0
        assert len(analyses) == 1

    @pytest.mark.parametrize("model, spec, ep_damping", [
        (RandomWalkModel(), "random-walk", None),
        (ProbitSsmModel(), "probit-ssm", 0.5),
    ], ids=["random-walk", "probit-ep-sites"])
    def test_runs_equal_run_inference_and_leave_the_program_unchanged(self, model, spec, ep_damping):
        from mpgraph.codegen import render
        from mpgraph.engine import compile_model

        T = 15
        g, rf = model.build(T)
        program = compile_model(g, rf, ep_damping=ep_damping)
        listing = render(program.ir)
        for seed in (3, 4):
            data, _ = sample_generative(spec, seed, T)
            got = program.run(data, model.initial_marginals(T), max_iters=6, seed=seed)
            want = run_inference(g, rf, data, overrides=model.initial_marginals(T), max_iters=6,
                                 seed=seed, ep_damping=ep_damping)
            assert got.free_energy_trace == want.free_energy_trace
            assert got.seed == want.seed == seed
            assert got.marginals.keys() == want.marginals.keys()
            for key in want.marginals:
                assert got.marginals[key].to_json() == want.marginals[key].to_json(), key
        assert render(program.ir) == listing

    def test_compiled_walk_stays_within_its_allocation_budget(self):
        # Objects the cyclic collector tracks, kept alive by one compiled
        # README random walk at T=200 (graph, analysis, schedules, free-energy
        # program and IR), per instruction: 7.27 when every instruction and
        # schedule step held its slots and constants in fresh lists and dicts,
        # 3.80 with slot tuples and constants shared (15,248 objects for 4,009
        # instructions). A mean-field marginal as one product drops 597
        # equality folds and 1,256 objects: 13,992, 4.10 per instruction. The
        # collector's full passes walk all of them, so this bounds their cost.
        import gc

        from mpgraph.engine import compile_model
        from test_cli import RW_MODEL

        def compiled(T):
            graph = parse_model(RW_MODEL, {"T": T})
            return compile_model(graph, default_factorization(graph))

        compiled(3)  # the registry's memo and other first-use tables
        gc.collect()
        before = len(gc.get_objects())
        program = compiled(200)
        gc.collect()
        retained = len(gc.get_objects()) - before
        instructions = sum(len(p) for _, p in program.ir.steps) + len(program.ir.free_energy)
        assert instructions == 3412
        assert retained < 14_700
