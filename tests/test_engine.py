import numpy as np
import pytest

from mpgraph.distributions import Gamma, GaussianMeanVariance, PointMass
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
from mpgraph.graph import FactorGraph
from mpgraph.models import (
    RandomWalkModel,
    sample_generative,
    sample_random_walk,
)
from mpgraph.scheduler import (
    RecognitionFactorization,
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

    def test_overrides_verbatim(self):
        g, rf = conjugate_toy()
        override = GaussianMeanVariance(3.0, 0.5)
        table = init_marginals(g, rf, {"x": override})
        assert table["x"] is override

    def test_support_mismatch_rejected(self):
        g, rf = conjugate_toy()
        with pytest.raises(NumericalError, match="support"):
            init_marginals(g, rf, {"x": Gamma(1.0, 1.0)})
        with pytest.raises(NumericalError, match="unknown"):
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

    def test_nonfinite_data_raises_numerical(self):
        g, rf = conjugate_toy()
        with pytest.raises(NumericalError, match="iteration 0"):
            run_inference(g, rf, {"y": np.array([np.nan])}, max_iters=2)

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
