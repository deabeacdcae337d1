import numpy as np
import pytest

from mpgraph.distributions import (
    Categorical,
    Dirichlet,
    Gamma,
    GaussianMeanPrecision,
    GaussianMeanVariance,
    PointMass,
    Wishart,
    average_energy,
    differential_entropy,
    product,
)
from mpgraph.rules import (
    CAVITY,
    MARGINAL,
    MESSAGE,
    VOID,
    RuleUnavailable,
    default_registry,
    make_gain_equality_rule,
)

REG = default_registry()


def run(kind, role, query, inbound, constants=None, flavor=None, previous=None):
    rule = REG.lookup(kind, role, query, flavor)
    return rule.apply(inbound, constants or {}, previous)


def q(*pairs):
    return [(k, type(v) if v is not None else None) for k, v in pairs]


def gauss_hermite_tilted(mu, s2, y, n=200):
    """Oracle: moments of Phi(y r) N(r; mu, s2) by Gauss-Hermite quadrature."""
    from scipy.stats import norm

    nodes, weights = np.polynomial.hermite.hermgauss(n)
    r = mu + np.sqrt(2.0 * s2) * nodes
    f = norm.cdf(y * r)
    w = weights / np.sqrt(np.pi)
    z = np.sum(w * f)
    mean = np.sum(w * f * r) / z
    var = np.sum(w * f * r**2) / z - mean**2
    return mean, var


class TestEqualityRule:
    def test_two_standard_normals(self):
        a, b = GaussianMeanVariance(0.0, 1.0), GaussianMeanVariance(0.0, 1.0)
        out = run("equality", "3", q((MESSAGE, a), (MESSAGE, b), (VOID, None)), [a, b, None])
        np.testing.assert_allclose(out.dist.covariance_matrix(), [[0.5]], atol=1e-12)

    def test_prior_likelihood_fusion(self):
        prior = GaussianMeanVariance(0.0, 100.0)
        lik = GaussianMeanVariance(2.0, 1.0)
        out = run("equality", "3", q((MESSAGE, prior), (MESSAGE, lik), (VOID, None)), [prior, lik, None])
        assert out.dist.mean_vector()[0] == pytest.approx(2.0 / 1.01, abs=1e-10)
        assert out.dist.covariance_matrix()[0, 0] == pytest.approx(1.0 / 1.01, abs=1e-10)

    def test_point_mass_absorbs(self):
        a = Categorical([0.3, 0.7])
        b = PointMass([1.0, 0.0])
        out = run("equality", "2", q((MESSAGE, a), (VOID, None), (MESSAGE, b)), [a, None, b])
        assert isinstance(out.dist, PointMass)


class TestAdditionRules:
    def test_forward_sum(self):
        a, b = GaussianMeanVariance(1.0, 2.0), GaussianMeanVariance(2.0, 3.0)
        out = run("addition", "out", q((VOID, None), (MESSAGE, a), (MESSAGE, b)), [None, a, b])
        assert out.dist.mean_vector()[0] == pytest.approx(3.0)
        assert out.dist.covariance_matrix()[0, 0] == pytest.approx(5.0)

    def test_backward(self):
        out_msg, in1 = PointMass(5.0), GaussianMeanVariance(1.0, 2.0)
        res = run("addition", "in2", q((MESSAGE, out_msg), (MESSAGE, in1), (VOID, None)), [out_msg, in1, None])
        assert res.dist.mean_vector()[0] == pytest.approx(4.0)
        assert res.dist.covariance_matrix()[0, 0] == pytest.approx(2.0)

    def test_vector_point_masses(self):
        a, b = PointMass([1.0, 2.0]), PointMass([3.0, 4.0])
        out = run("addition", "out", q((VOID, None), (MESSAGE, a), (MESSAGE, b)), [None, a, b])
        assert isinstance(out.dist, PointMass)
        np.testing.assert_array_equal(out.dist.value, [4.0, 6.0])

    def test_marginal_shift_keeps_precision(self):
        out_msg = GaussianMeanVariance(5.0, 0.5)
        marg = GaussianMeanVariance(1.0, 10.0)  # large variance must not leak in
        res = run(
            "addition", "in1",
            [(MESSAGE, GaussianMeanVariance), (VOID, None), (MARGINAL, GaussianMeanVariance)],
            [out_msg, None, marg],
        )
        assert res.dist.mean_vector()[0] == pytest.approx(4.0)
        assert res.dist.covariance_matrix()[0, 0] == pytest.approx(0.5)


class TestGainRules:
    def test_identity(self):
        m = GaussianMeanVariance([1.0, 2.0], np.diag([1.0, 2.0]))
        out = run("gain", "out", q((VOID, None), (MESSAGE, m)), [None, m], {"matrix": np.eye(2)})
        np.testing.assert_allclose(out.dist.mean_vector(), m.mean)
        np.testing.assert_allclose(out.dist.covariance_matrix(), m.covariance)

    def test_scalar_gain(self):
        m = GaussianMeanVariance(1.0, 1.0)
        out = run("gain", "out", q((VOID, None), (MESSAGE, m)), [None, m], {"matrix": [[2.0]]})
        assert out.dist.mean_vector()[0] == pytest.approx(2.0)
        assert out.dist.covariance_matrix()[0, 0] == pytest.approx(4.0)

    def test_dot_product_backward_matches_dense_likelihood(self):
        # Oracle: dense construction of the b^T likelihood N(y; b.x, v).
        y_msg = GaussianMeanVariance(3.0, 1.0)
        b = np.array([[1.0, 0.0]])
        out = run("gain", "in", q((MESSAGE, y_msg), (VOID, None)), [y_msg, None], {"matrix": b})
        np.testing.assert_allclose(out.dist.precision, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(out.dist.weighted_mean, [3.0, 0.0], atol=1e-12)


class TestGaussianRules:
    def test_sp_forward_prior(self):
        mean, prec = PointMass(0.0), PointMass(1.0)
        out = run("gaussian_mean_precision", "out",
                  q((VOID, None), (MESSAGE, mean), (MESSAGE, prec)), [None, mean, prec])
        assert out.dist.covariance_matrix()[0, 0] == pytest.approx(1.0)

    def test_sp_forward_uncertain_mean(self):
        mean, prec = GaussianMeanVariance(0.0, 1.0), PointMass(1.0)
        out = run("gaussian_mean_precision", "out",
                  q((VOID, None), (MESSAGE, mean), (MESSAGE, prec)), [None, mean, prec])
        assert out.dist.covariance_matrix()[0, 0] == pytest.approx(2.0)

    def test_sp_backward_mean(self):
        outm, prec = PointMass(2.0), PointMass(4.0)
        res = run("gaussian_mean_precision", "mean",
                  q((MESSAGE, outm), (VOID, None), (MESSAGE, prec)), [outm, None, prec])
        assert res.dist.mean_vector()[0] == pytest.approx(2.0)
        assert res.dist.covariance_matrix()[0, 0] == pytest.approx(0.25)

    def test_vmp_out(self):
        meanq, wq = PointMass(0.0), Gamma(2.0, 2.0)
        out = run("gaussian_mean_precision", "out",
                  [(VOID, None), (MARGINAL, PointMass), (MARGINAL, Gamma)], [None, meanq, wq])
        assert isinstance(out.dist, GaussianMeanPrecision)
        assert out.dist.precision[0, 0] == pytest.approx(1.0)

    def test_vmp_toward_precision(self):
        # Oracle: E[(x-m)^2] = v + (E[x]-m)^2 = 1 under q(x)=N(0,1), m=0.
        xq, mq = GaussianMeanVariance(0.0, 1.0), PointMass(0.0)
        out = run("gaussian_mean_precision", "precision",
                  [(MARGINAL, GaussianMeanVariance), (MARGINAL, PointMass), (VOID, None)],
                  [xq, mq, None], {"out_dim": 1})
        assert isinstance(out.dist, Gamma)
        assert out.dist.shape == pytest.approx(1.5)
        assert out.dist.rate == pytest.approx(0.5)

    def test_vmp_toward_mean(self):
        outq, wq = GaussianMeanVariance(5.0, 0.1), PointMass(10.0)
        res = run("gaussian_mean_precision", "mean",
                  [(MARGINAL, GaussianMeanVariance), (VOID, None), (MARGINAL, PointMass)],
                  [outq, None, wq])
        assert res.dist.mean[0] == pytest.approx(5.0)
        assert res.dist.precision[0, 0] == pytest.approx(10.0)

    def test_sp_requires_point_precision(self):
        mean = GaussianMeanVariance(0.0, 1.0)
        with pytest.raises(RuleUnavailable):
            REG.lookup("gaussian_mean_precision", "out",
                       [(VOID, None), (MESSAGE, GaussianMeanVariance), (MESSAGE, Gamma)],
                       flavor="sum-product")

    def test_wishart_precision_message_bookkeeping(self):
        xq = GaussianMeanVariance([0.0, 0.0], np.eye(2))
        mq = PointMass([0.0, 0.0])
        out = run("gaussian_mean_precision", "precision",
                  [(MARGINAL, GaussianMeanVariance), (MARGINAL, PointMass), (VOID, None)],
                  [xq, mq, None], {"out_dim": 2})
        assert isinstance(out.dist, Wishart)
        # product with a prior must add exactly one dof per slice
        prior = Wishart(1e12 * np.eye(2), 2.0)
        post = product(prior, out.dist)
        assert post.dof == pytest.approx(3.0)


class TestTransitionRules:
    def test_identity_point_transition(self):
        t = PointMass(np.eye(3))
        p_in = Categorical([1.0, 0.0, 0.0])
        out = run("transition", "out", q((VOID, None), (MESSAGE, p_in), (MESSAGE, t)), [None, p_in, t])
        np.testing.assert_allclose(out.dist.probabilities, [1.0, 0.0, 0.0])

    def test_toward_matrix_unit_joint(self):
        joint = Categorical(np.outer([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]))
        out = run("transition", "matrix",
                  [(MARGINAL, Categorical), (VOID, None), (VOID, None)], [joint, None, None])
        expected = np.ones((3, 3))
        expected[0, 1] += 1.0
        np.testing.assert_allclose(out.dist.concentration, expected)

    def test_out_under_uniform_dirichlet(self):
        # Oracle: brute-force sum over exp(digamma terms) times p_j.
        from scipy.special import digamma

        t = Dirichlet(np.ones((3, 3)))
        p_in = Categorical([1 / 3, 1 / 3, 1 / 3])
        m = np.exp(digamma(1.0) - digamma(3.0)) * np.ones((3, 3))
        oracle = m @ p_in.probabilities
        oracle /= oracle.sum()
        out = run("transition", "out",
                  [(VOID, None), (MESSAGE, Categorical), (MARGINAL, Dirichlet)], [None, p_in, t])
        np.testing.assert_allclose(out.dist.probabilities, oracle, atol=1e-12)
        np.testing.assert_allclose(out.dist.probabilities, 1 / 3, atol=1e-12)


class TestMixtureRules:
    def setup_k2(self, y, m1, m2):
        return [
            PointMass(np.atleast_1d(y)),
            None,
            GaussianMeanVariance(np.atleast_1d(m1), np.eye(len(np.atleast_1d(m1)))),
            PointMass(np.eye(len(np.atleast_1d(m1)))),
            GaussianMeanVariance(np.atleast_1d(m2), np.eye(len(np.atleast_1d(m2)))),
            PointMass(np.eye(len(np.atleast_1d(m2)))),
        ]

    def query(self, inbound, void_at):
        out = []
        for i, item in enumerate(inbound):
            if i == void_at:
                out.append((VOID, None))
            elif i == 0:
                out.append((MESSAGE, type(item)))
            else:
                out.append((MARGINAL, type(item)))
        return out

    def test_symmetric_selector(self):
        inbound = self.setup_k2([0.0, 0.0], [1.0, 0.0], [-1.0, 0.0])
        out = run("gaussian_mixture", "selector", self.query(inbound, 1), inbound)
        np.testing.assert_allclose(out.dist.probabilities, [0.5, 0.5], atol=1e-12)

    def test_selector_point_components(self):
        # Oracle: direct evaluation of both unit-precision log densities.
        inbound = [
            PointMass([1.0]),
            None,
            PointMass([0.0]),
            PointMass([[1.0]]),
            PointMass([2.0]),
            PointMass([[1.0]]),
        ]
        out = run("gaussian_mixture", "selector", self.query(inbound, 1), inbound)
        np.testing.assert_allclose(out.dist.probabilities, [0.5, 0.5], atol=1e-12)

    def full_responsibility(self, K, component, void_offset):
        """y = 2 fully assigned to ``component``; component k has mean 5k and
        precision k; the void sits on the component's mean (offset 0) or
        precision (offset 1)."""
        inbound = [PointMass([2.0]), Categorical(np.eye(K)[component - 1])]
        for k in range(1, K + 1):
            inbound += [GaussianMeanVariance([5.0 * k], [[1.0]]), PointMass([[float(k)]])]
        at = 2 * component + void_offset
        inbound[at] = None
        return inbound, self.query(inbound, at)

    @pytest.mark.parametrize("K,component", [(2, 1), (3, 2), (7, 1), (7, 7)])
    def test_full_responsibility_mean_message(self, K, component):
        inbound, query = self.full_responsibility(K, component, 0)
        out = run("gaussian_mixture", f"mean_{component}", query, inbound)
        assert out.dist.precision[0, 0] == pytest.approx(component)
        assert out.dist.mean_vector()[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("K,component", [(2, 1), (3, 2), (7, 1), (7, 7)])
    def test_full_responsibility_precision_message(self, K, component):
        inbound, query = self.full_responsibility(K, component, 1)
        out = run("gaussian_mixture", f"precision_{component}", query, inbound)
        # Gamma(1 + 1/2, S/2) with scatter S = var(m_k) + (y - E[m_k])^2
        assert out.dist.shape == pytest.approx(1.5)
        assert out.dist.rate == pytest.approx(0.5 * (1.0 + (2.0 - 5.0 * component) ** 2))

    def test_selector_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=2)
        means = [rng.normal(size=2) for _ in range(3)]
        inbound = [PointMass(y), None]
        for m in means:
            inbound += [GaussianMeanVariance(m, 0.5 * np.eye(2)), PointMass(np.eye(2))]
        out = run("gaussian_mixture", "selector", self.query(inbound, 1), inbound)
        perm = [2, 0, 1]
        inbound_p = [PointMass(y), None]
        for j in perm:
            inbound_p += [GaussianMeanVariance(means[j], 0.5 * np.eye(2)), PointMass(np.eye(2))]
        out_p = run("gaussian_mixture", "selector", self.query(inbound_p, 1), inbound_p)
        np.testing.assert_allclose(
            out_p.dist.probabilities, out.dist.probabilities[perm], atol=1e-12
        )


class TestProbitEP:
    def q(self):
        return [(MESSAGE, PointMass), (CAVITY, GaussianMeanVariance)]

    def test_standard_cavity(self):
        datum, cavity = PointMass(1.0), GaussianMeanVariance(0.0, 1.0)
        out = run("probit", "in", self.q(), [datum, cavity])
        assert out.info["tilted_mean"] == pytest.approx(0.5641895835, abs=1e-9)
        assert out.info["tilted_var"] == pytest.approx(0.6816901138, abs=1e-9)
        assert out.dist.precision[0, 0] == pytest.approx(1.0 / 0.6816901138 - 1.0, abs=1e-8)

    @pytest.mark.parametrize("mu", [-5.0, -2.0, 0.0, 1.5, 5.0])
    @pytest.mark.parametrize("s2", [0.01, 0.1, 1.0, 25.0])
    def test_tilted_moments_match_quadrature(self, mu, s2):
        for y in (1.0, -1.0):
            datum, cavity = PointMass(y), GaussianMeanVariance(mu, s2)
            out = run("probit", "in", self.q(), [datum, cavity])
            mean_o, var_o = gauss_hermite_tilted(mu, s2, y)
            assert out.info["tilted_mean"] == pytest.approx(mean_o, abs=1e-6)
            assert out.info["tilted_var"] == pytest.approx(var_o, abs=1e-6)

    def test_confident_cavity_nearly_uninformative(self):
        datum, cavity = PointMass(1.0), GaussianMeanVariance(10.0, 0.01)
        out = run("probit", "in", self.q(), [datum, cavity])
        assert out.dist.precision[0, 0] < 1e-6

    def test_sign_mirror(self):
        pos = run("probit", "in", self.q(), [PointMass(1.0), GaussianMeanVariance(1.3, 2.0)])
        neg = run("probit", "in", self.q(), [PointMass(-1.0), GaussianMeanVariance(-1.3, 2.0)])
        assert pos.info["tilted_mean"] == pytest.approx(-neg.info["tilted_mean"], abs=1e-12)
        assert pos.info["tilted_var"] == pytest.approx(neg.info["tilted_var"], abs=1e-12)

    def test_extreme_cavity_stays_finite(self):
        out = run("probit", "in", self.q(), [PointMass(1.0), GaussianMeanVariance(-40.0, 1.0)])
        assert np.isfinite(out.dist.precision[0, 0])
        assert np.isfinite(out.dist.weighted_mean[0])


class TestLinearized:
    def test_softplus_at_zero(self):
        msg = GaussianMeanVariance(0.0, 1.0)
        out = run("nonlinear", "out", q((VOID, None), (MESSAGE, msg)), [None, msg], {"g": "softplus"})
        assert out.dist.mean_vector()[0] == pytest.approx(np.log(2.0), abs=1e-12)
        assert out.dist.covariance_matrix()[0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_identity_equals_gain(self):
        msg = GaussianMeanVariance(1.7, 2.3)
        nl = run("nonlinear", "out", q((VOID, None), (MESSAGE, msg)), [None, msg], {"g": "identity"})
        ga = run("gain", "out", q((VOID, None), (MESSAGE, msg)), [None, msg], {"matrix": [[1.0]]})
        assert nl.dist.mean_vector()[0] == pytest.approx(ga.dist.mean_vector()[0], abs=1e-12)
        assert nl.dist.covariance_matrix()[0, 0] == pytest.approx(
            ga.dist.covariance_matrix()[0, 0], abs=1e-12
        )

    def test_softplus_narrow_matches_monte_carlo(self):
        # Oracle: Monte Carlo transport with 1e6 samples, 3 standard errors.
        from scipy.special import expit

        rng = np.random.default_rng(17)
        xs = rng.normal(5.0, 0.1, size=1_000_000)
        ys = np.logaddexp(0, xs)
        msg = GaussianMeanVariance(5.0, 0.01)
        out = run("nonlinear", "out", q((VOID, None), (MESSAGE, msg)), [None, msg], {"g": "softplus"})
        se_mean = ys.std() / 1000.0
        assert out.dist.mean_vector()[0] == pytest.approx(ys.mean(), abs=3 * se_mean + 1e-5)
        assert out.dist.covariance_matrix()[0, 0] == pytest.approx(
            0.01 * expit(5.0) ** 2, rel=1e-10
        )
        assert out.dist.covariance_matrix()[0, 0] == pytest.approx(ys.var(), rel=0.01)

    def test_backward_inverts_affine(self):
        fwd_inbound = GaussianMeanVariance(0.0, 1.0)
        out_msg = GaussianMeanVariance(2.0, 0.5)
        res = run("nonlinear", "in", q((MESSAGE, out_msg), (VOID, None)), [out_msg, None],
                  {"g": "softplus"}, previous=fwd_inbound)
        # slope 0.5, intercept log 2: mean = (2 - log2)/0.5, var = 0.5/0.25
        assert res.dist.mean_vector()[0] == pytest.approx((2.0 - np.log(2.0)) / 0.5, abs=1e-12)
        assert res.dist.covariance_matrix()[0, 0] == pytest.approx(2.0, abs=1e-12)


class TestGainEquality:
    def dense_oracle(self, m, v, b, my, vy):
        w = np.linalg.inv(v) + np.outer(b, b) / vy
        cov = np.linalg.inv(w)
        mean = cov @ (np.linalg.solve(v, m) + b * my / vy)
        return mean, cov

    def test_scalar_reduces_to_equality(self):
        rule = make_gain_equality_rule("GE1", [[1.0]])
        x = GaussianMeanVariance(1.0, 2.0)
        y = GaussianMeanVariance(3.0, 4.0)
        out = rule.apply([y, x, None], {})
        fused = product(x, y)
        assert out.dist.mean_vector()[0] == pytest.approx(fused.mean_vector()[0], abs=1e-12)
        assert out.dist.covariance_matrix()[0, 0] == pytest.approx(
            fused.covariance_matrix()[0, 0], abs=1e-12
        )

    def test_spec_example_d2(self):
        rule = make_gain_equality_rule("GE2", [[1.0, 0.0]])
        x = GaussianMeanVariance([0.0, 0.0], np.eye(2))
        y = GaussianMeanVariance(1.0, 1.0)
        out = rule.apply([y, x, None], {})
        np.testing.assert_allclose(out.dist.mean_vector(), [0.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(out.dist.covariance_matrix(), np.diag([0.5, 1.0]), atol=1e-12)
        assert out.info["max_solve_dim"] == 1

    @pytest.mark.parametrize("d", [1, 2, 10, 50])
    def test_matches_dense_composition(self, d):
        rng = np.random.default_rng(d)
        a = rng.normal(size=(d, d))
        v = a @ a.T + 0.5 * np.eye(d)
        m = rng.normal(size=d)
        b = np.zeros(d)
        b[0] = 1.0
        my, vy = float(rng.normal()), 0.7
        rule = make_gain_equality_rule(f"GE{d}x", [b.tolist()])
        out = rule.apply([GaussianMeanVariance(my, vy), GaussianMeanVariance(m, v), None], {})
        mean_o, cov_o = self.dense_oracle(m, v, b, my, vy)
        np.testing.assert_allclose(out.dist.mean_vector(), mean_o, atol=1e-8)
        np.testing.assert_allclose(out.dist.covariance_matrix(), cov_o, atol=1e-8)
        assert out.info["max_solve_dim"] <= 1


class TestLookup:
    def test_point_mass_precision_prefers_sum_product(self):
        rule = REG.lookup(
            "gaussian_mean_precision", "out",
            [(VOID, None), (MESSAGE, PointMass), (MESSAGE, PointMass)],
        )
        assert rule.flavor == "sum-product"

    def test_gamma_marginal_selects_variational(self):
        rule = REG.lookup(
            "gaussian_mean_precision", "out",
            [(VOID, None), (MESSAGE, PointMass), (MARGINAL, Gamma)],
        )
        assert rule.flavor == "variational"

    def test_probit_backward_is_ep(self):
        rule = REG.lookup("probit", "in", [(MESSAGE, PointMass), (CAVITY, GaussianMeanVariance)])
        assert rule.flavor == "expectation-propagation"

    def test_missing_rule_diagnostic(self):
        with pytest.raises(RuleUnavailable, match="probit"):
            REG.lookup("probit", "out", [(VOID, None), (MESSAGE, GaussianMeanVariance)])

    def test_stable_identifier_format(self):
        rule = REG.lookup("equality", "3", [(MESSAGE, Gamma), (MESSAGE, Gamma), (VOID, None)])
        flavor, kind, role, digest = rule.id.split(":")
        assert (flavor, kind, role) == ("sum-product", "equality", "3")
        assert len(digest) == 8

    def test_rules_are_deterministic(self):
        a = GaussianMeanVariance(0.3, 1.7)
        b = GaussianMeanVariance(-0.2, 0.9)
        r1 = run("equality", "3", q((MESSAGE, a), (MESSAGE, b), (VOID, None)), [a, b, None])
        r2 = run("equality", "3", q((MESSAGE, a), (MESSAGE, b), (VOID, None)), [a, b, None])
        assert np.array_equal(r1.dist.weighted_mean, r2.dist.weighted_mean)
        assert np.array_equal(r1.dist.precision, r2.dist.precision)


class TestCoordinateDescent:
    """A single VMP update never increases the free energy of the enclosing
    two-node conjugate toy once the target marginal is recomputed."""

    def toy_free_energy_precision(self, q_w, y, a0, b0):
        e = average_energy("gaussian_mean_precision", [PointMass(y), PointMass(0.0), q_w])
        e += average_energy("gamma", [q_w, PointMass(a0), PointMass(b0)])
        return e - differential_entropy(q_w)

    def test_precision_update_descends(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            y = float(rng.normal())
            a0, b0 = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0))
            q_w = Gamma(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 4.0)))
            before = self.toy_free_energy_precision(q_w, y, a0, b0)
            msg = run(
                "gaussian_mean_precision", "precision",
                [(MARGINAL, PointMass), (MARGINAL, PointMass), (VOID, None)],
                [PointMass(y), PointMass(0.0), None], {"out_dim": 1},
            )
            q_new = product(Gamma(a0, b0), msg.dist)
            after = self.toy_free_energy_precision(q_new, y, a0, b0)
            assert after <= before + 1e-9

    def toy_free_energy_mean(self, q_m, y, w, m0, v0):
        e = average_energy("gaussian_mean_precision", [PointMass(y), q_m, PointMass(w)])
        e += average_energy("gaussian_mean_variance", [q_m, PointMass(m0), PointMass(v0)])
        return e - differential_entropy(q_m)

    def test_mean_update_descends(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            y, m0 = float(rng.normal()), float(rng.normal())
            v0, w = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0))
            q_m = GaussianMeanVariance(float(rng.normal()), float(rng.uniform(0.2, 2.0)))
            before = self.toy_free_energy_mean(q_m, y, w, m0, v0)
            msg = run(
                "gaussian_mean_precision", "mean",
                [(MARGINAL, PointMass), (VOID, None), (MARGINAL, PointMass)],
                [PointMass(y), None, PointMass(w)],
            )
            q_new = product(GaussianMeanVariance(m0, v0), msg.dist)
            after = self.toy_free_energy_mean(q_new, y, w, m0, v0)
            assert after <= before + 1e-9
