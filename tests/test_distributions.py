import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import digamma

from mpgraph._linalg import spd_inverse, spd_logdet, spd_solve
from mpgraph.distributions import (
    Categorical,
    DegenerateEntropy,
    Dirichlet,
    DistributionError,
    Gamma,
    GaussianCanonical,
    GaussianMeanPrecision,
    GaussianMeanVariance,
    IncompatibleSupport,
    PointMass,
    UnsupportedMoment,
    Wishart,
    average_energy,
    differential_entropy,
    expected_covariance,
    expected_precision,
    from_json,
    mean_and_cov,
    moment,
    product,
    vague,
)
from mpgraph.engine import run_inference
from mpgraph.models import HmgmModel, sample_generative


class TestProduct:
    def test_equal_gaussians_halve_variance(self):
        out = product(GaussianMeanVariance(0.0, 1.0), GaussianMeanVariance(0.0, 1.0))
        assert out.mean_vector() == pytest.approx([0.0])
        assert out.covariance_matrix()[0, 0] == pytest.approx(0.5)

    def test_categorical_renormalizes(self):
        out = product(Categorical([0.5, 0.5]), Categorical([0.8, 0.2]))
        np.testing.assert_allclose(out.probabilities, [0.8, 0.2])

    def test_point_mass_absorbs(self):
        out = product(GaussianMeanVariance(1.0, 1.0), PointMass(3.0))
        assert isinstance(out, PointMass)
        assert float(out.value) == 3.0

    def test_two_gaussian_posterior(self):
        # Conjugate oracle: precision 1/100 + 1, mean = precision-weighted sum.
        post = product(GaussianMeanVariance(0.0, 100.0), GaussianMeanVariance(2.0, 1.0))
        w = 0.01 + 1.0
        assert post.mean_vector()[0] == pytest.approx(2.0 / w, abs=1e-12)
        assert post.covariance_matrix()[0, 0] == pytest.approx(1.0 / w, abs=1e-12)

    def test_gamma_product(self):
        out = product(Gamma(2.0, 3.0), Gamma(1.5, 0.5))
        assert (out.shape, out.rate) == (2.5, 3.5)

    def test_wishart_product_dof_identity(self):
        a = Wishart(np.eye(2), 4.0)
        b = Wishart(2.0 * np.eye(2), 5.0)
        out = product(a, b)
        assert out.dof == pytest.approx(4.0 + 5.0 - 3.0)
        np.testing.assert_allclose(out.scale, np.linalg.inv(np.eye(2) + 0.5 * np.eye(2)))

    def test_dirichlet_product(self):
        out = product(Dirichlet([2.0, 3.0]), Dirichlet([1.0, 4.0]))
        np.testing.assert_allclose(out.concentration, [2.0, 6.0])

    def test_precision_adds_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3))
            wa, wb = a @ a.T + np.eye(3), b @ b.T + np.eye(3)
            ga = GaussianMeanPrecision(rng.normal(size=3), wa)
            gb = GaussianMeanPrecision(rng.normal(size=3), wb)
            out = product(ga, gb)
            np.testing.assert_array_equal(out.precision, 0.5 * ((wa + wb) + (wa + wb).T))
            # mean solves W_out m = xi_a + xi_b
            np.testing.assert_allclose(
                out.precision @ out.mean_vector(),
                wa @ ga.mean + wb @ gb.mean,
                atol=1e-9,
            )

    def test_errors(self):
        with pytest.raises(IncompatibleSupport):
            product(GaussianMeanVariance(0.0, 1.0), Gamma(1.0, 1.0))
        with pytest.raises(IncompatibleSupport):
            product(GaussianMeanVariance([0, 0], np.eye(2)), GaussianMeanVariance(0.0, 1.0))
        with pytest.raises(DistributionError):
            product(Categorical([1.0, 0.0]), Categorical([0.0, 1.0]))
        with pytest.raises(DistributionError):
            product(Categorical([1.0, 0.0]), PointMass([0.0, 1.0]))

    @given(
        m1=st.floats(-5, 5), m2=st.floats(-5, 5),
        v1=st.floats(0.1, 10), v2=st.floats(0.1, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_commutative(self, m1, m2, v1, v2):
        a, b = GaussianMeanVariance(m1, v1), GaussianMeanVariance(m2, v2)
        ab, ba = product(a, b), product(b, a)
        np.testing.assert_allclose(ab.mean_vector(), ba.mean_vector(), atol=1e-10)
        np.testing.assert_allclose(ab.covariance_matrix(), ba.covariance_matrix(), atol=1e-10)

    @given(st.lists(st.tuples(st.floats(-3, 3), st.floats(0.2, 5)), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_associative(self, params):
        gs = [GaussianMeanVariance(m, v) for m, v in params]
        left = product(product(gs[0], gs[1]), gs[2])
        right = product(gs[0], product(gs[1], gs[2]))
        np.testing.assert_allclose(left.mean_vector(), right.mean_vector(), atol=1e-10)
        np.testing.assert_allclose(
            left.covariance_matrix(), right.covariance_matrix(), atol=1e-10
        )


class TestMoments:
    def test_gamma_mean(self):
        assert moment(Gamma(2.0, 4.0), "mean") == pytest.approx(0.5)

    def test_wishart_mean(self):
        np.testing.assert_allclose(moment(Wishart(np.eye(2), 3.0), "mean"), 3.0 * np.eye(2))

    def test_gamma_expected_log_vs_quadrature(self):
        # Oracle: E[log x] under Exp(1) by adaptive quadrature.
        oracle, _ = quad(lambda x: np.log(x) * np.exp(-x), 0, np.inf)
        assert moment(Gamma(1.0, 1.0), "log") == pytest.approx(oracle, abs=1e-9)
        assert moment(Gamma(1.0, 1.0), "log") == pytest.approx(-0.5772156649, abs=1e-9)

    def test_gamma_moments_vs_quadrature(self):
        for a, b in [(0.7, 2.0), (3.0, 0.5), (25.0, 0.36)]:
            g = Gamma(a, b)
            dens = lambda x: np.exp(g.log_density(x))
            mean, _ = quad(lambda x: x * dens(x), 0, np.inf)
            elog, _ = quad(lambda x: np.log(x) * dens(x), 0, np.inf)
            assert moment(g, "mean") == pytest.approx(mean, abs=1e-6)
            assert moment(g, "log") == pytest.approx(elog, abs=1e-6)

    def test_dirichlet_logprobs(self):
        d = Dirichlet([1.0, 1.0, 1.0])
        np.testing.assert_allclose(moment(d, "logprobs"), digamma(1.0) - digamma(3.0))

    def test_categorical_mean_is_p(self):
        np.testing.assert_allclose(moment(Categorical([0.3, 0.7]), "mean"), [0.3, 0.7])

    def test_undefined_moment(self):
        with pytest.raises(UnsupportedMoment):
            moment(Categorical([0.5, 0.5]), "log")


class TestEntropy:
    def test_standard_normal(self):
        assert differential_entropy(GaussianMeanVariance(0.0, 1.0)) == pytest.approx(
            1.4189385332, abs=1e-9
        )

    def test_deterministic_categorical(self):
        assert differential_entropy(Categorical([1.0, 0.0])) == 0.0

    def test_exponential_vs_quadrature(self):
        # Oracle: -integral p log p for Exp(1).
        oracle, _ = quad(lambda x: np.exp(-x) * x, 0, np.inf)  # -log p = x
        assert differential_entropy(Gamma(1.0, 1.0)) == pytest.approx(oracle, abs=1e-9)
        assert differential_entropy(Gamma(1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_gamma_vs_quadrature(self):
        for a, b in [(0.5, 1.5), (4.0, 2.0)]:
            g = Gamma(a, b)
            oracle, _ = quad(lambda x: -np.exp(g.log_density(x)) * g.log_density(x), 0, np.inf)
            assert differential_entropy(g) == pytest.approx(oracle, abs=1e-6)

    def test_gaussian_quadrature(self):
        g = GaussianMeanVariance(1.3, 2.7)
        oracle, _ = quad(
            lambda x: -np.exp(g.log_density([x])) * g.log_density([x]), -np.inf, np.inf
        )
        assert differential_entropy(g) == pytest.approx(oracle, abs=1e-6)

    def test_round_trip_through_precision_form(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3))
        g = GaussianMeanVariance(rng.normal(size=3), a @ a.T + np.eye(3))
        back = g.to_mean_precision().to_mean_variance()
        assert differential_entropy(back) == pytest.approx(differential_entropy(g), abs=1e-10)

    def test_wishart_vs_scipy(self):
        from scipy.stats import wishart as sp_wishart

        w = Wishart([[2.0, 0.3], [0.3, 1.0]], 5.0)
        assert differential_entropy(w) == pytest.approx(
            sp_wishart(df=5, scale=w.scale).entropy(), abs=1e-9
        )

    def test_dirichlet_vs_scipy(self):
        from scipy.stats import dirichlet as sp_dirichlet

        d = Dirichlet([2.0, 3.0, 4.0])
        assert differential_entropy(d) == pytest.approx(
            sp_dirichlet(d.concentration).entropy(), abs=1e-9
        )

    def test_point_mass_degenerate(self):
        with pytest.raises(DegenerateEntropy):
            differential_entropy(PointMass(1.0))

    def test_joint_categorical(self):
        j = Categorical(np.full((2, 2), 0.25))
        assert differential_entropy(j) == pytest.approx(np.log(4.0))


class TestAverageEnergy:
    def test_gaussian_point_masses(self):
        e = average_energy(
            "gaussian_mean_precision", [PointMass(0.0), PointMass(0.0), PointMass(1.0)]
        )
        assert e == pytest.approx(0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_gaussian_with_out_belief(self):
        e = average_energy(
            "gaussian_mean_precision",
            [GaussianMeanVariance(0.0, 1.0), PointMass(0.0), PointMass(1.0)],
        )
        assert e == pytest.approx(0.5 * np.log(2 * np.pi) + 0.5, abs=1e-12)

    def test_categorical_enumeration_oracle(self):
        q = Categorical([0.5, 0.5])
        p = PointMass([0.5, 0.5])
        oracle = -sum(qk * np.log(pk) for qk, pk in zip([0.5, 0.5], [0.5, 0.5]))
        assert average_energy("categorical", [q, p]) == pytest.approx(oracle, abs=1e-12)
        assert average_energy("categorical", [q, p]) == pytest.approx(np.log(2.0), abs=1e-9)

    def test_point_masses_equal_minus_log_f(self):
        # For every supported kind, plugging exact points recovers -log f.
        rng = np.random.default_rng(7)
        x, m = rng.normal(size=2), rng.normal(size=2)
        w = np.array([[2.0, 0.2], [0.2, 1.0]])
        cases = [
            (
                "gaussian_mean_precision",
                [PointMass(x), PointMass(m), PointMass(w)],
                None,
                GaussianMeanPrecision(m, w).log_density(x),
            ),
            (
                "gaussian_mean_variance",
                [PointMass(x), PointMass(m), PointMass(w)],
                None,
                GaussianMeanVariance(m, w).log_density(x),
            ),
            (
                "gamma",
                [PointMass(1.3), PointMass(2.0), PointMass(0.7)],
                None,
                Gamma(2.0, 0.7).log_density(1.3),
            ),
            (
                "wishart",
                [PointMass(w), PointMass(np.eye(2)), PointMass(4.0)],
                None,
                Wishart(np.eye(2), 4.0).log_density(w),
            ),
            (
                "dirichlet",
                [PointMass([0.2, 0.8]), PointMass([2.0, 3.0])],
                None,
                Dirichlet([2.0, 3.0]).log_density([0.2, 0.8]),
            ),
            (
                "categorical",
                [PointMass([0.0, 1.0]), PointMass([0.4, 0.6])],
                None,
                Categorical([0.4, 0.6]).log_density([0.0, 1.0]),
            ),
            (
                "probit",
                [PointMass(1.0), PointMass(0.3)],
                None,
                float(np.log(0.5 * (1 + math.erf(0.3 / np.sqrt(2))))),
            ),
        ]
        for kind, qs, consts, logf in cases:
            assert average_energy(kind, qs, consts) == pytest.approx(-logf, abs=1e-12), kind

    def test_transition_joint(self):
        joint = Categorical(np.outer([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]))
        t = PointMass(np.full((3, 3), 1 / 3))
        assert average_energy("transition", [joint, t]) == pytest.approx(np.log(3.0))

    def test_mixture_enumeration(self):
        # With full responsibility on one component, reduces to that Gaussian.
        qs = [
            PointMass([2.0]),
            Categorical([1.0, 0.0]),
            PointMass([0.0]),
            PointMass([[1.0]]),
            PointMass([5.0]),
            PointMass([[1.0]]),
        ]
        oracle = -GaussianMeanPrecision([0.0], [[1.0]]).log_density([2.0])
        assert average_energy("gaussian_mixture", qs) == pytest.approx(oracle, abs=1e-12)

    def test_gaussian_affine_matches_direct(self):
        # y ~ N(2x + 1, 1) with x ~ N(0.5, 0.2) equals a mean-belief Gaussian energy.
        qx = GaussianMeanVariance(0.5, 0.2)
        direct = average_energy(
            "gaussian_mean_precision",
            [PointMass(3.0), GaussianMeanVariance(2.0, 0.8), PointMass(1.0)],
        )
        composed = average_energy(
            "gaussian_affine",
            [PointMass(3.0), qx, PointMass(1.0)],
            {"gains": [[[2.0]]], "offset": [1.0]},
        )
        assert composed == pytest.approx(direct, abs=1e-12)

    def test_probit_quadrature_vs_scipy_quad(self):
        from scipy.stats import norm

        q = GaussianMeanVariance(0.7, 2.0)
        oracle, _ = quad(
            lambda r: -norm.logcdf(-r) * np.exp(q.log_density([r])), -np.inf, np.inf
        )
        assert average_energy("probit", [PointMass(-1.0), q]) == pytest.approx(oracle, abs=1e-8)


class TestJsonAndVague:
    def test_round_trip(self):
        cases = [
            GaussianMeanVariance([1.0, 2.0], [[2.0, 0.1], [0.1, 1.0]]),
            GaussianMeanPrecision(0.5, 2.0),
            GaussianCanonical([0.0], [[0.0]]),
            Gamma(1.5, 0.5),
            Wishart(np.eye(2), 3.0),
            Dirichlet(np.ones((3, 3))),
            Categorical([0.2, 0.8]),
            PointMass([[1.0, 0.0], [0.0, 1.0]]),
        ]
        for d in cases:
            assert from_json(d.to_json()) == d

    @pytest.mark.parametrize("obj, key", [
        ({"type": "Gamma"}, "'params'"),
        ({"params": {"shape": 1.0, "rate": 1.0}}, "'type'"),
        ({"type": "Gamma", "params": {"alpha": 1.0, "rate": 1.0}}, "'alpha'"),
        ({"type": "Gamma", "params": {"shape": 1.0}}, "'rate'"),
        ({"type": "Gamma", "params": [1.0, 1.0]}, "'params'"),
        ({"type": ["Gamma"], "params": {}}, "['Gamma']"),
        ({"type": "Beta", "params": {}}, "'Beta'"),
        ([1.0, 1.0], "list"),
    ], ids=["no-params", "no-type", "wrong-parameter", "missing-parameter", "params-not-object",
            "unhashable-type", "unknown-type", "not-an-object"])
    def test_malformed_object_names_the_key(self, obj, key):
        with pytest.raises(DistributionError) as err:
            from_json(obj)
        assert key in str(err.value)

    @pytest.mark.parametrize("kind, params, key", [
        ("Gamma", {"shape": math.inf, "rate": 1.0}, "shape"),
        ("Gamma", {"shape": 1.0, "rate": math.nan}, "rate"),
        ("Wishart", {"scale": [[1.0]], "dof": math.nan}, "dof"),
        ("Wishart", {"scale": [[1.0]], "dof": math.inf}, "dof"),
        ("Wishart", {"scale": [[math.inf]], "dof": 2.0}, "scale"),
        ("GaussianMeanVariance", {"mean": [math.nan], "covariance": [[1.0]]}, "mean"),
        ("GaussianMeanPrecision", {"mean": [0.0, -math.inf], "precision": [[1.0, 0.0], [0.0, 1.0]]}, "mean"),
        ("GaussianCanonical", {"weighted_mean": [math.inf], "precision": [[1.0]]}, "weighted_mean"),
        ("PointMass", {"value": math.nan}, "value"),
        ("PointMass", {"value": [[1.0, math.inf]]}, "value"),
    ])
    def test_non_finite_parameter_names_the_key(self, kind, params, key):
        # the constructors accept these (they are on the hot path); the reader must not
        with pytest.raises(DistributionError, match=f"'params' of {kind}: '{key}' must be finite"):
            from_json({"type": kind, "params": params})

    def test_vague_defaults(self):
        g = vague("gaussian", 2)
        assert g.covariance[0, 0] == 1e12
        assert vague("gamma").shape == 1.0
        assert vague("wishart", 2).dof == 2.0
        np.testing.assert_allclose(vague("dirichlet", (3, 3)).concentration, np.ones((3, 3)))
        np.testing.assert_allclose(vague("categorical", 4).probabilities, 0.25)

    def test_gaussian_parameterization_round_trip(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 2))
        g = GaussianMeanVariance(rng.normal(size=2), a @ a.T + 0.5 * np.eye(2))
        back = g.to_canonical().to_mean_precision().to_mean_variance()
        np.testing.assert_allclose(back.mean, g.mean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(back.covariance, g.covariance, rtol=1e-10)

    def test_invariant_violations_raise(self):
        with pytest.raises(DistributionError):
            GaussianMeanVariance([0.0, 0.0], [[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(DistributionError):
            Gamma(-1.0, 1.0)
        with pytest.raises(DistributionError):
            Categorical([0.5, 0.4])
        with pytest.raises(DistributionError):
            Wishart(np.eye(2), 0.5)
        with pytest.raises(DistributionError):
            Dirichlet([1.0, 0.0])

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("matrix", [False, True], ids=["vector", "matrix"])
    def test_nonfinite_categorical_and_dirichlet_parameters_raise(self, value, matrix):
        # both constructed before: NaN passed every comparison, and inf the
        # positivity test; the Categorical sum test now fails on them
        def shaped(v):
            return np.array([[v, 0.25], [0.25, 0.25]]) if matrix else np.array([v, 0.5])

        with pytest.raises(DistributionError, match="Categorical probabilities must be finite"):
            Categorical(shaped(value))
        with pytest.raises(DistributionError, match="Dirichlet concentration entries must be finite"):
            Dirichlet(shaped(value) + 1.0)
        assert Categorical(shaped(0.25 if matrix else 0.5)).probabilities.shape == shaped(0.0).shape
        assert Dirichlet(shaped(2.0)).concentration.shape == shaped(0.0).shape

    def test_categorical_sum_message_for_finite_entries(self):
        with pytest.raises(DistributionError, match="must sum to 1, got 1.8"):
            Categorical([0.8, 1.0])
        with pytest.raises(DistributionError, match="must sum to 1, got inf"):
            Categorical([1.7e308, 1.7e308])  # finite entries whose sum overflows


def _random_spd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T + 0.5 * np.eye(d)


# each Gaussian form with its derived forms and the spd_* value each must equal
DERIVED = {
    "mean_variance": (GaussianMeanVariance, lambda g: {
        "precision_matrix": spd_inverse(g.covariance),
    }),
    "mean_precision": (GaussianMeanPrecision, lambda g: {
        "covariance_matrix": spd_inverse(g.precision),
    }),
    "canonical": (GaussianCanonical, lambda g: {
        "mean_vector": spd_solve(g.precision, g.weighted_mean),
        "covariance_matrix": spd_inverse(g.precision),
    }),
}


# each precision or probability belief with its cached expectations and the
# expression each must equal bit for bit (the uncached bodies)
EXPECTATIONS = {
    "gamma": (lambda rng: Gamma(rng.uniform(0.5, 5.0), rng.uniform(0.1, 3.0)), lambda q: {
        "expected_log": float(digamma(q.shape)) - np.log(q.rate),
        "mean_matrix": np.array([[q.shape / q.rate]]),
        "mean_inverse": spd_inverse(np.array([[q.shape / q.rate]])),
    }),
    **{f"wishart-{d}": (lambda rng, d=d: Wishart(_random_spd(rng, d), d + rng.uniform(0.5, 4.0)), lambda q: {
        "mean_matrix": q.dof * q.scale,
        "mean_inverse": spd_inverse(q.dof * q.scale),
        "expected_logdet": float(np.sum(digamma(0.5 * (q.dof + 1.0 - np.arange(1, q.dim + 1)))))
        + q.dim * np.log(2.0) + spd_logdet(q.scale),
    }) for d in (1, 2, 3)},
    "dirichlet-vector": (lambda rng: Dirichlet(rng.uniform(0.1, 5.0, size=4)), lambda q: {
        "expected_logprobs": digamma(q.concentration) - digamma(np.sum(q.concentration)),
    }),
    "dirichlet-matrix": (lambda rng: Dirichlet(rng.uniform(0.1, 5.0, size=(3, 3))), lambda q: {
        "expected_logprobs": digamma(q.concentration)
        - digamma(np.sum(q.concentration, axis=0, keepdims=True)),
    }),
}


class TestDerivedForms:
    @pytest.mark.parametrize("name", sorted(EXPECTATIONS))
    def test_expectations_cached_read_only_and_bit_equal(self, name):
        make, expected = EXPECTATIONS[name]
        q = make(np.random.default_rng(7))
        for method, want in expected(q).items():
            got = getattr(q, method)()
            assert getattr(q, method)() is got, method
            want = np.asarray(want)
            assert np.shape(got) == want.shape and np.asarray(got).tobytes() == want.tobytes(), method
            if isinstance(got, np.ndarray):
                with pytest.raises(ValueError):
                    got[(0,) * got.ndim] = 0.0
            else:
                assert isinstance(got, float), method  # immutable

    @pytest.mark.parametrize("q, dim", [
        (Gamma(2.0, 3.0), 1), (Wishart(np.array([[2.0, 0.3], [0.3, 1.0]]), 4.0), 2),
        (PointMass(0.5), 1), (PointMass(np.array([[2.0, 0.3], [0.3, 1.0]])), 2),
    ], ids=["gamma", "wishart", "point-scalar", "point-matrix"])
    def test_expected_covariance_inverts_the_expected_precision(self, q, dim):
        got = expected_covariance(q, dim)
        assert got.tobytes() == spd_inverse(expected_precision(q, dim)).tobytes()
        if isinstance(q, (Gamma, Wishart)):
            assert got is q.mean_inverse() is expected_covariance(q, dim)

    def test_one_log_determinant_per_wishart_belief(self, monkeypatch):
        """One hmgm run computes each Wishart belief's E[log|W|] once, however
        many time slices read it."""
        import sys

        import mpgraph.distributions as distributions

        beliefs = []  # kept alive, so that ids are not reused
        counts: dict[int, int] = {}
        plain = distributions.spd_logdet

        def counted(m, *args):
            caller = sys._getframe(1)
            if caller.f_code is Wishart.expected_logdet.__code__:
                q = caller.f_locals["self"]
                beliefs.append(q)
                counts[id(q)] = counts.get(id(q), 0) + 1
            return plain(m, *args)

        monkeypatch.setattr(distributions, "spd_logdet", counted)
        model = HmgmModel(K=3)
        data, _ = sample_generative("hmgm", seed=1, T=30)
        run_inference(*model.build(30), data, model.initial_marginals(30, data), max_iters=20, tol=1e-6)
        assert len(counts) >= 6  # three components' W over several iterations
        assert max(counts.values()) == 1

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("form", sorted(DERIVED))
    def test_cached_read_only_and_bit_equal(self, form, dim):
        cls, expected = DERIVED[form]
        rng = np.random.default_rng(dim)
        g = cls(rng.normal(size=dim), _random_spd(rng, dim))
        for name, want in expected(g).items():
            got = getattr(g, name)()
            assert getattr(g, name)() is got, name
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
            with pytest.raises(ValueError):
                got[0] = 0.0

    @pytest.mark.parametrize("value", [0.5, -0.0, [0.25, -1.5], [3.0]], ids=["scalar", "minus-zero", "vector", "one"])
    def test_point_mass_moments_cached_read_only_and_bit_equal(self, value):
        """A datum's moments, read by every rule and energy term of its time
        slice: the value as a vector and a zero covariance, as built on every
        read before."""
        q = PointMass(value)
        m, v = mean_and_cov(q)
        want = np.asarray(value, dtype=float).reshape(-1)
        assert m.tobytes() == want.tobytes() and m.shape == want.shape
        assert v.tobytes() == np.zeros((want.shape[0],) * 2).tobytes() and v.shape == (want.shape[0],) * 2
        assert mean_and_cov(q)[0] is m and mean_and_cov(q)[1] is v
        for got in (m, v):
            with pytest.raises(ValueError):
                got[(0,) * got.ndim] = 1.0
        with pytest.raises(ValueError, match="expected a vector"):
            mean_and_cov(PointMass(np.eye(2)))

    @pytest.mark.parametrize(
        "make",
        [
            GaussianMeanVariance,
            GaussianMeanPrecision,
            GaussianCanonical,
            lambda v, m: Wishart(m, 3.0),
            lambda v, m: Categorical(v),
        ],
        ids=["mean_variance", "mean_precision", "canonical", "wishart", "categorical"],
    )
    def test_caller_arrays_are_copied(self, make):
        vec, mat = np.array([0.25, 0.75]), np.array([[2.0, 0.3], [0.3, 1.0]])
        d = make(vec, mat)
        before = d.to_json()
        vec[:] = [0.5, 0.5]
        mat[:] = [[5.0, 1.0], [1.0, 4.0]]
        assert d.to_json() == before
