import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgraph.dsl import ModelParseError, parse_model
from mpgraph.graph import (
    FactorGraph,
    GraphError,
    infer_supports,
    structurally_isomorphic,
)
from mpgraph.models import Co2Model, HmgmModel, LgssmModel, ProbitSsmModel, RandomWalkModel
from test_cli import RW_MODEL


def build_four_factor_chain():
    """The introductory model f_a(x1) f_b(x1,x2) f_c(x2,x3,x4) f_d(x4,x5),
    realized with Gaussian/equality-free plumbing: a chain plus a branch."""
    g = FactorGraph()
    g.add_node("gaussian_mean_variance", {"out": "x1", "mean": 0.0, "variance": 1.0})
    g.add_node("gaussian_mean_variance", {"out": "x2", "mean": "x1", "variance": 1.0})
    # f_c relates x2, x3, x4 (addition keeps it a single 3-interface factor)
    g.add_node("addition", {"out": "x3", "in1": "x2", "in2": "x4"})
    g.add_node("gaussian_mean_variance", {"out": "x5", "mean": "x4", "variance": 1.0})
    return g


class TestBuilder:
    def test_single_prior_statement(self):
        g = parse_model("x ~ GaussianMeanVariance(0.0, 1.0)\n")
        kinds = sorted(n.kind for n in g.nodes)
        assert kinds == ["clamp", "clamp", "gaussian_mean_variance"]
        half = [e for e in g.edges if e.head is None or e.tail is None]
        assert [e.variable for e in half] == ["x"]

    def test_four_factor_example_shape(self):
        g = build_four_factor_chain()
        factor_nodes = [n for n in g.nodes if n.kind != "clamp"]
        assert len(factor_nodes) == 4
        named = [e for e in g.edges if not e.variable.startswith("_")]
        assert len(named) == 5
        half = [e.variable for e in named if e.head is None or e.tail is None]
        assert sorted(half) == ["x3", "x5"]
        assert g.validate() == []

    def test_clamp_adds_node(self):
        g = build_four_factor_chain()
        before = len(g.nodes)
        g.clamp("x5", 1.7)
        assert len(g.nodes) == before + 1
        assert g.nodes[-1].kind == "clamp"
        assert g.validate() == []

    def test_auto_equality_insertion(self):
        g = FactorGraph()
        g.add_node("gamma", {"out": "w", "shape": 1.0, "rate": 1.0})
        for t in range(3):
            g.add_node("gaussian_mean_precision", {"out": f"x[{t}]", "mean": 0.0, "precision": "w"})
        eq_nodes = [n for n in g.nodes if n.kind == "equality"]
        # used by 3 factors -> 2 equality nodes, w split into segments
        assert len(eq_nodes) == 2
        assert len(g.variable_edges("w")) == 5
        assert g.validate() == []

    def test_equality_count_matches_usage(self):
        for n_uses in (1, 2, 4, 7):
            g = FactorGraph()
            g.add_node("gamma", {"out": "w", "shape": 1.0, "rate": 1.0})
            for t in range(n_uses):
                g.add_node(
                    "gaussian_mean_precision", {"out": f"x[{t}]", "mean": 0.0, "precision": "w"}
                )
            eq_nodes = [n for n in g.nodes if n.kind == "equality"]
            assert len(eq_nodes) == max(0, n_uses - 1)

    def test_double_production_rejected(self):
        g = FactorGraph()
        g.add_node("gamma", {"out": "w", "shape": 1.0, "rate": 1.0})
        with pytest.raises(GraphError):
            g.add_node("gamma", {"out": "w", "shape": 2.0, "rate": 1.0})


class TestValidate:
    def test_unconnected_interface(self):
        g = FactorGraph()
        node = g.add_node("gaussian_mean_variance", {"out": "x", "mean": 0.0, "variance": 1.0})
        node.interfaces[1] = None
        diags = g.validate()
        assert any("interface 'mean' unconnected" in d for d in diags)

    def test_triple_reference_diagnostic(self):
        g = FactorGraph()
        g.add_node("gaussian_mean_variance", {"out": "x", "mean": 0.0, "variance": 1.0})
        g.add_node("addition", {"out": "s", "in1": "x", "in2": "x"})
        extra = g.add_node("gain", {"out": "z", "in": "x"}, {"matrix": np.eye(1)})
        # Corrupt: point the gain input at the already-full first x segment.
        first = g.variable_edges("x")[0]
        extra.interfaces[1] = first.id
        diags = g.validate()
        assert any("referenced by 3 interfaces" in d for d in diags)

    def test_placeholder_contiguity(self):
        g = FactorGraph()
        g.add_node("gaussian_mean_variance", {"out": "y", "mean": 0.0, "variance": 1.0})
        g.observe("y", "y", 2, ())
        assert any("contiguous" in d for d in g.validate())


def gain_equality_subgraph():
    sub = FactorGraph()
    sub.add_variable("x")
    sub.add_variable("z")
    sub.add_node("equality", {"1": "x", "2": "z", "3": "w"})
    sub.add_node("gain", {"out": "y", "in": "w"}, {"matrix": np.array([[1.0, 0.0]])})
    return sub


def nested_composite_graph(instances: int) -> FactorGraph:
    """``instances`` uses of a composite that wraps another composite, all on
    one shared state, so the flattened graph branches it through equalities."""
    g = FactorGraph()
    g.define_composite("GainEquality", gain_equality_subgraph(), [("y", "y"), ("x", "x"), ("z", "z")])
    outer = FactorGraph()
    outer.composites = dict(g.composites)
    outer.add_variable("a")
    outer.add_variable("b")
    outer.add_node("GainEquality", {"y": "c", "x": "a", "z": "b"})
    g.define_composite("Wrapped", outer, [("c", "c"), ("a", "a"), ("b", "b")])
    g.add_node("gaussian_mean_variance", {"out": "xs", "mean": [0.0, 0.0], "variance": np.eye(2).tolist()})
    for i in range(instances):
        g.add_node("Wrapped", {"c": f"obs{i}", "a": "xs", "b": f"z{i}"})
    return g


class TestComposite:
    def test_define_and_flatten(self):
        g = FactorGraph()
        sub = gain_equality_subgraph()
        g.define_composite("GainEquality", sub, [("y", "y"), ("x", "x"), ("z", "z")])
        g.add_node("gaussian_mean_variance", {"out": "xs", "mean": [0.0, 0.0], "variance": np.eye(2).tolist()})
        g.add_node("GainEquality", {"y": "obs", "x": "xs", "z": "znext"})
        flat = g.flatten()
        kinds = sorted(n.kind for n in flat.nodes)
        assert "GainEquality" not in kinds
        assert kinds.count("equality") == 1
        assert kinds.count("gain") == 1
        assert flat.validate() == []

    def test_nested_flatten_preserves_multiset(self):
        flat = nested_composite_graph(1).flatten()
        kinds = [n.kind for n in flat.nodes if n.kind not in ("clamp",)]
        assert sorted(kinds) == ["equality", "gain", "gaussian_mean_variance"]

    def test_unmapped_boundary_rejected(self):
        g = FactorGraph()
        sub = gain_equality_subgraph()
        with pytest.raises(GraphError):
            g.define_composite("Bad", sub, [("y", "y"), ("x", "x")])


class TestDsl:
    HMGM = """
let K3 = [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]
A ~ Dirichlet(K3)
m1 ~ GaussianMeanVariance([0.0, 0.0], [[1e12, 0.0], [0.0, 1e12]])
W1 ~ Wishart([[1e12, 0.0], [0.0, 1e12]], 2.0)
m2 ~ GaussianMeanVariance([0.0, 0.0], [[1e12, 0.0], [0.0, 1e12]])
W2 ~ Wishart([[1e12, 0.0], [0.0, 1e12]], 2.0)
m3 ~ GaussianMeanVariance([0.0, 0.0], [[1e12, 0.0], [0.0, 1e12]])
W3 ~ Wishart([[1e12, 0.0], [0.0, 1e12]], 2.0)
x[0] ~ Categorical([0.333333333333333, 0.333333333333333, 0.333333333333334])
for t in 1:T {
    x[t] ~ Transition(x[t-1], A)
    y[t] ~ GaussianMixture(x[t], m1, W1, m2, W2, m3, W3)
    observe y[t] :: (2,)
}
"""

    def test_single_prior(self):
        g = parse_model("x ~ GaussianMeanVariance(0.0, 1.0)")
        assert len([n for n in g.nodes if n.kind == "clamp"]) == 2
        assert g.validate() == []

    def test_hmgm_structure(self):
        g = parse_model(self.HMGM, {"T": 50})
        kinds = [n.kind for n in g.nodes]
        assert kinds.count("transition") == 50
        assert kinds.count("gaussian_mixture") == 50
        # A used by 50 transitions -> 49 equality nodes; each of m_k, W_k used
        # by 50 mixtures -> 49 each; x[t] (t=0..49) reused by the next section
        # -> one equality per inner state.
        eq = kinds.count("equality")
        assert eq == 49 * 7 + 49
        assert len(g.placeholders) == 50
        assert g.validate() == []

    def test_supports(self):
        g = parse_model(self.HMGM, {"T": 3})
        sup = infer_supports(g)
        assert sup["x[1]"].family == "categorical" and sup["x[1]"].shape == (3,)
        assert sup["A"].family == "dirichlet" and sup["A"].shape == (3, 3)
        assert sup["m2"].family == "gaussian" and sup["m2"].shape == (2,)
        assert sup["W3"].family == "wishart"

    def test_round_trip_isomorphic(self):
        g = parse_model(self.HMGM, {"T": 5})
        back = FactorGraph.from_json(g.to_json())
        assert structurally_isomorphic(g, back)
        assert structurally_isomorphic(g, parse_model(self.HMGM, {"T": 5}))

    def test_syntax_error_position(self):
        with pytest.raises(ModelParseError) as err:
            parse_model("x ~ ~")
        assert "line 1" in str(err.value)

    def test_unknown_kind(self):
        with pytest.raises(ModelParseError, match="unknown node kind"):
            parse_model("x ~ Mystery(1.0)")

    def test_undeclared_variable(self):
        with pytest.raises(ModelParseError, match="undeclared"):
            parse_model("x ~ GaussianMeanVariance(m, 1.0)")

    def test_dimension_mismatch(self):
        bad = "x ~ GaussianMeanVariance([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])"
        with pytest.raises((ModelParseError, ValueError)):
            parse_model(bad)

    def test_loop_constant_from_cli(self):
        g = parse_model("x[0] ~ GaussianMeanVariance(0.0, 1.0)\nfor t in 1:T {\n  x[t] ~ GaussianMeanPrecision(x[t-1], 1.0)\n}\n", {"T": 4})
        assert len([n for n in g.nodes if n.kind == "gaussian_mean_precision"]) == 4


class TestCompositeBehavior:
    def test_wrapper_identity_messages(self):
        """A composite containing a single Gaussian node behaves exactly like
        the plain node once flattened for scheduling."""
        import numpy as np

        from mpgraph.engine import DirectExecutor, init_marginals
        from mpgraph.scheduler import RecognitionFactorization, schedule_vmp

        def build(wrapped: bool):
            g = FactorGraph()
            if wrapped:
                sub = FactorGraph()
                sub.add_variable("ov")
                sub.add_variable("mv")
                sub.add_node("gaussian_mean_precision",
                             {"out": "ov", "mean": "mv", "precision": 2.0})
                g.define_composite("WrappedGaussian", sub, [("out", "ov"), ("mean", "mv")])
            g.add_node("gaussian_mean_variance", {"out": "x", "mean": 0.3, "variance": 1.5})
            kind = "WrappedGaussian" if wrapped else "gaussian_mean_precision"
            conn = {"out": "y", "mean": "x"}
            if not wrapped:
                conn["precision"] = 2.0
            g.add_node(kind, conn)
            g.observe("y", "y", 1, ())
            return g

        results = []
        for wrapped in (False, True):
            g = build(wrapped)
            rf = RecognitionFactorization([("X", ["x"])])
            schedules = schedule_vmp(g, rf)
            marg = init_marginals(g, rf)
            DirectExecutor(schedules).run_iteration({"y": np.array([0.9])}, marg)
            results.append(marg["x"])
        a, b = results
        assert abs(a.mean_vector()[0] - b.mean_vector()[0]) < 1e-12
        assert abs(a.covariance_matrix()[0, 0] - b.covariance_matrix()[0, 0]) < 1e-12


class TestValidateTargets:
    def test_untargeted_half_edge_flagged(self):
        g = parse_model("x ~ GaussianMeanVariance(0.0, 1.0)")
        assert g.validate() == []
        assert g.validate(targets=["x"]) == []
        diags = g.validate(targets=[])
        assert any("untargeted half-edge" in d for d in diags)


@st.composite
def random_graphs(draw):
    """Gaussian nodes whose means and variances reuse earlier variables at
    random, so some variables get many segments; clamps sprinkled in."""
    g = FactorGraph()
    g.add_node("gamma", {"out": "v0", "shape": 1.0, "rate": 1.0})
    names = ["v0"]
    for i in range(1, draw(st.integers(1, 12))):
        mean = draw(st.one_of(st.sampled_from(names), st.just(0.0)))
        variance = draw(st.one_of(st.sampled_from(names), st.just(1.0)))
        g.add_node("gaussian_mean_variance", {"out": f"v{i}", "mean": mean, "variance": variance})
        names.append(f"v{i}")
        if draw(st.booleans()):
            g.clamp(draw(st.sampled_from(names)), 0.5)
    return g


def built_graph(how: str, size: int, data) -> FactorGraph:
    if how == "dsl":
        return parse_model(data.draw(st.sampled_from([RW_MODEL, TestDsl.HMGM])), {"T": size})
    if how == "models":
        model = data.draw(st.sampled_from([LgssmModel(), LgssmModel(nonlinear=True), ProbitSsmModel(),
                                           RandomWalkModel(), HmgmModel(), Co2Model()]))
        return model.build(size)[0]
    if how == "flatten":
        return nested_composite_graph(size).flatten()
    return data.draw(random_graphs())


class TestEdgeIndex:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["dsl", "models", "flatten", "random"]), st.integers(1, 6), st.booleans(), st.data())
    def test_variable_edges_equal_full_scan(self, how, size, via_json, data):
        g = built_graph(how, size, data)
        if via_json:
            g = FactorGraph.from_json(g.to_json())
            # the index stays right as a loaded graph grows
            for var in data.draw(st.lists(st.sampled_from([e.variable for e in g.edges]), max_size=3)):
                g.clamp(var, 1.0)
        variables = list(dict.fromkeys(e.variable for e in g.edges))
        assert g.variables() == variables
        for var in variables:
            assert g.variable_edges(var) == [e for e in g.edges if e.variable == var]
        assert g.variable_edges("not a variable") == []
