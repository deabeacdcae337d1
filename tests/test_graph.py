import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgraph._linalg import as_matrix
from mpgraph.dsl import ModelParseError, parse_model
from mpgraph.graph import (
    FactorGraph,
    GraphError,
    Node,
    Support,
    infer_supports,
)
from mpgraph.models import Co2Model, HmgmModel, LgssmModel, ProbitSsmModel, RandomWalkModel
from test_cli import RW_MODEL
from mpgraph.scheduler import default_factorization


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

    @pytest.mark.parametrize("links", [[("x", "x")], [("x", "y"), ("y", "x")]], ids=["self-loop", "two-cycle"])
    def test_default_factorization_of_a_cyclic_chain_ends(self, links):
        # the chain walk used to follow such a cycle forever
        g = FactorGraph()
        for out, mean in links:
            g.add_node("gaussian_mean_precision", {"out": out, "mean": mean, "precision": 1.0})
        g.add_node("gaussian_mean_precision", {"out": "y0", "mean": "x", "precision": 1.0})
        g.observe("y0", "y", 1, ())
        rf = default_factorization(g)
        assert sorted(v for _, fvars in rf.factors for v in fvars) == sorted({v for link in links for v in link})


class TestValidate:
    def test_unconnected_interface(self):
        g = FactorGraph()
        node = g.add_node("gaussian_mean_variance", {"out": "x", "mean": 0.0, "variance": 1.0})
        node.interfaces = (node.interfaces[0], None, node.interfaces[2])
        diags = g.validate()
        assert any("interface 'mean' unconnected" in d for d in diags)

    def test_triple_reference_diagnostic(self):
        g = FactorGraph()
        g.add_node("gaussian_mean_variance", {"out": "x", "mean": 0.0, "variance": 1.0})
        g.add_node("addition", {"out": "s", "in1": "x", "in2": "x"})
        extra = g.add_node("gain", {"out": "z", "in": "x"}, {"matrix": np.eye(1)})
        # Corrupt: point the gain input at the already-full first x segment.
        first = g.variable_edges("x")[0]
        extra.interfaces = (extra.interfaces[0], first.id)
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

    @pytest.mark.parametrize("text, message", [
        ("x[0] ~ GaussianMeanVariance(0.0, 1.0)\nfor t in 1:2 {\n  x[t] ~ GaussianMeanPrecision(x[t], 1.0)\n}",
         "line 3: variable 'x[1]' is an input of the node that produces it"),
        ("x ~ GaussianMeanVariance([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])\ny ~ Nonlinear(x, tanh)",
         "node 3: nonlinear input dims (2,), expected a scalar"),
        ("x ~ GaussianMeanVariance([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])\ny ~ Probit(x)",
         "node 3: probit input dims (2,), expected a scalar"),
    ], ids=["self-loop", "vector-nonlinear", "vector-probit"])
    def test_model_errors_found_by_the_exit_code_fuzz(self, text, message):
        with pytest.raises(ModelParseError) as err:
            parse_model(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("observe", ["observe y[0] :: ()", "for t in 1:2 {\n  observe y[t-1] :: ()\n}"],
                             ids=["literal", "loop"])
    def test_an_observed_index_below_1_is_a_parse_error(self, observe):
        text = "x ~ GaussianMeanVariance(0.0, 1.0)\ny[0] ~ GaussianMeanPrecision(x, 1.0)\n" \
               "y[1] ~ GaussianMeanPrecision(x, 1.0)\n" + observe
        with pytest.raises(ModelParseError) as err:
            parse_model(text)
        line = 4 if observe.startswith("observe") else 5
        assert str(err.value) == f"line {line}: observed index y[0] is below 1: data series are 1-based"

    LOOP = """
let A = [[0.5]]
let c = 2.0
x[0] ~ GaussianMeanVariance(0.0, 100.0)
w ~ Gamma(1.0, 1.0)
for t in 1:T {
  m[t] ~ Gain(x[t-1], A)
  x[t] ~ GaussianMeanPrecision(m[t], w)
  for s in t:t {
    y[s] ~ GaussianMeanPrecision(x[s], c)
    observe y[s] :: ()
  }
  q[t] ~ GaussianMeanVariance([0.5], [[1.0]])
}
"""

    @staticmethod
    def unrolled(T: int) -> str:
        lines = ["let A = [[0.5]]", "let c = 2.0", "x[0] ~ GaussianMeanVariance(0.0, 100.0)", "w ~ Gamma(1.0, 1.0)"]
        for t in range(1, T + 1):
            lines += [f"m[{t}] ~ Gain(x[{t - 1}], A)", f"x[{t}] ~ GaussianMeanPrecision(m[{t}], w)",
                      f"y[{t}] ~ GaussianMeanPrecision(x[{t}], c)", f"observe y[{t}] :: ()",
                      f"q[{t}] ~ GaussianMeanVariance([0.5], [[1.0]])"]
        return "\n".join(lines)

    @staticmethod
    def structure(g: FactorGraph):
        def value(v):
            return ("array", v.shape, v.tolist()) if isinstance(v, np.ndarray) else v

        return ([(n.id, n.kind, tuple(n.interfaces), {k: value(v) for k, v in n.constants.items()})
                 for n in g.nodes],
                [(e.id, e.variable, e.tail, e.head) for e in g.edges],
                [(p.name, p.index, p.dims) for p in g.placeholders],
                g.variables())

    def test_a_loop_builds_the_graph_of_its_unrolled_text(self):
        loop, flat = parse_model(self.LOOP, {"T": 3}), parse_model(self.unrolled(3))
        assert self.structure(loop) == self.structure(flat)
        # a literal is a new array at each index, as written out; a let is one value
        values = [n.constants["value"] for n in loop.nodes if n.kind == "clamp" and "value" in n.constants]
        assert len({id(v) for v in values}) == len(values)
        matrices = [n.constants["matrix"] for n in loop.nodes if n.kind == "gain"]
        assert len(matrices) == 3 and all(m is matrices[0] for m in matrices)

    def test_a_loop_body_is_parsed_once(self, monkeypatch):
        from mpgraph import dsl

        calls = [0]
        statement = dsl._Parser.statement

        def counted(self, env):
            calls[0] += 1
            return statement(self, env)

        monkeypatch.setattr(dsl._Parser, "statement", counted)
        counts = []
        for T in (3, 30):
            calls[0] = 0
            parse_model(self.LOOP, {"T": T})
            counts.append(calls[0])
        # the top-level statements and the loop, and each body statement once
        assert counts[0] == counts[1] == 4 + 1 + 3 + 3

    @pytest.mark.parametrize("text, message", [
        ("x[1] ~ GaussianMeanVariance(0.0, 1.0)\nfor t in 1:2 {\n  y[t] ~ GaussianMeanPrecision(x[t], 1.0)\n}\n",
         "line 3: undeclared variable 'x[2]'"),
        ("z[1] ~ GaussianMeanVariance(0.0, 1.0)\nfor t in 1:2 {\n  observe z[t] :: ()\n}\n",
         "line 4, token 1: undeclared variable 'z[2]'"),
        ("for t in 1:2 {\n  for s in 2:t {\n    v[q] ~ Gamma(1.0, 1.0)\n  }\n}\n",
         "line 3, token 3: unknown loop index 'q'"),
        ("for t in 1:2 {\n  for s in 2:t {\n    v[s] ~ Gamma(-1.0, 1.0)\n  }\n}\n",
         "line 3: Gamma: Gamma parameters must be positive, got a=-1.0, b=1.0"),
        ("let c = 1.0\nfor t in 1:2 {\n  v[t] ~ Gamma(c, 1.0)\n  let c = -1.0\n}\n",
         "line 3: Gamma: Gamma parameters must be positive, got a=-1.0, b=1.0"),
        ("x[2] ~ GaussianMeanVariance(0.0, 1.0)\nfor t in 1:2 {\n  x[t] ~ GaussianMeanVariance(x[2], 1.0)\n}\n",
         "line 3: variable 'x[2]' is an input of the node that produces it"),
    ], ids=["undeclared", "undeclared-observed", "unknown-index", "rejected-constant", "let-in-body", "self-input"])
    def test_an_error_at_a_second_index_names_its_line(self, text, message):
        # each fails only at t = 2, with the text a parse at that index gives
        with pytest.raises(ModelParseError) as err:
            parse_model(text)
        assert str(err.value) == message

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
    if how == "any_order":
        return data.draw(any_order_graphs())
    return data.draw(random_graphs())


class TestEdgeIndex:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["dsl", "models", "flatten", "random", "any_order"]), st.integers(1, 6), st.data())
    def test_variable_edges_equal_full_scan(self, how, size, data):
        g = built_graph(how, size, data)
        # the index stays right as a built graph grows
        for var in data.draw(st.lists(st.sampled_from([e.variable for e in g.edges]), max_size=3)):
            g.clamp(var, 1.0)
        variables = list(dict.fromkeys(e.variable for e in g.edges))
        assert g.variables() == variables
        for var in variables:
            assert g.variable_edges(var) == [e for e in g.edges if e.variable == var]
        assert g.variable_edges("not a variable") == []


def recursive_infer_supports(graph: FactorGraph) -> dict[str, Support]:
    """``infer_supports`` as a recursion over producers, which copies the
    resolution stack per level: the reference the stack-driven version must
    equal, result and insertion order alike."""
    supports: dict[str, Support] = {}
    producer: dict[str, Node] = {}
    for edge in graph.edges:
        if edge.tail is not None and edge.tail[1] == 0:
            node = graph.node_at(edge.tail)
            if node.kind != "equality":
                producer[edge.variable] = node
    for node in graph.nodes:
        if node.kind == "clamp":
            edge = graph.edges[node.interfaces[0]]
            if "value" in node.constants:
                shape = np.asarray(node.constants["value"], dtype=float).shape
                supports.setdefault(edge.variable, Support("point", shape))
            else:
                dims = node.constants.get("dims", ())
                supports.setdefault(edge.variable, Support("gaussian", dims or ()))

    def resolve(var: str, stack: tuple = ()) -> Support | None:
        if var in supports:
            return supports[var]
        if var in stack:
            return None
        node = producer.get(var)
        if node is None:
            return None
        stack = stack + (var,)
        roles = node.roles(graph)

        def input_support(role: str) -> Support | None:
            idx = roles.index(role)
            edge_id = node.interfaces[idx]
            if edge_id is None:
                return None
            return resolve(graph.edges[edge_id].variable, stack)

        result: Support | None = None
        if node.kind in ("gaussian_mean_variance", "gaussian_mean_precision"):
            mean = input_support(roles[1])
            result = Support("gaussian", mean.shape if mean else ())
        elif node.kind == "gamma":
            result = Support("gamma", ())
        elif node.kind == "wishart":
            scale = input_support("scale")
            result = Support("wishart", scale.shape if scale else (1, 1))
        elif node.kind == "dirichlet":
            conc = input_support("concentration")
            result = Support("dirichlet", conc.shape if conc else ())
        elif node.kind in ("categorical", "transition"):
            if node.kind == "categorical":
                p = input_support("p")
                k = p.shape[0] if p and p.shape else 2
            else:
                mat = input_support("matrix")
                prev = input_support("in")
                k = mat.shape[0] if mat and mat.shape else (prev.shape[0] if prev else 2)
            result = Support("categorical", (k,))
        elif node.kind == "gaussian_mixture":
            m1 = input_support("mean_1")
            result = Support("gaussian", m1.shape if m1 else ())
        elif node.kind == "gain":
            a = as_matrix(node.constants["matrix"])
            result = Support("gaussian", (a.shape[0],) if a.shape[0] > 1 else ())
        elif node.kind == "addition":
            s = input_support("in1") or input_support("in2")
            result = Support("gaussian", s.shape if s else ())
        elif node.kind == "nonlinear":
            result = Support("gaussian", ())
        elif node.kind == "probit":
            result = Support("binary", ())
        if result is not None:
            supports[var] = result
        return result

    for var in graph.variables():
        resolve(var)
    # Precision/parameter inputs with no producer default by consumer role.
    for node in graph.nodes:
        roles = node.roles(graph)
        for idx, edge_id in enumerate(node.interfaces):
            if edge_id is None:
                continue
            var = graph.edges[edge_id].variable
            if var in supports:
                continue
            role = roles[idx]
            if role in ("precision", "rate", "shape", "dof") or role.startswith("precision_"):
                supports[var] = Support("gamma", ())
    return supports


CONSTANTS = [0.5, [0.5, 1.0], [0.2, 0.3, 0.5], [[1.0, 0.0], [0.0, 1.0]], [[0.9, 0.1], [0.1, 0.9], [0.0, 0.0]]]
PRODUCER_KINDS = ["gaussian_mean_variance", "gaussian_mean_precision", "gamma", "wishart", "dirichlet",
                  "categorical", "transition", "gaussian_mixture", "addition", "gain", "nonlinear", "probit"]


@st.composite
def any_order_graphs(draw):
    """One producer per variable, of any primitive kind, reading other
    variables (earlier, later or itself, so producers form cycles) or
    constants; the nodes are added in random order, so variables are often
    read before their producer exists. Some readers are equality nodes and
    some variables are clamped as well."""
    g = FactorGraph()
    pool = [f"v{i}" for i in range(draw(st.integers(2, 10)))]
    endpoint = st.sampled_from(pool * 3 + CONSTANTS)  # mostly variables
    specs = []
    for out in pool:
        kind = draw(st.sampled_from(PRODUCER_KINDS))
        constants = {}
        if kind == "gain":
            constants["matrix"] = np.asarray(draw(st.sampled_from(CONSTANTS[3:] + [[[2.0]]])))
        elif kind == "nonlinear":
            constants["g"] = "tanh"
        if kind == "gaussian_mixture":
            roles = Node(0, kind, 2 + 2 * draw(st.integers(2, 3))).roles(g)
        else:
            roles = list(g.kind_of(Node(0, kind, 1)).roles)
        specs.append((kind, {role: out if i == 0 else draw(endpoint) for i, role in enumerate(roles)},
                      constants))
    for _ in range(draw(st.integers(0, 2))):
        specs.append(("equality", {role: draw(st.sampled_from(pool)) for role in ("1", "2", "3")}, {}))
    for kind, connections, constants in draw(st.permutations(specs)):
        g.add_node(kind, connections, constants)
    for var in draw(st.lists(st.sampled_from(pool), max_size=2)):
        g.clamp(var, draw(st.sampled_from(CONSTANTS)))
    return g


def descending_chain(n: int) -> FactorGraph:
    """x[n] <- ... <- x[0], each state added before the one it reads."""
    g = FactorGraph()
    for t in range(n, 0, -1):
        g.add_node("gaussian_mean_precision", {"out": f"x[{t}]", "mean": f"x[{t - 1}]", "precision": 1.0})
    g.add_node("gaussian_mean_variance", {"out": "x[0]", "mean": 0.0, "variance": 1.0})
    return g


def outcome(fn, g):
    try:
        return list(fn(g).items())
    except Exception as exc:  # both versions must fail alike
        return (type(exc), str(exc))


class TestSupportInference:
    @settings(max_examples=400, deadline=None)
    @given(any_order_graphs())
    def test_equals_the_recursive_reference(self, g):
        assert outcome(infer_supports, g) == outcome(recursive_infer_supports, g)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["dsl", "models", "flatten", "descending"]), st.integers(1, 6), st.data())
    def test_equals_the_recursive_reference_on_built_models(self, how, size, data):
        g = descending_chain(size * 20) if how == "descending" else built_graph(how, size, data)
        assert outcome(infer_supports, g) == outcome(recursive_infer_supports, g)

    def test_a_reader_at_a_tail_is_not_a_producer(self):
        # the second reader of an unproduced precision takes the edge's free tail
        def precision_support(means):
            g = FactorGraph()
            for i, mean in enumerate(means):
                g.add_node("gaussian_mean_precision", {"out": f"x{i}", "mean": mean, "precision": "w"})
            return infer_supports(g)["w"]

        assert precision_support([[0.0, 0.0], [1.0, 0.0]]) == precision_support([[0.0, 0.0]])
        assert precision_support([[0.0, 0.0]]) == Support("gamma", ())


def random_walk_nodes(T: int) -> list:
    """The README random walk as (kind, connections) node specifications."""
    nodes = [("gaussian_mean_variance", {"out": "x[0]", "mean": 0.0, "variance": 100.0}),
             ("gaussian_mean_variance", {"out": "d", "mean": 0.0, "variance": 100.0}),
             ("gamma", {"out": "w", "shape": 1.0, "rate": 1.0}),
             ("gamma", {"out": "u", "shape": 1.0, "rate": 1.0})]
    for t in range(1, T + 1):
        nodes += [("addition", {"out": f"m[{t}]", "in1": f"x[{t - 1}]", "in2": "d"}),
                  ("gaussian_mean_precision", {"out": f"x[{t}]", "mean": f"m[{t}]", "precision": "w"}),
                  ("gaussian_mean_precision", {"out": f"y[{t}]", "mean": f"x[{t}]", "precision": "u"})]
    return nodes


class TestBuildOrder:
    """Nodes may be added in any order, also after several readers of their
    output: inference on the result equals inference on the in-order build."""

    @staticmethod
    def infer(nodes):
        from mpgraph.engine import run_inference
        from mpgraph.scheduler import RecognitionFactorization, default_factorization

        g = FactorGraph()
        for kind, connections in nodes:
            g.add_node(kind, connections)
        for t in range(1, 4):
            g.observe(f"y[{t}]", "y", t, ())
        assert g.validate() == []
        chain = [f"x[{t}]" for t in range(4)]
        assert default_factorization(g).factors[0] == ("X", chain)
        # the same factor order for every build, so the same update sequence
        rf = RecognitionFactorization([("X", chain), ("D", ["d"]), ("W", ["w"]), ("U", ["u"])])
        return run_inference(g, rf, {"y": np.array([0.3, 0.8, 1.9])}, max_iters=15, tol=0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.permutations(random_walk_nodes(3)))
    def test_any_order_infers_like_the_in_order_build(self, nodes):
        got, want = self.infer(nodes), self.infer(random_walk_nodes(3))
        assert got.free_energy_trace == pytest.approx(want.free_energy_trace, rel=1e-9)
        for var in ("x[0]", "x[3]", "d"):
            assert got.marginals[var].mean_vector() == pytest.approx(want.marginals[var].mean_vector(), rel=1e-9)
        assert got.marginals["w"].rate == pytest.approx(want.marginals["w"].rate, rel=1e-9)

    def test_second_producer_still_rejected(self):
        g = FactorGraph()
        g.add_node("gaussian_mean_precision", {"out": "y1", "mean": "x", "precision": 1.0})
        g.add_node("gaussian_mean_precision", {"out": "y2", "mean": "x", "precision": 1.0})
        g.add_node("gaussian_mean_variance", {"out": "x", "mean": 0.0, "variance": 1.0})
        with pytest.raises(GraphError, match="already has a producing factor"):
            g.add_node("gaussian_mean_variance", {"out": "x", "mean": 1.0, "variance": 1.0})
