"""Forney-style factor graph data model and construction.

Edges are variables, nodes are factors. A variable used by more than two
factors is branched through equality nodes, which the builder inserts
automatically in usage order. Observed variables are terminated by clamp
nodes holding either a constant or a data placeholder.

Graph construction is single-threaded; once validated the graph is treated
as immutable by the scheduler and engine.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from ._linalg import as_matrix


class GraphError(ValueError):
    """Structural misuse of the graph builder."""


# Named scalar nonlinearities usable by nonlinear nodes: name -> (g, g').
NONLINEAR_FUNCTIONS = {
    "softplus": (lambda x: float(np.logaddexp(0.0, x)), lambda x: float(expit(x))),
    "exp": (lambda x: float(np.exp(x)), lambda x: float(np.exp(x))),
    "tanh": (lambda x: float(np.tanh(x)), lambda x: float(1.0 - np.tanh(x) ** 2)),
    "identity": (lambda x: float(x), lambda x: 1.0),
}


class NodeKind:
    """Declared factor kind: ordered interface roles plus arity policy."""

    def __init__(self, name, roles, deterministic=False, variadic=False, required_constants=()):
        self.name = name
        self.roles = tuple(roles)
        self.deterministic = deterministic
        self.variadic = variadic
        self.required_constants = tuple(required_constants)

    def role_names(self, arity: int) -> list[str]:
        if not self.variadic:
            return list(self.roles)
        # gaussian_mixture: out, selector, then (mean_k, precision_k) pairs
        names = list(self.roles)
        k = 1
        while len(names) < arity:
            names += [f"mean_{k}", f"precision_{k}"]
            k += 1
        return names[:arity]

    def check_arity(self, arity: int):
        if self.variadic:
            if arity < len(self.roles) + 4 or (arity - len(self.roles)) % 2 != 0:
                raise GraphError(
                    f"{self.name} needs at least two (mean, precision) pairs, got arity {arity}"
                )
        elif arity != len(self.roles):
            raise GraphError(f"{self.name} expects {len(self.roles)} interfaces, got {arity}")


NODE_KINDS: dict[str, NodeKind] = {}


def _register(kind: NodeKind) -> NodeKind:
    NODE_KINDS[kind.name] = kind
    return kind


_register(NodeKind("gaussian_mean_variance", ("out", "mean", "variance")))
_register(NodeKind("gaussian_mean_precision", ("out", "mean", "precision")))
_register(NodeKind("gamma", ("out", "shape", "rate")))
_register(NodeKind("wishart", ("out", "scale", "dof")))
_register(NodeKind("dirichlet", ("out", "concentration")))
_register(NodeKind("categorical", ("out", "p")))
_register(NodeKind("transition", ("out", "in", "matrix")))
_register(NodeKind("gaussian_mixture", ("out", "selector"), variadic=True))
_register(NodeKind("addition", ("out", "in1", "in2"), deterministic=True))
_register(NodeKind("gain", ("out", "in"), deterministic=True, required_constants=("matrix",)))
_register(NodeKind("equality", ("1", "2", "3"), deterministic=True))
_register(NodeKind("nonlinear", ("out", "in"), deterministic=True, required_constants=("g",)))
_register(NodeKind("probit", ("out", "in")))
_register(NodeKind("clamp", ("out",)))

STOCHASTIC_KINDS = {
    "gaussian_mean_variance",
    "gaussian_mean_precision",
    "gamma",
    "wishart",
    "dirichlet",
    "categorical",
    "transition",
    "gaussian_mixture",
    "probit",
}


class Node:
    def __init__(self, node_id: int, kind: str, arity: int, constants: dict | None = None):
        self.id = node_id
        self.kind = kind
        self.interfaces: list[int | None] = [None] * arity
        self.constants = constants or {}

    def roles(self, graph: "FactorGraph") -> list[str]:
        return graph.kind_of(self).role_names(len(self.interfaces))

    def __repr__(self):
        return f"Node({self.id}, {self.kind})"


class Edge:
    """One variable segment. tail/head are (node_id, interface) sites; the
    tail-to-head orientation is the generative direction and is purely
    notational."""

    def __init__(self, edge_id: int, variable: str):
        self.id = edge_id
        self.variable = variable
        self.tail: tuple[int, int] | None = None
        self.head: tuple[int, int] | None = None

    def __repr__(self):
        return f"Edge({self.id}, {self.variable!r}, tail={self.tail}, head={self.head})"


class Placeholder:
    def __init__(self, name: str, index: int, dims: tuple[int, ...]):
        self.name = name
        self.index = int(index)
        self.dims = tuple(int(d) for d in dims)

    def __repr__(self):
        return f"Placeholder({self.name}[{self.index}], dims={self.dims})"


class CompositeDefinition:
    def __init__(self, name: str, subgraph: "FactorGraph", interface_map: list[tuple[str, str]]):
        self.name = name
        self.subgraph = subgraph
        self.interface_map = list(interface_map)  # (role, boundary variable)


class FactorGraph:
    def __init__(self):
        self.nodes: list[Node] = []
        self.edges: list[Edge] = []
        self.placeholders: list[Placeholder] = []
        self.composites: dict[str, CompositeDefinition] = {}
        self._frontier: dict[str, int] = {}  # variable -> edge id with latest free/taken head

    # -- lookups ------------------------------------------------------------

    def kind_of(self, node: Node) -> NodeKind:
        if node.kind in NODE_KINDS:
            return NODE_KINDS[node.kind]
        if node.kind in self.composites:
            comp = self.composites[node.kind]
            return NodeKind(node.kind, [role for role, _ in comp.interface_map])
        raise GraphError(f"unknown node kind {node.kind!r}")

    def variable_edges(self, name: str) -> list[Edge]:
        return [e for e in self.edges if e.variable == name]

    def variables(self) -> list[str]:
        seen: dict[str, None] = {}
        for e in self.edges:
            seen.setdefault(e.variable, None)
        return list(seen)

    def node_at(self, site: tuple[int, int]) -> Node:
        return self.nodes[site[0]]

    def neighbor_site(self, edge: Edge, site: tuple[int, int]):
        """The opposite endpoint of an edge, or None for a half-edge."""
        return edge.head if edge.tail == site else edge.tail

    # -- construction -------------------------------------------------------

    def add_variable(self, name: str) -> Edge:
        if name in self._frontier:
            raise GraphError(f"variable {name!r} already declared")
        edge = Edge(len(self.edges), name)
        self.edges.append(edge)
        self._frontier[name] = edge.id
        return edge

    def _new_segment(self, name: str) -> Edge:
        edge = Edge(len(self.edges), name)
        self.edges.append(edge)
        return edge

    def _attach_output(self, name: str, site: tuple[int, int]):
        if name not in self._frontier:
            self.add_variable(name)
        first = self.variable_edges(name)[0]
        if first.tail is not None:
            raise GraphError(f"variable {name!r} already has a producing factor")
        first.tail = site
        self.nodes[site[0]].interfaces[site[1]] = first.id

    def _attach_input(self, name: str, site: tuple[int, int]):
        if name not in self._frontier:
            self.add_variable(name)
        edge = self.edges[self._frontier[name]]
        if edge.head is None:
            edge.head = site
            self.nodes[site[0]].interfaces[site[1]] = edge.id
            return
        if edge.tail is None:
            # Orientation is notational; reuse the free endpoint before
            # resorting to an equality branch.
            edge.tail = site
            self.nodes[site[0]].interfaces[site[1]] = edge.id
            return
        # Third (or later) usage: branch through an equality node, splitting
        # the frontier segment at its current consumer.
        eq = Node(len(self.nodes), "equality", 3)
        self.nodes.append(eq)
        old_head = edge.head
        edge.head = (eq.id, 0)
        eq.interfaces[0] = edge.id

        to_old = self._new_segment(name)
        to_old.tail = (eq.id, 1)
        to_old.head = old_head
        eq.interfaces[1] = to_old.id
        self.nodes[old_head[0]].interfaces[old_head[1]] = to_old.id

        to_new = self._new_segment(name)
        to_new.tail = (eq.id, 2)
        to_new.head = site
        eq.interfaces[2] = to_new.id
        self.nodes[site[0]].interfaces[site[1]] = to_new.id
        self._frontier[name] = to_new.id

    def add_node(self, kind: str, connections: dict, constants: dict | None = None) -> Node:
        """Add a factor node. ``connections`` maps role names to variable
        names (strings) or raw numeric values; values become clamp nodes."""
        if kind not in NODE_KINDS and kind not in self.composites:
            raise GraphError(f"unknown node kind {kind!r}")
        declared = NODE_KINDS.get(kind)
        arity = len(connections)
        if declared is not None:
            declared.check_arity(arity)
            for const in declared.required_constants:
                if const not in (constants or {}):
                    raise GraphError(f"{kind} requires constant {const!r}")
        node = Node(len(self.nodes), kind, arity, constants)
        self.nodes.append(node)
        roles = node.roles(self)
        for idx, role in enumerate(roles):
            if role not in connections:
                raise GraphError(f"{kind}: missing connection for role {role!r}")
            target = connections[role]
            if isinstance(target, str):
                if idx == 0 and kind != "equality":
                    self._attach_output(target, (node.id, idx))
                else:
                    self._attach_input(target, (node.id, idx))
            else:
                # Raw values hang off the interface through a clamp factor.
                aux = f"_{kind}{node.id}_{role}"
                self.add_variable(aux)
                self._attach_output(aux, (node.id, idx))
                self.clamp(aux, target)
        return node

    def clamp(self, variable: str, value, placeholder: Placeholder | None = None) -> Node:
        """Terminate a variable with a clamping factor (observed datum or
        fixed parameter). ``value`` may be None when a placeholder is given."""
        constants = {}
        if placeholder is not None:
            constants["placeholder"] = placeholder.name
            constants["index"] = placeholder.index
            constants["dims"] = placeholder.dims
            self.placeholders.append(placeholder)
        else:
            constants["value"] = np.asarray(value, dtype=float)
        node = Node(len(self.nodes), "clamp", 1, constants)
        self.nodes.append(node)
        self._attach_input(variable, (node.id, 0))
        return node

    def observe(self, variable: str, name: str, index: int, dims: tuple[int, ...]) -> Node:
        return self.clamp(variable, None, Placeholder(name, index, dims))

    def define_composite(self, name: str, subgraph: "FactorGraph", interface_map: list[tuple[str, str]]):
        """Register a named subgraph as a new node kind.

        ``interface_map`` lists (role, boundary-variable) pairs; it must cover
        every half-edge of the subgraph.
        """
        if name in NODE_KINDS or name in self.composites:
            raise GraphError(f"node kind {name!r} already defined")
        problems = subgraph.validate()
        if problems:
            raise GraphError(f"composite {name}: invalid subgraph: {problems}")
        boundary = {e.variable for e in subgraph.edges if e.tail is None or e.head is None}
        mapped = {var for _, var in interface_map}
        unmapped = boundary - mapped
        if unmapped:
            raise GraphError(f"composite {name}: unmapped boundary edges {sorted(unmapped)}")
        unknown = mapped - {e.variable for e in subgraph.edges}
        if unknown:
            raise GraphError(f"composite {name}: unknown variables {sorted(unknown)}")
        self.composites[name] = CompositeDefinition(name, subgraph, interface_map)
        return self.composites[name]

    # -- structural passes ---------------------------------------------------

    def flatten(self) -> "FactorGraph":
        """Expand all composite instances (recursively) into primitive nodes."""
        if not any(n.kind in self.composites for n in self.nodes):
            return self
        flat = FactorGraph()
        flat.placeholders = list(self.placeholders)
        flat.composites = dict(self.composites)
        node_map: dict[int, int] = {}
        for node in self.nodes:
            if node.kind in self.composites:
                continue
            clone = Node(len(flat.nodes), node.kind, len(node.interfaces), dict(node.constants))
            flat.nodes.append(clone)
            node_map[node.id] = clone.id
        edge_map: dict[int, int] = {}
        for edge in self.edges:
            clone = Edge(len(flat.edges), edge.variable)
            flat.edges.append(clone)
            edge_map[edge.id] = clone.id
            for attr in ("tail", "head"):
                site = getattr(edge, attr)
                if site is not None and site[0] in node_map:
                    setattr(clone, attr, (node_map[site[0]], site[1]))
                    flat.nodes[node_map[site[0]]].interfaces[site[1]] = clone.id
        for node in self.nodes:
            if node.kind not in self.composites:
                continue
            comp = self.composites[node.kind]
            sub = comp.subgraph.flatten()
            sub_nodes: dict[int, int] = {}
            prefix = f"{node.kind}{node.id}."
            for sn in sub.nodes:
                clone = Node(len(flat.nodes), sn.kind, len(sn.interfaces), dict(sn.constants))
                flat.nodes.append(clone)
                sub_nodes[sn.id] = clone.id
            for se in sub.edges:
                if se.tail is None or se.head is None:
                    continue
                clone = Edge(len(flat.edges), prefix + se.variable)
                flat.edges.append(clone)
                clone.tail = (sub_nodes[se.tail[0]], se.tail[1])
                clone.head = (sub_nodes[se.head[0]], se.head[1])
                flat.nodes[clone.tail[0]].interfaces[clone.tail[1]] = clone.id
                flat.nodes[clone.head[0]].interfaces[clone.head[1]] = clone.id
            for iface, (role, var) in enumerate(comp.interface_map):
                outer = flat.edges[edge_map[node.interfaces[iface]]]
                inner = next(e for e in sub.edges if e.variable == var and (e.tail is None or e.head is None))
                inner_site = inner.tail if inner.tail is not None else inner.head
                site = (sub_nodes[inner_site[0]], inner_site[1])
                if outer.tail is None:
                    outer.tail = site
                else:
                    outer.head = site
                flat.nodes[site[0]].interfaces[site[1]] = outer.id
        flat._frontier = {}
        for e in flat.edges:
            flat._frontier[e.variable] = e.id
        return flat.flatten()

    def validate(self, targets=None) -> list[str]:
        """Structural diagnostics; empty list means the graph is well formed."""
        diags: list[str] = []
        ref_count: dict[int, int] = {}
        for node in self.nodes:
            try:
                kind = self.kind_of(node)
                kind.check_arity(len(node.interfaces))
            except GraphError as exc:
                diags.append(f"node {node.id}: {exc}")
                continue
            roles = node.roles(self)
            for idx, edge_id in enumerate(node.interfaces):
                if edge_id is None:
                    diags.append(f"node {node.id}: interface {roles[idx]!r} unconnected")
                    continue
                ref_count[edge_id] = ref_count.get(edge_id, 0) + 1
                edge = self.edges[edge_id]
                if (node.id, idx) not in (edge.tail, edge.head):
                    diags.append(f"node {node.id}: interface {roles[idx]!r} points at edge {edge_id} which does not point back")
            for const in kind.required_constants:
                if const not in node.constants:
                    diags.append(f"node {node.id}: missing constant {const!r}")
        for edge_id, count in ref_count.items():
            if count > 2:
                diags.append(
                    f"edge {edge_id} ({self.edges[edge_id].variable}) referenced by {count} interfaces without an equality node"
                )
        by_name: dict[str, list[int]] = {}
        for ph in self.placeholders:
            by_name.setdefault(ph.name, []).append(ph.index)
        for name, indices in by_name.items():
            if sorted(indices) != list(range(1, len(indices) + 1)):
                diags.append(f"placeholder {name!r}: indices not contiguous from 1: {sorted(indices)}")
        if targets is not None:
            targets = set(targets)
            for edge in self.edges:
                if (edge.tail is None or edge.head is None) and edge.variable not in targets:
                    diags.append(f"variable {edge.variable!r}: untargeted half-edge")
        return diags

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        def const_json(value):
            if isinstance(value, np.ndarray):
                return value.tolist()
            if isinstance(value, tuple):
                return list(value)
            return value

        return {
            "nodes": [
                {
                    "id": n.id,
                    "kind": n.kind,
                    "interfaces": list(n.interfaces),
                    "constants": {k: const_json(v) for k, v in n.constants.items()},
                }
                for n in self.nodes
            ],
            "edges": [
                {
                    "id": e.id,
                    "variable": e.variable,
                    "tail": list(e.tail) if e.tail else None,
                    "head": list(e.head) if e.head else None,
                }
                for e in self.edges
            ],
            "placeholders": [
                {"name": p.name, "index": p.index, "dims": list(p.dims)} for p in self.placeholders
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FactorGraph":
        g = cls()
        for spec in obj["nodes"]:
            node = Node(spec["id"], spec["kind"], len(spec["interfaces"]), {})
            for key, value in spec.get("constants", {}).items():
                if key == "value":
                    node.constants[key] = np.asarray(value, dtype=float)
                elif key == "dims":
                    node.constants[key] = tuple(value)
                elif isinstance(value, list):
                    node.constants[key] = np.asarray(value, dtype=float)
                else:
                    node.constants[key] = value
            node.interfaces = list(spec["interfaces"])
            if node.id != len(g.nodes):
                raise GraphError("node ids must be contiguous")
            g.nodes.append(node)
        for spec in obj["edges"]:
            edge = Edge(spec["id"], spec["variable"])
            edge.tail = tuple(spec["tail"]) if spec["tail"] else None
            edge.head = tuple(spec["head"]) if spec["head"] else None
            if edge.id != len(g.edges):
                raise GraphError("edge ids must be contiguous")
            g.edges.append(edge)
            g._frontier[edge.variable] = edge.id
        for spec in obj.get("placeholders", []):
            g.placeholders.append(Placeholder(spec["name"], spec["index"], tuple(spec["dims"])))
        return g


def structurally_isomorphic(a: FactorGraph, b: FactorGraph) -> bool:
    """Same node kinds, connectivity, variable names and constants."""
    ja, jb = a.to_json(), b.to_json()

    def canon(j):
        import json

        return json.dumps(j, sort_keys=True)

    return canon(ja) == canon(jb)


# ---------------------------------------------------------------------------
# Variable support inference
# ---------------------------------------------------------------------------


class Support:
    """Family plus shape of a variable: what kind of belief can live on it."""

    def __init__(self, family: str, shape: tuple[int, ...]):
        self.family = family
        self.shape = tuple(int(s) for s in shape)

    @property
    def dim(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    def __repr__(self):
        return f"Support({self.family}, {self.shape})"

    def __eq__(self, other):
        return (self.family, self.shape) == (other.family, other.shape)


def infer_supports(graph: FactorGraph) -> dict[str, Support]:
    """Propagate variable supports from constants, priors and gain shapes."""
    supports: dict[str, Support] = {}
    producer: dict[str, Node] = {}
    for edge in graph.edges:
        if edge.tail is not None:
            node = graph.node_at(edge.tail)
            if node.kind != "equality":
                producer[edge.variable] = node
    for node in graph.nodes:
        if node.kind == "clamp":
            edge = graph.edges[node.interfaces[0]]
            if "value" in node.constants:
                supports.setdefault(edge.variable, _support_of_value(node.constants["value"]))
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


def _support_of_value(value: np.ndarray) -> Support:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return Support("point", ())
    return Support("point", arr.shape)
