"""Forney-style factor graph data model and construction.

Edges are variables, nodes are factors. A variable used by more than two
factors is branched through equality nodes, which the builder inserts
automatically in usage order. Observed variables are terminated by clamp
nodes holding either a constant or a data placeholder.

Graph construction is single-threaded; once validated the graph is treated
as immutable by the scheduler and engine.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit

from . import distributions as dist
from ._linalg import as_matrix, check_spd


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
    """One factor kind: everything the pipeline reads about it, in one record.

    - ``roles``: interface roles, out first; a ``variadic`` kind repeats
      ``(mean_k, precision_k)`` pairs after them;
    - ``dsl``: the kind's name in the model language;
    - ``required_constants``, and ``parse_constants(args) -> (args,
      constants)`` that splits them off the model-language arguments
      (``ValueError`` with a message);
    - ``check(node, dims) -> message | None``: the model language's dimension
      check, given each connected role's shape (None when unknown);
    - ``check_values(values)``: the model language's check of the parameters
      written as numbers, given each such role's value: the constraint the
      distribution constructor puts on that parameter (``ValueError`` or
      ``TypeError`` with its message);
    - ``support(node)``: a generator that yields each role whose input
      support it needs, receives it (None when unknown) and returns the out
      variable's support;
    - ``energy(node, layout) -> (term, slots, constants, label)``: the node's
      free-energy term, laid out through a ``scheduler.TermLayout``; the
      kinds with an energy are the stochastic ones;
    - ``energies``: ``{term: f(qs, constants)}``, the average energy of each
      term the kind answers for (``distributions.average_energy``): a
      per-term function, or a ``distributions.Batch`` that ``Interpreter``
      evaluates for all the terms of one name and constants at once;
    - ``prior``: ``(family, params)``, the posterior family the kind takes as
      a prior and, given one, the value of each clamped parameter role.
    """

    def __init__(self, name, roles, *, variadic=False, dsl=None, required_constants=(),
                 parse_constants=None, check=None, check_values=None, support=None, energy=None,
                 energies=None, prior=None):
        self.name = name
        self.roles = tuple(roles)
        self.variadic = variadic
        self.dsl = dsl
        self.required_constants = tuple(required_constants)
        self.parse_constants = parse_constants
        self.check = check
        self.check_values = check_values
        self.support = support
        self.energy = energy
        self.energies = energies or {}
        self.prior = prior
        self._role_names: dict[int, tuple[str, ...]] = {}

    def role_names(self, arity: int) -> tuple[str, ...]:
        """The interface roles of a node of this kind with ``arity``
        interfaces; built once per arity and shared."""
        names = self._role_names.get(arity)
        if names is None:
            names = list(self.roles)
            if self.variadic:
                # gaussian_mixture: out, selector, then (mean_k, precision_k) pairs
                k = 1
                while len(names) < arity:
                    names += [f"mean_{k}", f"precision_{k}"]
                    k += 1
                names = names[:arity]
            names = self._role_names[arity] = tuple(names)
        return names

    def check_arity(self, arity: int):
        if self.variadic:
            if arity < len(self.roles) + 4 or (arity - len(self.roles)) % 2 != 0:
                raise GraphError(
                    f"{self.name} needs at least two (mean, precision) pairs, got arity {arity}"
                )
        elif arity != len(self.roles):
            raise GraphError(f"{self.name} expects {len(self.roles)} interfaces, got {arity}")


# The one table of node kinds, filled at the end of this module.
NODE_KINDS: dict[str, NodeKind] = {}


class Node:
    """One factor. ``interfaces`` holds the edge id on each interface (None
    while unconnected): a list while the builder connects the node, then a
    tuple of ints, which the cyclic collector does not keep tracking."""

    __slots__ = ("id", "kind", "interfaces", "constants", "_roles")

    def __init__(self, node_id: int, kind: str, arity: int, constants: dict | None = None):
        self.id = node_id
        self.kind = kind
        self.interfaces: list[int | None] | tuple[int | None, ...] = [None] * arity
        self.constants = constants or {}
        self._roles: tuple[str, ...] | None = None

    def roles(self, graph: "FactorGraph") -> tuple[str, ...]:
        """The node's interface roles; looked up on first use (a node's
        kind and arity never change)."""
        if self._roles is None:
            self._roles = graph.kind_of(self).role_names(len(self.interfaces))
        return self._roles

    def __repr__(self):
        return f"Node({self.id}, {self.kind})"


class Edge:
    """One variable segment. tail/head are (node_id, interface) sites; the
    tail-to-head orientation is the generative direction and is purely
    notational."""

    __slots__ = ("id", "variable", "tail", "head")

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
        self.kind = NodeKind(name, [role for role, _ in self.interface_map])


class FactorGraph:
    def __init__(self):
        self.nodes: list[Node] = []
        self.edges: list[Edge] = []
        self.placeholders: list[Placeholder] = []
        self.composites: dict[str, CompositeDefinition] = {}
        self._frontier: dict[str, int] = {}  # variable -> edge id with latest free/taken head
        # Each variable's edges in creation order, as a linked list: its first
        # and last edge ids, and per edge the id of the next one of its
        # variable (None for the last); ints only, so the cyclic collector
        # tracks none of it but the one list.
        self._first: dict[str, int] = {}
        self._last: dict[str, int] = {}
        self._next: list[int | None] = []

    # -- lookups ------------------------------------------------------------

    def kind_of(self, node: Node) -> NodeKind:
        kind = NODE_KINDS.get(node.kind)
        if kind is not None:
            return kind
        if node.kind in self.composites:
            return self.composites[node.kind].kind
        raise GraphError(f"unknown node kind {node.kind!r}")

    def variable_edges(self, name: str) -> list[Edge]:
        edges, edge_id = [], self._first.get(name)
        while edge_id is not None:
            edges.append(self.edges[edge_id])
            edge_id = self._next[edge_id]
        return edges

    def last_edge(self, name: str) -> Edge:
        """The variable's most recently created edge."""
        return self.edges[self._last[name]]

    def variables(self) -> list[str]:
        return list(self._first)

    def node_at(self, site: tuple[int, int]) -> Node:
        return self.nodes[site[0]]

    def neighbor_site(self, edge: Edge, site: tuple[int, int]):
        """The opposite endpoint of an edge, or None for a half-edge."""
        return edge.head if edge.tail == site else edge.tail

    # -- construction -------------------------------------------------------

    def add_variable(self, name: str) -> Edge:
        if name in self._frontier:
            raise GraphError(f"variable {name!r} already declared")
        edge = self._new_segment(name)
        self._frontier[name] = edge.id
        return edge

    def _new_segment(self, name: str) -> Edge:
        """The one place edges are appended; keeps the per-variable index."""
        edge = Edge(len(self.edges), name)
        self.edges.append(edge)
        self._next.append(None)
        last = self._last.get(name)
        if last is None:
            self._first[name] = edge.id
        else:
            self._next[last] = edge.id
        self._last[name] = edge.id
        return edge

    def _connect(self, site: tuple[int, int], edge_id: int):
        """Point interface ``site`` at ``edge_id``; a connected node's
        interfaces tuple is replaced."""
        node = self.nodes[site[0]]
        interfaces, idx = node.interfaces, site[1]
        if isinstance(interfaces, list):
            interfaces[idx] = edge_id
        else:
            node.interfaces = (*interfaces[:idx], edge_id, *interfaces[idx + 1:])

    def _attach_output(self, name: str, site: tuple[int, int]):
        if name not in self._frontier:
            self.add_variable(name)
        first = self.edges[self._first[name]]
        if first.tail is not None:
            held = self.node_at(first.tail)
            if first.tail[1] == 0 and held.kind not in ("equality", "clamp"):
                raise GraphError(f"variable {name!r} already has a producing factor")
            # A second reader took the free tail before the producer came:
            # branch both readers off an equality node behind the producer.
            eq = Node(len(self.nodes), "equality", 3)
            self.nodes.append(eq)
            for idx, reader in ((1, first.head), (2, first.tail)):
                segment = self._new_segment(name)
                segment.tail = (eq.id, idx)
                segment.head = reader
                eq.interfaces[idx] = segment.id
                self._connect(reader, segment.id)
            first.head = (eq.id, 0)
            eq.interfaces[0] = first.id
            eq.interfaces = tuple(eq.interfaces)
            if self._frontier[name] == first.id:
                self._frontier[name] = segment.id
        first.tail = site
        self._connect(site, first.id)

    def _attach_input(self, name: str, site: tuple[int, int]):
        if name not in self._frontier:
            self.add_variable(name)
        edge = self.edges[self._frontier[name]]
        if edge.head is None:
            edge.head = site
            self._connect(site, edge.id)
            return
        if edge.tail is None:
            # Orientation is notational; reuse the free endpoint before
            # resorting to an equality branch.
            edge.tail = site
            self._connect(site, edge.id)
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
        self._connect(old_head, to_old.id)

        to_new = self._new_segment(name)
        to_new.tail = (eq.id, 2)
        to_new.head = site
        eq.interfaces[2] = to_new.id
        eq.interfaces = tuple(eq.interfaces)
        self._connect(site, to_new.id)
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
        node.interfaces = tuple(node.interfaces)
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
        node.interfaces = tuple(node.interfaces)
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
            clone = flat._new_segment(edge.variable)
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
                clone = flat._new_segment(prefix + se.variable)
                clone.tail = (sub_nodes[se.tail[0]], se.tail[1])
                clone.head = (sub_nodes[se.head[0]], se.head[1])
                flat.nodes[clone.tail[0]].interfaces[clone.tail[1]] = clone.id
                flat.nodes[clone.head[0]].interfaces[clone.head[1]] = clone.id
            for iface, (role, var) in enumerate(comp.interface_map):
                outer = flat.edges[edge_map[node.interfaces[iface]]]
                inner = next(e for e in sub.variable_edges(var) if e.tail is None or e.head is None)
                inner_site = inner.tail if inner.tail is not None else inner.head
                site = (sub_nodes[inner_site[0]], inner_site[1])
                if outer.tail is None:
                    outer.tail = site
                else:
                    outer.head = site
                flat.nodes[site[0]].interfaces[site[1]] = outer.id
        for clone in flat.nodes:
            clone.interfaces = tuple(clone.interfaces)
        flat._frontier = dict(flat._last)
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


# ---------------------------------------------------------------------------
# Variable support inference
# ---------------------------------------------------------------------------


class Support:
    """Family plus shape of a variable: what kind of belief can live on it.
    A value, never changed once made, so equal supports may be shared."""

    __slots__ = ("family", "shape", "dim")

    def __init__(self, family: str, shape: tuple[int, ...]):
        self.family = family
        self.shape = tuple(map(int, shape))
        self.dim = math.prod(self.shape)

    def __repr__(self):
        return f"Support({self.family}, {self.shape})"

    def __eq__(self, other):
        return (self.family, self.shape) == (other.family, other.shape)


def infer_supports(graph: FactorGraph) -> dict[str, Support]:
    """Propagate variable supports from constants, priors and gain shapes.
    Variables with equal supports share one ``Support``."""
    supports: dict[str, Support] = {}
    shared: dict[tuple, Support] = {}

    def share(sup: Support) -> Support:
        return shared.setdefault((sup.family, sup.shape), sup)

    def shared_support(family: str, shape: tuple) -> Support:
        """``share(Support(family, shape))``, built only when new."""
        sup = shared.get((family, shape))
        return share(Support(family, shape)) if sup is None else sup

    nodes, edges = graph.nodes, graph.edges
    producer: dict[str, Node] = {}  # the node whose out site (interface 0) holds the variable
    for edge in edges:
        tail = edge.tail
        if tail is not None and tail[1] == 0:
            node = nodes[tail[0]]
            if (NODE_KINDS.get(node.kind) or graph.kind_of(node)).support is not None:
                producer[edge.variable] = node
    for node in nodes:
        if node.kind == "clamp":
            var = edges[node.interfaces[0]].variable
            if "value" in node.constants:
                sup = shared_support("point", np.asarray(node.constants["value"], dtype=float).shape)
            else:
                sup = shared_support("gaussian", tuple(node.constants.get("dims", ())))
            supports.setdefault(var, sup)

    def input_var(node: Node, role: str) -> str | None:
        """The variable on ``node``'s ``role`` interface (None if unconnected)."""
        edge_id = node.interfaces[node.roles(graph).index(role)]
        return None if edge_id is None else graph.edges[edge_id].variable

    def resolve(var: str) -> Support | None:
        """A variable's support, derived from its producer's inputs first.
        Each producer's ``NodeKind.support`` generator is suspended on an
        explicit stack while the support of an input it asked for is found,
        so a chain of any length runs in a fixed number of Python frames; a
        variable met again while its own derivation is pending counts as
        unknown."""
        stack: list = []  # (variable, its producer, suspended support generator), innermost last
        pending: set[str] = set()
        while True:
            if var in supports:
                value = supports[var]
            elif var in pending or var not in producer:  # also an unconnected input (None)
                value = None
            else:
                node = producer[var]
                stack.append((var, node, graph.kind_of(node).support(node)))
                pending.add(var)
                value = None  # starts the new generator
            while stack:
                top, node, gen = stack[-1]
                try:
                    var = input_var(node, gen.send(value))
                    break
                except StopIteration as done:
                    stack.pop()
                    pending.discard(top)
                    value = done.value
                    if value is not None:
                        supports[top] = share(value)
            else:
                return value

    for var in graph.variables():
        if var not in supports:
            resolve(var)
    if all(var in supports for var in graph.variables()):
        return supports
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
                supports[var] = share(Support("gamma", ()))
    return supports


# ---------------------------------------------------------------------------
# Node kinds
# ---------------------------------------------------------------------------


def energy_function(term: str):
    """The average energy ``f(qs, constants)`` of ``term``, from the record
    that declares it."""
    for kind in NODE_KINDS.values():
        if term in kind.energies:
            return kind.energies[term]
    raise dist.DistributionError(f"average energy unsupported for node kind {term!r}")


def _unpacked(energy):
    """``energy(*qs)`` as an average energy of ``(qs, constants)``."""
    return lambda qs, constants: energy(*qs)


def _fixed(family: str):
    """Support derivation of a scalar ``family`` that needs no input."""
    def support(node):
        return Support(family, ())
        yield  # a generator, as every support derivation is

    return support


def _shaped_like(role: str, family: str, default: tuple = ()):
    """Support derivation: ``family`` in the shape of the ``role`` input."""
    def support(node):
        sup = yield role
        return Support(family, sup.shape if sup else default)

    return support


def _categorical_support(node):
    p = yield "p"
    return Support("categorical", (p.shape[0] if p and p.shape else 2,))


def _transition_support(node):
    mat = yield "matrix"
    prev = yield "in"
    return Support("categorical", (mat.shape[0] if mat and mat.shape else (prev.shape[0] if prev else 2),))


def _addition_support(node):
    s = (yield "in1") or (yield "in2")
    return Support("gaussian", s.shape if s else ())


def _gain_support(node):
    a = as_matrix(node.constants["matrix"])
    return Support("gaussian", (a.shape[0],) if a.shape[0] > 1 else ())
    yield  # a generator, as every support derivation is


def _gain_constants(args):
    if len(args) != 2 or not isinstance(args[1], (np.ndarray, float)):
        raise ValueError("Gain expects (input, constant matrix)")
    return args[:1], {"matrix": np.atleast_2d(np.asarray(args[1], dtype=float))}


def _nonlinear_constants(args):
    if len(args) != 2 or not isinstance(args[1], str) or args[1] not in NONLINEAR_FUNCTIONS:
        raise ValueError(f"Nonlinear expects (input, g) with g one of {sorted(NONLINEAR_FUNCTIONS)}")
    return args[:1], {"g": args[1]}


def _gaussian_dims(node, dims):
    out, mean = dims.get("out"), dims.get("mean")
    if out is not None and mean is not None and out != mean:
        return f"node {node.id}: out dims {out} do not match mean dims {mean}"
    cov = dims.get("variance", dims.get("precision"))
    if out not in (None, ()) and cov not in (None, ()) and cov != (out[0], out[0]):
        return f"node {node.id}: precision/variance dims {cov} do not match state dims {out}"
    return None


def _gain_dims(node, dims):
    inp = dims.get("in")
    in_dim = (inp[0] if inp else 1) if inp is not None else None
    columns = np.atleast_2d(node.constants["matrix"]).shape[1]
    if in_dim is not None and columns != in_dim:
        return f"node {node.id}: gain matrix has {columns} columns but input has dim {in_dim}"
    return None


def _addition_dims(node, dims):
    a, b = dims.get("in1"), dims.get("in2")
    if a is not None and b is not None and a != b:
        return f"node {node.id}: addition input dims differ: {a} vs {b}"
    return None


def _scalar_input_dims(node, dims):
    shape = dims.get("in")
    if shape not in (None, (), (1,)):
        return f"node {node.id}: {node.kind} input dims {shape}, expected a scalar"
    return None


def _psd_values(prefix: str):
    """check_values: a role whose name starts with ``prefix`` holds a
    positive semi-definite matrix."""
    def check(values):
        for role, value in values.items():
            if role.startswith(prefix):
                check_spd(value, role)

    return check


def _constructed(family, **neutral):
    """check_values: ``family`` built from the roles ``neutral`` names, in
    order, each at its value when written as a number and at its neutral
    value when it is a variable; the constructor raises for a bad one."""
    def check(values):
        if values.keys() & neutral.keys():
            family(*(values.get(role, value) for role, value in neutral.items()))

    return check


def _interface_term(term: str, label: str | None = None):
    """Energy layout: ``term`` over the beliefs of every interface, in order."""
    def energy(node, layout):
        return term, layout.beliefs(node), {}, label or term

    return energy


def _transition_term(node, layout):
    """The beliefs of every interface; in a chain, the link's two-slice joint
    in place of the out and in beliefs."""
    link = layout.links.get(node.id)
    if link is None:
        return "transition", layout.beliefs(node), {}, "transition"
    return "transition", [layout.joint(link), layout.belief_at(node, "matrix")], {}, "transition"


def _gaussian_term(node, layout):
    """The out belief (the chain link's two-slice joint in a chain), a slot
    per mean-side leaf with its gain, then the belief of role 2: a precision,
    or a fixed variance (term ``gaussian_affine_variance``, whose mean side
    has no nonlinearity)."""
    info = layout.mean_sides[node.id]
    second = node.roles(layout.graph)[2]
    param = layout.belief_at(node, second)
    link = layout.links.get(node.id)
    if info.nonlinear is not None:
        if second == "variance":
            raise layout.error(f"unsupported nonlinear composition at node {node.id}")
        out = layout.belief_at(node, "out")
        leaves, constants = layout.mean_sides.layout(info, layout.belief)
        return "gaussian_nonlinear_affine", [out, *leaves, param], constants, "gaussian_nonlinear"
    out = layout.joint(link) if link is not None else layout.belief_at(node, "out")
    leaves, constants = layout.mean_sides.layout(info, layout.belief, link and link.leaf_var,
                                                 joint=link is not None)
    if second == "variance":
        return "gaussian_affine_variance", [out, *leaves, param], constants, "gaussian_mv"
    return "gaussian_affine", [out, *leaves, param], constants, "gaussian"


def _probit_term(node, layout):
    """The datum belief and the one mean-side leaf with its gain."""
    info = layout.mean_sides[node.id]
    if info.nonlinear is not None or len(info.leaves) != 1:
        raise layout.error(f"unsupported probit composition at node {node.id}")
    out = layout.belief_at(node, "out")
    leaves, constants = layout.mean_sides.layout(info, layout.belief)
    return "probit_affine", [out, *leaves], constants, "probit"


NODE_KINDS.update((kind.name, kind) for kind in (
    NodeKind("gaussian_mean_variance", ("out", "mean", "variance"), dsl="GaussianMeanVariance",
             check=_gaussian_dims, check_values=_psd_values("variance"),
             support=_shaped_like("mean", "gaussian"),
             energy=_gaussian_term,
             energies={"gaussian_mean_variance": dist._energy_gaussian_mean_variance,
                       "gaussian_affine_variance": dist._energy_gaussian_affine_variance},
             prior=(dist.GaussianBase, lambda q: {"mean": q.mean_vector(), "variance": q.covariance_matrix()})),
    NodeKind("gaussian_mean_precision", ("out", "mean", "precision"), dsl="GaussianMeanPrecision",
             check=_gaussian_dims, check_values=_psd_values("precision"),
             support=_shaped_like("mean", "gaussian"),
             energy=_gaussian_term,
             energies={"gaussian_mean_precision": dist._energy_gaussian_mean_precision,
                       "gaussian_affine": dist._energy_gaussian_affine,
                       "gaussian_nonlinear": dist._energy_gaussian_nonlinear,
                       "gaussian_nonlinear_affine": dist._energy_gaussian_nonlinear_affine},
             prior=(dist.GaussianBase, lambda q: {"mean": q.mean_vector(), "precision": q.precision_matrix()})),
    NodeKind("gamma", ("out", "shape", "rate"), dsl="Gamma",
             check_values=_constructed(dist.Gamma, shape=1.0, rate=1.0),
             support=_fixed("gamma"),
             energy=_interface_term("gamma"), energies={"gamma": _unpacked(dist._energy_gamma)},
             prior=(dist.Gamma, lambda q: {"shape": q.shape, "rate": q.rate})),
    NodeKind("wishart", ("out", "scale", "dof"), dsl="Wishart",
             check_values=_constructed(dist.Wishart, scale=1.0, dof=math.inf),
             support=_shaped_like("scale", "wishart", (1, 1)),
             energy=_interface_term("wishart"), energies={"wishart": _unpacked(dist._energy_wishart)},
             prior=(dist.Wishart, lambda q: {"scale": q.scale, "dof": q.dof})),
    NodeKind("dirichlet", ("out", "concentration"), dsl="Dirichlet",
             check_values=_constructed(dist.Dirichlet, concentration=None),
             support=_shaped_like("concentration", "dirichlet"),
             energy=_interface_term("dirichlet"), energies={"dirichlet": _unpacked(dist._energy_dirichlet)},
             prior=(dist.Dirichlet, lambda q: {"concentration": q.concentration})),
    NodeKind("categorical", ("out", "p"), dsl="Categorical",
             check_values=_constructed(dist.Categorical, p=None),
             support=_categorical_support,
             energy=_interface_term("categorical"), energies={"categorical": _unpacked(dist._energy_categorical)},
             prior=(dist.Categorical, lambda q: {"p": q.probabilities})),
    NodeKind("transition", ("out", "in", "matrix"), dsl="Transition", support=_transition_support,
             energy=_transition_term, energies={"transition": dist._energy_transition}),
    NodeKind("gaussian_mixture", ("out", "selector"), variadic=True, dsl="GaussianMixture",
             check_values=_psd_values("precision_"), support=_shaped_like("mean_1", "gaussian"),
             energy=_interface_term("gaussian_mixture", "mixture"),
             energies={"gaussian_mixture": dist._energy_gaussian_mixture}),
    NodeKind("addition", ("out", "in1", "in2"), dsl="Addition", check=_addition_dims, support=_addition_support),
    NodeKind("gain", ("out", "in"), dsl="Gain", required_constants=("matrix",), parse_constants=_gain_constants,
             check=_gain_dims, support=_gain_support),
    NodeKind("equality", ("1", "2", "3"), dsl="Equality"),
    NodeKind("nonlinear", ("out", "in"), dsl="Nonlinear", required_constants=("g",),
             parse_constants=_nonlinear_constants, check=_scalar_input_dims, support=_fixed("gaussian")),
    NodeKind("probit", ("out", "in"), dsl="Probit", check=_scalar_input_dims, support=_fixed("binary"),
             energy=_probit_term,
             energies={"probit": dist._energy_probit, "probit_affine": dist._energy_probit_affine}),
    NodeKind("clamp", ("out",)),
))
