"""Schedule generation: sum-product and hybrid VMP/EP message sequences,
rule selection with message-type inference, and the free-energy program.

A schedule is an ordered list of message updates with backward-only
dependencies, plus marginal-combination steps. Variational schedules are
generated per recognition factor: edges inside a factor carry messages,
edges owned by other factors are read through their current marginals, and
state-sequence factors are swept forward (filtering) then backward
(smoothing) before their single and two-slice marginals are combined. A
mean-field factor's marginal is one product of all its inbound messages, in
the order its equality chain would fold them.

EP messages (probit sites) introduce circular dependencies; they are held in
persistent site slots initialized to an uninformative Gaussian, read during
the sweeps, and rewritten from fresh cavities at the end of each sweep, which
keeps every per-sweep schedule acyclic.

Every update is selected at one site (``_FactorScheduler.lookup``), which
types its slots, and appended by one emitter. Every step and energy term is
built as an ``Instruction``, the record ``codegen.AlgorithmIR`` is made of,
so compiling assembles them and copies none. What a support family decides
(marginal class, vague default) comes from ``distributions.FAMILIES``.
Listings of schedules are written by ``codegen.render_schedule(s)``.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from ._linalg import as_matrix
from .distributions import (
    FAMILIES,
    Distribution,
    GaussianCanonical,
    PointMass,
    _VARIANTS,
    vague,
)
from .graph import NODE_KINDS, FactorGraph, Node, Support, infer_supports
from .rules import (
    CAVITY,
    MARGINAL,
    MESSAGE,
    VOID,
    RuleRegistry,
    default_registry,
)


class SchedulingError(ValueError):
    """The graph/factorization combination does not admit a schedule."""


GAUSSIAN_NODE_KINDS = ("gaussian_mean_precision", "gaussian_mean_variance")


def joint_key(leaf_var: str, out_var: str) -> str:
    return f"{leaf_var}&{out_var}"


def joint_support(leaf: Support, out: Support) -> Support:
    """Support of the two-slice joint of a chain link's leaf and out variables."""
    if out.family == "categorical":
        return Support("categorical", (out.shape[0], leaf.shape[0]))
    return Support("gaussian", (leaf.dim + out.dim,))


def support_of(key: str, supports: dict[str, Support]) -> Support:
    """Support of a variable (a scalar Gaussian when none was inferred) or of
    a two-slice joint key ``leaf&out``."""
    sup = supports.get(key)
    if sup is not None:
        return sup
    leaf, joint, out = key.partition("&")
    if joint:
        return joint_support(support_of(leaf, supports), support_of(out, supports))
    return Support("gaussian", ())


def vague_for(sup: Support) -> Distribution:
    """Uninformative default for a variable or marginal-table key of the
    given support."""
    return vague(sup.family, sup.shape)


# ---------------------------------------------------------------------------
# Recognition factorization
# ---------------------------------------------------------------------------


class RecognitionFactorization:
    """Ordered partition of the latent stochastic variables into recognition
    factors. Deterministic auxiliary variables are plumbing and need not be
    listed; observed variables must not appear."""

    def __init__(self, factors: list[tuple[str, list[str]]]):
        self.factors = [(fid, list(vs)) for fid, vs in factors]

    def factor_of(self) -> dict[str, str]:
        owner: dict[str, str] = {}
        for fid, vs in self.factors:
            for v in vs:
                owner[v] = fid
        return owner

    def validate(self, graph: FactorGraph, supports: dict[str, Support]):
        latent = latent_stochastic_variables(graph, supports)
        latent_set = set(latent)
        seen: set[str] = set()
        for fid, vs in self.factors:
            for v in vs:
                if v in seen:
                    raise SchedulingError(f"variable {v!r} appears in more than one factor")
                seen.add(v)
                if v not in latent_set:
                    raise SchedulingError(
                        f"factor {fid!r} lists {v!r}, which is not a latent stochastic variable"
                    )
        missing = [v for v in latent if v not in seen]
        if missing:
            raise SchedulingError(f"factorization does not cover latent variables {missing}")

    @classmethod
    def from_json(cls, obj) -> "RecognitionFactorization":
        return cls([(f["id"], list(f["variables"])) for f in obj["factors"]])


def clamped_variables(graph: FactorGraph) -> dict[str, Node]:
    """Each clamped variable mapped to its first clamp node."""
    out: dict[str, Node] = {}
    for node in graph.nodes:
        if node.kind == "clamp":
            out.setdefault(graph.edges[node.interfaces[0]].variable, node)
    return out


def clamp_slot(node: Node):
    """Slot holding a clamp node's value: a data placeholder or a constant."""
    if "placeholder" in node.constants:
        return ("data", (node.constants["placeholder"], node.constants["index"]))
    return ("const", PointMass(node.constants["value"]))


def latent_stochastic_variables(graph: FactorGraph, supports=None) -> list[str]:
    """Variables produced by a stochastic node and not clamped, in edge order."""
    clamped = clamped_variables(graph)
    names: dict[str, None] = {}  # insertion-ordered set
    nodes = graph.nodes
    for edge in graph.edges:
        var, tail = edge.variable, edge.tail
        if tail is None or tail[1] != 0 or var in clamped or var in names:
            continue
        node = nodes[tail[0]]
        if (NODE_KINDS.get(node.kind) or graph.kind_of(node)).energy is not None:
            names[var] = None
    return list(names)


def default_factorization(graph: FactorGraph) -> RecognitionFactorization:
    """Structured default: each transition chain becomes one joint factor,
    every other latent variable gets its own mean-field factor. Chains are
    found on the graph the schedules see (composites without custom rules
    in the default registry expanded)."""
    graph = _prepare(graph, default_registry())
    supports = infer_supports(graph)
    latent = latent_stochastic_variables(graph, supports)
    latent_set = set(latent)
    sections = analyze_sections(graph, supports)
    succ: dict[str, str] = {}
    pred: dict[str, str] = {}
    for sec in sections.values():
        if sec.leaf_var in latent_set and sec.out_var in latent_set:
            succ[sec.leaf_var] = sec.out_var
            pred[sec.out_var] = sec.leaf_var
    chains: list[tuple[str, list[str]]] = []
    singles: list[tuple[str, list[str]]] = []
    used: set[str] = set()
    for v in latent:
        if v in used:
            continue
        if v in succ or v in pred:
            start, seen = v, {v}  # a cyclic chain is walked once round
            while start in pred and pred[start] not in used and pred[start] not in seen:
                start = pred[start]
                seen.add(start)
            chain, seen = [start], {start}
            while chain[-1] in succ and succ[chain[-1]] not in seen:
                chain.append(succ[chain[-1]])
                seen.add(chain[-1])
            chains.append((f"X{len(chains)}" if chains else "X", chain))
            used.update(chain)
        else:
            singles.append((v, [v]))
            used.add(v)
    # state chains update before the parameters they feed
    return RecognitionFactorization(chains + singles)


# ---------------------------------------------------------------------------
# Mean-side composition analysis
# ---------------------------------------------------------------------------


class MeanSideInfo:
    """Affine (plus optional scalar nonlinearity) decomposition of a Gaussian
    node's mean input: mean = g(sum_i G_i v_i + c). ``leaves`` maps each leaf
    v_i to its gain G_i in walk order; ``leaf_edges`` maps it to the
    ``(edge_id, direction)`` of the message toward the node on the edge the
    walk first found it on."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.leaves: dict[str, np.ndarray] = {}
        self.leaf_edges: dict[str, tuple[int, str]] = {}
        self.offset: np.ndarray | None = None
        self.nonlinear: str | None = None


def analyze_mean_side(graph: FactorGraph, node: Node, out_dim: int) -> MeanSideInfo:
    roles = node.roles(graph)
    mean_idx = roles.index("mean") if "mean" in roles else roles.index("in")
    return affine_subtree(graph, node.interfaces[mean_idx], (node.id, mean_idx), out_dim, node.id)


class MeanSides(dict):
    """``analyze_mean_side`` per node id, computed on first use. One table
    serves one factorization analysis, so each node's mean side is walked
    once; a failed analysis is not stored and raises again on the next use.
    It also lays out the constants that read a mean side (``layout``)."""

    def __init__(self, graph: FactorGraph, supports: dict[str, Support]):
        super().__init__()
        self.graph = graph
        self.supports = supports
        self.constants: dict[tuple, dict] = {}  # see ``layout``

    def __missing__(self, node_id: int) -> MeanSideInfo:
        node = self.graph.nodes[node_id]
        out_var = self.graph.edges[node.interfaces[0]].variable
        out_dim = 1 if node.kind == "probit" else support_of(out_var, self.supports).dim
        info = self[node_id] = analyze_mean_side(self.graph, node, out_dim)
        return info

    def layout(self, info: MeanSideInfo, leaf_slot, joint_leaf: str | None = None, **extra):
        """Leaf slots and constants of an update or energy term that reads
        the mean side ``info`` through its leaves' beliefs: ``leaf_slot(v)``
        per leaf, in walk order, with one gain each, and the offset.
        ``joint_leaf`` is read through its chain's two-slice joint instead:
        its gain comes first and it gets no slot. ``extra`` constants follow
        the gains. Equal constants are built once per analysis and shared,
        read only, by every update and term that records them."""
        gains = [info.leaves[joint_leaf]] if joint_leaf is not None else []
        slots = []
        for v, g in info.leaves.items():
            if v != joint_leaf:
                gains.append(g)
                slots.append(leaf_slot(v))
        if info.nonlinear is not None and len(info.leaves) != 1:
            raise SchedulingError(f"unsupported nonlinear composition at node {info.node_id}")
        offset = info.offset
        key = (tuple((g.shape, g.tobytes()) for g in gains), tuple(extra.items()), info.nonlinear,
               None if offset is None else (offset.shape, offset.tobytes()))
        constants = self.constants.get(key)
        if constants is None:
            constants = self.constants[key] = {"gains": [g.tolist() for g in gains], **extra}
            if info.nonlinear is not None:
                constants["g"] = info.nonlinear
            if offset is not None:
                constants["offset"] = offset.tolist()
        return slots, constants


@functools.cache
def _identity(dim: int) -> np.ndarray:
    """The identity gain of a dimension, read only, shared by every walk."""
    eye = np.eye(dim)
    eye.flags.writeable = False
    return eye


def affine_subtree(graph: FactorGraph, root_edge: int, root_site, out_dim: int, node_id) -> MeanSideInfo:
    """Decompose the producer side of an edge into g(sum_i G_i v_i + c). The
    deterministic subtree is walked depth first, inputs in interface order,
    from an explicit stack."""
    info = MeanSideInfo(node_id)
    stack = [(root_edge, root_site, _identity(out_dim))]
    while stack:
        edge_id, consumer_site, gain = stack.pop()
        edge = graph.edges[edge_id]
        site = graph.neighbor_site(edge, consumer_site)
        src = None if site is None else graph.node_at(site)
        if src is not None and src.kind == "clamp":
            value = src.constants.get("value")
            if value is None:
                raise SchedulingError(
                    f"placeholder data cannot appear on the mean side of node {node_id}"
                )
            contrib = gain @ np.atleast_1d(np.asarray(value, dtype=float))
            info.offset = contrib if info.offset is None else info.offset + contrib
            continue
        walks_on = src is not None and src.kind in ("gain", "addition", "nonlinear")
        if not walks_on or src.roles(graph)[site[1]] != "out":
            # a half-edge, or an equality or stochastic producer: a shared variable
            var = edge.variable
            if var in info.leaves:
                info.leaves[var] = info.leaves[var] + gain
            else:
                info.leaves[var] = gain
                info.leaf_edges[var] = (edge_id, "fwd" if edge.head == consumer_site else "bwd")
            continue
        if src.kind == "nonlinear":
            if info.nonlinear is not None or info.leaves or info.offset is not None:
                raise SchedulingError(f"unsupported nonlinear composition at node {node_id}")
            info.nonlinear = src.constants["g"]
        elif src.kind == "gain":
            gain = gain @ as_matrix(src.constants["matrix"])
        # inputs are interfaces 1.. of gain, addition and nonlinear; pushed
        # last to first so the first is walked first
        for idx in range(len(src.interfaces) - 1, 0, -1):
            stack.append((src.interfaces[idx], (src.id, idx), gain))
    return info


def marginal_slot(var: str):
    return ("marginal", var)


class Section:
    """One chain transition: out_var ~ f(leaf_var, parameters)."""

    def __init__(self, node, leaf_var, out_var, kind, mean_info=None):
        self.node = node
        self.leaf_var = leaf_var
        self.out_var = out_var
        self.kind = kind  # "gaussian" | "transition"
        self.mean_info = mean_info


def analyze_sections(graph: FactorGraph, supports, mean_sides: MeanSides | None = None) -> dict[int, Section]:
    """Map stochastic transition-like nodes to (leaf -> out) section records."""
    if mean_sides is None:
        mean_sides = MeanSides(graph, supports)
    clamped = clamped_variables(graph)
    sections: dict[int, Section] = {}
    for node in graph.nodes:
        if node.kind not in GAUSSIAN_NODE_KINDS + ("transition",):
            continue
        roles = node.roles(graph)
        out_var = graph.edges[node.interfaces[0]].variable
        if out_var in clamped:
            continue
        if node.kind == "transition":
            in_var = graph.edges[node.interfaces[roles.index("in")]].variable
            if in_var in clamped:
                continue
            sections[node.id] = Section(node, in_var, out_var, "transition")
            continue
        try:
            mean_info = mean_sides[node.id]
        except SchedulingError:
            continue
        if mean_info.nonlinear is not None:
            continue
        candidates = [v for v in mean_info.leaves if v not in clamped]
        if len(candidates) >= 1:
            sections[node.id] = Section(node, candidates[0], out_var, "gaussian", mean_info=mean_info)
    return sections


def factor_links(sections: dict[int, Section], owner: dict[str, str]) -> dict[int, Section]:
    """Chain links: the sections whose leaf and out variables lie in the same
    recognition factor, keyed by node id in node order."""
    links: dict[int, Section] = {}
    for node_id, sec in sections.items():
        fid = owner.get(sec.out_var)
        if fid is not None and fid == owner.get(sec.leaf_var):
            links[node_id] = sec
    return links


def chain_order(fid: str, fvars: list[str], links: dict[int, Section]):
    """Factor ``fid``'s variables in chain order, and its links in the same
    order; ``links`` may also hold the links of other factors."""
    members = set(fvars)
    succ: dict[str, Section] = {}
    pred: set[str] = set()
    for sec in links.values():
        if sec.out_var not in members:
            continue
        if sec.leaf_var in succ or sec.out_var in pred:
            raise SchedulingError(f"factor {fid!r} is not a simple chain of states")
        succ[sec.leaf_var] = sec
        pred.add(sec.out_var)
    if len(fvars) == 1:
        return list(fvars), list(succ.values())
    starts = [v for v in fvars if v not in pred]
    if len(starts) != 1:
        raise SchedulingError(f"factor {fid!r}: expected one chain start, found {starts}")
    order, chain = [starts[0]], []
    while order[-1] in succ:
        chain.append(succ[order[-1]])
        order.append(chain[-1].out_var)
    if len(order) != len(fvars):
        raise SchedulingError(f"factor {fid!r}: variables do not form a single chain")
    return order, chain


def slot_type(slot, entries: list, supports: dict[str, Support]) -> type | None:
    """Distribution class a slot holds at run time (None for a void slot);
    ``entries`` are the schedule entries that ``("entry", i)`` slots name."""
    tag = slot[0]
    if tag == "entry":
        return _VARIANTS[entries[slot[1]].out_variant]
    if tag == "marginal":
        return FAMILIES[support_of(slot[1], supports).family].belief
    if tag == "data":
        return PointMass
    if tag == "const":
        return type(slot[1])
    if tag == "site":
        return GaussianCanonical
    return None


# ---------------------------------------------------------------------------
# Schedule data model
# ---------------------------------------------------------------------------


_NOT_CANONICAL = (np.ndarray, tuple, np.floating, np.integer)


def _canon_value(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    return value


# The constants of every instruction that has none: one dict, never written.
_NO_CONSTANTS: dict = {}


def _canon_constants(constants: dict | None) -> dict:
    """``constants`` as the listing reads them back: arrays and tuples as
    lists, numpy scalars as floats. A dict that holds none of those is
    returned itself, so steps that share a layout share its dict; no
    constants (None or empty) is the shared ``_NO_CONSTANTS``."""
    if not constants:
        return _NO_CONSTANTS
    for value in constants.values():
        if isinstance(value, _NOT_CANONICAL):
            return {key: _canon_value(value) for key, value in constants.items()}
    return constants


class Instruction:
    """One pure step of a schedule or of the free-energy program, and the
    record ``codegen.AlgorithmIR`` is made of: a rule application (``rule``,
    writing ``("msg", i)``), a marginal product (``product``), a two-slice
    joint (``joint``) or a free-energy contribution (``average_energy``,
    ``entropy``, adding to ``("F",)``). ``rule_id`` names what it applies:
    a rule (rule, joint) or an energy term kind (average_energy).
    ``out_variant`` annotates a rule's outbound variant class name
    (``slot_type``, ``infer_types``); equality and the listing leave it out."""

    __slots__ = ("opcode", "output", "slots", "rule_id", "constants", "extra", "writes_site", "label",
                 "out_variant")
    _fields = __slots__[:-1]  # what equality compares

    def __init__(self, opcode, output, slots, rule_id=None, constants=None, extra=None,
                 writes_site=None, label="", out_variant=None):
        self.opcode = opcode  # rule | product | joint | average_energy | entropy
        self.output = output  # ("msg", i) | ("marginal", key) | ("F",)
        self.slots = tuple(slots)  # aligned with the rule's signature; tagged tuples
        self.rule_id = rule_id
        self.constants = _canon_constants(constants)
        self.extra = extra  # slot providing the 'previous'/linearization input
        self.writes_site = writes_site
        self.label = label
        self.out_variant = out_variant

    def __eq__(self, other):
        return isinstance(other, Instruction) and all(
            getattr(self, field) == getattr(other, field) for field in self._fields
        )


class Schedule:
    """A factor's steps: its rule instructions (``entries``, entry ``i``
    writing ``("msg", i)``), then its product and joint instructions
    (``marginal_steps``), and the initial values of its EP sites."""

    def __init__(self, factor_id):
        self.factor_id = factor_id
        self.entries: list[Instruction] = []
        self.marginal_steps: list[Instruction] = []
        self.site_inits: dict[str, Distribution] = {}

    def check_topological(self) -> bool:
        for i, entry in enumerate(self.entries):
            for slot in (*entry.slots, entry.extra) if entry.extra else entry.slots:
                if slot[0] == "entry" and slot[1] >= i:
                    return False
        return True


class FreeEnergyProgram:
    def __init__(self, energies, entropies):
        self.energies: list[Instruction] = energies  # average_energy instructions
        self.entropies: list[tuple[str, float]] = entropies  # (marginal key, weight)

    def instructions(self) -> list[Instruction]:
        """The program's instructions: the energy terms, then one entropy
        term per ``(key, weight)``; terms of one weight share its constants."""
        constants = {weight: {"weight": weight} for _, weight in self.entropies}
        return [*self.energies, *(Instruction("entropy", ("F",), [("marginal", key)], None, constants[weight])
                                  for key, weight in self.entropies)]


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


class _FactorScheduler:
    def __init__(self, facts: Factorization, factor_id, factor_vars, registry, ep_damping=None, fold=True):
        # owner: var -> factor id (stochastic latents only); links: the
        # chain links of every factor, by node id
        self.facts = facts
        self.graph, self.supports, self.owner, self.mean_sides, self.links = facts
        self.factor_id = factor_id
        self.factor_vars = list(factor_vars)
        self.registry = registry
        self.schedule = Schedule(factor_id)
        self.memo: dict[tuple[int, str], tuple] = {}
        self.in_progress: set[tuple[int, str]] = set()
        self.use_sites = bool(self.owner)
        self.ep_damping = ep_damping
        self.site_nodes: list[tuple[Node, int]] = []
        self.belief_entries: set[int] = set()
        self.fold = fold  # a mean-field marginal is one product of its inbound messages
        self.folded: list[tuple[int, str]] = []  # the partial products it stands in for
        self.marginal_reads: dict[str, tuple] = {}  # marginal key -> how ``read`` offers it
        self.constants: dict[int, dict] = {}  # node id -> the constants its messages record

    # -- slot helpers -----------------------------------------------------

    def read(self, slot) -> tuple:
        """How ``emit`` offers a slot that is not void to a rule: ``(kind,
        slot_type(slot, ...))``, the kind MARGINAL for a marginal or a belief
        transport and MESSAGE otherwise."""
        tag = slot[0]
        if tag == "entry":
            kind = MARGINAL if slot[1] in self.belief_entries else MESSAGE
            return (kind, _VARIANTS[self.schedule.entries[slot[1]].out_variant])
        if tag == "marginal":
            read = self.marginal_reads.get(slot[1])
            if read is None:
                read = (MARGINAL, FAMILIES[support_of(slot[1], self.supports).family].belief)
                self.marginal_reads[slot[1]] = read
            return read
        return (MESSAGE, slot_type(slot, self.schedule.entries, self.supports))

    def lookup(self, kind: str, role: str, slots, kinds):
        """The rule for ``slots`` read as ``kinds``, and the slots' run-time
        types (None for a void slot)."""
        types = [None if k == VOID else self.read(s)[1] for s, k in zip(slots, kinds)]
        return self.registry.lookup(kind, role, tuple(zip(kinds, types))), types

    def emit_entry(self, rule, types, slots, constants, label, extra=None, writes_site=None):
        """Append a rule instruction applying a ``lookup`` result to
        ``slots``, labelled with its edge's ``(variable, direction)``; its
        outbound variant is the rule's output type for the slots' types."""
        entries = self.schedule.entries
        entries.append(Instruction("rule", ("msg", len(entries)), slots, rule.id, constants, extra, writes_site,
                                   f"edge {label[0]} {label[1]}", rule.out_type(types, constants).__name__))
        return ("entry", len(entries) - 1)

    # -- message scheduling -------------------------------------------------

    def require(self, edge_id: int, direction: str):
        """Slot ref for the message on edge ``edge_id`` flowing ``direction``
        ('fwd' = out of the tail node, 'bwd' = out of the head node).

        A message computed from inbound messages comes out of an ``emit``
        generator, which opens each inbound message it needs; one that must
        be emitted first pushes its own generator, and the opener waits for
        it. The suspended generators wait on an explicit stack, so a
        dependency chain of any length runs in a fixed number of Python
        frames; entries are appended in the order a depth-first recursion
        would append them. ``require`` is not entered again while it runs,
        so the messages in progress are those of its stack."""
        slot = self.memo.get((edge_id, direction))
        if slot is not None:
            return slot
        stack: list = []  # suspended emit generators, innermost last
        try:
            slot = self._open((edge_id, direction), stack)
            while stack:
                try:
                    stack[-1].send(slot)
                except StopIteration as done:
                    stack.pop()
                    slot = done.value
                else:
                    slot = None  # the generator pushed another: start it
            return slot
        finally:
            self.in_progress.clear()

    def _open(self, key: tuple[int, str], stack: list):
        """The slot of a message that needs no inbound messages, or None
        after pushing the generator that will emit it onto ``stack``."""
        slot = self.memo.get(key)
        if slot is not None:
            return slot
        edge_id, direction = key
        edge = self.graph.edges[edge_id]
        source = edge.tail if direction == "fwd" else edge.head
        if source is None:
            slot = ("const", vague_for(support_of(edge.variable, self.supports)))
            self.memo[key] = slot
            return slot
        node = self.graph.nodes[source[0]]
        if node.kind == "clamp":
            slot = clamp_slot(node)
            self.memo[key] = slot
            return slot
        kind, role = node.kind, node.roles(self.graph)[source[1]]
        if self.use_sites and kind in ("probit", "nonlinear") and role == "in":
            # Backward messages out of these nodes depend on the smoothed
            # cavity, which is circular within one sweep: hold them in a
            # persistent site slot refreshed after the passes.
            site = f"{node.kind}{node.id}"
            if site not in self.schedule.site_inits:
                self.schedule.site_inits[site] = GaussianCanonical([0.0], [[1e-12]])
                self.site_nodes.append((node, edge_id))
            slot = ("site", site)
            self.memo[key] = slot
            return slot
        if self.use_sites and kind in ("gain", "addition") and role == "out":
            transported = self.try_belief_transport(node, edge, direction)
            if transported is not None:
                self.memo[key] = transported
                return transported
        if key in self.in_progress:
            raise SchedulingError(
                f"message dependency cycle at edge {edge.variable!r}; "
                "a recognition factorization must break this loop"
            )
        if kind in GAUSSIAN_NODE_KINDS and role == "precision":
            slot = self.memo[key] = self.emit_precision_update(node)
            return slot
        if kind == "transition" and role == "matrix":
            slot = self.memo[key] = self.emit_matrix_update(node)
            return slot
        self.in_progress.add(key)
        stack.append(self.emit(node, source[1], key, stack))
        return None

    def inbound(self, node: Node, iface: int):
        """What a node reads on an interface: a ``("marginal", var)`` slot
        when the variable belongs to another recognition factor, else the
        ``(edge_id, direction)`` of the message flowing into the node."""
        edge_id = node.interfaces[iface]
        edge = self.graph.edges[edge_id]
        fam = self.owner.get(edge.variable)
        if fam is not None and fam != self.factor_id:
            return ("marginal", edge.variable)
        head = edge.head
        return (edge_id, "fwd" if head is not None and head[0] == node.id and head[1] == iface else "bwd")

    def inbound_slot(self, node: Node, iface: int):
        target = self.inbound(node, iface)
        return target if target[0] == "marginal" else self.require(*target)

    def try_belief_transport(self, node: Node, edge, direction: str):
        """When a deterministic subtree depends only on other factors'
        variables, emit its marginal as an affine belief transport; consumers
        then see a marginal (mean-shift semantics) rather than a message."""
        consumer = edge.head if direction == "fwd" else edge.tail
        if consumer is None:
            return None
        for edge_id in node.interfaces[1:]:
            # an input of this factor's own is a leaf of the walk below (a
            # latent variable has a stochastic producer), so no transport
            if edge_id is not None and self.owner.get(self.graph.edges[edge_id].variable) == self.factor_id:
                return None
        try:
            info = affine_subtree(self.graph, edge.id, consumer, support_of(edge.variable, self.supports).dim,
                                  node.id)
        except SchedulingError:
            return None
        if info.nonlinear is not None or not info.leaves:
            return None
        for leaf in info.leaves:
            fam = self.owner.get(leaf)
            if fam is None or fam == self.factor_id:
                return None
        slots, constants = self.mean_sides.layout(info, marginal_slot)
        slots.append(("void",))
        found = self.lookup("gaussian_affine", "transport", slots, [MARGINAL] * (len(slots) - 1) + [VOID])
        slot = self.emit_entry(*found, slots, constants, (edge.variable, direction))
        self.belief_entries.add(slot[1])
        return slot

    def emit(self, node: Node, out_iface: int, key: tuple[int, str], stack: list):
        """Generator: opens each inbound message it needs; when that pushes
        the message's own generator onto ``stack``, it yields and receives
        the message's slot. Then it emits the message on ``key`` out of
        interface ``out_iface`` and returns its slot, memoized. (A precision
        or transition-matrix update reads no message: ``_open`` emits it.)"""
        edge_id, direction = key
        roles = node.roles(self.graph)
        role = roles[out_iface]
        slots, query = [], []
        memo, read = self.memo, self.read
        for idx in range(len(node.interfaces)):
            if idx == out_iface:
                slots.append(("void",))
                query.append((VOID, None))
                continue
            target = self.inbound(node, idx)
            if target[0] == "marginal":
                slot = target
            else:
                slot = memo.get(target) or self._open(target, stack)
                if slot is None:
                    slot = yield
            slots.append(slot)
            query.append(read(slot))
        rule = self.registry.lookup(node.kind, role, query)
        types = [t for _, t in query]
        if role.startswith("precision"):
            constants = dict(node.constants)
            constants["out_dim"] = support_of(self.graph.edges[node.interfaces[0]].variable, self.supports).dim
            constants.update(self.precision_family(self.graph.edges[edge_id].variable))
        else:
            constants = self.node_constants(node)
        extra = None
        if rule.needs_previous and node.kind == "nonlinear":
            # linearization point: the forward inbound on the in interface
            in_idx = roles.index("in")
            in_edge = node.interfaces[in_idx]
            toward = "fwd" if self.graph.edges[in_edge].head == (node.id, in_idx) else "bwd"
            extra = self._open((in_edge, toward), stack)
            if extra is None:
                extra = yield
        slot = self.memo[key] = self.emit_entry(rule, types, slots, constants,
                                                (self.graph.edges[edge_id].variable, direction), extra)
        self.in_progress.discard(key)
        return slot

    def node_constants(self, node: Node) -> dict:
        """The constants the node's messages record: one canonical copy of
        ``node.constants`` per node, shared by its messages (a copy even
        where the graph's dict is canonical, as the graph may change)."""
        constants = self.constants.get(node.id)
        if constants is None:
            constants = _canon_constants(node.constants)
            if constants is node.constants:
                constants = dict(constants)
            self.constants[node.id] = constants
        return constants

    # -- composed parameter updates -----------------------------------------

    def out_belief_slot(self, node: Node, sec: Section | None):
        out_edge = self.graph.edges[node.interfaces[0]]
        out_var = out_edge.variable
        if sec is not None:
            return ("marginal", joint_key(sec.leaf_var, sec.out_var))
        if self.owner.get(out_var) is not None:
            return ("marginal", out_var)
        # clamped output: locate the datum
        head = out_edge.head if out_edge.head and self.graph.node_at(out_edge.head).kind == "clamp" else out_edge.tail
        return clamp_slot(self.graph.node_at(head))

    def precision_family(self, var: str) -> dict:
        """The constant that names the family of a precision belief where
        its dimension does not: a 1x1 Wishart (a scalar precision is a Gamma
        otherwise)."""
        sup = support_of(var, self.supports)
        return {"family": "wishart"} if sup.family == "wishart" and sup.dim == 1 else {}

    def emit_precision_update(self, node: Node):
        roles = node.roles(self.graph)
        out_dim = support_of(self.graph.edges[node.interfaces[0]].variable, self.supports).dim
        info = self.mean_sides[node.id]
        sec = self.links.get(node.id)
        prec_var = self.graph.edges[node.interfaces[roles.index("precision")]].variable
        if info.nonlinear is not None:
            kind, extra = "gaussian_nonlinear", {"out_dim": out_dim}
        else:
            kind, extra = "gaussian_affine", {"joint": sec is not None, "out_dim": out_dim}
        extra.update(self.precision_family(prec_var))
        out_slot = self.out_belief_slot(node, sec)
        leaf_slots, constants = self.mean_sides.layout(info, marginal_slot, sec and sec.leaf_var, **extra)
        slots = [out_slot, *leaf_slots, ("void",)]
        found = self.lookup(kind, "precision", slots, [MARGINAL] * (len(slots) - 1) + [VOID])
        return self.emit_entry(*found, slots, constants, (prec_var, "bwd"))

    def emit_matrix_update(self, node: Node):
        roles = node.roles(self.graph)
        out_var = self.graph.edges[node.interfaces[0]].variable
        in_var = self.graph.edges[node.interfaces[roles.index("in")]].variable
        label = (self.graph.edges[node.interfaces[roles.index("matrix")]].variable, "bwd")
        if node.id in self.links:
            slots = [("marginal", joint_key(in_var, out_var)), ("void",), ("void",)]
            kinds = [MARGINAL, VOID, VOID]
        else:
            slots = [("marginal", out_var), ("marginal", in_var), ("void",)]
            kinds = [MARGINAL, MARGINAL, VOID]
        return self.emit_entry(*self.lookup("transition", "matrix", slots, kinds), slots, {}, label)

    # -- per-factor driver ----------------------------------------------------

    def frontier(self, var: str) -> int:
        return self.graph.last_edge(var).id

    def build(self) -> Schedule:
        """The factor's schedule. A chain factor is swept forward, then
        backward, and each variable's marginal is the product of the two
        messages on its last edge. A mean-field factor's marginal is the
        product of all its inbound messages (``product_inputs``), unless
        another message reads a partial product of the variable's equality
        chain; then it is scheduled as a chain's is, the folds as entries."""
        order, chain = chain_order(self.factor_id, self.factor_vars, self.links)
        if chain or not self.fold:
            inputs = {var: [self.require(self.frontier(var), "fwd")] for var in order}
            for var in reversed(order):
                if self.graph.edges[self.frontier(var)].head is not None:
                    inputs[var].append(self.require(self.frontier(var), "bwd"))
        else:
            inputs = {var: self.product_inputs(var) for var in order}
        # Site refreshes: the cavity (collision of everything except the
        # node's own contribution) is available once both passes are done.
        for node, in_edge_id in self.site_nodes:
            in_edge = self.graph.edges[in_edge_id]
            site = f"{node.kind}{node.id}"
            if node.kind == "probit":
                cavity_ref = self.require_toward(node, in_edge_id)
                datum_slot = self.inbound_slot(node, 0)
                slots = [datum_slot, cavity_ref]
                constants = {"damping": self.ep_damping} if self.ep_damping else {}
                self.emit_entry(*self.lookup("probit", "in", slots, [MESSAGE, CAVITY]), slots, constants,
                                (in_edge.variable, "bwd"), extra=("site", site), writes_site=site)
            else:
                # nonlinear: linearize around the mean of the inbound
                # (cavity-side) message; out side supplies the likelihood.
                out_side = self.require_toward(node, node.interfaces[0])
                lin_ref = self.require_toward(node, in_edge_id)
                slots = [out_side, ("void",)]
                self.emit_entry(*self.lookup("nonlinear", "in", slots, [MESSAGE, VOID]), slots,
                                dict(node.constants), (in_edge.variable, "bwd"), extra=lin_ref, writes_site=site)
        if any(key in self.memo for key in self.folded):
            return _FactorScheduler(self.facts, self.factor_id, self.factor_vars, self.registry,
                                    self.ep_damping, fold=False).build()
        for var in order:
            self.schedule.marginal_steps.append(Instruction("product", ("marginal", var), inputs[var]))
        self.emit_joints(chain)
        return self.schedule

    def product_inputs(self, var: str) -> list:
        """The slots of the messages whose product is ``var``'s marginal, in
        the order the equality chain on the variable folds them: the message
        into the chain's first link, each link's other inbound message, first
        link first, and the message back along the variable's last edge.

        The chain is walked up from the last edge, without emitting its
        partial products (the messages between links), which
        ``self.folded`` records: a fold is the product of its first and
        second inbound messages, in interface order, and the walk goes on
        through the first while that comes out of an equality node too."""
        edge_id = self.frontier(var)
        key, readers = (edge_id, "fwd"), []
        while key not in self.memo:
            edge = self.graph.edges[key[0]]
            source = edge.tail if key[1] == "fwd" else edge.head
            if source is None or self.graph.node_at(source).kind != "equality":
                break
            node = self.graph.node_at(source)
            first, second = (self.inbound(node, i) for i in range(3) if i != source[1])
            self.folded.append(key)
            readers.append(second)
            key = first
        slots = [self.require(*key)]
        slots.extend(self.require(*target) for target in reversed(readers))
        if self.graph.edges[edge_id].head is not None:
            slots.append(self.require(edge_id, "bwd"))
        return slots

    def require_toward(self, node: Node, edge_id: int):
        """Message on the edge flowing toward the given node."""
        edge = self.graph.edges[edge_id]
        if edge.tail is not None and self.graph.node_at(edge.tail).id == node.id:
            direction = "bwd"
        else:
            direction = "fwd"
        return self.require(edge_id, direction)

    def emit_joints(self, chain: list[Section]):
        for sec in chain:
            node = sec.node
            out_edge_id = node.interfaces[0]
            out_side = self.require_toward(node, out_edge_id)
            if sec.kind == "transition":
                roles = node.roles(self.graph)
                in_edge = node.interfaces[roles.index("in")]
                leaf_ref = self.require_toward(node, in_edge)
                matrix_slot = self.inbound_slot(node, roles.index("matrix"))
                slots = [out_side, leaf_ref, matrix_slot]
                kind, constants = "transition", {}
            else:
                leaf_ref = self.require(*sec.mean_info.leaf_edges[sec.leaf_var])
                leaf_slots, constants = self.mean_sides.layout(sec.mean_info, marginal_slot, sec.leaf_var)
                prec_slot = self.inbound_slot(node, 2)  # a precision or a fixed variance
                slots = [out_side, leaf_ref, *leaf_slots, prec_slot]
                kind = "gaussian_affine_variance" if node.kind == "gaussian_mean_variance" else "gaussian_affine"
            rule, _ = self.lookup(kind, "joint", slots, [MESSAGE, MESSAGE] + [MARGINAL] * (len(slots) - 2))
            self.schedule.marginal_steps.append(
                Instruction("joint", ("marginal", joint_key(sec.leaf_var, sec.out_var)), slots, rule.id, constants)
            )


# ---------------------------------------------------------------------------
# Public scheduling operations
# ---------------------------------------------------------------------------


def _prepare(graph: FactorGraph, registry: RuleRegistry) -> FactorGraph:
    """Expand composite instances whose kinds carry no custom rules."""
    if not graph.composites:
        return graph
    needs_flatten = any(
        node.kind in graph.composites and not registry.has_rules_for(node.kind)
        for node in graph.nodes
    )
    return graph.flatten() if needs_flatten else graph


class Factorization(NamedTuple):
    """The facts a recognition factorization fixes on a graph, derived once
    for everything that reads them: the scheduled graph (composites without
    custom rules expanded), the supports of variables and of the chain
    links' two-slice joints, the owning factor of each latent variable,
    mean-side analyses and the chain links."""

    graph: FactorGraph
    supports: dict[str, Support]
    owner: dict[str, str]
    mean_sides: MeanSides
    links: dict[int, Section]


def analyze_factorization(graph: FactorGraph | Factorization, rf: RecognitionFactorization,
                          registry: RuleRegistry) -> Factorization:
    """The one derivation of a ``Factorization``: schedules, the free-energy
    program, the marginal table and streaming re-anchoring all read it. A
    ``Factorization`` given as ``graph`` is returned as it is, so the stages
    that take a graph also take one derived for the same ``rf`` and registry."""
    if isinstance(graph, Factorization):
        return graph
    graph = _prepare(graph, registry)
    supports = infer_supports(graph)
    rf.validate(graph, supports)
    owner = rf.factor_of()
    mean_sides = MeanSides(graph, supports)
    links = factor_links(analyze_sections(graph, supports, mean_sides), owner)
    for sec in links.values():
        key = joint_key(sec.leaf_var, sec.out_var)
        supports[key] = support_of(key, supports)
    return Factorization(graph, supports, owner, mean_sides, links)


def schedule_sum_product(graph: FactorGraph, targets, registry: RuleRegistry | None = None) -> Schedule:
    """Depth-first post-order sum-product schedule covering the targets.

    Each target's two colliding messages are computed, messages are memoized
    across targets, and a cycle raises a diagnostic (loopy propagation is out
    of scope)."""
    registry = registry or default_registry()
    graph = _prepare(graph, registry)
    supports = infer_supports(graph)
    facts = Factorization(graph, supports, {}, MeanSides(graph, supports), {})
    sched = _FactorScheduler(facts, "sum_product", list(targets), registry)
    for var in targets:
        edges = graph.variable_edges(var)
        if not edges:
            raise SchedulingError(f"unknown target variable {var!r}")
        edge = edges[-1]
        fwd = sched.require(edge.id, "fwd")
        inputs = [fwd]
        if edge.head is not None:
            inputs.append(sched.require(edge.id, "bwd"))
        sched.schedule.marginal_steps.append(Instruction("product", ("marginal", var), inputs))
    return sched.schedule


def schedule_vmp(
    graph: FactorGraph | Factorization,
    rf: RecognitionFactorization,
    registry: RuleRegistry | None = None,
    ep_damping: float | None = None,
) -> dict[str, Schedule]:
    """One sub-schedule per recognition factor, in declaration order.

    State-sequence factors are swept forward then backward; messages crossing
    factor boundaries read the neighbor factor's marginals (variational or EP
    flavor); two-slice joints are produced for chain sections."""
    registry = registry or default_registry()
    facts = analyze_factorization(graph, rf, registry)
    return {fid: _FactorScheduler(facts, fid, fvars, registry, ep_damping).build()
            for fid, fvars in rf.factors}


def infer_types(graph: FactorGraph, schedules, registry: RuleRegistry | None = None):
    """Re-derive and check outbound variant annotations by forward propagation
    through rule lookup. Returns the annotated schedules (same objects)."""
    registry = registry or default_registry()
    supports = infer_supports(_prepare(graph, registry))
    items = schedules.values() if isinstance(schedules, dict) else [schedules]
    for schedule in items:
        for entry in schedule.entries:
            rule = registry.by_id(entry.rule_id)
            in_types = [slot_type(slot, schedule.entries, supports) for slot in entry.slots]
            entry.out_variant = rule.out_type(in_types, entry.constants).__name__
    return schedules


# ---------------------------------------------------------------------------
# Free-energy program
# ---------------------------------------------------------------------------


class TermLayout:
    """What a node kind's energy layout (``NodeKind.energy``) reads of one
    factorization: the slot holding each variable's belief, the mean sides
    and the chain links."""

    error = SchedulingError

    def __init__(self, facts: Factorization):
        self.graph, _, self.owner, self.mean_sides, self.links = facts
        self.clamps = clamped_variables(self.graph)

    def belief(self, var: str):
        if var in self.owner:
            return ("marginal", var)
        if var in self.clamps:
            return clamp_slot(self.clamps[var])
        raise SchedulingError(f"no belief available for variable {var!r}")

    def belief_at(self, node: Node, role: str):
        """The belief slot of the variable on ``node``'s ``role`` interface."""
        return self.belief(self.graph.edges[node.interfaces[node.roles(self.graph).index(role)]].variable)

    def beliefs(self, node: Node) -> list:
        """The belief slots of all of ``node``'s interfaces, in order."""
        return [self.belief(self.graph.edges[e].variable) for e in node.interfaces]

    def joint(self, link: Section):
        """The two-slice joint belief of a chain link."""
        return ("marginal", joint_key(link.leaf_var, link.out_var))


def schedule_free_energy(
    graph: FactorGraph | Factorization,
    rf: RecognitionFactorization,
    registry: RuleRegistry | None = None,
) -> FreeEnergyProgram:
    """F = sum of node average energies minus recognition entropy, with the
    structured chain entropy expanded through the two-slice identity. Each
    stochastic node's energy term is laid out by its kind's record."""
    facts = analyze_factorization(graph, rf, registry or default_registry())
    graph, links, layout = facts.graph, facts.links, TermLayout(facts)
    energies: list[Instruction] = []
    for node in graph.nodes:
        energy = graph.kind_of(node).energy
        if energy is not None:
            term, slots, constants, label = energy(node, layout)
            energies.append(Instruction("average_energy", ("F",), slots, term, constants,
                                        label=f"node{node.id}:{label}"))

    entropies: list[tuple[str, float]] = []
    for fid, fvars in rf.factors:
        members = set(fvars)
        sched_secs = [s for s in links.values() if s.out_var in members]
        if not sched_secs:
            for v in fvars:
                entropies.append((v, 1.0))
            continue
        succ = {s.leaf_var: s.out_var for s in sched_secs}
        pred = {s.out_var: s.leaf_var for s in sched_secs}
        for s in sched_secs:
            entropies.append((joint_key(s.leaf_var, s.out_var), 1.0))
        for v in fvars:
            if v in succ and v in pred:
                entropies.append((v, -1.0))
    return FreeEnergyProgram(energies, entropies)
