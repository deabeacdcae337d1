"""Schedule generation: sum-product and hybrid VMP/EP message sequences,
rule selection with message-type inference, and the free-energy program.

A schedule is an ordered list of message updates with backward-only
dependencies, plus marginal-combination steps. Variational schedules are
generated per recognition factor: edges inside a factor carry messages,
edges owned by other factors are read through their current marginals, and
state-sequence factors are swept forward (filtering) then backward
(smoothing) before their single and two-slice marginals are combined.

EP messages (probit sites) introduce circular dependencies; they are held in
persistent site slots initialized to an uninformative Gaussian, read during
the sweeps, and rewritten from fresh cavities at the end of each sweep, which
keeps every per-sweep schedule acyclic.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from ._linalg import as_matrix
from .distributions import (
    Categorical,
    Dirichlet,
    Distribution,
    Gamma,
    GaussianCanonical,
    GaussianMeanVariance,
    PointMass,
    Wishart,
    _VARIANTS,
    vague,
)
from .graph import STOCHASTIC_KINDS, FactorGraph, Node, Support, infer_supports
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


MARGINAL_CLASS = {
    "gaussian": GaussianMeanVariance,
    "gamma": Gamma,
    "wishart": Wishart,
    "dirichlet": Dirichlet,
    "categorical": Categorical,
    "binary": PointMass,
    "point": PointMass,
}

GAUSSIAN_NODE_KINDS = ("gaussian_mean_precision", "gaussian_mean_variance")
DETERMINISTIC_WALK_KINDS = ("gain", "addition", "nonlinear")


def joint_key(leaf_var: str, out_var: str) -> str:
    return f"{leaf_var}&{out_var}"


def vague_for(sup: Support) -> Distribution:
    """Uninformative default for a variable or marginal-table key of the
    given support; a two-dimensional categorical support is a two-slice joint."""
    if sup.family == "categorical":
        if len(sup.shape) == 2:
            k_out, k_in = sup.shape
            return Categorical(np.full((k_out, k_in), 1.0 / (k_out * k_in)))
        return vague("categorical", sup.shape[0])
    if sup.family == "gamma":
        return vague("gamma")
    if sup.family == "wishart":
        return vague("wishart", sup.shape)
    if sup.family == "dirichlet":
        return vague("dirichlet", sup.shape)
    return vague("gaussian", sup.dim)


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
        seen: set[str] = set()
        for fid, vs in self.factors:
            for v in vs:
                if v in seen:
                    raise SchedulingError(f"variable {v!r} appears in more than one factor")
                seen.add(v)
                if v not in latent:
                    raise SchedulingError(
                        f"factor {fid!r} lists {v!r}, which is not a latent stochastic variable"
                    )
        missing = [v for v in latent if v not in seen]
        if missing:
            raise SchedulingError(f"factorization does not cover latent variables {missing}")

    @classmethod
    def from_json(cls, obj) -> "RecognitionFactorization":
        return cls([(f["id"], list(f["variables"])) for f in obj["factors"]])


def clamped_variables(graph: FactorGraph) -> set[str]:
    out = set()
    for node in graph.nodes:
        if node.kind == "clamp":
            out.add(graph.edges[node.interfaces[0]].variable)
    return out


def latent_stochastic_variables(graph: FactorGraph, supports=None) -> list[str]:
    """Variables produced by a stochastic node and not clamped, in edge order."""
    clamped = clamped_variables(graph)
    names: list[str] = []
    for edge in graph.edges:
        if edge.variable in clamped or edge.variable in names:
            continue
        if edge.tail is None:
            continue
        producer = graph.node_at(edge.tail)
        if producer.kind in STOCHASTIC_KINDS and edge.tail[1] == 0:
            names.append(edge.variable)
    return names


def default_factorization(graph: FactorGraph) -> RecognitionFactorization:
    """Structured default: each transition chain becomes one joint factor,
    every other latent variable gets its own mean-field factor."""
    supports = infer_supports(graph)
    latent = latent_stochastic_variables(graph, supports)
    sections = analyze_sections(graph, supports)
    succ: dict[str, str] = {}
    pred: dict[str, str] = {}
    for sec in sections.values():
        if sec.leaf_var in latent and sec.out_var in latent:
            succ[sec.leaf_var] = sec.out_var
            pred[sec.out_var] = sec.leaf_var
    chains: list[tuple[str, list[str]]] = []
    singles: list[tuple[str, list[str]]] = []
    used: set[str] = set()
    for v in latent:
        if v in used:
            continue
        if v in succ or v in pred:
            start = v
            while start in pred and pred[start] not in used and pred[start] != start:
                start = pred[start]
            chain = [start]
            while chain[-1] in succ:
                chain.append(succ[chain[-1]])
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
    node's mean input: mean = g(sum_i G_i v_i + c)."""

    def __init__(self):
        self.leaves: list[tuple[str, np.ndarray]] = []
        self.offset: np.ndarray | None = None
        self.nonlinear: str | None = None

    def leaf_vars(self) -> list[str]:
        return [v for v, _ in self.leaves]


def analyze_mean_side(graph: FactorGraph, node: Node, out_dim: int) -> MeanSideInfo:
    roles = node.roles(graph)
    mean_idx = roles.index("mean") if "mean" in roles else roles.index("in")
    return affine_subtree(graph, node.interfaces[mean_idx], (node.id, mean_idx), out_dim, node.id)


def affine_subtree(graph: FactorGraph, root_edge: int, root_site, out_dim: int, node_id) -> MeanSideInfo:
    """Decompose the producer side of an edge into g(sum_i G_i v_i + c)."""
    info = MeanSideInfo()
    node = graph.nodes[node_id]

    def walk(edge_id: int, consumer_site, gain: np.ndarray):
        edge = graph.edges[edge_id]
        site = graph.neighbor_site(edge, consumer_site)
        if site is None:
            _add_leaf(info, edge.variable, gain)
            return
        src = graph.node_at(site)
        src_roles = src.roles(graph)
        if src.kind == "clamp":
            value = src.constants.get("value")
            if value is None:
                raise SchedulingError(
                    f"placeholder data cannot appear on the mean side of node {node.id}"
                )
            contrib = gain @ np.atleast_1d(np.asarray(value, dtype=float))
            info.offset = contrib if info.offset is None else info.offset + contrib
            return
        if src.kind == "gain" and src_roles[site[1]] == "out":
            a = as_matrix(src.constants["matrix"])
            in_idx = src_roles.index("in")
            walk(src.interfaces[in_idx], (src.id, in_idx), gain @ a)
            return
        if src.kind == "addition" and src_roles[site[1]] == "out":
            for role in ("in1", "in2"):
                idx = src_roles.index(role)
                walk(src.interfaces[idx], (src.id, idx), gain)
            return
        if src.kind == "nonlinear" and src_roles[site[1]] == "out":
            if info.nonlinear is not None or info.leaves or info.offset is not None:
                raise SchedulingError(
                    f"unsupported nonlinear composition at node {node.id}"
                )
            info.nonlinear = src.constants["g"]
            in_idx = src_roles.index("in")
            walk(src.interfaces[in_idx], (src.id, in_idx), gain)
            return
        # equality or stochastic producer: a shared variable
        _add_leaf(info, edge.variable, gain)

    walk(root_edge, root_site, np.eye(out_dim))
    return info


def _add_leaf(info: MeanSideInfo, var: str, gain: np.ndarray):
    for i, (v, g) in enumerate(info.leaves):
        if v == var:
            info.leaves[i] = (v, g + gain)
            return
    info.leaves.append((var, gain))


class Section:
    """One chain transition: out_var ~ f(leaf_var, parameters)."""

    def __init__(self, node, leaf_var, out_var, kind, mean_info=None, prec_var=None, matrix_var=None):
        self.node = node
        self.leaf_var = leaf_var
        self.out_var = out_var
        self.kind = kind  # "gaussian" | "transition"
        self.mean_info = mean_info
        self.prec_var = prec_var
        self.matrix_var = matrix_var


def analyze_sections(graph: FactorGraph, supports) -> dict[int, Section]:
    """Map stochastic transition-like nodes to (leaf -> out) section records."""
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
            matrix_var = graph.edges[node.interfaces[roles.index("matrix")]].variable
            if in_var in clamped:
                continue
            sections[node.id] = Section(node, in_var, out_var, "transition", matrix_var=matrix_var)
            continue
        sup = supports.get(out_var)
        out_dim = sup.dim if sup else 1
        try:
            mean_info = analyze_mean_side(graph, node, out_dim)
        except SchedulingError:
            continue
        if mean_info.nonlinear is not None:
            continue
        prec_role = "precision" if "precision" in roles else "variance"
        prec_var = graph.edges[node.interfaces[roles.index(prec_role)]].variable
        candidates = [v for v in mean_info.leaf_vars() if v not in clamped]
        if len(candidates) >= 1:
            sections[node.id] = Section(
                node, candidates[0], out_var, "gaussian", mean_info=mean_info, prec_var=prec_var
            )
    return sections


# ---------------------------------------------------------------------------
# Schedule data model
# ---------------------------------------------------------------------------


class ScheduleEntry:
    def __init__(self, rule_id, slots, out_variant, constants, edge_label, extra=None, writes_site=None):
        self.rule_id = rule_id
        self.slots = slots  # aligned with rule signature; tagged tuples
        self.out_variant = out_variant  # variant class name (annotation)
        self.constants = constants
        self.edge_label = edge_label  # (variable, direction) for listings
        self.extra = extra  # slot providing the 'previous'/linearization input
        self.writes_site = writes_site

    def referenced_entries(self):
        for slot in list(self.slots) + ([self.extra] if self.extra else []):
            if slot and slot[0] == "entry":
                yield slot[1]


class MarginalStep:
    def __init__(self, key, inputs):
        self.key = key
        self.inputs = inputs  # entry slot refs


class JointStep:
    def __init__(self, key, rule_id, slots, constants):
        self.key = key
        self.rule_id = rule_id
        self.slots = slots
        self.constants = constants


class Schedule:
    def __init__(self, factor_id):
        self.factor_id = factor_id
        self.entries: list[ScheduleEntry] = []
        self.marginal_steps: list[MarginalStep | JointStep] = []
        self.site_inits: dict[str, Distribution] = {}

    def check_topological(self) -> bool:
        for i, entry in enumerate(self.entries):
            if any(j >= i for j in entry.referenced_entries()):
                return False
        return True


class FreeEnergyTerm:
    def __init__(self, kind, slots, constants=None, label=""):
        self.kind = kind
        self.slots = slots
        self.constants = constants or {}
        self.label = label


class FreeEnergyProgram:
    def __init__(self, energies, entropies):
        self.energies: list[FreeEnergyTerm] = energies
        self.entropies: list[tuple[str, float]] = entropies  # (marginal key, weight)


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


class _FactorScheduler:
    def __init__(self, graph, supports, owner, factor_id, factor_vars, sections, registry,
                 ep_damping=None):
        self.graph = graph
        self.supports = supports
        self.owner = owner  # var -> factor id (stochastic latents only)
        self.factor_id = factor_id
        self.factor_vars = list(factor_vars)
        self.sections = sections
        self.registry = registry
        self.schedule = Schedule(factor_id)
        self.memo: dict[tuple[int, str], tuple] = {}
        self.in_progress: set[tuple[int, str]] = set()
        self.use_sites = bool(owner)
        self.ep_damping = ep_damping
        self.site_nodes: list[tuple[Node, int]] = []
        self.belief_entries: set[int] = set()

    # -- slot helpers -----------------------------------------------------

    def slot_variant(self, slot) -> type | None:
        tag = slot[0]
        if tag == "entry":
            return _VARIANTS[self.schedule.entries[slot[1]].out_variant]
        if tag == "marginal":
            return self.marginal_variant(slot[1])
        if tag in ("data",):
            return PointMass
        if tag == "const":
            return type(slot[1])
        if tag == "site":
            return GaussianCanonical
        return None

    def marginal_variant(self, key: str) -> type:
        if "&" in key:
            leaf, out = key.split("&", 1)
            fam = self.supports[out].family
            return Categorical if fam == "categorical" else GaussianMeanVariance
        sup = self.supports.get(key)
        return MARGINAL_CLASS.get(sup.family if sup else "gaussian", GaussianMeanVariance)

    def query_of(self, slots, kinds):
        return [
            (k, None) if k == VOID else (k, self.slot_variant(s))
            for s, k in zip(slots, kinds)
        ]

    # -- message scheduling -------------------------------------------------

    def require(self, edge_id: int, direction: str):
        """Slot ref for the message on edge ``edge_id`` flowing ``direction``
        ('fwd' = out of the tail node, 'bwd' = out of the head node)."""
        key = (edge_id, direction)
        if key in self.memo:
            return self.memo[key]
        edge = self.graph.edges[edge_id]
        source = edge.tail if direction == "fwd" else edge.head
        if source is None:
            slot = ("const", vague_for(self.supports.get(edge.variable, Support("gaussian", ()))))
            self.memo[key] = slot
            return slot
        node = self.graph.node_at(source)
        if node.kind == "clamp":
            if "placeholder" in node.constants:
                slot = ("data", (node.constants["placeholder"], node.constants["index"]))
            else:
                slot = ("const", PointMass(node.constants["value"]))
            self.memo[key] = slot
            return slot
        if (
            self.use_sites
            and node.kind in ("probit", "nonlinear")
            and node.roles(self.graph)[source[1]] == "in"
        ):
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
        if (
            self.use_sites
            and node.kind in ("gain", "addition")
            and node.roles(self.graph)[source[1]] == "out"
        ):
            transported = self.try_belief_transport(node, edge, direction)
            if transported is not None:
                self.memo[key] = transported
                return transported
        if key in self.in_progress:
            raise SchedulingError(
                f"message dependency cycle at edge {edge.variable!r}; "
                "a recognition factorization must break this loop"
            )
        self.in_progress.add(key)
        try:
            slot = self.emit(node, source[1], edge_id, direction)
        finally:
            self.in_progress.discard(key)
        self.memo[key] = slot
        return slot

    def inbound_slot(self, node: Node, iface: int):
        edge_id = node.interfaces[iface]
        edge = self.graph.edges[edge_id]
        var = edge.variable
        fam = self.owner.get(var)
        if fam is not None and fam != self.factor_id:
            return ("marginal", var), MARGINAL
        toward = "fwd" if edge.head == (node.id, iface) else "bwd"
        slot = self.require(edge_id, toward)
        kind = MARGINAL if slot[0] == "entry" and slot[1] in self.belief_entries else MESSAGE
        return slot, kind

    def try_belief_transport(self, node: Node, edge, direction: str):
        """When a deterministic subtree depends only on other factors'
        variables, emit its marginal as an affine belief transport; consumers
        then see a marginal (mean-shift semantics) rather than a message."""
        consumer = edge.head if direction == "fwd" else edge.tail
        if consumer is None:
            return None
        sup = self.supports.get(edge.variable, Support("gaussian", ()))
        try:
            info = affine_subtree(self.graph, edge.id, consumer, sup.dim, node.id)
        except SchedulingError:
            return None
        if info.nonlinear is not None or not info.leaves:
            return None
        for leaf, _ in info.leaves:
            fam = self.owner.get(leaf)
            if fam is None or fam == self.factor_id:
                return None
        slots = [("marginal", v) for v, _ in info.leaves]
        constants = {"gains": [g.tolist() for _, g in info.leaves]}
        if info.offset is not None:
            constants["offset"] = info.offset.tolist()
        query = [(MARGINAL, self.slot_variant(sl)) for sl in slots] + [(VOID, None)]
        rule = self.registry.lookup("gaussian_affine", "transport", query)
        slot = self.append_entry(
            rule, slots + [("void",)], rule.out_type(None, constants).__name__,
            constants, (edge.variable, direction),
        )
        self.belief_entries.add(slot[1])
        return slot

    def emit(self, node: Node, out_iface: int, edge_id: int, direction: str):
        roles = node.roles(self.graph)
        role = roles[out_iface]
        if node.kind in GAUSSIAN_NODE_KINDS and role in ("precision", "variance"):
            return self.emit_precision_update(node)
        if node.kind == "transition" and role == "matrix":
            return self.emit_matrix_update(node)
        slots, kinds = [], []
        for idx in range(len(node.interfaces)):
            if idx == out_iface:
                slots.append(("void",))
                kinds.append(VOID)
            else:
                slot, kind = self.inbound_slot(node, idx)
                slots.append(slot)
                kinds.append(kind)
        query = self.query_of(slots, kinds)
        rule = self.registry.lookup(node.kind, role, query)
        constants = dict(node.constants)
        if role.startswith("precision"):
            out_var = self.graph.edges[node.interfaces[0]].variable
            sup = self.supports.get(out_var)
            constants["out_dim"] = sup.dim if sup else 1
        extra = None
        if rule.needs_previous and node.kind == "nonlinear":
            # linearization point: the forward inbound on the in interface
            in_idx = roles.index("in")
            in_edge = node.interfaces[in_idx]
            toward = "fwd" if self.graph.edges[in_edge].head == (node.id, in_idx) else "bwd"
            extra = self.require(in_edge, toward)
        out_variant = rule.out_type([q[1] for q in query], constants).__name__
        return self.append_entry(rule, slots, out_variant, constants,
                                 (self.graph.edges[edge_id].variable, direction), extra)

    def append_entry(self, rule, slots, out_variant, constants, label, extra=None, writes_site=None):
        entry = ScheduleEntry(rule.id, slots, out_variant, constants, label, extra, writes_site)
        self.schedule.entries.append(entry)
        return ("entry", len(self.schedule.entries) - 1)

    # -- composed parameter updates -----------------------------------------

    def out_belief_slot(self, node: Node):
        out_edge = self.graph.edges[node.interfaces[0]]
        out_var = out_edge.variable
        sec = self.sections.get(node.id)
        if sec is not None and self.owner.get(sec.out_var) == self.owner.get(sec.leaf_var) and self.owner.get(sec.out_var) is not None:
            return ("marginal", joint_key(sec.leaf_var, sec.out_var)), True
        if self.owner.get(out_var) is not None:
            return ("marginal", out_var), False
        # clamped output: locate the datum
        head = out_edge.head if out_edge.head and self.graph.node_at(out_edge.head).kind == "clamp" else out_edge.tail
        clamp = self.graph.node_at(head)
        if "placeholder" in clamp.constants:
            return ("data", (clamp.constants["placeholder"], clamp.constants["index"])), False
        return ("const", PointMass(clamp.constants["value"])), False

    def emit_precision_update(self, node: Node):
        roles = node.roles(self.graph)
        out_var = self.graph.edges[node.interfaces[0]].variable
        sup = self.supports.get(out_var, Support("gaussian", ()))
        out_dim = sup.dim
        mean_info = analyze_mean_side(self.graph, node, out_dim)
        out_slot, uses_joint = self.out_belief_slot(node)
        if mean_info.nonlinear is not None:
            if len(mean_info.leaves) != 1:
                raise SchedulingError(f"unsupported nonlinear composition at node {node.id}")
            leaf, gain = mean_info.leaves[0]
            slots = [out_slot, ("marginal", leaf), ("void",)]
            constants = {"g": mean_info.nonlinear, "gains": [gain.tolist()], "out_dim": out_dim}
            rule = self.registry.lookup(
                "gaussian_nonlinear", "precision",
                [(MARGINAL, self.slot_variant(out_slot)), (MARGINAL, self.slot_variant(slots[1])), (VOID, None)],
            )
            variant = rule.out_type(None, constants).__name__
            return self.append_entry(rule, slots, variant, constants,
                                     (self.graph.edges[node.interfaces[roles.index('precision')]].variable, "bwd"))
        gains = []
        slots = [out_slot]
        if uses_joint:
            sec = self.sections[node.id]
            gains.append(_leaf_gain(mean_info, sec.leaf_var))
            for v, g in mean_info.leaves:
                if v != sec.leaf_var:
                    gains.append(g.tolist())
                    slots.append(("marginal", v))
        else:
            for v, g in mean_info.leaves:
                gains.append(g.tolist())
                slots.append(("marginal", v))
        slots.append(("void",))
        constants = {
            "gains": gains,
            "joint": uses_joint,
            "out_dim": out_dim,
        }
        if mean_info.offset is not None:
            constants["offset"] = mean_info.offset.tolist()
        query = [(MARGINAL, self.slot_variant(s)) for s in slots[:-1]] + [(VOID, None)]
        rule = self.registry.lookup("gaussian_affine", "precision", query)
        variant = rule.out_type(None, constants).__name__
        prec_role = "precision" if "precision" in roles else "variance"
        label = (self.graph.edges[node.interfaces[roles.index(prec_role)]].variable, "bwd")
        return self.append_entry(rule, slots, variant, constants, label)

    def emit_matrix_update(self, node: Node):
        roles = node.roles(self.graph)
        out_var = self.graph.edges[node.interfaces[0]].variable
        in_var = self.graph.edges[node.interfaces[roles.index("in")]].variable
        label = (self.graph.edges[node.interfaces[roles.index("matrix")]].variable, "bwd")
        same = self.owner.get(out_var) is not None and self.owner.get(out_var) == self.owner.get(in_var)
        if same:
            slots = [("marginal", joint_key(in_var, out_var)), ("void",), ("void",)]
            query = [(MARGINAL, Categorical), (VOID, None), (VOID, None)]
        else:
            slots = [("marginal", out_var), ("marginal", in_var), ("void",)]
            query = [(MARGINAL, Categorical), (MARGINAL, Categorical), (VOID, None)]
        rule = self.registry.lookup("transition", "matrix", query)
        return self.append_entry(rule, slots, rule.out_type(None, {}).__name__, {}, label)

    # -- per-factor driver ----------------------------------------------------

    def chain_order(self) -> list[str]:
        in_factor = set(self.factor_vars)
        succ: dict[str, str] = {}
        pred: dict[str, str] = {}
        for sec in self.sections.values():
            if sec.leaf_var in in_factor and sec.out_var in in_factor:
                if sec.leaf_var in succ or sec.out_var in pred:
                    raise SchedulingError(
                        f"factor {self.factor_id!r} is not a simple chain of states"
                    )
                succ[sec.leaf_var] = sec.out_var
                pred[sec.out_var] = sec.leaf_var
        starts = [v for v in self.factor_vars if v not in pred]
        if len(self.factor_vars) == 1:
            return list(self.factor_vars)
        if len(starts) != 1:
            raise SchedulingError(
                f"factor {self.factor_id!r}: expected one chain start, found {starts}"
            )
        order = [starts[0]]
        while order[-1] in succ:
            order.append(succ[order[-1]])
        if len(order) != len(self.factor_vars):
            raise SchedulingError(
                f"factor {self.factor_id!r}: variables do not form a single chain"
            )
        return order

    def frontier(self, var: str) -> int:
        return self.graph.variable_edges(var)[-1].id

    def build(self) -> Schedule:
        order = self.chain_order()
        fwd_refs: dict[str, tuple] = {}
        bwd_refs: dict[str, tuple] = {}
        for var in order:
            fwd_refs[var] = self.require(self.frontier(var), "fwd")
        for var in reversed(order):
            edge = self.graph.edges[self.frontier(var)]
            if edge.head is None:
                bwd_refs[var] = None
            else:
                bwd_refs[var] = self.require(self.frontier(var), "bwd")
        # Site refreshes: the cavity (collision of everything except the
        # node's own contribution) is available once both passes are done.
        for node, in_edge_id in self.site_nodes:
            in_edge = self.graph.edges[in_edge_id]
            site = f"{node.kind}{node.id}"
            if node.kind == "probit":
                cavity_ref = self.require_toward(node, in_edge_id)
                datum_slot, _ = self.inbound_slot(node, 0)
                slots = [datum_slot, cavity_ref]
                query = [(MESSAGE, self.slot_variant(datum_slot)),
                         (CAVITY, self.slot_variant(cavity_ref))]
                rule = self.registry.lookup("probit", "in", query)
                constants = {"damping": self.ep_damping} if self.ep_damping else {}
                self.append_entry(
                    rule, slots, rule.out_type(None, constants).__name__, constants,
                    (in_edge.variable, "bwd"), extra=("site", site), writes_site=site,
                )
            else:
                # nonlinear: linearize around the mean of the inbound
                # (cavity-side) message; out side supplies the likelihood.
                out_side = self.require_toward(node, node.interfaces[0])
                lin_ref = self.require_toward(node, in_edge_id)
                slots = [out_side, ("void",)]
                query = [(MESSAGE, self.slot_variant(out_side)), (VOID, None)]
                rule = self.registry.lookup("nonlinear", "in", query)
                self.append_entry(
                    rule, slots, rule.out_type(None, dict(node.constants)).__name__,
                    dict(node.constants), (in_edge.variable, "bwd"),
                    extra=lin_ref, writes_site=site,
                )
        for var in order:
            inputs = [fwd_refs[var]]
            if bwd_refs.get(var) is not None:
                inputs.append(bwd_refs[var])
            self.schedule.marginal_steps.append(MarginalStep(var, inputs))
        self.emit_joints(order)
        return self.schedule

    def require_toward(self, node: Node, edge_id: int):
        """Message on the edge flowing toward the given node."""
        edge = self.graph.edges[edge_id]
        if edge.tail is not None and self.graph.node_at(edge.tail).id == node.id:
            direction = "bwd"
        else:
            direction = "fwd"
        return self.require(edge_id, direction)

    def emit_joints(self, order: list[str]):
        for sec in self._ordered_sections(order):
            node = sec.node
            out_edge_id = node.interfaces[0]
            out_side = self.require_toward(node, out_edge_id)
            if sec.kind == "transition":
                roles = node.roles(self.graph)
                in_edge = node.interfaces[roles.index("in")]
                leaf_ref = self.require_toward(node, in_edge)
                matrix_slot, _ = self.inbound_slot(node, roles.index("matrix"))
                slots = [out_side, leaf_ref, matrix_slot]
                query = [(MESSAGE, self.slot_variant(out_side)),
                         (MESSAGE, self.slot_variant(leaf_ref)),
                         (MARGINAL, self.slot_variant(matrix_slot))]
                rule = self.registry.lookup("transition", "joint", query)
                constants = {}
            else:
                mean_info = sec.mean_info
                leaf_edge = self._leaf_edge(node, sec.leaf_var)
                leaf_ref = self.require_toward(node, leaf_edge)
                gains = [_leaf_gain(mean_info, sec.leaf_var)]
                slots = [out_side, leaf_ref]
                for v, g in mean_info.leaves:
                    if v != sec.leaf_var:
                        gains.append(g.tolist())
                        slots.append(("marginal", v))
                roles = node.roles(self.graph)
                prec_slot, _ = self.inbound_slot(node, roles.index("precision"))
                slots.append(prec_slot)
                constants = {"gains": gains}
                if mean_info.offset is not None:
                    constants["offset"] = mean_info.offset.tolist()
                query = ([(MESSAGE, self.slot_variant(out_side)), (MESSAGE, self.slot_variant(leaf_ref))]
                         + [(MARGINAL, self.slot_variant(s)) for s in slots[2:]])
                rule = self.registry.lookup("gaussian_affine", "joint", query)
            self.schedule.marginal_steps.append(
                JointStep(joint_key(sec.leaf_var, sec.out_var), rule.id, slots, constants)
            )

    def _ordered_sections(self, order):
        pos = {v: i for i, v in enumerate(order)}
        in_factor = set(self.factor_vars)
        secs = [s for s in self.sections.values()
                if s.leaf_var in in_factor and s.out_var in in_factor]
        return sorted(secs, key=lambda s: pos[s.out_var])

    def _leaf_edge(self, node: Node, leaf_var: str) -> int:
        """The edge at the section's leaf side: the unique edge of leaf_var
        whose message toward the section flows into the deterministic mean
        chain (or directly into the node)."""
        roles = node.roles(self.graph)
        mean_idx = roles.index("mean") if "mean" in roles else roles.index("in")

        def find(edge_id, consumer_site):
            edge = self.graph.edges[edge_id]
            if edge.variable == leaf_var:
                return edge_id
            site = self.graph.neighbor_site(edge, consumer_site)
            if site is None:
                return None
            src = self.graph.node_at(site)
            if src.kind not in DETERMINISTIC_WALK_KINDS or src.roles(self.graph)[site[1]] != "out":
                return None
            for idx in range(1, len(src.interfaces)):
                found = find(src.interfaces[idx], (src.id, idx))
                if found is not None:
                    return found
            return None

        found = find(node.interfaces[mean_idx], (node.id, mean_idx))
        if found is None:
            raise SchedulingError(f"cannot locate leaf edge for {leaf_var!r} at node {node.id}")
        return found


def _leaf_gain(info: MeanSideInfo, var: str):
    for v, g in info.leaves:
        if v == var:
            return g.tolist()
    raise SchedulingError(f"leaf {var!r} missing from mean-side analysis")


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


def schedule_sum_product(graph: FactorGraph, targets, registry: RuleRegistry | None = None) -> Schedule:
    """Depth-first post-order sum-product schedule covering the targets.

    Each target's two colliding messages are computed, messages are memoized
    across targets, and a cycle raises a diagnostic (loopy propagation is out
    of scope)."""
    registry = registry or default_registry()
    graph = _prepare(graph, registry)
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 100 * len(graph.nodes) + 10000))
    supports = infer_supports(graph)
    sched = _FactorScheduler(graph, supports, {}, "sum_product", list(targets), {}, registry)
    for var in targets:
        edges = graph.variable_edges(var)
        if not edges:
            raise SchedulingError(f"unknown target variable {var!r}")
        edge = edges[-1]
        fwd = sched.require(edge.id, "fwd")
        inputs = [fwd]
        if edge.head is not None:
            inputs.append(sched.require(edge.id, "bwd"))
        sched.schedule.marginal_steps.append(MarginalStep(var, inputs))
    return sched.schedule


def schedule_vmp(
    graph: FactorGraph,
    rf: RecognitionFactorization,
    targets=None,
    registry: RuleRegistry | None = None,
    ep_damping: float | None = None,
) -> dict[str, Schedule]:
    """One sub-schedule per recognition factor, in declaration order.

    State-sequence factors are swept forward then backward; messages crossing
    factor boundaries read the neighbor factor's marginals (variational or EP
    flavor); two-slice joints are produced for chain sections."""
    registry = registry or default_registry()
    graph = _prepare(graph, registry)
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 100 * len(graph.nodes) + 10000))
    supports = infer_supports(graph)
    rf.validate(graph, supports)
    owner = rf.factor_of()
    sections = analyze_sections(graph, supports)
    result: dict[str, Schedule] = {}
    for fid, fvars in rf.factors:
        sched = _FactorScheduler(graph, supports, owner, fid, fvars, sections, registry,
                                 ep_damping=ep_damping)
        result[fid] = sched.build()
    return result


def infer_types(graph: FactorGraph, schedules, registry: RuleRegistry | None = None):
    """Re-derive and check outbound variant annotations by forward propagation
    through rule lookup. Returns the annotated schedules (same objects)."""
    registry = registry or default_registry()
    items = schedules.values() if isinstance(schedules, dict) else [schedules]
    for schedule in items:
        for i, entry in enumerate(schedule.entries):
            rule = registry.by_id(entry.rule_id)
            in_types = []
            for slot in entry.slots:
                if slot[0] == "void":
                    in_types.append(None)
                elif slot[0] == "entry":
                    in_types.append(_VARIANTS[schedule.entries[slot[1]].out_variant])
                elif slot[0] == "const":
                    in_types.append(type(slot[1]))
                elif slot[0] == "data":
                    in_types.append(PointMass)
                elif slot[0] == "site":
                    in_types.append(GaussianCanonical)
                else:
                    in_types.append(None)
            entry.out_variant = rule.out_type(in_types, entry.constants).__name__
    return schedules


# ---------------------------------------------------------------------------
# Free-energy program
# ---------------------------------------------------------------------------


def schedule_free_energy(
    graph: FactorGraph,
    rf: RecognitionFactorization,
    registry: RuleRegistry | None = None,
) -> FreeEnergyProgram:
    """F = sum of node average energies minus recognition entropy, with the
    structured chain entropy expanded through the two-slice identity."""
    registry = registry or default_registry()
    graph = _prepare(graph, registry)
    supports = infer_supports(graph)
    rf.validate(graph, supports)
    owner = rf.factor_of()
    sections = analyze_sections(graph, supports)
    clamped = clamped_variables(graph)

    def belief_slot(var: str):
        if var in owner:
            return ("marginal", var)
        for node in graph.nodes:
            if node.kind == "clamp" and graph.edges[node.interfaces[0]].variable == var:
                if "placeholder" in node.constants:
                    return ("data", (node.constants["placeholder"], node.constants["index"]))
                return ("const", PointMass(node.constants["value"]))
        raise SchedulingError(f"no belief available for variable {var!r}")

    energies: list[FreeEnergyTerm] = []
    for node in graph.nodes:
        if node.kind not in STOCHASTIC_KINDS:
            continue
        roles = node.roles(graph)
        out_var = graph.edges[node.interfaces[0]].variable
        if node.kind in ("gamma", "wishart", "dirichlet", "categorical"):
            slots = [belief_slot(out_var)]
            for idx in range(1, len(node.interfaces)):
                slots.append(belief_slot(graph.edges[node.interfaces[idx]].variable))
            energies.append(FreeEnergyTerm(node.kind, slots, {}, f"node{node.id}:{node.kind}"))
            continue
        if node.kind == "transition":
            in_var = graph.edges[node.interfaces[roles.index("in")]].variable
            t_slot = belief_slot(graph.edges[node.interfaces[roles.index("matrix")]].variable)
            joint = (
                owner.get(out_var) is not None
                and owner.get(out_var) == owner.get(in_var)
            )
            if joint:
                slots = [("marginal", joint_key(in_var, out_var)), t_slot]
            else:
                slots = [belief_slot(out_var), belief_slot(in_var), t_slot]
            energies.append(FreeEnergyTerm("transition", slots, {}, f"node{node.id}:transition"))
            continue
        if node.kind == "gaussian_mixture":
            slots = [belief_slot(graph.edges[e].variable) for e in node.interfaces]
            energies.append(FreeEnergyTerm("gaussian_mixture", slots, {}, f"node{node.id}:mixture"))
            continue
        if node.kind == "probit":
            in_var_edge = node.interfaces[roles.index("in")]
            sup = supports.get(out_var, Support("binary", ()))
            info = analyze_mean_side(graph, node, 1)
            leaves = info.leaf_vars()
            if info.nonlinear is not None or len(leaves) != 1:
                raise SchedulingError(f"unsupported probit composition at node {node.id}")
            constants = {"gains": [g.tolist() for _, g in info.leaves]}
            if info.offset is not None:
                constants["offset"] = info.offset.tolist()
            slots = [belief_slot(out_var), belief_slot(leaves[0])]
            energies.append(FreeEnergyTerm("probit_affine", slots, constants, f"node{node.id}:probit"))
            continue
        # gaussian nodes
        sup = supports.get(out_var, Support("gaussian", ()))
        info = analyze_mean_side(graph, node, sup.dim)
        prec_role = "precision" if "precision" in roles else "variance"
        prec_slot = belief_slot(graph.edges[node.interfaces[roles.index(prec_role)]].variable)
        if node.kind == "gaussian_mean_variance":
            mean_idx = roles.index("mean")
            mean_slot = belief_slot(graph.edges[node.interfaces[mean_idx]].variable)
            energies.append(FreeEnergyTerm(
                "gaussian_mean_variance", [belief_slot(out_var), mean_slot, prec_slot],
                {}, f"node{node.id}:gaussian_mv",
            ))
            continue
        if info.nonlinear is not None:
            if len(info.leaves) != 1:
                raise SchedulingError(f"unsupported nonlinear composition at node {node.id}")
            constants = {"g": info.nonlinear, "gains": [info.leaves[0][1].tolist()]}
            if info.offset is not None:
                constants["offset"] = info.offset.tolist()
            slots = [belief_slot(out_var), belief_slot(info.leaves[0][0]), prec_slot]
            energies.append(FreeEnergyTerm("gaussian_nonlinear_affine", slots, constants,
                                           f"node{node.id}:gaussian_nonlinear"))
            continue
        sec = sections.get(node.id)
        joint = (
            sec is not None
            and owner.get(sec.out_var) is not None
            and owner.get(sec.out_var) == owner.get(sec.leaf_var)
        )
        gains, slots = [], []
        if joint:
            slots.append(("marginal", joint_key(sec.leaf_var, sec.out_var)))
            gains.append(_leaf_gain(info, sec.leaf_var))
            for v, g in info.leaves:
                if v != sec.leaf_var:
                    gains.append(g.tolist())
                    slots.append(belief_slot(v))
        else:
            slots.append(belief_slot(out_var))
            for v, g in info.leaves:
                gains.append(g.tolist())
                slots.append(belief_slot(v))
        slots.append(prec_slot)
        constants = {"gains": gains, "joint": joint}
        if info.offset is not None:
            constants["offset"] = info.offset.tolist()
        energies.append(FreeEnergyTerm("gaussian_affine", slots, constants,
                                       f"node{node.id}:gaussian"))

    entropies: list[tuple[str, float]] = []
    for fid, fvars in rf.factors:
        sched_secs = [
            s for s in sections.values()
            if s.leaf_var in fvars and s.out_var in fvars
        ]
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


def _affine_scalar_transport(q, constants):
    from .distributions import affine_transport

    return affine_transport(q, constants["gains"][0], constants.get("offset"))


def eval_energy_term(kind: str, qs, constants) -> float:
    """Evaluate one free-energy energy term; the *_affine variants first
    project the leaf belief through the recorded gains."""
    from .distributions import average_energy

    if kind == "probit_affine":
        datum, q_x = qs
        return average_energy("probit", [datum, _affine_scalar_transport(q_x, constants)])
    if kind == "gaussian_nonlinear_affine":
        q_out, q_x, q_prec = qs
        q_r = _affine_scalar_transport(q_x, constants)
        return average_energy("gaussian_nonlinear", [q_out, q_r, q_prec], {"g": constants["g"]})
    return average_energy(kind, qs, constants)


# ---------------------------------------------------------------------------
# Listing
# ---------------------------------------------------------------------------


def slot_text(slot) -> str:
    tag = slot[0]
    if tag == "entry":
        return f"msg[{slot[1]}]"
    if tag == "marginal":
        return f"q[{slot[1]}]"
    if tag == "data":
        name, index = slot[1]
        return f"data[{name}][{index}]"
    if tag == "const":
        return "const:" + json.dumps(slot[1].to_json(), sort_keys=True, separators=(",", ":"))
    if tag == "site":
        return f"site[{slot[1]}]"
    return "_"


def render_schedule(schedule: Schedule) -> str:
    """Deterministic text listing; the contract consumed by golden tests."""
    lines = []
    for site, init in schedule.site_inits.items():
        lines.append(
            f"site[{site}] <- init:"
            + json.dumps(init.to_json(), sort_keys=True, separators=(",", ":"))
        )
    for i, entry in enumerate(schedule.entries):
        args = ", ".join(slot_text(s) for s in entry.slots)
        suffix = ""
        if entry.extra is not None:
            suffix = f" @ {slot_text(entry.extra)}"
        target = f" -> site[{entry.writes_site}]" if entry.writes_site else ""
        var, direction = entry.edge_label
        lines.append(f"msg[{i}] <- {entry.rule_id}({args}){suffix}{target}  # edge {var} {direction}")
    for step in schedule.marginal_steps:
        if isinstance(step, MarginalStep):
            rhs = " * ".join(slot_text(s) for s in step.inputs)
            lines.append(f"q[{step.key}] <- {rhs}")
        else:
            args = ", ".join(slot_text(s) for s in step.slots)
            lines.append(f"q[{step.key}] <- joint {step.rule_id}({args})")
    return "\n".join(lines) + "\n"


def render_schedules(schedules: dict[str, Schedule]) -> str:
    parts = []
    for fid, schedule in schedules.items():
        parts.append(f"schedule {fid}:")
        body = render_schedule(schedule).rstrip("\n")
        parts.extend("  " + line for line in body.split("\n") if line)
        parts.append("end")
    return "\n".join(parts) + "\n"
