"""Message update rules and their typed registry.

Each rule is a pure function from inbound messages/marginals to an outbound
message. Rules are keyed by node kind, outbound interface role, flavor and an
inbound slot signature; lookup returns the most specific applicable rule under
the subtype order PointMass < specific Gaussian < generic Gaussian, breaking
ties by registration order.

A signature may repeat one slot group (``Repeat``), so each rule serves
every arity; a rule for indexed interfaces (``mean_k``) is keyed by the role
class and voids the group slot of component k.

Rule identifiers are stable strings ``<flavor>:<kind>:<interface>:<sig-hash>``
used in schedule listings and message provenance; a variadic rule's id names
its role class (``variational:gaussian_mixture:mean:<sig-hash>``).

A rule body is a per-call function or a batch function wrapped in
``distributions.Batch``, the one wrapper the batched average energies use
too: it computes the messages of many instructions of its rule from one
column per slot, each with the bits it gets alone, and a call for one
instruction is a batch of one. ``codegen.Interpreter`` runs a step's
independent instructions of such a rule as one call.
"""

from __future__ import annotations

import hashlib
from types import MappingProxyType

import numpy as np
from scipy.special import log_ndtr

from ._linalg import as_matrix, as_vector, spd_inverse, spd_inverses, symmetrize
from .distributions import (
    Batch,
    Categorical,
    Dirichlet,
    Distribution,
    FLOAT_STATES,
    Gamma,
    GaussianBase,
    GaussianCanonical,
    GaussianMeanPrecision,
    GaussianMeanVariance,
    PointMass,
    Wishart,
    _affine_scatters,
    _apply,
    _column,
    _floats,
    _held,
    _probabilities,
    _scalar_covariance,
    _scalar_mean,
    _scalar_moments,
    _scalar_precision,
    _scatters,
    _stacked,
    _table,
    affine_transport,
    expected_covariance,
    expected_logdet_precision,
    expected_precision,
    float_sum,
    mean_and_cov,
    moment,
    product,
    stack_members,
    vague,
)
from .graph import NONLINEAR_FUNCTIONS

MESSAGE = "message"
MARGINAL = "marginal"
CAVITY = "cavity"  # EP only: inbound message on the outbound interface
VOID = "void"

GAUSSIAN_LIKE = (GaussianBase, PointMass)
PRECISION_LIKE = (Gamma, Wishart, PointMass)
CATEGORICAL_LIKE = (Categorical, PointMass)


class RuleError(ValueError):
    """A rule was applied to inputs it cannot handle."""


class RuleUnavailable(LookupError):
    """No registered rule matches the query; carries a readable diagnostic."""


_NO_INFO = MappingProxyType({})


class Message:
    """A distribution annotated with the rule that produced it, and what the
    rule reported (``info``; a read-only empty mapping, shared, when it
    reported nothing)."""

    __slots__ = ("dist", "rule_id", "info")

    def __init__(self, dist: Distribution, rule_id: str, info: dict | None = None):
        self.dist = dist
        self.rule_id = rule_id
        self.info = info or _NO_INFO

    def __repr__(self):
        return f"Message({self.dist!r}, rule={self.rule_id})"


class Slot:
    """One inbound slot pattern of a rule signature."""

    def __init__(self, kind: str, families=None):
        self.kind = kind
        self.families = families

    def matches(self, query) -> bool:
        qkind, qfam = query
        if self.kind != qkind:
            return False
        if self.kind == VOID or self.families is None:
            return True
        return qfam is not None and issubclass(qfam, self.families)

    def specificity(self) -> int:
        if self.kind == VOID or self.families is None:
            return 0
        if self.families is PointMass:
            return 3
        if isinstance(self.families, type) and self.families is not GaussianBase:
            return 2
        return 1

    def describe(self) -> str:
        if self.kind == VOID:
            return "void"
        fams = self.families
        if fams is None:
            name = "any"
        elif isinstance(fams, tuple):
            name = "|".join(f.__name__ for f in fams)
        else:
            name = fams.__name__
        return f"{self.kind}[{name}]"


class Repeat:
    """A group of slot patterns repeated ``at_least`` or more times inside a
    rule signature. For an indexed role such as ``mean_k``, group slot
    ``void_at`` of the k-th repetition is the void outbound slot."""

    def __init__(self, slots, at_least: int, void_at: int | None = None):
        self.slots = list(slots)
        self.at_least = at_least
        self.void_at = void_at

    def describe(self) -> str:
        parts = []
        for j, slot in enumerate(self.slots):
            mark = "void@k|" if j == self.void_at else ""
            parts.append(mark + slot.describe())
        return f"({','.join(parts)})*{self.at_least}+"


def _split_role(role: str) -> tuple[str, int | None]:
    """``mean_2`` -> (``mean``, 2); a role without a numeric suffix -> (role, None)."""
    stem, sep, suffix = role.rpartition("_")
    if sep and suffix.isdigit():
        return stem, int(suffix)
    return role, None


class Rule:
    """A registered message rule; ``fn`` is a per-call body or a
    ``distributions.Batch``. ``batch`` is the batch body of the latter (None
    otherwise): ``codegen.Interpreter`` runs a step's independent
    instructions of such a rule as one call."""

    def __init__(self, kind, role, flavor, slots, fn, out_type, needs_previous=False):
        self.kind = kind
        self.role = role  # the role class (``mean``) when the rule is indexed
        self.flavor = flavor
        self.slots = list(slots)  # Slot patterns, at most one of them a Repeat
        self.fn = fn
        self.batch = fn.batch if isinstance(fn, Batch) else None
        self.out_type = out_type  # callable(in_types, constants) -> variant class
        self.needs_previous = needs_previous
        self.group_at = next((i for i, s in enumerate(self.slots) if isinstance(s, Repeat)), None)
        self.indexed = self.group_at is not None and self.slots[self.group_at].void_at is not None
        digest = hashlib.sha1(
            "|".join([kind, role, flavor] + [s.describe() for s in self.slots]).encode()
        ).hexdigest()[:8]
        self.id = f"{flavor}:{kind}:{role}:{digest}"

    def apply(self, inbound, constants, previous=None) -> Message:
        batch = self.batch
        if batch is not None:  # a batch of one: one one-member column per slot
            columns = []
            for q in inbound:
                columns.append([q])
            return Message(batch(columns, constants)[0], self.id)
        if self.needs_previous:
            result = self.fn(inbound, constants, previous)
        else:
            result = self.fn(inbound, constants)
        dist, info = result if isinstance(result, tuple) else (result, None)
        return Message(dist, self.id, info)

    def expand(self, n: int, index: int | None = None) -> list | None:
        """The signature at arity ``n``: the repeating group, if any, repeated
        to fill it, with an indexed rule's void in component ``index``; None
        when the rule has no signature of that arity."""
        if self.group_at is None:
            return self.slots if n == len(self.slots) else None
        group = self.slots[self.group_at]
        count, rest = divmod(n - len(self.slots) + 1, len(group.slots))
        if rest or count < group.at_least or (self.indexed and not 1 <= (index or 0) <= count):
            return None
        body = [Slot(VOID) if k == index and j == group.void_at else slot
                for k in range(1, count + 1) for j, slot in enumerate(group.slots)]
        return self.slots[:self.group_at] + body + self.slots[self.group_at + 1:]

    def matches(self, query_slots, index: int | None = None) -> int | None:
        slots = self.expand(len(query_slots), index)
        if slots is None:
            return None
        score = 0
        for slot, query in zip(slots, query_slots):
            if not slot.matches(query):
                return None
            score += slot.specificity()
        return score

    def __repr__(self):
        return self.id


class RuleRegistry:
    """Immutable-after-freeze collection of rules with deterministic lookup.
    Successful lookups are memoized until the next ``register``."""

    def __init__(self):
        self._rules: list[Rule] = []
        self._by_id: dict[str, Rule] = {}
        self._frozen = False
        self._memo: dict[tuple, Rule] = {}

    def register(self, rule: Rule) -> Rule:
        if self._frozen:
            raise RuleError("registry is frozen")
        if rule.id in self._by_id:
            raise RuleError(f"duplicate rule id {rule.id}")
        self._rules.append(rule)
        self._by_id[rule.id] = rule
        self._memo.clear()
        return rule

    def freeze(self) -> "RuleRegistry":
        self._frozen = True
        return self

    def lookup(self, kind: str, role: str, query_slots, flavor: str | None = None) -> Rule:
        """Most specific applicable rule; deterministic tie-break by
        registration order. An indexed role such as ``mean_2`` is served by
        the rule registered for its role class ``mean``. A failed query is
        not memoized, so it scans (and raises) again."""
        key = (kind, role, tuple(query_slots), flavor)
        found = self._memo.get(key)
        if found is not None:
            return found
        stem, index = _split_role(role)
        best, best_score = None, -1
        for rule in self._rules:
            if rule.kind != kind or rule.role != (stem if rule.indexed else role):
                continue
            if flavor is not None and rule.flavor != flavor:
                continue
            score = rule.matches(query_slots, index)
            if score is not None and score > best_score:
                best, best_score = rule, score
        if best is None:
            offered = ", ".join(
                f"{k}[{f.__name__ if f else 'none'}]" for k, f in query_slots
            )
            raise RuleUnavailable(
                f"no rule for node kind {kind!r}, interface {role!r}, offered signature ({offered})"
            )
        self._memo[key] = best
        return best

    def by_id(self, rule_id: str) -> Rule:
        try:
            return self._by_id[rule_id]
        except KeyError:
            raise RuleUnavailable(f"unknown rule id {rule_id!r}") from None

    def has_rules_for(self, kind: str) -> bool:
        return any(r.kind == kind for r in self._rules)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _canonical(d: Distribution):
    return d.weighted_mean_vector(), d.precision_matrix()


def _gauss_or_point(mean, cov, inputs) -> Distribution:
    if all(isinstance(x, PointMass) for x in inputs):
        v = as_vector(mean)
        return PointMass(v[0] if v.shape[0] == 1 else v)
    if cov.__class__ is float:
        return GaussianMeanVariance(mean, 0.5 * (cov + cov))
    return GaussianMeanVariance(mean, symmetrize(as_matrix(cov)))


def _moments(q) -> tuple:
    """The mean and covariance of a Gaussian or vector point mass, as
    floats where ``_scalar_moments`` gives them."""
    return _scalar_moments(q) or mean_and_cov(q)


def _variance_matrix(q, dim: int) -> np.ndarray:
    """The fixed variance a point mass holds, as a matrix."""
    return as_matrix(q.value)


def _scalar_variance(q) -> tuple[float] | None:
    """``_variance_matrix(q, d)`` as a float where its matrix is 1x1."""
    v = q.value
    return (v.item(),) if v.size == 1 and v.ndim in (0, 2) else None


def _precision_messages(scatters: np.ndarray, constants: dict, weights=1.0) -> list:
    """Full-form conjugate increment toward a precision variable from each
    scatter S of a stack ``(n, d, d)``, with one weight w for all or one per
    scatter, in the family ``_precision_family`` picks.

    Gamma(1 + w/2, w*S/2), so the Gamma product (a1 + a2 - 1) adds w/2 to
    the shape per slice. Wishart with V^-1 = w*S and dof = d + 1 + w, so the
    Wishart product (nu1 + nu2 - d - 1) adds exactly w degrees of freedom
    per slice.
    """
    d = scatters.shape[-1]
    weights = np.broadcast_to(np.asarray(weights, dtype=float), scatters.shape[:1])
    if _precision_family(d, constants) is Gamma:
        with np.errstate(all="ignore"):  # the float version never warns
            rates = np.maximum(0.5 * weights * scatters[:, 0, 0], 1e-300)
        return [Gamma(1.0 + 0.5 * w, rate) for w, rate in zip(weights.tolist(), rates.tolist())]
    scales = spd_inverses(weights[:, None, None] * scatters)
    return stack_members(Wishart, scales, [d + 1.0 + w for w in weights.tolist()])


def _strip_void(inbound) -> list:
    return [q for q in inbound if q is not None]


def _rows(stack: np.ndarray, n: int) -> np.ndarray:
    """The ``n`` rows of a stack whose one row may stand for all."""
    return stack if len(stack) == n else np.broadcast_to(stack, (n, *stack.shape[1:]))


def _members(x, n: int):
    """The ``n`` members' parameters in ``x``, by member: a stack whose one
    row may stand for all, or a float that stands for all. A 1-vector or 1x1
    matrix is its entry as a float."""
    if x.__class__ is float:
        return [x] * n
    x = _rows(x, n)
    return x.reshape(n).tolist() if x.size == n else x


def _gaussians(cls, n: int, first, second, floats: bool = True) -> list:
    """``cls`` of each member's two parameters, for ``n`` messages (see
    ``_members``); stacks by row alone on a body's array path (``floats``
    False, see ``distributions._floats``). Two or more members of d >= 2
    are built as the members of one checked stack (``stack_members``); one
    message goes through its constructor."""
    if not floats:
        first, second = _rows(first, n), _rows(second, n)
    elif n == 1 and first.__class__ is float and second.__class__ is float:
        return [cls(first, second)]
    else:
        first, second = _members(first, n), _members(second, n)
    if n > 1 and first.__class__ is np.ndarray and first.shape[-1] > 1:
        return stack_members(cls, first, second)
    return [cls(first[i], second[i]) for i in range(n)]


def _mean_vector(q) -> tuple:
    return (as_vector(moment(q, "mean")),)


def _size(x) -> int:
    """The dimension of the vectors of a stack, or 1 for a float."""
    return 1 if x.__class__ is float else x.shape[-1]


# ---------------------------------------------------------------------------
# Rule implementations
# ---------------------------------------------------------------------------


def _equality_sp(inbound, constants):
    a, b = _strip_void(inbound)
    return product(a, b)


def _gaussian_spread(at: int, covariance, scalar) -> Batch:
    """Toward out or mean of a Gaussian node from the message on the other
    (slot ``at``): its moments, the node's covariance added to theirs. The
    node's second parameter (slot 2) is read as that covariance by
    ``covariance(q, d)``, and as a float by ``scalar(q)`` where it is one
    number: E[W]^-1 of a precision, or a fixed variance as it is."""

    @Batch
    def batch(columns, constants):
        floats = _floats(columns[at][0])
        read = _column if floats else _stacked
        m, v = read(columns[at], mean_and_cov, _scalar_moments, (1, 2))
        (e,) = read(columns[2], lambda q: (covariance(q, _size(m)),), scalar, (2,))
        return _gaussians(GaussianMeanVariance, len(columns[at]), m, v + e, floats)

    return batch


def _gaussian_vmp(at: int, cls, second, scalar) -> Batch:
    """Toward out or mean of a Gaussian node from the marginal on the other
    (slot ``at``): a ``cls`` of its mean and the node's second parameter, read
    by ``second(q, d)`` and ``scalar(q)`` as ``_gaussian_spread`` reads it:
    E[W] of a precision, or a fixed variance."""

    @Batch
    def batch(columns, constants):
        floats = _floats(columns[at][0])
        read = _column if floats else _stacked
        (m,) = read(columns[at], _mean_vector, _scalar_mean, (1,))
        (w,) = read(columns[2], lambda q: (second(q, _size(m)),), scalar, (2,))
        return _gaussians(cls, len(columns[at]), m, w, floats)

    return batch


_gaussian_forward = _gaussian_spread(1, expected_covariance, _scalar_covariance)
_gaussian_backward_mean = _gaussian_spread(0, expected_covariance, _scalar_covariance)
_gaussian_vmp_out = _gaussian_vmp(1, GaussianMeanPrecision, expected_precision, _scalar_precision)
_gaussian_vmp_mean = _gaussian_vmp(0, GaussianMeanPrecision, expected_precision, _scalar_precision)
_variance_forward = _gaussian_spread(1, _variance_matrix, _scalar_variance)
_variance_backward_mean = _gaussian_spread(0, _variance_matrix, _scalar_variance)
_variance_vmp_out = _gaussian_vmp(1, GaussianMeanVariance, _variance_matrix, _scalar_variance)
_variance_vmp_mean = _gaussian_vmp(0, GaussianMeanVariance, _variance_matrix, _scalar_variance)


def _prior_emission(cls, param_names):
    def fn(inbound, constants):
        params = [np.asarray(p.value, dtype=float) for p in inbound[1:]]
        return cls(**dict(zip(param_names, params)))

    return fn


def _addition_sp(direction):
    def fn(inbound, constants):
        if direction == "out":
            a, b = inbound[1], inbound[2]
            ma, va = _moments(a)
            mb, vb = _moments(b)
            return _gauss_or_point(ma + mb, va + vb, (a, b))
        other = inbound[2] if direction == "in1" else inbound[1]
        out = inbound[0]
        mo, vo = _moments(out)
        mb, vb = _moments(other)
        return _gauss_or_point(mo - mb, vo + vb, (out, other))

    return fn


def _addition_vmp_shift(direction, marginal_at) -> Batch:
    # One summand lives in another recognition factor: shift the message by
    # its posterior mean only; the precision is unchanged.
    at = (2 if marginal_at == 1 else 1) if direction == "out" else 0  # the message's slot

    def shifted(m, shift):
        return m + shift if direction == "out" else m - shift

    @Batch
    def batch(columns, constants):
        floats = _floats(columns[at][0])
        read = _column if floats else _stacked
        (shift,) = read(columns[marginal_at], _mean_vector, _scalar_mean, (1,))
        m, v = read(columns[at], mean_and_cov, _scalar_moments, (1, 2))
        return _gaussians(GaussianMeanVariance, len(columns[at]), shifted(m, shift), v, floats)

    return batch


def _gain_forward(inbound, constants):
    a = as_matrix(constants["matrix"])
    msg = inbound[1]
    if isinstance(msg, PointMass):
        v = a @ as_vector(msg.value)
        return PointMass(v[0] if v.shape[0] == 1 else v)
    m, vv = mean_and_cov(msg)
    return GaussianMeanVariance(a @ m, a @ vv @ a.T)


def _gain_backward(inbound, constants):
    # Kept canonical: xi = A^T xi_out, W = A^T W_out A (possibly singular).
    a = as_matrix(constants["matrix"])
    out = inbound[0]
    if isinstance(out, PointMass):
        if a.shape[0] != a.shape[1]:
            raise RuleError("cannot invert a non-square gain for a clamped output")
        v = np.linalg.solve(a, as_vector(out.value))
        return PointMass(v[0] if v.shape[0] == 1 else v)
    xi, w = _canonical(out)
    return GaussianCanonical(a.T @ xi, a.T @ w @ a)


def _nonlinear_forward(inbound, constants):
    g, g_prime = NONLINEAR_FUNCTIONS[constants["g"]]
    msg = inbound[1]
    if isinstance(msg, PointMass):
        return PointMass(g(float(msg.value)))
    m, v = mean_and_cov(msg)
    x0 = float(m[0])
    slope = g_prime(x0)
    return GaussianMeanVariance([g(x0)], [[slope**2 * float(v[0, 0])]])


def _nonlinear_backward(inbound, constants, previous):
    # ``previous`` is the forward inbound message recorded during the same
    # sweep; its mean is the linearization point.
    g, g_prime = NONLINEAR_FUNCTIONS[constants["g"]]
    if previous is None:
        raise RuleError("nonlinear backward rule needs the forward message for linearization")
    x0 = float(as_vector(moment(previous, "mean"))[0])
    slope = g_prime(x0)
    if abs(slope) < 1e-10:
        return vague("gaussian", 1), {"flat_linearization": True}
    intercept = g(x0) - slope * x0
    mo, vo = mean_and_cov(inbound[0])
    return GaussianMeanVariance(
        [(float(mo[0]) - intercept) / slope], [[float(vo[0, 0]) / slope**2]]
    )


def _expected_transition(q_t) -> np.ndarray:
    """exp(E[log T]), the cached table of a Dirichlet belief."""
    if q_t.__class__ is Dirichlet:
        return q_t.geometric_mean()
    return np.exp(np.asarray(moment(q_t, "logprobs"), dtype=float))


def _normalized(p: np.ndarray, error: str) -> Categorical:
    """``Categorical(p / sum(p))``, or ``RuleError(error)`` if the sum is not
    positive. A vector of fewer than ``FLOAT_STATES`` states is normalized
    on floats, with numpy's left-fold sum; the product that gives ``p``
    stays in numpy, whose matrix-vector product fuses the multiply-add."""
    if p.ndim == 1 and len(p) < FLOAT_STATES:
        p = p.tolist()
        z = float_sum(p)
        if z <= 0.0:
            raise RuleError(error)
        return Categorical(tuple([x / z for x in p]))
    z = float(np.sum(p))
    if z <= 0.0:
        raise RuleError(error)
    return Categorical(p / z)


def _transition_out(inbound, constants):
    _, q_in, q_t = inbound
    p = _expected_transition(q_t) @ np.asarray(_probabilities(q_in), dtype=float)
    return _normalized(p, "transition message has zero normalizer")


def _transition_in(inbound, constants):
    q_out, _, q_t = inbound
    p = _expected_transition(q_t).T @ np.asarray(_probabilities(q_out), dtype=float)
    return _normalized(p, "transition message has zero normalizer")


def _two_slice_table(q) -> np.ndarray:
    j = np.asarray(moment(q, "mean"), dtype=float)
    if j.ndim != 2:
        raise RuleError("message toward a transition matrix needs the two-slice joint")
    return j


@Batch
def _transition_toward_matrix(columns, constants):
    """Dirichlet(1 + E[x_t x_{t-1}^T]) from each two-slice joint; a group's
    joints are read as their stack (``_held``). A batch of one builds its
    one table, without a stack."""
    if len(columns[0]) == 1:
        return [Dirichlet(1.0 + _two_slice_table(columns[0][0]))]
    stack = _held(columns[0], Categorical)
    tables = stack.first if stack is not None else np.array([_two_slice_table(q) for q in columns[0]])
    return stack_members(Dirichlet, 1.0 + tables)


def _mixture_components(inbound):
    comps = inbound[2:]
    return [(comps[2 * i], comps[2 * i + 1]) for i in range(len(comps) // 2)]


@Batch
def _mixture_selector(columns, constants):
    my, vy = _stacked(columns[0], mean_and_cov)
    d = my.shape[-1]
    logs = []
    for mean_column, prec_column in _mixture_components(columns):
        mm, vm = _stacked(mean_column, mean_and_cov)
        quad = _scatters(my - mm, vy + vm)
        # E[log|W|] first, as a per-call body reads them: a belief that is
        # not a precision fails with the same exception either way
        logdet, w = _stacked(prec_column, lambda q: (expected_logdet_precision(q, d), expected_precision(q, d)))
        logs.append(0.5 * logdet - 0.5 * d * np.log(2 * np.pi) - 0.5 * np.trace(w @ quad, axis1=1, axis2=2))
    logs = np.stack(np.broadcast_arrays(*logs), axis=1)
    p = np.ascontiguousarray(_rows(np.exp(logs - np.max(logs, axis=1, keepdims=True)), len(columns[0])))
    if p.shape[1] < FLOAT_STATES:  # each row's largest entry is exp(0) = 1, so a total is >= 1 or NaN
        rows = p.tolist()
        return [Categorical(tuple([x / total for x in row])) for row, total in zip(rows, map(float_sum, rows))]
    return [Categorical(row / total) for row, total in zip(p, np.sum(p, axis=1).tolist())]


def _component(columns) -> tuple[int, int]:
    """The void slot of a mixture component's update (the same in every
    instruction of a batch) and the component it belongs to."""
    at = [column[0] is None for column in columns].index(True)
    return at, (at - 2) // 2


def _responsibility(q, k: int) -> float:
    """E[z_k] of a selector belief, read from a categorical's floats where
    it has them."""
    p = getattr(q, "_p", None)
    return p[k] if p is not None and k < len(p) else float(np.asarray(moment(q, "mean"))[k])


def _responsibilities(selectors, k: int) -> np.ndarray:
    return np.array([_responsibility(q, k) for q in selectors])


@Batch
def _mixture_toward_mean(columns, constants):
    # The void slot is component k's mean; its precision follows it.
    at, k = _component(columns)
    my, _ = _stacked(columns[0], mean_and_cov)
    (w,) = _stacked(columns[at + 1], lambda q: (expected_precision(q, my.shape[-1]),))
    w = _responsibilities(columns[1], k)[:, None, None] * w
    return _gaussians(GaussianCanonical, len(columns[0]), _apply(w, my), w)


@Batch
def _mixture_toward_precision(columns, constants):
    # The void slot is component k's precision; its mean precedes it.
    at, k = _component(columns)
    my, vy = _stacked(columns[0], mean_and_cov)
    mm, vm = _stacked(columns[at - 1], mean_and_cov)
    scatters = _rows(_scatters(my - mm, vy + vm), len(columns[0]))
    return _precision_messages(scatters, constants, _responsibilities(columns[1], k))


def _probit_ep(inbound, constants, previous):
    """Moment-match the tilted density Phi(y r) N(r; mu, s2), then divide out
    the cavity in canonical form. phi/Phi is evaluated in log space, which is
    the saturated-tail branch for |z| beyond 8. Improper results are damped
    toward the previous site message with factor 0.5 and floored at 1e-12."""
    datum, cavity = inbound[0], inbound[1]
    y = float(datum.value)
    if y not in (1.0, -1.0):
        raise RuleError("probit datum must be +1 or -1")
    m, v = mean_and_cov(cavity)
    mu, s2 = float(m[0]), float(v[0, 0])
    if s2 <= 0.0:
        raise RuleError("probit cavity must be a proper Gaussian")
    denom = np.sqrt(1.0 + s2)
    z = y * mu / denom
    ratio = float(np.exp(-0.5 * z * z - 0.5 * np.log(2 * np.pi) - log_ndtr(z)))
    tilted_mean = mu + y * s2 * ratio / denom
    tilted_var = s2 - s2**2 * ratio * (z + ratio) / (1.0 + s2)
    w_new = 1.0 / tilted_var - 1.0 / s2
    xi_new = tilted_mean / tilted_var - mu / s2
    info = {"tilted_mean": tilted_mean, "tilted_var": tilted_var}
    lam = float(constants.get("damping", 1.0))
    if lam < 1.0 and previous is not None and np.isfinite(w_new):
        xi_p, w_p = _canonical(previous)
        w_new = lam * w_new + (1.0 - lam) * float(w_p[0, 0])
        xi_new = lam * xi_new + (1.0 - lam) * float(xi_p[0])
    if w_new <= 0.0 or not np.isfinite(w_new):
        if previous is None:
            previous = GaussianCanonical([0.0], [[1e-12]])
        xi_p, w_p = _canonical(previous)
        w_new = max(0.5 * float(w_p[0, 0]) + 0.5 * max(w_new, 0.0), 1e-12)
        xi_new = 0.5 * float(xi_p[0]) + 0.5 * xi_new
        info["damped"] = True
    return GaussianCanonical([xi_new], [[w_new]]), info


def _gain_equality_out(inbound, constants):
    """Fuse a state message with a scalar observation-branch message through
    gain b without any d x d inversion: a rank-one update whose largest
    linear solve is the observation dimension (a scalar division here)."""
    msg_y, msg_x = inbound[0], inbound[1]
    b = as_matrix(constants["matrix"])[0]
    m, v = mean_and_cov(msg_x)
    my, vy = mean_and_cov(msg_y)
    innovation_var = float(vy[0, 0]) + float(b @ v @ b)
    if innovation_var <= 0.0:
        raise RuleError("non-positive innovation variance in gain-equality update")
    k = (v @ b) / innovation_var
    mean = m + k * (float(my[0]) - float(b @ m))
    cov = v - np.outer(k, b @ v)
    return GaussianMeanVariance(mean, symmetrize(cov)), {"max_solve_dim": 1}


# ---------------------------------------------------------------------------
# Structured-chain joints and composed affine updates
# ---------------------------------------------------------------------------


def _canonical_or_sharp(msg: Distribution, dim: int):
    if isinstance(msg, PointMass):
        v = as_vector(msg.value)
        w = 1e12 * np.eye(dim)
        return w @ v, w
    return msg.weighted_mean_vector(), msg.precision_matrix()


def _scalar_canonical_or_sharp(msg) -> tuple[float, float] | None:
    """``_canonical_or_sharp(msg, 1)`` as floats, for a one-dimensional
    Gaussian or a point mass on one number; None for any other message."""
    if isinstance(msg, GaussianBase):
        return msg.scalar_canonical() if msg.dim == 1 else None
    moments = _scalar_moments(msg)
    return None if moments is None else (1e12 * moments[0] + 0.0, 1e12)


@Batch
def _joint_gaussian_chain(columns, constants):
    """Two-slice joint over (x_prev, x_out) for a Gaussian transition section
    x_out ~ N(F x_prev + c, W^-1), built in canonical form from the forward
    message on the leaf edge and the combined message on the out side."""
    qs = [column for column in columns if column[0] is not None]
    out_side, leaf, offsets, prec_column = qs[0], qs[1], qs[2:-1], qs[-1]
    n = len(leaf)
    gains = [as_matrix(g) for g in constants["gains"]]
    f = gains[0]
    do, dl = f.shape
    c = np.zeros(do)
    base = constants.get("offset")
    if base is not None:
        c = c + as_vector(base)
    for g, column in zip(gains[1:], offsets):
        c = c + _apply(g, _stacked(column, _mean_vector)[0])
    (w_hat,) = _stacked(prec_column, lambda q: (expected_precision(q, do),))
    xi_l, w_l = _stacked(leaf, lambda q: _canonical_or_sharp(q, dl),
                         _scalar_canonical_or_sharp if dl == 1 else None, (1, 2))
    xi_o, w_o = _stacked(out_side, lambda q: _canonical_or_sharp(q, do),
                         _scalar_canonical_or_sharp if do == 1 else None, (1, 2))
    wc = _apply(w_hat, c)
    prec = np.zeros((n, dl + do, dl + do))
    prec[:, :dl, :dl] = w_l + f.T @ w_hat @ f
    prec[:, :dl, dl:] = -f.T @ w_hat
    prec[:, dl:, :dl] = -w_hat @ f
    prec[:, dl:, dl:] = w_hat + w_o
    xi = np.concatenate([_rows(xi_l - _apply(f.T, wc), n), _rows(xi_o + wc, n)], axis=1)
    cov = spd_inverses(prec)
    return _gaussians(GaussianMeanVariance, n, _apply(cov, xi), 0.5 * (cov + cov.swapaxes(1, 2)))


@Batch
def _joint_gaussian_variance_chain(columns, constants):
    """``_joint_gaussian_chain`` for x_out ~ N(F x_prev + c, V), V fixed."""
    *rest, variances = columns
    inverses = {id(q): PointMass(spd_inverse(as_matrix(q.value))) for q in variances}
    return _joint_gaussian_chain.batch([*rest, [inverses[id(q)] for q in variances]], constants)


@Batch
def _joint_categorical_chain(columns, constants):
    """Two-slice joint for a Transition section; rows index x_out. The
    tables of a group are normalized and checked as one stack
    (``stack_members``); numpy sums each table as it sums it alone. A
    normalizer that is not positive sends every member through
    ``_normalized``, which raises at the first. A batch of one computes its
    one table, without the stacks' leading axis."""
    out_side, leaf, q_t = columns
    n = len(leaf)
    if n == 1:
        m = _expected_transition(q_t[0])
        p_out, p_in = np.asarray(_probabilities(out_side[0])), np.asarray(_probabilities(leaf[0]))
        return [_normalized(p_out[:, None] * m * p_in[None, :], "two-slice joint has zero normalizer")]
    (m,) = _stacked(q_t, lambda q: (_expected_transition(q),))
    (p_out,) = _stacked(out_side, _table)
    (p_in,) = _stacked(leaf, _table)
    j = _rows(p_out[:, :, None] * m * p_in[:, None, :], n)
    if n > 1:
        z = np.sum(j.reshape(n, -1), axis=1)
        if (z > 0.0).all():
            return stack_members(Categorical, j / z[:, None, None])
    return [_normalized(table, "two-slice joint has zero normalizer") for table in j]


@Batch
def _gaussian_affine_precision(columns, constants):
    scatters = _affine_scatters([column for column in columns if column[0] is not None], constants)
    return _precision_messages(_rows(scatters, len(columns[0])), constants)


def _affine_belief_transport(inbound, constants):
    """Marginal of a deterministic affine function of other factors' beliefs:
    mean sum of transported means, covariance sum of transported covariances.
    Consumers treat the result as a marginal (mean-only shifts)."""
    qs = _strip_void(inbound)
    gains = [as_matrix(g) for g in constants["gains"]]
    mean = np.zeros(gains[0].shape[0])
    if constants.get("offset") is not None:
        mean = mean + as_vector(constants["offset"])
    cov = np.zeros((gains[0].shape[0], gains[0].shape[0]))
    for g, q in zip(gains, qs):
        m, v = mean_and_cov(q)
        mean = mean + g @ m
        cov = cov + g @ v @ g.T
    return GaussianMeanVariance(mean, symmetrize(cov))


def _gaussian_nonlinear_precision(inbound, constants):
    """Precision increment for out ~ N(g(r), w^-1) with r an affine map of the
    leaf belief, using the same local linearization as the messages."""
    q_out, q_x = _strip_void(inbound)
    g, g_prime = NONLINEAR_FUNCTIONS[constants["g"]]
    q_r = affine_transport(q_x, constants["gains"][0], constants.get("offset"))
    mr, vr = mean_and_cov(q_r)
    r0 = float(mr[0])
    mo, vo = mean_and_cov(q_out)
    resid = float(mo[0]) - g(r0)
    scatter = float(vo[0, 0]) + g_prime(r0) ** 2 * float(vr[0, 0]) + resid * resid
    return _precision_messages(np.array([[[scatter]]]), constants)[0]


# ---------------------------------------------------------------------------
# Outbound-type annotations
# ---------------------------------------------------------------------------


def _static(cls):
    return lambda in_types, constants: cls


def _product_type(in_types, constants):
    types = [t for t in in_types if t is not None]
    if any(t is PointMass for t in types):
        return PointMass
    if all(issubclass(t, GaussianBase) for t in types):
        return GaussianCanonical
    return types[0]


def _gain_out_type(in_types, constants):
    present = [t for t in in_types if t is not None]
    return PointMass if present and present[0] is PointMass else GaussianMeanVariance


def _gain_in_type(in_types, constants):
    present = [t for t in in_types if t is not None]
    return PointMass if present and present[0] is PointMass else GaussianCanonical


def _precision_family(dim: int, constants: dict) -> type:
    """A scalar precision is a Gamma unless its belief is a 1x1 Wishart
    (the ``family`` constant); a matrix one is a Wishart."""
    return Gamma if dim == 1 and constants.get("family", "gamma") == "gamma" else Wishart


def _precision_out_type(in_types, constants):
    return _precision_family(int(constants.get("out_dim", 1)), constants)


# ---------------------------------------------------------------------------
# Registry assembly
# ---------------------------------------------------------------------------


def _msg(fams=None):
    return Slot(MESSAGE, fams)


def _marg(fams=None):
    return Slot(MARGINAL, fams)


def build_default_registry() -> RuleRegistry:
    """A fresh registry of the built-in rules, not frozen: rules for new node
    kinds may be registered on it without reaching ``default_registry()``."""
    reg = RuleRegistry()

    def add(kind, role, flavor, slots, fn, out_type, needs_previous=False):
        return reg.register(Rule(kind, role, flavor, slots, fn, out_type, needs_previous))

    for i, role in enumerate(("1", "2", "3")):
        slots = [Slot(VOID) if j == i else _msg() for j in range(3)]
        add("equality", role, "sum-product", slots, _equality_sp, _product_type)

    gk = "gaussian_mean_precision"
    add(gk, "out", "sum-product", [Slot(VOID), _msg(GAUSSIAN_LIKE), _msg(PointMass)],
        _gaussian_forward, _static(GaussianMeanVariance))
    add(gk, "mean", "sum-product", [_msg(GAUSSIAN_LIKE), Slot(VOID), _msg(PointMass)],
        _gaussian_backward_mean, _static(GaussianMeanVariance))
    add(gk, "out", "variational", [Slot(VOID), _msg(GAUSSIAN_LIKE), _marg(PRECISION_LIKE)],
        _gaussian_forward, _static(GaussianMeanVariance))
    add(gk, "mean", "variational", [_msg(GAUSSIAN_LIKE), Slot(VOID), _marg(PRECISION_LIKE)],
        _gaussian_backward_mean, _static(GaussianMeanVariance))
    add(gk, "out", "variational", [Slot(VOID), _marg(GAUSSIAN_LIKE), _marg(PRECISION_LIKE)],
        _gaussian_vmp_out, _static(GaussianMeanPrecision))
    add(gk, "mean", "variational", [_marg(GAUSSIAN_LIKE), Slot(VOID), _marg(PRECISION_LIKE)],
        _gaussian_vmp_mean, _static(GaussianMeanPrecision))
    add(gk, "out", "variational", [Slot(VOID), _marg(GAUSSIAN_LIKE), _msg(PointMass)],
        _gaussian_vmp_out, _static(GaussianMeanPrecision))
    add(gk, "mean", "variational", [_marg(GAUSSIAN_LIKE), Slot(VOID), _msg(PointMass)],
        _gaussian_vmp_mean, _static(GaussianMeanPrecision))

    gv = "gaussian_mean_variance"
    add(gv, "out", "sum-product", [Slot(VOID), _msg(GAUSSIAN_LIKE), _msg(PointMass)],
        _variance_forward, _static(GaussianMeanVariance))
    add(gv, "mean", "sum-product", [_msg(GAUSSIAN_LIKE), Slot(VOID), _msg(PointMass)],
        _variance_backward_mean, _static(GaussianMeanVariance))
    add(gv, "out", "variational", [Slot(VOID), _marg(GAUSSIAN_LIKE), _msg(PointMass)],
        _variance_vmp_out, _static(GaussianMeanVariance))
    add(gv, "mean", "variational", [_marg(GAUSSIAN_LIKE), Slot(VOID), _msg(PointMass)],
        _variance_vmp_mean, _static(GaussianMeanVariance))

    add("gamma", "out", "sum-product", [Slot(VOID), _msg(PointMass), _msg(PointMass)],
        _prior_emission(Gamma, ("shape", "rate")), _static(Gamma))
    add("wishart", "out", "sum-product", [Slot(VOID), _msg(PointMass), _msg(PointMass)],
        _prior_emission(Wishart, ("scale", "dof")), _static(Wishart))
    add("dirichlet", "out", "sum-product", [Slot(VOID), _msg(PointMass)],
        _prior_emission(Dirichlet, ("concentration",)), _static(Dirichlet))
    add("categorical", "out", "sum-product", [Slot(VOID), _msg(PointMass)],
        _prior_emission(Categorical, ("probabilities",)), _static(Categorical))

    add("addition", "out", "sum-product", [Slot(VOID), _msg(GAUSSIAN_LIKE), _msg(GAUSSIAN_LIKE)],
        _addition_sp("out"), _product_type)
    add("addition", "in1", "sum-product", [_msg(GAUSSIAN_LIKE), Slot(VOID), _msg(GAUSSIAN_LIKE)],
        _addition_sp("in1"), _product_type)
    add("addition", "in2", "sum-product", [_msg(GAUSSIAN_LIKE), _msg(GAUSSIAN_LIKE), Slot(VOID)],
        _addition_sp("in2"), _product_type)
    add("addition", "out", "variational", [Slot(VOID), _msg(GAUSSIAN_LIKE), _marg(GAUSSIAN_LIKE)],
        _addition_vmp_shift("out", marginal_at=2), _static(GaussianMeanVariance))
    add("addition", "out", "variational", [Slot(VOID), _marg(GAUSSIAN_LIKE), _msg(GAUSSIAN_LIKE)],
        _addition_vmp_shift("out", marginal_at=1), _static(GaussianMeanVariance))
    add("addition", "in1", "variational", [_msg(GAUSSIAN_LIKE), Slot(VOID), _marg(GAUSSIAN_LIKE)],
        _addition_vmp_shift("in1", marginal_at=2), _static(GaussianMeanVariance))
    add("addition", "in2", "variational", [_msg(GAUSSIAN_LIKE), _marg(GAUSSIAN_LIKE), Slot(VOID)],
        _addition_vmp_shift("in2", marginal_at=1), _static(GaussianMeanVariance))

    add("gain", "out", "sum-product", [Slot(VOID), _msg(GAUSSIAN_LIKE)],
        _gain_forward, _gain_out_type)
    add("gain", "in", "sum-product", [_msg(GAUSSIAN_LIKE), Slot(VOID)],
        _gain_backward, _gain_in_type)

    add("nonlinear", "out", "sum-product", [Slot(VOID), _msg(GAUSSIAN_LIKE)],
        _nonlinear_forward, _gain_out_type)
    add("nonlinear", "in", "sum-product", [_msg(GAUSSIAN_LIKE), Slot(VOID)],
        _nonlinear_backward, _static(GaussianMeanVariance), needs_previous=True)

    add("transition", "out", "variational",
        [Slot(VOID), _msg(CATEGORICAL_LIKE), _marg((Dirichlet, PointMass))],
        _transition_out, _static(Categorical))
    add("transition", "in", "variational",
        [_msg(CATEGORICAL_LIKE), Slot(VOID), _marg((Dirichlet, PointMass))],
        _transition_in, _static(Categorical))
    add("transition", "out", "sum-product",
        [Slot(VOID), _msg(CATEGORICAL_LIKE), _msg(PointMass)],
        _transition_out, _static(Categorical))
    add("transition", "in", "sum-product",
        [_msg(CATEGORICAL_LIKE), Slot(VOID), _msg(PointMass)],
        _transition_in, _static(Categorical))
    add("transition", "matrix", "variational", [_marg(Categorical), Slot(VOID), Slot(VOID)],
        _transition_toward_matrix, _static(Dirichlet))

    # Component pairs (mean_k, precision_k) repeat for any K >= 2; the roles
    # mean_k and precision_k void the first or second slot of the k-th pair.
    pair = [_marg(GAUSSIAN_LIKE), _marg(PRECISION_LIKE)]
    add("gaussian_mixture", "selector", "variational",
        [_msg(GAUSSIAN_LIKE), Slot(VOID), Repeat(pair, 2)],
        _mixture_selector, _static(Categorical))
    add("gaussian_mixture", "mean", "variational",
        [_msg(GAUSSIAN_LIKE), _marg(CATEGORICAL_LIKE), Repeat(pair, 2, void_at=0)],
        _mixture_toward_mean, _static(GaussianCanonical))
    add("gaussian_mixture", "precision", "variational",
        [_msg(GAUSSIAN_LIKE), _marg(CATEGORICAL_LIKE), Repeat(pair, 2, void_at=1)],
        _mixture_toward_precision, _precision_out_type)

    add("probit", "in", "expectation-propagation",
        [_msg(PointMass), Slot(CAVITY, GAUSSIAN_LIKE)],
        _probit_ep, _static(GaussianCanonical), needs_previous=True)

    # Structured-chain joint: out-side message, leaf message, any number of
    # offset marginals, precision marginal (a fixed variance for a
    # GaussianMeanVariance link).
    add("gaussian_affine", "joint", "variational",
        [_msg(GAUSSIAN_LIKE), _msg(GAUSSIAN_LIKE), Repeat([_marg()], 0), _marg(PRECISION_LIKE)],
        _joint_gaussian_chain, _static(GaussianMeanVariance))
    add("gaussian_affine_variance", "joint", "variational",
        [_msg(GAUSSIAN_LIKE), _msg(GAUSSIAN_LIKE), Repeat([_marg()], 0), _marg(PointMass)],
        _joint_gaussian_variance_chain, _static(GaussianMeanVariance))
    add("transition", "joint", "variational",
        [_msg(CATEGORICAL_LIKE), _msg(CATEGORICAL_LIKE), _marg((Dirichlet, PointMass))],
        _joint_categorical_chain, _static(Categorical))

    add("gaussian_affine", "transport", "variational", [Repeat([_marg()], 1), Slot(VOID)],
        _affine_belief_transport, _static(GaussianMeanVariance))

    add("gaussian_nonlinear", "precision", "variational",
        [_marg(), _marg(), Slot(VOID)],
        _gaussian_nonlinear_precision, _precision_out_type)

    # Composed affine updates toward a precision; the first marginal slot is
    # the out belief or the two-slice joint.
    add("gaussian_affine", "precision", "variational", [Repeat([_marg()], 1), Slot(VOID)],
        _gaussian_affine_precision, _precision_out_type)

    return reg


def make_gain_equality_rule(kind_name: str, b_row) -> Rule:
    """Custom sum-product rule for a gain-equality composite node: the
    outbound state message equals the dense equality-then-gain composition
    but is computed with rank-one updates only."""
    b = np.atleast_2d(np.asarray(b_row, dtype=float))

    def fn(inbound, constants):
        return _gain_equality_out(inbound, {"matrix": b})

    return Rule(
        kind_name, "z", "sum-product",
        [_msg(GaussianBase), _msg(GaussianBase), Slot(VOID)],
        fn, _static(GaussianMeanVariance),
    )


_DEFAULT_REGISTRY: RuleRegistry | None = None


def default_registry() -> RuleRegistry:
    """The shared registry of the built-in rules, frozen."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = build_default_registry().freeze()
    return _DEFAULT_REGISTRY
