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
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.special import log_ndtr

from ._linalg import as_matrix, as_vector, spd_inverse, symmetrize
from .distributions import (
    Categorical,
    Dirichlet,
    Distribution,
    Gamma,
    GaussianBase,
    GaussianCanonical,
    GaussianMeanPrecision,
    GaussianMeanVariance,
    PointMass,
    Wishart,
    affine_residual_scatter,
    affine_transport,
    expected_logdet_precision,
    expected_precision,
    mean_and_cov,
    moment,
    product,
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


class Message:
    """A distribution annotated with the rule that produced it."""

    __slots__ = ("dist", "rule_id", "info")

    def __init__(self, dist: Distribution, rule_id: str, info: dict | None = None):
        self.dist = dist
        self.rule_id = rule_id
        self.info = info or {}

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
    def __init__(self, kind, role, flavor, slots, fn, out_type, needs_previous=False):
        self.kind = kind
        self.role = role  # the role class (``mean``) when the rule is indexed
        self.flavor = flavor
        self.slots = list(slots)  # Slot patterns, at most one of them a Repeat
        self.fn = fn
        self.out_type = out_type  # callable(in_types, constants) -> variant class
        self.needs_previous = needs_previous
        self.group_at = next((i for i, s in enumerate(self.slots) if isinstance(s, Repeat)), None)
        self.indexed = self.group_at is not None and self.slots[self.group_at].void_at is not None
        digest = hashlib.sha1(
            "|".join([kind, role, flavor] + [s.describe() for s in self.slots]).encode()
        ).hexdigest()[:8]
        self.id = f"{flavor}:{kind}:{role}:{digest}"

    def apply(self, inbound, constants, previous=None) -> Message:
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
    """Immutable-after-freeze collection of rules with deterministic lookup."""

    def __init__(self):
        self._rules: list[Rule] = []
        self._by_id: dict[str, Rule] = {}
        self._frozen = False

    def register(self, rule: Rule) -> Rule:
        if self._frozen:
            raise RuleError("registry is frozen")
        if rule.id in self._by_id:
            raise RuleError(f"duplicate rule id {rule.id}")
        self._rules.append(rule)
        self._by_id[rule.id] = rule
        return rule

    def freeze(self) -> "RuleRegistry":
        self._frozen = True
        return self

    def extended(self, rules) -> "RuleRegistry":
        reg = RuleRegistry()
        for r in self._rules:
            reg.register(r)
        for r in rules:
            reg.register(r)
        return reg.freeze()

    def lookup(self, kind: str, role: str, query_slots, flavor: str | None = None) -> Rule:
        """Most specific applicable rule; deterministic tie-break by
        registration order. An indexed role such as ``mean_2`` is served by
        the rule registered for its role class ``mean``."""
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
    return GaussianMeanVariance(mean, symmetrize(as_matrix(cov)))


def _precision_message(scatter: np.ndarray, weight: float = 1.0) -> Distribution:
    """Full-form conjugate increment toward a precision variable.

    Scalar: Gamma(1 + w/2, w*S/2), so the Gamma product (a1 + a2 - 1) adds
    w/2 to the shape per slice. Matrix: Wishart with V^-1 = w*S and
    dof = d + 1 + w, so the Wishart product (nu1 + nu2 - d - 1) adds exactly
    w degrees of freedom per slice.
    """
    d = scatter.shape[0]
    if d == 1:
        rate = max(0.5 * weight * float(scatter[0, 0]), 1e-300)
        return Gamma(1.0 + 0.5 * weight, rate)
    return Wishart(spd_inverse(weight * scatter), d + 1.0 + weight)


def _strip_void(inbound) -> list:
    return [q for q in inbound if q is not None]


# ---------------------------------------------------------------------------
# Rule implementations
# ---------------------------------------------------------------------------


def _equality_sp(inbound, constants):
    a, b = _strip_void(inbound)
    return product(a, b)


def _gaussian_forward(inbound, constants):
    _, q_mean, q_prec = inbound
    m, v = mean_and_cov(q_mean)
    w = expected_precision(q_prec, m.shape[0])
    return GaussianMeanVariance(m, v + spd_inverse(w))


def _gaussian_backward_mean(inbound, constants):
    q_out, _, q_prec = inbound
    m, v = mean_and_cov(q_out)
    w = expected_precision(q_prec, m.shape[0])
    return GaussianMeanVariance(m, v + spd_inverse(w))


def _gaussian_vmp_out(inbound, constants):
    _, q_mean, q_prec = inbound
    m = as_vector(moment(q_mean, "mean"))
    return GaussianMeanPrecision(m, expected_precision(q_prec, m.shape[0]))


def _gaussian_vmp_mean(inbound, constants):
    q_out, _, q_prec = inbound
    m = as_vector(moment(q_out, "mean"))
    return GaussianMeanPrecision(m, expected_precision(q_prec, m.shape[0]))


def _gaussian_vmp_precision(inbound, constants):
    q_out, q_mean, _ = inbound
    mx, vx = mean_and_cov(q_out)
    mm, vm = mean_and_cov(q_mean)
    r = mx - mm
    return _precision_message(vx + vm + np.outer(r, r))


def _gaussian_mv_forward(inbound, constants):
    _, q_mean, q_var = inbound
    m, v = mean_and_cov(q_mean)
    return GaussianMeanVariance(m, v + as_matrix(q_var.value))


def _gaussian_mv_backward_mean(inbound, constants):
    q_out, _, q_var = inbound
    m, v = mean_and_cov(q_out)
    return GaussianMeanVariance(m, v + as_matrix(q_var.value))


def _prior_emission(cls, param_names):
    def fn(inbound, constants):
        params = [np.asarray(p.value, dtype=float) for p in inbound[1:]]
        return cls(**dict(zip(param_names, params)))

    return fn


def _categorical_vmp_out(inbound, constants):
    _, q_p = inbound
    logp = np.asarray(moment(q_p, "logprobs"), dtype=float)
    p = np.exp(logp - np.max(logp))
    return Categorical(p / float(np.sum(p)))


def _addition_sp(direction):
    def fn(inbound, constants):
        if direction == "out":
            a, b = inbound[1], inbound[2]
            ma, va = mean_and_cov(a)
            mb, vb = mean_and_cov(b)
            return _gauss_or_point(ma + mb, va + vb, (a, b))
        other = inbound[2] if direction == "in1" else inbound[1]
        out = inbound[0]
        mo, vo = mean_and_cov(out)
        mb, vb = mean_and_cov(other)
        return _gauss_or_point(mo - mb, vo + vb, (out, other))

    return fn


def _addition_vmp_shift(direction, marginal_at):
    # One summand lives in another recognition factor: shift the message by
    # its posterior mean only; the precision is unchanged.
    def fn(inbound, constants):
        shift = as_vector(moment(inbound[marginal_at], "mean"))
        if direction == "out":
            msg = inbound[2] if marginal_at == 1 else inbound[1]
            mm, vm = mean_and_cov(msg)
            return GaussianMeanVariance(mm + shift, vm)
        mo, vo = mean_and_cov(inbound[0])
        return GaussianMeanVariance(mo - shift, vo)

    return fn


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
    # ``previous`` carries the forward inbound message recorded during the
    # same sweep; its mean is the linearization point.
    g, g_prime = NONLINEAR_FUNCTIONS[constants["g"]]
    if previous is None:
        raise RuleError("nonlinear backward rule needs the forward message for linearization")
    lin = previous.dist if isinstance(previous, Message) else previous
    x0 = float(as_vector(moment(lin, "mean"))[0])
    slope = g_prime(x0)
    if abs(slope) < 1e-10:
        return vague("gaussian", 1), {"flat_linearization": True}
    intercept = g(x0) - slope * x0
    mo, vo = mean_and_cov(inbound[0])
    return GaussianMeanVariance(
        [(float(mo[0]) - intercept) / slope], [[float(vo[0, 0]) / slope**2]]
    )


def _expected_transition(q_t) -> np.ndarray:
    return np.exp(np.asarray(moment(q_t, "logprobs"), dtype=float))


def _transition_out(inbound, constants):
    _, q_in, q_t = inbound
    p = _expected_transition(q_t) @ np.asarray(moment(q_in, "mean"), dtype=float)
    z = float(np.sum(p))
    if z <= 0.0:
        raise RuleError("transition message has zero normalizer")
    return Categorical(p / z)


def _transition_in(inbound, constants):
    q_out, _, q_t = inbound
    p = _expected_transition(q_t).T @ np.asarray(moment(q_out, "mean"), dtype=float)
    z = float(np.sum(p))
    if z <= 0.0:
        raise RuleError("transition message has zero normalizer")
    return Categorical(p / z)


def _transition_toward_matrix(inbound, constants):
    j = np.asarray(moment(inbound[0], "mean"), dtype=float)
    if j.ndim != 2:
        raise RuleError("message toward a transition matrix needs the two-slice joint")
    return Dirichlet(1.0 + j)


def _transition_toward_matrix_mf(inbound, constants):
    q_out, q_in, _ = inbound
    return Dirichlet(1.0 + np.outer(moment(q_out, "mean"), moment(q_in, "mean")))


def _mixture_components(inbound):
    comps = inbound[2:]
    return [(comps[2 * i], comps[2 * i + 1]) for i in range(len(comps) // 2)]


def _mixture_selector(inbound, constants):
    q_out = inbound[0]
    my, vy = mean_and_cov(q_out)
    d = my.shape[0]
    logs = []
    for q_m, q_w in _mixture_components(inbound):
        mm, vm = mean_and_cov(q_m)
        r = my - mm
        quad = vy + vm + np.outer(r, r)
        logs.append(
            0.5 * expected_logdet_precision(q_w, d)
            - 0.5 * d * np.log(2 * np.pi)
            - 0.5 * float(np.trace(expected_precision(q_w, d) @ quad))
        )
    logs = np.asarray(logs)
    p = np.exp(logs - np.max(logs))
    return Categorical(p / float(np.sum(p)))


def _mixture_toward_mean(inbound, constants):
    # The void slot is component k's mean; its precision follows it.
    at = inbound.index(None)
    q_out, q_sel, q_w = inbound[0], inbound[1], inbound[at + 1]
    resp = float(np.asarray(moment(q_sel, "mean"))[(at - 2) // 2])
    my, _ = mean_and_cov(q_out)
    w = resp * expected_precision(q_w, my.shape[0])
    return GaussianCanonical(w @ my, w)


def _mixture_toward_precision(inbound, constants):
    # The void slot is component k's precision; its mean precedes it.
    at = inbound.index(None)
    q_out, q_sel, q_m = inbound[0], inbound[1], inbound[at - 1]
    resp = float(np.asarray(moment(q_sel, "mean"))[(at - 2) // 2])
    my, vy = mean_and_cov(q_out)
    mm, vm = mean_and_cov(q_m)
    r = my - mm
    return _precision_message(vy + vm + np.outer(r, r), weight=resp)


def _mixture_out(inbound, constants):
    resp = np.asarray(moment(inbound[1], "mean"), dtype=float)
    comps = _mixture_components(inbound)
    d = as_vector(moment(comps[0][0], "mean")).shape[0]
    w = np.zeros((d, d))
    xi = np.zeros(d)
    for r, (q_m, q_w) in zip(resp, comps):
        ew = expected_precision(q_w, d)
        w = w + r * ew
        xi = xi + r * (ew @ as_vector(moment(q_m, "mean")))
    return GaussianCanonical(xi, w)


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
    if lam < 1.0:
        prev = previous.dist if isinstance(previous, Message) else previous
        if prev is not None and np.isfinite(w_new):
            xi_p, w_p = _canonical(prev)
            w_new = lam * w_new + (1.0 - lam) * float(w_p[0, 0])
            xi_new = lam * xi_new + (1.0 - lam) * float(xi_p[0])
    if w_new <= 0.0 or not np.isfinite(w_new):
        prev = previous.dist if isinstance(previous, Message) else previous
        if prev is None:
            prev = GaussianCanonical([0.0], [[1e-12]])
        xi_p, w_p = _canonical(prev)
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


def _joint_gaussian_chain(inbound, constants):
    """Two-slice joint over (x_prev, x_out) for a Gaussian transition section
    x_out ~ N(F x_prev + c, W^-1), built in canonical form from the forward
    message on the leaf edge and the combined message on the out side."""
    qs = _strip_void(inbound)
    msg_out_side, msg_leaf = qs[0], qs[1]
    offsets = qs[2:-1]
    q_prec = qs[-1]
    gains = [as_matrix(g) for g in constants["gains"]]
    f = gains[0]
    do, dl = f.shape
    c = np.zeros(do)
    base = constants.get("offset")
    if base is not None:
        c = c + as_vector(base)
    for g, q in zip(gains[1:], offsets):
        c = c + as_matrix(g) @ as_vector(moment(q, "mean"))
    w_hat = expected_precision(q_prec, do)
    xi_l, w_l = _canonical_or_sharp(msg_leaf, dl)
    xi_o, w_o = _canonical_or_sharp(msg_out_side, do)
    prec = np.zeros((dl + do, dl + do))
    prec[:dl, :dl] = w_l + f.T @ w_hat @ f
    prec[:dl, dl:] = -f.T @ w_hat
    prec[dl:, :dl] = -w_hat @ f
    prec[dl:, dl:] = w_hat + w_o
    xi = np.concatenate([xi_l - f.T @ (w_hat @ c), xi_o + w_hat @ c])
    cov = spd_inverse(prec)
    return GaussianMeanVariance(cov @ xi, symmetrize(cov))


def _joint_categorical_chain(inbound, constants):
    """Two-slice joint for a Transition section; rows index x_out."""
    msg_out_side, msg_leaf, q_t = _strip_void(inbound)
    m = _expected_transition(q_t)
    p_out = np.asarray(moment(msg_out_side, "mean"), dtype=float)
    p_in = np.asarray(moment(msg_leaf, "mean"), dtype=float)
    j = p_out[:, None] * m * p_in[None, :]
    z = float(np.sum(j))
    if z <= 0.0:
        raise RuleError("two-slice joint has zero normalizer")
    return Categorical(j / z)


def _gaussian_affine_precision(inbound, constants):
    return _precision_message(affine_residual_scatter(_strip_void(inbound), constants))


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
    return _precision_message(np.array([[scatter]]))


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


def _precision_out_type(in_types, constants):
    return Gamma if int(constants.get("out_dim", 1)) == 1 else Wishart


# ---------------------------------------------------------------------------
# Registry assembly
# ---------------------------------------------------------------------------


def _msg(fams=None):
    return Slot(MESSAGE, fams)


def _marg(fams=None):
    return Slot(MARGINAL, fams)


def build_default_registry() -> RuleRegistry:
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
    add(gk, "precision", "variational", [_marg(GAUSSIAN_LIKE), _marg(GAUSSIAN_LIKE), Slot(VOID)],
        _gaussian_vmp_precision, _precision_out_type)

    gv = "gaussian_mean_variance"
    add(gv, "out", "sum-product", [Slot(VOID), _msg(GAUSSIAN_LIKE), _msg(PointMass)],
        _gaussian_mv_forward, _static(GaussianMeanVariance))
    add(gv, "mean", "sum-product", [_msg(GAUSSIAN_LIKE), Slot(VOID), _msg(PointMass)],
        _gaussian_mv_backward_mean, _static(GaussianMeanVariance))

    add("gamma", "out", "sum-product", [Slot(VOID), _msg(PointMass), _msg(PointMass)],
        _prior_emission(Gamma, ("shape", "rate")), _static(Gamma))
    add("wishart", "out", "sum-product", [Slot(VOID), _msg(PointMass), _msg(PointMass)],
        _prior_emission(Wishart, ("scale", "dof")), _static(Wishart))
    add("dirichlet", "out", "sum-product", [Slot(VOID), _msg(PointMass)],
        _prior_emission(Dirichlet, ("concentration",)), _static(Dirichlet))
    add("categorical", "out", "sum-product", [Slot(VOID), _msg(PointMass)],
        _prior_emission(Categorical, ("probabilities",)), _static(Categorical))
    add("categorical", "out", "variational", [Slot(VOID), _marg(Dirichlet)],
        _categorical_vmp_out, _static(Categorical))

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
    add("transition", "matrix", "variational", [_marg(Categorical), _marg(Categorical), Slot(VOID)],
        _transition_toward_matrix_mf, _static(Dirichlet))

    # Component pairs (mean_k, precision_k) repeat for any K >= 2; the roles
    # mean_k and precision_k void the first or second slot of the k-th pair.
    pair = [_marg(GAUSSIAN_LIKE), _marg(PRECISION_LIKE)]
    add("gaussian_mixture", "selector", "variational",
        [_msg(GAUSSIAN_LIKE), Slot(VOID), Repeat(pair, 2)],
        _mixture_selector, _static(Categorical))
    add("gaussian_mixture", "out", "variational",
        [Slot(VOID), _marg(CATEGORICAL_LIKE), Repeat(pair, 2)],
        _mixture_out, _static(GaussianCanonical))
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
    # offset marginals, precision marginal.
    add("gaussian_affine", "joint", "variational",
        [_msg(GAUSSIAN_LIKE), _msg(GAUSSIAN_LIKE), Repeat([_marg()], 0), _marg(PRECISION_LIKE)],
        _joint_gaussian_chain, _static(GaussianMeanVariance))
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

    return reg.freeze()


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
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = build_default_registry()
    return _DEFAULT_REGISTRY
