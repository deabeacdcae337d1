"""Batched rule bodies (``distributions.Batch``): a batch of T messages against T
batches of one (the rule's per-call form), and against the per-call bodies
the batched ones replaced, kept here as the reference, bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_categorical_floats import state_messages, transition_beliefs
from test_free_energy import finite, gains, gaussians, precisions, ref_scatter, spd_matrices, tables, variances

from mpgraph import rules
from mpgraph._linalg import as_matrix, as_vector, spd_inverse, symmetrize
from mpgraph.distributions import (
    Categorical,
    Dirichlet,
    Gamma,
    GaussianCanonical,
    GaussianMeanPrecision,
    GaussianMeanVariance,
    PointMass,
    Wishart,
    _probabilities,
    _scalar_mean,
    _scalar_moments,
    expected_covariance,
    expected_logdet_precision,
    expected_precision,
    mean_and_cov,
    moment,
)
from mpgraph.rules import RuleError, default_registry

# ---------------------------------------------------------------------------
# The per-call bodies the batched ones replaced
# ---------------------------------------------------------------------------


def ref_precision_message(scatter, constants, weight=1.0):
    d = scatter.shape[0]
    if d == 1 and constants.get("family", "gamma") == "gamma":
        return Gamma(1.0 + 0.5 * weight, max(0.5 * weight * float(scatter[0, 0]), 1e-300))
    return Wishart(spd_inverse(weight * scatter), d + 1.0 + weight)


def ref_spread(at):
    def body(inbound, constants):
        m, v = mean_and_cov(inbound[at])
        return GaussianMeanVariance(m, v + expected_covariance(inbound[2], m.shape[0]))
    return body


def ref_vmp(at):
    def body(inbound, constants):
        m = as_vector(moment(inbound[at], "mean"))
        return GaussianMeanPrecision(m, expected_precision(inbound[2], m.shape[0]))
    return body


def ref_variance(q):
    v = q.value
    return v.item() if v.size == 1 and v.ndim in (0, 2) else as_matrix(v)


def ref_variance_spread(at):
    def body(inbound, constants):
        m, v = _scalar_moments(inbound[at]) or mean_and_cov(inbound[at])
        return GaussianMeanVariance(m, v + ref_variance(inbound[2]))
    return body


def ref_variance_vmp(inbound, constants):
    q_other = inbound[1] if inbound[0] is None else inbound[0]
    (m,) = _scalar_mean(q_other) or (moment(q_other, "mean"),)
    return GaussianMeanVariance(m, ref_variance(inbound[2]))


def ref_shift(direction, marginal_at):
    def body(inbound, constants):
        shift = as_vector(moment(inbound[marginal_at], "mean"))
        if direction == "out":
            mm, vm = mean_and_cov(inbound[2] if marginal_at == 1 else inbound[1])
            return GaussianMeanVariance(mm + shift, vm)
        mo, vo = mean_and_cov(inbound[0])
        return GaussianMeanVariance(mo - shift, vo)
    return body


def ref_sharp(msg, dim):
    if isinstance(msg, PointMass):
        v = as_vector(msg.value)
        w = 1e12 * np.eye(dim)
        return w @ v, w
    return msg.weighted_mean_vector(), msg.precision_matrix()


def ref_joint(inbound, constants):
    qs = [q for q in inbound if q is not None]
    msg_out_side, msg_leaf, offsets, q_prec = qs[0], qs[1], qs[2:-1], qs[-1]
    gains = [as_matrix(g) for g in constants["gains"]]
    f = gains[0]
    do, dl = f.shape
    c = np.zeros(do)
    if constants.get("offset") is not None:
        c = c + as_vector(constants["offset"])
    for g, q in zip(gains[1:], offsets):
        c = c + as_matrix(g) @ as_vector(moment(q, "mean"))
    w_hat = expected_precision(q_prec, do)
    xi_l, w_l = ref_sharp(msg_leaf, dl)
    xi_o, w_o = ref_sharp(msg_out_side, do)
    prec = np.zeros((dl + do, dl + do))
    prec[:dl, :dl] = w_l + f.T @ w_hat @ f
    prec[:dl, dl:] = -f.T @ w_hat
    prec[dl:, :dl] = -w_hat @ f
    prec[dl:, dl:] = w_hat + w_o
    xi = np.concatenate([xi_l - f.T @ (w_hat @ c), xi_o + w_hat @ c])
    cov = spd_inverse(prec)
    return GaussianMeanVariance(cov @ xi, symmetrize(cov))


def ref_variance_joint(inbound, constants):
    *rest, q_var = inbound
    return ref_joint([*rest, PointMass(spd_inverse(as_matrix(q_var.value)))], constants)


def ref_selector(inbound, constants):
    my, vy = mean_and_cov(inbound[0])
    d = my.shape[0]
    logs = []
    for q_m, q_w in zip(inbound[2::2], inbound[3::2]):
        mm, vm = mean_and_cov(q_m)
        r = my - mm
        quad = vy + vm + np.outer(r, r)
        logs.append(0.5 * expected_logdet_precision(q_w, d) - 0.5 * d * np.log(2 * np.pi)
                    - 0.5 * float(np.trace(expected_precision(q_w, d) @ quad)))
    logs = np.asarray(logs)
    p = np.exp(logs - np.max(logs))
    return Categorical(p / float(np.sum(p)))


def ref_toward_mean(inbound, constants):
    at = inbound.index(None)
    resp = float(np.asarray(moment(inbound[1], "mean"))[(at - 2) // 2])
    my, _ = mean_and_cov(inbound[0])
    w = resp * expected_precision(inbound[at + 1], my.shape[0])
    return GaussianCanonical(w @ my, w)


def ref_toward_precision(inbound, constants):
    at = inbound.index(None)
    resp = float(np.asarray(moment(inbound[1], "mean"))[(at - 2) // 2])
    my, vy = mean_and_cov(inbound[0])
    mm, vm = mean_and_cov(inbound[at - 1])
    r = my - mm
    return ref_precision_message(vy + vm + np.outer(r, r), constants, weight=resp)


def ref_affine_precision(inbound, constants):
    return ref_precision_message(ref_scatter([q for q in inbound if q is not None], constants), constants)


def ref_transition_joint(inbound, constants):
    msg_out_side, msg_leaf, q_t = inbound
    m = rules._expected_transition(q_t)
    p_out = np.asarray(_probabilities(msg_out_side), dtype=float)
    p_in = np.asarray(_probabilities(msg_leaf), dtype=float)
    return rules._normalized(p_out[:, None] * m * p_in[None, :], "two-slice joint has zero normalizer")


def ref_transition_matrix(inbound, constants):
    j = np.asarray(moment(inbound[0], "mean"), dtype=float)
    if j.ndim != 2:
        raise RuleError("message toward a transition matrix needs the two-slice joint")
    return Dirichlet(1.0 + j)


# name -> (batched body, reference)
BODIES = {
    "gaussian forward": (rules._gaussian_forward, ref_spread(1)),
    "gaussian backward": (rules._gaussian_backward_mean, ref_spread(0)),
    "gaussian vmp out": (rules._gaussian_vmp_out, ref_vmp(1)),
    "gaussian vmp mean": (rules._gaussian_vmp_mean, ref_vmp(0)),
    # a mean-variance node: slot 2 is the fixed variance
    "gaussian variance forward": (rules._variance_forward, ref_variance_spread(1)),
    "gaussian variance backward": (rules._variance_backward_mean, ref_variance_spread(0)),
    "gaussian variance vmp out": (rules._variance_vmp_out, ref_variance_vmp),
    "gaussian variance vmp mean": (rules._variance_vmp_mean, ref_variance_vmp),
    **{f"addition {d} from {at}": (rules._addition_vmp_shift(d, at), ref_shift(d, at))
       for d, at in [("out", 1), ("out", 2), ("in1", 2), ("in2", 1)]},
    "affine precision": (rules._gaussian_affine_precision, ref_affine_precision),
    "joint": (rules._joint_gaussian_chain, ref_joint),
    "joint variance": (rules._joint_gaussian_variance_chain, ref_variance_joint),
    "mixture selector": (rules._mixture_selector, ref_selector),
    "mixture mean": (rules._mixture_toward_mean, ref_toward_mean),
    "mixture precision": (rules._mixture_toward_precision, ref_toward_precision),
    "transition joint": (rules._joint_categorical_chain, ref_transition_joint),
    "transition matrix": (rules._transition_toward_matrix, ref_transition_matrix),
}

VOID = st.just(None)


def fixed_variances(d):
    """A fixed variance as a matrix, or for d = 1 also as a number."""
    if d > 1:
        return variances(d)
    return st.one_of(variances(1), spd_matrices(1).map(lambda v: PointMass(float(v[0, 0]))))


@st.composite
def rule_batches(draw):
    """One body's instructions with shared constants: a list of inbound
    lists. A slot may hold one belief in every instruction, as a parameter
    every time slice reads does."""
    name = draw(st.sampled_from(sorted(BODIES)))
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 3))
    constants = {}
    if name.startswith("gaussian"):
        other, second = gaussians(d), fixed_variances(d) if " variance " in name else precisions(d)
        slots = [VOID, other, second] if name.endswith(("forward", "out")) else [other, VOID, second]
    elif name.startswith("addition"):
        _, direction, _, at = name.split()
        slots = [gaussians(d), gaussians(d), gaussians(d)]
        slots[{"out": 0, "in1": 1, "in2": 2}[direction]] = VOID
    elif name.startswith("mixture"):
        k = draw(st.integers(2, 9))  # from 8 components on, numpy sums pairwise
        slots = [gaussians(d), tables((k,)).map(Categorical)]
        for _ in range(k):
            slots += [gaussians(d), precisions(d)]
        if name.endswith("selector"):
            slots[1] = VOID
        else:
            slots[2 + 2 * draw(st.integers(0, k - 1)) + name.endswith("precision")] = VOID
        if d == 1 and draw(st.booleans()):
            constants["family"] = "wishart"
    elif name.startswith("transition"):
        k = draw(st.integers(2, 9))  # a table of 8 entries or more is summed pairwise
        if name.endswith("joint"):
            slots = [state_messages(k), state_messages(k), transition_beliefs(k)]
        else:  # a joint, or a state belief, which has no two-slice table
            slots = [st.one_of(tables((k, k)), tables((k,))).map(Categorical), VOID, VOID]
    elif name == "affine precision":
        joint = draw(st.booleans())
        dims = [draw(st.integers(1, 2)) for _ in range(draw(st.integers(1, 2)))]
        constants = {"gains": [gains(draw, d, dl).tolist() for dl in dims], "joint": joint, "out_dim": d}
        if d == 1 and draw(st.booleans()):
            constants["family"] = "wishart"
        if draw(st.booleans()):
            constants["offset"] = draw(st.lists(finite, min_size=d, max_size=d))
        first = gaussians(dims[0] + d, point=False) if joint else gaussians(d)
        slots = [first, *(gaussians(dl) for dl in dims[1 if joint else 0:]), VOID]
    else:
        dl = draw(st.integers(1, 2))
        dims = [draw(st.integers(1, 2)) for _ in range(draw(st.integers(0, 2)))]
        constants = {"gains": [gains(draw, d, dl).tolist(), *(gains(draw, d, dg).tolist() for dg in dims)]}
        if draw(st.booleans()):
            constants["offset"] = draw(st.lists(finite, min_size=d, max_size=d))
        last = variances(d) if name.endswith("variance") else precisions(d)
        slots = [gaussians(d), gaussians(dl), *(gaussians(dg) for dg in dims), last]
    shared = [draw(st.booleans()) and i > 0 for i in range(len(slots))]
    fixed = [draw(s) for s in slots]
    batch = [[fixed[i] if shared[i] else draw(s) for i, s in enumerate(slots)] for _ in range(n)]
    odd = draw(st.integers(0, 7)) == 0
    if odd:  # one instruction reads a belief of the wrong family or size
        at = draw(st.sampled_from([i for i, q in enumerate(batch[0]) if q is not None]))
        batch[draw(st.integers(0, n - 1))][at] = draw(st.sampled_from([Dirichlet([1.0, 2.0]),
                                                                       PointMass(np.ones(d + 1))]))
    return name, batch, constants, odd


def outcome(fn, *args):
    """The exception type and text ``fn`` raises, or the class and the bytes
    of every parameter of the distribution it returns."""
    with np.errstate(all="ignore"):
        try:
            dist = fn(*args)
        except Exception as exc:  # the type and text are what is compared
            return type(exc), str(exc)
    return type(dist), [np.asarray(v, dtype=float).tobytes() for v in dist._params_json().values()]


class TestBatchedRules:
    @settings(max_examples=500, deadline=None)
    @given(rule_batches())
    def test_batch_matches_batches_of_one_and_the_reference(self, case):
        name, batch, constants, odd = case
        body, reference = BODIES[name]
        want = [outcome(reference, inbound, constants) for inbound in batch]
        fails = [issubclass(kind, Exception) for kind, _ in want]
        for inbound, expected in zip(batch, want):
            # the per-call form is a batch of one; only a belief of the wrong
            # size fails with other text (numpy names the stacked shapes)
            one = outcome(body, inbound, constants)
            assert one[0] == expected[0] if odd else one == expected, name
        # a batch fails if one of its messages fails alone, or if its beliefs
        # do not stack (the executor then runs the instructions alone)
        failing = any(fails)
        columns = [list(column) for column in zip(*batch)]
        with np.errstate(all="ignore"):
            try:
                got = body.batch(columns, constants)
            except Exception:
                assert failing or odd, name
                return
        assert not failing, name
        assert [outcome(lambda dist=dist: dist) for dist in got] == want, name

    def test_the_registry_marks_the_batched_rules(self):
        batched = {rule.id.rsplit(":", 1)[0] for rule in default_registry()._rules if rule.batch is not None}
        assert {"variational:gaussian_affine:precision", "variational:gaussian_affine:joint",
                "variational:gaussian_affine_variance:joint", "variational:gaussian_mean_precision:mean",
                "variational:gaussian_mean_precision:out", "sum-product:gaussian_mean_precision:mean",
                "sum-product:gaussian_mean_precision:out", "variational:gaussian_mixture:selector",
                "variational:gaussian_mixture:mean", "variational:gaussian_mixture:precision",
                "variational:addition:in1", "variational:addition:in2", "variational:addition:out",
                "variational:gaussian_mean_variance:mean", "variational:gaussian_mean_variance:out",
                "sum-product:gaussian_mean_variance:mean", "sum-product:gaussian_mean_variance:out",
                "variational:transition:joint", "variational:transition:matrix"} == batched
        # an EP update reads its previous message, so it never runs batched
        assert all(rule.batch is None for rule in default_registry()._rules if rule.needs_previous)
        # a batched rule's per-call body is its batch of one
        assert all(rule.batch is rule.fn.batch for rule in default_registry()._rules if rule.batch)


def test_canonical_out_side_message_of_a_joint():
    # the joint reads the out side in canonical form, precision possibly singular
    inbound = [GaussianCanonical([0.0, 1.0], [[1.0, 0.0], [0.0, 0.0]]), GaussianMeanVariance([0.0], [[2.0]]),
               Wishart(np.eye(2), 3.0)]
    constants = {"gains": [[[1.0], [0.5]]]}
    want = outcome(ref_joint, inbound, constants)
    assert want[0] is GaussianMeanVariance
    assert outcome(rules._joint_gaussian_chain, inbound, constants) == want
