"""K-state categoricals on Python floats against the array bodies they stand
in for, kept here as the reference: the constructor, the categorical
``product``, the transition messages and two-slice joint, the mixture
selector's rows and responsibilities, and the stacked F terms, bit for bit
and with the same exceptions. A vector of fewer than 8 states is checked on
floats; a matrix and a vector of 8 or more states keep the array body,
which these references cover too. Then a guard that an hmgm iteration
builds none of its K-state messages through the array body."""

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_free_energy import gaussians, precisions

from mpgraph import rules
from mpgraph.codegen import Interpreter
from mpgraph.distributions import (
    Categorical,
    Dirichlet,
    DistributionError,
    IncompatibleSupport,
    PointMass,
    _scatters,
    _stacked,
    categorical_entropies,
    expected_logdet_precision,
    expected_precision,
    mean_and_cov,
    moment,
    negative_entropy,
    product,
)
from mpgraph.engine import compile_model, init_marginals
from mpgraph.models import HmgmModel, sample_generative
from mpgraph.rules import RuleError

# ---------------------------------------------------------------------------
# The array bodies
# ---------------------------------------------------------------------------


def ref_categorical(p) -> np.ndarray:
    """The array constructor: the read-only probabilities, or its error."""
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2):
        raise DistributionError("Categorical probabilities must be a vector or matrix")
    if np.any(p < -1e-12):
        raise DistributionError("Categorical probabilities must be nonnegative")
    s = float(np.sum(p))
    if not abs(s - 1.0) <= 1e-12:
        if not np.isfinite(p).all():
            raise DistributionError("Categorical probabilities must be finite")
        raise DistributionError(f"Categorical probabilities must sum to 1, got {s!r}")
    p = np.clip(p, 0.0, None)
    p.flags.writeable = False
    return p


def ref_product(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    if pa.shape != pb.shape:
        raise IncompatibleSupport("Categorical size mismatch")
    p = pa * pb
    z = float(np.sum(p))
    if z <= 0.0:
        raise DistributionError("Categorical product has zero normalizer")
    return ref_categorical(p / z)


def ref_normalized(p: np.ndarray, error: str) -> np.ndarray:
    z = float(np.sum(p))
    if z <= 0.0:
        raise RuleError(error)
    return ref_categorical(p / z)


def ref_expected_transition(q_t) -> np.ndarray:
    return np.exp(np.asarray(moment(q_t, "logprobs"), dtype=float))


def ref_transition_out(inbound):
    _, q_in, q_t = inbound
    p = ref_expected_transition(q_t) @ np.asarray(moment(q_in, "mean"), dtype=float)
    return ref_normalized(p, "transition message has zero normalizer")


def ref_transition_in(inbound):
    q_out, _, q_t = inbound
    p = ref_expected_transition(q_t).T @ np.asarray(moment(q_out, "mean"), dtype=float)
    return ref_normalized(p, "transition message has zero normalizer")


def ref_joint(inbound):
    msg_out_side, msg_leaf, q_t = inbound
    p_out = np.asarray(moment(msg_out_side, "mean"), dtype=float)
    p_in = np.asarray(moment(msg_leaf, "mean"), dtype=float)
    j = p_out[:, None] * ref_expected_transition(q_t) * p_in[None, :]
    return ref_normalized(j, "two-slice joint has zero normalizer")


def ref_selector_batch(columns) -> list:
    """The batched selector body with its array rows."""
    my, vy = _stacked(columns[0], mean_and_cov)
    d = my.shape[-1]
    logs = []
    for mean_column, prec_column in zip(columns[2::2], columns[3::2]):
        mm, vm = _stacked(mean_column, mean_and_cov)
        quad = _scatters(my - mm, vy + vm)
        logdet, w = _stacked(prec_column, lambda q: (expected_logdet_precision(q, d), expected_precision(q, d)))
        logs.append(0.5 * logdet - 0.5 * d * np.log(2 * np.pi) - 0.5 * np.trace(w @ quad, axis1=1, axis2=2))
    logs = np.stack(np.broadcast_arrays(*logs), axis=1)
    p = np.ascontiguousarray(rules._rows(np.exp(logs - np.max(logs, axis=1, keepdims=True)), len(columns[0])))
    return [ref_categorical(row / total) for row, total in zip(p, np.sum(p, axis=1).tolist())]


def ref_responsibilities(selectors, k: int) -> np.ndarray:
    return np.array([float(np.asarray(moment(q, "mean"))[k]) for q in selectors])


def ref_negative_entropy(qs) -> np.ndarray:
    return -categorical_entropies(np.array([q.probabilities for q in qs]))


# ---------------------------------------------------------------------------
# Comparing values
# ---------------------------------------------------------------------------


def described(q) -> tuple:
    """A value's class, the bits, shape and read-only flag of its array, and
    its JSON."""
    p = q.probabilities
    return type(q), p.tobytes(), p.shape, p.flags.writeable, json.dumps(q.to_json())


def ref_described(p: np.ndarray) -> tuple:
    return Categorical, p.tobytes(), p.shape, p.flags.writeable, \
        json.dumps({"type": "Categorical", "params": {"probabilities": p.tolist()}})


def outcome(fn):
    """The exception type and text ``fn`` raises, or what it returns."""
    with np.errstate(all="ignore"):
        try:
            return fn()
        except Exception as exc:  # the type and text are what is compared
            return type(exc), str(exc)


def holding(p: np.ndarray) -> Categorical:
    """A value whose array is ``p``, for ``==``."""
    q = object.__new__(Categorical)
    q.probabilities = p
    return q


# ---------------------------------------------------------------------------
# Inputs: entries in [-1e-12, 0), signed zeros, subnormals, sums off by more
# than 1e-12, non-finite entries
# ---------------------------------------------------------------------------

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-13, -1e-12, float(np.nextafter(-1e-12, -1.0)), -0.5,
           1.0, 1.7e308, float("inf"), float("-inf"), float("nan")]
DRIFT = [0.0, 0.0, 5e-13, -5e-13, 1e-12, -1e-12, 2e-12, -2e-12, 1e-9]


def normalized(weights) -> list:
    w = np.array(weights)
    return (w / np.sum(w)).tolist()


@st.composite
def vectors(draw, sizes=st.integers(2, 7)):
    """Raw entries, or a probability vector whose entries are nudged (to a
    signed zero, just below zero, a subnormal) and whose sum drifts."""
    k = draw(sizes)
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL)), min_size=k, max_size=k))
    weights = draw(st.lists(st.one_of(st.floats(0.0, 1e3), st.sampled_from([0.0, 5e-324, 1e-300])),
                            min_size=k, max_size=k))
    p = normalized(weights) if sum(weights) > 0.0 else [1.0 / k] * k
    for _ in range(draw(st.integers(0, 2))):
        p[draw(st.integers(0, k - 1))] = draw(st.sampled_from([-0.0, 0.0, -1e-13, -1e-12, 5e-324, -5e-324]))
    p[draw(st.integers(0, k - 1))] += draw(st.sampled_from(DRIFT))
    return p


@st.composite
def beliefs(draw, sizes=st.integers(2, 7)):
    """A categorical that constructs, built from floats or from an array,
    some with zero entries."""
    k = draw(sizes)
    weights = draw(st.lists(st.sampled_from([0.0, 5e-324, 1e-300, 0.1, 0.3, 1.0, 2.5, 1e300]),
                            min_size=k, max_size=k).filter(any))
    p = normalized(weights)
    with np.errstate(all="ignore"):
        return Categorical(tuple(p) if draw(st.booleans()) else np.array(p))


@st.composite
def transition_beliefs(draw, k):
    """q(T) of a k-state chain: a Dirichlet, or a point-mass table with
    zero, negative and non-finite entries."""
    if draw(st.booleans()):
        return Dirichlet(np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=k * k, max_size=k * k)))
                         .reshape(k, k))
    entries = st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.0, -1.0, 1e-300, 1e300, float("inf")]))
    return PointMass(np.array(draw(st.lists(entries, min_size=k * k, max_size=k * k))).reshape(k, k))


@st.composite
def state_messages(draw, k):
    """A k-state categorical, or a point mass on a k-vector."""
    if draw(st.integers(0, 3)) == 0:
        return PointMass(np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 0.5]), min_size=k, max_size=k))))
    return draw(beliefs(st.just(k)))


# ---------------------------------------------------------------------------
# Parity
# ---------------------------------------------------------------------------


@settings(max_examples=1000, deadline=None)
@example([-0.0, 1.0])  # the clip gives +0.0
@example([-1e-12, 1.0])  # on the bound: kept, then clipped
@example([float(np.nextafter(-1e-12, -1.0)), 1.0])
@example([0.5, 0.5 + 2e-12])  # off by more than 1e-12
@example([0.5, float("nan")])
@example([float("-inf"), float("inf")])  # the negative entry is named first
@example([1.7e308, 1.7e308])  # finite entries whose sum overflows
@example([1e16, 1.0, 1.0, -1e16 + 1.0])  # the left fold's order shows
@given(vectors())
def test_constructor_matches_the_array_body(p):
    want = outcome(lambda: ref_described(ref_categorical(p)))
    for arg in (tuple(p), np.array(p), list(p), tuple(np.array(p))):  # floats, an array, a list, numpy floats
        assert outcome(lambda: described(Categorical(arg))) == want
    if want[0] is Categorical:
        built = Categorical(tuple(p))
        assert built._p is not None and len(built._p) == len(p)
        assert built == Categorical(np.array(p)) == holding(ref_categorical(p))


@settings(max_examples=200, deadline=None)
@given(st.one_of(vectors(st.integers(8, 10)), vectors(st.just(4)).map(lambda p: np.reshape(p, (2, 2)))))
def test_matrices_and_long_vectors_keep_the_array_body(p):
    want = outcome(lambda: ref_described(ref_categorical(p)))
    assert outcome(lambda: described(Categorical(np.array(p)))) == want
    if want[0] is Categorical:
        assert Categorical(np.array(p))._p is None


def test_a_vector_of_floats_builds_its_array_when_it_is_read():
    q = Categorical((0.25, 0.75))
    assert "probabilities" not in vars(q)
    assert q.probabilities is q.probabilities and not q.probabilities.flags.writeable
    assert Categorical((1, 0)).probabilities.tolist() == [1.0, 0.0]  # ints are read as numpy reads them


@settings(max_examples=1000, deadline=None)
@given(beliefs(), st.data())
def test_product_matches_the_array_body(a, data):
    # the second of the same size as the first, often with a disjoint
    # support, or of any size
    k = len(a.probabilities) if data.draw(st.booleans()) else data.draw(st.integers(2, 7))
    b = data.draw(beliefs(st.just(k)))
    want = outcome(lambda: ref_described(ref_product(a.probabilities, b.probabilities)))
    assert outcome(lambda: described(product(a, b))) == want


def test_product_of_a_vector_and_a_table_is_a_size_mismatch():
    table = Categorical(np.full((2, 2), 0.25))
    assert outcome(lambda: product(Categorical((0.5, 0.5)), table)) == \
        (IncompatibleSupport, "Categorical size mismatch")


@settings(max_examples=500, deadline=None)
@given(st.integers(2, 9).flatmap(lambda k: st.tuples(state_messages(k), state_messages(k),
                                                      transition_beliefs(k))))
def test_transition_messages_match_the_array_bodies(case):
    a, b, q_t = case
    for body, ref, inbound in ((rules._transition_out, ref_transition_out, [None, a, q_t]),
                               (rules._transition_in, ref_transition_in, [a, None, q_t])):
        want = outcome(lambda: ref_described(ref(inbound)))
        assert outcome(lambda: described(body(inbound, {}))) == want
    want = outcome(lambda: ref_described(ref_joint([a, b, q_t])))
    assert outcome(lambda: described(rules._joint_categorical_chain([a, b, q_t], {}))) == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(1e-3, 1e3), min_size=9, max_size=9))
def test_a_dirichlet_caches_its_geometric_mean(concentration):
    q = Dirichlet(np.reshape(concentration, (3, 3)))
    table = q.geometric_mean()
    assert table is q.geometric_mean() and not table.flags.writeable
    assert table.tobytes() == np.exp(q.expected_logprobs()).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(2, 9), st.integers(1, 2), st.integers(1, 4))
def test_selector_rows_match_the_array_body(data, k, d, n):
    column = st.lists(gaussians(d, point=False), min_size=n, max_size=n)
    columns = [data.draw(st.lists(gaussians(d), min_size=n, max_size=n)), [None] * n]
    for _ in range(k):
        columns += [data.draw(column), [data.draw(precisions(d))] * n]
    want = outcome(lambda: [ref_described(p) for p in ref_selector_batch(columns)])
    assert outcome(lambda: [described(q) for q in rules._mixture_selector.batch(columns, {})]) == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(beliefs(st.just(3)), st.just(PointMass([0.0, 1.0, 0.0])), beliefs(st.just(2))),
                min_size=1, max_size=5), st.integers(0, 2))
def test_responsibilities_match_the_array_body(selectors, k):
    want = outcome(lambda: ref_responsibilities(selectors, k).tobytes())
    assert outcome(lambda: rules._responsibilities(selectors, k).tobytes()) == want


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 9).flatmap(lambda k: st.lists(beliefs(st.just(k)), min_size=1, max_size=5)))
def test_entropies_stack_from_the_floats_with_the_array_bits(qs):
    assert negative_entropy.batch([qs], {}).tobytes() == ref_negative_entropy(qs).tobytes()


# ---------------------------------------------------------------------------
# The chain builds its K-state messages from floats
# ---------------------------------------------------------------------------


def test_an_hmgm_iteration_builds_no_state_vector_through_the_array_body(monkeypatch):
    # The constructor's array body clips with numpy (its only use of
    # np.clip), and so does a stack of K x K tables; in one iteration only
    # the T two-slice joints, as stacks of 3 x 3 tables, are clipped
    T, model = 20, HmgmModel(K=3)
    data, _ = sample_generative("hmgm", 1, T=T)
    program = compile_model(*model.build(T))
    runner = Interpreter(program.ir)
    marginals = init_marginals(program.factorization, program.rf, model.initial_marginals(T, data))
    shapes = []
    clip = np.clip

    def spied(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return clip(a, *args, **kwargs)

    monkeypatch.setattr(np, "clip", spied)
    runner.run_iteration(data, marginals)
    assert shapes and all(len(shape) == 3 and shape[1:] == (3, 3) for shape in shapes)
    assert sum(shape[0] for shape in shapes) == T
