"""A group's Wisharts, two-slice categorical tables and Dirichlets built as
the members of one checked stack (``distributions.stack_members``) against
the same values built one at a time through their constructors: class,
array bits, read-only flags, ``to_json`` and the derived expectations, and,
for a stack with a failing member, the constructor's exception at the first
failing member.
Then the readers that take such a stack back (``_held``): only a reader of
the stack's family, and only for its own members in member order. Last, a
group of two-slice joints against the same joints computed alone, and a
guard that an hmgm iteration builds its grouped Wisharts, joints and
Dirichlets without their constructors."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_stacked_members import KINDS, matrix, outcome

from mpgraph import rules
from mpgraph.codegen import Interpreter
from mpgraph.distributions import (
    Categorical,
    Dirichlet,
    GaussianMeanVariance,
    IncompatibleSupport,
    Wishart,
    _held,
    _stacked,
    _table,
    mean_and_cov,
    negative_entropy,
    stack_members,
)
from mpgraph.engine import DirectExecutor, compile_model, init_marginals
from mpgraph.models import HmgmModel, sample_generative

ARRAYS = {Wishart: "scale", Categorical: "probabilities", Dirichlet: "concentration"}
DERIVED = {Wishart: ("mean_matrix", "mean_inverse", "expected_logdet", "entropy"),
           Categorical: ("entropy",), Dirichlet: ("expected_logprobs", "geometric_mean", "entropy")}


def assert_same_member(a, b):
    assert type(a) is type(b)
    x, y = getattr(a, ARRAYS[type(a)]), getattr(b, ARRAYS[type(b)])
    assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes())
    assert not x.flags.writeable and not y.flags.writeable
    if type(a) is Wishart:
        assert a.dof.__class__ is float and np.float64(a.dof).tobytes() == np.float64(b.dof).tobytes()
        assert a.dim == b.dim
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())  # a NaN dof is never ==
    for name in DERIVED[type(a)]:  # or the same error, where LAPACK gives up on a huge matrix
        x, y = outcome(getattr(a, name)), outcome(getattr(b, name))
        if isinstance(x, tuple):
            assert x == y
        else:
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes()


def wishart_stacks(draw, n, rng):
    """Scales of d = 2 or 3, each of one kind (most pass the strict check),
    and dofs, a few at or below d - 1 or NaN (which passes)."""
    d = draw(st.sampled_from([2, 3]))
    edge = draw(st.sampled_from(KINDS[2:8]))
    kinds = draw(st.lists(st.sampled_from(["spd", "scaled", edge]), min_size=n, max_size=n))
    dofs = [d + 1.0 + rng.uniform() for _ in range(n)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):  # failing members
        kinds[draw(st.integers(0, n - 1))] = draw(st.sampled_from(KINDS[8:]))
    for _ in range(draw(st.sampled_from([0, 0, 1]))):
        dofs[draw(st.integers(0, n - 1))] = draw(st.sampled_from([d - 1.0, d - 1.0 + 1e-9, float("nan")]))
    with np.errstate(all="ignore"):
        scales = np.array([matrix(kind, d, rng) for kind in kinds])
    return scales, dofs


def table_stacks(draw, n, rng):
    """K x K probability tables, K = 2 to 9 (from 8 entries on numpy sums
    pairwise), some with entries nudged below zero, to -0.0, to NaN, or a
    sum off by more than 1e-12."""
    k = draw(st.integers(2, 9))
    tables = rng.uniform(size=(n, k, k)) * 10.0 ** rng.integers(-3, 3, size=(n, k, k))
    tables[rng.uniform(size=tables.shape) < 0.2] = 0.0
    tables[:, 0, 0] += 1e-3
    tables /= np.sum(tables, axis=(1, 2), keepdims=True)
    for _ in range(draw(st.integers(0, 3))):
        i, r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        tables[i, r, c] = draw(st.sampled_from([-0.0, -1e-13, -1e-12, -1e-11, np.nan, np.inf,
                                                tables[i, r, c] + 3e-12, tables[i, r, c] + 5e-13]))
    return (tables,)


def dirichlet_stacks(draw, n, rng):
    """Concentration vectors or matrices, some with an entry zero, negative
    or not finite."""
    shape = draw(st.sampled_from([(3,), (3, 3), (2, 4)]))
    a = 1.0 + rng.uniform(size=(n, *shape)) * 10.0 ** rng.integers(-2, 3)
    for _ in range(draw(st.integers(0, 2))):
        a.reshape(n, -1)[draw(st.integers(0, n - 1)), 0] = draw(st.sampled_from([0.0, -1.0, np.inf, np.nan, 1e-300]))
    return (a,)


STACKS = {Wishart: wishart_stacks, Categorical: table_stacks, Dirichlet: dirichlet_stacks}


@st.composite
def groups(draw):
    cls = draw(st.sampled_from([Wishart, Categorical, Dirichlet]))
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return cls, STACKS[cls](draw, n, rng)


@settings(max_examples=400, deadline=None)
@given(groups())
def test_stack_built_members_are_the_constructors(group):
    cls, stacks = group
    with np.errstate(all="ignore"):
        alone = outcome(lambda: [cls(*row) for row in zip(*stacks)])
        stacked = outcome(lambda: stack_members(cls, *stacks))
    if isinstance(alone, tuple):  # the first failing member's exception
        assert stacked == alone
        return
    stack = stacked[0]._stack
    assert stack is not None and stack.cls is cls and all(q._stack is stack for q in stacked)
    assert [q._row for q in stacked] == list(range(len(alone)))
    with np.errstate(all="ignore"):
        for a, b in zip(stacked, alone):
            assert_same_member(a, b)


@pytest.mark.parametrize("cls", [Wishart, Categorical, Dirichlet], ids=lambda c: c.variant)
def test_a_batch_of_one_keeps_the_constructor(cls, monkeypatch):
    stacks = {Wishart: (np.array([np.eye(2)]), [3.0]), Categorical: (np.full((1, 2, 2), 0.25),),
              Dirichlet: (np.ones((1, 3)),)}[cls]
    monkeypatch.setattr(cls, "_from_stack", lambda *args: pytest.fail("a batch of one was stacked"))
    (member,) = stack_members(cls, *stacks)
    assert member._stack is None
    assert_same_member(member, cls(*(s[0] for s in stacks)))


def spd_stack(n, rng):
    g = rng.normal(size=(n, 2, 2))
    return g @ g.swapaxes(1, 2) + 0.1 * np.eye(2)


def test_a_stack_is_taken_back_only_by_a_reader_of_its_family():
    rng = np.random.default_rng(9)
    n = 6
    tables = rng.uniform(size=(n, 3, 3))
    joints = stack_members(Categorical, tables / np.sum(tables, axis=(1, 2), keepdims=True))
    wisharts = stack_members(Wishart, spd_stack(n, rng), [4.0] * n)
    gaussians = stack_members(GaussianMeanVariance, rng.normal(size=(n, 2)), spd_stack(n, rng))
    stack = joints[0]._stack
    assert _held(joints, Categorical) is stack and _stacked(joints, _table)[0] is stack.first
    for column in (joints[::-1], joints[:-1], joints + joints[:1], [Categorical(joints[0].probabilities), *joints[1:]]):
        assert _held(column, Categorical) is None
        got = _stacked(column, _table)[0]
        assert got is not stack.first
        assert got.tobytes() == np.array([q.probabilities for q in column]).tobytes()
    # a stack of another family is never read as a Gaussian's or a table's
    assert _held(wisharts, Categorical) is None and _held(wisharts, GaussianMeanVariance) is None
    assert _held(joints, Dirichlet) is None and _held(gaussians, Categorical) is None
    for column in (wisharts, joints):
        with pytest.raises(IncompatibleSupport):
            _stacked(column, mean_and_cov)
    means = _stacked(gaussians, _table)[0]  # a Gaussian's mean, restacked
    assert means is not gaussians[0]._stack.first
    assert means.tobytes() == gaussians[0]._stack.first.tobytes()
    # the entropies read the joints' and the Gaussians' stacks, with the bits of each alone
    for column in (joints, gaussians, joints[::-1]):
        want = np.array([-q.entropy() for q in column])
        assert negative_entropy.batch([column], {}).tobytes() == want.tobytes()


def test_a_group_of_joints_gives_each_joint_its_own_bits():
    # each table's normalizer is numpy's sum of that table alone (pairwise
    # from 8 entries on), however the group's tables are stacked
    rng = np.random.default_rng(12)
    for k in range(2, 10):
        n = 60

        def states():
            p = rng.uniform(size=(n, k)) ** 4
            return [Categorical(row) for row in p / np.sum(p, axis=1, keepdims=True)]

        columns = [states(), states(), [Dirichlet(0.5 + rng.uniform(size=(k, k)))] * n]
        joints = rules._joint_categorical_chain.batch(columns, {})
        assert _held(joints, Categorical) is not None
        for joint, inbound in zip(joints, zip(*columns)):
            alone = rules._joint_categorical_chain(list(inbound), {})
            assert alone._stack is None and joint.probabilities.tobytes() == alone.probabilities.tobytes()


def test_an_hmgm_iteration_builds_its_groups_without_their_constructors(monkeypatch):
    # per step, only a parameter's prior message and its marginal (the
    # product) go through the Wishart and Dirichlet constructors; the joints'
    # and the messages' groups are stacks. DirectExecutor builds each message
    # and each partial product of the fold through them.
    T, model = 20, HmgmModel(K=3)
    data, _ = sample_generative("hmgm", 1, T=T)
    program = compile_model(*model.build(T))
    built = []
    for cls in (Wishart, Dirichlet):
        monkeypatch.setattr(cls, "__init__", lambda q, *args, init=cls.__init__, **kwargs:
                            built.append(type(q)) or init(q, *args, **kwargs))
    got = {}
    for runner, want in ((Interpreter(program.ir), (6, 2)),
                         (DirectExecutor(program.schedules), (3 * (1 + 2 * T), 1 + 2 * T))):
        marginals = init_marginals(program.factorization, program.rf, model.initial_marginals(T, data))
        runner.run_iteration(data, marginals)
        built.clear()
        runner.run_iteration(data, marginals)
        assert (built.count(Wishart), built.count(Dirichlet)) == want
        got[type(runner)] = {key: (type(q), [np.asarray(v, dtype=float).tobytes() for v in q._params_json().values()])
                             for key, q in marginals.items()}
        joints = [q for key, q in marginals.items() if "&" in str(key)]
        assert len(joints) == T
        if type(runner) is Interpreter:
            assert _held(joints, Categorical) is not None
    assert got[Interpreter] == got[DirectExecutor]
