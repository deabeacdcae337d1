"""A group's Gaussians of d >= 2 built as the members of one checked stack
(``distributions.stack_members``) against the same Gaussians built one at a time
through their constructors: type, dimension, array bits, read-only flags,
``to_json``, ``==`` and the lazily derived forms, and, for a stack with a
failing member, the constructor's exception at the first failing member.
Then the readers that take a stack back (``_stacked``), the stacked
``eigvalsh`` the d >= 3 check relies on, and a guard that the README walk's
joint group runs no per-member SPD check."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgraph import distributions
from mpgraph._linalg import EIG_FLOOR
from mpgraph.codegen import Interpreter
from mpgraph.distributions import (
    GaussianCanonical,
    GaussianMeanPrecision,
    GaussianMeanVariance,
    _stacked,
    stack_members,
    mean_and_cov,
)
from mpgraph.engine import DirectExecutor, compile_model, init_marginals
from mpgraph.models import RandomWalkModel, sample_generative

ARRAYS = {GaussianMeanVariance: ("mean", "covariance"),
          GaussianMeanPrecision: ("mean", "precision"),
          GaussianCanonical: ("weighted_mean", "precision")}
DERIVED = ("mean_vector", "covariance_matrix", "precision_matrix", "weighted_mean_vector")

# the kinds of matrix a member may have; the last four fail a check of some family
KINDS = ("spd", "scaled", "floor", "singular", "nudged", "loose", "tiny negative", "huge",
         "nan", "inf", "asymmetric", "indefinite")
EDGES = KINDS[2:8]  # at an edge of a check


def matrix(kind: str, d: int, rng) -> np.ndarray:
    g = rng.normal(size=(d, d))
    q, _ = np.linalg.qr(g)
    if kind == "spd":
        return g @ g.T + 0.1 * np.eye(d)
    if kind == "scaled":
        return 10.0 ** rng.integers(-6, 7) * (g @ g.T + 0.1 * np.eye(d))
    if kind == "floor":  # eigenvalues at the floor the moments clip to
        w = np.full(d, EIG_FLOOR)
        w[-1] = rng.uniform(0.5, 2.0) if rng.random() < 0.5 else EIG_FLOOR
        return (q * w) @ q.T
    if kind == "singular":  # rank one: the zero eigenvalues round to either side of the bound
        v = rng.normal(size=d)
        return np.outer(v, v)
    if kind == "nudged":  # asymmetric within both tolerances
        m = g @ g.T + np.eye(d)
        m[0, 1] += 1e-13 * np.max(np.abs(m))
        return m
    if kind == "loose":  # asymmetric within GaussianCanonical's tolerance, not check_spd's
        m = g @ g.T + np.eye(d)
        m[0, 1] += 1e-10 * np.max(np.abs(m))
        return m
    if kind == "huge":  # entries whose sums and products overflow (NaN eigenvalues, inf diagonals)
        m = g @ g.T + 0.1 * np.eye(d)
        return m * (rng.choice([1.0, 1.0, 1.0, -1.0]) * rng.uniform(0.2, 1.0) * 1.7e308 / np.max(np.abs(m)))
    if kind == "tiny negative":  # a negative eigenvalue on either side of -1e-12
        return np.diag(np.r_[-10.0 ** -rng.uniform(11.9, 13.0), np.ones(d - 1)])
    if kind == "nan":
        m = g @ g.T
        m[rng.integers(d), rng.integers(d)] = np.nan
        return m
    if kind == "inf":
        m = g @ g.T
        m[rng.integers(d), rng.integers(d)] = -np.inf if rng.random() < 0.5 else np.inf
        return m
    if kind == "asymmetric":
        m = g @ g.T + np.eye(d)
        m[d - 1, 0] += 1e-6
        return m
    assert kind == "indefinite"
    return (q * np.r_[-1.0, np.ones(d - 1)]) @ q.T


def outcome(build):
    """The members ``build`` returns, or the type and text of what it raises."""
    try:
        return build()
    except Exception as exc:  # the type and text are what is compared
        return type(exc), str(exc)


def assert_same_member(a, b):
    assert type(a) is type(b) and a.dim == b.dim
    for name in ARRAYS[type(a)]:
        x, y = getattr(a, name), getattr(b, name)
        assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes())
        assert not x.flags.writeable and not y.flags.writeable
    assert a.to_json() == b.to_json() and a == b
    for name in DERIVED:  # or the same error, where LAPACK gives up on a huge matrix
        x, y = outcome(getattr(a, name)), outcome(getattr(b, name))
        if isinstance(x, tuple):
            assert x == y
        else:
            assert (x.shape, x.tobytes(), x.flags.writeable) == (y.shape, y.tobytes(), y.flags.writeable)


@st.composite
def groups(draw):
    """A family, and a stack of 2 to 50 members' parameters, d = 2, 3 or 4,
    each member's matrix of one kind; most groups pass every check."""
    cls = draw(st.sampled_from(sorted(ARRAYS, key=lambda c: c.variant)))
    d = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(2, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edge = draw(st.sampled_from(EDGES))
    kinds = draw(st.lists(st.sampled_from(["spd", "scaled", edge]), min_size=n, max_size=n))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):  # failing members
        kinds[draw(st.integers(0, n - 1))] = draw(st.sampled_from(KINDS[8:]))
    first = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
    with np.errstate(all="ignore"):
        second = np.array([matrix(kind, d, rng) for kind in kinds])
    return cls, first, second


@settings(max_examples=300, deadline=None)
@given(groups())
def test_stack_built_members_are_the_constructors(group):
    cls, first, second = group
    with np.errstate(all="ignore"):
        alone = outcome(lambda: [cls(first[i], second[i]) for i in range(len(first))])
        stacked = outcome(lambda: stack_members(cls, first, second))
    if isinstance(alone, tuple):  # the first failing member's exception
        assert stacked == alone
        return
    assert len(stacked) == len(alone)
    stack = stacked[0]._stack
    assert stack is not None and all(q._stack is stack for q in stacked)  # none was built alone
    with np.errstate(all="ignore"):
        for a, b in zip(stacked, alone):
            assert_same_member(a, b)


@pytest.mark.parametrize("cls", sorted(ARRAYS, key=lambda c: c.variant))
def test_a_row_may_stand_for_all(cls):
    rng = np.random.default_rng(3)
    mean = rng.normal(size=(1, 2))
    matrices = np.array([matrix("spd", 2, rng) for _ in range(4)])
    first = np.broadcast_to(mean, (4, 2))
    for a, b in zip(stack_members(cls, first, matrices), [cls(mean[0], m) for m in matrices]):
        assert_same_member(a, b)


def test_stacked_eigvalsh_gives_each_matrix_its_own_bits():
    # the d >= 3 semi-definiteness check takes the eigenvalues of a stack at
    # once, where ``check_spd`` takes each matrix's alone
    rng = np.random.default_rng(7)
    for d in (3, 4, 5):
        for n in (2, 17, 50):
            kinds = rng.choice(KINDS[:7], size=n)
            m = np.array([matrix(kind, d, rng) for kind in kinds])
            sym = 0.5 * (m + np.swapaxes(m, -1, -2))
            together = np.linalg.eigvalsh(sym)
            for i in range(n):
                assert together[i].tobytes() == np.linalg.eigvalsh(0.5 * (m[i] + m[i].T)).tobytes()


def test_a_reader_takes_the_stack_back_only_for_its_own_members_in_order():
    rng = np.random.default_rng(11)
    means = rng.normal(size=(6, 2))
    covs = np.array([matrix("spd", 2, rng) for _ in range(6)])
    members = stack_members(GaussianMeanVariance, means, covs)
    stack = members[0]._stack
    taken = _stacked(members, mean_and_cov)
    assert taken[0] is stack.first and taken[1] is stack.second
    alone = [GaussianMeanVariance(m, v) for m, v in zip(means, covs)]
    others = [members[::-1], members[:5], members + members[:1], [alone[0], *members[1:]],
              [members[0], members[0], *members[2:]]]
    for column in others:  # restacked, with the bits a restack gives
        got = _stacked(column, mean_and_cov)
        want = [np.array(x) for x in zip(*map(mean_and_cov, column))]
        assert got[0] is not stack.first
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
    # a stack of precision form holds no covariance
    precisions = stack_members(GaussianMeanPrecision, means, covs)
    got = _stacked(precisions, mean_and_cov)
    assert got[1].tobytes() == np.array([q.covariance_matrix() for q in precisions]).tobytes()


def test_the_walks_joint_group_runs_no_per_member_spd_check(monkeypatch):
    T, model = 50, RandomWalkModel()
    program = compile_model(*model.build(T))
    data, _ = sample_generative("random-walk", seed=1, T=T)
    joints = sum(ins.opcode == "joint" for _, prog in program.ir.steps for ins in prog)
    shapes = Counter()
    check_spd = distributions.check_spd

    def counted(m, *args, **kwargs):
        shapes[np.shape(m)] += 1
        return check_spd(m, *args, **kwargs)

    monkeypatch.setattr(distributions, "check_spd", counted)
    for runner, want in ((Interpreter(program.ir), 0), (DirectExecutor(program.schedules), joints)):
        marginals = init_marginals(program.factorization, program.rf, model.initial_marginals(T))
        runner.run_iteration(data, marginals)
        shapes.clear()
        runner.run_iteration(data, marginals)
        assert joints == T and shapes[(2, 2)] == want
