"""``distributions.product_all``, the n-ary product the interpreter runs for a
marginal, against the left fold of the pairwise ``product`` it stands in
for (``Executor.belief``): the same class and parameter bits, or the same
exception type and text. Members are Gaussians of one to three dimensions
(built from floats and from arrays, in all three forms), Gammas, Wisharts of
one to three dimensions, vector and matrix Dirichlets, categoricals and
absorbing point masses; draws include partial products that fail their
checks. Then two shortcuts of the interpreter's product, with the fold's
bits: a group's canonical, Wishart and Dirichlet members are taken back as
their stack, and two messages are one ``product``."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mpgraph import codegen
from mpgraph.distributions import (
    Categorical,
    Dirichlet,
    DistributionError,
    Gamma,
    GaussianCanonical,
    GaussianMeanPrecision,
    GaussianMeanVariance,
    PointMass,
    Wishart,
    product,
    product_all,
)
from mpgraph.distributions import stack_members
from mpgraph.engine import DirectExecutor, compile_model, init_marginals
from mpgraph.models import HmgmModel, sample_generative


def fold(qs):
    out = qs[0]
    for q in qs[1:]:
        out = product(out, q)
    return out


def outcome(qs, multiply):
    """The class and parameter bits of ``multiply(qs)``, or the exception
    type and text it raises."""
    with np.errstate(all="ignore"):
        try:
            q = multiply(qs)
        except Exception as exc:  # the type and text are what is compared
            return type(exc), str(exc)
    return type(q), [(key, np.asarray(value, dtype=float).tobytes()) for key, value in q._params_json().items()]


def assert_fold_bits(qs):
    want = outcome(qs, fold)
    assert outcome(qs, product_all) == want
    return want


# ---------------------------------------------------------------------------
# Members
# ---------------------------------------------------------------------------

ENTRIES = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e-12, 5e-324, 1e300, -1e300]))


def build(make, *args):
    """``make(*args)``, or None where the constructor rejects the draw."""
    try:
        with np.errstate(all="ignore"):
            return make(*args)
    except DistributionError:
        return None


@st.composite
def gaussians(draw, d: int, floats: bool):
    """A Gaussian of dimension ``d`` in one of its three forms, or None when
    the draw does not construct; for d = 1 built from floats or from arrays."""
    form = draw(st.sampled_from([GaussianMeanVariance, GaussianMeanPrecision, GaussianCanonical]))
    mean = draw(st.lists(ENTRIES, min_size=d, max_size=d))
    if form is GaussianCanonical:  # any symmetric precision: sums may be indefinite
        raw = np.array(draw(st.lists(ENTRIES, min_size=d * d, max_size=d * d))).reshape(d, d)
        matrix = np.tril(raw) + np.tril(raw, -1).T
    else:
        g = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=d * d, max_size=d * d))).reshape(d, d)
        matrix = g @ g.T + draw(st.sampled_from([0.0, 1e-3, 1.0])) * np.eye(d)
    if floats:
        return build(form, float(mean[0]), float(matrix[0, 0]))
    return build(form, np.array(mean), matrix)


@st.composite
def wisharts(draw, d: int):
    g = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=d * d, max_size=d * d))).reshape(d, d)
    scale = g @ g.T + draw(st.sampled_from([1e-6, 1e-2, 1.0])) * np.eye(d)
    return build(Wishart, scale, draw(st.floats(d - 1.0 + 1e-3, d + 5.0)))


CASES = {
    "gaussian 1-D floats": gaussians(1, True),
    "gaussian 1-D arrays": gaussians(1, False),
    "gaussian 2-D": gaussians(2, False),
    "gaussian 3-D": gaussians(3, False),
    "gamma": st.builds(lambda a, b: build(Gamma, a, b), st.floats(0.05, 4.0), st.floats(1e-6, 1e3)),
    "wishart 1x1": wisharts(1),
    "wishart 2x2": wisharts(2),
    "wishart 3x3": wisharts(3),
    "dirichlet vector": st.builds(lambda a: build(Dirichlet, a),
                                  st.lists(st.floats(0.05, 4.0), min_size=3, max_size=3)),
    "dirichlet matrix": st.builds(lambda a: build(Dirichlet, np.reshape(a, (3, 2))),
                                  st.lists(st.floats(0.05, 4.0), min_size=6, max_size=6)),
    "categorical": st.builds(lambda p: build(Categorical, np.array(p) / sum(p)) if sum(p) > 0 else None,
                             st.lists(st.sampled_from([0.0, 0.1, 0.5, 2.0]), min_size=3, max_size=3)),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CASES)), st.data(), st.integers(1, 9))
def test_product_all_is_the_pairwise_fold(case, data, n):
    qs = [q for q in data.draw(st.lists(CASES[case], min_size=n, max_size=n)) if q is not None]
    if qs:
        assert_fold_bits(qs)


@pytest.mark.parametrize("case", sorted(CASES))
def test_product_all_is_the_pairwise_fold_on_long_products(case):
    # a parameter marginal multiplies one message per time slice
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.large_base_example, HealthCheck.data_too_large])
    @given(st.lists(CASES[case], min_size=40, max_size=60))
    def check(qs):
        qs = [q for q in qs if q is not None]
        if qs:
            assert_fold_bits(qs)

    check()


ONE_PASS = {
    "gaussian 1-D": [GaussianMeanVariance(0.5 * t, 1.0 + t) for t in range(30)],
    "gaussian 2-D": [GaussianMeanPrecision([0.5 * t, 1.0], [[2.0, 0.3], [0.3, 1.0 + t]]) for t in range(30)],
    "gaussian 3-D": [GaussianMeanVariance([0.5 * t, 1.0, -2.0], (1.0 + t) * np.eye(3) + 0.1) for t in range(30)],
    "gamma": [Gamma(1.0 + 0.5 * t, 0.1 + t) for t in range(30)],
    "wishart 2x2": [Wishart([[1.0 + t, 0.2], [0.2, 2.0]], 3.0 + t) for t in range(30)],
    "dirichlet matrix": [Dirichlet(np.full((3, 3), 1.0 + 0.1 * t)) for t in range(30)],
}


@pytest.mark.parametrize("case", sorted(ONE_PASS))
def test_valid_members_are_multiplied_in_one_pass(case, monkeypatch):
    # no partial product is built: the pairwise product is not called
    qs = ONE_PASS[case]
    want = outcome(qs, fold)
    assert want[0] is not DistributionError

    def pairwise(a, b):
        raise AssertionError("product_all fell back to the pairwise fold")

    monkeypatch.setattr("mpgraph.distributions.product", pairwise)
    assert outcome(qs, product_all) == want


@settings(max_examples=60, deadline=None)
@given(st.lists(gaussians(2, False), min_size=2, max_size=6), st.integers(0, 6), st.booleans())
def test_a_point_mass_absorbs_as_in_the_fold(qs, at, fits):
    qs = [q for q in qs if q is not None]
    point = PointMass([0.5, -1.0] if fits else [0.5, -1.0, 2.0])  # a 3-vector does not fit
    qs.insert(min(at, len(qs)), point)
    assert_fold_bits(qs)


def test_a_point_mass_absorbs_a_long_product():
    qs = [GaussianMeanVariance([0.0, 1.0], np.eye(2)) for _ in range(5)]
    assert assert_fold_bits(qs[:2] + [PointMass([0.5, -1.0])] + qs)[0] is PointMass
    assert assert_fold_bits(qs + [PointMass([0.5, -1.0, 2.0])])[0] is not PointMass


# ---------------------------------------------------------------------------
# Failing partial products
# ---------------------------------------------------------------------------


@example([1.0, 0.5, 0.25, 0.2, 3.0])  # the third partial's shape is -0.05
@given(st.lists(st.floats(0.01, 2.0), min_size=3, max_size=12))
@settings(max_examples=100, deadline=None)
def test_a_non_positive_gamma_shape_fails_as_in_the_fold(shapes):
    qs = [Gamma(a, 1.0) for a in shapes]
    want = assert_fold_bits(qs)
    if np.cumsum(np.array(shapes) - 1.0)[1:].min() + 1.0 < -1e-9:
        assert want == (DistributionError, "Gamma product has non-positive shape")


@pytest.mark.parametrize("d", [1, 2, 3])
def test_an_indefinite_gaussian_partial_fails_as_in_the_fold(d):
    # the running precision is 2, 1, -1, 5: the third member's partial fails
    qs = [GaussianCanonical(1.0, w) if d == 1 else GaussianCanonical(np.ones(d), w * np.eye(d))
          for w in (1.0, 1.0, -1.0, -2.0, 6.0)]
    assert assert_fold_bits(qs) == (DistributionError, "product precision is not positive semi-definite")


@pytest.mark.parametrize("d", [1, 2, 3])
def test_an_overflowing_gaussian_partial_fails_as_in_the_fold(d):
    # the second partial's symmetrization 0.5 * (w + w) overflows to inf, so
    # the third partial is not finite
    huge = 0.75 * 2.0 ** 1023
    qs = [GaussianCanonical(1.0, w) if d == 1 else GaussianCanonical(np.ones(d), w * np.eye(d))
          for w in (1.0, huge, huge, 1.0)]
    want = assert_fold_bits(qs)
    if d < 3:  # LAPACK's eigenvalues of an infinite matrix fail in the fold, and so here
        assert want == (DistributionError, "precision has a non-finite entry")


def test_a_wishart_partial_fails_its_dof_check_as_in_the_fold():
    qs = [Wishart(np.eye(2), dof) for dof in (3.0, 1.2, 1.5, 1.1, 4.0)]  # dof 1.2, then -0.3
    kind, text = assert_fold_bits(qs)
    assert kind is DistributionError and text.startswith("Wishart dof must exceed dim-1, got nu=-0.29")


def ill_conditioned_wisharts(seed: int, n: int = 5) -> list:
    """Wisharts whose scales share one rotation, with eigenvalues from
    1e-14 to 1e12: their running sums of inverse scales are so ill
    conditioned that a partial scale may round to a singular or indefinite
    matrix. Members the constructor rejects are left out."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, np.pi)
    q = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    qs = []
    for _ in range(n):
        scale = (q * [10.0 ** rng.uniform(-14, -11), 10.0 ** rng.uniform(8, 12)]) @ q.T
        wishart = build(Wishart, scale, 3.0 + rng.uniform())
        if wishart is not None:
            qs.append(wishart)
    return qs


def test_a_wishart_partial_fails_its_scale_check_as_in_the_fold():
    failed = 0
    for seed in range(40):
        qs = ill_conditioned_wisharts(seed)
        if len(qs) < 3:
            continue
        members = stack_members(Wishart, np.array([q.scale for q in qs[1:]]), [q.dof for q in qs[1:]])
        assert members[0]._stack is not None
        kind, text = assert_fold_bits(qs)
        assert assert_fold_bits([qs[0], *members]) == (kind, text)
        failed += kind is DistributionError
        assert kind is Wishart or text.startswith("Wishart scale must be positive definite")
    assert failed >= 3


def test_mixed_families_fail_as_in_the_fold():
    qs = [Gamma(2.0, 1.0), Gamma(2.0, 1.0), Dirichlet([1.0, 2.0]), Gamma(2.0, 1.0)]
    assert assert_fold_bits(qs)[0] is not Gamma
    qs = [GaussianCanonical(1.0, 1.0), GaussianCanonical(1.0, 1.0), GaussianCanonical([1.0, 0.0], np.eye(2))]
    assert assert_fold_bits(qs)[0] is not GaussianCanonical


# ---------------------------------------------------------------------------
# A group's members, two messages
# ---------------------------------------------------------------------------


def test_a_groups_canonical_members_are_taken_back_as_their_stack(monkeypatch):
    # a mean-field marginal multiplies a prior by one group's messages, in
    # member order: their stacks are added as they are, with the fold's bits
    rng = np.random.default_rng(5)
    n, g = 30, rng.normal(size=(30, 2, 2))
    members = stack_members(GaussianCanonical, rng.normal(size=(n, 2)), g @ g.swapaxes(1, 2) + 0.1 * np.eye(2))
    prior = GaussianMeanVariance(np.zeros(2), 1e12 * np.eye(2))
    alone = [GaussianCanonical(q.weighted_mean, q.precision) for q in members]
    for qs in ([prior, *members], [prior, *members[::-1]], [prior, *members[:-1]], [members[0], *members],
               [prior, *alone]):
        assert_fold_bits(qs)
    reads = []
    monkeypatch.setattr(GaussianCanonical, "precision_matrix", lambda q: reads.append(q) or q.precision)
    product_all([prior, *members])
    assert reads == []
    product_all([prior, *members[::-1]])  # not in member order: restacked
    assert len(reads) == n


def test_a_groups_wishart_and_dirichlet_members_are_taken_back_as_their_stack(monkeypatch):
    rng = np.random.default_rng(6)
    n, g = 30, rng.normal(size=(30, 2, 2))
    wisharts = stack_members(Wishart, g @ g.swapaxes(1, 2) + 0.1 * np.eye(2), 3.0 + rng.uniform(size=n))
    dirichlets = stack_members(Dirichlet, 1.0 + rng.uniform(size=(n, 3, 3)))
    for members, prior in ((wisharts, Wishart(1e12 * np.eye(2), 2.0)), (dirichlets, Dirichlet(np.ones((3, 3))))):
        assert members[0]._stack is not None
        alone = [build(type(q), *q._params_json().values()) for q in members]
        for qs in ([prior, *members], [prior, *members[::-1]], [prior, *members[:-1]], [members[0], *members],
                   [prior, *alone]):
            assert_fold_bits(qs)
    # members in member order are not stacked again: no array is built from
    # a list of the members' parameters
    stacked, array = [], np.array

    def spied(x, *args, **kwargs):
        if isinstance(x, list) and len(x) > n:
            stacked.append(len(x))
        return array(x, *args, **kwargs)

    monkeypatch.setattr(np, "array", spied)
    product_all([Wishart(np.eye(2), 3.0), *wisharts])
    product_all([Dirichlet(np.ones((3, 3))), *dirichlets])
    assert stacked == []
    product_all([Wishart(np.eye(2), 3.0), *wisharts[::-1]])
    product_all([Dirichlet(np.ones((3, 3))), *dirichlets[::-1]])
    assert stacked == [n + 1, n + 1]


def test_the_interpreter_multiplies_two_messages_with_one_product(monkeypatch):
    T, model = 4, HmgmModel(K=2)
    data, _ = sample_generative("hmgm", 1, T=T)
    program = compile_model(*model.build(T))
    lengths = []

    def recorded(qs):
        lengths.append(len(qs))
        return product_all(qs)

    monkeypatch.setattr(codegen, "product_all", recorded)
    got = {}
    for runner in (codegen.Interpreter(program.ir), DirectExecutor(program.schedules)):
        marginals = init_marginals(program.factorization, program.rf, model.initial_marginals(T, data))
        runner.run_iteration(data, marginals)
        got[type(runner)] = {key: outcome([q], lambda qs: qs[0]) for key, q in marginals.items()}
    assert lengths and min(lengths) > 2  # the chain's marginals, of two messages each, did not come here
    assert got[codegen.Interpreter] == got[DirectExecutor]
