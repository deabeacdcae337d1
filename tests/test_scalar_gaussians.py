"""One-dimensional Gaussians on Python floats against the 1x1 array
expressions they stand in for, kept here as the reference: the three
constructors, the Gaussian ``product``, ``mean_and_cov`` and the chain rules
(the Gaussian node's messages toward out and mean, the addition shifts and
sum-product messages, the equality product), bit for bit and with the same
exceptions. Then a guard that the README walk's chain step builds no array
for its one-dimensional messages, and the executor's data point masses,
which are kept while the table's values keep their bits."""

import json
import struct
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_linalg import reference_canonical, reference_check_spd, reference_moments, reference_spd_inverse

from mpgraph import rules
from mpgraph._linalg import EIG_FLOOR, as_matrix, as_vector, symmetrize
from mpgraph.codegen import Executor, Interpreter
from mpgraph.distributions import (
    DistributionError,
    Gamma,
    GaussianCanonical,
    GaussianMeanPrecision,
    GaussianMeanVariance,
    PointMass,
    mean_and_cov,
    product,
)
from mpgraph.engine import compile_model, init_marginals
from mpgraph.models import RandomWalkModel, sample_generative

GOLDEN = Path(__file__).resolve().parent / "golden"

# ---------------------------------------------------------------------------
# The 1x1 array expressions: a belief as the arrays its accessors returned
# ---------------------------------------------------------------------------


def ref_checked(m, name):
    """``_checked_spd`` through the numpy body of ``check_spd``."""
    try:
        return reference_check_spd(m, name)
    except ValueError as exc:
        raise DistributionError(str(exc)) from None


def ref_mean_variance(mean, cov) -> dict:
    m, v = as_vector(mean), ref_checked(as_matrix(cov), "covariance")
    if v.shape[0] != m.shape[0]:
        raise DistributionError("mean/covariance dimension mismatch")
    w = reference_spd_inverse(v)
    return {"class": GaussianMeanVariance, "params": (m, v), "moments": (m, v), "canonical": (w @ m, w)}


def ref_mean_precision(mean, prec) -> dict:
    m, w = as_vector(mean), ref_checked(as_matrix(prec), "precision")
    if w.shape[0] != m.shape[0]:
        raise DistributionError("mean/precision dimension mismatch")
    return {"class": GaussianMeanPrecision, "params": (m, w), "moments": (m, reference_spd_inverse(w)),
            "canonical": (w @ m, w)}


def ref_canonical(xi, prec) -> dict:
    xi, w = reference_canonical(xi, prec)
    return {"class": GaussianCanonical, "params": (xi, w), "moments": reference_moments(xi, w), "canonical": (xi, w)}


def ref_point(value) -> dict:
    value = np.asarray(value, dtype=float)
    return {"class": PointMass, "params": (value,), "moments": (as_vector(value), np.zeros((1, 1)))}


def ref_expected_precision(q) -> tuple:
    """E[w] and E[w]^-1 of a Gamma or point mass, for a 1-D belief."""
    if isinstance(q, Gamma):
        e = np.array([[q.shape / q.rate]])
    else:
        e = as_matrix(q.value) if q.value.ndim == 2 else np.array([[float(q.value)]])
    return e, reference_spd_inverse(e)


def ref_product(a: dict, b: dict) -> dict:
    w = a["canonical"][1] + b["canonical"][1]
    xi = a["canonical"][0] + b["canonical"][0]
    if float(w[0, 0]) < -1e-9:
        raise DistributionError("product precision is not positive semi-definite")
    return ref_canonical(xi, w)


def ref_gauss_or_point(mean, cov, inputs) -> dict:
    if all(ref["class"] is PointMass for ref in inputs):
        return ref_point(as_vector(mean)[0])
    return ref_mean_variance(mean, symmetrize(as_matrix(cov)))


def _spread(refs, prec):
    return ref_mean_variance(refs[0]["moments"][0], refs[0]["moments"][1] + ref_expected_precision(prec)[1])


def _vmp(refs, prec):
    return ref_mean_precision(refs[0]["moments"][0], ref_expected_precision(prec)[0])


def _mv_spread(refs, var):
    return ref_mean_variance(refs[0]["moments"][0], refs[0]["moments"][1] + as_matrix(var.value))


def _mv_vmp(refs, var):
    return ref_mean_variance(refs[0]["moments"][0], as_matrix(var.value))


def _shift(direction):
    def body(refs, prec):
        (m, v), shift = refs[0]["moments"], refs[1]["moments"][0]
        return ref_mean_variance(m + shift if direction == "out" else m - shift, v)
    return body


def _addition(direction):
    def body(refs, prec):
        (ma, va), (mb, vb) = refs[0]["moments"], refs[1]["moments"]
        return ref_gauss_or_point(ma + mb if direction == "out" else ma - mb, va + vb, refs)
    return body


# name -> (body, slot layout, reference): the layout names each inbound slot
# ("m" a message or marginal in ref order, "p" the precision, "_" void)
RULES = {
    "gaussian out": (rules._gaussian_forward, "_mp", _spread),
    "gaussian mean": (rules._gaussian_backward_mean, "m_p", _spread),
    "gaussian vmp out": (rules._gaussian_vmp_out, "_mp", _vmp),
    "gaussian vmp mean": (rules._gaussian_vmp_mean, "m_p", _vmp),
    # a mean-variance node: "p" is the fixed variance
    "gaussian mv out": (rules._variance_forward, "_mp", _mv_spread),
    "gaussian mv mean": (rules._variance_backward_mean, "m_p", _mv_spread),
    "gaussian mv vmp out": (rules._variance_vmp_out, "_mp", _mv_vmp),
    "gaussian mv vmp mean": (rules._variance_vmp_mean, "m_p", _mv_vmp),
    # the message first, then the marginal whose mean shifts it
    "addition out from 2": (rules._addition_vmp_shift("out", 2), "_01", _shift("out")),
    "addition out from 1": (rules._addition_vmp_shift("out", 1), "_10", _shift("out")),
    "addition in1": (rules._addition_vmp_shift("in1", 2), "0_1", _shift("in1")),
    "addition in2": (rules._addition_vmp_shift("in2", 1), "01_", _shift("in2")),
    "addition sp out": (rules._addition_sp("out"), "_01", _addition("out")),
    "addition sp in1": (rules._addition_sp("in1"), "0_1", _addition("in1")),
    "addition sp in2": (rules._addition_sp("in2"), "01_", _addition("in2")),
    "equality 1": (rules._equality_sp, "_01", lambda refs, prec: ref_product(*refs)),
    "equality 3": (rules._equality_sp, "01_", lambda refs, prec: ref_product(*refs)),
}
BATCHED = [name for name, (body, _, _) in RULES.items() if hasattr(body, "batch")]


def inbound_of(layout, beliefs, prec) -> list:
    return [None if slot == "_" else prec if slot == "p" else beliefs[0 if slot == "m" else int(slot)]
            for slot in layout]


# ---------------------------------------------------------------------------
# Comparing bits
# ---------------------------------------------------------------------------


def described(q) -> tuple:
    """A result's class, the bytes of its parameters, and for a Gaussian the
    bytes of its moments and canonical form, read as floats and as arrays."""
    if isinstance(q, PointMass):
        return PointMass, [q.value.tobytes()], []
    floats = [struct.pack("=d", x) for x in (*q.scalar_moments(), *q.scalar_canonical())]
    arrays = [a.tobytes() for a in (q.mean_vector(), q.covariance_matrix(), q.weighted_mean_vector(),
                                    q.precision_matrix())]
    assert floats == arrays
    return type(q), [np.asarray(v, dtype=float).tobytes() for v in q._params_json().values()], arrays


def ref_described(ref: dict) -> tuple:
    if ref["class"] is PointMass:
        return PointMass, [ref["params"][0].tobytes()], []
    return ref["class"], [a.tobytes() for a in ref["params"]], \
        [a.tobytes() for a in (*ref["moments"], *ref["canonical"])]


def outcome(fn):
    """The exception type and text ``fn`` raises, or what it returns."""
    with np.errstate(all="ignore"):
        try:
            return fn()
        except Exception as exc:  # the type and text are what is compared
            return type(exc), str(exc)


# ---------------------------------------------------------------------------
# Inputs: signed zeros, subnormals, the eigenvalue floor, overflow of x + x,
# non-finite values
# ---------------------------------------------------------------------------

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, EIG_FLOOR,
           float(np.nextafter(EIG_FLOOR, 0.0)), float(np.nextafter(EIG_FLOOR, 1.0)), 0.5 * EIG_FLOOR, 1e-13,
           -1e-13, -1e-12, float(np.nextafter(-1e-12, -1.0)), -1e-9, -2e-9, 1.0, -1.0, 1e12, 2.0 ** 1023,
           1.7976931348623157e308, -2.0 ** 1023, float("inf"), float("-inf"), float("nan")]
VALUES = st.one_of(st.floats(), st.sampled_from(SPECIAL))
SCALES = st.one_of(st.floats(min_value=0.0), st.sampled_from(SPECIAL))  # mostly valid variances
CONSTRUCTORS = {
    "mean-variance": (GaussianMeanVariance, ref_mean_variance),
    "mean-precision": (GaussianMeanPrecision, ref_mean_precision),
    "canonical": (GaussianCanonical, ref_canonical),
}


@st.composite
def beliefs(draw, point=True):
    """A 1-D Gaussian that constructs, in one of its forms, or a point mass
    on one number (a scalar or a 1-vector): the belief and its reference."""
    form = draw(st.sampled_from([*sorted(CONSTRUCTORS), "point"] if point else sorted(CONSTRUCTORS)))
    a = draw(VALUES)
    if form == "point":
        value = a if draw(st.booleans()) else [a]
        return PointMass(value), ref_point(value)
    b = draw(VALUES if form == "canonical" else SCALES)
    cls, ref = CONSTRUCTORS[form]
    try:
        with np.errstate(all="ignore"):
            return cls(a, b), ref([a], [[b]])
    except DistributionError:
        assume(False)


@st.composite
def precisions(draw):
    """A Gamma or a point mass on one number (a scalar, a 1x1 matrix or a
    1-vector, which a precision or variance slot rejects)."""
    if draw(st.booleans()):
        return PointMass(draw(st.sampled_from([lambda x: x, lambda x: [[x]], lambda x: [x]]))(draw(VALUES)))
    shape, rate = draw(SCALES), draw(SCALES)
    assume(shape > 0.0 and rate > 0.0)
    return Gamma(shape, rate)


# ---------------------------------------------------------------------------
# Parity
# ---------------------------------------------------------------------------


@settings(max_examples=500, deadline=None)
@example("mean-precision", -0.0, 2.0)  # the 1x1 matmul sums from +0.0
@example("mean-variance", 1.0, 2.0 ** 1023)  # its symmetrization overflows
@example("mean-variance", 1.0, 0.5 * EIG_FLOOR)  # its inverse is floored
@example("mean-variance", 1.0, -1e-12)  # on the semi-definiteness bound
@example("canonical", 5e-324, 2.0 ** 1023)
@example("canonical", float("nan"), -3.0)
@given(st.sampled_from(sorted(CONSTRUCTORS)), VALUES, VALUES)
def test_constructors_match_the_array_bodies(form, a, b):
    cls, ref = CONSTRUCTORS[form]
    want = outcome(lambda: ref_described(ref([a], [[b]])))
    assert outcome(lambda: described(cls(a, b))) == want
    assert outcome(lambda: described(cls(np.array([a]), np.array([[b]])))) == want
    assert outcome(lambda: described(cls(a, [[b]]))) == want


@settings(max_examples=500, deadline=None)
@given(beliefs(point=False))
def test_mean_and_cov_match_the_array_bodies(belief):
    q, ref = belief
    assert [a.tobytes() for a in mean_and_cov(q)] == [a.tobytes() for a in ref["moments"]]
    params = dict(zip(q._params_json(), map(np.ndarray.tolist, ref["params"])))
    assert json.dumps(q.to_json()) == json.dumps({"type": q.variant, "params": params})


@settings(max_examples=500, deadline=None)
@given(beliefs(point=False), beliefs(point=False))
def test_product_matches_the_array_body(a, b):
    assert outcome(lambda: described(product(a[0], b[0]))) == outcome(lambda: ref_described(ref_product(a[1], b[1])))


HUGE = 0.6 * 2.0 ** 1023  # two of them sum past 2 ** 1023, where x + x overflows


@settings(max_examples=1000, deadline=None)
@example("addition sp out", [(GaussianMeanVariance(0.0, HUGE), ref_mean_variance([0.0], [[HUGE]]))] * 2,
         Gamma(1.0, 1.0))
@example("gaussian out", [(GaussianCanonical(-0.0, 2.0), ref_canonical([-0.0], [[2.0]]))] * 2,
         Gamma(float("inf"), float("inf")))  # E[w] is NaN
@given(st.sampled_from(sorted(RULES)), st.lists(beliefs(), min_size=2, max_size=2), precisions())
def test_chain_rules_match_the_array_bodies(name, pair, prec):
    body, layout, reference = RULES[name]
    if name.startswith("equality"):
        assume(not any(isinstance(q, PointMass) for q, _ in pair))
    inbound = inbound_of(layout, [q for q, _ in pair], prec)
    want = outcome(lambda: ref_described(reference([ref for _, ref in pair], prec)))
    assert outcome(lambda: described(body(inbound, {}))) == want, name


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BATCHED), st.lists(st.lists(beliefs(), min_size=2, max_size=2), min_size=1, max_size=4),
       st.lists(precisions(), min_size=1, max_size=4), st.booleans())
def test_batched_chain_rules_match_the_array_bodies(name, pairs, precs, shared):
    # each member alone against a batch, with one precision for all members
    # or one each (members stack from their floats, or broadcast them)
    body, layout, reference = RULES[name]
    precs = [precs[0]] * len(pairs) if shared else (precs * len(pairs))[:len(pairs)]
    batch = [inbound_of(layout, [q for q, _ in pair], prec) for pair, prec in zip(pairs, precs)]
    want = [outcome(lambda: ref_described(reference([ref for _, ref in pair], prec)))
            for pair, prec in zip(pairs, precs)]
    with np.errstate(all="ignore"):
        try:
            got = body.batch([list(column) for column in zip(*batch)], {})
        except Exception:
            assert any(isinstance(w[0], type) and issubclass(w[0], Exception) for w in want), name
            return
    assert [outcome(lambda dist=dist: described(dist)) for dist in got] == want, name


# ---------------------------------------------------------------------------
# The chain step builds no arrays
# ---------------------------------------------------------------------------

def test_the_walks_chain_step_builds_no_arrays_for_its_messages():
    # The README walk at T=20: after each of two iterations, no message of
    # the chain step X holds an array (a reader on the step's hot path that
    # needs them fails here), and each message is what the 1x1 array code
    # computed (the golden file, one ``to_json`` per line)
    T, model = 20, RandomWalkModel()
    program = compile_model(*model.build(T))
    data, _ = sample_generative("random-walk", seed=1, T=T)
    runner = Interpreter(program.ir)
    marginals = init_marginals(program.factorization, program.rf, model.initial_marginals(T))
    golden = (GOLDEN / "random_walk_T20.x_messages.jsonl").read_text().splitlines()
    n = len(runner.messages["X"])
    assert len(golden) == 2 * n
    for iteration in range(2):
        runner.run_iteration(data, marginals)
        dists = [msg for msg in runner.messages["X"]]
        assert all(q.dim == 1 for q in dists)
        assert not [name for q in dists for name, value in vars(q).items()
                    if isinstance(value, (np.ndarray, tuple))]  # arrays, or the pair of moments
        assert [json.dumps(q.to_json()) for q in dists] == golden[iteration * n:(iteration + 1) * n]


# ---------------------------------------------------------------------------
# Data point masses
# ---------------------------------------------------------------------------


def test_a_datum_point_mass_is_kept_while_its_bits_are():
    executor = Executor(None, {}, [], {})
    data = {"y": np.array([[1.0, 2.0], [3.0, 4.0]]), "z": [0.0, 1.5]}

    def read(name, index):
        return executor.resolve(("data", (name, index)), None, data, {})

    row, zero = read("y", 2), read("z", 1)
    executor.run_iteration(data, {})
    assert read("y", 2) is row and read("z", 1) is zero
    data["y"][1, 0] = 5.0  # an edited row of a vector data array
    data["z"][0] = -0.0  # equal to 0.0, but not the same bits
    assert read("y", 2) is row  # within an iteration, the value first read stands
    executor.run_iteration(data, {})
    assert read("y", 2).value.tolist() == [5.0, 4.0] and read("y", 2) is not row
    assert np.signbit(read("z", 1).value) and read("z", 2).value == 1.5
    other = {"y": data["y"].copy(), "z": list(data["z"])}  # another table with the same bits
    kept = read("y", 2)
    assert executor.resolve(("data", ("y", 2)), None, other, {}) is kept


def test_an_edited_datum_is_seen_by_the_next_iteration():
    T, model = 6, RandomWalkModel()
    program = compile_model(*model.build(T))
    data, _ = sample_generative("random-walk", seed=3, T=T)
    edited = {"y": np.array(data["y"], dtype=float)}
    runner = Interpreter(program.ir)
    m1 = init_marginals(program.factorization, program.rf, model.initial_marginals(T))
    m2 = init_marginals(program.factorization, program.rf, model.initial_marginals(T))
    runner.run_iteration(edited, m1)
    Interpreter(program.ir).run_iteration({"y": edited["y"].copy()}, m2)
    edited["y"][2] = -0.0  # the table edited in place between two iterations
    edited["y"][4] = 7.5
    runner.run_iteration(edited, m1)
    fresh = Interpreter(program.ir)  # reads every datum afresh
    fresh.run_iteration({"y": edited["y"].copy()}, m2)
    assert [json.dumps(msg.to_json()) for msg in runner.messages["X"]] == \
        [json.dumps(msg.to_json()) for msg in fresh.messages["X"]]
    assert {k: json.dumps(q.to_json()) for k, q in m1.items()} == {k: json.dumps(q.to_json()) for k, q in m2.items()}
    observed = [runner.resolve(("data", ("y", t)), None, edited, m1).value for t in (3, 5)]
    assert np.signbit(observed[0]) and observed[1] == 7.5
