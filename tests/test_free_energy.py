"""Free energy by term kind: each batched average energy (and the entropy
terms) against a batch of one and against the term-by-term bodies it
replaced, kept here as the reference; the executors' grouped evaluation
against the reported F; error location in a group; one point mass per
datum per data table."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

from mpgraph._linalg import EIG_FLOOR, as_matrix, as_vector, floored_eigh, spd_solve
from mpgraph.codegen import Interpreter, InterpretError, compile_program
from mpgraph.distributions import (
    LOG_2PI,
    Batch,
    Categorical,
    Dirichlet,
    DistributionError,
    Gamma,
    GaussianBase,
    GaussianCanonical,
    GaussianMeanPrecision,
    GaussianMeanVariance,
    PointMass,
    Wishart,
    _affine_scatters,
    affine_transport,
    differential_entropy,
    expected_logdet_precision,
    expected_precision,
    mean_and_cov,
    moment,
    negative_entropy,
)
from mpgraph.engine import DirectExecutor, NumericalError, free_energy, init_marginals, iterate
from mpgraph.graph import energy_function
from mpgraph.models import Co2Model, HmgmModel, ProbitSsmModel, RandomWalkModel, sample_generative
from mpgraph.scheduler import schedule_free_energy, schedule_vmp

# ---------------------------------------------------------------------------
# The term-by-term bodies the batched energies replaced
# ---------------------------------------------------------------------------

GH_NODES, GH_WEIGHTS = np.polynomial.hermite.hermgauss(64)


def ref_logdet(m):
    w, _ = floored_eigh(m)
    return float(np.sum(np.log(w)))


def ref_precision_energy(q_prec, s):
    d = s.shape[0]
    w = expected_precision(q_prec, d)
    return 0.5 * (d * LOG_2PI - expected_logdet_precision(q_prec, d) + float(np.trace(w @ s)))


def ref_variance_energy(q_var, s):
    v = as_matrix(q_var.value)
    return 0.5 * (s.shape[0] * LOG_2PI + ref_logdet(v) + float(np.trace(spd_solve(v, s))))


def ref_quadratic(q_out, q_mean):
    mx, vx = mean_and_cov(q_out)
    mm, vm = mean_and_cov(q_mean)
    r = mx - mm
    return vx + vm + np.outer(r, r)


def ref_scatter(qs, constants):
    gains = [as_matrix(g) for g in constants.get("gains", [])]
    if constants.get("joint", False):
        mj, vj = mean_and_cov(qs[0])
        leaves = qs[1:len(gains)]
        g0 = gains[0]
        dl = g0.shape[1]
        r = mj[dl:] - g0 @ mj[:dl]
        v_lo = vj[:dl, dl:]
        s = vj[dl:, dl:] - g0 @ v_lo - (g0 @ v_lo).T + g0 @ vj[:dl, :dl] @ g0.T
        rest = gains[1:]
    else:
        leaves = qs[1:1 + len(gains)]
        mo, vo = mean_and_cov(qs[0])
        r, s, rest = mo.copy(), vo, gains
    if constants.get("offset") is not None:
        r = r - as_vector(constants["offset"])
    for g, q_leaf in zip(rest, leaves):
        ml, vl = mean_and_cov(q_leaf)
        r = r - g @ ml
        s = s + g @ vl @ g.T
    return s + np.outer(r, r)


def ref_probit(q_datum, q_input):
    y = float(q_datum.value)
    if isinstance(q_input, PointMass):
        return float(-log_ndtr(y * float(q_input.value)))
    m, v = mean_and_cov(q_input)
    m, v = float(m[0]), float(v[0, 0])
    return float(np.dot(GH_WEIGHTS, -log_ndtr(y * (m + np.sqrt(2.0 * v) * GH_NODES))) / np.sqrt(np.pi))


def ref_mixture(qs):
    resp = np.asarray(moment(qs[1], "mean"), dtype=float)
    total = 0.0
    for i in range(len(resp)):
        if resp[i] != 0.0:
            q_m, q_w = qs[2 + 2 * i], qs[3 + 2 * i]
            total += resp[i] * ref_precision_energy(q_w, ref_quadratic(qs[0], q_m))
    return float(total)


def ref_transition(qs):
    if len(qs) == 2:
        j = np.asarray(moment(qs[0], "mean"), dtype=float)
    else:
        j = np.outer(moment(qs[0], "mean"), moment(qs[1], "mean"))
    return float(-np.sum((j * np.asarray(moment(qs[-1], "logprobs"), dtype=float))[j > 0.0]))


def ref_negative_entropy(qs, constants):
    (q,) = qs
    if isinstance(q, GaussianBase):
        h = 0.5 * (q.dim * (LOG_2PI + 1.0) + ref_logdet(q.covariance_matrix()))
    elif isinstance(q, Categorical):
        nz = q.probabilities[q.probabilities > 0.0]
        h = float(-np.sum(nz * np.log(nz)))
    else:
        h = differential_entropy(q)
    return -(constants.get("weight", 1.0) * h)


REFERENCES = {
    "gaussian_mean_precision": lambda qs, c: ref_precision_energy(qs[2], ref_quadratic(qs[0], qs[1])),
    "gaussian_mean_variance": lambda qs, c: ref_variance_energy(qs[2], ref_quadratic(qs[0], qs[1])),
    "gaussian_affine": lambda qs, c: ref_precision_energy(qs[-1], ref_scatter(qs[:-1], c)),
    "gaussian_affine_variance": lambda qs, c: ref_variance_energy(qs[-1], ref_scatter(qs[:-1], c)),
    "gaussian_mixture": lambda qs, c: ref_mixture(qs),
    "probit": lambda qs, c: ref_probit(*qs),
    "probit_affine": lambda qs, c: ref_probit(qs[0], affine_transport(qs[1], c["gains"][0], c.get("offset"))),
    "transition": lambda qs, c: ref_transition(qs),
    "entropy": ref_negative_entropy,
}


def energy_of(kind):
    return negative_entropy if kind == "entropy" else energy_function(kind)


# ---------------------------------------------------------------------------
# Beliefs: ordinary, near-singular and at-the-floor covariances, data points
# ---------------------------------------------------------------------------

finite = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def spd_matrices(draw, d):
    """Ordinary, near-singular, at EIG_FLOOR, or zero."""
    regime = draw(st.sampled_from(["ordinary", "near-singular", "floor", "zero"]))
    if regime == "zero":
        return np.zeros((d, d))
    a = np.array(draw(st.lists(finite, min_size=d * d, max_size=d * d))).reshape(d, d)
    scale = 10.0 ** draw(st.integers(-4, 4))
    q, _ = np.linalg.qr(a + 4.0 * np.eye(d))
    eig = scale * (1.0 + np.abs(np.diag(a)))
    if regime == "near-singular":
        eig[0] = scale * 1e-13
    elif regime == "floor":
        eig[0] = draw(st.sampled_from([EIG_FLOOR, 0.5 * EIG_FLOOR, 0.0]))
    return 0.5 * ((q * eig) @ q.T + ((q * eig) @ q.T).T)


@st.composite
def gaussians(draw, d, point=True):
    """A Gaussian of dimension ``d`` in one of its forms, or (if ``point``)
    an observed value."""
    mean = np.array(draw(st.lists(finite, min_size=d, max_size=d)))
    form = draw(st.sampled_from(["mv", "mp", "canonical", "point"] if point else ["mv", "mp", "canonical"]))
    if form == "point":
        return PointMass(mean[0] if d == 1 and draw(st.booleans()) else mean)
    cov = draw(spd_matrices(d))
    if form == "mv":
        return GaussianMeanVariance(mean, cov)
    w = cov + (EIG_FLOOR if form == "mp" else 0.0) * np.eye(d)
    return GaussianMeanPrecision(mean, w) if form == "mp" else GaussianCanonical(w @ mean, w)


@st.composite
def precisions(draw, d):
    kind = draw(st.sampled_from(["gamma", "wishart", "point"] if d == 1 else ["wishart", "point"]))
    if kind == "gamma":
        return Gamma(draw(st.floats(0.1, 50.0)), draw(st.floats(1e-3, 50.0)))
    if kind == "wishart":
        return Wishart(draw(spd_matrices(d)) + 1e-3 * np.eye(d), d - 1.0 + draw(st.floats(0.5, 20.0)))
    w = draw(spd_matrices(d))
    return PointMass(w if d > 1 or draw(st.booleans()) else float(w[0, 0]))


def variances(d):
    return spd_matrices(d).map(lambda v: PointMass(v))


def tables(shape):
    """Probability tables summing to one, some with zero entries."""
    size = int(np.prod(shape))
    weights = st.lists(st.sampled_from([0.0, 1e-300, 0.1, 0.3, 1.0, 2.5]), min_size=size, max_size=size)
    return weights.filter(sum).map(lambda w: (np.array(w) / sum(w)).reshape(shape))


def gains(draw, rows, cols):
    return np.array(draw(st.lists(finite, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)


@st.composite
def term_batches(draw):
    """One kind's terms with shared constants: a list of slot lists. A slot
    may hold one belief in every term, as a parameter every time slice
    reads does."""
    kind = draw(st.sampled_from(sorted(REFERENCES)))
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 3))
    constants = {}
    if kind in ("gaussian_mean_precision", "gaussian_mean_variance"):
        slots = [gaussians(d), gaussians(d), precisions(d) if kind.endswith("precision") else variances(d)]
    elif kind in ("gaussian_affine", "gaussian_affine_variance"):
        joint = draw(st.booleans())
        dims = [draw(st.integers(1, 2)) for _ in range(draw(st.integers(1 if joint else 0, 2)))]
        constants = {"gains": [gains(draw, d, dl).tolist() for dl in dims], "joint": joint}
        if draw(st.booleans()):
            constants["offset"] = draw(st.lists(finite, min_size=d, max_size=d))
        first = gaussians(dims[0] + d, point=False) if joint else gaussians(d)
        leaves = [gaussians(dl) for dl in dims[1 if joint else 0:]]
        last = precisions(d) if kind == "gaussian_affine" else variances(d)
        slots = [first, *leaves, last]
    elif kind in ("probit", "probit_affine"):
        data = st.sampled_from([1.0, -1.0]).map(PointMass)
        if kind == "probit":
            slots = [data, gaussians(1)]
        else:
            constants = {"gains": [gains(draw, 1, d).tolist()]}
            if draw(st.booleans()):
                constants["offset"] = draw(st.lists(finite, min_size=1, max_size=1))
            slots = [data, gaussians(d)]
    elif kind == "gaussian_mixture":
        k = draw(st.integers(2, 3))
        resp = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=k, max_size=k).filter(sum).map(
            lambda p: Categorical(np.array(p) / sum(p)))
        slots = [gaussians(d), resp]
        for _ in range(k):
            slots += [gaussians(d, point=False), precisions(d)]
    elif kind == "transition":
        k = draw(st.integers(2, 3))
        log_table = st.one_of(st.just(Dirichlet(np.full((k, k), 1.5))), tables((k, k)).map(PointMass))
        if draw(st.booleans()):
            slots = [tables((k, k)).map(Categorical), log_table]
        else:
            slots = [tables((k,)).map(Categorical), tables((k,)).map(Categorical), log_table]
    else:
        constants = {"weight": draw(st.sampled_from([1.0, -1.0]))}
        family = draw(st.sampled_from(["gaussian", "categorical", "other"]))
        if family == "gaussian":
            slots = [st.integers(1, 4).flatmap(lambda k: gaussians(k, point=False))]
        elif family == "categorical":
            shape = draw(st.sampled_from([(3,), (9,), (3, 3)]))
            slots = [tables(shape).map(Categorical)]
        else:
            slots = [st.one_of(precisions(1), precisions(2), st.just(Dirichlet([1.5, 2.0])))]
    shared = [draw(st.booleans()) and i > 0 for i in range(len(slots))]
    fixed = [draw(s) for s in slots]
    terms = [[fixed[i] if shared[i] else draw(s) for i, s in enumerate(slots)] for _ in range(n)]
    return kind, terms, constants


def same_bits(a, b) -> bool:
    a, b = np.float64(a), np.float64(b)
    return a.tobytes() == b.tobytes() or (math.isnan(a) and math.isnan(b))


class TestBatchedKinds:
    @settings(max_examples=400, deadline=None)
    @given(term_batches())
    def test_batch_matches_a_batch_of_one_and_the_term_by_term_body(self, case):
        kind, terms, constants = case
        energy, reference = energy_of(kind), REFERENCES[kind]
        assert isinstance(energy, Batch)
        with np.errstate(all="ignore"):
            singles, references = [], []
            for qs in terms:
                try:  # inputs either body rejects are not compared
                    singles.append(energy(qs, constants))
                    references.append(reference(qs, constants))
                except (DistributionError, TypeError, ValueError):
                    assume(False)
            columns = [list(column) for column in zip(*terms)]
            batch = np.broadcast_to(energy.batch(columns, constants), (len(terms),))
        for got, one, want in zip(batch, singles, references):
            assert same_bits(got, one), (kind, got, one)
            assert same_bits(got, want), (kind, got, want)
        if kind.startswith("gaussian_affine"):  # the scatter the precision update reads, unstacked
            for qs in terms:
                got, want = _affine_scatters([[q] for q in qs[:-1]], constants)[0], ref_scatter(qs[:-1], constants)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_mixture_skips_a_component_of_zero_responsibility(self):
        # component 2's precision belief cannot act as one: with a zero
        # responsibility it is never read, as term by term
        qs = [PointMass([0.3]), Categorical([1.0, 0.0]), GaussianMeanVariance([0.0], [[1.0]]), Gamma(2.0, 1.0),
              GaussianMeanVariance([1.0], [[1.0]]), Dirichlet([1.0, 1.0])]
        assert same_bits(energy_function("gaussian_mixture")(qs, {}), ref_mixture(qs))


# ---------------------------------------------------------------------------
# The executors: grouped evaluation, error location, data point masses
# ---------------------------------------------------------------------------


def compiled(name):
    if name == "probit":
        model, T = ProbitSsmModel(), 8
        data, _ = sample_generative("probit-ssm", 2, T=T)
        overrides = model.initial_marginals(T)
    elif name == "hmgm":
        model, T = HmgmModel(K=3), 12
        data, _ = sample_generative("hmgm", 2, T=T)
        overrides = model.initial_marginals(T, data)
    elif name == "co2":  # one streaming batch: its 1-D and 2-D priors' energy group does not stack
        model, T = Co2Model(), 24
        series, _ = sample_generative("co2-synthetic", 2, T=T)
        data, overrides = {"y": series["y"]}, model.initial_marginals(T)
    else:
        model, T = RandomWalkModel(), 12
        data, _ = sample_generative("random-walk", 2, T=T)
        overrides = model.initial_marginals(T)
    graph, rf = model.build(T)
    schedules, fe = schedule_vmp(graph, rf, ep_damping=0.5 if name == "probit" else None), \
        schedule_free_energy(graph, rf)
    return graph, rf, schedules, fe, data, overrides


def term_sum(runner, data, marginals) -> float:
    total = 0.0
    for _, value in runner.free_energy_terms(data, marginals):
        total += value
    return total


def recording(base):
    """``base`` keeping, for every F it reports, the sum of its per-term
    values in ``sums``."""
    class Recording(base):
        def free_energy(self, data, marginals):
            f = super().free_energy(data, marginals)
            self.sums.append((f, term_sum(self, data, marginals)))
            return f

    return Recording


class TestExecutors:
    @pytest.mark.parametrize("name", ["random-walk", "probit", "hmgm", "co2"])
    def test_term_sum_is_the_reported_free_energy_on_both_executors(self, name):
        graph, rf, schedules, fe, data, overrides = compiled(name)
        traces = []
        interpreter = recording(Interpreter)(compile_program(schedules, fe))
        for runner in (interpreter, recording(DirectExecutor)(schedules, fe)):
            runner.sums = []
            result = iterate(runner, data, init_marginals(graph, rf, overrides), max_iters=6, tol=0.0)
            assert result.free_energy_trace == [f for f, _ in runner.sums]
            assert all(same_bits(f, total) for f, total in runner.sums)
            traces.append(result.free_energy_trace)
        assert traces[0] == traces[1]
        # every F group stacks: terms group by equal constants, and co2's
        # scalar and 2-D Gaussian priors differ in their offsets
        assert interpreter._unstacked == set()

    def run_probit(self):
        graph, rf, schedules, fe, data, overrides = compiled("probit")
        runner = Interpreter(compile_program(schedules, fe))
        marginals = init_marginals(graph, rf, overrides)
        runner.run_iteration(data, marginals)
        return runner, data, marginals

    def test_a_bad_slice_names_its_term(self):
        runner, data, marginals = self.run_probit()
        labels = [label for label, *_ in runner.energy_terms]
        before = list(runner.free_energy_terms(data, marginals))
        # one time slice of the probit group reads a belief that is not Gaussian
        pos = [i for i, term in enumerate(runner.energy_terms) if term[1] == "probit_affine"][3]
        key = runner.energy_terms[pos][2][1][1]
        marginals[key] = Gamma(2.0, 1.0)
        with pytest.raises(InterpretError, match=rf"^free-energy term {pos} \({re.escape(labels[pos])}\): "):
            runner.free_energy(data, marginals)
        seen = []
        with pytest.raises(InterpretError, match=rf"^free-energy term {pos} "):
            for item in runner.free_energy_terms(data, marginals):
                seen.append(item)
        # the terms before it come out as before (the entropy terms, which
        # read the replaced belief too, come after every energy term)
        assert len(seen) == pos and seen == before[:pos]

    def test_the_first_failing_term_in_program_order_is_named(self):
        runner, data, marginals = self.run_probit()
        kinds = [term[1] for term in runner.energy_terms]
        late = [i for i, k in enumerate(kinds) if k == "probit_affine"][-1]
        early = [i for i, k in enumerate(kinds) if k == "gaussian_affine"][1]
        assert early < late
        marginals[runner.energy_terms[late][2][1][1]] = Gamma(2.0, 1.0)
        marginals[runner.energy_terms[early][2][0][1]] = Gamma(2.0, 1.0)
        with pytest.raises(InterpretError, match=rf"^free-energy term {early} "):
            runner.free_energy(data, marginals)

    def test_a_non_finite_term_is_located(self):
        runner, data, marginals = self.run_probit()
        # a leaf mean far on the wrong side of its datum: Phi(y r) underflows
        pos = [i for i, term in enumerate(runner.energy_terms) if term[1] == "probit_affine"][2]
        datum, leaf = runner.energy_terms[pos][2]
        y = float(runner.resolve(datum, None, data, marginals).value)
        marginals[leaf[1]] = GaussianMeanVariance([-y * 1e200, 0.0], np.eye(2))
        with pytest.raises(NumericalError, match=rf"\(term {pos}: {re.escape(runner.energy_terms[pos][0])}\)"):
            free_energy(runner, data, marginals)

    def test_one_point_mass_per_datum_per_iteration(self):
        runner, data, marginals = self.run_probit()
        slot = ("data", ("y", 3))
        runner.run_iteration(data, marginals)
        first = runner.resolve(slot, None, data, marginals)
        runner.free_energy(data, marginals)
        assert runner.resolve(slot, None, data, marginals) is first
        # the next iteration reads the table afresh, a value changed in place too
        data = {"y": np.array(data["y"], dtype=float)}
        runner.run_iteration(data, marginals)
        first = runner.resolve(slot, None, data, marginals)
        data["y"][2] = -data["y"][2]
        runner.run_iteration(data, marginals)
        current = runner.resolve(slot, None, data, marginals)
        assert float(current.value) == -float(first.value)
        flipped = {"y": -data["y"]}
        fresh = runner.resolve(slot, None, flipped, marginals)
        assert fresh is not current and float(fresh.value) == -float(current.value)
        # a run on the new table reads its values
        f_new = runner.free_energy(flipped, marginals)
        other = Interpreter(runner.ir)
        assert f_new == other.free_energy(flipped, marginals)
        assert f_new != other.free_energy(data, marginals)
