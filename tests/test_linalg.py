"""The 1x1/2x2 float paths of ``check_spd``, ``GaussianCanonical``, the
Gaussian ``product`` and the 1x1 and 2x2 inverses against the numpy bodies
they stand in for, and the float arithmetic of ``_eigh_2x2`` against numpy
scalars."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpgraph._linalg import (
    EIG_FLOOR,
    _eigh_2x2,
    as_matrix,
    as_vector,
    check_spd,
    check_spd_2x2,
    floored_eigh,
    inverse_2x2,
    spd_inverse,
    spd_inverses,
    spd_logdets,
    sym_eigvals,
    symmetrize,
)
from mpgraph.distributions import (
    DistributionError,
    GaussianCanonical,
    GaussianMeanPrecision,
    GaussianMeanVariance,
    Wishart,
    _checked_inverse_2x2,
    _wishart_dof,
    _wishart_fold_2x2,
    product,
)

TOL = 1e-12


def reference_check_spd(m, name, strict=False, tol=1e-12):
    """The numpy body ``check_spd`` runs for every size above 2x2."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has a non-finite entry")
    scale = max(1.0, float(np.max(np.abs(m))))
    if not np.max(np.abs(m - m.T)) <= tol * scale:
        raise ValueError(f"{name} is not symmetric within {tol}")
    w = sym_eigvals(m)
    bound = -tol * max(1.0, float(np.max(np.abs(w))))
    if strict:
        if np.any(w <= 0.0):
            raise ValueError(f"{name} must be positive definite (min eig {w.min():.3e})")
    elif np.any(w < bound):
        raise ValueError(f"{name} must be positive semi-definite (min eig {w.min():.3e})")
    return symmetrize(m)


def outcome(fn, m, strict, tol=TOL):
    with np.errstate(all="ignore"):
        try:
            out = fn(np.array(m, dtype=float), "m", strict=strict, tol=tol)
        except Exception as exc:  # the type and text are what is compared
            return type(exc), str(exc)
    return out.shape, out.dtype, out.tobytes()


def assert_same(m, strict, tol=TOL):
    assert outcome(check_spd, m, strict, tol) == outcome(reference_check_spd, m, strict, tol)


BOUND = -TOL  # -tol * scale with scale 1
CASES = {
    "pd_1x1": [[3.0]],
    "pd_2x2": [[2.0, 0.5], [0.5, 1.0]],
    "pd_large_scale": [[1e8, 3.0], [3.0, 2e-4]],
    "psd_zero_1x1": [[0.0]],
    "psd_negzero_1x1": [[-0.0]],
    "psd_rank_one": [[1.0, 1.0], [1.0, 1.0]],
    "singular_zero": [[0.0, 0.0], [0.0, 0.0]],
    "singular_rank_one": [[4.0, 2.0], [2.0, 1.0]],
    "signed_zero_diag": [[0.0, 0.0], [0.0, -0.0]],
    "signed_zero_diag_swapped": [[-0.0, 0.0], [0.0, 0.0]],
    "signed_zero_eigenvalues": [[-0.0, 0.0], [0.0, -0.0]],  # eigenvalues (-0.0, 0.0)
    "overflow_1x1": [[1.7e308]],  # 0.5 * (a + a) is inf
    "overflow_2x2": [[1.7e308, 0.0], [0.0, 1.0]],
    "indefinite": [[1.0, 2.0], [2.0, 1.0]],
    "negative_definite": [[-1.0, 0.0], [0.0, -2.0]],
    "eig_at_bound_1x1": [[BOUND]],
    "eig_just_inside_1x1": [[np.nextafter(BOUND, 0.0)]],
    "eig_just_outside_1x1": [[np.nextafter(BOUND, -1.0)]],
    "eig_just_inside_2x2": [[1.0, 0.0], [0.0, 0.99 * BOUND]],
    "eig_just_outside_2x2": [[1.0, 0.0], [0.0, 1.01 * BOUND]],
    "eig_just_inside_scaled": [[1e3, 0.0], [0.0, 0.99e3 * BOUND]],
    "eig_just_outside_scaled": [[1e3, 0.0], [0.0, 1.01e3 * BOUND]],
    "skew_just_inside": [[2.0, 1.0], [1.0 + 1.9e-12, 2.0]],
    "skew_just_outside": [[2.0, 1.0], [1.0 + 2.1e-12, 2.0]],
    "skew_at_scale": [[4e6, 1.0], [1.0 + 3.9e-6, 1.0]],
    "skew_over_scale": [[4e6, 1.0], [1.0 + 4.1e-6, 1.0]],
    "not_square_row": [[1.0, 2.0]],
    "not_square_col": [[1.0], [2.0]],
    "scalar": 2.5,
}


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("name", sorted(CASES))
def test_small_path_matches_numpy_body(name, strict):
    assert_same(CASES[name], strict)


def test_boundary_cases_land_on_both_sides():
    # the parity cases above are only worth something if they straddle the tests
    def passes(name, strict=False):
        return not isinstance(outcome(check_spd, CASES[name], strict)[0], type)

    for side in ("1x1", "2x2", "scaled"):
        assert passes(f"eig_just_inside_{side}") and not passes(f"eig_just_outside_{side}")
    assert passes("skew_just_inside") and not passes("skew_just_outside")
    assert passes("skew_at_scale") and not passes("skew_over_scale")
    assert passes("psd_rank_one") and not passes("psd_rank_one", strict=True)


NONFINITE = [np.nan, np.inf, -np.inf]


def with_nonfinite(n, entry, value):
    """An n x n SPD matrix with one entry set to ``value``."""
    m = np.eye(n) + 0.25 * (np.ones((n, n)) - np.eye(n))
    m[entry] = value
    return m


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("value", NONFINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1), None], ids=str)
def test_nonfinite_entry(entry, value, strict):
    # a non-finite entry fails first, before the symmetry test; an infinite
    # off-diagonal entry used to pass it (|inf - x| <= tol * inf)
    m = with_nonfinite(1, (0, 0), value) if entry is None else with_nonfinite(2, entry, value)
    assert_same(m, strict)
    with pytest.raises(ValueError, match="m has a non-finite entry"):
        check_spd(m, "m", strict=strict)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("value", NONFINITE, ids=["nan", "inf", "-inf"])
def test_nonfinite_entry_numpy_path(value, strict):
    for entry in np.ndindex(3, 3):
        m = with_nonfinite(3, entry, value)
        assert_same(m, strict)
        with pytest.raises(ValueError, match="m has a non-finite entry"):
            check_spd(m, "m", strict=strict)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("pair", [(np.inf, np.inf), (np.inf, -np.inf), (np.nan, np.inf), (np.inf, 0.5)],
                         ids=str)
def test_nonfinite_off_diagonal_pair(pair, strict):
    # an infinite off-diagonal entry passed the symmetry test (|inf - x| <=
    # tol * inf) and left NaN eigenvalues that no bound rejected
    m = [[1.0, pair[0]], [pair[1], 1.0]]
    assert_same(m, strict)
    with pytest.raises(ValueError, match="has a non-finite entry"):
        check_spd(m, "m", strict=strict)
    with pytest.raises(DistributionError, match="covariance has a non-finite entry"):
        GaussianMeanVariance([0.0, 0.0], m)
    with pytest.raises(DistributionError, match="precision has a non-finite entry"):
        GaussianMeanPrecision([0.0, 0.0], m)


@pytest.mark.parametrize("value", NONFINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_canonical_rejects_nonfinite_precision(n, value):
    # NaN made the symmetry test (max > tol) False, so it constructed
    for entry in np.ndindex(n, n):
        with pytest.raises(DistributionError, match="precision has a non-finite entry"):
            GaussianCanonical(np.zeros(n), with_nonfinite(n, entry, value))


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
anything = st.floats(width=64)


@st.composite
def small_matrices(draw):
    values = draw(st.one_of(finite, anything, st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 1.0])))
    if draw(st.booleans()):
        return [[values]]
    a, b, d = draw(anything), draw(anything), draw(anything)
    how = draw(st.sampled_from(["symmetric", "nudged", "free"]))
    if how == "symmetric":
        c = b
    elif how == "nudged":
        c = b * (1.0 + draw(st.floats(-1e-11, 1e-11)))
    else:
        c = draw(anything)
    return [[a, b], [c, d]]


@settings(max_examples=400, deadline=None)
@given(small_matrices(), st.booleans(), st.sampled_from([1e-12, 1e-9, 0.0, -1e-12]))
def test_small_path_matches_numpy_body_random(m, strict, tol):
    assert_same(m, strict, tol)


def reference_eigh_2x2(a, b, c):
    """``_eigh_2x2`` with its scalar arithmetic on numpy float64 scalars."""
    half = 0.5 * (a + c)
    r = np.hypot(0.5 * (a - c), b)
    det = a * c - b * b
    if half >= 0.0:
        hi = half + r
        lo = det / hi if hi != 0.0 else half - r
    else:
        lo = half - r
        hi = det / lo if lo != 0.0 else half + r
    if r == 0.0:
        return np.array([lo, hi]), np.eye(2)
    if b == 0.0:
        q = np.eye(2) if c >= a else np.array([[0.0, 1.0], [1.0, 0.0]])
        return np.array([lo, hi]), q
    if a >= c:
        v0, v1 = hi - c, b
    else:
        v0, v1 = b, hi - a
    norm = np.hypot(v0, v1)
    u0, u1 = v0 / norm, v1 / norm
    return np.array([lo, hi]), np.array([[-u1, u0], [u0, u1]])


@settings(max_examples=400, deadline=None)
@given(finite, finite, finite)
@example(0.7839754700613295, -1.2742255458593938, -0.7839754700613295)  # math.hypot: one ulp off
def test_eigh_2x2_float_arithmetic_is_bit_identical(a, b, c):
    with np.errstate(all="ignore"):
        w, q = _eigh_2x2(a, b, c)
        w_ref, q_ref = reference_eigh_2x2(a, b, c)
    assert w.tobytes() == w_ref.tobytes()
    assert q.tobytes() == q_ref.tobytes()


@st.composite
def matrix_stacks(draw):
    """One to six matrices of one size: symmetric, nudged or free entries
    (any float for d <= 2, where the closed form runs), some positive
    definite, near-singular or at EIG_FLOOR."""
    d = draw(st.integers(1, 4))
    values = anything if d <= 2 else st.floats(-1e6, 1e6)
    stack = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            m = np.array(draw(st.lists(values, min_size=d * d, max_size=d * d))).reshape(d, d)
            if draw(st.booleans()):
                m = np.triu(m) + np.triu(m, 1).T
        else:
            q, _ = np.linalg.qr(np.array(draw(st.lists(st.floats(-3, 3), min_size=d * d, max_size=d * d)))
                                .reshape(d, d) + 4.0 * np.eye(d))
            w = np.array(draw(st.lists(st.sampled_from([1.0, 1e-13, EIG_FLOOR, 0.0, 1e6]), min_size=d,
                                       max_size=d)))
            m = (q * w) @ q.T
        stack.append(m)
    return np.array(stack)


@settings(max_examples=400, deadline=None)
@given(matrix_stacks())
def test_stacked_logdets_are_each_matrix_own(stack):
    with np.errstate(all="ignore"):
        got = spd_logdets(stack)
        for m, value in zip(stack, got):
            want = np.float64(np.sum(np.log(floored_eigh(m)[0])))
            assert value.tobytes() == want.tobytes() or (np.isnan(value) and np.isnan(want))
            assert spd_logdets(m[None])[0].tobytes() == value.tobytes()


@settings(max_examples=400, deadline=None)
@given(matrix_stacks())
def test_stacked_inverses_are_each_matrix_own(stack):
    with np.errstate(all="ignore"):
        got = spd_inverses(stack)
        assert got.shape == stack.shape
        for m, inverse in zip(stack, got):
            assert inverse.tobytes() == spd_inverse(m).tobytes()


# ---------------------------------------------------------------------------
# The d <= 2 float paths of GaussianCanonical, product and the 1x1 inverses
# against the numpy bodies they stand in for
# ---------------------------------------------------------------------------


def result_of(fn, *args):
    """The exception type and text ``fn`` raises, or the bytes of what it returns."""
    with np.errstate(all="ignore"):
        try:
            out = fn(*args)
        except Exception as exc:  # the type and text are what is compared
            return type(exc), str(exc)
    return [(a.shape, a.dtype, a.tobytes()) for a in (out if isinstance(out, tuple) else (out,))]


def reference_canonical(xi, w):
    """The numpy body ``GaussianCanonical.__init__`` runs for d >= 3."""
    xi, w = as_vector(xi), as_matrix(w)
    if w.shape[0] != w.shape[1] or w.shape[0] != xi.shape[0]:
        raise DistributionError("weighted-mean/precision dimension mismatch")
    top = float(np.max(np.abs(w))) if w.size else 0.0
    if not top < np.inf:
        raise DistributionError("precision has a non-finite entry")
    if w.size and float(np.max(np.abs(w - w.T))) > 1e-9 * max(1.0, top):
        raise DistributionError("precision is not symmetric")
    return np.array(xi), symmetrize(w)


def canonical(xi, w):
    g = GaussianCanonical(xi, w)
    return g.weighted_mean, g.precision


def assert_canonical_same(xi, w):
    assert result_of(canonical, xi, w) == result_of(reference_canonical, xi, w)


SKEW = 1e-9  # GaussianCanonical's symmetry tolerance, relative to max(1, top)
CANONICAL_CASES = {
    "pd_1x1": [[2.5]],
    "negzero_1x1": [[-0.0]],
    "negative_1x1": [[-3.0]],
    "overflow_1x1": [[1.7e308]],  # 0.5 * (a + a) is inf
    "pd_2x2": [[2.0, 0.5], [0.5, 1.0]],
    "negzero_2x2": [[-0.0, -0.0], [0.0, -0.0]],
    "overflow_diag_2x2": [[1.7e308, 0.0], [0.0, 1.0]],
    "overflow_sum_2x2": [[1.0, 1.7e308], [1.7e308, 1.0]],  # 0.5 * (b + c) is inf
    "overflow_skew_2x2": [[1.0, 1.7e308], [-1.7e308, 1.0]],  # b - c is inf
    "skew_at_edge": [[1.0, 0.5], [0.5 + SKEW, 1.0]],
    "skew_just_inside": [[1.0, 0.5], [0.5 + 0.99 * SKEW, 1.0]],
    "skew_just_outside": [[1.0, 0.5], [0.5 + 1.01 * SKEW, 1.0]],
    "skew_scaled_inside": [[4e6, 1.0], [1.0 + 0.99 * 4e6 * SKEW, 1.0]],
    "skew_scaled_outside": [[4e6, 1.0], [1.0 + 1.01 * 4e6 * SKEW, 1.0]],
    "not_square": [[1.0, 2.0]],
    "dim_mismatch": [[1.0]],  # against a 2-vector
}


@pytest.mark.parametrize("name", sorted(CANONICAL_CASES))
def test_canonical_matches_numpy_body(name):
    w = CANONICAL_CASES[name]
    n = 2 if name == "dim_mismatch" else len(w[0])
    assert_canonical_same(np.arange(1.0, n + 1.0), w)


def test_canonical_cases_land_on_both_sides():
    def passes(name):
        return not isinstance(result_of(canonical, np.zeros(2), CANONICAL_CASES[name])[0], type)

    assert passes("skew_just_inside") and not passes("skew_just_outside")
    assert passes("skew_scaled_inside") and not passes("skew_scaled_outside")
    assert not passes("overflow_skew_2x2") and passes("overflow_sum_2x2")


@pytest.mark.parametrize("value", NONFINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1), None], ids=str)
def test_canonical_nonfinite_entry_matches_numpy_body(entry, value):
    w = with_nonfinite(1, (0, 0), value) if entry is None else with_nonfinite(2, entry, value)
    assert_canonical_same(np.zeros(w.shape[0]), w)


@st.composite
def canonical_inputs(draw):
    values = st.one_of(anything, st.sampled_from([0.0, -0.0, 1e-12, -1.0, 1.7e308, -1.7e308]))
    if draw(st.booleans()):
        return [draw(anything)], [[draw(values)]]
    a, b, d = draw(values), draw(values), draw(values)
    how = draw(st.sampled_from(["symmetric", "nudged", "free"]))
    if how == "symmetric":
        c = b
    elif how == "nudged":
        c = b + draw(st.floats(-2e-9, 2e-9)) * max(1.0, abs(a), abs(b), abs(d))
    else:
        c = draw(values)
    return [draw(anything), draw(anything)], [[a, b], [c, d]]


@settings(max_examples=500, deadline=None)
@given(canonical_inputs())
def test_canonical_matches_numpy_body_random(args):
    assert_canonical_same(*args)


def reference_spd_inverse(m, floor=EIG_FLOOR):
    """The eigendecomposition body of ``spd_inverse``."""
    w, q = floored_eigh(m, floor)
    return symmetrize((q / w) @ q.T)


def reference_moments(xi, w):
    """``GaussianCanonical._moments`` through ``floored_eigh``, as for d >= 2."""
    w_, q = floored_eigh(as_matrix(w))
    qw = q / w_
    return qw @ (q.T @ as_vector(xi)), symmetrize(qw @ q.T)


def moments(xi, w):
    g = GaussianCanonical(xi, w)
    return g.mean_vector(), g.covariance_matrix()


TINY = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-310, EIG_FLOOR, np.nextafter(EIG_FLOOR, 0.0),
        np.nextafter(EIG_FLOOR, 1.0), 1e-13, 0.5 * EIG_FLOOR]
SCALARS = st.one_of(anything, st.sampled_from(TINY), st.sampled_from([-v for v in TINY]))


@settings(max_examples=500, deadline=None)
@example(1.0, EIG_FLOOR)
@example(-0.0, 3.0)
@example(1.1125369292536007e-308, 5e-324)  # 1 / a = 2**1023, whose symmetrization overflows
@given(SCALARS, st.sampled_from([EIG_FLOOR, 1e-6, 5e-324, 0.0, -0.0, -1.0, -np.inf, np.nan]))
def test_spd_inverse_1x1_matches_numpy_body(a, floor):
    m = np.array([[a]])
    assert result_of(spd_inverse, m, floor) == result_of(reference_spd_inverse, m, floor)


@settings(max_examples=500, deadline=None)
@example(-0.0, 1.0)  # the matmul sums from +0.0, so the mean is +0.0
@example(-5e-324, 3.7)  # the product underflows to -0.0
@example(np.inf, 0.0)
@example(1e300, 1e-13)  # overflows past the floor
@example(1.0, 1.7e308)  # the precision overflows to inf
@given(SCALARS, SCALARS.filter(lambda x: abs(x) < np.inf))
def test_canonical_moments_1x1_match_numpy_body(xi, p):
    assert result_of(moments, [xi], [[p]]) == result_of(reference_moments, [xi], [[0.5 * (p + p)]])


def reference_gaussian_product(a, b):
    """``product`` of two Gaussians with the numpy PSD test of d >= 3."""
    w = a.precision_matrix() + b.precision_matrix()
    xi = a.weighted_mean_vector() + b.weighted_mean_vector()
    if float(np.min(sym_eigvals(w))) < -1e-9:
        raise DistributionError("product precision is not positive semi-definite")
    return reference_canonical(xi, w)


def gaussian_product(a, b):
    out = product(a, b)
    return out.weighted_mean, out.precision


def assert_product_same(wa, wb):
    n = len(wa)
    a, b = GaussianCanonical(np.ones(n), wa), GaussianCanonical(np.full(n, 2.0), wb)
    assert result_of(gaussian_product, a, b) == result_of(reference_gaussian_product, a, b)


PRODUCT_CASES = {
    "psd_1x1": ([[1.0]], [[0.0]]),
    "psd_edge_1x1": ([[-1e-9]], [[0.0]]),
    "negative_1x1": ([[-2e-9]], [[0.0]]),
    "overflow_1x1": ([[1e308]], [[1e308]]),  # inf precision, rejected by the constructor
    "psd_2x2": ([[2.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [0.0, 1.0]]),
    "indefinite_2x2": ([[1.0, 2.0], [2.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]),
    "psd_edge_2x2": ([[1.0, 0.0], [0.0, -1e-9]], [[0.0, 0.0], [0.0, 0.0]]),
    "negative_2x2": ([[1.0, 0.0], [0.0, -2e-9]], [[0.0, 0.0], [0.0, 0.0]]),
    # the sum [[-1.5e308, 0], [0, 6e307]] has lo = -inf and hi = -inf / -inf
    # = NaN: np.min is NaN, so the test passes
    "nan_eig_negative_lo": ([[-0.75e308, 0.0], [0.0, 3e307]], [[-0.75e308, 0.0], [0.0, 3e307]]),
    # the sum [[1e308, 0], [0, -1e308]] has hi = inf and lo = -inf / inf = NaN
    "nan_eig_lo": ([[5e307, 0.0], [0.0, -5e307]], [[5e307, 0.0], [0.0, -5e307]]),
    "overflow_negative_2x2": ([[-1.5e308, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]),
    "overflow_2x2": ([[1e308, 1e308], [1e308, 1e308]], [[1e308, 1e308], [1e308, 1e308]]),
}


@pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
def test_product_psd_test_matches_numpy_body(name):
    assert_product_same(*PRODUCT_CASES[name])


def test_product_nan_eigenvalue_passes_the_psd_test():
    # a NaN eigenvalue passes as np.min lets it through, even beside a
    # negative one; the finite entries then construct
    for name in ("nan_eig_negative_lo", "nan_eig_lo"):
        wa, wb = PRODUCT_CASES[name]
        a, b = GaussianCanonical(np.zeros(2), wa), GaussianCanonical(np.zeros(2), wb)
        with np.errstate(all="ignore"):
            eigs = sym_eigvals(a.precision + b.precision)
            assert np.isnan(eigs).any() and np.isfinite(a.precision + b.precision).all()
            assert product(a, b).dim == 2
    wa, wb = PRODUCT_CASES["negative_2x2"]
    with pytest.raises(DistributionError, match="not positive semi-definite"):
        product(GaussianCanonical(np.zeros(2), wa), GaussianCanonical(np.zeros(2), wb))


@st.composite
def symmetric_pairs(draw):
    values = st.one_of(finite, st.sampled_from([0.0, -0.0, -1e-9, -2e-9, 1e308, -1e308, 1.7e308]))
    n = draw(st.sampled_from([1, 2]))

    def one():
        if n == 1:
            return [[draw(values)]]
        b = draw(values)
        return [[draw(values), b], [b, draw(values)]]

    return one(), one()


@settings(max_examples=500, deadline=None)
@given(symmetric_pairs())
def test_product_psd_test_matches_numpy_body_random(pair):
    assert_product_same(*pair)


# ---------------------------------------------------------------------------
# The 2x2 inverse and the strict 2x2 check on floats, as the Wishart
# product's running scale takes them
# ---------------------------------------------------------------------------


@st.composite
def inverse_inputs(draw):
    """[[a, b], [c, d]]: flat (r == 0), diagonal with c < a or c >= a,
    eigenvalues at and below EIG_FLOOR, scales of 1e+-150, non-finite and
    free entries; most are symmetric."""
    kind = draw(st.sampled_from(["flat", "diagonal", "floor", "scaled", "nonfinite", "free"]))
    if kind == "flat":
        a = draw(SCALARS)
        m = [[a, 0.0], [0.0, a]]
    elif kind == "diagonal":
        m = [[draw(SCALARS), draw(st.sampled_from([0.0, -0.0]))], [0.0, draw(SCALARS)]]
    elif kind in ("floor", "scaled"):
        angle = draw(st.floats(0.0, np.pi))
        q = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        eigs = [draw(st.sampled_from(TINY + [1.0, 1e6, -1e-13])), draw(st.floats(1e-3, 1e3))]
        if kind == "scaled":
            eigs = [e * 10.0 ** draw(st.sampled_from([-150, 150])) for e in eigs]
        m = ((q * eigs) @ q.T).tolist()
    elif kind == "nonfinite":
        m = [[1.0, 0.25], [0.25, 2.0]]
        m[draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    else:
        m = [[draw(anything), draw(anything)], [draw(anything), draw(anything)]]
    if draw(st.booleans()):  # symmetric, as a checked or symmetrized scale is
        m[1][0] = m[0][1]
    return m


@settings(max_examples=1000, deadline=None)
@example([[2.0, 0.0], [0.0, 2.0]])  # r == 0
@example([[3.0, 0.0], [0.0, 1.0]])  # b == 0 with c < a: the swap
@example([[EIG_FLOOR, 0.0], [0.0, 0.5 * EIG_FLOOR]])  # both floored
@example([[1e150, 1e-150], [1e-150, 1e-150]])
@example([[1.0, np.nan], [np.nan, 1.0]])
@example([[np.inf, 0.0], [0.0, 1.0]])
@example([[1.7e308, 1.7e308], [1.7e308, 1.7e308]])  # b + b overflows
@example([[0.0, 0.0], [np.inf, np.nan]])  # NaN + NaN keeps the first one's sign: x01 and x10 differ
@given(inverse_inputs())
def test_spd_inverse_2x2_matches_numpy_body(m):
    m = np.array(m)
    for floor in (EIG_FLOOR, 1e-6, 5e-324):
        want = result_of(reference_spd_inverse, m, floor)
        assert result_of(spd_inverse, m, floor) == want
        (a, b), (c, d) = m.tolist()
        with np.errstate(all="ignore"):
            rows = inverse_2x2(a, 0.5 * (b + c), d, floor)
        assert result_of(np.array, rows) == want


@settings(max_examples=1000, deadline=None)
@example([[1.0, 0.0], [0.0, 0.0]])  # an eigenvalue at zero
@example([[1.0, 0.0], [0.0, -0.0]])
@example([[1.0, 1.0], [1.0, 1.0]])  # singular: det rounds to zero
@example([[2.5e7, -2.5e7], [-2.5e7, 2.5e7 + 1e-8]])  # det below the rounding of a * c
@example([[-1.0, 0.0], [0.0, 2.0]])
@example([[1.0, 0.5], [0.5 + 1e-6, 1.0]])  # not symmetric
@example([[np.nan, 0.0], [0.0, 1.0]])
@given(inverse_inputs())
def test_strict_2x2_check_matches_numpy_body(m):
    (a, b), (c, d) = m

    def check(a, b, c, d):
        x, y, z = check_spd_2x2(a, b, c, d, "Wishart scale", strict=True)
        return np.array([[x, y], [y, z]])

    want = result_of(reference_check_spd, np.array(m), "Wishart scale", True)
    assert result_of(check, a, b, c, d) == want


# ---------------------------------------------------------------------------
# The Wishart fold's checked inverse: the strict check's eigenvalues reused
# ---------------------------------------------------------------------------


def reference_checked_inverse(v00, v01, v10, v11):
    """The fold's step before the check's eigenvalues were reused: the strict
    check, then ``inverse_2x2`` of the checked scale from scratch."""
    try:
        v00, v01, v11 = check_spd_2x2(v00, v01, v10, v11, "Wishart scale", strict=True)
    except ValueError as exc:
        raise DistributionError(str(exc)) from None
    return inverse_2x2(v00, 0.5 * (v01 + v01), v11)


def reference_wishart_fold_2x2(inverses, dofs):
    """``_wishart_fold_2x2`` before the check's eigenvalues were reused: the
    strict check, the dof check, then the inverse of the checked scale."""
    ((r00, r01), (r10, r11)), dof = inverses[0], dofs[0]
    for k in range(1, len(inverses) - 1):
        (i00, i01), (i10, i11) = inverses[k]
        (v00, v01), (v10, v11) = inverse_2x2(r00 + i00, 0.5 * ((r01 + i01) + (r10 + i10)), r11 + i11)
        try:
            v00, v01, v11 = check_spd_2x2(v00, v01, v10, v11, "Wishart scale", strict=True)
        except ValueError as exc:
            raise DistributionError(str(exc)) from None
        dof = _wishart_dof(dof + dofs[k] - 2 - 1.0, 2)
        (r00, r01), (r10, r11) = inverse_2x2(v00, 0.5 * (v01 + v01), v11)
    (i00, i01), (i10, i11) = inverses[-1]
    x = inverse_2x2(r00 + i00, 0.5 * ((r01 + i01) + (r10 + i10)), r11 + i11)
    return Wishart(np.array(x), dof + dofs[-1] - 2 - 1.0)


HUGE = [1e307, 8.9e307, 8.99e307, 1.7e308, np.finfo(float).max]


@st.composite
def huge_scales(draw):
    """Symmetric 2x2 scales with an entry near DBL_MAX, where doubling it
    overflows, and ill-conditioned ones with a tiny second eigenvalue."""
    big = draw(st.sampled_from(HUGE))
    small = draw(st.one_of(st.sampled_from(TINY + [1.0, 1e-300]), st.floats(1e-3, 1e3)))
    off = draw(st.sampled_from([0.0, -0.0, 1.0, 1e150, 1e300]))
    if draw(st.booleans()):
        return [[big, off], [off, small]]
    return [[small, off], [off, big]]


@st.composite
def spd_scales(draw):
    """Symmetric positive definite 2x2 matrices with eigenvalues from 1e-12
    to 1e150, most within 1e+-3, so that folds of them mostly pass their
    checks."""
    angle = draw(st.floats(0.0, np.pi))
    q = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    eigs = [10.0 ** draw(st.one_of(st.floats(-3.0, 3.0), st.floats(-12.0, 150.0))) for _ in range(2)]
    return ((q * eigs) @ q.T).tolist()


def rows_of(fn, *args):
    return result_of(lambda: np.array(fn(*args)))


@settings(max_examples=1000, deadline=None)
@example([[2.0, 0.5], [0.5, 1.0]])
@example([[1.7e308, 0.0], [0.0, 1.7e308]])  # 0.5 * (a + a) overflows: the check's eigenvalues do not serve
@example([[1.0, 8.99e307], [8.99e307, 1.7e308]])  # not positive definite
@example([[1e-300, 0.0], [0.0, 1e300]])  # ill-conditioned
@example([[1.0, 0.5], [0.5 + 1e-6, 1.0]])  # not symmetric
@given(st.one_of(inverse_inputs(), huge_scales(), spd_scales()))
def test_the_checked_inverse_reuses_the_checks_eigenvalues_bit_for_bit(m):
    (a, b), (c, d) = m
    assert rows_of(_checked_inverse_2x2, a, b, c, d) == rows_of(reference_checked_inverse, a, b, c, d)


def wishart_outcome(fold, inverses, dofs):
    def scale_and_dof():
        q = fold(inverses, dofs)
        return q.scale, np.array(q.dof)

    return result_of(scale_and_dof)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(spd_scales(), min_size=2, max_size=6),
                st.lists(st.one_of(spd_scales(), inverse_inputs(), huge_scales()), min_size=2, max_size=6)),
       st.lists(st.floats(1.5, 6.0), min_size=6, max_size=6))
def test_the_float_wishart_fold_matches_its_reference(inverses, dofs):
    inverses = [[[a, b], [b, d]] for (a, b), (_, d) in inverses]  # inverses of scales are symmetric
    dofs = dofs[:len(inverses)]
    assert wishart_outcome(_wishart_fold_2x2, inverses, dofs) == \
        wishart_outcome(reference_wishart_fold_2x2, inverses, dofs)
