"""The 1x1/2x2 float path of ``check_spd`` against the numpy body it stands in
for, and the float arithmetic of ``_eigh_2x2`` against numpy scalars."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpgraph._linalg import _eigh_2x2, as_matrix, check_spd, sym_eigvals, symmetrize
from mpgraph.distributions import DistributionError, GaussianCanonical, GaussianMeanPrecision, GaussianMeanVariance

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
@given(small_matrices(), st.booleans(), st.sampled_from([1e-12, 1e-9, 0.0]))
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
