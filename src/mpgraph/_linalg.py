"""Small dense linear-algebra helpers shared by distributions and rules.

All matrices handled here are tiny (state dimensions of a few). The routines
are eigendecomposition based, so that flooring and inversion are deterministic
and robust. Most matrices in a run are 1x1 or 2x2, where a numpy call costs far
more than the arithmetic, so ``check_spd``, ``floored_eigh``, ``sym_eigvals``
and ``spd_inverse`` work on Python floats for d <= 2 (analytic 2x2
eigenvalues, exact 1x1 closed forms). Each such float path runs the same tests
in the same order, raises the same exceptions with the same text and returns
the same bits as the numpy body it stands in for; ``tests/test_linalg.py``
compares them. ``check_spd_1x1``, ``inverse_1x1``, ``check_spd_2x2`` and
``inverse_2x2`` are those bodies on Python floats, which the one-dimensional
Gaussians of ``distributions`` keep their parameters in and the Wishart
product's running scale is folded in: each step is the one correctly
rounded operation the array expression performs (``0.5 * (x + x)`` for the
symmetrization, ``max(x, floor)`` for the floor, and ``p * m + 0.0`` for a
1x1 matrix-vector product, which sums from +0.0), so floats and an array
give the same bits. Products of 2x2 and larger matrices stay in numpy, one
numpy matmul per inverse: a 2x2 ``@`` and ``a*b + c*d`` on floats round
differently in the last bit. ``spd_logdets`` and ``spd_inverses`` take the
log-determinants and inverses of a stack of matrices at once (the free
energy's Gaussian entropies, the messages of a batched rule), each with the
bits its matrix gets alone, and ``check_spd_stacked`` runs ``check_spd``'s
tests on a stack at once (the Gaussians and Wisharts of a batched rule's
group).
"""

from __future__ import annotations

import math

import numpy as np

EIG_FLOOR = 1e-12


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    return v


def as_matrix(x) -> np.ndarray:
    m = np.asarray(x, dtype=float)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return m


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _eigvals_2x2(a: float, b: float, c: float) -> tuple[float, float, float]:
    # analytic symmetric 2x2 eigenvalues (ascending) and the half-gap r, on
    # Python floats; the small root comes from the determinant identity
    # lo*hi = det, since half -+ r cancels catastrophically for extreme
    # eigenvalue ratios. np.hypot, not math.hypot: the two differ in the last
    # bit on some inputs.
    half = 0.5 * (a + c)
    r = float(np.hypot(0.5 * (a - c), b))
    det = a * c - b * b
    if half >= 0.0:
        hi = half + r
        lo = det / hi if hi != 0.0 else half - r
    else:
        lo = half - r
        hi = det / lo if lo != 0.0 else half + r
    return lo, hi, r


_EYE, _SWAP = ((1.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (1.0, 0.0))


def _eigh_2x2_floats(a: float, b: float, c: float, eig: tuple) -> tuple:
    """``_eigh_2x2`` on Python floats, given ``eig``, ``_eigvals_2x2(a, b,
    c)``: the eigenvalues ``(lo, hi)`` and the eigenvector matrix's rows
    ``((q00, q01), (q10, q11))``."""
    lo, hi, r = eig
    if r == 0.0:
        return (lo, hi), _EYE
    if b == 0.0:
        return (lo, hi), (_EYE if c >= a else _SWAP)
    # top-eigenvector via whichever residual avoids cancellation:
    # hi - c = (a-c)/2 + r and hi - a = (c-a)/2 + r; one of the two adds
    # same-sign terms
    if a >= c:
        v0, v1 = hi - c, b
    else:
        v0, v1 = b, hi - a
    norm = float(np.hypot(v0, v1))
    u0, u1 = v0 / norm, v1 / norm
    return (lo, hi), ((-u1, u0), (u0, u1))


def _eigh_2x2(a: float, b: float, c: float):
    w, q = _eigh_2x2_floats(a, b, c, _eigvals_2x2(a, b, c))
    return np.array(w), np.array(q)


def floored_eigh(m: np.ndarray, floor: float = EIG_FLOOR):
    """Eigendecomposition of a symmetric matrix with eigenvalues clipped at `floor`."""
    n = m.shape[0]
    if n == 1:
        return np.array([max(float(m[0, 0]), floor)]), np.ones((1, 1))
    if n == 2:
        w, q = _eigh_2x2(float(m[0, 0]), 0.5 * (float(m[0, 1]) + float(m[1, 0])), float(m[1, 1]))
        return np.maximum(w, floor), q
    w, q = np.linalg.eigh(symmetrize(m))
    return np.maximum(w, floor), q


def sym_eigvals(m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    if n == 1:
        return np.array([float(m[0, 0])])
    if n == 2:
        return _eigh_2x2(float(m[0, 0]), 0.5 * (float(m[0, 1]) + float(m[1, 0])), float(m[1, 1]))[0]
    return np.linalg.eigvalsh(symmetrize(m))


def inverse_1x1(a: float, floor: float = EIG_FLOOR) -> float:
    """``spd_inverse`` of the 1x1 matrix [[a]] on a Python float; ``floor``
    must be positive."""
    # q = [[1]], so (q / w) @ q.T rounds once; a positive floor leaves no
    # zero divisor and no -0.0 for the matmul's +0.0 start to flip. The
    # symmetrization 0.5 * (x + x) is x, unless x + x overflows to inf.
    # The divisor is max(a, floor), as ``max`` picks it (a NaN stays).
    x = 1.0 / (floor if floor > a else a)
    return 0.5 * (x + x)


def inverse_2x2(a: float, b: float, c: float, floor: float = EIG_FLOOR) -> tuple[tuple, tuple]:
    """``spd_inverse`` of the symmetric 2x2 matrix [[a, b], [b, c]] on
    Python floats, as its rows ``((x00, x01), (x10, x11))``; ``floor`` must
    be positive. The eigendecomposition, the floor, ``q / w`` and the
    symmetrization run on floats, each the one correctly rounded operation
    the array expression performs; ``(q / w) @ q.T`` stays one numpy
    matmul, whose kernel fuses the multiply-adds. x01 and x10 are equal
    unless both are NaN: a sum of two NaNs keeps the first one's sign."""
    return _inverse_2x2(a, b, c, _eigvals_2x2(a, b, c), floor)


def _inverse_2x2(a: float, b: float, c: float, eig: tuple, floor: float = EIG_FLOOR) -> tuple[tuple, tuple]:
    """``inverse_2x2`` given ``eig``, ``_eigvals_2x2(a, b, c)``, computed
    once for a matrix both checked and inverted."""
    (lo, hi), ((q00, q01), (q10, q11)) = _eigh_2x2_floats(a, b, c, eig)
    # np.maximum(w, floor): a NaN stays, and a positive floor leaves no tie
    # between signed zeros
    lo, hi = (floor if lo < floor else lo), (floor if hi < floor else hi)
    q = np.array(((q00, q01), (q10, q11)))
    (x00, x01), (x10, x11) = (np.array(((q00 / lo, q01 / hi), (q10 / lo, q11 / hi))) @ q.T).tolist()
    return (0.5 * (x00 + x00), 0.5 * (x01 + x10)), (0.5 * (x10 + x01), 0.5 * (x11 + x11))


def spd_inverse(m: np.ndarray, floor: float = EIG_FLOOR) -> np.ndarray:
    d = m.shape[0]
    if d == 1 and floor > 0.0:
        return np.array([[inverse_1x1(float(m[0, 0]), floor)]])
    if d == 2 and floor > 0.0:
        (a, b), (c, e) = m.tolist()
        return np.array(inverse_2x2(a, 0.5 * (b + c), e, floor))
    w, q = floored_eigh(m, floor)
    return symmetrize((q / w) @ q.T)


def spd_solve(m: np.ndarray, rhs: np.ndarray, floor: float = EIG_FLOOR) -> np.ndarray:
    w, q = floored_eigh(m, floor)
    return (q / w) @ (q.T @ rhs)


def _eigvals_2x2_stacked(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """``_eigvals_2x2`` elementwise over arrays: the same operations in the
    same order, so each element gets the bits of the float version."""
    half = 0.5 * (a + c)
    r = np.hypot(0.5 * (a - c), b)
    det = a * c - b * b
    up = half >= 0.0  # False for NaN, as in the float version
    big = np.where(up, half + r, half - r)  # hi if up, else lo
    small = np.where(big != 0.0, det / big, np.where(up, half - r, half + r))
    return np.where(up, small, big), np.where(up, big, small), r


def _eigh_2x2_stacked(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """``_eigh_2x2`` elementwise: eigenvalues ``(n, 2)`` and eigenvectors
    ``(n, 2, 2)``, each element with the bits of the float version; its
    branches are picked per element by the same tests."""
    lo, hi, r = _eigvals_2x2_stacked(a, b, c)
    up = a >= c
    v0 = np.where(up, hi - c, b)
    v1 = np.where(up, b, hi - a)
    norm = np.hypot(v0, v1)
    u0, u1 = v0 / norm, v1 / norm
    q = np.stack([-u1, u0, u0, u1], axis=-1).reshape(-1, 2, 2)
    flat = r == 0.0
    diagonal = ~flat & (b == 0.0)
    q[flat | (diagonal & (c >= a))] = np.eye(2)
    q[diagonal & ~(c >= a)] = [[0.0, 1.0], [1.0, 0.0]]
    return np.stack([lo, hi], axis=-1), q


def spd_logdets(m: np.ndarray, floor: float = EIG_FLOOR) -> np.ndarray:
    """log det of each matrix of a stack ``(n, d, d)``, eigenvalues floored
    at ``floor``: ``floored_eigh`` stacked, each element with the bits a
    matrix of its own gets (closed-form eigenvalues for d = 2, LAPACK's
    ``eigh`` per matrix above)."""
    d = m.shape[-1]
    if d == 1:
        w = m[:, 0, :]
    elif d == 2:
        with np.errstate(all="ignore"):  # the float version never warns
            lo, hi, _ = _eigvals_2x2_stacked(m[:, 0, 0], 0.5 * (m[:, 0, 1] + m[:, 1, 0]), m[:, 1, 1])
        w = np.stack([lo, hi], axis=-1)
    else:
        w = np.linalg.eigh(0.5 * (m + np.swapaxes(m, -1, -2)))[0]
    return np.sum(np.log(np.maximum(w, floor)), axis=-1)


def spd_inverses(m: np.ndarray, floor: float = EIG_FLOOR) -> np.ndarray:
    """``spd_inverse`` of each matrix of a stack ``(n, d, d)``, each element
    with the bits a matrix of its own gets: the exact 1x1 closed form, the
    closed-form 2x2 eigendecomposition, LAPACK's ``eigh`` per matrix above."""
    d = m.shape[-1]
    with np.errstate(all="ignore"):  # the float versions never warn
        if d == 1 and floor > 0.0:
            x = 1.0 / np.maximum(m, floor)
            return 0.5 * (x + x)
        if d == 2:
            w, q = _eigh_2x2_stacked(m[:, 0, 0], 0.5 * (m[:, 0, 1] + m[:, 1, 0]), m[:, 1, 1])
        else:
            w, q = np.linalg.eigh(0.5 * (m + np.swapaxes(m, -1, -2)))
        x = (q / np.maximum(w, floor)[:, None, :]) @ np.swapaxes(q, -1, -2)
        return 0.5 * (x + np.swapaxes(x, -1, -2))


def spd_logdet(m: np.ndarray, floor: float = EIG_FLOOR) -> float:
    return float(spd_logdets(m[None], floor)[0])


def check_spd(m: np.ndarray, name: str, strict: bool = False, tol: float = 1e-12):
    """Validate finiteness, symmetry and (semi-)definiteness; returns the
    symmetrized matrix."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] in (1, 2):
        return _check_spd_small(m, name, strict, tol)
    top = float(np.max(np.abs(m))) if m.size else 0.0
    if not top < math.inf:  # NaN fails the comparison as well
        raise ValueError(f"{name} has a non-finite entry")
    if m.size and not np.max(np.abs(m - m.T)) <= tol * max(1.0, top):
        raise ValueError(f"{name} is not symmetric within {tol}")
    w = sym_eigvals(m)
    bound = -tol * max(1.0, float(np.max(np.abs(w))))
    if strict:
        if np.any(w <= 0.0):
            raise ValueError(f"{name} must be positive definite (min eig {w.min():.3e})")
    elif np.any(w < bound):
        raise ValueError(f"{name} must be positive semi-definite (min eig {w.min():.3e})")
    return symmetrize(m)


def check_spd_stacked(m: np.ndarray, tol: float = 1e-12, strict: bool = False) -> np.ndarray | None:
    """``check_spd`` of each matrix of a stack ``(n, d, d)``, d >= 2, in one
    pass: the symmetrized stack, each matrix with the bits ``check_spd``
    returns for it, if every matrix passes; None if any fails, so the caller
    checks them one at a time and raises ``check_spd``'s error at the first.
    The predicates are ``check_spd``'s: finiteness, symmetry within ``tol``
    (for d = 2 the largest skew is |b - c|), then definiteness (``strict``:
    every eigenvalue positive) or semi-definiteness from the eigenvalues
    ``check_spd`` computes (``_eigvals_2x2_stacked`` on the raw diagonal for
    d = 2, LAPACK's ``eigvalsh`` of each symmetrized matrix above), against
    the same bounds: a NaN eigenvalue fails no comparison, and it leaves the
    bound at -tol."""
    d = m.shape[-1]
    with np.errstate(all="ignore"):  # the float version never warns
        if not np.isfinite(m).all():
            return None
        sym = 0.5 * (m + np.swapaxes(m, -1, -2))
        top = np.max(np.abs(m), axis=(1, 2))
        if not (np.max(np.abs(m - np.swapaxes(m, -1, -2)), axis=(1, 2)) <= tol * np.maximum(1.0, top)).all():
            return None
        if d == 2:
            lo, hi, _ = _eigvals_2x2_stacked(m[:, 0, 0], sym[:, 0, 1], m[:, 1, 1])
            w = np.stack([lo, hi], axis=-1)
            big = np.maximum(np.abs(lo), np.abs(hi))  # max(1, |lo|, |hi|) where neither is NaN
            scale = np.where((lo != lo) | (hi != hi), 1.0, np.maximum(1.0, big))
        else:
            try:
                w = np.linalg.eigvalsh(sym)
            except np.linalg.LinAlgError:  # which one's eigenvalues did not converge is for check_spd to say
                return None
            big = np.max(np.abs(w), axis=1)
            scale = np.where(big > 1.0, big, 1.0)  # max(1.0, big), as Python's max picks it
        if (w <= 0.0).any() if strict else (w < (-tol * scale)[:, None]).any():
            return None
    return sym


def _check_spd_small(m: np.ndarray, name: str, strict: bool, tol: float) -> np.ndarray:
    """``check_spd`` for 1x1 and 2x2 matrices on Python floats: the same tests
    in the same order, the same messages and the same bits as the numpy path.
    The skew of a diagonal entry is 0.0 and |b - c| == |c - b|, so one
    off-diagonal skew stands for all four. A NaN eigenvalue (finite entries
    can overflow to one) propagates through the maxima and minima as it does
    in ``np.max`` and ``np.min``, and of two equal eigenvalues (0.0 and -0.0)
    the minimum is the second, as ``np.min`` picks it."""
    if m.shape[0] == 1:
        return np.array([[check_spd_1x1(float(m[0, 0]), name, strict, tol)]])
    (a, b), (c, d) = m.tolist()
    x, y, z = check_spd_2x2(a, b, c, d, name, strict, tol)
    return np.array([[x, y], [y, z]])  # the entries passed, so they are finite


def check_spd_2x2(a: float, b: float, c: float, d: float, name: str, strict: bool = False,
                  tol: float = 1e-12) -> tuple[float, float, float]:
    """``check_spd`` of the 2x2 matrix [[a, b], [c, d]] on Python floats;
    returns the symmetrized matrix's entries ``(s00, s01, s11)`` (s10 is
    s01: the entries are finite)."""
    s00, s01, s11, _ = _check_spd_2x2(a, b, c, d, name, strict, tol)
    return s00, s01, s11


def _check_spd_2x2(a: float, b: float, c: float, d: float, name: str, strict: bool = False,
                   tol: float = 1e-12) -> tuple:
    """``check_spd_2x2``, and the eigenvalues it tested,
    ``_eigvals_2x2(a, (b + c) / 2, d)``: ``(s00, s01, s11, eig)``."""
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
        raise ValueError(f"{name} has a non-finite entry")
    if not abs(b - c) <= tol * max(1.0, abs(a), abs(b), abs(c), abs(d)):
        raise ValueError(f"{name} is not symmetric within {tol}")
    s01 = 0.5 * (b + c)
    eig = lo, hi, _ = _eigvals_2x2(a, s01, d)
    if lo != lo or hi != hi:
        low, bound = float("nan"), -tol
    else:
        low, bound = (lo if lo < hi else hi), -tol * max(1.0, abs(lo), abs(hi))
    if strict:
        if lo <= 0.0 or hi <= 0.0:
            raise ValueError(f"{name} must be positive definite (min eig {low:.3e})")
    elif lo < bound or hi < bound:
        raise ValueError(f"{name} must be positive semi-definite (min eig {low:.3e})")
    return 0.5 * (a + a), s01, 0.5 * (d + d), eig


def check_spd_1x1(a: float, name: str, strict: bool = False, tol: float = 1e-12) -> float:
    """``check_spd`` of the 1x1 matrix [[a]] on a Python float: the tests of
    ``_check_spd_small`` with the one eigenvalue ``a``; returns the
    symmetrized entry."""
    if not math.isfinite(a):
        raise ValueError(f"{name} has a non-finite entry")
    size = abs(a)
    scale = tol * (size if size > 1.0 else 1.0)  # -scale is the bound -tol * max(1, |a|)
    if not 0.0 <= scale:
        raise ValueError(f"{name} is not symmetric within {tol}")
    if strict:
        if a <= 0.0:
            raise ValueError(f"{name} must be positive definite (min eig {a:.3e})")
    elif a < -scale:
        raise ValueError(f"{name} must be positive semi-definite (min eig {a:.3e})")
    return 0.5 * (a + a)
