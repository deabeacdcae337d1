"""Exponential-family distribution values and their closed-form algebra.

Every message and marginal in the engine carries one of these variants as its
payload. Instances are immutable after construction (backing arrays are
frozen), so they can be shared freely between threads; all operations here are
pure functions. Derived forms are computed on first use and cached on the
value: the precision of a mean-variance Gaussian, the covariance of a
mean-precision one, the mean and covariance of a canonical one, and the
expectations a precision or probability belief hands to every time slice
that reads it (E[w], E[w]^-1 and E[log w] of a Gamma; E[W], E[W]^-1 and
E[log|W|] of a Wishart; E[log p] and exp(E[log p]) of a Dirichlet; the
moments of a point mass read as a Gaussian). Caching is safe because the
value is immutable: a cached entry is its parameters' expression evaluated
once, arrays are stored read-only, and the lazy fill is idempotent (two
threads that race on it store equal values).

Gaussian values come in three interconvertible parameterizations. Products of
colliding messages are fused in the canonical (weighted-mean, precision) form,
and conversion back to moment form is deferred until a mean or covariance is
actually requested. Before any inversion, symmetric matrices get their
eigenvalues floored at 1e-12.

Most Gaussians in a run have d = 1 or 2. A one-dimensional Gaussian keeps
its parameters as Python floats and builds its arrays only when they are
read, so a chain of scalar messages (a rule's moments, a product's canonical
sum, the constructor's checks) runs on floats without a numpy array; for
d = 2 the canonical constructor's finiteness and symmetry tests and the
product's semi-definiteness test run on floats (see ``_linalg``). Each float
branch raises the same exceptions with the same text and gives the same bits
as the numpy body it stands in for, which still runs for d >= 3; so F traces
and listings do not depend on which branch ran.

A categorical vector of K < 8 states (``FLOAT_STATES``) keeps its
probabilities as a tuple of Python floats in the same way, and builds its
read-only array only when it is read. Its constructor's checks, the
categorical ``product``, the normalization of the transition messages and
the mixture selector's rows run on those floats, and F's terms stack them.
Three rules keep the array body's bits: below 8 entries ``np.sum`` is a left
fold from +0.0 (``float_sum``), so the floats are summed in that order; a
matrix-vector product (E[T] p) stays in numpy, whose kernel fuses each
multiply-add where a float expression would round twice; and the clip of
the constructor maps -0.0 and the entries in [-1e-12, 0) to +0.0. A
two-slice joint (a K x K table) and a vector of 8 or more states keep the
array body, where numpy sums pairwise; a group's joints are checked as one
stack, whose per-table sums numpy adds in the order it adds a table alone.

The Gaussians and Wisharts of d >= 2, the K x K categorical tables and the
Dirichlets that one batched rule call returns (a group's results, such as a
chain's two-slice joints or the messages toward a precision) are built as
the members of one stack (``stack_members``): the constructor's checks run
once over the whole stack, with the same predicates, and each member is an
instance of its class whose read-only arrays are rows of the group's frozen
stacks, with the bits the constructor gives it. If a member fails a check,
every member is built through the constructor, which raises at the first.
A grouped reader of the same members in the same order (``_held``) takes
the stacks back instead of stacking the members' arrays again: the moments
a batched body reads (``_stacked``), a marginal's product (``product_all``)
and the free energy's transition and entropy terms. The product of 2x2
Wisharts folds its running scale on Python floats (``_linalg.inverse_2x2``).

The average energies of the Gaussian, mixture, probit and transition terms
and the Gaussian and categorical entropies are batch functions (``Batch``,
the one wrapper that batched rule bodies use too): one stacked evaluation
gives every time slice's value, each with the bits it gets evaluated alone,
which is how a single term is evaluated too.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import digamma, gammaln, log_ndtr, multigammaln

from ._linalg import (
    EIG_FLOOR,
    _check_spd_2x2,
    _eigvals_2x2,
    _eigvals_2x2_stacked,
    _inverse_2x2,
    as_matrix,
    as_vector,
    check_spd,
    check_spd_1x1,
    check_spd_stacked,
    floored_eigh,
    inverse_1x1,
    inverse_2x2,
    spd_inverse,
    spd_inverses,
    spd_logdet,
    spd_logdets,
    spd_solve,
    sym_eigvals,
    symmetrize,
)

VAGUE_VARIANCE = 1e12

LOG_2PI = np.log(2.0 * np.pi)


class DistributionError(ValueError):
    """Invalid parameters or an ill-posed operation on distribution values."""


class IncompatibleSupport(DistributionError):
    """Operands of a product (or energy) do not live on the same support."""


class DegenerateEntropy(DistributionError):
    """Entropy requested for a point mass (it is minus infinity)."""


class UnsupportedMoment(DistributionError):
    """The requested moment is not defined for this variant."""


def _checked_spd(m, name: str, strict: bool = False) -> np.ndarray:
    try:
        return check_spd(m, name, strict=strict)
    except ValueError as exc:
        raise DistributionError(str(exc)) from None


def _freeze(a: np.ndarray) -> np.ndarray:
    """Read-only copy of an array the caller may still hold."""
    return _freeze_owned(np.array(a, dtype=float))


def _freeze_owned(a: np.ndarray) -> np.ndarray:
    """Make an array no one else holds read-only, without copying it."""
    a.flags.writeable = False
    return a


class Distribution:
    """Base class for all distribution variants."""

    variant: str = "distribution"
    _stack = None  # the ``_Stack`` of a value built as a member of one

    def to_json(self) -> dict:
        return {"type": self.variant, "params": self._params_json()}

    def _params_json(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        items = ", ".join(f"{k}={v}" for k, v in self._params_json().items())
        return f"{self.variant}({items})"

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        a, b = self._params_json(), other._params_json()
        return all(np.array_equal(a[k], b[k]) for k in a)

    def __hash__(self):  # pragma: no cover - identity hashing is enough
        return id(self)


# ---------------------------------------------------------------------------
# Gaussian family
# ---------------------------------------------------------------------------


class GaussianBase(Distribution):
    """Shared moment accessors for the three Gaussian parameterizations.

    ``dim`` is the dimension d. For d = 1 a Gaussian keeps its two
    parameters as Python floats, and ``scalar_moments`` and
    ``scalar_canonical`` read its two parameterizations as floats. A value
    built from floats builds its read-only arrays (the attributes ``mean``,
    ``covariance``, ``precision``, ``weighted_mean`` and what the accessors
    return) only when they are read; one built from arrays keeps them. Each
    float is the one correctly rounded operation the 1x1 array expression
    performs (see ``_linalg``), so the arrays, ``to_json`` and ``==`` do not
    depend on how the value was built."""

    dim: int
    _arrays: tuple[str, str]  # the attributes that hold the two parameters' arrays

    @classmethod
    def _from_stack(cls, first: np.ndarray, second: np.ndarray) -> list | None:
        """The constructor on each row of two stacks (``stack_members``), as
        the members of one ``_Stack``, if every member passes the
        constructor's checks, run in one pass with the same predicates
        (``check_spd``'s for moment and precision form:
        ``check_spd_stacked``); None if any fails."""
        if not _square_stacks(first, second):
            return None
        v = check_spd_stacked(second)
        return None if v is None else _gaussian_members(cls, first, v)

    def mean_vector(self) -> np.ndarray:
        raise NotImplementedError

    def covariance_matrix(self) -> np.ndarray:
        raise NotImplementedError

    def precision_matrix(self) -> np.ndarray:
        raise NotImplementedError

    def weighted_mean_vector(self) -> np.ndarray:
        return self.precision_matrix() @ self.mean_vector()

    def scalar_moments(self) -> tuple[float, float]:
        """(mean, variance) as Python floats; d = 1 only."""
        raise NotImplementedError

    def scalar_canonical(self) -> tuple[float, float]:
        """(weighted mean, precision) as Python floats; d = 1 only."""
        raise NotImplementedError

    def second_moment(self) -> np.ndarray:
        m = self.mean_vector()
        return self.covariance_matrix() + np.outer(m, m)

    def to_mean_variance(self) -> "GaussianMeanVariance":
        return GaussianMeanVariance(self.mean_vector(), self.covariance_matrix())

    def to_mean_precision(self) -> "GaussianMeanPrecision":
        return GaussianMeanPrecision(self.mean_vector(), self.precision_matrix())

    def to_canonical(self) -> "GaussianCanonical":
        return GaussianCanonical(self.weighted_mean_vector(), self.precision_matrix())

    def entropy(self) -> float:
        return float(gaussian_entropies(self.covariance_matrix()[None])[0])

    def log_density(self, x) -> float:
        x = as_vector(x)
        r = x - self.mean_vector()
        v = self.covariance_matrix()
        quad = float(r @ spd_solve(v, r))
        return -0.5 * (self.dim * LOG_2PI + spd_logdet(v) + quad)


def _checked_scalar(a: float, name: str) -> float:
    """``_checked_spd`` of the 1x1 matrix [[a]], on a float."""
    try:
        return check_spd_1x1(a, name)
    except ValueError as exc:
        raise DistributionError(str(exc)) from None


def _vector(x: float) -> np.ndarray:
    return _freeze_owned(np.array([x]))


def _matrix(x: float) -> np.ndarray:
    return _freeze_owned(np.array([[x]]))


class _cached:
    """An attribute computed on first read and kept on the instance, where
    a constructor may also set it: ``functools.cached_property`` without its
    lock, which costs a microsecond per first read. The value is immutable
    and computing it again gives the same bits, so two threads that race
    store equal values."""

    def __init__(self, compute):
        self.compute = compute

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, q, owner=None):
        if q is None:
            return self
        value = q.__dict__[self.name] = self.compute(q)
        return value


_STACK_OF, _ROW_OF = operator.attrgetter("_stack"), operator.attrgetter("_row")


class _Stack:
    """The parameters the members of one group share, in the class ``cls``
    of the members: ``first``, a frozen stack whose row i is member i's
    first parameter (a Gaussian's mean or weighted mean ``(n, d)``, a
    Wishart's scale ``(n, d, d)``, a categorical's table or a Dirichlet's
    concentration), and ``second``, the second parameters (a Gaussian's
    frozen ``(n, d, d)`` stack, a tuple of Wishart dofs) or None. Each
    member holds its stack and row as ``_stack`` and ``_row``; the stack
    holds no member, so a member is freed as soon as no one reads it."""

    __slots__ = ("cls", "first", "second")

    def __init__(self, cls, first, second=None):
        self.cls, self.first, self.second = cls, first, second

    def holds(self, column) -> bool:
        """Whether ``column`` is this stack's members, each once, in member
        order."""
        n = len(self.first)
        return (len(column) == n and all(map(operator.is_, map(_STACK_OF, column), itertools.repeat(self, n)))
                and list(map(_ROW_OF, column)) == list(range(n)))


def _held(column, cls) -> _Stack | None:
    """The stack of ``cls`` whose members ``column`` is, each once and in
    member order (``_Stack.holds``), or None: a grouped reader of those
    members takes the stack back instead of stacking their arrays again."""
    stack = getattr(column[0], "_stack", None)
    return stack if stack is not None and stack.cls is cls and stack.holds(column) else None


def _members(stack: _Stack, fields) -> list:
    """Instances of ``stack.cls`` whose attributes are the dicts of
    ``fields``, one per row, without running the constructor: the members
    of ``stack``."""
    new, cls, members = object.__new__, stack.cls, []
    for i, attributes in enumerate(fields):
        q = new(cls)
        attributes["_stack"], attributes["_row"] = stack, i
        q.__dict__ = attributes
        members.append(q)
    return members


def _gaussian_members(cls, first: np.ndarray, second: np.ndarray) -> list:
    """The Gaussians of ``cls`` whose parameter arrays (``cls._arrays``) are
    the rows of ``first`` (frozen here, a copy) and of ``second`` (checked
    and symmetrized, which no one else holds): the members of one
    ``_Stack``."""
    stack = _Stack(cls, _freeze(first), _freeze_owned(second))
    a, b = cls._arrays
    d = stack.first.shape[1]
    return _members(stack, ({"dim": d, a: x, b: y} for x, y in zip(stack.first, stack.second)))


def _square_stacks(first, second) -> bool:
    """Whether ``first`` is a stack of d-vectors, d >= 2, and ``second`` a
    stack of as many d x d matrices: the shapes the constructors accept."""
    return (first.ndim == 2 and second.ndim == 3 and first.shape[1] >= 2
            and second.shape == (first.shape[0], first.shape[1], first.shape[1]))


def stack_members(cls, *stacks) -> list:
    """``[cls(*row) for row in zip(*stacks)]`` for the stacks of a group's
    parameters, one per constructor argument (a row may stand for all
    through ``np.broadcast_to``): Gaussians of d >= 2, Wisharts of d >= 2,
    K x K categorical tables and Dirichlets. For two or more rows each
    member's checks run stacked, in one pass, with the constructor's
    predicates (``cls._from_stack``); if they all pass, the members share
    one frozen stack, with the bits the constructor gives them, and a
    grouped reader takes the stack back (``_held``). Otherwise, and for a
    batch of one, each member is built through the constructor, which
    raises its error at the first failing member."""
    members = cls._from_stack(*stacks) if len(stacks[0]) > 1 else None
    if members is None:
        members = [cls(*row) for row in zip(*stacks)]
    return members


class GaussianMeanVariance(GaussianBase):
    """Moment form (m, V); for d = 1, m and V are also Python floats."""

    variant = "GaussianMeanVariance"
    _arrays = ("mean", "covariance")

    def __init__(self, mean, covariance):
        if mean.__class__ is float and covariance.__class__ is float:
            self.dim, self._m, self._v = 1, mean, _checked_scalar(covariance, "covariance")
            return
        m = as_vector(mean)
        v = _checked_spd(as_matrix(covariance), "covariance")
        if v.shape[0] != m.shape[0]:
            raise DistributionError("mean/covariance dimension mismatch")
        self.dim, self.mean, self.covariance = m.shape[0], _freeze(m), _freeze_owned(v)
        if self.dim == 1:
            self._m, self._v = m.item(), v.item()

    # built from the floats of a value built from floats
    mean = _cached(lambda q: _vector(q._m))
    covariance = _cached(lambda q: _matrix(q._v))
    _precision = None

    def mean_vector(self):
        return self.mean

    def covariance_matrix(self):
        return self.covariance

    def precision_matrix(self):
        if self._precision is None:
            self._precision = _matrix(inverse_1x1(self._v)) if self.dim == 1 \
                else _freeze_owned(spd_inverse(self.covariance))
        return self._precision

    def scalar_moments(self):
        return self._m, self._v

    def scalar_canonical(self):
        p = inverse_1x1(self._v)
        return p * self._m + 0.0, p

    def _params_json(self):
        return {"mean": self.mean.tolist(), "covariance": self.covariance.tolist()}


class GaussianMeanPrecision(GaussianBase):
    """Precision form (m, W); for d = 1, m and W are also Python floats."""

    variant = "GaussianMeanPrecision"
    _arrays = ("mean", "precision")

    def __init__(self, mean, precision):
        if mean.__class__ is float and precision.__class__ is float:
            self.dim, self._m, self._p = 1, mean, _checked_scalar(precision, "precision")
            return
        m = as_vector(mean)
        w = _checked_spd(as_matrix(precision), "precision")
        if w.shape[0] != m.shape[0]:
            raise DistributionError("mean/precision dimension mismatch")
        self.dim, self.mean, self.precision = m.shape[0], _freeze(m), _freeze_owned(w)
        if self.dim == 1:
            self._m, self._p = m.item(), w.item()

    # built from the floats of a value built from floats
    mean = _cached(lambda q: _vector(q._m))
    precision = _cached(lambda q: _matrix(q._p))
    _covariance = None

    def mean_vector(self):
        return self.mean

    def covariance_matrix(self):
        if self._covariance is None:
            self._covariance = _matrix(inverse_1x1(self._p)) if self.dim == 1 \
                else _freeze_owned(spd_inverse(self.precision))
        return self._covariance

    def precision_matrix(self):
        return self.precision

    def weighted_mean_vector(self):
        return self.precision @ self.mean if self.dim != 1 else np.array([self._p * self._m + 0.0])

    def scalar_moments(self):
        return self._m, inverse_1x1(self._p)

    def scalar_canonical(self):
        return self._p * self._m + 0.0, self._p

    def _params_json(self):
        return {"mean": self.mean.tolist(), "precision": self.precision.tolist()}


class GaussianCanonical(GaussianBase):
    """Information form (xi = W m, W). Internal fusion form for products.

    The precision may be singular; it is floored only when moments are
    requested, so rank-deficient messages (e.g. out of a dot-product gain)
    survive until they collide with an informative message. For d = 1, xi
    and W are also Python floats, and so are the moments.
    """

    variant = "GaussianCanonical"
    _arrays = ("weighted_mean", "precision")
    _mean = _covariance = _v = None  # the moments, as arrays and (for d = 1) floats, once computed

    def __init__(self, weighted_mean, precision):
        if weighted_mean.__class__ is float and precision.__class__ is float:
            if not math.isfinite(precision):
                raise DistributionError("precision has a non-finite entry")
            self.dim, self._xi, self._p = 1, weighted_mean, 0.5 * (precision + precision)
            return
        xi = as_vector(weighted_mean)
        w = as_matrix(precision)
        if w.shape[0] != w.shape[1] or w.shape[0] != xi.shape[0]:
            raise DistributionError("weighted-mean/precision dimension mismatch")
        n = w.shape[0]
        if n == 1:
            a = float(w[0, 0])
            if not math.isfinite(a):
                raise DistributionError("precision has a non-finite entry")
            self._xi, self._p = xi.item(), 0.5 * (a + a)
            w = np.array([[self._p]])
        elif n == 2:  # |b - c| is the largest entry of |w - w.T|
            (a, b), (c, d) = w.tolist()
            if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
                raise DistributionError("precision has a non-finite entry")
            if abs(b - c) > 1e-9 * max(1.0, abs(a), abs(b), abs(c), abs(d)):
                raise DistributionError("precision is not symmetric")
            w = np.array([[0.5 * (a + a), 0.5 * (b + c)], [0.5 * (c + b), 0.5 * (d + d)]])
        else:
            top = float(np.max(np.abs(w))) if w.size else 0.0
            if not top < np.inf:  # NaN fails the comparison as well
                raise DistributionError("precision has a non-finite entry")
            if w.size and float(np.max(np.abs(w - w.T))) > 1e-9 * max(1.0, top):
                raise DistributionError("precision is not symmetric")
            w = symmetrize(w)
        self.dim, self.weighted_mean, self.precision = n, _freeze(xi), _freeze_owned(w)

    @classmethod
    def _from_stack(cls, weighted_means, precisions) -> list | None:
        """``GaussianBase._from_stack`` with this constructor's checks of the
        precision: finiteness, then symmetry within 1e-9 (for d = 2 the
        largest skew is |b - c|)."""
        w = precisions
        if not _square_stacks(weighted_means, w):
            return None
        with np.errstate(all="ignore"):
            if not np.isfinite(w).all():
                return None
            skew = np.max(np.abs(w - w.swapaxes(1, 2)), axis=(1, 2))
            if not (skew <= 1e-9 * np.maximum(1.0, np.max(np.abs(w), axis=(1, 2)))).all():
                return None
        return _gaussian_members(cls, weighted_means, 0.5 * (w + w.swapaxes(1, 2)))

    # built from the floats of a value built from floats
    weighted_mean = _cached(lambda q: _vector(q._xi))
    precision = _cached(lambda q: _matrix(q._p))

    def scalar_moments(self):
        # spd_solve and spd_inverse with q = [[1]]: each product rounds
        # once, and the matmul sums from +0.0, which turns a -0.0 mean into
        # +0.0, as "+ 0.0" does; the covariance is never above 1 / EIG_FLOOR,
        # so its symmetrization is exact
        if self._v is None:
            p = self._p
            inv = 1.0 / (EIG_FLOOR if EIG_FLOOR > p else p)  # max(p, EIG_FLOOR); a NaN stays
            self._m, self._v = inv * self._xi + 0.0, inv
        return self._m, self._v

    def scalar_canonical(self):
        return self._xi, self._p

    def _moments(self):
        # one floored eigendecomposition serves both moments; the expressions
        # are those of spd_solve and spd_inverse, so the bits are theirs
        if self._covariance is None:
            if self.dim == 1:
                m, v = self.scalar_moments()
                self._mean, self._covariance = _vector(m), _matrix(v)
            else:
                w, q = floored_eigh(self.precision)
                qw = q / w
                self._mean = _freeze_owned(qw @ (q.T @ self.weighted_mean))
                self._covariance = _freeze_owned(symmetrize(qw @ q.T))
        return self._mean, self._covariance

    def mean_vector(self):
        return self._moments()[0]

    def covariance_matrix(self):
        return self._moments()[1]

    def precision_matrix(self):
        return self.precision

    def weighted_mean_vector(self):
        return self.weighted_mean

    def _params_json(self):
        return {
            "weighted_mean": self.weighted_mean.tolist(),
            "precision": self.precision.tolist(),
        }


# ---------------------------------------------------------------------------
# Other exponential-family variants
# ---------------------------------------------------------------------------


class Gamma(Distribution):
    """Gamma in shape/rate convention: p(x) = b^a x^(a-1) e^(-bx) / Gamma(a)."""

    variant = "Gamma"

    def __init__(self, shape, rate):
        a, b = float(shape), float(rate)
        if not (a > 0.0 and b > 0.0):
            raise DistributionError(f"Gamma parameters must be positive, got a={a}, b={b}")
        self.shape = a
        self.rate = b
        self._expected_log = self._inverse = self._mean_matrix = self._mean_inverse = None

    def mean_scalar(self) -> float:
        """E[w], the precision a Gaussian reads."""
        return self.shape / self.rate

    def inverse_mean_scalar(self) -> float:
        """E[w]^-1, the variance a Gaussian with this precision adds."""
        if self._inverse is None:
            self._inverse = inverse_1x1(self.mean_scalar())
        return self._inverse

    def mean_matrix(self) -> np.ndarray:
        """E[w] as a read-only 1x1 matrix."""
        if self._mean_matrix is None:
            self._mean_matrix = _matrix(self.mean_scalar())
        return self._mean_matrix

    def mean_inverse(self) -> np.ndarray:
        """E[w]^-1 as a read-only 1x1 matrix."""
        if self._mean_inverse is None:
            self._mean_inverse = _matrix(self.inverse_mean_scalar())
        return self._mean_inverse

    def expected_log(self) -> float:
        if self._expected_log is None:
            self._expected_log = float(digamma(self.shape)) - np.log(self.rate)
        return self._expected_log

    def entropy(self) -> float:
        a, b = self.shape, self.rate
        return float(a - np.log(b) + gammaln(a) + (1.0 - a) * digamma(a))

    def log_density(self, x) -> float:
        x = float(x)
        if x <= 0.0:
            return -np.inf
        a, b = self.shape, self.rate
        return float(a * np.log(b) - gammaln(a) + (a - 1.0) * np.log(x) - b * x)

    def _params_json(self):
        return {"shape": self.shape, "rate": self.rate}


def _wishart_dof(dof, d: int) -> float:
    """A Wishart's dof, checked against its dimension ``d``."""
    nu = float(dof)
    if nu <= d - 1:
        raise DistributionError(f"Wishart dof must exceed dim-1, got nu={nu}, d={d}")
    return nu


class Wishart(Distribution):
    variant = "Wishart"
    _mean_matrix = _expected_logdet = _mean_inverse = None  # the expectations, once computed

    def __init__(self, scale, dof):
        v = _checked_spd(as_matrix(scale), "Wishart scale", strict=True)
        self.scale = _freeze_owned(v)
        self.dof = _wishart_dof(dof, v.shape[0])

    @classmethod
    def _from_stack(cls, scales: np.ndarray, dofs) -> list | None:
        """The constructor on each scale of a stack ``(n, d, d)``, d >= 2,
        and each dof, as the members of one ``_Stack``, if every member
        passes the constructor's checks, run in one pass: ``check_spd``
        strict (``check_spd_stacked``), then the dof; None if any fails."""
        if not (scales.ndim == 3 and scales.shape[1] >= 2 and scales.shape[1] == scales.shape[2]):
            return None
        d, nus = scales.shape[1], tuple(map(float, dofs))
        v = check_spd_stacked(scales, strict=True)
        if v is None or any(nu <= d - 1 for nu in nus):
            return None
        stack = _Stack(cls, _freeze_owned(v), nus)
        return _members(stack, ({"scale": x, "dof": nu} for x, nu in zip(stack.first, nus)))

    @property
    def dim(self) -> int:
        return self.scale.shape[0]

    def mean_matrix(self) -> np.ndarray:
        if self._mean_matrix is None:
            self._mean_matrix = _freeze_owned(self.dof * self.scale)
        return self._mean_matrix

    def mean_inverse(self) -> np.ndarray:
        """E[W]^-1, the covariance a Gaussian with this precision adds."""
        if self._mean_inverse is None:
            self._mean_inverse = _freeze_owned(spd_inverse(self.mean_matrix()))
        return self._mean_inverse

    def expected_logdet(self) -> float:
        if self._expected_logdet is None:
            d, nu = self.dim, self.dof
            mvdig = float(np.sum(digamma(0.5 * (nu + 1.0 - np.arange(1, d + 1)))))
            self._expected_logdet = mvdig + d * np.log(2.0) + spd_logdet(self.scale)
        return self._expected_logdet

    def entropy(self) -> float:
        d, nu = self.dim, self.dof
        log_z = 0.5 * nu * d * np.log(2.0) + 0.5 * nu * spd_logdet(self.scale) + multigammaln(0.5 * nu, d)
        return float(log_z + 0.5 * nu * d - 0.5 * (nu - d - 1.0) * self.expected_logdet())

    def log_density(self, x) -> float:
        x = check_spd(as_matrix(x), "Wishart argument", strict=True)
        d, nu, v = self.dim, self.dof, self.scale
        log_z = 0.5 * nu * d * np.log(2.0) + 0.5 * nu * spd_logdet(v) + multigammaln(0.5 * nu, d)
        return float(
            0.5 * (nu - d - 1.0) * spd_logdet(x) - 0.5 * np.trace(spd_solve(v, x)) - log_z
        )

    def _params_json(self):
        return {"scale": self.scale.tolist(), "dof": self.dof}


class Dirichlet(Distribution):
    """Dirichlet over a probability vector, or a matrix of column-wise
    Dirichlets (one per column, as used for transition matrices)."""

    variant = "Dirichlet"
    _expected_logprobs = _geometric_mean = None  # the expectations, once computed

    def __init__(self, concentration):
        a = np.asarray(concentration, dtype=float)
        if a.ndim not in (1, 2):
            raise DistributionError("Dirichlet concentration must be a vector or matrix")
        if np.any(a <= 0.0):
            raise DistributionError("Dirichlet concentration entries must be strictly positive")
        if not (a < math.inf).all():  # NaN fails the comparison as well
            raise DistributionError("Dirichlet concentration entries must be finite")
        self.concentration = _freeze(a)

    @classmethod
    def _from_stack(cls, concentrations: np.ndarray) -> list | None:
        """The constructor on each row of a stack of vectors or matrices, as
        the members of one ``_Stack``, if every member passes the
        constructor's checks, run in one pass: every entry positive, then
        finite; None if any fails."""
        a = np.asarray(concentrations, dtype=float)
        if a.ndim not in (2, 3) or (a <= 0.0).any() or not (a < math.inf).all():
            return None
        stack = _Stack(cls, _freeze(a))
        return _members(stack, ({"concentration": x} for x in stack.first))

    @property
    def is_matrix(self) -> bool:
        return self.concentration.ndim == 2

    def mean(self) -> np.ndarray:
        a = self.concentration
        return a / np.sum(a, axis=0, keepdims=True) if self.is_matrix else a / np.sum(a)

    def expected_logprobs(self) -> np.ndarray:
        if self._expected_logprobs is None:
            a = self.concentration
            total = np.sum(a, axis=0, keepdims=True) if self.is_matrix else np.sum(a)
            self._expected_logprobs = _freeze_owned(digamma(a) - digamma(total))
        return self._expected_logprobs

    def geometric_mean(self) -> np.ndarray:
        """exp(E[log p]), read-only: the expected transition table a
        variational transition message reads."""
        if self._geometric_mean is None:
            self._geometric_mean = _freeze_owned(np.exp(self.expected_logprobs()))
        return self._geometric_mean

    def entropy(self) -> float:
        a = self.concentration if self.is_matrix else self.concentration[:, None]
        total = np.sum(a, axis=0)
        k = a.shape[0]
        log_b = np.sum(gammaln(a), axis=0) - gammaln(total)
        h = log_b + (total - k) * digamma(total) - np.sum((a - 1.0) * digamma(a), axis=0)
        return float(np.sum(h))

    def log_density(self, p) -> float:
        p = np.asarray(p, dtype=float)
        a = self.concentration
        if p.shape != a.shape:
            raise DistributionError("Dirichlet argument shape mismatch")
        if np.any(p <= 0.0):
            return -np.inf
        af = a if self.is_matrix else a[:, None]
        pf = p if self.is_matrix else p[:, None]
        log_b = np.sum(gammaln(af), axis=0) - gammaln(np.sum(af, axis=0))
        return float(np.sum(np.sum((af - 1.0) * np.log(pf), axis=0) - log_b))

    def _params_json(self):
        return {"concentration": self.concentration.tolist()}


FLOAT_STATES = 8  # np.sum of fewer entries is a left fold; from 8 up it sums pairwise


def float_sum(xs) -> float:
    """``np.sum`` of fewer than ``FLOAT_STATES`` numbers, on floats: the left
    fold from +0.0 that numpy runs (so a lone -0.0 sums to +0.0)."""
    s = 0.0
    for x in xs:
        s += x
    return s


class Categorical(Distribution):
    """Categorical over one-hot vectors. A matrix-shaped probability table
    represents a joint over two adjacent chain states (rows index the later
    state); it sums to one as a whole.

    A vector of K < ``FLOAT_STATES`` states keeps its probabilities as a
    tuple of Python floats, ``_p``, and is checked on them: one built from
    such a tuple builds its read-only array (``probabilities``) only when it
    is read, and one built from anything else is converted to that tuple
    first. The float checks are the array body's, in its order: an entry
    below -1e-12, then a sum (``float_sum``, numpy's left fold) off 1 by
    more than 1e-12, then the clip to +0.0 of the entries that are not
    positive (-0.0 among them), so the bits, ``to_json`` and ``==`` do not
    depend on how the value was built."""

    variant = "Categorical"
    _p = None  # a vector of fewer than FLOAT_STATES states: its probabilities as floats

    def __init__(self, probabilities):
        p = probabilities
        if p.__class__ is tuple and len(p) < FLOAT_STATES:
            s, low = 0.0, False
            for x in p:
                if x.__class__ is not float:
                    break
                if x < -1e-12:
                    low = True
                s += x
            else:
                if low:
                    raise DistributionError("Categorical probabilities must be nonnegative")
                if not abs(s - 1.0) <= 1e-12:
                    if not all(map(math.isfinite, p)):
                        raise DistributionError("Categorical probabilities must be finite")
                    raise DistributionError(f"Categorical probabilities must sum to 1, got {s!r}")
                self._p = p if min(p) > 0.0 else tuple([x if x > 0.0 else 0.0 for x in p])
                return
        p = np.asarray(p, dtype=float)
        if p.ndim == 1 and len(p) < FLOAT_STATES:
            Categorical.__init__(self, tuple(p.tolist()))
            return
        if p.ndim not in (1, 2):
            raise DistributionError("Categorical probabilities must be a vector or matrix")
        if np.any(p < -1e-12):
            raise DistributionError("Categorical probabilities must be nonnegative")
        s = float(np.sum(p))
        if not abs(s - 1.0) <= 1e-12:  # a non-finite entry makes the sum fail too
            if not np.isfinite(p).all():
                raise DistributionError("Categorical probabilities must be finite")
            raise DistributionError(f"Categorical probabilities must sum to 1, got {s!r}")
        self.probabilities = _freeze_owned(np.clip(p, 0.0, None))

    @classmethod
    def _from_stack(cls, tables: np.ndarray) -> list | None:
        """The constructor's array body on each table of a stack
        ``(n, K, K)``, as the members of one ``_Stack``, if every table
        passes its checks, run in one pass: no entry below -1e-12, then each
        table's sum (numpy's, in the order ``np.sum`` adds a table alone)
        within 1e-12 of 1; then one clip of the whole stack. None if any
        fails."""
        if tables.ndim != 3:
            return None
        flat = tables.reshape(len(tables), -1)
        with np.errstate(invalid="ignore"):
            if (flat < -1e-12).any() or not (np.abs(np.sum(flat, axis=1) - 1.0) <= 1e-12).all():
                return None
        stack = _Stack(cls, _freeze_owned(np.clip(tables, 0.0, None)))
        return _members(stack, ({"probabilities": p} for p in stack.first))

    # built from the floats of a vector of fewer than FLOAT_STATES states
    probabilities = _cached(lambda q: _freeze_owned(np.array(q._p)))

    def mean(self) -> np.ndarray:
        return self.probabilities

    def entropy(self) -> float:
        return float(categorical_entropies(self.probabilities[None])[0])

    def log_density(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.sum(x * _safe_log(self.probabilities)))

    def _params_json(self):
        return {"probabilities": self.probabilities.tolist()}


class PointMass(Distribution):
    variant = "PointMass"

    def __init__(self, value):
        self.value = _freeze(np.asarray(value, dtype=float))
        self._moments = None

    def mean(self) -> np.ndarray:
        return self.value

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """The value as a vector and a zero covariance, read-only: the
        moments of the point mass read as a Gaussian."""
        if self._moments is None:
            v = as_vector(self.value)
            self._moments = v, _freeze_owned(np.zeros((v.shape[0], v.shape[0])))
        return self._moments

    def _params_json(self):
        v = self.value
        return {"value": float(v) if v.ndim == 0 else v.tolist()}


def _safe_log(p: np.ndarray) -> np.ndarray:
    out = np.full_like(p, -np.inf, dtype=float)
    np.log(p, out=out, where=p > 0.0)
    return out


_VARIANTS = {
    cls.variant: cls
    for cls in (
        GaussianMeanVariance,
        GaussianMeanPrecision,
        GaussianCanonical,
        Gamma,
        Wishart,
        Dirichlet,
        Categorical,
        PointMass,
    )
}


def from_json(obj: dict) -> Distribution:
    """The value ``to_json`` wrote; a malformed object raises
    ``DistributionError`` naming the key at fault."""
    if not isinstance(obj, dict):
        raise DistributionError(f"expected a distribution object, got {type(obj).__name__}")
    for key in ("type", "params"):
        if key not in obj:
            raise DistributionError(f"distribution object has no {key!r} key")
    kind, params = obj["type"], obj["params"]
    cls = _VARIANTS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise DistributionError(f"unknown distribution type {kind!r}")
    if not isinstance(params, dict):
        raise DistributionError(f"'params' of {kind} must be an object, got {type(params).__name__}")
    # The constructors, on the hot path, leave some parameters unchecked
    # for finiteness (a Gamma shape, a Gaussian mean, a point mass), so a
    # value read from outside is checked here, key by key.
    for key, value in params.items():
        try:
            finite = np.isfinite(np.asarray(value, dtype=float)).all()
        except (TypeError, ValueError):
            continue  # not numbers: the constructor names the fault
        if not finite:
            raise DistributionError(f"'params' of {kind}: {key!r} must be finite")
    try:
        return cls(**params)
    except (TypeError, ValueError) as exc:
        raise DistributionError(f"'params' of {kind}: {exc}") from None


class Family(NamedTuple):
    """What a support family decides: the class of a marginal on it, its
    vague default for a support shape, and whether a value fits that shape."""

    belief: type
    vague: Callable[[tuple], Distribution]
    fits: Callable[[Distribution, tuple], bool]


def _vague_gaussian(shape: tuple) -> Distribution:
    d = math.prod(shape)
    return GaussianMeanVariance(np.zeros(d), VAGUE_VARIANCE * np.eye(d))


def _vague_wishart(shape: tuple) -> Distribution:
    d = shape[0] if shape else 1
    return Wishart(VAGUE_VARIANCE * np.eye(d), float(d))


def _fits_any(dist: Distribution, shape: tuple) -> bool:
    return True


# One entry per support family; an observed family (binary, point) holds
# point masses, and its vague default is the Gaussian one of the same size.
FAMILIES: dict[str, Family] = {
    "gaussian": Family(GaussianMeanVariance, _vague_gaussian,
                       lambda q, shape: isinstance(q, GaussianBase) and q.dim == math.prod(shape)),
    "gamma": Family(Gamma, lambda shape: Gamma(1.0, 1e-12), lambda q, shape: isinstance(q, Gamma)),
    "wishart": Family(Wishart, _vague_wishart,
                      lambda q, shape: isinstance(q, Wishart) and q.scale.shape == shape),
    "dirichlet": Family(Dirichlet, lambda shape: Dirichlet(np.ones(shape)),
                        lambda q, shape: isinstance(q, Dirichlet) and q.concentration.shape == shape),
    "categorical": Family(Categorical, lambda shape: Categorical(np.full(shape, 1.0 / math.prod(shape))),
                          lambda q, shape: isinstance(q, Categorical) and q.probabilities.shape == shape),
    "binary": Family(PointMass, _vague_gaussian, _fits_any),
    "point": Family(PointMass, _vague_gaussian, _fits_any),
}


def vague(family: str, shape=None) -> Distribution:
    """Virtually uninformative but proper default for a variable support of
    the given shape; an integer ``k`` stands for the shape ``(k,)``."""
    try:
        make = FAMILIES[family].vague
    except KeyError:
        raise DistributionError(f"no vague default for family {family!r}") from None
    return make(() if shape is None else tuple(int(s) for s in np.atleast_1d(shape)))


# ---------------------------------------------------------------------------
# Products of colliding messages
# ---------------------------------------------------------------------------


def product(a: Distribution, b: Distribution) -> Distribution:
    """Normalized product of two same-support distributions.

    PointMass absorbs (the clamped value must have positive density under the
    other factor). Gaussian pairs fuse in canonical form; Gamma, Wishart,
    Dirichlet and Categorical pairs use their conjugate product identities.
    """
    if isinstance(a, PointMass) and isinstance(b, PointMass):
        if not np.array_equal(a.value, b.value):
            raise IncompatibleSupport("product of two distinct point masses is empty")
        return a
    if isinstance(a, PointMass) or isinstance(b, PointMass):
        pm, other = (a, b) if isinstance(a, PointMass) else (b, a)
        _check_point_support(pm, other)
        return pm

    if isinstance(a, GaussianBase) and isinstance(b, GaussianBase):
        if a.dim != b.dim:
            raise IncompatibleSupport(f"Gaussian dimension mismatch: {a.dim} vs {b.dim}")
        if a.dim == 1:
            xa, wa = a.scalar_canonical()
            xb, wb = b.scalar_canonical()
            w = wa + wb
            if w < -1e-9:
                raise DistributionError("product precision is not positive semi-definite")
            return GaussianCanonical(xa + xb, w)
        w = a.precision_matrix() + b.precision_matrix()
        xi = a.weighted_mean_vector() + b.weighted_mean_vector()
        if a.dim == 2:  # a NaN eigenvalue passes, as it passes np.min
            (w00, w01), (w10, w11) = w.tolist()
            lo, hi, _ = _eigvals_2x2(w00, 0.5 * (w01 + w10), w11)
            negative = (lo < -1e-9 or hi < -1e-9) and lo == lo and hi == hi
        else:
            negative = float(np.min(sym_eigvals(w))) < -1e-9
        if negative:
            raise DistributionError("product precision is not positive semi-definite")
        return GaussianCanonical(xi, w)

    if isinstance(a, Gamma) and isinstance(b, Gamma):
        shape = a.shape + b.shape - 1.0
        if shape <= 0.0:
            raise DistributionError("Gamma product has non-positive shape")
        return Gamma(shape, a.rate + b.rate)

    if isinstance(a, Wishart) and isinstance(b, Wishart):
        if a.dim != b.dim:
            raise IncompatibleSupport("Wishart dimension mismatch")
        d = a.dim
        v = spd_inverse(spd_inverse(a.scale) + spd_inverse(b.scale))
        return Wishart(v, a.dof + b.dof - d - 1.0)

    if isinstance(a, Dirichlet) and isinstance(b, Dirichlet):
        if a.concentration.shape != b.concentration.shape:
            raise IncompatibleSupport("Dirichlet shape mismatch")
        return Dirichlet(a.concentration + b.concentration - 1.0)

    if isinstance(a, Categorical) and isinstance(b, Categorical):
        pa, pb = a._p, b._p
        if pa is not None and pb is not None:  # the array body's steps, on floats
            if len(pa) != len(pb):
                raise IncompatibleSupport("Categorical size mismatch")
            p = list(map(operator.mul, pa, pb))
            z = float_sum(p)
            if z <= 0.0:
                raise DistributionError("Categorical product has zero normalizer")
            return Categorical(tuple([x / z for x in p]))
        if a.probabilities.shape != b.probabilities.shape:
            raise IncompatibleSupport("Categorical size mismatch")
        p = a.probabilities * b.probabilities
        z = float(np.sum(p))
        if z <= 0.0:
            raise DistributionError("Categorical product has zero normalizer")
        return Categorical(p / z)

    raise IncompatibleSupport(f"cannot multiply {a.variant} with {b.variant}")


def product_all(qs: list) -> Distribution:
    """The product of all the distributions of ``qs``: ``product`` folded
    left to right, with the bits, the checks and the errors of the fold.

    Gaussian, Gamma, Dirichlet and Wishart members of one size are
    multiplied in one pass over running natural parameters: each partial
    product the fold would build is computed and checked, but not built.
    Gaussians sum their precisions and weighted means (on Python floats for
    d = 1, stacked for d >= 2, where the partial precisions' symmetrization
    must leave them as they are and their semi-definiteness is tested
    stacked); Gammas and Dirichlets sum their parameters less one. A Wishart
    product inverts each partial sum of inverse scales, one after the other,
    and feeds the checked scale on; the members' inverses are taken as one
    stack, and each partial scale runs the constructor's checks, for 2x2
    scales on Python floats around one numpy matmul per inverse
    (``_wishart_fold_2x2``). Where the members after the first are one
    group's, in member order (``_held``), their stacks are read as they
    are. Two members, point masses, categoricals, mixed families or sizes,
    and a Gaussian, Gamma or Dirichlet partial product that fails its
    checks go through the fold itself; so a failure raises the fold's error
    at the fold's member."""
    first, out = qs[0], None
    if len(qs) > 2:
        if isinstance(first, GaussianBase):
            out = _gaussian_product_all(qs) if first.dim == 1 else _gaussian_product_all_stacked(qs)
        elif first.__class__ is Gamma:
            out = _gamma_product_all(qs)
        elif first.__class__ is Dirichlet:
            out = _dirichlet_product_all(qs)
        elif first.__class__ is Wishart:
            out = _wishart_product_all(qs)
    if out is not None:
        return out
    for q in qs[1:]:
        first = product(first, q)
    return first


def _gaussian_product_all(qs) -> Distribution | None:
    """``product_all`` of one-dimensional Gaussians, on floats: the
    precision is checked and symmetrized after each addition, as the
    product and the canonical constructor do it."""
    xi, p = qs[0].scalar_canonical()
    for q in qs[1:]:
        if not (isinstance(q, GaussianBase) and q.dim == 1):
            return None
        x, w = q.scalar_canonical()
        w = p + w
        if not (w >= -1e-9 and math.isfinite(w)):
            return None
        xi, p = xi + x, 0.5 * (w + w)
    return GaussianCanonical(xi, w)


def _gaussian_product_all_stacked(qs) -> Distribution | None:
    """``product_all`` of Gaussians of one dimension d >= 2. The running
    sums are cumulative sums (``np.add.accumulate`` adds in order) as long
    as symmetrizing each partial precision, which the canonical constructor
    does, leaves its bits as they are. Where the messages after the first
    are one group's canonical members in member order (``_held``), their
    stacks are taken back instead of stacking the members again: the same
    values are added in the same order."""
    first, d = qs[0], qs[0].dim
    stack = _held(qs[1:], GaussianCanonical)
    if stack is not None and stack.first.shape[1] == d:
        precisions = np.concatenate([first.precision_matrix()[None], stack.second])
        weighted_means = np.concatenate([first.weighted_mean_vector()[None], stack.first])
    elif all(isinstance(q, GaussianBase) and q.dim == d for q in qs):
        precisions = np.array([q.precision_matrix() for q in qs])
        weighted_means = np.array([q.weighted_mean_vector() for q in qs])
    else:
        return None
    w = np.add.accumulate(precisions, axis=0)[1:]
    xi = np.add.accumulate(weighted_means, axis=0)[-1]
    with np.errstate(all="ignore"):
        sym = 0.5 * (w + w.swapaxes(1, 2))
        if not (np.isfinite(w).all() and np.array_equal(sym.view(np.int64), w.view(np.int64))):
            return None
        if d == 2:  # a NaN eigenvalue passes, as it passes the product's test
            lo, hi, _ = _eigvals_2x2_stacked(w[:, 0, 0], sym[:, 0, 1], w[:, 1, 1])
            negative = ((lo < -1e-9) | (hi < -1e-9)) & (lo == lo) & (hi == hi)
        else:
            negative = np.min(np.linalg.eigvalsh(sym), axis=1) < -1e-9
    if negative.any():
        return None
    return GaussianCanonical(xi, w[-1])


def _gamma_product_all(qs) -> Distribution | None:
    shape, rate = qs[0].shape, qs[0].rate
    for q in qs[1:]:
        if q.__class__ is not Gamma:
            return None
        shape, rate = shape + q.shape - 1.0, rate + q.rate
        if not (shape > 0.0 and rate > 0.0):
            return None
    return Gamma(shape, rate)


def _dirichlet_product_all(qs) -> Distribution | None:
    shape = qs[0].concentration.shape
    stack = _held(qs[1:], Dirichlet)
    if stack is not None and stack.first.shape[1:] == shape:
        a = np.concatenate([qs[0].concentration[None], stack.first])
    elif all(q.__class__ is Dirichlet and q.concentration.shape == shape for q in qs):
        a = np.array([q.concentration for q in qs])
    else:
        return None
    for k in range(1, len(a)):  # in place: row k becomes partial product k
        np.subtract(np.add(a[k - 1], a[k], out=a[k]), 1.0, out=a[k])
    partials = a[1:]
    if not ((partials > 0.0).all() and (partials < math.inf).all()):
        return None
    return Dirichlet(a[-1])


def _wishart_product_all(qs) -> Distribution | None:
    first, d = qs[0], qs[0].dim
    stack = _held(qs[1:], Wishart)
    if stack is not None and stack.first.shape[1] == d:
        scales, dofs = np.concatenate([first.scale[None], stack.first]), (first.dof, *stack.second)
    elif all(q.__class__ is Wishart and q.dim == d for q in qs):
        scales, dofs = np.array([q.scale for q in qs]), [q.dof for q in qs]
    else:
        return None
    inverses = spd_inverses(scales)
    if d == 2:
        return _wishart_fold_2x2(inverses.tolist(), dofs)
    running, dof = inverses[0], dofs[0]
    for k in range(1, len(qs) - 1):
        v = _checked_spd(spd_inverse(running + inverses[k]), "Wishart scale", strict=True)
        dof = _wishart_dof(dof + dofs[k] - d - 1.0, d)
        running = spd_inverse(v)
    return Wishart(spd_inverse(running + inverses[-1]), dof + dofs[-1] - d - 1.0)


def _wishart_fold_2x2(inverses: list, dofs) -> Distribution:
    """``_wishart_product_all``'s fold for 2x2 scales, on Python floats:
    each step is the one the arrays take (``spd_inverse`` of the running
    sum, the constructor's strict scale check and dof check, and
    ``spd_inverse`` of the checked scale), through ``inverse_2x2`` and
    ``_checked_inverse_2x2``."""
    ((r00, r01), (r10, r11)), dof = inverses[0], dofs[0]
    for k in range(1, len(inverses) - 1):
        (i00, i01), (i10, i11) = inverses[k]
        (v00, v01), (v10, v11) = inverse_2x2(r00 + i00, 0.5 * ((r01 + i01) + (r10 + i10)), r11 + i11)
        (r00, r01), (r10, r11) = _checked_inverse_2x2(v00, v01, v10, v11)
        dof = _wishart_dof(dof + dofs[k] - 2 - 1.0, 2)
    (i00, i01), (i10, i11) = inverses[-1]
    x = inverse_2x2(r00 + i00, 0.5 * ((r01 + i01) + (r10 + i10)), r11 + i11)
    return Wishart(np.array(x), dof + dofs[-1] - 2 - 1.0)


def _checked_inverse_2x2(v00: float, v01: float, v10: float, v11: float) -> tuple[tuple, tuple]:
    """The strict check of the Wishart scale [[v00, v01], [v10, v11]]
    (``check_spd_2x2``), then ``inverse_2x2`` of the checked scale, as rows.
    The check's eigenvalues serve the inverse where the entries they were
    taken of equal the ones the inverse reads, and are computed again where
    symmetrizing changed one (doubling an entry near DBL_MAX overflows)."""
    try:  # a scale that passes is finite, so its symmetrized entries are equal
        s00, s01, s11, eig = _check_spd_2x2(v00, v01, v10, v11, "Wishart scale", strict=True)
    except ValueError as exc:
        raise DistributionError(str(exc)) from None
    b = 0.5 * (s01 + s01)
    if s00 == v00 and b == s01 and s11 == v11:  # eig is of (v00, s01, v11)
        return _inverse_2x2(s00, b, s11, eig)
    return inverse_2x2(s00, b, s11)


def _check_point_support(pm: PointMass, other: Distribution):
    v = pm.value
    if isinstance(other, GaussianBase):
        if as_vector(v).shape[0] != other.dim:
            raise IncompatibleSupport("point mass dimension mismatch with Gaussian")
    elif isinstance(other, Categorical):
        p = other.probabilities
        if v.shape != p.shape:
            raise IncompatibleSupport("point mass shape mismatch with Categorical")
        if float(np.sum(v * p)) <= 0.0:
            raise DistributionError("clamped value has zero probability under Categorical")
    elif isinstance(other, Gamma):
        if float(v) <= 0.0:
            raise DistributionError("clamped value outside Gamma support")
    elif isinstance(other, Dirichlet):
        if v.shape != other.concentration.shape or np.any(v <= 0.0):
            raise DistributionError("clamped value outside Dirichlet support")
    elif isinstance(other, Wishart):
        check_spd(as_matrix(v), "clamped Wishart value", strict=True)


# ---------------------------------------------------------------------------
# Moments, entropies
# ---------------------------------------------------------------------------


def moment(d: Distribution, which: str):
    """Closed-form moment lookup by selector name.

    Selectors: ``mean`` (includes E[W] for Wishart and E[z] for Categorical),
    ``covariance``, ``second_moment`` (E[x x^T]), ``log`` (E[log x], Gamma),
    ``logdet`` (E[log det W], Wishart or Gamma), ``logprobs`` (E[log p],
    Dirichlet via digamma).
    """
    try:
        if which == "mean":
            if isinstance(d, GaussianBase):
                return d.mean_vector()
            if isinstance(d, Gamma):
                return d.mean_scalar()
            if isinstance(d, Wishart):
                return d.mean_matrix()
            if isinstance(d, (Dirichlet, Categorical, PointMass)):
                return d.mean()
        elif which == "covariance":
            if isinstance(d, GaussianBase):
                return d.covariance_matrix()
            if isinstance(d, Gamma):
                return d.shape / d.rate**2
            if isinstance(d, PointMass):
                return np.zeros((as_vector(d.value).shape[0],) * 2)
        elif which == "second_moment":
            if isinstance(d, GaussianBase):
                return d.second_moment()
            if isinstance(d, PointMass):
                v = as_vector(d.value)
                return np.outer(v, v)
        elif which == "log":
            if isinstance(d, Gamma):
                return d.expected_log()
            if isinstance(d, PointMass):
                return float(np.log(d.value))
        elif which == "logdet":
            if isinstance(d, Wishart):
                return d.expected_logdet()
            if isinstance(d, Gamma):
                return d.expected_log()
            if isinstance(d, PointMass):
                return spd_logdet(as_matrix(d.value)) if d.value.ndim == 2 else float(np.log(d.value))
        elif which == "logprobs":
            if isinstance(d, Dirichlet):
                return d.expected_logprobs()
            if isinstance(d, PointMass):
                return _safe_log(d.value)
        else:
            raise UnsupportedMoment(f"unknown moment selector {which!r}")
    except UnsupportedMoment:
        raise
    raise UnsupportedMoment(f"moment {which!r} undefined for {d.variant}")


def gaussian_entropies(covariances: np.ndarray) -> np.ndarray:
    """Entropies of the Gaussians with the covariances of a stack ``(n, d, d)``."""
    d = covariances.shape[-1]
    return 0.5 * (d * (LOG_2PI + 1.0) + spd_logdets(covariances))


def _sums_where_positive(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The sum of ``x`` over the entries where ``p`` is positive, for each
    matrix of a stack: one row sum where every entry is (the additions the
    masked sum makes, in its order), the masked sum elsewhere."""
    x = x.reshape(len(x), -1)
    p = np.broadcast_to(p, (len(x), *p.shape[1:])).reshape(len(x), -1)
    positive = p > 0.0
    sums = np.sum(x, axis=1)
    for i in np.flatnonzero(~positive.all(axis=1)):
        sums[i] = np.sum(x[i][positive[i]])
    return sums


def categorical_entropies(p: np.ndarray) -> np.ndarray:
    """Shannon entropies of the categoricals with the probability tables of
    a stack."""
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 log 0 is left out
        return -_sums_where_positive(p, p * np.log(p))


def differential_entropy(d: Distribution) -> float:
    """Entropy in nats (Shannon entropy for Categorical)."""
    if isinstance(d, PointMass):
        raise DegenerateEntropy("point mass has degenerate (-inf) entropy")
    if isinstance(d, (GaussianBase, Gamma, Wishart, Dirichlet, Categorical)):
        return d.entropy()
    raise DistributionError(f"entropy undefined for {d.variant}")


# ---------------------------------------------------------------------------
# Expected precision helpers (energy + VMP rules)
# ---------------------------------------------------------------------------


def expected_precision(q: Distribution, dim: int) -> np.ndarray:
    if isinstance(q, PointMass):
        return as_matrix(q.value) if dim > 1 or q.value.ndim == 2 else np.array([[float(q.value)]])
    if isinstance(q, (Gamma, Wishart)):
        return q.mean_matrix()
    raise IncompatibleSupport(f"{q.variant} cannot act as a precision belief")


def expected_covariance(q: Distribution, dim: int) -> np.ndarray:
    """E[W]^-1 of a precision belief; cached on a Gamma or Wishart."""
    if isinstance(q, (Gamma, Wishart)):
        return q.mean_inverse()
    return spd_inverse(expected_precision(q, dim))


def expected_logdet_precision(q: Distribution, dim: int) -> float:
    if isinstance(q, PointMass):
        return spd_logdet(as_matrix(q.value)) if q.value.ndim == 2 else float(np.log(q.value))
    if isinstance(q, Gamma):
        return q.expected_log()
    if isinstance(q, Wishart):
        return q.expected_logdet()
    raise IncompatibleSupport(f"{q.variant} cannot act as a precision belief")


def mean_and_cov(q: Distribution) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance of a Gaussian or vector point mass, both
    read-only."""
    if isinstance(q, PointMass):
        return q.moments()
    if isinstance(q, GaussianBase):
        return q.mean_vector(), q.covariance_matrix()
    raise IncompatibleSupport(f"{q.variant} has no Gaussian-style moments")


# The readings above as Python floats, for the beliefs where each array is a
# 1-vector or a 1x1 matrix whatever the dimension asked for; None for any
# other belief, whose arrays the caller then reads.


def _scalar_moments(q) -> tuple[float, float] | None:
    """``mean_and_cov(q)`` of a one-dimensional Gaussian or a point mass on
    one number."""
    if isinstance(q, GaussianBase):
        return q.scalar_moments() if q.dim == 1 else None
    if isinstance(q, PointMass) and q.value.size == 1 and q.value.ndim < 2:
        return q.value.item(), 0.0
    return None


def _scalar_mean(q) -> tuple[float] | None:
    """The mean of a one-dimensional Gaussian or a point mass on one number."""
    if isinstance(q, GaussianBase):
        return q.scalar_moments()[:1] if q.dim == 1 else None
    if isinstance(q, PointMass) and q.value.size == 1 and q.value.ndim < 2:
        return (q.value.item(),)
    return None


def _scalar_precision(q) -> tuple[float] | None:
    """``expected_precision(q, d)`` of a Gamma or a scalar point mass."""
    if isinstance(q, Gamma):
        return (q.mean_scalar(),)
    if isinstance(q, PointMass) and q.value.ndim == 0:
        return (q.value.item(),)
    return None


def _scalar_covariance(q) -> tuple[float] | None:
    """``expected_covariance(q, d)`` of a Gamma or a scalar point mass."""
    if isinstance(q, Gamma):
        return (q.inverse_mean_scalar(),)
    if isinstance(q, PointMass) and q.value.ndim == 0:
        return (inverse_1x1(q.value.item()),)
    return None


# ---------------------------------------------------------------------------
# Average energies: E_q[-log f] per node kind
# ---------------------------------------------------------------------------


class Batch:
    """A rule body or an average energy evaluated for many members (the
    instructions of one rule, or the terms of one kind) at once.

    ``batch(columns, constants)`` reads one column per slot (that slot's
    value in every member, in member order; a void slot's column holds None)
    and returns one result per member: a message's distribution, or an
    energy, where an array of one value stands for every member; the members
    share ``constants``. Every step is elementwise over the members (stacked
    ``@`` and ``eigh``, ufuncs, per-row dot products) and each message runs
    its family's constructor checks (stacked, for a group's Gaussians and
    Wisharts of d >= 2, K x K tables and Dirichlets: ``stack_members``), so
    a result has the same bits and passes the same checks in a batch of any
    size. Called like a per-call body, ``f(args, constants)``, it evaluates
    a batch of one; used as a decorator, it makes a batch function a rule
    body (``rules.Rule.batch``) or a node kind's average energy
    (``graph.NodeKind.energies``)."""

    __slots__ = ("batch",)

    def __init__(self, batch: Callable[[list, dict], list]):
        self.batch = batch

    def __call__(self, args, constants):
        return self.batch([[q] for q in args], constants)[0]


_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(64)


def _stacked(column, fn, scalar=None, ndims=()) -> list:
    """``fn(q)``, a tuple of arrays, for each belief of ``column``, stacked
    on a leading batch axis. A column that holds one belief throughout (a
    parameter every time slice reads) is evaluated once, on an axis of
    length one that broadcasts.

    ``scalar(q)``, if given, is ``fn(q)`` as Python floats where each array
    is a 1-vector or a 1x1 matrix (None elsewhere), and ``ndims`` gives each
    array's rank: beliefs that all have floats are stacked from them, so no
    array of a member is built.

    A column that is one group's members, each once and in member order
    (``_held``), gives their stacks as they are: moment-form Gaussians for
    ``mean_and_cov``, categorical tables for ``_table``; the arrays are
    read-only."""
    first = column[0]
    if len(column) == 1 or all(q is first for q in column):
        return [np.asarray(x)[None] for x in fn(first)]
    if fn is mean_and_cov and (stack := _held(column, GaussianMeanVariance)):
        return [stack.first, stack.second]
    if fn is _table and (stack := _held(column, Categorical)):
        return [stack.first]
    if scalar is not None and scalar(first) is not None:
        rows = list(map(scalar, column))
        if None not in rows:
            stack = np.array(list(zip(*rows)))  # one contiguous row per array
            return [stack[i].reshape(-1, *(1,) * ndim) for i, ndim in enumerate(ndims)]
    return [np.array(x) for x in zip(*map(fn, column))]


def _floats(q) -> bool:
    """Whether a batch body whose arithmetic also takes floats reads its
    columns with ``_column``: its first member ``q`` is a one-dimensional
    Gaussian or a point mass on one number. A body asks once per call and
    otherwise reads its columns with ``_stacked``, so a batch of one d >= 2
    message pays for no float probe."""
    if isinstance(q, GaussianBase):
        return q.dim == 1
    return isinstance(q, PointMass) and q.value.size == 1 and q.value.ndim < 2


def _column(column, fn, scalar, ndims) -> tuple | list:
    """``_stacked`` for a body whose arithmetic also takes floats: a column
    that holds one belief with floats throughout (the one member of a batch
    of one) gives them as they are, and they broadcast as the axis of length
    one does."""
    first = column[0]
    if len(column) == 1 or all(q is first for q in column):
        x = scalar(first)
        return x if x is not None else [np.asarray(a)[None] for a in fn(first)]
    return _stacked(column, fn, scalar, ndims)


def _apply(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``g @ x`` for a vector or each row of a stack of them, one
    matrix-vector product per vector."""
    return (g @ x[..., None])[..., 0]


def _scatters(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``s + outer(r, r)``, for one residual or each of a stack."""
    return s + r[..., :, None] * r[..., None, :]


def _quadratics(out_column, mean_column) -> np.ndarray:
    """E[(x - m)(x - m)^T] under independent beliefs over x and m."""
    mx, vx = _stacked(out_column, mean_and_cov, _scalar_moments, (1, 2))
    mm, vm = _stacked(mean_column, mean_and_cov, _scalar_moments, (1, 2))
    return _scatters(mx - mm, vx + vm)


def _affine_scatter(moments, constants) -> np.ndarray:
    """E[(out - sum_i G_i v_i - c)(...)^T] for a Gaussian node whose mean side
    is a composition of gain and addition nodes, from the mean and
    covariance of each belief in slot order: one term's, or each stacked
    over a batch of terms.

    With ``joint=True`` the first belief is a joint Gaussian over
    (leaf_0, out), so the cross-covariance between the chain states enters
    the scatter; remaining leaves are independent. Otherwise the first belief
    is the out belief (or an observed value) and all leaves are
    independent."""
    gains = [as_matrix(g) for g in constants.get("gains", [])]
    m, v = moments[0]
    if constants.get("joint", False):
        g0, rest, leaves = gains[0], gains[1:], moments[1:len(gains)]
        dl = g0.shape[1]
        g_lo = g0 @ v[..., :dl, dl:]
        r = m[..., dl:] - _apply(g0, m[..., :dl])
        s = v[..., dl:, dl:] - g_lo - g_lo.swapaxes(-1, -2) + g0 @ v[..., :dl, :dl] @ g0.T
    else:
        rest, leaves = gains, moments[1:1 + len(gains)]
        r, s = m, v
    offset = constants.get("offset")
    if offset is not None:
        r = r - as_vector(offset)
    for g, (ml, vl) in zip(rest, leaves):
        r = r - _apply(g, ml)
        s = s + g @ vl @ g.T
    return _scatters(r, s)


def _affine_scatters(columns, constants) -> np.ndarray:
    """``_affine_scatter`` of a batch of terms, stacked."""
    return _affine_scatter([_stacked(column, mean_and_cov, _scalar_moments, (1, 2)) for column in columns],
                           constants)


def _precision_energies(prec_column, s: np.ndarray) -> np.ndarray:
    """0.5 (d log 2pi - E[log|W|] + tr(E[W] S)) per term."""
    d = s.shape[-1]
    w, logdet = _stacked(prec_column, lambda q: (expected_precision(q, d), expected_logdet_precision(q, d)))
    return 0.5 * (d * LOG_2PI - logdet + np.trace(w @ s, axis1=1, axis2=2))


def _fixed_variance(q_var) -> list:
    """``q / w``, ``q`` and log det of a fixed variance, from one floored
    eigendecomposition; the bits ``spd_solve`` and ``spd_logdet`` give."""
    if not isinstance(q_var, PointMass):
        raise IncompatibleSupport("variance-parameterized energy needs a fixed variance")
    w, q = floored_eigh(as_matrix(q_var.value))
    return q / w, q, np.sum(np.log(w))


def _variance_energies(variances: list, s: np.ndarray) -> np.ndarray:
    """0.5 (d log 2pi + log|V| + tr(V^-1 S)) per term."""
    qw, q, logdet = variances
    solved = qw @ (q.transpose(0, 2, 1) @ s)
    return 0.5 * (s.shape[-1] * LOG_2PI + logdet + np.trace(solved, axis1=1, axis2=2))


@Batch
def _energy_gaussian_mean_precision(columns, constants) -> np.ndarray:
    return _precision_energies(columns[2], _quadratics(columns[0], columns[1]))


@Batch
def _energy_gaussian_mean_variance(columns, constants) -> np.ndarray:
    variances = _stacked(columns[2], _fixed_variance)
    return _variance_energies(variances, _quadratics(columns[0], columns[1]))


@Batch
def _energy_gaussian_affine(columns, constants) -> np.ndarray:
    return _precision_energies(columns[-1], _affine_scatters(columns[:-1], constants))


@Batch
def _energy_gaussian_affine_variance(columns, constants) -> np.ndarray:
    """``_energy_gaussian_affine`` with a fixed variance in place of the
    precision belief."""
    variances = _stacked(columns[-1], _fixed_variance)
    return _variance_energies(variances, _affine_scatters(columns[:-1], constants))


@Batch
def _energy_gaussian_mixture(columns, constants) -> np.ndarray:
    """sum_k E[z_k] E[-log N(out | m_k, W_k^-1)]; a component whose
    responsibility is zero in a term is not evaluated for it."""
    out, comps = columns[0], columns[2:]
    if len(comps) < 4 or len(comps) % 2 != 0:
        raise IncompatibleSupport("mixture energy needs K >= 2 (mean, precision) pairs")
    k = len(comps) // 2
    resp = np.array([_probabilities(q) for q in columns[1]])
    if resp.shape[1:] != (k,):
        raise IncompatibleSupport("selector size does not match component count")
    total = np.zeros(len(out))
    for i in range(k):
        rows = np.flatnonzero(resp[:, i] != 0.0)
        if rows.size:
            out_i, mean_i, prec_i = ([column[j] for j in rows] for column in (out, *comps[2 * i:2 * i + 2]))
            total[rows] += resp[rows, i] * _precision_energies(prec_i, _quadratics(out_i, mean_i))
    return total


def _probit_datum(q) -> float:
    if not isinstance(q, PointMass):
        raise IncompatibleSupport("probit energy needs an observed +/-1 datum")
    y = float(q.value)
    if y not in (1.0, -1.0):
        raise DistributionError("probit datum must be +1 or -1")
    return y


@Batch
def _energy_probit_affine(columns, constants) -> np.ndarray:
    """E[-log Phi(y r)] of each datum y, with r the leaf belief pushed through
    the recorded gain and offset: 64-point Gauss-Hermite quadrature over a
    Gaussian r, the closed form at an observed one."""
    data, leaves = columns
    g = as_matrix(constants["gains"][0])
    if g.shape[0] != 1:
        raise IncompatibleSupport("expected a scalar belief")
    offset = constants.get("offset")
    m, v = _stacked(leaves, mean_and_cov)
    r = (_apply(g, m) + (0.0 if offset is None else as_vector(offset)))[:, 0]
    var = (g @ v @ g.T)[:, 0, 0]
    # the checks a GaussianMeanVariance over r runs on its 1x1 covariance
    point = _stacked(leaves, lambda q: (isinstance(q, PointMass),))[0]
    if (~point & ~np.isfinite(var)).any():
        raise DistributionError("covariance has a non-finite entry")
    negative = ~point & (var < -1e-12 * np.maximum(1.0, np.abs(var)))
    if negative.any():
        raise DistributionError(f"covariance must be positive semi-definite (min eig {var[negative][0]:.3e})")
    y = _stacked(data, lambda q: (_probit_datum(q),))[0]
    var = 0.5 * (var + var)
    pts = r[:, None] + np.sqrt(2.0 * var)[:, None] * _GH_NODES
    vals = -log_ndtr(y[:, None] * pts)
    quadrature = np.array([np.dot(_GH_WEIGHTS, row) for row in vals]) / np.sqrt(np.pi)
    return np.where(point, -log_ndtr(y * r), quadrature)


@Batch
def _energy_probit(columns, constants) -> np.ndarray:
    """``_energy_probit_affine`` with the input belief read as it is."""
    return _energy_probit_affine.batch(columns, {"gains": [[[1.0]]]})


@Batch
def negative_entropy(columns, constants) -> np.ndarray:
    """-weight H[q] of each belief, the entropy terms of F: Gaussians are
    stacked per dimension and categoricals per table shape, beliefs of the
    other families taken one by one."""
    qs = columns[0]
    h = np.empty(len(qs))
    stacks: dict[tuple, list[int]] = {}  # (family, size) -> rows
    for i, q in enumerate(qs):
        if isinstance(q, GaussianBase):
            stacks.setdefault((gaussian_entropies, q.dim), []).append(i)
        elif isinstance(q, Categorical):
            shape = q.probabilities.shape if q._p is None else (len(q._p),)
            stacks.setdefault((categorical_entropies, shape), []).append(i)
        else:
            h[i] = differential_entropy(q)
    for (entropies, _), rows in stacks.items():
        h[rows] = entropies(_entropy_operands([qs[i] for i in rows]))
    return -(constants.get("weight", 1.0) * h)


def _entropy_operands(column) -> np.ndarray:
    """The covariances of a column of Gaussians of one dimension, or the
    tables of a column of categoricals of one shape, stacked; a group's
    stack is taken back (``_held``)."""
    stack = _held(column, Categorical) or _held(column, GaussianMeanVariance)
    if stack is not None:
        return stack.first if stack.cls is Categorical else stack.second
    return np.array([_entropy_operand(q) for q in column])


def _entropy_operand(q):
    if isinstance(q, GaussianBase):
        return [[q.scalar_moments()[1]]] if q.dim == 1 else q.covariance_matrix()
    return _probabilities(q)


def _table(q) -> tuple:
    """``(_probabilities(q),)``, for ``_stacked``."""
    return (_probabilities(q),)


def _probabilities(q):
    """E[z] of a categorical belief or a point mass: a categorical vector's
    tuple of floats where it has one, which stacks or converts without the
    value keeping an array."""
    if isinstance(q, Categorical):
        return q._p if q._p is not None else q.probabilities
    return np.asarray(moment(q, "mean"), dtype=float)


def _energy_gamma(q_out, q_shape, q_rate) -> float:
    if not (isinstance(q_shape, PointMass) and isinstance(q_rate, PointMass)):
        raise IncompatibleSupport("Gamma energy needs fixed shape and rate")
    a, b = float(q_shape.value), float(q_rate.value)
    e_log = moment(q_out, "log")
    e_x = q_out.mean_scalar() if isinstance(q_out, Gamma) else float(q_out.value)
    return float(-a * np.log(b) + gammaln(a) - (a - 1.0) * e_log + b * e_x)


def _energy_wishart(q_out, q_scale, q_dof) -> float:
    if not (isinstance(q_scale, PointMass) and isinstance(q_dof, PointMass)):
        raise IncompatibleSupport("Wishart energy needs fixed scale and dof")
    v0 = as_matrix(q_scale.value)
    nu0 = float(q_dof.value)
    d = v0.shape[0]
    e_logdet = moment(q_out, "logdet")
    e_x = as_matrix(moment(q_out, "mean"))
    log_z = 0.5 * nu0 * d * np.log(2.0) + 0.5 * nu0 * spd_logdet(v0) + multigammaln(0.5 * nu0, d)
    return float(log_z - 0.5 * (nu0 - d - 1.0) * e_logdet + 0.5 * np.trace(spd_solve(v0, e_x)))


def _energy_dirichlet(q_out, q_alpha) -> float:
    if not isinstance(q_alpha, PointMass):
        raise IncompatibleSupport("Dirichlet energy needs a fixed concentration")
    a = np.asarray(q_alpha.value, dtype=float)
    e_logp = np.asarray(moment(q_out, "logprobs"), dtype=float)
    if a.shape != e_logp.shape:
        raise IncompatibleSupport("Dirichlet energy shape mismatch")
    af = a if a.ndim == 2 else a[:, None]
    ef = e_logp if e_logp.ndim == 2 else e_logp[:, None]
    log_b = np.sum(gammaln(af), axis=0) - gammaln(np.sum(af, axis=0))
    return float(np.sum(log_b) - np.sum((af - 1.0) * ef))


def _energy_categorical(q_out, q_p) -> float:
    e_z = np.asarray(moment(q_out, "mean"), dtype=float)
    if isinstance(q_p, Dirichlet):
        e_logp = q_p.expected_logprobs()
    elif isinstance(q_p, PointMass):
        e_logp = _safe_log(np.asarray(q_p.value, dtype=float))
    else:
        raise IncompatibleSupport("Categorical energy needs PointMass or Dirichlet probabilities")
    mask = e_z > 0.0
    return float(-np.sum(e_z[mask] * e_logp[mask]))


@Batch
def _energy_transition(columns, constants) -> np.ndarray:
    """E[-log Cat(x_t | T x_{t-1})]: either a joint two-slice belief (matrix
    Categorical, rows index x_t) or independent out/in beliefs, plus q(T)."""
    (j,) = _stacked(columns[0], _table)
    if len(columns) == 2:
        if j.ndim != 3:
            raise IncompatibleSupport("transition energy needs a two-slice joint")
    else:
        (p_in,) = _stacked(columns[1], _table)
        j = j[:, :, None] * p_in[:, None, :]
    (e_logt,) = _stacked(columns[-1], lambda q: (np.asarray(moment(q, "logprobs"), dtype=float),))
    if e_logt.shape[1:] != j.shape[1:]:
        raise IncompatibleSupport("transition energy shape mismatch")
    return -_sums_where_positive(j, j * e_logt)


def _scalar_gaussian(q) -> tuple[float, float]:
    m, v = mean_and_cov(q)
    if m.shape[0] != 1:
        raise IncompatibleSupport("expected a scalar belief")
    return float(m[0]), float(v[0, 0])


def affine_transport(q: Distribution, gain, offset=None) -> Distribution:
    """Push a Gaussian (or point) belief through an affine map G x + c."""
    g = as_matrix(gain)
    c = as_vector(offset) if offset is not None else np.zeros(g.shape[0])
    if isinstance(q, PointMass):
        v = g @ np.atleast_1d(np.asarray(q.value, dtype=float)) + c
        return PointMass(v[0] if v.shape[0] == 1 else v)
    m, v = mean_and_cov(q)
    return GaussianMeanVariance(g @ m + c, g @ v @ g.T)


def _energy_gaussian_nonlinear(qs, constants) -> float:
    """Observation energy for out ~ N(g(r), W^-1), evaluated under the same
    local linearization of g around E[r] that the message updates use."""
    from .graph import NONLINEAR_FUNCTIONS  # local import to avoid a cycle

    q_out, q_r, q_prec = qs
    g, g_prime = NONLINEAR_FUNCTIONS[constants["g"]]
    mo, vo = mean_and_cov(q_out)
    mr, vr = _scalar_gaussian(q_r)
    r = float(mo[0]) - g(mr)
    s = float(vo[0, 0]) + g_prime(mr) ** 2 * vr + r * r
    w = float(expected_precision(q_prec, 1)[0, 0])
    return 0.5 * (LOG_2PI - expected_logdet_precision(q_prec, 1) + w * s)


def _energy_gaussian_nonlinear_affine(qs, constants) -> float:
    """``_energy_gaussian_nonlinear`` with the argument of g an affine map of
    the leaf belief."""
    q_out, q_x, q_prec = qs
    q_r = affine_transport(q_x, constants["gains"][0], constants.get("offset"))
    return _energy_gaussian_nonlinear([q_out, q_r, q_prec], {"g": constants["g"]})


def average_energy(kind: str, qs, constants: dict | None = None) -> float:
    """Expected negative log node function under the given beliefs.

    ``kind`` names a node kind or a free-energy term that a node kind
    declares (``NodeKind.energies``); ``qs`` follows that kind's interface
    order (out first) or the term's slot layout.
    """
    from .graph import energy_function  # the node-kind records import this module

    return float(energy_function(kind)(list(qs), constants or {}))
