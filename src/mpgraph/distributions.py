"""Exponential-family distribution values and their closed-form algebra.

Every message and marginal in the engine carries one of these variants as its
payload. Instances are immutable after construction (backing arrays are
frozen), so they can be shared freely between threads; all operations here are
pure functions.

Gaussian values come in three interconvertible parameterizations. Products of
colliding messages are fused in the canonical (weighted-mean, precision) form,
and conversion back to moment form is deferred until a mean or covariance is
actually requested. Before any inversion, symmetric matrices get their
eigenvalues floored at 1e-12.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma, gammaln, log_ndtr, multigammaln

from ._linalg import (
    as_matrix,
    as_vector,
    check_spd,
    spd_inverse,
    spd_logdet,
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
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


class Distribution:
    """Base class for all distribution variants."""

    variant: str = "distribution"

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
    """Shared moment accessors for the three Gaussian parameterizations."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def mean_vector(self) -> np.ndarray:
        raise NotImplementedError

    def covariance_matrix(self) -> np.ndarray:
        raise NotImplementedError

    def precision_matrix(self) -> np.ndarray:
        raise NotImplementedError

    def weighted_mean_vector(self) -> np.ndarray:
        return self.precision_matrix() @ self.mean_vector()

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
        d = self.dim
        return 0.5 * (d * (LOG_2PI + 1.0) + spd_logdet(self.covariance_matrix()))

    def log_density(self, x) -> float:
        x = as_vector(x)
        r = x - self.mean_vector()
        v = self.covariance_matrix()
        quad = float(r @ spd_solve(v, r))
        return -0.5 * (self.dim * LOG_2PI + spd_logdet(v) + quad)


class GaussianMeanVariance(GaussianBase):
    variant = "GaussianMeanVariance"

    def __init__(self, mean, covariance):
        m = as_vector(mean)
        v = _checked_spd(as_matrix(covariance), "covariance")
        if v.shape[0] != m.shape[0]:
            raise DistributionError("mean/covariance dimension mismatch")
        self.mean = _freeze(m)
        self.covariance = _freeze(v)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def mean_vector(self):
        return self.mean

    def covariance_matrix(self):
        return self.covariance

    def precision_matrix(self):
        return spd_inverse(self.covariance)

    def _params_json(self):
        return {"mean": self.mean.tolist(), "covariance": self.covariance.tolist()}


class GaussianMeanPrecision(GaussianBase):
    variant = "GaussianMeanPrecision"

    def __init__(self, mean, precision):
        m = as_vector(mean)
        w = _checked_spd(as_matrix(precision), "precision")
        if w.shape[0] != m.shape[0]:
            raise DistributionError("mean/precision dimension mismatch")
        self.mean = _freeze(m)
        self.precision = _freeze(w)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def mean_vector(self):
        return self.mean

    def covariance_matrix(self):
        return spd_inverse(self.precision)

    def precision_matrix(self):
        return self.precision

    def weighted_mean_vector(self):
        return self.precision @ self.mean

    def _params_json(self):
        return {"mean": self.mean.tolist(), "precision": self.precision.tolist()}


class GaussianCanonical(GaussianBase):
    """Information form (xi = W m, W). Internal fusion form for products.

    The precision may be singular; it is floored only when moments are
    requested, so rank-deficient messages (e.g. out of a dot-product gain)
    survive until they collide with an informative message.
    """

    variant = "GaussianCanonical"

    def __init__(self, weighted_mean, precision):
        xi = as_vector(weighted_mean)
        w = as_matrix(precision)
        if w.shape[0] != w.shape[1] or w.shape[0] != xi.shape[0]:
            raise DistributionError("weighted-mean/precision dimension mismatch")
        if w.size and float(np.max(np.abs(w - w.T))) > 1e-9 * max(1.0, float(np.max(np.abs(w)))):
            raise DistributionError("precision is not symmetric")
        self.weighted_mean = _freeze(xi)
        self.precision = _freeze(symmetrize(w))

    @property
    def dim(self) -> int:
        return self.weighted_mean.shape[0]

    def mean_vector(self):
        return spd_solve(self.precision, self.weighted_mean)

    def covariance_matrix(self):
        return spd_inverse(self.precision)

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

    def mean_scalar(self) -> float:
        return self.shape / self.rate

    def expected_log(self) -> float:
        return float(digamma(self.shape)) - np.log(self.rate)

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


class Wishart(Distribution):
    variant = "Wishart"

    def __init__(self, scale, dof):
        v = _checked_spd(as_matrix(scale), "Wishart scale", strict=True)
        nu = float(dof)
        d = v.shape[0]
        if nu <= d - 1:
            raise DistributionError(f"Wishart dof must exceed dim-1, got nu={nu}, d={d}")
        self.scale = _freeze(v)
        self.dof = nu

    @property
    def dim(self) -> int:
        return self.scale.shape[0]

    def mean_matrix(self) -> np.ndarray:
        return self.dof * self.scale

    def expected_logdet(self) -> float:
        d, nu = self.dim, self.dof
        mvdig = float(np.sum(digamma(0.5 * (nu + 1.0 - np.arange(1, d + 1)))))
        return mvdig + d * np.log(2.0) + spd_logdet(self.scale)

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

    def __init__(self, concentration):
        a = np.asarray(concentration, dtype=float)
        if a.ndim not in (1, 2):
            raise DistributionError("Dirichlet concentration must be a vector or matrix")
        if np.any(a <= 0.0):
            raise DistributionError("Dirichlet concentration entries must be strictly positive")
        self.concentration = _freeze(a)

    @property
    def is_matrix(self) -> bool:
        return self.concentration.ndim == 2

    def mean(self) -> np.ndarray:
        a = self.concentration
        return a / np.sum(a, axis=0, keepdims=True) if self.is_matrix else a / np.sum(a)

    def expected_logprobs(self) -> np.ndarray:
        a = self.concentration
        total = np.sum(a, axis=0, keepdims=True) if self.is_matrix else np.sum(a)
        return digamma(a) - digamma(total)

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


class Categorical(Distribution):
    """Categorical over one-hot vectors. A matrix-shaped probability table
    represents a joint over two adjacent chain states (rows index the later
    state); it sums to one as a whole."""

    variant = "Categorical"

    def __init__(self, probabilities):
        p = np.asarray(probabilities, dtype=float)
        if p.ndim not in (1, 2):
            raise DistributionError("Categorical probabilities must be a vector or matrix")
        if np.any(p < -1e-12):
            raise DistributionError("Categorical probabilities must be nonnegative")
        s = float(np.sum(p))
        if abs(s - 1.0) > 1e-12:
            raise DistributionError(f"Categorical probabilities must sum to 1, got {s!r}")
        self.probabilities = _freeze(np.clip(p, 0.0, None))

    def mean(self) -> np.ndarray:
        return self.probabilities

    def entropy(self) -> float:
        p = self.probabilities
        nz = p[p > 0.0]
        return float(-np.sum(nz * np.log(nz)))

    def log_density(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.sum(x * _safe_log(self.probabilities)))

    def _params_json(self):
        return {"probabilities": self.probabilities.tolist()}


class PointMass(Distribution):
    variant = "PointMass"

    def __init__(self, value):
        self.value = _freeze(np.asarray(value, dtype=float))

    def mean(self) -> np.ndarray:
        return self.value

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
    try:
        cls = _VARIANTS[obj["type"]]
    except KeyError as exc:
        raise DistributionError(f"unknown distribution type {obj.get('type')!r}") from exc
    return cls(**obj["params"])


def vague(family: str, shape=None) -> Distribution:
    """Virtually uninformative but proper default for a variable support."""
    if family == "gaussian":
        d = 1 if shape in (None, ()) else int(np.prod(shape))
        return GaussianMeanVariance(np.zeros(d), VAGUE_VARIANCE * np.eye(d))
    if family == "gamma":
        return Gamma(1.0, 1e-12)
    if family == "wishart":
        d = int(shape[0]) if isinstance(shape, (tuple, list)) else int(shape or 1)
        return Wishart(VAGUE_VARIANCE * np.eye(d), float(d))
    if family == "dirichlet":
        return Dirichlet(np.ones(shape))
    if family == "categorical":
        k = int(shape)
        return Categorical(np.full(k, 1.0 / k))
    raise DistributionError(f"no vague default for family {family!r}")


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
        w = a.precision_matrix() + b.precision_matrix()
        xi = a.weighted_mean_vector() + b.weighted_mean_vector()
        if float(np.min(sym_eigvals(w))) < -1e-9:
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
        if a.probabilities.shape != b.probabilities.shape:
            raise IncompatibleSupport("Categorical size mismatch")
        p = a.probabilities * b.probabilities
        z = float(np.sum(p))
        if z <= 0.0:
            raise DistributionError("Categorical product has zero normalizer")
        return Categorical(p / z)

    raise IncompatibleSupport(f"cannot multiply {a.variant} with {b.variant}")


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
    if isinstance(q, Gamma):
        return np.array([[q.mean_scalar()]])
    if isinstance(q, Wishart):
        return q.mean_matrix()
    raise IncompatibleSupport(f"{q.variant} cannot act as a precision belief")


def expected_logdet_precision(q: Distribution, dim: int) -> float:
    if isinstance(q, PointMass):
        return spd_logdet(as_matrix(q.value)) if q.value.ndim == 2 else float(np.log(q.value))
    if isinstance(q, Gamma):
        return q.expected_log()
    if isinstance(q, Wishart):
        return q.expected_logdet()
    raise IncompatibleSupport(f"{q.variant} cannot act as a precision belief")


def mean_and_cov(q: Distribution) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance of a Gaussian or vector point mass."""
    if isinstance(q, PointMass):
        v = as_vector(q.value)
        return v, np.zeros((v.shape[0], v.shape[0]))
    if isinstance(q, GaussianBase):
        return q.mean_vector(), q.covariance_matrix()
    raise IncompatibleSupport(f"{q.variant} has no Gaussian-style moments")


# ---------------------------------------------------------------------------
# Average energies: E_q[-log f] per node kind
# ---------------------------------------------------------------------------

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(64)


def _gaussian_quadratic(q_out, q_mean) -> np.ndarray:
    """E[(x - m)(x - m)^T] under independent beliefs over x and m."""
    mx, vx = mean_and_cov(q_out)
    mm, vm = mean_and_cov(q_mean)
    r = mx - mm
    return vx + vm + np.outer(r, r)


def _energy_gaussian_mean_precision(q_out, q_mean, q_prec) -> float:
    s = _gaussian_quadratic(q_out, q_mean)
    d = s.shape[0]
    w = expected_precision(q_prec, d)
    return 0.5 * (d * LOG_2PI - expected_logdet_precision(q_prec, d) + float(np.trace(w @ s)))


def _energy_gaussian_mean_variance(q_out, q_mean, q_var) -> float:
    if not isinstance(q_var, PointMass):
        raise IncompatibleSupport("variance-parameterized energy needs a fixed variance")
    v = as_matrix(q_var.value)
    s = _gaussian_quadratic(q_out, q_mean)
    d = s.shape[0]
    return 0.5 * (d * LOG_2PI + spd_logdet(v) + float(np.trace(spd_solve(v, s))))


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
    terms = e_z * e_logp
    return float(-np.sum(terms[e_z > 0.0]))


def _energy_transition(qs) -> float:
    """E[-log Cat(x_t | T x_{t-1})]: either a joint two-slice belief (matrix
    Categorical, rows index x_t) or independent out/in beliefs, plus q(T)."""
    if len(qs) == 2:
        q_joint, q_t = qs
        j = np.asarray(moment(q_joint, "mean"), dtype=float)
        if j.ndim != 2:
            raise IncompatibleSupport("transition energy needs a two-slice joint")
    else:
        q_out, q_in, q_t = qs
        j = np.outer(moment(q_out, "mean"), moment(q_in, "mean"))
    e_logt = np.asarray(moment(q_t, "logprobs"), dtype=float)
    if e_logt.shape != j.shape:
        raise IncompatibleSupport("transition energy shape mismatch")
    return float(-np.sum((j * e_logt)[j > 0.0]))


def _energy_gaussian_mixture(qs) -> float:
    q_out, q_sel = qs[0], qs[1]
    comps = qs[2:]
    if len(comps) < 4 or len(comps) % 2 != 0:
        raise IncompatibleSupport("mixture energy needs K >= 2 (mean, precision) pairs")
    resp = np.asarray(moment(q_sel, "mean"), dtype=float)
    k = len(comps) // 2
    if resp.shape != (k,):
        raise IncompatibleSupport("selector size does not match component count")
    total = 0.0
    for i in range(k):
        q_m, q_w = comps[2 * i], comps[2 * i + 1]
        if resp[i] == 0.0:
            continue
        total += resp[i] * _energy_gaussian_mean_precision(q_out, q_m, q_w)
    return float(total)


def _scalar_gaussian(q) -> tuple[float, float]:
    m, v = mean_and_cov(q)
    if m.shape[0] != 1:
        raise IncompatibleSupport("expected a scalar belief")
    return float(m[0]), float(v[0, 0])


def _energy_probit(q_datum, q_input) -> float:
    if not isinstance(q_datum, PointMass):
        raise IncompatibleSupport("probit energy needs an observed +/-1 datum")
    y = float(q_datum.value)
    if y not in (1.0, -1.0):
        raise DistributionError("probit datum must be +1 or -1")
    if isinstance(q_input, PointMass):
        return float(-log_ndtr(y * float(q_input.value)))
    m, v = _scalar_gaussian(q_input)
    pts = m + np.sqrt(2.0 * v) * _GH_NODES
    vals = -log_ndtr(y * pts)
    return float(np.dot(_GH_WEIGHTS, vals) / np.sqrt(np.pi))


def affine_transport(q: Distribution, gain, offset=None) -> Distribution:
    """Push a Gaussian (or point) belief through an affine map G x + c."""
    g = as_matrix(gain)
    c = as_vector(offset) if offset is not None else np.zeros(g.shape[0])
    if isinstance(q, PointMass):
        v = g @ np.atleast_1d(np.asarray(q.value, dtype=float)) + c
        return PointMass(v[0] if v.shape[0] == 1 else v)
    m, v = mean_and_cov(q)
    return GaussianMeanVariance(g @ m + c, g @ v @ g.T)


def affine_residual_scatter(qs, constants) -> np.ndarray:
    """E[(out - sum_i G_i v_i - c)(...)^T] for a Gaussian node whose mean side
    is a composition of gain and addition nodes.

    With ``joint=True`` the first belief is a joint Gaussian over
    (leaf_0, out), so the cross-covariance between the chain states enters the
    scatter; remaining leaves are independent. Otherwise qs[0] is the out
    belief (or an observed value) and all leaves are independent.
    """
    gains = [as_matrix(g) for g in constants.get("gains", [])]
    joint = bool(constants.get("joint", False))
    if joint:
        q_joint = qs[0]
        leaves = qs[1 : len(gains)]
        mj, vj = mean_and_cov(q_joint)
        g0 = gains[0]
        dl = g0.shape[1]
        mu_l, mu_o = mj[:dl], mj[dl:]
        v_ll, v_lo, v_oo = vj[:dl, :dl], vj[:dl, dl:], vj[dl:, dl:]
        r = mu_o - g0 @ mu_l
        s = v_oo - g0 @ v_lo - (g0 @ v_lo).T + g0 @ v_ll @ g0.T
        rest = gains[1:]
    else:
        q_out = qs[0]
        leaves = qs[1 : 1 + len(gains)]
        mo, vo = mean_and_cov(q_out)
        r = mo.copy()
        s = vo
        rest = gains
    offset = constants.get("offset")
    if offset is not None:
        r = r - as_vector(offset)
    for g, q_leaf in zip(rest, leaves):
        ml, vl = mean_and_cov(q_leaf)
        r = r - g @ ml
        s = s + g @ vl @ g.T
    return s + np.outer(r, r)


def _energy_gaussian_affine(qs, constants) -> float:
    s = affine_residual_scatter(qs[:-1], constants)
    q_prec = qs[-1]
    do = s.shape[0]
    w = expected_precision(q_prec, do)
    return 0.5 * (do * LOG_2PI - expected_logdet_precision(q_prec, do) + float(np.trace(w @ s)))


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


def average_energy(kind: str, qs, constants: dict | None = None) -> float:
    """Expected negative log node function under the given beliefs.

    ``qs`` follows the node kind's interface order (out first). Structured
    recognition factors may pass a joint belief where documented per kind.
    """
    qs = list(qs)
    if kind == "gaussian_mean_precision":
        return _energy_gaussian_mean_precision(*qs)
    if kind == "gaussian_mean_variance":
        return _energy_gaussian_mean_variance(*qs)
    if kind == "gamma":
        return _energy_gamma(*qs)
    if kind == "wishart":
        return _energy_wishart(*qs)
    if kind == "dirichlet":
        return _energy_dirichlet(*qs)
    if kind == "categorical":
        return _energy_categorical(*qs)
    if kind == "transition":
        return _energy_transition(qs)
    if kind == "gaussian_mixture":
        return _energy_gaussian_mixture(qs)
    if kind == "probit":
        return _energy_probit(*qs)
    if kind == "gaussian_affine":
        return _energy_gaussian_affine(qs, constants or {})
    if kind == "gaussian_nonlinear":
        return _energy_gaussian_nonlinear(qs, constants or {})
    raise DistributionError(f"average energy unsupported for node kind {kind!r}")
