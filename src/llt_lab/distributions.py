"""Catalog of source and noise distributions with exact density / characteristic
function pairs.

Every entry carries closed-form moments, derivative functions where they exist,
the support radius of a compactly supported density or characteristic function
(used by the lattice and inversion engines to sum or integrate over the support
exactly), and structural flags.  All objects are immutable; the evaluation
callables are pure and follow one float-or-array rule (``_pointwise``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidParameterError, UnsupportedError

__all__ = [
    "DistFlags",
    "SourceDistribution",
    "NoiseDistribution",
    "make_uniform",
    "make_laplace",
    "make_gaussian",
    "make_fejer",
    "product",
    "bernoulli_noise",
    "uniform_noise",
    "gaussian_noise",
    "as_noise",
    "beta3",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistFlags:
    symmetric_about_0: bool
    bounded_variation_density: bool
    density_continuous: bool = True
    cf_integrable: bool = True


# ---------------------------------------------------------------------------
# distribution records
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SourceDistribution:
    """A distribution with exact density / characteristic-function pair.

    ``abs_moment1`` is None when the first absolute moment does not exist;
    ``abs_moment3`` uses math.inf for a moment known to be infinite and None
    for "not stored" (the latter triggers quadrature in :func:`beta3`).
    ``cf_support_radius`` and ``density_support_radius`` are the radii beyond
    which the cf or the density vanishes, None where it does not.
    ``density_lattice_tail(R, L)`` bounds the sum of the density over the
    points y of any lattice a + L Z with |y| > R, for a density that decays
    fast enough to be summed on a lattice; None where no bound is declared.
    Densities and cfs accept floats or numpy arrays; for dim >= 2 the point
    arrays have the coordinate axis last.
    """

    dim: int
    density: Optional[Callable]
    cf: Callable
    flags: DistFlags
    cf_grad: Optional[Callable] = None
    abs_moment1: Optional[float] = None
    second_moment: Optional[float] = None
    abs_moment3: Optional[float] = None
    cf_support_radius: Optional[float] = None
    density_support_radius: Optional[float] = None
    density_lattice_tail: Optional[Callable] = None
    self_convolution: Optional[Callable] = None
    sampler: Optional[Callable] = None
    components: Optional[tuple] = None
    label: str = ""

    def __repr__(self) -> str:  # keeps pytest output readable
        return f"<{type(self).__name__} {self.label or 'anonymous'} dim={self.dim}>"


@dataclass(frozen=True, eq=False)
class NoiseDistribution(SourceDistribution):
    """A mean-zero isotropic smoothing noise: a source distribution's
    fields plus how its steps and their sums are drawn."""

    is_symmetric_bernoulli: bool = False
    zero_atom_free: bool = True
    sum_sampler: Optional[Callable] = None


# ---------------------------------------------------------------------------
# numerically safe special functions (series switch below |u| < 1e-4 avoids
# cancellation at the removable singularities)
# ---------------------------------------------------------------------------

_SMALL = 1e-4


def _sinc(u):
    """sin(u)/u with the removable singularity at 0 evaluated by series."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < _SMALL
    safe = np.where(small, 1.0, u)
    u2 = u * u
    out = np.where(small, 1.0 - u2 / 6.0 + u2 * u2 / 120.0, np.sin(safe) / safe)
    return out


def _sinc_prime(u):
    """d/du [sin(u)/u] = cos(u)/u - sin(u)/u**2."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < _SMALL
    safe = np.where(small, 1.0, u)
    u2 = u * u
    series = -u / 3.0 + u * u2 / 30.0
    direct = np.cos(safe) / safe - np.sin(safe) / (safe * safe)
    out = np.where(small, series, direct)
    return out


def _one_minus_cos_over_sq(u):
    """(1 - cos u)/u**2 as (1/2) sinc(u/2)^2: 1 - cos u itself would lose
    eps/u^2 of its relative accuracy to cancellation."""
    return 0.5 * _sinc(0.5 * np.asarray(u, dtype=float)) ** 2


def _pointwise(fn: Callable) -> Callable:
    """The catalog's float-or-array rule: ``fn`` receives the points as a
    float array, and a 0-d result is returned as a Python float."""
    @functools.wraps(fn)
    def at(x):
        out = fn(np.asarray(x, dtype=float))
        return float(out) if np.ndim(out) == 0 else out
    return at


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise InvalidParameterError(f"{name} must be a positive finite real, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# catalog constructors (dim = 1)
# ---------------------------------------------------------------------------

def make_uniform(halfwidth: float) -> SourceDistribution:
    """Uniform distribution on [-h, h]; cf(t) = sin(ht)/(ht)."""
    h = _require_positive("halfwidth", halfwidth)

    @_pointwise
    def density(x):
        return np.where(np.abs(x) <= h, 1.0 / (2.0 * h), 0.0)

    @_pointwise
    def cf(t):
        return _sinc(t * h)

    @_pointwise
    def cf_grad(t):
        return h * _sinc_prime(t * h)

    @_pointwise
    def self_convolution(y):
        return np.maximum(2.0 * h - np.abs(y), 0.0) / (4.0 * h * h)

    def sampler(rng, size):
        return rng.uniform(-h, h, size)

    return SourceDistribution(
        dim=1,
        density=density,
        cf=cf,
        cf_grad=cf_grad,
        abs_moment1=h / 2.0,
        second_moment=h * h / 3.0,
        abs_moment3=h ** 3 / 4.0,
        flags=DistFlags(
            symmetric_about_0=True,
            bounded_variation_density=True,
            density_continuous=False,
            cf_integrable=False,
        ),
        density_support_radius=h,
        self_convolution=self_convolution,
        sampler=sampler,
        label=f"uniform:h={h:g}",
    )


def make_laplace(scale: float) -> SourceDistribution:
    """Two-sided exponential with density exp(-|x|/b)/(2b); cf(t) = 1/(1+b^2 t^2)."""
    b = _require_positive("scale", scale)

    @_pointwise
    def density(x):
        return np.exp(-np.abs(x) / b) / (2.0 * b)

    @_pointwise
    def cf(t):
        return 1.0 / (1.0 + (b * t) ** 2)

    @_pointwise
    def cf_grad(t):
        return -2.0 * b * b * t / (1.0 + (b * t) ** 2) ** 2

    @_pointwise
    def self_convolution(y):
        a = np.abs(y) / b
        return (1.0 + a) * np.exp(-a) / (4.0 * b)

    def lattice_tail(R, L):
        # two geometric series from |y| = R on, ratio e^{-L/b}
        return math.exp(-R / b) / (b * -math.expm1(-L / b))

    def sampler(rng, size):
        return rng.laplace(0.0, b, size)

    return SourceDistribution(
        dim=1,
        density=density,
        cf=cf,
        cf_grad=cf_grad,
        abs_moment1=b,
        second_moment=2.0 * b * b,
        abs_moment3=6.0 * b ** 3,
        flags=DistFlags(symmetric_about_0=True, bounded_variation_density=True),
        density_lattice_tail=lattice_tail,
        self_convolution=self_convolution,
        sampler=sampler,
        label=f"laplace:b={b:g}",
    )


def make_gaussian(sigma: float) -> SourceDistribution:
    """Centered Gaussian with standard deviation sigma; cf(t) = exp(-sigma^2 t^2/2)."""
    s = _require_positive("sigma", sigma)
    s2 = s * s

    @_pointwise
    def density(x):
        return np.exp(-x * x / (2.0 * s2)) / (s * _SQRT2PI)

    @_pointwise
    def cf(t):
        return np.exp(-0.5 * s2 * t * t)

    @_pointwise
    def cf_grad(t):
        return -s2 * t * np.exp(-0.5 * s2 * t * t)

    @_pointwise
    def self_convolution(y):
        v = 2.0 * s2
        return np.exp(-y * y / (2.0 * v)) / math.sqrt(v) / _SQRT2PI

    def lattice_tail(R, L):
        # a decreasing density sums to at most its first value plus its
        # integral over L, on each side
        return 2.0 * (density(R) + 0.5 * math.erfc(R / (s * math.sqrt(2.0))) / L)

    def sampler(rng, size):
        return rng.normal(0.0, s, size)

    return SourceDistribution(
        dim=1,
        density=density,
        cf=cf,
        cf_grad=cf_grad,
        abs_moment1=s * math.sqrt(2.0 / math.pi),
        second_moment=s2,
        abs_moment3=2.0 * math.sqrt(2.0) * s ** 3 / math.sqrt(math.pi),
        flags=DistFlags(symmetric_about_0=True, bounded_variation_density=True),
        density_lattice_tail=lattice_tail,
        self_convolution=self_convolution,
        sampler=sampler,
        label=f"gaussian:sigma={s:g}",
    )


def make_fejer(support_radius: float) -> SourceDistribution:
    """Distribution whose cf is the triangle (1 - |t|/T)+ supported on [-T, T].

    Density (1 - cos(Tx))/(pi T x^2); the first absolute moment is infinite,
    so ``abs_moment1`` is None and operations that need it must reject this
    entry explicitly.
    """
    T = _require_positive("support_radius", support_radius)

    @_pointwise
    def density(x):
        return (T / math.pi) * _one_minus_cos_over_sq(T * x)

    @_pointwise
    def cf(t):
        return np.maximum(1.0 - np.abs(t) / T, 0.0)

    @_pointwise
    def cf_grad(t):
        # defined away from the kinks at 0 and +-T; the convention at the
        # isolated kink points (value 0 at t=0, one-sided slope elsewhere)
        # only affects sets of measure zero in the integrals that use it
        return np.where(np.abs(t) < T, -np.sign(t) / T, 0.0)

    def sampler(rng, size):
        return _fejer_rejection_sample(rng, T, size)

    return SourceDistribution(
        dim=1,
        density=density,
        cf=cf,
        cf_grad=cf_grad,
        abs_moment1=None,
        second_moment=None,
        abs_moment3=math.inf,
        cf_support_radius=T,
        flags=DistFlags(symmetric_about_0=True, bounded_variation_density=True),
        sampler=sampler,
        label=f"fejer:T={T:g}",
    )


def _fejer_rejection_sample(rng, T: float, size) -> np.ndarray:
    """Rejection sampler under the envelope min(T/(2 pi), 2/(pi T x^2)).

    The envelope splits at |x| = 2/T into a flat cap and 1/x^2 tails with
    equal mass 2/pi each; acceptance probability is pi/4.
    """
    n = int(np.prod(size)) if not np.isscalar(size) else int(size)
    x0 = 2.0 / T
    cap = T / (2.0 * math.pi)
    out = np.empty(n)
    filled = 0
    while filled < n:
        m = max(1024, int(1.5 * (n - filled)))
        pick_tail = rng.random(m) < 0.5
        u = rng.random(m)
        x = np.where(pick_tail,
                     x0 / np.maximum(u, 1e-300),
                     (2.0 * u - 1.0) * x0)
        sign = np.where(rng.random(m) < 0.5, -1.0, 1.0)
        x = np.where(pick_tail, sign * x, x)
        env = np.where(np.abs(x) <= x0, cap, 2.0 / (math.pi * T * x * x))
        p = (T / math.pi) * _one_minus_cos_over_sq(T * x)
        accept = rng.random(m) * env <= p
        got = x[accept]
        take = min(n - filled, got.size)
        out[filled:filled + take] = got[:take]
        filled += take
    return out.reshape(size) if not np.isscalar(size) else out


# ---------------------------------------------------------------------------
# products (dim >= 2)
# ---------------------------------------------------------------------------

def product(components: Sequence[SourceDistribution]) -> SourceDistribution:
    """Coordinate-wise product of one-dimensional catalog entries.

    Points are arrays with the coordinate axis last: shape (..., d) in,
    shape (...) out.  The component list is retained so lattice sums and the
    smoothing engine can exploit separability.
    """
    comps = tuple(components)
    if not comps:
        raise InvalidParameterError("product requires at least one component")
    for c in comps:
        if c.dim != 1:
            raise InvalidParameterError("product components must be one-dimensional")
    d = len(comps)

    @_pointwise
    def density(x):
        if x.shape[-1] != d:
            raise InvalidParameterError(f"expected points with last axis {d}")
        out = np.ones(x.shape[:-1])
        for i, c in enumerate(comps):
            out = out * c.density(x[..., i])
        return out

    @_pointwise
    def cf(t):
        if t.shape[-1] != d:
            raise InvalidParameterError(f"expected points with last axis {d}")
        out = np.ones(t.shape[:-1])
        for i, c in enumerate(comps):
            out = out * c.cf(t[..., i])
        return out

    have_grads = all(c.cf_grad is not None for c in comps)

    @_pointwise
    def cf_grad(t):
        vals = [c.cf(t[..., i]) for i, c in enumerate(comps)]
        grads = []
        for i, c in enumerate(comps):
            g = c.cf_grad(t[..., i])
            for j in range(d):
                if j != i:
                    g = g * vals[j]
            grads.append(g)
        return np.stack(grads, axis=-1)

    all_compact = all(c.cf_support_radius is not None for c in comps)
    # smallest Euclidean ball containing the support box
    radius = (math.sqrt(sum(c.cf_support_radius * c.cf_support_radius for c in comps))
              if all_compact else None)

    abs1 = None
    if all(c.abs_moment1 is not None for c in comps):
        # finite upper bound sum E|X_i| >= E|X|; exact value is not closed-form
        abs1 = sum(c.abs_moment1 for c in comps)
    m2 = None
    if all(c.second_moment is not None for c in comps):
        m2 = sum(c.second_moment for c in comps)

    def sampler(rng, size):
        cols = [c.sampler(rng, size) for c in comps]
        return np.stack(cols, axis=-1)

    have_samplers = all(c.sampler is not None for c in comps)

    return SourceDistribution(
        dim=d,
        density=density if all(c.density is not None for c in comps) else None,
        cf=cf,
        cf_grad=cf_grad if have_grads else None,
        abs_moment1=abs1,
        second_moment=m2,
        abs_moment3=None,
        cf_support_radius=radius,
        flags=DistFlags(**{f.name: all(getattr(c.flags, f.name) for c in comps)
                           for f in fields(DistFlags)}),
        sampler=sampler if have_samplers else None,
        components=comps,
        label="product:" + ",".join(c.label for c in comps),
    )


# ---------------------------------------------------------------------------
# noises
# ---------------------------------------------------------------------------

def bernoulli_noise(dim: int = 1) -> NoiseDistribution:
    """Coordinates i.i.d. +-1 with probability 1/2; cf v(t) = cos(t_1)...cos(t_d)."""
    d = int(dim)
    if d < 1:
        raise InvalidParameterError("dim must be a positive integer")

    @_pointwise
    def cf(t):
        if d == 1:
            return np.cos(t)
        if t.shape[-1] != d:
            raise InvalidParameterError(f"expected points with last axis {d}")
        return np.prod(np.cos(t), axis=-1)

    def sampler(rng, size):
        shape = (size, d) if d > 1 else size
        return rng.integers(0, 2, shape) * 2.0 - 1.0

    def sum_sampler(rng, size, n):
        # sum of n i.i.d. +-1 equals 2*Binomial(n, 1/2) - n, per coordinate
        shape = (size, d) if d > 1 else size
        return 2.0 * rng.binomial(n, 0.5, shape) - float(n)

    return NoiseDistribution(
        dim=d,
        density=None,
        cf=cf,
        cf_grad=None,
        abs_moment1=math.sqrt(d),
        second_moment=float(d),
        abs_moment3=1.0 if d == 1 else None,
        flags=DistFlags(
            symmetric_about_0=True,
            bounded_variation_density=False,
            density_continuous=False,
            cf_integrable=False,
        ),
        sampler=sampler,
        label="bernoulli" if d == 1 else f"bernoulli:d={d}",
        is_symmetric_bernoulli=True,
        zero_atom_free=True,
        sum_sampler=sum_sampler,
    )


def as_noise(dist: SourceDistribution, tol: float = 1e-10) -> NoiseDistribution:
    """Promote a symmetric unit-variance source distribution to a noise law.

    Isotropy (unit variance per coordinate) is required; the check is
    analytic for catalog entries via the stored second moment.
    """
    if dist.dim != 1:
        raise InvalidParameterError("as_noise currently supports dim-1 entries")
    if dist.second_moment is None:
        raise UnsupportedError(f"{dist.label}: second moment unavailable, cannot be a noise")
    if abs(dist.second_moment - 1.0) > tol:
        raise InvalidParameterError(
            f"{dist.label}: noise must be isotropic (unit variance), "
            f"got E X^2 = {dist.second_moment!r}")
    if not dist.flags.symmetric_about_0:
        raise UnsupportedError(f"{dist.label}: noise catalog requires symmetry about 0")

    return NoiseDistribution(**{f.name: getattr(dist, f.name) for f in fields(SourceDistribution)},
                             zero_atom_free=dist.density is not None)


# ---------------------------------------------------------------------------
# uniform step sums from digit-sum alias tables
# ---------------------------------------------------------------------------
#
# A step uniform on [-h, h] is drawn as h (2 (K + 1/2) 2^-55 - 1) with K
# uniform on [0, 2^55): eleven independent base-32 digits.  The n steps'
# K sum to sum_l 32^l D_l, where the digit sums D_l are i.i.d., each the sum
# of n uniform digits on [0, 32).  Each D_l is drawn from a Walker alias table
# of its exact law (Walker, ACM TOMS 1977), the steps in groups of at most
# 256 so that a table has at most 256 * 31 + 1 = 7937 entries.

_DIGIT_BITS = 5
_DIGITS = 11
_GROUP = 256


def _digit_sum_pmf(g: int) -> np.ndarray:
    """Law of the sum of g i.i.d. digits uniform on [0, 2^b), j = 0..g(2^b - 1),
    by g direct convolutions of nonnegative terms (relative error a few g eps
    where it does not underflow)."""
    digit = np.full(1 << _DIGIT_BITS, 2.0 ** -_DIGIT_BITS)
    p = np.ones(1)
    for _ in range(g):
        p = np.convolve(p, digit)
    return p


@functools.lru_cache(maxsize=8)
def _alias_table(g: int) -> tuple:
    """Walker alias table (prob, alias) of ``_digit_sum_pmf(g)``, built by
    Vose's pairing: column j keeps j with probability prob[j] and gives
    alias[j] otherwise.  The arrays are read-only."""
    p = _digit_sum_pmf(g)
    k = p.size
    q = (p * k).tolist()
    prob = np.ones(k)
    alias = np.arange(k)
    small = [j for j in range(k) if q[j] < 1.0]
    large = [j for j in range(k) if q[j] >= 1.0]
    while small and large:
        s, big = small.pop(), large[-1]
        prob[s], alias[s] = q[s], big
        q[big] = (q[big] + q[s]) - 1.0
        if q[big] < 1.0:
            small.append(large.pop())
    # the columns left on either list are full to within rounding
    prob.flags.writeable = alias.flags.writeable = False
    return prob, alias


def _uniform_sum_sampler(h: float) -> Callable:
    scale = 2.0 * h * 2.0 ** -(_DIGIT_BITS * _DIGITS)
    radix = float(1 << _DIGIT_BITS)

    def sum_sampler(rng, size, n):
        # per group and digit: one index draw, then one coin draw; rows of
        # `size` values keep the temporaries small
        d = np.zeros((_DIGITS, size), dtype=np.int64)
        full, rest = divmod(n, _GROUP)
        for g in [_GROUP] * full + [rest] * (rest > 0):
            prob, alias = _alias_table(g)
            for row in d:
                idx = rng.integers(0, prob.size, size)
                coin = rng.random(size)
                row += np.where(coin < prob[idx], idx, alias[idx])
        # each centred digit sum is a half-integer, so the Horner sum of the
        # centred digits rounds only once it passes 2^53
        c = d - 0.5 * n * (radix - 1.0)
        t = c[-1]
        for row in c[-2::-1]:
            t = t * radix + row
        return scale * t

    return sum_sampler


def uniform_noise() -> NoiseDistribution:
    """Isotropic uniform noise on [-sqrt(3), sqrt(3)] (unit variance).  Its
    ``sum_sampler`` draws an n-step sum from eleven digit-sum alias tables
    per group of 256 steps (see ``_uniform_sum_sampler``)."""
    h = math.sqrt(3.0)
    return replace(as_noise(make_uniform(h)), sum_sampler=_uniform_sum_sampler(h))


def gaussian_noise() -> NoiseDistribution:
    """Standard Gaussian noise."""
    return as_noise(make_gaussian(1.0))


# ---------------------------------------------------------------------------
# third absolute moment
# ---------------------------------------------------------------------------

def beta3(noise: SourceDistribution) -> float:
    """E|X|^3 for a one-dimensional law: closed form for catalog entries,
    adaptive quadrature otherwise.  Raises :class:`UnsupportedError` when the
    moment is infinite or cannot be computed."""
    if noise.dim != 1:
        raise UnsupportedError("beta3 is implemented for dim-1 laws only")
    m3 = noise.abs_moment3
    if m3 is not None:
        if math.isinf(m3):
            raise UnsupportedError(f"{noise.label}: third absolute moment is infinite")
        return float(m3)
    if noise.density is None:
        raise UnsupportedError(f"{noise.label}: no density and no stored third moment")
    from scipy.integrate import quad
    val, err = quad(lambda x: abs(x) ** 3 * noise.density(x), -np.inf, np.inf, limit=400)
    if not math.isfinite(val) or err > 1e-6 * max(1.0, abs(val)):
        raise UnsupportedError(f"{noise.label}: third-moment quadrature did not converge")
    return float(val)
