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

from .errors import InvalidParameterError, UnsupportedError, require_at_most

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
_LAPLACE_CF_TERMS = 3      # terms of the laplace cf declared at infinity


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistFlags:
    symmetric_about_0: bool
    density_continuous: bool = True


# ---------------------------------------------------------------------------
# distribution records
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SourceDistribution:
    """A distribution with exact density / characteristic-function pair.

    ``abs_moment1`` is None when the first absolute moment does not exist;
    ``abs_moment3`` uses math.inf for a moment known to be infinite and None
    for "not stored" (which :func:`beta3` refuses).
    ``cf_support_radius`` and ``density_support_radius`` are the radii beyond
    which the cf or the density vanishes, None where it does not.
    ``density_lattice_tail(R, L)`` bounds the sum of the density over the
    points y of any lattice a + L Z with |y| > R, for a density that decays
    fast enough to be summed on a lattice; None where no bound is declared.
    An even cf declares its behaviour at infinity once: ``cf_terms`` are
    terms (c, p, omega), c t^-p cos(omega t) for even p and
    c t^-p sin(omega t) for odd p, and ``cf_lattice_tail(R, L)`` bounds the
    sum of |f - terms| over the points t of L Z with |t| >= R; None where
    no bound is declared.  ``cf_power_tail(r, p)`` bounds the integral of
    |f(u)|^p over |u| > r, inf where that integral diverges; None where no
    bound is declared.  Densities and cfs accept floats or numpy arrays.
    A law is one-dimensional, or the product of exactly two one-dimensional
    ``components`` (``dim`` 2), whose points have the coordinate axis last;
    a product declares no gradient, moments, tails or sampler of its own:
    its components carry them.
    """

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
    cf_terms: tuple = ()
    cf_lattice_tail: Optional[Callable] = None
    cf_power_tail: Optional[Callable] = None
    sampler: Optional[Callable] = None
    components: Optional[tuple] = None
    label: str = ""

    def __post_init__(self):
        comps = self.components
        if comps is not None and (len(comps) != 2 or any(c.dim != 1 for c in comps)):
            raise InvalidParameterError("a product takes exactly two components, each "
                                        "one-dimensional")

    @property
    def dim(self) -> int:
        return 1 if self.components is None else 2

    def __repr__(self) -> str:  # keeps pytest output readable
        return f"<{type(self).__name__} {self.label or 'anonymous'} dim={self.dim}>"


@dataclass(frozen=True, eq=False)
class NoiseDistribution(SourceDistribution):
    """A mean-zero isotropic smoothing noise: a source distribution's
    fields plus how its steps and their sums are drawn."""

    is_symmetric_bernoulli: bool = False
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
    us = np.where(small, u, 0.0)    # the series only where it is taken
    u2 = us * us
    out = np.where(small, 1.0 - u2 / 6.0 + u2 * u2 / 120.0, np.sin(safe) / safe)
    return out


def _sinc_prime(u):
    """d/du [sin(u)/u] = cos(u)/u - sin(u)/u**2."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < _SMALL
    safe = np.where(small, 1.0, u)
    us = np.where(small, u, 0.0)
    u2 = us * us
    series = -us / 3.0 + us * u2 / 30.0
    direct = np.cos(safe) / safe - np.sin(safe) / (safe * safe)
    out = np.where(small, series, direct)
    return out


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


def _refuses_overflow(make: Callable) -> Callable:
    """A catalog maker refuses a parameter that overflows one of the law's
    constants (a moment, a cf term) with InvalidParameterError."""
    @functools.wraps(make)
    def checked(param: float) -> SourceDistribution:
        try:
            return make(param)
        except OverflowError:
            raise InvalidParameterError(f"{make.__name__}({param!r}): the law's constants "
                                        "overflow a float") from None
    return checked


# ---------------------------------------------------------------------------
# catalog constructors (one-dimensional)
# ---------------------------------------------------------------------------

@_refuses_overflow
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

    def cf_power_tail(r, p):
        # |sin(hu)/(hu)| <= e^{-(hu)^2/6} for |hu| <= pi (every term of the
        # series of log(sin z/z) is negative), and <= 1/(h|u|) beyond
        if p <= 1:
            return math.inf
        edge, k = math.pi / h, math.sqrt(p / 6.0)
        near = (math.sqrt(6.0 * math.pi / p) / h
                * (math.erfc(h * r * k) - math.erfc(math.pi * k)) if r < edge else 0.0)
        return near + 2.0 / (h * (p - 1.0)) * (h * max(r, edge)) ** (1.0 - p)

    def sampler(rng, size):
        return rng.uniform(-h, h, size)

    return SourceDistribution(
        density=density,
        cf=cf,
        cf_grad=cf_grad,
        abs_moment1=h / 2.0,
        second_moment=h * h / 3.0,
        abs_moment3=h ** 3 / 4.0,
        flags=DistFlags(symmetric_about_0=True, density_continuous=False),
        density_support_radius=h,
        cf_terms=((1.0 / h, 1, h),),            # sin(ht)/(ht) is its own term
        cf_lattice_tail=lambda R, L: 0.0,
        cf_power_tail=cf_power_tail,
        sampler=sampler,
        label=f"uniform:h={h:g}",
    )


@_refuses_overflow
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
        q = 1.0 + (b * t) ** 2      # q^2 would overflow for bt beyond 1e77
        return -2.0 * b * b * t / q / q

    def lattice_tail(R, L):
        # two geometric series from |y| = R on, ratio e^{-L/b}
        return math.exp(-R / b) / (b * -math.expm1(-L / b))

    # 1/(1 + u^2) = u^-2 - u^-4 + u^-6 - ... at u = bt; after its first
    # J = _LAPLACE_CF_TERMS terms the remainder is u^-2J/(1 + u^2) <= u^-q,
    # q = 2J + 2
    q = 2 * _LAPLACE_CF_TERMS + 2
    cf_terms = tuple(((-1.0) ** (j + 1) * b ** (-2 * j), 2 * j, 0.0)
                     for j in range(1, _LAPLACE_CF_TERMS + 1))

    def cf_lattice_tail(R, L):
        # a decreasing bound sums to at most its first value plus its
        # integral over L, on each side
        return 2.0 * (b * R) ** -q * (1.0 + R / (L * (q - 1)))

    def cf_power_tail(r, p):
        # for |u| >= r, (1 + (bu)^2)^-p is at most (1 + (br)^2)^(1-p) times
        # 1/(1 + (bu)^2), whose tail is closed, and at most (1 + (br)^2)^-p
        # (1 + 2 b^2 r (|u| - r)/(1 + (br)^2))^-p, whose tail is the second
        # bound
        if p < 1:
            return math.inf
        x = b * r
        side = 2.0 / b * math.atan2(1.0, x)
        d = b * x * (p - 1.0)
        if d > 0.0:
            side = min(side, 1.0 / d)
        return (1.0 + x * x) ** (1.0 - p) * side

    def sampler(rng, size):
        return rng.laplace(0.0, b, size)

    return SourceDistribution(
        density=density,
        cf=cf,
        cf_grad=cf_grad,
        abs_moment1=b,
        second_moment=2.0 * b * b,
        abs_moment3=6.0 * b ** 3,
        flags=DistFlags(symmetric_about_0=True),
        density_lattice_tail=lattice_tail,
        cf_terms=cf_terms,
        cf_lattice_tail=cf_lattice_tail,
        cf_power_tail=cf_power_tail,
        sampler=sampler,
        label=f"laplace:b={b:g}",
    )


@_refuses_overflow
def make_gaussian(sigma: float) -> SourceDistribution:
    """Centered Gaussian with standard deviation sigma; cf(t) = exp(-sigma^2 t^2/2)."""
    s = _require_positive("sigma", sigma)
    s2 = s * s
    if s2 < np.finfo(float).tiny:
        raise InvalidParameterError(f"sigma = {s!r}: its variance underflows a float")

    @_pointwise
    def density(x):
        return np.exp(-x * x / (2.0 * s2)) / (s * _SQRT2PI)

    @_pointwise
    def cf(t):
        return np.exp(-0.5 * s2 * t * t)

    @_pointwise
    def cf_grad(t):
        return -s2 * t * np.exp(-0.5 * s2 * t * t)

    def lattice_tail(R, L):
        # a decreasing density sums to at most its first value plus its
        # integral over L, on each side
        return 2.0 * (density(R) + 0.5 * math.erfc(R / (s * math.sqrt(2.0))) / L)

    def cf_lattice_tail(R, L):
        # the same bound for the cf, which has no terms at infinity
        return 2.0 * (cf(R) + math.sqrt(0.5 * math.pi) / s * math.erfc(s * R / math.sqrt(2.0)) / L)

    def cf_power_tail(r, p):
        return math.sqrt(2.0 * math.pi / p) / s * math.erfc(s * r * math.sqrt(0.5 * p))

    def sampler(rng, size):
        return rng.normal(0.0, s, size)

    return SourceDistribution(
        density=density,
        cf=cf,
        cf_grad=cf_grad,
        abs_moment1=s * math.sqrt(2.0 / math.pi),
        second_moment=s2,
        abs_moment3=2.0 * math.sqrt(2.0) * s ** 3 / math.sqrt(math.pi),
        flags=DistFlags(symmetric_about_0=True),
        density_lattice_tail=lattice_tail,
        cf_lattice_tail=cf_lattice_tail,
        cf_power_tail=cf_power_tail,
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
        # (1 - cos Tx)/(Tx)^2 as sinc(Tx/2)^2/2, free of 1 - cos cancellation
        return (T / (2.0 * math.pi)) * _sinc(0.5 * T * x) ** 2

    @_pointwise
    def cf(t):
        return np.maximum(1.0 - np.abs(t) / T, 0.0)

    @_pointwise
    def cf_grad(t):
        # defined away from the kinks at 0 and +-T; the convention at the
        # isolated kink points (value 0 at t=0, one-sided slope elsewhere)
        # only affects sets of measure zero in the integrals that use it
        return np.where(np.abs(t) < T, -np.sign(t) / T, 0.0)

    def cf_power_tail(r, p):
        return 2.0 * T / (p + 1.0) * max(0.0, 1.0 - r / T) ** (p + 1.0)

    def sampler(rng, size):
        return _fejer_rejection_sample(rng, T, size)

    return SourceDistribution(
        density=density,
        cf=cf,
        cf_grad=cf_grad,
        abs_moment1=None,
        second_moment=None,
        abs_moment3=math.inf,
        cf_support_radius=T,
        cf_power_tail=cf_power_tail,
        flags=DistFlags(symmetric_about_0=True),
        sampler=sampler,
        label=f"fejer:T={T:g}",
    )


def _fejer_rejection_sample(rng, T: float, size) -> np.ndarray:
    """Rejection sampler for y = T x, of density sinc(y/2)^2/(2 pi), under
    the envelope min(1/(2 pi), 2/(pi y^2)): a flat cap on |y| <= 2 and 1/y^2
    tails, of mass 2/pi each, so acceptance is pi/4.  One raw 64-bit word
    per candidate gives the tail bit (the top one), the sign bit and a
    53-bit abscissa u = (k + 1) 2^-53: y = 2u on the cap, 2/u in a tail.
    One uniform accepts against sinc(y/2)^2 on the cap and sin(y/2)^2 in
    the tails, the density over the envelope, with no 1 - cos y formed.
    """
    n = int(np.prod(size)) if not np.isscalar(size) else int(size)
    out = np.empty(n)
    filled = 0
    while filled < n:
        # about 1.02 (n - filled) + 800 candidates are accepted
        m = int(1.3 * (n - filled)) + 1024
        w = rng.bit_generator.random_raw(m)
        tail = (w >> 63) == 1
        u = ((w & ((1 << 53) - 1)) + 1).astype(float) * 2.0 ** -53
        h = np.where(tail, 1.0 / u, u)                  # |y|/2
        s = np.sin(h)
        accept = rng.random(m) < np.where(tail, s, s / h) ** 2
        got = (np.where(((w >> 62) & 1) == 1, -2.0 / T, 2.0 / T) * h)[accept]
        take = min(n - filled, got.size)
        out[filled:filled + take] = got[:take]
        filled += take
    return out.reshape(size) if not np.isscalar(size) else out


# ---------------------------------------------------------------------------
# products (two dimensions)
# ---------------------------------------------------------------------------

def _coordinatewise(fns: list) -> Callable:
    """x -> fns[0](x_1) fns[1](x_2) at points with the coordinate axis last."""
    @_pointwise
    def at(x):
        if x.shape[-1] != 2:
            raise InvalidParameterError("expected points with last axis 2")
        return fns[0](x[..., 0]) * fns[1](x[..., 1])
    return at


def product(components: Sequence[SourceDistribution]) -> SourceDistribution:
    """Coordinate-wise product of two one-dimensional laws; any other
    number of components, or a component that is itself a product, is
    refused with InvalidParameterError.

    Points are arrays with the coordinate axis last: shape (..., 2) in,
    shape (...) out, for the density and the cf alone.  Every other
    declaration (the cf's gradient, support and tails, the moments, the
    sampler) is the components': lattice sums, the regularity integral,
    the Poisson check, the smoothing engine and the oracle read the product
    on its ``components``, so it declares none of its own.
    """
    comps = tuple(components)
    has_density = all(c.density is not None for c in comps)
    return SourceDistribution(
        density=_coordinatewise([c.density for c in comps]) if has_density else None,
        cf=_coordinatewise([c.cf for c in comps]),
        flags=DistFlags(**{f.name: all(getattr(c.flags, f.name) for c in comps)
                           for f in fields(DistFlags)}),
        components=comps,
        label="product:" + ",".join(c.label for c in comps),
    )


# ---------------------------------------------------------------------------
# noises
# ---------------------------------------------------------------------------

def _noise_of(dist: SourceDistribution, **noise_fields) -> NoiseDistribution:
    """The noise law with every field of ``dist`` and the given noise fields."""
    return NoiseDistribution(**{f.name: getattr(dist, f.name) for f in fields(SourceDistribution)},
                             **noise_fields)


def bernoulli_noise(dim: int = 1) -> NoiseDistribution:
    """Steps +-1 with probability 1/2, cf v(t) = cos(t); ``sum_sampler``
    draws an n-step sum.  With ``dim`` 2, the corner steps of {-1, 1}^2:
    the product of two one-dimensional Bernoulli noises, cf
    cos(t_1) cos(t_2), read on its components like every product.  Any
    other ``dim`` is refused."""
    if dim == 2:
        corners = replace(product([bernoulli_noise(1)] * 2), label="bernoulli:d=2")
        return _noise_of(corners, is_symmetric_bernoulli=True)
    if dim != 1:
        raise InvalidParameterError(f"Bernoulli noise has dimension 1 or 2, got {dim!r}")

    @_pointwise
    def cf(t):
        return np.cos(t)

    def sum_sampler(rng, size, n):
        # the sum of n i.i.d. +-1 is 2 Binomial(n, 1/2) - n
        return 2.0 * rng.binomial(n, 0.5, size) - float(n)

    return NoiseDistribution(
        density=None,
        cf=cf,
        abs_moment1=1.0,
        second_moment=1.0,
        abs_moment3=1.0,
        flags=DistFlags(symmetric_about_0=True, density_continuous=False),
        cf_power_tail=lambda r, p: math.inf,        # |cos| is periodic
        label="bernoulli",
        is_symmetric_bernoulli=True,
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
    return _noise_of(dist)


# ---------------------------------------------------------------------------
# uniform step sums from digit-sum alias tables
# ---------------------------------------------------------------------------
#
# A step uniform on [-h, h] is drawn as h (2 (K + 1/2) 2^-B - 1) with K
# uniform on [0, 2^B), B >= 55: D independent digits of b bits, B = D b.
# The n steps' K sum to sum_l 2^(b l) S_l, where the digit sums S_l are
# i.i.d., each the sum of n uniform digits on [0, 2^b).  The steps go in
# groups of at most 256, and each group's S_l is drawn from a Walker alias
# table of its law (Walker, ACM TOMS 1977) over k = 2^c >= g (2^b - 1) + 1
# columns.  b is the widest that keeps the table of a full group g =
# min(n, 256) within 2^15 columns, then D = ceil(55/b) digits of
# ceil(55/D) bits: 5 of 11 at n = 16, 8 of 7 from n = 256 on.  The table
# holds the law in units of 2^-64, summing to 2^64 exactly, so one raw
# 64-bit word draws a digit sum with exactly the table's law: its top c bits
# pick the column, its low 64 - c bits are the coin.  That law is within
# g b eps/2 + k 2^-64 in total variation (half the l1 distance) of the exact
# digit-sum law: the g b halvings that build it are within g b eps/2
# relative, each entry rounds by at most 2^-65, and the mode absorbs the
# difference of the rounded sum from 1.

_STEP_BITS = 55
_GROUP = 256
_TABLE_COLUMNS = 1 << 15
_WORD_BITS = 64
# the most raw words one call of the sampler reads: at about 10 ns a word
# (2-core x86 host), some 45 s of draws
_MAX_WORDS = 1 << 32


def _digit_widths(g: int) -> tuple:
    """(D, b): a step's D digits of b bits for groups of g steps, from the
    widest width whose g-digit sum takes at most 2^15 values."""
    widest = ((_TABLE_COLUMNS - 1) // g + 1).bit_length() - 1
    digits = -(-_STEP_BITS // widest)
    return digits, -(-_STEP_BITS // digits)


def _digit_sum_pmf(g: int, b: int) -> np.ndarray:
    """Law of the sum of g i.i.d. digits uniform on [0, 2^b), j = 0..g(2^b - 1),
    by g b shifted halvings p(j) <- (p(j) + p(j - 2^i))/2: each adds two
    nonnegative terms and rounds once, so an entry is within g b eps/2
    relative where it does not underflow."""
    p = np.zeros(g * ((1 << b) - 1) + 1)
    p[0] = 1.0
    top = 1
    for _ in range(g):
        for i in range(b):
            s = 1 << i
            p[s:top + s] += p[:top]     # numpy buffers the overlapping operands
            p[:top + s] *= 0.5
            top += s
    return p


@functools.lru_cache(maxsize=8)
def _alias_table(g: int, b: int) -> tuple:
    """Walker alias table (thr, alias, c) of ``_digit_sum_pmf(g, b)`` in exact
    integers: the pmf, padded with zeros to k = 2^c columns, is rounded to
    multiples of 2^-64 with the remainder to 1 on the mode, and Vose's pairing
    fills k columns of capacity 2^(64 - c).  Column j gives j to the coins
    below thr[j] and alias[j] to the rest.  The arrays are read-only."""
    p = _digit_sum_pmf(g, b)
    c = (p.size - 1).bit_length()
    k = 1 << c
    cap = 1 << (_WORD_BITS - c)
    q = np.zeros(k, dtype=np.uint64)
    q[:p.size] = np.rint(p * 2.0 ** _WORD_BITS)     # from 2^53 on already integers
    # the sum wraps modulo 2^64, so subtracting it puts 2^64 minus the sum
    # on the mode
    mode = int(np.argmax(p))
    q[mode:mode + 1] -= q.sum(keepdims=True)
    # Vose's pairing with both worklists walked in column order: donor i
    # (the columns of at least cap, excess cumulated in x) fills the small
    # columns whose cumulated deficit before them is in (x[i-1], x[i]), and
    # once below cap is itself filled by donor i + 1
    small = np.flatnonzero(q < cap)
    large = np.flatnonzero(q >= cap)
    deficit = np.zeros(small.size + 1, dtype=np.uint64)
    np.cumsum(cap - q[small], out=deficit[1:])
    x = np.cumsum(q[large] - cap)
    thr = np.full(k, cap, dtype=np.uint64)
    alias = np.arange(k, dtype=np.uint16)
    thr[small] = q[small]
    alias[small] = large[np.searchsorted(x, deficit[:-1], side="left")]
    # the deficit through the last small column donor i fills; the last
    # donor ends at x[-1] = deficit[-1], exactly full
    reach = deficit[np.searchsorted(deficit[:-1], x, side="right")]
    below = np.flatnonzero(reach > x)
    thr[large[below]] = cap - (reach[below] - x[below])
    alias[large[below]] = large[below + 1]
    thr.flags.writeable = alias.flags.writeable = False
    return thr, alias, c


def _uniform_sum_sampler(h: float) -> Callable:
    def sum_sampler(rng, size, n):
        # one raw word per group and digit, the digits from the most
        # significant down, so that each row of digit sums joins the Horner
        # sum as soon as it is drawn; every group takes the width of the
        # first, and a last group of fewer steps its own smaller table
        full, rest = divmod(n, _GROUP)
        digits, b = _digit_widths(min(n, _GROUP))
        require_at_most(f"uniform noise: a draw of {size} sums of {n} steps",
                        digits * -(-n // _GROUP) * size, _MAX_WORDS, "raw words")
        groups = [(full, _alias_table(_GROUP, b))] if full else []
        if rest:
            groups.append((1, _alias_table(rest, b)))
        raw = rng.bit_generator.random_raw
        radix = float(1 << b)
        centre = 0.5 * n * (radix - 1.0)
        t = np.zeros(size)
        for _ in range(digits):
            d = np.zeros(size, dtype=np.intp)
            for count, (thr, alias, c) in groups:
                for _ in range(count):
                    u = raw(size)
                    col = (u >> (_WORD_BITS - c)).view(np.intp)
                    u &= (1 << (_WORD_BITS - c)) - 1
                    d += np.where(u < thr[col], col, alias[col])
            # each centred digit sum is a half-integer, so the Horner sum of
            # the centred digits rounds only once it passes 2^53
            t *= radix
            t += d - centre
        return (2.0 * h * 2.0 ** -(b * digits)) * t

    return sum_sampler


def uniform_noise() -> NoiseDistribution:
    """Isotropic uniform noise on [-sqrt(3), sqrt(3)] (unit variance).  Its
    ``sum_sampler`` draws an n-step sum from one raw 64-bit word per digit
    and group of 256 steps, 5 digits at n = 16 and 8 from n = 256 on, each
    from a digit-sum alias table (see ``_uniform_sum_sampler``)."""
    h = math.sqrt(3.0)
    return replace(as_noise(make_uniform(h)), sum_sampler=_uniform_sum_sampler(h))


def gaussian_noise() -> NoiseDistribution:
    """Standard Gaussian noise."""
    return as_noise(make_gaussian(1.0))


# ---------------------------------------------------------------------------
# third absolute moment
# ---------------------------------------------------------------------------

def beta3(noise: SourceDistribution) -> float:
    """E|X|^3 of a one-dimensional law, as the law stores it in
    ``abs_moment3``.  Raises :class:`UnsupportedError` when the moment is
    infinite or not stored."""
    if noise.dim != 1:
        raise UnsupportedError("beta3 is implemented for dim-1 laws only")
    m3 = noise.abs_moment3
    if m3 is None:
        raise UnsupportedError(f"{noise.label}: no third absolute moment stored")
    if math.isinf(m3):
        raise UnsupportedError(f"{noise.label}: third absolute moment is infinite")
    return float(m3)
