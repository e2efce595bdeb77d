"""Independent ground truth for the Fourier pipeline.

Under symmetric Bernoulli noise the normalized sum has the exact finite
mixture density

    p_n(x) = sqrt(n) * sum_j C(n,j) 2^-n  p(x sqrt(n) - (2j - n)),

computed here with binomial weights multiplied out from the mode and
divided by their exact sum: every weight that is a normal double is within
28 eps of C(n,j) 2^-n (measured against mpmath at n up to 10^6), and an n
whose n + 1 weights pass the table cap, 2^22, is refused.  The points are
evaluated in blocks whose (points x (n+1)) tables stay within that cap.
For general noise a kernel-density Monte Carlo estimate provides a seeded,
reproducible fallback: its samples come in fixed chunks, each drawn from its
own PCG64 stream spawned from the seed by numpy's SeedSequence.  A noise
with a ``sum_sampler`` draws each n-step sum at once (Bernoulli noise as
2 Binomial(n, 1/2) - n, uniform noise as ``distributions.uniform_noise``
describes); other noises draw the n steps in row blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import _MAX_WORDS, SourceDistribution
from .errors import (_MAX_TABLE, InvalidParameterError, UnsupportedError, require_at_most,
                     require_integer)

__all__ = [
    "mixture_weights",
    "exact_mixture_density",
    "exact_mixture_density_2d",
    "MonteCarloEstimate",
    "monte_carlo_density",
]

def mixture_weights(n: int) -> np.ndarray:
    """Binomial(n, 1/2) weights C(n,j) 2^-n for j = 0..n, as one cached,
    read-only array: the products of the ratios C(n,j+1)/C(n,j) = (n-j)/(j+1)
    out from the mode, divided by their exact sum (lgamma differences would
    lose |lgamma(n+1)| eps, 1.3e-11 relative at n = 16384).  Every weight
    that is a normal double is within 28 eps of C(n,j) 2^-n (measured
    against mpmath at n up to 10^6); the ones that underflow add nothing
    to a density.  An n + 1 past the table cap, 2^22 weights, is refused
    before anything is formed."""
    n = require_integer(n, 0, "n")
    require_at_most("the binomial mixture", n + 1, _MAX_TABLE, "weights")
    return _mixture_weights(n)


# at n = 10^6 one entry holds 8 MB and takes about 0.2 s to build
@functools.lru_cache(maxsize=8)
def _mixture_weights(n: int) -> np.ndarray:
    j = np.arange(n + 1, dtype=float)
    mode = n // 2
    up_ratio = (n - j[mode:-1]) / (j[mode:-1] + 1.0)
    down_ratio = j[mode:0:-1] / (n - j[mode:0:-1] + 1.0)
    r = np.concatenate([np.cumprod(down_ratio)[::-1], [1.0], np.cumprod(up_ratio)])
    r /= math.fsum(r)
    r.flags.writeable = False
    return r


def exact_mixture_density(source: SourceDistribution, n: int, x) -> np.ndarray | float:
    """Exact density of (X + S_n)/sqrt(n) for symmetric Bernoulli steps S_n,
    at every entry of x (an array of any shape gives one of that shape),
    evaluated in blocks of points whose (points x (n+1)) tables stay within
    the table cap.  Where x sqrt(n) - (2j - n) sits exactly on a jump of the
    source's density, the mean of the one-sided limits."""
    if source.dim != 1:
        raise InvalidParameterError("exact_mixture_density is one-dimensional")
    if source.density is None:
        raise UnsupportedError(f"{source.label}: no pointwise density")
    n = require_integer(n, 1, "n")
    xs = np.asarray(x, dtype=float)
    w = mixture_weights(n)
    offsets = 2.0 * np.arange(n + 1) - n
    rt = math.sqrt(n)
    rows = _MAX_TABLE // (n + 1)        # at least 1: n + 1 passed the cap
    h = source.density_support_radius
    jumps = h is not None and not source.flags.density_continuous
    flat = xs.ravel()
    vals = np.empty(flat.size)
    for i in range(0, flat.size, rows):
        args = flat[i:i + rows, None] * rt - offsets[None, :]
        p = np.asarray(source.density(args), dtype=float)
        if jumps:
            # on a jump the term counts half the closed box's value, so the
            # mixture is the mean of its one-sided limits, as its Fourier
            # inverse is
            p[np.abs(args) == h] *= 0.5
        vals[i:i + rows] = rt * (p @ w)
    return float(vals[0]) if xs.ndim == 0 else vals.reshape(xs.shape)


def exact_mixture_density_2d(source: SourceDistribution, n: int, x) -> float | np.ndarray:
    """Exact density of (X + S_n)/sqrt(n) in d = 2 for steps uniform on the
    corners {-1, 1}^2: the product source and the independent step
    coordinates make it the product of the components' 1-D mixtures.
    Refused when a component's (points x (n+1)) table passes the table cap."""
    if source.components is None:
        raise InvalidParameterError("source must be a two-dimensional product")
    n = require_integer(n, 1, "n")
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    if xs.shape[-1] != 2:
        raise InvalidParameterError("points must have two coordinates")
    require_at_most("the 2-d mixture", xs.size // 2 * (n + 1), _MAX_TABLE, "table entries")
    vals = np.ones(xs.shape[:-1])
    for i, c in enumerate(source.components):
        vals *= exact_mixture_density(c, n, xs[..., i])
    return float(vals[0]) if np.ndim(x) == 1 else vals


# ---------------------------------------------------------------------------
# Monte Carlo with one spawned stream per chunk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloEstimate:
    values: np.ndarray
    stderr: np.ndarray
    bandwidth: float
    samples: int
    seed: int


_CHUNK = 1 << 14
# the generic n-step noise sum is drawn in row blocks of about this many values
_SUM_BLOCK = 1 << 18
# kernels farther than this many bandwidths are left out of the estimate;
# each is below norm * exp(-40.5) = 2.6e-18 * norm
_KERNEL_REACH = 9.0
# below this h^2 is subnormal, and the kernel exponent -(z - x)^2 / (2 h^2)
# loses its digits
_MIN_BANDWIDTH = math.sqrt(np.finfo(float).tiny)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    # the chunk's PCG64 stream is spawned from (seed, chunk) by SeedSequence
    # alone, so the draws are identical in any execution order
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))


def _draw_z(model, n: int, m: int, rng) -> np.ndarray:
    source = model.source
    noise = model.noise
    x = source.sampler(rng, m)
    if noise.sum_sampler is not None:
        s = noise.sum_sampler(rng, m, n)
    else:
        require_at_most("the noise's step draw", m * n, _MAX_WORDS, "step values")
        # the row blocks consume the stream in the C order of one (m, n)
        # draw, so the sums are those of that draw
        rows = max(1, _SUM_BLOCK // n)
        s = np.empty(m)
        for i in range(0, m, rows):
            k = min(rows, m - i)
            s[i:i + k] = noise.sampler(rng, (k, n)).sum(axis=1)
    return (x + s) / math.sqrt(n)


def monte_carlo_density(model, n: int, x_points, samples: int,
                        bandwidth: Optional[float] = None,
                        seed: int = 0) -> MonteCarloEstimate:
    """Gaussian-kernel density estimate of the smoothed law at ``x_points``.

    Deterministic for a given seed, a nonnegative integer: the sample stream
    is generated in fixed chunks, each from its own generator spawned from
    (seed, chunk).  Returns pointwise values and standard errors; the
    bandwidth used (Silverman's rule when not supplied) is recorded for
    reproducibility.

    Step sums are drawn as the module docstring says; uniform noise's
    sampler and its bounds are described at ``distributions.uniform_noise``.

    Each point sums the Gaussian kernels of the samples within 9 bandwidths
    of it, found in the sorted sample.  Every omitted kernel is at most
    norm * exp(-40.5), about 2.6e-18 * norm with norm = 1/(h sqrt(2 pi)), so
    the value moves by at most that much; a point with no sample in reach
    gets value 0 and standard error 0.
    """
    samples = require_integer(samples, 1, "samples")
    n = require_integer(n, 1, "n")
    seed = require_integer(seed, 0, "seed")
    if model.dim != 1:
        raise UnsupportedError("monte_carlo_density is one-dimensional")
    if model.source.sampler is None or (model.noise.sampler is None
                                        and model.noise.sum_sampler is None):
        raise UnsupportedError("samplers unavailable for source or noise")
    xs = np.atleast_1d(np.asarray(x_points, dtype=float))
    if not np.all(np.isfinite(xs)):
        raise InvalidParameterError("x_points must be finite")

    z = np.empty(samples)
    done = 0
    chunk_index = 0
    while done < samples:
        m = min(_CHUNK, samples - done)
        rng = _chunk_rng(seed, chunk_index)
        z[done:done + m] = _draw_z(model, n, m, rng)
        done += m
        chunk_index += 1

    # the order statistics, and so the percentiles, are those of z; the
    # standard deviation keeps z's summation order
    zs = np.sort(z)
    if bandwidth is None:
        sd = float(np.std(z))
        iqr = float(np.subtract(*np.percentile(zs, [75, 25])))
        spread = min(sd, iqr / 1.34) if iqr > 0 else sd
        bandwidth = 0.9 * spread * samples ** (-0.2)
    h = float(bandwidth)
    if not _MIN_BANDWIDTH <= h < math.inf:
        raise InvalidParameterError(
            f"bandwidth must be finite and at least {_MIN_BANDWIDTH:.4g}")

    lo = np.searchsorted(zs, xs - _KERNEL_REACH * h, side="left")
    hi = np.searchsorted(zs, xs + _KERNEL_REACH * h, side="right")
    vals = np.zeros(xs.size)
    sq = np.zeros(xs.size)
    coef = -0.5 / (h * h)
    for i in range(xs.size):
        # exp(-(z - x)^2 / (2 h^2)) in one temporary; norm is applied below
        e = zs[lo[i]:hi[i]] - xs[i]
        e *= e
        e *= coef
        np.exp(e, out=e)
        vals[i] = e.sum()
        sq[i] = e @ e
    norm = 1.0 / (h * math.sqrt(2.0 * math.pi))
    vals *= norm / samples
    sq *= norm * norm
    var = sq / samples - vals * vals
    stderr = np.sqrt(np.maximum(var, 0.0) / samples)
    return MonteCarloEstimate(values=vals, stderr=stderr, bandwidth=h,
                              samples=samples, seed=seed)
