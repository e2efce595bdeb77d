"""Independent ground truth for the Fourier pipeline.

Under symmetric Bernoulli noise the normalized sum has the exact finite
mixture density

    p_n(x) = sqrt(n) * sum_j C(n,j) 2^-n  p(x sqrt(n) - (2j - n)),

computed here with binomial weights multiplied out from the mode, so each
weight near the mode carries only a few roundings at any n.
For general noise a kernel-density Monte Carlo estimate provides a seeded,
reproducible fallback: its samples come in fixed chunks, each drawn from its
own PCG64 stream spawned from the seed by numpy's SeedSequence.  A noise
with a ``sum_sampler`` draws each n-step sum at once: Bernoulli noise as
2 Binomial(n, 1/2) - n, uniform noise from digit-sum alias tables (eleven
draws per group of at most 256 steps, ``distributions.uniform_noise``);
other noises draw the n steps in row blocks.  The alias tables are built by
direct convolution, with nothing from the Fourier code this module checks.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import gammaln, logsumexp

from .distributions import SourceDistribution
from .errors import InvalidParameterError, UnsupportedError

__all__ = [
    "MixtureWeights",
    "mixture_weights",
    "exact_mixture_density",
    "exact_mixture_density_2d",
    "MonteCarloEstimate",
    "monte_carlo_density",
]

_MAX_2D_N = 256


@dataclass(frozen=True)
class MixtureWeights:
    """log C(n,j) - n log 2 for j = 0..n; the weights, exponentiated once
    into a read-only array, sum to 1."""

    n: int
    log_weights: np.ndarray
    _weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.exp(self.log_weights)
        w.flags.writeable = False
        object.__setattr__(self, "_weights", w)

    def weights(self) -> np.ndarray:
        return self._weights

    def total(self) -> float:
        return float(math.exp(logsumexp(self.log_weights)))


def mixture_weights(n: int) -> MixtureWeights:
    """Binomial(n, 1/2) weights as the products of the ratios
    C(n,j+1)/C(n,j) = (n-j)/(j+1) out from the mode, normalised by an exact
    sum.  gammaln differences would lose |gammaln(n+1)| eps, 1.3e-11
    relative at n = 16384; they remain only where the product underflows.
    The last few n are cached; their ``log_weights`` and ``weights()`` are
    read-only."""
    if n < 0:
        raise InvalidParameterError("n must be nonnegative")
    return _mixture_weights(n)


# at n = 10^6 one entry holds 16 MB and takes about 0.2 s to build
@functools.lru_cache(maxsize=8)
def _mixture_weights(n: int) -> MixtureWeights:
    j = np.arange(n + 1, dtype=float)
    mode = n // 2
    up = np.cumprod((n - j[mode:-1]) / (j[mode:-1] + 1.0))
    down = np.cumprod(j[mode:0:-1] / (n - j[mode:0:-1] + 1.0))
    r = np.concatenate([down[::-1], [1.0], up])
    under = r < np.finfo(float).tiny
    with np.errstate(divide="ignore"):
        lw = np.log(r) - math.log(math.fsum(r))
    lw[under] = (gammaln(n + 1) - gammaln(j[under] + 1) - gammaln(n - j[under] + 1)
                 - n * math.log(2.0))
    lw.flags.writeable = False
    return MixtureWeights(n, lw)


def exact_mixture_density(source: SourceDistribution, n: int, x) -> np.ndarray | float:
    """Exact density of (X + S_n)/sqrt(n) for symmetric Bernoulli steps S_n."""
    if source.dim != 1:
        raise InvalidParameterError("exact_mixture_density is one-dimensional")
    if source.density is None:
        raise UnsupportedError(f"{source.label}: no pointwise density")
    if n < 1:
        raise InvalidParameterError("n must be a positive integer")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    w = mixture_weights(n).weights()
    offsets = 2.0 * np.arange(n + 1) - n
    args = xs[:, None] * math.sqrt(n) - offsets[None, :]
    vals = math.sqrt(n) * (np.asarray(source.density(args), dtype=float) @ w)
    return float(vals[0]) if np.ndim(x) == 0 else vals


def exact_mixture_density_2d(source: SourceDistribution, n: int, x) -> float | np.ndarray:
    """Exact density of (X + S_n)/sqrt(n) in d = 2 for steps uniform on the
    corners {-1, 1}^2, as the full (n+1)^2-term double mixture."""
    if source.dim != 2 or source.components is None:
        raise InvalidParameterError("source must be a two-dimensional product")
    if n < 1:
        raise InvalidParameterError("n must be a positive integer")
    if n > _MAX_2D_N:
        raise UnsupportedError(f"n = {n} exceeds the 2-d mixture cap {_MAX_2D_N}")
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    if xs.shape[-1] != 2:
        raise InvalidParameterError("points must have two coordinates")
    w = mixture_weights(n).weights()
    offsets = 2.0 * np.arange(n + 1) - n
    p1, p2 = (c.density for c in source.components)
    a1 = xs[..., 0][..., None] * math.sqrt(n) - offsets
    a2 = xs[..., 1][..., None] * math.sqrt(n) - offsets
    m1 = np.asarray(p1(a1), dtype=float) * w      # (..., n+1)
    m2 = np.asarray(p2(a2), dtype=float) * w
    vals = n * np.einsum("...i,...j->...", m1, m2)
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


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    # the chunk's PCG64 stream is spawned from (seed, chunk) by SeedSequence
    # alone, so the draws are identical in any execution order
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))


def _integer_at_least(value, low: int, name: str) -> int:
    try:
        v = operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from None
    if v < low:
        raise InvalidParameterError(f"{name} must be an integer >= {low}, got {v}")
    return v


def _draw_z(model, n: int, m: int, rng) -> np.ndarray:
    source = model.source
    noise = model.noise
    x = source.sampler(rng, m)
    if noise.sum_sampler is not None:
        s = noise.sum_sampler(rng, m, n)
    else:
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

    Uniform-noise step sums come from ``uniform_noise().sum_sampler``: a
    step is the midpoint of one of 2^55 equal cells of [-h, h], within
    h 2^-55 of a continuous uniform step, and the sum of n such steps is
    drawn from 11 ceil(n/256) alias-table draws (an index and a 53-bit coin
    each).  Each draw's law is within 2e-12 in total variation of the exact
    digit-sum law (the table within K eps, K <= 7937 entries; the
    convolution within 4 g eps relative; the coin within 2^-53), so a sample
    is within 2.2e-11 ceil(n/256) of the quantized sum.  This stream
    replaced n uniform draws per sample, so seeded uniform-noise estimates
    differ from those of earlier versions; their law does not.

    Each point sums the Gaussian kernels of the samples within 9 bandwidths
    of it, found in the sorted sample.  Every omitted kernel is at most
    norm * exp(-40.5), about 2.6e-18 * norm with norm = 1/(h sqrt(2 pi)), so
    the value moves by at most that much; a point with no sample in reach
    gets value 0 and standard error 0.
    """
    samples = _integer_at_least(samples, 1, "samples")
    n = _integer_at_least(n, 1, "n")
    seed = _integer_at_least(seed, 0, "seed")
    if model.source.sampler is None or (model.noise.sampler is None
                                        and model.noise.sum_sampler is None):
        raise UnsupportedError("samplers unavailable for source or noise")
    if model.dim != 1:
        raise UnsupportedError("monte_carlo_density is one-dimensional")
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

    if bandwidth is None:
        sd = float(np.std(z))
        iqr = float(np.subtract(*np.percentile(z, [75, 25])))
        spread = min(sd, iqr / 1.34) if iqr > 0 else sd
        bandwidth = 0.9 * spread * samples ** (-0.2)
    h = float(bandwidth)
    if not (h > 0 and math.isfinite(h)):
        raise InvalidParameterError("bandwidth must be positive and finite")

    zs = np.sort(z)
    lo = np.searchsorted(zs, xs - _KERNEL_REACH * h, side="left")
    hi = np.searchsorted(zs, xs + _KERNEL_REACH * h, side="right")
    vals = np.zeros(xs.size)
    sq = np.zeros(xs.size)
    norm = 1.0 / (h * math.sqrt(2.0 * math.pi))
    for i in range(xs.size):
        kern = norm * np.exp(-0.5 * ((xs[i] - zs[lo[i]:hi[i]]) / h) ** 2)
        vals[i] = kern.sum()
        sq[i] = (kern * kern).sum()
    vals /= samples
    var = sq / samples - vals * vals
    stderr = np.sqrt(np.maximum(var, 0.0) / samples)
    return MonteCarloEstimate(values=vals, stderr=stderr, bandwidth=h,
                              samples=samples, seed=seed)
