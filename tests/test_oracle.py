import math
from math import comb

import mpmath
import numpy as np
import pytest

from llt_lab import (InvalidParameterError, SmoothedModel, UnsupportedError,
                     bernoulli_noise, exact_mixture_density,
                     exact_mixture_density_2d, gaussian_noise, make_fejer,
                     make_gaussian, make_laplace, make_uniform, mixture_weights,
                     monte_carlo_density, product, uniform_noise)
from llt_lab.distributions import _DIGIT_BITS, _alias_table, _digit_sum_pmf
from llt_lab.oracle import _CHUNK, _chunk_rng, _draw_z

UNIFORM = make_uniform(1.0)
LAPLACE = make_laplace(1.0)
GAUSSIAN = make_gaussian(1.0)


def test_mixture_weights_normalized():
    for n in (1, 7, 100, 10_000):
        w = mixture_weights(n)
        assert np.all(np.isfinite(w.log_weights))
        assert w.total() == pytest.approx(1.0, abs=1e-10)
        assert float(w.weights().sum()) == pytest.approx(1.0, abs=1e-12)
        # cached, and read-only so that no caller can change the cached entry
        assert mixture_weights(n) is w
        assert not w.log_weights.flags.writeable


def test_mixture_matches_mpmath_at_large_n():
    # gammaln differences lose |gammaln(n+1)| eps: 5.2e-12 here
    n, x = 16384, 0.15
    w = x * math.sqrt(n)
    with mpmath.workdps(40):
        two_n = mpmath.mpf(2) ** n
        js = [j for j in range(n + 1) if abs(w - (2 * j - n)) < 45.0]
        ref = mpmath.sqrt(n) * mpmath.fsum(
            mpmath.binomial(n, j) / two_n * mpmath.npdf(w - (2 * j - n)) for j in js)
        mode = np.arange(n // 2 - 1000, n // 2 + 1001, 37)
        exact = [mpmath.binomial(n, int(j)) / two_n for j in mode]
        weights = mixture_weights(n).weights()[mode]
        rel = max(abs(float(v / e - 1)) for v, e in zip(weights, exact))
    assert abs(exact_mixture_density(GAUSSIAN, n, x) - float(ref)) <= 1e-14
    assert rel <= 1.5e-14


def test_mixture_uniform_hand_values():
    # n=1, x=1: (p(0) + p(2))/2 = 1/4; n=2, x=0: sqrt(2)/2 * p(0)
    assert exact_mixture_density(UNIFORM, 1, 1.0) == pytest.approx(0.25, abs=1e-15)
    assert exact_mixture_density(UNIFORM, 2, 0.0) == pytest.approx(
        math.sqrt(2.0) / 4.0, abs=1e-15)


def test_mixture_laplace_hand_value():
    # sqrt(2) [ (1/4) e^{-2}/2 * 2 + (1/2)(1/2) ]
    target = math.sqrt(2.0) * (0.25 + math.exp(-2.0) / 4.0)
    assert exact_mixture_density(LAPLACE, 2, 0.0) == pytest.approx(target, abs=1e-15)


@pytest.mark.parametrize("src,n", [(LAPLACE, 20), (GAUSSIAN, 7)],
                         ids=["laplace", "gaussian"])
def test_mixture_integrates_to_one(src, n):
    hi = 1.0 / math.sqrt(n) + math.sqrt(n) + 5.0
    x = np.linspace(-hi, hi, 20001)
    vals = exact_mixture_density(src, n, x)
    mass = float(np.trapezoid(vals, x))
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_mixture_integrates_to_one_uniform_jump_aware():
    # the uniform mixture is a staircase; integrate piecewise between the
    # jump abscissas (2j - n +- 1)/sqrt(n) where plain trapezoid loses O(h)
    from scipy.integrate import quad
    n = 5
    rt = math.sqrt(n)
    jumps = sorted({(2 * j - n + s) / rt for j in range(n + 1) for s in (-1, 1)})
    mass, lo = 0.0, jumps[0]
    for hi in jumps[1:]:
        seg, _ = quad(lambda x: exact_mixture_density(UNIFORM, n, x), lo, hi,
                      limit=200)
        mass += seg
        lo = hi
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_mixture_large_n_stable():
    v = exact_mixture_density(GAUSSIAN, 10_000, 0.3)
    assert math.isfinite(v) and v > 0


def test_mixture_2d_separability():
    p2 = product([UNIFORM, UNIFORM])
    v1 = exact_mixture_density(UNIFORM, 2, 0.0)
    v2 = exact_mixture_density_2d(p2, 2, np.array([0.0, 0.0]))
    assert v2 == pytest.approx(v1 * v1, abs=1e-15)
    l2 = product([LAPLACE, LAPLACE])
    vl = exact_mixture_density(LAPLACE, 2, 0.0)
    assert exact_mixture_density_2d(l2, 2, np.array([0.0, 0.0])) \
        == pytest.approx(vl * vl, abs=1e-15)


def test_mixture_2d_outside_support():
    p2 = product([UNIFORM, UNIFORM])
    assert exact_mixture_density_2d(p2, 1, np.array([30.0, 0.0])) == 0.0


def test_mixture_2d_cap():
    p2 = product([UNIFORM, UNIFORM])
    with pytest.raises(UnsupportedError):
        exact_mixture_density_2d(p2, 257, np.array([0.0, 0.0]))


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_monte_carlo_against_mixture():
    model = SmoothedModel(GAUSSIAN, bernoulli_noise(1))
    xs = np.array([-1.0, 0.0, 1.0])
    est = monte_carlo_density(model, 10, xs, samples=150_000, bandwidth=0.04,
                              seed=3)
    ref = exact_mixture_density(GAUSSIAN, 10, xs)
    assert np.all(np.abs(est.values - ref) <= 3.0 * est.stderr)


def test_monte_carlo_zero_samples_rejected():
    model = SmoothedModel(GAUSSIAN, bernoulli_noise(1))
    with pytest.raises(InvalidParameterError):
        monte_carlo_density(model, 4, [0.0], samples=0)


def test_monte_carlo_deterministic():
    model = SmoothedModel(LAPLACE, bernoulli_noise(1))
    a = monte_carlo_density(model, 6, [0.0, 0.5], samples=40_000, seed=42)
    b = monte_carlo_density(model, 6, [0.0, 0.5], samples=40_000, seed=42)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.stderr, b.stderr)
    assert a.bandwidth == b.bandwidth
    c = monte_carlo_density(model, 6, [0.0, 0.5], samples=40_000, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_monte_carlo_silverman_recorded():
    model = SmoothedModel(GAUSSIAN, bernoulli_noise(1))
    est = monte_carlo_density(model, 4, [0.0], samples=20_000, seed=1)
    assert est.bandwidth > 0
    assert est.samples == 20_000
    assert est.seed == 1


def _seeded_sample(model, n, samples, seed):
    # the chunks are drawn last first: each stream depends on (seed, chunk) alone
    starts = list(enumerate(range(0, samples, _CHUNK)))
    parts = {c: _draw_z(model, n, min(_CHUNK, samples - i0), _chunk_rng(seed, c))
             for c, i0 in reversed(starts)}
    return np.concatenate([parts[c] for c, _ in starts])


@pytest.mark.parametrize("bandwidth", [None, 1e-3])
@pytest.mark.parametrize("model", [
    SmoothedModel(LAPLACE, uniform_noise()),
    SmoothedModel(GAUSSIAN, gaussian_noise()),
    SmoothedModel(make_fejer(0.7), bernoulli_noise(1)),
], ids=["laplace-uniform", "gaussian-gaussian", "fejer-bernoulli"])
def test_windowed_kde_matches_full_kernel_sum(model, bandwidth):
    samples = 2 * _CHUNK + 1234   # not a multiple of the chunk
    z = _seeded_sample(model, 4, samples, seed=5)
    h = monte_carlo_density(model, 4, [0.0], samples, bandwidth=bandwidth, seed=5).bandwidth
    # two points beyond the sample range by 10 bandwidths, where no kernel reaches
    xs = np.concatenate([[z.min() - 10.0 * h, z.max() + 10.0 * h],
                         np.linspace(-4.0, 4.0, 41)])
    est = monte_carlo_density(model, 4, xs, samples, bandwidth=bandwidth, seed=5)
    # brute force: every kernel of the sample at every point
    norm = 1.0 / (h * math.sqrt(2.0 * math.pi))
    kern = norm * np.exp(-0.5 * ((xs[:, None] - z[None, :]) / h) ** 2)
    ref = kern.sum(axis=1) / samples
    ref_se = np.sqrt(np.maximum((kern * kern).sum(axis=1) / samples - ref * ref, 0.0)
                     / samples)
    eps = float(np.finfo(float).eps)
    assert np.all(np.abs(est.values - ref) <= norm * math.exp(-40.5) + 64.0 * eps * ref)
    assert np.allclose(est.stderr, ref_se, rtol=1e-9, atol=norm * 1e-15)
    assert np.all(est.values[:2] == 0.0) and np.all(est.stderr[:2] == 0.0)


def test_monte_carlo_rejects_non_finite_input():
    model = SmoothedModel(GAUSSIAN, bernoulli_noise(1))
    with pytest.raises(InvalidParameterError):
        monte_carlo_density(model, 4, [0.0, math.nan], samples=100)
    for h in (math.nan, math.inf, 0.0):
        with pytest.raises(InvalidParameterError):
            monte_carlo_density(model, 4, [0.0], samples=100, bandwidth=h)


@pytest.mark.parametrize("n", [1, 3, 16, 256, 4097])
def test_blocked_step_sum_matches_one_draw(n):
    # gaussian noise declares no sum sampler, so its steps take the row blocks
    noise = gaussian_noise()
    assert noise.sum_sampler is None
    model = SmoothedModel(LAPLACE, noise)
    m = (1 << 18) // n + 7          # not a multiple of the row block
    blocked = _draw_z(model, n, m, np.random.default_rng(11))
    rng = np.random.default_rng(11)
    x = LAPLACE.sampler(rng, m)
    one = (x + rng.normal(0.0, 1.0, (m, n)).sum(axis=1)) / math.sqrt(n)
    assert np.array_equal(blocked, one)


# ---------------------------------------------------------------------------
# uniform step sums from digit-sum alias tables
# ---------------------------------------------------------------------------

EPS = float(np.finfo(float).eps)


def _digit_sum_law(g):
    # sum_i (-1)^i C(g,i) C(j - i r + g - 1, g - 1) / r^g with r = 2^b, as
    # correctly rounded quotients of exact integers
    r = 1 << _DIGIT_BITS
    counts = [sum((-1) ** i * comb(g, i) * comb(j - i * r + g - 1, g - 1)
                  for i in range(j // r + 1))
              for j in range(g * (r - 1) + 1)]
    return np.array([c / r ** g for c in counts])


@pytest.mark.parametrize("g", [1, 2, 3, 17])
def test_digit_sum_pmf_matches_exact_counts(g):
    p, ref = _digit_sum_pmf(g), _digit_sum_law(g)
    assert p.shape == ref.shape
    assert np.all(np.abs(p - ref) <= 4.0 * g * EPS * ref)


@pytest.mark.parametrize("g", [1, 2, 3, 17, 256])
def test_alias_table_reproduces_the_pmf(g):
    prob, alias = _alias_table(g)
    k = prob.size
    assert k == g * ((1 << _DIGIT_BITS) - 1) + 1
    assert np.all((prob >= 0.0) & (prob <= 1.0))
    assert not prob.flags.writeable and not alias.flags.writeable
    # column j gives j with probability prob[j] and alias[j] otherwise
    law = prob.copy()
    np.add.at(law, alias, 1.0 - prob)
    law /= k
    assert float(np.abs(law - _digit_sum_pmf(g)).sum()) <= k * EPS


@pytest.mark.parametrize("n", [1, 16, 256, 4097])
def test_uniform_sum_sampler_moments(n):
    # mean 0, variance n and fourth cumulant -1.2 n, each within 5 Monte
    # Carlo standard errors (delta method for the cumulant)
    s = uniform_noise().sum_sampler(np.random.default_rng(2718), 1 << 16, n)
    m = s.size
    m2 = float(np.mean(s * s))
    k4 = float(np.mean(s ** 4)) - 3.0 * m2 * m2
    assert abs(float(s.mean())) <= 5.0 * math.sqrt(m2 / m)
    assert abs(m2 - n) <= 5.0 * float(np.std(s * s)) / math.sqrt(m)
    assert abs(k4 + 1.2 * n) <= 5.0 * float(np.std(s ** 4 - 6.0 * m2 * s * s)) / math.sqrt(m)
    assert np.all(np.abs(s) <= math.sqrt(3.0) * n)


def test_uniform_sum_sampler_at_a_million_steps():
    # 3906 groups of 256 steps and one of 64: two tables, within the cache bound
    _alias_table.cache_clear()
    n = 10 ** 6
    s = uniform_noise().sum_sampler(np.random.default_rng(3), 100, n)
    assert s.shape == (100,) and np.all(np.isfinite(s))
    assert 0.5 * n <= float(np.mean(s * s)) <= 1.6 * n
    info = _alias_table.cache_info()
    assert info.currsize == 2 and info.currsize <= info.maxsize


def test_uniform_sum_draws_do_not_depend_on_chunk_order():
    model = SmoothedModel(LAPLACE, uniform_noise())
    samples, n = 2 * _CHUNK + 1234, 300    # groups of 256 and 44 steps
    _alias_table.cache_clear()
    backward = _seeded_sample(model, n, samples, seed=7)
    forward = np.concatenate([
        _draw_z(model, n, min(_CHUNK, samples - i0), _chunk_rng(7, c))
        for c, i0 in enumerate(range(0, samples, _CHUNK))])
    assert np.array_equal(backward, forward)


@pytest.mark.parametrize("kwargs", [
    {"seed": -1}, {"seed": 1.5}, {"seed": "3"}, {"seed": None}, {"seed": np.float64(2.0)},
    {"samples": 100.5}, {"samples": math.nan}, {"n": 2.5}, {"n": 0},
], ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()))
def test_monte_carlo_rejects_non_integer_inputs(kwargs):
    model = SmoothedModel(GAUSSIAN, uniform_noise())
    args = {"n": 4, "samples": 100, "seed": 0} | kwargs
    with pytest.raises(InvalidParameterError):
        monte_carlo_density(model, args["n"], [0.0], args["samples"], seed=args["seed"])


@pytest.mark.parametrize("seed", [0, 2 ** 64, 2 ** 130, np.int64(5)])
def test_monte_carlo_accepts_nonnegative_integer_seed(seed):
    model = SmoothedModel(GAUSSIAN, bernoulli_noise(1))
    est = monte_carlo_density(model, 4, [0.0], samples=100, seed=seed)
    assert est.seed == seed and type(est.seed) is int
