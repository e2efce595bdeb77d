import dataclasses
import functools
import math

import mpmath
import numpy as np
import pytest

from llt_lab import (InvalidParameterError, SmoothedModel, UnsupportedError,
                     bernoulli_noise, density, exact_mixture_density,
                     exact_mixture_density_2d, gaussian_noise, grid_1d, grid_2d, make_fejer,
                     make_gaussian, make_laplace, make_uniform, mixture_weights,
                     monte_carlo_density, product, uniform_noise)
from llt_lab.distributions import _alias_table, _digit_sum_pmf, _digit_widths
from llt_lab import oracle
from llt_lab.oracle import _CHUNK, _chunk_rng, _draw_z, _mixture_weights

UNIFORM = make_uniform(1.0)
LAPLACE = make_laplace(1.0)
GAUSSIAN = make_gaussian(1.0)


def test_mixture_weights_normalized():
    for n in (1, 7, 100, 10_000):
        w = mixture_weights(n)
        assert np.all(np.isfinite(w))
        assert float(w.sum()) == pytest.approx(1.0, abs=1e-12)
        # cached, and read-only so that no caller can change the cached entry
        assert mixture_weights(n) is w
        assert not w.flags.writeable


@pytest.mark.parametrize("n", [16, 1025, 16384, 10 ** 6])
def test_mixture_weights_match_mpmath(n):
    # about 200 j over the whole range, which reaches the smallest normal
    # weights at n = 1025 and 16384, and the j near the mode; every weight
    # that is a normal double is within 64 eps (28 eps measured at 10^6)
    w = mixture_weights(n)
    mode = n // 2
    js = sorted({*np.linspace(0, n, 200).astype(int).tolist(),
                 *range(max(0, mode - 10), min(n, mode + 10) + 1)})
    worst = 0.0
    with mpmath.workdps(30):
        two_n, tiny = mpmath.mpf(2) ** n, mpmath.mpf(2) ** -1022
        for j in js:
            exact = mpmath.binomial(n, j) / two_n
            if exact >= tiny:
                worst = max(worst, abs(float(w[j] / exact - 1)))
    assert worst <= 64 * np.finfo(float).eps


def test_mixture_weights_refuse_n_past_the_table_cap():
    # n + 1 weights past 2^22 are refused before any is formed
    built = _mixture_weights.cache_info().misses
    for call in (lambda: mixture_weights(2 ** 22),
                 lambda: exact_mixture_density(LAPLACE, 10 ** 10, 0.0)):
        with pytest.raises(UnsupportedError, match="needs more than 4194304 weights"):
            call()
    assert _mixture_weights.cache_info().misses == built


def test_mixture_density_in_row_blocks(monkeypatch):
    # with a 64-entry cap, n = 20 takes 3 points per block: every table
    # stays within the cap, and the blocks give the one-table values, in
    # the shape of x
    x = np.linspace(-3.0, 3.0, 10).reshape(2, 5)
    whole = exact_mixture_density(LAPLACE, 20, x)
    assert np.array_equal(whole.ravel(), exact_mixture_density(LAPLACE, 20, x.ravel()))
    sizes = []

    def spy(y):
        sizes.append(y.size)
        return LAPLACE.density(y)

    monkeypatch.setattr(oracle, "_MAX_TABLE", 64)
    blocked = exact_mixture_density(dataclasses.replace(LAPLACE, density=spy), 20, x)
    assert sizes == [63, 63, 63, 21]
    assert np.allclose(blocked, whole, rtol=0.0, atol=1e-16)
    assert exact_mixture_density(LAPLACE, 20, x[:, :0]).shape == (2, 0)


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
        weights = mixture_weights(n)[mode]
        rel = max(abs(float(v / e - 1)) for v, e in zip(weights, exact))
    assert abs(exact_mixture_density(GAUSSIAN, n, x) - float(ref)) <= 1e-14
    assert rel <= 32 * np.finfo(float).eps


def test_mixture_uniform_hand_values():
    # n=1, x=1: (p(0) + p(2))/2 = 1/4; n=2, x=0: sqrt(2)/2 * p(0)
    assert exact_mixture_density(UNIFORM, 1, 1.0) == pytest.approx(0.25, abs=1e-15)
    assert exact_mixture_density(UNIFORM, 2, 0.0) == pytest.approx(
        math.sqrt(2.0) / 4.0, abs=1e-15)


def test_mixture_takes_the_mean_on_a_jump():
    # x sqrt(n) = -3 puts the lattice points -1 and 1 on the edges of
    # uniform:h=1: the closed box would count both, the sum of the one-sided
    # limits; the mixture takes their mean, as the cell engine does
    n, x = 16, -0.75
    left, right = exact_mixture_density(UNIFORM, n, np.array([x - 1e-12, x + 1e-12]))
    got = exact_mixture_density(UNIFORM, n, x)
    assert got == pytest.approx(0.5 * (left + right), rel=0.0, abs=1e-15)
    assert got == pytest.approx(0.296753, abs=1e-6)
    # -0.75 and 0.75 sit on jumps, 0 does not
    grid = grid_1d(x, -x, 3)
    gd = density(SmoothedModel(UNIFORM, bernoulli_noise(1)), n, grid)
    ref = exact_mixture_density(UNIFORM, n, grid.axes[0].points())
    assert ref[0] == got and np.all(np.abs(gd.values - ref) <= gd.est_tail_error)


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


def test_mixture_2d_at_large_n_matches_the_cell_tensor_engine():
    # n = 1025 is odd, so a uniform jump sits where x sqrt(n) is an even
    # integer; x = -1.9 + 0.5 k never puts x sqrt(1025) on an integer
    p2 = product([UNIFORM, LAPLACE])
    grid = grid_2d(-1.9, 2.1, 9)
    gd = density(SmoothedModel(p2, bernoulli_noise(2)), 1025, grid)
    assert gd.meta["engine"] == "cell-tensor"
    X, Y = np.meshgrid(*(ax.points() for ax in grid.axes), indexing="ij")
    ref = exact_mixture_density_2d(p2, 1025, np.stack([X, Y], -1))
    assert ref.shape == (9, 9) and float(ref.max()) > 0.01
    assert np.all(np.abs(gd.values - ref) <= gd.est_tail_error)


def test_mixture_2d_refuses_a_table_past_its_cap():
    # points x (n + 1) > 2^22 is refused before a weight or density is
    # formed; 4096 points fill the cap at n = 1023, so n = 1024 is one past
    def never(y):
        raise AssertionError("a table was formed")

    p2 = product([dataclasses.replace(UNIFORM, density=never)] * 2)
    built = _mixture_weights.cache_info().misses
    for n, points in ((10 ** 12, 1), (1024, 4096)):
        x = np.zeros((points, 2))
        with pytest.raises(UnsupportedError, match="needs more than 4194304 table entries"):
            exact_mixture_density_2d(p2, n, x)
    assert _mixture_weights.cache_info().misses == built


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


def test_monte_carlo_refuses_two_dimensions():
    # the estimate is one-dimensional: a 2-d product model is refused as
    # such, and not for the samplers that neither law declares
    model = SmoothedModel(product([GAUSSIAN, LAPLACE]), bernoulli_noise(2))
    with pytest.raises(UnsupportedError, match="one-dimensional"):
        monte_carlo_density(model, 4, [0.0], samples=16)


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


@pytest.mark.parametrize("bandwidth", [None, 0.05])
def test_kernel_sums_match_the_per_point_formula(bandwidth):
    model = SmoothedModel(LAPLACE, uniform_noise())
    samples, n = _CHUNK + 999, 16
    z = _seeded_sample(model, n, samples, seed=9)
    xs = np.linspace(-4.0, 4.0, 33)
    est = monte_carlo_density(model, n, xs, samples, bandwidth=bandwidth, seed=9)
    h = est.bandwidth
    if bandwidth is None:
        # Silverman's rule on the sample in its drawn order, bit for bit
        iqr = float(np.subtract(*np.percentile(z, [75, 25])))
        assert h == 0.9 * min(float(np.std(z)), iqr / 1.34) * samples ** (-0.2)
    # the per-point kernel sums as they were written before the in-place form
    zs = np.sort(z)
    lo = np.searchsorted(zs, xs - 9.0 * h, side="left")
    hi = np.searchsorted(zs, xs + 9.0 * h, side="right")
    norm = 1.0 / (h * math.sqrt(2.0 * math.pi))
    vals, sq = np.zeros(xs.size), np.zeros(xs.size)
    for i in range(xs.size):
        kern = norm * np.exp(-0.5 * ((xs[i] - zs[lo[i]:hi[i]]) / h) ** 2)
        vals[i] = kern.sum()
        sq[i] = (kern * kern).sum()
    vals /= samples
    stderr = np.sqrt(np.maximum(sq / samples - vals * vals, 0.0) / samples)
    assert np.all(vals > 0.0)
    assert np.allclose(est.values, vals, rtol=1e-14, atol=0.0)
    assert np.allclose(est.stderr, stderr, rtol=1e-14, atol=0.0)


def test_monte_carlo_rejects_non_finite_input():
    model = SmoothedModel(GAUSSIAN, bernoulli_noise(1))
    with pytest.raises(InvalidParameterError):
        monte_carlo_density(model, 4, [0.0, math.nan], samples=100)
    # 1e-160 squares to a subnormal number
    for h in (math.nan, math.inf, 0.0, 1e-160):
        with pytest.raises(InvalidParameterError):
            monte_carlo_density(model, 4, [0.0], samples=100, bandwidth=h)


def test_blocked_step_sum_refuses_a_chunk_past_its_cap():
    # a chunk of ten 10^12-step sums is 10^13 step values, more than 2^32:
    # refused before the first row block is drawn
    model = SmoothedModel(LAPLACE, gaussian_noise())
    with pytest.raises(UnsupportedError, match="needs more than 4294967296 step values"):
        monte_carlo_density(model, 10 ** 12, [0.0], 10)


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
# a sampler's n up to 256 reads one table, of g = n steps; n = 300 reads
# one of 256 steps and one of the last 44 at the width of the full group
_SAMPLER_N = [1, 2, 3, 16, 17, 44, 256, 300]


def _last_table(n):
    # (g, b) of the table of the sampler's last group of steps
    return n - 256 * ((n - 1) // 256), _digit_widths(min(n, 256))[1]


def test_digit_widths_are_the_widest_a_table_holds():
    assert [_digit_widths(g) for g in (1, 16, 44, 256)] == [(4, 14), (5, 11), (7, 8), (8, 7)]
    # at every group size g: ceil(55/w) digits of ceil(55/digits) bits, w the
    # widest whose g-digit sum takes at most 2^15 values
    for g in range(1, 257):
        digits, b = _digit_widths(g)
        widest = max(c for c in range(1, 16) if g * ((1 << c) - 1) + 1 <= 1 << 15)
        assert digits == math.ceil(55 / widest) and b == math.ceil(55 / digits)
        assert digits * b >= 55


@functools.lru_cache(maxsize=None)
def _digit_sum_law(g, b):
    # the number of ways g digits on [0, r), r = 2^b, sum to j, by g box sums
    # of exact integers, over r^g as correctly rounded quotients
    r = 1 << b
    counts = np.array([1], dtype=object)
    for _ in range(g):
        prefix = np.concatenate([[0], np.cumsum(counts)])
        j = np.arange(1, counts.size + r)
        counts = prefix[np.minimum(j, counts.size)] - prefix[np.maximum(j - r, 0)]
    whole = r ** g
    return np.array([c / whole for c in counts.tolist()])


@pytest.mark.parametrize("n", _SAMPLER_N)
def test_digit_sum_pmf_matches_exact_counts(n):
    g, b = _last_table(n)
    # within g b eps/2 relative, give or take half the least subnormal per
    # halving and in the reference's own rounding where the law underflows
    p, ref = _digit_sum_pmf(g, b), _digit_sum_law(g, b)
    assert p.shape == ref.shape
    assert np.all(np.abs(p - ref) <= 0.5 * g * b * EPS * ref + g * b * 2.0 ** -1074)


@pytest.mark.parametrize("n", _SAMPLER_N)
def test_alias_table_reproduces_the_pmf(n):
    g, b = _last_table(n)
    thr, alias, c = _alias_table(g, b)
    k, cap = 1 << c, 1 << (64 - c)
    assert thr.shape == alias.shape == (k,) and k <= 1 << 15
    assert k >= g * ((1 << b) - 1) + 1 > k // 2
    assert thr.dtype == np.uint64 and np.all(thr <= cap)
    assert alias.dtype == np.uint16 and np.all(alias < k)
    assert not thr.flags.writeable and not alias.flags.writeable
    # column j gives j to thr[j] of its cap coins and alias[j] to the rest;
    # the law this implies, in exact integers, sums to 2^64 and is the pmf
    # rounded to multiples of 2^-64 off the mode
    law = [0] * k
    for j, (t, a) in enumerate(zip(thr.tolist(), alias.tolist())):
        law[j] += t
        law[a] += cap - t
    assert sum(law) == 1 << 64
    p = _digit_sum_pmf(g, b)
    rounded = [round(x * 2.0 ** 64) for x in p.tolist()] + [0] * (k - p.size)
    mode = int(np.argmax(p))
    assert law[:mode] == rounded[:mode] and law[mode + 1:] == rounded[mode + 1:]
    ref = _digit_sum_law(g, b).tolist() + [0.0] * (k - p.size)
    # the l1 distance, twice the total variation, is within the per-draw bound
    l1 = math.fsum(abs(q / 2.0 ** 64 - e) for q, e in zip(law, ref))
    assert l1 <= 0.5 * g * b * EPS + k * 2.0 ** -64


class _CraftedWords:
    """Stands in for a generator: every raw draw returns the same words."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = words

    def random_raw(self, size):
        assert size == self.words.size
        return self.words.copy()


@pytest.mark.parametrize("n", [1, 16, 256])
def test_uniform_sum_sampler_splits_each_word_into_column_and_coin(n):
    # n <= 256 steps make one group, drawn from the table of g = n
    digits, b = _digit_widths(n)
    thr, alias, c = _alias_table(n, b)
    cap = 1 << (64 - c)
    # in each column, the largest coin that keeps the column and the
    # smallest that takes its alias
    words, sums = [], []
    for j, (t, a) in enumerate(zip(thr.tolist(), alias.tolist())):
        if t > 0:
            words.append((j << (64 - c)) | (t - 1))
            sums.append(j)
        if t < cap:
            words.append((j << (64 - c)) | t)
            sums.append(a)
    s = uniform_noise().sum_sampler(_CraftedWords(np.array(words, dtype=np.uint64)),
                                    len(words), n)
    # every digit sum of a sample is the same S, so in radix r = 2^b the
    # sample is 2 h 2^-(digits b) (S - (r - 1) n/2) (r^digits - 1)/(r - 1)
    r = 1 << b
    scale = 2.0 * math.sqrt(3.0) * 2.0 ** -(digits * b)
    expected = (scale * (np.array(sums) - 0.5 * (r - 1) * n)
                * float((r ** digits - 1) // (r - 1)))
    assert np.allclose(s, expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", [1, 16, 256, 300])
def test_uniform_sum_sampler_reads_one_word_per_digit_and_group(n):
    size = 1000
    rng = np.random.Generator(np.random.PCG64(17))
    uniform_noise().sum_sampler(rng, size, n)
    ref = np.random.PCG64(17)
    ref.advance(_digit_widths(min(n, 256))[0] * math.ceil(n / 256) * size)
    assert rng.bit_generator.state == ref.state


def test_uniform_sum_sampler_refuses_a_draw_past_its_cap():
    # at n = 10^12 a single sum would read 8 ceil(n/256), about 3.1e10, raw
    # words: refused before a table is built or a word is read
    _alias_table.cache_clear()
    rng = np.random.Generator(np.random.PCG64(5))
    state = rng.bit_generator.state
    with pytest.raises(UnsupportedError, match="needs more than 4294967296 raw words"):
        uniform_noise().sum_sampler(rng, 1, 10 ** 12)
    assert rng.bit_generator.state == state and _alias_table.cache_info().currsize == 0
    with pytest.raises(UnsupportedError, match="raw words"):
        monte_carlo_density(SmoothedModel(LAPLACE, uniform_noise()), 10 ** 12, [0.0], 100)


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
    # 3906 groups of 256 steps and one of 64, both at the width of 256: two
    # tables, within the cache bound
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
