import math

import numpy as np
import pytest

from llt_lab.errors import InvalidParameterError
from llt_lab.seriesaccel import (BlockSeries, richardson_inv_k, sum_series_blocks,
                                 wynn_epsilon)


def cosh_series(t: float, c: float) -> float:
    """Classical Fourier series: sum over all integers of e^{ikt}/(k^2+c^2)
    equals (pi/c) cosh(c(pi-|t|))/sinh(pi c) on [-pi, pi]."""
    return (math.pi / c) * math.cosh(c * (math.pi - abs(t))) / math.sinh(math.pi * c)


@pytest.mark.parametrize("t", [0.0, 0.3, 1.0, math.pi - 1e-3, math.pi])
def test_phased_inverse_square_series(t):
    c = 1.0 / math.pi
    target = cosh_series(t, c) - 1.0 / (c * c)  # one-sided, doubled cosine form

    def block(k0, k1):
        k = np.arange(k0, k1)
        return 2.0 * np.cos(k * t) / (k * k + c * c)

    res = sum_series_blocks(block, tol=1e-10, block=256, max_blocks=128)
    assert complex(res.value).real == pytest.approx(target, abs=5e-11)
    assert abs(complex(res.value).real - target) <= max(res.tail_estimate, 5e-11)


def test_alternating_harmonic():
    def block(k0, k1):
        k = np.arange(k0, k1)
        return (-1.0) ** k / k

    res = sum_series_blocks(block, tol=1e-12, block=256, max_blocks=64)
    assert complex(res.value).real == pytest.approx(-math.log(2.0), abs=1e-12)


def test_zeta2_monotone():
    def block(k0, k1):
        k = np.arange(k0, k1)
        return 1.0 / (k * k)

    res = sum_series_blocks(block, tol=1e-12, block=256, max_blocks=64)
    assert complex(res.value).real == pytest.approx(math.pi ** 2 / 6.0, abs=1e-11)
    assert res.extrapolated


def test_geometric_certifies_without_extrapolation():
    def block(k0, k1):
        k = np.arange(k0, k1)
        return 0.5 ** k

    res = sum_series_blocks(block, tol=1e-12, block=64, max_blocks=64)
    assert not res.extrapolated
    assert complex(res.value).real == pytest.approx(1.0, abs=1e-12)
    assert res.tail_estimate <= 1e-12


def test_phased_harmonic_log_series():
    t = 1.0

    def block(k0, k1):
        k = np.arange(k0, k1)
        return np.cos(k * t) / k

    res = sum_series_blocks(block, tol=1e-10, block=256, max_blocks=128)
    assert complex(res.value).real == pytest.approx(-math.log(2 * math.sin(t / 2)),
                                                    abs=1e-12)


def test_batched_extrapolation():
    # a batch of phases handled in one shot, checked elementwise
    ts = np.array([0.4, 1.3, 2.2, math.pi])
    c = 0.7

    def block(k0, k1):
        k = np.arange(k0, k1)
        return 2.0 * np.cos(np.outer(ts, k)) / (k * k + c * c)

    res = sum_series_blocks(block, tol=1e-10, block=256, max_blocks=96)
    target = np.array([cosh_series(t, c) - 1.0 / (c * c) for t in ts])
    assert np.max(np.abs(np.real(res.value) - target)) <= 1e-10


def test_wynn_epsilon_on_geometric_remainder():
    k = np.arange(1, 40)
    partial = np.cumsum(0.8 ** k)
    val, err = wynn_epsilon(partial)
    assert complex(val).real == pytest.approx(4.0, abs=1e-10)


def test_richardson_on_algebraic_remainder():
    ks = np.arange(10, 51)
    partial = 2.0 - 1.0 / ks + 0.3 / ks ** 2
    val, err = richardson_inv_k(partial, ks)
    assert complex(val).real == pytest.approx(2.0, abs=1e-11)


def test_resonance_floor_flags_slow_mode():
    from llt_lab.seriesaccel import resonance_floor
    k = np.arange(15873, 16385)
    # two modes, one rotating far slower than the window can resolve
    c = (np.exp(1j * 0.027 * k) + np.exp(1j * 0.00027 * k)) / k
    floor = resonance_floor(c[None, :], float(k[-1]))
    assert floor[0] > 0.1
    # a well-resolved mode leaves only a negligible floor
    c2 = np.exp(1j * 1.3 * k) / k
    assert resonance_floor(c2[None, :], float(k[-1]))[0] <= 1e-12
    # fast-decaying series raise no floor either
    c3 = np.exp(1j * 0.0002 * k) * np.exp(-(k - k[0]).astype(float))
    assert resonance_floor(c3[None, :], float(k[-1]))[0] <= 1e-8


def test_certified_tail_never_small_on_noisy_envelope():
    from llt_lab.seriesaccel import certified_tail
    # |sin(eps k)|/k block sums masquerade as summable over short baselines;
    # the rule may return a conservative bound attempt but never a small one
    # (engines only stop when the bound is below their tolerance)
    eps, block = 0.0042 * math.pi, 512
    mags = []
    for j in range(4, 33):
        k = np.arange(j * block + 1, (j + 1) * block + 1)
        mags.append((int(k[-1]), float(np.sum(np.abs(np.sin(eps * k)) / k))))
        t = certified_tail(mags, block)
        assert t is None or t > 1e-3
    # a clean inverse-cube envelope certifies tightly
    mags3 = []
    for j in range(8):
        k = np.arange(j * block + 1, (j + 1) * block + 1)
        mags3.append((int(k[-1]), float(np.sum(1.0 / k ** 3))))
    tail = certified_tail(mags3, block)
    assert tail is not None
    true_tail = 1.0 / (2.0 * mags3[-1][0] ** 2)
    assert tail >= true_tail
    assert tail <= 20.0 * true_tail


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
def test_block_series_rejects_nonpositive_tol(tol):
    with pytest.raises(InvalidParameterError):
        BlockSeries(0.0, 64, tol)


def test_block_series_resumes_after_extrapolation():
    # an extrapolation taken mid-stream leaves the running state untouched
    def feed(acc, j0, j1):
        for j in range(j0, j1):
            k = np.arange(j * 64 + 1, (j + 1) * 64 + 1)
            inc = np.cos(np.outer([0.4, 1.3], k)) / k
            assert not acc.add(k, inc, float(np.max(np.abs(inc).sum(axis=-1))))

    paused = BlockSeries(np.zeros(2), 64, 1e-12)
    straight = BlockSeries(np.zeros(2), 64, 1e-12)
    feed(paused, 0, 16)
    early, _ = paused.extrapolate()
    feed(paused, 16, 32)
    feed(straight, 0, 32)
    assert np.array_equal(paused.total, straight.total)
    late, err = paused.extrapolate()
    assert np.array_equal(late, straight.extrapolate()[0])
    target = -np.log(2.0 * np.sin(np.array([0.4, 1.3]) / 2.0))
    assert np.max(np.abs(late - target)) <= max(float(np.max(err)), 1e-12)
    assert not np.array_equal(early, late)


def _phased_blocks(count, x=3):
    # increments laid out (k, batch), as the cell engine forms them
    rng = np.random.default_rng(7)
    theta = rng.uniform(0.1, 3.0, x)
    for j in range(count):
        k = np.arange(j * 64 + 1, (j + 1) * 64 + 1)
        inc = np.cos(np.outer(k, theta)) / k[:, None] * rng.uniform(0.5, 2.0, (64, x))
        yield k, inc, float(np.max(np.abs(inc).sum(axis=0)))


def test_block_series_totals_match_increments():
    # a block total summed sequentially over k (axis 0 of a (k, batch)
    # array) leaves the books exactly as the per-term increments do
    by_term = BlockSeries(np.full(3, 0.25 + 0.5j), 64, 1e-14)
    by_total = BlockSeries(np.full(3, 0.25 + 0.5j), 64, 1e-14)
    for k, inc, mag in _phased_blocks(24):
        assert by_term.add(k, inc.T, mag) == by_total.add_total(k[-1], inc.sum(axis=0), mag)
    assert np.array_equal(by_term.total, by_total.total)
    assert len(by_term.checkpoints) == len(by_total.checkpoints) == 24
    for a, b in zip(by_term.checkpoints, by_total.checkpoints):
        assert np.array_equal(a, b)
    assert by_term.ks == by_total.ks and by_term.mags == by_total.mags


def test_block_series_refuses_to_extrapolate_a_total():
    acc = BlockSeries(np.zeros(3), 64, 1e-14)
    blocks = list(_phased_blocks(9))
    for k, inc, mag in blocks[:8]:
        acc.add_total(k[-1], inc.sum(axis=0), mag)
    with pytest.raises(RuntimeError, match="by its total"):
        acc.extrapolate()
    k, inc, mag = blocks[8]
    acc.add(k, inc.T, mag)
    vals, errs = acc.extrapolate()       # a per-term block reopens it
    assert vals.shape == errs.shape == (3,)
    acc.add_total(k[-1] + 64, inc.sum(axis=0), mag)
    with pytest.raises(RuntimeError, match="by its total"):
        acc.extrapolate()
