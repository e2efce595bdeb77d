import math
import zlib

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


# ---------------------------------------------------------------------------
# one table per method: reference copies of the two-run extrapolation
# ---------------------------------------------------------------------------

def _two_run_wynn(partials):
    # the epsilon algorithm on one window, sequence on the last axis, in
    # complex arithmetic
    S = np.asarray(partials, dtype=complex)
    m = S.shape[-1]
    scale = np.maximum(np.abs(S[..., -1]), 1e-300)
    val = S[..., -1].copy()
    err = np.abs(S[..., -1] - S[..., -2]) if m >= 2 else np.full(S.shape[:-1], np.inf)
    prev = np.zeros_like(S)
    curr = S.copy()
    prev_even_last = S[..., -1].copy()
    for k in range(m - 1):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            diff = curr[..., 1:] - curr[..., :-1]
            tiny = np.abs(diff) < 1e-300 * scale[..., None]
            safe = np.where(tiny, 1.0, diff)
            nxt = prev[..., 1:curr.shape[-1]] + np.where(tiny, np.inf, 1.0 / safe)
        prev, curr = curr, nxt
        if curr.shape[-1] < 1:
            break
        if k % 2 == 1:
            with np.errstate(invalid="ignore"):
                cand = curr[..., -1]
                cand_err = np.abs(cand - prev_even_last)
                if curr.shape[-1] >= 2:
                    cand_err = cand_err + np.abs(curr[..., -1] - curr[..., -2])
            ok = np.isfinite(cand) & (cand_err < err)
            val = np.where(ok, cand, val)
            err = np.where(ok, cand_err, err)
            prev_even_last = np.where(np.isfinite(cand), cand, prev_even_last)
        if curr.shape[-1] < 3:
            break
    return val, err


def _two_run_richardson(partials, ks):
    S = np.asarray(partials, dtype=complex)
    x = 1.0 / np.asarray(ks, dtype=float)
    m = S.shape[-1]
    T = S.copy()
    val = S[..., -1].copy()
    err = np.abs(S[..., -1] - S[..., -2]) if m >= 2 else np.full(S.shape[:-1], np.inf)
    for level in range(1, min(12, m - 1) + 1):
        jj = np.arange(level, m)
        denom = x[jj] - x[jj - level]
        Tn = T.copy()
        Tn[..., jj] = (x[jj] * T[..., jj - 1] - x[jj - level] * T[..., jj]) / denom
        T = Tn
        cand = T[..., -1]
        if m - 1 > level:
            cand_err = np.abs(T[..., -1] - T[..., -2])
        else:
            cand_err = np.abs(cand - val)
        ok = np.isfinite(cand) & (cand_err < err)
        val = np.where(ok, cand, val)
        err = np.where(ok, cand_err, err)
    return val, err


def _two_run_extrapolate(partials, ks):
    # each method on the whole window and again on its first two thirds
    m = partials.shape[-1]
    cut = max(5, (2 * m) // 3)
    v_e, e_e = _two_run_wynn(partials)
    v_r, e_r = _two_run_richardson(partials, ks)
    if cut < m:
        v_e2, _ = _two_run_wynn(partials[..., :cut])
        v_r2, _ = _two_run_richardson(partials[..., :cut], ks[:cut])
        e_e = np.maximum(e_e, np.abs(v_e - v_e2))
        e_r = np.maximum(e_r, np.abs(v_r - v_r2))
    use_e = e_e <= e_r
    val = np.where(use_e, v_e, v_r)
    err = np.where(use_e, e_e, e_r)
    return val, np.maximum(err, 8.0 * np.finfo(float).eps * np.abs(val))


def _test_series(kind, m, batch):
    # partial sums (batch..., m) of tails the extrapolators meet
    rng = np.random.default_rng([m, len(batch), zlib.crc32(kind.encode())])
    k0 = int(rng.integers(1, 4000))
    ks = np.arange(k0, k0 + m, dtype=float)
    amp = rng.uniform(0.5, 2.0, batch + (1,))
    if kind == "geometric":
        inc = amp * rng.uniform(0.3, 0.9, batch + (1,)) ** np.arange(m)
    elif kind == "inverse_k":
        inc = amp / ks ** 2 + 0.3 * amp / ks ** 3
    elif kind == "phased":
        inc = amp * np.cos(rng.uniform(0.1, 3.0, batch + (1,)) * ks) / ks
    else:   # exact repeats: zero increments at random (the 1/0 = inf path)
        zero = rng.uniform(0.0, 1.0, batch + (m,)) < 0.5
        inc = np.where(zero, 0.0, amp * rng.uniform(-1.0, 1.0, batch + (m,)) / ks)
    if kind == "tiny_repeats":
        # partials below 1e-24, where the threshold 1e-300 |S| underflows to
        # 0 and a zero difference is divided by
        return 1e-30 * np.cumsum(inc, axis=-1), ks
    return 1.0 + np.cumsum(inc, axis=-1), ks


@pytest.mark.parametrize("m", [2, 3, 5, 8, 27, 41])
@pytest.mark.parametrize("kind", ["geometric", "inverse_k", "phased", "repeats",
                                  "tiny_repeats"])
def test_extrapolation_tables_match_two_runs(kind, m):
    # one epsilon and one Neville table per window give the values and
    # errors of the two runs on the complex cast (m <= 5 has no shorter
    # window); real series come out real
    from llt_lab.seriesaccel import _extrapolate
    eq = np.array_equal
    S, ks = _test_series(kind, m, (7,))
    seq = np.ascontiguousarray(S.T)
    ref_v, ref_e = _two_run_extrapolate(S, ks)
    val, err = _extrapolate(seq, ks)
    assert not np.iscomplexobj(val) and eq(val, ref_v.real) and eq(err, ref_e)
    assert not np.any(ref_v.imag)
    # a batch-free sequence, and the one-window public routines
    v1, e1 = _extrapolate(S[0], ks)
    assert np.ndim(v1) == 0 and eq(v1, ref_v[0].real) and eq(e1, ref_e[0])
    for got, ref in ((wynn_epsilon(S), _two_run_wynn(S)),
                     (richardson_inv_k(S, ks), _two_run_richardson(S, ks))):
        assert not np.iscomplexobj(got[0])
        assert eq(got[0], ref[0].real) and eq(got[1], ref[1])
    # complex series stay complex and reproduce the complex run
    Z = S + 1j * _test_series(kind, m, (7,))[0][::-1]
    val, err = _extrapolate(np.ascontiguousarray(Z.T), ks)
    ref_v, ref_e = _two_run_extrapolate(Z, ks)
    assert eq(val, ref_v) and eq(err, ref_e)
    # a constant imaginary part run on the real part; the k = 0 cell's is
    # about 1e-19 of D, far below the 1e-8 relative at which it would move
    # the complex run's error floor 8 eps |val|
    c = 1e-19 * np.abs(S[:, -1]) * np.linspace(-1.0, 1.0, 7)
    ref_v, ref_e = _two_run_extrapolate(S + 1j * c[:, None], ks)
    val, err = _extrapolate(seq, ks)
    assert eq(val, ref_v.real) and eq(err, ref_e)
