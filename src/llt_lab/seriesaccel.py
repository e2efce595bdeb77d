"""Block summation with certified tails and sequence extrapolation.

The lattice and smoothing engines reduce their infinite sums to one-sided
series over k = 1, 2, ...  Terms with fast (exponential) decay are summed
directly until an integral-test bound certifies the omitted tail.  Slowly
decaying series (algebraic envelopes, possibly with unit-modulus phases) are
handled by extrapolating the sequence of partial sums: Wynn's epsilon
algorithm removes geometric-times-algebraic remainders, a Neville/Richardson
table in 1/k removes purely algebraic ones.  Both run vectorized over the
batch axes behind the sequence axis 0, so a whole evaluation grid is
extrapolated at once, and one table per method serves a window and its
stability prefix.

One accumulator, :class:`BlockSeries`, keeps the books for every such sum
(running total, block magnitudes, certification, checkpoints); its callers
supply the increments and pick the extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameterError

__all__ = ["SeriesResult", "BlockSeries", "sum_series_blocks", "wynn_epsilon",
           "richardson_inv_k"]

_WINDOW = 41   # trailing partial sums handed to an extrapolator
_RICHARDSON_LEVELS = 12   # deepest Neville level of richardson_inv_k


@dataclass(frozen=True)
class SeriesResult:
    value: np.ndarray | complex
    tail_estimate: float
    extrapolated: bool


def certified_tail(mags, block_width: int):
    """Tail bound from fitted decay of absolute block sums, or None.

    ``mags`` is the history of (k_end, sum of |terms| in block).  Two routes
    certify: a geometric fit when successive ratios stay below one (covers
    exponential and faster decay), and a power fit by least squares over the
    last five blocks, demanding a clean fit (log-residual <= 0.15) and a
    safely summable exponent (alpha >= 1.15).  Three-point fits are too noisy:
    envelopes like |sin(eps k)|/k can masquerade as summable over short
    baselines, which this rule rejects.
    """
    if len(mags) < 3:
        return None
    if mags[-1][1] == 0.0 and mags[-2][1] == 0.0:
        return 0.0
    tail = (mags[-1][1] / block_width) * mags[-1][0]
    recent = [m for _, m in mags[-4:]]
    if all(m > 0 for m in recent):
        # genuine geometric decay keeps the block ratio constant (or falling);
        # algebraic decay masquerading at small k shows climbing ratios and
        # must fall through to the power fit, whose bound integrates the tail
        ratios = [b / a for a, b in zip(recent, recent[1:])]
        if max(ratios) <= 0.7 and all(r2 <= r1 * 1.02 for r1, r2 in
                                      zip(ratios, ratios[1:])):
            r = min(max(ratios), 0.95)
            return mags[-1][1] * r / (1.0 - r)
    if len(mags) < 5:
        return None
    ks = np.array([k for k, _ in mags[-5:]], dtype=float)
    ms = np.array([m for _, m in mags[-5:]], dtype=float)
    if np.any(ms <= 0.0) or np.any(np.diff(ms) > 0.0):
        return None
    A = np.vstack([np.ones(5), np.log(ks)]).T
    coef, *_ = np.linalg.lstsq(A, np.log(ms), rcond=None)
    resid = float(np.max(np.abs(A @ coef - np.log(ms))))
    alpha = -float(coef[1])
    if resid > 0.15 or alpha < 1.15:
        return None
    return 1.5 * tail / (alpha - 1.0)


def _as_series(partials) -> np.ndarray:
    """Partial sums as float64 or complex128, whichever holds them."""
    S = np.asarray(partials)
    return S.astype(np.result_type(S.dtype, np.float64), copy=False)


def _window_starts(S: np.ndarray, lengths):
    """Each window's fallback (last partial, last increment) before any
    table level improves on it."""
    vals = [S[L - 1].copy() for L in lengths]
    errs = [np.abs(S[L - 1] - S[L - 2]) if L >= 2 else np.full(S.shape[1:], np.inf)
            for L in lengths]
    return vals, errs


def _epsilon_windows(S: np.ndarray, lengths):
    """Wynn's epsilon algorithm on the partial sums S (sequence on axis 0),
    read off for each window S[:L], L in ``lengths``, from one table.

    An entry eps_c^(j) depends only on S_j .. S_{j+c}, so every window's
    table is part of the whole sequence's; each window's candidates are its
    last even-column entries, and each window's (value, err) is what the
    epsilon algorithm run on that window alone returns.  The one exception is
    the tiny-difference threshold, 1e-300 |S_last| of the whole sequence for
    every window, which matters only for differences within 1e-300 of the
    partials.  Real partials run in real arithmetic, which gives the real
    parts of the same run on their complex cast bit for bit.
    """
    m = S.shape[0]
    thr = 1e-300 * np.maximum(np.abs(S[-1]), 1e-300)
    # a complex 1/0 is inf + nan i, which acts as nan from then on; a real
    # 1/0 (possible once thr underflows to 0) is made nan to match
    zero_nan = not np.iscomplexobj(S) and bool(np.any(thr == 0.0))
    vals, errs = _window_starts(S, lengths)
    lasts = [S[L - 1] for L in lengths]     # each window's last finite estimate
    prev, curr = np.zeros_like(S), S
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for c in range(1, m - 1):
            diff = curr[1:] - curr[:-1]
            tiny = np.abs(diff) < thr
            inv = 1.0 / diff
            if zero_nan:
                np.copyto(inv, np.nan, where=(diff == 0.0) & ~tiny)
            np.copyto(inv, np.inf, where=tiny)
            prev, curr = curr, prev[1:m - c + 1] + inv
            if c % 2:
                continue
            # curr is the even column c: estimates of the limit
            for i, L in enumerate(lengths):
                if c > L - 2:
                    continue
                cand = curr[L - 1 - c]
                cand_err = np.abs(cand - lasts[i]) + np.abs(cand - curr[L - 2 - c])
                ok = np.isfinite(cand) & (cand_err < errs[i])
                vals[i] = np.where(ok, cand, vals[i])
                errs[i] = np.where(ok, cand_err, errs[i])
                lasts[i] = np.where(np.isfinite(cand), cand, lasts[i])
    return list(zip(vals, errs))


def _neville_windows(S: np.ndarray, x: np.ndarray, lengths):
    """Neville extrapolation to x = 0 of the partial sums S at the nodes x
    (sequence on axis 0), read off for each window S[:L], L in ``lengths``,
    from one table.

    The table entry P_{j-l..j} depends only on S_{j-l} .. S_j, so each
    window's levels are part of the whole sequence's table.  Each step
    multiplies by the reciprocal 1/(x_j - x_{j-l}), which is what numpy's
    complex division by a real divisor computes: a real run gives the real
    parts of the run on the complex cast bit for bit.
    """
    m = S.shape[0]
    col = (-1,) + (1,) * (S.ndim - 1)
    T = S.copy()
    vals, errs = _window_starts(S, lengths)
    for level in range(1, min(_RICHARDSON_LEVELS, m - 1) + 1):
        xj, xl = x[level:].reshape(col), x[:m - level].reshape(col)
        # T[j] becomes P_{j-level..j}; entries below the level are stale
        T[level:] = (xj * T[level - 1:-1] - xl * T[level:]) * (1.0 / (xj - xl))
        for i, L in enumerate(lengths):
            if level > min(_RICHARDSON_LEVELS, L - 1):
                continue
            cand = T[L - 1]
            cand_err = np.abs(cand - (T[L - 2] if L - 1 > level else vals[i]))
            ok = np.isfinite(cand) & (cand_err < errs[i])
            vals[i] = np.where(ok, cand, vals[i])
            errs[i] = np.where(ok, cand_err, errs[i])
    return list(zip(vals, errs))


def wynn_epsilon(partials: np.ndarray):
    """Shanks-type extrapolation of partial sums via the epsilon algorithm.

    partials has the sequence along the last axis.  Returns (value, err)
    where err is a per-element accuracy estimate taken from the convergence
    of the even epsilon columns; real partials give a real value.
    """
    S = np.moveaxis(_as_series(partials), -1, 0)
    return _epsilon_windows(S, (S.shape[0],))[0]


def richardson_inv_k(partials: np.ndarray, ks: np.ndarray):
    """Neville extrapolation of S(k) to k = infinity, polynomial in 1/k.

    Suits monotone algebraic tails (remainder c1/k + c2/k^2 + ...).  Returns
    (value, err) with err from the last stable table level.
    """
    S = np.moveaxis(_as_series(partials), -1, 0)
    x = 1.0 / np.asarray(ks, dtype=float)
    return _neville_windows(S, x, (S.shape[0],))[0]


def _extrapolate(partials: np.ndarray, ks: np.ndarray):
    """Run both extrapolations and keep the per-element trustworthy one.

    ``partials`` has the sequence on axis 0 and keeps its dtype.  Self-
    reported errors alone cannot arbitrate: epsilon locks onto false
    plateaus on monotone-plus-jitter series, Richardson onto slow phase
    rotations, both while claiming high accuracy.  A converged extrapolation,
    however, is stable under shrinking the checkpoint window, so each
    method's effective error is its self-estimate widened by the shift
    observed on the first two thirds of the window, read off the same
    tables.
    """
    m = partials.shape[0]
    cut = max(5, (2 * m) // 3)
    lengths = (m, cut) if cut < m else (m,)
    (v_e, e_e), *short_e = _epsilon_windows(partials, lengths)
    (v_r, e_r), *short_r = _neville_windows(partials, 1.0 / ks, lengths)
    if short_e:
        e_e = np.maximum(e_e, np.abs(v_e - short_e[0][0]))
        e_r = np.maximum(e_r, np.abs(v_r - short_r[0][0]))
    use_e = e_e <= e_r
    val = np.where(use_e, v_e, v_r)
    err = np.where(use_e, e_e, e_r)
    err = np.maximum(err, 8.0 * np.finfo(float).eps * np.abs(val))
    return val, err


def resonance_floor(cinc: np.ndarray, k_last: float) -> np.ndarray:
    """Honesty floor for extrapolated tails of slowly rotating phased series.

    ``cinc`` holds the complex per-k increments of the final block, batch
    axis first.  A tail whose phase rotation theta satisfies
    theta * k_last >> 1 is resolved inside the budget and extrapolation can
    see it; a slower mode leaves an O(a log(1/(theta k))) remainder of an
    a/k-type tail that no window statistic can detect, so the declared error
    must not fall below that scale.  The increments generally superpose two
    rotation modes (phase +- an internal cf frequency), so the slowest mode
    is taken from a two-mode Prony fit of the linear recurrence
    c_{j+2} = alpha c_{j+1} + beta c_j rather than from the lag-1 rotation,
    which averages the modes and can hide a resonant one.
    """
    c = np.asarray(cinc, dtype=complex)
    if c.shape[-1] < 8:
        return np.zeros(c.shape[:-1])
    c0, c1, c2 = c[..., :-2], c[..., 1:-1], c[..., 2:]
    # least-squares normal equations for the two-term recurrence, per batch:
    # b1 = alpha a11 + beta conj(a12),  b2 = alpha a12 + beta a22
    a11 = (np.abs(c1) ** 2).sum(axis=-1)
    a22 = (np.abs(c0) ** 2).sum(axis=-1)
    a12 = (c1 * np.conj(c0)).sum(axis=-1)
    b1 = (c2 * np.conj(c1)).sum(axis=-1)
    b2 = (c2 * np.conj(c0)).sum(axis=-1)
    det = a11 * a22 - np.abs(a12) ** 2
    scale = np.maximum(a11 * a22, 1e-300)
    degenerate = np.abs(det) <= 1e-10 * scale
    det_safe = np.where(degenerate, 1.0, det)
    alpha = (b1 * a22 - b2 * np.conj(a12)) / det_safe
    beta = (b2 * a11 - b1 * a12) / det_safe
    disc = np.sqrt(alpha * alpha + 4.0 * beta)
    z1 = 0.5 * (alpha + disc)
    z2 = 0.5 * (alpha - disc)

    def mode_angle(z):
        ok = (np.abs(z) > 0.5) & (np.abs(z) < 1.5)
        return np.where(ok, np.abs(np.angle(z)), np.pi)

    theta = np.minimum(mode_angle(z1), mode_angle(z2))
    # fall back to the mean rotation when the 2x2 system is singular
    # (single-mode or negligible series)
    num = (c1 * np.conj(c0)).sum(axis=-1)
    rho = num / np.where(a22 <= 1e-300, 1.0, a22)
    theta = np.where(degenerate, np.abs(np.angle(rho)), theta)
    # amplitude from the trailing quarter: a block whose magnitudes die out
    # inside the window has no unresolved tail regardless of its phase
    qtr = max(2, c.shape[-1] // 4)
    amp = np.abs(c[..., -qtr:]).mean(axis=-1)   # ~ a / k_last for an a/k tail
    u = theta * float(k_last)
    growth = 0.5 + np.log1p(6.0 / np.clip(u, 1e-3, 6.0))
    # below u ~ 6 the tail is undetectable in principle; above it epsilon
    # converges but only gradually as the mode leaves the resonance, with
    # practical accuracy improving like (6/u)^4 (measured against exact
    # mixtures near density jumps)
    damp = np.minimum(1.0, (6.0 / np.maximum(u, 1e-3)) ** 4)
    floor = amp * float(k_last) * growth * damp
    return np.where(amp * float(k_last) > 1e-300, floor, 0.0)


def extrapolate_dual_stride(unit_partials, unit_ks, block_partials, block_ks):
    """Extrapolate over both checkpoint families and keep the per-element
    better one.

    Unit-stride windows preserve phase signatures (aliasing at block stride
    can rotate a slow oscillation onto a false plateau); block-stride windows
    span a wide k-range, which conditions the 1/k polynomial extrapolation
    and averages out integer-frequency jitter.  The stability-gated error
    estimates from :func:`_extrapolate` make the choice safe.  The partials
    have the sequence on axis 0 and keep their dtype: real series run in
    real arithmetic.
    """
    v1, e1 = _extrapolate(_as_series(unit_partials), np.asarray(unit_ks, dtype=float))
    v2, e2 = _extrapolate(_as_series(block_partials), np.asarray(block_ks, dtype=float))
    use1 = e1 <= e2
    return np.where(use1, v1, v2), np.where(use1, e1, e2)


class BlockSeries:
    """Running sum of a one-sided series, fed one block of terms at a time.

    ``start`` is the sum of whatever precedes the first block (a scalar or a
    batch array).  :meth:`add` takes the block's indices k, its increments
    with k along the last axis, and the block magnitude that
    :func:`certified_tail` fits; it returns True once a certified tail
    (``.tail``) is at most ``tol``, and ``.total`` then holds the sum.
    Until then the accumulator keeps the block checkpoints and the last
    block's unit-stride partial sums, so :meth:`extrapolate` may be called
    after any block added by :meth:`add` and summation resumed afterwards.
    A block that no extrapolation will read may be added by its total alone
    (:meth:`add_total`).
    """

    def __init__(self, start, block: int, tol: float):
        if not tol > 0:
            raise InvalidParameterError("tol must be positive")
        self.total = start
        self.block = block
        self.tol = tol
        self.tail = None
        self.mags = []          # (k_last, block magnitude)
        self.checkpoints = []   # total after each block
        self.ks = []            # k_last of each block
        self._run = None        # unit-stride partials of the last block
        self._run_ks = None

    def add(self, k: np.ndarray, inc: np.ndarray, mag: float) -> bool:
        # the partials are kept with k on axis 0, row-major: the layout the
        # extrapolation tables read
        seq = np.moveaxis(np.asarray(inc), -1, 0)
        run = np.cumsum(seq, axis=0, out=np.empty_like(seq, order="C"))
        run = np.asarray(self.total) + run
        self._run, self._run_ks = run, k
        return self._close(int(k[-1]), run[-1].copy(), mag)

    def add_total(self, k_last: int, block_sum, mag: float) -> bool:
        """Add a block by the sum of its increments, ending at index k_last.

        Updates the total, checkpoints and certification as :meth:`add`
        does; a block_sum summed sequentially over k gives the same total
        bit for bit.  No unit-stride partials are kept, so
        :meth:`extrapolate` refuses until a block is next added by
        :meth:`add`."""
        self._run = self._run_ks = None
        return self._close(int(k_last), np.asarray(self.total) + block_sum, mag)

    def _close(self, k_last: int, total, mag: float) -> bool:
        self.total = total
        self.mags.append((k_last, mag))
        self.checkpoints.append(total)
        self.ks.append(k_last)
        tail = certified_tail(self.mags, self.block)
        if tail is not None and tail <= self.tol:
            self.tail = tail
            return True
        return False

    def extrapolate(self):
        """Dual-stride extrapolation of the partial sums so far: unit stride
        over the last block, block stride over the checkpoints.  Returns
        (values, per-element errors) and leaves the state untouched."""
        if self._run is None:
            raise RuntimeError("extrapolate needs the last block's increments, "
                               "but that block was added by its total")
        w = min(_WINDOW, self._run.shape[0])
        wb = min(_WINDOW, len(self.checkpoints))
        return extrapolate_dual_stride(
            self._run[-w:], self._run_ks[-w:].astype(float),
            np.stack(self.checkpoints[-wb:]), self.ks[-wb:])


def _extrapolate_geometric(partials: list, ks: list):
    """Extrapolate block checkpoints over two families: the trailing uniform
    window keeps phase signatures clean for the epsilon algorithm, a
    geometric-in-k subsample of the whole history keeps the 1/k Neville table
    well conditioned for monotone tails."""
    w = min(_WINDOW, len(partials))
    val, err = _extrapolate(np.stack(partials[-w:]), np.asarray(ks[-w:], dtype=float))
    if len(partials) >= 12:
        karr = np.asarray(ks, dtype=float)
        targets = np.geomspace(karr[len(karr) // 4], karr[-1], min(33, len(karr)))
        idx = np.unique(np.searchsorted(karr, targets).clip(0, len(karr) - 1))
        if idx.size >= 6:
            Pg = np.stack([partials[i] for i in idx])
            vg, eg = _extrapolate(Pg, karr[idx])
            use_g = eg < err
            val = np.where(use_g, vg, val)
            err = np.where(use_g, eg, err)
    return val, err


def sum_series_blocks(
    term_block: Callable[[int, int], np.ndarray],
    tol: float,
    block: int = 64,
    max_blocks: int = 192,
) -> SeriesResult:
    """Sum a one-sided series sum_{k >= 1} t_k with certified accuracy.

    ``term_block(k0, k1)`` returns the terms for k in [k0, k1) as an array
    whose last axis has length k1 - k0 (leading axes are a shared evaluation
    batch).  Strategy: accumulate blocks; stop as soon as an algebraic/
    exponential envelope fitted to the block magnitudes certifies a tail
    below ``tol``; otherwise extrapolate the checkpointed partial sums.
    The reported ``tail_estimate`` is honest in both cases.
    """
    acc = BlockSeries(0.0, block, tol)
    for k0 in range(1, 1 + block * max_blocks, block):
        T = np.asarray(term_block(k0, k0 + block))
        if acc.add(np.arange(k0, k0 + block), T,
                   float(np.max(np.abs(T).sum(axis=-1)))):
            return SeriesResult(acc.total, acc.tail, False)
    val, err = _extrapolate_geometric(acc.checkpoints, acc.ks)
    if np.ndim(val) == 0:
        val = complex(val)
    return SeriesResult(val, float(np.max(err)) * 4.0, True)
