"""Certified tails of one-sided series.

The two-dimensional cf lattice sum of a source that is not a product is
summed over sup-norm shells s = 1, 2, ..., a one-sided series whose terms
decay fast.  Its caller keeps the running total and the block magnitudes,
and stops once an envelope fitted to those magnitudes
(:func:`certified_tail`) bounds the omitted tail below ``tol``; nothing is
extrapolated, and a series whose tail is not certified within the term cap
is refused.
"""

from __future__ import annotations

import numpy as np

__all__ = ["certified_tail"]


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
