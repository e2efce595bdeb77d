"""Lattice sums and lattice-based conditions.

Provides density-side sums sum_m g(Lm + a) (one routine, ``lattice_series``,
serves the density lattice sum, the wrapped autocorrelation and the density
route to the oscillation factor), characteristic-function sums
sum_k e^{i k phi} f(sk) with certified or extrapolated tails, the periodized
cf F(s, a) = sum_k e^{-i pi k a} f(pi k + s) summed on the short side of its
Poisson pair (``periodized_cf``; the Bernoulli cell engine integrates it),
the pi-lattice vanishing check, the two-sided Poisson identity, the wrapped
autocorrelation, distance to a scaled integer lattice, and the
regularity-integral diagnostics in one and two dimensions.

Slow cf tails (~ gamma/k^2) get an exact closed-form correction built on the
classical Fourier series sum_{k>=1} cos(k t)/k^2 = pi^2/6 - pi t/2 + t^2/4,
which stays accurate arbitrarily close to phase resonance where sequence
extrapolation cannot see the |t|-kink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .distributions import SourceDistribution
from .errors import InvalidParameterError, UnsupportedError
from .seriesaccel import BlockSeries, resonance_floor, sum_series_blocks

__all__ = [
    "LatticeSum",
    "LatticeZeroReport",
    "PoissonReport",
    "RegularityReport",
    "lattice_series",
    "sum_density_lattice",
    "sum_cf_lattice",
    "phased_cf_lattice_sum",
    "periodized_cf",
    "check_pi_lattice_zeros",
    "poisson_check",
    "wrapped_autocorrelation",
    "distance_to_lattice",
    "regularity_integral",
]

K_CAP_2D = 4_000_000
_PHASED_BLOCK = 512
_K_BUDGET = 16384     # k budget of the phased cf sum: 32 blocks
_SHORT_TAIL = 2.0 ** -64  # truncation bound of a decaying density's short side
_SHORT_TERMS = 2048   # most lattice terms a density short side may take
_JUMP_TOL = 1e-9      # a lattice point this close to a density jump sits on it


@dataclass(frozen=True)
class LatticeSum:
    value: complex | float
    tail_estimate: float
    tol_met: bool       # tail_estimate <= the tol asked for


@dataclass(frozen=True)
class LatticeZeroReport:
    max_abs: float
    argmax_k: tuple


@dataclass(frozen=True)
class PoissonReport:
    lhs: float
    rhs: float
    gap: float
    lhs_tail: float = 0.0
    rhs_tail: float = 0.0


@dataclass(frozen=True)
class RegularityReport:
    estimate: float
    diverging: bool
    shell_contributions: tuple


def _separable(x: LatticeSum, y: LatticeSum, tol: float) -> LatticeSum:
    """The product of two one-dimensional sums, with the tail
    |XY - xy| = |(X - x) Y + x (Y - y)| <= ex |y| + ey (|x| + ex) for true
    sums X, Y within the tails ex, ey of x, y."""
    ex, ey = x.tail_estimate, y.tail_estimate
    tail = ex * abs(y.value) + ey * (abs(x.value) + ex)
    return LatticeSum(x.value * y.value, tail, bool(tail <= tol))


def _require_summable(tail: float, tol: float, what: str) -> None:
    """Refuse a lattice sum whose tail misses tol (and the 1e-7 floor)."""
    if tail > max(tol, 1e-7):
        raise UnsupportedError(f"{what} not summable to {tol:g} "
                               f"(certified only {tail:g})")


# ---------------------------------------------------------------------------
# phased cf sums, vectorized over a batch of phases
# ---------------------------------------------------------------------------

def _cos_k2_closed(theta: np.ndarray) -> np.ndarray:
    """sum_{k>=1} cos(k t)/k^2 = pi^2/6 - pi t/2 + t^2/4 on t in [0, 2 pi]."""
    t = np.mod(theta, 2.0 * math.pi)
    return math.pi ** 2 / 6.0 - math.pi * t / 2.0 + t * t / 4.0


def phased_cf_lattice_sum(dist: SourceDistribution, step: float,
                          phases: np.ndarray, tol: float):
    """sum_{k in Z} e^{i k phi} f(step k) for a batch of phases phi.

    Returns (values, tail_estimate, info).  The sum is split into the k = 0
    term plus one-sided series; tails are certified directly when |f| decays
    fast, corrected in closed form when k^2 f(step k) approaches a constant
    (cf with an integrable second-derivative profile), and otherwise handled
    by sequence extrapolation with an honest error estimate.
    """
    if dist.dim != 1:
        raise InvalidParameterError("phased_cf_lattice_sum is one-dimensional")
    if step <= 0:
        raise InvalidParameterError("step must be positive")
    phi = np.atleast_1d(np.asarray(phases, dtype=float))
    f = dist.cf
    f0 = float(np.real(f(0.0)))
    symmetric = dist.flags.symmetric_about_0
    ftype = float if symmetric else complex   # a symmetric law has a real cf

    if dist.cf_support_radius is not None:
        kmax = int(math.floor(dist.cf_support_radius / step + 1e-12))
        if kmax == 0:
            return np.full(phi.shape, f0, dtype=complex), 0.0, {"K": 0, "terms": 1}
        k = np.arange(1, kmax + 1)
        fp = np.asarray(f(step * k), dtype=ftype)
        fm = fp if symmetric else np.asarray(f(-step * k), dtype=ftype)
        ang = np.outer(phi, k)
        vals = f0 + (np.exp(1j * ang) * fp + np.exp(-1j * ang) * fm).sum(axis=1)
        return vals, 0.0, {"K": kmax, "terms": 2 * kmax + 1}

    block = _PHASED_BLOCK
    n_blocks = _K_BUDGET // block
    # a symmetric law's series is real (2 Re of the phased terms), so its
    # accumulator and extrapolation run in real arithmetic
    acc = BlockSeries(np.zeros(phi.shape, dtype=ftype), block, tol)
    # one phase table per call: block j's phases are e^{i phi k0} table with
    # k0 = j block + 1, so each block total is one matrix product
    table = np.exp(1j * np.outer(phi, np.arange(block)))
    cos_k2_partial = np.zeros(phi.shape)
    gamma_samples = []
    for j in range(n_blocks):
        k = np.arange(j * block + 1, (j + 1) * block + 1)
        fp = np.asarray(f(step * k), dtype=ftype)
        rot = np.exp(1j * phi * k[0])
        if symmetric:
            S = (table @ np.stack([fp, 1.0 / (k * k)], axis=1)) * rot[:, None]
            block_sum = 2.0 * S[:, 0].real
            cos_k2_partial += S[:, 1].real
            mag = 2.0 * float(np.abs(fp).sum())
            gamma_samples.append(float(np.mean(k * k * fp)))
        else:
            fm = np.asarray(f(-step * k), dtype=ftype)
            # conj(table) @ fm e^{-i phi k0} is the conjugate of the second column
            S = (table @ np.stack([fp, np.conj(fm)], axis=1)) * rot[:, None]
            block_sum = S[:, 0] + np.conj(S[:, 1])
            mag = float(np.abs(fp).sum() + np.abs(fm).sum())
        if j < n_blocks - 1:
            done = acc.add_total(k[-1], block_sum, mag)
        else:
            # the final block, the one the extrapolation and the resonance
            # floor read, goes in term by term: the table, rotated in place,
            # becomes its phases
            table *= rot[:, None]
            if symmetric:
                table *= fp                 # e^{i phi k} f(step k)
                inc, cinc = 2.0 * table.real, table
            else:
                inc = cinc = table * fp + np.conj(table) * fm
            done = acc.add(k, inc, mag)
        if done:
            k_last = acc.ks[-1]
            return (np.asarray(f0 + acc.total, dtype=complex), acc.tail,
                    {"K": k_last, "terms": 2 * k_last + 1})
    # budget spent: k, fp and cinc now hold the final block
    k_last = acc.ks[-1]
    # closed-form k^-2 kink correction: exact whenever k^2 f(step k) settles
    # to a constant, which covers inverse-quadratic cf tails at any phase,
    # resonant ones included
    err_kink = math.inf
    v_kink = None
    if symmetric and len(gamma_samples) >= 2:
        g1, g2 = gamma_samples[-2], gamma_samples[-1]
        if math.isfinite(g1) and math.isfinite(g2) and abs(g2) > 0 and \
                abs(g1 - g2) <= 2e-3 * abs(g2):
            gamma = g2
            resid = np.abs(k * k * fp - gamma) * k * k
            c4 = float(np.max(resid))
            tail_resid = 4.0 * c4 / (3.0 * k_last ** 3)
            kink = 2.0 * gamma * (_cos_k2_closed(phi) - cos_k2_partial)
            v_kink = f0 + acc.total + kink
            err_kink = tail_resid + 64.0 * np.finfo(float).eps * abs(gamma)
    v_ext, e_ext = acc.extrapolate()
    # extrapolation cannot see tails whose phase rotation is slower than the
    # k budget (cf oscillation near-commensurate with the lattice step)
    e_ext = np.maximum(e_ext, resonance_floor(cinc, float(k_last)))
    v_ext = f0 + v_ext
    if v_kink is not None:
        # routes that disagree beyond their claims: the extrapolation is the
        # one to distrust, as a phase whose period divides the block stride
        # (theta = pi/4) makes epsilon claim 0 error for a value off by the
        # whole k^-2 remainder
        use_kink = (err_kink < e_ext) | (np.abs(v_kink - v_ext) > err_kink + e_ext)
        vals = np.where(use_kink, v_kink, v_ext)
        errs = np.where(use_kink, err_kink, e_ext)
    else:
        vals, errs = v_ext, e_ext
    tail = float(np.max(errs)) * 2.0
    return (np.asarray(vals, dtype=complex), tail,
            {"K": k_last, "terms": 2 * k_last + 1, "extrapolated": True})


@dataclass(frozen=True)
class _ShortSide:
    """The short side of F(s, a) = sum_k e^{-i pi k a} f(pi k + s)
    = 2 sum_m p(a + 2m) e^{is(a + 2m)} for offsets a in [-1, 1].

    On the density side ``m`` are the lattice indices and ``p[i, j]`` is
    p(a_i + 2 m_j), with the midpoint value where a_i + 2 m_j sits on a
    density jump; on the cf side ``k`` are the indices with f(pi k + s) != 0
    for some |s| <= s_max.  ``tail`` bounds |F - F_short| at every (s, a)."""

    tail: float
    m: np.ndarray | None = None
    p: np.ndarray | None = None
    k: np.ndarray | None = None


def _short_side(dist: SourceDistribution, a: np.ndarray, s_max: float) -> _ShortSide:
    """The side of the Poisson pair that ``dist`` declares short: a compact
    density (its 1 or 2 lattice points per offset, tail 0), a compact cf
    (the k with |pi k + s| <= T, tail 0), or a density with a declared
    lattice tail, summed over |y| <= R for the least even R whose tail is
    at most 2^-64.  Raises UnsupportedError for any other source."""
    if dist.dim != 1:
        raise InvalidParameterError("the periodized cf is one-dimensional")
    h = dist.density_support_radius
    if dist.density is not None and (h is not None or dist.density_lattice_tail is not None):
        if h is not None:
            R, tail = h + _JUMP_TOL, 0.0
        else:
            R = 2.0
            while dist.density_lattice_tail(R, 2.0) > _SHORT_TAIL and R <= 2 * _SHORT_TERMS:
                R += 2.0
            tail = 2.0 * dist.density_lattice_tail(R, 2.0)
        m = np.arange(-math.ceil((R + 1.0) / 2.0), math.ceil((R + 1.0) / 2.0) + 1)
        if m.size > _SHORT_TERMS:
            raise UnsupportedError(f"{dist.label}: the density side of the periodized "
                                   f"cf needs more than {_SHORT_TERMS} terms")
        y = a[:, None] + 2.0 * m
        p = np.asarray(dist.density(y), dtype=float)
        if h is not None and not dist.flags.density_continuous:
            # the Fourier inverse converges to the mean of the one-sided
            # limits; outside the closed support the density is 0
            edge = np.abs(np.abs(y) - h) <= _JUMP_TOL
            p[edge] = 0.5 * np.asarray(dist.density(np.clip(y[edge], -h, h)), dtype=float)
        keep = np.any(p != 0.0, axis=0)
        return _ShortSide(tail, m=m[keep], p=p[:, keep])
    T = dist.cf_support_radius
    if T is not None:
        kmax = math.floor((T + s_max) / math.pi)
        return _ShortSide(0.0, k=np.arange(-kmax, kmax + 1))
    raise UnsupportedError(f"{dist.label}: no short side declared for the periodized cf "
                           "(a compact density or cf, or a density lattice tail)")


def _reduced_periodized_cf(dist: SourceDistribution, side: _ShortSide,
                           s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """e^{-isa} F(s, a) from its short side, (offsets a) x (points s): on the
    density side 2 sum_m p(a + 2m) e^{2ism}, one product of the (a x m)
    density table with the (m x s) phases; on the cf side
    sum_k e^{-ia(pi k + s)} f(pi k + s)."""
    if side.k is None:
        return 2.0 * (side.p @ np.exp(2j * np.outer(side.m, s)))
    out = np.zeros((a.size, s.size), dtype=complex)
    for k in side.k:
        t = math.pi * k + s
        out += np.exp(-1j * np.outer(a, t)) * dist.cf(t)
    return out


def periodized_cf(dist: SourceDistribution, s, a):
    """F(s, a) = sum_k e^{-i pi k a} f(pi k + s) on the short side of the
    Poisson pair, for offsets a (axis 0) and points s (axis 1).

    Returns (values, tail) with |F - values| <= tail.  At a density jump the
    density side takes the midpoint value, which is what the cf side
    converges to."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    a = a - 2.0 * np.round(a / 2.0)
    side = _short_side(dist, a, float(np.max(np.abs(s))))
    G = _reduced_periodized_cf(dist, side, s, a)
    return np.exp(1j * np.outer(a, s)) * G, side.tail


def sum_cf_lattice(dist: SourceDistribution, step: float,
                   phase=None, tol: float = 1e-10) -> LatticeSum:
    """sum_{k in Z^d} e^{i <phase, k>} f(step k), truncated/accelerated so the
    omitted tail stays below tol."""
    if step <= 0:
        raise InvalidParameterError("step must be positive")
    if dist.dim == 1:
        phi = 0.0 if phase is None else float(np.ravel(phase)[0])
        vals, tail, _ = phased_cf_lattice_sum(dist, step, np.array([phi]), tol)
        _require_summable(tail, tol, f"{dist.label}: cf lattice tail")
        value = complex(vals[0])
        if abs(value.imag) < 1e-12 * max(1.0, abs(value.real)):
            value = value.real
        return LatticeSum(value, tail, bool(tail <= tol))
    if dist.dim == 2 and dist.components is not None:
        ph = (0.0, 0.0) if phase is None else tuple(np.ravel(phase))
        return _separable(*(sum_cf_lattice(c, step, p, tol / 2.0)
                            for c, p in zip(dist.components, ph)), tol)
    return _cf_lattice_2d_generic(dist, step, phase, tol)


def _cf_lattice_2d_generic(dist, step, phase, tol):
    # one block per sup-norm shell s, so the certified tail is the integral
    # test on the shell sums
    ph = np.zeros(2) if phase is None else np.asarray(phase, dtype=float)
    acc = BlockSeries(complex(np.real(dist.cf(np.zeros(2)))), 1, tol)
    s = 1
    while s * 8 * (2 * s + 1) < K_CAP_2D:
        rng = np.arange(-s, s + 1)
        edge = []
        for kx in (-s, s):
            edge.append(np.stack([np.full(rng.size, kx), rng], axis=-1))
        inner = np.arange(-s + 1, s)
        if inner.size:
            for ky in (-s, s):
                edge.append(np.stack([inner, np.full(inner.size, ky)], axis=-1))
        kpts = np.concatenate(edge, axis=0)
        fv = np.asarray(dist.cf(step * kpts), dtype=complex)
        contrib = complex((np.exp(1j * (kpts @ ph)) * fv).sum())
        if acc.add(np.array([s]), np.array([contrib]), float(np.abs(fv).sum())):
            return LatticeSum(complex(acc.total), acc.tail, True)
        s += 1
    raise UnsupportedError(f"{dist.label}: 2-d cf lattice sum did not converge "
                           f"within the term cap")


# ---------------------------------------------------------------------------
# density lattice sums
# ---------------------------------------------------------------------------

def lattice_series(g, step: float, offsets, radius, tol: float, label: str):
    """sum_{m in Z} g(step m + a) for each offset a; returns (values, tail).

    Each offset is first moved to the lattice point nearest it (the sum is
    lattice-invariant, and the block engine assumes decay from the first
    blocks outward).  When g vanishes outside [-radius, radius], every
    lattice point within it is summed and nothing is truncated; otherwise
    the two-sided series is summed in blocks and refused when its truncation
    tail misses max(tol, 1e-7); a tail between the two is returned, and the
    callers' results flag it with ``tol_met``.  The returned tail adds the
    rounding of the sum (``_sum_rounding``) to the truncation.
    """
    a = np.atleast_1d(np.asarray(offsets, dtype=float))
    a = a - step * np.round(a / step)
    if radius is not None:
        m_lo = int(math.ceil((-radius - float(a.max())) / step - 1e-12))
        m_hi = int(math.floor((radius - float(a.min())) / step + 1e-12))
        m = np.arange(m_lo, m_hi + 1)[None, :]
        t = np.asarray(g(step * m + a[:, None]), dtype=float)
        return t.sum(axis=1), _sum_rounding(np.abs(t).sum(axis=1), t.shape[1])

    centre = np.asarray(g(a), dtype=float)
    mass = [np.abs(centre)]

    def term_block(k0, k1):
        m = np.arange(k0, k1)[None, :]
        up = np.asarray(g(step * m + a[:, None]), dtype=float)
        down = np.asarray(g(-step * m + a[:, None]), dtype=float)
        mass.append((np.abs(up) + np.abs(down)).sum(axis=1))
        return up + down

    block = 128
    res = sum_series_blocks(term_block, tol=tol, block=block, max_blocks=192)
    _require_summable(res.tail_estimate, tol, f"{label}: density lattice tail")
    rounding = _sum_rounding(np.sum(mass, axis=0), 1 + 2 * block * (len(mass) - 1))
    return centre + np.real(res.value), res.tail_estimate + rounding


def _sum_rounding(abs_sum, terms: int) -> float:
    """Declared rounding of a lattice sum of ``terms`` terms whose absolute
    values add up to ``abs_sum`` (the largest over the offsets counts):
    eps min(terms - 1, 8 + log2 terms) abs_sum.  A sum of N terms makes
    N - 1 additions, each off by at most eps/2 of the absolute sum, which
    leaves eps/2 per addition for the terms' own argument and value; a long
    sum of decaying terms is charged 8 + log2 N roundings instead.  A single
    term is returned as the source evaluates it."""
    eps = float(np.finfo(float).eps)
    ulps = min(max(terms - 1.0, 0.0), 8.0 + math.log2(max(terms, 1)))
    return eps * ulps * float(np.max(abs_sum))


def sum_density_lattice(dist: SourceDistribution, scale: float, offset,
                        tol: float = 1e-10) -> LatticeSum:
    """sum over the integer lattice of p(scale*m + offset) with tail <= tol."""
    L = float(scale)
    if L <= 0:
        raise InvalidParameterError("scale must be positive")
    if dist.density is None:
        raise UnsupportedError(f"{dist.label}: no density available")
    if dist.dim == 1:
        if np.size(offset) != 1:
            raise InvalidParameterError("a one-dimensional sum takes one offset")
        vals, tail = lattice_series(dist.density, L, offset,
                                    dist.density_support_radius, tol, dist.label)
        return LatticeSum(float(vals[0]), tail, bool(tail <= tol))
    if dist.dim == 2 and dist.components is not None:
        a = np.ravel(np.asarray(offset, dtype=float))
        return _separable(*(sum_density_lattice(c, L, ai, tol / 2.0)
                            for c, ai in zip(dist.components, a)), tol)
    raise UnsupportedError("density lattice sums support dim 1 and separable dim 2")


# ---------------------------------------------------------------------------
# lattice condition, Poisson identity, wrapped autocorrelation
# ---------------------------------------------------------------------------

def check_pi_lattice_zeros(dist: SourceDistribution, k_max: int) -> LatticeZeroReport:
    """max |f(pi k)| over nonzero integer vectors with sup-norm at most k_max."""
    if k_max < 1:
        raise InvalidParameterError("k_max must be >= 1")
    if dist.dim == 1:
        k = np.arange(1, k_max + 1)
        vp = np.abs(np.asarray(dist.cf(math.pi * k), dtype=complex))
        vm = np.abs(np.asarray(dist.cf(-math.pi * k), dtype=complex))
        both = np.concatenate([vp, vm])
        idx = int(np.argmax(both))
        kbest = int(k[idx % k_max]) * (1 if idx < k_max else -1)
        return LatticeZeroReport(float(both[idx]), (kbest,))
    if dist.dim == 2:
        rng = np.arange(-k_max, k_max + 1)
        KX, KY = np.meshgrid(rng, rng, indexing="ij")
        pts = np.stack([KX, KY], axis=-1).reshape(-1, 2)
        keep = ~np.all(pts == 0, axis=1)
        pts = pts[keep]
        vals = np.abs(np.asarray(dist.cf(math.pi * pts.astype(float)), dtype=complex))
        i = int(np.argmax(vals))
        return LatticeZeroReport(float(vals[i]), tuple(int(v) for v in pts[i]))
    raise UnsupportedError("lattice zero check supports dim 1 and 2")


def poisson_check(dist: SourceDistribution, tol: float = 1e-10) -> PoissonReport:
    """Compare sum_m p(m) with sum_k f(2 pi k); both tails held below tol.

    The hypotheses (integrable cf, hence bounded continuous density, and a
    finite first absolute moment) are enforced through the catalog flags;
    violating entries are rejected with the failed hypothesis named.
    """
    if dist.density is None:
        raise UnsupportedError(f"{dist.label}: no density")
    if dist.abs_moment1 is None:
        raise UnsupportedError(
            f"{dist.label}: first absolute moment unavailable (infinite)")
    if not dist.flags.cf_integrable or not dist.flags.density_continuous:
        raise UnsupportedError(
            f"{dist.label}: density discontinuous at lattice points "
            "(cf not absolutely integrable)")
    lhs = sum_density_lattice(dist, 1.0, np.zeros(dist.dim) if dist.dim > 1 else 0.0,
                              tol=tol)
    rhs = sum_cf_lattice(dist, 2.0 * math.pi, None, tol=tol)
    lv = float(np.real(lhs.value))
    rv = float(np.real(rhs.value))
    return PoissonReport(lv, rv, abs(lv - rv),
                         lhs.tail_estimate, rhs.tail_estimate)


def wrapped_autocorrelation(dist: SourceDistribution, tol: float = 1e-9) -> LatticeSum:
    """sum over the lattice 2 Z^d of the density's self-correlation
    integral p*p~ evaluated at even integer points; equals 2^-d exactly when
    the cf vanishes on the nonzero pi-lattice.  A one-dimensional cf of
    compact support is summed on the cf side of the Poisson pair,
    1/2 sum_m |f(pi m)|^2, a finite sum with tail 0."""
    if dist.dim == 1:
        return _wrapped_autocorr_1d(dist, tol)
    if dist.dim == 2 and dist.components is not None:
        return _separable(*(_wrapped_autocorr_1d(c, tol / 2.0) for c in dist.components), tol)
    raise UnsupportedError("wrapped autocorrelation supports dim 1 and separable dim 2")


def _selfconv_numeric(dist, y: float) -> float:
    # overlap integral p(y + x) p(x) dx by adaptive quadrature
    from scipy.integrate import quad
    val, _ = quad(lambda x: dist.density(y + x) * dist.density(x),
                  -np.inf, np.inf, limit=200)
    return val


def _wrapped_autocorr_1d(dist, tol):
    if dist.density is None:
        raise UnsupportedError(f"{dist.label}: no density")
    if dist.cf_support_radius is not None:
        # |f(pi m)| is 0 beyond the cf support (and at its edge)
        kmax = int(math.floor(dist.cf_support_radius / math.pi + 1e-12))
        f = np.abs(np.asarray(dist.cf(math.pi * np.arange(-kmax, kmax + 1)), dtype=complex))
        return LatticeSum(0.5 * float(np.sum(f * f)), 0.0, True)
    q = dist.self_convolution
    if q is None:
        if not dist.flags.bounded_variation_density:
            raise UnsupportedError(f"{dist.label}: self-convolution unavailable")
        q = lambda y: np.vectorize(lambda yy: _selfconv_numeric(dist, yy))(y)  # noqa: E731
    r = dist.density_support_radius
    vals, tail = lattice_series(q, 2.0, 0.0, None if r is None else 2.0 * r,
                                tol, dist.label)
    return LatticeSum(float(vals[0]), tail, bool(tail <= tol))


def distance_to_lattice(t, lattice_step: float) -> float:
    """Euclidean distance from t to the scaled integer lattice (step s)Z^d."""
    s = float(lattice_step)
    if s <= 0:
        raise InvalidParameterError("lattice_step must be positive")
    tv = np.atleast_1d(np.asarray(t, dtype=float))
    r = tv - s * np.round(tv / s)
    return float(np.linalg.norm(r))


# ---------------------------------------------------------------------------
# regularity-integral diagnostics
# ---------------------------------------------------------------------------

def _shell_slope(contribs) -> float:
    c = np.asarray(contribs, dtype=float)
    c = np.maximum(c, 1e-300)
    j = np.arange(1, c.size + 1, dtype=float)
    half = c.size // 2
    lj = np.log(j[half:])
    lc = np.log(c[half:])
    A = np.vstack([np.ones_like(lj), lj]).T
    coef, *_ = np.linalg.lstsq(A, lc, rcond=None)
    return float(coef[1])


def regularity_integral(dist: SourceDistribution, kind: str,
                        window_K: int = 8) -> RegularityReport:
    """Quadrature estimate of the integral of |f||f'| / dist(t, pi Z^d)^(d-1)
    (kind 'condition_2_3') or |f'| / dist(t, pi Z^d)^(d-1) ('condition_3_1')
    over the window of sup-norm radius pi*window_K, with a divergence
    diagnostic from the per-shell decay."""
    if kind not in ("condition_2_3", "condition_3_1"):
        raise InvalidParameterError("kind must be condition_2_3 or condition_3_1")
    if dist.cf_grad is None:
        raise UnsupportedError(f"{dist.label}: cf gradient unavailable")
    if window_K < 4:
        raise InvalidParameterError("window_K must be >= 4")
    if dist.dim == 1:
        return _regularity_1d(dist, kind, window_K)
    if dist.dim == 2:
        return _regularity_2d(dist, kind, window_K)
    raise UnsupportedError("regularity integral supports dim 1 and 2")


def _regularity_1d(dist, kind, window_K):
    from scipy.integrate import quad

    def integrand(t):
        g = abs(dist.cf_grad(t))
        if kind == "condition_2_3":
            return abs(dist.cf(t)) * g
        return g

    shells = []
    total, _ = quad(integrand, -math.pi / 2, math.pi / 2, limit=100)
    for j in range(1, window_K + 1):
        lo, hi = math.pi * (j - 0.5), math.pi * (j + 0.5)
        cj, _ = quad(integrand, lo, hi, limit=100)
        cj_m, _ = quad(integrand, -hi, -lo, limit=100)
        shells.append(cj + cj_m)
        total += cj + cj_m
    slope = _shell_slope(shells)
    diverging = slope >= -1.05
    if not diverging and shells[-1] > 0:
        total += shells[-1] * window_K / (-slope - 1.0)
    return RegularityReport(float(total), bool(diverging), tuple(shells))


def _regularity_2d(dist, kind, window_K):
    ntheta, nr = 96, 48
    theta = (np.arange(ntheta) + 0.5) * (2.0 * math.pi / ntheta)
    ct, st = np.cos(theta), np.sin(theta)
    rmax = (math.pi / 2.0) / np.maximum(np.abs(ct), np.abs(st))
    # Gauss-Legendre nodes in r per direction; the 1/r singularity cancels
    # against the polar Jacobian, leaving a bounded integrand in (r, theta)
    gl_x, gl_w = np.polynomial.legendre.leggauss(nr)
    rr = 0.5 * (gl_x[None, :] + 1.0) * rmax[:, None]
    ww = 0.5 * gl_w[None, :] * rmax[:, None] * (2.0 * math.pi / ntheta)
    offs = np.stack([rr * ct[:, None], rr * st[:, None]], axis=-1)

    def cell_integral(kx, ky):
        pts = offs + np.array([math.pi * kx, math.pi * ky])
        grad = np.asarray(dist.cf_grad(pts))
        g = np.sqrt(np.sum(np.abs(grad) ** 2, axis=-1))
        if kind == "condition_2_3":
            g = g * np.abs(np.asarray(dist.cf(pts), dtype=complex))
        return float((g * ww).sum())

    total = cell_integral(0, 0)
    shells = []
    for s in range(1, window_K + 1):
        cs = 0.0
        for kx in range(-s, s + 1):
            for ky in range(-s, s + 1):
                if max(abs(kx), abs(ky)) == s:
                    cs += cell_integral(kx, ky)
        shells.append(cs)
        total += cs
    slope = _shell_slope(shells)
    diverging = slope >= -1.05
    if not diverging and shells[-1] > 0:
        total += shells[-1] * window_K / (-slope - 1.0)
    return RegularityReport(float(total), bool(diverging), tuple(shells))
