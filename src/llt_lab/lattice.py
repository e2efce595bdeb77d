"""Lattice sums and lattice-based conditions.

A lattice sum is one side of the Poisson pair

    L sum_m p(a + Lm) e^{is(a + Lm)} = sum_k e^{-i (2 pi k/L) a} f(2 pi k/L + s),

and each side has one declared mechanism:

- the short side (``_short_side``): the lattice points of a compact density
  (the midpoint value at its jumps), the finitely many k of a compact cf,
  or the points |y| <= R of a density with a declared lattice tail.  It
  serves the periodized cf F(s, a) that the Bernoulli cell engine
  integrates (``periodized_cf``, L = 2).  sum_m p(a + Lm) (``_density_sum``,
  for ``sum_density_lattice`` and the density route to the oscillation
  factor) takes its density side where that has at most 2048 terms, the cf
  side otherwise.
- the cf side (``_cf_side``): sum_k e^{2 pi i k x} f(step k) as a finite
  head plus the terms that the law declares for its cf at infinity,
  c t^-p cos(omega t) or c t^-p sin(omega t), whose Fourier series are
  Bernoulli polynomials (DLMF 24.8.1-2); a compact cf is all head.  It
  serves ``sum_cf_lattice``, the cf route to the oscillation factor and, on
  the law of |f|^2 (``_squared_modulus``), the wrapped autocorrelation.

Also here: the pi-lattice vanishing check and verdict, the two-sided Poisson
identity, the wrapped autocorrelation, and the regularity-integral
diagnostics in one dimension and on a product's components in two.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
import numpy as np

from .distributions import DistFlags, SourceDistribution, _pointwise, _require_positive
from .errors import (_MAX_TABLE, _SHORT_TAIL, InvalidParameterError, UnsupportedError,
                     require_at_most, require_tol)
from .inversion import _gl_nodes

__all__ = [
    "LatticeSum",
    "LatticeZeroReport",
    "PoissonReport",
    "RegularityReport",
    "sum_density_lattice",
    "sum_cf_lattice",
    "periodized_cf",
    "check_pi_lattice_zeros",
    "poisson_check",
    "wrapped_autocorrelation",
    "regularity_integral",
]

_MAX_POINTS = 4_000_000   # most points of a lattice zero check per axis, or of a search grid
_SHORT_TERMS = 2048   # most lattice terms a side may take
_JUMP_TOL = 1e-9      # a lattice point this close to a density jump sits on it
_REGULARITY_CELLS = 81 ** 2   # most cells of a 2-d regularity window (K <= 40)
_EPS = float(np.finfo(float).eps)


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


def _product_tail(ex: float, x: float, ey: float, y: float) -> float:
    """|XY - xy| = |(X - x) Y + x (Y - y)| <= ex |y| + ey (|x| + ex) for true
    values X, Y within ex, ey of x, y: the one bound of every separable
    product."""
    return ex * abs(y) + ey * (abs(x) + ex)


def _separable(x: LatticeSum, y: LatticeSum, tol: float) -> LatticeSum:
    """The product of two one-dimensional sums, with ``_product_tail``."""
    tail = _product_tail(x.tail_estimate, x.value, y.tail_estimate, y.value)
    return LatticeSum(x.value * y.value, tail, bool(tail <= tol))


def _require_summable(tail: float, tol: float, what: str) -> None:
    """Refuse a lattice sum whose tail misses tol (and the 1e-7 floor)."""
    if not tail <= max(tol, 1e-7):      # a NaN tail bounds nothing either
        raise UnsupportedError(f"{what} not summable to {tol:g} "
                               f"(declared tail {tail:g})")


def _require_finite(name: str, value) -> np.ndarray:
    v = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(v)):
        raise InvalidParameterError(f"{name} must be finite")
    return v


def _sum_rounding(abs_sum, terms: int) -> float:
    """Declared rounding of a lattice sum of ``terms`` terms whose absolute
    values add up to ``abs_sum`` (the largest over the offsets counts):
    eps min(terms - 1, 8 + log2 terms) abs_sum.  A sum of N terms makes
    N - 1 additions, each off by at most eps/2 of the absolute sum, which
    leaves eps/2 per addition for the terms' own argument and value; a long
    sum of decaying terms is charged 8 + log2 N roundings instead.  A single
    term is returned as the source evaluates it."""
    ulps = min(max(terms - 1.0, 0.0), 8.0 + math.log2(max(terms, 1)))
    return _EPS * ulps * float(np.max(abs_sum))


# ---------------------------------------------------------------------------
# the short side
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ShortSide:
    """The short side of L sum_m p(a + Lm) e^{is(a + Lm)}
    = sum_k e^{-i (2 pi k/L) a} f(2 pi k/L + s) for offsets a in [-L/2, L/2].

    On the density side ``m`` are the lattice indices and ``p[i, j]`` is
    p(a_i + L m_j), with the midpoint value where a_i + L m_j sits on a
    density jump; on the cf side ``k`` are the indices with
    f(2 pi k/L + s) != 0 for some |s| <= s_max.  ``tail`` bounds the
    truncation of the left-hand side times L at every (s, a).  For a rule
    in s it declares ``freq``, the highest frequency L max|m| of the phases
    e^{isLm}, ``kinks``, the s where the terms have kinks (0 and
    +-T - 2 pi k/L on the cf side), and ``edge``, the cf support T that
    bounds |t| in the phases e^{-iat}."""

    L: float
    tail: float
    m: np.ndarray | None = None
    p: np.ndarray | None = None
    k: np.ndarray | None = None
    freq: float = 0.0
    kinks: tuple = ()
    edge: float = 0.0


def _density_reach(dist: SourceDistribution, L: float):
    """(reach, tail) of the density side that ``dist`` declares: the
    indices |m| <= reach of a compact density (tail 0), or of |y| <= R for
    the least R in L N whose declared lattice tail is at most 2^-64, and
    the bound on the rest times L.  None where no density side is declared."""
    h = dist.density_support_radius
    if dist.density is None or (h is None and dist.density_lattice_tail is None):
        return None
    if h is not None:
        R, tail = h + _JUMP_TOL, 0.0
    else:
        R = L
        while dist.density_lattice_tail(R, L) > _SHORT_TAIL and R <= L * _SHORT_TERMS:
            R += L
        tail = L * dist.density_lattice_tail(R, L)
    return math.ceil((R + 0.5 * L) / L), tail


def _short_side(dist: SourceDistribution, a: np.ndarray, s_max: float,
                L: float = 2.0) -> _ShortSide:
    """The side of the Poisson pair that ``dist`` declares short: its
    density side (``_density_reach``) or a compact cf (the k with
    |2 pi k/L + s| <= T, tail 0).  Raises UnsupportedError for any other
    source."""
    if dist.dim != 1:
        raise InvalidParameterError("the periodized cf is one-dimensional")
    declared = _density_reach(dist, L)
    if declared is not None:
        reach, tail = declared
        what = f"{dist.label}: the density side of the lattice sum"
        require_at_most(what, 2 * reach + 1, _SHORT_TERMS, "terms")
        require_at_most(what, a.size * (2 * reach + 1), _MAX_TABLE, "table entries")
        m = np.arange(-reach, reach + 1)
        y = a[:, None] + L * m
        p = np.asarray(dist.density(y), dtype=float)
        h = dist.density_support_radius
        if h is not None and not dist.flags.density_continuous:
            # the Fourier inverse converges to the mean of the one-sided
            # limits; outside the closed support the density is 0
            edge = np.abs(np.abs(y) - h) <= _JUMP_TOL
            p[edge] = 0.5 * np.asarray(dist.density(np.clip(y[edge], -h, h)), dtype=float)
        # no m is kept where the density is 0 at every offset's lattice
        keep = np.any(p != 0.0, axis=0)
        m = m[keep]
        return _ShortSide(L, tail, m=m, p=p[:, keep],
                          freq=L * float(np.max(np.abs(m), initial=0.0)))
    T = dist.cf_support_radius
    if T is not None:
        kmax = math.floor((T + s_max) * L / (2.0 * math.pi))
        require_at_most(f"{dist.label}: the cf side of the lattice sum", 2 * kmax + 1,
                        _SHORT_TERMS, "terms")
        k = np.arange(-kmax, kmax + 1)
        kinks = (0.0, *(e * T - (2.0 * math.pi / L) * j for j in k for e in (-1, 1)))
        return _ShortSide(L, 0.0, k=k, kinks=kinks, edge=T)
    raise UnsupportedError(f"{dist.label}: no short side declared for the periodized cf "
                           "(a compact density or cf, or a density lattice tail)")


def _reduced_periodized_cf(dist: SourceDistribution, side: _ShortSide,
                           s: np.ndarray, a: np.ndarray):
    """e^{-isa} L sum_m p(a + Lm) e^{is(a + Lm)} from its short side, as
    rows -> (offsets a[rows]) x (points s), with what depends on s alone
    formed once: on the density side L sum_m p(a + Lm) e^{isLm}, the rows'
    product of the (a x m) density table with the (m x s) phases L e^{isLm};
    on the cf side sum_k e^{-ia t} f(t) with t = 2 pi k/L + s."""
    L = side.L
    if side.k is None:
        E = L * np.exp(1j * L * np.outer(side.m, s))
        return lambda rows: side.p[rows] @ E
    terms = [(t, dist.cf(t)) for t in ((2.0 * math.pi / L) * k + s for k in side.k)]

    def table(rows):
        out = np.zeros((a[rows].size, s.size), dtype=complex)
        for t, f in terms:
            out += np.exp(-1j * np.outer(a[rows], t)) * f
        return out
    return table


def periodized_cf(dist: SourceDistribution, s, a):
    """F(s, a) = sum_k e^{-i pi k a} f(pi k + s) on the short side of the
    Poisson pair, for offsets a (axis 0) and points s (axis 1).

    Returns (values, tail) with |F - values| <= tail.  At a density jump the
    density side takes the midpoint value, which is what the cf side
    converges to."""
    s = _require_finite("s", np.atleast_1d(s))
    a = _require_finite("a", np.atleast_1d(a))
    a = a - 2.0 * np.round(a / 2.0)
    side = _short_side(dist, a, float(np.max(np.abs(s))))
    G = _reduced_periodized_cf(dist, side, s, a)(slice(None))
    return np.exp(1j * np.outer(a, s)) * G, side.tail


def _density_sum(dist: SourceDistribution, L: float, a: np.ndarray):
    """sum_m p(a + Lm) at the offsets a: on the density side where the law
    declares one of at most _SHORT_TERMS terms, on the cf side
    (1/L) sum_k e^{-i (2 pi k/L) a} f(2 pi k/L) (``_cf_side``) otherwise;
    returns (values, tail, side), the tail adding the sum's rounding to the
    side's truncation, and side "density" or "cf", the side it took."""
    a = a - L * np.round(a / L)
    declared = _density_reach(dist, L)
    if declared is not None and 2 * declared[0] + 1 <= _SHORT_TERMS:
        side = _short_side(dist, a, 0.0, L)
        rounding = _sum_rounding(np.abs(side.p).sum(axis=1), side.p.shape[1])
        return side.p.sum(axis=1), side.tail / L + rounding, "density"
    vals, tail = _cf_side(dist, 2.0 * math.pi / L, -a / L)
    # dividing by L rounds once more, unless L is a power of two
    rounding = 0.0 if math.frexp(L)[0] == 0.5 else _EPS * float(np.max(np.abs(vals)))
    return np.real(vals) / L, (tail + rounding) / L, "cf"


def sum_density_lattice(dist: SourceDistribution, scale: float, offset,
                        tol: float = 1e-10) -> LatticeSum:
    """sum over the integer lattice of p(scale*m + offset), on the short side
    of its Poisson pair; ``tol_met`` says whether the tail is at most tol."""
    require_tol(tol)
    L = _require_positive("scale", scale)
    a = _require_finite("offset", offset)
    if a.size != dist.dim:
        raise InvalidParameterError(f"the sum takes one offset per dimension ({dist.dim}), "
                                    f"got {a.size}")
    if dist.density is None:
        raise UnsupportedError(f"{dist.label}: no density available")
    if dist.components is not None:
        return _separable(*(sum_density_lattice(c, L, ai, tol / 2.0)
                            for c, ai in zip(dist.components, a.ravel())), tol)
    vals, tail, _ = _density_sum(dist, L, a.ravel())
    return LatticeSum(float(vals[0]), tail, bool(tail <= tol))


# ---------------------------------------------------------------------------
# the cf side
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _bernoulli_coefficients(p: int) -> np.ndarray:
    """Coefficients of y^0 .. y^p in the Bernoulli polynomial B_p, rounded
    once from the exact Bernoulli numbers B_m = -sum_{j<m} C(m+1, j) B_j/(m+1);
    read-only, as every caller shares them."""
    from fractions import Fraction      # loaded only when a tail needs B_p
    B = [Fraction(1)]
    for m in range(1, p + 1):
        B.append(-sum(math.comb(m + 1, j) * B[j] for j in range(m)) / (m + 1))
    coef = np.array([float(math.comb(p, i) * B[p - i]) for i in range(p + 1)])
    coef.flags.writeable = False
    return coef


def _bernoulli_series(p: int, y: np.ndarray, jump: float):
    """sum_{k>=1} cos(2 pi k y)/k^p for even p, sum_{k>=1} sin(2 pi k y)/k^p
    for odd p: (-1)^(floor(p/2) + 1) (2 pi)^p B_p(y mod 1)/(2 p!) (DLMF
    24.8.1-2), the sawtooth p = 1 taking its midpoint 0 within ``jump`` of
    its jumps.  B_p is evaluated on [0, 1/2] through
    B_p(1 - y) = (-1)^p B_p(y).  Returns the values and (2 pi)^p/(2 p!) times
    the sum of |coefficient| 2^-i of B_p, the scale of its Horner rounding."""
    y = np.mod(y, 1.0)
    r = np.minimum(y, 1.0 - y)
    coef = _bernoulli_coefficients(p)
    scale = (2.0 * math.pi) ** p / (2.0 * math.factorial(p))
    sign = np.where((y > 0.5) & (p % 2 == 1), -1.0, 1.0)
    vals = (-1) ** (p // 2 + 1) * scale * sign * np.polynomial.polynomial.polyval(r, coef)
    if p == 1:
        vals = np.where(r <= jump, 0.0, vals)
    return vals, scale * float(np.abs(coef) @ 0.5 ** np.arange(p + 1))


def _cf_side(dist: SourceDistribution, step: float, x: np.ndarray):
    """sum_k e^{2 pi i k x} f(step k) at the phases x (in turns), as
    (values, tail).

    The law declares its cf at infinity (``cf_terms``, ``cf_lattice_tail``);
    a compact cf has no terms and a lattice tail of 0 from its support
    radius T on.  Over all k != 0 the terms sum to Bernoulli polynomials in x
    (``_bernoulli_series``), and the head 0 < |k| < K sums the remainder
    f - terms, for the least K = 2^j whose lattice tail is below the
    polynomials' rounding (2^-64 where there are no terms).  The tail adds
    both roundings to that truncation.  Raises UnsupportedError for a law
    that declares neither."""
    x = np.mod(x, 1.0)
    f = dist.cf
    f0 = float(np.real(f(0.0)))
    T = dist.cf_support_radius
    cf_lattice_tail = dist.cf_lattice_tail
    if T is not None:
        require_at_most(f"{dist.label}: the cf side of the lattice sum",
                        2 * math.floor(T / step + 1e-12) + 1, _SHORT_TERMS, "terms")
        # a cf is continuous, so it is 0 at +-T too
        cf_lattice_tail = lambda R, L: 0.0 if R >= T else math.inf
    elif cf_lattice_tail is None:
        raise UnsupportedError(f"{dist.label}: no cf side declared (a compact cf, or cf "
                               "terms at infinity with a lattice tail)")
    try:
        scaled = [c * step ** -p for c, p, _ in dist.cf_terms]
    except OverflowError:
        scaled = [math.inf]
    if not all(map(math.isfinite, scaled)):
        raise UnsupportedError(f"{dist.label}: its cf terms overflow at step {step:g}")

    def lattice_tail(K):
        # a declared tail too large for a float bounds nothing
        try:
            return cf_lattice_tail(K * step, step)
        except OverflowError:
            return math.inf

    # over k != 0 the term c t^-p trig(omega t) at t = step k gives
    # c step^-p [F_p(u + x) + F_p(u - x)] with u = omega step/2 pi
    jump = _JUMP_TOL * step / (2.0 * math.pi)       # a density jump, in turns
    for c, p, omega in dist.cf_terms:
        if p == 1:
            # a phase this close to a jump of the sawtooth sits on it, for
            # both of its values
            for sign in (1.0, -1.0):
                y = omega * step / (2.0 * math.pi) + sign * x
                d = y - np.round(y)
                x = np.where(np.abs(d) <= jump, x - sign * d, x)
    closed = np.zeros(x.shape)
    closed_rounding = 0.0
    for (c, p, omega), ck in zip(dist.cf_terms, scaled):
        u = omega * step / (2.0 * math.pi)
        plus, horner = _bernoulli_series(p, u + x, jump)
        minus, _ = _bernoulli_series(p, u - x, jump)
        closed += ck * (plus + minus)
        # each value to within eps times: its 2p Horner steps, its last two
        # products (|F_p| <= 2), and its argument u +- x, good to
        # eps (|u| + 2), times the slope |F_p'| <= 2 pi zeta(2) < 4 pi
        closed_rounding += 2.0 * _EPS * abs(ck) * (2 * p * horner + 4.0
                                                   + 4.0 * math.pi * (abs(u) + 2.0))
    K = 1
    while lattice_tail(K) > max(_SHORT_TAIL, closed_rounding) and K < _SHORT_TERMS:
        K *= 2
    k = np.arange(1, K)
    t = step * k
    # the terms are even in t; a cf that is not takes its remainder on
    # each side of 0
    terms = [c * t ** -p * (np.sin(omega * t) if p % 2 else np.cos(omega * t))
             for c, p, omega in dist.cf_terms]
    if dist.flags.symmetric_about_0:
        fp = fm = np.asarray(f(t), dtype=float)
        rp = rm = fp - sum(terms)
        head = 2.0 * (np.cos(2.0 * math.pi * np.outer(x, k)) @ rp)
    else:
        fp, fm = np.asarray(f(t), dtype=complex), np.asarray(f(-t), dtype=complex)
        rp, rm = fp - sum(terms), fm - sum(terms)
        ph = np.exp(2j * math.pi * np.outer(x, k))
        head = ph @ rp + np.conj(ph) @ rm
    # each remainder is formed from f and the terms, and its phase
    # 2 pi k x carries eps 2 pi k |x|, exact at x = 0; the closed forms are
    # two more terms each
    turns = float(np.max(np.abs(x), initial=0.0))
    mass = abs(f0) + np.abs(closed) + float(np.sum(
        np.abs(fp) + np.abs(fm) + 2.0 * sum(np.abs(v) for v in terms)
        + 2.0 * math.pi * turns * k * (np.abs(rp) + np.abs(rm))))
    tail = (lattice_tail(K) + closed_rounding
            + _sum_rounding(mass, 2 * K - 1 + 2 * len(dist.cf_terms)))
    return f0 + head + closed, tail


def sum_cf_lattice(dist: SourceDistribution, step: float,
                   phase=None, tol: float = 1e-10) -> LatticeSum:
    """sum_{k in Z^d} e^{i <phase, k>} f(step k): in one dimension on the cf
    side (``_cf_side``), in two on the components of a product."""
    require_tol(tol)
    step = _require_positive("step", step)
    if phase is not None and _require_finite("phase", phase).size != dist.dim:
        raise InvalidParameterError(f"the sum takes one phase per dimension ({dist.dim}), "
                                    f"got {np.size(phase)}")
    if dist.components is not None:
        ph = (0.0, 0.0) if phase is None else tuple(np.ravel(phase))
        return _separable(*(sum_cf_lattice(c, step, p, tol / 2.0)
                            for c, p in zip(dist.components, ph)), tol)
    phi = 0.0 if phase is None else float(np.ravel(phase)[0])
    vals, tail = _cf_side(dist, step, np.array([phi / (2.0 * math.pi)]))
    _require_summable(tail, tol, f"{dist.label}: cf lattice tail")
    value = complex(vals[0])
    if abs(value.imag) < 1e-12 * max(1.0, abs(value.real)):
        value = value.real
    return LatticeSum(value, tail, bool(tail <= tol))


# ---------------------------------------------------------------------------
# lattice condition, Poisson identity, wrapped autocorrelation
# ---------------------------------------------------------------------------

def check_pi_lattice_zeros(dist: SourceDistribution, k_max: int) -> LatticeZeroReport:
    """max |f(pi k)| over nonzero integer vectors with sup-norm at most k_max,
    refusing more than _MAX_POINTS points per axis before any is formed.

    A product is judged on its components: every |f_i| is at most
    f_i(0) = 1, so the largest |f_1(pi k_1) f_2(pi k_2)| lies on an axis,
    where it is the larger of the components' one-dimensional maxima."""
    if k_max < 1:
        raise InvalidParameterError("k_max must be >= 1")
    if dist.components is not None:
        x, y = (check_pi_lattice_zeros(c, k_max) for c in dist.components)
        if y.max_abs > x.max_abs:
            return LatticeZeroReport(y.max_abs, (0, *y.argmax_k))
        return LatticeZeroReport(x.max_abs, (*x.argmax_k, 0))
    require_at_most(f"{dist.label}: the lattice zero check", 2 * k_max, _MAX_POINTS, "points")
    k = np.arange(1, k_max + 1)
    k = np.concatenate([k, -k])
    vals = np.abs(np.asarray(dist.cf(math.pi * k), dtype=complex))
    i = int(np.argmax(vals))
    return LatticeZeroReport(float(vals[i]), (int(k[i]),))


def _condition_holds(report: LatticeZeroReport, tol: float) -> bool:
    """The one verdict on the pi-lattice condition f(pi k) = 0, k != 0:
    the checked maximum is at most tol (and never asked below 1e-12)."""
    return bool(report.max_abs <= max(tol, 1e-12))


def poisson_check(dist: SourceDistribution, tol: float = 1e-10) -> PoissonReport:
    """Compare sum_m p(m) with sum_k f(2 pi k); both tails held below tol.

    The hypotheses, a finite first absolute moment and an integrable cf
    (a finite ``cf_power_tail(0, 1)``, hence a bounded continuous density),
    are read from the law, which is refused with the failed one named.  A
    product has a finite first absolute moment and an integrable cf where
    every component has, and is judged on its components: all moments
    first, then all cfs.
    """
    if dist.density is None:
        raise UnsupportedError(f"{dist.label}: no density")
    laws = dist.components or (dist,)
    for law in laws:
        if law.abs_moment1 is None:
            raise UnsupportedError(
                f"{law.label}: first absolute moment unavailable (infinite)")
    for law in laws:
        if law.cf_power_tail is None or not law.cf_power_tail(0.0, 1.0) < math.inf:
            raise UnsupportedError(
                f"{law.label}: cf not declared absolutely integrable (the density "
                "may be discontinuous at lattice points)")
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
    the cf vanishes on the nonzero pi-lattice.  In one dimension it is the
    cf side of its Poisson pair, 1/2 sum_k |f(pi k)|^2 (``_cf_side`` of
    ``_squared_modulus``)."""
    require_tol(tol)
    if dist.components is not None:
        return _separable(*(_wrapped_autocorr_1d(c, tol / 2.0) for c in dist.components), tol)
    return _wrapped_autocorr_1d(dist, tol)


def _squared_terms(terms) -> tuple:
    """The pairwise products of cf terms (c, p, omega), as terms of the same
    form: a product of two cosines or two sines (p_i + p_j even) is a sum
    of two cosines, a sine times a cosine a sum of two sines.  Terms with
    the same (p, omega) are merged; a sine of frequency 0 is dropped."""
    out = {}
    for c1, p1, w1 in terms:
        for c2, p2, w2 in terms:
            c, p = 0.5 * c1 * c2, p1 + p2
            if p % 2 == 0:
                # cos a cos b = (cos(a - b) + cos(a + b))/2, and
                # sin a sin b = (cos(a - b) - cos(a + b))/2
                pieces = ((c, abs(w1 - w2)), (-c if p1 % 2 else c, w1 + w2))
            else:
                # sin a cos b = (sin(a + b) + sin(a - b))/2, a the sine's
                ws, wc = (w1, w2) if p1 % 2 else (w2, w1)
                pieces = ((c, ws + wc), (c if ws >= wc else -c, abs(ws - wc)))
            for cw, w in pieces:
                if p % 2 == 0 or w != 0.0:
                    out[(p, w)] = out.get((p, w), 0.0) + cw
    return tuple((c, p, w) for (p, w), c in out.items())


def _squared_modulus(dist: SourceDistribution) -> SourceDistribution:
    """The law with cf |f|^2, declared from ``dist``'s own cf side: the
    same compact support, the pairwise products of its cf terms, and,
    with f = S + rho for S the terms and r(R, L) its lattice tail,
    |f|^2 - S^2 = 2 S Re rho + |rho|^2, whose lattice sum beyond R is at
    most (2 sum_j |c_j| R^-p_j + r) r."""
    f, terms, r = dist.cf, dist.cf_terms, dist.cf_lattice_tail

    def cf_lattice_tail(R, L):
        rho = r(R, L)
        return (2.0 * sum(abs(c) * R ** -p for c, p, _ in terms) + rho) * rho

    return SourceDistribution(
        density=None, cf=_pointwise(lambda t: np.abs(f(t)) ** 2),
        flags=DistFlags(symmetric_about_0=True),
        cf_support_radius=dist.cf_support_radius,
        cf_terms=_squared_terms(terms),
        cf_lattice_tail=None if r is None else cf_lattice_tail,
        label=dist.label)


def _wrapped_autocorr_1d(dist, tol):
    if dist.density is None:
        raise UnsupportedError(f"{dist.label}: no density")
    vals, tail = _cf_side(_squared_modulus(dist), math.pi, np.zeros(1))
    _require_summable(0.5 * tail, tol, f"{dist.label}: wrapped autocorrelation")
    return LatticeSum(0.5 * float(vals[0]), 0.5 * tail, bool(0.5 * tail <= tol))


# ---------------------------------------------------------------------------
# regularity-integral diagnostics
# ---------------------------------------------------------------------------

def _fit_loglog(ns, ds) -> float | None:
    """The least-squares slope of log ds against log ns over the positive
    ds; None where fewer than two are positive."""
    ns = np.asarray(ns, dtype=float)
    ds = np.asarray(ds, dtype=float)
    keep = ds > 0
    if keep.sum() < 2:
        return None
    A = np.vstack([np.ones(keep.sum()), np.log(ns[keep])]).T
    coef, *_ = np.linalg.lstsq(A, np.log(ds[keep]), rcond=None)
    return float(coef[1])


def _shell_report(total: float, shells: list, window_K: int) -> RegularityReport:
    """The report of a window's integral ``total`` and its per-shell parts:
    a decay slope of the later shells of -1.05 or flatter reads as
    diverging; otherwise the tail beyond the window is added from that
    slope.  A last shell of 0, where the integrand vanished or underflowed,
    is not diverging and adds no tail."""
    c = np.maximum(np.asarray(shells, dtype=float), 1e-300)
    slope = _fit_loglog(np.arange(1, c.size + 1)[c.size // 2:], c[c.size // 2:])
    diverging = shells[-1] > 0 and slope >= -1.05
    if not diverging and shells[-1] > 0:
        total += shells[-1] * window_K / (-slope - 1.0)
    return RegularityReport(float(total), bool(diverging), tuple(shells))


def regularity_integral(dist: SourceDistribution, kind: str,
                        window_K: int = 8) -> RegularityReport:
    """The integral of |f||f'| / dist(t, pi Z^d)^(d-1) (kind
    'condition_2_3') or |f'| / dist(t, pi Z^d)^(d-1) ('condition_3_1') over
    the window of sup-norm radius pi*window_K, with a divergence diagnostic
    from a declared cf term (condition_3_1 in one dimension) or the
    per-shell decay: exact differences of f or f^2/2 for an even law in one
    dimension, a polar Gauss-Legendre rule per cell in two.  A
    two-dimensional law is read on its components, f(x, y) = f1(x) f2(y)."""
    if kind not in ("condition_2_3", "condition_3_1"):
        raise InvalidParameterError("kind must be condition_2_3 or condition_3_1")
    for law in dist.components or (dist,):
        if law.cf_grad is None:
            raise UnsupportedError(f"{law.label}: cf gradient unavailable")
    if window_K < 4:
        raise InvalidParameterError("window_K must be >= 4")
    if dist.components is None:
        return _regularity_1d(dist, kind, window_K)
    return _regularity_2d(dist, kind, window_K)


def _regularity_1d(dist, kind, window_K):
    """An even law's f is real and even, so on t >= 0 the integral of |f'|
    is the total variation of F = f, and that of |f f'| the total
    variation of F = f^2/2.  Between consecutive sign changes of F' F is
    monotone, and each piece holds exactly |F(b) - F(a)|, twice for t < 0."""
    if not dist.flags.symmetric_about_0:
        raise UnsupportedError(f"{dist.label}: the regularity integral needs an even law")
    # the pieces end at 0, the cell edges pi(j + 1/2), a compact cf's edge
    # T, the points of one search grid of max(8, 4h) steps per cell (h the
    # radius of a compact density, 0 for none), and on each side of every
    # sign change of F' on it, bisected to adjacent doubles
    steps = 4.0 * (dist.density_support_radius or 0.0)
    what = f"{dist.label}: the regularity integral"
    require_at_most(what, steps, _SHORT_TERMS, "grid steps per cell to find the cf's zeros")
    per_cell = max(8, math.ceil(steps))
    size = -(-per_cell * (2 * window_K + 1) // 2) + 1      # over K + 1/2 cells
    require_at_most(what, size, _MAX_POINTS, "grid points")
    edges = math.pi * (np.arange(window_K + 1) + 0.5)
    grid = np.linspace(0.0, edges[-1], size)
    ends = [grid, edges]
    if dist.cf_support_radius is not None and dist.cf_support_radius < edges[-1]:
        ends.append([dist.cf_support_radius])
    for fn in (dist.cf_grad, dist.cf) if kind == "condition_2_3" else (dist.cf_grad,):
        v = np.real(fn(grid))
        i = np.nonzero(v[:-1] * v[1:] < 0.0)[0]
        lo, hi, sign = grid[i], grid[i + 1], np.sign(v[i])
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            same = np.sign(np.real(fn(mid))) == sign
            lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
        ends += [lo, hi]
    t = np.unique(np.concatenate(ends))
    F = np.real(dist.cf(t))
    if kind == "condition_2_3":
        F = 0.5 * F * F
    cell = np.searchsorted(edges[:-1], t[:-1], side="right")
    parts = np.bincount(cell, weights=2.0 * np.abs(np.diff(F)), minlength=window_K + 1)
    shells = parts[1:].tolist()
    total = float(parts[0])
    for c in shells:
        total += c
    if kind == "condition_3_1" and any(c != 0.0 and p <= 1 and omega != 0.0
                                       for c, p, omega in dist.cf_terms):
        # a term c t^-p trig(omega t) puts |c omega| t^-p |trig| in |f'|, not integrable for p <= 1
        return RegularityReport(total, True, tuple(shells))
    return _shell_report(total, shells, window_K)


def _regularity_2d(dist, kind, window_K):
    require_at_most(f"{dist.label}: the regularity integral", (2 * window_K + 1) ** 2,
                    _REGULARITY_CELLS, "cells")
    # four Gauss-Legendre panels in theta between the cell's corners, where
    # the radius to the cell edge has kinks, and nr nodes in r out to it
    npanel, nr = 24, 48
    x, w = _gl_nodes(npanel, math.pi / 4.0)
    theta = np.concatenate([x + c * (math.pi / 2.0) for c in range(4)])
    ct, st = np.cos(theta), np.sin(theta)
    rmax = (math.pi / 2.0) / np.maximum(np.abs(ct), np.abs(st))
    # the 1/r singularity cancels against the polar Jacobian, leaving a
    # bounded integrand in (r, theta)
    xr, wr = _gl_nodes(nr, 0.5)
    rr = (xr[None, :] + 0.5) * rmax[:, None]
    ww = wr[None, :] * rmax[:, None] * np.tile(w, 4)[:, None]
    offs = np.stack([rr * ct[:, None], rr * st[:, None]], axis=-1)
    c1, c2 = dist.components

    def cell_integral(kx, ky):
        pts = offs + np.array([math.pi * kx, math.pi * ky])
        x, y = pts[..., 0], pts[..., 1]
        f1, f2 = c1.cf(x), c2.cf(y)
        # |grad f|^2 = |f1'(x) f2(y)|^2 + |f2'(y) f1(x)|^2
        g = np.sqrt(np.abs(c1.cf_grad(x) * f2) ** 2 + np.abs(c2.cf_grad(y) * f1) ** 2)
        if kind == "condition_2_3":
            g = g * np.abs(f1 * f2)
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
    return _shell_report(total, shells, window_K)
