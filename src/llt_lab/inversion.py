"""Numerical Fourier inversion on Gauss-Legendre panels.

One rule builder serves both engines: a window split at the integrand's
kinks into Gauss-Legendre panels of at most 128 nodes, with a main rule
and a check rule of 3/4 of its nodes, whose difference times 9/7 bounds the
main rule's quadrature error.  The Bernoulli cell engine in ``smoothing``
integrates on it, and so does :func:`invert`, the inverse

    p(x) = (1 / 2 pi) integral of e^{-itx} cf(t) dt  over |t| <= R.

The caller declares tail(r), a bound on the integral of |cf| over |t| > r.
The window R is the least one whose declared tail is at most 2^-64, the
truncation floor of the lattice sums, whatever the requested tol; it stops
where the rule would pass _MAX_NODES nodes, and the tail left there is
declared as it stands.

The phases of the grid come from the index split i = B p + q,
B = ceil(sqrt(count)): e^{-ix_i t} = e^{-ix_{Bp} t} e^{-i(q step) t}, so a
1001-point grid evaluates 64 rows of cos and sin per node, not 1001.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (_SHORT_TAIL, InconsistentCfError, InvalidParameterError, UnsupportedError,
                     require_integer)

__all__ = ["Axis", "Grid", "GridDensity", "grid_1d", "grid_2d", "invert"]

_IM_REJECT = 1e-6    # beyond this the cf evaluation is not Hermitian
# the density of Z_n spreads its cf's frequencies over |y| <= 8 or so, which
# add to the phase frequencies |x| of e^{-itx}
_CF_REACH = 8.0
_MAX_NODES = 2 ** 14               # most main-rule nodes (invert, cell engine)
_PANEL_NODES = 128                 # most nodes of one Gauss-Legendre panel
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Axis:
    origin: float
    step: float
    count: int

    def __post_init__(self):
        if self.step <= 0 or self.count < 1:
            raise InvalidParameterError("axis needs positive step and count >= 1")

    def points(self) -> np.ndarray:
        return self.origin + self.step * np.arange(self.count)

    @property
    def upper(self) -> float:
        return self.origin + self.step * (self.count - 1)


@dataclass(frozen=True)
class Grid:
    axes: tuple

    @property
    def dim(self) -> int:
        return len(self.axes)

    def max_coordinate(self) -> float:
        return max(max(abs(ax.origin), abs(ax.upper)) for ax in self.axes)


def grid_1d(lo: float, hi: float, count: int) -> Grid:
    """Uniform grid with count points covering [lo, hi] exactly."""
    count = require_integer(count, 2, "count")
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise InvalidParameterError("need finite hi > lo")
    step = (hi - lo) / (count - 1)
    if not math.isfinite(step * (count - 1)):
        raise InvalidParameterError("the grid's span hi - lo overflows")
    return Grid((Axis(lo, step, count),))


def grid_2d(lo: float, hi: float, count: int) -> Grid:
    ax = grid_1d(lo, hi, count).axes[0]
    return Grid((ax, ax))


def _grid_integral(values: np.ndarray, axes) -> float:
    """Trapezoid integral of row-major grid values, last axis first."""
    for ax in reversed(axes):
        values = np.trapezoid(values, dx=ax.step, axis=-1)
    return float(values)


@dataclass
class GridDensity:
    """Density values on a uniform grid, with truncation metadata.

    values are row-major in axis order; negative excursions are quadrature
    ringing and stay within -est_tail_error.
    """

    dim: int
    axes: tuple
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def mass(self) -> float:
        """Trapezoid integral of the values over the grid window."""
        return _grid_integral(self.values, self.axes)

    @property
    def est_tail_error(self) -> float:
        return float(self.meta.get("est_tail_error", 0.0))


# ---------------------------------------------------------------------------
# the Gauss-Legendre panel rule
# ---------------------------------------------------------------------------

# bounded: panel node counts vary with n, the grid and a compact cf's kinks
@functools.lru_cache(maxsize=128)
def _gl_reference(m: int):
    """m-point Gauss-Legendre nodes x on [-1, 1] and the denominators
    (1 - x^2) P_m'(x)^2 of their weights, read-only.

    Newton on the three-term recurrence of P_m, which converges from the
    asymptotic guess in four steps; numpy's leggauss weights are off by up
    to 1e-11 relative, which moves a 128-node integral of cos^16 by 7e-15."""
    x = np.cos(math.pi * (np.arange(m) + 0.75) / (m + 0.5))
    for _ in range(5):
        p0, p1 = np.ones_like(x), x
        for k in range(2, m + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = m * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    den = (1.0 - x * x) * dp * dp
    x.flags.writeable = den.flags.writeable = False
    return x, den


def _gl_nodes(m: int, half_width: float):
    """m-point Gauss-Legendre nodes and weights 2/((1-x^2) P_m'^2) on
    [-half_width, half_width], scaled from the cached reference rule."""
    x, den = _gl_reference(m)
    return half_width * x, half_width * 2.0 / den


def _panel_rules(half: float, breaks, per: float, unit: float = 1.0):
    """The main rule on [-half, half] and the check rule with 3/4 of its
    nodes, as (nodes, weights) pairs.  The window is split at the
    ``breaks`` inside it; a piece of half-width hp gets hp/unit * per nodes,
    and at least its share of 128, on ceil(nodes / _PANEL_NODES) equal
    Gauss-Legendre panels, so every panel reads a small cached reference
    rule."""
    edges = [-half, *sorted(b for b in set(breaks) if -half < b < half), half]
    rules = ([], []), ([], [])
    for lo, hi in zip(edges, edges[1:]):
        hp, share = 0.5 * (hi - lo), (hi - lo) / (2.0 * half)
        m = max(16, math.ceil(128 * share), int(hp / unit * per))
        m_check = max(12, math.ceil(96 * share), int(0.75 * m))
        k = -(-m // _PANEL_NODES)
        hq = hp / k
        for i in range(k):
            for (nodes, weights), mk in zip(rules, (m, m_check)):
                s, ws = _gl_nodes(-(-mk // k), hq)
                nodes.append(s + (lo + (2 * i + 1) * hq))
                weights.append(ws)
    return tuple((np.concatenate(s), np.concatenate(ws)) for s, ws in rules)


def _check_error(main: np.ndarray, check: np.ndarray) -> float:
    """The main rule's quadrature error bound from the check rule: 9/7 is
    the order-2 Richardson factor 1/((4/3)^2 - 1) of a rule with 3/4 of the
    nodes, a floor for the panels' faster convergence."""
    return 9.0 / 7.0 * float(np.max(np.abs(main - check)))


# ---------------------------------------------------------------------------
# the inverse
# ---------------------------------------------------------------------------

def _phase_factors(ax: Axis, t: np.ndarray):
    """e^{-iat} at the ceil(count/B) block points a = x_{Bp} and e^{-ibt} at
    the B offsets b = q step, B = ceil(sqrt(count)), as (rows x nodes)
    tables whose product at (p, q) is the phase of x_{Bp+q}."""
    B = math.isqrt(ax.count - 1) + 1
    a = np.outer(ax.origin + ax.step * (B * np.arange(-(-ax.count // B))), t)
    b = np.outer(ax.step * np.arange(B), t)
    return np.cos(a) - 1j * np.sin(a), np.cos(b) - 1j * np.sin(b)


def _phase_sums(ax: Axis, t: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum over t of e^{-ixt} f(t) + e^{ixt} g(t) at the axis's points, as
    (ceil(count/B) x nodes) by (nodes x B) products, rows past count dropped."""
    ea, eb = _phase_factors(ax, t)
    return ((ea * f) @ eb.T + (ea.conj() * g) @ eb.conj().T).ravel()[:ax.count]


def _phase_rounding(R: float, xmax: float) -> float:
    """Bound on a phase sum's rounding per unit of sum |cf w|, for |t| <= R
    and |x| <= xmax.  With u = eps/2, the angle is off by at most
    u R xmax (block angle) + 2u R xmax (offset angle, q step <= 2 xmax) +
    R u (2 step i + |x_i| + |x_{Bp}|) <= 6u R xmax (the split of the grid
    point x_i from x_{Bp} + fl(q step)); the factors and their product add
    8 eps, and the sums 16 eps."""
    return (16.0 + (8.0 + 5.0 * R * xmax)) * _EPS


def _window(tail: Callable, scale: float, r_cap: float, kinks) -> float:
    """The least R <= r_cap whose declared tail scale * tail(R) is at most
    2^-64 (a kink where that one is), or r_cap."""
    def small(r):
        return scale * tail(r) <= _SHORT_TAIL

    if not small(r_cap):
        return r_cap
    lo, hi = 0.0, r_cap
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if small(mid) else (mid, hi)
    return min([hi] + [k for k in kinks if 0.0 < k < hi and small(k)])


def invert(cf_eval: Callable, grid: Grid, tail: Callable, kinks=()) -> GridDensity:
    """Evaluate (1 / 2 pi) integral of exp(-itx) cf(t) over |t| <= R on a
    one-dimensional grid, on the panel rule.

    ``tail(r)`` bounds the integral of |cf| over |t| > r (inf where it
    diverges, which is refused); ``kinks`` are the t > 0 where cf has a
    kink, besides 0, which always ends a panel.  The imaginary part of the
    result must be roundoff (<= 1e-9 by contract) and is discarded after
    checking; values above 1e-6 signal a non-Hermitian cf.
    ``meta["est_tail_error"]`` is the declared tail beyond R, the check
    rule's bound and the factored phases' rounding (``_phase_rounding``).
    ``meta["cf_mass"]`` is (1 / 2 pi) sum |cf w| over the main rule: a
    relative error delta in every cf value moves each result by at most
    delta times it, which the estimates here cannot see.
    """
    if grid.dim != 1:
        raise InvalidParameterError("invert takes a one-dimensional grid")
    ax = grid.axes[0]
    scale = 1.0 / (2.0 * math.pi)
    xmax = grid.max_coordinate()
    per = 0.8 * (xmax + _CF_REACH)              # nodes per unit half-width
    R = _window(tail, scale, _MAX_NODES / per, kinks)
    window_tail = scale * tail(R)
    if not math.isfinite(window_tail):
        raise UnsupportedError("the cf's declared tail diverges; "
                               "the truncated window cannot be bounded")
    rules = _panel_rules(R, [e * b for b in (0.0, *kinks) for e in (-1.0, 1.0)], per)

    def rule_sum(t, w):
        # the rule is even and ends a panel at 0, so its nodes t > 0
        # carry cf(t) e^{-itx} + cf(-t) e^{itx}
        t, w = t[t > 0.0], w[t > 0.0]
        fp, fm = w * np.asarray(cf_eval(np.concatenate([t, -t])), dtype=complex).reshape(2, -1)
        vals = _phase_sums(ax, t, fp, fm)
        return scale * vals, scale * float(np.sum(np.abs(fp) + np.abs(fm)))

    (vals, cf_mass), (check, _) = (rule_sum(t, w) for t, w in rules)
    im_max = float(np.max(np.abs(vals.imag)))
    if im_max > _IM_REJECT * max(1.0, float(np.max(np.abs(vals.real)))):
        raise InconsistentCfError(
            f"imaginary residue {im_max:.3g} exceeds {_IM_REJECT}; cf is not Hermitian")
    out = vals.real.copy()      # owns its buffer; the complex one goes
    quad_err = _check_error(out, check.real)
    roundoff = _phase_rounding(R, xmax) * cf_mass
    meta = {
        "truncation_radius": R,
        "est_window_tail": window_tail,
        "est_quad_error": quad_err,
        "est_tail_error": window_tail + quad_err + roundoff,
        "max_imag": im_max,
        "quad_nodes": rules[0][0].size,
        "cf_mass": cf_mass,
    }
    return GridDensity(dim=1, axes=grid.axes, values=out, meta=meta)
