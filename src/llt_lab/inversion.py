"""Numerical Fourier inversion: evaluate a density on a grid from its
characteristic function with controlled truncation error.

The reference path is a composite trapezoid rule over a symmetric interval
(tensorized per axis in two dimensions).  Grids here are small, so the rule
is fast and its truncation analysis stays transparent; the omitted-tail
contribution is bounded by :func:`estimate_tail` from sampled decay of |cf|.
Inside the window, the outer nodes whose |cf * w| is negligible against the
sum are left out of the phase products and their mass is declared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InconsistentCfError, InvalidParameterError, UnsupportedError

__all__ = ["Axis", "Grid", "GridDensity", "grid_1d", "grid_2d", "invert", "estimate_tail"]

_IM_DISCARD = 1e-9   # contract bound for roundoff-level imaginary residue
_IM_REJECT = 1e-6    # beyond this the cf evaluation is not Hermitian
# share of sum |cf * w| that the outer trapezoid nodes may carry and still be
# left out of the phase products; what they carry is declared
_TRIM_BUDGET = 1e-3 * np.finfo(float).eps


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

    def shape(self) -> tuple:
        return tuple(ax.count for ax in self.axes)

    def max_coordinate(self) -> float:
        return max(max(abs(ax.origin), abs(ax.upper)) for ax in self.axes)


def grid_1d(lo: float, hi: float, count: int) -> Grid:
    """Uniform grid with count points covering [lo, hi] exactly."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or count < 2 or hi <= lo:
        raise InvalidParameterError("need finite hi > lo and count >= 2")
    step = (hi - lo) / (count - 1)
    return Grid((Axis(lo, step, count),))


def grid_2d(lo: float, hi: float, count: int) -> Grid:
    ax = grid_1d(lo, hi, count).axes[0]
    return Grid((ax, ax))


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

    def points(self) -> np.ndarray:
        if self.dim == 1:
            return self.axes[0].points()
        grids = np.meshgrid(*[ax.points() for ax in self.axes], indexing="ij")
        return np.stack(grids, axis=-1)

    def mass(self) -> float:
        """Trapezoid integral of the values over the grid window."""
        m = self.values
        for ax in reversed(self.axes):
            m = np.trapezoid(m, dx=ax.step, axis=-1)
        return float(m)

    @property
    def est_tail_error(self) -> float:
        return float(self.meta.get("est_tail_error", 0.0))


# ---------------------------------------------------------------------------

def _tail_from_samples(radii: np.ndarray, samples: np.ndarray, dim: int,
                       R: float, sign_changes: bool) -> float:
    """Fit a decay envelope to |cf| samples on shells beyond R and integrate it.

    Tries power, exponential and Gaussian profiles on the positive samples and
    keeps the best fit in log space.  Returns +inf when the samples do not
    decrease.
    """
    pos = samples > 0
    if not pos.any():
        return 0.0
    if pos.sum() < 4:
        return math.inf
    r = radii[pos]
    s = samples[pos]
    if s[-1] >= s[0] or np.max(s[r > r[len(r) // 2]]) >= np.max(s) * 0.9:
        return math.inf
    logs = np.log(s)
    best = None
    for kind, basis in (("power", np.log(r)), ("exp", r), ("gauss", r * r)):
        A = np.vstack([np.ones_like(basis), basis]).T
        coef, res, *_ = np.linalg.lstsq(A, logs, rcond=None)
        resid = float(np.sum((A @ coef - logs) ** 2))
        if best is None or resid < best[2]:
            best = (kind, coef, resid)
    kind, (c0, c1), _ = best
    C = math.exp(c0)
    if kind == "power":
        alpha = -c1
        if dim == 1:
            if alpha <= 1.02:
                if not sign_changes:
                    return math.inf
                # alternating-block bound: one oscillation wavelength worth of
                # the envelope controls the signed tail
                return 2.0 * C * R ** (-alpha)
            tail = 2.0 * C * R ** (1.0 - alpha) / (alpha - 1.0)
        else:
            if alpha <= 2.02:
                return math.inf
            tail = 2.0 * math.pi * C * R ** (2.0 - alpha) / (alpha - 2.0)
    elif kind == "exp":
        lam = -c1
        if lam <= 0:
            return math.inf
        if dim == 1:
            tail = 2.0 * C * math.exp(-lam * R) / lam
        else:
            tail = 2.0 * math.pi * C * math.exp(-lam * R) * (R / lam + 1.0 / (lam * lam))
    else:
        lam = -c1
        if lam <= 0:
            return math.inf
        if dim == 1:
            tail = 2.0 * C * math.exp(-lam * R * R) / (lam * R)
        else:
            tail = math.pi * C * math.exp(-lam * R * R) / lam
    return float(tail) / (2.0 * math.pi) ** dim


def estimate_tail(cf_eval: Callable, dim: int, R: float) -> float:
    """Conservative upper estimate of (2 pi)^-d  integral of |cf| over |t| > R.

    Samples |cf| on shells beyond R assuming monotone envelope decay; returns
    +inf when no decay is detected, which forces callers to reject.  A 1-D
    envelope no faster than 1/|t| counts only if the cf changes sign.
    """
    if R <= 0:
        raise InvalidParameterError("R must be positive")
    fac = np.concatenate([np.linspace(1.0, 3.0, 17), np.geomspace(3.5, 40.0, 12)])
    radii = R * fac
    if dim == 1:
        # per-shell envelope: dense band wide enough to catch one oscillation
        # period of any catalog cf (wavelength >= ~1)
        band = np.maximum(8.0 * math.pi, 0.02 * radii)
        sub = np.linspace(0.0, 1.0, 65)[None, :]
        tt = radii[:, None] + band[:, None] * sub
        raw = np.asarray(cf_eval(tt), dtype=complex)
        vals = np.abs(raw)
        vals = np.maximum(vals, np.abs(np.asarray(cf_eval(-tt), dtype=complex)))
        sgn = np.sign(raw.real)
        sign_changes = bool(np.sum(np.abs(np.diff(sgn, axis=1)) > 0) >= 3)
        samples = vals.max(axis=1)
    else:
        theta = np.linspace(0.0, 2.0 * math.pi, 17, endpoint=False)
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        pts = radii[:, None, None] * dirs[None, :, :]
        vals = np.abs(np.asarray(cf_eval(pts), dtype=complex))
        samples = vals.max(axis=1)
        sign_changes = False
    samples = np.asarray(samples, dtype=float)
    if np.all(samples == 0.0):
        return 0.0
    return 4.0 * _tail_from_samples(radii, samples, dim, R, sign_changes)


# ---------------------------------------------------------------------------

def _trapezoid_nodes(R: float, h: float):
    m = max(2, int(math.ceil(2.0 * R / h)))
    if m % 2 == 1:
        m += 1  # keep t = 0 on the grid and the rule symmetric
    t = np.linspace(-R, R, m + 1)
    # the step from R, not t[1] - t[0]: that difference carries the rounding
    # of t[0] = -R, eps * R / h relative (1.1e-12 at R = 256, h = 0.05)
    w = np.full(m + 1, 2.0 * R / m)
    w[0] *= 0.5
    w[-1] *= 0.5
    return t, w


def _trim_pairs(mass: np.ndarray):
    """Kept index range [lo, hi) of a symmetric node row after dropping the
    outer node pairs (i, N-1-i) whose summed mass stays within
    _TRIM_BUDGET * mass.sum(); returns (lo, hi, dropped mass)."""
    N = mass.size
    outer = np.cumsum(mass[:N // 2] + mass[::-1][:N // 2])
    budget = _TRIM_BUDGET * float(mass.sum())
    lo = int(np.searchsorted(outer, budget, side="right")) if math.isfinite(budget) else 0
    return lo, N - lo, float(outer[lo - 1]) if lo else 0.0


def _invert_1d(cf_eval, x: np.ndarray, R: float, h: float):
    t, w = _trapezoid_nodes(R, h)
    ft = np.asarray(cf_eval(t), dtype=complex) * w
    a = np.abs(ft)
    lo, hi, dropped = _trim_pairs(a)
    # columns: the fine rule, and the step-2h rule as doubled fine weights on
    # the even global indices (interior h -> 2h, endpoint h/2 -> h; t.size is
    # odd, so both endpoints sit on even indices)
    idx = np.arange(lo, hi)
    rules = np.stack([ft[lo:hi], np.where(idx % 2 == 0, 2.0 * ft[lo:hi], 0.0)], axis=1)
    tk = t[lo:hi]
    out = np.zeros((x.size, 2), dtype=complex)
    # phase matrix in chunks to bound memory
    chunk = max(1, int(4_000_000 // max(1, x.size)))
    for i0 in range(0, tk.size, chunk):
        sl = slice(i0, i0 + chunk)
        out += np.exp(-1j * np.outer(x, tk[sl])) @ rules[sl]
    scale = 1.0 / (2.0 * math.pi)
    fine = out[:, 0] * scale
    # Richardson difference of the fine and the step-2h rule estimates the
    # quadrature error of the fine rule
    quad_err = float(np.max(np.abs(fine - out[:, 1] * scale))) / 3.0
    kept = float(a[lo:hi].sum())
    return fine, quad_err, dropped * scale, kept * scale, (hi - lo, t.size)


def _invert_2d(cf_eval, gx: np.ndarray, gy: np.ndarray, R: float, h: float):
    t, w = _trapezoid_nodes(R, h)
    T1, T2 = np.meshgrid(t, t, indexing="ij")
    pts = np.stack([T1, T2], axis=-1)
    Fw = np.asarray(cf_eval(pts), dtype=complex) * np.outer(w, w)
    a = np.abs(Fw)
    r0, r1, _ = _trim_pairs(a.sum(axis=1))
    c0, c1, _ = _trim_pairs(a.sum(axis=0))
    kept = float(a[r0:r1, c0:c1].sum())
    dropped = float(a.sum() - kept)
    Fw = Fw[r0:r1, c0:c1]
    E1 = np.exp(-1j * np.outer(gx, t[r0:r1]))
    E2 = np.exp(-1j * np.outer(gy, t[c0:c1]))
    scale = 1.0 / (2.0 * math.pi) ** 2
    fine = (E1 @ Fw @ E2.T) * scale
    # step-2h rule: the fine weights times 2 per axis on even global indices
    er = np.arange(r0, r1) % 2 == 0
    ec = np.arange(c0, c1) % 2 == 0
    coarse = (E1[:, er] @ (4.0 * Fw[er][:, ec]) @ E2[:, ec].T) * scale
    quad_err = float(np.max(np.abs(fine - coarse))) / 3.0
    return (fine, quad_err, dropped * scale, kept * scale,
            ((r1 - r0) * (c1 - c0), t.size ** 2))


def invert(cf_eval: Callable, dim: int, grid: Grid, truncation_radius: float,
           quad_step: Optional[float] = None) -> GridDensity:
    """Evaluate (2 pi)^-d  integral of exp(-i<t,x>) cf(t) over |t| <= R on a grid.

    The anti-aliasing rule h * x_max <= pi/4 is enforced; the imaginary part
    of the result must be roundoff (<= 1e-9 by contract) and is discarded
    after checking, values above 1e-6 signal a non-Hermitian cf.
    ``meta["cf_mass"]`` is (2 pi)^-d sum |cf w| over the kept nodes: a
    relative error delta in every cf value moves each result by at most
    delta times it, which the estimates here cannot see.
    """
    if dim not in (1, 2):
        raise InvalidParameterError("invert supports dim 1 and 2")
    if grid.dim != dim:
        raise InvalidParameterError("grid dimension mismatch")
    R = float(truncation_radius)
    if not (R > 0 and math.isfinite(R)):
        raise InvalidParameterError("truncation_radius must be positive and finite")
    xmax = grid.max_coordinate()
    if quad_step is None:
        h = min(math.pi / (4.0 * max(xmax, 1e-12)), R / 64.0, 0.05)
    else:
        h = float(quad_step)
        if h <= 0:
            raise InvalidParameterError("quad_step must be positive")
        if h * xmax > math.pi / 4.0 + 1e-12:
            raise InvalidParameterError(
                f"aliasing: quad_step*x_max = {h * xmax:.4g} exceeds pi/4")
    tail = estimate_tail(cf_eval, dim, R)
    if math.isinf(tail):
        raise UnsupportedError(
            "cf shows no decay beyond the truncation radius; "
            "the omitted tail cannot be certified")

    if dim == 1:
        x = grid.axes[0].points()
        vals, quad_err, dropped, cf_mass, nodes = _invert_1d(cf_eval, x, R, h)
        shape = (x.size,)
    else:
        gx = grid.axes[0].points()
        gy = grid.axes[1].points()
        vals, quad_err, dropped, cf_mass, nodes = _invert_2d(cf_eval, gx, gy, R, h)
        shape = (gx.size, gy.size)

    im_max = float(np.max(np.abs(vals.imag)))
    scale = max(1.0, float(np.max(np.abs(vals.real))))
    if im_max > _IM_REJECT * scale:
        raise InconsistentCfError(
            f"imaginary residue {im_max:.3g} exceeds {_IM_REJECT}; cf is not Hermitian")
    out = vals.real.reshape(shape).copy()      # owns its buffer; the complex one goes
    # the dropped nodes shift the fine rule by at most `dropped` and the
    # step-2h rule, whose weights are 2^dim times the fine ones, by at most
    # 2^dim * dropped; so the Richardson difference moves by (1 + 2^dim)/3 of it
    quad_err += (1.0 + (1.0 + 2.0 ** dim) / 3.0) * dropped
    meta = {
        "truncation_radius": R,
        "quad_step": h,
        "est_tail_error": tail,
        "est_quad_error": quad_err,
        "est_total_error": tail + quad_err,
        "max_imag": im_max,
        "n_used": None,
        "quad_nodes": nodes,
        "dropped_mass": dropped,
        "cf_mass": cf_mass,
    }
    return GridDensity(dim=dim, axes=grid.axes, values=out, meta=meta)
