"""Densities of normalized noise-smoothed sums and convergence studies.

The model is Z_n = (X + X_1 + ... + X_n)/sqrt(n) with X drawn from a catalog
source and X_k i.i.d. isotropic noise.  Its characteristic function is
f(t/sqrt n) v(t/sqrt n)^n.

For symmetric Bernoulli noise, v = cos; substituting t = sqrt(n) u and
folding R onto the half period |s| <= pi/2 gives

    p_n(x) = (sqrt n / 2 pi) integral of cos^n(s) e^{-isw} F(s, a) ds,

with w = x sqrt(n), a = w + n and the periodized cf
    F(s, a) = sum_k e^{-i pi k a} f(pi k + s) = 2 sum_m p(a + 2m) e^{is(a + 2m)},
the two sides of the Poisson pair.  F is summed on the side the source
declares short (``lattice.periodized_cf``): the 1 or 2 lattice points of a
compact density, the few k of a compact cf, or a density with a declared
lattice tail.  The integral runs on one Gauss-Legendre rule over the window
|s| <= min(pi/2, U/sqrt n), where cos^n(s) <= e^{-ns^2/2} keeps all but
erfc(U/sqrt 2) of the mass, split into panels at the kinks of a compact cf.
With w = j + a, j an exact integer, the phase e^{-isw} F is e^{-isj} times
e^{-isa} F, and on the density side e^{-isa} F is one product of the
(points x terms) density table with the (terms x nodes) phases e^{2ism}: one
weighted product per rule.  A check rule with 3/4 of the nodes bounds the
quadrature error.  For general (non-Bernoulli) noise the plain trapezoid
inversion applies, with the window taken from a compact cf support or from
sampled decay.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.special import erfc, ndtr

from .distributions import NoiseDistribution, SourceDistribution, beta3 as _beta3
from .errors import InvalidParameterError, UnsupportedError
from .inversion import Grid, GridDensity, estimate_tail, grid_1d, grid_2d, invert
from .lattice import _reduced_periodized_cf, _short_side, check_pi_lattice_zeros

__all__ = [
    "SmoothedModel",
    "ConvergenceReport",
    "AdmissibleT",
    "smoothed_cf",
    "density",
    "distance_to_gaussian",
    "gaussian_window_deficit",
    "convergence_study",
    "admissible_T",
    "default_grid",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)
_WINDOW_U = 9.0         # cell window |s| <= U/sqrt(n): erfc(U/sqrt 2) ~ 2e-19 left out


def _max_threads() -> int:
    raw = os.environ.get("LLT_LAB_THREADS", "1")
    if not (raw.isdecimal() and int(raw) > 0):
        raise InvalidParameterError(
            f"LLT_LAB_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class SmoothedModel:
    source: SourceDistribution
    noise: NoiseDistribution

    def __post_init__(self):
        if self.noise.dim != self.source.dim:
            raise InvalidParameterError("source and noise dimensions differ")

    @property
    def dim(self) -> int:
        return self.source.dim


@dataclass(frozen=True)
class AdmissibleT:
    t_value: Optional[float]
    rationale: str  # 'beta3' | 'remark41' | 'unsupported'


@dataclass
class ConvergenceReport:
    n_schedule: tuple
    distances: dict                 # norm -> tuple of distances, per n
    fitted_log_slope: Optional[float]
    slope_norm: str
    condition_max_abs: float
    even_slope: Optional[float] = None
    odd_slope: Optional[float] = None
    est_errors: tuple = ()          # per-n density truncation budgets
    tol_met: tuple = ()             # per-n: est_errors[i] <= tol
    grid_meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# smoothed characteristic function
# ---------------------------------------------------------------------------

def smoothed_cf(model: SmoothedModel, n: int, t):
    """f(t/sqrt n) * v(t/sqrt n)^n at points t (scalar, array, or (..., d))."""
    if n < 1:
        raise InvalidParameterError("n must be a positive integer")
    rt = math.sqrt(n)
    ts = np.asarray(t, dtype=float) / rt
    out = np.asarray(model.source.cf(ts) * np.power(model.noise.cf(ts), n))
    return out.item() if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Bernoulli-noise cell engine (d = 1)
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


def _cell_rules(n: int, reach: float, breaks=()):
    """The main rule on the window |s| <= min(pi/2, U/sqrt n) and the check
    rule with 3/4 of its nodes, as (nodes, weights) pairs.  The window is
    split into Gauss-Legendre panels at the ``breaks`` inside it; each
    panel's node count covers phases e^{isq} up to |q| = reach and the
    cos^n bump, scaled by the panel's share of the window."""
    rt = math.sqrt(n)
    half = min(0.5 * math.pi, _WINDOW_U / rt)
    edges = [-half, *sorted(b for b in set(breaks) if -half < b < half), half]
    per = 0.8 * (reach + 6.0 * rt) + 64          # nodes per half-width pi/2
    rules = ([], []), ([], [])
    for lo, hi in zip(edges, edges[1:]):
        hp, share = 0.5 * (hi - lo), (hi - lo) / (2.0 * half)
        m = max(16, math.ceil(128 * share), int(hp / (0.5 * math.pi) * per))
        m2 = max(12, math.ceil(96 * share), int(0.75 * m))
        for (nodes, weights), k in zip(rules, (m, m2)):
            s, ws = _gl_nodes(k, hp)
            nodes.append(s + 0.5 * (hi + lo))
            weights.append(ws)
    return tuple((np.concatenate(s), np.concatenate(ws)) for s, ws in rules)


def _cos_power(n: int, s: np.ndarray) -> np.ndarray:
    """cos^n(s) on the window, through cos s = 1 - 2 sin^2(s/2): log(cos s)
    would inherit the rounding of cos s near 1, a relative error of n eps."""
    return np.exp(n * np.log1p(-2.0 * np.sin(0.5 * s) ** 2))


def _bernoulli_density_1d(source: SourceDistribution, n: int, x: np.ndarray):
    rt = math.sqrt(n)
    w = np.asarray(x, dtype=float) * rt
    # w = j + a with j = n mod 2 an exact integer and a = w + n wrapped to
    # [-1, 1]; w - 2 round(.) is exact, where forming w + n would round
    par = n % 2
    r = np.round((w + par) / 2.0)
    j = 2.0 * r - par
    a = (w - 2.0 * r) + par
    pref = rt / (2.0 * math.pi)
    half = min(0.5 * math.pi, _WINDOW_U / rt)
    side = _short_side(source, a, half)
    reach = float(np.max(np.abs(j))) + 1.0     # highest frequency of e^{-isw}
    if side.k is None:
        # e^{isa} (e^{2is})^m: frequencies j - 2m, integers
        reach += 2.0 * float(np.max(np.abs(side.m)))
        rules, phase_max = _cell_rules(n, reach), half * reach
    else:
        # the rule's panels end at the cf's kinks, s = 0 and |pi k + s| = T
        T = source.cf_support_radius
        rules = _cell_rules(n, reach, [0.0] + [e * T - math.pi * k
                                               for k in side.k for e in (-1, 1)])
        phase_max = half * reach + T

    def window_sum(s, ws):
        # e^{-isw} F(s, a) = e^{-isj} e^{-isa} F(s, a): j exact, so no phase
        # carries the rounding of w
        G = _reduced_periodized_cf(source, side, s, a)
        return pref * ((np.exp(-1j * np.outer(j, s)) * G).real @ (ws * _cos_power(n, s)))

    vals, check = (window_sum(s, ws) for s, ws in rules)
    A = _reduced_periodized_cf(source, side, np.zeros(1), a)[:, 0].real      # F(0, a)
    c0 = float(rules[0][1] @ _cos_power(n, rules[0][0]))
    # |F(s, a)| <= F(0, a) for a density p >= 0 (Poisson summation), so the
    # integrand outside the window is below F(0, a) e^{-ns^2/2}
    a_max = float(np.max(np.abs(A))) + side.tail
    window_err = erfc(_WINDOW_U / math.sqrt(2.0)) / _SQRT2PI * a_max
    # the check rule has 3/4 of the nodes; 9/7 is the order-2 Richardson
    # factor 1/((4/3)^2 - 1), a floor for the panels' faster convergence
    quad_err = 9.0 / 7.0 * float(np.max(np.abs(vals - check)))
    roundoff = (16.0 + phase_max) * np.finfo(float).eps * pref * c0 * a_max
    est = quad_err + pref * c0 * side.tail + window_err + roundoff
    return vals, est


# ---------------------------------------------------------------------------
# density dispatch
# ---------------------------------------------------------------------------

def default_grid(dim: int) -> Grid:
    return grid_1d(-5.0, 5.0, 1001) if dim == 1 else grid_2d(-5.0, 5.0, 101)


def _is_bernoulli(noise: NoiseDistribution) -> bool:
    return bool(getattr(noise, "is_symmetric_bernoulli", False))


def density(model: SmoothedModel, n: int, grid: Optional[Grid] = None,
            tol: float = 1e-9) -> GridDensity:
    """Density of Z_n on a grid, through the characteristic function.

    Bernoulli noise runs the exact cell engine (any n, near-oracle accuracy);
    separable two-dimensional models tensorize it; general noise uses the
    trapezoid inversion with a certified window.  ``meta["tol_met"]`` says
    whether the declared ``est_tail_error`` is at most ``tol``.
    """
    if n < 1:
        raise InvalidParameterError("n must be a positive integer")
    if not tol > 0:
        raise InvalidParameterError(f"tol must be positive, got {tol!r}")
    if grid is None:
        grid = default_grid(model.dim)
    if grid.dim != model.dim:
        raise InvalidParameterError("grid dimension mismatch")

    if model.dim == 1 and _is_bernoulli(model.noise):
        x = grid.axes[0].points()
        vals, est = _bernoulli_density_1d(model.source, n, x)
        meta = {"n_used": n, "truncation_radius": math.inf,
                "est_tail_error": est, "engine": "cell"}
        gd = GridDensity(dim=1, axes=grid.axes, values=vals, meta=meta)
    elif (model.dim == 2 and _is_bernoulli(model.noise)
            and model.source.components is not None):
        vx, ex = _bernoulli_density_1d(model.source.components[0], n,
                                       grid.axes[0].points())
        vy, ey = _bernoulli_density_1d(model.source.components[1], n,
                                       grid.axes[1].points())
        vals = np.outer(vx, vy)
        sup = max(float(np.max(np.abs(vx))), float(np.max(np.abs(vy))), 1.0)
        meta = {"n_used": n, "truncation_radius": math.inf,
                "est_tail_error": (ex + ey) * sup, "engine": "cell-tensor"}
        gd = GridDensity(dim=2, axes=grid.axes, values=vals, meta=meta)
    else:
        gd = _general_noise_density(model, n, grid, tol)
    gd.meta["tol_met"] = gd.est_tail_error <= tol
    return gd


def _general_noise_density(model: SmoothedModel, n: int, grid: Grid,
                           tol: float) -> GridDensity:
    if not model.source.flags.cf_integrable and model.source.cf_support_radius is None:
        raise UnsupportedError(
            f"{model.source.label}: smoothed cf not certifiably integrable")

    def cf_eval(t):
        return smoothed_cf(model, n, t)

    rt = math.sqrt(n)
    compact = model.source.cf_support_radius is not None
    # grow the window until the sampled tail certifies; a compact cf starts
    # at its support edge, where the sampled tail is already 0
    R = model.source.cf_support_radius * rt if compact else max(10.6, 2.0 * rt)
    tail = math.inf
    for _ in range(9):
        tail = estimate_tail(cf_eval, model.dim, R)
        if tail <= tol:
            break
        R *= 1.7
    if not math.isfinite(tail):
        raise UnsupportedError(f"{model.source.label}: smoothed cf tail does not decay")
    gd = invert(cf_eval, model.dim, grid, truncation_radius=R)
    # v(t/sqrt n)^n carries about n eps relative rounding in every cf value;
    # both trapezoid rules read the same values, so only this allowance
    # covers it
    gd.meta["est_tail_error"] = float(gd.meta["est_total_error"] + 2.0 * n
                                      * np.finfo(float).eps * gd.meta["cf_mass"])
    gd.meta["n_used"] = n
    gd.meta["engine"] = "invert-compact" if compact else "invert"
    return gd


# ---------------------------------------------------------------------------
# distances to the Gaussian and convergence studies
# ---------------------------------------------------------------------------

def _phi_on_grid(gd: GridDensity) -> np.ndarray:
    if gd.dim == 1:
        x = gd.axes[0].points()
        return np.exp(-0.5 * x * x) / _SQRT2PI
    gx = gd.axes[0].points()
    gy = gd.axes[1].points()
    R2 = gx[:, None] ** 2 + gy[None, :] ** 2
    return np.exp(-0.5 * R2) / (2.0 * math.pi)


def gaussian_window_deficit(grid: Grid) -> float:
    """Standard-normal mass outside the grid window (out-of-window bound
    for the grid distances)."""
    dims = []
    for ax in grid.axes:
        dims.append(ndtr(ax.upper) - ndtr(ax.origin))
    inside = float(np.prod(dims))
    return max(0.0, 1.0 - inside)


def _parabolic_peak(vals: np.ndarray, i: int) -> float:
    if i == 0 or i == vals.size - 1:
        return float(vals[i])
    a, b, c = vals[i - 1], vals[i], vals[i + 1]
    denom = 2.0 * b - a - c
    if denom <= 0:
        return float(b)
    return float(b + (c - a) ** 2 / (8.0 * denom))


def distance_to_gaussian(gd: GridDensity, norm: str) -> float:
    """Grid distance between the density values and the standard Gaussian:
    trapezoid L1/L2 or pointwise sup with a parabolic refinement around the
    grid argmax."""
    if norm not in ("l1", "l2", "sup"):
        raise InvalidParameterError("norm must be one of l1, l2, sup")
    diff = gd.values - _phi_on_grid(gd)
    if norm == "sup":
        flat = np.abs(diff).ravel()
        i = int(np.argmax(flat))
        if gd.dim == 1:
            return _parabolic_peak(np.abs(diff), i)
        return float(flat[i])
    integrand = np.abs(diff) if norm == "l1" else diff * diff
    m = integrand
    for ax in reversed(gd.axes):
        m = np.trapezoid(m, dx=ax.step, axis=-1)
    return float(m) if norm == "l1" else float(math.sqrt(m))


def _fit_loglog(ns, ds) -> Optional[float]:
    ns = np.asarray(ns, dtype=float)
    ds = np.asarray(ds, dtype=float)
    keep = ds > 0
    if keep.sum() < 2:
        return None
    A = np.vstack([np.ones(keep.sum()), np.log(ns[keep])]).T
    coef, *_ = np.linalg.lstsq(A, np.log(ds[keep]), rcond=None)
    return float(coef[1])


def convergence_study(model: SmoothedModel, n_schedule: Sequence[int],
                      norm: str = "l2", grid: Optional[Grid] = None,
                      tol: float = 1e-9) -> ConvergenceReport:
    """Distances to the Gaussian over a schedule of n with a fitted log-log
    slope.  When the pi-lattice condition fails, even and odd n are never
    mixed in one fit; the subsequences get separate slopes."""
    ns = tuple(int(v) for v in n_schedule)
    if any(b <= a for a, b in zip(ns, ns[1:])) or not ns:
        raise InvalidParameterError("n_schedule must be strictly increasing")
    if grid is None:
        grid = default_grid(model.dim)
    if norm == "sup" and model.dim == 1:
        step = grid.axes[0].step
        limit = 0.2 / math.sqrt(ns[-1])
        if step > limit + 1e-15:
            raise InvalidParameterError(
                f"sup-norm study needs grid step <= {limit:.4g} for n_max = {ns[-1]}"
                f" (got {step:.4g}); oscillations have period 2/sqrt(n)")

    def one(nv):
        gd = density(model, nv, grid, tol=tol)
        row = {nm: distance_to_gaussian(gd, nm) for nm in ("l1", "l2", "sup")}
        row["est"], row["tol_met"] = gd.est_tail_error, gd.meta["tol_met"]
        return row

    workers = min(_max_threads(), len(ns))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(one, ns))
    else:
        rows = [one(nv) for nv in ns]
    distances = {nm: tuple(r[nm] for r in rows) for nm in ("l1", "l2", "sup")}

    cond = check_pi_lattice_zeros(model.source, 20).max_abs
    ds = distances[norm]
    even_idx = [i for i, nv in enumerate(ns) if nv % 2 == 0]
    odd_idx = [i for i, nv in enumerate(ns) if nv % 2 == 1]
    mixed = bool(even_idx and odd_idx)
    condition_fails = cond > 1e-8
    slope = even_slope = odd_slope = None
    if condition_fails and mixed:
        even_slope = _fit_loglog([ns[i] for i in even_idx], [ds[i] for i in even_idx])
        odd_slope = _fit_loglog([ns[i] for i in odd_idx], [ds[i] for i in odd_idx])
    else:
        slope = _fit_loglog(ns, ds)
        if condition_fails:
            if even_idx:
                even_slope = slope
            else:
                odd_slope = slope
    return ConvergenceReport(
        n_schedule=ns,
        distances=distances,
        fitted_log_slope=slope,
        slope_norm=norm,
        condition_max_abs=float(cond),
        even_slope=even_slope,
        odd_slope=odd_slope,
        est_errors=tuple(r["est"] for r in rows),
        tol_met=tuple(r["tol_met"] for r in rows),
        grid_meta={
            "lo": grid.axes[0].origin,
            "hi": grid.axes[0].upper,
            "points": grid.axes[0].count,
            "gaussian_window_deficit": gaussian_window_deficit(grid),
        },
    )


# ---------------------------------------------------------------------------
# admissible support radius for the compact-cf theorem
# ---------------------------------------------------------------------------

def admissible_T(noise: NoiseDistribution, prefer: str = "auto") -> AdmissibleT:
    """Support radius T for which compactly supported source cfs give uniform
    convergence: 1/beta3 when the third directional moment is finite, or pi
    for symmetric atom-free unit-variance laws other than Bernoulli +-1."""
    if prefer not in ("auto", "beta3", "remark41"):
        raise InvalidParameterError("prefer must be auto, beta3 or remark41")
    t_b3 = None
    try:
        t_b3 = 1.0 / _beta3(noise)
    except UnsupportedError:
        t_b3 = None
    remark_ok = (
        noise.dim == 1
        and noise.flags.symmetric_about_0
        and getattr(noise, "zero_atom_free", False)
        and not getattr(noise, "is_symmetric_bernoulli", False)
        and noise.second_moment is not None
        and abs(noise.second_moment - 1.0) <= 1e-9
    )
    if prefer == "beta3":
        return AdmissibleT(t_b3, "beta3") if t_b3 is not None \
            else AdmissibleT(None, "unsupported")
    if prefer == "remark41":
        return AdmissibleT(math.pi, "remark41") if remark_ok \
            else AdmissibleT(None, "unsupported")
    if remark_ok:
        return AdmissibleT(math.pi, "remark41")
    if t_b3 is not None:
        return AdmissibleT(t_b3, "beta3")
    return AdmissibleT(None, "unsupported")
