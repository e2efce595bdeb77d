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
e^{-isa} F, and on the density side e^{-isa} F is the (points x terms)
density table times the (terms x nodes) phases 2 e^{2ism}, formed once per
rule with the weights cos^n(s).  Rows go in blocks of about 4096 complex
table entries, 64 KiB arrays whose pages the heap reuses from call to call
(a whole-grid table goes back to the system and is faulted in again).  A
check rule with 3/4 of the nodes bounds the quadrature error.  For general
(non-Bernoulli) noise, ``inversion.invert`` integrates the smoothed cf on
the same panel rule over |t| <= R, with R from the tails of |f|^p that the
source and the noise declare (``cf_power_tail``) and panels ending at 0 and
at a compact cf's edge T sqrt(n).  In two dimensions, where every source is a
product, independent +-1 corner steps give the tensor product of its
components' one-dimensional densities; other two-dimensional noise is
refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .distributions import NoiseDistribution, SourceDistribution, beta3 as _beta3
from .errors import (_MAX_TABLE, InvalidParameterError, UnsupportedError, require_at_most,
                     require_integer, require_tol)
from .inversion import (_MAX_NODES, Grid, GridDensity, _check_error, _grid_integral,
                        _panel_rules, grid_1d, grid_2d, invert)
from .lattice import (_condition_holds, _fit_loglog, _product_tail, _reduced_periodized_cf,
                      _short_side, check_pi_lattice_zeros)

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
_SQRT1_2 = math.sqrt(0.5)
_WINDOW_U = 9.0         # cell window |s| <= U/sqrt(n): erfc(U/sqrt 2) ~ 2e-19 left out
_ROW_BLOCK = 4096       # a row block's complex entries: 64 KiB, under glibc's mmap threshold


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
    n = require_integer(n, 1, "n")
    rt = math.sqrt(n)
    ts = np.asarray(t, dtype=float) / rt
    out = np.asarray(model.source.cf(ts) * np.power(model.noise.cf(ts), n))
    return out.item() if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Bernoulli-noise cell engine (d = 1)
# ---------------------------------------------------------------------------

def _cos_power(n: int, s: np.ndarray) -> np.ndarray:
    """cos^n(s) on the window, through cos s = 1 - 2 sin^2(s/2): log(cos s)
    would inherit the rounding of cos s near 1, a relative error of n eps."""
    return np.exp(n * np.log1p(-2.0 * np.sin(0.5 * s) ** 2))


def _lattice_split(x, n: int):
    """x sqrt(n) = j + a, j an exact integer of n's parity and a = x sqrt(n) + n
    wrapped to [-1, 1] within a few eps, where adding n would round by n eps."""
    n = require_integer(n, 1, "n")
    w = np.asarray(x, dtype=float) * math.sqrt(n)
    par = n % 2
    r = np.round((w + par) / 2.0)
    return 2.0 * r - par, (w - 2.0 * r) + par


def _bernoulli_density_1d(source: SourceDistribution, n: int, x: np.ndarray):
    rt = math.sqrt(n)
    half = min(0.5 * math.pi, _WINDOW_U / rt)

    def rule_size(reach):
        # nodes per half-width pi/2 that cover the frequencies up to reach
        # and the cos^n bump, and the nodes of the window
        per = 0.8 * (reach + 6.0 * rt) + 64
        nodes = half / (0.5 * math.pi) * per
        require_at_most(f"{source.label}: the cell rule", nodes, _MAX_NODES, "nodes")
        return per, nodes

    # |j| >= |w| - 1 below, so the rule needs at least the nodes of reach
    # max|x| sqrt(n): a grid past the cap is refused before w = x sqrt(n),
    # which may overflow, is formed
    rule_size(float(np.max(np.abs(x))) * rt)
    j, a = _lattice_split(x, n)
    pref = rt / (2.0 * math.pi)
    side = _short_side(source, a, half)
    # e^{-isw} has frequencies up to max|j| + 1 and the short side's phases
    # up to side.freq, on panels that end at the side's kinks
    reach = float(np.max(np.abs(j))) + 1.0 + side.freq
    per, nodes = rule_size(reach)
    # the (points x nodes) table is walked in row blocks: the cap bounds the work
    require_at_most("the cell rule", x.size * max(nodes, 128), _MAX_TABLE, "table entries")
    rules = _panel_rules(half, side.kinks, per, 0.5 * math.pi)

    def window_sum(s, ws):
        # e^{-isw} F(s, a) = e^{-isj} e^{-isa} F(s, a): j exact, so no phase
        # carries the rounding of w.  No block has one row but a one-point
        # grid's: BLAS's vector kernels round otherwise than its matrix kernels
        G, c, out = _reduced_periodized_cf(source, side, s, a), _cos_power(n, s), np.empty(x.size)
        w, rows = ws * c, max(2, _ROW_BLOCK // s.size)
        edges = [*range(0, max(x.size - 1, 1), rows), x.size]
        for r in map(slice, edges, edges[1:]):
            out[r] = (np.exp(-1j * np.outer(j[r], s)) * G(r)).real @ w
        return pref * out, float(ws @ c)

    (vals, c0), (check, _) = (window_sum(s, ws) for s, ws in rules)
    A = _reduced_periodized_cf(source, side, np.zeros(1), a)(slice(None))[:, 0].real  # F(0, a)
    # |F(s, a)| <= F(0, a) for a density p >= 0 (Poisson summation), so the
    # integrand outside the window is below F(0, a) e^{-ns^2/2}
    a_max = float(np.max(np.abs(A))) + side.tail
    window_err = math.erfc(_WINDOW_U / math.sqrt(2.0)) / _SQRT2PI * a_max
    quad_err = _check_error(vals, check)
    roundoff = (16.0 + (half * reach + side.edge)) * np.finfo(float).eps * pref * c0 * a_max
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
    general one-dimensional noise uses the panel inversion over a window
    bounded by the laws' declared cf tails.  In two dimensions, where the
    source is a product, symmetric Bernoulli noise tensorizes the cell
    engine; other two-dimensional noise is refused.
    ``meta["tol_met"]`` says whether the declared ``est_tail_error`` is at
    most ``tol``.
    """
    n = require_integer(n, 1, "n")
    require_tol(tol)
    if grid is None:
        grid = default_grid(model.dim)
    if grid.dim != model.dim:
        raise InvalidParameterError("grid dimension mismatch")
    # every rule has at least 128 nodes, so a one-dimensional grid's
    # (points x nodes) table has count x 128 entries or more; a
    # two-dimensional one holds count^2 values
    size = math.prod(ax.count for ax in grid.axes)
    require_at_most("the grid", 128 * size if grid.dim == 1 else size, _MAX_TABLE,
                    "table entries")

    if model.dim == 1 and _is_bernoulli(model.noise):
        vals, est = _bernoulli_density_1d(model.source, n, grid.axes[0].points())
        engine = "cell"
    elif model.dim == 1:
        gd = _general_noise_density(model, n, grid)
        gd.meta["tol_met"] = gd.est_tail_error <= tol
        return gd
    elif _is_bernoulli(model.noise):
        (vx, ex), (vy, ey) = (_bernoulli_density_1d(c, n, ax.points())
                              for c, ax in zip(model.source.components, grid.axes))
        mx, my = float(np.max(np.abs(vx))), float(np.max(np.abs(vy)))
        if not math.isfinite(mx * my):
            raise UnsupportedError("the product density overflows")
        vals = np.outer(vx, vy)
        est, engine = _product_tail(float(ex), mx, float(ey), my), "cell-tensor"
    else:
        raise UnsupportedError("a two-dimensional density needs a product source "
                               "under symmetric Bernoulli noise")
    meta = {"truncation_radius": math.inf, "est_tail_error": est, "engine": engine,
            "tol_met": bool(est <= tol)}
    return GridDensity(dim=model.dim, axes=grid.axes, values=vals, meta=meta)


def _smoothed_cf_tail(model: SmoothedModel, n: int):
    """R -> a bound on the integral of |f(t/sqrt n) v(t/sqrt n)^n| over
    |t| > R, from the laws' declared tails: the least of the source's with
    |v| <= 1, the noise's n-th power with |f| <= 1, and Cauchy-Schwarz on
    both.  Raises UnsupportedError for a law that declares none."""
    f, v = model.source.cf_power_tail, model.noise.cf_power_tail
    for law, declared in ((model.source, f), (model.noise, v)):
        if declared is None:
            raise UnsupportedError(f"{law.label}: no tail of |cf|^p declared")
    rt = math.sqrt(n)

    def tail(R):
        r = R / rt
        f2, v2 = f(r, 2), v(r, 2 * n)
        both = math.sqrt(f2 * v2) if f2 and v2 else 0.0
        return rt * min(f(r, 1), v(r, n), both)

    return tail


def _general_noise_density(model: SmoothedModel, n: int, grid: Grid) -> GridDensity:
    edge = model.source.cf_support_radius
    gd = invert(lambda t: smoothed_cf(model, n, t), grid, _smoothed_cf_tail(model, n),
                () if edge is None else (edge * math.sqrt(n),))
    # v(t/sqrt n)^n carries about n eps relative rounding in every cf value;
    # both rules read values with the same error, so only this allowance
    # covers it
    gd.meta["est_tail_error"] += 2.0 * n * np.finfo(float).eps * gd.meta["cf_mass"]
    gd.meta["engine"] = "invert" if edge is None else "invert-compact"
    return gd


# ---------------------------------------------------------------------------
# distances to the Gaussian and convergence studies
# ---------------------------------------------------------------------------

def _phi(x: np.ndarray) -> np.ndarray:
    """The standard normal density exp(-x^2/2)/sqrt(2 pi) at each x."""
    return np.exp(-0.5 * x * x) / _SQRT2PI


def _phi_on_grid(gd: GridDensity) -> np.ndarray:
    if gd.dim == 1:
        return _phi(gd.axes[0].points())
    gx = gd.axes[0].points()
    gy = gd.axes[1].points()
    R2 = gx[:, None] ** 2 + gy[None, :] ** 2
    return np.exp(-0.5 * R2) / (2.0 * math.pi)


def _ndtr(x: float) -> float:
    # the standard normal cdf on cephes' branches: erf where the cdf is near
    # 1/2, and erfc of |x| in the tails, so no tail cancels
    y = x * _SQRT1_2
    if abs(y) < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(y)
    tail = 0.5 * math.erfc(abs(y))
    return 1.0 - tail if y > 0 else tail


def gaussian_window_deficit(grid: Grid) -> float:
    """Standard-normal mass outside the grid window (out-of-window bound
    for the grid distances)."""
    inside = math.prod(_ndtr(ax.upper) - _ndtr(ax.origin) for ax in grid.axes)
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
    if norm == "l1":
        return _grid_integral(np.abs(diff), gd.axes)
    # diff^2 may pass the largest float where the norm does not: square diff
    # scaled exactly by the power of two of max|diff|, and scale the root back
    e = math.frexp(float(np.max(np.abs(diff))))[1]
    with np.errstate(over="ignore"):
        scaled = np.ldexp(diff, -e)
        return float(np.ldexp(math.sqrt(_grid_integral(scaled * scaled, gd.axes)), e))


def convergence_study(model: SmoothedModel, n_schedule: Sequence[int],
                      norm: str = "l2", grid: Optional[Grid] = None,
                      tol: float = 1e-9) -> ConvergenceReport:
    """Distances to the Gaussian over a schedule of n with a fitted log-log
    slope.  The pi-lattice condition is judged as ``check-condition`` judges
    it (``lattice._condition_holds``, |k| <= 20, against ``tol``); when it
    fails under Bernoulli noise, even and odd n are never mixed in one fit;
    the subsequences get separate slopes."""
    ns = tuple(require_integer(v, 1, "n") for v in n_schedule)
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

    rows = []
    for nv in ns:
        gd = density(model, nv, grid, tol=tol)
        rows.append({nm: distance_to_gaussian(gd, nm) for nm in ("l1", "l2", "sup")}
                    | {"est": gd.est_tail_error, "tol_met": gd.meta["tol_met"]})
    distances = {nm: tuple(r[nm] for r in rows) for nm in ("l1", "l2", "sup")}

    zeros = check_pi_lattice_zeros(model.source, 20)
    ds = distances[norm]
    parities = [[i for i, nv in enumerate(ns) if nv % 2 == r] for r in (0, 1)]
    # p_n oscillates with the parity of n only on the Bernoulli lattice; a
    # parity absent from the schedule fits to None
    split = _is_bernoulli(model.noise) and not _condition_holds(zeros, tol)
    even_slope = odd_slope = None
    if split:
        even_slope, odd_slope = (_fit_loglog([ns[i] for i in p], [ds[i] for i in p])
                                 for p in parities)
    slope = None if split and all(parities) else _fit_loglog(ns, ds)
    return ConvergenceReport(
        n_schedule=ns,
        distances=distances,
        fitted_log_slope=slope,
        slope_norm=norm,
        condition_max_abs=zeros.max_abs,
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

def admissible_T(noise: NoiseDistribution) -> AdmissibleT:
    """Support radius T for which compactly supported source cfs give uniform
    convergence: pi for a symmetric unit-variance one-dimensional law with a
    density (remark 4.1), else 1/beta3 where the law stores a finite third
    absolute moment, else none ('unsupported')."""
    remark_ok = (
        noise.dim == 1
        and noise.flags.symmetric_about_0
        and noise.density is not None
        and not _is_bernoulli(noise)
        and noise.second_moment is not None
        and abs(noise.second_moment - 1.0) <= 1e-9
    )
    if remark_ok:
        return AdmissibleT(math.pi, "remark41")
    try:
        return AdmissibleT(1.0 / _beta3(noise), "beta3")
    except UnsupportedError:
        return AdmissibleT(None, "unsupported")
