"""Densities of normalized noise-smoothed sums and convergence studies.

The model is Z_n = (X + X_1 + ... + X_n)/sqrt(n) with X drawn from a catalog
source and X_k i.i.d. isotropic noise.  Its characteristic function is
f(t/sqrt n) v(t/sqrt n)^n.

For symmetric Bernoulli noise, v = cos and the inverse transform is computed
exactly cell by cell: substituting t = sqrt(n) u and splitting R into the
intervals of length pi centered at pi k gives

    p_n(x) = (sqrt n / 2 pi) [ C_n(w) A(x) + sum_k e^{-i pi k a} D_k(w) ],

with w = x sqrt(n), a = w + n,
    C_n(w) = integral of cos^n(s) e^{-isw} over |s| <= pi/2,
    A(x)   = sum_k e^{-i pi k a} f(pi k)      (phased cf lattice sum),
    D_k(w) = integral of (f(pi k + s) - f(pi k)) cos^n(s) e^{-isw} ds.

Both integrals run on one Gauss-Legendre rule over the window |s| <= S,
S = min(pi/2, U/sqrt n), where cos^n(s) <= e^{-ns^2/2} keeps all but
erfc(U/sqrt 2) of the mass; the D_k series is summed in blocks of k with
certified or extrapolated tails.  Each block's cell integrals are one real
matrix product, and its phases e^{-i pi k a} are one table e^{-i pi j a},
j <= 128, times a row per block, with every k a reduced mod 2 exactly.  A
check rule with 3/4 of the nodes bounds the quadrature error: the same pass
sums the differences between the two rules' terms as one series, so its
roundoff scales with those differences, not with D.  This reaches
oracle-level accuracy (~1e-9) for any n, which a plain truncated transform
cannot do for slowly decaying cfs.  For general (non-Bernoulli) noise the
plain trapezoid inversion applies, with the window taken from a compact cf
support or from sampled decay.
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
from .errors import InconsistentCfError, InvalidParameterError, UnsupportedError
from .inversion import Grid, GridDensity, estimate_tail, grid_1d, grid_2d, invert
from .lattice import check_pi_lattice_zeros, phased_cf_lattice_sum
from .seriesaccel import BlockSeries, resonance_floor

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
_CELL_BLOCK = 128
_CELL_K = 8192          # k budget of the main cell pass
_CELL_CHECK_K = 1024    # k budget of the quadrature check's difference series
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
    dim: int = 0

    def __post_init__(self):
        d = self.source.dim
        if self.noise.dim != d:
            raise InvalidParameterError("source and noise dimensions differ")
        if self.dim == 0:
            object.__setattr__(self, "dim", d)
        elif self.dim != d:
            raise InvalidParameterError("model dim inconsistent with source")


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
    grid_meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# smoothed characteristic function
# ---------------------------------------------------------------------------

def _stable_real_power(v: np.ndarray, n: int) -> np.ndarray:
    """v^n for real v in [-1, 1] without underflow surprises: the magnitude
    goes through n*log|v|, the sign through the parity of n."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    nz = np.abs(v) > 0.0
    with np.errstate(divide="ignore"):
        mag = np.exp(n * np.log(np.abs(v, where=nz, out=np.ones_like(v))))
    sgn = np.where((v < 0) & (n % 2 == 1), -1.0, 1.0)
    out = np.where(nz, sgn * mag, 0.0)
    return out


def smoothed_cf(model: SmoothedModel, n: int, t):
    """f(t/sqrt n) * v(t/sqrt n)^n at points t (scalar, array, or (..., d))."""
    if n < 1:
        raise InvalidParameterError("n must be a positive integer")
    rt = math.sqrt(n)
    ts = np.asarray(t, dtype=float) / rt
    fv = np.asarray(model.source.cf(ts))
    vv = np.asarray(model.noise.cf(ts))
    if np.iscomplexobj(vv):
        out = fv * np.power(vv, n)
    else:
        out = fv * _stable_real_power(vv, n)
    if np.ndim(out) == 0:
        return complex(out) if np.iscomplexobj(np.asarray(out)) else float(out)
    return out


# ---------------------------------------------------------------------------
# Bernoulli-noise cell engine (d = 1)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
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


def _cell_rules(n: int, w_max: float):
    """The main rule on the window |s| <= min(pi/2, U/sqrt n) and the check
    rule with 3/4 of its nodes, as (nodes, weights) pairs.  The node count
    covers the phase e^{-isw} up to |w| = w_max, scaled by the window share."""
    rt = math.sqrt(n)
    half = min(0.5 * math.pi, _WINDOW_U / rt)
    m = max(128, int(half / (0.5 * math.pi) * (0.8 * (w_max + 6.0 * rt) + 64)))
    return _gl_nodes(m, half), _gl_nodes(max(96, int(0.75 * m)), half)


def _window_phases(n: int, w: np.ndarray, s: np.ndarray, ws: np.ndarray):
    """phi[x, s] = ws cos^n(s) e^{-isw}, the weighted phase matrix of one
    window rule; its row sums are C_n(w).

    cos^n goes through cos s = 1 - 2 sin^2(s/2): log(cos s) would inherit
    the rounding of cos s near 1, a relative error of n eps."""
    cosn = np.exp(n * np.log1p(-2.0 * np.sin(0.5 * s) ** 2))
    return (ws * cosn)[None, :] * np.exp(-1j * np.outer(w, s))


def _exp_pi(k: np.ndarray, a_hi: np.ndarray, a_lo: np.ndarray) -> np.ndarray:
    """e^{-i pi k a} for integers k (axis 0) and a = a_hi + a_lo (axis 1).

    a_hi lies on the 2^-39 grid and |a_hi| <= 1, so k a_hi is exact for
    k <= 2^13 and reduces mod 2 without rounding; the quarter turn nearest
    it is applied exactly, which leaves an angle of at most pi/4 plus
    pi k a_lo, |k a_lo| <= 2^-27, to round."""
    r = np.mod(np.multiply.outer(k, a_hi), 2.0)
    q = np.round(2.0 * r)
    theta = math.pi * ((r - 0.5 * q) + np.multiply.outer(k, a_lo))
    return np.exp(-1j * theta) * np.array([1.0, -1j, -1.0, 1j, 1.0])[q.astype(int)]


def _phase_blocks(a: np.ndarray):
    """Yield (k, e^{-i pi k a}) for the cell blocks k = 1.._CELL_K.

    One table e^{-i pi j a}, j = 1..B, serves every block: block k0 + j has
    the table times the row e^{-i pi k0 a}.  Both are reduced exactly by
    :func:`_exp_pi`, so no phase carries the eps k error of a rounded k a."""
    a_hi = np.round(a * 2.0 ** 39) * 2.0 ** -39
    a_lo = a - a_hi
    j = np.arange(1, _CELL_BLOCK + 1)
    table = _exp_pi(j, a_hi, a_lo)
    for k0 in range(0, _CELL_K, _CELL_BLOCK):
        yield k0 + j, table if k0 == 0 else table * _exp_pi(k0, a_hi, a_lo)


def _feed(acc: BlockSeries, k: np.ndarray, cinc: np.ndarray, last: bool) -> bool:
    """Add one block of complex increments e^{-i pi k a} G_k (B, X); the +-k
    pair contributes twice their real part.  Only a budget's last block,
    the one an extrapolation reads, goes in term by term."""
    inc = 2.0 * cinc.real
    mag = float(np.max(np.abs(inc).sum(axis=0)))
    if last:
        return acc.add(k, inc.T, mag)
    # summed over axis 0, sequentially in k: the total is the one the
    # per-term partials would end on, bit for bit (a one-point grid is
    # summed pairwise, which differs by roundoff)
    return acc.add_total(k[-1], inc.sum(axis=0), mag)


def _series_value(acc: BlockSeries, certified: bool, cinc: np.ndarray,
                  imag=0.0):
    """(values, tail) of a fed series: its certified sum, or the dual-stride
    extrapolation with the resonance floor of its last block ``cinc``.  A
    real series fed without its start's imaginary part gets ``imag`` added
    back."""
    if certified:
        return acc.total + 1j * imag, acc.tail
    # unit stride preserves the phase signature e^{+-i pi(1 -+ a)}, block
    # stride conditions monotone tails
    vals, errs = acc.extrapolate()
    # grid points near a density jump make the cell phases rotate slower
    # than the k budget resolves; the floor keeps the estimate honest there
    floor = resonance_floor(np.ascontiguousarray(cinc.T), float(acc.ks[-1]))
    return vals + 1j * imag, float(np.max(np.maximum(errs, floor))) * 2.0


def _cell_series(f, rule, check_rule, a_frac: np.ndarray, tol: float):
    """Feed D = sum_k e^{-i pi k a} D_k(w) on the main rule, and the
    difference between the main and the check rule's terms, in one pass.

    Each rule is (nodes s, phase matrix phi); per block of k the cell
    integrals are one real matrix product per rule.  D runs to _CELL_K, the
    difference series to _CELL_CHECK_K; each stops early once certified.
    Every increment is real (the +-k pair gives twice the real part), so
    both series are fed the real part of their start, the k = 0 cell, and
    run in real arithmetic.  Returns (accumulator, certified, last block's
    complex increments, the start's imaginary part) for D and for the
    difference."""
    f0 = float(np.real(f(0.0)))

    def start(s, phi):                                          # k = 0 cell
        return phi @ (np.asarray(f(s), dtype=float) - f0)

    def cells(s, phi):
        # G[k, x] = sum_s (f(pi k + s) - f(pi k)) phi[x, s]: a real F times
        # the interleaved real and imaginary parts of phi
        phiT = np.ascontiguousarray(phi.T).view(np.float64)     # (M, 2X)

        def G(k, fk):
            F = np.asarray(f(math.pi * k[:, None] + s[None, :]), dtype=float)
            F -= fk[:, None]
            return (F @ phiT).view(np.complex128)
        return G

    (s, phi), (s2, phi2) = rule, check_rule
    main, check = cells(s, phi), cells(s2, phi2)
    d0 = start(s, phi)
    dd0 = d0 - start(s2, phi2)
    acc = BlockSeries(d0.real, _CELL_BLOCK, tol)
    dacc = BlockSeries(dd0.real, _CELL_BLOCK, tol)
    done = ddone = False
    cinc = dcinc = None
    for k, P in _phase_blocks(a_frac):
        check_on = not ddone and k[0] <= _CELL_CHECK_K
        if done and not check_on:
            break
        fk = np.asarray(f(math.pi * k), dtype=float)
        G = main(k, fk)
        if not done:
            cinc = P * G
            done = _feed(acc, k, cinc, k[-1] == _CELL_K)
        if check_on:
            dcinc = P * (G - check(k, fk))
            ddone = _feed(dacc, k, dcinc, k[-1] == _CELL_CHECK_K)
    return (acc, done, cinc, d0.imag), (dacc, ddone, dcinc, dd0.imag)


def _bernoulli_density_1d(source: SourceDistribution, n: int, x: np.ndarray,
                          tol: float):
    if not source.flags.symmetric_about_0:
        raise UnsupportedError(
            f"{source.label}: the cell engine requires a symmetric source")
    rt = math.sqrt(n)
    w = np.asarray(x, dtype=float) * rt
    # a = w + n wrapped to [-1, 1]; w - 2 round(.) is exact, where forming
    # w + n first would round at eps n
    par = n % 2
    a_frac = (w - 2.0 * np.round((w + par) / 2.0)) + par
    pref = rt / (2.0 * math.pi)

    A, a_tail, _ = phased_cf_lattice_sum(source, math.pi, -math.pi * a_frac,
                                         tol=tol * _SQRT2PI * 0.25)
    (s, ws), (s2, ws2) = _cell_rules(n, float(np.max(np.abs(w))) if w.size else 0.0)
    d_tol = tol * 2.0 * math.pi / rt * 0.25
    phi = _window_phases(n, w, s, ws)
    phi2 = _window_phases(n, w, s2, ws2)
    C = phi.sum(axis=1).real
    C2 = phi2.sum(axis=1).real
    (D, d_tail), (dD, dD_err) = (_series_value(*fed) for fed in _cell_series(
        source.cf, (s, phi), (s2, phi2), a_frac, d_tol))
    # the check rule certifies the main rule through the series of their
    # term differences, summed like D itself; 9/7 is the order-2 Richardson
    # factor 1/((4/3)^2 - 1), as a cf with a kink (fejer) converges like m^-2
    quad_err = 9.0 / 7.0 * (dD_err + float(np.max(np.abs(dD)
                                                  + np.abs(C - C2) * np.abs(A))))

    vals = pref * (C * A + D)
    im_max = float(np.max(np.abs(vals.imag)))
    p_max = float(np.max(np.abs(vals.real)))
    if im_max > 1e-6 * max(1.0, p_max):
        raise InconsistentCfError(f"imaginary residue {im_max:.3g} in cell engine")
    # |sum_k e^{-i pi k a} f(pi k + s)| <= A(x) at every s (Poisson summation),
    # so the integrand outside the window is below A e^{-ns^2/2}
    a_max = float(np.max(np.abs(A))) + a_tail
    window_err = erfc(_WINDOW_U / math.sqrt(2.0)) / _SQRT2PI * a_max
    roundoff = 16.0 * np.finfo(float).eps * p_max
    est = (pref * (float(np.max(np.abs(C))) * a_tail + d_tail + quad_err)
           + window_err + roundoff)
    return vals.real, est, im_max


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
        vals, est, im_max = _bernoulli_density_1d(model.source, n, x, tol)
        meta = {"n_used": n, "truncation_radius": math.inf,
                "est_tail_error": est, "max_imag": im_max, "engine": "cell"}
        gd = GridDensity(dim=1, axes=grid.axes, values=vals, meta=meta)
    elif (model.dim == 2 and _is_bernoulli(model.noise)
            and model.source.components is not None):
        vx, ex, im1 = _bernoulli_density_1d(model.source.components[0], n,
                                            grid.axes[0].points(), tol)
        vy, ey, im2 = _bernoulli_density_1d(model.source.components[1], n,
                                            grid.axes[1].points(), tol)
        vals = np.outer(vx, vy)
        sup = max(float(np.max(np.abs(vx))), float(np.max(np.abs(vy))), 1.0)
        meta = {"n_used": n, "truncation_radius": math.inf,
                "est_tail_error": (ex + ey) * sup, "max_imag": max(im1, im2),
                "engine": "cell-tensor"}
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
        row["est"] = gd.est_tail_error
        return row

    workers = min(_max_threads(), len(ns))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(one, ns))
    else:
        rows = [one(nv) for nv in ns]
    distances = {nm: tuple(r[nm] for r in rows) for nm in ("l1", "l2", "sup")}
    est_errors = tuple(r["est"] for r in rows)

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
        est_errors=est_errors,
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
