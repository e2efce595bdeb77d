"""Oscillation structure of the smoothed densities in one dimension.

Away from the vanishing condition on the pi-lattice, p_n does not converge
pointwise; instead p_n(x) tracks A_n(x) phi(x) where the oscillation factor

    A_n(x) = sum_k e^{-i pi k (x sqrt n + n)} f(pi k)
           = 2 sum_m p(2m + x sqrt n + n)

is computed here on both sides of that Poisson pair independently: the cf
side in closed form (``lattice._cf_side``: a finite head plus Bernoulli
polynomials) and the density side as ``lattice._density_sum`` sums it,
at the offsets of ``smoothing._lattice_split``, under Bernoulli noise alone.
The report gives their gap, the 2/sqrt(n) periodicity defect, and the sup
residual against A_n * phi per n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .distributions import SourceDistribution
from .errors import InvalidParameterError, UnsupportedError, require_tol
from .inversion import Grid
from .lattice import _cf_side, _density_sum, _require_summable
from .smoothing import SmoothedModel, _is_bernoulli, _lattice_split, _phi, default_grid, density

__all__ = [
    "OscillationReport",
    "EvenOddLimits",
    "oscillation_factor_cf",
    "oscillation_factor_density",
    "oscillation_report",
    "even_odd_limits",
]

_PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class EvenOddLimits:
    even_limit: float
    odd_limit: float
    route: str
    tail: float             # omitted series part, bounding each limit's error
    tol_met: bool           # tail <= the tol asked for


@dataclass
class OscillationReport:
    n: int
    a_values: np.ndarray
    p_values: np.ndarray            # the density p_n on the same grid
    residual_sup: float
    period_defect: float
    method_gap: Optional[float]     # None where both routes summed the cf side
    grid_meta: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def _require_bernoulli_1d(model: SmoothedModel):
    if model.dim != 1:
        raise UnsupportedError("oscillation analysis is one-dimensional")
    if not _is_bernoulli(model.noise):
        raise UnsupportedError("A_n needs symmetric Bernoulli noise, the lattice of p_n")


# ---------------------------------------------------------------------------
# the two routes to A_n
# ---------------------------------------------------------------------------

def _route(source: SourceDistribution) -> str:
    """The canonical route to A_n: the density lattice sum for a continuous
    density, the cf side otherwise.  At a density jump both routes give the
    mean of the one-sided limits, so the choice is no jump convention: it
    fixes which of the two values a report carries."""
    if source.flags.density_continuous and source.density is not None:
        return "density"
    return "cf"


def _a_factor(source: SourceDistribution, a, tol: float, route: str):
    """A_n at the lattice offsets a (``_lattice_split``) along one route;
    returns (values, tail, side), side the one summed: the density route
    takes the cf side where the law declares no density side of at most
    2048 terms (``_density_sum``)."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if route == "density":
        vals, tail, side = _density_sum(source, 2.0, a)
        return 2.0 * vals, 2.0 * tail, side
    # e^{-i pi k a} is e^{2 pi i k x} at x = -a/2
    vals, tail = _cf_side(source, math.pi, -0.5 * a)
    _require_summable(tail, tol, f"{source.label}: cf lattice sum")
    im = float(np.max(np.abs(np.imag(vals))))
    if im > 1e-9 * max(1.0, float(np.max(np.abs(np.real(vals))))):
        raise UnsupportedError(f"oscillation sum has imaginary residue {im:.3g}")
    return np.real(vals), tail, "cf"


def _factor_at(model: SmoothedModel, n: int, x: float, tol: float, route: str) -> float:
    _require_bernoulli_1d(model)
    require_tol(tol)
    try:
        x = float(x)
    except OverflowError:
        raise InvalidParameterError("x must be within the largest float") from None
    if not math.isfinite(x):
        raise InvalidParameterError(f"x must be finite, got {x!r}")
    vals, _, _ = _a_factor(model.source, _lattice_split(x, n)[1], tol, route)
    return float(vals[0])


def oscillation_factor_cf(model: SmoothedModel, n: int, x: float,
                          tol: float = 1e-10) -> float:
    """A_n(x) as the phase-twisted lattice sum of the source cf."""
    return _factor_at(model, n, x, tol, "cf")


def oscillation_factor_density(model: SmoothedModel, n: int, x: float,
                               tol: float = 1e-10) -> float:
    """A_n(x) as twice the density sum over the even lattice shifted by
    x sqrt(n) + n."""
    return _factor_at(model, n, x, tol, "density")


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

def oscillation_report(model: SmoothedModel, n: int,
                       grid: Optional[Grid] = None,
                       tol: float = 1e-9) -> OscillationReport:
    """A_n along both routes on a grid, the residual sup |p_n - A_n phi|,
    and the periodicity defect of A_n at period 2/sqrt(n).

    The canonical a_values follow the route of ``_route``; the route gap is
    the largest over the grid, jumps of the density included, where both
    routes take the mean of the one-sided limits, and None where the density
    route summed the cf side too, which leaves nothing to compare.
    """
    _require_bernoulli_1d(model)
    if grid is None:
        grid = default_grid(1)
    gd = density(model, n, grid, tol=tol)      # refuses a bad tol, n or grid first
    x = grid.axes[0].points()
    src = model.source
    route = _route(src)
    _, a = _lattice_split(x, n)
    a_cf, cf_tail, _ = _a_factor(src, a, tol, "cf")
    a_dn, dn_tail, dn_side = _a_factor(src, a, tol, "density")
    method_gap = float(np.max(np.abs(a_cf - a_dn))) if dn_side == "density" else None
    canonical = a_dn if route == "density" else a_cf

    phi = _phi(x)
    residual_sup = float(np.max(np.abs(gd.values - canonical * phi)))

    probes = np.linspace(x[0], x[-1] - 2.0 / math.sqrt(n), 25)
    ap, _, _ = _a_factor(src, _lattice_split(probes, n)[1], tol, route)
    aps, _, _ = _a_factor(src, _lattice_split(probes + 2.0 / math.sqrt(n), n)[1], tol, route)
    period_defect = float(np.max(np.abs(aps - ap)))

    return OscillationReport(
        n=n,
        a_values=canonical,
        p_values=gd.values,
        residual_sup=residual_sup,
        period_defect=period_defect,
        method_gap=method_gap,
        grid_meta={"lo": x[0], "hi": x[-1], "points": x.size},
        meta={"cf_tail": cf_tail, "density_tail": dn_tail,
              "route": dn_side if route == "density" else "cf",
              "density_est_error": gd.est_tail_error,
              "tol_met": bool(gd.meta["tol_met"] and max(cf_tail, dn_tail) <= tol)},
    )


def even_odd_limits(source: SourceDistribution, tol: float = 1e-10) -> EvenOddLimits:
    """Limits of p_n(0) under Bernoulli noise along even and odd n: phi(0)
    times the oscillation factor at the origin for each parity.

    The route is that of ``_route``: the density lattice sum for a
    continuous density, the cf side otherwise (uniform).  ``route`` names
    the side that was summed (``_a_factor``).
    """
    require_tol(tol)
    if source.dim != 1:
        raise UnsupportedError("even/odd limits are one-dimensional")
    vals, tail, side = _a_factor(source, np.array([0.0, 1.0]), tol, _route(source))
    return EvenOddLimits(_PHI0 * float(vals[0]), _PHI0 * float(vals[1]), side,
                         _PHI0 * tail, bool(_PHI0 * tail <= tol))
