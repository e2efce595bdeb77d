import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy.special import dawsn, erfcx, wofz

from conftest import offset_points
from llt_lab import (InconsistentCfError, InvalidParameterError, SmoothedModel,
                     UnsupportedError, density, gaussian_noise, grid_1d, grid_2d, invert,
                     make_fejer, make_gaussian, make_laplace, make_uniform, uniform_noise)
from llt_lab.inversion import (_CF_REACH, _MAX_NODES, Axis, Grid, _phase_factors,
                              _phase_rounding, _phase_sums)

EPS = float(np.finfo(float).eps)


def _tail(dist, p=1):
    """The law's declared tail of |cf|^p, as invert takes it."""
    return lambda r: dist.cf_power_tail(r, p)


def test_gaussian_self_pair():
    g = make_gaussian(1.0)
    gd = invert(g.cf, grid_1d(-5, 5, 101), _tail(g))
    assert gd.values[50] == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)
    assert gd.meta["max_imag"] <= 1e-9


def _sinc2(t):
    """cf of the sum of two uniforms on [-1, 1], whose density is the
    triangle (2 - |x|)/4: a 1/t^2 tail."""
    return make_uniform(1.0).cf(t) ** 2


def test_uniform_slow_tail():
    # the window stops at the node cap and declares the 1/R tail it leaves
    gd = invert(_sinc2, grid_1d(-5, 5, 101), _tail(make_uniform(1.0), 2))
    assert gd.values[50] == pytest.approx(0.5, abs=gd.est_tail_error)
    assert 0.0 < gd.meta["est_window_tail"] < gd.est_tail_error < 1e-3


def test_fejer_compact_no_tail():
    f = make_fejer(1.0)
    gd = invert(f.cf, grid_1d(-5, 5, 101), _tail(f), kinks=(1.0,))
    assert gd.values[50] == pytest.approx(1.0 / (2 * math.pi), abs=1e-15)
    assert gd.meta["truncation_radius"] == 1.0
    assert gd.meta["est_window_tail"] == 0.0


def test_non_hermitian_cf_rejected():
    def bad(t):
        t = np.asarray(t, dtype=float)
        return np.exp(-0.5 * t * t) * (1.0 + 0.3j)

    with pytest.raises(InconsistentCfError):
        invert(bad, grid_1d(-3, 3, 21), _tail(make_gaussian(1.0)))


def test_symmetric_output():
    l = make_laplace(1.0)
    gd = invert(l.cf, grid_1d(-5, 5, 101), _tail(l))
    assert float(np.max(np.abs(gd.values - gd.values[::-1]))) <= 1e-10


def test_mass_conservation():
    g = make_gaussian(1.0)
    gd = invert(g.cf, grid_1d(-6, 6, 241), _tail(g))
    assert gd.mass() == pytest.approx(1.0, abs=1e-4)


def test_negative_excursions_within_tail_budget():
    gd = invert(_sinc2, grid_1d(-5, 5, 201), _tail(make_uniform(1.0), 2))
    worst = float(np.min(gd.values))
    assert worst >= -gd.est_tail_error


# ---------------------------------------------------------------------------
# catalog pairs reproduce their density through the transform
# ---------------------------------------------------------------------------

def test_pair_consistency_fast_decay():
    pts = offset_points(21, 0.35)
    grid = Grid((Axis(pts[0], 0.35, 21),))
    # the triangular cf's kinks at 0 and T end panels
    for dist, kinks in ((make_gaussian(1.0), ()), (make_fejer(0.7), (0.7,))):
        gd = invert(dist.cf, grid, _tail(dist), kinks)
        err = np.abs(gd.values - np.asarray(dist.density(pts)))
        assert np.all(err <= gd.est_tail_error)
        assert gd.est_tail_error <= 1e-13


def test_pair_consistency_laplace_tight():
    # 1/t^2 tail: the window stops at the node cap, and its declared tail
    # bounds the actual error, which is much smaller because the signed
    # truncation error cancels
    pts = offset_points(21, 0.35)
    grid = Grid((Axis(pts[0], 0.35, 21),))
    dist = make_laplace(1.0)
    gd = invert(dist.cf, grid, _tail(dist))
    err = np.abs(gd.values - np.asarray(dist.density(pts)))
    assert np.all(err <= gd.est_tail_error)
    assert float(err.max()) <= 1e-6
    assert gd.est_tail_error <= 1e-3


def test_pair_consistency_uniform_honest_budget():
    # |sin t/t| is not integrable: its declared tail is infinite, and the
    # inverse refuses it rather than return an unbounded truncation
    u = make_uniform(1.0)
    assert math.isinf(u.cf_power_tail(1e3, 1))
    with pytest.raises(UnsupportedError):
        invert(u.cf, grid_1d(-3, 3, 21), _tail(u))


def test_invert_refuses_non_decaying_cf():
    const = lambda t: np.ones_like(np.asarray(t, dtype=float))  # noqa: E731
    with pytest.raises(UnsupportedError):
        invert(const, grid_1d(-3, 3, 21), lambda r: math.inf)


def test_invert_refuses_a_two_dimensional_grid():
    # the inverse is one-dimensional; density() forms a two-dimensional
    # density as the product of its components' one-dimensional ones
    g = make_gaussian(1.0)
    with pytest.raises(InvalidParameterError, match="one-dimensional"):
        invert(g.cf, grid_2d(-3, 3, 5), _tail(g))


# ---------------------------------------------------------------------------
# declared tails of |cf|^p
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dist", [make_uniform(1.0), make_uniform(math.sqrt(3.0)),
                                  make_laplace(1.0), make_laplace(0.25),
                                  make_gaussian(1.0), make_fejer(0.7)],
                         ids=lambda d: d.label)
def test_declared_tail_bounds_the_integral(dist):
    # against mpmath quadrature of |f|^p over |u| > r, in panels that end at
    # the fejer kink and at the first zeros of sinc
    def side(c, r, p):
        cuts = sorted({r, 0.7, *(k * math.pi / math.sqrt(3.0) for k in range(1, 12)),
                       *(k * math.pi for k in range(1, 12))})
        f = lambda u: abs(c.cf(float(u))) ** p  # noqa: E731
        return 2 * float(mpmath.quad(f, [v for v in cuts if v >= r] + [mpmath.inf],
                                     method="gauss-legendre"))

    with mpmath.workdps(20):
        for p in (1, 2, 16):
            for r in (0.0, 0.4, 2.5, 9.0):
                bound = dist.cf_power_tail(r, p)
                if p == 1 and dist.label.startswith("uniform"):
                    assert math.isinf(bound)        # |sin u/u| is not integrable
                    continue
                exact = side(dist, r, p)
                assert bound >= exact * (1 - 1e-6), (p, r, bound, exact)


# ---------------------------------------------------------------------------
# general noise: every point within its declared error, against references
# that share nothing with the panel rule
# ---------------------------------------------------------------------------

GENERAL_SOURCES = {"laplace:b=1": make_laplace(1.0), "gaussian:sigma=1": make_gaussian(1.0),
                   "fejer:T=0.7": make_fejer(0.7)}


def _gaussian_noise_density(name, n, x):
    """Closed-form density of (X + S_n)/sqrt(n), S_n ~ N(0, n)."""
    rt = math.sqrt(n)
    if name == "gaussian:sigma=1":
        var = 1.0 + 1.0 / n
        return np.exp(-0.5 * x * x / var) / math.sqrt(2.0 * math.pi * var)
    if name == "laplace:b=1":
        # Laplace(1) convolved with N(0, n); erfcx keeps e^{n/2} finite
        y, s = x * rt, math.sqrt(2.0 * n)
        return rt / 4.0 * np.exp(-0.5 * y * y / n) * (erfcx((n - y) / s) + erfcx((n + y) / s))
    # (1/pi) int_0^L (1 - t/L) e^{-t^2/2} cos(tx) dt with L = 0.7 sqrt(n),
    # through E = e^{-x^2/2} erf((L - ix)/sqrt 2) and the Faddeeva function
    L = 0.7 * rt
    E = (np.exp(-0.5 * x * x)
         - np.exp(-0.5 * L * L + 1j * L * x) * wofz((x + 1j * L) / math.sqrt(2.0)))
    i1 = math.sqrt(math.pi / 2.0) * E.real
    im_j = math.sqrt(math.pi / 2.0) * E.imag + math.sqrt(2.0) * dawsn(x / math.sqrt(2.0))
    i2 = 1.0 - math.exp(-0.5 * L * L) * np.cos(x * L) - x * im_j
    return (i1 - i2 / L) / math.pi


def _uniform_noise_density(name, n, x):
    """(1/pi) int_0^40 f(t/sqrt n) sinc(sqrt 3 t/sqrt n)^n cos(tx) dt by mpmath
    quadrature in unit panels (the fejer cf stops at its kink 0.7 sqrt n);
    beyond t = 40 the integrand is below 1e-20 for n >= 16."""
    rt = mpmath.sqrt(n)
    f = {"laplace:b=1": lambda u: 1 / (1 + u * u),
         "gaussian:sigma=1": lambda u: mpmath.exp(-u * u / 2),
         "fejer:T=0.7": lambda u: 1 - abs(u) / mpmath.mpf("0.7")}[name]
    upper = min(40, mpmath.mpf("0.7") * rt) if name == "fejer:T=0.7" else 40
    cuts = [mpmath.mpf(k) for k in range(int(upper) + 1)] + [upper]
    h = mpmath.sqrt(3) / rt
    with mpmath.workdps(20):
        return np.array([float(mpmath.quad(
            lambda t: f(t / rt) * mpmath.sinc(h * t) ** n * mpmath.cos(t * xi),
            cuts, method="gauss-legendre") / mpmath.pi) for xi in x])


@pytest.mark.parametrize("n", [16, 256, 4096, 16384])
@pytest.mark.parametrize("noise", ["uniform", "gaussian"])
@pytest.mark.parametrize("source", sorted(GENERAL_SOURCES))
def test_general_noise_density_within_estimate(source, noise, n):
    model = SmoothedModel(GENERAL_SOURCES[source],
                          uniform_noise() if noise == "uniform" else gaussian_noise())
    gd = density(model, n)
    x = gd.axes[0].points()
    if noise == "gaussian":
        idx = np.arange(x.size)
        ref = _gaussian_noise_density(source, n, x)
    else:
        idx = np.array([0, 437, 500, 871])
        ref = _uniform_noise_density(source, n, x[idx])
    assert gd.meta["tol_met"]
    assert np.all(np.abs(gd.values[idx] - ref) <= gd.est_tail_error)


def test_general_noise_window_does_not_grow_with_n():
    # the declared tail of |sinc|^n in t = u sqrt(n) does not depend on n, so
    # neither do the window and the rule; at n = 10^12 the cf values' n eps
    # rounding is declared, and tol is not met
    model = SmoothedModel(make_laplace(1.0), uniform_noise())
    small, huge = density(model, 10 ** 4), density(model, 10 ** 12)
    assert huge.meta["quad_nodes"] == small.meta["quad_nodes"] == 128
    assert huge.meta["truncation_radius"] == pytest.approx(small.meta["truncation_radius"])
    assert small.meta["tol_met"] and not huge.meta["tol_met"]
    assert huge.est_tail_error >= 2e12 * EPS * huge.meta["cf_mass"]
    assert np.all(np.isfinite(huge.values))


@pytest.mark.parametrize("bare", ["source", "noise"])
def test_general_noise_refuses_an_undeclared_tail(bare):
    # a law that declares no tail of |cf|^p gives no window bound
    source, noise = make_laplace(1.0), uniform_noise()
    if bare == "source":
        source = dataclasses.replace(source, cf_power_tail=None)
    else:
        noise = dataclasses.replace(noise, cf_power_tail=None)
    with pytest.raises(UnsupportedError, match="no tail"):
        density(SmoothedModel(source, noise), 16)


# ---------------------------------------------------------------------------
# the factored phases against a direct evaluation in extended precision
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("count", [2, 3, 31, 32, 33, 101, 1001, 1025])
def test_factored_phases_within_their_rounding(count):
    # the cos and sin of x t at the axis's own points, in long double, on a
    # symmetric and an asymmetric grid and on node sets from a small window
    # up to the one at _MAX_NODES; every product of a block and an offset
    # factor, and the sums of random complex weights, are within the
    # declared phase rounding
    rng = np.random.default_rng(count)
    for ax in (grid_1d(-5.0, 5.0, count).axes[0], Axis(-3.3, 0.017, count)):
        xmax = Grid((ax,)).max_coordinate()
        per = 0.8 * (xmax + _CF_REACH)
        for R in (0.7, 12.0, _MAX_NODES / per):
            t = np.linspace(0.0, R, min(int(0.5 * R * per), 1024) + 1)[1:]
            theta = np.outer(ax.points().astype(np.longdouble), t.astype(np.longdouble))
            direct = np.cos(theta) - 1j * np.sin(theta)
            bound = _phase_rounding(R, xmax)
            ea, eb = _phase_factors(ax, t)
            table = (ea[:, None, :] * eb).reshape(-1, t.size)[:count]
            assert np.max(np.abs(table - direct)) <= bound
            f, g = (rng.uniform(size=t.size) * np.exp(2j * math.pi * rng.uniform(size=t.size))
                    for _ in range(2))
            exact = direct @ f.astype(np.clongdouble) + direct.conj() @ g.astype(np.clongdouble)
            mass = float(np.sum(np.abs(f) + np.abs(g)))
            assert np.max(np.abs(_phase_sums(ax, t, f, g) - exact)) <= bound * mass
