import math

import numpy as np
import pytest

from conftest import offset_points
from llt_lab import (InconsistentCfError, InvalidParameterError, SmoothedModel,
                     density, estimate_tail, gaussian_noise, grid_1d, grid_2d,
                     invert, make_fejer, make_gaussian, make_laplace, make_uniform,
                     product, smoothed_cf, uniform_noise)
from llt_lab.inversion import Axis, Grid


def test_gaussian_self_pair():
    g = make_gaussian(1.0)
    gd = invert(g.cf, 1, grid_1d(-5, 5, 101), truncation_radius=12.0, quad_step=0.01)
    assert gd.values[50] == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-9)
    assert gd.meta["max_imag"] <= 1e-9


def test_uniform_slow_tail():
    u = make_uniform(1.0)
    gd = invert(u.cf, 1, grid_1d(-5, 5, 101), truncation_radius=2000.0)
    assert gd.values[50] == pytest.approx(0.5, abs=1e-3)
    assert 0.0 < gd.meta["est_tail_error"] < 0.05


def test_fejer_compact_no_tail():
    f = make_fejer(1.0)
    gd = invert(f.cf, 1, grid_1d(-5, 5, 101), truncation_radius=1.0, quad_step=1e-3)
    assert gd.values[50] == pytest.approx(1.0 / (2 * math.pi), abs=1e-8)
    assert gd.meta["est_tail_error"] == 0.0


def test_aliasing_precondition():
    g = make_gaussian(1.0)
    with pytest.raises(InvalidParameterError):
        invert(g.cf, 1, grid_1d(-5, 5, 101), truncation_radius=12.0, quad_step=0.5)


def test_non_hermitian_cf_rejected():
    def bad(t):
        t = np.asarray(t, dtype=float)
        return np.exp(-0.5 * t * t) * (1.0 + 0.3j)

    with pytest.raises(InconsistentCfError):
        invert(bad, 1, grid_1d(-3, 3, 21), truncation_radius=10.0)


def test_halving_step_within_estimated_error():
    g = make_gaussian(1.0)
    grid = grid_1d(-4, 4, 81)
    a = invert(g.cf, 1, grid, truncation_radius=12.0, quad_step=0.04)
    b = invert(g.cf, 1, grid, truncation_radius=12.0, quad_step=0.02)
    change = float(np.max(np.abs(a.values - b.values)))
    assert change <= 10.0 * max(a.meta["est_quad_error"], 1e-15)


def test_symmetric_output():
    l = make_laplace(1.0)
    gd = invert(l.cf, 1, grid_1d(-5, 5, 101), truncation_radius=3000.0)
    assert float(np.max(np.abs(gd.values - gd.values[::-1]))) <= 1e-10


def test_mass_conservation():
    g = make_gaussian(1.0)
    gd = invert(g.cf, 1, grid_1d(-6, 6, 241), truncation_radius=12.0, quad_step=0.02)
    assert gd.mass() == pytest.approx(1.0, abs=1e-4)


def test_negative_excursions_within_tail_budget():
    u = make_uniform(1.0)
    gd = invert(u.cf, 1, grid_1d(-5, 5, 201), truncation_radius=500.0)
    worst = float(np.min(gd.values))
    assert worst >= -gd.meta["est_tail_error"]


def test_invert_2d_product_gaussian():
    p2 = product([make_gaussian(1.0), make_gaussian(1.0)])
    gd = invert(p2.cf, 2, grid_2d(-5, 5, 51), truncation_radius=10.0, quad_step=0.05)
    assert gd.values[25, 25] == pytest.approx(1.0 / (2 * math.pi), abs=1e-9)
    assert gd.mass() == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# catalog pairs reproduce their density through the transform
# ---------------------------------------------------------------------------

def test_pair_consistency_fast_decay():
    pts = offset_points(21, 0.35)
    grid = Grid((Axis(pts[0], 0.35, 21),))
    # the triangular cf has kinks, so its trapezoid error is O(h^2 x^2) and
    # needs the finer step
    for dist, R, h in ((make_gaussian(1.0), 14.0, 0.01),
                       (make_fejer(0.7), 0.7, 2e-4)):
        gd = invert(dist.cf, 1, grid, truncation_radius=R, quad_step=h)
        ref = np.asarray(dist.density(pts))
        assert float(np.max(np.abs(gd.values - ref))) <= 1e-7


def test_pair_consistency_laplace_tight():
    # 1/t^2 tail: the signed truncation error decays much faster than the
    # absolute bound; a wide window reaches 1e-7 while est_tail_error stays
    # an honest (conservative) absolute estimate
    pts = offset_points(21, 0.35)
    grid = Grid((Axis(pts[0], 0.35, 21),))
    dist = make_laplace(1.0)
    gd = invert(dist.cf, 1, grid, truncation_radius=2e5, quad_step=0.15)
    ref = np.asarray(dist.density(pts))
    assert float(np.max(np.abs(gd.values - ref))) <= 1e-7


def test_pair_consistency_uniform_honest_budget():
    # the sinc tail only supports ~1/R accuracy at desk scale; the contract
    # here is honesty: the actual error stays within the reported budget
    pts = offset_points(21, 0.35)
    grid = Grid((Axis(pts[0], 0.35, 21),))
    dist = make_uniform(1.0)
    gd = invert(dist.cf, 1, grid, truncation_radius=5000.0)
    ref = np.asarray(dist.density(pts))
    err = float(np.max(np.abs(gd.values - ref)))
    assert err <= gd.meta["est_tail_error"]
    assert err <= 2e-3


# ---------------------------------------------------------------------------
# tail estimation
# ---------------------------------------------------------------------------

def test_estimate_tail_gaussian():
    assert estimate_tail(make_gaussian(1.0).cf, 1, 12.0) <= 1e-30


def test_estimate_tail_compact():
    assert estimate_tail(make_fejer(1.0).cf, 1, 1.01) == 0.0


def test_estimate_tail_non_decaying():
    const = lambda t: np.ones_like(np.asarray(t, dtype=float))  # noqa: E731
    assert math.isinf(estimate_tail(const, 1, 10.0))


def test_estimate_tail_conservative_for_laplace():
    l = make_laplace(1.0)
    est = estimate_tail(l.cf, 1, 100.0)
    true_abs = 2.0 / 100.0 / (2 * math.pi)  # integral of 1/t^2 beyond R
    assert est >= true_abs
    assert est <= 50.0 * true_abs


def test_invert_refuses_non_decaying_cf():
    from llt_lab import UnsupportedError
    const = lambda t: np.ones_like(np.asarray(t, dtype=float))  # noqa: E731
    with pytest.raises(UnsupportedError):
        invert(const, 1, grid_1d(-3, 3, 21), truncation_radius=10.0)


def test_invert_2d_correlated_gaussian():
    # non-product Hermitian cf: exp(-t' S t / 2) with S = [[1, .5], [.5, 1]]
    S = np.array([[1.0, 0.5], [0.5, 1.0]])

    def cf(t):
        t = np.asarray(t, dtype=float)
        quad_form = (t[..., 0] ** 2 * S[0, 0] + 2 * t[..., 0] * t[..., 1] * S[0, 1]
                     + t[..., 1] ** 2 * S[1, 1])
        return np.exp(-0.5 * quad_form)

    gd = invert(cf, 2, grid_2d(-3, 3, 25), truncation_radius=12.0, quad_step=0.05)
    det = float(np.linalg.det(S))
    assert gd.values[12, 12] == pytest.approx(1.0 / (2 * math.pi * math.sqrt(det)),
                                              abs=1e-9)
    Sinv = np.linalg.inv(S)
    x = np.array([1.0, -0.5])
    i = int(round((x[0] + 3) / 0.25))
    j = int(round((x[1] + 3) / 0.25))
    ref = math.exp(-0.5 * float(x @ Sinv @ x)) / (2 * math.pi * math.sqrt(det))
    assert gd.values[i, j] == pytest.approx(ref, abs=1e-9)


# ---------------------------------------------------------------------------
# node trimming: the kept nodes reproduce the full window within the declared
# dropped mass
# ---------------------------------------------------------------------------

EPS = float(np.finfo(float).eps)
TRIM_SOURCES = {"laplace:b=1": make_laplace(1.0), "gaussian:sigma=1": make_gaussian(1.0),
                "fejer:T=0.7": make_fejer(0.7)}
TRIM_NOISES = {"uniform": uniform_noise, "gaussian": gaussian_noise}


def _full_nodes(R, h):
    """Every node and weight of the trapezoid rule on [-R, R]."""
    m = max(2, int(math.ceil(2.0 * R / h)))
    m += m % 2
    w = np.full(m + 1, 2.0 * R / m)
    w[[0, -1]] *= 0.5
    return np.linspace(-R, R, m + 1), w


def _full_window_1d(cf, x, R, h):
    """The full rule summed point by point; returns the fine values, the
    Richardson estimate and sum |cf w|."""
    t, w = _full_nodes(R, h)
    ft = np.asarray(cf(t), dtype=complex) * w
    fine = np.array([np.sum(np.exp(-1j * xi * t) * ft) for xi in x]) / (2 * math.pi)
    coarse = np.array([np.sum(np.exp(-1j * xi * t[::2]) * 2.0 * ft[::2]) for xi in x])
    est = float(np.max(np.abs(fine - coarse / (2 * math.pi)))) / 3.0
    return fine.real, est, float(np.sum(np.abs(ft)))


@pytest.mark.parametrize("n", [16, 16384])
@pytest.mark.parametrize("noise", sorted(TRIM_NOISES))
@pytest.mark.parametrize("source", sorted(TRIM_SOURCES))
def test_trimmed_inversion_matches_full_window(source, noise, n):
    model = SmoothedModel(TRIM_SOURCES[source], TRIM_NOISES[noise]())
    # same x_max, hence the same step, as the default grid
    grid = grid_1d(-5.0, 5.0, 101)
    gd = density(model, n, grid)
    cf = lambda t: smoothed_cf(model, n, t)  # noqa: E731
    full, full_est, mass = _full_window_1d(cf, grid.axes[0].points(),
                                           gd.meta["truncation_radius"],
                                           gd.meta["quad_step"])
    kept, total = gd.meta["quad_nodes"]
    assert kept <= total
    roundoff = 64.0 * EPS * mass / (2 * math.pi)
    dropped = gd.meta["dropped_mass"]
    assert float(np.max(np.abs(gd.values - full))) <= roundoff + dropped
    assert gd.meta["est_quad_error"] >= full_est - roundoff


@pytest.mark.parametrize("R", [12.0, 256.0])
def test_trapezoid_weight_is_the_exact_step(R):
    # a weight taken as t[1] - t[0] is eps * R / h off: 409 eps at R = 256
    gd = invert(make_gaussian(1.0).cf, 1, grid_1d(-5, 5, 101), truncation_radius=R,
                quad_step=0.05)
    assert abs(gd.values[50] - 1.0 / math.sqrt(2 * math.pi)) <= 4.0 * EPS


def test_trimming_keeps_only_the_carried_nodes():
    model = SmoothedModel(make_gaussian(1.0), gaussian_noise())
    gd = density(model, 16384)
    kept, total = gd.meta["quad_nodes"]
    assert total == 10241
    assert kept <= 1024
    # a 1/t^2 cf carries mass out to the window edge: nothing is dropped
    gd = invert(make_laplace(1.0).cf, 1, grid_1d(-5, 5, 101), truncation_radius=3000.0)
    kept, total = gd.meta["quad_nodes"]
    assert kept == total
    assert gd.meta["dropped_mass"] == 0.0


def _correlated_gaussian_cf(t):
    t = np.asarray(t, dtype=float)
    return np.exp(-0.5 * (t[..., 0] ** 2 + t[..., 0] * t[..., 1] + t[..., 1] ** 2))


@pytest.mark.parametrize("cf, R", [
    (_correlated_gaussian_cf, 12.0),
    (product([make_gaussian(1.0), make_gaussian(0.5)]).cf, 30.0),
], ids=["correlated-gaussian", "gaussian-product"])
def test_trimmed_2d_inversion_matches_full_window(cf, R):
    h = 0.05
    grid = grid_2d(-3, 3, 25)
    gd = invert(cf, 2, grid, truncation_radius=R, quad_step=h)
    t, w = _full_nodes(R, h)
    T1, T2 = np.meshgrid(t, t, indexing="ij")
    Fw = np.asarray(cf(np.stack([T1, T2], axis=-1)), dtype=complex) * np.outer(w, w)
    E = np.exp(-1j * np.outer(grid.axes[0].points(), t))
    scale = 1.0 / (2 * math.pi) ** 2
    full = (E @ Fw @ E.T).real * scale
    coarse = (E[:, ::2] @ (4.0 * Fw[::2, ::2]) @ E[:, ::2].T).real * scale
    full_est = float(np.max(np.abs(full - coarse))) / 3.0
    kept, total = gd.meta["quad_nodes"]
    assert kept < total == t.size ** 2
    roundoff = 64.0 * EPS * float(np.sum(np.abs(Fw))) * scale
    assert float(np.max(np.abs(gd.values - full))) <= roundoff + gd.meta["dropped_mass"]
    assert gd.meta["est_quad_error"] >= full_est - roundoff
