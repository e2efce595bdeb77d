import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import offset_grid_1d, offset_points
from llt_lab import (InvalidParameterError, SmoothedModel, admissible_T,
                     bernoulli_noise, convergence_study, default_grid, density, distance_to_gaussian, exact_mixture_density,
                     gaussian_noise, gaussian_window_deficit, grid_1d, make_fejer, make_gaussian,
                     make_laplace, make_uniform, monte_carlo_density, product,
                     smoothed_cf, uniform_noise)
from llt_lab.inversion import GridDensity

UNIFORM = make_uniform(1.0)
LAPLACE = make_laplace(1.0)
GAUSSIAN = make_gaussian(1.0)
BERN = bernoulli_noise(1)
SQRT2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# smoothed characteristic function
# ---------------------------------------------------------------------------

def test_smoothed_cf_at_origin():
    model = SmoothedModel(UNIFORM, BERN)
    assert smoothed_cf(model, 4, 0.0) == 1.0


def test_smoothed_cf_n1_is_plain_product():
    model = SmoothedModel(LAPLACE, BERN)
    t = 0.83
    assert smoothed_cf(model, 1, t) == pytest.approx(
        LAPLACE.cf(t) * math.cos(t), rel=1e-14)


def test_smoothed_cf_cosine_power_exact():
    # at t = sqrt(n) * pi the noise factor is cos(pi)^n = +-1 exactly
    model = SmoothedModel(LAPLACE, BERN)
    val = smoothed_cf(model, 100, math.sqrt(100) * math.pi)
    assert val == pytest.approx(1.0 / (1.0 + math.pi ** 2), rel=1e-13)


def test_smoothed_cf_no_underflow_large_n():
    model = SmoothedModel(GAUSSIAN, BERN)
    v = smoothed_cf(model, 10_000, 37.0)
    assert math.isfinite(v)


def test_model_refuses_mismatched_dimensions():
    for source, noise in ((UNIFORM, bernoulli_noise(2)), (product([UNIFORM, LAPLACE]), BERN)):
        with pytest.raises(InvalidParameterError, match="dimensions differ"):
            SmoothedModel(source, noise)
    assert SmoothedModel(product([UNIFORM, LAPLACE]), bernoulli_noise(2)).dim == 2


# ---------------------------------------------------------------------------
# window transform of cos^n
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,w", [(1, 0.0), (2, 1.3), (7, 4.2), (64, 11.0),
                                 (4096, 40.96), (16384, 101.3)])
def test_cos_power_window_matches_quadrature(n, w):
    # C_n(w) read off the cell engine's own window rule, against an mpmath
    # quadrature over the whole half period, split where cos^n has decayed
    from llt_lab.smoothing import _cell_rules, _cos_power
    with mpmath.workdps(30):
        cut = min(mpmath.pi / 2, 10 / mpmath.sqrt(n))
        ref = mpmath.quad(lambda s: mpmath.cos(s) ** n * mpmath.cos(s * w),
                          [-mpmath.pi / 2, -cut, 0, cut, mpmath.pi / 2])
    (s, ws), _ = _cell_rules(n, abs(w))
    C = float(np.cos(w * s) @ (ws * _cos_power(n, s)))
    assert C == pytest.approx(float(ref), abs=1e-12)


# ---------------------------------------------------------------------------
# densities vs the exact mixture oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("src", [UNIFORM, LAPLACE, GAUSSIAN], ids=lambda d: d.label)
@pytest.mark.parametrize("n", [1, 2, 20])
def test_density_matches_mixture(src, n):
    model = SmoothedModel(src, BERN)
    grid = offset_grid_1d()
    gd = density(model, n, grid)
    ref = exact_mixture_density(src, n, offset_points())
    assert float(np.max(np.abs(gd.values - ref))) <= 1e-7


_CELL_SOURCES = {"uniform": make_uniform, "laplace": make_laplace,
                 "gaussian": make_gaussian, "fejer": make_fejer}


def _mixture_reference(name, param, n, x):
    """The exact mixture; where a box source's mixture jumps, the mean of the
    one-sided limits, which is what the Fourier inverse converges to."""
    src = _CELL_SOURCES[name](param)
    ref = exact_mixture_density(src, n, x)
    if name == "uniform":
        a = x * math.sqrt(n) + n
        j = np.zeros(x.shape, dtype=bool)
        for v in (a - param, a + param):
            j |= np.abs(v - 2.0 * np.round(v / 2.0)) < 1e-9
        d = 1e-7 / math.sqrt(n)
        ref[j] = 0.5 * (exact_mixture_density(src, n, x[j] - d)
                        + exact_mixture_density(src, n, x[j] + d))
    return ref


def _chunked_reference(name, param, n, x, chunk=100):
    return np.concatenate([_mixture_reference(name, param, n, x[i:i + chunk])
                           for i in range(0, x.size, chunk)])


@settings(max_examples=250, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(_CELL_SOURCES)), param=st.floats(0.25, 4.0),
       n=st.integers(1, 20000),
       grid=st.builds(lambda lo, hi: grid_1d(lo, hi, 41),
                      st.floats(-6.0, -1.0), st.floats(1.0, 6.0)))
@example(name="gaussian", param=1.0, n=16, grid=default_grid(1))
@example(name="uniform", param=0.25, n=180, grid=grid_1d(-6.0, 1.0, 41))
@example(name="fejer", param=2.668, n=3, grid=grid_1d(-6.0, 6.0, 41))
def test_density_error_within_estimate(name, param, n, grid):
    # the declared est_tail_error bounds the error at every point
    gd = density(SmoothedModel(_CELL_SOURCES[name](param), BERN), n, grid)
    err = np.abs(gd.values - _mixture_reference(name, param, n, grid.axes[0].points()))
    assert np.all(err <= gd.est_tail_error), (float(err.max()), gd.est_tail_error)


@pytest.mark.parametrize("name, param, n", [
    ("uniform", 0.25, 3),       # was 7.9e-4 off against a declared 3.5e-4
    ("fejer", 2.668, 3),        # was 2.73e-5 off against 1.52e-5
    ("fejer", 0.7, 16),         # was 1.2e-4 off, declared and not met
    ("uniform", 1.0, 4),        # declared 0.55 at the mixture's jumps
    ("uniform", 1.0, 16),       # declared 0.33 at the mixture's jumps
])
def test_density_mended_cases(name, param, n):
    # on the default grid; uniform:h=1 has 10 and 20 points on the jumps
    grid = default_grid(1)
    gd = density(SmoothedModel(_CELL_SOURCES[name](param), BERN), n, grid)
    err = np.abs(gd.values - _chunked_reference(name, param, n, grid.axes[0].points()))
    assert np.all(err <= gd.est_tail_error), (float(err.max()), gd.est_tail_error)
    assert gd.est_tail_error <= 1e-12


@pytest.mark.parametrize("spec", ["uniform:1", "laplace:1", "gaussian:1", "fejer:0.7"])
@pytest.mark.parametrize("n", [10 ** 6, 10 ** 6 + 1])
def test_density_at_a_million_steps(spec, n):
    # the oracle is evaluated one point at a time: n + 1 terms, about 8 MB
    name, param = spec.split(":")
    grid = grid_1d(-5.0, 5.0, 11)
    gd = density(SmoothedModel(_CELL_SOURCES[name](float(param)), BERN), n, grid)
    x = grid.axes[0].points()
    ref = _chunked_reference(name, float(param), n, x, chunk=1)
    assert gd.est_tail_error <= 1e-12
    assert np.all(np.abs(gd.values - ref) <= gd.est_tail_error)


@pytest.mark.parametrize("source, match", [
    ("bare", "no short side"),                  # a decaying density with no declared tail
    ("wide", "more than 2048 terms"),           # |2m + a| <= R needs about 4400 terms
])
def test_cell_engine_needs_a_short_side(source, match):
    import dataclasses
    from llt_lab import UnsupportedError
    src = (dataclasses.replace(LAPLACE, density_lattice_tail=None) if source == "bare"
           else make_laplace(100.0))
    with pytest.raises(UnsupportedError, match=match):
        density(SmoothedModel(src, BERN), 16, grid_1d(-2, 2, 5))


def test_density_hand_values():
    model = SmoothedModel(UNIFORM, BERN)
    g = grid_1d(-5.0, 5.0, 1001)
    gd = density(model, 1, g)
    x = g.axes[0].points()
    i = int(np.argmin(np.abs(x - 1.0)))
    assert gd.values[i] == pytest.approx(0.25, abs=1e-9)
    gd2 = density(model, 2, g)
    assert gd2.values[500] == pytest.approx(math.sqrt(2.0) / 4.0, abs=1e-9)


def test_density_symmetric():
    model = SmoothedModel(LAPLACE, BERN)
    gd = density(model, 9, grid_1d(-5, 5, 501))
    assert float(np.max(np.abs(gd.values - gd.values[::-1]))) <= 1e-10


def test_density_mass_conserved():
    model = SmoothedModel(GAUSSIAN, BERN)
    gd = density(model, 16, grid_1d(-6, 6, 1201))
    assert gd.mass() == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("noise", ["bernoulli", "uniform"])
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_density_rejects_nonpositive_tol(tol, noise):
    # every noise path refuses the tol before any work, not only the cell engine
    model = SmoothedModel(LAPLACE, BERN if noise == "bernoulli" else uniform_noise())
    with pytest.raises(InvalidParameterError, match="tol"):
        density(model, 16, grid_1d(-2, 2, 5), tol=tol)


@pytest.mark.parametrize("n", [256, 4096, 16384])
def test_uniform_estimate_tight_at_large_n(n):
    # the quadrature check no longer differences two extrapolated sums, whose
    # roundoff alone made it 3e-10 and 9e-10 at n = 4096 and 16384
    grid = default_grid(1)
    gd = density(SmoothedModel(UNIFORM, BERN), n, grid)
    assert gd.est_tail_error <= 1e-10
    ref = _chunked_reference("uniform", 1.0, n, grid.axes[0].points())
    assert np.all(np.abs(gd.values - ref) <= gd.est_tail_error)


@pytest.mark.parametrize("src", [LAPLACE, GAUSSIAN], ids=lambda d: d.label)
def test_parseval_consistency(src):
    # squared L2 norm of p_n equals (2 pi)^-1 integral of |f_n|^2; the
    # uniform source is excluded here because its mixture is a staircase
    # whose grid trapezoid loses O(step * jump) and cannot meet 1e-5
    model = SmoothedModel(src, BERN)
    n = 20
    gd = density(model, n, grid_1d(-7, 7, 2801))
    lhs = float(np.trapezoid(gd.values ** 2, dx=gd.axes[0].step))
    rt = math.sqrt(n)
    rhs, _ = quad(lambda t: abs(smoothed_cf(model, n, t)) ** 2,
                  -60.0 * rt, 60.0 * rt, limit=4000)
    rhs /= 2.0 * math.pi
    assert lhs == pytest.approx(rhs, abs=1e-5)


def test_general_noise_density_compact_cf_regime():
    model = SmoothedModel(make_fejer(0.7), uniform_noise())
    gd = density(model, 64)
    assert gd.meta["engine"] == "invert-compact"
    assert gd.meta["truncation_radius"] == pytest.approx(0.7 * 8.0)
    # cross-check against the seeded Monte Carlo oracle at probe points
    xs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    est = monte_carlo_density(model, 64, xs, samples=200_000, bandwidth=0.05,
                              seed=11)
    x = gd.axes[0].points()
    for j, xx in enumerate(xs):
        i = int(np.argmin(np.abs(x - xx)))
        assert abs(gd.values[i] - est.values[j]) <= 3.0 * est.stderr[j]


def test_general_noise_declares_quadrature_error():
    # the declared error is the sampled tail plus the quadrature error, also
    # where the sampled tail underflows to 0
    gd = density(SmoothedModel(LAPLACE, uniform_noise()), 256)
    assert gd.meta["engine"] == "invert"
    assert gd.est_tail_error >= gd.meta["est_quad_error"] > 0.0


@pytest.mark.parametrize("n", [4096, 16384])
def test_general_noise_estimate_covers_cf_rounding(n):
    # v(t/sqrt n)^n carries about n eps relative error in every cf value,
    # which the Richardson difference cannot see: the declared error must
    # still bound the error against N(0, 1 + 1/n) at every point
    gd = density(SmoothedModel(GAUSSIAN, gaussian_noise()), n)
    x = gd.axes[0].points()
    var = 1.0 + 1.0 / n
    exact = np.exp(-0.5 * x * x / var) / math.sqrt(2.0 * math.pi * var)
    assert np.all(np.abs(gd.values - exact) <= gd.est_tail_error)
    assert gd.meta["tol_met"]


@pytest.mark.parametrize("m", [96, 128, 300])
@pytest.mark.parametrize("half", [0.5 * math.pi, 9.0 / math.sqrt(16384)])
def test_gauss_legendre_cache_matches_direct_rule(m, half):
    # the cached reference rule, scaled per call, is the rule built afresh
    from llt_lab.smoothing import _gl_nodes
    x = np.cos(math.pi * (np.arange(m) + 0.75) / (m + 0.5))
    for _ in range(5):
        p0, p1 = np.ones_like(x), x
        for k in range(2, m + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = m * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    for _ in range(2):          # a cache miss, then a hit
        s, w = _gl_nodes(m, half)
        assert np.array_equal(s, half * x)
        assert np.array_equal(w, half * 2.0 / ((1.0 - x * x) * dp * dp))


@pytest.mark.parametrize("raw", ["abc", "0", "-2"])
def test_bad_thread_env_is_invalid(raw, monkeypatch):
    # only invalid values: the check runs before any thread starts
    monkeypatch.setenv("LLT_LAB_THREADS", raw)
    with pytest.raises(InvalidParameterError, match="LLT_LAB_THREADS"):
        convergence_study(SmoothedModel(GAUSSIAN, BERN), (4, 16))


@pytest.mark.parametrize("engine, model", [
    pytest.param(engine, model, id=engine) for engine, model in [
        ("cell", SmoothedModel(UNIFORM, BERN)),
        ("cell-tensor", SmoothedModel(product([UNIFORM, LAPLACE]), bernoulli_noise(2))),
        ("invert", SmoothedModel(LAPLACE, uniform_noise())),
        ("invert-compact", SmoothedModel(make_fejer(0.7), uniform_noise()))]])
def test_density_values_own_their_buffer(engine, model):
    # a view of a larger (complex) array would keep that array alive with
    # every result held
    grid = grid_1d(-3.0, 3.0, 31) if model.dim == 1 else default_grid(2)
    gd = density(model, 16, grid)
    assert gd.meta["engine"] == engine
    assert gd.values.dtype == np.float64 and gd.values.base is None


def test_density_2d_product_matches_mixture():
    from llt_lab import exact_mixture_density_2d
    from llt_lab.inversion import Axis, Grid
    p2 = product([UNIFORM, UNIFORM])
    model = SmoothedModel(p2, bernoulli_noise(2))
    lo = offset_points()[0]
    g = Grid((Axis(lo, 0.5, 21), Axis(lo, 0.5, 21)))
    gd = density(model, 16, g)
    X, Y = np.meshgrid(g.axes[0].points(), g.axes[1].points(), indexing="ij")
    ref = exact_mixture_density_2d(p2, 16, np.stack([X, Y], axis=-1))
    assert float(np.max(np.abs(gd.values - ref))) <= 1e-5


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def _phi_grid_density(grid):
    x = grid.axes[0].points()
    vals = np.exp(-0.5 * x * x) / SQRT2PI
    return GridDensity(dim=1, axes=grid.axes, values=vals, meta={})


def test_distance_of_phi_to_itself():
    gd = _phi_grid_density(grid_1d(-5, 5, 1001))
    assert distance_to_gaussian(gd, "sup") <= 1e-12
    assert distance_to_gaussian(gd, "l1") <= 1e-6


def test_distance_of_doubled_phi():
    gd = _phi_grid_density(grid_1d(-5, 5, 1001))
    gd.values = 2.0 * gd.values
    assert distance_to_gaussian(gd, "sup") == pytest.approx(1.0 / SQRT2PI, abs=1e-6)


def test_laplace_l1_floor():
    model = SmoothedModel(LAPLACE, BERN)
    gd = density(model, 50)
    assert distance_to_gaussian(gd, "l1") >= 0.01


def test_window_deficit():
    assert gaussian_window_deficit(grid_1d(-5, 5, 101)) == pytest.approx(
        5.733e-7, rel=1e-3)


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

def test_study_uniform_sup_decreasing():
    model = SmoothedModel(UNIFORM, BERN)
    rep = convergence_study(model, (4, 16, 64), "sup")
    sups = rep.distances["sup"]
    assert sups[0] > sups[1] > sups[2]
    assert rep.fitted_log_slope < -0.3
    assert rep.condition_max_abs <= 1e-12


def test_study_laplace_l2_does_not_vanish():
    model = SmoothedModel(LAPLACE, BERN)
    rep = convergence_study(model, (16, 64, 256), "l2")
    l2 = rep.distances["l2"]
    assert min(l2) >= 0.05 * l2[0]
    assert rep.condition_max_abs > 0.05
    assert rep.even_slope is not None and rep.fitted_log_slope is None or \
        rep.fitted_log_slope is not None


def test_study_parity_split_when_condition_fails():
    model = SmoothedModel(LAPLACE, BERN)
    rep = convergence_study(model, (15, 16, 63, 64), "l2")
    assert rep.fitted_log_slope is None
    assert rep.even_slope is not None
    assert rep.odd_slope is not None


def test_study_grid_step_precondition_for_sup():
    model = SmoothedModel(UNIFORM, BERN)
    with pytest.raises(InvalidParameterError):
        convergence_study(model, (4, 4096), "sup", grid_1d(-5, 5, 101))


def test_study_schedule_must_increase():
    model = SmoothedModel(UNIFORM, BERN)
    with pytest.raises(InvalidParameterError):
        convergence_study(model, (16, 16), "l2")


def test_necessity_floor_matches_condition():
    # a visibly nonzero pi-lattice value comes with a bounded-below l2 curve
    model = SmoothedModel(LAPLACE, BERN)
    rep = convergence_study(model, (16, 64, 256), "l2")
    assert rep.condition_max_abs >= 0.05
    assert min(rep.distances["l2"]) >= 0.05 * rep.distances["l2"][0]


# ---------------------------------------------------------------------------
# admissible support radius
# ---------------------------------------------------------------------------

def test_admissible_bernoulli():
    rep = admissible_T(BERN)
    assert rep.rationale == "beta3"
    assert rep.t_value == pytest.approx(1.0)


def test_admissible_uniform_prefers_larger_window():
    noise = uniform_noise()
    auto = admissible_T(noise)
    assert auto.rationale == "remark41"
    assert auto.t_value == pytest.approx(math.pi)
    b3 = admissible_T(noise, prefer="beta3")
    assert b3.t_value == pytest.approx(4.0 / (3.0 * math.sqrt(3.0)))


def test_admissible_bernoulli_remark_refused():
    rep = admissible_T(BERN, prefer="remark41")
    assert rep.rationale == "unsupported"
    assert rep.t_value is None


def test_density_2d_generic_path_matches_mixture():
    # hide the product structure so the generic two-dimensional inversion
    # runs, and check it against the exact mixture
    import dataclasses
    from llt_lab import exact_mixture_density_2d
    from llt_lab.inversion import Axis, Grid
    p2 = product([GAUSSIAN, GAUSSIAN])
    hidden = dataclasses.replace(p2, components=None)
    model = SmoothedModel(hidden, bernoulli_noise(2))
    g = Grid((Axis(-2.1, 0.42, 11), Axis(-2.1, 0.42, 11)))
    gd = density(model, 6, g, tol=1e-8)
    assert gd.meta["engine"] == "invert"
    X, Y = np.meshgrid(g.axes[0].points(), g.axes[1].points(), indexing="ij")
    ref = exact_mixture_density_2d(p2, 6, np.stack([X, Y], axis=-1))
    assert float(np.max(np.abs(gd.values - ref))) <= 1e-6
