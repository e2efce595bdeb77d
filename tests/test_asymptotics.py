import math

import mpmath
import numpy as np
import pytest

from conftest import phi, theta_sum
from llt_lab import (InvalidParameterError, SmoothedModel, UnsupportedError, bernoulli_noise,
                     even_odd_limits, exact_mixture_density, gaussian_noise, grid_1d, make_fejer,
                     make_gaussian, make_laplace, make_uniform, oscillation_factor_cf,
                     oscillation_factor_density, oscillation_report, uniform_noise)

UNIFORM = make_uniform(1.0)
LAPLACE = make_laplace(1.0)
GAUSSIAN = make_gaussian(1.0)
BERN = bernoulli_noise(1)
E2 = math.e ** 2

M_UNIFORM = SmoothedModel(UNIFORM, BERN)
M_LAPLACE = SmoothedModel(LAPLACE, BERN)


# ---------------------------------------------------------------------------
# the oscillation factor along both routes
# ---------------------------------------------------------------------------

def test_factor_uniform_is_one():
    for n, x in ((7, 0.3), (100, -1.77), (33, 4.1)):
        assert oscillation_factor_cf(M_UNIFORM, n, x) == pytest.approx(1.0, abs=1e-12)


def test_factor_laplace_even_at_origin():
    # the even-parity value at 0 is the geometric series (e^2+1)/(e^2-1)
    target = (E2 + 1.0) / (E2 - 1.0)
    assert oscillation_factor_cf(M_LAPLACE, 100, 0.0) == pytest.approx(target, abs=1e-9)
    assert oscillation_factor_density(M_LAPLACE, 100, 0.0) == pytest.approx(
        target, abs=1e-12)


def test_factor_laplace_odd_at_origin():
    target = 2.0 * math.e / (E2 - 1.0)
    assert oscillation_factor_cf(M_LAPLACE, 101, 0.0) == pytest.approx(target, abs=1e-9)
    assert oscillation_factor_density(M_LAPLACE, 101, 0.0) == pytest.approx(
        target, abs=1e-12)


def test_factor_density_uniform_single_overlap():
    # x sqrt(n) + n on the even lattice leaves the single term 2 p(0) = 1
    n = 16
    x = 2.0 / math.sqrt(n)
    assert oscillation_factor_density(M_UNIFORM, n, x) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n", [64, 100, 101])
def test_cross_method_identity(n):
    rng = np.random.default_rng(5)
    for x in rng.uniform(-4.0, 4.0, 6):
        a = oscillation_factor_cf(M_LAPLACE, n, float(x))
        b = oscillation_factor_density(M_LAPLACE, n, float(x))
        assert a == pytest.approx(b, abs=1e-8)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_laplace_inner_consistency():
    rep = oscillation_report(M_LAPLACE, 100)
    assert rep.period_defect <= 1e-8
    assert rep.method_gap <= 1e-8
    assert rep.residual_sup < 0.02
    assert np.all(rep.a_values >= 0.0)


@pytest.mark.parametrize("T", [0.7, 1.0])
def test_report_fejer_factor_is_one(T):
    # the Fejer cf vanishes on the nonzero pi-lattice, so A_n = 1; its
    # density route is the finite sum over its compact cf, so the report
    # names the cf side
    rep = oscillation_report(SmoothedModel(make_fejer(T), BERN), 64,
                             grid_1d(-5.0, 5.0, 201))
    tail = rep.meta["density_tail"]
    assert rep.meta["route"] == "cf"
    assert float(np.max(np.abs(rep.a_values - 1.0))) <= tail
    assert rep.method_gap is None


@pytest.mark.parametrize("n", [100, 10 ** 6, 10 ** 8])
def test_factor_at_the_exact_lattice_offset(n):
    # A_n of laplace:b=1 is cosh(1 - a)/sinh(1) at a = x sqrt(n) + n mod 2 in
    # [0, 2]: the reference forms a in mpmath from the rounded x sqrt(n) that
    # the cell engine splits, on a grid off the density's lattice points.  A
    # sum x sqrt(n) + n formed in floating point is off by up to n eps
    d = 1e-7 * math.pi
    grid = grid_1d(-5.0 + d, 5.0 + d, 1001)
    rep = oscillation_report(M_LAPLACE, n, grid)
    x = grid.axes[0].points()
    with mpmath.workdps(40):
        w = [mpmath.mpf(float(v)) + n for v in x * math.sqrt(n)]
        ref = [mpmath.cosh(1 - (v - 2 * mpmath.floor(v / 2))) / mpmath.sinh(1) for v in w]
        gap = [abs(float(mpmath.mpf(float(a)) - r)) for a, r in zip(rep.a_values, ref)]
        resid = max(abs(mpmath.mpf(float(p)) - r * mpmath.npdf(float(v)))
                    for p, r, v in zip(rep.p_values, ref, x))
    assert max(gap) <= rep.meta["density_tail"], (n, max(gap))
    assert (abs(rep.residual_sup - float(resid))
            <= rep.meta["density_est_error"] + rep.meta["density_tail"])
    # the scalar routes read the same offset
    for i in (0, 137, 500, 861, 1000):
        for route, tail in ((oscillation_factor_cf, rep.meta["cf_tail"]),
                            (oscillation_factor_density, rep.meta["density_tail"])):
            assert abs(float(route(M_LAPLACE, n, float(x[i])) - ref[i])) <= tail, (route, i)


@pytest.mark.parametrize("noise", [uniform_noise(), gaussian_noise()], ids=["uniform", "gaussian"])
def test_factor_needs_bernoulli_noise(noise):
    # p_n has the lattice factor A_n under symmetric Bernoulli noise alone
    model = SmoothedModel(LAPLACE, noise)
    for call in (lambda: oscillation_report(model, 16),
                 lambda: oscillation_factor_cf(model, 16, 0.3),
                 lambda: oscillation_factor_density(model, 16, 0.3)):
        with pytest.raises(UnsupportedError, match="Bernoulli"):
            call()


@pytest.mark.parametrize("route", [oscillation_factor_cf, oscillation_factor_density],
                         ids=["cf", "density"])
@pytest.mark.parametrize("x, tol", [(math.nan, 1e-10), (math.inf, 1e-10), (-math.inf, 1e-10),
                                    (0.3, 0.0), (0.3, -1.0), (0.3, math.nan)],
                         ids=["x-nan", "x-inf", "x-minus-inf", "tol-zero", "tol-negative",
                              "tol-nan"])
def test_factor_refuses_hostile_input(route, x, tol):
    # a non-finite point or a tol that is not positive is invalid on both
    # routes: no NaN returned, no overflow warning, no misleading tail
    with pytest.raises(InvalidParameterError):
        route(M_LAPLACE, 16, x, tol)


def test_report_uniform_equals_plain_gaussian_residual():
    from llt_lab import density
    rep = oscillation_report(M_UNIFORM, 100)
    gd = density(M_UNIFORM, 100)
    plain = float(np.max(np.abs(gd.values -
                                np.exp(-0.5 * gd.axes[0].points() ** 2)
                                / math.sqrt(2 * math.pi))))
    assert rep.residual_sup == pytest.approx(plain, abs=1e-10)
    assert rep.method_gap <= 1e-9


def test_report_residual_decreases():
    r64 = oscillation_report(M_LAPLACE, 64)
    r256 = oscillation_report(M_LAPLACE, 256)
    assert r256.residual_sup < r64.residual_sup


def test_uniform_boundedness_by_even_theta():
    # densities stay below twice the even-parity bound of the model
    lim = even_odd_limits(LAPLACE)
    from llt_lab import density
    for n in (16, 64, 256):
        gd = density(M_LAPLACE, n)
        assert float(np.max(gd.values)) <= 2.0 * lim.even_limit


# ---------------------------------------------------------------------------
# parity limits
# ---------------------------------------------------------------------------

def test_limits_laplace_closed_forms():
    lim = even_odd_limits(LAPLACE)
    assert lim.route == "density"
    assert lim.even_limit == pytest.approx((E2 + 1) / (E2 - 1) / math.sqrt(2 * math.pi),
                                           abs=1e-10)
    assert lim.odd_limit == pytest.approx(2 * math.e / (E2 - 1) / math.sqrt(2 * math.pi),
                                          abs=1e-10)


def test_limits_uniform_cf_route():
    lim = even_odd_limits(UNIFORM)
    assert lim.route == "cf"
    assert lim.even_limit == pytest.approx(phi(0.0), abs=1e-10)
    assert lim.odd_limit == pytest.approx(phi(0.0), abs=1e-10)


def test_limits_name_the_side_they_summed():
    # the density side of laplace:b=100 at step 2 needs more than 2048
    # terms, so the density route sums the cf side, and says so;
    # 2 sum_m p(2m + a) = cosh((1 - a)/b)/(b sinh(1/b)) for a in [0, 2]
    from llt_lab import grid_1d
    b = 100.0
    lim = even_odd_limits(make_laplace(b))
    assert lim.route == "cf"
    for got, a in ((lim.even_limit, 0.0), (lim.odd_limit, 1.0)):
        exact = phi(0.0) * math.cosh((1.0 - a) / b) / (b * math.sinh(1.0 / b))
        assert abs(got - exact) <= lim.tail + 1e-15
    # (the report's density route names its side the same way, which
    # test_report_fejer_factor_is_one checks); laplace:b=1 sums its 49-term
    # density side
    assert even_odd_limits(LAPLACE).route == "density"
    assert oscillation_report(M_LAPLACE, 16, grid_1d(-5.0, 5.0, 101)).meta["route"] == "density"


def test_limits_gaussian_theta_oracle():
    # independent oracle: direct theta sums of the Gaussian density
    lim = even_odd_limits(GAUSSIAN)
    even = 2.0 / math.sqrt(2 * math.pi) * theta_sum(lambda m: phi(2 * m), 40)
    odd = 2.0 / math.sqrt(2 * math.pi) * theta_sum(lambda m: phi(2 * m + 1), 40)
    assert lim.even_limit == pytest.approx(even, abs=1e-12)
    assert lim.odd_limit == pytest.approx(odd, abs=1e-12)
    assert lim.even_limit == pytest.approx(0.4046806, abs=1e-6)
    assert lim.odd_limit == pytest.approx(0.3932040, abs=1e-6)


def test_limits_fejer_compact():
    # the triangular cf vanishes on the nonzero pi-lattice, so both parity
    # limits coincide at phi(0); the density route sums the compact cf side,
    # the single term f(0), with nothing truncated
    lim = even_odd_limits(make_fejer(0.7))
    assert lim.even_limit == pytest.approx(lim.odd_limit, abs=2e-8)
    assert lim.even_limit == pytest.approx(phi(0.0), abs=2e-8)
    assert abs(lim.even_limit - phi(0.0)) <= lim.tail + 1e-16


def test_parity_limit_approach():
    # the envelope constant C fitted at the smallest n bounds the whole
    # schedule; at x = 0 the gap actually decays like 1/n (the oscillatory
    # term cancels at the parity-aligned point), which is checked sharply
    lim = even_odd_limits(LAPLACE)
    ns = (64, 256, 1024, 4096)
    gaps = [abs(exact_mixture_density(LAPLACE, n, 0.0) - lim.even_limit)
            for n in ns]
    C = gaps[0] / (math.log(ns[0]) / math.sqrt(ns[0]))
    for n, gap in zip(ns, gaps):
        assert gap <= C * math.log(n) / math.sqrt(n) * 1.0001
    scaled = [gap * n for n, gap in zip(ns, gaps)]
    assert max(scaled) <= 1.2 * min(scaled)
