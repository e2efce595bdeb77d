import dataclasses
import math

import mpmath
import numpy as np
import pytest

from conftest import theta_sum
from llt_lab import (DistFlags, InvalidParameterError, SmoothedModel, SourceDistribution,
                     UnsupportedError,
                     bernoulli_noise, check_pi_lattice_zeros, even_odd_limits, make_fejer,
                     make_gaussian, make_laplace, make_uniform, oscillation_report,
                     poisson_check, product, regularity_integral, sum_cf_lattice,
                     sum_density_lattice, wrapped_autocorrelation)
from llt_lab import asymptotics, lattice
from llt_lab.lattice import periodized_cf

UNIFORM = make_uniform(1.0)
LAPLACE = make_laplace(1.0)
GAUSSIAN = make_gaussian(1.0)
FEJER = make_fejer(1.0)
E2 = math.e ** 2


# ---------------------------------------------------------------------------
# density lattice sums
# ---------------------------------------------------------------------------

def test_density_sum_laplace_geometric():
    # sum of exp(-2|m|)/2 is a geometric series with closed form
    target = 0.5 * (math.e ** 2 + 1.0) / (math.e ** 2 - 1.0)
    r = sum_density_lattice(LAPLACE, 2.0, 0.0, tol=1e-12)
    assert r.value == pytest.approx(target, abs=1e-13)
    assert r.tail_estimate <= 1e-12


def test_density_sum_gaussian_theta():
    r = sum_density_lattice(GAUSSIAN, 1.0, 0.0, tol=1e-12)
    direct = theta_sum(GAUSSIAN.density, 40)
    assert r.value == pytest.approx(direct, abs=1e-13)
    assert r.value == pytest.approx(1.0 + 2.0 * math.exp(-2 * math.pi ** 2), abs=1e-12)


def test_density_sum_uniform_single_term():
    r = sum_density_lattice(UNIFORM, 2.0, 0.5, tol=1e-12)
    assert r.value == 0.5
    assert r.tail_estimate == 0.0


def test_density_sum_recentering():
    # a huge offset must not defeat the block engine
    r = sum_density_lattice(LAPLACE, 2.0, 4096.0, tol=1e-12)
    target = 0.5 * (math.e ** 2 + 1.0) / (math.e ** 2 - 1.0)
    assert r.value == pytest.approx(target, abs=1e-12)


def test_density_sum_fejer_power_tail():
    # independent check: direct million-term sum with integral-test remainder
    q = FEJER.density
    m = np.arange(1, 2_000_001)
    direct = q(0.0) + 2.0 * float(np.sum(q(2.0 * m)))
    bound = 4.0 / (math.pi * 1.0 * (2.0 * 2_000_000))  # envelope 2/(pi T y^2)
    r = sum_density_lattice(FEJER, 2.0, 0.0, tol=1e-8)
    assert abs(r.value - direct) <= bound + 1e-8


@pytest.mark.parametrize("dist, tol, met", [
    pytest.param(LAPLACE, 1e-12, True, id="laplace:b=1"),
    pytest.param(LAPLACE, 1e-18, False, id="laplace:b=1-tol=1e-18")])
def test_density_sum_says_whether_tol_was_met(dist, tol, met):
    # a tol below the declared rounding of the sum (a few eps) is missed,
    # and the flag says so
    r = sum_density_lattice(dist, 2.0, 0.0, tol=tol)
    assert r.tol_met is met
    assert (r.tail_estimate <= tol) is met
    lim = even_odd_limits(dist, tol=tol)
    assert lim.tol_met is met
    assert (lim.tail <= tol) is met


@pytest.mark.parametrize("b", [0.25, 1.0, 4.0])
def test_density_sum_takes_the_cf_side_when_the_density_side_is_long(b):
    # at scale 0.01 the density side would need about 100 R terms; the cf
    # side of the same pair, at step 2 pi/0.01, is the closed form alone
    L = 0.01
    for a in np.linspace(0.0, L, 23):
        r = sum_density_lattice(make_laplace(b), L, a)
        exact = math.cosh((0.5 * L - a) / b) / (2.0 * b * math.sinh(0.5 * L / b))
        assert abs(r.value - exact) <= r.tail_estimate, (a, r.value - exact)
        assert r.tol_met


def test_density_sum_1d_rejects_offset_array():
    with pytest.raises(InvalidParameterError, match="one offset"):
        sum_density_lattice(LAPLACE, 2.0, [0.0, 1.0])
    r = sum_density_lattice(LAPLACE, 2.0, [0.0], tol=1e-12)
    assert r.value == pytest.approx(0.5 * (E2 + 1.0) / (E2 - 1.0), abs=1e-13)


def test_density_sum_product_tail_scales_with_the_other_factor():
    # each factor sums to coth(1/2)/2 > 1, so the product's tail must exceed
    # the sum of the two factors' tails
    x = sum_density_lattice(LAPLACE, 1.0, 0.0, tol=5e-11)
    assert x.value > 1.0 and x.tail_estimate > 0.0
    r = sum_density_lattice(product([LAPLACE, LAPLACE]), 1.0, [0.0, 0.0], tol=1e-10)
    assert r.value == x.value * x.value
    assert r.tail_estimate >= 2.0 * x.tail_estimate * x.value > 2.0 * x.tail_estimate


# ---------------------------------------------------------------------------
# cf lattice sums
# ---------------------------------------------------------------------------

def test_cf_sum_uniform_only_center():
    r = sum_cf_lattice(UNIFORM, math.pi, None, tol=1e-12)
    assert r.value == pytest.approx(1.0, abs=1e-13)


def test_cf_sum_gaussian():
    r = sum_cf_lattice(GAUSSIAN, 2.0 * math.pi, None, tol=1e-12)
    assert r.value == pytest.approx(1.0 + 2.0 * math.exp(-2 * math.pi ** 2), rel=1e-12)


def test_cf_sum_fejer_compact():
    r = sum_cf_lattice(FEJER, 2.0 * math.pi, None, tol=1e-12)
    assert r.value == 1.0
    assert r.tail_estimate == 0.0


def test_cf_sum_laplace_vs_direct():
    # independent oracle: 4e6 direct terms plus integral-test remainder
    k = np.arange(1, 4_000_001)
    direct = 1.0 + 2.0 * float(np.sum(1.0 / (1.0 + 4.0 * math.pi ** 2 * k * k)))
    rem = 2.0 / (4.0 * math.pi ** 2 * 4_000_000)
    r = sum_cf_lattice(LAPLACE, 2.0 * math.pi, None, tol=1e-10)
    assert abs(r.value - direct) <= rem + 1e-10


def test_cf_sum_with_phase_matches_cosh_series():
    # sum over k of e^{i phi k} f(pi k) for laplace reduces to the classical
    # cosh/sinh Fourier series
    phi = 0.77
    c = 1.0 / math.pi
    target = (1.0 / math.pi ** 2) * (math.pi / c) \
        * math.cosh(c * (math.pi - phi)) / math.sinh(math.pi * c)
    r = sum_cf_lattice(LAPLACE, math.pi, phi, tol=1e-10)
    assert complex(r.value).real == pytest.approx(target, abs=1e-10)


def cosh_series(t: float, c: float) -> float:
    """Classical Fourier series: sum over all integers of e^{ikt}/(k^2+c^2)
    equals (pi/c) cosh(c(pi-|t|))/sinh(pi c) on [-pi, pi]."""
    return (math.pi / c) * math.cosh(c * (math.pi - abs(t))) / math.sinh(math.pi * c)


@pytest.mark.parametrize("t", [0.0, 0.3, 1.0, math.pi - 1e-3, math.pi])
def test_phased_inverse_square_series(t):
    # sum_k e^{ikt}/(k^2 + c^2) with c = 1/pi is pi^-2 sum_k e^{ikt} f(pi k)
    # for laplace:b=1: no series to accelerate, the cf side sums it in
    # closed form
    c = 1.0 / math.pi
    r = sum_cf_lattice(make_laplace(1.0), math.pi, t)
    value = r.value / (c * c)
    assert abs(value - cosh_series(t, c)) <= r.tail_estimate / (c * c) + 1e-14


def test_cf_sum_product_separable():
    p2 = product([make_gaussian(1.0), make_gaussian(1.0)])
    r = sum_cf_lattice(p2, 2.0 * math.pi, None, tol=1e-10)
    one = 1.0 + 2.0 * math.exp(-2 * math.pi ** 2)
    assert complex(r.value).real == pytest.approx(one * one, rel=1e-11)


# ---------------------------------------------------------------------------
# phased cf sums against the direct-exponential loop
# ---------------------------------------------------------------------------

def _shifted_gaussian(mu):
    # cf e^{i mu t - t^2/2}: not symmetric about 0, so the cf side sums its
    # remainder on each side of 0
    g = make_gaussian(1.0)
    return dataclasses.replace(
        g, cf=lambda t: np.exp(1j * mu * np.asarray(t, dtype=float)) * g.cf(t),
        flags=dataclasses.replace(g.flags, symmetric_about_0=False),
        label=f"gaussian-shift:mu={mu}")


def _direct_phased_sum(dist, phases, N):
    """sum_{|k| <= N} e^{i phi k} f(pi k), one exponential per term, in
    blocks of 1024 k; returns the sums and sum_{|k| <= N} |f(pi k)|."""
    phi = np.atleast_1d(np.asarray(phases, dtype=float))
    f = dist.cf
    vals = np.full(phi.shape, complex(f(0.0)))
    mass = abs(f(0.0))
    for k0 in range(1, N + 1, 1024):
        k = np.arange(k0, min(k0 + 1024, N + 1))
        fp = np.asarray(f(math.pi * k), dtype=complex)
        fm = np.asarray(f(-math.pi * k), dtype=complex)
        ang = np.outer(phi, k)
        vals += (np.exp(1j * ang) * fp + np.exp(-1j * ang) * fm).sum(axis=1)
        mass += float(np.abs(fp).sum() + np.abs(fm).sum())
    return vals, mass


def _grid_phases(n):
    w = np.linspace(-5.0, 5.0, 1001) * math.sqrt(n)
    par = n % 2
    return -math.pi * ((w - 2.0 * np.round((w + par) / 2.0)) + par)


PHASE_SETS = {
    "grid-n16": _grid_phases(16),
    "grid-n16384": _grid_phases(16384),
    "random57": np.random.default_rng(20261018).uniform(-math.pi, math.pi, 57),
    "limits": -math.pi * np.array([0.0, 1.0]),
}

# the direct loop's last k, and its truncation sum_{|k| > N} |f(pi k)|
DIRECT_LOOP = {
    "uniform:h=1": (2 ** 14, 0.0),                             # sin(pi k) = 0
    "laplace:b=1": (2 ** 14, 2.0 / (math.pi ** 2 * 2 ** 14)),  # integral test on (pi k)^-2
    "gaussian:sigma=1": (40, 0.0),                             # e^{-pi^2 k^2/2} underflows
    "fejer:T=0.7": (0, 0.0),                                   # support |t| <= 0.7 < pi
    "gaussian-shift:mu=0.3": (40, 0.0),
}


@pytest.mark.parametrize("phases", list(PHASE_SETS.values()), ids=list(PHASE_SETS))
@pytest.mark.parametrize("dist", [UNIFORM, LAPLACE, GAUSSIAN, make_fejer(0.7),
                                  _shifted_gaussian(0.3)], ids=lambda d: d.label)
def test_phased_sum_matches_direct_loop(dist, phases):
    # the phased cf sum sum_k e^{i phi k} f(pi k), on the cf side at x = phi/2 pi,
    # within its declared tail of the direct loop, allowing that loop its
    # truncation, 64 eps of its mass, and 2 eps per term for the rounding of
    # pi k (|t f'(t)| <= 2 for these laws)
    vals, tail = lattice._cf_side(dist, math.pi, phases / (2.0 * math.pi))
    N, truncation = DIRECT_LOOP[dist.label]
    ref, mass = _direct_phased_sum(dist, phases, N)
    eps = np.finfo(float).eps
    allow = tail + truncation + 64.0 * eps * mass + 2.0 * eps * (2 * N + 1)
    assert np.max(np.abs(vals - ref)) <= allow
    assert tail <= 1e-9 * math.sqrt(2.0 * math.pi) * 0.25   # the cell engine's A tolerance


def test_phased_sum_asymmetric_matches_theta_series():
    # e^{i mu pi k - pi^2 k^2 / 2} is below 1e-300 beyond |k| = 12
    mu, phases = 0.3, np.array([-2.0, 0.0, 0.7, 3.0])
    k = np.arange(-12, 13)
    direct = (np.exp(1j * np.outer(phases, k)) * np.exp(1j * mu * math.pi * k
                                                        - 0.5 * (math.pi * k) ** 2)).sum(axis=1)
    vals, tail = lattice._cf_side(_shifted_gaussian(mu), math.pi, phases / (2.0 * math.pi))
    # read as real, the cf would lose its shift: 2 cos(phi k) cos(mu pi k)
    # in place of 2 cos((phi + mu pi) k), off by about 0.02 at these phases
    assert np.max(np.abs(vals - direct)) <= 1e-15
    assert tail <= 1e-12


# ---------------------------------------------------------------------------
# the periodized cf on its short side
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dist", [UNIFORM, make_uniform(0.25), make_uniform(2.3), LAPLACE,
                                  make_laplace(0.4), GAUSSIAN, make_gaussian(2.5),
                                  make_fejer(0.7), make_fejer(2.668)],
                         ids=lambda d: d.label)
def test_periodized_cf_is_the_phased_cf_sum(dist):
    # Poisson at s = 0: sum_k e^{-i pi k a} f(pi k) = 2 sum_m p(a + 2m), summed
    # here on the short side and there on the cf side, within both declared
    # tails and the density side's declared rounding (s != 0 is covered per
    # point by the cell engine's hypothesis test against the exact mixture)
    a = np.random.default_rng(20261018).uniform(-3.0, 3.0, 9)
    got, tail = periodized_cf(dist, [0.0], a)
    ref, ref_tail = lattice._cf_side(dist, math.pi, -0.5 * a)
    _, dn_tail, _ = lattice._density_sum(dist, 2.0, a)
    assert np.max(np.abs(got[:, 0] - ref)) <= tail + ref_tail + 2.0 * dn_tail


@pytest.mark.parametrize("b", [0.25, 0.4, 1.0, 4.0])
@pytest.mark.parametrize("step", [math.pi, 2.0 * math.pi], ids=["pi", "2pi"])
def test_cf_side_laplace_per_point(b, step):
    # sum_k e^{-i step k a} f(step k) is (2 pi/step) sum_m p(a + 2 pi m/step),
    # cosh in closed form; offsets within 1e-3 of even integers sit by the
    # kink of that cosh, where the cf side converges slowest
    a = np.concatenate([np.linspace(-3.0, 3.0, 61),
                        [d + e for d in (-2.0, 0.0, 2.0) for e in (-1e-3, -1e-7, 0.0, 1e-7, 1e-3)]])
    L = 2.0 * math.pi / step
    exact = L * np.cosh((0.5 * L - np.mod(a, L)) / b) / (2.0 * b * math.sinh(0.5 * L / b))
    for ai, e in zip(a, exact):
        r = sum_cf_lattice(make_laplace(b), step, -step * ai)
        assert abs(r.value - e) <= r.tail_estimate, (ai, r.value - e, r.tail_estimate)
        assert r.tol_met


@pytest.mark.parametrize("h", [0.25, 1.0, 1.79, 2.3, 2.63, 3.52])
def test_cf_side_uniform_per_point(h):
    # the cf route to A_n against the density side (1-4 lattice points of a
    # box) on 41 points at four n, offsets on the jumps included
    src = make_uniform(h)
    x = np.linspace(-6.0, 1.0, 41)
    for n in (3, 180, 13456, 14863):
        a = x * math.sqrt(n) + n
        cf, cf_tail, _ = asymptotics._a_factor(src, a, 1e-9, "cf")
        dn, dn_tail, _ = asymptotics._a_factor(src, a, 1e-9, "density")
        assert np.all(np.abs(cf - dn) <= cf_tail + dn_tail), n
        assert cf_tail <= 1e-13


@pytest.mark.parametrize("h", [0.25, 0.5, 0.7, 1.0, 1.3, 2.0, 3.52, 10.0])
def test_routes_agree_on_the_jumps_of_a_uniform_density(h):
    # at offsets on +-h + 2Z both routes to A_n take the mean of the
    # one-sided limits: the density side by its midpoint rule, the cf side
    # by the sawtooth's midpoint 0
    src = make_uniform(h)
    for n in (1, 2, 3, 16, 17, 101, 256, 16384):
        a = np.array([n + e * h + 2.0 * m for e in (-1.0, 1.0) for m in range(-3, 4)])
        cf, cf_tail, _ = asymptotics._a_factor(src, a, 1e-9, "cf")
        dn, dn_tail, _ = asymptotics._a_factor(src, a, 1e-9, "density")
        assert np.max(np.abs(cf - dn)) <= cf_tail + dn_tail, n


def test_report_gap_covers_the_jumps():
    # x = (2j - 16 +- 1)/4 on the grid puts a = 4x + 16 on the jumps of
    # uniform:h=1, where the route gap is now taken too
    from llt_lab import grid_1d
    rep = oscillation_report(SmoothedModel(UNIFORM, bernoulli_noise(1)), 16,
                             grid_1d(-5.0, 5.0, 201))
    assert rep.method_gap <= rep.meta["cf_tail"] + rep.meta["density_tail"]


def _shifted_fejer(T, mu=0.37):
    # the triangle cf times e^{i mu t}: compact and not even; built with
    # numpy, as _pointwise would cast its 0-d complex value to float
    def cf(t):
        t = np.asarray(t, dtype=float)
        return np.maximum(1.0 - np.abs(t) / T, 0.0) * np.exp(1j * mu * t)
    return dataclasses.replace(make_fejer(T), cf=cf, flags=DistFlags(symmetric_about_0=False),
                               label=f"fejer-shift:T={T:g}")


@pytest.mark.parametrize("mu", [0.0, 0.37])
@pytest.mark.parametrize("T", [0.5, 0.7, 1.0, 4.0, 10.0, 50.0])
def test_compact_cf_sum_is_the_direct_finite_sum(T, mu):
    # a compact cf takes the cf side's head path with no terms and a tail
    # of 0 from T on; against the finite sum over |step k| <= T in 40
    # digits, at the same float points step k.  The head's phases are
    # exact at phase 0 and charged eps 2 pi k |x| elsewhere, so even
    # fejer:T=50 at step 0.3 (335 terms) meets the default tol
    dist = make_fejer(T) if mu == 0.0 else _shifted_fejer(T, mu)
    for step in (math.pi, 2.0 * math.pi, 0.3):
        kmax = math.ceil(T / step)
        for phase in (0.0, 0.4, 1.0, 1.7):
            r = sum_cf_lattice(dist, step, phase)
            with mpmath.workdps(40):
                exact = complex(mpmath.fsum(
                    mpmath.expj(phase * k) * max(1 - abs(mpmath.mpf(step * k)) / T, 0)
                    * mpmath.expj(mu * mpmath.mpf(step * k)) for k in range(-kmax, kmax + 1)))
            assert abs(r.value - exact) <= r.tail_estimate, (step, phase)
            assert r.tol_met, (step, phase, r.tail_estimate)


def test_cf_side_needs_a_declared_side():
    # a cf with neither a compact support nor declared terms at infinity
    bare = dataclasses.replace(LAPLACE, cf_lattice_tail=None)
    with pytest.raises(UnsupportedError, match="no cf side"):
        sum_cf_lattice(bare, math.pi)


def test_periodized_cf_takes_the_midpoint_at_jumps():
    # a = +-1 puts y = +-1 on the edges of uniform:h=1; the cf side sums to
    # f(0) = 1 there, as sin(pi k) = 0
    got, tail = periodized_cf(UNIFORM, [0.0, 0.3], [1.0, -1.0, 3.0])
    assert tail == 0.0
    assert np.allclose(got[:, 0], 1.0, rtol=0.0, atol=1e-15)
    assert np.allclose(got[:, 1], math.cos(0.3), rtol=0.0, atol=1e-15)


def test_periodized_cf_needs_a_short_side():
    # a decaying density that declares no lattice tail, and a cf of no
    # compact support, have no short side
    bare = dataclasses.replace(LAPLACE, density_lattice_tail=None)
    with pytest.raises(UnsupportedError, match="short side"):
        periodized_cf(bare, [0.0], [0.5])


# ---------------------------------------------------------------------------
# lattice zeros
# ---------------------------------------------------------------------------

def test_zeros_uniform():
    rep = check_pi_lattice_zeros(UNIFORM, 20)
    assert rep.max_abs <= 1e-15


def test_zeros_laplace():
    rep = check_pi_lattice_zeros(LAPLACE, 20)
    assert rep.max_abs == pytest.approx(1.0 / (1.0 + math.pi ** 2), abs=1e-15)
    assert abs(rep.argmax_k[0]) == 1


def test_zeros_product():
    p2 = product([make_uniform(1.0), make_uniform(1.0)])
    rep = check_pi_lattice_zeros(p2, 5)
    assert rep.max_abs <= 1e-15


_ZERO_LAWS = [make_uniform(1.0), make_uniform(1.5), make_laplace(1.0), make_laplace(0.3),
              make_gaussian(1.0), make_fejer(0.7), make_fejer(5.0)]


@pytest.mark.parametrize("k_max", [1, 5, 20])
@pytest.mark.parametrize("first", range(len(_ZERO_LAWS)), ids=lambda i: _ZERO_LAWS[i].label)
def test_zeros_of_a_product_are_judged_on_its_components(first, k_max):
    # the maximum of |f(pi k)| over every nonzero k of the square, formed
    # directly, is the larger of the components' one-dimensional maxima
    rng = np.arange(-k_max, k_max + 1)
    KX, KY = np.meshgrid(rng, rng, indexing="ij")
    pts = np.stack([KX, KY], axis=-1).reshape(-1, 2)
    pts = pts[np.any(pts != 0, axis=1)]
    for second in _ZERO_LAWS:
        dist = product([_ZERO_LAWS[first], second])
        rep = check_pi_lattice_zeros(dist, k_max)
        vals = np.abs(np.asarray(dist.cf(math.pi * pts.astype(float)), dtype=complex))
        assert rep.max_abs == float(np.max(vals)), second.label
        k = np.array(rep.argmax_k)
        assert 0 in rep.argmax_k and 1 <= np.max(np.abs(k)) <= k_max
        assert abs(complex(dist.cf(math.pi * k.astype(float)))) == rep.max_abs


# ---------------------------------------------------------------------------
# Poisson identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_poisson_gaussian(sigma):
    rep = poisson_check(make_gaussian(sigma), tol=1e-11)
    assert rep.gap <= 1e-10


def test_poisson_laplace():
    rep = poisson_check(LAPLACE, tol=1e-9)
    target_lhs = 0.5 * (math.e + 1.0) / (math.e - 1.0)
    assert rep.lhs == pytest.approx(target_lhs, abs=1e-12)
    assert rep.gap <= 1e-8


def test_poisson_uniform_rejected():
    with pytest.raises(UnsupportedError, match="discontinuous"):
        poisson_check(UNIFORM)


def test_poisson_refuses_an_undeclared_cf_tail():
    # a continuous density is not enough: the cf must be declared integrable
    bare = dataclasses.replace(LAPLACE, cf_power_tail=None)
    with pytest.raises(UnsupportedError, match="integrable"):
        poisson_check(bare)


def test_poisson_fejer_rejected_infinite_moment():
    with pytest.raises(UnsupportedError, match="moment"):
        poisson_check(FEJER)


# ---------------------------------------------------------------------------
# wrapped autocorrelation
# ---------------------------------------------------------------------------

def test_autocorr_uniform_exact_half():
    assert wrapped_autocorrelation(UNIFORM).value == pytest.approx(0.5, abs=1e-12)


def test_autocorr_laplace():
    # (p*p)(y) = (1+|y|) e^{-|y|} / 4 summed over even integers
    q = lambda y: 0.25 * (1 + abs(y)) * math.exp(-abs(y))  # noqa: E731
    target = theta_sum(lambda m: q(2 * m), 40)
    val = wrapped_autocorrelation(LAPLACE).value
    assert val == pytest.approx(target, abs=1e-12)
    assert val == pytest.approx(0.509274, abs=1e-6)
    assert abs(val - 0.5) >= 0.005


def test_autocorr_gaussian_differs_from_half():
    q = lambda y: math.exp(-y * y / 4.0) / (2.0 * math.sqrt(math.pi))  # noqa: E731
    target = theta_sum(lambda m: q(2 * m), 30)
    val = wrapped_autocorrelation(GAUSSIAN).value
    assert val == pytest.approx(target, abs=1e-11)
    assert abs(val - 0.5) > 1e-5


def test_autocorr_fejer_half():
    # triangular cf vanishes on the nonzero pi-lattice, so the identity
    # forces exactly one half despite the heavy density tail
    assert wrapped_autocorrelation(FEJER).value == pytest.approx(0.5, abs=1e-8)


def test_autocorr_needs_a_declared_cf_side():
    # the sum is taken on the cf side only: a law that declares neither a
    # compact cf nor cf terms with a lattice tail is refused
    stripped = dataclasses.replace(LAPLACE, cf_terms=(), cf_lattice_tail=None)
    with pytest.raises(UnsupportedError, match="no cf side declared"):
        wrapped_autocorrelation(stripped)


def test_squared_terms_are_the_square_of_the_terms():
    # every parity pair, with the sine's frequency above, below and equal to
    # the cosine's (a sine of frequency 0 is dropped)
    terms = ((0.7, 1, 2.0), (-0.3, 2, 0.5), (1.1, 3, 0.5), (0.2, 2, 3.0))

    def value(ts, t):
        return sum(c * t ** -p * (np.sin(w * t) if p % 2 else np.cos(w * t)) for c, p, w in ts)

    t = np.linspace(0.3, 7.0, 41)
    squared = lattice._squared_terms(terms)
    assert all(p % 2 == 0 or w > 0.0 for _, p, w in squared)
    np.testing.assert_allclose(value(squared, t), value(terms, t) ** 2, rtol=1e-12, atol=1e-14)


def _autocorr_exact(name, v):
    """sum_m (p*p~)(2m) to 90 digits, in closed form: gaussian:sigma=4 is
    1e-69 above 1/2."""
    with mpmath.workdps(90):
        v = mpmath.mpf(v)
        if name == "laplace":
            # (p*p~)(y) = (1 + |y|/b) e^{-|y|/b}/(4b): two geometric series
            r = mpmath.exp(-2 / v)
            exact = (1 + 2 * (r / (1 - r) + (2 / v) * r / (1 - r) ** 2)) / (4 * v)
        elif name == "gaussian":
            # (p*p~)(y) = e^{-y^2/4 sigma^2}/(2 sigma sqrt(pi)): a theta value
            exact = mpmath.jtheta(3, 0, mpmath.exp(-1 / v ** 2)) / (2 * v * mpmath.sqrt(mpmath.pi))
        elif name == "uniform":
            # the triangle (2h - |y|)+/(4h^2) at the even points inside it
            M = int(mpmath.floor(v))
            exact = mpmath.fsum(2 * v - 2 * abs(m) for m in range(-M, M + 1)
                                if 2 * abs(m) < 2 * v) / (4 * v * v)
        else:
            # fejer, on the cf side: 1/2 sum_{|pi m| < T} (1 - |pi m|/T)^2
            M = int(mpmath.floor(v / mpmath.pi))
            exact = mpmath.fsum((1 - mpmath.pi * abs(m) / v) ** 2
                                for m in range(-M, M + 1) if mpmath.pi * abs(m) < v) / 2
        return exact


_AUTOCORR_LAWS = ([("laplace", b) for b in (0.25, 0.4, 1.0, 4.0)]
                  + [("gaussian", s) for s in (0.25, 1.0, 4.0)]
                  + [("uniform", h) for h in (0.25, 0.7, 1.0, math.sqrt(3.0), 4.0)]
                  + [("fejer", T) for T in (0.7, 3.5, 7.0)])
_MAKERS = {"laplace": make_laplace, "gaussian": make_gaussian,
           "uniform": make_uniform, "fejer": make_fejer}


@pytest.mark.parametrize("name, v", _AUTOCORR_LAWS + [("product", None)],
                         ids=[f"{n}-{v:g}" for n, v in _AUTOCORR_LAWS] + ["product"])
def test_autocorr_per_parameter(name, v):
    # each family on the one cf-side path, within its declared tail of the
    # exact value; a product is the product of its components' sums
    if name == "product":
        dist = product([make_uniform(0.7), make_laplace(1.0)])
        exact = _autocorr_exact("uniform", 0.7) * _autocorr_exact("laplace", 1.0)
    else:
        dist, exact = _MAKERS[name](v), _autocorr_exact(name, v)
    ac = wrapped_autocorrelation(dist)
    with mpmath.workdps(90):
        err = float(abs(mpmath.mpf(ac.value) - exact))
    assert err <= ac.tail_estimate <= 1e-11
    assert ac.tol_met


def test_equivalence_zeros_iff_autocorr_half():
    for dist in (UNIFORM, LAPLACE, GAUSSIAN, FEJER):
        zeros = check_pi_lattice_zeros(dist, 20).max_abs <= 1e-12
        half = abs(wrapped_autocorrelation(dist).value - 0.5) <= 1e-8
        assert zeros == half, dist.label


# ---------------------------------------------------------------------------
# Poisson-consistency between the two sum routes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dist", [LAPLACE, GAUSSIAN], ids=lambda d: d.label)
def test_density_route_equals_cf_route(dist):
    lhs = sum_density_lattice(dist, 1.0, 0.0, tol=1e-10)
    rhs = sum_cf_lattice(dist, 2.0 * math.pi, None, tol=1e-10)
    budget = lhs.tail_estimate + rhs.tail_estimate + 1e-11
    assert abs(float(np.real(lhs.value)) - float(np.real(rhs.value))) <= budget


@pytest.mark.parametrize("dist", [LAPLACE, GAUSSIAN, FEJER], ids=lambda d: d.label)
def test_tail_estimate_bounds_refinement(dist):
    # deepening the truncation moves the value by at most twice the coarse
    # run's declared tail estimate
    coarse = sum_density_lattice(dist, 2.0, 0.3, tol=1e-6)
    fine = sum_density_lattice(dist, 2.0, 0.3, tol=1e-12)
    assert abs(float(np.real(coarse.value)) - float(np.real(fine.value))) \
        <= 2.0 * max(coarse.tail_estimate, 1e-15)


# ---------------------------------------------------------------------------
# hostile input
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call", [
    pytest.param(lambda: sum_density_lattice(LAPLACE, math.nan, 0.0), id="density-scale-nan"),
    pytest.param(lambda: sum_density_lattice(LAPLACE, -2.0, 0.0), id="density-scale-negative"),
    pytest.param(lambda: sum_density_lattice(LAPLACE, 2.0, math.inf), id="density-offset-inf"),
    pytest.param(lambda: sum_cf_lattice(LAPLACE, math.inf), id="cf-step-inf"),
    pytest.param(lambda: sum_cf_lattice(LAPLACE, 0.0), id="cf-step-zero"),
    pytest.param(lambda: sum_cf_lattice(LAPLACE, math.pi, math.nan), id="cf-phase-nan"),
    pytest.param(lambda: periodized_cf(LAPLACE, [0.0], [math.nan]), id="periodized-a-nan"),
    pytest.param(lambda: periodized_cf(LAPLACE, [math.inf], [0.0]), id="periodized-s-inf"),
    pytest.param(lambda: sum_cf_lattice(LAPLACE, math.pi, [0.3, 1.0]), id="cf-two-phases"),
    pytest.param(lambda: sum_density_lattice(product([LAPLACE, LAPLACE]), 1.0, [0.0]),
                 id="density-2d-one-offset"),
])
def test_lattice_sums_refuse_non_finite_input(call):
    # a non-finite or non-positive step or scale, a non-finite offset or
    # phase, or one that does not give one entry per dimension, is refused
    # instead of summed to NaN or to a wrong value
    with pytest.raises(InvalidParameterError):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: sum_cf_lattice(make_fejer(1e300), math.pi), id="cf-side-compact"),
    pytest.param(lambda: periodized_cf(make_fejer(1e300), [0.0], [0.0]), id="short-side-cf"),
    pytest.param(lambda: periodized_cf(make_uniform(1e100), [0.0], [0.0]),
                 id="short-side-density"),
    pytest.param(lambda: wrapped_autocorrelation(make_fejer(1e300)), id="autocorr-compact"),
])
def test_lattice_sides_count_their_terms_first(call):
    # 1e300 terms would not fit in memory: the count is refused before any
    # term is formed
    with pytest.raises(UnsupportedError, match="needs more than 2048 terms"):
        call()


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
def test_lattice_sums_and_limits_refuse_a_nonpositive_tol(tol):
    model = SmoothedModel(LAPLACE, bernoulli_noise(1))
    for call in (lambda: sum_density_lattice(LAPLACE, 2.0, 0.0, tol=tol),
                 lambda: sum_cf_lattice(LAPLACE, math.pi, tol=tol),
                 lambda: even_odd_limits(LAPLACE, tol=tol),
                 lambda: oscillation_report(model, 16, tol=tol)):
        with pytest.raises(InvalidParameterError, match="tol must be positive"):
            call()


# ---------------------------------------------------------------------------
# regularity integrals
# ---------------------------------------------------------------------------

def test_regularity_uniform_2_3_finite():
    rep = regularity_integral(UNIFORM, "condition_2_3", 8)
    assert not rep.diverging
    assert rep.estimate > 0


def test_regularity_laplace_3_1_value():
    # integral of |f'| = 2 * [1/(1+t^2)]_0^inf = 2 in closed form
    rep = regularity_integral(LAPLACE, "condition_3_1", 10)
    assert not rep.diverging
    assert rep.estimate == pytest.approx(2.0, abs=0.01)


def test_regularity_searches_the_cf_zeros_interval_by_interval():
    # the search grid takes 4 h = 40 steps per cell and 2100 over the
    # window: the cap of 2048 steps is per cell, not per window
    rep = regularity_integral(make_uniform(10.0), "condition_3_1", 52)
    assert rep.diverging
    assert len(rep.shell_contributions) == 52


def test_regularity_product_uniform_3_1_diverges():
    p2 = product([make_uniform(1.0), make_uniform(1.0)])
    rep = regularity_integral(p2, "condition_3_1", 8)
    assert rep.diverging


def test_regularity_product_uniform_2_3_converges():
    p2 = product([make_uniform(1.0), make_uniform(1.0)])
    rep = regularity_integral(p2, "condition_2_3", 8)
    assert not rep.diverging


def _closed_variation(F, K):
    """2 (F(lo) - F(hi)) on each shell pi(j -+ 1/2), j = 1..K, of a
    decreasing F."""
    return [2.0 * (F(math.pi * (j - 0.5)) - F(math.pi * (j + 0.5))) for j in range(1, K + 1)]


@pytest.mark.parametrize("kind", ["condition_3_1", "condition_2_3"])
@pytest.mark.parametrize("dist, f", [
    (make_laplace(0.25), lambda t: 1.0 / (1.0 + (0.25 * t) ** 2)),
    (LAPLACE, lambda t: 1.0 / (1.0 + t * t)),
    (make_laplace(1e100), lambda t: 1.0 / (1.0 + (1e100 * t) ** 2)),
    (GAUSSIAN, lambda t: math.exp(-0.5 * t * t)),
    (FEJER, lambda t: max(1.0 - t, 0.0)),
], ids=["laplace-0.25", "laplace-1", "laplace-1e100", "gaussian", "fejer"])
def test_regularity_of_a_monotone_cf_is_its_difference(dist, f, kind):
    # f falls on t > 0, so each shell of |f'| holds 2 (f(lo) - f(hi)) and
    # each shell of |f f'| = |(f^2/2)'| holds f(lo)^2 - f(hi)^2
    F = f if kind == "condition_3_1" else (lambda t: 0.5 * f(t) ** 2)
    rep = regularity_integral(dist, kind, 20)
    assert rep.shell_contributions == pytest.approx(_closed_variation(F, 20), rel=0, abs=1e-15)


def _gaussian_pair(mu):
    """The even law (N(-mu, 1) + N(mu, 1))/2: f = e^{-t^2/2} cos(mu t),
    whose f' changes sign near every zero of sin(mu t)."""
    def cf(t):
        t = np.asarray(t, dtype=float)
        return np.exp(-0.5 * t * t) * np.cos(mu * t)

    def cf_grad(t):
        t = np.asarray(t, dtype=float)
        return -np.exp(-0.5 * t * t) * (t * np.cos(mu * t) + mu * np.sin(mu * t))

    return SourceDistribution(density=None, cf=cf, cf_grad=cf_grad,
                              flags=DistFlags(symmetric_about_0=True),
                              label=f"gaussian-pair:mu={mu:g}")


@pytest.mark.parametrize("kind", ["condition_3_1", "condition_2_3"])
def test_regularity_splits_an_oscillating_cf_of_no_compact_density(kind):
    # the sign changes of F' are searched for every law: on each shell the
    # integral is the total variation of F = f (or f^2/2) between them,
    # here at 30 digits with the sign changes refined by mpmath.  The outer
    # shells are tiny, and each is also held to 1e-12 relative
    mu, K = 3.0, 6
    rep = regularity_integral(_gaussian_pair(mu), kind, K)
    mp = mpmath.mp.clone()
    mp.dps = 30
    f = lambda t: mp.exp(-t * t / 2) * mp.cos(mu * t)
    fp = lambda t: -mp.exp(-t * t / 2) * (t * mp.cos(mu * t) + mu * mp.sin(mu * t))
    F = f if kind == "condition_3_1" else (lambda t: f(t) ** 2 / 2)
    law = _gaussian_pair(mu)
    t = np.linspace(0.0, math.pi * (K + 0.5), 200_001)
    ends = [mp.pi * (j + mp.mpf(0.5)) for j in range(K + 1)]
    pairs = [(law.cf_grad, fp)] + ([(law.cf, f)] if kind == "condition_2_3" else [])
    for fn, g in pairs:
        v = fn(t)
        ends += [mp.findroot(g, (t[i], t[i + 1]), solver="anderson")
                 for i in np.nonzero(v[:-1] * v[1:] < 0.0)[0]]
    ends = sorted(ends)
    for j in range(1, K + 1):
        lo, hi = mp.pi * (j - mp.mpf(0.5)), mp.pi * (j + mp.mpf(0.5))
        u = [e for e in ends if lo <= e <= hi]
        exact = 2 * sum(abs(F(b) - F(a)) for a, b in zip(u, u[1:]))
        err = abs(rep.shell_contributions[j - 1] - float(exact))
        assert err <= 1e-15 and err <= 1e-12 * exact, j


def test_regularity_refuses_a_law_that_is_not_even():
    # the laplace law shifted by 1: f = e^{it}/(1 + t^2) is complex, and
    # |f'| is an arc length in C, not a difference of f
    def cf(t):
        t = np.asarray(t, dtype=float)
        return np.exp(1j * t) / (1.0 + t * t)

    def cf_grad(t):
        t = np.asarray(t, dtype=float)
        return np.exp(1j * t) * (1j / (1.0 + t * t) - 2.0 * t / (1.0 + t * t) ** 2)

    shifted = SourceDistribution(density=None, cf=cf, cf_grad=cf_grad,
                                 flags=DistFlags(symmetric_about_0=False),
                                 label="laplace-shifted")
    with pytest.raises(UnsupportedError, match="even law"):
        regularity_integral(shifted, "condition_3_1")


def _finer_polar_window(dist, kind, K):
    """central cell and shells of the 2-D regularity window on a polar rule
    4x finer in each direction than the default: four 96-node theta panels
    between each cell's corners, 192 nodes in r, numpy's Gauss-Legendre;
    the product's gradient (f1'(x) f2(y), f1(x) f2'(y)) from its components"""
    c1, c2 = dist.components
    x, w = np.polynomial.legendre.leggauss(96)
    theta = np.concatenate([math.pi / 4.0 * x + c * math.pi / 2.0 for c in range(4)])
    rmax = (math.pi / 2.0) / np.maximum(np.abs(np.cos(theta)), np.abs(np.sin(theta)))
    xr, wr = np.polynomial.legendre.leggauss(192)
    r = 0.5 * (xr + 1.0) * rmax[:, None]
    ww = 0.5 * wr * rmax[:, None] * np.tile(math.pi / 4.0 * w, 4)[:, None]
    offs = np.stack([r * np.cos(theta)[:, None], r * np.sin(theta)[:, None]], axis=-1)
    parts = []
    for s in range(K + 1):
        part = 0.0
        for kx in range(-s, s + 1):
            for ky in range(-s, s + 1):
                if max(abs(kx), abs(ky)) == s:
                    p = offs + math.pi * np.array([kx, ky])
                    px, py = p[..., 0], p[..., 1]
                    g = np.hypot(c1.cf_grad(px) * c2.cf(py), c1.cf(px) * c2.cf_grad(py))
                    if kind == "condition_2_3":
                        g = g * np.abs(dist.cf(p))
                    part += float((g * ww).sum())
        parts.append(part)
    return parts


@pytest.mark.parametrize("kind", ["condition_3_1", "condition_2_3"])
@pytest.mark.parametrize("law", [LAPLACE, GAUSSIAN], ids=["laplace", "gaussian"])
def test_regularity_2d_rule_matches_a_finer_rule(law, kind):
    # Gauss-Legendre panels in theta that end at the cell's corners, where
    # the radius to the cell edge has kinks; a midpoint rule in theta was
    # 3e-4 off the finer rule
    p2 = product([law, law])
    rep = regularity_integral(p2, kind, 4)
    parts = _finer_polar_window(p2, kind, 4)
    ref = lattice._shell_report(sum(parts), parts[1:], 4)
    assert rep.estimate == pytest.approx(ref.estimate, rel=1e-5, abs=0)


def test_regularity_2d_window_is_capped_in_cells():
    # the window holds (2K + 1)^2 cells: K = 40 is the widest, and K = 41 is
    # refused before any cell is formed
    with pytest.raises(UnsupportedError, match="more than 6561 cells"):
        regularity_integral(product([LAPLACE, LAPLACE]), "condition_3_1", 41)


def test_poisson_2d_product():
    p2 = product([make_gaussian(1.0), make_gaussian(1.0)])
    rep = poisson_check(p2, tol=1e-11)
    assert rep.gap <= 1e-10
    one = 1.0 + 2.0 * math.exp(-2 * math.pi ** 2)
    assert rep.rhs == pytest.approx(one * one, rel=1e-11)


def test_poisson_judges_a_product_on_its_components():
    # a product declares no moment or cf tail of its own: it has a first
    # absolute moment and an integrable cf where every component has, every
    # moment is judged before any cf, and the refusal names the component
    # that fails
    for comps in ([UNIFORM, make_gaussian(1.0)], [make_gaussian(1.0), UNIFORM]):
        with pytest.raises(UnsupportedError, match=f"^{UNIFORM.label}: cf not declared"):
            poisson_check(product(comps))
    bare = dataclasses.replace(LAPLACE, cf_power_tail=None, label="bare")
    with pytest.raises(UnsupportedError, match="^bare: cf not declared"):
        poisson_check(product([LAPLACE, bare]))
    fejer = make_fejer(0.7)
    for comps in ([fejer, GAUSSIAN], [GAUSSIAN, fejer], [UNIFORM, fejer]):
        with pytest.raises(UnsupportedError,
                           match="^fejer:T=0.7: first absolute moment unavailable"):
            poisson_check(product(comps))


@pytest.mark.parametrize("T", [0.5, 0.7, 1.0, 4.0])
def test_autocorr_fejer_cf_side_sum(T):
    # Poisson pair: the sum equals 1/2 sum_{|pi m| < T} (1 - |pi m|/T)^2,
    # a finite sum with no tail; T = 4 keeps m = -1, 0, 1
    ms = [m for m in range(-2, 3) if math.pi * abs(m) < T]
    exact = 0.5 * sum((1.0 - math.pi * abs(m) / T) ** 2 for m in ms)
    if T == 4.0:
        assert exact == pytest.approx(0.5 * (1.0 + 2.0 * (1.0 - math.pi / 4.0) ** 2),
                                      abs=1e-15)
    ac = wrapped_autocorrelation(make_fejer(T), tol=1e-9)
    assert abs(ac.value - exact) <= max(ac.tail_estimate, 1e-15)
    assert ac.tol_met
