import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

from llt_lab import (InvalidParameterError, SourceDistribution, UnsupportedError,
                     as_noise, bernoulli_noise, beta3, make_fejer, make_gaussian,
                     make_laplace, make_uniform, product, uniform_noise)

UNIFORM = make_uniform(1.0)
LAPLACE = make_laplace(1.0)
GAUSSIAN = make_gaussian(1.0)
FEJER = make_fejer(1.0)
CATALOG = [UNIFORM, LAPLACE, GAUSSIAN, FEJER]


# ---------------------------------------------------------------------------
# constructor examples
# ---------------------------------------------------------------------------

def test_uniform_examples():
    assert abs(UNIFORM.cf(math.pi)) <= 1e-15
    assert UNIFORM.cf(0.0) == 1.0
    assert UNIFORM.density(0.5) == 0.5


def test_laplace_examples():
    assert LAPLACE.density(0.0) == 0.5
    assert LAPLACE.cf(math.pi) == pytest.approx(1.0 / (1.0 + math.pi ** 2), abs=1e-15)
    assert LAPLACE.cf(0.0) == 1.0


def test_gaussian_examples():
    assert GAUSSIAN.cf(math.pi) == pytest.approx(math.exp(-math.pi ** 2 / 2), rel=1e-14)
    assert GAUSSIAN.density(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-14)
    assert make_gaussian(2.0).cf(0.0) == 1.0


def test_fejer_examples():
    assert FEJER.cf(2.0) == 0.0
    assert FEJER.density(0.0) == pytest.approx(1.0 / (2 * math.pi), rel=1e-14)
    assert FEJER.cf(0.5) == 0.5
    assert FEJER.abs_moment1 is None
    assert math.isinf(FEJER.abs_moment3)


def test_invalid_parameters():
    for ctor in (make_uniform, make_laplace, make_gaussian, make_fejer):
        with pytest.raises(InvalidParameterError):
            ctor(0.0)
        with pytest.raises(InvalidParameterError):
            ctor(-1.5)


def test_product_examples():
    p2 = product([make_uniform(1.0), make_uniform(1.0)])
    assert abs(p2.cf(np.array([math.pi, math.pi]))) <= 1e-15
    g2 = product([make_gaussian(1.0), make_gaussian(1.0)])
    assert g2.density(np.zeros(2)) == pytest.approx(1.0 / (2 * math.pi), rel=1e-14)
    l2 = product([make_laplace(1.0), make_laplace(1.0)])
    assert l2.cf(np.zeros(2)) == 1.0
    with pytest.raises(InvalidParameterError):
        product([])


def test_product_support_radius_covers_box():
    # the stored Euclidean radius must contain the full support box of the
    # component cfs, otherwise inversion windows would clip real mass
    p2 = product([make_fejer(0.7), make_fejer(1.2)])
    assert p2.cf_support_radius == pytest.approx(math.hypot(0.7, 1.2))
    t_edge = np.array([0.69, 1.19])
    assert p2.cf(t_edge) > 0.0
    assert np.linalg.norm(t_edge) <= p2.cf_support_radius


def test_bernoulli_noise_examples():
    b1 = bernoulli_noise(1)
    assert b1.cf(math.pi) == pytest.approx(-1.0, rel=1e-15)
    b2 = bernoulli_noise(2)
    assert abs(b2.cf(np.array([math.pi / 2, 0.0]))) <= 1e-16
    assert b1.abs_moment3 == 1.0
    assert b1.is_symmetric_bernoulli


# ---------------------------------------------------------------------------
# shared invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dist", CATALOG, ids=lambda d: d.label)
def test_cf_at_origin_and_bounded(dist):
    assert dist.cf(0.0) == 1.0
    t = np.linspace(-40.0, 40.0, 1601)
    vals = np.abs(np.asarray(dist.cf(t), dtype=complex))
    assert np.all(vals <= 1.0 + 1e-12)


@pytest.mark.parametrize("dist", CATALOG, ids=lambda d: d.label)
def test_symmetric_cf_real(dist):
    t = np.linspace(-15.0, 15.0, 301)
    vals = np.asarray(dist.cf(t), dtype=complex)
    assert float(np.max(np.abs(vals.imag))) <= 1e-12


@pytest.mark.parametrize("dist,window", [(UNIFORM, 1.0), (LAPLACE, 26.0), (GAUSSIAN, 7.5)],
                         ids=["uniform", "laplace", "gaussian"])
def test_density_normalization(dist, window):
    # window carries all but <= 1e-10 of the mass for these entries
    val, err = quad(dist.density, -window, window, limit=300)
    assert abs(val - 1.0) <= 1e-8


def test_fejer_density_normalization_closed_form():
    # mass of [-R, R] in closed form via the sine integral:
    # (2/pi) (Si(TR) - (1 - cos TR)/(TR)); quadrature must match it and the
    # remainder obeys the 4/(pi T R) envelope bound
    T, R = 1.0, 200.0
    si, _ = sici(T * R)
    mass = (2.0 / math.pi) * (si - (1.0 - math.cos(T * R)) / (T * R))
    val, _ = quad(FEJER.density, -R, R, limit=4000)
    assert val == pytest.approx(mass, abs=1e-9)
    assert 1.0 - mass <= 4.0 / (math.pi * T * R)
    si_big, _ = sici(T * 1e9)
    assert (2.0 / math.pi) * (si_big - (1.0 - math.cos(T * 1e9)) / (T * 1e9)) \
        == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("dist", CATALOG, ids=lambda d: d.label)
def test_density_symmetry(dist):
    x = np.array([0.3, 1.7, 2.45, 4.0])
    assert np.array_equal(np.asarray(dist.density(x)),
                          np.asarray(dist.density(-x)))


@pytest.mark.parametrize("dist", [UNIFORM, LAPLACE, GAUSSIAN, FEJER],
                         ids=lambda d: d.label)
def test_cf_grad_matches_finite_difference(dist):
    rng = np.random.default_rng(20240817)
    pts = rng.uniform(-10.0, 10.0, 10)
    if dist.cf_support_radius is not None:
        # keep away from the kinks of the piecewise-linear profile
        bad = np.minimum(np.abs(np.abs(pts) - dist.cf_support_radius), np.abs(pts)) < 1e-3
        pts = pts[~bad]
    h = 1e-5
    fd = (np.asarray(dist.cf(pts + h)) - np.asarray(dist.cf(pts - h))) / (2 * h)
    an = np.asarray(dist.cf_grad(pts))
    scale = np.maximum(np.abs(an), 1e-8)
    assert np.max(np.abs(fd - an) / scale) <= 1e-5


def test_moments_closed_forms():
    assert UNIFORM.abs_moment1 == 0.5
    assert UNIFORM.second_moment == pytest.approx(1.0 / 3.0)
    assert LAPLACE.abs_moment1 == 1.0
    assert LAPLACE.second_moment == 2.0
    assert GAUSSIAN.second_moment == 1.0
    assert GAUSSIAN.abs_moment1 == pytest.approx(math.sqrt(2.0 / math.pi))


# ---------------------------------------------------------------------------
# beta3
# ---------------------------------------------------------------------------

def test_beta3_uniform_isotropic():
    val = beta3(make_uniform(math.sqrt(3.0)))
    assert val == pytest.approx(3.0 * math.sqrt(3.0) / 4.0, rel=1e-12)
    assert 1.0 / val == pytest.approx(0.769800, abs=1e-6)


def test_beta3_bernoulli():
    assert beta3(bernoulli_noise(1)) == 1.0


def test_beta3_gaussian():
    assert beta3(GAUSSIAN) == pytest.approx(2.0 * math.sqrt(2.0) / math.sqrt(math.pi),
                                            rel=1e-12)


def test_beta3_quadrature_path():
    import dataclasses
    stripped = dataclasses.replace(LAPLACE, abs_moment3=None)
    assert beta3(stripped) == pytest.approx(6.0, rel=1e-7)


def test_beta3_infinite_rejected():
    with pytest.raises(UnsupportedError):
        beta3(FEJER)


# ---------------------------------------------------------------------------
# noise promotion
# ---------------------------------------------------------------------------

def test_as_noise_requires_unit_variance():
    with pytest.raises(InvalidParameterError):
        as_noise(make_uniform(1.0))
    noise = uniform_noise()
    assert noise.second_moment == pytest.approx(1.0, abs=1e-12)
    assert beta3(noise) == pytest.approx(3.0 * math.sqrt(3.0) / 4.0)


@pytest.mark.parametrize("dist", [make_uniform(math.sqrt(3.0)), make_gaussian(1.0),
                                  make_laplace(1.0 / math.sqrt(2.0))],
                         ids=lambda d: d.label)
def test_as_noise_carries_every_source_field(dist):
    noise = as_noise(dist)
    for f in dataclasses.fields(SourceDistribution):
        assert getattr(noise, f.name) is getattr(dist, f.name), f.name
    assert noise.zero_atom_free and not noise.is_symmetric_bernoulli


def _pointwise_callables():
    for d in CATALOG:
        for name in ("density", "cf", "cf_grad", "self_convolution"):
            if getattr(d, name) is not None:
                yield f"{d.label}.{name}", getattr(d, name), 1
    p2 = product([UNIFORM, LAPLACE])
    yield "product.density", p2.density, 2
    yield "product.cf", p2.cf, 2
    yield "bernoulli.cf", bernoulli_noise(1).cf, 1


POINTWISE = list(_pointwise_callables())


@pytest.mark.parametrize("name, fn, d", POINTWISE, ids=[c[0] for c in POINTWISE])
def test_callables_return_float_or_array_of_the_points(name, fn, d):
    one = 0.3 if d == 1 else np.array([0.3, -0.2])
    assert type(fn(one)) is float
    if d == 1:
        assert type(fn(np.float64(0.3))) is float
    pts = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
    if d == 2:
        pts = np.stack([pts, -0.5 * pts], axis=-1)
    out = fn(pts)
    assert isinstance(out, np.ndarray) and out.shape == (3, 4)
    assert np.array_equal(out.ravel()[5], fn(pts.reshape(12, *pts.shape[2:])[5]))


def test_fejer_sampler_matches_density():
    rng = np.random.default_rng(7)
    draws = FEJER.sampler(rng, 200_000)
    # compare empirical CDF against quadrature CDF at a few points
    for x0 in (-2.0, -0.5, 0.5, 3.0):
        emp = float(np.mean(draws <= x0))
        ref, _ = quad(FEJER.density, -800.0, x0, limit=2000)
        assert emp == pytest.approx(ref, abs=0.006)
