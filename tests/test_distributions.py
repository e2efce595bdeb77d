import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

from llt_lab import (AdmissibleT, InvalidParameterError, SourceDistribution,
                     UnsupportedError, admissible_T, as_noise, bernoulli_noise, beta3,
                     gaussian_noise, make_fejer, make_gaussian, make_laplace, make_uniform,
                     product, uniform_noise)
from llt_lab.oracle import _CHUNK, _chunk_rng

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


@pytest.mark.parametrize("ctor, value", [(make_laplace, 1e300), (make_laplace, 1e-300),
                                         (make_gaussian, 1e200), (make_gaussian, 1e-200),
                                         (make_uniform, 1e300)])
def test_parameters_whose_constants_overflow_are_refused(ctor, value):
    # b^3, sigma^3, h^3 or the laplace cf terms b^-2j overflow a float, and
    # sigma^2 = 1e-400 underflows to 0
    with pytest.raises(InvalidParameterError):
        ctor(value)


def test_sinc_takes_its_series_only_near_0():
    # the series at the removable singularity is not formed at u = 1e102,
    # where its u^4 would overflow (warnings are errors here)
    wide = make_uniform(1e100)
    t = np.array([0.0, 1e-110, math.pi])
    assert wide.cf(t)[:2].tolist() == [1.0, 1.0]
    assert wide.cf_grad(t)[0] == 0.0
    assert abs(wide.cf(t)[2]) <= 1e-100


def test_product_examples():
    p2 = product([make_uniform(1.0), make_uniform(1.0)])
    assert abs(p2.cf(np.array([math.pi, math.pi]))) <= 1e-15
    g2 = product([make_gaussian(1.0), make_gaussian(1.0)])
    assert g2.density(np.zeros(2)) == pytest.approx(1.0 / (2 * math.pi), rel=1e-14)
    l2 = product([make_laplace(1.0), make_laplace(1.0)])
    assert l2.cf(np.zeros(2)) == 1.0
    for comps in ([], [make_laplace(1.0)]):
        with pytest.raises(InvalidParameterError, match="two components"):
            product(comps)


def test_bernoulli_noise_examples():
    b1 = bernoulli_noise(1)
    assert b1.cf(math.pi) == pytest.approx(-1.0, rel=1e-15)
    b2 = bernoulli_noise(2)
    assert abs(b2.cf(np.array([math.pi / 2, 0.0]))) <= 1e-16
    assert b1.abs_moment3 == 1.0
    assert b1.is_symmetric_bernoulli


def test_a_law_is_one_dimensional_or_a_product_of_two():
    # the dimension is decided where a law is built: 1 without components,
    # 2 with exactly two one-dimensional ones; no other law can be formed
    assert [d.dim for d in CATALOG] == [1, 1, 1, 1]
    p2 = product([UNIFORM, LAPLACE])
    assert p2.dim == 2 and p2.components == (UNIFORM, LAPLACE)
    for comps in ([UNIFORM], [UNIFORM, LAPLACE, GAUSSIAN], [p2, UNIFORM], [UNIFORM, p2]):
        with pytest.raises(InvalidParameterError, match="exactly two components"):
            product(comps)
        with pytest.raises(InvalidParameterError, match="exactly two components"):
            dataclasses.replace(p2, components=tuple(comps))
    for dim in (0, 3):
        with pytest.raises(InvalidParameterError, match="dimension 1 or 2"):
            bernoulli_noise(dim)


def test_two_dimensional_bernoulli_noise_is_the_corner_product():
    # the corner steps of {-1, 1}^2 are the product of two one-dimensional
    # Bernoulli noises, with the cf cos(t1) cos(t2) of the d-dimensional
    # formula bit for bit
    b2 = bernoulli_noise(2)
    assert b2.dim == 2 and b2.label == "bernoulli:d=2" and b2.is_symmetric_bernoulli
    assert b2.density is None and b2.sum_sampler is None
    assert [(c.dim, c.label, c.is_symmetric_bernoulli) for c in b2.components] \
        == [(1, "bernoulli", True)] * 2
    t = np.random.default_rng(7).uniform(-40.0, 40.0, (257, 2))
    assert np.array_equal(b2.cf(t), np.prod(np.cos(t), axis=-1))


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


def test_beta3_refuses_a_law_without_a_stored_moment():
    # no moment is computed by quadrature: a law that stores none is refused,
    # and admissible_T reads the refusal as no beta3 radius
    with pytest.raises(UnsupportedError, match="no third absolute moment stored"):
        beta3(dataclasses.replace(LAPLACE, abs_moment3=None))
    bare = dataclasses.replace(bernoulli_noise(1), abs_moment3=None)
    assert admissible_T(bare) == AdmissibleT(None, "unsupported")
    noise = dataclasses.replace(gaussian_noise(), abs_moment3=None)
    assert admissible_T(noise) == AdmissibleT(math.pi, "remark41")


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
    assert not noise.is_symmetric_bernoulli


def _pointwise_callables():
    for d in CATALOG:
        for name in ("density", "cf", "cf_grad"):
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


class _TailMass45:
    """A generator whose raw words carry the tail bit with probability 0.45
    in place of 1/2: the Fejer sampler's envelope with a mutated tail mass."""

    def __init__(self, rng):
        self.rng, self.bit_generator = rng, self

    def random_raw(self, m):
        w = self.rng.bit_generator.random_raw(m)
        return np.where(self.rng.random(m) < 0.1, w & ((1 << 63) - 1), w)

    def random(self, m):
        return self.rng.random(m)


def _fejer_cdf_misfit(T, chunk_rng, chunks=16):
    """Largest |empirical - exact CDF| of the fejer:T sampler, drawn in
    ``chunks`` oracle chunks, in binomial standard deviations, at 12 points
    y = Tx of which 7 lie beyond |y| = 2; the exact CDF is
    1/2 + (Si(y) - (1 - cos y)/y)/pi."""
    draws = np.concatenate([make_fejer(T).sampler(chunk_rng(c), _CHUNK)
                            for c in range(chunks)])
    y = np.array([-40.0, -8.0, -3.0, -2.5, -1.0, -0.3, 0.2, 0.5, 1.5, 2.5, 5.0, 30.0])
    exact = 0.5 + (sici(y)[0] - (1.0 - np.cos(y)) / y) / math.pi
    emp = np.mean(draws[:, None] <= y / T, axis=0)
    return float(np.max(np.abs(emp - exact) / np.sqrt(exact * (1.0 - exact) / draws.size)))


def test_fejer_sampler_matches_density():
    # 2^18 draws through the Monte Carlo oracle's chunk streams, within 5
    # binomial standard deviations at every point (at most 0.0049 absolute);
    # an envelope whose tail mass is 0.45 is refused
    for seed, T in enumerate((0.7, 1.0, 4.0)):
        assert _fejer_cdf_misfit(T, lambda c: _chunk_rng(seed, c)) <= 5.0
        assert _fejer_cdf_misfit(T, lambda c: _TailMass45(_chunk_rng(seed, c))) > 5.0
