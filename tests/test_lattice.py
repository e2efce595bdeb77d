import dataclasses
import math

import numpy as np
import pytest

from conftest import theta_sum
from llt_lab import (InvalidParameterError, UnsupportedError, check_pi_lattice_zeros,
                     distance_to_lattice, even_odd_limits, make_fejer, make_gaussian, make_laplace,
                     make_uniform, poisson_check, product, regularity_integral,
                     sum_cf_lattice, sum_density_lattice, wrapped_autocorrelation)
from llt_lab import lattice
from llt_lab.lattice import periodized_cf, phased_cf_lattice_sum
from llt_lab.seriesaccel import BlockSeries, resonance_floor

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


@pytest.mark.parametrize("dist, met", [(make_fejer(0.7), False), (LAPLACE, True)],
                         ids=["fejer:T=0.7", "laplace:b=1"])
def test_density_sum_says_whether_tol_was_met(dist, met):
    # fejer's 1/m^2 density tail is accepted near 8e-8, between tol and the
    # 1e-7 refusal floor; the flag says that tol was missed
    r = sum_density_lattice(dist, 2.0, 0.0, tol=1e-12)
    assert r.tol_met is met
    assert (r.tail_estimate <= 1e-12) is met
    lim = even_odd_limits(dist, tol=1e-9)
    assert lim.tol_met is met
    assert (lim.tail <= 1e-9) is met


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


def test_cf_sum_product_separable():
    p2 = product([make_gaussian(1.0), make_gaussian(1.0)])
    r = sum_cf_lattice(p2, 2.0 * math.pi, None, tol=1e-10)
    one = 1.0 + 2.0 * math.exp(-2 * math.pi ** 2)
    assert complex(r.value).real == pytest.approx(one * one, rel=1e-11)


# ---------------------------------------------------------------------------
# phased cf sums against the direct-exponential loop
# ---------------------------------------------------------------------------

def _direct_phased_sum(dist, step, phases, tol):
    """Reference for phased_cf_lattice_sum: every block's phases come from
    np.exp(1j * outer(phi, k)) and every block goes into the accumulator term
    by term; tails, routes and info are chosen as in the library."""
    phi = np.atleast_1d(np.asarray(phases, dtype=float))
    f = dist.cf
    f0 = float(np.real(f(0.0)))
    symmetric = dist.flags.symmetric_about_0
    ftype = float if symmetric else complex
    if dist.cf_support_radius is not None:
        kmax = int(math.floor(dist.cf_support_radius / step + 1e-12))
        k = np.arange(1, kmax + 1)
        fp = np.asarray(f(step * k), dtype=ftype)
        fm = fp if symmetric else np.asarray(f(-step * k), dtype=ftype)
        ang = np.outer(phi, k)
        vals = f0 + (np.exp(1j * ang) * fp + np.exp(-1j * ang) * fm).sum(axis=1)
        return vals, 0.0, {"K": kmax, "terms": 2 * kmax + 1}
    block = lattice._PHASED_BLOCK
    acc = BlockSeries(np.zeros(phi.shape, dtype=complex), block, tol)
    cos_k2_partial = np.zeros(phi.shape)
    gamma_samples = []
    for j in range(lattice._K_BUDGET // block):
        k = np.arange(j * block + 1, (j + 1) * block + 1)
        fp = np.asarray(f(step * k), dtype=ftype)
        ang = np.outer(phi, k)
        if symmetric:
            cosang = np.cos(ang)
            inc = 2.0 * cosang * fp[None, :]
            cos_k2_partial += cosang @ (1.0 / (k * k))
            mag = 2.0 * float(np.abs(fp).sum())
            gamma_samples.append(float(np.mean(k * k * fp)))
        else:
            fm = np.asarray(f(-step * k), dtype=ftype)
            inc = np.exp(1j * ang) * fp + np.exp(-1j * ang) * fm
            mag = float(np.abs(fp).sum() + np.abs(fm).sum())
        if acc.add(k, inc, mag):
            k_last = acc.ks[-1]
            return f0 + acc.total, acc.tail, {"K": k_last, "terms": 2 * k_last + 1}
    k_last = acc.ks[-1]
    err_kink, v_kink = math.inf, None
    if symmetric:
        g1, g2 = gamma_samples[-2], gamma_samples[-1]
        if math.isfinite(g1) and math.isfinite(g2) and abs(g2) > 0 and \
                abs(g1 - g2) <= 2e-3 * abs(g2):
            c4 = float(np.max(np.abs(k * k * fp - g2) * k * k))
            kink = 2.0 * g2 * (lattice._cos_k2_closed(phi) - cos_k2_partial)
            v_kink = f0 + acc.total + kink
            err_kink = 4.0 * c4 / (3.0 * k_last ** 3) + 64.0 * np.finfo(float).eps * abs(g2)
    v_ext, e_ext = acc.extrapolate()
    cinc = np.exp(1j * ang) * fp[None, :] if symmetric else inc
    e_ext = np.maximum(e_ext, resonance_floor(cinc, float(k_last)))
    v_ext = f0 + v_ext
    vals, errs = v_ext, e_ext
    if v_kink is not None:
        use_kink = (err_kink < e_ext) | (np.abs(v_kink - v_ext) > err_kink + e_ext)
        vals = np.where(use_kink, v_kink, v_ext)
        errs = np.where(use_kink, err_kink, e_ext)
    return vals, float(np.max(errs)) * 2.0, {"K": k_last, "terms": 2 * k_last + 1,
                                             "extrapolated": True}


def _shifted_gaussian(mu):
    # cf e^{i mu t - t^2/2}: not symmetric about 0, so the sum takes its
    # asymmetric route
    g = make_gaussian(1.0)
    return dataclasses.replace(
        g, cf=lambda t: np.exp(1j * mu * np.asarray(t, dtype=float)) * g.cf(t),
        flags=dataclasses.replace(g.flags, symmetric_about_0=False),
        label=f"gaussian-shift:mu={mu}")


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


@pytest.mark.parametrize("phases", list(PHASE_SETS.values()), ids=list(PHASE_SETS))
@pytest.mark.parametrize("dist", [UNIFORM, LAPLACE, GAUSSIAN, make_fejer(0.7),
                                  _shifted_gaussian(0.3)], ids=lambda d: d.label)
def test_phased_sum_matches_direct_loop(dist, phases):
    tol = 1e-9 * math.sqrt(2.0 * math.pi) * 0.25   # the cell engine's A tolerance
    vals, tail, info = phased_cf_lattice_sum(dist, math.pi, phases, tol)
    ref, ref_tail, ref_info = _direct_phased_sum(dist, math.pi, phases, tol)
    k = np.arange(1, info["K"] + 1)
    mass = abs(dist.cf(0.0)) + float(np.sum(np.abs(dist.cf(math.pi * k))
                                            + np.abs(dist.cf(-math.pi * k))))
    assert np.max(np.abs(vals - ref)) <= 64.0 * np.finfo(float).eps * mass
    assert info == ref_info
    if info.get("extrapolated"):
        # an extrapolated tail is formed from differences of partial sums;
        # for uniform:h=1, whose f(pi k) are roundoff (~1e-17), the block
        # totals' own roundoff moves it in the 12th digit
        assert tail == pytest.approx(ref_tail, rel=1e-9, abs=0.0)
    else:
        assert tail == ref_tail


def test_phased_sum_asymmetric_matches_theta_series():
    # e^{i mu pi k - pi^2 k^2 / 2} is below 1e-300 beyond |k| = 12
    mu, phases = 0.3, np.array([-2.0, 0.0, 0.7, 3.0])
    k = np.arange(-12, 13)
    direct = (np.exp(1j * np.outer(phases, k)) * np.exp(1j * mu * math.pi * k
                                                        - 0.5 * (math.pi * k) ** 2)).sum(axis=1)
    vals, tail, _ = phased_cf_lattice_sum(_shifted_gaussian(mu), math.pi, phases, 1e-12)
    # read as real, the cf would lose its shift: 2 cos(phi k) cos(mu pi k)
    # in place of 2 cos((phi + mu pi) k), off by about 0.02 at these phases
    assert np.max(np.abs(vals - direct)) <= 1e-15
    assert tail <= 1e-12


# ---------------------------------------------------------------------------
# the periodized cf on its short side
# ---------------------------------------------------------------------------

def _cf_shifted_by(dist, s):
    # f(t + s): no longer even, so the phased sum takes its asymmetric route;
    # a compact cf's support moves by s
    T = dist.cf_support_radius
    return dataclasses.replace(
        dist, cf=lambda t: dist.cf(np.asarray(t, dtype=float) + s),
        flags=dataclasses.replace(dist.flags, symmetric_about_0=False),
        cf_support_radius=None if T is None else T + abs(s))


@pytest.mark.parametrize("dist", [UNIFORM, make_uniform(0.25), make_uniform(2.3), LAPLACE,
                                  make_laplace(0.4), GAUSSIAN, make_gaussian(2.5),
                                  make_fejer(0.7), make_fejer(2.668)],
                         ids=lambda d: d.label)
def test_periodized_cf_is_the_phased_cf_sum(dist):
    # Poisson: sum_k e^{-i pi k a} f(pi k + s) = 2 sum_m p(a + 2m) e^{is(a + 2m)},
    # summed here on the short side and there on the cf side, within both
    # declared tails and 2 eps per cf term (the rounding of pi k + s moves
    # sin(h t)/(h t) by up to eps)
    rng = np.random.default_rng(20261018)
    a = rng.uniform(-3.0, 3.0, 9)
    for s in [0.0, *rng.uniform(-0.5 * math.pi, 0.5 * math.pi, 4)]:
        got, tail = periodized_cf(dist, [s], a)
        ref, ref_tail, info = phased_cf_lattice_sum(_cf_shifted_by(dist, s), math.pi,
                                                    -math.pi * a, 1e-12)
        allow = tail + ref_tail + 2.0 * np.finfo(float).eps * info["terms"]
        assert np.max(np.abs(got[:, 0] - ref)) <= allow, (s, tail, ref_tail)


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


def test_autocorr_quadrature_fallback():
    import dataclasses
    stripped = dataclasses.replace(LAPLACE, self_convolution=None)
    val = wrapped_autocorrelation(stripped, tol=1e-8).value
    assert val == pytest.approx(0.509274, abs=1e-6)


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
# distance to lattice
# ---------------------------------------------------------------------------

def test_distance_to_lattice():
    assert distance_to_lattice((math.pi, 0.0), math.pi) == 0.0
    assert distance_to_lattice(math.pi / 2, math.pi) == pytest.approx(math.pi / 2)
    assert distance_to_lattice((math.pi / 2, math.pi / 2), math.pi) \
        == pytest.approx(math.pi / math.sqrt(2.0))


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


def test_regularity_product_uniform_3_1_diverges():
    p2 = product([make_uniform(1.0), make_uniform(1.0)])
    rep = regularity_integral(p2, "condition_3_1", 8)
    assert rep.diverging


def test_regularity_product_uniform_2_3_converges():
    p2 = product([make_uniform(1.0), make_uniform(1.0)])
    rep = regularity_integral(p2, "condition_2_3", 8)
    assert not rep.diverging


def _correlated_gaussian_2d():
    import dataclasses
    from llt_lab import DistFlags, SourceDistribution
    S = np.array([[1.0, 0.4], [0.4, 1.0]])
    Sinv = np.linalg.inv(S)
    det = float(np.linalg.det(S))

    def cf(t):
        t = np.asarray(t, dtype=float)
        q = (t[..., 0] ** 2 * S[0, 0] + 2 * t[..., 0] * t[..., 1] * S[0, 1]
             + t[..., 1] ** 2 * S[1, 1])
        return np.exp(-0.5 * q)

    def density(x):
        x = np.asarray(x, dtype=float)
        q = (x[..., 0] ** 2 * Sinv[0, 0] + 2 * x[..., 0] * x[..., 1] * Sinv[0, 1]
             + x[..., 1] ** 2 * Sinv[1, 1])
        return np.exp(-0.5 * q) / (2 * math.pi * math.sqrt(det))

    flags = DistFlags(symmetric_about_0=True, bounded_variation_density=True)
    return SourceDistribution(dim=2, density=density, cf=cf, flags=flags,
                              label="gauss2d-correlated"), S


def test_cf_sum_2d_generic_shells():
    dist, S = _correlated_gaussian_2d()
    r = sum_cf_lattice(dist, 2.0 * math.pi, None, tol=1e-12)
    # independent direct double sum over a wide window
    rng = np.arange(-6, 7)
    KX, KY = np.meshgrid(rng, rng, indexing="ij")
    pts = 2.0 * math.pi * np.stack([KX, KY], axis=-1).astype(float)
    direct = float(np.sum(dist.cf(pts)))
    assert complex(r.value).real == pytest.approx(direct, abs=1e-13)
    assert not math.isinf(r.tail_estimate)


def _radial_laplace_2d():
    from llt_lab import DistFlags, SourceDistribution

    def cf(t):
        t = np.asarray(t, dtype=float)
        return (1.0 + t[..., 0] ** 2 + t[..., 1] ** 2) ** -1.5

    def density(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-np.hypot(x[..., 0], x[..., 1])) / (2.0 * math.pi)

    flags = DistFlags(symmetric_about_0=True, bounded_variation_density=True)
    return SourceDistribution(dim=2, density=density, cf=cf, flags=flags,
                              label="laplace2d-radial")


@pytest.mark.parametrize("tol", [1e-2, 1e-3, 1e-4])
def test_cf_sum_2d_generic_tail_bounds_poisson(tol):
    # shell sums of (1+|t|^2)^-3/2 decay like s^-2, so the tail is algebraic;
    # by Poisson summation the full cf sum equals sum_m p(m), whose terms
    # beyond sup-norm 60 are below e^-60
    dist = _radial_laplace_2d()
    rng = np.arange(-60, 61)
    KX, KY = np.meshgrid(rng, rng, indexing="ij")
    exact = float(np.sum(dist.density(np.stack([KX, KY], axis=-1).astype(float))))
    r = sum_cf_lattice(dist, 2.0 * math.pi, None, tol=tol)
    assert r.tail_estimate <= tol
    assert abs(complex(r.value).real - exact) <= r.tail_estimate


def test_poisson_2d_product():
    p2 = product([make_gaussian(1.0), make_gaussian(1.0)])
    rep = poisson_check(p2, tol=1e-11)
    assert rep.gap <= 1e-10
    one = 1.0 + 2.0 * math.exp(-2 * math.pi ** 2)
    assert rep.rhs == pytest.approx(one * one, rel=1e-11)


def test_density_sum_2d_generic_unsupported():
    dist, _ = _correlated_gaussian_2d()
    with pytest.raises(UnsupportedError):
        sum_density_lattice(dist, 1.0, np.zeros(2))


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
