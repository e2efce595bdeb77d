"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.

Criterion 7b measures the n^-1/2 decay of the oscillation residual
sup|p_n - A_n phi| for laplace:b=1 with Bernoulli noise.  That residual is
T1 + rest, where T1 = x phi(x) B_n(x)/sqrt(n) with B_n(x) = 2 sum y p(y) over
y in x sqrt(n) + n + 2Z is the first-order term, and rest is O(1/n).  Measured
on the default grid, sqrt(n) sup|T1| ~ 0.0256 and n sup|rest| ~ 0.5 for every
n, so the 1/n part dominates below n ~ (0.5/0.0256)^2 ~ 380.  The rate is
therefore fitted on n in {1024, 4096, 16384}, the first run of powers of 4
where the n^-1/2 term is the larger part at every n.
"""

import functools
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import offset_grid_1d, offset_points
from llt_lab import (SmoothedModel, beta3,
                     bernoulli_noise, check_pi_lattice_zeros, convergence_study,
                     density, exact_mixture_density,
                     exact_mixture_density_2d, make_fejer, make_gaussian,
                     make_laplace, make_uniform, monte_carlo_density,
                     oscillation_report, poisson_check, product, uniform_noise,
                     wrapped_autocorrelation)
from llt_lab.inversion import Axis, Grid

E2 = math.e ** 2
SQRT2PI = math.sqrt(2.0 * math.pi)
BERN = bernoulli_noise(1)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_parity_limits_of_the_two_sided_exponential():
    lap = make_laplace(1.0)
    even_target = (E2 + 1.0) / (E2 - 1.0) / SQRT2PI
    odd_target = 2.0 * math.e / (E2 - 1.0) / SQRT2PI
    n = 200
    even_gap = abs(exact_mixture_density(lap, 2 * n, 0.0) - even_target)
    odd_gap = abs(exact_mixture_density(lap, 2 * n + 1, 0.0) - odd_target)
    ok = even_gap <= 0.01 and odd_gap <= 0.01
    _report(1, ok, f"p_400(0) gap {even_gap:.2e}, p_401(0) gap {odd_gap:.2e} (<= 0.01)")
    assert even_gap <= 0.01
    assert odd_gap <= 0.01


def test_criterion_2_transform_density_matches_binomial_mixture():
    grid = offset_grid_1d()
    xs = offset_points()
    worst = 0.0
    for src in (make_uniform(1.0), make_laplace(1.0), make_gaussian(1.0)):
        model = SmoothedModel(src, BERN)
        for n in (1, 2, 5, 20, 101):
            gd = density(model, n, grid)
            ref = exact_mixture_density(src, n, xs)
            worst = max(worst, float(np.max(np.abs(gd.values - ref))))
    ok = worst <= 1e-7
    _report(2, ok, f"worst gap over 15 model/n pairs at 101 points: {worst:.2e} (<= 1e-7)")
    assert worst <= 1e-7


def test_criterion_3_lattice_condition_equivalence():
    uni, lap = make_uniform(1.0), make_laplace(1.0)
    ac_u = wrapped_autocorrelation(uni).value
    z_u = check_pi_lattice_zeros(uni, 20).max_abs
    ac_l = wrapped_autocorrelation(lap).value
    f_pi = lap.cf(math.pi)
    ok = (abs(ac_u - 0.5) <= 1e-10 and z_u <= 1e-12
          and abs(ac_l - 0.5) >= 0.005
          and abs(f_pi - 1.0 / (1.0 + math.pi ** 2)) <= 1e-12)
    _report(3, ok, f"uniform autocorr-1/2 = {abs(ac_u-0.5):.1e}, zeros {z_u:.1e}; "
                   f"laplace autocorr-1/2 = {abs(ac_l-0.5):.4f}, f(pi) exact")
    assert abs(ac_u - 0.5) <= 1e-10
    assert z_u <= 1e-12
    assert abs(ac_l - 0.5) >= 0.005
    assert abs(f_pi - 1.0 / (1.0 + math.pi ** 2)) <= 1e-12


def test_criterion_4_poisson_identity():
    gaps = []
    for sigma in (0.5, 1.0, 2.0):
        gaps.append(poisson_check(make_gaussian(sigma), tol=1e-11).gap)
    lap_gap = poisson_check(make_laplace(1.0), tol=1e-9).gap
    ok = max(gaps) <= 1e-10 and lap_gap <= 1e-8
    _report(4, ok, f"gaussian gaps max {max(gaps):.1e} (<= 1e-10), "
                   f"laplace gap {lap_gap:.1e} (<= 1e-8)")
    assert max(gaps) <= 1e-10
    assert lap_gap <= 1e-8


def test_criterion_5_sup_convergence_with_the_vanishing_condition():
    model = SmoothedModel(make_uniform(1.0), BERN)
    rep = convergence_study(model, (4, 16, 64, 256), "sup")
    sups = rep.distances["sup"]
    decreasing = all(a > b for a, b in zip(sups, sups[1:]))
    ok = decreasing and sups[-1] <= 0.05
    _report(5, ok, "sup distances " + ", ".join(f"{v:.4f}" for v in sups)
            + f"; final <= 0.05: {sups[-1] <= 0.05}")
    assert decreasing
    assert sups[-1] <= 0.05


def test_criterion_6_l2_floor_without_the_vanishing_condition():
    model = SmoothedModel(make_laplace(1.0), BERN)
    rep = convergence_study(model, (16, 64, 256), "l2")
    l2 = rep.distances["l2"]
    l1 = rep.distances["l1"]
    ok = min(l2) >= 0.05 * l2[0] and min(l1) >= 0.01
    _report(6, ok, f"l2 floor ratio {min(l2)/l2[0]:.3f} (>= 0.05), "
                   f"min l1 {min(l1):.4f} (>= 0.01)")
    assert min(l2) >= 0.05 * l2[0]
    assert min(l1) >= 0.01


_OSC_NS = (64, 256, 1024)
_RATE_NS = (1024, 4096, 16384)


@functools.lru_cache(maxsize=None)
def _osc_report(n: int):
    return oscillation_report(SmoothedModel(make_laplace(1.0), BERN), n)


def test_criterion_7a_oscillation_two_route_identity():
    reports = [_osc_report(n) for n in _OSC_NS]
    worst_gap = max(r.method_gap for r in reports)
    worst_defect = max(r.period_defect for r in reports)
    ok = worst_gap <= 1e-8 and worst_defect <= 1e-8
    _report(7, ok, f"[a] method gap {worst_gap:.1e}, period defect "
                   f"{worst_defect:.1e} (both <= 1e-8) over n = {_OSC_NS}")
    assert worst_gap <= 1e-8
    assert worst_defect <= 1e-8


def test_criterion_7b_residual_rate_window():
    resid = [_osc_report(n).residual_sup for n in _RATE_NS]
    ln = np.log(np.asarray(_RATE_NS, dtype=float))
    A = np.vstack([np.ones_like(ln), ln]).T
    slope = float(np.linalg.lstsq(A, np.log(resid), rcond=None)[0][1])
    in_window = -0.65 <= slope <= -0.35
    _report(7, in_window, f"[b] residual sup {', '.join(f'{r:.2e}' for r in resid)}; "
                          f"log-log slope {slope:.3f} in [-0.65, -0.35]: {in_window}")
    scaled = [r * math.sqrt(n) for n, r in zip(_RATE_NS, resid)]
    assert in_window, (
        f"residual slope {slope:.3f} over n = {_RATE_NS} lies outside "
        f"[-0.65, -0.35]. Residuals {[f'{r:.3e}' for r in resid]}, "
        f"sqrt(n)*residual {[f'{v:.4f}' for v in scaled]}. The residual is "
        "T1 + rest with sqrt(n) sup|T1| ~ 0.0256 and n sup|rest| ~ 0.5, so "
        "sqrt(n)*residual should fall from about 0.029 to about 0.026 here. "
        "If it grows with n, A_n or the density has an O(1) error; if it is "
        "far from 0.026, the n^-1/2 term T1 has moved.")


def test_criterion_8_compact_cf_source_with_general_noise():
    noise = uniform_noise()
    t_beta3 = 1.0 / beta3(noise)
    assert t_beta3 == pytest.approx(0.769800, abs=1e-6)
    assert 0.7 < t_beta3
    model = SmoothedModel(make_fejer(0.7), noise)
    rep = convergence_study(model, (16, 64, 256), "sup")
    sups = rep.distances["sup"]
    decreasing = all(a > b for a, b in zip(sups, sups[1:]))
    gd = density(model, 256)
    xs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    est = monte_carlo_density(model, 256, xs, samples=300_000, bandwidth=0.05,
                              seed=2024)
    x = gd.axes[0].points()
    mc_ok = True
    for j, xx in enumerate(xs):
        i = int(np.argmin(np.abs(x - xx)))
        mc_ok &= abs(gd.values[i] - est.values[j]) <= 3.0 * est.stderr[j]
    ok = decreasing and sups[-1] <= 0.05 and mc_ok
    _report(8, ok, "sup distances " + ", ".join(f"{v:.4f}" for v in sups)
            + f"; Monte Carlo within 3 standard errors at 5 probes: {mc_ok}")
    assert decreasing
    assert sups[-1] <= 0.05
    assert mc_ok


def test_criterion_9_two_dimensional_product_model():
    p2 = product([make_uniform(1.0), make_uniform(1.0)])
    model = SmoothedModel(p2, bernoulli_noise(2))
    rep = convergence_study(model, (4, 16, 64), "l2")
    l2 = rep.distances["l2"]
    decreasing = all(a > b for a, b in zip(l2, l2[1:]))
    lo = offset_points()[0]
    g = Grid((Axis(lo, 0.5, 21), Axis(lo, 0.5, 21)))
    gd = density(model, 16, g)
    X, Y = np.meshgrid(g.axes[0].points(), g.axes[1].points(), indexing="ij")
    ref = exact_mixture_density_2d(p2, 16, np.stack([X, Y], axis=-1))
    gap = float(np.max(np.abs(gd.values - ref)))
    ok = decreasing and gap <= 1e-5
    _report(9, ok, "l2 distances " + ", ".join(f"{v:.4f}" for v in l2)
            + f"; 21x21 mixture gap {gap:.2e} (<= 1e-5)")
    assert decreasing
    assert gap <= 1e-5


def test_criterion_10_cli_determinism(tmp_path):
    args = ["converge", "--source", "uniform:h=1", "--norm", "l2",
            "--n", "4,16", "--seed", "9"]
    bodies = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "llt_lab", *args, "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        bodies.append(out.read_text().split('"body":', 1)[1])
    ok = bodies[0] == bodies[1]
    _report(10, ok, f"identical config+seed gives byte-identical JSON bodies: {ok}")
    assert bodies[0] == bodies[1]
