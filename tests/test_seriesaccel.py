import ast
import importlib
import math
import pathlib

import numpy as np
import pytest

from llt_lab import make_laplace, sum_cf_lattice
from llt_lab.seriesaccel import certified_tail


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


def certify(term, tol, block, max_blocks):
    """Sum sum_{k >= 1} term(k) a block at a time, as the 2-d shell sum
    does, until certified_tail bounds the rest below tol: (total, tail),
    or None if it does not within max_blocks blocks."""
    total, mags = 0.0, []
    for k0 in range(1, 1 + block * max_blocks, block):
        k = np.arange(k0, k0 + block)
        t = term(k)
        total += float(np.sum(t))
        mags.append((int(k[-1]), float(np.abs(t).sum())))
        tail = certified_tail(mags, block)
        if tail is not None and tail <= tol:
            return total, tail
    return None


def test_alternating_harmonic():
    # an algebraic tail is refused, not extrapolated
    assert certify(lambda k: (-1.0) ** k / k, 1e-12, 256, 64) is None


def test_zeta2_monotone():
    assert certify(lambda k: 1.0 / k ** 2.0, 1e-12, 256, 64) is None


def test_geometric_certifies_without_extrapolation():
    got = certify(lambda k: 0.5 ** k, 1e-12, 64, 64)
    assert got is not None
    total, tail = got
    assert total == pytest.approx(1.0, abs=1e-12)
    assert tail <= 1e-12


def test_phased_harmonic_log_series():
    assert certify(lambda k: np.cos(k) / k, 1e-10, 256, 128) is None


def test_certified_tail_never_small_on_noisy_envelope():
    # |sin(eps k)|/k block sums masquerade as summable over short baselines;
    # the rule may return a conservative bound attempt but never a small one
    # (engines only stop when the bound is below their tolerance)
    eps, block = 0.0042 * math.pi, 512
    mags = []
    for j in range(4, 33):
        k = np.arange(j * block + 1, (j + 1) * block + 1)
        mags.append((int(k[-1]), float(np.sum(np.abs(np.sin(eps * k)) / k))))
        t = certified_tail(mags, block)
        assert t is None or t > 1e-3
    # a clean inverse-cube envelope certifies tightly
    mags3 = []
    for j in range(8):
        k = np.arange(j * block + 1, (j + 1) * block + 1)
        mags3.append((int(k[-1]), float(np.sum(1.0 / k ** 3))))
    tail = certified_tail(mags3, block)
    assert tail is not None
    true_tail = 1.0 / (2.0 * mags3[-1][0] ** 2)
    assert tail >= true_tail
    assert tail <= 20.0 * true_tail


def test_every_traced_layer_imports():
    # the benchmark's tracer wraps llt_lab.<layer> for every layer in its
    # LAYERS; deleting one of those modules would break its --trace 1 runs
    tracer = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    layers = next(ast.literal_eval(node.value)
                  for node in ast.parse(tracer.read_text()).body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"])
    assert "seriesaccel" in layers
    for layer in layers:
        importlib.import_module(f"llt_lab.{layer}")
