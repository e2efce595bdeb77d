"""Independent references and the checker for every workload operation.

References, by model:

- Bernoulli noise: the exact binomial mixture ``oracle.exact_mixture_density``
  (``exact_mixture_density_2d`` for the product source).  Where a box
  source's mixture jumps, x sqrt(n) - (2j - n) = +-h, the Fourier inverse
  converges to the mean of the two one-sided limits, so the reference there
  is the mean of the oracle just left and just right of x (the mixture of a
  box is piecewise constant, so both one-sided values are exact).
- Gaussian noise: closed forms written in this file.
- Uniform noise: composite Gauss-Legendre quadrature of the smoothed
  characteristic function written in this file (two node counts must
  agree), plus the Monte Carlo comparison below.  With gaussian noise the
  same quadrature reproduces the closed forms to 5e-16 (selftest.py).
- Monte Carlo operations: |KDE - K_h * p| <= MC_SIGMAS standard errors at
  every probe, where K_h * p is the library density smoothed with the same
  Gaussian kernel, so the estimator's bias is not counted as error.  This
  checks the library density and the Monte Carlo estimate against each
  other; the check is counted against the Monte Carlo operation.
- CLI bodies: closed-form values of each experiment's results, and the body
  must be byte-identical on a repeat within the run.

An operation fails when it raises, returns a non-finite value, exits with an
unexpected code, is not reproducible on a repeat, or misses a reference by
more than its gate.  The gate is GATE, criterion 2's bound, except for the
trapezoid inversion (general noise), whose contract is its declared error:
there the gate is max(GATE, est_tail_error).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import dawsn, erfcx, wofz, zeta

from llt_lab import oracle

import workloads

GATE = 1e-7                 # pointwise bound of acceptance criterion 2
DIST_GATE = 1e-6            # GATE integrated over the default window of length 10
MC_SIGMAS = 6.0             # stated Monte Carlo bound, in standard errors
TOL = 1e-9                  # the requested tol of every operation (library default)
QUAD_AGREEMENT = 1e-14      # the two quadrature node counts must agree to this

_SQRT2PI = math.sqrt(2.0 * math.pi)
_PHI0 = 1.0 / _SQRT2PI


def _param(spec: str) -> tuple:
    name, _, param = spec.partition(":")
    return name, float(param.partition("=")[2])


# ---------------------------------------------------------------------------
# per-operation bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class OpCheck:
    name: str
    problems: list = field(default_factory=list)
    err_max: float = 0.0
    est_points: int = 0
    violations: int = 0
    est: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail(message)

    def compare(self, what, got, ref, gate, est=None, exact=True) -> None:
        """Check |got - ref| <= gate pointwise.  ``exact`` references also
        feed oracle_err_max, and where an error estimate ``est`` is given,
        the points where the actual error exceeds it are counted."""
        got = np.asarray(got, dtype=float)
        ref = np.asarray(ref, dtype=float)
        if got.shape != ref.shape:
            self.fail(f"{what}: shape {got.shape} != reference {ref.shape}")
            return
        if not np.all(np.isfinite(got)):
            self.fail(f"{what}: non-finite value")
            return
        err = np.abs(got - ref)
        worst = float(err.max()) if err.size else 0.0
        if np.any(err > gate):
            self.fail(f"{what}: |got - ref| = {worst:.3g} exceeds the gate")
        if exact:
            self.err_max = max(self.err_max, worst)
            if est is not None:
                self.est_points += err.size
                self.violations += int(np.count_nonzero(err > est))

    def declared(self, est: float) -> None:
        """Record the operation's declared error for tol_met_frac."""
        self.require(math.isfinite(est), f"declared error {est} is not finite")
        self.est = est if self.est is None else max(self.est, est)


@dataclass
class Summary:
    """Totals over the checked operations of one run."""

    attempted: int = 0
    failed: int = 0
    err_max: float = 0.0
    est_points: int = 0
    violations: int = 0
    est_ops: int = 0
    tol_met: int = 0
    problems: list = field(default_factory=list)

    def add(self, chk: OpCheck) -> None:
        self.attempted += 1
        self.failed += not chk.ok
        self.err_max = max(self.err_max, chk.err_max)
        self.est_points += chk.est_points
        self.violations += chk.violations
        if chk.est is not None:
            self.est_ops += 1
            self.tol_met += chk.est <= TOL
        self.problems += [f"{chk.name}: {p}" for p in chk.problems]

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted

    @property
    def est_violation_frac(self) -> float:
        return self.violations / self.est_points if self.est_points else 0.0

    @property
    def tol_met_frac(self) -> float:
        return self.tol_met / self.est_ops if self.est_ops else 0.0


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

BOX_SOURCES = ("uniform",)      # sources whose density jumps, at +-h


def _on_jump(w: np.ndarray, n: int, h: float) -> np.ndarray:
    """w - (2j - n) = +-h for an integer j, i.e. w + n -+ h is even."""
    def off_even(v):
        return np.abs(v - 2.0 * np.round(v / 2.0))
    a = w + n
    return (off_even(a - h) < 1e-9) | (off_even(a + h) < 1e-9)


def _jump_shift(spec: str, n: int, x: np.ndarray) -> np.ndarray:
    """Offset in x to the one-sided limits at mixture jumps, 0 elsewhere."""
    name, h = _param(spec)
    if name not in BOX_SOURCES:
        return np.zeros_like(x)
    rt = math.sqrt(n)
    return np.where(_on_jump(x * rt, n, h), 1e-7 / rt, 0.0)


def mixture_reference(spec: str, n: int, x: np.ndarray) -> np.ndarray:
    """Exact Bernoulli-noise density, mean of one-sided limits at jumps."""
    src = workloads.make_source(spec)
    ref = np.asarray(oracle.exact_mixture_density(src, n, x), dtype=float)
    d = _jump_shift(spec, n, x)
    j = d > 0
    if j.any():
        ref[j] = 0.5 * (oracle.exact_mixture_density(src, n, x[j] - d[j])
                        + oracle.exact_mixture_density(src, n, x[j] + d[j]))
    return ref


def mixture_reference_2d(specs: tuple, n: int, x: np.ndarray) -> np.ndarray:
    """Exact density of the product source on the grid x (per axis), as
    the mean over the one-sided corners where a coordinate sits on a jump."""
    src = workloads.lab.product([workloads.make_source(s) for s in specs])
    dx, dy = (_jump_shift(s, n, x) for s in specs)
    X, Y = np.meshgrid(x, x, indexing="ij")
    DX, DY = np.meshgrid(dx, dy, indexing="ij")
    corners = [oracle.exact_mixture_density_2d(src, n, np.stack([X + sx * DX, Y + sy * DY], -1))
               for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)]
    return 0.25 * sum(corners)


def gaussian_noise_density(spec: str, n: int, x: np.ndarray) -> np.ndarray:
    """Closed-form density of (X + S_n)/sqrt(n), S_n ~ N(0, n)."""
    name, v = _param(spec)
    rt = math.sqrt(n)
    if name == "gaussian":
        var = 1.0 + v * v / n
        return np.exp(-0.5 * x * x / var) / math.sqrt(2.0 * math.pi * var)
    if name == "laplace":
        # Laplace(b) convolved with N(0, n); erfcx keeps e^{n/2b^2} finite
        y, s = x * rt, math.sqrt(2.0 * n)
        return (rt / (4.0 * v) * np.exp(-0.5 * y * y / n)
                * (erfcx((n / v - y) / s) + erfcx((n / v + y) / s)))
    if name == "fejer":
        # p(x) = (1/pi) int_0^L (1 - t/L) e^{-t^2/2} cos(tx) dt, L = T sqrt(n);
        # E = e^{-x^2/2} erf((L - ix)/sqrt 2) through the Faddeeva function
        L = v * rt
        E = (np.exp(-0.5 * x * x)
             - np.exp(-0.5 * L * L + 1j * L * x) * wofz((x + 1j * L) / math.sqrt(2.0)))
        i1 = math.sqrt(math.pi / 2.0) * E.real
        im_j = (math.sqrt(math.pi / 2.0) * E.imag
                + math.sqrt(2.0) * dawsn(x / math.sqrt(2.0)))
        i2 = 1.0 - math.exp(-0.5 * L * L) * np.cos(x * L) - x * im_j
        return (i1 - i2 / L) / math.pi
    raise KeyError(spec)


_SOURCE_CF = {
    "laplace": lambda u, b: 1.0 / (1.0 + (b * u) ** 2),
    "gaussian": lambda u, s: np.exp(-0.5 * (s * u) ** 2),
    "fejer": lambda u, T: np.maximum(1.0 - np.abs(u) / T, 0.0),
}


# log(sin z / z) = -sum_k zeta(2k) z^2k / (k pi^2k), to full relative accuracy
# for |z| <= 1.5; np.sinc's absolute rounding would be multiplied by n
_LOG_SINC = np.array([0.0] + [-zeta(2 * k) / (k * math.pi ** (2 * k)) for k in range(1, 31)])


def _sinc_power(z: np.ndarray, n: int) -> np.ndarray:
    """(sin z / z)^n without the n-fold amplified rounding of a plain power."""
    small = np.abs(z) <= 1.5
    log_v = np.polynomial.polynomial.polyval(np.where(small, z, 0.0) ** 2, _LOG_SINC)
    return np.where(small, np.exp(n * log_v), np.sinc(z / math.pi) ** n)


_NOISE_CF_POWER = {
    # v(t/sqrt n)^n for the unit-variance noises
    "uniform": lambda t, n: _sinc_power(math.sqrt(3.0) * t / math.sqrt(n), n),
    "gaussian": lambda t, n: np.exp(-0.5 * t * t),
}


def quadrature_density(spec: str, noise: str, n: int, x: np.ndarray) -> np.ndarray:
    """Density of (X + S_n)/sqrt(n) by composite Gauss-Legendre quadrature
    of (1/pi) int_0^U f(t/sqrt n) v(t/sqrt n)^n cos(tx) dt.

    U = 40 leaves a tail below 1e-19 for every n >= 16 and either noise;
    the Fejer cf is cut at its support edge so that no panel holds a kink."""
    name, v = _param(spec)
    rt = math.sqrt(n)
    upper = min(40.0, v * rt) if name == "fejer" else 40.0
    edges = np.linspace(0.0, upper, int(math.ceil(upper)) + 1)   # panels of width <= 1

    def rule(m):
        s, w = np.polynomial.legendre.leggauss(m)
        half = 0.5 * np.diff(edges)[:, None]
        t = (edges[:-1, None] + half * (s + 1.0)).ravel()
        w = (half * w).ravel()
        g = _SOURCE_CF[name](t / rt, v) * _NOISE_CF_POWER[noise](t, n) * w
        return np.cos(np.outer(x, t)) @ g / math.pi

    coarse, fine = rule(20), rule(30)
    gap = float(np.max(np.abs(coarse - fine)))
    if gap > QUAD_AGREEMENT:
        raise RuntimeError(f"quadrature reference for {spec} n={n} not converged ({gap:.2g})")
    return fine


def grid_distances(x: np.ndarray, p: np.ndarray) -> dict:
    """Trapezoid L1/L2 distances to the standard Gaussian and the sup
    distance refined by the parabola through the grid argmax."""
    d = p - np.exp(-0.5 * x * x) / _SQRT2PI
    step = x[1] - x[0]
    ad = np.abs(d)
    i = int(np.argmax(ad))
    sup = float(ad[i])
    if 0 < i < ad.size - 1:
        a, b, c = ad[i - 1], ad[i], ad[i + 1]
        if 2.0 * b - a - c > 0:
            sup = float(b + (c - a) ** 2 / (8.0 * (2.0 * b - a - c)))
    return {"l1": float(np.trapezoid(ad, dx=step)),
            "l2": float(math.sqrt(np.trapezoid(d * d, dx=step))),
            "sup": sup}


def lattice_factor(spec: str, a: np.ndarray) -> np.ndarray:
    """2 sum_m p(2m + a) in closed form; A_n(x) is its value at
    a = x sqrt(n) + n."""
    name, v = _param(spec)
    if name == "laplace":
        a = np.mod(a, 2.0)
        return np.cosh((1.0 - a) / v) / (v * math.sinh(1.0 / v))
    if name == "uniform" and v == 1.0:
        return np.ones_like(a)      # f(pi k) = 0 for every k != 0
    raise KeyError(spec)


# ---------------------------------------------------------------------------
# operation checks
# ---------------------------------------------------------------------------

def check_density(chk: OpCheck, params: dict, gd) -> None:
    x = gd.axes[0].points()
    spec, noise, n = params["source"], params["noise"], params["n"]
    est = gd.est_tail_error
    chk.declared(est)
    if noise == "bernoulli":
        chk.compare("density", gd.values, mixture_reference(spec, n, x), GATE, est=est)
    elif noise == "gaussian":
        chk.compare("density", gd.values, gaussian_noise_density(spec, n, x),
                    max(GATE, est), est=est)
    else:
        chk.compare("density", gd.values, quadrature_density(spec, noise, n, x),
                    max(GATE, est), est=est)


def kernel_moments(gd, x: np.ndarray, h: float):
    """Mean and standard deviation of one Gaussian-kernel term K_h(x - Z)
    when Z has the grid density: trapezoid convolutions with K_h and K_h^2."""
    g = gd.axes[0].points()
    w = np.full(g.size, g[1] - g[0])
    w[[0, -1]] *= 0.5
    k = np.exp(-0.5 * ((x[:, None] - g[None, :]) / h) ** 2) / (h * _SQRT2PI)
    mean = k @ (gd.values * w)
    second = (k * k) @ (gd.values * w)
    return mean, np.sqrt(np.maximum(second - mean * mean, 0.0))


def check_mc(chk: OpCheck, params: dict, mc, gd) -> None:
    """The KDE must sit within MC_SIGMAS standard errors of its expectation
    under the library density, plus the weight of one sample (the count of
    samples near a tail probe is small and discrete).  The standard error
    is the one the library density implies, not the sampled estimate, which
    is unreliable where few samples fall."""
    chk.require(np.all(np.isfinite(mc.values)) and np.all(np.isfinite(mc.stderr))
                and np.all(mc.stderr >= 0), "non-finite value or standard error")
    mean, sd = kernel_moments(gd, workloads.MC_POINTS, mc.bandwidth)
    one_sample = 1.0 / (mc.bandwidth * _SQRT2PI * mc.samples)
    chk.compare("monte carlo", mc.values, mean,
                MC_SIGMAS * sd / math.sqrt(mc.samples) + one_sample, exact=False)


def _flags(argv: list) -> dict:
    out = {"experiment": argv[0]}
    it = iter(argv[1:])
    for tok in it:
        key, eq, val = tok.partition("=")
        out[key.lstrip("-")] = val if eq else next(it)
    return out


def _grid(flags: dict) -> np.ndarray:
    lo, hi, pts = flags.get("grid", "-5,5,1001").split(",")
    lo, hi, pts = float(lo), float(hi), int(pts)
    return lo + (hi - lo) / (pts - 1) * np.arange(pts)


def _check_converge(chk, f, res):
    spec = f["source"]
    ns = [int(v) for v in f["n"].split(",")]
    x = _grid(f)
    tails = res["error_estimates"]["density_tails"]
    chk.require(res["n_schedule"] == ns, "n schedule not echoed")
    ref = [grid_distances(x, mixture_reference(spec, n, x)) for n in ns]
    for i, n in enumerate(ns):
        chk.declared(tails[i])
        for norm in ("l1", "l2", "sup"):
            # a sup distance moves by at most the pointwise error
            chk.compare(f"{norm} distance n={n}", res["distances"][norm][i], ref[i][norm],
                        DIST_GATE, est=tails[i] if norm == "sup" else None)
    slope = np.polyfit(np.log(ns), np.log([r[res["slope_norm"]] for r in ref]), 1)[0]
    chk.compare("fitted slope", res["fitted_log_slope"], slope, DIST_GATE, exact=False)
    chk.compare("condition max", res["condition_max_abs"], 0.0, 1e-12, exact=False)
    lo, hi = x[0], x[-1]
    deficit = 1.0 - 0.5 * (math.erf(hi / math.sqrt(2.0)) - math.erf(lo / math.sqrt(2.0)))
    chk.compare("window deficit", res["grid_meta"]["gaussian_window_deficit"], deficit, 1e-12)


def _check_oscillate(chk, f, res):
    spec, n, x = f["source"], int(f["n"]), _grid(f)
    ee = res["error_estimates"]
    p = mixture_reference(spec, n, x)
    phi = np.exp(-0.5 * x * x) / _SQRT2PI
    resid = float(np.max(np.abs(p - lattice_factor(spec, x * math.sqrt(n) + n) * phi)))
    chk.declared(ee["density_est_error"])
    chk.compare("residual sup", res["residual_sup"], resid, GATE,
                est=ee["density_est_error"] + ee["cf_tail"] + ee["density_tail"])
    chk.require(res["method_gap"] <= 1e-8, f"route gap {res['method_gap']:.3g} > 1e-8")
    chk.require(res["period_defect"] <= GATE, f"period defect {res['period_defect']:.3g}")


def _check_density_2d(chk, f, res):
    specs = tuple(f["source"][len("product:"):].split(","))
    n, x = int(f["n"]), _grid(f)
    p = mixture_reference_2d(specs, n, x)
    X, Y = np.meshgrid(x, x, indexing="ij")
    phi = np.exp(-0.5 * (X * X + Y * Y)) / (2.0 * math.pi)
    step = x[1] - x[0]
    area = (x[-1] - x[0]) ** 2
    est = res["error_estimates"]["density_tail"]
    chk.declared(est)
    chk.require(res["engine"] == "cell-tensor", f"engine {res['engine']}")
    chk.compare("mass", res["mass"], np.trapezoid(np.trapezoid(p, dx=step), dx=step),
                GATE * area, est=est * area)
    chk.compare("sup distance", res["sup_distance_to_gaussian"],
                float(np.max(np.abs(p - phi))), GATE, est=est)


def _check_limits(chk, f, res):
    name, _ = _param(f["source"])
    # p_n(0) -> phi(0) A at a = 0 along even n and a = 1 along odd n
    even, odd = _PHI0 * lattice_factor(f["source"], np.array([0.0, 1.0]))
    chk.require(res["route"] == ("density" if name == "laplace" else "cf"),
                f"route {res['route']}")
    chk.compare("even limit", res["even"], even, GATE)
    chk.compare("odd limit", res["odd"], odd, GATE)


def _check_poisson(chk, f, res):
    _, b = _param(f["source"])                          # laplace only
    exact = 0.5 / b / math.tanh(0.5 / b)                # sum_m e^{-|m|/b}/(2b)
    tails = res["error_estimates"]
    chk.compare("lhs", res["lhs"], exact, GATE, est=tails["lhs_tail"])
    chk.compare("rhs", res["rhs"], exact, GATE, est=tails["rhs_tail"])
    chk.require(res["gap"] <= 1e-10, f"Poisson gap {res['gap']:.3g} > 1e-10")


def _check_condition(chk, f, res):
    src = f["source"]
    if src.startswith("laplace"):
        _, b = _param(src)
        chk.compare("max |f(pi k)|", res["max_abs"], 1.0 / (1.0 + (math.pi * b) ** 2), GATE)
        chk.require(res["argmax_k"] in ([1], [-1]), f"argmax {res['argmax_k']}")
        chk.require(res["condition_holds"] is False, "condition reported to hold")
    else:                                               # products of uniform:h=1
        chk.compare("max |f(pi k)|", res["max_abs"], 0.0, 1e-12, exact=False)
        chk.require(res["condition_holds"] is True, "condition reported to fail")


def _check_regularity(chk, f, res):
    _, b = _param(f["source"])                          # laplace, condition_3_1
    K = len(res["shell_contributions"])
    j = np.arange(1, K + 1)
    # int |f'| over [a, c] is 1/(1 + b^2 a^2) - 1/(1 + b^2 c^2); two sides
    lo, hi = math.pi * (j - 0.5), math.pi * (j + 0.5)
    shells = 2.0 * (1.0 / (1.0 + (b * lo) ** 2) - 1.0 / (1.0 + (b * hi) ** 2))
    chk.require(K == int(f.get("k", 20)), f"{K} shells")
    chk.compare("shells", res["shell_contributions"], shells, GATE)
    chk.require(res["diverging"] is False, "reported diverging")
    omitted = 2.0 / (1.0 + (b * hi[-1]) ** 2)           # exact tail beyond the window
    # the extrapolated tail must do no worse than dropping the tail
    chk.compare("estimate", res["estimate"], 2.0, omitted, exact=False)


def _check_autocorr(chk, f, res):
    name, v = _param(f["source"])
    if name == "laplace":
        # sum_m q(2m), q(y) = (1 + |y|/b) e^{-|y|/b} / (4b)
        r = math.exp(-2.0 / v)
        exact = (1.0 + 2.0 * (r / (1.0 - r) + (2.0 / v) * r / (1.0 - r) ** 2)) / (4.0 * v)
    else:
        exact = 0.5                                     # uniform: cf zeros on pi Z
    chk.compare("value", res["value"], exact, GATE)
    chk.compare("deviation", res["deviation"], abs(exact - 0.5), GATE)


_CLI_CHECKS = {
    "converge": _check_converge,
    "oscillate": _check_oscillate,
    "density": _check_density_2d,
    "limits": _check_limits,
    "poisson": _check_poisson,
    "check-condition": _check_condition,
    "regularity": _check_regularity,
    "autocorr": _check_autocorr,
}


def check_cli(chk: OpCheck, params: dict, out) -> None:
    want = params["code"]
    chk.require(out.code == want, f"exit code {out.code}, expected {want}")
    if want != 0:
        chk.require(out.stdout == "" and "hypotheses not satisfied" in out.stderr,
                    "rejection without its message")
        return
    try:
        body = json.loads(out.stdout)
    except json.JSONDecodeError as exc:
        chk.fail(f"body is not JSON: {exc}")
        return
    f = _flags(params["argv"])
    try:
        chk.require(body["experiment"] == f["experiment"], "experiment not echoed")
        chk.require(body["config"]["source"] == f["source"], "source not echoed")
        chk.require(body["config"]["seed"] == params["seed"], "seed not echoed")
        _CLI_CHECKS[f["experiment"]](chk, f, body["results"])
    except (KeyError, TypeError, IndexError) as exc:
        chk.fail(f"body lacks an expected result: {exc!r}")


# ---------------------------------------------------------------------------
# a whole pass
# ---------------------------------------------------------------------------

def same_result(a, b) -> bool:
    """Bit-for-bit equality of two results of one operation."""
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return False
    if isinstance(a, workloads.CliResult):
        return a == b
    if hasattr(a, "stderr"):                            # MonteCarloEstimate
        return np.array_equal(a.values, b.values) and np.array_equal(a.stderr, b.stderr)
    return (np.array_equal(a.values, b.values)
            and a.est_tail_error == b.est_tail_error)


def check_pass(ops: list, results: list, repeats: list) -> tuple:
    """Check one pass's results, and their repeats, against the references.
    Returns the Summary and the per-operation checks."""
    summary = Summary()
    checks = []
    by_model = {(o.params["source"], o.params["noise"], o.params["n"]): r
                for o, r in zip(ops, results) if o.kind == "density"}
    for i, (op, res) in enumerate(zip(ops, results)):
        chk = OpCheck(op.name)
        if isinstance(res, BaseException):
            chk.fail(f"raised {res!r}")
        elif op.kind == "density":
            check_density(chk, op.params, res)
        elif op.kind == "mc":
            p = op.params
            check_mc(chk, p, res, by_model[(p["source"], p["noise"], p["n"])])
        else:
            check_cli(chk, op.params, res)
        for rep in repeats:
            chk.require(same_result(res, rep[i]), "result differs on a repeat")
        summary.add(chk)
        checks.append(chk)
    return summary, checks
