import ast
import importlib.util
import json
import math
import pathlib
import resource
import subprocess
import sys
import warnings

import pytest

from llt_lab import cli, even_odd_limits, make_fejer, make_laplace, wrapped_autocorrelation
from llt_lab.cli import (ExperimentConfig, main, parse_noise_spec, parse_spec, run)
from llt_lab.errors import UnknownDistributionError


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _run_cli(args, tmp_path=None):
    # in 2 GiB of address space and with a timeout, so that a run that
    # would exhaust the memory or hang fails its test instead
    proc = subprocess.run([sys.executable, "-m", "llt_lab", *args],
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=_cap_address_space)
    return proc


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------

def test_parse_spec_laplace():
    d = parse_spec("laplace:b=2")
    assert d.label == "laplace:b=2"
    assert d.abs_moment1 == 2.0


def test_parse_spec_product():
    d = parse_spec("product:uniform:h=1,uniform:h=1")
    assert d.dim == 2
    assert d.components is not None


def test_parse_spec_unknown():
    with pytest.raises(UnknownDistributionError, match="unknown distribution: cauchy"):
        parse_spec("cauchy")


def test_parse_spec_bad_token_position():
    with pytest.raises(UnknownDistributionError, match="h==1"):
        parse_spec("uniform:h==1=2")


def test_parse_noise_specs():
    n1 = parse_noise_spec("bernoulli", 1)
    assert n1.is_symmetric_bernoulli
    n2 = parse_noise_spec("uniform", 1)
    assert n2.second_moment == pytest.approx(1.0)
    n3 = parse_noise_spec("gaussian", 1)
    assert n3.second_moment == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# experiments through the programmatic entry
# ---------------------------------------------------------------------------

def test_run_limits_json(tmp_path):
    out = tmp_path / "limits.json"
    cfg = ExperimentConfig(experiment="limits", source="laplace:b=1",
                           out_json=str(out))
    assert run(cfg) == 0
    doc = json.loads(out.read_text())
    e2 = math.e ** 2
    assert doc["body"]["results"]["even"] == pytest.approx(
        (e2 + 1) / (e2 - 1) / math.sqrt(2 * math.pi), abs=1e-5)
    assert doc["body"]["results"]["odd"] == pytest.approx(
        2 * math.e / (e2 - 1) / math.sqrt(2 * math.pi), abs=1e-5)
    assert "created_unix" in doc


def test_run_converge_decreasing(tmp_path):
    out = tmp_path / "c.json"
    cfg = ExperimentConfig(experiment="converge", source="uniform:h=1",
                           norm="sup", n_schedule=(4, 16, 64), out_json=str(out))
    assert run(cfg) == 0
    dist = json.loads(out.read_text())["body"]["results"]["distances"]["sup"]
    assert dist[0] > dist[1] > dist[2]


def test_run_oscillate_csv(tmp_path):
    out = tmp_path / "o.json"
    csv_path = tmp_path / "o.csv"
    cfg = ExperimentConfig(experiment="oscillate", source="laplace:b=1",
                           n_schedule=(50,), grid_points=201,
                           out_json=str(out), out_csv=str(csv_path))
    assert run(cfg) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "x,p_n,phi,A_n,residual"
    assert len(lines) == 202


def test_run_density_csv_columns(tmp_path):
    csv_path = tmp_path / "d.csv"
    cfg = ExperimentConfig(experiment="density", source="gaussian:sigma=1",
                           n_schedule=(8,), grid_points=101, out_csv=str(csv_path),
                           out_json=str(tmp_path / "d.json"))
    assert run(cfg) == 0
    assert csv_path.read_text().splitlines()[0] == "x,p_n,phi"


# ---------------------------------------------------------------------------
# process-level behavior
# ---------------------------------------------------------------------------

def test_cli_exit_codes():
    ok = _run_cli(["check-condition", "--source", "uniform:h=1", "--k", "5"])
    assert ok.returncode == 0
    rej = _run_cli(["poisson", "--source", "uniform:h=1"])
    assert rej.returncode == 2
    assert "hypotheses not satisfied" in rej.stderr
    assert "discontinuous" in rej.stderr
    bad = _run_cli(["limits", "--source", "cauchy"])
    assert bad.returncode == 1
    assert "cauchy" in bad.stderr


_DENSITY = ["density", "--source", "laplace:b=1", "--n", "4"]
_OVERFLOWING = ("laplace:b=1e300", "laplace:b=1e-300", "gaussian:sigma=1e200", "uniform:h=1e300")


@pytest.mark.parametrize("argv, code", [
    (_DENSITY + ["--tol", "0"], 1),
    (_DENSITY + ["--tol=-1e-9"], 1),
    (_DENSITY + ["--tol", "nan"], 1),
    (["limits", "--source", "laplace:b=1", "--tol", "0"], 1),
    (["poisson", "--source", "laplace:b=1", "--tol", "-1"], 1),
    (["autocorr", "--source", "laplace:b=1", "--tol", "nan"], 1),
    (_DENSITY + ["--grid=nan,5,11"], 1),
    (_DENSITY + ["--grid=-5,inf,11"], 1),
    (_DENSITY + ["--grid=-5,5,many"], 1),
    (_DENSITY + ["--bogus", "3"], 1),
    (["frobnicate", "--source", "laplace:b=1"], 1),
    (_DENSITY + ["--grid", "-5,5,11"], 0),
    (["limits", "--source", "laplace:h=2"], 1),
    (["limits", "--source", "uniform:b=3"], 1),
    (["check-condition", "--source", "product:laplace:h=2,uniform:h=1"], 1),
    (["limits", "--config", "norms.cfg"], 1),
    (["limits", "--config", "no-such-file.cfg"], 1),
    (["regularity", "--source", "laplace:b=1", "--k", "2"], 1),
    # a parameter that overflows the law's constants, or a gaussian variance
    # that underflows, is invalid
    *[([e, "--source", spec], 1) for spec in _OVERFLOWING for e in ("limits", "autocorr", "poisson")],
    (["limits", "--source", "gaussian:sigma=1e-200"], 1),
    # a side of a lattice sum longer than its cap is refused before it is formed
    (["limits", "--source", "fejer:T=1e300"], 2),
    (["density", "--source", "uniform:h=1e100", "--n", "16", "--grid=-5,5,11"], 2),
    # cf terms that overflow at the step, or a tail that does
    (["autocorr", "--source", "uniform:h=1e-300"], 2),
    (["autocorr", "--source", "laplace:b=1e-50"], 2),
    (["poisson", "--source", "laplace:b=1e-50"], 2),
    # a lattice zero check of more points than the cap is refused before
    # any point is formed
    (["check-condition", "--source", "laplace:b=1", "--k", "1000000000000"], 2),
    (["check-condition", "--source", "product:uniform:h=1,uniform:h=1", "--k", "10000000"], 2),
    # a regularity integral whose cf zeros need a grid longer than its cap
    # is refused
    (["regularity", "--source", "uniform:h=1e100", "--kind", "condition_3_1"], 2),
    # and so is a window whose search grid has more points than the cap,
    # before the grid is formed
    (["regularity", "--source", "laplace:b=1", "--k", "1000000000000"], 2),
    # and a 2-d window of more cells than its cap, before any cell is formed
    (["regularity", "--source", "product:laplace:b=1,laplace:b=1", "--k", "1000000000000"], 2),
    # a grid whose span overflows, and one whose points overflow x sqrt(n),
    # refused before any value overflows (warnings are errors here)
    (["density", "--source", "laplace:b=1", "--n", "16", "--grid=-1e308,1e308,3"], 1),
    (["density", "--source", "laplace:b=1", "--n", "10000", "--grid=-1e307,1e307,3"], 2),
    # a density so tall that its squared distance to the Gaussian would
    # overflow still has an L2 distance a float holds, with no overflow
    # warning on the way
    (["converge", "--source", "uniform:h=1e-300", "--n", "4,16"], 0),
    # A_n is the factor of the Bernoulli lattice: under other noise p_n has
    # none, and oscillate and limits are refused
    (["oscillate", "--source", "laplace:b=1", "--noise", "uniform", "--n", "16"], 2),
    (["limits", "--source", "laplace:b=1", "--noise", "uniform"], 2),
    # a product density past the largest float, refused before the product
    # or its declared error overflows (found by the property test below)
    (["density", "--source", "product:uniform:h=1e-300,uniform:h=1e-300", "--n", "16"], 2),
    # a product has exactly two components: one component gave tracebacks,
    # and three were refused by each engine in its own way
    *[([e, "--source", "product:laplace:b=1"], 1) for e in ("poisson", "autocorr", "limits")],
    (["check-condition", "--source", "product:laplace:b=1,laplace:b=1,laplace:b=1"], 1),
    # an n past the largest float is invalid, not an OverflowError
    (["density", "--source", "laplace:b=1", "--n", "1" + "0" * 400, "--grid=-1,1,3"], 1),
    (["density", "--source", "laplace:b=1", "--n", "16", "--grid=-1,1,1" + "0" * 400], 1),
], ids=["tol-zero", "tol-negative", "tol-nan", "limits-tol-zero",
        "poisson-tol-negative", "autocorr-tol-nan", "grid-nan", "grid-inf",
        "grid-count", "unknown-flag", "unknown-experiment", "grid-after-space",
        "spec-param-laplace", "spec-param-uniform", "spec-param-product",
        "config-unknown-key", "config-missing", "regularity-k-below-4",
        *[f"{e}-{spec}" for spec in _OVERFLOWING for e in ("limits", "autocorr", "poisson")],
        "limits-gaussian-variance-underflows", "limits-fejer-wide", "density-uniform-wide",
        "autocorr-uniform-narrow", "autocorr-laplace-narrow", "poisson-laplace-narrow",
        "check-condition-huge-k", "check-condition-product-huge-k",
        "regularity-uniform-wide", "regularity-huge-k", "regularity-2d-huge-k",
        "density-grid-span-overflows", "density-grid-w-overflows", "converge-l2-overflows",
        "oscillate-uniform-noise", "limits-uniform-noise", "density-2d-overflows",
        *[f"{e}-one-component-product" for e in ("poisson", "autocorr", "limits")],
        "check-condition-three-component-product", "density-n-past-the-largest-float",
        "density-grid-count-past-the-largest-float"])
def test_cli_hostile_input_exit_code(argv, code, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "norms.cfg").write_text("source = laplace:b=1\nnorms = sup\n")
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if code:
        assert out == ""
        assert ("error:" if code == 1 else "hypotheses not satisfied:") in err


_HOSTILE = """
import collections, contextlib, datetime, io, json, sys
sys.path.insert(0, sys.argv[1])
from hypothesis import HealthCheck, given, settings, strategies as st
from llt_lab.cli import EXPERIMENTS, main

FAMILIES = {"uniform": "h", "laplace": "b", "gaussian": "sigma", "fejer": "T"}
BENIGN = {"--grid": ("-5,5,201", "-4,4,41"), "--noise": ("bernoulli", "uniform", "gaussian"),
          "--tol": ("1e-9", "1e-6"), "--k": ("5", "20"), "--norm": ("l1", "sup"),
          "--kind": ("condition_2_3",)}
HOSTILE = {"--n": ("0", "1", "1000000000000", "16,4", "-3", "1" + "0" * 400),
           "--grid": ("5,-5,11", "-1e308,1e308,3", "nan,5,11", "-5,inf,11", "-5,5,100000000",
                      "-5,5,1", "-5,5,0", "-1e6,1e6,3", "0,0,5", "-1e-300,1e-300,3"),
           "--noise": ("laplace:b=nan", "uniform:h=1e300", "fejer:T=1"),
           "--tol": ("nan", "0", "-1", "1e-300", "1e300", "inf"),
           "--k": ("-3", "0", "1", "1000000000000")}
benign = st.sampled_from(("1", "0.25", "3"))
param = st.one_of(benign, benign, benign,
                  st.sampled_from(("0", "-1", "nan", "inf", "-inf", "1e300", "1e-300")))
law = st.builds(lambda f, v: f"{f}:{FAMILIES[f]}={v}", st.sampled_from(sorted(FAMILIES)), param)
spec = st.one_of(law, st.builds("product:{},{}".format, law, law),
                 st.builds("product:{}".format, law),
                 st.builds("product:{},{},{}".format, law, law, law),
                 st.sampled_from(("cauchy", "", "laplace:b", "product:", "laplace:b=1,h=2")))
flags = st.tuples(
    st.sampled_from(("16", "17", "4,16", "16,17,64,65")).map(lambda v: [f"--n={v}"]),
    *(st.one_of(st.just([]), st.sampled_from(v).map(lambda x, k=k: [f"{k}={x}"]))
      for k, v in BENIGN.items())).map(lambda t: sum(t, []))
# argparse keeps a flag's last value, so a hostile flag overrides a benign one
hostile = st.lists(st.sampled_from([f"{k}={v}" for k, vs in HOSTILE.items() for v in vs]),
                   max_size=2)
codes = collections.Counter()


def finite(constant):
    raise ValueError(constant)


@settings(max_examples=int(sys.argv[2]), derandomize=True, database=None,
          deadline=datetime.timedelta(seconds=20), suppress_health_check=[HealthCheck.too_slow])
@given(st.builds(lambda e, s, f, h: [e, "--source", s, *f, *h],
                 st.sampled_from(EXPERIMENTS), spec, flags, hostile))
def check(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), (code, argv)
    if code:
        assert out.getvalue() == "", argv
    else:
        json.loads(out.getvalue(), parse_constant=finite)
    codes[code] += 1


check()
print(json.dumps(sorted(codes)))
"""


def test_hostile_cli_input_exits_cleanly():
    # catalog specs, flags and up to two hostile overrides (NaN, inf and
    # 1e+-300 parameters, n in {0, 1, 10^12}, reversed and huge grids, a
    # negative --k, noise other than Bernoulli) drawn by Hypothesis, all run
    # in one child under -W error, 2 GiB of address space and a deadline:
    # each exits 0, 1 or 2 with no traceback or warning, writes nothing to
    # stdout when it fails and finite JSON when it succeeds
    import llt_lab
    src = str(pathlib.Path(llt_lab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _HOSTILE, src, "150"],
                          capture_output=True, text=True, timeout=300,
                          preexec_fn=_cap_address_space)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.strip() == "[0, 1, 2]"


@pytest.mark.parametrize("argv", [
    # a cell rule of more nodes than the inverse's cap, refused before the
    # rule is formed
    ["density", "--source", "laplace:b=1", "--n", "16", "--grid=-1000000,1000000,3"],
    # tables over the grid larger than their cap, refused before any grid
    # point is formed: (points x nodes) in 1-d, count^2 values in 2-d
    ["density", "--source", "laplace:b=1", "--n", "4", "--grid=-5,5,100000000"],
    ["density", "--source", "product:laplace:b=1,laplace:b=1", "--n", "16",
     "--grid=-5,5,20001"],
    # and before the rule is formed, or the density side's table
    ["density", "--source", "laplace:b=1", "--n", "16", "--grid=-5000,5000,30000"],
    ["density", "--source", "uniform:h=2000", "--n", "16", "--grid=-5,5,30000"],
    # the oscillation report refuses through density before it forms a point
    ["oscillate", "--source", "laplace:b=1", "--n", "16", "--grid=-5,5,1000000000"],
], ids=["wide", "dense-1d", "dense-2d", "wide-and-dense", "long-density-side", "oscillate-dense"])
def test_cli_refuses_a_grid_past_its_caps(argv):
    r = _run_cli(argv)
    assert (r.returncode, r.stdout) == (2, ""), r.stderr
    assert "hypotheses not satisfied:" in r.stderr and "Traceback" not in r.stderr


def test_autocorr_of_a_wide_uniform_is_its_closed_form(capsys):
    # the cf side of uniform:h=1e100 is two Bernoulli values, not 1e100
    # lattice points
    assert main(["autocorr", "--source", "uniform:h=1e100"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["value"] == 0.5 and res["error_estimates"]["tol_met"]


def test_poisson_of_a_product_names_the_component_without_a_moment(capsys):
    # a product's first absolute moment is judged on its components: the
    # refusal exits 2 and names the component whose moment is infinite
    assert main(["poisson", "--source", "product:fejer:T=0.7,gaussian:sigma=1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "hypotheses not satisfied: fejer:T=0.7: first absolute moment" in err


def test_non_finite_result_is_refused(capsys, monkeypatch):
    # JSON has no inf or NaN: such a result exits 2 and writes no body
    monkeypatch.setitem(cli._RUNNERS, "autocorr",
                        lambda cfg: ({"value": math.inf, "series_tail": math.nan}, None))
    assert main(["autocorr", "--source", "laplace:b=1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "hypotheses not satisfied: autocorr: the result is not finite" in err


def test_cli_missing_source():
    r = _run_cli(["poisson"])
    assert r.returncode == 1


def test_cli_config_file(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("source = laplace:b=1\nn_schedule = 16\nnorm = l1\n")
    out = tmp_path / "r.json"
    assert main(["density", "--config", str(cfgfile), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["body"]["config"]["source"] == "laplace:b=1"
    assert doc["body"]["config"]["n_schedule"] == [16]


def _body_text(path):
    return path.read_text().split('"body":', 1)[1]


def test_cli_config_file_matches_flags(tmp_path):
    # every config key, then the same settings as flags
    cfgfile = tmp_path / "all.cfg"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cfgfile.write_text(
        "# all keys\nsource = laplace:b=1\nnoise = bernoulli\nn_schedule = 4,16\n"
        "grid = -4,4,81\nnorm = l1\ntol = 1e-8\ntrunc_k = 7\n"
        "kind = condition_2_3\nseed = 3\n"
        f"out_json = {a}\nout_csv = {tmp_path / 'a.csv'}\n")
    assert main(["check-condition", "--config", str(cfgfile)]) == 0
    flags = ["check-condition", "--source", "laplace:b=1", "--noise", "bernoulli",
             "--n", "4,16", "--grid", "-4,4,81", "--norm", "l1", "--tol", "1e-8",
             "--k", "7", "--kind", "condition_2_3", "--seed", "3"]
    assert main(flags + ["--out", str(b)]) == 0
    assert _body_text(a) == _body_text(b)
    # an explicit flag overrides the file value
    assert main(["check-condition", "--config", str(cfgfile), "--k", "5",
                 "--out", str(a)]) == 0
    assert main(flags + ["--k", "5", "--out", str(b)]) == 0
    assert _body_text(a) == _body_text(b)
    assert json.loads(a.read_text())["body"]["config"]["trunc_k"] == 5


def test_cli_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["autocorr", "--source", "laplace:b=1", "--seed", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    assert json.dumps(da["body"], sort_keys=True) == json.dumps(db["body"], sort_keys=True)
    # byte-identical apart from the timestamp prefix
    ta = a.read_text().split('"body":', 1)[1]
    tb = b.read_text().split('"body":', 1)[1]
    assert ta == tb


def test_run_regularity(tmp_path):
    out = tmp_path / "reg.json"
    cfg = ExperimentConfig(experiment="regularity", source="laplace:b=1",
                           kind="condition_3_1", trunc_k=10, out_json=str(out))
    assert run(cfg) == 0
    res = json.loads(out.read_text())["body"]["results"]
    assert res["diverging"] is False
    assert res["estimate"] == pytest.approx(2.0, abs=0.01)


def _regularity(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["regularity", *argv])
    assert code == 0
    return json.loads(capsys.readouterr().out)["results"]


def test_regularity_of_a_wide_laplace_does_not_overflow(capsys):
    # cf_grad once formed (1 + (bt)^2)^2, which overflows for bt beyond 1e77
    b = 1e100
    res = _regularity(["--source", f"laplace:b={b:g}", "--kind", "condition_3_1"], capsys)
    # the shell pi(j -+ 1/2) on both sides holds 2 (f(lo) - f(hi)) of |f'|
    lo = [math.pi * (j - 0.5) for j in range(1, 21)]
    exact = [2.0 * (1.0 / (1.0 + (b * a) ** 2) - 1.0 / (1.0 + (b * (a + math.pi)) ** 2))
             for a in lo]
    assert res["shell_contributions"] == pytest.approx(exact, rel=1e-9)
    assert res["diverging"] is False


@pytest.mark.parametrize("spec", ["laplace:b=1e50", "laplace:b=1e100", "gaussian:sigma=1e100"])
def test_regularity_of_a_wide_law_finds_its_central_spike(spec, capsys):
    # |f'| of a law this wide is a spike of width 1/sqrt(E X^2) at 0; f falls
    # from 1 to 0 on each side, so the integral of |f'| is 2
    res = _regularity(["--source", spec, "--kind", "condition_3_1"], capsys)
    assert res["estimate"] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("argv, estimate", [
    (["--source", "fejer:T=1"], 2.0),
    (["--source", "gaussian:sigma=1", "--kind", "condition_2_3"], 1.0),
    (["--source", "gaussian:sigma=1e100", "--kind", "condition_2_3"], 1.0),
    (["--source", "laplace:b=1e100", "--kind", "condition_2_3"], 1.0),
], ids=["fejer", "gaussian-2-3", "gaussian-wide-2-3", "laplace-wide-2-3"])
def test_regularity_of_a_window_that_ends_in_zero_shells(argv, estimate, capsys):
    # the integrand vanishes (beyond fejer's T = 1) or underflows in the last
    # shells: that is no divergence, and no tail is added.  f falls from 1
    # to 0 on each side, so the integral of |f'| is 2 and that of
    # |f f'| = |(f^2/2)'| is 1
    res = _regularity(argv, capsys)
    assert res["shell_contributions"][-1] == 0.0
    assert res["diverging"] is False
    assert res["estimate"] == pytest.approx(estimate, abs=1e-12)


_UNIFORM_KINDS = [(k, h) for h in (10.0, 0.25, 1.0, 2.0)
                  for k in ("condition_3_1", "condition_2_3")]


@pytest.mark.parametrize("kind, h", _UNIFORM_KINDS,
                         ids=[k if h == 10.0 else f"{k}-h={h:g}" for k, h in _UNIFORM_KINDS])
def test_regularity_of_a_wide_uniform_splits_at_the_zeros(kind, h, capsys):
    # on each shell the integral of |f'| is the total variation of f, and
    # that of |f f'| the total variation of f^2/2; in u = h t, f = sin(u)/u,
    # with zeros at u = k pi and zeros of f' where tan u = u
    from scipy.optimize import brentq
    res = _regularity(["--source", f"uniform:h={h:g}", "--kind", kind], capsys)
    g = ((lambda u: math.sin(u) / u) if kind == "condition_3_1"
         else (lambda u: 0.5 * (math.sin(u) / u) ** 2))
    k = range(1, 230)
    zeros = [j * math.pi for j in k] + [brentq(lambda u: u * math.cos(u) - math.sin(u),
                                               j * math.pi, (j + 0.5) * math.pi) for j in k]
    for j, shell in enumerate(res["shell_contributions"], start=1):
        lo, hi = h * math.pi * (j - 0.5), h * math.pi * (j + 0.5)
        u = sorted([lo, hi] + [z for z in zeros if lo < z < hi])
        variation = sum(abs(g(b) - g(a)) for a, b in zip(u, u[1:]))
        assert abs(shell - 2.0 * variation) <= 1e-12, j
    # |f'| falls like 1/t, so the integral of condition 3.1 diverges, which
    # the declared term sin(ht)/(ht) says at every h; at h = 0.25 the 20-cell
    # window holds only 5 humps of f, too few for a fitted slope to see it
    assert res["diverging"] is (kind == "condition_3_1")


def test_run_autocorr_value(tmp_path):
    out = tmp_path / "ac.json"
    cfg = ExperimentConfig(experiment="autocorr", source="laplace:b=1",
                           out_json=str(out))
    assert run(cfg) == 0
    res = json.loads(out.read_text())["body"]["results"]
    assert res["value"] == pytest.approx(0.509274, abs=1e-5)
    assert res["deviation"] >= 0.005


@pytest.mark.parametrize("experiment, spec", [("autocorr", "fejer:T=0.5"),
                                              ("limits", "laplace:b=1")])
def test_body_reports_library_tail(experiment, spec, tmp_path):
    # the achieved tail, not the requested tol
    out = tmp_path / "t.json"
    assert main([experiment, "--source", spec, "--out", str(out)]) == 0
    reported = json.loads(out.read_text())["body"]["results"]["error_estimates"]
    if experiment == "autocorr":
        tail = wrapped_autocorrelation(make_fejer(0.5), tol=1e-9).tail_estimate
    else:
        tail = even_odd_limits(make_laplace(1.0), tol=1e-9).tail
    assert reported == {"series_tail": tail, "tol_met": tail <= 1e-9}
    assert tail != 1e-9


@pytest.mark.parametrize("spec, tol, met", [
    pytest.param("laplace:b=1", 1e-18, False, id="laplace:b=1-tol=1e-18-False"),
    pytest.param("laplace:b=1", 1e-9, True, id="laplace:b=1-True")])
def test_limits_says_whether_tol_was_met(spec, tol, met, tmp_path):
    # the limits declare the rounding of their lattice sum, a few eps: above
    # a tol of 1e-18, far below the default tol of 1e-9
    out = tmp_path / "lim.json"
    assert main(["limits", "--source", spec, "--tol", str(tol), "--out", str(out)]) == 0
    est = json.loads(out.read_text())["body"]["results"]["error_estimates"]
    assert est["tol_met"] is met
    assert (est["series_tail"] <= tol) is met


@pytest.mark.parametrize("spec, tol, met", [
    pytest.param("uniform:h=1", 1e-16, False, id="uniform:h=1-False"),
    pytest.param("gaussian:sigma=1", 1e-9, True, id="gaussian:sigma=1-True")])
def test_density_says_whether_tol_was_met(spec, tol, met, tmp_path):
    # the cell engine declares a few eps, above a tol of 1e-16 and far below
    # the default tol of 1e-9
    out = tmp_path / "d.json"
    assert main(["density", "--source", spec, "--n", "16", "--tol", str(tol),
                 "--out", str(out)]) == 0
    est = json.loads(out.read_text())["body"]["results"]["error_estimates"]
    assert est["tol_met"] is met
    assert (est["density_tail"] <= tol) is met


@pytest.mark.parametrize("tol, met", [(1e-9, True), (1e-16, False)])
def test_converge_and_oscillate_say_whether_tol_was_met(tol, met, tmp_path):
    # converge gives one flag per n; oscillate's flag also covers the tails
    # of both routes to A_n
    out = tmp_path / "r.json"
    for argv in (["converge", "--source", "uniform:h=1", "--n", "4,16"],
                 ["oscillate", "--source", "uniform:h=1", "--n", "101"]):
        assert main([*argv, "--grid=-5,5,201", "--tol", str(tol), "--out", str(out)]) == 0
        est = json.loads(out.read_text())["body"]["results"]["error_estimates"]
        if argv[0] == "converge":
            assert est["tol_met"] == [t <= tol for t in est["density_tails"]] == [met, met]
        else:
            assert est["tol_met"] is met


def test_check_condition_and_converge_give_one_verdict(capsys):
    # gaussian:sigma=2 has max |f(pi k)| = exp(-2 pi^2) = 2.7e-9, above the
    # default tol of 1e-9: both experiments read the condition as failing,
    # so the study fits even and odd n apart
    src = ["--source", "gaussian:sigma=2"]
    assert main(["check-condition", *src]) == 0
    cond = json.loads(capsys.readouterr().out)["results"]
    assert cond["max_abs"] == pytest.approx(math.exp(-2.0 * math.pi ** 2), rel=1e-12)
    assert cond["condition_holds"] is False
    assert main(["converge", *src, "--n", "16,17,64,65"]) == 0
    conv = json.loads(capsys.readouterr().out)["results"]
    assert conv["condition_max_abs"] == cond["max_abs"]
    assert conv["fitted_log_slope"] is None
    assert conv["even_slope"] is not None and conv["odd_slope"] is not None
    # at a tol above the maximum both read it as holding
    assert main(["check-condition", *src, "--tol", "1e-8"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["condition_holds"] is True
    assert main(["converge", *src, "--n", "16,17,64,65", "--tol", "1e-8"]) == 0
    conv = json.loads(capsys.readouterr().out)["results"]
    assert conv["fitted_log_slope"] is not None
    assert conv["even_slope"] is None and conv["odd_slope"] is None


def test_converge_splits_by_parity_only_on_the_bernoulli_lattice(capsys):
    # laplace:b=1 fails the pi-lattice condition, but under uniform noise p_n
    # has no lattice factor, so even and odd n share one fit
    assert main(["converge", "--source", "laplace:b=1", "--noise", "uniform",
                 "--n", "16,17,64,65", "--grid=-5,5,201"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["condition_max_abs"] > 1e-9
    assert res["fitted_log_slope"] == pytest.approx(-0.926, abs=5e-3)
    assert res["even_slope"] is None and res["odd_slope"] is None


def test_fixed_cli_bodies_unchanged():
    # cheap runs over the cell engine, the lattice sums, the general-noise
    # inverse and the lattice conditions; a change that moves a body tables
    # the move in CHANGES.md and re-records tests/data/cli_bodies.json with
    # tests/data/record_cli_bodies.py, whose --diff prints the rows below
    path = pathlib.Path(__file__).parent / "data" / "record_cli_bodies.py"
    spec = importlib.util.spec_from_file_location("record_cli_bodies", path)
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)
    runs = json.loads(record.PATH.read_text(encoding="utf-8"))["runs"]
    rows = record.moved_rows(runs)
    assert rows == [], "moved:\n" + "\n".join(rows)
    assert len(runs) == 28


def test_import_leaves_scipy_integrate_unloaded():
    # the package and its CLI load without scipy.integrate and the modules
    # it pulls in, without concurrent.futures or the module only an exact
    # Bernoulli number needs, and build no alias table
    import llt_lab
    src = str(pathlib.Path(llt_lab.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import llt_lab, llt_lab.cli; "
            "from llt_lab.distributions import _alias_table; "
            "print([m for m in ('scipy.integrate', 'concurrent.futures', 'fractions') "
            "if m in sys.modules], _alias_table.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] 0"


_DEFAULT_PATHS = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import llt_lab, llt_lab.cli
from llt_lab import (SmoothedModel, bernoulli_noise, convergence_study, density,
                     even_odd_limits, exact_mixture_density, gaussian_noise, grid_1d,
                     make_fejer, make_laplace, make_uniform, monte_carlo_density,
                     oscillation_report, poisson_check, product, regularity_integral,
                     uniform_noise, wrapped_autocorrelation)
lap, uni = make_laplace(1.0), make_uniform(1.0)
g = grid_1d(-4.0, 4.0, 41)
assert density(SmoothedModel(lap, bernoulli_noise(1)), 16, g).meta["engine"] == "cell"
assert (density(SmoothedModel(product([uni, uni]), bernoulli_noise(2)), 4,
                llt_lab.grid_2d(-3.0, 3.0, 11)).meta["engine"] == "cell-tensor")
assert density(SmoothedModel(lap, uniform_noise()), 16, g).meta["engine"] == "invert"
assert (density(SmoothedModel(make_fejer(0.7), gaussian_noise()), 16, g).meta["engine"]
        == "invert-compact")
convergence_study(SmoothedModel(uni, bernoulli_noise(1)), [4, 16], grid=g)
assert oscillation_report(SmoothedModel(lap, bernoulli_noise(1)), 16, g).meta["route"] == "density"
assert oscillation_report(SmoothedModel(uni, bernoulli_noise(1)), 17, g).meta["route"] == "cf"
even_odd_limits(lap)
wrapped_autocorrelation(uni)
poisson_check(lap)
monte_carlo_density(SmoothedModel(lap, uniform_noise()), 16, np.zeros(3), 4096, seed=1)
exact_mixture_density(lap, 64, np.linspace(-2.0, 2.0, 5))
exact_mixture_density(lap, 2048, np.linspace(-2.0, 2.0, 5))    # underflowing weights
regularity_integral(uni, "condition_2_3")
regularity_integral(lap, "condition_3_1")
regularity_integral(product([lap, lap]), "condition_2_3")
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_default_paths_leave_scipy_unloaded():
    # the runtime needs numpy alone: no module of the package names scipy,
    # and one call of each engine and study on its default path, the oracle
    # at an n whose binomial weights underflow, and the regularity integral
    # in one and two dimensions run on numpy and math alone
    import llt_lab
    pkg = pathlib.Path(llt_lab.__file__).resolve().parent
    assert [f.name for f in sorted(pkg.glob("*.py")) if "scipy" in f.read_text()] == []
    proc = subprocess.run([sys.executable, "-c", _DEFAULT_PATHS, str(pkg.parent)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_traced_layer_imports():
    # the benchmark's tracer reads sys.modules["llt_lab.<layer>"] for every
    # layer in its LAYERS, once llt_lab and llt_lab.cli are imported; a
    # layer that is not loaded by then would break its --trace 1 runs
    import llt_lab
    tracer = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    layers = next(ast.literal_eval(node.value)
                  for node in ast.parse(tracer.read_text()).body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"])
    assert "seriesaccel" in layers
    src = str(pathlib.Path(llt_lab.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import llt_lab, llt_lab.cli; "
            "print(' '.join(sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert [layer for layer in layers if f"llt_lab.{layer}" not in loaded] == []
