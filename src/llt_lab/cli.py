"""Command-line experiment runner with machine-readable outputs.

Experiments wrap the library into reproducible runs: JSON for structured
results (canonical key order, so identical configs give byte-identical
bodies) and CSV for grid curves.  Exit codes: 0 success, 1 invalid input,
2 mathematically meaningful rejection (hypotheses not satisfied).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .asymptotics import _require_bernoulli_1d, even_odd_limits, oscillation_report
from .distributions import (NoiseDistribution, SourceDistribution, as_noise,
                            bernoulli_noise, gaussian_noise, make_fejer,
                            make_gaussian, make_laplace, make_uniform, product,
                            uniform_noise)
from .errors import (InvalidParameterError, LltLabError, UnknownDistributionError,
                     UnsupportedError, require_tol)
from .inversion import Grid, grid_1d, grid_2d
from .lattice import (_condition_holds, check_pi_lattice_zeros, poisson_check,
                      regularity_integral, wrapped_autocorrelation)
from .smoothing import (SmoothedModel, _phi, convergence_study, density,
                        distance_to_gaussian)

__all__ = ["ExperimentConfig", "parse_spec", "parse_noise_spec", "run", "main"]

EXPERIMENTS = ("check-condition", "poisson", "autocorr", "density",
               "converge", "oscillate", "limits", "regularity")


# ---------------------------------------------------------------------------
# distribution spec strings
# ---------------------------------------------------------------------------

# each catalog name takes one parameter (default 1.0) and its constructor
_CATALOG = {
    "uniform": ("h", make_uniform),
    "laplace": ("b", make_laplace),
    "gaussian": ("sigma", make_gaussian),
    "fejer": ("T", make_fejer),
}


def _parse_params(body: str, spec: str) -> dict:
    params = {}
    if not body:
        return params
    for tok in body.split(","):
        if "=" not in tok:
            raise UnknownDistributionError(
                f"bad parameter token {tok!r} at position {spec.find(tok)} in {spec!r}")
        key, val = tok.split("=", 1)
        try:
            params[key.strip()] = float(val)
        except ValueError:
            raise UnknownDistributionError(
                f"non-numeric value {val!r} for parameter {key!r} in {spec!r}")
    return params


def parse_spec(text: str) -> SourceDistribution:
    """Resolve a catalog spec such as 'uniform:h=1', 'laplace:b=2',
    'gaussian:sigma=1', 'fejer:T=0.7' or 'product:uniform:h=1,uniform:h=1'."""
    spec = text.strip()
    if not spec:
        raise UnknownDistributionError("empty distribution spec")
    if spec.startswith("product:"):
        body = spec[len("product:"):]
        if not body:
            raise UnknownDistributionError(f"product needs components in {spec!r}")
        comps = [parse_spec(tok) for tok in body.split(",")]
        return product(comps)
    name, _, body = spec.partition(":")
    params = _parse_params(body, spec)
    if name not in _CATALOG:
        raise UnknownDistributionError(f"unknown distribution: {name}")
    key, make = _CATALOG[name]
    unknown = sorted(set(params) - {key})
    if unknown:
        raise UnknownDistributionError(
            f"{name} takes only the parameter {key!r}, got {unknown} in {spec!r}")
    return make(params.get(key, 1.0))


def parse_noise_spec(text: str, dim: int) -> NoiseDistribution:
    """Resolve a noise spec: 'bernoulli' (one or two dims), 'uniform' (the isotropic
    law on [-sqrt 3, sqrt 3]), 'gaussian', or an explicit unit-variance
    catalog spec."""
    spec = text.strip()
    if spec in ("bernoulli", ""):
        return bernoulli_noise(dim)
    if dim != 1:
        raise UnsupportedError("non-Bernoulli noise is catalogued for dim 1 only")
    if spec == "uniform":
        return uniform_noise()
    if spec == "gaussian":
        return gaussian_noise()
    return as_noise(parse_spec(spec), tol=1e-6)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    experiment: str
    source: str
    noise: str = "bernoulli"
    n_schedule: tuple = ()
    grid_min: float = -5.0
    grid_max: float = 5.0
    grid_points: int = 1001
    norm: str = "l2"
    tol: float = 1e-9
    trunc_k: int = 20
    kind: str = "condition_3_1"
    seed: int = 0
    out_json: Optional[str] = None
    out_csv: Optional[str] = None

    def to_mapping(self) -> dict:
        d = asdict(self)
        d["n_schedule"] = list(self.n_schedule)
        return d


def _parse_schedule(text: str) -> tuple:
    try:
        vals = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad n schedule: {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("empty n schedule")
    return vals


def _parse_grid(text: str) -> tuple:
    try:
        lo, hi, pts = text.split(",")
        return float(lo), float(hi), int(pts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid spec: {text!r}")


# ---------------------------------------------------------------------------
# experiment implementations
# ---------------------------------------------------------------------------

def _build_model(cfg: ExperimentConfig) -> SmoothedModel:
    src = parse_spec(cfg.source)
    noise = parse_noise_spec(cfg.noise, src.dim)
    return SmoothedModel(src, noise)


def _grid_from_cfg(cfg: ExperimentConfig, dim: int) -> Grid:
    if dim == 1:
        return grid_1d(cfg.grid_min, cfg.grid_max, cfg.grid_points)
    return grid_2d(cfg.grid_min, cfg.grid_max, cfg.grid_points)


def _run_check_condition(cfg):
    src = parse_spec(cfg.source)
    rep = check_pi_lattice_zeros(src, cfg.trunc_k)
    return {"max_abs": rep.max_abs, "argmax_k": list(rep.argmax_k),
            "condition_holds": _condition_holds(rep, cfg.tol)}, None


def _run_poisson(cfg):
    src = parse_spec(cfg.source)
    rep = poisson_check(src, tol=cfg.tol)
    return {"lhs": rep.lhs, "rhs": rep.rhs, "gap": rep.gap,
            "error_estimates": {"lhs_tail": rep.lhs_tail,
                                "rhs_tail": rep.rhs_tail}}, None


def _run_autocorr(cfg):
    src = parse_spec(cfg.source)
    ac = wrapped_autocorrelation(src, tol=cfg.tol)
    target = 0.5 ** src.dim
    return {"value": ac.value, "target": target, "deviation": abs(ac.value - target),
            "error_estimates": {"series_tail": ac.tail_estimate,
                                "tol_met": ac.tol_met}}, None


def _run_density(cfg):
    model = _build_model(cfg)
    if not cfg.n_schedule:
        raise InvalidParameterError("density experiment needs --n")
    n = cfg.n_schedule[-1]
    grid = _grid_from_cfg(cfg, model.dim)
    gd = density(model, n, grid, tol=cfg.tol)
    res = {"n": n,
           "error_estimates": {"density_tail": gd.est_tail_error,
                               "tol_met": gd.meta["tol_met"]},
           "engine": gd.meta.get("engine", ""),
           "mass": gd.mass(),
           "sup_distance_to_gaussian": distance_to_gaussian(gd, "sup")}
    rows = None
    if model.dim == 1:
        x = gd.axes[0].points()
        rows = {"x": x, "p_n": gd.values, "phi": _phi(x)}
    return res, rows


def _run_converge(cfg):
    model = _build_model(cfg)
    if not cfg.n_schedule:
        raise InvalidParameterError("converge experiment needs --n")
    grid = _grid_from_cfg(cfg, model.dim)
    rep = convergence_study(model, cfg.n_schedule, cfg.norm, grid, tol=cfg.tol)
    return {
        "n_schedule": list(rep.n_schedule),
        "distances": {k: list(v) for k, v in rep.distances.items()},
        "fitted_log_slope": rep.fitted_log_slope,
        "even_slope": rep.even_slope,
        "odd_slope": rep.odd_slope,
        "slope_norm": rep.slope_norm,
        "condition_max_abs": rep.condition_max_abs,
        "error_estimates": {"density_tails": list(rep.est_errors),
                            "tol_met": list(rep.tol_met)},
        "grid_meta": rep.grid_meta,
    }, None


def _run_oscillate(cfg):
    model = _build_model(cfg)
    if not cfg.n_schedule:
        raise InvalidParameterError("oscillate experiment needs --n")
    n = cfg.n_schedule[-1]
    grid = _grid_from_cfg(cfg, 1)
    rep = oscillation_report(model, n, grid, tol=cfg.tol)
    x = grid.axes[0].points()
    phi = _phi(x)
    rows = {"x": x, "p_n": rep.p_values, "phi": phi, "A_n": rep.a_values,
            "residual": rep.p_values - rep.a_values * phi}
    return {"n": n, "residual_sup": rep.residual_sup,
            "period_defect": rep.period_defect,
            "method_gap": rep.method_gap,
            "error_estimates": rep.meta}, rows


def _run_limits(cfg):
    model = _build_model(cfg)
    _require_bernoulli_1d(model)
    lim = even_odd_limits(model.source, tol=cfg.tol)
    return {"even": lim.even_limit, "odd": lim.odd_limit, "route": lim.route,
            "error_estimates": {"series_tail": lim.tail,
                                "tol_met": lim.tol_met}}, None


def _run_regularity(cfg):
    src = parse_spec(cfg.source)
    rep = regularity_integral(src, cfg.kind, cfg.trunc_k)
    return {"estimate": rep.estimate, "diverging": rep.diverging,
            "shell_contributions": list(rep.shell_contributions)}, None


_RUNNERS = {
    "check-condition": _run_check_condition,
    "poisson": _run_poisson,
    "autocorr": _run_autocorr,
    "density": _run_density,
    "converge": _run_converge,
    "oscillate": _run_oscillate,
    "limits": _run_limits,
    "regularity": _run_regularity,
}

_CSV_COLUMNS = ("x", "p_n", "phi", "A_n", "residual")


def canonical_json_body(body: dict) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"), allow_nan=False)


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; writes the JSON document (and CSV when the
    experiment is grid-valued) and returns the process exit status."""
    if cfg.experiment not in _RUNNERS:
        raise InvalidParameterError(f"unknown experiment: {cfg.experiment}")
    require_tol(cfg.tol)
    results, rows = _RUNNERS[cfg.experiment](cfg)
    config_echo = cfg.to_mapping()
    # output paths carry no experiment semantics; echoing them would break
    # the byte-identical-body determinism contract
    config_echo.pop("out_json", None)
    config_echo.pop("out_csv", None)
    body = {
        "experiment": cfg.experiment,
        "config": config_echo,
        "library_version": __version__,
        "results": results,
    }
    try:
        text = canonical_json_body(body)
    except ValueError:
        # JSON has no inf or NaN: a result that overflowed is refused
        raise UnsupportedError(f"{cfg.experiment}: the result is not finite") from None
    if cfg.out_json:
        with open(cfg.out_json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"created_unix": time.time()}, separators=(",", ":"))[:-1])
            fh.write(',"body":')
            fh.write(text)
            fh.write("}\n")
    else:
        sys.stdout.write(text + "\n")
    if rows is not None and cfg.out_csv:
        cols = [c for c in _CSV_COLUMNS if c in rows]
        with open(cfg.out_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            nrow = len(np.asarray(rows[cols[0]]))
            for i in range(nrow):
                writer.writerow([repr(float(np.asarray(rows[c])[i])) for c in cols])
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are invalid input: exit 1 through :func:`main`, not
    argparse's exit 2, which this CLI reserves for failed hypotheses."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidParameterError(message)


@functools.cache      # one parser per process: parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    # flags left out stay out of the namespace, so ExperimentConfig alone
    # holds the defaults
    ap = _ArgumentParser(
        prog="llt-lab",
        description="numerical experiments on noise-smoothed random walks",
        argument_default=argparse.SUPPRESS)
    ap.add_argument("experiment", choices=EXPERIMENTS)
    ap.add_argument("--source", help="source distribution spec, e.g. laplace:b=1")
    ap.add_argument("--noise",
                    help="noise spec: bernoulli | uniform | gaussian (default bernoulli)")
    ap.add_argument("--n", dest="n_schedule", type=_parse_schedule,
                    help="comma-separated n schedule, e.g. 4,16,64,256")
    ap.add_argument("--grid", type=_parse_grid,
                    help="grid as min,max,points (default -5,5,1001)")
    ap.add_argument("--norm", choices=("l1", "l2", "sup"))
    ap.add_argument("--tol", type=float)
    ap.add_argument("--k", dest="trunc_k", type=int,
                    help="lattice window for condition checks / regularity shells")
    ap.add_argument("--kind", choices=("condition_2_3", "condition_3_1"))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out", dest="out_json", help="JSON output path")
    ap.add_argument("--csv", dest="out_csv", help="CSV output path")
    ap.add_argument("--config", help="key=value config file; explicit flags override it")
    return ap


def _join_grid_value(argv: Sequence[str]) -> list:
    """Rewrite ``--grid -5,5,101`` as ``--grid=-5,5,101``: argparse reads a
    separate value starting with '-' as an option."""
    out = []
    for tok in argv:
        if out and out[-1] == "--grid":
            out[-1] = f"--grid={tok}"
        else:
            out.append(tok)
    return out


def _config_file_flags(ap: argparse.ArgumentParser, path: str) -> list:
    """The ``key = value`` lines of a config file as ``--flag=value`` tokens;
    a key is the name of a setting (the flag's destination)."""
    flags = {a.dest: a.option_strings[0] for a in ap._actions
             if a.option_strings and a.dest not in ("help", "config")}
    out = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeError) as exc:
        raise InvalidParameterError(f"cannot read config file: {exc}")
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidParameterError(f"bad config line: {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in flags:
            raise InvalidParameterError(
                f"unknown config key {key!r} in {path}; keys: {', '.join(flags)}")
        out.append(f"{flags[key]}={val}")
    return out


def _config_from_args(argv: Sequence[str]) -> ExperimentConfig:
    ap = _build_parser()
    argv = _join_grid_value(argv)
    ns = ap.parse_args(argv)
    if "config" in ns:
        # file lines go first, so an explicit flag overrides them
        ns = ap.parse_args(_config_file_flags(ap, ns.config) + argv)
    vals = vars(ns)
    vals.pop("config", None)
    if not vals.get("source"):
        raise InvalidParameterError("--source is required")
    if "grid" in vals:
        vals["grid_min"], vals["grid_max"], vals["grid_points"] = vals.pop("grid")
    return ExperimentConfig(**vals)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        cfg = _config_from_args(argv)
        return run(cfg)
    except UnsupportedError as exc:
        print(f"hypotheses not satisfied: {exc}", file=sys.stderr)
        return 2
    except (InvalidParameterError, LltLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
