"""The benchmark's workloads: fixed operation lists built from a seed.

Each operation is one call a user makes into llt_lab.  A workload runs its
list closed-loop from one caller in one process.  The seed shuffles the
operation order and sets the Monte Carlo and CLI ``--seed`` values; the
library sees only the generated inputs.

Every call goes through a module attribute (``lab.density``,
``lab.cli.main``) looked up at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import llt_lab as lab
import llt_lab.cli  # noqa: F401  (the package does not import its CLI)

NS = (16, 256, 4096, 16384)
CELL_SOURCES = ("uniform:h=1", "laplace:b=1", "gaussian:sigma=1")
GENERAL_SOURCES = ("laplace:b=1", "gaussian:sigma=1", "fejer:T=0.7")
GENERAL_NOISES = ("uniform", "gaussian")
MC_NS = (16, 256)
MC_SAMPLES = 1 << 18
MC_POINTS = np.linspace(-4.0, 4.0, 81)


@dataclass(frozen=True)
class Op:
    name: str
    kind: str           # "density", "mc" or "cli"
    params: dict
    call: Callable[[], object]


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def make_source(spec: str):
    """Catalog source from a one-parameter spec such as 'laplace:b=1'."""
    name, _, param = spec.partition(":")
    value = float(param.partition("=")[2])
    makers = {"uniform": lab.make_uniform, "laplace": lab.make_laplace,
              "gaussian": lab.make_gaussian, "fejer": lab.make_fejer}
    return makers[name](value)


def make_noise(spec: str):
    makers = {"bernoulli": lambda: lab.bernoulli_noise(1),
              "uniform": lab.uniform_noise, "gaussian": lab.gaussian_noise}
    return makers[spec]()


def density_op(source: str, noise: str, n: int, grid=None) -> Op:
    model = lab.SmoothedModel(make_source(source), make_noise(noise))
    return Op(f"density {source} noise={noise} n={n}", "density",
              {"source": source, "noise": noise, "n": n},
              lambda: lab.density(model, n, grid))


def mc_op(source: str, n: int, samples: int, seed: int) -> Op:
    model = lab.SmoothedModel(make_source(source), make_noise("uniform"))
    return Op(f"monte_carlo {source} noise=uniform n={n}", "mc",
              {"source": source, "noise": "uniform", "n": n},
              lambda: lab.monte_carlo_density(model, n, MC_POINTS, samples, seed=seed))


def cli_op(argv: list, seed: int, code: int = 0) -> Op:
    args = list(argv) + ["--seed", str(seed)]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = lab.cli.main(args)
        return CliResult(rc, out.getvalue(), err.getvalue())

    return Op("llt-lab " + " ".join(argv), "cli",
              {"argv": list(argv), "code": code, "seed": seed}, call)


def _studies(seed: int, mini: bool) -> list:
    if mini:
        heavy = [
            ["converge", "--source", "uniform:h=1", "--n", "4,16", "--grid=-5,5,201"],
            ["oscillate", "--source", "laplace:b=1", "--n", "16", "--grid=-5,5,201"],
            ["density", "--source", "product:uniform:h=1,uniform:h=1", "--n", "16",
             "--grid=-5,5,21"],
        ]
    else:
        heavy = [
            ["converge", "--source", "uniform:h=1", "--n", "4,16,64,256"],
            ["oscillate", "--source", "laplace:b=1", "--n", "100"],
            ["oscillate", "--source", "uniform:h=1", "--n", "101"],
            # argparse reads "-5,5,101" after a space as a flag; see FINDINGS.md
            ["density", "--source", "product:uniform:h=1,uniform:h=1", "--n", "64",
             "--grid=-5,5,101"],
        ]
    cheap = [
        ["limits", "--source", "laplace:b=1"],
        ["limits", "--source", "uniform:h=1"],
        ["poisson", "--source", "laplace:b=1"],
        ["check-condition", "--source", "laplace:b=1"],
        ["check-condition", "--source", "product:uniform:h=1,uniform:h=1", "--k", "5"],
        ["regularity", "--source", "laplace:b=1", "--kind", "condition_3_1"],
        ["autocorr", "--source", "laplace:b=1"],
        ["autocorr", "--source", "uniform:h=1"],
    ]
    ops = [cli_op(a, seed) for a in heavy + cheap]
    # the Poisson identity needs a continuous density: exit 2 is the answer
    ops.append(cli_op(["poisson", "--source", "uniform:h=1"], seed, code=2))
    return ops


def build_ops(workload: str, seed: int, mini: bool = False) -> list:
    """The workload's operations in the seed's order."""
    ns = NS[:1] if mini else NS
    if workload == "cell-density":
        grid = lab.grid_1d(-5.0, 5.0, 101) if mini else None
        ops = [density_op(s, "bernoulli", n, grid) for s in CELL_SOURCES for n in ns]
    elif workload == "studies-cli":
        ops = _studies(seed, mini)
    elif workload == "general-noise":
        ops = [density_op(s, noise, n) for noise in GENERAL_NOISES
               for s in GENERAL_SOURCES for n in ns]
        samples = 1 << 12 if mini else MC_SAMPLES
        ops += [mc_op(s, n, samples, seed) for s in GENERAL_SOURCES
                for n in (MC_NS[:1] if mini else MC_NS)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return ops


def warm_up(workload: str) -> None:
    """One small operation of the workload's kind, run during set-up.  The
    studies warm-up also pays the lazy ``scipy.stats`` import of the first
    convergence study."""
    if workload == "cell-density":
        density_op("gaussian:sigma=1", "bernoulli", 16).call()
    elif workload == "studies-cli":
        cli_op(["converge", "--source", "gaussian:sigma=1", "--n", "4,16",
                "--grid=-5,5,101"], 0).call()
    else:
        density_op("laplace:b=1", "uniform", 16).call()
