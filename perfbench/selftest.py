"""Self-test of the benchmark at minimal size.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

Runs every workload with its smallest operation list, untraced and traced,
and checks that each metric named in BENCHMARK.json is emitted with its
unit.  Then shows that the checks are not vacuous: a perturbed density, a
shifted Monte Carlo estimate, a CLI body with a wrong number and a CLI body
that changes on a repeat must each fail the checker.  Takes about a minute.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import sys

import run

run.cap_threads()
sys.path.insert(0, run.SRC)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _fail(message: str):
    raise AssertionError(message)


@functools.lru_cache(maxsize=None)
def mini_run(workload: str, trace: bool):
    return run.run(workload, 7, 0.0, trace, mini=True)


@functools.lru_cache(maxsize=None)
def mini_pass(workload: str):
    ops = workloads.build_ops(workload, 7, mini=True)
    return ops, run.run_pass(ops)


def _expect_failure(ops, results, index, replaced, repeat=None):
    """The checker must fail the operation at ``index`` once its result is
    replaced; ``repeat`` instead swaps only the repeated result."""
    first = list(results)
    again = list(results)
    if repeat is None:
        first[index] = replaced
        again[index] = replaced
    else:
        again[index] = repeat
    _, per_op = checks.check_pass(ops, first, [again])
    if per_op[index].ok:
        _fail(f"checker accepted a tampered result of {ops[index].name}")
    if any(not c.ok for i, c in enumerate(per_op) if i != index):
        _fail("tampering with one result failed another operation")


def _index(ops, kind):
    return next(i for i, o in enumerate(ops) if o.kind == kind)


def test_every_metric_is_emitted_with_its_unit():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = mini_run(workload, trace)
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                _fail(f"{workload} trace={trace}: {mini_run(workload, trace)[1]['problems']}")
            got = result["metrics"]
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            if set(got) != set(want):
                _fail(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))} "
                      "differ from BENCHMARK.json")
            for name, unit in want.items():
                value = got[name]["value"]
                if got[name]["unit"] != unit or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    _fail(f"{workload}: {name} = {got[name]}")


def test_traced_layers_cover_the_cell_engine():
    result, _ = mini_run("cell-density", True)
    m = result["metrics"]
    if m["trace.attributed_frac"]["value"] < 0.9:
        _fail(f"layer self times cover only {m['trace.attributed_frac']['value']:.2f} of the pass")
    for name in ("distributions.cf_s", "smoothing.cell_sum_s", "lattice.phased_sum_s",
                 "seriesaccel.certify_s", "smoothing.cell_blocks", "lattice.blocks"):
        if not m[name]["value"] > 0:
            _fail(f"{name} not recorded")


def test_perturbed_density_fails():
    for workload in ("cell-density", "general-noise"):
        ops, results = mini_pass(workload)
        i = _index(ops, "density")
        gd = results[i]
        values = gd.values.copy()
        values[values.size // 2] += 1e-6
        _expect_failure(ops, results, i, dataclasses.replace(gd, values=values))
        _expect_failure(ops, results, i, gd, repeat=dataclasses.replace(gd, values=values))


def test_shifted_monte_carlo_fails():
    ops, results = mini_pass("general-noise")
    i = _index(ops, "mc")
    mc = results[i]
    shifted = dataclasses.replace(mc, values=mc.values + 20.0 * mc.stderr.max())
    _expect_failure(ops, results, i, shifted)


def test_mismatched_cli_body_fails():
    ops, results = mini_pass("studies-cli")
    for experiment in ("converge", "oscillate", "density", "limits", "poisson",
                       "check-condition", "regularity", "autocorr"):
        i = next(j for j, o in enumerate(ops) if o.params["argv"][0] == experiment
                 and o.params["code"] == 0)
        out = results[i]
        body = json.loads(out.stdout)
        res = body["results"]
        key = next(k for k in sorted(res) if isinstance(res[k], float))
        res[key] = res[key] * (1.0 + 1e-3) + 1e-3
        wrong = dataclasses.replace(out, stdout=json.dumps(body, sort_keys=True) + "\n")
        _expect_failure(ops, results, i, wrong)
        respaced = dataclasses.replace(out, stdout=out.stdout.replace(",", ", ", 1))
        _expect_failure(ops, results, i, out, repeat=respaced)
    i = next(j for j, o in enumerate(ops) if o.params["code"] == 2)
    _expect_failure(ops, results, i, dataclasses.replace(results[i], code=0))


def test_closed_forms_match_quadrature():
    x = np.linspace(-5.0, 5.0, 201)
    for spec in workloads.GENERAL_SOURCES:
        for n in workloads.NS:
            gap = np.max(np.abs(checks.gaussian_noise_density(spec, n, x)
                                - checks.quadrature_density(spec, "gaussian", n, x)))
            if gap > 1e-14:
                _fail(f"{spec} n={n}: closed form and quadrature differ by {gap:.2g}")


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print(f"ok  {t.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
