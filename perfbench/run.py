"""Run one workload of the llt-lab benchmark and print its metrics.

    python3 perfbench/run.py --workload cell-density --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the benchmark imports ``llt_lab`` from the
checkout's ``src/`` and refuses to run without it.  The workload runs
closed-loop from one caller in this process, with LLT_LAB_THREADS=1 and the
BLAS threads capped at the number of usable cores.  It repeats whole passes
over its fixed operation list while the next pass still fits in
``--seconds`` (always at least one, two for studies-cli), then checks the
first pass against independent references (checks.py) and every later pass
against the first.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
untraced passes, then one pass with every llt_lab layer wrapped
(tracer.py), and prints the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("cell-density", "studies-cli", "general-noise")
SETUP_SAMPLES = 3       # this process plus two fresh interpreters; the median counts

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac",
    "oracle_err_max": "1", "est_cover_frac": "frac", "tol_met_frac": "frac",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def cap_threads() -> None:
    """Pin the library to one worker thread and BLAS to at most nproc."""
    nproc = len(os.sched_getaffinity(0))
    os.environ["LLT_LAB_THREADS"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        limit = int(cur) if cur.isdigit() and int(cur) > 0 else nproc
        os.environ[var] = str(min(limit, nproc))


def set_up(workload: str, seed: int, mini: bool = False):
    """Import llt_lab, build the workload's inputs and run one warm-up
    operation.  Returns (seconds, operations)."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import llt_lab
    if not os.path.abspath(llt_lab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"llt_lab was imported from {llt_lab.__file__}, not {SRC}")
    import workloads
    ops = workloads.build_ops(workload, seed, mini)
    workloads.warm_up(workload)
    return time.perf_counter() - t0, ops


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=150, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(ops: list) -> list:
    results = []
    for op in ops:
        try:
            results.append(op.call())
        except Exception as exc:  # the checker reports it as a failed operation
            results.append(exc)
    return results


def timed_passes(ops: list, seconds: float, min_passes: int):
    passes, times = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(ops))
        times.append(time.perf_counter() - t0)
        if (len(passes) >= min_passes
                and time.perf_counter() - start + times[-1] > seconds):
            return passes, times


def git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def src_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    when the checkout is not a git work tree."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "llt_lab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "LLT_LAB_THREADS": os.environ["LLT_LAB_THREADS"],
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, mini: bool = False):
    """Set up, measure, check.  Returns (result, report): the result is the
    benchmark's last output line, the report everything printed before it."""
    setup_own, ops = set_up(workload, seed, mini)
    import checks
    import tracer
    import workloads

    setups = [setup_own]
    if not trace:
        setups += [probe_setup(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
    # CLI bodies must repeat byte for byte, so studies-cli always runs twice
    passes, times = timed_passes(ops, seconds, 2 if workload == "studies-cli" else 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    repeats = passes[1:]

    if trace:
        with tracer.Tracer() as tr:
            traced_ops = workloads.build_ops(workload, seed, mini)
            t0 = time.perf_counter()
            traced = run_pass(traced_ops)
            traced_wall = time.perf_counter() - t0
            body_bytes = sum(len(r.stdout.encode()) for r in traced
                             if isinstance(r, workloads.CliResult))
            metrics = tracer.layer_metrics(tr, body_bytes)
            # share of the traced pass that the layers' self times account for
            attributed = sum(v for k, v in metrics.items() if k.endswith("_s")) / traced_wall
            summary, per_op = checks.check_pass(ops, passes[0], repeats + [traced])
            metrics["oracle.exact_s"] = tr.self_s(
                "oracle", "exact_mixture_density", "exact_mixture_density_2d", "mixture_weights")
        metrics["trace.overhead_frac"] = traced_wall / statistics.median(times) - 1.0
        metrics["trace.attributed_frac"] = attributed
        units = {k: layer_unit(k) for k in metrics}
    else:
        summary, per_op = checks.check_pass(ops, passes[0], repeats)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(times),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - summary.fail_frac,
            "oracle_err_max": summary.err_max,
            "est_cover_frac": 1.0 - summary.est_violation_frac,
            "tol_met_frac": summary.tol_met_frac,
        }
        units = END_TO_END_UNITS

    report = {
        "workload": workload,
        "env": environment(seed),
        "setup_samples_s": setups,
        "pass_s": times,
        # the gated ok_frac and est_cover_frac are the complements of these
        "fail_frac": summary.fail_frac,
        "est_violation_frac": summary.est_violation_frac,
        "ops": [{"op": c.name, "ok": c.ok, "est": c.est, "err_max": c.err_max,
                 "est_violations": c.violations, "points": c.est_points}
                for c in per_op],
        "problems": summary.problems,
    }
    result = {
        "correct": summary.failed == 0,
        "attempted": summary.attempted,
        "failed": summary.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time set-up and print it (used for setup_s samples)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "llt_lab", "__init__.py")):
        print(f"perfbench: no llt_lab package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    cap_threads()
    if args.setup_probe:
        seconds, _ = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
