"""Outside-in tracing of llt_lab's layers.

Every public (non-underscore) function defined in a layer module is wrapped,
and the wrapper is installed in every ``llt_lab`` namespace that holds the
function, so calls between modules (``smoothing`` calling ``lattice``) and
calls inside a module (``seriesaccel`` calling its own helpers) both pass
through it.  Catalog characteristic functions are plain closures stored on
frozen dataclasses; the catalog constructors' wrappers return a
``dataclasses.replace`` copy whose ``cf`` is wrapped too.

A span's self time is its duration minus the time of the traced calls made
inside it, so the self times of all spans add up to the time spent inside
llt_lab without double counting.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("distributions", "smoothing", "lattice", "seriesaccel", "inversion",
          "oracle", "asymptotics", "cli")

CF = ("distributions", "cf")


class Tracer:
    """Collects calls and self times per (module, function, calling namespace).

    ``install`` patches the llt_lab namespaces and ``uninstall`` restores
    them; use the instance as a context manager.
    """

    def __init__(self):
        # (module, function, site) -> [calls, self seconds]
        self.stats = defaultdict(lambda: [0, 0.0])
        self.counts = defaultdict(int)
        self.k_reached_max = 0
        self._stack = []
        self._cf_depth = 0
        self._patches = []

    # -- span bookkeeping -------------------------------------------------

    def _span(self, fn, key, hook=None):
        stack = self._stack
        stats = self.stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = stats[key]
                rec[0] += 1
                rec[1] += dt - child
            if hook is not None:
                hook(args, kwargs, out, dt - child)
            return out

        traced.__wrapped_by_tracer__ = True
        return traced

    def _traced_cf(self, cf):
        if getattr(cf, "__wrapped_by_tracer__", False):
            return cf
        inner = self._span(cf, CF + ("catalog",))

        def cf_traced(t):
            # product cfs call their components' cfs: count points once
            if self._cf_depth == 0:
                self.counts["cf_points"] += np.size(t)
            self._cf_depth += 1
            try:
                return inner(t)
            finally:
                self._cf_depth -= 1

        cf_traced.__wrapped_by_tracer__ = True
        return cf_traced

    # -- hooks that record layer counts -----------------------------------

    def _hook_for(self, module, name):
        c = self.counts
        if (module, name) == ("smoothing", "cos_power_window_transform"):
            def hook(args, kwargs, out, self_s):
                n = args[0] if args else kwargs["n"]
                w = args[1] if len(args) > 1 else kwargs["w"]
                c["window_transform_terms"] += (int(n) + 1) * np.size(w)
            return hook
        if (module, name) == ("smoothing", "density"):
            def hook(args, kwargs, out, self_s):
                if str(out.meta.get("engine", "")).startswith("cell"):
                    c["cell_sum_s"] += self_s
            return hook
        if (module, name) == ("lattice", "phased_cf_lattice_sum"):
            def hook(args, kwargs, out, self_s):
                phases = args[2] if len(args) > 2 else kwargs["phases"]
                info = out[2]
                self.k_reached_max = max(self.k_reached_max, int(info["K"]))
                c["k_terms"] += int(info["terms"]) * np.size(phases)
                c["budget_exhausted"] += bool(info.get("extrapolated", False))
            return hook
        if (module, name) == ("oracle", "monte_carlo_density"):
            def hook(args, kwargs, out, self_s):
                c["mc_samples"] += out.samples
            return hook
        return None

    # -- installation -----------------------------------------------------

    def install(self):
        import llt_lab  # noqa: F401  (loads every layer module)
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"llt_lab.{layer}"]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (layer, name, obj)
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if k == "llt_lab" or k.startswith("llt_lab.")]
        for ns in namespaces:
            site = ns.__name__.rpartition(".")[2]
            for attr, obj in list(vars(ns).items()):
                hit = originals.get(id(obj))
                if hit is None:
                    continue
                layer, name, fn = hit
                wrapper = self._span(fn, (layer, name, site),
                                     self._hook_for(layer, name))
                if layer == "distributions":
                    wrapper = self._with_traced_cf(wrapper)
                self._patches.append((ns, attr, obj))
                setattr(ns, attr, wrapper)
        return self

    def _with_traced_cf(self, constructor):
        from llt_lab.distributions import SourceDistribution

        @functools.wraps(constructor)
        def build(*args, **kwargs):
            out = constructor(*args, **kwargs)
            if isinstance(out, SourceDistribution):
                out = dataclasses.replace(out, cf=self._traced_cf(out.cf))
            return out

        return build

    def uninstall(self):
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- readout ----------------------------------------------------------

    def self_s(self, module, *names, site=None):
        return sum(rec[1] for (m, f, s), rec in self.stats.items()
                   if m == module and f in names and (site is None or s == site))

    def calls(self, module, *names, site=None):
        return sum(rec[0] for (m, f, s), rec in self.stats.items()
                   if m == module and f in names and (site is None or s == site))


def layer_metrics(tr: Tracer, body_bytes: int) -> dict:
    """Per-layer metrics of one traced pass, keyed by BENCHMARK.json name."""
    c = tr.counts
    phased_calls = tr.calls("lattice", "phased_cf_lattice_sum")
    return {
        "distributions.cf_s": tr.self_s(*CF),
        "distributions.cf_points": c["cf_points"],
        "smoothing.window_transform_s": tr.self_s("smoothing", "cos_power_window_transform"),
        "smoothing.window_transform_terms": c["window_transform_terms"],
        "smoothing.cell_sum_s": c["cell_sum_s"],
        "smoothing.cell_blocks": tr.calls("seriesaccel", "certified_tail", site="smoothing"),
        "smoothing.cell_extrapolations": tr.calls("seriesaccel", "extrapolate_dual_stride",
                                                  site="smoothing"),
        "smoothing.density_calls": tr.calls("smoothing", "density"),
        "smoothing.convergence_study_s": tr.self_s("smoothing", "convergence_study"),
        "lattice.phased_sum_s": tr.self_s("lattice", "phased_cf_lattice_sum"),
        "lattice.phased_sum_calls": phased_calls,
        "lattice.k_reached_max": tr.k_reached_max,
        "lattice.k_terms": c["k_terms"],
        "lattice.blocks": tr.calls("seriesaccel", "certified_tail", site="lattice"),
        "lattice.budget_exhausted_frac": (c["budget_exhausted"] / phased_calls
                                          if phased_calls else 0.0),
        "lattice.density_sum_s": tr.self_s("lattice", "sum_density_lattice"),
        "seriesaccel.certify_s": tr.self_s("seriesaccel", "certified_tail"),
        "seriesaccel.certify_calls": tr.calls("seriesaccel", "certified_tail"),
        "seriesaccel.extrapolate_s": tr.self_s("seriesaccel", "extrapolate_dual_stride",
                                               "wynn_epsilon", "richardson_inv_k"),
        "seriesaccel.resonance_floor_s": tr.self_s("seriesaccel", "resonance_floor"),
        "seriesaccel.series_blocks_s": tr.self_s("seriesaccel", "sum_series_blocks"),
        "inversion.invert_s": tr.self_s("inversion", "invert"),
        "inversion.invert_calls": tr.calls("inversion", "invert"),
        "inversion.estimate_tail_s": tr.self_s("inversion", "estimate_tail"),
        "inversion.estimate_tail_calls": tr.calls("inversion", "estimate_tail"),
        "oracle.mc_s": tr.self_s("oracle", "monte_carlo_density"),
        "oracle.mc_samples": c["mc_samples"],
        "asymptotics.report_s": tr.self_s("asymptotics", "oscillation_report"),
        "asymptotics.report_calls": tr.calls("asymptotics", "oscillation_report"),
        "cli.run_self_s": tr.self_s("cli", "run"),
        "cli.body_bytes": body_bytes,
    }

