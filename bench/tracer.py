"""Outside-in tracer: spans around calls into fnlslab's public functions.

The tracer replaces each traced function with a wrapper at every module
that binds it, so `from .spectrum import assemble` inside `dynamics`
is caught as well as `spectrum.assemble`.  Spans (name, start, end,
parent) and counters stay in memory until `metrics()` turns them into
the per-layer figures; `uninstall()` puts the original functions back.

Metric names are those an in-program trace would produce, so the
wrappers here can be replaced without renaming anything downstream.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  Functions sharing a span name are one
# layer entry: both profile solvers are `profiles.solve`.
_TARGETS = [
    ("fnlslab.fields", "to_grid", "fields.to_grid"),
    ("fnlslab.fields", "to_modes", "fields.to_modes"),
    ("fnlslab.profiles", "solve_defocusing", "profiles.solve"),
    ("fnlslab.profiles", "solve_focusing", "profiles.solve"),
    ("fnlslab.profiles", "continue_in", "profiles.continue_in"),
    ("fnlslab.spectrum", "assemble", "spectrum.assemble"),
    ("fnlslab.spectrum", "eigensolve", "spectrum.eigensolve"),
    ("fnlslab.spectrum", "sector_spectra", "spectrum.sector_spectra"),
    ("fnlslab.spectrum", "nondegeneracy_check", "spectrum.nondegeneracy_check"),
    ("fnlslab.spectrum", "jordan_structure", "spectrum.jordan_structure"),
    ("fnlslab.spectrum", "fredholm_range_checks", "spectrum.fredholm_range_checks"),
    ("fnlslab.kernels", "kernel_kp", "kernels.kernel_kp"),
    ("fnlslab.kernels", "positivity_report", "kernels.positivity_report"),
    ("fnlslab.rearrange", "polya_szego_check", "rearrange.polya_szego_check"),
    ("fnlslab.rearrange", "potential_ordering_check",
     "rearrange.potential_ordering_check"),
    ("fnlslab.dynamics", "evolve", "dynamics.evolve"),
    ("fnlslab.dynamics", "stability_experiment", "dynamics.stability_experiment"),
    ("fnlslab.dynamics", "orbital_distance", "dynamics.orbital_distance"),
    ("fnlslab.dynamics", "stability_indices", "dynamics.stability_indices"),
    ("fnlslab.dynamics", "coercivity_check", "dynamics.coercivity_check"),
    ("fnlslab.config", "parse_config", "config.parse_config"),
    ("fnlslab.reports", "emit", "reports.emit"),
]

# Every per-layer metric with its unit, in BENCHMARK.json order.
PER_LAYER = (
    [("setup.import_s", "s"), ("setup.parse_s", "s")]
    + [(f"fields.{f}.{k}", u) for f in ("to_grid", "to_modes")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("functionals.calls", "count"), ("functionals.self_s", "s"),
       ("profiles.solve.calls", "count"), ("profiles.solve.self_s", "s"),
       ("profiles.iterations", "count"), ("profiles.continue_in.self_s", "s"),
       ("spectrum.assemble.calls", "count"), ("spectrum.assemble.self_s", "s"),
       ("spectrum.eigensolve.calls", "count"),
       ("spectrum.eigensolve.self_s", "s"),
       ("spectrum.sector_spectra.calls", "count"),
       ("spectrum.nondegeneracy_check.self_s", "s"),
       ("spectrum.jordan_structure.self_s", "s"),
       ("spectrum.fredholm_range_checks.self_s", "s"),
       ("kernels.kernel_kp.calls", "count"), ("kernels.kernel_kp.self_s", "s"),
       ("kernels.positivity_report.self_s", "s"),
       ("rearrange.polya_szego_check.calls", "count"),
       ("rearrange.polya_szego_check.self_s", "s"),
       ("rearrange.potential_ordering_check.self_s", "s"),
       ("dynamics.strang_steps", "count"), ("dynamics.step_us", "us"),
       ("dynamics.evolve.self_s", "s"),
       ("dynamics.stability_experiment.self_s", "s"),
       ("dynamics.orbital_distance.calls", "count"),
       ("dynamics.orbital_distance.self_s", "s"),
       ("dynamics.stability_indices.self_s", "s"),
       ("dynamics.coercivity_check.self_s", "s"),
       ("config.parse_config.self_s", "s"),
       ("reports.emit.self_s", "s"), ("reports.bytes_written", "B")]
    + [(f"cli.{c}_s", "s") for c in ("solve", "spectrum", "kernels", "rearrange",
                                     "evolve", "sweep", "report")]
    + [("trace.overhead_s", "s")]
)


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._stack = []
        self._solve_depth = 0
        self._patches = []

    # -- spans ----------------------------------------------------------

    def span(self, name):
        return _Span(self, name)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, fn, name):
        tracer = self
        if name == "profiles.solve":
            @functools.wraps(fn)
            def solve(*args, **kwargs):
                tracer._solve_depth += 1
                tracer._open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close()
                    tracer._solve_depth -= 1
                # a nested solve's iterations are already in its caller's
                if tracer._solve_depth == 0:
                    tracer.counts["profiles.iterations"] += out.iterations
                return out
            return solve
        if name == "reports.emit":
            @functools.wraps(fn)
            def emit(*args, **kwargs):
                with tracer.span(name):
                    paths = fn(*args, **kwargs)
                tracer.counts["reports.bytes_written"] += sum(
                    os.path.getsize(p) for p in paths)
                return paths
            return emit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every target at each module of the package that binds it."""
        import fnlslab.dynamics as dynamics
        import fnlslab.functionals as functionals

        targets = list(_TARGETS)
        targets += [("fnlslab.functionals", n, "functionals")
                    for n, f in vars(functionals).items()
                    if not n.startswith("_") and inspect.isfunction(f)
                    and f.__module__ == functionals.__name__]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fnlslab" or n.startswith("fnlslab."))]
        for mod_name, attr, name in targets:
            orig = getattr(sys.modules[mod_name], attr)
            wrapped = self._wrap(orig, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)

        # Strang steps are counted, not spanned: a span per block would
        # move stepping time out of the self time of evolve and
        # stability_experiment, which is what dynamics.step_us divides.
        stepper = dynamics._Stepper
        advance = stepper.advance
        tracer = self

        @functools.wraps(advance)
        def counted(self_, m):
            tracer.counts["dynamics.strang_steps"] += max(m, 0)
            return advance(self_, m)

        self._patches.append((stepper, "advance", advance))
        stepper.advance = counted

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- aggregation ----------------------------------------------------

    def totals(self):
        """calls, inclusive seconds and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        incl = defaultdict(float)
        own = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - child[i]
        return calls, incl, own

    def metrics(self, rounds, setup, overhead_s):
        """Per-layer figures per round, keyed as in PER_LAYER."""
        calls, incl, own = self.totals()
        steps = self.counts["dynamics.strang_steps"]
        step_self = own["dynamics.evolve"] + own["dynamics.stability_experiment"]
        values = {
            "setup.import_s": setup["import_s"],
            "setup.parse_s": setup["parse_s"],
            "dynamics.step_us": 1e6 * step_self / steps if steps else 0.0,
            "trace.overhead_s": overhead_s,
        }
        for key, unit in PER_LAYER:
            if key in values:
                continue
            if key.startswith("cli."):
                values[key] = incl[key[:-2]] / rounds
            elif key.endswith(".calls"):
                values[key] = calls[key[:-6]] / rounds
            elif key.endswith(".self_s"):
                values[key] = own[key[:-7]] / rounds
            else:
                values[key] = self.counts[key] / rounds
        return {key: {"value": values[key], "unit": unit}
                for key, unit in PER_LAYER}

    def dump(self, path):
        """Write the spans as JSON lines (name, start, end, parent)."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close()
        return False
