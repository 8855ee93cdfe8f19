"""Outside-in tracing of cavkerr: a span around every public function of each
layer module, and the per-layer metrics computed from those spans.

Nothing inside ``src/`` is changed.  ``Tracer.install`` replaces each public
function at every name that binds it in the package -- the defining module,
the modules that imported it by name (``dynamics`` imports ``profile_value``
and ``collective_shift_from_displacements``, ``measure`` imports
``profile_value``), the package namespace and module-level dispatch tables --
so calls made through any of those names are recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "params", "steady_state", "lattice", "dynamics", "measure")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _ring_up_counts(args, kwargs, trace):
    duration = _arg(args, kwargs, 6, "duration", 1e-3)
    dt = _arg(args, kwargs, 7, "dt")
    arrays = [v for v in vars(trace).values() if isinstance(v, np.ndarray)]
    return {"steps": int(round(duration / dt)) if dt else 0,
            "sites": len(_arg(args, kwargs, 0, "ensemble")),
            "trace_bytes": sum(a.nbytes for a in arrays)}


# Work counts taken at a layer boundary: (args, kwargs, result) -> counts.
COUNTERS = {
    "cli.write_csv": lambda a, k, r: {
        "rows": len(_arg(a, k, 2, "columns")[0]),
        "bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "steady_state.profile_value": lambda a, k, r: {
        "points": getattr(_arg(a, k, 1, "delta"), "size", 1)},
    "steady_state.steady_state_roots_profile": lambda a, k, r: {
        "roots": len(r.roots)},
    "dynamics.ring_up": _ring_up_counts,
    "measure.count_monte_carlo": lambda a, k, r: {"draws": int(r.counts.size)},
    "measure.averaged_counts": lambda a, k, r: {
        "draws": len(r[0]) * int(_arg(a, k, 5, "n_average"))},
    "measure.trigger_sequence": lambda a, k, r: {
        "bins": int(r.counts.counts.size)},
    "measure.windowed_fourier_amplitude": lambda a, k, r: {
        "windows": len(r.amplitudes)},
    "measure.decay_fit": lambda a, k, r: {"reliable": int(r.reliable)},
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts", "request")

    def __init__(self, name, parent, start, end=0.0, counts=None, request=None):
        self.name, self.parent = name, parent
        self.start, self.end, self.counts = start, end, counts
        self.request = request

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; spans nest by call, parent = caller span.

    Spans recorded while ``request`` holds a value carry it, so the spans of
    one pass share an identifier.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.request = None
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, time.perf_counter(),
                        request=self.request)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> dict:
        """Wrap every public function of the layer modules at every binding.

        Returns {qualified name: number of bindings patched}.
        """
        wrappers, names = {}, {}
        for layer in LAYERS:
            mod = importlib.import_module(f"cavkerr.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    names[id(obj)] = f"{layer}.{attr}"
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        patched = defaultdict(int)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cavkerr" and not mod_name.startswith("cavkerr."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._restore.append((vars(mod), attr, val))
                    setattr(mod, attr, wrappers[id(val)])
                    patched[names[id(val)]] += 1
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in wrappers:
                            self._restore.append((val, key, item))
                            val[key] = wrappers[id(item)]
                            patched[names[id(item)]] += 1
        return dict(patched)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            target[key] = original
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,request,name,start_s,end_s\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s.parent},{s.request},{s.name},"
                         f"{s.start!r},{s.end!r}\n")


def self_times(spans: list[Span], offset: int = 0) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    ``spans`` may be a slice of a longer list starting at index ``offset``;
    parents outside the slice are ignored.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent >= offset:
            children[s.parent - offset].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def layer_metrics(spans: list[Span], offset: int = 0) -> dict:
    """Per-layer metrics of one pass from its spans (see GLOSSARY.md)."""
    selfs = self_times(spans, offset)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    counts = defaultdict(lambda: defaultdict(int))
    durations = defaultdict(list)
    layer_s = defaultdict(float)
    for i, s in enumerate(spans):
        calls[s.name] += 1
        total[s.name] += s.duration
        self_s[s.name] += selfs[i]
        durations[s.name].append(s.duration)
        for k, v in (s.counts or {}).items():
            counts[s.name][k] += v
        layer = s.name.split(".", 1)[0]
        p = s.parent - offset
        if not (0 <= p < len(spans) and spans[p].name.startswith(layer + ".")):
            layer_s[layer] += s.duration     # outermost span of its layer

    def ratio(a, b):
        return a / b if b else 0.0

    def pct_us(name, q):
        d = durations.get(name)
        return float(np.percentile(d, q) * 1e6) if d else 0.0

    roots = "steady_state.steady_state_roots_profile"
    ring = "dynamics.ring_up"
    shift = "lattice.collective_shift_from_displacements"
    ring_site_steps = counts[ring]["steps"] * counts[ring]["sites"]
    return {
        "cli.config_s": total["cli.load_config"] + total["cli.build_system"],
        "cli.write_s": total["cli.write_csv"],
        "cli.rows_written": counts["cli.write_csv"]["rows"],
        "cli.bytes_written": counts["cli.write_csv"]["bytes"],
        "params.s": layer_s["params"],
        "params.calls": sum(n for k, n in calls.items()
                            if k.startswith("params.")),
        "steady_state.roots.calls": calls[roots],
        "steady_state.roots.self_s": self_s[roots],
        "steady_state.roots.p50_us": pct_us(roots, 50),
        "steady_state.roots.p99_us": pct_us(roots, 99),
        "steady_state.profile.points":
            counts["steady_state.profile_value"]["points"],
        "steady_state.profile.self_s": self_s["steady_state.profile_value"],
        "steady_state.evals_per_point": ratio(
            counts["steady_state.profile_value"]["points"], calls[roots]),
        "steady_state.roots_per_point": ratio(counts[roots]["roots"],
                                              calls[roots]),
        "steady_state.scan.self_s": self_s["steady_state.lineshape_scan"],
        "steady_state.folds.calls": calls["steady_state.fold_points"],
        "steady_state.folds.s": total["steady_state.fold_points"],
        "steady_state.threshold.s": total["steady_state.bistability_threshold"],
        "lattice.build_s": total["lattice.build_lattice"],
        "lattice.shift.calls": calls[shift],
        "lattice.shift.self_s": self_s[shift],
        "lattice.shift.us_per_call": ratio(total[shift] * 1e6, calls[shift]),
        "dynamics.ring_up.self_s": self_s[ring],
        "dynamics.ring_up.steps": counts[ring]["steps"],
        "dynamics.ring_up.site_steps_per_s": ratio(ring_site_steps,
                                                   total[ring]),
        "dynamics.ring_up.trace_bytes": counts[ring]["trace_bytes"],
        "dynamics.sweep.self_s": self_s["dynamics.quasi_static_sweep"],
        "measure.counts.s": (total["measure.count_monte_carlo"]
                             + total["measure.averaged_counts"]),
        "measure.counts.draws": (counts["measure.count_monte_carlo"]["draws"]
                                 + counts["measure.averaged_counts"]["draws"]),
        "measure.trigger.s": total["measure.trigger_sequence"],
        "measure.trigger.bins": counts["measure.trigger_sequence"]["bins"],
        "measure.fourier.s": total["measure.windowed_fourier_amplitude"],
        "measure.fourier.windows":
            counts["measure.windowed_fourier_amplitude"]["windows"],
        "measure.fit.s": total["measure.decay_fit"],
        "measure.fit.reliable_ratio": ratio(
            counts["measure.decay_fit"]["reliable"],
            calls["measure.decay_fit"]),
    }


# Counts that repeat exactly for identical inputs.
REPEATABLE = ("steady_state.roots.calls", "steady_state.profile.points",
              "steady_state.evals_per_point", "dynamics.ring_up.steps",
              "lattice.shift.calls", "measure.counts.draws",
              "measure.trigger.bins", "cli.rows_written", "cli.bytes_written")

# Unit and direction of every per-layer metric a traced run reports.
PER_LAYER = {
    "cli.config_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.rows_written": ("count", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "params.s": ("s", "lower"),
    "params.calls": ("count", "lower"),
    "steady_state.roots.calls": ("count", "lower"),
    "steady_state.roots.self_s": ("s", "lower"),
    "steady_state.roots.p50_us": ("us", "lower"),
    "steady_state.roots.p99_us": ("us", "lower"),
    "steady_state.profile.points": ("count", "lower"),
    "steady_state.profile.self_s": ("s", "lower"),
    "steady_state.evals_per_point": ("1", "lower"),
    "steady_state.roots_per_point": ("1", "lower"),
    "steady_state.scan.self_s": ("s", "lower"),
    "steady_state.folds.calls": ("count", "lower"),
    "steady_state.folds.s": ("s", "lower"),
    "steady_state.threshold.s": ("s", "lower"),
    "steady_state.max_residual": ("1", "lower"),
    "steady_state.threshold_err": ("1", "lower"),
    "lattice.build_s": ("s", "lower"),
    "lattice.shift.calls": ("count", "lower"),
    "lattice.shift.self_s": ("s", "lower"),
    "lattice.shift.us_per_call": ("us", "lower"),
    "dynamics.ring_up.self_s": ("s", "lower"),
    "dynamics.ring_up.steps": ("count", "lower"),
    "dynamics.ring_up.site_steps_per_s": ("1/s", "higher"),
    "dynamics.ring_up.trace_bytes": ("B", "lower"),
    "dynamics.sweep.self_s": ("s", "lower"),
    "dynamics.oracle_err_kappa": ("kappa", "lower"),
    "measure.counts.s": ("s", "lower"),
    "measure.counts.draws": ("count", "lower"),
    "measure.trigger.s": ("s", "lower"),
    "measure.trigger.bins": ("count", "lower"),
    "measure.fourier.s": ("s", "lower"),
    "measure.fourier.windows": ("count", "lower"),
    "measure.fit.s": ("s", "lower"),
    "measure.fit.reliable_ratio": ("1", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.count_mismatches": ("count", "lower"),
}

# The traced functions the per-layer metrics read, with a workload that
# calls each.  measure.count_monte_carlo (single-repetition counting) is
# read too, but no workload reaches it.
EXERCISED_BY = {
    "cli.main": "lineshape",
    "cli.load_config": "lineshape",
    "cli.build_system": "lineshape",
    "cli.write_csv": "trigger_shots",
    "params.beta_parameter": "lineshape",
    "steady_state.steady_state_roots_profile": "lineshape",
    "steady_state.profile_value": "lineshape",
    "steady_state.lineshape_scan": "lineshape",
    "steady_state.fold_points": "hysteresis",
    "steady_state.bistability_threshold": "hysteresis",
    "dynamics.quasi_static_sweep": "hysteresis",
    "lattice.build_lattice": "ringdown",
    "lattice.collective_shift_from_displacements": "ringdown",
    "dynamics.ring_up": "ringdown",
    "measure.averaged_counts": "ringdown",
    "measure.windowed_fourier_amplitude": "ringdown",
    "measure.decay_fit": "ringdown",
    "measure.trigger_sequence": "trigger_shots",
}
