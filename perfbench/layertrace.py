"""Per-layer timers and counters around quantred's public functions.

The tracer replaces a function by a timing wrapper in every quantred module
that holds it, so functions imported by name elsewhere (gauss_segment,
adaptive_line_quadrature) are timed wherever they are called.  Times are
inclusive wall seconds; a call nested inside a call of the same name is not
counted twice.  Nothing under src/ changes: `install` patches module
attributes and `uninstall` restores them.
"""

import os
import sys
import time
from collections import defaultdict


def _method(args, kwargs, pos):
    """'mc' or the deterministic route name of a quantred quad argument."""
    quad = kwargs.get("quad", args[pos] if len(args) > pos else None)
    if quad is None:
        return "exact"
    method = quad.get("method", "exact") if isinstance(quad, dict) else quad.method
    return "mc" if method == "mc" else "exact"


def _steps(result, args, kwargs):
    return result.steps


def _sample_points(result, args, kwargs):
    return len(result[0])


def _entries(result, args, kwargs):
    return result.size


def _rows(result, args, kwargs):
    return len(result)


def _file_bytes(result, args, kwargs):
    return os.path.getsize(args[0])


# (module, function, metric name, counter suffix, counter, route splitter)
LAYERS = (
    ("strata", "analyze", "strata.analyze", None, None, None),
    ("strata", "kirwan_flow", "strata.kirwan_flow", "steps", _steps, None),
    ("strata", "sample_stratum", "strata.sample_stratum", "points", _sample_points, None),
    ("strata", "slice_embedding_jacobian", "strata.slice_embedding_jacobian", "calls", None, None),
    ("reduction", "reduced_gram", "reduction.reduced_gram", None, None, lambda a, kw: _method(a, kw, 4)),
    ("sections", "gram_upstairs", "sections.gram_upstairs", None, None, lambda a, kw: _method(a, kw, 4)),
    ("sections", "halfform_factor", "sections.halfform_factor", None, None, None),
    ("sections", "evaluate_monomials", "sections.evaluate_monomials", "entries", _entries, None),
    ("asymptotics", "norm_split_consistency", "asymptotics.norm_split_consistency", None, None, None),
    ("asymptotics", "density_I", "asymptotics.density_I", None, None, None),
    ("asymptotics", "density_J", "asymptotics.density_J", None, None, None),
    ("asymptotics", "residual_II", "asymptotics.residual_II", None, None, None),
    ("asymptotics", "unitarity_defect", "asymptotics.unitarity_defect", None, None, None),
    ("actions", "jacobian_tau_batch", "actions.jacobian_tau_batch", "points", _rows, None),
    ("integrate", "adaptive_line_quadrature", "integrate.adaptive_line_quadrature", "calls", None, None),
    ("integrate", "gauss_segment", "integrate.gauss_segment", "calls", None, None),
    ("cli", "_write_json", "cli.output", "bytes", _file_bytes, None),
    ("cli", "_write_csv", "cli.output", "bytes", _file_bytes, None),
)

# the routes each split layer reports, so every metric is present on every run
ROUTES = {"reduction.reduced_gram": ("grid", "mc"), "sections.gram_upstairs": ("exact", "mc")}
ROUTE_NAMES = {("reduction.reduced_gram", "exact"): "grid"}


def metric_names():
    """Every per-layer metric as (name, unit), in a stable order."""
    out = [("body.s", "s")]
    for _, _, name, suffix, _, split in LAYERS:
        if split is None:
            entries = [(f"{name}.s", "s")]
        else:
            entries = [(f"{name}.{route}.s", "s") for route in ROUTES[name]]
        if suffix:
            entries.append((f"{name}.{suffix}", "B" if suffix == "bytes" else "count"))
        for entry in entries:
            if entry not in out:
                out.append(entry)
    return out


class LayerTracer:
    """Accumulates inclusive seconds and counts per layer until `reset`."""

    def __init__(self):
        self.totals = defaultdict(float)
        self._active = defaultdict(int)
        self._saved = []

    def reset(self):
        self.totals = defaultdict(float)

    def snapshot(self):
        return {name: self.totals.get(name, 0.0) for name, _ in metric_names()}

    def _wrap(self, fn, name, suffix, counter, split):
        tracer = self

        def traced(*args, **kwargs):
            key = name
            if split is not None:
                route = split(args, kwargs)
                key = f"{name}.{ROUTE_NAMES.get((name, route), route)}"
            outer = tracer._active[key] == 0
            tracer._active[key] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._active[key] -= 1
            if outer:
                tracer.totals[f"{key}.s"] += time.perf_counter() - start
            if suffix == "calls":
                tracer.totals[f"{name}.calls"] += 1
            elif counter is not None:
                tracer.totals[f"{name}.{suffix}"] += counter(result, args, kwargs)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "quantred" or n.startswith("quantred.")]
        for modname, fname, name, suffix, counter, split in LAYERS:
            fn = getattr(sys.modules[f"quantred.{modname}"], fname)
            wrapper = self._wrap(fn, name, suffix, counter, split)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []
