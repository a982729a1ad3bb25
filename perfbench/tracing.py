"""Spans around the public functions of ``hyperheat``, recorded from outside the library.

:func:`install` wraps each function or method named in ``TARGETS`` and
replaces every reference to it in the loaded ``hyperheat`` modules, so calls
made inside the library are traced too.  A span records its name, start,
end and the span that caused it; spans stay in memory and are written out
by :meth:`Tracer.write` when the run ends.  A span's self time is its
duration minus the durations of its children (calls are sequential, so the
children never overlap).

A target that no longer exists (a public name removed, or an ``lru_cache``
taken off) is skipped, and the metrics that depend on it are reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

# (module, attribute, layer name, record spans?, per-call hook).  Hooks add
# counters; GridFunction is constructed thousands of times per operation,
# so it is counted but gets no spans.
TARGETS = (
    ("hyperheat.evolution", "solve", "evolution.solve", True, None),
    ("hyperheat.evolution", "propagator", "evolution.propagator", True, None),
    ("hyperheat.evolution", "Window.__init__", "evolution.Window", True, None),
    ("hyperheat.evolution", "kernel", "evolution.kernel", True, None),
    ("hyperheat.evolution", "spectral_hat", "evolution.spectral_hat", True, None),
    ("hyperheat.transform", "spectral_symbols", "transform.spectral_symbols", True, None),
    ("hyperheat.transform", "forward", "transform.forward", True, None),
    ("hyperheat.transform", "inverse", "transform.inverse", True, None),
    ("hyperheat.transform", "boundary_corrections", "transform.boundary_corrections", True, None),
    ("hyperheat.grid", "GridFunction.__init__", "grid.GridFunction", False, "grid_function"),
    ("hyperheat.oracle", "BoundaryCondition.__call__", "oracle.boundary", True, "boundary_points"),
    ("hyperheat.oracle", "classical_solution", "oracle.classical_solution", True, "quadrature_point"),
    ("hyperheat.oracle", "BoundaryCondition.closed_form", "oracle.closed_form", True, None),
    ("hyperheat.cli", "main", "cli.main", True, None),
)

# Per-layer metric -> (unit, source, statistic).  The source is a span name
# for "total" (inclusive time), "self" and "calls", or a counter name.
SPAN_METRICS = {
    "evolution.solve.self_s": ("s", "evolution.solve", "self"),
    "evolution.solve.calls": ("count", "evolution.solve", "calls"),
    "evolution.propagator.s": ("s", "evolution.propagator", "total"),
    "evolution.propagator.calls": ("count", "evolution.propagator", "calls"),
    "evolution.Window.s": ("s", "evolution.Window", "total"),
    "evolution.kernel.self_s": ("s", "evolution.kernel", "self"),
    "evolution.kernel.calls": ("count", "evolution.kernel", "calls"),
    "evolution.spectral_hat.s": ("s", "evolution.spectral_hat", "total"),
    "transform.spectral_symbols.s": ("s", "transform.spectral_symbols", "total"),
    "transform.spectral_symbols.calls": ("count", "transform.spectral_symbols", "calls"),
    "transform.spectral_symbols.cache_hits": ("count", "transform.spectral_symbols.cache_hits", "counter"),
    "transform.spectral_symbols.cache_misses": ("count", "transform.spectral_symbols.cache_misses", "counter"),
    "transform.forward.s": ("s", "transform.forward", "total"),
    "transform.forward.calls": ("count", "transform.forward", "calls"),
    "transform.inverse.s": ("s", "transform.inverse", "total"),
    "transform.inverse.calls": ("count", "transform.inverse", "calls"),
    "transform.boundary_corrections.s": ("s", "transform.boundary_corrections", "total"),
    "transform.boundary_corrections.calls": ("count", "transform.boundary_corrections", "calls"),
    "grid.GridFunction.calls": ("count", "grid.GridFunction.calls", "counter"),
    "grid.GridFunction.bytes_copied": ("B", "grid.GridFunction.bytes_copied", "counter"),
    "oracle.boundary.s": ("s", "oracle.boundary", "total"),
    "oracle.boundary.points": ("count", "oracle.boundary.points", "counter"),
    "oracle.classical_solution.s": ("s", "oracle.classical_solution", "total"),
    "oracle.classical_solution.calls": ("count", "oracle.classical_solution", "calls"),
    "oracle.classical_solution.useful_ratio": ("1", "oracle.classical_solution.useful_ratio", "counter"),
    "oracle.closed_form.s": ("s", "oracle.closed_form", "total"),
    "oracle.closed_form.calls": ("count", "oracle.closed_form", "calls"),
    "cli.main.s": ("s", "cli.main", "total"),
    "cli.self_s": ("s", "cli.main", "self"),
    "cli.csv_bytes": ("B", "cli.csv_bytes", "counter"),
}


class Tracer:
    """In-memory span and counter store; one instance per traced run."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []      # [name id, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()    # span and counter names whose target is gone
        self.quadrature_points: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str | None, hook: Callable | None = None) -> Callable:
        """``fn`` recording a span named ``name`` (none if ``None``) and calling ``hook(args)``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        nid = None if name is None else self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args)
            if nid is None:
                return fn(*args, **kwargs)
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    # -- hooks: counters at the layer boundaries ------------------------------

    def grid_function(self, args) -> None:
        # 16 bytes x length: the copy every construction makes (computed, not measured).
        params = args[1] if len(args) > 1 else None
        self.counters["grid.GridFunction.calls"] += 1
        if params is not None:
            self.counters["grid.GridFunction.bytes_copied"] += 16 * params.space_count

    def boundary_points(self, args) -> None:
        self.counters["oracle.boundary.points"] += int(np.size(args[1]))

    def quadrature_point(self, args) -> None:
        g, t, x = args[:3]
        self.quadrature_points.add((g.label, float(t), float(x)))

    def count_cache(self, before, after) -> None:
        """Hits and misses of the ``spectral_symbols`` cache between two ``cache_info()`` readings."""
        prefix = "transform.spectral_symbols"
        if before is None or after is None:
            self.absent.update((f"{prefix}.cache_hits", f"{prefix}.cache_misses"))
            return
        self.counters[f"{prefix}.cache_hits"] += after.hits - before.hits
        self.counters[f"{prefix}.cache_misses"] += after.misses - before.misses

    def end_operation(self) -> None:
        """Close the distinct-(boundary, t, x) count of one operation."""
        self.counters["oracle.classical_solution.distinct"] += len(self.quadrature_points)
        self.quadrature_points.clear()

    # -- results ---------------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive time, self time and call count, summed over all spans."""
        if not self.spans:
            return {}
        arr = np.array(self.spans, dtype=float)
        nid, dur, parent = arr[:, 0].astype(int), arr[:, 2] - arr[:, 1], arr[:, 3].astype(int)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - child, minlength=k)
        calls = np.bincount(nid, minlength=k)
        return {name: {"total": float(total[i]), "self": float(own[i]), "calls": float(calls[i])}
                for i, name in enumerate(self.names)}

    def metrics(self, operations: int) -> tuple[dict[str, dict], list[str]]:
        """``SPAN_METRICS`` per operation, and the names of the absent ones."""
        totals = self.span_totals()
        counters = dict(self.counters)
        calls = totals.get("oracle.classical_solution", {}).get("calls", 0.0)
        # 1 when nothing was computed: no call was wasted.
        counters["oracle.classical_solution.useful_ratio"] = (
            counters.get("oracle.classical_solution.distinct", 0.0) / calls if calls else 1.0)
        out, absent = {}, []
        for metric, (unit, source, stat) in SPAN_METRICS.items():
            if source in self.absent or any(source.startswith(a + ".") for a in self.absent):
                absent.append(metric)
                continue
            if stat == "counter":
                value = counters.get(source, 0.0)
                value = value if source.endswith("useful_ratio") else value / operations
            else:
                value = totals.get(source, {}).get(stat, 0.0) / operations
            out[metric] = {"value": value, "unit": unit}
        return out, absent

    def write(self, path: Path) -> None:
        """All spans as gzip CSV: name, start and end (s from tracer start), parent row."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent\n")
            for nid, start, end, parent in self.spans:
                fh.write(f"{self.names[nid]},{start - self.origin:.9f},{end - self.origin:.9f},{parent}\n")


def _resolve(module_name: str, attr: str) -> tuple[Any, str, Any]:
    """``(owner, final attribute name, current value)``.

    A method must be defined by the class itself, not inherited (a class
    without its own ``__init__`` would otherwise hand back ``object.__init__``).
    Raises ImportError, AttributeError or KeyError when the target is gone.
    """
    owner: Any = importlib.import_module(module_name)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    value = vars(owner)[last] if isinstance(owner, type) else getattr(owner, last)
    return owner, last, value


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target that exists; return a function that undoes the wrapping."""
    undo: list[tuple[Any, str, Any]] = []
    for module_name, attr, name, spans, hook_name in TARGETS:
        try:
            owner, last, original = _resolve(module_name, attr)
        except (ImportError, AttributeError, KeyError):
            tracer.absent.add(name)
            continue
        hook = getattr(tracer, hook_name) if hook_name else None
        wrapped = tracer.wrap(original, name if spans else None, hook)
        if isinstance(owner, type):
            setattr(owner, last, wrapped)
            undo.append((owner, last, original))
            continue
        # The same function object may be bound under its name in several
        # hyperheat modules (``from .transform import spectral_symbols``).
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hyperheat" or mod_name.startswith("hyperheat.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, original))

    def uninstall() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall


def cache_info():
    """``cache_info()`` of ``transform.spectral_symbols``, or ``None`` once the cache is gone."""
    try:
        fn = importlib.import_module("hyperheat.transform").spectral_symbols
    except (ImportError, AttributeError):
        return None
    if not hasattr(fn, "cache_info"):      # the traced wrapper: look one layer down
        fn = getattr(fn, "__wrapped__", fn)
    info = getattr(fn, "cache_info", None)
    return info() if callable(info) else None
