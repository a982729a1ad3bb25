"""The tracer: spans, self time, counters, and targets that have disappeared."""

from __future__ import annotations

import pytest

import tracing
from hyperheat import evolution, oracle, transform


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [[tracer._name_id("a"), 0.0, 10.0, -1],
                       [tracer._name_id("b"), 1.0, 4.0, 0],
                       [tracer._name_id("b"), 5.0, 7.0, 0]]
    totals = tracer.span_totals()
    assert totals["a"] == {"total": 10.0, "self": 5.0, "calls": 1.0}
    assert totals["b"] == {"total": 5.0, "self": 5.0, "calls": 2.0}


def test_install_traces_calls_inside_the_library_and_uninstalls():
    original = evolution.propagator
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        config = evolution.SolveConfig(n=16, omega=2.0, omega_prime=1.0, boundary=oracle.gaussian(1.0, 1.0),
                                       times=(0.5,), xs=(0.0, 0.5))
        tracer.wrap(evolution.solve, "op")(config)
        tracer.end_operation()
    finally:
        uninstall()
    assert evolution.propagator is original
    assert not tracer.absent
    metrics, absent = tracer.metrics(1)
    assert absent == []
    assert metrics["evolution.solve.calls"]["value"] == 1
    assert metrics["evolution.propagator.calls"]["value"] == 1   # called by name inside solve
    assert metrics["oracle.boundary.points"]["value"] == 64      # samples j/n in [-2, 2)
    assert metrics["grid.GridFunction.bytes_copied"]["value"] == 16 * 2 * 16**2 * metrics["grid.GridFunction.calls"]["value"]
    names = [tracer.names[s[0]] for s in tracer.spans]
    parents = [tracer.names[tracer.spans[s[3]][0]] if s[3] >= 0 else None for s in tracer.spans]
    assert ("evolution.propagator", "evolution.solve") in zip(names, parents)


def test_missing_target_is_reported_absent(monkeypatch):
    """A public name that has been deleted (here ``propagator``) does not fail the run."""
    monkeypatch.delattr(evolution, "propagator")
    tracer = tracing.Tracer()
    tracing.install(tracer)()
    metrics, absent = tracer.metrics(1)
    assert absent == ["evolution.propagator.s", "evolution.propagator.calls"]
    assert "evolution.solve.calls" in metrics


def test_cache_metrics_absent_once_the_cache_is_gone(monkeypatch):
    assert tracing.cache_info() is not None
    monkeypatch.setattr(transform, "spectral_symbols", transform.spectral_symbols.__wrapped__)
    tracer = tracing.Tracer()
    tracer.count_cache(tracing.cache_info(), tracing.cache_info())
    _, absent = tracer.metrics(1)
    assert absent == ["transform.spectral_symbols.cache_hits", "transform.spectral_symbols.cache_misses"]


def test_useful_ratio_counts_distinct_quadrature_points():
    tracer = tracing.Tracer()
    bc = oracle.bump(0.0, 1.0)
    uninstall = tracing.install(tracer)
    try:
        for _ in range(3):
            oracle.classical_solution(bc, 0.5, 0.25)
        tracer.end_operation()
    finally:
        uninstall()
    metrics, _ = tracer.metrics(1)
    assert metrics["oracle.classical_solution.calls"]["value"] == 3
    assert metrics["oracle.classical_solution.useful_ratio"]["value"] == pytest.approx(1 / 3)
    assert 0 < metrics["oracle.boundary.s"]["value"] <= metrics["oracle.classical_solution.s"]["value"]
