"""The closed loop: a check that raises marks the run wrong, an operation that raises counts as failed."""

from __future__ import annotations

import tracing
import worker
from workloads import Workload


def _loop(operate, check, tmp_path) -> worker.Loop:
    return worker.Loop(Workload("fake", [0], operate, check), tmp_path)


def test_check_that_cannot_read_its_output_marks_the_run_wrong(tmp_path):
    def check(inp, out):
        raise FileNotFoundError(out)

    loop = _loop(lambda inp, workdir: workdir / "missing.csv", check, tmp_path)
    assert loop.once() is not None
    assert (loop.attempted, loop.failed, loop.correct) == (1, 0, False)


def test_operation_that_raises_fails_and_closes_its_traced_operation(tmp_path):
    tracer = tracing.Tracer()

    def operate(inp, workdir):
        tracer.quadrature_points.add(("g", 0.5, 0.0))
        raise ValueError("boom")

    loop = _loop(operate, lambda inp, out: 0.0, tmp_path)
    assert loop.once(tracer) is None
    assert (loop.attempted, loop.failed, loop.correct) == (1, 1, True)
    assert not tracer.quadrature_points
    assert tracer.counters["oracle.classical_solution.distinct"] == 1


def test_at_reference_speed_scales_by_the_probe():
    assert worker.at_reference_speed([1.0, 2.0, 3.0], [2 * worker.PROBE_REF_S]) == 1.0
