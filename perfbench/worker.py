"""One workload process: import hyperheat, run the cold operation, then a closed loop.

Started by ``run.py``; prints one JSON object as its last line of standard
output.  ``--setup-only`` stops after the cold operation (a set-up sample).
With ``--trace 1`` the loop runs half its time untraced and half traced, and
the process reports per-layer metrics instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
# Operation times are reported at the machine speed at which probe() takes
# this long (about its median on the 2-vCPU machine the figures in README.md
# come from): a median operation time is scaled by PROBE_REF_S / (the
# probe's median over the same stretch of the run).
PROBE_REF_S = 0.045


def _import_hyperheat() -> float:
    """Import the library from the checkout's ``src``; return the import time."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import hyperheat
    import hyperheat.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    if Path(hyperheat.__file__).resolve().parent != (SRC / "hyperheat").resolve():
        raise ImportError(f"hyperheat imported from {hyperheat.__file__}, not from {SRC}")
    return elapsed


def probe() -> float:
    """Wall time of a fixed piece of the same kinds of work the operations do.

    Interpreted Python and a numpy complex ``exp`` feeding a matrix-vector
    product, about 40 ms in all.  Wall time on a shared machine drifts in
    phases of 30 s and more; :func:`at_reference_speed` scales operation
    times by the inverse of this probe's median, which takes out much of
    that drift.
    """
    import numpy as np

    t0 = time.perf_counter()
    s = 0
    for k in range(250_000):
        s += k * k
    phases = np.outer(np.arange(256.0), np.arange(-768.0, 768.0)) * (np.pi / 65536)
    np.exp(-1j * phases) @ np.ones(1536, dtype=complex)
    return time.perf_counter() - t0


def at_reference_speed(op_times: list[float], probes: list[float]) -> float:
    """Median operation time at the speed at which :func:`probe` takes ``PROBE_REF_S``."""
    return statistics.median(op_times) * PROBE_REF_S / statistics.median(probes)


class Loop:
    """Closed loop: the next operation starts when the previous one (and its check) ends."""

    def __init__(self, workload, workdir: Path) -> None:
        self.workload, self.workdir = workload, workdir
        self.index = 0
        self.attempted = self.failed = 0
        self.correct = True
        self.errors: list[float] = []
        self.probes: list[float] = []

    def once(self, tracer=None) -> float | None:
        """Run and check one operation; return its wall time, or None if it raised."""
        inp = self.workload.input(self.index)
        self.index += 1
        self.attempted += 1
        # The traced run gives every operation a root span named "op".
        operate = self.workload.operate if tracer is None else tracer.wrap(self.workload.operate, "op")
        t0 = time.perf_counter()
        try:
            out = operate(inp, self.workdir)
            elapsed = time.perf_counter() - t0
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        finally:
            if tracer:
                tracer.end_operation()
        if tracer:
            tracer.counters["cli.csv_bytes"] += sum(p.stat().st_size for p in self.workdir.iterdir())
        # Any exception from a check (a missing or unreadable file too) means a wrong output.
        try:
            self.errors.append(self.workload.check(inp, out))
        except Exception as exc:
            self.correct = False
            print(f"check failed on {self.workload.name} operation {self.index - 1}: {exc}",
                  file=sys.stderr)
        return elapsed

    def run_for(self, seconds: float, tracer=None) -> list[float]:
        """Operation wall times over ``seconds``; a probe follows every operation."""
        times = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            t = self.once(tracer)
            if t is not None:
                times.append(t)
            self.probes.append(probe())
        return times


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import_s = _import_hyperheat()
    import tracemalloc

    import numpy
    import scipy

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        loop = Loop(workload, workdir)
        if args.trace:
            tracemalloc.start()
        loop.once()
        cold_end = time.monotonic()
        result = {"cold_end": cold_end, "import_s": import_s,
                  "numpy": numpy.__version__, "scipy": scipy.__version__}
        if args.trace:
            # Python-level peak of the cold operation, cache fill included.
            result["tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
        if not args.setup_only and not args.trace:
            op_times = loop.run_for(args.seconds)
            if op_times:
                result.update(operations=len(op_times), op_p50_s=at_reference_speed(op_times, loop.probes),
                              wall_op_p50_s=statistics.median(op_times),
                              probe_s=statistics.median(loop.probes))
        elif args.trace:
            untraced = loop.run_for(args.seconds / 2)
            split = len(loop.probes)
            tracer = tracing.Tracer()
            before = tracing.cache_info()
            uninstall = tracing.install(tracer)
            try:
                traced = loop.run_for(args.seconds / 2, tracer)
            finally:
                uninstall()
            tracer.count_cache(before, tracing.cache_info())
            metrics, absent = tracer.metrics(max(len(traced), 1))
            metrics["hyperheat.import_s"] = {"value": import_s, "unit": "s"}
            metrics["memory.tracemalloc_peak_mb"] = {"value": result["tracemalloc_peak_mb"], "unit": "MB"}
            if untraced and traced:
                # Each half at reference speed by its own probes, so drift between the halves cancels.
                overhead = (at_reference_speed(traced, loop.probes[split:])
                            - at_reference_speed(untraced, loop.probes[:split]))
                metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            else:
                absent.append("trace.overhead_s")
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            tracer.write(spans_path)
            result.update(metrics=metrics, absent=absent, spans=str(spans_path.relative_to(HERE.parent)),
                          traced_ops=len(traced), untraced_ops=len(untraced))
        result.update(attempted=loop.attempted, failed=loop.failed, correct=loop.correct,
                      max_abs_err=max(loop.errors, default=None), peak_rss_mb=_peak_rss_mb())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
