"""hyperheat benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload solve-band --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
Each workload runs in worker processes (``worker.py``) as a closed loop.
With ``--trace 0`` the last line of standard output holds the end-to-end
metrics (``setup_s``, ``op_p50_s``, ``peak_rss_mb``, ``max_abs_err``);
with ``--trace 1`` it holds the per-layer metrics of a traced run.  The line
before it records the environment (BLAS threads, nproc, versions).  See
README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import PROBE_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve-band", "solve-surface", "verify-sweep")

# Set-up samples per untraced run: cold processes before and after the
# measuring one, so that the samples are spread over the whole run; the
# measuring process's own cold start is one more sample.
SETUP_BEFORE, SETUP_AFTER = 2, 2
# BLAS threads given to numpy: one, so that runs on a shared machine stay steady.
BLAS_THREADS = 1
# Whole-run budget; the benchmark must end within 180 s.
BUDGET_S = 170.0


def _worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("HYPERHEAT_THREADS", "PYTHONPATH")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _spawn(args: argparse.Namespace, deadline: float, *extra: str) -> tuple[dict, float]:
    """Run one worker to its end; return its result and the monotonic time it was started."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=_worker_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - started, 1.0))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1]), started


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        p.error("--seconds must lie in [1, 120]")
    if not (ROOT / "src" / "hyperheat").is_dir():
        print(f"no hyperheat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S

    try:
        if args.trace:
            main_run, _ = _spawn(args, deadline, "--seconds", str(args.seconds), "--trace", "1")
            runs = [main_run]
        else:
            runs = [_spawn(args, deadline, "--setup-only") for _ in range(SETUP_BEFORE)]
            runs.append(_spawn(args, deadline, "--seconds", str(args.seconds)))
            runs += [_spawn(args, deadline, "--setup-only") for _ in range(SETUP_AFTER)]
            setups = [run["cold_end"] - started for run, started in runs]
            runs = [run for run, _ in runs]
            main_run = runs[SETUP_BEFORE]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    info = {"workload": args.workload, "seed": args.seed, "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "numpy": main_run["numpy"], "scipy": main_run["scipy"],
            "python": sys.version.split()[0]}
    if args.trace:
        metrics = main_run["metrics"]
        info.update(absent=main_run["absent"], spans=main_run["spans"],
                    traced_ops=main_run["traced_ops"], untraced_ops=main_run["untraced_ops"])
    else:
        errors = [r["max_abs_err"] for r in runs if r["max_abs_err"] is not None]
        if "op_p50_s" not in main_run or not errors:
            print("benchmark failed: no operation completed", file=sys.stderr)
            return 1
        metrics = {
            # At reference speed by the run's probe median, as op_p50_s: a slow
            # phase of the machine that covers a whole run slows set-up too.
            "setup_s": {"value": statistics.median(setups) * PROBE_REF_S / main_run["probe_s"], "unit": "s"},
            "op_p50_s": {"value": main_run["op_p50_s"], "unit": "s"},
            "peak_rss_mb": {"value": main_run["peak_rss_mb"], "unit": "MB"},
            "max_abs_err": {"value": max(errors), "unit": "1"},
        }
        info.update(operations=main_run["operations"], wall_op_p50_s=main_run["wall_op_p50_s"],
                    probe_s=main_run["probe_s"], wall_setup_s=statistics.median(setups),
                    setup_samples=setups)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
