#!/usr/bin/env python3
"""Compare the CLI outputs of the working tree with those of a git revision.

Usage: python tools/compare_outputs.py REV

``REV`` is exported with ``git archive`` into a temporary directory.  A
fixed list of ``hyperheat`` commands (the README's, the pricing surface,
kernel tables, ``validate``, ``converge`` sweeps, and a ``solve`` and a
``converge`` of a complex ``sampled:`` file) runs in both trees, each in a
fresh interpreter with the CSV on standard output.  For each command one
line says ``identical``, or names each column that changed with its count
of changed cells and its largest ``|delta|``; differences in standard
error or exit code follow.  The exit status is 0 when every output is
identical, else 1.
"""

from __future__ import annotations

import csv
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# {data} is replaced by the path of the complex sampled file
COMMANDS = (
    "validate --n 8 --seed 42",
    "solve --n 256 --omega 4 --omega-prime 3 --g gaussian:1,1 --times 0.5 --xs=-2:2:41",
    "kernel --n 256 --omega-prime 3 --times 0.5 --xs 0,1,2",
    "converge --n-list 128,256,512 --g gaussian:1,1 --times 0.5 --xs=-2:2:41",
    "rates",
    "solve --n 128 --times 0.25:2:8 --xs=-4:4:2001",
    "kernel --n 256 --times 0.25,1 --xs=-3:3:61",
    "kernel --n 8 --omega-prime 8 --times 0.5 --xs=-1:1:5",
    "validate --n 16 --seed 3",
    "converge --n-list 64,128,256 --g bump:0,1 --times 0.5 --xs=-2:2:7",
    "converge --n-list 64,128,256 --g indicator:-1,1 --times 0.5 --xs=-2:2:7",
    "solve --n 128 --g sampled:{data} --times 0.5,1 --xs=-2:2:41",
    "converge --n-list 64,128,256 --g sampled:{data} --times 0.5 --xs=-2:2:7",
)


def write_complex_data(path: Path) -> None:
    """801 samples of ``e^{-x^2} - 0.5 i x e^{-x^2}`` on [-4, 4], as ``x,re,im`` lines."""
    xs = [-4 + 8 * i / 800 for i in range(801)]
    path.write_text("\n".join(f"{x!r},{math.exp(-x * x)!r},{-0.5 * x * math.exp(-x * x)!r}"
                              for x in xs), encoding="utf-8")


def export(rev: str, dest: Path) -> None:
    """The files of ``rev`` under ``dest``, by ``git archive``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run(tree: Path, argv: list[str], cwd: Path) -> tuple[int, str, str]:
    """Exit code, standard output and standard error of ``hyperheat ARGV`` from ``tree/src``;
    the tree's path in standard error (warnings name their source file) reads ``<tree>``."""
    proc = subprocess.run([sys.executable, "-m", "hyperheat.cli", *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(tree / "src")),
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr.replace(str(tree), "<tree>")


def compare_csv(old: str, new: str) -> list[str]:
    """One entry per column that differs: its changed-cell count and, where both cells
    are numbers, the largest ``|delta|``; or one entry when the shapes differ."""
    a, b = (list(csv.reader(io.StringIO(text))) for text in (old, new))
    if not a or not b or a[0] != b[0]:
        return [f"header {a[0] if a else []} -> {b[0] if b else []}"]
    if len(a) != len(b) or any(len(r) != len(s) for r, s in zip(a, b)):
        return [f"shape {len(a) - 1} rows -> {len(b) - 1} rows"]
    report = []
    for c, name in enumerate(a[0]):
        changed, delta = 0, 0.0
        for r, s in zip(a[1:], b[1:]):
            if r[c] != s[c]:
                changed += 1
                try:
                    delta = max(delta, abs(float(r[c]) - float(s[c])))
                except ValueError:
                    delta = math.nan
        if changed:
            report.append(f"{name}: {changed} cells changed, max |delta| {delta:.3g}")
    return report


def compare(old: tuple[int, str, str], new: tuple[int, str, str]) -> list[str]:
    """Lines describing how the run ``new`` differs from ``old``; empty when identical."""
    lines = []
    if old[1] != new[1]:
        lines.append("; ".join(compare_csv(old[1], new[1])))
    if old[2] != new[2]:
        lines.append("stderr differs:")
        lines += [f"  - {line}" for line in old[2].splitlines()]
        lines += [f"  + {line}" for line in new[2].splitlines()]
    if old[0] != new[0]:
        lines.append(f"exit code {old[0]} -> {new[0]}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        export(argv[0], base)
        data = Path(tmp) / "complex.csv"
        write_complex_data(data)
        same = True
        for command in COMMANDS:
            args = command.format(data=data).split()
            diff = compare(run(base, args, Path(tmp)), run(ROOT, args, Path(tmp)))
            same = same and not diff
            print(f"{command}: {'identical' if not diff else diff[0]}")
            for line in diff[1:]:
                print(f"    {line}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
