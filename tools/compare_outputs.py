#!/usr/bin/env python3
"""Compare the CLI outputs of the working tree with those of a git revision.

Usage: python tools/compare_outputs.py REV

``REV`` is exported with ``git archive`` into a temporary directory.  A
fixed list of ``hyperheat`` commands (the README's, the pricing surface,
kernel tables, ``validate``, ``converge`` sweeps, a ``solve`` and a
``converge`` of a complex ``sampled:`` file, a ``kernel`` and that file's
``solve`` at ``omega' = n`` on 5 and on 21 points, so on the factored
matrix and on the chirp-z query, and a ``solve`` and a ``kernel`` at a
point so far out that the closed forms' squares overflow, and the
pricing surface's 8 x 2001 rows without the oracle columns, for
``indicator:-1,1``, and with a non-zero imaginary column, for the complex
file, and a ``solve`` of 16 non-uniform points at 2 times at n=512, on
the factored matrix, and a ``solve`` of 41 uniform points at n=4096 and a
``kernel`` of 61 at n=2048, on the factored matrix too, as fewer points
than ``ceil(sqrt(|band|))``, and ``validate`` at ``--n 1 --seed 0``,
the smallest grid, and at ``--n 16 --seed 921``, every grid, and a
``kernel`` of 8 x 2001 rows at ``omega' = n = 8``, whose table is large
enough for the vectorised float formatter and holds a non-zero imaginary
column, negative cells, values above 10 and exponent notation, and a
``solve`` of ``gaussian:1,1e308``, whose ``1 + 4bt`` overflows in the
closed form, and a ``solve`` of 9,001 points at one time, whose table
the vectorised formatter writes in blocks that end inside the time and
a last block that is partly filled) runs in
both trees, each in a fresh interpreter with the CSV on standard
output.  So do two library scripts, :data:`REPEATED_SOLVE` and
:data:`INTERLEAVED_SOLVES`: the CLI solves each grid once per process,
and only a repeated solve reaches the samples-to-table operator.  They
print the table of solve ``|times| |xs|``, the last on the spectral
route, beside that of solve ``|times| |xs| + 1``, the first on the
operator's, so a switch one solve early or late changes their output.  For each command one line says
``identical``, or names each column that changed with its count of changed
cells and its largest ``|delta|``; differences in standard error (where
the line numbers of ``cli.py`` read ``cli.py:<line>``) or exit code
follow.  A last line gives the size of ``src/hyperheat`` in both trees:
its ``wc -l`` lines and its code lines, those that hold a token other
than a comment and are not part of a docstring (:func:`code_lines`).  The
exit status is 0 when every output is identical, else 1.
"""

from __future__ import annotations

import ast
import csv
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import tokenize
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
    "solve --n 8 --omega 2 --omega-prime 8 --g sampled:{data} --times 0.25 --xs=-1:1:5",
    "kernel --n 8 --omega-prime 8 --times 0.5 --xs=-1:1:21",
    "solve --n 8 --omega 2 --omega-prime 8 --g sampled:{data} --times 0.25 --xs=-1:1:21",
    "solve --n 64 --xs=1e200,0",
    "kernel --n 64 --xs=1e200,0",
    "solve --n 128 --g indicator:-1,1 --times 0.25:2:8 --xs=-4:4:2001",
    "solve --n 128 --g sampled:{data} --times 0.25:2:8 --xs=-4:4:2001",
    "solve --n 512 --times 0.5,1 --xs=-3,-2.6,-2.1,-1.7,-1.2,-0.9,-0.5,-0.2,0,0.15,0.4,0.8,1.3,1.9,2.6,3.4",
    "solve --n 4096 --times 0.5,1 --xs=-2:2:41",
    "kernel --n 2048 --times 0.25,1 --xs=-3:3:61",
    "validate --n 1 --seed 0",
    "validate --n 16 --seed 921",
    "kernel --n 8 --omega-prime 8 --times 0.25:2:8 --xs=-1:1:2001",
    "solve --g gaussian:1,1e308 --times 0.5 --xs=-2:2:5",
    "solve --n 64 --times 0.5 --xs=-3:3:9001",
)

# solve-band's configuration (n=512, omega=4, omega'=3, times 0.5 and 1, 41 points on
# [-2, 2], gaussian:1,1) solved |xs| |times| + 1 times, so that the last solve builds and
# applies the samples-to-table operator; the tables of the last two solves, the last on the
# spectral route and the first on the operator's, on standard output, as CSV
REPEATED_SOLVE = """
import numpy as np
import hyperheat
config = hyperheat.SolveConfig(n=512, omega=4.0, omega_prime=3.0, boundary=hyperheat.gaussian(1.0, 1.0),
                               times=(0.5, 1.0), xs=tuple(np.linspace(-2.0, 2.0, 41)))
cells = len(config.times) * len(config.xs)
tables = [hyperheat.solve(config).u for _ in range(cells + 1)][-2:]
print("solve,t,x,u_re,u_im")
for call, u in zip((cells, cells + 1), tables):
    for t, re, im in zip(config.times, u.real.tolist(), u.imag.tolist()):
        for x, a, b in zip(config.xs, re, im):
            print(f"{call},{t!r},{x!r},{a!r},{b!r}")
"""

# solve-band's configuration and the same at n=256, solved alternately until both are on the
# samples-to-table operator route, both held in the one plan cache; the tables of both sets'
# last two solves, as in REPEATED_SOLVE, on standard output, as CSV, so that a part taken
# under the other set's key would show
INTERLEAVED_SOLVES = """
import numpy as np
import hyperheat
configs = [hyperheat.SolveConfig(n=n, omega=4.0, omega_prime=3.0, boundary=hyperheat.gaussian(1.0, 1.0),
                                 times=(0.5, 1.0), xs=tuple(np.linspace(-2.0, 2.0, 41)))
           for n in (512, 256)]
cells = len(configs[0].times) * len(configs[0].xs)
rounds = [[hyperheat.solve(config).u for config in configs] for _ in range(cells + 1)][-2:]
print("solve,n,t,x,u_re,u_im")
for call, tables in zip((cells, cells + 1), rounds):
    for config, u in zip(configs, tables):
        for t, re, im in zip(config.times, u.real.tolist(), u.imag.tolist()):
            for x, a, b in zip(config.xs, re, im):
                print(f"{call},{config.n},{t!r},{x!r},{a!r},{b!r}")
"""

# tokens that hold no code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


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


def normalise_stderr(text: str, tree: Path) -> str:
    """``text`` with the tree's path read as ``<tree>`` and each ``cli.py:<digits>:`` as
    ``cli.py:<line>:``: warnings name their source file and line, which moves with any edit."""
    return re.sub(r"cli\.py:\d+:", "cli.py:<line>:", text.replace(str(tree), "<tree>"))


def run(tree: Path, args: list[str], cwd: Path) -> tuple[int, str, str]:
    """Exit code, standard output and standard error (see :func:`normalise_stderr`) of
    ``python ARGS`` with ``tree/src`` on the path."""
    proc = subprocess.run([sys.executable, *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(tree / "src")),
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, normalise_stderr(proc.stderr, tree)


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold a token other than a comment and are not part of a
    docstring (of the module, a class or a function)."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docs)


def package_size(tree: Path) -> tuple[int, int]:
    """``wc -l`` lines and :func:`code_lines` of the modules of ``tree/src/hyperheat``."""
    texts = [path.read_text(encoding="utf-8") for path in (tree / "src" / "hyperheat").glob("*.py")]
    return sum(text.count("\n") for text in texts), sum(map(code_lines, texts))


def compare_csv(old: str, new: str) -> list[str]:
    """One entry per column that differs: its changed-cell count and the largest
    ``|delta|``, ``nan`` when a changed cell is NaN or not a number; or one entry when
    the shapes differ."""
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
                    d = abs(float(r[c]) - float(s[c]))
                except ValueError:
                    d = math.nan
                # a NaN on either side makes the column's delta NaN: max(delta, nan) keeps delta
                delta = math.nan if math.isnan(d) else max(delta, d)
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
        runs = [(c, ["-m", "hyperheat.cli", *c.format(data=data).split()]) for c in COMMANDS]
        runs.append(("repeated solve (REPEATED_SOLVE)", ["-c", REPEATED_SOLVE]))
        runs.append(("interleaved solves (INTERLEAVED_SOLVES)", ["-c", INTERLEAVED_SOLVES]))
        same = True
        for label, args in runs:
            diff = compare(run(base, args, Path(tmp)), run(ROOT, args, Path(tmp)))
            same = same and not diff
            print(f"{label}: {'identical' if not diff else diff[0]}")
            for line in diff[1:]:
                print(f"    {line}")
        (old_lines, old_code), (new_lines, new_code) = package_size(base), package_size(ROOT)
    print(f"src/hyperheat: {old_lines:,} -> {new_lines:,} lines (wc -l), "
          f"{old_code:,} -> {new_code:,} code lines")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
