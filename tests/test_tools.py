"""The report of ``tools/compare_outputs.py``, on hand-made outputs."""

import importlib.util
from collections import OrderedDict
from pathlib import Path

from hyperheat import evolution

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

OLD = "t,x,u_re,u_im_diag\r\n0.5,0.0,0.5773,1e-17\r\n0.5,1.0,0.4,-2e-17\r\n"


def test_identical_runs_report_nothing():
    assert compare_outputs.compare((0, OLD, ""), (0, OLD, "")) == []


def test_changed_cells_are_counted_per_column_with_the_largest_delta():
    new = "t,x,u_re,u_im_diag\r\n0.5,0.0,0.5775,0.0\r\n0.5,1.0,0.4,0.0\r\n"
    assert compare_outputs.compare_csv(OLD, new) == [
        "u_re: 1 cells changed, max |delta| 0.0002",
        "u_im_diag: 2 cells changed, max |delta| 2e-17",
    ]


def test_a_change_between_nan_and_a_number_reports_a_nan_delta():
    # on either side of a numeric change in the same column, and in either direction
    for new in ("t,x,u_re,u_im_diag\r\n0.5,0.0,0.5775,1e-17\r\n0.5,1.0,nan,-2e-17\r\n",
                "t,x,u_re,u_im_diag\r\n0.5,0.0,nan,1e-17\r\n0.5,1.0,0.5,-2e-17\r\n"):
        for a, b in ((OLD, new), (new, OLD)):
            assert compare_outputs.compare_csv(a, b) == ["u_re: 2 cells changed, max |delta| nan"]


def test_header_shape_stderr_and_exit_code_changes_are_reported():
    assert compare_outputs.compare_csv(OLD, "t,x,u\r\n") == [
        "header ['t', 'x', 'u_re', 'u_im_diag'] -> ['t', 'x', 'u']"]
    assert compare_outputs.compare_csv(OLD, OLD + "1,2,3,4\r\n") == ["shape 2 rows -> 3 rows"]
    assert compare_outputs.compare((0, OLD, "warn\n"), (1, OLD, "")) == [
        "stderr differs:", "  - warn", "exit code 0 -> 1"]


def test_every_command_is_a_hyperheat_command():
    commands = {c.split()[0] for c in compare_outputs.COMMANDS}
    assert commands == {"validate", "solve", "kernel", "converge", "rates"}


def test_repeated_solve_ends_on_the_operator_route(monkeypatch, capsys):
    monkeypatch.setattr(evolution, "_plans", OrderedDict())
    exec(compare_outputs.REPEATED_SOLVE, {})
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "solve,t,x,u_re,u_im" and len(rows) == 1 + 2 * 2 * 41
    assert [row.split(",")[0] for row in rows[1:]] == ["82"] * 82 + ["83"] * 82
    # the two routes' tables differ by rounding, so a switch one solve off changes the output
    assert [row.split(",", 1)[1] for row in rows[1:83]] != [row.split(",", 1)[1] for row in rows[83:]]
    # the operator's key holds the operator, not a count
    assert [isinstance(part, tuple) for key, part in evolution._plans.items() if key[0] == "operator"] == [True]


def test_interleaved_solves_end_with_both_operators_cached(monkeypatch, capsys):
    monkeypatch.setattr(evolution, "_plans", OrderedDict())
    exec(compare_outputs.INTERLEAVED_SOLVES, {})
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "solve,n,t,x,u_re,u_im" and len(rows) == 1 + 2 * 2 * 2 * 41
    assert sorted(key[1] for key, part in evolution._plans.items()
                  if key[0] == "operator" and isinstance(part, tuple)) == [256, 512]


def test_code_lines_leave_out_docstrings_comments_and_blanks(tmp_path):
    source = (
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "import math  # and a trailing one\n"
        "\n"
        "\n"
        "class C:\n"
        "    'One line.'\n"
        "\n"
        "    def f(self, x):\n"
        '        """Two\n'
        '        lines."""\n'
        '        s = """not a\n'
        'docstring"""\n'
        "        return math.sqrt(x)\n"
    )
    # import, class, def, the two lines of s and return
    assert compare_outputs.code_lines(source) == 6
    package = tmp_path / "src" / "hyperheat"
    package.mkdir(parents=True)
    (package / "a.py").write_text(source, encoding="utf-8")
    (package / "b.py").write_text("x = 1\n", encoding="utf-8")
    assert compare_outputs.package_size(tmp_path) == (16 + 1, 6 + 1)


def test_stderr_differing_only_in_the_cli_line_number_compares_equal():
    tree = Path("/checkout")
    warning = ("{}/src/hyperheat/cli.py:{}: RuntimeWarning: |growth| reaches 33 inside the "
               "frequency window (omega_prime=8.0, n=8); powers will grow\n")
    old, new = (compare_outputs.normalise_stderr(warning.format(tree, line), tree)
                for line in (216, 219))
    assert old == new == warning.format("<tree>", "<line>")
    assert compare_outputs.compare((0, OLD, old), (0, OLD, new)) == []
    other = compare_outputs.normalise_stderr(warning.format(tree, 216).replace("33", "34"), tree)
    assert compare_outputs.compare((0, OLD, old), (0, OLD, other))[0] == "stderr differs:"
