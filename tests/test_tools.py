import json
import math
import os
import subprocess
import sys
from pathlib import Path

SNIPPET = '''"""Module docstring
on two lines."""

# a comment
x = 1  # a trailing comment


def f(a):
    """One-line docstring."""
    return (a +
            1)
'''


def test_code_lines_leaves_out_docstrings_comments_and_blanks(tmp_path):
    module = tmp_path / "snippet.py"
    module.write_text(SNIPPET)
    tool = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    out = subprocess.run([sys.executable, str(tool), str(module), str(module)],
                         capture_output=True, text=True, check=True).stdout
    # code: x = 1, def f(a) and the two lines of the return; docstrings 2 + 1
    assert out.splitlines() == ["code docstring module", f"   4         3 {module}",
                                f"   4         3 {module}", "   8         6 total"]


def _compare(old, new):
    tool = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
    return subprocess.run([sys.executable, str(tool), str(old), str(new)],
                          capture_output=True, text=True)


def _tree(root, q="1.0", solve_s=0.5):
    (root / "run").mkdir(parents=True)
    (root / "run" / "ledger.csv").write_text(f"t,M_inst,Q\n0.0,2.0,{q}\n0.5,1.5,0.25\n")
    manifest = {"counters": [{"solves": 30, "solve_s": solve_s}], "wall_clock_s": solve_s}
    (root / "run" / "manifest.json").write_text(json.dumps(manifest))
    return root


def test_compare_outputs_names_what_differs(tmp_path):
    old = _tree(tmp_path / "old")
    assert _compare(old, _tree(tmp_path / "same")).returncode == 0
    # the timings may differ, nothing else
    assert _compare(old, _tree(tmp_path / "timed", solve_s=0.75)).returncode == 0

    ulp = _compare(old, _tree(tmp_path / "ulp", q=repr(math.nextafter(1.0, 2.0))))
    assert ulp.returncode == 1
    assert "run/ledger.csv: differs" in ulp.stdout and "Q: max relative" in ulp.stdout
    assert "M_inst" not in ulp.stdout

    missing = _tree(tmp_path / "missing")
    (missing / "run" / "ledger.csv").unlink()
    done = _compare(old, missing)
    assert done.returncode == 1 and "run/ledger.csv: only in" in done.stdout


def test_line_coverage_names_the_branch_its_test_never_takes(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        '"""A module."""\n\n\ndef sign(x):\n    """Sign of x."""\n'
        "    if x < 0:\n        return -1\n    return 1\n")
    (tmp_path / "test_mod.py").write_text(
        "from mod import sign\n\n\ndef test_positive():\n    assert sign(2) == 1\n")
    tool = Path(__file__).resolve().parents[1] / "tools" / "line_coverage.py"
    done = subprocess.run(
        [sys.executable, str(tool), "src", "test_mod.py", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(tmp_path / "src")},
        capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    report = done.stdout.split("statements never run, per module:\n")[1]
    # only line 7 never ran: neither the docstrings nor the def line count
    assert report.splitlines() == ["    1 mod.py", "      7: return -1", "    1 total"]
