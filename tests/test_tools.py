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
