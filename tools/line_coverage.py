"""Name the statements of a source tree that a pytest run never executes.

    python tools/line_coverage.py SRC_DIR [PYTEST_ARGS...]

Runs pytest in this process under a sys.settrace hook that records the
lines run by code whose file lies under SRC_DIR, then prints, per module,
the count of statements that never ran and each one's line.  Docstrings,
`def`/`class` lines and `try:` headers are left out.  A statement counts as
run when any line of it ran; for a compound statement (if, for, while,
with) only its header lines count.  A child made by os.fork keeps the
hook and hands its lines back when it ends through os._exit.  Code that a
test runs in a subprocess, in another thread or in a child that ends
otherwise (killed, or returning to the caller of fork) is not traced, so
its statements are reported as never run.  Exits with pytest's exit code.
"""

import ast
import os
import pickle
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try,
           ast.Global, ast.Nonlocal)


def statements(source: str) -> dict:
    """First line -> the lines of that statement which count as running it."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring, or a bare string that compiles to nothing
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        out[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
    return out


def traced_run(root: Path, pytest_args: list) -> tuple[int, dict]:
    """pytest's exit code and {file: set of lines run} under root."""
    hits: dict = {}
    inside: dict = {}  # co_filename -> its absolute path under root, or None

    def local(frame, event, arg):
        if event == "line":
            hits[inside[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            path = Path(os.path.abspath(name))
            inside[name] = path if path.is_relative_to(root) else None
            if inside[name] is not None:
                hits.setdefault(path, set())
        return local if inside[name] is not None else None

    handoff = Path(tempfile.mkdtemp(prefix="line_coverage-"))
    real_exit = os._exit

    def exit_with_hits(status):
        # a child killed while writing leaves only its .part file unmerged
        part = handoff / f"{os.getpid()}.part"
        with open(part, "wb") as fh:
            pickle.dump(hits, fh)
        os.replace(part, part.with_suffix(".pickle"))
        real_exit(status)

    def in_child():
        # the child keeps this thread's hook; it reports only its own lines
        for lines in hits.values():
            lines.clear()
        os._exit = exit_with_hits

    os.register_at_fork(after_in_child=in_child)
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        for path in handoff.glob("*.pickle"):
            for name, lines in pickle.loads(path.read_bytes()).items():
                hits.setdefault(name, set()).update(lines)
        shutil.rmtree(handoff)
    return int(code), hits


def main(argv: list) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    code, hits = traced_run(root, argv[1:])
    total = 0
    print("statements never run, per module:")
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        ran = hits.get(path, set())
        missed = [first for first, lines in sorted(statements(source).items())
                  if ran.isdisjoint(lines)]
        total += len(missed)
        print(f"{len(missed):5d} {path.relative_to(root)}")
        text = source.splitlines()
        for line in missed:
            print(f"      {line}: {text[line - 1].strip()}")
    print(f"{total:5d} total")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
