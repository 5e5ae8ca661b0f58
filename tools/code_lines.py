"""Count, per Python module, the code lines (neither docstring, comment nor
blank) and the docstring lines, then the totals of both.

    python tools/code_lines.py src/stripwave/*.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def count(source: str) -> tuple[int, int]:
    """(code lines, docstring lines) of one module's source."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs), len(docs)


if __name__ == "__main__":
    rows = [(*count(Path(path).read_text(encoding="utf-8")), path) for path in sys.argv[1:]]
    rows.append((sum(r[0] for r in rows), sum(r[1] for r in rows), "total"))
    print("code docstring module")
    for code, docs, name in rows:
        print(f"{code:4d} {docs:9d} {name}")
