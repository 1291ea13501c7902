"""Print the size of each module of ``src/stdpairs``: total and code lines.

A code line holds at least one token that is neither a comment nor part
of a docstring.  Run from anywhere:

    python scripts/src_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stdpairs"
SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_starts(source: str) -> set:
    """The (line, column) where each module, class and function docstring starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(source: str) -> int:
    docstrings = docstring_starts(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    total = code = 0
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        n, c = len(source.splitlines()), code_lines(source)
        total, code = total + n, code + c
        print(f"{path.name:<16} {n:>6} {c:>6}")
    print(f"{'total':<16} {total:>6} {code:>6}")


if __name__ == "__main__":
    main()
