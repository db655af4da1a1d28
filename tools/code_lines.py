"""Count the code lines of the wgqed package, module by module.

A code line holds a token that is neither a comment nor part of a
docstring (a string literal that is the first statement of a module,
class or function); blank lines hold none.  A string that spans lines
counts on every line it covers.

    python3 tools/code_lines.py

prints the count of each module under src/wgqed, then the total; it
finds the package from its own location, whatever the working directory.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

# tokens that are not code: layout and comments
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def _docstring_spans(tree: ast.AST) -> set[tuple[int, int]]:
    """(first line, last line) of every docstring in tree."""
    spans = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                spans.add((first.lineno, first.end_lineno))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docstrings = _docstring_spans(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        span = token.start[0], token.end[0]
        if token.type == tokenize.STRING and span in docstrings:
            continue
        lines.update(range(span[0], span[1] + 1))
    return len(lines)


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wgqed"


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(PACKAGE)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
