"""Count code lines per Python module.

A code line holds at least one token that is not a comment, a line break,
an indent or a docstring.  Blank lines, comment-only lines and the lines
of module, class and function docstrings do not count.

Usage: ``python tools/code_lines.py [PATH ...]`` (default ``src/statorlab``);
each PATH is a ``.py`` file or a directory searched recursively.  Prints
one line per module and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """Line numbers covered by the docstrings of ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def modules(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None) -> int:
    counts = {str(path): code_lines(path.read_text(encoding="utf-8"))
              for path in modules(argv or ["src/statorlab"])}
    width = max(map(len, counts), default=0)
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
