#!/usr/bin/env python3
"""Count the code lines of Python modules.

Usage:
    python scripts/code_lines.py [PATH ...]

A code line holds at least one token of code. Blank lines, comment-only
lines and the lines of module, class and function docstrings do not count;
a line that ends in a comment does. Each PATH is a module or a directory,
searched recursively for *.py; the default is src/hannum. The script prints
one line per module and then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = frozenset(
    {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
)
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_DEFAULT = Path(__file__).resolve().parent.parent / "src" / "hannum"


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _modules(paths: list[Path]) -> list[Path]:
    found: list[Path] = []
    for path in paths:
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[_DEFAULT])
    args = parser.parse_args(argv)
    total = 0
    for module in _modules(args.paths):
        n = code_lines(module.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {module}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
