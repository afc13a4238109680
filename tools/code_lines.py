"""Code lines and total lines of Python source files.

    python3 tools/code_lines.py FILE [FILE ...]

Prints one row per file, its code lines, its total lines and its path,
then a ``total`` row when more than one file is given.  A code line
holds at least part of a token other than a comment, a docstring or
whitespace: a statement that spans several lines counts each of them,
and so does a string that does, unless it is a docstring (a string
statement that opens a module, class or function body).  Blank lines,
comment lines and docstring lines do not count.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that are layout, not code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) of every docstring's opening quote."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """(code lines, total lines) of one module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING
                                   and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code), len(source.splitlines())


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    totals = [0, 0]
    for name in argv:
        lines = count(Path(name).read_text())
        totals = [a + b for a, b in zip(totals, lines)]
        print(f"{lines[0]:7d} {lines[1]:7d}  {name}")
    if len(argv) > 1:
        print(f"{totals[0]:7d} {totals[1]:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
