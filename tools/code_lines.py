"""Count the code lines of Python sources: lines that hold a token other
than a comment or a docstring.

A docstring is a string literal standing alone as the first statement of
a module, class or function.  A multi-line token counts on every line it
spans, so a multi-line string that is not a docstring counts in full;
blank lines, comment lines and line breaks count nowhere.

    python3 tools/code_lines.py src/clarklab

prints each file's count and the total.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that carry no code of their own.
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines spanned by the docstrings in the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold a code token."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP and tok.start[0] not in docs:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    total = 0
    for root in argv or ["src"]:
        root = Path(root)
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            n = code_lines(path.read_text())
            total += n
            print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
