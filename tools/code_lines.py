"""Count the code lines of src/amfpmc/*.py: non-blank lines outside comments and docstrings.

A docstring is a string expression standing alone as a statement (the first
statement of a module, class or function, or an attribute note after a
field). Prints the count per file and the total:

    python tools/code_lines.py [FILE ...]

With no FILE, counts src/amfpmc/*.py under the repository root.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def docstring_lines(source: str) -> set[int]:
    """The line numbers spanned by string expressions that stand alone as statements."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines holding at least one token other than a comment, a docstring or layout."""
    skip = docstring_lines(source)
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in layout:
            continue
        lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    paths = [Path(a) for a in argv] or sorted((root / "src" / "amfpmc").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
