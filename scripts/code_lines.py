"""Print the code lines of each ``src/msglen/*.py`` file and their total,
then those of each ``tests/*.py`` file and theirs.

A code line is a non-blank line that holds a token other than a comment
and lies outside every docstring (of a module, class or function).
Tokens come from ``tokenize``, docstrings from ``ast``; a token that spans
lines, such as a multi-line string, counts on each line it spans.

    python scripts/code_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLES = (ROOT / "src" / "msglen", ROOT / "tests")
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with tokenize.open(path) as handle:
        text = handle.read()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main() -> int:
    for i, folder in enumerate(TABLES):
        if i:
            print()
        print(f"        {folder.relative_to(ROOT)}/*.py")
        total = 0
        for path in sorted(folder.glob("*.py")):
            n = code_lines(path)
            total += n
            print(f"{n:6d}  {path.name}")
        print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
