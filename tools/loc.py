"""Line counts of the srideals package, per module and in total.

Usage: python tools/loc.py [package-dir]   (default: src/srideals)

For each module it prints two counts:
  lines  the newline count, as ``wc -l`` gives it;
  code   the lines that hold a token other than a comment, a docstring
         (the leading string literal of a module, class or function body)
         or a newline.
Stdlib only.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def count(source: str) -> tuple[int, int]:
    """(wc -l lines, code lines) of one module's source."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        first = node.body[0] if isinstance(node, scopes) and node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
            if isinstance(first.value.value, str):
                docstrings.add((first.lineno, first.col_offset))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code)


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parents[1] / "src" / "srideals"
    package = Path(argv[1]) if len(argv) > 1 else default
    paths = sorted(package.glob("*.py"))
    width = max([len("module"), *(len(path.name) for path in paths)])
    total_lines = total_code = 0
    rows = [f"{'module':<{width}} {'lines':>7} {'code':>7}"]
    for path in paths:
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        rows.append(f"{path.name:<{width}} {lines:>7,} {code:>7,}")
    rows.append(f"{'total':<{width}} {total_lines:>7,} {total_code:>7,}")
    try:
        print("\n".join(rows))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``| head``, say): point it at devnull so
        # the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
