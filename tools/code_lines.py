"""Count the lines and the code lines of Python modules.

A code line holds a token other than a comment or a docstring: blank lines,
comment lines and the lines of a module, class or function docstring do not
count, while every line of any other string, a multi-line one included,
does.  For each module it prints its lines and code lines, then the totals.

    python tools/code_lines.py              # the modules of src/abeldiff
    python tools/code_lines.py a.py pkg/    # files, or the *.py of directories
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "abeldiff"

# tokens that hold no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstrings(tree: ast.AST) -> set[tuple[int, int]]:
    """The start (line, column) of each module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of the Python source text."""
    docs = _docstrings(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or tok.type == tokenize.STRING and tok.start in docs:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", type=Path, default=[SRC],
                    help="files, or directories whose *.py are counted "
                         "(default: src/abeldiff)")
    args = ap.parse_args(argv)
    files = sorted(f for p in args.paths for f in (p.glob("*.py") if p.is_dir() else [p]))
    total = [0, 0]
    print(f"{'module':<28}{'lines':>7}{'code':>7}")
    for f in files:
        lines, code = count(f.read_text())
        total[0] += lines
        total[1] += code
        print(f"{f.name:<28}{lines:>7}{code:>7}")
    print(f"{'total':<28}{total[0]:>7}{total[1]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
