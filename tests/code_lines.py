"""Count the code lines of Python modules.

A code line holds at least one token that is neither a comment nor part of
a module, class or function docstring; blank lines, comment lines and
docstring lines do not count. Run as

    PYTHONPATH=src python tests/code_lines.py src/koopdrive

to print each module's count and the total, for a file or a directory of
modules (not recursive).
"""

import ast
import io
import pathlib
import sys
import tokenize

# tokens that hold no code: layout, encoding and end markers, and comments
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold a code token."""
    docs = docstring_lines(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE and tok.start[0] not in docs:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: code_lines.py FILE_OR_DIRECTORY", file=sys.stderr)
        return 2
    root = pathlib.Path(argv[0])
    paths = sorted(root.glob("*.py")) if root.is_dir() else [root]
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
