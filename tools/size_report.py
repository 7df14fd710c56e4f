"""Print the size of the sumdiff package: lines and branch sites per module.

A branch site is an ``if`` statement or a conditional expression (``ast.If``
plus ``ast.IfExp``); comprehension filters and ``while`` loops are not
counted.  Lines are newline characters, as ``wc -l`` counts them.

    python tools/size_report.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/sumdiff`` beside this script's folder.
"""

from __future__ import annotations

import ast
import pathlib
import sys

DEFAULT_PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "sumdiff"


def module_size(path: pathlib.Path) -> tuple[int, int]:
    """(lines, branch sites) of one Python source file."""
    text = path.read_text(encoding="utf-8")
    branches = sum(isinstance(node, (ast.If, ast.IfExp)) for node in ast.walk(ast.parse(text)))
    return text.count("\n"), branches


def report(package: pathlib.Path) -> list[tuple[str, int, int]]:
    """(module file name, lines, branch sites) of each module, by name."""
    return [(path.name, *module_size(path)) for path in sorted(package.glob("*.py"))]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = pathlib.Path(argv[0]) if argv else DEFAULT_PACKAGE
    rows = report(package)
    if not rows:
        print(f"error: no Python modules in {package}", file=sys.stderr)
        return 1
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'branches':>8}")
    for name, lines, branches in rows:
        print(f"{name:<{width}}  {lines:>6}  {branches:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
