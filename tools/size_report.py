"""Print the size of the sumdiff package: lines and branch sites per module.

A branch site is an ``if`` statement or a conditional expression (``ast.If``
plus ``ast.IfExp``); comprehension filters and ``while`` loops are not
counted.  Lines are newline characters, as ``wc -l`` counts them.

    python tools/size_report.py [PACKAGE_DIR [PARENT_DIR]]

PACKAGE_DIR defaults to ``src/sumdiff`` beside this script's folder.  With
PARENT_DIR, the same package in another tree (say, a checkout of the parent
commit), each row also gets the change in lines and in branch sites from
PARENT_DIR to PACKAGE_DIR; a module in only one of them counts as empty in
the other.
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


def _delta(n: int) -> str:
    return f"{n:+d}" if n else "0"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    packages = [pathlib.Path(arg) for arg in argv[:2]] or [DEFAULT_PACKAGE]
    sizes = []
    for package in packages:
        rows = report(package)
        if not rows:
            print(f"error: no Python modules in {package}", file=sys.stderr)
            return 1
        sizes.append({name: (lines, branches) for name, lines, branches in rows})
    now, before = sizes[0], sizes[-1]
    names = sorted(now.keys() | before.keys())
    rows = [(name, *now.get(name, (0, 0)), *before.get(name, (0, 0))) for name in names]
    rows.append(("total", *(sum(row[i] for row in rows) for i in range(1, 5))))
    width = max(len(row[0]) for row in rows)
    deltas = len(packages) == 2
    print(f"{'module':<{width}}  {'lines':>6}  {'branches':>8}" + (f"  {'lines+-':>7}  {'branches+-':>10}" * deltas))
    for name, lines, branches, old_lines, old_branches in rows:
        extra = f"  {_delta(lines - old_lines):>7}  {_delta(branches - old_branches):>10}" if deltas else ""
        print(f"{name:<{width}}  {lines:>6}  {branches:>8}{extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
