"""Print the size of the sumdiff package: lines and branch sites per module,
or per function.

A branch site is an ``if`` statement or a conditional expression (``ast.If``
plus ``ast.IfExp``); comprehension filters and ``while`` loops are not
counted.  Lines are newline characters, as ``wc -l`` counts them.

    python tools/size_report.py [PACKAGE_DIR [PARENT_DIR]]
    python tools/size_report.py --functions [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/sumdiff`` beside this script's folder.  With
PARENT_DIR, the same package in another tree (say, a checkout of the parent
commit), each row also gets the change in lines and in branch sites from
PARENT_DIR to PACKAGE_DIR; a module in only one of them counts as empty in
the other.

``--functions`` lists every function and method instead, as
``module:Class.name``, with its lines (decorators included) and branch
sites, largest first: by lines, then by branch sites, then by name.  A
nested function is listed on its own and also counts in the function around
it.
"""

from __future__ import annotations

import ast
import pathlib
import sys

DEFAULT_PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "sumdiff"


def _branches(tree: ast.AST) -> int:
    return sum(isinstance(node, (ast.If, ast.IfExp)) for node in ast.walk(tree))


def module_size(path: pathlib.Path) -> tuple[int, int]:
    """(lines, branch sites) of one Python source file."""
    text = path.read_text(encoding="utf-8")
    return text.count("\n"), _branches(ast.parse(text))


def function_sizes(package: pathlib.Path) -> list[tuple[str, int, int]]:
    """(module:qualified name, lines, branch sites) of every function and
    method of the package's modules, largest first."""
    rows = []

    def visit(node: ast.AST, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                start = min([child.lineno] + [d.lineno for d in child.decorator_list])
                rows.append((f"{module}:{prefix}{child.name}", child.end_lineno - start + 1, _branches(child)))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, module, f"{prefix}{child.name}." if named else prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "")
    return sorted(rows, key=lambda row: (-row[1], -row[2], row[0]))


def report(package: pathlib.Path) -> list[tuple[str, int, int]]:
    """(module file name, lines, branch sites) of each module, by name."""
    return [(path.name, *module_size(path)) for path in sorted(package.glob("*.py"))]


def _delta(n: int) -> str:
    return f"{n:+d}" if n else "0"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--functions"]:
        package = pathlib.Path(argv[1]) if argv[1:] else DEFAULT_PACKAGE
        rows = function_sizes(package)
        if not rows:
            print(f"error: no functions in {package}", file=sys.stderr)
            return 1
        width = max(len(row[0]) for row in rows)
        print(f"{'function':<{width}}  {'lines':>6}  {'branches':>8}")
        for name, lines, branches in rows:
            print(f"{name:<{width}}  {lines:>6}  {branches:>8}")
        return 0
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
